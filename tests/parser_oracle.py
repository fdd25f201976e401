"""The recursive statement parser and parameter resolver that the explicit
stacks in `assetscout.parser` replaced, kept as test oracles.

- `RecursiveStatementParser` is `_Parser` with the statement parser that
  recursed into each nested statement, `if` branch and `case` item;
  `recursive_parse_source` parses with it as `parse_source` does.
- `recursive_resolve_parameters` resolves each parameter by recursing into
  its dependencies first, and evaluates it with `recursive_eval_const_expr`,
  one function per precedence level.
"""

from typing import Dict, List, Optional, Sequence, Tuple

from assetscout.parser import (
    _CASE_STARTS, _PROCEDURAL_ASSIGN_KEYWORDS, ParseError, _is_name,
    _number_value, _Parser, collect_identifiers, preprocess,
)
from assetscout.syntax import (
    BLOCKING_ASSIGN, CASE_STMT, IF_STMT, NONBLOCKING_ASSIGN, Diagnostic,
    SourceUnit, Statement,
)
from assetscout.tokenizer import ID_START, is_number, tokenize


class RecursiveStatementParser(_Parser):
    """`_Parser` whose statements nest on the Python stack."""

    def _parse_statement(self, guards: Optional[List[str]] = None) -> List[Statement]:
        guards = guards or []
        texts, lines = self.texts, self.lines
        if self.pos >= self.end:
            return []
        t = texts[self.pos]
        if t == ";":
            self.pos += 1
            return []
        if t == "@" or t == "#":
            self._skip_timing_control()
            return self._parse_statement(guards)
        if t == "begin":
            self.pos += 1
            if texts[self.pos] == ":":
                self.pos += 1
                if texts[self.pos][:1] in ID_START:
                    self.pos += 1
            out: List[Statement] = []
            while self.pos < self.end:
                t = texts[self.pos]
                if t == "end":
                    self.pos += 1
                    break
                if t == "endmodule":
                    raise ParseError("missing 'end'", lines[self.pos])
                out.extend(self._parse_statement(guards))
            return out
        if t == "if":
            return self._parse_if(guards)
        if t in _CASE_STARTS:
            if t == "unique" or t == "priority":
                self.pos += 1
            return self._parse_case(guards)
        if t == "for" or t == "while" or t == "repeat":
            self.pos += 1
            if texts[self.pos] == "(":
                self.pos += 1
                self.collect_until(")")
            return self._parse_statement(guards)
        if t == "forever":
            self.pos += 1
            return self._parse_statement(guards)
        if t == "disable" or t == "wait" or t[0] == "$":
            self.collect_until(";")
            return []
        if t in _PROCEDURAL_ASSIGN_KEYWORDS:
            self.pos += 1
        start = self.pos
        lhs = self.collect_until("=", "<=", consume=False)
        op = texts[self.pos]
        if op != "=" and op != "<=":
            self.collect_until(";")
            return []
        line = lines[start] if lhs else lines[self.pos]
        self.pos += 1
        self._skip_timing_control()
        rhs = self.collect_until(";")
        kind = NONBLOCKING_ASSIGN if op == "<=" else BLOCKING_ASSIGN
        return [self._make_assign(kind, collect_identifiers(lhs), rhs, guards, line)]

    def _parse_if(self, guards: List[str]) -> List[Statement]:
        line = self.expect("if")
        self.expect("(")
        cond_ids = collect_identifiers(self.collect_until(")"))
        then_stmts = self._parse_statement(guards + cond_ids)
        else_stmts: List[Statement] = []
        branches = 1
        if self.texts[self.pos] == "else":
            self.pos += 1
            branches = 2
            else_stmts = self._parse_statement(guards + cond_ids)
        head = Statement(IF_STMT, line, cond_idents=cond_ids,
                         body_statement_count=max(len(then_stmts), len(else_stmts)),
                         branch_count=branches)
        return [head] + then_stmts + else_stmts

    def _parse_case(self, guards: List[str]) -> List[Statement]:
        texts = self.texts
        line = self.lines[self.pos]
        if self.pos < self.end:
            self.pos += 1  # case/casez/casex
        self.expect("(")
        cond_ids = collect_identifiers(self.collect_until(")"))
        items: List[List[Statement]] = []
        body: List[Statement] = []
        while self.pos < self.end:
            t = texts[self.pos]
            if t == "endcase":
                self.pos += 1
                break
            if t == "endmodule":
                raise ParseError("missing 'endcase'", self.lines[self.pos])
            if t == "default":
                self.pos += 1
                if texts[self.pos] == ":":
                    self.pos += 1
            else:
                self.collect_until(":")
            stmts = self._parse_statement(guards + cond_ids)
            items.append(stmts)
            body.extend(stmts)
        head = Statement(CASE_STMT, line, cond_idents=cond_ids,
                         body_statement_count=max((len(s) for s in items), default=0),
                         branch_count=len(items))
        return [head] + body


def recursive_parse_source(text: str) -> SourceUnit:
    """`parse_source` with `RecursiveStatementParser`."""
    diags: List[Diagnostic] = []
    processed = preprocess(text, diagnostics=diags)
    parser = RecursiveStatementParser(tokenize(processed), "<string>")
    parser.diagnostics.extend(diags)
    unit = parser.parse_unit()
    unit.line_count = text.count("\n")
    return unit


def recursive_eval_const_expr(texts: Sequence[str],
                              params: Dict[str, Optional[int]]) -> Optional[int]:
    value, pos = _eval_sum(texts, 0, params)
    return value if pos == len(texts) else None


# Each level returns (value, position after it); a None value is final.

def _eval_sum(texts: Sequence[str], pos: int,
              params: Dict[str, Optional[int]]) -> Tuple[Optional[int], int]:
    value, pos = _eval_product(texts, pos, params)
    while value is not None and pos < len(texts):
        op = texts[pos]
        if op != "+" and op != "-":
            break
        rhs, pos = _eval_product(texts, pos + 1, params)
        if rhs is None:
            return None, pos
        value = value + rhs if op == "+" else value - rhs
    return value, pos


def _eval_product(texts: Sequence[str], pos: int,
                  params: Dict[str, Optional[int]]) -> Tuple[Optional[int], int]:
    value, pos = _eval_primary(texts, pos, params)
    while value is not None and pos < len(texts):
        op = texts[pos]
        if op != "*" and op != "/":
            break
        rhs, pos = _eval_primary(texts, pos + 1, params)
        if rhs is None:
            return None, pos
        if op == "*":
            value = value * rhs
        else:
            value = value // rhs if rhs != 0 else None
    return value, pos


def _eval_primary(texts: Sequence[str], pos: int,
                  params: Dict[str, Optional[int]]) -> Tuple[Optional[int], int]:
    if pos >= len(texts):
        return None, pos
    t = texts[pos]
    if is_number(t):
        return _number_value(t), pos + 1
    if t[0] in ID_START:
        return params.get(t), pos + 1
    if t == "(":
        value, pos = _eval_sum(texts, pos + 1, params)
        if pos < len(texts) and texts[pos] == ")":
            return value, pos + 1
        return None, pos
    if t == "-":
        value, pos = _eval_primary(texts, pos + 1, params)
        return (-value if value is not None else None), pos
    if t == "+":
        return _eval_primary(texts, pos + 1, params)
    return None, pos


def _resolve_parameter(name: str, raw: Dict[str, List[str]],
                       resolved: Dict[str, Optional[int]],
                       in_progress: set) -> Optional[int]:
    if name in resolved:
        return resolved[name]
    if name not in raw or name in in_progress:
        return None
    in_progress.add(name)
    expr = raw[name]
    needed = {t for t in expr if _is_name(t)}
    env = {dep: _resolve_parameter(dep, raw, resolved, in_progress) for dep in needed}
    value = recursive_eval_const_expr(expr, env)
    in_progress.discard(name)
    resolved[name] = value
    return value


def recursive_resolve_parameters(raw: Dict[str, List[str]]) -> Dict[str, Optional[int]]:
    """The value of each parameter; a dependency cycle reads None."""
    resolved: Dict[str, Optional[int]] = {}
    for name in raw:
        _resolve_parameter(name, raw, resolved, set())
    return resolved
