"""Recursive-descent parser for a practical Verilog-2005 / SystemVerilog subset.

Covers module/endmodule, ANSI and non-ANSI ports, wire/reg/logic/integer
declarations, parameter/localparam, always/initial blocks with if/case and
blocking/non-blocking assignments, ternary expressions, continuous assigns
and module instantiations.  Unsupported constructs (generate, function,
task, ...) are skipped with a diagnostic.  Errors never abort sibling
modules: recovery happens at the next `module` keyword.
"""

import os
import re
from typing import Dict, Iterator, List, Optional, Sequence, Tuple

from .tokenizer import RESERVED_WORDS, Token, strip_comments, tokenize
from .syntax import (
    BLOCKING_ASSIGN, CASE_STMT, CONTINUOUS_ASSIGN, IF_STMT, INOUT, INPUT, NET,
    NONBLOCKING_ASSIGN, OUTPUT, TERNARY_STMT,
    Diagnostic, Instantiation, ModuleDef, SignalDecl, SourceUnit, Statement,
)

RTL_EXTENSIONS = (".v", ".sv", ".vh", ".svh")
MAX_INCLUDE_DEPTH = 17  # files on an include chain, the parsed file included

_NET_TYPES = {"wire", "reg", "logic", "integer", "tri", "tri0", "tri1",
              "wand", "wor", "triand", "trior", "trireg", "supply0",
              "supply1", "uwire", "bit", "time", "real", "realtime"}
_Range = Tuple[List[Token], List[Token]]  # the (msb, lsb) tokens of `[msb:lsb]`
_DIRECTIONS = {"input": INPUT, "output": OUTPUT, "inout": INOUT}
_SKIP_BLOCKS = {
    "generate": "endgenerate",
    "function": "endfunction",
    "task": "endtask",
    "specify": "endspecify",
    "table": "endtable",
    "interface": "endinterface",
    "package": "endpackage",
    "property": "endproperty",
    "sequence": "endsequence",
}


class ParseError(Exception):
    def __init__(self, message: str, line: int):
        super().__init__(message)
        self.message = message
        self.line = line


# ---------------------------------------------------------------------------
# Preprocessor: `define / `undef / `include / `ifdef / `ifndef / `else / `endif
# ---------------------------------------------------------------------------

def preprocess(text: str, path: str = "<string>",
               include_dirs: Sequence[str] = (),
               defines: Optional[Dict[str, str]] = None,
               diagnostics: Optional[List[Diagnostic]] = None,
               _chain: Tuple[str, ...] = ()) -> str:
    """Expand object-like macros and resolve includes / conditionals.

    Returns preprocessed text with the same number of lines as the input
    (included content is appended in place on the directive's line).
    `_chain` holds the real paths of the files being expanded, outermost
    first: a file already on it is an include cycle and is not expanded.
    """
    chain = _chain or (os.path.realpath(path),)
    if defines is None:
        defines = {}
    if diagnostics is None:
        diagnostics = []
    cleaned, comment_diags = strip_comments(text)
    for msg, line in comment_diags:
        diagnostics.append(Diagnostic(msg, "warning", line))

    out_lines: List[str] = []
    # one [branch active, some branch of this level taken] pair per level
    cond_stack: List[List[bool]] = []
    lines = cleaned.split("\n")
    i = 0
    while i < len(lines):
        raw = lines[i]
        lineno = i + 1
        stripped = raw.strip()
        # join continuation lines for directives
        if stripped.startswith("`define") and stripped.endswith("\\"):
            joined = stripped
            while joined.endswith("\\") and i + 1 < len(lines):
                i += 1
                out_lines.append("")
                joined = joined[:-1] + " " + lines[i].strip()
            stripped = joined
        active = all(level[0] for level in cond_stack)
        if stripped.startswith("`"):
            parts = stripped.split(None, 2)
            word = parts[0][1:]
            defined = len(parts) > 1 and parts[1] in defines
            if word in ("ifdef", "ifndef"):
                hit = active and (defined == (word == "ifdef"))
                cond_stack.append([hit, hit])
            elif word in ("else", "elsif"):
                if cond_stack:
                    level = cond_stack[-1]
                    parent = all(outer[0] for outer in cond_stack[:-1])
                    level[0] = parent and not level[1] and (word == "else" or defined)
                    level[1] = level[1] or level[0]
                else:
                    diagnostics.append(Diagnostic(f"`{word} without `ifdef", "warning", lineno))
            elif word == "endif":
                if cond_stack:
                    cond_stack.pop()
                else:
                    diagnostics.append(Diagnostic("`endif without `ifdef", "warning", lineno))
            elif not active:
                pass
            elif word == "define":
                if len(parts) >= 2:
                    name = parts[1]
                    if "(" in name:  # function-like macros unsupported
                        diagnostics.append(Diagnostic(
                            f"function-like macro `{name.split('(')[0]} not expanded",
                            "warning", lineno))
                    else:
                        defines[name] = parts[2] if len(parts) > 2 else ""
            elif word == "undef":
                if len(parts) >= 2:
                    defines.pop(parts[1], None)
            elif word == "include":
                target = stripped.split(None, 1)[1].strip().strip('"<>') if len(parts) > 1 else ""
                found = _read_include(target, path, include_dirs)
                if found is None:
                    diagnostics.append(Diagnostic(
                        f"include file not found: {target}", "warning", lineno))
                elif found[0] in chain:
                    diagnostics.append(Diagnostic(
                        f"include cycle at {target}", "warning", lineno))
                elif len(chain) > MAX_INCLUDE_DEPTH:
                    diagnostics.append(Diagnostic(
                        f"include depth limit reached at {target}", "warning", lineno))
                else:
                    # the included file's own includes resolve from its directory
                    expanded = preprocess(found[1], found[0], include_dirs,
                                          defines, diagnostics, chain + (found[0],))
                    out_lines.append(expanded.replace("\n", " "))
                    i += 1
                    continue
            # other directives (`timescale, `default_nettype, ...) are dropped
            out_lines.append("")
        elif not active:
            out_lines.append("")
        else:
            out_lines.append(_substitute_macros(raw, defines))
        i += 1
    return "\n".join(out_lines)


def _read_include(target: str, from_path: str,
                  include_dirs: Sequence[str]) -> Optional[Tuple[str, str]]:
    """(real path, text) of the first file `target` names, or None."""
    candidates = []
    if from_path and from_path != "<string>":
        candidates.append(os.path.join(os.path.dirname(from_path), target))
    for d in include_dirs:
        candidates.append(os.path.join(d, target))
    candidates.append(target)
    for cand in candidates:
        if os.path.isfile(cand):
            with open(cand, "rb") as fh:
                return (os.path.realpath(cand),
                        fh.read().decode("utf-8", errors="replace"))
    return None


# A string literal holds no macro use, so it matches whole and stays as it
# is; so does an escaped identifier (IEEE 1364-2005 §3.7.1), whose `"` must
# not open a string.
_MACRO_USE_RE = re.compile(r'"(?:[^"\\]|\\.?)*"?|\\[^ \t\r\n]*|`([\w$]*)')


def _substitute_macros(line: str, defines: Dict[str, str]) -> str:
    if "`" not in line:
        return line

    def expand(m: "re.Match[str]") -> str:
        name = m.group(1)
        return m.group() if name is None else defines.get(name, m.group())
    return _MACRO_USE_RE.sub(expand, line)


# ---------------------------------------------------------------------------
# Expression helpers
# ---------------------------------------------------------------------------

def collect_identifiers(tokens: Sequence[Token]) -> List[str]:
    """Identifiers referenced in an expression, in order, without duplicates.

    Skips system ids, based-literal tokens and named-connection dots.
    """
    seen = []
    for idx, tok in enumerate(tokens):
        if tok.kind != "id" or tok.value in RESERVED_WORDS:
            continue
        if idx > 0 and tokens[idx - 1].kind == "punct" and tokens[idx - 1].value == ".":
            continue
        if tok.value not in seen:
            seen.append(tok.value)
    return seen


def _contains_ternary(tokens: Sequence[Token]) -> bool:
    return any(t.kind == "punct" and t.value == "?" for t in tokens)


def _split_ternary(tokens: Sequence[Token]) -> Tuple[List[Token], List[Token]]:
    """Split an expression at its top-level '?' into (condition, rest)."""
    depth = 0
    for idx, t in enumerate(tokens):
        if t.kind == "punct":
            if t.value in "([{":
                depth += 1
            elif t.value in ")]}":
                depth -= 1
            elif t.value == "?" and depth == 0:
                return list(tokens[:idx]), list(tokens[idx + 1:])
    return [], list(tokens)


def eval_const_expr(tokens: Sequence[Token],
                    params: Dict[str, Optional[int]]) -> Optional[int]:
    """Evaluate +,-,*,/ and parenthesised constant expressions.

    Identifiers are looked up in `params`; anything else makes the result
    unresolved (None).
    """
    value, pos = _eval_sum(tokens, 0, params)
    return value if pos == len(tokens) else None


# The evaluator's levels are module-level functions that pass the position
# along, so a call leaves no closures behind to form reference cycles. Each
# returns (value, position after it); a None value is final, whatever the
# position.

def _eval_sum(tokens: Sequence[Token], pos: int,
              params: Dict[str, Optional[int]]) -> Tuple[Optional[int], int]:
    value, pos = _eval_product(tokens, pos, params)
    while value is not None and pos < len(tokens):
        op = tokens[pos]
        if op.kind != "punct" or op.value not in ("+", "-"):
            break
        rhs, pos = _eval_product(tokens, pos + 1, params)
        if rhs is None:
            return None, pos
        value = value + rhs if op.value == "+" else value - rhs
    return value, pos


def _eval_product(tokens: Sequence[Token], pos: int,
                  params: Dict[str, Optional[int]]) -> Tuple[Optional[int], int]:
    value, pos = _eval_primary(tokens, pos, params)
    while value is not None and pos < len(tokens):
        op = tokens[pos]
        if op.kind != "punct" or op.value not in ("*", "/"):
            break
        rhs, pos = _eval_primary(tokens, pos + 1, params)
        if rhs is None:
            return None, pos
        if op.value == "*":
            value = value * rhs
        else:
            value = value // rhs if rhs != 0 else None
    return value, pos


def _eval_primary(tokens: Sequence[Token], pos: int,
                  params: Dict[str, Optional[int]]) -> Tuple[Optional[int], int]:
    if pos >= len(tokens):
        return None, pos
    t = tokens[pos]
    if t.kind == "number":
        return _number_value(t.value), pos + 1
    if t.kind == "id":
        return params.get(t.value), pos + 1
    if t.kind == "punct":
        if t.value == "(":
            value, pos = _eval_sum(tokens, pos + 1, params)
            if pos < len(tokens) and tokens[pos].kind == "punct" \
                    and tokens[pos].value == ")":
                return value, pos + 1
            return None, pos
        if t.value == "-":
            value, pos = _eval_primary(tokens, pos + 1, params)
            return (-value if value is not None else None), pos
        if t.value == "+":
            return _eval_primary(tokens, pos + 1, params)
    return None, pos


def _number_value(text: str) -> Optional[int]:
    text = text.replace("_", "").replace(" ", "")
    if "'" in text:
        _, rest = text.split("'", 1)
        rest = rest.lstrip("sS")
        if not rest:
            return None
        base = {"b": 2, "o": 8, "d": 10, "h": 16}.get(rest[0].lower())
        digits = rest[1:]
        if base is None or not digits or any(ch in "xXzZ?" for ch in digits):
            return None
        try:
            return int(digits, base)
        except ValueError:
            return None
    try:
        return int(text)
    except ValueError:
        try:
            return int(float(text))
        except ValueError:
            return None


# ---------------------------------------------------------------------------
# Parser proper
# ---------------------------------------------------------------------------

class _Parser:
    def __init__(self, tokens: List[Token], path: str):
        self.tokens = [t for t in tokens if t.kind != "diag"]
        self.diag_tokens = [t for t in tokens if t.kind == "diag"]
        self.path = path
        self.pos = 0
        self.diagnostics: List[Diagnostic] = [
            Diagnostic(t.value, "warning", t.line) for t in self.diag_tokens
        ]

    # -- token stream helpers -------------------------------------------------
    def peek(self, ahead: int = 0) -> Optional[Token]:
        idx = self.pos + ahead
        return self.tokens[idx] if idx < len(self.tokens) else None

    def advance(self) -> Token:
        t = self.tokens[self.pos]
        self.pos += 1
        return t

    def at_end(self) -> bool:
        return self.pos >= len(self.tokens)

    def expect(self, value: str) -> Token:
        t = self.peek()
        if t is None:
            raise ParseError(f"expected {value!r}, got end of file",
                             self.tokens[-1].line if self.tokens else 0)
        if t.value != value:
            raise ParseError(f"expected {value!r}, got {t.value!r}", t.line)
        return self.advance()

    def skip_until(self, *values: str) -> Optional[Token]:
        """Advance past tokens until one of `values`; consumes and returns it."""
        depth = 0
        while not self.at_end():
            t = self.advance()
            if t.kind == "punct":
                if t.value in "([{":
                    depth += 1
                elif t.value in ")]}":
                    depth -= 1
            if depth <= 0 and t.value in values:
                return t
        return None

    def collect_until(self, *values: str, consume: bool = True) -> List[Token]:
        """Tokens up to (not including) a top-level occurrence of `values`."""
        tokens = self.tokens
        start = i = self.pos
        depth = 0
        while i < len(tokens):
            t = tokens[i]
            if t.kind == "punct":
                if depth == 0 and t.value in values:
                    self.pos = i + 1 if consume else i
                    return tokens[start:i]
                if t.value in "([{":
                    depth += 1
                elif t.value in ")]}":
                    depth -= 1
            i += 1
        self.pos = i
        return tokens[start:i]

    # -- top level ------------------------------------------------------------
    def parse_unit(self) -> SourceUnit:
        unit = SourceUnit(path=self.path, diagnostics=self.diagnostics)
        while not self.at_end():
            t = self.peek()
            if t.is_keyword("module", "macromodule"):
                start = self.pos
                try:
                    unit.modules.append(self.parse_module())
                    continue
                except ParseError as err:
                    message, line = err.message, err.line
                except RecursionError:  # statements nested past the stack
                    message, line = "nesting too deep", t.line
                self.diagnostics.append(
                    Diagnostic(f"malformed module: {message}", "error", line))
                # recover: resume at the next `module` keyword
                self.pos = start + 1
                while not self.at_end() and not self.peek().is_keyword(
                        "module", "macromodule"):
                    self.advance()
            else:
                self.advance()
        return unit

    def parse_module(self) -> ModuleDef:
        kw = self.expect("module") if self.peek().value == "module" \
            else self.expect("macromodule")
        if self.at_end():
            raise ParseError("expected module name, got end of file", kw.line)
        name_tok = self.advance()
        if name_tok.kind != "id" or name_tok.value in RESERVED_WORDS:
            raise ParseError(f"bad module name {name_tok.value!r}", name_tok.line)
        mod = ModuleDef(name=name_tok.value, path=self.path, line=kw.line)
        params: Dict[str, List[Token]] = {}  # raw value tokens, in first-seen order

        t = self.peek()
        if t is not None and t.value == "#":
            self.advance()
            self.expect("(")
            self._parse_param_decl(params, ")")
        t = self.peek()
        if t is not None and t.value == "(":
            self.advance()
            self._parse_port_list(mod)
        self.expect(";")
        self._parse_body(mod, params)
        mod.end_line = self.tokens[self.pos - 1].line if self.pos else kw.line
        self._resolve_widths(mod, params)
        return mod

    # -- ports ----------------------------------------------------------------
    def _parse_port_list(self, mod: ModuleDef) -> None:
        t = self.peek()
        if t is not None and t.kind == "punct" and t.value == ")":
            self.advance()
            return
        ansi = t is not None and t.value in _DIRECTIONS
        if ansi:
            self._parse_ansi_ports(mod)
        else:
            # non-ANSI: plain name list; body declarations fill in direction
            toks = self.collect_until(")")
            for name in collect_identifiers(toks):
                if mod.signal(name) is None:
                    mod.add_port(SignalDecl(name, INPUT, 1,
                                            decl_line=toks[0].line if toks else 0))

    def _parse_ansi_ports(self, mod: ModuleDef) -> None:
        tokens = self.tokens
        direction = INPUT
        rng: Optional[_Range] = None
        while self.pos < len(tokens):
            t = tokens[self.pos]
            if t.kind == "punct" and t.value == "[":
                rng = self._parse_range()
                continue
            if t.value == ";" or t.is_keyword("module", "macromodule", "endmodule"):
                # a port list cannot contain these: the header is malformed
                raise ParseError("unterminated port list", t.line)
            self.pos += 1
            if t.kind == "punct" and t.value == ")":
                return
            if t.value in _DIRECTIONS:
                direction, rng = _DIRECTIONS[t.value], None
            elif t.kind == "id" and t.value not in RESERVED_WORDS:
                # default value `= expr` allowed in SV headers
                if self.pos < len(tokens) and tokens[self.pos].value == "=":
                    self.pos += 1
                    self.collect_until(",", ")", consume=False)
                mod.add_port(SignalDecl(t.value, direction, None if rng else 1,
                                        decl_line=t.line, range_expr=rng))
            # anything else (",", net types, signing, stray tokens): skip

    def _parse_range(self) -> _Range:
        open_tok = self.expect("[")
        tokens = self.tokens
        start = i = self.pos
        depth = 0
        while i < len(tokens):
            t = tokens[i]
            if t.kind == "punct":
                if depth == 0 and t.value == ":":
                    self.pos = i + 1
                    return (tokens[start:i], self.collect_until("]"))
                if depth == 0 and t.value == "]":
                    self.pos = i + 1
                    return (tokens[start:i], [Token("number", "0", open_tok.line)])
                if t.value in "([{":
                    depth += 1
                elif t.value in ")]}":
                    depth -= 1
            i += 1
        self.pos = i
        return (tokens[start:i], [])

    # -- declarations ---------------------------------------------------------
    def _declarators(self, end: str, unterminated: str = "",
                     line: int = 0) -> Iterator[Tuple[Token, Optional[_Range]]]:
        """Each declared name up to the punctuation `end`, as (name token, the
        last packed range before it); the caller may consume what follows a
        name (`= value`, unpacked dimensions) before it takes the next.

        Keywords (direction, net type, signing), commas and stray tokens are
        passed over. Running out of tokens before `end`, a range included,
        raises ParseError(`unterminated`) when that message is given.
        """
        tokens = self.tokens
        rng: Optional[_Range] = None
        while self.pos < len(tokens):
            t = tokens[self.pos]
            if t.kind == "punct":
                if t.value == end:
                    self.pos += 1
                    return
                if t.value == "[":
                    rng = self._parse_range()
                    continue
            elif t.kind == "id" and t.value not in RESERVED_WORDS:
                self.pos += 1
                yield t, rng
                continue
            self.pos += 1
        if unterminated:
            raise ParseError(unterminated, line)

    def _parse_param_decl(self, params: Dict[str, List[Token]], end: str) -> None:
        """`#(parameter W = 8, ...)` in the header, or `parameter W = 8, D = 4;`
        in the body: the raw value tokens of each name."""
        for name_tok, _rng in self._declarators(end):
            value: List[Token] = []
            if self.pos < len(self.tokens) and self.tokens[self.pos].value == "=":
                self.pos += 1
                value = self.collect_until(",", end, consume=False)
            params[name_tok.value] = value

    # -- module body ----------------------------------------------------------
    def _parse_body(self, mod: ModuleDef, params: Dict[str, List[Token]]) -> None:
        while not self.at_end():
            t = self.peek()
            if t.is_keyword("endmodule"):
                self.advance()
                return
            if t.is_keyword("module", "macromodule"):
                raise ParseError("missing endmodule", t.line)
            if t.is_keyword("parameter", "localparam"):
                self._parse_param_decl(params, ";")
            elif t.value in _DIRECTIONS:
                self._parse_body_port_decl(mod)
            elif t.value in _NET_TYPES:
                self._parse_net_decl(mod)
            elif t.is_keyword("genvar"):
                self.skip_until(";")
            elif t.is_keyword("assign"):
                self._parse_continuous_assign(mod)
            elif t.is_keyword("always", "always_ff", "always_comb", "always_latch",
                              "initial", "final"):
                self.advance()
                self._skip_timing_control()
                stmts = self._parse_statement(mod, guards=[])
                mod.statements.extend(stmts)
            elif t.value in _SKIP_BLOCKS:
                end_kw = _SKIP_BLOCKS[t.value]
                self.diagnostics.append(Diagnostic(
                    f"unsupported construct '{t.value}' skipped", "warning", t.line))
                self.advance()
                self._skip_to_keyword(end_kw)
            elif t.is_keyword("defparam"):
                self.skip_until(";")
            elif t.kind == "id" and t.value not in RESERVED_WORDS:
                self._parse_instantiation(mod)
            elif t.kind == "directive" or t.kind == "sysid":
                self.advance()
            else:
                self.advance()
        raise ParseError("unexpected end of file inside module", mod.line)

    def _skip_to_keyword(self, end_kw: str) -> None:
        while not self.at_end():
            t = self.advance()
            if t.is_keyword(end_kw):
                return
            if t.is_keyword("endmodule"):
                # put it back so _parse_body terminates normally
                self.pos -= 1
                return

    def _parse_body_port_decl(self, mod: ModuleDef) -> None:
        kw = self.tokens[self.pos]
        direction = _DIRECTIONS[kw.value]
        for t, rng in self._declarators(";", "unterminated port declaration", kw.line):
            width = None if rng else 1
            existing = mod.signal(t.value)
            if existing is not None and existing.is_port:
                # non-ANSI merge: direction/width from the body declaration,
                # in the header's slot
                existing.direction, existing.width_bits = direction, width
                existing.decl_line, existing.range_expr = t.line, rng
            else:
                mod.add_port(SignalDecl(t.value, direction, width,
                                        decl_line=t.line, range_expr=rng))

    def _parse_net_decl(self, mod: ModuleDef) -> None:
        kw = self.tokens[self.pos]
        default_width = 32 if kw.value in ("integer", "int", "time") else 1
        for t, rng in self._declarators(";", "unterminated net declaration", kw.line):
            name = t.value
            # skip unpacked array dimensions after the name
            while self.peek() is not None and self.peek().value == "[":
                self._parse_range()
            if mod.signal(name) is None:
                mod.add_net(SignalDecl(name, NET, None if rng else default_width,
                                       decl_line=t.line, range_expr=rng))
            if self.peek() is not None and self.peek().value == "=":
                # net declaration assignment doubles as a continuous assign
                self.advance()
                rhs = self.collect_until(",", ";", consume=False)
                mod.statements.append(self._make_assign(
                    CONTINUOUS_ASSIGN, [name], rhs, [], t.line, continuous=True))

    # -- statements -----------------------------------------------------------
    def _skip_timing_control(self) -> None:
        """An `@` or `#` and what it controls by (IEEE 1364-2005 §9.7): one
        parenthesised group or one token, as in `@(posedge clk)`, `@*`,
        `@clk`, `#(1, 2)` and `#5`."""
        t = self.peek()
        if t is not None and t.kind == "punct" and t.value in ("@", "#"):
            self.advance()
            t = self.peek()
            if t is not None and t.value == "(":
                self.advance()
                self.collect_until(")")
            elif t is not None:
                self.advance()

    def _make_assign(self, kind: str, lhs: List[str], rhs_toks: List[Token],
                     guards: List[str], line: int, continuous: bool = False) -> Statement:
        rhs_ids = collect_identifiers(rhs_toks)
        if _contains_ternary(rhs_toks):
            cond_toks, rest = _split_ternary(rhs_toks)
            return Statement(TERNARY_STMT, line,
                             cond_idents=collect_identifiers(cond_toks),
                             lhs_idents=lhs,
                             rhs_idents=collect_identifiers(rest),
                             body_statement_count=1, branch_count=2,
                             continuous=continuous)
        return Statement(kind, line, cond_idents=list(guards),
                         lhs_idents=lhs, rhs_idents=rhs_ids,
                         continuous=continuous)

    def _parse_continuous_assign(self, mod: ModuleDef) -> None:
        self.advance()  # assign
        self._skip_timing_control()
        while True:
            lhs_toks = self.collect_until("=")
            rhs_toks = self.collect_until(",", ";", consume=False)
            sep = self.peek()
            line = lhs_toks[0].line if lhs_toks else (sep.line if sep else 0)
            mod.statements.append(self._make_assign(
                CONTINUOUS_ASSIGN, collect_identifiers(lhs_toks), rhs_toks,
                [], line, continuous=True))
            if sep is not None and sep.value == ",":
                self.advance()
                continue
            if sep is not None and sep.value == ";":
                self.advance()
            return

    def _parse_statement(self, mod: ModuleDef, guards: List[str]) -> List[Statement]:
        """Parse one procedural statement; returns the flattened records."""
        t = self.peek()
        if t is None:
            return []
        if t.value == ";":
            self.advance()
            return []
        if t.value in ("@", "#"):
            self._skip_timing_control()
            return self._parse_statement(mod, guards)
        if t.is_keyword("begin"):
            self.advance()
            if self.peek() is not None and self.peek().value == ":":
                self.advance()
                if self.peek() is not None and self.peek().kind == "id":
                    self.advance()
            out: List[Statement] = []
            while not self.at_end() and not self.peek().is_keyword("end"):
                if self.peek().is_keyword("endmodule"):
                    raise ParseError("missing 'end'", self.peek().line)
                out.extend(self._parse_statement(mod, guards))
            if not self.at_end():
                self.advance()  # end
            return out
        if t.is_keyword("if"):
            return self._parse_if(mod, guards)
        if t.is_keyword("case", "casez", "casex", "unique", "priority"):
            if t.value in ("unique", "priority"):
                self.advance()
            return self._parse_case(mod, guards)
        if t.is_keyword("for", "while", "repeat"):
            self.advance()
            if self.peek() is not None and self.peek().value == "(":
                self.advance()
                self.collect_until(")")
            return self._parse_statement(mod, guards)
        if t.is_keyword("forever"):
            self.advance()
            return self._parse_statement(mod, guards)
        if t.is_keyword("disable", "wait"):
            self.skip_until(";")
            return []
        if t.kind == "sysid":
            self.skip_until(";")
            return []
        if t.is_keyword("force", "release", "deassign", "assign"):
            self.advance()
            t = self.peek()
        # fall through: an assignment statement
        lhs_toks = self.collect_until("=", "<=", consume=False)
        op = self.peek()
        if op is None or op.value not in ("=", "<="):
            # not an assignment we understand; skip to ';'
            self.skip_until(";")
            return []
        self.advance()
        self._skip_timing_control()
        rhs_toks = self.collect_until(";", consume=False)
        if self.peek() is not None:
            self.advance()
        kind = NONBLOCKING_ASSIGN if op.value == "<=" else BLOCKING_ASSIGN
        line = lhs_toks[0].line if lhs_toks else op.line
        stmt = self._make_assign(kind, collect_identifiers(lhs_toks),
                                 rhs_toks, guards, line)
        return [stmt]

    def _parse_if(self, mod: ModuleDef, guards: List[str]) -> List[Statement]:
        """An `if` and its `else if` chain, walked in a loop: the records are
        those of each `else if` nested in the branch before it."""
        out: List[Statement] = []
        heads = []  # (head, its index in out, its then-statement count)
        while True:
            kw = self.expect("if")
            self.expect("(")
            cond_ids = collect_identifiers(self.collect_until(")"))
            guards = guards + cond_ids
            head = Statement(IF_STMT, kw.line, cond_idents=cond_ids, branch_count=1)
            then_stmts = self._parse_statement(mod, guards)
            heads.append((head, len(out), len(then_stmts)))
            out.append(head)
            out.extend(then_stmts)
            if self.peek() is None or not self.peek().is_keyword("else"):
                break
            self.advance()
            head.branch_count = 2
            if self.peek() is None or not self.peek().is_keyword("if"):
                out.extend(self._parse_statement(mod, guards))
                break
        # a head's else branch holds every record after its own statements
        for head, at, n_then in heads:
            head.body_statement_count = max(n_then, len(out) - at - 1 - n_then)
        return out

    def _parse_case(self, mod: ModuleDef, guards: List[str]) -> List[Statement]:
        kw = self.advance()  # case/casez/casex
        self.expect("(")
        cond_ids = collect_identifiers(self.collect_until(")"))
        items: List[List[Statement]] = []
        body: List[Statement] = []
        while not self.at_end():
            t = self.peek()
            if t.is_keyword("endcase"):
                self.advance()
                break
            if t.is_keyword("endmodule"):
                raise ParseError("missing 'endcase'", t.line)
            if t.is_keyword("default"):
                self.advance()
                if self.peek() is not None and self.peek().value == ":":
                    self.advance()
            else:
                self.collect_until(":")
            stmts = self._parse_statement(mod, guards + cond_ids)
            items.append(stmts)
            body.extend(stmts)
        head = Statement(CASE_STMT, kw.line, cond_idents=cond_ids,
                         body_statement_count=max((len(s) for s in items), default=0),
                         branch_count=len(items))
        return [head] + body

    # -- instantiations -------------------------------------------------------
    def _parse_instantiation(self, mod: ModuleDef) -> None:
        target = self.advance().value
        t = self.peek()
        if t is not None and t.value == "#":
            self.advance()
            if self.peek() is not None and self.peek().value == "(":
                self.advance()
                self.collect_until(")")
        while True:
            t = self.peek()
            if t is None or t.kind != "id" or t.value in RESERVED_WORDS:
                # not an instantiation after all (e.g. user-defined type decl)
                self.skip_until(";")
                return
            inst_name = self.advance().value
            while self.peek() is not None and self.peek().value == "[":
                self._parse_range()
            if self.peek() is None or self.peek().value != "(":
                self.skip_until(";")
                return
            self.advance()  # (
            inst = Instantiation(inst_name, target, line=t.line)
            self._parse_connections(inst)
            mod.instantiations.append(inst)
            t = self.peek()
            if t is not None and t.value == ",":
                self.advance()
                continue
            if t is not None and t.value == ";":
                self.advance()
            return

    def _parse_connections(self, inst: Instantiation) -> None:
        positional_index = 0
        while not self.at_end():
            t = self.peek()
            if t.value == ")" and t.kind == "punct":
                self.advance()
                return
            if t.value == "," and t.kind == "punct":
                self.advance()
                continue
            if t.value == "." and t.kind == "punct":
                self.advance()
                nxt = self.peek()
                if nxt is None:
                    raise ParseError("expected port name, got end of file", t.line)
                if nxt.value == "*":
                    self.advance()
                    continue
                formal = self.advance().value
                if self.peek() is not None and self.peek().value == "(":
                    self.advance()
                    actual = collect_identifiers(self.collect_until(")"))
                else:
                    actual = [formal]  # SV `.name` shorthand
                inst.connections.append((formal, actual))
            else:
                expr = self.collect_until(",", ")", consume=False)
                inst.connections.append((positional_index, collect_identifiers(expr)))
                positional_index += 1

    # -- width resolution -----------------------------------------------------
    def _resolve_widths(self, mod: ModuleDef, raw: Dict[str, List[Token]]) -> None:
        params: Dict[str, Optional[int]] = {}
        for name in raw:
            _resolve_parameter(name, raw, params, set())
        mod.parameters = params
        # the parameters are fixed, so each distinct range is evaluated once
        widths: Dict[tuple, Optional[int]] = {}
        for decl in mod.all_signals():
            rng = decl.range_expr
            if rng is not None:
                key = (tuple([(t.kind, t.value) for t in rng[0]]),
                       tuple([(t.kind, t.value) for t in rng[1]]))
                if key not in widths:
                    widths[key] = _range_width(rng, params)
                decl.width_bits = widths[key]


def _resolve_parameter(name: str, raw: Dict[str, List[Token]],
                       resolved: Dict[str, Optional[int]],
                       in_progress: set) -> Optional[int]:
    """Value of parameter `name`, its dependencies resolved first; a name
    already on `in_progress` is a dependency cycle and resolves to None."""
    if name in resolved:
        return resolved[name]
    if name not in raw or name in in_progress:
        return None
    in_progress.add(name)
    expr = raw[name]
    needed = {t.value for t in expr if t.kind == "id" and t.value not in RESERVED_WORDS}
    env = {dep: _resolve_parameter(dep, raw, resolved, in_progress) for dep in needed}
    value = eval_const_expr(expr, env)
    in_progress.discard(name)
    resolved[name] = value
    return value


def _range_width(range_expr: _Range,
                 params: Dict[str, Optional[int]]) -> Optional[int]:
    msb_toks, lsb_toks = range_expr
    msb = eval_const_expr(msb_toks, params)
    lsb = eval_const_expr(lsb_toks, params)
    if msb is None or lsb is None:
        return None
    return abs(msb - lsb) + 1


# ---------------------------------------------------------------------------
# Public entry points
# ---------------------------------------------------------------------------

def parse_source(text: str, path: str = "<string>",
                 include_dirs: Sequence[str] = ()) -> SourceUnit:
    """Parse Verilog source text into a SourceUnit."""
    diags: List[Diagnostic] = []
    processed = preprocess(text, path, include_dirs, diagnostics=diags)
    tokens = tokenize(processed)
    parser = _Parser(tokens, path)
    parser.diagnostics.extend(diags)
    unit = parser.parse_unit()
    unit.line_count = text.count("\n")
    return unit


def parse_file(path: str, include_dirs: Sequence[str] = ()) -> SourceUnit:
    """Parse one RTL file; raises OSError only when the file is unreadable."""
    with open(path, "rb") as fh:
        text = fh.read().decode("utf-8", errors="replace")
    return parse_source(text, path, include_dirs)


def discover_rtl_files(root: str) -> List[str]:
    """All .v/.sv/.vh/.svh files under `root`, sorted for determinism."""
    found = []
    for dirpath, dirnames, filenames in os.walk(root):
        dirnames.sort()
        for fn in sorted(filenames):
            if fn.lower().endswith(RTL_EXTENSIONS):
                found.append(os.path.join(dirpath, fn))
    return found
