"""Parser for a practical Verilog-2005 / SystemVerilog subset.

Covers module/endmodule, ANSI and non-ANSI ports, wire/reg/logic/integer
declarations, parameter/localparam, always/initial blocks with if/case and
blocking/non-blocking assignments, ternary expressions, continuous assigns
and module instantiations.  Unsupported constructs (generate, function,
task, ...) are skipped with a diagnostic.  Errors never abort sibling
modules: recovery happens at the next `module` keyword.

No function recurses, except `preprocess` into an included file, at most
MAX_INCLUDE_DEPTH deep. Nesting lives on explicit stacks, so any depth
parses: open `begin`, `if` and `case` statements on the statement
parser's frame stack, parentheses and unary minuses on the constant
evaluator's operator stack, and parameters waiting for their
dependencies on the resolver's stack.
"""

import operator
import os
import re
from typing import Dict, Iterator, List, Optional, Sequence, Tuple

from .tokenizer import (
    ID_START, RESERVED_WORDS, Tokens, is_number, strip_comments, tokenize,
)
from .syntax import (
    BLOCKING_ASSIGN, CASE_STMT, CONTINUOUS_ASSIGN, IF_STMT, INOUT, INPUT, NET,
    NONBLOCKING_ASSIGN, OUTPUT, TERNARY_STMT, WILDCARD,
    Diagnostic, Instantiation, ModuleDef, SignalDecl, SourceUnit, Statement,
)

RTL_EXTENSIONS = (".v", ".sv", ".vh", ".svh")
MAX_INCLUDE_DEPTH = 17  # files on an include chain, the parsed file included

# net type -> width of a net declared without a range; `time` as in IEEE
# 1364-2005 §4.8, the SystemVerilog integer types as in IEEE 1800-2017 §6.11
_NET_TYPES = dict.fromkeys(
    ["wire", "reg", "logic", "tri", "tri0", "tri1", "wand", "wor", "triand",
     "trior", "trireg", "supply0", "supply1", "uwire", "bit", "real", "realtime"], 1)
_NET_TYPES.update(integer=32, time=64, int=32, byte=8, shortint=16, longint=64)
_Range = Tuple[List[str], List[str]]  # the (msb, lsb) texts of `[msb:lsb]`
_DIRECTIONS = {"input": INPUT, "output": OUTPUT, "inout": INOUT}
_MODULE_KEYWORDS = frozenset(["module", "macromodule"])
_PROCESSES = frozenset(["always", "always_ff", "always_comb", "always_latch",
                        "initial", "final"])
_CASE_STARTS = frozenset(["case", "casez", "casex", "unique", "priority"])
# what a statement may start with before its own head (IEEE 1364-2005 §9.6, §9.7)
_PREFIXES = frozenset(["@", "#", "for", "while", "repeat", "forever"])
_PROCEDURAL_ASSIGN_KEYWORDS = frozenset(["force", "release", "deassign", "assign"])
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
    # one [branch active, some branch of this level taken, its directive,
    # the directive's line] per level
    cond_stack: List[list] = []
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
                cond_stack.append([hit, hit, word, lineno])
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
            out_lines.append(_substitute_macros(raw, defines, diagnostics, lineno))
        i += 1
    for _active, _taken, word, line in cond_stack:  # IEEE 1364-2005 §19.4
        diagnostics.append(Diagnostic(f"`{word} without `endif", "warning", line))
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


def _substitute_macros(line: str, defines: Dict[str, str],
                       diagnostics: List[Diagnostic], lineno: int) -> str:
    """`line` with each macro use replaced by the macro's text, in which
    macro uses expand in turn (IEEE 1364-2005 §19.3.1). The texts being
    scanned wait on a stack as (text, position, the macros it expands); a
    macro's use inside its own expansion stays, with a warning."""
    if "`" not in line:
        return line
    out: List[str] = []
    pending = [(line, 0, frozenset())]
    while pending:
        text, pos, expanding = pending.pop()
        m = _MACRO_USE_RE.search(text, pos)
        if m is None:
            out.append(text[pos:])
            continue
        out.append(text[pos:m.start()])
        pending.append((text, m.end(), expanding))
        name = m.group(1)
        if name in expanding:
            diagnostics.append(Diagnostic(
                f"macro `{name} expands to a use of itself", "warning", lineno))
        elif name in defines:
            pending.append((defines[name], 0, expanding | {name}))
            continue
        out.append(m.group())
    return "".join(out)


# ---------------------------------------------------------------------------
# Expression helpers
# ---------------------------------------------------------------------------
# Tokens are texts (see `tokenizer.ID_START`): keywords and punctuation are
# tested by equality with the text.
_OPEN = frozenset("([{")
_CLOSE = frozenset(")]}")


def _is_name(text: str) -> bool:
    """An identifier that is not a keyword: a declared or used name."""
    return text[:1] in ID_START and text not in RESERVED_WORDS


def collect_identifiers(texts: Sequence[str]) -> List[str]:
    """Identifiers referenced in an expression, in order, without duplicates.

    Skips system ids, based-literal tokens and named-connection dots.
    """
    seen = []
    prev = ""
    for t in texts:
        if t[0] in ID_START and t not in RESERVED_WORDS and prev != "." \
                and t not in seen:
            seen.append(t)
        prev = t
    return seen


def _split_ternary(texts: Sequence[str]) -> Tuple[List[str], List[str]]:
    """Split an expression at its top-level '?' into (condition, rest)."""
    depth = 0
    for idx, t in enumerate(texts):
        if t in _OPEN:
            depth += 1
        elif t in _CLOSE:
            depth -= 1
        elif t == "?" and depth <= 0:
            return list(texts[:idx]), list(texts[idx + 1:])
    return [], list(texts)


# binary operator -> (precedence, function)
_BINARY = {"+": (1, operator.add), "-": (1, operator.sub),
           "*": (2, operator.mul), "/": (2, operator.floordiv)}


def eval_const_expr(texts: Sequence[str],
                    params: Dict[str, Optional[int]]) -> Optional[int]:
    """Evaluate +,-,*,/ and parenthesised constant expressions.

    Identifiers are looked up in `params`. An unresolved name, a malformed
    expression or a division by zero gives None. One loop over an operand
    and an operator stack; a unary `-` applies to the primary after it, so
    `- 7 / 2` is -4 (`/` floors).
    """
    values: List[int] = []
    ops: List[str] = []  # "(", "~" for a unary minus, or a binary operator
    want_operand = True
    for t in texts:
        if want_operand:
            if t == "(" or t == "-":
                ops.append("~" if t == "-" else t)
                continue
            if t == "+":
                continue
            value = _number_value(t) if is_number(t) else \
                params.get(t) if t[0] in ID_START else None
            if value is None:
                return None
        elif t == ")":
            if not _reduce(values, ops, 1) or not ops:
                return None
            ops.pop()  # its "("
            value = values.pop()
        elif t in _BINARY:
            if not _reduce(values, ops, _BINARY[t][0]):
                return None
            ops.append(t)
            want_operand = True
            continue
        else:
            return None
        while ops and ops[-1] == "~":  # the unary minuses before the primary
            ops.pop()
            value = -value
        values.append(value)
        want_operand = False
    if want_operand or not _reduce(values, ops, 1) or ops:
        return None
    return values[0]


def _reduce(values: List[int], ops: List[str], precedence: int) -> bool:
    """Apply the binary operators on top of `ops` that bind at least as
    tightly as `precedence`; False on a division by zero."""
    while ops and ops[-1] in _BINARY and _BINARY[ops[-1]][0] >= precedence:
        rhs = values.pop()
        if rhs == 0 and ops[-1] == "/":
            return False
        values[-1] = _BINARY[ops.pop()][1](values[-1], rhs)
    return True


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
    """Walks the token texts by index. `texts` ends in an extra "" that
    stands for end of file: it equals no word or punctuation, so a look at
    `texts[pos]` needs no bounds check. Loops run while `pos < end`."""

    def __init__(self, tokens: Tokens, path: str):
        self.texts = tokens.texts + [""]
        # the end of file reports the last token's line
        self.lines = tokens.lines + (tokens.lines[-1:] or [0])
        self.end = len(tokens.texts)
        self.path = path
        self.pos = 0
        self.diagnostics: List[Diagnostic] = [
            Diagnostic(message, "warning", line) for message, line in tokens.diagnostics
        ]

    # -- token stream helpers -------------------------------------------------
    def expect(self, value: str) -> int:
        """Consume `value`; returns its line."""
        pos = self.pos
        if self.texts[pos] != value:
            got = "end of file" if pos == self.end else repr(self.texts[pos])
            raise ParseError(f"expected {value!r}, got {got}", self.lines[pos])
        self.pos = pos + 1
        return self.lines[pos]

    def collect_until(self, *values: str, consume: bool = True) -> List[str]:
        """Texts up to (not including) a top-level occurrence of `values`.

        A stray closer makes the depth negative, which counts as top level:
        one extra `)` cannot carry the search to the end of the file.
        """
        texts = self.texts
        start = i = self.pos
        end = self.end
        depth = 0
        while i < end:
            t = texts[i]
            if depth <= 0 and t in values:
                self.pos = i + 1 if consume else i
                return texts[start:i]
            if t in _OPEN:
                depth += 1
            elif t in _CLOSE:
                depth -= 1
            i += 1
        self.pos = i
        return texts[start:i]

    # -- top level ------------------------------------------------------------
    def parse_unit(self) -> SourceUnit:
        unit = SourceUnit(path=self.path, diagnostics=self.diagnostics)
        texts, end = self.texts, self.end
        while self.pos < end:
            if texts[self.pos] not in _MODULE_KEYWORDS:
                self.pos += 1
                continue
            start = self.pos
            try:
                unit.modules.append(self.parse_module())
            except ParseError as err:
                self.diagnostics.append(
                    Diagnostic(f"malformed module: {err.message}", "error", err.line))
                self.pos = start + 1  # recover: resume at the next `module` keyword
        return unit

    def parse_module(self) -> ModuleDef:
        texts, lines = self.texts, self.lines
        kw_line = lines[self.pos]
        self.pos += 1  # module or macromodule
        if self.pos == self.end:
            raise ParseError("expected module name, got end of file", kw_line)
        name = texts[self.pos]
        if not _is_name(name):
            raise ParseError(f"bad module name {name!r}", lines[self.pos])
        self.pos += 1
        mod = ModuleDef(name=name, path=self.path, line=kw_line)
        params: Dict[str, List[str]] = {}  # raw value texts, in first-seen order

        if texts[self.pos] == "#":
            self.pos += 1
            self.expect("(")
            self._parse_param_decl(params, ")")
        if texts[self.pos] == "(":
            self.pos += 1
            self._parse_port_list(mod)
        self.expect(";")
        self._parse_body(mod, params)
        mod.end_line = lines[self.pos - 1]
        mod.parameters = values = _resolve_parameters(params)
        # the parameters are fixed, so each distinct range is evaluated once
        widths: Dict[tuple, Optional[int]] = {}
        for decl in mod.ports + mod.nets:
            rng = decl.range_expr
            if rng is not None:
                key = (tuple(rng[0]), tuple(rng[1]))
                if key not in widths:
                    widths[key] = _range_width(rng, values)
                decl.width_bits = widths[key]
        return mod

    # -- ports ----------------------------------------------------------------
    def _parse_port_list(self, mod: ModuleDef) -> None:
        t = self.texts[self.pos]
        if t == ")":
            self.pos += 1
        elif t in _DIRECTIONS:
            self._parse_ansi_ports(mod)
        else:
            # non-ANSI: plain name list; body declarations fill in direction
            line = self.lines[self.pos]
            texts = self.collect_until(")")
            for name in collect_identifiers(texts):
                if mod.signal(name) is None:
                    mod.add_port(SignalDecl(name, INPUT, 1,
                                            decl_line=line if texts else 0))

    def _parse_ansi_ports(self, mod: ModuleDef) -> None:
        texts, lines = self.texts, self.lines
        direction = INPUT
        rng: Optional[_Range] = None
        while self.pos < self.end:
            t = texts[self.pos]
            if t == "[":
                rng = self._parse_range()
                continue
            if t == ";" or t in _MODULE_KEYWORDS or t == "endmodule":
                # a port list cannot contain these: the header is malformed
                raise ParseError("unterminated port list", lines[self.pos])
            line = lines[self.pos]
            self.pos += 1
            if t == ")":
                return
            if t in _DIRECTIONS:
                direction, rng = _DIRECTIONS[t], None
            elif _is_name(t):
                # default value `= expr` allowed in SV headers
                if texts[self.pos] == "=":
                    self.pos += 1
                    self.collect_until(",", ")", consume=False)
                mod.add_port(SignalDecl(t, direction, None if rng else 1,
                                        decl_line=line, range_expr=rng))
            # anything else (",", net types, signing, stray tokens): skip

    def _parse_range(self) -> _Range:
        self.expect("[")
        msb = self.collect_until(":", "]", consume=False)
        t = self.texts[self.pos]
        if t == ":":
            self.pos += 1
            return (msb, self.collect_until("]"))
        if t == "]":
            self.pos += 1
            return (msb, ["0"])
        return (msb, [])

    # -- declarations ---------------------------------------------------------
    def _declarators(self, end: str, unterminated: str = "",
                     line: int = 0) -> Iterator[Tuple[str, int, Optional[_Range]]]:
        """Each declared name up to the punctuation `end`, as (name, its
        line, the last packed range before it); the caller may consume what
        follows a name (`= value`, unpacked dimensions) before it takes the
        next.

        Keywords (direction, net type, signing), commas and stray tokens are
        passed over. Running out of tokens before `end`, a range included,
        raises ParseError(`unterminated`) when that message is given.
        """
        texts = self.texts
        rng: Optional[_Range] = None
        while self.pos < self.end:
            t = texts[self.pos]
            if t == end:
                self.pos += 1
                return
            if t == "[":
                rng = self._parse_range()
                continue
            self.pos += 1
            if _is_name(t):
                yield t, self.lines[self.pos - 1], rng
        if unterminated:
            raise ParseError(unterminated, line)

    def _parse_param_decl(self, params: Dict[str, List[str]], end: str) -> None:
        """`#(parameter W = 8, ...)` in the header, or `parameter W = 8, D = 4;`
        in the body: the raw value texts of each name."""
        for name, _line, _rng in self._declarators(end):
            value: List[str] = []
            if self.texts[self.pos] == "=":
                self.pos += 1
                value = self.collect_until(",", end, consume=False)
            params[name] = value

    # -- module body ----------------------------------------------------------
    def _parse_body(self, mod: ModuleDef, params: Dict[str, List[str]]) -> None:
        texts = self.texts
        while self.pos < self.end:
            t = texts[self.pos]
            if t == "endmodule":
                self.pos += 1
                return
            if t in _MODULE_KEYWORDS:
                raise ParseError("missing endmodule", self.lines[self.pos])
            if t == "parameter" or t == "localparam":
                self._parse_param_decl(params, ";")
            elif t in _DIRECTIONS:
                self._parse_body_port_decl(mod)
            elif t in _NET_TYPES:
                self._parse_net_decl(mod)
            elif t == "genvar" or t == "defparam":
                self.collect_until(";")
            elif t == "assign":
                self._parse_continuous_assign(mod)
            elif t in _PROCESSES:
                self.pos += 1
                mod.statements.extend(self._parse_statement())
            elif t in _SKIP_BLOCKS:
                self.diagnostics.append(Diagnostic(
                    f"unsupported construct '{t}' skipped", "warning", self.lines[self.pos]))
                self.pos += 1
                self._skip_to_keyword(_SKIP_BLOCKS[t])
            elif _is_name(t):
                self._parse_instantiation(mod)
            else:  # directives, system ids, stray tokens
                self.pos += 1
        raise ParseError("unexpected end of file inside module", mod.line)

    def _skip_to_keyword(self, end_kw: str) -> None:
        """Past the next `end_kw`, or up to (not past) the next `endmodule`
        so that _parse_body terminates normally."""
        texts = self.texts
        i = self.pos
        while i < self.end:
            t = texts[i]
            if t == "endmodule":
                break
            i += 1
            if t == end_kw:
                break
        self.pos = i

    def _parse_body_port_decl(self, mod: ModuleDef) -> None:
        direction = _DIRECTIONS[self.texts[self.pos]]
        for name, line, rng in self._declarators(
                ";", "unterminated port declaration", self.lines[self.pos]):
            width = None if rng else 1
            existing = mod.signal(name)
            if existing is not None and existing.is_port:
                # non-ANSI merge: direction/width from the body declaration,
                # in the header's slot
                existing.direction, existing.width_bits = direction, width
                existing.decl_line, existing.range_expr = line, rng
            else:
                mod.add_port(SignalDecl(name, direction, width,
                                        decl_line=line, range_expr=rng))

    def _parse_net_decl(self, mod: ModuleDef) -> None:
        texts = self.texts
        default_width = _NET_TYPES[texts[self.pos]]
        for name, line, rng in self._declarators(
                ";", "unterminated net declaration", self.lines[self.pos]):
            # skip unpacked array dimensions after the name
            while texts[self.pos] == "[":
                self._parse_range()
            if mod.signal(name) is None:
                mod.add_net(SignalDecl(name, NET, None if rng else default_width,
                                       decl_line=line, range_expr=rng))
            if texts[self.pos] == "=":
                # net declaration assignment doubles as a continuous assign
                self.pos += 1
                rhs = self.collect_until(",", ";", consume=False)
                mod.statements.append(self._make_assign(
                    CONTINUOUS_ASSIGN, [name], rhs, [], line, continuous=True))

    # -- statements -----------------------------------------------------------
    def _skip_timing_control(self) -> None:
        """An `@` or `#` and what it controls by (IEEE 1364-2005 §9.7): one
        parenthesised group or one token, as in `@(posedge clk)`, `@*`,
        `@clk`, `#(1, 2)` and `#5`."""
        texts = self.texts
        if texts[self.pos] == "@" or texts[self.pos] == "#":
            self.pos += 1
            if texts[self.pos] == "(":
                self.pos += 1
                self.collect_until(")")
            elif self.pos < self.end:
                self.pos += 1

    def _make_assign(self, kind: str, lhs: List[str], rhs: List[str],
                     guards: List[str], line: int, continuous: bool = False) -> Statement:
        if "?" in rhs:
            cond, rest = _split_ternary(rhs)
            return Statement(TERNARY_STMT, line,
                             cond_idents=collect_identifiers(cond),
                             lhs_idents=lhs,
                             rhs_idents=collect_identifiers(rest),
                             body_statement_count=1, branch_count=2,
                             continuous=continuous)
        return Statement(kind, line, cond_idents=list(guards),
                         lhs_idents=lhs, rhs_idents=collect_identifiers(rhs),
                         continuous=continuous)

    def _parse_continuous_assign(self, mod: ModuleDef) -> None:
        texts, lines = self.texts, self.lines
        self.pos += 1  # assign
        self._skip_timing_control()
        while True:
            start = self.pos
            lhs = self.collect_until("=")
            rhs = self.collect_until(",", ";", consume=False)
            if lhs:
                line = lines[start]
            else:
                line = lines[self.pos] if self.pos < self.end else 0
            mod.statements.append(self._make_assign(
                CONTINUOUS_ASSIGN, collect_identifiers(lhs), rhs,
                [], line, continuous=True))
            sep = texts[self.pos]
            if sep == ",":
                self.pos += 1
                continue
            if sep == ";":
                self.pos += 1
            return

    def _parse_statement(self) -> List[Statement]:
        """One procedural statement as flat records, an if or case head
        before those of its branches. Open `begin`s, `if`s and `case`s wait
        on `frames` as [closer (`else` opens an if's second branch), head
        (None for begin), guards of its statements, start of its current
        branch in `out`]. A complete statement ends its frame's branch, and
        that may complete the frame's own statement."""
        texts, lines = self.texts, self.lines
        out: List[Statement] = []
        frames: List[list] = []
        guards: List[str] = []
        while True:
            t = texts[self.pos]
            while t in _PREFIXES:  # timing controls and loop headers
                if t == "@" or t == "#":
                    self._skip_timing_control()
                else:
                    self.pos += 1
                    if t != "forever" and texts[self.pos] == "(":
                        self.pos += 1
                        self.collect_until(")")
                t = texts[self.pos]
            complete = False
            if t == "begin":
                self.pos += 1
                if texts[self.pos] == ":":  # a block label
                    self.pos += 1
                    if texts[self.pos][:1] in ID_START:
                        self.pos += 1
                frames.append(["end", None, guards, 0])
            elif t == "if" or t in _CASE_STARTS:
                if t == "unique" or t == "priority":
                    self.pos += 1
                line = lines[self.pos]
                if self.pos < self.end:
                    self.pos += 1  # if, case, casez or casex
                self.expect("(")
                cond_ids = collect_identifiers(self.collect_until(")"))
                kind, closer = (IF_STMT, "else") if t == "if" else (CASE_STMT, "endcase")
                out.append(Statement(kind, line, cond_idents=cond_ids))
                frames.append([closer, out[-1], guards + cond_ids, len(out)])
            else:
                self._parse_simple_statement(guards, out)
                complete = True
            while frames:  # close what the statement completes
                frame = frames[-1]
                closer, head = frame[0], frame[1]
                if complete and head is not None:  # it ends an if or case branch
                    head.body_statement_count = max(head.body_statement_count,
                                                    len(out) - frame[3])
                    head.branch_count += 1
                    if closer == "else":
                        if head.branch_count == 1 and texts[self.pos] == "else":
                            self.pos += 1
                            frame[3] = len(out)
                            break
                        frames.pop()
                        continue
                elif closer == "else":  # an if's first branch starts
                    break
                complete = True
                # at the next statement of a begin block or a case
                t = texts[self.pos]
                if t == closer or self.pos == self.end:  # end of file closes too
                    self.pos += 1 if t == closer else 0
                    frames.pop()
                    continue
                if t == "endmodule":
                    raise ParseError(f"missing {closer!r}", lines[self.pos])
                if head is not None:  # a case item's label
                    if t == "default" and texts[self.pos + 1] != ":":
                        self.pos += 1
                    else:
                        self.collect_until(":")
                    frame[3] = len(out)
                break
            else:
                return out
            guards = frames[-1][2]

    def _parse_simple_statement(self, guards: List[str], out: List[Statement]) -> None:
        """A statement without nested ones: an assignment appends its record
        to `out`; `;`, `disable`, `wait`, a `$task`, any other statement and
        the end of file ("", which is no assignment) append none."""
        texts, lines = self.texts, self.lines
        t = texts[self.pos]
        if t == ";":
            self.pos += 1
            return
        if t == "disable" or t == "wait" or t[:1] == "$":
            self.collect_until(";")
            return
        if t in _PROCEDURAL_ASSIGN_KEYWORDS:
            self.pos += 1
        start = self.pos
        lhs = self.collect_until("=", "<=", consume=False)
        op = texts[self.pos]
        if op != "=" and op != "<=":
            # not an assignment we understand; skip to ';'
            self.collect_until(";")
            return
        line = lines[start] if lhs else lines[self.pos]
        self.pos += 1
        self._skip_timing_control()
        rhs = self.collect_until(";")
        kind = NONBLOCKING_ASSIGN if op == "<=" else BLOCKING_ASSIGN
        out.append(self._make_assign(kind, collect_identifiers(lhs), rhs, guards, line))

    # -- instantiations -------------------------------------------------------
    def _parse_instantiation(self, mod: ModuleDef) -> None:
        texts = self.texts
        target = texts[self.pos]
        self.pos += 1
        if texts[self.pos] == "#":
            self.pos += 1
            if texts[self.pos] == "(":
                self.pos += 1
                self.collect_until(")")
        while True:
            inst_name = texts[self.pos]
            if not _is_name(inst_name):
                # not an instantiation after all (e.g. user-defined type decl)
                self.collect_until(";")
                return
            line = self.lines[self.pos]
            self.pos += 1
            while texts[self.pos] == "[":
                self._parse_range()
            if texts[self.pos] != "(":
                self.collect_until(";")
                return
            self.pos += 1
            inst = Instantiation(inst_name, target, line=line)
            self._parse_connections(inst)
            mod.instantiations.append(inst)
            if texts[self.pos] == ",":
                self.pos += 1
                continue
            if texts[self.pos] == ";":
                self.pos += 1
            return

    def _parse_connections(self, inst: Instantiation) -> None:
        texts = self.texts
        positional_index = 0
        while self.pos < self.end:
            t = texts[self.pos]
            if t == ")":
                self.pos += 1
                return
            if t == ",":
                self.pos += 1
            elif t == ".*" or (t == "." and texts[self.pos + 1] == "*"):
                self.pos += 1 if t == ".*" else 2
                inst.connections.append((WILDCARD, []))
            elif t == ".":
                line = self.lines[self.pos]
                self.pos += 1
                formal = texts[self.pos]
                if not _is_name(formal):
                    got = "end of file" if self.pos == self.end else repr(formal)
                    raise ParseError(f"expected port name, got {got}", line)
                self.pos += 1
                if texts[self.pos] == "(":
                    self.pos += 1
                    actual = collect_identifiers(self.collect_until(")"))
                else:
                    actual = [formal]  # SV `.name` shorthand
                inst.connections.append((formal, actual))
            else:
                expr = self.collect_until(",", ")", consume=False)
                inst.connections.append((positional_index, collect_identifiers(expr)))
                positional_index += 1


def _resolve_parameters(raw: Dict[str, List[str]]) -> Dict[str, Optional[int]]:
    """Each parameter's value from its raw value texts, dependencies first,
    on an explicit depth-first stack of (name, its unread value texts). A
    parameter reads None while it is on the stack, so a dependency cycle
    reads None, as does an unknown name."""
    resolved: Dict[str, Optional[int]] = {}
    stack = []
    for root in raw:
        if root not in resolved:
            resolved[root] = None
            stack.append((root, iter(raw[root])))
        while stack:
            name, rest = stack[-1]
            for t in rest:
                if t in raw and t not in resolved:
                    resolved[t] = None
                    stack.append((t, iter(raw[t])))
                    break
            else:
                stack.pop()
                resolved[name] = eval_const_expr(raw[name], resolved)
    return resolved


def _range_width(range_expr: _Range,
                 params: Dict[str, Optional[int]]) -> Optional[int]:
    msb_texts, lsb_texts = range_expr
    msb = eval_const_expr(msb_texts, params)
    lsb = eval_const_expr(lsb_texts, params)
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
