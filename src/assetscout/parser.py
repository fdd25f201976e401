"""Parser for a practical Verilog-2005 / SystemVerilog subset.

Covers module/endmodule, ANSI and non-ANSI ports, wire/reg/logic/integer
declarations, parameter/localparam, always/initial blocks with if/case and
blocking/non-blocking assignments, ternary expressions, continuous assigns,
gate primitives (read as continuous assigns) and module instantiations.
Unsupported constructs (generate, function, task, switch primitives, ...)
are skipped with a diagnostic.  Errors never abort sibling modules:
recovery happens at the next `module` keyword.

No scan passes a module edge: `collect_until`, which every scan runs
through, stops at `module`, `macromodule`, `endmodule` and the end of
file at any bracket depth and leaves that token, so a missing `;`, `)`
or end keyword cuts short the module it is in and spares the next one.

Every declaration list (header parameters, ANSI ports, body ports, nets,
body parameters) is read by one walker, `_declarators`, and every instance
list (modules, UDPs, gates) by one reader, `_parse_instantiation`.

No function recurses, except `preprocess` into an included file, at most
MAX_INCLUDE_DEPTH deep: open `begin`, `if` and `case` statements wait on
the statement parser's frame stack, so any depth parses. No constant is
evaluated here: `design` sets widths from the kept range and parameter texts.
"""

import os
import re
import stat
from typing import Dict, Iterator, List, Optional, Sequence, Tuple

from .tokenizer import (
    ESCAPED_PATTERN, ID_START, RESERVED_WORDS, STRING_PATTERN, Tokens, strip_comments,
    tokenize,
)
from .syntax import (
    BLOCKING_ASSIGN, CASE_STMT, CONTINUOUS_ASSIGN, IF_STMT, INOUT, INPUT, NET,
    NONBLOCKING_ASSIGN, OUTPUT, TERNARY_STMT, WILDCARD,
    Connection, Diagnostic, Instantiation, ModuleDef, SignalDecl, SourceUnit,
    Statement,
)

RTL_EXTENSIONS = (".v", ".sv", ".vh", ".svh")
MAX_INCLUDE_DEPTH = 17  # files on an include chain, the parsed file included
MAX_EXPANDED_LINE = 1 << 16  # characters expanding one line may read

_Range = Tuple[List[str], List[str]]  # the (msb, lsb) texts of `[msb:lsb]`
# data type -> the range it implies, None for one bit unless a range follows;
# `integer` and `time` as in IEEE 1364-2005 §4.8, the SystemVerilog integer
# types as in IEEE 1800-2017 §6.11
_NET_TYPES: Dict[str, Optional[_Range]] = dict.fromkeys(
    ["wire", "reg", "logic", "tri", "tri0", "tri1", "wand", "wor", "triand",
     "trior", "trireg", "supply0", "supply1", "uwire", "bit", "real", "realtime"])
_NET_TYPES.update({t: ([str(bits - 1)], ["0"]) for t, bits in [
    ("integer", 32), ("int", 32), ("time", 64), ("longint", 64), ("shortint", 16),
    ("byte", 8)]})
_DIRECTIONS = {"input": INPUT, "output": OUTPUT, "inout": INOUT}
_MODULE_KEYWORDS = frozenset(["module", "macromodule"])
# the module edges, which no declaration or statement holds: "" is the end of file
_MODULE_ENDS = frozenset(["", "endmodule"]) | _MODULE_KEYWORDS
# what ends a declaration list that is not its own end
_DECLARATION_ENDS = _MODULE_ENDS | {";"}
_PROCESSES = frozenset(["always", "always_ff", "always_comb", "always_latch",
                        "initial", "final"])
_CASE_STARTS = frozenset(["case", "casez", "casex", "unique", "priority"])
# what a statement may start with before its own head (IEEE 1364-2005 §9.6, §9.7)
_PREFIXES = frozenset(["@", "#", "for", "while", "repeat", "forever"])
_PROCEDURAL_ASSIGN_KEYWORDS = frozenset(["force", "release", "deassign", "assign"])
# gate primitive -> where its outputs end among its terminals (IEEE 1364-2005
# §7): an n-input gate or a three-state buffer drives its first terminal,
# and a buf or not all but its last
_GATE_OUTPUTS = {**dict.fromkeys(["and", "nand", "or", "nor", "xor", "xnor",
                                  "bufif0", "bufif1", "notif0", "notif1"], 1),
                 "buf": -1, "not": -1}
_OTHER_PRIMITIVES = frozenset("""cmos rcmos nmos pmos rnmos rpmos tran rtran
tranif0 tranif1 rtranif0 rtranif1 pullup pulldown""".split())
_STRENGTHS = frozenset("""supply0 strong0 pull0 weak0 highz0 supply1 strong1
pull1 weak1 highz1""".split())
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
    diagnostics.extend(comment_diags)

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
        active = not cond_stack or cond_stack[-1][0]
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
                    parent = len(cond_stack) < 2 or cond_stack[-2][0]
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
    """(real path, text) of the first readable file `target` names in the
    including file's directory, then in `include_dirs`, or None."""
    dirs = list(include_dirs)
    if from_path and from_path != "<string>":
        dirs.insert(0, os.path.dirname(from_path))
    for d in dirs:
        cand = os.path.join(d, target)
        try:
            return os.path.realpath(cand), _read_text(cand)
        except OSError:
            continue  # as if it were missing
    return None


def _read_text(path: str) -> str:
    """The text of the RTL file or header at `path`, its bytes decoded as
    UTF-8 with replacement. Raises OSError when it cannot be read, and for
    anything but a regular file before opening it: opening a FIFO blocks."""
    if not stat.S_ISREG(os.stat(path).st_mode):
        raise OSError("not a regular file")
    with open(path, "rb") as fh:
        return fh.read().decode("utf-8", errors="replace")


# A string literal holds no macro use, so it matches whole and stays as it
# is; so does an escaped identifier (IEEE 1364-2005 §3.7.1), whose `"` must
# not open a string. Both are the lexer's own patterns.
_MACRO_USE_RE = re.compile(
    STRING_PATTERN + "|" + ESCAPED_PATTERN + r"|`(?P<macro>[\w$]*)", re.DOTALL)


def _substitute_macros(line: str, defines: Dict[str, str],
                       diagnostics: List[Diagnostic], lineno: int) -> str:
    """`line` with each macro use replaced by the macro's text, in which
    macro uses expand in turn (IEEE 1364-2005 §19.3.1). The texts being
    scanned wait on a stack as (text, position, the macros it expands); a
    macro's use inside its own expansion stays, with a warning. Reading
    past MAX_EXPANDED_LINE characters of line and macro text ends the line,
    with a warning: a chain of macros can double the text at each level."""
    if "`" not in line:
        return line
    out: List[str] = []
    scanned = 0
    pending = [(line, 0, frozenset())]
    while pending:
        text, pos, expanding = pending.pop()
        m = _MACRO_USE_RE.search(text, pos)
        if m is None:
            out.append(text[pos:])
            continue
        out.append(text[pos:m.start()])
        scanned += m.end() - pos
        pending.append((text, m.end(), expanding))
        name = m.group("macro")
        if name in expanding:
            diagnostics.append(Diagnostic(
                f"macro `{name} expands to a use of itself", "warning", lineno))
        elif name in defines and scanned > MAX_EXPANDED_LINE:
            diagnostics.append(Diagnostic(
                f"macro expansion passes {MAX_EXPANDED_LINE} characters;"
                " the rest of the line is dropped", "warning", lineno))
            break
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
        self.diagnostics: List[Diagnostic] = tokens.diagnostics

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
        """Texts up to (not including) a top-level occurrence of `values`,
        or up to the next module edge at any depth, which is never consumed.

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
            elif t in _MODULE_ENDS:
                break
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
        if texts[self.pos] == "#":
            self.pos += 1
            self.expect("(")
            self._parse_param_decl(mod.parameters, ")", "unterminated parameter list")
        if texts[self.pos] == "(":
            self.pos += 1
            self._parse_port_list(mod)
        self.expect(";")
        self._parse_body(mod)
        return mod

    # -- ports ----------------------------------------------------------------
    def _parse_port_list(self, mod: ModuleDef) -> None:
        t = self.texts[self.pos]
        if t == ")":
            self.pos += 1
        elif t in _DIRECTIONS:
            for name, line, rng, direction in self._declarators(
                    ")", "unterminated port list", self.lines[self.pos]):
                self._declared_value(")")  # default value `= expr` allowed in SV headers
                mod.add_port(SignalDecl(name, direction, decl_line=line, range_expr=rng))
        else:
            # non-ANSI: plain name list; body declarations fill in direction
            line = self.lines[self.pos]
            texts = self.collect_until(")")
            for name in collect_identifiers(texts):
                if mod.signal(name) is None:
                    mod.add_port(SignalDecl(name, INPUT, decl_line=line if texts else 0))

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
    def _declarators(self, end: str, unterminated: str, line: int
                     ) -> Iterator[Tuple[str, int, Optional[_Range], str]]:
        """Each declared name up to the punctuation `end`, as (name, its
        line, the last packed range before it, the last direction before
        it). The unpacked dimensions right after a name are passed over;
        the caller may consume a `= value` after them before it takes the
        next name.

        A direction keyword sets the direction and drops the range, and a
        data type sets the range it implies; other keywords (signing),
        commas and stray tokens are passed over. A `;` that is not `end`, a
        module keyword or the end of file, none of which a declaration list
        holds, raises ParseError(`unterminated`) at `line`.
        """
        texts = self.texts
        rng: Optional[_Range] = None
        direction = INPUT
        while True:
            t = texts[self.pos]
            if t == end:
                self.pos += 1
                return
            if t == "[":
                rng = self._parse_range()
                continue
            if t in _DECLARATION_ENDS:
                raise ParseError(unterminated, line)
            self.pos += 1
            if t in _DIRECTIONS:
                direction, rng = _DIRECTIONS[t], None
            elif t in _NET_TYPES:
                rng = _NET_TYPES[t]
            elif _is_name(t):
                line_of_name = self.lines[self.pos - 1]
                while texts[self.pos] == "[":
                    self._parse_range()
                yield t, line_of_name, rng, direction

    def _declared_value(self, end: str) -> List[str]:
        """The texts of the `= value` after a declared name, up to the next
        declarator or the end of its list, or [] without one. The value
        stops at a `;` too, so that a missing `end` is reported by
        `_declarators`."""
        if self.texts[self.pos] != "=":
            return []
        self.pos += 1
        return self.collect_until(",", end, ";", consume=False)

    def _parse_param_decl(self, params: Dict[str, List[str]], end: str,
                          unterminated: str) -> None:
        """`#(parameter W = 8, ...)` in the header, or `parameter W = 8, D = 4;`
        in the body: the raw value texts of each name."""
        for name, _line, _rng, _dir in self._declarators(
                end, unterminated, self.lines[self.pos]):
            params[name] = self._declared_value(end)

    # -- module body ----------------------------------------------------------
    def _parse_body(self, mod: ModuleDef) -> None:
        texts = self.texts
        while self.pos < self.end:
            t = texts[self.pos]
            if t == "endmodule":
                self.pos += 1
                return
            if t in _MODULE_KEYWORDS:
                raise ParseError("missing endmodule", self.lines[self.pos])
            if t == "parameter" or t == "localparam":
                self._parse_param_decl(mod.parameters, ";", "unterminated parameter declaration")
            elif t in _DIRECTIONS:
                self._parse_body_port_decl(mod)
            elif t in _NET_TYPES:
                self._parse_net_decl(mod)
            elif t == "genvar":
                self._rest_of_statement("unterminated genvar declaration", self.lines[self.pos])
            elif t == "defparam":
                line = self.lines[self.pos]
                self._rest_of_statement("unterminated defparam", line)
                self.diagnostics.append(Diagnostic(
                    "defparam skipped: parameter overrides are not applied", "warning", line))
            elif t == "assign":
                self._parse_continuous_assign(mod)
            elif t in _OTHER_PRIMITIVES:
                self._skip_instantiation(f"unsupported primitive '{t}'", self.lines[self.pos])
            elif t in _PROCESSES:
                self.pos += 1
                mod.statements.extend(self._parse_statement())
            elif t in _SKIP_BLOCKS:
                self.diagnostics.append(Diagnostic(
                    f"unsupported construct '{t}' skipped", "warning", self.lines[self.pos]))
                self.pos += 1
                self.collect_until(_SKIP_BLOCKS[t])
            elif _is_name(t) or t in _GATE_OUTPUTS:
                self._parse_instantiation(mod)
            else:  # directives, system ids, stray tokens
                self.pos += 1
        raise ParseError("unexpected end of file inside module", mod.line)

    def _parse_body_port_decl(self, mod: ModuleDef) -> None:
        for name, line, rng, direction in self._declarators(
                ";", "unterminated port declaration", self.lines[self.pos]):
            existing = mod.signal(name)
            if existing is not None and existing.is_port:
                # non-ANSI merge: direction/range from the body declaration,
                # in the header's slot
                existing.direction, existing.decl_line, existing.range_expr = \
                    direction, line, rng
            else:
                mod.add_port(SignalDecl(name, direction, decl_line=line, range_expr=rng))

    def _parse_net_decl(self, mod: ModuleDef) -> None:
        texts = self.texts
        for name, line, rng, _dir in self._declarators(
                ";", "unterminated net declaration", self.lines[self.pos]):
            if mod.signal(name) is None:
                mod.add_net(SignalDecl(name, NET, decl_line=line, range_expr=rng))
            if texts[self.pos] == "=":
                # net declaration assignment doubles as a continuous assign
                rhs = self._declared_value(";")
                mod.statements.append(self._make_assign(
                    CONTINUOUS_ASSIGN, [name], rhs, [], line, continuous=True))

    # -- statements -----------------------------------------------------------
    def _rest_of_statement(self, unterminated: str, line: int) -> List[str]:
        """The texts up to the next top-level `;`, which is consumed. A
        module edge, which no statement holds, raises
        ParseError(`unterminated`) at `line`."""
        texts = self.collect_until(";", consume=False)
        if self.texts[self.pos] != ";":
            raise ParseError(unterminated, line)
        self.pos += 1
        return texts

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
        """`assign [#...] lhs = rhs {, lhs = rhs};`. An lhs without `=` is a
        warning and is skipped. A module edge before its `=` or `;` raises
        ParseError."""
        texts, lines = self.texts, self.lines
        assign_line = lines[self.pos]
        self.pos += 1  # assign
        self._skip_timing_control()
        while True:
            start = self.pos
            lhs = self.collect_until("=", ";", consume=False)
            if texts[self.pos] == "=":
                self.pos += 1
                rhs = self.collect_until(",", ";", consume=False)
                line = lines[start] if lhs else lines[self.pos]
                mod.statements.append(self._make_assign(
                    CONTINUOUS_ASSIGN, collect_identifiers(lhs), rhs,
                    [], line, continuous=True))
            elif texts[self.pos] == ";":
                self.diagnostics.append(Diagnostic(
                    "continuous assignment without '=' skipped", "warning", lines[start]))
            sep = texts[self.pos]
            if sep == ",":
                self.pos += 1
                continue
            if sep == ";":
                self.pos += 1
                return
            raise ParseError("unterminated continuous assignment", assign_line)

    def _parse_statement(self) -> List[Statement]:
        """One procedural statement as flat records, an if or case head
        before those of its branches. Open `begin`s, `if`s and `case`s wait
        on `frames` as [closer (`else` opens an if's second branch), head
        (None for begin), start of its current branch in `out`]. A complete
        statement ends its frame's branch, and that may complete the frame's
        own statement. The names the open heads read guard a statement."""
        texts, lines = self.texts, self.lines
        out: List[Statement] = []
        frames: List[list] = []
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
                frames.append(["end", None, 0])
            elif t == "if" or t in _CASE_STARTS:
                if t == "unique" or t == "priority":  # `unique if` or `unique case`
                    self.pos += 1
                    t = texts[self.pos]
                line = lines[self.pos]
                if self.pos < self.end:
                    self.pos += 1  # if, case, casez or casex
                self.expect("(")
                cond_ids = collect_identifiers(self.collect_until(")"))
                kind, closer = (IF_STMT, "else") if t == "if" else (CASE_STMT, "endcase")
                out.append(Statement(kind, line, cond_idents=cond_ids))
                frames.append([closer, out[-1], len(out)])
            else:
                self._parse_simple_statement(frames, out)
                complete = True
            while frames:  # close what the statement completes
                frame = frames[-1]
                closer, head = frame[0], frame[1]
                if complete and head is not None:  # it ends an if or case branch
                    head.body_statement_count = max(head.body_statement_count,
                                                    len(out) - frame[2])
                    head.branch_count += 1
                    if closer == "else":
                        if head.branch_count == 1 and texts[self.pos] == "else":
                            self.pos += 1
                            frame[2] = len(out)
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
                    frame[2] = len(out)
                break
            else:
                return out

    def _parse_simple_statement(self, frames: List[list], out: List[Statement]) -> None:
        """A statement without nested ones: an assignment appends its record,
        guarded by the heads open on `frames`, to `out`; `;`, `disable`,
        `wait`, a `$task`, any other statement and the end of file ("", which
        is no assignment) append none. A statement that a module edge cuts
        short raises ParseError."""
        texts, lines = self.texts, self.lines
        t = texts[self.pos]
        if t == ";":
            self.pos += 1
            return
        if self.pos == self.end:
            return
        if t == "disable" or t == "wait" or t[:1] == "$":
            self._rest_of_statement("unterminated statement", lines[self.pos])
            return
        if t in _PROCEDURAL_ASSIGN_KEYWORDS:
            self.pos += 1
        start = self.pos
        lhs = self.collect_until("=", "<=", ";", consume=False)
        op = texts[self.pos]
        if op != "=" and op != "<=":
            # not an assignment we understand; skip to ';'
            self._rest_of_statement("unterminated statement", lines[start])
            return
        line = lines[start] if lhs else lines[self.pos]
        self.pos += 1
        self._skip_timing_control()
        rhs = self._rest_of_statement("unterminated statement", line)
        kind = NONBLOCKING_ASSIGN if op == "<=" else BLOCKING_ASSIGN
        guards = [name for frame in frames if frame[1] is not None
                  for name in frame[1].cond_idents]
        out.append(self._make_assign(kind, collect_identifiers(lhs), rhs, guards, line))

    # -- instantiations -------------------------------------------------------
    def _parse_instantiation(self, mod: ModuleDef) -> None:
        """`type [strength] [#...] name [range] (connections) {, ...};` for a
        module or a UDP (IEEE 1364-2005 §12.1.2, §8.6), the name optional
        for a gate primitive (§7.1). A gate instance reads as one continuous
        assignment, whose outputs are driven by its other terminals."""
        texts = self.texts
        target, target_line = texts[self.pos], self.lines[self.pos]
        split = _GATE_OUTPUTS.get(target)
        self.pos += 1
        if texts[self.pos] == "(" and texts[self.pos + 1] in _STRENGTHS:
            self.pos += 1
            self._skip_instantiation(f"unsupported drive strength '{texts[self.pos]}'",
                                     target_line)
            return
        if texts[self.pos] == "#":
            self._skip_timing_control()
        while True:
            name, line = texts[self.pos], self.lines[self.pos]
            if _is_name(name):
                self.pos += 1
                while texts[self.pos] == "[":
                    self._parse_range()
            elif split is None or name != "(":
                self._skip_instantiation(f"no instance name after '{target}'", target_line)
                return
            if texts[self.pos] != "(":
                self._skip_instantiation(f"no port list after '{target} {name}'", line)
                return
            self.pos += 1
            connections = self._parse_connections(line)
            if split is None:
                mod.instantiations.append(Instantiation(target, connections, line))
            else:
                terminals = [actual for _slot, actual in connections]
                mod.statements.append(Statement(
                    CONTINUOUS_ASSIGN, line,
                    lhs_idents=list(dict.fromkeys(sum(terminals[:split], []))),
                    rhs_idents=list(dict.fromkeys(sum(terminals[split:], []))),
                    continuous=True))
            if texts[self.pos] != ",":
                break
            self.pos += 1
        if texts[self.pos] == ";":
            self.pos += 1

    def _skip_instantiation(self, why: str, line: int) -> None:
        """Not an instantiation after all (a user-defined type declaration,
        or an unsupported construct): warn at the item's `line` and skip to
        ';'."""
        self.diagnostics.append(Diagnostic(f"{why}, skipped to ';'", "warning", line))
        self.collect_until(";")

    def _parse_connections(self, line: int) -> List[Connection]:
        """The connections up to the `)` that closes an instance's list. An
        ordered connection is keyed by its slot, an empty one included
        (IEEE 1364-2005 §12.3), so `u(a, , b)` connects `b` to the third
        port; `u()` has no connections. A module edge before the `)`
        raises ParseError at `line`, the instance's."""
        texts = self.texts
        connections: List[Connection] = []
        if texts[self.pos] == ")":
            self.pos += 1
            return connections
        slot = 0
        while texts[self.pos] not in _MODULE_ENDS:
            t = texts[self.pos]
            if t == ".*" or (t == "." and texts[self.pos + 1] == "*"):
                self.pos += 1 if t == ".*" else 2
                connections.append((WILDCARD, []))
            elif t == ".":
                dot_line = self.lines[self.pos]
                self.pos += 1
                formal = texts[self.pos]
                if not _is_name(formal):
                    got = "end of file" if self.pos == self.end else repr(formal)
                    raise ParseError(f"expected port name, got {got}", dot_line)
                self.pos += 1
                if texts[self.pos] == "(":
                    self.pos += 1
                    actual = collect_identifiers(self.collect_until(")"))
                else:
                    actual = [formal]  # SV `.name` shorthand
                connections.append((formal, actual))
            else:
                expr = self.collect_until(",", ")", consume=False)
                connections.append((slot, collect_identifiers(expr)))
                slot += 1
            if texts[self.pos] == ",":
                self.pos += 1
            elif texts[self.pos] == ")":
                self.pos += 1
                return connections
        raise ParseError("unterminated instance connections", line)


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
    """Parse one RTL file; raises OSError only when it cannot be read."""
    return parse_source(_read_text(path), path, include_dirs)


def discover_rtl_files(root: str) -> List[str]:
    """All .v/.sv/.vh/.svh files under `root`, sorted for determinism."""
    found = []
    for dirpath, dirnames, filenames in os.walk(root):
        dirnames.sort()
        for fn in sorted(filenames):
            if fn.lower().endswith(RTL_EXTENSIONS):
                found.append(os.path.join(dirpath, fn))
    return found
