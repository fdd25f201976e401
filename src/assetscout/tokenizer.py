"""Lexer for the supported Verilog/SystemVerilog subset.

The lexical grammar is one master regex with a named group per token class,
tried in order at each position (the "Writing a Tokenizer" idiom of the
``re`` docs). ``tokenize`` turns its matches into tokens with source line
numbers; whitespace, comments and ``(* ... *)`` attributes yield none.
``strip_comments`` blanks comments with one ``re.sub`` over the grammar's
comment, string and escaped-identifier groups, so in both a string or an
escaped identifier (which runs to whitespace, IEEE 1364-2005 §3.7.1) hides
a comment opener.
"""

import re
from dataclasses import dataclass
from typing import List, Tuple

# IEEE 1364-2005 keywords plus the SystemVerilog constructs the parser knows.
VERILOG_2005_KEYWORDS = frozenset("""
always and assign automatic begin buf
bufif0 bufif1 case casex casez cell cmos config deassign default defparam
design disable edge else end endcase endconfig endfunction endgenerate
endmodule endprimitive endspecify endtable endtask event for force forever
fork function generate genvar highz0 highz1 if ifnone incdir include initial
inout input instance integer join large liblist library localparam
macromodule medium module nand negedge nmos nor noshowcancelled not notif0
notif1 or output parameter pmos posedge primitive pull0 pull1 pulldown
pullup pulsestyle_onevent pulsestyle_ondetect rcmos real realtime reg
release repeat rnmos rpmos rtran rtranif0 rtranif1 scalared showcancelled
signed small specify specparam strong0 strong1 supply0 supply1 table task
time tran tranif0 tranif1 tri tri0 tri1 triand trior trireg unsigned use
uwire vectored wait wand weak0 weak1 while wire wor xnor xor
""".split())

SYSTEMVERILOG_KEYWORDS = frozenset("""
always_comb always_ff always_latch logic bit byte int longint shortint
enum struct typedef unique priority interface endinterface modport
package endpackage program endprogram assert property sequence
endproperty endsequence final var string
""".split())

RESERVED_WORDS = VERILOG_2005_KEYWORDS | SYSTEMVERILOG_KEYWORDS

# Longest first so e.g. "<=" wins over "<".
_PUNCTUATION = [
    "<<<=", ">>>=",
    "<<<", ">>>", "===", "!==", "<<=", ">>=", "->>",
    "<=", ">=", "==", "!=", "&&", "||", "<<", ">>", "**", "+:", "-:",
    "::", "->", "+=", "-=", "*=", "/=", "##", ".*",
    "(", ")", "[", "]", "{", "}", ";", ":", ",", ".", "#", "@", "=",
    "+", "-", "*", "/", "%", "&", "|", "^", "~", "!", "<", ">", "?", "'",
]

# Fragments shared by both patterns (compiled with re.DOTALL). "(*)" is the
# event control @(*), not an attribute; an unclosed comment runs to EOF.
_SHARED = [
    ("line_comment", r"//[^\n]*"),
    ("block_comment", r"/\*.*?\*/"),
    ("attribute", r"\(\*(?!\)).*?\*\)"),
    ("unterminated", r"(?:/\*|\(\*(?!\))).*"),
    ("string", r'"(?:[^"\\\n]|\\.?)*(?P<closed>")?'),
    ("escaped", r"\\[^ \t\r\n]*"),
]


def _compile(groups: List[Tuple[str, str]], lookahead: str = "") -> "re.Pattern[str]":
    alternatives = "|".join(f"(?P<{name}>{pattern})" for name, pattern in groups)
    return re.compile(f"{lookahead}(?:{alternatives})", re.DOTALL)


_TOKEN_RE = _compile([
    ("space", r"[ \t\r\f\v\n]+"),  # tokenize counts the newlines of every match
    ("id", r"[A-Za-z_][A-Za-z0-9_$]*"),
    # a bare ' is punctuation ({'0}); only a based literal makes it a number
    ("number", r"(?:\d[\d_]*\s*)?'\s*[sS]?[bBoOdDhH]\s*[0-9a-fA-FxXzZ_?]+"
               r"|\d[\d_]*\.\d[\d_]*|\d[\d_]*"),
    *_SHARED,
    ("sysid", r"\$[A-Za-z_][A-Za-z0-9_$]*"),
    ("directive", r"`[A-Za-z_][A-Za-z0-9_$]*"),
    ("punct", "|".join(map(re.escape, _PUNCTUATION))),
    ("other", r"."),
])
# only these characters start a comment, attribute, string or escaped
# identifier, so the lookahead spares the alternatives everywhere else
_COMMENT_RE = _compile(_SHARED, lookahead=r'(?=[/("\\])')

_TOKEN_KINDS = {"id": "id", "escaped": "id", "number": "number", "string": "string",
                "punct": "punct", "sysid": "sysid", "directive": "directive"}
_UNTERMINATED = {"/": "unterminated block comment", "(": "unterminated attribute block"}


# slots: range bounds keep their tokens for as long as the design lives
@dataclass(slots=True)
class Token:
    kind: str  # 'id', 'number', 'string', 'punct', 'sysid', 'directive', 'diag'
    value: str
    line: int

    def is_keyword(self, *words: str) -> bool:
        return self.kind == "id" and self.value in words


def strip_comments(text: str) -> Tuple[str, List[Tuple[str, int]]]:
    """Replace comments and ``(* ... *)`` attributes with spaces, keep newlines.

    Line comments are deleted; strings and escaped identifiers stay as they
    are. Returns the cleaned text plus (message, line) pairs for
    unterminated comments and attribute blocks.
    """
    diags: List[Tuple[str, int]] = []

    def blank(m: "re.Match[str]") -> str:
        group, value = m.lastgroup, m.group()
        if group in ("string", "escaped"):
            return value
        if group == "line_comment":
            return ""
        if group == "unterminated":
            diags.append((_UNTERMINATED[value[0]], text.count("\n", 0, m.start()) + 1))
            return "\n" * value.count("\n")
        return "\n".join(" " * len(part) for part in value.split("\n"))

    return _COMMENT_RE.sub(blank, text), diags


def tokenize(source: str) -> List[Token]:
    """Tokenize Verilog source text.

    Comments and attribute blocks produce no token; strings, escaped
    identifiers and based literals each form one token. Unterminated
    constructs and stray characters yield a 'diag' token instead of failing.
    """
    tokens: List[Token] = []
    line = 1
    for m in _TOKEN_RE.finditer(source):
        group, value = m.lastgroup, m.group()
        kind = _TOKEN_KINDS.get(group)
        if kind is not None:
            if group == "string" and m.group("closed") is None:
                tokens.append(Token("diag", "unterminated string literal", line))
            tokens.append(Token(kind, value, line))
        elif group == "unterminated":
            tokens.append(Token("diag", _UNTERMINATED[value[0]], line))
        elif group == "other":
            tokens.append(Token("diag", f"unexpected character {value!r}", line))
        if "\n" in value:  # else keep the line's int: range bounds keep their tokens
            line += value.count("\n")
    return tokens
