"""Lexer for the supported Verilog/SystemVerilog subset.

The lexical grammar is one list of (token class, pattern) pairs, tried in
order at each position (the "Writing a Tokenizer" idiom of the ``re``
docs). A token is its text: ``tokenize`` returns the token texts and their
source lines from one ``findall`` over the grammar, and classifies again
only the rare texts that may be a comment, string or stray character;
whitespace, comments and ``(* ... *)`` attributes yield no token.
``strip_comments`` blanks comments with one ``re.sub`` over the grammar's
comment, string and escaped-identifier groups, so in both a string or an
escaped identifier (which runs to whitespace, IEEE 1364-2005 §3.7.1) hides
a comment opener.
"""

import re
from typing import List, Tuple

from .syntax import Record

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

_LETTERS = "ABCDEFGHIJKLMNOPQRSTUVWXYZabcdefghijklmnopqrstuvwxyz"

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


def _named(groups: List[Tuple[str, str]]) -> str:
    return "(?:" + "|".join(f"(?P<{name}>{pattern})" for name, pattern in groups) + ")"


# The token grammar, tried in order at each position. "other" takes any one
# character nothing else does, but never a blank: `tokenize` skips blanks
# before each token, and a blank that reached "other" would become a stray
# diagnostic at the end of the text.
_GRAMMAR = [
    ("id", r"[A-Za-z_][A-Za-z0-9_$]*"),
    # a bare ' is punctuation ({'0}); only a based literal makes it a number
    ("number", r"(?:\d[\d_]*\s*)?'\s*[sS]?[bBoOdDhH]\s*[0-9a-fA-FxXzZ_?]+"
               r"|\d[\d_]*\.\d[\d_]*|\d[\d_]*"),
    *_SHARED,
    ("sysid", r"\$[A-Za-z_][A-Za-z0-9_$]*"),
    ("directive", r"`[A-Za-z_][A-Za-z0-9_$]*"),
    ("punct", "|".join(map(re.escape, _PUNCTUATION))),
    ("other", r"[^ \t\r\f\v]"),
]
# Classifies the few texts the scan alone cannot. `re` compiles it on first
# use and caches it, so a source without such texts does not pay for it.
_TOKEN_PATTERN = _named(_GRAMMAR)
# only these characters start a comment, attribute, string or escaped
# identifier, so the lookahead spares the alternatives everywhere else
_COMMENT_RE = re.compile(r'(?=[/("\\])' + _named(_SHARED), re.DOTALL)
# One capture per token, for `findall`: blanks without a newline are skipped
# in front of it, and a blank run holding newlines is captured, so the line
# count can follow. The grammar's own groups become non-capturing.
_SCAN_RE = re.compile(
    r"[ \t\r\f\v]*(\n[ \t\r\f\v\n]*|"
    + "|".join(re.sub(r"\(\?P<\w+>", "(?:", pattern) for _name, pattern in _GRAMMAR)
    + ")", re.DOTALL)

# What a text starting with one of these is, the scan alone decides: an
# identifier, a number or punctuation. Any other text is matched again
# against the named grammar.
_PLAIN_START = frozenset(_LETTERS + "0123456789_'" + "".join(
    p[0] for p in _PUNCTUATION if p[0] not in "/("))
# the punctuation among texts starting with "/" or "("
_PLAIN_TEXTS = frozenset(p for p in _PUNCTUATION if p[0] in "/(")
_KEPT = frozenset(["id", "escaped", "number", "string", "punct", "sysid", "directive"])
_UNTERMINATED = {"/": "unterminated block comment", "(": "unterminated attribute block"}


# A token is its text, and each text `tokenize` keeps tells its kind by
# itself: an identifier starts with a letter, "_" or (escaped) "\", a number
# with a digit or with a "'" that has more after it, a system id with "$", a
# directive with "`" and a string with '"'. The rest is punctuation, so a
# keyword or punctuation is told by equality with its text.
ID_START = frozenset(_LETTERS + "_\\")


def is_number(text: str) -> bool:
    first = text[0]
    return first.isdecimal() or (first == "'" and len(text) > 1)


class Tokens(Record):
    """A tokenized text: each token's text and line, in order, plus the
    (message, line) pairs of what could not be a token."""
    __slots__ = _fields = ("texts", "lines", "diagnostics")

    def __init__(self, texts: List[str], lines: List[int],
                 diagnostics: List[Tuple[str, int]]) -> None:
        self.texts = texts
        self.lines = lines
        self.diagnostics = diagnostics

    def __len__(self) -> int:
        return len(self.texts)


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


def tokenize(source: str) -> Tokens:
    """Tokenize Verilog source text.

    Comments and attribute blocks produce no token; strings, escaped
    identifiers and based literals each form one token. Unterminated
    constructs and stray characters add a diagnostic instead of failing.
    """
    texts: List[str] = []
    lines: List[int] = []
    diagnostics: List[Tuple[str, int]] = []
    line = 1
    for text in _SCAN_RE.findall(source):
        first = text[0]
        if first in _PLAIN_START:
            texts.append(text)
            lines.append(line)
            if "\n" in text:  # a based literal with its size a line above
                line += text.count("\n")
        elif first == "\n":
            line += text.count("\n")
        elif text in _PLAIN_TEXTS:
            texts.append(text)
            lines.append(line)
        else:
            m = re.match(_TOKEN_PATTERN, text, re.DOTALL)
            group = m.lastgroup
            if group in _KEPT:
                if group == "string" and m.group("closed") is None:
                    diagnostics.append(("unterminated string literal", line))
                texts.append(text)
                lines.append(line)
            elif group == "unterminated":
                diagnostics.append((_UNTERMINATED[first], line))
            elif group == "other":
                diagnostics.append((f"unexpected character {text!r}", line))
            line += text.count("\n")
    return Tokens(texts, lines, diagnostics)
