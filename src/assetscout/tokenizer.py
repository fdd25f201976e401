"""Lexer for the supported Verilog/SystemVerilog subset.

Comments are removed once: ``preprocess`` runs ``strip_comments``, which
blanks comments and ``(* ... *)`` attributes with one ``re.sub`` over the
comment, string and escaped-identifier patterns, so a string or an escaped
identifier (which runs to whitespace, IEEE 1364-2005 §3.7.1) hides a
comment opener.

``tokenize`` reads that preprocessed text. Its grammar is one list of
(token class, pattern) pairs, tried in order at each position (the "Writing
a Tokenizer" idiom of the ``re`` docs). A token is its text: ``tokenize``
returns the token texts and their source lines from one ``findall`` over
the grammar. A comment opener that only macro expansion forms is two
tokens, as in C, which removes comments before it expands macros.
"""

import re
from typing import List, Tuple

from .syntax import Diagnostic, Record

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

# One rule each for a string literal and an escaped identifier, read by the
# lexer, `strip_comments` and the macro scanner. A string left open ends
# before the end of its line, with `closed` unset.
STRING_PATTERN = r'"(?:[^"\\\n]|\\.?)*(?P<closed>")?'
ESCAPED_PATTERN = r"\\[^ \t\r\n]*"

# What `strip_comments` matches (compiled with re.DOTALL). "(*)" is the
# event control @(*), not an attribute; an unclosed comment runs to EOF.
_COMMENT_GRAMMAR = [
    ("line_comment", r"//[^\n]*"),
    ("block_comment", r"/\*.*?\*/"),
    ("attribute", r"\(\*(?!\)).*?\*\)"),
    ("unterminated", r"(?:/\*|\(\*(?!\))).*"),
    ("string", STRING_PATTERN),
    ("escaped", ESCAPED_PATTERN),
]

# The token grammar, tried in order at each position. "other" takes any one
# character nothing else does, but never a blank: `tokenize` skips blanks
# before each token, and a blank that reached "other" would become a stray
# diagnostic at the end of the text.
_GRAMMAR = [
    ("id", r"[A-Za-z_][A-Za-z0-9_$]*"),
    # a bare ' is punctuation ({'0}); only a based literal makes it a number
    ("number", r"(?:\d[\d_]*\s*)?'\s*[sS]?[bBoOdDhH]\s*[0-9a-fA-FxXzZ_?]+"
               r"|\d[\d_]*\.\d[\d_]*|\d[\d_]*"),
    ("string", STRING_PATTERN),
    ("escaped", ESCAPED_PATTERN),
    ("sysid", r"\$[A-Za-z_][A-Za-z0-9_$]*"),
    ("directive", r"`[A-Za-z_][A-Za-z0-9_$]*"),
    ("punct", "|".join(map(re.escape, _PUNCTUATION))),
    ("other", r"[^ \t\r\f\v]"),
]
# only these characters start a comment, attribute, string or escaped
# identifier, so the lookahead spares the alternatives everywhere else
_COMMENT_RE = re.compile(r'(?=[/("\\])(?:' + "|".join(
    f"(?P<{name}>{pattern})" for name, pattern in _COMMENT_GRAMMAR) + ")", re.DOTALL)
# One capture per token, for `findall`: blanks without a newline are skipped
# in front of it, and a blank run holding newlines is captured, so the line
# count can follow. The grammar's own groups become non-capturing.
_SCAN_RE = re.compile(
    r"[ \t\r\f\v]*(\n[ \t\r\f\v\n]*|"
    + "|".join(re.sub(r"\(\?P<\w+>", "(?:", pattern) for _name, pattern in _GRAMMAR)
    + ")", re.DOTALL)

# What a text starting with one of these is, the scan alone decides: an
# identifier, a number or punctuation. Any other text is a string, an
# escaped identifier, a system id, a directive, a number in non-ASCII digits
# (which `\d` takes) or, alone, a stray character.
_PLAIN_START = frozenset(_LETTERS + "0123456789_'" + "".join(p[0] for p in _PUNCTUATION))
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
    diagnostics of what could not be a token."""
    __slots__ = _fields = ("texts", "lines", "diagnostics")

    def __init__(self, texts: List[str], lines: List[int],
                 diagnostics: List[Diagnostic]) -> None:
        self.texts = texts
        self.lines = lines
        self.diagnostics = diagnostics

    def __len__(self) -> int:
        return len(self.texts)


def strip_comments(text: str) -> Tuple[str, List[Diagnostic]]:
    """Replace comments and ``(* ... *)`` attributes with spaces, keep newlines.

    Line comments are deleted; strings and escaped identifiers stay as they
    are. Returns the cleaned text plus a diagnostic for an unterminated
    comment or attribute block.
    """
    diags: List[Diagnostic] = []

    def blank(m: "re.Match[str]") -> str:
        group, value = m.lastgroup, m.group()
        if group in ("string", "escaped"):
            return value
        if group == "line_comment":
            return ""
        if group == "unterminated":
            diags.append(Diagnostic(_UNTERMINATED[value[0]], "warning",
                                    text.count("\n", 0, m.start()) + 1))
            return "\n" * value.count("\n")
        return "\n".join(" " * len(part) for part in value.split("\n"))

    return _COMMENT_RE.sub(blank, text), diags


def tokenize(source: str) -> Tokens:
    """Tokenize preprocessed Verilog text, which holds no comment.

    Strings, escaped identifiers and based literals each form one token.
    An unterminated string or a stray character adds a diagnostic instead
    of failing.
    """
    texts: List[str] = []
    lines: List[int] = []
    diagnostics: List[Diagnostic] = []
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
        elif len(text) > 1 or first in '"\\' or first.isdecimal():
            if first == '"' and re.match(STRING_PATTERN, text, re.DOTALL).group("closed") is None:
                diagnostics.append(Diagnostic("unterminated string literal", "warning", line))
            texts.append(text)
            lines.append(line)
            line += text.count("\n")  # a string with an escaped newline
        else:
            diagnostics.append(Diagnostic(f"unexpected character {text!r}", "warning", line))
    return Tokens(texts, lines, diagnostics)
