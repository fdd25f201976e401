"""Two lexers that `assetscout.tokenizer` replaced, kept as test oracles.

- `tokenize`, the character loop: on comment-free text the current lexer
  must give the same tokens, except for the corrected lines after
  multi-line tokens.
- `master_regex_tokenize`, one match object and one `Token` per token: the
  current lexer must give its non-diag values and lines, and its diag
  (message, line) pairs, in order.
"""

import re
from dataclasses import dataclass
from typing import List, Tuple


@dataclass
class Token:
    kind: str  # 'id', 'number', 'string', 'punct', 'sysid', 'directive', 'diag'
    value: str
    line: int

# Longest first so e.g. "<=" wins over "<".
_PUNCTUATION = [
    "<<<=", ">>>=",
    "<<<", ">>>", "===", "!==", "<<=", ">>=", "->>",
    "<=", ">=", "==", "!=", "&&", "||", "<<", ">>", "**", "+:", "-:",
    "::", "->", "+=", "-=", "*=", "/=", "##", ".*",
    "(", ")", "[", "]", "{", "}", ";", ":", ",", ".", "#", "@", "=",
    "+", "-", "*", "/", "%", "&", "|", "^", "~", "!", "<", ">", "?", "'",
]

_NUMBER_RE = re.compile(
    r"(?:\d[\d_]*\s*)?'\s*[sS]?[bBoOdDhH]\s*[0-9a-fA-FxXzZ_?]+"
    r"|\d[\d_]*\.\d[\d_]*"
    r"|\d[\d_]*"
)
_IDENT_RE = re.compile(r"[A-Za-z_][A-Za-z0-9_$]*")
_SYSTEM_ID_RE = re.compile(r"\$[A-Za-z_][A-Za-z0-9_$]*")
_DIRECTIVE_RE = re.compile(r"`[A-Za-z_][A-Za-z0-9_$]*")


def strip_comments(text: str) -> Tuple[str, List[Tuple[str, int]]]:
    """Replace comments and ``(* ... *)`` attribute blocks with spaces.

    Newlines are preserved so later stages keep original line numbers.
    Returns the cleaned text plus (message, line) pairs for unterminated
    constructs.
    """
    out = []
    diags = []
    i, n = 0, len(text)
    line = 1
    while i < n:
        c = text[i]
        if c == "\n":
            out.append("\n")
            line += 1
            i += 1
        elif c == "/" and text.startswith("//", i):
            while i < n and text[i] != "\n":
                i += 1
        elif c == "/" and text.startswith("/*", i):
            end = text.find("*/", i + 2)
            if end < 0:
                diags.append(("unterminated block comment", line))
                out.extend("\n" for ch in text[i:] if ch == "\n")
                break
            for ch in text[i:end + 2]:
                out.append("\n" if ch == "\n" else " ")
                if ch == "\n":
                    line += 1
            i = end + 2
        elif c == "(" and text.startswith("(*", i) and not text.startswith("(*)", i):
            end = text.find("*)", i + 2)
            if end < 0:
                diags.append(("unterminated attribute block", line))
                out.extend("\n" for ch in text[i:] if ch == "\n")
                break
            for ch in text[i:end + 2]:
                out.append("\n" if ch == "\n" else " ")
                if ch == "\n":
                    line += 1
            i = end + 2
        elif c == '"':
            # copy the string verbatim so quotes cannot hide comments
            j = i + 1
            while j < n and text[j] != '"' and text[j] != "\n":
                if text[j] == "\\":
                    j += 1
                j += 1
            if j >= n or text[j] == "\n":
                diags.append(("unterminated string literal", line))
                out.append(text[i:j])
                i = j
            else:
                out.append(text[i:j + 1])
                i = j + 1
        else:
            out.append(c)
            i += 1
    return "".join(out), diags


def tokenize(source: str) -> List[Token]:
    """Tokenize Verilog source text.

    Comments and attribute blocks are stripped first; string literals,
    escaped identifiers and based numeric literals each form one token.
    Unterminated constructs yield a 'diag' token instead of failing.
    """
    cleaned, comment_diags = strip_comments(source)
    tokens: List[Token] = [Token("diag", msg, ln) for msg, ln in comment_diags]
    i, n = 0, len(cleaned)
    line = 1
    while i < n:
        c = cleaned[i]
        if c == "\n":
            line += 1
            i += 1
            continue
        if c in " \t\r\f\v":
            i += 1
            continue
        if c == '"':
            j = i + 1
            while j < n and cleaned[j] != '"' and cleaned[j] != "\n":
                if cleaned[j] == "\\":
                    j += 1
                j += 1
            if j >= n or cleaned[j] == "\n":
                tokens.append(Token("diag", "unterminated string literal", line))
                tokens.append(Token("string", cleaned[i:j], line))
                i = j
            else:
                tokens.append(Token("string", cleaned[i:j + 1], line))
                i = j + 1
            continue
        if c == "\\":
            # escaped identifier: runs until whitespace
            j = i + 1
            while j < n and cleaned[j] not in " \t\r\n":
                j += 1
            tokens.append(Token("id", cleaned[i:j], line))
            i = j
            continue
        m = _NUMBER_RE.match(cleaned, i)
        if m and (c.isdigit() or c == "'"):
            # bare ' is also punctuation ({'0}); only treat as number when
            # the regex really consumed a based literal
            if c != "'" or "'" in m.group(0) and len(m.group(0)) > 1:
                text = m.group(0)
                tokens.append(Token("number", text, line))
                i = m.end()
                continue
        m = _IDENT_RE.match(cleaned, i)
        if m:
            tokens.append(Token("id", m.group(0), line))
            i = m.end()
            continue
        m = _SYSTEM_ID_RE.match(cleaned, i)
        if m:
            tokens.append(Token("sysid", m.group(0), line))
            i = m.end()
            continue
        m = _DIRECTIVE_RE.match(cleaned, i)
        if m:
            tokens.append(Token("directive", m.group(0), line))
            i = m.end()
            continue
        for p in _PUNCTUATION:
            if cleaned.startswith(p, i):
                tokens.append(Token("punct", p, line))
                i += len(p)
                break
        else:
            tokens.append(Token("diag", f"unexpected character {c!r}", line))
            i += 1
    return tokens


# White space may stand between the size, the base format and the digits of
# a based literal (IEEE 1364-2005 §3.5.1), and a comment or attribute is
# white space there too: `8'b /* c */ 0` is one number, whose text holds the
# comment blanked as `strip_comments` blanks it. Each comment here can end
# only where `strip_comments` ends it, so no backtracking shortens or
# lengthens one to make a number.
_GAP_COMMENT = r"//[^\n]*(?![^\n])|/\*(?:(?!\*/).)*\*/|\(\*(?!\))(?:(?!\*\)).)*\*\)"
_GAP = rf"(?:\s|{_GAP_COMMENT})*"
_GAP_COMMENT_RE = re.compile(_GAP_COMMENT, re.DOTALL)
_SHARED = [
    ("line_comment", r"//[^\n]*"),
    ("block_comment", r"/\*.*?\*/"),
    ("attribute", r"\(\*(?!\)).*?\*\)"),
    ("unterminated", r"(?:/\*|\(\*(?!\))).*"),
    ("string", r'"(?:[^"\\\n]|\\.?)*(?P<closed>")?'),
    ("escaped", r"\\[^ \t\r\n]*"),
]
_TOKEN_RE = re.compile("(?:" + "|".join(f"(?P<{name}>{pattern})" for name, pattern in [
    ("space", r"[ \t\r\f\v\n]+"),
    ("id", r"[A-Za-z_][A-Za-z0-9_$]*"),
    ("number", rf"(?:\d[\d_]*{_GAP})?'{_GAP}[sS]?[bBoOdDhH]{_GAP}[0-9a-fA-FxXzZ_?]+"
               r"|\d[\d_]*\.\d[\d_]*|\d[\d_]*"),
    *_SHARED,
    ("sysid", r"\$[A-Za-z_][A-Za-z0-9_$]*"),
    ("directive", r"`[A-Za-z_][A-Za-z0-9_$]*"),
    ("punct", "|".join(map(re.escape, _PUNCTUATION))),
    ("other", r"."),
]) + ")", re.DOTALL)
_TOKEN_KINDS = {"id": "id", "escaped": "id", "number": "number", "string": "string",
                "punct": "punct", "sysid": "sysid", "directive": "directive"}
_UNTERMINATED = {"/": "unterminated block comment", "(": "unterminated attribute block"}


def master_regex_tokenize(source: str) -> List[Token]:
    """One `Token` per match of the master regex, diags in stream order."""
    tokens: List[Token] = []
    line = 1
    for m in _TOKEN_RE.finditer(source):
        group, value = m.lastgroup, m.group()
        kind = _TOKEN_KINDS.get(group)
        if kind == "number":
            value = _GAP_COMMENT_RE.sub(_blank, value)
        if kind is not None:
            if group == "string" and m.group("closed") is None:
                tokens.append(Token("diag", "unterminated string literal", line))
            tokens.append(Token(kind, value, line))
        elif group == "unterminated":
            tokens.append(Token("diag", _UNTERMINATED[value[0]], line))
        elif group == "other":
            tokens.append(Token("diag", f"unexpected character {value!r}", line))
        if "\n" in value:
            line += value.count("\n")
    return tokens


def _blank(m: "re.Match[str]") -> str:
    """A comment in a based literal: a line comment goes, a block comment or
    attribute becomes spaces around its newlines."""
    if m.group().startswith("//"):
        return ""
    return re.sub(r"[^\n]", " ", m.group())
