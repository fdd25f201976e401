"""Lexer behavior: comment stripping, literals, keyword tables."""

import re

from hypothesis import assume, given, settings
from hypothesis import strategies as st

import assetscout.tokenizer
from assetscout.tokenizer import (
    ID_START, RESERVED_WORDS, SYSTEMVERILOG_KEYWORDS, VERILOG_2005_KEYWORDS, Tokens,
    is_number, strip_comments, tokenize,
)

import lexer_oracle


def values(source):
    return tokenize(source).texts


_KINDS_BY_FIRST = {"$": "sysid", "`": "directive", '"': "string", "_": "id", "\\": "id"}


def kind(text):
    """The kind a token's text tells, as the parser reads it."""
    first = text[0]
    if first.isdecimal() or (first == "'" and len(text) > 1):
        return "number"
    if first.isalpha():
        return "id"
    return _KINDS_BY_FIRST.get(first, "punct")


def triples(tokens):
    """(kind, text, line) of each token."""
    return [(kind(t), t, line) for t, line in zip(tokens.texts, tokens.lines)]


def test_conditional_assignment_line():
    assert values("if (load) data_in_reg <= data;") == [
        "if", "(", "load", ")", "data_in_reg", "<=", "data", ";",
    ]


def test_empty_input():
    assert tokenize("") == Tokens([], [], [])


def test_comments_are_stripped():
    assert values("/* x */ wire w; // y") == ["wire", "w", ";"]


def test_block_comment_keeps_line_numbers():
    toks = tokenize("/* one\ntwo */ wire w;")
    assert toks.texts == ["wire", "w", ";"]
    assert toks.lines[0] == 2
    # an escaped newline in a string and a size on the line above its base
    # make multi-line tokens too
    for source in ('"a\\\nb"\nx', "8\n'hFF\nx"):
        last = triples(tokenize(source))[-1]
        assert (last[1], last[2]) == ("x", 3)


def test_attribute_block_is_stripped():
    assert values("(* full_case *) casez (sel)") == ["casez", "(", "sel", ")"]


def test_based_literals_are_single_tokens():
    toks = tokenize("2'b00 128'hFF 8'd15")
    assert [kind(t) for t in toks.texts] == ["number"] * 3
    assert toks.texts[1] == "128'hFF"


def test_string_literal_is_single_token():
    toks = tokenize('$display("wire // not a comment");')
    strings = [t for t in toks.texts if kind(t) == "string"]
    assert len(strings) == 1
    assert strings[0] == '"wire // not a comment"'


def test_escaped_identifier_is_single_token():
    toks = tokenize("wire \\foo!bar ;")
    assert toks.texts == ["wire", "\\foo!bar", ";"]
    assert kind(toks.texts[1]) == "id"


def test_escaped_identifier_hides_quotes_and_comment_openers():
    # IEEE 1364-2005 3.7.1: an escaped identifier runs to whitespace
    source = 'wire \\a"b ;\nwire \\c//d ;\nwire \\e/*f ;\nwire \\g(*h ;'
    assert strip_comments(source) == (source, [])
    toks = [t for t in triples(tokenize(source)) if t[1].startswith("\\")]
    assert toks == [("id", '\\a"b', 1), ("id", "\\c//d", 2),
                    ("id", "\\e/*f", 3), ("id", "\\g(*h", 4)]


def test_unterminated_block_comment_yields_diagnostic():
    _text, diags = strip_comments("wire w; /* never closed")
    assert any("unterminated block comment" in msg for msg, _line in diags)
    toks = tokenize("wire w; /* never closed")
    assert toks.diagnostics
    assert values("wire w; /* never closed") == ["wire", "w", ";"]


def test_unterminated_string_yields_diagnostic():
    toks = tokenize('x = "open')
    assert toks.diagnostics


def test_compound_operators_win_over_prefixes():
    assert values("a <= b == c <<< d") == ["a", "<=", "b", "==", "c", "<<<", "d"]


def test_keyword_tables_are_disjoint_where_expected():
    assert "module" in VERILOG_2005_KEYWORDS
    assert "endmodule" in VERILOG_2005_KEYWORDS
    # "int" is SystemVerilog-only; keeping it out of the 2005 table lets
    # family configs use "int" as a match fragment
    assert "int" in SYSTEMVERILOG_KEYWORDS
    assert "int" not in VERILOG_2005_KEYWORDS
    assert RESERVED_WORDS == VERILOG_2005_KEYWORDS | SYSTEMVERILOG_KEYWORDS


def test_tokenize_is_deterministic():
    src = "module m (input a);\n  assign y = a ? 1'b0 : 1'b1;\nendmodule\n"
    assert tokenize(src) == tokenize(src)


# Verilog fragments: each comment, string and escaped identifier is whole,
# and escaped identifiers contain no quote or comment opener
_FRAGMENTS = lexer_oracle._PUNCTUATION + [
    "a", "w_1", "data$x", "module", "$display", "$", "`define", "`W", "`",
    "0", "8", "12_000", "1.5", "8'hFF", "8 'h ff", "4'b1x0z", "'d15", "'sd3",
    '"s"', '"a\\"b"', '"a\\\nb"', '"x // y /* z (* w"', '"open', '"tail\\',
    "\\foo!bar ", "\\a+b\t", "\\ ",
    "// c", "/* c */", "/* two\nlines */", "(* full_case *)", "(*)",
    "/* open", "(* open",
    " ", "\t", "\n", "\r\n", "\f", "\v", "\x00", "\u00e9", "\xa0", "\u00b2",
    "\u0663",
]


@settings(max_examples=500, deadline=None)
@given(st.lists(st.sampled_from(_FRAGMENTS), max_size=40))
def test_tokenize_matches_oracle_on_comment_free_text(fragments):
    text, _diags = strip_comments("".join(fragments))
    tokens = tokenize(text)
    new = triples(tokens)
    # a quote closing a string early can leave a backslash outside it
    assume(not any(v.startswith("\\") and any(s in v for s in ('"', "//", "/*", "(*"))
                   for _k, v, _l in new))
    # the oracle's own comment strip reports each unterminated string again,
    # ahead of all tokens
    repeated = len(lexer_oracle.strip_comments(text)[1])
    oracle = lexer_oracle.tokenize(text)[repeated:]
    # diagnostics are not tokens any more: compare them on their own
    old = [(t.kind, t.value, t.line) for t in oracle if t.kind != "diag"]
    old_diags = [(t.value, t.line) for t in oracle if t.kind == "diag"]
    assert [t[:2] for t in new] == [t[:2] for t in old]
    assert [d[0] for d in tokens.diagnostics] == [d[0] for d in old_diags]
    # the oracle does not count newlines inside tokens
    if not any("\n" in t.value for t in oracle):
        assert new == old
        assert tokens.diagnostics == old_diags


# Raw text for the lexer: comments and attributes (closed, unterminated and
# the event control `(*)`), strings with escaped newlines or left open, lone
# `$` and `` ` ``, blanks other than newline, non-ASCII characters and sized
# literals with their size a line above the base
_RAW_FRAGMENTS = _FRAGMENTS + [
    "*)", "*/", "(* a\nb *)", "/* a\nb", "(* a\n", '"a\\\n\\\nb"', '"open\n',
    "8\n'hFF", "4'b\n10", "16 '\nsd 7", "'\nh1", "\f\n", "\v\n", "\u2028",
    "\x85", "\x1f", "\ufeff",
]


@settings(max_examples=1000, deadline=None)
@given(st.lists(st.one_of(st.sampled_from(_RAW_FRAGMENTS),
                          st.text(alphabet="/*()\"\\$`'8hbs_ \t\n\f\v\xe9", max_size=5)),
                max_size=40))
def test_tokenize_matches_master_regex_oracle(fragments):
    text = "".join(fragments)
    oracle = lexer_oracle.master_regex_tokenize(text)
    tokens = tokenize(text)
    kept = [t for t in oracle if t.kind != "diag"]
    assert tokens.texts == [t.value for t in kept]
    assert tokens.lines == [t.line for t in kept]
    assert tokens.diagnostics == [(t.value, t.line) for t in oracle if t.kind == "diag"]
    assert len(tokens) == len(kept)
    # the parser reads each kind from the text alone
    assert [kind(t) for t in tokens.texts] == [t.kind for t in kept]
    assert [is_number(t) for t in tokens.texts] == [t.kind == "number" for t in kept]
    assert [t[0] in ID_START for t in tokens.texts] == [t.kind == "id" for t in kept]


# Oracle: the comment pattern without the lookahead, which tries every
# alternative at every character.
_UNGUARDED_COMMENT_RE = re.compile(
    "|".join(f"(?P<{name}>{pattern})" for name, pattern in assetscout.tokenizer._SHARED),
    re.DOTALL)


@settings(max_examples=500, deadline=None)
@given(st.lists(st.one_of(st.sampled_from(_FRAGMENTS),
                          st.text(alphabet='/*()"\\\n \tax', max_size=6)),
                max_size=40))
def test_strip_comments_matches_unguarded_pattern(fragments):
    text = "".join(fragments)
    guarded = strip_comments(text)
    original = assetscout.tokenizer._COMMENT_RE
    try:
        assetscout.tokenizer._COMMENT_RE = _UNGUARDED_COMMENT_RE
        assert guarded == strip_comments(text)
    finally:
        assetscout.tokenizer._COMMENT_RE = original
