"""Lexer behavior: comment stripping, literals, keyword tables."""

import re

from hypothesis import assume, given, settings
from hypothesis import strategies as st

import assetscout.tokenizer
from assetscout.tokenizer import (
    RESERVED_WORDS, SYSTEMVERILOG_KEYWORDS, VERILOG_2005_KEYWORDS,
    strip_comments, tokenize,
)

import lexer_oracle


def values(source):
    return [t.value for t in tokenize(source) if t.kind != "diag"]


def test_conditional_assignment_line():
    assert values("if (load) data_in_reg <= data;") == [
        "if", "(", "load", ")", "data_in_reg", "<=", "data", ";",
    ]


def test_empty_input():
    assert tokenize("") == []


def test_comments_are_stripped():
    assert values("/* x */ wire w; // y") == ["wire", "w", ";"]


def test_block_comment_keeps_line_numbers():
    toks = tokenize("/* one\ntwo */ wire w;")
    assert [t.value for t in toks] == ["wire", "w", ";"]
    assert toks[0].line == 2
    # an escaped newline in a string and a size on the line above its base
    # make multi-line tokens too
    for source in ('"a\\\nb"\nx', "8\n'hFF\nx"):
        last = tokenize(source)[-1]
        assert (last.value, last.line) == ("x", 3)


def test_attribute_block_is_stripped():
    assert values("(* full_case *) casez (sel)") == ["casez", "(", "sel", ")"]


def test_based_literals_are_single_tokens():
    toks = tokenize("2'b00 128'hFF 8'd15")
    assert [t.kind for t in toks] == ["number"] * 3
    assert toks[1].value == "128'hFF"


def test_string_literal_is_single_token():
    toks = tokenize('$display("wire // not a comment");')
    strings = [t for t in toks if t.kind == "string"]
    assert len(strings) == 1
    assert strings[0].value == '"wire // not a comment"'


def test_escaped_identifier_is_single_token():
    toks = tokenize("wire \\foo!bar ;")
    assert [t.value for t in toks] == ["wire", "\\foo!bar", ";"]
    assert toks[1].kind == "id"


def test_escaped_identifier_hides_quotes_and_comment_openers():
    # IEEE 1364-2005 3.7.1: an escaped identifier runs to whitespace
    source = 'wire \\a"b ;\nwire \\c//d ;\nwire \\e/*f ;\nwire \\g(*h ;'
    assert strip_comments(source) == (source, [])
    toks = [(t.kind, t.value, t.line) for t in tokenize(source)
            if t.value.startswith("\\")]
    assert toks == [("id", '\\a"b', 1), ("id", "\\c//d", 2),
                    ("id", "\\e/*f", 3), ("id", "\\g(*h", 4)]


def test_unterminated_block_comment_yields_diagnostic():
    _text, diags = strip_comments("wire w; /* never closed")
    assert any("unterminated block comment" in msg for msg, _line in diags)
    toks = tokenize("wire w; /* never closed")
    assert any(t.kind == "diag" for t in toks)
    assert values("wire w; /* never closed") == ["wire", "w", ";"]


def test_unterminated_string_yields_diagnostic():
    toks = tokenize('x = "open')
    assert any(t.kind == "diag" for t in toks)


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
    new = [(t.kind, t.value, t.line) for t in tokenize(text)]
    # a quote closing a string early can leave a backslash outside it
    assume(not any(v.startswith("\\") and any(s in v for s in ('"', "//", "/*", "(*"))
                   for _k, v, _l in new))
    # the oracle's own comment strip reports each unterminated string again,
    # ahead of all tokens
    repeated = len(lexer_oracle.strip_comments(text)[1])
    old = [(t.kind, t.value, t.line) for t in lexer_oracle.tokenize(text)[repeated:]]
    assert [t[:2] for t in new] == [t[:2] for t in old]
    # the oracle does not count newlines inside tokens
    if not any("\n" in value for _kind, value, _line in old):
        assert new == old


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
