"""Parser behavior: the splitter fixture, port styles, widths, recovery."""

import json
import os
import time
import tracemalloc

import pytest
from hypothesis import example, given, settings
from hypothesis import strategies as st

import assetscout.design
import assetscout.parser
from assetscout.cli import EXIT_OK, main
from assetscout.design import _number_value, _resolve_parameters, build_database, eval_const_expr
from assetscout.keywords import load_family_config
from assetscout.matcher import match_elements
from assetscout.parser import (
    MAX_EXPANDED_LINE, MAX_INCLUDE_DEPTH, parse_file, parse_source, preprocess,
)
from assetscout.patterns import classify_design
from assetscout.report import run_pipeline
from assetscout.rules import apply_family_rules
from assetscout.syntax import (
    BLOCKING_ASSIGN, CASE_STMT, CONTINUOUS_ASSIGN, IF_STMT, NONBLOCKING_ASSIGN, TERNARY_STMT,
    WILDCARD, Record,
)
from assetscout.tokenizer import RESERVED_WORDS, tokenize

from conftest import MINI_CORPUS, SPLITTER_FILE, build_db, parse_tree
from fixtures_rtl import AB_SOURCE
from parser_oracle import recursive_parse_source, recursive_resolve_parameters


def test_splitter_module_shape(splitter_unit):
    assert len(splitter_unit.modules) == 1
    mod = splitter_unit.modules[0]
    assert mod.name == "data_splitter"
    assert [p.name for p in mod.ports] == [
        "clk", "load", "bank_selector", "data",
        "bank0", "bank1", "bank2", "bank3", "done",
    ]
    assert [n.name for n in mod.nets] == [
        "data_in_reg", "done0", "done1", "done2", "done3",
    ]


def test_splitter_widths(splitter_db):
    mod = splitter_db.modules_by_name["data_splitter"]
    expect = {"load": 1, "bank_selector": 2, "data": 128, "bank0": 32,
              "done": 1, "data_in_reg": 128, "done0": 1}
    for name, bits in expect.items():
        assert mod.signal(name).width_bits == bits, name


def test_splitter_statements(splitter_unit):
    mod = splitter_unit.modules[0]
    load_ifs = [s for s in mod.statements
                if s.kind == IF_STMT and s.cond_idents == ["load"]]
    assert len(load_ifs) == 1
    load_assigns = [s for s in mod.statements
                    if s.kind == NONBLOCKING_ASSIGN and s.cond_idents == ["load"]]
    assert len(load_assigns) == 1
    assert load_assigns[0].lhs_idents == ["data_in_reg"]
    assert load_assigns[0].rhs_idents == ["data"]

    cases = [s for s in mod.statements if s.kind == CASE_STMT]
    assert len(cases) == 1
    assert cases[0].cond_idents == ["bank_selector"]
    assert cases[0].branch_count == 5
    assert cases[0].body_statement_count == 2

    done_ifs = [s for s in mod.statements
                if s.kind == IF_STMT
                and set(s.cond_idents) == {"done0", "done1", "done2", "done3"}]
    assert len(done_ifs) == 1
    assert done_ifs[0].branch_count == 2


def test_cond_idents_empty_iff_unconditional(splitter_unit):
    for stmt in splitter_unit.modules[0].statements:
        if stmt.kind == NONBLOCKING_ASSIGN and stmt.line == 15:
            assert stmt.cond_idents  # guarded by load
    mod = parse_source("module m (input a, output y);\n"
                       "  assign y = a;\nendmodule\n").modules[0]
    assert mod.statements[0].cond_idents == []


def test_two_module_file():
    unit = parse_source(AB_SOURCE, "ab.v")
    assert [m.name for m in unit.modules] == ["child_a", "top_b"]
    top = unit.modules[1]
    assert len(top.instantiations) == 1
    inst = top.instantiations[0]
    assert inst.target_module == "child_a"
    assert dict(inst.connections) == {"din": ["top_in"], "dout": ["top_out"]}


@pytest.mark.parametrize("item, instances", [
    ("child #(.W(8)) u0 (.a(x)), u1 (.a(y));", [[("a", ["x"])], [("a", ["y"])]]),
    ("child #5 u [1:0] (x, , y), v [0:3] (.*);",
     [[(0, ["x"]), (1, []), (2, ["y"])], [(WILDCARD, [])]]),
    ("child u (), v (x, );", [[], [(0, ["x"]), (1, [])]]),
])
def test_instance_list_gives_each_instance_its_connections(item, instances):
    unit = parse_source(f"module p (input x, input y);\n  {item}\nendmodule\n")
    assert unit.diagnostics == []
    assert [(i.target_module, i.connections, i.line)
            for i in unit.modules[0].instantiations] == [
        ("child", connections, 2) for connections in instances]


def test_comment_only_file():
    unit = parse_source("// nothing here\n/* still nothing */\n")
    assert unit.modules == []
    assert unit.diagnostics == []


def test_unterminated_string_is_diagnosed_once():
    unit = parse_source('module m(input a);\nassign b = "abc;\nendmodule\n')
    assert [(d.message, d.line) for d in unit.diagnostics
            if d.message.startswith("unterminated")] == [("unterminated string literal", 2)]


@pytest.mark.parametrize("source, expected", [
    ('module m(input a);\n  wire [7:0] w;\n  assign w = "open;\nendmodule\n'
     "`endif\n/* never\nclosed\n",
     [("unterminated string literal", "warning", 3),
      ("unterminated block comment", "warning", 6),
      ("`endif without `ifdef", "warning", 5),
      ("malformed module: unterminated continuous assignment", "error", 3)]),
    ("module m(input a, output y);\n  assign y = a;\n  # \u00e9\nendmodule\n"
     "(* full_case\n*/ endmodule\n",
     [("unexpected character '\u00e9'", "warning", 3),
      ("unterminated attribute block", "warning", 5)]),
])
def test_frontend_diagnostics_keep_their_stage_order(source, expected):
    # the lexer's first, then the preprocessor's (comments before
    # directives), then the parser's
    assert [(d.message, d.severity, d.line)
            for d in parse_source(source).diagnostics] == expected


def test_comment_opener_formed_by_a_macro_is_two_slashes():
    # comments are removed once, before macros expand, as in C
    source = "`define SL /\nmodule m(input a, output y);\n  assign y = a `SL/ b;\nendmodule\n"
    assert "= a / / b ;" in " ".join(tokenize(preprocess(source)).texts)
    unit = parse_source(source)
    assert unit.diagnostics == []
    assert unit.modules[0].statements[0].rhs_idents == ["a", "b"]


def test_non_ansi_ports():
    mod = build_db("""
        module nansi (a, b, q);
          input a;
          input [3:0] b;
          output reg q;
          always @(*) q = a;
        endmodule
    """).modules_by_name["nansi"]
    assert [(p.name, p.direction, p.width_bits) for p in mod.ports] == [
        ("a", "Input", 1), ("b", "Input", 4), ("q", "Output", 1),
    ]


def test_positional_instantiation():
    mod = parse_source("""
        module p (input x, output y);
          child u0 (x, y);
        endmodule
    """).modules[0]
    inst = mod.instantiations[0]
    assert inst.connections == [(0, ["x"]), (1, ["y"])]


def test_parameter_width_resolution():
    mod = build_db("""
        module m #(parameter W = 8) (output [W-1:0] q);
          localparam HALF = W / 2;
          wire [HALF*2-1:0] mirror;
          assign q = mirror;
        endmodule
    """).modules_by_name["m"]
    assert mod.signal("q").width_bits == 8
    assert mod.signal("mirror").width_bits == 8
    assert _resolve_parameters(mod.parameters) == {"W": 8, "HALF": 4}


def test_unresolved_width_defaults_narrow():
    mod = build_db("""
        module m (input [EXTERNAL_W-1:0] d, output q);
          assign q = d[0];
        endmodule
    """).modules_by_name["m"]
    assert mod.signal("d").width_bits is None


def test_ternary_statement_kind():
    mod = parse_source("""
        module m (input pick, input a, input b, output y);
          assign y = pick ? a : b;
        endmodule
    """).modules[0]
    assert [s.kind for s in mod.statements] == [TERNARY_STMT]
    assert mod.statements[0].cond_idents == ["pick"]


def test_define_macro_substitution():
    mod = build_db("""
        `define WIDTH 16
        module m (input [`WIDTH-1:0] d);
        endmodule
    """).modules_by_name["m"]
    assert mod.signal("d").width_bits == 16


def test_ifdef_branches():
    src = """
        `define FAST
        module m (
        `ifdef FAST
            input [7:0] d
        `else
            input [127:0] d
        `endif
        );
        endmodule
    """
    assert build_db(src).signal(("m", "d")).width_bits == 8


def test_include_resolution(tmp_path):
    (tmp_path / "ports.vh").write_text("input [3:0] sel,\n")
    top = tmp_path / "top.v"
    top.write_text('module m (\n`include "ports.vh"\ninput go\n);\nendmodule\n')
    unit = parse_file(str(top))
    names = [p.name for p in unit.modules[0].ports]
    assert names == ["sel", "go"]


def test_missing_include_is_diagnosed(tmp_path):
    top = tmp_path / "top.v"
    top.write_text('`include "nope.vh"\nmodule m (input a);\nendmodule\n')
    unit = parse_file(str(top))
    assert len(unit.modules) == 1
    assert any("nope.vh" in d.message for d in unit.diagnostics)


def test_include_that_cannot_be_opened_is_diagnosed_as_missing(tmp_path, monkeypatch):
    (tmp_path / "locked.vh").write_text("wire w;\n")
    top = str(tmp_path / "top.v")

    def refusing(path, *args, **kwargs):
        raise PermissionError(13, "Permission denied", path)
    monkeypatch.setattr(assetscout.parser, "open", refusing, raising=False)
    diags = []
    text = preprocess('`include "locked.vh"\nmodule m (input a);\nendmodule\n',
                      top, diagnostics=diags)
    assert "wire" not in text
    assert [(d.message, d.severity, d.line) for d in diags] == [
        ("include file not found: locked.vh", "warning", 1)]


def test_include_cycle_is_diagnosed_not_expanded(tmp_path):
    (tmp_path / "a.vh").write_text('`include "a.vh"\n`include "a.vh"\nwire w;\n')
    top = tmp_path / "top.v"
    top.write_text('`include "a.vh"\nmodule m (input a);\nendmodule\n')
    start = time.perf_counter()
    unit = parse_file(str(top), include_dirs=[str(tmp_path)])
    assert time.perf_counter() - start < 1.0
    assert len(unit.modules) == 1
    assert [(d.message, d.line) for d in unit.diagnostics] == [
        ("include cycle at a.vh", 1), ("include cycle at a.vh", 2)]


def test_include_chain_without_cycle_stops_at_depth_limit(tmp_path):
    for i in range(20):
        (tmp_path / f"h{i}.vh").write_text(f'`include "h{i + 1}.vh"\nwire w{i};\n')
    (tmp_path / "h20.vh").write_text("wire w20;\n")
    diags = []
    text = preprocess('`include "h0.vh"\n', str(tmp_path / "top.v"),
                      [str(tmp_path)], diagnostics=diags)
    assert text.count("wire w") == MAX_INCLUDE_DEPTH
    assert [d.message for d in diags] == [
        f"include depth limit reached at h{MAX_INCLUDE_DEPTH}.vh"]


def test_nested_include_resolves_against_including_file(tmp_path, monkeypatch):
    (tmp_path / "sub").mkdir()
    (tmp_path / "sub" / "a.vh").write_text('`include "b.vh"\n')
    (tmp_path / "sub" / "b.vh").write_text("`define W 8\n")
    top = tmp_path / "top.v"
    top.write_text('`include "sub/a.vh"\nmodule m (input [`W-1:0] d);\nendmodule\n')
    (tmp_path / "elsewhere").mkdir()
    monkeypatch.chdir(tmp_path / "elsewhere")
    unit = parse_file(str(top), include_dirs=[str(tmp_path)])
    assert unit.diagnostics == []
    assert build_database([unit]).signal(("m", "d")).width_bits == 8


def test_include_never_resolves_against_the_working_directory(tmp_path, monkeypatch):
    (tmp_path / "rtl").mkdir()
    (tmp_path / "cwd").mkdir()
    (tmp_path / "cwd" / "defs.vh").write_text("`define KW 128\n")
    (tmp_path / "rtl" / "top.v").write_text(
        '`include "defs.vh"\nmodule top (input [`KW-1:0] key_in, input [`KW-1:0] din,\n'
        "  output [`KW-1:0] dout);\n  assign dout = din ^ key_in;\nendmodule\n")
    monkeypatch.chdir(tmp_path / "cwd")
    (unit,) = parse_tree(str(tmp_path / "rtl"))
    assert [(d.message, d.severity, d.line) for d in unit.diagnostics] == [
        ("include file not found: defs.vh", "warning", 1)]
    build_database([unit])
    assert [(p.name, p.width_bits) for p in unit.modules[0].ports] == [
        ("key_in", None), ("din", None), ("dout", None)]


def test_macro_uses_in_strings_and_escaped_identifiers_stay():
    text = preprocess('`define A 1\n'
                      'initial $display("`A \\" `A", `A);\n'
                      'wire \\w`A = `A;\n')
    assert text.splitlines()[1:] == ['initial $display("`A \\" `A", 1);',
                                     'wire \\w`A = 1;']


def test_macro_in_macro_text_expands_where_used():
    # IEEE 1364-2005 19.3.1: `A takes its value where `B is used
    unit = parse_source("`define A 7\n`define B (`A+1)\n`undef A\n`define A 8\n"
                        "module t (input [`B:0] key_in);\nendmodule\n")
    assert unit.diagnostics == []
    assert build_database([unit]).signal(("t", "key_in")).width_bits == 10


@pytest.mark.parametrize("defines", ["`define X `X", "`define X `Y\n`define Y (`X)"])
def test_macro_reaching_itself_stops_with_one_warning(defines):
    unit = parse_source(f"{defines}\nmodule t (input [`X:0] key_in);\nendmodule\n")
    assert [m.name for m in unit.modules] == ["t"]
    line = defines.count("\n") + 2
    assert [(d.message, d.severity, d.line) for d in unit.diagnostics] == [
        ("macro `X expands to a use of itself", "warning", line)]


def test_conditional_open_at_end_of_file_is_a_warning(tmp_path):
    # IEEE 1364-2005 19.4: each `ifdef/`ifndef ends at its `endif
    (tmp_path / "open.vh").write_text("`ifndef GUARD\n`define GUARD\nwire w;\n")
    top = tmp_path / "top.v"
    top.write_text('`include "open.vh"\nmodule t (input a, output b);\n'
                   "`ifdef NEVER\n  assign b = a;\nendmodule\n")
    unit = parse_file(str(top))
    assert [(d.message, d.severity, d.line) for d in unit.diagnostics] == [
        ("`ifndef without `endif", "warning", 1),
        ("`ifdef without `endif", "warning", 3),
        ("malformed module: unexpected end of file inside module", "error", 2)]


def test_unsupported_construct_is_skipped_with_diagnostic():
    unit = parse_source("""
        module m (input [3:0] a, output [3:0] y);
          function [3:0] twice;
            input [3:0] v;
            twice = v * 2;
          endfunction
          assign y = a;
        endmodule
    """)
    mod = unit.modules[0]
    assert mod.name == "m"
    assert any("function" in d.message for d in unit.diagnostics)
    assert mod.signal("y") is not None


def test_defparam_is_skipped_with_a_warning_at_its_line():
    unit = parse_source("module top (input [7:0] key, output [7:0] q);\n"
                        "  core u (.k(key), .q(q));\n  defparam u.KW = 8;\n"
                        "  assign q = key;\nendmodule\n")
    assert [(d.message, d.severity, d.line) for d in unit.diagnostics] == [
        ("defparam skipped: parameter overrides are not applied", "warning", 3)]
    assert len(unit.modules[0].statements) == 1


def test_error_recovery_at_module_boundary():
    unit = parse_source("""
        module broken (input a
        this is ;;; not verilog
        module fine (input b, output q);
          assign q = b;
        endmodule
    """)
    names = [m.name for m in unit.modules]
    assert "fine" in names
    assert unit.diagnostics


@pytest.mark.parametrize("item, message", [
    # a generate region without the keywords: the label reads as a module
    ("if (1) begin : g core u (.key_in(key)); end",
     "no port list after 'g core'"),
    ("for (i = 0; i < 1; i = i + 1) begin : g core u (.key_in(key)); end",
     "no instance name after 'i'"),
])
def test_instantiation_that_is_no_instance_is_a_warning(item, message):
    unit = parse_source("module top (input [7:0] key);\n"
                        f"  {item}\nendmodule\n")
    assert [m.name for m in unit.modules] == ["top"]
    assert unit.modules[0].instantiations == []
    assert (f"{message}, skipped to ';'", "warning", 2) in [
        (d.message, d.severity, d.line) for d in unit.diagnostics]


@pytest.mark.parametrize("stray, stmts", [
    ("  assign b = a);\n", [(["b"], ["a"])]),
    ("  always @(posedge a) b <= a];\n", [(["b"], ["a"])]),
    ("  always @* case (a) 1): b = a; endcase\n", [([], []), (["b"], ["a"])]),
])
def test_stray_closer_ends_at_the_terminator(stray, stmts):
    unit = parse_source(f"module t(input a, output b);\n{stray}endmodule\n"
                        "module s(input c);\nendmodule\n")
    assert [m.name for m in unit.modules] == ["t", "s"]
    assert not unit.diagnostics
    assert [(stmt.lhs_idents, stmt.rhs_idents)
            for stmt in unit.modules[0].statements] == stmts


def test_reserved_words_never_become_signals(splitter_unit):
    units = parse_tree(MINI_CORPUS) + [splitter_unit]
    for unit in units:
        for mod in unit.modules:
            for decl in mod.ports + mod.nets:
                assert decl.name not in RESERVED_WORDS


def test_reparse_determinism():
    with open(SPLITTER_FILE, "r", encoding="utf-8") as fh:
        text = fh.read()
    first = parse_source(text, SPLITTER_FILE)
    second = parse_source(text, SPLITTER_FILE)
    assert first == second


def test_rtl_discovery_is_sorted(tmp_path):
    from assetscout.parser import discover_rtl_files
    for name in ("b.v", "a.sv", "c.txt", "sub/d.vh"):
        path = tmp_path / name
        path.parent.mkdir(parents=True, exist_ok=True)
        path.write_text("// stub\n")
    found = [os.path.relpath(p, tmp_path) for p in discover_rtl_files(str(tmp_path))]
    assert found == ["a.sv", "b.v", os.path.join("sub", "d.vh")]


@settings(max_examples=200, deadline=None)
@given(msb=st.integers(min_value=0, max_value=255),
       lsb=st.integers(min_value=0, max_value=255))
def test_width_formula_property(msb, lsb):
    db = build_db(f"module m (input x);\n  wire [{msb}:{lsb}] w;\nendmodule\n")
    assert db.signal(("m", "w")).width_bits == abs(msb - lsb) + 1


# `ifdef/`ifndef A ... `elsif B ... `else or `elsif C ... `endif; every case
# also defines the names of the later branches, so keeping more than the
# first true branch shows up as a second x<n> in the output.
_TRUE_FIRST = {"ifdef": {"A"}, "ifndef": set()}
_FALSE_FIRST = {"ifdef": set(), "ifndef": {"A"}}


@pytest.mark.parametrize("opener", ["ifdef", "ifndef"])
@pytest.mark.parametrize("closer", ["`else", "`elsif C"])
@pytest.mark.parametrize("taken", [0, 1, 2])
def test_conditional_chain_keeps_only_first_true_branch(opener, closer, taken):
    defined = [_TRUE_FIRST[opener] | {"B", "C"},
               _FALSE_FIRST[opener] | {"B", "C"},
               _FALSE_FIRST[opener] | {"C"}][taken]
    src = (f"`{opener} A\nx0\n`elsif B\nx1\n{closer}\nx2\n`endif\n"
           "after\n")
    out = preprocess(src, defines={name: "" for name in defined})
    assert out.split() == [f"x{taken}", "after"]
    assert out.count("\n") == src.count("\n")


_NAMES = ["a", "b", "c", "d"]
_RANGE = st.sampled_from(["", "[3:0] ", "[7:0] "])
_ANSI_PORT = st.tuples(st.sampled_from(["input", "output", "inout"]), _RANGE,
                       st.sampled_from(_NAMES))
_NAME_LIST = st.lists(st.sampled_from(_NAMES), min_size=1, max_size=3)
_BODY_ITEM = st.tuples(
    st.sampled_from(["input", "output", "inout", "wire", "reg"]), _RANGE, _NAME_LIST)


def _header_and_items(header, body, rename=lambda n: n):
    """The drawn port header and body declarations of a module, as text, and
    the names declared as ports; `rename` maps each drawn name."""
    if header is None:
        head, port_names = "", []
    elif isinstance(header[0], tuple):   # ANSI ports
        head = "(" + ", ".join(f"{d} {r}{rename(n)}" for d, r, n in header) + ")"
        port_names = [rename(n) for _d, _r, n in header]
    else:                                # non-ANSI name list
        port_names = [rename(n) for n in header]
        head = "(" + ", ".join(port_names) + ")"
    items = "".join(f"  {kw} {r}{', '.join(map(rename, names))};\n"
                    for kw, r, names in body)
    port_names += [rename(n) for kw, _r, names in body
                   if kw in ("input", "output", "inout") for n in names]
    return head, items, port_names


def _linear_signal(mod, name):
    """Signal lookup as a scan: the first port of that name, else the first net."""
    for decl in mod.ports + mod.nets:
        if decl.name == name:
            return decl
    return None


@settings(max_examples=300, deadline=None)
@given(header=st.one_of(st.none(), st.lists(_ANSI_PORT, min_size=1, max_size=5),
                        _NAME_LIST),
       body=st.lists(_BODY_ITEM, max_size=8))
def test_signal_index_matches_linear_scan(header, body):
    head, items, port_names = _header_and_items(header, body)
    mod = parse_source(f"module m {head};\n{items}endmodule\n").modules[0]
    for name in _NAMES:
        assert mod.signal(name) is _linear_signal(mod, name), name
    # a port declared after a same-named net is still a port
    assert {p.name for p in mod.ports} == set(port_names)


# names the crypto family matches, and statements that give them behaviours
_KEYWORD_NAMES = {"a": "data_a", "b": "done_b", "c": "key_c", "d": "d"}
_KEYWORD_BEHAVIOURS = ("  assign data_a = key_c;\n  assign done_b = d;\n"
                       "  always @* if (done_b) key_c = data_a;\n")


@settings(max_examples=200, deadline=None)
@given(header=st.one_of(st.none(), st.lists(_ANSI_PORT, min_size=1, max_size=5),
                        _NAME_LIST),
       body=st.lists(_BODY_ITEM, max_size=8))
def test_every_stage_resolves_names_through_the_module(header, body):
    head, items, _ports = _header_and_items(header, body, _KEYWORD_NAMES.get)
    db = build_database([parse_source(
        f"module m {head};\n{items}{_KEYWORD_BEHAVIOURS}endmodule\n")])
    mod = db.modules_by_name["m"]
    for name in _KEYWORD_NAMES.values():
        assert db.signal(("m", name)) is mod.signal(name), name
    config = load_family_config("crypto")
    important = match_elements(db, config)
    assert [e.signal for e in important] == \
        [mod.signal(e.signal.name) for e in important]
    candidates = apply_family_rules(important, classify_design(db), config)
    assert len(candidates) <= len(important) <= db.signal_count
    assert db.signal_count == len({d.name for d in mod.ports + mod.nets})


_OPERAND = st.one_of(st.integers(min_value=0, max_value=300).map(str),
                     st.sampled_from(["P", "Q", "UNDEF", "8'd12", "4 'h F"]))


def _combine(children):
    binary = st.tuples(children, st.sampled_from(["+", "-", "*", "/"]), children,
                       st.sampled_from(["", " "])
                       ).map(lambda t: f"{t[0]}{t[3]}{t[1]}{t[3]}{t[2]}")
    return st.one_of(binary, children.map(lambda e: f"({e})"),
                     children.map(lambda e: f"-{e}"))


_EXPR = st.recursive(_OPERAND, _combine, max_leaves=8)


def _retokenized_width(range_expr, params):
    """Width by joining the bound tokens to text and tokenizing it again."""
    msb, lsb = (eval_const_expr(tokenize(" ".join(texts)).texts, params)
                for texts in range_expr)
    if msb is None or lsb is None:
        return None
    return abs(msb - lsb) + 1


@settings(max_examples=300, deadline=None)
@given(msb=_EXPR, lsb=st.one_of(st.none(), _EXPR))
def test_range_width_from_kept_tokens_matches_retokenized(msb, lsb):
    rng = f"[{msb}]" if lsb is None else f"[{msb}:{lsb}]"
    mod = build_db("module m #(parameter P = 6, parameter Q = P * 2 - 1)"
                   f" (input {rng} w);\nendmodule\n").modules_by_name["m"]
    decl = mod.signal("w")
    assert decl.width_bits == _retokenized_width(decl.range_expr,
                                                 _resolve_parameters(mod.parameters))


_PP_LINES = [
    "`define A 1", "`define F(x) x", "`define LONG a \\", "  b \\", "`undef A",
    "`ifdef A", "`ifndef B", "`elsif A", "`else", "`endif", "`timescale 1ns/1ps",
    "wire w = `A + `B;", "// c", "/* c", "*/ x", "/* one */ y", "(* attr", "*)",
    '"s // t"', '"open', '"a\\', "\\esc//aped", "",
]


@settings(max_examples=300, deadline=None)
@given(lines=st.lists(st.one_of(st.sampled_from(_PP_LINES),
                                st.text(alphabet='`"\\/*() \t\r\nABdefi', max_size=8)),
                      max_size=30))
def test_preprocess_keeps_line_count(lines):
    text = "\n".join(lines)
    assert preprocess(text).count("\n") == text.count("\n")


_IDS = st.lists(st.sampled_from(["s", "t", "u"]), max_size=2)
_COND = _IDS.map(lambda ids: " & ".join(ids) or "1")
_ASSIGN = st.tuples(st.sampled_from(["x", "y"]), _IDS).map(
    lambda a: f"{a[0]} <= {' + '.join(a[1]) or '0'};")
_SIMPLE = st.one_of(_ASSIGN, st.sampled_from([
    ";", "y = s ? t : u;", "x <= #1 t;", "assign x = s;", "disable blk;",
    '$display("s");', "x = s + ;"]))
_CASE_LABEL = st.sampled_from(["1:", "2, 3:", "s:", "default:", "default"])
_IF = st.sampled_from(["if", "unique if", "priority if"])


def _nested(inner):
    """Statements one level deeper than `inner`."""
    return st.one_of(
        st.tuples(st.sampled_from(["begin", "begin : blk"]), st.lists(inner, max_size=3))
        .map(lambda b: f"{b[0]} {' '.join(b[1])} end"),
        st.tuples(_IF, _COND, inner).map(lambda c: f"{c[0]} ({c[1]}) {c[2]}"),
        st.tuples(_IF, _COND, inner, inner).map(
            lambda c: f"{c[0]} ({c[1]}) {c[2]}\nelse {c[3]}"),
        # an `else if` chain; a dangling `if` without `else` takes the
        # chain's next `else`
        st.tuples(st.lists(st.tuples(_COND, inner), min_size=1, max_size=4),
                  st.one_of(st.none(), inner))
        .map(lambda c: "\n  else ".join(f"if ({cond}) {body}" for cond, body in c[0])
             + ("" if c[1] is None else f"\n  else {c[1]}")),
        st.tuples(st.sampled_from(["case", "casez", "unique case", "priority casex"]), _COND,
                  st.lists(st.tuples(_CASE_LABEL, inner), max_size=3))
        .map(lambda c: f"{c[0]} ({c[1]})\n"
             + "".join(f"  {label} {body}\n" for label, body in c[2]) + "endcase"),
        st.tuples(st.sampled_from(["for (i = 0; i < 4; i = i + 1)", "forever",
                                   "@(posedge clk)", "@*", "#5", "while (s)"]), inner)
        .map(" ".join))


# statements nested up to 0, 1, ..., 8 levels deep
_STATEMENTS = [_SIMPLE]
for _ in range(8):
    _STATEMENTS.append(st.one_of(_SIMPLE, _nested(_STATEMENTS[-1])))


def _cut(src, how, at):
    """`src` whole, cut short at a word, or with one word left out."""
    words = src.split(" ")
    at %= len(words)
    if how == "cut":
        return " ".join(words[:at])
    if how == "drop":
        return " ".join(words[:at] + words[at + 1:])
    return src


def _attributes(value):
    """`value` with each record, recursively, as its class name and every
    attribute it holds, derived ones such as `ModuleDef._signals` included."""
    if isinstance(value, Record):
        names = vars(value) if hasattr(value, "__dict__") else type(value).__slots__
        return type(value).__name__, {name: _attributes(getattr(value, name))
                                      for name in names}
    if isinstance(value, (list, tuple)):
        return type(value)(map(_attributes, value))
    if isinstance(value, dict):
        return {key: _attributes(item) for key, item in value.items()}
    return value


@settings(max_examples=300, deadline=None)
@given(body=st.one_of(_STATEMENTS[1:]),
       how=st.sampled_from(["whole", "cut", "drop"]), at=st.integers(0, 10**4))
def test_statement_nests_match_recursive_oracle(body, how, at):
    src = _cut("module m (input clk, input s, input t, input u, output reg x,"
               " output reg y);\nalways @(posedge clk)\n"
               f"{body}\nendmodule\nmodule sib (input a);\nendmodule\n", how, at)
    assert _attributes(parse_source(src)) == _attributes(recursive_parse_source(src))


# a dependency map over P0..P4: forward references, cycles, self-references,
# an unknown name and division by zero
_DIGIT = st.integers(min_value=0, max_value=9).map(str)
_PARAM_EXPR = st.recursive(
    st.one_of(_DIGIT, _DIGIT, st.sampled_from(["P0", "P1", "P2", "P3", "P4", "UNDEF"])),
    _combine, max_leaves=6)


@settings(max_examples=500, deadline=None)
@example(raw={"P0": ["-", "P1", "/", "2"], "P1": ["7"]})  # -3: `/` truncates toward zero
@example(raw={"P0": ["-", "P1", "+", "2"], "P1": ["7"]})  # -5: the `-` binds first
@given(raw=st.dictionaries(st.sampled_from(["P0", "P1", "P2", "P3", "P4"]),
                           _PARAM_EXPR.map(lambda expr: tokenize(expr).texts),
                           max_size=5))
def test_parameters_match_recursive_oracle(raw):
    assert _resolve_parameters(raw) == recursive_resolve_parameters(raw)


def _else_if_chain(n):
    arms = "\n".join(f"  else if (addr == {k}) q <= {k % 256};" for k in range(1, n))
    return ("module dec (input clk, input [11:0] addr, output reg [7:0] q);\n"
            f"always @(posedge clk)\n  if (addr == 0) q <= 0;\n{arms}\n"
            "  else q <= 0;\nendmodule\n")


def test_long_else_if_chain_parses(tmp_path):
    src = _else_if_chain(3000)
    heads = [s for s in parse_source(src).modules[0].statements
             if s.kind == IF_STMT]
    assert len(heads) == 3000
    assert heads[0].body_statement_count == 2 * 3000 - 1  # every later record
    assert heads[-1].branch_count == 2
    (tmp_path / "dec.v").write_text(src)
    assert main(["--rtl-dir", str(tmp_path), "--out",
                 str(tmp_path / "report.json")]) == EXIT_OK


def _kind(text):
    """A token's kind, as the lexer that made tokens with kinds named it."""
    if text[0].isdecimal() or (text[0] == "'" and len(text) > 1):
        return "number"
    if text[0].isalpha() or text[0] in "_\\":
        return "id"
    return "string" if text[0] == '"' else "punct"


class _Tok:
    """A token with a kind, built from its text."""

    def __init__(self, text):
        self.kind, self.value = _kind(text), text


def closure_eval_const_expr(texts, params):
    """Oracle: the evaluator built from closures over a shared position."""
    tokens = [_Tok(t) for t in texts]
    pos = [0]

    def peek():
        return tokens[pos[0]] if pos[0] < len(tokens) else None

    def advance():
        t = tokens[pos[0]]
        pos[0] += 1
        return t

    def parse_primary():
        t = peek()
        if t is None:
            return None
        if t.kind == "number":
            advance()
            return _number_value(t.value)
        if t.kind == "id":
            advance()
            return params.get(t.value)
        if t.kind == "punct" and t.value == "(":
            advance()
            v = parse_add()
            t2 = peek()
            if t2 is not None and t2.kind == "punct" and t2.value == ")":
                advance()
                return v
            return None
        if t.kind == "punct" and t.value == "-":
            advance()
            v = parse_primary()
            return -v if v is not None else None
        if t.kind == "punct" and t.value == "+":
            advance()
            return parse_primary()
        return None

    def parse_mul():
        v = parse_primary()
        while v is not None:
            t = peek()
            if t is not None and t.kind == "punct" and t.value in ("*", "/"):
                advance()
                rhs = parse_primary()
                if rhs is None:
                    return None
                if t.value == "*":
                    v = v * rhs
                elif rhs == 0:
                    v = None
                else:  # truncated toward zero (IEEE 1364-2005 §5.1.5)
                    v = -(-v // rhs) if (v < 0) != (rhs < 0) else v // rhs
            else:
                break
        return v

    def parse_add():
        v = parse_mul()
        while v is not None:
            t = peek()
            if t is not None and t.kind == "punct" and t.value in ("+", "-"):
                advance()
                rhs = parse_mul()
                if rhs is None:
                    return None
                v = v + rhs if t.value == "+" else v - rhs
            else:
                break
        return v

    result = parse_add()
    if result is None or pos[0] != len(tokens):
        return None
    return result


# known, unresolved (None) and unknown identifiers
_PARAMS = {"P": 6, "Q": 11, "Z": 0, "NONE": None}
_RAW_TOKEN = st.one_of(
    st.integers(min_value=0, max_value=10**6).map(str),
    st.sampled_from(["8'd12", "4'hF", "'b101", "4'bx1", "8'sd3", "1.5", "'h",
                     "3'o7", "12_000"]),
    st.sampled_from(list(_PARAMS) + ["UNDEF"]),
    st.sampled_from(["+", "-", "*", "/", "(", ")", ":", "?", "["]),
    st.just('"s"'))


def _drop_one(expr, at):
    """The token texts of `expr` with one of them left out, e.g. a `)`."""
    texts = tokenize(expr).texts
    del texts[at % len(texts)]
    return texts


@settings(max_examples=500, deadline=None)
@given(tokens=st.one_of(_EXPR.map(lambda expr: tokenize(expr).texts),
                        st.builds(_drop_one, _EXPR, st.integers(0, 40)),
                        st.lists(_RAW_TOKEN, max_size=12)))
def test_eval_const_expr_matches_closure_oracle(tokens):
    assert eval_const_expr(tokens, _PARAMS) == closure_eval_const_expr(tokens, _PARAMS)


def test_each_distinct_range_is_evaluated_once_per_module(monkeypatch):
    calls = []
    original = assetscout.design._range_width

    def counting(range_expr, params):
        key = tuple(tuple(texts) for texts in range_expr)
        calls.append((params["W"], key))
        return original(range_expr, params)
    monkeypatch.setattr(assetscout.design, "_range_width", counting)
    ports = ("input [W-1:0] a, input [W-1:0] b, input [7:0] c,"
             " output [W - 1 : 0] d, output [7:0] e")
    unit = parse_source(
        f"module m8 #(parameter W = 8) ({ports});\n  wire [W-1:0] n;\nendmodule\n"
        f"module m16 #(parameter W = 16) ({ports});\nendmodule\n")
    assert calls == []  # the parser evaluates no range
    build_database([unit])
    wide = (("W", "-", "1"), ("0",))
    assert sorted(calls) == sorted([(8, wide), (8, (("7",), ("0",))),
                                    (16, wide), (16, (("7",), ("0",)))])
    for mod, w in zip(unit.modules, (8, 16)):
        assert [s.width_bits for s in mod.ports + mod.nets] == \
            [w, w, 8, w, 8] + ([w] if w == 8 else [])


_DEEP = 5000
_DEEP_ALWAYS = ("module deep (input clk, input [127:0] key_in,"
                " output reg [127:0] data_out);\nalways @(posedge clk)\n")
_DEEP_ASSIGN = "output [127:0] data_out);\nassign data_out = key_in;\nendmodule\n"
# each module nests 5,000 levels deep; the width of its key_in
_DEEP_MODULES = {
    "begin": (_DEEP_ALWAYS + "begin " * _DEEP + "data_out <= key_in;" + " end" * _DEEP
              + "\nendmodule\n", 128),
    "if": (_DEEP_ALWAYS + "if (key_in) " * _DEEP + "data_out <= key_in;\nendmodule\n",
           128),
    "case": (_DEEP_ALWAYS + "case (key_in) 1: " * _DEEP + "data_out <= key_in;"
             + " endcase" * _DEEP + "\nendmodule\n", 128),
    "event": (_DEEP_ALWAYS + "@(key_in) " * _DEEP + "data_out <= key_in;\nendmodule\n",
              128),
    # an even number of unary minuses, each before a parenthesis: 7
    "range": ("module deep (input [" + "-(" * _DEEP + "7" + ")" * _DEEP + ":0] key_in, "
              + _DEEP_ASSIGN, 8),
    # declared in reverse order of resolution: P0 = P1 + 1, ..., P5000 = 0
    "parameters": ("module deep #(parameter "
                   + ", ".join(f"P{k} = P{k + 1} + 1" for k in range(_DEEP))
                   + f", P{_DEEP} = 0) (input [P0-1:0] key_in, " + _DEEP_ASSIGN, _DEEP),
}
_SIBLING = ("module sib (input [127:0] key_in, output [127:0] data_out);\n"
            "  assign data_out = key_in;\nendmodule\n")


@pytest.mark.parametrize("kind", sorted(_DEEP_MODULES))
def test_deep_nesting_parses_without_diagnostic(kind, tmp_path):
    deep, width = _DEEP_MODULES[kind]
    unit = parse_source(deep + _SIBLING)
    assert [m.name for m in unit.modules] == ["deep", "sib"]
    assert unit.diagnostics == []
    assert build_database([unit]).signal(("deep", "key_in")).width_bits == width
    (tmp_path / "deep.v").write_text(deep + _SIBLING)
    out = tmp_path / "report.json"
    assert main(["--rtl-dir", str(tmp_path), "--out", str(out)]) == EXIT_OK
    report = json.loads(out.read_text())
    assert report["top_modules"] == ["deep", "sib"]
    assert {a["module"] for a in report["assets"]} == {"deep", "sib"}
    assert report["diagnostics"] == []


def _parse_peak_bytes(text):
    tracemalloc.start()
    try:
        parse_source(text)
        return tracemalloc.get_traced_memory()[1]
    finally:
        tracemalloc.stop()


def test_if_nest_memory_grows_linearly_with_depth():
    # open frames that each copied their outer guards held depth**2 / 2 names
    peaks = {depth: _parse_peak_bytes(_DEEP_ALWAYS + "if (key_in) " * depth
                                      + "data_out <= key_in;\nendmodule\n")
             for depth in (2000, 4000)}
    assert peaks[4000] <= 2.5 * peaks[2000], peaks


@pytest.mark.parametrize("leaf", ["x", ""])
def test_doubling_macro_chain_stops_at_the_expansion_cap(leaf):
    # each level doubles the text; an empty leaf doubles the work alone
    chain = "".join(f"`define M{k} `M{k + 1}`M{k + 1}\n" for k in range(30))
    start = time.perf_counter()
    unit = parse_source(chain + f"`define M30 {leaf}\n"
                        "module t (input a, output [7:0] b);\n"
                        "  wire [7:0] w = `M0;\n  assign b = w;\nendmodule\n")
    assert time.perf_counter() - start < 0.5
    assert [m.name for m in unit.modules] == ["t"]
    assert [(d.message, d.severity, d.line) for d in unit.diagnostics] == [
        (f"macro expansion passes {MAX_EXPANDED_LINE} characters;"
         " the rest of the line is dropped", "warning", 33)]


def test_module_keyword_at_end_of_file_is_a_diagnostic():
    unit = parse_source("module a (input x);\nendmodule\nmodule")
    assert [m.name for m in unit.modules] == ["a"]
    assert [(d.message, d.severity, d.line) for d in unit.diagnostics] == \
        [("malformed module: expected module name, got end of file", "error", 3)]


@pytest.mark.parametrize("connections", [".", ".a(x), ."])
def test_named_connection_dot_without_port_name_is_a_diagnostic(connections):
    unit = parse_source(f"module t (input a);\n sub u({connections});\nendmodule\n"
                        "module s (input b);\nendmodule\n")
    assert [m.name for m in unit.modules] == ["s"]
    assert [(d.message, d.severity, d.line) for d in unit.diagnostics] == [
        ("malformed module: expected port name, got ')'", "error", 2)]


def test_case_keyword_cut_at_end_of_file_is_a_diagnostic():
    unit = parse_source("module a (input x);\nendmodule\nmodule m;\nalways unique")
    assert [m.name for m in unit.modules] == ["a"]
    assert [(d.message, d.severity, d.line) for d in unit.diagnostics] == [
        ("malformed module: expected '(', got end of file", "error", 4)]


def test_systemverilog_integer_types_declare_nets():
    # IEEE 1800-2017 6.11: int 32, byte 8, shortint 16 and longint 64 bits
    mod = build_db("""
        module t (input clk);
          int count;
          byte b, c;
          shortint s = 3;
          longint unsigned l;
          time t0;
        endmodule
    """).modules_by_name["t"]
    # IEEE 1364-2005 4.8: time is 64 bits
    assert [(n.name, n.width_bits) for n in mod.nets] == [
        ("count", 32), ("b", 8), ("c", 8), ("s", 16), ("l", 64), ("t0", 64)]
    assert [(s.lhs_idents, s.continuous) for s in mod.statements] == [(["s"], True)]


_SOUP = ["module", "macromodule", "endmodule", "m", "(", ")", "[", "]", ":", ",",
         ";", "=", "<=", "#", "@", "*", "?", "input", "output", "wire", "reg",
         "parameter", "begin", "end", "if", "else", "case", "endcase", "default",
         "always", "assign", "generate", "W", "-", "1", "8'hFF", "a", "q", "u0",
         ".", ".*", "localparam", "inout", "integer", "signed", "unique", "int",
         "byte", "and", "buf", "bufif1", "nmos", "strong0"]


@settings(max_examples=300, deadline=None)
@given(words=st.lists(st.sampled_from(_SOUP), max_size=40))
def test_token_soup_never_raises(words):
    parse_source(" ".join(words))


def test_timing_controls_name_no_signal():
    # IEEE 1364-2005 9.7: `@` or `#` controls by one token or one group
    mod = parse_source("""
        module m (input clk, input d, output reg q, output reg r);
          always @clk q = d;
          always @* r = @(posedge clk) d;
        endmodule
    """).modules[0]
    assert [(s.lhs_idents, s.rhs_idents) for s in mod.statements] == [
        (["q"], ["d"]), (["r"], ["d"])]


@pytest.mark.parametrize("keyword, what", [("input", "port"), ("wire", "net")])
def test_range_running_to_end_of_file_is_unterminated(keyword, what):
    # the range takes the `;`, so the declaration never reaches its end
    unit = parse_source(f"module m;\n{keyword} [ ;")
    assert [(d.message, d.line) for d in unit.diagnostics] == [
        (f"malformed module: unterminated {what} declaration", 2)]


@pytest.mark.parametrize("item, what", [
    ("wire w", "net declaration"), ("input y", "port declaration"),
    ("parameter P = 1", "parameter declaration"),
    ("assign w = x", "continuous assignment"), ("always @* w = x", "statement"),
    ("genvar i", "genvar declaration"),
    ("sub u (.p(x), y", "instance connections")])
def test_declaration_without_its_semicolon_spares_the_next_module(item, what):
    unit = parse_source(f"module a(input x);\n  {item}\nendmodule\n"
                        "module b(input y, output z);\n  assign z = y;\nendmodule\n")
    assert [(m.name, [(s.lhs_idents, s.rhs_idents) for s in m.statements])
            for m in unit.modules] == [("b", [(["z"], ["y"])])]
    assert [(d.message, d.line) for d in unit.diagnostics] == [
        (f"malformed module: unterminated {what}", 2)]


_MODULE_B = "module b(input y, output z); assign z = y; endmodule\n"


@pytest.mark.parametrize("item, warning", [
    ("pullup (x)", "unsupported primitive 'pullup'"),
    ("nmos n1 (a, b, c)", "unsupported primitive 'nmos'"),
    ("and (strong0, weak1) g (y, a, b)", "unsupported drive strength 'strong0'"),
    ("typedef_t foo", "no port list after 'typedef_t foo'"),
    ("sub\n  ;", "no instance name after 'sub'")])
def test_item_skipped_to_its_semicolon_spares_the_next_module(item, warning):
    # the skip to the missing `;` stops at `endmodule`; the warning is at
    # the item's line, not at the token the skip stopped on
    unit = parse_source(f"module a(input x);\n  {item}\nendmodule\n{_MODULE_B}")
    assert [(m.name, [(s.lhs_idents, s.rhs_idents) for s in m.statements])
            for m in unit.modules] == [("a", []), ("b", [(["z"], ["y"])])]
    assert [(d.message, d.severity, d.line) for d in unit.diagnostics] == [
        (f"{warning}, skipped to ';'", "warning", 2)]


def test_block_without_its_end_keyword_spares_the_next_module():
    unit = parse_source(f"module a(input x);\n  task t;\n{_MODULE_B}")
    assert [(m.name, [(s.lhs_idents, s.rhs_idents) for s in m.statements])
            for m in unit.modules] == [("b", [(["z"], ["y"])])]
    assert [(d.message, d.severity, d.line) for d in unit.diagnostics] == [
        ("unsupported construct 'task' skipped", "warning", 2),
        ("malformed module: missing endmodule", "error", 3)]


def test_skipped_block_with_unbalanced_brackets_runs_to_the_module_edge():
    # the skip counts brackets, so the unclosed `(` hides `endfunction`
    unit = parse_source("module a(input x, output w);\n  function f; f = (x; endfunction\n"
                        f"  assign w = x;\nendmodule\n{_MODULE_B}")
    assert [(m.name, [(s.lhs_idents, s.rhs_idents) for s in m.statements])
            for m in unit.modules] == [("a", []), ("b", [(["z"], ["y"])])]
    assert [(d.message, d.line) for d in unit.diagnostics] == [
        ("unsupported construct 'function' skipped", 2)]


_BODY_SOUP = [w for w in _SOUP if w not in ("module", "macromodule", "endmodule")]


@settings(max_examples=300, deadline=None)
@given(words=st.lists(st.sampled_from(_BODY_SOUP), max_size=40))
def test_no_scan_passes_a_module_edge(words):
    # on one line, so that `b` has the same lines as when it is parsed alone
    unit = parse_source(f"module a(input x); {' '.join(words)} endmodule {_MODULE_B}")
    assert unit.modules[-1:] == parse_source(_MODULE_B).modules


def test_statement_lhs_stops_at_its_semicolon():
    # a task call is no assignment: its arguments are not the next one's targets
    mod = parse_source("module m (input x, input c, output reg y);\n"
                       "  always @* begin foo(x); y = c; end\nendmodule\n").modules[0]
    assert [(s.kind, s.lhs_idents, s.rhs_idents) for s in mod.statements] == [
        (BLOCKING_ASSIGN, ["y"], ["c"])]


def test_continuous_assign_without_equals_is_skipped_with_a_warning():
    unit = parse_source("module m (input c, output w, output y);\n"
                        "  assign w;\n  assign y = c;\nendmodule\n")
    assert [m.name for m in unit.modules] == ["m"]
    assert [(s.kind, s.lhs_idents, s.rhs_idents) for s in unit.modules[0].statements] == [
        (CONTINUOUS_ASSIGN, ["y"], ["c"])]
    assert [(d.message, d.severity, d.line) for d in unit.diagnostics] == [
        ("continuous assignment without '=' skipped", "warning", 2)]


# Declaration lists for the walker: each choice carries what it declares.
# Ranges and parameter values may use the header's `parameter P = 6`.
_DECL_RANGE = st.sampled_from([("", None), ("[7:0] ", 8), ("[0:0] ", 1),
                               ("[P-1:0] ", 6), ("[P*2:1] ", 12)])
_PARAM_VALUE = st.sampled_from([("", None), (" = 5", 5), (" = P + 1", 7),
                                (" = (P * 2)", 12), (" = {P, 2}", None)])
_PARAM_TYPE = st.sampled_from(["", "integer ", "signed ", "[7:0] "])
_HEADER_PARAM = st.tuples(st.sampled_from(["", "parameter ", "localparam "]),
                          _PARAM_TYPE, _PARAM_VALUE)
_BODY_PARAM = st.tuples(st.sampled_from(["parameter", "localparam"]), _PARAM_TYPE,
                        st.lists(_PARAM_VALUE, min_size=1, max_size=3))
# each name with its unpacked dimensions, which leave the packed range to the next name
_UNPACKED = st.sampled_from(["", " [0:3]", " [0:1][0:7]"])
_PORT_DECL = st.tuples(st.sampled_from(["input", "output", "inout"]),
                       st.sampled_from(["", "wire ", "reg ", "signed ", "reg signed "]),
                       _DECL_RANGE, st.lists(_UNPACKED, min_size=1, max_size=3))
_NET_DECL = st.tuples(
    st.sampled_from(["wire", "reg", "integer"]), st.sampled_from(["", "signed "]),
    _DECL_RANGE,
    st.lists(st.tuples(_UNPACKED,
                       st.sampled_from([("", None), (" = {x, y}", ["x", "y"]),
                                        (" = (x + 1)", ["x"])])),
             min_size=1, max_size=3))
_DIRECTION = {"input": "Input", "output": "Output", "inout": "Inout"}


@settings(max_examples=300, deadline=None)
# a direction keyword drops the range before it: a1 is one bit wide
@example(header_params=[], header_ports="ANSI",
         body=[("input", "", ("[7:0] ", 8), [""]), ("output", "", ("", None), [""])])
# an unpacked dimension is not the next name's range: a1 is 8 bits wide
@example(header_params=[], header_ports="ANSI",
         body=[("input", "", ("[7:0] ", 8), [" [0:3]", ""])])
@example(header_params=[], header_ports="non-ANSI",
         body=[("input", "", ("[7:0] ", 8), [" [0:1]", ""])])
@given(header_params=st.lists(_HEADER_PARAM, max_size=3),
       body=st.lists(st.one_of(_BODY_PARAM, _PORT_DECL, _NET_DECL), max_size=8),
       header_ports=st.sampled_from(["", "non-ANSI", "ANSI"]))
def test_declaration_lists_parse_as_declared(header_params, body, header_ports):
    params = {"P": 6}
    ports, nets, assigns, lines, port_lines = [], [], [], [], []

    def param(value):
        name = f"Q{len(params)}"
        params[name] = value[1]
        return name + value[0]
    header = ", ".join(["parameter P = 6"] + [kw + typ + param(value)
                                              for kw, typ, value in header_params])
    for item in body:
        if item[0] in ("parameter", "localparam"):
            kw, typ, values = item
            lines.append(f"{kw} {typ}" + ", ".join(map(param, values)))
        elif item[0] in _DIRECTION:
            direction, typ, (rng, width), dims = item
            names = [f"a{len(ports) + k}" for k in range(len(dims))]
            ports += [(name, _DIRECTION[direction], width or 1) for name in names]
            port_lines.append(f"{direction} {typ}{rng}"
                              + ", ".join(map(str.__add__, names, dims)))
            if header_ports != "ANSI":
                lines.append(port_lines[-1])
        else:
            kw, sign, (rng, width), declarators = item
            default = 32 if kw == "integer" else 1
            names = []
            for dims, (init, rhs) in declarators:
                name = f"n{len(nets)}"
                nets.append((name, width if rng else default))
                if rhs is not None:
                    assigns.append((CONTINUOUS_ASSIGN, [name], rhs))
                names.append(name + dims + init)
            lines.append(f"{kw} {sign}{rng}" + ", ".join(names))
    if not ports or not header_ports:
        head = ""
    elif header_ports == "ANSI":  # the same declarations, moved to the header
        head = "(" + ", ".join(port_lines) + ")"
    else:  # non-ANSI: the header fixes the port order
        ports.reverse()
        head = "(" + ", ".join(name for name, _d, _w in ports) + ")"
    unit = parse_source(f"module m #({header}) {head};\n"
                        + "".join(f"  {line};\n" for line in lines) + "endmodule\n")
    assert unit.diagnostics == []
    # the parser sets no width: build_database does
    assert {d.width_bits for mod in unit.modules for d in mod.ports + mod.nets} <= {None}
    mod = build_database([unit]).modules_by_name["m"]
    assert [(p.name, p.direction, p.width_bits) for p in mod.ports] == ports
    assert [(n.name, n.width_bits) for n in mod.nets] == nets
    assert _resolve_parameters(mod.parameters) == params
    assert [(s.kind, s.lhs_idents, s.rhs_idents) for s in mod.statements] == assigns


_GATE_CELL = """module gated (input [1:0] key_in, input start, input en,
                  output key_out, output done, output valid);
  {item}
endmodule
module top (input [1:0] key, input go, input en, output k, output d, output v);
  gated u (.key_in(key), .start(go), .en(en), .key_out(k), .done(d), .valid(v));
endmodule
"""


@pytest.mark.parametrize("gate, assign", [
    ("and g1 (key_out, key_in, start);", "assign key_out = key_in & start;"),
    ("nor #2 g2 [1:0] (done, key_in, start), (valid, start, en);",
     "assign done = ~(key_in | start), valid = ~(start | en);"),
    ("buf (done, valid, key_in);", "assign {done, valid} = {2{key_in}};"),
    ("not #(1, 2) n1 (done, key_in[0]);", "assign done = ~key_in[0];"),
    ("bufif1 b1 (valid, key_in, en);", "assign valid = key_in & en;"),
    ("notif0 (key_out, start, en), n2 (done, key_in, en);",
     "assign key_out = ~start & en, done = ~key_in & en;"),
    ("and #3 (key_out, key_in, start);", "assign key_out = key_in & start;"),
    ("xor #(1, 2) (valid, start, en), (done, en, key_in);",
     "assign valid = start ^ en, done = en ^ key_in;"),
    ("xnor x0 [3:0] (valid, start, en), x1 [1:0] (done, en, key_in);",
     "assign valid = ~(start ^ en), done = ~(en ^ key_in);"),
    # an empty terminal keeps its slot, so the outputs end where they should
    ("buf (done, valid, );", "assign {done, valid} = 2'b0;"),
])
def test_gate_primitive_is_its_continuous_assign(gate, assign, tmp_path):
    # IEEE 1364-2005 7.1: the outputs are driven by the other terminals
    reports = []
    for name, item in (("gate", gate), ("assign", assign)):
        (tmp_path / name).mkdir()
        (tmp_path / name / "cell.v").write_text(_GATE_CELL.format(item=item))
        reports.append(run_pipeline(str(tmp_path / name)))
    gates, assigns = reports
    assert gates.diagnostics == []
    assert build_db(_GATE_CELL.format(item=gate)).modules_by_name["gated"].statements == \
        build_db(_GATE_CELL.format(item=assign)).modules_by_name["gated"].statements
    for fmt in ("json", "csv", "text"):
        assert gates.render(fmt) == assigns.render(fmt)


@pytest.mark.parametrize("item, name", [
    ("nmos n1 (key_out, key_in, en);", "primitive 'nmos'"),
    ("pullup (done);", "primitive 'pullup'"),
    ("and (strong0, weak1) g1 (key_out, key_in, start);", "drive strength 'strong0'"),
])
def test_unsupported_primitive_warns_by_name_and_skips(item, name):
    mod = parse_source(_GATE_CELL.format(item=item + " assign done = start;")).modules[0]
    assert [(s.lhs_idents, s.rhs_idents) for s in mod.statements] == [
        (["done"], ["start"])]
    assert [d.message for d in parse_source(_GATE_CELL.format(item=item)).diagnostics] \
        == [f"unsupported {name}, skipped to ';'"]


@pytest.mark.parametrize("keyword", ["unique", "priority"])
def test_unique_and_priority_if_keep_their_module(keyword, tmp_path):
    # IEEE 1800-2017 12.4.2: `unique if` and `priority if` are if statements
    (tmp_path / "m.v").write_text(
        "module m (input clk, input start, input [127:0] key_in,\n"
        "          output reg [127:0] key_out);\n"
        f"  always @(posedge clk)\n    {keyword} if (start) key_out <= key_in;\n"
        "    else key_out <= 128'd0;\nendmodule\n")
    report = run_pipeline(str(tmp_path))
    assert report.diagnostics == []
    assert {a.name: a.patterns for a in report.assets} == {
        "start": ["Control"], "key_in": ["Data"], "key_out": ["Data"]}
