"""Design database assembly, top detection, widths, and connectivity graph."""

import ast
import json
import os
import time

import pytest
from hypothesis import example, given, settings
from hypothesis import strategies as st

import assetscout.design
from assetscout.cli import EXIT_OK, main
from assetscout.design import (
    MAX_CONST_BITS, VIA_CONTINUOUS, VIA_INSTANTIATION, DesignError,
    _number_value, _resolve_parameters, build_connectivity, build_database,
    eval_const_expr, find_top_modules,
)
from assetscout.parser import parse_source
from assetscout.syntax import WILDCARD
from assetscout.tokenizer import tokenize

from conftest import MINI_CORPUS, SPLITTER_DIR, build_db, parse_tree
from connectivity_oracle import connectivity_edges, traversal_graph
from fixtures_rtl import AB_SOURCE


def links(graph):
    """(src, dst, via) of each entry of `graph`, in graph order."""
    return [(src, dst, via) for src, steps in graph.items() for dst, via in steps]


def test_splitter_database(splitter_db):
    assert list(splitter_db.modules_by_name) == ["data_splitter"]
    assert splitter_db.top_modules == ["data_splitter"]
    assert splitter_db.signal_count == 14


def test_ab_parents_and_top():
    db = build_db(AB_SOURCE)
    # child_a's one parent is top_b: it lies under top_b and is no top itself
    assert db.modules_under("top_b") == {"top_b", "child_a"}
    assert db.top_modules == ["top_b"]


def test_empty_design_is_an_error():
    with pytest.raises(DesignError, match="empty design"):
        build_database([])
    with pytest.raises(DesignError, match="empty design"):
        build_database([parse_source("// comments only\n")])


def test_duplicate_module_last_wins():
    unit_a = parse_source("module dup (input a);\nendmodule\n", "a.v")
    unit_b = parse_source("module dup (input a, input b);\nendmodule\n", "b.v")
    db = build_database([unit_a, unit_b])
    assert len(db.modules_by_name["dup"].ports) == 2
    assert any("dup" in d.message for d in db.diagnostics)


def test_find_top_modules_user_override():
    db = build_db(AB_SOURCE)
    assert find_top_modules(db, "child_a") == ["child_a"]
    assert find_top_modules(db, None) == ["top_b"]
    with pytest.raises(DesignError) as err:
        find_top_modules(db, "missing")
    assert "child_a" in str(err.value) and "top_b" in str(err.value)


def test_signal_index_is_complete():
    db = build_db(AB_SOURCE)
    expected = set()
    for mod in db.modules_by_name.values():
        for decl in mod.ports + mod.nets:
            expected.add((mod.name, decl.name))
            assert db.signal((mod.name, decl.name)) is mod.signal(decl.name)
    assert db.signal_count == len(expected)


def test_instantiation_connection_edges():
    db = build_db("""
        module child (input [3:0] din);
        endmodule
        module parent (input [3:0] bus);
          child u0 (.din(bus));
        endmodule
    """)
    pairs = {(src, dst) for src, dst, via in links(build_connectivity(db))
             if via == VIA_INSTANTIATION}
    assert (("parent", "bus"), ("child", "din")) in pairs
    assert (("child", "din"), ("parent", "bus")) in pairs


def test_empty_ordered_connection_keeps_its_slot():
    # IEEE 1364-2005 12.3: `u(p, , q)` leaves b open and connects q to x
    db = build_db("""
        module c (input a, input b, input x);
        endmodule
        module t (input p, input q);
          c u (p, , q);
        endmodule
    """)
    assert sorted((src, dst) for src, dst, _via in links(build_connectivity(db))
                  if src[0] == "t") == [
        (("t", "p"), ("c", "a")), (("t", "q"), ("c", "x"))]
    assert not db.diagnostics


def test_continuous_assign_edges():
    db = build_db("""
        module m (input a, input b, output y);
          assign y = a & b;
        endmodule
    """)
    pairs = {(src[1], dst[1]) for src, dst, via in links(build_connectivity(db))
             if via == VIA_CONTINUOUS}
    assert {("a", "y"), ("y", "a"), ("b", "y"), ("y", "b")} <= pairs


def test_empty_body_has_no_edges():
    db = build_db("module m (input a, output y);\nendmodule\n")
    assert build_connectivity(db) == {}


def test_unknown_formal_port_is_diagnosed():
    db = build_db("""
        module child (input din);
        endmodule
        module parent (input x);
          child u0 (.nope(x));
        endmodule
    """)
    graph = build_connectivity(db)
    assert ("child", "nope") not in graph
    assert not any(dst == ("child", "nope") for _src, dst, _via in links(graph))
    assert any("nope" in d.message for d in db.diagnostics)


WILDCARD_SOURCE = """
    module sub (input a, output b, input only_sub);
    endmodule
    module top (input a, input x, output b);
      sub u (.*);
      sub v (. *);
      sub w (.a(x), .*);
    endmodule
"""


def test_wildcard_connection_forms_are_one_connection():
    mod = parse_source(WILDCARD_SOURCE).modules[1]
    assert [inst.connections for inst in mod.instantiations] == [
        [(WILDCARD, [])], [(WILDCARD, [])], [("a", ["x"]), (WILDCARD, [])]]


def test_wildcard_connects_same_named_ports():
    db = build_db(WILDCARD_SOURCE)
    graph = build_connectivity(db)
    edges = sorted((src, dst) for src, dst, _via in links(graph) if src[0] == "top")
    # u and v connect a and b by name; w names a itself and leaves b to .*;
    # only_sub has no parent signal of its name
    assert edges == sorted(
        [(("top", "a"), ("sub", "a"))] * 2 + [(("top", "b"), ("sub", "b"))] * 3
        + [(("top", "x"), ("sub", "a"))])
    assert all(via == VIA_INSTANTIATION for _src, _dst, via in links(graph))
    assert not db.diagnostics


def net_adjacency(graph):
    """node -> the neighbours it reaches over instantiation and continuous
    links, in graph order."""
    adj = {}
    for src, dst, via in links(graph):
        if via in {VIA_INSTANTIATION, VIA_CONTINUOUS}:
            adj.setdefault(src, []).append(dst)
    return adj


def test_ab_child_input_one_hop_from_top_port():
    db = build_db(AB_SOURCE)
    adj = net_adjacency(build_connectivity(db))
    neighbors = set(adj[("top_b", "top_in")])
    assert ("child_a", "din") in neighbors


def test_connectivity_is_symmetric_reachability():
    units = parse_tree(MINI_CORPUS)
    db = build_database(units)
    adj = net_adjacency(build_connectivity(db))

    def reach(start):
        seen = {start}
        frontier = [start]
        while frontier:
            node = frontier.pop()
            for nxt in adj.get(node, []):
                if nxt not in seen:
                    seen.add(nxt)
                    frontier.append(nxt)
        return seen

    some_nodes = sorted(adj)[:25]
    for a in some_nodes:
        for b in reach(a):
            assert a in reach(b)


def test_modules_under_top():
    units = parse_tree(MINI_CORPUS)
    db = build_database(units)
    tree = db.modules_under("uart_top")
    assert {"uart_top", "uart_tx", "uart_rx", "uart_fifo", "uart_filter"} <= tree
    assert "cipher_top" not in tree


DIAGNOSED_SOURCE = """
    module c (input a, input b, input clk);
    endmodule
    module t (input p, input q, input clk, input Rst_N, output y);
      c u0 (p, q, clk, y);
      c u1 (.a(p), .nope(q), .b(ghost), .clk(clk));
      c u2 (.*);
      assign y = p & ghost & Rst_N;
      always @(posedge clk) if (Rst_N) undeclared <= q;
    endmodule
"""


@pytest.mark.parametrize("case", ["diagnosed", "data_splitter", "mini_corpus",
                                  "hier_soc", "ip_library", "wide_regfile"])
def test_graph_equals_the_folded_edge_list_oracle(case, seed1_workload):
    if case == "diagnosed":
        units = [parse_source(DIAGNOSED_SOURCE, "diagnosed.v")]
    elif case in ("data_splitter", "mini_corpus"):
        units = parse_tree(SPLITTER_DIR if case == "data_splitter" else MINI_CORPUS)
    else:
        units = seed1_workload(case)[1]
    db, oracle_db = build_database(units), build_database(units)
    graph = build_connectivity(db)
    expected = traversal_graph(connectivity_edges(oracle_db))
    assert list(graph) == list(expected)
    assert list(graph.items()) == list(expected.items())
    assert db.diagnostics == oracle_db.diagnostics
    if case == "diagnosed":
        assert [d.message for d in db.diagnostics] == [
            "positional connection 3 out of range for 'c'",
            "connection to unknown port 'c.nope'",
            "5 connectivity endpoints did not resolve to declared signals "
            "and were skipped"]


def test_build_connectivity_makes_no_edge_records(seed1_workload, monkeypatch):
    made = []
    monkeypatch.setattr(assetscout.design, "ConnEdge", lambda *args: made.append(args))
    graph = build_connectivity(build_database(seed1_workload("hier_soc")[1]))
    assert len(graph) > 1000
    assert made == []


def test_the_parser_keeps_texts_and_build_database_sets_widths():
    unit = parse_source("module m #(parameter W = 8) (input [W-1:0] a, input b);\n"
                        "  localparam HALF = W / 2;\n  wire [HALF:1] n;\n  integer i;\n"
                        "endmodule\n")
    mod = unit.modules[0]
    assert mod.parameters == {"W": ["8"], "HALF": ["W", "/", "2"]}
    # the data type `integer` implies its range, [31:0]
    assert [(d.name, d.width_bits, d.range_expr) for d in mod.ports + mod.nets] == [
        ("a", None, (["W", "-", "1"], ["0"])), ("b", None, None),
        ("n", None, (["HALF"], ["1"])), ("i", None, (["31"], ["0"]))]
    build_database([unit])
    assert [(d.name, d.width_bits) for d in mod.ports + mod.nets] == [
        ("a", 8), ("b", 1), ("n", 4), ("i", 32)]


def test_constants_stop_at_the_bound():
    top = 2 ** MAX_CONST_BITS - 1
    assert _number_value("'h" + "f" * (MAX_CONST_BITS // 4)) == top
    assert _number_value("'h1" + "0" * (MAX_CONST_BITS // 4)) is None
    assert _number_value(str(top)) == top
    assert _number_value("0" * 5000 + "7") == 7  # leading zeros add no bits
    assert _number_value("1" * 5000) is None
    assert _number_value("1e400") is None
    assert _number_value("128'h0123456789abcdef0123456789abcdef") == \
        0x0123456789abcdef0123456789abcdef
    assert eval_const_expr(tokenize(f"-{top}").texts, {}) == -top
    assert eval_const_expr(tokenize(f"{top} + 1").texts, {}) is None
    # the intermediate result is past the bound, though the whole is not
    assert eval_const_expr(tokenize(f"{top} * 2 / 4").texts, {}) is None
    db = build_db(f"module m (input [{top}:0] a, input [{top}:1] b);\nendmodule\n")
    assert [p.width_bits for p in db.modules_by_name["m"].ports] == [None, top]


def _product_chain(levels):
    """A header whose parameters each multiply the one before eight times."""
    params = ["P0 = 1000000000000"] + [
        f"P{k} = " + "*".join([f"P{k - 1}"] * 8) for k in range(1, levels + 1)]
    return f"#(parameter {', '.join(params)}) (input [P{levels}:0] key_in"


@pytest.mark.parametrize("header", [
    "(input [" + "1" * 5000 + ":0] key_in",  # past CPython's 4,300-digit limit
    _product_chain(3),  # a 2,560-bit msb
    _product_chain(7),  # a 2.6-million-bit msb, unless the bound stops it
], ids=["long_literal", "chain3", "chain7"])
def test_cli_reads_a_constant_past_the_bound_as_unresolved(tmp_path, capsys, header):
    (tmp_path / "m.v").write_text(f"module m {header}, output [7:0] data_out);\n"
                                  "  assign data_out = key_in;\nendmodule\n")
    out = tmp_path / "report.json"
    start = time.perf_counter()
    assert main(["--rtl-dir", str(tmp_path), "--out", str(out)]) == EXIT_OK
    assert time.perf_counter() - start < 1.0
    assert "Traceback" not in capsys.readouterr().err
    assets = json.loads(out.read_text())["assets"]
    assert {a["name"]: a["width_bits"] for a in assets} == {"key_in": None, "data_out": 8}


# operands that reach the bound: digit runs past it and past CPython's
# 4,300-digit string limit, based and real literals, and the parameters
_WIDE_OPERAND = st.one_of(
    st.integers(1, 5000).map(lambda n: "9" * n),
    st.tuples(st.sampled_from(["'h", "128'h", "'sd", "'b", "'o"]),
              st.integers(1, 400)).map(lambda t: t[0] + "1" * t[1]),
    st.sampled_from(["0", "7", "1000000000000", "1e400", "2.5", "8'hFF"]),
    st.sampled_from(["P0", "P1", "P2", "P3"]),
)
_WIDE_EXPR = st.recursive(
    _WIDE_OPERAND,
    lambda children: st.one_of(
        st.tuples(children, st.sampled_from(["+", "-", "*", "/"]), children).map(" ".join),
        children.map(lambda e: f"({e})"), children.map(lambda e: f"-{e}")),
    max_leaves=8)


@settings(max_examples=200, deadline=None)
@example(params=["1" * 5000], msb="P0", lsb="0")
@example(params=["1e400"], msb="7", lsb="0")
@example(params=["1000000000000"] + [" * ".join([f"P{k}"] * 8) for k in range(3)],
         msb="P3", lsb="0")
@given(params=st.lists(_WIDE_EXPR, min_size=1, max_size=4), msb=_WIDE_EXPR, lsb=_WIDE_EXPR)
def test_widths_never_raise_and_stay_within_the_bound(params, msb, lsb):
    header = ", ".join(f"P{k} = {value}" for k, value in enumerate(params))
    mod = build_db(f"module m #(parameter {header}) (input [{msb}:{lsb}] key_in);\n"
                   "endmodule\n").modules_by_name["m"]
    for value in _resolve_parameters(mod.parameters).values():
        assert value is None or value.bit_length() <= MAX_CONST_BITS
    width = mod.signal("key_in").width_bits
    assert width is None or 1 <= width <= 2 ** MAX_CONST_BITS


def test_a_data_type_sizes_ports_and_nets_through_build_database():
    # IEEE 1364-2005 4.8 and IEEE 1800-2017 6.11: the type implies the range
    db = build_db("module t(input integer k, output int c, output byte b, output time tm,\n"
                  "         output reg [3:0] r, int m);\nendmodule\n"
                  "module n(k2, c2);\n  input integer k2;\n  output int c2;\n"
                  "  shortint s;\n  longint l;\nendmodule\n"
                  "module g(input logic [7:0] a, logic b, input integer [7:0] e);\nendmodule\n")
    assert [(d.name, d.width_bits) for d in db.modules_by_name["t"].ports] == [
        ("k", 32), ("c", 32), ("b", 8), ("tm", 64), ("r", 4), ("m", 32)]
    n = db.modules_by_name["n"]
    assert [(d.name, d.width_bits) for d in n.ports + n.nets] == [
        ("k2", 32), ("c2", 32), ("s", 16), ("l", 64)]
    # a type without a range of its own leaves one bit; an explicit range wins
    assert [(d.name, d.width_bits) for d in db.modules_by_name["g"].ports] == [
        ("a", 8), ("b", 1), ("e", 8)]


def _width_writes(tree):
    """The function of each store to a `width_bits` attribute, constructors
    left out."""
    return [func.name for func in ast.walk(tree)
            if isinstance(func, ast.FunctionDef) and func.name != "__init__"
            for node in ast.walk(func)
            if isinstance(node, ast.Attribute) and node.attr == "width_bits"
            and isinstance(node.ctx, ast.Store)]


def test_only_build_database_sets_a_width():
    package = os.path.dirname(os.path.abspath(assetscout.design.__file__))
    writers = {}
    for name in sorted(os.listdir(package)):
        if name.endswith(".py"):
            path = os.path.join(package, name)
            with open(path, encoding="utf-8") as fh:
                writes = _width_writes(ast.parse(fh.read(), path))
            if writes:
                writers[name] = writes
    assert writers == {"design.py": ["build_database"]}


def test_constants_evaluate_as_ieee_1364_defines():
    # 5.1.5: integer division truncates toward zero
    assert [eval_const_expr(tokenize(e).texts, {}) for e in
            ("-7/2", "7/-2", "-7/-2", "7/2", "-1/2", "- 7 + 2")] == [-3, -3, 3, 3, 0, -5]
    # 4.8.2: a real rounds to the nearest integer, ties away from zero
    assert [_number_value(r) for r in ("2.5", "2.4999", "0.5", "3.0", "1_0.5")] == \
        [3, 2, 1, 3, 11]
    db = build_db("module m(input [-7/2:0] a, input [2.5:0] b);\nendmodule\n")
    assert [p.width_bits for p in db.modules_by_name["m"].ports] == [4, 4]
