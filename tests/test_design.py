"""Design database assembly, top detection, and connectivity graph."""

import pytest

from assetscout.design import (
    VIA_CONTINUOUS, VIA_INSTANTIATION, DesignError,
    build_connectivity, build_database, find_top_modules,
)
from assetscout.parser import parse_source
from assetscout.syntax import WILDCARD

from conftest import MINI_CORPUS, build_db, parse_tree
from fixtures_rtl import AB_SOURCE


def test_splitter_database(splitter_db):
    assert list(splitter_db.modules_by_name) == ["data_splitter"]
    assert splitter_db.top_modules == ["data_splitter"]
    assert splitter_db.signal_count == 14


def test_ab_parents_and_top():
    db = build_db(AB_SOURCE)
    assert db.instantiation_parents["child_a"] == {"top_b"}
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
    edges = build_connectivity(db)
    pairs = {(e.src, e.dst) for e in edges if e.via == VIA_INSTANTIATION}
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
    assert sorted((e.src, e.dst) for e in build_connectivity(db) if e.src[0] == "t") == [
        (("t", "p"), ("c", "a")), (("t", "q"), ("c", "x"))]
    assert not db.diagnostics


def test_continuous_assign_edges():
    db = build_db("""
        module m (input a, input b, output y);
          assign y = a & b;
        endmodule
    """)
    edges = build_connectivity(db)
    pairs = {(e.src[1], e.dst[1]) for e in edges if e.via == VIA_CONTINUOUS}
    assert {("a", "y"), ("y", "a"), ("b", "y"), ("y", "b")} <= pairs


def test_empty_body_has_no_edges():
    db = build_db("module m (input a, output y);\nendmodule\n")
    assert build_connectivity(db) == []


def test_unknown_formal_port_is_diagnosed():
    db = build_db("""
        module child (input din);
        endmodule
        module parent (input x);
          child u0 (.nope(x));
        endmodule
    """)
    edges = build_connectivity(db)
    assert not any(e.dst == ("child", "nope") for e in edges)
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
    edges = sorted((e.src, e.dst) for e in build_connectivity(db)
                   if e.src[0] == "top")
    # u and v connect a and b by name; w names a itself and leaves b to .*;
    # only_sub has no parent signal of its name
    assert edges == sorted(
        [(("top", "a"), ("sub", "a"))] * 2 + [(("top", "b"), ("sub", "b"))] * 3
        + [(("top", "x"), ("sub", "a"))])
    assert all(e.via == VIA_INSTANTIATION for e in build_connectivity(db))
    assert not db.diagnostics


def net_adjacency(edges):
    """node -> the neighbours it reaches over instantiation and continuous
    links, clock/reset included, in edge order."""
    adj = {}
    for edge in edges:
        if edge.via in {VIA_INSTANTIATION, VIA_CONTINUOUS}:
            adj.setdefault(edge.src, []).append(edge.dst)
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
