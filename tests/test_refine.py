"""Root tracing, deduplication, and status-to-control linkage."""

import pytest
from hypothesis import HealthCheck, example, given, settings
from hypothesis import strategies as st

from assetscout.design import (
    ConnEdge, DesignError, adjacency, build_connectivity, build_database,
    find_top_modules,
)
from assetscout.keywords import load_family_config
from assetscout.matcher import match_elements
from assetscout.patterns import classify_design
import assetscout.refine
from assetscout.refine import (
    _NET_EXPANSION_VIAS, _PORT_SEARCH_VIAS, MAX_BFS_DEPTH, PrimaryAsset,
    _bfs_paths, _is_clock_reset, link_status_to_control, refine,
    traversal_edges,
)
from assetscout.report import run_pipeline
from assetscout.rules import CandidateAsset, apply_family_rules

from conftest import CORPUS_FAMILIES, MINI_CORPUS, SPLITTER_DIR, build_db, parse_tree
from fixtures_rtl import (
    AB_SOURCE, NET_EXPANSION_SOURCE, SECONDARY_NET_SOURCE, STATUS_LINK_SOURCE,
)


def stage_outputs(db, family, top):
    config = load_family_config(family)
    edges = traversal_edges(build_connectivity(db))
    important = match_elements(db, config)
    behaviors = classify_design(db)
    candidates = apply_family_rules(important, behaviors, config)
    return candidates, edges, refine(candidates, db, edges, [top])


def candidate_for(db, module, name, patterns):
    decl = db.signal((module, name))
    return CandidateAsset(module=module, signal=decl, matched_rule="test",
                          patterns=list(patterns), objectives=["Integrity"],
                          matched_groups=[])


def test_case1_top_port_roots_at_itself():
    report = run_pipeline(SPLITTER_DIR)
    load = next(a for a in report.assets if a.name == "load")
    assert load.module == "data_splitter"
    assert load.trace_path == []


def test_case2_child_port_traced_one_hop():
    db = build_db(AB_SOURCE)
    edges = traversal_edges(build_connectivity(db))
    cand = candidate_for(db, "child_a", "din", ["Data"])
    assets = refine([cand], db, edges, ["top_b"])
    assert [(a.module, a.name) for a in assets] == [("top_b", "top_in")]
    assert len(assets[0].trace_path) == 1


def test_case3_net_expands_then_traces():
    db = build_db(NET_EXPANSION_SOURCE)
    edges = traversal_edges(build_connectivity(db))
    cand = candidate_for(db, "leaf", "key_mix", ["Data"])
    assets = refine([cand], db, edges, ["wrap"])
    roots = {(a.module, a.name) for a in assets}
    assert roots == {("wrap", "secret_in"), ("wrap", "secret_out")}
    for asset in assets:
        assert len(asset.trace_path) == 2  # net -> leaf port -> wrap port


def test_secondary_net_is_dropped():
    db = build_db(SECONDARY_NET_SOURCE)
    edges = traversal_edges(build_connectivity(db))
    cand = candidate_for(db, "deep", "key_buf", ["Data"])
    assert refine([cand], db, edges, ["roof"]) == []


def test_outside_top_tree_candidate_is_flagged():
    source = SECONDARY_NET_SOURCE + """
module stray (
    input  [7:0] key_word,
    output [7:0] copy
);
  assign copy = key_word;
endmodule
"""
    db = build_db(source)
    edges = traversal_edges(build_connectivity(db))
    cand = candidate_for(db, "stray", "key_word", ["Data"])
    assets = refine([cand], db, edges, ["roof"])
    assert [(a.module, a.name) for a in assets] == [("stray", "key_word")]
    assert assets[0].outside_top_tree


def test_splitter_dedup_merges_done_contributors():
    report = run_pipeline(SPLITTER_DIR)
    done = next(a for a in report.assets if a.name == "done")
    contributor_names = {c.signal.name for c in done.contributors}
    assert {"done0", "done1", "done2", "done3", "done"} <= contributor_names
    refs = [(a.module, a.name) for a in report.assets]
    assert len(refs) == len(set(refs))


def test_unknown_top_is_an_error():
    db = build_db(AB_SOURCE)
    with pytest.raises(DesignError):
        refine([], db, [], ["nope"])


def test_refine_is_idempotent():
    db = build_database(parse_tree(MINI_CORPUS))
    for ip, family in CORPUS_FAMILIES.items():
        top = {"toy_cipher": "cipher_top", "gpio_block": "gpio_top",
               "uart_lite": "uart_top"}[ip]
        candidates, edges, assets = stage_outputs(db, family, top)
        again = refine(
            [candidate_for(db, a.module, a.name, a.patterns) for a in assets],
            db, edges, [top])
        assert {(a.module, a.name) for a in again} == \
            {(a.module, a.name) for a in assets}


def test_trace_paths_are_connected(splitter_db):
    db = build_database(parse_tree(MINI_CORPUS))
    for ip, family in CORPUS_FAMILIES.items():
        top = {"toy_cipher": "cipher_top", "gpio_block": "gpio_top",
               "uart_lite": "uart_top"}[ip]
        _cands, _edges, assets = stage_outputs(db, family, top)
        for asset in assets:
            path = asset.trace_path
            for prev, nxt in zip(path, path[1:]):
                assert {prev.src, prev.dst} & {nxt.src, nxt.dst}
            if path:
                assert asset.ref in (path[-1].src, path[-1].dst)


def test_clock_reset_never_roots():
    db = build_database(parse_tree(MINI_CORPUS))
    from assetscout.keywords import CLOCK_RESET_NAMES
    for ip, family in CORPUS_FAMILIES.items():
        top = {"toy_cipher": "cipher_top", "gpio_block": "gpio_top",
               "uart_lite": "uart_top"}[ip]
        _cands, _edges, assets = stage_outputs(db, family, top)
        for asset in assets:
            assert asset.name.lower() not in CLOCK_RESET_NAMES


def test_status_linked_to_foreign_control_gains_availability():
    db = build_db(STATUS_LINK_SOURCE)
    edges = traversal_edges(build_connectivity(db))
    decl = db.signal(("worker", "done"))
    asset = PrimaryAsset(module="worker", name="done",
                         direction=decl.direction, width_bits=decl.width_bits,
                         patterns=["Status"], objectives=["Integrity"])
    linked = link_status_to_control([asset], edges, classify_design(db))
    assert "Availability" in linked[0].objectives


def test_status_without_consumer_keeps_integrity_only():
    db = build_db("""
        module solo (input clk, input go, output reg done);
          always @(posedge clk) begin
            done <= go;
          end
        endmodule
    """)
    edges = traversal_edges(build_connectivity(db))
    decl = db.signal(("solo", "done"))
    asset = PrimaryAsset(module="solo", name="done",
                         direction=decl.direction, width_bits=decl.width_bits,
                         patterns=["Status"], objectives=[])
    linked = link_status_to_control([asset], edges, classify_design(db))
    assert "Integrity" in linked[0].objectives
    assert "Availability" not in linked[0].objectives


def test_link_ignores_non_status_assets():
    db = build_db(STATUS_LINK_SOURCE)
    edges = traversal_edges(build_connectivity(db))
    asset = PrimaryAsset(module="boss", name="go_in", direction="Input",
                         width_bits=1, patterns=["Control"],
                         objectives=["Availability"])
    linked = link_status_to_control([asset], edges, classify_design(db))
    assert linked[0].objectives == ["Availability"]


def test_refine_all_tops_equals_one_top_at_a_time():
    db = build_database(parse_tree(MINI_CORPUS))
    tops = find_top_modules(db, None)
    assert len(tops) == 3
    config = load_family_config("crypto")
    edges = traversal_edges(build_connectivity(db))
    candidates = apply_family_rules(match_elements(db, config),
                                    classify_design(db), config)
    per_top = []
    for top in tops:
        one = refine(candidates, db, edges, [top])
        assert {a.top for a in one} <= {top}
        per_top.extend(one)
    assert refine(candidates, db, edges, tops) == per_top
    assert refine(candidates, db, edges, []) == []


def copying_bfs_paths(start, adj, accept, max_depth=MAX_BFS_DEPTH):
    """Oracle: the BFS that copies `path + [edge]` for every visited node."""
    if accept(start):
        return [(start, [])]
    visited = {start}
    frontier = [(start, [])]
    depth = 0
    while frontier and depth < max_depth:
        depth += 1
        next_frontier = []
        hits = []
        for node, path in frontier:
            for neighbor, edge in adj.get(node, []):
                if neighbor in visited:
                    continue
                visited.add(neighbor)
                new_path = path + [edge]
                if accept(neighbor):
                    hits.append((neighbor, new_path))
                else:
                    next_frontier.append((neighbor, new_path))
        if hits:
            return sorted(hits, key=lambda h: h[0])
        frontier = next_frontier
    return []


_NODE = st.builds(lambda m, s: (m, s), st.sampled_from("ab"), st.sampled_from("pqrs"))


@settings(max_examples=400, deadline=None)
@example(edges=[ConnEdge(("a", "p"), ("a", "s"), "x"),  # hits found unsorted
                ConnEdge(("a", "p"), ("a", "r"), "x")],
         accepted={("a", "r"), ("a", "s")}, start=("a", "p"), max_depth=2)
@example(edges=[ConnEdge(("a", "p"), ("a", "q"), "x"),  # a two-edge path
                ConnEdge(("a", "q"), ("b", "p"), "y")],
         accepted={("b", "p")}, start=("a", "p"), max_depth=2)
@given(edges=st.lists(st.builds(ConnEdge, _NODE, _NODE, st.sampled_from("xy")),
                      max_size=24),
       accepted=st.sets(_NODE), start=_NODE,
       max_depth=st.integers(min_value=0, max_value=5))
def test_parent_pointer_bfs_matches_path_copying_oracle(edges, accepted, start,
                                                        max_depth):
    adj = adjacency(edges)
    assert _bfs_paths(start, adj, accepted.__contains__, max_depth) == \
        copying_bfs_paths(start, adj, accepted.__contains__, max_depth)


_NAMED_NODE = st.tuples(st.sampled_from("ab"),
                        st.sampled_from(["clk", "CLK", "rst_n", "Reset", "d",
                                         "clk_en", "q"]))


@settings(max_examples=300, deadline=None)
@given(edges=st.lists(st.builds(ConnEdge, _NAMED_NODE, _NAMED_NODE,
                                st.sampled_from("xy")), max_size=16))
def test_traversal_edges_drop_every_clock_reset_end(edges):
    assert traversal_edges(edges) == [
        e for e in edges if not _is_clock_reset(e.src) and not _is_clock_reset(e.dst)]


def unpruned_refine(candidates, db, edges, tops):
    """Oracle: `refine` with a port search for every start under every top."""
    for top in tops:
        if top not in db.modules_by_name:
            raise DesignError(f"top module '{top}' not found")
    port_adj = adjacency(edges, _PORT_SEARCH_VIAS)
    net_adj = adjacency(edges, _NET_EXPANSION_VIAS)

    def is_port(ref):
        decl = db.signal(ref)
        return decl is not None and decl.is_port and not _is_clock_reset(ref)

    starts = []
    for candidate in candidates:
        ref = (candidate.module, candidate.signal.name)
        ports = ([(ref, [])] if candidate.signal.is_port
                 else _bfs_paths(ref, net_adj, is_port))
        starts.append((candidate, ref, ports))

    out = []
    for top in tops:
        top_tree = db.modules_under(top)
        merged = {}

        def is_top_io(ref):
            return ref[0] == top and is_port(ref)

        def emit(root, candidate, path, outside=False):
            decl = db.signal(root)
            asset = merged.get(root)
            if asset is None:
                asset = PrimaryAsset(
                    module=root[0], name=root[1],
                    direction=decl.direction, width_bits=decl.width_bits,
                    trace_path=list(path), outside_top_tree=outside, top=top)
                merged[root] = asset
            if candidate not in asset.contributors:
                asset.contributors.append(candidate)
            for p in candidate.patterns:
                if p not in asset.patterns:
                    asset.patterns.append(p)
            for o in candidate.objectives:
                if o not in asset.objectives:
                    asset.objectives.append(o)
            if path and (not asset.trace_path or len(path) < len(asset.trace_path)):
                asset.trace_path = list(path)

        for candidate, ref, ports in starts:
            if not ports and ref[0] not in top_tree:
                emit(ref, candidate, [], outside=True)
            for port, prefix in ports:
                hits = _bfs_paths(port, port_adj, is_top_io)
                for root, path in hits:
                    emit(root, candidate, prefix + path)
                if not hits and port[0] not in top_tree:
                    emit(port, candidate, prefix, outside=True)

        out.extend(sorted(merged.values(), key=lambda a: a.ref))
    for asset in out:
        asset.patterns.sort()
        asset.objectives.sort()
        asset.contributors.sort(key=lambda c: c.ref)
    return out


_PORT_NAMES = ["key", "data", "cfg", "done", "clk", "rst_n"]
_NET_NAMES = ["key_q", "data_q", "clk_g"]


@st.composite
def _forests(draw):
    """Verilog for 2-4 instantiation trees of 2-3 modules each."""
    text = []
    for t in range(draw(st.integers(min_value=2, max_value=4))):
        size = draw(st.integers(min_value=2, max_value=3))
        signals = {}
        for k in range(size):
            ports = draw(st.lists(st.sampled_from(_PORT_NAMES), min_size=1,
                                  max_size=4, unique=True))
            nets = draw(st.lists(st.sampled_from(_NET_NAMES), max_size=2,
                                 unique=True))
            signals[k] = (ports, nets)
        for k in range(size):
            ports, nets = signals[k]
            own = ports + nets
            dirs = draw(st.lists(st.sampled_from(["input", "output"]),
                                 min_size=len(ports), max_size=len(ports)))
            body = [f"module t{t}_m{k} ("
                    + ", ".join(f"{d} [7:0] {p}" for d, p in zip(dirs, ports))
                    + ");"]
            body += [f"  wire [7:0] {n};" for n in nets]
            for lhs, rhs, kind in draw(st.lists(st.tuples(
                    st.sampled_from(own), st.sampled_from(own),
                    st.sampled_from(["assign", "always @(*)"])), max_size=3)):
                body.append(f"  {kind} {lhs} = {rhs};")
            for child in range(k + 1, size):
                if child == k + 1 or draw(st.booleans()):
                    conns = [f".{p}({draw(st.sampled_from(own))})"
                             for p in signals[child][0] if draw(st.booleans())]
                    body.append(f"  t{t}_m{child} u{child} ({', '.join(conns)});")
            text.append("\n".join(body + ["endmodule", ""]))
    return "\n".join(text)


@settings(max_examples=150, deadline=None,
          suppress_health_check=[HealthCheck.too_slow])
@given(source=_forests(), data=st.data())
def test_component_pruned_refine_matches_unpruned_oracle(source, data):
    db = build_db(source)
    edges = traversal_edges(build_connectivity(db))
    all_refs = sorted((m, d.name) for m, mod in db.modules_by_name.items()
                      for d in mod.signals())
    refs = data.draw(st.lists(st.sampled_from(all_refs), unique=True, max_size=8))
    candidates = [candidate_for(db, module, name, data.draw(st.lists(
        st.sampled_from(["Data", "Control", "Status"]), max_size=2, unique=True)))
        for module, name in refs]
    assert len(db.top_modules) >= 2
    for tops in [db.top_modules] + [[top] for top in db.top_modules]:
        assert refine(candidates, db, edges, tops) == \
            unpruned_refine(candidates, db, edges, tops)


def test_port_search_skips_components_without_top_ports(monkeypatch):
    db = build_database(parse_tree(MINI_CORPUS))
    tops = find_top_modules(db, None)
    config = load_family_config("crypto")
    edges = traversal_edges(build_connectivity(db))
    candidates = apply_family_rules(match_elements(db, config),
                                    classify_design(db), config)
    # undirected flood fill over the edges a port search may follow
    usable = [e for e in edges if e.via in _PORT_SEARCH_VIAS
              and not _is_clock_reset(e.src) and not _is_clock_reset(e.dst)]

    def component(start):
        seen, stack = {start}, [start]
        while stack:
            node = stack.pop()
            for e in usable:
                for a, b in ((e.src, e.dst), (e.dst, e.src)):
                    if a == node and b not in seen:
                        seen.add(b)
                        stack.append(b)
        return seen

    top_ports = {t: [(t, s.name) for s in db.module(t).ports] for t in tops}
    searches = []
    original = assetscout.refine._bfs_paths

    def counting(start, adj, accept, *args):
        # a port search accepts the ports of exactly one top
        under = [t for t in tops if any(map(accept, top_ports[t]))]
        if len(under) == 1:
            searches.append((under[0], start))
        return original(start, adj, accept, *args)
    monkeypatch.setattr(assetscout.refine, "_bfs_paths", counting)
    assert refine(candidates, db, edges, tops) == \
        unpruned_refine(candidates, db, edges, tops)
    assert searches
    for top, start in searches:
        assert component(start) & set(top_ports[top]), (top, start)
