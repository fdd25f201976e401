"""Root tracing, deduplication, and status-to-control linkage."""

import copy

import pytest
from hypothesis import HealthCheck, example, given, settings
from hypothesis import strategies as st

from assetscout.design import (
    ConnEdge, DesignError, build_connectivity, build_database, find_top_modules,
)
from assetscout.keywords import CLOCK_RESET_NAMES, load_family_config
from assetscout.matcher import match_elements
from assetscout.patterns import classify_design
import assetscout.refine
import assetscout.report
from assetscout.refine import (
    _PORT_SEARCH_VIAS, MAX_BFS_DEPTH, PrimaryAsset, _bfs_paths,
    link_status_to_control, refine, traversal_graph,
)
from assetscout.report import AssetReport, run_pipeline
from assetscout.rules import CandidateAsset, apply_family_rules

from conftest import (
    CORPUS_FAMILIES, MINI_CORPUS, SPLITTER_DIR, bench_gen, build_db, parse_tree,
)
from fixtures_rtl import (
    AB_SOURCE, NET_EXPANSION_SOURCE, SECONDARY_NET_SOURCE, STATUS_LINK_SOURCE,
)


def stage_outputs(db, family, top):
    config = load_family_config(family)
    graph = traversal_graph(build_connectivity(db))
    important = match_elements(db, config)
    behaviors = classify_design(db)
    candidates = apply_family_rules(important, behaviors, config)
    return candidates, graph, refine(candidates, db, graph, [top])


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
    graph = traversal_graph(build_connectivity(db))
    cand = candidate_for(db, "child_a", "din", ["Data"])
    assets = refine([cand], db, graph, ["top_b"])
    assert [(a.module, a.name) for a in assets] == [("top_b", "top_in")]
    assert len(assets[0].trace_path) == 1


def test_case3_net_expands_then_traces():
    db = build_db(NET_EXPANSION_SOURCE)
    graph = traversal_graph(build_connectivity(db))
    cand = candidate_for(db, "leaf", "key_mix", ["Data"])
    assets = refine([cand], db, graph, ["wrap"])
    roots = {(a.module, a.name) for a in assets}
    assert roots == {("wrap", "secret_in"), ("wrap", "secret_out")}
    for asset in assets:
        assert len(asset.trace_path) == 2  # net -> leaf port -> wrap port


def test_secondary_net_is_dropped():
    db = build_db(SECONDARY_NET_SOURCE)
    graph = traversal_graph(build_connectivity(db))
    cand = candidate_for(db, "deep", "key_buf", ["Data"])
    assert refine([cand], db, graph, ["roof"]) == []


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
    graph = traversal_graph(build_connectivity(db))
    cand = candidate_for(db, "stray", "key_word", ["Data"])
    assets = refine([cand], db, graph, ["roof"])
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
        candidates, graph, assets = stage_outputs(db, family, top)
        again = refine(
            [candidate_for(db, a.module, a.name, a.patterns) for a in assets],
            db, graph, [top])
        assert {(a.module, a.name) for a in again} == \
            {(a.module, a.name) for a in assets}


def test_trace_paths_are_connected(splitter_db):
    db = build_database(parse_tree(MINI_CORPUS))
    for ip, family in CORPUS_FAMILIES.items():
        top = {"toy_cipher": "cipher_top", "gpio_block": "gpio_top",
               "uart_lite": "uart_top"}[ip]
        _cands, _graph, assets = stage_outputs(db, family, top)
        for asset in assets:
            path = asset.trace_path
            for prev, nxt in zip(path, path[1:]):
                assert {prev.src, prev.dst} & {nxt.src, nxt.dst}
            if path:
                assert asset.ref in (path[-1].src, path[-1].dst)


def test_clock_reset_never_roots():
    db = build_database(parse_tree(MINI_CORPUS))
    for ip, family in CORPUS_FAMILIES.items():
        top = {"toy_cipher": "cipher_top", "gpio_block": "gpio_top",
               "uart_lite": "uart_top"}[ip]
        _cands, _graph, assets = stage_outputs(db, family, top)
        for asset in assets:
            assert asset.name.lower() not in CLOCK_RESET_NAMES


def test_status_linked_to_foreign_control_gains_availability():
    db = build_db(STATUS_LINK_SOURCE)
    graph = traversal_graph(build_connectivity(db))
    decl = db.signal(("worker", "done"))
    asset = PrimaryAsset(module="worker", name="done",
                         direction=decl.direction, width_bits=decl.width_bits,
                         patterns=["Status"], objectives=["Integrity"])
    linked = link_status_to_control([asset], graph, classify_design(db))
    assert "Availability" in linked[0].objectives


def test_status_without_consumer_keeps_integrity_only():
    db = build_db("""
        module solo (input clk, input go, output reg done);
          always @(posedge clk) begin
            done <= go;
          end
        endmodule
    """)
    graph = traversal_graph(build_connectivity(db))
    decl = db.signal(("solo", "done"))
    asset = PrimaryAsset(module="solo", name="done",
                         direction=decl.direction, width_bits=decl.width_bits,
                         patterns=["Status"], objectives=[])
    linked = link_status_to_control([asset], graph, classify_design(db))
    assert "Integrity" in linked[0].objectives
    assert "Availability" not in linked[0].objectives


def test_link_ignores_non_status_assets():
    db = build_db(STATUS_LINK_SOURCE)
    graph = traversal_graph(build_connectivity(db))
    asset = PrimaryAsset(module="boss", name="go_in", direction="Input",
                         width_bits=1, patterns=["Control"],
                         objectives=["Availability"])
    linked = link_status_to_control([asset], graph, classify_design(db))
    assert linked[0].objectives == ["Availability"]


def count_calls(monkeypatch, module, name, counts):
    """Count the calls of `module.name` in `counts[name]`."""
    original = getattr(module, name)

    def counting(*args, **kwargs):
        counts[name] = counts.get(name, 0) + 1
        return original(*args, **kwargs)
    monkeypatch.setattr(module, name, counting)


def test_link_on_shared_lists_equals_link_on_independent_copies(monkeypatch):
    db = build_db(STATUS_LINK_SOURCE)
    graph = traversal_graph(build_connectivity(db))
    behaviors = classify_design(db)
    done = db.signal(("worker", "done"))
    go = db.signal(("boss", "go_in"))
    base = [PrimaryAsset(module="worker", name="done", direction=done.direction,
                         width_bits=done.width_bits, patterns=["Status"],
                         objectives=["Integrity"], outside_top_tree=True),
            PrimaryAsset(module="boss", name="go_in", direction=go.direction,
                         width_bits=go.width_bits, patterns=["Status"])]
    # copies under three tops, which share their lists as refine makes them
    shared = [PrimaryAsset(**{**vars(a), "top": top})
              for a in base for top in ("t0", "t1", "t2")]
    independent = copy.deepcopy(shared)
    counts = {}
    count_calls(monkeypatch, assetscout.refine, "_bfs_paths", counts)
    linked = link_status_to_control(shared, graph, behaviors)
    assert counts["_bfs_paths"] == 2  # one per distinct Status ref
    assert [a.objectives for a in linked] == \
        [a.objectives for a in link_status_to_control(independent, graph, behaviors)]
    assert [a.objectives for a in linked] == \
        [["Availability", "Integrity"]] * 3 + [["Integrity"]] * 3


def test_cross_top_copies_are_searched_linked_and_rendered_once(tmp_path,
                                                                monkeypatch):
    # seed-1 ip_library: 11 tops, and most assets are outside_top_tree
    # copies of another tree's candidates
    manifest = bench_gen().generate("ip_library", 1, str(tmp_path))
    args = manifest["args"]
    db = build_database(parse_tree(manifest["rtl_dir"]))
    config = load_family_config(args[args.index("--family") + 1])
    graph = traversal_graph(build_connectivity(db))
    behaviors = classify_design(db)
    candidates = apply_family_rules(match_elements(db, config), behaviors, config)
    tops = find_top_modules(db, None)
    counts = {}
    count_calls(monkeypatch, assetscout.refine, "_bfs_paths", counts)
    count_calls(monkeypatch, assetscout.report, "_asset_json", counts)
    assets = refine(candidates, db, graph, tops)
    searches = counts.pop("_bfs_paths")
    link_status_to_control(assets, graph, behaviors)
    AssetReport("", "", tops, {}, {}, assets, []).render("json")
    status_refs = {a.ref for a in assets if "Status" in a.patterns}
    assert len(tops) == 11 and len(assets) > 9000
    assert searches <= 1000  # 9,801 with a search per copy
    assert counts["_bfs_paths"] == len(status_refs) > 0  # 2,429: one per asset
    assert counts["_asset_json"] <= 1600  # 9,256: one per asset


def test_refine_all_tops_equals_one_top_at_a_time():
    db = build_database(parse_tree(MINI_CORPUS))
    tops = find_top_modules(db, None)
    assert len(tops) == 3
    config = load_family_config("crypto")
    graph = traversal_graph(build_connectivity(db))
    candidates = apply_family_rules(match_elements(db, config),
                                    classify_design(db), config)
    per_top = []
    for top in tops:
        one = refine(candidates, db, graph, [top])
        assert {a.top for a in one} <= {top}
        per_top.extend(one)
    assert refine(candidates, db, graph, tops) == per_top
    assert refine(candidates, db, graph, []) == []


def _is_clock_reset(ref):
    return ref[1].lower() in CLOCK_RESET_NAMES


def traversal_edges(edges):
    """Oracle: the edges of `edges` with no clock/reset end, each signal
    name tested once."""
    names = {e.src[1] for e in edges} | {e.dst[1] for e in edges}
    excluded = {name for name in names if name.lower() in CLOCK_RESET_NAMES}
    return [e for e in edges
            if e.src[1] not in excluded and e.dst[1] not in excluded]


def adjacency(edges, vias=None):
    """Oracle: node -> [(neighbour, edge)] of the edges from it, in edge
    order, optionally restricted to edge kinds."""
    adj = {}
    for edge in edges:
        if vias is None or edge.via in vias:
            adj.setdefault(edge.src, []).append((edge.dst, edge))
    return adj


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
         accepted={("a", "r"), ("a", "s")}, start=("a", "p"), max_depth=2,
         via=None)
@example(edges=[ConnEdge(("a", "p"), ("a", "q"), "x"),  # a two-edge path
                ConnEdge(("a", "q"), ("b", "p"), "y")],
         accepted={("b", "p")}, start=("a", "p"), max_depth=2, via=None)
@example(edges=[ConnEdge(("a", "p"), ("b", "p"), "y"),  # the x-only detour
                ConnEdge(("a", "p"), ("a", "q"), "x"),
                ConnEdge(("a", "q"), ("b", "p"), "x")],
         accepted={("b", "p")}, start=("a", "p"), max_depth=2, via="x")
@given(edges=st.lists(st.builds(ConnEdge, _NODE, _NODE, st.sampled_from("xy")),
                      max_size=24),
       accepted=st.sets(_NODE), start=_NODE,
       max_depth=st.integers(min_value=0, max_value=5),
       via=st.sampled_from([None, "x"]))
def test_parent_pointer_bfs_matches_path_copying_oracle(edges, accepted, start,
                                                        max_depth, via):
    assert _bfs_paths(start, traversal_graph(edges), accepted.__contains__,
                      max_depth, via) == \
        copying_bfs_paths(start, adjacency(edges, via and {via}),
                          accepted.__contains__, max_depth)


_NAMED_NODE = st.tuples(st.sampled_from("ab"),
                        st.sampled_from(["clk", "CLK", "rst_n", "Reset", "d",
                                         "clk_en", "q"]))


@settings(max_examples=300, deadline=None)
@given(edges=st.lists(st.builds(ConnEdge, _NAMED_NODE, _NAMED_NODE,
                                st.sampled_from("xy")), max_size=16))
def test_traversal_edges_drop_every_clock_reset_end(edges):
    assert traversal_edges(edges) == [
        e for e in edges if not _is_clock_reset(e.src) and not _is_clock_reset(e.dst)]


@settings(max_examples=300, deadline=None)
@given(edges=st.lists(st.builds(ConnEdge, _NAMED_NODE, _NAMED_NODE,
                                st.sampled_from("xy")), max_size=16))
def test_traversal_graph_is_adjacency_of_traversal_edges(edges):
    assert list(traversal_graph(edges).items()) == [
        (node, [(e.dst, e.via) for _neighbor, e in steps])
        for node, steps in adjacency(traversal_edges(edges)).items()]


def test_graph_holds_one_tuple_per_signal_and_one_entry_per_link(tmp_path):
    # seed-1 hier_soc: a neighbour is its signal's key, not a tuple per link
    manifest = bench_gen().generate("hier_soc", 1, str(tmp_path))
    edges = build_connectivity(build_database(parse_tree(manifest["rtl_dir"])))
    graph = traversal_graph(edges)
    key = {node: node for node in graph}
    assert len(graph) > 1000
    assert all(neighbor is key[neighbor]
               for steps in graph.values() for neighbor, _via in steps)
    assert sum(map(len, graph.values())) == len(traversal_edges(edges))


def unpruned_refine(candidates, db, edges, tops):
    """Oracle: `refine` with a port search for every start under every top,
    each a path-copying BFS over the `adjacency` of `build_connectivity`'s
    `edges`."""
    for top in tops:
        if top not in db.modules_by_name:
            raise DesignError(f"top module '{top}' not found")
    edges = traversal_edges(edges)
    port_adj = adjacency(edges, _PORT_SEARCH_VIAS)
    net_adj = adjacency(edges)  # nets expand through every kind of edge

    def is_port(ref):
        decl = db.signal(ref)
        return decl is not None and decl.is_port and not _is_clock_reset(ref)

    starts = []
    for candidate in candidates:
        ref = (candidate.module, candidate.signal.name)
        ports = ([(ref, [])] if candidate.signal.is_port
                 else copying_bfs_paths(ref, net_adj, is_port))
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
                hits = copying_bfs_paths(port, port_adj, is_top_io)
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
    """Verilog for 2-4 instantiation trees of 2-3 modules each. A module may
    also instantiate a non-root module of an earlier tree, so trees share
    subtrees: every root stays a root and no instantiation cycle forms."""
    text = []
    shared = []  # (name, ports) of the non-root modules of earlier trees
    for t in range(draw(st.integers(min_value=2, max_value=4))):
        size = draw(st.integers(min_value=2, max_value=3))
        signals = {}
        for k in range(size):
            ports = draw(st.lists(st.sampled_from(_PORT_NAMES), min_size=1,
                                  max_size=4, unique=True))
            nets = draw(st.lists(st.sampled_from(_NET_NAMES), max_size=2,
                                 unique=True))
            signals[k] = (ports, nets)
        earlier = list(shared)
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
            children = [(f"t{t}_m{child}", signals[child][0])
                        for child in range(k + 1, size)
                        if child == k + 1 or draw(st.booleans())]
            if earlier and draw(st.booleans()):
                children.append(draw(st.sampled_from(earlier)))
            for u, (child, child_ports) in enumerate(children):
                conns = [f".{p}({draw(st.sampled_from(own))})"
                         for p in child_ports if draw(st.booleans())]
                body.append(f"  {child} u{u} ({', '.join(conns)});")
            text.append("\n".join(body + ["endmodule", ""]))
        shared += [(f"t{t}_m{k}", signals[k][0]) for k in range(1, size)]
    return "\n".join(text)


def _drawn_candidates(db, data):
    all_refs = sorted((m, d.name) for m, mod in db.modules_by_name.items()
                      for d in mod.signals())
    refs = data.draw(st.lists(st.sampled_from(all_refs), unique=True, max_size=8))
    return [candidate_for(db, module, name, data.draw(st.lists(
        st.sampled_from(["Data", "Control", "Status"]), max_size=2, unique=True)))
        for module, name in refs]


@settings(max_examples=150, deadline=None,
          suppress_health_check=[HealthCheck.too_slow])
@given(source=_forests(), data=st.data())
def test_guided_refine_matches_unpruned_oracle(source, data):
    db = build_db(source)
    edges = build_connectivity(db)
    graph = traversal_graph(edges)
    candidates = _drawn_candidates(db, data)
    assert len(db.top_modules) >= 2
    for tops in [db.top_modules] + [[top] for top in db.top_modules]:
        assert refine(candidates, db, graph, tops) == \
            unpruned_refine(candidates, db, edges, tops)


SHARED_CHILD_SOURCE = """
module shared (input [7:0] key_in, output [7:0] key_out);
  assign key_out = key_in;
endmodule
module top_a (input [7:0] key_a, input [7:0] key_spare, output [7:0] out_a);
  shared u (.key_in(key_a), .key_out(out_a));
endmodule
module top_b (input [7:0] key_b, output [7:0] out_b);
  shared u (.key_in(key_b), .key_out(out_b));
endmodule
"""


def test_port_of_one_top_reaching_another_tops_io_is_no_copy():
    # shared.key_in roots under both tops. top_a's ports lie outside
    # top_b's tree: key_a reaches top_b.key_b through the shared child, so
    # it gets no outside_top_tree copy under top_b; key_spare reaches
    # nothing there, so it does
    db = build_db(SHARED_CHILD_SOURCE)
    edges = build_connectivity(db)
    candidates = [candidate_for(db, "shared", "key_in", ["Data"]),
                  candidate_for(db, "top_a", "key_a", ["Data"]),
                  candidate_for(db, "top_a", "key_spare", ["Data"])]
    tops = ["top_a", "top_b"]
    assets = refine(candidates, db, traversal_graph(edges), tops)
    key_in, key_a, key_spare = [c.ref for c in candidates]
    assert [(a.top, a.module, a.name, a.outside_top_tree,
             [c.ref for c in a.contributors]) for a in assets] == [
        ("top_a", "top_a", "key_a", False, [key_in, key_a]),
        ("top_a", "top_a", "key_spare", False, [key_spare]),
        ("top_b", "top_a", "key_spare", True, [key_spare]),
        ("top_b", "top_b", "key_b", False, [key_in, key_a]),
    ]
    assert assets == unpruned_refine(candidates, db, edges, tops)


class ExpansionLog:
    """An adjacency map that records each node a search expands."""

    def __init__(self, adj, expanded):
        self.adj, self.expanded = adj, expanded

    def get(self, node, default=None):
        self.expanded.append(node)
        return self.adj.get(node, default)


def port_searches(candidates, db, graph, tops):
    """[(start, nodes expanded, tops whose I/O it accepts)] of each port
    search `refine` runs. Port searches start at ports, net expansions at
    nets; a port search accepts the I/O of its own top alone."""
    searches = []
    original = assetscout.refine._bfs_paths

    def logging(start, adj, accept, *args):
        expanded = []
        if db.signal(start).is_port:
            under = [top for top in tops
                     if any(accept((top, s.name)) for s in db.module(top).ports)]
            searches.append((start, expanded, under))
        return original(start, ExpansionLog(adj, expanded), accept, *args)
    with pytest.MonkeyPatch.context() as patch:
        patch.setattr(assetscout.refine, "_bfs_paths", logging)
        refine(candidates, db, graph, tops)
    return searches


def hop_counts(adj, sources):
    """Plain BFS: node -> hops from the nearest of `sources`."""
    dist = dict.fromkeys(sources, 0)
    frontier = list(dist)
    while frontier:
        next_frontier = []
        for node in frontier:
            for neighbor, _edge in adj.get(node, []):
                if neighbor not in dist:
                    dist[neighbor] = dist[node] + 1
                    next_frontier.append(neighbor)
        frontier = next_frontier
    return dist


def assert_port_searches_walk_shortest_paths(candidates, db, edges, tops):
    port_adj = adjacency(traversal_edges(edges), _PORT_SEARCH_VIAS)
    to_top = {top: hop_counts(port_adj, [
        (top, s.name) for s in db.module(top).ports
        if not _is_clock_reset((top, s.name))]) for top in tops}
    searches = port_searches(candidates, db, traversal_graph(edges), tops)
    for start, expanded, under in searches:
        assert len(under) <= 1
        dist = to_top[under[0]] if under else {}
        if start not in dist:
            assert set(expanded) <= {start}, start
            continue
        from_start = hop_counts(port_adj, [start])
        for node in expanded:
            assert from_start[node] + dist[node] == dist[start], (start, node)
    return searches


def test_port_searches_walk_shortest_paths_on_mini_corpus():
    db = build_database(parse_tree(MINI_CORPUS))
    tops = find_top_modules(db, None)
    config = load_family_config("crypto")
    edges = build_connectivity(db)
    candidates = apply_family_rules(match_elements(db, config),
                                    classify_design(db), config)
    searches = assert_port_searches_walk_shortest_paths(candidates, db, edges, tops)
    assert {top for _start, _expanded, under in searches for top in under} == set(tops)


@settings(max_examples=100, deadline=None,
          suppress_health_check=[HealthCheck.too_slow])
@given(source=_forests(), data=st.data())
def test_port_searches_walk_shortest_paths_on_forests(source, data):
    db = build_db(source)
    edges = build_connectivity(db)
    assert_port_searches_walk_shortest_paths(
        _drawn_candidates(db, data), db, edges, db.top_modules)


def test_port_search_work_grows_as_modules_times_depth(tmp_path, monkeypatch):
    gen = bench_gen()
    expansions = {}
    for modules in (12, 48):
        monkeypatch.setitem(gen.WORKLOADS["hier_soc"], "modules_per_tree", modules)
        manifest = gen.generate("hier_soc", 1, str(tmp_path / str(modules)))
        args = manifest["args"]
        db = build_database(parse_tree(manifest["rtl_dir"]))
        config = load_family_config(args[args.index("--family") + 1])
        graph = traversal_graph(build_connectivity(db))
        candidates = apply_family_rules(match_elements(db, config),
                                        classify_design(db), config)
        tops = [args[args.index("--top") + 1]]
        expansions[modules] = sum(len(expanded) for _start, expanded, _under
                                  in port_searches(candidates, db, graph, tops))
    # Each search walks shortest paths up to the root's I/O, whose length
    # grows with the tree's depth: the work grows as modules x depth, here
    # within a 1.3 margin (6.8x from 12 to 48 modules). An unguided search
    # walks the tree from every port, so its work grows as modules**2 (17.9x).
    depth = {n: n.bit_length() - 1 for n in expansions}
    assert expansions[12] > 0
    assert expansions[48] <= 1.3 * (48 * depth[48]) / (12 * depth[12]) \
        * expansions[12], expansions
