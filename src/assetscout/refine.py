"""Stage 5: trace candidates to their roots at TOP-module I/O and deduplicate.

Every search walks one graph, `build_connectivity(db)`, built once per run:
one shared tuple per signal, mapped to its (neighbour, link kind) pairs.
Case 1: a candidate that is already a top-module port roots at itself.
Case 2: a port of another module is traced through instantiation and
continuous-assignment links to a reachable top port; unreachable candidates
are dropped when their module sits inside the top's instantiation tree and
kept (flagged) when it does not. Cases 1-2 are one search, whose start may
already be accepted. One BFS from the top's I/O guides it: the search follows
only links one hop nearer to them, so it walks shortest paths alone, finds
what an unguided BFS finds, and ends at once where no such link leads.
Case 3: a net first expands through links of every kind to port signals,
once for all tops, then Cases 1-2 run on each discovered port.
Whether a port reaches a top's I/O depends on the port alone, so a flagged
asset is built once, from every contribution at its root, and each top that
keeps it gets a copy that shares its lists.
"""

from typing import Dict, List, Optional, Sequence, Tuple

from .design import VIA_CONTINUOUS, VIA_INSTANTIATION
from .design import ConnEdge, DesignDatabase, DesignError, Graph, SignalRef
from .keywords import AVAILABILITY, CLOCK_RESET_NAMES, INTEGRITY
from .patterns import CONTROL, STATUS, BehaviorClassification
from .rules import CandidateAsset
from .syntax import Record

_PORT_SEARCH_VIAS = {VIA_INSTANTIATION, VIA_CONTINUOUS}


class PrimaryAsset(Record):
    """A root signal and the candidates traced to it under `top`. The
    `outside_top_tree` copies of one asset under several tops share their
    lists."""
    _fields = ("module", "name", "direction", "width_bits", "contributors", "patterns",
               "objectives", "trace_path", "outside_top_tree", "top")

    def __init__(self, module: str, name: str, direction: str,
                 width_bits: Optional[int],
                 contributors: Optional[List[CandidateAsset]] = None,
                 patterns: Optional[List[str]] = None,
                 objectives: Optional[List[str]] = None,
                 trace_path: Optional[List[ConnEdge]] = None,
                 outside_top_tree: bool = False, top: str = "") -> None:
        self.module = module
        self.name = name
        self.direction = direction
        self.width_bits = width_bits
        self.contributors = [] if contributors is None else contributors
        self.patterns = [] if patterns is None else patterns
        self.objectives = [] if objectives is None else objectives
        self.trace_path = [] if trace_path is None else trace_path
        self.outside_top_tree = outside_top_tree
        self.top = top

    @property
    def ref(self) -> SignalRef:
        return (self.module, self.name)


def _bfs_paths(start: SignalRef,
               adj: Graph,
               accept,
               via: Optional[str] = None,
               ) -> List[Tuple[SignalRef, List[ConnEdge]]]:
    """All accepted nodes at the minimal BFS depth, with their paths, over
    the links of `adj` of kind `via`, or of every kind when it is None.

    Each reached node records the node and link kind it was first reached
    by; a path is walked back from these parent pointers only for the hits.
    Each node is visited once, so the search ends on any graph.
    """
    if accept(start):
        return [(start, [])]
    parent: Dict[SignalRef, Optional[Tuple[SignalRef, str]]] = {start: None}
    frontier = [start]
    while frontier:
        next_frontier: List[SignalRef] = []
        hits: List[SignalRef] = []
        for node in frontier:
            for neighbor, kind in adj.get(node, ()):
                if neighbor in parent or via is not None and kind != via:
                    continue
                parent[neighbor] = (node, kind)
                if accept(neighbor):
                    hits.append(neighbor)
                else:
                    next_frontier.append(neighbor)
        if hits:
            return [(hit, _path_to(hit, parent)) for hit in sorted(hits)]
        frontier = next_frontier
    return []


def _path_to(node: SignalRef, parent) -> List[ConnEdge]:
    path: List[ConnEdge] = []
    while parent[node] is not None:
        prev, via = parent[node]
        path.append(ConnEdge(prev, node, via))
        node = prev
    return path[::-1]


def _downhill(graph: Graph, sources: List[SignalRef]) -> Dict[SignalRef, tuple]:
    """Node -> its port-search links in `graph` one hop nearer to `sources`,
    for each node a multi-source BFS over those links reaches: the links
    from hop count d whose far end has hop count d - 1. `graph` holds each
    link both ways, so a node's hop count is its distance to the nearest
    source."""
    dist = dict.fromkeys(sources, 0)
    queue = list(dist)
    for node in queue:  # grows as it is read: BFS order
        for neighbor, via in graph.get(node, ()):
            if neighbor not in dist and via in _PORT_SEARCH_VIAS:
                dist[neighbor] = dist[node] + 1
                queue.append(neighbor)
    return {node: tuple(step for step in graph.get(node, ())
                        if step[1] in _PORT_SEARCH_VIAS
                        and dist.get(step[0]) == d - 1)
            for node, d in dist.items() if d}


def _emit(merged: Dict[SignalRef, PrimaryAsset], db: DesignDatabase,
          root: SignalRef, candidate: CandidateAsset, path: List[ConnEdge],
          top: str, outside: bool = False) -> None:
    """Add one contribution at `root` to `merged`, creating its asset."""
    asset = merged.get(root)
    if asset is None:
        decl = db.signal(root)
        asset = merged[root] = PrimaryAsset(
            module=root[0], name=root[1],
            direction=decl.direction, width_bits=decl.width_bits,
            trace_path=list(path), outside_top_tree=outside, top=top)
    asset.contributors.append(candidate)
    asset.patterns.extend(candidate.patterns)
    asset.objectives.extend(candidate.objectives)
    if path and (not asset.trace_path or len(path) < len(asset.trace_path)):
        asset.trace_path = list(path)


def _dedupe(asset: PrimaryAsset) -> None:
    """A candidate may reach one root through several ports."""
    asset.patterns = sorted(set(asset.patterns))
    asset.objectives = sorted(set(asset.objectives))
    unique = {c.ref: c for c in asset.contributors}
    asset.contributors = [unique[ref] for ref in sorted(unique)]


def refine(candidates: Sequence[CandidateAsset],
           db: DesignDatabase,
           graph: Graph,
           tops: Sequence[str]) -> List[PrimaryAsset]:
    """Trace every candidate to its roots under each top and merge duplicates.

    The assets come top by top in the order of `tops`, each top's sorted by
    signal. Net candidates are expanded to ports once, for all tops, over
    every link of `graph`, which is `build_connectivity(db)`; port searches
    follow its instantiation and continuous-assignment links.
    """
    trees = {}
    for top in tops:
        if top not in db.modules_by_name:
            raise DesignError(f"top module '{top}' not found")
        trees[top] = db.modules_under(top)
    port_names = {name: {s.name for s in mod.signals()
                         if s.is_port and s.name.lower() not in CLOCK_RESET_NAMES}
                  for name, mod in db.modules_by_name.items()}

    def is_port(ref: SignalRef) -> bool:
        return ref[1] in port_names.get(ref[0], ())

    # Case 3: a net expands to the port signals it reaches; a port is its
    # own single start with an empty prefix
    starts = []
    for candidate in candidates:
        ref = (candidate.module, candidate.signal.name)
        ports = ([(ref, [])] if candidate.signal.is_port
                 else _bfs_paths(ref, graph, is_port))
        starts.append((candidate, ref, ports))

    # A start whose module some tree does not hold is kept, flagged, under
    # each such top that does not reach it; which tops reach a port depends
    # on the port alone, so its asset gathers every contribution once
    everywhere = set(db.modules_by_name).intersection(*trees.values())
    outside: Dict[SignalRef, PrimaryAsset] = {}
    for candidate, ref, ports in starts:
        for root, prefix in ports or [(ref, [])]:
            if root[0] not in everywhere:
                _emit(outside, db, root, candidate, prefix, "", outside=True)
    for asset in outside.values():
        _dedupe(asset)
    outside = dict(sorted(outside.items()))  # one sorted run in each top's sort

    out: List[PrimaryAsset] = []
    for top in tops:
        merged: Dict[SignalRef, PrimaryAsset] = {}
        top_io = port_names[top]

        def is_top_io(ref: SignalRef) -> bool:
            return ref[0] == top and ref[1] in top_io

        top_adj = _downhill(graph, [(top, name) for name in sorted(top_io)])
        reached = set()
        for candidate, _ref, ports in starts:
            for port, prefix in ports:
                # Cases 1-2: the port itself or the top I/O it reaches
                # through instantiations and continuous assignments; a port
                # with no edge nearer to that I/O reaches none of it
                if port[0] != top and port not in top_adj:
                    continue
                for root, path in _bfs_paths(port, top_adj, is_top_io):
                    reached.add(port)
                    _emit(merged, db, root, candidate, prefix + path, top)
        for asset in merged.values():
            _dedupe(asset)
        # an unreached start outside the top tree gets a copy; inside it,
        # it is secondary and dropped
        tree = trees[top]
        for root, asset in outside.items():
            if root[0] not in tree and root not in reached:
                merged[root] = PrimaryAsset(  # the same lists: a copy
                    *root, asset.direction, asset.width_bits, asset.contributors,
                    asset.patterns, asset.objectives, asset.trace_path, True, top)
        out.extend(asset for _root, asset in sorted(merged.items()))
    return out


def link_status_to_control(assets: Sequence[PrimaryAsset],
                           graph: Graph,
                           behaviors: Dict[str, BehaviorClassification],
                           ) -> List[PrimaryAsset]:
    """Upgrade Status assets wired to another module's Control signal.

    Reachability through the instantiation links of `graph` to a
    Control-classified signal of a different module adds Availability;
    otherwise Integrity is guaranteed present. `graph` is
    `build_connectivity(db)` and `behaviors` is `classify_design(db)`; one
    search runs per distinct Status ref.
    """
    verdicts: Dict[SignalRef, str] = {}  # one per ref: copies share it
    for asset in assets:
        if STATUS not in asset.patterns:
            continue
        if asset.ref not in verdicts:
            def is_foreign_control(ref: SignalRef) -> bool:
                mod, sig = ref
                if mod == asset.module:
                    return False
                behavior = behaviors.get(mod)
                return behavior is not None and CONTROL in behavior.patterns_of(sig)

            hits = _bfs_paths(asset.ref, graph, is_foreign_control,
                              via=VIA_INSTANTIATION)
            verdicts[asset.ref] = AVAILABILITY if hits else INTEGRITY
        target = verdicts[asset.ref]
        if target not in asset.objectives:
            asset.objectives.append(target)
            asset.objectives.sort()
    return list(assets)
