"""The two-pass connectivity that `design.build_connectivity` replaced, kept
as a test oracle.

- `connectivity_edges` is the old `build_connectivity`: a fresh `ConnEdge`,
  with fresh ref tuples, for each direction of each link, clock/reset ends
  included, and the same skipped count and diagnostics.
- `traversal_graph` is the old fold of that edge list into the traversal
  graph: the edges with no clock/reset end, signal -> [(neighbour, via)].

`build_connectivity(db)` must equal `traversal_graph(connectivity_edges(db))`,
keys and lists in order, and leave the same diagnostics.
"""

from typing import Dict, List, Optional

from assetscout.design import (
    VIA_CONTINUOUS, VIA_INSTANTIATION, VIA_PROCEDURAL,
    ConnEdge, DesignDatabase, Graph, SignalRef,
)
from assetscout.keywords import CLOCK_RESET_NAMES
from assetscout.syntax import ASSIGN_KINDS, TERNARY_STMT, WILDCARD, Diagnostic


def connectivity_edges(db: DesignDatabase) -> List[ConnEdge]:
    """Undirected signal-connectivity edges (each emitted in both directions)."""
    edges: List[ConnEdge] = []
    skipped = 0

    def add(a: SignalRef, b: SignalRef, via: str) -> None:
        edges.append(ConnEdge(a, b, via))
        edges.append(ConnEdge(b, a, via))

    for mod_name, mod in sorted(db.modules_by_name.items()):
        for stmt in mod.statements:
            if stmt.kind not in ASSIGN_KINDS and stmt.kind != TERNARY_STMT:
                continue
            if not stmt.lhs_idents:
                continue
            via = VIA_CONTINUOUS if stmt.continuous else VIA_PROCEDURAL
            sources = list(dict.fromkeys(stmt.rhs_idents + stmt.cond_idents))
            for lhs in stmt.lhs_idents:
                if mod.signal(lhs) is None:
                    skipped += 1
                    continue
                for src in sources:
                    if mod.signal(src) is None:
                        skipped += 1
                        continue
                    add((mod_name, src), (mod_name, lhs), via)
        for inst in mod.instantiations:
            child = db.modules_by_name.get(inst.target_module)
            if child is None:
                continue
            for formal, actual_ids in inst.connections:
                if formal == WILDCARD:
                    named = {f for f, _ids in inst.connections}
                    for port in dict.fromkeys(p.name for p in child.ports):
                        if port not in named and mod.signal(port) is not None:
                            add((mod_name, port), (inst.target_module, port),
                                VIA_INSTANTIATION)
                    continue
                if isinstance(formal, int):
                    if formal >= len(child.ports):
                        skipped += 1
                        db.diagnostics.append(Diagnostic(
                            f"positional connection {formal} out of range for "
                            f"'{inst.target_module}'", "warning", inst.line))
                        continue
                    formal_name = child.ports[formal].name
                else:
                    formal_name = formal
                if child.signal(formal_name) is None:
                    skipped += 1
                    db.diagnostics.append(Diagnostic(
                        f"connection to unknown port "
                        f"'{inst.target_module}.{formal_name}'", "warning", inst.line))
                    continue
                for actual in actual_ids:
                    if mod.signal(actual) is None:
                        skipped += 1
                        continue
                    add((mod_name, actual), (inst.target_module, formal_name),
                        VIA_INSTANTIATION)
    if skipped:
        db.diagnostics.append(Diagnostic(
            f"{skipped} connectivity endpoints did not resolve to declared "
            "signals and were skipped", "info", 0))
    return edges


def traversal_graph(edges: List[ConnEdge]) -> Graph:
    """Signal -> the (neighbour, via) of each edge from it, in edge order,
    over the edges with no clock/reset end; one tuple per signal is its key
    and every neighbour naming it."""
    graph: Graph = {}
    kept: Dict[SignalRef, Optional[SignalRef]] = {}  # None: a clock/reset

    def one(ref: SignalRef) -> Optional[SignalRef]:
        if ref not in kept:
            kept[ref] = None if ref[1].lower() in CLOCK_RESET_NAMES else ref
        return kept[ref]

    for src, dst, via in edges:
        src, dst = one(src), one(dst)
        if src is not None and dst is not None:
            graph.setdefault(src, []).append((dst, via))
    return graph
