"""Whole-design elaboration: module index, top detection, connectivity graph."""

from collections import deque
from typing import Dict, List, NamedTuple, Optional, Sequence, Set, Tuple

from .syntax import (
    ASSIGN_KINDS, TERNARY_STMT, WILDCARD,
    Diagnostic, ModuleDef, Record, SignalDecl, SourceUnit,
)

VIA_INSTANTIATION = "InstantiationConnection"
VIA_CONTINUOUS = "ContinuousAssign"
VIA_PROCEDURAL = "ProceduralAssign"

SignalRef = Tuple[str, str]  # (module name, signal name)


class DesignError(Exception):
    pass


class ConnEdge(NamedTuple):
    src: SignalRef
    dst: SignalRef
    via: str


class DesignDatabase(Record):
    _fields = ("modules_by_name", "top_modules", "instantiation_parents", "diagnostics")

    def __init__(self, modules_by_name: Optional[Dict[str, ModuleDef]] = None,
                 top_modules: Optional[List[str]] = None,
                 instantiation_parents: Optional[Dict[str, Set[str]]] = None,
                 diagnostics: Optional[List[Diagnostic]] = None) -> None:
        self.modules_by_name = {} if modules_by_name is None else modules_by_name
        self.top_modules = [] if top_modules is None else top_modules
        self.instantiation_parents = \
            {} if instantiation_parents is None else instantiation_parents
        self.diagnostics = [] if diagnostics is None else diagnostics

    @property
    def signal_count(self) -> int:
        """Distinct signal names, summed over the modules."""
        return sum(len(mod.signals()) for mod in self.modules_by_name.values())

    def module(self, name: str) -> ModuleDef:
        return self.modules_by_name[name]

    def signal(self, ref: SignalRef) -> Optional[SignalDecl]:
        """`ModuleDef.signal` of `ref`'s module, or None for an unknown module."""
        mod = self.modules_by_name.get(ref[0])
        return None if mod is None else mod.signal(ref[1])

    def modules_under(self, top: str) -> Set[str]:
        """Modules in `top`'s instantiation tree, including `top` itself."""
        seen = {top}
        queue = deque([top])
        while queue:
            mod = self.modules_by_name.get(queue.popleft())
            if mod is None:
                continue
            for inst in mod.instantiations:
                if inst.target_module in self.modules_by_name \
                        and inst.target_module not in seen:
                    seen.add(inst.target_module)
                    queue.append(inst.target_module)
        return seen


def build_database(units: Sequence[SourceUnit]) -> DesignDatabase:
    """Aggregate parsed units into one indexed design view."""
    db = DesignDatabase()
    for unit in units:
        db.diagnostics.extend(unit.diagnostics)
        for mod in unit.modules:
            if mod.name in db.modules_by_name:
                db.diagnostics.append(Diagnostic(
                    f"duplicate module '{mod.name}' "
                    f"(redefined in {unit.path}); last definition wins",
                    "warning", mod.line))
            db.modules_by_name[mod.name] = mod
    if not db.modules_by_name:
        raise DesignError("empty design: no modules found in any source unit")

    for parent_name, mod in db.modules_by_name.items():
        for inst in mod.instantiations:
            if inst.target_module in db.modules_by_name:
                db.instantiation_parents.setdefault(
                    inst.target_module, set()).add(parent_name)
    db.top_modules = sorted(
        name for name in db.modules_by_name
        if name not in db.instantiation_parents
        or db.instantiation_parents[name] == {name})
    if not db.top_modules:
        # fully cyclic instantiation graph: fall back to all modules
        db.top_modules = sorted(db.modules_by_name)
    return db


def find_top_modules(db: DesignDatabase, user_top: Optional[str] = None) -> List[str]:
    """Roots of the instantiation forest, or the user's explicit choice."""
    if user_top is not None:
        if user_top not in db.modules_by_name:
            raise DesignError(
                f"top module '{user_top}' not found; available modules: "
                + ", ".join(sorted(db.modules_by_name)))
        return [user_top]
    return list(db.top_modules)


def build_connectivity(db: DesignDatabase) -> List[ConnEdge]:
    """Undirected signal-connectivity edges (each emitted in both directions).

    Instantiation connections link parent actuals to child formals;
    assignments link every rhs (and guarding condition) identifier to every
    lhs identifier.  Endpoints must be known signals, otherwise the edge is
    skipped and counted in the diagnostics.  A wildcard `.*` connects each
    child port the instance does not name to the same-named parent signal,
    if there is one (IEEE 1800-2017 §23.3.2.4).
    """
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
