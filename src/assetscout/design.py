"""Whole-design elaboration: module index, top detection, connectivity graph."""

from collections import deque
from typing import Dict, List, NamedTuple, Optional, Sequence, Set, Tuple

from .keywords import CLOCK_RESET_NAMES
from .syntax import (
    ASSIGN_KINDS, TERNARY_STMT, WILDCARD,
    Diagnostic, ModuleDef, Record, SignalDecl, SourceUnit,
)

VIA_INSTANTIATION = "InstantiationConnection"
VIA_CONTINUOUS = "ContinuousAssign"
VIA_PROCEDURAL = "ProceduralAssign"

SignalRef = Tuple[str, str]  # (module name, signal name)
Graph = Dict[SignalRef, List[Tuple[SignalRef, str]]]  # signal -> (neighbour, via)


class DesignError(Exception):
    pass


class ConnEdge(NamedTuple):
    """One step of a trace path."""
    src: SignalRef
    dst: SignalRef
    via: str


class DesignDatabase(Record):
    _fields = ("modules_by_name", "top_modules", "diagnostics")

    def __init__(self) -> None:  # build_database fills it in
        self.modules_by_name: Dict[str, ModuleDef] = {}
        self.top_modules: List[str] = []
        self.diagnostics: List[Diagnostic] = []

    @property
    def signal_count(self) -> int:
        """Distinct signal names, summed over the modules."""
        return sum(len(mod.signals()) for mod in self.modules_by_name.values())

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

    parents: Dict[str, Set[str]] = {}
    for parent_name, mod in db.modules_by_name.items():
        for inst in mod.instantiations:
            if inst.target_module in db.modules_by_name:
                parents.setdefault(inst.target_module, set()).add(parent_name)
    db.top_modules = sorted(
        name for name in db.modules_by_name
        if name not in parents or parents[name] == {name})
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


def build_connectivity(db: DesignDatabase) -> Graph:
    """The traversal graph: signal -> the (neighbour, via) of each link at
    it, in link order. Each link is entered both ways, and one tuple per
    signal is its key and every neighbour naming it.

    Instantiation connections link parent actuals to child formals;
    assignments link every rhs (and guarding condition) identifier to every
    lhs identifier.  Endpoints must be known signals, otherwise the link is
    skipped and counted in the diagnostics.  A wildcard `.*` connects each
    child port the instance does not name to the same-named parent signal,
    if there is one (IEEE 1800-2017 §23.3.2.4).  Clock/reset signals are
    known but linked to nothing: reset guards touch nearly every register,
    so paths through them carry no dataflow meaning.
    """
    graph: Graph = {}
    skipped = 0
    # module -> signal name -> its one ref, or None for a clock/reset
    refs = {name: {decl.name: None if decl.name.lower() in CLOCK_RESET_NAMES
                   else (name, decl.name) for decl in mod.signals()}
            for name, mod in db.modules_by_name.items()}

    def add(a: Optional[SignalRef], b: Optional[SignalRef], via: str) -> None:
        if a is not None and b is not None:
            graph.setdefault(a, []).append((b, via))
            graph.setdefault(b, []).append((a, via))

    for mod_name, mod in sorted(db.modules_by_name.items()):
        own = refs[mod_name]
        for stmt in mod.statements:
            if stmt.kind not in ASSIGN_KINDS and stmt.kind != TERNARY_STMT:
                continue
            if not stmt.lhs_idents:
                continue
            via = VIA_CONTINUOUS if stmt.continuous else VIA_PROCEDURAL
            sources = list(dict.fromkeys(stmt.rhs_idents + stmt.cond_idents))
            for lhs in stmt.lhs_idents:
                if lhs not in own:
                    skipped += 1
                    continue
                for src in sources:
                    if src not in own:
                        skipped += 1
                        continue
                    add(own[src], own[lhs], via)
        for inst in mod.instantiations:
            child = db.modules_by_name.get(inst.target_module)
            if child is None:
                continue
            theirs = refs[inst.target_module]
            for formal, actual_ids in inst.connections:
                if formal == WILDCARD:
                    named = {f for f, _ids in inst.connections}
                    for port in dict.fromkeys(p.name for p in child.ports):
                        if port not in named and port in own:
                            add(own[port], theirs[port], VIA_INSTANTIATION)
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
                if formal_name not in theirs:
                    skipped += 1
                    db.diagnostics.append(Diagnostic(
                        f"connection to unknown port "
                        f"'{inst.target_module}.{formal_name}'", "warning", inst.line))
                    continue
                for actual in actual_ids:
                    if actual not in own:
                        skipped += 1
                        continue
                    add(own[actual], theirs[formal_name], VIA_INSTANTIATION)
    if skipped:
        db.diagnostics.append(Diagnostic(
            f"{skipped} connectivity endpoints did not resolve to declared "
            "signals and were skipped", "info", 0))
    return graph
