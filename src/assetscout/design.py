"""Whole-design elaboration: module index, top detection, signal widths,
connectivity graph. No function recurses: the constant evaluator and the
parameter resolver nest on explicit stacks. A constant past MAX_CONST_BITS
bits reads None, so no literal or chain of products can crash or stall."""

import operator
from collections import deque
from typing import Dict, List, NamedTuple, Optional, Sequence, Set, Tuple

from .keywords import CLOCK_RESET_NAMES
from .syntax import (
    ASSIGN_KINDS, TERNARY_STMT, WILDCARD,
    Diagnostic, ModuleDef, Record, SignalDecl, SourceUnit,
)
from .tokenizer import ID_START, is_number

VIA_INSTANTIATION = "InstantiationConnection"
VIA_CONTINUOUS = "ContinuousAssign"
VIA_PROCEDURAL = "ProceduralAssign"
# a constant literal, intermediate result or width of more bits reads None
MAX_CONST_BITS = 1024

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
    # widths, the only place they are set: a module's parameters are fixed,
    # so each distinct range is evaluated once, and no range is one bit
    for mod in db.modules_by_name.values():
        values = _resolve_parameters(mod.parameters)
        widths: Dict[Optional[tuple], Optional[int]] = {None: 1}
        for decl in mod.ports + mod.nets:
            rng = decl.range_expr
            key = rng and (tuple(rng[0]), tuple(rng[1]))
            if key not in widths:
                widths[key] = _range_width(rng, values)
            decl.width_bits = widths[key]
    return db


def _resolve_parameters(raw: Dict[str, List[str]]) -> Dict[str, Optional[int]]:
    """Each parameter's value from its raw value texts, dependencies first,
    on an explicit depth-first stack of (name, its unread value texts). A
    parameter reads None while it is on the stack, so a dependency cycle
    reads None, as does an unknown name."""
    resolved: Dict[str, Optional[int]] = {}
    stack = []
    for root in raw:
        if root not in resolved:
            resolved[root] = None
            stack.append((root, iter(raw[root])))
        while stack:
            name, rest = stack[-1]
            for t in rest:
                if t in raw and t not in resolved:
                    resolved[t] = None
                    stack.append((t, iter(raw[t])))
                    break
            else:
                stack.pop()
                resolved[name] = eval_const_expr(raw[name], resolved)
    return resolved


def _range_width(range_expr: Tuple[List[str], List[str]],
                 params: Dict[str, Optional[int]]) -> Optional[int]:
    msb_texts, lsb_texts = range_expr
    msb = eval_const_expr(msb_texts, params)
    lsb = eval_const_expr(lsb_texts, params)
    if msb is None or lsb is None:
        return None
    width = abs(msb - lsb) + 1
    return None if width.bit_length() > MAX_CONST_BITS else width


def _quotient(a: int, b: int) -> int:
    """`a / b` truncated toward zero (IEEE 1364-2005 §5.1.5)."""
    q = abs(a) // abs(b)
    return q if (a < 0) == (b < 0) else -q


# binary operator -> (precedence, function)
_BINARY = {"+": (1, operator.add), "-": (1, operator.sub),
           "*": (2, operator.mul), "/": (2, _quotient)}


def eval_const_expr(texts: Sequence[str],
                    params: Dict[str, Optional[int]]) -> Optional[int]:
    """Evaluate +,-,*,/ and parenthesised constant expressions.

    Identifiers are looked up in `params`. An unresolved name, a malformed
    expression, a division by zero or a literal or result of more than
    MAX_CONST_BITS bits gives None. One loop over an operand and an
    operator stack; a unary `-` applies to the primary after it, so
    `- 7 + 2` is -5, and `/` truncates toward zero, so `- 7 / 2` is -3.
    """
    values: List[int] = []
    ops: List[str] = []  # "(", "~" for a unary minus, or a binary operator
    want_operand = True
    for t in texts:
        if want_operand:
            if t == "(" or t == "-":
                ops.append("~" if t == "-" else t)
                continue
            if t == "+":
                continue
            value = _number_value(t) if is_number(t) else \
                params.get(t) if t[0] in ID_START else None
            if value is None:
                return None
        elif t == ")":
            if not _reduce(values, ops, 1) or not ops:
                return None
            ops.pop()  # its "("
            value = values.pop()
        elif t in _BINARY:
            if not _reduce(values, ops, _BINARY[t][0]):
                return None
            ops.append(t)
            want_operand = True
            continue
        else:
            return None
        while ops and ops[-1] == "~":  # the unary minuses before the primary
            ops.pop()
            value = -value
        values.append(value)
        want_operand = False
    if want_operand or not _reduce(values, ops, 1) or ops:
        return None
    return values[0]


def _reduce(values: List[int], ops: List[str], precedence: int) -> bool:
    """Apply the binary operators on top of `ops` that bind at least as
    tightly as `precedence`; False on a division by zero or a result of
    more than MAX_CONST_BITS bits, checked as each result is made."""
    while ops and ops[-1] in _BINARY and _BINARY[ops[-1]][0] >= precedence:
        rhs = values.pop()
        if rhs == 0 and ops[-1] == "/":
            return False
        values[-1] = _BINARY[ops.pop()][1](values[-1], rhs)
        if values[-1].bit_length() > MAX_CONST_BITS:
            return False
    return True


def _number_value(text: str) -> Optional[int]:
    """A number token's value; None for an x or z digit, a malformed literal
    or a value past MAX_CONST_BITS bits. Never raises."""
    text = text.replace("_", "").replace(" ", "")
    based = "'" in text
    base = 10
    if based:
        rest = text.split("'", 1)[1].lstrip("sS")
        base = {"b": 2, "o": 8, "d": 10, "h": 16}.get(rest[:1].lower())
        text = rest[1:]
        if base is None or not text or any(ch in "xXzZ?" for ch in text):
            return None
    if len(text.lstrip("0")) > MAX_CONST_BITS:  # each digit adds a bit or more
        return None
    try:
        value = int(text, base)
    except ValueError:
        if based:
            return None
        try:  # a real literal, rounded to the nearest integer with ties away
            # from zero (IEEE 1364-2005 §4.8.2; it has no sign): no float is
            # past the bound
            real = float(text)
            return int(real) + (real % 1 >= 0.5)
        except (ValueError, OverflowError):
            return None
    return None if value.bit_length() > MAX_CONST_BITS else value


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
