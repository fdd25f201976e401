"""Behavioral pattern detection: Control / Configuration / Status / Data.

Implements the line-scan classification over a module's flattened statement
list.  Conditionals contribute Control (1-bit) and Configuration (>=2-bit
with a multi-statement block) memberships for Input/Net signals; assignments
contribute Status (1-bit Output lhs) and Data (multi-bit Output lhs or
multi-bit Input rhs).  Inout ports count as both Input and Output.
"""

from typing import Dict, List, Set, Tuple

from .design import DesignDatabase
from .syntax import (
    ASSIGN_KINDS, CASE_STMT, CONDITIONAL_KINDS, INOUT, INPUT, NET, OUTPUT,
    ModuleDef, Record, Statement,
)

CONTROL = "Control"
CONFIGURATION = "Configuration"
STATUS = "Status"
DATA = "Data"
PATTERNS = (CONTROL, CONFIGURATION, STATUS, DATA)

Evidence = Tuple[int, str, str]  # (line, statement kind, role)


class BehaviorClassification(Record):
    """Pattern buckets of one module, each in first-seen signal order.

    Filled through `_add`, which also keeps the per-pattern member sets
    behind `patterns_of`; `==` and `repr` leave those sets out.
    """
    _fields = ("module", "control", "configuration", "status", "data", "evidence")

    def __init__(self, module: str) -> None:
        self.module = module
        self.control: List[str] = []
        self.configuration: List[str] = []
        self.status: List[str] = []
        self.data: List[str] = []
        self.evidence: Dict[str, List[Evidence]] = {}
        self._members: Dict[str, Set[str]] = {p: set() for p in PATTERNS}

    def patterns_of(self, signal: str) -> List[str]:
        return [p for p in PATTERNS if signal in self._members[p]]

    def _add(self, pattern: str, signal: str, ev: Evidence) -> None:
        members = self._members[pattern]
        if signal not in members:
            members.add(signal)
            buckets = {CONTROL: self.control, CONFIGURATION: self.configuration,
                       STATUS: self.status, DATA: self.data}
            buckets[pattern].append(signal)
        self.evidence.setdefault(signal, []).append(ev)


def _is_multi_statement(stmt: Statement) -> bool:
    # a case block always qualifies; if/ternary need a branch with >= 2
    # direct statements
    if stmt.kind == CASE_STMT:
        return True
    return stmt.body_statement_count >= 2


def classify_behaviors(module: ModuleDef) -> BehaviorClassification:
    """Assign behavioral patterns to the signals of one module."""
    result = BehaviorClassification(module=module.name)
    for stmt in module.statements:
        if stmt.kind in CONDITIONAL_KINDS:
            for name in stmt.cond_idents:
                decl = module.signal(name)
                if decl is None or decl.direction not in (INPUT, NET, INOUT):
                    continue
                ev = (stmt.line, stmt.kind, "condition")
                if decl.width_bits == 1:
                    result._add(CONTROL, name, ev)
                elif (decl.width_bits is None or decl.width_bits >= 2) \
                        and _is_multi_statement(stmt):
                    result._add(CONFIGURATION, name, ev)
        elif stmt.kind in ASSIGN_KINDS:
            for name in stmt.lhs_idents:
                decl = module.signal(name)
                if decl is None or decl.direction not in (OUTPUT, INOUT):
                    continue
                ev = (stmt.line, stmt.kind, "lhs")
                if decl.width_bits == 1:
                    result._add(STATUS, name, ev)
                else:
                    result._add(DATA, name, ev)
            for name in stmt.rhs_idents:
                decl = module.signal(name)
                if decl is None or decl.direction not in (INPUT, INOUT):
                    continue
                if decl.width_bits is None or decl.width_bits >= 2:
                    result._add(DATA, name, (stmt.line, stmt.kind, "rhs"))
    return result


def classify_design(db: DesignDatabase) -> Dict[str, BehaviorClassification]:
    """classify_behaviors over every module, keyed by module name."""
    return {name: classify_behaviors(mod)
            for name, mod in sorted(db.modules_by_name.items())}
