"""Syntax-level data model: modules, signals, statements, instantiations.

All containers here are plain dataclasses; once a SourceUnit is built it is
treated as immutable and safe to share across threads.
"""

from dataclasses import dataclass, field
from typing import Dict, List, Optional, Tuple, Union, ValuesView

# Signal directions
INPUT = "Input"
OUTPUT = "Output"
INOUT = "Inout"
NET = "Net"

# Statement kinds
CONTINUOUS_ASSIGN = "ContinuousAssign"
BLOCKING_ASSIGN = "BlockingAssign"
NONBLOCKING_ASSIGN = "NonBlockingAssign"
IF_STMT = "If"
CASE_STMT = "Case"
TERNARY_STMT = "Ternary"

ASSIGN_KINDS = (CONTINUOUS_ASSIGN, BLOCKING_ASSIGN, NONBLOCKING_ASSIGN)
CONDITIONAL_KINDS = (IF_STMT, CASE_STMT, TERNARY_STMT)

# the formal of a SystemVerilog wildcard connection `.*`
WILDCARD = "*"

# (formal, the actual's identifiers): the formal is a port name for a named
# connection, the slot for an ordered one, or WILDCARD (with no actuals) for `.*`
Connection = Tuple[Union[str, int], List[str]]


@dataclass
class Diagnostic:
    message: str
    severity: str = "warning"  # 'warning' or 'error'
    line: int = 0

    def as_dict(self) -> dict:
        return {"message": self.message, "severity": self.severity, "line": self.line}


# slots, here and on Statement: a parsed design holds thousands of each
@dataclass(slots=True)
class SignalDecl:
    name: str
    direction: str          # Input / Output / Inout / Net
    width_bits: Optional[int] = 1   # None when unresolved
    decl_line: int = 0
    range_expr: Optional[Tuple[List[str], List[str]]] = None  # (msb, lsb) token texts

    @property
    def is_port(self) -> bool:
        return self.direction in (INPUT, OUTPUT, INOUT)


@dataclass(slots=True)
class Statement:
    kind: str
    line: int
    cond_idents: List[str] = field(default_factory=list)
    lhs_idents: List[str] = field(default_factory=list)
    rhs_idents: List[str] = field(default_factory=list)
    body_statement_count: int = 0   # records in the largest branch/item, nested ones included
    branch_count: int = 0           # number of branches / case items parsed
    continuous: bool = False        # True for assign-statement origin


@dataclass
class Instantiation:
    target_module: str
    connections: List[Connection] = field(default_factory=list)
    line: int = 0


@dataclass
class ModuleDef:
    """One parsed module.

    Add ports and nets through `add_port` and `add_net`, which keep the
    name index behind `signal` up to date. `ports` and `nets` hold every
    declaration; every stage after the parser sees a name through the index,
    so a name declared twice means its first port, else its first net.
    """
    name: str
    path: str = ""
    line: int = 0
    ports: List[SignalDecl] = field(default_factory=list)
    nets: List[SignalDecl] = field(default_factory=list)
    parameters: Dict[str, Optional[int]] = field(default_factory=dict)
    statements: List[Statement] = field(default_factory=list)
    instantiations: List[Instantiation] = field(default_factory=list)
    _signals: Dict[str, SignalDecl] = field(init=False, repr=False, compare=False)

    def __post_init__(self) -> None:
        # walking backwards leaves the first port, else the first net
        self._signals = {s.name: s for s in reversed(self.ports + self.nets)}

    def add_port(self, decl: SignalDecl) -> None:
        """Append a port; the first port of a name hides any net of that name."""
        self.ports.append(decl)
        known = self._signals.get(decl.name)
        if known is None or not known.is_port:
            self._signals[decl.name] = decl

    def add_net(self, decl: SignalDecl) -> None:
        self.nets.append(decl)
        self._signals.setdefault(decl.name, decl)

    def signal(self, name: str) -> Optional[SignalDecl]:
        """The first port named `name`, else the first net, else None."""
        return self._signals.get(name)

    def signals(self) -> ValuesView[SignalDecl]:
        """One declaration per name: the one `signal` resolves it to."""
        return self._signals.values()


@dataclass
class SourceUnit:
    path: str
    modules: List[ModuleDef] = field(default_factory=list)
    diagnostics: List[Diagnostic] = field(default_factory=list)
    line_count: int = 0  # newlines in the source text, before preprocessing
