"""Syntax-level data model: modules, signals, statements, instantiations.

Every container here is a `Record`: a plain class with an explicit
`__init__`, compared field by field. Once a SourceUnit is built it is
treated as immutable, except that `design.build_database` sets the width
of each declaration, to the same value on every call.
"""

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


class Record:
    """Field-wise `==` and `repr` over the attribute names in `_fields`, as
    `@dataclass` would give them, and no hash, as a dataclass with `eq` has
    none. Records are plain classes because every CLI run pays for its
    imports, and `dataclasses` costs more to import and apply than all the
    records' own code."""
    __slots__ = ()
    _fields: Tuple[str, ...] = ()

    def _values(self) -> tuple:
        return tuple(getattr(self, name) for name in self._fields)

    def __eq__(self, other: object) -> bool:
        if other.__class__ is not self.__class__:
            return NotImplemented
        return self._values() == other._values()

    __hash__ = None  # type: ignore[assignment]

    def __repr__(self) -> str:
        fields = ", ".join(f"{name}={getattr(self, name)!r}" for name in self._fields)
        return f"{type(self).__qualname__}({fields})"


class Diagnostic(Record):
    _fields = ("message", "severity", "line")

    def __init__(self, message: str, severity: str = "warning", line: int = 0) -> None:
        self.message = message
        self.severity = severity  # 'warning' or 'error'
        self.line = line

    def as_dict(self) -> dict:
        return {"message": self.message, "severity": self.severity, "line": self.line}


# slots, here and on Statement: a parsed design holds thousands of each
class SignalDecl(Record):
    __slots__ = _fields = ("name", "direction", "width_bits", "decl_line", "range_expr")

    def __init__(self, name: str, direction: str, width_bits: Optional[int] = None,
                 decl_line: int = 0,
                 range_expr: Optional[Tuple[List[str], List[str]]] = None) -> None:
        self.name = name
        self.direction = direction    # Input / Output / Inout / Net
        # None from the parser; `build_database` sets 1 without a range, else
        # the range's width, which stays None when a bound is unresolved
        self.width_bits = width_bits
        self.decl_line = decl_line
        # (msb, lsb) token texts: the declared range, else the one the data
        # type implies (`integer` is [31:0]), else None
        self.range_expr = range_expr

    @property
    def is_port(self) -> bool:
        return self.direction in (INPUT, OUTPUT, INOUT)


class Statement(Record):
    __slots__ = _fields = ("kind", "line", "cond_idents", "lhs_idents", "rhs_idents",
                           "body_statement_count", "branch_count", "continuous")

    def __init__(self, kind: str, line: int, cond_idents: Optional[List[str]] = None,
                 lhs_idents: Optional[List[str]] = None,
                 rhs_idents: Optional[List[str]] = None,
                 body_statement_count: int = 0, branch_count: int = 0,
                 continuous: bool = False) -> None:
        self.kind = kind
        self.line = line
        self.cond_idents = [] if cond_idents is None else cond_idents
        self.lhs_idents = [] if lhs_idents is None else lhs_idents
        self.rhs_idents = [] if rhs_idents is None else rhs_idents
        # records in the largest branch/item, nested ones included
        self.body_statement_count = body_statement_count
        self.branch_count = branch_count  # number of branches / case items parsed
        self.continuous = continuous      # True for assign-statement origin


class Instantiation(Record):
    _fields = ("target_module", "connections", "line")

    def __init__(self, target_module: str, connections: Optional[List[Connection]] = None,
                 line: int = 0) -> None:
        self.target_module = target_module
        self.connections = [] if connections is None else connections
        self.line = line


class ModuleDef(Record):
    """One parsed module.

    Add ports and nets through `add_port` and `add_net`, which keep the
    name index behind `signal` up to date. `ports` and `nets` hold every
    declaration; every stage after the parser sees a name through the index,
    so a name declared twice means its first port, else its first net.
    The index is derived, so `==` and `repr` leave it out.
    """
    _fields = ("name", "path", "line", "ports", "nets", "parameters", "statements",
               "instantiations")

    def __init__(self, name: str, path: str = "", line: int = 0,
                 ports: Optional[List[SignalDecl]] = None,
                 nets: Optional[List[SignalDecl]] = None,
                 parameters: Optional[Dict[str, List[str]]] = None,
                 statements: Optional[List[Statement]] = None,
                 instantiations: Optional[List[Instantiation]] = None) -> None:
        self.name = name
        self.path = path
        self.line = line
        self.ports = [] if ports is None else ports
        self.nets = [] if nets is None else nets
        # parameter name -> its value texts, in declaration order
        self.parameters = {} if parameters is None else parameters
        self.statements = [] if statements is None else statements
        self.instantiations = [] if instantiations is None else instantiations
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


class SourceUnit(Record):
    _fields = ("path", "modules", "diagnostics", "line_count")

    def __init__(self, path: str, modules: Optional[List[ModuleDef]] = None,
                 diagnostics: Optional[List[Diagnostic]] = None,
                 line_count: int = 0) -> None:
        self.path = path
        self.modules = [] if modules is None else modules
        self.diagnostics = [] if diagnostics is None else diagnostics
        self.line_count = line_count  # newlines in the source text, before preprocessing
