"""Partial-keyword group configuration for IP families.

Bundled defaults for the crypto / gpio / peripheral families are
reconstructions assembled from typical open-source RTL naming practice;
users can supply their own JSON config instead (see CONFIG_SCHEMA_VERSION
and `FamilyConfig.to_dict` for the on-disk layout).
"""

import json
from typing import List, Optional, Sequence

from .tokenizer import VERILOG_2005_KEYWORDS
from .syntax import INPUT, NET, OUTPUT, Record

CONFIG_SCHEMA_VERSION = 1

CONFIDENTIALITY = "Confidentiality"
INTEGRITY = "Integrity"
AVAILABILITY = "Availability"
OBJECTIVES = (CONFIDENTIALITY, INTEGRITY, AVAILABILITY)

BUILTIN_FAMILIES = ("crypto", "gpio", "peripheral")

_DIRECTIONS = (INPUT, OUTPUT, NET)


class ConfigError(Exception):
    pass


def clock_reset_closure() -> frozenset:
    """Clock/reset signal names excluded from matching.

    Exact base names plus the common negation suffixes and i_/o_ prefixes.
    """
    names = set()
    for base in ("clk", "clock", "rst", "reset"):
        for variant in (base, base + "_n", base + "n"):
            names.add(variant)
            names.add("i_" + variant)
            names.add("o_" + variant)
    return frozenset(names)


CLOCK_RESET_NAMES = clock_reset_closure()


class PartialKeywordGroup(Record):
    _fields = ("name", "fragments", "objectives", "exclude_fragments")

    def __init__(self, name: str, fragments: List[str],
                 objectives: Optional[List[str]] = None,
                 exclude_fragments: Optional[List[str]] = None) -> None:
        self.name = name
        self.fragments = fragments
        self.objectives = [] if objectives is None else objectives
        self.exclude_fragments = [] if exclude_fragments is None else exclude_fragments

    def validate(self) -> None:
        if not self.fragments:
            raise ConfigError(f"group '{self.name}': empty fragment list")
        for frag in self.fragments + self.exclude_fragments:
            if not frag or frag != frag.lower() or any(c.isspace() for c in frag):
                raise ConfigError(
                    f"group '{self.name}': fragment {frag!r} must be "
                    "non-empty, lowercase and whitespace-free")
        if not self.objectives:
            raise ConfigError(f"group '{self.name}': objectives must be non-empty")
        for obj in self.objectives:
            if obj not in OBJECTIVES:
                raise ConfigError(f"group '{self.name}': unknown objective {obj!r}")

    def to_dict(self) -> dict:
        return {
            "name": self.name,
            "fragments": list(self.fragments),
            "objectives": list(self.objectives),
            "exclude_fragments": list(self.exclude_fragments),
        }


class ClassificationRule(Record):
    _fields = ("name", "groups", "patterns", "directions", "min_width", "max_width",
               "objectives")

    def __init__(self, name: str, groups: List[str], patterns: List[str],
                 directions: Optional[List[str]] = None, min_width: int = 1,
                 max_width: Optional[int] = None,
                 objectives: Optional[List[str]] = None) -> None:
        self.name = name
        self.groups = groups                # any-of
        self.patterns = patterns            # any-of: Control/Configuration/Status/Data
        self.directions = list(_DIRECTIONS) if directions is None else directions
        self.min_width = min_width
        self.max_width = max_width          # None = unbounded
        self.objectives = [] if objectives is None else objectives

    def validate(self) -> None:
        if not self.groups:
            raise ConfigError(f"rule '{self.name}': empty group list")
        if not self.patterns:
            raise ConfigError(f"rule '{self.name}': empty pattern list")
        for p in self.patterns:
            if p not in ("Control", "Configuration", "Status", "Data"):
                raise ConfigError(f"rule '{self.name}': unknown pattern {p!r}")
        if self.min_width < 1:
            raise ConfigError(f"rule '{self.name}': min_width must be >= 1")
        if self.max_width is not None and self.min_width > self.max_width:
            raise ConfigError(
                f"rule '{self.name}': min_width {self.min_width} exceeds "
                f"max_width {self.max_width}")

    def to_dict(self) -> dict:
        return {
            "name": self.name,
            "groups": list(self.groups),
            "patterns": list(self.patterns),
            "directions": list(self.directions),
            "min_width": self.min_width,
            "max_width": self.max_width,
            "objectives": list(self.objectives),
        }


class FamilyConfig(Record):
    _fields = ("family", "groups", "rules", "global_exclusions")

    def __init__(self, family: str, groups: Optional[List[PartialKeywordGroup]] = None,
                 rules: Optional[List[ClassificationRule]] = None,
                 global_exclusions: Optional[List[str]] = None) -> None:
        self.family = family
        self.groups = [] if groups is None else groups
        self.rules = [] if rules is None else rules
        self.global_exclusions = [] if global_exclusions is None else global_exclusions

    def validate(self) -> None:
        seen = set()
        for group in self.groups:
            group.validate()
            if group.name in seen:
                raise ConfigError(f"duplicate group name '{group.name}'")
            seen.add(group.name)
        for rule in self.rules:
            rule.validate()
            for name in rule.groups:
                if name not in seen:
                    raise ConfigError(f"rule '{rule.name}': unknown group {name!r}")
        excl = set(self.exclusion_set())
        for group in self.groups:
            for frag in group.fragments:
                if frag in excl:
                    raise ConfigError(
                        f"group '{group.name}': fragment {frag!r} collides "
                        "with a global exclusion")
        if not self.rules:
            raise ConfigError(f"family '{self.family}' has no rules")

    def exclusion_set(self) -> frozenset:
        """Exact-match exclusion names: user list + clock/reset + keywords."""
        return frozenset(s.lower() for s in self.global_exclusions) \
            | CLOCK_RESET_NAMES | VERILOG_2005_KEYWORDS

    def group(self, name: str) -> Optional[PartialKeywordGroup]:
        for g in self.groups:
            if g.name == name:
                return g
        return None

    def to_dict(self) -> dict:
        return {
            "version": CONFIG_SCHEMA_VERSION,
            "family": self.family,
            "global_exclusions": list(self.global_exclusions),
            "groups": [g.to_dict() for g in self.groups],
            "rules": [r.to_dict() for r in self.rules],
        }


def _is_int(value) -> bool:
    return isinstance(value, int) and not isinstance(value, bool)


# JSON field types by the name a ConfigError gives them
_FIELD_TYPES = {
    "a string": lambda v: isinstance(v, str),
    "a list of strings": lambda v: (isinstance(v, list)
                                    and all(isinstance(x, str) for x in v)),
    "an integer": _is_int,
    "an integer or null": lambda v: v is None or _is_int(v),
}
_REQUIRED = object()


def _field(entry: dict, key: str, kind: str, what: str, default=_REQUIRED):
    """`entry[key]` checked to be `kind`, or `default` when it is absent."""
    if key not in entry:
        if default is _REQUIRED:
            raise ConfigError(f"{what} missing field '{key}'")
        return default
    value = entry[key]
    if not _FIELD_TYPES[kind](value):
        raise ConfigError(f"{what}: '{key}' must be {kind}, not {value!r}")
    return list(value) if isinstance(value, list) else value


def _entries(data: dict, key: str) -> List[dict]:
    value = data.get(key, [])
    if not isinstance(value, list) or not all(isinstance(e, dict) for e in value):
        raise ConfigError(f"'{key}' must be a list of objects, not {value!r}")
    return value


def _config_from_dict(data: dict) -> FamilyConfig:
    if not isinstance(data, dict):
        raise ConfigError("config root must be an object")
    version = data.get("version")
    if version != CONFIG_SCHEMA_VERSION:
        raise ConfigError(f"unsupported config version: {version!r}")
    group, rule = "group entry", "rule entry"
    groups = [
        PartialKeywordGroup(
            name=_field(gd, "name", "a string", group),
            fragments=_field(gd, "fragments", "a list of strings", group),
            objectives=_field(gd, "objectives", "a list of strings", group, []),
            exclude_fragments=_field(gd, "exclude_fragments",
                                     "a list of strings", group, []),
        )
        for gd in _entries(data, "groups")
    ]
    rules = [
        ClassificationRule(
            name=_field(rd, "name", "a string", rule),
            groups=_field(rd, "groups", "a list of strings", rule),
            patterns=_field(rd, "patterns", "a list of strings", rule),
            directions=_field(rd, "directions", "a list of strings", rule,
                              list(_DIRECTIONS)),
            min_width=_field(rd, "min_width", "an integer", rule, 1),
            max_width=_field(rd, "max_width", "an integer or null", rule, None),
            objectives=_field(rd, "objectives", "a list of strings", rule, []),
        )
        for rd in _entries(data, "rules")
    ]
    cfg = FamilyConfig(
        family=str(data.get("family", "user-defined")),
        groups=groups,
        rules=rules,
        global_exclusions=_field(data, "global_exclusions", "a list of strings",
                                 "config", ["clk", "clock", "rst", "reset"]),
    )
    cfg.validate()
    return cfg


def load_family_config(name_or_path: str) -> FamilyConfig:
    """Load a builtin family ('crypto', 'gpio', 'peripheral') or a JSON file."""
    if name_or_path in BUILTIN_FAMILIES:
        cfg = _builtin_config(name_or_path)
        cfg.validate()
        return cfg
    try:
        with open(name_or_path, "r", encoding="utf-8") as fh:
            data = json.load(fh)
    except FileNotFoundError as err:
        raise ConfigError(
            f"no builtin family and no config file named {name_or_path!r}") from err
    except OSError as err:
        raise ConfigError(f"cannot read config file {name_or_path!r}: {err}") from err
    except (json.JSONDecodeError, UnicodeDecodeError) as err:
        raise ConfigError(f"malformed config file {name_or_path!r}: {err}") from err
    return _config_from_dict(data)


# ---------------------------------------------------------------------------
# Bundled family definitions (reconstructions, user-overridable)
# ---------------------------------------------------------------------------

def _g(name: str, fragments: Sequence[str], objectives: Sequence[str],
       exclude: Sequence[str] = ()) -> PartialKeywordGroup:
    return PartialKeywordGroup(name, list(fragments), list(objectives), list(exclude))


def _r(name: str, groups: Sequence[str], patterns: Sequence[str],
       min_width: int = 1, max_width: Optional[int] = None,
       directions: Sequence[str] = _DIRECTIONS,
       objectives: Sequence[str] = ()) -> ClassificationRule:
    return ClassificationRule(name, list(groups), list(patterns),
                              list(directions), min_width, max_width,
                              list(objectives))


def _builtin_config(family: str) -> FamilyConfig:
    if family == "crypto":
        groups = [
            _g("key", ["key"], [CONFIDENTIALITY]),
            _g("text", ["text", "plain", "cipher", "msg"], [CONFIDENTIALITY]),
            _g("data", ["data", "din", "dout", "bank", "word", "block"],
               [CONFIDENTIALITY], exclude=["ding"]),
            _g("iv", ["iv", "nonce"], [CONFIDENTIALITY, INTEGRITY]),
            _g("seed", ["seed", "random", "rng"], [CONFIDENTIALITY]),
            _g("round", ["round", "rnd"], [INTEGRITY]),
            _g("enable", ["en", "wen", "ren"], [AVAILABILITY],
               exclude=["end", "gen", "len"]),
            _g("start", ["start", "init", "go"], [AVAILABILITY]),
            _g("done", ["done", "finish", "complete"], [INTEGRITY]),
            _g("ready", ["ready", "rdy"], [INTEGRITY]),
            _g("busy", ["busy"], [INTEGRITY]),
            _g("valid", ["valid", "vld"], [INTEGRITY]),
            _g("load", ["load"], [AVAILABILITY], exclude=["upload", "download"]),
            _g("mode", ["mode", "sel", "cfg", "ctl", "ctrl"],
               [AVAILABILITY, INTEGRITY]),
        ]
        rules = [
            _r("encryption-key", ["key"], ["Data"], min_width=64,
               objectives=[CONFIDENTIALITY]),
            _r("iv-seed", ["iv", "seed"], ["Data"], min_width=8,
               objectives=[CONFIDENTIALITY, INTEGRITY]),
            _r("text-data", ["text", "data", "key", "round"], ["Data"],
               min_width=8, objectives=[CONFIDENTIALITY]),
            _r("crypto-control", ["enable", "start", "load", "done", "ready",
                                  "valid", "busy", "mode"], ["Control"],
               min_width=1, max_width=1, objectives=[AVAILABILITY]),
            _r("crypto-config", ["mode", "round", "data"], ["Configuration"],
               min_width=2, max_width=8, objectives=[AVAILABILITY, INTEGRITY]),
            _r("crypto-status", ["done", "ready", "busy", "valid"], ["Status"],
               min_width=1, max_width=1, objectives=[INTEGRITY]),
        ]
    elif family == "gpio":
        groups = [
            _g("data", ["data", "rdata", "wdata"], [CONFIDENTIALITY, INTEGRITY]),
            _g("pad", ["pad"], [INTEGRITY]),
            _g("port", ["port", "pin", "gpio"], [INTEGRITY]),
            _g("oe", ["oe", "oen"], [AVAILABILITY, INTEGRITY]),
            _g("enable", ["en", "ena"], [AVAILABILITY],
               exclude=["end", "gen", "len"]),
            _g("dir", ["dir"], [AVAILABILITY, INTEGRITY]),
            _g("irq", ["irq", "intr"], [AVAILABILITY]),
            _g("out", ["out"], [INTEGRITY], exclude=["timeout"]),
            _g("in", ["in"], [INTEGRITY], exclude=["int", "init"]),
        ]
        rules = [
            _r("port-data", ["data", "pad", "port", "out", "in"], ["Data"],
               min_width=8, max_width=64,
               objectives=[CONFIDENTIALITY, INTEGRITY]),
            _r("direction-oe", ["oe", "dir", "enable"],
               ["Control", "Configuration", "Data"],
               objectives=[AVAILABILITY, INTEGRITY]),
            _r("gpio-control", ["enable", "irq", "port", "pad"], ["Control"],
               min_width=1, max_width=1, objectives=[AVAILABILITY]),
            _r("gpio-config", ["dir", "oe", "port"], ["Configuration"],
               min_width=2, objectives=[AVAILABILITY, INTEGRITY]),
            _r("gpio-status", ["irq", "out", "in", "port", "pad"], ["Status"],
               objectives=[INTEGRITY]),
        ]
    elif family == "peripheral":
        groups = [
            _g("tx", ["tx"], [CONFIDENTIALITY, INTEGRITY]),
            _g("rx", ["rx"], [CONFIDENTIALITY, INTEGRITY]),
            _g("data", ["data", "din", "dout"], [CONFIDENTIALITY],
               exclude=["ding"]),
            _g("enable", ["en"], [AVAILABILITY], exclude=["end", "gen", "len"]),
            _g("busy", ["busy"], [INTEGRITY]),
            _g("ready", ["ready", "rdy"], [INTEGRITY]),
            _g("valid", ["valid", "vld"], [INTEGRITY]),
            _g("addr", ["addr", "adr"], [INTEGRITY]),
            _g("cs", ["cs", "ss"], [AVAILABILITY]),
            _g("sel", ["sel"], [AVAILABILITY, INTEGRITY]),
            _g("irq", ["irq", "intr"], [AVAILABILITY]),
        ]
        rules = [
            _r("txrx-data", ["tx", "rx", "data"], ["Data"], min_width=2,
               objectives=[CONFIDENTIALITY]),
            _r("bus-address", ["addr"], ["Data", "Configuration"], min_width=2,
               objectives=[INTEGRITY]),
            _r("bus-control", ["enable", "cs", "sel", "irq", "ready", "valid",
                               "busy", "tx", "rx"], ["Control"],
               min_width=1, max_width=1, objectives=[AVAILABILITY]),
            _r("bus-config", ["sel", "cs", "addr", "data"], ["Configuration"],
               min_width=2, max_width=8, objectives=[AVAILABILITY, INTEGRITY]),
            _r("bus-status", ["ready", "busy", "valid", "irq", "tx", "rx"],
               ["Status"], objectives=[INTEGRITY]),
        ]
    else:
        raise ConfigError(f"unknown builtin family {family!r}")
    return FamilyConfig(family=family, groups=groups, rules=rules,
                        global_exclusions=["clk", "clock", "rst", "reset"])
