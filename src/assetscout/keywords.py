"""Partial-keyword group configuration for IP families.

Bundled defaults for the crypto / gpio / peripheral families are
reconstructions assembled from typical open-source RTL naming practice.
They live in `BUILTIN_FAMILIES` in the on-disk JSON layout (see
CONFIG_SCHEMA_VERSION), and one checked loader reads them and a user's
JSON config alike.
"""

import json
from typing import List, Optional

from .tokenizer import VERILOG_2005_KEYWORDS
from .syntax import INPUT, NET, OUTPUT, Record

CONFIG_SCHEMA_VERSION = 1

CONFIDENTIALITY = "Confidentiality"
INTEGRITY = "Integrity"
AVAILABILITY = "Availability"
OBJECTIVES = (CONFIDENTIALITY, INTEGRITY, AVAILABILITY)
# what a rule's `directions` may hold: an Inout port passes as Input and Output
_RULE_DIRECTIONS = (INPUT, OUTPUT, NET)

_CLOCK_RESET_BASES = ("clk", "clock", "rst", "reset")


class ConfigError(Exception):
    pass


def clock_reset_closure() -> frozenset:
    """Clock/reset signal names excluded from matching.

    Exact base names plus the common negation suffixes and i_/o_ prefixes.
    """
    names = set()
    for base in _CLOCK_RESET_BASES:
        for variant in (base, base + "_n", base + "n"):
            names.add(variant)
            names.add("i_" + variant)
            names.add("o_" + variant)
    return frozenset(names)


CLOCK_RESET_NAMES = clock_reset_closure()


class PartialKeywordGroup(Record):
    _fields = ("name", "fragments", "objectives", "exclude_fragments")

    def __init__(self, name: str, fragments: List[str], objectives: List[str],
                 exclude_fragments: List[str]) -> None:
        self.name = name
        self.fragments = fragments
        self.objectives = objectives
        self.exclude_fragments = exclude_fragments

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


class ClassificationRule(Record):
    _fields = ("name", "groups", "patterns", "directions", "min_width", "max_width",
               "objectives")

    def __init__(self, name: str, groups: List[str], patterns: List[str],
                 directions: List[str], min_width: int, max_width: Optional[int],
                 objectives: List[str]) -> None:
        self.name = name
        self.groups = groups                # any-of
        self.patterns = patterns            # any-of: Control/Configuration/Status/Data
        self.directions = directions
        self.min_width = min_width
        self.max_width = max_width          # None = unbounded
        self.objectives = objectives

    def validate(self) -> None:
        if not self.groups:
            raise ConfigError(f"rule '{self.name}': empty group list")
        if not self.patterns:
            raise ConfigError(f"rule '{self.name}': empty pattern list")
        for p in self.patterns:
            if p not in ("Control", "Configuration", "Status", "Data"):
                raise ConfigError(f"rule '{self.name}': unknown pattern {p!r}")
        if not self.directions:
            raise ConfigError(f"rule '{self.name}': empty direction list")
        for d in self.directions:
            if d not in _RULE_DIRECTIONS:
                raise ConfigError(f"rule '{self.name}': unknown direction {d!r}")
        for obj in self.objectives:
            if obj not in OBJECTIVES:
                raise ConfigError(f"rule '{self.name}': unknown objective {obj!r}")
        if self.min_width < 1:
            raise ConfigError(f"rule '{self.name}': min_width must be >= 1")
        if self.max_width is not None and self.min_width > self.max_width:
            raise ConfigError(
                f"rule '{self.name}': min_width {self.min_width} exceeds "
                f"max_width {self.max_width}")


class FamilyConfig(Record):
    _fields = ("family", "groups", "rules", "global_exclusions")

    def __init__(self, family: str, groups: List[PartialKeywordGroup],
                 rules: List[ClassificationRule], global_exclusions: List[str]) -> None:
        self.family = family
        self.groups = groups
        self.rules = rules
        self.global_exclusions = global_exclusions

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

# (key, JSON type, default) of each record's fields read by `_field`; a
# `_REQUIRED` default makes the key mandatory
_GROUP_FIELDS = (
    ("name", "a string", _REQUIRED),
    ("fragments", "a list of strings", _REQUIRED),
    ("objectives", "a list of strings", []),
    ("exclude_fragments", "a list of strings", []),
)
_RULE_FIELDS = (
    ("name", "a string", _REQUIRED),
    ("groups", "a list of strings", _REQUIRED),
    ("patterns", "a list of strings", _REQUIRED),
    ("directions", "a list of strings", list(_RULE_DIRECTIONS)),
    ("min_width", "an integer", 1),
    ("max_width", "an integer or null", None),
    ("objectives", "a list of strings", []),
)
_CONFIG_FIELDS = (
    ("family", "a string", "user-defined"),
    ("global_exclusions", "a list of strings", list(_CLOCK_RESET_BASES)),
)


def _field(entry: dict, key: str, kind: str, what: str, default):
    """`entry[key]` checked to be `kind`, or `default` when it is absent; a
    list comes back as a fresh copy."""
    if key in entry:
        value = entry[key]
        if not _FIELD_TYPES[kind](value):
            raise ConfigError(f"{what}: '{key}' must be {kind}, not {value!r}")
    elif default is _REQUIRED:
        raise ConfigError(f"{what} missing field '{key}'")
    else:
        value = default
    return list(value) if isinstance(value, list) else value


def _arguments(entry: dict, table: tuple, what: str) -> dict:
    """The constructor arguments that `table` reads from `entry`."""
    return {key: _field(entry, key, kind, what, default)
            for key, kind, default in table}


def _entries(data: dict, key: str) -> List[dict]:
    value = data.get(key, [])
    if not isinstance(value, list) or not all(isinstance(e, dict) for e in value):
        raise ConfigError(f"'{key}' must be a list of objects, not {value!r}")
    return value


def _config_from_dict(data: dict) -> FamilyConfig:
    if not isinstance(data, dict):
        raise ConfigError("config root must be an object")
    version = data.get("version")
    if not _is_int(version) or version != CONFIG_SCHEMA_VERSION:
        raise ConfigError(f"unsupported config version: {version!r}")
    cfg = FamilyConfig(
        groups=[PartialKeywordGroup(**_arguments(gd, _GROUP_FIELDS, "group entry"))
                for gd in _entries(data, "groups")],
        rules=[ClassificationRule(**_arguments(rd, _RULE_FIELDS, "rule entry"))
               for rd in _entries(data, "rules")],
        **_arguments(data, _CONFIG_FIELDS, "config"),
    )
    cfg.validate()
    return cfg


def load_family_config(name_or_path: str) -> FamilyConfig:
    """Load a builtin family ('crypto', 'gpio', 'peripheral') or a JSON file."""
    if name_or_path in BUILTIN_FAMILIES:
        return _config_from_dict(BUILTIN_FAMILIES[name_or_path])
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
# Bundled family definitions (reconstructions, user-overridable), in the
# JSON layout with each field left out where it has its default
# ---------------------------------------------------------------------------

_C, _I, _A = CONFIDENTIALITY, INTEGRITY, AVAILABILITY
_NO_EN = ["end", "gen", "len"]  # words that hold the fragment "en"

BUILTIN_FAMILIES = {
    "crypto": {"version": 1, "family": "crypto", "groups": [
        {"name": "key", "fragments": ["key"], "objectives": [_C]},
        {"name": "text", "fragments": ["text", "plain", "cipher", "msg"], "objectives": [_C]},
        {"name": "data", "fragments": ["data", "din", "dout", "bank", "word", "block"],
         "objectives": [_C], "exclude_fragments": ["ding"]},
        {"name": "iv", "fragments": ["iv", "nonce"], "objectives": [_C, _I]},
        {"name": "seed", "fragments": ["seed", "random", "rng"], "objectives": [_C]},
        {"name": "round", "fragments": ["round", "rnd"], "objectives": [_I]},
        {"name": "enable", "fragments": ["en", "wen", "ren"], "objectives": [_A],
         "exclude_fragments": _NO_EN},
        {"name": "start", "fragments": ["start", "init", "go"], "objectives": [_A]},
        {"name": "done", "fragments": ["done", "finish", "complete"], "objectives": [_I]},
        {"name": "ready", "fragments": ["ready", "rdy"], "objectives": [_I]},
        {"name": "busy", "fragments": ["busy"], "objectives": [_I]},
        {"name": "valid", "fragments": ["valid", "vld"], "objectives": [_I]},
        {"name": "load", "fragments": ["load"], "objectives": [_A],
         "exclude_fragments": ["upload", "download"]},
        {"name": "mode", "fragments": ["mode", "sel", "cfg", "ctl", "ctrl"],
         "objectives": [_A, _I]},
    ], "rules": [
        {"name": "encryption-key", "groups": ["key"], "patterns": ["Data"],
         "min_width": 64, "objectives": [_C]},
        {"name": "iv-seed", "groups": ["iv", "seed"], "patterns": ["Data"],
         "min_width": 8, "objectives": [_C, _I]},
        {"name": "text-data", "groups": ["text", "data", "key", "round"],
         "patterns": ["Data"], "min_width": 8, "objectives": [_C]},
        {"name": "crypto-control", "groups": ["enable", "start", "load", "done", "ready",
                                              "valid", "busy", "mode"],
         "patterns": ["Control"], "max_width": 1, "objectives": [_A]},
        {"name": "crypto-config", "groups": ["mode", "round", "data"],
         "patterns": ["Configuration"], "min_width": 2, "max_width": 8,
         "objectives": [_A, _I]},
        {"name": "crypto-status", "groups": ["done", "ready", "busy", "valid"],
         "patterns": ["Status"], "max_width": 1, "objectives": [_I]},
    ]},
    "gpio": {"version": 1, "family": "gpio", "groups": [
        {"name": "data", "fragments": ["data", "rdata", "wdata"], "objectives": [_C, _I]},
        {"name": "pad", "fragments": ["pad"], "objectives": [_I]},
        {"name": "port", "fragments": ["port", "pin", "gpio"], "objectives": [_I]},
        {"name": "oe", "fragments": ["oe", "oen"], "objectives": [_A, _I]},
        {"name": "enable", "fragments": ["en", "ena"], "objectives": [_A],
         "exclude_fragments": _NO_EN},
        {"name": "dir", "fragments": ["dir"], "objectives": [_A, _I]},
        {"name": "irq", "fragments": ["irq", "intr"], "objectives": [_A]},
        {"name": "out", "fragments": ["out"], "objectives": [_I],
         "exclude_fragments": ["timeout"]},
        {"name": "in", "fragments": ["in"], "objectives": [_I],
         "exclude_fragments": ["int", "init"]},
    ], "rules": [
        {"name": "port-data", "groups": ["data", "pad", "port", "out", "in"],
         "patterns": ["Data"], "min_width": 8, "max_width": 64, "objectives": [_C, _I]},
        {"name": "direction-oe", "groups": ["oe", "dir", "enable"],
         "patterns": ["Control", "Configuration", "Data"], "objectives": [_A, _I]},
        {"name": "gpio-control", "groups": ["enable", "irq", "port", "pad"],
         "patterns": ["Control"], "max_width": 1, "objectives": [_A]},
        {"name": "gpio-config", "groups": ["dir", "oe", "port"],
         "patterns": ["Configuration"], "min_width": 2, "objectives": [_A, _I]},
        {"name": "gpio-status", "groups": ["irq", "out", "in", "port", "pad"],
         "patterns": ["Status"], "objectives": [_I]},
    ]},
    "peripheral": {"version": 1, "family": "peripheral", "groups": [
        {"name": "tx", "fragments": ["tx"], "objectives": [_C, _I]},
        {"name": "rx", "fragments": ["rx"], "objectives": [_C, _I]},
        {"name": "data", "fragments": ["data", "din", "dout"], "objectives": [_C],
         "exclude_fragments": ["ding"]},
        {"name": "enable", "fragments": ["en"], "objectives": [_A],
         "exclude_fragments": _NO_EN},
        {"name": "busy", "fragments": ["busy"], "objectives": [_I]},
        {"name": "ready", "fragments": ["ready", "rdy"], "objectives": [_I]},
        {"name": "valid", "fragments": ["valid", "vld"], "objectives": [_I]},
        {"name": "addr", "fragments": ["addr", "adr"], "objectives": [_I]},
        {"name": "cs", "fragments": ["cs", "ss"], "objectives": [_A]},
        {"name": "sel", "fragments": ["sel"], "objectives": [_A, _I]},
        {"name": "irq", "fragments": ["irq", "intr"], "objectives": [_A]},
    ], "rules": [
        {"name": "txrx-data", "groups": ["tx", "rx", "data"], "patterns": ["Data"],
         "min_width": 2, "objectives": [_C]},
        {"name": "bus-address", "groups": ["addr"], "patterns": ["Data", "Configuration"],
         "min_width": 2, "objectives": [_I]},
        {"name": "bus-control", "groups": ["enable", "cs", "sel", "irq", "ready", "valid",
                                           "busy", "tx", "rx"],
         "patterns": ["Control"], "max_width": 1, "objectives": [_A]},
        {"name": "bus-config", "groups": ["sel", "cs", "addr", "data"],
         "patterns": ["Configuration"], "min_width": 2, "max_width": 8,
         "objectives": [_A, _I]},
        {"name": "bus-status", "groups": ["ready", "busy", "valid", "irq", "tx", "rx"],
         "patterns": ["Status"], "objectives": [_I]},
    ]},
}
