"""Stage 4: family-specific classification rules over matched elements."""

from typing import Dict, List, Optional, Sequence, Tuple

from .keywords import ClassificationRule, FamilyConfig
from .matcher import ImportantElement
from .patterns import BehaviorClassification
from .syntax import INOUT, INPUT, OUTPUT, Record, SignalDecl


class CandidateAsset(Record):
    _fields = ("module", "signal", "matched_rule", "patterns", "objectives",
               "matched_groups")

    def __init__(self, module: str, signal: SignalDecl, matched_rule: str,
                 patterns: List[str], objectives: List[str],
                 matched_groups: List[str]) -> None:
        self.module = module
        self.signal = signal
        self.matched_rule = matched_rule
        self.patterns = patterns
        self.objectives = objectives
        self.matched_groups = matched_groups

    @property
    def ref(self):
        return (self.module, self.signal.name)


def _direction_matches(decl: SignalDecl, allowed: Sequence[str]) -> bool:
    if decl.direction == INOUT:
        return INPUT in allowed or OUTPUT in allowed
    return decl.direction in allowed


# an unresolved width is Narrow: some width in 2..8
_UNRESOLVED = (2, 8)


def _width_matches(decl: SignalDecl, rule: ClassificationRule) -> bool:
    """The rule's [min_width, max_width] band overlaps the declaration's."""
    low, high = _UNRESOLVED if decl.width_bits is None else (decl.width_bits,) * 2
    return rule.min_width <= high and (rule.max_width is None or low <= rule.max_width)


def rule_applies(rule: ClassificationRule, element: ImportantElement,
                 patterns: Sequence[str]) -> bool:
    """Re-checkable predicate: group, pattern, direction and width gates."""
    if not any(g in rule.groups for g in element.group_names):
        return False
    if not any(p in rule.patterns for p in patterns):
        return False
    if not _direction_matches(element.signal, rule.directions):
        return False
    return _width_matches(element.signal, rule)


def _first_rule(element: ImportantElement, patterns: Sequence[str],
                config: FamilyConfig) -> Optional[Tuple[str, List[str]]]:
    """The first rule `element` satisfies and its sorted objectives: the
    rule's plus those of every matched keyword group."""
    for rule in config.rules:
        if not rule_applies(rule, element, patterns):
            continue
        objectives = list(rule.objectives)
        for gname in element.group_names:
            group = config.group(gname)
            if group is None:
                continue
            for obj in group.objectives:
                if obj not in objectives:
                    objectives.append(obj)
        return rule.name, sorted(objectives)
    return None


def apply_family_rules(important: Sequence[ImportantElement],
                       behaviors: Dict[str, BehaviorClassification],
                       config: FamilyConfig) -> List[CandidateAsset]:
    """Emit one CandidateAsset per element satisfying at least one rule.

    Rules are ordered; the first satisfied rule is recorded and a signal is
    emitted at most once.  The verdict depends on the element's groups,
    patterns, direction and width alone, so it is decided once per shape.
    """
    verdicts: Dict[tuple, Optional[Tuple[str, List[str]]]] = {}
    out: List[CandidateAsset] = []
    for element in important:
        behavior = behaviors.get(element.module)
        patterns = behavior.patterns_of(element.signal.name) if behavior else []
        decl = element.signal
        shape = (tuple(element.group_names), tuple(patterns),
                 decl.direction, decl.width_bits)
        if shape not in verdicts:
            verdicts[shape] = _first_rule(element, patterns, config)
        verdict = verdicts[shape]
        if verdict is not None:
            out.append(CandidateAsset(
                module=element.module,
                signal=decl,
                matched_rule=verdict[0],
                patterns=patterns,
                objectives=list(verdict[1]),
                matched_groups=element.group_names,
            ))
    return out
