"""Stage 4: family-specific classification rules over matched elements."""

from typing import Dict, List, Sequence

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


def _width_matches(decl: SignalDecl, rule: ClassificationRule) -> bool:
    if decl.width_bits is None:
        # unresolved widths are Narrow by convention: only rules whose lower
        # bound fits in the 2..8 band can accept them
        return rule.min_width <= 8
    if decl.width_bits < rule.min_width:
        return False
    if rule.max_width is not None and decl.width_bits > rule.max_width:
        return False
    return True


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


def apply_family_rules(important: Sequence[ImportantElement],
                       behaviors: Dict[str, BehaviorClassification],
                       config: FamilyConfig) -> List[CandidateAsset]:
    """Emit one CandidateAsset per element satisfying at least one rule.

    Rules are ordered; the first satisfied rule is recorded and a signal is
    emitted at most once.  Objectives are the rule's plus those of every
    matched keyword group.
    """
    out: List[CandidateAsset] = []
    for element in important:
        behavior = behaviors.get(element.module)
        patterns = behavior.patterns_of(element.signal.name) if behavior else []
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
            out.append(CandidateAsset(
                module=element.module,
                signal=element.signal,
                matched_rule=rule.name,
                patterns=patterns,
                objectives=sorted(objectives),
                matched_groups=element.group_names,
            ))
            break
    return out
