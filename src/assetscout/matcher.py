"""Partial-keyword matching: reduce all extracted signals to the important set."""

from typing import Dict, List, Optional, Tuple

from .design import DesignDatabase
from .keywords import FamilyConfig, PartialKeywordGroup
from .syntax import Record, SignalDecl


class ImportantElement(Record):
    """A matched signal. `matched_groups` is fixed once matched, so
    `group_names`, its distinct groups in first-hit order, is computed here
    once; the rules stage reads it for every rule it tries."""
    _fields = ("module", "signal", "matched_groups")

    def __init__(self, module: str, signal: SignalDecl,
                 matched_groups: Optional[List[Tuple[str, str, int]]] = None) -> None:
        self.module = module
        self.signal = signal
        # (group name, fragment, offset of the match in the lowercased name)
        self.matched_groups = [] if matched_groups is None else matched_groups
        self.group_names: List[str] = list(dict.fromkeys(
            group for group, _frag, _off in self.matched_groups))


def _occurrences(haystack: str, needle: str) -> List[int]:
    out = []
    start = 0
    while True:
        idx = haystack.find(needle, start)
        if idx < 0:
            return out
        out.append(idx)
        start = idx + 1


def _suppressed(offset: int, length: int, name: str,
                exclude_fragments: List[str]) -> bool:
    """A match is suppressed when it lies wholly inside an excluded token."""
    for excl in exclude_fragments:
        for eoff in _occurrences(name, excl):
            if eoff <= offset and offset + length <= eoff + len(excl):
                return True
    return False


def fragment_matches(lower_name: str, group: PartialKeywordGroup) -> List[Tuple[str, int]]:
    """All (fragment, offset) hits of a group in a lowercased signal name."""
    hits = []
    for frag in group.fragments:
        if frag not in lower_name:
            continue
        for off in _occurrences(lower_name, frag):
            if not _suppressed(off, len(frag), lower_name, group.exclude_fragments):
                hits.append((frag, off))
    return hits


def match_elements(db: DesignDatabase, config: FamilyConfig) -> List[ImportantElement]:
    """Stage 2: every signal with at least one partial-keyword match.

    Each name is seen once, as `ModuleDef.signal` resolves it. Clock/reset
    variants and reserved words are excluded up front; output is ordered by
    (module name, declaration line, signal name).
    """
    exclusions = config.exclusion_set()
    out: List[ImportantElement] = []
    for mod_name in sorted(db.modules_by_name):
        mod = db.modules_by_name[mod_name]
        decls = sorted(mod.signals(), key=lambda d: (d.decl_line, d.name))
        for decl in decls:
            lower = decl.name.lower()
            if lower in exclusions:
                continue
            matched: List[Tuple[str, str, int]] = []
            for group in config.groups:
                for frag, off in fragment_matches(lower, group):
                    matched.append((group.name, frag, off))
            if matched:
                out.append(ImportantElement(mod_name, decl, matched))
    return out


def count_keyword_occurrences(db: DesignDatabase, config: FamilyConfig) -> Dict[str, int]:
    """Per-group count of the `match_elements` that the group matched.

    Signals hit by the global exclusions are not counted; a signal matching
    several groups contributes to each of them.
    """
    counts = {g.name: 0 for g in config.groups}
    for element in match_elements(db, config):
        for group in element.group_names:
            counts[group] += 1
    return counts
