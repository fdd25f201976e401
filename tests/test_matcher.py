"""Partial-keyword matching: production matcher vs naive oracle."""

from typing import List, Tuple

from hypothesis import given, settings
from hypothesis import strategies as st

import assetscout.matcher
from assetscout.design import build_database
from assetscout.keywords import CLOCK_RESET_NAMES, FamilyConfig, load_family_config
from assetscout.matcher import match_elements

from conftest import MINI_CORPUS, build_db, parse_tree

CONFIGS = {name: load_family_config(name)
           for name in ("crypto", "gpio", "peripheral")}


def match_oracle(name: str, config: FamilyConfig) -> List[Tuple[str, str, int]]:
    """Naive reference matcher used for equivalence testing.

    Returns the (group, fragment, offset) hits, in config order, fragment
    order, then offset, by scanning every offset of the name for every
    fragment of every group, applying the same exclusion semantics: what
    `match_elements` must give as an element's `matched_groups`.
    """
    lower = name.lower()
    if lower in config.exclusion_set():
        return []
    hits = []
    for group in config.groups:
        for frag in group.fragments:
            for off in range(len(lower) - len(frag) + 1):
                if lower[off:off + len(frag)] != frag:
                    continue
                inside_exclusion = False
                for excl in group.exclude_fragments:
                    for eoff in range(len(lower) - len(excl) + 1):
                        if lower[eoff:eoff + len(excl)] == excl \
                                and eoff <= off \
                                and off + len(frag) <= eoff + len(excl):
                            inside_exclusion = True
                if not inside_exclusion:
                    hits.append((group.name, frag, off))
    return hits


identifiers = st.text(
    alphabet="abcdefghijklmnopqrstuvwxyz0123456789_", min_size=0, max_size=24)


def hits_for(name, config):
    """The `matched_groups` of a port `name`, or [] when it is unmatched."""
    db = build_db(f"module m (input {name});\nendmodule\n")
    for element in match_elements(db, config):
        if element.signal.name == name:
            return element.matched_groups
    return []


def groups_for(name, config):
    return {group for group, _frag, _off in hits_for(name, config)}


def test_key_rounding_enable_matches_three_groups():
    assert groups_for("key_rounding_enable", CONFIGS["crypto"]) == {
        "key", "round", "enable",
    }


def test_clock_and_reset_are_excluded():
    db = build_db("""
        module m (input clk, input rst_n, input i_clock, input key);
        endmodule
    """)
    names = {e.signal.name for e in match_elements(db, CONFIGS["crypto"])}
    assert names == {"key"}


def test_unmatched_name_is_absent():
    assert groups_for("xyzzy", CONFIGS["crypto"]) == set()


def test_oracle_write_en():
    assert ("enable", "en", 6) in match_oracle("write_en", CONFIGS["crypto"])


def test_oracle_empty_name():
    for config in CONFIGS.values():
        assert match_oracle("", config) == []


def test_exclude_fragment_suppresses_contained_match():
    crypto = CONFIGS["crypto"]
    # "en" inside "end" is noise; "en" inside "enable" is a real hit
    assert "enable" not in {g for g, _f, _o in match_oracle("backend", crypto)}
    assert "enable" in {g for g, _f, _o in match_oracle("wen_end", crypto)}


def test_match_offsets_are_sound():
    units = parse_tree(MINI_CORPUS)
    db = build_database(units)
    for family, config in CONFIGS.items():
        for element in match_elements(db, config):
            lower = element.signal.name.lower()
            assert element.matched_groups, element.signal.name
            for _group, frag, offset in element.matched_groups:
                assert lower[offset:offset + len(frag)] == frag


def test_no_important_element_is_clock_reset():
    units = parse_tree(MINI_CORPUS)
    db = build_database(units)
    for config in CONFIGS.values():
        for element in match_elements(db, config):
            assert element.signal.name.lower() not in CLOCK_RESET_NAMES


def test_output_ordered_by_module_then_line():
    units = parse_tree(MINI_CORPUS)
    db = build_database(units)
    elements = match_elements(db, CONFIGS["crypto"])
    keys = [(e.module, e.signal.decl_line) for e in elements]
    assert keys == sorted(keys)


@settings(max_examples=300, deadline=None)
@given(name=identifiers)
def test_oracle_equivalence_property(name):
    from assetscout.tokenizer import RESERVED_WORDS
    if not name or name[0].isdigit() or name in RESERVED_WORDS:
        return  # not a declarable identifier
    for config in CONFIGS.values():
        assert hits_for(name, config) == match_oracle(name, config)


def test_oracle_equivalence_on_corpus_names():
    units = parse_tree(MINI_CORPUS)
    db = build_database(units)
    for config in CONFIGS.values():
        for element in match_elements(db, config):
            assert element.matched_groups == \
                match_oracle(element.signal.name, config), element.signal.name


def test_groups_are_tried_only_on_names_holding_a_fragment(seed1_workload,
                                                           monkeypatch):
    # seed-1 hier_soc: 3,176 names and 14 groups, 44,464 group tries
    # without the fragment prefilter, 1,824 with it
    args, units = seed1_workload("hier_soc")
    db = build_database(units)
    config = load_family_config(args[args.index("--family") + 1])
    excluded = config.exclusion_set()
    names = [decl.name.lower() for mod in db.modules_by_name.values()
             for decl in mod.signals() if decl.name.lower() not in excluded]
    holding = sum(any(frag in name for frag in group.fragments)
                  for name in names for group in config.groups)
    calls = []
    original = assetscout.matcher.fragment_matches
    monkeypatch.setattr(assetscout.matcher, "fragment_matches",
                        lambda *args: calls.append(1) or original(*args))
    important = match_elements(db, config)
    assert important and len(calls) <= holding
    assert holding < len(names) * len(config.groups) / 10
