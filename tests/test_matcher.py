"""Partial-keyword matching: production matcher vs naive oracle."""

from typing import List, Tuple

from hypothesis import given, settings
from hypothesis import strategies as st

from assetscout.design import build_database
from assetscout.keywords import CLOCK_RESET_NAMES, FamilyConfig, load_family_config
from assetscout.matcher import match_elements

from conftest import MINI_CORPUS, build_db, parse_tree

CONFIGS = {name: load_family_config(name)
           for name in ("crypto", "gpio", "peripheral")}


def match_oracle(name: str, config: FamilyConfig) -> List[Tuple[str, str]]:
    """Naive reference matcher used for equivalence testing.

    Returns (group, fragment) pairs by scanning every offset of the name for
    every fragment of every group, applying the same exclusion semantics.
    """
    lower = name.lower()
    if lower in config.exclusion_set():
        return []
    pairs = []
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
                if not inside_exclusion and (group.name, frag) not in pairs:
                    pairs.append((group.name, frag))
    return pairs


identifiers = st.text(
    alphabet="abcdefghijklmnopqrstuvwxyz0123456789_", min_size=0, max_size=24)


def groups_for(name, config):
    db = build_db(f"module m (input {name});\nendmodule\n")
    for element in match_elements(db, config):
        if element.signal.name == name:
            return set(element.group_names)
    return set()


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
    assert ("enable", "en") in match_oracle("write_en", CONFIGS["crypto"])


def test_oracle_empty_name():
    for config in CONFIGS.values():
        assert match_oracle("", config) == []


def test_exclude_fragment_suppresses_contained_match():
    crypto = CONFIGS["crypto"]
    # "en" inside "end" is noise; "en" inside "enable" is a real hit
    assert "enable" not in {g for g, _f in match_oracle("backend", crypto)}
    assert "enable" in {g for g, _f in match_oracle("wen_end", crypto)}


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
        oracle = {group for group, _frag in match_oracle(name, config)}
        expected = set() if name.lower() in config.exclusion_set() else oracle
        assert groups_for(name, config) == expected


def test_oracle_equivalence_on_corpus_names():
    units = parse_tree(MINI_CORPUS)
    db = build_database(units)
    for config in CONFIGS.values():
        by_name = {}
        for element in match_elements(db, config):
            by_name[(element.module, element.signal.name)] = set(element.group_names)
        for (module, name), groups in by_name.items():
            oracle = {g for g, _f in match_oracle(name, config)}
            assert groups == oracle, (module, name)
