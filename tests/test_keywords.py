"""Family config loading, validation, and keyword occurrence counts."""

import json

import pytest

from assetscout.keywords import (
    BUILTIN_FAMILIES, CLOCK_RESET_NAMES, CONFIG_SCHEMA_VERSION, ConfigError,
    FamilyConfig, PartialKeywordGroup, clock_reset_closure, load_family_config,
)
from assetscout.matcher import (
    count_keyword_occurrences, fragment_matches, match_elements,
)
from assetscout.design import build_database

from conftest import MINI_CORPUS, build_db, parse_tree


def test_builtin_families_load_and_validate():
    for name in BUILTIN_FAMILIES:
        cfg = load_family_config(name)
        assert cfg.family == name
        assert cfg.groups
        assert cfg.rules


def test_crypto_contains_documented_fragments():
    cfg = load_family_config("crypto")
    all_fragments = {f for g in cfg.groups for f in g.fragments}
    assert "text" in all_fragments
    assert "key" in all_fragments
    enable = cfg.group("enable")
    assert enable is not None
    assert "en" in enable.fragments


def test_every_group_has_objectives():
    for name in BUILTIN_FAMILIES:
        for group in load_family_config(name).groups:
            assert group.objectives


def test_clock_reset_closure_variants():
    closure = clock_reset_closure()
    for name in ("clk", "clock", "rst", "reset", "rst_n", "rstn",
                 "reset_n", "resetn", "i_clk", "o_rst_n"):
        assert name in closure
    assert "enable" not in closure
    assert closure == CLOCK_RESET_NAMES


def test_exclusions_always_cover_clock_reset():
    for name in BUILTIN_FAMILIES:
        excl = load_family_config(name).exclusion_set()
        assert {"clk", "clock", "rst", "reset"} <= excl


def test_empty_fragment_list_rejected():
    group = PartialKeywordGroup(name="bad", fragments=[],
                                objectives=["Integrity"])
    with pytest.raises(ConfigError, match="empty fragment"):
        group.validate()


def test_uppercase_fragment_rejected():
    group = PartialKeywordGroup(name="bad", fragments=["Key"],
                                objectives=["Integrity"])
    with pytest.raises(ConfigError, match="lowercase"):
        group.validate()


def test_missing_objectives_rejected():
    group = PartialKeywordGroup(name="bad", fragments=["key"], objectives=[])
    with pytest.raises(ConfigError, match="objectives"):
        group.validate()


def test_fragment_colliding_with_exclusion_rejected():
    cfg = FamilyConfig(
        family="user-defined",
        groups=[PartialKeywordGroup(name="g", fragments=["wire"],
                                    objectives=["Integrity"])],
    )
    with pytest.raises(ConfigError, match="collides"):
        cfg.validate()


def test_duplicate_group_names_rejected():
    group = PartialKeywordGroup(name="g", fragments=["ab"],
                                objectives=["Integrity"])
    cfg = FamilyConfig(family="user-defined", groups=[group, group])
    with pytest.raises(ConfigError, match="duplicate"):
        cfg.validate()


def test_save_load_round_trip(tmp_path):
    for name in BUILTIN_FAMILIES:
        cfg = load_family_config(name)
        path = tmp_path / f"{name}.json"
        cfg.save(str(path))
        reloaded = load_family_config(str(path))
        assert reloaded.to_dict() == cfg.to_dict()
        # a second save of the reload is byte-identical
        path2 = tmp_path / f"{name}2.json"
        reloaded.save(str(path2))
        assert path.read_bytes() == path2.read_bytes()


def test_old_group_keys_are_ignored(tmp_path):
    data = load_family_config("crypto").to_dict()
    for group in data["groups"]:
        group["directions"] = ["Input", "Net"]
        group["width_classes"] = ["Single"]
    path = tmp_path / "old.json"
    path.write_text(json.dumps(data))
    assert load_family_config(str(path)).to_dict() == load_family_config("crypto").to_dict()


def test_wrong_schema_version_rejected(tmp_path):
    cfg = load_family_config("crypto")
    data = cfg.to_dict()
    data["version"] = CONFIG_SCHEMA_VERSION + 1
    path = tmp_path / "bad.json"
    path.write_text(json.dumps(data))
    with pytest.raises(ConfigError, match="version"):
        load_family_config(str(path))


def test_malformed_config_file_rejected(tmp_path):
    path = tmp_path / "broken.json"
    path.write_text("{ not json")
    with pytest.raises(ConfigError):
        load_family_config(str(path))
    missing = tmp_path / "missing-field.json"
    missing.write_text(json.dumps({
        "version": CONFIG_SCHEMA_VERSION,
        "family": "user-defined",
        "groups": [{"name": "g"}],
    }))
    with pytest.raises(ConfigError, match="fragments"):
        load_family_config(str(missing))


def test_unreadable_config_file_rejected(tmp_path):
    with pytest.raises(ConfigError, match="cannot read"):
        load_family_config(str(tmp_path))
    binary = tmp_path / "binary.json"
    binary.write_bytes(b'{"version": 1, "family": "\xff"}')
    with pytest.raises(ConfigError, match="malformed"):
        load_family_config(str(binary))


def test_splitter_occurrence_counts(splitter_db):
    counts = count_keyword_occurrences(splitter_db, load_family_config("crypto"))
    # data, data_in_reg (plus the "bank" fragment hits in the same group)
    assert counts["data"] >= 2
    assert counts["load"] >= 1


def test_occurrences_multi_group_signal():
    db = build_db("module m (input key_enable);\nendmodule\n")
    counts = count_keyword_occurrences(db, load_family_config("crypto"))
    assert counts["key"] >= 1
    assert counts["enable"] >= 1


def test_occurrences_empty_module():
    db = build_db("module bare (input clk);\nendmodule\n")
    counts = count_keyword_occurrences(db, load_family_config("crypto"))
    assert all(v == 0 for v in counts.values())


def test_occurrences_are_the_group_tally_of_match_elements():
    db = build_database(parse_tree(MINI_CORPUS))
    for family in BUILTIN_FAMILIES:
        cfg = load_family_config(family)
        tally = {g.name: 0 for g in cfg.groups}
        for element in match_elements(db, cfg):
            for group in element.group_names:
                tally[group] += 1
        counts = count_keyword_occurrences(db, cfg)
        assert counts == tally
        assert list(counts) == [g.name for g in cfg.groups]
        # the same as matching each distinct name of each module
        direct = {g.name: 0 for g in cfg.groups}
        for mod in db.modules_by_name.values():
            for decl in mod.signals():
                lower = decl.name.lower()
                if lower in cfg.exclusion_set():
                    continue
                for group in cfg.groups:
                    if fragment_matches(lower, group):
                        direct[group.name] += 1
        assert counts == direct
        assert sum(counts.values()) > 0


def test_occurrences_monotone_in_modules():
    units = parse_tree(MINI_CORPUS)
    cfg = load_family_config("crypto")
    partial = count_keyword_occurrences(build_database(units[:2]), cfg)
    full = count_keyword_occurrences(build_database(units), cfg)
    for group, count in partial.items():
        assert full[group] >= count
