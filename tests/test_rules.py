"""Family rule filtering over important elements."""

import pytest

from assetscout.design import build_database
from assetscout.keywords import ClassificationRule, ConfigError, load_family_config
from assetscout.matcher import match_elements
from assetscout.patterns import classify_design
from assetscout.rules import apply_family_rules, rule_applies

from conftest import MINI_CORPUS, build_db, parse_tree


def pipeline_to_candidates(source, family):
    config = load_family_config(family)
    db = build_db(source)
    important = match_elements(db, config)
    behaviors = classify_design(db)
    return important, behaviors, config, \
        apply_family_rules(important, behaviors, config)


KEY_MODULE = """
module km (input clk, input [127:0] key, output reg [127:0] state);
  always @(posedge clk) begin
    state <= state ^ key;
  end
endmodule
"""


def test_encryption_key_rule_matches_wide_key():
    _imp, _beh, _cfg, candidates = pipeline_to_candidates(KEY_MODULE, "crypto")
    key = next(c for c in candidates if c.signal.name == "key")
    assert key.matched_rule == "encryption-key"
    assert "Data" in key.patterns
    assert "Confidentiality" in key.objectives


def test_narrow_key_is_not_encryption_key():
    source = KEY_MODULE.replace("[127:0]", "[7:0]")
    _imp, _beh, _cfg, candidates = pipeline_to_candidates(source, "crypto")
    key = next((c for c in candidates if c.signal.name == "key"), None)
    assert key is None or key.matched_rule != "encryption-key"


def test_gpio_port_data_rule():
    source = """
    module g (input clk, input wr, input [15:0] wdata, output reg [15:0] rdata);
      always @(posedge clk) begin
        if (wr) begin
          rdata <= wdata;
        end
      end
    endmodule
    """
    _imp, _beh, _cfg, candidates = pipeline_to_candidates(source, "gpio")
    names = {c.signal.name: c.matched_rule for c in candidates}
    assert names.get("rdata") == "port-data"
    assert "wdata" in names


def test_unused_enable_without_control_pattern_is_dropped():
    source = """
    module e (input clk, input enable_led, output reg [7:0] data_out);
      always @(posedge clk) begin
        data_out <= data_out + 8'd1;
      end
    endmodule
    """
    _imp, _beh, _cfg, candidates = pipeline_to_candidates(source, "crypto")
    assert "enable_led" not in {c.signal.name for c in candidates}


def test_empty_important_list():
    config = load_family_config("crypto")
    assert apply_family_rules([], {}, config) == []


def test_candidates_narrow_important():
    db = build_database(parse_tree(MINI_CORPUS))
    for family in ("crypto", "gpio", "peripheral"):
        config = load_family_config(family)
        important = match_elements(db, config)
        behaviors = classify_design(db)
        candidates = apply_family_rules(important, behaviors, config)
        assert len(candidates) <= len(important) <= db.signal_count


def test_rules_are_recheckable():
    db = build_database(parse_tree(MINI_CORPUS))
    for family in ("crypto", "gpio", "peripheral"):
        config = load_family_config(family)
        important = match_elements(db, config)
        by_ref = {(e.module, e.signal.name): e for e in important}
        behaviors = classify_design(db)
        for cand in apply_family_rules(important, behaviors, config):
            rule = next(r for r in config.rules if r.name == cand.matched_rule)
            element = by_ref[cand.ref]
            assert rule_applies(rule, element, cand.patterns)


def test_one_candidate_per_signal():
    db = build_database(parse_tree(MINI_CORPUS))
    config = load_family_config("crypto")
    candidates = apply_family_rules(match_elements(db, config),
                                    classify_design(db), config)
    refs = [c.ref for c in candidates]
    assert len(refs) == len(set(refs))


def test_first_match_wins_attribution():
    _imp, _beh, _cfg, candidates = pipeline_to_candidates(KEY_MODULE, "crypto")
    key = next(c for c in candidates if c.signal.name == "key")
    # "key" also satisfies the later text-data rule; the earlier rule is kept
    assert key.matched_rule == "encryption-key"


def test_default_rules_contents():
    crypto = load_family_config("crypto").rules
    enc = next(r for r in crypto if r.name == "encryption-key")
    assert enc.min_width == 64
    assert "Data" in enc.patterns
    gpio = load_family_config("gpio").rules
    data_rules = [r for r in gpio if "Data" in r.patterns]
    assert any(r.max_width is not None and r.max_width >= 32 for r in data_rules)
    peripheral = load_family_config("peripheral").rules
    assert any("Data" in r.patterns and r.min_width >= 2 for r in peripheral)


def test_default_rules_unknown_family():
    with pytest.raises(ConfigError):
        load_family_config("dsp")


def test_unresolved_width_passes_small_minimum_only():
    source = """
    module u (input clk, input [W-1:0] key, output reg [7:0] q);
      always @(posedge clk) begin
        q <= key[7:0];
      end
    endmodule
    """
    config = load_family_config("crypto")
    db = build_db(source)
    important = match_elements(db, config)
    behaviors = classify_design(db)
    key_element = next(e for e in important if e.signal.name == "key")
    assert key_element.signal.width_bits is None
    wide_rule = ClassificationRule(
        name="wide", groups=["key"], patterns=["Data"], min_width=64)
    narrow_rule = ClassificationRule(
        name="narrow", groups=["key"], patterns=["Data"], min_width=2)
    patterns = behaviors["u"].patterns_of("key")
    assert "Data" in patterns
    assert not rule_applies(wide_rule, key_element, patterns)
    assert rule_applies(narrow_rule, key_element, patterns)


def test_objectives_union_rule_and_groups():
    _imp, _beh, config, candidates = pipeline_to_candidates(KEY_MODULE, "crypto")
    key = next(c for c in candidates if c.signal.name == "key")
    rule = next(r for r in config.rules if r.name == key.matched_rule)
    expected = set(rule.objectives)
    for gname in key.matched_groups:
        expected |= set(config.group(gname).objectives)
    assert set(key.objectives) == expected
