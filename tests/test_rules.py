"""Family rule filtering over important elements."""

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

import assetscout.rules
from assetscout.design import build_database
from assetscout.keywords import (
    BUILTIN_FAMILIES, ClassificationRule, ConfigError, load_family_config,
)
from assetscout.matcher import ImportantElement, match_elements
from assetscout.patterns import PATTERNS, BehaviorClassification, classify_design
from assetscout.rules import CandidateAsset, apply_family_rules, rule_applies
from assetscout.syntax import INOUT, INPUT, NET, OUTPUT, SignalDecl

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
        name="wide", groups=["key"], patterns=["Data"],
        directions=["Input", "Output", "Net"], min_width=64, max_width=None,
        objectives=[])
    narrow_rule = ClassificationRule(
        name="narrow", groups=["key"], patterns=["Data"],
        directions=["Input", "Output", "Net"], min_width=2, max_width=None,
        objectives=[])
    patterns = behaviors["u"].patterns_of("key")
    assert "Data" in patterns
    assert not rule_applies(wide_rule, key_element, patterns)
    assert rule_applies(narrow_rule, key_element, patterns)


@pytest.mark.parametrize("min_width, max_width, applies", [
    (1, 1, False),  # a Single rule: an unresolved width is no flag
    (1, 2, True), (8, None, True), (8, 8, True), (9, None, False), (64, None, False),
])
def test_unresolved_width_reads_as_the_narrow_band(min_width, max_width, applies):
    db = build_db("module u (input clk, input [W-1:0] key, output reg [7:0] q);\n"
                  "  always @(posedge clk) q <= key[7:0];\nendmodule\n")
    key_element = next(e for e in match_elements(db, load_family_config("crypto"))
                        if e.signal.name == "key")
    assert key_element.signal.width_bits is None
    rule = ClassificationRule(
        name="custom", groups=["key"], patterns=["Data"], directions=["Input"],
        min_width=min_width, max_width=max_width, objectives=[])
    assert rule_applies(rule, key_element, ["Data"]) == applies


def test_objectives_union_rule_and_groups():
    _imp, _beh, config, candidates = pipeline_to_candidates(KEY_MODULE, "crypto")
    key = next(c for c in candidates if c.signal.name == "key")
    rule = next(r for r in config.rules if r.name == key.matched_rule)
    expected = set(rule.objectives)
    for gname in key.matched_groups:
        expected |= set(config.group(gname).objectives)
    assert set(key.objectives) == expected


def first_match_oracle(important, behaviors, config):
    """The per-element loop that `apply_family_rules` replaced: every rule
    tried on every element until one applies."""
    out = []
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
            out.append(CandidateAsset(element.module, element.signal, rule.name,
                                      patterns, sorted(objectives),
                                      element.group_names))
            break
    return out


def _gate_widths(config):
    """None, 1, and each width bound of the config's rules with its two
    neighbours."""
    bounds = {w for rule in config.rules for w in (rule.min_width, rule.max_width)
              if w is not None}
    return [None] + sorted({1} | {b + d for b in bounds for d in (-1, 0, 1) if b + d > 0})


@settings(max_examples=300, deadline=None)
@given(family=st.sampled_from(sorted(BUILTIN_FAMILIES)), data=st.data())
def test_one_verdict_per_shape_equals_first_match_per_element(family, data):
    # small pools of group lists, pattern lists and widths make elements
    # that share a shape, or differ from one in a single field; module "c"
    # has no behaviour classification, so its elements have no patterns.
    # Every builtin rule takes every direction, so some examples narrow them
    config = load_family_config(family)
    if data.draw(st.booleans()):
        for rule in config.rules:
            rule.directions = data.draw(st.lists(
                st.sampled_from([INPUT, OUTPUT, NET]), min_size=1, max_size=2,
                unique=True))
    names = [g.name for g in config.groups] + ["unlisted"]
    group_lists = data.draw(st.lists(st.lists(
        st.sampled_from(names), min_size=1, max_size=3, unique=True),
        min_size=1, max_size=3))
    pattern_lists = data.draw(st.lists(st.lists(
        st.sampled_from(PATTERNS), max_size=3, unique=True), min_size=1, max_size=3))
    widths = data.draw(st.lists(st.sampled_from(_gate_widths(config)),
                                min_size=1, max_size=3))
    picks = data.draw(st.lists(st.tuples(
        st.sampled_from("abc"), st.sampled_from(group_lists),
        st.sampled_from(pattern_lists), st.sampled_from([INPUT, OUTPUT, INOUT, NET]),
        st.sampled_from(widths)), max_size=40))
    behaviors = {module: BehaviorClassification(module) for module in "ab"}
    important = []
    for k, (module, groups, patterns, direction, width) in enumerate(picks):
        name = f"s{k}"
        if module in behaviors:
            for pattern in patterns:
                behaviors[module]._add(pattern, name, (k, "assign", "lhs"))
        important.append(ImportantElement(
            module, SignalDecl(name, direction, width, k),
            [(group, group, 0) for group in groups]))
    candidates = apply_family_rules(important, behaviors, config)
    assert candidates == first_match_oracle(important, behaviors, config)
    assert len({id(c.objectives) for c in candidates}) == len(candidates)


def test_rules_are_tried_once_per_signal_shape(seed1_workload, monkeypatch):
    # seed-1 hier_soc: 1,824 important signals in 21 shapes, 6 rules; a
    # search per element tried a rule 1,824 to 10,944 times, here it is 78
    args, units = seed1_workload("hier_soc")
    db = build_database(units)
    config = load_family_config(args[args.index("--family") + 1])
    important = match_elements(db, config)
    behaviors = classify_design(db)
    shapes = {(tuple(e.group_names), tuple(behaviors[e.module].patterns_of(e.signal.name)),
               e.signal.direction, e.signal.width_bits) for e in important}
    calls = []
    original = assetscout.rules.rule_applies
    monkeypatch.setattr(assetscout.rules, "rule_applies",
                        lambda *args: calls.append(1) or original(*args))
    candidates = apply_family_rules(important, behaviors, config)
    assert len(important) > 20 * len(shapes)
    assert candidates and len(calls) <= len(shapes) * len(config.rules)
