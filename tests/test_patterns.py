"""Behavioral classification: Control / Configuration / Status / Data."""

from assetscout.parser import parse_source
from assetscout.design import build_database
from assetscout.patterns import PATTERNS, classify_behaviors, classify_design

from conftest import MINI_CORPUS, parse_tree
from fixtures_rtl import AB_SOURCE, BEHAVIOR_CASES


def sets_of(behavior):
    return {
        "control": sorted(behavior.control),
        "configuration": sorted(behavior.configuration),
        "status": sorted(behavior.status),
        "data": sorted(behavior.data),
    }


def test_splitter_exact_sets(splitter_unit):
    behavior = classify_behaviors(splitter_unit.modules[0])
    assert sets_of(behavior) == {
        "control": ["done0", "done1", "done2", "done3", "load"],
        "configuration": ["bank_selector"],
        "status": ["done"],
        "data": ["bank0", "bank1", "bank2", "bank3", "data"],
    }


def test_splitter_data_in_reg_unclassified(splitter_unit):
    behavior = classify_behaviors(splitter_unit.modules[0])
    for bucket in (behavior.control, behavior.configuration,
                   behavior.status, behavior.data):
        assert "data_in_reg" not in bucket


def test_behavior_micro_cases():
    for name, source, expected in BEHAVIOR_CASES:
        module = parse_source(source, name).modules[0]
        behavior = classify_behaviors(module)
        want = {key: sorted(val) for key, val in expected.items()}
        assert sets_of(behavior) == want, name


def test_classify_design_keys(splitter_db):
    by_module = classify_design(splitter_db)
    assert list(by_module) == ["data_splitter"]


def test_empty_body_module():
    module = parse_source("module m (input a, output y);\nendmodule\n").modules[0]
    behavior = classify_behaviors(module)
    assert sets_of(behavior) == {
        "control": [], "configuration": [], "status": [], "data": [],
    }


def test_locality_of_classification():
    both = parse_source(AB_SOURCE, "ab.v")
    child_alone = parse_source(
        AB_SOURCE.split("module top_b")[0], "a_only.v").modules[0]
    child_in_pair = both.modules[0]
    assert sets_of(classify_behaviors(child_alone)) == \
        sets_of(classify_behaviors(child_in_pair))


def test_evidence_backs_every_classification(splitter_unit):
    module = splitter_unit.modules[0]
    behavior = classify_behaviors(module)
    classified = set(behavior.control) | set(behavior.configuration) \
        | set(behavior.status) | set(behavior.data)
    for name in classified:
        entries = behavior.evidence.get(name)
        assert entries, name
        for line, _kind, role in entries:
            stmts = [s for s in module.statements if s.line == line]
            pools = {"condition": [i for s in stmts for i in s.cond_idents],
                     "lhs": [i for s in stmts for i in s.lhs_idents],
                     "rhs": [i for s in stmts for i in s.rhs_idents]}
            assert name in pools[role], (name, line, role)


def test_width_gates_hold_on_corpus():
    db = build_database(parse_tree(MINI_CORPUS))
    for module_name, behavior in classify_design(db).items():
        module = db.modules_by_name[module_name]
        for name in behavior.control:
            assert module.signal(name).width_bits == 1, (module_name, name)
        for name in behavior.configuration + behavior.data:
            bits = module.signal(name).width_bits
            assert bits is None or bits >= 2, (module_name, name)
        for name in behavior.status:
            assert module.signal(name).width_bits == 1, (module_name, name)


def test_patterns_of_matches_buckets():
    db = build_database(parse_tree(MINI_CORPUS))
    for module_name, behavior in classify_design(db).items():
        buckets = (behavior.control, behavior.configuration,
                   behavior.status, behavior.data)
        for bucket in buckets:
            assert len(bucket) == len(set(bucket)), module_name
        mod = db.modules_by_name[module_name]
        for decl in mod.ports + mod.nets:
            want = [p for p, bucket in zip(PATTERNS, buckets) if decl.name in bucket]
            assert behavior.patterns_of(decl.name) == want, (module_name, decl.name)
