"""Acceptance gate: one test (and one printed PASS/FAIL line) per criterion.

Run with `pytest -v -s tests/test_acceptance.py` to see the per-criterion
lines. Each test is self-contained and pins its own tolerances.
"""

import json
import os
import random
import time
from fractions import Fraction

from assetscout.design import build_connectivity, build_database
from assetscout.evaluation import EvalResult
from assetscout.keywords import load_family_config
from assetscout.matcher import match_elements
from assetscout.parser import parse_source
from assetscout.patterns import classify_behaviors
from assetscout.refine import refine, traversal_graph
from assetscout.report import run_pipeline
from assetscout.rules import CandidateAsset
from assetscout.tokenizer import RESERVED_WORDS

from conftest import CORPUS_FAMILIES, MINI_CORPUS, SPLITTER_DIR
from fixtures_rtl import AB_SOURCE, BEHAVIOR_CASES, NET_EXPANSION_SOURCE, SECONDARY_NET_SOURCE
from test_matcher import match_oracle


def _verdict(name, ok):
    print(f"{'PASS' if ok else 'FAIL'}: {name}")
    assert ok, name


def test_golden_splitter_pipeline():
    """Full pipeline on the four-bank splitter fixture: exact sets and roots."""
    started = time.perf_counter()
    report = run_pipeline(SPLITTER_DIR, top="data_splitter", family="crypto")
    elapsed = time.perf_counter() - started

    module = report.database.modules_by_name["data_splitter"]
    behavior = classify_behaviors(module)
    sets_ok = (
        set(behavior.control) == {"load", "done0", "done1", "done2", "done3"}
        and set(behavior.configuration) == {"bank_selector"}
        and set(behavior.status) == {"done"}
        and set(behavior.data) == {"data", "bank0", "bank1", "bank2", "bank3"}
    )
    roots = {a.name for a in report.assets}
    roots_ok = roots == {"load", "bank_selector", "data",
                         "bank0", "bank1", "bank2", "bank3", "done"}
    clk_ok = "clk" not in roots
    _verdict("golden splitter pipeline (exact sets, roots, <1s)",
             sets_ok and roots_ok and clk_ok and elapsed < 1.0)


def test_behavior_classifier_fidelity_suite():
    """Ten hand-traced micro-modules, one per classifier branch."""
    ok = True
    assert len(BEHAVIOR_CASES) == 10
    for name, source, expected in BEHAVIOR_CASES:
        behavior = classify_behaviors(parse_source(source, name).modules[0])
        got = {"control": sorted(behavior.control),
               "configuration": sorted(behavior.configuration),
               "status": sorted(behavior.status),
               "data": sorted(behavior.data)}
        ok = ok and got == {k: sorted(v) for k, v in expected.items()}
    _verdict("behavior classifier fidelity suite (10 micro-modules)", ok)


def _fake_candidate(db, module, name, patterns=("Data",)):
    return CandidateAsset(module=module, signal=db.signal((module, name)),
                          matched_rule="acceptance", patterns=list(patterns),
                          objectives=["Integrity"], matched_groups=[])


def test_refinement_cases_suite():
    """Top-port, child-port, net-expansion and secondary-drop fixtures."""
    # Case 1: top-port candidate roots at itself with an empty path
    db1 = build_database([parse_source(AB_SOURCE, "ab.v")])
    graph1 = traversal_graph(build_connectivity(db1))
    a1 = refine([_fake_candidate(db1, "top_b", "top_in")], db1, graph1, ["top_b"])
    case1 = [(x.ref, len(x.trace_path)) for x in a1] == [(("top_b", "top_in"), 0)]

    # Case 2: child port traced through one instantiation hop
    a2 = refine([_fake_candidate(db1, "child_a", "din")], db1, graph1, ["top_b"])
    case2 = [(x.ref, len(x.trace_path)) for x in a2] == [(("top_b", "top_in"), 1)]

    # Case 3: net expands to a child port, then one hop to each top port
    db3 = build_database([parse_source(NET_EXPANSION_SOURCE, "net.v")])
    graph3 = traversal_graph(build_connectivity(db3))
    a3 = refine([_fake_candidate(db3, "leaf", "key_mix")], db3, graph3, ["wrap"])
    case3 = ({x.ref for x in a3} ==
             {("wrap", "secret_in"), ("wrap", "secret_out")}
             and all(len(x.trace_path) == 2 for x in a3))

    # Secondary: unconnected deep net inside the top tree produces nothing
    db4 = build_database([parse_source(SECONDARY_NET_SOURCE, "deep.v")])
    graph4 = traversal_graph(build_connectivity(db4))
    a4 = refine([_fake_candidate(db4, "deep", "key_buf")], db4, graph4, ["roof"])
    secondary = a4 == []

    _verdict("refinement cases 1-3 plus secondary drop (exact roots, path lengths)",
             case1 and case2 and case3 and secondary)


def test_matcher_oracle_equivalence():
    """Production matcher equals the naive oracle on 10,000 random names."""
    rng = random.Random(20260824)
    alphabet = "abcdefghijklmnopqrstuvwxyz0123456789_"
    names = []
    seen = set()
    while len(names) < 10_000:
        name = "".join(rng.choice(alphabet)
                       for _ in range(rng.randint(1, 24)))
        if name[0].isdigit() or name in RESERVED_WORDS or name in seen:
            continue
        seen.add(name)
        names.append(name)

    configs = {f: load_family_config(f) for f in ("crypto", "gpio", "peripheral")}
    mismatches = 0
    batch_size = 200
    for start in range(0, len(names), batch_size):
        batch = names[start:start + batch_size]
        ports = ",\n".join(f"    input {n}" for n in batch)
        db = build_database([parse_source(
            f"module gen (\n{ports}\n);\nendmodule\n", "gen.v")])
        for config in configs.values():
            excl = config.exclusion_set()
            produced = {e.signal.name: set(e.group_names)
                        for e in match_elements(db, config)}
            for name in batch:
                oracle = {g for g, _f in match_oracle(name, config)}
                expected = set() if name.lower() in excl else oracle
                if produced.get(name, set()) != expected:
                    mismatches += 1
    _verdict("matcher oracle equivalence (10,000 names x 3 families, 0 mismatches)",
             mismatches == 0)


def test_metric_identities():
    """Formula identities on 1,000 random tuples plus the worked example."""
    worked = EvalResult(tp=5, fp=1, fn=2, tn=92)
    worked_ok = (worked.accuracy == Fraction(97, 100)
                 and worked.f1 == Fraction(10, 13)
                 and abs(float(worked.f1) - 10 / 13) < 1e-12)

    rng = random.Random(13)
    random_ok = True
    for _ in range(1_000):
        tp, fp, fn, tn = (rng.randint(0, 5_000) for _ in range(4))
        result = EvalResult(tp, fp, fn, tn)
        total = tp + fp + fn + tn
        if total:
            random_ok = random_ok and result.accuracy == Fraction(tp + tn, total)
        denom = 2 * tp + fp + fn
        expected_f1 = Fraction(2 * tp, denom) if denom else Fraction(0)
        random_ok = random_ok and result.f1 == expected_f1
        if tp + fp:
            random_ok = random_ok and result.precision == Fraction(tp, tp + fp)
        if tp + fn:
            random_ok = random_ok and result.recall == Fraction(tp, tp + fn)
    _verdict("metric identities (worked example exact, 1,000 random tuples)",
             worked_ok and random_ok)


def test_width_property():
    """widthBits = |msb-lsb|+1."""
    rng = random.Random(99)
    ok = True
    for _ in range(500):
        msb, lsb = rng.randint(0, 255), rng.randint(0, 255)
        mod = parse_source(
            f"module w (input x);\n  wire [{msb}:{lsb}] v;\nendmodule\n"
        ).modules[0]
        decl = mod.signal("v")
        ok = ok and decl.width_bits == abs(msb - lsb) + 1
    _verdict("width formula (500 random ranges)", ok)


def test_determinism_on_mini_corpus(tmp_path):
    """Two full runs on the bundled corpus emit byte-identical JSON, <5s."""
    ip_dirs = [os.path.join(MINI_CORPUS, ip) for ip in sorted(CORPUS_FAMILIES)]
    corpus_ok = len(ip_dirs) >= 3
    total_lines = 0
    for ip_dir in ip_dirs:
        for root, _dirs, files in os.walk(ip_dir):
            for name in files:
                with open(os.path.join(root, name), "rb") as fh:
                    total_lines += fh.read().count(b"\n")
    corpus_ok = corpus_ok and total_lines >= 1_000

    started = time.perf_counter()
    first = tmp_path / "first.json"
    second = tmp_path / "second.json"
    run_pipeline(MINI_CORPUS, family="crypto", out_path=str(first))
    run_pipeline(MINI_CORPUS, family="crypto", out_path=str(second))
    elapsed = time.perf_counter() - started
    identical = first.read_bytes() == second.read_bytes()
    json.loads(first.read_text())  # must be valid JSON as well
    _verdict("determinism on mini-corpus (>=3 IPs, >=1,000 lines, "
             "byte-identical JSON, <5s for two runs)",
             corpus_ok and identical and elapsed < 5.0)


def test_narrowing_monotonicity():
    """|candidates| <= |important| <= |signals| on every bundled fixture."""
    runs = [(SPLITTER_DIR, "crypto")] + [
        (os.path.join(MINI_CORPUS, ip), family)
        for ip, family in sorted(CORPUS_FAMILIES.items())
    ]
    ok = True
    for rtl_dir, family in runs:
        report = run_pipeline(rtl_dir, family=family)
        counts = report.stage_counts
        ok = ok and (counts["candidates"] <= counts["important"]
                     <= counts["extracted"])
        # the recorded stage counts reflect the actual stage outputs
        ok = ok and counts["important"] == len(report.important)
        ok = ok and counts["extracted"] == report.database.signal_count
    _verdict("stage narrowing monotonicity and stageCounts consistency", ok)
