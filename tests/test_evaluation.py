"""Confusion-matrix metrics and ground-truth handling."""

from fractions import Fraction

import pytest
from hypothesis import example, given, settings
from hypothesis import strategies as st

from assetscout.evaluation import (
    EvalResult, GroundTruthError, evaluate, load_ground_truth,
    predicted_positives,
)
from assetscout.report import run_pipeline

from conftest import SPLITTER_DIR, SPLITTER_TRUTH


class FakeAsset:
    """Just enough surface for predicted_positives/evaluate."""

    def __init__(self, module, name, contributors=()):
        self.ref = (module, name)
        self.contributors = [FakeAsset(*ref) for ref in contributors]


def test_worked_example_is_exact():
    result = EvalResult(tp=5, fp=1, fn=2, tn=92)
    assert result.accuracy == Fraction(97, 100)
    assert float(result.accuracy) == 0.97
    assert result.f1 == Fraction(10, 13)
    assert abs(float(result.f1) - 10 / 13) < 1e-12
    assert result.precision == Fraction(5, 6)
    assert result.recall == Fraction(5, 7)


counts = st.integers(min_value=0, max_value=10_000)


@settings(max_examples=300, deadline=None)
@given(tp=counts, fp=counts, fn=counts, tn=counts)
def test_metric_identities(tp, fp, fn, tn):
    result = EvalResult(tp, fp, fn, tn)
    total = tp + fp + fn + tn
    assert result.total == total
    if total:
        assert result.accuracy == Fraction(tp + tn, total)
    if 2 * tp + fp + fn:
        assert result.f1 == Fraction(2 * tp, 2 * tp + fp + fn)
    else:
        assert result.f1 == 0
    if tp + fp:
        assert result.precision == Fraction(tp, tp + fp)
    if tp + fn:
        assert result.recall == Fraction(tp, tp + fn)
    # F1 is the harmonic mean of precision and recall when defined
    if tp:
        p, r = result.precision, result.recall
        assert result.f1 == 2 * p * r / (p + r)


@settings(max_examples=300, deadline=None)
@example(tp=0, fp=0, fn=0, tn=0)
@given(tp=st.integers(min_value=0, max_value=10**30), fp=counts, fn=counts,
       tn=st.integers(min_value=0, max_value=10**30))
def test_report_floats_are_the_exact_ratios_rounded(tp, fp, fn, tn):
    result = EvalResult(tp, fp, fn, tn)
    exact = {"accuracy": Fraction(tp + tn, result.total) if result.total else Fraction(0),
             "precision": Fraction(tp, tp + fp) if tp + fp else Fraction(0),
             "recall": Fraction(tp, tp + fn) if tp + fn else Fraction(0),
             "f1": Fraction(2 * tp, 2 * tp + fp + fn) if 2 * tp + fp + fn else Fraction(0)}
    floats = result.as_dict()
    for name, ratio in exact.items():
        assert floats[name].hex() == float(ratio).hex(), name


def test_swapping_labels_swaps_fp_and_fn():
    universe = [("m", f"s{i}") for i in range(10)]
    predicted = {("m", "s0"), ("m", "s1"), ("m", "s2")}
    actual = {("m", "s2"), ("m", "s3")}
    assets = [FakeAsset(*ref) for ref in predicted]
    truth = {ref: True for ref in actual}
    forward = evaluate(assets, truth, universe)
    swapped = evaluate([FakeAsset(*ref) for ref in actual],
                       {ref: True for ref in predicted},
                       universe)
    assert (forward.tp, forward.tn) == (swapped.tp, swapped.tn)
    assert (forward.fp, forward.fn) == (swapped.fn, swapped.fp)


def test_degenerate_flag():
    result = evaluate([], {}, [("m", "a"), ("m", "b")])
    assert (result.tp, result.fp, result.fn) == (0, 0, 0)
    assert result.tn == 2
    assert result.degenerate
    assert result.f1 == 0


def test_clock_reset_removed_from_universe():
    universe = [("m", "clk"), ("m", "rst_n"), ("m", "key")]
    result = evaluate([FakeAsset("m", "key")],
                      {("m", "key"): True}, universe)
    assert result.total == 1
    assert result.tp == 1


def test_out_of_universe_truth_is_ignored_with_warning():
    warnings = []
    truth = {("m", "key"): True, ("m", "ghost"): True}
    result = evaluate([FakeAsset("m", "key")], truth,
                      [("m", "key")], warnings)
    assert result.ignored_entries == 1
    assert any("ghost" in w for w in warnings)
    assert result.tp == 1 and result.fn == 0


def test_contributors_count_as_predictions():
    asset = FakeAsset("m", "root", contributors=[("m", "net0")])
    assert predicted_positives([asset]) == {("m", "root"), ("m", "net0")}


def test_load_ground_truth(tmp_path):
    path = tmp_path / "truth.csv"
    path.write_text("module,signal,is_asset\n"
                    "m,key,1\n"
                    "m,debug,false\n"
                    "m,irq,TRUE\n")
    truth = load_ground_truth(str(path))
    assert truth == {
        ("m", "key"): True, ("m", "debug"): False, ("m", "irq"): True,
    }


def test_load_ground_truth_header_only(tmp_path):
    path = tmp_path / "truth.csv"
    path.write_text("module,signal,is_asset\n")
    assert load_ground_truth(str(path)) == {}


def test_load_ground_truth_duplicate_row(tmp_path):
    path = tmp_path / "truth.csv"
    path.write_text("module,signal,is_asset\nm,key,1\nm,key,0\n")
    with pytest.raises(GroundTruthError, match="3"):
        load_ground_truth(str(path))


def test_load_ground_truth_bad_header(tmp_path):
    path = tmp_path / "truth.csv"
    path.write_text("mod,sig,asset\nm,key,1\n")
    with pytest.raises(GroundTruthError):
        load_ground_truth(str(path))


def test_load_ground_truth_bad_flag(tmp_path):
    path = tmp_path / "truth.csv"
    path.write_text("module,signal,is_asset\nm,key,maybe\n")
    with pytest.raises(GroundTruthError, match="maybe"):
        load_ground_truth(str(path))


def test_perfect_prediction_on_splitter_fixture():
    truth = load_ground_truth(SPLITTER_TRUTH)
    report = run_pipeline(SPLITTER_DIR, ground_truth=truth)
    result = report.evaluation
    assert result is not None
    assert result.fp == 0 and result.fn == 0
    assert result.accuracy == 1
    assert result.f1 == 1


def test_confusion_text_layout():
    text = EvalResult(5, 1, 2, 92).confusion_text()
    lines = text.splitlines()
    assert len(lines) == 4
    assert "predicted" in lines[0]
    assert "5" in lines[2] and "92" in lines[3]
