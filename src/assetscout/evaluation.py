"""Confusion-matrix evaluation against a labeled ground-truth asset list."""

import csv
from dataclasses import dataclass, field
from fractions import Fraction
from typing import Dict, Iterable, List, Set

from .design import SignalRef
from .keywords import CLOCK_RESET_NAMES


class GroundTruthError(Exception):
    pass


@dataclass
class GroundTruth:
    entries: Dict[SignalRef, bool] = field(default_factory=dict)
    source: str = ""


@dataclass
class EvalResult:
    tp: int
    fp: int
    fn: int
    tn: int
    degenerate: bool = False
    ignored_entries: int = 0

    @property
    def total(self) -> int:
        return self.tp + self.fp + self.fn + self.tn

    @property
    def accuracy(self) -> Fraction:
        if self.total == 0:
            return Fraction(0)
        return Fraction(self.tp + self.tn, self.total)

    @property
    def precision(self) -> Fraction:
        denom = self.tp + self.fp
        return Fraction(self.tp, denom) if denom else Fraction(0)

    @property
    def recall(self) -> Fraction:
        denom = self.tp + self.fn
        return Fraction(self.tp, denom) if denom else Fraction(0)

    @property
    def f1(self) -> Fraction:
        denom = 2 * self.tp + self.fp + self.fn
        return Fraction(2 * self.tp, denom) if denom else Fraction(0)

    def as_dict(self) -> dict:
        return {
            "tp": self.tp, "fp": self.fp, "fn": self.fn, "tn": self.tn,
            "accuracy": float(self.accuracy),
            "precision": float(self.precision),
            "recall": float(self.recall),
            "f1": float(self.f1),
            "degenerate": self.degenerate,
            "ignored_entries": self.ignored_entries,
        }

    def confusion_text(self) -> str:
        w = max(len(str(v)) for v in (self.tp, self.fp, self.fn, self.tn))
        w = max(w, 5)
        return "\n".join([
            "              predicted",
            f"            {'asset':>{w}} {'other':>{w}}",
            f"true asset  {self.tp:>{w}} {self.fn:>{w}}",
            f"true other  {self.fp:>{w}} {self.tn:>{w}}",
        ])


_TRUE_VALUES = {"1", "true", "yes"}
_FALSE_VALUES = {"0", "false", "no"}


def load_ground_truth(path: str) -> GroundTruth:
    """Read a `module,signal,is_asset` CSV into a GroundTruth table."""
    truth = GroundTruth(source=path)
    try:
        with open(path, "r", encoding="utf-8", newline="") as fh:
            rows = list(csv.reader(fh))
    except OSError as err:
        raise GroundTruthError(f"cannot read ground-truth file {path!r}: {err}") from err
    except (UnicodeDecodeError, csv.Error) as err:
        raise GroundTruthError(f"malformed ground-truth file {path!r}: {err}") from err
    if not rows:
        raise GroundTruthError(f"{path}: empty file, expected a header row")
    expected = ["module", "signal", "is_asset"]
    if [h.strip().lower() for h in rows[0]] != expected:
        raise GroundTruthError(
            f"{path}: bad header {rows[0]!r}, expected {','.join(expected)}")
    for lineno, row in enumerate(rows[1:], start=2):
        if not row or all(not cell.strip() for cell in row):
            continue
        if len(row) != 3:
            raise GroundTruthError(f"{path}:{lineno}: expected 3 columns")
        module, signal, flag = (cell.strip() for cell in row)
        key = (module, signal)
        if key in truth.entries:
            raise GroundTruthError(
                f"{path}:{lineno}: duplicate entry for {module}.{signal}")
        low = flag.lower()
        if low in _TRUE_VALUES:
            truth.entries[key] = True
        elif low in _FALSE_VALUES:
            truth.entries[key] = False
        else:
            raise GroundTruthError(
                f"{path}:{lineno}: bad is_asset value {flag!r}")
    return truth


def predicted_positives(assets: Iterable) -> Set[SignalRef]:
    """Roots plus every contributing candidate signal."""
    positives: Set[SignalRef] = set()
    for asset in assets:
        positives.add(asset.ref)
        for cand in asset.contributors:
            positives.add(cand.ref)
    return positives


def evaluate(assets: Iterable, truth: GroundTruth,
             universe: Iterable[SignalRef],
             warnings: List[str] = None) -> EvalResult:
    """Confusion counts over the signal universe.

    Signals absent from the ground truth default to not-asset; clock/reset
    variants are removed from the universe before counting.  Truth entries
    outside the universe are ignored with a warning.
    """
    universe_set = {ref for ref in universe
                    if ref[1].lower() not in CLOCK_RESET_NAMES}
    predicted = predicted_positives(assets) & universe_set
    ignored = 0
    for ref in truth.entries:
        if ref not in universe_set:
            ignored += 1
            if warnings is not None:
                warnings.append(
                    f"ground truth references unknown signal {ref[0]}.{ref[1]}")
    tp = fp = fn = tn = 0
    for ref in universe_set:
        actual = truth.entries.get(ref, False)
        pred = ref in predicted
        if actual and pred:
            tp += 1
        elif actual and not pred:
            fn += 1
        elif pred:
            fp += 1
        else:
            tn += 1
    result = EvalResult(tp, fp, fn, tn, ignored_entries=ignored)
    if tp == 0 and fp == 0 and fn == 0:
        result.degenerate = True
    return result
