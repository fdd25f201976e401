"""Confusion-matrix evaluation against a labeled ground-truth asset list."""

import csv
from typing import TYPE_CHECKING, Dict, Iterable, List, Optional, Set, Tuple

from .design import SignalRef
from .keywords import CLOCK_RESET_NAMES
from .syntax import Record

if TYPE_CHECKING:
    from fractions import Fraction


class GroundTruthError(Exception):
    pass


class GroundTruth(Record):
    _fields = ("entries", "source")

    def __init__(self, entries: Optional[Dict[SignalRef, bool]] = None,
                 source: str = "") -> None:
        self.entries = {} if entries is None else entries
        self.source = source


def _fraction(num: int, den: int) -> "Fraction":
    # imported here, not at the top: a report needs the ratios as floats only
    from fractions import Fraction
    return Fraction(num, den) if den else Fraction(0)


class EvalResult(Record):
    """Confusion counts. Each ratio is exact, a `Fraction` that reads 0 when
    its denominator is 0; `as_dict` gives it as the float `num / den`, which
    an int-by-int division rounds correctly, as `float(Fraction)` does."""
    _fields = ("tp", "fp", "fn", "tn", "degenerate", "ignored_entries")

    def __init__(self, tp: int, fp: int, fn: int, tn: int, degenerate: bool = False,
                 ignored_entries: int = 0) -> None:
        self.tp = tp
        self.fp = fp
        self.fn = fn
        self.tn = tn
        self.degenerate = degenerate
        self.ignored_entries = ignored_entries

    @property
    def total(self) -> int:
        return self.tp + self.fp + self.fn + self.tn

    def _terms(self) -> Dict[str, Tuple[int, int]]:
        """(numerator, denominator) of each ratio."""
        tp, fp, fn = self.tp, self.fp, self.fn
        return {"accuracy": (tp + self.tn, self.total), "precision": (tp, tp + fp),
                "recall": (tp, tp + fn), "f1": (2 * tp, 2 * tp + fp + fn)}

    @property
    def accuracy(self) -> "Fraction":
        return _fraction(*self._terms()["accuracy"])

    @property
    def precision(self) -> "Fraction":
        return _fraction(*self._terms()["precision"])

    @property
    def recall(self) -> "Fraction":
        return _fraction(*self._terms()["recall"])

    @property
    def f1(self) -> "Fraction":
        return _fraction(*self._terms()["f1"])

    def as_dict(self) -> dict:
        out = {"tp": self.tp, "fp": self.fp, "fn": self.fn, "tn": self.tn}
        for name, (num, den) in self._terms().items():
            out[name] = num / den if den else 0.0
        out["degenerate"] = self.degenerate
        out["ignored_entries"] = self.ignored_entries
        return out

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
