"""Pipeline orchestration and report rendering (JSON / CSV / text)."""

import csv
import io
import json
import os
from typing import Dict, List, Optional, Tuple

from . import __version__
from .design import (
    DesignError, SignalRef, build_connectivity, build_database, find_top_modules,
)
from .evaluation import EvalResult, evaluate
from .keywords import load_family_config
from .matcher import ImportantElement, count_keyword_occurrences, match_elements
from .parser import discover_rtl_files, parse_file
from .patterns import classify_design
from .refine import PrimaryAsset, link_status_to_control, refine
from .rules import apply_family_rules
from .syntax import Diagnostic, Record

SCHEMA_VERSION = 1
FORMATS = ("json", "csv", "text")


class NoRtlFilesError(Exception):
    pass


class AssetReport(Record):
    _fields = ("tool_version", "family", "top_modules", "corpus_stats", "stage_counts",
               "assets", "diagnostics", "important", "evaluation")

    def __init__(self, tool_version: str, family: str, top_modules: List[str],
                 corpus_stats: Dict[str, int], stage_counts: Dict[str, int],
                 assets: List[PrimaryAsset], diagnostics: List[Diagnostic],
                 important: Optional[List[ImportantElement]] = None,
                 evaluation: Optional[EvalResult] = None) -> None:
        self.tool_version = tool_version
        self.family = family
        self.top_modules = top_modules
        self.corpus_stats = corpus_stats
        self.stage_counts = stage_counts
        self.assets = assets
        self.diagnostics = diagnostics
        self.important = [] if important is None else important
        self.evaluation = evaluation

    # -- serialization -------------------------------------------------------

    def to_json(self) -> str:
        """The report as `json.dumps(indent=2, sort_keys=True)` writes it, plus a newline."""
        return "".join(self._json_pieces())

    def _json_pieces(self):
        # `indent=2` makes `json.dumps` run its pure-Python encoder, so the
        # assets, the bulk of a report, are written here, keys in sorted order
        yield '{\n  "assets": ['
        sep = "\n    "
        last = None
        for a in sorted(self.assets, key=lambda a: (a.module, a.name, a.top)):
            # the copies of an asset under several tops differ in "top" alone
            fields = (a.module, a.name, a.direction, a.width_bits,
                      a.outside_top_tree, a.contributors, a.patterns,
                      a.objectives, a.trace_path)
            if fields != last:
                last = fields
                head, tail = _asset_json(a)
            yield sep  # one piece each: the copies share `head` and `tail`
            yield head
            yield _str(a.top)
            yield tail
            sep = ",\n    "
        yield "\n  ]" if self.assets else "]"
        small = {
            "schema_version": SCHEMA_VERSION,
            "tool_version": self.tool_version,
            "family": self.family,
            "top_modules": list(self.top_modules),
            "corpus_stats": dict(self.corpus_stats),
            "stage_counts": dict(self.stage_counts),
            "diagnostics": [d.as_dict() for d in self.diagnostics],
        }
        if self.evaluation is not None:
            small["evaluation"] = self.evaluation.as_dict()
        # every other key sorts after "assets"
        yield ",\n" + json.dumps(small, indent=2, sort_keys=True)[2:] + "\n"

    def to_csv(self) -> str:
        buf = io.StringIO()
        writer = csv.writer(buf, lineterminator="\n")
        writer.writerow(["top", "module", "signal", "direction", "width_bits",
                         "patterns", "objectives", "contributors"])
        for asset in self.assets:
            writer.writerow([
                asset.top, asset.module, asset.name, asset.direction,
                asset.width_bits if asset.width_bits is not None else "",
                "|".join(asset.patterns),
                "|".join(asset.objectives),
                "|".join(f"{c.module}.{c.signal.name}"
                         for c in asset.contributors),
            ])
        return buf.getvalue()

    def to_text(self) -> str:
        lines = [
            f"assetscout {self.tool_version} report (family: {self.family})",
            f"files: {self.corpus_stats['file_count']}  "
            f"modules: {self.corpus_stats['module_count']}  "
            f"signals: {self.corpus_stats['signal_count']}  "
            f"lines: {self.corpus_stats['line_count']}",
            "stage counts: " + "  ".join(
                f"{k}={v}" for k, v in self.stage_counts.items()),
            "",
        ]
        by_top: Dict[str, List[PrimaryAsset]] = {t: [] for t in self.top_modules}
        for asset in self.assets:
            by_top[asset.top].append(asset)
        for top, assets in by_top.items():
            lines.append(f"top module {top}: {len(assets)} potential primary assets")
            for asset in assets:
                width = asset.width_bits if asset.width_bits is not None else "?"
                lines.append(
                    f"  {asset.module}.{asset.name} [{width}b {asset.direction}] "
                    f"patterns={','.join(asset.patterns) or '-'} "
                    f"objectives={','.join(asset.objectives) or '-'}")
            lines.append("")
        if self.evaluation is not None:
            lines.append(self.evaluation.confusion_text())
            lines.append("")
        return "\n".join(lines)

    def render(self, fmt: str) -> str:
        if fmt == "json":
            return self.to_json()
        if fmt == "csv":
            return self.to_csv()
        if fmt == "text":
            return self.to_text()
        raise ValueError(f"unknown format {fmt!r}")


_str = json.encoder.encode_basestring_ascii  # the escaper json.dumps uses


def _list(items: List[str], pad: str) -> str:
    """A JSON list of rendered `items`, each at indent `pad`."""
    if not items:
        return "[]"
    return f"[\n{pad}" + f",\n{pad}".join(items) + f"\n{pad[:-2]}]"


def _strs(items, pad: str) -> str:
    return _list([_str(s) for s in items], pad)


def _asset_json(a: PrimaryAsset) -> Tuple[str, str]:
    """One asset as `json.dumps(indent=2, sort_keys=True)` writes it at depth
    2, as the text before its "top" value and the text after it."""
    p8, p10, p12 = " " * 8, " " * 10, " " * 12
    contributors = [
        f'{{\n{p10}"matched_groups": {_strs(c.matched_groups, p12)},\n'
        f'{p10}"module": {_str(c.module)},\n{p10}"rule": {_str(c.matched_rule)},\n'
        f'{p10}"signal": {_str(c.signal.name)}\n{p8}}}' for c in a.contributors]
    trace = [
        f'{{\n{p10}"from": {_strs(e.src, p12)},\n{p10}"to": {_strs(e.dst, p12)},\n'
        f'{p10}"via": {_str(e.via)}\n{p8}}}' for e in a.trace_path]
    width = "null" if a.width_bits is None else a.width_bits
    return (f'{{\n      "contributors": {_list(contributors, p8)},\n'
            f'      "direction": {_str(a.direction)},\n'
            f'      "module": {_str(a.module)},\n'
            f'      "name": {_str(a.name)},\n'
            f'      "objectives": {_strs(a.objectives, p8)},\n'
            f'      "outside_top_tree": {"true" if a.outside_top_tree else "false"},\n'
            f'      "patterns": {_strs(a.patterns, p8)},\n'
            f'      "top": ',
            f',\n      "trace_path": {_list(trace, p8)},\n'
            f'      "width_bits": {width}\n    }}')


def _load_design(rtl_dir: str):
    """Parse every readable RTL file under `rtl_dir`: (files read, database,
    line count). A file that cannot be read is an error diagnostic."""
    if not os.path.isdir(rtl_dir):
        raise NoRtlFilesError(f"RTL directory not found: {rtl_dir}")
    files = discover_rtl_files(rtl_dir)
    if not files:
        raise NoRtlFilesError(f"no RTL files (.v/.sv/.vh/.svh) under {rtl_dir}")
    units, unread = [], []
    for path in files:
        try:
            units.append(parse_file(path, include_dirs=[rtl_dir]))
        except OSError as err:
            unread.append(Diagnostic(f"cannot read {path}: {err.strerror or err}", "error", 0))
    if not units:
        raise NoRtlFilesError(f"no RTL file under {rtl_dir} can be read: {unread[0].message}")
    try:
        db = build_database(units)
    except DesignError as err:
        # files exist but no module parsed: treat as an unusable corpus
        raise NoRtlFilesError(str(err)) from err
    db.diagnostics[:0] = unread
    return len(units), db, sum(unit.line_count for unit in units)


def run_pipeline(rtl_dir: str,
                 top: Optional[str] = None,
                 family: str = "crypto",
                 ground_truth: Optional[Dict[SignalRef, bool]] = None) -> AssetReport:
    """Execute all five stages over an RTL tree; the caller renders the report."""
    config = load_family_config(family)
    file_count, db, line_count = _load_design(rtl_dir)
    tops = find_top_modules(db, top)
    graph = build_connectivity(db)

    important = match_elements(db, config)
    behaviors = classify_design(db)
    candidates = apply_family_rules(important, behaviors, config)

    assets = link_status_to_control(refine(candidates, db, graph, tops),
                                    graph, behaviors)

    report = AssetReport(
        tool_version=__version__,
        family=config.family,
        top_modules=tops,
        corpus_stats={
            "file_count": file_count,
            "module_count": len(db.modules_by_name),
            "signal_count": db.signal_count,
            "line_count": line_count,
        },
        stage_counts={
            "extracted": db.signal_count,
            "important": len(important),
            "candidates": len(candidates),
            "assets": len(assets),
        },
        assets=assets,
        diagnostics=list(db.diagnostics),
        important=important,
    )
    if ground_truth is not None:
        warnings: List[str] = []
        universe = ((name, decl.name) for name, mod in db.modules_by_name.items()
                    for decl in mod.signals())
        report.evaluation = evaluate(assets, ground_truth, universe, warnings)
        for msg in warnings:
            report.diagnostics.append(Diagnostic(msg, "warning", 0))
    return report


def keyword_stats(rtl_dir: str, family: str) -> Dict[str, int]:
    """Per-group keyword occurrence counts over the RTL tree. The config is
    loaded first, so a bad config is reported before a bad tree."""
    config = load_family_config(family)
    return count_keyword_occurrences(_load_design(rtl_dir)[1], config)
