"""In-memory span tracer for the analyser's layers.

The tracer rebinds each layer's public function, in memory only, in the
module that calls it: `assetscout.report` calls most stages, `assetscout.parser`
calls `preprocess` and `tokenize`, and `assetscout.refine` calls
`classify_design` again from `link_status_to_control`. Modules come from
`importlib.import_module`, because the package attribute `assetscout.refine`
is the re-exported function, not the module. A binding that has gone away is
reported as a warning and its layer shows zero calls.

A span is (name, start, end, parent span index, run id). Spans stay in a list
until the run ends; `self_times` then turns them into per-layer self time,
which is a span's duration minus the part of it its child spans cover.
"""

import functools
import importlib
import time

# (layer name, module that calls the function, attribute path there)
TARGETS = [
    ("keywords.load_family_config", "assetscout.report", "load_family_config"),
    ("parser.parse_file", "assetscout.report", "parse_file"),
    ("parser.preprocess", "assetscout.parser", "preprocess"),
    ("tokenizer.tokenize", "assetscout.parser", "tokenize"),
    ("design.build_database", "assetscout.report", "build_database"),
    ("design.build_connectivity", "assetscout.report", "build_connectivity"),
    ("matcher.match_elements", "assetscout.report", "match_elements"),
    ("patterns.classify_design", "assetscout.report", "classify_design"),
    ("patterns.classify_design", "assetscout.refine", "classify_design"),
    ("rules.apply_family_rules", "assetscout.report", "apply_family_rules"),
    ("refine.refine", "assetscout.report", "refine"),
    ("refine.link_status_to_control", "assetscout.report", "link_status_to_control"),
    ("evaluation.evaluate", "assetscout.report", "evaluate"),
    ("report.render", "assetscout.report", "AssetReport.render"),
]

# Work counts taken from a layer's return value, summed over its calls.
COUNTERS = {
    "tokenizer.tokenize": lambda r: {"tokenizer.tokens": len(r)},
    "parser.parse_file": lambda r: {"parser.diagnostics": len(r.diagnostics)},
    "design.build_database": lambda r: {"design.signals": r.signal_count},
    "design.build_connectivity": lambda r: {"design.edges": len(r)},
    "matcher.match_elements": lambda r: {"matcher.important": len(r)},
    "rules.apply_family_rules": lambda r: {"rules.candidates": len(r)},
    "refine.refine": lambda r: {"refine.assets": len(r)},
    "report.render": lambda r: {"report.bytes": len(r.encode("utf-8"))},
}


class Tracer:
    def __init__(self, run_id, clock=time.perf_counter):
        self.run_id = run_id
        self.clock = clock
        self.spans = []      # [name, start, end, parent index or None, run id]
        self.counts = {}
        self.warnings = []
        self._stack = []

    def wrap(self, name, fn, counter=None):
        """`fn` recording one span per call, and `counter`'s counts."""
        @functools.wraps(fn)
        def traced(*args, **kwargs):
            span = [name, self.clock(), None,
                    self._stack[-1] if self._stack else None, self.run_id]
            self._stack.append(len(self.spans))
            self.spans.append(span)
            try:
                result = fn(*args, **kwargs)
            finally:
                span[2] = self.clock()
                self._stack.pop()
            if counter is not None:
                self._count(name, counter, result)
            return result
        return traced

    def _count(self, name, counter, result):
        try:
            counts = counter(result)
        except (AttributeError, TypeError) as err:
            self.warnings.append(f"{name}: result no longer countable ({err})")
            return
        for key, value in counts.items():
            self.counts[key] = self.counts.get(key, 0) + value

    def install(self, targets=TARGETS):
        """Rebind every target; a missing one becomes a warning."""
        for name, module_name, path in targets:
            try:
                owner = importlib.import_module(module_name)
            except ImportError as err:
                self.warnings.append(f"{name}: cannot import {module_name} ({err})")
                continue
            *outer, attr = path.split(".")
            for part in outer:
                owner = getattr(owner, part, None)
            fn = getattr(owner, attr, None)
            if not callable(fn):
                self.warnings.append(f"{name}: {module_name}.{path} not found")
                continue
            setattr(owner, attr, self.wrap(name, fn, COUNTERS.get(name)))

    def record(self):
        """What the run leaves for the runner: spans, counts, warnings."""
        return {"spans": self.spans, "counts": self.counts,
                "warnings": self.warnings}


def self_times(spans):
    """{name: [calls, self seconds]} from (name, start, end, parent, run) spans."""
    children = {}
    for index, span in enumerate(spans):
        if span[3] is not None:
            children.setdefault(span[3], []).append(index)
    out = {}
    for index, (name, start, end, _parent, _run) in enumerate(spans):
        covered, reach = 0.0, start
        kids = sorted((max(spans[k][1], start), min(spans[k][2], end))
                      for k in children.get(index, ()))
        for lo, hi in kids:
            lo = max(lo, reach)
            if hi > lo:
                covered += hi - lo
                reach = hi
        entry = out.setdefault(name, [0, 0.0])
        entry[0] += 1
        entry[1] += (end - start) - covered
    return out
