#!/usr/bin/env python3
"""assetscout benchmark runner.

    python3 bench/run.py --workload hier_soc --seed 1 --seconds 35 --trace 0

Run from the repository root. The runner generates the workload's corpus
from the seed (bench/gen.py), then analyses it over and over for --seconds,
one analysis at a time, each in a fresh process that calls
`assetscout.cli.main` with `--out` (bench/child.py). Every report is checked:
exit code 0, no traceback, a SHA-256 digest equal to the pinned one
(bench/pinned.json) at the default seed or else equal across the run, and
every planted asset present. The committed test fixtures are analysed and
checked against their pinned digests on every run too.

With --trace 0 it prints the end-to-end metrics; with --trace 1 it alternates
untraced and traced analyses and prints the per-layer metrics
(bench/spans.py), then a scaling probe of classification on `wide_regfile`.
The last line of stdout is one JSON object: correct, attempted, failed and
metrics. Without the analyser's sources next to it, the runner exits with
code 2 and prints no result.
"""

import argparse
import hashlib
import json
import math
import os
import statistics
import subprocess
import sys
import threading
import time

import gen
import spans

BENCH = os.path.dirname(os.path.abspath(__file__))
ROOT = os.path.dirname(BENCH)
SRC = os.path.join(ROOT, "src")
WORK = os.path.join(ROOT, ".bench_work")
PINNED = os.path.join(BENCH, "pinned.json")

DEFAULT_SEED = 1
MIN_SAMPLES = 3
CHILD_TIMEOUT_S = 120
PROBE_PORTS = (1000, 2000, 4000)

FIXTURE_DIR = os.path.join(ROOT, "tests", "fixtures")
FIXTURES = {   # read only
    "toy_cipher": (os.path.join(FIXTURE_DIR, "mini_corpus", "toy_cipher"),
                   ["--family", "crypto"]),
    "gpio_block": (os.path.join(FIXTURE_DIR, "mini_corpus", "gpio_block"),
                   ["--family", "gpio"]),
    "uart_lite": (os.path.join(FIXTURE_DIR, "mini_corpus", "uart_lite"),
                  ["--family", "peripheral"]),
    "data_splitter": (os.path.join(FIXTURE_DIR, "data_splitter"), [
        "--family", "crypto", "--top", "data_splitter",
        "--ground-truth", os.path.join(FIXTURE_DIR, "data_splitter_truth.csv")]),
}

END_TO_END = [
    ("wall_s", "s"), ("cpu_s", "s"), ("lines_per_s", "1/s"),
    ("peak_rss_mb", "MB"), ("setup_s", "s"),
]

# Self time of each layer, then its work counts; see README.md for which
# end-to-end metric each should move, on which workload.
LAYER_TIMES = [
    "tokenizer.tokenize", "parser.preprocess", "parser.parse_file",
    "design.build_database", "design.build_connectivity",
    "matcher.match_elements", "patterns.classify_design",
    "rules.apply_family_rules", "refine.refine",
    "refine.link_status_to_control", "report.render", "evaluation.evaluate",
    "keywords.load_family_config",
]
LAYER_CALLS = ["tokenizer.tokenize", "patterns.classify_design", "refine.refine"]
LAYER_COUNTS = [
    "tokenizer.tokens", "parser.diagnostics", "design.signals", "design.edges",
    "matcher.important", "rules.candidates", "refine.assets", "report.bytes",
]
PER_LAYER = ([(f"{n}.calls", "count") for n in LAYER_CALLS]
             + [(f"{n}.self_s", "s") for n in LAYER_TIMES]
             + [(n, "count") for n in LAYER_COUNTS]
             + [("matcher.hit_ratio", "ratio"),
                ("refine.assets_per_candidate", "ratio"),
                ("trace.overhead_s", "s"),
                ("patterns.scaling_exponent", "exponent")])


class Sample:
    """One analysis: its timings, resource use and verdict."""

    def __init__(self, spawned, record, code, usage, stderr, report):
        self.wall_s = self.setup_s = None
        self.cpu_s = usage.ru_utime + usage.ru_stime
        self.peak_rss_mb = usage.ru_maxrss / 1024.0   # Linux reports KiB
        self.trace = None
        self.digest = None
        self.error = None
        if code != 0:
            self.error = f"exit code {code}"
        elif "Traceback" in stderr:
            self.error = "traceback on stderr"
        elif record is None or not os.path.isfile(report):
            self.error = "no timing record or no report"
        else:
            self.setup_s = record["ready"] - spawned
            self.wall_s = record["done"] - record["ready"]
            self.trace = record.get("trace")
            with open(report, "rb") as fh:
                self.digest = hashlib.sha256(fh.read()).hexdigest()


def _wait(proc):
    """Reap `proc` with os.wait4, so the rusage is that child's alone."""
    killer = threading.Timer(CHILD_TIMEOUT_S, proc.kill)
    killer.start()
    try:
        _pid, status, usage = os.wait4(proc.pid, 0)
    finally:
        killer.cancel()
    proc.returncode = os.waitstatus_to_exitcode(status)
    return proc.returncode, usage


def analyse(rtl_dir, cli_args, name, trace=False, run_id=""):
    """Run one analysis of `rtl_dir` in a fresh process; returns a Sample."""
    out_dir = os.path.join(WORK, "out")
    os.makedirs(out_dir, exist_ok=True)
    report = os.path.join(out_dir, f"{name}.json")
    record_path = os.path.join(out_dir, f"{name}.record.json")
    for stale in (report, record_path):
        if os.path.exists(stale):
            os.remove(stale)
    family = cli_args[cli_args.index("--family") + 1]
    cmd = [sys.executable, os.path.join(BENCH, "child.py"), record_path, SRC,
           family, "1" if trace else "0", run_id, "--",
           "--rtl-dir", rtl_dir, "--out", report] + cli_args
    env = {k: v for k, v in os.environ.items() if k != "PYTHONPATH"}
    with open(os.path.join(out_dir, f"{name}.stderr"), "w+b") as err:
        spawned = time.clock_gettime(time.CLOCK_MONOTONIC)
        proc = subprocess.Popen(cmd, cwd=ROOT, env=env,
                                stdout=subprocess.DEVNULL, stderr=err)
        code, usage = _wait(proc)
        err.seek(0)
        stderr = err.read().decode("utf-8", errors="replace")
    record = None
    if os.path.isfile(record_path):
        with open(record_path, encoding="utf-8") as fh:
            record = json.load(fh)
    if stderr.strip():
        sys.stderr.write(stderr)
    return Sample(spawned, record, code, usage, stderr, report)


def planted_missing(report_path, planted):
    """Planted (module, signal) pairs with no asset in the report."""
    with open(report_path, encoding="utf-8") as fh:
        assets = json.load(fh)["assets"]
    found = {(a["module"], a["name"]) for a in assets}
    return [f"{m}.{s}" for m, s in planted if (m, s) not in found]


class Checker:
    """Counts attempted and failed analyses and applies the output checks."""

    def __init__(self):
        self.attempted = 0
        self.failed = 0
        self._planted_ok = {}

    def check(self, sample, label, expected=None, planted=None, report=None):
        """Mark `sample` failed unless it matches `expected` and holds `planted`."""
        self.attempted += 1
        if sample.error is None and expected is not None and sample.digest != expected:
            sample.error = f"report digest {sample.digest} != expected {expected}"
        if sample.error is None and planted is not None:
            if sample.digest not in self._planted_ok:
                self._planted_ok[sample.digest] = planted_missing(report, planted)
            missing = self._planted_ok[sample.digest]
            if missing:
                sample.error = f"{len(missing)} planted assets missing: {missing[:3]}"
        if sample.error is not None:
            self.failed += 1
            print(f"FAILED {label}: {sample.error}", file=sys.stderr)
        return sample.error is None


def check_fixtures(checker, pins):
    for name, (rtl_dir, args) in FIXTURES.items():
        sample = analyse(rtl_dir, args, f"fixture-{name}")
        checker.check(sample, f"fixture {name}", pins.get(name))
        print(f"fixture {name}: sha256 {sample.digest} "
              f"{'ok' if sample.error is None else 'FAILED'}")


def measure(checker, manifest, deadline, traced, expected):
    """Analyse the workload until `deadline` (monotonic clock).

    Returns the untraced and the traced samples that produced timings,
    whether they passed the checks or not.
    """
    plain, with_trace = [], []
    report = os.path.join(WORK, "out", "workload.json")
    while True:
        enough = len(plain) >= MIN_SAMPLES and (not traced or len(with_trace) >= 2)
        if time.monotonic() >= deadline and enough:
            break
        trace_this = traced and len(with_trace) < len(plain)
        run_id = f"{manifest['workload']}-{manifest['seed']}-{len(plain) + len(with_trace)}"
        sample = analyse(manifest["rtl_dir"], manifest["args"], "workload",
                         trace=trace_this, run_id=run_id)
        if expected is None and sample.error is None:
            expected = sample.digest    # unpinned seed: the run must agree with itself
        checker.check(sample, run_id, expected, manifest["planted"], report)
        (with_trace if trace_this else plain).append(sample)
    timed = lambda samples: [s for s in samples if s.wall_s is not None]
    return timed(plain), timed(with_trace)


def end_to_end(samples, line_count):
    wall = statistics.median([s.wall_s for s in samples])
    return {
        "wall_s": wall,
        "cpu_s": statistics.median([s.cpu_s for s in samples]),
        "lines_per_s": line_count / wall,
        "peak_rss_mb": statistics.median([s.peak_rss_mb for s in samples]),
        "setup_s": statistics.median([s.setup_s for s in samples]),
    }


def layer_metrics(plain, with_trace, exponent):
    """Per-layer metrics from the traced samples (medians of self time)."""
    per_sample = [spans.self_times(s.trace["spans"]) for s in with_trace]
    for s in with_trace:
        for warning in s.trace["warnings"]:
            print(f"trace warning: {warning}", file=sys.stderr)
    counts = with_trace[0].trace["counts"]
    out = {}
    for name in LAYER_CALLS:
        out[f"{name}.calls"] = per_sample[0].get(name, [0, 0.0])[0]
    for name in LAYER_TIMES:
        out[f"{name}.self_s"] = statistics.median(
            [t.get(name, [0, 0.0])[1] for t in per_sample])
    for name in LAYER_COUNTS:
        out[name] = counts.get(name, 0)
    signals = counts.get("design.signals", 0)
    candidates = counts.get("rules.candidates", 0)
    out["matcher.hit_ratio"] = out["matcher.important"] / signals if signals else 0.0
    out["refine.assets_per_candidate"] = (out["refine.assets"] / candidates
                                          if candidates else 0.0)
    out["trace.overhead_s"] = (statistics.median([s.wall_s for s in with_trace])
                               - statistics.median([s.wall_s for s in plain]))
    out["patterns.scaling_exponent"] = exponent
    return out


def scaling_probe(checker, seed):
    """Log-log slope of classify_design self time over signal count."""
    points = []
    for ports in PROBE_PORTS:
        manifest = gen.generate("wide_regfile", seed,
                                os.path.join(WORK, f"probe_{ports}"), ports=ports)
        sample = analyse(manifest["rtl_dir"], manifest["args"], "probe", trace=True,
                         run_id=f"probe-{ports}")
        report = os.path.join(WORK, "out", "probe.json")
        if not checker.check(sample, f"probe {ports}", None, manifest["planted"], report):
            continue
        times = spans.self_times(sample.trace["spans"])
        signals = sample.trace["counts"].get("design.signals", 0)
        self_s = times.get("patterns.classify_design", [0, 0.0])[1]
        if signals > 0 and self_s > 0:
            points.append((math.log(signals), math.log(self_s)))
        print(f"probe {ports} ports: {signals} signals, "
              f"classify_design self {self_s:.4f} s")
    if len(points) < 2:
        return 0.0    # the failed probe analyses are already counted
    mean_x = statistics.fmean(x for x, _ in points)
    mean_y = statistics.fmean(y for _, y in points)
    return (sum((x - mean_x) * (y - mean_y) for x, y in points)
            / sum((x - mean_x) ** 2 for x, _ in points))


def main(argv=None):
    ap = argparse.ArgumentParser(description=__doc__.split("\n\n")[0])
    ap.add_argument("--workload", required=True, choices=sorted(gen.WORKLOADS))
    ap.add_argument("--seed", type=int, default=DEFAULT_SEED)
    ap.add_argument("--seconds", type=float, default=35.0)
    ap.add_argument("--trace", type=int, choices=(0, 1), default=0)
    args = ap.parse_args(argv)

    missing = [p for p in [os.path.join(SRC, "assetscout", "cli.py")]
               + [d for d, _ in FIXTURES.values()] if not os.path.exists(p)]
    if missing:
        print(f"error: analyser sources or fixtures not found: {missing}",
              file=sys.stderr)
        return 2
    with open(PINNED, encoding="utf-8") as fh:
        pins = json.load(fh)

    checker = Checker()
    check_fixtures(checker, pins["fixtures"])
    manifest = gen.generate(args.workload, args.seed,
                            os.path.join(WORK, args.workload))
    expected = pins["workloads"].get(args.workload) \
        if args.seed == DEFAULT_SEED else None
    # the traced run's probe is part of its measuring time, so a traced run
    # lasts as long as an untraced one
    deadline = time.monotonic() + args.seconds
    exponent = scaling_probe(checker, args.seed) if args.trace else None
    plain, with_trace = measure(checker, manifest, deadline, bool(args.trace),
                                expected)
    if not plain or (args.trace and not with_trace):
        print("error: no analysis of the workload finished", file=sys.stderr)
        return 1

    line_count = manifest["line_count"]
    print(f"workload {args.workload} seed {args.seed}: {line_count} lines, "
          f"report sha256 {plain[0].digest}"
          + (f", pinned {expected}" if expected is not None else ""))
    print(f"analyses: {len(plain)} untraced, {len(with_trace)} traced")
    walls = sorted(s.wall_s for s in plain)
    if len(walls) > 20:   # the highest percentile with ten analyses above it
        k = len(walls) - 10
        print(f"wall_s p{100 * k // len(walls)}: {walls[k - 1]:.6g} s")
    if args.trace:
        values = layer_metrics(plain, with_trace, exponent)
        units = dict(PER_LAYER)
    else:
        values = end_to_end(plain, line_count)
        units = dict(END_TO_END)
    for name, value in values.items():
        print(f"{name:34s} {value:14.6g} {units[name]}")
    print(f"{'error_rate':34s} {checker.failed / checker.attempted:14.6g} "
          f"({checker.failed} of {checker.attempted} analyses failed)")
    print(json.dumps({
        "correct": checker.failed == 0,
        "attempted": checker.attempted,
        "failed": checker.failed,
        "metrics": {n: {"value": v, "unit": units[n]} for n, v in values.items()},
    }))
    return 0


if __name__ == "__main__":
    sys.exit(main())
