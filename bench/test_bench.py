"""Self-tests of the benchmark's own code.

    python3 -m unittest discover -s bench -p 'test_*.py'
"""

import json
import os
import re
import sys
import tempfile
import types
import unittest

BENCH = os.path.dirname(os.path.abspath(__file__))
sys.path.insert(0, BENCH)

import gen  # noqa: E402
import run  # noqa: E402
import spans  # noqa: E402


def _tree_bytes(root):
    out = {}
    for dirpath, _dirs, files in os.walk(root):
        for name in files:
            path = os.path.join(dirpath, name)
            with open(path, "rb") as fh:
                out[os.path.relpath(path, root)] = fh.read()
    return out


class GeneratorTest(unittest.TestCase):
    def test_same_seed_same_bytes_other_seed_differs(self):
        with tempfile.TemporaryDirectory() as tmp:
            trees = {}
            for label, seed in (("a", 3), ("b", 3), ("c", 4)):
                gen.generate("ip_library", seed, os.path.join(tmp, label))
                trees[label] = _tree_bytes(os.path.join(tmp, label, "rtl"))
            self.assertEqual(trees["a"], trees["b"])
            self.assertNotEqual(trees["a"], trees["c"])
            # the shape a seed produces stays the same: same files, same lines
            lines = lambda tree: sorted(text.count(b"\n") for text in tree.values())
            self.assertEqual(lines(trees["a"]), lines(trees["c"]))

    def test_corpora_parse_clean_and_hold_planted_assets(self):
        sys.path.insert(0, os.path.join(os.path.dirname(BENCH), "src"))
        from assetscout.evaluation import load_ground_truth
        from assetscout.report import run_pipeline
        with tempfile.TemporaryDirectory() as tmp:
            for workload in gen.WORKLOADS:
                m = gen.generate(workload, 7, os.path.join(tmp, workload), ports=60)
                args = dict(zip(m["args"][::2], m["args"][1::2]))
                report = run_pipeline(m["rtl_dir"], top=args.get("--top"),
                                      family=args["--family"],
                                      ground_truth=load_ground_truth(args["--ground-truth"]))
                self.assertEqual(report.diagnostics, [], workload)
                self.assertEqual(report.corpus_stats["line_count"], m["line_count"])
                found = {(a.module, a.name) for a in report.assets}
                self.assertTrue(m["planted"], workload)
                self.assertEqual([p for p in m["planted"] if tuple(p) not in found], [],
                                 workload)


class TracerTest(unittest.TestCase):
    def test_self_time_of_nested_calls(self):
        ticks = iter([0.0, 1.0, 3.0, 4.0, 5.0, 10.0])
        tracer = spans.Tracer("toy", clock=lambda: next(ticks))
        inner = tracer.wrap("inner", lambda: None)

        def outer_body():
            inner()
            inner()
        tracer.wrap("outer", outer_body)()
        times = spans.self_times(tracer.spans)
        self.assertEqual(times["outer"], [1, 7.0])   # 10 - (2 + 1)
        self.assertEqual(times["inner"], [2, 3.0])
        self.assertEqual([s[3] for s in tracer.spans], [None, 0, 0])
        self.assertTrue(all(s[4] == "toy" for s in tracer.spans))

    def test_overlapping_children_count_once(self):
        recorded = [["p", 0.0, 10.0, None, "r"], ["c", 1.0, 6.0, 0, "r"],
                    ["c", 4.0, 8.0, 0, "r"], ["c", 9.0, 12.0, 0, "r"]]
        self.assertEqual(spans.self_times(recorded)["p"][1], 2.0)

    def test_missing_binding_is_a_warning_not_a_crash(self):
        fake = types.ModuleType("bench_fake_layer")
        fake.present = lambda x: [x, x]
        sys.modules[fake.__name__] = fake
        try:
            tracer = spans.Tracer("r")
            tracer.install([("fake.present", fake.__name__, "present"),
                            ("fake.gone", fake.__name__, "gone"),
                            ("fake.nomodule", "bench_no_such_module", "f")])
            self.assertEqual(fake.present(1), [1, 1])
        finally:
            del sys.modules[fake.__name__]
        self.assertEqual(len(tracer.warnings), 2)
        self.assertEqual(spans.self_times(tracer.spans)["fake.present"][0], 1)
        self.assertNotIn("fake.gone", spans.self_times(tracer.spans))


class MetricNamesTest(unittest.TestCase):
    def test_names_are_valid_and_match_benchmark_json(self):
        with open(os.path.join(os.path.dirname(BENCH), "BENCHMARK.json")) as fh:
            spec = json.load(fh)
        declared_e2e = [(m["name"], m["unit"]) for m in spec["end_to_end"]]
        declared_layer = [(m["name"], m["unit"]) for m in spec["per_layer"]]
        self.assertEqual(declared_e2e, run.END_TO_END)
        self.assertEqual(declared_layer, run.PER_LAYER)
        self.assertEqual(sorted(w["name"] for w in spec["workloads"]),
                         sorted(gen.WORKLOADS))
        for name, _unit in run.END_TO_END + run.PER_LAYER:
            self.assertRegex(name, r"^[A-Za-z0-9_.-]+$")
        self.assertTrue(all(re.fullmatch(r"[A-Za-z0-9_.-]+", layer)
                            for layer, *_ in spans.TARGETS))


if __name__ == "__main__":
    unittest.main()
