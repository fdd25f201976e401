"""End-to-end pipeline runs, report formats, and CLI exit codes."""

import ast
import gc
import hashlib
import importlib.util
import json
import os
import sys
import types

import pytest
from hypothesis import HealthCheck, given, settings
from hypothesis import strategies as st

import assetscout.cli
import assetscout.patterns
import assetscout.report
from assetscout.cli import (
    EXIT_BAD_CONFIG, EXIT_BAD_TOP, EXIT_NO_RTL, EXIT_OK, main,
)
from assetscout.keywords import load_family_config
from assetscout.report import (
    FORMATS, SCHEMA_VERSION, NoRtlFilesError, emit_keyword_stats, run_pipeline,
)
from assetscout.syntax import SignalDecl, Statement
from assetscout.tokenizer import Tokens

from conftest import (
    CORPUS_FAMILIES, FIXTURES, MINI_CORPUS, SPLITTER_DIR, SPLITTER_TRUTH, TESTS_DIR,
)

GOLDEN_ROOTS = {
    "load", "bank_selector", "data", "bank0", "bank1", "bank2", "bank3", "done",
}


def test_splitter_pipeline_roots():
    report = run_pipeline(SPLITTER_DIR, top="data_splitter", family="crypto")
    assert {a.name for a in report.assets} == GOLDEN_ROOTS
    assert report.top_modules == ["data_splitter"]


def test_stage_counts_monotonic_everywhere():
    dirs = [SPLITTER_DIR] + [
        os.path.join(MINI_CORPUS, ip) for ip in CORPUS_FAMILIES
    ]
    families = ["crypto"] + list(CORPUS_FAMILIES.values())
    for rtl_dir, family in zip(dirs, families):
        report = run_pipeline(rtl_dir, family=family)
        counts = report.stage_counts
        assert counts["candidates"] <= counts["important"] <= counts["extracted"]
        assert counts["extracted"] == report.corpus_stats["signal_count"]


def test_name_declared_twice_is_its_first_port_in_every_stage(tmp_path):
    # invalid Verilog: key_in is declared twice; the 128-bit port wins
    (tmp_path / "t.v").write_text(
        "module t (input [127:0] key_in, input key_in, output [127:0] data_out);"
        " assign data_out = key_in; endmodule\n")
    report = run_pipeline(str(tmp_path), family="crypto")
    counts = report.stage_counts
    assert counts["candidates"] <= counts["important"] <= counts["extracted"] == 2
    mod = report.database.module("t")
    for asset in report.assets:
        assert asset.width_bits == mod.signal(asset.name).width_bits
        for c in asset.contributors:
            assert c.signal is mod.signal(c.signal.name)
    assert "t.key_in [128b Input]" in report.to_text()


def test_corpus_stats():
    report = run_pipeline(SPLITTER_DIR)
    stats = report.corpus_stats
    assert stats["file_count"] == 1
    assert stats["module_count"] == 1
    assert stats["signal_count"] == 14
    assert stats["line_count"] > 0


def test_json_report_is_deterministic(tmp_path):
    out1 = tmp_path / "r1.json"
    out2 = tmp_path / "r2.json"
    run_pipeline(MINI_CORPUS, family="crypto", out_path=str(out1))
    run_pipeline(MINI_CORPUS, family="crypto", out_path=str(out2))
    assert out1.read_bytes() == out2.read_bytes()


def test_json_report_round_trips(tmp_path):
    out = tmp_path / "r.json"
    run_pipeline(SPLITTER_DIR, out_path=str(out))
    raw = out.read_bytes()
    data = json.loads(raw)
    assert data["schema_version"] == SCHEMA_VERSION
    again = (json.dumps(data, indent=2, sort_keys=True) + "\n").encode()
    assert again == raw


def test_assets_sorted_in_report():
    report = run_pipeline(MINI_CORPUS, family="crypto")
    rendered = json.loads(report.render("json"))
    keys = [(a["module"], a["name"], a["top"]) for a in rendered["assets"]]
    assert keys == sorted(keys)


def test_all_formats_render():
    report = run_pipeline(SPLITTER_DIR)
    for fmt in FORMATS:
        text = report.render(fmt)
        assert text
    assert report.render("csv").splitlines()[0] == \
        "top,module,signal,direction,width_bits,patterns,objectives,contributors"
    with pytest.raises(ValueError):
        run_pipeline(SPLITTER_DIR, fmt="yaml")


def test_no_rtl_files_raises(tmp_path):
    with pytest.raises(NoRtlFilesError):
        run_pipeline(str(tmp_path))


def test_files_without_modules_raise(tmp_path):
    (tmp_path / "empty.v").write_text("// no modules here\n")
    with pytest.raises(NoRtlFilesError):
        run_pipeline(str(tmp_path))


def test_keyword_stats_csv(tmp_path):
    out = tmp_path / "stats.csv"
    counts = emit_keyword_stats(SPLITTER_DIR, "crypto", str(out))
    lines = out.read_text().splitlines()
    assert lines[0] == "group,count"
    assert counts["data"] >= 2
    assert any(line.startswith("data,") for line in lines[1:])


def test_cli_success(tmp_path, capsys):
    out = tmp_path / "report.json"
    code = main(["--rtl-dir", SPLITTER_DIR, "--top", "data_splitter",
                 "--out", str(out)])
    assert code == EXIT_OK
    assert json.loads(out.read_text())["assets"]


def test_cli_stdout_report(capsys):
    assert main(["--rtl-dir", SPLITTER_DIR, "--format", "text"]) == EXIT_OK
    out = capsys.readouterr().out
    assert "data_splitter" in out


def test_cli_empty_dir_exit_2(tmp_path, capsys):
    assert main(["--rtl-dir", str(tmp_path)]) == EXIT_NO_RTL


@pytest.mark.parametrize("mode", [[], ["--stats"]])
def test_cli_tree_without_modules_exit_2(tmp_path, capsys, mode):
    (tmp_path / "empty.v").write_text("// no modules here\n")
    assert main(["--rtl-dir", str(tmp_path)] + mode) == EXIT_NO_RTL


def test_cli_named_connection_dot_at_end_of_file_is_a_diagnostic(tmp_path, capsys):
    (tmp_path / "cut.v").write_text(
        "module sub (input a, output y);\n  assign y = a;\nendmodule\n"
        "module top (input a);\n  sub u (.")
    out = tmp_path / "report.json"
    assert main(["--rtl-dir", str(tmp_path), "--out", str(out)]) == EXIT_OK
    assert json.loads(out.read_text())["diagnostics"] == [
        {"message": "malformed module: expected port name, got end of file",
         "severity": "error", "line": 5}]


def test_pipeline_classifies_once_for_many_tops(monkeypatch):
    original = assetscout.patterns.classify_design
    calls = []

    def counting(db):
        calls.append(db)
        return original(db)
    for module in list(sys.modules.values()):
        if module is not None and module.__name__.startswith("assetscout") \
                and getattr(module, "classify_design", None) is original:
            monkeypatch.setattr(module, "classify_design", counting)
    report = run_pipeline(MINI_CORPUS, family="crypto")
    assert len(report.top_modules) > 1
    assert len(calls) == 1


def test_pipeline_refines_and_links_once_for_many_tops(monkeypatch):
    calls = {"refine": 0, "link_status_to_control": 0}
    for name in calls:
        original = getattr(assetscout.report, name)

        def counting(*args, _name=name, _original=original):
            calls[_name] += 1
            return _original(*args)
        monkeypatch.setattr(assetscout.report, name, counting)
    report = run_pipeline(MINI_CORPUS, family="crypto")
    assert len(report.top_modules) > 1
    assert calls == {"refine": 1, "link_status_to_control": 1}
    assert {a.top for a in report.assets} <= set(report.top_modules)


def test_pipeline_renders_once_per_report(tmp_path, monkeypatch):
    # the benchmark's `report.render` span times serialisation through this call
    original = assetscout.report.AssetReport.render
    calls = []

    def counting(self, fmt):
        calls.append(fmt)
        return original(self, fmt)
    monkeypatch.setattr(assetscout.report.AssetReport, "render", counting)
    out = tmp_path / "r.json"
    run_pipeline(MINI_CORPUS, family="crypto", out_path=str(out))
    assert calls == ["json"]
    assert out.stat().st_size > 0


def test_cli_unknown_top_exit_3(capsys):
    code = main(["--rtl-dir", SPLITTER_DIR, "--top", "missing"])
    assert code == EXIT_BAD_TOP
    assert "data_splitter" in capsys.readouterr().err


def test_cli_bad_config_exit_4(tmp_path, capsys):
    bad = tmp_path / "bad.json"
    bad.write_text('{"version": 99}')
    code = main(["--rtl-dir", SPLITTER_DIR, "--config", str(bad)])
    assert code == EXIT_BAD_CONFIG


_JSON = st.recursive(
    st.none() | st.booleans() | st.integers() | st.floats() | st.text(max_size=8),
    lambda inner: st.lists(inner, max_size=3)
    | st.dictionaries(st.text(max_size=8), inner, max_size=3),
    max_leaves=12)


_GROUP = st.fixed_dictionaries({
    "fragments": st.lists(st.sampled_from(["key", "data", "en"]), min_size=1,
                          max_size=2),
    "objectives": st.lists(st.sampled_from(["Integrity", "Availability"]),
                           min_size=1, max_size=2),
}, optional={"exclude_fragments": st.just(["end"])})
_RULE = st.fixed_dictionaries({
    "name": st.text(max_size=4),
    "groups": st.lists(st.sampled_from(["g0", "g1"]), min_size=1, max_size=2),
    "patterns": st.lists(st.sampled_from(["Control", "Configuration", "Status",
                                          "Data"]), min_size=1, max_size=2),
}, optional={
    "directions": st.lists(st.sampled_from(["Input", "Output", "Net"]), max_size=3),
    "min_width": st.integers(1, 8),
    "max_width": st.none() | st.integers(1, 64),
    "objectives": st.just(["Confidentiality"]),
})


@st.composite
def _configs(draw):
    """A mostly well-formed config with at most one field damaged or dropped."""
    groups = [dict(group, name=f"g{i}")
              for i, group in enumerate(draw(st.lists(_GROUP, min_size=1,
                                                      max_size=2)))]
    config = {"version": 1, "groups": groups,
              "rules": draw(st.lists(_RULE, min_size=1, max_size=2))}
    if draw(st.booleans()):
        target = draw(st.sampled_from(
            [config] + config["groups"] + config["rules"]))
        key = draw(st.sampled_from(sorted(target) + ["family", "global_exclusions"]))
        if draw(st.booleans()):
            target[key] = draw(_JSON)
        else:
            target.pop(key, None)
    return config


@settings(max_examples=300, deadline=None,
          suppress_health_check=[HealthCheck.function_scoped_fixture])
@given(config=_JSON | _configs())
def test_cli_any_config_json_exits_0_or_4(tmp_path, capsys, config):
    path = tmp_path / "config.json"
    path.write_text(json.dumps(config))
    assert main(["--rtl-dir", SPLITTER_DIR, "--config", str(path)]) in (
        EXIT_OK, EXIT_BAD_CONFIG)


def test_cli_bad_ground_truth_exit_4(tmp_path, capsys):
    bad = tmp_path / "truth.csv"
    bad.write_text("module,signal,is_asset\nm,key,maybe\n")
    code = main(["--rtl-dir", SPLITTER_DIR, "--ground-truth", str(bad)])
    assert code == EXIT_BAD_CONFIG


def test_cli_unreadable_ground_truth_exit_4(tmp_path, capsys):
    undecodable = tmp_path / "latin1.csv"
    undecodable.write_bytes("module,signal,is_asset\nm,cl\xe9,1\n".encode("latin-1"))
    oversized = tmp_path / "oversized.csv"  # past the csv module's field limit
    oversized.write_text("module,signal,is_asset\nm," + "s" * 200_000 + ",1\n")
    for path in (tmp_path / "missing.csv", tmp_path, undecodable, oversized):
        code = main(["--rtl-dir", SPLITTER_DIR, "--ground-truth", str(path)])
        assert code == EXIT_BAD_CONFIG, path
        err = capsys.readouterr().err
        assert err.startswith("error: ") and "Traceback" not in err, err


@settings(max_examples=200, deadline=None,
          suppress_health_check=[HealthCheck.function_scoped_fixture])
@given(data=st.one_of(
    st.binary(max_size=64),
    st.lists(st.sampled_from([b"module,signal,is_asset\n", b"m,s,1\n", b"m,s,0\n",
                              b'"', b",", b"\n", b"\r", b"\x00", b"\xff", b"\xc3\xa9",
                              b"yes", b"data_splitter,load,true\n"]),
             max_size=12).map(b"".join)))
def test_cli_any_ground_truth_bytes_exit_0_or_4(tmp_path, capsys, data):
    path = tmp_path / "truth.csv"
    path.write_bytes(data)
    out = tmp_path / "report.json"
    assert main(["--rtl-dir", SPLITTER_DIR, "--ground-truth", str(path),
                 "--out", str(out)]) in (EXIT_OK, EXIT_BAD_CONFIG)


def test_cli_ground_truth_evaluation(tmp_path, capsys):
    out = tmp_path / "report.json"
    code = main(["--rtl-dir", SPLITTER_DIR, "--ground-truth", SPLITTER_TRUTH,
                 "--out", str(out)])
    assert code == EXIT_OK
    data = json.loads(out.read_text())
    assert data["evaluation"]["f1"] == 1.0
    assert "predicted" in capsys.readouterr().out


def test_cli_stats_mode(capsys):
    assert main(["--rtl-dir", SPLITTER_DIR, "--stats"]) == EXIT_OK
    out = capsys.readouterr().out
    assert out.splitlines()[0] == "group,count"


def test_cli_stats_stdout_is_the_file_bytes(tmp_path, capsys):
    # group names that a CSV writer must quote
    rename = {"key": "k,ey", "data": 'd"at'}
    data = load_family_config("crypto").to_dict()
    for group in data["groups"]:
        group["name"] = rename.get(group["name"], group["name"])
    for rule in data["rules"]:
        rule["groups"] = [rename.get(name, name) for name in rule["groups"]]
    config = tmp_path / "quoted.json"
    config.write_text(json.dumps(data))
    args = ["--rtl-dir", SPLITTER_DIR, "--config", str(config), "--stats"]
    out = tmp_path / "stats.csv"
    assert main(args + ["--out", str(out)]) == EXIT_OK
    assert main(args) == EXIT_OK
    assert capsys.readouterr().out.encode() == out.read_bytes()
    lines = out.read_bytes().splitlines()
    assert lines[0] == b"group,count"
    assert b'"k,ey",0' in lines and b'"d""at",7' in lines


def test_cli_version(capsys):
    with pytest.raises(SystemExit) as exc:
        main(["--version"])
    assert exc.value.code == 0
    assert "assetscout" in capsys.readouterr().out


BENCH_DIR = os.path.join(os.path.dirname(TESTS_DIR), "bench")


def _bench_fixtures():
    """`FIXTURES` of bench/run.py, evaluated without importing the runner."""
    path = os.path.join(BENCH_DIR, "run.py")
    with open(path, encoding="utf-8") as fh:
        tree = ast.parse(fh.read(), path)
    node = next(n for n in tree.body if isinstance(n, ast.Assign)
                and [getattr(t, "id", None) for t in n.targets] == ["FIXTURES"])
    return eval(compile(ast.Expression(node.value), path, "eval"),
                {"os": os, "FIXTURE_DIR": FIXTURES})


def test_fixture_reports_match_pinned_digests(tmp_path):
    with open(os.path.join(BENCH_DIR, "pinned.json"), encoding="utf-8") as fh:
        pinned = json.load(fh)["fixtures"]
    fixtures = _bench_fixtures()
    assert sorted(fixtures) == sorted(pinned)
    for name, (rtl_dir, args) in fixtures.items():
        out = tmp_path / f"{name}.json"
        assert main(["--rtl-dir", rtl_dir, "--out", str(out)] + args) == EXIT_OK
        assert hashlib.sha256(out.read_bytes()).hexdigest() == pinned[name], name


def _bench_gen():
    """bench/gen.py, loaded by its path: the benchmark's corpus generator."""
    spec = importlib.util.spec_from_file_location("bench_gen", os.path.join(BENCH_DIR, "gen.py"))
    module = importlib.util.module_from_spec(spec)
    spec.loader.exec_module(module)
    return module


def test_workload_reports_match_pinned_digests(tmp_path, capsys):
    with open(os.path.join(BENCH_DIR, "pinned.json"), encoding="utf-8") as fh:
        pinned = json.load(fh)["workloads"]
    gen = _bench_gen()
    assert sorted(gen.WORKLOADS) == sorted(pinned)
    for name in sorted(pinned):
        manifest = gen.generate(name, 1, str(tmp_path / name))
        out = tmp_path / f"{name}.json"
        assert main(["--rtl-dir", manifest["rtl_dir"], "--out", str(out)]
                    + manifest["args"]) == EXIT_OK
        assert hashlib.sha256(out.read_bytes()).hexdigest() == pinned[name], name


def _cyclic_garbage_of_ours():
    """What a full collection finds unreachable: the package's functions
    (closures left in a reference cycle) and its parse objects."""
    gc.collect()
    return [o for o in gc.garbage
            if isinstance(o, (Tokens, SignalDecl, Statement))
            or (isinstance(o, types.FunctionType)
                and o.__module__.startswith("assetscout"))]


def test_cli_run_leaves_no_cyclic_garbage(tmp_path):
    gc.collect()
    flags = gc.get_debug()
    gc.set_debug(flags | gc.DEBUG_SAVEALL)
    try:
        for name, (rtl_dir, args) in _bench_fixtures().items():
            del gc.garbage[:]
            out = tmp_path / f"{name}.json"
            assert main(["--rtl-dir", rtl_dir, "--out", str(out)] + args) == EXIT_OK
            assert _cyclic_garbage_of_ours() == [], name
    finally:
        gc.set_debug(flags)
        del gc.garbage[:]


@pytest.mark.parametrize("enabled", [True, False])
def test_cli_runs_without_cyclic_gc_and_restores_its_state(tmp_path, capsys,
                                                           monkeypatch, enabled):
    during = []

    def recording(*args, **kwargs):
        during.append(gc.isenabled())
        return run_pipeline(*args, **kwargs)
    monkeypatch.setattr(assetscout.cli, "run_pipeline", recording)
    bad = tmp_path / "bad.json"
    bad.write_text('{"version": 99}')
    (tmp_path / "empty").mkdir()
    runs = [
        (["--rtl-dir", SPLITTER_DIR, "--out", str(tmp_path / "r.json")], EXIT_OK),
        (["--rtl-dir", str(tmp_path / "empty")], EXIT_NO_RTL),
        (["--rtl-dir", SPLITTER_DIR, "--top", "missing"], EXIT_BAD_TOP),
        (["--rtl-dir", SPLITTER_DIR, "--config", str(bad)], EXIT_BAD_CONFIG),
        (["--version"], SystemExit),
    ]
    was_enabled = gc.isenabled()
    try:
        for argv, code in runs:
            (gc.enable if enabled else gc.disable)()
            if code is SystemExit:
                with pytest.raises(SystemExit):
                    main(argv)
            else:
                assert main(argv) == code, argv
            assert gc.isenabled() == enabled, argv
    finally:
        (gc.enable if was_enabled else gc.disable)()
    assert during == [False] * 4  # every run that reaches the pipeline
