""""Never a crash": the frontend on arbitrary bytes and the CLI on random
small trees end with a result or a documented exit code, never a traceback."""

import json

from hypothesis import HealthCheck, example, given, settings
from hypothesis import strategies as st

from assetscout.cli import (
    EXIT_BAD_CONFIG, EXIT_BAD_OUTPUT, EXIT_BAD_TOP, EXIT_NO_RTL, EXIT_OK, main,
)
from assetscout.parser import parse_file

# Lines of RTL text: directives (includes of missing, present and cyclic
# targets among them), generate regions, declarations and statements,
# bytes that are not UTF-8, and ranges whose constants reach the evaluator's
# bound, a decimal literal past CPython's 4,300-digit limit among them.
_RANGES = ["[7:0]", "[W-1:0]", "[-7/2:0]", "[2.5:0]", "[1/0:0]", "[" + "1" * 5000 + ":0]",
           "['h" + "f" * 300 + ":0]", "[P*P*P*P:0]", "[UNKNOWN:0]", "["]
_LINES = st.one_of(
    st.sampled_from([
        "`define W 8", "`define M `M", "`define F(x) x", "`undef W", "`ifdef W",
        "`ifndef W", "`else", "`elsif W", "`endif", "`timescale 1ns/1ps",
        '`include "a.vh"', '`include "b.vh"', '`include "missing.vh"', '`include "f0.v"',
        "`W", "`M", "generate", "endgenerate", "genvar i;",
        "for (i = 0; i < 2; i = i + 1) begin : g", "if (W > 4) begin", "end",
        "module", "endmodule", "input integer n, output int c, output byte b, logic l;",
        "always @(posedge clk) unique if (start) data_out <= key_in; else data_out <= 0;",
        "always @* case (start) 1: data_out = key_in; endcase", "assign c = n;",
        "sub u (.*); sub v (.a(start), .b());", "and g (c, start, n);", "reg [W:0] r [0:3];",
        ";", "(", ")", "begin", "/* open", "(* attr", '"open', "\\esc ",
    ]),
    st.binary(max_size=6).map(lambda raw: raw.decode("latin-1")),
)
# a module around some of them, its key sized by one of the ranges
_MODULE = st.builds(
    lambda rng, body: "module m #(parameter W = 8, P = 1000000000000) (input clk,"
    f" input start, input {rng} key_in, output reg [7:0] data_out);\n"
    + "\n".join(body) + "\nendmodule",
    st.sampled_from(_RANGES), st.lists(_LINES, max_size=6))
_TEXT = st.lists(st.one_of(_MODULE, _LINES), max_size=8).map("\n".join)
# UTF-8 or Latin-1 text, or raw bytes
_FILE_BYTES = st.one_of(_TEXT.map(str.encode), _TEXT.map(lambda t: t.encode("latin-1", "replace")),
                        st.binary(max_size=40))
_LONG_LITERAL_MODULE = ("module m (input [" + "1" * 5000 + ":0] key_in, output [7:0] data_out);\n"
                        "  assign data_out = key_in;\nendmodule\n").encode()


@settings(max_examples=150, deadline=None,
          suppress_health_check=[HealthCheck.function_scoped_fixture])
@given(top=_FILE_BYTES, a=_FILE_BYTES, b=_FILE_BYTES)
def test_parse_file_never_raises_on_any_bytes(tmp_path, top, a, b):
    # a.vh and b.vh include each other and the file, so includes cycle
    for name, data in (("f0.v", top), ("a.vh", a + b'\n`include "b.vh"'),
                       ("b.vh", b + b'\n`include "a.vh"\n`include "f0.v"')):
        (tmp_path / name).write_bytes(data)
    unit = parse_file(str(tmp_path / "f0.v"), [str(tmp_path)])
    assert all(d.severity in ("warning", "error", "info") for d in unit.diagnostics)


_CONFIGS = {
    "valid": {"version": 1, "groups": [{"name": "key", "fragments": ["key"]}],
              "rules": [{"name": "flag", "groups": ["key"], "patterns": ["Data", "Control"],
                         "max_width": 1}]},
    "invalid": {"version": 1, "rules": "none"},
}
_TRUTHS = ["module,signal,is_asset\nm,key_in,1\nm,start,0\n", "module,signal\nm,key_in,yes\n"]


@settings(max_examples=100, deadline=None,
          suppress_health_check=[HealthCheck.function_scoped_fixture])
@example(files=[("f0.v", _LONG_LITERAL_MODULE)], top=None, family="crypto", truth=None,
         out="report.json", fmt="json", stats=False)
@given(files=st.lists(st.tuples(st.sampled_from(["f0.v", "f1.sv", "sub/f2.v", "a.vh", "b.vh"]),
                                _FILE_BYTES), min_size=1, max_size=4),
       top=st.sampled_from([None, "m", "sub", "nope"]),
       family=st.sampled_from(["crypto", "gpio", "peripheral", "valid", "invalid",
                               "missing.json"]),
       truth=st.sampled_from([None, 0, 1, "missing.csv"]),
       out=st.sampled_from([None, "report.json", "."]),
       fmt=st.sampled_from(["json", "csv", "text"]),
       stats=st.booleans())
def test_cli_returns_a_documented_code_on_any_tree(tmp_path_factory, capsys, files, top,
                                                   family, truth, out, fmt, stats):
    root = tmp_path_factory.mktemp("tree")
    rtl = root / "rtl"
    (rtl / "sub").mkdir(parents=True)
    for name, data in files:
        (rtl / name).write_bytes(data)
    args = ["--rtl-dir", str(rtl), "--format", fmt]
    if top is not None:
        args += ["--top", top]
    if family in _CONFIGS:
        (root / "family.json").write_text(json.dumps(_CONFIGS[family]))
        args += ["--config", str(root / "family.json")]
    else:
        args += ["--family", str(root / family) if family.endswith(".json") else family]
    if truth is not None:
        path = root / (truth if isinstance(truth, str) else "truth.csv")
        if not isinstance(truth, str):
            path.write_text(_TRUTHS[truth])
        args += ["--ground-truth", str(path)]
    if out is not None:
        args += ["--out", str(root / out)]
    if stats:
        args.append("--stats")
    code = main(args)
    captured = capsys.readouterr()
    assert code in (EXIT_OK, EXIT_NO_RTL, EXIT_BAD_TOP, EXIT_BAD_CONFIG, EXIT_BAD_OUTPUT)
    assert "Traceback" not in captured.err + captured.out
