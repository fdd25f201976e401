"""Seeded synthetic RTL corpora for the benchmark workloads (standard library only).

The seed picks signal names and wiring. It never changes how many modules,
ports, nets or statements a workload has, nor the declaration order, so two
seeds cost the analyser about the same work and runs on different seeds can
be compared. Names are `<stem>_<hex tag>_<index>`: hex digits and underscores
cannot form a keyword fragment, so only the stem decides what the matcher
sees.

Every generated tree parses without diagnostics: each identifier used in a
statement or a connection is declared in its module.
"""

import csv
import itertools
import json
import os
import random
import shutil

HEADER = "bench_defs.vh"
HEADER_TEXT = """\
`ifndef BENCH_DEFS_VH
`define BENCH_DEFS_VH
`define BENCH_WIDTH 32
`endif
"""

# width spec -> declaration range; WIDTH is each module's parameter
RANGES = {1: "", 8: "[7:0] ", "P": "[WIDTH-1:0] ", 128: "[127:0] "}

# Port mixes: (width, stems, count). Stems without keyword fragments are
# noise the matcher must reject.
CRYPTO = {
    "family": "crypto",
    "inputs": [
        (128, ["key"], 4),
        (1, ["en", "start", "load", "go", "hold", "stall"], 24),
        (8, ["mode", "sel", "cfg", "round", "lane"], 16),
        ("P", ["din", "data", "text", "plain", "iv", "nonce", "seed", "aux"], 40),
        (128, ["block", "nonce", "pipe"], 16),
    ],
    "outputs": [
        (1, ["done", "ready", "valid", "busy", "flag"], 30),
        (8, ["cnt", "state", "rnd"], 20),
        ("P", ["dout", "cipher", "text", "res"], 30),
        (128, ["block", "word"], 20),
    ],
    "nets": 50,
    "links": 16,
    "planted": [("input", "key"), ("output", "done")],
}

PERIPHERAL = {
    "family": "peripheral",
    "inputs": [
        (8, ["tx"], 2),
        (1, ["en", "cs", "sel", "valid", "hold"], 7),
        (8, ["addr", "sel", "cfg", "lane"], 4),
        ("P", ["din", "data", "rx", "aux"], 7),
    ],
    "outputs": [
        (1, ["busy"], 2),
        (1, ["ready", "irq", "valid", "flag"], 6),
        (8, ["cnt", "state", "tx"], 4),
        ("P", ["dout", "rx", "res"], 6),
    ],
    "nets": 8,
    "links": 4,
    "planted": [("input", "tx"), ("output", "busy")],
}

GPIO = {
    "family": "gpio",
    "inputs": [
        ("P", ["wdata"], 4),
        (1, ["wen", "ena", "oen", "hold", "stb"], 110),
        (8, ["dir", "mode", "lane"], 60),
        ("P", ["data", "pad", "pin", "aux"], 300),
        (128, ["gpio", "pipe"], 30),
    ],
    "outputs": [
        (1, ["irq"], 4),
        (1, ["intr", "oe", "flag", "ack"], 120),
        (8, ["cnt", "state", "dir"], 80),
        ("P", ["rdata", "port", "res"], 250),
        (128, ["gpio", "word"], 40),
    ],
    "nets": 230,
    "links": 0,
    "planted": [("input", "wdata"), ("output", "irq")],
}

# Each workload: the port mix, the tree shape, whether it is analysed with
# --top, and optionally `ports`, the port total the mix is scaled to.
WORKLOADS = {
    # one deep binary instantiation tree, analysed from its root
    "hier_soc": {"profile": CRYPTO, "trees": 1, "modules_per_tree": 12,
                 "top": True},
    # a forest of independent IP trees: every root is a top module
    "ip_library": {"profile": PERIPHERAL, "trees": 11, "modules_per_tree": 3,
                   "top": False},
    # one flat CSR-style module with thousands of ports in one file
    "wide_regfile": {"profile": GPIO, "trees": 1, "modules_per_tree": 1,
                     "top": True, "ports": 3200},
}


def _port_total(profile):
    return sum(count for _w, _s, count in profile["inputs"] + profile["outputs"])


def _scaled(profile, ports):
    """`profile` with every count scaled so the port total is about `ports`."""
    factor = ports / _port_total(profile)
    scale = lambda entries: [(w, s, max(1, round(c * factor))) for w, s, c in entries]
    return dict(profile, inputs=scale(profile["inputs"]),
                outputs=scale(profile["outputs"]),
                nets=max(1, round(profile["nets"] * factor)))


class _Names:
    """Unique `<stem>_<tag>_<n>` names; the tag is seeded hex."""

    def __init__(self, rng):
        self.rng = rng
        self.n = 0

    def __call__(self, stem):
        self.n += 1
        return f"{stem}_{self.rng.getrandbits(16):04x}_{self.n}"


def _ports(names, entries):
    """[(name, width, stem)] for one direction, the kinds interleaved.

    The order does not depend on the seed: signal lookups scan the port list,
    so a seeded order would make the work differ from seed to seed.
    """
    kinds = [[(names(stems[i % len(stems)]), width, stems[i % len(stems)])
              for i in range(count)] for width, stems, count in entries]
    return [port for group in itertools.zip_longest(*kinds) for port in group
            if port is not None]


def _module(rng, name, profile, children, planted):
    """Verilog text of one module, plus its input and output port tables.

    `children` lists (module name, inputs, outputs) to instantiate. When
    `planted` is a list, this module is a top and its planted assets are
    appended to it.
    """
    names = _Names(rng)
    ins = _ports(names, profile["inputs"])
    outs = _ports(names, profile["outputs"])
    widths = [w for w in RANGES if any(iw == w for _n, iw, _s in ins)]
    nets = [(names("n"), widths[i % len(widths)]) for i in range(profile["nets"])]
    links = [(names("l"), w, port, ci)
             for ci, (_cname, _cins, couts) in enumerate(children)
             for port, w, _ in couts[:profile["links"]]]

    lines = [f'`include "{HEADER}"', "",
             f"module {name} #(parameter WIDTH = `BENCH_WIDTH) (",
             "  input clk,", "  input rst_n,",
             ",\n".join([f"  input {RANGES[w]}{n}" for n, w, _ in ins]
                        + [f"  output reg {RANGES[w]}{n}" for n, w, _ in outs]),
             ");"]
    lines += [f"  wire {RANGES[w]}{n};" for n, w, *_ in nets + links]

    # Every input is read by one net's assign, so each multi-bit input shows
    # the Data pattern whatever the seed.
    for w in widths:
        width_nets = [n for n, nw in nets if nw == w]
        width_ins = [n for n, iw, _ in ins if iw == w]
        for k, net in enumerate(width_nets):
            terms = width_ins[k::len(width_nets)] or [width_ins[k % len(width_ins)]]
            lines.append(f"  assign {net} = {' ^ '.join(terms)};")

    pools = {w: [n for n, pw, *_ in ins + nets + links if pw == w] for w in widths}
    for pool in pools.values():
        rng.shuffle(pool)
    readers = {w: itertools.cycle(pools[w]) for w in widths}
    controls = itertools.cycle([n for n, w, _ in ins if w == 1])

    for ci, (cname, cins, _couts) in enumerate(children):
        conns = ["    .clk(clk)", "    .rst_n(rst_n)"]
        conns += [f"    .{port}({next(readers[w])})" for port, w, _ in cins]
        conns += [f"    .{port}({link})" for link, _w, port, lci in links if lci == ci]
        lines += [f"  {cname} #(.WIDTH(WIDTH)) u_{ci} (", ",\n".join(conns), "  );"]

    lines += ["  always @(posedge clk or negedge rst_n) begin",
              "    if (!rst_n) begin",
              f"      {outs[0][0]} <= 0;",
              "    end else begin"]
    lines += [f"      if ({next(controls)}) {n} <= {next(readers[w])};"
              for n, w, _ in outs]
    sel = next(n for n, w, _ in ins if w == 8)
    targets = itertools.cycle(outs)
    lines.append(f"      case ({sel})")
    for item in range(8):
        label = "default" if item == 7 else f"8'd{item}"
        (a, aw, _), (b, bw, _) = next(targets), next(targets)
        lines.append(f"        {label}: begin {a} <= {next(readers[aw])}; "
                     f"{b} <= {next(readers[bw])}; end")
    lines += ["      endcase", "    end", "  end", "endmodule", ""]

    if planted is not None:
        for direction, stem in profile["planted"]:
            table = ins if direction == "input" else outs
            planted.extend([name, n] for n, _w, s in table if s == stem)
    return "\n".join(lines), ins, outs


def generate(workload, seed, out_dir, ports=None):
    """Write the corpus of `workload` for `seed` under `out_dir`.

    Layout: `rtl/` (the only input the analyser reads, besides the
    ground-truth CSV), `truth.csv` (planted assets, all labelled 1) and
    `planted.json`, the manifest: CLI arguments, planted assets and the
    corpus's line count. `ports` rescales every module's port mix to
    about that many ports. Returns the manifest.
    """
    spec = WORKLOADS[workload]
    ports = ports or spec.get("ports")
    profile = _scaled(spec["profile"], ports) if ports else spec["profile"]
    rng = random.Random(f"{workload}:{seed}:{ports}")
    rtl = os.path.join(out_dir, "rtl")
    if os.path.isdir(out_dir):
        shutil.rmtree(out_dir)
    os.makedirs(rtl)
    with open(os.path.join(rtl, HEADER), "w", encoding="utf-8") as fh:
        fh.write(HEADER_TEXT)
    line_count = HEADER_TEXT.count("\n")

    planted, tops = [], []
    prefix = f"ip{rng.getrandbits(16):04x}"
    for tree in range(spec["trees"]):
        count = spec["modules_per_tree"]
        mod_names = [f"{prefix}_t{tree}_m{i}" for i in range(count)]
        tables = {}
        # children before parents: module i instantiates 2i+1 and 2i+2
        for i in reversed(range(count)):
            kids = [k for k in (2 * i + 1, 2 * i + 2) if k < count]
            children = [(mod_names[k],) + tables[k] for k in kids]
            text, ins, outs = _module(rng, mod_names[i], profile, children,
                                      planted if i == 0 else None)
            tables[i] = (ins, outs)
            line_count += text.count("\n")
            with open(os.path.join(rtl, mod_names[i] + ".v"), "w",
                      encoding="utf-8") as fh:
                fh.write(text)
        tops.append(mod_names[0])

    truth = os.path.join(out_dir, "truth.csv")
    with open(truth, "w", encoding="utf-8", newline="") as fh:
        writer = csv.writer(fh, lineterminator="\n")
        writer.writerow(["module", "signal", "is_asset"])
        for module, signal in planted:
            writer.writerow([module, signal, 1])

    args = ["--family", profile["family"], "--ground-truth", truth]
    if spec["top"]:
        args += ["--top", tops[0]]
    manifest = {"workload": workload, "seed": seed, "rtl_dir": rtl,
                "args": args, "planted": planted, "line_count": line_count}
    with open(os.path.join(out_dir, "planted.json"), "w", encoding="utf-8") as fh:
        json.dump(manifest, fh, indent=1, sort_keys=True)
        fh.write("\n")
    return manifest
