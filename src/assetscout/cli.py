"""Command-line entry point, the only module that writes a file or a stream
and that maps a failure to an exit code; the library returns values.

Exit codes: 0 success, 2 no readable RTL files, 3 unknown top module,
4 config or ground-truth error, 5 output cannot be written.
"""

import argparse
import csv
import gc
import io
import sys
from typing import Optional

from . import __version__
from .design import DesignError
from .evaluation import GroundTruthError, load_ground_truth
from .keywords import ConfigError
from .report import FORMATS, NoRtlFilesError, keyword_stats, run_pipeline

EXIT_OK = 0
EXIT_NO_RTL = 2
EXIT_BAD_TOP = 3
EXIT_BAD_CONFIG = 4
EXIT_BAD_OUTPUT = 5

# failure class -> exit code, first match wins. The library turns its own read
# errors into diagnostics or the errors above: an OSError here is a failed write
FAILURES = (
    (NoRtlFilesError, EXIT_NO_RTL),
    (DesignError, EXIT_BAD_TOP),
    (ConfigError, EXIT_BAD_CONFIG),
    (GroundTruthError, EXIT_BAD_CONFIG),
    (OSError, EXIT_BAD_OUTPUT),
)


def build_arg_parser() -> argparse.ArgumentParser:
    ap = argparse.ArgumentParser(
        prog="assetscout",
        description="Identify potential primary security assets in "
                    "Verilog/SystemVerilog RTL designs.")
    ap.add_argument("--rtl-dir", required=True,
                    help="root directory scanned recursively for RTL files")
    ap.add_argument("--top", default=None,
                    help="top module name (auto-detected when omitted)")
    ap.add_argument("--family", "--config", dest="family", default="crypto",
                    help="builtin IP family (crypto|gpio|peripheral) or the "
                         "path of a JSON family config")
    ap.add_argument("--out", default=None,
                    help="report output file (stdout when omitted)")
    ap.add_argument("--format", default="json", choices=FORMATS,
                    help="report format")
    ap.add_argument("--stats", action="store_true",
                    help="emit keyword occurrence counts instead of a report")
    ap.add_argument("--ground-truth", default=None,
                    help="module,signal,is_asset CSV to evaluate against")
    ap.add_argument("--verbose", action="store_true",
                    help="print diagnostics to stderr")
    ap.add_argument("--version", action="version",
                    version=f"assetscout {__version__}")
    return ap


def main(argv=None) -> int:
    """Run the CLI with the cyclic garbage collector off, restoring its state
    on return: the pipeline makes no reference cycles, so reference counting
    frees all it drops, and a collection would only walk live objects."""
    gc_was_enabled = gc.isenabled()
    gc.disable()
    try:
        return _run(build_arg_parser().parse_args(argv))
    finally:
        if gc_was_enabled:
            gc.enable()


def _write(path: Optional[str], text: str) -> None:
    """`text` into the file at `path`, or to stdout when there is none."""
    if path:
        with open(path, "w", encoding="utf-8", newline="") as fh:
            fh.write(text)
    else:
        sys.stdout.write(text)


def _run(args: argparse.Namespace) -> int:
    try:
        if args.stats:
            buf = io.StringIO()
            csv.writer(buf, lineterminator="\n").writerows(
                [("group", "count"), *keyword_stats(args.rtl_dir, args.family).items()])
            _write(args.out, buf.getvalue())
            return EXIT_OK

        truth = load_ground_truth(args.ground_truth) if args.ground_truth else None
        report = run_pipeline(args.rtl_dir, args.top, args.family, truth)
        text = report.render(args.format)
        if args.out:
            _write(args.out, text)
        if args.verbose:
            for diag in report.diagnostics:
                print(f"[{diag.severity}] line {diag.line}: {diag.message}",
                      file=sys.stderr)
        if not args.out:
            _write(None, text)
        elif report.evaluation is not None:
            print(report.evaluation.confusion_text())
        return EXIT_OK
    except tuple(cls for cls, _code in FAILURES) as err:
        print(f"error: {err}", file=sys.stderr)
        return next(code for cls, code in FAILURES if isinstance(err, cls))


if __name__ == "__main__":
    sys.exit(main())
