"""Command-line entry point.

Exit codes: 0 success, 2 no RTL files, 3 unknown top module, 4 config error.
"""

import argparse
import gc
import sys

from . import __version__
from .design import DesignError
from .evaluation import GroundTruthError, load_ground_truth
from .keywords import ConfigError
from .report import FORMATS, NoRtlFilesError, emit_keyword_stats, run_pipeline

EXIT_OK = 0
EXIT_NO_RTL = 2
EXIT_BAD_TOP = 3
EXIT_BAD_CONFIG = 4


def build_arg_parser() -> argparse.ArgumentParser:
    ap = argparse.ArgumentParser(
        prog="assetscout",
        description="Identify potential primary security assets in "
                    "Verilog/SystemVerilog RTL designs.")
    ap.add_argument("--rtl-dir", required=True,
                    help="root directory scanned recursively for RTL files")
    ap.add_argument("--top", default=None,
                    help="top module name (auto-detected when omitted)")
    ap.add_argument("--family", default="crypto",
                    help="builtin IP family (crypto|gpio|peripheral)")
    ap.add_argument("--config", default=None,
                    help="path to a JSON family config (overrides --family)")
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


def _run(args: argparse.Namespace) -> int:
    family = args.config if args.config else args.family
    try:
        if args.stats:
            counts = emit_keyword_stats(args.rtl_dir, family, args.out)
            if not args.out:
                print("group,count")
                for group, count in counts.items():
                    print(f"{group},{count}")
            return EXIT_OK

        truth = None
        if args.ground_truth:
            truth = load_ground_truth(args.ground_truth)
        report = run_pipeline(
            rtl_dir=args.rtl_dir,
            top=args.top,
            family=family,
            out_path=args.out,
            fmt=args.format,
            ground_truth=truth,
        )
        if args.verbose:
            for diag in report.diagnostics:
                print(f"[{diag.severity}] line {diag.line}: {diag.message}",
                      file=sys.stderr)
        if not args.out:
            sys.stdout.write(report.render(args.format))
        elif report.evaluation is not None:
            print(report.evaluation.confusion_text())
        return EXIT_OK
    except NoRtlFilesError as err:
        print(f"error: {err}", file=sys.stderr)
        return EXIT_NO_RTL
    except DesignError as err:
        print(f"error: {err}", file=sys.stderr)
        return EXIT_BAD_TOP
    except (ConfigError, GroundTruthError) as err:
        print(f"error: {err}", file=sys.stderr)
        return EXIT_BAD_CONFIG


if __name__ == "__main__":
    sys.exit(main())
