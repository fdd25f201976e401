"""One analysis, run the way a CLI user runs it, in this fresh process.

    python3 bench/child.py RECORD SRC FAMILY TRACE RUN_ID -- CLI-ARGS...

Imports `assetscout.cli` from SRC, loads the FAMILY config, notes the time
(set-up ends here), calls `assetscout.cli.main(CLI-ARGS)` and notes the time
again. Timestamps are CLOCK_MONOTONIC, which is shared by every process of the
machine, so the runner can subtract its own spawn time. With TRACE=1 the
layer functions are wrapped first and the spans go into RECORD too. The exit
code is the CLI's.
"""

import json
import os
import sys
import time


def main(argv):
    record_path, src, family, trace, run_id, sep, *cli_args = argv
    if sep != "--":
        raise SystemExit("usage: child.py RECORD SRC FAMILY TRACE RUN_ID -- CLI-ARGS...")
    sys.path.insert(0, src)
    import assetscout.cli
    from assetscout.keywords import load_family_config

    expected = os.path.join(os.path.realpath(src), "assetscout", "")
    if not os.path.realpath(assetscout.cli.__file__).startswith(expected):
        raise SystemExit(f"assetscout imported from {assetscout.cli.__file__}, not {src}")
    load_family_config(family)
    ready = time.clock_gettime(time.CLOCK_MONOTONIC)

    tracer = None
    if trace == "1":
        from spans import Tracer
        tracer = Tracer(run_id)
        tracer.install()
    code = assetscout.cli.main(cli_args)
    done = time.clock_gettime(time.CLOCK_MONOTONIC)

    record = {"ready": ready, "done": done, "code": code}
    if tracer is not None:
        record["trace"] = tracer.record()
    with open(record_path, "w", encoding="utf-8") as fh:
        json.dump(record, fh)
    return code


if __name__ == "__main__":
    sys.exit(main(sys.argv[1:]))
