"""Run one mwmlab CLI command in this fresh interpreter and record its timing.

Usage: python child.py TIMING_JSON SRC_DIR TRACE(0|1) CLI_ARG...

Timestamps come from ``time.monotonic``, which is the system-wide
CLOCK_MONOTONIC on Linux, so the parent can subtract the instant it launched
this process from ``ready`` to get the set-up time. Set-up ends once
``mwmlab.cli`` is imported, which is the state ``python -m mwmlab.cli`` has
reached when it starts parsing arguments. With TRACE=1 the spans of
``tracer.py`` are installed after that instant and their totals are written
with the timing.
"""

import contextlib
import json
import os
import resource
import sys
import time


def main() -> int:
    timing_path, src_dir, trace = sys.argv[1], sys.argv[2], sys.argv[3] == "1"
    argv = sys.argv[4:]
    import mwmlab.cli

    ready = time.monotonic()
    here = os.path.realpath(mwmlab.cli.__file__)
    if not here.startswith(os.path.realpath(src_dir) + os.sep):
        print(f"mwmlab imported from {here}, not from {src_dir}", file=sys.stderr)
        return 3
    tracer = None
    if trace:
        sys.path.insert(0, os.path.dirname(os.path.abspath(__file__)))
        import tracer as tracer_module

        tracer = tracer_module.Tracer()
        tracer.install()
    start = time.monotonic()
    code = 1
    try:
        with open(timing_path + ".stdout", "w", encoding="utf-8") as out, \
                contextlib.redirect_stdout(out):
            code = mwmlab.cli.main(argv)
    finally:
        end = time.monotonic()
        record = {
            "ready": ready,
            "start": start,
            "end": end,
            "exit": code,
            "maxrss_kib": resource.getrusage(resource.RUSAGE_SELF).ru_maxrss,
        }
        if tracer is not None:
            record["spans"] = tracer.summary()
            record["unmeasured"] = tracer.unmeasured
        with open(timing_path, "w", encoding="utf-8") as fh:
            json.dump(record, fh)
    return code


if __name__ == "__main__":
    sys.exit(main())
