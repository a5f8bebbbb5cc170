"""Write pins.json: the checked values of every invocation the benchmark runs.

Run from the root of a checkout of the commit whose results are the
reference::

    python3 bench/make_pins.py

Each invocation runs once, in a fresh child, against a fresh cache dir.
"""

from __future__ import annotations

import json
import shutil
import sys
import tempfile
import time
from pathlib import Path

import run


def main() -> int:
    argvs = {}
    for workload in run.WORKLOADS.values():
        for argv in workload.setup + workload.invocations:
            argvs[run.pin_key(argv)] = argv
    pins = {}
    run.RUN_ROOT.mkdir(exist_ok=True)
    cwd = Path(tempfile.mkdtemp(prefix="pins-", dir=run.RUN_ROOT))
    try:
        for key, argv in sorted(argvs.items()):
            outcome = run.run_child(argv, cwd, time.monotonic() + 600)
            if outcome.errors:
                print(f"{key}: {'; '.join(outcome.errors)}", file=sys.stderr)
                return 1
            pins[key] = run.extract(outcome.report)
            shutil.rmtree(cwd / run.CACHE_ARG)
    finally:
        shutil.rmtree(cwd, ignore_errors=True)
        try:
            run.RUN_ROOT.rmdir()
        except OSError:
            pass
    with open(run.PINS_PATH, "w", encoding="utf-8") as fh:
        json.dump(pins, fh, indent=1, sort_keys=True)
        fh.write("\n")
    return 0


if __name__ == "__main__":
    sys.exit(main())
