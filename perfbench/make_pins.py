"""Record the pinned output (exit code, stdout digest) of every op any workload can run.

Run from the repository root with `python3 perfbench/make_pins.py`.  The
pins hold the outputs of the commit they were made on, so regenerate them
only when an output is meant to change, and say so in the change.  A
non-zero exit code is pinned like any other output: at 30000 deals the Monte
Carlo leg of `verify` can exceed its |z| limit on a thin cell for some seeds.
"""

from __future__ import annotations

import json
import sys
import time
from pathlib import Path

sys.path.insert(1, str(Path(__file__).resolve().parent.parent / "src"))

import harness  # noqa: E402
import workloads  # noqa: E402


def main() -> int:
    pins = {}
    bad = 0
    for op in workloads.every_pinned_op():
        r = harness.run_op(op, deadline=time.monotonic() + 600)
        if r.error is not None:
            print(f"not pinned, {r.error}: {workloads.pin_key(op)}")
            bad += 1
            continue
        if r.exit != 0:
            print(f"pinned with exit {r.exit}: {workloads.pin_key(op)}")
        pins[workloads.pin_key(op)] = {"exit": r.exit, "sha256": r.sha256}
    with open(workloads.PINS_PATH, "w", encoding="utf-8") as fh:
        json.dump(pins, fh, indent=1, sort_keys=True)
        fh.write("\n")
    print(f"pinned {len(pins)} ops, {bad} left out")
    return 1 if bad else 0


if __name__ == "__main__":
    sys.exit(main())
