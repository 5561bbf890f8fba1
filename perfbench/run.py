"""Cold-cache benchmark of the bandorbump CLI.

Usage, from the repository root:

    python3 perfbench/run.py --workload ladder|oracles|grid --seed N --seconds S --trace 0|1

One process drives the load, one op at a time (a closed loop with one
client).  Every op runs cold in its own forked child (see harness.py) and is
checked against its pinned exit code and stdout digest.  Passes over the op
list repeat while the next one still fits in --seconds.

--trace 0 prints the end-to-end metrics; --trace 1 alternates untraced and
traced passes, prints the per-layer metrics of the traced passes and writes
their spans to perfbench/out/.  The last stdout line is one JSON object with
the keys correct, attempted, failed and metrics.
"""

from __future__ import annotations

import argparse
import gc
import importlib
import json
import math
import statistics
import sys
import time
from collections import defaultdict
from pathlib import Path

HERE = Path(__file__).resolve().parent
sys.path.insert(1, str(HERE.parent / "src"))

import harness  # noqa: E402
import spans as tracing  # noqa: E402
import workloads  # noqa: E402

# Every run must end well inside the 180 s a run is allowed; an op still
# running at this point is killed and counted as failed.
HARD_LIMIT_S = 150.0
SETUP_REPEATS = 15
OUT_DIR = HERE / "out"


def _setup(workload: str, seed: int) -> dict:
    start = time.perf_counter()
    importlib.import_module("bandorbump.cli")
    workloads.build(workload, seed)
    workloads.load_pins()
    return {"setup_s": time.perf_counter() - start}


def measure_setup(workload: str, seed: int, deadline: float) -> list[float]:
    """Import-and-build time, in children forked before this process imports the package.

    The first child also compiles the package's bytecode, so it is left out.
    """
    times = []
    for _ in range(SETUP_REPEATS + 1):
        data, _ = harness.fork_call(lambda: _setup(workload, seed), deadline)
        if "error" in data:
            raise RuntimeError(f"set-up failed: {data['error']}")
        times.append(data["setup_s"])
    return times[1:]


def _passes(ops, pins, seconds: float, deadline: float, traced_too: bool):
    """Untraced passes, each followed by a traced one when traced_too, while the next fits."""
    plain, traced = [], []
    start = time.monotonic()
    while True:
        plain.append(harness.run_pass(ops, pins, deadline))
        if traced_too and plain[-1].complete:
            traced.append(harness.run_pass(ops, pins, deadline, traced=True))
        last = plain[-1].wall_s + (traced[-1].wall_s if traced else 0.0)
        finished = plain[-1].complete and (not traced or traced[-1].complete)
        if not finished or time.monotonic() - start + last > seconds:
            return plain, traced


def _ref_s(p: harness.PassResult) -> float:
    return statistics.fmean(p.ref_ms) / 1000


def end_to_end(plain, setup_times) -> dict[str, tuple[float, str]]:
    """The gated metrics.

    A time in unit "ref" is divided by the mean time of the reference
    computation run between the ops of the same pass, which cancels the
    machine's drift in speed; the raw times are printed alongside.
    """
    per_op = defaultdict(list)
    for p in plain:
        for r in p.ops:
            if r.op_ms is not None:
                per_op[r.op].append(r.op_ms / 1000 / _ref_s(p))
    typical = [statistics.median(v) for v in per_op.values()]
    return {
        "setup_s": (statistics.median(setup_times), "s"),
        "wall_norm": (statistics.median(p.wall_s / _ref_s(p) for p in plain), "ref"),
        "op_norm.geomean": (math.exp(statistics.fmean(math.log(x) for x in typical)), "ref"),
        "peak_rss_mb": (max(r.peak_rss_kib for p in plain for r in p.ops) / 1024, "MB"),
    }


def print_raw_times(plain) -> None:
    op_ms = [r.op_ms for p in plain for r in p.ops if r.op_ms is not None]
    print(f"wall_s {statistics.median(p.wall_s for p in plain)} s "
          f"(median over {len(plain)} passes)")
    print(f"op_ms.p50 {statistics.median(op_ms)} ms (over {len(op_ms)} ops)")
    if len(op_ms) >= 100:
        print(f"op_ms.p90 {statistics.quantiles(op_ms, n=10)[8]} ms (over {len(op_ms)} ops)")
    refs = [x for p in plain for x in p.ref_ms]
    print(f"ref_ms {statistics.fmean(refs)} ms (mean of {len(refs)} reference runs)")
    first, last = (p.wall_s / _ref_s(p) for p in (plain[0], plain[-1]))
    print(f"wall_norm first pass {first:.2f} ref, last pass {last:.2f} ref, "
          f"last/first {last / first:.4f}")


def per_layer(plain, traced, out_path: Path) -> dict[str, tuple[float, str]]:
    """Per-layer metrics: the median over traced passes, plus the tracing overhead."""
    totals = []
    for p in traced:
        t = tracing.PassTotals()
        for r in p.ops:
            if r.trace is not None:
                t.add(r.trace)
        totals.append(t)
    metrics = tracing.median_metrics(totals)
    metrics["trace.overhead_frac"] = (
        statistics.median(p.wall_s for p in traced) / statistics.median(p.wall_s for p in plain)
        - 1, "ratio")
    print("self-time shares of the first traced pass:")
    for name, share in totals[0].self_shares().items():
        print(f"  {name:28s} {100 * share:6.2f} %")
    _write_spans(out_path, traced)
    return metrics


def _write_spans(path: Path, traced) -> None:
    path.parent.mkdir(parents=True, exist_ok=True)
    op_id = 0
    with open(path, "w", encoding="utf-8") as fh:
        for pass_no, p in enumerate(traced):
            for r in p.ops:
                if r.trace is not None:
                    line = {"op": op_id, "pass": pass_no, "argv": list(r.op),
                            "spans": r.trace["spans"]}
                    fh.write(json.dumps(line) + "\n")
                op_id += 1


def main(argv=None) -> int:
    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    parser.add_argument("--workload", choices=workloads.WORKLOADS, required=True)
    parser.add_argument("--seed", type=int, required=True)
    parser.add_argument("--seconds", type=float, required=True)
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    args = parser.parse_args(argv)
    deadline = time.monotonic() + HARD_LIMIT_S

    try:
        setup_times = measure_setup(args.workload, args.seed, deadline)
    except RuntimeError as exc:
        print(exc, file=sys.stderr)
        return 2
    ops = workloads.build(args.workload, args.seed)
    pins = workloads.load_pins()
    # The children start with the package imported, so no op pays for the import.
    importlib.import_module("bandorbump.cli")
    # Objects the parent already holds go to the permanent generation, so a
    # collection inside a child does not copy the parent's pages.
    gc.freeze()

    plain, traced = _passes(ops, pins, args.seconds, deadline, bool(args.trace))
    runs = plain + traced
    attempted = sum(len(p.ops) for p in runs)
    failed = [r for p in runs for r in p.failed]
    for r in failed[:10]:
        print(f"FAILED {workloads.pin_key(r.op)}: exit={r.exit} error={r.error}")
    print(f"workload {args.workload}, seed {args.seed}: {len(plain)} untraced and "
          f"{len(traced)} traced passes of {len(ops)} ops")
    print(f"failed_frac {len(failed) / max(attempted, 1)} ({len(failed)} of {attempted} ops)")
    print_raw_times(plain)
    if args.trace:
        out_path = OUT_DIR / f"spans-{args.workload}-seed{args.seed}.jsonl"
        metrics = per_layer(plain, traced, out_path) if traced else {}
    else:
        metrics = end_to_end(plain, setup_times)
    for name, (value, unit) in metrics.items():
        print(f"{name} {value} {unit}")

    result = {
        "correct": not failed and attempted > 0,
        "attempted": attempted,
        "failed": len(failed),
        "metrics": {name: {"value": value, "unit": unit} for name, (value, unit) in metrics.items()},
    }
    print(json.dumps(result))
    return 0


if __name__ == "__main__":
    sys.exit(main())
