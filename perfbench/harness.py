"""Runs each op cold, in a child forked from a parent that has only imported the package.

A fresh child per op means every cache the package keeps, today's and any a
later version adds, starts empty, without the benchmark naming them.  The
child runs the command in-process through ``bandorbump.cli.main``, times it,
and sends back its exit code, a digest of its stdout and, when traced, its
spans.  The package is imported lazily, so the set-up time can be measured
in children forked before the parent imports it.
"""

from __future__ import annotations

import hashlib
import io
import json
import os
import select
import signal
import sys
import time
from dataclasses import dataclass
from fractions import Fraction

import spans as tracing
from workloads import pin_key

REF_SHARE = 0.1


@dataclass
class OpResult:
    op: tuple[str, ...]
    exit: int | None = None
    sha256: str | None = None
    op_ms: float | None = None
    error: str | None = None
    peak_rss_kib: int = 0
    trace: dict | None = None

    def matches(self, pin: dict | None) -> bool:
        return (
            pin is not None
            and self.error is None
            and self.exit == pin["exit"]
            and self.sha256 == pin["sha256"]
        )


@dataclass
class PassResult:
    wall_s: float
    ref_ms: list[float]
    ops: list[OpResult]
    failed: list[OpResult]
    complete: bool


def assert_cold() -> None:
    """The parent must never have solved anything, or a child would start warm."""
    from bandorbump import distribution

    info = getattr(distribution.joint_distribution, "cache_info", None)
    if info is not None and info().currsize != 0:
        raise RuntimeError("parent process holds a warm joint_distribution cache")


def _child(op: tuple[str, ...], traced: bool) -> dict:
    from bandorbump import cli

    recorder = tracing.Recorder() if traced else None
    command = cli.main.main
    if recorder is not None:
        recorder.install()
        command = recorder.wrap(tracing.ROOT, command)
    out, err = io.BytesIO(), io.BytesIO()
    sys.stdout = io.TextIOWrapper(out, encoding="utf-8")
    sys.stderr = io.TextIOWrapper(err, encoding="utf-8")
    code, error = None, None
    start = time.perf_counter_ns()
    try:
        command(args=list(op), prog_name="bandorbump")
    except SystemExit as exc:
        code = exc.code if isinstance(exc.code, int) else (0 if exc.code is None else 1)
    except Exception as exc:  # reported as a failed op, never fatal to the run
        error = f"{type(exc).__name__}: {exc}"
    op_ms = (time.perf_counter_ns() - start) / 1e6
    sys.stdout.flush()
    result = {
        "exit": code,
        "sha256": hashlib.sha256(out.getvalue()).hexdigest(),
        "op_ms": op_ms,
        "error": error,
    }
    if recorder is not None:
        result["trace"] = recorder.payload()
    return result


def fork_call(fn, deadline: float) -> tuple[dict, int]:
    """fn() in a forked child, returning its JSON-able result and the child's peak RSS in KiB.

    A child still running at deadline (a time.monotonic value) is killed; an
    exception in fn, a kill or a child that dies silently yields {"error": ...}.
    """
    sys.stdout.flush()
    sys.stderr.flush()
    read_fd, write_fd = os.pipe()
    pid = os.fork()
    if pid == 0:
        os.close(read_fd)
        try:
            try:
                payload = json.dumps(fn()).encode()
            except BaseException as exc:
                payload = json.dumps({"error": f"harness: {type(exc).__name__}: {exc}"}).encode()
            with os.fdopen(write_fd, "wb") as pipe:
                pipe.write(payload)
        finally:
            os._exit(0)
    os.close(write_fd)
    chunks = []
    timed_out = False
    try:
        while True:
            wait = deadline - time.monotonic()
            if wait <= 0 or not select.select([read_fd], [], [], wait)[0]:
                timed_out = True
                os.kill(pid, signal.SIGKILL)
                break
            chunk = os.read(read_fd, 1 << 20)
            if not chunk:
                break
            chunks.append(chunk)
    finally:
        os.close(read_fd)
        _, _, usage = os.wait4(pid, 0)
    if timed_out:
        return {"error": "killed at the run's deadline"}, usage.ru_maxrss
    try:
        return json.loads(b"".join(chunks)), usage.ru_maxrss
    except ValueError:
        return {"error": "child ended without a result"}, usage.ru_maxrss


def run_op(op: tuple[str, ...], deadline: float, traced: bool = False) -> OpResult:
    """Run one op cold in a fresh child."""
    assert_cold()
    data, rss = fork_call(lambda: _child(op, traced), deadline)
    return OpResult(
        op,
        exit=data.get("exit"),
        sha256=data.get("sha256"),
        op_ms=data.get("op_ms"),
        error=data.get("error"),
        peak_rss_kib=rss,
        trace=data.get("trace"),
    )


def _reference_ms() -> float:
    """A fixed pure-Python computation, timed: big-integer convolution and Fraction sums."""
    start = time.perf_counter_ns()
    poly = [1]
    for _ in range(40):
        new = [0] * (len(poly) + 4)
        for x in range(5):
            w = (x + 3) ** 7
            for d, c in enumerate(poly):
                new[x + d] += w * c
        poly = new
    acc = Fraction(0)
    for k in range(1, 600):
        acc += Fraction(poly[k % len(poly)] % 1000 + 1, k * k + 1)
    return (time.perf_counter_ns() - start) / 1e6


def reference_ms(budget_s: float) -> list[float]:
    """Times of the reference computation, each in a fresh child as the ops are, for about budget_s."""
    times: list[float] = []
    while not times or sum(times) < budget_s * 1000:
        data, _ = fork_call(lambda: {"ref_ms": _reference_ms()}, time.monotonic() + 10)
        if "ref_ms" not in data:
            raise RuntimeError(f"reference computation failed: {data.get('error')}")
        times.append(data["ref_ms"])
    return times


def run_pass(
    ops: list[tuple[str, ...]], pins: dict[str, dict], deadline: float, traced: bool = False
) -> PassResult:
    """Every op once, in order, each checked against its pin; stops at the deadline.

    The machine's speed drifts by tens of percent over seconds to minutes, so
    between the ops the reference computation runs, each time in a fresh
    child, until it has taken REF_SHARE of the ops' time so far; the pass's
    times are later divided by its mean.  The pass wall time counts only the
    ops.
    """
    results, refs = [], []
    wall = ref_total = 0.0
    complete = True
    for op in ops:
        if time.monotonic() >= deadline:
            complete = False
            break
        start = time.perf_counter()
        results.append(run_op(op, deadline, traced))
        wall += time.perf_counter() - start
        owed = REF_SHARE * wall - ref_total / 1000
        if owed > 0:
            batch = reference_ms(owed)
            refs += batch
            ref_total += sum(batch)
    failed = [r for r in results if not r.matches(pins.get(pin_key(r.op)))]
    return PassResult(wall, refs, results, failed, complete)
