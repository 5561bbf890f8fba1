"""Benchmark ops print exactly their pinned output.

The pins in ``perfbench/pins.json`` hold the exit code and the SHA-256 of
stdout recorded for each op of the benchmark workloads, so these tests hold
the outputs byte-identical to the recorded ones.  Every op without
``--mc-trials`` runs, and of the 32 pinned Monte Carlo ops the four of seeds
0 and 3 run (about 2 s), among them the one pinned with exit 1
(``verify -m 4 -s 13 -l 5 -u 8 ... --mc-trials 30000 --seed 3``); the rest
are left to the benchmark run itself.
"""

import hashlib
import importlib.util
from pathlib import Path

from click.testing import CliRunner

from bandorbump import cli

WORKLOADS_PATH = Path(__file__).resolve().parents[1] / "perfbench" / "workloads.py"


def _load_workloads():
    spec = importlib.util.spec_from_file_location("perfbench_workloads", WORKLOADS_PATH)
    module = importlib.util.module_from_spec(spec)
    spec.loader.exec_module(module)
    return module


def _mismatches(workloads, ops):
    pins = workloads.load_pins()
    runner = CliRunner()
    mismatches = []
    for op in ops:
        result = runner.invoke(cli.main, list(op), prog_name="bandorbump")
        got = {"exit": result.exit_code, "sha256": hashlib.sha256(result.stdout_bytes).hexdigest()}
        if got != pins[workloads.pin_key(op)]:
            mismatches.append((workloads.pin_key(op), got))
    return mismatches


def test_pinned_ops_print_pinned_stdout():
    workloads = _load_workloads()
    ops = [op for op in workloads.every_pinned_op() if "--mc-trials" not in op]
    assert ops
    assert _mismatches(workloads, ops) == []


def test_monte_carlo_ops_print_pinned_stdout():
    workloads = _load_workloads()
    ops = [op for seed in (0, 3) for op in workloads.oracle_ops((seed, seed)) if "--mc-trials" in op]
    pins = workloads.load_pins()
    assert sorted(pins[workloads.pin_key(op)]["exit"] for op in ops) == [0, 0, 0, 1]
    assert _mismatches(workloads, ops) == []
