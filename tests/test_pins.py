"""Every non-Monte-Carlo benchmark op prints exactly its pinned output.

The pins in ``perfbench/pins.json`` hold the exit code and the SHA-256 of
stdout recorded for each op of the benchmark workloads, so this test holds
every output byte-identical to the recorded ones.  Ops with ``--mc-trials``
are left to the benchmark run itself, since they are slow.
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


def test_pinned_ops_print_pinned_stdout():
    workloads = _load_workloads()
    pins = workloads.load_pins()
    ops = [op for op in workloads.every_pinned_op() if "--mc-trials" not in op]
    assert ops
    runner = CliRunner()
    mismatches = []
    for op in ops:
        result = runner.invoke(cli.main, list(op), prog_name="bandorbump")
        got = {"exit": result.exit_code, "sha256": hashlib.sha256(result.stdout_bytes).hexdigest()}
        if got != pins[workloads.pin_key(op)]:
            mismatches.append((workloads.pin_key(op), got))
    assert mismatches == []
