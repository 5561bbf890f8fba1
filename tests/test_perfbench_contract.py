"""The benchmark's traced run wraps package functions by name and reads the
results it observes (``JointDistribution.rows``, ``EmpiricalDistribution.trials``,
``ComparisonReport.max_abs_z``).  Each command kind must run clean under it,
so that a change to those names fails here and not only in the benchmark."""

import json
import subprocess
import sys
from pathlib import Path

import pytest

ROOT = Path(__file__).resolve().parents[1]

# Runs each op through perfbench's harness: cold, in a forked child, traced.
# -B keeps bytecode out of perfbench/.
SCRIPT = """
import json, sys, time
sys.path[:0] = sys.argv[1:3]
import harness
result = harness.run_op(tuple(json.loads(sys.argv[3])), time.monotonic() + 120, traced=True)
spans = [span[0] for span in (result.trace or {}).get("spans", [])]
print(json.dumps({"exit": result.exit, "error": result.error, "spans": spans}))
"""

GAME = ("-m", "3", "-s", "3", "-l", "1", "-u", "2")


@pytest.mark.parametrize(
    "op, span",
    [
        (("dist", *GAME), "distribution.joint"),
        (("dist", *GAME, "--format", "json"), "exactnum.to_decimal"),
        (("payoff", *GAME, "--band", "-3", "--bump", "2"), "distribution.joint"),
        (("verify", *GAME, "--mc-trials", "200"), "oracle.compare"),
        # 20000 deals fork Monte Carlo workers inside the harness's forked child
        (("verify", *GAME, "--mc-trials", "20000"), "oracle.mc"),
        (("scan", "nonvacuity", "--m-max", "3", "--s-max", "4"), "analysis.scan"),
        (("scan", "bump-logconcavity", "--m-max", "3", "--s-max", "4"), "analysis.scan"),
    ],
    ids=[
        "dist-csv", "dist-json", "payoff", "verify-mc", "verify-mc-forked",
        "scan-nonvacuity", "scan-bump-logconcavity",
    ],
)
def test_traced_op_runs_clean(op, span):
    proc = subprocess.run(
        [sys.executable, "-B", "-c", SCRIPT, str(ROOT / "perfbench"), str(ROOT / "src"), json.dumps(op)],
        capture_output=True,
        text=True,
        timeout=300,
    )
    assert proc.returncode == 0, proc.stderr
    result = json.loads(proc.stdout)
    assert result["error"] is None, result["error"]
    assert result["exit"] == 0, result
    assert result["spans"][0] == "cli"
    assert span in result["spans"], result["spans"]


def test_cli_import_loads_no_process_machinery():
    # The benchmark's set-up child times this import; simulate forks with os
    # and marshal alone, so none of these may come in with the package.
    heavy = ["pickle", "multiprocessing", "concurrent.futures", "subprocess"]
    code = f"import sys, bandorbump.cli; print([m for m in {heavy!r} if m in sys.modules])"
    proc = subprocess.run([sys.executable, "-c", code], capture_output=True, text=True, timeout=60)
    assert proc.returncode == 0, proc.stderr
    assert proc.stdout == "[]\n"
