import csv
import io
import json
import math
import os
import subprocess
import sys
from collections import Counter
from decimal import Decimal
from fractions import Fraction
from importlib.metadata import EntryPoint
from pathlib import Path

import pytest
from click.testing import CliRunner, Result

from bandorbump import cli
from bandorbump.analysis import Finding, ScanReport, moments
from bandorbump.cli import _rat
from bandorbump.distribution import GameParams, JointDistribution, Outcome, joint_distribution
from bandorbump.oracle import EmpiricalDistribution

TIMEOUT = 120


def run_cli(*args: str, check: bool = False) -> subprocess.CompletedProcess:
    proc = subprocess.run(
        [sys.executable, "-m", "bandorbump", *args],
        capture_output=True,
        text=True,
        timeout=TIMEOUT,
    )
    if check and proc.returncode != 0:
        raise AssertionError(f"exit {proc.returncode}\nstdout:\n{proc.stdout}\nstderr:\n{proc.stderr}")
    return proc


class TestDistCsv:
    def test_tiny_game_golden(self):
        proc = run_cli("dist", "-m", "2", "-s", "3", "-l", "1", "-u", "2", check=True)
        expected = (
            'n,"P[N=n, band]","P[N=n, bump]",P[N=n],P[N=n | band],P[N=n | bump]\n'
            "2,0.600000,,0.600000,0.666667,\n"
            "3,0.300000,0.100000,0.400000,0.333333,1.00000\n"
            "Outcome probabilities,0.900000,0.100000,,,\n"
            "Mean duration,,,2.40000,2.33333,3.00000\n"
            "Standard deviation,,,0.489898,0.471405,0\n"
        )
        assert proc.stdout == expected

    def test_zero_window_single_row(self):
        proc = run_cli("dist", "-m", "2", "-s", "2", "-l", "0", "-u", "0", check=True)
        rows = list(csv.reader(io.StringIO(proc.stdout)))
        assert rows[1] == ["1", "", "1.00000", "1.00000", "", "1.00000"]

    def test_suit_game_spot_rows(self):
        proc = run_cli("dist", "-m", "4", "-s", "13", "-l", "5", "-u", "8", check=True)
        rows = {r[0]: r for r in csv.reader(io.StringIO(proc.stdout))}
        assert rows["9"] == ["9", "", "0.000000777369", "0.000000777369", "", "0.00000197294"]
        assert rows["24"] == ["24", "0.109624", "0.0564823", "0.166106", "0.180903", "0.143350"]
        assert rows["29"] == ["29", "0.00536205", "0.00893675", "0.0142988", "0.00884850", "0.0226812"]
        assert rows["Outcome probabilities"][1:3] == ["0.605984", "0.394016"]
        assert rows["Mean duration"][3:] == ["23.9151", "23.8664", "23.9899"]
        assert rows["Standard deviation"][3:] == ["2.33806", "2.00364", "2.77314"]

    def test_round_trip_is_byte_stable(self):
        proc = run_cli("dist", "-m", "4", "-s", "13", "-l", "5", "-u", "8", check=True)
        parsed = list(csv.reader(io.StringIO(proc.stdout)))
        buf = io.StringIO()
        csv.writer(buf, lineterminator="\n").writerows(parsed)
        assert buf.getvalue() == proc.stdout

    def test_digits_flag(self):
        proc = run_cli(
            "dist", "-m", "2", "-s", "3", "-l", "1", "-u", "2", "--digits", "3", check=True
        )
        rows = list(csv.reader(io.StringIO(proc.stdout)))
        assert rows[1][1] == "0.600"
        assert proc.stdout.splitlines()[-1] == "Standard deviation,,,0.490,0.471,0"

    def test_invalid_params_exit_2(self):
        proc = run_cli("dist", "-m", "2", "-s", "3", "-l", "2", "-u", "1")
        assert proc.returncode == 2
        assert "window" in proc.stderr

    def test_zero_digits_exit_2(self):
        # usage error, not a traceback: sig_figs < 1 has no rendering
        proc = run_cli("dist", "-m", "2", "-s", "3", "-l", "1", "-u", "2", "--digits", "0")
        assert proc.returncode == 2
        assert "Traceback" not in proc.stderr
        proc = run_cli(
            "payoff", "-m", "2", "-s", "3", "-l", "1", "-u", "2",
            "--band", "1", "--bump", "1", "--digits", "0",
        )
        assert proc.returncode == 2
        assert "Traceback" not in proc.stderr


    def test_digits_past_the_bound_exit_2(self):
        # a significand of 5000 digits cannot be printed; refuse it up front
        game = ("-m", "2", "-s", "3", "-l", "1", "-u", "2")
        for op in (("dist", *game), ("payoff", *game, "--band", "1", "--bump", "1")):
            proc = run_cli(*op, "--digits", "5000")
            assert proc.returncode == 2, op
            assert "--digits" in proc.stderr and "1<=x<=1000" in proc.stderr
            assert "Traceback" not in proc.stderr
            proc = run_cli(*op, "--digits", "1000")
            assert proc.returncode == 0, op
            assert "Traceback" not in proc.stderr


class TestDistJson:
    def test_tiny_game_values(self):
        proc = run_cli(
            "dist", "-m", "2", "-s", "3", "-l", "1", "-u", "2", "--format", "json", check=True
        )
        doc = json.loads(proc.stdout)
        assert doc["params"] == {"m": 2, "s": 3, "l": 1, "u": 2, "t": 6, "n_max": 3}
        by_n = {row["n"]: row for row in doc["rows"]}
        assert by_n[2]["band"] == {"exact": "3/5", "decimal": "0.600000"}
        assert by_n[3]["bump"] == {"exact": "1/10", "decimal": "0.100000"}
        assert by_n[2]["bump"] == {"exact": "0/1", "decimal": "0"}
        assert doc["band_marginal"]["exact"] == "9/10"
        assert doc["mean_duration"]["overall"]["exact"] == "12/5"
        assert doc["mean_duration"]["sd"] == "0.489898"

    def test_zero_quota_deck_stops_at_the_first_draw(self):
        proc = run_cli(
            "dist", "-m", "3", "-s", "3", "-l", "0", "-u", "2", "--format", "json", check=True
        )
        doc = json.loads(proc.stdout)
        assert doc["params"] == {"m": 3, "s": 3, "l": 0, "u": 2, "t": 9, "n_max": 1}
        assert [row["n"] for row in doc["rows"]] == [1]

    def test_exact_strings_lose_nothing(self):
        proc = run_cli(
            "dist", "-m", "3", "-s", "4", "-l", "1", "-u", "3", "--format", "json", check=True
        )
        doc = json.loads(proc.stdout)
        total = sum(Fraction(row["total"]["exact"]) for row in doc["rows"])
        assert total == 1

    def test_exact_strings_are_in_lowest_terms(self):
        proc = run_cli(
            "dist", "-m", "4", "-s", "13", "-l", "5", "-u", "8", "--format", "json", check=True
        )
        doc = json.loads(proc.stdout)
        dist = joint_distribution(GameParams(4, 13, 5, 8))
        report = moments(dist)
        expected = {}
        for n, band, bump in dist.rows:
            expected[n] = {
                "band": band,
                "bump": bump,
                "total": band + bump,
                "band_conditional": band / dist.band_marginal,
                "bump_conditional": bump / dist.bump_marginal,
            }
        cells = [
            (row[key]["exact"], value)
            for row in doc["rows"]
            for key, value in expected[row["n"]].items()
        ]
        cells += [
            (doc["band_marginal"]["exact"], dist.band_marginal),
            (doc["bump_marginal"]["exact"], dist.bump_marginal),
            (doc["mean_duration"]["overall"]["exact"], report.mean),
            (doc["mean_duration"]["variance"], report.variance),
            (doc["mean_duration"]["band"]["mean"]["exact"], report.band.mean),
            (doc["mean_duration"]["band"]["variance"], report.band.variance),
            (doc["mean_duration"]["bump"]["mean"]["exact"], report.bump.mean),
            (doc["mean_duration"]["bump"]["variance"], report.bump.variance),
        ]
        assert len(cells) == 5 * len(dist.rows) + 8
        for exact, value in cells:
            num, den = map(int, exact.split("/"))
            assert math.gcd(num, den) == 1, exact
            assert Fraction(num, den) == value, exact

    def test_zero_marginal_conditionals_are_null(self):
        proc = run_cli(
            "dist", "-m", "2", "-s", "2", "-l", "0", "-u", "0", "--format", "json", check=True
        )
        doc = json.loads(proc.stdout)
        row = doc["rows"][0]
        assert row["band_conditional"] is None
        assert row["bump_conditional"]["exact"] == "1/1"
        assert doc["mean_duration"]["band"] is None

    def test_exact_string_past_the_int_digit_limit(self, monkeypatch):
        # 3**9500 has 4 533 digits, past the 4 300 that str() allows by
        # default; the limit is process-wide state, so _rat must not touch it.
        def refuse(limit):
            raise AssertionError("_rat changed the int digit limit")

        monkeypatch.setattr(sys, "set_int_max_str_digits", refuse, raising=False)
        x = Fraction(2, 3**9500)
        get_limit = getattr(sys, "get_int_max_str_digits", lambda: None)
        limit = get_limit()
        num, den = _rat(x).split("/")
        assert len(den) == 4533
        assert Fraction(int(Decimal(num)), int(Decimal(den))) == x  # no int(str) limit
        assert get_limit() == limit


# Runs the CLI on two CPUs, where a fork fails or each forked worker exits
# before it sends a thing; it fails if simulate never tried a fork.
_FAULTY_WORKERS = """if True:
    import errno, os, sys
    from bandorbump import cli, oracle
    fault, args = sys.argv[1], sys.argv[2:]
    real_fork, real_deal, parent, forks = os.fork, oracle._deal, os.getpid(), []

    def fork():
        forks.append(1)
        if fault == "failing-fork":
            raise OSError(errno.EAGAIN, os.strerror(errno.EAGAIN))
        return real_fork()

    def deal(*block):
        if os.getpid() != parent:
            os._exit(0)
        return real_deal(*block)

    os.fork, os.sched_getaffinity = fork, lambda pid: {0, 1}
    if fault == "silent-worker":
        oracle._deal = deal
    try:
        cli.main(args, prog_name="bandorbump")
    finally:
        assert forks, "simulate never tried a fork"
"""


class TestVerify:
    def test_exhaustive_pass(self):
        proc = run_cli("verify", "-m", "2", "-s", "3", "-l", "1", "-u", "2")
        assert proc.returncode == 0
        assert "exact match" in proc.stdout

    def test_boundary_case_pass(self):
        proc = run_cli("verify", "-m", "2", "-s", "2", "-l", "1", "-u", "1")
        assert proc.returncode == 0

    def test_monte_carlo_leg_reports_z(self):
        proc = run_cli(
            "verify", "-m", "2", "-s", "2", "-l", "1", "-u", "1",
            "--mc-trials", "2000", "--seed", "3",
        )
        assert proc.returncode == 0
        assert "max |z|" in proc.stdout

    def test_forked_monte_carlo_prints_each_line_once(self):
        # 20000 trials are split across forked workers while stdout is a
        # block-buffered pipe; the output must be the in-process output, each
        # line once.  (click.echo flushes every line, so the guard against a
        # worker flushing the parent's buffer is in tests/test_oracle.py.)
        args = (
            "verify", "-m", "13", "-s", "4", "-l", "1", "-u", "3",
            "--oracle-cap", "52", "--mc-trials", "20000", "--seed", "3",
        )
        env = {k: v for k, v in os.environ.items() if k != "PYTHONUNBUFFERED"}
        proc = subprocess.run(
            [sys.executable, "-m", "bandorbump", *args],
            capture_output=True, text=True, env=env, timeout=TIMEOUT,
        )
        expected = CliRunner().invoke(cli.main, list(args))
        assert (proc.returncode, proc.stdout) == (expected.exit_code, expected.stdout)
        lines = proc.stdout.splitlines()
        assert [line.split(":")[0] for line in lines] == ["exhaustive", "monte carlo"], lines

    @pytest.mark.parametrize("fault", ["failing-fork", "silent-worker"])
    def test_monte_carlo_without_worker_results_prints_the_same(self, fault):
        # the parent deals every block no worker returns: the verdict, the
        # exit code and every line are those of a run with working workers
        args = (
            "verify", "-m", "13", "-s", "4", "-l", "1", "-u", "3",
            "--oracle-cap", "0", "--mc-trials", "20000",
        )
        proc = subprocess.run(
            [sys.executable, "-c", _FAULTY_WORKERS, fault, *args],
            capture_output=True, text=True, timeout=TIMEOUT,
        )
        expected = run_cli(*args)
        assert (proc.returncode, proc.stdout, proc.stderr) == (0, expected.stdout, "")
        assert expected.returncode == 0

    @staticmethod
    def verify_against(monkeypatch, counts: Counter) -> Result:
        # (2, 2, 1, 1) stops at draw 2: band with 2/3, bump with 1/3.
        params = GameParams(2, 2, 1, 1)
        empirical = EmpiricalDistribution(params, 300, counts)
        monkeypatch.setattr(cli, "simulate", lambda params, trials, seed: empirical)
        return CliRunner().invoke(
            cli.main, ["verify", "-m", "2", "-s", "2", "-l", "1", "-u", "1", "--mc-trials", "300"]
        )

    def test_skewed_count_past_the_bound_fails(self, monkeypatch):
        # 250 bands in 300 deals: z = (5/6 - 2/3) / sqrt(2/9 / 300) = 6.124
        result = self.verify_against(
            monkeypatch, Counter({(2, Outcome.BAND): 250, (2, Outcome.BUMP): 50})
        )
        assert result.exit_code == 1
        assert result.stdout.splitlines() == [
            "exhaustive: exact match on 1 rows",
            "monte carlo: max |z| = 6.124 over 2 scored cells (300 trials, threshold 4.0)",
        ]

    def test_hit_on_an_impossible_cell_fails(self, monkeypatch):
        # Both scored cells lie well inside the bound; one deal bumped at the
        # first draw, which the law forbids.
        result = self.verify_against(
            monkeypatch,
            Counter({(1, Outcome.BUMP): 1, (2, Outcome.BAND): 200, (2, Outcome.BUMP): 99}),
        )
        assert result.exit_code == 1
        assert "monte carlo: 1 hits on cells of exact probability 0" in result.stdout.splitlines()

    @pytest.mark.parametrize("trials", ["0", "-5"])
    def test_non_positive_trials_is_usage_error(self, trials):
        proc = run_cli("verify", "-m", "2", "-s", "3", "-l", "1", "-u", "2", "--mc-trials", trials)
        assert proc.returncode == 2
        assert "--mc-trials" in proc.stderr
        assert "Traceback" not in proc.stderr

    def test_negative_oracle_cap_is_usage_error(self):
        # 0 is the smallest cap: it leaves Monte Carlo only.
        proc = run_cli(
            "verify", "-m", "2", "-s", "3", "-l", "1", "-u", "2",
            "--oracle-cap", "-1", "--mc-trials", "10",
        )
        assert proc.returncode == 2
        assert "--oracle-cap" in proc.stderr
        assert "Traceback" not in proc.stderr

    @pytest.mark.parametrize("threshold", ["nan", "inf", "-inf", "0", "-1", "5"])
    def test_bad_z_threshold_is_usage_error(self, threshold):
        # The bound is fixed at 4.0; no value of --z-threshold moves it.
        proc = run_cli(
            "verify", "-m", "2", "-s", "3", "-l", "1", "-u", "2",
            "--mc-trials", "100", "--z-threshold", threshold,
        )
        assert proc.returncode == 2
        assert "No such option" in proc.stderr
        assert "--z-threshold" in proc.stderr
        assert "Traceback" not in proc.stderr

    def test_large_deck_without_trials_is_usage_error(self):
        proc = run_cli("verify", "-m", "4", "-s", "13", "-l", "5", "-u", "8")
        assert proc.returncode == 2
        assert "nothing to verify" in proc.stderr

    def test_refused_before_any_solve(self, monkeypatch):
        # t = 4000 takes seconds to solve; the refusal must come first.
        def unreachable(params):
            raise AssertionError(f"solved {params}")

        monkeypatch.setattr(cli, "joint_distribution", unreachable)
        result = CliRunner().invoke(cli.main, ["verify", "-m", "1000", "-s", "4", "-l", "1", "-u", "3"])
        assert result.exit_code == 2
        assert result.stdout == ""
        assert "nothing to verify" in result.stderr

    def test_mismatch_lists_each_differing_draw(self, monkeypatch):
        # The formula's law of (4, 4, 1, 3) with 1/1001 of bump mass moved
        # from draw 5 to draw 8 stands in for a disagreeing oracle.
        params = GameParams(4, 4, 1, 3)
        law = joint_distribution(params)
        moved = tuple(
            (n, band, bump + {5: -720, 8: 720}.get(n, 0)) for n, band, bump in law.numerators
        )
        assert law.denominator == 720720
        reference = JointDistribution(params, moved)
        monkeypatch.setattr(cli, "exhaustive_distribution", lambda params, cap: reference)
        result = CliRunner().invoke(cli.main, ["verify", "-m", "4", "-s", "4", "-l", "1", "-u", "3"])
        assert result.exit_code == 1
        assert result.stdout.splitlines() == [
            "exhaustive: MISMATCH",
            "  n=5: formula (96/455, 4/455) vs exhaustive (96/455, 3/385)",
            "  n=8: formula (16/165, 68/2145) vs exhaustive (16/165, 491/15015)",
        ]

    def test_oracle_cap_raise(self):
        proc = run_cli(
            "verify", "-m", "3", "-s", "6", "-l", "2", "-u", "4", "--oracle-cap", "18"
        )
        assert proc.returncode == 0
        assert "exact match" in proc.stdout


class TestScan:
    def test_nonvacuity_stdout(self):
        proc = run_cli("scan", "nonvacuity", "--m-max", "3", "--s-max", "4", check=True)
        summary, _, rest = proc.stdout.partition("\n")
        assert "nonvacuity" in summary
        assert "0 counterexamples" in summary
        doc = json.loads(rest)
        assert doc["ok"] is True
        assert doc["findings"] == []

    def test_out_file(self, tmp_path):
        target = tmp_path / "report.json"
        proc = run_cli(
            "scan", "bump-logconcavity", "--m-max", "3", "--s-max", "4",
            "--out", str(target), check=True,
        )
        assert "findings" in proc.stdout  # summary line mentions the count
        doc = json.loads(target.read_text())
        assert doc["kind"] == "bump-logconcavity"
        assert doc["ok"] is True

    def test_json_shape(self):
        result = CliRunner().invoke(cli.main, ["scan", "nonvacuity", "--m-max", "2", "--s-max", "3"])
        assert result.exit_code == 0
        doc = json.loads(result.output.partition("\n")[2])
        assert list(doc) == ["kind", "m_range", "s_range", "cells", "checks", "findings", "ok"]
        assert doc["kind"] == "nonvacuity"
        assert doc["m_range"] == [2, 2]
        assert doc["s_range"] == [2, 3]
        assert doc["ok"] is True
        assert doc["findings"] == []
        assert isinstance(doc["cells"], int)
        assert isinstance(doc["checks"], int)

    def test_finding_serialization(self, monkeypatch):
        report = ScanReport(cells=1, checks=1, findings=(Finding(2, 3, 1, 2, 3, 1, None, "demo"),))
        monkeypatch.setattr(cli, "nonvacuity_scan", lambda m_range, s_range: report)
        result = CliRunner().invoke(cli.main, ["scan", "nonvacuity", "--m-max", "2", "--s-max", "3"])
        assert result.exit_code == 1
        doc = json.loads(result.output.partition("\n")[2])
        assert doc["ok"] is False
        assert doc["findings"] == [
            {"m": 2, "s": 3, "l": 1, "u": 2, "n": 3, "k": 1, "kpp": None, "note": "demo"}
        ]

    @pytest.mark.skipif(not os.path.exists("/dev/full"), reason="needs a /dev/full device")
    def test_failed_write_to_out_exits_2(self):
        # exit 1 would claim a falsified property; a full device is neither
        proc = run_cli("scan", "nonvacuity", "--m-max", "3", "--s-max", "3", "--out", "/dev/full")
        assert proc.returncode == 2
        assert proc.stderr == "Error: cannot write /dev/full: No space left on device\n"
        assert proc.stdout == "nonvacuity: 2 parameter cells, 8 checks, 0 counterexamples\n"

    def test_unwritable_out_is_usage_error(self, tmp_path):
        target = tmp_path / "missing" / "r.json"
        proc = run_cli("scan", "nonvacuity", "--m-max", "2", "--s-max", "3", "--out", str(target))
        assert proc.returncode == 2
        assert str(target) in proc.stderr
        assert "Traceback" not in proc.stderr
        assert not target.exists()
        assert proc.stdout == ""  # refused before the scan ran

    def test_empty_grid_is_usage_error(self):
        # a grid without a cell 0 < l < u < s would report a vacuous "ok"
        for kind, bound in [("nonvacuity", "--m-max=1"), ("bump-logconcavity", "--s-max=2")]:
            proc = run_cli("scan", kind, bound)
            assert proc.returncode == 2, (kind, bound)
            assert "no cell with 0 < l < u < s" in proc.stderr
            assert proc.stdout == ""

    def test_unknown_kind_is_usage_error(self):
        proc = run_cli("scan", "bogus")
        assert proc.returncode == 2


class TestPayoff:
    def test_suit_game_stakes(self):
        proc = run_cli(
            "payoff", "-m", "4", "-s", "13", "-l", "5", "-u", "8",
            "--band", "2", "--bump=-3", check=True,
        )
        assert proc.stdout.startswith("expected payoff: ")
        rational = proc.stdout.split()[2]
        value = Fraction(rational)
        assert Fraction(25, 1000) < value < Fraction(35, 1000)
        assert proc.stdout.strip().endswith("= 0.0299220")

    def test_rank_game_stakes(self):
        proc = run_cli(
            "payoff", "-m", "13", "-s", "4", "-l", "1", "-u", "3",
            "--band=-3", "--bump", "2", check=True,
        )
        value = Fraction(proc.stdout.split()[2])
        assert Fraction(4, 100) < value < Fraction(5, 100)

    def test_zero_payoffs(self):
        proc = run_cli(
            "payoff", "-m", "2", "-s", "3", "-l", "1", "-u", "2",
            "--band", "0", "--bump", "0", check=True,
        )
        assert Fraction(proc.stdout.split()[2]) == 0

    def test_exact_decimal_parsing(self):
        # 0.10 must enter as one tenth exactly, not a binary float
        proc = run_cli(
            "payoff", "-m", "2", "-s", "3", "-l", "1", "-u", "2",
            "--band", "0.10", "--bump", "0", check=True,
        )
        # ev = 0.10 * 9/10 = 9/100
        assert proc.stdout.split()[2] == "9/100"

    def test_exact_value_past_the_int_digit_limit(self):
        # ev = 10**-5000 * 9/10 has a 5002-digit denominator, past the 4300
        # digits str() allows by default.
        get_limit = getattr(sys, "get_int_max_str_digits", lambda: None)
        limit = get_limit()
        result = CliRunner().invoke(
            cli.main,
            ["payoff", "-m", "2", "-s", "3", "-l", "1", "-u", "2", "--band", "1e-5000", "--bump", "0"],
        )
        assert result.exit_code == 0, result.output
        num, den = result.stdout.split()[2].split("/")
        assert Fraction(int(Decimal(num)), int(Decimal(den))) == Fraction(9, 10**5001)
        assert get_limit() == limit

    def test_stake_exponent_past_the_bound_is_refused(self):
        # 1e-400000 would expand to a 400 001-digit integer and print every
        # digit of the exact value; it is refused up front instead.
        result = CliRunner().invoke(
            cli.main,
            ["payoff", "-m", "2", "-s", "3", "-l", "1", "-u", "2", "--band", "1e-400000", "--bump", "0"],
        )
        assert result.exit_code == 2
        assert result.stdout == ""
        assert "payoff stake '1e-400000' has an exponent beyond 10000" in result.stderr

    def test_garbage_payoff_is_usage_error(self):
        proc = run_cli(
            "payoff", "-m", "2", "-s", "3", "-l", "1", "-u", "2",
            "--band", "two", "--bump", "0",
        )
        assert proc.returncode == 2


@pytest.mark.skipif(not os.path.exists("/dev/full"), reason="needs a /dev/full device")
class TestFailedStdout:
    GAME = ("-m", "2", "-s", "3", "-l", "1", "-u", "2")

    @pytest.mark.parametrize("unbuffered", [True, False], ids=["unbuffered", "buffered"])
    @pytest.mark.parametrize(
        "args",
        [
            ("dist", *GAME),
            ("dist", *GAME, "--format", "json"),
            ("verify", *GAME),
            ("payoff", *GAME, "--band", "1", "--bump", "0"),
            ("scan", "nonvacuity", "--m-max", "2", "--s-max", "3"),
        ],
        ids=["dist-csv", "dist-json", "verify", "payoff", "scan"],
    )
    def test_full_device_exits_2(self, args, unbuffered):
        # Unbuffered, the write itself fails; buffered, only a flush does, and
        # unguarded that flush fails at exit as code 120.
        env = {k: v for k, v in os.environ.items() if k != "PYTHONUNBUFFERED"}
        if unbuffered:
            env["PYTHONUNBUFFERED"] = "1"
        with open("/dev/full", "w") as full:
            proc = subprocess.run(
                [sys.executable, "-m", "bandorbump", *args],
                stdout=full, stderr=subprocess.PIPE, text=True, env=env, timeout=TIMEOUT,
            )
        assert proc.returncode == 2
        assert proc.stderr == "Error: cannot write stdout: No space left on device\n"


_NO_DIFFLIB = """
import sys
from bandorbump import cli
game = ["-m", "2", "-s", "3", "-l", "1", "-u", "2"]
for args in (["dist", *game], ["verify", *game], ["payoff", *game, "--band", "1", "--bump", "0"]):
    try:
        cli.main(args, standalone_mode=False)
    except SystemExit as exc:
        assert exc.code == 0, (args, exc.code)
assert "difflib" not in sys.modules, "a game option missed click's long-option lookup"
"""


class TestOptionParsing:
    GAME = ("-m", "13", "-s", "4", "-l", "1", "-u", "3")

    def test_game_options_never_import_difflib(self):
        # A fresh interpreter: pytest itself has imported difflib.
        proc = subprocess.run(
            [sys.executable, "-c", _NO_DIFFLIB], capture_output=True, text=True, timeout=TIMEOUT
        )
        assert proc.returncode == 0, proc.stderr
        # A real typo still gets click's suggestion.
        proc = run_cli("dist", "--digit", "5", "-m", "2", "-s", "3", "-l", "1", "-u", "2")
        assert proc.returncode == 2
        assert "Did you mean '--digits'?" in proc.stderr

    @pytest.mark.parametrize(
        "args",
        [
            ("-m13", "-s4", "-l1", "-u3"),
            ("-m", "7", "-m", "13", "-s", "4", "-l", "1", "-u", "3"),
            # -m=13 reads as -m 13; the short-option parser would take "=13".
            ("-m=13", "-s", "4", "-l", "1", "-u", "3"),
        ],
        ids=["attached", "repeated", "equals"],
    )
    def test_spellings_of_one_deck(self, args):
        expected = CliRunner().invoke(cli.main, ["dist", *self.GAME])
        result = CliRunner().invoke(cli.main, ["dist", *args])
        assert expected.exit_code == result.exit_code == 0
        assert result.output == expected.output

    @pytest.mark.parametrize(
        "args, message",
        [
            (("dist", "-s", "4", "-l", "1", "-u", "3", "-m"), "Option '-m' requires an argument."),
            (("dist", "-x", "1", *GAME), "No such option '-x'.\n"),
            (("dist", "-ms", "13", "4", "-l", "1", "-u", "3"), "Invalid value for '-m': 's' is not a valid integer."),
            (
                ("verify", "-m", "2", "-s", "3", "-l", "1", "-u", "2", "--oracle-cap=-1"),
                "Invalid value for '--oracle-cap': -1 is not in the range x>=0.",
            ),
        ],
        ids=["bare", "unknown", "bundled", "long-equals"],
    )
    def test_malformed_spellings_exit_2(self, args, message):
        result = CliRunner().invoke(cli.main, list(args))
        assert result.exit_code == 2
        assert message in result.output


class TestEntryPoints:
    def test_module_help(self):
        proc = run_cli("--help", check=True)
        assert "dist" in proc.stdout
        assert "verify" in proc.stdout
        assert "scan" in proc.stdout
        assert "payoff" in proc.stdout

    def test_console_script_installed(self, tmp_path):
        # Run the declared console script by its name through the same
        # wrapper pip writes on install, so the check needs no install.
        if sys.version_info >= (3, 11):
            import tomllib
        else:
            tomllib = pytest.importorskip("tomli")
        pyproject = Path(__file__).resolve().parent.parent / "pyproject.toml"
        scripts = tomllib.loads(pyproject.read_text())["project"]["scripts"]
        assert list(scripts) == ["bandorbump"]
        target = EntryPoint(name="bandorbump", value=scripts["bandorbump"], group="console_scripts")

        bin_dir = tmp_path / "bin"
        bin_dir.mkdir()
        script = bin_dir / "bandorbump"
        script.write_text(
            f"#!{sys.executable}\n"
            "import sys\n"
            f"from {target.module} import {target.attr}\n"
            "if __name__ == '__main__':\n"
            f"    sys.exit({target.attr}())\n"
        )
        script.chmod(0o755)
        env = {**os.environ, "PATH": os.pathsep.join([str(bin_dir), os.environ.get("PATH", "")])}

        proc = subprocess.run(
            ["bandorbump", "--help"], capture_output=True, text=True, timeout=TIMEOUT, env=env
        )
        assert proc.returncode == 0, proc.stderr
        assert "Usage: bandorbump" in proc.stdout
        assert "band-or-bump" in proc.stdout
