import errno
import math
import os
import random
import re
import subprocess
import sys
import warnings
from fractions import Fraction
from types import SimpleNamespace

import pytest
from hypothesis import given, settings, strategies as st

from bandorbump.distribution import (
    ConsistencyError,
    GameParams,
    JointDistribution,
    joint_distribution,
)
from bandorbump import oracle
from bandorbump.oracle import (
    _MIN_BLOCK,
    ComparisonReport,
    EmpiricalDistribution,
    _deal,
    _trial_seed,
    compare,
    exhaustive_distribution,
    simulate,
)
from reference import prefix_walk


def shuffled_deal_counts(params: GameParams, trials: int, seed: int) -> tuple[list[int], list[int]]:
    """Reference for simulate: a fresh generator per trial, random.shuffle, and
    the stopping rules checked from their definitions on every draw.  Returns
    the band and bump columns: entry n counts the deals that stopped at draw n."""
    band, bump = [0] * (params.n_max + 1), [0] * (params.n_max + 1)
    for index in range(trials):
        deck = [rank for rank in range(params.m) for _ in range(params.s)]
        random.Random(_trial_seed(seed, index)).shuffle(deck)
        tallies = [0] * params.m
        for n, rank in enumerate(deck, start=1):
            tallies[rank] += 1
            if tallies[rank] > params.u:
                bump[n] += 1
                break
            if min(tallies) >= params.l:
                band[n] += 1
                break
    return band, bump


def last_stop(columns: tuple[list[int], list[int]]) -> int:
    """The latest draw at which a deal tallied in the band and bump columns stopped."""
    band, bump = columns
    return max(n for n in range(len(band)) if band[n] or bump[n])


def rows_as_dict(dist: JointDistribution) -> dict[int, tuple[Fraction, Fraction]]:
    return {n: (band, bump) for n, band, bump in dist.rows if band or bump}


# Peak resident set of `verify` with the DP on the 104-card deck (13, 8, 2, 6)
# over that of `verify` on (2, 2, 1, 1).  With the DP state keyed by histogram
# tuples it grew by at most 590 KiB on a peak of 21 800 KiB (CPython 3.11,
# Linux x86-64, sixteen runs); the bound is that growth plus a tenth of that peak.
_DP_GROWTH_BOUND_KIB = 590 + 2180

# Runs the command in argv[1:] as its only child and prints that child's peak.
_CHILD_PEAK_RSS = (
    "import resource, subprocess, sys\n"
    "subprocess.run(sys.argv[1:], check=True, stdout=subprocess.DEVNULL)\n"
    "print(resource.getrusage(resource.RUSAGE_CHILDREN).ru_maxrss)\n"
)


def verify_peak_kib(*args: str) -> int:
    """ru_maxrss of one `bandorbump verify` run, in KiB as Linux reports it."""
    proc = subprocess.run(
        [sys.executable, "-c", _CHILD_PEAK_RSS, sys.executable, "-m", "bandorbump", "verify", *args],
        capture_output=True, text=True, check=True, timeout=120,
    )
    return int(proc.stdout)


class TestExhaustive:
    def test_small_game_by_hand(self):
        # every 6-card sequence enumerated by hand once, frozen here
        dist = exhaustive_distribution(GameParams(2, 3, 1, 2))
        assert rows_as_dict(dist) == {
            2: (Fraction(3, 5), Fraction(0)),
            3: (Fraction(3, 10), Fraction(1, 10)),
        }

    def test_four_card_game_by_hand(self):
        dist = exhaustive_distribution(GameParams(2, 2, 1, 1))
        assert rows_as_dict(dist) == {2: (Fraction(2, 3), Fraction(1, 3))}

    def test_single_rank(self):
        dist = exhaustive_distribution(GameParams(1, 2, 1, 1))
        assert rows_as_dict(dist) == {1: (Fraction(1), Fraction(0))}

    def test_mass_sums_to_one_across_corners(self):
        shapes = [
            (2, 3, 0, 0),
            (2, 3, 0, 2),
            (2, 3, 2, 2),
            (3, 2, 1, 2),
            (2, 4, 1, 3),
            (1, 4, 2, 3),
        ]
        for shape in shapes:
            dist = exhaustive_distribution(GameParams(*shape))
            assert sum(dist.band) + sum(dist.bump) == dist.denominator, shape

    def test_agrees_with_formula_engine_on_every_small_cell(self):
        # every window corner 0 <= l <= u <= s on every deck with m, s <= 8
        cells = 0
        for m in range(1, 9):
            for s in range(1, 9):
                for u in range(s + 1):
                    for l in range(u + 1):
                        params = GameParams(m, s, l, u)
                        reference = exhaustive_distribution(params)
                        assert joint_distribution(params) == reference, params
                        cells += 1
        assert cells == 1312

    def test_agrees_with_formula_engine_on_every_deck_to_fifty_two_cards(self):
        # every window corner 0 <= l <= u <= s on every deck of t <= 52
        # cards, a full pack; the bound 52 is set by the sweep's cost (about 7.5 s)
        decks = 0
        for m in range(1, 53):
            for s in range(1, 52 // m + 1):
                for u in range(s + 1):
                    for l in range(u + 1):
                        params = GameParams(m, s, l, u)
                        reference = exhaustive_distribution(params)
                        assert joint_distribution(params) == reference, params
                        decks += 1
        assert decks == 32683

    def test_agrees_with_the_walk_over_every_ordered_deal(self):
        # every window corner 0 <= l <= u <= s on every deck of t <= 8 cards;
        # the bound 8 is set by the walk's cost: about 0.14 s, against 1.1 s for
        # t <= 9 and 12 s for t <= 10
        decks = 0
        for m in range(1, 9):
            for s in range(1, 8 // m + 1):
                for u in range(s + 1):
                    for l in range(u + 1):
                        params = GameParams(m, s, l, u)
                        dist = exhaustive_distribution(params)
                        columns = tuple(
                            [Fraction(mass, dist.denominator) for mass in column] for column in (dist.band, dist.bump)
                        )
                        assert prefix_walk(params) == columns, params
                        decks += 1
        assert decks == 228

    @pytest.mark.skipif(sys.platform != "linux", reason="ru_maxrss is in KiB on Linux only")
    def test_a_large_deck_adds_little_to_the_peak_memory(self):
        base = verify_peak_kib("-m", "2", "-s", "2", "-l", "1", "-u", "1")
        peak = verify_peak_kib("-m", "13", "-s", "8", "-l", "2", "-u", "6", "--oracle-cap", "104")
        assert peak - base <= _DP_GROWTH_BOUND_KIB, (base, peak)

    def test_mass_alive_past_the_horizon_is_an_error(self, monkeypatch):
        # (2, 3, 1, 2) stops at draw 3 with probability 2/5; cut the horizon
        # to 2 draws and that mass must be reported, not dropped
        monkeypatch.setattr(GameParams, "n_max", property(lambda self: 2))
        with pytest.raises(ConsistencyError, match="^2/5 probability mass still alive past draw 2"):
            exhaustive_distribution(GameParams(2, 3, 1, 2))


    def test_count_off_the_shared_denominator_is_an_error(self, monkeypatch):
        # with 1 as the shared denominator, the 18 of 30 two-card prefixes
        # that band at draw 2 of (2, 3, 1, 2) leave a remainder
        monkeypatch.setattr(GameParams, "denominator", property(lambda self: 1))
        with pytest.raises(ConsistencyError, match="^mass 18/30 at draw 2 is not a multiple of 1/1 "):
            exhaustive_distribution(GameParams(2, 3, 1, 2))


class TestSimulate:
    def test_reproducible(self):
        params = GameParams(2, 3, 1, 2)
        a = simulate(params, 500, seed=11)
        b = simulate(params, 500, seed=11)
        assert (a.band, a.bump) == (b.band, b.bump)

    def test_seed_sensitivity(self):
        params = GameParams(2, 3, 1, 2)
        a = simulate(params, 500, seed=11)
        b = simulate(params, 500, seed=12)
        assert (a.band, a.bump) != (b.band, b.bump)  # 500 deals collide with ~0 probability

    def test_trials_conserved(self):
        params = GameParams(3, 3, 1, 2)
        emp = simulate(params, 777, seed=3)
        assert sum(emp.band) + sum(emp.bump) == 777
        assert emp.trials == 777

    def test_single_trial(self):
        emp = simulate(GameParams(2, 2, 1, 1), 1, seed=0)
        assert len(emp.band) == len(emp.bump) == 3  # draws 0..n_max
        assert sum(emp.band) + sum(emp.bump) == 1
        assert emp.band[2] + emp.bump[2] == 1  # (2, 2, 1, 1) stops at draw 2

    def test_rejects_zero_trials(self):
        with pytest.raises(ValueError):
            simulate(GameParams(2, 2, 1, 1), 0)
        with pytest.raises(ValueError):
            simulate(GameParams(2, 2, 1, 1), -5)

    def test_zero_window_always_bumps_at_one(self):
        emp = simulate(GameParams(3, 4, 0, 0), 100, seed=9)
        assert (emp.band, emp.bump) == ([0, 0], [0, 100])

    def test_zero_quota_always_bands_at_one(self):
        emp = simulate(GameParams(3, 4, 0, 2), 100, seed=9)
        assert (emp.band, emp.bump) == ([0, 100], [0, 0])

    def test_deal_through_the_whole_deck_is_an_error(self):
        # a quota of 3 in a 2-card rank under a cap of 5: no card can stop play
        params = SimpleNamespace(m=1, s=2, l=3, u=5, n_max=3)
        message = "deal ran through the whole deck for namespace(m=1, s=2, l=3, u=5, n_max=3)"
        with pytest.raises(ConsistencyError, match=f"^{re.escape(message)}$"):
            simulate(params, 1)

    def test_stop_past_the_last_possible_draw_is_an_error(self):
        # (2, 2, 1, 1) stops at draw 2 on every deal; claim it stops by draw 1
        params = SimpleNamespace(m=2, s=2, l=1, u=1, n_max=1)
        message = "deal stopped at draw 2 > 1 for namespace(m=2, s=2, l=1, u=1, n_max=1)"
        with pytest.raises(ConsistencyError, match=f"^{re.escape(message)}$"):
            simulate(params, 1)

    def test_stops_inside_support(self):
        params = GameParams(3, 4, 1, 2)
        emp = simulate(params, 2000, seed=5)
        assert len(emp.band) == len(emp.bump) == params.n_max + 1
        assert emp.band[0] == emp.bump[0] == 0  # no deal stops before its first card

    def test_four_card_bump_rate(self):
        # bump probability is exactly 1/3; a million deals must sit within
        # four binomial standard errors
        trials = 10**6
        emp = simulate(GameParams(2, 2, 1, 1), trials, seed=42)
        bumps = emp.bump[2]
        p = 1 / 3
        se = math.sqrt(p * (1 - p) / trials)
        assert abs(bumps / trials - p) < 4 * se

    @pytest.mark.parametrize(
        "shape",
        [
            # shapes whose outcome is fixed, for the loop's corners
            (1, 1, 0, 1),  # one card, no swap
            (2, 1, 1, 1),  # two cards: one 2-bit draw, half of them redrawn
            (1, 2, 1, 2),
            (33, 1, 1, 1),  # 6-bit draws for n = 33
            (5, 13, 0, 13),  # l = 0 and u = s
            # shapes whose outcome rests on the draws
            (2, 2, 1, 1),
            (13, 4, 1, 3),
            (4, 13, 5, 8),
        ],
    )
    @pytest.mark.parametrize("seed", [0, 7, -3])
    def test_deals_follow_random_shuffle(self, shape, seed):
        # simulate inlines Random.shuffle's getrandbits calls; if a Python
        # release changes shuffle's stream, this fails before any output moves
        params = GameParams(*shape)
        emp = simulate(params, 3000, seed=seed)
        assert (emp.band, emp.bump) == shuffled_deal_counts(params, 3000, seed)


def assert_no_child_left():
    with pytest.raises(ChildProcessError):
        os.waitpid(-1, os.WNOHANG)


class TestSplitAcrossWorkers:
    """simulate deals blocks of trials in forked children; the counts must not see it."""

    @pytest.mark.parametrize("shape", [(13, 4, 1, 3), (3, 3, 0, 2)])
    def test_counts_do_not_depend_on_the_worker_count(self, monkeypatch, shape):
        # 4 * _MIN_BLOCK + 3 trials: up to four workers, on blocks of unequal size
        params, trials = GameParams(*shape), 4 * _MIN_BLOCK + 3
        expected = shuffled_deal_counts(params, trials, seed=5)
        for cpus in (1, 2, 3, 4):
            monkeypatch.setattr(oracle.os, "sched_getaffinity", lambda pid, n=cpus: set(range(n)))
            emp = simulate(params, trials, seed=5)
            assert (emp.band, emp.bump) == expected, cpus
            assert_no_child_left()

    def test_a_worker_error_is_the_sequential_error(self, monkeypatch):
        # n_max is the latest stop of the first block, so only the second block
        # breaks it: the child raises, and the parent must raise its message
        trials, seed = 2 * _MIN_BLOCK, 1
        real = GameParams(13, 4, 1, 3)
        first = last_stop(_deal(real, seed, 0, _MIN_BLOCK))
        assert last_stop(_deal(real, seed, _MIN_BLOCK, trials)) > first
        params = SimpleNamespace(m=13, s=4, l=1, u=3, n_max=first)
        messages = []
        for cpus in (1, 2):
            monkeypatch.setattr(oracle.os, "sched_getaffinity", lambda pid, n=cpus: set(range(n)))
            with pytest.raises(ConsistencyError, match=f"^deal stopped at draw \\d+ > {first} ") as caught:
                simulate(params, trials, seed)
            messages.append(str(caught.value))
            assert_no_child_left()
        assert messages[0] == messages[1]

    def test_a_deal_through_the_deck_fails_in_every_worker(self, monkeypatch):
        monkeypatch.setattr(oracle.os, "sched_getaffinity", lambda pid: {0, 1})
        params = SimpleNamespace(m=1, s=2, l=3, u=5, n_max=3)
        message = "deal ran through the whole deck for namespace(m=1, s=2, l=3, u=5, n_max=3)"
        with pytest.raises(ConsistencyError, match=f"^{re.escape(message)}$"):
            simulate(params, 2 * _MIN_BLOCK)
        assert_no_child_left()

    @pytest.mark.parametrize(
        "fault, error, message",
        [
            # the child dies before it writes a thing: the parent deals its
            # block, and the counts are the sequential ones (error None)
            (lambda params, seed, start, stop: os._exit(0), None, None),
            # the child loses its block's last trial
            (lambda params, seed, start, stop: _deal(params, seed, start, stop - 1), ConsistencyError,
             f"^{2 * _MIN_BLOCK - 1} deals tallied for {2 * _MIN_BLOCK} trials of "),
        ],
        ids=["silent-death", "lost-trial"],
    )
    def test_a_faulty_worker_is_an_error(self, monkeypatch, fault, error, message):
        monkeypatch.setattr(oracle.os, "sched_getaffinity", lambda pid: {0, 1})
        parent = os.getpid()

        def deal(params, seed, start, stop):  # faulty in the child alone
            return (_deal if os.getpid() == parent else fault)(params, seed, start, stop)

        monkeypatch.setattr(oracle, "_deal", deal)
        params, trials = GameParams(3, 3, 1, 2), 2 * _MIN_BLOCK
        if error is None:
            emp = simulate(params, trials)
            assert (emp.band, emp.bump) == shuffled_deal_counts(params, trials, seed=0)
        else:
            with pytest.raises(error, match=message):
                simulate(params, trials)
        assert_no_child_left()

    @pytest.mark.parametrize("failing", [{1, 2}, {2}], ids=["every-fork", "second-fork"])
    def test_a_failed_fork_leaves_its_block_to_the_parent(self, monkeypatch, failing):
        # three workers, so two forks; a fork that fails must cost neither a
        # count nor a descriptor
        if not os.path.isdir("/proc/self/fd"):
            pytest.skip("needs /proc/self/fd to count open descriptors")
        monkeypatch.setattr(oracle.os, "sched_getaffinity", lambda pid: {0, 1, 2})
        fork, calls = os.fork, []

        def flaky_fork():
            calls.append(len(calls) + 1)
            if calls[-1] in failing:
                raise OSError(errno.EAGAIN, os.strerror(errno.EAGAIN))
            return fork()

        monkeypatch.setattr(oracle.os, "fork", flaky_fork)
        params, trials = GameParams(13, 4, 1, 3), 3 * _MIN_BLOCK + 1
        expected = shuffled_deal_counts(params, trials, seed=6)
        before = len(os.listdir("/proc/self/fd"))
        with warnings.catch_warnings(record=True) as caught:
            warnings.simplefilter("always", ResourceWarning)  # a pipe left to the collector
            emp = simulate(params, trials, seed=6)
        assert len(os.listdir("/proc/self/fd")) == before
        assert [w for w in caught if w.category is ResourceWarning] == []
        assert calls == [1, 2]
        assert (emp.band, emp.bump) == expected
        assert_no_child_left()

    @pytest.mark.parametrize("trials", [_MIN_BLOCK - 1, 2 * _MIN_BLOCK - 1])
    def test_small_runs_never_fork(self, monkeypatch, trials):
        def refuse():
            raise AssertionError("simulate forked below _MIN_BLOCK trials per worker")

        monkeypatch.setattr(oracle.os, "sched_getaffinity", lambda pid: set(range(64)))
        monkeypatch.setattr(oracle.os, "fork", refuse)
        params = GameParams(3, 3, 1, 2)
        emp = simulate(params, trials, seed=4)
        assert (emp.band, emp.bump) == shuffled_deal_counts(params, trials, seed=4)

    def test_a_worker_never_flushes_the_parents_output(self):
        # Into a pipe, stdout is block-buffered, so "before" still waits in the
        # buffer at the fork; a child that left by a normal exit would flush it too.
        code = """if True:
            import os
            from bandorbump.distribution import GameParams
            from bandorbump.oracle import _MIN_BLOCK, simulate
            os.sched_getaffinity = lambda pid: {0, 1}
            print("before")
            simulate(GameParams(3, 3, 1, 2), 2 * _MIN_BLOCK)
            print("after")
        """
        env = {k: v for k, v in os.environ.items() if k != "PYTHONUNBUFFERED"}
        proc = subprocess.run(
            [sys.executable, "-c", code], capture_output=True, text=True, env=env, timeout=120
        )
        assert (proc.returncode, proc.stdout, proc.stderr) == (0, "before\nafter\n", "")

    @pytest.mark.parametrize("cpus, forks", [(None, 0), (2, 1), (3, 2)])
    def test_cpu_count_sizes_the_pool_without_sched_getaffinity(self, monkeypatch, cpus, forks):
        # where os has no sched_getaffinity (macOS), os.cpu_count() sizes the
        # pool, and 1 stands in when it is unknown; 4 * _MIN_BLOCK + 3 trials
        # would feed up to four workers
        monkeypatch.delattr(oracle.os, "sched_getaffinity")
        monkeypatch.setattr(oracle.os, "cpu_count", lambda: cpus)
        fork, calls = os.fork, []

        def counted_fork():
            calls.append(1)
            return fork()

        monkeypatch.setattr(oracle.os, "fork", counted_fork)
        params, trials = GameParams(3, 3, 1, 2), 4 * _MIN_BLOCK + 3
        emp = simulate(params, trials, seed=2)
        assert len(calls) == forks
        assert (emp.band, emp.bump) == _deal(params, 2, 0, trials)
        assert_no_child_left()

    def test_no_fork_runs_in_process(self, monkeypatch):
        monkeypatch.setattr(oracle.os, "sched_getaffinity", lambda pid: {0, 1})
        monkeypatch.delattr(oracle.os, "fork")
        emp = simulate(GameParams(3, 3, 0, 2), 2 * _MIN_BLOCK)
        assert (emp.band, emp.bump) == ([0, 2 * _MIN_BLOCK], [0, 0])


class TestCompare:
    def test_params_mismatch_rejected(self):
        exact = joint_distribution(GameParams(2, 2, 1, 1))
        emp = simulate(GameParams(2, 3, 1, 2), 10, seed=0)
        with pytest.raises(ValueError):
            compare(exact, emp)

    def test_params_mismatch_rejected_on_columns_of_the_right_length(self):
        # (2, 3, 1, 1) stops by draw 2 as (2, 2, 1, 1) does, so only the
        # params check refuses its tallies
        exact = joint_distribution(GameParams(2, 2, 1, 1))
        emp = simulate(GameParams(2, 3, 1, 1), 10, seed=0)
        with pytest.raises(ValueError, match="^distributions describe different parameters$"):
            compare(exact, emp)

    def test_expected_counts_give_zero_z(self):
        # (2, 2, 1, 1) stops only at draw 2: a band with probability 2/3, a
        # bump with 1/3; the four other cells are forbidden and unhit.
        params = GameParams(2, 2, 1, 1)
        exact = joint_distribution(params)
        emp = EmpiricalDistribution(params, [0, 0, 200], [0, 0, 100])
        report = compare(exact, emp)
        assert report == ((None, None, 0.0), (None, None, 0.0), 2, 0.0, 0)

    def test_impossible_cell_fails(self):
        # Every deal bumps at draw 1, which the law forbids: that hit alone is
        # infinite, it is scored, and the unhit forbidden cells have no z.
        params = GameParams(2, 2, 1, 1)
        exact = joint_distribution(params)
        emp = EmpiricalDistribution(params, [0, 0, 0], [0, 100, 0])
        report = compare(exact, emp)
        assert report.impossible == 1
        assert report.bump_z[1] == math.inf
        assert (report.band_z[:2], report.bump_z[0]) == ((None, None), None)
        assert report.band_z[2] < 0 and report.bump_z[2] < 0
        assert report.scored == 3
        assert math.isfinite(report.max_abs_z)

    def test_min_prob_marks_thin_cells_unscored(self):
        params = GameParams(4, 13, 5, 8)
        exact = joint_distribution(params)
        emp = simulate(params, 2000, seed=2)
        report = compare(exact, emp)
        assert isinstance(report, ComparisonReport)
        assert report.impossible == 0
        cells = [
            (mass / exact.denominator, z)
            for column, zs in ((exact.band, report.band_z), (exact.bump, report.bump_z))
            for mass, z in zip(column, zs)
            if mass
        ]
        thin = [z for p, z in cells if p < 1e-5]
        assert thin
        assert None not in thin  # a thin cell keeps its z
        scored = [z for p, z in cells if p >= 1e-5]
        assert scored
        assert report.scored == len(scored)
        assert report.max_abs_z == max(abs(z) for z in scored)

    def test_a_cell_on_the_floor_is_scored(self):
        # The floor is inclusive: 30990445042459967 / lcm(1, ..., 52) is 1e-5
        # as a float, so that cell is scored along with the band that takes
        # the rest of the mass.
        params = GameParams(4, 13, 5, 8)
        floor = 30990445042459967
        assert floor / params.denominator == 1e-5
        band, bump = [0] * 30, [0] * 30
        bump[9], band[29] = floor, params.denominator - floor
        emp = EmpiricalDistribution(params, [0] * 29 + [99_999], [0] * 9 + [1] + [0] * 20)
        report = compare(JointDistribution(params, band, bump), emp)
        assert (report.scored, report.bump_z[9]) == (2, 0.0)

    def test_certain_cell_off_its_frequency_fails(self):
        # l = 0 bands at the first card with probability 1; a float p of 1.0
        # has no spread, so a frequency off it scores z = -inf.  The other
        # five deals bump at that card, which the law forbids.
        params = GameParams(2, 3, 0, 2)
        exact = joint_distribution(params)
        emp = EmpiricalDistribution(params, [0, 5], [0, 5])
        report = compare(exact, emp)
        assert report == ((None, -math.inf), (None, math.inf), 2, math.inf, 1)

    def test_certain_cell_on_its_frequency_passes(self):
        params = GameParams(2, 3, 0, 2)
        emp = EmpiricalDistribution(params, [0, 10], [0, 0])
        report = compare(joint_distribution(params), emp)
        assert report == ((None, 0.0), (None, None), 1, 0.0, 0)

    def test_a_single_deal_is_scored(self):
        # One deal is the smallest run: its band at draw 2 lies 1/3 above the
        # band's 2/3 and the unhit bump 1/3 below, each sqrt(2/9) of spread.
        params = GameParams(2, 2, 1, 1)
        emp = EmpiricalDistribution(params, [0, 0, 1], [0, 0, 0])
        report = compare(joint_distribution(params), emp)
        assert (report.scored, report.impossible) == (2, 0)
        assert report.band_z[2] == pytest.approx(math.sqrt(0.5)) == -report.bump_z[2]

    @pytest.mark.parametrize(
        "trials, refusal",
        [(0, "^trials must be >= 1, got 0$"), (-5, "^negative count at draw 2: band 0, bump -5$")],
        ids=["0", "-5"],
    )
    def test_non_positive_trials_rejected(self, trials, refusal):
        # the trial count is the columns' total: all-zero columns hold no
        # deal, and a negative total needs a negative count
        params = GameParams(2, 2, 1, 1)
        emp = EmpiricalDistribution(params, [0, 0, 0], [0, 0, trials])
        assert emp.trials == trials
        with pytest.raises(ValueError, match=refusal):
            compare(joint_distribution(params), emp)

    @pytest.mark.parametrize(
        "band, bump, draw",
        [([0, 0, 120], [0, -20, 0], 1), ([0, 0, 120], [0, 0, -20], 2), ([0, -20, 120], [0, 0, 0], 1)],
        ids=["forbidden-bump", "bump-cancels-band", "forbidden-band"],
    )
    def test_negative_count_rejected(self, band, bump, draw):
        # 100 deals in total on columns of the right length: only the sign is wrong,
        # and a -20 would otherwise cancel 20 hits or score as an impossible hit
        params = GameParams(2, 2, 1, 1)
        emp = EmpiricalDistribution(params, band, bump)
        assert emp.trials == 100
        with pytest.raises(ValueError, match=f"^negative count at draw {draw}: "):
            compare(joint_distribution(params), emp)

    @pytest.mark.parametrize(
        "band, bump",
        [([0, 0, 200], [0, 0]), ([0, 200], [0, 100]), ([0, 0, 200, 0], [0, 0, 100, 0])],
        ids=["short-bump", "both-short", "both-long"],
    )
    def test_columns_off_the_draws_are_refused(self, band, bump):
        # (2, 2, 1, 1) has draws 0..2; a column of another length would drop
        # or invent cells unseen
        params = GameParams(2, 2, 1, 1)
        emp = EmpiricalDistribution(params, band, bump)
        with pytest.raises(ValueError, match=r"^band and bump columns must hold n_max \+ 1 = 3 counts$"):
            compare(joint_distribution(params), emp)

    def test_realistic_run_passes(self):
        params = GameParams(2, 3, 1, 2)
        exact = joint_distribution(params)
        emp = simulate(params, 50_000, seed=6)
        report = compare(exact, emp)
        assert report.max_abs_z < 4.0
        assert report.impossible == 0
        assert sum(emp.band) + sum(emp.bump) == 50_000
        for counts, zs in ((emp.band, report.band_z), (emp.bump, report.bump_z)):
            assert len(zs) == params.n_max + 1
            assert all(z is not None for count, z in zip(counts, zs) if count)


@st.composite
def small_params(draw):
    m = draw(st.integers(min_value=1, max_value=4))
    s = draw(st.integers(min_value=1, max_value=8 // m))
    u = draw(st.integers(min_value=0, max_value=s))
    l = draw(st.integers(min_value=0, max_value=u))
    return GameParams(m, s, l, u)


class TestSimulationAgainstExhaustive:
    @given(params=small_params(), seed=st.integers(min_value=0, max_value=2**32))
    @settings(max_examples=25, deadline=None)
    def test_compare_passes_at_modest_trials(self, params, seed):
        # generous bound: 25 draws of a 6-sigma event are still rare
        exact = exhaustive_distribution(params)
        emp = simulate(params, 3000, seed=seed)
        report = compare(exact, emp)
        assert report.impossible == 0, params
        assert report.max_abs_z < 6.0, (params, seed, report.max_abs_z)
