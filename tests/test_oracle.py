import errno
import math
import os
import random
import re
import subprocess
import sys
import warnings
from collections import Counter
from fractions import Fraction
from types import SimpleNamespace

import pytest
from hypothesis import given, settings, strategies as st

from bandorbump.distribution import (
    ConsistencyError,
    GameParams,
    JointDistribution,
    Outcome,
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


def shuffled_deal_counts(params: GameParams, trials: int, seed: int) -> Counter:
    """Reference for simulate: a fresh generator per trial, random.shuffle, and
    the stopping rules checked from their definitions on every draw."""
    counts: Counter = Counter()
    for index in range(trials):
        deck = [rank for rank in range(params.m) for _ in range(params.s)]
        random.Random(_trial_seed(seed, index)).shuffle(deck)
        tallies = [0] * params.m
        for n, rank in enumerate(deck, start=1):
            tallies[rank] += 1
            if tallies[rank] > params.u:
                counts[(n, Outcome.BUMP)] += 1
                break
            if min(tallies) >= params.l:
                counts[(n, Outcome.BAND)] += 1
                break
    return counts


def rows_as_dict(dist: JointDistribution) -> dict[int, tuple[Fraction, Fraction]]:
    return {n: (band, bump) for n, band, bump in dist.rows if band or bump}


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

    def test_cap_refusal(self):
        with pytest.raises(ValueError):
            exhaustive_distribution(GameParams(4, 13, 5, 8))
        with pytest.raises(ValueError):
            exhaustive_distribution(GameParams(3, 3, 1, 2), cap=8)
        # the refusal threshold is inclusive
        exhaustive_distribution(GameParams(3, 3, 1, 2), cap=9)

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
            assert dist.band_marginal + dist.bump_marginal == 1, shape

    def test_agrees_with_formula_engine_smallest_decks(self):
        # the full t <= 12 sweep lives in the acceptance suite; spot-check a
        # representative ladder here
        for shape in [(2, 3, 1, 2), (2, 4, 1, 3), (3, 3, 1, 2), (2, 5, 2, 4), (4, 2, 1, 2)]:
            params = GameParams(*shape)
            assert joint_distribution(params) == exhaustive_distribution(params), shape

    def test_agrees_with_formula_engine_on_every_small_cell(self):
        # every window corner 0 <= l <= u <= s on every deck with m, s <= 8
        cells = 0
        for m in range(1, 9):
            for s in range(1, 9):
                for u in range(s + 1):
                    for l in range(u + 1):
                        params = GameParams(m, s, l, u)
                        reference = exhaustive_distribution(params, cap=params.t)
                        assert joint_distribution(params) == reference, params
                        cells += 1
        assert cells == 1312

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
        assert a.counts == b.counts

    def test_seed_sensitivity(self):
        params = GameParams(2, 3, 1, 2)
        a = simulate(params, 500, seed=11)
        b = simulate(params, 500, seed=12)
        assert a.counts != b.counts  # 500 deals collide with ~0 probability

    def test_trials_conserved(self):
        params = GameParams(3, 3, 1, 2)
        emp = simulate(params, 777, seed=3)
        assert sum(emp.counts.values()) == 777
        assert emp.trials == 777

    def test_single_trial(self):
        emp = simulate(GameParams(2, 2, 1, 1), 1, seed=0)
        assert sum(emp.counts.values()) == 1
        ((n, outcome),) = emp.counts
        assert n == 2
        assert outcome in (Outcome.BAND, Outcome.BUMP)

    def test_rejects_zero_trials(self):
        with pytest.raises(ValueError):
            simulate(GameParams(2, 2, 1, 1), 0)
        with pytest.raises(ValueError):
            simulate(GameParams(2, 2, 1, 1), -5)

    def test_zero_window_always_bumps_at_one(self):
        emp = simulate(GameParams(3, 4, 0, 0), 100, seed=9)
        assert emp.counts == {(1, Outcome.BUMP): 100}

    def test_zero_quota_always_bands_at_one(self):
        emp = simulate(GameParams(3, 4, 0, 2), 100, seed=9)
        assert emp.counts == {(1, Outcome.BAND): 100}

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
        for (n, _outcome), count in emp.counts.items():
            assert 1 <= n <= params.n_max
            assert count > 0

    def test_four_card_bump_rate(self):
        # bump probability is exactly 1/3; a million deals must sit within
        # four binomial standard errors
        trials = 10**6
        emp = simulate(GameParams(2, 2, 1, 1), trials, seed=42)
        bumps = emp.counts[(2, Outcome.BUMP)]
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
        assert emp.counts == shuffled_deal_counts(params, 3000, seed)


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
            # equal counts, and the cells in the order one sequential run first meets them
            assert list(emp.counts.items()) == list(expected.items()), cpus
            assert_no_child_left()

    def test_a_worker_error_is_the_sequential_error(self, monkeypatch):
        # n_max is the latest stop of the first block, so only the second block
        # breaks it: the child raises, and the parent must raise its message
        trials, seed = 2 * _MIN_BLOCK, 1
        real = GameParams(13, 4, 1, 3)
        first = max(n for n, _ in _deal(real, seed, 0, _MIN_BLOCK))
        assert max(n for n, _ in _deal(real, seed, _MIN_BLOCK, trials)) > first
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
            expected = shuffled_deal_counts(params, trials, seed=0)
            assert list(simulate(params, trials).counts.items()) == list(expected.items())
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
        assert list(emp.counts.items()) == list(expected.items())
        assert_no_child_left()

    @pytest.mark.parametrize("trials", [_MIN_BLOCK - 1, 2 * _MIN_BLOCK - 1])
    def test_small_runs_never_fork(self, monkeypatch, trials):
        def refuse():
            raise AssertionError("simulate forked below _MIN_BLOCK trials per worker")

        monkeypatch.setattr(oracle.os, "sched_getaffinity", lambda pid: set(range(64)))
        monkeypatch.setattr(oracle.os, "fork", refuse)
        params = GameParams(3, 3, 1, 2)
        assert simulate(params, trials, seed=4).counts == shuffled_deal_counts(params, trials, seed=4)

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

    def test_no_fork_runs_in_process(self, monkeypatch):
        monkeypatch.setattr(oracle.os, "sched_getaffinity", lambda pid: {0, 1})
        monkeypatch.delattr(oracle.os, "fork")
        params = GameParams(3, 3, 0, 2)
        assert simulate(params, 2 * _MIN_BLOCK).counts == {(1, Outcome.BAND): 2 * _MIN_BLOCK}


class TestCompare:
    def test_params_mismatch_rejected(self):
        exact = joint_distribution(GameParams(2, 2, 1, 1))
        emp = simulate(GameParams(2, 3, 1, 2), 10, seed=0)
        with pytest.raises(ValueError):
            compare(exact, emp)

    def test_expected_counts_give_zero_z(self):
        params = GameParams(2, 2, 1, 1)
        exact = joint_distribution(params)
        from collections import Counter

        emp = EmpiricalDistribution(
            params, 300, Counter({(2, Outcome.BAND): 200, (2, Outcome.BUMP): 100})
        )
        report = compare(exact, emp)
        assert report.max_abs_z == 0.0
        assert report.impossible == 0
        assert all(c.z == 0.0 for c in report.cells)

    def test_impossible_cell_fails(self):
        params = GameParams(2, 2, 1, 1)
        exact = joint_distribution(params)
        from collections import Counter

        emp = EmpiricalDistribution(params, 100, Counter({(1, Outcome.BUMP): 100}))
        report = compare(exact, emp)
        assert report.impossible == 1
        bad = [c for c in report.cells if c.expected == 0]
        assert len(bad) == 1
        assert math.isinf(bad[0].z)
        assert bad[0].count == 100

    def test_min_prob_marks_thin_cells_unscored(self):
        params = GameParams(4, 13, 5, 8)
        exact = joint_distribution(params)
        emp = simulate(params, 2000, seed=2)
        report = compare(exact, emp)
        assert isinstance(report, ComparisonReport)
        thin = [c for c in report.cells if 0 < float(c.expected) < 1e-5]
        assert thin
        assert all(not c.scored for c in thin)
        scored = [c for c in report.cells if c.scored]
        assert scored
        assert report.max_abs_z == max(abs(c.z) for c in scored)

    def test_certain_cell_off_its_frequency_fails(self):
        # l = 0 bands at the first card with probability 1; a float p of 1.0
        # has no spread, so a frequency off it scores z = -inf
        params = GameParams(2, 3, 0, 2)
        exact = joint_distribution(params)
        emp = EmpiricalDistribution(
            params, 10, Counter({(1, Outcome.BAND): 5, (2, Outcome.BAND): 5})
        )
        report = compare(exact, emp)
        assert report.impossible == 1
        certain = report.cells[0]
        assert (certain.n, certain.expected, certain.z, certain.scored) == (1, 1, -math.inf, True)
        assert report.max_abs_z == math.inf

    def test_certain_cell_on_its_frequency_passes(self):
        params = GameParams(2, 3, 0, 2)
        emp = EmpiricalDistribution(params, 10, Counter({(1, Outcome.BAND): 10}))
        report = compare(joint_distribution(params), emp)
        assert report.impossible == 0
        assert report.max_abs_z < 4.0
        assert [(c.z, c.scored) for c in report.cells] == [(0.0, True)]

    @pytest.mark.parametrize("trials", [0, -5])
    def test_non_positive_trials_rejected(self, trials):
        params = GameParams(2, 2, 1, 1)
        emp = EmpiricalDistribution(params, trials, Counter())
        with pytest.raises(ValueError, match=f"^trials must be >= 1, got {trials}$"):
            compare(joint_distribution(params), emp)

    def test_realistic_run_passes(self):
        params = GameParams(2, 3, 1, 2)
        exact = joint_distribution(params)
        emp = simulate(params, 50_000, seed=6)
        report = compare(exact, emp)
        assert report.max_abs_z < 4.0
        assert report.impossible == 0
        assert sum(c.count for c in report.cells) == 50_000


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
