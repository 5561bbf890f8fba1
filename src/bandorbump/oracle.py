"""Independent recomputation of the stopping law, for validating closed forms.

Two routes, sharing no algebra with the formula engine:

* ``exhaustive_distribution`` runs exact forward dynamic programming over
  tally configurations, applying the stopping rules directly from their
  definitions.  It costs at most C(m + u, m) tally histograms per draw,
  over n_max draws; ``verify`` decides which decks run it.
* ``simulate`` plays seeded deals and tallies them per stopping draw, in a
  band and a bump column; ``compare`` scores them against an exact law.
  Trial i is dealt as ``random.Random(_trial_seed(seed, i)).shuffle`` would
  shuffle it, and ``_trial_seed`` alone defines that seed.  ``simulate``
  makes the same ``getrandbits`` calls as ``Random.shuffle`` inline on one
  reseeded generator, because building a generator per trial and calling
  ``_randbelow`` per swap cost more than playing the deal.  As no trial
  reads another's state, large runs are cut into blocks of trials dealt
  on every usable CPU by forked children; the parent deals any block no
  child returns, so the counts are the sequential ones in every case.

The DP state is the histogram of the tallies: ``h[v]`` ranks hold tally v,
for 0 <= v <= u.  Both stopping rules and the per-draw transition weights
depend only on how many ranks hold each tally, so aggregating permutations
loses nothing, and a draw moves one rank from ``h[v]`` to ``h[v + 1]``.  There
are at most C(m + u, m) histograms.  A histogram is keyed by the integer
sum_v h[v] (m + 1)**v, its digits in base m + 1: every digit h[v] is at most
m < m + 1, so no two histograms share a key, and moving a rank from tally v
to v + 1 adds the constant m (m + 1)**v.  Each state is a record [count, h,
ranks still below l], built once, when its histogram is first reached; every
later transition into it only adds to the count, the integer number of
ordered deal prefixes (cards told apart) that reach it.  Every count at draw n
shares the denominator (t)_n = t (t - 1) ... (t - n + 1).  Each (n, outcome)
cell becomes entry n of the band or bump column, a numerator over
L = lcm(1, ..., t), the one denominator of every law
(``GameParams.denominator``), as count * L / (t)_n; that division must be
exact, and a remainder raises ConsistencyError.
"""

from __future__ import annotations

import hashlib
import marshal
import math
import os
import random
from fractions import Fraction
from operator import add
from typing import NamedTuple

from .distribution import ConsistencyError, GameParams, JointDistribution


def exhaustive_distribution(params: GameParams) -> JointDistribution:
    """Exact stopping law by dynamic programming: n_max draws of at most C(m + u, m) histograms.

    Transition: from a tally histogram h with n - 1 cards dealt, one of the
    h[v] * (s - v) cards left in ranks at tally v is drawn next, out of
    t - (n - 1).  Drawing from tally u is a bump; a draw that leaves no rank
    below l is a band.  Only dealt states are examined, so the empty tally
    never counts as a band even when l = 0.  A transition builds no tuple: the
    child's key is the parent's plus the lane's step m (m + 1)**v, unique as
    every digit is at most m, and its record [count, h, short] is built only
    when no earlier transition reached that key.  ``verify`` decides which decks run it.
    """
    t, m, s, l, u = params.t, params.m, params.s, params.l, params.u
    horizon = params.n_max
    # Draws below tally u: (v, cards left in such a rank, whether the rank
    # reaches l, the key step m (m + 1)**v of moving a rank from v to v + 1).
    # A draw from tally u is a bump, open only when u < s.
    lanes = [(v, s - v, v == l - 1, m * (m + 1) ** v) for v in range(u)]
    bump_left = s - u
    # Whether a deal stops at draw n depends only on the set of its first
    # n - 1 cards and on card n, so a cell's count is (n - 1)! times a count
    # of such pairs, its probability a multiple of 1 / (t C(t - 1, n - 1)),
    # and t C(t - 1, n - 1) divides lcm(1, ..., t).  Emit each cell over it.
    denominator = params.denominator
    band, bump = [0] * (horizon + 1), [0] * (horizon + 1)
    # key -> [count, h, ranks still below l]; the all-zero tally h = (m, 0, ...) has key m
    alive: dict[int, list] = {m: [1, (m,) + (0,) * u, m if l else 0]}
    deals = 1  # ordered prefixes of n cards: (t)_n = t (t - 1) ... (t - n + 1)
    for n in range(1, horizon + 1):
        deals *= t - (n - 1)
        nxt: dict[int, list] = {}
        band_n = bump_n = 0
        for key, (count, h, short) in alive.items():
            bump_n += count * (h[u] * bump_left)
            for v, left, reaches_l, step in lanes:
                k = h[v]
                if not k:
                    continue
                w = count * (k * left)
                if short - reaches_l == 0:  # the draw leaves no rank below l
                    band_n += w
                    continue
                state = nxt.get(key + step)
                if state is None:
                    child = h[:v] + (k - 1, h[v + 1] + 1) + h[v + 2 :]
                    nxt[key + step] = [w, child, short - reaches_l]
                else:
                    state[0] += w
        for column, count in ((band, band_n), (bump, bump_n)):
            if count:
                column[n], rest = divmod(count * denominator, deals)
                if rest:
                    raise ConsistencyError(
                        f"mass {count}/{deals} at draw {n} is not a multiple of "
                        f"1/{denominator} for {params}"
                    )
        alive = nxt
    if alive:
        leftover = Fraction(sum(state[0] for state in alive.values()), deals)
        raise ConsistencyError(
            f"{leftover} probability mass still alive past draw {horizon} for {params}"
        )
    return JointDistribution(params, tuple(band), tuple(bump))


class EmpiricalDistribution(NamedTuple):
    """Simulated deals per stopping draw n = 0..n_max, in a band and a bump column."""

    params: GameParams
    band: list[int]
    bump: list[int]

    @property
    def trials(self) -> int:
        """Deals tallied: the total of both columns."""
        return sum(self.band) + sum(self.bump)


def _trial_seed(seed: int, index: int) -> int:
    # Stable splittable seeding: trial i's generator is seeded from a digest
    # of (seed, i), so runs are reproducible and trials do not share state.
    digest = hashlib.sha256(f"{seed}/{index}".encode()).digest()
    return int.from_bytes(digest[:16], "big")


# Deals per worker below which a fork costs more than it saves.
_MIN_BLOCK = 5000


def _deal(params: GameParams, seed: int, start: int, stop: int) -> tuple[list[int], list[int]]:
    """Tally trials start..stop-1 into band and bump columns; the only deal loop.

    The shuffle is Fisher-Yates from the back, as ``Random.shuffle`` runs it:
    position i swaps with j, the first of ``getrandbits((i + 1).bit_length())``
    draws that is at most i.  A stop past n_max raises before it is tallied.
    """
    m, s, l, u = params.m, params.s, params.l, params.u
    base_deck = [rank for rank in range(m) for _ in range(s)]
    swaps = [(i, (i + 1).bit_length()) for i in range(len(base_deck) - 1, 0, -1)]
    latest = params.n_max
    band, bump = [0] * (latest + 1), [0] * (latest + 1)
    rng = random.Random()
    getrandbits = rng.getrandbits
    for index in range(start, stop):
        rng.seed(_trial_seed(seed, index))
        deck = base_deck.copy()
        for i, k in swaps:
            j = getrandbits(k)
            while j > i:
                j = getrandbits(k)
            deck[i], deck[j] = deck[j], deck[i]
        tallies = [0] * m
        short = m if l > 0 else 0  # ranks still under their lower quota
        for n, rank in enumerate(deck, start=1):
            v = tallies[rank] + 1
            tallies[rank] = v
            if v > u:
                column = bump
                break
            if v == l:
                short -= 1
            if short == 0:
                column = band
                break
        else:
            raise ConsistencyError(f"deal ran through the whole deck for {params}")
        if n > latest:
            raise ConsistencyError(f"deal stopped at draw {n} > {latest} for {params}")
        column[n] += 1
    return band, bump


def simulate(params: GameParams, trials: int, seed: int = 0) -> EmpiricalDistribution:
    """Play `trials` independent deals on seeded shuffles and tally outcomes.

    The trials are cut into contiguous blocks, one per usable CPU but none
    under _MIN_BLOCK deals.  Each block after the first goes to a child made
    by ``os.fork``, which sends its two columns back over a pipe with
    ``marshal`` and leaves by ``os._exit``, so it never flushes the parent's
    buffered output.  One loop then takes the blocks in order and deals in
    the parent every block with no worker result: the first (the only one
    with no ``os.fork`` or on a small run), and any whose ``os.pipe`` or
    ``os.fork`` failed or whose child sent nothing, raising its own error if
    it has one.  Trial i rests on ``_trial_seed(seed, i)`` alone, so the
    counts and the first ConsistencyError are those of one sequential run
    whatever the number of workers.
    """
    if trials < 1:
        raise ValueError(f"trials must be >= 1, got {trials}")
    affinity = getattr(os, "sched_getaffinity", None)
    cpus = len(affinity(0)) if affinity else os.cpu_count() or 1
    workers = max(1, min(cpus, trials // _MIN_BLOCK)) if hasattr(os, "fork") else 1
    bounds = [trials * b // workers for b in range(workers + 1)]
    # (pid, read end of its pipe, start, stop) per block; None where none was made
    children = [(None, None, 0, bounds[1])]  # the first block is the parent's
    try:
        for start, stop in zip(bounds[1:-1], bounds[2:]):
            pid = pipe = None
            try:
                read_fd, write_fd = os.pipe()
                pipe = open(read_fd, "rb")
                with open(write_fd, "wb") as sink:  # the parent's write end closes after the fork
                    pid = os.fork()
                    if pid == 0:  # any failure leaves the pipe empty
                        sink.write(marshal.dumps(_deal(params, seed, start, stop)))
            except OSError:  # no pipe or no child: the parent deals the block below
                pass
            finally:
                if pid == 0:  # the child leaves, whatever befell it, without the parent's exit handlers
                    os._exit(0)
            children.append((pid, pipe, start, stop))
        band = bump = [0] * (params.n_max + 1)
        for _, pipe, start, stop in children:
            data = pipe and pipe.read()  # None: no child; empty: a child that sent nothing
            block_band, block_bump = marshal.loads(data) if data else _deal(params, seed, start, stop)
            band, bump = list(map(add, band, block_band)), list(map(add, bump, block_bump))
    finally:
        for pid, pipe, *_ in children:
            if pipe:
                pipe.close()
            if pid:
                os.kill(pid, 9)  # SIGKILL: past an error, a child still dealing is not waited for
                os.waitpid(pid, 0)
    empirical = EmpiricalDistribution(params, band, bump)
    if empirical.trials != trials:
        raise ConsistencyError(f"{empirical.trials} deals tallied for {trials} trials of {params}")
    return empirical


class ComparisonReport(NamedTuple):
    """Binomial z per cell, in the law's layout: one band and one bump entry per draw 0..n_max."""

    band_z: tuple[float | None, ...]  # None where the law forbids the cell and no deal hit it
    bump_z: tuple[float | None, ...]
    scored: int  # cells that enter the pass/fail decision, impossible hits among them
    max_abs_z: float  # over the scored cells of nonzero probability
    impossible: int  # cells the exact law forbids but the simulation hit


# Cells of exact probability below this see too few simulated hits for the
# binomial z-score to be meaningful, so compare leaves them unscored.
_MIN_SCORED_PROB = 1e-5


def compare(exact: JointDistribution, empirical: EmpiricalDistribution) -> ComparisonReport:
    """Score empirical frequencies against an exact law with binomial z-scores.

    The report scores and does not judge: its caller bounds max_abs_z and
    impossible, the count of hits on cells of exact probability zero.  Entry
    n of band_z and bump_z is the z of cell (n, band) and (n, bump): None if
    the law forbids the cell and no deal hit it, +inf if a deal did, which
    is an impossible hit, scored but kept out of max_abs_z.  A cell of exact
    probability p is scored when p >= 1e-5; a thinner one keeps its z but is
    too thin for the normal approximation behind it.  A cell whose
    probability is 0.0 or 1.0 as a float has no spread, so a frequency off
    it scores z = +-inf.  The trial count is the columns' total, so a
    negative count, which would cancel a hit unseen, is refused.
    """
    if exact.params != empirical.params:
        raise ValueError("distributions describe different parameters")
    draws = exact.params.n_max + 1
    if not len(empirical.band) == len(empirical.bump) == draws:
        raise ValueError(f"band and bump columns must hold n_max + 1 = {draws} counts")
    for n, (band_n, bump_n) in enumerate(zip(empirical.band, empirical.bump)):
        if min(band_n, bump_n) < 0:
            raise ValueError(f"negative count at draw {n}: band {band_n}, bump {bump_n}")
    trials = empirical.trials
    if trials < 1:
        raise ValueError(f"trials must be >= 1, got {trials}")
    denominator = exact.denominator
    z_columns, scored, impossible, max_abs_z = [], 0, 0, 0.0
    for exact_column, counts in ((exact.band, empirical.band), (exact.bump, empirical.bump)):
        zs = []
        for mass, count in zip(exact_column, counts):
            if not mass:  # a forbidden cell has no z unless a deal hit it
                if count:
                    impossible += 1
                zs.append(math.inf if count else None)
                continue
            pf = mass / denominator  # correctly rounded, as float(Fraction(mass, denominator)) is
            se = math.sqrt(pf * (1.0 - pf) / trials)
            freq = count / trials
            if se == 0.0:
                z = 0.0 if freq == pf else math.copysign(math.inf, freq - pf)
            else:
                z = (freq - pf) / se
            if pf >= _MIN_SCORED_PROB:
                scored += 1
                max_abs_z = max(max_abs_z, abs(z))
            zs.append(z)
        z_columns.append(tuple(zs))
    return ComparisonReport(*z_columns, scored + impossible, max_abs_z, impossible)
