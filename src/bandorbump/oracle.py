"""Independent recomputation of the stopping law, for validating closed forms.

Two routes, sharing no algebra with the formula engine:

* ``exhaustive_distribution`` runs exact forward dynamic programming over
  tally configurations, applying the stopping rules directly from their
  definitions.  A draw holds at most C(m + u, m) tally histograms, so it
  refuses decks larger than a configurable cap.
* ``simulate`` plays the game for real on seeded shuffles and tallies the
  empirical law; ``compare`` scores it against an exact law cell by cell.
  Trial i is dealt from the shuffle that
  ``random.Random(_trial_seed(seed, i)).shuffle`` would make, and
  ``_trial_seed`` alone defines that seed.  ``simulate`` makes the same
  ``getrandbits`` calls as ``Random.shuffle`` inline on one reseeded
  generator, because building a generator per trial and calling
  ``_randbelow`` per swap cost more than playing the deal.  As no trial
  reads another's state, large runs are cut into blocks of trials dealt
  on every usable CPU by forked children; the parent deals any block no
  child returns, so the counts are the sequential ones in every case.

The DP state is the histogram of the tallies: ``h[v]`` ranks hold tally v,
for 0 <= v <= u.  Both stopping rules and the per-draw transition weights
depend only on how many ranks hold each tally, so aggregating permutations
loses nothing, and a draw moves one rank from ``h[v]`` to ``h[v + 1]``.  There
are at most C(m + u, m) histograms.  Each state carries the integer count of
ordered deal prefixes (cards told apart) that reach it; every count at draw n
shares the denominator (t)_n = t (t - 1) ... (t - n + 1).  Each emitted
(n, outcome) cell becomes a numerator over L = lcm(1, ..., t), the one
denominator of every law (``GameParams.denominator``), as count * L / (t)_n;
that division must be exact, and a remainder raises ConsistencyError.
"""

from __future__ import annotations

import hashlib
import marshal
import math
import os
import random
from collections import Counter
from fractions import Fraction
from typing import NamedTuple

from .distribution import ConsistencyError, GameParams, JointDistribution, Outcome


def exhaustive_distribution(params: GameParams, cap: int = 16) -> JointDistribution:
    """Exact stopping law by full dynamic programming; refuses t > cap.

    Transition: from a tally histogram h with n - 1 cards dealt, one of the
    h[v] * (s - v) cards left in ranks at tally v is drawn next, out of
    t - (n - 1).  Drawing from tally u is a bump; a draw that leaves no rank
    below l is a band.  Only dealt states are examined, so the empty tally
    never counts as a band even when l = 0.
    """
    t = params.t
    if t > cap:
        raise ValueError(f"deck size t={t} exceeds the exhaustive cap {cap}")
    m, s, l, u = params.m, params.s, params.l, params.u
    horizon = params.n_max
    # Draws below tally u: (v, cards left in such a rank, whether the rank
    # reaches l).  A draw from tally u is a bump, open only when u < s.
    lanes = [(v, s - v, v == l - 1) for v in range(u)]
    bump_left = s - u
    # Whether a deal stops at draw n depends only on the set of its first
    # n - 1 cards and on card n, so a cell's count is (n - 1)! times a count
    # of such pairs, its probability a multiple of 1 / (t C(t - 1, n - 1)),
    # and t C(t - 1, n - 1) divides lcm(1, ..., t).  Emit numerators over it.
    denominator = params.denominator
    band: dict[int, int] = {}
    bump: dict[int, int] = {}
    alive: dict[tuple[int, ...], int] = {(m,) + (0,) * u: 1}
    deals = 1  # ordered prefixes of n cards: (t)_n = t (t - 1) ... (t - n + 1)
    for n in range(1, horizon + 1):
        deals *= t - (n - 1)
        nxt: dict[tuple[int, ...], int] = {}
        band_n = bump_n = 0
        for h, count in alive.items():
            short = sum(h[:l])  # ranks still below l
            bump_n += count * h[u] * bump_left
            child = list(h)
            for v, left, reaches_l in lanes:
                k = h[v]
                if not k:
                    continue
                w = count * k * left
                if short - reaches_l == 0:  # the draw leaves no rank below l
                    band_n += w
                    continue
                child[v] = k - 1
                child[v + 1] += 1
                key = tuple(child)
                nxt[key] = nxt.get(key, 0) + w
                child[v] = k
                child[v + 1] -= 1
        for cells, count in ((band, band_n), (bump, bump_n)):
            if count:
                cells[n], rest = divmod(count * denominator, deals)
                if rest:
                    raise ConsistencyError(
                        f"mass {count}/{deals} at draw {n} is not a multiple of "
                        f"1/{denominator} for {params}"
                    )
        alive = nxt
    if alive:
        leftover = Fraction(sum(alive.values()), deals)
        raise ConsistencyError(
            f"{leftover} probability mass still alive past draw {horizon} for {params}"
        )
    first = min(band.keys() | bump.keys())
    last = max(band.keys() | bump.keys())
    rows = tuple((n, band.get(n, 0), bump.get(n, 0)) for n in range(first, last + 1))
    return JointDistribution(params, rows)


class EmpiricalDistribution(NamedTuple):
    """Outcome tallies from simulated deals."""

    params: GameParams
    trials: int
    counts: Counter[tuple[int, Outcome]]


def _trial_seed(seed: int, index: int) -> int:
    # Stable splittable seeding: trial i's generator is seeded from a digest
    # of (seed, i), so runs are reproducible and trials do not share state.
    digest = hashlib.sha256(f"{seed}/{index}".encode()).digest()
    return int.from_bytes(digest[:16], "big")


# Deals per worker below which a fork costs more than it saves.
_MIN_BLOCK = 5000


def _deal(params: GameParams, seed: int, start: int, stop: int) -> Counter[tuple[int, Outcome]]:
    """Tally trials start..stop-1, the only deal loop.

    The shuffle is Fisher-Yates from the back, as ``Random.shuffle`` runs it:
    position i swaps with j, the first of ``getrandbits((i + 1).bit_length())``
    draws that is at most i.
    """
    m, s, l, u = params.m, params.s, params.l, params.u
    base_deck = [rank for rank in range(m) for _ in range(s)]
    swaps = [(i, (i + 1).bit_length()) for i in range(len(base_deck) - 1, 0, -1)]
    latest = params.n_max
    counts: Counter[tuple[int, Outcome]] = Counter()
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
                counts[(n, Outcome.BUMP)] += 1
                break
            if v == l:
                short -= 1
            if short == 0:
                counts[(n, Outcome.BAND)] += 1
                break
        else:
            raise ConsistencyError(f"deal ran through the whole deck for {params}")
        if n > latest:
            raise ConsistencyError(f"deal stopped at draw {n} > {latest} for {params}")
    return counts


def simulate(params: GameParams, trials: int, seed: int = 0) -> EmpiricalDistribution:
    """Play `trials` independent deals on seeded shuffles and tally outcomes.

    The trials are cut into contiguous blocks, one per usable CPU but none
    under _MIN_BLOCK deals.  The parent deals the first block; each other
    block goes to a child made by ``os.fork``, which sends its counts back
    over a pipe with ``marshal`` and leaves by ``os._exit``, so it never
    flushes the parent's buffered output.  The parent deals any block with
    no worker result (no ``os.fork``, a small run, a failed ``os.pipe`` or
    ``os.fork``, a child that sent nothing), raising its own error if it
    has one.  Trial i rests on ``_trial_seed(seed, i)`` alone, and the
    blocks are merged in order, so the counts (their cells' order too) and
    the first ConsistencyError are those of one sequential run whatever the
    number of workers.
    """
    if trials < 1:
        raise ValueError(f"trials must be >= 1, got {trials}")
    affinity = getattr(os, "sched_getaffinity", None)
    cpus = len(affinity(0)) if affinity else os.cpu_count() or 1
    workers = max(1, min(cpus, trials // _MIN_BLOCK)) if hasattr(os, "fork") else 1
    bounds = [trials * b // workers for b in range(workers + 1)]
    children = []  # (pid, read end of its pipe, start, stop) per later block; None where none was made
    try:
        for start, stop in zip(bounds[1:-1], bounds[2:]):
            pid = pipe = None
            try:
                read_fd, write_fd = os.pipe()
                pipe = open(read_fd, "rb")
                with open(write_fd, "wb") as sink:  # the parent's write end closes after the fork
                    pid = os.fork()
                    if pid == 0:  # any failure leaves the pipe empty
                        cells = _deal(params, seed, start, stop)
                        sink.write(marshal.dumps({(n, o.value): c for (n, o), c in cells.items()}))
            except OSError:  # no pipe or no child: the parent deals the block below
                pass
            finally:
                if pid == 0:  # the child leaves, whatever befell it, without the parent's exit handlers
                    os._exit(0)
            children.append((pid, pipe, start, stop))
        counts = _deal(params, seed, 0, bounds[1])
        for _, pipe, start, stop in children:
            data = pipe and pipe.read()  # empty: no child, or a child that sent nothing
            cells = marshal.loads(data) if data else _deal(params, seed, start, stop)
            counts.update({(n, Outcome(v)): c for (n, v), c in cells.items()})  # Outcome(o) is o
    finally:
        for pid, pipe, *_ in children:
            if pipe:
                pipe.close()
            if pid:
                os.kill(pid, 9)  # SIGKILL: past an error, a child still dealing is not waited for
                os.waitpid(pid, 0)
    dealt = sum(counts.values())
    if dealt != trials:
        raise ConsistencyError(f"{dealt} deals tallied for {trials} trials of {params}")
    return EmpiricalDistribution(params, trials, counts)


class CellCheck(NamedTuple):
    """One (n, outcome) cell of an exact-vs-empirical comparison."""

    n: int
    outcome: Outcome
    expected: Fraction
    count: int
    z: float
    scored: bool  # whether the cell enters the pass/fail decision


class ComparisonReport(NamedTuple):
    cells: tuple[CellCheck, ...]
    max_abs_z: float
    impossible: int  # cells the exact law forbids but the simulation hit


# Cells of exact probability below this see too few simulated hits for the
# binomial z-score to be meaningful, so compare leaves them unscored.
_MIN_SCORED_PROB = 1e-5


def compare(exact: JointDistribution, empirical: EmpiricalDistribution) -> ComparisonReport:
    """Score empirical frequencies against an exact law with binomial z-scores.

    The report scores and does not judge: its caller bounds max_abs_z and
    impossible, the count of hits on cells of exact probability zero.  Cells
    with exact probability below 1e-5 are reported but not scored; they are
    too thin for the normal approximation behind the z statistic.  A cell
    whose probability is 0.0 or 1.0 as a float has no spread, so a frequency
    off it scores z = +-inf.
    """
    if exact.params != empirical.params:
        raise ValueError("distributions describe different parameters")
    trials = empirical.trials
    if trials < 1:
        raise ValueError(f"trials must be >= 1, got {trials}")
    d = exact.denominator
    draws = set(range(exact.first_n, exact.last_n + 1))
    draws.update(n for n, _ in empirical.counts)
    cells = []
    impossible = 0
    max_abs_z = 0.0
    for n in sorted(draws):
        for outcome in Outcome:
            p = Fraction(exact.numerator(n, outcome), d)
            count = empirical.counts.get((n, outcome), 0)
            if p == 0 and count == 0:
                continue
            if p == 0:
                impossible += 1
                cells.append(CellCheck(n, outcome, p, count, math.inf, True))
                continue
            pf = float(p)
            se = math.sqrt(pf * (1.0 - pf) / trials)
            freq = count / trials
            if se == 0.0:
                z = 0.0 if freq == pf else math.copysign(math.inf, freq - pf)
            else:
                z = (freq - pf) / se
            scored = pf >= _MIN_SCORED_PROB
            if scored:
                max_abs_z = max(max_abs_z, abs(z))
            cells.append(CellCheck(n, outcome, p, count, z, scored))
    return ComparisonReport(tuple(cells), max_abs_z, impossible)
