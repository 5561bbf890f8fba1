"""Summary statistics and structural scans over the exact stopping law.

Moments are exact: means, variances, marginals and expected payoffs are
Fractions.  No text is read or made here: the command line parses the stakes
and renders the standard deviation, an irrational square root, as a correctly
rounded decimal from the exact variance.

The scans sweep the paper's general case, 0 < l < u < s, over parameter
grids; this module alone knows that case.  They check that every term of the
paper's bump sum is strictly positive wherever its index ranges
(``bump_k_range``, ``bump_kpp_range``) admit it, and whether the bump mass
sequences are log-concave.  The non-vacuity scan reads each term's sign
from the support of its count of deals, an interval of degrees, with no
polynomial arithmetic.  A scan returns its counts of cells and checks and
its findings, nothing of its own arguments; no findings means the property
holds on the grid.  Bump log-concavity is an open conjecture, so scan hits
there are findings to report, not failures.  Band log-concavity is a
theorem, and a violation would mean an engine bug; the tests check it on the
same grids.
"""

from __future__ import annotations

from fractions import Fraction
from typing import NamedTuple, Sequence

from .distribution import GameParams, JointDistribution, joint_distribution


# ==================== moments ====================


class OutcomeMoments(NamedTuple):
    """Moments of the stopping draw restricted to one outcome.

    mean and variance are None when the outcome has no mass; the marginal of
    0 is the flag.
    """

    marginal: Fraction
    mean: Fraction | None
    variance: Fraction | None


class MomentsReport(NamedTuple):
    mean: Fraction
    variance: Fraction
    band: OutcomeMoments
    bump: OutcomeMoments


def _conditional(mass: int, first: int, second: int, denominator: int) -> OutcomeMoments:
    """Moments of one outcome from its mass, sum of n*p and sum of n*n*p,
    each an integer over denominator."""
    marginal = Fraction(mass, denominator)
    if mass == 0:
        return OutcomeMoments(marginal, None, None)
    # The shared denominator cancels from the conditional moments.
    variance = Fraction(second * mass - first * first, mass * mass)
    return OutcomeMoments(marginal, Fraction(first, mass), variance)


def moments(dist: JointDistribution) -> MomentsReport:
    """Exact mean/variance of the stopping draw, overall and per outcome."""
    # Per outcome (band, then bump): the mass, sum of n*p and sum of n*n*p,
    # each an integer over dist.denominator.
    band, bump = (
        [sum(n**k * p for n, p in enumerate(column) if p) for k in range(3)] for column in (dist.band, dist.bump)
    )
    d = dist.denominator
    first = band[1] + bump[1]
    return MomentsReport(
        mean=Fraction(first, d),
        variance=Fraction((band[2] + bump[2]) * d - first * first, d * d),
        band=_conditional(*band, d),
        bump=_conditional(*bump, d),
    )


# ==================== payoffs ====================

def payoff_ev(dist: JointDistribution, band: Fraction, bump: Fraction) -> Fraction:
    """Exact expected payoff of one deal under per-outcome stakes; positive favours the player."""
    return Fraction(band * sum(dist.band) + bump * sum(dist.bump), dist.denominator)


# ==================== log-concavity ====================


def log_concavity(seq: Sequence[Fraction | int]) -> tuple[int, ...]:
    """Exact log-concavity check: the sorted indices into seq where it fails.

    The sequence is log-concave, and the tuple empty, when its support is a
    block of consecutive indices and seq[i-1] * seq[i+1] <= seq[i]**2 holds
    at every interior index.
    """
    values = list(seq)
    if any(v < 0 for v in values):
        raise ValueError("log-concavity is defined here for non-negative sequences")
    bad: set[int] = set()
    positive = [i for i, v in enumerate(values) if v > 0]
    if positive:
        for i in range(positive[0], positive[-1] + 1):
            if values[i] == 0:
                bad.add(i)  # hole in the support
    for i in range(1, len(values) - 1):
        if values[i - 1] * values[i + 1] > values[i] ** 2:
            bad.add(i)
    return tuple(sorted(bad))


# ==================== parameter-grid scans ====================


class Finding(NamedTuple):
    """One counterexample or conjecture hit located by a scan."""

    m: int
    s: int
    l: int
    u: int
    n: int | None
    k: int | None
    kpp: int | None
    note: str


class ScanReport(NamedTuple):
    cells: int
    checks: int
    findings: tuple[Finding, ...]


def _require_general(params: GameParams) -> None:
    # The paper's general case, 0 < l < u < s: no window edge at 0 or s, and l != u.
    if not 0 < params.l < params.u < params.s:
        raise ValueError(
            f"parameters l={params.l}, u={params.u}, s={params.s} are a boundary "
            "configuration; use joint_distribution, which covers it"
        )


def bump_k_range(params: GameParams, n: int) -> tuple[int, int]:
    """Admissible count k of capped ranks for a bump at draw n.

    Returns (k_lo, k_hi); an empty range (k_lo > k_hi) signals that no
    configuration exists at this n, it is not an error.
    """
    _require_general(params)
    return _k_range(params, n)


def _k_range(params: GameParams, n: int) -> tuple[int, int]:
    """bump_k_range's range, unchecked: for a general cell."""
    return max(1, n - (params.l + (params.m - 1) * (params.u - 1))), (n - 1) // params.u


def bump_kpp_range(params: GameParams, n: int, k: int) -> tuple[int, int]:
    """Admissible count k'' of interior ranks, given k capped ranks at draw n.

    Returns (kpp_lo, kpp_hi).  For every n and k accepted by bump_k_range
    the paper claims this window is non-empty; an empty range
    (kpp_lo > kpp_hi) is returned as it is, like bump_k_range's, and the
    non-vacuity scan reports it as a finding.
    """
    k_lo, k_hi = bump_k_range(params, n)  # refuses a boundary cell first
    if not (params.u + 1 <= n <= params.n_max):
        raise ValueError(f"n={n} outside bump support [{params.u + 1}, {params.n_max}]")
    if not (k_lo <= k <= k_hi):
        raise ValueError(f"k={k} outside admissible range [{k_lo}, {k_hi}] at n={n}")
    return _kpp_window(params, n, k)


def _kpp_window(params: GameParams, n: int, k: int) -> tuple[int, int]:
    """bump_kpp_range's window, unchecked: for a general cell and an admissible (n, k)."""
    m, l, u = params.m, params.l, params.u
    n_k = n - 1 - k * u
    num = n_k - (m - k) * (l - 1)
    return max(0, -((-num) // (u - l))), min(n_k // l, m - k - 1)


def _general_grid(m_range: tuple[int, int], s_range: tuple[int, int]):
    for m in range(m_range[0], m_range[1] + 1):
        for s in range(s_range[0], s_range[1] + 1):
            for l in range(1, s):
                for u in range(l + 1, s):
                    yield GameParams(m, s, l, u)


def nonvacuity_scan(
    m_range: tuple[int, int] = (2, 8), s_range: tuple[int, int] = (2, 8)
) -> ScanReport:
    """Verify the bump sum has work to do everywhere its index ranges claim.

    For every general-case cell on the grid, every draw n in the bump
    support, and every admissible k, the k'' window must be non-empty and
    every summand strictly positive.  A summand's weight
    k * C(m, k) * C(s, u)**k * (s - u) / (n * C(t, n)) is positive for every
    k >= 1, so its sign is that of its count of deals,
    C(m - k, k'') * [z**j] (A**(m-k-k'') * B**k''), with j = n - 1 - k*u and
    A, B one rank's counting polynomials over [0, l - 1] and [l, u - 1].

    That count is positive exactly when 0 <= k'' <= m - k (the binomial) and
    k'' * l <= j <= (m-k-k'') * (l-1) + k'' * (u-1): A and B have positive
    coefficients C(s, x), x < s, on exactly [0, l - 1] and [l, u - 1], and a
    product of polynomials positive on exactly [a0, a1] and [b0, b1] is
    positive on exactly [a0 + b0, a1 + b1].  The tests hold this lemma
    against the exact coefficients.
    """
    cells = 0
    checks = 0
    findings: list[Finding] = []
    for p in _general_grid(m_range, s_range):
        cells += 1
        m, s, l, u = p.m, p.s, p.l, p.u
        for n in range(u + 1, p.n_max + 1):
            k_lo, k_hi = _k_range(p, n)  # p is general: bump_k_range's check holds
            if k_lo > k_hi:
                findings.append(Finding(m, s, l, u, n, None, None, "empty capped-rank range"))
                continue
            for k in range(k_lo, k_hi + 1):
                checks += 1
                kpp_lo, kpp_hi = _kpp_window(p, n, k)  # (n, k) admissible: bump_kpp_range's checks hold
                if kpp_lo > kpp_hi:
                    findings.append(Finding(m, s, l, u, n, k, None, "empty interior-rank window"))
                    continue
                j = n - 1 - k * u
                for kpp in range(kpp_lo, kpp_hi + 1):
                    checks += 1
                    # the support of C(m - k, k'') * A**(m-k-k'') * B**k''
                    if not (0 <= kpp <= m - k and kpp * l <= j <= (m - k - kpp) * (l - 1) + kpp * (u - 1)):
                        findings.append(Finding(m, s, l, u, n, k, kpp, "non-positive summand"))
    return ScanReport(cells, checks, tuple(findings))


def bump_logconcavity_scan(
    m_range: tuple[int, int] = (2, 8), s_range: tuple[int, int] = (2, 8)
) -> ScanReport:
    """Bump mass sequences over the grid, from u + 1 to n_max: log-concavity is conjectured only.

    Findings from this scan are research observations, not engine errors.
    """
    cells = 0
    checks = 0
    findings: list[Finding] = []
    for p in _general_grid(m_range, s_range):
        cells += 1
        dist = joint_distribution(p)
        # Numerators over one denominator: a common scale leaves log-concavity as it is.
        seq = dist.bump[p.u + 1 :]
        checks += max(len(seq) - 2, 0)
        for i in log_concavity(seq):
            findings.append(
                Finding(p.m, p.s, p.l, p.u, p.u + 1 + i, None, None, "bump log-concavity violated")
            )
    return ScanReport(cells, checks, tuple(findings))
