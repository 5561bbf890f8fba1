"""Command line front end.

Exit codes: 0 success, 1 verification failure or falsified scan property,
2 usage error (including invalid game parameters) or an output that cannot
be written.
"""

from __future__ import annotations

import contextlib
import csv
import json
import math
import os
import sys
from decimal import Decimal
from fractions import Fraction

import click

from .analysis import (
    MomentsReport,
    PayoffSpec,
    bump_logconcavity_scan,
    moments,
    nonvacuity_scan,
    payoff_ev,
)
from .distribution import GameParams, JointDistribution, joint_distribution
from .exactnum import sqrt_decimal, to_decimal
from .oracle import compare, exhaustive_distribution, simulate

# 1000 significant figures is already far more than any table needs; more
# would only be needless work.
_MAX_DIGITS = 1000


def _parse_params(m: int, s: int, l: int, u: int) -> GameParams:
    try:
        return GameParams(m, s, l, u)
    except ValueError as exc:
        raise click.UsageError(str(exc)) from exc


def game_options(fn):
    fn = click.option("-u", type=int, required=True, help="Upper tally cap.")(fn)
    fn = click.option("-l", type=int, required=True, help="Lower tally quota.")(fn)
    fn = click.option("-s", type=int, required=True, help="Cards per rank.")(fn)
    fn = click.option("-m", type=int, required=True, help="Number of ranks.")(fn)
    return fn


class _Command(click.Command):
    """A command whose short options also match on the long-option lookup.

    click's parser tries every option token as a long option first. A miss
    builds a `NoSuchOption`, whose "did you mean" suggestions import
    `difflib` (several ms, most of a small command's cold cost), before it
    falls back to the short options. Registering `-m`, `-s`, `-l` and `-u`
    in the long table makes them match at once; it also reads `-m=13` as
    `-m 13`.
    """

    def make_parser(self, ctx: click.Context):
        parser = super().make_parser(ctx)
        parser._long_opt.update(parser._short_opt)
        return parser

    def invoke(self, ctx: click.Context):
        """Run the command and flush stdout here, so a failed write exits 2.

        Unguarded, an unbuffered write fails as a traceback with exit 1, the
        code of a failed verification, and a buffered one fails at exit with
        code 120.  A broken pipe is left to click, which exits 1 silently.
        """
        try:
            try:
                return super().invoke(ctx)
            finally:
                sys.stdout.flush()
        except BrokenPipeError:
            raise
        except OSError as exc:
            _drop_stdout()
            raise _cannot_write("stdout", exc) from exc


def _cannot_write(target: str, exc: OSError) -> click.ClickException:
    """The exit-2 error of every output that cannot be written."""
    error = click.ClickException(f"cannot write {target}: {exc.strerror}")
    error.exit_code = 2
    return error


def _drop_stdout() -> None:
    """Point fd 1 at the null device, so the flush at exit drops the unwritten bytes."""
    try:
        fd = sys.stdout.fileno()
    except ValueError:  # io.UnsupportedOperation: a stream with no file descriptor
        return
    devnull = os.open(os.devnull, os.O_WRONLY)
    os.dup2(devnull, fd)
    os.close(devnull)


@click.group()
def main() -> None:
    """Exact stopping-time and outcome distributions for band-or-bump deals."""


main.command_class = _Command


# ==================== dist ====================


def _dist_rows(dist: JointDistribution):
    """(n, band, bump, total, band | band, bump | bump) for every stored draw.

    Each value is an unreduced (numerator, denominator) pair; a conditional
    is None when its outcome has no mass.
    """
    d = dist.denominator
    band_marg = sum(r[1] for r in dist.numerators)
    bump_marg = sum(r[2] for r in dist.numerators)
    for n, band, bump in dist.numerators:
        yield (
            n,
            (band, d),
            (bump, d),
            (band + bump, d),
            (band, band_marg) if band_marg else None,
            (bump, bump_marg) if bump_marg else None,
        )


def _cell(x: Fraction | tuple[int, int] | None, digits: int) -> str:
    """A CSV cell: blank for None and for exact zero."""
    if x is None or (x[0] if isinstance(x, tuple) else x) == 0:
        return ""
    return to_decimal(x, digits)


def _rat(x: Fraction | tuple[int, int]) -> str:
    """x as the string "num/den" in lowest terms; a (numerator, denominator)
    pair is reduced here, with one gcd."""
    num, den = (x.numerator, x.denominator) if isinstance(x, Fraction) else x
    g = math.gcd(num, den)
    num, den = num // g, den // g
    try:
        return f"{num}/{den}"
    except ValueError:
        # Since 3.11 (and 3.10.7) str() refuses ints past 4300 digits, which a
        # variance denominator reaches near t = 5500.  Decimal has no such
        # limit, but it is slower, so it serves only here.
        return f"{Decimal(num)}/{Decimal(den)}"


def _json_value(x: Fraction | tuple[int, int] | None, digits: int) -> dict | None:
    if x is None:
        return None
    return {"exact": _rat(x), "decimal": to_decimal(x, digits)}


def dist_json(dist: JointDistribution, report: MomentsReport, digits: int) -> dict:
    p = dist.params
    rows = [
        {
            "n": n,
            "band": _json_value(band, digits),
            "bump": _json_value(bump, digits),
            "total": _json_value(total, digits),
            "band_conditional": _json_value(cond_band, digits),
            "bump_conditional": _json_value(cond_bump, digits),
        }
        for n, band, bump, total, cond_band, cond_bump in _dist_rows(dist)
    ]
    def outcome_block(oc):
        if oc.mean is None:
            return None
        return {
            "mean": _json_value(oc.mean, digits),
            "variance": _rat(oc.variance),
            "sd": sqrt_decimal(oc.variance, digits),
        }
    return {
        "params": {"m": p.m, "s": p.s, "l": p.l, "u": p.u, "t": p.t, "n_max": p.n_max},
        "digits": digits,
        "rows": rows,
        "band_marginal": _json_value(report.band.marginal, digits),
        "bump_marginal": _json_value(report.bump.marginal, digits),
        "mean_duration": {
            "overall": _json_value(report.mean, digits),
            "variance": _rat(report.variance),
            "sd": sqrt_decimal(report.variance, digits),
            "band": outcome_block(report.band),
            "bump": outcome_block(report.bump),
        },
    }


@main.command("dist")
@game_options
@click.option(
    "--digits", type=click.IntRange(1, _MAX_DIGITS), default=6, show_default=True,
    help="Significant figures.",
)
@click.option(
    "--format", "fmt", type=click.Choice(["csv", "json"]), default="csv", show_default=True
)
def cmd_dist(m: int, s: int, l: int, u: int, digits: int, fmt: str) -> None:
    """Print the joint stopping-draw/outcome table."""
    params = _parse_params(m, s, l, u)
    dist = joint_distribution(params)
    report = moments(dist)
    if fmt == "json":
        click.echo(json.dumps(dist_json(dist, report, digits), indent=2))
        return
    band, bump = report.band, report.bump
    writer = csv.writer(sys.stdout, lineterminator="\n")
    writer.writerow(("n", "P[N=n, band]", "P[N=n, bump]", "P[N=n]", "P[N=n | band]", "P[N=n | bump]"))
    writer.writerows((n, *(_cell(x, digits) for x in row)) for n, *row in _dist_rows(dist))
    writer.writerows(
        (
            ("Outcome probabilities", *(_cell(x.marginal, digits) for x in (band, bump)), "", "", ""),
            ("Mean duration", "", "", *(_cell(x, digits) for x in (report.mean, band.mean, bump.mean))),
            (
                "Standard deviation", "", "",
                *("" if x.variance is None else sqrt_decimal(x.variance, digits) for x in (report, band, bump)),
            ),
        )
    )


# ==================== verify ====================

# The Monte Carlo per-cell |z| bound never moves; a failing seed is re-pinned.
_Z_BOUND = 4.0


@main.command("verify")
@game_options
@click.option(
    "--mc-trials", type=click.IntRange(min=1), default=None, help="Monte Carlo deal count."
)
@click.option("--seed", type=int, default=0, show_default=True, help="Simulation seed.")
@click.option(
    "--oracle-cap",
    type=click.IntRange(min=0),
    default=16,
    show_default=True,
    help="Largest deck the exhaustive check will accept; 0 leaves Monte Carlo only.",
)
def cmd_verify(m: int, s: int, l: int, u: int, mc_trials: int | None, seed: int, oracle_cap: int) -> None:
    """Check the closed forms against independent recomputation."""
    params = _parse_params(m, s, l, u)
    exhaustive = params.t <= oracle_cap
    if not exhaustive and mc_trials is None:
        raise click.UsageError(
            f"deck size t={params.t} exceeds --oracle-cap {oracle_cap} and no --mc-trials "
            "were requested; nothing to verify"
        )
    dist = joint_distribution(params)
    failed = False
    if exhaustive:
        reference = exhaustive_distribution(params, cap=oracle_cap)
        if dist == reference:
            click.echo(f"exhaustive: exact match on {len(dist.numerators)} rows")
        else:
            failed = True
            click.echo("exhaustive: MISMATCH")
            lo = min(dist.first_n, reference.first_n)
            hi = max(dist.last_n, reference.last_n)
            for n in range(lo, hi + 1):
                fb, ob = dist.band_mass(n), reference.band_mass(n)
                fp, op = dist.bump_mass(n), reference.bump_mass(n)
                if fb != ob or fp != op:
                    click.echo(f"  n={n}: formula ({fb}, {fp}) vs exhaustive ({ob}, {op})")
    else:
        click.echo(f"exhaustive: skipped (t={params.t} exceeds cap {oracle_cap})")
    if mc_trials is not None:
        empirical = simulate(params, mc_trials, seed)
        report = compare(dist, empirical)
        scored = sum(1 for c in report.cells if c.scored)
        click.echo(
            f"monte carlo: max |z| = {report.max_abs_z:.3f} over {scored} scored cells "
            f"({mc_trials} trials, threshold {_Z_BOUND})"
        )
        if report.impossible:
            click.echo(f"monte carlo: {report.impossible} hits on cells of exact probability 0")
        if report.impossible or report.max_abs_z >= _Z_BOUND:
            failed = True
    sys.exit(1 if failed else 0)


# ==================== scan ====================


@main.command("scan")
@click.argument("kind", type=click.Choice(["nonvacuity", "bump-logconcavity"]))
@click.option("--m-max", type=int, default=8, show_default=True)
@click.option("--s-max", type=int, default=8, show_default=True)
@click.option(
    "--out",
    type=click.Path(dir_okay=False, writable=True),
    default=None,
    help="Write the JSON report here instead of stdout.",
)
def cmd_scan(kind: str, m_max: int, s_max: int, out: str | None) -> None:
    """Sweep a parameter grid for structural properties of the bump sum.

    nonvacuity failures falsify a proved property and exit 1;
    bump-logconcavity hits concern a conjecture only and still exit 0.
    An --out file that cannot be opened or written exits 2.
    """
    if m_max < 2 or s_max < 3:
        raise click.UsageError(
            f"the grid m <= {m_max}, s <= {s_max} has no cell with 0 < l < u < s; "
            "it needs --m-max >= 2 and --s-max >= 3"
        )
    m_range = (2, m_max)
    s_range = (2, s_max)
    # Open --out first, so an unwritable path fails before the scan runs.
    try:
        sink = contextlib.nullcontext() if out is None else open(out, "w", encoding="utf-8")
    except OSError as exc:
        raise _cannot_write(out, exc) from exc
    with sink as fh:
        if kind == "nonvacuity":
            report = nonvacuity_scan(m_range, s_range)
        else:
            report = bump_logconcavity_scan(m_range, s_range)
        noun = "counterexamples" if kind == "nonvacuity" else "findings"
        click.echo(
            f"{kind}: {report.cells} parameter cells, {report.checks} checks, "
            f"{len(report.findings)} {noun}"
        )
        doc = {"kind": kind, "m_range": m_range, "s_range": s_range, **report._asdict()}
        doc.update(findings=[f._asdict() for f in report.findings], ok=not report.findings)
        if fh is None:
            click.echo(json.dumps(doc, indent=2))
        else:
            try:  # closing flushes, so a full device may fail there too
                with fh:
                    click.echo(json.dumps(doc, indent=2), file=fh)
            except OSError as exc:
                raise _cannot_write(out, exc) from exc
    if kind == "nonvacuity" and report.findings:
        sys.exit(1)


# ==================== payoff ====================


@main.command("payoff")
@game_options
@click.option("--band", "band_pay", type=str, required=True, help="Payout on a band (exact decimal).")
@click.option("--bump", "bump_pay", type=str, required=True, help="Payout on a bump (exact decimal).")
@click.option(
    "--digits", type=click.IntRange(1, _MAX_DIGITS), default=6, show_default=True,
    help="Significant figures.",
)
def cmd_payoff(m: int, s: int, l: int, u: int, band_pay: str, bump_pay: str, digits: int) -> None:
    """Expected payoff of one deal under per-outcome stakes."""
    params = _parse_params(m, s, l, u)
    try:
        payoff = PayoffSpec.parse(band_pay, bump_pay)
    except ValueError as exc:
        raise click.UsageError(str(exc)) from exc
    ev = payoff_ev(joint_distribution(params), payoff)
    click.echo(f"expected payoff: {_rat(ev)} = {to_decimal(ev, digits)}")
