"""Command line front end.

Exit codes: 0 success, 1 verification failure or falsified scan property,
2 usage error (including invalid game parameters) or an output that cannot
be written.  `_checked` alone turns a rejected deck or stake into a usage
error.  Every output, --help pages included, goes through `_write`, the one
place a failed write becomes exit 2; any other OSError surfaces as itself.
`dist` hands `_write` its table as it renders it, one row per chunk, and
every streamed chunk passes the same guard.  Every option, --help included,
is built once, at import, so a command run builds none; a command lists its
parameters without click's per-call duplicate-option scan, which the tests
run once instead (tests/test_cli.py, TestParameterLists).
"""

from __future__ import annotations

import contextlib
import csv
import io
import json
import math
import os
import re
import sys
import types
from collections.abc import Iterable
from decimal import Decimal
from fractions import Fraction

import click

from .analysis import (
    MomentsReport,
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

# Fraction("1e-400000") builds 10**400000 and payoff prints every digit of the
# exact value, so stakes are refused past this exponent; so is any run of more
# than 4 300 digits, which int() refuses to read.
_MAX_STAKE_EXPONENT = 10_000
_EXPONENT = re.compile(r"[eE][-+]?(\d+)")
_LONG_RUN = re.compile(r"(?<!\d)\d{4301}")  # tried only where a run starts, so linear in the text


def _checked(make, *args):
    """make(*args), with the ValueError of a rejected input raised as a usage error (exit 2)."""
    try:
        return make(*args)
    except ValueError as exc:
        raise click.UsageError(str(exc)) from exc


def game_options(fn):
    fn = click.option("-u", type=int, required=True, help="Upper tally cap.")(fn)
    fn = click.option("-l", type=int, required=True, help="Lower tally quota.")(fn)
    fn = click.option("-s", type=int, required=True, help="Cards per rank.")(fn)
    fn = click.option("-m", type=int, required=True, help="Number of ranks.")(fn)
    return fn


digits_option = click.option(
    "--digits", type=click.IntRange(1, _MAX_DIGITS), default=6, show_default=True,
    help="Significant figures.",
)


def _show_help(ctx: click.Context, param: click.Parameter, value: bool) -> None:
    """click's --help callback, writing the page through `_write`."""
    if value and not ctx.resilient_parsing:
        _write(ctx.get_help())
        ctx.exit()


# The --help of the group and of every command.  click would build one per
# command on its first run in each process (a decorator, a gettext lookup of
# the help text and cold isinstance checks), 0.4-0.7 ms of a cold command.
_help_option = click.Option(
    ["--help"], is_flag=True, expose_value=False, is_eager=True,
    help="Show this message and exit.", callback=_show_help,
)


class _Command(click.Command):
    """A command whose short options also match on the long-option lookup.

    click's parser tries every option token as a long option first. A miss
    builds a `NoSuchOption`, whose "did you mean" suggestions import
    `difflib` (several ms, most of a small command's cold cost), before it
    falls back to the short options. Registering `-m`, `-s`, `-l` and `-u`
    in the long table makes them match at once; it also reads `-m=13` as
    `-m 13`.  Its --help is `_help_option`, built at import, so its page is
    written through `_write` too.  Its parameter list is click's own, the
    decorators' parameters and then --help, without the duplicate-option scan
    click repeats on each of several calls per run (an import of warnings and
    a Counter of every option string); the tests make that check once.
    """

    def make_parser(self, ctx: click.Context):
        parser = super().make_parser(ctx)
        parser._long_opt.update(parser._short_opt)
        return parser

    def get_help_option(self, ctx: click.Context) -> click.Option:
        return _help_option

    def get_params(self, ctx: click.Context) -> list[click.Parameter]:
        return [*self.params, _help_option]


class _Group(_Command, click.Group):
    """The command group, whose help page is written as its commands' are."""

    command_class = _Command


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


def _write(text: str | Iterable[str], out: io.TextIOWrapper | None = None) -> None:
    """Write text and a newline to stdout, or to out, which is then closed.

    text is one string or an iterable of chunks, such as a table's rows,
    each written as soon as it is rendered, so a streamed table never sits
    whole in memory.  A failed write of any chunk exits 2 through
    `_cannot_write`; rendering raises no OSError, so none is mistaken for
    one.  stdout is flushed once, after the last chunk, so a full stdout
    fails here, not at exit with code 120; a failed flush of out leaves its
    bytes for close() to retry, so the close is guarded too.  A broken pipe
    is left to click, which exits 1 silently.
    """
    stream = sys.stdout if out is None else out
    try:
        with contextlib.nullcontext() if out is None else out:
            for chunk in (text,) if isinstance(text, str) else text:
                stream.write(chunk)
            stream.write("\n")
            stream.flush()
    except BrokenPipeError:
        raise
    except OSError as exc:
        if out is None:
            _drop_stdout()
        raise _cannot_write("stdout" if out is None else out.name, exc) from exc


@click.group(cls=_Group)
def main() -> None:
    """Exact stopping-time and outcome distributions for band-or-bump deals."""


# ==================== dist ====================


def _dist_rows(dist: JointDistribution):
    """(n, band, bump, total, band | band, bump | bump) for every draw from the first with mass.

    Each value is an unreduced (numerator, denominator) pair; a conditional
    is None when its outcome has no mass.
    """
    d = dist.denominator
    band_marg, bump_marg = sum(dist.band), sum(dist.bump)
    for n in range(dist.first_n, len(dist.band)):
        band, bump = dist.band[n], dist.bump[n]
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
    num, den = x if isinstance(x, tuple) else (x.numerator, x.denominator)
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


def _json_table(dist: JointDistribution, report: MomentsReport, digits: int):
    """The JSON document of `dist --format json`, in chunks of one row each.

    The bytes are those of json.dumps(doc, indent=2) on the whole document:
    the document without its rows is encoded once and cut where its empty
    "rows" list stands; a row and a value block of placeholders, encoded with
    the same settings and indented by the levels they sit at, are filled in.
    """
    p = dist.params

    def outcome_block(oc):
        if oc.mean is None:
            return None
        return {
            "mean": _json_value(oc.mean, digits),
            "variance": _rat(oc.variance),
            "sd": sqrt_decimal(oc.variance, digits),
        }

    frame = {
        "params": {"m": p.m, "s": p.s, "l": p.l, "u": p.u, "t": p.t, "n_max": p.n_max},
        "digits": digits,
        "rows": [],
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
    head, _, tail = json.dumps(frame, indent=2).partition('"rows": []')
    yield head + '"rows": ['

    def template(doc: dict, indent: str) -> str:
        """doc encoded and indented by indent, with a %s slot wherever the placeholder "\\0" stood."""
        return "%s".join(json.dumps(doc, indent=2).replace("\n", "\n" + indent).split('"\\u0000"'))

    keys = ("n", "band", "bump", "total", "band_conditional", "bump_conditional")
    row, block = template(dict.fromkeys(keys, "\0"), "    "), template({"exact": "\0", "decimal": "\0"}, "      ")
    quote = json.encoder.encode_basestring_ascii  # the escaper of json.dumps
    separator = "\n    "
    for n, *cells in _dist_rows(dist):
        values = ("null" if x is None else block % (quote(_rat(x)), quote(to_decimal(x, digits))) for x in cells)
        yield separator + row % (n, *values)
        separator = ",\n    "
    yield "\n  ]" + tail  # never "[]": a law has a row at its first draw with mass


def _csv_table(dist: JointDistribution, report: MomentsReport, digits: int):
    """The CSV table of `dist`, one line per chunk, without the last line's newline."""
    # writerow returns what its file's write returns, so with str as that
    # write it hands back the line it rendered.
    line = csv.writer(types.SimpleNamespace(write=str), lineterminator="\n").writerow
    band, bump = report.band, report.bump
    yield line(("n", "P[N=n, band]", "P[N=n, bump]", "P[N=n]", "P[N=n | band]", "P[N=n | bump]"))
    for n, *row in _dist_rows(dist):
        yield line((n, *(_cell(x, digits) for x in row)))
    yield line(("Outcome probabilities", *(_cell(x.marginal, digits) for x in (band, bump)), "", "", ""))
    yield line(("Mean duration", "", "", *(_cell(x, digits) for x in (report.mean, band.mean, bump.mean))))
    yield line(
        (
            "Standard deviation", "", "",
            *("" if x.variance is None else sqrt_decimal(x.variance, digits) for x in (report, band, bump)),
        )
    ).removesuffix("\n")


@main.command("dist")
@game_options
@digits_option
@click.option(
    "--format", "fmt", type=click.Choice(["csv", "json"]), default="csv", show_default=True
)
def cmd_dist(m: int, s: int, l: int, u: int, digits: int, fmt: str) -> None:
    """Print the joint stopping-draw/outcome table."""
    params = _checked(GameParams, m, s, l, u)
    dist = joint_distribution(params)
    report = moments(dist)
    _write((_json_table if fmt == "json" else _csv_table)(dist, report, digits))


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
    params = _checked(GameParams, m, s, l, u)
    exhaustive = params.t <= oracle_cap
    if not exhaustive and mc_trials is None:
        raise click.UsageError(
            f"deck size t={params.t} exceeds --oracle-cap {oracle_cap} and no --mc-trials "
            "were requested; nothing to verify"
        )
    dist = joint_distribution(params)
    failed = False
    if exhaustive:
        reference = exhaustive_distribution(params)
        if dist == reference:
            _write(f"exhaustive: exact match on {params.n_max + 1 - dist.first_n} rows")
        else:
            failed = True
            _write("exhaustive: MISMATCH")
            for n, cells in enumerate(zip(dist.band, dist.bump, reference.band, reference.bump)):
                if cells[:2] != cells[2:]:
                    fb, fp, ob, op = (Fraction(cell, dist.denominator) for cell in cells)
                    _write(f"  n={n}: formula ({fb}, {fp}) vs exhaustive ({ob}, {op})")
    else:
        _write(f"exhaustive: skipped (t={params.t} exceeds cap {oracle_cap})")
    if mc_trials is not None:
        empirical = simulate(params, mc_trials, seed)
        report = compare(dist, empirical)
        _write(
            f"monte carlo: max |z| = {report.max_abs_z:.3f} over {report.scored} scored cells "
            f"({mc_trials} trials, threshold {_Z_BOUND})"
        )
        if report.impossible:
            _write(f"monte carlo: {report.impossible} hits on cells of exact probability 0")
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
    type=click.Path(),
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
        fh = None if out is None else open(out, "w", encoding="utf-8")
    except OSError as exc:
        raise _cannot_write(out, exc) from exc
    if kind == "nonvacuity":
        report = nonvacuity_scan(m_range, s_range)
    else:
        report = bump_logconcavity_scan(m_range, s_range)
    noun = "counterexamples" if kind == "nonvacuity" else "findings"
    doc = {"kind": kind, "m_range": m_range, "s_range": s_range, **report._asdict()}
    doc.update(findings=[f._asdict() for f in report.findings], ok=not report.findings)
    text = json.dumps(doc, indent=2)
    try:
        _write(
            f"{kind}: {report.cells} parameter cells, {report.checks} checks, "
            f"{len(report.findings)} {noun}"
        )
    finally:
        # A stdout that cannot be written still leaves the whole report in --out.
        if fh is not None:
            _write(text, fh)
    if fh is None:
        _write(text)
    if kind == "nonvacuity" and report.findings:
        sys.exit(1)


# ==================== payoff ====================


def _stake(text: str) -> Fraction:
    """A decimal stake ("-3", "0.25") read exactly, with no binary rounding."""
    plain = text.replace("_", "")
    if _LONG_RUN.search(plain):  # int() refuses it, even when leading zeros keep it small
        raise ValueError(f"payoff stake {text!r} has a number of more than 4300 digits")
    exponent = _EXPONENT.search(plain)
    if exponent and int(exponent[1]) > _MAX_STAKE_EXPONENT:
        raise ValueError(f"payoff stake {text!r} has an exponent beyond {_MAX_STAKE_EXPONENT}")
    try:
        return Fraction(text)
    except (ValueError, ZeroDivisionError) as exc:
        raise ValueError(f"unparseable payoff: {exc}") from exc


@main.command("payoff")
@game_options
@click.option("--band", "band_pay", type=str, required=True, help="Payout on a band (exact decimal).")
@click.option("--bump", "bump_pay", type=str, required=True, help="Payout on a bump (exact decimal).")
@digits_option
def cmd_payoff(m: int, s: int, l: int, u: int, band_pay: str, bump_pay: str, digits: int) -> None:
    """Expected payoff of one deal under per-outcome stakes."""
    params = _checked(GameParams, m, s, l, u)
    band, bump = _checked(_stake, band_pay), _checked(_stake, bump_pay)
    ev = payoff_ev(joint_distribution(params), band, bump)
    _write(f"expected payoff: {_rat(ev)} = {to_decimal(ev, digits)}")
