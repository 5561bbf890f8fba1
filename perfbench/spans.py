"""Span recorder for the traced run, and the per-layer metrics computed from its spans.

The recorder wraps the package's public functions where the calling module
looks them up (``cli.joint_distribution``, ``distribution.rect_count``, ...),
so the program itself carries no tracing code.  A span is
``[name, start_ns, end_ns, parent]`` with ``parent`` the index of the
enclosing span in the same op, or -1 for the op's root span ``cli``.
"""

from __future__ import annotations

import functools
import statistics
import time
from collections import Counter, defaultdict

ROOT = "cli"


class Recorder:
    """Spans and counters of one op, kept in memory until the op ends."""

    def __init__(self) -> None:
        self.spans: list[list] = []
        self._stack = [-1]
        self.counts: Counter[str] = Counter()
        self._rect_keys: set = set()
        self.max_den_bits = 0
        self.mc_max_abs_z = 0.0

    def wrap(self, name: str, fn, observe=None):
        """fn inside a span called name; observe(args, result) runs after the span closes."""
        spans, stack, clock = self.spans, self._stack, time.perf_counter_ns

        @functools.wraps(fn)
        def traced(*args, **kwargs):
            idx = len(spans)
            record = [name, clock(), 0, stack[-1]]
            spans.append(record)
            stack.append(idx)
            try:
                result = fn(*args, **kwargs)
            finally:
                stack.pop()
                record[2] = clock()
            if observe is not None:
                observe(args, result)
            return result

        return traced

    def count(self, name: str, fn):
        """fn with a call counter and no span."""
        counts = self.counts

        @functools.wraps(fn)
        def counted(*args, **kwargs):
            counts[name] += 1
            return fn(*args, **kwargs)

        return counted

    def _see_rect(self, args, result) -> None:
        spec, rect = args[0], args[1]
        key = (spec.draws, spec.rank_size, rect.lo, rect.hi)
        if key in self._rect_keys:
            self.counts["hypergeom.rect_repeats"] += 1
        else:
            self._rect_keys.add(key)

    def _see_joint(self, args, result) -> None:
        for _, band, bump in result.rows:
            bits = max(band.denominator.bit_length(), bump.denominator.bit_length())
            self.max_den_bits = max(self.max_den_bits, bits)

    def _see_dp(self, args, result) -> None:
        self.counts["oracle.dp_draws"] += max(args[0].n_max, 1)

    def _see_mc(self, args, result) -> None:
        self.counts["oracle.mc_deals"] += result.trials

    def _see_compare(self, args, result) -> None:
        self.mc_max_abs_z = max(self.mc_max_abs_z, result.max_abs_z)

    def install(self) -> None:
        """Replace the traced functions in the modules that call them; meant for a child process."""
        from bandorbump import analysis, cli, distribution, exactnum, hypergeom

        def patch(module, attr, name, observe=None):
            # Later versions may drop a function (the boundary routines, the
            # binomial helper); its metrics then read 0 instead of failing.
            if hasattr(module, attr):
                setattr(module, attr, self.wrap(name, getattr(module, attr), observe))

        patch(cli, "joint_distribution", "distribution.joint", self._see_joint)
        patch(cli, "moments", "analysis.moments")
        patch(cli, "exhaustive_distribution", "oracle.dp", self._see_dp)
        patch(cli, "simulate", "oracle.mc", self._see_mc)
        patch(cli, "compare", "oracle.compare", self._see_compare)
        patch(cli, "to_decimal", "exactnum.to_decimal")
        patch(cli, "nonvacuity_scan", "analysis.scan")
        patch(cli, "bump_logconcavity_scan", "analysis.scan")
        patch(analysis, "sqrt_decimal", "exactnum.sqrt_decimal")
        for module in (distribution, analysis):
            patch(module, "band_joint", "distribution.band_row")
            patch(module, "bump_joint", "distribution.bump_row")
            patch(module, "bump_summand", "distribution.bump_summand")
        patch(distribution, "coupon_band", "distribution.boundary")
        patch(distribution, "equal_quota", "distribution.boundary")
        patch(distribution, "rect_count", "hypergeom.rect", self._see_rect)
        patch(distribution, "rect_prob", "hypergeom.rect", self._see_rect)
        patch(distribution.JointDistribution, "matches", "distribution.matches")
        if hasattr(distribution, "point_prob"):
            distribution.point_prob = self.count("hypergeom.point_prob", distribution.point_prob)
        for module in (distribution, hypergeom, exactnum):
            if hasattr(module, "binomial"):
                module.binomial = self.count("exactnum.binomial", module.binomial)

    def payload(self) -> dict:
        return {
            "spans": self.spans,
            "counts": dict(self.counts),
            "max_den_bits": self.max_den_bits,
            "mc_max_abs_z": self.mc_max_abs_z,
        }


def self_times(spans: list[list]) -> list[int]:
    """Each span's duration minus the part of it that its child spans cover."""
    children: dict[int, list[tuple[int, int]]] = defaultdict(list)
    for name, start, end, parent in spans:
        if parent >= 0:
            children[parent].append((start, end))
    out = []
    for idx, (name, start, end, parent) in enumerate(spans):
        covered = 0
        reach = start
        for c_start, c_end in sorted(children.get(idx, ())):
            c_start, c_end = max(c_start, reach), min(c_end, end)
            if c_end > c_start:
                covered += c_end - c_start
                reach = c_end
        out.append(end - start - covered)
    return out


class PassTotals:
    """Per-span-name calls, total and self time, and counters, summed over the ops of one pass."""

    def __init__(self) -> None:
        self.calls: Counter[str] = Counter()
        self.total_ns: Counter[str] = Counter()
        self.self_ns: Counter[str] = Counter()
        self.counts: Counter[str] = Counter()
        self.max_den_bits = 0
        self.mc_max_abs_z = 0.0

    def add(self, payload: dict) -> None:
        spans = payload["spans"]
        for (name, start, end, _), own in zip(spans, self_times(spans)):
            self.calls[name] += 1
            self.total_ns[name] += end - start
            self.self_ns[name] += own
        self.counts.update(payload["counts"])
        self.max_den_bits = max(self.max_den_bits, payload["max_den_bits"])
        self.mc_max_abs_z = max(self.mc_max_abs_z, payload["mc_max_abs_z"])

    def self_shares(self) -> dict[str, float]:
        """Each span name's share of all self time in the pass."""
        whole = sum(self.self_ns.values()) or 1
        return {name: ns / whole for name, ns in self.self_ns.most_common()}

    def metrics(self) -> dict[str, tuple[float, str]]:
        """The per-layer metrics of the pass, as name -> (value, unit)."""
        ms = lambda c, name: c[name] / 1e6  # noqa: E731
        rect_calls = self.calls["hypergeom.rect"]
        dp_draws = self.counts["oracle.dp_draws"]
        mc_s = self.total_ns["oracle.mc"] / 1e9
        return {
            "cli.self_ms": (ms(self.self_ns, ROOT), "ms"),
            "analysis.moments_ms": (ms(self.total_ns, "analysis.moments"), "ms"),
            "analysis.moments_calls": (self.calls["analysis.moments"], "count"),
            "analysis.scan_self_ms": (ms(self.self_ns, "analysis.scan"), "ms"),
            "distribution.joint_self_ms": (ms(self.self_ns, "distribution.joint"), "ms"),
            "distribution.band_row_ms": (ms(self.total_ns, "distribution.band_row"), "ms"),
            "distribution.band_row_calls": (self.calls["distribution.band_row"], "count"),
            "distribution.bump_row_self_ms": (ms(self.self_ns, "distribution.bump_row"), "ms"),
            "distribution.bump_row_calls": (self.calls["distribution.bump_row"], "count"),
            "distribution.bump_summand_self_ms": (
                ms(self.self_ns, "distribution.bump_summand"), "ms"),
            "distribution.bump_summand_calls": (self.calls["distribution.bump_summand"], "count"),
            "distribution.boundary_ms": (ms(self.total_ns, "distribution.boundary"), "ms"),
            "distribution.boundary_calls": (self.calls["distribution.boundary"], "count"),
            "distribution.matches_ms": (ms(self.total_ns, "distribution.matches"), "ms"),
            "hypergeom.rect_ms": (ms(self.total_ns, "hypergeom.rect"), "ms"),
            "hypergeom.rect_calls": (rect_calls, "count"),
            "hypergeom.rect_repeat_ratio": (
                self.counts["hypergeom.rect_repeats"] / rect_calls if rect_calls else 0.0, "ratio"),
            "hypergeom.point_prob_calls": (self.counts["hypergeom.point_prob"], "count"),
            "exactnum.binomial_calls": (self.counts["exactnum.binomial"], "count"),
            "exactnum.to_decimal_ms": (ms(self.total_ns, "exactnum.to_decimal"), "ms"),
            "exactnum.to_decimal_calls": (self.calls["exactnum.to_decimal"], "count"),
            "exactnum.sqrt_decimal_ms": (ms(self.total_ns, "exactnum.sqrt_decimal"), "ms"),
            "exactnum.max_den_bits": (self.max_den_bits, "bits"),
            "oracle.dp_ms": (ms(self.total_ns, "oracle.dp"), "ms"),
            "oracle.dp_calls": (self.calls["oracle.dp"], "count"),
            "oracle.dp_ms_per_draw": (
                ms(self.total_ns, "oracle.dp") / dp_draws if dp_draws else 0.0, "ms/draw"),
            "oracle.mc_ms": (ms(self.total_ns, "oracle.mc"), "ms"),
            "oracle.mc_deals_per_s": (self.counts["oracle.mc_deals"] / mc_s if mc_s else 0.0, "1/s"),
            "oracle.compare_ms": (ms(self.total_ns, "oracle.compare"), "ms"),
            "oracle.mc_max_abs_z": (self.mc_max_abs_z, "z"),
        }


def median_metrics(passes: list[PassTotals]) -> dict[str, tuple[float, str]]:
    """Median of each per-layer metric over the traced passes."""
    per_pass = [p.metrics() for p in passes]
    return {
        name: (statistics.median(m[name][0] for m in per_pass), unit)
        for name, (_, unit) in per_pass[0].items()
    }
