"""Operation lists for the benchmark workloads, and the pinned outputs they are checked against.

An operation (op) is the argument list of one ``bandorbump`` command.  This
module imports nothing from the package, so building an op list costs the
same whatever the engine does.
"""

from __future__ import annotations

import json
import random
from pathlib import Path

PINS_PATH = Path(__file__).resolve().parent / "pins.json"

# Monte Carlo seeds whose `verify` output is pinned.  A workload seed picks
# from this pool, because a pin is a digest of the printed max |z|, which
# depends on the simulation seed.
MC_SEEDS = tuple(range(16))
MC_TRIALS = 30000

WORKLOADS = ("ladder", "oracles", "grid")


def _game(m: int, s: int, l: int, u: int) -> list[str]:
    return ["-m", str(m), "-s", str(s), "-l", str(l), "-u", str(u)]


def ladder_ops() -> list[tuple[str, ...]]:
    """Cold `dist`/`payoff` on growing decks; no oracle runs."""
    decks = [(13, 4, 1, 3), (4, 13, 5, 8), (26, 4, 1, 3), (8, 13, 5, 8), (13, 8, 2, 6),
             (8, 50, 20, 30)]
    ops = [tuple(["dist", *_game(*d)]) for d in decks]
    ops.append(tuple(["dist", *_game(4, 100, 40, 60), "--format", "json", "--digits", "20"]))
    ops.append(tuple(["payoff", *_game(13, 4, 1, 3), "--band", "-3", "--bump", "2"]))
    return ops


def oracle_ops(mc_seeds: tuple[int, int]) -> list[tuple[str, ...]]:
    """Cold `verify` with the exact DP at a cap equal to the deck size, two with Monte Carlo too."""
    ops = [tuple(["verify", *_game(m, s, l, u), "--oracle-cap", str(m * s)])
           for m, s, l, u in [(8, 8, 3, 6), (6, 13, 5, 8), (10, 8, 3, 6), (13, 8, 2, 6)]]
    for (m, s, l, u), seed in zip([(13, 4, 1, 3), (4, 13, 5, 8)], mc_seeds):
        ops.append(tuple(["verify", *_game(m, s, l, u), "--oracle-cap", str(m * s),
                          "--mc-trials", str(MC_TRIALS), "--seed", str(seed)]))
    return ops


def small_decks(limit: int = 12):
    """Every (m, s, l, u) with deck size m * s <= limit, every degenerate window included."""
    for m in range(1, limit + 1):
        for s in range(1, limit // m + 1):
            for u in range(0, s + 1):
                for l in range(0, u + 1):
                    yield m, s, l, u


def grid_ops() -> list[tuple[str, ...]]:
    """Cold `verify` at the default cap on every deck of at most 12 cards, plus two scans."""
    ops = [tuple(["verify", *_game(*d)]) for d in small_decks()]
    for kind in ("nonvacuity", "bump-logconcavity"):
        ops.append(("scan", kind, "--m-max", "8", "--s-max", "8"))
    return ops


def build(workload: str, seed: int) -> list[tuple[str, ...]]:
    """The op list of one pass; the seed fixes the Monte Carlo seeds and the op order."""
    rng = random.Random(seed)
    if workload == "ladder":
        ops = ladder_ops()
    elif workload == "oracles":
        ops = oracle_ops((rng.choice(MC_SEEDS), rng.choice(MC_SEEDS)))
    elif workload == "grid":
        ops = grid_ops()
    else:
        raise ValueError(f"unknown workload {workload!r}")
    rng.shuffle(ops)
    return ops


def every_pinned_op() -> list[tuple[str, ...]]:
    """All ops any workload seed can produce."""
    ops = ladder_ops() + grid_ops()
    for seed in MC_SEEDS:
        ops += [op for op in oracle_ops((seed, seed)) if op not in ops]
    return ops


def pin_key(op: tuple[str, ...]) -> str:
    return " ".join(op)


def load_pins() -> dict[str, dict]:
    """Map from pin_key(op) to {"exit": code, "sha256": stdout digest}."""
    with open(PINS_PATH, encoding="utf-8") as fh:
        return json.load(fh)
