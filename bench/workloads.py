"""Seeded inputs of the four benchmark workloads.

Each workload is a stream of rounds.  A round has a fixed composition (the
share of each request class never depends on the seed); the seed picks the
concrete cycles inside each class and the order of the round.  Runs measure
whole rounds only, so throughput and percentiles compare like with like
across seeds and commits.
"""

from __future__ import annotations

import math
import random
from dataclasses import dataclass
from typing import Iterator

import reference as ref

Cycle = tuple[int, ...]

# multiplicity-12 cusps whose length-12 duals bound no equivariant pair: the
# twelve rows of the paper's table and the thirteenth, (2,6,3,4,3,6), that the
# exhaustive scan adds
FAILING_12: tuple[tuple[Cycle, Cycle], ...] = (
    ((3, 10, 3, 4), (3, 3, 2, 2, 2, 2, 2, 2, 2, 3, 3, 2)),
    ((3, 8, 3, 6), (2, 3, 3, 2, 2, 2, 2, 2, 3, 3, 2, 2)),
    ((4, 8, 4, 4), (3, 2, 3, 2, 2, 2, 2, 2, 3, 2, 3, 2)),
    ((6, 4, 6, 4), (3, 2, 2, 2, 3, 2, 3, 2, 2, 2, 3, 2)),
    ((12, 3, 2, 3), (3, 2, 2, 2, 2, 2, 2, 2, 2, 2, 3, 4)),
    ((10, 4, 2, 4), (2, 3, 2, 2, 2, 2, 2, 2, 2, 3, 2, 4)),
    ((6, 2, 6, 6), (2, 2, 2, 3, 2, 2, 2, 3, 2, 2, 2, 4)),
    ((4, 7, 2, 7), (2, 2, 2, 2, 3, 2, 3, 2, 2, 2, 2, 4)),
    ((3, 3, 8, 3, 3, 4), (3, 3, 3, 2, 2, 2, 2, 2, 3, 3, 3, 2)),
    ((3, 3, 6, 3, 3, 6), (2, 3, 3, 3, 2, 2, 2, 3, 3, 3, 2, 2)),
    ((3, 3, 2, 3, 3, 10), (3, 3, 2, 2, 2, 2, 2, 2, 2, 3, 3, 4)),
    ((6, 3, 2, 3, 6, 4), (3, 2, 2, 2, 3, 2, 3, 2, 2, 2, 3, 4)),
    ((2, 6, 3, 4, 3, 6), (2, 2, 2, 3, 3, 2, 3, 3, 2, 2, 2, 4)),
)

# dual lengths of the seeded symmetric cusps in one smoothable round; the one
# length-20 and three length-18 requests are the top 10 % of the round, so
# the 95th latency percentile falls inside the length-18 class
SMOOTHABLE_DUAL_LENGTHS = (4, 4, 6, 6, 8, 8, 10, 10, 12, 12, 12, 14, 14, 14,
                           16, 16, 16, 18, 18, 18, 20)
ALL_TWO_LENGTHS = (8, 12, 16)
LONG_DUAL_CUSP = (3, 40, 3, 4)  # dual length 42
SMOOTHABLE_TORIC_LENGTHS = tuple(range(4, 21, 2))  # toric lengths set-up caches

INVARIANT_CUSP_LENGTHS = (4, 8, 12, 16, 20, 24, 28, 32, 36, 40)
INVARIANT_RAY_COUNTS = (4, 10, 16, 22, 28, 34, 40, 46, 52, 64)
INVARIANT_MAX_ENTRY = 50
RAY_COORD = 20

SCANS = {"scan-dense": (12, 10), "scan-reject": (14, 4)}


@dataclass(frozen=True)
class Smoothable:
    """One ``cuspsym smoothable`` request.

    ``kind`` names its class: symmetric, failing12, all2, nonsymmetric,
    mult2 or long (a valid symmetric cusp whose dual is longer than 30).
    """

    kind: str
    cycle: Cycle
    dual_given: bool = False

    def argv(self, cache_dir: str) -> list[str]:
        out = ["smoothable", "--cycle", ",".join(map(str, self.cycle)),
               "--format", "machine", "--cache-dir", cache_dir]
        return out + ["--dual-given"] if self.dual_given else out


@dataclass(frozen=True)
class Invariants:
    """One library-API request: a symmetric cusp and a primitive ray list."""

    cusp: Cycle
    rays: tuple[tuple[int, int], ...]


@dataclass(frozen=True)
class Scan:
    n: int
    max_entry: int

    def argv(self, cache_dir: str) -> list[str]:
        return ["scan", "--length", str(self.n), "--max-entry", str(self.max_entry),
                "--format", "machine", "--cache-dir", cache_dir]


def _relabel(rng: random.Random, c: Cycle) -> Cycle:
    """A random rotation, possibly reversed, so inputs are not axis-normal."""
    r = rng.randrange(len(c))
    w = c[r:] + c[:r]
    return w[::-1] if rng.random() < 0.5 else w


def symmetric_cusp(rng: random.Random, n: int, m: int) -> Cycle:
    """A symmetric cusp of even length n whose dual has even length m >= 2.

    In axis-normal form the excess over 2 is x0 + xh + 2 * sum(arm); the m/2
    units are split at random over the two fixed entries (two units each)
    and the arm.
    """
    parts = n // 2 + 1
    cuts = sorted(rng.choices(range(m // 2 + 1), k=parts - 1))
    split = [b - a for a, b in zip([0] + cuts, cuts + [m // 2])]
    f1, fh, arm = 2 + 2 * split[0], 2 + 2 * split[1], [2 + x for x in split[2:]]
    return _relabel(rng, (f1, *arm, fh, *reversed(arm)))


def nonsymmetric_cusp(rng: random.Random, n: int) -> Cycle:
    while True:
        c = tuple(rng.randint(2, 9) for _ in range(n))
        if max(c) >= 3 and not ref.reflections(c):
            return c


def random_symmetric_cusp(rng: random.Random, n: int, max_entry: int) -> Cycle:
    arm = [rng.randint(2, max_entry) for _ in range(n // 2 - 1)]
    f1 = 2 * rng.randint(2, max_entry // 2)  # >= 4, so the cusp is valid
    fh = 2 * rng.randint(1, max_entry // 2)
    return _relabel(rng, (f1, *arm, fh, *reversed(arm)))


def primitive_rays(rng: random.Random, count: int) -> tuple[tuple[int, int], ...]:
    rays = []
    while len(rays) < count:
        x, y = rng.randint(-RAY_COORD, RAY_COORD), rng.randint(-RAY_COORD, RAY_COORD)
        if math.gcd(x, y) == 1:
            rays.append((x, y))
    return tuple(rays)


def smoothable_round(rng: random.Random) -> list[Smoothable]:
    reqs = [Smoothable("symmetric", symmetric_cusp(rng, rng.choice((4, 6, 8, 10)), m))
            for m in SMOOTHABLE_DUAL_LENGTHS]
    reqs += [Smoothable("failing12", _relabel(rng, cusp)) for cusp, _ in FAILING_12]
    reqs += [Smoothable("all2", (2,) * m, dual_given=True) for m in ALL_TWO_LENGTHS]
    reqs += [Smoothable("nonsymmetric", nonsymmetric_cusp(rng, n))
             for n in (rng.choice((3, 5, 7)), rng.choice((4, 6, 8)))]
    reqs.append(Smoothable("mult2", symmetric_cusp(rng, rng.choice((4, 6, 8)), 2)))
    reqs.append(Smoothable("long", _relabel(rng, LONG_DUAL_CUSP)))
    reqs.append(Smoothable("long", symmetric_cusp(rng, rng.choice((4, 6, 8)),
                                                  rng.choice(range(32, 41, 2)))))
    rng.shuffle(reqs)
    return reqs


def invariants_round(rng: random.Random) -> list[Invariants]:
    counts = list(INVARIANT_RAY_COUNTS)
    rng.shuffle(counts)
    reqs = [Invariants(random_symmetric_cusp(rng, n, INVARIANT_MAX_ENTRY),
                       primitive_rays(rng, k))
            for n, k in zip(INVARIANT_CUSP_LENGTHS, counts)]
    rng.shuffle(reqs)
    return reqs


def rounds(workload: str, seed: int) -> Iterator[list]:
    """The workload's endless, seed-determined stream of rounds."""
    rng = random.Random(f"{workload}:{seed}")
    while True:
        if workload == "smoothable":
            yield smoothable_round(rng)
        elif workload == "invariants":
            yield invariants_round(rng)
        else:
            yield [Scan(*SCANS[workload])]


def toric_lengths(workload: str) -> tuple[int, ...]:
    """Toric model lengths whose cache set-up fills for the workload."""
    if workload == "smoothable":
        return SMOOTHABLE_TORIC_LENGTHS
    if workload in SCANS:
        return (SCANS[workload][0],)
    return ()
