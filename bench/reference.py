"""Independent reference answers for the benchmark's correctness gate.

Nothing here imports cuspsym: the dual transformation, the reflection
search, the equivariant toric models and the domination test are written
again from their definitions, so that a fault in the library cannot make its
own answers look right.  Cycles are plain tuples of ints (negated
self-intersections); a symmetric cycle is held in axis-normal form, read from
one fixed component, so that ``v[i] == v[-i]`` and the other fixed component
sits at ``n // 2``.
"""

from __future__ import annotations

import math
from typing import Sequence

Cycle = tuple[int, ...]


def _least_rotation(e: Cycle) -> Cycle:
    """Lexicographically least rotation, by Booth's algorithm in O(n)."""
    s = e + e
    fail = [-1] * len(s)
    k = 0
    for j in range(1, len(s)):
        i = fail[j - k - 1]
        while i != -1 and s[j] != s[k + i + 1]:
            if s[j] < s[k + i + 1]:
                k = j - i - 1
            i = fail[i]
        if s[j] != s[k + i + 1]:
            if s[j] < s[k]:
                k = j
            fail[j - k] = -1
        else:
            fail[j - k] = i + 1
    return s[k : k + len(e)]


def canonical(c: Sequence[int]) -> Cycle:
    """Least rotation or reversal of the cyclic word.  Linear time, so the
    check of a 2000-letter dual costs less than computing it."""
    e = tuple(c)
    return min(_least_rotation(e), _least_rotation(e[::-1]))


def neg_e2(c: Cycle) -> int:
    """-E^2 of a cusp cycle of length >= 2: the length of its dual."""
    return sum(c) - 2 * len(c)


def cusp_dual(c: Cycle) -> Cycle:
    """Dual of a cusp of length >= 2 that is not (3, 2, ..., 2).

    Reading the cycle as runs (a_k, 2^b_k) with a_k >= 3, the dual is the
    cycle of runs (b_k + 3, 2^(a_{k+1} - 3)).
    """
    start = next(i for i, v in enumerate(c) if v >= 3)
    w = c[start:] + c[:start]
    runs: list[list[int]] = []
    for v in w:
        if v >= 3:
            runs.append([v, 0])
        else:
            runs[-1][1] += 1
    out: list[int] = []
    for k, (_, b) in enumerate(runs):
        out.append(b + 3)
        out.extend([2] * (runs[(k + 1) % len(runs)][0] - 3))
    return tuple(out)


def reflections(c: Cycle) -> list[int]:
    """Doubled-axis integers s of the reflections i -> s - i that fix two
    components carrying even entries and map the cycle to itself."""
    return [s for s in range(0, len(c), 2) if is_axis(c, s)]


def is_axis(c: Cycle, s: int) -> bool:
    """Whether s is one of ``reflections(c)``; linear time."""
    n = len(c)
    return (n % 2 == 0 and s % 2 == 0 and 0 <= s < n and c[s // 2] % 2 == 0
            and c[s // 2 + n // 2] % 2 == 0 and all(c[i] == c[(s - i) % n] for i in range(n)))


def axis_normal(c: Cycle, s: int) -> Cycle:
    """The labeling of ``c`` that starts at the first component fixed by s."""
    f = (s // 2) % len(c)
    return c[f:] + c[:f]


def _other_fixed(v: Cycle) -> Cycle:
    h = len(v) // 2
    return v[h:] + v[:h]


def toric_patterns(max_n: int) -> dict[int, frozenset[Cycle]]:
    """Axis-normal labelings of every equivariant toric pair cycle.

    Starts from (0, 0, 0, 0) and applies mirrored corner blowups: at a node
    and at its mirror node, insert a 1 and raise both neighbours.  Both
    axis-normal labelings of each pair are kept, so a target is dominated by
    some model exactly when its own axis-normal labeling dominates a pattern.
    """
    levels = {4: frozenset({(0, 0, 0, 0)})}
    for n in range(4, max_n, 2):
        nxt: set[Cycle] = set()
        for v in levels[n]:
            for i in range(n // 2):
                j = n - 1 - i  # the node mirrored to node i
                w = list(v)
                for node in (i, j):
                    w[node] += 1
                    w[(node + 1) % n] += 1
                u = tuple(w[: i + 1] + [1] + w[i + 1 : j + 1] + [1] + w[j + 1 :])
                nxt.add(u)
                nxt.add(_other_fixed(u))
        levels[n + 2] = frozenset(nxt)
    return levels


def toric_class_count(patterns: frozenset[Cycle]) -> int:
    """Number of toric pairs up to relabeling, from their patterns."""
    return len({min(v, _other_fixed(v)) for v in patterns})


def bounds_pair(target: Cycle, s: int, patterns: dict[int, frozenset[Cycle]]) -> bool:
    """Whether the boundary cycle with reflection s dominates a toric model.

    Entries at fixed components are even on both sides, so the parity
    condition on the excess always holds.  A target whose charge
    12 + sum - 3n is negative dominates nothing, whatever its length.
    """
    n = len(target)
    if 12 + sum(target) - 3 * n < 0:
        return False
    t = axis_normal(target, s)
    return any(all(x >= y for x, y in zip(t, p)) for p in patterns[n])


def trace_of_cycle(c: Cycle) -> int:
    """Trace of the product of the companion matrices [[0, -1], [1, e]]."""
    a, b, cc, d = 1, 0, 0, 1
    for e in c:
        a, b, cc, d = b, -a + e * b, d, -cc + e * d
    return a + d


def pi1_shape(rays: Sequence[tuple[int, int]]) -> tuple[int, tuple[int, ...]]:
    """(free rank, invariant factors) of Z^2 modulo the span of the rays.

    For primitive rays the first determinantal divisor is 1 and the second is
    the gcd g of the 2x2 minors: the quotient is Z when every minor vanishes,
    otherwise Z/g (trivial when g = 1).
    """
    g = 0
    for i, (x1, y1) in enumerate(rays):
        for x2, y2 in rays[i + 1 :]:
            g = math.gcd(g, x1 * y2 - x2 * y1)
    if g == 0:
        return 1, ()
    return 0, (g,) if g > 1 else ()
