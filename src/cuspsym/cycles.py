"""Cyclic integer words: validation, duality, and dihedral symmetry.

The entries of a word are the negated self-intersections (e_1, ..., e_n) of a
cycle of rational curves.  Words are cyclic objects: every operation is
invariant under rotation, and two words are considered equal when one is a
rotation or a reversal of the other.  The canonical form of a word is the
lexicographically least representative of its dihedral orbit.
"""

from __future__ import annotations

from dataclasses import dataclass
from typing import Iterator

__all__ = [
    "CycleWord",
    "Reflection",
    "SymmetricStructure",
    "RunDecomposition",
    "QuotientGraph",
    "CuspValidation",
    "InvalidCuspError",
    "canonicalize",
    "dihedral_relabelings",
    "validate_cusp",
    "require_valid_cusp",
    "neg_self_intersection",
    "multiplicity",
    "run_decompose",
    "dual",
    "find_reflections",
    "induced_dual_reflection",
    "quotient_resolution_graph",
]


class InvalidCuspError(ValueError):
    """The given cycle word is not a valid cusp cycle."""


@dataclass(frozen=True)
class CycleWord:
    """A cyclic word of integers, indexed mod its length."""

    entries: tuple[int, ...]

    def __post_init__(self) -> None:
        entries = tuple(int(e) for e in self.entries)
        if not entries:
            raise ValueError("cycle word must have length >= 1")
        object.__setattr__(self, "entries", entries)

    @classmethod
    def of(cls, *entries: int) -> "CycleWord":
        return cls(tuple(entries))

    def __len__(self) -> int:
        return len(self.entries)

    def __getitem__(self, i: int) -> int:
        return self.entries[i % len(self.entries)]

    def __iter__(self):
        return iter(self.entries)

    def rotated(self, r: int) -> "CycleWord":
        """The word read from position r: new[i] = old[i + r]."""
        n = len(self.entries)
        r %= n
        return CycleWord(self.entries[r:] + self.entries[:r])

    def reflected(self) -> "CycleWord":
        """Reversal about position 0: new[i] = old[-i]."""
        e = self.entries
        return CycleWord((e[0],) + e[:0:-1])

    def __str__(self) -> str:
        return "(" + ",".join(str(e) for e in self.entries) + ")"


def dihedral_relabelings(items: tuple, axis: int = 0) -> Iterator[tuple[tuple, int]]:
    """The 2n relabelings of a cyclic sequence with the doubled axis carried along.

    Yields ``(word, axis')`` for each rotation by r, followed by its reversal
    about position 0; ``axis'`` is the image of the reflection i -> axis - i.
    """
    n = len(items)
    for r in range(n):
        w = items[r:] + items[:r]
        s = (axis - 2 * r) % n
        yield w, s
        yield (w[0],) + w[:0:-1], -s % n


def dihedral_orbit(c: CycleWord) -> list[tuple[int, ...]]:
    """All 2n entry tuples obtained by rotating and reversing ``c``."""
    return [w for w, _ in dihedral_relabelings(c.entries)]


def canonicalize(c: CycleWord) -> CycleWord:
    """Lexicographically least representative of the dihedral orbit of ``c``."""
    return CycleWord(min(dihedral_orbit(c)))


@dataclass(frozen=True)
class CuspValidation:
    """Outcome of the cusp-cycle check, with one message per failed condition."""

    ok: bool
    failures: tuple[str, ...]


def validate_cusp(c: CycleWord) -> CuspValidation:
    """Check the cusp-cycle conditions.

    A word is a valid cusp cycle when either n >= 2, every entry is >= 2 and
    some entry is >= 3, or n = 1 and the single entry is >= 1.
    """
    e = c.entries
    failures: list[str] = []
    if len(e) == 1:
        if e[0] < 1:
            failures.append("condition iii: single entry must be >= 1")
    else:
        bad = [i for i, v in enumerate(e) if v < 2]
        if bad:
            failures.append(
                "condition i: entries at positions %s are < 2" % ",".join(map(str, bad))
            )
        if all(v < 3 for v in e):
            failures.append("condition ii: no entry >= 3")
    return CuspValidation(not failures, tuple(failures))


def require_valid_cusp(c: CycleWord) -> None:
    report = validate_cusp(c)
    if not report.ok:
        raise InvalidCuspError(f"{c} is not a cusp cycle: " + "; ".join(report.failures))


def neg_self_intersection(c: CycleWord) -> int:
    """-E^2 of the cycle: sum(e_i) - 2n for n >= 2, e_1 for n = 1.

    Equals the length of the dual cycle.
    """
    require_valid_cusp(c)
    if len(c) == 1:
        return c.entries[0]
    return sum(c.entries) - 2 * len(c)


def multiplicity(c: CycleWord) -> int:
    """max(2, -E^2)."""
    return max(2, neg_self_intersection(c))


@dataclass(frozen=True)
class RunDecomposition:
    """The word read as (a_1, 2^{b_1}, ..., a_l, 2^{b_l}) with every a_k >= 3.

    ``offset`` is the rotation applied before parsing, so the runs describe
    ``cycle.rotated(offset)``.
    """

    runs: tuple[tuple[int, int], ...]
    offset: int

    def reassemble(self) -> CycleWord:
        out: list[int] = []
        for a, b in self.runs:
            out.append(a)
            out.extend([2] * b)
        return CycleWord(tuple(out))


def run_decompose(c: CycleWord) -> RunDecomposition:
    """Split the word into maximal runs anchored at entries >= 3."""
    e = c.entries
    if any(v < 2 for v in e):
        raise ValueError(f"{c} has entries < 2; run decomposition undefined")
    anchors = [i for i, v in enumerate(e) if v >= 3]
    if not anchors:
        raise ValueError(f"{c} is an all-2 cycle; no anchor entry for runs")
    off = anchors[0]
    w = c.rotated(off).entries
    runs: list[tuple[int, int]] = []
    i, n = 0, len(w)
    while i < n:
        j = i + 1
        while j < n and w[j] == 2:
            j += 1
        runs.append((w[i], j - i - 1))
        i = j
    return RunDecomposition(tuple(runs), off)


def _dual_construction(c: CycleWord):
    """Construction-order dual word with run-position bookkeeping.

    Returns (rd, anchor_pos, b_pos, a_start, out) where out is the dual word,
    b_pos[k] is the index of the entry b_k + 3, a_start[k] the start of the
    block of (a_k - 3) twos spawned by the anchor a_k, and anchor_pos[k] the
    index of a_k in c.rotated(rd.offset).
    """
    rd = run_decompose(c)
    runs = rd.runs
    l = len(runs)
    anchor_pos = []
    p = 0
    for a, b in runs:
        anchor_pos.append(p)
        p += 1 + b
    out: list[int] = []
    b_pos = [0] * l
    a_start = [0] * l
    for k in range(l):
        b_pos[k] = len(out)
        out.append(runs[k][1] + 3)
        nxt = (k + 1) % l
        a_start[nxt] = len(out)
        out.extend([2] * (runs[nxt][0] - 3))
    return rd, anchor_pos, b_pos, a_start, out


def dual(c: CycleWord) -> CycleWord:
    """The dual cusp cycle, in canonical form.

    The special shapes (1), (e) and (3, 2, ..., 2) are handled before the
    general run transformation, which is wrong exactly for those words.
    """
    require_valid_cusp(c)
    n = len(c)
    if n == 1:
        e = c.entries[0]
        if e == 1:
            return CycleWord((1,))
        return canonicalize(CycleWord((3,) + (2,) * (e - 1)))
    big = [v for v in c.entries if v != 2]
    if big == [3]:
        # the cycle is (3, 2^{n-1}) up to rotation
        return CycleWord((n,))
    _, _, _, _, out = _dual_construction(c)
    return canonicalize(CycleWord(tuple(out)))


@dataclass(frozen=True)
class Reflection:
    """A vertex-type reflection i -> (axis - i) mod n on an even cycle.

    The axis is the doubled-axis integer; it is stored reduced mod n (the
    values s and s + n induce the same map).  Odd axes would fix a node
    rather than two components and are never constructed.
    """

    axis: int
    n: int

    def __post_init__(self) -> None:
        if self.n < 2 or self.n % 2:
            raise ValueError("reflections need an even cycle length >= 2")
        if self.axis % 2:
            raise ValueError("edge-type reflection (odd axis) not supported")
        object.__setattr__(self, "axis", self.axis % self.n)

    def apply(self, i: int) -> int:
        return (self.axis - i) % self.n

    @property
    def fixed(self) -> tuple[int, int]:
        h = self.axis // 2
        return (h, h + self.n // 2)

    def __str__(self) -> str:
        return f"axis {self.axis} (fixes {self.fixed[0]},{self.fixed[1]})"


def _symmetric_about(e: tuple[int, ...], s: int) -> bool:
    """Whether e[i] == e[(s - i) % n] for every i, checked by slicing."""
    rev = e[::-1]
    k = (len(e) - 1 - s) % len(e)
    return rev[k:] + rev[:k] == e


@dataclass(frozen=True)
class SymmetricStructure:
    """A cycle word together with a reflection making it symmetric; as
    ``pairs.PairCycle`` it is also the boundary cycle of a pair."""

    cycle: CycleWord
    axis: Reflection

    def __post_init__(self) -> None:
        n = len(self.cycle)
        if self.axis.n != n:
            raise ValueError("reflection length does not match cycle length")
        f1, f2 = self.axis.fixed
        if self.cycle[f1] % 2 or self.cycle[f2] % 2:
            raise ValueError(f"{self.cycle}: fixed entries must be even")
        if not _symmetric_about(self.cycle.entries, self.axis.axis):
            raise ValueError(f"{self.cycle} is not palindromic about {self.axis}")

    @property
    def n(self) -> int:
        return len(self.cycle)

    def __str__(self) -> str:
        return f"{self.cycle} with {self.axis}"


def find_reflections(c: CycleWord) -> list[Reflection]:
    """All reflections making ``c`` symmetric; empty when n is odd."""
    n = len(c)
    if n % 2:
        return []
    out = []
    for s in range(0, n, 2):
        f1, f2 = s // 2, s // 2 + n // 2
        if c[f1] % 2 or c[f2] % 2:
            continue
        if _symmetric_about(c.entries, s):
            out.append(Reflection(s, n))
    return out


def induced_dual_reflection(sym: SymmetricStructure) -> SymmetricStructure:
    """The reflection induced on the dual cycle via the run correspondence.

    A fixed anchor entry e >= 4 (even) spawns an odd block of twos in the
    dual and maps to its central two; a fixed 2, central in an odd run of
    twos, maps to the dual entry that run creates.  The returned structure
    carries the dual in construction order (anchored at the first entry >= 3).
    """
    c = sym.cycle
    n = len(c)
    if n < 2:
        raise ValueError("induced reflection needs cycle length >= 2")
    require_valid_cusp(c)
    rd, anchor_pos, b_pos, a_start, out = _dual_construction(c)
    m = len(out)
    if m % 2:
        raise ValueError(f"dual of {c} has odd length; cycle cannot be symmetric")
    w = c.rotated(rd.offset).entries

    def image(f: int) -> int:
        rf = (f - rd.offset) % n
        if w[rf] >= 3:
            k = anchor_pos.index(rf)
            a = rd.runs[k][0]
            # an even anchor spawns a - 3 twos, an odd count; take the middle
            return a_start[k] + (a - 4) // 2
        k = max(j for j in range(len(anchor_pos)) if anchor_pos[j] < rf)
        b = rd.runs[k][1]
        pos_in_run = rf - anchor_pos[k] - 1
        if b % 2 == 0 or pos_in_run != (b - 1) // 2:
            raise ValueError(f"fixed entry {f} of {c} is not central in its run")
        return b_pos[k]

    f1, f2 = sym.axis.fixed
    i1, i2 = image(f1), image(f2)
    if (i2 - i1) % m != m // 2:
        raise ValueError(f"run correspondence for {c} gave non-antipodal fixed images")
    return SymmetricStructure(CycleWord(tuple(out)), Reflection((2 * i1) % m, m))


@dataclass(frozen=True)
class QuotientGraph:
    """Resolution graph of the quotient: a chain with two (-2) forks per end.

    Chain values are negated self-intersections; the four fork vertices all
    carry 2 and attach in pairs to the chain ends.
    """

    chain: tuple[int, ...]

    def __post_init__(self) -> None:
        if len(self.chain) < 2:
            raise ValueError("quotient chain must have length >= 2")
        object.__setattr__(self, "chain", tuple(int(v) for v in self.chain))

    @property
    def fork_attachments(self) -> tuple[int, int, int, int]:
        k = len(self.chain)
        return (0, 0, k - 1, k - 1)

    @property
    def vertex_count(self) -> int:
        return len(self.chain) + 4


def quotient_resolution_graph(sym: SymmetricStructure) -> QuotientGraph:
    """Chain (e_f1/2 + 1, arm entries, e_f2/2 + 1) plus the four (-2) forks."""
    c = sym.cycle
    n = len(c)
    if n < 4:
        raise ValueError("quotient resolution graph needs cycle length >= 4")
    require_valid_cusp(c)
    w = c.rotated(sym.axis.fixed[0]).entries
    chain = (w[0] // 2 + 1,) + w[1 : n // 2] + (w[n // 2] // 2 + 1,)
    return QuotientGraph(chain)
