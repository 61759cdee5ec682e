"""Exact integer linear algebra: Smith normal form, cokernels, toric fans.

Matrices are tuples of row tuples with arbitrary-precision entries.  The
Smith form carries its unimodular transforms and is verified by multiplying
back on every call; everything downstream (class groups, fundamental groups)
is a cokernel read off the diagonal.
"""

from __future__ import annotations

import math
from dataclasses import dataclass
from typing import Sequence

from .cycles import CycleWord, QuotientGraph, dihedral_relabelings

__all__ = [
    "IntMatrix",
    "SmithForm",
    "FinAbGroup",
    "mat",
    "mat_mul",
    "mat_identity",
    "mat_det",
    "smith_normal_form",
    "cokernel",
    "class_group_of_quotient",
    "pi1_complement",
    "fan_from_cycle",
    "fans_equivalent",
]

IntMatrix = tuple[tuple[int, ...], ...]


def mat(rows: Sequence[Sequence[int]]) -> IntMatrix:
    out = tuple(tuple(int(v) for v in row) for row in rows)
    if out and any(len(r) != len(out[0]) for r in out):
        raise ValueError("ragged matrix")
    return out


def mat_identity(k: int) -> IntMatrix:
    return tuple(tuple(int(i == j) for j in range(k)) for i in range(k))


def mat_mul(a: IntMatrix, b: IntMatrix) -> IntMatrix:
    if a and b and len(a[0]) != len(b):
        raise ValueError("dimension mismatch")
    cols = len(b[0]) if b else 0
    return tuple(
        tuple(sum(a[i][k] * b[k][j] for k in range(len(b))) for j in range(cols))
        for i in range(len(a))
    )


def mat_det(m: IntMatrix) -> int:
    """Exact determinant by fraction-free (Bareiss) elimination."""
    n = len(m)
    if any(len(r) != n for r in m):
        raise ValueError("determinant needs a square matrix")
    if n == 0:
        return 1
    a = [list(row) for row in m]
    sign = 1
    prev = 1
    for k in range(n - 1):
        if a[k][k] == 0:
            for i in range(k + 1, n):
                if a[i][k]:
                    a[k], a[i] = a[i], a[k]
                    sign = -sign
                    break
            else:
                return 0
        for i in range(k + 1, n):
            for j in range(k + 1, n):
                a[i][j] = (a[i][j] * a[k][k] - a[i][k] * a[k][j]) // prev
            a[i][k] = 0
        prev = a[k][k]
    return sign * a[n - 1][n - 1]


@dataclass(frozen=True)
class SmithForm:
    """S = U M V with U, V unimodular and S diagonal, d_1 | d_2 | ..."""

    U: IntMatrix
    S: IntMatrix
    V: IntMatrix

    def diagonal(self) -> tuple[int, ...]:
        return tuple(self.S[i][i] for i in range(min(len(self.S), len(self.S[0]) if self.S else 0)))


def smith_normal_form(m: IntMatrix | Sequence[Sequence[int]]) -> SmithForm:
    """Diagonalize by unimodular row/column operations.

    Pivots are chosen as the smallest nonzero absolute value, ties broken by
    position, which keeps coefficient growth tame at this scale and makes the
    transforms deterministic.
    """
    m = mat(m)
    r = len(m)
    c = len(m[0]) if r else 0
    a = [list(row) for row in m]
    u = [list(row) for row in mat_identity(r)]
    v = [list(row) for row in mat_identity(c)]

    def row_swap(i, j):
        a[i], a[j] = a[j], a[i]
        u[i], u[j] = u[j], u[i]

    def row_add(dst, src, k):
        for j in range(c):
            a[dst][j] += k * a[src][j]
        for j in range(r):
            u[dst][j] += k * u[src][j]

    def row_neg(i):
        a[i] = [-x for x in a[i]]
        u[i] = [-x for x in u[i]]

    def col_swap(i, j):
        for row in a:
            row[i], row[j] = row[j], row[i]
        for row in v:
            row[i], row[j] = row[j], row[i]

    def col_add(dst, src, k):
        for row in a:
            row[dst] += k * row[src]
        for row in v:
            row[dst] += k * row[src]

    t = 0
    while t < min(r, c):
        best = None
        for i in range(t, r):
            for j in range(t, c):
                if a[i][j] and (best is None or abs(a[i][j]) < abs(a[best[0]][best[1]])):
                    best = (i, j)
        if best is None:
            break
        if best[0] != t:
            row_swap(t, best[0])
        if best[1] != t:
            col_swap(t, best[1])
        while True:
            moved = False
            for i in range(t + 1, r):
                if a[i][t]:
                    row_add(i, t, -(a[i][t] // a[t][t]))
                    if a[i][t]:
                        row_swap(t, i)
                        moved = True
            if moved:
                continue
            for j in range(t + 1, c):
                if a[t][j]:
                    col_add(j, t, -(a[t][j] // a[t][t]))
                    if a[t][j]:
                        col_swap(t, j)
                        moved = True
            if moved:
                continue
            # the pivot must divide the remaining block for the chain condition
            viol = None
            for i in range(t + 1, r):
                for j in range(t + 1, c):
                    if a[i][j] % a[t][t]:
                        viol = i
                        break
                if viol is not None:
                    break
            if viol is None:
                break
            row_add(t, viol, 1)
        t += 1
    for i in range(t):
        if a[i][i] < 0:
            row_neg(i)

    form = SmithForm(mat(u), mat(a), mat(v))
    _check_smith(m, form)
    return form


def _check_smith(m: IntMatrix, f: SmithForm) -> None:
    if mat_mul(mat_mul(f.U, m), f.V) != f.S:
        raise AssertionError("Smith form reconstruction failed")
    if abs(mat_det(f.U)) != 1 or abs(mat_det(f.V)) != 1:
        raise AssertionError("Smith transforms are not unimodular")
    d = f.diagonal()
    for i in range(len(f.S)):
        for j in range(len(f.S[i])):
            if i != j and f.S[i][j]:
                raise AssertionError("Smith form is not diagonal")
    for i in range(len(d) - 1):
        if d[i] < 0 or (d[i] == 0 and d[i + 1] != 0) or (d[i] and d[i + 1] % d[i]):
            raise AssertionError("Smith diagonal violates the divisibility chain")


@dataclass(frozen=True)
class FinAbGroup:
    """Finitely generated abelian group as free rank plus invariant factors."""

    free_rank: int
    invariant_factors: tuple[int, ...]

    def __post_init__(self) -> None:
        if self.free_rank < 0:
            raise ValueError("free rank must be nonnegative")
        f = tuple(int(d) for d in self.invariant_factors)
        if any(d < 2 for d in f):
            raise ValueError("invariant factors must be >= 2")
        if any(f[i + 1] % f[i] for i in range(len(f) - 1)):
            raise ValueError("invariant factors must form a divisibility chain")
        object.__setattr__(self, "invariant_factors", f)

    @property
    def torsion_order(self) -> int:
        return math.prod(self.invariant_factors)

    def __str__(self) -> str:
        parts = []
        if self.free_rank == 1:
            parts.append("Z")
        elif self.free_rank > 1:
            parts.append(f"Z^{self.free_rank}")
        parts.extend(f"Z/{d}" for d in self.invariant_factors)
        return " x ".join(parts) if parts else "0"


def cokernel(m: IntMatrix | Sequence[Sequence[int]]) -> FinAbGroup:
    """coker of the map Z^c -> Z^r whose columns are the columns of m."""
    m = mat(m)
    r = len(m)
    c = len(m[0]) if r else 0
    if c == 0:
        return FinAbGroup(r, ())
    d = smith_normal_form(m).diagonal()
    rank = sum(1 for x in d if x)
    return FinAbGroup(r - rank, tuple(x for x in d if x > 1))


def class_group_of_quotient(g: QuotientGraph) -> FinAbGroup:
    """Cl of the quotient germ: coker of the fork intersection matrix.

    Rows run over all chain and fork curves, columns over the four (-2)
    forks; each column has -2 on its own fork and 1 on the chain end it
    meets.  The result is Z^k x (Z/2)^2 with k the chain length.
    """
    k = len(g.chain)
    rows = [[0] * 4 for _ in range(k + 4)]
    for col, attach in enumerate(g.fork_attachments):
        rows[k + col][col] = -2
        rows[attach][col] = 1
    return cokernel(rows)


def pi1_complement(blowup_rays: Sequence[tuple[int, int]]) -> FinAbGroup:
    """N / <v_1, ..., v_p> for the interior-blowup rays of a toric pair.

    An empty ray list yields the free group of rank 2; callers should flag it.
    """
    rays = [(int(x), int(y)) for x, y in blowup_rays]
    if not rays:
        return FinAbGroup(2, ())
    for x, y in rays:
        if math.gcd(x, y) != 1:
            raise ValueError(f"ray ({x},{y}) is not primitive")
    return cokernel([[x for x, _ in rays], [y for _, y in rays]])


def _det2(u: tuple[int, int], w: tuple[int, int]) -> int:
    return u[0] * w[1] - u[1] * w[0]


def fan_from_cycle(d: CycleWord) -> tuple[tuple[int, int], ...] | None:
    """Rays of the smooth complete toric pair with boundary cycle d, if any.

    Seeds v_0 = (1,0), v_1 = (0,1) and iterates v_{i+1} = d_i v_i - v_{i-1};
    the result is returned only when the sequence closes up with winding
    number one and unit consecutive determinants.
    """
    n = len(d)
    if n < 3:
        return None
    v: list[tuple[int, int]] = [(1, 0), (0, 1)]
    for i in range(1, n + 1):
        e = d[i % n]
        v.append((e * v[i][0] - v[i - 1][0], e * v[i][1] - v[i - 1][1]))
    if v[n] != v[0] or v[n + 1] != v[1]:
        return None
    rays = v[:n]
    if any(_det2(rays[i], rays[(i + 1) % n]) != 1 for i in range(n)):
        return None
    # winding number: upward crossings of the positive x-ray
    crossings = 0
    for i in range(n):
        u, w = rays[i], rays[(i + 1) % n]
        if u[1] == 0 and u[0] > 0:
            crossings += 1
        elif u[1] < 0 < w[1]:
            crossings += 1
    if crossings != 1:
        return None
    return tuple(rays)


def fans_equivalent(a: Sequence[tuple[int, int]], b: Sequence[tuple[int, int]]) -> bool:
    """Whether two cyclically ordered ray lists agree up to GL(2,Z) and relabeling."""
    a = [tuple(v) for v in a]
    b = tuple(tuple(v) for v in b)
    n = len(a)
    if len(b) != n or n < 2:
        return False

    def normalized(rays):
        # map the first two rays to the standard basis; unit determinant assumed
        p, q = rays[0], rays[1]
        det = _det2(p, q)
        if abs(det) != 1:
            return None
        inv = ((q[1] * det, -q[0] * det), (-p[1] * det, p[0] * det))
        # columns (p, q) inverted: rows of the inverse act on the left
        return tuple(
            (inv[0][0] * x + inv[0][1] * y, inv[1][0] * x + inv[1][1] * y) for x, y in rays
        )

    target = normalized(a)
    if target is None:
        return False
    return any(normalized(seq) == target for seq, _ in dihedral_relabelings(b))
