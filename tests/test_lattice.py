import math
from itertools import combinations

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from cuspsym import (
    CycleWord,
    FinAbGroup,
    canonicalize,
    class_group_of_quotient,
    cokernel,
    corner_blowup,
    fan_from_cycle,
    fans_equivalent,
    find_reflections,
    pi1_complement,
    quotient_resolution_graph,
    smith_normal_form,
)
from cuspsym.cycles import SymmetricStructure
from cuspsym.lattice import mat, mat_det, mat_mul

from conftest import random_symmetric_cusp

W = CycleWord

matrices = st.integers(1, 4).flatmap(
    lambda r: st.integers(1, 4).flatmap(
        lambda c: st.lists(
            st.lists(st.integers(-15, 15), min_size=c, max_size=c),
            min_size=r,
            max_size=r,
        )
    )
)


def determinantal_divisors(m):
    """gcd of all k x k minors: the independent oracle for invariant factors."""
    m = mat(m)
    r, c = len(m), len(m[0])
    divisors = []
    for k in range(1, min(r, c) + 1):
        g = 0
        for rows in combinations(range(r), k):
            for cols in combinations(range(c), k):
                sub = tuple(tuple(m[i][j] for j in cols) for i in rows)
                g = math.gcd(g, mat_det(sub))
        divisors.append(g)
    return divisors


class TestSmith:
    def test_examples(self):
        assert smith_normal_form(((2, 0), (0, 2))).diagonal() == (2, 2)
        assert smith_normal_form(((1, 1), (1, -1))).diagonal() == (1, 2)

    def test_quotient_matrix_k3(self):
        # fork intersection matrix for a chain of length 3
        q = [
            [1, 1, 0, 0],
            [0, 0, 0, 0],
            [0, 0, 1, 1],
            [-2, 0, 0, 0],
            [0, -2, 0, 0],
            [0, 0, -2, 0],
            [0, 0, 0, -2],
        ]
        assert smith_normal_form(q).diagonal() == (1, 1, 2, 2)

    @given(matrices)
    @settings(max_examples=200)
    def test_invariants_and_oracle(self, rows):
        m = mat(rows)
        f = smith_normal_form(m)
        # reconstruction and unimodularity are asserted inside; re-check here
        assert mat_mul(mat_mul(f.U, m), f.V) == f.S
        assert abs(mat_det(f.U)) == 1 and abs(mat_det(f.V)) == 1
        d = [x for x in f.diagonal() if x]
        dd = determinantal_divisors(m)
        prod = 1
        for i, x in enumerate(d):
            prod *= x
            assert prod == dd[i]

    def test_zero_and_empty(self):
        assert smith_normal_form(((0, 0), (0, 0))).diagonal() == (0, 0)
        f = smith_normal_form(((), ()))
        assert f.S == ((), ())


class TestCokernel:
    def test_examples(self):
        assert cokernel(((), ())) == FinAbGroup(2, ())
        assert cokernel(((1, -1), (1, 1))) == FinAbGroup(0, (2,))

    def test_permutation_invariance(self, rng):
        for _ in range(50):
            r = rng.randint(1, 4)
            c = rng.randint(1, 4)
            rows = [[rng.randint(-9, 9) for _ in range(c)] for _ in range(r)]
            g = cokernel(rows)
            rng.shuffle(rows)
            cols = list(range(c))
            rng.shuffle(cols)
            shuffled = [[row[j] for j in cols] for row in rows]
            assert cokernel(shuffled) == g

    def test_rendering(self):
        assert str(FinAbGroup(3, (2, 2))) == "Z^3 x Z/2 x Z/2"
        assert str(FinAbGroup(1, ())) == "Z"
        assert str(FinAbGroup(0, ())) == "0"
        assert str(FinAbGroup(0, (2,))) == "Z/2"


def _sym(entries, fixed0=0):
    c = W(entries)
    axes = [a for a in find_reflections(c) if a.fixed[0] == fixed0 % len(c)]
    return SymmetricStructure(c, axes[0])


class TestClassGroup:
    def test_examples(self):
        g = quotient_resolution_graph(_sym((2, 4, 2, 4), 1))
        assert class_group_of_quotient(g) == FinAbGroup(3, (2, 2))

    def test_length8(self):
        s = _sym((2, 4, 2, 2, 2, 4, 2, 2), 1)
        g = quotient_resolution_graph(s)
        cl = class_group_of_quotient(g)
        assert cl == FinAbGroup(5, (2, 2))
        assert cl.torsion_order == 4

    def test_corpus(self, rng):
        for _ in range(120):
            s = random_symmetric_cusp(rng)
            if len(s.cycle) < 4:
                continue
            cl = class_group_of_quotient(quotient_resolution_graph(s))
            assert cl.free_rank == len(s.cycle) // 2 + 1
            assert cl.invariant_factors == (2, 2)


class TestPi1:
    def test_values(self):
        assert pi1_complement([(1, 1), (-1, 1), (-1, -1), (1, -1)]) == FinAbGroup(0, (2,))
        assert pi1_complement([(2, 1), (-1, 1), (-1, -1), (0, -1)]) == FinAbGroup(0, ())
        assert pi1_complement([(1, 0), (0, 1)]) == FinAbGroup(0, ())

    def test_empty_and_invalid(self):
        assert pi1_complement([]) == FinAbGroup(2, ())
        with pytest.raises(ValueError):
            pi1_complement([(2, 4)])


class TestFans:
    def test_p1xp1(self):
        assert fan_from_cycle(W((0, 0, 0, 0))) == ((1, 0), (0, 1), (-1, 0), (0, -1))

    def test_ti_fan(self):
        rays = fan_from_cycle(W((1, 2, 1, 2, 1, 2, 1, 2)))
        assert rays is not None
        paper = [(1, 0), (1, 1), (0, 1), (-1, 1), (-1, 0), (-1, -1), (0, -1), (1, -1)]
        assert fans_equivalent(rays, paper)

    def test_not_a_fan(self):
        assert fan_from_cycle(W((2, 2, 2))) is None
        assert fan_from_cycle(W((2, 2, 2, 2))) is None

    def test_relation(self):
        d = W((2, 1, 2, 1, 2, 1, 2, 1))
        rays = fan_from_cycle(d)
        n = len(d)
        for i in range(n):
            prev, cur, nxt = rays[(i - 1) % n], rays[i], rays[(i + 1) % n]
            assert (prev[0] + nxt[0], prev[1] + nxt[1]) == (d[i] * cur[0], d[i] * cur[1])

    def test_rotation_invariance(self):
        d = W((2, 1, 2, 1, 2, 1, 2, 1))
        for r in range(8):
            assert fan_from_cycle(d.rotated(r)) is not None

    def test_equivalence_is_the_dihedral_class(self, rng):
        # toric cycles from random corner blowups of P^1 x P^1: fans agree
        # exactly when the cycles agree up to rotation and reversal
        for n in range(6, 11):
            cycles = []
            for _ in range(12):
                c = W((0, 0, 0, 0))
                while len(c) < n:
                    c = corner_blowup(c, rng.randrange(len(c)))
                cycles.append(c)
            for c in cycles:
                rays = fan_from_cycle(c)
                assert rays is not None
                for r in range(n):
                    turned = rays[r:] + rays[:r]
                    assert fans_equivalent(rays, turned)
                    assert fans_equivalent(rays, turned[::-1])
                    assert fans_equivalent(rays, fan_from_cycle(c.rotated(r)))
                    assert fans_equivalent(rays, fan_from_cycle(c.rotated(r).reflected()))
            for a in cycles:
                for b in cycles:
                    same = canonicalize(a) == canonicalize(b)
                    assert fans_equivalent(fan_from_cycle(a), fan_from_cycle(b)) == same
