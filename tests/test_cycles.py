import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from cuspsym import (
    CycleWord,
    InvalidCuspError,
    Reflection,
    SymmetricStructure,
    canonicalize,
    dual,
    find_reflections,
    induced_dual_reflection,
    multiplicity,
    neg_self_intersection,
    quotient_resolution_graph,
    run_decompose,
    validate_cusp,
)
from cuspsym.cycles import _symmetric_about, dihedral_orbit

from conftest import REFERENCE_FAILING_12, dihedral_equal

W = CycleWord


# strategies: arbitrary small cyclic words, and valid cusp cycles
words = st.lists(st.integers(0, 9), min_size=1, max_size=10).map(lambda l: W(tuple(l)))


@st.composite
def cusps(draw, max_n=8, max_entry=9):
    n = draw(st.integers(1, max_n))
    if n == 1:
        return W((draw(st.integers(1, max_entry)),))
    entries = [draw(st.integers(2, max_entry)) for _ in range(n)]
    entries[draw(st.integers(0, n - 1))] = draw(st.integers(3, max_entry))
    return W(tuple(entries))


@st.composite
def words_and_axes(draw):
    """A word and a doubled axis of any sign; about half the words are made
    symmetric about the axis, and some of those are then broken at one index."""
    n = draw(st.integers(1, 12))
    s = draw(st.integers(-3 * n, 3 * n))
    e = draw(st.lists(st.integers(0, 3), min_size=n, max_size=n))
    if draw(st.booleans()):
        for i in range(n):
            e[(s - i) % n] = e[i]
        if draw(st.booleans()):
            e[draw(st.integers(0, n - 1))] += 1
    return tuple(e), s


class TestCanonicalize:
    def test_examples(self):
        assert canonicalize(W((10, 3, 4, 3))) == W((3, 4, 3, 10))
        assert canonicalize(W((0, 0, 0, 0))) == W((0, 0, 0, 0))
        assert canonicalize(W((2, 3))) == W((2, 3))

    @given(words)
    def test_idempotent_and_minimal(self, c):
        canon = canonicalize(c)
        assert canonicalize(canon) == canon
        orbit = dihedral_orbit(c)
        assert canon.entries in orbit
        assert all(canon.entries <= w for w in orbit)

    @given(words, st.integers(0, 9), st.booleans())
    def test_dihedral_invariance(self, c, r, flip):
        other = c.rotated(r)
        if flip:
            other = other.reflected()
        assert canonicalize(other) == canonicalize(c)


class TestValidation:
    def test_examples(self):
        assert validate_cusp(W((3, 10, 3, 4))).ok
        rep = validate_cusp(W((2, 2, 2, 2)))
        assert not rep.ok and any("condition ii" in f for f in rep.failures)
        assert validate_cusp(W((1,))).ok
        assert validate_cusp(W((2,))).ok
        rep = validate_cusp(W((0, 0, 0, 0)))
        assert not rep.ok and any("condition i" in f for f in rep.failures)

    def test_neg_self_intersection(self):
        assert neg_self_intersection(W((3, 10, 3, 4))) == 12
        assert neg_self_intersection(W((3, 2))) == 1
        assert neg_self_intersection(W((5,))) == 5
        with pytest.raises(InvalidCuspError):
            neg_self_intersection(W((2, 2)))

    def test_multiplicity(self):
        assert multiplicity(W((3, 2))) == 2
        assert multiplicity(W((3, 10, 3, 4))) == 12
        assert multiplicity(W((1,))) == 2


class TestRuns:
    def test_examples(self):
        assert run_decompose(W((3, 10, 3, 4))).runs == ((3, 0), (10, 0), (3, 0), (4, 0))
        assert run_decompose(W((12, 3, 2, 3))).runs == ((12, 0), (3, 1), (3, 0))
        assert run_decompose(W((3, 2, 2))).runs == ((3, 2),)

    def test_all_two_rejected(self):
        with pytest.raises(ValueError):
            run_decompose(W((2, 2, 2)))

    @given(cusps())
    def test_reassembly(self, c):
        if len(c) == 1 or all(v < 3 for v in c):
            return
        rd = run_decompose(c)
        assert rd.reassemble() == c.rotated(rd.offset)


class TestDual:
    def test_reference_rows(self):
        for cusp, dd in REFERENCE_FAILING_12:
            assert dual(W(cusp)) == canonicalize(W(dd)), cusp

    def test_special_branches(self):
        assert dual(W((1,))) == W((1,))
        assert dual(W((5,))) == canonicalize(W((3, 2, 2, 2, 2)))
        assert dual(W((3, 2, 2))) == W((3,))
        assert dual(W((3, 2))) == W((2,))
        assert dual(W((2,))) == canonicalize(W((3, 2)))

    def test_errors(self):
        with pytest.raises(InvalidCuspError):
            dual(W((2, 2, 2)))

    @given(st.one_of(cusps(), cusps(max_n=16, max_entry=20), cusps(max_n=40, max_entry=50)))
    @settings(max_examples=300)
    def test_involutive_and_length_law(self, c):
        d = dual(c)
        assert validate_cusp(d).ok
        assert len(d) == neg_self_intersection(c)
        assert dual(d) == canonicalize(c)


class TestReflections:
    def test_examples(self):
        axes = find_reflections(W((3, 10, 3, 4)))
        assert len(axes) == 1 and set(axes[0].fixed) == {1, 3}
        assert find_reflections(W((1, 2, 1, 2, 2, 1, 2, 1))) == []
        axes = find_reflections(W((0, 0, 0, 0)))
        assert {tuple(a.fixed) for a in axes} == {(0, 2), (1, 3)}

    def test_odd_length_empty(self):
        assert find_reflections(W((4, 4, 4))) == []

    @given(words)
    def test_soundness(self, c):
        n = len(c)
        for a in find_reflections(c):
            assert all(a.apply(a.apply(i)) == i for i in range(n))
            f1, f2 = a.fixed
            assert a.apply(f1) == f1 and a.apply(f2) == f2
            assert c[f1] % 2 == 0 and c[f2] % 2 == 0
            assert all(c[i] == c[a.apply(i)] for i in range(n))
            assert sum(1 for i in range(n) if a.apply(i) == i) == 2

    def test_edge_axis_rejected(self):
        with pytest.raises(ValueError):
            Reflection(1, 4)

    @given(words_and_axes())
    def test_symmetric_about_is_the_index_map(self, case):
        e, s = case
        n = len(e)
        assert _symmetric_about(e, s) == all(e[i] == e[(s - i) % n] for i in range(n))

    def test_structure_rejects_non_palindrome(self):
        with pytest.raises(ValueError, match="not palindromic"):
            SymmetricStructure(W((2, 3, 4, 5)), Reflection(0, 4))
        # axis 8 is axis 2 mod 6, fixing components 1 and 4
        SymmetricStructure(W((3, 2, 3, 5, 4, 5)), Reflection(8, 6))
        with pytest.raises(ValueError, match="not palindromic"):
            SymmetricStructure(W((3, 2, 3, 5, 4, 6)), Reflection(8, 6))


def _symmetric(entries, fixed0):
    c = W(entries)
    axes = [a for a in find_reflections(c) if a.fixed[0] == fixed0 % len(c)]
    return SymmetricStructure(c, axes[0])


class TestInducedDual:
    def test_2424(self):
        s = _symmetric((2, 4, 2, 4), 1)
        ind = induced_dual_reflection(s)
        assert ind.cycle == W((4, 2, 4, 2))
        f1, f2 = ind.axis.fixed
        assert ind.cycle[f1] == 2 and ind.cycle[f2] == 2

    def test_3_10_3_4(self):
        s = _symmetric((3, 10, 3, 4), 1)
        ind = induced_dual_reflection(s)
        # fixed images: middle of the run of seven 2s, and the isolated 2
        assert dihedral_equal(ind.cycle.entries, REFERENCE_FAILING_12[0][1])
        f1, f2 = ind.axis.fixed
        assert ind.cycle[f1] == 2 and ind.cycle[f2] == 2
        runs = run_decompose(ind.cycle).runs
        assert max(b for _, b in runs) == 7

    def test_3_8_3_6(self):
        s = _symmetric((3, 8, 3, 6), 1)
        ind = induced_dual_reflection(s)
        assert dihedral_equal(ind.cycle.entries, (2, 3, 3, 2, 2, 2, 2, 2, 3, 3, 2, 2))

    def test_symmetry_transfer(self, rng):
        from conftest import random_symmetric_cusp

        for k in range(220):
            # the last 20 are long: duals of several hundred letters
            s = random_symmetric_cusp(rng) if k < 200 else random_symmetric_cusp(rng, 40, 50)
            ind = induced_dual_reflection(s)
            # the induced axis is one the dual's own search finds
            assert any(
                a.axis == ind.axis.axis for a in find_reflections(ind.cycle)
            )
            assert dihedral_equal(ind.cycle.entries, dual(s.cycle).entries)


class TestQuotientGraph:
    def test_examples(self):
        g = quotient_resolution_graph(_symmetric((2, 4, 2, 4), 1))
        assert g.chain == (3, 2, 3)
        g = quotient_resolution_graph(_symmetric((6, 2, 6, 2), 0))
        assert g.chain == (4, 2, 4)
        assert g.vertex_count == 4 // 2 + 5

    def test_vertex_count(self, rng):
        from conftest import random_symmetric_cusp

        for _ in range(50):
            s = random_symmetric_cusp(rng)
            if len(s.cycle) < 4:
                continue
            g = quotient_resolution_graph(s)
            n = len(s.cycle)
            assert g.vertex_count == n // 2 + 5
            assert len(g.chain) == n // 2 + 1
            f1, f2 = s.axis.fixed
            assert g.chain[0] == s.cycle[f1] // 2 + 1
            assert g.chain[-1] == s.cycle[f2] // 2 + 1

    def test_too_short(self):
        with pytest.raises(ValueError):
            quotient_resolution_graph(_symmetric((2, 4), 0))
