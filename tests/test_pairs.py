import pytest
from hypothesis import given
from hypothesis import strategies as st

from cuspsym import (
    CycleWord,
    PairCycle,
    Reflection,
    SEED,
    apply_equivariant_step,
    brute_force_reachability,
    canonicalize,
    charge,
    corner_blowup,
    decide_equivariant_pair,
    dominates_with_parity,
    dual,
    enumerate_equivariant_toric,
    fan_from_cycle,
    interior_blowup,
    replay_witness,
)
from cuspsym.pairs import (
    CornerPair,
    InteriorDouble,
    InteriorPair,
    OrbitMismatchError,
    canonical_pair_key,
    canonicalize_pair,
    interior_orbits,
    mirror_node,
    node_orbits,
)

from conftest import SHORT_TORIC, MINIMAL_TORIC_12, dihedral_equal

W = CycleWord


def pair(entries, axis):
    return PairCycle(W(tuple(entries)), Reflection(axis, len(entries)))


class TestCharge:
    def test_examples(self):
        assert charge(W((0, 0, 0, 0))) == 0
        assert charge(W((3, 3, 2, 2, 2, 2, 2, 2, 2, 3, 3, 2))) == 4
        assert charge(W((4, 2, 2, 2))) == 10


class TestBlowups:
    def test_corner(self):
        assert corner_blowup(W((0, 0, 0, 0)), 0) == W((1, 1, 1, 0, 0))
        assert corner_blowup(W((1, 1)), 0) == W((2, 1, 2))
        assert corner_blowup(W((0, 0, 0, 0)), 3) == W((1, 0, 0, 1, 1))
        with pytest.raises(IndexError):
            corner_blowup(W((0, 0, 0, 0)), 4)

    def test_interior(self):
        assert interior_blowup(W((0, 0, 0, 0)), 0) == W((1, 0, 0, 0))
        assert interior_blowup(W((2, 1)), 1) == W((2, 2))
        with pytest.raises(IndexError):
            interior_blowup(W((2, 1)), 2)

    @given(st.lists(st.integers(0, 6), min_size=2, max_size=9), st.data())
    def test_charge_laws(self, entries, data):
        c = W(tuple(entries))
        node = data.draw(st.integers(0, len(c) - 1))
        assert charge(corner_blowup(c, node)) == charge(c)
        assert charge(interior_blowup(c, node)) == charge(c) + 1


class TestEquivariantSteps:
    def test_corner_pair_example(self):
        p = pair((0, 0, 0, 0), 2)
        out = apply_equivariant_step(p, CornerPair(0, mirror_node(p.axis, 0)))
        assert out.cycle == W((1, 1, 2, 1, 1, 0))
        assert out.axis.fixed == (2, 5)
        assert dihedral_equal(out.cycle.entries, (2, 1, 1, 0, 1, 1))

    def test_interior_double(self):
        p = pair((0, 0, 0, 0), 2)
        out = apply_equivariant_step(p, InteriorDouble(1))
        assert out.cycle == W((0, 2, 0, 0))

    def test_orbit_mismatch(self):
        p = pair((0, 0, 0, 0), 2)
        with pytest.raises(OrbitMismatchError):
            apply_equivariant_step(p, CornerPair(0, 2))
        with pytest.raises(OrbitMismatchError):
            apply_equivariant_step(p, InteriorPair(1, 3))
        with pytest.raises(OrbitMismatchError):
            apply_equivariant_step(p, InteriorDouble(0))

    def test_equivariant_charge_laws(self, rng):
        state = SEED
        for _ in range(40):
            moves = node_orbits(state) + interior_orbits(state)
            step = rng.choice(moves)
            q = charge(state)
            state = apply_equivariant_step(state, step)
            if isinstance(step, CornerPair):
                assert charge(state) == q
            else:
                assert charge(state) == q + 2
            assert charge(state) % 2 == 0
            f1, f2 = state.axis.fixed
            assert state.cycle[f1] % 2 == 0 and state.cycle[f2] % 2 == 0
            if state.n > 16:
                state = SEED

    def test_interior_after_corner_covers_corner_after_interior(self, rng):
        # one-directional commutation: interior-then-corner states are always
        # reachable corner-first (the reduction behind the toric-first form)
        for _ in range(20):
            state = SEED
            for _ in range(rng.randint(0, 2)):
                state = apply_equivariant_step(state, rng.choice(node_orbits(state)))
            second = set()
            for c in node_orbits(state):
                mid = apply_equivariant_step(state, c)
                for i in interior_orbits(mid):
                    second.add(canonical_pair_key(apply_equivariant_step(mid, i)))
            for i in interior_orbits(state):
                mid = apply_equivariant_step(state, i)
                for c in node_orbits(mid):
                    key = canonical_pair_key(apply_equivariant_step(mid, c))
                    assert key in second


class TestEnumeration:
    def test_lengths(self):
        assert len(enumerate_equivariant_toric(4)) == 1
        key = canonical_pair_key(enumerate_equivariant_toric(4)[0].pair)
        assert key == canonical_pair_key(SEED)

    def test_short_toric_membership(self):
        for n, rows in SHORT_TORIC.items():
            cycles = {canonicalize(m.pair.cycle).entries for m in enumerate_equivariant_toric(n)}
            for row in rows:
                assert canonicalize(W(row)).entries in cycles

    def test_minimal_toric_membership(self):
        cycles = {canonicalize(m.pair.cycle).entries for m in enumerate_equivariant_toric(12)}
        for row in MINIMAL_TORIC_12:
            assert canonicalize(W(row)).entries in cycles

    def test_minimal_toric_pair_level_membership(self):
        from cuspsym import find_reflections

        keys = {canonical_pair_key(m.pair) for m in enumerate_equivariant_toric(12)}
        for row in MINIMAL_TORIC_12:
            c = W(row)
            axes = find_reflections(c)
            assert axes, row
            assert all(canonical_pair_key(PairCycle(c, a)) in keys for a in axes), row

    def test_parity_and_fan_soundness(self):
        for n in (4, 6, 8, 10, 12):
            for m in enumerate_equivariant_toric(n):
                f1, f2 = m.pair.axis.fixed
                assert m.pair.cycle[f1] % 2 == 0 and m.pair.cycle[f2] % 2 == 0
                assert charge(m.pair) == 0
                assert fan_from_cycle(m.pair.cycle) is not None

    def test_schedules_replay(self):
        for n in (4, 6, 8, 10):
            for m in enumerate_equivariant_toric(n):
                state = SEED
                for step in m.schedule:
                    state = apply_equivariant_step(state, step)
                assert state == m.pair

    def test_bad_length(self):
        with pytest.raises(ValueError):
            enumerate_equivariant_toric(7)
        with pytest.raises(ValueError):
            enumerate_equivariant_toric(2)


class TestDomination:
    def test_examples(self):
        t = pair((4, 2, 2, 2), 0)
        o = pair((0, 0, 0, 0), 0)
        assert dominates_with_parity(t, o) is not None
        assert dominates_with_parity(t, t) == (0, 1, 2, 3)

    def test_non_domination(self):
        t = pair((2, 2, 2, 2), 0)
        o = pair((4, 2, 2, 2), 0)
        assert dominates_with_parity(t, o) is None

    def test_parity_is_automatic_for_valid_pairs(self, rng):
        # both sides have even entries at their fixed components, so the even
        # excess condition never rejects an entrywise domination on its own
        for _ in range(50):
            n = rng.choice((4, 6, 8))
            models = enumerate_equivariant_toric(n)
            a = rng.choice(models).pair
            b = rng.choice(models).pair
            phi = dominates_with_parity(a, b)
            if phi is None:
                continue
            assert all((a.cycle[phi[f]] - b.cycle[f]) % 2 == 0 for f in b.axis.fixed)

    def test_length_mismatch(self):
        with pytest.raises(ValueError):
            dominates_with_parity(pair((2, 2, 2, 2), 0), pair((2,) * 6, 0))


class TestDecide:
    def test_semidefinite_all_two(self):
        d = decide_equivariant_pair(pair((2,) * 8, 0))
        assert d.accepted and d.semidefinite
        replay_witness(d.witness, pair((2,) * 8, 0))
        # the alternating length-8 toric cycle is among the dominating models
        others = [
            m for m in enumerate_equivariant_toric(8)
            if dominates_with_parity(pair((2,) * 8, 0), m.pair)
        ]
        assert any(
            dihedral_equal(m.pair.cycle.entries, (1, 2, 1, 2, 1, 2, 1, 2)) for m in others
        )

    def test_rejects_entry_below_two(self):
        with pytest.raises(ValueError):
            decide_equivariant_pair(pair((1, 2, 1, 2), 0))
        with pytest.raises(ValueError, match="length >= 4"):
            decide_equivariant_pair(pair((2, 4), 0))

    def test_accepted_has_replayable_witness(self, rng):
        for _ in range(40):
            # random dominating targets built over a random toric model
            n = rng.choice((4, 6, 8, 10, 12))
            models = enumerate_equivariant_toric(n)
            m = rng.choice(models).pair
            extra = [0] * n
            for i in range(n):
                j = m.axis.apply(i)
                if i == j:
                    extra[i] += 2 * rng.randint(0, 2)
                elif i < j:
                    k = rng.randint(0, 2)
                    extra[i] += k
                    extra[j] += k
            word = tuple(m.cycle[i] + extra[i] for i in range(n))
            if min(word) < 2:
                continue
            t = PairCycle(W(word), m.axis)
            d = decide_equivariant_pair(t)
            assert d.accepted
            replay_witness(d.witness, t)

    def test_documented_rejections(self):
        # duals of the reference multiplicity-12 cusps are dominated by no
        # length-12 model under any alignment
        from cuspsym import SymmetricStructure, find_reflections, induced_dual_reflection

        for cusp in ((3, 10, 3, 4), (4, 4, 4, 8)):
            c = W(cusp)
            sym = SymmetricStructure(c, find_reflections(c)[0])
            ind = induced_dual_reflection(sym)
            target = PairCycle(ind.cycle, ind.axis)
            for m in enumerate_equivariant_toric(12):
                assert dominates_with_parity(target, m.pair) is None
            assert not decide_equivariant_pair(target).accepted

    def test_four_alignments_per_model(self):
        # the alignments of two axes are four distinct maps from n = 4 on, so
        # the decision counts four per model tried, on accepts and rejects
        from cuspsym.pairs import _axis_alignments

        for n in range(4, 41, 2):
            for s_target in range(0, n, 2):
                for s_toric in range(0, n, 2):
                    assert len(set(_axis_alignments(n, s_target, s_toric))) == 4
        accept = decide_equivariant_pair(pair((2,) * 8, 0))
        reject = decide_equivariant_pair(pair((4, 3) + (2,) * 9 + (3,), 0))
        assert accept.accepted and not reject.accepted
        for d in (accept, reject):
            assert d.alignments_tried == 4 * d.models_tried

    def test_monotonicity(self, rng):
        for _ in range(30):
            n = rng.choice((4, 6, 8))
            models = enumerate_equivariant_toric(n)
            m = rng.choice(models).pair
            word = list(m.cycle.entries)
            for i in range(n):
                j = m.axis.apply(i)
                if i == j:
                    word[i] += 2
                elif i < j:
                    word[i] += 1
                    word[j] += 1
            if min(word) < 2:
                continue
            t = PairCycle(W(tuple(word)), m.axis)
            if not decide_equivariant_pair(t).accepted:
                continue
            bigger = list(word)
            bigger[m.axis.fixed[0]] += 2
            assert decide_equivariant_pair(PairCycle(W(tuple(bigger)), m.axis)).accepted


class TestBruteForce:
    def test_seed(self):
        d = brute_force_reachability(SEED)
        assert d.accepted and d.path == ()
        assert d.witness is not None
        assert d.witness.corner_schedule == () and d.witness.interior_schedule == ()

    def test_path_replays(self, rng):
        for _ in range(20):
            state = SEED
            for _ in range(rng.randint(1, 4)):
                moves = node_orbits(state) + interior_orbits(state)
                state = apply_equivariant_step(state, rng.choice(moves))
            d = brute_force_reachability(state)
            assert d.accepted
            replayed = SEED
            for step in d.path:
                replayed = apply_equivariant_step(replayed, step)
            assert canonical_pair_key(replayed) == canonical_pair_key(state)

    def test_budget(self):
        from cuspsym import BudgetExceededError

        big = pair((4,) * 12, 0)
        with pytest.raises(BudgetExceededError):
            brute_force_reachability(big, budget=3)


# every (length, max_entry) whose scan has at most 6000 labelings; the all-2
# labeling is chargeable but not definite exactly at lengths <= 8
SCAN_GRID = [(n, m) for n, top in ((4, 10), (6, 10), (8, 8), (10, 6), (12, 5), (14, 4))
             for m in range(4, top + 1)]


def _dominates_toric(target, models):
    return any(dominates_with_parity(target, m.pair) is not None for m in models)


class TestScan:
    @pytest.mark.parametrize("n,max_entry", SCAN_GRID)
    def test_filter_matches_brute_force(self, n, max_entry):
        # reference for the depth-first filter: every labeling, compared
        # with every toric model
        import itertools as it

        from cuspsym import find_reflections, scan_length

        models = enumerate_equivariant_toric(n)
        evens = range(2, max_entry + 1, 2)
        full = range(2, max_entry + 1)
        candidates = accepted = 0
        rejected = set()
        for f1, f2, *arm in it.product(evens, evens, *[full] * (n // 2 - 1)):
            word = W((f1, *arm, f2, *reversed(arm)))
            if max(word.entries) == 2 or charge(word) < 4:
                continue
            candidates += 1
            if _dominates_toric(PairCycle(word, Reflection(0, n)), models):
                accepted += 1
            else:
                rejected.add(canonicalize(word))
        failing = {
            c.entries for c in rejected
            if not any(_dominates_toric(PairCycle(c, a), models) for a in find_reflections(c))
        }
        res = scan_length(n, max_entry)
        assert (res.candidates, res.accepted) == (candidates, accepted)
        assert {f.cycle.entries for f in res.failures} == failing
        for f in res.failures:
            assert f.axes == tuple(find_reflections(f.cycle))
            assert f.dual_cusp == dual(f.cycle)

    @pytest.mark.parametrize("max_entry,candidates,accepted", [
        (8, 1_882_339, 1_882_063),
        (10, 13_285_980, 13_285_704),
    ])
    def test_scan14_counts(self, max_entry, candidates, accepted):
        from cuspsym import scan_length

        res = scan_length(14, max_entry)
        assert (res.candidates, res.accepted, len(res.failures)) == (
            candidates, accepted, 142)

    def test_batch_matches_decide_exhaustively(self):
        # the scan filter is the same predicate as the plain per-axis
        # decision; check every candidate cycle at a small bound
        import itertools as it

        from cuspsym import find_reflections, scan_length

        res = scan_length(12, 5)
        failing = {f.cycle.entries for f in res.failures}
        seen = set()
        for f1, f2 in it.product((2, 4), repeat=2):
            for arm in it.product(range(2, 6), repeat=5):
                word = (f1, *arm, f2, *reversed(arm))
                if all(v == 2 for v in word) or charge(W(word)) < 4:
                    continue
                cyc = canonicalize(W(word))
                if cyc.entries in seen:
                    continue
                seen.add(cyc.entries)
                rejected_all = all(
                    not decide_equivariant_pair(PairCycle(cyc, a)).accepted
                    for a in find_reflections(cyc)
                )
                assert rejected_all == (cyc.entries in failing), cyc

    @pytest.mark.parametrize("n", [4, 6, 8])
    @pytest.mark.parametrize("m", [500, 3000])
    def test_counts_at_large_max_entry(self, n, m):
        # every labeling but the all-2 one is a chargeable candidate for
        # n <= 8, and a toric pattern with no entry above 2 accepts them all
        from cuspsym import scan_length

        res = scan_length(n, m)
        assert res.candidates == (m // 2) ** 2 * (m - 1) ** (n // 2 - 1) - 1
        assert res.accepted == res.candidates and res.failures == ()

    def test_deterministic(self):
        from cuspsym import scan_length

        assert scan_length(8, 8) == scan_length(8, 8)

    def test_bad_arguments(self):
        from cuspsym import scan_length

        with pytest.raises(ValueError):
            scan_length(7, 8)
        with pytest.raises(ValueError):
            scan_length(8, 3)


class TestCanonicalPair:
    def test_roundtrip(self, rng):
        for _ in range(50):
            state = SEED
            for _ in range(rng.randint(0, 3)):
                moves = node_orbits(state) + interior_orbits(state)
                state = apply_equivariant_step(state, rng.choice(moves))
            canon = canonicalize_pair(state)
            assert canonical_pair_key(canon) == canonical_pair_key(state)
            r = rng.randint(0, state.n - 1)
            rotated = PairCycle(
                state.cycle.rotated(r),
                Reflection((state.axis.axis - 2 * r) % state.n, state.n),
            )
            assert canonical_pair_key(rotated) == canonical_pair_key(state)

    def test_key_matches_explicit_relabelings(self, rng):
        # every relabeling as an index map, the reflection conjugated through it
        def brute_key(p):
            n, e = p.n, p.cycle.entries
            keys = []
            for r in range(n):
                for sign in (1, -1):
                    phi = [(r + sign * i) % n for i in range(n)]
                    back = {old: new for new, old in enumerate(phi)}
                    image = [back[p.axis.apply(phi[i])] for i in range(n)]
                    axis = Reflection(image[0], n)
                    assert all(axis.apply(i) == image[i] for i in range(n))
                    keys.append((tuple(e[j] for j in phi), axis.axis))
            return min(keys)

        for _ in range(60):
            n = 2 * rng.randint(2, 10)
            state = SEED
            while state.n < n:
                state = apply_equivariant_step(state, rng.choice(node_orbits(state)))
            for _ in range(rng.randint(0, 4)):
                state = apply_equivariant_step(state, rng.choice(interior_orbits(state)))
            assert canonical_pair_key(state) == brute_key(state)
