"""Labeled boundary cycles with a reflection, blowup moves, and the decision
procedure for the existence of an equivariant anticanonical pair.

A pair cycle is a cycle word (entries may be <= 0) together with a reflection
fixing two components with even entries: a ``SymmetricStructure``, named
``PairCycle`` here.  The decision procedure compares the target against the
toric pair cycles reachable from ((0,0,0,0), axis 2) by reflection-paired
corner blowups: the target admits an equivariant pair exactly when it
dominates some such toric cycle entrywise under an axis-respecting alignment,
with even excess on the two fixed components.
"""

from __future__ import annotations

from collections import deque
from dataclasses import dataclass
from typing import MutableMapping, Union

from .cycles import (
    CycleWord,
    Reflection,
    SymmetricStructure,
    canonicalize,
    dihedral_relabelings,
    dual,
    find_reflections,
)

__all__ = [
    "PairCycle",
    "CornerPair",
    "InteriorPair",
    "InteriorDouble",
    "EquivariantStep",
    "ToricModel",
    "ToricWitness",
    "Decision",
    "ScanFailure",
    "ScanResult",
    "OrbitMismatchError",
    "BudgetExceededError",
    "SEED",
    "MAX_TORIC_LENGTH",
    "charge",
    "corner_blowup",
    "interior_blowup",
    "mirror_node",
    "node_orbits",
    "interior_orbits",
    "apply_equivariant_step",
    "canonical_pair_key",
    "canonicalize_pair",
    "enumerate_equivariant_toric",
    "dominates_with_parity",
    "decide_equivariant_pair",
    "replay_witness",
    "brute_force_reachability",
    "reachable_pair_keys",
    "scan_length",
]


class OrbitMismatchError(ValueError):
    """The step's orbit structure does not match the cycle's reflection."""


class BudgetExceededError(RuntimeError):
    """A search or scan would exceed its budget or an internal bound."""


PairCycle = SymmetricStructure


def charge(x: Union[PairCycle, CycleWord]) -> int:
    """Q = 12 - D^2 - n, rewritten as 12 + sum(d_i) - 3n for a cyclic boundary."""
    c = x.cycle if isinstance(x, PairCycle) else x
    return 12 + sum(c.entries) - 3 * len(c)


def corner_blowup(c: CycleWord, node: int) -> CycleWord:
    """Blow up the node between components ``node`` and ``node + 1``.

    Inserts a 1 between them and increments both neighbors; preserves charge.
    """
    n = len(c)
    if n < 2:
        raise ValueError("corner blowup needs at least two components")
    if not 0 <= node < n:
        raise IndexError(f"node {node} out of range for length {n}")
    e = list(c.entries)
    e[node] += 1
    e[(node + 1) % n] += 1
    return CycleWord(tuple(e[: node + 1] + [1] + e[node + 1 :]))


def interior_blowup(c: CycleWord, i: int) -> CycleWord:
    """Blow up a smooth point on component i: that entry grows by one."""
    n = len(c)
    if not 0 <= i < n:
        raise IndexError(f"component {i} out of range for length {n}")
    e = list(c.entries)
    e[i] += 1
    return CycleWord(tuple(e))


@dataclass(frozen=True)
class CornerPair:
    """Corner blowups at a node and its mirror node."""

    node: int
    mirror: int


@dataclass(frozen=True)
class InteriorPair:
    """Interior blowups on a swapped pair of components."""

    i: int
    j: int


@dataclass(frozen=True)
class InteriorDouble:
    """Two interior blowups on one fixed component."""

    i: int


EquivariantStep = Union[CornerPair, InteriorPair, InteriorDouble]


def mirror_node(axis: Reflection, node: int) -> int:
    """The node exchanged with ``node`` by the reflection; never equals it."""
    return (axis.axis - node - 1) % axis.n


def node_orbits(p: PairCycle) -> list[CornerPair]:
    """The node pairs swapped by the reflection, one step per orbit."""
    out = []
    for i in range(p.n):
        j = mirror_node(p.axis, i)
        if i < j:
            out.append(CornerPair(i, j))
    return out


def interior_orbits(p: PairCycle) -> list[EquivariantStep]:
    """One interior step per component orbit: doubles on fixed, pairs elsewhere."""
    out: list[EquivariantStep] = []
    for i in range(p.n):
        j = p.axis.apply(i)
        if i == j:
            out.append(InteriorDouble(i))
        elif i < j:
            out.append(InteriorPair(i, j))
    return out


def apply_equivariant_step(p: PairCycle, step: EquivariantStep) -> PairCycle:
    """Perform both underlying blowups and recompute the reflection."""
    n = p.n
    if isinstance(step, CornerPair):
        i, j = step.node, step.mirror
        if not 0 <= i < n or j != mirror_node(p.axis, i) or i == j:
            raise OrbitMismatchError(f"{step} does not match {p.axis}")
        lo, hi = sorted((i, j))
        w = corner_blowup(corner_blowup(p.cycle, hi), lo)
        f1 = p.axis.fixed[0]
        if f1 > hi:
            f1 += 1
        if f1 > lo:
            f1 += 1
        return PairCycle(w, Reflection((2 * f1) % (n + 2), n + 2))
    if isinstance(step, InteriorPair):
        if step.i == step.j or step.j != p.axis.apply(step.i):
            raise OrbitMismatchError(f"{step} does not match {p.axis}")
        w = interior_blowup(interior_blowup(p.cycle, step.i), step.j)
        return PairCycle(w, p.axis)
    if isinstance(step, InteriorDouble):
        if p.axis.apply(step.i) != step.i:
            raise OrbitMismatchError(f"{step} is not on a fixed component of {p.axis}")
        e = list(p.cycle.entries)
        e[step.i] += 2
        return PairCycle(CycleWord(tuple(e)), p.axis)
    raise TypeError(f"unknown step {step!r}")


def canonical_pair_key(p: PairCycle) -> tuple[tuple[int, ...], int]:
    """Least (word, axis) over the dihedral relabelings acting on the pair."""
    return min(dihedral_relabelings(p.cycle.entries, p.axis.axis))


def canonicalize_pair(p: PairCycle) -> PairCycle:
    w, s = canonical_pair_key(p)
    return PairCycle(CycleWord(w), Reflection(s, p.n))


SEED = PairCycle(CycleWord((0, 0, 0, 0)), Reflection(2, 4))

MAX_TORIC_LENGTH = 30


@dataclass(frozen=True)
class ToricModel:
    """An equivariant toric pair cycle with its corner-pair construction."""

    pair: PairCycle
    schedule: tuple[CornerPair, ...]


_toric_memo: dict[int, tuple[ToricModel, ...]] = {}


def enumerate_equivariant_toric(
    n: int, cache: MutableMapping[int, tuple[ToricModel, ...]] | None = None
) -> tuple[ToricModel, ...]:
    """All pair cycles of length n reachable from the seed by corner pairs.

    Deduplicated under dihedral equivalence of the pair; each class keeps the
    first representative found together with its replayable schedule.  Raises
    ``BudgetExceededError`` for an even n past ``MAX_TORIC_LENGTH``.
    """
    if n % 2 or n < 4:
        raise ValueError(f"toric enumeration needs even length in [4, {MAX_TORIC_LENGTH}]")
    if n > MAX_TORIC_LENGTH:
        raise BudgetExceededError(
            f"toric models of length {n} are past the bound {MAX_TORIC_LENGTH}"
        )
    memo = _toric_memo if cache is None else cache
    if n in memo:
        return memo[n]
    if n == 4:
        models: tuple[ToricModel, ...] = (ToricModel(SEED, ()),)
    else:
        found: dict[tuple, ToricModel] = {}
        for model in enumerate_equivariant_toric(n - 2, cache):
            for orbit in node_orbits(model.pair):
                child = apply_equivariant_step(model.pair, orbit)
                key = canonical_pair_key(child)
                if key not in found:
                    found[key] = ToricModel(child, model.schedule + (orbit,))
        models = tuple(found[k] for k in sorted(found))
    memo[n] = models
    return models


def _axis_alignments(n: int, s_target: int, s_toric: int) -> list[tuple[int, ...]]:
    """The four index bijections toric -> target conjugating the two reflections:
    two rotations and two reflections, each pair n/2 apart, distinct for n >= 4."""
    half = n // 2
    maps = []
    r0 = (((s_target - s_toric) % n) // 2) % half
    for r in (r0, r0 + half):
        maps.append(tuple((i + r) % n for i in range(n)))
    t0 = (((s_target + s_toric) % n) // 2) % half
    for t in (t0, t0 + half):
        maps.append(tuple((t - i) % n for i in range(n)))
    return maps


def dominates_with_parity(target: PairCycle, toric: PairCycle) -> tuple[int, ...] | None:
    """First alignment under which target >= toric entrywise with even excess
    at the two fixed components, or None."""
    if target.n != toric.n:
        raise ValueError("pair cycles have different lengths")
    n = target.n
    te = target.cycle.entries
    oe = toric.cycle.entries
    for phi in _axis_alignments(n, target.axis.axis, toric.axis.axis):
        if all(te[phi[i]] >= oe[i] for i in range(n)) and all(
            (te[phi[f]] - oe[f]) % 2 == 0 for f in toric.axis.fixed
        ):
            return phi
    return None


@dataclass(frozen=True)
class ToricWitness:
    """A replayable construction certificate from the seed pair."""

    toric_cycle: PairCycle
    corner_schedule: tuple[CornerPair, ...]
    interior_schedule: tuple[EquivariantStep, ...]
    alignment: tuple[int, ...]


@dataclass(frozen=True)
class Decision:
    """Accepted with a witness, or Rejected with the exhaustion record."""

    accepted: bool
    witness: ToricWitness | None
    semidefinite: bool
    models_tried: int
    alignments_tried: int
    states_explored: int | None = None
    path: tuple[EquivariantStep, ...] | None = None


def replay_witness(w: ToricWitness, target: PairCycle) -> PairCycle:
    """Replay the certificate; raises if it does not rebuild ``target`` exactly."""
    state = SEED
    for step in w.corner_schedule:
        state = apply_equivariant_step(state, step)
    if state != w.toric_cycle:
        raise ValueError("corner schedule does not rebuild the toric pair")
    for step in w.interior_schedule:
        state = apply_equivariant_step(state, step)
    n = state.n
    phi = w.alignment
    if target.n != n or sorted(phi) != list(range(n)):
        raise ValueError("alignment is not an index bijection of the right length")
    if any(target.cycle.entries[phi[i]] != state.cycle.entries[i] for i in range(n)):
        raise ValueError("witness replay does not reproduce the target cycle")
    if any(phi[state.axis.apply(i)] != target.axis.apply(phi[i]) for i in range(n)):
        raise ValueError("alignment does not conjugate the reflections")
    return state


def _check_decidable(target: PairCycle) -> bool:
    """Returns the semidefinite flag; rejects cycles shorter than 4 or not
    negative (semi)definite, the only inputs the decision is stated for."""
    if target.n < 4:
        raise ValueError("pair cycles must have even length >= 4")
    e = target.cycle.entries
    if min(e) < 2:
        raise ValueError(f"{target.cycle} has an entry < 2; not negative (semi)definite")
    return max(e) == 2


def _build_witness(target: PairCycle, model: ToricModel, phi: tuple[int, ...]) -> ToricWitness:
    toric = model.pair
    n = toric.n
    delta = [target.cycle.entries[phi[i]] - toric.cycle.entries[i] for i in range(n)]
    steps: list[EquivariantStep] = []
    for i in range(n):
        j = toric.axis.apply(i)
        if i == j:
            steps.extend([InteriorDouble(i)] * (delta[i] // 2))
        elif i < j:
            if delta[i] != delta[j]:
                raise AssertionError("difference vector is not reflection-symmetric")
            steps.extend([InteriorPair(i, j)] * delta[i])
    witness = ToricWitness(toric, model.schedule, tuple(steps), phi)
    replay_witness(witness, target)
    return witness


def decide_equivariant_pair(target: PairCycle) -> Decision:
    """Accept iff some enumerated equivariant toric cycle dominates the target."""
    semidef = _check_decidable(target)
    models = enumerate_equivariant_toric(target.n)
    for count, model in enumerate(models, start=1):
        phi = dominates_with_parity(target, model.pair)
        if phi is not None:
            witness = _build_witness(target, model, phi)
            return Decision(True, witness, semidef, count, 4 * count)
    return Decision(False, None, semidef, len(models), 4 * len(models))


def _expand_moves(state: PairCycle, max_len: int, max_entry: int, max_charge: int):
    if state.n + 2 <= max_len:
        yield from node_orbits(state)
    if charge(state) + 2 <= max_charge:
        e = state.cycle.entries
        for step in interior_orbits(state):
            if isinstance(step, InteriorDouble):
                if e[step.i] + 2 <= max_entry:
                    yield step
            else:
                if e[step.i] + 1 <= max_entry and e[step.j] + 1 <= max_entry:
                    yield step


def _bfs(max_len: int, max_entry: int, max_charge: int, budget: int, stop_key=None):
    """Breadth-first closure of the move graph under monotone bounds.

    Returns (visited, hit) where visited maps canonical keys to an as-built
    representative and the step path that produced it.
    """
    start_key = canonical_pair_key(SEED)
    visited: dict[tuple, tuple[PairCycle, tuple[EquivariantStep, ...]]] = {
        start_key: (SEED, ())
    }
    if stop_key == start_key:
        return visited, start_key
    queue = deque([start_key])
    expanded = 0
    while queue:
        key = queue.popleft()
        expanded += 1
        if expanded > budget:
            raise BudgetExceededError(f"brute-force search exceeded {budget} states")
        state, path = visited[key]
        for step in _expand_moves(state, max_len, max_entry, max_charge):
            child = apply_equivariant_step(state, step)
            if max(child.cycle.entries) > max_entry:
                continue
            ck = canonical_pair_key(child)
            if ck in visited:
                continue
            visited[ck] = (child, path + (step,))
            if ck == stop_key:
                return visited, ck
            queue.append(ck)
    return visited, None


def reachable_pair_keys(
    max_len: int, max_entry: int, max_charge: int, budget: int = 2_000_000
) -> set[tuple]:
    """Canonical keys of every pair reachable from the seed within the bounds."""
    visited, _ = _bfs(max_len, max_entry, max_charge, budget)
    return set(visited)


def brute_force_reachability(target: PairCycle, budget: int = 500_000) -> Decision:
    """Exact reachability from the seed by breadth-first search.

    Pruning is by the monotone quantities length, charge and maximal entry,
    so the answer is exact whenever the search finishes within budget.  Unlike
    the decision procedure, any pair state is a legal target (the seed itself
    has zero entries).
    """
    semidef = all(e == 2 for e in target.cycle.entries)
    tkey = canonical_pair_key(target)
    visited, hit = _bfs(
        target.n, max(target.cycle.entries), charge(target), budget, stop_key=tkey
    )
    if hit is None:
        return Decision(False, None, semidef, 0, 0, states_explored=len(visited))
    state, path = visited[hit]
    witness = None
    if all(isinstance(s, CornerPair) for s in path):
        # corner-only path: the reached pair is itself toric
        phi = dominates_with_parity(target, state)
        if phi is not None and all(
            target.cycle.entries[phi[i]] == state.cycle.entries[i] for i in range(state.n)
        ):
            witness = ToricWitness(state, tuple(path), (), phi)
            replay_witness(witness, target)
    return Decision(True, witness, semidef, 0, 0, states_explored=len(visited), path=path)


def _axis_normal_vectors(p: PairCycle) -> list[tuple[int, ...]]:
    """The labelings of ``p`` with a fixed component at position 0, one per fixed
    component (equal when a half-turn swaps the two)."""
    e = p.cycle.entries
    return [e[f:] + e[:f] for f in p.axis.fixed]


def _scan_filter(
    n: int, max_entry: int, patterns: set[tuple[int, ...]]
) -> tuple[int, list[tuple[int, ...]]]:
    """Count the candidates of a scan and list those that dominate no pattern.

    Candidates are the labelings [f1, arm, f2, reversed arm] with entries in
    [2, max_entry], f1 and f2 even, that are definite (not all 2) and
    chargeable (entry sum >= 3n - 8).  The search is depth-first over the
    axis-normal coordinates (f1, f2, arm_1, ..., arm_{n/2-1}); patterns are
    axis-normal toric vectors, palindromic about position 0, so their entries
    at positions 0..n/2 decide domination.  The patterns the prefix still
    dominates are an int bitmask.  A subtree is dropped once a live pattern
    has no remaining entry above 2, so that every completion dominates it, or
    once no completion is chargeable; the cost follows the prefixes of the
    labelings that are not accepted.
    """
    half = n // 2
    depth = half + 1
    weights = (1, 1) + (2,) * (half - 1)
    evens = range(2, max_entry + 1, 2)
    values = (evens, evens) + (range(2, max_entry + 1),) * (half - 1)
    need = 3 * n - 8

    # sums only grow, so capping them at need keeps the count exact
    sums = {0: 1}
    for w, vs in zip(weights, values):
        nxt: dict[int, int] = {}
        for s, c in sums.items():
            for v in vs:
                t = min(s + w * v, need)
                nxt[t] = nxt.get(t, 0) + c
        sums = nxt
    all_two_chargeable = 2 * n >= need  # but not definite
    candidates = sums.get(need, 0) - all_two_chargeable

    vecs = [(p[0], p[half], *p[1:half]) for p in patterns]
    table = [{v: sum(1 << b for b, p in enumerate(vecs) if p[k] <= v) for v in values[k]}
             for k in range(depth)]
    low = [sum(1 << b for b, p in enumerate(vecs) if all(x <= 2 for x in p[k:]))
           for k in range(depth + 1)]
    rest = [sum(w * vs[-1] for w, vs in zip(weights[k:], values[k:])) for k in range(depth + 1)]
    survivors: list[tuple[int, ...]] = []

    def visit(k: int, live: int, total: int, prefix: tuple[int, ...]) -> None:
        if live & low[k] or total + rest[k] < need:
            return
        if k == depth:
            # never the all-2 labeling: it is chargeable only for n <= 8,
            # where a toric pattern has no entry above 2 and prunes the root
            f1, f2, *arm = prefix
            survivors.append((f1, *arm, f2, *arm[::-1]))
            return
        row = table[k]
        for v in values[k]:
            visit(k + 1, live & row[v], total + weights[k] * v, prefix + (v,))

    visit(0, (1 << len(vecs)) - 1, 0, ())
    return candidates, survivors


@dataclass(frozen=True)
class ScanFailure:
    """A cycle rejected on every symmetric axis, with its dual cusp."""

    cycle: CycleWord
    dual_cusp: CycleWord
    axes: tuple[Reflection, ...]


@dataclass(frozen=True)
class ScanResult:
    n: int
    max_entry: int
    candidates: int
    accepted: int
    failures: tuple[ScanFailure, ...]


def scan_length(n: int, max_entry: int = 10, budget: int | None = None) -> ScanResult:
    """Decide every symmetric negative-definite cycle of length n, entries
    <= max_entry, and return the ones rejected on all axes with their duals.

    Candidates with charge < 4 support no anticanonical pair at all (the
    charge of a negative definite pair is >= 3, and symmetry forces it even)
    and are outside the decision's scope, so they are filtered out.  The
    filter applies the domination criterion of the decision procedure as a
    depth-first search whose cost follows the non-accepted prefixes; every
    survivor is confirmed by the decision.  The labelings of a cycle with a
    fixed component first are candidates, so a cycle fails exactly when one
    such labeling per axis is a survivor.  Raises ``BudgetExceededError``
    when the labelings outnumber ``budget``, checked before any enumeration,
    or when n is past the bound of the toric enumeration.
    """
    if n % 2 or n < 4:
        raise ValueError("scan needs an even length >= 4")
    if max_entry < 4:
        raise ValueError("scan needs max_entry >= 4")
    total = (max_entry // 2) ** 2 * (max_entry - 1) ** (n // 2 - 1)
    if budget is not None and total > budget:
        raise BudgetExceededError(
            f"scan would examine {total} labelings, over the budget of {budget}"
        )
    models = enumerate_equivariant_toric(n)
    patterns = {v for m in models for v in _axis_normal_vectors(m.pair)}
    candidates, survivors = _scan_filter(n, max_entry, patterns)

    suspects: set[tuple[int, ...]] = set()
    for row in survivors:
        word = CycleWord(row)
        confirm = decide_equivariant_pair(PairCycle(word, Reflection(0, n)))
        if confirm.accepted:
            raise AssertionError(f"scan filter disagrees with the decision on {word}")
        suspects.add(canonicalize(word).entries)

    rejected = set(survivors)
    failures = []
    for entries in sorted(suspects):
        cyc = CycleWord(entries)
        axes = tuple(find_reflections(cyc))
        if all(_axis_normal_vectors(PairCycle(cyc, a))[0] in rejected for a in axes):
            failures.append(ScanFailure(cyc, dual(cyc), axes))
    return ScanResult(n, max_entry, candidates, candidates - len(survivors), tuple(failures))
