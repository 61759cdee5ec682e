"""Correctness gate: every output of a run is compared with the reference.

A check returns None when the output is right and a one-line reason when it
is wrong.  Checks run after the timed region.  Verdicts are compared with
``reference`` (independent of cuspsym); accept verdicts must also carry a
witness that cuspsym's own ``replay_witness`` rebuilds.
"""

from __future__ import annotations

import hashlib
import json

import reference as ref
from workloads import FAILING_12, Invariants, Smoothable

HOLDS = "equivariant Looijenga pair exists"
FAILS = "no equivariant pair"
MULT2 = "equivariantly smoothable"
NOT_SYMMETRIC = "not symmetric"

SCAN_DENSE_EXPECTED = (1_476_217, 1_476_192, 13)
# counts and failing-set digest of `scan --length 14 --max-entry 4`, recorded
# from cuspsym 0.1.0 and reproduced by the benchmark's own reference scan
SCAN_REJECT_EXPECTED = (2873, 2651, 115)
SCAN_REJECT_DIGEST = "4fb980962cd023857e3cc12d75c09b60c7285fc7fe05f4b207a9c8fd7a97384c"


def failing_digest(duals) -> str:
    """sha256 of the sorted canonical forms of a set of failing cycles."""
    keys = sorted({ref.canonical(d) for d in duals})
    return hashlib.sha256(json.dumps(keys).encode()).hexdigest()


class Checker:
    """Holds the toric patterns and memoised reference verdicts."""

    def __init__(self, cs, max_toric: int) -> None:
        self.cs = cs
        self.patterns = ref.toric_patterns(max_toric)
        self._memo: dict[tuple, bool] = {}
        self._scans: dict[str, str | None] = {}

    def bounds(self, cycle, s: int) -> bool:
        key = ref.axis_normal(tuple(cycle), s)
        if key not in self._memo:
            if 12 + sum(key) - 3 * len(key) >= 0 and len(key) not in self.patterns:
                raise ValueError(f"no reference for boundary length {len(key)}")
            self._memo[key] = ref.bounds_pair(key, 0, self.patterns)
        return self._memo[key]

    def replay(self, w: dict, cycle, s: int) -> None:
        cs = self.cs
        interior = tuple(cs.InteriorDouble(i) if i == j else cs.InteriorPair(i, j)
                         for i, j in w["interior_steps"])
        toric = cs.PairCycle(cs.CycleWord(tuple(w["toric_cycle"])),
                             cs.Reflection(w["axis"], len(w["toric_cycle"])))
        witness = cs.ToricWitness(toric, tuple(cs.CornerPair(a, b) for a, b in w["corner_steps"]),
                                  interior, tuple(w["alignment"]))
        cs.replay_witness(witness, cs.PairCycle(cs.CycleWord(tuple(cycle)),
                                                cs.Reflection(s, len(cycle))))

    def smoothable(self, req: Smoothable, out: str) -> str | None:
        verdicts = [r for r in map(json.loads, out.splitlines()) if r["record"] == "verdict"]
        c = req.cycle
        axes = ref.reflections(c)
        if req.kind == "nonsymmetric" or not axes:
            ok = [(v["axis"], v["verdict"]) for v in verdicts] == [(None, NOT_SYMMETRIC)]
            return None if ok and req.kind == "nonsymmetric" else f"{c}: {verdicts}"
        if sorted(v["axis"] for v in verdicts) != axes:
            return f"{c}: verdict axes {[v['axis'] for v in verdicts]} != {axes}"
        if req.kind == "mult2":
            bad = [v for v in verdicts if not v["verdict"].startswith(MULT2)]
            return f"{c}: {bad}" if bad else None
        dual = c if req.dual_given else ref.canonical(ref.cusp_dual(c))
        for v in verdicts:
            d, s = tuple(v["dual_cycle"]), v["dual_axis"]
            if (d if req.dual_given else ref.canonical(d)) != dual or not ref.is_axis(d, s):
                return f"{c}: dual {d} axis {s}, expected {dual}"
            if v["semidefinite"] != (max(d) == 2):
                return f"{c}: semidefinite flag {v['semidefinite']}"
            expected = self.bounds(d, s)
            if req.kind in ("failing12", "long") and expected:
                raise AssertionError(f"reference accepts {c}, which must fail")
            if v["verdict"].startswith(HOLDS) != expected or not (
                    v["verdict"].startswith(HOLDS) or v["verdict"].startswith(FAILS)):
                return f"{c} axis {v['axis']}: {v['verdict']!r}, expected holds={expected}"
            if expected:
                try:
                    self.replay(v["witness"], d, s)
                except (KeyError, TypeError, ValueError) as exc:
                    return f"{c} axis {v['axis']}: witness does not replay: {exc}"
        return None

    def scan(self, workload: str, out: str) -> str | None:
        if out not in self._scans:
            self._scans[out] = self._scan(workload, out)
        return self._scans[out]

    def _scan(self, workload: str, out: str) -> str | None:
        recs = [json.loads(line) for line in out.splitlines()]
        head = recs[0]
        counts = (head["candidates"], head["accepted"], head["failing"])
        duals = [tuple(r["dual"]) for r in recs if r["record"] == "failing"]
        for r in recs:
            if r["record"] == "failing" and any(self.bounds(r["dual"], s) for s in r["axes"]):
                return f"reference accepts failing cycle {r['dual']}"
        if workload == "scan-dense":
            want = {ref.canonical(d) for _, d in FAILING_12}
            if counts != SCAN_DENSE_EXPECTED or {ref.canonical(d) for d in duals} != want:
                return f"scan-dense counts {counts} or failing set differ"
        elif counts != SCAN_REJECT_EXPECTED or failing_digest(duals) != SCAN_REJECT_DIGEST:
            return f"scan-reject counts {counts} or digest {failing_digest(duals)} differ"
        return None

    def invariants(self, req: Invariants, result: dict) -> str | None:
        cs, c = self.cs, req.cusp
        d = result["dual"].entries
        if not result["valid"] or d != ref.canonical(ref.cusp_dual(c)) or len(d) != ref.neg_e2(c):
            return f"{c}: dual {d}"
        if cs.dual(result["dual"]) != cs.canonicalize(cs.CycleWord(c)):
            return f"{c}: dual(dual(c)) != canonicalize(c)"
        if result["axes"] != ref.reflections(c):
            return f"{c}: axes {result['axes']}"
        for ind, datum, graph, cl in result["per_axis"]:
            if (ref.canonical(ind.cycle.entries) != d
                    or not ref.is_axis(ind.cycle.entries, ind.axis.axis)):
                return f"{c}: induced reflection {ind}"
            if datum.A.det() != 1 or datum.A.trace() != ref.trace_of_cycle(c):
                return f"{c}: involution matrix {datum.A}"
            if (len(graph.chain) != len(c) // 2 + 1 or cl.free_rank != len(graph.chain)
                    or cl.invariant_factors != (2, 2)):
                return f"{c}: class group {cl}"
        pi1 = result["pi1"]
        if (pi1.free_rank, pi1.invariant_factors) != ref.pi1_shape(req.rays):
            return f"rays {req.rays}: pi1 {pi1}"
        return None
