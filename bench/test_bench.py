"""The benchmark's own tests: its reference answers, its recorded scan
values, an oracle cross-check of rejects, and the harness itself.

    python3 -m pytest bench
"""

import json
import math
import random
import shutil
import subprocess
import sys
from pathlib import Path

import pytest

import checks
import reference as ref
import workloads as wl
from cuspsym import (CycleWord, PairCycle, Reflection, brute_force_reachability, canonicalize,
                     decide_equivariant_pair, dual, enumerate_equivariant_toric,
                     pi1_complement, scan_length)

BENCH = Path(__file__).resolve().parent
PATTERNS = ref.toric_patterns(16)


def reference_scan(n, max_entry):
    """(candidates, accepted, canonical failing duals) of an exhaustive scan,
    from the reference alone."""
    evens = range(2, max_entry + 1, 2)
    candidates = accepted = 0
    suspects = set()
    for f1 in evens:
        for fh in evens:
            for arm in _arms(n // 2 - 1, max_entry):
                v = (f1, *arm, fh, *reversed(arm))
                if max(v) == 2 or sum(v) < 3 * n - 8:
                    continue
                candidates += 1
                if ref.bounds_pair(v, 0, PATTERNS):
                    accepted += 1
                else:
                    suspects.add(ref.canonical(v))
    failing = {c for c in suspects
               if not any(ref.bounds_pair(c, s, PATTERNS) for s in ref.reflections(c))}
    return candidates, accepted, failing


def _arms(k, max_entry):
    if k == 0:
        yield ()
        return
    for head in range(2, max_entry + 1):
        for rest in _arms(k - 1, max_entry):
            yield (head, *rest)


def test_reference_toric_counts_match_library():
    for n in range(4, 17, 2):
        assert ref.toric_class_count(PATTERNS[n]) == len(enumerate_equivariant_toric(n)), n


def test_reference_decision_matches_library():
    rng = random.Random(31)
    for _ in range(600):
        n = rng.choice((6, 8, 10, 12, 14, 16))
        arm = [rng.choice((2, 2, 3, 3, 4, 6)) for _ in range(n // 2 - 1)]
        v = (rng.choice((2, 4)), *arm, rng.choice((2, 4)), *reversed(arm))
        r = rng.randrange(n)
        w, s = v[r:] + v[:r], (-2 * r) % n
        expected = decide_equivariant_pair(PairCycle(CycleWord(w), Reflection(s, n))).accepted
        assert ref.bounds_pair(w, s, PATTERNS) == expected, (w, s)


def test_reference_dual_and_pi1_match_library():
    rng = random.Random(32)
    for _ in range(300):
        c = wl.random_symmetric_cusp(rng, rng.choice((4, 6, 8, 10)), 12)
        assert CycleWord(ref.canonical(ref.cusp_dual(c))) == dual(CycleWord(c))
        assert len(ref.cusp_dual(c)) == ref.neg_e2(c)
        rays = wl.primitive_rays(rng, rng.randint(1, 8))
        g = pi1_complement(rays)
        assert (g.free_rank, g.invariant_factors) == ref.pi1_shape(rays)
    for _ in range(2000):
        w = tuple(rng.choice((2, 2, 3, 4)) for _ in range(rng.randint(1, 12)))
        assert ref.canonical(w) == canonicalize(CycleWord(w)).entries, w
    assert ref.pi1_shape([(1, 0), (-1, 0)]) == (1, ())
    assert ref.pi1_shape([(1, 1), (-1, 1)]) == (0, (2,))


def test_scan_reject_record_is_reproduced_by_the_reference():
    n, max_entry = wl.SCANS["scan-reject"]
    candidates, accepted, failing = reference_scan(n, max_entry)
    assert (candidates, accepted, len(failing)) == checks.SCAN_REJECT_EXPECTED
    assert checks.failing_digest(failing) == checks.SCAN_REJECT_DIGEST


def test_reference_scan_matches_library_scan():
    res = scan_length(12, 5)
    candidates, accepted, failing = reference_scan(12, 5)
    assert (res.candidates, res.accepted) == (candidates, accepted)
    assert {ref.canonical(f.cycle.entries) for f in res.failures} == failing


def _rejects_sample():
    """A seeded sample of rejected (cycle, axis) pairs from both scans and
    from the smoothable stream, short enough for the oracle."""
    rng = random.Random(33)
    dense = [(d, s) for _, d in wl.FAILING_12 for s in ref.reflections(d)]
    _, _, reject_set = reference_scan(*wl.SCANS["scan-reject"])
    sparse = [(d, s) for d in sorted(reject_set) for s in ref.reflections(d)]
    stream = []
    for req in next(wl.rounds("smoothable", 33)):
        if req.kind == "symmetric" and ref.neg_e2(req.cycle) <= 14:
            d = ref.cusp_dual(req.cycle)
            stream += [(d, s) for s in ref.reflections(d) if not ref.bounds_pair(d, s, PATTERNS)]
    return rng.sample(dense, 3) + rng.sample(sparse, 2) + stream[:3]


@pytest.mark.parametrize("cycle,axis", _rejects_sample())
def test_rejects_agree_with_the_brute_force_oracle(cycle, axis):
    target = PairCycle(CycleWord(tuple(cycle)), Reflection(axis, len(cycle)))
    assert not decide_equivariant_pair(target).accepted
    assert not brute_force_reachability(target, budget=2_000_000).accepted


def test_workload_inputs_depend_only_on_the_seed():
    for name in ("smoothable", "invariants"):
        a, b, c = wl.rounds(name, 5), wl.rounds(name, 5), wl.rounds(name, 6)
        first = [next(a) for _ in range(3)]
        assert first == [next(b) for _ in range(3)]
        assert first != [next(c) for _ in range(3)]


def test_smoothable_round_composition_is_fixed():
    for seed in range(5):
        batch = next(wl.rounds("smoothable", seed))
        kinds = sorted(r.kind for r in batch)
        assert len(batch) == 42 and kinds.count("long") == 2
        assert kinds.count("failing12") == 13 and kinds.count("all2") == 3
        duals = sorted(ref.neg_e2(r.cycle) for r in batch if r.kind == "symmetric")
        assert duals == sorted(wl.SMOOTHABLE_DUAL_LENGTHS)
        for r in batch:
            if r.kind == "long":
                assert ref.neg_e2(r.cycle) > 30 and ref.reflections(r.cycle)
            if r.kind == "mult2":
                assert ref.neg_e2(r.cycle) == 2 and ref.reflections(r.cycle)


def test_invariants_inputs_are_valid_symmetric_cusps():
    batch = next(wl.rounds("invariants", 1))
    assert sorted(len(r.cusp) for r in batch) == list(wl.INVARIANT_CUSP_LENGTHS)
    for r in batch:
        assert ref.reflections(r.cusp) and max(r.cusp) <= wl.INVARIANT_MAX_ENTRY
        assert all(math.gcd(x, y) == 1 for x, y in r.rays)


def _run(cwd, workload, trace=0, seconds=1):
    return subprocess.run(
        [sys.executable, "bench/run.py", "--workload", workload, "--seed", "7",
         "--seconds", str(seconds), "--trace", str(trace)],
        cwd=cwd, capture_output=True, text=True, timeout=170)


@pytest.mark.parametrize("workload,trace", [("invariants", 0), ("smoothable", 0),
                                            ("scan-reject", 1)])
def test_run_reports_every_declared_metric(workload, trace):
    proc = _run(BENCH.parent, workload, trace)
    assert proc.returncode == 0, proc.stdout + proc.stderr
    result = json.loads(proc.stdout.strip().splitlines()[-1])
    declared = json.loads((BENCH.parent / "BENCHMARK.json").read_text())
    units = {m["name"]: m["unit"] for m in declared["per_layer" if trace else "end_to_end"]}
    assert sorted(result) == ["attempted", "correct", "failed", "metrics"]
    assert result["correct"]
    assert {k: v["unit"] for k, v in result["metrics"].items()} == units
    if workload == "smoothable":
        # the known defect: valid cusps whose dual is longer than 30 get exit 1
        assert result["failed"] * 42 == result["attempted"] * 2
    else:
        assert result["failed"] == 0
    assert not (BENCH.parent / ".bench_tmp").exists()


def test_run_fails_without_the_program(tmp_path):
    shutil.copytree(BENCH, tmp_path / "bench", ignore=shutil.ignore_patterns("__pycache__"))
    shutil.copy(BENCH.parent / "BENCHMARK.json", tmp_path)
    proc = _run(tmp_path, "smoothable")
    assert proc.returncode != 0
    assert '"correct"' not in proc.stdout
