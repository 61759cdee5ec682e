#!/usr/bin/env python3
"""Benchmark of the cuspsym tool, end to end and per module.

    python3 bench/run.py --workload NAME --seed N --seconds S --trace 0|1

NAME is smoothable, scan-dense, scan-reject, invariants, or all (each of the
four in a fresh process, one after the other).  Run from anywhere; the
program is imported from ``src/`` of the checkout that holds this file, and
the run fails if it is missing.

One client, closed loop: each request is issued when the previous one has
returned, in one process with no extra threads.  CLI workloads call
``cuspsym.cli.main`` in process; ``invariants`` calls the library's public
functions.  Set-up (import, cold toric enumeration, cache write) runs in a
fresh interpreter, five times, into fresh cache directories under
``.bench_tmp/`` of the checkout; the run deletes them when it ends.

With ``--trace 0`` the run reports the end-to-end metrics; with ``--trace 1``
it times the same rounds untraced and traced and reports per-module metrics
and the tracing overhead.  Times are scaled to a reference CPU speed by a
calibration loop timed between rounds (see CAL_REFERENCE_S); the unscaled
values are printed as well.  The last line of output is one JSON object.  A
wrong output sets ``correct`` to false and the exit code to 1.
"""

from __future__ import annotations

import argparse
import io
import json
import os
import platform
import resource
import shutil
import statistics
import subprocess
import sys
from contextlib import redirect_stderr, redirect_stdout
from pathlib import Path
from time import perf_counter
from typing import NamedTuple

BENCH = Path(__file__).resolve().parent
ROOT = BENCH.parent
SRC = ROOT / "src"
sys.path.insert(0, str(BENCH))

import checks  # noqa: E402
import tracing  # noqa: E402
import workloads as wl  # noqa: E402

WORKLOADS = ("smoothable", "scan-dense", "scan-reject", "invariants")
SETUP_REPEATS = 5
# The CPU speed of a small shared machine can swing by 1.6x between phases
# that last seconds (seen on a 2-vCPU virtual machine, where a fixed loop
# alternated between about 10 and 16 ms).  Every time is therefore scaled
# to a reference speed: multiplied by CAL_REFERENCE_S over the time that a
# calibration loop took around it.  The loop is integer arithmetic that
# allocates nothing, so neither the program nor its heap can change its
# speed.  Unscaled times are printed too.
CAL_REFERENCE_S = 0.0075
CAL_STEPS = 60_000
CAL_REPEATS = 3
SETUP_TIMEOUT_S = 120
SETUP_SCRIPT = """
import sys
sys.path.insert(0, sys.argv[1])
from cuspsym.cli import main
for n in sys.argv[3:]:
    argv = ["enumerate-toric", "--length", n, "--format", "machine", "--cache-dir", sys.argv[2]]
    if main(argv) != 0:
        raise SystemExit(f"enumerate-toric --length {n} failed")
"""


def import_program():
    """Import cuspsym from this checkout's src/, or stop with an error."""
    if not (SRC / "cuspsym" / "__init__.py").is_file():
        raise SystemExit(f"bench: {SRC / 'cuspsym'} not found; run from a full checkout")
    sys.path.insert(0, str(SRC))
    import cuspsym
    import cuspsym.cli

    if Path(cuspsym.__file__).resolve().parent != (SRC / "cuspsym").resolve():
        raise SystemExit(f"bench: imported cuspsym from {cuspsym.__file__}, not {SRC}")
    return cuspsym


def environment() -> dict:
    import numpy

    head = ROOT / ".git" / "HEAD"
    commit = "unknown"
    if head.is_file():
        ref_line = head.read_text().strip()
        commit = ref_line
        if ref_line.startswith("ref: "):
            ref_file = ROOT / ".git" / ref_line[5:]
            commit = ref_file.read_text().strip() if ref_file.is_file() else ref_line[5:]
    src_lines = sum(len(p.read_text().splitlines()) for p in SRC.rglob("*.py"))
    return {"python": platform.python_version(), "numpy": numpy.__version__,
            "nproc": os.cpu_count(), "commit": commit, "src_lines": src_lines}


def calibration_s() -> float:
    """Median time of the calibration loop."""
    times = []
    for _ in range(CAL_REPEATS):
        t0 = perf_counter()
        x = 0
        for i in range(CAL_STEPS):
            x = (x * 31 + i) % 1_000_003
        times.append(perf_counter() - t0)
    return statistics.median(times)


def speed_scale(before: float, after: float) -> float:
    """Factor that takes a time measured between two calibrations to the
    reference speed."""
    return 2 * CAL_REFERENCE_S / (before + after)


def setup(workload: str, cache_dir: Path) -> tuple[float, float]:
    """One set-up in a fresh interpreter: its wall time in seconds, and the
    speed scale measured around it."""
    lengths = [str(n) for n in wl.toric_lengths(workload)]
    before = calibration_s()
    t0 = perf_counter()
    subprocess.run([sys.executable, "-c", SETUP_SCRIPT, str(SRC), str(cache_dir), *lengths],
                   check=True, stdout=subprocess.DEVNULL, timeout=SETUP_TIMEOUT_S)
    wall = perf_counter() - t0
    return wall, speed_scale(before, calibration_s())


def call_cli(cli, argv: list[str]) -> tuple[int | None, str, float]:
    out = io.StringIO()
    t0 = perf_counter()
    try:
        with redirect_stdout(out), redirect_stderr(io.StringIO()):
            rc = cli.main(argv)
    except SystemExit as exc:  # argparse exits on flags it rejects
        rc = exc.code
    except Exception as exc:  # a crash is a failed request, reported below
        rc, out = None, io.StringIO(f"{type(exc).__name__}: {exc}")
    return rc, out.getvalue(), perf_counter() - t0


def call_api(cs, req: wl.Invariants) -> tuple[int | None, dict | str, float]:
    """One invariants request through the public functions of cuspsym."""
    t0 = perf_counter()
    try:
        c = cs.CycleWord(req.cusp)
        result = {"valid": cs.validate_cusp(c).ok, "dual": cs.dual(c)}
        axes = cs.find_reflections(c)
        result["axes"] = [a.axis for a in axes]
        per_axis = []
        for a in axes:
            sym = cs.SymmetricStructure(c, a)
            graph = cs.quotient_resolution_graph(sym)
            per_axis.append((cs.induced_dual_reflection(sym), cs.build_involution_datum(sym),
                             graph, cs.class_group_of_quotient(graph)))
        result["per_axis"] = per_axis
        result["pi1"] = cs.pi1_complement(req.rays)
    except Exception as exc:  # a crash is a failed request, reported below
        return None, f"{type(exc).__name__}: {exc}", perf_counter() - t0
    return 0, result, perf_counter() - t0


class Outcome(NamedTuple):
    round: int
    req: object
    rc: int | None
    seconds: float
    ops: int
    problem: str | None
    scale: float = 1.0  # speed scale of the round, from calibrations around it


def judge(workload: str, checker, req, rc, out) -> tuple[int, str | None]:
    """The operations a request completed, and what is wrong with its output."""
    if rc != 0:
        # the one documented defect: a valid cusp whose dual is longer than
        # the toric enumeration bound gets no verdict; it counts as failed
        known = workload == "smoothable" and req.kind == "long"
        return (0 if workload in wl.SCANS else 1,
                None if known else f"{req}: exit {rc}: {str(out)[:200]}")
    try:
        if workload == "smoothable":
            return 1, checker.smoothable(req, out)
        if workload == "invariants":
            return 1, checker.invariants(req, out)
        body = "\n".join(out.splitlines()[:-1])  # drop the meta record, which holds a time
        return json.loads(body.splitlines()[0])["candidates"], checker.scan(workload, body)
    except (LookupError, TypeError, ValueError) as exc:  # malformed output
        return 0, f"{req}: unreadable output: {type(exc).__name__}: {exc}"


def run_rounds(workload, cs, rounds, cache_dir: str, seconds: float | None, checker,
               tracer=None) -> tuple[list[Outcome], float]:
    """Issue whole rounds, closed loop, until the requests have taken
    ``seconds`` (or the rounds run out).  Each output is checked and
    dropped as soon as it is timed, so neither checking nor making inputs
    is timed and stored outputs do not inflate peak memory.  A tracer, if
    given, tags the spans of each request with its index."""
    results: list[Outcome] = []
    busy = 0.0
    before = calibration_s()
    for i, batch in enumerate(rounds):
        done = []
        for req in batch:
            if tracer is not None:
                tracer.request = len(results) + len(done)
            if workload == "invariants":
                rc, out, dt = call_api(cs, req)
            else:
                rc, out, dt = call_cli(cs.cli, req.argv(cache_dir))
            if tracer is not None:
                tracer.request = -1
            done.append(Outcome(i, req, rc, dt, *judge(workload, checker, req, rc, out)))
            busy += dt
        after = calibration_s()
        results += [r._replace(scale=speed_scale(before, after)) for r in done]
        before = after
        if seconds is not None and busy >= seconds:
            break
    return results, busy


def latency_ms(results: list[Outcome]) -> tuple[float, float, int]:
    """Median and 95th percentile (linear interpolation between closest
    ranks) of the successful operations, and their count."""
    lat = sorted(r.seconds * 1e3 for r in results if r.rc == 0)
    if len(lat) < 2:
        return (lat[0], lat[0], len(lat)) if lat else (0.0, 0.0, 0)
    p95 = statistics.quantiles(lat, n=20, method="inclusive")[18]
    return statistics.median(lat), p95, len(lat)


def ops_per_s(results: list[Outcome]) -> float:
    """Median over rounds of the round's operations per second of request
    time: requests for the request workloads, labelings decided for the
    scans.  Every round has the same composition, so rounds compare."""
    ops: dict[int, float] = {}
    busy: dict[int, float] = {}
    for r in results:
        ops[r.round] = ops.get(r.round, 0) + r.ops
        busy[r.round] = busy.get(r.round, 0.0) + r.seconds
    return statistics.median(ops[i] / busy[i] for i in ops)


def traced_enumeration(cs, tracer, workload: str) -> dict:
    """Cold enumeration of the workload's toric lengths, traced, plus the
    throughput of canonical_pair_key over the models it produced."""
    lengths = wl.toric_lengths(workload)
    models = []
    if lengths:
        cache: dict = {}
        cs.pairs.enumerate_equivariant_toric(max(lengths), cache)
        models = [m.pair for n in lengths for m in cache[n]]
    out = tracing.enumeration_metrics(tracer.spans)
    rate = 0.0
    if models:
        key = cs.pairs.canonical_pair_key
        calls, t0 = 0, perf_counter()
        while perf_counter() - t0 < 0.3:
            for p in models:
                key(p)
            calls += len(models)
        rate = calls / (perf_counter() - t0)
    out["pairs.canonical_key_per_s"] = (rate, "1/s")
    return out


def measure(workload: str, seed: int, seconds: float, trace: bool) -> int:
    cs = import_program()
    env = environment()
    work = ROOT / ".bench_tmp" / f"{workload}-{seed}-{os.getpid()}"
    work.mkdir(parents=True)
    # stray cache writes (none are expected: every call names --cache-dir)
    # land inside the run's own directory, never in ~/.cache
    os.environ["CUSPSYM_CACHE_DIR"] = str(work / "env-cache")
    os.environ["XDG_CACHE_HOME"] = str(work / "xdg-cache")
    try:
        repeats = 1 if trace else SETUP_REPEATS
        setups = [setup(workload, work / f"cache-{i}") for i in range(repeats)]
        cache_dir = str(work / f"cache-{len(setups) - 1}")
        checker = checks.Checker(cs, max(wl.toric_lengths(workload) or (4,)))
        stream = wl.rounds(workload, seed)
        if trace:
            metrics, results, wall = traced_run(cs, workload, stream, cache_dir, seconds,
                                                checker)
        else:
            results, wall = run_rounds(workload, cs, stream, cache_dir, seconds, checker)
            peak_mb = resource.getrusage(resource.RUSAGE_SELF).ru_maxrss / 1024
            p50, p95, samples = latency_ms(results)
            ops, setup_s = ops_per_s(results), statistics.median(w for w, _ in setups)
            # the run's speed scale: the median over its rounds' calibrations
            k = statistics.median(r.scale for r in results)
            metrics = {
                "setup_s": (statistics.median(w * ks for w, ks in setups), "s"),
                "ops_per_s": (ops / k, "1/s"),
                "latency_p50_ms": (p50 * k, "ms"),
                "latency_p95_ms": (p95 * k, "ms"),
                "peak_rss_mb": (peak_mb, "MB"),
            }
            print(f"latency samples: {samples}")
            print(f"unscaled: setup_s {setup_s:.6g} s, ops_per_s {ops:.6g} 1/s, "
                  f"latency_p50_ms {p50:.6g} ms, latency_p95_ms {p95:.6g} ms; "
                  f"speed scale {k:.4f}")
    finally:
        shutil.rmtree(work, ignore_errors=True)
        try:
            work.parent.rmdir()
        except OSError:
            pass
    failed = sum(1 for r in results if r.rc != 0)
    wrong = [r.problem for r in results if r.problem]
    for problem in wrong[:20]:
        print(f"WRONG: {problem}")
    attempted = len(results)
    print(f"env: {json.dumps(env, sort_keys=True)}")
    print(f"workload {workload}, seed {seed}: {attempted} operations, {wall:.3f} s of "
          f"request time, {len(wrong)} wrong")
    print(f"failed_frac {failed / attempted:.6f} 1")
    for name, (value, unit) in metrics.items():
        print(f"{name} {value:.6g} {unit}")
    if trace:
        print("wait time: none reported; no module queues work")
    print(json.dumps({
        "correct": not wrong,
        "attempted": attempted,
        "failed": failed,
        "metrics": {k: {"value": v, "unit": u} for k, (v, u) in metrics.items()},
    }))
    return 0 if not wrong else 1


def traced_run(cs, workload, stream, cache_dir, seconds, checker):
    """The same rounds untraced, then traced; per-module metrics from the
    traced pass and its overhead over the untraced one."""
    batches = []

    def recorded():
        for batch in stream:
            batches.append(batch)
            yield batch

    plain, plain_busy = run_rounds(workload, cs, recorded(), cache_dir, seconds / 2, checker)
    tracer = tracing.Tracer()
    tracer.install()
    try:
        metrics = traced_enumeration(cs, tracer, workload)
        traced, traced_busy = run_rounds(workload, cs, batches, cache_dir, None, checker,
                                         tracer)
    finally:
        tracer.uninstall()
    metrics.update(tracing.layer_metrics(tracer.spans, len(traced)))
    # per-module times come from spans, so they take the pass's median scale
    scale = statistics.median(r.scale for r in traced)
    for name, (value, unit) in metrics.items():
        if unit.startswith("ms"):
            metrics[name] = (value * scale, unit)
        elif unit == "1/s":
            metrics[name] = (value / scale, unit)
    scaled_plain = plain_busy * statistics.median(r.scale for r in plain)
    metrics["trace.overhead_pct"] = ((traced_busy * scale - scaled_plain) / scaled_plain * 100,
                                     "%")
    return metrics, plain + traced, plain_busy + traced_busy


def run_all(args) -> int:
    code = 0
    for name in WORKLOADS:
        print(f"== {name}", flush=True)
        proc = subprocess.run([sys.executable, __file__, "--workload", name,
                               "--seed", str(args.seed), "--seconds", str(args.seconds),
                               "--trace", str(args.trace)])
        code = code or proc.returncode
    return code


def main() -> int:
    p = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    p.add_argument("--workload", required=True, choices=WORKLOADS + ("all",))
    p.add_argument("--seed", type=int, required=True)
    p.add_argument("--seconds", type=float, required=True)
    p.add_argument("--trace", type=int, choices=(0, 1), default=0)
    args = p.parse_args()
    if args.workload == "all":
        return run_all(args)
    return measure(args.workload, args.seed, args.seconds, bool(args.trace))


if __name__ == "__main__":
    sys.exit(main())
