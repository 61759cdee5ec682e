"""Command-line surface: thin adapters over the library plus report assembly.

Reports carry the same data in both renderings: ``--format machine`` emits one
JSON object per line (result records first, a meta record last), ``--format
text`` prints the same fields labeled for reading.  Exit codes: 0 = decision
rendered (negative verdicts included), 1 = invalid input, 2 = budget or bound
exceeded.
"""

from __future__ import annotations

import argparse
import json
import sys
import time

from . import __version__
from .cycles import (
    CycleWord,
    InvalidCuspError,
    Reflection,
    SymmetricStructure,
    dual,
    find_reflections,
    induced_dual_reflection,
    multiplicity,
    neg_self_intersection,
    quotient_resolution_graph,
    require_valid_cusp,
    validate_cusp,
)
from .lattice import class_group_of_quotient, pi1_complement
from .pairs import (
    BudgetExceededError,
    charge,
    decide_equivariant_pair,
    enumerate_equivariant_toric,
    scan_length,
)
from .sl2 import build_involution_datum, is_hyperbolic, matrix_of_cycle

VERDICT_HOLDS = "equivariant Looijenga pair exists (sufficient condition holds)"
VERDICT_FAILS = (
    "no equivariant pair (sufficient condition fails; "
    "conjecturally not equivariantly smoothable)"
)
VERDICT_NOT_SYMMETRIC = "not symmetric"
VERDICT_MULT2 = "equivariantly smoothable (multiplicity-2 hypersurface family)"


class CliError(ValueError):
    pass


class _Parser(argparse.ArgumentParser):
    def error(self, message):  # invalid flags are invalid input, not crashes
        self.exit(1, f"{self.prog}: error: {message}\n")


def _parse_cycle(text: str) -> CycleWord:
    cleaned = text.strip().strip("()")
    try:
        entries = tuple(int(p) for p in cleaned.split(",") if p.strip() != "")
    except ValueError:
        raise CliError(f"malformed cycle {text!r}; expected comma-separated integers")
    if not entries:
        raise CliError("empty cycle")
    return CycleWord(entries)


def _parse_rays(text: str) -> list[tuple[int, int]]:
    rays = []
    for part in text.split(";"):
        part = part.strip().strip("()")
        if not part:
            continue
        bits = part.split(",")
        if len(bits) != 2:
            raise CliError(f"malformed ray {part!r}; expected x,y")
        try:
            rays.append((int(bits[0]), int(bits[1])))
        except ValueError:
            raise CliError(f"malformed ray {part!r}; expected integers")
    return rays


def _witness_record(w) -> dict:
    return {
        "toric_cycle": list(w.toric_cycle.cycle.entries),
        "axis": w.toric_cycle.axis.axis,
        "alignment": list(w.alignment),
        "corner_steps": [[s.node, s.mirror] for s in w.corner_schedule],
        "interior_steps": [
            [s.i, s.j] if hasattr(s, "j") else [s.i, s.i] for s in w.interior_schedule
        ],
    }


def _select_axes(cycle: CycleWord, args) -> list[Reflection]:
    axes = find_reflections(cycle)
    if getattr(args, "axis", None) is not None:
        axes = [a for a in axes if a.axis == args.axis % len(cycle)]
        if not axes:
            raise CliError(f"axis {args.axis} is not a symmetric axis of {cycle}")
    return axes


def _symmetry_header(cycle: CycleWord, args) -> tuple[list[Reflection], list[dict]]:
    """The selected axes and the ``symmetry`` record that heads the report."""
    axes = _select_axes(cycle, args)
    return axes, [{"record": "symmetry", "cycle": list(cycle.entries), "axes": len(axes),
                   "note": None if axes else "no symmetric structure"}]


# ---------------------------------------------------------------- commands


def _cmd_validate(args) -> tuple[list[dict], int]:
    c = _parse_cycle(args.cycle)
    rep = validate_cusp(c)
    rec = {"record": "validation", "cycle": list(c.entries), "ok": rep.ok,
           "failures": list(rep.failures)}
    if rep.ok:
        rec["neg_self_intersection"] = neg_self_intersection(c)
        rec["multiplicity"] = multiplicity(c)
    return [rec], 0


def _cmd_dual(args) -> tuple[list[dict], int]:
    c = _parse_cycle(args.cycle)
    require_valid_cusp(c)
    d = dual(c)
    return [{"record": "dual", "cycle": list(c.entries), "dual": list(d.entries),
             "dual_length": len(d)}], 0


def _cmd_symmetry(args) -> tuple[list[dict], int]:
    c = _parse_cycle(args.cycle)
    axes, recs = _symmetry_header(c, args)
    recs.extend({"record": "axis", "axis": a.axis, "fixed": list(a.fixed)} for a in axes)
    return recs, 0


def _cmd_involution(args) -> tuple[list[dict], int]:
    c = _parse_cycle(args.cycle)
    require_valid_cusp(c)
    axes, recs = _symmetry_header(c, args)
    for a in axes:
        datum = build_involution_datum(SymmetricStructure(c, a))
        recs.append({
            "record": "involution",
            "axis": a.axis,
            "A": [list(r) for r in datum.A.rows()],
            "B": [list(r) for r in datum.B.rows()],
            "u0_mod2": list(datum.u0_mod2),
            "u_half_mod2": list(datum.u_half_mod2),
            "t_candidates": [list(t) for t in datum.t_candidates],
            "hyperbolic": is_hyperbolic(datum.A),
        })
    if len(c) == 1:
        m = matrix_of_cycle(c)
        recs.append({
            "record": "note",
            "note": "length-1 cycle: companion matrix is non-hyperbolic"
            if not is_hyperbolic(m) else "length-1 cycle",
        })
    return recs, 0


def _cmd_quotient(args) -> tuple[list[dict], int]:
    c = _parse_cycle(args.cycle)
    require_valid_cusp(c)
    axes, recs = _symmetry_header(c, args)
    for a in axes:
        g = quotient_resolution_graph(SymmetricStructure(c, a))
        cl = class_group_of_quotient(g)
        recs.append({
            "record": "quotient",
            "axis": a.axis,
            "chain": list(g.chain),
            "forks": [2, 2, 2, 2],
            "fork_attachments": list(g.fork_attachments),
            "vertex_count": g.vertex_count,
            "class_group": str(cl),
            "free_rank": cl.free_rank,
            "invariant_factors": list(cl.invariant_factors),
        })
    return recs, 0


def _cmd_pi1(args) -> tuple[list[dict], int]:
    rays = _parse_rays(args.blowup_rays)
    group = pi1_complement(rays)
    rec = {"record": "pi1", "rays": [list(r) for r in rays], "group": str(group),
           "free_rank": group.free_rank, "invariant_factors": list(group.invariant_factors)}
    if not rays:
        rec["note"] = "empty ray list: group of the unblown torus, flagged"
    return [rec], 0


def _cmd_smoothable(args) -> tuple[list[dict], int]:
    c = _parse_cycle(args.cycle)
    if args.dual_given:
        # boundary cycles may be negative semidefinite (all 2s); the decision
        # procedure validates and flags them itself
        recs: list[dict] = [{"record": "input", "dual_cycle": list(c.entries)}]
    else:
        require_valid_cusp(c)
        recs = [{"record": "input", "cusp": list(c.entries), "multiplicity": multiplicity(c)}]
    axes = _select_axes(c, args)
    if not axes:
        recs.append({"record": "verdict", "axis": None, "verdict": VERDICT_NOT_SYMMETRIC})
        return recs, 0
    n = len(c) if args.dual_given else neg_self_intersection(c)  # the dual's length
    if not args.dual_given and n == 2:
        recs.extend({"record": "verdict", "axis": a.axis, "verdict": VERDICT_MULT2}
                    for a in axes)
        return recs, 0
    enumerate_equivariant_toric(n)  # the toric bound, checked before the dual is built
    for a in axes:
        st = SymmetricStructure(c, a)
        if not args.dual_given:
            st = induced_dual_reflection(st)
        dec = decide_equivariant_pair(st)
        rec = {
            "record": "verdict",
            "axis": a.axis,
            "dual_cycle": list(st.cycle.entries),
            "dual_axis": st.axis.axis,
            "verdict": VERDICT_HOLDS if dec.accepted else VERDICT_FAILS,
            "semidefinite": dec.semidefinite,
            "models_tried": dec.models_tried,
            "alignments_tried": dec.alignments_tried,
        }
        if dec.accepted:
            rec["witness"] = _witness_record(dec.witness)
        recs.append(rec)
    return recs, 0


def _cmd_enumerate_toric(args) -> tuple[list[dict], int]:
    n = args.length
    models = enumerate_equivariant_toric(n)
    recs: list[dict] = [{"record": "count", "n": n, "models": len(models)}]
    for m in models:
        recs.append({"record": "toric", "n": n, "cycle": list(m.pair.cycle.entries),
                     "axis": m.pair.axis.axis, "charge": charge(m.pair)})
    return recs, 0


def _cmd_scan(args) -> tuple[list[dict], int]:
    n = args.length
    res = scan_length(n, args.max_entry, budget=args.budget)
    recs: list[dict] = [{
        "record": "scan",
        "n": n,
        "max_entry": res.max_entry,
        "candidates": res.candidates,
        "accepted": res.accepted,
        "failing": len(res.failures),
    }]
    for f in res.failures:
        recs.append({
            "record": "failing",
            "cusp": list(f.dual_cusp.entries),
            "dual": list(f.cycle.entries),
            "axes": [a.axis for a in f.axes],
        })
    return recs, 0


# ---------------------------------------------------------------- rendering


def _render_text(records: list[dict], meta: dict) -> str:
    lines = []
    for rec in records:
        kind = rec.get("record")
        if kind == "validation":
            word = CycleWord(tuple(rec["cycle"]))
            lines.append(f"cycle {word}: " + ("valid cusp" if rec["ok"] else "invalid"))
            for f in rec["failures"]:
                lines.append(f"  {f}")
            if rec["ok"]:
                lines.append(f"  -E^2 = {rec['neg_self_intersection']}"
                             f", multiplicity = {rec['multiplicity']}")
        elif kind == "dual":
            lines.append(f"dual of {CycleWord(tuple(rec['cycle']))} = "
                         f"{CycleWord(tuple(rec['dual']))}  (length {rec['dual_length']})")
        elif kind == "symmetry":
            word = CycleWord(tuple(rec["cycle"]))
            if rec["note"]:
                lines.append(f"cycle {word}: {rec['note']}")
            else:
                lines.append(f"cycle {word}: {rec['axes']} symmetric axis(es)")
        elif kind == "axis":
            lines.append(f"  axis {rec['axis']} fixing components {rec['fixed'][0]}"
                         f" and {rec['fixed'][1]}")
        elif kind == "involution":
            lines.append(f"  axis {rec['axis']}: A = {rec['A']}, B = {rec['B']},"
                         f" u0 mod 2 = {tuple(rec['u0_mod2'])},"
                         f" u_n/2 mod 2 = {tuple(rec['u_half_mod2'])},"
                         f" t candidates = {[tuple(t) for t in rec['t_candidates']]},"
                         f" hyperbolic = {rec['hyperbolic']}")
        elif kind == "quotient":
            lines.append(f"  axis {rec['axis']}: chain {tuple(rec['chain'])} + four (-2) forks"
                         f" at chain ends {tuple(rec['fork_attachments'])};"
                         f" {rec['vertex_count']} vertices;"
                         f" class group {rec['class_group']}")
        elif kind == "pi1":
            rays = ";".join(f"{x},{y}" for x, y in rec["rays"])
            lines.append(f"pi1 for rays {rays or '(none)'}: {rec['group']}")
            if rec.get("note"):
                lines.append(f"  note: {rec['note']}")
        elif kind == "input":
            if "cusp" in rec:
                lines.append(f"cusp {CycleWord(tuple(rec['cusp']))}"
                             f" (multiplicity {rec['multiplicity']})")
            else:
                lines.append(f"dual cycle {CycleWord(tuple(rec['dual_cycle']))}")
        elif kind == "verdict":
            prefix = f"axis {rec['axis']}: " if rec.get("axis") is not None else ""
            caveat = "  [negative semidefinite]" if rec.get("semidefinite") else ""
            lines.append(f"{prefix}{rec['verdict']}{caveat}")
            if "dual_cycle" in rec:
                lines.append(f"  dual cycle {CycleWord(tuple(rec['dual_cycle']))}"
                             f" (axis {rec['dual_axis']})")
            if rec.get("witness"):
                w = rec["witness"]
                lines.append(f"  witness: toric {CycleWord(tuple(w['toric_cycle']))}"
                             f" (axis {w['axis']}), {len(w['corner_steps'])} corner pairs,"
                             f" {len(w['interior_steps'])} interior steps")
        elif kind == "count":
            lines.append(f"{rec['models']} equivariant toric pair(s) of length {rec['n']}")
        elif kind == "toric":
            lines.append(f"  {CycleWord(tuple(rec['cycle']))}  axis {rec['axis']}"
                         f"  charge {rec['charge']}")
        elif kind == "scan":
            lines.append(f"scan length {rec['n']}, entries <= {rec['max_entry']}:"
                         f" {rec['candidates']} candidates, {rec['accepted']} accepted,"
                         f" {rec['failing']} failing")
        elif kind == "failing":
            lines.append(f"  {CycleWord(tuple(rec['cusp']))}  |  "
                         f"{CycleWord(tuple(rec['dual']))}")
        elif kind == "note":
            lines.append(f"note: {rec['note']}")
        else:
            lines.append(json.dumps(rec, sort_keys=True))
    lines.append(f"[{meta['command']} v{meta['version']} in {meta['timing_s']:.3f}s]")
    return "\n".join(lines)


def _emit(records: list[dict], meta: dict, fmt: str) -> None:
    if fmt == "machine":
        for rec in records:
            print(json.dumps(rec, sort_keys=True))
        print(json.dumps({"record": "meta", **meta}, sort_keys=True))
    else:
        print(_render_text(records, meta))


# ---------------------------------------------------------------- wiring

_HANDLERS = {
    "validate": _cmd_validate,
    "dual": _cmd_dual,
    "symmetry": _cmd_symmetry,
    "involution": _cmd_involution,
    "quotient": _cmd_quotient,
    "pi1": _cmd_pi1,
    "smoothable": _cmd_smoothable,
    "enumerate-toric": _cmd_enumerate_toric,
    "scan": _cmd_scan,
}


def build_parser() -> argparse.ArgumentParser:
    parser = _Parser(prog="cuspsym",
                     description="symmetric cusp cycles and equivariant anticanonical pairs")
    sub = parser.add_subparsers(dest="command", required=True)

    def common(p, cycle=True, axis=False, cache=False):
        p.add_argument("--format", choices=("text", "machine"), default="text")
        if cycle:
            p.add_argument("--cycle", required=True, help="comma-separated entries, e.g. 3,10,3,4")
        if axis:
            p.add_argument("--axis", type=int, default=None,
                           help="restrict to this symmetric axis (doubled-axis integer)")
        if cache:
            # accepted but ignored, so that callers that still pass it keep working
            p.add_argument("--cache-dir", help=argparse.SUPPRESS)

    common(sub.add_parser("validate"))
    common(sub.add_parser("dual"))
    common(sub.add_parser("symmetry"), axis=True)
    common(sub.add_parser("involution"), axis=True)
    common(sub.add_parser("quotient"), axis=True)

    p = sub.add_parser("pi1")
    common(p, cycle=False)
    p.add_argument("--blowup-rays", required=True,
                   help="semicolon-separated rays, e.g. \"1,1;-1,1;-1,-1;1,-1\"")

    p = sub.add_parser("smoothable")
    common(p, axis=True, cache=True)
    p.add_argument("--dual-given", action="store_true",
                   help="treat --cycle as the dual (boundary) cycle directly")

    p = sub.add_parser("enumerate-toric")
    common(p, cycle=False, cache=True)
    p.add_argument("--length", type=int, required=True)

    p = sub.add_parser("scan")
    common(p, cycle=False, cache=True)
    p.add_argument("--length", type=int, required=True)
    p.add_argument("--max-entry", type=int, default=10)
    p.add_argument("--budget", type=int, default=None,
                   help="abort (exit 2) if the scan would examine more labelings")

    return parser


def main(argv: list[str] | None = None) -> int:
    parser = build_parser()
    args = parser.parse_args(argv)
    t0 = time.perf_counter()
    try:
        records, code = _HANDLERS[args.command](args)
    except (CliError, InvalidCuspError, ValueError) as exc:
        print(f"cuspsym: error: {exc}", file=sys.stderr)
        return 1
    except BudgetExceededError as exc:
        print(f"cuspsym: budget exceeded: {exc}", file=sys.stderr)
        return 2
    meta = {
        "command": args.command,
        "version": __version__,
        "timing_s": time.perf_counter() - t0,
    }
    _emit(records, meta, args.format)
    return code


if __name__ == "__main__":
    sys.exit(main())
