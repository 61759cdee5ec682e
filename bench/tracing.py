"""Spans around cuspsym's functions, recorded from outside the program.

The tracer replaces a function by a timing wrapper in every cuspsym module
that binds it, so calls made by the CLI, by other library modules and by the
benchmark all pass through it.  Spans stay in memory; per-module metrics are
computed from them when the run ends.  Inner helpers that run thousands of
times per request (``canonical_pair_key``, ``apply_equivariant_step``) are not
wrapped, so the wrappers cost little next to the work they time.
"""

from __future__ import annotations

import sys
from dataclasses import dataclass, field
from time import perf_counter
from typing import Any, Callable

from workloads import SMOOTHABLE_TORIC_LENGTHS as ENUM_LENGTHS

MODULES = ("cuspsym", "cuspsym.cli", "cuspsym.cycles", "cuspsym.sl2",
           "cuspsym.lattice", "cuspsym.pairs")
LIBRARY = ("cycles.", "sl2.", "lattice.", "pairs.")

Info = Callable[[tuple, Any], dict]

# (module, function, span name, what to record from the arguments and result)
TARGETS: tuple[tuple[str, str, str, Info | None], ...] = (
    ("cuspsym.cli", "main", "cli.main", lambda a, r: {"rc": r}),
    ("cuspsym.cli", "_load_toric_cache", "cli.cache_load",
     lambda a, r: {"models": len(r) if r else 0}),
    ("cuspsym.cycles", "dual", "cycles.dual", lambda a, r: {"letters": len(r)}),
    ("cuspsym.cycles", "induced_dual_reflection", "cycles.induced", None),
    ("cuspsym.cycles", "find_reflections", "cycles.reflections", None),
    ("cuspsym.cycles", "canonicalize", "cycles.canonicalize", None),
    ("cuspsym.sl2", "build_involution_datum", "sl2.involution", None),
    ("cuspsym.lattice", "class_group_of_quotient", "lattice.class_group", None),
    ("cuspsym.lattice", "pi1_complement", "lattice.pi1", None),
    ("cuspsym.lattice", "smith_normal_form", "lattice.snf",
     lambda a, r: {"cells": len(r.S) * len(r.S[0]) if r.S else 0}),
    ("cuspsym.pairs", "enumerate_equivariant_toric", "pairs.enumerate",
     lambda a, r: {"n": a[0], "models": len(r)}),
    ("cuspsym.pairs", "decide_equivariant_pair", "pairs.decide",
     lambda a, r: {"accepted": r.accepted, "models_tried": r.models_tried,
                   "alignments_tried": r.alignments_tried}),
    ("cuspsym.pairs", "scan_length", "pairs.scan",
     lambda a, r: {"candidates": r.candidates, "accepted": r.accepted,
                   "failing": len(r.failures)}),
)


@dataclass
class Span:
    name: str
    parent: "Span | None"
    request: int
    start: float
    end: float = 0.0
    info: dict = field(default_factory=dict)
    children: list["Span"] = field(default_factory=list)

    @property
    def dur(self) -> float:
        return self.end - self.start


class Tracer:
    """Installs the wrappers; ``request`` tags the spans of the current request."""

    def __init__(self) -> None:
        self.spans: list[Span] = []
        self.request = -1
        self._stack: list[Span] = []
        self._undo: list[tuple[object, str, object]] = []

    def _wrap(self, fn: Callable, name: str, info: Info | None) -> Callable:
        def traced(*args, **kwargs):
            parent = self._stack[-1] if self._stack else None
            span = Span(name, parent, self.request, perf_counter())
            self._stack.append(span)
            try:
                result = fn(*args, **kwargs)
            except BaseException as exc:
                span.info = {"error": type(exc).__name__}
                raise
            else:
                if info is not None:
                    span.info = info(args, result)
                return result
            finally:
                span.end = perf_counter()
                self._stack.pop()
                self.spans.append(span)
                if parent is not None:
                    parent.children.append(span)

        return traced

    def install(self) -> None:
        modules = [sys.modules[m] for m in MODULES]
        for mod_name, attr, name, info in TARGETS:
            original = getattr(sys.modules[mod_name], attr, None)
            if original is None:
                continue
            wrapper = self._wrap(original, name, info)
            for mod in modules:
                for key, value in list(vars(mod).items()):
                    if value is original:
                        self._undo.append((mod, key, value))
                        setattr(mod, key, wrapper)

    def uninstall(self) -> None:
        for mod, key, value in reversed(self._undo):
            setattr(mod, key, value)
        self._undo.clear()


def _sum(spans, key=None) -> float:
    return sum(s.dur if key is None else s.info.get(key, 0) for s in spans)


def layer_metrics(spans: list[Span], ops: int) -> dict[str, tuple[float, str]]:
    """Per-module metrics of the request spans, per operation unless the
    unit says otherwise.  Times include nested calls of other functions."""
    by_name: dict[str, list[Span]] = {}
    for s in spans:
        if s.request >= 0:
            by_name.setdefault(s.name, []).append(s)

    def get(name):
        return by_name.get(name, [])

    def per_op(x):
        return x / ops

    def ms_per_op(name):
        return per_op(_sum(get(name))) * 1e3

    mains = get("cli.main")
    cli_self = sum(s.dur - sum(c.dur for c in s.children if c.name.startswith(LIBRARY))
                   for s in mains)
    loaded = _sum(get("cli.cache_load"), "models")
    # the models a call needed: the deepest model any of its decisions reached
    used = sum(max((c.info.get("models_tried", 0) for c in s.children
                    if c.name == "pairs.decide"), default=0) for s in mains)
    decides = get("pairs.decide")
    accepts = [s for s in decides if s.info.get("accepted")]
    rejects = [s for s in decides if s.info.get("accepted") is False]
    scans = get("pairs.scan")
    scan_filter = sum(s.dur - sum(c.dur for c in s.children
                                  if c.name in ("pairs.decide", "pairs.enumerate"))
                      for s in scans)
    return {
        "cli.self_ms": (per_op(cli_self) * 1e3, "ms/op"),
        "cli.cache_load_ms": (ms_per_op("cli.cache_load"), "ms/op"),
        "cli.cache_models_loaded": (per_op(loaded), "count/op"),
        "cli.cache_use_frac": (used / loaded if loaded else 0.0, "frac"),
        "cli.exit_nonzero": (per_op(sum(1 for s in mains if s.info.get("rc") != 0)), "frac"),
        "cycles.dual_ms": (ms_per_op("cycles.dual"), "ms/op"),
        "cycles.dual_calls": (per_op(len(get("cycles.dual"))), "count/op"),
        "cycles.dual_letters": (per_op(_sum(get("cycles.dual"), "letters")), "count/op"),
        "cycles.induced_ms": (ms_per_op("cycles.induced"), "ms/op"),
        "cycles.reflections_ms": (ms_per_op("cycles.reflections"), "ms/op"),
        "cycles.canonicalize_ms": (ms_per_op("cycles.canonicalize"), "ms/op"),
        "sl2.involution_ms": (ms_per_op("sl2.involution"), "ms/op"),
        "sl2.involution_calls": (per_op(len(get("sl2.involution"))), "count/op"),
        "lattice.class_group_ms": (ms_per_op("lattice.class_group"), "ms/op"),
        "lattice.pi1_ms": (ms_per_op("lattice.pi1"), "ms/op"),
        "lattice.snf_calls": (per_op(len(get("lattice.snf"))), "count/op"),
        "lattice.snf_cells": (per_op(_sum(get("lattice.snf"), "cells")), "count/op"),
        "pairs.decide_accept_ms": (_sum(accepts) * 1e3 / len(accepts) if accepts else 0.0,
                                   "ms/call"),
        "pairs.decide_reject_ms": (_sum(rejects) * 1e3 / len(rejects) if rejects else 0.0,
                                   "ms/call"),
        "pairs.decide_calls": (per_op(len(decides)), "count/op"),
        "pairs.models_tried": (per_op(_sum(decides, "models_tried")), "count/op"),
        "pairs.alignments_tried": (per_op(_sum(decides, "alignments_tried")), "count/op"),
        "pairs.scan_ms": (ms_per_op("pairs.scan"), "ms/op"),
        "pairs.scan_filter_ms": (per_op(scan_filter) * 1e3, "ms/op"),
        "pairs.scan_candidates": (per_op(_sum(scans, "candidates")), "count/op"),
        "pairs.scan_survivors": (per_op(_sum(scans, "candidates") - _sum(scans, "accepted")),
                                 "count/op"),
        "pairs.scan_failing": (per_op(_sum(scans, "failing")), "count/op"),
    }


def enumeration_metrics(spans: list[Span]) -> dict[str, tuple[float, str]]:
    """Self time and model count of each length of a cold enumeration."""
    out: dict[str, tuple[float, str]] = {}
    for n in ENUM_LENGTHS:
        out[f"pairs.enumerate_ms.n{n}"] = (0.0, "ms")
        out[f"pairs.models.n{n}"] = (0.0, "count")
    for s in spans:
        n = s.info.get("n")
        if s.name == "pairs.enumerate" and s.request < 0 and n in ENUM_LENGTHS:
            own = s.dur - sum(c.dur for c in s.children if c.name == "pairs.enumerate")
            out[f"pairs.enumerate_ms.n{n}"] = (own * 1e3, "ms")
            out[f"pairs.models.n{n}"] = (float(s.info["models"]), "count")
    return out
