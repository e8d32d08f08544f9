"""Per-layer tracing for the benchmark, done from outside the program.

A ``Tracer`` replaces each traced function of ``defectk`` with a timing
wrapper for the length of one pass and puts the originals back afterwards.
Modules import functions by name (``from .ideals import points_hilbert``),
so a function is replaced in every ``defectk`` module that binds it, not
only where it is defined; methods are replaced on their class.

Each wrapped call adds to per-name counters: calls, inclusive seconds, self
seconds (inclusive minus the time of wrapped calls made inside it) and the
longest single call.  Calls of the coarse names are also kept as spans
(name, start, end, parent span, instance) in memory; ``sidecar`` returns
them with one row per rank call of ``points_hilbert``, for a file that is
written next to, never into, the program's reports.
"""

from __future__ import annotations

import inspect
import math
import sys
from dataclasses import dataclass
from functools import partial, wraps
from time import perf_counter

# Wrapped call sites, by module or class path below ``defectk``.  Methods
# are named Class.method.  Every public function of ``macaulay`` is added at
# install time.  A name that no longer exists raises at install, so a rename
# in the program breaks the traced run instead of reading zero.
FUNCTIONS = (
    "ideals.points_hilbert",
    "ideals.restricted_point_pieces",
    "ideals.ancestor_profile",
    "ideals.functional_kills_products",
    "linalg.det",
    "defect.audit_nodes",
    "defect.defect",
    "defect.tangent_codim",
    "defect.certify_min_nodes_p4",
    "defect.certify_min_nodes_double_solid",
    "families.plane_family",
    "families.double_solid_family",
    "families.ci_family_highdim",
    "scenarios.run_plane",
    "scenarios.run_double_solid",
    "scenarios.run_highdim",
    "cli.main",
)
METHODS = (
    "linalg.IntForwardEchelon.add",
    "linalg.Echelon.add",
    "linalg.Echelon.kernel_of_rows",
    "polynomials.GradedPoly.partial_derivative",
    "polynomials.GradedPoly.evaluate",
)
# Called thousands of times per pass: counted and timed, but kept out of
# the span list, as are the macaulay functions.
NO_SPANS = {
    "linalg.IntForwardEchelon.add",
    "linalg.Echelon.add",
    "polynomials.GradedPoly.partial_derivative",
    "polynomials.GradedPoly.evaluate",
}

# Per-layer metrics with their units, in report order.
LAYER_METRICS = {
    "ideals.points_hilbert_calls": "count",
    "ideals.points_hilbert_distinct": "count",
    "ideals.rank_distinct_ratio": "ratio",
    "ideals.points_hilbert_qq_s": "s",
    "ideals.points_hilbert_fp_s": "s",
    "ideals.points_hilbert_max_s": "s",
    "ideals.rank_cells": "count",
    "ideals.max_entry_bits": "bits",
    "ideals.restricted_pieces_s": "s",
    "ideals.ancestor_profile_s": "s",
    "ideals.kills_products_s": "s",
    "linalg.int_echelon_adds": "count",
    "linalg.int_echelon_useful": "ratio",
    "linalg.int_echelon_s": "s",
    "linalg.echelon_adds": "count",
    "linalg.echelon_useful": "ratio",
    "linalg.echelon_s": "s",
    "linalg.kernel_s": "s",
    "linalg.det_calls": "count",
    "linalg.det_s": "s",
    "defect.audit_s": "s",
    "defect.audit_nodes": "count",
    "defect.defect_s": "s",
    "defect.tangent_codim_s": "s",
    "defect.certify_s": "s",
    "families.build_s": "s",
    "polynomials.partial_derivative_calls": "count",
    "polynomials.partial_derivative_s": "s",
    "polynomials.evaluate_calls": "count",
    "polynomials.evaluate_s": "s",
    "scenarios.run_s": "s",
    "cli.main_s": "s",
    "cli.self_s": "s",
    "macaulay.calls": "count",
    "macaulay.s": "s",
}


@dataclass
class CallStats:
    calls: int = 0
    total_s: float = 0.0
    self_s: float = 0.0
    max_s: float = 0.0
    useful: int = 0  # add methods: calls that grew the span
    items: int = 0  # audit_nodes: nodes audited


class Tracer:
    """Counters, spans and rank rows for the passes it is installed for."""

    def __init__(self):
        self.stats: dict[str, CallStats] = {}
        self.spans: list[dict] = []
        self.rank_calls: list[dict] = []
        self.instance = None  # label of the instance being run
        self._stack: list[list] = []  # per open call: [child seconds, span index]
        self._patches: list[tuple[object, str, object]] = []

    # -- install / uninstall ------------------------------------------------

    def install(self) -> None:
        """Wrap every traced name in the loaded modules of ``defectk``."""
        modules = [m for n, m in list(sys.modules.items())
                   if m is not None and (n == "defectk" or n.startswith("defectk."))]
        macaulay = sys.modules["defectk.macaulay"]
        names = list(FUNCTIONS) + [
            f"macaulay.{n}" for n, f in vars(macaulay).items()
            if inspect.isfunction(f) and f.__module__ == macaulay.__name__
            and not n.startswith("_")
        ]
        try:
            for name in names:
                mod, attr = name.split(".")
                original = getattr(sys.modules[f"defectk.{mod}"], attr)
                wrapper = self._wrap(name, original)
                for module in modules:
                    for key, value in list(vars(module).items()):
                        if value is original:
                            self._patch(module, key, wrapper)
            for name in METHODS:
                mod, cls_name, attr = name.split(".")
                cls = getattr(sys.modules[f"defectk.{mod}"], cls_name)
                self._patch(cls, attr, self._wrap(name, cls.__dict__[attr]))
        except BaseException:
            self.uninstall()
            raise

    def uninstall(self) -> None:
        while self._patches:
            owner, attr, original = self._patches.pop()
            setattr(owner, attr, original)

    def _patch(self, owner, attr: str, wrapper) -> None:
        self._patches.append((owner, attr, vars(owner)[attr]))
        setattr(owner, attr, wrapper)

    # -- the wrapper ------------------------------------------------------------

    def _wrap(self, name: str, fn):
        stats = self.stats.setdefault(name, CallStats())
        stack = self._stack
        spans = self.spans
        keep_span = name not in NO_SPANS and not name.startswith("macaulay.")
        if name == "ideals.points_hilbert":
            after = partial(self._rank_row, inspect.signature(fn))
        else:
            after = AFTER_CALL.get(name)

        @wraps(fn)
        def wrapper(*args, **kwargs):
            parent = stack[-1][1] if stack else None
            span = parent
            if keep_span:
                span = len(spans)
                spans.append(None)
            frame = [0.0, span]
            stack.append(frame)
            start = perf_counter()
            try:
                result = fn(*args, **kwargs)
            finally:
                seconds = perf_counter() - start
                stack.pop()
                if stack:
                    stack[-1][0] += seconds
                stats.calls += 1
                stats.total_s += seconds
                stats.self_s += seconds - frame[0]
                stats.max_s = max(stats.max_s, seconds)
                if keep_span:
                    spans[span] = {"name": name, "start": start, "end": start + seconds,
                                   "parent": parent, "instance": self.instance}
            if after is not None:
                after(stats, args, kwargs, result, seconds)
            return result

        return wrapper

    def _rank_row(self, signature, stats, args, kwargs, result, seconds) -> None:
        bound = signature.bind(*args, **kwargs)
        bound.apply_defaults()
        points, k, char = bound.arguments["points"], bound.arguments["k"], bound.arguments["char"]
        largest = max(abs(c) for rep in points.int_reps() for c in rep)
        self.rank_calls.append({
            "instance": self.instance,
            "degree": k,
            "rows": len(points),
            "cols": math.comb(k + points.nvars - 1, points.nvars - 1),
            "rank": result,
            "max_entry_bits": (largest ** k).bit_length(),
            "seconds": seconds,
            "field": "qq" if char is None else f"fp={char}",
            "key": (points.points, k, char),
        })

    # -- results ----------------------------------------------------------------

    def metrics(self) -> dict[str, float]:
        """The per-layer metrics of everything recorded so far."""
        def get(name: str) -> CallStats:
            return self.stats.get(name, CallStats())

        macaulay = [s for n, s in self.stats.items() if n.startswith("macaulay.")]
        ph = get("ideals.points_hilbert")
        rows = self.rank_calls
        distinct = len({r["key"] for r in rows})
        int_add, ech_add = get("linalg.IntForwardEchelon.add"), get("linalg.Echelon.add")
        values = {
            "ideals.points_hilbert_calls": ph.calls,
            "ideals.points_hilbert_distinct": distinct,
            "ideals.rank_distinct_ratio": distinct / ph.calls if ph.calls else 0.0,
            "ideals.points_hilbert_qq_s": sum(r["seconds"] for r in rows if r["field"] == "qq"),
            "ideals.points_hilbert_fp_s": sum(r["seconds"] for r in rows if r["field"] != "qq"),
            "ideals.points_hilbert_max_s": ph.max_s,
            "ideals.rank_cells": sum(r["rows"] * r["cols"] for r in rows),
            "ideals.max_entry_bits": max((r["max_entry_bits"] for r in rows), default=0),
            "ideals.restricted_pieces_s": get("ideals.restricted_point_pieces").total_s,
            "ideals.ancestor_profile_s": get("ideals.ancestor_profile").total_s,
            "ideals.kills_products_s": get("ideals.functional_kills_products").total_s,
            "linalg.int_echelon_adds": int_add.calls,
            "linalg.int_echelon_useful": int_add.useful / int_add.calls if int_add.calls else 0.0,
            "linalg.int_echelon_s": int_add.total_s,
            "linalg.echelon_adds": ech_add.calls,
            "linalg.echelon_useful": ech_add.useful / ech_add.calls if ech_add.calls else 0.0,
            "linalg.echelon_s": ech_add.total_s,
            "linalg.kernel_s": get("linalg.Echelon.kernel_of_rows").total_s,
            "linalg.det_calls": get("linalg.det").calls,
            "linalg.det_s": get("linalg.det").total_s,
            "defect.audit_s": get("defect.audit_nodes").total_s,
            "defect.audit_nodes": get("defect.audit_nodes").items,
            "defect.defect_s": get("defect.defect").total_s,
            "defect.tangent_codim_s": get("defect.tangent_codim").total_s,
            "defect.certify_s": (get("defect.certify_min_nodes_p4").total_s
                                 + get("defect.certify_min_nodes_double_solid").total_s),
            "families.build_s": sum(get(f"families.{n}").self_s for n in
                                    ("plane_family", "double_solid_family", "ci_family_highdim")),
            "polynomials.partial_derivative_calls":
                get("polynomials.GradedPoly.partial_derivative").calls,
            "polynomials.partial_derivative_s":
                get("polynomials.GradedPoly.partial_derivative").total_s,
            "polynomials.evaluate_calls": get("polynomials.GradedPoly.evaluate").calls,
            "polynomials.evaluate_s": get("polynomials.GradedPoly.evaluate").total_s,
            "scenarios.run_s": sum(get(f"scenarios.{n}").total_s for n in
                                   ("run_plane", "run_double_solid", "run_highdim")),
            "cli.main_s": get("cli.main").total_s,
            "cli.self_s": get("cli.main").self_s,
            "macaulay.calls": sum(s.calls for s in macaulay),
            "macaulay.s": sum(s.self_s for s in macaulay),
        }
        assert values.keys() == LAYER_METRICS.keys()
        return values

    def sidecar(self) -> dict:
        """Spans, rank rows and per-name counters, for a file beside the report."""
        return {
            "spans": self.spans,
            "rank_calls": [{k: v for k, v in r.items() if k != "key"} for r in self.rank_calls],
            "calls": {n: vars(s) for n, s in sorted(self.stats.items())},
        }


def _count_useful(stats, args, kwargs, result, seconds) -> None:
    stats.useful += bool(result)


def _count_nodes(stats, args, kwargs, result, seconds) -> None:
    stats.items += len(result)


# Extra bookkeeping after a call returns, by wrapped name.
AFTER_CALL = {
    "linalg.IntForwardEchelon.add": _count_useful,
    "linalg.Echelon.add": _count_useful,
    "defect.audit_nodes": _count_nodes,
}
