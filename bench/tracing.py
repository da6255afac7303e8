"""Spans and counts around the public functions of each nvalued layer.

`Tracer.install()` rebinds every module attribute of the nvalued package
that holds one of the traced functions, so callers that did
`from .coset import match_multisets` are traced too; `uninstall()` puts
the originals back.  Spans live in flat arrays in memory (a full
`verify --all` records about 720 thousand of them) and are reduced to
per-layer metrics by `layer_metrics()` at the end of the run.
"""

from __future__ import annotations

import functools
import statistics
import sys
from array import array
from collections import Counter, defaultdict
from time import perf_counter

import numpy as np

# Spaces whose product has at least this many values count as large-n
# (the icosahedral spaces, n = 60).
LARGE_N = 60

# Per-space associativity checks reported on their own.
ASSOC_SPACES = ("I@so3", "I@sp1", "O@so3", "O@sp1")

AXIOM_CHECKS = {
    "check_identity": "identity",
    "check_inverse": "inverse",
    "check_associativity": "associativity",
    "check_well_defined": "well_defined",
}

# (module, function, span name).  orbit_product delegates to
# product_from_representatives, which axioms also calls directly; both are
# one span name and a nested call of the same name adds no span.
TRACED = [
    ("nvalued.cli", "main", "cli.main"),
    *(("nvalued.axioms", fn, f"axioms.{short}") for fn, short in AXIOM_CHECKS.items()),
    ("nvalued.coset", "project", "coset.project"),
    ("nvalued.coset", "orbit_product", "coset.orbit_product"),
    ("nvalued.coset", "product_from_representatives", "coset.orbit_product"),
    ("nvalued.coset", "orbit_inverse", "coset.orbit_inverse"),
    ("nvalued.coset", "orbit_distance", "coset.orbit_distance"),
    ("nvalued.coset", "match_multisets", "coset.match_multisets"),
    ("nvalued.coset", "random_point", "coset.random_point"),
    ("nvalued.rotgroups", "build_group", "rotgroups.build_group"),
    ("nvalued.rotgroups", "element_order", "rotgroups.element_order"),
    ("nvalued.topology", "classify", "topology.classify"),
    ("nvalued.topology", "singular_orbits", "topology.singular_orbits"),
    ("nvalued.topology", "riemann_hurwitz_check", "topology.riemann_hurwitz_check"),
    ("nvalued.topology", "check_suspension", "topology.check_suspension"),
    ("nvalued.topology", "tau_has_fixed_points", "topology.tau_has_fixed_points"),
]

# Span names whose self time and call count are reported.
TIMED = [
    "coset.orbit_product",
    "coset.match_multisets",
    "coset.orbit_distance",
    "coset.project",
    "coset.random_point",
    "rotgroups.build_group",
    "rotgroups.element_order",
]
SELF_ONLY = [
    "coset.orbit_inverse",
    "topology.classify",
    "topology.singular_orbits",
    "topology.riemann_hurwitz_check",
    "topology.check_suspension",
    "topology.tau_has_fixed_points",
]


def span_cost(calls: int = 20_000, repeats: int = 5) -> float:
    """Seconds that recording one span adds to a call, measured on an empty
    function: the median over `repeats` of (traced - plain) / calls."""

    def noop():
        return None

    traced = Tracer()._span("calibration", noop)
    costs = []
    for _ in range(repeats):
        t0 = perf_counter()
        for _ in range(calls):
            noop()
        t1 = perf_counter()
        for _ in range(calls):
            traced()
        costs.append((perf_counter() - t1 - (t1 - t0)) / calls)
    return max(statistics.median(costs), 0.0)


class Tracer:
    """Records one span per traced call: name, start, end, parent span and
    the operation it belongs to (`op_id`, set by the caller)."""

    def __init__(self) -> None:
        self.names: list[str] = []
        self._name_ids: dict[str, int] = {}
        self.name_id = array("H")
        self.start = array("d")
        self.end = array("d")
        self.parent = array("l")
        self.op = array("l")
        self._stack: list[int] = []
        self.op_id = -1
        self.counts: Counter = Counter()
        self._large_products: list[int] = []
        self._assoc_spans: dict[str, list[int]] = defaultdict(list)
        self._patched: list[tuple[object, str, object]] = []

    # -- recording -------------------------------------------------------

    def _span(self, name: str, fn, on_exit=None):
        nid = self._name_ids.setdefault(name, len(self._name_ids))
        if nid == len(self.names):
            self.names.append(name)
        stack = self._stack

        @functools.wraps(fn)
        def wrapper(*args, **kwargs):
            if stack and self.name_id[stack[-1]] == nid:
                return fn(*args, **kwargs)
            idx = len(self.start)
            self.name_id.append(nid)
            self.parent.append(stack[-1] if stack else -1)
            self.op.append(self.op_id)
            self.start.append(0.0)
            self.end.append(0.0)
            stack.append(idx)
            t0 = perf_counter()
            try:
                result = fn(*args, **kwargs)
            finally:
                t1 = perf_counter()
                stack.pop()
                self.start[idx] = t0
                self.end[idx] = t1
            if on_exit is not None:
                on_exit(idx, args, result)
            return result

        return wrapper

    def _on_product(self, idx, args, result) -> None:
        n = len(result)
        self.counts["coset.orbit_product_points"] += n
        if n >= LARGE_N:
            self._large_products.append(idx)

    def _on_match(self, idx, args, result) -> None:
        # The sound sorted-column rejection returns before any orbit
        # distance is taken, so a failed match with no child span is a
        # rejection.
        if not result[0] and len(self.start) == idx + 1:
            self.counts["coset.match_rejected"] += 1

    def _on_check(self, idx, args, report) -> None:
        self.counts["axioms.trials"] += report.trials
        self.counts["axioms.tie_resamples"] += report.tie_resamples
        if report.axiom == "associativity" and report.space in ASSOC_SPACES:
            self._assoc_spans[report.space].append(idx)

    def _on_build(self, idx, args, group) -> None:
        self.counts["rotgroups.cover_elements"] += len(group.cover)

    def _count_fallback(self, fn):
        @functools.wraps(fn)
        def wrapper(*args, **kwargs):
            self.counts["coset.match_fallbacks"] += 1
            return fn(*args, **kwargs)

        return wrapper

    # -- installation ----------------------------------------------------

    def install(self) -> None:
        """Rebind every traced function wherever nvalued modules hold it."""
        hooks = {
            "coset.orbit_product": self._on_product,
            "coset.match_multisets": self._on_match,
            "rotgroups.build_group": self._on_build,
            **{f"axioms.{short}": self._on_check for short in AXIOM_CHECKS.values()},
        }
        modules = [m for k, m in sys.modules.items() if k.split(".")[0] == "nvalued"]
        for module_name, attr, name in TRACED:
            original = getattr(sys.modules[module_name], attr)
            self._rebind(modules, original, self._span(name, original, hooks.get(name)))
        coset = sys.modules["nvalued.coset"]
        lsa = coset.linear_sum_assignment
        self._rebind([coset], lsa, self._count_fallback(lsa))

    def _rebind(self, modules, original, replacement) -> None:
        for module in modules:
            for attr, value in list(vars(module).items()):
                if value is original:
                    setattr(module, attr, replacement)
                    self._patched.append((module, attr, original))

    def uninstall(self) -> None:
        for module, attr, original in reversed(self._patched):
            setattr(module, attr, original)
        self._patched.clear()

    # -- reduction -------------------------------------------------------

    def layer_metrics(self, traced_wall: float) -> dict[str, float]:
        """Per-layer self times, call counts and counters, as metric name
        -> value; names absent from this run's spans read 0.  A span's self
        time is its duration minus the durations of its child spans."""
        names = np.asarray(self.name_id).astype(np.int64)
        dur = np.asarray(self.end) - np.asarray(self.start)
        parent = np.asarray(self.parent)
        child = np.zeros_like(dur)
        np.add.at(child, parent[parent >= 0], dur[parent >= 0])
        own = dur - child
        k = max(len(self.names), 1)
        self_by = np.bincount(names, weights=own, minlength=k)
        total_by = np.bincount(names, weights=dur, minlength=k)
        calls_by = np.bincount(names, minlength=k)

        def per_name(table, name: str) -> float:
            i = self._name_ids.get(name)
            return table[i].item() if i is not None else 0

        out: dict[str, float] = {}
        for name in TIMED:
            out[f"{name}_s"] = float(per_name(self_by, name))
            out[f"{name}_calls"] = int(per_name(calls_by, name))
        for name in SELF_ONLY:
            out[f"{name}_s"] = float(per_name(self_by, name))
        product_s = out["coset.orbit_product_s"]
        large_s = own[self._large_products].sum()
        out["coset.orbit_product_large_n_share"] = float(large_s / product_s) if product_s else 0.0
        for key in ("coset.orbit_product_points", "coset.match_rejected",
                    "coset.match_fallbacks", "axioms.trials", "axioms.tie_resamples",
                    "rotgroups.cover_elements"):
            out[key] = self.counts[key]
        # Axiom checks are reported inclusive of the coset work they drive
        # (their own self time is only the trial loop); they never nest.
        axioms_s = 0.0
        for short in AXIOM_CHECKS.values():
            out[f"axioms.{short}_s"] = float(per_name(total_by, f"axioms.{short}"))
            axioms_s += out[f"axioms.{short}_s"]
        for space in ASSOC_SPACES:
            label = space.replace("@", "-")
            out[f"axioms.associativity.{label}_s"] = float(dur[self._assoc_spans[space]].sum())
        out["axioms.wall_share"] = axioms_s / traced_wall
        out["cli.main_self_s"] = float(per_name(self_by, "cli.main"))
        out["trace.spans"] = len(self.start)
        return out
