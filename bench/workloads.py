"""The four benchmark workloads and the correctness gates on their outputs.

Each workload is a fixed list of pieces, short calls into the package that
together make one pass over the workload's work.  The runner calls them in
order, pass after pass, closed loop with one caller: the next call starts
when the previous one has returned.  The seed draws only points and trial
inputs (the CLI and check seeds, the product-stream points), never the
pieces, the space mix or the group sizes, so every seed does the same
amount of work, and every pass repeats the same calls.  nvalued functions
are looked up on their modules at call time, so the tracer's rebinding
reaches calls made from here too.
"""

from __future__ import annotations

import contextlib
import io
import json
import random
from dataclasses import dataclass
from typing import Callable

import numpy as np

import nvalued.axioms
import nvalued.cli
import nvalued.coset
import nvalued.rotgroups
import nvalued.topology
from nvalued.coset import Base, CosetSpace
from nvalued.quaternion import Quaternion
from nvalued.rotgroups import GroupSpec

# TOL_AXIOM at the time the benchmark was written; the gates keep it even
# if the package's tolerance moves.
TOL = 1e-6
# Criterion 3's budget for the worst deviation on a valid space.
VALID_DEVIATION = 1e-8

BASES = (Base.SP1, Base.SO3)


def catalog_spaces() -> list[CosetSpace]:
    return [
        CosetSpace(nvalued.rotgroups.build_group(spec), base)
        for spec in nvalued.rotgroups.catalog()
        for base in BASES
    ]


# ---------------------------------------------------------------------------
# Quaternion reference arithmetic, independent of nvalued.quaternion.


def qmul(p: np.ndarray, q: np.ndarray) -> np.ndarray:
    """Hamilton product of quaternion rows (broadcasting over leading axes)."""
    pw, px, py, pz = np.moveaxis(p, -1, 0)
    qw, qx, qy, qz = np.moveaxis(q, -1, 0)
    return np.stack(
        [
            pw * qw - px * qx - py * qy - pz * qz,
            pw * qx + px * qw + py * qz - pz * qy,
            pw * qy - px * qz + py * qw + pz * qx,
            pw * qz + px * qy - py * qx + pz * qw,
        ],
        axis=-1,
    )


def qconj(p: np.ndarray) -> np.ndarray:
    return p * np.array([1.0, -1.0, -1.0, -1.0])


def orbit_images(space: CosetSpace, points: np.ndarray) -> np.ndarray:
    """Everything each row of `points` is identified with: g p g* for every
    group element g, and the negatives too on the rotation base.
    Shape (len(points), k, 4)."""
    g = np.array([tuple(e) for e in space.group.elements])
    images = qmul(qmul(g[None, :, :], points[:, None, :]), qconj(g)[None, :, :])
    if space.base is Base.SO3:
        images = np.concatenate([images, -images], axis=1)
    return images


def orbit_distances(space: CosetSpace, xs: np.ndarray, ys: np.ndarray) -> np.ndarray:
    """Matrix of orbit distances between the rows of xs and of ys."""
    images = orbit_images(space, ys)  # (len(ys), k, 4)
    diff = xs[:, None, None, :] - images[None, :, :, :]
    return np.sqrt((diff * diff).sum(axis=3)).min(axis=2)


def multiset_gap(dist: np.ndarray, tol: float) -> float | None:
    """Greedy pairing of rows with columns within `tol`; the worst paired
    distance, or None when some row finds no free column."""
    free = np.ones(dist.shape[1], dtype=bool)
    worst = 0.0
    for row in dist:
        cand = np.flatnonzero(free & (row <= tol))
        if not len(cand):
            return None
        j = cand[np.argmin(row[cand])]
        free[j] = False
        worst = max(worst, float(row[j]))
    return worst


def reps(orbits) -> np.ndarray:
    return np.array([tuple(o.rep) for o in orbits], dtype=float).reshape(-1, 4)


@dataclass
class ControlResult:
    angle: float
    expect_valid: bool
    report: object


# ---------------------------------------------------------------------------
# Gates.  Each returns a list of error strings; empty means the output holds.


def verify_gate(rc: int, payload: dict, n_spaces: int) -> list[str]:
    """`verify --json`: one report per check and space, all passing, worst
    deviation inside criterion 3's budget, exit code 0."""
    errors = []
    reports = payload.get("reports", [])
    if rc != 0:
        errors.append(f"exit code {rc}")
    if len(reports) != 4 * n_spaces:
        errors.append(f"{len(reports)} reports, expected {4 * n_spaces}")
    failing = [f"{r['space']}/{r['axiom']}" for r in reports if not r["passed"]]
    if failing:
        errors.append(f"failing checks: {', '.join(failing[:5])}")
    worst = max((r["max_deviation"] for r in reports), default=0.0)
    if not worst < VALID_DEVIATION:
        errors.append(f"worst deviation {worst:.3e} >= {VALID_DEVIATION:.0e}")
    return errors


def controls_gate(results: list[ControlResult]) -> list[str]:
    """Negative controls: at the large angle every check on a genuinely
    corrupted space must fail; the expected-valid corruption (D1) must pass
    every check with a valid-space deviation."""
    errors = []
    for r in results:
        report = r.report
        if r.expect_valid:
            if not report.passed or not report.max_deviation < VALID_DEVIATION:
                errors.append(
                    f"{report.space}/{report.axiom} at {r.angle:g} rad: expected valid, "
                    f"failures={report.failures} max_dev={report.max_deviation:.3e}"
                )
        elif r.angle >= 0.1 and report.passed:
            errors.append(f"{report.space}/{report.axiom} at {r.angle:g} rad: corruption missed")
    return errors


def product_gate(space: CosetSpace, values: list, full_check=None) -> list[str]:
    """Every product has n values.  With `full_check = (p, q, x, inverse)`
    the values must also match the brute-force multiset of orbits of
    p * g(q) over the group, x must be the orbit of p and the inverse the
    orbit of p's conjugate, all within TOL."""
    if len(values) != space.n:
        return [f"{space.label}: {len(values)} product values, expected {space.n}"]
    if full_check is None:
        return []
    p, q, x, inverse = full_check
    errors = []
    g = np.array([tuple(e) for e in space.group.elements])
    expected = qmul(p[None, :], qmul(qmul(g, q[None, :]), qconj(g)))
    if multiset_gap(orbit_distances(space, expected, reps(values)), TOL) is None:
        errors.append(f"{space.label}: product differs from the brute-force reference")
    if orbit_distances(space, p[None, :], reps([x]))[0, 0] > TOL:
        errors.append(f"{space.label}: projection is not the orbit of its input")
    if orbit_distances(space, qconj(p)[None, :], reps([inverse]))[0, 0] > TOL:
        errors.append(f"{space.label}: inverse is not the orbit of the conjugate")
    return errors


def large_group_gate(
    spec: GroupSpec, orders: list[int], report, signature: tuple[int, ...]
) -> list[str]:
    """Cyclic and dihedral groups: S3 iff the order is even, signature
    (n, n) for Cn and (2, 2, m) for Dm, the branching identity holds, and
    every element order divides the group order."""
    n = spec.order
    errors = []
    want_space = "S3" if n % 2 == 0 else "RP3"
    if report.predicted_space != want_space:
        errors.append(f"{spec.label}: predicted {report.predicted_space}, expected {want_space}")
    want_sig = (n, n) if spec.family == "C" else (2, 2, spec.param)
    if tuple(signature) != want_sig:
        errors.append(f"{spec.label}: signature {tuple(signature)}, expected {want_sig}")
    if not report.evidence.riemann_hurwitz:
        errors.append(f"{spec.label}: branching identity failed")
    if len(orders) != n or any(n % d for d in orders):
        errors.append(f"{spec.label}: element orders do not all divide {n}")
    return errors


# ---------------------------------------------------------------------------
# Workloads.  setup(seed) is untimed and fills `pieces`, the (label, call)
# pairs of one pass; a call is timed on its own; check(k, out) runs outside
# the timed region and returns the gate errors for piece k's output;
# named(times) gives the workload's own metrics for the printed summary,
# from each piece's time.


class Workload:
    name = ""
    pieces: list[tuple[str, Callable[[], object]]]

    def capture(self) -> contextlib.AbstractContextManager:
        """Context kept open around a measured loop."""
        return contextlib.nullcontext()

    def detection_rate(self) -> float:
        """Failing trials over trials on genuinely corrupted spaces; 0 where
        the workload checks none."""
        return 0.0


# Trial budget of one verify-catalog piece: a twentieth of the CLI default
# for the identity, inverse and well-definedness checks, and one
# associativity triple.  It keeps the default sweep's mix (associativity
# about half the time) in calls short enough to repeat within a run.
VERIFY_BUDGET = ("--samples", "10", "--triples", "1")


class VerifyCatalog(Workload):
    name = "verify-catalog"

    def setup(self, seed: int) -> None:
        # Builds every catalog group once, as the CLI's first use would.
        self.pieces = [
            (space.label, self._verify(space, seed)) for space in catalog_spaces()
        ]

    @staticmethod
    def _verify(space: CosetSpace, seed: int):
        argv = ["verify", space.group.spec.label, "--base", space.base.value,
                "--json", "--seed", str(seed), *VERIFY_BUDGET]

        def call():
            out = io.StringIO()
            with contextlib.redirect_stdout(out):
                rc = nvalued.cli.main(argv)
            return rc, out.getvalue()

        return call

    def check(self, k: int, out) -> list[str]:
        rc, text = out
        return verify_gate(rc, json.loads(text), 1)

    def named(self, times):
        return [("verify_s", sum(times), "s",
                 f"sweep of {len(times)} spaces at samples 10, triples 1")]


CONTROL_ANGLES = (0.1, 1e-5)
# Budgets of one control check.  At 0.1 rad a single associativity triple
# caught the corruption in 1200 of 1200 tries (seeds 0-39), and ten
# well-definedness samples all miss with odds below 1e-9, so the gate that
# every check there fails holds for any seed.
CONTROL_TRIPLES = 2
CONTROL_SAMPLES = 10


class NegativeControls(Workload):
    name = "negative-controls"

    def setup(self, seed: int) -> None:
        self.pieces = []
        self.expected: list[tuple[float, bool]] = []
        for spec in nvalued.rotgroups.catalog():
            group = nvalued.rotgroups.build_group(spec)
            if len(group) < 2:
                continue
            for angle in CONTROL_ANGLES:
                bad = nvalued.axioms.corrupted_copy(group, extra_angle=angle)
                # corrupted_copy turns D1's half-turn about x into a
                # half-turn about a tilted axis: still a group of order 2,
                # so its checks must pass and it is left out of the
                # detection rate.
                expect_valid = spec.label == "D1"
                for base in BASES:
                    space = CosetSpace(bad, base)
                    for name, call in self._checks(space, seed):
                        self.pieces.append((f"{space.label}/{name}/{angle:g}", call))
                        self.expected.append((angle, expect_valid))
        self.caught = 0
        self.trials = 0

    @staticmethod
    def _checks(space: CosetSpace, seed: int):
        return [
            ("associativity", lambda: nvalued.axioms.check_associativity(
                space, triples=CONTROL_TRIPLES, seed=seed)),
            ("well_defined", lambda: nvalued.axioms.check_well_defined(
                space, samples=CONTROL_SAMPLES, seed=seed)),
        ]

    def check(self, k: int, report) -> list[str]:
        angle, expect_valid = self.expected[k]
        if not expect_valid:
            self.caught += report.failures
            self.trials += report.trials
        return controls_gate([ControlResult(angle, expect_valid, report)])

    def detection_rate(self) -> float:
        return self.caught / self.trials if self.trials else 0.0

    def named(self, times):
        return [
            ("controls_s", sum(times), "s", f"sweep of {len(times)} checks"),
            ("detection_rate", self.detection_rate(), "ratio",
             f"{self.caught} of {self.trials} trials on corrupted spaces"),
        ]


class ProductStream(Workload):
    name = "product-stream"
    PAIRS = 32  # input pairs per space; a pass is PAIRS x 34 products
    CHECK_EVERY = 100  # mean spacing of the brute-force reference subsample

    def setup(self, seed: int) -> None:
        self.spaces = catalog_spaces()
        rng = np.random.default_rng(seed)
        pts = rng.normal(size=(self.PAIRS * len(self.spaces), 2, 4))
        pts /= np.linalg.norm(pts, axis=2, keepdims=True)
        self.points = pts
        # Round-robin over the spaces: piece k uses space k mod 34.
        self.pieces = []
        for k, (a, b) in enumerate(pts.tolist()):
            space = self.spaces[k % len(self.spaces)]
            self.pieces.append((space.label, self._product(space, Quaternion(*a), Quaternion(*b))))
        self.sample = random.Random(seed)

    @staticmethod
    def _product(space: CosetSpace, a: Quaternion, b: Quaternion):
        def call():
            x = nvalued.coset.project(space, a)
            y = nvalued.coset.project(space, b)
            values = nvalued.coset.orbit_product(x, y)
            inverse = nvalued.coset.orbit_inverse(x)
            return x, values, inverse

        return call

    def check(self, k: int, out) -> list[str]:
        x, values, inverse = out
        space = self.spaces[k % len(self.spaces)]
        full = None
        if self.sample.randrange(self.CHECK_EVERY) == 0:
            p, q = self.points[k]
            full = (p, q, x, inverse)
        return product_gate(space, values, full)

    def named(self, times):
        us = np.array(times) * 1e6
        note = f"{len(times)} products"
        return [
            ("mul_p50_us", float(np.percentile(us, 50)), "us", note),
            ("mul_p99_us", float(np.percentile(us, 99)), "us", note),
            ("mul_per_s", len(times) / sum(times), "1/s", note),
        ]


# Dihedral groups stop at D54: D72's classify alone took a second, 40% of
# a pass, which left too few passes in a run for a steady median.
LARGE_GROUPS = ("C17", "C45", "C64", "C89", "C96", "D18", "D36", "D54")


class LargeGroups(Workload):
    name = "large-groups"

    def setup(self, seed: int) -> None:
        # Held before any tracing, so the cache can still be cleared.
        self.build_group = nvalued.rotgroups.build_group
        self.signatures: list[tuple[int, ...]] = []
        self.orders: dict[str, list[int]] = {}
        self.pieces = []
        for label in LARGE_GROUPS:
            spec = GroupSpec.parse(label)
            self.pieces.append((f"{label}/generate", self._generate(spec)))
            self.pieces.append((f"{label}/classify", self._classify(spec, seed)))

    def _generate(self, spec: GroupSpec):
        def call():
            # A fresh CLI call starts from an empty group cache.
            self.build_group.cache_clear()
            group = nvalued.rotgroups.build_group(spec)
            return spec, [nvalued.rotgroups.element_order(g, group) for g in group.elements]

        return call

    def _classify(self, spec: GroupSpec, seed: int):
        def call():
            self.signatures.clear()
            report = nvalued.topology.classify(Base.SO3, spec, seed=seed)
            return spec, report, list(self.signatures)

        return call

    def check(self, k: int, out) -> list[str]:
        # Pieces alternate: a group's generate comes just before its
        # classify, whose gate also checks the element orders.
        if len(out) == 2:
            spec, orders = out
            self.orders[spec.label] = orders
            return []
        spec, report, signatures = out
        if len(signatures) != 1:
            return [f"{spec.label}: {len(signatures)} singular-orbit signatures, expected 1"]
        return large_group_gate(spec, self.orders.pop(spec.label, []), report, signatures[0])

    def named(self, times):
        note = f"pass over {len(LARGE_GROUPS)} groups"
        return [("large_groups_s", sum(times), "s", note)]

    @contextlib.contextmanager
    def capture(self):
        """Keep the signature that classify computes, by binding a
        recording wrapper where riemann_hurwitz_check looks it up (over
        the tracer's wrapper, when one is installed)."""
        inner = nvalued.topology.singular_orbits

        def record(group):
            data = inner(group)
            self.signatures.append(data.signature)
            return data

        nvalued.topology.singular_orbits = record
        try:
            yield
        finally:
            nvalued.topology.singular_orbits = inner


WORKLOADS = {w.name: w for w in (VerifyCatalog, NegativeControls, ProductStream, LargeGroups)}
