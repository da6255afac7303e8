"""Evidence for the shape of the quotients: which groups admit solutions of
the antipodal conjugation equation, preservation of the real part by the
conjugation action (the suspension structure of the quaternion quotient),
the branching data of the induced action on the 2-sphere, and the resulting
prediction of the quotient's homeomorphism type.

The prediction itself follows a parity criterion: conjugation can carry
some point to its negative exactly when the group contains a half-turn,
which happens exactly when the group order is even.  Three independent
signals (order parity, half-turn search, antipodal solvability) are
computed separately and must agree; `classify` refuses to produce a report
when they do not.
"""

from __future__ import annotations

import math
from dataclasses import asdict, dataclass
from typing import Optional

import numpy as np

from .coset import Base
from .quaternion import (
    Quaternion,
    Vec3,
    canonical_sign,
    random_units,
    rounded_order,
)
from .rotgroups import (
    GroupSpec,
    RotationGroup,
    _is_int,
    build_group,
    has_half_turn,
    match_rows,
)
from .tolerances import EPS_POINT, TOL_RE


# Largest sample count for the real-part check, which holds a (samples x
# order) array: 80 MB at MAX_ORDER.  check_suspension refuses more.
MAX_SAMPLES = 10_000


class IdentityViolation(RuntimeError):
    """The branching identity failed; the group data is inconsistent."""


class ConsistencyFailure(RuntimeError):
    """The parity signals disagree; refusing to emit a classification."""


@dataclass(frozen=True)
class AntipodalSolutions:
    """Solution set of  q x q^-1 = -x  over unit imaginary quaternions.

    Solvable exactly when q covers a half-turn; the solutions then form the
    unit circle orthogonal to the rotation axis inside the imaginary part.
    """

    solvable: bool
    axis: Optional[Vec3]

    def solution_circle(self) -> list[Quaternion]:
        """32 evenly spaced solutions on the circle."""
        if not self.solvable or self.axis is None:
            raise ValueError("the equation has no solutions for this rotation")
        a = np.array(self.axis)
        seed = np.array([1.0, 0.0, 0.0] if abs(a[0]) < 0.9 else [0.0, 1.0, 0.0])
        u = seed - (a @ seed) * a
        u /= np.linalg.norm(u)
        t = 2.0 * math.pi * np.arange(32) / 32
        points = np.cos(t)[:, None] * u + np.sin(t)[:, None] * np.cross(a, u)
        return [Quaternion(0.0, *p) for p in points.tolist()]


def solve_antipodal(q: Quaternion) -> AntipodalSolutions:
    """Decide solvability of q x q^-1 = -x in unit imaginary quaternions.

    A solution must be imaginary (the real part would flip sign), and the
    conjugation turns the imaginary space by 2 atan2(|v|, |w|) about v/|v|
    for q = (w, v), so a solution exists exactly for the half-turn: angle
    pi, i.e. w = 0, up to EPS_POINT.  The axis is folded by canonical_sign.
    """
    w, x, y, z = q
    s = math.sqrt(x * x + y * y + z * z)
    if s <= EPS_POINT or abs(2.0 * math.atan2(s, abs(w)) - math.pi) > EPS_POINT:
        return AntipodalSolutions(solvable=False, axis=None)
    axis = canonical_sign(np.array([[x, y, z]]) / s)[0]
    return AntipodalSolutions(solvable=True, axis=Vec3(*axis.tolist()))


def tau_has_fixed_points(group: RotationGroup) -> bool:
    """Whether the involution induced by x -> -x on the quaternion quotient
    has a fixed point: some lift must conjugate some x to -x.  Both lifts
    of a rotation give the same answer, since solve_antipodal decides on
    |w| and |v| and folds the axis, so one lift per element decides it."""
    return any(solve_antipodal(q).solvable for q in group.elements)


@dataclass(frozen=True)
class SuspensionReport:
    """Outcome of the real-part preservation check."""

    group: str
    samples: int
    max_deviation: float
    poles_fixed: bool

    @property
    def passed(self) -> bool:
        return self.poles_fixed and self.max_deviation < TOL_RE


def check_suspension(
    group: RotationGroup, samples: int = 1000, seed: int = 0
) -> SuspensionReport:
    """Conjugation by every cover element must preserve the real part of
    random unit quaternions and fix the two poles +-1 outright, which is
    what stratifies the quotient into levels of the real part."""
    if not _is_int(samples):
        raise ValueError(f"check_suspension needs an integer count, got {samples!r}")
    samples = int(samples)
    if samples < 1:
        raise ValueError(f"check_suspension needs at least one sample, got {samples}")
    if samples > MAX_SAMPLES:
        raise ValueError(f"check_suspension takes at most {MAX_SAMPLES}, got {samples}")
    if not _is_int(seed) or seed < 0:
        need = "check_suspension needs a non-negative integer seed"
        raise ValueError(f"{need}, got {seed!r}")
    points = random_units(np.random.default_rng(seed), samples)
    # -q conjugates exactly like q, so the elements stand for the cover.
    mats = group._action
    # only the real part of each image is needed: row 0 of each matrix,
    # one row per element, so the extremes below reduce across rows
    real = mats[:, 0, :] @ points.T
    # rounding is monotone, so the extremes of each sample's column give
    # its largest |real - w| exactly; np.maximum keeps a NaN
    w = points[:, 0]
    dev = float(np.maximum(real.max(axis=0) - w, w - real.min(axis=0)).max())
    # the images of +-1 are +-the first columns of the matrices
    pole_dev = float(np.abs(mats[:, :, 0] - (1.0, 0.0, 0.0, 0.0)).max())

    return SuspensionReport(
        group=group.spec.label,
        samples=samples,
        max_deviation=max(dev, pole_dev),
        poles_fixed=pole_dev < TOL_RE,
    )


@dataclass(frozen=True)
class SphereOrbit:
    """One orbit of axis endpoints on the 2-sphere, with the order of the
    stabilizer of each of its points."""

    points: tuple[Vec3, ...]
    stabilizer_order: int


@dataclass(frozen=True)
class SingularOrbitData:
    """All singular orbits of the induced action on the 2-sphere."""

    orbits: tuple[SphereOrbit, ...]

    @property
    def signature(self) -> tuple[int, ...]:
        return tuple(sorted(o.stabilizer_order for o in self.orbits))


def singular_orbits(group: RotationGroup) -> SingularOrbitData:
    """The branching data: the axis endpoints of every nontrivial
    rotation, grouped into orbits of the group's action on the sphere,
    each with its stabilizer order: 1 plus the number of non-identity
    elements whose axis lies on the point's line.

    Sanity-checks orbit-stabilizer consistency (|orbit| * stabilizer =
    group order, identical stabilizer across an orbit) and raises
    IdentityViolation when the data does not cohere.
    """
    n = len(group)
    imag = np.delete(group.element_rows, group.identity_index, axis=0)[:, 1:]
    length = np.sqrt((imag * imag).sum(axis=1))
    if (length <= EPS_POINT).any():
        raise IdentityViolation(f"non-identity element of {group.spec} has no axis")
    # one direction per line, then one representative axis per line
    axes = canonical_sign(imag / length[:, None])
    lines, count = np.unique(match_rows(axes, axes), return_counts=True)
    points = np.concatenate([axes[lines], -axes[lines]])
    stabilizer = np.tile(1 + count, 2)

    rotations = group._action[:, 1:, 1:]
    unassigned = np.ones(len(points), dtype=bool)
    orbits: list[SphereOrbit] = []
    while unassigned.any():
        start = unassigned.argmax()
        hits = match_rows(points, rotations @ points[start])
        orbit = np.unique(hits[hits >= 0])
        unassigned[orbit] = False
        unassigned[start] = False
        # only the identity fixes a point off every rotation axis
        stabs = set(np.where(hits >= 0, stabilizer[hits], 1).tolist())
        if len(stabs) != 1:
            raise IdentityViolation(
                f"{group.spec}: stabilizer orders differ along one orbit: {stabs}"
            )
        nu = stabs.pop()
        if nu < 2 or n % nu != 0 or len(orbit) * nu != n:
            raise IdentityViolation(
                f"{group.spec}: orbit of size {len(orbit)} with stabilizer {nu} "
                f"violates orbit-stabilizer for order {n}"
            )
        # the points of each orbit in rounded order
        found = points[orbit]
        found = found[rounded_order(found)].tolist()
        orbits.append(SphereOrbit(tuple(map(Vec3._make, found)), nu))

    # the orbits by stabilizer order, then by their first point (the reshape
    # keeps the rows 4 wide when there is no orbit)
    firsts = np.array([(o.stabilizer_order, *o.points[0]) for o in orbits])
    order = rounded_order(firsts.reshape(-1, 4)).tolist()
    return SingularOrbitData(tuple(orbits[k] for k in order))


def riemann_hurwitz_check(group: RotationGroup) -> bool:
    """Exact branching identity for the quotient of the 2-sphere:

        2 = n * (2 - sum_i (1 - 1/nu_i))

    over the singular orbits, in integer arithmetic.  This pins the Euler
    characteristic of the sphere quotient to 2, i.e. genus zero.  Raises
    IdentityViolation on failure, which would mean the enumerated group is
    not acting the way a rotation group must.
    """
    data = singular_orbits(group)
    n = len(group)
    # n (2 - sum_i (1 - 1/nu_i)) over r orbits; exact, since each nu_i
    # divides n (singular_orbits enforces it)
    r = len(data.orbits)
    rhs = sum(n // o.stabilizer_order for o in data.orbits) - n * (r - 2)
    if rhs != 2:
        raise IdentityViolation(
            f"{group.spec}: branching identity gives {rhs}, expected 2 "
            f"(signature {data.signature})"
        )
    return True


@dataclass(frozen=True)
class Evidence:
    suspension: bool
    riemann_hurwitz: bool
    parity_consistent: bool


@dataclass(frozen=True)
class ClassificationReport:
    """Predicted homeomorphism type of one quotient, with the checks that
    the prediction rests on."""

    base: Base
    spec: GroupSpec
    n: int
    parity: str
    tau_fixed_points: bool
    predicted_space: str
    evidence: Evidence
    suspension_report: SuspensionReport

    @property
    def passed(self) -> bool:
        e = self.evidence
        return e.suspension and e.riemann_hurwitz and e.parity_consistent

    def to_json_dict(self) -> dict:
        return {
            "base": self.base.value,
            "family": self.spec.label,
            "n": self.n,
            "parity": self.parity,
            "tau_fixed_points": self.tau_fixed_points,
            "predicted_space": self.predicted_space,
            "evidence": asdict(self.evidence),
        }


def classify(
    base: Base, spec: GroupSpec, samples: int = 1000, seed: int = 0
) -> ClassificationReport:
    """Predict the homeomorphism type of the quotient of `base` by the
    group and assemble the supporting evidence.

    The quaternion quotient is a sphere for every group.  The rotation
    quotient is a sphere when the group order is even and projective
    3-space when it is odd; evenness is cross-checked against the
    half-turn search and the antipodal solvability scan, and disagreement
    raises ConsistencyFailure instead of guessing.
    """
    group = build_group(spec)
    n = len(group)
    even = n % 2 == 0
    half_turn = has_half_turn(group)
    tau = tau_has_fixed_points(group)
    if not (tau == half_turn == even):
        raise ConsistencyFailure(
            f"{spec}: parity signals disagree "
            f"(order even: {even}, half-turn: {half_turn}, antipodal: {tau})"
        )

    susp = check_suspension(group, samples=samples, seed=seed)
    rh = riemann_hurwitz_check(group)

    if base is Base.SP1:
        predicted = "S3"
    else:
        predicted = "S3" if even else "RP3"

    return ClassificationReport(
        base=base,
        spec=spec,
        n=n,
        parity="even" if even else "odd",
        tau_fixed_points=tau,
        predicted_space=predicted,
        evidence=Evidence(
            suspension=susp.passed,
            riemann_hurwitz=rh,
            parity_consistent=True,
        ),
        suspension_report=susp,
    )
