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
from dataclasses import dataclass
from fractions import Fraction
from typing import Optional

import numpy as np

from .coset import Base
from .quaternion import (
    Quaternion,
    Vec3,
    canonical_sign,
    conj_matrix,
    random_units,
    rotation_of,
    rounded_key,
)
from .rotgroups import (
    GroupSpec,
    RotationGroup,
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
        a = self.axis
        seed = Vec3(1.0, 0.0, 0.0) if abs(a.x) < 0.9 else Vec3(0.0, 1.0, 0.0)
        u = Vec3(*(s - a.dot(seed) * c for s, c in zip(seed, a))).normalized()
        v = a.cross(u)
        out = []
        for k in range(32):
            t = 2.0 * math.pi * k / 32
            c, s = math.cos(t), math.sin(t)
            out.append(
                Quaternion(0.0, c * u.x + s * v.x, c * u.y + s * v.y, c * u.z + s * v.z)
            )
        return out


def solve_antipodal(q: Quaternion) -> AntipodalSolutions:
    """Decide solvability of q x q^-1 = -x in unit imaginary quaternions.

    A solution must be imaginary (the real part would flip sign) and the
    conjugation rotates the imaginary space by the rotation angle of q, so
    a solution exists exactly for rotation angle pi: the half-turn case.
    """
    axis, angle = rotation_of(q)
    if axis is not None and abs(angle - math.pi) <= EPS_POINT:
        return AntipodalSolutions(solvable=True, axis=axis)
    return AntipodalSolutions(solvable=False, axis=None)


def tau_has_fixed_points(group: RotationGroup) -> bool:
    """Whether the involution induced by x -> -x on the quaternion quotient
    has a fixed point: some lift must conjugate some x to -x.  Both lifts
    of a rotation give the same answer, since rotation_of folds the sign
    first, so one lift per element decides it."""
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
    if samples < 1:
        raise ValueError(f"check_suspension needs at least one sample, got {samples}")
    if samples > MAX_SAMPLES:
        raise ValueError(f"check_suspension takes at most {MAX_SAMPLES}, got {samples}")
    points = random_units(np.random.default_rng(seed), samples)
    # -q conjugates exactly like q, so the elements stand for the cover.
    mats = conj_matrix(group.element_rows)
    # only the real part of each image is needed: row 0 of each matrix
    real = np.einsum("kj,mj->mk", mats[:, 0, :], points)
    dev = float(np.abs(real - points[:, None, 0]).max())

    poles = np.array([(1.0, 0.0, 0.0, 0.0), (-1.0, 0.0, 0.0, 0.0)])
    pole_images = np.einsum("kij,mj->mki", mats, poles)
    pole_dev = float(np.abs(pole_images - poles[:, None, :]).max())

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

    rotations = conj_matrix(group.element_rows)[:, 1:, 1:]
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
        ordered = sorted(map(Vec3._make, points[orbit].tolist()), key=rounded_key)
        orbits.append(SphereOrbit(tuple(ordered), nu))

    orbits.sort(key=lambda o: (o.stabilizer_order, rounded_key(o.points[0])))
    return SingularOrbitData(tuple(orbits))


def riemann_hurwitz_check(group: RotationGroup) -> bool:
    """Exact branching identity for the quotient of the 2-sphere:

        2 = n * (2 - sum_i (1 - 1/nu_i))

    over the singular orbits, in integer arithmetic.  This pins the Euler
    characteristic of the sphere quotient to 2, i.e. genus zero.  Raises
    IdentityViolation on failure, which would mean the enumerated group is
    not acting the way a rotation group must.
    """
    data = singular_orbits(group)
    n = Fraction(len(group))
    total = sum((1 - Fraction(1, o.stabilizer_order) for o in data.orbits), Fraction(0))
    rhs = n * (2 - total)
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

    def to_json_dict(self) -> dict:
        return {
            "base": self.base.value,
            "family": self.spec.label,
            "n": self.n,
            "parity": self.parity,
            "tau_fixed_points": self.tau_fixed_points,
            "predicted_space": self.predicted_space,
            "evidence": {
                "suspension": self.evidence.suspension,
                "riemann_hurwitz": self.evidence.riemann_hurwitz,
                "parity_consistent": self.evidence.parity_consistent,
            },
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
