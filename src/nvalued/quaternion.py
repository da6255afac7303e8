"""Quaternion arithmetic, the unit 3-sphere, and its double cover of SO(3).

Values are immutable 4-tuples of floats representing w + x*i + y*j + z*k.
Unit quaternions act on points by conjugation q p q*, which restricted to
imaginary quaternions is the rotation covered by q (with -q covering the
same rotation).
"""

from __future__ import annotations

import math
from typing import NamedTuple, Optional

import numpy as np

from .tolerances import EPS_POINT, EPS_UNIT


class Vec3(NamedTuple):
    """Point of R^3, identified with the imaginary quaternion x*i + y*j + z*k."""

    x: float
    y: float
    z: float

    def norm(self) -> float:
        return math.sqrt(self.x * self.x + self.y * self.y + self.z * self.z)

    def normalized(self) -> "Vec3":
        n = self.norm()
        if n < 1e-8:
            raise ValueError("cannot normalize a near-zero vector")
        return Vec3(self.x / n, self.y / n, self.z / n)

    def dot(self, other: "Vec3") -> float:
        return self.x * other.x + self.y * other.y + self.z * other.z

    def cross(self, other: "Vec3") -> "Vec3":
        return Vec3(
            self.y * other.z - self.z * other.y,
            self.z * other.x - self.x * other.z,
            self.x * other.y - self.y * other.x,
        )

    def __neg__(self) -> "Vec3":
        return Vec3(-self.x, -self.y, -self.z)

    def as_quaternion(self) -> "Quaternion":
        return Quaternion(0.0, self.x, self.y, self.z)


class Quaternion(NamedTuple):
    w: float
    x: float
    y: float
    z: float

    @property
    def real(self) -> float:
        return self.w

    @property
    def imag(self) -> Vec3:
        return Vec3(self.x, self.y, self.z)

    def conjugate(self) -> "Quaternion":
        return Quaternion(self.w, -self.x, -self.y, -self.z)

    def norm_squared(self) -> float:
        return self.w * self.w + self.x * self.x + self.y * self.y + self.z * self.z

    def norm(self) -> float:
        return math.sqrt(self.norm_squared())

    def normalized(self) -> "Quaternion":
        n = self.norm()
        if n < 1e-8:
            raise ValueError("cannot normalize a near-zero quaternion")
        return Quaternion(self.w / n, self.x / n, self.y / n, self.z / n)

    def inverse(self) -> "Quaternion":
        """Multiplicative inverse; equals the conjugate for unit quaternions."""
        n2 = self.norm_squared()
        return Quaternion(self.w / n2, -self.x / n2, -self.y / n2, -self.z / n2)

    def is_unit(self, tol: float = EPS_UNIT) -> bool:
        return abs(self.norm() - 1.0) <= tol

    def __mul__(self, other):  # Hamilton product
        if isinstance(other, Quaternion):
            return qmul(self, other)
        return NotImplemented

    def __neg__(self) -> "Quaternion":
        return Quaternion(-self.w, -self.x, -self.y, -self.z)


ONE = Quaternion(1.0, 0.0, 0.0, 0.0)
QI = Quaternion(0.0, 1.0, 0.0, 0.0)
QJ = Quaternion(0.0, 0.0, 1.0, 0.0)
QK = Quaternion(0.0, 0.0, 0.0, 1.0)


def qmul(a: Quaternion, b: Quaternion) -> Quaternion:
    """Hamilton product a*b."""
    aw, ax, ay, az = a
    bw, bx, by, bz = b
    return Quaternion(
        aw * bw - ax * bx - ay * by - az * bz,
        aw * bx + ax * bw + ay * bz - az * by,
        aw * by - ax * bz + ay * bw + az * bx,
        aw * bz + ax * by - ay * bx + az * bw,
    )


def qdist(a: Quaternion, b: Quaternion) -> float:
    """Euclidean distance in R^4."""
    return math.sqrt(
        (a.w - b.w) ** 2 + (a.x - b.x) ** 2 + (a.y - b.y) ** 2 + (a.z - b.z) ** 2
    )


def conj_action(q: Quaternion, p: Quaternion) -> Quaternion:
    """Conjugation q p q* of a unit quaternion q on a point p.

    Preserves the real part and the norm of p; restricted to imaginary
    quaternions it is the rotation covered by q.
    """
    return qmul(qmul(q, p), q.conjugate())


def canonical_sign(q: Quaternion) -> Quaternion:
    """Fold q and -q onto one representative of the rotation they cover.

    The first coordinate of magnitude above EPS_POINT is made positive;
    this is the lexicographically larger of the two lifts.
    """
    for c in q:
        if abs(c) > EPS_POINT:
            return q if c > 0 else -q
    return q


def rotation_of(q: Quaternion) -> tuple[Optional[Vec3], float]:
    """Axis and angle of the rotation that conjugation by q induces.

    The angle lies in [0, 2*pi).  The unit axis has its first coordinate of
    magnitude above EPS_POINT made positive, flipping the angle to
    2*pi - angle when the raw axis had to be negated.  The identity
    rotation returns (None, 0.0) since its axis is undefined.
    """
    w, x, y, z = q
    if w < 0.0:
        w, x, y, z = -w, -x, -y, -z
    s = math.sqrt(x * x + y * y + z * z)
    if s <= EPS_POINT:
        return None, 0.0
    angle = 2.0 * math.atan2(s, w)
    axis = Vec3(x / s, y / s, z / s)
    for c in axis:
        if abs(c) > EPS_POINT:
            if c < 0.0:
                axis = -axis
                angle = 2.0 * math.pi - angle
            break
    return axis, angle


def random_unit(rng) -> Quaternion:
    """Uniform point of the unit sphere S^3 from a seeded random.Random."""
    while True:
        q = Quaternion(rng.gauss(0, 1), rng.gauss(0, 1), rng.gauss(0, 1), rng.gauss(0, 1))
        if q.norm() >= 1e-8:
            return q.normalized()


# left_matrix(q)[r, c] == _LEFT_SIGN[r, c] * q[_LEFT_INDEX[r, c]]
_LEFT_INDEX = np.array([[0, 1, 2, 3], [1, 0, 3, 2], [2, 3, 0, 1], [3, 2, 1, 0]])
_LEFT_SIGN = np.array(
    [[1, -1, -1, -1], [1, 1, -1, 1], [1, 1, 1, -1], [1, -1, 1, 1]], dtype=float
)


def left_matrix(q) -> np.ndarray:
    """4x4 matrix of p -> q*p acting on coefficient vectors (w, x, y, z).

    Also takes an (m, 4) array of quaternions and returns the (m, 4, 4)
    stack of their matrices."""
    return np.asarray(q, dtype=float)[..., _LEFT_INDEX] * _LEFT_SIGN


def right_matrix(q: Quaternion) -> np.ndarray:
    """4x4 matrix of p -> p*q acting on coefficient vectors (w, x, y, z)."""
    w, x, y, z = q
    return np.array(
        [
            [w, -x, -y, -z],
            [x, w, z, -y],
            [y, -z, w, x],
            [z, y, -x, w],
        ]
    )


def conj_matrix(q: Quaternion) -> np.ndarray:
    """4x4 matrix of the conjugation p -> q p q* for unit q."""
    return left_matrix(q) @ right_matrix(q.conjugate())
