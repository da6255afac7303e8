"""Quaternions, the unit 3-sphere, and its double cover of SO(3).

The value types are `Quaternion`, an immutable 4-tuple w + x*i + y*j + z*k,
and `Vec3`, a point of R^3.  Arithmetic runs on (m, 4) arrays through the
kernels `left_matrix`, `right_matrix`, `conj_matrix` (p -> q p q*: on
imaginary p, the rotation covered by q and -q), `normalized_rows`, `random_units`.
"""

from __future__ import annotations

import math
from typing import NamedTuple, Optional

import numpy as np

from .tolerances import EPS_POINT


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


class Quaternion(NamedTuple):
    w: float
    x: float
    y: float
    z: float

    def conjugate(self) -> "Quaternion":
        return Quaternion(self.w, -self.x, -self.y, -self.z)

    def norm(self) -> float:
        return math.sqrt(
            self.w * self.w + self.x * self.x + self.y * self.y + self.z * self.z
        )

    def normalized(self) -> "Quaternion":
        n = self.norm()
        if not 1e-8 <= n < math.inf:
            raise ValueError(f"cannot normalize a quaternion of norm {n}")
        return Quaternion(self.w / n, self.x / n, self.y / n, self.z / n)

    def __neg__(self) -> "Quaternion":
        return Quaternion(-self.w, -self.x, -self.y, -self.z)


ONE = Quaternion(1.0, 0.0, 0.0, 0.0)
QI = Quaternion(0.0, 1.0, 0.0, 0.0)
QJ = Quaternion(0.0, 0.0, 1.0, 0.0)
QK = Quaternion(0.0, 0.0, 0.0, 1.0)


def canonical_sign(q):
    """Fold q and -q onto one representative of the rotation they cover.

    The first coordinate of magnitude above EPS_POINT is made positive;
    this is the lexicographically larger of the two lifts.  Also takes an
    (m, 4) array of quaternions and folds every row.
    """
    if isinstance(q, np.ndarray):
        big = np.abs(q) > EPS_POINT
        lead = q[np.arange(len(q)), big.argmax(axis=1)]
        return np.where((big.any(axis=1) & (lead < 0))[:, None], -q, q)
    for c in q:
        if abs(c) > EPS_POINT:
            return q if c > 0 else -q
    return q


def rounded_key(v) -> tuple[float, ...]:
    """Sort key for points and quaternions: coordinates rounded to 12
    decimals, so that drift below the rounding cannot reorder them."""
    return tuple(round(c, 12) + 0.0 for c in v)


def rotation_of(q: Quaternion) -> tuple[Optional[Vec3], float]:
    """Axis and angle of the rotation that conjugation by q induces.

    The angle lies in [0, 2*pi).  The unit axis is folded by
    canonical_sign, and the angle flips to 2*pi - angle when the fold
    negates the raw axis.  The identity rotation returns (None, 0.0) since
    its axis is undefined.
    """
    w, x, y, z = q
    if w < 0.0:
        w, x, y, z = -w, -x, -y, -z
    s = math.sqrt(x * x + y * y + z * z)
    if s <= EPS_POINT:
        return None, 0.0
    angle = 2.0 * math.atan2(s, w)
    raw = Vec3(x / s, y / s, z / s)
    axis = canonical_sign(raw)
    return axis, angle if axis is raw else 2.0 * math.pi - angle


def random_units(rng: np.random.Generator, m: int) -> np.ndarray:
    """`m` uniform points of S^3 as an (m, 4) array: normalized standard
    normal 4-vectors.  The generator draws in order, so `m` points drawn at
    once are the points of `m` one-point draws.  `m` = 0 draws nothing and
    a negative `m` raises numpy's ValueError.  Nothing is redrawn: a
    4-vector within 1e-8 of 0 has probability about 1e-33."""
    return normalized_rows(rng.standard_normal((m, 4)))


def normalized_rows(q: np.ndarray) -> np.ndarray:
    """Each row of an (m, 4) array divided by its norm, as a new array: a
    row comes out bit for bit as Quaternion(*row).normalized().  It checks
    nothing, being on the hot path: rows must be finite with a norm that
    neither overflows nor nears 0.  `project` checks the quaternion it is
    given; every other row is a normal draw in `random_units` or, in the
    canonicalization kernel, a uniform draw, a conjugate or a product of
    unit quaternions."""
    w, x, y, z = (q * q).T
    return q / np.sqrt(w + x + y + z)[:, None]


# left_matrix(q)[r, c] == _LEFT_SIGN[r, c] * q[_INDEX[r, c]], and the
# same for right_matrix with _RIGHT_SIGN.
_INDEX = np.array([[0, 1, 2, 3], [1, 0, 3, 2], [2, 3, 0, 1], [3, 2, 1, 0]])
_LEFT_SIGN = np.array(
    [[1, -1, -1, -1], [1, 1, -1, 1], [1, 1, 1, -1], [1, -1, 1, 1]], dtype=float
)
_RIGHT_SIGN = np.array(
    [[1, -1, -1, -1], [1, 1, 1, -1], [1, -1, 1, 1], [1, 1, -1, 1]], dtype=float
)
_CONJ_SIGN = np.array([1.0, -1.0, -1.0, -1.0])


def left_matrix(q) -> np.ndarray:
    """4x4 matrix of p -> q*p acting on coefficient vectors (w, x, y, z).

    Also takes an (m, 4) array of quaternions and returns the (m, 4, 4)
    stack of their matrices; so do right_matrix and conj_matrix."""
    return np.asarray(q, dtype=float)[..., _INDEX] * _LEFT_SIGN


def right_matrix(q) -> np.ndarray:
    """4x4 matrix of p -> p*q acting on coefficient vectors (w, x, y, z)."""
    return np.asarray(q, dtype=float)[..., _INDEX] * _RIGHT_SIGN


def conj_matrix(q) -> np.ndarray:
    """4x4 matrix of the conjugation p -> q p q* for unit q."""
    q = np.asarray(q, dtype=float)
    return left_matrix(q) @ right_matrix(q * _CONJ_SIGN)
