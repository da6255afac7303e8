"""Quaternions, the unit 3-sphere, and its double cover of SO(3).

The value types are `Quaternion`, an immutable 4-tuple w + x*i + y*j + z*k,
and `Vec3`, a point of R^3 with no arithmetic of its own.  Arithmetic runs
on (m, 4) arrays through the kernels `left_matrix`, `right_matrix`,
`conj_matrix` (p -> q p q*: on imaginary p, the rotation covered by q and
-q), `normalized_rows`, `random_units`, and `canonical_sign`, which folds
rows.
"""

from __future__ import annotations

import math
from typing import NamedTuple

import numpy as np

from .tolerances import EPS_POINT


class Vec3(NamedTuple):
    """Point of R^3, identified with the imaginary quaternion x*i + y*j + z*k."""

    x: float
    y: float
    z: float


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


def canonical_sign(q: np.ndarray) -> np.ndarray:
    """Fold each row of an (m, k) array onto one of the two signs q and -q:
    the first coordinate of magnitude above EPS_POINT is made positive.  On
    quaternion rows this is the lexicographically larger of the two lifts
    of the rotation they cover."""
    big = np.abs(q) > EPS_POINT
    lead = q[np.arange(len(q)), big.argmax(axis=1)]
    return np.where((big.any(axis=1) & (lead < 0))[:, None], -q, q)


def rounded_key(v) -> tuple[float, ...]:
    """Sort key for points and quaternions: coordinates rounded to 12
    decimals, so that drift below the rounding cannot reorder them."""
    return tuple(round(c, 12) + 0.0 for c in v)


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
