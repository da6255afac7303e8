"""Quaternions, the unit 3-sphere, and its double cover of SO(3).

The value types are `Quaternion`, an immutable 4-tuple w + x*i + y*j + z*k,
and `Vec3`, a point of R^3 with no arithmetic of its own.  Arithmetic runs
on (m, 4) arrays through the kernels `left_matrix`, `right_matrix`,
`conj_matrix` (p -> q p q*: on imaginary p, the rotation covered by q and
-q), `normalized_rows`, `random_units`, and `canonical_sign`, which folds
rows.  Rows of points, quaternions and product values are ordered by one
rule, their coordinates rounded to 12 decimals and compared
lexicographically: `rounded_order` sorts a whole array that way, and
`rounded_key` is the same rule for one row.
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
    decimals, so that drift below the rounding cannot reorder them.  Each
    coordinate is rounded as a Python float, whatever its type: `round` on
    a numpy float64 rounds as `np.round` does."""
    return tuple(round(float(c), 12) + 0.0 for c in v)


# np.round(x, 12) scales x by 1e12, rounds half to even and scales back.
# For |x| <= 1 the scaled product is within 2^-13 (1.2e-16 once scaled
# back) of the exact x * 1e12, and the result within half an ulp (1.1e-16)
# of the decimal it names, so where it rounds otherwise than Python's
# `round`, which rounds the exact decimal value of x, x lies within
# 1.2e-16 of a half-way point and |x - np.round(x, 12)| within 2.4e-16 of
# 5e-13.  Integers below 2^15 in magnitude scale exactly and come back
# unchanged.  The margin covers both with room to spare.
_HALF_WAY = 5e-13
_HALF_WAY_MARGIN = 1e-15


def rounded_order(rows: np.ndarray) -> np.ndarray:
    """The stable order of the rows of a (..., m, c) array by `rounded_key`,
    along the row axis; shape (..., m).  For each stack of rows it is bit
    for bit `sorted(range(m), key=lambda i: rounded_key(rows[i]))`, on
    coordinates of magnitude at most 1 and on integers below 2^15.  The
    keys come from `np.round`, except that the coordinates near a half-way
    point at the 12th decimal, the only ones where it can round otherwise,
    are rounded again by Python's `round`."""
    keys = np.round(rows, 12)
    # an infinite coordinate gives inf - inf = NaN here: near no half-way point
    with np.errstate(invalid="ignore"):
        near = np.abs(np.abs(rows - keys) - _HALF_WAY) <= _HALF_WAY_MARGIN
    if near.any():
        keys[near] = [round(c, 12) for c in rows[near].tolist()]
    return np.lexsort(np.moveaxis(keys, -1, 0)[::-1], axis=-1)


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
    given; every other row is a normal draw in `random_units`, a product
    of unit quaternions in the inverse check and in `corrupted_copy`, or,
    in the canonicalization kernel, a uniform draw, a conjugate or a
    product of unit quaternions."""
    sq = (q * q).T
    return q / np.sqrt(sq[0] + sq[1] + sq[2] + sq[3])[:, None]


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
