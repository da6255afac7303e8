"""Quaternion algebra against independent oracles.

The multiplication oracle expands the product over the basis table
(ij = k, jk = i, ki = j and squares -1) instead of the hardcoded component
formulas, and the rotation oracle is the classical axis-angle formula for
rotating a 3-vector.  Law-level properties run under hypothesis.
"""

import math
import random

import numpy as np
import pytest
from hypothesis import given, settings, strategies as st

from nvalued.quaternion import (
    ONE,
    QI,
    QJ,
    QK,
    Quaternion,
    Vec3,
    canonical_sign,
    conj_action,
    conj_matrix,
    left_matrix,
    qdist,
    qmul,
    random_unit,
    right_matrix,
    rotation_of,
)

from .conftest import unit_quaternions

# sign and target index of e_i * e_j for basis order (1, i, j, k)
_SIGN = [
    [1, 1, 1, 1],
    [1, -1, 1, -1],
    [1, -1, -1, 1],
    [1, 1, -1, -1],
]
_INDEX = [
    [0, 1, 2, 3],
    [1, 0, 3, 2],
    [2, 3, 0, 1],
    [3, 2, 1, 0],
]


def qmul_oracle(a: Quaternion, b: Quaternion) -> Quaternion:
    out = [0.0, 0.0, 0.0, 0.0]
    for i in range(4):
        for j in range(4):
            out[_INDEX[i][j]] += _SIGN[i][j] * a[i] * b[j]
    return Quaternion(*out)


def rodrigues(axis: Vec3, angle: float, v: Vec3) -> Vec3:
    c, s = math.cos(angle), math.sin(angle)
    cross = axis.cross(v)
    dot = axis.dot(v)
    return Vec3(
        v.x * c + cross.x * s + axis.x * dot * (1 - c),
        v.y * c + cross.y * s + axis.y * dot * (1 - c),
        v.z * c + cross.z * s + axis.z * dot * (1 - c),
    )


BASIS_PRODUCTS = [
    (QI, QI, -ONE),
    (QJ, QJ, -ONE),
    (QK, QK, -ONE),
    (QI, QJ, QK),
    (QJ, QK, QI),
    (QK, QI, QJ),
    (QJ, QI, -QK),
    (QK, QJ, -QI),
    (QI, QK, -QJ),
]


@pytest.mark.parametrize("a, b, expected", BASIS_PRODUCTS)
def test_basis_products(a, b, expected):
    assert qmul(a, b) == expected


def test_mul_against_table_oracle(rng):
    for _ in range(200):
        a = Quaternion(*(rng.uniform(-2, 2) for _ in range(4)))
        b = Quaternion(*(rng.uniform(-2, 2) for _ in range(4)))
        assert qdist(qmul(a, b), qmul_oracle(a, b)) < 1e-12


@given(unit_quaternions(), unit_quaternions(), unit_quaternions())
def test_mul_associative(a, b, c):
    assert qdist(qmul(qmul(a, b), c), qmul(a, qmul(b, c))) < 1e-12


@given(unit_quaternions(), unit_quaternions())
def test_norm_multiplicative(a, b):
    assert abs(qmul(a, b).norm() - a.norm() * b.norm()) < 1e-12


@given(unit_quaternions(), unit_quaternions())
def test_conjugate_antiautomorphism(a, b):
    lhs = qmul(a, b).conjugate()
    rhs = qmul(b.conjugate(), a.conjugate())
    assert qdist(lhs, rhs) < 1e-12


@given(unit_quaternions())
def test_inverse_is_conjugate_for_units(q):
    assert qdist(q.inverse(), q.conjugate()) < 1e-12
    assert qdist(qmul(q, q.inverse()), ONE) < 1e-12


def test_real_imag_decomposition():
    q = Quaternion(0.5, -1.0, 2.0, 3.0)
    assert q.real == 0.5
    assert q.imag == Vec3(-1.0, 2.0, 3.0)
    assert q.imag.as_quaternion() == Quaternion(0.0, -1.0, 2.0, 3.0)


class TestConjAction:
    def test_hamilton_examples(self):
        # conjugation by k is the half-turn about z: fixes +-k, negates i, j
        assert qdist(conj_action(QK, QJ), -QJ) < 1e-15
        assert qdist(conj_action(QK, QI), -QI) < 1e-15
        assert qdist(conj_action(QK, QK), QK) < 1e-15

    @given(unit_quaternions(), unit_quaternions())
    def test_preserves_norm_and_re(self, q, x):
        y = conj_action(q, x)
        assert abs(y.norm() - x.norm()) < 1e-12
        assert abs(y.real - x.real) < 1e-12

    @given(unit_quaternions())
    def test_both_lifts_act_identically(self, q):
        x = Quaternion(0.1, 0.2, -0.3, 0.4)
        assert qdist(conj_action(q, x), conj_action(-q, x)) < 1e-12


class TestRotationOf:
    def test_identity_has_no_axis(self):
        axis, angle = rotation_of(ONE)
        assert axis is None and angle == 0.0
        axis, angle = rotation_of(-ONE)
        assert axis is None and angle == 0.0

    def test_half_turn_about_z(self):
        axis, angle = rotation_of(QK)
        assert abs(angle - math.pi) < 1e-15
        assert qdist(Quaternion(0.0, *axis), QK) < 1e-15

    def test_angle_range_and_axis_sign(self):
        # lift of a rotation by -2pi/3 about z: comes back as 4pi/3 about +z
        q = Quaternion(math.cos(math.pi / 3), 0.0, 0.0, -math.sin(math.pi / 3))
        axis, angle = rotation_of(q)
        assert axis.z > 0
        assert abs(angle - 4 * math.pi / 3) < 1e-12

    @given(unit_quaternions())
    @settings(max_examples=200)
    def test_matches_rodrigues(self, q):
        axis, angle = rotation_of(q)
        if axis is None:
            return
        rng = random.Random(7)
        v = Vec3(rng.uniform(-1, 1), rng.uniform(-1, 1), rng.uniform(-1, 1))
        rotated = conj_action(q, v.as_quaternion()).imag
        expected = rodrigues(axis, angle, v)
        assert max(abs(a - b) for a, b in zip(rotated, expected)) < 1e-9


def test_canonical_sign_pins_leading_coordinate():
    q = Quaternion(-0.5, 0.5, 0.5, 0.5)
    assert canonical_sign(q) == Quaternion(0.5, -0.5, -0.5, -0.5)
    assert canonical_sign(-q) == canonical_sign(q)
    # leading coordinate below threshold: the next one decides
    tiny = Quaternion(1e-12, -1.0, 0.0, 0.0)
    assert canonical_sign(tiny).x == 1.0


@given(unit_quaternions())
def test_canonical_sign_identifies_antipodes(q):
    assert canonical_sign(q) == canonical_sign(-q)


def test_random_unit_is_unit_and_reproducible():
    a = [random_unit(random.Random(42)) for _ in range(5)]
    b = [random_unit(random.Random(42)) for _ in range(5)]
    assert a == b
    for q in a:
        assert abs(q.norm() - 1.0) < 1e-12


def test_random_unit_covers_all_signs(rng):
    qs = [random_unit(rng) for _ in range(200)]
    for i in range(4):
        assert any(q[i] > 0.3 for q in qs)
        assert any(q[i] < -0.3 for q in qs)


@given(unit_quaternions(), unit_quaternions())
def test_matrices_reproduce_products(p, q):
    v = np.array(tuple(q))
    assert np.allclose(left_matrix(p) @ v, np.array(tuple(qmul(p, q))), atol=1e-12)
    assert np.allclose(right_matrix(p) @ v, np.array(tuple(qmul(q, p))), atol=1e-12)


@given(st.lists(unit_quaternions(), min_size=1, max_size=6))
def test_left_matrix_stacks_per_row_matrices(qs):
    stack = left_matrix(np.array(qs))
    assert stack.shape == (len(qs), 4, 4)
    for q, m in zip(qs, stack):
        assert np.array_equal(m, left_matrix(q))


@given(unit_quaternions(), unit_quaternions())
def test_conj_matrix_reproduces_conj_action(q, x):
    got = conj_matrix(q) @ np.array(tuple(x))
    assert np.allclose(got, np.array(tuple(conj_action(q, x))), atol=1e-12)


def test_vec3_normalized_rejects_zero():
    with pytest.raises(ValueError):
        Vec3(0.0, 0.0, 0.0).normalized()
