"""Quaternion algebra of the array kernels against independent oracles.

Products run through `left_matrix(a) @ b` and conjugations through
`conj_matrix(q) @ x`, the kernels every library computation uses.  The
multiplication oracle, `qmul_oracle` in conftest, expands the product over
the basis table (ij = k, jk = i, ki = j and squares -1) instead of the
component formulas, and the rotation oracle is the classical axis-angle
(Rodrigues) matrix at the axis and angle of `rotation_oracle`.  Law-level
properties run under hypothesis.
"""

import math
import types
from typing import NamedTuple

import numpy as np
import pytest
from hypothesis import given, settings, strategies as st

import nvalued
from nvalued import quaternion
from nvalued.quaternion import (
    ONE,
    QI,
    QJ,
    QK,
    Quaternion,
    Vec3,
    canonical_sign,
    conj_matrix,
    left_matrix,
    normalized_rows,
    random_units,
    right_matrix,
    rounded_key,
    rounded_order,
)

from .conftest import (
    canonical_sign_oracle,
    conj_oracle,
    near_half_way,
    np_round_order,
    qmul_oracle,
    rotation_oracle,
    rounded_order_oracle,
    unit_quaternions,
)


def kernel_mul(a, b) -> Quaternion:
    """The Hamilton product a*b as the library forms it: left_matrix(a) @ b."""
    return Quaternion(*(left_matrix(a) @ np.array(b)).tolist())


def kernel_conj(q, x) -> Quaternion:
    """The conjugation q x q* as the library forms it: conj_matrix(q) @ x."""
    return Quaternion(*(conj_matrix(q) @ np.array(x)).tolist())


def rodrigues(axis: Vec3, angle: float) -> np.ndarray:
    """3x3 matrix of the rotation by `angle` about the unit `axis`."""
    a = np.array(axis)
    cross = np.cross(np.eye(3), a)
    c, s = math.cos(angle), math.sin(angle)
    return c * np.eye(3) + s * cross + (1 - c) * np.outer(a, a)


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
    assert kernel_mul(a, b) == expected
    assert qmul_oracle(a, b) == expected


def test_mul_against_table_oracle(rng):
    for _ in range(200):
        a = Quaternion(*(rng.uniform(-2, 2) for _ in range(4)))
        b = Quaternion(*(rng.uniform(-2, 2) for _ in range(4)))
        assert math.dist(kernel_mul(a, b), qmul_oracle(a, b)) < 1e-12


@given(unit_quaternions(), unit_quaternions(), unit_quaternions())
def test_mul_associative(a, b, c):
    left = kernel_mul(kernel_mul(a, b), c)
    assert math.dist(left, kernel_mul(a, kernel_mul(b, c))) < 1e-12
    assert math.dist(left, qmul_oracle(qmul_oracle(a, b), c)) < 1e-12


@given(unit_quaternions(), unit_quaternions())
def test_norm_multiplicative(a, b):
    assert abs(kernel_mul(a, b).norm() - a.norm() * b.norm()) < 1e-12
    assert abs(qmul_oracle(a, b).norm() - a.norm() * b.norm()) < 1e-12


@given(unit_quaternions(), unit_quaternions())
def test_conjugate_antiautomorphism(a, b):
    lhs = kernel_mul(a, b).conjugate()
    rhs = kernel_mul(b.conjugate(), a.conjugate())
    assert math.dist(lhs, rhs) < 1e-12
    assert math.dist(lhs, qmul_oracle(a, b).conjugate()) < 1e-12


class TestConjAction:
    def test_hamilton_examples(self):
        # conjugation by k is the half-turn about z: fixes +-k, negates i, j
        for conj in (kernel_conj, conj_oracle):
            assert math.dist(conj(QK, QJ), -QJ) < 1e-15
            assert math.dist(conj(QK, QI), -QI) < 1e-15
            assert math.dist(conj(QK, QK), QK) < 1e-15

    @given(unit_quaternions(), unit_quaternions())
    def test_preserves_norm_and_re(self, q, x):
        y = kernel_conj(q, x)
        assert abs(y.norm() - x.norm()) < 1e-12
        assert abs(y.w - x.w) < 1e-12
        assert math.dist(y, conj_oracle(q, x)) < 1e-12

    @given(unit_quaternions())
    def test_both_lifts_act_identically(self, q):
        x = Quaternion(0.1, 0.2, -0.3, 0.4)
        assert math.dist(kernel_conj(q, x), kernel_conj(-q, x)) < 1e-12
        assert math.dist(kernel_conj(q, x), conj_oracle(-q, x)) < 1e-12


class TestRotationOf:
    @given(unit_quaternions())
    @settings(max_examples=200)
    def test_matches_rodrigues(self, q):
        axis, angle = rotation_oracle(q)
        if axis is None:
            return
        got = conj_matrix(q)[1:, 1:]
        assert np.abs(got - rodrigues(axis, angle)).max() < 1e-9


def test_canonical_sign_pins_leading_coordinate():
    q = np.array([[-0.5, 0.5, 0.5, 0.5]])
    assert canonical_sign(q).tolist() == [[0.5, -0.5, -0.5, -0.5]]
    assert np.array_equal(canonical_sign(-q), canonical_sign(q))
    # leading coordinate below threshold: the next one decides
    tiny = np.array([[1e-12, -1.0, 0.0, 0.0]])
    assert canonical_sign(tiny)[0, 1] == 1.0


@given(unit_quaternions())
def test_canonical_sign_identifies_antipodes(q):
    row = np.array([q])
    assert np.array_equal(canonical_sign(row), canonical_sign(-row))


def test_random_unit_is_unit_and_reproducible():
    a = random_units(np.random.default_rng(42), 5)
    b = random_units(np.random.default_rng(42), 5)
    assert a.tobytes() == b.tobytes()
    assert np.abs(np.linalg.norm(a, axis=1) - 1.0).max() < 1e-12


@pytest.mark.parametrize("seed, m", [(0, 1), (3, 17), (42, 1000)])
def test_random_units_are_successive_one_point_draws(seed, m):
    a, b = np.random.default_rng(seed), np.random.default_rng(seed)
    expected = np.concatenate([random_units(a, 1) for _ in range(m)])
    assert random_units(b, m).tobytes() == expected.tobytes()
    assert a.bit_generator.state == b.bit_generator.state


@pytest.mark.parametrize("pieces", [(5, 0, 12), (1, 1, 1, 14), (17,)])
def test_random_units_in_pieces_equal_one_draw(pieces):
    a, b = np.random.default_rng(3), np.random.default_rng(3)
    expected = random_units(a, sum(pieces))
    got = np.concatenate([random_units(b, m) for m in pieces])
    assert got.tobytes() == expected.tobytes()
    assert a.bit_generator.state == b.bit_generator.state


def test_random_units_of_no_points_draw_nothing():
    rng = np.random.default_rng(0)
    state = rng.bit_generator.state
    assert random_units(rng, 0).shape == (0, 4)
    assert rng.bit_generator.state == state


@pytest.mark.parametrize("m", [-1, -3])
def test_random_units_reject_a_negative_count(m):
    with pytest.raises(ValueError):
        random_units(np.random.default_rng(0), m)


def test_random_unit_covers_all_signs(rng):
    qs = random_units(rng, 200)
    for i in range(4):
        assert any(q[i] > 0.3 for q in qs)
        assert any(q[i] < -0.3 for q in qs)


@given(unit_quaternions(), unit_quaternions())
def test_matrices_reproduce_products(p, q):
    v = np.array(tuple(q))
    assert np.allclose(left_matrix(p) @ v, np.array(qmul_oracle(p, q)), atol=1e-12)
    assert np.allclose(right_matrix(p) @ v, np.array(qmul_oracle(q, p)), atol=1e-12)


@given(st.lists(unit_quaternions(), min_size=1, max_size=6))
def test_left_matrix_stacks_per_row_matrices(qs):
    stack = left_matrix(np.array(qs))
    assert stack.shape == (len(qs), 4, 4)
    for q, m in zip(qs, stack):
        assert np.array_equal(m, left_matrix(q))


@pytest.mark.parametrize("matrix", [right_matrix, conj_matrix])
@given(qs=st.lists(unit_quaternions(), min_size=1, max_size=6))
def test_right_and_conj_matrices_stack_per_row_matrices(matrix, qs):
    stack = matrix(np.array(qs))
    assert stack.shape == (len(qs), 4, 4)
    for q, m in zip(qs, stack):
        assert np.array_equal(m, matrix(q))


@given(st.lists(unit_quaternions(), min_size=1, max_size=6))
def test_canonical_sign_folds_rows_like_single_quaternions(qs):
    qs += [Quaternion(0.0, 0.0, -1.0, 0.0), Quaternion(-1e-10, -0.6, 0.8, 0.0), -ONE]
    folded = canonical_sign(np.array(qs))
    assert [Quaternion(*row) for row in folded.tolist()] == [
        canonical_sign_oracle(q) for q in qs
    ]


@given(unit_quaternions(), unit_quaternions())
def test_conj_matrix_reproduces_conj_action(q, x):
    got = conj_matrix(q) @ np.array(x)
    assert np.allclose(got, np.array(conj_oracle(q, x)), atol=1e-12)


@pytest.mark.parametrize(
    "components",
    [(1e200, 1e200, 0.0, 0.0), (0.0, -1e300, 1e300, 0.0), (math.inf, 0.0, 0.0, 0.0),
     (math.nan, 1.0, 0.0, 0.0), (0.0, 0.0, 0.0, 0.0), (1e-9, 0.0, 0.0, 0.0)],
    ids=["overflow", "overflow-negative", "inf", "nan", "zero", "near-zero"],
)
def test_quaternion_normalized_rejects_a_norm_out_of_range(components):
    # an overflowing norm used to divide every component to 0
    with pytest.raises(ValueError, match="cannot normalize"):
        Quaternion(*components).normalized()


def scalar_normalized(row) -> list[float]:
    """The float operations of Quaternion.normalized, without its range
    check, which refuses rows of norm under 1e-8."""
    q = Quaternion(*row)
    n = q.norm()
    return [c / n for c in q]


@pytest.mark.parametrize("scale", [1.0, 1e-150, 1e150])
def test_normalized_rows_equal_quaternion_normalized_bit_for_bit(scale):
    rows = np.random.default_rng(5).standard_normal((300, 4))
    # negative components, signed zeros, and rows with one nonzero entry
    rows[:4] = [[-0.0, 1.0, -0.0, 0.0], [0.0, -0.0, -2.0, -0.0],
                [-3.0, 0.0, 0.0, -0.0], [-0.5, -0.5, -0.5, -0.5]]
    rows[4:8] = -np.eye(4)
    rows *= scale
    got = normalized_rows(rows)
    if scale >= 1.0:
        want = np.array([Quaternion(*row).normalized() for row in rows.tolist()])
    else:
        want = np.array([scalar_normalized(row) for row in rows.tolist()])
    assert np.array_equal(got, want)
    assert np.array_equal(np.signbit(got), np.signbit(want))
    assert np.array_equal(np.signbit(got), np.signbit(rows))
    assert got is not rows


def test_rounded_key_rounds_a_numpy_float_as_a_python_float():
    # round() on a numpy float64 rounds as np.round does: 0.574196614978
    x = 0.5741966149775
    assert rounded_key([np.float64(x)]) == rounded_key([x]) == (0.574196614977,)


@given(st.lists(unit_quaternions(), max_size=12))
def test_rounded_order_sorts_unit_rows_as_rounded_key(qs):
    # the repeated rows are exact ties, which a stable order keeps in place
    rows = np.array(qs + qs[::2], dtype=float).reshape(-1, 4)
    assert rounded_order(rows).tolist() == rounded_order_oracle(rows)


def half_way_stacks(rng: np.random.Generator, t: int, m: int) -> np.ndarray:
    """A (t, m, 4) stack of rows whose first coordinate is k / 1e12,
    (k + 1) / 1e12 or within 3 ulps of the half-way point between them,
    one k per trial, and whose other coordinates repeat: how the first
    coordinate rounds decides the order."""
    k = rng.integers(-10**12, 10**12 - 1, size=(t, 1))
    half = (k + 0.5) / 1e12
    near = half + rng.integers(-3, 4, size=(t, m)) * np.spacing(half)
    pick = rng.integers(0, 3, size=(t, m))
    w = np.select([pick == 0, pick == 1], [k / 1e12, (k + 1) / 1e12], near)
    rest = rng.choice([-0.5, 0.0, 0.25, 0.5], size=(t, m, 3))
    return np.concatenate([w[..., None], rest], axis=2)


def test_rounded_order_rounds_half_way_points_as_python_does(rng):
    stacks = half_way_stacks(rng, 4000, 6)
    want = [rounded_order_oracle(rows) for rows in stacks]
    # the stack at once, and each of its trials alone
    assert rounded_order(stacks).tolist() == want
    assert [rounded_order(rows).tolist() for rows in stacks] == want
    # np.round alone orders about one trial in seven otherwise
    assert (np_round_order(stacks) != np.array(want)).any(axis=1).sum() > 200


def test_rounded_order_of_no_rows_is_empty():
    assert rounded_order(np.empty((0, 4))).shape == (0,)
    assert rounded_order(np.empty((3, 0, 4))).shape == (3, 0)


def test_rounded_order_puts_infinite_and_nan_rows_in_place(rng):
    # -inf first, +inf after every finite coordinate, NaN last, as a
    # lexsort does, with no warning; the finite rows keep their order
    rows = random_units(rng, 9)
    rows[[2, 5]] = rows[[1, 4]]
    rows[2, 2], rows[5, 3] = np.inf, -np.inf
    rows[6, 0], rows[7, 0], rows[8, 1] = np.inf, -np.inf, np.nan
    order = rounded_order(rows).tolist()

    def key(i):
        # c != c only for NaN, which sorts after every number
        return [(c != c, 0.0 if c != c else c) for c in rounded_key(rows[i])]

    assert order == sorted(range(9), key=key)
    finite = [i for i in range(9) if np.isfinite(rows[i]).all()]
    want = [finite[k] for k in rounded_order_oracle(rows[finite])]
    assert [i for i in order if i in finite] == want


def test_rounded_order_sorts_an_integer_first_column(rng):
    rows = np.column_stack(
        [rng.choice([2, 3, 5, 1000], size=200), random_units(rng, 200)[:, 1:]]
    )
    rows[100:, 1:] = near_half_way(rng, rows[100:, 1:])
    assert rounded_order(rows).tolist() == rounded_order_oracle(rows)


def test_public_surface_is_all_and_holds_one_arithmetic():
    for name in nvalued.__all__:
        getattr(nvalued, name)
    public = {
        name for name, value in vars(nvalued).items()
        if not name.startswith("_") and not isinstance(value, types.ModuleType)
    }
    assert public <= set(nvalued.__all__)
    # products, conjugations and rotation geometry exist only on arrays
    for name in ("qmul", "qdist", "conj_action", "rotation_of"):
        assert not hasattr(nvalued, name)
        assert not hasattr(quaternion, name)
    assert "__mul__" not in vars(Quaternion)
    # Vec3 is a plain value, with no method of its own
    plain = NamedTuple("Vec3", [("x", float), ("y", float), ("z", float)])
    methods = {name for name, value in vars(Vec3).items() if callable(value)}
    assert methods == {name for name, value in vars(plain).items() if callable(value)}
