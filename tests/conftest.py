import math
import os
from fractions import Fraction
from functools import lru_cache
from pathlib import Path

import numpy as np
import pytest
from hypothesis import assume, strategies as st

import nvalued
from nvalued import coset
from nvalued.coset import Base, CosetSpace, _orbits, _product
from nvalued.quaternion import Quaternion, Vec3, left_matrix
from nvalued.rotgroups import (
    ClosureFailure,
    GroupSpec,
    NotInGroup,
    RotationGroup,
    build_group,
    same_point,
)
from nvalued.tolerances import EPS_POINT


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


def qmul_oracle(a, b) -> Quaternion:
    """The Hamilton product a*b expanded over the basis table (ij = k,
    jk = i, ki = j and squares -1): the tests' one scalar reference for the
    array kernels of nvalued.quaternion."""
    out = [0.0, 0.0, 0.0, 0.0]
    for i in range(4):
        for j in range(4):
            out[_INDEX[i][j]] += _SIGN[i][j] * a[i] * b[j]
    return Quaternion(*out)


def conj_oracle(q: Quaternion, p) -> Quaternion:
    """The conjugation q p q* as two products of qmul_oracle."""
    return qmul_oracle(qmul_oracle(q, p), q.conjugate())


def canonical_sign_oracle(q):
    """canonical_sign on one quaternion or 3-vector, as a scalar loop:
    q itself when its first coordinate of magnitude above EPS_POINT is
    positive (or none is), else q with every coordinate negated."""
    for c in q:
        if abs(c) > EPS_POINT:
            return q if c > 0 else type(q)(*(-c for c in q))
    return q


def rotation_oracle(q) -> tuple:
    """Axis and angle of the rotation that conjugation by q induces, in
    scalar arithmetic: the angle lies in [0, 2 pi), and flips to
    2 pi - angle when canonical_sign_oracle negates the unit axis.  The
    identity rotation has axis None and angle 0."""
    w, x, y, z = q
    if w < 0.0:
        w, x, y, z = -w, -x, -y, -z
    s = math.sqrt(x * x + y * y + z * z)
    if s <= EPS_POINT:
        return None, 0.0
    angle = 2.0 * math.atan2(s, w)
    raw = Vec3(x / s, y / s, z / s)
    axis = canonical_sign_oracle(raw)
    return axis, angle if axis is raw else 2.0 * math.pi - angle


def index_of_oracle(group: RotationGroup, g) -> int:
    """RotationGroup.index_of by comparing g, either lift, with every
    stored row: the first row that is the same point, or NotInGroup."""
    q = np.array(g, dtype=float)
    rows = group.element_rows
    hits = np.flatnonzero(same_point(rows, q) | same_point(rows, -q))
    if not len(hits):
        raise NotInGroup(f"{g} is not an element of {group.spec.label}")
    return int(hits[0])


def element_order_oracle(g, group: RotationGroup) -> int:
    """element_order as the denominator of the fraction nearest the turn
    fraction among all denominators up to the group order, which need not
    divide it; ClosureFailure when that power still misses +-1 by more
    than EPS_POINT."""
    w, x, y, z = group.element_rows[index_of_oracle(group, g)]
    turns = math.atan2(math.sqrt(x * x + y * y + z * z), abs(w)) / math.pi
    frac = Fraction(turns).limit_denominator(len(group))
    if math.pi * abs(turns - frac) * frac.denominator > EPS_POINT:
        raise ClosureFailure(f"no power of {g} returns to the identity")
    return frac.denominator


def outcome(f, *args):
    """What f(*args) gives: its value, or the type of what it raises."""
    try:
        return f(*args)
    except (ValueError, RuntimeError) as exc:
        return type(exc)


@lru_cache(maxsize=None)
def make_space(label: str, base: str) -> CosetSpace:
    """Shared space cache so tests do not rebuild groups over and over."""
    return CosetSpace(build_group(GroupSpec.parse(label)), Base(base))


def count_assignments(monkeypatch) -> list[int]:
    """Record the rows of each cost matrix that coset._match assigns."""
    calls = []
    assign = coset.linear_sum_assignment
    monkeypatch.setattr(
        coset, "linear_sum_assignment", lambda m: calls.append(len(m)) or assign(m)
    )
    return calls


def product_left(space: CosetSpace, x, y, z) -> np.ndarray:
    """All n^2 canonical values of (x[t] y[t]) z[t] for each row t of the
    (m, 4) arrays, as n^2 consecutive rows per t: row i*n + j of a block
    holds the j-th value of the i-th value of x y times z."""
    return _product(space, _product(space, x, y), np.repeat(z, space.n, axis=0))


def product_right(space: CosetSpace, x, y, z) -> np.ndarray:
    """All n^2 canonical values of x[t] (y[t] z[t]), laid out as in
    product_left with the values of y z in place of those of x y."""
    return _product(space, np.repeat(x, space.n, axis=0), _product(space, y, z))


def triple_products(x, y, z):
    """The n^2 values of (x y) z and of x (y z), as lists of orbits of the
    space of x, every value canonicalized."""
    space = x.space
    reps = [np.array([o.rep]) for o in (x, y, z)]
    return (
        _orbits(space, product_left(space, *reps)),
        _orbits(space, product_right(space, *reps)),
    )


def subprocess_env() -> dict:
    """The environment for a child interpreter that imports the nvalued
    under test, installed or not."""
    src = str(Path(nvalued.__file__).resolve().parents[1])
    path = os.pathsep.join([src, os.environ.get("PYTHONPATH", "")])
    return {**os.environ, "PYTHONPATH": path}


@pytest.fixture
def rng() -> np.random.Generator:
    return np.random.default_rng(0)


@st.composite
def unit_quaternions(draw) -> Quaternion:
    components = [
        draw(st.floats(min_value=-1.0, max_value=1.0, allow_nan=False))
        for _ in range(4)
    ]
    q = Quaternion(*components)
    assume(q.norm() > 1e-3)
    return q.normalized()


@st.composite
def equator_quaternions(draw) -> Quaternion:
    """Unit quaternions with real part exactly 0."""
    components = [
        draw(st.floats(min_value=-1.0, max_value=1.0, allow_nan=False))
        for _ in range(3)
    ]
    q = Quaternion(0.0, *components)
    assume(q.norm() > 1e-3)
    return q.normalized()


def closure_defect(group: RotationGroup, chunk: int = 1024) -> float:
    """Max distance from any pairwise cover product to the nearest cover
    element: the closure certificate of a cover.  Zero up to drift for a
    genuine group; cubic in the order."""
    cover = np.array([tuple(q) for q in group.cover])
    mats = left_matrix(cover)
    products = np.einsum("aij,bj->abi", mats, cover).reshape(-1, 4)
    worst = 0.0
    for start in range(0, len(products), chunk):
        block = products[start : start + chunk]
        diffs = block[:, None, :] - cover[None, :, :]
        dist = np.sqrt((diffs * diffs).sum(axis=2)).min(axis=1)
        worst = max(worst, float(dist.max()))
    return worst
