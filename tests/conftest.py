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
from nvalued.coset import Base, CosetSpace, Orbit, _distances, _orbits, _product, _rows
from nvalued.quaternion import (
    Quaternion,
    Vec3,
    canonical_sign,
    conj_matrix,
    left_matrix,
    rounded_key,
)
from nvalued.rotgroups import (
    ClosureFailure,
    GroupSpec,
    NotInGroup,
    RotationGroup,
    _cover,
    build_group,
    match_rows,
    same_point,
)
from nvalued.tolerances import EPS_POINT
from nvalued.topology import IdentityViolation, SingularOrbitData, SphereOrbit


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


def rounded_order_oracle(rows: np.ndarray) -> list[int]:
    """The order of the rows of an (m, c) array by rounded_key: a stable
    Python sort of their indices over the rows as Python floats."""
    listed = rows.tolist()
    return sorted(range(len(listed)), key=lambda i: rounded_key(listed[i]))


def np_round_order(rows: np.ndarray) -> np.ndarray:
    """The order of the rows of each stack of a (..., m, c) array by a
    lexsort of np.round(rows, 12) alone, which rounds otherwise than
    Python's round next to a half-way point at the 12th decimal."""
    return np.lexsort(np.moveaxis(np.round(rows, 12), -1, 0)[::-1], axis=-1)


def near_half_way(rng: np.random.Generator, x: np.ndarray) -> np.ndarray:
    """x with each coordinate moved to within 3 ulps of a half-way point
    between two neighbouring 12-decimal values, where np.round and
    Python's round can disagree; no coordinate moves by more than 1e-12."""
    half = (np.floor(x * 1e12) + 0.5) / 1e12
    return half + rng.integers(-3, 4, size=x.shape) * np.spacing(half)


def sorted_lifts_oracle(spec: GroupSpec) -> list[list[float]]:
    """The canonical-sign lifts of the group for `spec`, found as
    build_group finds them and sorted as Python lists by rounded_key."""
    folded = canonical_sign(_cover(spec)) + 0.0
    lifts = folded[np.unique(match_rows(folded, folded))]
    return sorted(lifts.tolist(), key=rounded_key)


def singular_orbits_oracle(group: RotationGroup) -> SingularOrbitData:
    """singular_orbits with each orbit's points sorted as Vec3s by
    rounded_key, then the orbits by stabilizer order and the key of their
    first point, one Python sort each."""
    n = len(group)
    imag = np.delete(group.element_rows, group.identity_index, axis=0)[:, 1:]
    length = np.sqrt((imag * imag).sum(axis=1))
    if (length <= EPS_POINT).any():
        raise IdentityViolation(f"non-identity element of {group.spec} has no axis")
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


def grouped_orbits_oracle(orbits) -> list[tuple[Orbit, int]]:
    """grouped_orbits over the representatives sorted as Python lists by
    rounded_key, each value checked against every earlier group."""
    space, reps = _rows(orbits)
    groups: list[list] = []
    for row in sorted(reps.tolist(), key=rounded_key):
        w = abs(row[0])
        for group in groups:
            first = group[0]
            if abs(abs(first[0]) - w) <= 2.0 * EPS_POINT and (
                _distances(space, np.array(first), np.array([row]))[0] <= EPS_POINT
            ):
                group[1] += 1
                break
        else:
            groups.append([row, 1])
    return [(Orbit(space, Quaternion(*first)), count) for first, count in groups]


def nearest_reference(space: CosetSpace, points, values) -> np.ndarray:
    """coset._distances by the earlier formula, in one sweep of all rows:
    the distance from each point to every image of the (m, k, 4) view
    `canon_images` gives, then the least; inf when there are no images."""
    images = space.canon_images(values)
    diffs = images - points[..., None, :]
    return np.sqrt((diffs * diffs).sum(axis=-1)).min(axis=-1, initial=np.inf)


def outcome(f, *args):
    """What f(*args) gives: its value, or the type of what it raises."""
    try:
        return f(*args)
    except (ValueError, RuntimeError) as exc:
        return type(exc)


def make_space(label: str, base: str) -> CosetSpace:
    """Shared space cache so tests do not rebuild groups over and over.  It
    is keyed by the group object that build_group returns now, so a test
    that clears build_group's cache cannot leave a space whose group no
    longer mixes with a fresh build of the same spec."""
    return _space(build_group(GroupSpec.parse(label)), Base(base))


@lru_cache(maxsize=None)
def _space(group: RotationGroup, base: Base) -> CosetSpace:
    return CosetSpace(group, base)


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
