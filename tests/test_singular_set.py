"""The axioms on the singular set, which uniform random trials reach with
probability 0.

Identity, inverse and associativity through the public functions at
`TOL_AXIOM`, on points whose stabilizer is not trivial or nearly so: exact
axis points with real part 0 and +-0.6, the poles +-1, and points 1e-10 to
1e-6 off an axis.  Ties between images are exact there, which is where a
canonicalization or a matching could go wrong.  Associativity is checked
twice: by the generic matching of `match_multisets`, and by the pairing of
raw values through the group table that the associativity check runs.
Well-definedness is checked by that pairing, as its check runs it.  The
pairing compares values that are equal in exact arithmetic, so it is held
to a rounding-level budget of 1e-12.
"""

import math

import numpy as np
import pytest

from nvalued.axioms import _paired_associativity, _paired_well_defined
from nvalued.coset import (
    _raw_product,
    identity_orbit,
    match_multisets,
    orbit_distance,
    orbit_inverse,
    orbit_product,
    project,
)
from nvalued.quaternion import ONE, Quaternion
from nvalued.tolerances import TOL_AXIOM
from nvalued.topology import singular_orbits

from .conftest import make_space, triple_products

SPACES = [
    (label, base) for label in ("C2", "D3", "T", "O", "I") for base in ("sp1", "so3")
]
OFFSETS = (1e-10, 1e-8, 1e-6)


def singular_points(space) -> list[Quaternion]:
    """The poles, then for one axis point of each singular orbit: the
    point at real part 0, 0.6 and -0.6, each exactly on the axis and
    moved off it by each of OFFSETS."""
    points = [ONE, -ONE]
    for orbit in singular_orbits(space.group).orbits:
        axis = np.array(orbit.points[0])
        seed = (1.0, 0.0, 0.0) if abs(axis[0]) < 0.9 else (0.0, 1.0, 0.0)
        across = np.cross(axis, seed)
        across /= np.linalg.norm(across)
        for w in (0.0, 0.6, -0.6):
            r = math.sqrt(1.0 - w * w)
            for off in (0.0, *OFFSETS):
                v = r * axis + off * across
                points.append(Quaternion(w, *v).normalized())
    return points


def space_and_points(label, base):
    space = make_space(label, base)
    return space, [project(space, p) for p in singular_points(space)]


@pytest.mark.parametrize("label, base", SPACES)
def test_identity_on_the_singular_set(label, base):
    space, points = space_and_points(label, base)
    e = identity_orbit(space)
    for x in points:
        values = orbit_product(e, x) + orbit_product(x, e)
        assert len(values) == 2 * space.n
        worst = max(orbit_distance(x, v) for v in values)
        assert worst <= TOL_AXIOM, (x.rep, worst)


@pytest.mark.parametrize("label, base", SPACES)
def test_inverse_on_the_singular_set(label, base):
    space, points = space_and_points(label, base)
    e = identity_orbit(space)
    for x in points:
        ix = orbit_inverse(x)
        for values in (orbit_product(x, ix), orbit_product(ix, x)):
            nearest = min(orbit_distance(e, v) for v in values)
            assert nearest <= TOL_AXIOM, (x.rep, nearest)


# Consecutive singular points (x, y, z) = points[i], points[i + 1],
# points[i + 2], wrapping around the list, by the index i.  The generic
# matching gets these ones wrong (ROADMAP open item 3); the pairing through
# the group table passes them all:
# - on I, i = 6 and 10 (one axis at real part +-0.6: on it, 1e-10 and 1e-8
#   off it) are true matches, every orbit distance under 1e-15, that the
#   sorted-column rejection of coset._match turns down;
# - on I@so3, i = 15 (w = 0, 1e-10, 1e-8 and 1e-6 off a second axis) is a
#   true match that only the assignment fallback finds, on the full
#   3600 x 3600 orbit-distance matrix: about 27 s.
FALSE_ALARMS = {("I", "sp1"): (6, 10), ("I", "so3"): (6, 10)}
FULL_FALLBACK = {("I", "so3"): (15,)}


def associative_at(points, i):
    m = len(points)
    x, y, z = points[i], points[(i + 1) % m], points[(i + 2) % m]
    matched, deviation = match_multisets(*triple_products(x, y, z), TOL_AXIOM)
    assert matched, (x.rep, y.rep, z.rep, deviation)


@pytest.mark.parametrize("label, base", SPACES)
def test_associativity_on_the_singular_set(label, base):
    _, points = space_and_points(label, base)
    parked = FALSE_ALARMS.get((label, base), ()) + FULL_FALLBACK.get((label, base), ())
    for i in range(len(points)):
        if i not in parked:
            associative_at(points, i)


@pytest.mark.xfail(
    strict=True,
    reason="coset._match rejects on sorted x, y, z columns, which are no "
    "orbit invariant (ROADMAP open item 3)",
)
@pytest.mark.parametrize(
    "label, base, i",
    [(label, base, i) for (label, base), ix in FALSE_ALARMS.items() for i in ix],
)
def test_associativity_false_alarms_on_the_singular_set(label, base, i):
    _, points = space_and_points(label, base)
    associative_at(points, i)


@pytest.mark.parametrize("label, base", SPACES)
def test_witnessed_associativity_on_the_singular_set(label, base):
    # every consecutive triple, FALSE_ALARMS and FULL_FALLBACK included;
    # the pairing is exact up to rounding, so far inside TOL_AXIOM
    space, points = space_and_points(label, base)
    reps = np.array([p.rep for p in points])
    x, y, z = (np.roll(reps, -shift, axis=0) for shift in range(3))
    deviations = _paired_associativity(space, x, y, z)
    assert deviations.max() <= 1e-12, np.flatnonzero(~(deviations <= 1e-12))


@pytest.mark.parametrize("label, base", SPACES)
def test_witnessed_well_definedness_on_the_singular_set(label, base):
    # every consecutive pair (p, q), moved to (a(p), b(q)) by maps that
    # canon_images sweeps, lift signs included, drawn from a seeded stream;
    # the raw values are paired, so the budget is rounding, as above
    space, points = space_and_points(label, base)
    p = np.array([o.rep for o in points])
    q = np.roll(p, -1, axis=0)
    want = _raw_product(space, p, q)
    images = space.canon_images(p), space.canon_images(q)
    rows = np.arange(len(p))
    rng = np.random.default_rng(0)
    for _ in range(4):
        chosen = rng.integers(images[0].shape[1], size=(len(p), 2))
        moved = [im[rows, c] for im, c in zip(images, chosen.T)]
        got = _raw_product(space, *moved)
        deviations = _paired_well_defined(space, want, got, chosen)
        assert deviations.max() <= 1e-12, np.flatnonzero(~(deviations <= 1e-12))
