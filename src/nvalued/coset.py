"""Quotients of the unit quaternions by a finite rotation group, and the
n-valued multiplication they carry.

The finite group sits inside the automorphism group of the base, which is
the rotation group acting by conjugation, so each group element acts as
x -> g x g^-1 on either base.  The two bases differ only in what counts as
a point: on the unit quaternions x and -x are distinct, on the rotation
quotient they are the two lifts of the same rotation and are identified.

A point of the quotient is an orbit.  We store one canonical representative
per orbit: the lexicographically largest image under the full sweep (orbit
images, plus lift signs on the rotation base), compared coordinate-wise
with an EPS_POINT tolerance.  Conjugation fixes the real part and rotates
the vector part, so every image of a point shares its real part, and
canonicalization only compares the rotated vector parts; on the rotation
base the lift sign is fixed by the sign of the real part, except within
EPS_POINT / 2 of the equator, where both signs compete.  Products of orbits
are multisets of orbits, one entry per group element:

    product(a, b) = [ class(a * g_i(b)) for each g_i in the group ]

where * is the quaternion product of representatives and g_i(b) is the
conjugation action.  Multiset equality up to tolerance is what the axiom
and acceptance checks consume.

Internally representatives are rows of (m, 4) arrays: canonicalization,
the product and the orbit distance each run once over a whole batch.
`Orbit` is the view of one row that the public functions take and return.
"""

from __future__ import annotations

import math
from dataclasses import dataclass, field
from enum import Enum

import numpy as np

from .quaternion import (
    ONE,
    Quaternion,
    conj_matrix,
    left_matrix,
    normalized_rows,
    random_units,
    rounded_key,
)
from .rotgroups import RotationGroup
from .tolerances import EPS_POINT, SEPARATION_FACTOR


class Base(Enum):
    """Which space the group acts on by conjugation: the unit quaternions,
    where x and -x are distinct points, or the rotation group, where they
    name the same rotation."""

    SP1 = "sp1"
    SO3 = "so3"


# A sweep over many rows runs in blocks of rows that have at most this many
# images under the acting maps, so that its temporaries stay in cache.
SWEEP_BLOCK = 1 << 16

# Rejections in a row after which random sampling gives up on a space.
MAX_TRIES = 64

_ONE_ROW = np.array(tuple(ONE))


class SizeMismatch(ValueError):
    """Multisets of different cardinality were compared."""


class CosetSpace:
    """The quotient of a base space by a finite rotation group.

    `base` is a Base or its value ("sp1", "so3").  Precomputes the action
    matrices once: the i-th is conjugation by the i-th group element
    (either lift conjugates identically).  The canon family is the set of
    maps whose images sweep out everything a point is identified with; on
    the rotation base each point also carries the sign ambiguity of its
    lift, so the family there includes the negated maps.
    Both families are kept as (k*4, 4) stacks, so that a sweep of m points
    is a single (m, 4) x (4, k*4) matmul.  The acting stack is map-major
    (row 4*i + r holds row r of the i-th map); the canon stack, which orbit
    distances sweep, is coordinate-major (row r*k + i), so that each
    coordinate of the k images of a point is contiguous, the axis the
    distances reduce over.  Canonicalization sweeps only the vector part,
    by the 3x3 rotation blocks of the acting maps, kept coordinate-major
    as a (3, 3*n) stack (column c*n + i holds row c of the i-th rotation).
    """

    def __init__(self, group: RotationGroup, base: Base | str):
        self.group = group
        self.base = Base(base)
        act = conj_matrix(group.element_rows)
        canon = act if self.base is Base.SP1 else np.concatenate([act, -act])
        self._act_stack = act.reshape(-1, 4)
        self._canon_cols = canon.transpose(1, 0, 2).reshape(-1, 4)
        self._rot_cols = act[:, 1:, 1:].transpose(2, 1, 0).reshape(3, -1)
        # Rows per block of a sweep of many points.
        self._block_rows = max(1, SWEEP_BLOCK // len(act))

    @property
    def n(self) -> int:
        """Number of values of the product: the order of the group."""
        return len(self.group)

    @property
    def label(self) -> str:
        return f"{self.group.spec.label}@{self.base.value}"

    def __repr__(self) -> str:
        return f"CosetSpace({self.label}, n={self.n})"

    def act_images(self, points: np.ndarray) -> np.ndarray:
        """Images of each row of `points` under every acting map;
        shape (len(points), n, 4)."""
        return (points @ self._act_stack.T).reshape(len(points), -1, 4)

    def canon_images(self, points: np.ndarray) -> np.ndarray:
        """Full orbit sweep of each row of `points` (includes lift signs on
        the rotation quotient); shape (len(points), k, 4), a view of the
        coordinate-major sweep."""
        sweep = (points @ self._canon_cols.T).reshape(len(points), 4, -1)
        return sweep.transpose(0, 2, 1)


@dataclass(frozen=True, eq=False)
class Orbit:
    """A point of a coset space: its canonical representative quaternion."""

    space: CosetSpace = field(repr=False)
    rep: Quaternion

    def __repr__(self) -> str:
        c = ", ".join(f"{v:+.6f}" for v in self.rep)
        return f"Orbit[{self.space.label}]({c})"


def _orbits(space: CosetSpace, reps: np.ndarray) -> list[Orbit]:
    return [Orbit(space, Quaternion(*row)) for row in reps.tolist()]


def _check_space(space: CosetSpace, orbits) -> None:
    """Raise ValueError unless every orbit lies in `space`: the same group
    object (groups are built once per spec) and the same base.  Orbits of
    two spaces have no product or distance."""
    for o in orbits:
        if o.space.group is not space.group or o.space.base is not space.base:
            raise ValueError(f"orbits of {space.label} and {o.space.label} do not mix")


def _blocks(space: CosetSpace, m: int) -> list[slice]:
    """Row slices of an m-row batch, each of at most `_block_rows` rows.
    The blocks are of equal size (within one row), so a batch of several
    rows never leaves a one-row block: numpy computes a one-row sweep by
    another BLAS routine, whose last bits differ, and a block's result
    would then depend on how the batch was cut."""
    count = max(1, -(-m // space._block_rows))
    edges = [m * i // count for i in range(count + 1)]
    return [slice(a, b) for a, b in zip(edges, edges[1:])]


def _canonical(space: CosetSpace, points: np.ndarray) -> np.ndarray:
    """Canonical representative of the orbit of each row of `points`, as an
    (m, 4) array of unit quaternions.

    The representative is the coordinate-wise lexicographic maximum over
    the orbit sweep, decided with EPS_POINT slack so that drift cannot
    reorder two images that agree up to noise.  Near the singular set the
    winner can jump between two images that are close but not equal; they
    are points of the same orbit, so orbit distance and multiset matching
    absorb the jump.
    """
    if len(points) <= space._block_rows:
        return _canonical_block(space, points)
    return np.concatenate(
        [_canonical_block(space, points[b]) for b in _blocks(space, len(points))]
    )


def _canonical_block(space: CosetSpace, points: np.ndarray) -> np.ndarray:
    # Every image shares the real part of its point, which therefore decides
    # nothing on the quaternion base.  On the rotation base it decides the
    # lift sign: the positive one wins by more than EPS_POINT unless
    # |w| <= EPS_POINT / 2, and only those rows compare both signs.
    q = normalized_rows(points)
    both = np.empty(0, dtype=int)
    if space.base is Base.SO3:
        q = np.where(q[:, :1] < 0.0, -q, q)
        both = np.flatnonzero(q[:, 0] <= EPS_POINT / 2)
    m = len(q)
    images = (q[:, 1:] @ space._rot_cols).reshape(m, 3, -1)
    reps = np.empty_like(q)
    reps[:, 0] = q[:, 0]
    reps[:, 1:] = images[np.arange(m), :, _lexmax(images)]
    if len(both):
        w = np.broadcast_to(q[both, :1, None], (len(both), 1, images.shape[2]))
        signed = np.concatenate([w, images[both]], axis=1)
        signed = np.concatenate([signed, -signed], axis=2)
        reps[both] = signed[np.arange(len(both)), :, _lexmax(signed)]
    return reps


def _lexmax(images: np.ndarray) -> np.ndarray:
    """Index of the canonical image in each row of an (m, c, k) array of
    k images of c coordinates each: the EPS_POINT-slack lexicographic
    maximum, then the exact lexicographic maximum among the images that
    survive the slack filter (the last one, if several are exactly
    equal)."""
    m, c, k = images.shape
    alive = np.ones((m, k), dtype=bool)
    for coord in range(c):
        col = np.where(alive, images[:, coord], -np.inf)
        alive &= col >= col.max(axis=1, keepdims=True) - EPS_POINT
        if alive.sum() == m:
            # One image survives in every row, and later coordinates keep it.
            return alive.argmax(axis=1)

    pick = alive.argmax(axis=1)
    multi = np.flatnonzero(alive.sum(axis=1) > 1)
    images_m, best = images[multi], alive[multi]
    for coord in range(c):
        col = np.where(best, images_m[:, coord], -np.inf)
        best &= col == col.max(axis=1, keepdims=True)
    pick[multi] = k - 1 - best[:, ::-1].argmax(axis=1)
    return pick


def _nearest(points: np.ndarray, images: np.ndarray) -> np.ndarray:
    """Distance from each point (..., 4) to the nearest of its images
    (..., k, 4); inf when there are no images."""
    diffs = images - points[..., None, :]
    return np.sqrt((diffs * diffs).sum(axis=-1)).min(axis=-1, initial=np.inf)


def _distances(
    space: CosetSpace, points: np.ndarray, values: np.ndarray
) -> np.ndarray:
    """Orbit distance from each row of `points` (or from one point, a
    (4,) array) to the orbit of the same row of `values`, swept in blocks."""
    points = np.broadcast_to(points, values.shape)
    return np.concatenate(
        [
            _nearest(points[b], space.canon_images(values[b]))
            for b in _blocks(space, len(values))
        ]
    )


def _distances_to_identity(space: CosetSpace, values: np.ndarray) -> np.ndarray:
    """Orbit distance from the identity class to the orbit of each row of
    `values`, without a sweep: every conjugation fixes 1 and -1, so it is
    |v - 1|, or min(|v - 1|, |v + 1|) on the rotation base.  (Not
    sqrt(2 - 2 w), which cancels to about 1e-8 next to the identity.)"""
    dist = np.sqrt(((values - _ONE_ROW) ** 2).sum(axis=1))
    if space.base is Base.SO3:
        dist = np.minimum(dist, np.sqrt(((values + _ONE_ROW) ** 2).sum(axis=1)))
    return dist


def _product(space: CosetSpace, a: np.ndarray, b: np.ndarray) -> np.ndarray:
    """Canonical representatives of a[i] * g(b[i]) for every group element
    g, as n consecutive rows per i.  `a` and `b` are (m, 4) arrays, or one
    of them (1, 4)."""
    values = space.act_images(b) @ left_matrix(a).transpose(0, 2, 1)
    return _canonical(space, values.reshape(-1, 4))


def project(space: CosetSpace, w: Quaternion) -> Orbit:
    """The orbit of a unit quaternion: the projection map onto the quotient.
    Raises ValueError for a non-finite quaternion."""
    if not all(map(math.isfinite, w)):
        raise ValueError(f"cannot project a non-finite quaternion {w}")
    (x,) = _orbits(space, _canonical(space, np.array([w.normalized()])))
    return x


def orbit_distance(x: Orbit, y: Orbit) -> float:
    """Distance between orbits: min over the orbit of y of the distance to
    the representative of x."""
    _check_space(x.space, (y,))
    images = x.space.canon_images(np.array([y.rep]))[0]
    return float(_nearest(np.array(x.rep), images))


def product_from_representatives(
    space: CosetSpace, a: Quaternion, b: Quaternion
) -> list[Orbit]:
    """Product multiset computed from explicit representatives: the classes
    of a * g_i(b) over the group.  Agreement across every choice of
    representatives is exactly the well-definedness of the product."""
    return _orbits(space, _product(space, np.array([a]), np.array([b])))


def orbit_product(x: Orbit, y: Orbit) -> list[Orbit]:
    """The n values of the product of two orbits, as a list (a multiset;
    order carries no meaning beyond determinism)."""
    _check_space(x.space, (y,))
    return product_from_representatives(x.space, x.rep, y.rep)


def _product_left(space: CosetSpace, x, y, z) -> np.ndarray:
    """All n^2 values of (x[t] y[t]) z[t] for each row t of the (m, 4)
    arrays, as n^2 consecutive rows per t: row i*n + j of a block holds the
    j-th value of the i-th value of x y times z."""
    return _product(space, _product(space, x, y), np.repeat(z, space.n, axis=0))


def _product_right(space: CosetSpace, x, y, z) -> np.ndarray:
    """All n^2 values of x[t] (y[t] z[t]), laid out as in _product_left
    with the values of y z in place of those of x y."""
    return _product(space, np.repeat(x, space.n, axis=0), _product(space, y, z))


def orbit_inverse(x: Orbit) -> Orbit:
    """The distinguished inverse: the orbit of the conjugate (equivalently
    the quaternion inverse, for unit representatives)."""
    return project(x.space, x.rep.conjugate())


def identity_orbit(space: CosetSpace) -> Orbit:
    """The orbit of 1, the two-sided identity of the product."""
    return project(space, ONE)


def _rounded_order(reps: np.ndarray) -> np.ndarray:
    # Rows sorted lexicographically on 12-decimal rounding, stable, so that
    # drift below the rounding does not reorder canonical representatives.
    return np.lexsort(np.round(reps, 12).T[::-1])


def linear_sum_assignment(cost: np.ndarray) -> tuple[np.ndarray, np.ndarray]:
    """scipy's optimal assignment, imported on first use: only the rare
    fallback in `match_multisets` needs it, so importing nvalued does not
    pay for scipy."""
    from scipy.optimize import linear_sum_assignment as solve

    return solve(cost)


def match_multisets(
    a: list[Orbit], b: list[Orbit], tol: float
) -> tuple[bool, float]:
    """Decide multiset equality of two orbit lists up to `tol`.

    Returns (matched, deviation).  When matched, deviation is the largest
    distance inside any matched pair: the distance between the two
    representatives for a pair within tol, the orbit distance for the
    others; when not matched, it is the best bound the failed strategy
    produced (finite unless a representative is not).

    Strategy: sort both by the rounded representative and pair positionally
    (the common case, since representatives are canonical).  A pair whose
    representatives are within tol is matched, since the orbit distance is
    at most their distance; only the other pairs are checked with the orbit
    distance.  If positional pairing fails, fall back to an optimal
    assignment on the full orbit-distance matrix.  A cheap sound rejection
    runs first: sorted per-coordinate values of the two rep sets must agree
    within tol, since any true matching permutes them.

    Raises SizeMismatch for lists of different lengths and ValueError for
    orbits of different spaces.
    """
    if len(a) != len(b):
        raise SizeMismatch(f"multisets of size {len(a)} vs {len(b)}")
    if not a:
        return True, 0.0
    _check_space(a[0].space, (*a, *b))
    return _match(
        a[0].space, np.array([o.rep for o in a]), np.array([o.rep for o in b]), tol
    )


def _match(
    space: CosetSpace, ra: np.ndarray, rb: np.ndarray, tol: float
) -> tuple[bool, float]:
    """match_multisets on two non-empty (m, 4) arrays of canonical
    representatives."""
    gap = float(np.abs(np.sort(ra, axis=0) - np.sort(rb, axis=0)).max())
    if not gap <= 2.0 * tol:
        # Sound rejection: a genuine matching within tol moves every
        # coordinate by at most tol, so sorted columns differ by <= 2 tol.
        # A NaN representative is rejected here too.
        return False, gap

    sa, sb = ra[_rounded_order(ra)], rb[_rounded_order(rb)]
    diffs = sa - sb
    pair = np.sqrt((diffs * diffs).sum(axis=1))
    # The plain distance bounds the orbit distance from above, so only the
    # pairs it leaves over tol need the sweep.
    far = np.flatnonzero(pair > tol)
    if len(far):
        pair[far] = _distances(space, sa[far], sb[far])
    if not (pair > tol).any():
        return True, float(pair.max())

    # Positional pairing failed; find the optimal matching.  Distances are
    # orbit distances, i.e. min over canon images of either side.
    images_b = space.canon_images(rb)
    dm = np.stack([_nearest(ra, images) for images in images_b], axis=1)
    rows, cols = linear_sum_assignment(dm)
    dev = float(dm[rows, cols].max())
    return dev <= tol, dev


def grouped_orbits(orbits: list[Orbit]) -> list[tuple[Orbit, int]]:
    """The distinct orbits of a list with their multiplicities, in the
    order of their rounded representatives: each orbit joins the first
    group whose orbit lies within EPS_POINT of it.

    Every image of a point has real part +-w, so orbits whose |w| differ
    by more than EPS_POINT are further apart than that; only groups within
    twice that (to cover rounding) get the orbit distance."""
    groups: list[tuple[Orbit, int]] = []
    for o in sorted(orbits, key=lambda o: rounded_key(o.rep)):
        w = abs(o.rep.w)
        for i, (first, count) in enumerate(groups):
            if abs(abs(first.rep.w) - w) <= 2.0 * EPS_POINT and (
                orbit_distance(first, o) <= EPS_POINT
            ):
                groups[i] = (first, count + 1)
                break
        else:
            groups.append((o, 1))
    return groups


def random_point(space: CosetSpace, rng: np.random.Generator) -> Orbit:
    """A random orbit whose sweep images are pairwise well separated, so
    canonicalization and matching are stable.  Rejection-samples until the
    minimum pairwise distance exceeds SEPARATION_FACTOR * EPS_POINT, and
    raises RuntimeError after MAX_TRIES rejections in a row."""
    points = _random_points(space, rng, 1)
    (x,) = _orbits(space, _canonical(space, points))
    return x


def _random_points(
    space: CosetSpace, rng: np.random.Generator, count: int
) -> np.ndarray:
    """The unit quaternions that `count` successive random_point calls
    canonicalize, as a (count, 4) array, drawn from the same candidate
    stream: candidates come from random_units, a rejected one is skipped,
    and MAX_TRIES rejections in a row raise RuntimeError.  Each round
    draws one candidate per missing point, so no candidate past the last
    accepted one is drawn."""
    floor = SEPARATION_FACTOR * EPS_POINT
    accepted = []
    missing, run = count, 0
    while missing:
        q = random_units(rng, missing)
        # The sweep maps form a group of isometries, so a point's images are
        # pairwise separated exactly when it is far from its image under
        # every map other than the identity.
        others = np.delete(space.canon_images(q), space.group.identity_index, axis=1)
        keep = _nearest(q, others) > floor
        for ok in keep.tolist():
            run = 0 if ok else run + 1
            if run == MAX_TRIES:
                raise RuntimeError(
                    f"could not sample a well-separated point of {space.label} "
                    f"in {MAX_TRIES} tries"
                )
        accepted.append(q[keep])
        missing -= int(keep.sum())
    # project normalizes its argument again; so does this, bit for bit.
    return normalized_rows(np.concatenate(accepted))
