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
conjugation action.  Multiset equality up to tolerance is what the
acceptance checks and the axiom checks of a set that is not closed
consume; on a group, the axiom checks pair raw values through its table.

Internally representatives are rows of (m, 4) arrays: canonicalization,
the product and the orbit distance each run once over a whole batch,
and the orbit distance of one pair has a one-pair form with the same bits.
`Orbit` is the view of one row that the public functions take and return;
a product returns `Orbits`, a read-only sequence over its (n, 4) array of
representatives that boxes a value as an `Orbit` only when it is indexed.
"""

from __future__ import annotations

import math
import operator
from collections.abc import Sequence
from dataclasses import dataclass, field
from enum import Enum

import numpy as np

from .quaternion import (
    ONE,
    Quaternion,
    left_matrix,
    normalized_rows,
    random_units,
    rounded_order,
)
from .rotgroups import RotationGroup
from .tolerances import EPS_POINT, MAX_TOL


class Base(Enum):
    """Which space the group acts on by conjugation: the unit quaternions,
    where x and -x are distinct points, or the rotation group, where they
    name the same rotation."""

    SP1 = "sp1"
    SO3 = "so3"


# A sweep over many rows runs in blocks of rows that have at most this many
# images under the maps it sweeps, so that its temporaries stay in cache.
SWEEP_BLOCK = 1 << 16

# Matching canonicalizes kept trials in sweeps of at most this many images:
# one sweep of them all made the time of later checks vary with the heap.
_MATCH_SWEEP = 1 << 12

_ONE_ROW = np.array(tuple(ONE))


class SizeMismatch(ValueError):
    """Multisets of different cardinality were compared."""


class CosetSpace:
    """The quotient of a base space by a finite rotation group.

    `base` is a Base or its value ("sp1", "so3").  The acting maps are the
    group's conjugation matrices, `RotationGroup._action`.  The canon
    family is the set of maps whose images sweep out everything a point is
    identified with; on the rotation base each point also carries the sign
    ambiguity of its lift, so the family there includes the negated maps.
    Both families are kept as (k*4, 4) stacks, so that a sweep of m points
    is a single (m, 4) x (4, k*4) matmul.  The acting stack is map-major
    (row 4*i + r holds row r of the i-th map); the canon stack, which orbit
    distances sweep, is coordinate-major (row r*k + i), so that each
    coordinate of the k images of a point is contiguous, the axis the
    distances reduce over.  Canonicalization sweeps only the vector part,
    by the 3x3 rotation blocks of the acting maps, kept coordinate-major
    as a (3, 3*n) stack (column c*n + i holds row c of the i-th rotation).
    A sweep of many points is cut by `_blocks` into blocks of at most
    SWEEP_BLOCK images: SWEEP_BLOCK // n rows to canonicalize, and
    SWEEP_BLOCK // k rows for orbit distances, with k = n on the quaternion
    base and 2n on the rotation base.
    """

    def __init__(self, group: RotationGroup, base: Base | str):
        self.group = group
        self.base = Base(base)
        act = group._action
        canon = act if self.base is Base.SP1 else np.concatenate([act, -act])
        self._act_stack = act.reshape(-1, 4)
        self._canon_cols = canon.transpose(1, 0, 2).reshape(-1, 4)
        self._rot_cols = act[:, 1:, 1:].transpose(2, 1, 0).reshape(3, -1)
        self._block_rows = SWEEP_BLOCK // len(act)
        self._distance_rows = SWEEP_BLOCK // len(canon)

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


@dataclass(frozen=True)
class Orbit:
    """A point of a coset space: its canonical representative quaternion.

    Two orbits are equal, and hash alike, when they have the same space
    object and the same representative, coordinate for coordinate: this
    is representative equality, which `in`, `count` and `index` on a
    sequence of orbits use.  Orbit identity within a tolerance is
    `orbit_distance`, since two representatives of one orbit can differ
    by rounding, or jump between close images next to the singular set."""

    space: CosetSpace = field(repr=False)
    rep: Quaternion

    def __repr__(self) -> str:
        c = ", ".join(f"{v:+.6f}" for v in self.rep)
        return f"Orbit[{self.space.label}]({c})"


def _orbits(space: CosetSpace, reps: np.ndarray) -> list[Orbit]:
    return [Orbit(space, Quaternion(*row)) for row in reps.tolist()]


class Orbits(Sequence):
    """The values of a product: a read-only sequence of orbits of one
    space, backed by `reps`, their (n, 4) array of canonical
    representatives, which is not writeable.  An integer index boxes one
    value as an `Orbit`, and a slice is a list of them; iteration and the
    other `Sequence` mixins go through indexing.  There is no `+`: a
    product is a multiset, not a list to extend."""

    __slots__ = ("space", "reps")

    def __init__(self, space: CosetSpace, reps: np.ndarray):
        reps.flags.writeable = False
        self.space = space
        self.reps = reps

    def __len__(self) -> int:
        return len(self.reps)

    def __getitem__(self, index):
        if isinstance(index, slice):
            return _orbits(self.space, self.reps[index])
        return Orbit(self.space, Quaternion(*self.reps[operator.index(index)].tolist()))

    def __repr__(self) -> str:
        return f"Orbits[{self.space.label}](n={len(self)})"


def _check_space(space: CosetSpace, spaces) -> None:
    """Raise ValueError unless each of `spaces` is `space`: the same group
    object (groups are built once per spec) and the same base.  Orbits of
    two spaces have no product or distance."""
    for other in spaces:
        if other.group is not space.group or other.base is not space.base:
            raise ValueError(f"orbits of {space.label} and {other.label} do not mix")


def _rows(orbits) -> tuple[CosetSpace | None, np.ndarray]:
    """The space of a sequence of orbits and their representatives as an
    (m, 4) array: `reps` itself for `Orbits`, the stacked representatives
    of a list, which must all lie in the space of its first orbit (None
    for an empty list)."""
    if isinstance(orbits, Orbits):
        return orbits.space, orbits.reps
    if not orbits:
        return None, np.empty((0, 4))
    space = orbits[0].space
    _check_space(space, (o.space for o in orbits))
    return space, np.array([o.rep for o in orbits], dtype=float)


def _blocks(m: int, size: int) -> list[slice]:
    """The slices that cut every batch of m rows: into blocks of at most
    `size` rows (one, if `size` is below 1), of equal size within one row.
    So a batch of several rows leaves no one-row block unless `size` is
    below 3: numpy computes a one-row sweep by another BLAS routine,
    whose last bits differ, and a block's result would then depend on how
    the batch was cut."""
    count = max(1, -(-m // max(1, size)))
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
    blocks = _blocks(len(points), space._block_rows)
    return np.concatenate([_canonical_block(space, points[b]) for b in blocks])


def _canonical_block(space: CosetSpace, points: np.ndarray) -> np.ndarray:
    # Every image shares the real part of its point, which therefore decides
    # nothing on the quaternion base.  On the rotation base it decides the
    # lift sign: the positive one wins by more than EPS_POINT unless
    # |w| <= EPS_POINT / 2, and only those rows compare both signs.
    q = normalized_rows(points)
    m = len(q)
    both = ()
    if space.base is Base.SO3:
        np.negative(q, out=q, where=q[:, :1] < 0.0)
        both = (q[:, 0] <= EPS_POINT / 2).nonzero()[0]
    images = (q[:, 1:] @ space._rot_cols).reshape(m, 3, -1)
    q[:, 1:] = images[np.arange(m), :, _lexmax(images)]
    if len(both):
        w = np.broadcast_to(q[both, :1, None], (len(both), 1, images.shape[2]))
        signed = np.concatenate([w, images[both]], axis=1)
        signed = np.concatenate([signed, -signed], axis=2)
        q[both] = signed[np.arange(len(both)), :, _lexmax(signed)]
    return q


def _lexmax(images: np.ndarray) -> np.ndarray:
    """Index of the canonical image in each row of an (m, c, k) array of
    k images of c coordinates each: the EPS_POINT-slack lexicographic
    maximum, then the exact lexicographic maximum among the images that
    survive the slack filter (the last one, if several are exactly
    equal)."""
    m, c, k = images.shape
    # Every image is alive at the first coordinate, which needs no mask.
    col = images[:, 0]
    alive = col >= np.maximum.reduce(col, axis=1, keepdims=True) - EPS_POINT
    for coord in range(1, c):
        if np.count_nonzero(alive) == m:
            # One image survives in every row, and later coordinates keep it.
            return alive.argmax(axis=1)
        col = np.where(alive, images[:, coord], -np.inf)
        alive &= col >= np.maximum.reduce(col, axis=1, keepdims=True) - EPS_POINT

    pick = alive.argmax(axis=1)
    multi = (np.add.reduce(alive, axis=1) > 1).nonzero()[0]
    images_m, best = images[multi], alive[multi]
    for coord in range(c):
        col = np.where(best, images_m[:, coord], -np.inf)
        best &= col == np.maximum.reduce(col, axis=1, keepdims=True)
    pick[multi] = k - 1 - best[:, ::-1].argmax(axis=1)
    return pick


def _nearest(space: CosetSpace, points: np.ndarray, values: np.ndarray) -> np.ndarray:
    """Orbit distance from each point (..., 4) to the orbit of its row of
    `values` (m, 4), reduced in the (m, 4, k) layout the sweep is written
    in: the squared differences summed over the 4 coordinates, the least
    over the k images, then one square root per row (the root is monotone,
    so it commutes with the least); inf when there are no images."""
    sweep = (values @ space._canon_cols.T).reshape(len(values), 4, -1)
    # Out of place: many points may broadcast against one swept value.
    diffs = sweep - points[..., :, None]
    np.multiply(diffs, diffs, out=diffs)
    return np.sqrt(
        np.minimum.reduce(np.add.reduce(diffs, axis=1), axis=-1, initial=np.inf)
    )


def _distances(space: CosetSpace, points: np.ndarray, values: np.ndarray) -> np.ndarray:
    """Orbit distance from each row of `points` (or from one point, a
    (4,) array) to the orbit of the same row of `values` (or of its one
    row), swept in blocks: the batched orbit-distance kernel, of which
    `_distance` is the one-pair form."""
    if len(values) <= space._distance_rows:
        return _nearest(space, points, values)
    points = np.broadcast_to(points, values.shape)
    blocks = _blocks(len(values), space._distance_rows)
    return np.concatenate([_nearest(space, points[b], values[b]) for b in blocks])


def _distance(space: CosetSpace, point, value) -> float:
    """Orbit distance from one point to the orbit of one value, each a
    quaternion row ((4,) array or 4 floats): bit for bit what `_distances`
    gives the pair, the sign of a NaN included, without its per-call batch
    steps.  It forms the (4, k) sweep a one-row `_nearest` forms, subtracts
    the point and squares in place, adds over the 4 coordinates, takes the
    least from inf as `_nearest` does, and one root of that scalar."""
    sweep = (np.array(value) @ space._canon_cols.T).reshape(4, -1)
    sweep -= np.array(point)[:, None]
    np.multiply(sweep, sweep, out=sweep)
    return math.sqrt(np.minimum.reduce(np.add.reduce(sweep), initial=np.inf))


def _distances_to_identity(space: CosetSpace, values: np.ndarray) -> np.ndarray:
    """Orbit distance from the identity class to the orbit of each row of
    `values`, without a sweep: every conjugation fixes 1 and -1, so it is
    |v - 1|, or min(|v - 1|, |v + 1|) on the rotation base.  (Not
    sqrt(2 - 2 w), which cancels to about 1e-8 next to the identity.)"""
    dist = np.sqrt(((values - _ONE_ROW) ** 2).sum(axis=1))
    if space.base is Base.SO3:
        dist = np.minimum(dist, np.sqrt(((values + _ONE_ROW) ** 2).sum(axis=1)))
    return dist


def _raw_product(space: CosetSpace, a: np.ndarray, b: np.ndarray) -> np.ndarray:
    """a[i] * g(b[i]) for every group element g, as an (m, n, 4) array.
    `a` and `b` are (m, 4) arrays, or one of them (1, 4)."""
    return space.act_images(b) @ left_matrix(a).transpose(0, 2, 1)


def _product(space: CosetSpace, a: np.ndarray, b: np.ndarray) -> np.ndarray:
    """Canonical representatives of the raw product, as n consecutive rows
    per i."""
    return _canonical(space, _raw_product(space, a, b).reshape(-1, 4))


def project(space: CosetSpace, w: Quaternion) -> Orbit:
    """The orbit of a quaternion, normalized: the projection map onto the
    quotient.  Raises ValueError for a norm under 1e-8 or non-finite: a
    NaN or infinite coordinate, or a norm that overflows."""
    norm = w.norm()
    if not 1e-8 <= norm < math.inf:
        raise ValueError(
            f"cannot project {w}: its norm {norm} is near 0 or non-finite"
        )
    (x,) = _orbits(space, _canonical(space, np.array([w], dtype=float)))
    return x


def orbit_distance(x: Orbit, y: Orbit) -> float:
    """Distance between orbits: min over the orbit of y of the distance to
    the representative of x."""
    _check_space(x.space, (y.space,))
    return _distance(x.space, x.rep, y.rep)


def product_from_representatives(
    space: CosetSpace, a: Quaternion, b: Quaternion
) -> Orbits:
    """Product multiset computed from explicit representatives: the classes
    of a * g_i(b) over the group, as `Orbits`.  Agreement across every
    choice of representatives is exactly the well-definedness of the
    product."""
    return Orbits(space, _product(space, np.array([a]), np.array([b])))


def orbit_product(x: Orbit, y: Orbit) -> Orbits:
    """The n values of the product of two orbits, as `Orbits` (a multiset;
    order carries no meaning beyond determinism)."""
    _check_space(x.space, (y.space,))
    return product_from_representatives(x.space, x.rep, y.rep)


def orbit_inverse(x: Orbit) -> Orbit:
    """The distinguished inverse: the orbit of the conjugate (equivalently
    the quaternion inverse, for unit representatives)."""
    return project(x.space, x.rep.conjugate())


def identity_orbit(space: CosetSpace) -> Orbit:
    """The orbit of 1, the two-sided identity of the product."""
    return project(space, ONE)


def linear_sum_assignment(cost: np.ndarray) -> tuple[np.ndarray, np.ndarray]:
    """scipy's optimal assignment, imported on first use: only a failed
    positional pair in `_match` needs it, so importing nvalued does not
    pay for scipy."""
    from scipy.optimize import linear_sum_assignment as solve

    return solve(cost)


def match_multisets(a, b, tol: float) -> tuple[bool, float]:
    """Decide multiset equality of two sequences of orbits (`Orbits` or
    lists) up to `tol`: `_match` on a one-trial stack.

    Returns (matched, deviation), matched exactly when the deviation is at
    most tol; see `_match` for what the deviation measures.

    Raises SizeMismatch for multisets of different sizes, and ValueError
    for orbits of different spaces or a tol outside (0, sqrt(2)) or NaN.
    """
    if not 0.0 < tol < MAX_TOL:
        raise ValueError(f"tolerance must be > 0 and < sqrt(2), got {tol!r}")
    if len(a) != len(b):
        raise SizeMismatch(f"multisets of size {len(a)} vs {len(b)}")
    if not a:
        return True, 0.0
    space, ra = _rows(a)
    other, rb = _rows(b)
    _check_space(space, (other,))
    dev = float(_match(space, ra[None], rb[None], tol)[0])
    return dev <= tol, dev


def _match(space: CosetSpace, a: np.ndarray, b: np.ndarray, tol: float) -> np.ndarray:
    """Deviation between the multisets of orbits of the rows of each trial
    of two (t, m, 4) stacks of values, raw or canonical; shape (t,).  The
    two multisets of a trial match within tol exactly when it is at most
    tol, and then it is the largest distance inside a matched pair.

    Every image in an orbit keeps w, or w up to sign on the rotation base,
    so the orbit distance between two points is at least the gap between
    their real parts (`_real_parts`).  Hence:

    - A trial whose sorted real parts differ by more than tol has no
      matching within tol; it fails with that gap, a lower bound of any
      matching's deviation, and is never canonicalized.  A non-finite
      value gives a NaN gap.
    - The other trials are canonicalized (in sweeps of at most
      `_MATCH_SWEEP` images), sorted by their rounded representatives
      (`rounded_order`) and paired positionally.  A pair within tol by
      plain distance is matched, since that bounds the orbit distance from
      above; only the other pairs get the orbit distance.
    - A matching within tol never pairs across a cut: a position where
      every real part after it, on either side, is more than tol above
      every real part before it.  So a pair over tol is reassigned only
      within its run between two cuts, by an optimal assignment on that
      run's orbit distances.  A pair over tol alone in its run fails the
      trial, with the positional deviation.
    """
    # Sorted as made, so only the sorted copies live on; `w` takes them again.
    wa = np.sort(_real_parts(space, a), axis=1)
    wb = np.sort(_real_parts(space, b), axis=1)
    dev = np.abs(wa - wb).max(axis=1)
    keep = np.flatnonzero(dev <= tol)
    if not len(keep):
        return dev
    t, m = len(keep), a.shape[1]
    sides = np.concatenate([a[keep], b[keep]])
    rows = sides.reshape(-1, 4)
    blocks = _blocks(len(rows), _MATCH_SWEEP // space.n)
    canon = np.concatenate([_canonical(space, rows[b]) for b in blocks])
    canon = canon.reshape(2 * t, m, 4)
    order = (np.arange(2 * t)[:, None], rounded_order(canon))
    ca, cb = canon[order].reshape(2, t, m, 4)
    w = _real_parts(space, sides)[order].reshape(2, t, m)

    diffs = ca - cb
    pair = np.sqrt(np.einsum("...c,...c->...", diffs, diffs))
    far = pair > tol
    if far.any():
        pair[far] = _distances(space, ca[far], cb[far])
    failed = pair > tol
    if failed.any():
        # cut[i, p]: every real part from position p on is more than tol
        # above every one before it; positions 0 and m always cut.
        low = np.minimum.accumulate(np.minimum(*w)[:, ::-1], axis=1)[:, ::-1]
        high = np.maximum.accumulate(np.maximum(*w), axis=1)
        cut = np.ones((t, m + 1), dtype=bool)
        cut[:, 1:-1] = low[:, 1:] - high[:, :-1] > tol
        alone = (failed & cut[:, :-1] & cut[:, 1:]).any(axis=1)
        for i in np.flatnonzero(failed.any(axis=1) & ~alone):
            edges = np.flatnonzero(cut[i])
            for run in (slice(s, e) for s, e in zip(edges, edges[1:])):
                if failed[i, run].any():
                    sweep = [_distances(space, ca[i, run], v[None]) for v in cb[i, run]]
                    dm = np.stack(sweep, axis=1)
                    rows, cols = linear_sum_assignment(dm)
                    pair[i, run] = dm[rows, cols]
    dev[keep] = pair.max(axis=1)
    return dev


def _real_parts(space: CosetSpace, values: np.ndarray) -> np.ndarray:
    """The real part of each normalized row of a (..., 4) stack: w on the
    quaternion base, |w| on the rotation base.  The arithmetic is that of
    `normalized_rows`, so each is bit for bit the first coordinate of the
    canonical representative of its row, in absolute value on the rotation
    base, where the kernel only flips the sign of w."""
    sq = values * values
    w = values[..., 0] / np.sqrt(sq[..., 0] + sq[..., 1] + sq[..., 2] + sq[..., 3])
    return np.abs(w) if space.base is Base.SO3 else w


def grouped_orbits(orbits) -> list[tuple[Orbit, int]]:
    """The distinct orbits of a sequence (`Orbits` or a list) with their
    multiplicities, in the order of their rounded representatives: each
    orbit joins the first group whose orbit lies within EPS_POINT of it.
    Only the first orbit of each group is boxed.

    Every image of a point has real part +-w, so orbits whose |w| differ
    by more than EPS_POINT are further apart than that; only groups within
    twice that (to cover rounding) get the orbit distance.  They lie in
    the value's bin of |w|, 4 EPS_POINT wide, or the two beside it, a
    window that no rounding narrows to 2 EPS_POINT; a non-finite |w| has a
    NaN bin, which no lookup finds."""
    space, reps = _rows(orbits)
    groups: list[list] = []  # [first representative, multiplicity]
    bins: dict[float, list[int]] = {}  # groups by the bin of their first |w|
    for row in reps[rounded_order(reps)].tolist():
        w = abs(row[0])
        key = w // (4.0 * EPS_POINT)
        for i in sorted(sum((bins.get(key + d, []) for d in (-1, 0, 1)), [])):
            first = groups[i][0]
            if abs(abs(first[0]) - w) <= 2.0 * EPS_POINT and (
                _distance(space, first, row) <= EPS_POINT
            ):
                groups[i][1] += 1
                break
        else:
            bins.setdefault(key, []).append(len(groups))
            groups.append([row, 1])
    return [(Orbit(space, Quaternion(*first)), count) for first, count in groups]


def random_point(space: CosetSpace, rng: np.random.Generator) -> Orbit:
    """The orbit of a uniform random point of the base."""
    (x,) = _orbits(space, _sample(space, rng, 1))
    return x


def _sample(space: CosetSpace, rng: np.random.Generator, count: int) -> np.ndarray:
    """Canonical representatives of `count` successive uniform random
    points, as a (count, 4) array: the points that `count` random_point
    calls draw."""
    return _canonical(space, random_units(rng, count))
