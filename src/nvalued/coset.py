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
with an EPS_POINT tolerance.  Products of orbits are multisets of orbits,
one entry per group element:

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
import random
import warnings
from dataclasses import dataclass, field
from enum import Enum

import numpy as np
from scipy.optimize import linear_sum_assignment

from .quaternion import ONE, Quaternion, conj_matrix, left_matrix, random_unit
from .rotgroups import RotationGroup
from .tolerances import EPS_POINT, SEPARATION_FACTOR, TIE_FACTOR


class Base(Enum):
    """Which space the group acts on by conjugation: the unit quaternions,
    where x and -x are distinct points, or the rotation group, where they
    name the same rotation."""

    SP1 = "sp1"
    SO3 = "so3"


class TieWarning(UserWarning):
    """Canonicalization had to break a near-tie; the result may be unstable
    for this particular point."""


class SizeMismatch(ValueError):
    """Multisets of different cardinality were compared."""


class CosetSpace:
    """The quotient of a base space by a finite rotation group.

    Precomputes the action matrices once: `_act[i]` is conjugation by the
    i-th group element (either lift conjugates identically).  The canon
    family is the set of maps whose images sweep out everything a point is
    identified with, which canonicalization maximizes over; on the rotation
    base each point also carries the sign ambiguity of its lift, so the
    family there includes the negated maps.  Both families are kept as
    (k*4, 4) stacks, row 4*i + r holding row r of the i-th map, so that a
    sweep of m points is a single (m, 4) x (4, k*4) matmul.
    """

    def __init__(self, group: RotationGroup, base: Base):
        self.group = group
        self.base = base
        act = np.stack([conj_matrix(g) for g in group.elements])
        canon = act if base is Base.SP1 else np.concatenate([act, -act])
        self._act = act
        self._act_stack = act.reshape(-1, 4)
        self._canon_stack = canon.reshape(-1, 4)

    @property
    def n(self) -> int:
        """Number of values of the product: the size of the acting family."""
        return self._act.shape[0]

    @property
    def label(self) -> str:
        return f"{self.group.spec.label}@{self.base.value}"

    def __repr__(self) -> str:
        return f"CosetSpace({self.label}, n={self.n})"

    def act_images(self, points: np.ndarray) -> np.ndarray:
        """Images of each row of `points` under every acting map;
        shape (len(points), n, 4)."""
        return _sweep(points, self._act_stack)

    def canon_images(self, points: np.ndarray) -> np.ndarray:
        """Full orbit sweep used for canonicalization (includes lift signs
        on the rotation quotient); shape (len(points), k, 4)."""
        return _sweep(points, self._canon_stack)

    def representative_image(
        self, point: Quaternion, index: int, negate: bool = False
    ) -> Quaternion:
        """The image of a representative under the index-th group element,
        optionally negated (meaningful on the rotation base): an alternative
        representative of the same orbit."""
        vec = self._act[index] @ np.asarray(tuple(point), dtype=float)
        if negate:
            vec = -vec
        return Quaternion(*(float(c) for c in vec))


def _sweep(points: np.ndarray, stack: np.ndarray) -> np.ndarray:
    return (points @ stack.T).reshape(len(points), len(stack) // 4, 4)


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


def _canonical(space: CosetSpace, points: np.ndarray) -> np.ndarray:
    """Canonical representative of the orbit of each row of `points`, as an
    (m, 4) array.

    The representative is the coordinate-wise lexicographic maximum over
    the orbit sweep, decided with EPS_POINT slack so that drift cannot
    reorder two images that agree up to noise.  Warns with TieWarning when
    a discarded image sits within TIE_FACTOR * EPS_POINT of the winner on
    the deciding coordinate without being the same orbit image.
    """
    images = space.canon_images(points)
    images = images / np.sqrt((images * images).sum(axis=2, keepdims=True))

    m, k, _ = images.shape
    alive = np.ones((m, k), dtype=bool)
    for coord in range(4):
        col = np.where(alive, images[:, :, coord], -np.inf)
        alive &= col >= col.max(axis=1, keepdims=True) - EPS_POINT
        if alive.sum() == m:
            # One image survives in every row, and later coordinates keep it.
            return images[alive]

    # In some rows several images survived the slack filter; take the exact
    # lexicographic max among them (the last one, if several are exactly
    # equal) and check how close the rest are.
    pick = alive.argmax(axis=1)
    multi = np.flatnonzero(alive.sum(axis=1) > 1)
    images_m, alive_m = images[multi], alive[multi]
    best = alive_m.copy()
    for coord in range(4):
        col = np.where(best, images_m[:, :, coord], -np.inf)
        best &= col == col.max(axis=1, keepdims=True)
    pick[multi] = k - 1 - best[:, ::-1].argmax(axis=1)
    winner = images[multi, pick[multi]]
    gap = np.abs(images_m - winner[:, None, :]).max(axis=2)
    near = alive_m & (gap > EPS_POINT) & (gap <= TIE_FACTOR * EPS_POINT)
    ties = int(near.any(axis=1).sum())
    if ties:
        warnings.warn(
            f"{ties} point(s) canonicalized through a near-tie", TieWarning,
            stacklevel=2,
        )
    return images[np.arange(m), pick]


def _nearest(points: np.ndarray, images: np.ndarray) -> np.ndarray:
    """Distance from each point (..., 4) to the nearest of its images
    (..., k, 4); inf when there are no images."""
    diffs = images - points[..., None, :]
    return np.sqrt((diffs * diffs).sum(axis=-1)).min(axis=-1, initial=np.inf)


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
    return product_from_representatives(x.space, x.rep, y.rep)


def orbit_product_left(x: Orbit, y: Orbit, z: Orbit) -> list[Orbit]:
    """All n^2 values of (x y) z, concatenated over the n values of x y."""
    space = x.space
    xy = _product(space, np.array([x.rep]), np.array([y.rep]))
    return _orbits(space, _product(space, xy, np.array([z.rep])))


def orbit_product_right(x: Orbit, y: Orbit, z: Orbit) -> list[Orbit]:
    """All n^2 values of x (y z), concatenated over the n values of y z."""
    space = x.space
    yz = _product(space, np.array([y.rep]), np.array([z.rep]))
    return _orbits(space, _product(space, np.array([x.rep]), yz))


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


def match_multisets(
    a: list[Orbit], b: list[Orbit], tol: float
) -> tuple[bool, float]:
    """Decide multiset equality of two orbit lists up to `tol`.

    Returns (matched, deviation).  When matched, deviation is the largest
    distance inside any matched pair; when not, it is the best bound the
    failed strategy produced (finite unless a representative is not).

    Strategy: sort both by the rounded representative and pair positionally
    (the common case, since representatives are canonical); verify each pair
    with the true orbit distance.  If positional pairing fails, fall back to
    an optimal assignment on the full orbit-distance matrix.  A cheap sound
    rejection runs first: sorted per-coordinate values of the two rep sets
    must agree within tol, since any true matching permutes them.
    """
    if len(a) != len(b):
        raise SizeMismatch(f"multisets of size {len(a)} vs {len(b)}")
    if not a:
        return True, 0.0

    ra = np.array([o.rep for o in a])
    rb = np.array([o.rep for o in b])

    gap = float(np.abs(np.sort(ra, axis=0) - np.sort(rb, axis=0)).max())
    if not gap <= 2.0 * tol:
        # Sound rejection: a genuine matching within tol moves every
        # coordinate by at most tol, so sorted columns differ by <= 2 tol.
        # A NaN representative is rejected here too.
        return False, gap

    space = a[0].space
    sa, sb = ra[_rounded_order(ra)], rb[_rounded_order(rb)]
    pair = _nearest(sa, space.canon_images(sb))
    if not (pair > tol).any():
        return True, float(pair.max())

    # Positional pairing failed; find the optimal matching.  Distances are
    # orbit distances, i.e. min over canon images of either side.
    images_b = space.canon_images(rb)
    dm = np.stack([_nearest(ra, images) for images in images_b], axis=1)
    rows, cols = linear_sum_assignment(dm)
    dev = float(dm[rows, cols].max())
    return dev <= tol, dev


def multiset_equal(a: list[Orbit], b: list[Orbit], tol: float) -> bool:
    return match_multisets(a, b, tol)[0]


def random_point(
    space: CosetSpace, rng: random.Random, max_tries: int = 64
) -> Orbit:
    """A random orbit whose sweep images are pairwise well separated, so
    canonicalization and matching are stable.  Rejection-samples until the
    minimum pairwise distance exceeds SEPARATION_FACTOR * EPS_POINT."""
    floor = SEPARATION_FACTOR * EPS_POINT
    for _ in range(max_tries):
        q = random_unit(rng)
        images = space.canon_images(np.array([q]))[0]
        # The sweep maps form a group of isometries, so the images are
        # pairwise separated exactly when q is far from its image under
        # every map other than the identity.
        others = np.delete(images, space.group.identity_index, axis=0)
        if float(_nearest(np.array(q), others)) > floor:
            with warnings.catch_warnings():
                warnings.simplefilter("error", TieWarning)
                try:
                    return project(space, q)
                except TieWarning:
                    continue
    raise RuntimeError(
        f"could not sample a well-separated point of {space.label} "
        f"in {max_tries} tries"
    )
