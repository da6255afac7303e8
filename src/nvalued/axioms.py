"""Randomized verification that a coset space satisfies the multivalued
group axioms: products with the identity collapse to copies of the input,
the identity appears among the products of a point with its inverse, and
the two ways of associating a triple product give the same multiset.

Each check runs independent trials on freshly sampled points and reports
failure counts plus the worst deviation seen.
"""

from __future__ import annotations

import math
from dataclasses import dataclass
from typing import Callable, Optional, Sequence

import numpy as np

from .coset import (
    CosetSpace,
    _canonical,
    _distances_to_identity,
    _match,
    _orbits,
    _pair_distances,
    _product,
    _raw_product,
    _real_part_gap,
    _sample,
    _witnessed,
    identity_orbit,
    orbit_distance,
)
from .quaternion import _CONJ_SIGN, canonical_sign, left_matrix, normalized_rows
from .rotgroups import RotationGroup
from .tolerances import TOL_AXIOM

# A block of trials holds at most this many product values (or one trial,
# when a trial alone has more), so memory does not grow with the trial count.
BLOCK_VALUES = 1 << 16

# No two orbits are further apart than sqrt(2) on so3 (the nearer lift is
# at most that far) or 2 on sp1, so a tolerance of sqrt(2) or more would
# pass checks without testing anything.
MAX_TOL = math.sqrt(2.0)

AXIOM_NAMES = ("identity", "inverse", "associativity", "well_defined")


@dataclass
class AxiomReport:
    """Outcome of one axiom check on one space.  `tie_resamples` is always
    0; it is kept for the JSON schema."""

    space: str
    axiom: str
    trials: int
    failures: int
    max_deviation: float
    tie_resamples: int
    seed: int
    tolerance: float

    @property
    def passed(self) -> bool:
        return self.failures == 0

    def to_json_dict(self) -> dict:
        # the fields in order (vars, since asdict deep-copies each value),
        # a -0.0 deviation written as 0.0, then `passed`
        return {
            **vars(self),
            "max_deviation": self.max_deviation + 0.0,
            "passed": self.passed,
        }


def _run_trials(
    space: CosetSpace,
    axiom: str,
    trials: int,
    seed: int,
    tol: float,
    values_per_trial: int,
    block_fn: Callable[[np.random.Generator, int], Sequence[float]],
) -> AxiomReport:
    """Run `trials` trials a block at a time: `block_fn(rng, count)` draws
    the next `count` trials from one seeded generator, in the order the trials
    would draw them one by one, and returns their deviations.  A block
    holds at most BLOCK_VALUES product values, or one trial.

    A trial fails unless its deviation is at most `tol`, so a non-finite
    deviation is a failure, and it is reported as an infinite one.  A check
    with no trial, or with a tolerance that no two orbits can exceed, would
    pass without testing anything, so both raise ValueError."""
    if trials < 1:
        raise ValueError(f"{axiom} needs at least one trial, got {trials}")
    if not 0.0 < tol < MAX_TOL:
        raise ValueError(f"tolerance must be > 0 and < sqrt(2), got {tol!r}")
    rng = np.random.default_rng(seed)
    size = max(1, BLOCK_VALUES // values_per_trial)
    dev = np.concatenate(
        [
            np.asarray(block_fn(rng, min(size, trials - start)), dtype=float)
            for start in range(0, trials, size)
        ]
    )
    worst = np.where(np.isfinite(dev), dev, np.inf).max()
    return AxiomReport(
        space=space.label,
        axiom=axiom,
        trials=trials,
        failures=int(np.count_nonzero(~(dev <= tol))),
        max_deviation=max(0.0, float(worst)),
        tie_resamples=0,
        seed=seed,
        tolerance=tol,
    )


def check_identity(
    space: CosetSpace, samples: int = 200, seed: int = 0, tol: float = TOL_AXIOM
) -> AxiomReport:
    """Every entry of both products with the identity class must be the
    input class itself."""
    e = np.array([identity_orbit(space).rep])
    n = space.n

    def block(rng: np.random.Generator, count: int) -> list[float]:
        x = _sample(space, rng, count)
        entries = np.concatenate(
            [
                _product(space, e, x).reshape(count, n, 4),
                _product(space, x, e).reshape(count, n, 4),
            ],
            axis=1,
        )
        return [
            max(orbit_distance(xo, v) for v in _orbits(space, values))
            for xo, values in zip(_orbits(space, x), entries)
        ]

    return _run_trials(space, "identity", samples, seed, tol, 2 * n, block)


def check_inverse(
    space: CosetSpace, samples: int = 200, seed: int = 0, tol: float = TOL_AXIOM
) -> AxiomReport:
    """The identity class must appear among the products of a point with
    its inverse, on both sides.  Deviation is the distance from the nearest
    product entry to the identity."""
    n = space.n

    def block(rng: np.random.Generator, count: int) -> np.ndarray:
        x = _sample(space, rng, count)
        # orbit_inverse: the orbit of the conjugate
        ix = _canonical(space, x * _CONJ_SIGN)
        values = np.concatenate([_product(space, x, ix), _product(space, ix, x)])
        dist = _distances_to_identity(space, values).reshape(2, count, n)
        return dist.min(axis=2).max(axis=0).tolist()

    return _run_trials(space, "inverse", samples, seed, tol, 2 * n, block)


def default_triples(space: CosetSpace) -> int:
    """Associativity trial count: fewer for large groups, where each trial
    compares multisets of n^2 classes."""
    return 20 if space.n >= 60 else 50


def _permutations(index: np.ndarray) -> np.ndarray:
    """Whether each row of an (m, k) array of indices in [0, k) is a
    permutation: k indices that hit all k slots."""
    m, k = index.shape
    hit = np.zeros((m, k), dtype=bool)
    hit[np.arange(m)[:, None], index] = True
    return hit.all(axis=1)


def _witnessed_associativity(
    space: CosetSpace, x: np.ndarray, y: np.ndarray, z: np.ndarray
) -> np.ndarray:
    """Deviation of (x y) z from x (y z) for each row of the (m, 4) arrays,
    on a space whose group has its tables, with each value of one side
    paired to the value of the other that the witnesses name.

    Write P(g, h) = x g(y) h(z), and let s_i a_i and t_l b_l be the
    witnesses of the i-th value of x y and the l-th value of y z.  Then
    value (i, j) of (x y) z is L = s_i a_i(P(g_i, a_i^-1 g_j)), and value
    (l, k) of x (y z) is R = t_l P(g_k b_l, g_k b_l g_l), so the two are
    one orbit at g_l = g_i^-1 a_i^-1 g_j and g_k = g_i b_l^-1, where
    L = s_i t_l a_i(R).  The deviation is the largest |L - s_i t_l a_i(R)|
    over the pairs; it is inf unless the pairing is a bijection.  The
    values are compared as computed, before canonicalization."""
    mul, inv = space.group._table
    n, m = space.n, len(x)
    xy, a, s = _witnessed(space, _raw_product(space, x, y).reshape(-1, 4))
    yz, b, t = _witnessed(space, _raw_product(space, y, z).reshape(-1, 4))
    a, s, b, t = (v.reshape(m, n) for v in (a, s, b, t))
    left = _raw_product(space, xy, np.repeat(z, n, axis=0)).reshape(m, n, n, 4)
    right = _raw_product(space, np.repeat(x, n, axis=0), yz).reshape(m, n * n, 4)

    # For each trial and each (i, j): l, then k, as above, and the row
    # l * n + k of the values of x (y z) that pairs with (i, j).
    trial = np.arange(m)[:, None, None]
    i = np.arange(n)[:, None]
    l = mul[inv[i], mul[inv[a]]]
    k = mul[i, inv[b[trial, l]]]
    pair = (l * n + k).reshape(m, n * n)
    act = space._act_stack.reshape(n, 4, 4)
    moved = right[np.arange(m)[:, None], pair].reshape(m, n, n, 4)
    moved = moved @ act[a].transpose(0, 1, 3, 2)
    # s and t hold where a witness negates, so s_i t_l is -1 where one does
    sign = np.where(s[:, :, None] ^ t[trial, l], -1.0, 1.0)
    diffs = left - sign[..., None] * moved
    dev = np.sqrt(np.einsum("tijc,tijc->tij", diffs, diffs)).max(axis=(1, 2))
    return np.where(_permutations(pair), dev, np.inf)


def _witnessed_well_defined(
    space: CosetSpace,
    want: np.ndarray,
    got: np.ndarray,
    moves: np.ndarray,
    tol: float,
) -> np.ndarray:
    """Deviation between the (m, n, 4) canonical product values `want` of
    pairs (p, q) and `got` of the moved pairs (a(p), b(q)), on a space
    whose group has its tables, where row t of the (m, 2) array `moves`
    holds the indices of a and b.  The j-th moved value a(p) g_j(b(q)) is
    a(p g_i(q)) with g_i = a^-1 g_j b, an image of the i-th value, so the
    two are paired, and compared by `_pair_distances` as in `_match`; the
    deviation is inf unless the pairing is a bijection."""
    mul, inv = space.group._table
    m = len(want)
    index = mul[mul[inv[moves[:, :1]], np.arange(space.n)], moves[:, 1:]]
    dist = _pair_distances(space, want[np.arange(m)[:, None], index], got, tol)
    return np.where(_permutations(index), dist.max(axis=1), np.inf)


def _unwitnessed(
    space: CosetSpace, left: np.ndarray, right: np.ndarray, tol: float
) -> np.ndarray:
    """Deviation between the multisets of the raw values in each trial of
    the (m, k, 4) arrays `left` and `right`, on a set without tables.  A
    trial whose sorted real parts differ by more than `tol` fails with
    that gap, a lower bound of its deviation (`_real_part_gap`), and is
    never canonicalized; the others are canonicalized and matched by
    `_match`, which the gap test leaves with the same verdict."""
    dev = _real_part_gap(space, left, right)
    for t in np.flatnonzero(dev <= tol):
        a, b = _canonical(space, left[t]), _canonical(space, right[t])
        dev[t] = _match(space, a, b, tol)[1]
    return dev


def check_associativity(
    space: CosetSpace,
    triples: Optional[int] = None,
    seed: int = 0,
    tol: float = TOL_AXIOM,
) -> AxiomReport:
    """(x y) z and x (y z), each an n^2-element multiset, must agree.  On a
    group with its tables the values are paired by their witnesses.  On a
    set that is not closed, such as a corrupted copy, the n^2 values of
    each side are formed from the canonical values of x y and y z; a
    trial whose sorted real parts differ by more than tol fails on that
    gap, and only the others are canonicalized and matched."""
    if triples is None:
        triples = default_triples(space)
    n = space.n
    closed = space.group._table is not None

    def block(rng: np.random.Generator, count: int) -> list[float]:
        points = _sample(space, rng, 3 * count).reshape(count, 3, 4)
        x, y, z = points.transpose(1, 0, 2)
        if closed:
            return _witnessed_associativity(space, x, y, z)
        # The values of x y and y z stay canonical: on a set that is not
        # closed, the n^2 values depend on the representatives they start from.
        left = _raw_product(space, _product(space, x, y), np.repeat(z, n, axis=0))
        right = _raw_product(space, np.repeat(x, n, axis=0), _product(space, y, z))
        return _unwitnessed(
            space, left.reshape(count, n * n, 4), right.reshape(count, n * n, 4), tol
        )

    return _run_trials(
        space, "associativity", triples, seed, tol, 2 * n * n, block
    )


def check_well_defined(
    space: CosetSpace, samples: int = 100, seed: int = 0, tol: float = TOL_AXIOM
) -> AxiomReport:
    """The product multiset must not depend on which representatives of the
    two classes it is computed from.  The values are paired by the moves
    on a group with its tables.  On a set that is not closed, a trial whose
    raw values have sorted real parts more than tol apart fails on that
    gap, and only the others are canonicalized and matched."""
    n = space.n
    moves = np.random.default_rng([seed, 1])
    closed = space.group._table is not None

    def block(rng: np.random.Generator, count: int) -> list[float]:
        # Per trial: two points, each moved to another representative of its
        # orbit by one of the maps that canon_images sweeps (a group element,
        # and on the rotation base a lift sign).  The moves come from their
        # own stream, so blocks of any size draw the same trials.
        pairs = _sample(space, rng, 2 * count)
        images = space.canon_images(pairs)
        chosen = moves.integers(images.shape[1], size=(count, 2)).ravel()
        moved = images[np.arange(2 * count), chosen]
        if closed:
            want = _product(space, pairs[0::2], pairs[1::2]).reshape(count, n, 4)
            got = _product(space, moved[0::2], moved[1::2]).reshape(count, n, 4)
            elements = (chosen % n).reshape(count, 2)
            return _witnessed_well_defined(space, want, got, elements, tol)
        want = _raw_product(space, pairs[0::2], pairs[1::2])
        got = _raw_product(space, moved[0::2], moved[1::2])
        return _unwitnessed(space, want, got, tol)

    return _run_trials(space, "well_defined", samples, seed, tol, 2 * n, block)


def run_all(
    space: CosetSpace,
    samples: int = 200,
    triples: Optional[int] = None,
    seed: int = 0,
    tol: float = TOL_AXIOM,
) -> list[AxiomReport]:
    """All four checks with the standard trial budget: `samples` trials for
    identity and inverse, half for well-definedness, and the associativity
    default unless overridden."""
    return [
        check_identity(space, samples, seed, tol),
        check_inverse(space, samples, seed + 1, tol),
        check_associativity(space, triples, seed + 2, tol),
        check_well_defined(space, max(1, samples // 2), seed + 3, tol),
    ]


def corrupted_copy(group: RotationGroup, extra_angle: float = 0.1) -> RotationGroup:
    """A broken variant of `group` for negative controls: one non-identity
    element is composed with a small extra rotation, so the set is no longer
    closed and the axiom checks must fail on it."""
    if len(group) < 2:
        raise ValueError("the trivial group has no element to corrupt")
    half = extra_angle / 2.0
    tweak = np.array([math.cos(half), 0.0, 0.0, math.sin(half)])
    rows = group.element_rows.copy()
    i = 1 if group.identity_index == 0 else 0
    rows[i] = canonical_sign(normalized_rows(left_matrix(rows[i : i + 1]) @ tweak))[0]
    return RotationGroup(group.spec, rows)
