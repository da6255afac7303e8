"""Randomized verification that a coset space satisfies the multivalued
group axioms: products with the identity collapse to copies of the input,
the identity appears among the products of a point with its inverse, and
the two ways of associating a triple product give the same multiset.

Each check runs independent trials on freshly sampled points and reports
failure counts plus the worst deviation seen.  On a group with its tables,
associativity and well-definedness pair each raw product value with the
one that closure makes equal to it and report the largest distance between
partners; only a set that is not closed, such as a negative control,
canonicalizes its values and matches them as multisets.
"""

from __future__ import annotations

import math
from dataclasses import dataclass
from typing import Callable, Optional, Sequence

import numpy as np

from .coset import (
    CosetSpace,
    _blocks,
    _canonical,
    _distances_to_identity,
    _match,
    _orbits,
    _product,
    _raw_product,
    _sample,
    orbit_distance,
)
from .quaternion import ONE, _CONJ_SIGN, canonical_sign, left_matrix, normalized_rows
from .rotgroups import RotationGroup, _is_int
from .tolerances import MAX_TOL, TOL_AXIOM

# A block of trials holds at most this many product values (or one trial,
# when a trial alone has more), so memory does not grow with the trial count.
BLOCK_VALUES = 1 << 16

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


def _seed(check: str, seed) -> int:
    """`seed` as a Python int; ValueError naming the check unless it is a
    non-negative integer (not a bool), as numpy seeds its generators."""
    if not _is_int(seed) or seed < 0:
        raise ValueError(f"{check} needs a non-negative integer seed, got {seed!r}")
    return int(seed)


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
    would draw them one by one, and returns their deviations.  `_blocks`
    cuts them into blocks of at most BLOCK_VALUES product values, or one trial.

    A trial fails unless its deviation is at most `tol`, so a non-finite
    deviation is a failure, and it is reported as an infinite one.  A check
    with no trial, or with a tolerance that no two orbits can exceed, would
    pass without testing anything, so both raise ValueError, as do a
    trial count that is not an integer (a bool included) and a seed that
    `_seed` refuses.  The report counts the trials measured, so blocks that
    return another number of deviations than they drew raise RuntimeError."""
    if not _is_int(trials):
        raise ValueError(f"{axiom} needs an integer trial count, got {trials!r}")
    trials = int(trials)
    seed = _seed(axiom, seed)
    if trials < 1:
        raise ValueError(f"{axiom} needs at least one trial, got {trials}")
    if not 0.0 < tol < MAX_TOL:
        raise ValueError(f"tolerance must be > 0 and < sqrt(2), got {tol!r}")
    rng = np.random.default_rng(seed)
    dev = np.concatenate(
        [
            np.asarray(block_fn(rng, b.stop - b.start), dtype=float)
            for b in _blocks(trials, BLOCK_VALUES // values_per_trial)
        ]
    )
    if len(dev) != trials:
        raise RuntimeError(f"{axiom} measured {len(dev)} of {trials} trials")
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
    input class itself.  The 2n raw values e x and x e of a block of trials
    are canonicalized in one kernel pass; only the orbit distance to x runs
    once per value.  A trial's deviation is the largest of its 2n
    distances, NaN if any of them is."""
    e = _canonical(space, np.array([ONE]))
    n = space.n

    def block(rng: np.random.Generator, count: int) -> np.ndarray:
        x = _sample(space, rng, count)
        both = [_raw_product(space, e, x), _raw_product(space, x, e)]
        values = _canonical(space, np.concatenate(both, axis=1).reshape(-1, 4))
        dist = [
            orbit_distance(xo, v)
            for xo, row in zip(_orbits(space, x), values.reshape(count, 2 * n, 4))
            for v in _orbits(space, row)
        ]
        return np.reshape(dist, (count, 2 * n)).max(axis=1)

    return _run_trials(space, "identity", samples, seed, tol, 2 * n, block)


def check_inverse(
    space: CosetSpace, samples: int = 200, seed: int = 0, tol: float = TOL_AXIOM
) -> AxiomReport:
    """The identity class must appear among the products of a point with
    its inverse, on both sides.  Deviation is the distance from the nearest
    raw product value to the identity, which no orbit map moves.  x and its
    inverse are canonical: the values of a set that is not closed depend on them."""
    n = space.n

    def block(rng: np.random.Generator, count: int) -> np.ndarray:
        x = _sample(space, rng, count)
        # orbit_inverse: the orbit of the conjugate
        ix = _canonical(space, x * _CONJ_SIGN)
        both = [_raw_product(space, x, ix), _raw_product(space, ix, x)]
        values = normalized_rows(np.concatenate(both).reshape(-1, 4))
        dist = _distances_to_identity(space, values).reshape(2, count, n)
        return dist.min(axis=2).max(axis=0).tolist()

    return _run_trials(space, "inverse", samples, seed, tol, 2 * n, block)


def default_triples(space: CosetSpace) -> int:
    """Associativity trial count: fewer for large groups, where each trial
    compares multisets of n^2 classes."""
    return 20 if space.n >= 60 else 50


def _paired_associativity(
    space: CosetSpace, x: np.ndarray, y: np.ndarray, z: np.ndarray
) -> np.ndarray:
    """Deviation of (x y) z from x (y z) for each row of the (m, 4) arrays,
    on a space whose group has its tables, with each raw value of one side
    paired to the raw value of the other that closure names.

    Value (i, j) of (x y) z is x g_i(y) g_j(z), and value (l, k) of
    x (y z) is x g_k(y) (g_k g_l)(z), so the two are equal at k = i and
    g_l = g_i^-1 g_j.  The deviation is the largest distance between
    paired values; a row of the Latin square `mul` makes it a bijection."""
    mul, inv = space.group._table
    n, m = space.n, len(x)
    xy = _raw_product(space, x, y).reshape(-1, 4)
    yz = _raw_product(space, y, z).reshape(-1, 4)
    left = _raw_product(space, xy, np.repeat(z, n, axis=0)).reshape(m, n * n, 4)
    right = _raw_product(space, np.repeat(x, n, axis=0), yz).reshape(m, n * n, 4)
    # row l * n + k of x (y z) for each row i * n + j of (x y) z
    i = np.arange(n)[:, None]
    pair = (mul[inv[i], np.arange(n)] * n + i).ravel()
    diffs = left - right[:, pair]
    return np.sqrt(np.einsum("tvc,tvc->tv", diffs, diffs)).max(axis=1)


def _paired_well_defined(
    space: CosetSpace, want: np.ndarray, got: np.ndarray, moves: np.ndarray
) -> np.ndarray:
    """Deviation between the (m, n, 4) raw product values `want` of pairs
    (p, q) and `got` of the moved pairs (s a(p), t b(q)), on a space whose
    group has its tables, where row r of the (m, 2) array `moves` holds the
    indices into `canon_images` of the maps s a and t b: the element modulo
    n, and a lift sign s or t of -1 from n on.  The j-th moved value
    s t a(p) g_j(b(q)) is s t a(p g_i(q)) with g_i = a^-1 g_j b, so it is
    paired with that image of the i-th value: through a row and a column
    of the Latin square `mul`, a bijection."""
    mul, inv = space.group._table
    n, m = space.n, len(want)
    a, b = (moves % n).T
    index = mul[mul[inv[a][:, None], np.arange(n)], b[:, None]]
    act = space.group._action[a]
    moved = want[np.arange(m)[:, None], index] @ act.transpose(0, 2, 1)
    # s t is -1 where exactly one of the two maps negates
    sign = np.where((moves[:, 0] >= n) ^ (moves[:, 1] >= n), -1.0, 1.0)
    diffs = got - sign[:, None, None] * moved
    return np.sqrt(np.einsum("tjc,tjc->tj", diffs, diffs)).max(axis=1)


def check_associativity(
    space: CosetSpace,
    triples: Optional[int] = None,
    seed: int = 0,
    tol: float = TOL_AXIOM,
) -> AxiomReport:
    """(x y) z and x (y z), each an n^2-element multiset, must agree.  On a
    group with its tables the raw values are paired through the table.  On
    a set that is not closed, such as a corrupted copy, the n^2 values of
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
            return _paired_associativity(space, x, y, z)
        # The values of x y and y z stay canonical: on a set that is not
        # closed, the n^2 values depend on the representatives they start from.
        left = _raw_product(space, _product(space, x, y), np.repeat(z, n, axis=0))
        right = _raw_product(space, np.repeat(x, n, axis=0), _product(space, y, z))
        return _match(
            space, left.reshape(count, n * n, 4), right.reshape(count, n * n, 4), tol
        )

    return _run_trials(
        space, "associativity", triples, seed, tol, 2 * n * n, block
    )


def check_well_defined(
    space: CosetSpace, samples: int = 100, seed: int = 0, tol: float = TOL_AXIOM
) -> AxiomReport:
    """The product multiset must not depend on which representatives of the
    two classes it is computed from.  On a group with its tables the raw
    values are paired through the table and the moves.  On a set that is
    not closed, a trial whose raw values have sorted real parts more than
    tol apart fails on that gap, and only the others are canonicalized and
    matched."""
    n = space.n
    moves = np.random.default_rng([_seed("well_defined", seed), 1])
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
        want = _raw_product(space, pairs[0::2], pairs[1::2])
        got = _raw_product(space, moved[0::2], moved[1::2])
        if closed:
            return _paired_well_defined(space, want, got, chosen.reshape(count, 2))
        return _match(space, want, got, tol)

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
    default unless overridden.  The i-th check runs at seed + i, added as a
    Python int, so that a numpy seed cannot wrap around."""
    seed = _seed("run_all", seed)
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
    if not math.isfinite(extra_angle):
        raise ValueError(f"extra_angle must be finite, got {extra_angle!r}")
    half = extra_angle / 2.0
    tweak = np.array([math.cos(half), 0.0, 0.0, math.sin(half)])
    rows = group.element_rows.copy()
    i = 1 if group.identity_index == 0 else 0
    rows[i] = canonical_sign(normalized_rows(left_matrix(rows[i : i + 1]) @ tweak))[0]
    return RotationGroup(group.spec, rows)
