"""Randomized verification that a coset space satisfies the multivalued
group axioms: products with the identity collapse to copies of the input,
the identity appears among the products of a point with its inverse, and
the two ways of associating a triple product give the same multiset.

Each check runs independent trials on freshly sampled points and reports
failure counts plus the worst deviation seen.  A trial that hits a
canonicalization near-tie is resampled a bounded number of times, since
ties say the sampled point sits too close to the singular set, not that
the algebra is wrong.
"""

from __future__ import annotations

import math
import random
import warnings
from dataclasses import dataclass
from typing import Callable, Optional

from .coset import (
    CosetSpace,
    TieWarning,
    identity_orbit,
    match_multisets,
    orbit_distance,
    orbit_inverse,
    orbit_product,
    orbit_product_left,
    orbit_product_right,
    product_from_representatives,
    random_point,
)
from .quaternion import Quaternion, canonical_sign, qmul
from .rotgroups import RotationGroup
from .tolerances import TOL_AXIOM

MAX_TIE_RETRIES = 8

AXIOM_NAMES = ("identity", "inverse", "associativity", "well_defined")


@dataclass
class AxiomReport:
    """Outcome of one axiom check on one space."""

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
        return {
            "space": self.space,
            "axiom": self.axiom,
            "trials": self.trials,
            "failures": self.failures,
            "max_deviation": self.max_deviation + 0.0,
            "tie_resamples": self.tie_resamples,
            "seed": self.seed,
            "tolerance": self.tolerance,
            "passed": self.passed,
        }


def _run_trials(
    space: CosetSpace,
    axiom: str,
    trials: int,
    seed: int,
    tol: float,
    trial_fn: Callable[[random.Random], float],
) -> AxiomReport:
    """Run `trial_fn` repeatedly; it returns the deviation of one trial.
    Trials that raise TieWarning are resampled up to MAX_TIE_RETRIES, then
    accepted as-is.  A trial fails unless its deviation is at most `tol`,
    so a non-finite deviation is a failure."""
    rng = random.Random(seed)
    failures = 0
    worst = 0.0
    resamples = 0
    for _ in range(trials):
        for attempt in range(MAX_TIE_RETRIES + 1):
            with warnings.catch_warnings(record=True) as caught:
                warnings.simplefilter("always", TieWarning)
                dev = trial_fn(rng)
            tied = any(issubclass(w.category, TieWarning) for w in caught)
            if not tied or attempt == MAX_TIE_RETRIES:
                break
            resamples += 1
        worst = max(worst, dev)
        if not dev <= tol:
            failures += 1
    return AxiomReport(
        space=space.label,
        axiom=axiom,
        trials=trials,
        failures=failures,
        max_deviation=worst,
        tie_resamples=resamples,
        seed=seed,
        tolerance=tol,
    )


def check_identity(
    space: CosetSpace, samples: int = 200, seed: int = 0, tol: float = TOL_AXIOM
) -> AxiomReport:
    """Every entry of both products with the identity class must be the
    input class itself."""
    e = identity_orbit(space)

    def trial(rng: random.Random) -> float:
        x = random_point(space, rng)
        entries = orbit_product(e, x) + orbit_product(x, e)
        return max(orbit_distance(x, v) for v in entries)

    return _run_trials(space, "identity", samples, seed, tol, trial)


def check_inverse(
    space: CosetSpace, samples: int = 200, seed: int = 0, tol: float = TOL_AXIOM
) -> AxiomReport:
    """The identity class must appear among the products of a point with
    its inverse, on both sides.  Deviation is the distance from the nearest
    product entry to the identity."""
    e = identity_orbit(space)

    def trial(rng: random.Random) -> float:
        x = random_point(space, rng)
        ix = orbit_inverse(x)
        right = min(orbit_distance(e, v) for v in orbit_product(x, ix))
        left = min(orbit_distance(e, v) for v in orbit_product(ix, x))
        return max(right, left)

    return _run_trials(space, "inverse", samples, seed, tol, trial)


def default_triples(space: CosetSpace) -> int:
    """Associativity trial count: fewer for large groups, where each trial
    compares multisets of n^2 classes."""
    return 20 if space.n >= 60 else 50


def check_associativity(
    space: CosetSpace,
    triples: Optional[int] = None,
    seed: int = 0,
    tol: float = TOL_AXIOM,
) -> AxiomReport:
    """(x y) z and x (y z), each an n^2-element multiset, must agree."""
    if triples is None:
        triples = default_triples(space)

    def trial(rng: random.Random) -> float:
        x = random_point(space, rng)
        y = random_point(space, rng)
        z = random_point(space, rng)
        _, dev = match_multisets(
            orbit_product_left(x, y, z), orbit_product_right(x, y, z), tol
        )
        return dev

    return _run_trials(space, "associativity", triples, seed, tol, trial)


def check_well_defined(
    space: CosetSpace, samples: int = 100, seed: int = 0, tol: float = TOL_AXIOM
) -> AxiomReport:
    """The product multiset must not depend on which representatives of the
    two classes it is computed from."""

    def trial(rng: random.Random) -> float:
        x = random_point(space, rng)
        y = random_point(space, rng)
        n = len(space.group)
        a = space.representative_image(
            x.rep, rng.randrange(n), negate=_maybe_negate(space, rng)
        )
        b = space.representative_image(
            y.rep, rng.randrange(n), negate=_maybe_negate(space, rng)
        )
        _, dev = match_multisets(
            orbit_product(x, y), product_from_representatives(space, a, b), tol
        )
        return dev

    return _run_trials(space, "well_defined", samples, seed, tol, trial)


def _maybe_negate(space: CosetSpace, rng: random.Random) -> bool:
    # Lift signs are representative choices only on the rotation base.
    from .coset import Base

    return space.base is Base.SO3 and rng.random() < 0.5


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
    tweak = Quaternion(
        math.cos(extra_angle / 2.0), 0.0, 0.0, math.sin(extra_angle / 2.0)
    )
    elements = list(group.elements)
    for i, g in enumerate(elements):
        if i == group.identity_index:
            continue
        elements[i] = canonical_sign(qmul(g, tweak).normalized())
        break
    cover = [q for g in elements for q in (g, -g)]
    return RotationGroup(group.spec, elements, cover, group.identity_index)
