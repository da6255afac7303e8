"""Quotient points, the multivalued product, and multiset matching.

The small hand-checkable quotient here is the unit quaternions modulo the
half-turn about z: conjugation by k fixes +-1 and +-k and negates the i and
j directions, so orbits and products can be written out by hand and frozen.
"""

import random

import numpy as np
import pytest
from hypothesis import given, settings

from nvalued import coset
from nvalued.cli import _grouped
from nvalued.coset import (
    Base,
    CosetSpace,
    Orbit,
    SizeMismatch,
    _canonical,
    identity_orbit,
    match_multisets,
    multiset_equal,
    orbit_distance,
    orbit_inverse,
    orbit_product,
    orbit_product_left,
    orbit_product_right,
    product_from_representatives,
    project,
    random_point,
)
from nvalued.quaternion import (
    ONE, QI, QJ, QK, Quaternion, conj_action, qdist, random_unit,
)
from nvalued.tolerances import EPS_POINT, SEPARATION_FACTOR

from .conftest import make_space, unit_quaternions

SMALL_SPACES = [
    ("C1", "sp1"), ("C1", "so3"),
    ("C2", "sp1"), ("C2", "so3"),
    ("C3", "sp1"),
    ("D2", "so3"),
    ("T", "sp1"),
]


def test_space_labels_and_sizes():
    s = make_space("C5", "sp1")
    assert s.label == "C5@sp1"
    assert s.n == 5
    assert make_space("T", "so3").n == 12


def reference_canonical(space, point):
    """Per-point canonicalization: the EPS_POINT-slack filter, then the
    exact lexicographic maximum of the images that survive it."""
    images = space.canon_images(np.array([point]))[0]
    images = images / np.linalg.norm(images, axis=1, keepdims=True)
    alive = np.ones(len(images), dtype=bool)
    for coord in range(4):
        alive &= images[:, coord] >= images[alive, coord].max() - EPS_POINT
    survivors = images[alive]
    return survivors[np.lexsort(survivors.T[::-1])[-1]]


def reps(orbits):
    return np.array([o.rep for o in orbits])


class TestProject:
    @pytest.mark.parametrize(
        "label, base", [("C3", "sp1"), ("D2", "so3"), ("T", "so3"), ("O", "sp1")]
    )
    def test_batch_matches_per_point_reference(self, label, base, rng):
        # generic points plus singular ones, where several images survive
        # the slack filter and the exact tie-break decides
        s = make_space(label, base)
        special = [ONE, -ONE, QI, QJ, QK, Quaternion(0.5, 0.5, 0.5, 0.5)]
        points = np.array(special + [random_unit(rng) for _ in range(40)])
        want = np.array([reference_canonical(s, p) for p in points])
        # a batched sweep may round differently from a one-row sweep
        assert np.abs(_canonical(s, points) - want).max() <= 1e-15

    def test_identity_orbit_rep_is_one(self):
        for label, base in SMALL_SPACES:
            e = identity_orbit(make_space(label, base))
            assert qdist(e.rep, ONE) < 1e-12

    def test_minus_one_is_a_fixed_point(self):
        # -1 commutes with everything, so its orbit is a singleton on sp1
        s = make_space("T", "sp1")
        o = project(s, -ONE)
        assert qdist(o.rep, -ONE) < 1e-12
        assert orbit_distance(project(s, ONE), o) == pytest.approx(2.0)

    def test_sp1_c2_identifies_j_with_minus_j(self):
        s = make_space("C2", "sp1")
        assert orbit_distance(project(s, QJ), project(s, -QJ)) < 1e-12

    def test_so3_identifies_lift_signs(self):
        s = make_space("C3", "so3")
        q = Quaternion(0.5, 0.1, -0.3, 0.2).normalized()
        assert orbit_distance(project(s, q), project(s, -q)) < 1e-12

    @pytest.mark.parametrize("bad", [np.nan, np.inf])
    def test_rejects_non_finite_points(self, bad):
        with pytest.raises(ValueError, match="non-finite"):
            project(make_space("C2", "sp1"), Quaternion(bad, 0.0, 0.0, 0.0))

    def test_idempotent(self, rng):
        for label, base in SMALL_SPACES:
            s = make_space(label, base)
            x = random_point(s, rng)
            again = project(s, x.rep)
            assert qdist(again.rep, x.rep) < 1e-12

    @given(unit_quaternions())
    @settings(max_examples=50)
    def test_canonicalization_is_group_invariant(self, w):
        s = make_space("D3", "sp1")
        base_rep = project(s, w).rep
        for i in range(len(s.group)):
            moved = s.representative_image(w, i)
            assert qdist(project(s, moved).rep, base_rep) < 1e-9


def test_conjugation_commutes_with_negation():
    # needed for the action to descend to sign classes on the so3 base
    g = Quaternion(0.5, 0.5, 0.5, 0.5)
    x = Quaternion(0.2, -0.4, 0.1, 0.8).normalized()
    assert qdist(conj_action(g, -x), -conj_action(g, x)) < 1e-15


class TestProduct:
    def test_size_is_group_order(self, rng):
        for label, base in SMALL_SPACES:
            s = make_space(label, base)
            x, y = random_point(s, rng), random_point(s, rng)
            assert len(orbit_product(x, y)) == s.n

    def test_c2_i_times_j_splits(self):
        # i * j = k and i * (kjk^-1) = -k, and the orbits of k and -k are
        # distinct on the quaternion base: a genuinely 2-valued product
        s = make_space("C2", "sp1")
        values = orbit_product(project(s, QI), project(s, QJ))
        dk = min(orbit_distance(v, project(s, QK)) for v in values)
        dnk = min(orbit_distance(v, project(s, -QK)) for v in values)
        assert dk < 1e-12 and dnk < 1e-12
        assert orbit_distance(values[0], values[1]) > 1.0

    def test_identity_collapses(self, rng):
        for label, base in SMALL_SPACES:
            s = make_space(label, base)
            e = identity_orbit(s)
            x = random_point(s, rng)
            for v in orbit_product(e, x) + orbit_product(x, e):
                assert orbit_distance(v, x) < 1e-9

    def test_inverse_contains_identity(self, rng):
        for label, base in SMALL_SPACES:
            s = make_space(label, base)
            e = identity_orbit(s)
            x = random_point(s, rng)
            ix = orbit_inverse(x)
            assert min(orbit_distance(e, v) for v in orbit_product(x, ix)) < 1e-9
            assert min(orbit_distance(e, v) for v in orbit_product(ix, x)) < 1e-9

    def test_inverse_is_involution_and_fixes_identity(self, rng):
        s = make_space("D3", "so3")
        e = identity_orbit(s)
        assert qdist(orbit_inverse(e).rep, e.rep) < 1e-12
        x = random_point(s, rng)
        assert qdist(orbit_inverse(orbit_inverse(x)).rep, x.rep) < 1e-12

    def test_triple_products_have_n_squared_entries(self, rng):
        s = make_space("C3", "sp1")
        x, y, z = (random_point(s, rng) for _ in range(3))
        assert len(orbit_product_left(x, y, z)) == 9
        assert len(orbit_product_right(x, y, z)) == 9

    def test_c2_triple_ijk_multiset(self):
        # (ij)k = kk = -1; expanding all four branch products by hand gives
        # the multiset {e, e, class(-1), class(-1)} from either side
        s = make_space("C2", "sp1")
        x, y, z = (project(s, q) for q in (QI, QJ, QK))
        left = orbit_product_left(x, y, z)
        right = orbit_product_right(x, y, z)
        assert multiset_equal(left, right, 1e-9)
        e, m = identity_orbit(s), project(s, -ONE)
        assert sum(1 for v in left if orbit_distance(v, e) < 1e-9) == 2
        assert sum(1 for v in left if orbit_distance(v, m) < 1e-9) == 2

    @pytest.mark.parametrize(
        "label, base", [("C3", "sp1"), ("D2", "so3"), ("T", "so3"), ("I", "sp1")]
    )
    def test_batched_triple_products_match_per_value_products(
        self, label, base, rng
    ):
        s = make_space(label, base)
        x, y, z = (random_point(s, rng) for _ in range(3))
        left = [v for xy in orbit_product(x, y) for v in orbit_product(xy, z)]
        right = [v for yz in orbit_product(y, z) for v in orbit_product(x, yz)]
        assert np.abs(reps(orbit_product_left(x, y, z)) - reps(left)).max() <= 1e-14
        assert np.abs(reps(orbit_product_right(x, y, z)) - reps(right)).max() <= 1e-14

    def test_so3_product_same_from_either_lift(self, rng):
        s = make_space("D2", "so3")
        x, y = random_point(s, rng), random_point(s, rng)
        flipped = product_from_representatives(s, -x.rep, y.rep)
        assert multiset_equal(orbit_product(x, y), flipped, 1e-9)


class TestOrbitDistance:
    def test_zero_on_self(self, rng):
        s = make_space("C4", "sp1")
        x = random_point(s, rng)
        assert orbit_distance(x, x) < 1e-15

    def test_symmetric(self, rng):
        for label, base in SMALL_SPACES:
            s = make_space(label, base)
            x, y = random_point(s, rng), random_point(s, rng)
            assert orbit_distance(x, y) == pytest.approx(
                orbit_distance(y, x), abs=1e-12
            )

    def test_triangle_inequality(self, rng):
        s = make_space("D3", "so3")
        for _ in range(20):
            x, y, z = (random_point(s, rng) for _ in range(3))
            assert orbit_distance(x, z) <= (
                orbit_distance(x, y) + orbit_distance(y, z) + 1e-12
            )


class TestMultisets:
    def test_shuffle_invariance(self, rng):
        s = make_space("T", "sp1")
        x, y = random_point(s, rng), random_point(s, rng)
        values = orbit_product(x, y)
        shuffled = values[:]
        rng.shuffle(shuffled)
        assert multiset_equal(values, shuffled, 1e-9)

    def test_detects_mismatch(self, rng):
        s = make_space("C3", "sp1")
        e = identity_orbit(s)
        x = random_point(s, rng)
        assert not multiset_equal([e], [x], 1e-6)

    def test_size_mismatch_raises(self):
        s = make_space("C2", "sp1")
        e = identity_orbit(s)
        with pytest.raises(SizeMismatch):
            multiset_equal([e], [e, e], 1e-9)

    def test_single_swapped_entry_fails(self, rng):
        s = make_space("C4", "sp1")
        x, y = random_point(s, rng), random_point(s, rng)
        values = orbit_product(x, y)
        tampered = values[:-1] + [random_point(s, rng)]
        ok, dev = match_multisets(values, tampered, 1e-6)
        assert not ok and dev > 1e-6

    def test_matched_deviation_is_small_for_true_matches(self, rng):
        s = make_space("O", "so3")
        x, y, z = (random_point(s, rng) for _ in range(3))
        ok, dev = match_multisets(
            orbit_product_left(x, y, z), orbit_product_right(x, y, z), 1e-6
        )
        assert ok and dev < 1e-10

    def test_non_finite_values_never_match(self, rng):
        s = make_space("C3", "sp1")
        x, y = random_point(s, rng), random_point(s, rng)
        bad = product_from_representatives(s, Quaternion(np.nan, 0.0, 0.0, 0.0), y.rep)
        ok, dev = match_multisets(bad, orbit_product(x, y), 1e-6)
        assert not ok and np.isnan(dev)

    def test_assignment_fallback_when_positional_pairing_fails(self, monkeypatch):
        # Two orbits whose first coordinates differ by 1e-10; drift of 2e-10
        # on one of them swaps their sorted order, so positional pairing
        # compares different orbits and only the assignment finds the match.
        s = make_space("C3", "sp1")
        p = Quaternion(0.5, 0.5, 0.5, 0.5)
        q = Quaternion(0.5 + 1e-10, 0.5, -0.5, -0.5)
        drifted = Quaternion(0.5 + 2e-10, 0.5, 0.5, 0.5)
        calls = []
        assign = coset.linear_sum_assignment
        monkeypatch.setattr(
            coset, "linear_sum_assignment", lambda m: calls.append(m) or assign(m)
        )
        ok, dev = match_multisets(
            [Orbit(s, p), Orbit(s, q)], [Orbit(s, q), Orbit(s, drifted)], 1e-6
        )
        assert len(calls) == 1
        assert ok and dev == pytest.approx(2e-10, rel=1e-3)

    def test_grouped_multiplicities(self, rng):
        s = make_space("C2", "sp1")
        e = identity_orbit(s)
        x = random_point(s, rng)
        grouped = _grouped(orbit_product(e, x))
        assert len(grouped) == 1
        assert grouped[0][1] == 2


def test_random_point_respects_separation_floor(rng):
    s = make_space("I", "sp1")
    floor = SEPARATION_FACTOR * EPS_POINT
    for _ in range(10):
        x = random_point(s, rng)
        images = s.canon_images(np.array([tuple(x.rep)]))[0]
        d = np.sqrt(((images[:, None, :] - images[None, :, :]) ** 2).sum(axis=2))
        np.fill_diagonal(d, np.inf)
        assert float(d.min()) > floor


def test_group_orbit_size_divides_double_order(rng):
    # the sign-extended sweep on the so3 base has 2n maps; a generic point
    # sees all of them as distinct images, special points see a divisor
    for label in ("C4", "D3", "T"):
        s = make_space(label, "so3")
        n = s.n
        x = random_point(s, rng)
        images = s.canon_images(np.array([tuple(x.rep)]))[0]
        distinct = []
        for img in images:
            if not any(np.linalg.norm(img - d) <= EPS_POINT for d in distinct):
                distinct.append(img)
        assert (2 * n) % len(distinct) == 0
