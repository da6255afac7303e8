"""Quotient points, the multivalued product, and multiset matching.

The small hand-checkable quotient here is the unit quaternions modulo the
half-turn about z: conjugation by k fixes +-1 and +-k and negates the i and
j directions, so orbits and products can be written out by hand and frozen.
"""

import math

import numpy as np
import pytest
from hypothesis import given, settings, strategies as st

from nvalued import coset
from nvalued.axioms import corrupted_copy
from nvalued.coset import (
    Base,
    CosetSpace,
    Orbit,
    Orbits,
    SizeMismatch,
    _canonical,
    grouped_orbits,
    identity_orbit,
    match_multisets,
    orbit_distance,
    orbit_inverse,
    orbit_product,
    product_from_representatives,
    project,
    random_point,
)
from nvalued.quaternion import (
    ONE, QI, QJ, QK, Quaternion, normalized_rows, random_units,
)
from nvalued.rotgroups import GroupSpec, build_group, catalog
from nvalued.tolerances import EPS_POINT, TOL_AXIOM

from .conftest import (
    conj_oracle, count_assignments, equator_quaternions, grouped_orbits_oracle,
    make_space, near_half_way, nearest_reference, product_left, product_right,
    triple_products, unit_quaternions,
)

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


@pytest.mark.parametrize("base", list(Base))
def test_a_base_given_by_its_value_is_the_enum(base):
    g = make_space("C3", "sp1").group
    by_value, by_enum = CosetSpace(g, base.value), CosetSpace(g, base)
    assert by_value.base is base
    assert by_value.label == by_enum.label == f"C3@{base.value}"
    assert repr(by_value) == repr(by_enum)
    for q in (-ONE, QI, Quaternion(0.5, 0.1, -0.3, 0.2).normalized()):
        assert project(by_value, q).rep == project(by_enum, q).rep


def test_an_unknown_base_raises():
    with pytest.raises(ValueError):
        CosetSpace(make_space("C3", "sp1").group, "xyz")


class TestMixedSpaces:
    """Orbits of two spaces have no product, distance or matching."""

    @staticmethod
    def pairs():
        c3 = make_space("C3", "sp1")
        return [
            (c3, make_space("C4", "sp1")),
            (c3, make_space("C3", "so3")),
            (c3, CosetSpace(corrupted_copy(c3.group), Base.SP1)),
        ]

    @pytest.mark.parametrize("case", range(3), ids=["C3-C4", "sp1-so3", "C3-corrupted"])
    def test_mixed_orbits_raise(self, case):
        s, t = self.pairs()[case]
        x, y = project(s, QI), project(t, QI)
        calls = [
            lambda: orbit_distance(x, y),
            lambda: orbit_product(x, y),
            lambda: match_multisets([x], [y], 1e-6),
            lambda: match_multisets([x, y], [x, x], 1e-6),
        ]
        for call in calls:
            with pytest.raises(ValueError, match="do not mix"):
                call()

    def test_two_builds_of_one_space_mix(self):
        s = make_space("C3", "sp1")
        t = CosetSpace(build_group(GroupSpec.parse("C3")), "sp1")
        assert t is not s
        x, y = project(s, QI), project(t, QI)
        assert orbit_distance(x, y) < 1e-12
        assert match_multisets(orbit_product(x, x), orbit_product(y, y), 1e-9)[0]
        assert [len(v) for v in triple_products(x, y, x)] == [9, 9]


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


def nearest_image(space, points, reps):
    """Distance from each row of `reps` to the nearest image of the same
    row of `points`, normalized, under the maps that canon_images sweeps."""
    return coset._distances(space, reps, normalized_rows(points))


def reps(orbits):
    return np.array([o.rep for o in orbits])


CATALOG_SPACES = [(spec.label, base.value) for spec in catalog() for base in Base]

# Real parts at which the rotation base's sign fold is decided: exactly on
# the equator, next to it, on either side of the EPS_POINT / 2 boundary
# where the negated lift stops competing, and beyond it.
EQUATOR_REAL_PARTS = [
    0.0, 1e-12, -1e-12,
    EPS_POINT / 2 - 1e-12, EPS_POINT / 2 + 1e-12,
    -(EPS_POINT / 2 - 1e-12), -(EPS_POINT / 2 + 1e-12),
    1e-9, -1e-9, 1e-8,
]


def singular_points(space, rng):
    """Group elements, points on their rotation axes, and on the rotation
    base points whose real part sits at the sign-fold boundary."""
    elements = space.group.element_rows
    axes = elements[:, 1:][np.linalg.norm(elements[:, 1:], axis=1) > 0.5e-8]
    axes = axes / np.linalg.norm(axes, axis=1, keepdims=True)
    points = [elements, -elements]
    for w, r in ((0.0, 1.0), (0.6, 0.8), (-0.6, 0.8)):
        points.append(np.column_stack([np.full(len(axes), w), r * axes]))
    if space.base is Base.SO3:
        for w in EQUATOR_REAL_PARTS:
            for _ in range(5):
                v = random_units(rng, 1)[0, 1:]
                points.append([[w, *(math.sqrt(1 - w * w) * v / np.linalg.norm(v))]])
    return np.concatenate(points)


@settings(max_examples=200, deadline=None)
@given(st.integers(0, 5000), st.integers(-1, 5000))
def test_blocks_cut_a_batch_into_equal_blocks(m, size):
    blocks = coset._blocks(m, size)
    assert [i for b in blocks for i in range(m)[b]] == list(range(m))
    sizes = [len(range(m)[b]) for b in blocks]
    assert max(sizes) - min(sizes) <= 1
    assert max(sizes) <= max(1, size)
    assert len(blocks) == max(1, -(-m // max(1, size)))
    if m >= 2 and size >= 3:
        assert min(sizes) >= 2


class TestProject:
    @pytest.mark.parametrize("label, base", CATALOG_SPACES)
    def test_batch_matches_per_point_reference(self, label, base, rng):
        # generic points plus singular ones, where several images survive
        # the slack filter and the exact tie-break decides, and on the
        # rotation base the lift-sign boundary
        s = make_space(label, base)
        special = [ONE, -ONE, QI, QJ, QK, Quaternion(0.5, 0.5, 0.5, 0.5)]
        points = np.concatenate(
            [special, singular_points(s, rng), random_units(rng, 200)]
        )
        want = np.array([reference_canonical(s, p) for p in points])
        # a batched sweep may round differently from a one-row sweep
        assert np.abs(_canonical(s, points) - want).max() <= 1e-15

    @pytest.mark.parametrize("offset", [-1, 0, 1])
    def test_blocked_canonicalization_equals_one_block(self, offset):
        s = make_space("I", "so3")
        m = s._block_rows + offset
        assert s._block_rows == coset.SWEEP_BLOCK // s.n
        # numpy seeds are >= 0, so the seed is the offset plus one
        points = random_units(np.random.default_rng(offset + 1), m)
        # some rows on the equator, where both lift signs are compared
        points[::97, 0] = 0.0
        points = normalized_rows(points)
        blocks = coset._blocks(m, s._block_rows)
        assert [i for b in blocks for i in range(m)[b]] == list(range(m))
        assert max(b.stop - b.start for b in blocks) <= s._block_rows
        blocked = _canonical(s, points)
        assert np.array_equal(blocked, coset._canonical_block(s, points))
        assert nearest_image(s, points, blocked).max() <= 1e-15

    def test_identity_orbit_rep_is_one(self):
        for label, base in SMALL_SPACES:
            e = identity_orbit(make_space(label, base))
            assert math.dist(e.rep, ONE) < 1e-12

    def test_minus_one_is_a_fixed_point(self):
        # -1 commutes with everything, so its orbit is a singleton on sp1
        s = make_space("T", "sp1")
        o = project(s, -ONE)
        assert math.dist(o.rep, -ONE) < 1e-12
        assert orbit_distance(project(s, ONE), o) == pytest.approx(2.0)

    def test_sp1_c2_identifies_j_with_minus_j(self):
        s = make_space("C2", "sp1")
        assert orbit_distance(project(s, QJ), project(s, -QJ)) < 1e-12

    def test_so3_identifies_lift_signs(self):
        s = make_space("C3", "so3")
        q = Quaternion(0.5, 0.1, -0.3, 0.2).normalized()
        assert orbit_distance(project(s, q), project(s, -q)) < 1e-12

    @pytest.mark.parametrize(
        "bad",
        [(np.nan, 0.0), (np.inf, 0.0), (1e200, 1e200), (0.0, 0.0), (1e-9, 0.0)],
        ids=["nan", "inf", "overflow", "zero", "near-zero"],
    )
    def test_rejects_non_finite_points(self, bad):
        # a finite point whose norm overflows would normalize to the zero
        # quaternion, and so to a NaN orbit; one near 0 has no direction
        with pytest.raises(ValueError, match="near 0 or non-finite"):
            project(make_space("C2", "sp1"), Quaternion(*bad, 0.0, 0.0))

    def test_idempotent(self, rng):
        for label, base in SMALL_SPACES:
            s = make_space(label, base)
            x = random_point(s, rng)
            again = project(s, x.rep)
            assert math.dist(again.rep, x.rep) < 1e-12

    @given(unit_quaternions())
    @settings(max_examples=50)
    def test_canonicalization_is_group_invariant(self, w):
        s = make_space("D3", "sp1")
        base_rep = project(s, w).rep
        for i in range(len(s.group)):
            moved = conj_oracle(s.group.elements[i], w)
            assert math.dist(project(s, moved).rep, base_rep) < 1e-9

    @pytest.mark.parametrize("label", ["C2", "D3", "T", "I"])
    @pytest.mark.parametrize("base", ["sp1", "so3"])
    @given(data=st.data())
    @settings(max_examples=30, deadline=None)
    def test_projection_is_invariant_under_every_element(self, label, base, data):
        # on so3 also exactly on the equator, where the sign fold compares
        # both lifts
        s = make_space(label, base)
        points = unit_quaternions()
        if base == "so3":
            points = points | equator_quaternions()
        x = data.draw(points)
        want = project(s, x).rep
        for i in range(s.n):
            moved = project(s, conj_oracle(s.group.elements[i], x))
            assert math.dist(moved.rep, want) <= TOL_AXIOM


def reference_lexmax(images):
    """`coset._lexmax` one row at a time in pure Python: coordinate by
    coordinate, keep the images within EPS_POINT of the largest survivor;
    then, among the survivors, take the exact lexicographic maximum, the
    last one if several are equal."""
    picks = []
    for row in images.tolist():
        alive = range(len(row[0]))
        for col in row:
            top = max(col[i] for i in alive)
            alive = [i for i in alive if col[i] >= top - EPS_POINT]
        keys = {i: [col[i] for col in row] for i in alive}
        best = max(keys.values())
        picks.append(max(i for i in alive if keys[i] == best))
    return np.array(picks)


E = EPS_POINT
LOSER = (-0.9, -0.9, -0.9)
# Four (x, y, z) images per row, and the index the slack rule picks.  Each
# row is decided at a known coordinate, or reaches the exact tie-break.
LEXMAX_ROWS = {
    "x": ([(0.1, 0.9, 0.0), (0.9, -0.5, 0.0), (0.5, 0.5, 0.5),
           (0.9 - 2 * E, 0.9, 0.9)], 1),
    # image 2 has the least x of the survivors, but wins on y
    "y": ([(0.5, 0.1, 0.9), (0.5 + 0.5 * E, 0.0, 0.9), (0.5 - 0.4 * E, 0.3, -0.2),
           (0.2, 0.9, 0.9)], 2),
    # the slack is taken from the largest survivor: image 0 lies within
    # EPS_POINT of image 1, but not of image 2
    "y-chain": ([(0.5, 0.9, 0.9), (0.5 + 0.8 * E, 0.1, 0.0),
                 (0.5 + 1.6 * E, 0.0, 0.9), LOSER], 1),
    "z": ([(0.3, 0.4, 0.1), (0.3 + 0.3 * E, 0.4 - 0.3 * E, -0.5),
           (0.3, 0.4 + 0.2 * E, 0.2), (-0.3, 0.9, 0.9)], 2),
    "exact-x": ([(0.5, 0.6, 0.1), (0.5 + 1e-12, 0.6, 0.1), (0.5, 0.6, 0.1),
                 (0.2, 0.6, 0.1)], 1),
    "exact-z": ([(0.5, 0.6, 0.1), (0.5, 0.6, 0.1 + 2e-12), (0.5, 0.6, 0.1 + 1e-12),
                 LOSER], 1),
    "exact-last-of-equal": ([(0.5, 0.6, 0.1)] * 3 + [(0.4, 0.9, 0.9)], 2),
    "exact-last-of-two-maxima": ([(0.5, 0.6, 0.1 + 1e-12), (0.5, 0.6, 0.1),
                                  (0.5, 0.6, 0.1 + 1e-12), (0.5, 0.6, 0.1)], 2),
}


def lexmax_stack(names):
    """The (m, 3, 4) stack of the named LEXMAX_ROWS and their picks."""
    rows = [LEXMAX_ROWS[name] for name in names]
    images = np.array([np.array(row).T for row, _ in rows])
    return images, np.array([pick for _, pick in rows])


class TestLexmax:
    """`_lexmax` picks exactly what the per-row slack rule picks, wherever
    a row is decided; `test_batch_matches_per_point_reference` compares
    representatives only to 1e-15, which cannot see a changed pick."""

    @pytest.mark.parametrize("name", list(LEXMAX_ROWS))
    def test_hand_built_row(self, name):
        images, want = lexmax_stack([name])
        assert np.array_equal(reference_lexmax(images), want)
        assert np.array_equal(coset._lexmax(images), want)

    def test_rows_decided_at_different_coordinates_share_one_call(self):
        names = list(LEXMAX_ROWS)
        order = np.random.default_rng(3).permutation(3 * len(names)) % len(names)
        images, want = lexmax_stack([names[i] for i in order])
        assert np.array_equal(coset._lexmax(images), want)
        # a batch of rows all decided at x, at y or at z
        for decided in (["x"] * 3, ["y", "y-chain"], ["z", "z"]):
            images, want = lexmax_stack(decided)
            assert np.array_equal(coset._lexmax(images), want)

    @pytest.mark.parametrize("c", [3, 4])
    def test_near_ties_on_a_grid(self, c):
        # values a few tenths of EPS_POINT apart, so that rows are decided
        # at every coordinate and many reach the exact tie-break
        steps = np.random.default_rng(c).integers(-3, 4, size=(400, c, 6))
        images = 0.3 + steps * (0.4 * E)
        assert np.array_equal(coset._lexmax(images), reference_lexmax(images))

    @pytest.mark.parametrize("label", ["C2", "D3", "T", "O", "I"])
    def test_equator_rows_and_their_witnesses(self, label, rng):
        # On so3 the rows with |w| <= EPS_POINT / 2 compare both lift
        # signs: a (4, 2n) stack of the signed images.
        s = make_space(label, "so3")
        # generic directions, and the rotation axes, where images tie
        vectors = np.concatenate([random_units(rng, 8), s.group.element_rows])[:, 1:]
        vectors = vectors[np.linalg.norm(vectors, axis=1) > 0.5e-8]
        vectors /= np.linalg.norm(vectors, axis=1, keepdims=True)
        points = np.concatenate([
            np.column_stack([np.full(len(vectors), w), math.sqrt(1 - w * w) * vectors])
            for w in [*EQUATOR_REAL_PARTS, -0.0]
        ])
        got = coset._canonical_block(s, points)

        q = normalized_rows(points)
        fold = q[:, 0] < 0.0
        q[fold] = -q[fold]
        images = (q[:, 1:] @ s._rot_cols).reshape(len(q), 3, s.n)
        want = np.empty_like(q)
        for t in range(len(q)):
            stack = images[t]
            if q[t, 0] <= E / 2:
                stack = np.concatenate([np.full((1, s.n), q[t, 0]), stack])
                stack = np.concatenate([stack, -stack], axis=1)
            (pick,) = reference_lexmax(stack[None])
            want[t, 0] = q[t, 0]
            want[t, -len(stack):] = stack[:, pick]
        assert (np.abs(q[:, 0]) <= E / 2).sum() >= 4 * len(vectors)
        assert np.array_equal(got, want)
        # each representative is an image of its point, lift signs included
        assert nearest_image(s, points, got).max() <= 1e-15


def test_rep_jump_at_the_slack_boundary_is_absorbed_by_matching():
    # On C2@sp1 the images of (0.6, x, -0.8, 0) are (0.6, +-x, -+0.8, 0).
    # Across 2x = EPS_POINT the slack filter stops separating them on the
    # x coordinate, so the representative jumps to the other image; the
    # two points are still the same orbit and give the same products.
    s = make_space("C2", "sp1")
    above = project(s, Quaternion(0.6, 5.001e-10, -0.8, 0.0))
    below = project(s, Quaternion(0.6, 4.999e-10, -0.8, 0.0))
    assert above.rep.y < 0.0 < below.rep.y
    assert orbit_distance(above, below) <= 1e-12
    z = project(s, Quaternion(0.3, 0.1, -0.2, 0.5).normalized())
    for left, right in [
        (orbit_product(above, z), orbit_product(below, z)),
        (orbit_product(z, above), orbit_product(z, below)),
        (orbit_product(above, above), orbit_product(below, below)),
    ]:
        assert match_multisets(left, right, 1e-6)[0]


def test_conjugation_commutes_with_negation():
    # needed for the action to descend to sign classes on the so3 base
    g = Quaternion(0.5, 0.5, 0.5, 0.5)
    x = Quaternion(0.2, -0.4, 0.1, 0.8).normalized()
    assert math.dist(conj_oracle(g, -x), -conj_oracle(g, x)) < 1e-15


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
            for v in [*orbit_product(e, x), *orbit_product(x, e)]:
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
        assert math.dist(orbit_inverse(e).rep, e.rep) < 1e-12
        x = random_point(s, rng)
        assert math.dist(orbit_inverse(orbit_inverse(x)).rep, x.rep) < 1e-12

    def test_triple_products_have_n_squared_entries(self, rng):
        s = make_space("C3", "sp1")
        x, y, z = (random_point(s, rng) for _ in range(3))
        assert [len(v) for v in triple_products(x, y, z)] == [9, 9]

    def test_c2_triple_ijk_multiset(self):
        # (ij)k = kk = -1; expanding all four branch products by hand gives
        # the multiset {e, e, class(-1), class(-1)} from either side
        s = make_space("C2", "sp1")
        x, y, z = (project(s, q) for q in (QI, QJ, QK))
        left, right = triple_products(x, y, z)
        assert match_multisets(left, right, 1e-9)[0]
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
        batched = triple_products(x, y, z)
        assert np.abs(reps(batched[0]) - reps(left)).max() <= 1e-14
        assert np.abs(reps(batched[1]) - reps(right)).max() <= 1e-14

    def test_so3_product_same_from_either_lift(self, rng):
        s = make_space("D2", "so3")
        x, y = random_point(s, rng), random_point(s, rng)
        flipped = product_from_representatives(s, -x.rep, y.rep)
        assert match_multisets(orbit_product(x, y), flipped, 1e-9)[0]


class TestOrbits:
    def points(self, label="I", base="so3"):
        s = make_space(label, base)
        x = project(s, Quaternion(0.2, -0.4, 0.1, 0.8))
        return s, x, project(s, Quaternion(0.6, 0.0, 0.8, 0.0))

    def product(self, label="I", base="so3"):
        s, x, y = self.points(label, base)
        return s, x, y, orbit_product(x, y)

    def test_reps_are_the_kernel_rows_bit_for_bit(self):
        s, x, y, values = self.product()
        rows = coset._product(s, np.array([x.rep]), np.array([y.rep]))
        assert values.space is s
        assert values.reps.shape == (60, 4)
        assert values.reps.tobytes() == rows.tobytes()

    def test_reps_are_read_only(self):
        _, _, _, values = self.product()
        with pytest.raises(ValueError, match="read-only"):
            values.reps[0, 0] = 1.0

    def test_sequence_of_orbits(self):
        s, x, _, values = self.product()
        rows = [Quaternion(*row) for row in values.reps.tolist()]
        assert len(values) == 60
        assert values[0].rep == rows[0] and values[0].space is s
        assert values[7].rep == rows[7]
        assert values[-1].rep == rows[-1]
        assert values[np.int64(-60)].rep == rows[0]
        with pytest.raises(IndexError):
            values[60]
        assert [o.rep for o in values] == rows
        assert [o.rep for o in reversed(values)] == rows[::-1]
        assert all(isinstance(o, Orbit) for o in values)

    def test_slices_are_lists(self):
        _, x, _, values = self.product()
        rows = [Quaternion(*row) for row in values.reps.tolist()]
        for part, want in (
            (values[:], rows),
            (values[2:5], rows[2:5]),
            (values[::-7], rows[::-7]),
            (values[:-1] + [x], rows[:-1] + [x.rep]),
        ):
            assert type(part) is list
            assert [o.rep for o in part] == want

    def test_membership_compares_representatives(self):
        # Every index boxes a fresh Orbit, so `in`, `count` and `index`
        # find a value only if orbits compare by space and representative.
        s = make_space("C3", "so3")
        x = project(s, Quaternion(0.2, -0.4, 0.1, 0.8))
        values = orbit_product(x, x)
        rows = values.reps.tolist()
        assert values[0] in values
        assert [values.count(v) for v in values] == [rows.count(r) for r in rows]
        assert [values.index(v) for v in values] == [rows.index(r) for r in rows]
        twin = project(s, Quaternion(0.2, -0.4, 0.1, 0.8))
        assert twin is not x and twin == x and hash(twin) == hash(x)
        # another space, or another representative, is another orbit
        assert Orbit(CosetSpace(s.group, "sp1"), x.rep) != x
        assert project(s, Quaternion(0.6, 0.0, 0.8, 0.0)) != x

    def test_products_have_no_sum(self):
        # A product is a multiset: `+` neither concatenates (as a list
        # would) nor adds elementwise (as `reps + reps` does).
        _, x, y, values = self.product()
        for left, right in (
            (values, values),
            (values, [x]),
            ([x], values),
            (orbit_product(x, y), orbit_product(y, x)),
        ):
            with pytest.raises(TypeError):
                left + right

    def test_matching_and_grouping_read_orbits_and_lists_alike(self):
        _, _, _, values = self.product("T", "sp1")
        listed = values[:]
        assert match_multisets(values, listed, 1e-9) == (True, 0.0)
        assert match_multisets(listed, values, 1e-9) == (True, 0.0)
        grouped = [(o.rep, m) for o, m in grouped_orbits(values)]
        assert grouped == [(o.rep, m) for o, m in grouped_orbits(listed)]

    def test_grouping_boxes_only_the_first_orbit_of_each_group(self, monkeypatch):
        s = make_space("C2", "sp1")
        values = orbit_product(identity_orbit(s), project(s, QI))
        boxed = []
        orbit = coset.Orbit

        def counting(*args):
            boxed.append(1)
            return orbit(*args)

        monkeypatch.setattr(coset, "Orbit", counting)
        ((first, count),) = grouped_orbits(values)
        assert count == 2 and len(boxed) == 1
        assert first.rep == Quaternion(*values.reps[0].tolist())

    @pytest.mark.parametrize("other", [("C3", "so3"), ("D3", "sp1")])
    def test_products_of_two_spaces_do_not_mix(self, other):
        s, t = make_space("C3", "sp1"), make_space(*other)
        x, y = project(s, QI), project(t, QI)
        with pytest.raises(ValueError, match="do not mix"):
            orbit_product(x, y)
        values = orbit_product(x, x)
        mixed = orbit_product(y, y)
        if len(mixed) > len(values):
            mixed = mixed[: len(values)]  # a list
        with pytest.raises(ValueError, match="do not mix"):
            match_multisets(values, mixed, 1e-6)
        with pytest.raises(ValueError, match="do not mix"):
            match_multisets(mixed, values, 1e-6)

    def test_a_product_boxes_no_orbit(self, monkeypatch):
        # The n values stay one array; boxing them cost about half of an
        # orbit_product call on I.
        _, x, y = self.points()

        def refuse(*args):
            raise AssertionError("a product boxed its values")

        monkeypatch.setattr(coset, "_orbits", refuse)
        monkeypatch.setattr(coset, "Orbit", refuse)
        values = orbit_product(x, y)
        assert len(values) == 60
        assert values.reps.shape == (60, 4)


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

    @pytest.mark.parametrize("offset", [-1, 0, 1])
    def test_blocked_distances_equal_one_block(self, offset, rng, monkeypatch):
        # Distances sweep the k maps of the canon family, 2n on so3, so a
        # block holds at most SWEEP_BLOCK images there too.
        s = make_space("I", "so3")
        m = s._distance_rows + offset
        assert s._distance_rows == coset.SWEEP_BLOCK // (2 * s.n)
        points, values = random_units(rng, 2 * m).reshape(2, m, 4)
        values[::97, 0] = 0.0
        values = normalized_rows(values)
        blocked = coset._distances(s, points, values)
        monkeypatch.setattr(s, "_distance_rows", m)
        assert np.array_equal(blocked, coset._distances(s, points, values))

    @pytest.mark.parametrize(
        "label, base", CATALOG_SPACES + [("C1000", "so3"), ("D500", "sp1")]
    )
    def test_orbit_distance_is_the_batched_kernel_bit_for_bit(
        self, label, base, rng
    ):
        # on the singular set, on the so3 equator and at generic points
        s = make_space(label, base)
        equator = random_units(rng, 20)
        equator[:, 0] = 0.0
        rows = np.concatenate(
            [singular_points(s, rng), normalized_rows(equator), random_units(rng, 50)]
        )
        reps = _canonical(s, rows)
        points = reps[rng.permutation(len(reps))]
        pairs = list(zip(points, reps))
        # and from, to and between a NaN row and a row with an inf
        odd = reps[:2].copy()
        odd[0] = np.nan
        odd[1, 3] = np.inf
        odd_pairs = [(a, b) for a in (*odd, reps[2]) for b in (*odd, reps[3])][:-1]

        def one_pair(p, v):
            return orbit_distance(Orbit(s, Quaternion(*p)), Orbit(s, Quaternion(*v)))

        got = [one_pair(p, v) for p, v in pairs]
        assert all(type(d) is float for d in got)
        # the (4,) and the (m, 4) point form of a one-row sweep
        assert got == [coset._distances(s, p, v[None])[0] for p, v in pairs]
        assert got == [coset._distances(s, p[None], v[None])[0] for p, v in pairs]
        with np.errstate(invalid="ignore"):
            odd_got = np.array([one_pair(p, v) for p, v in odd_pairs])
            odd_want = np.array(
                [coset._distances(s, p, v[None])[0] for p, v in odd_pairs]
            )
        assert not np.isfinite(odd_got).any()
        assert np.array_equal(odd_got, odd_want, equal_nan=True)
        assert np.array_equal(np.signbit(odd_got), np.signbit(odd_want))
        # a sweep of many rows: one point broadcasts as its (m, 4) stack does
        for p in points[:4]:
            stack = np.tile(p, (len(reps), 1))
            assert np.array_equal(
                coset._distances(s, p, reps), coset._distances(s, stack, reps)
            )
        # numpy sweeps one row by another BLAS routine than many
        assert np.abs(coset._distances(s, points, reps) - got).max() <= 1e-15

    @pytest.mark.parametrize(
        "label, base", CATALOG_SPACES + [("C1000", "so3"), ("D500", "sp1")]
    )
    def test_distances_are_the_earlier_formula_bit_for_bit(self, label, base, rng):
        # The kernel reduces the (m, 4, k) sweep as the matmul writes it and
        # takes one root per row; the earlier formula took a root per image
        # of the (m, k, 4) view.  Both add the squares in the order
        # ((d0 + d1) + d2) + d3, and the root is correctly rounded and
        # monotone, so the least root is the root of the least.
        s = make_space(label, base)
        m = s._distance_rows + 1
        values = random_units(rng, m)
        # on so3 the real part decides the lift sign, except near the equator
        values[::7, 0] = rng.uniform(-EPS_POINT / 2, EPS_POINT / 2, len(values[::7]))
        values = normalized_rows(values)
        points = random_units(rng, m)
        points[1::7] = values[1::7] + 1e-9
        odd = values[:3].copy()
        odd[1] = np.nan
        odd[2, 3] = np.inf
        cases = [(points[0], odd), (odd, values[:3]), (odd, odd)]
        for c in (1, 2, 3, m):  # m rows take the block path
            cases += [
                (points[:c], values[:c]),
                (points[c - 1], values[:c]),
                (points[:c], values[c - 1 : c]),
            ]
        for p, v in cases:
            with np.errstate(invalid="ignore"):
                want = nearest_reference(s, p, v)
                got = coset._distances(s, p, v)
            assert got.shape == want.shape
            assert np.array_equal(got, want, equal_nan=True)
            assert np.array_equal(np.signbit(got), np.signbit(want))


class TestMultisets:
    def test_shuffle_invariance(self, rng):
        s = make_space("T", "sp1")
        x, y = random_point(s, rng), random_point(s, rng)
        values = orbit_product(x, y)
        shuffled = values[:]
        rng.shuffle(shuffled)
        assert match_multisets(values, shuffled, 1e-9)[0]

    def test_detects_mismatch(self, rng):
        s = make_space("C3", "sp1")
        e = identity_orbit(s)
        x = random_point(s, rng)
        assert not match_multisets([e], [x], 1e-6)[0]

    def test_size_mismatch_raises(self):
        s = make_space("C2", "sp1")
        e = identity_orbit(s)
        with pytest.raises(SizeMismatch):
            match_multisets([e], [e, e], 1e-9)[0]

    @pytest.mark.parametrize(
        "tol", [math.inf, math.nan, 0.0, -1.0, math.sqrt(2.0), 5.0]
    )
    def test_a_tolerance_that_tests_nothing_raises(self, rng, tol):
        # two different products of I@so3 would match within such a tol
        s = make_space("I", "so3")
        x, y, z = (random_point(s, rng) for _ in range(3))
        with pytest.raises(ValueError, match="tolerance must be > 0 and < sqrt"):
            match_multisets(orbit_product(x, y), orbit_product(x, z), tol)

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
        ok, dev = match_multisets(*triple_products(x, y, z), 1e-6)
        assert ok and dev < 1e-10

    def test_non_finite_values_never_match(self, rng):
        s = make_space("C3", "sp1")
        x, y = random_point(s, rng), random_point(s, rng)
        bad = product_from_representatives(s, Quaternion(np.nan, 0.0, 0.0, 0.0), y.rep)
        ok, dev = match_multisets(bad, orbit_product(x, y), 1e-6)
        assert not ok and np.isnan(dev)

    def test_assignment_fallback_when_positional_pairing_fails(self, monkeypatch):
        # Two orbits whose real parts differ by about 1e-10; drift of about
        # 2e-10 on one of them swaps their sorted order, so positional
        # pairing compares different orbits and only the assignment on
        # their run of real parts finds the match.  The inputs are unit
        # quaternions, since _match normalizes what it canonicalizes.
        s = make_space("C3", "sp1")
        p = Quaternion(0.5, 0.5, 0.5, 0.5)
        q = Quaternion(0.5 + 1e-10, 0.5, -0.5, -0.5).normalized()
        drifted = Quaternion(0.5 + 2e-10, 0.5, 0.5, 0.5).normalized()
        calls = count_assignments(monkeypatch)
        ok, dev = match_multisets(
            [Orbit(s, p), Orbit(s, q)], [Orbit(s, q), Orbit(s, drifted)], 1e-6
        )
        assert calls == [2]
        assert ok and dev == pytest.approx(math.dist(p, drifted), rel=1e-3)

    def test_a_failed_pair_alone_in_its_run_fails_without_assignment(
        self, monkeypatch
    ):
        # Equal sorted real parts, but the two points at w = 0.6 lie in
        # different orbits, and no other value has a real part within tol.
        s = make_space("C3", "sp1")
        x = np.array([0.3, 0.0, math.sqrt(0.91), 0.0])
        a = np.array([[x, [0.6, 0.8, 0.0, 0.0]]])
        b = np.array([[x, [0.6, 0.0, 0.0, 0.8]]])
        calls = count_assignments(monkeypatch)
        (dev,) = coset._match(s, a, b, 1e-6)
        assert calls == []
        assert dev > 0.1

    def test_representative_jump_alone_still_matches(self):
        # these two representatives of one orbit differ by 1.6 in y and z
        s = make_space("C2", "sp1")
        above = project(s, Quaternion(0.6, 5.001e-10, -0.8, 0.0))
        below = project(s, Quaternion(0.6, 4.999e-10, -0.8, 0.0))
        assert math.dist(above.rep, below.rep) > 1.0
        ok, dev = match_multisets([above], [below], 1e-6)
        assert ok and dev <= 1e-12

    def test_positional_pairs_within_tol_are_not_swept(self, rng, monkeypatch):
        s = make_space("T", "so3")
        swept = count_swept_rows(monkeypatch)
        x, y, z = (np.array([random_point(s, rng).rep]) for _ in range(3))
        left = product_left(s, x, y, z)
        right = product_right(s, x, y, z)
        (dev,) = coset._match(s, left[None], right[None], 1e-6)
        assert dev < 1e-12
        assert swept == []

    def test_one_orbit_pair_beyond_tol_is_swept_alone(self, monkeypatch):
        # On C2@sp1 the images of (0.6, x, -6e-7, 0.8) are (0.6, -x, 6e-7,
        # 0.8): across 2x = EPS_POINT the representative jumps between them,
        # 1.2e-6 apart, so only the orbit distance sees that they match.
        s = make_space("C2", "sp1")
        above = project(s, Quaternion(0.6, 5.001e-10, -6e-7, 0.8)).rep
        below = project(s, Quaternion(0.6, 4.999e-10, -6e-7, 0.8)).rep
        assert math.dist(above, below) > 1e-6
        other = project(s, Quaternion(0.3, 0.1, -0.2, 0.5).normalized()).rep
        swept = count_swept_rows(monkeypatch)
        (dev,) = coset._match(
            s, np.array([[above, other]]), np.array([[other, below]]), 1e-6
        )
        assert swept == [1]
        assert dev <= 1e-12

    def test_grouped_multiplicities(self, rng):
        s = make_space("C2", "sp1")
        e = identity_orbit(s)
        x = random_point(s, rng)
        grouped = grouped_orbits(orbit_product(e, x))
        assert len(grouped) == 1
        assert grouped[0][1] == 2

    def test_grouping_measures_only_orbits_of_equal_abs_w(self, monkeypatch):
        # The 1000 values on C1000@so3 are distinct orbits; comparing each
        # with every group found so far took n (n - 1) / 2 orbit distances.
        s = make_space("C1000", "so3")
        a = project(s, Quaternion(0.6, 0.8, 0.0, 0.0))
        b = project(s, Quaternion(0.0, 0.0, 0.6, 0.8))
        values = orbit_product(a, b)
        # each orbit distance is one _nearest sweep
        calls = []
        nearest = coset._nearest

        def counting(space, points, values):
            calls.append(1)
            return nearest(space, points, values)

        monkeypatch.setattr(coset, "_nearest", counting)
        grouped = grouped_orbits(values)
        assert sum(m for _, m in grouped) == s.n
        assert len(calls) <= 2 * s.n

    def test_grouping_joins_one_orbit_across_the_slack_boundary(self):
        # Across x = EPS_POINT / 2 the representative jumps to the image
        # (0.6, -x, 0.8, 0): 1.6 away, yet the same orbit (distance 2e-13).
        s = make_space("C2", "sp1")
        above = project(s, Quaternion(0.6, 5.001e-10, -0.8, 0.0))
        below = project(s, Quaternion(0.6, 4.999e-10, -0.8, 0.0))
        assert math.dist(above.rep, below.rep) > 1.5
        assert orbit_distance(above, below) < 1e-12
        ((_, count),) = grouped_orbits([above, below])
        assert count == 2

    @pytest.mark.parametrize("base", ["sp1", "so3"])
    @pytest.mark.parametrize("label", ["C2", "D3", "T", "O"])
    def test_grouping_orders_values_near_half_way_as_rounded_key(
        self, label, base, rng
    ):
        # every coordinate within 3 ulps of a half-way point at the 12th
        # decimal, where np.round alone can round otherwise
        s = make_space(label, base)
        a, b = (project(s, Quaternion(*q)) for q in random_units(rng, 2).tolist())
        for x, y in ((a, b), (project(s, QI), a), (identity_orbit(s), b)):
            values = Orbits(s, near_half_way(rng, orbit_product(x, y).reps))
            got = [(o.rep, m) for o, m in grouped_orbits(values)]
            assert got == [(o.rep, m) for o, m in grouped_orbits_oracle(values)]

    @pytest.mark.parametrize("base", ["sp1", "so3"])
    @pytest.mark.parametrize("label", ["C1000", "D500", "I"])
    def test_grouping_equals_the_oracle_on_large_products(
        self, label, base, rng, monkeypatch
    ):
        # The first pair gives values of pairwise equal |w| on C1000 and
        # D500, so most of them are measured against a group, by the
        # one-pair distance; the oracle measures by the batched kernel.
        s = make_space(label, base)
        calls = []
        distance = coset._distance
        monkeypatch.setattr(
            coset, "_distance", lambda *args: calls.append(1) or distance(*args)
        )
        a, b = random_units(rng, 2)
        for p, q in (((0.6, 0.8, 0.0, 0.0), (0.0, 0.0, 0.6, 0.8)), (a, b)):
            x, y = project(s, Quaternion(*p)), project(s, Quaternion(*q))
            product = orbit_product(x, y)
            for values in (product, Orbits(s, near_half_way(rng, product.reps))):
                got = [(o.rep, m) for o, m in grouped_orbits(values)]
                assert got == [(o.rep, m) for o, m in grouped_orbits_oracle(values)]
        assert calls

    @pytest.mark.parametrize("sign", [1.0, -1.0])
    def test_grouping_joins_the_first_group_across_bins(self, sign):
        # On C1 the orbit distance is the plain distance.  a and c are two
        # groups (1.22 EPS_POINT apart) on either side of an edge of the
        # |w| bins; b, last in rounded order, lies within EPS_POINT of both
        # and joins a, the first of them, whichever bin holds it.
        s = make_space("C1", "sp1")
        e = EPS_POINT
        levels = 0.5 + np.array([-0.1, 0.1, 0.2]) * sign * e
        a, c, b = (
            Orbit(s, Quaternion(sign * w, x, 0.8, 0.0))
            for w, x in zip(levels, (-0.6 * e, 0.6 * e, 0.0))
        )
        bins = [abs(o.rep.w) // (4.0 * e) for o in (a, c)]
        assert abs(bins[0] - bins[1]) == 1
        grouped = grouped_orbits([b, c, a])
        assert [(o.rep, m) for o, m in grouped] == [(a.rep, 2), (c.rep, 1)]

    def test_grouping_keeps_non_finite_values_apart(self, rng):
        # each forms a group of its own, and the finite values group alone
        s = make_space("O", "so3")
        x, y = random_point(s, rng), random_point(s, rng)
        reps = orbit_product(x, y).reps.copy()
        reps[[3, 7]] = np.nan
        reps[[5, 11], 0] = np.inf
        grouped = [(o.rep, m) for o, m in grouped_orbits(Orbits(s, reps))]
        finite = Orbits(s, reps[np.isfinite(reps[:, 0])])
        assert [g for g in grouped if math.isfinite(g[0].w)] == [
            (o.rep, m) for o, m in grouped_orbits(finite)
        ]
        assert [m for q, m in grouped if not math.isfinite(q.w)] == [1] * 4

    def test_grouping_keeps_distinct_orbits_of_equal_abs_w_apart(self):
        s = make_space("C3", "so3")
        x = project(s, Quaternion(0.6, 0.8, 0.0, 0.0))
        y = project(s, Quaternion(-0.6, 0.0, 0.0, 0.8))
        assert abs(x.rep.w) == abs(y.rep.w)
        assert [m for _, m in grouped_orbits([x, y])] == [1, 1]


class TestRealPartGap:
    @pytest.mark.parametrize("base", ["sp1", "so3"])
    @pytest.mark.parametrize("label", ["C2", "D3", "T", "O", "I"])
    def test_orbit_images_in_any_order_keep_the_real_parts(self, label, base, rng):
        # No false alarm: each raw product value moved to a random image of
        # its orbit, lift sign included on so3, and the rows shuffled; so
        # neither the real-part gap nor the matching rejects them.
        s = make_space(label, base)
        a, b = random_units(rng, 8).reshape(2, 4, 4)
        values = coset._raw_product(s, a, b)
        images = s.canon_images(values.reshape(-1, 4))
        pick = rng.integers(images.shape[1], size=len(images))
        moved = images[np.arange(len(images)), pick].reshape(values.shape)
        moved = np.stack([rng.permutation(rows) for rows in moved])
        dev = coset._match(s, values, moved, 1e-6)
        assert dev.shape == (4,)
        assert dev.max() <= 1e-15

    @pytest.mark.parametrize("base", ["sp1", "so3"])
    @pytest.mark.parametrize("label", ["C3", "I"])
    def test_raw_values_have_the_real_parts_of_their_representatives(
        self, label, base, rng
    ):
        # bit for bit, on the singular set too
        s = make_space(label, base)
        a, b = random_units(rng, 6).reshape(2, 3, 4)
        values = np.concatenate(
            [coset._raw_product(s, a, b).reshape(-1, 4), singular_points(s, rng)]
        )
        w = _canonical(s, values)[:, 0]
        want = np.abs(w) if s.base is Base.SO3 else w
        assert np.array_equal(coset._real_parts(s, values), want)

    def test_representative_jump_reads_no_gap(self):
        s = make_space("C2", "sp1")
        above = project(s, Quaternion(0.6, 5.001e-10, -0.8, 0.0))
        below = project(s, Quaternion(0.6, 4.999e-10, -0.8, 0.0))
        dev = coset._match(s, np.array([[above.rep]]), np.array([[below.rep]]), 1e-6)
        assert dev <= 1e-12


def count_swept_rows(monkeypatch):
    """Record how many rows each coset._distances call sweeps."""
    swept = []
    distances = coset._distances

    def counting(space, points, values):
        swept.append(len(values))
        return distances(space, points, values)

    monkeypatch.setattr(coset, "_distances", counting)
    return swept


@pytest.mark.parametrize("base", ["sp1", "so3"])
def test_identity_distance_matches_the_orbit_sweep(base, rng):
    s = make_space("O", base)
    e = np.array(tuple(ONE))
    step = np.array([[math.cos(1e-10), math.sin(1e-10), 0.0, 0.0]])
    values = np.concatenate(
        [random_units(rng, 200), [e, -e], step, -step, step * [1, -1, 1, 1]]
    )
    closed = coset._distances_to_identity(s, values)
    assert np.abs(closed - coset._distances(s, e, values)).max() <= 1e-15


@pytest.mark.parametrize("seed", [0, 1, 7])
@pytest.mark.parametrize("count", [1, 5, 40])
def test_batched_draw_matches_successive_random_points(seed, count):
    # each point of one draw, canonicalized as one row, is the point of one
    # random_point call; the batch canonicalizes the same points (a batch
    # sweep may differ from a one-row sweep in the last bits)
    s = make_space("T", "so3")
    batch_rng, single_rng = np.random.default_rng(seed), np.random.default_rng(seed)
    points = random_units(batch_rng, count)
    singles = [random_point(s, single_rng).rep for _ in range(count)]
    assert np.array_equal([_canonical(s, row[None])[0] for row in points], singles)
    assert batch_rng.bit_generator.state == single_rng.bit_generator.state
    batch = coset._sample(s, np.random.default_rng(seed), count)
    assert np.abs(batch - singles).max() <= 1e-15


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
