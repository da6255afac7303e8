"""The randomized axiom suites: green on genuine groups, red on corrupted
ones, reproducible under a fixed seed."""

import math

import numpy as np
import pytest
from hypothesis import given, settings, strategies as st

from nvalued import axioms, coset
from nvalued.axioms import (
    AxiomReport,
    _paired_associativity,
    _paired_well_defined,
    _run_trials,
    _sample,
    check_associativity,
    check_identity,
    check_inverse,
    check_well_defined,
    corrupted_copy,
    default_triples,
    run_all,
)
from nvalued.coset import (
    Base,
    CosetSpace,
    Orbit,
    _match,
    _product,
    _raw_product,
    identity_orbit,
    match_multisets,
    orbit_distance,
    orbit_inverse,
    orbit_product,
    random_point,
)
from nvalued.quaternion import conj_matrix, random_units
from nvalued.rotgroups import GroupSpec, RotationGroup, build_group, catalog
from nvalued.tolerances import TOL_AXIOM

from .conftest import conj_oracle, make_space, product_left, product_right


@pytest.mark.parametrize(
    "label, base",
    [("C1", "sp1"), ("C2", "so3"), ("C5", "sp1"), ("D3", "so3"), ("T", "sp1")],
)
def test_run_all_passes(label, base):
    reports = run_all(make_space(label, base), samples=40, seed=0)
    assert [r.axiom for r in reports] == [
        "identity", "inverse", "associativity", "well_defined",
    ]
    for r in reports:
        assert r.passed, r
        assert r.failures == 0
        assert r.max_deviation < 1e-8


@pytest.mark.parametrize("dev", [math.nan, math.inf])
def test_non_finite_deviation_is_a_failure(dev):
    space = make_space("C2", "sp1")
    report = _run_trials(space, "identity", 3, 0, 1e-6, 1, lambda rng, k: [dev] * k)
    assert report.failures == 3
    assert not report.passed
    assert report.max_deviation == math.inf


def test_non_finite_deviation_among_finite_ones_is_reported_as_inf():
    devs = [1e-16, math.nan, 2e-16]
    space = make_space("C2", "sp1")
    report = _run_trials(space, "identity", 3, 0, 1e-6, 1, lambda rng, k: devs)
    assert report.failures == 1
    assert report.max_deviation == math.inf


def canonical_gap(space, a, b):
    """The gap between the sorted real parts of two (m, 4) arrays of
    canonical representatives: column 0, in absolute value on so3."""
    key = np.abs if space.base is Base.SO3 else np.asarray
    return float(np.abs(np.sort(key(a[:, 0])) - np.sort(key(b[:, 0]))).max())


def gap_or_match(space, a, b, tol):
    """The deviation of one trial on a set without tables, from the
    canonical values of its two sides: their real-part gap when that is
    over tol, else the deviation of _match."""
    gap = canonical_gap(space, a, b)
    return gap if not gap <= tol else _match(space, a, b, tol)[1]


def match_deviation(space, a, b, tol):
    return _match(space, a, b, tol)[1]


def reference_run_all(space, samples, triples, seed, tol=TOL_AXIOM, compare=None):
    """run_all as a loop of one trial at a time on the public functions,
    drawing from the rng in the same order as the batched checks.  The two
    multisets of an associativity or well-definedness trial are compared
    by match_multisets, or by `compare(space, a, b, tol)` on their arrays
    of representatives when it is given."""
    e = identity_orbit(space)

    def multiset_deviation(a, b):
        if compare is None:
            return match_multisets(a, b, tol)[1]
        return compare(space, *(np.array([o.rep for o in v]) for v in (a, b)), tol)

    def identity(rng):
        x = random_point(space, rng)
        entries = orbit_product(e, x) + orbit_product(x, e)
        return max(orbit_distance(x, v) for v in entries)

    def inverse(rng):
        x = random_point(space, rng)
        ix = orbit_inverse(x)
        right = min(orbit_distance(e, v) for v in orbit_product(x, ix))
        left = min(orbit_distance(e, v) for v in orbit_product(ix, x))
        return max(right, left)

    def associativity(rng):
        x, y, z = (random_point(space, rng) for _ in range(3))
        left = [v for xy in orbit_product(x, y) for v in orbit_product(xy, z)]
        right = [v for yz in orbit_product(y, z) for v in orbit_product(x, yz)]
        return multiset_deviation(left, right)

    # One move per point: an index into the n conjugations, and on the
    # rotation base their negatives too, from a stream of its own.
    moves = np.random.default_rng([seed + 3, 1])
    maps = space.n * (2 if space.base is Base.SO3 else 1)

    def well_defined(rng):
        x, y = random_point(space, rng), random_point(space, rng)
        moved = []
        for p in (x, y):
            index = int(moves.integers(maps))
            q = conj_oracle(space.group.elements[index % space.n], p.rep)
            moved.append(Orbit(space, -q if index >= space.n else q))
        return multiset_deviation(orbit_product(x, y), orbit_product(*moved))

    budgets = [
        ("identity", samples, identity),
        ("inverse", samples, inverse),
        ("associativity", triples, associativity),
        ("well_defined", max(1, samples // 2), well_defined),
    ]
    return [
        _run_trials(
            space, axiom, count, seed + k, tol, 1,
            lambda rng, size, fn=fn: [fn(rng) for _ in range(size)],
        )
        for k, (axiom, count, fn) in enumerate(budgets)
    ]


REFERENCE_GROUPS = ["C3", "D2", "T", "O", "I"]


def paired_reference_reports(space, samples, triples, seed, tol=TOL_AXIOM):
    """The associativity and well-definedness reports of reference_run_all
    on a closed group, with each trial's deviation from the paired kernels,
    one trial at a time."""

    def point(rng):
        return np.array([random_point(space, rng).rep])

    def associativity(rng):
        return _paired_associativity(space, point(rng), point(rng), point(rng))[0]

    moves = np.random.default_rng([seed + 3, 1])

    def well_defined(rng):
        p, q = point(rng), point(rng)
        images = space.canon_images(np.concatenate([p, q]))
        chosen = moves.integers(images.shape[1], size=2)
        moved = images[[0, 1], chosen]
        want, got = _raw_product(space, p, q), _raw_product(space, *moved[:, None])
        return _paired_well_defined(space, want, got, chosen[None])[0]

    return [
        _run_trials(
            space, axiom, count, seed + k, tol, 1,
            lambda rng, size, fn=fn: [fn(rng) for _ in range(size)],
        )
        for k, axiom, count, fn in [
            (2, "associativity", triples, associativity),
            (3, "well_defined", max(1, samples // 2), well_defined),
        ]
    ]


def assert_matches_reference(space, samples=12, triples=3, seed=0):
    # Trials and failures are compared with the public functions.  On a
    # closed group, associativity and well-definedness measure the raw
    # values that the table pairs, and match_multisets the sorted
    # canonical ones, so the deviations there are compared with the paired
    # kernels, one trial at a time, instead.  On a set without tables, a
    # trial whose real parts are over tol apart reports that gap, so the
    # deviations are compared with gap_or_match.
    got = run_all(space, samples=samples, triples=triples, seed=seed)
    want = reference_run_all(space, samples, triples, seed)
    if space.group._table is not None:
        want_dev = want[:2] + paired_reference_reports(space, samples, triples, seed)
    else:
        want_dev = reference_run_all(
            space, samples, triples, seed, compare=gap_or_match
        )
    for g, w, d in zip(got, want, want_dev):
        assert (g.axiom, g.trials, g.failures) == (w.axiom, w.trials, w.failures)
        assert (d.axiom, d.trials, d.failures) == (w.axiom, w.trials, w.failures)
        assert abs(g.max_deviation - d.max_deviation) <= 1e-15, (g, d)


@pytest.mark.parametrize("base", ["sp1", "so3"])
@pytest.mark.parametrize("label", REFERENCE_GROUPS)
def test_batched_checks_match_the_per_trial_reference(label, base):
    assert_matches_reference(make_space(label, base))


@pytest.mark.parametrize("base", ["sp1", "so3"])
@pytest.mark.parametrize("label", ["C3", "T"])
def test_small_trial_blocks_match_the_per_trial_reference(monkeypatch, label, base):
    # 40 values: several trials per block with a remainder, or one trial
    monkeypatch.setattr(axioms, "BLOCK_VALUES", 40)
    assert_matches_reference(make_space(label, base), samples=13, triples=5)


@pytest.mark.parametrize("base", [Base.SP1, Base.SO3])
@pytest.mark.parametrize("label", ["C3", "T"])
def test_small_trial_blocks_match_the_reference_on_corrupted_groups(
    monkeypatch, label, base
):
    # where the moves decide the deviations, a block must continue the
    # move stream of the block before it, not restart it
    monkeypatch.setattr(axioms, "BLOCK_VALUES", 40)
    bad = corrupted_copy(build_group(GroupSpec.parse(label)), extra_angle=0.1)
    assert_matches_reference(CosetSpace(bad, base), samples=13, triples=5)


@pytest.mark.parametrize("angle", [0.1, 1e-5])
@pytest.mark.parametrize("label", REFERENCE_GROUPS)
def test_batched_checks_match_the_reference_on_corrupted_groups(label, angle):
    bad = corrupted_copy(build_group(GroupSpec.parse(label)), extra_angle=angle)
    for base in (Base.SP1, Base.SO3):
        assert_matches_reference(CosetSpace(bad, base))


def test_default_triples_shrinks_for_large_groups():
    assert default_triples(make_space("T", "sp1")) == 50
    assert default_triples(make_space("I", "sp1")) == 20


def test_reports_are_reproducible():
    a = check_identity(make_space("D2", "sp1"), samples=30, seed=5)
    b = check_identity(make_space("D2", "sp1"), samples=30, seed=5)
    assert a == b


def test_seed_changes_the_trials():
    a = check_inverse(make_space("D2", "sp1"), samples=30, seed=1)
    b = check_inverse(make_space("D2", "sp1"), samples=30, seed=2)
    assert a.max_deviation != b.max_deviation


def test_report_json_shape():
    r = check_associativity(make_space("C3", "so3"), triples=5, seed=0)
    d = r.to_json_dict()
    assert d["space"] == "C3@so3"
    assert d["axiom"] == "associativity"
    assert d["passed"] is True
    assert set(d) == {
        "space", "axiom", "trials", "failures", "max_deviation",
        "tie_resamples", "seed", "tolerance", "passed",
    }


def test_report_json_writes_a_negative_zero_deviation_as_zero():
    d = AxiomReport("C2@sp1", "inverse", 3, 0, -0.0, 0, 7, 1e-6).to_json_dict()
    assert d == {
        "space": "C2@sp1", "axiom": "inverse", "trials": 3, "failures": 0,
        "max_deviation": 0.0, "tie_resamples": 0, "seed": 7, "tolerance": 1e-6,
        "passed": True,
    }
    assert math.copysign(1.0, d["max_deviation"]) == 1.0


@pytest.mark.parametrize("label", ["C3", "D3", "T", "O"])
def test_corruption_is_detected(label):
    bad = corrupted_copy(build_group(GroupSpec.parse(label)))
    space = CosetSpace(bad, Base.SP1)
    assoc = check_associativity(space, triples=10, seed=0)
    well = check_well_defined(space, samples=10, seed=0)
    assert assoc.failures > 0
    assert well.failures > 0
    assert assoc.max_deviation > 1e-2


# Failures over every corrupted catalog space, at 0.1 and 1e-5 rad on both
# bases, of 2 associativity and 10 well-definedness trials each: 720 per
# seed.  C1 has nothing to corrupt, and D1's corrupted copy is still a
# group.  A change to the sampling or to the matching moves these.
CONTROL_CATCHES = [710, 656, 710, 692, 682, 684, 673, 654, 643, 678]


@pytest.fixture(scope="module")
def corrupted_spaces():
    return [
        CosetSpace(corrupted_copy(build_group(spec), extra_angle=angle), base)
        for spec in catalog()
        if spec.label not in ("C1", "D1")
        for angle in (0.1, 1e-5)
        for base in Base
    ]


@pytest.mark.parametrize("seed", range(len(CONTROL_CATCHES)))
def test_negative_control_catches_are_pinned(corrupted_spaces, seed):
    reports = [
        report
        for space in corrupted_spaces
        for report in (
            check_associativity(space, triples=2, seed=seed),
            check_well_defined(space, samples=10, seed=seed),
        )
    ]
    assert sum(r.trials for r in reports) == 720
    assert sum(r.failures for r in reports) == CONTROL_CATCHES[seed]


def test_a_control_associativity_check_canonicalizes_fewer_than_n_squared_rows(
    monkeypatch,
):
    # Both triples fail on their raw real parts, so only the samples and
    # the values of x y and y z reach the canonicalization kernel.
    space = CosetSpace(corrupted_copy(build_group(GroupSpec.parse("I"))), Base.SO3)
    rows = []
    block = coset._canonical_block
    monkeypatch.setattr(
        coset, "_canonical_block", lambda s, p: rows.append(len(p)) or block(s, p)
    )
    report = check_associativity(space, triples=2, seed=0)
    assert report.failures == 2
    assert 0 < sum(rows) < space.n ** 2


def test_identity_catches_a_canonicalization_that_leaves_the_orbit(monkeypatch):
    # The paired kernels canonicalize only the samples, so the identity
    # check guards canonicalization: it measures each of its 2n canonical
    # values by orbit distance to x.  A kernel that turns its output by a
    # small rotation outside the group moves the values off that orbit.
    half = 1e-3 / 2
    axis = np.array([1.0, 2.0, 3.0]) / math.sqrt(14.0)
    turn = conj_matrix(np.array([[math.cos(half), *(math.sin(half) * axis)]]))[0]
    block = coset._canonical_block
    monkeypatch.setattr(coset, "_canonical_block", lambda s, p: block(s, p) @ turn.T)
    reports = {r.axiom: r for r in run_all(make_space("T", "so3"), samples=20)}
    assert not reports["identity"].passed, reports["identity"]
    assert reports["identity"].max_deviation > 1e-4


def test_corrupted_copy_differs_in_one_element():
    g = build_group(GroupSpec.parse("D3"))
    bad = corrupted_copy(g)
    diffs = [
        i for i, (a, b) in enumerate(zip(g.elements, bad.elements)) if a != b
    ]
    assert len(diffs) == 1
    assert diffs[0] != g.identity_index


def test_trivial_group_cannot_be_corrupted():
    g = build_group(GroupSpec.parse("C1"))
    with pytest.raises(ValueError):
        corrupted_copy(g)


CHECKS = [check_identity, check_inverse, check_associativity, check_well_defined]


@pytest.mark.parametrize("count", [0, -5])
@pytest.mark.parametrize("check", CHECKS)
def test_a_check_without_trials_raises(check, count):
    # a check that ran no trial must not report PASS
    with pytest.raises(ValueError, match="at least one trial"):
        check(make_space("C3", "sp1"), count)


@pytest.mark.parametrize(
    "tol", [0.0, -1e-6, math.sqrt(2.0), 5.0, math.inf, math.nan]
)
@pytest.mark.parametrize("check", CHECKS)
def test_a_tolerance_that_tests_nothing_raises(check, tol):
    # no two orbits are sqrt(2) apart on so3, so such a check would pass
    with pytest.raises(ValueError, match="tolerance"):
        check(make_space("C3", "so3"), tol=tol)


@pytest.mark.parametrize("check", CHECKS)
def test_a_tolerance_just_below_the_bound_runs(check):
    tol = math.nextafter(axioms.MAX_TOL, 0.0)
    report = check(make_space("C3", "so3"), 2, tol=tol)
    assert report.trials == 2
    assert report.passed


@pytest.mark.parametrize(
    "samples, triples, tol",
    [(0, None, TOL_AXIOM), (-3, None, TOL_AXIOM), (10, 0, TOL_AXIOM),
     (0, 0, TOL_AXIOM), (10, 1, 5.0), (10, 1, math.inf)],
)
def test_run_all_that_would_test_nothing_raises(samples, triples, tol):
    with pytest.raises(ValueError):
        run_all(make_space("C3", "sp1"), samples=samples, triples=triples, tol=tol)


def test_inverse_check_sees_a_break_too():
    # the corrupted set is not closed, so even the inverse containment
    # usually drifts; do not assert failure, just that it runs and reports
    bad = corrupted_copy(build_group(GroupSpec.parse("C4")))
    r = check_inverse(CosetSpace(bad, Base.SP1), samples=10, seed=3)
    assert r.trials == 10
    assert r.max_deviation >= 0.0


def with_table(label, base, table):
    """The space of a fresh copy of the group, with `table` as its tables."""
    group = build_group(GroupSpec.parse(label))
    copy = RotationGroup(group.spec, group.element_rows)
    copy._table = table
    return CosetSpace(copy, base)


@pytest.mark.parametrize("base", ["sp1", "so3"])
@pytest.mark.parametrize("label", ["O", "I"])
def test_a_wrong_table_fails_every_trial(label, base):
    mul, inv = build_group(GroupSpec.parse(label))._table
    space = with_table(label, base, (np.roll(mul, 1, axis=1), inv))
    for report in (
        check_associativity(space, triples=5, seed=0),
        check_well_defined(space, samples=5, seed=0),
    ):
        assert report.failures == report.trials == 5, report
        assert report.max_deviation > 0.1


@pytest.mark.parametrize("base", ["sp1", "so3"])
def test_a_pairing_that_is_no_bijection_fails_as_inf(base):
    mul, inv = build_group(GroupSpec.parse("T"))._table
    space = with_table("T", base, (np.zeros_like(mul), inv))
    for report in (
        check_associativity(space, triples=3, seed=0),
        check_well_defined(space, samples=3, seed=0),
    ):
        assert report.failures == report.trials == 3, report
        assert report.max_deviation == math.inf


def generic_reports(
    space, triples, samples, seed, tol=TOL_AXIOM, compare=match_deviation
):
    """check_associativity and check_well_defined computed by canonicalizing
    every value, one block, and comparing the two multisets of each trial
    by `compare(space, a, b, tol)`: `_match` unless another is given."""
    n = space.n

    def associativity(rng, count):
        x, y, z = _sample(space, rng, 3 * count).reshape(count, 3, 4).transpose(1, 0, 2)
        left = product_left(space, x, y, z).reshape(count, n * n, 4)
        right = product_right(space, x, y, z).reshape(count, n * n, 4)
        return [compare(space, a, b, tol) for a, b in zip(left, right)]

    moves = np.random.default_rng([seed, 1])

    def well_defined(rng, count):
        pairs = _sample(space, rng, 2 * count)
        images = space.canon_images(pairs)
        chosen = moves.integers(images.shape[1], size=(count, 2)).ravel()
        moved = images[np.arange(2 * count), chosen]
        want = _product(space, pairs[0::2], pairs[1::2]).reshape(count, n, 4)
        got = _product(space, moved[0::2], moved[1::2]).reshape(count, n, 4)
        return [compare(space, p, q, tol) for p, q in zip(want, got)]

    return [
        _run_trials(space, "associativity", triples, seed, tol, 1, associativity),
        _run_trials(space, "well_defined", samples, seed, tol, 1, well_defined),
    ]


@pytest.mark.parametrize("base", [Base.SP1, Base.SO3])
@pytest.mark.parametrize("angle", [0.1, 1e-5])
@pytest.mark.parametrize("label", ["C3", "T", "I"])
def test_a_set_that_is_not_closed_takes_the_generic_matching(label, angle, base):
    # the verdicts are those of _match on every canonical value; the
    # deviations, those of the real-part gap where it is over tol
    bad = corrupted_copy(build_group(GroupSpec.parse(label)), extra_angle=angle)
    space = CosetSpace(bad, base)
    got = [
        check_associativity(space, triples=4, seed=5),
        check_well_defined(space, samples=10, seed=5),
    ]
    want = generic_reports(space, triples=4, samples=10, seed=5)
    for g, w in zip(got, want):
        assert (g.trials, g.failures) == (w.trials, w.failures)
    assert got == generic_reports(space, 4, 10, 5, compare=gap_or_match)


CATALOG_SPACES = [(s.label, base) for s in catalog() for base in ("sp1", "so3")]


@pytest.mark.parametrize("label, base", CATALOG_SPACES)
@settings(max_examples=4, deadline=None)
@given(seed=st.integers(min_value=0, max_value=2**32 - 1))
def test_witnessed_pairing_is_exact_up_to_rounding(label, base, seed):
    # The table pairs raw values, so both kernels measure rounding alone.
    # A pairing that is no bijection reads inf, so a bound on every
    # deviation also says that each trial was paired one to one.
    space = make_space(label, base)
    rng = np.random.default_rng(seed)
    x, y, z = random_units(rng, 9).reshape(3, 3, 4)
    assert _paired_associativity(space, x, y, z).max() <= 1e-12
    # moves over every map that canon_images sweeps: on so3, lift signs too
    images = [space.canon_images(p) for p in (x, y)]
    moves = rng.integers(images[0].shape[1], size=(3, 2))
    moved = [im[np.arange(3), c] for im, c in zip(images, moves.T)]
    want = _raw_product(space, x, y)
    got = _raw_product(space, *moved)
    assert _paired_well_defined(space, want, got, moves).max() <= 1e-12
