"""The randomized axiom suites: green on genuine groups, red on corrupted
ones, reproducible under a fixed seed."""

import math

import pytest

from nvalued.axioms import (
    _run_trials,
    check_associativity,
    check_identity,
    check_inverse,
    check_well_defined,
    corrupted_copy,
    default_triples,
    run_all,
)
from nvalued.coset import Base, CosetSpace
from nvalued.rotgroups import GroupSpec, build_group

from .conftest import make_space


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
    report = _run_trials(space, "identity", 3, 0, 1e-6, lambda rng: dev)
    assert report.failures == 3
    assert not report.passed


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


@pytest.mark.parametrize("label", ["C3", "D3", "T", "O"])
def test_corruption_is_detected(label):
    bad = corrupted_copy(build_group(GroupSpec.parse(label)))
    space = CosetSpace(bad, Base.SP1)
    assoc = check_associativity(space, triples=10, seed=0)
    well = check_well_defined(space, samples=10, seed=0)
    assert assoc.failures > 0
    assert well.failures > 0
    assert assoc.max_deviation > 1e-2


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


def test_inverse_check_sees_a_break_too():
    # the corrupted set is not closed, so even the inverse containment
    # usually drifts; do not assert failure, just that it runs and reports
    bad = corrupted_copy(build_group(GroupSpec.parse("C4")))
    r = check_inverse(CosetSpace(bad, Base.SP1), samples=10, seed=3)
    assert r.trials == 10
    assert r.max_deviation >= 0.0
