"""Antipodal equation, suspension structure, branching data, classification."""

import math

import numpy as np
import pytest

from nvalued.coset import Base
from nvalued.quaternion import (
    ONE,
    QI,
    QJ,
    QK,
    Quaternion,
    conj_action,
    conj_matrix,
    qdist,
    qmul,
    random_units,
)
from nvalued.rotgroups import GroupSpec, build_group, catalog, has_half_turn
from nvalued.topology import (
    MAX_SAMPLES,
    ConsistencyFailure,
    IdentityViolation,
    check_suspension,
    classify,
    riemann_hurwitz_check,
    singular_orbits,
    solve_antipodal,
    tau_has_fixed_points,
)

EXPECTED_SIGNATURES = {
    "C2": (2, 2), "C3": (3, 3), "C4": (4, 4), "C5": (5, 5),
    "C6": (6, 6), "C7": (7, 7), "C8": (8, 8),
    "D1": (2, 2), "D2": (2, 2, 2), "D3": (2, 2, 3), "D4": (2, 2, 4),
    "D5": (2, 2, 5), "D6": (2, 2, 6),
    "T": (2, 3, 3), "O": (2, 3, 4), "I": (2, 3, 5),
}


class TestAntipodal:
    def test_half_turn_about_z(self):
        sol = solve_antipodal(QK)
        assert sol.solvable
        assert abs(sol.axis.z) == pytest.approx(1.0)
        # i and j sit on the solution circle
        assert qdist(conj_action(QK, QI), -QI) < 1e-15
        assert qdist(conj_action(QK, QJ), -QJ) < 1e-15

    def test_identity_unsolvable(self):
        sol = solve_antipodal(ONE)
        assert not sol.solvable
        with pytest.raises(ValueError):
            sol.solution_circle()

    def test_third_turn_unsolvable(self):
        gen = build_group(GroupSpec.parse("C3")).elements
        q = next(g for g in gen if abs(g.w - math.cos(math.pi / 3)) < 1e-9)
        assert not solve_antipodal(q).solvable

    def test_circle_solutions_satisfy_equation(self):
        for q in (QK, QI, qmul(QI, QJ)):
            sol = solve_antipodal(q)
            assert sol.solvable
            for x in sol.solution_circle():
                residual = qdist(conj_action(q, x), -x)
                assert residual < 1e-9
                assert abs(x.norm() - 1.0) < 1e-12
                assert x.w == 0.0

    def test_near_half_turn_grid_has_no_solution(self):
        # rotation by 3/4 pi: closest non-half-turn angle in the catalog
        q = Quaternion(math.cos(3 * math.pi / 8), 0, 0, math.sin(3 * math.pi / 8))
        grid = _imaginary_grid(2000)
        res = grid @ conj_matrix(q).T + grid
        assert float(np.sqrt((res * res).sum(axis=1)).min()) > 1e-1


def _imaginary_grid(m: int) -> np.ndarray:
    k = np.arange(m)
    golden = (1 + 5**0.5) / 2
    z = 1 - 2 * (k + 0.5) / m
    r = np.sqrt(1 - z * z)
    theta = 2 * np.pi * k / golden
    return np.stack(
        [np.zeros(m), r * np.cos(theta), r * np.sin(theta), z], axis=1
    )


@pytest.mark.parametrize("spec", catalog(), ids=lambda s: s.label)
def test_parity_tri_consistency(spec):
    g = build_group(spec)
    even = len(g) % 2 == 0
    assert tau_has_fixed_points(g) == even
    assert has_half_turn(g) == even


class TestSuspension:
    @pytest.mark.parametrize("label", ["C1", "C5", "D4", "T", "I"])
    def test_real_part_preserved(self, label):
        rep = check_suspension(build_group(GroupSpec.parse(label)), samples=300)
        assert rep.passed
        assert rep.max_deviation < 1e-12
        assert rep.poles_fixed

    def test_left_multiplication_is_not_re_preserving(self):
        # the control: translation, unlike conjugation, moves the real part
        x = Quaternion(0.3, 0.1, -0.2, 0.5).normalized()
        assert abs(qmul(QK, x).w - x.w) > 0.1

    @pytest.mark.parametrize("spec", catalog(), ids=str)
    def test_deviation_equals_full_image_tensor(self, spec):
        # the real-part row alone gives bit for bit the deviation of the
        # full conjugation images of the same points
        g = build_group(spec)
        points = random_units(np.random.default_rng(0), 1000)
        poles = np.array([(1.0, 0.0, 0.0, 0.0), (-1.0, 0.0, 0.0, 0.0)])
        mats = conj_matrix(g.element_rows)
        images = np.einsum("kij,mj->mki", mats, points)
        dev = float(np.abs(images[:, :, 0] - points[:, None, 0]).max())
        pole_images = np.einsum("kij,mj->mki", mats, poles)
        pole_dev = float(np.abs(pole_images - poles[:, None, :]).max())
        assert check_suspension(g, 1000, 0).max_deviation == max(dev, pole_dev)

    def test_deterministic_in_seed(self):
        g = build_group(GroupSpec.parse("D3"))
        a = check_suspension(g, samples=100, seed=9)
        b = check_suspension(g, samples=100, seed=9)
        assert a == b


@pytest.mark.parametrize("samples", [0, -3])
def test_suspension_needs_a_sample(samples):
    spec = GroupSpec.parse("C3")
    with pytest.raises(ValueError, match="at least one sample"):
        check_suspension(build_group(spec), samples=samples)
    with pytest.raises(ValueError, match="at least one sample"):
        classify(Base.SO3, spec, samples=samples)


def test_suspension_caps_the_sample_count():
    # the cap bounds the (samples x order) array; C3 keeps the refused
    # call small should the cap be missing
    spec = GroupSpec.parse("C3")
    with pytest.raises(ValueError, match=f"at most {MAX_SAMPLES}"):
        check_suspension(build_group(spec), samples=MAX_SAMPLES + 1)
    with pytest.raises(ValueError, match=f"at most {MAX_SAMPLES}"):
        classify(Base.SO3, spec, samples=MAX_SAMPLES + 1)
    report = check_suspension(build_group(GroupSpec.parse("C1")), samples=MAX_SAMPLES)
    assert report.samples == MAX_SAMPLES and report.passed


@pytest.mark.parametrize("label", [s.label for s in catalog()] + ["C1000", "D500"])
def test_tau_scan_of_the_elements_agrees_with_the_full_cover(label):
    g = build_group(GroupSpec.parse(label))
    for q in g.elements:
        assert solve_antipodal(-q) == solve_antipodal(q)
    cover_scan = any(solve_antipodal(q).solvable for q in g.cover)
    assert tau_has_fixed_points(g) == cover_scan


class TestSingularOrbits:
    def test_trivial_group_has_none(self):
        data = singular_orbits(build_group(GroupSpec.parse("C1")))
        assert data.orbits == ()
        assert data.signature == ()

    @pytest.mark.parametrize(
        "label, sig",
        [*EXPECTED_SIGNATURES.items(), ("C100", (100, 100)), ("D100", (2, 2, 100))],
    )
    def test_signatures_match_classical_table(self, label, sig):
        data = singular_orbits(build_group(GroupSpec.parse(label)))
        assert data.signature == sig

    def test_cyclic_orbits_are_poles(self):
        data = singular_orbits(build_group(GroupSpec.parse("C4")))
        points = sorted(p.z for o in data.orbits for p in o.points)
        assert points == pytest.approx([-1.0, 1.0])

    def test_orbit_stabilizer_identity(self):
        for label in ("D3", "O"):
            group = build_group(GroupSpec.parse(label))
            for orbit in singular_orbits(group).orbits:
                assert len(orbit.points) * orbit.stabilizer_order == len(group)

    @pytest.mark.parametrize("spec", catalog(), ids=lambda s: s.label)
    def test_branching_identity(self, spec):
        assert riemann_hurwitz_check(build_group(spec))

    def test_branching_identity_rejects_fake_data(self):
        # moving one in-plane half-turn off its axis breaks the orbit
        # structure of the axis points, which the audit must notice
        from nvalued.axioms import corrupted_copy

        bad = corrupted_copy(build_group(GroupSpec.parse("D3")), extra_angle=0.37)
        with pytest.raises(IdentityViolation, match="stabilizer orders differ"):
            riemann_hurwitz_check(bad)


class TestClassify:
    EVEN = ["C2", "C4", "C6", "C8", "D1", "D2", "D3", "D4", "D5", "D6", "T", "O", "I"]
    ODD = ["C1", "C3", "C5", "C7"]

    @pytest.mark.parametrize("label", EVEN)
    def test_so3_even_orders_give_sphere(self, label):
        r = classify(Base.SO3, GroupSpec.parse(label), samples=200)
        assert r.predicted_space == "S3"
        assert r.parity == "even"
        assert r.tau_fixed_points

    @pytest.mark.parametrize("label", ODD)
    def test_so3_odd_orders_give_projective_space(self, label):
        r = classify(Base.SO3, GroupSpec.parse(label), samples=200)
        assert r.predicted_space == "RP3"
        assert r.parity == "odd"
        assert not r.tau_fixed_points

    @pytest.mark.parametrize("label", ["C1", "C3", "D2", "O", "I"])
    def test_sp1_always_sphere(self, label):
        r = classify(Base.SP1, GroupSpec.parse(label), samples=200)
        assert r.predicted_space == "S3"

    def test_evidence_and_json_schema(self):
        r = classify(Base.SO3, GroupSpec.parse("D3"), samples=200)
        assert r.evidence.suspension
        assert r.evidence.riemann_hurwitz
        assert r.evidence.parity_consistent
        d = r.to_json_dict()
        assert set(d) == {
            "base", "family", "n", "parity", "tau_fixed_points",
            "predicted_space", "evidence",
        }
        assert set(d["evidence"]) == {
            "suspension", "riemann_hurwitz", "parity_consistent",
        }
        assert d["base"] == "so3" and d["family"] == "D3" and d["n"] == 6

    def test_consistency_failure_on_parity_disagreement(self, monkeypatch):
        import nvalued.topology as topo

        monkeypatch.setattr(topo, "has_half_turn", lambda g: False)
        with pytest.raises(ConsistencyFailure):
            classify(Base.SO3, GroupSpec.parse("C2"), samples=10)
