"""Acceptance suite: one test per shipping criterion.

Each test pins its own tolerance and time budget and is independent of the
unit tests.  Run with `pytest tests/test_acceptance.py -v` for the one-line
pass/fail summary per criterion.
"""

import math
import subprocess
import sys
import time

import numpy as np

from nvalued.axioms import (
    check_associativity,
    check_well_defined,
    corrupted_copy,
    run_all,
)
from nvalued.coset import Base, CosetSpace
from nvalued.quaternion import Quaternion, conj_matrix, qdist, rotation_of
from nvalued.rotgroups import GroupSpec, build_group, catalog
from nvalued.topology import (
    check_suspension,
    classify,
    has_half_turn,
    riemann_hurwitz_check,
    singular_orbits,
    solve_antipodal,
    tau_has_fixed_points,
)

from .conftest import closure_defect, subprocess_env

CATALOG_ORDERS = {
    "C1": 1, "C2": 2, "C3": 3, "C4": 4, "C5": 5, "C6": 6, "C7": 7, "C8": 8,
    "D1": 2, "D2": 4, "D3": 6, "D4": 8, "D5": 10, "D6": 12,
    "T": 12, "O": 24, "I": 60,
}

EVEN_LABELS = {
    "C2", "C4", "C6", "C8", "D1", "D2", "D3", "D4", "D5", "D6", "T", "O", "I",
}
ODD_LABELS = {"C1", "C3", "C5", "C7"}

SIGNATURE_ORACLE = {
    "C2": (2, 2), "C3": (3, 3), "C4": (4, 4), "C5": (5, 5),
    "C6": (6, 6), "C7": (7, 7), "C8": (8, 8),
    "D1": (2, 2), "D2": (2, 2, 2), "D3": (2, 2, 3), "D4": (2, 2, 4),
    "D5": (2, 2, 5), "D6": (2, 2, 6),
    "T": (2, 3, 3), "O": (2, 3, 4), "I": (2, 3, 5),
}


def test_criterion_1_catalog_integrity():
    build_group.cache_clear()
    start = time.perf_counter()
    groups = {spec.label: build_group(spec) for spec in catalog()}
    elapsed = time.perf_counter() - start

    assert set(groups) == set(CATALOG_ORDERS)
    for label, group in groups.items():
        assert len(group) == CATALOG_ORDERS[label], label
        assert len(group.cover) == 2 * len(group), label
        assert closure_defect(group) < 1e-9, label
    assert elapsed < 5.0, f"catalog build took {elapsed:.2f}s"


def test_criterion_2_hurwitz_oracle():
    h = 0.5
    units = [
        Quaternion(1, 0, 0, 0), Quaternion(0, 1, 0, 0),
        Quaternion(0, 0, 1, 0), Quaternion(0, 0, 0, 1),
    ]
    units += [-q for q in units]
    units += [
        Quaternion(sw * h, sx * h, sy * h, sz * h)
        for sw in (1, -1) for sx in (1, -1) for sy in (1, -1) for sz in (1, -1)
    ]
    assert len(units) == 24

    cover = build_group(GroupSpec.parse("T")).cover
    assert len(cover) == 24
    for u in units:
        assert min(qdist(u, g) for g in cover) < 1e-9
    for g in cover:
        assert min(qdist(u, g) for u in units) < 1e-9


def test_criterion_3_axiom_suite_all_spaces():
    start = time.perf_counter()
    worst = 0.0
    for spec in catalog():
        group = build_group(spec)
        for base in (Base.SP1, Base.SO3):
            space = CosetSpace(group, base)
            for report in run_all(space, samples=200, seed=0, tol=1e-6):
                assert report.failures == 0, (
                    f"{report.space} {report.axiom}: "
                    f"{report.failures} failures, dev {report.max_deviation:.3e}"
                )
                worst = max(worst, report.max_deviation)
    elapsed = time.perf_counter() - start
    assert worst < 1e-8, f"worst matched-pair deviation {worst:.3e}"
    assert elapsed < 60.0, f"axiom suite took {elapsed:.1f}s"


def test_criterion_4_negative_controls():
    for label in ("C3", "D3", "T", "O"):
        group = build_group(GroupSpec.parse(label))
        bad = CosetSpace(corrupted_copy(group, extra_angle=0.1), Base.SP1)
        assoc = check_associativity(bad, triples=10, seed=0)
        welldef = check_well_defined(bad, samples=10, seed=0)
        assert assoc.failures > 0, f"{label}: corruption missed by associativity"
        assert welldef.failures > 0, f"{label}: corruption missed by well-definedness"


def test_criterion_5_parity_classification():
    for spec in catalog():
        group = build_group(spec)
        even = len(group) % 2 == 0
        assert tau_has_fixed_points(group) == even, spec.label
        assert has_half_turn(group) == even, spec.label
        predicted = classify(Base.SO3, spec, samples=100, seed=0).predicted_space
        if spec.label in EVEN_LABELS:
            assert predicted == "S3", spec.label
        else:
            assert spec.label in ODD_LABELS
            assert predicted == "RP3", spec.label


def _imaginary_grid(count: int) -> np.ndarray:
    """Fibonacci-spiral unit imaginary quaternions, as (count, 4) rows."""
    i = np.arange(count, dtype=float)
    z = 1.0 - (2.0 * i + 1.0) / count
    r = np.sqrt(np.clip(1.0 - z * z, 0.0, 1.0))
    phi = i * math.pi * (3.0 - math.sqrt(5.0))
    grid = np.zeros((count, 4))
    grid[:, 1] = r * np.cos(phi)
    grid[:, 2] = r * np.sin(phi)
    grid[:, 3] = z
    return grid


def test_criterion_6_antipodal_equation():
    grid = _imaginary_grid(10_000)
    for spec in catalog():
        for q in build_group(spec).cover:
            _, angle = rotation_of(q)
            sol = solve_antipodal(q)
            conj = np.asarray(conj_matrix(q))
            if sol.solvable:
                assert abs(angle - math.pi) < 1e-6
                for x in sol.solution_circle():
                    vec = np.array([0.0, x.x, x.y, x.z])
                    residual = np.linalg.norm(conj @ vec + vec)
                    assert residual < 1e-9, f"{spec.label}: residual {residual:.3e}"
            else:
                best = np.linalg.norm(grid @ conj.T + grid, axis=1).min()
                assert best > 1e-3, (
                    f"{spec.label}: angle {angle:.4f} lift admits a near-solution "
                    f"({best:.3e})"
                )


def test_criterion_7_suspension_and_branching():
    for spec in catalog():
        group = build_group(spec)
        report = check_suspension(group, samples=1000, seed=0)
        assert report.poles_fixed, spec.label
        assert report.max_deviation < 1e-12, (
            f"{spec.label}: Re-preservation deviation {report.max_deviation:.3e}"
        )
        if len(group) >= 2:
            data = singular_orbits(group)
            assert data.signature == SIGNATURE_ORACLE[spec.label], spec.label
            assert riemann_hurwitz_check(group) is True, spec.label


def test_criterion_8_deterministic_verify():
    cmd = [
        sys.executable, "-m", "nvalued.cli",
        "verify", "--all", "--json", "--seed", "0",
    ]
    env = subprocess_env()
    first = subprocess.run(cmd, env=env, capture_output=True, timeout=120)
    second = subprocess.run(cmd, env=env, capture_output=True, timeout=120)
    assert first.returncode == 0, first.stderr.decode()
    assert second.returncode == 0, second.stderr.decode()
    assert first.stdout == second.stdout
    assert len(first.stdout) > 0
