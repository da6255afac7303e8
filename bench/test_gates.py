"""Each correctness gate of the benchmark passes on a right output and fires
on a deliberately wrong one; the tracer reaches names imported with
`from .coset import ...` and puts everything back.

    PYTHONPATH=src python3 -m pytest -q bench
"""

from __future__ import annotations

import dataclasses
import shutil
import subprocess
import sys
from pathlib import Path

import numpy as np
import pytest

HERE = Path(__file__).resolve().parent
sys.path.insert(0, str(HERE.parent / "src"))
sys.path.insert(0, str(HERE))

import nvalued.axioms  # noqa: E402
import nvalued.coset  # noqa: E402
from nvalued.axioms import AxiomReport  # noqa: E402
from nvalued.coset import Base, CosetSpace, orbit_inverse, orbit_product, project  # noqa: E402
from nvalued.quaternion import Quaternion  # noqa: E402
from nvalued.rotgroups import GroupSpec, build_group  # noqa: E402
from nvalued.topology import classify, singular_orbits  # noqa: E402

import run  # noqa: E402
import workloads as wl  # noqa: E402
from tracing import Tracer  # noqa: E402


def report(space="C3@sp1", axiom="associativity", failures=0, dev=1e-15):
    return AxiomReport(space, axiom, 10, failures, dev, 0, 0, 1e-6)


# -- verify-catalog ------------------------------------------------------------


def verify_payload(n_spaces=34, dev=1e-15):
    reports = [
        report(f"S{i}", axiom, dev=dev).to_json_dict()
        for i in range(n_spaces)
        for axiom in nvalued.axioms.AXIOM_NAMES
    ]
    return {"passed": True, "reports": reports}


def test_verify_gate_accepts_a_clean_sweep():
    assert wl.verify_gate(0, verify_payload(), 34) == []


def test_verify_gate_fires_on_a_failing_check():
    payload = verify_payload()
    payload["reports"][5]["passed"] = False
    assert wl.verify_gate(0, payload, 34)


def test_verify_gate_fires_on_missing_reports():
    assert wl.verify_gate(0, verify_payload(n_spaces=33), 34)


def test_verify_gate_fires_on_deviation_over_budget():
    assert wl.verify_gate(0, verify_payload(dev=2e-8), 34)


def test_verify_gate_fires_on_nonzero_exit():
    assert wl.verify_gate(1, verify_payload(), 34)


# -- negative-controls ---------------------------------------------------------


def control_results(missed=False, d1_failures=0, d1_dev=1e-15):
    return [
        wl.ControlResult(0.1, False, report("T@sp1", failures=0 if missed else 10)),
        wl.ControlResult(1e-5, False, report("T@sp1", failures=0)),
        wl.ControlResult(0.1, True, report("D1@so3", failures=d1_failures, dev=d1_dev)),
    ]


def test_controls_gate_accepts_detection_and_a_valid_d1():
    assert wl.controls_gate(control_results()) == []


def test_controls_gate_fires_on_a_missed_corruption():
    assert wl.controls_gate(control_results(missed=True))


def test_controls_gate_fires_when_d1_fails():
    assert wl.controls_gate(control_results(d1_failures=1))


def test_controls_gate_fires_when_d1_deviates():
    assert wl.controls_gate(control_results(d1_dev=1e-7))


# -- product-stream ------------------------------------------------------------


def product_case(label, base, seed=0):
    space = CosetSpace(build_group(GroupSpec.parse(label)), Base(base))
    rng = np.random.default_rng(seed)
    p, q = rng.normal(size=(2, 4))
    p, q = p / np.linalg.norm(p), q / np.linalg.norm(q)
    x = project(space, Quaternion(*p))
    values = orbit_product(x, project(space, Quaternion(*q)))
    return space, p, q, x, values, orbit_inverse(x)


@pytest.mark.parametrize("label,base", [("C3", "sp1"), ("D2", "so3"), ("T", "so3")])
def test_product_gate_accepts_the_library_product(label, base):
    space, p, q, x, values, inv = product_case(label, base)
    assert wl.product_gate(space, values, (p, q, x, inv)) == []


def test_product_gate_fires_on_a_missing_value():
    space, p, q, x, values, inv = product_case("T", "so3")
    assert wl.product_gate(space, values[:-1])


def test_product_gate_fires_on_a_wrong_value():
    space, p, q, x, values, inv = product_case("T", "so3")
    wrong = values[:-1] + [project(space, Quaternion(0.6, 0.8, 0.0, 0.0))]
    assert wl.product_gate(space, wrong, (p, q, x, inv))


def test_product_gate_fires_on_a_wrong_projection_or_inverse():
    space, p, q, x, values, inv = product_case("C3", "sp1")
    assert wl.product_gate(space, values, (p, q, inv, inv))
    assert wl.product_gate(space, values, (p, q, x, x))


# -- large-groups --------------------------------------------------------------


def large_case(label):
    spec = GroupSpec.parse(label)
    group = build_group(spec)
    orders = [nvalued.rotgroups.element_order(g, group) for g in group.elements]
    return spec, orders, classify(Base.SO3, spec, samples=50), singular_orbits(group).signature


@pytest.mark.parametrize("label", ["C5", "C6", "D4"])
def test_large_group_gate_accepts_the_library_output(label):
    assert wl.large_group_gate(*large_case(label)) == []


def test_large_group_gate_fires_on_a_wrong_prediction():
    spec, orders, rep, sig = large_case("C5")
    wrong = dataclasses.replace(rep, predicted_space="S3")
    assert wl.large_group_gate(spec, orders, wrong, sig)


def test_large_group_gate_fires_on_a_wrong_signature():
    spec, orders, rep, sig = large_case("D4")
    assert wl.large_group_gate(spec, orders, rep, (2, 2, 2))


def test_large_group_gate_fires_on_a_failed_branching_identity():
    spec, orders, rep, sig = large_case("D4")
    evidence = dataclasses.replace(rep.evidence, riemann_hurwitz=False)
    assert wl.large_group_gate(spec, orders, dataclasses.replace(rep, evidence=evidence), sig)


def test_large_group_gate_fires_on_an_order_not_dividing():
    spec, orders, rep, sig = large_case("C6")
    assert wl.large_group_gate(spec, orders[:-1] + [4], rep, sig)


def test_large_groups_classify_piece_needs_its_signature():
    spec, orders, rep, sig = large_case("C6")
    workload = wl.LargeGroups()
    workload.setup(0)
    assert workload.check(0, (spec, orders)) == []
    assert workload.check(1, (spec, rep, []))


# -- the measured loop ---------------------------------------------------------


class TwoPieces(wl.Workload):
    name = "two-pieces"

    def __init__(self):
        self.pieces = [("ok", lambda: 1), ("wrong", lambda: 2)]

    def check(self, k, out):
        return [] if out == 1 else [f"piece {k} gave {out}"]


def test_measure_times_each_piece_every_pass_and_counts_failures():
    lat, cal, failed, errors = run.measure(TwoPieces(), seconds=0.0)
    assert [len(t) for t in lat] == [run.MIN_PASSES] * 2
    assert [len(c) for c in cal] == [run.MIN_PASSES] * 2
    assert all(c > 0 for cs in cal for c in cs)
    assert failed == run.MIN_PASSES
    assert errors[0] == "piece 1 gave 2"


# -- tracing and the bare-directory refusal ------------------------------------


def test_tracer_reaches_from_imports_and_restores_them():
    space = CosetSpace(build_group(GroupSpec.parse("C3")), Base.SP1)
    originals = (nvalued.axioms.orbit_distance, nvalued.coset.orbit_distance)
    tracer = Tracer()
    tracer.install()
    try:
        nvalued.axioms.check_identity(space, samples=3)
    finally:
        tracer.uninstall()
    assert (nvalued.axioms.orbit_distance, nvalued.coset.orbit_distance) == originals
    metrics = tracer.layer_metrics(traced_wall=1.0)
    # identity: 2 products of n = 3 values each, one distance per value
    assert metrics["coset.orbit_distance_calls"] == 3 * 2 * 3
    assert metrics["axioms.trials"] == 3
    assert metrics["axioms.identity_s"] > 0


def test_refuses_to_run_without_the_package_source(tmp_path):
    shutil.copy(HERE.parent / "BENCHMARK.json", tmp_path)
    shutil.copytree(HERE, tmp_path / "bench", ignore=shutil.ignore_patterns("__pycache__"))
    proc = subprocess.run(
        [sys.executable, "bench/run.py", "--workload", "product-stream",
         "--seed", "0", "--seconds", "1", "--trace", "0"],
        cwd=tmp_path, capture_output=True, text=True, timeout=60,
    )
    assert proc.returncode != 0
    assert proc.stdout == ""
