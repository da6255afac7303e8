"""End-to-end CLI behavior through main(); only the import check starts a
fresh interpreter."""

import json
import subprocess
import sys

import pytest

from nvalued.cli import build_parser, main
from nvalued.topology import MAX_SAMPLES

from .conftest import subprocess_env


def run_cli(argv, capsys):
    try:
        code = main(argv)
    except SystemExit as exc:
        code = exc.code if exc.code is not None else 0
    out, err = capsys.readouterr()
    return code, out, err


def test_generate_text(capsys):
    code, out, _ = run_cli(["generate", "T", "--base", "sp1"], capsys)
    assert code == 0
    assert out.startswith("T@sp1: n=12 cover=24")
    assert out.count("order") == 12


def test_generate_c1(capsys):
    code, out, _ = run_cli(["generate", "C1"], capsys)
    assert code == 0
    assert "n=1 cover=2" in out


def test_generate_json_icosahedral(capsys):
    code, out, _ = run_cli(["generate", "I", "--json"], capsys)
    assert code == 0
    data = json.loads(out)
    assert data["n"] == 60
    assert data["cover_size"] == 120
    assert len(data["elements"]) == 60
    for item in data["elements"]:
        assert len(item["rep"]) == 4
        assert item["order"] in (1, 2, 3, 5)


def test_mul_splits_on_c2(capsys):
    code, out, _ = run_cli(
        ["mul", "C2", "--base", "sp1", "0,1,0,0", "0,0,1,0"], capsys
    )
    assert code == 0
    assert "x1" in out
    assert out.count("x1") == 2


def test_mul_identity_collapses(capsys):
    code, out, _ = run_cli(
        ["mul", "C2", "--base", "sp1", "1,0,0,0", "0,1,0,0"], capsys
    )
    assert code == 0
    assert "x2" in out


def test_mul_single_valued_on_trivial_group(capsys):
    code, out, _ = run_cli(
        ["mul", "C1", "--base", "so3", "0.5,0.5,0.5,0.5", "0,0,1,0", "--json"],
        capsys,
    )
    assert code == 0
    data = json.loads(out)
    assert data["n"] == 1
    assert len(data["values"]) == 1
    assert data["values"][0]["multiplicity"] == 1


def test_mul_rejects_zero_point(capsys):
    code, _, err = run_cli(["mul", "C2", "0,0,0,0", "0,1,0,0"], capsys)
    assert code == 2
    assert "zero quaternion" in err


def test_mul_rejects_far_from_unit(capsys):
    code, _, err = run_cli(["mul", "C2", "2,0,0,0", "0,1,0,0"], capsys)
    assert code == 2
    assert "norm" in err


def test_mul_normalizes_near_unit_with_note(capsys):
    code, out, err = run_cli(["mul", "C2", "1.0000001,0,0,0", "0,1,0,0"], capsys)
    assert code == 0
    assert "normalizing" in err
    assert "x2" in out


def test_mul_rejects_malformed_point(capsys):
    code, _, err = run_cli(["mul", "C2", "1,0,0", "0,1,0,0"], capsys)
    assert code == 2
    assert "4 comma-separated" in err


@pytest.mark.parametrize("point", ["nan,0,0,0", "1,inf,0,0"])
def test_mul_rejects_non_finite_point(capsys, point):
    code, _, err = run_cli(["mul", "C2", point, "1,0,0,0"], capsys)
    assert code == 2
    assert "finite" in err


def test_mul_text_has_no_negative_zero(capsys):
    code, out, _ = run_cli(
        ["mul", "D2", "--base", "sp1", "0.5,0.5,0.5,0.5",
         "0.7071067811865476,0.7071067811865476,0,0"],
        capsys,
    )
    assert code == 0
    assert "+0.000000000000" in out
    assert "-0.000000000000" not in out


def test_bad_spec_is_usage_error(capsys):
    code, _, err = run_cli(["generate", "Q7"], capsys)
    assert code == 2
    assert "cannot parse group spec" in err


@pytest.mark.parametrize("command", ["generate", "classify"])
def test_order_above_limit_is_usage_error(capsys, command):
    code, out, err = run_cli([command, "D501"], capsys)
    assert code == 2
    assert "largest supported order is 1000" in err
    assert out == ""


def test_classify_samples_above_limit_is_usage_error(capsys):
    too_many = str(MAX_SAMPLES + 1)
    code, out, err = run_cli(["classify", "C3", "--samples", too_many], capsys)
    assert code == 2
    assert f"at most {MAX_SAMPLES} samples" in err
    assert out == ""
    args = build_parser().parse_args(["classify", "C3", "--samples", str(MAX_SAMPLES)])
    assert args.samples == MAX_SAMPLES


@pytest.mark.parametrize("flag", ["--samples", "--triples"])
def test_verify_counts_above_limit_are_usage_errors(capsys, flag):
    code, out, err = run_cli(["verify", "C2", flag, str(MAX_SAMPLES + 1)], capsys)
    assert code == 2
    assert f"at most {MAX_SAMPLES} samples" in err
    assert out == ""
    args = build_parser().parse_args(["verify", "C2", flag, str(MAX_SAMPLES)])
    assert vars(args)[flag[2:]] == MAX_SAMPLES


@pytest.mark.parametrize("command", ["verify", "classify"])
def test_negative_seed_is_usage_error(capsys, command):
    # numpy seeds its generators from non-negative integers only
    code, out, err = run_cli([command, "C3", "--seed", "-1"], capsys)
    assert code == 2
    assert "seed must be >= 0" in err
    assert "Traceback" not in err
    assert out == ""
    assert build_parser().parse_args([command, "C3", "--seed", "0"]).seed == 0


def test_cli_runs_without_importing_scipy():
    # scipy backs only the rare matching fallback, so it is imported lazily
    code = (
        "import sys, nvalued.cli\n"
        "assert nvalued.cli.main(['classify', 'D3']) == 0\n"
        "assert 'scipy' not in sys.modules, 'scipy was imported'\n"
    )
    proc = subprocess.run(
        [sys.executable, "-c", code],
        env=subprocess_env(), capture_output=True, text=True, timeout=60,
    )
    assert proc.returncode == 0, proc.stderr


def test_closed_pipe_exits_without_a_traceback():
    # as `nvalued generate C1000 | head -1`: the output overfills the pipe
    proc = subprocess.Popen(
        [sys.executable, "-m", "nvalued.cli", "generate", "C1000"],
        env=subprocess_env(), stdout=subprocess.PIPE, stderr=subprocess.PIPE,
    )
    assert proc.stdout.readline().startswith(b"C1000@sp1: n=1000")
    proc.stdout.close()
    err = proc.stderr.read()
    proc.stderr.close()
    assert proc.wait(timeout=60) == 1
    assert err == b""


def test_verify_single_space(capsys):
    code, out, _ = run_cli(
        ["verify", "C2", "--base", "so3", "--samples", "20", "--triples", "5"],
        capsys,
    )
    assert code == 0
    assert "overall: PASS" in out
    assert out.count("PASS") == 5


def test_verify_json_fields(capsys):
    code, out, _ = run_cli(
        ["verify", "C3", "--json", "--samples", "10", "--triples", "5", "--seed", "3"],
        capsys,
    )
    assert code == 0
    data = json.loads(out)
    assert data["passed"] is True
    assert data["seed"] == 3
    assert len(data["reports"]) == 4
    assert {r["axiom"] for r in data["reports"]} == {
        "identity", "inverse", "associativity", "well_defined",
    }
    assert {r["space"] for r in data["reports"]} == {"C3@sp1"}


def test_verify_rejects_spec_with_all(capsys):
    code, _, err = run_cli(["verify", "C2", "--all"], capsys)
    assert code == 2
    assert "exactly one" in err


@pytest.mark.parametrize("base", ["sp1", "so3"])
def test_verify_all_rejects_a_base(capsys, base):
    # --all runs both bases; a --base beside it would be ignored
    argv = ["verify", "--all", "--base", base, "--samples", "1", "--triples", "1"]
    code, out, err = run_cli(argv, capsys)
    assert code == 2
    assert "--base" in err
    assert out == ""


def test_verify_requires_spec_or_all(capsys):
    code, _, err = run_cli(["verify"], capsys)
    assert code == 2


def test_verify_rejects_bad_counts(capsys):
    code, _, err = run_cli(["verify", "C2", "--samples", "0"], capsys)
    assert code == 2


@pytest.mark.parametrize("tol", ["nan", "inf", "-1", "0", "1.5", "2", "5"])
def test_verify_rejects_bad_tolerance(capsys, tol):
    code, out, err = run_cli(["verify", "C2", f"--tol={tol}"], capsys)
    assert code == 2
    assert "--tol" in err
    assert out == ""


def test_classify_c5_so3(capsys):
    code, out, _ = run_cli(["classify", "C5", "--base", "so3"], capsys)
    assert code == 0
    assert "C5@so3: RP3" in out
    assert "parity consistent=True" in out


def test_classify_d3_so3(capsys):
    code, out, _ = run_cli(["classify", "D3", "--base", "so3"], capsys)
    assert code == 0
    assert "D3@so3: S3" in out


def test_classify_o_sp1_json(capsys):
    code, out, _ = run_cli(["classify", "O", "--base", "sp1", "--json"], capsys)
    assert code == 0
    data = json.loads(out)
    assert data["predicted_space"] == "S3"
    assert data["family"] == "O"
    assert data["evidence"] == {
        "suspension": True,
        "riemann_hurwitz": True,
        "parity_consistent": True,
    }


def test_classify_all_json(capsys):
    code, out, _ = run_cli(
        ["classify", "--all", "--base", "so3", "--json", "--samples", "50"], capsys
    )
    assert code == 0
    data = json.loads(out)
    assert len(data["reports"]) == 17
    spaces = {r["family"]: r["predicted_space"] for r in data["reports"]}
    assert spaces["C3"] == "RP3"
    assert spaces["I"] == "S3"


def test_text_output_deterministic(capsys):
    args = ["verify", "D2", "--samples", "15", "--triples", "5", "--seed", "1"]
    _, out1, _ = run_cli(args, capsys)
    _, out2, _ = run_cli(args, capsys)
    assert out1 == out2


def test_json_output_deterministic(capsys):
    args = ["mul", "T", "--base", "so3", "0,1,0,0", "0.5,0.5,0.5,0.5", "--json"]
    _, out1, _ = run_cli(args, capsys)
    _, out2, _ = run_cli(args, capsys)
    assert out1 == out2
