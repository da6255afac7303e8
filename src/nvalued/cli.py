"""Command-line interface: enumerate a group, multiply two classes, run
the axiom verification suites, or classify a quotient.  The CLI parses,
dispatches and prints; the library decides the rest, such as which values
of a product are one orbit.

All output is deterministic for fixed flags: seeds default to 0, floats are
rounded to 12 digits, JSON keys are sorted, and nothing time- or
host-dependent is ever printed.  Exit codes: 0 success, 1 verification or
classification failure, 2 usage errors.
"""

from __future__ import annotations

import argparse
import functools
import json
import math
import os
import sys
from typing import Optional

from .axioms import run_all
from .coset import Base, CosetSpace, grouped_orbits, orbit_product, project
from .quaternion import Quaternion, rounded_key
from .rotgroups import GroupSpec, build_group, catalog, element_order
from .tolerances import MAX_TOL, TOL_AXIOM
from .topology import MAX_SAMPLES, ConsistencyFailure, IdentityViolation, classify

NEAR_UNIT = 1e-3


def _spec_arg(text: str) -> GroupSpec:
    try:
        return GroupSpec.parse(text)
    except ValueError as exc:
        raise argparse.ArgumentTypeError(str(exc))


def _point_arg(text: str) -> Quaternion:
    parts = text.split(",")
    if len(parts) != 4:
        raise argparse.ArgumentTypeError(
            f"expected 4 comma-separated reals, got {text!r}"
        )
    try:
        values = [float(p) for p in parts]
    except ValueError:
        raise argparse.ArgumentTypeError(f"not a numeric quadruple: {text!r}")
    if not all(math.isfinite(v) for v in values):
        raise argparse.ArgumentTypeError(f"coordinates must be finite: {text!r}")
    return Quaternion(*values)


def _integer(text: str, least: int, what: str) -> int:
    try:
        value = int(text)
    except ValueError:
        raise argparse.ArgumentTypeError(f"not an integer: {text!r}")
    if value < least:
        raise argparse.ArgumentTypeError(f"{what} must be >= {least}")
    return value


def _sample_count(text: str) -> int:
    value = _integer(text, 1, "count")
    if value > MAX_SAMPLES:
        raise argparse.ArgumentTypeError(f"at most {MAX_SAMPLES} samples, got {value}")
    return value


def _seed(text: str) -> int:
    # numpy seeds its generators from non-negative integers only
    return _integer(text, 0, "seed")


def _tolerance(text: str) -> float:
    try:
        value = float(text)
    except ValueError:
        raise argparse.ArgumentTypeError(f"not a number: {text!r}")
    if not 0.0 < value < MAX_TOL:
        raise argparse.ArgumentTypeError(f"must be > 0 and < sqrt(2), got {text!r}")
    return value


def _rep_list(q: Quaternion) -> list[float]:
    return list(rounded_key(q))


def _rep_text(q: Quaternion) -> str:
    return "(" + ", ".join(f"{c:+.12f}" for c in _rep_list(q)) + ")"


def _emit_json(payload: dict) -> None:
    print(json.dumps(payload, indent=2, sort_keys=True))


def build_parser() -> argparse.ArgumentParser:
    parser = argparse.ArgumentParser(
        prog="nvalued",
        description="finite rotation-group quotients and their multivalued products",
    )
    sub = parser.add_subparsers(dest="command", required=True)

    def add_command(
        name: str, help: str, run, all_help: Optional[str] = None
    ) -> argparse.ArgumentParser:
        """The subcommand `name` that calls `run`, with the group spec,
        --base and --json.  Given the help text of --all, the spec is
        optional and --all and --seed follow."""
        p = sub.add_parser(name, help=help)
        p.set_defaults(run=run)
        p.add_argument(
            "spec",
            type=_spec_arg,
            nargs="?" if all_help else None,
            help="group label; omit with --all for the whole catalog"
            if all_help
            else "group label: C<n>, D<m>, T, O or I (case-insensitive)",
        )
        p.add_argument(
            "--base",
            choices=[b.value for b in Base],
            default=Base.SP1.value,
            help="which space the group acts on (default sp1)",
        )
        p.add_argument("--json", action="store_true", help="emit JSON")
        if all_help:
            p.add_argument("--all", action="store_true", help=all_help)
            p.add_argument(
                "--seed", type=_seed, default=0, help="PRNG seed, >= 0 (default 0)"
            )
        return p

    add_command("generate", "enumerate a group and its cover", cmd_generate)

    p_mul = add_command("mul", "multiply two classes of a quotient", cmd_mul)
    p_mul.add_argument("point_a", type=_point_arg, help="first point, as w,x,y,z")
    p_mul.add_argument("point_b", type=_point_arg, help="second point, as w,x,y,z")

    p_ver = add_command(
        "verify", "run the axiom verification suites", cmd_verify,
        all_help="whole catalog, both bases",
    )
    # no default base, so that --all can refuse an explicit one
    p_ver.set_defaults(base=None)
    p_ver.add_argument(
        "--samples",
        type=_sample_count,
        default=200,
        help=f"trials for the identity/inverse checks, at most {MAX_SAMPLES} "
        "(default 200)",
    )
    p_ver.add_argument(
        "--triples",
        type=_sample_count,
        default=None,
        help=f"associativity triples, at most {MAX_SAMPLES} "
        "(default 50, or 20 for groups of order >= 60)",
    )
    p_ver.add_argument(
        "--tol",
        type=_tolerance,
        default=TOL_AXIOM,
        help="axiom tolerance, > 0 and < sqrt(2): no two orbits are further "
        f"apart on so3, so a larger one tests nothing (default {TOL_AXIOM})",
    )

    p_cls = add_command(
        "classify", "predict the shape of a quotient", cmd_classify,
        all_help="whole catalog",
    )
    p_cls.add_argument(
        "--samples",
        type=_sample_count,
        default=1000,
        help=f"samples for the real-part check, at most {MAX_SAMPLES} (default 1000)",
    )

    return parser


def cmd_generate(args: argparse.Namespace) -> int:
    group = build_group(args.spec)
    space_label = f"{group.spec.label}@{args.base}"
    orders = [element_order(g, group) for g in group.elements]
    if args.json:
        _emit_json(
            {
                "command": "generate",
                "space": space_label,
                "n": len(group),
                "cover_size": 2 * len(group),
                "elements": [
                    {"rep": _rep_list(g), "order": d}
                    for g, d in zip(group.elements, orders)
                ],
            }
        )
    else:
        print(f"{space_label}: n={len(group)} cover={2 * len(group)}")
        for i, (g, d) in enumerate(zip(group.elements, orders)):
            print(f"  [{i:3d}] {_rep_text(g)}  order {d}")
    return 0


def _load_point(raw: Quaternion, name: str) -> Quaternion:
    norm = raw.norm()
    if norm < 1e-8:
        print(f"error: {name} is the zero quaternion", file=sys.stderr)
        raise SystemExit(2)
    if abs(norm - 1.0) >= NEAR_UNIT:
        print(
            f"error: {name} has norm {norm:.6f}; expected a unit quaternion "
            f"(|norm - 1| < {NEAR_UNIT})",
            file=sys.stderr,
        )
        raise SystemExit(2)
    if abs(norm - 1.0) > 1e-12:
        print(f"note: normalizing {name} (norm {norm:.9f})", file=sys.stderr)
    return raw


def cmd_mul(args: argparse.Namespace) -> int:
    group = build_group(args.spec)
    space = CosetSpace(group, Base(args.base))
    a = project(space, _load_point(args.point_a, "point_a"))
    b = project(space, _load_point(args.point_b, "point_b"))
    values = orbit_product(a, b)
    grouped = grouped_orbits(values)
    if args.json:
        _emit_json(
            {
                "command": "mul",
                "space": space.label,
                "inputs": [_rep_list(a.rep), _rep_list(b.rep)],
                "n": space.n,
                "values": [
                    {"space": space.label, "rep": _rep_list(o.rep), "multiplicity": m}
                    for o, m in grouped
                ],
            }
        )
    else:
        print(f"{space.label}: product of {len(values)} values")
        print(f"  a = {_rep_text(a.rep)}")
        print(f"  b = {_rep_text(b.rep)}")
        for o, m in grouped:
            print(f"  {_rep_text(o.rep)}  x{m}")
    return 0


def _chosen_specs(args: argparse.Namespace) -> list[GroupSpec]:
    """The whole catalog for --all, else the one spec given; exactly one of
    the two (else a usage error, exit 2)."""
    if args.all == (args.spec is not None):
        print("error: give exactly one of a group spec or --all", file=sys.stderr)
        raise SystemExit(2)
    return catalog() if args.all else [args.spec]


def cmd_verify(args: argparse.Namespace) -> int:
    specs = _chosen_specs(args)
    if args.all and args.base is not None:
        print("error: --all runs both bases; drop --base", file=sys.stderr)
        raise SystemExit(2)
    bases = (Base.SP1, Base.SO3) if args.all else (Base(args.base or Base.SP1.value),)
    reports = []
    for spec in specs:
        for base in bases:
            reports.extend(
                run_all(
                    CosetSpace(build_group(spec), base),
                    samples=args.samples,
                    triples=args.triples,
                    seed=args.seed,
                    tol=args.tol,
                )
            )
    all_passed = all(r.passed for r in reports)

    if args.json:
        _emit_json(
            {
                "command": "verify",
                "seed": args.seed,
                "samples": args.samples,
                "triples": args.triples,
                "tolerance": args.tol,
                "passed": all_passed,
                "reports": [r.to_json_dict() for r in reports],
            }
        )
    else:
        for r in reports:
            status = "PASS" if r.passed else "FAIL"
            print(
                f"{r.space:8s} {r.axiom:14s} trials={r.trials:3d} "
                f"failures={r.failures:3d} max_dev={r.max_deviation:.3e} {status}"
            )
        print(f"overall: {'PASS' if all_passed else 'FAIL'}")
    return 0 if all_passed else 1


def cmd_classify(args: argparse.Namespace) -> int:
    specs = _chosen_specs(args)
    base = Base(args.base)
    reports = []
    for spec in specs:
        try:
            reports.append(classify(base, spec, samples=args.samples, seed=args.seed))
        except (ConsistencyFailure, IdentityViolation) as exc:
            print(f"error: {exc}", file=sys.stderr)
            return 1

    ok = all(
        r.evidence.suspension and r.evidence.riemann_hurwitz and
        r.evidence.parity_consistent
        for r in reports
    )
    if args.json:
        payload = [r.to_json_dict() for r in reports]
        _emit_json(
            {
                "command": "classify",
                "seed": args.seed,
                "samples": args.samples,
                "reports": payload,
            }
            if args.all
            else {"command": "classify", "seed": args.seed, "samples": args.samples,
                  **payload[0]}
        )
    else:
        for r in reports:
            print(f"{r.spec.label}@{r.base.value}: {r.predicted_space}")
            print(f"  n={r.n} ({r.parity}), tau fixed points: {r.tau_fixed_points}")
            print(
                f"  evidence: suspension={r.evidence.suspension} "
                f"(max dev {r.suspension_report.max_deviation:.3e}), "
                f"branching identity={r.evidence.riemann_hurwitz}, "
                f"parity consistent={r.evidence.parity_consistent}"
            )
    return 0 if ok else 1


@functools.cache
def _parser() -> argparse.ArgumentParser:
    # Parsing leaves a parser as it was, so one process builds it once.
    return build_parser()


def main(argv: Optional[list[str]] = None) -> int:
    args = _parser().parse_args(argv)
    return args.run(args)


def entry() -> None:
    try:
        code = main(sys.argv[1:])
        sys.stdout.flush()
    except BrokenPipeError:
        # The reader closed the pipe.  Point stdout at devnull, so that the
        # flush at exit cannot raise again.
        os.dup2(os.open(os.devnull, os.O_WRONLY), sys.stdout.fileno())
        sys.exit(1)
    sys.exit(code)


if __name__ == "__main__":
    entry()
