"""Command-line interface: enumerate a group, multiply two classes, run
the axiom verification suites, or classify a quotient.

All output is deterministic for fixed flags: seeds default to 0, floats are
rounded to 12 digits, JSON keys are sorted, and nothing time- or
host-dependent is ever printed.  Exit codes: 0 success, 1 verification or
classification failure, 2 usage errors.
"""

from __future__ import annotations

import argparse
import json
import math
import sys
from typing import Optional

from .axioms import AxiomReport, run_all
from .coset import Base, CosetSpace, Orbit, orbit_distance, orbit_product, project
from .quaternion import Quaternion
from .rotgroups import GroupSpec, build_group, element_order
from .tolerances import EPS_POINT, TOL_AXIOM
from .topology import ConsistencyFailure, IdentityViolation, classify

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


def _positive_int(text: str) -> int:
    try:
        value = int(text)
    except ValueError:
        raise argparse.ArgumentTypeError(f"not an integer: {text!r}")
    if value < 1:
        raise argparse.ArgumentTypeError("count must be >= 1")
    return value


def _positive_float(text: str) -> float:
    try:
        value = float(text)
    except ValueError:
        raise argparse.ArgumentTypeError(f"not a number: {text!r}")
    if not (math.isfinite(value) and value > 0.0):
        raise argparse.ArgumentTypeError(f"must be finite and > 0, got {text!r}")
    return value


def _round12(x: float) -> float:
    return round(x, 12) + 0.0


def _rep_list(q: Quaternion) -> list[float]:
    return [_round12(c) for c in q]


def _rep_text(q: Quaternion) -> str:
    return "(" + ", ".join(f"{c:+.12f}" for c in _rep_list(q)) + ")"


def _grouped(orbits: list[Orbit]) -> list[tuple[Orbit, int]]:
    """Distinct orbits with multiplicities, in deterministic order."""
    groups: list[tuple[Orbit, int]] = []
    for o in sorted(orbits, key=lambda o: _rep_list(o.rep)):
        for i, (rep, count) in enumerate(groups):
            if orbit_distance(rep, o) <= EPS_POINT:
                groups[i] = (rep, count + 1)
                break
        else:
            groups.append((o, 1))
    return groups


def _emit_json(payload: dict) -> None:
    print(json.dumps(payload, indent=2, sort_keys=True))


def build_parser() -> argparse.ArgumentParser:
    parser = argparse.ArgumentParser(
        prog="nvalued",
        description="finite rotation-group quotients and their multivalued products",
    )
    sub = parser.add_subparsers(dest="command", required=True)

    def add_common(p: argparse.ArgumentParser, with_spec: bool = True) -> None:
        if with_spec:
            p.add_argument(
                "spec",
                type=_spec_arg,
                help="group label: C<n>, D<m>, T, O or I (case-insensitive)",
            )
        p.add_argument(
            "--base",
            choices=[b.value for b in Base],
            default=Base.SP1.value,
            help="which space the group acts on (default sp1)",
        )
        p.add_argument("--json", action="store_true", help="emit JSON")

    def add_catalog_spec(p: argparse.ArgumentParser) -> None:
        p.add_argument(
            "spec",
            type=_spec_arg,
            nargs="?",
            help="group label; omit with --all for the whole catalog",
        )
        add_common(p, with_spec=False)

    p_gen = sub.add_parser("generate", help="enumerate a group and its cover")
    add_common(p_gen)

    p_mul = sub.add_parser("mul", help="multiply two classes of a quotient")
    add_common(p_mul)
    p_mul.add_argument("point_a", type=_point_arg, help="first point, as w,x,y,z")
    p_mul.add_argument("point_b", type=_point_arg, help="second point, as w,x,y,z")

    p_ver = sub.add_parser("verify", help="run the axiom verification suites")
    add_catalog_spec(p_ver)
    p_ver.add_argument("--all", action="store_true", help="whole catalog, both bases")
    p_ver.add_argument("--seed", type=int, default=0, help="PRNG seed (default 0)")
    p_ver.add_argument(
        "--samples",
        type=_positive_int,
        default=200,
        help="trials for the identity/inverse checks (default 200)",
    )
    p_ver.add_argument(
        "--triples",
        type=_positive_int,
        default=None,
        help="associativity triples (default 50, or 20 for groups of order >= 60)",
    )
    p_ver.add_argument(
        "--tol",
        type=_positive_float,
        default=TOL_AXIOM,
        help=f"axiom tolerance, finite and > 0 (default {TOL_AXIOM})",
    )

    p_cls = sub.add_parser("classify", help="predict the shape of a quotient")
    add_catalog_spec(p_cls)
    p_cls.add_argument("--all", action="store_true", help="whole catalog")
    p_cls.add_argument("--seed", type=int, default=0, help="PRNG seed (default 0)")
    p_cls.add_argument(
        "--samples",
        type=_positive_int,
        default=1000,
        help="samples for the real-part check (default 1000)",
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
                "cover_size": len(group.cover),
                "elements": [
                    {"rep": _rep_list(g), "order": d}
                    for g, d in zip(group.elements, orders)
                ],
            }
        )
    else:
        print(f"{space_label}: n={len(group)} cover={len(group.cover)}")
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
    return raw.normalized()


def cmd_mul(args: argparse.Namespace) -> int:
    group = build_group(args.spec)
    space = CosetSpace(group, Base(args.base))
    a = project(space, _load_point(args.point_a, "point_a"))
    b = project(space, _load_point(args.point_b, "point_b"))
    values = orbit_product(a, b)
    grouped = _grouped(values)
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


def _verify_one(
    spec: GroupSpec, base: Base, args: argparse.Namespace
) -> list[AxiomReport]:
    space = CosetSpace(build_group(spec), base)
    return run_all(
        space,
        samples=args.samples,
        triples=args.triples,
        seed=args.seed,
        tol=args.tol,
    )


def cmd_verify(args: argparse.Namespace) -> int:
    if args.all == (args.spec is not None):
        print("error: give exactly one of a group spec or --all", file=sys.stderr)
        return 2

    from .rotgroups import catalog

    if args.all:
        targets = [(s, b) for s in catalog() for b in (Base.SP1, Base.SO3)]
    else:
        targets = [(args.spec, Base(args.base))]

    reports: list[AxiomReport] = []
    for spec, base in targets:
        reports.extend(_verify_one(spec, base, args))
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
    if args.all == (args.spec is not None):
        print("error: give exactly one of a group spec or --all", file=sys.stderr)
        return 2

    from .rotgroups import catalog

    specs = catalog() if args.all else [args.spec]
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


def main(argv: Optional[list[str]] = None) -> int:
    parser = build_parser()
    args = parser.parse_args(argv)
    handlers = {
        "generate": cmd_generate,
        "mul": cmd_mul,
        "verify": cmd_verify,
        "classify": cmd_classify,
    }
    return handlers[args.command](args)


def entry() -> None:
    sys.exit(main(sys.argv[1:]))


if __name__ == "__main__":
    entry()
