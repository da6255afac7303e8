"""A fixed list of source mutants and the tests that must kill them.

    python tests/mutants.py            # every mutant
    python tests/mutants.py NAME ...   # the named ones

Each mutant is one exact text edit of a file of the package.  The script
copies `src/`, `tests/`, `pyproject.toml` and `README.md` of this checkout
to a temporary directory and first runs the tests of every chosen mutant
on the unedited copy, where they must pass, so that a kill is the edit's
doing.  Then, for each mutant, it applies the edit to a fresh copy, runs
the mutant's tests there with pytest and prints `killed` when every one
of them fails or `survived` when none does; a mutant that only some of
them catch is printed with the ones that passed and is not killed.  An
edit whose old text is not in its file exactly once is refused, so that
no mutant passes by testing nothing.  The exit status is 0 only when
every chosen mutant is killed.

pytest does not collect this file: its name does not start with `test_`.
A change to a kernel adds the mutants of that kernel here.
"""

from __future__ import annotations

import os
import shutil
import subprocess
import sys
import tempfile
from pathlib import Path
from typing import NamedTuple

ROOT = Path(__file__).resolve().parents[1]
SKIP = shutil.ignore_patterns("__pycache__", ".hypothesis", ".pytest_cache")


class Mutant(NamedTuple):
    name: str
    path: str  # relative to the root of the checkout
    old: str
    new: str
    tests: tuple[str, ...]  # pytest ids, each of which must fail


def ids(file: str, *tests: str) -> tuple[str, ...]:
    """The pytest ids of `tests` in tests/`file`."""
    return tuple(f"tests/{file}::{t}" for t in tests)


MUTANTS = [
    Mutant(
        "rounded-order-warns-on-inf",
        "src/nvalued/quaternion.py",
        """\
    # an infinite coordinate gives inf - inf = NaN here: near no half-way point
    with np.errstate(invalid="ignore"):
        near = np.abs(np.abs(rows - keys) - _HALF_WAY) <= _HALF_WAY_MARGIN
""",
        """\
    near = np.abs(np.abs(rows - keys) - _HALF_WAY) <= _HALF_WAY_MARGIN
""",
        ids("test_coset.py", "TestMultisets::test_grouping_keeps_non_finite_values_apart")
        + ids("test_quaternion.py", "test_rounded_order_puts_infinite_and_nan_rows_in_place"),
    ),
    Mutant(
        "grouping-one-bin",
        "src/nvalued/coset.py",
        "for d in (-1, 0, 1)",
        "for d in (0,)",
        ids(
            "test_coset.py",
            "TestMultisets::test_grouping_equals_the_oracle_on_large_products[I-sp1]",
            "TestMultisets::test_grouping_equals_the_oracle_on_large_products[I-so3]",
            "TestMultisets::test_grouping_joins_the_first_group_across_bins[1.0]",
            "TestMultisets::test_grouping_joins_the_first_group_across_bins[-1.0]",
        ),
    ),
    Mutant(
        "run-trials-fixed-blocks",
        "src/nvalued/axioms.py",
        """\
            np.asarray(block_fn(rng, b.stop - b.start), dtype=float)
            for b in _blocks(trials, BLOCK_VALUES // values_per_trial)
""",
        """\
            np.asarray(block_fn(rng, min(size, trials - start)), dtype=float)
            for size in [max(1, BLOCK_VALUES // values_per_trial)]
            for start in range(0, trials, size)
""",
        ids(
            "test_axioms.py",
            "test_run_trials_hands_block_fn_the_blocks[33-2048]",
            "test_run_trials_hands_block_fn_the_blocks[200-2000]",
        ),
    ),
    Mutant(
        "table-identity-per-row",
        "src/nvalued/rotgroups.py",
        """\
        step = np.arange(n)
        for cells in (mul + step[:, None] * n, mul * n + step):
            hit = np.zeros(n * n, dtype=bool)
            hit[cells.ravel()] = True
            if not hit.all():
                return None
        return mul, (mul == self.identity_index).argmax(axis=1)
""",
        """\
        is_identity = mul == self.identity_index
        if not is_identity.any(axis=1).all():
            return None
        return mul, is_identity.argmax(axis=1)
""",
        ids(
            "test_axioms.py",
            *(
                f"test_a_duplicated_row_gets_no_table_and_fails_by_matching[{case}]"
                for case in ("C3-sp1", "C3-so3", "T-sp1", "T-so3")
            ),
        ),
    ),
    Mutant(
        "match-multisets-any-tol",
        "src/nvalued/coset.py",
        """\
    if not 0.0 < tol < MAX_TOL:
        raise ValueError(f"tolerance must be > 0 and < sqrt(2), got {tol!r}")
    if len(a) != len(b):
""",
        """\
    if len(a) != len(b):
""",
        ids(
            "test_coset.py",
            *(
                f"TestMultisets::test_a_tolerance_that_tests_nothing_raises[{tol}]"
                for tol in ("inf", "nan", "0.0", "-1.0", "1.4142135623730951", "5.0")
            ),
        ),
    ),
    Mutant(
        "canonical-one-lift-sign-at-equator",
        "src/nvalued/coset.py",
        """\
        signed = np.concatenate([signed, -signed], axis=2)
""",
        "",
        ids(
            "test_coset.py",
            *(
                f"TestLexmax::test_equator_rows_and_their_witnesses[{label}]"
                for label in ("C2", "D3", "T", "O")
            ),
        ),
    ),
    Mutant(
        "lexmax-slack-sign",
        "src/nvalued/coset.py",
        "alive = col >= np.maximum.reduce(col, axis=1, keepdims=True) - EPS_POINT",
        "alive = col >= np.maximum.reduce(col, axis=1, keepdims=True) + EPS_POINT",
        ids(
            "test_coset.py",
            "TestProject::test_batch_matches_per_point_reference[C2-sp1]",
            "TestProject::test_batch_matches_per_point_reference[C3-so3]",
        ),
    ),
    Mutant(
        "paired-associativity-no-inverse",
        "src/nvalued/axioms.py",
        "pair = (mul[inv[i], np.arange(n)] * n + i).ravel()",
        "pair = (mul[i, np.arange(n)] * n + i).ravel()",
        ids(
            "test_axioms.py",
            "test_run_all_passes[D3-so3]",
            "test_batched_checks_match_the_per_trial_reference[T-so3]",
            "test_witnessed_pairing_is_exact_up_to_rounding[C3-sp1]",
        ),
    ),
    Mutant(
        "run-trials-nan-passes",
        "src/nvalued/axioms.py",
        "failures=int(np.count_nonzero(~(dev <= tol))),",
        "failures=int(np.count_nonzero(dev > tol)),",
        ids(
            "test_axioms.py",
            "test_non_finite_deviation_is_a_failure[nan]",
            "test_non_finite_deviation_among_finite_ones_is_reported_as_inf",
        ),
    ),
    Mutant(
        "identity-values-raw",
        "src/nvalued/axioms.py",
        "values = _canonical(space, np.concatenate(both, axis=1).reshape(-1, 4))",
        "values = np.concatenate(both, axis=1)",
        ids(
            "test_axioms.py",
            "test_identity_catches_a_canonicalization_that_leaves_the_orbit",
            "test_identity_canonicalizes_all_2n_values_of_a_block_in_one_pass[C3-sp1]",
        ),
    ),
    Mutant(
        "identity-canonicalizes-e-x-only",
        "src/nvalued/axioms.py",
        "values = _canonical(space, np.concatenate(both, axis=1).reshape(-1, 4))",
        """values = np.concatenate(
            [_product(space, e, x).reshape(count, n, 4), both[1]], axis=1
        )""",
        ids(
            "test_axioms.py",
            "test_identity_canonicalizes_all_2n_values_of_a_block_in_one_pass[C3-sp1]",
            "test_identity_in_one_pass_matches_the_two_product_reference[0]",
        ),
    ),
    Mutant(
        "run-trials-any-count",
        "src/nvalued/axioms.py",
        """\
    if not _is_int(trials):
        raise ValueError(f"{axiom} needs an integer trial count, got {trials!r}")
""",
        "",
        ids(
            "test_axioms.py",
            "test_a_trial_count_that_is_not_an_integer_raises[check_identity-True]",
            "test_a_trial_count_that_is_not_an_integer_raises[check_associativity-2.5]",
        ),
    ),
    Mutant(
        "run-trials-uncounted-deviations",
        "src/nvalued/axioms.py",
        """\
    if len(dev) != trials:
        raise RuntimeError(f"{axiom} measured {len(dev)} of {trials} trials")
""",
        "",
        ids(
            "test_axioms.py",
            "test_blocks_that_return_another_number_of_deviations_raise[-1]",
            "test_blocks_that_return_another_number_of_deviations_raise[1]",
        ),
    ),
    Mutant(
        # On so3 the canon family holds -g for every g, so the orbit of -p
        # is the orbit of p, bit for bit: only sp1 spaces see this edit.
        "nearest-adds-the-points",
        "src/nvalued/coset.py",
        "diffs = sweep - points[..., :, None]",
        "diffs = sweep + points[..., :, None]",
        ids(
            "test_coset.py",
            *(
                f"TestOrbitDistance::test_distances_are_the_earlier_formula_bit_for_bit[{label}-sp1]"
                for label in ("C3", "T", "D500")
            ),
        ),
    ),
    Mutant(
        "nearest-reduces-images-first",
        "src/nvalued/coset.py",
        "np.minimum.reduce(np.add.reduce(diffs, axis=1), axis=-1, initial=np.inf)",
        "np.minimum.reduce(np.add.reduce(diffs, axis=-1), axis=1, initial=np.inf)",
        ids(
            "test_coset.py",
            "TestOrbitDistance::test_distances_are_the_earlier_formula_bit_for_bit[I-so3]",
            "TestOrbitDistance::test_distances_are_the_earlier_formula_bit_for_bit[C1000-so3]",
            "TestOrbitDistance::test_orbit_distance_is_the_batched_kernel_bit_for_bit[I-so3]",
        ),
    ),
    Mutant(
        "distance-reduces-images-first",
        "src/nvalued/coset.py",
        "return math.sqrt(np.minimum.reduce(np.add.reduce(sweep), initial=np.inf))",
        "return math.sqrt(np.add.reduce(np.minimum.reduce(sweep, axis=1, initial=np.inf)))",
        ids(
            "test_coset.py",
            "TestOrbitDistance::test_orbit_distance_is_the_batched_kernel_bit_for_bit[I-so3]",
            "TestOrbitDistance::test_orbit_distance_is_the_batched_kernel_bit_for_bit[D500-sp1]",
            "TestOrbitDistance::test_symmetric",
        ),
    ),
    Mutant(
        # On so3 the orbit of -p is the orbit of p: only sp1 spaces see it.
        "distance-adds-the-point",
        "src/nvalued/coset.py",
        "sweep -= np.array(point)[:, None]",
        "sweep += np.array(point)[:, None]",
        ids(
            "test_coset.py",
            *(
                f"TestOrbitDistance::test_orbit_distance_is_the_batched_kernel_bit_for_bit[{label}-sp1]"
                for label in ("C3", "I", "D500")
            ),
            "TestMultisets::test_grouping_joins_the_first_group_across_bins[1.0]",
        ),
    ),
    Mutant(
        # A least over the images with no start value picks a NaN of the
        # other sign than the batched kernel on the few images of C3.
        "distance-least-without-start",
        "src/nvalued/coset.py",
        "return math.sqrt(np.minimum.reduce(np.add.reduce(sweep), initial=np.inf))",
        "return math.sqrt(np.minimum.reduce(np.add.reduce(sweep)))",
        ids(
            "test_coset.py",
            "TestOrbitDistance::test_orbit_distance_is_the_batched_kernel_bit_for_bit[C3-sp1]",
            "TestOrbitDistance::test_orbit_distance_is_the_batched_kernel_bit_for_bit[C3-so3]",
        ),
    ),
    Mutant(
        "identity-max-drops-nan",
        "src/nvalued/axioms.py",
        "return np.reshape(dist, (count, 2 * n)).max(axis=1)",
        "return [max(dist[i : i + 2 * n]) for i in range(0, len(dist), 2 * n)]",
        ids("test_axioms.py", "test_a_nan_distance_fails_its_identity_trial[nan-after]"),
    ),
    Mutant(
        "distance-blocks-sweep-every-point",
        "src/nvalued/coset.py",
        "[_nearest(space, points[b], values[b]) for b in blocks]",
        "[_nearest(space, points, values[b]) for b in blocks]",
        ids(
            "test_coset.py",
            "TestOrbitDistance::test_blocked_distances_equal_one_block[1]",
            "TestOrbitDistance::test_distances_are_the_earlier_formula_bit_for_bit[I-so3]",
            "TestOrbitDistance::test_distances_are_the_earlier_formula_bit_for_bit[C1-sp1]",
        ),
    ),
    Mutant(
        "singular-orbit-points-unsorted",
        "src/nvalued/topology.py",
        "found = found[rounded_order(found)].tolist()",
        "found = found.tolist()",
        ids(
            "test_topology.py",
            *(
                f"TestSingularOrbits::test_orbits_and_their_points_are_in_rounded_key_order[{label}]"
                for label in ("D3", "T", "I", "D500")
            ),
        ),
    ),
    Mutant(
        # only O has orbits whose first points sort otherwise than their
        # stabilizer orders: by first point its nu read 4, 2, 3
        "singular-orbits-by-first-point-only",
        "src/nvalued/topology.py",
        """\
    firsts = np.array([(o.stabilizer_order, *o.points[0]) for o in orbits])
    order = rounded_order(firsts.reshape(-1, 4)).tolist()
""",
        """\
    firsts = np.array([o.points[0] for o in orbits])
    order = rounded_order(firsts.reshape(-1, 3)).tolist()
""",
        ids(
            "test_topology.py",
            "TestSingularOrbits::test_orbits_and_their_points_are_in_rounded_key_order[O]",
        ),
    ),
    Mutant(
        "seed-accepts-a-bool",
        "src/nvalued/axioms.py",
        "if not _is_int(seed) or seed < 0:",
        "if not isinstance(seed, (int, np.integer)) or seed < 0:",
        ids(
            "test_axioms.py",
            "test_a_seed_that_is_not_a_non_negative_integer_raises[check_identity-True]",
            "test_a_seed_that_is_not_a_non_negative_integer_raises[check_well_defined-True]",
        ),
    ),
    Mutant(
        "corrupted-copy-any-angle",
        "src/nvalued/axioms.py",
        """\
    if not math.isfinite(extra_angle):
        raise ValueError(f"extra_angle must be finite, got {extra_angle!r}")
""",
        "",
        ids(
            "test_axioms.py",
            "test_a_corrupting_angle_that_is_not_finite_raises[inf]",
            "test_a_corrupting_angle_that_is_not_finite_raises[nan]",
        ),
    ),
    Mutant(
        "orbits-slice-is-orbits",
        "src/nvalued/coset.py",
        "return _orbits(self.space, self.reps[index])",
        "return Orbits(self.space, self.reps[index])",
        ids("test_coset.py", "TestOrbits::test_slices_are_lists"),
    ),
]


def copy_checkout(dest: Path) -> None:
    for name in ("src", "tests"):
        shutil.copytree(ROOT / name, dest / name, ignore=SKIP)
    for name in ("pyproject.toml", "README.md"):
        shutil.copy(ROOT / name, dest)


def run_tests(where: Path, tests) -> tuple[int, set[str]]:
    """pytest's exit status on `tests` in the copy at `where`, which imports
    its own `src`, and the ids of the tests that failed or raised an error."""
    proc = subprocess.run(
        [sys.executable, "-m", "pytest", "-q", "-rfE", "-p", "no:cacheprovider", *tests],
        cwd=where,
        env={**os.environ, "PYTHONPATH": str(where / "src")},
        capture_output=True,
        text=True,
    )
    failed = {
        line.split()[1]
        for line in proc.stdout.splitlines()
        if line.startswith(("FAILED ", "ERROR "))
    }
    return proc.returncode, failed


def verdict(mutant: Mutant, where: Path) -> str:
    """Apply the mutant to the copy at `where` and run its tests there."""
    path = where / mutant.path
    text = path.read_text()
    if text.count(mutant.old) != 1:
        return f"refused: its old text is in {mutant.path} {text.count(mutant.old)} times"
    path.write_text(text.replace(mutant.old, mutant.new))
    code, failed = run_tests(where, mutant.tests)
    if code not in (0, 1):
        return f"error: pytest exited {code}"
    passed = [t for t in mutant.tests if t not in failed]
    if not failed:
        return "survived"
    return f"killed, but these passed: {passed}" if passed else "killed"


def main(argv: list[str]) -> int:
    by_name = {m.name: m for m in MUTANTS}
    unknown = [a for a in argv if a not in by_name]
    if unknown:
        print(f"unknown mutant(s): {', '.join(unknown)}", file=sys.stderr)
        return 2
    chosen = [by_name[a] for a in argv] or MUTANTS
    with tempfile.TemporaryDirectory(prefix="mutants-") as tmp:
        clean = Path(tmp) / "clean"
        copy_checkout(clean)
        code, failed = run_tests(clean, sorted({t for m in chosen for t in m.tests}))
        if code != 0:
            print(f"the unedited copy fails (pytest exited {code}): {sorted(failed)}")
            return 2
        bad = 0
        for m in chosen:
            work = Path(tmp) / m.name
            shutil.copytree(clean, work, ignore=SKIP)
            result = verdict(m, work)
            print(f"{m.name}: {result}", flush=True)
            bad += result != "killed"
            shutil.rmtree(work)
    print(f"{len(chosen) - bad} of {len(chosen)} mutants killed")
    return 1 if bad else 0


if __name__ == "__main__":
    sys.exit(main(sys.argv[1:]))
