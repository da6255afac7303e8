"""Group enumeration: orders, covers, closure, element orders, parity."""

import itertools
import math
import re

import numpy as np
import pytest

from nvalued import rotgroups, topology
from nvalued.axioms import corrupted_copy
from nvalued.coset import Base, CosetSpace
from nvalued.quaternion import (
    ONE,
    QI,
    QK,
    Quaternion,
    conj_matrix,
    left_matrix,
)
from nvalued.rotgroups import (
    GOLDEN,
    MAX_ORDER,
    ClosureFailure,
    GroupSpec,
    NotInGroup,
    RotationGroup,
    build_group,
    catalog,
    element_order,
    has_half_turn,
    match_rows,
    same_point,
)
from nvalued.tolerances import EPS_POINT

from .conftest import (
    canonical_sign_oracle,
    closure_defect,
    element_order_oracle,
    index_of_oracle,
    outcome,
    qmul_oracle,
    rotation_oracle,
    sorted_lifts_oracle,
)

CATALOG_ORDERS = {
    "C1": 1, "C2": 2, "C3": 3, "C4": 4, "C5": 5, "C6": 6, "C7": 7, "C8": 8,
    "D1": 2, "D2": 4, "D3": 6, "D4": 8, "D5": 10, "D6": 12,
    "T": 12, "O": 24, "I": 60,
}

# Groups whose element orders and lookups are compared with the oracles.
ORACLE_LABELS = [*CATALOG_ORDERS, "C97", "D100", "C1000", "D500"]


def with_corrupted_copies(label):
    """The group for `label` and, unless it is trivial, its corrupted
    copies at 0.1, 1e-5 and 1e-9 rad."""
    g = build_group(GroupSpec.parse(label))
    if len(g) < 2:
        return [g]
    return [g] + [corrupted_copy(g, extra_angle=a) for a in (0.1, 1e-5, 1e-9)]


def test_catalog_contents():
    labels = [s.label for s in catalog()]
    assert labels == list(CATALOG_ORDERS)


@pytest.mark.parametrize("label, order", CATALOG_ORDERS.items())
def test_orders_and_cover_sizes(label, order):
    g = build_group(GroupSpec.parse(label))
    assert len(g) == order
    assert len(g.cover) == 2 * order
    assert g.spec.order == order


@pytest.mark.parametrize("label", [*CATALOG_ORDERS, "C96", "D54"])
def test_cover_closed_under_product(label):
    g = build_group(GroupSpec.parse(label))
    assert closure_defect(g) < 1e-9


@pytest.mark.parametrize("label", ["C1000", "D500"])
def test_large_cover_is_the_generated_group(label):
    # A set that holds 1 and is mapped into itself by left multiplication
    # with the generators holds the whole group they generate; with 2n
    # distinct rows, the order of that binary group, it is that group.
    # Linear in the cover, where closure_defect is cubic.
    g = build_group(GroupSpec.parse(label))
    n = g.spec.param
    cover = np.array(g.cover)
    gens = [(math.cos(math.pi / n), 0.0, 0.0, math.sin(math.pi / n))]
    if g.spec.family == "D":
        gens.append(tuple(QI))
    for gen in gens:
        moved = cover @ left_matrix(gen).T
        assert (match_rows(cover, moved) >= 0).all()
    assert (match_rows(cover, np.array([ONE])) >= 0).all()
    assert len(cover) == 2 * len(g)
    assert (match_rows(cover, cover) == np.arange(len(cover))).all()


def test_icosahedral_cover_holds_the_odd_permutations_only():
    # the 96 units (+-GOLDEN, +-1, +-1/GOLDEN, 0) / 2 in odd or in even
    # coordinate order: the package's I is the mirror of the usual choice
    cover = np.array(build_group(GroupSpec.parse("I")).cover)
    halves = (GOLDEN / 2.0, 0.5, 1.0 / (2.0 * GOLDEN), 0.0)
    found = {0: 0, 1: 0}
    for perm in itertools.permutations(range(4)):
        parity = sum(a > b for a, b in itertools.combinations(perm, 2)) % 2
        for signs in itertools.product((1.0, -1.0), repeat=3):
            row = np.zeros(4)
            row[list(perm)] = [c * s for c, s in zip(halves, (*signs, 1.0))]
            found[parity] += bool((np.linalg.norm(cover - row, axis=1) <= 1e-12).any())
    assert found == {0: 0, 1: 96}


@pytest.mark.parametrize("label", CATALOG_ORDERS)
def test_inverses_present(label):
    g = build_group(GroupSpec.parse(label))
    for q in g.cover:
        g.index_of(q.conjugate())
        assert any(math.dist(q.conjugate(), c) < 1e-9 for c in g.cover)


def test_c2_cover_is_pm_one_pm_k():
    g = build_group(GroupSpec.parse("C2"))
    expected = [ONE, -ONE, QK, -QK]
    for q in expected:
        assert any(math.dist(q, c) < 1e-12 for c in g.cover)


def test_c1_degenerates_to_identity():
    g = build_group(GroupSpec.parse("C1"))
    assert len(g) == 1
    assert math.dist(g.elements[g.identity_index], ONE) < 1e-15
    assert sorted(round(q.w) for q in g.cover) == [-1, 1]


@pytest.mark.parametrize(
    "text, family, param",
    [
        ("C5", "C", 5),
        ("c5", "C", 5),
        ("d3", "D", 3),
        ("T", "T", None),
        ("o", "O", None),
        (" I ", "I", None),
    ],
)
def test_spec_parsing(text, family, param):
    s = GroupSpec.parse(text)
    assert (s.family, s.param) == (family, param)


@pytest.mark.parametrize(
    "text", ["", "C", "C0", "D-1", "X3", "TT", "C2.5", "C1001", "D501"]
)
def test_spec_parse_rejects(text):
    with pytest.raises(ValueError):
        GroupSpec.parse(text)


def test_spec_validation():
    with pytest.raises(ValueError):
        GroupSpec("C")
    with pytest.raises(ValueError):
        GroupSpec("T", 3)
    with pytest.raises(ValueError):
        GroupSpec("Q", 2)


@pytest.mark.parametrize("param", [2.5, True, "3", np.float64(3.0)])
def test_spec_rejects_a_parameter_that_is_no_integer(param):
    message = re.escape(f"needs an integer parameter >= 1, got {param!r}")
    with pytest.raises(ValueError, match=message):
        GroupSpec("C", param)


def test_spec_takes_python_and_numpy_integers():
    for param in (3, np.int64(3), np.int32(3)):
        spec = GroupSpec("D", param)
        assert (spec.label, spec.order) == ("D3", 6)
        assert len(build_group(spec)) == 6


def test_spec_accepts_order_at_limit():
    assert GroupSpec.parse("D500").order == MAX_ORDER
    assert GroupSpec.parse("C1000").order == MAX_ORDER


class TestElementOrder:
    def test_identity(self):
        g = build_group(GroupSpec.parse("C4"))
        assert element_order(g.elements[g.identity_index], g) == 1

    def test_half_turn(self):
        g = build_group(GroupSpec.parse("C2"))
        half = next(q for i, q in enumerate(g.elements) if i != g.identity_index)
        assert element_order(half, g) == 2

    def test_five_fold_in_icosahedral(self):
        g = build_group(GroupSpec.parse("I"))
        orders = {element_order(q, g) for q in g.elements}
        assert orders == {1, 2, 3, 5}

    def test_not_in_group(self):
        g = build_group(GroupSpec.parse("C2"))
        with pytest.raises(NotInGroup):
            element_order(QI, g)

    @pytest.mark.parametrize("label", ["C5", "D4", "T", "O"])
    def test_angle_is_rational_multiple_of_order(self, label):
        # every rotation angle must be 2 pi k / d for its element order d
        g = build_group(GroupSpec.parse(label))
        for q in g.elements:
            d = element_order(q, g)
            axis, angle = rotation_oracle(q)
            if axis is None:
                assert d == 1
                continue
            k = round(angle * d / (2 * math.pi))
            assert abs(angle - 2 * math.pi * k / d) < 1e-9


def power_chain_order(q, group):
    """The definition: the least d >= 1 with q^d within EPS_POINT of +-1,
    by repeated multiplication."""
    current, d = q, 1
    while math.dist(canonical_sign_oracle(current), ONE) > 1e-9:
        current = qmul_oracle(current, q).normalized()
        d += 1
        assert d <= len(group), "power chain did not return to the identity"
    return d


def euler_phi(n):
    return sum(math.gcd(k, n) == 1 for k in range(1, n + 1))


class TestElementOrderClosedForm:
    @pytest.mark.parametrize("label", [*CATALOG_ORDERS, "C97", "D100"])
    def test_matches_power_chain(self, label):
        g = build_group(GroupSpec.parse(label))
        for q in g.elements:
            assert element_order(q, g) == power_chain_order(q, g)

    @pytest.mark.parametrize("label", ["C1000", "D500"])
    def test_counts_follow_euler_phi(self, label):
        # Cn has phi(d) elements of order d for each d | n; Dm adds m
        # half-turns to its cyclic subgroup Cm.
        g = build_group(GroupSpec.parse(label))
        spec = g.spec
        n = spec.param
        expected = {d: euler_phi(d) for d in range(1, n + 1) if n % d == 0}
        if spec.family == "D":
            expected[2] = expected.get(2, 0) + n
        orders = [element_order(q, g) for q in g.elements]
        assert {d: orders.count(d) for d in set(orders)} == expected

    @pytest.mark.parametrize("label", ORACLE_LABELS)
    def test_matches_the_nearest_fraction(self, label):
        for h in with_corrupted_copies(label):
            for q in h.elements:
                assert outcome(element_order, q, h) == outcome(element_order_oracle, q, h)

    def test_an_order_that_does_not_divide_the_group_order_fails(self):
        # a quarter turn added to the half-turn of C6 leaves order 4, the
        # nearest fraction's denominator, which does not divide 6
        g = corrupted_copy(build_group(GroupSpec.parse("C6")), math.pi / 2)
        bad = g.elements[1 if g.identity_index == 0 else 0]
        assert element_order_oracle(bad, g) == 4
        with pytest.raises(ClosureFailure, match="no order dividing 6"):
            element_order(bad, g)

    def test_corrupted_element_has_no_order(self):
        g = corrupted_copy(build_group(GroupSpec.parse("C5")), 0.1)
        bad = 1 if g.identity_index == 0 else 0
        with pytest.raises(ClosureFailure):
            element_order(g.elements[bad], g)
        for i, q in enumerate(g.elements):
            if i != bad:
                assert element_order(q, g) == power_chain_order(q, g)


@pytest.mark.parametrize("label, order", CATALOG_ORDERS.items())
def test_half_turn_iff_even_order(label, order):
    g = build_group(GroupSpec.parse(label))
    assert has_half_turn(g) == (order % 2 == 0)


def loop_has_half_turn(group):
    """has_half_turn one element at a time, on scalar quaternions."""
    for i, g in enumerate(group.elements):
        if i == group.identity_index:
            continue
        square = qmul_oracle(g, g).normalized()
        if math.dist(canonical_sign_oracle(square), ONE) <= EPS_POINT:
            return True
    return False


def test_half_turn_test_matches_the_per_element_loop():
    specs = catalog() + [GroupSpec("C", n) for n in range(1, 121)]
    specs += [GroupSpec("D", n) for n in range(1, 61)]
    for spec in specs:
        g = build_group(spec)
        groups = [g]
        if len(g) > 1:
            groups += [corrupted_copy(g, extra_angle=a) for a in (0.1, 1e-5)]
        for h in groups:
            assert has_half_turn(h) == loop_has_half_turn(h), spec.label


def test_binary_cover_closed_under_negation():
    g = build_group(GroupSpec.parse("D3"))
    cover = g.cover
    for q in cover:
        assert any(math.dist(-q, c) < 1e-12 for c in cover)


def test_element_ordering_deterministic():
    a = build_group(GroupSpec.parse("O"))
    build_group.cache_clear()
    b = build_group(GroupSpec.parse("O"))
    assert a.elements == b.elements
    assert a.cover == b.cover


def test_closure_failure_on_bad_generators(monkeypatch):
    # a cover whose signs fold to fewer rotations than the group order
    c3 = rotgroups._cover(GroupSpec.parse("C3"))
    monkeypatch.setattr(rotgroups, "_cover", lambda spec: c3)
    with pytest.raises(ClosureFailure):
        build_group.__wrapped__(GroupSpec.parse("C4"))


def test_rows_without_the_identity_raise():
    g = build_group(GroupSpec.parse("C3"))
    rows = np.delete(g.element_rows, g.identity_index, axis=0)
    with pytest.raises(ClosureFailure, match="identity"):
        RotationGroup(GroupSpec.parse("C2"), rows)


@pytest.mark.parametrize("label", ["C1", "D3"])
def test_cover_is_plus_and_minus_the_element_rows(label):
    g = build_group(GroupSpec.parse(label))
    rows = g.element_rows
    cover = np.array(g.cover)
    assert np.array_equal(cover, np.concatenate([rows, -rows]))
    assert not np.signbit(cover[cover == 0.0]).any()


@pytest.mark.parametrize("label", [s.label for s in catalog() if s.order > 1])
def test_corrupted_copy_keeps_the_identity_and_the_cover_size(label):
    g = build_group(GroupSpec.parse(label))
    bad = corrupted_copy(g)
    assert bad.identity_index == g.identity_index
    assert bad.elements[bad.identity_index] == g.elements[g.identity_index]
    assert len(bad.cover) == 2 * len(g)


def test_index_of_accepts_either_lift():
    g = build_group(GroupSpec.parse("C4"))
    for q in g.elements:
        assert g.index_of(q) == g.index_of(-q)


def test_build_group_stores_the_lifts_sorted_by_rounded_key():
    strided = [f"C{n}" for n in range(1, 1001, 37)]
    strided += [f"D{m}" for m in range(1, 501, 19)]
    for label in strided + ORACLE_LABELS:
        spec = GroupSpec.parse(label)
        rows = build_group(spec).element_rows
        assert rows.tolist() == sorted_lifts_oracle(spec), label


@pytest.mark.parametrize("label", ORACLE_LABELS)
def test_index_of_matches_the_scan(label):
    for h in with_corrupted_copies(label):
        for q in h.elements:
            nudged = q._replace(w=q.w + 1e-10)
            for query in (q, -q, q.conjugate(), nudged):
                assert outcome(h.index_of, query) == outcome(index_of_oracle, h, query)


def test_index_of_finds_no_row_that_is_not_finite():
    g = build_group(GroupSpec.parse("C4"))
    rows = g.element_rows.copy()
    bad = [i for i in range(len(g)) if i != g.identity_index][:2]
    rows[bad[0], 1] = math.nan
    rows[bad[1], 2] = math.nan
    h = RotationGroup(g.spec, rows)
    queries = [h.elements[i] for i in bad] + [(math.nan,) * 4, ONE[:3], list(ONE)]
    for query in queries:
        assert outcome(h.index_of, query) == outcome(index_of_oracle, h, query)
    for i in bad:
        with pytest.raises(NotInGroup):
            h.index_of(h.elements[i])


def test_index_of_finds_a_stored_row_without_the_scan(monkeypatch):
    g = build_group(GroupSpec.parse("D500"))
    monkeypatch.setattr(rotgroups, "same_point", None)
    assert [g.index_of(q) for q in g.elements] == list(range(len(g)))


@pytest.mark.parametrize("label", ["C4", "D3", "I"])
def test_index_of_rejects_slightly_rotated_elements(label):
    # 1e-6 rad moves a quaternion by 5e-7, far beyond EPS_POINT
    g = build_group(GroupSpec.parse(label))
    tweak = Quaternion(math.cos(5e-7), 0.0, math.sin(5e-7), 0.0)
    for q in g.elements:
        with pytest.raises(NotInGroup):
            g.index_of(qmul_oracle(q, tweak).normalized())


def test_match_rows_agrees_with_every_pair():
    rng = np.random.default_rng(0)
    points = rng.normal(size=(60, 3))
    points /= np.linalg.norm(points, axis=1, keepdims=True)
    probe = rotgroups._PROBE[:3] / np.linalg.norm(rotgroups._PROBE[:3])
    across = np.cross(probe, points[:10])
    across /= np.linalg.norm(across, axis=1, keepdims=True)
    # same projection, 1e-6 away: distinct points that share a window
    shadows = points[:10] + 1e-6 * across
    queries = np.concatenate([
        points + 1e-16 * rng.normal(size=points.shape),
        shadows,
        points[:10] + 0.5 * EPS_POINT * across,
        rng.normal(size=(10, 3)),
    ])
    pairs = same_point(queries[:, None], points[None])
    found = match_rows(points, queries)
    for q, i in enumerate(found):
        if i < 0:
            assert not pairs[q].any()
        else:
            assert pairs[q, i]
    assert (found[:60] >= 0).all() and (found[60:70] < 0).all()
    assert (found[70:80] >= 0).all()
    # with the shadows and duplicates among the points, every query but the
    # last ten has a match, however the window orders them
    points = np.concatenate([points, shadows, points[:5]])
    assert (match_rows(points, queries)[:80] >= 0).all()


@pytest.mark.parametrize("label", [*CATALOG_ORDERS, "D54"])
def test_tables_are_the_group_law(label):
    g = build_group(GroupSpec.parse(label))
    mul, inv = g._table
    n = len(g)
    for i, a in enumerate(g.elements):
        assert g.index_of(a.conjugate()) == inv[i]
        if n <= 12 or i % 7 == 0:
            assert [g.index_of(qmul_oracle(a, b)) for b in g.elements] == list(mul[i])
    # each row and each column is a permutation
    assert (np.sort(mul, axis=0) == np.arange(n)[:, None]).all()
    assert (np.sort(mul, axis=1) == np.arange(n)).all()


@pytest.mark.parametrize("angle", [0.1, 1e-5])
@pytest.mark.parametrize("label", ["C3", "T", "I"])
def test_a_set_that_is_not_closed_has_no_tables(label, angle):
    bad = corrupted_copy(build_group(GroupSpec.parse(label)), extra_angle=angle)
    assert bad._table is None


@pytest.mark.parametrize("angle", [0.1, 1e-5])
def test_the_corrupted_copy_of_d1_is_still_a_group(angle):
    # its half-turn about x becomes a half-turn about a tilted axis
    bad = corrupted_copy(build_group(GroupSpec.parse("D1")), extra_angle=angle)
    mul, inv = bad._table
    e = bad.identity_index
    assert mul.tolist() == [[e, 1 - e], [1 - e, e]]
    assert inv.tolist() == [0, 1]


ACTION_GROUPS = [s.label for s in catalog()] + ["C1000", "D500", "corrupted I"]


@pytest.mark.parametrize("label", ACTION_GROUPS)
def test_one_action_per_group(label):
    # the conjugation stack is formed once, read-only, and every space of
    # the group sweeps that one stack
    if label == "corrupted I":
        g = corrupted_copy(build_group(GroupSpec.parse("I")), extra_angle=0.1)
    else:
        g = build_group(GroupSpec.parse(label))
    act = g._action
    assert act.tobytes() == conj_matrix(g.element_rows).tobytes()
    assert act.shape == (len(g), 4, 4)
    assert not act.flags.writeable
    assert g._action is act
    for base in Base:
        assert np.shares_memory(CosetSpace(g, base)._act_stack, act)


def test_classify_forms_the_action_once(monkeypatch):
    # a group classify has not seen before: a fresh object of known rows
    calls = []
    form = rotgroups.conj_matrix
    monkeypatch.setattr(
        rotgroups, "conj_matrix", lambda q: calls.append(len(q)) or form(q)
    )
    monkeypatch.setattr(
        topology,
        "build_group",
        lambda spec: RotationGroup(spec, build_group(spec).element_rows),
    )
    report = topology.classify(Base.SO3, GroupSpec.parse("O"), samples=50)
    assert report.passed
    assert calls == [24]
