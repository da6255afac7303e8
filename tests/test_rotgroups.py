"""Group enumeration: orders, covers, closure, element orders, parity."""

import math

import pytest

from nvalued.axioms import corrupted_copy
from nvalued.quaternion import (
    ONE,
    QI,
    QK,
    Quaternion,
    canonical_sign,
    qdist,
    qmul,
    rotation_of,
)
from nvalued.rotgroups import (
    MAX_ORDER,
    ClosureFailure,
    GroupSpec,
    NotInGroup,
    build_group,
    catalog,
    closure_defect,
    element_order,
    has_half_turn,
)

CATALOG_ORDERS = {
    "C1": 1, "C2": 2, "C3": 3, "C4": 4, "C5": 5, "C6": 6, "C7": 7, "C8": 8,
    "D1": 2, "D2": 4, "D3": 6, "D4": 8, "D5": 10, "D6": 12,
    "T": 12, "O": 24, "I": 60,
}


def test_catalog_contents():
    labels = [s.label for s in catalog()]
    assert labels == list(CATALOG_ORDERS)


@pytest.mark.parametrize("label, order", CATALOG_ORDERS.items())
def test_orders_and_cover_sizes(label, order):
    g = build_group(GroupSpec.parse(label))
    assert len(g) == order
    assert len(g.cover) == 2 * order
    assert g.spec.order == order


@pytest.mark.parametrize("label", CATALOG_ORDERS)
def test_cover_closed_under_product(label):
    g = build_group(GroupSpec.parse(label))
    assert closure_defect(g) < 1e-9


@pytest.mark.parametrize("label", CATALOG_ORDERS)
def test_inverses_present(label):
    g = build_group(GroupSpec.parse(label))
    for q in g.cover:
        assert g.contains(q.conjugate())
        assert any(qdist(q.conjugate(), c) < 1e-9 for c in g.cover)


def test_c2_cover_is_pm_one_pm_k():
    g = build_group(GroupSpec.parse("C2"))
    expected = [ONE, -ONE, QK, -QK]
    for q in expected:
        assert any(qdist(q, c) < 1e-12 for c in g.cover)


def test_c1_degenerates_to_identity():
    g = build_group(GroupSpec.parse("C1"))
    assert len(g) == 1
    assert qdist(g.identity, ONE) < 1e-15
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


def test_spec_accepts_order_at_limit():
    assert GroupSpec.parse("D500").order == MAX_ORDER
    assert GroupSpec.parse("C1000").order == MAX_ORDER


def test_d1_flagged_as_duplicate_of_c2():
    assert GroupSpec.parse("D1").so3_duplicate_of == "C2"
    assert GroupSpec.parse("D2").so3_duplicate_of is None
    assert GroupSpec.parse("C2").so3_duplicate_of is None


class TestElementOrder:
    def test_identity(self):
        g = build_group(GroupSpec.parse("C4"))
        assert element_order(g.identity, g) == 1

    def test_half_turn(self):
        g = build_group(GroupSpec.parse("C2"))
        half = next(q for q in g.elements if qdist(q, g.identity) > 1e-9)
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
            axis, angle = rotation_of(q)
            if axis is None:
                assert d == 1
                continue
            k = round(angle * d / (2 * math.pi))
            assert abs(angle - 2 * math.pi * k / d) < 1e-9


def power_chain_order(q, group):
    """The definition: the least d >= 1 with q^d within EPS_POINT of +-1,
    by repeated multiplication."""
    current, d = q, 1
    while qdist(canonical_sign(current), ONE) > 1e-9:
        current = qmul(current, q).normalized()
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


def test_binary_cover_closed_under_negation():
    g = build_group(GroupSpec.parse("D3"))
    cover = g.cover
    for q in cover:
        assert any(qdist(-q, c) < 1e-12 for c in cover)


def test_element_ordering_deterministic():
    a = build_group(GroupSpec.parse("O"))
    build_group.cache_clear()
    b = build_group(GroupSpec.parse("O"))
    assert a.elements == b.elements
    assert a.cover == b.cover


def test_closure_failure_on_bad_generators():
    # a 1-radian rotation does not close up within a small budget
    from nvalued.rotgroups import _mulclose

    gen = Quaternion(math.cos(0.5), 0.0, 0.0, math.sin(0.5))
    with pytest.raises(ClosureFailure):
        _mulclose([gen, -ONE], limit=8)


def test_index_of_accepts_either_lift():
    g = build_group(GroupSpec.parse("C4"))
    for q in g.elements:
        assert g.index_of(q) == g.index_of(-q)


@pytest.mark.parametrize("label", ["C4", "D3", "I"])
def test_index_of_rejects_slightly_rotated_elements(label):
    # 1e-6 rad moves a quaternion by 5e-7, far beyond EPS_POINT
    g = build_group(GroupSpec.parse(label))
    tweak = Quaternion(math.cos(5e-7), 0.0, math.sin(5e-7), 0.0)
    for q in g.elements:
        with pytest.raises(NotInGroup):
            g.index_of(qmul(q, tweak).normalized())
