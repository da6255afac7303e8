"""The finite rotation groups: cyclic, dihedral, tetrahedral, octahedral,
icosahedral, enumerated together with their binary covers in the unit
quaternions.

Each rotation is stored as its canonical-sign lift (the lexicographically
larger of the two unit quaternions covering it); the cover holds both lifts.
The covers are the textbook element lists, built as arrays; folding their
signs must leave exactly the group order of rotations.  Group elements here
and sphere points in `topology` are (m, 4) or (m, 3) arrays of coordinates,
compared by one rule, `same_point`; `match_rows` finds the same point among
many rows after one sort along a fixed direction.
"""

from __future__ import annotations

import itertools
import math
import re
from dataclasses import dataclass
from functools import cached_property, lru_cache
from typing import Optional, Sequence

import numpy as np

from .quaternion import (
    ONE,
    Quaternion,
    canonical_sign,
    conj_matrix,
    left_matrix,
    rounded_order,
)
from .tolerances import EPS_POINT

GOLDEN = (1.0 + math.sqrt(5.0)) / 2.0

# Largest group order accepted.  Building a group and its singular orbits
# costs O(order log order): `nvalued generate C1000` and `nvalued classify
# D500` each take about 0.2 s wall (medians of 5 fresh processes on a
# 2-core host, 0.19-0.31 s as its speed wanders), 0.15-0.2 s of it
# interpreter start and imports, in under 50 MB.
MAX_ORDER = 1000

_SPEC_RE = re.compile(r"^([CD])([0-9]+)$|^([TOI])$")


def _is_int(value) -> bool:
    """True for a Python or numpy integer, and False for a bool, which
    Python counts as an integer but no caller means as a count."""
    return isinstance(value, (int, np.integer)) and not isinstance(value, bool)


class ClosureFailure(RuntimeError):
    """A group or an element does not close up: the cover folds to the
    wrong number of rotations, no element is the identity, or no order
    dividing the group order fits an element."""


class NotInGroup(ValueError):
    """The given rotation is not an element of the group."""


@dataclass(frozen=True)
class GroupSpec:
    """Which rotation group to build: family 'C'/'D' with a parameter, or
    one of the exceptional families 'T', 'O', 'I'."""

    family: str
    param: Optional[int] = None

    def __post_init__(self):
        if self.family in ("C", "D"):
            p = self.param
            if not _is_int(p) or p < 1:
                need = f"family {self.family!r} needs an integer parameter >= 1"
                raise ValueError(f"{need}, got {p!r}")
        elif self.family in ("T", "O", "I"):
            if self.param is not None:
                raise ValueError(f"family {self.family!r} takes no parameter")
        else:
            raise ValueError(f"unknown family {self.family!r}")
        if self.order > MAX_ORDER:
            raise ValueError(
                f"{self.label} has order {self.order}; the largest supported "
                f"order is {MAX_ORDER}"
            )

    @classmethod
    def parse(cls, text: str) -> "GroupSpec":
        """Parse a label like 'C5', 'd3', 'T', 'o', 'I' (case-insensitive)."""
        m = _SPEC_RE.match(text.strip().upper())
        if not m:
            raise ValueError(
                f"cannot parse group spec {text!r}; expected C<n>, D<m>, T, O or I"
            )
        if m.group(3):
            return cls(m.group(3))
        return cls(m.group(1), int(m.group(2)))

    @property
    def order(self) -> int:
        if self.family == "C":
            return self.param
        if self.family == "D":
            return 2 * self.param
        return {"T": 12, "O": 24, "I": 60}[self.family]

    @property
    def label(self) -> str:
        if self.param is None:
            return self.family
        return f"{self.family}{self.param}"

    def __str__(self) -> str:
        return self.label


def _signs(m: int) -> np.ndarray:
    """The 2^m sign vectors of length m, as rows."""
    return np.array(list(itertools.product((1.0, -1.0), repeat=m)))


def _cover(spec: GroupSpec) -> np.ndarray:
    """The binary cover as a (2 * order, 4) array, from the textbook lists
    (Conway & Smith, On Quaternions and Octonions, ch. 3): rotations about
    the z-axis, for D also the half-turns about axes in the xy-plane; the
    Hurwitz units for T, plus the units with two coordinates +-1/sqrt(2)
    for O, plus the odd permutations of (+-GOLDEN, +-1, +-1/GOLDEN, 0) / 2
    for I.  C and D angles pi k / n take k in (-n/2, n/2], which rounds
    less than k up to 2n - 1 would; the cover adds their negatives."""
    if spec.family in ("C", "D"):
        m = spec.param
        turns = [math.pi * k / m for k in range(-((m - 1) // 2), m // 2 + 1)]
        c, s = np.array([(math.cos(t), math.sin(t)) for t in turns]).T
        z = np.zeros(m)
        # i (c + s k) = c i - s j
        rows = [(c, z, z, s)] + [(z, c, -s, z)] * (spec.family == "D")
        rows = np.concatenate([np.stack(r, axis=1) for r in rows])
        return np.concatenate([rows, -rows])

    units = [np.eye(4), -np.eye(4), 0.5 * _signs(4)]
    if spec.family == "O":
        for pair in itertools.combinations(range(4), 2):
            units.append(np.zeros((4, 4)))
            units[-1][:, pair] = math.sqrt(0.5) * _signs(2)
    elif spec.family == "I":
        halves = np.array([GOLDEN / 2.0, 0.5, 1.0 / (2.0 * GOLDEN)]) * _signs(3)
        for perm in itertools.permutations(range(4)):
            if sum(a > b for a, b in itertools.combinations(perm, 2)) % 2:
                units.append(np.zeros((8, 4)))
                units[-1][:, perm[:3]] = halves
    return np.concatenate(units)


def same_point(a: np.ndarray, b: np.ndarray) -> np.ndarray:
    """Whether rows of `a` and `b`, broadcast against each other, lie
    within Euclidean distance EPS_POINT: the one test of "the same point"
    for group elements and sphere points."""
    d = a - b
    return np.einsum("...i,...i->...", d, d) <= EPS_POINT * EPS_POINT


# A direction with no simple relation to the coordinate axes, along which
# distinct group elements or sphere points do not project within EPS_POINT.
_PROBE = np.array([0.8, 0.5 * math.sqrt(2.0), 1.0 / math.pi, math.e / 10.0])


def match_rows(points: np.ndarray, queries: np.ndarray) -> np.ndarray:
    """For each row of `queries`, the index of a row of `points` that is
    the same point, or -1.  Rows within EPS_POINT project within EPS_POINT
    of each other on a unit direction, so after one sort of `points` along
    it a query meets only the few rows projecting near it: O(m log m).  Of
    several matches the lowest along the direction wins, so all rows of a
    tight cluster name the same one."""
    probe = _PROBE[: points.shape[1]] / np.linalg.norm(_PROBE[: points.shape[1]])
    along = points @ probe
    order = np.argsort(along, kind="stable")
    along, at = along[order], queries @ probe
    # twice the tolerance, so rounding in the projections cannot drop a match
    lo = np.searchsorted(along, at - 2.0 * EPS_POINT, side="left")
    hi = np.searchsorted(along, at + 2.0 * EPS_POINT, side="right")
    found = np.full(len(queries), -1)
    pending = np.flatnonzero(lo < hi)
    while len(pending):
        idx = order[lo[pending]]
        hit = same_point(points[idx], queries[pending])
        found[pending[hit]] = idx[hit]
        lo[pending] += 1
        pending = pending[~hit & (lo[pending] < hi[pending])]
    return found


class RotationGroup:
    """A finite subgroup of the rotation group, given by `rows`: one
    canonical-sign lift per rotation as an (n, 4) array, one of them the
    identity (else ClosureFailure).

    `element_rows` keeps the rows in the given order and `elements` holds
    them as Quaternions; `cover`, both lifts of every element, the
    conjugation action and the group tables are derived from them.
    Instances are immutable by convention and safe to share.
    """

    def __init__(self, spec: GroupSpec, rows: Sequence[Sequence[float]]):
        self.spec = spec
        self.element_rows = np.array(rows, dtype=float)
        self.elements = list(map(Quaternion._make, self.element_rows.tolist()))
        hits = np.flatnonzero(same_point(self.element_rows, np.array(ONE)))
        if not len(hits):
            raise ClosureFailure(f"{spec.label}: no element is the identity")
        self.identity_index = int(hits[0])

    def __len__(self) -> int:
        return len(self.elements)

    def __repr__(self) -> str:
        return f"RotationGroup({self.spec.label}, n={len(self)})"

    @property
    def cover(self) -> list[Quaternion]:
        """The binary cover: the element rows, then their negations."""
        # + 0.0 turns the negative zeros of negated rows into zeros
        rows = np.concatenate([self.element_rows, -self.element_rows]) + 0.0
        return list(map(Quaternion._make, rows.tolist()))

    @cached_property
    def _row_index(self) -> dict[Quaternion, int]:
        """The index of each stored row, the first of exact duplicates.
        Rows that are not finite are left out: they are the same point as
        nothing, themselves included."""
        finite = np.flatnonzero(np.isfinite(self.element_rows).all(axis=1))
        # in reverse, so that the first of duplicates is written last
        return {self.elements[i]: i for i in finite[::-1].tolist()}

    def index_of(self, g: Quaternion) -> int:
        """Index of the rotation covered by g, or NotInGroup.  Either lift
        of g may be the same point as the stored one.  A stored row itself
        is found by one dict lookup; anything else is compared with every
        row.  The two agree whenever the rows are distinct rotations, as
        `build_group` makes them by folding the cover."""
        try:
            return self._row_index[g]
        except (KeyError, TypeError):
            pass
        q = np.array(g, dtype=float)
        rows = self.element_rows
        hits = np.flatnonzero(same_point(rows, q) | same_point(rows, -q))
        if not len(hits):
            raise NotInGroup(f"{g} is not an element of {self.spec.label}")
        return int(hits[0])

    @cached_property
    def _action(self) -> np.ndarray:
        """The conjugation matrices of the elements, an (n, 4, 4) stack that
        is not writeable: the i-th is x -> g_i x g_i^-1, on either base and
        for either lift of g_i.  The one place the action is formed."""
        act = conj_matrix(self.element_rows)
        act.flags.writeable = False
        return act

    @cached_property
    def _table(self) -> Optional[tuple[np.ndarray, np.ndarray]]:
        """The multiplication table, whose entry [i, j] is the index of g_i g_j
        (either lift), and the inverse table, whose entry i is that of g_i^-1:
        the one decision of a group law.  None unless every product is an
        element and each row and column is a permutation (a Latin square, so
        the identity is in each row), as for a set that is not closed."""
        rows = self.element_rows
        n = len(rows)
        products = (rows @ left_matrix(rows).transpose(0, 2, 1)).reshape(-1, 4)
        found = match_rows(rows, products)
        miss = np.flatnonzero(found < 0)
        found[miss] = match_rows(rows, -products[miss])
        if (found < 0).any():
            return None
        mul = found.reshape(n, n)
        step = np.arange(n)
        for cells in (mul + step[:, None] * n, mul * n + step):
            hit = np.zeros(n * n, dtype=bool)
            hit[cells.ravel()] = True
            if not hit.all():
                return None
        return mul, (mul == self.identity_index).argmax(axis=1)


@lru_cache(maxsize=None)
def build_group(spec: GroupSpec) -> RotationGroup:
    """The group for `spec`, from the closed form of its binary cover, whose
    signs must fold to exactly the group order of rotations (else
    ClosureFailure); their lifts are stored in `rounded_order`."""
    n = spec.order
    # + 0.0 turns the negative zeros of negated rows into zeros
    folded = canonical_sign(_cover(spec)) + 0.0
    lifts = folded[np.unique(match_rows(folded, folded))]
    if len(lifts) != n:
        raise ClosureFailure(
            f"{spec.label}: the cover folds to {len(lifts)} rotations, expected {n}"
        )
    return RotationGroup(spec, lifts[rounded_order(lifts)])


def element_order(g: Quaternion, group: RotationGroup) -> int:
    """Least d >= 1 with g^d the identity rotation; g must lie in the group.

    A lift of g is cos(pi t) + sin(pi t) u for a unit imaginary u, with
    t = atan2(|v|, |w|) / pi in [0, 1/2] its turn fraction, so g^d lies at
    angle pi * dist(d t, Z) from +-1 on the 3-sphere.  In a group of order n
    the order d divides n (Lagrange), so t is k/n for k = round(n t), and
    d = n / gcd(k, n) is the denominator of k/n in lowest terms.
    ClosureFailure says that g^d still misses +-1 by more than EPS_POINT:
    no order dividing n fits g.  Fractions with denominators up to n are
    at least 1/n^2 apart, so no other fraction lies within that slack.
    """
    w, x, y, z = group.elements[group.index_of(g)]
    turns = math.atan2(math.sqrt(x * x + y * y + z * z), abs(w)) / math.pi
    n = len(group)
    k = round(turns * n)
    d = n // math.gcd(k, n)
    if math.pi * abs(turns - k / n) * d > EPS_POINT:
        raise ClosureFailure(
            f"{g} has no order dividing {n}, the order of {group.spec.label}"
        )
    return d


def has_half_turn(group: RotationGroup) -> bool:
    """True iff some non-identity element squares to the identity, +-1.
    The square of a unit lift (w, v) is (2 w^2 - 1, 2 w v), which lies
    2|w| from -1 and 2|v| from 1, so one array test over the element rows
    decides it."""
    rows = group.element_rows
    dist = 2.0 * np.minimum(np.abs(rows[:, 0]), np.sqrt((rows[:, 1:] ** 2).sum(axis=1)))
    dist[group.identity_index] = np.inf
    return bool((dist <= EPS_POINT).any())


def catalog() -> list[GroupSpec]:
    """The standard test catalog: C1..C8, D1..D6, T, O, I.  D1, the
    identity and one half-turn, is C2 about another axis inside SO(3);
    both stay in the catalog."""
    specs = [GroupSpec("C", n) for n in range(1, 9)]
    specs += [GroupSpec("D", m) for m in range(1, 7)]
    specs += [GroupSpec("T"), GroupSpec("O"), GroupSpec("I")]
    return specs

