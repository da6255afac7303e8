"""The finite rotation groups: cyclic, dihedral, tetrahedral, octahedral,
icosahedral, enumerated together with their binary covers in the unit
quaternions.

Each rotation is stored as its canonical-sign lift (the lexicographically
larger of the two unit quaternions covering it); the cover holds both lifts.
Enumeration is breadth-first closure over fixed generators, aborting loudly
if the closure overshoots.  Group elements here and sphere points in
`topology` are (m, 4) or (m, 3) arrays of coordinates, deduplicated by one
rule: `distinct_rows` keeps the rows that are not `same_point` as an
earlier one.
"""

from __future__ import annotations

import math
import re
from dataclasses import dataclass
from fractions import Fraction
from functools import lru_cache
from typing import Iterator, Optional

import numpy as np

from .quaternion import (
    ONE,
    QI,
    Quaternion,
    canonical_sign,
    left_matrix,
    qdist,
    qmul,
    rounded_key,
)
from .tolerances import EPS_POINT

GOLDEN = (1.0 + math.sqrt(5.0)) / 2.0

# Largest group order accepted.  Closure, sign folding and the singular
# orbits compare (order x order) arrays of points: building C1000 or D500
# and their singular orbits takes under 1 s and 150 MB on a 2-core host.
MAX_ORDER = 1000

_SPEC_RE = re.compile(r"^([CD])([0-9]+)$|^([TOI])$")


class ClosureFailure(RuntimeError):
    """Generator closure produced the wrong number of elements."""


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
            if self.param is None or self.param < 1:
                raise ValueError(f"family {self.family!r} needs a parameter >= 1")
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

    @property
    def so3_duplicate_of(self) -> Optional[str]:
        """Label of a catalog group this one is conjugate to inside SO(3).

        D1 consists of the identity and a single half-turn, the same
        configuration as C2 up to a change of axis; both stay in the catalog.
        """
        if self.family == "D" and self.param == 1:
            return "C2"
        return None

    def __str__(self) -> str:
        return self.label


def _generators(spec: GroupSpec) -> list[Quaternion]:
    # Fixed axis conventions so every build is reproducible: the n-fold
    # rotation about the z-axis, the dihedral half-turn about the x-axis,
    # Hurwitz-unit generators for T, the z quarter-turn for O, and the
    # golden-ratio lift for I.
    if spec.family == "C":
        a = math.pi / spec.param
        return [Quaternion(math.cos(a), 0.0, 0.0, math.sin(a))]
    if spec.family == "D":
        a = math.pi / spec.param
        return [Quaternion(math.cos(a), 0.0, 0.0, math.sin(a)), QI]
    tetra = [QI, Quaternion(0.5, 0.5, 0.5, 0.5)]
    if spec.family == "T":
        return tetra
    if spec.family == "O":
        c = math.sqrt(0.5)
        return tetra + [Quaternion(c, 0.0, 0.0, c)]
    return tetra + [Quaternion(GOLDEN / 2.0, 1.0 / (2.0 * GOLDEN), 0.5, 0.0)]


def same_point(a: np.ndarray, b: np.ndarray, tol: float = EPS_POINT) -> np.ndarray:
    """Whether rows of `a` and `b`, broadcast against each other, lie
    within Euclidean distance `tol`: the one test of "the same point" for
    group elements and sphere points."""
    d2 = sum((a[..., c] - b[..., c]) ** 2 for c in range(a.shape[-1]))
    return np.sqrt(d2) <= tol


def distinct_rows(rows: np.ndarray, seen: Optional[np.ndarray] = None) -> np.ndarray:
    """The rows that are not the same point as any earlier row or any row
    of `seen`, in order."""
    dup = np.tril(same_point(rows[:, None], rows[None]), -1).any(axis=1)
    if seen is not None:
        dup |= same_point(rows[:, None], seen[None]).any(axis=1)
    return rows[~dup]


def _mulclose(gens: list[Quaternion], limit: int) -> np.ndarray:
    """Breadth-first closure under the quaternion product, as an (m, 4)
    array in order of discovery; raises ClosureFailure past `limit`
    elements.  Each round multiplies every generator by the whole frontier,
    with qmul's formula so that the elements match qmul products exactly."""
    gens = np.array(gens, dtype=float)
    elements = frontier = distinct_rows(gens)
    while len(frontier):
        aw, ax, ay, az = gens.T[:, :, None]
        bw, bx, by, bz = frontier.T[:, None, :]
        w = aw * bw - ax * bx - ay * by - az * bz
        x = aw * bx + ax * bw + ay * bz - az * by
        y = aw * by - ax * bz + ay * bw + az * bx
        z = aw * bz + ax * by - ay * bx + az * bw
        norm = np.sqrt(w * w + x * x + y * y + z * z)
        products = np.stack([w, x, y, z], axis=-1) / norm[..., None]
        frontier = distinct_rows(products.reshape(-1, 4), seen=elements)
        if len(elements) + len(frontier) > limit:
            raise ClosureFailure(
                f"closure exceeded {limit} elements; generators do not "
                "close up at this tolerance"
            )
        elements = np.concatenate([elements, frontier])
    return elements


class RotationGroup:
    """A finite subgroup of the rotation group.

    `elements` holds one canonical-sign lift per rotation, sorted, and
    `element_rows` the same as an (n, 4) array; `cover` holds both lifts of
    every element.  Instances are immutable by convention and safe to share.
    """

    def __init__(
        self,
        spec: GroupSpec,
        elements: list[Quaternion],
        cover: list[Quaternion],
        identity_index: int,
    ):
        self.spec = spec
        self.elements = list(elements)
        self.element_rows = np.array(self.elements, dtype=float)
        self.cover = list(cover)
        self.identity_index = identity_index

    def __len__(self) -> int:
        return len(self.elements)

    def __iter__(self) -> Iterator[Quaternion]:
        return iter(self.elements)

    def __repr__(self) -> str:
        return f"RotationGroup({self.spec.label}, n={len(self)})"

    @property
    def identity(self) -> Quaternion:
        return self.elements[self.identity_index]

    def index_of(self, g: Quaternion, tol: float = EPS_POINT) -> int:
        """Index of the rotation covered by g, or NotInGroup."""
        rep = np.array(canonical_sign(g), dtype=float)
        hits = np.flatnonzero(same_point(self.element_rows, rep, tol))
        if not len(hits):
            raise NotInGroup(f"{g} is not an element of {self.spec.label}")
        return int(hits[0])

    def contains(self, g: Quaternion, tol: float = EPS_POINT) -> bool:
        try:
            self.index_of(g, tol)
            return True
        except NotInGroup:
            return False


@lru_cache(maxsize=None)
def build_group(spec: GroupSpec) -> RotationGroup:
    """Enumerate the group for `spec` by closing its generators.

    The closure runs in the binary cover (the generators plus -1), which
    must come out at exactly twice the group order; anything else raises
    ClosureFailure.
    """
    n = spec.order
    gens = [g.normalized() for g in _generators(spec)] + [-ONE]
    cover = _mulclose(gens, limit=4 * n)
    if len(cover) != 2 * n:
        raise ClosureFailure(
            f"{spec.label}: cover closed at {len(cover)} elements, expected {2 * n}"
        )

    folded = distinct_rows(canonical_sign(cover))
    if len(folded) != n:
        raise ClosureFailure(
            f"{spec.label}: {len(folded)} rotations after sign folding, expected {n}"
        )

    elements = sorted(map(Quaternion._make, folded.tolist()), key=rounded_key)
    identity_index = int(same_point(np.array(elements), np.array(ONE)).argmax())
    cover = sorted(map(Quaternion._make, cover.tolist()), key=rounded_key)
    return RotationGroup(spec, elements, cover, identity_index)


def element_order(g: Quaternion, group: RotationGroup) -> int:
    """Least d >= 1 with g^d the identity rotation; g must lie in the group.

    A lift of g is cos(pi t) + sin(pi t) u for a unit imaginary u, with
    t = atan2(|v|, |w|) / pi in [0, 1/2] its turn fraction, so g^d lies at
    angle pi * dist(d t, Z) from +-1 on the 3-sphere.  In a group of order n
    the order d divides n: it is the denominator of the fraction k/d
    nearest t with d <= n, and ClosureFailure says that g^d still misses
    +-1 by more than EPS_POINT, so no power of g returns to the identity.
    """
    w, x, y, z = group.element_rows[group.index_of(g)]
    turns = math.atan2(math.sqrt(x * x + y * y + z * z), abs(w)) / math.pi
    frac = Fraction(turns).limit_denominator(len(group))
    if math.pi * abs(turns - frac) * frac.denominator > EPS_POINT:
        raise ClosureFailure(f"no power of {g} returns to the identity")
    return frac.denominator


def has_half_turn(group: RotationGroup) -> bool:
    """True iff some non-identity element squares to the identity."""
    for i, g in enumerate(group.elements):
        if i == group.identity_index:
            continue
        if qdist(canonical_sign(qmul(g, g).normalized()), ONE) <= EPS_POINT:
            return True
    return False


def catalog() -> list[GroupSpec]:
    """The standard test catalog: C1..C8, D1..D6, T, O, I."""
    specs = [GroupSpec("C", n) for n in range(1, 9)]
    specs += [GroupSpec("D", m) for m in range(1, 7)]
    specs += [GroupSpec("T"), GroupSpec("O"), GroupSpec("I")]
    return specs


def closure_defect(group: RotationGroup, chunk: int = 1024) -> float:
    """Max distance from any pairwise cover product to the nearest cover
    element.  Zero up to drift for a genuine group."""
    cover = np.array([tuple(q) for q in group.cover])
    mats = left_matrix(cover)
    products = np.einsum("aij,bj->abi", mats, cover).reshape(-1, 4)
    worst = 0.0
    for start in range(0, len(products), chunk):
        block = products[start : start + chunk]
        diffs = block[:, None, :] - cover[None, :, :]
        dist = np.sqrt((diffs * diffs).sum(axis=2)).min(axis=1)
        worst = max(worst, float(dist.max()))
    return worst
