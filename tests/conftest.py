import os
from functools import lru_cache
from pathlib import Path

import numpy as np
import pytest
from hypothesis import assume, strategies as st

import nvalued
from nvalued.coset import Base, CosetSpace, _orbits, _product_left, _product_right
from nvalued.quaternion import Quaternion, left_matrix
from nvalued.rotgroups import GroupSpec, RotationGroup, build_group


@lru_cache(maxsize=None)
def make_space(label: str, base: str) -> CosetSpace:
    """Shared space cache so tests do not rebuild groups over and over."""
    return CosetSpace(build_group(GroupSpec.parse(label)), Base(base))


def triple_products(x, y, z):
    """The n^2 values of (x y) z and of x (y z), as lists of orbits of the
    space of x, from the kernels that the associativity check runs."""
    space = x.space
    reps = [np.array([o.rep]) for o in (x, y, z)]
    return (
        _orbits(space, _product_left(space, *reps)),
        _orbits(space, _product_right(space, *reps)),
    )


def subprocess_env() -> dict:
    """The environment for a child interpreter that imports the nvalued
    under test, installed or not."""
    src = str(Path(nvalued.__file__).resolve().parents[1])
    path = os.pathsep.join([src, os.environ.get("PYTHONPATH", "")])
    return {**os.environ, "PYTHONPATH": path}


@pytest.fixture
def rng() -> np.random.Generator:
    return np.random.default_rng(0)


@st.composite
def unit_quaternions(draw) -> Quaternion:
    components = [
        draw(st.floats(min_value=-1.0, max_value=1.0, allow_nan=False))
        for _ in range(4)
    ]
    q = Quaternion(*components)
    assume(q.norm() > 1e-3)
    return q.normalized()


@st.composite
def equator_quaternions(draw) -> Quaternion:
    """Unit quaternions with real part exactly 0."""
    components = [
        draw(st.floats(min_value=-1.0, max_value=1.0, allow_nan=False))
        for _ in range(3)
    ]
    q = Quaternion(0.0, *components)
    assume(q.norm() > 1e-3)
    return q.normalized()


def closure_defect(group: RotationGroup, chunk: int = 1024) -> float:
    """Max distance from any pairwise cover product to the nearest cover
    element: the closure certificate of a cover.  Zero up to drift for a
    genuine group; cubic in the order."""
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
