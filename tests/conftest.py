"""Shared fixtures: bundled cases, a hand-sized triangle grid, a fresh pool."""
from __future__ import annotations

import numpy as np
import pytest

import ccopf.validation as validation
from ccopf import (
    FeasibilityPolytope,
    GaussianSpec,
    GridCase,
    build_matrices,
    build_polytope,
    bundled_case_path,
    load_case,
    parse_case,
)

# three buses in a ring, cheap generation remote from the load; all
# ratings zero so the polytope is injection rows only
TRIANGLE_TEXT = """\
function mpc = triangle
mpc.version = '2';
mpc.baseMVA = 100;
mpc.bus = [
\t1\t3\t0;
\t2\t2\t0;
\t3\t1\t80;
];
mpc.gen = [
\t1\t30\t100\t0;
\t2\t50\t50\t0;
];
mpc.branch = [
\t1\t2\t0.1\t0;
\t2\t3\t0.1\t0;
\t1\t3\t0.1\t0;
];
mpc.gencost = [
\t2\t0\t0\t2\t10\t0;
\t2\t0\t0\t2\t1\t0;
];
"""


@pytest.fixture(autouse=True)
def fresh_pool():
    # pool workers keep the module state of when their pool started, so
    # every test starts its own: what it patches then reaches its workers
    validation._shutdown_pool()
    yield
    validation._shutdown_pool()


@pytest.fixture(scope="session")
def case30() -> GridCase:
    return load_case(bundled_case_path("case30"))


@pytest.fixture(scope="session")
def case57() -> GridCase:
    return load_case(bundled_case_path("case57"))


@pytest.fixture()
def triangle() -> GridCase:
    return parse_case(TRIANGLE_TEXT)


@pytest.fixture()
def triangle_system(triangle):
    mat = build_matrices(triangle)
    return triangle, mat, build_polytope(triangle, mat)


def box_polytope(n: int, half_width: float) -> FeasibilityPolytope:
    """|p_i| <= half_width in every coordinate."""
    eye = np.eye(n)
    return FeasibilityPolytope(
        normals=np.vstack([eye, -eye]),
        offsets=np.full(2 * n, half_width),
        labels=tuple(("box-upper", i) for i in range(n))
        + tuple(("box-lower", i) for i in range(n)),
    )


def iid_gaussian(n: int, sigma: float = 1.0) -> GaussianSpec:
    return GaussianSpec.from_covariance(sigma ** 2 * np.eye(n))
