"""Per-row margins, the tightened polytope, and the inner-set probability."""
from __future__ import annotations

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from ccopf import (
    FeasibilityPolytope,
    GaussianSpec,
    MarginSet,
    build_matrices,
    build_mixture,
    build_polytope,
    build_uncertainty,
    compute_margins,
    contains_inner,
    estimate_pi,
    scenario_offsets,
    tightened_polytope,
)
from ccopf.kernels import norm_isf, norm_sf
from conftest import box_polytope, iid_gaussian

# upper 0.05 quantile of the standard normal
Z_95 = 1.6448536269514722


def one_row(offset: float = 2.0) -> FeasibilityPolytope:
    return FeasibilityPolytope(
        normals=np.array([[1.0]]),
        offsets=np.array([offset]),
        labels=(("row", 0),),
    )


# ---------------------------------------------------------------------------
# GaussianSpec

def test_from_covariance_reproduces_cov():
    rng = np.random.default_rng(5)
    a = rng.standard_normal((4, 4))
    cov = a @ a.T
    g = GaussianSpec.from_covariance(cov)
    np.testing.assert_allclose(g.reduced_factor @ g.reduced_factor.T, cov, atol=1e-12)
    assert g.n == 4
    assert g.reduced_dim == 4


@pytest.mark.parametrize(
    "cov, fragment",
    [
        (np.ones((2, 3)), "square"),
        (np.array([[1.0, 0.5], [0.0, 1.0]]), "symmetric"),
        (np.array([[1.0, 0.0], [0.0, -1.0]]), "positive semidefinite"),
        # an infinite variance would otherwise drop out of the support,
        # and a NaN would fail as asymmetric
        (np.array([[np.inf, 0.0], [0.0, 1.0]]), "finite"),
        (np.array([[1.0, np.nan], [np.nan, 1.0]]), "finite"),
        (np.array([[1.0, 0.0], [0.0, np.nan]]), "finite"),
    ],
)
def test_bad_covariance_rejected(cov, fragment):
    # construction itself checks; from_covariance symmetrises, so only
    # the finiteness and semidefiniteness checks are left for it to fail
    with pytest.raises(ValueError, match=fragment):
        GaussianSpec(cov=cov)
    if fragment in ("finite", "positive semidefinite"):
        with pytest.raises(ValueError, match=fragment):
            GaussianSpec.from_covariance(cov)


def test_spec_arrays_read_only():
    g = iid_gaussian(2)
    with pytest.raises(ValueError):
        g.cov[0, 0] = 9.0


def test_reduction_of_singular_covariance():
    g = GaussianSpec.from_covariance(np.diag([4.0, 0.0, 1.0]))
    assert g.reduced_dim == 2
    u = g.reduced_factor
    np.testing.assert_allclose(u @ u.T, g.cov, atol=1e-12)
    # a supported deviation leaves the zero-variance bus fixed
    w = np.array([0.7, -1.2])
    xi = g.from_reduced(w)
    assert xi[1] == 0.0


# ---------------------------------------------------------------------------
# margins

def test_margin_values_iid_box():
    poly = box_polytope(3, 2.0)
    g = iid_gaussian(3, sigma=0.5)
    m = compute_margins(poly, g, 0.05)
    np.testing.assert_allclose(m.sigma, 0.5)
    np.testing.assert_allclose(m.delta, 0.5 * Z_95, rtol=1e-12)
    np.testing.assert_allclose(m.beta, Z_95, rtol=1e-12)
    assert np.all(m.stochastic)


def test_sigma_is_projected_std():
    # correlated model: sigma of row w is sqrt(w' cov w)
    cov = np.array([[2.0, 0.6], [0.6, 1.0]])
    g = GaussianSpec.from_covariance(cov)
    poly = FeasibilityPolytope(
        normals=np.array([[1.0, 1.0], [1.0, -2.0]]),
        offsets=np.array([5.0, 5.0]),
        labels=(("row", 0), ("row", 1)),
    )
    m = compute_margins(poly, g, 0.1)
    want = np.sqrt(np.einsum("ij,jk,ik->i", poly.normals, cov, poly.normals))
    np.testing.assert_allclose(m.sigma, want, rtol=1e-12)


def test_eta_half_margins_vanish_exactly():
    poly = box_polytope(2, 1.0)
    m = compute_margins(poly, iid_gaussian(2), 0.5)
    assert np.all(m.delta == 0.0)
    assert np.all(m.beta == 0.0)
    pm = tightened_polytope(poly, m)
    np.testing.assert_array_equal(pm.offsets, poly.offsets)


@pytest.mark.parametrize(
    "changes, message",
    [
        ({"beta": np.ones(3)}, r"beta must have shape \(2,\)"),
        ({"sigma": np.ones((2, 1))}, r"sigma must have shape \(2,\)"),
        ({"draw_factor": np.ones(2)}, "draw_factor needs one row per margin row"),
        ({"draw_factor": np.ones((3, 1))}, "draw_factor needs one row per margin row"),
    ],
    ids=["beta-length", "sigma-2d", "draw-factor-1d", "draw-factor-rows"],
)
def test_margin_set_refuses_mismatched_shapes(changes, message):
    fields = dict(delta=np.ones(2), beta=np.ones(2), sigma=np.ones(2), draw_factor=np.eye(2))
    with pytest.raises(ValueError, match=message):
        MarginSet(**{**fields, **changes})


@pytest.mark.parametrize("eta", [0.0, -0.1, 0.500001, 1.0])
def test_eta_out_of_range(eta):
    with pytest.raises(ValueError, match="eta"):
        compute_margins(box_polytope(2, 1.0), iid_gaussian(2), eta)


def test_dimension_mismatch_rejected():
    with pytest.raises(ValueError, match="buses"):
        compute_margins(box_polytope(3, 1.0), iid_gaussian(2), 0.05)


def test_margins_round_trip_to_eta():
    poly = box_polytope(4, 3.0)
    for eta in (0.001, 0.05, 0.2, 0.5):
        m = compute_margins(poly, iid_gaussian(4, sigma=2.0), eta)
        np.testing.assert_allclose(m.tail_probs, eta, rtol=1e-10)


@given(st.floats(min_value=1e-6, max_value=0.5))
@settings(max_examples=100, deadline=None)
def test_margin_tail_prob_property(eta: float):
    m = compute_margins(one_row(), GaussianSpec.from_covariance(np.eye(1)), eta)
    assert m.tail_probs[0] == pytest.approx(eta, rel=1e-9)


def test_deterministic_rows_flagged():
    # second coordinate carries no uncertainty
    poly = box_polytope(2, 1.0)
    g = GaussianSpec.from_covariance(np.diag([1.0, 0.0]))
    m = compute_margins(poly, g, 0.05)
    assert list(m.stochastic) == [True, False, True, False]
    assert m.delta[1] == 0.0
    assert np.isinf(m.beta[1])
    assert m.tail_probs[1] == 0.0
    assert m.tail_probs[0] == pytest.approx(0.05, rel=1e-10)


def test_a_row_the_draws_cannot_see_is_deterministic():
    # sigma of the second row is 1e-7 of the first's, far above zero, but
    # its variance 1e-14 is below the support cut, so its row of the draw
    # factor is zero: the draws leave it alone, and so must the margins
    poly = FeasibilityPolytope(normals=np.array([[1.0, 0.0], [0.0, 1e-7]]),
                               offsets=np.ones(2), labels=(("row", 0), ("row", 1)))
    g = GaussianSpec.from_covariance(np.eye(2))
    m = compute_margins(poly, g, 0.05)
    assert m.sigma[1] == 1e-7 and not m.draw_factor[1].any()
    assert list(m.stochastic) == [True, False]
    assert m.delta[1] == 0.0
    mixture = build_mixture(poly, m, g)
    assert mixture.n_components == 1
    offsets = scenario_offsets(poly, m, mixture, "sa-is", 200, seed=0)
    assert offsets[1] == 1.0
    assert offsets[0] <= 1.0 - m.delta[0]


def test_a_row_with_split_variance_is_refused_by_name():
    # rows 1 and 2 put variance 1.2e-12 on a direction the draws keep and
    # 0.4e-12 on one rank_factor's cut drops: B_i passes the stochastic
    # cut, but ||B_i|| = 1.10e-6 against sigma_i = 1.26e-6, so no draw has
    # their law. compute_margins names both rows; row 0 is sound
    a, c = np.sqrt(1.2e-12), np.sqrt(0.4e-12)
    poly = FeasibilityPolytope(normals=np.array([[1.0, 0.0, 0.0], [0.0, a, c], [0.0, a, -c]]),
                               offsets=np.ones(3),
                               labels=(("row", 0), ("injection-upper", 7), ("injection-lower", 7)))
    with pytest.raises(ValueError, match=r"^rows injection-upper 7, injection-lower 7 split "):
        compute_margins(poly, GaussianSpec.from_covariance(np.eye(3)), 0.05)


@pytest.mark.parametrize("sigma", [0.03, 0.07, 0.2])
@pytest.mark.parametrize("case_name", ["case30", "case57"])
def test_bundled_rows_show_the_draws_their_whole_spread(request, case_name, sigma):
    # on every stochastic row of the bundled cases ||B_i|| equals sigma_i
    # to rounding (at most 6.7e-16 relative, on case57), far inside the
    # unit tolerance the split-variance refusal reads
    case = request.getfixturevalue(case_name)
    m = compute_margins(build_polytope(case, build_matrices(case)),
                        build_uncertainty(case, sigma), 0.05)
    rows = m.stochastic
    assert rows.any()
    ratio = np.linalg.norm(m.draw_factor[rows], axis=1) / m.sigma[rows]
    assert np.max(np.abs(ratio - 1.0)) <= 4 * np.finfo(float).eps


def test_tightened_polytope_offsets():
    poly = box_polytope(3, 2.0)
    m = compute_margins(poly, iid_gaussian(3), 0.05)
    pm = tightened_polytope(poly, m)
    np.testing.assert_allclose(pm.offsets, poly.offsets - m.delta)
    assert pm.labels == poly.labels
    np.testing.assert_array_equal(pm.normals, poly.normals)
    with pytest.raises(ValueError, match="rows"):
        tightened_polytope(box_polytope(2, 1.0), m)


# ---------------------------------------------------------------------------
# inner set membership and probability

def test_contains_inner_single_and_batch():
    poly = box_polytope(2, 5.0)
    m = compute_margins(poly, iid_gaussian(2), 0.05)
    assert contains_inner(m, poly, np.zeros(2))
    assert contains_inner(m, poly, np.full(2, Z_95 - 1e-6))
    assert not contains_inner(m, poly, np.array([Z_95 + 1e-6, 0.0]))
    batch = np.array([[0.0, 0.0], [Z_95 + 1e-6, 0.0], [0.0, -Z_95 - 1e-6]])
    out = contains_inner(m, poly, batch)
    assert out.dtype == bool
    assert list(out) == [True, False, False]


def test_contains_inner_shape_mismatch():
    poly = box_polytope(2, 5.0)
    m = compute_margins(poly, iid_gaussian(2), 0.05)
    with pytest.raises(ValueError, match="polytope"):
        contains_inner(m, box_polytope(3, 5.0), np.zeros(3))


def test_union_bound_single_row():
    m = compute_margins(one_row(), GaussianSpec.from_covariance(np.eye(1)), 0.05)
    assert estimate_pi(m) == pytest.approx(0.95, rel=1e-10)


def test_union_bound_sums_rows_and_clips():
    poly = box_polytope(2, 9.0)
    g = iid_gaussian(2)
    assert estimate_pi(compute_margins(poly, g, 0.05)) == pytest.approx(1.0 - 4 * 0.05, rel=1e-9)
    assert estimate_pi(compute_margins(poly, g, 0.4)) == 0.0
    # two identical rows: the union bound counts their one tail twice
    twin = FeasibilityPolytope(
        normals=np.array([[1.0], [1.0]]),
        offsets=np.array([3.0, 3.0]),
        labels=(("row", 0), ("row", 1)),
    )
    m = compute_margins(twin, GaussianSpec.from_covariance(np.eye(1)), 0.1)
    assert estimate_pi(m) == pytest.approx(0.8, rel=1e-9)


def test_margin_set_arrays_read_only():
    m = compute_margins(one_row(), iid_gaussian(1), 0.05)
    with pytest.raises(ValueError):
        m.delta[0] = 0.0


def test_threshold_matches_isf():
    # beta equals the upper quantile exactly, shared across rows
    poly = box_polytope(3, 2.0)
    m = compute_margins(poly, iid_gaussian(3, sigma=0.3), 0.07)
    assert np.all(m.beta == float(norm_isf(0.07)))
    np.testing.assert_allclose(norm_sf(m.beta), 0.07, rtol=1e-12)
