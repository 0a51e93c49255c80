"""Tail mixture construction, sampling, and importance ratios."""
from __future__ import annotations

import numpy as np
import pytest

from ccopf import (
    FeasibilityPolytope,
    GaussianSpec,
    MarginSet,
    MixtureSampler,
    build_matrices,
    build_mixture,
    build_polytope,
    build_uncertainty,
    compute_margins,
    importance_ratio,
    mixture_pdf,
    prepare_problem,
    sample_mixture_batch,
)
from ccopf.kernels import norm_sf
from conftest import box_polytope, iid_gaussian


def simple_mixture(n: int = 3, eta: float = 0.05, sigma: float = 0.5):
    poly = box_polytope(n, 2.0)
    g = iid_gaussian(n, sigma=sigma)
    m = compute_margins(poly, g, eta)
    return build_mixture(poly, m, g), poly, m, g


def bus_draws(ms, n, seed):
    """n mixture draws mapped to the buses by the mixture's own map, and their components."""
    w, comps = sample_mixture_batch(ms, n, np.random.default_rng(seed))
    return ms.to_buses(w), comps


def two_threshold_mixture():
    """Hand-built margins with thresholds 1 and 2 on orthogonal rows.

    Under the iid model U is the identity, so the row factor R = W U,
    and with it the draw factor B, is the identity too.
    """
    normals = np.eye(2)
    sigma = np.ones(2)
    beta = np.array([1.0, 2.0])
    m = MarginSet(
        delta=beta * sigma,
        beta=beta,
        sigma=sigma,
        draw_factor=np.eye(2),
    )
    poly = FeasibilityPolytope(
        normals=normals.copy(),
        offsets=np.array([5.0, 5.0]),
        labels=(("row", 0), ("row", 1)),
    )
    g = iid_gaussian(2)
    return build_mixture(poly, m, g), poly, m, g


# ---------------------------------------------------------------------------
# construction

def test_uniform_thresholds_give_uniform_weights():
    ms, poly, m, _ = simple_mixture()
    assert ms.n_components == poly.n_rows == 6
    np.testing.assert_allclose(ms.weights, 1.0 / 6.0, rtol=1e-12)
    assert ms.M == pytest.approx(6.0, rel=1e-12)
    assert ms.row_indices == tuple(range(6))
    np.testing.assert_allclose(ms.tail_probs, m.tail_probs, rtol=1e-15)


def test_unequal_thresholds_weight_near_rows_more():
    ms, *_ = two_threshold_mixture()
    # weights are tail masses normalised: sf(1), sf(2)
    np.testing.assert_allclose(ms.weights, [0.874589545189832, 0.12541045481016802], rtol=1e-12)
    assert ms.M == pytest.approx(1.1433934986988066, rel=1e-12)
    assert ms.weights[0] > ms.weights[1]
    p = norm_sf(ms.thresholds)
    np.testing.assert_allclose(ms.weights, p / np.sum(p), rtol=1e-12)
    assert ms.M == pytest.approx(float(np.sum(p) / np.max(p)), rel=1e-12)


def test_directions_are_unit_vectors():
    ms, poly, m, _ = simple_mixture(sigma=0.3)
    np.testing.assert_allclose(np.linalg.norm(ms.reduced_directions, axis=1), 1.0, rtol=1e-12)


def test_deterministic_rows_get_no_component():
    poly = box_polytope(3, 2.0)
    g = GaussianSpec.from_covariance(np.diag([1.0, 0.0, 1.0]))
    m = compute_margins(poly, g, 0.05)
    ms = build_mixture(poly, m, g)
    assert ms.n_components == 4
    assert ms.row_indices == (0, 2, 3, 5)
    assert ms.reduced_dim == 2


def test_all_deterministic_rejected():
    # no stochastic row: the mixture is empty (K = 0, S = 0), which
    # certifies without a draw, and drawing from it is refused
    poly = box_polytope(2, 1.0)
    g = GaussianSpec.from_covariance(np.zeros((2, 2)))
    m = compute_margins(poly, g, 0.05)
    ms = build_mixture(poly, m, g)
    assert ms.n_components == 0
    assert ms.tail_mass == 0.0
    with pytest.raises(ValueError, match="the mixture is empty: it has no component"):
        sample_mixture_batch(ms, 1, np.random.default_rng(0))


def test_empty_mixture_answers_by_name(case30):
    # at sigma 0 no row is stochastic: the mixture has no component, so
    # no bound M, density, importance ratio or component CDF, and each
    # refuses it with the one message rather than with NumPy's reduction
    # error, a nan and its warning, or a silent inf
    ms = prepare_problem(case30, build_uncertainty(case30, 0.0), 0.05).mixture
    assert (ms.n_components, ms.tail_mass, ms.reduced_dim) == (0, 0.0, 0)
    for read in (lambda: ms.M, lambda: ms.cdf, lambda: mixture_pdf(ms, np.zeros((3, 0))),
                 lambda: mixture_pdf(ms, np.zeros(0)),
                 lambda: importance_ratio(ms, np.zeros((3, 0))),
                 lambda: importance_ratio(ms, np.zeros(0)),
                 lambda: sample_mixture_batch(ms, 5, np.random.default_rng(0))):
        with pytest.raises(ValueError, match="the mixture is empty: it has no component"):
            read()


def test_row_count_mismatch_rejected():
    ms, poly, m, g = simple_mixture()
    with pytest.raises(ValueError, match="does not match"):
        build_mixture(box_polytope(2, 1.0), m, g)


def test_sampler_validation():
    ms, _, _, g = simple_mixture()
    fields = dict(thresholds=ms.thresholds, tail_probs=ms.tail_probs, row_indices=ms.row_indices)
    with pytest.raises(ValueError, match="unit"):
        MixtureSampler(
            reduced_directions=2.0 * ms.reduced_directions, bus_map=g.reduced_factor, **fields
        )
    # bus_map takes the mixture's coordinates to the buses: one column each
    for bus_map in (g.reduced_factor[:, :2], g.reduced_factor[:, 0]):
        with pytest.raises(ValueError, match="bus_map must have 3 columns"):
            MixtureSampler(reduced_directions=ms.reduced_directions, bus_map=bus_map, **fields)


@pytest.mark.parametrize(
    "changes, message",
    [
        ({"reduced_directions": np.array([[np.nan, 0.0]])}, "unit vectors"),
        ({"thresholds": np.array([np.nan])}, "thresholds must be finite"),
        ({"thresholds": np.array([np.inf])}, "thresholds must be finite"),
        ({"tail_probs": np.array([np.nan])}, r"tail probabilities must lie in \(0, 0.5\]"),
    ],
    ids=["nan-direction", "nan-threshold", "inf-threshold", "nan-tail-prob"],
)
def test_sampler_refuses_non_finite_entries(changes, message):
    # each check reads "not inside", so a NaN fails it rather than passing
    fields = dict(reduced_directions=np.array([[1.0, 0.0]]), thresholds=np.array([1.0]),
                  tail_probs=np.array([norm_sf(1.0)]), row_indices=(0,), bus_map=np.eye(2))
    MixtureSampler(**fields)
    with pytest.raises(ValueError, match=message):
        MixtureSampler(**{**fields, **changes})


# ---------------------------------------------------------------------------
# sampling

def test_tail_sample_lands_in_half_space():
    ms, poly, m, _ = simple_mixture(sigma=0.5)
    xi, comps = bus_draws(ms, 200 * ms.n_components, 1)
    assert set(comps.tolist()) == set(range(ms.n_components))
    rows = np.array(ms.row_indices)[comps]
    proj = np.einsum("ij,ij->i", poly.normals[rows], xi)
    assert np.all(proj >= m.delta[rows] - 1e-9)


def test_tail_sample_deep_threshold():
    deep = MarginSet(
        delta=np.array([8.0, 8.0]),
        beta=np.array([8.0, 8.0]),
        sigma=np.ones(2),
        draw_factor=np.eye(2),
    )
    poly = FeasibilityPolytope(
        normals=np.eye(2), offsets=np.array([5.0, 5.0]), labels=(("r", 0), ("r", 1))
    )
    ms = build_mixture(poly, deep, iid_gaussian(2))
    xi, comps = bus_draws(ms, 200, 2)
    assert np.all(np.isfinite(xi))
    for i in range(2):
        rows = xi[comps == i]
        assert rows.shape[0] > 0
        assert np.all(rows[:, i] >= 8.0 - 1e-9)


def test_tail_projection_is_half_normal_at_zero_threshold():
    # threshold 0 turns the axis coordinate into |N(0,1)|
    poly = FeasibilityPolytope(
        normals=np.array([[1.0, 0.0]]), offsets=np.array([4.0]), labels=(("r", 0),)
    )
    g = iid_gaussian(2)
    m = compute_margins(poly, g, 0.5)
    ms = build_mixture(poly, m, g)
    # the one row sees one of the two support directions: the mixture
    # draws in that rank-1 coordinate alone
    assert ms.reduced_dim == 1
    xi, _ = bus_draws(ms, 20_000, 3)
    proj = xi[:, 0]
    assert np.all(proj >= -1e-12)
    assert np.mean(proj) == pytest.approx(np.sqrt(2 / np.pi), abs=0.02)
    # the coordinate no row sees is not drawn
    assert np.all(xi[:, 1] == 0.0)


def test_sample_mixture_component_frequencies():
    ms, poly, m, _ = two_threshold_mixture()
    n = 5000
    xi, comps = bus_draws(ms, n, 4)
    rows = np.array(ms.row_indices)[comps]
    proj = np.einsum("ij,ij->i", poly.normals[rows], xi)
    assert np.all(proj >= m.delta[rows] - 1e-9)
    counts = np.bincount(comps, minlength=2)
    for i in range(2):
        se = np.sqrt(ms.weights[i] * (1 - ms.weights[i]) / n)
        assert counts[i] / n == pytest.approx(ms.weights[i], abs=5 * se)


def test_batch_matches_component_half_spaces():
    # draws come in support coordinates, where each lies beyond its
    # component's threshold; mapped to the buses, beyond its row's margin
    ms, poly, m, g = simple_mixture(sigma=2.0)
    w, comps = sample_mixture_batch(ms, 4000, np.random.default_rng(5))
    assert w.shape == (4000, ms.reduced_dim)
    assert comps.shape == (4000,)
    axis_proj = np.einsum("ij,ij->i", ms.reduced_directions[comps], w)
    assert np.all(axis_proj >= ms.thresholds[comps] - 1e-9)
    proj = np.einsum("ij,ij->i", poly.normals[list(comps)], g.from_reduced(w))
    assert np.all(proj >= m.delta[list(comps)] - 1e-9)


@pytest.mark.parametrize("name", ["two-threshold", "random", "case30", "case57"])
def test_components_are_generator_choice_bit_for_bit(name, request):
    # the stored CDF picks each draw's component from the generator's
    # uniforms as Generator.choice(K, n, p=weights) does, index for index:
    # choice forms the same CDF on every call. A NumPy that changed
    # choice would fail here
    if name == "two-threshold":
        ms = two_threshold_mixture()[0]
    elif name == "random":
        ms = random_polytope_mixture()
    else:
        ms = prepared_mixture(request.getfixturevalue(name))
    assert not ms.cdf.flags.writeable
    for seed in range(200):
        for n in (1, 2, 7, 600, 2048):
            _, comps = sample_mixture_batch(ms, n, np.random.default_rng(seed))
            want = np.random.default_rng(seed).choice(ms.n_components, size=n, p=ms.weights)
            assert comps.dtype == want.dtype
            assert comps.tobytes() == want.tobytes()


def test_batch_is_reproducible():
    ms, *_ = simple_mixture()
    a, ca = sample_mixture_batch(ms, 64, np.random.default_rng(9))
    b, cb = sample_mixture_batch(ms, 64, np.random.default_rng(9))
    np.testing.assert_array_equal(a, b)
    np.testing.assert_array_equal(ca, cb)


def test_batch_size_validated():
    ms, *_ = simple_mixture()
    with pytest.raises(ValueError, match="positive"):
        sample_mixture_batch(ms, 0, np.random.default_rng(0))


def test_singular_support_respected():
    poly = box_polytope(3, 2.0)
    g = GaussianSpec.from_covariance(np.diag([1.0, 0.0, 1.0]))
    m = compute_margins(poly, g, 0.05)
    ms = build_mixture(poly, m, g)
    w, _ = sample_mixture_batch(ms, 500, np.random.default_rng(6))
    assert w.shape == (500, 2)
    assert np.all(g.from_reduced(w)[:, 1] == 0.0)


# ---------------------------------------------------------------------------
# density and importance ratio

def test_mixture_pdf_matches_manual_formula():
    ms, *_ = simple_mixture(sigma=1.0)
    w, _ = sample_mixture_batch(ms, 200, np.random.default_rng(7))
    base = (2 * np.pi) ** (-ms.reduced_dim / 2) * np.exp(-0.5 * np.sum(w ** 2, axis=1))
    outside = (w @ ms.reduced_directions.T) > ms.thresholds
    want = base * (outside @ (ms.weights / ms.tail_probs))
    np.testing.assert_allclose(mixture_pdf(ms, w), want, rtol=1e-10)


def test_mixture_pdf_zero_inside_inner_set():
    ms, *_ = simple_mixture(sigma=1.0)
    assert mixture_pdf(ms, np.zeros(ms.reduced_dim)) == 0.0
    assert importance_ratio(ms, np.zeros(ms.reduced_dim)) == np.inf


def test_scores_refuse_rows_of_the_wrong_width(case30):
    # case30's mixture lives in its rows' 23 rank coordinates (its full
    # support); a 30-bus deviation is refused rather than misread
    ms = grid_mixture(case30)
    assert ms.reduced_dim == 23
    xi = ms.to_buses(sample_mixture_batch(ms, 4, np.random.default_rng(14))[0])
    assert xi.shape == (4, 30)
    for score in (mixture_pdf, importance_ratio):
        with pytest.raises(ValueError, match="23 rank coordinates"):
            score(ms, xi)
        with pytest.raises(ValueError, match="23 rank coordinates"):
            score(ms, xi[0])


def test_importance_ratio_identity():
    ms, *_ = simple_mixture(sigma=1.0)
    w, _ = sample_mixture_batch(ms, 300, np.random.default_rng(8))
    ratio = importance_ratio(ms, w)
    violated = (w @ ms.reduced_directions.T) > ms.thresholds
    want = 1.0 / (violated @ (ms.weights / ms.tail_probs))
    np.testing.assert_allclose(ratio, want, rtol=1e-12)
    # every mixture draw violates something, so ratios stay finite
    assert np.all(np.isfinite(ratio))
    assert np.all(ratio <= ms.M + 1e-9)


def random_polytope_mixture():
    """Acceptance criterion 3's random polytope at eta 0.05."""
    rng = np.random.default_rng(31)
    raw = rng.standard_normal((10, 5))
    poly = FeasibilityPolytope(
        normals=raw / np.linalg.norm(raw, axis=1, keepdims=True),
        offsets=rng.uniform(0.5, 2.0, size=10),
        labels=tuple(("injection-upper", i) for i in range(10)),
    )
    g = iid_gaussian(5)
    return build_mixture(poly, compute_margins(poly, g, 0.05), g)


def grid_mixture(case):
    poly = build_polytope(case, build_matrices(case))
    g = build_uncertainty(case, 0.07)
    return build_mixture(poly, compute_margins(poly, g, 0.05), g)


def test_importance_ratio_bounded_by_m(case30):
    # the ratio is S / |A| for total tail mass S and the set A of
    # half-spaces holding the draw: never above S, equal to it on draws
    # in exactly one half-space, and so never above M = S / max(p)
    for ms in (two_threshold_mixture()[0], random_polytope_mixture(), grid_mixture(case30)):
        w, _ = sample_mixture_batch(ms, 4000, np.random.default_rng(10))
        ratio = importance_ratio(ms, w)
        s = float(np.sum(ms.tail_probs))
        assert np.all(ratio <= s * (1.0 + 1e-12))
        proj = w @ ms.reduced_directions.T
        single = np.count_nonzero(proj > ms.thresholds, axis=1) == 1
        assert np.any(single)
        np.testing.assert_allclose(ratio[single], s, rtol=1e-12)
        assert np.all(ratio <= ms.M + 1e-12)


def prepared_mixture(case):
    return prepare_problem(case, build_uncertainty(case, 0.07), 0.05).mixture


@pytest.mark.parametrize("name", ["case30", "case57"])
def test_weights_and_bound_are_closed_forms_of_tail_probs(name, request):
    # the sa-is stream draws components with these exact weights
    ms = prepared_mixture(request.getfixturevalue(name))
    s = float(np.sum(ms.tail_probs))
    assert ms.tail_mass == s
    np.testing.assert_array_equal(ms.weights, ms.tail_probs / s)
    assert ms.M == s / float(np.max(ms.tail_probs))
    assert not ms.weights.flags.writeable


@pytest.mark.parametrize("name", ["case30", "case57"])
def test_importance_ratio_is_tail_mass_over_count(name, request):
    ms = prepared_mixture(request.getfixturevalue(name))
    w, _ = sample_mixture_batch(ms, 2000, np.random.default_rng(13))
    count = np.count_nonzero(w @ ms.reduced_directions.T > ms.thresholds, axis=1)
    np.testing.assert_array_equal(importance_ratio(ms, w), float(np.sum(ms.tail_probs)) / count)


def test_scalar_batch_consistency():
    ms, *_ = simple_mixture()
    w, _ = sample_mixture_batch(ms, 5, np.random.default_rng(11))
    batch_pdf = mixture_pdf(ms, w)
    batch_ratio = importance_ratio(ms, w)
    for j in range(5):
        assert mixture_pdf(ms, w[j]) == pytest.approx(batch_pdf[j], rel=1e-14)
        assert importance_ratio(ms, w[j]) == pytest.approx(batch_ratio[j], rel=1e-14)
    assert isinstance(mixture_pdf(ms, w[0]), float)


def test_mixture_pdf_against_gaussian_oracle():
    # on the violation region of a single row, q is the restricted normal
    # density divided by the tail mass
    from scipy.stats import multivariate_normal

    poly = FeasibilityPolytope(
        normals=np.array([[1.0, 0.0]]), offsets=np.array([4.0]), labels=(("r", 0),)
    )
    g = iid_gaussian(2)
    m = compute_margins(poly, g, 0.05)
    ms = build_mixture(poly, m, g)
    # the row sees one support direction, so the mixture lives on that
    # one rank coordinate, whose unit axis the bus map takes to the row's
    # normal: the density at w is the 1-D normal density at w
    assert ms.reduced_dim == 1
    w = 2.5 * ms.reduced_directions[0]
    point = ms.to_buses(w)
    assert np.all(poly.normals @ point > m.delta)
    np.testing.assert_allclose(point, [2.5, 0.0], rtol=0, atol=1e-15)
    want = multivariate_normal(mean=np.zeros(1), cov=np.eye(1)).pdf(w) / ms.tail_probs[0]
    assert mixture_pdf(ms, w) == pytest.approx(float(want), rel=1e-10)
