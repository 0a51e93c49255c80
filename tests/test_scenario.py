"""Certified sample sizes, scenario reduction, and the dispatch LP."""
from __future__ import annotations

import math
import threading
import tracemalloc
from concurrent.futures import ThreadPoolExecutor
from dataclasses import fields, replace
from types import SimpleNamespace

import mpmath
import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st
from scipy.optimize import linprog
from scipy.sparse import csc_array

import ccopf.scenario as scenario
from ccopf import cli, kernels
from ccopf import (
    ExperimentConfig,
    GaussianSpec,
    MixtureSampler,
    ScenarioSet,
    assemble,
    build_matrices,
    build_mixture,
    build_polytope,
    build_uncertainty,
    certified_count,
    compute_margins,
    contains_inner,
    draw_gaussian_scenarios,
    draw_mixture_scenarios,
    nominal_scenario_set,
    parse_case,
    prepare_problem,
    reduce_scenarios,
    run_sa,
    run_sa_is,
    sample_mixture_batch,
    sample_size_cc,
    sample_size_exact,
    sample_size_filtered,
    sample_size_is,
    scenario_offsets,
    solve,
    solve_prepared,
    tightened_polytope,
)
from ccopf.scenario import SolverError, _support_draws, chunk_sizes
from ccopf.validation import resolve_scenario_count
from conftest import TRIANGLE_TEXT, box_polytope, iid_gaussian

# frozen with 50-digit arithmetic; the formulas must reproduce these exactly
CC_SIZES = [
    (0.1, 0.01, 2, 216),
    (0.05, 0.01, 5, 932),
    (0.05, 0.001, 5, 1025),
    (0.2, 0.1, 1, 49),
    (0.01, 0.05, 10, 11216),
    (0.5, 0.5, 3, 26),
    (0.05, 0.05, 6, 1018),
]
FILTERED_SIZES = [
    (0.05, 0.01, 5, 0.9, 57),
    (0.05, 0.01, 5, 0.0, 932),
    (0.1, 0.05, 3, 0.5, 106),
    (0.01, 0.01, 8, 0.99, 37),
    (0.5, 0.1, 2, 0.25, 18),
    (0.05, 0.001, 12, 0.7, 465),
    (0.2, 0.2, 4, 0.999, 8),
]
IS_SIZES = [
    (0.05, 0.05, 5, 0.9, 10.0, 868),
    (0.05, 0.01, 5, 0.9, 1.0, 57),
    (0.1, 0.01, 3, 0.0, 2.0, 633),
    (0.01, 0.05, 6, 0.95, 25.0, 9044),
    (0.5, 0.5, 1, 0.5, 1.5, 8),
    (0.05, 0.01, 6, 0.9, 12.0, 1348),
]


# ---------------------------------------------------------------------------
# certified sample sizes

@pytest.mark.parametrize("epsilon, delta, d, want", CC_SIZES)
def test_classical_sizes(epsilon, delta, d, want):
    assert sample_size_cc(epsilon, delta, d) == want


@pytest.mark.parametrize("eta, delta, d, pi, want", FILTERED_SIZES)
def test_filtered_sizes(eta, delta, d, pi, want):
    assert sample_size_filtered(eta, delta, d, pi) == want


@pytest.mark.parametrize("eta, delta, d, pi, M, want", IS_SIZES)
def test_importance_sizes(eta, delta, d, pi, M, want):
    assert sample_size_is(eta, delta, d, pi, M) == want


def test_filtered_reduces_to_classical():
    for eta, delta, d, _ in CC_SIZES:
        assert sample_size_filtered(eta, delta, d, 0.0) == sample_size_cc(eta, delta, d)


def test_is_reduces_to_filtered():
    for eta, delta, d, pi, _ in FILTERED_SIZES:
        assert sample_size_is(eta, delta, d, pi, 1.0) == sample_size_filtered(eta, delta, d, pi)


def test_size_monotone_in_dimension_and_pi():
    base = sample_size_filtered(0.05, 0.01, 4, 0.5)
    assert sample_size_filtered(0.05, 0.01, 5, 0.5) > base
    assert sample_size_filtered(0.05, 0.01, 4, 0.6) <= base
    assert sample_size_is(0.05, 0.01, 4, 0.5, 2.0) >= base


@given(
    st.floats(min_value=0.01, max_value=0.5),
    st.floats(min_value=0.001, max_value=0.5),
    st.integers(min_value=1, max_value=40),
    st.floats(min_value=0.0, max_value=0.999),
    st.floats(min_value=1.0, max_value=50.0),
)
@settings(max_examples=150, deadline=None)
def test_size_ordering_property(eta, delta, d, pi, M):
    # covering mass never hurts, and the exact reductions hold everywhere;
    # the importance bound is not monotone in M for tiny scaled tail mass,
    # so no ordering against the filtered bound is asserted
    filtered = sample_size_filtered(eta, delta, d, pi)
    assert filtered <= sample_size_cc(eta, delta, d)
    assert sample_size_is(eta, delta, d, pi, 1.0) == filtered
    assert sample_size_is(eta, delta, d, pi, M) >= d


# criterion 4's grid, then the bundled cases' sa-is levels 1 / K at eta
# 0.05 (K = 92 rows and d = 5 on case30, K = 14 and d = 6 on case57)
EXACT_ARGS = [args[:3] for args in CC_SIZES] + [
    (eps, 0.01, d) for eps in (1 / 92, 1 / 14) for d in (5, 6)
]


@pytest.mark.parametrize("epsilon, delta, d", EXACT_ARGS)
def test_exact_size_is_the_smallest_meeting_the_binomial_condition(epsilon, delta, d):
    n = sample_size_exact(epsilon, delta, d)
    assert kernels.binom_cdf(d - 1, n, epsilon) <= delta
    assert kernels.binom_cdf(d - 1, n - 1, epsilon) > delta
    assert d <= n <= sample_size_cc(epsilon, delta, d)


def test_exact_size_at_unit_level_is_the_dimension():
    # one stochastic row at S = eta: every draw lands in its tail
    for d in (1, 5, 40):
        assert sample_size_exact(1.0, 0.01, d) == d


@pytest.mark.parametrize("eta, delta, d", [(0.05, 0.01, 5), (1e-3, 0.01, 6), (1e-6, 1e-3, 1)])
def test_certified_count_is_zero_up_to_eta_and_exact_above(eta, delta, d):
    # P(V) <= S Q(V) <= S, so a mass at or below eta needs no draw, where
    # the exact count at level eta / S = 1 would still ask for d
    for mass in (0.0, eta / 7, eta):
        assert certified_count(eta, delta, d, mass) == 0
    assert sample_size_exact(eta / eta, delta, d) == d
    for mass in (math.nextafter(eta, 1.0), 1.5 * eta, 14 * eta, 92 * eta, 0.5, 1.0):
        assert certified_count(eta, delta, d, mass) == sample_size_exact(eta / mass, delta, d)


@pytest.mark.parametrize("args", [
    (0.05, 0.01, 2, -0.1),
    (0.05, 0.01, 2, math.inf),
    (0.05, 0.01, 2, math.nan),
    (0.0, 0.01, 2, 0.0),  # refused even where no draw is needed
    (0.05, 1.0, 2, 0.0),
    (0.05, 0.01, 0, 0.0),
    (1e-320, 0.01, 2, 1.0),  # the closed form overflows
])
def test_certified_count_argument_validation(args):
    with pytest.raises(ValueError):
        certified_count(*args)


@given(
    st.floats(min_value=1e-4, max_value=0.999),
    st.floats(min_value=1e-6, max_value=0.999),
    st.integers(min_value=1, max_value=60),
)
@settings(max_examples=150, deadline=None)
def test_exact_size_never_exceeds_the_closed_form(epsilon, delta, d):
    assert d <= sample_size_exact(epsilon, delta, d) <= sample_size_cc(epsilon, delta, d)


# table B's points: (k = d - 1, n, p) for case30 sa-is and case57 sa-is at
# eta 0.05, and case30 sa at eta 1e-3; then ten stitched case30 copies'
# sa-is count (d = 59, K = 920 rows at eta 0.05, so p = 1 / 920); then
# points where t_0 = (1 - p)**n underflows (n log1p(-p) = -990.5) and the
# CDF is still far from 0
BINOM_POINTS = [(4, 1064, 1 / 92), (5, 180, 1 / 14), (4, 11601, 1e-3), (58, 72049, 1 / 920),
                (950, 990_000, 1e-3), (990, 990_000, 1e-3), (1050, 990_000, 1e-3)]


@pytest.mark.parametrize("k, n, p", BINOM_POINTS)
def test_binomial_cdf_matches_mpmath(k, n, p):
    with mpmath.workdps(40):
        q = mpmath.mpf(p)  # the double's exact value
        want = mpmath.fsum(
            mpmath.binomial(n, j) * q**j * (1 - q) ** (n - j) for j in range(k + 1)
        )
        assert abs(kernels.binom_cdf(k, n, p) - want) <= 1e-12 * want


def test_binomial_cdf_edges_and_broadcasting():
    assert kernels.binom_cdf(5, 5, 0.3) == 1.0  # k = n
    assert kernels.binom_cdf(3, 10, 0.0) == 1.0
    assert kernels.binom_cdf(3, 10, 1.0) == 0.0
    assert kernels.binom_cdf(0, 10, 0.5) == 0.5**10
    assert all(math.isnan(kernels.binom_cdf(3, 10, p)) for p in (-0.1, 1.1, math.nan))
    # t_0 = exp(-1000) and the CDF, about exp(-976), both underflow
    assert kernels.binom_cdf(4, 10**7, 1e-4) == 0.0
    got = kernels.binom_cdf(np.array([[4], [5]]), np.array([1064, 180]), 1 / 92)
    assert got.shape == (2, 2)
    assert got[1, 0] == kernels.binom_cdf(5, 1064, 1 / 92)


def test_exact_counts_match_the_scipy_betaincc_count(monkeypatch):
    # the exact count over a grid of levels, confidences and dimensions,
    # against the same bisection over scipy.special.betaincc
    special = pytest.importorskip("scipy.special")
    grid = [(eps, delta, d) for eps in (0.2, 0.05, 1 / 14, 0.01, 1 / 92, 1e-3, 1 / 920, 1e-4)
            for delta in (0.1, 0.01, 1e-3, 1e-6) for d in (1, 2, 5, 6, 17, 59)]
    ours = [sample_size_exact(*args) for args in grid]
    monkeypatch.setattr(
        scenario, "binom_cdf", lambda k, n, p: special.betaincc(k + 1.0, float(n) - k, p)
    )
    assert [sample_size_exact(*args) for args in grid] == ours


@pytest.mark.parametrize(
    "call",
    [
        lambda: sample_size_cc(0.0, 0.01, 2),
        lambda: sample_size_cc(1.0, 0.01, 2),
        lambda: sample_size_cc(0.05, 0.0, 2),
        lambda: sample_size_cc(0.05, 1.0, 2),
        lambda: sample_size_cc(0.05, 0.01, 0),
        lambda: sample_size_filtered(0.05, 0.01, 2, -0.1),
        lambda: sample_size_filtered(0.05, 0.01, 2, 1.0),
        lambda: sample_size_is(0.05, 0.01, 2, 0.5, 0.99),
        lambda: sample_size_is(0.05, 0.01, 2, 0.5, math.inf),
        lambda: sample_size_is(0.05, 0.01, 2, 0.5, math.nan),
        lambda: sample_size_is(0.05, 0.01, 2, 0.5, 1e308),  # finite, but the count overflows
        lambda: sample_size_exact(0.0, 0.01, 2),
        lambda: sample_size_exact(1.5, 0.01, 2),
        lambda: sample_size_exact(math.nan, 0.01, 2),
        lambda: sample_size_exact(0.05, 0.0, 2),
        lambda: sample_size_exact(0.05, 1.0, 2),
        lambda: sample_size_exact(0.05, 0.01, 0),
        lambda: sample_size_exact(1e-320, 0.01, 2),  # the closed form overflows
    ],
)
def test_size_argument_validation(call):
    with pytest.raises(ValueError):
        call()


# ---------------------------------------------------------------------------
# scenario sets

def test_nominal_set_is_single_zero():
    scen = nominal_scenario_set(4)
    assert scen.n == 1
    assert scen.origin == "nominal"
    np.testing.assert_array_equal(scen.scenarios, np.zeros((1, 4)))


def test_gaussian_scenarios_reproducible():
    g = iid_gaussian(3, sigma=0.2)
    a = draw_gaussian_scenarios(g, 500, seed=7)
    b = draw_gaussian_scenarios(g, 500, seed=7)
    c = draw_gaussian_scenarios(g, 500, seed=8)
    assert a.origin == "gaussian"
    assert a.scenarios.shape == (500, 3)
    np.testing.assert_array_equal(a.scenarios, b.scenarios)
    assert not np.array_equal(a.scenarios, c.scenarios)
    assert np.std(a.scenarios) == pytest.approx(0.2, rel=0.1)


@pytest.mark.parametrize("case_name", ["case30", "case57"])
def test_gaussian_draws_take_reduced_dim_normals(request, case_name):
    # the bus-space reference: reduced_dim normals per deviation, mapped
    # through the reduced factor, with nothing drawn for zero-variance buses
    case = request.getfixturevalue(case_name)
    g = build_uncertainty(case, 0.07)
    assert g.reduced_dim == {"case30": 23, "case57": 41}[case_name]
    # over two blocks, the one-shot stream: sequential normals concatenate
    n = scenario.CHUNK + 5
    want = np.random.default_rng(11).standard_normal((n, g.reduced_dim)) @ g.reduced_factor.T
    np.testing.assert_array_equal(draw_gaussian_scenarios(g, n, 11).scenarios, want)


@pytest.mark.parametrize("rho", [0.5, 0.9])
@pytest.mark.parametrize("case_name", ["case30", "case57"])
def test_correlated_covariance_prepares_and_solves(request, case_name, rho):
    # one factor decides which rows are stochastic, so a correlated,
    # rank-deficient covariance gives unit mixture axes
    case = request.getfixturevalue(case_name)
    s = np.sqrt(np.diag(build_uncertainty(case, 0.07).cov))
    g = GaussianSpec.from_covariance(rho * np.outer(s, s) + (1.0 - rho) * np.diag(s**2))
    prep = prepare_problem(case, g, 0.05)
    if case_name == "case30":
        assert prep.mixture.n_components == 92
    axes = np.linalg.norm(prep.mixture.reduced_directions, axis=1)
    np.testing.assert_allclose(axes, 1.0, rtol=0, atol=1e-12)
    for method in ("sa", "sa-is"):
        sol = solve_prepared(prep, method, 200, seed=0)
        assert sol.status in ("optimal", "infeasible")


@pytest.mark.parametrize("rho", [None, 0.5, 0.9])
@pytest.mark.parametrize("case_name", ["case30", "case57"])
def test_row_geometry_has_one_source(request, case_name, rho):
    # row sigmas come from the margins' R = W U and the mixture axes from
    # its rank factor B = R V_k, and equal, bit for bit, what separate
    # products of W, U and V_k gave; case30's R has full column rank, so
    # there B is R, and case57's 14 rows see 7 of 41 support directions
    case = request.getfixturevalue(case_name)
    g = build_uncertainty(case, 0.07)
    if rho is not None:
        s = np.sqrt(np.diag(g.cov))
        g = GaussianSpec.from_covariance(rho * np.outer(s, s) + (1.0 - rho) * np.diag(s**2))
    prep = prepare_problem(case, g, 0.05)
    m, poly = prep.margins, prep.poly
    np.testing.assert_array_equal(m.row_factor, poly.normals @ g.reduced_factor)
    np.testing.assert_array_equal(m.sigma, np.linalg.norm(m.row_factor, axis=1))
    assert (m.rank_basis is None) == (case_name == "case30")
    b = poly.normals @ g.reduced_factor
    if m.rank_basis is not None:
        assert m.rank_basis.shape == (41, 7)
        b = b @ m.rank_basis
    rows = np.array(prep.mixture.row_indices)
    np.testing.assert_array_equal(
        prep.mixture.reduced_directions, b[rows] / m.sigma[rows][:, None]
    )
    assert "tightened" not in {f.name for f in fields(prep)}


def _one_factor(g, rho):
    s = np.sqrt(np.diag(g.cov))
    return GaussianSpec.from_covariance(rho * np.outer(s, s) + (1.0 - rho) * np.diag(s**2))


@pytest.mark.parametrize("rho", [None, 0.5])
@pytest.mark.parametrize("case_name", ["case30", "case57"])
def test_draw_factor_reproduces_the_rows_covariance(request, case_name, rho):
    # B = R V_k has rank R columns and B B' = R R' to rounding; case57's
    # rows see 7 of the 41 support directions, with or without correlation
    case = request.getfixturevalue(case_name)
    g = build_uncertainty(case, 0.07)
    if rho is not None:
        g = _one_factor(g, rho)
    m = prepare_problem(case, g, 0.05).margins
    r, b = m.row_factor, m.draw_factor
    assert b.shape == (r.shape[0], np.linalg.matrix_rank(r))
    assert b.shape[1] == {"case30": 23, "case57": 7}[case_name]
    assert r.shape[1] == {"case30": 23, "case57": 41}[case_name]
    gram = r @ r.T
    np.testing.assert_allclose(b @ b.T, gram, rtol=0, atol=1e-14 * np.max(np.abs(gram)))
    assert not b.flags.writeable


def test_draw_factor_is_empty_without_uncertainty(case30, capsys):
    # at sigma 0 no bus fluctuates: R and B have no column and every row is
    # deterministic, and a run still solves every method
    m = prepare_problem(case30, build_uncertainty(case30, 0.0), 0.05).margins
    n_rows = m.delta.shape[0]
    assert m.row_factor.shape == m.draw_factor.shape == (n_rows, 0)
    np.testing.assert_array_equal(m.draw_factor @ m.draw_factor.T, np.zeros((n_rows, n_rows)))
    args = ["run", "--case", "case30", "--method", "dc-opf,sa,sa-is", "--sigma", "0",
            "--scenarios", "50", "--reps", "2", "--ntest", "100"]
    assert cli.main(args) == 0
    capsys.readouterr()


def test_draw_factor_keeps_paired_rows_exact_negatives(case57):
    # case57's rows are the upper and lower injection limits of 7 buses,
    # in that order; B keeps each pair exact negatives, bit for bit, as R does
    prep = _prepared(case57)
    labels = prep.poly.labels
    assert [kind for kind, _ in labels] == ["injection-upper"] * 7 + ["injection-lower"] * 7
    assert [bus for _, bus in labels[:7]] == [bus for _, bus in labels[7:]]
    r, b = prep.margins.row_factor, prep.margins.draw_factor
    np.testing.assert_array_equal(r[:7], -r[7:])
    np.testing.assert_array_equal(b[:7], -b[7:])


def test_mixture_scenarios_tagged_with_components():
    poly = box_polytope(2, 2.0)
    g = iid_gaussian(2)
    m = compute_margins(poly, g, 0.05)
    ms = build_mixture(poly, m, g)
    scen = draw_mixture_scenarios(ms, 100, seed=3)
    assert scen.origin == "mixture"
    assert not np.any(contains_inner(m, poly, scen.scenarios))


def test_scenario_set_validation():
    with pytest.raises(ValueError):
        ScenarioSet(scenarios=np.zeros((0, 2)), origin="gaussian", seed=None)
    with pytest.raises(ValueError):
        ScenarioSet(scenarios=np.zeros(3), origin="gaussian", seed=None)
    with pytest.raises(ValueError):
        ScenarioSet(scenarios=np.zeros((2, 2)), origin="bootstrap", seed=None)


def test_reduce_scenarios_oracle():
    rng = np.random.default_rng(12)
    poly = box_polytope(3, 2.0)
    scen = ScenarioSet(scenarios=rng.standard_normal((40, 3)), origin="gaussian", seed=None)
    reduced = reduce_scenarios(poly, scen)
    want = poly.offsets - np.max(scen.scenarios @ poly.normals.T, axis=0)
    np.testing.assert_array_equal(reduced, want)
    # tighter than or equal to the originals
    assert np.all(reduced <= poly.offsets + 1e-15)


def test_reduce_scenarios_bus_mismatch():
    scen = nominal_scenario_set(2)
    with pytest.raises(ValueError, match="bus"):
        reduce_scenarios(box_polytope(3, 1.0), scen)


def test_zero_scenario_reduction_is_identity():
    poly = box_polytope(4, 1.5)
    np.testing.assert_array_equal(reduce_scenarios(poly, nominal_scenario_set(4)), poly.offsets)


# ---------------------------------------------------------------------------
# dispatch LP

def dispatch(case, scen=None, pm=None):
    mat = build_matrices(case)
    poly = build_polytope(case, mat)
    if scen is None:
        scen = nominal_scenario_set(case.n)
    return solve(assemble(case, mat, poly, scen, pm=pm))


def test_hand_dispatch(triangle):
    # cheap remote generator runs at its 50 MW cap, slack covers the rest
    sol = dispatch(triangle)
    assert sol.status == "optimal"
    np.testing.assert_allclose(sol.x_g, [30.0, 50.0], atol=1e-7)
    assert sol.objective == pytest.approx(10 * 30 + 1 * 50, abs=1e-6)
    np.testing.assert_allclose(sol.injection_pu, [0.3, 0.5, -0.8], atol=1e-9)


def test_objective_matches_cost_recomputation(triangle):
    sol = dispatch(triangle)
    want = sum(g.cost * x for g, x in zip(triangle.generators, sol.x_g))
    assert sol.objective == pytest.approx(want, rel=1e-12)


def test_binding_capacity_row_is_active(triangle):
    mat = build_matrices(triangle)
    poly = build_polytope(triangle, mat)
    lp = assemble(triangle, mat, poly, nominal_scenario_set(3), pm=None)
    sol = solve(lp)
    active_labels = {lp.labels[i] for i in sol.active_rows}
    assert ("injection-upper", 2) in active_labels


def test_infeasible_load_reported(triangle):
    heavy = parse_case(TRIANGLE_TEXT.replace("\t3\t1\t80;", "\t3\t1\t200;"))
    sol = dispatch(heavy)
    assert sol.status == "infeasible"
    assert sol.x_g is None
    assert math.isnan(sol.objective)
    assert sol.injection_pu is None


def test_slack_only_case_has_no_decisions():
    text = TRIANGLE_TEXT.replace("\t2\t50\t50\t0;\n", "").replace(
        "\t2\t0\t0\t2\t1\t0;\n", ""
    )
    solo = parse_case(text.replace("\t2\t2\t0;", "\t2\t1\t0;"))
    assert len(solo.generators) == 1
    sol = dispatch(solo)
    assert sol.status == "optimal"
    np.testing.assert_allclose(sol.x_g, [80.0], atol=1e-9)
    assert sol.objective == pytest.approx(800.0)
    # and the degenerate infeasible variant reports cleanly
    heavy = parse_case(
        text.replace("\t2\t2\t0;", "\t2\t1\t0;").replace("\t3\t1\t80;", "\t3\t1\t150;")
    )
    assert dispatch(heavy).status == "infeasible"


def test_multiple_slack_generators_add_residual_rows():
    text = TRIANGLE_TEXT.replace(
        "\t1\t30\t100\t0;", "\t1\t30\t100\t0;\n\t1\t20\t20\t0;"
    ).replace(
        "\t2\t0\t0\t2\t10\t0;", "\t2\t0\t0\t2\t10\t0;\n\t2\t0\t0\t2\t0.5\t0;"
    )
    case = parse_case(text)
    mat = build_matrices(case)
    poly = build_polytope(case, mat)
    lp = assemble(case, mat, poly, nominal_scenario_set(3), pm=None)
    kinds = {kind for kind, _ in lp.labels}
    assert "residual-upper" in kinds and "residual-lower" in kinds
    sol = solve(lp)
    # gens: residual (bus 1, $10), bus-1 helper at $0.5, bus-2 at $1
    np.testing.assert_allclose(sol.x_g, [10.0, 20.0, 50.0], atol=1e-7)
    assert sol.objective == pytest.approx(10 * 10 + 0.5 * 20 + 1 * 50, abs=1e-6)


def test_slack_without_generator_rejected():
    text = TRIANGLE_TEXT.replace("\t1\t3\t0;", "\t1\t2\t0;").replace(
        "\t3\t1\t80;", "\t3\t3\t80;"
    )
    case = parse_case(text)
    with pytest.raises(ValueError, match="carries no generator"):
        dispatch(case)


def test_scenarios_tighten_dispatch(triangle):
    # adverse deviations force the cheap generator below its cap
    g = iid_gaussian(3, sigma=0.02)
    nominal = dispatch(triangle)
    scen = draw_gaussian_scenarios(g, 200, seed=5)
    tightened = dispatch(triangle, scen=scen)
    assert tightened.status == "optimal"
    assert tightened.objective > nominal.objective + 1.0
    assert tightened.x_g[1] < nominal.x_g[1] - 1.0


def test_margin_polytope_enters_assemble(triangle):
    mat = build_matrices(triangle)
    poly = build_polytope(triangle, mat)
    g = build_triangle_uncertainty(triangle)
    m = compute_margins(poly, g, 0.05)
    pm = tightened_polytope(poly, m)
    lp = assemble(triangle, mat, poly, nominal_scenario_set(3), pm=pm)
    # offsets are the row-wise minimum of reduced and tightened offsets
    base = assemble(triangle, mat, poly, nominal_scenario_set(3), pm=None)
    assert np.all(lp.b_ub <= base.b_ub + 1e-15)


def build_triangle_uncertainty(case):
    from ccopf import build_uncertainty

    return build_uncertainty(case, 0.1)


# ---------------------------------------------------------------------------
# the direct HiGHS call against linprog

LINPROG_STATUS = {0: "optimal", 2: "infeasible", 3: "unbounded"}


def assert_solve_equals_linprog(monkeypatch, lp) -> str:
    """solve(lp) gives linprog's status and, when optimal, its x bitwise.

    linprog statuses outside LINPROG_STATUS must be SolverError. The
    active rows, which solve takes from HiGHS's row activity, are the
    rows whose slack b_ub - a_ub x is at most ACTIVE_TOL.
    """
    decisions = []
    package = scenario._package_solution
    with monkeypatch.context() as m:
        m.setattr(scenario, "_package_solution",
                  lambda lp, x, slack: decisions.append(x) or package(lp, x, slack))
        res = linprog(
            c=lp.cost, A_ub=lp.a_ub, b_ub=lp.b_ub,
            bounds=list(zip(lp.lower, lp.upper)), method="highs",
        )
        if res.status not in LINPROG_STATUS:
            with pytest.raises(SolverError):
                solve(lp)
            return "solver-error"
        sol = solve(lp)
    assert sol.status == LINPROG_STATUS[res.status]
    if sol.status == "optimal":
        assert decisions[0].tobytes() == res.x.tobytes()
        slack = lp.b_ub - lp.a_ub @ res.x
        assert sol.active_rows == tuple(np.nonzero(slack <= scenario.ACTIVE_TOL)[0])
    return sol.status


def prepared(case, eta):
    return prepare_problem(case, build_uncertainty(case, 0.07), eta)


LP_FAMILIES = [
    (case_name, method, 0.05, scenarios)
    for case_name in ("case30", "case57")
    for method in ("sa", "sa-is")
    for scenarios in (600, "auto")
] + [
    # 1,064 mixture draws: extreme tail scenarios empty the feasible set
    # on 1 of seeds 0-7 (6 of them at the closed-form count, 5,656)
    ("case30", "sa-is", 1e-4, "auto"),
]


@pytest.mark.parametrize("case_name, method, eta, scenarios", LP_FAMILIES)
def test_solve_equals_linprog_on_prepared_lps(monkeypatch, request, case_name, method, eta, scenarios):
    case = request.getfixturevalue(case_name)
    prep = prepared(case, eta)
    config = ExperimentConfig(case=case_name, eta=eta, scenarios=scenarios)
    n = resolve_scenario_count(config, case, method, prep)
    lps = []
    with monkeypatch.context() as m:
        m.setattr(scenario, "solve", lps.append)
        for seed in range(8):
            solve_prepared(prep, method, n, seed)
    statuses = [assert_solve_equals_linprog(monkeypatch, lp) for lp in lps]
    if eta < 0.05:
        assert {"optimal", "infeasible"} <= set(statuses)
    else:
        assert set(statuses) == {"optimal"}


def test_solve_equals_linprog_on_an_unbounded_lp(monkeypatch, triangle):
    # a free decision with a negative cost; HiGHS reads row bounds of
    # 1e30 as infinite
    mat = build_matrices(triangle)
    lp = assemble(triangle, mat, build_polytope(triangle, mat), nominal_scenario_set(3))
    free = replace(
        lp, b_ub=np.full_like(lp.b_ub, 1e30), lower=np.array([-np.inf]), upper=np.array([np.inf])
    )
    assert assert_solve_equals_linprog(monkeypatch, free) == "unbounded"


def test_other_model_status_is_a_solver_error(monkeypatch, case30):
    prep = prepared(case30, 0.05)
    scenario._load_highs()  # HIGHS_OPTIONS exists once the binding is loaded
    monkeypatch.setattr(scenario.HIGHS_OPTIONS, "presolve", "off")
    monkeypatch.setattr(scenario.HIGHS_OPTIONS, "simplex_iteration_limit", 0)
    with pytest.raises(SolverError, match="Iteration limit"):
        solve_prepared(prep, "sa-is", 600, 0)


def test_model_rejected_by_highs_is_a_solver_error(triangle):
    # HiGHS refuses a NaN bound and would then solve an empty model
    mat = build_matrices(triangle)
    lp = assemble(triangle, mat, build_polytope(triangle, mat), nominal_scenario_set(3))
    b_ub = lp.b_ub.copy()
    b_ub[0] = np.nan
    with pytest.raises(SolverError, match="rejected"):
        solve(replace(lp, b_ub=b_ub))


def test_solution_off_its_rows_is_a_solver_error(monkeypatch, case30):
    scenario._load_highs()  # highs exists once the binding is loaded

    class LooseRows(scenario.highs._Highs):
        # loads every row 1 p.u. looser than the LP it is checked against
        def passModel(self, *args):
            row_upper = 10
            args = args[:row_upper] + (args[row_upper] + 1.0,) + args[row_upper + 1:]
            return super().passModel(*args)

    prep = prepared(case30, 0.05)
    # a fresh thread-local store, so this thread builds a LooseRows
    # instance; undo puts its own instance back
    monkeypatch.setattr(scenario, "_SOLVER", threading.local())
    monkeypatch.setattr(scenario.highs, "_Highs", LooseRows)
    with pytest.raises(SolverError, match="violates its constraints"):
        solve_prepared(prep, "sa-is", 600, 0)
    monkeypatch.undo()
    assert solve_prepared(prep, "sa-is", 600, 0).status == "optimal"


def test_moved_offsets_copy_the_skeleton_without_checking_it_again(monkeypatch, case30):
    # a solve's LP is the skeleton with a new, read-only b_ub: every other
    # field, the solve's check window among them, is the skeleton's own,
    # and LinearProgram.__post_init__ does not run again
    prep = prepared(case30, 0.05)
    offsets = _offsets(prep, "sa-is", 600, 0)
    monkeypatch.setattr(scenario.LinearProgram, "__post_init__",
                        lambda self: pytest.fail("the skeleton was checked again"))
    lp = scenario._with_offsets(prep.lp, offsets)
    assert all(getattr(lp, f.name) is getattr(prep.lp, f.name)
               for f in fields(lp) if f.name != "b_ub")
    assert not lp.b_ub.flags.writeable
    n = prep.poly.n_rows
    assert lp.b_ub[:n].tobytes() == (offsets - prep.lp.row_shift).tobytes()
    assert lp.b_ub[n:].tobytes() == prep.lp.b_ub[n:].tobytes()
    with pytest.raises(ValueError, match=f"{n} row offsets needed"):
        scenario._with_offsets(prep.lp, offsets[:-1])


def test_solves_share_the_skeleton_columns(monkeypatch, case30):
    built = []
    columns = scenario._columns
    monkeypatch.setattr(scenario, "_columns", lambda a: built.append(1) or columns(a))
    prep = prepared(case30, 0.05)
    lps = []
    monkeypatch.setattr(scenario, "solve", lps.append)
    for seed in range(3):
        solve_prepared(prep, "sa-is", 600, seed)
    assert len(built) == 1
    for lp in lps:
        assert lp.a_value is prep.lp.a_value
        dense = csc_array((lp.a_value, lp.a_index, lp.a_start), shape=lp.a_ub.shape).toarray()
        assert dense.tobytes() == lp.a_ub.tobytes()


def signed_zeros() -> np.ndarray:
    # explicit 0.0 and -0.0 among the nonzeros, an empty first and last
    # column, and a column whose only entry is -0.0
    a = np.zeros((4, 6))
    a[:, 1] = [1.5, 0.0, -0.0, -2.0]
    a[:, 2] = [-0.0, 3.0, 0.0, 4.0]
    a[2, 3] = -0.0
    a[:, 4] = [0.0, -1e-300, 7.0, -0.0]
    return a


@pytest.mark.parametrize("source", ["case30", "case57", "signed-zeros"])
def test_skeleton_columns_equal_scipy_csc(request, source):
    if source == "signed-zeros":
        a = signed_zeros()
        got = scenario._columns(a)
    else:
        lp = prepared(request.getfixturevalue(source), 0.05).lp
        a = lp.a_ub
        got = (lp.a_start, lp.a_index, lp.a_value)
    want = csc_array(a)
    for ours, theirs in zip(got, (want.indptr, want.indices, want.data)):
        assert ours.dtype == theirs.dtype
        assert ours.tobytes() == theirs.tobytes()


# HiGHS's x of each thread's last optimal solve, as bytes (see record_x)
_LAST_X = threading.local()


@pytest.fixture
def record_x(monkeypatch):
    package = scenario._package_solution

    def keep(lp, x, slack):
        _LAST_X.x = x.tobytes()
        return package(lp, x, slack)

    monkeypatch.setattr(scenario, "_package_solution", keep)


def solved_bits(lps) -> list[tuple]:
    """Status, HiGHS's x (None unless optimal) and active rows per LP; needs record_x."""
    bits = []
    for lp in lps:
        _LAST_X.x = None
        sol = solve(lp)
        bits.append((sol.status, _LAST_X.x, sol.active_rows))
    return bits


@pytest.fixture(scope="module")
def mixed_lps(request):
    # seeds 0-7 of the last LP_FAMILIES family mix infeasible and optimal LPs
    case_name, method, eta, scenarios = LP_FAMILIES[-1]
    case = request.getfixturevalue(case_name)
    prep = prepared(case, eta)
    config = ExperimentConfig(case=case_name, eta=eta, scenarios=scenarios)
    n = resolve_scenario_count(config, case, method, prep)
    with pytest.MonkeyPatch.context() as m:
        lps = []
        m.setattr(scenario, "solve", lps.append)
        for seed in range(8):
            solve_prepared(prep, method, n, seed)
    return lps


def fresh_solver_bits(monkeypatch, lps) -> list[tuple]:
    scenario._load_highs()  # the stand-in _highs below loads nothing
    with monkeypatch.context() as m:
        m.setattr(scenario, "_highs", lambda: scenario.highs._Highs())
        return solved_bits(lps)


def test_reused_solver_equals_a_fresh_one(monkeypatch, record_x, mixed_lps):
    fresh = fresh_solver_bits(monkeypatch, mixed_lps)
    assert {status for status, _, _ in fresh} == {"optimal", "infeasible"}
    assert solved_bits(mixed_lps) == fresh
    assert solved_bits(mixed_lps[::-1])[::-1] == fresh
    assert scenario._highs() is scenario._highs()


def test_threads_solve_on_their_own_instances(monkeypatch, record_x, mixed_lps):
    # each thread solves its own half of the LPs, three times over, while
    # the other solves the rest; both must get the single-thread results
    halves = (mixed_lps[0::2], mixed_lps[1::2])
    want = [fresh_solver_bits(monkeypatch, half) for half in halves]
    start = threading.Barrier(2)

    def run(lps):
        start.wait()
        return scenario._highs(), [solved_bits(lps) for _ in range(3)]

    with ThreadPoolExecutor(max_workers=2) as pool:
        (first, got_a), (second, got_b) = pool.map(run, halves)
    assert first is not second
    assert scenario._highs() not in (first, second)
    assert got_a == [want[0]] * 3
    assert got_b == [want[1]] * 3


def test_solver_is_rebuilt_in_another_process(monkeypatch):
    # a forked worker inherits its parent's thread-local copy, which it
    # must not use
    ours = scenario._highs()
    monkeypatch.setattr(scenario.os, "getpid", lambda: -1)
    theirs = scenario._highs()
    assert theirs is not ours
    assert scenario._highs() is theirs


# ---------------------------------------------------------------------------
# end-to-end runs

def test_run_sa_zero_scenarios_is_nominal(triangle):
    g = build_triangle_uncertainty(triangle)
    sol = run_sa(triangle, g, eta=0.05, n_scenarios=0, seed=0)
    nominal = dispatch(triangle)
    np.testing.assert_allclose(sol.x_g, nominal.x_g, atol=1e-9)
    assert sol.objective == pytest.approx(nominal.objective, rel=1e-12)


def test_run_sa_reproducible(triangle):
    g = build_triangle_uncertainty(triangle)
    a = run_sa(triangle, g, eta=0.05, n_scenarios=100, seed=21)
    b = run_sa(triangle, g, eta=0.05, n_scenarios=100, seed=21)
    assert a.objective == b.objective
    np.testing.assert_array_equal(a.x_g, b.x_g)


def test_run_sa_is_dominates_nominal(triangle):
    g = build_triangle_uncertainty(triangle)
    nominal = dispatch(triangle)
    sol = run_sa_is(triangle, g, eta=0.05, n_scenarios=50, seed=2)
    assert sol.status == "optimal"
    assert sol.objective >= nominal.objective - 1e-9


def test_run_sa_is_zero_scenarios_keeps_margins(triangle):
    g = build_triangle_uncertainty(triangle)
    sol = run_sa_is(triangle, g, eta=0.05, n_scenarios=0, seed=0)
    mat = build_matrices(triangle)
    poly = build_polytope(triangle, mat)
    m = compute_margins(poly, g, 0.05)
    # margined rows hold at the dispatch even with no scenarios
    assert np.all(poly.normals @ sol.injection_pu <= poly.offsets - m.delta + 1e-7)


def test_run_sa_is_degenerate_uncertainty(triangle):
    g = GaussianSpec.from_covariance(np.zeros((3, 3)))
    sol = run_sa_is(triangle, g, eta=0.05, n_scenarios=40, seed=0)
    nominal = dispatch(triangle)
    assert sol.objective == pytest.approx(nominal.objective, rel=1e-12)


def test_run_argument_validation(triangle):
    g = build_triangle_uncertainty(triangle)
    with pytest.raises(ValueError, match="eta"):
        run_sa(triangle, g, eta=0.7, n_scenarios=10, seed=0)
    with pytest.raises(ValueError, match="non-negative"):
        run_sa(triangle, g, eta=0.05, n_scenarios=-1, seed=0)
    with pytest.raises(ValueError, match="non-negative"):
        run_sa_is(triangle, g, eta=0.05, n_scenarios=-1, seed=0)


# ---------------------------------------------------------------------------
# streamed Gaussian draws

@pytest.mark.parametrize(
    "chunk, n", [(7, 1), (7, 7), (7, 8), (7, 50), (16384, 85230), (16384, 1_082_463)]
)
def test_chunk_sizes_split_evenly(monkeypatch, chunk, n):
    monkeypatch.setattr(scenario, "CHUNK", chunk)
    sizes = list(chunk_sizes(n))
    assert sum(sizes) == n
    assert len(sizes) == -(-n // chunk)
    assert max(sizes) <= chunk
    assert max(sizes) - min(sizes) <= 1


def test_chunk_sizes_are_lazy_and_index_sized():
    # a trillion rows take O(1) memory to describe; counts past the
    # index range are refused at call time, before any block is drawn
    sizes = chunk_sizes(10**12)
    assert not isinstance(sizes, list)
    assert next(sizes) == scenario.CHUNK
    for n in (2**63, 10**26):
        with pytest.raises(ValueError, match="index range"):
            chunk_sizes(n)


def _prepared(case):
    return prepare_problem(case, build_uncertainty(case, 0.07), 0.05)


def _offsets(prep, method, n, seed):
    return scenario_offsets(prep.poly, prep.margins, prep.mixture, method, n, seed)


def test_every_method_is_one_draw_law(case57):
    # the table alone tells the methods apart: dc-opf draws nothing at any
    # count, sa is the Gaussian through draw_factor, and sa-is the mixture
    # through draw_factor too, capped at the tightened offsets
    prep = _prepared(case57)
    assert set(scenario.METHODS) == {"dc-opf", "sa", "sa-is"}
    for n in (0, 600):
        assert _offsets(prep, "dc-opf", n, 3) is prep.poly.offsets
    dc, sa_nominal = solve_prepared(prep, "dc-opf", 600, 3), solve_prepared(prep, "sa", 0, 3)
    assert dc.objective == sa_nominal.objective
    np.testing.assert_array_equal(dc.x_g, sa_nominal.x_g)
    tight = prep.poly.offsets - prep.margins.delta
    np.testing.assert_array_equal(_offsets(prep, "sa-is", 0, 3), np.minimum(prep.poly.offsets, tight))
    z = np.concatenate(list(_support_draws(600, 3, prep.margins.draw_factor.shape[1])))
    want = prep.poly.offsets - (prep.margins.draw_factor @ z.T).max(axis=1)
    np.testing.assert_array_equal(_offsets(prep, "sa", 600, 3), want)
    with pytest.raises(ValueError, match="unknown method 'bootstrap'; use one of dc-opf, sa, sa-is"):
        _offsets(prep, "bootstrap", 10, 3)


def test_empty_draws_rejected():
    with pytest.raises(ValueError, match="at least one row"):
        chunk_sizes(0)
    poly, g = box_polytope(2, 1.0), iid_gaussian(2)
    m = compute_margins(poly, g, 0.05)
    mixture = build_mixture(poly, m, g)
    width = m.row_factor.shape[1]
    for draw in (lambda: next(_support_draws(0, 0, width)),
                 lambda: next(_support_draws(0, 0, width, mixture)),
                 lambda: draw_gaussian_scenarios(g, 0, 0),
                 lambda: draw_mixture_scenarios(mixture, 0, 0)):
        with pytest.raises(ValueError, match="at least one row"):
            draw()


def _projected(r, n, seed, mixture=None) -> list[np.ndarray]:
    # R z' of every block z of the one draw stream, rows by draws
    return [r @ z.T for z in _support_draws(n, seed, r.shape[1], mixture)]


def test_projected_blocks_are_rows_by_draws(case30):
    # Gaussian and mixture draws over two blocks, and one mixture block:
    # each block is R z' of its part of the documented stream, bit for
    # bit, and the offsets are the rows' own less their maximum over
    # every block
    prep = _prepared(case30)
    r = prep.margins.row_factor
    # case30's rows see every support direction, so sa draws through R itself
    assert prep.margins.draw_factor is r
    n, seed = scenario.CHUNK + 3, 12
    rng = np.random.default_rng(seed)
    blocks = _projected(r, n, seed)
    assert [y.shape for y in blocks] == [(r.shape[0], size) for size in chunk_sizes(n)]
    assert len(blocks) == 2
    for y in blocks:
        assert y.flags.c_contiguous
        assert y.tobytes() == (r @ rng.standard_normal((y.shape[1], r.shape[1])).T).tobytes()
    worst = np.concatenate(blocks, axis=1).max(axis=1)
    assert _offsets(prep, "sa", n, seed).tobytes() == (prep.poly.offsets - worst).tobytes()

    (y,) = _projected(r, 700, seed, prep.mixture)
    w, _ = sample_mixture_batch(prep.mixture, 700, np.random.default_rng(seed))
    assert y.shape == (r.shape[0], 700)
    assert y.tobytes() == (r @ w.T).tobytes()
    want = np.minimum(prep.poly.offsets - y.max(axis=1), prep.poly.offsets - prep.margins.delta)
    assert _offsets(prep, "sa-is", 700, seed).tobytes() == want.tobytes()

    # above CHUNK the mixture draws each block in turn from the one generator
    rng = np.random.default_rng(seed)
    blocks = _projected(r, n, seed, prep.mixture)
    assert [y.shape[1] for y in blocks] == list(chunk_sizes(n))
    for y in blocks:
        w, _ = sample_mixture_batch(prep.mixture, y.shape[1], rng)
        assert y.tobytes() == (r @ w.T).tobytes()
    worst = np.concatenate(blocks, axis=1).max(axis=1)
    want = np.minimum(prep.poly.offsets - worst, prep.poly.offsets - prep.margins.delta)
    assert _offsets(prep, "sa-is", n, seed).tobytes() == want.tobytes()


def _sa_row_maxima(prep, margins, seeds) -> np.ndarray:
    # each seed's row maxima of 600 sa draws, one row per seed
    return np.array([prep.poly.offsets - scenario_offsets(prep.poly, margins, None, "sa", 600, s)
                     for s in seeds])


def _same_row_law(a: np.ndarray, b: np.ndarray) -> bool:
    # per-row two-sample KS tests at a Bonferroni level of 1e-3 over the rows
    from scipy.stats import ks_2samp

    pvalues = [ks_2samp(a[:, i], b[:, i]).pvalue for i in range(a.shape[1])]
    return min(pvalues) > 1e-3 / a.shape[1]


@pytest.mark.parametrize("case_name", ["case30", "case57"])
def test_projected_offsets_match_the_bus_space_reference(request, case_name):
    # the solves project rank-coordinate draws straight onto the rows;
    # mapping them to the buses first and reducing those (two blocks of
    # Gaussian draws here) differs only in the rounding of the projection.
    # case57's sa draws take rank R = 7 normals, not 41, so there the sa
    # offsets share the reference's law, not its draws: a factor that
    # drops any one of B's columns fails the same test
    prep = _prepared(request.getfixturevalue(case_name))
    n, seed = 20_000, 6
    if case_name == "case30":
        sa = reduce_scenarios(prep.poly, draw_gaussian_scenarios(prep.g, n, seed))
        np.testing.assert_allclose(_offsets(prep, "sa", n, seed), sa, rtol=0, atol=1e-12)
    else:
        # bus-space draws reduced onto the rows, at seeds the sa draws do not use
        ref = np.array([prep.poly.offsets - reduce_scenarios(
            prep.poly, draw_gaussian_scenarios(prep.g, 600, s)) for s in range(300, 600)])
        b = prep.margins.draw_factor
        assert _same_row_law(_sa_row_maxima(prep, prep.margins, range(300)), ref)
        for j in range(b.shape[1]):
            short = SimpleNamespace(draw_factor=np.delete(b, j, axis=1))
            assert not _same_row_law(_sa_row_maxima(prep, short, range(300)), ref)
    sa_is = np.minimum(
        reduce_scenarios(prep.poly, draw_mixture_scenarios(prep.mixture, n, seed)),
        prep.poly.offsets - prep.margins.delta,
    )
    np.testing.assert_allclose(_offsets(prep, "sa-is", n, seed), sa_is, rtol=0, atol=1e-12)


@pytest.mark.parametrize("rho", [None, 0.5])
def test_rank_coordinate_mixture_has_the_support_construction_row_law(case57, rho):
    # the mixture built on B = R V_k (7 coordinates) gives the rows the
    # law of the one built on R (41 support coordinates): R w = B V_k' w.
    # Per-row KS tests on the rows' values of 1e5 draws each; a factor
    # that drops any one of B's columns, with that coordinate of each
    # draw, fails the same test
    g = build_uncertainty(case57, 0.07)
    if rho is not None:
        g = _one_factor(g, rho)
    prep = prepare_problem(case57, g, 0.05)
    m, ms = prep.margins, prep.mixture
    rows = np.array(ms.row_indices)
    support = MixtureSampler(
        reduced_directions=m.row_factor[rows] / m.sigma[rows][:, None],
        thresholds=ms.thresholds, tail_probs=ms.tail_probs,
        row_indices=ms.row_indices, bus_map=g.reduced_factor,
    )
    assert (support.reduced_dim, ms.reduced_dim) == (41, 7)
    n = 100_000
    ref = np.concatenate(_projected(m.row_factor, n, 1, support), axis=1).T
    w = np.concatenate(list(_support_draws(n, 2, ms.reduced_dim, ms)))
    b = m.draw_factor
    assert _same_row_law(w @ b.T, ref)
    for j in range(b.shape[1]):
        assert not _same_row_law(np.delete(w, j, axis=1) @ np.delete(b, j, axis=1).T, ref)


def test_case30_mixture_is_built_on_the_row_factor_itself(case30):
    # case30's R has full column rank: B is R, the mixture axes are R's
    # rows over sigma and the bus map is U, bit for bit, so its sa-is
    # stream is the support-coordinate one
    prep = _prepared(case30)
    m, ms = prep.margins, prep.mixture
    assert m.draw_factor is m.row_factor
    assert m.rank_basis is None
    assert ms.bus_map is prep.g.reduced_factor
    rows = np.array(ms.row_indices)
    want = m.row_factor[rows] / m.sigma[rows][:, None]
    assert ms.reduced_directions.tobytes() == want.tobytes()


def test_mixture_scenarios_map_the_support_draws(case30):
    ms = _prepared(case30).mixture
    w, _ = sample_mixture_batch(ms, 500, np.random.default_rng(5))
    assert w.shape == (500, ms.reduced_dim)
    np.testing.assert_array_equal(
        draw_mixture_scenarios(ms, 500, 5).scenarios, ms.to_buses(w)
    )


def test_gaussian_blocks_reproduce_the_one_shot_draw(monkeypatch, case30):
    # blocks continue one stream and their row maxima combine exactly, so
    # neither the offsets nor the dispatch depend on the block size
    prep = _prepared(case30)
    n, seed = 1000, 4
    monkeypatch.setattr(scenario, "CHUNK", 1 << 62)
    whole = _offsets(prep, "sa", n, seed)
    one = solve_prepared(prep, "sa", n, seed)
    monkeypatch.setattr(scenario, "CHUNK", 7)
    np.testing.assert_array_equal(_offsets(prep, "sa", n, seed), whole)
    many = solve_prepared(prep, "sa", n, seed)
    assert many.objective == one.objective
    np.testing.assert_array_equal(many.x_g, one.x_g)


def test_case57_blocks_reproduce_the_one_shot_draw(monkeypatch, case57):
    # case57's sa draws multiply 7-column blocks (draw_factor), and BLAS
    # rounds those by kernel: a Haswell OpenBLAS build gives the one-shot
    # product's bits to blocks of 2 to 192 draws and to whole 8-draw
    # panels, but rounds a longer block's last (size mod 8) draws and a
    # one-draw block (gemv) differently in the last bit. So only the row
    # maxima can match; here they do for every CHUNK from 2 to 5000 but
    # 500-555 (blocks of 500 draws). CHUNK 2001 gives blocks of 1667 or
    # 1666 draws
    prep = _prepared(case57)
    n, seed = 5000, 9
    monkeypatch.setattr(scenario, "CHUNK", 1 << 62)
    whole = _offsets(prep, "sa", n, seed)
    monkeypatch.setattr(scenario, "CHUNK", 2001)
    np.testing.assert_array_equal(_offsets(prep, "sa", n, seed), whole)


def test_classical_draws_stream_in_bounded_memory(case30):
    # the one-shot draw at this count held about 1.3 GB of deviations and
    # row projections; 16,384-draw blocks still peaked at about 16 MB
    n = sample_size_cc(1e-4, 0.01, len(case30.generators) - 1)
    assert n == 1_082_463
    g = build_uncertainty(case30, 0.07)
    tracemalloc.start()
    try:
        sol = run_sa(case30, g, 1e-4, n, seed=0)
        _, peak = tracemalloc.get_traced_memory()
    finally:
        tracemalloc.stop()
    assert sol.status in ("optimal", "infeasible")
    assert peak < 8e6


def test_mixture_draws_stream_in_bounded_memory(case30):
    # the one-block mixture draw held about 187 MB at this count, 0.94 KB
    # per draw; in blocks of CHUNK draws the peak does not grow with n
    # (about 15 MB at 16,384-draw blocks)
    prep = _prepared(case30)
    tracemalloc.start()
    try:
        _offsets(prep, "sa-is", 200_000, 0)
        _, peak = tracemalloc.get_traced_memory()
    finally:
        tracemalloc.stop()
    assert peak < 4e6
