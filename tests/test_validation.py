"""Out-of-sample checks, the 1-D synthetic problem, and experiment plumbing."""
from __future__ import annotations

import contextlib
import ctypes
import functools
import importlib.util
import io
import json
import math
import multiprocessing
import os
import signal
import subprocess
import sys
import tracemalloc
import warnings
from concurrent.futures import ProcessPoolExecutor
from concurrent.futures.process import BrokenProcessPool
from dataclasses import asdict, replace
from types import SimpleNamespace

import numpy as np
import pytest

import ccopf.scenario as scenario
import ccopf.validation as validation
from ccopf import (
    ExperimentConfig,
    ExperimentReport,
    FeasibilityPolytope,
    GaussianSpec,
    RepetitionRecord,
    build_matrices,
    build_polytope,
    build_uncertainty,
    bundled_case_path,
    estimate_pi,
    out_of_sample_confidence,
    parse_case,
    prepare_problem,
    run_experiment,
    run_sa_is,
    solve_1d_synthetic,
    solve_prepared,
    sweep_1d,
)
from ccopf.kernels import binom_cdf, norm_cdf, norm_isf, norm_sf, tail_quantile
from ccopf.validation import load_case_ref, resolve_scenario_count
from ccopf.scenario import sample_size_cc, sample_size_exact
from conftest import TRIANGLE_TEXT, iid_gaussian

Z_95 = 1.6448536269514722


def one_row(offset: float) -> FeasibilityPolytope:
    return FeasibilityPolytope(
        normals=np.array([[1.0]]),
        offsets=np.array([offset]),
        labels=(("injection-upper", 0),),
    )


# ---------------------------------------------------------------------------
# out-of-sample confidence

def test_confidence_matches_closed_form():
    poly = one_row(2.0)
    g = iid_gaussian(1)
    x = np.array([0.2])  # headroom 1.8
    want = float(norm_cdf(1.8))
    prob, stderr = out_of_sample_confidence(x, poly, g, 100_000, seed=0)
    assert stderr == pytest.approx(np.sqrt(prob * (1 - prob) / 100_000))
    assert abs(prob - want) < 4 * stderr


def test_confidence_saturates_for_safe_dispatch():
    poly = one_row(100.0)
    prob, stderr = out_of_sample_confidence(np.array([0.0]), poly, iid_gaussian(1), 1000, seed=1)
    assert prob == 1.0
    assert stderr == 0.0


def test_confidence_reproducible():
    poly = one_row(2.0)
    g = iid_gaussian(1)
    a = out_of_sample_confidence(np.array([0.3]), poly, g, 5000, seed=9)
    b = out_of_sample_confidence(np.array([0.3]), poly, g, 5000, seed=9)
    assert a == b


def test_confidence_requires_samples():
    with pytest.raises(ValueError, match="n_test"):
        out_of_sample_confidence(np.array([0.0]), one_row(1.0), iid_gaussian(1), 0, seed=0)


def _case30_dispatch(case30):
    g = build_uncertainty(case30, 0.07)
    poly = build_polytope(case30, build_matrices(case30))
    return run_sa_is(case30, g, 0.05, 100, seed=3).injection_pu, poly, g


def test_confidence_does_not_depend_on_the_block_size(monkeypatch, case30):
    x, poly, g = _case30_dispatch(case30)
    n_test = 10_003  # not a multiple of 7
    monkeypatch.setattr(scenario, "CHUNK", 1 << 62)
    one = out_of_sample_confidence(x, poly, g, n_test, seed=12)
    monkeypatch.setattr(scenario, "CHUNK", 7)
    assert out_of_sample_confidence(x, poly, g, n_test, seed=12) == one
    assert 0.9 < one[0] < 1.0


def test_confidence_streams_in_bounded_memory(case30):
    # checking 1e6 deviations at once held about 750 MB of row projections
    x, poly, g = _case30_dispatch(case30)
    tracemalloc.start()
    try:
        out_of_sample_confidence(x, poly, g, 10**6, seed=5)
        _, peak = tracemalloc.get_traced_memory()
        tracemalloc.reset_peak()
        # each dispatch of a stack projects only its reached rows, one
        # product at a time, so the stack stays below one all-row block
        out_of_sample_confidence(np.stack([x] * 3), poly, g, 10**6, seed=5)
        _, stacked_peak = tracemalloc.get_traced_memory()
    finally:
        tracemalloc.stop()
    assert peak < 64e6
    assert stacked_peak < 8 * scenario.CHUNK * poly.n_rows


def test_repetition_runs_in_bounded_memory(monkeypatch):
    # one rare-eta repetition on case30: 85,230 sa draws, 1,064 sa-is draws
    # and a 100,000-draw check; each streams in blocks of CHUNK draws, so
    # the traced peak is a block's (16,384-draw blocks peaked at 13.4 MB)
    run_reps, peaks = validation._run_reps, []

    def traced(experiment, reps):
        tracemalloc.start()
        try:
            records = run_reps(experiment, reps)
            peaks.append(tracemalloc.get_traced_memory()[1])
        finally:
            tracemalloc.stop()
        return records

    monkeypatch.setattr(validation, "_run_reps", traced)
    config = ExperimentConfig(case="case30", methods=("dc-opf", "sa", "sa-is"), eta=1e-3,
                              reps=1, n_test=100_000)
    report = run_experiment(config)
    assert report.resolved == {"dc-opf": 0, "sa": 85_230, "sa-is": 1_064}
    assert len(peaks) == 1 and peaks[0] < 4e6


def _three_dispatches(case):
    # the nominal, a classical and an importance-sampled dispatch: three
    # different headrooms against the same deviations
    prep = prepare_problem(case, build_uncertainty(case, 0.07), 0.05)
    xs = [solve_prepared(prep, method, n, seed=3).injection_pu
          for method, n in (("sa", 0), ("sa", 200), ("sa-is", 200))]
    return np.stack(xs), prep.poly, prep.g


@pytest.mark.parametrize("name,chunk", [
    ("case30", 7), ("case30", None),
    # case57's few-row blocks round differently (see the block-size tests),
    # so it is checked at the production block size only
    ("case57", None),
])
def test_stacked_check_equals_one_check_per_dispatch(monkeypatch, request, name, chunk):
    xs, poly, g = _three_dispatches(request.getfixturevalue(name))
    if chunk is not None:
        monkeypatch.setattr(scenario, "CHUNK", chunk)
    n_test = 10_003  # not a multiple of any block size used
    prob, stderr = out_of_sample_confidence(xs, poly, g, n_test, seed=21)
    assert prob.shape == stderr.shape == (3,)
    singles = [out_of_sample_confidence(x, poly, g, n_test, seed=21) for x in xs]
    assert [(float(p), float(e)) for p, e in zip(prob, stderr)] == singles
    # the dispatches differ enough to score differently
    assert len(set(prob.tolist())) > 1


def test_stacked_headrooms_round_as_one_dispatch_does(monkeypatch, case30):
    # a dispatch exactly on every row, with no slack and no spread, stays
    # inside only if its headroom is the one-dispatch product's exact zero;
    # one batched product over the stack rounds some of these rows apart
    xs, poly, _ = _three_dispatches(case30)
    on_rows = FeasibilityPolytope(poly.normals, poly.normals @ xs[0], poly.labels)
    n_bus = xs.shape[1]
    rigid = GaussianSpec(cov=np.zeros((n_bus, n_bus)))
    monkeypatch.setattr(validation, "_OOS_TOL", 0.0)
    assert out_of_sample_confidence(xs[0], on_rows, rigid, 10, seed=0) == (1.0, 0.0)
    prob, _ = out_of_sample_confidence(xs, on_rows, rigid, 10, seed=0)
    assert prob[0] == 1.0


def test_stack_of_one_equals_the_one_dispatch_call(case30):
    xs, poly, g = _three_dispatches(case30)
    one = out_of_sample_confidence(xs[2], poly, g, 5000, seed=4)
    prob, stderr = out_of_sample_confidence(xs[2:], poly, g, 5000, seed=4)
    assert (float(prob[0]), float(stderr[0])) == one


def test_one_dispatch_call_returns_two_floats(case30):
    xs, poly, g = _three_dispatches(case30)
    result = out_of_sample_confidence(xs[1], poly, g, 1000, seed=4)
    assert isinstance(result, tuple) and len(result) == 2
    assert all(type(v) is float for v in result)


def test_empty_stack_rejected(case30):
    xs, poly, g = _three_dispatches(case30)
    with pytest.raises(ValueError, match="empty"):
        out_of_sample_confidence(xs[:0], poly, g, 1000, seed=4)


@functools.cache
def _method_dispatches(name: str, eta: float):
    # each method's dispatch at its auto count under one seed, stacked
    config = ExperimentConfig(case=name, methods=("dc-opf", "sa", "sa-is"), eta=eta)
    prep = validation.prepare_experiment(config)
    xs = []
    for method in config.methods:
        n = resolve_scenario_count(config, prep.case, method, prep)
        xs.append(solve_prepared(prep, "sa" if method == "dc-opf" else method, n, 3).injection_pu)
    return np.stack(xs), prep


def _all_rows_check(xs, poly, factor, n_test, seed) -> list[float]:
    # the reference: every row of every draw projected and compared
    headrooms = [poly.offsets - poly.normals @ x + validation._OOS_TOL for x in xs]
    inside = [0] * len(xs)
    for z in scenario._support_draws(n_test, seed, factor.shape[1]):
        y = factor @ z.T
        for j, headroom in enumerate(headrooms):
            inside[j] += int(np.count_nonzero(np.all(y <= headroom[:, None], axis=0)))
    return [k / n_test for k in inside]


@pytest.mark.parametrize("name", ["case30", "case57"])
@pytest.mark.parametrize("eta", [0.05, 1e-3])
@pytest.mark.parametrize("n_test", [1, 1000, scenario.CHUNK, scenario.CHUNK + 1, 100_000])
def test_screened_check_counts_what_the_all_row_check_counts(name, eta, n_test):
    xs, prep = _method_dispatches(name, eta)
    factor = prep.margins.draw_factor
    for seed in (0, 1, 2, 17, validation._TEST_SEED_OFFSET + 4):
        want = _all_rows_check(xs, prep.poly, factor, n_test, seed)
        prob, _ = out_of_sample_confidence(xs, prep.poly, prep.g, n_test, seed, factor)
        assert prob.tolist() == want
        singles = [out_of_sample_confidence(x, prep.poly, prep.g, n_test, seed, factor)[0]
                   for x in xs]
        assert singles == want


def test_rare_eta_blocks_reach_few_case30_rows():
    # the rare-failure dispatches against a 1e5-draw check: no block comes
    # within reach of more than 12 of case30's 94 rows
    xs, prep = _method_dispatches("case30", 1e-3)
    factor = prep.margins.draw_factor
    sigma = np.linalg.norm(factor, axis=1)
    headrooms = [prep.poly.offsets - prep.poly.normals @ x + validation._OOS_TOL for x in xs]
    reached = [
        len(validation._reached_rows(sigma, float(np.max(np.linalg.norm(z, axis=1))), h))
        for z in scenario._support_draws(100_000, validation._TEST_SEED_OFFSET,
                                         factor.shape[1])
        for h in headrooms
    ]
    assert prep.poly.n_rows == 94
    assert 0 < max(reached) <= 12


def test_reach_rule():
    sigma = np.array([1.0, 1.0, 0.0, 0.0, 2.0])
    headroom = np.array([2.0, 3.0, 0.0, -1e-300, np.nan])
    # at the bound the widening still reaches a row; a deterministic row
    # is reached only below zero headroom; a NaN headroom always is
    assert validation._reached_rows(sigma, 2.0, headroom).tolist() == [0, 3, 4]
    assert validation._reached_rows(sigma, 0.0, headroom).tolist() == [3, 4]


def test_nan_injection_counts_as_outside(case30):
    xs, poly, g = _three_dispatches(case30)
    xs[1, 5] = math.nan
    prob, stderr = out_of_sample_confidence(xs, poly, g, 3000, seed=8)
    assert prob[1] == 0.0 and stderr[1] == 0.0
    assert out_of_sample_confidence(xs[1], poly, g, 3000, seed=8) == (0.0, 0.0)
    assert out_of_sample_confidence(xs[0], poly, g, 3000, seed=8)[0] == prob[0] > 0.0


def test_negative_headroom_on_a_deterministic_row_gives_zero():
    # bus 1 carries no deviation, so its row has no spread and is only
    # reached because its headroom is negative
    poly = FeasibilityPolytope(np.eye(2), np.array([5.0, 0.0]),
                               (("injection-upper", 0), ("injection-upper", 1)))
    g = GaussianSpec(cov=np.diag([1.0, 0.0]))
    assert out_of_sample_confidence(np.array([0.0, 0.5]), poly, g, 1000, seed=2) == (0.0, 0.0)
    assert out_of_sample_confidence(np.array([0.0, 0.0]), poly, g, 1000, seed=2)[0] == 1.0


def test_zero_width_factor_keeps_every_draw(case30):
    # sigma 0 gives a draw factor with no columns: every block has radius
    # 0, no row with headroom >= 0 is reached, and each of three blocks
    # counts all of its draws
    prep = prepare_problem(case30, build_uncertainty(case30, 0.0), 0.05)
    assert prep.margins.draw_factor.shape[1] == 0
    x = solve_prepared(prep, "sa", 0, seed=0).injection_pu
    n_test = 2 * scenario.CHUNK + 1
    assert out_of_sample_confidence(x, prep.poly, prep.g, n_test, 3,
                                    prep.margins.draw_factor) == (1.0, 0.0)
    xs, poly, _ = _three_dispatches(case30)
    rigid = GaussianSpec(cov=np.zeros((xs.shape[1],) * 2))
    on_rows = FeasibilityPolytope(poly.normals, poly.normals @ xs[0], poly.labels)
    assert out_of_sample_confidence(xs[0], on_rows, rigid, n_test, 3) == (1.0, 0.0)


def test_block_reaching_no_row_counts_all_its_draws():
    poly, g = one_row(100.0), iid_gaussian(1)
    (z,) = scenario._support_draws(1000, 1, 1)
    radius = float(np.max(np.linalg.norm(z, axis=1)))
    assert validation._reached_rows(np.ones(1), radius, poly.offsets).size == 0
    assert out_of_sample_confidence(np.array([0.0]), poly, g, 1000, seed=1) == (1.0, 0.0)


# ---------------------------------------------------------------------------
# 1-D synthetic problem

@pytest.mark.parametrize("chunk", [None, 7], ids=["default", "chunk7"])
def test_sa_solution_reconstructs_from_draws(monkeypatch, chunk):
    # the 1-D sa path draws in blocks of CHUNK rows; a 1x1 projection is
    # exact, so any block split gives the one-shot draw's optimum exactly
    if chunk is not None:
        monkeypatch.setattr(scenario, "CHUNK", chunk)
    a, n, seed = 2.0, 40, 77
    x_hat, gap = solve_1d_synthetic(a, 0.05, "sa", n, seed)
    draws = np.random.default_rng(seed).standard_normal((n, 1))[:, 0]
    assert x_hat == a - float(np.max(draws))
    assert x_hat == pytest.approx(a - float(np.max(draws)), abs=1e-12)
    assert gap == pytest.approx(x_hat - (a - Z_95), abs=1e-12)


def test_sa_is_never_anti_conservative():
    # the margin caps the offset at the exact optimum, so the gap cannot
    # be positive regardless of the draws
    for seed in range(30):
        _, gap = solve_1d_synthetic(0.0, 0.05, "sa-is", 25, seed)
        assert gap <= 1e-12


def test_sa_small_samples_overshoot_sometimes():
    # with 5 draws the plain method often lands above the exact optimum
    gaps = [solve_1d_synthetic(0.0, 0.05, "sa", 5, seed)[1] for seed in range(20)]
    assert max(gaps) > 0


def test_sa_is_zero_scenarios_hits_exact_optimum():
    x_hat, gap = solve_1d_synthetic(3.0, 0.05, "sa-is", 0, seed=0)
    assert gap == 0.0
    assert x_hat == pytest.approx(3.0 - Z_95, rel=1e-12)


def test_eta_half_zero_scenarios():
    x_hat, gap = solve_1d_synthetic(1.0, 0.5, "sa-is", 0, seed=0)
    assert x_hat == 1.0
    assert gap == 0.0


def test_unknown_method_rejected():
    with pytest.raises(ValueError, match="unknown method"):
        solve_1d_synthetic(0.0, 0.05, "bootstrap", 10, seed=0)
    with pytest.raises(ValueError, match="non-negative"):
        solve_1d_synthetic(0.0, 0.05, "sa", -2, seed=0)


def test_sweep_matches_frozen_run():
    rows = sweep_1d(2.0, 0.05, 0.01, 5, 10, 123)
    assert [n for _, _, n in rows] == [1, 8, 17, 29, 44]
    assert [rate for _, rate, _ in rows] == [1.0] * 5
    b = [row[0] for row in rows]
    assert b[0] == pytest.approx(2.0 - Z_95, rel=1e-12)
    assert b[-1] == 2.0
    np.testing.assert_allclose(np.diff(b), b[1] - b[0], rtol=1e-9)


def test_sweep_draws_stream_in_bounded_memory():
    # a repetition draws only its worst tail deviation, in closed form, so
    # memory does not grow with the count; the 2.3M explicit uniforms and
    # tail deviations of the last point would hold about 55 MB at once
    tracemalloc.start()
    try:
        rows = sweep_1d(0.0, 1e-6, 0.01, 2, 1, 0)
        _, peak = tracemalloc.get_traced_memory()
    finally:
        tracemalloc.stop()
    assert rows == [(-4.753424308822899, 1.0, 1), (0.0, 1.0, 2_302_583)]
    assert peak < 4e6


def test_sweep_finishes_at_tiny_eta():
    # the last count is beyond any per-draw loop; at the first point the
    # tail mass norm_sf(norm_isf(eta)) rounds to just below eta, which
    # certifies with no draw (1 - norm_cdf(margin) would round it to 0)
    rows = sweep_1d(0.0, 1e-17, 0.01, 2, 1, 0)
    assert [n for _, _, n in rows] == [0, 230258509299404561]
    assert [rate for _, rate, _ in rows] == [1.0, 1.0]


def _improbable_points(rows, reps, delta):
    # grid points whose failing repetitions are improbable (p < 1e-3) under
    # Binomial(reps, delta), the most failures the certificate allows
    broken = [reps - round(rate * reps) for _, rate, _ in rows]
    return [k for k in broken if k > 0 and 1.0 - binom_cdf(k - 1, reps, delta) < 1e-3]


@pytest.mark.parametrize("eta", [0.05, 1e-4, 1e-6])
def test_sweep_count_meets_the_guarantee_with_power(monkeypatch, eta):
    # on the 1-D problem P(V) = S u_min, so a repetition breaks the chance
    # constraint with probability (1 - eta / S)**n, just under delta at the
    # exact count: about 200 of 20,000 repetitions fail at each point
    reps, delta = 20_000, 0.01
    rows = sweep_1d(0.0, eta, delta, 9, reps, 4)
    assert _improbable_points(rows, reps, delta) == []
    assert max(reps - round(rate * reps) for _, rate, _ in rows) > 0.5 * delta * reps
    # a count 10% short (about 300 failures) does not pass
    exact = validation.certified_count
    monkeypatch.setattr(validation, "certified_count", lambda *args: int(0.9 * exact(*args)))
    assert _improbable_points(sweep_1d(0.0, eta, delta, 9, reps, 4), reps, delta)


@pytest.mark.parametrize("n", [1, 50, 500])
def test_sweep_worst_draw_matches_explicit_maximum(n):
    from scipy.stats import ks_2samp

    margin, p_tail, m = 0.7, float(norm_sf(0.7)), 2000
    rng = np.random.default_rng((17, n))
    closed = tail_quantile(margin, p_tail, validation._min_uniform(rng.random(m), n))
    # the reference: the largest of n explicit tail draws per repetition
    explicit = tail_quantile(margin, p_tail, 1.0 - rng.random((m, n))).max(axis=1)
    assert ks_2samp(closed, explicit).pvalue > 0.01


@pytest.mark.parametrize("n", [1, 50, 4374911676688686592])
def test_min_uniform_stays_in_unit_interval_at_generator_extremes(n):
    r = np.array([0.0, 1.0 - 2.0**-53])  # the smallest and largest Generator.random
    with warnings.catch_warnings():
        warnings.simplefilter("error")
        u = validation._min_uniform(r, n)
        worst = tail_quantile(8.5, float(norm_sf(8.5)), u)
    assert np.all((u > 0.0) & (u <= 1.0))
    assert u[0] < u[1]
    assert np.all(np.isfinite(worst))


def test_sweep_counts_grow_with_offset():
    # larger hard offset covers less mass, so the certified count grows
    rows = sweep_1d(1.0, 0.1, 0.05, 6, 2, 0)
    counts = [n for _, _, n in rows]
    assert counts == sorted(counts)
    assert counts[0] < counts[-1]


def test_sweep_argument_validation():
    with pytest.raises(ValueError, match="grid"):
        sweep_1d(1.0, 0.05, 0.01, 1, 5, 0)
    with pytest.raises(ValueError, match="repetition"):
        sweep_1d(1.0, 0.05, 0.01, 3, 0, 0)
    for a in (math.inf, -math.inf, math.nan):
        with pytest.raises(ValueError, match="row offset a must be finite"):
            sweep_1d(a, 0.05, 0.01, 3, 2, 0)
    # floats this large are spaced beyond the sweep's 1e-9 feasibility slack
    for a in (1e308, 1e17, -1e17, 2.0**23):
        with pytest.raises(ValueError, match=r"row offset a must lie below 2\*\*23"):
            sweep_1d(a, 0.05, 0.01, 3, 2, 0)
    # 0.7 would sweep offsets above a
    for eta in (0.0, 1.0, 0.7, -0.1, math.nan):
        with pytest.raises(ValueError, match=r"eta must lie in \(0, 0.5\]"):
            sweep_1d(1.0, eta, 0.01, 3, 2, 0)


# ---------------------------------------------------------------------------
# experiment configuration and report

def test_config_defaults():
    config = ExperimentConfig(case="case30")
    assert config.methods == ("sa-is",)
    assert config.scenarios == "auto"
    assert config.eta == 0.05


@pytest.mark.parametrize(
    "kwargs",
    [
        {"methods": ("sa", "bootstrap")},
        {"methods": ()},
        {"eta": 0.0},
        {"eta": 0.51},
        {"scenarios": "many"},
        {"scenarios": -1},
        {"reps": 0},
        {"sigma_frac": -0.1},
        {"n_test": 0},
        {"n_test": scenario.MAX_ROWS + 1},
        {"delta": 0.0},
        {"delta": 1.0},
        {"jobs": 0},
        {"sigma_frac": math.nan},
        {"sigma_frac": math.inf},
        {"eta": math.nan},
        {"delta": math.inf},
        {"seed": -1},
    ],
)
def test_config_validation(kwargs):
    with pytest.raises(ValueError):
        ExperimentConfig(case="case30", **kwargs)


@pytest.mark.parametrize("sigma_frac", [-0.1, math.nan, math.inf])
def test_uncertainty_rejects_bad_sigma(case30, sigma_frac):
    with pytest.raises(ValueError, match="sigma_frac must be finite and non-negative"):
        build_uncertainty(case30, sigma_frac)


def test_uncertainty_names_sigma_frac_when_the_variance_overflows(case30):
    # 1e155 is finite, but its square times case30's injections is not
    with pytest.raises(ValueError, match=r"sigma_frac 1e\+155 is too large"):
        build_uncertainty(case30, 1e155)
    assert np.all(np.isfinite(build_uncertainty(case30, 1e150).cov))


@pytest.mark.parametrize(
    "method, changes",
    [("sa", {"eta": 1e-300}), ("sa-is", {"scenarios": 10**26}), ("sa", {"scenarios": 2**63})],
)
def test_counts_past_the_index_range_are_refused_by_name(case30, method, changes):
    config = ExperimentConfig(case="case30", methods=(method,), **changes)
    with pytest.raises(ValueError, match=f"^{method}: scenario count exceeds the index range"):
        resolve_scenario_count(config, case30, method)
    # the bound is the one chunk_sizes checks: its largest count passes
    at_bound = ExperimentConfig(case="case30", methods=(method,), scenarios=scenario.MAX_ROWS)
    assert resolve_scenario_count(at_bound, case30, method) == scenario.MAX_ROWS


@pytest.mark.parametrize(
    "field, value",
    [("scenarios", 2.5), ("scenarios", 600.0), ("scenarios", math.nan), ("reps", 1.5),
     ("n_test", 10.5), ("seed", 2.0), ("jobs", 1.5)],
)
def test_config_refuses_counts_that_are_not_integers(field, value):
    with pytest.raises(ValueError, match=f"^{field} must be an integer, got {value!r}$"):
        ExperimentConfig(case="case30", **{field: value})
    # NumPy's integers are counts too
    assert getattr(ExperimentConfig(case="case30", **{field: np.int64(3)}), field) == 3


def test_config_rejects_repeated_methods():
    with pytest.raises(ValueError, match=r"\['sa'\] given more than once"):
        ExperimentConfig(case="case30", methods=("sa", "sa-is", "sa"))


def sample_report() -> ExperimentReport:
    config = ExperimentConfig(case="case30", methods=("dc-opf", "sa"), reps=2, scenarios=10)
    records = (
        RepetitionRecord("dc-opf", 0, 0, 0, "optimal", 100.0, 0.5, 0.01),
        RepetitionRecord("dc-opf", 1, 1, 0, "optimal", 110.0, 0.6, 0.01),
        RepetitionRecord("sa", 0, 0, 10, "optimal", 130.0, 0.95, 0.01),
        RepetitionRecord("sa", 1, 1, 10, "infeasible", math.nan, math.nan, math.nan),
    )
    return ExperimentReport(
        config=config, case_name="case30", resolved={"dc-opf": 0, "sa": 10}, records=records
    )


def test_summary_aggregates():
    summary = sample_report().summary()
    assert summary["dc-opf"]["reps"] == 2
    assert summary["dc-opf"]["optimal"] == 2
    assert summary["dc-opf"]["mean_objective"] == pytest.approx(105.0)
    assert summary["dc-opf"]["min_confidence"] == pytest.approx(0.5)
    assert summary["sa"]["optimal"] == 1
    assert summary["sa"]["mean_objective"] == pytest.approx(130.0)
    assert summary["sa"]["n_scenarios"] == 10


def test_report_round_trips_through_json():
    report = sample_report()
    data = json.loads(json.dumps(report.to_dict()))
    back = ExperimentReport.from_dict(data)
    assert back.config == report.config
    assert back.case_name == report.case_name
    assert back.resolved == report.resolved
    assert back.records[:3] == report.records[:3]
    # nan became null and back
    assert data["records"][3]["objective"] is None
    assert math.isnan(back.records[3].objective)
    # each record's dict holds its fields, as asdict gives them
    assert data["records"] == _nan_as_none(report.records)


def test_report_leaves_out_the_job_count():
    # the records do not depend on jobs, so neither does report.json; a
    # report that still carries the field reads as before
    report = sample_report()
    data = report.to_dict()
    assert "jobs" not in data["config"]
    assert replace(report, config=replace(report.config, jobs=2)).to_dict() == data
    data["config"]["jobs"] = 2
    assert ExperimentReport.from_dict(data).config == replace(report.config, jobs=2)


def test_load_case_ref(tmp_path, case30):
    assert load_case_ref("case30").n == case30.n
    path = tmp_path / "tri.m"
    path.write_text(TRIANGLE_TEXT)
    assert load_case_ref(str(path)).name == "tri"
    with pytest.raises(FileNotFoundError, match="neither on disk"):
        load_case_ref("case999")


def test_path_names_never_reach_the_bundled_cases(tmp_path):
    # with only <tmp>/mycase.m on disk, "<tmp>/mycase" names no file; neither
    # it nor a '..' path from the data directory may load it as a bundled case
    data_dir = bundled_case_path("case30").parent
    (tmp_path / "mycase.m").write_text((data_dir / "case30.m").read_text())
    escapes = (str(tmp_path / "mycase"), os.path.relpath(tmp_path / "mycase", data_dir))
    for ref in escapes:
        with pytest.raises(FileNotFoundError, match="no bundled case named"):
            bundled_case_path(ref)
        with pytest.raises(FileNotFoundError, match="found neither on disk nor among the bundled cases"):
            load_case_ref(ref)
    assert load_case_ref(str(tmp_path / "mycase.m")).n == 30


def test_resolve_scenario_counts(tmp_path, case30, case57):
    path = tmp_path / "tri.m"
    path.write_text(TRIANGLE_TEXT)
    case = load_case_ref(str(path))
    fixed = ExperimentConfig(case=str(path), scenarios=25)
    assert resolve_scenario_count(fixed, case, "sa-is") == 25
    assert resolve_scenario_count(fixed, case, "dc-opf") == 0
    auto = ExperimentConfig(case=str(path), scenarios="auto", eta=0.05, delta=0.01)
    assert resolve_scenario_count(auto, case, "sa") == sample_size_cc(0.05, 0.01, 1)
    n_is = resolve_scenario_count(auto, case, "sa-is")
    assert 0 < n_is < resolve_scenario_count(auto, case, "sa")
    # degenerate uncertainty needs no scenarios at all
    rigid = ExperimentConfig(case=str(path), scenarios="auto", sigma_frac=0.0)
    assert resolve_scenario_count(rigid, case, "sa-is") == 0
    # on the bundled cases the sa-is count is the exact binomial bound at
    # eta / S with S = K eta, so it stays put as eta shrinks; the sa count
    # (the closed form at eta) grows. The sa-is count stays within CHUNK,
    # so the default mixture stream is one block, whatever the block size.
    bundled = (
        (case30, 1064, {0.05: 932, 1e-3: 85230}),
        (case57, 180, {0.05: 1082, 1e-3: 100434}),
    )
    for grid, n_is, n_sa in bundled:
        d = len(grid.generators) - 1
        for eta in (0.05, 1e-2, 1e-3, 1e-4):
            cfg = ExperimentConfig(case=grid.name, scenarios="auto", eta=eta, delta=0.01)
            got = resolve_scenario_count(cfg, grid, "sa-is")
            assert got == n_is if eta == 0.05 else abs(got - n_is) <= 1
            assert got <= scenario.CHUNK
            want_sa = n_sa.get(eta, sample_size_cc(eta, 0.01, d))
            assert resolve_scenario_count(cfg, grid, "sa") == want_sa


@pytest.mark.parametrize("name", ["case30", "case57"])
def test_tail_probabilities_have_one_source(request, name):
    # the mixture's tail probabilities are the margins' own, bit for bit,
    # and the sa-is count's S is the prepared mixture's tail mass, whether
    # the count prepares the case itself or is handed the prepared problem;
    # at rare eta too, where every component's tail probability is eta
    case = request.getfixturevalue(name)
    for eta in (0.05, 1e-3, 1e-4, 1e-5, 1e-6):
        prep = prepare_problem(case, build_uncertainty(case, 0.07), eta)
        m = prep.margins
        assert prep.mixture.tail_probs.tobytes() == m.tail_probs[m.stochastic].tobytes()
        np.testing.assert_allclose(prep.mixture.tail_probs, eta, rtol=1e-10, atol=0)
        # the certified pi is 1 - S of the same tail mass
        assert estimate_pi(m) == max(0.0, 1.0 - prep.mixture.tail_mass)
        config = ExperimentConfig(case=name, eta=eta)
        want = sample_size_exact(eta / prep.mixture.tail_mass, config.delta,
                                 len(case.generators) - 1)
        assert resolve_scenario_count(config, case, "sa-is") == want
        assert resolve_scenario_count(config, case, "sa-is", prep) == want
        # the exact count never exceeds the closed form at the same arguments
        assert want <= sample_size_cc(eta / prep.mixture.tail_mass, config.delta,
                                      len(case.generators) - 1)


@pytest.mark.parametrize("name", ["case30", "case57"])
def test_sa_is_auto_count_meets_the_guarantee(name):
    # "violation <= eta with confidence 1 - delta" at the count 'auto'
    # picks: each repetition seed breaks it with probability at most delta,
    # so the number of seeds whose estimated violation exceeds eta must
    # not be improbable (p < 1e-3) under Binomial(reps, delta)
    config = ExperimentConfig(
        case=name, methods=("sa-is",), eta=0.05, scenarios="auto", reps=100,
        n_test=20_000, delta=0.01,
    )
    report = run_experiment(config)
    good = [r for r in report.records if r.status == "optimal"]
    assert len(good) == config.reps
    broken = sum(1.0 - r.confidence > config.eta for r in good)
    p_value = 1.0 if broken == 0 else 1.0 - binom_cdf(broken - 1, len(good), config.delta)
    assert p_value >= 1e-3, f"{broken} of {len(good)} seeds above eta"


@pytest.mark.parametrize("name", ["case30", "case57"])
@pytest.mark.parametrize("eta", [0.05, 1e-3, 1e-4])
def test_sa_is_auto_count_meets_the_guarantee_by_the_union_bound(name, eta):
    # at rare eta an out-of-sample estimate of P(V) needs millions of draws,
    # but a dispatch's union-bound sum S_x = sum_i P(row i fails) >= P(V)
    # needs none. As above, the number of seeds whose S_x exceeds eta must
    # not be improbable under Binomial(optimal seeds, delta)
    config = ExperimentConfig(case=name, methods=("sa-is",), eta=eta)
    prep = validation.prepare_experiment(config)
    n = resolve_scenario_count(config, prep.case, "sa-is", prep)
    rows, sigma = prep.margins.stochastic, prep.margins.sigma
    sols = [solve_prepared(prep, "sa-is", n, seed) for seed in range(100)]
    good = [sol for sol in sols if sol.status == "optimal"]
    headroom = [prep.poly.offsets - prep.poly.normals @ sol.injection_pu for sol in good]
    s_x = [float(np.sum(norm_sf(h[rows] / sigma[rows]))) for h in headroom]
    broken = sum(s > eta for s in s_x)
    p_value = 1.0 if broken == 0 else 1.0 - binom_cdf(broken - 1, len(good), config.delta)
    # case30 at 1e-4 leaves 6 seeds infeasible (ROADMAP item 11)
    message = (f"{broken} of {len(good)} optimal seeds above eta "
               f"({len(sols) - len(good)} of {len(sols)} not optimal)")
    assert len(good) >= 90, message
    assert p_value >= 1e-3, message


def test_run_experiment_smoke(tmp_path):
    path = tmp_path / "tri.m"
    path.write_text(TRIANGLE_TEXT)
    config = ExperimentConfig(
        case=str(path),
        methods=("dc-opf", "sa", "sa-is"),
        scenarios=20,
        reps=3,
        sigma_frac=0.05,
        n_test=500,
        seed=11,
    )
    report = run_experiment(config)
    assert report.case_name == "tri"
    assert len(report.records) == 9
    for rec in report.records:
        assert rec.status == "optimal"
        assert rec.seed == 11 + rec.rep
        assert 0.0 <= rec.confidence <= 1.0
    summary = report.summary()
    # scenario methods hedge, so they cost at least the nominal dispatch
    assert summary["sa"]["mean_objective"] >= summary["dc-opf"]["mean_objective"] - 1e-9
    assert summary["sa-is"]["mean_objective"] >= summary["dc-opf"]["mean_objective"] - 1e-9
    assert summary["sa-is"]["mean_confidence"] > summary["dc-opf"]["mean_confidence"]


def test_run_experiment_parallel_matches_serial(monkeypatch, tmp_path):
    monkeypatch.setattr(validation, "_usable_cores", lambda: 2)
    path = tmp_path / "tri.m"
    path.write_text(TRIANGLE_TEXT)
    base = dict(
        case=str(path),
        methods=("sa", "sa-is"),
        scenarios=15,
        reps=2,
        sigma_frac=0.05,
        n_test=200,
        seed=5,
    )
    serial = run_experiment(ExperimentConfig(**base, jobs=1))
    parallel = run_experiment(ExperimentConfig(**base, jobs=2))
    assert serial.records == parallel.records
    assert serial.resolved == parallel.resolved


def test_run_experiment_does_not_depend_on_the_block_size(monkeypatch):
    # sa-is is left out: above CHUNK its mixture stream is the one the
    # blocks define, so a smaller CHUNK draws other deviations
    config = ExperimentConfig(
        case="case30", methods=("dc-opf", "sa"), scenarios=500, reps=2,
        n_test=1001, seed=8,
    )
    monkeypatch.setattr(scenario, "CHUNK", 1 << 62)
    one = run_experiment(config)
    monkeypatch.setattr(scenario, "CHUNK", 7)
    assert run_experiment(config).records == one.records


def test_pool_matches_serial_on_a_bundled_case(monkeypatch):
    # the triangle above never reaches BLAS in earnest; case30 does, in
    # both the draws and the 1e4-deviation checks
    monkeypatch.setattr(validation, "_usable_cores", lambda: 2)
    base = dict(case="case30", methods=("dc-opf", "sa", "sa-is"), scenarios="auto",
                reps=3, n_test=10_000, seed=17)
    serial = run_experiment(ExperimentConfig(**base, jobs=1))
    parallel = run_experiment(ExperimentConfig(**base, jobs=2))
    assert parallel.records == serial.records
    assert [r.status for r in serial.records] == ["optimal"] * 9


def test_draw_factor_is_built_once_per_run(monkeypatch):
    # the run prepares case57's rank-7 draw factor before any repetition,
    # and neither a repetition nor a pool worker factorises again; a
    # worker that did would raise here, and its repetition with it
    import ccopf.margins as margins

    parent, calls = os.getpid(), []
    build = margins.rank_factor

    def counting(row_factor):
        if os.getpid() != parent:
            raise AssertionError("a pool worker factorised the rows")
        calls.append(row_factor.shape)
        return build(row_factor)

    monkeypatch.setattr(margins, "rank_factor", counting)
    monkeypatch.setattr(validation, "rank_factor", counting)
    monkeypatch.setattr(validation, "_usable_cores", lambda: 2)
    base = dict(case="case57", methods=("dc-opf", "sa", "sa-is"), scenarios=200,
                reps=3, n_test=2000, seed=3)
    by_jobs = {}
    for jobs in (1, 2):
        calls.clear()
        by_jobs[jobs] = run_experiment(ExperimentConfig(**base, jobs=jobs))
        assert calls == [(14, 41)]
    assert by_jobs[2].records == by_jobs[1].records
    assert [r.status for r in by_jobs[1].records] == ["optimal"] * 9


def test_single_repetition_with_two_jobs_runs_serially(monkeypatch):
    base = dict(case="case30", methods=("dc-opf", "sa", "sa-is"), scenarios=300,
                reps=1, n_test=2000, seed=23)
    serial = run_experiment(ExperimentConfig(**base, jobs=1))

    def no_pool(*args, **kwargs):
        raise AssertionError("one repetition needs no pool")

    monkeypatch.setattr(validation, "ProcessPoolExecutor", no_pool)
    assert run_experiment(ExperimentConfig(**base, jobs=2)).records == serial.records


def _recording_pool(monkeypatch) -> list[int]:
    # the worker count of every pool run_experiment starts
    started = []

    class Recording(ProcessPoolExecutor):
        def __init__(self, max_workers, **kwargs):
            started.append(max_workers)
            super().__init__(max_workers, **kwargs)

    monkeypatch.setattr(validation, "ProcessPoolExecutor", Recording)
    return started


def test_pool_starts_no_more_workers_than_repetitions(monkeypatch, tmp_path):
    path = tmp_path / "tri.m"
    path.write_text(TRIANGLE_TEXT)
    monkeypatch.setattr(validation, "_usable_cores", lambda: 8)
    started = _recording_pool(monkeypatch)
    run_experiment(ExperimentConfig(case=str(path), methods=("sa",), scenarios=5,
                                    reps=2, n_test=50, jobs=3))
    assert started == [2]


def test_pool_starts_no_more_workers_than_usable_cores(monkeypatch, tmp_path):
    path = tmp_path / "tri.m"
    path.write_text(TRIANGLE_TEXT)
    monkeypatch.setattr(validation, "_usable_cores", lambda: 2)
    started = _recording_pool(monkeypatch)
    run_experiment(ExperimentConfig(case=str(path), methods=("sa",), scenarios=5,
                                    reps=3, n_test=50, jobs=64))
    assert started == [2]


def _worker_pids() -> set[int]:
    return {p.pid for p in multiprocessing.active_children()}


def _alive(pid: int) -> bool:
    # a running process; one that exited and awaits its reaping is not
    try:
        os.kill(pid, 0)
    except ProcessLookupError:
        return False
    try:
        with open(f"/proc/{pid}/stat", encoding="utf-8") as fh:
            return fh.read().rsplit(")", 1)[1].split()[0] != "Z"
    except FileNotFoundError:
        return False


def test_pooled_runs_reuse_one_warm_pool(monkeypatch):
    # the benchmark's pass shape: case30, then case57, in one process
    monkeypatch.setattr(validation, "_usable_cores", lambda: 2)
    pids = []
    for name in ("case30", "case57"):
        config = ExperimentConfig(case=name, methods=("dc-opf", "sa", "sa-is"), scenarios=300,
                                  reps=3, n_test=5000, seed=41, jobs=2)
        want = run_experiment(replace(config, jobs=1)).records
        assert run_experiment(config).records == want
        pids.append(_worker_pids())
    assert len(pids[0]) == 2
    assert pids[1] == pids[0]


def test_a_worker_killed_between_runs_gets_a_fresh_pool(monkeypatch):
    monkeypatch.setattr(validation, "_usable_cores", lambda: 2)
    config = ExperimentConfig(case="case30", methods=("sa", "sa-is"), scenarios=200, reps=2,
                              n_test=2000, seed=43, jobs=2)
    want = run_experiment(replace(config, jobs=1)).records
    assert run_experiment(config).records == want
    old = multiprocessing.active_children()
    os.kill(old[0].pid, signal.SIGKILL)
    old[0].join(timeout=60)
    assert run_experiment(config).records == want
    assert len(_worker_pids()) == 2
    assert not any(_alive(p.pid) for p in old)


def test_a_worker_dying_in_a_run_fails_that_run_alone(monkeypatch):
    monkeypatch.setattr(validation, "_usable_cores", lambda: 2)
    config = ExperimentConfig(case="case30", methods=("sa",), scenarios=200, reps=2,
                              n_test=2000, seed=47, jobs=2)
    want = run_experiment(replace(config, jobs=1)).records

    def die(experiment, method, rep, drawn):
        os._exit(1)

    # the workers fork after the patch, so their _run_one calls die
    with monkeypatch.context() as patched:
        patched.setattr(validation, "_run_one", die)
        with pytest.raises(BrokenProcessPool):
            run_experiment(config)
    dead = _worker_pids()
    # the next pool forks from the restored module
    assert run_experiment(config).records == want
    assert _worker_pids().isdisjoint(dead)


def test_a_new_worker_count_replaces_the_pool(monkeypatch, tmp_path):
    path = tmp_path / "tri.m"
    path.write_text(TRIANGLE_TEXT)
    monkeypatch.setattr(validation, "_usable_cores", lambda: 3)
    config = ExperimentConfig(case=str(path), methods=("sa",), scenarios=5, reps=3, n_test=50)
    want = run_experiment(config).records
    assert run_experiment(replace(config, jobs=2)).records == want
    two = _worker_pids()
    assert run_experiment(replace(config, jobs=3)).records == want
    three = _worker_pids()
    assert (len(two), len(three)) == (2, 3)
    assert not any(_alive(pid) for pid in two)
    assert two.isdisjoint(three)


def test_concurrent_pooled_runs_keep_their_own_records(monkeypatch, tmp_path):
    # three threads' runs on one process's pool, two of them at three
    # workers (more than the cores) and one at two: the runs take turns,
    # so none replaces the pool under another, and each run gets its own
    # records
    from concurrent.futures import ThreadPoolExecutor

    path = tmp_path / "tri.m"
    path.write_text(TRIANGLE_TEXT)
    monkeypatch.setattr(validation, "_usable_cores", lambda: 3)
    configs = [ExperimentConfig(case=str(path), methods=("sa", "sa-is"), scenarios=5, reps=6,
                                n_test=50, seed=seed, jobs=jobs)
               for seed, jobs in ((1, 3), (2, 2), (3, 3))]
    want = [run_experiment(replace(config, jobs=1)).records for config in configs]
    assert len(set(want)) == 3
    with ThreadPoolExecutor(max_workers=3) as threads:
        for _ in range(5):
            reports = threads.map(run_experiment, configs, timeout=120)
            assert [report.records for report in reports] == want


_POOLED_RUN_EXIT = """
import multiprocessing
import ccopf.validation as validation
from ccopf import ExperimentConfig, run_experiment
validation._usable_cores = lambda: 2
run_experiment(ExperimentConfig(case="case30", methods=("sa",), scenarios=200, reps=2,
                                n_test=100, jobs=2))
print(*sorted(p.pid for p in multiprocessing.active_children()))
"""


def test_pool_workers_exit_with_the_interpreter():
    # nothing shuts the pool down but the exit hook _shutdown_pool
    if not os.path.isdir("/proc/self"):
        pytest.skip("no /proc to tell a live process from a reaped one")
    env = dict(os.environ, PYTHONPATH=os.pathsep.join(sys.path))
    proc = subprocess.run([sys.executable, "-c", _POOLED_RUN_EXIT], env=env,
                          capture_output=True, text=True, timeout=120)
    assert proc.returncode == 0, proc.stderr
    pids = [int(pid) for pid in proc.stdout.split()]
    assert len(pids) == 2
    assert not any(_alive(pid) for pid in pids)


_POOLED_RUN_STARTED_BY = """
import multiprocessing, sys
from dataclasses import replace
import ccopf.validation as validation
from ccopf import ExperimentConfig, run_experiment

if __name__ == "__main__":
    multiprocessing.set_start_method(sys.argv[1])
    validation._usable_cores = lambda: 2
    config = ExperimentConfig(case="case57", methods=("dc-opf", "sa", "sa-is"), scenarios=200,
                              reps=5, n_test=2000, seed=53, jobs=2)
    want = run_experiment(replace(config, jobs=1)).records
    got = run_experiment(config).records
    print(validation._POOL[1]._mp_context.get_start_method(), got == want)
"""


@pytest.mark.parametrize("method", ["forkserver", "spawn"])
def test_pooled_run_under_a_start_method_without_fork(tmp_path, method):
    # a spawned or forkserver worker inherits nothing: it imports ccopf,
    # starts in _start_worker and gets _run_reps and the experiment by
    # pickle, two chunks of 3 and 2 repetitions. The script's guard keeps
    # a worker that imports it as its main module from running it
    if method not in multiprocessing.get_all_start_methods():
        pytest.skip(f"no {method} start method on this platform")
    script = tmp_path / "pooled_run.py"
    script.write_text(_POOLED_RUN_STARTED_BY)
    env = dict(os.environ, PYTHONPATH=os.pathsep.join(sys.path))
    proc = subprocess.run([sys.executable, str(script), method], env=env,
                          capture_output=True, text=True, timeout=300)
    assert proc.returncode == 0, proc.stderr
    assert proc.stdout.split() == [method, "True"]


_KILLED_WORKER_EXIT = """
import multiprocessing, os, signal
import ccopf.validation as validation
from ccopf import ExperimentConfig, run_experiment
validation._usable_cores = lambda: 2
run_experiment(ExperimentConfig(case="case30", methods=("sa",), scenarios=200, reps=2,
                                n_test=100, jobs=2))
pids = sorted(p.pid for p in multiprocessing.active_children())
print(*pids, flush=True)
os.kill(pids[0], signal.SIGKILL)
"""


def test_interpreter_exits_after_an_idle_worker_is_killed():
    # the killed worker may have held the task queue's read lock, which
    # its idle mate then waits on forever: concurrent.futures' exit hook
    # alone would ask that mate to stop and join it, which hung about one
    # exit in four. Each try gets its own interpreter
    if not os.path.isdir("/proc/self"):
        pytest.skip("no /proc to tell a live process from a reaped one")
    env = dict(os.environ, PYTHONPATH=os.pathsep.join(sys.path))
    for _ in range(8):
        try:
            proc = subprocess.run([sys.executable, "-c", _KILLED_WORKER_EXIT], env=env,
                                  capture_output=True, text=True, timeout=60)
        except subprocess.TimeoutExpired as hung:
            # the interpreter is killed, not its workers: end them here
            for pid in (hung.stdout or b"").split():
                with contextlib.suppress(ProcessLookupError):
                    os.kill(int(pid), signal.SIGKILL)
            pytest.fail("the interpreter did not exit")
        assert proc.returncode == 0, proc.stderr
        pids = [int(pid) for pid in proc.stdout.split()]
        assert len(pids) == 2
        assert not any(_alive(pid) for pid in pids)


def test_usable_cores_without_an_affinity_call(monkeypatch):
    assert 1 <= validation._usable_cores() <= (os.cpu_count() or 1)
    monkeypatch.delattr(os, "sched_getaffinity", raising=False)
    monkeypatch.setattr(os, "cpu_count", lambda: None)
    assert validation._usable_cores() == 1


def test_one_check_per_repetition_with_an_optimal_dispatch(monkeypatch, tmp_path):
    calls = []
    check = validation.out_of_sample_confidence

    def counting(x, *args):
        calls.append(np.shape(x))
        return check(x, *args)

    monkeypatch.setattr(validation, "out_of_sample_confidence", counting)
    config = ExperimentConfig(case="case30", methods=("dc-opf", "sa", "sa-is"),
                              scenarios=100, reps=3, n_test=500, seed=2)
    report = run_experiment(config)
    assert [r.status for r in report.records] == ["optimal"] * 9
    assert len(calls) == 3
    assert all(shape[0] == 3 for shape in calls)

    # a repetition with no optimal dispatch has nothing to check
    calls.clear()
    path = tmp_path / "heavy.m"
    path.write_text(TRIANGLE_TEXT.replace("\t3\t1\t80;", "\t3\t1\t200;"))
    report = run_experiment(ExperimentConfig(case=str(path), methods=("dc-opf", "sa"),
                                             scenarios=5, reps=2, n_test=50))
    assert {r.status for r in report.records} == {"infeasible"}
    assert calls == []


def _one_check_per_record(config: ExperimentConfig) -> tuple[RepetitionRecord, ...]:
    # the records as one solve and one single-dispatch check per method
    # and repetition give them; nan scores for a method that is not optimal
    problem = validation.prepare_experiment(config)
    records = []
    for method in config.methods:
        n = resolve_scenario_count(config, problem.case, method, problem)
        for rep in range(config.reps):
            seed = config.seed + rep
            if method == "dc-opf":
                sol = solve_prepared(problem, "sa", 0, config.seed)
            else:
                sol = solve_prepared(problem, method, n, seed)
            if sol.status != "optimal":
                records.append(RepetitionRecord(method, rep, seed, n, sol.status,
                                                math.nan, math.nan, math.nan))
                continue
            conf, stderr = out_of_sample_confidence(
                sol.injection_pu, problem.poly, problem.g, config.n_test,
                seed + validation._TEST_SEED_OFFSET,
            )
            records.append(RepetitionRecord(method, rep, seed, n, "optimal",
                                            sol.objective, conf, stderr))
    return tuple(records)


@pytest.mark.parametrize("name", ["case30", "case57"])
def test_run_equals_one_check_per_method_and_repetition(monkeypatch, name):
    monkeypatch.setattr(validation, "_usable_cores", lambda: 2)
    base = dict(case=name, methods=("dc-opf", "sa", "sa-is"), scenarios=300,
                reps=3, n_test=10_003, seed=31)
    want = _one_check_per_record(ExperimentConfig(**base))
    assert run_experiment(ExperimentConfig(**base, jobs=1)).records == want
    assert run_experiment(ExperimentConfig(**base, jobs=2)).records == want


def _nan_as_none(records) -> list[dict]:
    # nan compares unequal to itself, so records are compared as the report
    # writes them
    return [{k: None if isinstance(v, float) and math.isnan(v) else v
             for k, v in asdict(r).items()} for r in records]


def test_run_with_mixed_statuses_in_a_repetition():
    # at eta 1e-4, 5,656 tail draws (the closed-form mixture count, three
    # blocks of the mixture stream) leave sa-is optimal on seed 1 and
    # infeasible on seeds 2 and 3; dc-opf, listed after it, is optimal on
    # every seed, so an index slip between the solves and the checked
    # dispatches would move its scores
    config = ExperimentConfig(case="case30", methods=("sa-is", "dc-opf"), eta=1e-4,
                              scenarios=5656, reps=3, seed=1, n_test=1000)
    report = run_experiment(config)
    assert [r.status for r in report.records] == ["optimal"] + ["infeasible"] * 2 + ["optimal"] * 3
    assert _nan_as_none(report.records) == _nan_as_none(_one_check_per_record(config))


def _worker_blas_threads() -> list[int]:
    return [get() for get, _ in validation._openblas()]


def _mapped_openblas() -> set[str]:
    with open("/proc/self/maps", encoding="utf-8") as fh:
        return {line.split()[-1] for line in fh if "openblas" in line.lower()}


def _scipy_dirs() -> tuple[str, ...]:
    # SciPy's package folder and the scipy.libs folder beside it, where its
    # wheel keeps its own OpenBLAS; found without importing SciPy. NumPy's
    # OpenBLAS (numpy.libs/libscipy_openblas64_-*.so in a wheel) lies
    # outside both.
    package = os.path.dirname(importlib.util.find_spec("scipy").origin)
    return (package + os.sep, package + ".libs" + os.sep)


@pytest.fixture
def threaded_blas():
    # every OpenBLAS library the caller has mapped at two threads, so a run
    # or a worker has counts to lower; the former counts are restored after
    pairs = validation._openblas()
    if not pairs:
        pytest.skip("no OpenBLAS library found")
    before = _worker_blas_threads()
    for _, set_threads in pairs:
        set_threads(2)
    yield _worker_blas_threads()
    for (_, set_threads), count in zip(pairs, before, strict=True):
        set_threads(count)


def test_blas_rule_pairs_each_library_with_itself(monkeypatch):
    # two mapped libraries, the first exporting only a getter: one scan of
    # the map pairs each library's own getter and setter, skips the
    # incomplete one, and sets only the complete library's threads
    maps = "".join(f"7f00-7f01 r-xp 0 08:01 1 /lib/{name}/libopenblas.so\n"
                   for name in ("a-getter-only", "b-complete"))
    reads, calls = [], []

    def fake_open(path, encoding=None):
        reads.append(path)
        return io.StringIO(maps)

    def entry(lib, call, result=None):
        def fn(*args):
            calls.append((lib, call, *args))
            return result
        return fn

    libs = {
        "/lib/a-getter-only/libopenblas.so": SimpleNamespace(
            openblas_get_num_threads=entry("a", "get", 8)),
        "/lib/b-complete/libopenblas.so": SimpleNamespace(
            scipy_openblas_get_num_threads64_=entry("b", "get", 4),
            scipy_openblas_set_num_threads64_=entry("b", "set")),
    }
    monkeypatch.setattr(validation, "open", fake_open, raising=False)
    monkeypatch.setattr(ctypes, "CDLL", libs.__getitem__)
    validation._one_blas_thread()
    assert reads == ["/proc/self/maps"]
    assert calls == [("b", "get"), ("b", "set", 1)]


def test_pool_workers_use_one_blas_thread(threaded_blas):
    # a forked worker starts at the caller's two threads, so only
    # _start_worker brings it to one
    with ProcessPoolExecutor(max_workers=1, initializer=validation._start_worker) as pool:
        in_worker = pool.submit(_worker_blas_threads).result()
    assert in_worker == [1] * len(threaded_blas)
    # the caller's own BLAS is left alone
    assert _worker_blas_threads() == threaded_blas


def _blas_after_a_solve() -> dict:
    # in a pool worker: a kernel call and a dispatch solve, then whether
    # the HiGHS binding was loaded before that solve, and the thread
    # counts of every OpenBLAS mapped and those that SciPy's folders hold
    norm_cdf(0.0)
    loaded_before = "scipy.optimize._highspy._core" in sys.modules
    case = parse_case(TRIANGLE_TEXT)
    solve_prepared(prepare_problem(case, build_uncertainty(case, 0.05), 0.05), "sa", 10, 0)
    return {"binding_before_solve": loaded_before, "threads": _worker_blas_threads(),
            "scipy": sorted(p for p in _mapped_openblas() if p.startswith(_scipy_dirs()))}


def test_spawned_workers_use_one_blas_thread(monkeypatch):
    # a spawned worker shares no memory with the caller and starts at the
    # environment's count (capped at the cores): _start_worker is the only
    # place that count is lowered. It loads no HiGHS binding: the worker's
    # first solve does. The run path maps one OpenBLAS, NumPy's: the
    # kernels need no SciPy, and the HiGHS binding maps none, so after a
    # kernel call and a solve that one library reports one thread and no
    # SciPy OpenBLAS is mapped
    if not _worker_blas_threads():
        pytest.skip("no OpenBLAS library found")
    monkeypatch.setenv("OPENBLAS_NUM_THREADS", "2")
    with ProcessPoolExecutor(
        max_workers=1, mp_context=multiprocessing.get_context("spawn"),
        initializer=validation._start_worker,
    ) as pool:
        in_worker = pool.submit(_blas_after_a_solve).result()
    assert in_worker == {"binding_before_solve": False, "threads": [1], "scipy": []}


@pytest.mark.parametrize("jobs", [1, 2])
def test_run_leaves_one_blas_thread(monkeypatch, threaded_blas, jobs):
    monkeypatch.setattr(validation, "_usable_cores", lambda: 2)
    before = _mapped_openblas()
    run_experiment(ExperimentConfig(case="case30", methods=("sa",), scenarios=200, reps=2,
                                    n_test=100, jobs=jobs))
    # the run maps no OpenBLAS of its own, and leaves every one at one thread
    assert _mapped_openblas() == before
    assert _worker_blas_threads() == [1] * len(threaded_blas)


_POOLED_RUN_THREADS = """
import os
import threading
import ccopf.validation as validation
from ccopf import ExperimentConfig, run_experiment
validation._usable_cores = lambda: 2

def native_threads():
    return len(os.listdir("/proc/self/task")) - threading.active_count()

before = native_threads()
run_experiment(ExperimentConfig(case="case30", methods=("sa",), scenarios=200, reps=2,
                                n_test=100, jobs=2))
print(before, native_threads())
"""


def test_pooled_run_ends_with_no_more_os_threads():
    # a fresh interpreter, whose NumPy OpenBLAS has its thread server
    # running: the fork shuts every server down, and a count set after it
    # would start that server again. Only threads Python did not start
    # are counted: the pool's own manager and queue threads outlive the
    # run on purpose
    if not _worker_blas_threads():
        pytest.skip("no OpenBLAS library found")
    if not os.path.isdir("/proc/self/task"):
        pytest.skip("no /proc to count threads")
    env = dict(os.environ, PYTHONPATH=os.pathsep.join(sys.path))
    proc = subprocess.run([sys.executable, "-c", _POOLED_RUN_THREADS], env=env,
                          capture_output=True, text=True, timeout=120)
    assert proc.returncode == 0, proc.stderr
    before, after = map(int, proc.stdout.split())
    assert after <= before


_POOLED_RUN_MODULES = """
import multiprocessing
import sys
import ccopf.validation as validation
from ccopf import ExperimentConfig, run_experiment
multiprocessing.set_start_method("fork")
validation._usable_cores = lambda: 2
start = validation._start_worker

def start_and_list():
    start()
    # one write per line: the two workers share the pipe, and unbuffered
    # print writes each argument apart, so their lines could interleave
    sys.stdout.write(f"worker has numpy.random: {'numpy.random' in sys.modules}\\n")
    sys.stdout.flush()

validation._start_worker = start_and_list
run_experiment(ExperimentConfig(case="case30", methods=("sa",), scenarios=200, reps=2,
                                n_test=100, jobs=2))
"""


def test_forked_workers_inherit_the_random_module():
    # a fresh interpreter, where numpy.random (lazy in NumPy 2) is not yet
    # loaded when the pool forks; a worker that imported it would spend
    # about 20 ms of every pooled run on it
    env = dict(os.environ, PYTHONPATH=os.pathsep.join(sys.path))
    proc = subprocess.run([sys.executable, "-c", _POOLED_RUN_MODULES], env=env,
                          capture_output=True, text=True, timeout=120)
    assert proc.returncode == 0, proc.stderr
    assert proc.stdout.splitlines() == ["worker has numpy.random: True"] * 2


_REPEATED_RUN_FAULTS = """
import resource
from ccopf import ExperimentConfig, run_experiment
from ccopf.validation import prepare_experiment
for case in ("case30", "case57"):
    config = ExperimentConfig(case=case, methods=("dc-opf", "sa", "sa-is"), reps=10,
                              seed=2024)
    problem = prepare_experiment(config)
    run_experiment(config, problem)
    for _ in range(3):
        before = resource.getrusage(resource.RUSAGE_SELF).ru_minflt
        run_experiment(config, problem)
        print(resource.getrusage(resource.RUSAGE_SELF).ru_minflt - before)
"""


def _has_mallopt() -> bool:
    try:
        return hasattr(ctypes.CDLL(None), "mallopt")
    except (OSError, TypeError):
        return False


def test_repeated_runs_reuse_the_heap():
    # a fresh interpreter running the certified-count protocol (eta 0.05,
    # auto counts, 1,000 test draws) again after a warm-up run: with
    # glibc's default thresholds each case30 run trimmed its heap and
    # faulted it back in, about 3,650 minor faults a run
    if not _has_mallopt():
        pytest.skip("no glibc mallopt")
    env = dict(os.environ, PYTHONPATH=os.pathsep.join(sys.path))
    proc = subprocess.run([sys.executable, "-c", _REPEATED_RUN_FAULTS], env=env,
                          capture_output=True, text=True, timeout=120)
    assert proc.returncode == 0, proc.stderr
    faults = [int(line) for line in proc.stdout.split()]
    assert len(faults) == 6 and max(faults) < 100


@pytest.mark.parametrize("library", [object(), OSError("no C library")], ids=["no-mallopt", "no-library"])
def test_steady_heap_does_nothing_without_mallopt(monkeypatch, library):
    def cdll(name):
        if isinstance(library, Exception):
            raise library
        return library

    monkeypatch.setattr(validation.ctypes, "CDLL", cdll)
    assert validation._steady_heap() is None


def _threads_after_blas(report_dir, rep: int) -> None:
    # in a pool worker: a product big enough for threaded BLAS in NumPy's
    # and SciPy's OpenBLAS, then the thread counts it left behind
    import scipy.linalg.blas

    a = np.ones((600, 600))
    a @ a
    scipy.linalg.blas.dgemm(1.0, a, a)
    report = {"pid": os.getpid(), "blas": _worker_blas_threads(),
              "os_threads": len(os.listdir("/proc/self/task"))}
    (report_dir / f"rep{rep}.json").write_text(json.dumps(report))


def test_pool_workers_never_start_blas_threads(monkeypatch, tmp_path):
    # a library caller that uses SciPy's BLAS itself maps SciPy's OpenBLAS
    # before the run, so the run lowers that one too
    import scipy.linalg.blas  # noqa: F401

    if not _worker_blas_threads():
        pytest.skip("no OpenBLAS library found")
    if not os.path.isdir("/proc/self/task"):
        pytest.skip("no /proc to count threads")
    run_one = validation._run_one

    # the pool's workers fork after the patch, and the run's one method
    # solves once per repetition
    def run_and_report(experiment, method, rep, drawn):
        solution = run_one(experiment, method, rep, drawn)
        _threads_after_blas(tmp_path, rep)
        return solution

    monkeypatch.setattr(validation, "_run_one", run_and_report)
    monkeypatch.setattr(validation, "_usable_cores", lambda: 2)
    run_experiment(ExperimentConfig(case="case30", methods=("sa",), scenarios=200,
                                    reps=2, n_test=100, jobs=2))
    reports = [json.loads((tmp_path / f"rep{rep}.json").read_text()) for rep in range(2)]
    for report in reports:
        assert report["pid"] != os.getpid()
        assert report["blas"] == [1] * len(_worker_blas_threads())
        assert report["os_threads"] == 1


def test_runs_solve_a_dispatch_from_no_draws_once(monkeypatch):
    # at --scenarios 0 no method draws, so each is solved once per run, not
    # once per repetition, and records what per-repetition solves give
    monkeypatch.setattr(validation, "_usable_cores", lambda: 2)
    config = ExperimentConfig(case="case57", methods=("dc-opf", "sa", "sa-is"), scenarios=0,
                              reps=4, n_test=2000, seed=9)
    problem = validation.prepare_experiment(config)
    solves = []
    solve = scenario.solve
    monkeypatch.setattr(scenario, "solve", lambda lp: solves.append(lp) or solve(lp))
    report = run_experiment(config, problem)
    assert len(solves) == 3
    per_rep = validation._Experiment(config, problem, report.resolved, fixed={})
    by_rep = validation._run_reps(per_rep, range(config.reps))
    assert len(solves) == 3 + 3 * config.reps
    assert report.records == tuple(by_rep[rep][i] for i in range(3) for rep in range(config.reps))
    assert {r.status for r in report.records} == {"optimal"}
    assert run_experiment(replace(config, jobs=2), problem).records == report.records


def test_a_block_draws_then_solves_then_checks(monkeypatch):
    # the fixed dc-opf dispatch is solved before the repetitions; then the
    # block draws all six offsets, solves all six LPs and checks its three
    # repetitions, in that order
    events = []

    def recording(name, fn):
        return functools.wraps(fn)(lambda *a, **k: events.append(name) or fn(*a, **k))

    draw = recording("draw", scenario.scenario_offsets)
    monkeypatch.setattr(scenario, "scenario_offsets", draw)
    monkeypatch.setattr(validation, "scenario_offsets", draw)
    monkeypatch.setattr(scenario, "solve", recording("solve", scenario.solve))
    monkeypatch.setattr(validation, "out_of_sample_confidence",
                        recording("check", validation.out_of_sample_confidence))
    config = ExperimentConfig(case="case57", methods=("dc-opf", "sa", "sa-is"), scenarios=20,
                              reps=3, n_test=200, seed=5)
    report = run_experiment(config)
    assert {r.status for r in report.records} == {"optimal"}
    assert events == ["draw", "solve"] + ["draw"] * 6 + ["solve"] * 6 + ["check"] * 3


def test_records_cross_block_and_chunk_boundaries_unchanged(monkeypatch):
    # 70 repetitions run as blocks of 64 and 6 serially, and as chunks of
    # 35 on two workers: every record is the one its repetition gets alone
    monkeypatch.setattr(validation, "_usable_cores", lambda: 2)
    config = ExperimentConfig(case="case57", methods=("dc-opf", "sa", "sa-is"), scenarios=20,
                              reps=validation._REP_BLOCK + 6, n_test=200, seed=61)
    problem = validation.prepare_experiment(config)
    report = run_experiment(config, problem)
    alone = validation._Experiment(config, problem, report.resolved, fixed={})
    by_rep = [validation._run_reps(alone, range(rep, rep + 1))[0] for rep in range(config.reps)]
    want = tuple(by_rep[rep][i] for i in range(3) for rep in range(config.reps))
    assert report.records == want
    assert run_experiment(replace(config, jobs=2), problem).records == want


def test_experiment_records_infeasible_runs(tmp_path):
    # a load beyond total capacity cannot be dispatched
    path = tmp_path / "heavy.m"
    path.write_text(TRIANGLE_TEXT.replace("\t3\t1\t80;", "\t3\t1\t200;"))
    config = ExperimentConfig(case=str(path), methods=("dc-opf",), reps=1, n_test=10)
    report = run_experiment(config)
    rec = report.records[0]
    assert rec.status == "infeasible"
    assert math.isnan(rec.objective)
    assert math.isnan(rec.confidence)
    assert report.summary()["dc-opf"]["optimal"] == 0


def test_experiment_records_solver_errors_and_completes(monkeypatch):
    # no simplex iteration allowed: HiGHS stops at its iteration limit
    scenario._load_highs()  # HIGHS_OPTIONS exists once the binding is loaded
    monkeypatch.setattr(scenario.HIGHS_OPTIONS, "presolve", "off")
    monkeypatch.setattr(scenario.HIGHS_OPTIONS, "simplex_iteration_limit", 0)
    monkeypatch.setattr(validation, "_usable_cores", lambda: 2)
    config = ExperimentConfig(
        case="case30", methods=("dc-opf", "sa", "sa-is"), reps=2, scenarios=50, n_test=100
    )
    report = run_experiment(config)
    # the solver-error dispatches, dc-opf's solved-once one among them,
    # cross the pool as values and give the serial records
    assert run_experiment(replace(config, jobs=2)).to_dict() == report.to_dict()
    assert [(r.method, r.rep) for r in report.records] == [
        (m, k) for m in config.methods for k in range(2)
    ]
    for rec in report.records:
        assert rec.status == "solver-error"
        assert math.isnan(rec.objective)
        assert math.isnan(rec.confidence)
        assert math.isnan(rec.conf_stderr)
    assert all(s["optimal"] == 0 for s in report.summary().values())
