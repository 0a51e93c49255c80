"""Acceptance gate: one criterion per test, one printed PASS/FAIL line each.

Run with `pytest tests/test_acceptance.py -v -s` to see the verdict lines;
each test also fails hard when its criterion is violated, so a plain
pytest run is authoritative. Criteria with a runtime budget measure wall
time and include it in the verdict.
"""
from __future__ import annotations

import math
import time
from pathlib import Path

import numpy as np
from scipy.optimize import linprog

from ccopf import (
    Branch,
    Bus,
    ExperimentConfig,
    FeasibilityPolytope,
    GaussianSpec,
    Generator,
    GridCase,
    ScenarioSet,
    assemble,
    build_matrices,
    build_mixture,
    build_polytope,
    build_uncertainty,
    bundled_case_path,
    compute_margins,
    contains_inner,
    draw_gaussian_scenarios,
    draw_mixture_scenarios,
    importance_ratio,
    load_case,
    out_of_sample_confidence,
    run_experiment,
    run_sa,
    run_sa_is,
    sample_mixture_batch,
    sample_size_cc,
    sample_size_filtered,
    sample_size_is,
    solve,
    solve_1d_synthetic,
)
from ccopf.cli import main
from ccopf.kernels import norm_cdf, norm_isf, norm_sf


def _verdict(num: int, label: str, ok: bool, detail: str) -> None:
    """Print the criterion line first so it survives a failing assert."""
    print(f"acceptance criterion {num} [{label}]: {'PASS' if ok else 'FAIL'} ({detail})")
    assert ok, f"criterion {num} [{label}] failed: {detail}"


# ---------------------------------------------------------------------------
# 1. 1-D oracle: tightened solutions never cross the exact optimum

def test_criterion_1_one_dimensional_oracle():
    poly = FeasibilityPolytope(
        normals=np.array([[1.0]]),
        offsets=np.array([0.0]),
        labels=(("injection-upper", 0),),
    )
    g = GaussianSpec(cov=np.array([[1.0]]))

    t0 = time.monotonic()
    max_gap = -math.inf
    min_conf_margin = math.inf
    for eta in (0.05, 0.01):
        for seed in range(50):
            x_hat, gap = solve_1d_synthetic(0.0, eta, "sa-is", 100, seed)
            max_gap = max(max_gap, gap)
            conf, _ = out_of_sample_confidence(
                np.array([x_hat]), poly, g, 10**5, seed + 10_000
            )
            min_conf_margin = min(min_conf_margin, conf - (1.0 - eta - 0.005))
    elapsed = time.monotonic() - t0

    ok = max_gap <= 1e-9 and min_conf_margin >= 0.0 and elapsed < 10.0
    _verdict(
        1,
        "1-d oracle",
        ok,
        f"max gap {max_gap:.3e}, worst confidence margin {min_conf_margin:+.4f}, "
        f"{elapsed:.1f}s of 10s",
    )


# ---------------------------------------------------------------------------
# 2. sampler law: tail draws follow the truncated normal

def test_criterion_2_sampler_law():
    n = 10**5
    crit = 1.628 / math.sqrt(n)  # 1% asymptotic KS critical value

    t0 = time.monotonic()
    worst_d = 0.0
    all_in_halfspace = True
    for k, beta in enumerate((0.0, 1.0, 2.0, 4.0)):
        eta = float(norm_sf(beta))
        poly = FeasibilityPolytope(
            normals=np.array([[1.0]]),
            offsets=np.array([5.0]),
            labels=(("injection-upper", 0),),
        )
        g = GaussianSpec(cov=np.array([[1.0]]))
        m = compute_margins(poly, g, eta)
        ms = build_mixture(poly, m, g)
        scen = draw_mixture_scenarios(ms, n, seed=400 + k)
        proj = scen.scenarios[:, 0]

        all_in_halfspace &= bool(np.all(proj >= float(ms.thresholds[0]) - 1e-12))
        t = np.sort(proj)
        cdf = (norm_cdf(t) - (1.0 - eta)) / eta
        i = np.arange(1, n + 1)
        d_stat = max(float(np.max(i / n - cdf)), float(np.max(cdf - (i - 1) / n)))
        worst_d = max(worst_d, d_stat)
    elapsed = time.monotonic() - t0

    ok = worst_d < crit and all_in_halfspace and elapsed < 30.0
    _verdict(
        2,
        "sampler law",
        ok,
        f"worst KS {worst_d:.5f} vs {crit:.5f}, half-space "
        f"{'100%' if all_in_halfspace else 'violated'}, {elapsed:.1f}s of 30s",
    )


# ---------------------------------------------------------------------------
# 3. density-ratio bound on a random polytope

def test_criterion_3_density_ratio_bound():
    rng = np.random.default_rng(31)
    raw = rng.standard_normal((10, 5))
    normals = raw / np.linalg.norm(raw, axis=1, keepdims=True)
    poly = FeasibilityPolytope(
        normals=normals,
        offsets=rng.uniform(0.5, 2.0, size=10),
        labels=tuple(("injection-upper", i) for i in range(10)),
    )
    g = GaussianSpec(cov=np.eye(5))
    m = compute_margins(poly, g, 0.05)
    ms = build_mixture(poly, m, g)

    t0 = time.monotonic()
    # the stream of draw_mixture_scenarios(ms, 10**4, seed=52), scored in
    # support coordinates and checked against the rows on the buses
    w, _ = sample_mixture_batch(ms, 10**4, np.random.default_rng(52))
    # importance_ratio is the unconditional nominal density over the
    # mixture density; conditioning on the outside event divides by its
    # probability, estimated here from an independent nominal stream
    ratios = importance_ratio(ms, w)
    outside_draws = ~contains_inner(m, poly, g.from_reduced(w))

    z = np.random.default_rng(53).standard_normal((10**6, 5))
    outside = ~contains_inner(m, poly, z)
    p_out = float(np.mean(outside))
    se = math.sqrt(p_out * (1.0 - p_out) / 10**6)
    elapsed = time.monotonic() - t0

    bound = ms.M * (p_out + 3.0 * se) * (1.0 + 1e-6)
    max_ratio = float(np.max(ratios))
    ok = (
        max_ratio <= bound
        and bool(np.all(outside_draws))
        and bool(np.all(np.isfinite(ratios)))
        and elapsed < 60.0
    )
    _verdict(
        3,
        "density-ratio bound",
        ok,
        f"max conditional ratio {max_ratio / p_out:.3f} vs M {ms.M:.3f} "
        f"(outside mass {p_out:.4f}), {elapsed:.1f}s of 60s",
    )


# ---------------------------------------------------------------------------
# 4. certified sample-size formulas on the frozen grid

# frozen with 50-digit arithmetic; integer equality required
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


def test_criterion_4_sample_size_formulas():
    mismatches: list[str] = []
    for eps, delta, d, want in CC_SIZES:
        got = sample_size_cc(eps, delta, d)
        if got != want:
            mismatches.append(f"cc{(eps, delta, d)}={got}!={want}")
        if sample_size_filtered(eps, delta, d, 0.0) != got:
            mismatches.append(f"filtered pi=0 reduction at {(eps, delta, d)}")
    for eta, delta, d, pi, want in FILTERED_SIZES:
        got = sample_size_filtered(eta, delta, d, pi)
        if got != want:
            mismatches.append(f"filtered{(eta, delta, d, pi)}={got}!={want}")
        if sample_size_is(eta, delta, d, pi, 1.0) != got:
            mismatches.append(f"is M=1 reduction at {(eta, delta, d, pi)}")
    for eta, delta, d, pi, big_m, want in IS_SIZES:
        got = sample_size_is(eta, delta, d, pi, big_m)
        if got != want:
            mismatches.append(f"is{(eta, delta, d, pi, big_m)}={got}!={want}")

    ok = not mismatches
    _verdict(
        4,
        "sample-size formulas",
        ok,
        "20 grid points exact, reductions exact" if ok else "; ".join(mismatches),
    )


# ---------------------------------------------------------------------------
# 5. scenario collapse equals the fully stacked LP

def _random_instance(rng: np.random.Generator) -> GridCase:
    """Small connected case: random tree plus extras, slack generator first."""
    n = int(rng.integers(2, 7))
    loads = rng.uniform(0.0, 40.0, size=n)
    loads[rng.random(n) < 0.3] = 0.0

    branches: list[Branch] = []

    def add_branch(a: int, b: int):
        limit = math.inf if rng.random() < 0.5 else float(rng.uniform(0.05, 0.5))
        branches.append(
            Branch(
                from_bus=a,
                to_bus=b,
                reactance=float(rng.uniform(0.05, 0.5)),
                angle_limit=limit,
            )
        )

    for k in range(2, n + 1):
        add_branch(int(rng.integers(1, k)), k)  # spanning tree
    for _ in range(int(rng.integers(0, n))):
        a, b = rng.choice(np.arange(1, n + 1), size=2, replace=False)
        add_branch(int(a), int(b))

    gens = [Generator(bus=1, p_min_mw=0.0, p_max_mw=float(rng.uniform(40, 120)), cost=float(rng.uniform(1, 10)))]
    for _ in range(int(rng.integers(1, 4))):
        p_min = float(rng.uniform(0.0, 10.0))
        gens.append(
            Generator(
                bus=int(rng.integers(1, n + 1)),
                p_min_mw=p_min,
                p_max_mw=p_min + float(rng.uniform(10.0, 80.0)),
                cost=float(rng.uniform(1, 10)),
            )
        )

    gen_buses = {gen.bus for gen in gens}
    buses = tuple(
        Bus(
            id=i,
            kind="slack" if i == 1 else ("generator" if i in gen_buses else "load"),
            load_mw=float(loads[i - 1]),
            p_nominal_mw=-float(loads[i - 1]),
        )
        for i in range(1, n + 1)
    )
    return GridCase(
        name="random",
        base_mva=100.0,
        buses=buses,
        branches=tuple(branches),
        generators=tuple(gens),
    )


def test_criterion_5_scenario_collapse_equivalence():
    rng = np.random.default_rng(77)
    worst = 0.0
    status_mismatch = 0
    optimal = 0
    for _ in range(100):
        case = _random_instance(rng)
        mat = build_matrices(case)
        poly = build_polytope(case, mat)
        sig = rng.uniform(0.005, 0.05, size=case.n)
        sig[case.slack_index] = 0.0
        g = GaussianSpec.from_covariance(np.diag(sig**2))
        scen = draw_gaussian_scenarios(g, int(rng.integers(1, 51)), int(rng.integers(2**31)))

        lp = assemble(case, poly, scen)
        reduced = solve(lp)

        # stacked route: one assembly per scenario, rows concatenated,
        # handed straight to the LP backend with the same bounds and cost
        rows, rhs = [], []
        for t in range(scen.n):
            one = ScenarioSet(
                scenarios=scen.scenarios[t : t + 1], origin="gaussian", seed=None
            )
            lpt = assemble(case, poly, one)
            rows.append(lpt.a_ub)
            rhs.append(lpt.b_ub)
        res = linprog(
            lp.cost,
            A_ub=np.vstack(rows),
            b_ub=np.concatenate(rhs),
            bounds=list(zip(lp.lower, lp.upper)),
            method="highs",
        )

        if reduced.status == "optimal":
            optimal += 1
            if res.status != 0:
                status_mismatch += 1
            else:
                worst = max(worst, abs(float(res.fun) + lp.cost_offset - reduced.objective))
        elif reduced.status == "infeasible":
            if res.status != 2:
                status_mismatch += 1

    ok = status_mismatch == 0 and worst <= 1e-9 and optimal >= 50
    _verdict(
        5,
        "scenario collapse",
        ok,
        f"100 instances ({optimal} optimal), max objective deviation {worst:.2e}, "
        f"{status_mismatch} status mismatches",
    )


# ---------------------------------------------------------------------------
# 6. two-case experiment protocol at desk scale

def test_criterion_6_table_reproduction():
    t0 = time.monotonic()
    fails: list[str] = []
    summaries = {}
    for name in ("case30", "case57"):
        config = ExperimentConfig(
            case=name,
            methods=("dc-opf", "sa", "sa-is"),
            eta=0.05,
            scenarios=600,
            reps=50,
            sigma_frac=0.07,
            seed=2024,
            n_test=1000,
        )
        report = run_experiment(config)
        s = report.summary()
        summaries[name] = s

        if any(r.status != "optimal" for r in report.records):
            fails.append(f"{name}: non-optimal repetition")
        if not s["sa-is"]["mean_confidence"] >= 0.95:
            fails.append(f"{name}: sa-is coverage {s['sa-is']['mean_confidence']:.4f}")
        if not s["sa"]["mean_confidence"] < s["sa-is"]["mean_confidence"]:
            fails.append(f"{name}: sa confidence not below sa-is")

        dc = {r.rep: r.objective for r in report.records if r.method == "dc-opf"}
        sais = {r.rep: r.objective for r in report.records if r.method == "sa-is"}
        if not all(dc[k] <= sais[k] + 1e-9 for k in dc):
            fails.append(f"{name}: cost ordering dc-opf <= sa-is broken")

    # bundled 57-bus cost data carries the reference linear coefficients,
    # so its baseline cost is held to 5%; the 30-bus file does not, and
    # the ordering and coverage checks above govern it
    dc57 = summaries["case57"]["dc-opf"]["mean_objective"]
    if not abs(dc57 - 25016.0) <= 0.05 * 25016.0:
        fails.append(f"case57 dc-opf cost {dc57:.1f} outside 5% of 25016")
    elapsed = time.monotonic() - t0
    if elapsed >= 600.0:
        fails.append(f"runtime {elapsed:.0f}s")

    ok = not fails
    _verdict(
        6,
        "two-case protocol",
        ok,
        f"case57 dc-opf {dc57:.1f}, sa-is coverage "
        f"{summaries['case30']['sa-is']['mean_confidence']:.3f}/"
        f"{summaries['case57']['sa-is']['mean_confidence']:.3f}, "
        f"{elapsed:.1f}s of 600s" + ("" if ok else "; " + "; ".join(fails)),
    )


# ---------------------------------------------------------------------------
# 7. margin trivia at eta = 1/2

def test_criterion_7_margins_vanish_at_half():
    fails: list[str] = []
    for name in ("case30", "case57"):
        case = load_case(bundled_case_path(name))
        g = build_uncertainty(case, 0.07)
        mat = build_matrices(case)
        poly = build_polytope(case, mat)
        m = compute_margins(poly, g, 0.5)
        if not np.all(m.delta == 0.0):
            fails.append(f"{name}: nonzero margin at eta=0.5")

        nominal = run_sa(case, g, 0.5, 0, seed=3)
        tight = run_sa_is(case, g, 0.5, 0, seed=3)
        same = (
            nominal.status == "optimal"
            and tight.status == "optimal"
            and np.array_equal(tight.x_g, nominal.x_g)
            and tight.objective == nominal.objective
        )
        if not same:
            fails.append(f"{name}: sa-is N=0 differs from nominal")

    ok = not fails
    _verdict(7, "margin trivia", ok, "delta == 0 and exact nominal match" if ok else "; ".join(fails))


# ---------------------------------------------------------------------------
# 8. byte-identical reports under a repeated config

def test_criterion_8_determinism(tmp_path: Path):
    def run_once(into: Path) -> list[bytes]:
        out = into / "report.json"
        code = main(
            [
                "run",
                "--case", "case30",
                "--method", "dc-opf,sa,sa-is",
                "--eta", "0.05",
                "--scenarios", "60",
                "--reps", "3",
                "--seed", "9",
                "--ntest", "200",
                "--out", str(out),
            ]
        )
        assert code == 0
        return [
            out.read_bytes(),
            out.with_suffix(".csv").read_bytes(),
            (into / "report_summary.csv").read_bytes(),
        ]

    first = run_once(tmp_path / "a")
    second = run_once(tmp_path / "b")
    ok = all(x == y for x, y in zip(first, second))
    _verdict(
        8,
        "determinism",
        ok,
        "JSON, per-repetition CSV and summary CSV byte-identical"
        if ok
        else "reports differ between identical runs",
    )
