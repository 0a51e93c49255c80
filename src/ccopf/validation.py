"""Out-of-sample checks, the 1-D synthetic problem, and experiment runs.

A dispatch is validated by drawing fresh deviations and counting how
often the perturbed injections stay feasible. The 1-D problem (one
decision, one row, unit variance) has a closed-form optimum, which makes
it the reference point for conservatism checks and for the sample-count
sweep. run_experiment prepares the case once, runs the repetitions in
blocks (every draw, then every LP, then every check), and aggregates the
outcomes into a serialisable report.
"""
from __future__ import annotations

import ctypes
import itertools
import math
import numbers
import os
import threading
from dataclasses import asdict, dataclass
from pathlib import Path
from typing import TYPE_CHECKING

import numpy as np

from . import scenario
from .grid import FeasibilityPolytope, GridCase, bundled_case_path, load_case
from .grid import build_matrices  # noqa: F401  (perfbench/test_perfbench.py reads it)
from .kernels import norm_isf, norm_sf, tail_quantile
from .margins import GaussianSpec, compute_margins, rank_factor
from .sampler import build_mixture
from .scenario import (
    MAX_ROWS,
    METHODS,
    DispatchSolution,
    PreparedProblem,
    SolverError,
    certified_count,
    prepare_problem,
    sample_size_cc,
    scenario_offsets,
    solve_offsets,
)
from .uncertainty import build_uncertainty

if TYPE_CHECKING:
    from concurrent.futures.process import ProcessPoolExecutor

# Feasibility slack when counting out-of-sample violations; absorbs LP
# solver tolerance at active rows.
_OOS_TOL = 1e-9

# Offset separating the out-of-sample streams from the repetition seeds.
_TEST_SEED_OFFSET = 2**64

# Most repetitions a run holds drawn offsets and dispatches for at once:
# _run_reps runs its repetitions in blocks of this many, stage by stage.
# A block holds 2.4 (case57) to 3.3 KB (case30) per repetition, so at
# most about 210 KB whatever the repetition count.
_REP_BLOCK = 64

# Relative widening of the reach bound sigma_i * r: it absorbs the rounding
# of the norms and of a row's product for any draw width far below 1e6.
_REACH_SLACK = 1e-9


def _reached_rows(sigma: np.ndarray, radius: float, headroom: np.ndarray) -> np.ndarray:
    """Rows that some draw z with ||z|| <= radius may push past headroom.

    |F_i z| <= sigma_i ||z|| with sigma_i = ||F_i||, so a row whose
    widened bound lies at or below its headroom holds for every such
    draw, under any summation order. Written as ~(bound <= headroom) so
    that a NaN headroom is always reached, and so counted outside.
    """
    bound = sigma * radius * (1.0 + _REACH_SLACK)
    return np.flatnonzero(~(bound <= headroom))


def out_of_sample_confidence(
    x: np.ndarray,
    poly: FeasibilityPolytope,
    g: GaussianSpec,
    n_test: int,
    seed: int | None,
    factor: np.ndarray | None = None,
) -> tuple[float, float] | tuple[np.ndarray, np.ndarray]:
    """Fraction of fresh deviations keeping x + xi feasible.

    Returns the estimate and its binomial standard error. Row checks
    allow _OOS_TOL of slack so boundary dispatches are not miscounted.
    The deviations are the Gaussian path's own stream,
    scenario._support_draws, in blocks, so memory stays bounded for any
    n_test; a draw z holds rank R normals and its rows are F z, with
    F = rank_factor(R) and R = W U built from poly and g, the validation
    law, which need not be the prepared one.

    A row is only projected where some draw of the block can exceed it:
    |F_i z| <= sigma_i r, sigma_i = ||F_i|| and r the block's largest
    ||z||, so a row whose bound, widened by _REACH_SLACK, lies at or
    below the headroom holds for every draw of the block (_reached_rows).
    On the bundled cases a block reaches at most a tenth of case30's 94
    rows. Each dispatch is counted on a product of its reached rows
    alone, which the next dispatch of a stack reuses only when it reaches
    the same rows, so a stack of k dispatches, checked against one draw,
    gives each dispatch what its own call with the same seed would, bit
    for bit. A reached row of a shorter product may round differently in
    its last bit from the same row of the full product, so a count can
    differ from the all-row check only by a draw within one rounding of
    a headroom.

    Parameters
    ----------
    x : ndarray
        Nominal injections in p.u., full bus vector; or a (k, n_bus)
        stack of them, for which the estimates and standard errors come
        back as two arrays of length k.
    poly : FeasibilityPolytope
        Feasibility system the perturbed injections must satisfy.
    g : GaussianSpec
        Deviation model to draw from.
    n_test : int
        Number of test deviations.
    seed : int, optional
        Seed for the test stream.
    factor : ndarray, optional
        B already built from poly and g (margins.draw_factor of the
        problem they were prepared in), so a repeated check factorises
        nothing; formed from poly and g when omitted.
    """
    if n_test < 1:
        raise ValueError(f"n_test must be positive, got {n_test}")
    x = np.asarray(x, dtype=float)
    stack = np.ascontiguousarray(np.atleast_2d(x))
    if stack.shape[0] == 0:
        raise ValueError("no dispatch to check: the stack is empty")
    # one matrix-vector product per dispatch, as a single dispatch gets:
    # a batched product would round differently
    headrooms = [poly.offsets - poly.normals @ xj + _OOS_TOL for xj in stack]
    inside = np.zeros(len(headrooms), dtype=np.int64)
    if factor is None:
        factor, _ = rank_factor(poly.normals @ g.reduced_factor)
    sigma = np.sqrt(np.einsum("ij,ij->i", factor, factor))
    for z in scenario._support_draws(n_test, seed, factor.shape[1]):
        radius = math.sqrt(np.max(np.einsum("ij,ij->i", z, z)))
        shared = None
        for j, headroom in enumerate(headrooms):
            rows = _reached_rows(sigma, radius, headroom)
            # a dispatch reaching its predecessor's rows gets the very
            # product its own call would form, so it reuses that one
            if shared is None or not np.array_equal(rows, shared):
                shared, y = rows, factor[rows] @ z.T
            inside[j] += np.count_nonzero(np.all(y <= headroom[rows, None], axis=0))
    prob = inside / n_test
    stderr = np.sqrt(prob * (1.0 - prob) / n_test)
    if x.ndim == 1:
        return float(prob[0]), float(stderr[0])
    return prob, stderr


# ---------------------------------------------------------------------------
# 1-D synthetic problem

def solve_1d_synthetic(
    a: float,
    eta: float,
    method: str,
    n_scenarios: int,
    seed: int | None,
) -> tuple[float, float]:
    """Maximise x subject to P(x + xi <= a) >= 1 - eta, xi standard normal.

    The exact optimum is a minus the upper eta quantile. The scenario
    methods run the experiment's own scenario_offsets on a one-row
    polytope, its margins and its tail mixture; maximising x makes the
    reduced offset itself the optimiser. Returns (x_hat, x_hat - x_exact),
    so a negative gap means a conservative solution.
    """
    poly = FeasibilityPolytope(
        normals=np.array([[1.0]]),
        offsets=np.array([float(a)]),
        labels=(("injection-upper", 0),),
    )
    g = GaussianSpec(cov=np.array([[1.0]]))
    x_exact = float(a) - (float(norm_isf(eta)) + 0.0)
    m = compute_margins(poly, g, eta)
    x_hat = float(scenario_offsets(
        poly, m, build_mixture(poly, m, g), method, n_scenarios, seed
    )[0])
    return x_hat, x_hat - x_exact


def sweep_1d(
    a: float,
    eta: float,
    delta: float,
    n_grid: int,
    reps: int,
    seed: int,
) -> list[tuple[float, float, int]]:
    """Trade hard offset against certified scenario count on the 1-D problem.

    For each hard offset b between the exact optimum and a, the deviations
    below the margin a - b are covered by construction, so the draws are
    the one-component tail mixture's, of mass S = norm_sf(a - b), and the
    count is n = certified_count(eta, delta, 1, S), the rule the sa-is
    'auto' count takes: 0 where S <= eta (the first point, up to rounding
    of S), else the exact count at eta / S. A repetition keeps the
    largest of its n tail draws; tail_quantile decreases in u, so that
    is tail_quantile(a - b, S, u_min), u_min the least of n uniforms on
    (0, 1]. P(u_min > t) = (1 - t)**n gives u_min = 1 - (1 - r)**(1 / n)
    for one uniform r, so a repetition costs O(1) for any n; with n = 0
    the optimiser is b itself. On this problem P(V) = S u_min, so the
    count is tight: a share of failing repetitions near delta, not far
    below it. A row holds the share of repetitions whose optimiser meets
    the chance constraint.

    Returns rows (b, feasibility_rate, n_scenarios).
    """
    if not math.isfinite(a):
        raise ValueError(f"row offset a must be finite, got {a}")
    tol = 1e-9  # feasibility slack on the optimiser; floats near a must be finer
    if np.spacing(abs(a)) > tol:
        raise ValueError(f"row offset a must lie below 2**23 in magnitude, got {a}")
    if not 0.0 < eta <= 0.5:
        raise ValueError(f"eta must lie in (0, 0.5], got {eta}")
    if n_grid < 2:
        raise ValueError(f"need at least two grid points, got {n_grid}")
    if reps < 1:
        raise ValueError(f"need at least one repetition, got {reps}")
    x_exact = a - (float(norm_isf(eta)) + 0.0)
    rows: list[tuple[float, float, int]] = []
    for j, b in enumerate(np.linspace(x_exact, a, n_grid)):
        margin = a - float(b)
        p_tail = float(norm_sf(margin))
        n = certified_count(eta, delta, 1, p_tail)
        if n == 0:
            x_hat = np.full(reps, float(b))
        else:
            u_min = _min_uniform(np.random.default_rng((seed, j)).random(reps), n)
            x_hat = a - tail_quantile(margin, p_tail, u_min)
        rows.append((float(b), int(np.count_nonzero(x_hat <= x_exact + tol)) / reps, n))
    return rows


def _min_uniform(r: np.ndarray, n: int) -> np.ndarray:
    """Least of n uniforms on (0, 1] from each output r of Generator.random."""
    # r = 0 reads as its neighbour 2**-53, so u_min > 0 and tail draws stay finite
    return -np.expm1(np.log1p(-np.maximum(r, 2.0**-53)) / n)


# ---------------------------------------------------------------------------
# experiments

@dataclass(frozen=True)
class ExperimentConfig:
    """Everything needed to reproduce an experiment run.

    methods are names in scenario.METHODS. scenarios is a fixed count or
    'auto' for the certified bound (the closed-form classical bound for
    the Gaussian law, sa; for the mixture law, sa-is, the one count rule
    scenario.certified_count at the tail mixture's total tail mass S). A
    method that draws nothing (dc-opf) ignores it.
    """

    case: str
    methods: tuple[str, ...] = ("sa-is",)
    eta: float = 0.05
    scenarios: int | str = "auto"
    reps: int = 50
    sigma_frac: float = 0.07
    seed: int = 0
    n_test: int = 1000
    delta: float = 0.01
    jobs: int = 1

    def __post_init__(self):
        unknown = [m for m in self.methods if m not in METHODS]
        if unknown:
            raise ValueError(f"unknown methods {unknown}; choose from {tuple(METHODS)}")
        if not self.methods:
            raise ValueError("at least one method required")
        repeated = sorted({m for m in self.methods if self.methods.count(m) > 1})
        if repeated:
            raise ValueError(f"methods {repeated} given more than once")
        if not 0.0 < self.eta <= 0.5:
            raise ValueError(f"eta must lie in (0, 0.5], got {self.eta}")
        if isinstance(self.scenarios, str) and self.scenarios != "auto":
            raise ValueError(f"scenarios must be a count or 'auto', got {self.scenarios!r}")
        for name in ("scenarios", "reps", "seed", "n_test", "jobs"):
            value = getattr(self, name)
            if not isinstance(value, numbers.Integral) and (name, value) != ("scenarios", "auto"):
                raise ValueError(f"{name} must be an integer, got {value!r}")
        if self.scenarios != "auto" and self.scenarios < 0:
            raise ValueError(f"scenario count must be non-negative, got {self.scenarios}")
        if self.reps < 1:
            raise ValueError(f"reps must be positive, got {self.reps}")
        if self.seed < 0:
            raise ValueError(f"seed must be non-negative, got {self.seed}")
        if not 0 <= self.sigma_frac < math.inf:
            raise ValueError(f"sigma_frac must be finite and non-negative, got {self.sigma_frac}")
        if self.n_test < 1:
            raise ValueError(f"n_test must be positive, got {self.n_test}")
        if not 0.0 < self.delta < 1.0:
            raise ValueError(f"delta must lie in (0, 1), got {self.delta}")
        if self.jobs < 1:
            raise ValueError(f"jobs must be positive, got {self.jobs}")


@dataclass(frozen=True)
class RepetitionRecord:
    """Outcome of one method run under one seed."""

    method: str
    rep: int
    seed: int
    n_scenarios: int
    status: str
    objective: float
    confidence: float
    conf_stderr: float


@dataclass(frozen=True)
class ExperimentReport:
    """Config echo, per-method scenario counts, and all repetition records."""

    config: ExperimentConfig
    case_name: str
    resolved: dict[str, int]
    records: tuple[RepetitionRecord, ...]

    def summary(self) -> dict[str, dict[str, float]]:
        """Per-method aggregates over the optimal repetitions."""
        out: dict[str, dict[str, float]] = {}
        for method in self.config.methods:
            recs = [r for r in self.records if r.method == method]
            good = [r for r in recs if r.status == "optimal"]
            entry: dict[str, float] = {
                "reps": len(recs),
                "optimal": len(good),
                "n_scenarios": self.resolved[method],
            }
            if good:
                entry["mean_objective"] = float(np.mean([r.objective for r in good]))
                entry["min_objective"] = float(np.min([r.objective for r in good]))
                entry["max_objective"] = float(np.max([r.objective for r in good]))
                entry["mean_confidence"] = float(np.mean([r.confidence for r in good]))
                entry["min_confidence"] = float(np.min([r.confidence for r in good]))
            out[method] = entry
        return out

    def to_dict(self) -> dict:
        """JSON-safe dictionary; nan becomes null."""
        def _clean(v: float):
            return None if isinstance(v, float) and math.isnan(v) else v

        cfg = asdict(self.config)
        cfg["methods"] = list(self.config.methods)
        # the job count changes no record, so reports at any --jobs match
        del cfg["jobs"]
        return {
            "config": cfg,
            "case_name": self.case_name,
            "resolved": dict(self.resolved),
            "records": [{k: _clean(v) for k, v in asdict(r).items()} for r in self.records],
        }

    @classmethod
    def from_dict(cls, data: dict) -> ExperimentReport:
        """The report to_dict wrote; config.jobs is read where a report has it."""
        cfg = dict(data["config"])
        cfg["methods"] = tuple(cfg["methods"])
        records = tuple(
            RepetitionRecord(**{k: math.nan if v is None else v for k, v in rec.items()})
            for rec in data["records"]
        )
        return cls(
            config=ExperimentConfig(**cfg),
            case_name=data["case_name"],
            resolved={k: int(v) for k, v in data["resolved"].items()},
            records=records,
        )


def load_case_ref(ref: str) -> GridCase:
    """Load a case from a path, falling back to the bundled cases.

    A directory never shadows a bundled case of the same name (a report
    written to case30/report.json leaves `case30` the bundled case); a
    directory that names none fails to load as a case file.
    """
    path = Path(ref)
    if path.exists() and not path.is_dir():
        return load_case(path)
    try:
        return load_case(bundled_case_path(ref))
    except FileNotFoundError:
        if path.exists():
            return load_case(path)  # a directory: the error names it
        raise FileNotFoundError(
            f"case {ref!r} found neither on disk nor among the bundled cases"
        ) from None


def resolve_scenario_count(
    config: ExperimentConfig, case: GridCase, method: str, problem: PreparedProblem | None = None
) -> int:
    """Scenario count a method will use under this config.

    The method's draw law (scenario.METHODS) decides: a method that
    draws nothing (dc-opf) uses none, and fixed counts pass through for
    the others. 'auto' certifies the mixture law (sa-is) by the one
    count rule, certified_count(eta, delta, d, S), S being the total
    tail mass of the prepared problem's mixture: 0 for the empty mixture
    (no stochastic row), which certifies without a draw. No covered mass
    is estimated, and since S = K eta for K stochastic rows, the sa-is
    count does not depend on eta. problem, when given, is this config's
    prepared case; otherwise the sa-is count prepares one. A count no
    draw can hold (above scenario.MAX_ROWS) is refused.
    """
    law = METHODS[method]
    if not law.draws:
        return 0
    d = max(1, len(case.generators) - 1)
    if config.scenarios != "auto":
        n = int(config.scenarios)
    elif not law.mixture:
        # the Gaussian law (sa) keeps the closed-form classical bound, which
        # the benchmark's report check pins; certified_count with S = 1 is
        # its exact count (ROADMAP item 7, "sa at its exact count")
        n = sample_size_cc(config.eta, config.delta, d)
    else:
        mix = (problem if problem is not None else _prepare(config, case)).mixture
        n = certified_count(config.eta, config.delta, d, mix.tail_mass)
    if n > MAX_ROWS:
        raise ValueError(f"{method}: scenario count exceeds the index range ({MAX_ROWS})")
    return n


def _prepare(config: ExperimentConfig, case: GridCase) -> PreparedProblem:
    return prepare_problem(case, build_uncertainty(case, config.sigma_frac), config.eta)


def prepare_experiment(config: ExperimentConfig) -> PreparedProblem:
    """Load the config's case and prepare it at the config's sigma and eta."""
    return _prepare(config, load_case_ref(config.case))


@dataclass(frozen=True)
class _Experiment:
    """What every repetition of one run shares; a pool chunk carries it once.

    fixed holds, for every method whose resolved count is 0, its one
    dispatch, which no seed changes.
    """

    config: ExperimentConfig
    problem: PreparedProblem
    resolved: dict[str, int]
    fixed: dict[str, DispatchSolution]


def _solve(problem: PreparedProblem, offsets: np.ndarray) -> DispatchSolution:
    """solve_offsets, with a solver breakdown as a 'solver-error' dispatch."""
    try:
        return solve_offsets(problem, offsets)
    except SolverError:
        return DispatchSolution.unsolved("solver-error")


def _offsets(problem: PreparedProblem, method: str, n_scenarios: int, seed: int) -> np.ndarray:
    """scenario_offsets of one solve on the prepared problem."""
    return scenario_offsets(problem.poly, problem.margins, problem.mixture, method,
                            n_scenarios, seed)


def _run_one(
    experiment: _Experiment, method: str, rep: int, drawn: dict[tuple[str, int], np.ndarray]
) -> DispatchSolution:
    """One method's solution under one repetition seed.

    drawn maps (method, rep) to the offsets drawn for that solve. A
    method whose resolved count is 0 gets its fixed dispatch, solved
    once; drawn holds nothing for it.
    """
    if method in experiment.fixed:
        return experiment.fixed[method]
    return _solve(experiment.problem, drawn[method, rep])


def _run_reps(experiment: _Experiment, reps: range) -> list[list[RepetitionRecord]]:
    """Every method's records under each repetition seed of reps, in config.methods order.

    The repetitions run in blocks of at most _REP_BLOCK, and each block
    in three stages: the offsets of every drawing method and repetition,
    then every LP, then every repetition's check. NumPy's draws and
    checks and HiGHS's solves each run back to back, which keeps each
    stage's code and data warm. An offset depends only on its seed, a
    dispatch only on its offsets and a check only on its seed and
    dispatches, so the records are those of one repetition at a time.
    """
    config, problem = experiment.config, experiment.problem
    drawing = [m for m in config.methods if m not in experiment.fixed]
    by_rep = []
    for start in range(0, len(reps), _REP_BLOCK):
        block = reps[start:start + _REP_BLOCK]
        drawn = {(m, rep): _offsets(problem, m, experiment.resolved[m], config.seed + rep)
                 for rep in block for m in drawing}
        sols = [[_run_one(experiment, m, rep, drawn) for m in config.methods] for rep in block]
        by_rep += [_records(experiment, rep, rep_sols) for rep, rep_sols in zip(block, sols)]
    return by_rep


def _records(
    experiment: _Experiment, rep: int, sols: list[DispatchSolution]
) -> list[RepetitionRecord]:
    """The records of one repetition's solutions, in config.methods order.

    The optimal dispatches are checked together against one draw of the
    repetition's test deviations, and then each record is built once;
    a method that is not optimal gets nan objective and confidence.
    """
    config, problem = experiment.config, experiment.problem
    optimal = [i for i, sol in enumerate(sols) if sol.status == "optimal"]
    confidence, stderr = np.full((2, len(sols)), math.nan)
    if optimal:
        confidence[optimal], stderr[optimal] = out_of_sample_confidence(
            np.stack([sols[i].injection_pu for i in optimal]), problem.poly, problem.g,
            config.n_test, config.seed + rep + _TEST_SEED_OFFSET, problem.margins.draw_factor,
        )
    return [
        RepetitionRecord(
            method=method,
            rep=rep,
            seed=config.seed + rep,
            n_scenarios=experiment.resolved[method],
            status=sol.status,
            objective=sol.objective,
            confidence=float(confidence[i]),
            conf_stderr=float(stderr[i]),
        )
        for i, (method, sol) in enumerate(zip(config.methods, sols))
    ]


def _openblas(entry: str) -> list:
    """The named entry point of every OpenBLAS mapped into this process.

    NumPy and SciPy each bundle their own OpenBLAS, with its own symbol
    prefix and suffix (e.g. scipy_openblas_set_num_threads64_ in NumPy's
    wheel). A run maps NumPy's alone; SciPy's is there when the caller
    imports SciPy itself. Empty when none is found: another BLAS, or no
    /proc to list libraries.
    """
    try:
        with open("/proc/self/maps", encoding="utf-8") as fh:
            paths = sorted({line.split()[-1] for line in fh if "openblas" in line.lower()})
    except OSError:
        return []
    found = []
    for path in paths:
        try:
            lib = ctypes.CDLL(path)
        except OSError:
            continue
        names = (f"{prefix}_{entry}{suffix}" for prefix in ("scipy_openblas", "openblas")
                 for suffix in ("64_", ""))
        fn = next((getattr(lib, name) for name in names if hasattr(lib, name)), None)
        if fn is not None:
            found.append(fn)
    return found


def _one_blas_thread() -> None:
    """Set every OpenBLAS that reports more than one thread to one.

    A library already at one thread is not called: after a fork, OpenBLAS
    starts its thread server on the first set_num_threads, and those
    threads busy-wait before they sleep.
    """
    gets, sets = _openblas("get_num_threads"), _openblas("set_num_threads")
    for get, set_threads in zip(gets, sets, strict=True):
        get.argtypes, get.restype = [], ctypes.c_int
        set_threads.argtypes, set_threads.restype = [ctypes.c_int], None
        if get() > 1:
            set_threads(1)


# glibc's mallopt parameters (malloc.h)
_M_TRIM_THRESHOLD, _M_MMAP_THRESHOLD = -1, -3


def _steady_heap() -> None:
    """Fix glibc's mmap and trim thresholds, so repetitions stop faulting.

    By default glibc lifts both thresholds to follow the largest mapped
    block freed so far, so where a run's largest blocks sit decides
    whether the heap top is trimmed after a repetition and faulted back
    in on the next: about 3,650 minor faults per case30 certified-count
    run. Fixed at 16 MB (mmap) and 32 MB (trim), every block below 16 MB
    comes from the heap, which keeps up to 32 MB of free top. Does
    nothing where there is no glibc mallopt.
    """
    try:
        mallopt = ctypes.CDLL(None).mallopt
    except (AttributeError, OSError, TypeError):  # no mallopt, or no C library handle
        return
    mallopt.argtypes, mallopt.restype = [ctypes.c_int, ctypes.c_int], ctypes.c_int
    mallopt(_M_MMAP_THRESHOLD, 16 << 20)
    mallopt(_M_TRIM_THRESHOLD, 32 << 20)


def _usable_cores() -> int:
    """Cores this process may run on; the pool never starts more workers."""
    try:
        return len(os.sched_getaffinity(0))
    except AttributeError:  # no affinity call on this platform
        return os.cpu_count() or 1


# The process's pool, as (workers, executor), or None; see _pool. The
# lock is held for a whole pooled run, so no run replaces a pool that
# another thread's run is using.
_POOL: tuple[int, ProcessPoolExecutor] | None = None
_POOL_LOCK = threading.RLock()


def _forget_pool() -> None:
    # a forked child has none of its parent's workers, and its copy of the
    # lock may be held by a parent thread that does not exist here
    global _POOL, _POOL_LOCK
    _POOL, _POOL_LOCK = None, threading.RLock()


def _start_worker() -> None:
    # every worker gets one BLAS thread: the workers already fill the
    # cores, and more threads per worker only oversubscribe them. The run
    # path maps one OpenBLAS, NumPy's: the kernels need no SciPy, and the
    # HiGHS binding, which a worker's first solve loads if its parent
    # never solved, brings no OpenBLAS of its own. A worker forked by
    # run_experiment has one thread already. The heap thresholds are
    # fixed here too, for a worker that did not fork.
    _one_blas_thread()
    _steady_heap()


def _intact(pool: ProcessPoolExecutor) -> bool:
    # a pool that lost a worker is broken, or will be once its manager
    # thread sees the exit; either way it would fail the next run
    processes = (pool._processes or {}).values()
    return not pool._broken and all(p.is_alive() for p in processes)


def _shutdown_pool() -> None:
    """Shut the process's pool down; the next pooled run starts a new one.

    It waits for a pooled run in progress. It also runs at interpreter
    exit, before concurrent.futures' own exit hook (_executor).
    """
    # no run uses the pool while the lock is held, so its workers are
    # terminated rather than asked to stop: one that died may have held
    # the task queue's read lock, which a live mate then waits on forever,
    # and one killed just now can still look alive
    global _POOL
    with _POOL_LOCK:
        if _POOL is None:
            return
        _, pool = _POOL
        _POOL = None
        for process in (pool._processes or {}).values():
            process.terminate()
        pool.shutdown()


if hasattr(os, "register_at_fork"):
    os.register_at_fork(after_in_child=_forget_pool)


def __getattr__(name: str):
    """ProcessPoolExecutor, bound on first access (see _executor)."""
    if name != "ProcessPoolExecutor":
        raise AttributeError(f"module {__name__!r} has no attribute {name!r}")
    return _executor()


def _executor() -> type[ProcessPoolExecutor]:
    """The pool class, imported with concurrent.futures.process on the first call.

    Only a pooled run needs that module, so a serial run or a light
    command never imports it, nor multiprocessing with it. Right after
    the import, and only then, _shutdown_pool is registered as an exit
    hook: threading's exit hooks run last-registered first, and before
    the interpreter joins its threads, so it runs before the hook that
    concurrent.futures.process registered on import. The class is bound
    as the module's ProcessPoolExecutor, which is read on every call, so
    a stand-in bound there is used.
    """
    with _POOL_LOCK:
        if "ProcessPoolExecutor" not in globals():
            from concurrent.futures.process import ProcessPoolExecutor

            threading._register_atexit(_shutdown_pool)
            globals()["ProcessPoolExecutor"] = ProcessPoolExecutor
        return globals()["ProcessPoolExecutor"]


def _pool(workers: int) -> ProcessPoolExecutor:
    """This process's pool of workers, kept warm from one run to the next.

    Cached per process under its worker count, as scenario._highs caches
    its HiGHS instance. A new worker count gets a new pool, and so does
    a pool that lost a worker (a run that loses one raises
    BrokenProcessPool); the pool replaced is shut down first. A forked
    child starts without a pool. The caller holds _POOL_LOCK for as long
    as it uses the pool.
    """
    global _POOL
    if _POOL is not None and (_POOL[0] != workers or not _intact(_POOL[1])):
        _shutdown_pool()
    if _POOL is None:
        # numpy.random loads on first use (about 20 ms): load it before
        # the fork, so the workers inherit it rather than each import it
        import numpy.random  # noqa: F401

        _POOL = workers, _executor()(max_workers=workers, initializer=_start_worker)
    return _POOL[1]


def run_experiment(
    config: ExperimentConfig, problem: PreparedProblem | None = None
) -> ExperimentReport:
    """Run every configured method over the repetition seeds.

    Repetition k uses seed config.seed + k for its scenario draws and a
    far-offset stream for its out-of-sample test, so methods see paired
    scenarios and validation never reuses optimisation draws. Every
    method of a repetition is scored on the same test deviations, which
    are drawn once and checked against all of its optimal dispatches.
    A method whose resolved count is 0 (dc-opf always) draws nothing, so
    no seed changes its dispatch: it is solved once, before the first
    repetition, and every repetition records it. Failed repetitions are
    recorded, not raised. Records come back
    method-major. problem, when given, is prepare_experiment(config), so
    a caller that already prepared the case does not prepare it twice.
    With jobs > 1 the repetitions go to min(jobs, reps, usable cores)
    pool workers in one chunk (a range of ceil(reps / workers)
    repetitions) per worker; pickle sends the prepared experiment once
    per chunk, so a run unpickles it at most once per worker. A chunk,
    like a serial run's repetitions, runs in blocks of at most
    _REP_BLOCK repetitions, stage by stage: every draw of the block,
    then every LP, then every check (_run_reps); the records are those
    of one repetition at a time. jobs is the only parallelism of a run.
    The pool is the process's own (_pool): it outlives the run, and the next pooled run with as
    many workers reuses its warm workers. Pooled runs of one process
    take turns on it, so a run in another thread waits for the one in
    progress. The workers keep the module state of when the pool
    started: a function or setting of ccopf patched after that does not
    reach them (_shutdown_pool lets the next run start afresh). A worker
    that dies fails its run with BrokenProcessPool, and the next run
    starts a new pool. Before the
    first repetition, every OpenBLAS of the calling process is set to
    one thread, and the run leaves it there: forked workers inherit that
    count, and a worker started by spawn or forkserver sets it in
    _start_worker for the libraries it has loaded by then. glibc's mmap
    and trim thresholds are fixed the same way, at 16 and 32 MB
    (_steady_heap), and stay fixed: a process that repeats runs then
    reuses its heap, where the default thresholds trim it after a run
    and fault it back in.
    """
    if problem is None:
        problem = prepare_experiment(config)
    case = problem.case
    resolved = {m: resolve_scenario_count(config, case, m, problem) for m in config.methods}
    # a dispatch from no draws is the same under every seed: solve it once
    fixed = {m: _solve(problem, _offsets(problem, m, 0, config.seed))
             for m, n in resolved.items() if n == 0}
    experiment = _Experiment(config, problem, resolved, fixed)
    _one_blas_thread()
    _steady_heap()
    workers = min(config.jobs, config.reps, _usable_cores())
    reps = range(config.reps)
    if workers > 1:
        size = -(-config.reps // workers)
        with _POOL_LOCK:
            by_rep = list(itertools.chain.from_iterable(_pool(workers).map(
                _run_reps, itertools.repeat(experiment),
                [reps[start:start + size] for start in range(0, config.reps, size)],
            )))
    else:
        by_rep = _run_reps(experiment, reps)
    records = tuple(
        by_rep[rep][i] for i in range(len(config.methods)) for rep in range(config.reps)
    )
    return ExperimentReport(config=config, case_name=case.name, resolved=resolved, records=records)
