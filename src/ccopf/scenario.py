"""Scenario approximation: sample sizes, draws, reduction, dispatch LP.

A scenario set turns the chance constraint into finitely many shifted
copies of the polytope rows, which collapse to one offset per row. Solves
project the blocks of the one draw stream (_support_draws) straight
onto the rows (scenario_offsets, rows by draws) through the margins'
draw_factor B: Gaussian draws of rank R normals each, and tail-mixture
draws in the same rank R coordinates (sampler). The out-of-sample check
draws the same Gaussian blocks and projects only the rows each block
can reach. The bus-space reference sets map the same blocks. The
dispatch LP optimises generator outputs against those offsets,
optionally intersected with the margin-tightened offsets, with the
generator at the slack bus absorbing the power balance. A
PreparedProblem holds everything but the draws, so repeated solves
rebuild nothing, and every solve in a process and thread loads its LP
into the same HiGHS instance.

Importing this module loads nothing from SciPy. The first solve in a
process loads the HiGHS binding from its file (_highs), the one place
that loads it, and only the linprog name, which the benchmark's tracer
counts iterations through, imports scipy.optimize.
"""
from __future__ import annotations

import math
import os
import sys
import threading
from collections.abc import Iterator
from dataclasses import dataclass, field
from itertools import chain, repeat

import numpy as np

from .grid import CaseValidationError, FeasibilityPolytope, GridCase, GridMatrices
from .grid import build_matrices, build_polytope
from .kernels import binom_cdf
from .margins import GaussianSpec, MarginSet, compute_margins
from .sampler import MixtureSampler, build_mixture, sample_mixture_batch

# Constraint rows with at most this much slack at the optimum are
# reported as active.
ACTIVE_TOL = 1e-7

# Most draws one block holds: every draw, Gaussian or mixture, streams
# through blocks (_support_draws), so memory stays O(CHUNK) for any count.
# 2,048 draws keep a block's projection cache-sized (1.5 MB on case30's 94
# rows), which also bounds the pages a fresh pool worker faults in, and
# cover both bundled cases' auto sa-is counts (1,064 and 180), so their
# mixture streams stay one block.
CHUNK = 1 << 11

# Most rows one draw may hold: NumPy indexes arrays with intp.
MAX_ROWS = int(np.iinfo(np.intp).max)


# linprog's post-solve tolerance, sqrt(tol) * 10 at its default tol 1e-9:
# an optimal x off a bound or row by more than this is a solver failure.
FEASIBILITY_TOL = math.sqrt(1e-9) * 10

# The HiGHS binding SciPy ships. The first solve loads it (_load_highs)
# and binds it as highs, next to HIGHS_OPTIONS.
_HIGHS_MODULE = "scipy.optimize._highspy._core"
_HIGHS_LOAD = threading.Lock()

# This thread's HiGHS instance and the id of the process that built it.
_SOLVER = threading.local()


def __getattr__(name: str):
    """linprog, bound on first access.

    It imports scipy.optimize, which the package itself never needs;
    perfbench/layers.py rebinds it by name. It is written into the
    module dict, where a later access, or a tracer scanning the module's
    names, finds it. highs and HIGHS_OPTIONS are not served here: they
    exist once a solve has loaded the binding.
    """
    if name != "linprog":
        raise AttributeError(f"module {__name__!r} has no attribute {name!r}")
    from scipy.optimize import linprog
    globals()["linprog"] = linprog
    return linprog


class SolverError(RuntimeError):
    """LP solver failed for reasons other than infeasible/unbounded."""


class CountOverflowError(ValueError):
    """A certified scenario count too large for a float."""


# ---------------------------------------------------------------------------
# sample size bounds

def _size(epsilon: float, delta: float, d: int, scale: float) -> int:
    raw = (
        2.0 * scale * math.log(1.0 / delta) / epsilon
        + 2.0 * d
        + 2.0 * d * scale * math.log(2.0 * scale / epsilon) / epsilon
    )
    if raw == math.inf:
        raise CountOverflowError(
            f"scenario count overflows at scale {scale:g} and level {epsilon:g}"
        )
    return max(0, math.ceil(raw))

def _check_size_args(epsilon: float, delta: float, d: int, top: str = ")"):
    # top is "]" where a violation level of 1 is allowed
    if not (0.0 < epsilon <= 1.0 if top == "]" else 0.0 < epsilon < 1.0):
        raise ValueError(f"violation level must lie in (0, 1{top}, got {epsilon}")
    if not 0.0 < delta < 1.0:
        raise ValueError(f"confidence delta must lie in (0, 1), got {delta}")
    if d < 1:
        raise ValueError(f"decision dimension must be at least 1, got {d}")


def sample_size_cc(epsilon: float, delta: float, d: int) -> int:
    """Scenario count guaranteeing the chance constraint classically.

    Smallest N with (2/eps) ln(1/delta) + 2d + (2d/eps) ln(2/eps) <= N,
    for violation level eps, confidence 1 - delta, and d decision
    variables.
    """
    _check_size_args(epsilon, delta, d)
    return _size(epsilon, delta, d, 1.0)


def sample_size_filtered(eta: float, delta: float, d: int, pi: float) -> int:
    """Scenario count when a mass-pi inner set is already covered.

    The classical bound at level eta shrinks by 1 - pi on its
    eta-dependent terms; pi = 0 recovers sample_size_cc exactly.
    """
    _check_size_args(eta, delta, d)
    if not 0.0 <= pi < 1.0:
        raise ValueError(f"covered mass pi must lie in [0, 1), got {pi}")
    return _size(eta, delta, d, 1.0 - pi)


def sample_size_is(eta: float, delta: float, d: int, pi: float, M: float) -> int:
    """Scenario count under importance sampling with ratio bound M.

    The filtered bound picks up the likelihood-ratio factor M; M = 1
    recovers sample_size_filtered exactly.
    """
    _check_size_args(eta, delta, d)
    if not 0.0 <= pi < 1.0:
        raise ValueError(f"covered mass pi must lie in [0, 1), got {pi}")
    if not 1.0 <= M < math.inf:
        raise ValueError(f"likelihood ratio bound must be finite and at least 1, got {M}")
    return _size(eta, delta, d, M * (1.0 - pi))


def sample_size_exact(epsilon: float, delta: float, d: int) -> int:
    """Smallest N with P(Binomial(N, epsilon) <= d - 1) <= delta.

    This is the exact condition of Campi & Garatti 2008 ("The exact
    feasibility of randomized solutions of uncertain convex programs"):
    for a convex scenario program in d variables whose N scenarios are
    drawn i.i.d. from any law Q, the solution's violation probability
    under Q exceeds epsilon with probability at most
    P(Binomial(N, epsilon) <= d - 1). The law is arbitrary, so Q may be
    the tail mixture q, and certified_count applies it at epsilon = eta / S
    (its docstring derives why). At epsilon = 1 every N >= d qualifies,
    so the count is d.

    The closed form sample_size_cc(epsilon, delta, d) implies the exact
    condition, so N is never larger: N is bisected between d and that
    count, over a probability that falls as N grows.
    """
    _check_size_args(epsilon, delta, d, top="]")
    lo, hi = d - 1, _size(epsilon, delta, d, 1.0)
    while hi - lo > 1:
        mid = (lo + hi) // 2
        if binom_cdf(d - 1, mid, epsilon) <= delta:
            hi = mid
        else:
            lo = mid
    return hi


def certified_count(eta: float, delta: float, d: int, tail_mass: float) -> int:
    """The one count rule: draws that certify P(V) <= eta with confidence 1 - delta.

    tail_mass S ties a dispatch's violation probability to the draws'
    law Q. Let phi be the nominal density, H_i the half-space where
    stochastic row i exceeds its margin, p_i = P(H_i) and S = sum(p_i).
    Weights p_i / S make the tail mixture's density q = phi |A| / S, with
    A the set of half-spaces containing the point. Outside the inner set
    |A| >= 1, so phi <= S q there. A dispatch meeting the
    margin-tightened rows stays feasible on the whole inner set, so its
    violation event V lies outside it and P(V) <= S Q(V): S is the
    mixture ratio bound of Owen & Zhou 2000. The tightened rows are
    deterministic constraints of the scenario program, so any bound of
    Campi & Garatti 2008 at level eta / S gives Q(V) <= eta / S, hence
    P(V) <= eta, with confidence 1 - delta over N draws from q.

    So S <= eta certifies with no draw at all and the count is 0; above
    eta it is the exact binomial count at level eta / S,
    sample_size_exact(eta / S, delta, d). The classical closed form
    sample_size_cc(eta / S, delta, d) gives the same guarantee with more
    draws (sample_size_is with M (1 - pi) >= S is looser still); S < 1
    gives fewer draws than plain sampling, and margins at the upper eta
    quantile give every row p_i = eta, so S = K eta for K stochastic rows
    and the count does not depend on eta. The sa-is 'auto' count takes S
    as its tail mixture's total tail mass (0 when no row is stochastic),
    and sweep_1d takes the one-component mixture's. Plain Gaussian draws
    have S = 1.
    """
    _check_size_args(eta, delta, d)
    if not 0.0 <= tail_mass < math.inf:
        raise ValueError(f"total tail mass must be finite and non-negative, got {tail_mass}")
    return 0 if tail_mass <= eta else sample_size_exact(eta / tail_mass, delta, d)


# ---------------------------------------------------------------------------
# scenario sets

@dataclass(frozen=True)
class ScenarioSet:
    """Batch of injection deviations (p.u.), at least one row.

    origin records how the rows were produced: 'gaussian' for plain
    draws, 'mixture' for draws from the tail mixture (density
    q = phi |A| / S, see sampler), 'nominal' for the single zero
    deviation standing in for an empty set.
    """

    scenarios: np.ndarray
    origin: str
    seed: int | None

    def __post_init__(self):
        if self.scenarios.ndim != 2 or self.scenarios.shape[0] < 1:
            raise ValueError(
                f"scenarios must be a non-empty 2-D array, got shape "
                f"{self.scenarios.shape}"
            )
        if self.origin not in ("gaussian", "mixture", "nominal"):
            raise ValueError(f"unknown origin {self.origin!r}")
        self.scenarios.setflags(write=False)

    @property
    def n(self) -> int:
        return self.scenarios.shape[0]


def nominal_scenario_set(n_buses: int, seed: int | None = None) -> ScenarioSet:
    """The single zero deviation; reduces every row offset to itself."""
    return ScenarioSet(scenarios=np.zeros((1, n_buses)), origin="nominal", seed=seed)


def draw_gaussian_scenarios(g: GaussianSpec, n: int, seed: int | None) -> ScenarioSet:
    """n deviations straight from the uncertainty model.

    g.from_reduced of the _support_draws blocks: for any n, the rows of
    standard_normal((n, g.reduced_dim)). The 'sa' solves (scenario_offsets)
    share these draws where draw_factor is row_factor (case30), elsewhere
    their law.
    """
    w = np.concatenate(list(_support_draws(n, seed, g.reduced_dim)))
    return ScenarioSet(scenarios=g.from_reduced(w), origin="gaussian", seed=seed)


def chunk_sizes(n: int) -> Iterator[int]:
    """Split n >= 1 rows into ceil(n / CHUNK) blocks of near-equal size.

    CHUNK is a constant, so reports are deterministic, and the blocks
    define the mixture's stream above CHUNK draws. CHUNK is at least the
    bundled cases' auto sa-is counts, so their default streams are one
    block, and small enough that a block's rows-by-draws projection stays
    in cache. Whether a block's product keeps the one-shot bits depends
    on the factor's width (a long 7-column block, as on case57, may
    not); no block is a sliver, which BLAS (gemv, small-matrix kernels)
    rounds apart at any width. The sizes come lazily, so memory stays
    O(1) in n; n is checked at call time.
    """
    if n < 1:
        raise ValueError(f"need at least one row, got {n}")
    if n > MAX_ROWS:
        raise ValueError(f"row count exceeds the index range ({MAX_ROWS})")
    blocks = -(-n // CHUNK)
    size, longer = divmod(n, blocks)
    return chain(repeat(size + 1, longer), repeat(size, blocks - longer))


def _support_draws(n: int, seed: int | None, width: int,
                   sampler: MixtureSampler | None = None) -> Iterator[np.ndarray]:
    """The one draw stream: chunk_sizes(n) blocks from default_rng(seed).

    Each block is standard_normal((size, width)), which concatenate to
    the one-shot draw, or, given a sampler, the tail mixture's
    sample_mixture_batch(sampler, size, rng)[0].
    """
    rng = np.random.default_rng(seed)
    for size in chunk_sizes(n):
        yield (rng.standard_normal((size, width)) if sampler is None
               else sample_mixture_batch(sampler, size, rng)[0])


def draw_mixture_scenarios(ms: MixtureSampler, n: int, seed: int | None) -> ScenarioSet:
    """n deviations from the tail mixture (the _support_draws stream), mapped to the buses.

    ms.to_buses maps the very draws the 'sa-is' solves project: on the
    rows their law is the mixture's, and in bus directions no row sees
    (outside the span of U V_k) they do not vary.
    """
    w = np.concatenate(list(_support_draws(n, seed, ms.reduced_dim, ms)))
    return ScenarioSet(scenarios=ms.to_buses(w), origin="mixture", seed=seed)


def reduce_scenarios(poly: FeasibilityPolytope, scen: ScenarioSet) -> np.ndarray:
    """Collapse scenario constraints to one offset per row.

    Row i of W(x + xi_t) <= b for all t is equivalent to
    w_i' x <= b_i - max_t w_i' xi_t; the returned vector holds those
    right-hand sides.
    """
    if scen.scenarios.shape[1] != poly.n_buses:
        raise ValueError(
            f"scenarios over {scen.scenarios.shape[1]} buses, polytope over "
            f"{poly.n_buses}"
        )
    worst = np.max(scen.scenarios @ poly.normals.T, axis=0)
    return poly.offsets - worst


# ---------------------------------------------------------------------------
# dispatch LP

@dataclass(frozen=True)
class LinearProgram:
    """Dispatch LP over non-residual generator outputs (p.u.).

    One generator at the slack bus is the residual: its output follows
    from power balance and never appears as a decision. cost is in $/h
    per p.u. with cost_offset restoring the residual generator's bill.
    injection_map and injection_fixed give bus injections as an affine
    function of the decisions. labels annotates constraint rows.
    a_start, a_index and a_value hold a_ub column-wise (CSC), the form
    the solver takes; _skeleton builds them once and every LP with moved
    offsets shares them. The first row_shift.size rows are the polytope
    rows: their b_ub entries are the polytope offsets minus row_shift,
    the rows' value at the fixed injections (see _with_offsets).
    solution_window holds the bounds solve checks an optimum against,
    (lower, upper) less and plus FEASIBILITY_TOL, then each row's slack
    from -FEASIBILITY_TOL up: built with the skeleton, shared by every
    LP with moved offsets.
    """

    cost: np.ndarray
    cost_offset: float
    a_ub: np.ndarray
    a_start: np.ndarray
    a_index: np.ndarray
    a_value: np.ndarray
    b_ub: np.ndarray
    lower: np.ndarray
    upper: np.ndarray
    labels: tuple[tuple[str, int], ...]
    injection_map: np.ndarray
    injection_fixed: np.ndarray
    row_shift: np.ndarray
    base_mva: float
    decision_gens: tuple[int, ...]
    residual_gen: int
    residual_at_zero: float
    n_gens: int
    solution_window: tuple[np.ndarray, np.ndarray] = field(init=False, repr=False, compare=False)

    def __post_init__(self):
        d, m = self.cost.shape[0], self.b_ub.shape[0]
        if self.a_ub.shape != (m, d):
            raise ValueError("constraint matrix shape mismatch")
        if self.lower.shape != (d,) or self.upper.shape != (d,):
            raise ValueError("bounds must match the decision count")
        if len(self.labels) != m:
            raise ValueError("one label per constraint row required")
        window = (np.concatenate([self.lower - FEASIBILITY_TOL, np.full(m, -FEASIBILITY_TOL)]),
                  np.concatenate([self.upper + FEASIBILITY_TOL, np.full(m, np.inf)]))
        object.__setattr__(self, "solution_window", window)
        for arr in (self.cost, self.a_ub, self.a_start, self.a_index, self.a_value,
                    self.b_ub, self.lower, self.upper, self.injection_map,
                    self.injection_fixed, self.row_shift, *window):
            arr.setflags(write=False)


@dataclass(frozen=True)
class DispatchSolution:
    """Solved dispatch: outputs in MW, objective in $/h.

    x_g lists every generator in case order, the residual included.
    status is 'optimal', 'infeasible' or 'unbounded' from solve, or
    'solver-error', the status run_experiment records for a solve that
    raised SolverError. Non-optimal solutions (unsolved) carry nan
    objective and no dispatch. active_rows indexes LP rows with slack at
    most ACTIVE_TOL.
    """

    x_g: np.ndarray | None
    objective: float
    status: str
    active_rows: tuple[int, ...]
    injection_pu: np.ndarray | None = None

    def __post_init__(self):
        if self.x_g is not None:
            self.x_g.setflags(write=False)
        if self.injection_pu is not None:
            self.injection_pu.setflags(write=False)

    @classmethod
    def unsolved(cls, status: str) -> DispatchSolution:
        """No dispatch under a non-optimal status: nan objective, no active row."""
        return cls(x_g=None, objective=math.nan, status=status, active_rows=())


def _dispatch_structure(case: GridCase):
    """Slack bus, its generators (the first is the residual), decisions."""
    slack_bus = case.buses[case.slack_index].id
    slack_gens = [j for j, gen in enumerate(case.generators) if gen.bus == slack_bus]
    if not slack_gens:
        raise CaseValidationError(
            f"slack bus {slack_bus} carries no generator; dispatch cannot "
            "balance the system"
        )
    decisions = tuple(j for j in range(len(case.generators)) if j != slack_gens[0])
    return slack_bus, slack_gens, decisions


def assemble(
    case: GridCase,
    mat: GridMatrices,
    poly: FeasibilityPolytope,
    scen: ScenarioSet,
    pm: FeasibilityPolytope | None = None,
) -> LinearProgram:
    """Build the dispatch LP for a scenario set and optional margins.

    Row offsets are the scenario-reduced ones, intersected elementwise
    with the margin-tightened polytope pm when given (same normals, so
    the intersection is a minimum of offsets). Generator boxes apply to
    the nominal dispatch and enter as decision bounds; bus-level limits
    under deviations are already polytope rows.
    """
    if pm is not None and pm.n_rows != poly.n_rows:
        raise ValueError("tightened polytope must match the original row for row")
    offsets = reduce_scenarios(poly, scen)
    if pm is not None:
        offsets = np.minimum(offsets, pm.offsets)
    return _with_offsets(_skeleton(case, poly), offsets)


def _skeleton(case: GridCase, poly: FeasibilityPolytope) -> LinearProgram:
    """The dispatch LP at the polytope's own offsets."""
    slack_bus, slack_gens, decisions = _dispatch_structure(case)
    residual = slack_gens[0]
    index = case.index
    base = case.base_mva
    n, d = case.n, len(decisions)

    total_load_mw = sum(bus.load_mw for bus in case.buses)
    residual_at_zero = total_load_mw / base

    inj_map = np.zeros((n, d))
    slack_row = case.slack_index
    for col, j in enumerate(decisions):
        gen = case.generators[j]
        inj_map[index[gen.bus], col] += 1.0
        inj_map[slack_row, col] -= 1.0  # residual backs off one for one
    inj_fixed = np.array([-bus.load_mw / base for bus in case.buses])
    inj_fixed[slack_row] += residual_at_zero

    res_cost = case.generators[residual].cost
    cost = np.array([(case.generators[j].cost - res_cost) * base for j in decisions])
    offset = res_cost * total_load_mw

    lower = np.array([case.generators[j].p_min_mw / base for j in decisions])
    upper = np.array([case.generators[j].p_max_mw / base for j in decisions])

    a_ub = poly.normals @ inj_map
    shift = poly.normals @ inj_fixed
    b_ub = poly.offsets - shift
    labels = list(poly.labels)

    if len(slack_gens) > 1:
        # residual output rz - sum(d) must respect its own box; with a
        # single slack generator the bus injection rows already do this
        res_gen = case.generators[residual]
        ones = np.ones((1, d))
        a_ub = np.vstack([a_ub, -ones, ones])
        b_ub = np.concatenate(
            [
                b_ub,
                [res_gen.p_max_mw / base - residual_at_zero],
                [residual_at_zero - res_gen.p_min_mw / base],
            ]
        )
        labels += [("residual-upper", slack_bus), ("residual-lower", slack_bus)]

    a_start, a_index, a_value = _columns(a_ub)
    return LinearProgram(
        cost=cost,
        cost_offset=offset,
        a_ub=a_ub,
        a_start=a_start,
        a_index=a_index,
        a_value=a_value,
        b_ub=b_ub,
        lower=lower,
        upper=upper,
        labels=tuple(labels),
        injection_map=inj_map,
        injection_fixed=inj_fixed,
        row_shift=shift,
        base_mva=base,
        decision_gens=decisions,
        residual_gen=residual,
        residual_at_zero=residual_at_zero,
        n_gens=len(case.generators),
    )


def _columns(a: np.ndarray) -> tuple[np.ndarray, np.ndarray, np.ndarray]:
    """Column starts, row indices and values of a in CSC form.

    The arrays scipy.sparse.csc_array(a) holds as indptr, indices and
    data: each column's nonzeros in row order, zeros (either sign) left
    out, int32 indices.
    """
    col, row = np.nonzero(a.T)
    start = np.searchsorted(col, np.arange(a.shape[1] + 1)).astype(np.int32)
    return start, row.astype(np.int32), a.T[col, row]


def _with_offsets(lp: LinearProgram, offsets: np.ndarray) -> LinearProgram:
    """The skeleton lp with its polytope rows moved to the given offsets.

    A shallow copy with a new b_ub of lp's shape: every other array is
    lp's own, checked and read-only, so the copy runs no __post_init__.
    """
    if offsets.shape != lp.row_shift.shape:
        raise ValueError(f"{lp.row_shift.shape[0]} row offsets needed, got {offsets.shape}")
    b_ub = np.concatenate([offsets - lp.row_shift, lp.b_ub[lp.row_shift.shape[0]:]])
    b_ub.setflags(write=False)
    moved = object.__new__(LinearProgram)
    moved.__dict__.update(lp.__dict__, b_ub=b_ub)
    return moved


def solve(lp: LinearProgram) -> DispatchSolution:
    """Minimise dispatch cost subject to the assembled constraints.

    One direct HiGHS call with linprog's options and post-solve check,
    so status and x equal linprog(method="highs") bit for bit without its
    per-call conversions. Each process and thread keeps one HiGHS
    instance (_highs); every solve clears its model and solver data and
    passes the options again before loading the LP, so no solve sees
    what an earlier one left behind. Returns a DispatchSolution with status
    'optimal', 'infeasible' or 'unbounded'. Solver breakdowns (any other
    model status, including unbounded-or-infeasible and iteration or time
    limits, or a solution off its constraints) raise SolverError instead
    of masquerading as infeasibility. That check is one pass over x and
    the row slack, b_ub less HiGHS's row activity, against
    lp.solution_window, which no NaN passes; the slack also gives
    active_rows.
    """
    d = lp.cost.shape[0]
    if d == 0:
        # nothing to decide: the residual covers the load; feasibility is
        # a direct check of the constant rows
        feasible = bool(np.all(lp.b_ub >= -ACTIVE_TOL))
        if not feasible:
            return DispatchSolution.unsolved("infeasible")
        return _package_solution(lp, np.zeros(0), lp.b_ub)

    m = lp.b_ub.shape[0]
    solver = _highs()
    solver.clearModel()  # the model and every piece of solver data
    solver.passOptions(HIGHS_OPTIONS)
    loaded = solver.passModel(
        d, m, lp.a_value.size, int(highs.MatrixFormat.kColwise),
        int(highs.ObjSense.kMinimize), 0.0,
        lp.cost, lp.lower, lp.upper, np.full(m, -highs.kHighsInf), lp.b_ub,
        lp.a_start, lp.a_index, lp.a_value,
        np.zeros(d, dtype=np.int32),  # every column continuous
    )
    if loaded == highs.HighsStatus.kError:
        raise SolverError("HiGHS rejected the dispatch LP")
    if solver.run() == highs.HighsStatus.kError:
        raise SolverError(f"HiGHS failed: {solver.modelStatusToString(solver.getModelStatus())}")
    status = solver.getModelStatus()
    if status == highs.HighsModelStatus.kInfeasible:
        return DispatchSolution.unsolved("infeasible")
    if status == highs.HighsModelStatus.kUnbounded:
        return DispatchSolution.unsolved("unbounded")
    if status != highs.HighsModelStatus.kOptimal:
        raise SolverError(f"LP solver failed: {solver.modelStatusToString(status)}")
    solution = solver.getSolution()
    values = np.concatenate([solution.col_value, lp.b_ub - np.array(solution.row_value)])
    low, high = lp.solution_window
    if math.isnan(solver.getObjectiveValue()) or not ((low <= values) & (values <= high)).all():
        raise SolverError(
            f"LP solution violates its constraints by more than {FEASIBILITY_TOL:.2e}"
        )
    return _package_solution(lp, values[:d], values[d:])


def _highs() -> highs._Highs:
    """This thread's HiGHS instance, built once per process and thread.

    The first call in a process loads the binding (_load_highs); nothing
    else loads it. A forked process builds its own instance rather than
    use its parent's copy.
    """
    if "highs" not in globals():
        _load_highs()
    pid = os.getpid()
    if getattr(_SOLVER, "pid", None) != pid:
        _SOLVER.instance = highs._Highs()
        _SOLVER.pid = pid
    return _SOLVER.instance


def _load_highs() -> None:
    """Bind HIGHS_OPTIONS, then the HiGHS binding as highs, once.

    Its one caller is _highs, so the first solve in a process loads it.

    The binding is the extension module scipy.optimize._highspy._core.
    Importing it by that name first runs scipy.optimize's __init__,
    which loads most of SciPy (about 0.5 s, scipy.special and SciPy's
    own OpenBLAS among it) for nothing a solve uses; the extension alone
    loads in about 0.02 s. So it is loaded from its file in SciPy's
    optimize/_highspy folder, found without importing scipy, and is
    registered in sys.modules under its real name before it executes. A
    later import of scipy.optimize then reuses that module object, as it
    must: pybind11 refuses to register the binding's types twice. For
    the same reason a binding already in sys.modules is reused, and the
    load runs under a lock, so threads whose first action is a solve
    load it once.

    HIGHS_OPTIONS are the options linprog(method="highs") passes to
    HiGHS, so a direct solve returns linprog's status and x bit for bit.
    """
    with _HIGHS_LOAD:
        if "highs" in globals():
            return
        core = sys.modules.get(_HIGHS_MODULE)
        if core is None:
            core = _load_binding_file()
        options = core.HighsOptions()
        options.presolve = "on"
        options.simplex_strategy = core.simplex_constants.SimplexStrategy.kSimplexStrategyDual
        options.output_flag = False
        options.log_to_console = False
        options.highs_debug_level = core.HighsDebugLevel.kHighsDebugLevelNone
        globals()["HIGHS_OPTIONS"] = options
        globals()["highs"] = core  # last: _highs reads it, without the lock, as "both are bound"


def _load_binding_file():
    """Load scipy.optimize._highspy._core from its file, under that name."""
    import importlib.machinery
    import importlib.util

    scipy_spec = importlib.util.find_spec("scipy")
    if scipy_spec is None:
        raise ImportError("SciPy, which ships the HiGHS binding, is not installed")
    folder = os.path.join(scipy_spec.submodule_search_locations[0], "optimize", "_highspy")
    spec = importlib.machinery.PathFinder.find_spec("_core", [folder])
    if spec is None:
        raise ImportError(f"no HiGHS binding _core in {folder}")
    spec.name = _HIGHS_MODULE
    core = importlib.util.module_from_spec(spec)
    sys.modules[_HIGHS_MODULE] = core
    try:
        spec.loader.exec_module(core)
    except BaseException:
        del sys.modules[_HIGHS_MODULE]
        raise
    return core


def _package_solution(
    lp: LinearProgram, decisions: np.ndarray, slack: np.ndarray
) -> DispatchSolution:
    """The optimum at decisions; slack (b_ub - row activity) sets active_rows."""
    x_g = np.empty(lp.n_gens)
    for col, j in enumerate(lp.decision_gens):
        x_g[j] = decisions[col] * lp.base_mva
    residual_pu = lp.residual_at_zero - float(np.sum(decisions))
    x_g[lp.residual_gen] = residual_pu * lp.base_mva

    objective = float(lp.cost @ decisions) + lp.cost_offset
    injections = lp.injection_map @ decisions + lp.injection_fixed
    active = tuple(int(i) for i in np.nonzero(slack <= ACTIVE_TOL)[0])
    return DispatchSolution(
        x_g=x_g,
        objective=objective,
        status="optimal",
        active_rows=active,
        injection_pu=injections,
    )


# ---------------------------------------------------------------------------
# end-to-end runs

@dataclass(frozen=True)
class DrawLaw:
    """What a method draws its scenarios from, and what caps its rows.

    draws is False for a method that draws nothing. mixture draws the
    tail mixture rather than the Gaussian, and caps every row at the
    margin-tightened offsets. Both laws draw in the rows' rank
    coordinates and project through the margins' draw_factor.
    """

    draws: bool
    mixture: bool = False


# Every method, as its draw law: dc-opf draws nothing, sa the Gaussian,
# sa-is the tail mixture.
METHODS = {"dc-opf": DrawLaw(draws=False), "sa": DrawLaw(draws=True),
           "sa-is": DrawLaw(draws=True, mixture=True)}


@dataclass(frozen=True)
class PreparedProblem:
    """A case and deviation model prepared once for any number of solves.

    Holds everything a scenario solve at one eta shares, whatever its
    seed: the polytope, the margins (with the draw factor B that every
    draw projects through, and the shrink delta that tightens the rows),
    the tail mixture, built on B (empty, K = 0 and S = 0, when no row is
    stochastic), and
    the dispatch LP at the polytope's own offsets. A solve only moves the
    polytope rows of that LP (see LinearProgram.row_shift). The mixture
    is also the one source of the sa-is count's K and S (n_components and
    tail_mass).
    """

    case: GridCase
    g: GaussianSpec
    poly: FeasibilityPolytope
    margins: MarginSet
    mixture: MixtureSampler
    lp: LinearProgram


def prepare_problem(case: GridCase, g: GaussianSpec, eta: float) -> PreparedProblem:
    """Build the seed-independent part of run_sa and run_sa_is once."""
    poly = build_polytope(case, build_matrices(case))
    m = compute_margins(poly, g, eta)
    return PreparedProblem(
        case=case,
        g=g,
        poly=poly,
        margins=m,
        mixture=build_mixture(poly, m, g),
        lp=_skeleton(case, poly),
    )


def scenario_offsets(
    poly: FeasibilityPolytope, margins: MarginSet, mixture: MixtureSampler,
    method: str, n_scenarios: int, seed: int | None,
) -> np.ndarray:
    """Row offsets of one scenario solve, before any LP is built.

    The method's draw law (METHODS) says what is drawn: each row's offset
    less its largest projection B z' over the _support_draws blocks z of
    n_scenarios draws in B's rank coordinates, B = margins.draw_factor:
    Gaussian draws, so B z' is N(0, B B'), or tail-mixture draws
    (draw_mixture_scenarios' stream, the mixture built on B), after
    which it takes the elementwise minimum with the tightened offsets
    poly.offsets - margins.delta (what tightened_polytope holds). Blocks
    project rows by draws, so a row's maximum runs along the contiguous
    axis. With n_scenarios = 0, for a law that draws nothing (dc-opf), or
    for the mixture law with an empty mixture (no stochastic row), nothing
    is drawn. mixture is read only by the mixture law.
    """
    if method not in METHODS:
        raise ValueError(f"unknown method {method!r}; use one of {', '.join(METHODS)}")
    if n_scenarios < 0:
        raise ValueError(f"scenario count must be non-negative, got {n_scenarios}")
    law, offsets = METHODS[method], poly.offsets
    sampler = mixture if law.mixture else None
    if n_scenarios > 0 and law.draws and (sampler is None or sampler.n_components):
        factor = margins.draw_factor
        worst = np.full(poly.n_rows, -np.inf)
        for z in _support_draws(n_scenarios, seed, factor.shape[1], sampler):
            worst = np.maximum(worst, (factor @ z.T).max(axis=1))
        offsets = offsets - worst
    if law.mixture:
        offsets = np.minimum(offsets, poly.offsets - margins.delta)
    return offsets


def solve_prepared(
    prep: PreparedProblem, method: str, n_scenarios: int, seed: int | None
) -> DispatchSolution:
    """One scenario solve on a prepared problem: its LP at scenario_offsets."""
    offsets = scenario_offsets(
        prep.poly, prep.margins, prep.mixture, method, n_scenarios, seed
    )
    return solve(_with_offsets(prep.lp, offsets))


def run_sa(
    case: GridCase,
    g: GaussianSpec,
    eta: float,
    n_scenarios: int,
    seed: int | None,
) -> DispatchSolution:
    """Plain scenario approximation: Gaussian draws, no margins.

    eta is validated (by the margins the prepared problem carries) for
    interface symmetry with run_sa_is but does not change the
    optimisation; it drives the scenario count bound when one is
    requested upstream. n_scenarios = 0 solves the nominal problem at
    the rows' own offsets.
    """
    return solve_prepared(prepare_problem(case, g, eta), "sa", n_scenarios, seed)


def run_sa_is(
    case: GridCase,
    g: GaussianSpec,
    eta: float,
    n_scenarios: int,
    seed: int | None,
) -> DispatchSolution:
    """Margin-tightened scenario approximation with tail sampling.

    Hard rows come from the margin-tightened polytope; scenarios come
    from the tail mixture and reduce against the original rows, the
    final offsets being the elementwise minimum. With no stochastic rows
    (degenerate uncertainty) or n_scenarios = 0 nothing is drawn and
    only the tightened rows remain.
    """
    return solve_prepared(prepare_problem(case, g, eta), "sa-is", n_scenarios, seed)
