"""Per-layer tracing of ccopf from outside the package.

The tracer wraps chosen functions of each ccopf module, records one span
per call (name, start, end, parent span, repetition id) and a few counts
at the same boundaries, and aggregates self time per layer. The package
binds names with ``from .x import y``, so each wrapper replaces every
binding of the original function object in every loaded ``ccopf``
module, and ``uninstall`` puts the originals back.

Counts that cost real work to extract (the useful-draw ratio of
``reduce_scenarios``) are computed after the wrapped call has returned
and are recorded as ``trace.bookkeeping`` spans under the caller, so no
layer's self time includes them.
"""
from __future__ import annotations

import functools
import importlib
import inspect
import statistics
import sys
from collections import defaultdict
from time import perf_counter

import numpy as np

BOOKKEEPING = "trace.bookkeeping"

# Rows of the scenario-by-row product examined at once by the useful-draw
# count, so tracing a 482k-scenario reduce does not double its memory.
_USEFUL_CHUNK = 32768


def _bound(fn, args, kwargs):
    sig = inspect.signature(fn)
    bound = sig.bind(*args, **kwargs)
    bound.apply_defaults()
    return bound.arguments


def _count_estimate_pi(tr, fn, args, kwargs, result):
    a = _bound(fn, args, kwargs)
    if a["mode"] == "monte-carlo":
        tr.counts["margins.estimate_pi.samples"] += a["n_samples"]


def _count_mixture_batch(tr, fn, args, kwargs, result):
    a = _bound(fn, args, kwargs)
    n, reduced_dim = a["n"], a["ms"].reduced_dim
    tr.counts["sampler.sample_mixture_batch.scenarios"] += n
    xi, comps = result
    # returned arrays plus the n x reduced_dim normals and the rotated
    # copy the batch builds before mapping back to bus coordinates
    nbytes = xi.nbytes + comps.nbytes + 2 * n * reduced_dim * 8
    key = "sampler.sample_mixture_batch.mb"
    tr.counts[key] = max(tr.counts[key], nbytes / 1e6)


def _count_elements(name):
    def count(tr, fn, args, kwargs, result):
        first = next(iter(_bound(fn, args, kwargs).values()))
        tr.counts[f"kernels.{name}.elements"] += int(np.size(first))
    return count


def _count_draws(name):
    def count(tr, fn, args, kwargs, result):
        tr.counts[f"scenario.{name}.scenarios"] += _bound(fn, args, kwargs)["n"]
    return count


def _count_reduce(tr, fn, args, kwargs, result):
    a = _bound(fn, args, kwargs)
    poly, scen = a["poly"], a["scen"]
    n = scen.scenarios.shape[0]
    tr.counts["scenario.reduce_scenarios.products"] += n * poly.n_rows
    tr.counts["scenario.reduce_scenarios.reduced"] += n
    tr.counts["scenario.reduce_scenarios.useful"] += useful_scenarios(
        scen.scenarios, poly.normals
    )


def useful_scenarios(scenarios: np.ndarray, normals: np.ndarray) -> int:
    """Distinct scenarios that set the maximum of at least one row.

    Ties go to the first scenario, as with ``np.argmax``. Works in chunks
    of scenarios so memory stays bounded for any count.
    """
    best = np.full(normals.shape[0], -np.inf)
    arg = np.zeros(normals.shape[0], dtype=np.int64)
    for lo in range(0, scenarios.shape[0], _USEFUL_CHUNK):
        proj = scenarios[lo:lo + _USEFUL_CHUNK] @ normals.T
        idx = np.argmax(proj, axis=0)
        val = proj[idx, np.arange(proj.shape[1])]
        better = val > best
        best[better] = val[better]
        arg[better] = idx[better] + lo
    return int(np.unique(arg).size)


def _count_solve(tr, fn, args, kwargs, result):
    tr.counts["scenario.solve.not_optimal"] += result.status != "optimal"


def _count_resolve(tr, fn, args, kwargs, result):
    a = _bound(fn, args, kwargs)
    tr.counts[f"validation.n_scenarios.{a['case'].name}.{a['method']}"] = result


def _count_oos(tr, fn, args, kwargs, result):
    tr.counts["validation.out_of_sample_confidence.draws"] += _bound(fn, args, kwargs)["n_test"]


# (module, function, counter). A span per call; the counter, when given,
# runs after the call with (tracer, original, args, kwargs, result).
TRACED = (
    ("ccopf.grid", "load_case", None),
    ("ccopf.grid", "build_matrices", None),
    ("ccopf.grid", "build_polytope", None),
    ("ccopf.uncertainty", "build_uncertainty", None),
    ("ccopf.margins", "compute_margins", None),
    ("ccopf.margins", "tightened_polytope", None),
    ("ccopf.margins", "estimate_pi", _count_estimate_pi),
    ("ccopf.sampler", "build_mixture", None),
    ("ccopf.sampler", "sample_mixture_batch", _count_mixture_batch),
    ("ccopf.kernels", "norm_isf", _count_elements("norm_isf")),
    ("ccopf.kernels", "norm_sf", _count_elements("norm_sf")),
    ("ccopf.kernels", "norm_cdf", _count_elements("norm_cdf")),
    ("ccopf.scenario", "draw_gaussian_scenarios", _count_draws("draw_gaussian_scenarios")),
    ("ccopf.scenario", "draw_mixture_scenarios", _count_draws("draw_mixture_scenarios")),
    ("ccopf.scenario", "reduce_scenarios", _count_reduce),
    ("ccopf.scenario", "assemble", None),
    ("ccopf.scenario", "solve", _count_solve),
    ("ccopf.scenario", "run_sa", None),
    ("ccopf.scenario", "run_sa_is", None),
    ("ccopf.validation", "load_case_ref", None),
    ("ccopf.validation", "resolve_scenario_count", _count_resolve),
    ("ccopf.validation", "out_of_sample_confidence", _count_oos),
    ("ccopf.validation", "run_experiment", None),
    ("ccopf.validation", "_run_one", None),
    ("ccopf.cli", "main", None),
)

# Repetition boundary: each call opens a new repetition id.
_REPETITION = "validation._run_one"


def _short(module: str, name: str) -> str:
    return f"{module.split('.', 1)[1]}.{name}"


class Tracer:
    """Spans and counts for one traced pass; install, run, uninstall.

    spans holds (id, name, start, end, parent, rep) tuples in completion
    order, so children precede their parents.
    """

    def __init__(self):
        self.spans: list[tuple[int, str, float, float, int | None, int | None]] = []
        self.counts: dict[str, float] = defaultdict(int)
        self._stack: list[int] = []
        self._next_id = 0
        self._rep: int | None = None
        self._next_rep = 0
        self._saved: list[tuple[object, str, object]] = []

    # -- installation -------------------------------------------------------

    def install(self):
        if self._saved:
            raise RuntimeError("tracer already installed")
        for module, name, counter in TRACED:
            original = getattr(importlib.import_module(module), name)
            self._rebind(original, self._wrap(_short(module, name), original, counter))
        scenario = importlib.import_module("ccopf.scenario")
        self._rebind(scenario.linprog, self._wrap_linprog(scenario.linprog))
        return self

    def uninstall(self):
        for owner, attr, original in reversed(self._saved):
            setattr(owner, attr, original)
        self._saved.clear()

    def __enter__(self):
        return self.install()

    def __exit__(self, *exc):
        self.uninstall()

    def _rebind(self, original, wrapper):
        for modname, mod in list(sys.modules.items()):
            if mod is None or not (modname == "ccopf" or modname.startswith("ccopf.")):
                continue
            for attr, value in list(vars(mod).items()):
                if value is original:
                    setattr(mod, attr, wrapper)
                    self._saved.append((mod, attr, original))

    # -- spans --------------------------------------------------------------

    def _open(self):
        span_id = self._next_id
        self._next_id += 1
        parent = self._stack[-1] if self._stack else None
        self._stack.append(span_id)
        return span_id, parent

    def _wrap(self, name, fn, counter):
        tracer = self
        is_rep = name == _REPETITION

        @functools.wraps(fn)
        def wrapper(*args, **kwargs):
            span_id, parent = tracer._open()
            outer_rep = tracer._rep
            if is_rep:
                tracer._rep = tracer._next_rep
                tracer._next_rep += 1
            rep = tracer._rep
            start = perf_counter()
            try:
                result = fn(*args, **kwargs)
            finally:
                end = perf_counter()
                tracer._stack.pop()
                tracer._rep = outer_rep
                tracer.spans.append((span_id, name, start, end, parent, rep))
            if counter is not None:
                counter(tracer, fn, args, kwargs, result)
                done = perf_counter()
                bk_id = tracer._next_id
                tracer._next_id += 1
                tracer.spans.append((bk_id, BOOKKEEPING, end, done, parent, rep))
            return result

        return wrapper

    def _wrap_linprog(self, fn):
        # count-only: HiGHS time stays in scenario.solve's self time
        tracer = self

        @functools.wraps(fn)
        def wrapper(*args, **kwargs):
            res = fn(*args, **kwargs)
            tracer.counts["scenario.linprog.nit"] += int(getattr(res, "nit", 0) or 0)
            return res

        return wrapper

    # -- aggregation --------------------------------------------------------

    def summary(self) -> dict:
        """Self time, calls, latencies and counts of this pass.

        Returns a dict with ``self_s`` and ``calls`` per span name,
        ``latency_s`` (inclusive duration less tracing bookkeeping) per
        span name, ``bookkeeping_s``, ``rep_s`` (summed repetition time)
        and ``counts``.
        """
        child_time: dict[int, float] = defaultdict(float)
        inner_bk: dict[int, float] = defaultdict(float)
        for span_id, name, start, end, parent, _rep in self.spans:
            if parent is None:
                continue
            child_time[parent] += end - start
            inner_bk[parent] += (end - start) if name == BOOKKEEPING else inner_bk[span_id]

        self_s: dict[str, float] = defaultdict(float)
        calls: dict[str, int] = defaultdict(int)
        latency: dict[str, list[float]] = defaultdict(list)
        bookkeeping = 0.0
        for span_id, name, start, end, _parent, _rep in self.spans:
            if name == BOOKKEEPING:
                bookkeeping += end - start
                continue
            self_s[name] += (end - start) - child_time[span_id]
            calls[name] += 1
            latency[name].append((end - start) - inner_bk[span_id])
        return {
            "self_s": dict(self_s),
            "calls": dict(calls),
            "latency_s": dict(latency),
            "bookkeeping_s": bookkeeping,
            "rep_s": sum(latency.get(_REPETITION, [])),
            "counts": dict(self.counts),
        }

    def span_records(self) -> list[dict]:
        return [
            {"id": i, "name": n, "start": s, "end": e, "parent": p, "rep": r}
            for i, n, s, e, p, r in self.spans
        ]


def percentile_ms(samples: list[float], q: int) -> float | None:
    """The q-th percentile in ms, or None with fewer than ten samples beyond it."""
    n = len(samples)
    if n == 0 or n * (100 - q) / 100 < 10:
        return None
    return 1e3 * statistics.quantiles(samples, n=100, method="inclusive")[q - 1]
