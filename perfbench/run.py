#!/usr/bin/env python3
"""ccopf benchmark: `ccopf run` workloads, end to end and per layer.

Usage (from the repository root):

    python3 perfbench/run.py --workload protocol-fixed --seed 2024 --seconds 15 --trace 0

With ``--trace 0`` the workload's `ccopf run` invocations repeat, in
process and untraced, for ``--seconds`` (a warm-up pass, then at least
three timed passes); the run reports the median timed pass, peak memory, the share of optimal
repetitions, and the median set-up time of several fresh interpreters.
With ``--trace 1`` it makes untraced reference passes, then traced
passes at one job, and reports self time and counts per layer plus
per-element kernel timings. Both modes check every report the program
writes and that same-seed passes write identical reports. The last
line of standard output is the result as JSON; the exit code is 1 when
a correctness check fails and 2 when the program cannot be found.
"""
from __future__ import annotations

import argparse
import json
import os
import platform
import resource
import shutil
import statistics
import subprocess
import sys
import tempfile
import timeit
from dataclasses import dataclass, field
from pathlib import Path
from time import perf_counter

HERE = Path(__file__).resolve().parent
ROOT = HERE.parent
SRC = ROOT / "src"
WORK = ROOT / ".perfbench"

sys.path.insert(0, str(HERE))

from checks import check_pass, repetition_outcomes, report_hashes  # noqa: E402
from layers import Tracer, percentile_ms  # noqa: E402
from workloads import CASES, METHODS, WORKLOADS, run_pass, worker_count  # noqa: E402

MIN_PASSES = 3
MIN_TRACED = 2
SETUP_SAMPLES = 5
SETUP_TIMEOUT_S = 120
KERNEL_SIZE = 1 << 16
KERNEL_REPEATS = 7

# Seed behind the recorded baseline, and the held-out seed on which a
# later change confirms a claim it measured on other seeds.
BASELINE_SEED = 2024
HELD_OUT_SEED = 4099


def _parse(argv):
    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    parser.add_argument("--workload", required=True, choices=sorted(WORKLOADS))
    parser.add_argument("--seed", type=int, required=True)
    parser.add_argument("--seconds", type=float, required=True)
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    return parser.parse_args(argv)


# ---------------------------------------------------------------------------
# environment

def _blas_threads() -> int | None:
    """Thread count the loaded OpenBLAS reports, as found; never set here."""
    import ctypes

    try:
        with open("/proc/self/maps", encoding="utf-8") as fh:
            libs = {line.split()[-1] for line in fh if "openblas" in line.lower()}
    except OSError:
        return None
    for lib in sorted(libs):
        handle = ctypes.CDLL(lib)
        for symbol in ("scipy_openblas_get_num_threads64_", "openblas_get_num_threads64_",
                       "openblas_get_num_threads"):
            fn = getattr(handle, symbol, None)
            if fn is not None:
                fn.restype = ctypes.c_int
                return int(fn())
    return None


def _git_commit() -> str | None:
    """HEAD of the checkout when it is a git work tree, read from .git."""
    git = ROOT / ".git"
    try:
        head = (git / "HEAD").read_text(encoding="utf-8").strip()
        if not head.startswith("ref: "):
            return head
        ref = head[5:]
        if (git / ref).exists():
            return (git / ref).read_text(encoding="utf-8").strip()
        for line in (git / "packed-refs").read_text(encoding="utf-8").splitlines():
            if line.endswith(" " + ref):
                return line.split()[0]
    except OSError:
        pass
    return None


def environment(seed: int, jobs: int) -> dict:
    import numpy
    import scipy

    import ccopf.kernels

    return {
        "python": platform.python_version(),
        "numpy": numpy.__version__,
        "scipy": scipy.__version__,
        "ccopf_kernels_backend": ccopf.kernels.BACKEND,
        "nproc": len(os.sched_getaffinity(0)),
        "blas_threads": _blas_threads(),
        "commit": _git_commit(),
        "seed": seed,
        "baseline_seed": BASELINE_SEED,
        "held_out_seed": HELD_OUT_SEED,
        "jobs": jobs,
    }


# ---------------------------------------------------------------------------
# shared checks

def _generators() -> dict[str, int]:
    from ccopf.validation import load_case_ref

    return {case: len(load_case_ref(case).generators) for case in CASES}


class Gate:
    """Collects correctness failures across the passes of one run."""

    def __init__(self, wl, seed):
        self.wl, self.seed = wl, seed
        self.generators = _generators()
        self.failures: list[str] = []
        self.reference: dict[str, str] | None = None

    def full(self, p) -> None:
        """Every report check on one pass."""
        self.failures += [f"exit code {c} for {case}" for case, c in p.exit_codes.items() if c]
        self.failures += check_pass(self.wl, self.seed, p.out, self.generators)

    def same_reports(self, p, label: str) -> None:
        """Reports byte-identical to the first pass given here."""
        hashes = report_hashes(p.out)
        if self.reference is None:
            self.reference = hashes
        elif hashes != self.reference:
            differ = sorted(k for k in hashes if hashes[k] != self.reference.get(k))
            self.failures.append(f"{label}: reports differ from the first pass: {differ}")


@dataclass
class RunResult:
    """What one benchmark run measured, and every check that failed."""

    metrics: dict
    attempted: int
    failed: int
    failures: list[str]
    jobs: int
    detail: dict = field(default_factory=dict)


# ---------------------------------------------------------------------------
# untraced: end-to-end metrics

def _setup_times(wl, seed: int, jobs: int, gate: Gate, resolved: dict) -> list[float]:
    spec = json.dumps({
        "cases": list(CASES), "methods": list(METHODS), "eta": wl.eta,
        "scenarios": wl.scenarios if wl.scenarios == "auto" else int(wl.scenarios),
        "reps": wl.reps, "seed": seed, "n_test": wl.n_test, "jobs": jobs,
    })
    env = dict(os.environ, PYTHONPATH=os.pathsep.join(
        [str(SRC)] + [p for p in os.environ.get("PYTHONPATH", "").split(os.pathsep) if p]))
    times = []
    for _ in range(SETUP_SAMPLES):
        proc = subprocess.run(
            [sys.executable, str(HERE / "setup_probe.py"), spec], cwd=ROOT, env=env,
            capture_output=True, text=True, timeout=SETUP_TIMEOUT_S,
        )
        if proc.returncode != 0:
            gate.failures.append(f"set-up probe failed: {proc.stderr.strip()[-400:]}")
            continue
        probe = json.loads(proc.stdout.strip().splitlines()[-1])
        if probe["counts"] != resolved:
            gate.failures.append(
                f"set-up probe resolved {probe['counts']}, the run resolved {resolved}"
            )
        times.append(probe["setup_s"])
    return times


def _resolved(out: Path) -> dict:
    counts = {}
    for case in CASES:
        path = out / case / "report.json"
        if path.exists():
            report = json.loads(path.read_text(encoding="utf-8"))
            counts.update({f"{case}.{m}": n for m, n in report["resolved"].items()})
    return counts


def _peak_rss_mb() -> float:
    """Largest peak resident set of this process or any reaped child (pool worker)."""
    own = resource.getrusage(resource.RUSAGE_SELF).ru_maxrss
    children = resource.getrusage(resource.RUSAGE_CHILDREN).ru_maxrss
    return max(own, children) / 1024.0


def _spread(values: list[float]) -> str:
    if len(values) < 2:
        return f"n={len(values)}"
    q1, _, q3 = statistics.quantiles(values, n=4)
    return f"median of n={len(values)}, q1 {q1:.4g}, q3 {q3:.4g}"


def _median(values) -> float:
    # only empty after a failed check, when the result is marked incorrect
    values = list(values)
    return statistics.median(values) if values else 0.0


def measure(wl, seed: int, seconds: float, workdir: Path):
    jobs = worker_count(wl)
    gate = Gate(wl, seed)
    start = perf_counter()
    # the warm-up pass is checked and is the reference for every later
    # report, but its time (first calls into BLAS, HiGHS, allocator) is not
    passes = [run_pass(wl, seed, workdir / "pass0", jobs)]
    gate.full(passes[0])
    gate.same_reports(passes[0], "pass 0")
    while len(passes) <= MIN_PASSES or perf_counter() - start + passes[-1].wall_s <= seconds:
        p = run_pass(wl, seed, workdir / f"pass{len(passes)}", jobs)
        gate.same_reports(p, f"pass {len(passes)}")
        passes.append(p)
    # read before the set-up probes start, so only pool workers count as children
    peak = _peak_rss_mb()
    resolved = _resolved(passes[0].out)
    setups = _setup_times(wl, seed, jobs, gate, resolved)

    walls = [p.wall_s for p in passes[1:]]
    good, total = repetition_outcomes(passes[0].out)
    metrics = {
        "experiment_s": (statistics.median(walls), "s",
                         _spread(walls) + "; passes " + " ".join(f"{w:.3f}" for w in walls)),
        "setup_s": (_median(setups), "s", _spread(setups)),
        "peak_rss_mb": (peak, "MB", "max over the run, ru_maxrss / 1024"),
        "optimal_ratio": (good / max(total, 1), "ratio",
                     f"{good}/{total} repetitions optimal, fail_ratio "
                     f"{(total - good) / max(total, 1):.4f}"),
    }
    return RunResult(metrics, len(passes) * len(CASES), sum(p.failed for p in passes),
                     gate.failures, jobs)


# ---------------------------------------------------------------------------
# traced: per-layer metrics

def kernel_timings(seed: int) -> dict[str, float]:
    """Best-of-N ns per element of each normal-law kernel, through the public API."""
    import numpy as np

    from ccopf import kernels

    rng = np.random.default_rng(seed)
    z = rng.standard_normal(KERNEL_SIZE)
    p = rng.uniform(1e-9, 1.0 - 1e-9, KERNEL_SIZE)
    u = 1.0 - rng.random(KERNEL_SIZE)  # (0, 1], what the sampler feeds in
    p_tail = float(kernels.norm_sf(2.0))
    cases = {
        "erfc": (kernels.erfc, z),
        "norm_cdf": (kernels.norm_cdf, z),
        "norm_sf": (kernels.norm_sf, z),
        "norm_ppf": (kernels.norm_ppf, p),
        "norm_isf": (kernels.norm_isf, p),
        "tail_quantile": (lambda x: kernels.tail_quantile(2.0, p_tail, x), u),
    }
    out = {}
    for name, (fn, arr) in cases.items():
        best = min(timeit.repeat(lambda: fn(arr), number=1, repeat=KERNEL_REPEATS))
        out[f"kernels.{name}.ns_per_element"] = best / KERNEL_SIZE * 1e9
    return out


# Counts compared between traced passes; all must repeat exactly.
def _count_metrics(s: dict) -> dict[str, float]:
    calls, counts = s["calls"], s["counts"]
    out = {f"{name}.calls": n for name, n in calls.items()}
    out.update({k: v for k, v in counts.items() if not k.endswith(".mb")})
    return out


def layer_metrics(summaries: list[dict], walls: list[float], untraced_1job: float,
                  pool_wall: float, jobs: int, good: int, total: int) -> dict:
    """Per-layer metrics of the traced passes: times as medians, counts from pass one."""
    first = summaries[0]

    def self_s(name):
        return statistics.median(s["self_s"].get(name, 0.0) for s in summaries)

    def count(key):
        return first["counts"].get(key, 0)

    def calls(name):
        return first["calls"].get(name, 0)

    def median_ms(name):
        return _median(1e3 * _median(s["latency_s"].get(name, [])) for s in summaries)

    reduced = count("scenario.reduce_scenarios.reduced")
    m = {
        "grid.build_matrices.calls": calls("grid.build_matrices"),
        "grid.build_matrices.s": self_s("grid.build_matrices"),
        "grid.build_polytope.calls": calls("grid.build_polytope"),
        "grid.build_polytope.s": self_s("grid.build_polytope"),
        "grid.load_case.s": self_s("grid.load_case"),
        "uncertainty.build_uncertainty.calls": calls("uncertainty.build_uncertainty"),
        "uncertainty.build_uncertainty.s": self_s("uncertainty.build_uncertainty"),
        "margins.compute_margins.calls": calls("margins.compute_margins"),
        "margins.compute_margins.s": self_s("margins.compute_margins"),
        "margins.estimate_pi.calls": calls("margins.estimate_pi"),
        "margins.estimate_pi.s": self_s("margins.estimate_pi"),
        "margins.estimate_pi.samples": count("margins.estimate_pi.samples"),
        "sampler.build_mixture.s": self_s("sampler.build_mixture"),
        "sampler.sample_mixture_batch.s": self_s("sampler.sample_mixture_batch"),
        "sampler.sample_mixture_batch.scenarios": count("sampler.sample_mixture_batch.scenarios"),
        "sampler.sample_mixture_batch.mb": count("sampler.sample_mixture_batch.mb"),
        "kernels.norm_isf.s": self_s("kernels.norm_isf"),
        "kernels.norm_isf.elements": count("kernels.norm_isf.elements"),
        "kernels.norm_sf.s": self_s("kernels.norm_sf"),
        "kernels.norm_sf.elements": count("kernels.norm_sf.elements"),
        "scenario.draw_gaussian_scenarios.s": self_s("scenario.draw_gaussian_scenarios"),
        "scenario.draw_gaussian_scenarios.scenarios": count("scenario.draw_gaussian_scenarios.scenarios"),
        "scenario.draw_mixture_scenarios.s": self_s("scenario.draw_mixture_scenarios"),
        "scenario.reduce_scenarios.s": self_s("scenario.reduce_scenarios"),
        "scenario.reduce_scenarios.products": count("scenario.reduce_scenarios.products"),
        "scenario.reduce_scenarios.useful_ratio": (
            count("scenario.reduce_scenarios.useful") / reduced if reduced else 0.0),
        "scenario.assemble.s": self_s("scenario.assemble"),
        "scenario.solve.calls": calls("scenario.solve"),
        "scenario.solve.s": self_s("scenario.solve"),
        "scenario.solve.not_optimal": count("scenario.solve.not_optimal"),
        "scenario.linprog.nit": count("scenario.linprog.nit"),
        "scenario.run_sa.ms_p50": median_ms("scenario.run_sa"),
        "scenario.run_sa.samples": calls("scenario.run_sa"),
        "scenario.run_sa_is.ms_p50": median_ms("scenario.run_sa_is"),
        "scenario.run_sa_is.samples": calls("scenario.run_sa_is"),
        "validation.resolve_scenario_count.calls": calls("validation.resolve_scenario_count"),
        "validation.resolve_scenario_count.s": self_s("validation.resolve_scenario_count"),
    }
    for case in CASES:
        for method in ("sa", "sa-is"):
            key = f"validation.n_scenarios.{case}.{method}"
            m[key] = count(key)
    rep_s = statistics.median(s["rep_s"] for s in summaries)
    accounted = [sum(s["self_s"].values()) for s in summaries]
    m.update({
        "validation.out_of_sample_confidence.s": self_s("validation.out_of_sample_confidence"),
        "validation.out_of_sample_confidence.draws": count("validation.out_of_sample_confidence.draws"),
        "validation.pool.efficiency": rep_s / (jobs * pool_wall),
        "validation.fail_ratio": (total - good) / max(total, 1),
        "cli.main.self_s": self_s("cli.main"),
        "trace.overhead_ratio": statistics.median(walls) / untraced_1job,
        "trace.unaccounted_s": statistics.median(w - a for w, a in zip(walls, accounted)),
    })
    return m


def trace(wl, seed: int, seconds: float, workdir: Path):
    jobs = worker_count(wl)
    gate = Gate(wl, seed)
    start = perf_counter()
    # first pass warms up and is the reference for every later report
    warm = run_pass(wl, seed, workdir / "warm-up", 1)
    gate.full(warm)
    gate.same_reports(warm, "warm-up pass")
    runs = [warm]
    if jobs > 1:
        pool = run_pass(wl, seed, workdir / "pool", jobs)
        gate.full(pool)
        _same_records(warm, pool, jobs, gate)
        runs.append(pool)

    # traced and untraced one-job passes alternate, so both see the same machine
    summaries, walls, plain, tracers = [], [], [], []
    while len(summaries) < MIN_TRACED or (
        perf_counter() - start + walls[-1] + plain[-1] <= seconds
    ):
        i = len(summaries)
        tracer = Tracer()
        with tracer:
            p = run_pass(wl, seed, workdir / f"traced{i}", 1)
        gate.same_reports(p, f"traced pass {i}")
        u = run_pass(wl, seed, workdir / f"untraced{i}", 1)
        gate.same_reports(u, f"untraced pass {i}")
        runs += [p, u]
        summaries.append(tracer.summary())
        walls.append(p.wall_s)
        plain.append(u.wall_s)
        tracers.append(tracer)
    reference = _count_metrics(summaries[0])
    for i, s in enumerate(summaries[1:], start=1):
        counts = _count_metrics(s)
        if counts != reference:
            diff = sorted(k for k in set(reference) | set(counts) if reference.get(k) != counts.get(k))
            gate.failures.append(f"traced pass {i}: layer counts differ: {diff}")

    good, total = repetition_outcomes(warm.out)
    untraced = statistics.median(plain)
    pool_wall = runs[1].wall_s if jobs > 1 else untraced
    metrics = layer_metrics(summaries, walls, untraced, pool_wall, jobs, good, total)
    metrics.update(kernel_timings(seed))
    detail = {"summaries": summaries, "spans": [t.span_records() for t in tracers],
              "traced_s": walls, "untraced_1job_s": plain, "pool_s": pool_wall}
    return RunResult(metrics, len(runs) * len(CASES), sum(r.failed for r in runs),
                     gate.failures, jobs, detail)


def _same_records(a, b, jobs: int, gate: Gate) -> None:
    """The pool must produce the records the single-process run does."""
    for case in CASES:
        paths = (a.out / case / "report.json", b.out / case / "report.json")
        if not all(path.exists() for path in paths):
            continue
        ra, rb = (json.loads(path.read_text(encoding="utf-8"))["records"] for path in paths)
        if ra != rb:
            gate.failures.append(f"{case}: records at --jobs {jobs} differ from --jobs 1")


# ---------------------------------------------------------------------------

def _print_table(title: str, rows: list[tuple[str, object, str, str]]) -> None:
    print(title)
    for name, value, unit, note in rows:
        text = f"{value:.6g}" if isinstance(value, float) else str(value)
        print(f"  {name:<44} {text:>14} {unit:<12} {note}")


def main(argv: list[str] | None = None) -> int:
    args = _parse(argv)
    if not (SRC / "ccopf" / "__init__.py").is_file():
        print(f"perfbench: no ccopf sources under {SRC}", file=sys.stderr)
        return 2
    sys.path.insert(0, str(SRC))
    # the benchmark owns the seed; the program would let this override it
    os.environ.pop("CCOPF_SEED", None)

    wl = WORKLOADS[args.workload]
    WORK.mkdir(exist_ok=True)
    workdir = Path(tempfile.mkdtemp(prefix=f"{wl.name}-", dir=WORK))
    try:
        run = trace if args.trace else measure
        result = run(wl, args.seed, args.seconds, workdir)
    finally:
        shutil.rmtree(workdir, ignore_errors=True)

    metrics = result.metrics
    env = environment(args.seed, result.jobs)
    mode = "traced" if args.trace else "untraced"
    if args.trace:
        rows = [(k, v, _unit(k), "") for k, v in metrics.items()]
        _print_table(f"perfbench {wl.name}, seed {args.seed}, {mode}", rows)
        summary = result.detail["summaries"][0]
        _print_table("self time per span, traced pass 1", [
            (name, t, "s", f"{summary['calls'][name]} calls")
            for name, t in sorted(summary["self_s"].items(), key=lambda kv: -kv[1])
        ])
        tails = []
        for name in ("scenario.run_sa", "scenario.run_sa_is", "validation._run_one"):
            lat = summary["latency_s"].get(name, [])
            p90 = percentile_ms(lat, 90)
            tails.append((f"{name}.ms_p90", p90 if p90 is not None else "n/a", "ms",
                          f"n={len(lat)}, reported with >= 10 samples beyond"))
        _print_table("tail latency, traced pass 1", tails)
        trace_dir = WORK / "trace"
        trace_dir.mkdir(exist_ok=True)
        path = trace_dir / f"{wl.name}-seed{args.seed}.json"
        path.write_text(json.dumps({"environment": env, **result.detail}) + "\n", encoding="utf-8")
        print(f"spans written to {path.relative_to(ROOT)}")
        result_metrics = {k: {"value": v, "unit": _unit(k)} for k, v in metrics.items()}
    else:
        _print_table(f"perfbench {wl.name}, seed {args.seed}, {mode}",
                     [(k, v, u, note) for k, (v, u, note) in metrics.items()])
        result_metrics = {k: {"value": v, "unit": u} for k, (v, u, _) in metrics.items()}

    for failure in result.failures:
        print(f"perfbench: check failed: {failure}", file=sys.stderr)
    print(json.dumps({"environment": env}))
    correct = not result.failures
    print(json.dumps({
        "correct": correct, "attempted": result.attempted, "failed": result.failed,
        "metrics": result_metrics,
    }))
    return 0 if correct else 1


def _unit(name: str) -> str:
    suffix = name.rsplit(".", 1)[-1]
    return {
        "s": "s", "self_s": "s", "unaccounted_s": "s", "ms_p50": "ms", "mb": "MB-computed",
        "ns_per_element": "ns", "useful_ratio": "ratio", "efficiency": "ratio",
        "fail_ratio": "ratio", "overhead_ratio": "ratio",
    }.get(suffix, "count")


if __name__ == "__main__":
    sys.exit(main())
