"""Command line interface.

Subcommands: run (experiments on a grid case), nsamples (certified
scenario counts), sweep1d (hard-offset versus sample-count trade on the
1-D problem), validate (quick self-checks). Exit codes: 0 success,
1 usage, failed validation or unwritable output, 2 unreadable or invalid
input data, 3 solver breakdown.
"""
from __future__ import annotations

import argparse
import csv
import dataclasses
import io
import json
import math
import os
import sys
from collections.abc import Iterable
from pathlib import Path

import numpy as np

from .grid import CaseError
from .kernels import BACKEND, norm_isf, norm_sf
from .scenario import (
    METHODS,
    CountOverflowError,
    SolverError,
    sample_size_cc,
    sample_size_filtered,
    sample_size_is,
)
from .validation import (
    ExperimentConfig,
    ExperimentReport,
    RepetitionRecord,
    prepare_experiment,
    resolve_scenario_count,
    run_experiment,
    solve_1d_synthetic,
    sweep_1d,
)

EXIT_OK = 0
EXIT_USAGE = 1
EXIT_DATA = 2
EXIT_SOLVER = 3


class _UsageError(Exception):
    pass


class _Parser(argparse.ArgumentParser):
    # argparse exits with code 2 on bad arguments; usage errors are 1 here
    def error(self, message):
        raise _UsageError(message)


def _fmt(value) -> str:
    """Shortest round-trip text for floats; stable across runs."""
    if isinstance(value, float):
        return repr(value)
    return str(value)


def _build_parser() -> _Parser:
    parser = _Parser(prog="ccopf", description=__doc__.splitlines()[0])
    sub = parser.add_subparsers(dest="command", required=True)

    run = sub.add_parser("run", help="run dispatch experiments on a case")
    run.add_argument("--case", required=True, help="case file path or bundled name")
    run.add_argument(
        "--method",
        action="append",
        default=None,
        help=f"one of {', '.join(METHODS)}; repeat or comma-separate for several",
    )
    run.add_argument("--eta", type=float, default=0.05, help="violation level")
    run.add_argument(
        "--scenarios",
        default="auto",
        help="scenario count, or 'auto' for the certified bound",
    )
    run.add_argument("--reps", type=int, default=50, help="independent repetitions")
    run.add_argument("--seed", type=int, default=0, help="base seed")
    run.add_argument(
        "--sigma", type=float, default=0.07, help="relative injection fluctuation"
    )
    run.add_argument(
        "--ntest", type=int, default=1000, help="out-of-sample deviations per repetition"
    )
    run.add_argument(
        "--delta", type=float, default=0.01, help="confidence for 'auto' counts"
    )
    run.add_argument(
        "--jobs", type=int, default=1,
        help="worker processes (at most --reps and the usable cores)",
    )
    run.add_argument("--out", default=None, help="JSON report path; CSVs written beside it")

    ns = sub.add_parser("nsamples", help="print certified scenario counts")
    ns.add_argument("--eta", type=float, required=True, help="violation level")
    ns.add_argument("--delta", type=float, required=True, help="confidence")
    ns.add_argument("--d", type=int, required=True, help="decision dimension")
    ns.add_argument("--pi", type=float, default=None, help="covered probability mass")
    ns.add_argument("--M", type=float, default=None, help="likelihood ratio bound")

    sweep = sub.add_parser("sweep1d", help="sample count versus hard offset, 1-D problem")
    sweep.add_argument("--a", type=float, default=0.0, help="row offset")
    sweep.add_argument("--eta", type=float, default=0.05, help="violation level")
    sweep.add_argument("--delta", type=float, default=0.01, help="confidence")
    sweep.add_argument("--grid", type=int, default=9, help="number of offsets")
    sweep.add_argument("--reps", type=int, default=200, help="repetitions per offset")
    sweep.add_argument("--seed", type=int, default=0, help="base seed")
    sweep.add_argument("--out", default=None, help="CSV path; stdout when omitted")

    val = sub.add_parser("validate", help="quick numerical self-checks")
    val.add_argument("--seed", type=int, default=0, help="base seed")
    return parser


def main(argv: list[str] | None = None) -> int:
    parser = _build_parser()
    try:
        args = parser.parse_args(argv)
    except _UsageError as exc:
        print(f"ccopf: error: {exc}", file=sys.stderr)
        return EXIT_USAGE
    except SystemExit as exc:  # --help and friends
        return int(exc.code or 0)

    if hasattr(args, "seed") and args.seed < 0:  # NumPy's generators take no negative seed
        print(f"ccopf: error: --seed must be non-negative, got {args.seed}", file=sys.stderr)
        return EXIT_USAGE

    try:
        if args.command == "run":
            return _cmd_run(args)
        if args.command == "nsamples":
            return _cmd_nsamples(args)
        if args.command == "sweep1d":
            return _cmd_sweep(args)
        return _cmd_validate(args)
    except _UsageError as exc:
        print(f"ccopf: error: {exc}", file=sys.stderr)
        return EXIT_USAGE
    except (FileNotFoundError, CaseError) as exc:
        # before ValueError: CaseError subclasses it but is a data problem
        print(f"ccopf: error: {exc}", file=sys.stderr)
        return EXIT_DATA
    except (ValueError, OSError) as exc:
        # after FileNotFoundError: an OSError left here is a failed write
        print(f"ccopf: error: {exc}", file=sys.stderr)
        return EXIT_USAGE
    except SolverError as exc:
        print(f"ccopf: error: {exc}", file=sys.stderr)
        return EXIT_SOLVER


# ---------------------------------------------------------------------------
# run

def _parse_methods(raw: list[str] | None) -> tuple[str, ...]:
    if not raw:
        return ("sa-is",)
    methods: list[str] = []
    for item in raw:
        methods.extend(part.strip() for part in item.split(",") if part.strip())
    return tuple(methods)


def _parse_scenarios(raw: str) -> int | str:
    if raw == "auto":
        return "auto"
    try:
        return int(raw)
    except ValueError:
        raise _UsageError(f"--scenarios must be an integer or 'auto', got {raw!r}") from None


def _cmd_run(args) -> int:
    config = ExperimentConfig(
        case=args.case,
        methods=_parse_methods(args.method),
        eta=args.eta,
        scenarios=_parse_scenarios(args.scenarios),
        reps=args.reps,
        sigma_frac=args.sigma,
        seed=args.seed,
        n_test=args.ntest,
        delta=args.delta,
        jobs=args.jobs,
    )
    if args.out is not None:
        # fail before the experiment, not when its report is written
        paths = _report_paths(Path(args.out), config.methods)
        if len(set(paths)) < len(paths):
            raise _UsageError(f"--out {args.out} would put the JSON and CSV reports at one path")
        for path in paths:
            if path.is_dir():
                raise _UsageError(f"report target {path} is a directory")
    # the case is loaded and prepared once; counts and K, S come from its mixture
    problem = prepare_experiment(config)
    mix = problem.mixture
    # every count is resolved, and refused if out of range, before the first line
    counts = {m: resolve_scenario_count(config, problem.case, m, problem) for m in config.methods}
    for method, n in counts.items():
        law = METHODS[method]
        if config.scenarios != "auto" or law.factor is None:
            origin = "fixed"
        elif not law.mixture:
            origin = "closed-form bound"
        else:
            k, s = (0, 0.0) if mix is None else (mix.n_components, mix.tail_mass)
            origin = f"exact binomial bound at eta/S; K={k} stochastic rows, tail mass S={s:.3g}"
        print(f"{method}: {n} scenarios ({origin})")

    report = run_experiment(config, problem)

    for method, entry in report.summary().items():
        if entry.get("optimal", 0):
            print(
                f"{method}: {entry['optimal']}/{entry['reps']} optimal, "
                f"mean cost {entry['mean_objective']:.2f} $/h, "
                f"mean confidence {entry['mean_confidence']:.4f}"
            )
        else:
            print(f"{method}: 0/{entry['reps']} optimal")

    if args.out is not None:
        _write_report(report, Path(args.out))
    return EXIT_OK


def _report_paths(out: Path, methods: tuple[str, ...]) -> list[Path]:
    """JSON report, per-repetition CSV and, for several methods, summary CSV."""
    paths = [out, out.with_suffix(".csv")]
    if len(methods) > 1:
        paths.append(out.with_name(out.stem + "_summary.csv"))
    return paths


def _write_report(report: ExperimentReport, out: Path):
    columns = [f.name for f in dataclasses.fields(RepetitionRecord)]
    summary = report.summary()
    summary_columns = ["method", "n_scenarios", "optimal", "reps", "mean_objective",
                       "min_objective", "max_objective", "mean_confidence",
                       "min_confidence"]
    texts = [
        json.dumps(report.to_dict(), indent=2, sort_keys=True) + "\n",
        _csv_text(columns, ([getattr(r, c) for c in columns] for r in report.records)),
        _csv_text(
            summary_columns,
            ([method] + [summary[method].get(c, math.nan) for c in summary_columns[1:]]
             for method in report.config.methods),
        ),
    ]
    # _report_paths leaves the summary out for a single method
    _write_files(zip(_report_paths(out, report.config.methods), texts))
    print(f"report written to {out}")


def _csv_text(header: list[str], rows: Iterable[list]) -> str:
    """CSV text of a header and rows, every cell through _fmt."""
    buf = io.StringIO()
    writer = csv.writer(buf, lineterminator="\n")
    writer.writerow(header)
    writer.writerows([_fmt(cell) for cell in row] for row in rows)
    return buf.getvalue()


def _write_files(files: Iterable[tuple[Path, str]]) -> None:
    """Write (path, text) pairs all or nothing.

    Each text goes to a temporary sibling of its path first; the
    temporaries are renamed into place only after every write succeeded,
    and removed if any failed. A temporary's name carries random bits
    besides the pid, so one left behind by a killed run, maybe by a
    process with the same pid, blocks no later write.
    """
    staged: list[tuple[Path, Path]] = []
    try:
        for path, text in files:
            path.parent.mkdir(parents=True, exist_ok=True)
            tmp = path.with_name(f".{path.name}.{os.getpid()}.{os.urandom(4).hex()}.tmp")
            with open(tmp, "x", encoding="utf-8", newline="") as fh:
                staged.append((tmp, path))
                fh.write(text)
        for tmp, path in staged:
            os.replace(tmp, path)
    except BaseException:
        for tmp, _ in staged:
            tmp.unlink(missing_ok=True)
        raise


# ---------------------------------------------------------------------------
# nsamples / sweep1d / validate

def _cmd_nsamples(args) -> int:
    # every count is computed before the first is printed, so a refused
    # argument leaves stdout empty
    if args.M is not None and args.pi is None:
        raise _UsageError("--M requires --pi")
    lines = [f"classical: {sample_size_cc(args.eta, args.delta, args.d)}"]
    if args.pi is not None:
        lines.append(f"filtered: {sample_size_filtered(args.eta, args.delta, args.d, args.pi)}")
    if args.M is not None:
        lines.append(
            f"importance: {sample_size_is(args.eta, args.delta, args.d, args.pi, args.M)}"
        )
    print("\n".join(lines))
    return EXIT_OK


def _cmd_sweep(args) -> int:
    try:
        rows = sweep_1d(args.a, args.eta, args.delta, args.grid, args.reps, args.seed)
    except CountOverflowError:
        # the counts grow as eta falls; at eta in (0, 0.5] no other argument overflows them
        raise _UsageError(
            f"--eta {args.eta:g} is too small: the certified scenario count overflows a float"
        ) from None
    text = _csv_text(["hard_offset", "feasibility_rate", "n_scenarios"], rows)
    if args.out is None:
        sys.stdout.write(text)
    else:
        path = Path(args.out)
        _write_files([(path, text)])
        print(f"sweep written to {path}")
    return EXIT_OK


def _cmd_validate(args) -> int:
    checks: list[tuple[str, bool]] = []

    grid = np.array([1e-9, 1e-6, 1e-3, 0.01, 0.05, 0.1, 0.25, 0.5])
    roundtrip = float(np.max(np.abs(norm_sf(norm_isf(grid)) - grid) / grid))
    checks.append((f"quantile round-trip (max rel err {roundtrip:.2e})", roundtrip < 1e-10))

    conservative = True
    for k in range(20):
        x_hat, _gap = solve_1d_synthetic(0.0, 0.05, "sa-is", 50, args.seed + k)
        conservative &= x_hat <= -float(norm_isf(0.05)) + 1e-9
    checks.append(("1-D tightened runs stay conservative", conservative))

    x_hat, gap = solve_1d_synthetic(0.0, 0.05, "sa-is", 0, args.seed)
    checks.append((f"1-D margin-only gap is zero (gap {gap:.2e})", abs(gap) < 1e-12))

    print(f"kernel backend: {BACKEND}")
    ok = True
    for label, passed in checks:
        print(f"{'PASS' if passed else 'FAIL'}: {label}")
        ok &= passed
    return EXIT_OK if ok else EXIT_USAGE


if __name__ == "__main__":
    sys.exit(main())
