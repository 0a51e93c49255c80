"""Correctness gate on the reports a workload pass writes.

Every check reads the files ``ccopf run --out`` wrote, as a user would.
A check returns a list of failure messages; an empty list means the
pass is correct.
"""
from __future__ import annotations

import csv
import hashlib
import json
import math
from pathlib import Path

from workloads import CASES, METHODS, REPORT_FILES, Workload

STATUSES = ("optimal", "infeasible", "unbounded", "solver-error")

# Acceptance criterion 6: the bundled 57-bus case's dc-opf cost, held to 5%.
CASE57_DC_COST = 25016.0


def report_hashes(out: Path) -> dict[str, str]:
    """SHA-256 of every report file of every case, keyed by relative path."""
    hashes = {}
    for case in CASES:
        for name in REPORT_FILES:
            path = out / case / name
            hashes[f"{case}/{name}"] = (
                hashlib.sha256(path.read_bytes()).hexdigest() if path.exists() else "missing"
            )
    return hashes


def _mean(values: list[float]) -> float:
    return sum(values) / len(values) if values else math.nan


def check_case(wl: Workload, seed: int, case: str, out: Path, n_generators: int) -> list[str]:
    """Check one case's report.json and CSVs against the workload's request."""
    from ccopf.scenario import sample_size_cc

    where = f"{wl.name}/{case}"
    path = out / case / "report.json"
    if not path.exists():
        return [f"{where}: no report written"]
    try:
        report = json.loads(path.read_text(encoding="utf-8"))
        cfg, resolved, records = report["config"], report["resolved"], report["records"]
    except (ValueError, KeyError) as exc:
        return [f"{where}: unreadable report ({exc!r})"]

    fails: list[str] = []
    expected_cfg = {
        "case": case, "methods": list(METHODS), "eta": wl.eta, "reps": wl.reps,
        "seed": seed, "n_test": wl.n_test,
        "scenarios": wl.scenarios if wl.scenarios == "auto" else int(wl.scenarios),
    }
    for key, want in expected_cfg.items():
        if cfg.get(key) != want:
            fails.append(f"{where}: config {key} = {cfg.get(key)!r}, requested {want!r}")

    # scenario counts: fixed counts pass through, sa's 'auto' count is the
    # classical bound for d = generators - 1 (the slack generator is residual)
    want_counts = {"dc-opf": 0}
    if wl.scenarios == "auto":
        d = max(1, n_generators - 1)
        want_counts["sa"] = sample_size_cc(wl.eta, cfg.get("delta", 0.01), d)
    else:
        want_counts["sa"] = want_counts["sa-is"] = int(wl.scenarios)
    for method, want in want_counts.items():
        if resolved.get(method) != want:
            fails.append(f"{where}: {method} resolved {resolved.get(method)}, expected {want}")
    if not isinstance(resolved.get("sa-is"), int) or resolved["sa-is"] < 1:
        fails.append(f"{where}: sa-is resolved {resolved.get('sa-is')!r}")

    keys = [(r.get("method"), r.get("rep")) for r in records]
    if keys != [(m, k) for m in METHODS for k in range(wl.reps)]:
        fails.append(f"{where}: records are not reps x methods in order")
        return fails
    for r in records:
        tag = f"{where}: {r['method']} rep {r['rep']}"
        if r["status"] not in STATUSES:
            fails.append(f"{tag}: unknown status {r['status']!r}")
        if r["seed"] != seed + r["rep"]:
            fails.append(f"{tag}: seed {r['seed']}, expected {seed + r['rep']}")
        if r["n_scenarios"] != resolved.get(r["method"]):
            fails.append(f"{tag}: used {r['n_scenarios']} scenarios, resolved {resolved.get(r['method'])}")
        ok = r["status"] == "optimal"
        if ok != (r["objective"] is not None and r["confidence"] is not None):
            fails.append(f"{tag}: status {r['status']} with objective {r['objective']}")

    by_method = {m: [r for r in records if r["method"] == m] for m in METHODS}
    optimal = {m: [r for r in recs if r["status"] == "optimal"] for m, recs in by_method.items()}
    coverage = {m: _mean([r["confidence"] for r in optimal[m]]) for m in METHODS}

    if optimal["sa-is"] and not coverage["sa-is"] >= 1.0 - wl.eta:
        fails.append(f"{where}: sa-is mean coverage {coverage['sa-is']:.4f} below 1 - eta")

    if wl.criterion6:
        if any(r["status"] != "optimal" for r in records):
            fails.append(f"{where}: non-optimal repetition")
        if not coverage["sa-is"] >= 0.95:
            fails.append(f"{where}: sa-is coverage {coverage['sa-is']:.4f} below 0.95")
        if not coverage["sa"] < coverage["sa-is"]:
            fails.append(f"{where}: sa coverage {coverage['sa']:.4f} not below sa-is")
        dc = {r["rep"]: r["objective"] for r in optimal["dc-opf"]}
        sais = {r["rep"]: r["objective"] for r in optimal["sa-is"]}
        if not all(k in sais and dc[k] <= sais[k] + 1e-9 for k in dc):
            fails.append(f"{where}: cost ordering dc-opf <= sa-is broken")
        if case == "case57":
            dc57 = _mean(list(dc.values()))
            if not abs(dc57 - CASE57_DC_COST) <= 0.05 * CASE57_DC_COST:
                fails.append(f"{where}: dc-opf cost {dc57:.1f} outside 5% of {CASE57_DC_COST}")

    fails += _check_csvs(where, out / case, records, optimal)
    return fails


def _check_csvs(where: str, folder: Path, records: list[dict], optimal: dict) -> list[str]:
    fails: list[str] = []
    try:
        with open(folder / "report.csv", encoding="utf-8", newline="") as fh:
            rows = list(csv.DictReader(fh))
        with open(folder / "report_summary.csv", encoding="utf-8", newline="") as fh:
            summary = {row["method"]: row for row in csv.DictReader(fh)}
    except (OSError, KeyError) as exc:
        return [f"{where}: unreadable CSV ({exc!r})"]
    got = [(row.get("method"), row.get("rep"), row.get("status")) for row in rows]
    want = [(r["method"], str(r["rep"]), r["status"]) for r in records]
    if got != want:
        fails.append(f"{where}: report.csv disagrees with report.json")
    for method in METHODS:
        row = summary.get(method)
        if row is None or row.get("optimal") != str(len(optimal[method])):
            fails.append(f"{where}: report_summary.csv {method} optimal count wrong")
    return fails


def check_pass(wl: Workload, seed: int, out: Path, generators: dict[str, int]) -> list[str]:
    """All checks for one pass, every case."""
    fails: list[str] = []
    for case in CASES:
        fails += check_case(wl, seed, case, out, generators[case])
    return fails


def repetition_outcomes(out: Path) -> tuple[int, int]:
    """(optimal repetitions, all repetitions) over the cases' readable reports."""
    good = total = 0
    for case in CASES:
        try:
            report = json.loads((out / case / "report.json").read_text(encoding="utf-8"))
            records = list(report["records"])
        except (OSError, ValueError, KeyError):
            continue  # the gate reports the missing or broken file
        total += len(records)
        good += sum(r["status"] == "optimal" for r in records)
    return good, total
