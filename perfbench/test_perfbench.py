"""Tests of the benchmark's own checks: the report gate, determinism, tracing."""
from __future__ import annotations

import json
import shutil
import sys
from dataclasses import replace
from pathlib import Path

import numpy as np
import pytest

HERE = Path(__file__).resolve().parent
sys.path[:0] = [str(HERE.parent / "src"), str(HERE)]

import checks  # noqa: E402
import layers  # noqa: E402
import run  # noqa: E402
import workloads  # noqa: E402

SEED = 2024
TINY = replace(workloads.WORKLOADS["protocol-fixed"], reps=3)


@pytest.fixture(scope="module")
def tiny_pass(tmp_path_factory):
    p = workloads.run_pass(TINY, SEED, tmp_path_factory.mktemp("tiny"), 1)
    assert p.failed == 0
    return p


def _edit_json(out: Path, edit, case: str = "case30") -> None:
    path = out / case / "report.json"
    report = json.loads(path.read_text(encoding="utf-8"))
    edit(report)
    path.write_text(json.dumps(report), encoding="utf-8")


def _flip_status(out: Path) -> None:
    def edit(report):
        rec = report["records"][-1]
        rec.update(status="infeasible", objective=None, confidence=None, conf_stderr=None)
    _edit_json(out, edit)


def _wrong_count(out: Path) -> None:
    _edit_json(out, lambda r: r["resolved"].update(sa=599))


def _low_coverage(out: Path) -> None:
    def edit(report):
        for rec in report["records"]:
            if rec["method"] == "sa-is":
                rec["confidence"] = 0.5
    _edit_json(out, edit)


def _wrong_seed(out: Path) -> None:
    _edit_json(out, lambda r: r["records"][0].update(seed=0))


def _drop_csv_row(out: Path) -> None:
    path = out / "case57" / "report.csv"
    path.write_text("".join(path.read_text(encoding="utf-8").splitlines(True)[:-1]),
                    encoding="utf-8")


def _cheap_case57(out: Path) -> None:
    def edit(report):
        for rec in report["records"]:
            if rec["method"] == "dc-opf":
                rec["objective"] = 20000.0
    _edit_json(out, edit, "case57")


def test_genuine_reports_pass_the_gate(tiny_pass):
    assert checks.check_pass(TINY, SEED, tiny_pass.out, run._generators()) == []


@pytest.mark.parametrize(
    "corrupt",
    [_flip_status, _wrong_count, _low_coverage, _wrong_seed, _drop_csv_row, _cheap_case57],
)
def test_corrupted_report_fails_the_gate(tiny_pass, tmp_path, corrupt):
    out = tmp_path / "out"
    shutil.copytree(tiny_pass.out, out)
    corrupt(out)
    assert checks.check_pass(TINY, SEED, out, run._generators())


def _corrupt_later_passes(out: Path) -> None:
    # only passes after the first: the gate itself passes, determinism must not
    if out.name != "pass0":
        path = out / "case30" / "report_summary.csv"
        path.write_text(path.read_text(encoding="utf-8") + "\n", encoding="utf-8")


@pytest.mark.parametrize(
    "corrupt, code",
    [(None, 0), (_flip_status, 1), (_corrupt_later_passes, 1)],
)
def test_command_exit_code_follows_the_checks(monkeypatch, capsys, corrupt, code):
    monkeypatch.setitem(workloads.WORKLOADS, TINY.name, TINY)
    monkeypatch.setattr(run, "SETUP_SAMPLES", 1)
    real = run.run_pass

    def corrupting(wl, seed, out, jobs):
        p = real(wl, seed, out, jobs)
        if corrupt is not None:
            corrupt(out)
        return p

    monkeypatch.setattr(run, "run_pass", corrupting)
    rc = run.main(["--workload", TINY.name, "--seed", str(SEED), "--seconds", "0", "--trace", "0"])
    result = json.loads(capsys.readouterr().out.strip().splitlines()[-1])
    assert rc == code
    assert result["correct"] is (code == 0)
    assert set(result["metrics"]) == {"experiment_s", "setup_s", "peak_rss_mb", "optimal_ratio"}


def test_missing_program_exits_without_result(monkeypatch, tmp_path, capsys):
    monkeypatch.setattr(run, "SRC", tmp_path / "src")
    rc = run.main(["--workload", TINY.name, "--seed", "1", "--seconds", "1"])
    assert rc == 2
    assert capsys.readouterr().out == ""


def test_tracer_rebinds_every_import_and_restores_them():
    import ccopf.cli
    import ccopf.sampler
    import ccopf.scenario
    import ccopf.validation

    bindings = [
        (ccopf.scenario, "build_matrices"), (ccopf.validation, "build_matrices"),
        (ccopf.sampler, "norm_isf"), (ccopf.scenario, "linprog"), (ccopf.cli, "main"),
    ]
    before = [getattr(mod, name) for mod, name in bindings]
    with layers.Tracer():
        during = [getattr(mod, name) for mod, name in bindings]
    after = [getattr(mod, name) for mod, name in bindings]
    assert all(a is not b for a, b in zip(before, during))
    assert all(a is b for a, b in zip(before, after))


def test_traced_passes_repeat_counts_and_leave_reports_unchanged(tiny_pass, tmp_path):
    summaries = []
    for i in range(2):
        tracer = layers.Tracer()
        with tracer:
            p = workloads.run_pass(TINY, SEED, tmp_path / f"t{i}", 1)
        assert checks.report_hashes(p.out) == checks.report_hashes(tiny_pass.out)
        summaries.append(tracer.summary())
    assert run._count_metrics(summaries[0]) == run._count_metrics(summaries[1])
    counts = summaries[0]["calls"]
    # two resolutions per method and case: one to print, one inside the run
    assert counts["validation.resolve_scenario_count"] == 2 * 3 * 2
    assert counts["validation._run_one"] == 2 * 3 * TINY.reps


def test_self_time_subtracts_children_and_bookkeeping():
    tracer = layers.Tracer()
    tracer.spans = [
        (1, "child", 1.0, 2.0, 0, 7),
        (2, layers.BOOKKEEPING, 2.0, 2.5, 0, 7),
        (0, "validation._run_one", 0.0, 3.0, None, 7),
    ]
    s = tracer.summary()
    assert s["self_s"] == {"child": 1.0, "validation._run_one": 1.5}
    assert s["bookkeeping_s"] == 0.5
    assert s["rep_s"] == 2.5


def test_useful_scenarios_matches_full_argmax(monkeypatch):
    monkeypatch.setattr(layers, "_USEFUL_CHUNK", 7)
    rng = np.random.default_rng(0)
    scen, normals = rng.standard_normal((50, 4)), rng.standard_normal((9, 4))
    full = np.unique(np.argmax(scen @ normals.T, axis=0)).size
    assert layers.useful_scenarios(scen, normals) == full
