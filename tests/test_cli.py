"""End-to-end command line behaviour, including exit codes and artifacts."""
from __future__ import annotations

import csv
import json
import math
import os
import subprocess
import sys

import numpy as np
import pytest

from ccopf import ExperimentReport
from ccopf.cli import _csv_text, main
from ccopf.scenario import sample_size_cc, sample_size_filtered, sample_size_is
from conftest import TRIANGLE_TEXT


@pytest.fixture()
def tri_path(tmp_path):
    path = tmp_path / "tri.m"
    path.write_text(TRIANGLE_TEXT)
    return str(path)


def run_cli(args, capsys):
    code = main(args)
    captured = capsys.readouterr()
    return code, captured.out, captured.err


# ---------------------------------------------------------------------------
# usage and exit codes

def test_csv_cells_are_written_as_their_shortest_text():
    # csv writes str() of a cell, the shortest round-trip text of any float
    assert _csv_text(["a", "b", "c", "d"], [[np.float64(0.1), 0.1, math.nan, -0.0]]) == (
        "a,b,c,d\n0.1,0.1,nan,-0.0\n"
    )


def test_no_arguments_is_usage_error(capsys):
    code, _, err = run_cli([], capsys)
    assert code == 1
    assert "error" in err


def test_help_exits_zero(capsys):
    assert run_cli(["--help"], capsys)[0] == 0
    assert run_cli(["run", "--help"], capsys)[0] == 0


def test_unknown_flag_is_usage_error(capsys):
    code, _, err = run_cli(["nsamples", "--eta", "0.05", "--delta", "0.01", "--d", "1", "--nope"], capsys)
    assert code == 1


def test_missing_case_is_data_error(capsys):
    code, _, err = run_cli(["run", "--case", "case_none", "--reps", "1"], capsys)
    assert code == 2
    assert "neither on disk" in err


def test_malformed_case_is_data_error(tmp_path, capsys):
    bad = tmp_path / "bad.m"
    bad.write_text("function mpc = bad\nmpc.baseMVA = 100;\n")
    code, _, err = run_cli(["run", "--case", str(bad), "--reps", "1"], capsys)
    assert code == 2
    assert "missing mpc.bus" in err


def run_child(args):
    # a child process, so an escaping exception shows as a traceback
    env = dict(os.environ, PYTHONPATH=os.pathsep.join(sys.path))
    return subprocess.run(
        [sys.executable, "-m", "ccopf", *args], env=env, capture_output=True, text=True
    )


def test_unreadable_case_is_data_error(tmp_path):
    latin1 = tmp_path / "latin1.m"
    latin1.write_bytes(TRIANGLE_TEXT.replace("triangle", "tri\xe4ngle").encode("latin-1"))
    for case, message in ((tmp_path, "Is a directory"), (latin1, "not UTF-8 text")):
        proc = run_child(["run", "--case", str(case), "--reps", "1"])
        assert proc.returncode == 2
        assert message in proc.stderr and str(case) in proc.stderr
        assert "Traceback" not in proc.stdout + proc.stderr


def test_unwritable_output_is_one_error_line(tri_path, tmp_path):
    run = ["run", "--case", tri_path, "--scenarios", "5", "--reps", "1", "--ntest", "10"]
    for args in (
        run + ["--out", str(tmp_path)],
        run + ["--out", f"{tri_path}/report.json"],  # parent is a file
        ["sweep1d", "--grid", "3", "--reps", "2", "--out", str(tmp_path)],
    ):
        proc = run_child(args)
        assert proc.returncode == 1
        assert "Traceback" not in proc.stdout + proc.stderr
        errors = [line for line in proc.stderr.splitlines() if line.startswith("ccopf: error:")]
        assert len(errors) == 1
    # a directory given to run --out stops it before the experiment
    assert run_child(run + ["--out", str(tmp_path)]).stdout == ""


NSAMPLES = ["nsamples", "--eta", "0.05", "--delta", "0.01", "--d", "5"]


@pytest.mark.parametrize(
    "args, message",
    [
        # sigma**2 overflows to inf: refused by name, not run with no uncertainty
        (["run", "--case", "case30", "--method", "dc-opf,sa,sa-is", "--sigma", "1e155",
          "--reps", "2"], "sigma_frac 1e+155"),
        # the certified sa count (about 6.9e302) exceeds the index range
        (["run", "--case", "case30", "--method", "sa", "--eta", "1e-300", "--reps", "1"],
         "index range"),
        (["run", "--case", "case30", "--method", "sa", "--scenarios", "1" + "0" * 26,
          "--reps", "1"], "index range"),
        # every count is resolved before the first is printed
        (["run", "--case", "case30", "--method", "dc-opf,sa-is", "--scenarios", "1" + "0" * 26,
          "--reps", "1"], "sa-is: scenario count exceeds the index range"),
        # the check's draw count exceeds the index range: refused before the solve
        (["run", "--case", "case30", "--method", "sa", "--scenarios", "10", "--reps", "1",
          "--ntest", "1" + "0" * 19], "n_test"),
        # floats near a are spaced beyond the sweep's feasibility slack
        (["sweep1d", "--a", "1e308", "--grid", "3", "--reps", "2"], "row offset a"),
        # a subnormal eta: the last offset's certified count exceeds any float
        (["sweep1d", "--eta", "1e-310", "--grid", "3", "--reps", "2"],
         "--eta 1e-310 is too small: the certified scenario count overflows a float"),
        # nsamples computes every count before it prints the first
        (NSAMPLES + ["--pi", "0.9", "--M", "inf"], "likelihood ratio bound"),
        (NSAMPLES + ["--pi", "0.9", "--M", "0.5"], "likelihood ratio bound"),
        (NSAMPLES + ["--pi", "1.5"], "covered mass pi"),
        (NSAMPLES + ["--M", "2"], "--M requires --pi"),
    ],
    ids=["sigma-overflow", "sa-count-overflow", "fixed-count-overflow",
         "sa-is-fixed-count-overflow", "ntest-overflow", "sweep-large-a", "sweep-tiny-eta",
         "nsamples-m-inf", "nsamples-m-below-one", "nsamples-pi-above-one", "nsamples-m-without-pi"],
)
def test_out_of_range_arguments_are_one_error_line(tmp_path, args, message):
    out = [] if args[0] == "nsamples" else ["--out", str(tmp_path / "r.json")]
    proc = run_child(args + out)
    assert proc.returncode == 1
    assert "Traceback" not in proc.stdout + proc.stderr
    assert "RuntimeWarning" not in proc.stderr
    errors = [line for line in proc.stderr.splitlines() if line.startswith("ccopf: error:")]
    assert len(errors) == 1 and message in errors[0]
    assert proc.stdout == ""


def test_allocation_failure_is_one_error_line(monkeypatch, capsys):
    # a sweep1d grid of 1e11 offsets asks NumPy for 745 GiB; raised here
    # rather than allocated, since an overcommitting host may kill the process
    import ccopf.cli

    def sweep_1d(*args):
        raise MemoryError("Unable to allocate 745. GiB for an array")

    monkeypatch.setattr(ccopf.cli, "sweep_1d", sweep_1d)
    code, out, err = run_cli(["sweep1d", "--grid", "100000000000", "--reps", "1"], capsys)
    assert code == 1
    assert out == ""
    assert err == "ccopf: error: Unable to allocate 745. GiB for an array\n"


@pytest.mark.parametrize("target", ["r.csv", "r_summary.csv"])
def test_directory_at_a_csv_target_stops_the_run(tri_path, tmp_path, target):
    (tmp_path / "fw" / target).mkdir(parents=True)
    proc = run_child(["run", "--case", tri_path, "--reps", "2", "--scenarios", "10",
                      "--method", "sa,sa-is", "--out", str(tmp_path / "fw" / "r.json")])
    assert proc.returncode == 1
    assert "Traceback" not in proc.stdout + proc.stderr
    errors = [line for line in proc.stderr.splitlines() if line.startswith("ccopf: error:")]
    assert len(errors) == 1 and target in errors[0]
    assert proc.stdout == ""
    assert sorted(p.name for p in (tmp_path / "fw").iterdir()) == [target]


def test_csv_out_is_refused_before_the_run(tri_path, tmp_path):
    # r.csv would be both the JSON report and the per-repetition CSV
    proc = run_child(["run", "--case", tri_path, "--method", "dc-opf,sa", "--scenarios", "10",
                      "--reps", "1", "--ntest", "10", "--out", str(tmp_path / "r.csv")])
    assert proc.returncode == 1
    assert "Traceback" not in proc.stdout + proc.stderr
    errors = [line for line in proc.stderr.splitlines() if line.startswith("ccopf: error:")]
    assert len(errors) == 1 and "r.csv" in errors[0]
    assert proc.stdout == ""
    assert list(tmp_path.iterdir()) == [tmp_path / "tri.m"]


def test_report_directory_does_not_shadow_the_bundled_case(tmp_path, monkeypatch, capsys):
    monkeypatch.chdir(tmp_path)
    args = ["run", "--case", "case30", "--method", "dc-opf", "--reps", "1", "--ntest", "10",
            "--out", "case30/report.json"]
    for _ in range(2):
        code, out, _ = run_cli(args, capsys)
        assert code == 0
        assert "dc-opf: 1/1 optimal" in out
    assert (tmp_path / "case30" / "report.json").is_file()


def test_non_finite_load_is_data_error(tmp_path, capsys):
    bad = tmp_path / "nan_load.m"
    bad.write_text(TRIANGLE_TEXT.replace("\t3\t1\t80;", "\t3\t1\tNaN;"))
    code, out, err = run_cli(["run", "--case", str(bad), "--method", "dc-opf", "--reps", "1"],
                             capsys)
    assert code == 2
    assert "non-finite load" in err and out == ""


def test_slack_without_generator_is_data_error(tmp_path, capsys):
    # bus 3 becomes the slack bus, and no generator sits on it
    bad = tmp_path / "no_slack_gen.m"
    bad.write_text(
        TRIANGLE_TEXT.replace("\t1\t3\t0;", "\t1\t2\t0;").replace("\t3\t1\t80;", "\t3\t3\t80;")
    )
    code, out, err = run_cli(["run", "--case", str(bad), "--reps", "1"], capsys)
    assert code == 2
    errors = [line for line in err.splitlines() if line.startswith("ccopf: error:")]
    assert len(errors) == 1 and "slack bus 3 carries no generator" in errors[0]
    assert out == ""


def test_failed_report_write_leaves_no_file(tri_path, tmp_path, capsys, monkeypatch):
    import ccopf.cli

    opened = []

    def open_then_fail(path, *args, **kwargs):
        # the JSON report is written, the CSV after it fails
        opened.append(path)
        if len(opened) > 1:
            raise OSError(28, "No space left on device")
        return open(path, *args, **kwargs)

    monkeypatch.setattr(ccopf.cli, "open", open_then_fail, raising=False)
    out_dir = tmp_path / "fw"
    code, _, err = run_cli(
        ["run", "--case", tri_path, "--reps", "2", "--scenarios", "10",
         "--method", "sa,sa-is", "--out", str(out_dir / "r.json")],
        capsys,
    )
    assert code == 1
    assert len(opened) == 2
    assert err.count("ccopf: error:") == 1
    assert list(out_dir.iterdir()) == []


def test_stale_staged_file_blocks_no_report(tri_path, tmp_path, capsys):
    # a killed run leaves its staged file behind; a later process with the
    # same pid (pid 1 in a container, say) must still write its report
    out_dir = tmp_path / "r"
    out_dir.mkdir()
    stale = out_dir / f".r.json.{os.getpid()}.tmp"
    stale.write_text("stale")
    code, _, err = run_cli(
        ["run", "--case", tri_path, "--reps", "1", "--scenarios", "10",
         "--method", "sa", "--out", str(out_dir / "r.json")],
        capsys,
    )
    assert code == 0, err
    assert json.loads((out_dir / "r.json").read_text())["records"]
    umask = os.umask(0)
    os.umask(umask)
    assert (out_dir / "r.json").stat().st_mode & 0o777 == 0o666 & ~umask
    assert stale.read_text() == "stale"
    assert sorted(p.name for p in out_dir.iterdir() if p.name.endswith(".tmp")) == [stale.name]


def test_bad_method_is_usage_error(tri_path, capsys):
    code, _, err = run_cli(["run", "--case", tri_path, "--method", "bootstrap"], capsys)
    assert code == 1
    assert "unknown methods" in err


def test_repeated_method_is_usage_error(tri_path, capsys):
    code, out, err = run_cli(
        ["run", "--case", tri_path, "--method", "sa,sa", "--reps", "3"], capsys
    )
    assert code == 1
    assert "given more than once" in err
    assert out == ""


def test_bad_scenarios_is_usage_error(tri_path, capsys):
    code, _, err = run_cli(["run", "--case", tri_path, "--scenarios", "many"], capsys)
    assert code == 1
    assert "--scenarios" in err


# ---------------------------------------------------------------------------
# run

def test_run_prints_counts_and_summary(tri_path, capsys):
    code, out, _ = run_cli(
        ["run", "--case", tri_path, "--method", "dc-opf,sa-is", "--scenarios", "10",
         "--reps", "2", "--ntest", "200"],
        capsys,
    )
    assert code == 0
    lines = out.splitlines()
    assert lines[0] == "dc-opf: 0 scenarios (fixed)"
    assert lines[1] == "sa-is: 10 scenarios (fixed)"
    assert any(line.startswith("dc-opf: 2/2 optimal") for line in lines)
    assert any(line.startswith("sa-is: 2/2 optimal") for line in lines)


def test_run_auto_counts_labelled_certified(tri_path, capsys):
    code, out, _ = run_cli(
        ["run", "--case", tri_path, "--method", "sa", "--reps", "1", "--ntest", "100"],
        capsys,
    )
    assert code == 0
    want = sample_size_cc(0.05, 0.01, 1)
    assert f"sa: {want} scenarios (closed-form bound)" in out


def test_run_auto_sa_is_count_names_its_basis(capsys):
    code, out, _ = run_cli(
        ["run", "--case", "case30", "--method", "sa-is", "--reps", "1", "--ntest", "100"],
        capsys,
    )
    assert code == 0
    assert out.splitlines()[0] == (
        "sa-is: 1064 scenarios "
        "(exact binomial bound at eta/S; K=92 stochastic rows, tail mass S=4.6)"
    )


@pytest.mark.parametrize("module", ["ccopf", "ccopf.cli"])
def test_python_m_runs_the_cli(module, tri_path):
    # the child imports ccopf from wherever this process found it
    env = dict(os.environ, PYTHONPATH=os.pathsep.join(sys.path))
    proc = subprocess.run(
        [sys.executable, "-m", module, "run", "--case", tri_path, "--method", "dc-opf,sa",
         "--scenarios", "10", "--reps", "2", "--ntest", "100"],
        env=env, capture_output=True, text=True,
    )
    assert proc.returncode == 0, proc.stderr
    lines = proc.stdout.splitlines()
    assert lines[:2] == ["dc-opf: 0 scenarios (fixed)", "sa: 10 scenarios (fixed)"]
    assert lines[2].startswith("dc-opf: 2/2 optimal")
    bad = subprocess.run([sys.executable, "-m", module, "run"], env=env, capture_output=True)
    assert bad.returncode == 1


def test_run_writes_report_files(tri_path, tmp_path, capsys, monkeypatch):
    out_path = tmp_path / "reports" / "exp.json"
    # the printout and the summary CSV share one summary
    summaries = []
    summary = ExperimentReport.summary
    monkeypatch.setattr(ExperimentReport, "summary",
                        lambda self: summaries.append(self) or summary(self))
    code, out, _ = run_cli(
        ["run", "--case", tri_path, "--method", "dc-opf,sa", "--scenarios", "5",
         "--reps", "2", "--ntest", "100", "--out", str(out_path)],
        capsys,
    )
    assert code == 0
    assert len(summaries) == 1
    assert f"report written to {out_path}" in out

    report = ExperimentReport.from_dict(json.loads(out_path.read_text()))
    assert report.case_name == "tri"
    assert len(report.records) == 4

    with open(out_path.with_suffix(".csv")) as fh:
        rows = list(csv.reader(fh))
    assert rows[0] == ["method", "rep", "seed", "n_scenarios", "status", "objective",
                       "confidence", "conf_stderr"]
    assert len(rows) == 5

    summary_path = out_path.with_name("exp_summary.csv")
    with open(summary_path) as fh:
        srows = list(csv.reader(fh))
    assert srows[0][0] == "method"
    assert [r[0] for r in srows[1:]] == ["dc-opf", "sa"]


def test_single_method_run_skips_summary_csv(tri_path, tmp_path, capsys):
    out_path = tmp_path / "solo.json"
    code, *_ = run_cli(
        ["run", "--case", tri_path, "--scenarios", "5", "--reps", "1",
         "--ntest", "50", "--out", str(out_path)],
        capsys,
    )
    assert code == 0
    assert out_path.exists()
    assert out_path.with_suffix(".csv").exists()
    assert not out_path.with_name("solo_summary.csv").exists()


def test_report_bytes_stable_across_runs(tri_path, tmp_path, capsys):
    args = ["run", "--case", tri_path, "--method", "sa,sa-is", "--scenarios", "15",
            "--reps", "2", "--ntest", "100", "--seed", "3"]
    first = tmp_path / "a" / "r.json"
    second = tmp_path / "b" / "r.json"
    assert run_cli(args + ["--out", str(first)], capsys)[0] == 0
    assert run_cli(args + ["--out", str(second)], capsys)[0] == 0
    assert first.read_bytes() == second.read_bytes()
    assert first.with_suffix(".csv").read_bytes() == second.with_suffix(".csv").read_bytes()
    assert (
        first.with_name("r_summary.csv").read_bytes()
        == second.with_name("r_summary.csv").read_bytes()
    )


def test_infeasible_case_reports_zero_optimal(tmp_path, capsys):
    heavy = tmp_path / "heavy.m"
    heavy.write_text(TRIANGLE_TEXT.replace("\t3\t1\t80;", "\t3\t1\t200;"))
    code, out, _ = run_cli(
        ["run", "--case", str(heavy), "--method", "dc-opf", "--reps", "1",
         "--ntest", "10"],
        capsys,
    )
    assert code == 0
    assert "dc-opf: 0/1 optimal" in out


# ---------------------------------------------------------------------------
# nsamples

def test_nsamples_classical_only(capsys):
    code, out, _ = run_cli(["nsamples", "--eta", "0.05", "--delta", "0.01", "--d", "5"], capsys)
    assert code == 0
    assert out == "classical: 932\n"


def test_nsamples_with_pi_and_m(capsys):
    code, out, _ = run_cli(
        ["nsamples", "--eta", "0.05", "--delta", "0.01", "--d", "5",
         "--pi", "0.9", "--M", "10"],
        capsys,
    )
    assert code == 0
    lines = out.splitlines()
    assert lines[0] == "classical: 932"
    assert lines[1] == f"filtered: {sample_size_filtered(0.05, 0.01, 5, 0.9)}"
    assert lines[2] == f"importance: {sample_size_is(0.05, 0.01, 5, 0.9, 10.0)}"


def test_nsamples_m_requires_pi(capsys):
    code, _, err = run_cli(
        ["nsamples", "--eta", "0.05", "--delta", "0.01", "--d", "5", "--M", "10"], capsys
    )
    assert code == 1
    assert "--M requires --pi" in err


def test_nsamples_invalid_eta(capsys):
    code, _, err = run_cli(["nsamples", "--eta", "0", "--delta", "0.01", "--d", "5"], capsys)
    assert code == 1


def test_nsamples_rejects_non_finite_ratio_bound(capsys):
    for value in ("inf", "nan"):
        code, _, err = run_cli(
            ["nsamples", "--eta", "0.05", "--delta", "0.01", "--d", "5",
             "--pi", "0.5", "--M", value],
            capsys,
        )
        assert code == 1
        assert f"likelihood ratio bound must be finite and at least 1, got {value}" in err


# ---------------------------------------------------------------------------
# sweep1d

def test_sweep_to_stdout(capsys):
    code, out, _ = run_cli(
        ["sweep1d", "--a", "2.0", "--eta", "0.05", "--delta", "0.01",
         "--grid", "5", "--reps", "10", "--seed", "123"],
        capsys,
    )
    assert code == 0
    lines = out.splitlines()
    assert lines[0] == "hard_offset,feasibility_rate,n_scenarios"
    assert len(lines) == 6
    assert [int(line.split(",")[2]) for line in lines[1:]] == [1, 8, 17, 29, 44]


def test_sweep_at_tiny_eta(capsys):
    code, out, err = run_cli(["sweep1d", "--eta", "1e-17", "--grid", "2", "--reps", "1"], capsys)
    assert code == 0
    assert "covered mass pi" not in err
    assert out.splitlines()[-1] == "0.0,1.0,230258509299404561"


def test_sweep_to_file(tmp_path, capsys):
    out_path = tmp_path / "sweep.csv"
    code, out, _ = run_cli(
        ["sweep1d", "--grid", "3", "--reps", "5", "--out", str(out_path)], capsys
    )
    assert code == 0
    assert f"sweep written to {out_path}" in out
    with open(out_path) as fh:
        rows = list(csv.reader(fh))
    assert rows[0] == ["hard_offset", "feasibility_rate", "n_scenarios"]
    assert len(rows) == 4


@pytest.mark.parametrize(
    "argv",
    [
        ["run", "--case", "case30", "--scenarios", "10", "--method", "dc-opf,sa"],
        ["sweep1d", "--grid", "3", "--reps", "2"],
        ["validate"],
    ],
    ids=["flag-run", "flag-sweep1d", "flag-validate"],
)
def test_negative_seed_is_refused_before_any_work(capsys, argv):
    code, out, err = run_cli(argv + ["--seed", "-1"], capsys)
    assert code == 1
    assert out == ""
    assert err == "ccopf: error: --seed must be non-negative, got -1\n"


# ---------------------------------------------------------------------------
# validate

def test_validate_passes(capsys):
    code, out, _ = run_cli(["validate"], capsys)
    assert code == 0
    assert "kernel backend:" in out
    assert out.count("PASS") == 3
    assert "FAIL" not in out
