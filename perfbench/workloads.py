"""The benchmark's workloads: which `ccopf run` invocations each one makes.

Every workload runs all three methods on both bundled cases, one
`ccopf run` per case, in process through ``ccopf.cli.main`` with
``--out`` in a scratch directory. The benchmark seed becomes the
program's ``--seed``; nothing else about a workload depends on it.
"""
from __future__ import annotations

import contextlib
import io
import os
import sys
import traceback
from dataclasses import dataclass
from pathlib import Path
from time import perf_counter

CASES = ("case30", "case57")
METHODS = ("dc-opf", "sa", "sa-is")
REPORT_FILES = ("report.json", "report.csv", "report_summary.csv")


@dataclass(frozen=True)
class Workload:
    """One `ccopf run` configuration, applied to every case in CASES.

    criterion6 marks the workload on which the paper-table conditions
    (acceptance criterion 6) are checked.
    """

    name: str
    eta: float
    scenarios: str
    n_test: int
    jobs: int
    reps: int
    criterion6: bool = False

    def argv(self, case: str, seed: int, out: Path, jobs: int) -> list[str]:
        return [
            "run", "--case", case, "--method", ",".join(METHODS),
            "--eta", repr(self.eta), "--scenarios", self.scenarios,
            "--reps", str(self.reps), "--seed", str(seed),
            "--ntest", str(self.n_test), "--jobs", str(jobs),
            "--out", str(out / case / "report.json"),
        ]


# Repetition counts keep one pass (both cases) at a few seconds, so a
# run repeats it at least three times and reports the median.
WORKLOADS = {
    # Paper table protocol: fixed N, per-repetition fixed cost dominates
    # (LP, matrices and polytope rebuilt per repetition, out-of-sample check).
    "protocol-fixed": Workload("protocol-fixed", 0.05, "600", 1000, 1, 50, criterion6=True),
    # Certified counts: case30 sa-is draws ~138k mixture scenarios per
    # repetition, so draw and reduce dominate and the LP is under 2%.
    "protocol-auto": Workload("protocol-auto", 0.05, "auto", 1000, 1, 10),
    # Rare-failure regime: Gaussian draws of 85k-100k scenarios, 482k
    # mixture draws on case30, 1e5-draw out-of-sample checks, the only
    # workload through the process pool; it sets peak memory.
    "rare-eta": Workload("rare-eta", 1e-3, "auto", 100_000, 2, 2),
}


def worker_count(wl: Workload) -> int:
    """The workload's job count, never more than the usable cores."""
    return max(1, min(wl.jobs, len(os.sched_getaffinity(0))))


@dataclass
class PassResult:
    """One pass: a `ccopf run` per case, timed around ``ccopf.cli.main``."""

    wall_s: float
    exit_codes: dict[str, int]
    out: Path

    @property
    def failed(self) -> int:
        return sum(code != 0 for code in self.exit_codes.values())


def run_pass(wl: Workload, seed: int, out: Path, jobs: int) -> PassResult:
    """Run the workload once; the program's console output is discarded."""
    import ccopf.cli

    wall = 0.0
    codes: dict[str, int] = {}
    for case in CASES:
        argv = wl.argv(case, seed, out, jobs)
        with contextlib.redirect_stdout(io.StringIO()):
            start = perf_counter()
            try:
                code = ccopf.cli.main(argv)
            except Exception:
                # counted as a failed invocation; the gate then finds no report
                traceback.print_exc(file=sys.stderr)
                code = -1
            wall += perf_counter() - start
        codes[case] = code
    return PassResult(wall_s=wall, exit_codes=codes, out=out)
