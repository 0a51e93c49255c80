"""What a fresh interpreter loads: SciPy only on first use, and
scipy.special never.

Each test runs its script in a new interpreter, so modules an earlier
test imported cannot hide a load.
"""
from __future__ import annotations

import os
import subprocess
import sys
import textwrap

import pytest

HEAVY = ("scipy.optimize", "scipy.sparse", "scipy.special")

PRELUDE = f"""
import sys
HEAVY = {HEAVY!r}

def loaded():
    return sorted(set(HEAVY) & set(sys.modules))

def prepared_lp():
    from ccopf import build_uncertainty, prepare_problem, scenario_offsets
    from ccopf.scenario import _with_offsets
    from ccopf.validation import load_case_ref
    case = load_case_ref("case30")
    prep = prepare_problem(case, build_uncertainty(case, 0.07), 0.05)
    offsets = scenario_offsets(prep.poly, prep.margins, prep.mixture, "sa-is", 600, 0)
    return _with_offsets(prep.lp, offsets)
"""


def run_script(body: str) -> str:
    env = dict(os.environ, PYTHONPATH=os.pathsep.join(sys.path))
    proc = subprocess.run(
        [sys.executable, "-c", PRELUDE + textwrap.dedent(body)],
        env=env, capture_output=True, text=True, timeout=120,
    )
    assert proc.returncode == 0, proc.stderr
    return proc.stdout


@pytest.mark.parametrize(
    "argv",
    [None, ["--help"], ["nsamples", "--eta", "0.05", "--delta", "0.01", "--d", "5",
                        "--pi", "0.9", "--M", "2"]],
    ids=["import", "help", "nsamples"],
)
def test_light_commands_load_no_scipy_module(argv):
    out = run_script(f"""
        from ccopf.cli import main
        argv = {argv!r}
        if argv is not None:
            assert main(argv) == 0
        print("loaded:", loaded())
    """)
    assert out.splitlines()[-1] == "loaded: []"


RUN_AUTO = ["run", "--case", "case30", "--method", "dc-opf,sa,sa-is", "--scenarios", "auto",
            "--reps", "2", "--ntest", "200"]


@pytest.mark.parametrize(
    "argv",
    [RUN_AUTO + ["--jobs", "1"], RUN_AUTO + ["--jobs", "2"], ["validate"],
     ["sweep1d", "--grid", "3", "--reps", "2"]],
    ids=["run-auto-jobs1", "run-auto-jobs2", "validate", "sweep1d"],
)
def test_kernel_commands_load_no_scipy_module(argv):
    # each evaluates margins, tail masses, quantiles and, under auto, the
    # exact binomial count, and the runs solve: the kernels are NumPy's and
    # the binding loads by file. Two usable cores, so --jobs 2 pools.
    out = run_script(f"""
        import ccopf.validation as validation
        from ccopf.cli import main
        validation._usable_cores = lambda: 2
        assert main({argv!r}) == 0
        print("loaded:", loaded())
    """)
    assert out.splitlines()[-1] == "loaded: []"


def test_solve_loads_the_binding_that_scipy_optimize_then_reuses():
    out = run_script("""
        import ccopf.scenario as scenario
        lp = prepared_lp()
        # nothing before the first solve loads the binding or binds highs
        assert not hasattr(scenario, "highs")
        assert "scipy.optimize._highspy._core" not in sys.modules
        assert scenario.solve(lp).status == "optimal"
        assert scenario.highs is sys.modules["scipy.optimize._highspy._core"]
        print("after solve:", loaded())

        import scipy.optimize._highspy._core as core
        from scipy.optimize import linprog
        assert core is scenario.highs
        res = linprog(c=lp.cost, A_ub=lp.a_ub, b_ub=lp.b_ub,
                      bounds=list(zip(lp.lower, lp.upper)), method="highs")
        assert res.status == 0
        print("linprog:", res.status)
    """)
    assert out.splitlines()[-2:] == ["after solve: []", "linprog: 0"]


def test_threads_whose_first_action_is_a_solve_load_the_binding_once():
    out = run_script("""
        import threading
        import time
        from concurrent.futures import ThreadPoolExecutor
        import ccopf.scenario as scenario

        lp = prepared_lp()
        loads = []
        load = scenario._load_binding_file

        def slow_load():
            loads.append(1)
            time.sleep(0.05)  # the other thread reaches the load meanwhile
            return load()

        scenario._load_binding_file = slow_load
        start = threading.Barrier(2, timeout=60)

        def first_solve(_):
            start.wait()
            return scenario.solve(lp).status

        with ThreadPoolExecutor(max_workers=2) as pool:
            statuses = list(pool.map(first_solve, range(2)))
        print("loads:", len(loads), statuses)
    """)
    assert out.splitlines()[-1] == "loads: 1 ['optimal', 'optimal']"
