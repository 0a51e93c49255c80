"""Time ccopf's set-up in a fresh interpreter and print it as JSON.

Set-up is what `ccopf run` does before its first repetition: importing
the package, loading each case and resolving each method's scenario
count. Usage (the benchmark starts it with ``src`` on PYTHONPATH):

    python3 setup_probe.py '{"cases": [...], "methods": [...], "eta": ...,
                             "scenarios": ..., "reps": ..., "seed": ...,
                             "n_test": ..., "jobs": ...}'
"""
import json
import sys
from time import perf_counter


def main() -> None:
    spec = json.loads(sys.argv[1])
    start = perf_counter()
    from ccopf.validation import ExperimentConfig, load_case_ref, resolve_scenario_count

    counts = {}
    for name in spec["cases"]:
        case = load_case_ref(name)
        config = ExperimentConfig(
            case=name, methods=tuple(spec["methods"]), eta=spec["eta"],
            scenarios=spec["scenarios"], reps=spec["reps"], seed=spec["seed"],
            n_test=spec["n_test"], jobs=spec["jobs"],
        )
        for method in config.methods:
            counts[f"{name}.{method}"] = resolve_scenario_count(config, case, method)
    elapsed = perf_counter() - start
    print(json.dumps({"setup_s": elapsed, "counts": counts}))


if __name__ == "__main__":
    main()
