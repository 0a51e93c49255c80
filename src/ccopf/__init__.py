"""Chance-constrained DC dispatch via scenario approximation.

The package builds the DC feasibility polytope of a grid case, tightens
it so each row carries a per-row violation budget, samples constraint
scenarios either from the plain Gaussian uncertainty or from a
tail-focused mixture, and solves the resulting dispatch LP. Certified
scenario-count bounds and out-of-sample validation round out the
pipeline; the ccopf command line drives it end to end.
"""
from .grid import (
    Branch,
    Bus,
    CaseError,
    CaseParseError,
    CaseValidationError,
    FeasibilityPolytope,
    Generator,
    GridCase,
    GridMatrices,
    build_matrices,
    build_polytope,
    bundled_case_path,
    load_case,
    parse_case,
)
from .margins import (
    GaussianSpec,
    MarginSet,
    PiEstimate,
    compute_margins,
    contains_inner,
    estimate_pi,
    tightened_polytope,
)
from .sampler import (
    MixtureSampler,
    build_mixture,
    importance_ratio,
    mixture_pdf,
    sample_mixture,
    sample_mixture_batch,
    sample_tail,
)
from .scenario import (
    DispatchSolution,
    LinearProgram,
    ScenarioSet,
    SolverError,
    assemble,
    draw_gaussian_scenarios,
    draw_mixture_scenarios,
    nominal_scenario_set,
    reduce_scenarios,
    run_sa,
    run_sa_is,
    sample_size_cc,
    sample_size_filtered,
    sample_size_is,
    sample_size_mixture,
    solve,
)
from .uncertainty import build_uncertainty
from .validation import (
    ExperimentConfig,
    ExperimentReport,
    RepetitionRecord,
    out_of_sample_confidence,
    run_experiment,
    solve_1d_synthetic,
    sweep_1d,
)

__version__ = "0.1.0"

__all__ = [
    "Branch",
    "Bus",
    "CaseError",
    "CaseParseError",
    "CaseValidationError",
    "DispatchSolution",
    "ExperimentConfig",
    "ExperimentReport",
    "FeasibilityPolytope",
    "GaussianSpec",
    "Generator",
    "GridCase",
    "GridMatrices",
    "LinearProgram",
    "MarginSet",
    "MixtureSampler",
    "PiEstimate",
    "RepetitionRecord",
    "ScenarioSet",
    "SolverError",
    "assemble",
    "build_matrices",
    "build_mixture",
    "build_polytope",
    "build_uncertainty",
    "bundled_case_path",
    "compute_margins",
    "contains_inner",
    "draw_gaussian_scenarios",
    "draw_mixture_scenarios",
    "estimate_pi",
    "importance_ratio",
    "load_case",
    "mixture_pdf",
    "nominal_scenario_set",
    "out_of_sample_confidence",
    "parse_case",
    "reduce_scenarios",
    "run_experiment",
    "run_sa",
    "run_sa_is",
    "sample_mixture",
    "sample_mixture_batch",
    "sample_size_cc",
    "sample_size_filtered",
    "sample_size_is",
    "sample_size_mixture",
    "sample_tail",
    "solve",
    "solve_1d_synthetic",
    "sweep_1d",
    "tightened_polytope",
    "__version__",
]
