"""Viscosity-approximation iterations for constrained fixed-point problems.

Find a common point of the fixed-point set of a nonexpansive map S and the
solution set of the variational inequality <Aq, x - q> >= 0 on a closed
convex Q, where A is cocoercive. The iterations mix a contraction f into the
projected forward step, which selects the limit point solving
<f(q*) - q*, x - q*> <= 0 over the target set. Includes a projection
toolkit, schedule diagnostics, an implicit-path solver and a reproducible
benchmark harness.

The sweep (``experiment``) and the hypothesis grader (``diagnostics``) load
on the first use of one of their names, so that ``import viscosolve`` and the
set-up of ``solve`` and ``implicit`` do not pay for them.
"""

from .__about__ import __version__
from .space import DimensionMismatchError, NonFiniteError, as_vector, norm
from .projections import (
    Ball,
    Box,
    ConvexSet,
    Halfspace,
    Hyperplane,
    InvalidDescriptorError,
    NonnegOrthant,
    Simplex,
    contains,
    project,
    project_rows,
    sample,
)
from .operators import (
    AffineMap,
    ConstantAnchor,
    Identity,
    LeastSquaresGradient,
    ProblemSpec,
    TrigContraction,
)
from .schedules import (
    ConstantLambda,
    NoPerturbation,
    PowerAlpha,
    ScheduleSpec,
    ScheduleViolationWarning,
    TableAlpha,
    TableLambda,
    UniformSquarePerturbation,
    alpha_at,
    lambda_at,
    perturbation_stream,
)
from .solvers import (
    ALGORITHMS,
    ConfigurationError,
    DivergenceError,
    EXPLICIT_VISCOSITY,
    HALPERN,
    ImplicitConfig,
    NonConvergenceError,
    PERTURBED,
    PathPoint,
    RunTrace,
    SolverConfig,
    TAKAHASHI_TOYODA,
    YAO_INNER,
    YAO_OUTER,
    implicit_path,
    reference_solution,
    run,
    run_batch,
    viscosity_map,
)

# name -> the submodule it comes from, imported by ``__getattr__`` on first use (PEP 562)
_LAZY = {
    **dict.fromkeys(
        ("experiment", "BENCHMARK_X1", "ExperimentConfig", "ExperimentReport", "benchmark_schedule",
         "build_benchmark_problem", "emit_report", "emit_tables", "emit_trace", "run_experiment"),
        "experiment",
    ),
    **dict.fromkeys(("HypothesisReport", "hypothesis_report"), "diagnostics"),
}


def __getattr__(name):
    source = _LAZY.get(name)
    if source is None:
        raise AttributeError(f"module {__name__!r} has no attribute {name!r}")
    from importlib import import_module

    module = import_module(f".{source}", __name__)
    value = module if name == source else getattr(module, name)
    globals()[name] = value  # later lookups find it without this hook
    return value


def __dir__():
    return sorted({*globals(), *_LAZY})


__all__ = [name for name in __dir__() if not name.startswith("_")]
