"""Viscosity-approximation iterations for constrained fixed-point problems.

Find a common point of the fixed-point set of a nonexpansive map S and the
solution set of the variational inequality <Aq, x - q> >= 0 on a closed
convex Q, where A is cocoercive. The iterations mix a contraction f into the
projected forward step, which selects the limit point solving
<f(q*) - q*, x - q*> <= 0 over the target set. Includes a projection
toolkit, schedule diagnostics, an implicit-path solver and a reproducible
benchmark harness.
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
    ParameterError,
    ProblemSpec,
    RegisteredMapping,
    TrigContraction,
    ls_lipschitz,
    register_mapping,
)
from .schedules import (
    ConstantLambda,
    HypothesisReport,
    NoPerturbation,
    PowerAlpha,
    ScheduleSpec,
    ScheduleViolationError,
    ScheduleViolationWarning,
    TableAlpha,
    TableLambda,
    UniformSquarePerturbation,
    alpha_at,
    hypothesis_report,
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
from .experiment import (
    BENCHMARK_X1,
    ExperimentConfig,
    ExperimentReport,
    benchmark_schedule,
    build_benchmark_problem,
    emit_report,
    emit_tables,
    emit_trace,
    run_experiment,
)

__all__ = [name for name in dir() if not name.startswith("_")]
