"""What ``import viscosolve`` and a command's set-up load, each checked in a fresh interpreter."""

import subprocess
import sys
from pathlib import Path

import pytest

SRC = str(Path(__file__).resolve().parents[1] / "src")

# the sweep, the check layer and numpy's random module, which set-up of `implicit` does not need
NOT_AT_SET_UP = ("numpy.random", "viscosolve.experiment", "viscosolve.diagnostics")

EXPORTS = [
    "ALGORITHMS", "AffineMap", "BENCHMARK_X1", "Ball", "Box", "ConfigurationError", "ConstantAnchor",
    "ConstantLambda", "ConvexSet", "DimensionMismatchError", "DivergenceError", "EXPLICIT_VISCOSITY",
    "ExperimentConfig", "ExperimentReport", "HALPERN", "Halfspace", "Hyperplane", "HypothesisReport",
    "Identity", "ImplicitConfig", "InvalidDescriptorError", "LeastSquaresGradient", "NoPerturbation",
    "NonConvergenceError", "NonFiniteError", "NonnegOrthant", "PERTURBED", "ParameterError", "PathPoint",
    "PowerAlpha", "ProblemSpec", "RegisteredMapping", "RunTrace", "ScheduleSpec", "ScheduleViolationError",
    "ScheduleViolationWarning", "Simplex", "SolverConfig", "TAKAHASHI_TOYODA", "TableAlpha", "TableLambda",
    "TrigContraction", "UniformSquarePerturbation", "YAO_INNER", "YAO_OUTER", "alpha_at", "as_vector",
    "benchmark_schedule", "build_benchmark_problem", "contains", "emit_report", "emit_tables", "emit_trace",
    "experiment", "hypothesis_report", "implicit_path", "lambda_at", "norm", "operators",
    "perturbation_stream", "project", "project_rows", "projections", "reference_solution", "register_mapping",
    "run", "run_batch", "run_experiment", "sample", "schedules", "solvers", "space", "viscosity_map",
]


def fresh(code: str) -> str:
    # -I ignores PYTHONPATH, so the source tree goes on sys.path inside the child
    out = subprocess.run(
        [sys.executable, "-I", "-c", f"import sys; sys.path.insert(0, {SRC!r})\n{code}"],
        capture_output=True, text=True, check=True,
    )
    return out.stdout.strip()


def loaded(names=NOT_AT_SET_UP) -> str:
    return f"print(sorted(m for m in {names!r} if m in sys.modules))"


def test_implicit_set_up_and_path_load_neither_the_sweep_nor_numpy_random():
    code = (
        "import viscosolve\n"
        "from viscosolve import configio, implicit_path\n"
        "resolved, _ = configio.resolve_config({})\n"
        "problem = configio.build_problem(resolved)\n"
        "implicit_path(configio.build_implicit_config(resolved), problem, x1=resolved['solver']['x1'])\n"
        + loaded()
    )
    assert fresh(code) == "[]"


@pytest.mark.parametrize("argv, written", [
    (["implicit"], "implicit_path.csv"),
    (["solve", "--deterministic", "--nmax", "200"], "trace.csv"),
])
def test_cli_commands_that_draw_nothing_load_neither_the_sweep_nor_the_check_layer(tmp_path, argv, written):
    code = (
        "from viscosolve import cli\n"
        f"assert cli.main({[*argv, '--out', str(tmp_path)]!r}) == 0\n"
        + loaded()
    )
    assert fresh(code).splitlines()[-1] == "[]"
    assert (tmp_path / written).exists()


def test_the_lazy_layers_load_on_first_use():
    code = (
        "import viscosolve\n"
        + loaded(("viscosolve.experiment",))
        + "\nviscosolve.run_experiment\n"
        + loaded(("viscosolve.experiment", "viscosolve.diagnostics"))
        + "\nviscosolve.hypothesis_report\n"
        + loaded(("viscosolve.diagnostics",))
    )
    assert fresh(code).splitlines() == ["[]", "['viscosolve.experiment']", "['viscosolve.diagnostics']"]


def test_every_export_resolves():
    code = (
        "import viscosolve\n"
        "print(viscosolve.__all__)\n"
        "print(all(getattr(viscosolve, name) is not None for name in viscosolve.__all__))\n"
    )
    names, resolved = fresh(code).splitlines()
    assert names == repr(EXPORTS)
    assert resolved == "True"


def test_star_import_binds_every_export():
    code = "from viscosolve import *\nprint(sorted(name for name in dir() if not name.startswith('_')))"
    assert fresh(code) == repr(sorted([*EXPORTS, "sys"]))


def test_experiment_module_reached_through_the_package_is_the_one_that_holds_run():
    code = (
        "import viscosolve\n"
        "assert 'viscosolve.experiment' not in sys.modules\n"
        "print(viscosolve.experiment.run is viscosolve.solvers.run)\n"
    )
    assert fresh(code) == "True"


def test_an_unknown_name_is_an_attribute_error():
    code = (
        "import viscosolve\n"
        "try:\n    viscosolve.no_such_name\nexcept AttributeError as exc:\n    print(exc)\n"
    )
    assert fresh(code) == "module 'viscosolve' has no attribute 'no_such_name'"


def test_import_loads_no_hashlib_until_a_digest_is_taken():
    code = (
        "import viscosolve\n"
        + loaded(("hashlib", "_hashlib"))
        + "\nviscosolve.solvers.config_digest({'a': 1})\n"
        + loaded(("hashlib",))
    )
    assert fresh(code).splitlines() == ["[]", "['hashlib']"]


def test_every_package_dataclass_is_a_record_with_the_shared_methods():
    # a stdlib @dataclass(frozen=True) here would compile its own methods at every import again
    code = (
        "import dataclasses, inspect\n"
        "import viscosolve, viscosolve.experiment, viscosolve.diagnostics\n"
        "from viscosolve import space\n"
        "classes = {c for name, m in sys.modules.items() if name.startswith('viscosolve') for c in vars(m).values()\n"
        "           if isinstance(c, type) and dataclasses.is_dataclass(c) and c.__module__.startswith('viscosolve')}\n"
        "print(len(classes))\n"
        "print(sorted(c.__name__ for c in classes if c.__init__ is not space._init\n"
        "             or list(inspect.signature(c).parameters) != [f.name for f in dataclasses.fields(c)]))\n"
    )
    count, strays = fresh(code).splitlines()
    assert int(count) == 31 and strays == "[]"
