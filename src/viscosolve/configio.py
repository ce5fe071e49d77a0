"""JSON config schema: load, default-fill, override, and build library objects.

A config file is a JSON object with (all optional) sections::

    problem:      {set, S, A, f, omega}
    schedule:     {alpha: {power: t} | {table: [...]},
                   lambda: {constant: v} | {table: [...]},
                   bounds: [a, b]}
    perturbation: {kind: "none"} | {kind: "uniform_square_over_ksq", seed: int}
    solver:       {algorithm, x1, nmax, anchor, beta, stride,
                   rel_err_target, reference ("auto" | [..] | null)}
    experiment:   {thetas, seeds, nmax, epsilons, deterministic}
    implicit:     {t_values, lambda, inner_tol, inner_max_iter}

Missing fields fall back to the built-in benchmark instance; the fully
resolved config (with every default filled in) is echoed into run metadata,
so re-parsing an emitted config reproduces the identical run.
"""

from __future__ import annotations

import copy
import json
from contextlib import contextmanager
from pathlib import Path

from .operators import (
    AffineMap,
    ConstantAnchor,
    Identity,
    LeastSquaresGradient,
    ProblemSpec,
    TrigContraction,
)
from .projections import Ball, Box, Halfspace, Hyperplane, NonnegOrthant, Simplex
from .schedules import (
    ConstantLambda,
    NoPerturbation,
    PowerAlpha,
    ScheduleSpec,
    TableAlpha,
    TableLambda,
    UniformSquarePerturbation,
    _integer,
)
from .solvers import ConfigurationError, ImplicitConfig, SolverConfig
from .experiment import DEFAULT_EPSILONS, DEFAULT_SEEDS, ExperimentConfig

__all__ = [
    "DEFAULT_CONFIG",
    "load_config",
    "resolve_config",
    "apply_overrides",
    "build_problem",
    "build_schedule",
    "build_perturbation",
    "build_solver_config",
    "build_experiment_config",
    "build_implicit_config",
]

_JSON_SCALARS = frozenset({str, int, float, bool, type(None)})

DEFAULT_CONFIG = {
    "problem": {
        "set": {"kind": "orthant", "dim": 2},
        "S": {"kind": "identity"},
        "A": {"kind": "least_squares_gradient", "B": [[1.0, 1.0], [2.0, 2.0]], "b": [3.0, 5.0]},
        "f": {"kind": "trig_contraction"},
        "omega": {"kind": "simplex", "total": 2.6, "dim": 2},
    },
    "schedule": {"alpha": {"power": 0.9}, "lambda": {"constant": 0.1}},
    "perturbation": {"kind": "uniform_square_over_ksq", "seed": 1},
    "solver": {
        "algorithm": "perturbed",
        "x1": [2.0, 3.0],
        "nmax": 6000,
        "anchor": None,
        "beta": 0.5,
        "stride": 1,
        "rel_err_target": None,
        "reference": "auto",
    },
    "experiment": {
        "thetas": [0.1, 0.2, 0.3, 0.4, 0.6, 0.8, 0.9, 1.0],
        "seeds": list(DEFAULT_SEEDS),
        "nmax": 6000,
        "epsilons": list(DEFAULT_EPSILONS),
        "deterministic": False,
    },
    "implicit": {
        "t_values": [1.0, 0.1, 0.01, 0.001, 0.0001, 1e-05],
        "lambda": 0.1,
        "inner_tol": 1e-10,
        "inner_max_iter": 20_000_000,
    },
}


def load_config(path) -> dict:
    """Parse a JSON config file; parse errors carry line/column context."""
    path = Path(path)
    if not path.exists():
        raise ConfigurationError(f"config file not found: {path}")
    try:
        raw = json.loads(path.read_text())
    except json.JSONDecodeError as exc:
        raise ConfigurationError(f"{path}: invalid JSON at line {exc.lineno}, column {exc.colno}: {exc.msg}") from None
    return _object(raw, f"{path}: top level")


def _copy_json(value):
    """Rebuild dicts and lists, share immutable scalar leaves, deep-copy any other value."""
    if type(value) is dict:
        return {k: v if type(v) in _JSON_SCALARS else _copy_json(v) for k, v in value.items()}
    if type(value) is list:
        return [v if type(v) in _JSON_SCALARS else _copy_json(v) for v in value]
    return value if type(value) in _JSON_SCALARS else copy.deepcopy(value)


def _object(value, path: str) -> dict:
    if not isinstance(value, dict):
        raise ConfigurationError(f"{path}: must be an object")
    return value


def resolve_config(raw: dict | None) -> tuple[dict, list[str]]:
    """Fill every missing field from the defaults.

    Returns (resolved, defaulted_paths); the second entry lists the dotted
    paths that came from the defaults rather than the user, for the metadata
    echo. The result shares no dict or list with ``raw`` or DEFAULT_CONFIG.
    """
    raw = {} if raw is None else _object(raw, "top level")
    unknown = set(raw) - set(DEFAULT_CONFIG)
    if unknown:
        raise ConfigurationError(f"unknown config section(s): {sorted(unknown)}")
    resolved = {}
    defaulted: list[str] = []
    for section, default_body in DEFAULT_CONFIG.items():
        user_body = raw.get(section)
        if user_body is None:
            resolved[section] = _copy_json(default_body)
            defaulted.append(section)
            continue
        _object(user_body, section)
        body = {}
        for key, default_value in default_body.items():
            if key not in user_body:
                defaulted.append(f"{section}.{key}")
            body[key] = _copy_json(user_body.get(key, default_value))
        for key in user_body:
            if key not in body:
                if section != "schedule" or key != "bounds":
                    raise ConfigurationError(f"{section}.{key}: unknown field")
                body[key] = _copy_json(user_body[key])
        resolved[section] = body
    return resolved, defaulted


def apply_overrides(raw: dict, overrides: dict) -> dict:
    """Fold CLI overrides into a copy of the top level and of each section they write."""
    raw, copied = dict(_object(raw, "top level")), {}

    def section(name):
        if name not in copied:
            body = raw.get(name)
            copied[name] = raw[name] = {} if body is None else dict(_object(body, name))
        return copied[name]

    if overrides.get("theta") is not None:
        section("experiment")["thetas"] = [overrides["theta"]]
        section("schedule")["alpha"] = {"power": overrides["theta"]}
    if overrides.get("seed") is not None:
        section("experiment")["seeds"] = [overrides["seed"]]
        section("perturbation").update({"kind": "uniform_square_over_ksq", "seed": overrides["seed"]})
    if overrides.get("seeds") is not None:
        section("experiment")["seeds"] = list(overrides["seeds"])
    if overrides.get("nmax") is not None:
        section("experiment")["nmax"] = overrides["nmax"]
        section("solver")["nmax"] = overrides["nmax"]
    if overrides.get("algorithm") is not None:
        section("solver")["algorithm"] = overrides["algorithm"]
    if overrides.get("deterministic"):
        section("experiment")["deterministic"] = True
        section("perturbation").update({"kind": "none"})
        section("perturbation").pop("seed", None)
    if overrides.get("stride") is not None:
        section("solver")["stride"] = overrides["stride"]
    return raw


# --------------------------------------------------------------------------
# builders


def _need(d: dict, key: str, path: str):
    if key not in d:
        raise ConfigurationError(f"{path}: missing required field {key!r}")
    return d[key]


@contextmanager
def _as_config_error(path: str, errors=(ValueError, TypeError)):
    """Re-raise ``errors`` and ConfigurationError from the body as ConfigurationError("<path>: <message>").

    A message that already starts with ``path`` (``schedule.alpha: ...`` in ``schedule``) is kept as it is.
    """
    try:
        yield
    except ConfigurationError as exc:
        if str(exc).startswith(path):
            raise
        raise ConfigurationError(f"{path}: {exc}") from None
    except errors as exc:
        raise ConfigurationError(f"{path}: {exc}") from None


def build_set(d: dict, path: str):
    kind = _need(d, "kind", path)
    with _as_config_error(path):
        if kind == "orthant":
            return NonnegOrthant(dim=_need(d, "dim", path))
        if kind == "box":
            return Box(lo=_need(d, "lo", path), hi=_need(d, "hi", path))
        if kind == "ball":
            return Ball(center=_need(d, "center", path), radius=float(_need(d, "radius", path)))
        if kind == "halfspace":
            return Halfspace(normal=_need(d, "normal", path), offset=float(_need(d, "offset", path)))
        if kind == "hyperplane":
            return Hyperplane(normal=_need(d, "normal", path), offset=float(_need(d, "offset", path)))
        if kind == "simplex":
            return Simplex(total=float(_need(d, "total", path)), dim=_need(d, "dim", path))
    raise ConfigurationError(f"{path}.kind: unknown set kind {kind!r}")


def build_mapping(d: dict, dim: int, path: str):
    kind = _need(d, "kind", path)
    with _as_config_error(path):
        if kind == "identity":
            return Identity(dim=dim)
        if kind == "trig_contraction":
            return TrigContraction()
        if kind == "constant":
            return ConstantAnchor(value=_need(d, "value", path))
        if kind == "least_squares_gradient":
            return LeastSquaresGradient(B=_need(d, "B", path), b=_need(d, "b", path))
        if kind == "affine":
            return AffineMap(M=_need(d, "M", path), c=_need(d, "c", path))
    raise ConfigurationError(f"{path}.kind: unknown mapping kind {kind!r}")


def build_problem(resolved: dict) -> ProblemSpec:
    body = resolved["problem"]
    cset = build_set(body["set"], "problem.set")
    omega = build_set(body["omega"], "problem.omega") if body.get("omega") else None
    with _as_config_error("problem", ValueError):
        return ProblemSpec(
            set_Q=cset,
            map_S=build_mapping(body["S"], cset.dim, "problem.S"),
            map_A=build_mapping(body["A"], cset.dim, "problem.A"),
            map_f=build_mapping(body["f"], cset.dim, "problem.f"),
            reference_set_omega=omega,
        )


def build_schedule(resolved: dict) -> ScheduleSpec:
    body = resolved["schedule"]
    with _as_config_error("schedule", (ValueError, TypeError, IndexError)):
        alpha_d = body["alpha"]
        if "power" in alpha_d:
            alpha = PowerAlpha(float(alpha_d["power"]))
        elif "table" in alpha_d:
            alpha = TableAlpha(alpha_d["table"])
        else:
            raise ConfigurationError("schedule.alpha: need 'power' or 'table'")
        lam_d = body["lambda"]
        if "constant" in lam_d:
            lam = ConstantLambda(float(lam_d["constant"]))
            default_bounds = (lam.value, lam.value)
        elif "table" in lam_d:
            lam = TableLambda(lam_d["table"])
            default_bounds = (float(min(lam.values)), float(max(lam.values)))
        else:
            raise ConfigurationError("schedule.lambda: need 'constant' or 'table'")
        bounds = tuple(body.get("bounds", default_bounds))
        return ScheduleSpec(alpha=alpha, lam=lam, bounds=bounds)


def build_perturbation(resolved: dict):
    body = resolved["perturbation"]
    with _as_config_error("perturbation", (ValueError, TypeError, IndexError)):
        kind = _need(body, "kind", "perturbation")
        if kind == "none":
            return NoPerturbation()
        if kind == "uniform_square_over_ksq":
            return UniformSquarePerturbation(seed=_need(body, "seed", "perturbation"))
    raise ConfigurationError(f"perturbation.kind: unknown kind {kind!r}")


def build_solver_config(resolved: dict, problem: ProblemSpec | None = None) -> SolverConfig:
    problem = problem or build_problem(resolved)
    body = resolved["solver"]
    schedule, perturbation = build_schedule(resolved), build_perturbation(resolved)  # errors of their own sections
    with _as_config_error("solver"):
        return SolverConfig(
            problem=problem,
            schedule=schedule,
            x1=body["x1"],
            n_max=_integer(body["nmax"], "nmax", 1),
            algorithm=str(body["algorithm"]),
            perturbation=perturbation,
            anchor=body.get("anchor"),
            beta=float(body.get("beta", 0.5)),
            reference=body["reference"],
            rel_err_target=body.get("rel_err_target"),
            record_stride=_integer(body.get("stride", 1), "stride", 1),
        )


def build_experiment_config(resolved: dict, problem: ProblemSpec | None = None) -> ExperimentConfig:
    problem = problem or build_problem(resolved)
    body = resolved["experiment"]
    lam_d = resolved["schedule"]["lambda"]
    if "constant" not in lam_d:
        raise ConfigurationError("experiment: schedule.lambda must be constant for the sweep")
    with _as_config_error("experiment"):
        return ExperimentConfig(
            thetas=tuple(body["thetas"]),
            seeds=tuple(body["seeds"]),
            n_max=_integer(body["nmax"], "nmax", 1),
            epsilons=tuple(body["epsilons"]),
            problem=problem,
            x1=resolved["solver"]["x1"],
            lam=float(lam_d["constant"]),
            deterministic=bool(body["deterministic"]),
        )


def build_implicit_config(resolved: dict) -> ImplicitConfig:
    body = resolved["implicit"]
    with _as_config_error("implicit"):
        return ImplicitConfig(
            t_values=tuple(body["t_values"]),
            lambda_of_t=float(body["lambda"]),
            inner_tol=float(body["inner_tol"]),
            inner_max_iter=_integer(body["inner_max_iter"], "inner_max_iter", 1),
        )
