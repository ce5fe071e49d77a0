"""Iterative solvers for the constrained fixed-point / variational-inequality problem.

Step rules (P = projection onto Q, S nonexpansive, A cocoercive, f a
contraction, u a fixed anchor in Q):

* explicit_viscosity:  x+ = a f(x) + (1 - a) S P(x - l A x)
* perturbed:           x+ = P(a f(x) + (1 - a) S P(x - l A x) + e)
* takahashi_toyoda:    x+ = a x + (1 - a) S P(x - l A x)
* halpern:             x+ = a u + (1 - a) S P(x - l A x)
* yao_outer:           x+ = b x + (1 - b) P(a u + (1 - a) S P(x - l A x))
* yao_inner:           x+ = b x + (1 - b) S P(a u + (1 - a)(x - l A x))

plus the implicit path x_t = t f(x_t) + (1 - t) S P(x_t - l(t) A x_t) solved
by safeguarded Anderson acceleration, the reference solver for the limit
point (the fixed point of P_Omega . f), and the scalar comparison recursion
used as a test oracle for convergence diagnostics.
"""

from __future__ import annotations

import dataclasses
import hashlib
import json
import warnings
from collections import deque
from dataclasses import dataclass, field
from typing import Callable

import numpy as np

from .__about__ import __version__ as _VERSION
from .operators import ParameterError, ProblemSpec, viscosity_map
from .projections import contains, project
from .schedules import (
    NoPerturbation,
    Perturbation,
    ScheduleSpec,
    ScheduleViolationError,
    ScheduleViolationWarning,
    alpha_at,
    lambda_at,
    perturbation_at,
    perturbation_stream,
)
from .space import as_vector, norm

__all__ = [
    "EXPLICIT_VISCOSITY",
    "PERTURBED",
    "TAKAHASHI_TOYODA",
    "HALPERN",
    "YAO_OUTER",
    "YAO_INNER",
    "ALGORITHMS",
    "ConfigurationError",
    "DivergenceError",
    "NonConvergenceError",
    "SolverConfig",
    "RunTrace",
    "ImplicitConfig",
    "PathPoint",
    "explicit_step",
    "perturbed_step",
    "run",
    "implicit_solve",
    "implicit_path",
    "reference_solution",
    "xu_recursion",
    "config_digest",
]

EXPLICIT_VISCOSITY = "explicit_viscosity"
PERTURBED = "perturbed"
TAKAHASHI_TOYODA = "takahashi_toyoda"
HALPERN = "halpern"
YAO_OUTER = "yao_outer"
YAO_INNER = "yao_inner"
ALGORITHMS = (
    EXPLICIT_VISCOSITY,
    PERTURBED,
    TAKAHASHI_TOYODA,
    HALPERN,
    YAO_OUTER,
    YAO_INNER,
)

_X1_TOL = 1e-10
_AA_DEPTH = 5  # Anderson memory of the implicit solve


class ConfigurationError(ValueError):
    """The configuration is structurally unusable (missing pieces, bad fields)."""


class DivergenceError(RuntimeError):
    """An iterate left the finite floats; carries the last finite state."""

    def __init__(self, message: str, last_state: np.ndarray, step: int):
        super().__init__(message)
        self.last_state = last_state
        self.step = step


class NonConvergenceError(RuntimeError):
    """An inner solve hit its iteration cap; carries the final residual."""

    def __init__(self, message: str, residual: float, iterations: int):
        super().__init__(message)
        self.residual = residual
        self.iterations = iterations


@dataclass(frozen=True, eq=False)
class SolverConfig:
    """One run: problem + schedules + start point + stopping/recording policy."""

    problem: ProblemSpec
    schedule: ScheduleSpec
    x1: np.ndarray
    n_max: int
    algorithm: str = EXPLICIT_VISCOSITY
    perturbation: Perturbation = field(default_factory=NoPerturbation)
    anchor: np.ndarray | None = None
    beta: float = 0.5
    reference: np.ndarray | None = None
    rel_err_target: float | None = None
    record_stride: int = 1
    strict_schedule: bool = False

    def __post_init__(self):
        if self.algorithm not in ALGORITHMS:
            raise ConfigurationError(
                f"unknown algorithm {self.algorithm!r}; choose from {ALGORITHMS}"
            )
        x1 = as_vector(self.x1, dim=self.problem.dim, name="x1")
        x1.setflags(write=False)
        object.__setattr__(self, "x1", x1)
        if not contains(self.problem.set_Q, x1, _X1_TOL):
            raise ConfigurationError(f"x1 = {x1!r} is not in Q (tolerance {_X1_TOL})")
        if self.n_max < 1:
            raise ConfigurationError(f"n_max must be >= 1, got {self.n_max}")
        if self.record_stride < 1:
            raise ConfigurationError("record_stride must be >= 1")
        if self.algorithm in (HALPERN, YAO_OUTER, YAO_INNER):
            if self.anchor is None:
                raise ConfigurationError(f"algorithm {self.algorithm!r} needs an anchor point")
            u = as_vector(self.anchor, dim=self.problem.dim, name="anchor")
            u.setflags(write=False)
            object.__setattr__(self, "anchor", u)
            if not contains(self.problem.set_Q, u, _X1_TOL):
                raise ConfigurationError("anchor point is not in Q")
        if self.algorithm in (YAO_OUTER, YAO_INNER) and not (0 <= self.beta < 1):
            raise ConfigurationError(f"beta must be in [0, 1), got {self.beta}")
        if self.reference is not None:
            ref = as_vector(self.reference, dim=self.problem.dim, name="reference")
            ref.setflags(write=False)
            object.__setattr__(self, "reference", ref)
        if self.rel_err_target is not None and self.reference is None:
            raise ConfigurationError("rel_err_target needs a reference point")


@dataclass(frozen=True, eq=False)
class RunTrace:
    """Per-iteration records of one run, plus run metadata.

    Row j holds the iterate x_k with k = k[j], the schedule values at k and,
    when a reference point was supplied, rel_err_k = ||x_k - ref|| / ||ref||.
    """

    k: np.ndarray
    x: np.ndarray
    alpha: np.ndarray
    lam: np.ndarray
    e_norm: np.ndarray
    rel_err: np.ndarray | None
    metadata: dict

    @property
    def final(self) -> np.ndarray:
        return self.x[-1]

    def min_rel_err(self) -> float:
        if self.rel_err is None:
            raise ValueError("trace has no rel_err column (no reference was supplied)")
        return float(self.rel_err.min())

    def first_hit(self, eps: float) -> int | None:
        """Smallest recorded k with rel_err_k <= eps, or None if never reached."""
        if self.rel_err is None:
            raise ValueError("trace has no rel_err column (no reference was supplied)")
        idx = np.nonzero(self.rel_err <= eps)[0]
        return int(self.k[idx[0]]) if idx.size else None

    def write_csv(self, path) -> None:
        d = self.x.shape[1]
        header = "k," + ",".join(f"x{i + 1}" for i in range(d)) + ",alpha,lambda,e_norm,rel_err"
        lines = [header]
        for j in range(self.k.size):
            cells = [str(int(self.k[j]))]
            cells += [repr(float(v)) for v in self.x[j]]
            cells += [repr(float(self.alpha[j])), repr(float(self.lam[j])), repr(float(self.e_norm[j]))]
            cells.append(repr(float(self.rel_err[j])) if self.rel_err is not None else "")
            lines.append(",".join(cells))
        with open(path, "w") as fh:
            fh.write("\n".join(lines) + "\n")

    def write_meta(self, path) -> None:
        with open(path, "w") as fh:
            for key in sorted(self.metadata):
                fh.write(f"{key}: {self.metadata[key]}\n")


# --------------------------------------------------------------------------
# step rules (single source for both the step API and the run loop)


def _explicit_update(x, a, lam, problem):
    fx = problem.map_f(x)
    z = project(problem.set_Q, x - lam * problem.map_A(x))
    return a * fx + (1.0 - a) * problem.map_S(z)


def _perturbed_update(x, a, lam, e, problem):
    return project(problem.set_Q, _explicit_update(x, a, lam, problem) + e)


def _tt_update(x, a, lam, problem):
    z = project(problem.set_Q, x - lam * problem.map_A(x))
    return a * x + (1.0 - a) * problem.map_S(z)


def _halpern_update(x, a, lam, u, problem):
    z = project(problem.set_Q, x - lam * problem.map_A(x))
    return a * u + (1.0 - a) * problem.map_S(z)


def _yao_outer_update(x, a, lam, u, beta, problem):
    z = project(problem.set_Q, x - lam * problem.map_A(x))
    inner_pt = project(problem.set_Q, a * u + (1.0 - a) * problem.map_S(z))
    return beta * x + (1.0 - beta) * inner_pt


def _yao_inner_update(x, a, lam, u, beta, problem):
    inner_pt = project(problem.set_Q, a * u + (1.0 - a) * (x - lam * problem.map_A(x)))
    return beta * x + (1.0 - beta) * problem.map_S(inner_pt)


def explicit_step(x, k: int, cfg: SolverConfig) -> np.ndarray:
    """One step of the explicit viscosity rule at index k (k >= 1)."""
    if k < 1:
        raise IndexError(f"step index starts at 1, got {k}")
    a = alpha_at(cfg.schedule, k)
    lam = lambda_at(cfg.schedule, k)
    return _explicit_update(np.asarray(x, dtype=float), a, lam, cfg.problem)


def perturbed_step(x, k: int, cfg: SolverConfig) -> np.ndarray:
    """One step of the perturbed rule: the explicit step plus e_k, re-projected onto Q."""
    if k < 1:
        raise IndexError(f"step index starts at 1, got {k}")
    a = alpha_at(cfg.schedule, k)
    lam = lambda_at(cfg.schedule, k)
    e = perturbation_at(cfg.perturbation, k, cfg.problem.dim)
    return _perturbed_update(np.asarray(x, dtype=float), a, lam, e, cfg.problem)


def _make_step(cfg: SolverConfig, e: np.ndarray) -> Callable:
    problem = cfg.problem
    algo = cfg.algorithm
    if algo == EXPLICIT_VISCOSITY:
        return lambda x, a, lam, i: _explicit_update(x, a, lam, problem)
    if algo == PERTURBED:
        return lambda x, a, lam, i: _perturbed_update(x, a, lam, e[i], problem)
    if algo == TAKAHASHI_TOYODA:
        return lambda x, a, lam, i: _tt_update(x, a, lam, problem)
    if algo == HALPERN:
        return lambda x, a, lam, i: _halpern_update(x, a, lam, cfg.anchor, problem)
    if algo == YAO_OUTER:
        return lambda x, a, lam, i: _yao_outer_update(x, a, lam, cfg.anchor, cfg.beta, problem)
    return lambda x, a, lam, i: _yao_inner_update(x, a, lam, cfg.anchor, cfg.beta, problem)


def run(cfg: SolverConfig, extra_metadata: dict | None = None) -> RunTrace:
    """Iterate the selected rule from x1, recording iterates k = 1 .. n_max.

    The trace holds n_max rows (n_max - 1 update steps); row k carries the
    schedule values at index k. Stops early when rel_err_target is reached.
    Deterministic given the perturbation seed. A non-finite iterate raises
    :class:`DivergenceError` carrying the last finite state.
    """
    problem = cfg.problem
    n = cfg.n_max
    alphas = np.array([alpha_at(cfg.schedule, k) for k in range(1, n + 1)])
    with warnings.catch_warnings():
        warnings.simplefilter("ignore", ScheduleViolationWarning)
        lams = np.array([lambda_at(cfg.schedule, k) for k in range(1, n + 1)])

    a_lo, a_hi = cfg.schedule.bounds
    n_outside_bounds = int(np.count_nonzero((lams < a_lo) | (lams > a_hi)))
    n_outside_2nu = int(np.count_nonzero((lams < 0) | (lams > 2 * problem.nu)))
    if n_outside_2nu:
        msg = (
            f"{n_outside_2nu} lambda value(s) outside [0, 2*nu = {2 * problem.nu}]; "
            "convergence guarantees void"
        )
        if cfg.strict_schedule:
            raise ScheduleViolationError(msg)
        warnings.warn(msg, ScheduleViolationWarning, stacklevel=2)

    uses_e = cfg.algorithm == PERTURBED
    e = perturbation_stream(cfg.perturbation, n, problem.dim) if uses_e else np.zeros((n, problem.dim))
    e_norms = np.linalg.norm(e, axis=1)
    step = _make_step(cfg, e)

    ref = cfg.reference
    nref = norm(ref) if ref is not None else None

    def rel_to_ref(x):
        # metric only: may overflow to inf on a diverging run; the iterate
        # finiteness check below is the divergence detector
        d = x - ref
        return float(np.sqrt(np.dot(d, d))) / nref

    ks, xs, rel_errs = [], [], []

    def record(k, x, rel):
        ks.append(k)
        xs.append(x)
        if rel is not None:
            rel_errs.append(rel)

    x = cfg.x1.copy()
    stride = cfg.record_stride
    stopped_at = None
    for k in range(1, n + 1):
        rel = rel_to_ref(x) if ref is not None else None
        if (k - 1) % stride == 0 or k == n:
            record(k, x, rel)
        if cfg.rel_err_target is not None and rel is not None and rel <= cfg.rel_err_target:
            if (k - 1) % stride != 0 and k != n:
                record(k, x, rel)
            stopped_at = k
            break
        if k == n:
            break
        x_next = step(x, alphas[k - 1], lams[k - 1], k - 1)
        if not np.isfinite(x_next).all():
            raise DivergenceError(
                f"non-finite iterate at step {k} (algorithm {cfg.algorithm!r})",
                last_state=x,
                step=k,
            )
        x = x_next

    idx = np.asarray(ks, dtype=int) - 1
    metadata = {
        "algorithm": cfg.algorithm,
        "prng": cfg.perturbation.generator,
        "seed": cfg.perturbation.seed,
        "n_max": n,
        "record_stride": stride,
        "stopped_at": stopped_at,
        "schedule_violations_bounds": n_outside_bounds,
        "schedule_violations_2nu": n_outside_2nu,
        "config_digest": config_digest(cfg),
        "package": f"viscosolve {_VERSION}",
    }
    if extra_metadata:
        metadata.update(extra_metadata)
    return RunTrace(
        k=np.asarray(ks, dtype=int),
        x=np.asarray(xs),
        alpha=alphas[idx],
        lam=lams[idx],
        e_norm=e_norms[idx],
        rel_err=np.asarray(rel_errs) if ref is not None else None,
        metadata=metadata,
    )


# --------------------------------------------------------------------------
# implicit path


@dataclass(frozen=True, eq=False)
class ImplicitConfig:
    """Settings for the implicit curve t -> x_t.

    ``lambda_of_t`` maps t to the relaxation step (a float means a constant
    map); values are expected in (0, 2*nu). Each solve runs safeguarded
    Anderson acceleration on the viscosity map and stops once either the
    contraction a-posteriori bound certifies ||x - x_t|| <= inner_tol or the
    fixed-point residual itself drops below inner_tol (for very small t the
    bound alone would demand residuals below the float64 rounding floor).
    ``inner_max_iter`` caps the viscosity_map evaluations of one solve.
    """

    t_values: tuple[float, ...]
    lambda_of_t: float | Callable[[float], float]
    inner_tol: float = 1e-10
    inner_max_iter: int = 20_000_000

    def __post_init__(self):
        ts = tuple(float(t) for t in self.t_values)
        object.__setattr__(self, "t_values", ts)
        if not ts:
            raise ConfigurationError("t_values must be nonempty")
        if any(not (0 < t <= 1) for t in ts):
            raise ConfigurationError(f"t values must be in (0, 1], got {ts}")
        if any(t2 >= t1 for t1, t2 in zip(ts, ts[1:])):
            raise ConfigurationError("t_values must be strictly decreasing")
        if not self.inner_tol > 0:
            raise ConfigurationError("inner_tol must be > 0")

    def lam_at(self, t: float) -> float:
        if callable(self.lambda_of_t):
            return float(self.lambda_of_t(t))
        return float(self.lambda_of_t)


@dataclass(frozen=True, eq=False)
class PathPoint:
    """x_t; iterations counts viscosity_map calls, dist_bound = residual / (sigma t) >= ||x - x_t||."""

    t: float
    x: np.ndarray
    residual: float
    iterations: int
    dist_to_reference: float | None
    dist_bound: float


def _anderson_solve(t, lam, problem, x0, tol, max_iter):
    """Safeguarded Anderson acceleration of T = viscosity_map(., problem, t, lam).

    The candidate fits g = T(x) - x by least squares over the last
    ``_AA_DEPTH`` differences dx of accepted iterates and dg of their g, and
    moves T(x) by the fitted combination of dx + dg (Walker & Ni 2011). It is
    kept only if it cuts ||g|| by the contraction factor q = 1 - sigma t;
    else the Banach step T(x) is taken and the history cleared (Zhang,
    O'Donoghue & Boyd 2020). Returns (T(x), viscosity_map evaluations) once
    r = ||g(x)|| has r q / (1 - q) <= tol or r <= tol.
    """
    q = 1.0 - problem.sigma * t
    post_factor = q / (1.0 - q)  # a-posteriori multiplier
    history = deque(maxlen=_AA_DEPTH)  # (dx, dg) pairs
    x = fx = g = None
    r = np.inf
    y, accelerated, evals = x0, False, 0
    while evals < max_iter:
        fy = viscosity_map(y, problem, t, lam)
        evals += 1
        gy = fy - y
        ry = norm(gy)
        if accelerated and not ry <= q * r:
            history.clear()
            y, accelerated = fx, False
            continue
        if x is not None:
            history.append((y - x, gy - g))
        x, fx, g, r = y, fy, gy, ry
        if r * post_factor <= tol or r <= tol:
            return fx, evals
        # least squares by modified Gram-Schmidt over the dg, newest first; dropping
        # a dg nearly dependent on newer ones takes fewer evaluations than lstsq
        y, basis = fx, []
        for dx, dg in reversed(history):
            u, w = dx + dg, dg
            for ui, wi in basis:
                c = (wi @ w) / (wi @ wi)
                u, w = u - c * ui, w - c * wi
            if norm(w) > 1e-8 * norm(dg):
                basis.append((u, w))
                y = y - ((w @ g) / (w @ w)) * u
        accelerated = bool(basis)
    raise NonConvergenceError(
        f"implicit solve at t={t} did not converge in {max_iter} iterations "
        f"(last residual {r:.3e})",
        residual=r,
        iterations=evals,
    )


def implicit_solve(t: float, cfg: ImplicitConfig, problem: ProblemSpec, x0=None) -> np.ndarray:
    """The unique x_t with x_t = t f(x_t) + (1 - t) S P_Q(x_t - lambda(t) A x_t).

    Safeguarded Anderson acceleration on the viscosity map (contraction
    factor <= 1 - sigma t); the returned point has fixed-point residual
    <= cfg.inner_tol.
    """
    if not (0 < t <= 1):
        raise ParameterError(f"t must be in (0, 1], got {t}")
    x0 = as_vector(x0, dim=problem.dim, name="x0") if x0 is not None else project(
        problem.set_Q, np.zeros(problem.dim)
    )
    x, _ = _anderson_solve(t, cfg.lam_at(t), problem, x0, cfg.inner_tol, cfg.inner_max_iter)
    return x


def implicit_path(cfg: ImplicitConfig, problem: ProblemSpec, x1=None) -> list[PathPoint]:
    """Solve x_t along cfg.t_values, warm-starting each solve from the previous one.

    When the problem carries a closed-form target set, each point also
    reports its distance to the independently computed reference solution.
    """
    ref = None
    if problem.reference_set_omega is not None:
        ref = reference_solution(problem, tol=1e-12)
    x = as_vector(x1, dim=problem.dim, name="x1") if x1 is not None else project(
        problem.set_Q, np.zeros(problem.dim)
    )
    points = []
    for t in cfg.t_values:
        x, iters = _anderson_solve(t, cfg.lam_at(t), problem, x, cfg.inner_tol, cfg.inner_max_iter)
        residual = norm(x - viscosity_map(x, problem, t, cfg.lam_at(t)))
        dist = norm(x - ref) if ref is not None else None
        bound = residual / (problem.sigma * t)
        points.append(PathPoint(t, x, residual, iterations=iters, dist_to_reference=dist, dist_bound=bound))
    return points


def reference_solution(problem: ProblemSpec, tol: float = 1e-12, max_iter: int = 100_000) -> np.ndarray:
    """The target point: the unique fixed point of P_Omega . f.

    Needs ``problem.reference_set_omega``. Banach iteration with the
    contraction a-posteriori stop: once the step size drops below
    tol * (1 - rho) / rho, the iterate is within tol of the fixed point.
    """
    omega = problem.reference_set_omega
    if omega is None:
        raise ConfigurationError(
            "reference_solution needs problem.reference_set_omega (the closed-form target set)"
        )
    if not tol > 0:
        raise ConfigurationError("tol must be > 0")
    rho = problem.rho
    x = project(omega, np.zeros(problem.dim))
    step = np.inf
    for _ in range(max_iter):
        x_next = project(omega, np.asarray(problem.map_f(x), dtype=float))
        step = norm(x_next - x)
        x = x_next
        if rho == 0.0 or step * rho / (1.0 - rho) <= tol:
            return x
    raise NonConvergenceError(
        f"reference solve did not reach tol={tol} in {max_iter} iterations",
        residual=step,
        iterations=max_iter,
    )


def xu_recursion(a1, gamma, r, delta, n: int) -> list:
    """Run a_{k+1} = (1 - gamma_k) a_k + gamma_k r_k + delta_k with equality.

    Returns [a_1, ..., a_n]: the extremal majorant of the comparison
    inequality, used as a numeric oracle for convergence diagnostics.
    ``gamma``, ``r`` and ``delta`` may be callables of k >= 1 or indexable
    sequences. Arithmetic follows the input scalar types: pass
    ``fractions.Fraction`` values for exact evaluation.
    """
    if a1 < 0:
        raise ValueError(f"a1 must be >= 0, got {a1}")
    if n < 1:
        raise ValueError(f"n must be >= 1, got {n}")
    gamma_f = gamma if callable(gamma) else (lambda k: gamma[k - 1])
    r_f = r if callable(r) else (lambda k: r[k - 1])
    delta_f = delta if callable(delta) else (lambda k: delta[k - 1])
    a = a1
    out = [a]
    for k in range(1, n):
        g = gamma_f(k)
        if not (0 <= g <= 1):
            raise ValueError(f"gamma_{k} = {g} outside [0, 1]")
        a = (1 - g) * a + g * r_f(k) + delta_f(k)
        out.append(a)
    return out


# --------------------------------------------------------------------------
# structural digest (stable across processes; no addresses, no timestamps)


def _jsonable(obj):
    if dataclasses.is_dataclass(obj) and not isinstance(obj, type):
        out = {"type": type(obj).__name__}
        for f in dataclasses.fields(obj):
            out[f.name] = _jsonable(getattr(obj, f.name))
        return out
    if isinstance(obj, np.ndarray):
        return obj.tolist()
    if isinstance(obj, (np.floating, np.integer)):
        return obj.item()
    if isinstance(obj, (list, tuple)):
        return [_jsonable(v) for v in obj]
    if isinstance(obj, dict):
        return {str(k): _jsonable(v) for k, v in obj.items()}
    if callable(obj):
        return getattr(obj, "__qualname__", type(obj).__name__)
    return obj


def config_digest(cfg) -> str:
    """Short stable hash of a configuration's structure and numbers."""
    blob = json.dumps(_jsonable(cfg), sort_keys=True).encode()
    return hashlib.sha256(blob).hexdigest()[:16]
