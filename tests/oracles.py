"""Oracles the tests share: one step of a run from any iterate, the scalar comparison recursion,
the checked inner product, lambda_max of B^T B, the plain Banach reference solve, the viscosity map
written out and the 2-D benchmark's perturbed iteration in 40-digit arithmetic."""

import math
import warnings

import numpy as np

from viscosolve import (
    ConfigurationError,
    DimensionMismatchError,
    NonConvergenceError,
    NonFiniteError,
    ScheduleViolationWarning,
    alpha_at,
    lambda_at,
    norm,
    perturbation_stream,
    project,
    project_rows,
)
from viscosolve.operators import rows_of
from viscosolve.solvers import _build_step


def step_at(x, k, cfg):
    """x_{k+1} from x_k = ``x``: the step ``run`` builds for ``cfg``'s rule, at alpha_k, 1 - alpha_k, lambda_k, e_k."""
    e = perturbation_stream(cfg.perturbation, 1, cfg.problem.dim, k)[0]
    step = _build_step(cfg.problem, cfg.algorithm)
    a = alpha_at(cfg.schedule, k)
    return step(np.asarray(x, dtype=float), a, 1.0 - a, lambda_at(cfg.schedule, k), e, None, None, None)


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


def inner(x: np.ndarray, y: np.ndarray) -> float:
    """Standard inner product sum_i x_i * y_i."""
    if np.shape(x) != np.shape(y):
        raise DimensionMismatchError(
            f"inner product needs equal dimensions, got {np.shape(x)} and {np.shape(y)}"
        )
    out = float(np.dot(x, y))
    if not math.isfinite(out):
        raise NonFiniteError("inner product is not finite (NaN/Inf or overflowing input)")
    return out


def ls_lipschitz(B) -> float:
    """Largest eigenvalue of B^T B (squared spectral norm of B).

    This is the Lipschitz constant of x -> B^T(Bx - b); its reciprocal is the
    cocoercivity modulus of that gradient.
    """
    B = np.asarray(B, dtype=float)
    if B.ndim != 2 or not np.any(B != 0):
        raise ValueError("B must be a nonzero 2-D matrix")
    return float(np.linalg.eigvalsh(B.T @ B)[-1])


def banach_reference_solution(problem, tol: float = 1e-12, max_iter: int = 100_000) -> np.ndarray:
    """The target point, the unique fixed point of P_Omega . f, by plain Banach iteration.

    Needs ``problem.reference_set_omega``. Stops with the contraction
    a-posteriori rule: once the step size drops below tol * (1 - rho) / rho,
    the iterate is within tol of the fixed point.
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


def viscosity_map(x, problem, t: float, mu: float) -> np.ndarray:
    """t f(x) + (1 - t) S(P_Q(x - mu A(x))), with its own arithmetic rather than the explicit step's.

    Lipschitz with factor <= 1 - sigma * t where sigma = 1 - rho, hence a
    strict contraction for every t in (0, 1]. A (C, d) array ``x`` is mapped
    row by row through the row kernels, each row bit-identical to its 1-D call.
    """
    if not (0 < t <= 1):
        raise ConfigurationError(f"t must be in (0, 1], got {t}")
    nu = problem.nu
    if mu < 0 or mu > 2 * nu:
        msg = f"lambda = {mu} outside [0, 2*nu = {2 * nu}]"
        warnings.warn(msg, ScheduleViolationWarning, stacklevel=2)
    if np.ndim(x) == 2:
        f, A, S = (rows_of(m) for m in (problem.map_f, problem.map_A, problem.map_S))
        return t * f(x) + (1.0 - t) * S(project_rows(problem.set_Q, x - mu * A(x)))
    fx = problem.map_f(x)
    z = project(problem.set_Q, x - mu * problem.map_A(x))
    return t * fx + (1.0 - t) * problem.map_S(z)


def perturbed_benchmark_mp(problem, theta: float, lam: float, x1, e, n: int, digits: int = 40) -> list:
    """x_1 .. x_n of the perturbed rule on the 2-D benchmark problem, in mpmath at ``digits`` digits.

    The benchmark's pieces, written out: P is the projection onto the
    nonnegative orthant, A x = B^T (B x - b) with ``problem.map_A``'s B and b,
    f the trig contraction and S the identity. Step k adds the double e[k - 1]
    (row k of the run's own perturbation stream), and alpha_k = k**(-theta) is
    evaluated in mpmath. Returns each x_k as a list of mpf.
    """
    import mpmath

    with mpmath.workdps(digits):
        mpf = mpmath.mpf
        B = [[mpf(float(v)) for v in row] for row in problem.map_A.B]
        b = [mpf(float(v)) for v in problem.map_A.b]
        lam, theta = mpf(lam), mpf(theta)
        x = [mpf(float(v)) for v in x1]
        xs = [x]
        for k in range(1, n):
            a = mpf(k) ** -theta
            r = [sum(Bi[j] * x[j] for j in range(2)) - bi for Bi, bi in zip(B, b)]
            y = [max(x[j] - lam * sum(B[i][j] * r[i] for i in range(len(b))), 0) for j in range(2)]
            s = x[0] + x[1]
            f = [(5 + mpmath.cos(s)) / 2, (6 - mpmath.sin(s)) / 2]
            x = [max(a * f[j] + (1 - a) * y[j] + mpf(float(e[k - 1][j])), 0) for j in range(2)]
            xs.append(x)
    return xs
