"""Oracles the tests share: one step of a run from any iterate, the scalar comparison recursion
and the checked inner product."""

import math

import numpy as np

from viscosolve import DimensionMismatchError, NonFiniteError, alpha_at, lambda_at, perturbation_stream
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
