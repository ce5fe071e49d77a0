"""Runtime property checks backing the ``check`` CLI command.

Each check evaluates one structural inequality the convergence theory relies
on, over seeded random samples, and reports its worst violation. These mirror
the test suite but run against whatever problem the user configured.
"""

from __future__ import annotations

from dataclasses import dataclass

import numpy as np

from .operators import LeastSquaresGradient, ProblemSpec, rows_of
from .projections import project_rows, sample
from .solvers import _target_point, viscosity_map
from .space import NonFiniteError, row_inners, row_norms

__all__ = ["CheckResult", "run_property_checks"]


@dataclass(frozen=True)
class CheckResult:
    name: str
    passed: bool
    worst: float
    detail: str


def _finite(values: np.ndarray, what: str) -> list:
    """The entries as Python floats, after the finiteness check of :func:`~viscosolve.space.norm`."""
    if not np.isfinite(values).all():
        raise NonFiniteError(f"{what} is not finite (NaN/Inf or overflowing input)")
    return values.tolist()


def _norms(X) -> list:
    return _finite(row_norms(X), "norm")


def _inners(X, Y) -> list:
    return _finite(row_inners(X, Y), "inner product")


def run_property_checks(
    problem: ProblemSpec,
    *,
    seed: int = 0,
    n_pairs: int = 1000,
) -> list[CheckResult]:
    """Run the structural property battery; returns one result per check.

    Every check maps the whole block of sample points at once through the
    row kernels (``project_rows``, ``rows_of``, ``row_norms``,
    ``row_inners``), each row bit-identical to the 1-D call, then applies its
    inequality to the per-pair norms and inner products as Python floats, so
    that ``worst`` is the value a loop over the pairs would find. (``v ** 2``
    on a Python float is libm ``pow``, which rounds differently from
    ``v * v`` in about 1 of 1000 cases.) A map value that is not finite
    raises :class:`NonFiniteError` at the first norm or inner product it
    reaches, without a numpy warning on the way.
    """
    with np.errstate(invalid="ignore", over="ignore"):
        return _battery(problem, seed, n_pairs)


def _battery(problem, seed, n_pairs) -> list[CheckResult]:
    rng = np.random.default_rng(seed)
    Q = problem.set_Q
    d = problem.dim
    results = []

    def add(name, worst, tol, detail=""):
        results.append(CheckResult(name, bool(worst <= tol), float(worst), detail or f"tol {tol:g}"))

    # projection idempotence: ||P(P x) - P x|| <= 1e-12
    xs = rng.normal(scale=2.0, size=(n_pairs, d))
    Pxs = project_rows(Q, xs)
    worst = max(_norms(project_rows(Q, Pxs) - Pxs))
    add("projection_idempotence", worst, 1e-12)

    # variational characterization: <P x - x, P x - y> <= 1e-10 for y in Q
    ys = sample(Q, rng, n_pairs)
    worst = max(_inners(Pxs - xs, Pxs - ys))
    add("projection_variational", worst, 1e-10)

    # firm nonexpansiveness: ||Px - Py||^2 - <Px - Py, x - y> <= 1e-10
    xs2 = rng.normal(scale=2.0, size=(n_pairs, d))
    dP = Pxs - project_rows(Q, xs2)
    worst = max(a ** 2 - b for a, b in zip(_norms(dP), _inners(dP, xs - xs2)))
    add("projection_firmly_nonexpansive", worst, 1e-10)

    # cocoercivity: nu ||Ax - Ay||^2 - <Ax - Ay, x - y> <= 1e-10 on Q
    A, nu = problem.map_A, problem.nu
    ps, qs = sample(Q, rng, n_pairs), sample(Q, rng, n_pairs)
    A_rows = rows_of(A)
    Aps, Aqs = A_rows(ps), A_rows(qs)
    dA = _norms(Aps - Aqs)
    dpq = _norms(ps - qs)
    worst = max(nu * a ** 2 - b for a, b in zip(dA, _inners(Aps - Aqs, ps - qs)))
    add("ism_inequality", worst, 1e-10, f"nu = {nu:g}")

    # forward-step descent: ||(I-lam A)x - (I-lam A)y||^2
    #   <= ||x-y||^2 - lam (2 nu - lam) ||Ax-Ay||^2 + 1e-10
    for lam in (0.05, 0.1, 0.19):
        dF = _norms((ps - lam * Aps) - (qs - lam * Aqs))
        worst = max(a ** 2 - (b ** 2 - lam * (2 * nu - lam) * c ** 2) for a, b, c in zip(dF, dpq, dA))
        add(f"descent_inequality_lambda_{lam:g}", worst, 1e-10)

    # viscosity contraction factor: ||T x - T y|| <= (1 - sigma t) ||x - y||
    for t in (0.1, 0.5, 1.0):
        dT = _norms(viscosity_map(ps, problem, t, nu) - viscosity_map(qs, problem, t, nu))
        factor = 1 - problem.sigma * t
        worst = max(a - factor * b for a, b in zip(dT, dpq))
        add(f"viscosity_contraction_t_{t:g}", worst, 1e-10)

    # contraction modulus of f as measured ratio
    rho = problem.rho
    f_rows = rows_of(problem.map_f)
    worst = max(a - rho * b for a, b in zip(_norms(f_rows(ps) - f_rows(qs)), dpq))
    add("contraction_modulus_f", worst, 1e-8, f"rho = {rho:g}")

    # gradient vs central finite differences (least-squares operators only)
    if isinstance(A, LeastSquaresGradient):
        h = 1e-6
        p50 = ps[:50]
        steps = h * np.maximum(1.0, np.abs(p50))  # the step along coordinate i of each point
        shifts = (steps[:, :, None] * np.eye(d)).reshape(-1, d)  # one row per (point, coordinate)
        centres = np.repeat(p50, d, axis=0)
        plus = [A.objective(x) for x in centres + shifts]
        minus = [A.objective(x) for x in centres - shifts]
        fd = (np.array(plus) - minus).reshape(-1, d) / (2 * steps)
        g = A_rows(p50)
        worst = max(0.0, *(a / max(b, 1e-12) for a, b in zip(_norms(fd - g), _norms(g))))
        add("gradient_finite_difference", worst, 1e-6)

    # target-point inequality: <f(q*) - q*, x - q*> <= 1e-8 over the target set
    qstar = _target_point(problem)
    if qstar is not None:
        gap = np.asarray(problem.map_f(qstar)) - qstar
        omega_pts = sample(problem.reference_set_omega, rng, n_pairs)
        worst = max(_inners(np.broadcast_to(gap, omega_pts.shape), omega_pts - qstar))
        add("target_variational_inequality", worst, 1e-8)

    return results
