"""Runtime diagnostics backing the ``check`` CLI command.

:func:`hypothesis_report` grades the five standing hypotheses of the strong
convergence theory on a schedule and perturbation over a finite horizon,
with analytic verdicts for the recognized closed-form schedules and
consistency checks for tabulated ones.

:func:`run_property_checks` evaluates each structural inequality the
convergence theory relies on, over seeded random samples, and reports its
worst violation. These mirror the test suite but run against whatever
problem the user configured.
"""

from __future__ import annotations

import math

import numpy as np

from .operators import LeastSquaresGradient, ProblemSpec, rows_of
from .projections import project_rows, sample
from .schedules import (
    ANALYTIC, CONSISTENT, VIOLATED, _MAX_BYTES, ConstantLambda, NoPerturbation, Perturbation, PowerAlpha, ScheduleSpec,
    _block_steps, _generator, perturbation_stream, tabulate,
)
from .solvers import _target_point, viscosity_map
from .space import NonFiniteError, record, row_inners, row_norms

__all__ = ["HypothesisCheck", "HypothesisReport", "hypothesis_report", "CheckResult", "run_property_checks"]


# --------------------------------------------------------------------------
# hypothesis grader


@record
class HypothesisCheck:
    key: str
    statement: str
    verdict: str
    evidence: dict


@record
class HypothesisReport:
    """Verdicts for the five standing hypotheses, graded over k <= n.

    Analytic verdicts are issued only for recognized closed-form schedules;
    tabulated schedules receive finite-horizon consistency verdicts, which
    certify nothing about the limit.
    """

    checks: tuple[HypothesisCheck, ...]
    n: int
    nu: float

    def __getitem__(self, key: str) -> HypothesisCheck:
        for c in self.checks:
            if c.key == key:
                return c
        raise KeyError(key)

    def all_satisfied(self) -> bool:
        return all(c.verdict != VIOLATED for c in self.checks)


def _tame_increments(num: np.ndarray, ref: np.ndarray) -> bool:
    # finite-horizon consistency: the increment/ref ratio and the increment
    # partial sums should both be settling in the tail half
    inc = np.abs(np.diff(num))
    if inc.size < 4:
        return True
    half = inc.size // 2
    ratio = inc / np.maximum(ref[:-1], 1e-300)
    ratio_settling = np.median(ratio[half:]) <= np.median(ratio[:half]) + 1e-12
    sums_settling = inc[half:].sum() <= inc[:half].sum() + 1e-12
    return bool(ratio_settling or sums_settling)


@np.errstate(over="ignore", invalid="ignore", divide="ignore")  # an alpha_k that underflows to 0 reads inf or nan
def hypothesis_report(
    s: ScheduleSpec,
    p: Perturbation,
    n: int,
    *,
    nu: float,
    dim: int = 2,
) -> HypothesisReport:
    """Grade hypotheses (i)-(v) of the strong-convergence theory over k <= n.

    (i)   alpha_k -> 0 and sum alpha_k = +inf
    (ii)  0 < liminf lambda_k <= limsup lambda_k < 2 nu
    (iii) |d alpha_k| / alpha_k -> 0 or sum |d alpha_k| < inf
    (iv)  |d lambda_k| / alpha_k -> 0 or sum |d lambda_k| < inf
    (v)   ||e_k|| / alpha_k -> 0 or sum ||e_k|| < inf
    """
    if n < 2:
        raise ValueError("need n >= 2 to grade the hypotheses")
    if n * 8 > _MAX_BYTES:  # before the loop that tabulates alpha_k
        raise ValueError(f"n = {n} steps are more than numpy can tabulate")
    alphas, lams = tabulate(s, n)
    block, generator = _block_steps(dim), _generator(p)  # the stream one block at a time: only its norms are kept
    e_norms = np.concatenate([
        np.linalg.norm(perturbation_stream(p, min(block, n + 1 - k0), dim, k0, generator), axis=1)
        for k0 in range(1, n + 1, block)
    ])

    half = n // 2
    evidence_alpha = {
        "alpha_last": float(alphas[-1]),
        "alpha_partial_sum": float(alphas.sum()),
        "alpha_ratio_last": float(abs(alphas[-1] - alphas[-2]) / alphas[-2]),
        "sum_abs_dalpha": float(np.abs(np.diff(alphas)).sum()),
    }
    evidence_lambda = {
        "lambda_liminf_est": float(lams[half:].min()),
        "lambda_limsup_est": float(lams[half:].max()),
        "sum_abs_dlambda": float(np.abs(np.diff(lams)).sum()),
        "two_nu": float(2 * nu),
    }
    evidence_e = {
        "e_norm_sum": float(e_norms.sum()),
        "e_over_alpha_last": float(e_norms[-1] / alphas[-1]),
    }

    # (i)
    if isinstance(s.alpha, PowerAlpha):
        theta = s.alpha.theta
        if theta <= 1:
            v1 = ANALYTIC  # k**(-theta) -> 0 and the p-series diverges
        else:
            v1 = VIOLATED  # the p-series converges
    else:
        decaying = alphas[-1] <= 0.5 * alphas.max()
        v1 = CONSISTENT if decaying else VIOLATED
    c1 = HypothesisCheck("i", "alpha_k -> 0 and sum(alpha_k) diverges", v1, evidence_alpha)

    # (ii)
    lo, hi = evidence_lambda["lambda_liminf_est"], evidence_lambda["lambda_limsup_est"]
    inside = 0 < lo <= hi < 2 * nu
    if isinstance(s.lam, ConstantLambda):
        v2 = ANALYTIC if inside else VIOLATED
    else:
        v2 = CONSISTENT if inside else VIOLATED
    c2 = HypothesisCheck("ii", "0 < liminf lambda <= limsup lambda < 2*nu", v2, evidence_lambda)

    # (iii)
    if isinstance(s.alpha, PowerAlpha):
        # theta < 1: |d alpha|/alpha ~ theta/k -> 0; theta >= 1: monotone
        # decay makes sum |d alpha| telescope to alpha_1 - lim alpha < inf
        v3 = ANALYTIC
    else:
        v3 = CONSISTENT if _tame_increments(alphas, alphas) else VIOLATED
    c3 = HypothesisCheck("iii", "alpha increments vanish relative to alpha or are summable", v3, evidence_alpha)

    # (iv)
    if isinstance(s.lam, ConstantLambda):
        v4 = ANALYTIC  # increments are identically zero
    else:
        v4 = CONSISTENT if _tame_increments(lams, alphas) else VIOLATED
    c4 = HypothesisCheck("iv", "lambda increments vanish relative to alpha or are summable", v4, evidence_lambda)

    # (v): e_k = 0, or ||e_k|| <= sqrt(dim)/k**2, absolutely summable
    if not isinstance(p, NoPerturbation):
        evidence_e["e_norm_sum_bound"] = float(math.sqrt(dim) * math.pi**2 / 6)
    c5 = HypothesisCheck("v", "perturbation norms vanish relative to alpha or are summable", ANALYTIC, evidence_e)

    return HypothesisReport(checks=(c1, c2, c3, c4, c5), n=n, nu=float(nu))


# --------------------------------------------------------------------------
# property battery


@record
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
