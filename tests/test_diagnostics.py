"""The property battery on row kernels gives the per-pair loop's results, bit for bit."""

from dataclasses import dataclass

import numpy as np
import pytest

from viscosolve import (
    AffineMap,
    Ball,
    Box,
    ConstantAnchor,
    Halfspace,
    Hyperplane,
    Identity,
    LeastSquaresGradient,
    NonFiniteError,
    NonnegOrthant,
    ParameterError,
    ProblemSpec,
    Simplex,
    build_benchmark_problem,
    norm,
    project,
    reference_solution,
    sample,
    viscosity_map,
)
from viscosolve.diagnostics import CheckResult, run_property_checks

from oracles import inner

SET_KINDS = ("orthant", "box", "ball", "halfspace", "hyperplane", "simplex")


def _gauss_points(rng, dim, n, scale=2.0):
    return rng.normal(scale=scale, size=(n, dim))


def per_pair_battery(problem, *, seed=0, n_pairs=1000, lambdas=(0.05, 0.1, 0.19)):
    """The battery as a loop over the sample pairs through the 1-D functions: the oracle."""
    rng = np.random.default_rng(seed)
    Q = problem.set_Q
    d = problem.dim
    results = []

    def add(name, worst, tol, detail=""):
        results.append(CheckResult(name, bool(worst <= tol), float(worst), detail or f"tol {tol:g}"))

    xs = _gauss_points(rng, d, n_pairs)
    worst = max(norm(project(Q, project(Q, x)) - project(Q, x)) for x in xs)
    add("projection_idempotence", worst, 1e-12)

    ys = sample(Q, rng, n_pairs)
    worst = max(inner(project(Q, x) - x, project(Q, x) - y) for x, y in zip(xs, ys))
    add("projection_variational", worst, 1e-10)

    xs2 = _gauss_points(rng, d, n_pairs)
    worst = max(
        norm(project(Q, x) - project(Q, y)) ** 2 - inner(project(Q, x) - project(Q, y), x - y)
        for x, y in zip(xs, xs2)
    )
    add("projection_firmly_nonexpansive", worst, 1e-10)

    A, nu = problem.map_A, problem.nu
    ps, qs = sample(Q, rng, n_pairs), sample(Q, rng, n_pairs)
    worst = max(nu * norm(A(p) - A(q)) ** 2 - inner(A(p) - A(q), p - q) for p, q in zip(ps, qs))
    add("ism_inequality", worst, 1e-10, f"nu = {nu:g}")

    for lam in lambdas:
        worst = max(
            norm((p - lam * A(p)) - (q - lam * A(q))) ** 2
            - (norm(p - q) ** 2 - lam * (2 * nu - lam) * norm(A(p) - A(q)) ** 2)
            for p, q in zip(ps, qs)
        )
        add(f"descent_inequality_lambda_{lam:g}", worst, 1e-10)

    for t in (0.1, 0.5, 1.0):
        worst = max(
            norm(viscosity_map(p, problem, t, nu) - viscosity_map(q, problem, t, nu))
            - (1 - problem.sigma * t) * norm(p - q)
            for p, q in zip(ps, qs)
        )
        add(f"viscosity_contraction_t_{t:g}", worst, 1e-10)

    rho = problem.rho
    worst = max(
        norm(np.asarray(problem.map_f(p)) - np.asarray(problem.map_f(q))) - rho * norm(p - q)
        for p, q in zip(ps, qs)
    )
    add("contraction_modulus_f", worst, 1e-8, f"rho = {rho:g}")

    if isinstance(A, LeastSquaresGradient):
        h = 1e-6
        worst = 0.0
        for p in ps[:50]:
            g = A(p)
            fd = np.empty(d)
            for i in range(d):
                dp = np.zeros(d)
                dp[i] = h * max(1.0, abs(p[i]))
                fd[i] = (A.objective(p + dp) - A.objective(p - dp)) / (2 * dp[i])
            worst = max(worst, norm(fd - g) / max(norm(g), 1e-12))
        add("gradient_finite_difference", worst, 1e-6)

    if problem.reference_set_omega is not None:
        qstar = reference_solution(problem, tol=1e-12)
        gap = np.asarray(problem.map_f(qstar)) - qstar
        omega_pts = sample(problem.reference_set_omega, rng, n_pairs)
        worst = max(inner(gap, x - qstar) for x in omega_pts)
        add("target_variational_inequality", worst, 1e-8)

    return results


def assert_same_results(got, want):
    assert [(r.name, r.passed, r.detail) for r in got] == [(r.name, r.passed, r.detail) for r in want]
    for g, w in zip(got, want):
        assert np.float64(g.worst).tobytes() == np.float64(w.worst).tobytes(), (g.name, g.worst, w.worst)


def make_set(kind, rng, d):
    if kind == "orthant":
        return NonnegOrthant(d)
    if kind == "box":
        lo = rng.uniform(-2.0, 0.0, size=d)
        return Box(lo, lo + rng.uniform(0.5, 2.0, size=d))
    if kind == "ball":
        return Ball(rng.normal(size=d), float(rng.uniform(1.0, 3.0)))
    if kind == "halfspace":
        return Halfspace(rng.normal(size=d), float(rng.uniform(-1.0, 1.0)))
    if kind == "hyperplane":
        return Hyperplane(rng.normal(size=d), float(rng.uniform(-1.0, 1.0)))
    return Simplex(float(rng.uniform(1.0, 3.0)), d)


class Pull:
    """x -> u + s (x - u): a plain callable class without ``rows``; maps a convex set holding u into itself."""

    def __init__(self, u, s):
        self.u, self.lipschitz, self.dim = np.asarray(u, dtype=float), float(s), len(u)

    def __call__(self, x):
        return self.u + self.lipschitz * (x - self.u)


@dataclass(frozen=True, eq=False)
class ScaledShift:
    """A(x) = c (x - z), cocoercive with modulus 1 / c; ``claimed`` over-states it when set."""

    c: float
    z: np.ndarray
    claimed: float | None = None

    @property
    def dim(self):
        return len(self.z)

    @property
    def ism_modulus(self):
        return 1.0 / self.c if self.claimed is None else self.claimed

    def __call__(self, x):
        return self.c * (x - self.z)


def make_problem(kind, d, variant, with_omega, seed):
    """One problem per (set kind, d); ``variant`` picks the maps, with and without ``rows``."""
    rng = np.random.default_rng(seed)
    Q = make_set(kind, rng, d)
    u = sample(Q, rng, 1)[0]
    if variant == 0:  # rows for S and A, none for f
        S, A, f = Identity(d), LeastSquaresGradient(rng.normal(size=(d + 1, d)), rng.normal(size=d + 1)), ConstantAnchor(u)
    elif variant == 1:  # AffineMap and plain callables: no rows anywhere
        S, A, f = AffineMap(np.eye(d), np.zeros(d)), ScaledShift(float(rng.uniform(0.5, 2.0)), rng.normal(size=d)), Pull(u, 0.5)
    else:  # a square least-squares A, a plain callable S, an AffineMap f
        S = Pull(u, 1.0)
        A = LeastSquaresGradient(rng.normal(size=(d, d)) + np.eye(d), rng.normal(size=d))
        f = AffineMap(0.5 * np.eye(d), 0.5 * u)
    omega = make_set(kind, rng, d) if with_omega else None
    return ProblemSpec(set_Q=Q, map_S=S, map_A=A, map_f=f, reference_set_omega=omega)


@pytest.mark.parametrize("with_omega", (False, True))
@pytest.mark.parametrize("d", range(1, 9))
@pytest.mark.parametrize("kind", SET_KINDS)
def test_row_battery_equals_per_pair_loop(kind, d, with_omega):
    seed = 1000 * d + 10 * SET_KINDS.index(kind) + with_omega
    problem = make_problem(kind, d, seed % 3, with_omega, seed)
    want = per_pair_battery(problem, seed=seed, n_pairs=120)
    assert_same_results(run_property_checks(problem, seed=seed, n_pairs=120), want)


@pytest.mark.parametrize("variant", range(3))
def test_every_map_family_on_every_set(variant):
    for kind in SET_KINDS:
        problem = make_problem(kind, 3, variant, True, 7 + variant)
        assert_same_results(run_property_checks(problem, seed=3, n_pairs=60), per_pair_battery(problem, seed=3, n_pairs=60))


def test_benchmark_battery_equals_per_pair_loop():
    # TrigContraction, LeastSquaresGradient and Identity all step through their rows here
    problem = build_benchmark_problem()
    got = run_property_checks(problem)
    assert_same_results(got, per_pair_battery(problem))
    assert all(r.passed for r in got)


@pytest.mark.parametrize("battery", (run_property_checks, per_pair_battery), ids=("rows", "oracle"))
def test_over_claimed_ism_modulus_fails_the_ism_check(battery):
    rng = np.random.default_rng(5)
    z = rng.normal(size=3)
    honest = ProblemSpec(NonnegOrthant(3), Identity(3), ScaledShift(2.0, z), ConstantAnchor([1.0, 2.0, 0.5]))
    liar = ProblemSpec(NonnegOrthant(3), Identity(3), ScaledShift(2.0, z, claimed=1.0), ConstantAnchor([1.0, 2.0, 0.5]))
    assert {r.name: r.passed for r in battery(honest, n_pairs=200)}["ism_inequality"]
    results = battery(liar, n_pairs=200)
    ism = {r.name: r for r in results}["ism_inequality"]
    assert not ism.passed and ism.worst > 1.0 and ism.detail == "nu = 1"
    if battery is run_property_checks:
        assert_same_results(results, per_pair_battery(liar, n_pairs=200))


class InfBeyondOne:
    """A(x) = x, except inf once the first coordinate passes 1."""

    ism_modulus = 1.0

    def __call__(self, x):
        return np.full_like(x, np.inf) if x[0] > 1.0 else x


@pytest.mark.parametrize("battery", (
    pytest.param(run_property_checks, id="rows"),
    # the oracle subtracts inf from inf on its way to the norm that raises
    pytest.param(per_pair_battery, id="oracle",
                 marks=pytest.mark.filterwarnings("ignore:invalid value encountered:RuntimeWarning")),
))
def test_a_map_returning_inf_raises(battery):
    problem = ProblemSpec(NonnegOrthant(2), Identity(2), InfBeyondOne(), ConstantAnchor([0.5, 0.5]))
    with pytest.raises(NonFiniteError):
        battery(problem, n_pairs=100)


def test_viscosity_map_on_rows_equals_each_row_and_keeps_its_guards():
    rng = np.random.default_rng(9)
    for variant in range(3):
        problem = make_problem("ball", 4, variant, False, 21 + variant)
        X = sample(problem.set_Q, rng, 9)
        for t in (0.1, 1.0):
            want = np.stack([viscosity_map(x, problem, t, problem.nu) for x in X])
            assert viscosity_map(X, problem, t, problem.nu).tobytes() == want.tobytes()
        for t in (0.0, 1.5):
            with pytest.raises(ParameterError):
                viscosity_map(X, problem, t, problem.nu)
