import dataclasses
import hashlib
import json
import math
from fractions import Fraction

import numpy as np
import pytest

import viscosolve.solvers as solvers
from viscosolve import configio, schedules
from viscosolve.experiment import ExperimentConfig, emit_report, run_experiment
from viscosolve.operators import _jsonable
from viscosolve import (
    AffineMap,
    Ball,
    Box,
    ConfigurationError,
    ConstantAnchor,
    ConstantLambda,
    DivergenceError,
    EXPLICIT_VISCOSITY,
    HALPERN,
    Hyperplane,
    Identity,
    ImplicitConfig,
    LeastSquaresGradient,
    NoPerturbation,
    NonConvergenceError,
    NonnegOrthant,
    PERTURBED,
    PowerAlpha,
    ProblemSpec,
    RunTrace,
    ScheduleSpec,
    Simplex,
    SolverConfig,
    TAKAHASHI_TOYODA,
    TableAlpha,
    TrigContraction,
    UniformSquarePerturbation,
    YAO_INNER,
    YAO_OUTER,
    benchmark_schedule,
    contains,
    implicit_path,
    norm,
    perturbation_stream,
    project,
    reference_solution,
    run,
    sample,
    viscosity_map,
)

from oracles import banach_reference_solution, inner, perturbed_benchmark_mp, step_at, xu_recursion


def make_cfg(problem, qstar=None, **kw):
    defaults = dict(
        problem=problem,
        schedule=benchmark_schedule(0.9, problem=problem),
        x1=[2.0, 3.0],
        n_max=500,
        algorithm=EXPLICIT_VISCOSITY,
    )
    if qstar is not None:
        defaults["reference"] = qstar
    defaults.update(kw)
    return SolverConfig(**defaults)


# -------------------------------------------------------------- step rules


def test_explicit_first_step_collapses_to_contraction(problem):
    # alpha_1 = 1 for every exponent
    for theta in (0.1, 0.5, 0.9, 1.0):
        cfg = make_cfg(problem, schedule=benchmark_schedule(theta, problem=problem))
        out = step_at(np.array([2.0, 3.0]), 1, cfg)
        assert np.allclose(out, problem.map_f(np.array([2.0, 3.0])), atol=1e-15)
        assert np.allclose(out, [2.64183, 3.47946], atol=5e-6)


def test_step_is_stationary_at_anchored_fixed_point(problem, qstar):
    # with f constant at the reference point, every step fixes it
    prob = dataclasses.replace(problem, map_f=ConstantAnchor(qstar))
    cfg = make_cfg(prob)
    for k in (1, 2, 10, 100):
        assert norm(step_at(qstar, k, cfg) - qstar) <= 1e-15


def test_perturbed_step_adds_then_projects(problem):
    x = np.array([2.0, 3.0])
    cfg = make_cfg(problem, algorithm=PERTURBED)
    # extreme corner draw e = (1, 1) at k = 1: step lands on f(x1) + (1, 1)
    out = solvers._build_step(problem, PERTURBED)(x, 1.0, 0.0, 0.1, np.array([1.0, 1.0]), None, None, None)
    expected = problem.map_f(x) + 1.0
    assert np.allclose(out, expected, atol=1e-15)
    assert np.allclose(out, [3.64183, 4.47946], atol=5e-6)


def test_perturbed_step_with_zero_noise_reduces_bit_exactly(problem):
    cfg0 = make_cfg(problem, algorithm=PERTURBED, perturbation=NoPerturbation())
    cfg = make_cfg(problem)
    rng = np.random.default_rng(5)
    for k in (1, 2, 7, 33):
        x = np.abs(rng.normal(scale=2.0, size=2))
        lhs = step_at(x, k, cfg0)
        rhs = project(problem.set_Q, step_at(x, k, cfg))
        assert np.array_equal(lhs, rhs)


# -------------------------------------------------------------- run


@pytest.mark.parametrize("theta", (0.3, 0.9, 1.0))
def test_perturbed_run_tracks_a_40_digit_oracle(problem, theta):
    # the same e_k doubles drive both; the oracle takes alpha_k = k**(-theta) and every operation exactly
    n = 2000
    cfg = make_cfg(problem, schedule=benchmark_schedule(theta, 0.1), n_max=n, algorithm=PERTURBED,
                   perturbation=UniformSquarePerturbation(1))
    trace = run(cfg)
    oracle = perturbed_benchmark_mp(problem, theta, 0.1, cfg.x1, perturbation_stream(cfg.perturbation, n, 2), n)
    for k in (600, n):
        want = np.array([float(v) for v in oracle[k - 1]])
        assert norm(trace.x[k - 1] - want) <= 1e-13 * norm(want)


def test_run_trace_contract(problem, qstar):
    cfg = make_cfg(problem, qstar, n_max=400, algorithm=PERTURBED,
                   perturbation=UniformSquarePerturbation(3))
    tr = run(cfg)
    assert np.array_equal(tr.k, np.arange(1, 401))
    assert tr.x.shape == (400, 2)
    assert np.array_equal(tr.x[0], cfg.x1)
    assert tr.alpha[0] == 1.0
    assert np.all(tr.lam == 0.1)
    # iterates stay in Q
    for x in tr.x:
        assert contains(problem.set_Q, x, 1e-8)
    # rel_err definition
    assert tr.rel_err[5] == pytest.approx(norm(tr.x[5] - qstar) / norm(qstar), abs=1e-15)
    assert tr.metadata["algorithm"] == PERTURBED
    assert tr.metadata["seed"] == 3
    assert tr.metadata["prng"] == "numpy-pcg64"
    assert "config_digest" not in tr.metadata  # a caller passes its digest through extra_metadata


def _digest_by_definition(cfg):
    return hashlib.sha256(json.dumps(_jsonable(cfg), sort_keys=True).encode()).hexdigest()[:16]


def test_config_digest_equals_its_definition(problem, qstar):
    cfgs = [
        make_cfg(
            problem, qstar, algorithm=rule, anchor=[1.0, 1.0], rel_err_target=1e-3,
            perturbation=UniformSquarePerturbation(4), schedule=ScheduleSpec(TableAlpha([1.0, 0.5, 0.25]), ConstantLambda(0.1), (0.1, 0.1)),
        )
        for rule in solvers.ALGORITHMS
    ]
    cfgs.append(ExperimentConfig(thetas=(0.5, 0.9), seeds=(1, 2), problem=problem))
    cfgs.append(configio.resolve_config(None)[0])
    # a problem derived from one whose encoding is already kept encodes afresh
    other = dataclasses.replace(problem, map_f=ConstantAnchor([1.0, 1.6]))
    cfgs += [dataclasses.replace(cfgs[0], problem=other), problem, other]
    digests = [solvers.config_digest(c) for c in cfgs]
    assert digests == [_digest_by_definition(c) for c in cfgs]
    assert len(set(digests)) == len(digests)
    # the kept encoding is reused, not recomputed or changed
    assert solvers.config_digest(cfgs[0]) == digests[0]


def test_config_digest_of_short_lived_problems_never_goes_stale():
    # problems dropped after use free their ids for the next ones
    rng = np.random.default_rng(8)
    seen = set()
    for _ in range(60):
        d = int(rng.integers(1, 6))
        problem = ProblemSpec(
            NonnegOrthant(d), Identity(d), LeastSquaresGradient(rng.normal(size=(d, d)) + 3 * np.eye(d), rng.normal(size=d)),
            ConstantAnchor(np.abs(rng.normal(size=d))),
        )
        cfg = SolverConfig(problem=problem, schedule=benchmark_schedule(0.9, problem=problem), x1=np.ones(d), n_max=10)
        digest = solvers.config_digest(cfg)
        assert digest == _digest_by_definition(cfg)
        seen.add(digest)
        del problem, cfg
    assert len(seen) == 60


def test_run_deterministic_given_seed(problem, qstar):
    cfg = make_cfg(problem, qstar, algorithm=PERTURBED, perturbation=UniformSquarePerturbation(11))
    t1, t2 = run(cfg), run(cfg)
    assert np.array_equal(t1.x, t2.x)
    assert np.array_equal(t1.rel_err, t2.rel_err)
    assert t1.metadata == t2.metadata


def test_run_boundedness_invariant(problem, qstar):
    # ||x_n - q|| <= max(||x_1 - q||, ||f(q) - q|| / sigma) along the whole run
    cfg = make_cfg(problem, qstar, n_max=2000)
    tr = run(cfg)
    fq = np.asarray(problem.map_f(qstar))
    bound = max(norm(cfg.x1 - qstar), norm(fq - qstar) / problem.sigma)
    dists = np.linalg.norm(tr.x - qstar, axis=1)
    assert np.all(dists <= bound + 1e-8)


def test_run_successive_differences_vanish(problem):
    cfg = make_cfg(problem, n_max=6000)
    tr = run(cfg)
    d_first = norm(tr.x[1] - tr.x[0])
    d_last = norm(tr.x[-1] - tr.x[-2])
    assert d_last < d_first / 100


def test_run_early_stop_on_target(problem, qstar):
    cfg = make_cfg(problem, qstar, n_max=6000, rel_err_target=0.05)
    tr = run(cfg)
    assert tr.k.size < 6000
    assert tr.rel_err[-1] <= 0.05
    assert np.all(tr.rel_err[:-1] > 0.05)
    assert tr.metadata["stopped_at"] == int(tr.k[-1])


def test_rel_err_target_is_kept_as_a_finite_float_at_least_zero(problem, qstar):
    cfg = make_cfg(problem, qstar, rel_err_target=0)
    assert cfg.rel_err_target == 0.0 and type(cfg.rel_err_target) is float
    for bad in (float("nan"), float("inf"), -1.0, -1e-300):
        with pytest.raises(ConfigurationError, match="rel_err_target must be finite and >= 0"):
            make_cfg(problem, qstar, rel_err_target=bad)
    with pytest.raises(TypeError):  # a list is not a float
        make_cfg(problem, qstar, rel_err_target=[0.1])


def test_run_record_stride(problem, qstar):
    cfg = make_cfg(problem, qstar, n_max=100, record_stride=10)
    tr = run(cfg)
    assert list(tr.k) == [1, 11, 21, 31, 41, 51, 61, 71, 81, 91, 100]


def test_run_stride_still_records_stopping_row(problem, qstar):
    cfg = make_cfg(problem, qstar, n_max=6000, record_stride=1000, rel_err_target=0.05)
    tr = run(cfg)
    assert tr.rel_err[-1] <= 0.05
    assert tr.metadata["stopped_at"] == int(tr.k[-1])
    assert tr.k[-1] % 1000 != 1  # the hit fell off the stride grid and was kept anyway


def test_run_divergence_error():
    # forward step with lam far above 2/L on an unbounded set blows up
    anchor = np.array([0.0, 0.0])
    prob = ProblemSpec(
        set_Q=Hyperplane(normal=[1.0, 1.0], offset=0.0),
        map_S=Identity(2),
        map_A=LeastSquaresGradient(B=np.eye(2), b=[0.0, 0.0]),
        map_f=ConstantAnchor(anchor),
    )
    sched = ScheduleSpec(
        alpha=TableAlpha(np.full(1000, 0.5)), lam=ConstantLambda(50.0), bounds=(50.0, 50.0)
    )
    cfg = SolverConfig(problem=prob, schedule=sched, x1=[1.0, -1.0], n_max=1000)
    with pytest.warns(Warning):
        with pytest.raises(DivergenceError) as exc_info:
            run(cfg)
    err = exc_info.value
    assert np.isfinite(err.last_state).all()
    assert err.step > 1


def test_schedule_violation_recorded_but_run_proceeds(problem, qstar):
    sched = ScheduleSpec(alpha=PowerAlpha(0.9), lam=ConstantLambda(0.25), bounds=(0.25, 0.25))
    cfg = make_cfg(problem, qstar, schedule=sched, n_max=200)
    with pytest.warns(Warning, match="2\\*nu"):
        tr = run(cfg)
    assert tr.k.size == 200
    assert tr.metadata["schedule_violations_2nu"] == 200


def test_halpern_equals_explicit_with_constant_contraction(problem):
    u = np.array([1.0, 1.5])
    sched = benchmark_schedule(0.9, problem=problem)
    cfg_h = make_cfg(problem, schedule=sched, algorithm=HALPERN, anchor=u, n_max=1500)
    prob_const = dataclasses.replace(problem, map_f=ConstantAnchor(u))
    cfg_e = SolverConfig(problem=prob_const, schedule=sched, x1=[2.0, 3.0], n_max=1500)
    th, te = run(cfg_h), run(cfg_e)
    assert np.array_equal(th.x, te.x)


def test_halpern_requires_anchor(problem):
    with pytest.raises(ConfigurationError, match="anchor"):
        make_cfg(problem, algorithm=HALPERN)


def test_yao_variants_smoke(problem, qstar):
    u = np.array([1.0, 1.6])
    for algo in (YAO_OUTER, YAO_INNER):
        cfg = make_cfg(problem, algorithm=algo, anchor=u, beta=0.5, n_max=800)
        tr = run(cfg)
        assert np.isfinite(tr.x).all()
        for x in tr.x:
            assert contains(problem.set_Q, x, 1e-8)
        # averaged anchored runs drift toward the target set
        omega = problem.reference_set_omega
        assert norm(tr.x[-1] - project(omega, tr.x[-1])) < norm(tr.x[0] - project(omega, tr.x[0]))
    with pytest.raises(ConfigurationError, match="beta"):
        make_cfg(problem, algorithm=YAO_OUTER, anchor=u, beta=1.0)


def test_takahashi_toyoda_approaches_target_set(problem):
    cfg = make_cfg(problem, algorithm=TAKAHASHI_TOYODA,
                   schedule=benchmark_schedule(0.5, problem=problem), n_max=300)
    tr = run(cfg)
    omega = problem.reference_set_omega
    dist_end = norm(tr.x[-1] - project(omega, tr.x[-1]))
    assert dist_end <= 1e-6


def test_run_rejects_start_outside_q(problem):
    with pytest.raises(ConfigurationError, match="x1"):
        make_cfg(problem, x1=[-1.0, 2.0])


def test_run_coupling_bound(problem, qstar):
    # perturbed/clean pairs obey d+ <= (1 - sigma a) d + ||e||
    sched = benchmark_schedule(0.9, problem=problem)
    cfg_p = make_cfg(problem, qstar, schedule=sched, algorithm=PERTURBED,
                     perturbation=UniformSquarePerturbation(2), n_max=1500)
    cfg_c = make_cfg(problem, qstar, schedule=sched, n_max=1500)
    tp, tc = run(cfg_p), run(cfg_c)
    d = np.linalg.norm(tp.x - tc.x, axis=1)
    sigma = problem.sigma
    for j in range(d.size - 1):
        assert d[j + 1] <= (1 - sigma * tp.alpha[j]) * d[j] + tp.e_norm[j] + 1e-12


# -------------------------------------------------------------- implicit


def bisect_coordinate_sum():
    # independent oracle for the t = 1 solve: the fixed point of f has
    # coordinate sum s solving s = (11 + cos s - sin s) / 2, and
    # g(s) = s - rhs(s) is strictly increasing
    def g(s):
        return s - (11 + math.cos(s) - math.sin(s)) / 2

    lo, hi = 0.0, 20.0
    for _ in range(200):
        mid = (lo + hi) / 2
        if g(mid) > 0:
            hi = mid
        else:
            lo = mid
    return (lo + hi) / 2


def implicit_solve(t, icfg, problem, x0=None):
    """x_t: the one point of ``implicit_path`` over t alone."""
    (point,) = implicit_path(dataclasses.replace(icfg, t_values=(t,)), problem, x1=x0)
    return point.x


def test_implicit_solve_t1_matches_scalar_oracle(problem):
    icfg = ImplicitConfig(t_values=(1.0,), lambda_of_t=0.1)
    x = implicit_solve(1.0, icfg, problem, x0=[2.0, 3.0])
    s = bisect_coordinate_sum()
    expected = np.array([(5 + math.cos(s)) / 2, (6 - math.sin(s)) / 2])
    assert norm(x - expected) <= 1e-8
    # bisection puts the fixed point at (2.990470, 3.097157), sum 6.087627
    assert np.allclose(x, [2.990470, 3.097157], atol=5e-6)
    assert s == pytest.approx(6.087627, abs=5e-6)


def test_implicit_solve_residual_contract(problem):
    from viscosolve import viscosity_map

    icfg = ImplicitConfig(t_values=(1.0,), lambda_of_t=0.1, inner_tol=1e-10)
    for t in (1.0, 0.3, 0.05, 0.01):
        x = implicit_solve(t, icfg, problem, x0=[2.0, 3.0])
        assert norm(x - viscosity_map(x, problem, t, 0.1)) <= 1e-10


def test_implicit_solve_near_limit(problem, qstar):
    icfg = ImplicitConfig(t_values=(1.0,), lambda_of_t=0.1)
    x = implicit_solve(1e-4, icfg, problem, x0=[1.0, 1.6])
    assert norm(x - qstar) <= 1e-2


def test_implicit_path_single_t_equals_solve(problem):
    icfg = ImplicitConfig(t_values=(1.0,), lambda_of_t=0.1)
    pts = implicit_path(icfg, problem)
    assert len(pts) == 1
    x0 = project(problem.set_Q, np.zeros(problem.dim))  # the path's default start
    q = 1.0 - problem.sigma  # the factor of T_t at t = 1
    x, _ = solvers._anderson_solve(lambda y: viscosity_map(y, problem, 1.0, 0.1), q, x0,
                                   icfg.inner_tol, icfg.inner_tol, icfg.inner_max_iter, "implicit solve at t=1.0")
    assert np.array_equal(pts[0].x, x)


def test_implicit_path_refuses_a_start_outside_Q(problem):
    icfg = ImplicitConfig(t_values=(1.0,), lambda_of_t=0.1)
    with pytest.raises(ConfigurationError, match=r"x1 = .* is not in Q \(tolerance 1e-10\)"):
        implicit_path(icfg, problem, x1=[-1.0, 2.0])


def test_implicit_path_refuses_a_lambda_above_2nu_before_any_solve(problem, monkeypatch):
    # 2 nu = 0.2 is accepted and certified; above it I - lambda A is not nonexpansive
    assert problem.nu == 0.1
    for x in (None, [2.0, 3.0]):
        (p,) = implicit_path(ImplicitConfig(t_values=(1e-3,), lambda_of_t=0.2), problem, x1=x)
        assert p.residual <= 1e-10
        assert norm(p.x - viscosity_map(p.x, problem, 1e-3, 0.2)) <= 1e-10
    monkeypatch.setattr(solvers, "_anderson_solve", None)  # a solve, or the reference solve, would call it
    for lam in (0.25, 0.5):
        with pytest.raises(ConfigurationError, match=rf"implicit lambda = {lam} exceeds 2\*nu = 0.2"):
            implicit_path(ImplicitConfig(t_values=(1.0, 1e-5), lambda_of_t=lam), problem)


def test_implicit_path_distance_decreasing(problem):
    icfg = ImplicitConfig(t_values=(1.0, 0.5, 0.1, 0.01, 0.001), lambda_of_t=0.1)
    pts = implicit_path(icfg, problem, x1=[2.0, 3.0])
    dists = [p.dist_to_reference for p in pts]
    assert all(b < a for a, b in zip(dists, dists[1:]))


def test_implicit_solve_iteration_cap(problem):
    icfg = ImplicitConfig(t_values=(1.0,), lambda_of_t=0.1, inner_tol=1e-10, inner_max_iter=5)
    with pytest.raises(NonConvergenceError) as exc_info:
        implicit_solve(0.01, icfg, problem, x0=[2.0, 3.0])
    assert exc_info.value.iterations == 5
    assert exc_info.value.residual > 0


def test_implicit_solve_zero_iteration_cap(problem):
    # a cap of 0 evaluations is a configuration error, not a solve that fails to converge
    with pytest.raises(ConfigurationError, match="inner_max_iter must be an integer >= 1, got 0"):
        ImplicitConfig(t_values=(1.0,), lambda_of_t=0.1, inner_max_iter=0)
    icfg = ImplicitConfig(t_values=(1.0,), lambda_of_t=0.1, inner_max_iter=1)
    with pytest.raises(NonConvergenceError) as exc_info:
        implicit_solve(0.5, icfg, problem, x0=[2.0, 3.0])
    assert exc_info.value.iterations == 1


def counting_viscosity_map(monkeypatch):
    """Count the evaluations of T_t, the explicit step at alpha = t, by patching the solver's step builder.

    Returns the list of (t, x, T(x)) calls, t read from the step's alpha.
    """
    calls = []
    build = solvers._build_step

    def counting_build(*args, **kw):
        step = build(*args, **kw)

        def counted(x, a, *rest):
            tx = step(x, a, *rest)
            calls.append((float(a), np.array(x, dtype=float), tx))
            return tx

        return counted

    monkeypatch.setattr(solvers, "_build_step", counting_build)
    return calls


def test_implicit_iterations_count_viscosity_map_calls(problem, monkeypatch):
    calls = counting_viscosity_map(monkeypatch)
    icfg = ImplicitConfig(t_values=(1.0, 1e-2, 1e-4, 1e-5), lambda_of_t=0.1)
    pts = implicit_path(icfg, problem, x1=[2.0, 3.0])
    for p in pts:
        # the solve's evaluations plus one for the reported residual
        assert sum(1 for c in calls if c[0] == p.t) == p.iterations + 1
        assert p.dist_bound == p.residual / (problem.sigma * p.t)
    calls.clear()
    capped = ImplicitConfig(t_values=(1.0,), lambda_of_t=0.1, inner_max_iter=3)
    with pytest.raises(NonConvergenceError) as exc_info:
        implicit_solve(1e-3, capped, problem, x0=[2.0, 3.0])
    assert exc_info.value.iterations == 3 == len(calls)


def plain_banach(problem, t, lam, x, tol):
    # the textbook iteration with the a-posteriori stop: ||x - x_t|| <= tol
    q = 1.0 - problem.sigma * t
    while True:
        tx = viscosity_map(x, problem, t, lam)
        step = norm(tx - x)
        x = tx
        if step * q / (1.0 - q) <= tol:
            return x


def replay_safeguard(calls, sigma_t):
    """Replay one solve's calls; returns its final T(x) and its rejection count.

    A candidate is accepted only if it cuts the accepted residual by the
    contraction factor 1 - sigma t. A rejected one must be followed by the
    Banach step from the accepted point, and that step by the Anderson
    candidate of depth one: the rejection cleared the history.
    """
    q = 1.0 - sigma_t
    x = g = tx = expected = None
    r, restarted, n_rejected = np.inf, False, 0
    for _, y, ty in calls:
        if expected is not None:
            assert np.allclose(y, expected, rtol=1e-9, atol=1e-15)
        gy = ty - y
        if tx is not None and not np.array_equal(y, tx) and not norm(gy) <= q * r:
            n_rejected += 1
            expected, restarted = tx, True
            continue
        expected = None
        if restarted:
            dx, dg = y - x, gy - g
            expected = ty - (dx + dg) * (inner(dg, gy) / inner(dg, dg))
            restarted = False
        x, g, tx, r = y, gy, ty, norm(gy)
    return tx, n_rejected


@pytest.mark.parametrize(
    "set_Q, anchor, x1, min_rejections",
    [
        (Box([0.0, 0.0], [0.5, 3.0]), [0.5, 0.5], [0.0, 3.0], 1),
        (Ball([0.0, 0.0], 1.0), [0.0, 0.5], [1.0, 0.0], 0),
    ],
    ids=["box", "ball"],
)
def test_accelerated_solve_on_active_constraint(set_Q, anchor, x1, min_rejections, monkeypatch):
    problem = ProblemSpec(
        set_Q=set_Q,
        map_S=Identity(2),
        map_A=LeastSquaresGradient(B=[[1.0, 1.0], [2.0, 2.0]], b=[3.0, 5.0]),
        map_f=ConstantAnchor(anchor),
    )
    lam, tol, banach_tol = 0.1, 1e-10, 1e-10
    calls = counting_viscosity_map(monkeypatch)
    n_rejected = 0
    for t in (0.3, 0.05, 0.01, 1e-3):
        calls.clear()
        icfg = ImplicitConfig(t_values=(t,), lambda_of_t=lam, inner_tol=tol)
        (p,) = implicit_path(icfg, problem, x1=x1)
        assert len(calls) == p.iterations + 1
        returned, rejections = replay_safeguard(calls[: p.iterations], problem.sigma * t)
        assert np.array_equal(p.x, returned)
        n_rejected += rejections
        z = p.x - lam * problem.map_A(p.x)
        assert norm(project(set_Q, z) - z) > 1e-3  # P_Q clips at x_t
        assert norm(p.x - viscosity_map(p.x, problem, t, lam)) <= tol
        assert p.dist_bound == p.residual / (problem.sigma * t)
        assert norm(p.x - plain_banach(problem, t, lam, x1, banach_tol)) <= p.dist_bound + banach_tol
    assert n_rejected >= min_rejections


@pytest.mark.parametrize("build, message", [
    (lambda p: make_cfg(p, n_max=10.5), "n_max must be an integer >= 1, got 10.5"),
    (lambda p: make_cfg(p, record_stride=2.5), "record_stride must be an integer >= 1, got 2.5"),
    (lambda p: ImplicitConfig(t_values=(1.0,), lambda_of_t=0.1, inner_max_iter=2.5),
     "inner_max_iter must be an integer >= 1, got 2.5"),
], ids=["n_max", "record_stride", "inner_max_iter"])
def test_library_configs_refuse_non_integral_counts(problem, build, message):
    # run would stop in the block loop (n_max) or in the record index (record_stride)
    with pytest.raises(ConfigurationError, match=message):
        build(problem)


def test_implicit_config_validation():
    with pytest.raises(ConfigurationError):
        ImplicitConfig(t_values=(), lambda_of_t=0.1)
    with pytest.raises(ConfigurationError):
        ImplicitConfig(t_values=(0.5, 0.9), lambda_of_t=0.1)
    with pytest.raises(ConfigurationError):
        ImplicitConfig(t_values=(1.5,), lambda_of_t=0.1)
    icfg = ImplicitConfig(t_values=(1.0, 0.5), lambda_of_t=0)
    assert icfg.lambda_of_t == 0.0 and type(icfg.lambda_of_t) is float
    assert icfg.lam_at(1.0) == icfg.lam_at(0.5) == 0.0
    for bad in (float("nan"), float("inf"), -float("inf"), -1.0, -1e-300):
        with pytest.raises(ConfigurationError, match="lambda_of_t must be finite and >= 0"):
            ImplicitConfig(t_values=(1.0,), lambda_of_t=bad)
    with pytest.raises(TypeError):  # a map t -> lambda is not a float
        ImplicitConfig(t_values=(1.0,), lambda_of_t=lambda t: 0.1)


# -------------------------------------------------------------- reference


def test_reference_solution_zero_iteration_cap(problem):
    with pytest.raises(NonConvergenceError) as exc_info:
        reference_solution(problem, max_iter=0)
    assert exc_info.value.iterations == 0


def test_reference_solution_has_no_residual_floor():
    # from P_Omega(0) = 0 the first residual r1 = ||P_Omega(f(0))|| is 0.1414, within tol = 2 r1; the
    # certificate r1 rho / (1 - rho) = 1.27 is not, so one evaluation certifies nothing and the solve fails
    problem = ProblemSpec(
        set_Q=NonnegOrthant(2),
        map_S=Identity(2),
        map_A=LeastSquaresGradient(np.eye(2), [1.0, 1.0]),
        map_f=AffineMap(0.9 * np.eye(2), [0.1, 0.1]),
        reference_set_omega=Box([0.0, 0.0], [0.5, 0.5]),
    )
    r1 = norm(np.array([0.1, 0.1]))
    assert r1 == pytest.approx(0.1414, abs=1e-4)
    with pytest.raises(NonConvergenceError) as exc_info:
        reference_solution(problem, tol=2 * r1, max_iter=1)
    assert exc_info.value.iterations == 1
    assert exc_info.value.residual == pytest.approx(r1, rel=1e-15)


def test_benchmark_reference_equals_the_banach_oracle_bit_for_bit(problem, qstar):
    # f depends only on x1 + x2, which is 2.6 on the target set: both solves stop after two evaluations
    assert qstar.tobytes() == banach_reference_solution(problem, tol=1e-12).tobytes()


REFERENCE_OMEGA_KINDS = ("ball", "box", "simplex", "hyperplane")


def reference_omega(kind, rng, d):
    if kind == "ball":
        return Ball(center=rng.normal(size=d), radius=float(rng.uniform(0.5, 2.0)))
    if kind == "box":
        lo = rng.uniform(-2.0, 0.0, size=d)
        return Box(lo=lo, hi=lo + rng.uniform(0.1, 2.0, size=d))
    if kind == "simplex":
        return Simplex(total=float(rng.uniform(1.0, 3.0)), dim=d)
    return Hyperplane(normal=rng.normal(size=d), offset=float(rng.uniform(-1.0, 1.0)))


@pytest.mark.parametrize("rho", [0.1, 0.5, 0.8, 0.95])
@pytest.mark.parametrize("kind", REFERENCE_OMEGA_KINDS)
def test_reference_solution_is_within_tol_of_a_tight_banach_oracle(kind, rho):
    d, radius, oracle_tol = 6, 10.0, 1e-13
    for seed in range(3):
        rng = np.random.default_rng([REFERENCE_OMEGA_KINDS.index(kind), round(100 * rho), seed])
        G = rng.normal(size=(d, d))
        c = rng.normal(size=d)
        # ||M|| = rho and ||c|| <= (1 - rho) radius: f maps the ball Q into itself
        f = AffineMap(M=rho * G / np.linalg.norm(G, 2), c=(1.0 - rho) * radius * c / (2.0 * norm(c)))
        problem = ProblemSpec(
            set_Q=Ball(center=np.zeros(d), radius=radius), map_S=Identity(d),
            map_A=LeastSquaresGradient(B=np.eye(d), b=np.zeros(d)), map_f=f,
            reference_set_omega=reference_omega(kind, rng, d),
        )
        assert problem.rho == pytest.approx(rho)
        oracle = banach_reference_solution(problem, tol=oracle_tol)
        for tol in (1e-4, 1e-8, 1e-12):
            assert norm(reference_solution(problem, tol=tol) - oracle) <= tol + oracle_tol


def test_reference_solution_values(problem, qstar):
    assert abs(qstar[0] - 0.9647) < 5e-5
    assert abs(qstar[1] - 1.6353) < 5e-5
    omega = problem.reference_set_omega
    assert norm(qstar - project(omega, problem.map_f(qstar))) <= 1e-10


def test_reference_solution_one_step_hand_iteration(problem):
    # from any point with coordinate sum 2.6 the composed map lands on the
    # fixed point immediately: f depends only on the sum
    omega = problem.reference_set_omega
    x = np.array([1.3, 1.3])
    fx = problem.map_f(x)
    assert np.allclose(fx, [2.07155562, 2.74224931], atol=1e-8)
    step = project(omega, fx)
    assert np.allclose(step, [0.96465315, 1.63534685], atol=1e-8)
    assert norm(step - reference_solution(problem, tol=1e-12)) <= 1e-12


def test_reference_solution_constant_contraction(problem):
    c = np.array([1.0, 1.6])  # lies on the target simplex
    prob = dataclasses.replace(problem, map_f=ConstantAnchor(c))
    assert np.allclose(reference_solution(prob, tol=1e-12), c, atol=1e-12)


def test_reference_solution_requires_target_set(problem):
    prob = dataclasses.replace(problem, reference_set_omega=None)
    with pytest.raises(ConfigurationError):
        reference_solution(prob)


@pytest.mark.parametrize("tol", [math.inf, math.nan, 0.0, -1e-12])
def test_non_finite_or_non_positive_tolerances_are_refused(problem, tol):
    # tol = inf used to return P_Omega f(P_Omega 0) after one evaluation, and inner_tol = inf to stop
    # every implicit solve after one evaluation
    with pytest.raises(ConfigurationError, match="tol must be finite and > 0"):
        reference_solution(problem, tol=tol)
    with pytest.raises(ConfigurationError, match="inner_tol must be finite and > 0"):
        ImplicitConfig(t_values=(1.0,), lambda_of_t=0.1, inner_tol=tol)


def test_target_variational_inequality_certificate(problem, qstar, rng):
    # <f(q*) - q*, x - q*> <= 0 over the target set
    gap = np.asarray(problem.map_f(qstar)) - qstar
    for x in sample(problem.reference_set_omega, rng, 1000):
        assert inner(gap, x - qstar) <= 1e-8


# -------------------------------------------------------------- xu oracle


def test_xu_recursion_exact_closed_form():
    n = 512
    seq = xu_recursion(
        Fraction(1),
        lambda k: Fraction(1, k + 1),
        lambda k: Fraction(0),
        lambda k: Fraction(0),
        n,
    )
    assert all(seq[k - 1] == Fraction(1, k) for k in range(1, n + 1))


def test_xu_recursion_float_closed_form_near_exact():
    seq = xu_recursion(1.0, lambda k: 1.0 / (k + 1), lambda k: 0.0, lambda k: 0.0, 10_000)
    ks = np.arange(1, 10_001)
    assert np.allclose(np.asarray(seq), 1.0 / ks, rtol=1e-12, atol=0)


def test_xu_recursion_constant_when_frozen():
    seq = xu_recursion(0.7, lambda k: 0.0, lambda k: 0.0, lambda k: 0.0, 100)
    assert seq == [0.7] * 100


def test_xu_recursion_hypothesis_satisfying_triple_vanishes():
    seq = xu_recursion(
        1.0,
        lambda k: k**-0.9,
        lambda k: k**-0.5,
        lambda k: k**-2.0,
        100_000,
    )
    assert seq[-1] < 1e-2


def test_xu_recursion_validates_gamma():
    with pytest.raises(ValueError):
        xu_recursion(1.0, lambda k: 1.5, lambda k: 0.0, lambda k: 0.0, 10)
    with pytest.raises(ValueError):
        xu_recursion(-1.0, lambda k: 0.5, lambda k: 0.0, lambda k: 0.0, 10)


def test_xu_recursion_accepts_sequences():
    seq = xu_recursion(1.0, [0.5, 0.5], [0.0, 0.0], [1.0, 1.0], 3)
    assert seq == [1.0, 1.5, 1.75]


# -------------------------------------------------------------- trace io


def test_trace_csv_roundtrip(tmp_path, problem, qstar):
    cfg = make_cfg(problem, qstar, n_max=50, algorithm=PERTURBED,
                   perturbation=UniformSquarePerturbation(1))
    tr = run(cfg, extra_metadata={"config_digest": "0123456789abcdef"})
    path = tmp_path / "trace.csv"
    tr.write_csv(path)
    lines = path.read_text().strip().split("\n")
    assert lines[0] == "k,x1,x2,alpha,lambda,e_norm,rel_err"
    assert len(lines) == 51
    # shortest round-trip floats reparse exactly
    cells = lines[3].split(",")
    assert int(cells[0]) == 3
    assert float(cells[1]) == tr.x[2, 0]
    assert float(cells[6]) == tr.rel_err[2]
    meta_path = tmp_path / "trace.meta.txt"
    tr.write_meta(meta_path)
    meta = meta_path.read_text()
    assert "algorithm: perturbed" in meta
    assert "config_digest: 0123456789abcdef\n" in meta


def test_a_perturbed_run_seeds_one_generator_per_row(problem, monkeypatch):
    # a run of several blocks draws each block from the generator its row keeps
    seeded = []

    def generator(p, *args):
        seeded.append(p.seed)
        return schedules._generator(p, *args)

    monkeypatch.setattr(solvers, "_generator", generator)
    cfgs = [make_cfg(problem, algorithm=PERTURBED, n_max=20_000, perturbation=UniformSquarePerturbation(seed))
            for seed in (3, 4)]
    assert schedules._block_steps(problem.dim) < 20_000 // 2
    solvers.run_batch(cfgs)
    assert sorted(seeded) == [3, 4]
    solvers.run(cfgs[0])
    assert sorted(seeded) == [3, 3, 4]


def test_rows_of_one_seed_share_one_stream(problem, qstar, monkeypatch):
    # a sweep batch: thetas x seeds rows, one generator and one draw per block for each seed
    seeded, drawn = [], []

    def generator(p, *args):
        seeded.append(p.seed)
        return schedules._generator(p, *args)

    def stream(p, *args):
        drawn.append(p.seed)
        return schedules.perturbation_stream(p, *args)

    cfgs = [make_cfg(problem, qstar, algorithm=PERTURBED, n_max=20_000, rel_err_target=target,
                     schedule=benchmark_schedule(theta, problem=problem), perturbation=UniformSquarePerturbation(seed))
            for theta, target in ((0.5, None), (0.9, 0.01), (1.0, None)) for seed in (3, 4)]
    alone = [run(cfg) for cfg in cfgs]
    monkeypatch.setattr(solvers, "_generator", generator)
    monkeypatch.setattr(solvers, "perturbation_stream", stream)
    batch = solvers.run_batch(cfgs)
    blocks = -(-20_000 // schedules._block_steps(len(cfgs) * problem.dim))  # a batch's blocks: 2**14 doubles over its rows
    assert sorted(seeded) == [3, 4]
    assert sorted(drawn) == [3] * blocks + [4] * blocks
    assert batch[2].k.size < 20_000  # a row of each seed stops early; its seed's other rows draw on
    for one, many in zip(alone, batch):
        assert one.k.tobytes() == many.k.tobytes()
        assert one.x.tobytes() == many.x.tobytes()
        assert one.e_norm.tobytes() == many.e_norm.tobytes()
        assert one.rel_err.tobytes() == many.rel_err.tobytes()


def test_library_runs_compute_no_digest(tmp_path, problem, qstar, monkeypatch):
    # the CLI digests the resolved config once per command; run, run_batch and emit_report never do
    def refuse(cfg):
        raise AssertionError("config_digest called")

    monkeypatch.setattr(solvers, "config_digest", refuse)
    cfg = make_cfg(problem, qstar, algorithm=PERTURBED, n_max=50, perturbation=UniformSquarePerturbation(2))
    assert run(cfg).k.size == 50
    assert all(isinstance(tr, RunTrace) for tr in solvers.run_batch([cfg, cfg]))
    report = run_experiment(ExperimentConfig(thetas=(0.6, 0.9), seeds=(1, 2), n_max=60))
    assert all(c.error is None for c in report.cells)
    out = emit_report(report, tmp_path / "exp", extra_metadata={"config_digest": "0123456789abcdef"})
    assert "config_digest: 0123456789abcdef\n" in (out / "meta.txt").read_text()


def _no_solve(*args, **kwargs):
    raise AssertionError("reference solve before the config check")


def test_reference_auto_is_the_target_point(problem, qstar):
    cfg = SolverConfig(problem=problem, schedule=benchmark_schedule(0.9, problem=problem), x1=[2.0, 3.0],
                       n_max=10, reference="auto", rel_err_target=0.5)
    assert cfg.reference.tobytes() == qstar.tobytes() and not cfg.reference.flags.writeable
    assert dataclasses.replace(cfg, n_max=20).reference is cfg.reference  # a resolved point is not solved again
    assert solvers._target_point(problem).tobytes() == qstar.tobytes()


def test_reference_auto_without_a_target_set_is_none():
    problem = ProblemSpec(NonnegOrthant(2), Identity(2), LeastSquaresGradient(np.eye(2), [1.0, 1.0]),
                          ConstantAnchor([1.0, 1.0]))
    common = dict(problem=problem, schedule=benchmark_schedule(0.9, problem=problem), x1=[2.0, 3.0], n_max=10)
    assert solvers._target_point(problem) is None
    assert SolverConfig(**common, reference="auto").reference is None
    with pytest.raises(ConfigurationError, match="rel_err_target needs a reference point"):
        SolverConfig(**common, reference="auto", rel_err_target=0.1)


@pytest.mark.parametrize("fields, message", [
    ({"x1": [-1.0, 3.0]}, "is not in Q"),
    ({"algorithm": "nope"}, "unknown algorithm"),
    ({"rel_err_target": float("nan")}, "rel_err_target must be finite"),
    ({"algorithm": HALPERN}, "needs an anchor point"),
    ({"n_max": 2**62}, "more than numpy can size"),
    ({"record_stride": 2.5}, "record_stride must be an integer"),
])
def test_reference_auto_is_solved_after_every_other_check(problem, monkeypatch, fields, message):
    monkeypatch.setattr(solvers, "reference_solution", _no_solve)
    common = dict(problem=problem, schedule=benchmark_schedule(0.9, problem=problem), x1=[2.0, 3.0], n_max=10)
    with pytest.raises(ConfigurationError, match=message):
        SolverConfig(**{**common, **fields}, reference="auto")


def test_a_reference_whose_norm_overflows_is_refused(problem):
    with pytest.raises(ConfigurationError, match="finite nonzero norm"):  # and no numpy overflow warning
        SolverConfig(problem=problem, schedule=benchmark_schedule(0.9, problem=problem), x1=[2.0, 3.0],
                     n_max=10, reference=[1e308, 1e308])


def test_implicit_path_checks_x1_before_the_reference_solve(problem, monkeypatch):
    monkeypatch.setattr(solvers, "reference_solution", _no_solve)
    with pytest.raises(ConfigurationError, match="x1 = .* is not in Q"):
        implicit_path(ImplicitConfig(t_values=(1.0,), lambda_of_t=0.1), problem, x1=[-1.0, 3.0])


@pytest.mark.parametrize("n, stride", [(1, 1), (50, 7), (50, 10), (51, 10), (2, 5), (300, 1)])
def test_check_records_counts_the_rows_a_run_records(problem, n, stride):
    cfg = SolverConfig(problem=problem, schedule=benchmark_schedule(0.9, problem=problem), x1=[2.0, 3.0],
                       n_max=n, record_stride=stride)
    records = run(cfg).k.size
    rows = solvers._MAX_BYTES // (records * 3 * 8)  # the most rows numpy sizes
    solvers._check_records(cfg, rows)
    with pytest.raises(ConfigurationError, match=f"{rows + 1} run\\(s\\) of {records} records in dimension 2"):
        solvers._check_records(cfg, rows + 1)


def test_a_sweep_whose_records_numpy_cannot_size_is_refused(problem):
    # one run of 2**58 records fits numpy's sizes, two do not; nothing is allocated either way
    cfg = SolverConfig(problem=problem, schedule=benchmark_schedule(0.9, problem=problem), x1=[2.0, 3.0],
                       n_max=2**58)
    with pytest.raises(ConfigurationError, match="2 run"):
        solvers._check_records(cfg, rows=2)
    with pytest.raises(ConfigurationError, match=f"2 run\\(s\\) of {2**58} records"):
        ExperimentConfig(thetas=(0.5, 0.9), seeds=(1,), n_max=2**58)
