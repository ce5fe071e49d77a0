"""Acceptance suite: one test (and one printed PASS/FAIL line) per criterion.

Run with ``pytest -s tests/test_acceptance.py`` to see the per-criterion
lines. Criteria 2-4 share one full (theta, seed) sweep; expect the module to
take half a minute or so.
"""

import dataclasses
import time
from fractions import Fraction

import numpy as np
import pytest

from viscosolve import (
    ConstantAnchor,
    ExperimentConfig,
    HALPERN,
    ImplicitConfig,
    NoPerturbation,
    PERTURBED,
    SolverConfig,
    UniformSquarePerturbation,
    benchmark_schedule,
    build_benchmark_problem,
    implicit_path,
    norm,
    project,
    reference_solution,
    run,
    run_experiment,
    sample,
    viscosity_map,
)

from oracles import inner, step_at, xu_recursion

THETAS = (0.1, 0.2, 0.3, 0.4, 0.6, 0.8, 0.9, 1.0)

# target bands for the benchmark sweep
T1_EXPECTED = {0.1: 0.4774, 0.2: 0.1810, 0.3: 0.0742, 0.4: 0.0309}
T2_EXPECTED = {0.6: 0.0055, 0.8: 0.0010, 0.9: 0.0005, 1.0: 0.0008}
T3_EXPECTED = {
    0.5: {0.6: 6, 0.8: 5, 0.9: 4, 1.0: 4},
    0.10: {0.6: 53, 0.8: 23, 0.9: 14, 1.0: 17},
    0.05: {0.6: 158, 0.8: 56, 0.9: 36, 1.0: 42},
    0.01: {0.6: 2200, 0.8: 372, 0.9: 249, 1.0: 314},
    0.005: {0.6: None, 0.8: 854, 0.9: 533, 1.0: 716},
    0.001: {0.6: None, 0.8: None, 0.9: 2989, 1.0: 4742},
}
T3_BANDED_EPS = (0.5, 0.10, 0.05)

# frozen regression baselines: deterministic mode (e = 0), recorded at first build
DETERMINISTIC_BASELINES = {
    0.1: 0.4773675805591418,
    0.2: 0.18094545339484763,
    0.3: 0.07420862189125282,
    0.4: 0.03092726898129281,
    0.6: 0.005444666267537449,
    0.8: 0.0010047679204871676,
    0.9: 0.0005032730908985862,
    1.0: 0.000749716667951434,
}

# float-comparison floor for the exact inequality checks (O(1) magnitudes)
EQ_TOL = 1e-12


def _report(num: int, ok: bool, detail: str):
    print(f"[criterion {num}] {'PASS' if ok else 'FAIL'}: {detail}")
    assert ok, f"criterion {num} failed: {detail}"


@pytest.fixture(scope="module")
def problem():
    return build_benchmark_problem()


@pytest.fixture(scope="module")
def qstar(problem):
    return reference_solution(problem, tol=1e-12)


@pytest.fixture(scope="module")
def sweep_report():
    t0 = time.perf_counter()
    report = run_experiment(ExperimentConfig(thetas=THETAS))
    print(f"[sweep] 8 thetas x 20 seeds x 6000 iterations in {time.perf_counter() - t0:.1f} s")
    return report


@pytest.fixture(scope="module")
def det_report():
    return run_experiment(ExperimentConfig(thetas=THETAS, deterministic=True))


def test_criterion_1_reference_point(problem, qstar):
    four_dp = abs(qstar[0] - 0.9647) < 5e-5 and abs(qstar[1] - 1.6353) < 5e-5
    residual = norm(qstar - project(problem.reference_set_omega, problem.map_f(qstar)))
    reference_solution(problem, tol=1e-12)  # warm
    runtime = min(
        _timed(lambda: reference_solution(problem, tol=1e-12)) for _ in range(3)
    )
    ok = four_dp and residual <= 1e-10 and runtime < 0.010
    _report(
        1,
        ok,
        f"reference point {np.round(qstar, 4)} (4 dp), fixed-point residual "
        f"{residual:.2e} <= 1e-10, runtime {runtime * 1e3:.2f} ms < 10 ms",
    )


def _timed(fn):
    t0 = time.perf_counter()
    fn()
    return time.perf_counter() - t0


def test_criterion_2_small_theta_band(sweep_report, det_report):
    agg = sweep_report.aggregate()
    oks, details = [], []
    for theta, target in T1_EXPECTED.items():
        med = agg[theta][0]
        ok = abs(med - target) <= 0.25 * target
        oks.append(ok)
        details.append(f"theta={theta}: median {med:.4f} vs {target} ({med / target:.3f}x)")
    for theta, baseline in DETERMINISTIC_BASELINES.items():
        det = det_report.cells_for(theta)[0].min_rel_err
        oks.append(abs(det - baseline) <= 1e-12 * max(1.0, abs(baseline)))
    _report(2, all(oks), "small-theta medians within +-25%; deterministic baselines frozen -- "
            + "; ".join(details))


def test_criterion_3_large_theta_band(sweep_report):
    agg = sweep_report.aggregate()
    oks, details = [], []
    for theta, target in T2_EXPECTED.items():
        med = agg[theta][0]
        ok = target / 2 <= med <= target * 2
        oks.append(ok)
        details.append(f"theta={theta}: median {med:.2e} vs {target} ({med / target:.2f}x)")
    medians = {t: agg[t][0] for t in T2_EXPECTED}
    best_is_09 = min(medians, key=medians.get) == 0.9
    oks.append(best_is_09)
    _report(3, all(oks), "large-theta medians within 2x and theta=0.9 best -- " + "; ".join(details))


def test_min_rel_err_trend_across_thetas(sweep_report):
    # supporting invariant: the reachable error floor improves monotonically
    # as theta grows from 0.1 to 0.9
    agg = sweep_report.aggregate()
    medians = [agg[t][0] for t in (0.1, 0.2, 0.3, 0.4, 0.6, 0.8, 0.9)]
    assert all(b < a for a, b in zip(medians, medians[1:]))


def test_criterion_4_first_hit_grid(sweep_report):
    grid = sweep_report.first_hit_grid()
    oks, details = [], []
    for eps, row in T3_EXPECTED.items():
        ours_defined = [grid[eps][t] for t in row if grid[eps][t] is not None]
        for theta, target in row.items():
            ours = grid[eps][theta]
            if target is None:
                # ND cells stay ND or exceed every defined cell in the row
                ok = ours is None or (ours_defined and ours > max(v for v in ours_defined if v != ours))
                oks.append(bool(ok))
                details.append(f"N({eps},{theta}) = {ours if ours is not None else 'ND'} (ND expected)")
            elif eps in T3_BANDED_EPS:
                band = max(0.5 * target, 5)
                ok = ours is not None and abs(ours - target) <= band
                oks.append(ok)
                details.append(f"N({eps},{theta}) = {ours} vs {target} (+-{band:g})")
    _report(4, all(oks), "first-hit grid matches the target structure -- " + "; ".join(details))


def test_criterion_5_property_suite(problem):
    Q = problem.set_Q
    A, nu, sigma = problem.map_A, problem.nu, problem.sigma
    failures = []
    for seed in (0, 12345):
        rng = np.random.default_rng(seed)
        xs = rng.normal(scale=3.0, size=(1000, 2))
        ys = rng.normal(scale=3.0, size=(1000, 2))
        qs_x = sample(Q, rng, 1000)
        qs_y = sample(Q, rng, 1000)

        worst = max(norm(project(Q, project(Q, x)) - project(Q, x)) for x in xs)
        if worst > 1e-12:
            failures.append(f"idempotence {worst:.1e}")

        worst = max(inner(project(Q, x) - x, project(Q, x) - y) for x, y in zip(xs, qs_y))
        if worst > 1e-10:
            failures.append(f"variational {worst:.1e}")

        worst = max(
            norm(project(Q, x) - project(Q, y)) ** 2 - inner(project(Q, x) - project(Q, y), x - y)
            for x, y in zip(xs, ys)
        )
        if worst > 1e-10:
            failures.append(f"firm nonexpansiveness {worst:.1e}")

        for lam in (0.05, 0.1, 0.19):
            worst = max(
                norm((x - lam * A(x)) - (y - lam * A(y))) ** 2
                - (norm(x - y) ** 2 - lam * (2 * nu - lam) * norm(A(x) - A(y)) ** 2)
                for x, y in zip(qs_x, qs_y)
            )
            if worst > 1e-10:
                failures.append(f"descent(lam={lam}) {worst:.1e}")

        ts = rng.uniform(0.01, 1.0, size=1000)
        worst = max(
            norm(viscosity_map(x, problem, t, 0.1) - viscosity_map(y, problem, t, 0.1))
            - (1 - sigma * t) * norm(x - y)
            for x, y, t in zip(qs_x, qs_y, ts)
        )
        if worst > 1e-10:
            failures.append(f"contraction factor {worst:.1e}")

        worst = max(
            nu * norm(A(x) - A(y)) ** 2 - inner(A(x) - A(y), x - y)
            for x, y in zip(qs_x, qs_y)
        )
        if worst > 1e-10:
            failures.append(f"ism {worst:.1e}")

        h = 1e-6
        for x in qs_x[:50]:
            g = A(x)
            fd = np.empty(2)
            for i in range(2):
                dx = np.zeros(2)
                dx[i] = h * max(1.0, abs(x[i]))
                fd[i] = (A.objective(x + dx) - A.objective(x - dx)) / (2 * dx[i])
            if norm(fd - g) / max(norm(g), 1e-12) > 1e-6:
                failures.append("finite differences")
                break
    _report(5, not failures, "projection/operator property suite at stated tolerances"
            + ("" if not failures else " -- failed: " + ", ".join(failures)))


def test_criterion_6_implicit_path(problem, qstar):
    icfg = ImplicitConfig(
        t_values=(1.0, 1e-1, 1e-2, 1e-3, 1e-4, 1e-5), lambda_of_t=0.1, inner_tol=1e-10
    )
    points = implicit_path(icfg, problem, x1=[2.0, 3.0])
    residual_ok = all(p.residual <= 1e-10 for p in points)
    final_dist = points[-1].dist_to_reference
    ok = residual_ok and final_dist <= 1e-3
    _report(
        6,
        ok,
        f"implicit path over t = 1 .. 1e-5: residuals all <= 1e-10 ({residual_ok}), "
        f"final ||x_t - q*|| = {final_dist:.2e} <= 1e-3",
    )


def test_criterion_7_perturbed_clean_coupling(problem, qstar):
    sigma = problem.sigma
    oks, finals = [], []
    for seed in (1, 7, 42):
        sched = benchmark_schedule(0.9, problem=problem)
        common = dict(problem=problem, schedule=sched, x1=[2.0, 3.0], n_max=6000, reference=qstar)
        tp = run(SolverConfig(algorithm=PERTURBED, perturbation=UniformSquarePerturbation(seed), **common))
        tc = run(SolverConfig(**common))
        d = np.linalg.norm(tp.x - tc.x, axis=1)
        bound_ok = bool(
            np.all(d[1:] <= (1 - sigma * tp.alpha[:-1]) * d[:-1] + tp.e_norm[:-1] + EQ_TOL)
        )
        oks.append(bound_ok and d[-1] <= 1e-3)
        finals.append(d[-1])
    _report(
        7,
        all(oks),
        "coupling recursion bound holds at every step (float floor 1e-12) and "
        f"d_6000 = {[f'{v:.1e}' for v in finals]} <= 1e-3 for seeds (1, 7, 42)",
    )


def test_criterion_8_reduction_identities(problem):
    u = np.array([1.0, 1.5])
    sched = benchmark_schedule(0.9, problem=problem)
    cfg_h = SolverConfig(problem=problem, schedule=sched, x1=[2.0, 3.0], n_max=6000,
                         algorithm=HALPERN, anchor=u)
    prob_const = dataclasses.replace(problem, map_f=ConstantAnchor(u))
    cfg_e = SolverConfig(problem=prob_const, schedule=sched, x1=[2.0, 3.0], n_max=6000)
    halpern_ok = bool(np.array_equal(run(cfg_h).x, run(cfg_e).x))

    cfg0 = SolverConfig(problem=problem, schedule=sched, x1=[2.0, 3.0], n_max=100,
                        algorithm=PERTURBED, perturbation=NoPerturbation())
    cfg = SolverConfig(problem=problem, schedule=sched, x1=[2.0, 3.0], n_max=100)
    rng = np.random.default_rng(0)
    step_ok = True
    for k in (1, 2, 5, 20, 100):
        x = np.abs(rng.normal(scale=2.0, size=2))
        step_ok = step_ok and np.array_equal(
            step_at(x, k, cfg0), project(problem.set_Q, step_at(x, k, cfg))
        )
    _report(
        8,
        halpern_ok and step_ok,
        f"anchored run equals constant-contraction run bit-exactly over 6000 steps ({halpern_ok}); "
        f"zero-noise perturbed step equals projected explicit step bit-exactly ({step_ok})",
    )


def test_criterion_9_comparison_recursion_oracle():
    n = 512
    seq = xu_recursion(
        Fraction(1), lambda k: Fraction(1, k + 1), lambda k: Fraction(0), lambda k: Fraction(0), n
    )
    exact_ok = all(seq[k - 1] == Fraction(1, k) for k in range(1, n + 1))
    triple = xu_recursion(1.0, lambda k: k**-0.9, lambda k: k**-0.5, lambda k: k**-2.0, 100_000)
    decay_ok = triple[-1] < 1e-2
    _report(
        9,
        exact_ok and decay_ok,
        f"closed form a_k = 1/k exact in rational arithmetic ({exact_ok}); "
        f"hypothesis-satisfying triple reaches a_N = {triple[-1]:.2e} < 1e-2 at N = 1e5",
    )
