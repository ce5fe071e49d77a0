"""The step rules' builders: bit for bit the rules they replaced, and the call contract of the 1-D step.

The viscosity map T_t is the explicit_viscosity step at alpha = t: bit for
bit the map it replaced, which wrote the same expression out again."""

from functools import partial
from typing import Callable, NamedTuple

import numpy as np
import pytest

import viscosolve
import viscosolve.solvers as solvers
from viscosolve import (
    ALGORITHMS,
    ConstantAnchor,
    EXPLICIT_VISCOSITY,
    HALPERN,
    Identity,
    ImplicitConfig,
    LeastSquaresGradient,
    PERTURBED,
    ProblemSpec,
    SolverConfig,
    TAKAHASHI_TOYODA,
    UniformSquarePerturbation,
    YAO_INNER,
    YAO_OUTER,
    benchmark_schedule,
    project,
    project_rows,
    run,
    sample,
)
from viscosolve.operators import rows_of

import oracles
from test_batch import SET_KINDS, make_set, same_bits
from test_diagnostics import make_problem as make_map_family_problem

# ---- the oracle: the step rules as they were written before the builders, verbatim


class _Ops(NamedTuple):
    """P_Q, A, f and S of a problem, on (C, d) arrays or on one vector."""

    P: Callable
    A: Callable
    f: Callable
    S: Callable

    @classmethod
    def of(cls, problem: ProblemSpec, rows: bool):
        Q, maps = problem.set_Q, (problem.map_A, problem.map_f, problem.map_S)
        if not rows:
            return cls(partial(project, Q), *maps)
        return cls(partial(project_rows, Q), *(rows_of(m) for m in maps))

    def forward(self, X, lam):
        """P_Q(X - lam A X) per row: the forward-backward map of every rule."""
        return self.P(X - lam * self.A(X))


def _explicit(o, X, a, lam, E, U, B):
    return a * o.f(X) + (1.0 - a) * o.S(o.forward(X, lam))


def _perturbed(o, X, a, lam, E, U, B):
    return o.P(_explicit(o, X, a, lam, E, U, B) + E)


def _takahashi_toyoda(o, X, a, lam, E, U, B):
    return a * X + (1.0 - a) * o.S(o.forward(X, lam))


def _halpern(o, X, a, lam, E, U, B):
    return a * U + (1.0 - a) * o.S(o.forward(X, lam))


def _yao_outer(o, X, a, lam, E, U, B):
    return B * X + (1.0 - B) * o.P(_halpern(o, X, a, lam, E, U, B))


def _yao_inner(o, X, a, lam, E, U, B):
    inner_pt = o.P(a * U + (1.0 - a) * (X - lam * o.A(X)))
    return B * X + (1.0 - B) * o.S(inner_pt)


_OLD_RULES = {
    "explicit_viscosity": _explicit,
    "perturbed": _perturbed,
    "takahashi_toyoda": _takahashi_toyoda,
    "halpern": _halpern,
    "yao_outer": _yao_outer,
    "yao_inner": _yao_inner,
}

# ---- the comparison


def make_problem(kind, rng, d):
    cset = make_set(kind, rng, d)
    B = rng.normal(size=(d, d)) + np.eye(d)
    # LeastSquaresGradient and Identity step through their row kernels, ConstantAnchor through the row loop
    return ProblemSpec(
        set_Q=cset,
        map_S=Identity(d),
        map_A=LeastSquaresGradient(B, rng.normal(size=d)),
        map_f=ConstantAnchor(sample(cset, rng, 1)[0]),
    )


def points(problem, rng, count):
    """``count`` points inside Q, far outside it and on its boundary (the projections of far points)."""
    Q, d = problem.set_Q, problem.dim
    far = rng.normal(scale=50.0, size=(count, d))
    return {"inside": sample(Q, rng, count), "outside": far, "boundary": project_rows(Q, far)}


def test_the_old_table_names_every_rule():
    assert tuple(_OLD_RULES) == ALGORITHMS == tuple(solvers._RULES)


@pytest.mark.parametrize("d", [1, 2, 5, 64])
@pytest.mark.parametrize("kind", SET_KINDS)
def test_built_steps_equal_the_old_rules_bit_for_bit(kind, d):
    rng = np.random.default_rng([d, SET_KINDS.index(kind)])
    problem = make_problem(kind, rng, d)
    for where, X in points(problem, rng, 3).items():
        U, E = sample(problem.set_Q, rng, 3), rng.uniform(-1.0, 1.0, size=(3, d))
        a, lam, beta = rng.uniform(0.0, 1.0, size=(3, 3, 1)) * [[[1.0]], [[0.5 / problem.nu]], [[0.9]]]
        ca, cbeta = 1.0 - a, 1.0 - beta  # as the engine tabulates them
        a0, lam0, beta0 = float(a[0, 0]), float(lam[0, 0]), float(beta[0, 0])
        for rule in ALGORITHMS:
            label = (rule, where)
            vector = solvers._build_step(problem, rule)
            # a batch of one: the 1-D step with Python float coefficients
            want = _OLD_RULES[rule](_Ops.of(problem, rows=False), X[0], a0, lam0, E[0], U[0], beta0)
            got = vector(X[0], a0, 1.0 - a0, lam0, E[0], U[0], beta0, 1.0 - beta0)
            assert same_bits(got, want), label
            # and with the 0-d float64 views the engine feeds it
            zero_d = [v[0, 0, ...] for v in (a, ca, lam, beta, cbeta)]
            assert all(z.shape == () for z in zero_d)
            got = vector(X[0], *zero_d[:3], E[0], U[0], *zero_d[3:])
            assert same_bits(got, want), label
            # row steps over C = 1 and C = 3 rows with (C, 1) coefficient columns; row 0 is the 1-D step
            step = solvers._build_step(problem, rule, rows=True)
            ops = _Ops.of(problem, rows=True)
            for c in (1, 3):
                args = (X[:c], a[:c], lam[:c], E[:c], U[:c], beta[:c])
                got = step(X[:c], a[:c], ca[:c], lam[:c], E[:c], U[:c], beta[:c], cbeta[:c])
                assert same_bits(got, _OLD_RULES[rule](ops, *args)), label + (c,)
                assert same_bits(got[0], want), label + (c,)


@pytest.mark.parametrize("d", [1, 2, 5, 64])
@pytest.mark.parametrize("kind", SET_KINDS)
def test_viscosity_map_is_the_map_it_replaced_bit_for_bit(kind, d):
    rng = np.random.default_rng([d, SET_KINDS.index(kind), 18])
    # maps with row kernels and the row loop (make_problem), and every map family of the battery's problems
    problems = [make_problem(kind, rng, d)]
    problems += [make_map_family_problem(kind, d, variant, False, 100 * d + variant) for variant in range(3)]
    for i, problem in enumerate(problems):
        mus = (0.0, float(rng.uniform(0.0, 2.0 * problem.nu)), 2.0 * problem.nu)
        for where, X in points(problem, rng, 3).items():
            for t in (1.0, 0.5, 0.1, 1e-5, float(rng.uniform(0.0, 1.0))):
                for mu in mus:
                    label = (i, where, t, mu)
                    want = oracles.viscosity_map(X, problem, t, mu)
                    assert same_bits(viscosolve.viscosity_map(X, problem, t, mu), want), label
                    for c in (1, 3):
                        assert same_bits(viscosolve.viscosity_map(X[:c], problem, t, mu), want[:c]), label + (c,)
                    for x, w in zip(X, want):  # each row is its 1-D map
                        want_x = oracles.viscosity_map(x, problem, t, mu)
                        assert same_bits(viscosolve.viscosity_map(x, problem, t, mu), want_x), label
                        assert same_bits(w, want_x), label


def test_the_tabulated_complement_rounds_as_python_does():
    alpha = np.random.default_rng(15).uniform(0.0, 1.0, 10_000)
    alpha[:4] = [1.0, 0.5, 1e-300, 5e-324]
    want = np.array([1.0 - a for a in alpha.tolist()])
    assert same_bits(1.0 - alpha, want)


def counting_config(problem, rule, n, x1, anchor):
    return SolverConfig(
        problem=problem, schedule=benchmark_schedule(0.9, problem=problem), x1=x1, n_max=n,
        algorithm=rule, perturbation=UniformSquarePerturbation(seed=1), anchor=anchor,
    )


PROJECTIONS_PER_STEP = {
    EXPLICIT_VISCOSITY: 1, PERTURBED: 2, TAKAHASHI_TOYODA: 1, HALPERN: 1, YAO_OUTER: 2, YAO_INNER: 1,
}


@pytest.mark.parametrize("rule, per_step", PROJECTIONS_PER_STEP.items())
def test_a_batch_of_one_calls_project_by_name_at_every_projection(problem, monkeypatch, rule, per_step):
    # benchmark tracing swaps the module's ``project`` for a plain counting
    # function before a run; the run binds the name when it builds its step,
    # and the 1-D step calls it at every projection
    rng = np.random.default_rng(64)
    simplex = make_problem("simplex", rng, 64)
    cases = [(problem, [2.0, 3.0], [1.0, 1.0]), (simplex, *sample(simplex.set_Q, rng, 2))]
    n = 40
    for prob, x1, anchor in cases:
        cfg = counting_config(prob, rule, n, x1, anchor)
        want = run(cfg)
        calls = []

        def counted(cset, x):
            calls.append(cset)
            return project(cset, x)

        with monkeypatch.context() as patch:
            patch.setattr(solvers, "project", counted)
            got = run(cfg)
        assert len(calls) == per_step * (n - 1), prob.dim
        assert all(cset is prob.set_Q for cset in calls)
        assert same_bits(got.x, want.x)


def test_the_names_the_benchmark_reads_from_solvers_are_the_packages_own():
    # the benchmark's self-test swaps viscosolve.solvers' project, norm, run and
    # alpha_at for counters and checks that each is restored, so all four must
    # stay module globals there, even one the module does not call (alpha_at);
    # its implicit workload reads the relaxation step through ImplicitConfig.lam_at
    from viscosolve import projections, schedules, space

    assert solvers.project is projections.project
    assert solvers.norm is space.norm
    assert solvers.alpha_at is schedules.alpha_at
    assert solvers.run is viscosolve.run and solvers.run.__module__ == "viscosolve.solvers"
    # the benchmark's implicit check and its viscosity_map_us layer call the package's map
    assert viscosolve.viscosity_map is solvers.viscosity_map
    assert ImplicitConfig(t_values=(1.0, 0.1), lambda_of_t=0.1).lam_at(0.1) == 0.1
    # its self-test calls viscosolve.experiment.run, which the experiment module imports but no longer calls,
    # and its sweep builds an ExperimentConfig from these keywords
    assert viscosolve.experiment.run is solvers.run
    cfg = viscosolve.ExperimentConfig(thetas=(0.9,), seeds=(1,), n_max=50)
    assert (cfg.thetas, cfg.seeds, cfg.n_max) == ((0.9,), (1,), 50)
