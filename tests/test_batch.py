"""The lockstep engine: every row of a batch is its own batch-of-one run, bit for bit."""

import dataclasses
import errno
import os
import signal
import subprocess
import sys
import threading
import warnings
from dataclasses import dataclass
from pathlib import Path

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from viscosolve import (
    ALGORITHMS,
    AffineMap,
    Ball,
    Box,
    ConfigurationError,
    ConstantAnchor,
    ConstantLambda,
    DivergenceError,
    Halfspace,
    Hyperplane,
    Identity,
    LeastSquaresGradient,
    NonFiniteError,
    NonnegOrthant,
    PowerAlpha,
    RunTrace,
    ProblemSpec,
    ScheduleSpec,
    ScheduleViolationWarning,
    Simplex,
    SolverConfig,
    TableAlpha,
    TableLambda,
    TrigContraction,
    UniformSquarePerturbation,
    benchmark_schedule,
    contains,
    norm,
    project,
    project_rows,
    run,
    run_batch,
    sample,
)
from viscosolve import solvers
from viscosolve.operators import rows_of
from viscosolve.solvers import PERTURBED, _csv_cells

from oracles import ls_lipschitz, step_at

SET_KINDS = ("orthant", "box", "ball", "halfspace", "hyperplane", "simplex")


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


def same_bits(a, b):
    if a is None or b is None:
        return a is None and b is None
    a, b = np.asarray(a), np.asarray(b)
    return a.shape == b.shape and a.dtype == b.dtype and a.tobytes() == b.tobytes()


def assert_same_trace(got, want):
    for name in ("k", "x", "alpha", "lam", "e_norm", "rel_err"):
        assert same_bits(getattr(got, name), getattr(want, name)), name
    assert got.metadata == want.metadata


@settings(max_examples=60)
@given(
    kind=st.sampled_from(SET_KINDS),
    d=st.integers(1, 8),
    rule=st.sampled_from(ALGORITHMS),
    cells=st.integers(1, 5),
    stride=st.integers(1, 4),
    seed=st.integers(0, 2**32 - 1),
)
def test_batched_rows_equal_solo_runs(kind, d, rule, cells, stride, seed):
    rng = np.random.default_rng(seed)
    cset = make_set(kind, rng, d)
    B = rng.normal(size=(d, d)) + np.eye(d)
    problem = ProblemSpec(
        set_Q=cset,
        map_S=Identity(d),
        map_A=LeastSquaresGradient(B, rng.normal(size=d)),
        map_f=ConstantAnchor(sample(cset, rng, 1)[0]),
    )
    lam = 1.0 / ls_lipschitz(B)
    starts, anchors, refs = (sample(cset, rng, cells) for _ in range(3))
    cfgs = [
        SolverConfig(
            problem=problem,
            schedule=ScheduleSpec(PowerAlpha(float(rng.uniform(0.3, 1.0))), ConstantLambda(lam), (lam, lam)),
            x1=starts[i],
            n_max=40,
            algorithm=rule,
            perturbation=UniformSquarePerturbation(int(rng.integers(1, 10_000))),
            anchor=anchors[i],
            beta=float(rng.uniform(0.0, 0.9)),
            reference=refs[i],
            # some rows stop early, on or off the stride grid, others run to n_max
            rel_err_target=float(rng.uniform(0.0, 0.5)) if i % 2 else None,
            record_stride=stride,
        )
        for i in range(cells)
    ]
    batch = run_batch(cfgs)
    for cfg, got in zip(cfgs, batch):
        assert_same_trace(got, run(cfg))
        for x in got.x:
            assert contains(cset, x, 1e-9)


def diverging_batch():
    # lam = 50 on an unbounded set explodes; lam <= 2 nu = 2 converges
    problem = ProblemSpec(
        set_Q=Hyperplane(normal=[1.0, 1.0], offset=0.0),
        map_S=Identity(2),
        map_A=LeastSquaresGradient(B=np.eye(2), b=[0.0, 0.0]),
        map_f=ConstantAnchor([0.0, 0.0]),
    )
    return [
        SolverConfig(
            problem=problem,
            schedule=ScheduleSpec(TableAlpha(np.full(300, 0.5)), ConstantLambda(lam), (lam, lam)),
            x1=[1.0, -1.0],
            n_max=300,
            reference=[1.0, -1.0],
        )
        for lam in (0.5, 50.0, 1.5)
    ]


def test_diverging_row_fails_alone():
    cfgs = diverging_batch()
    with pytest.warns(Warning):
        batch = run_batch(cfgs)
    err = batch[1]
    assert isinstance(err, DivergenceError)
    with pytest.warns(Warning):
        with pytest.raises(DivergenceError) as solo:
            run(cfgs[1])
    assert str(err) == str(solo.value)
    assert err.step == solo.value.step
    assert same_bits(err.last_state, solo.value.last_state)
    for i in (0, 2):
        assert_same_trace(batch[i], run(cfgs[i]))


def assert_rel_err_of_records(trace, ref):
    """Each rel_err cell is norm(x_k - ref) / norm(ref) of its recorded row, bit for bit."""
    want = [norm(x - ref) / norm(ref) for x in trace.x]
    assert [v.hex() for v in trace.rel_err.tolist()] == [v.hex() for v in want]


def least_squares_batch(d, cells, stride, n, seed, targets=None):
    """Perturbed runs on a d-dimensional orthant problem (row kernels), each with a reference."""
    rng = np.random.default_rng(seed)
    B = rng.normal(size=(d, d)) + np.eye(d)
    problem = ProblemSpec(
        set_Q=NonnegOrthant(d),
        map_S=Identity(d),
        map_A=LeastSquaresGradient(B, rng.normal(size=d)),
        map_f=ConstantAnchor(rng.uniform(0.0, 1.0, size=d)),
    )
    lam = 1.0 / ls_lipschitz(B)
    return [
        SolverConfig(
            problem=problem,
            schedule=ScheduleSpec(PowerAlpha(float(rng.uniform(0.3, 1.0))), ConstantLambda(lam), (lam, lam)),
            x1=rng.uniform(0.0, 2.0, size=d),
            n_max=n,
            algorithm=PERTURBED,
            perturbation=UniformSquarePerturbation(int(rng.integers(1, 10_000))),
            reference=rng.uniform(0.5, 1.5, size=d),
            rel_err_target=None if targets is None else targets[i],
            record_stride=stride,
        )
        for i in range(cells)
    ]


@pytest.mark.parametrize("d", (1, 3))
@pytest.mark.parametrize("cells", (1, 5))
@pytest.mark.parametrize("stride, n", ((1, 60), (7, 100)))  # 100 is off the stride-7 grid
def test_rel_err_without_a_target_is_that_of_each_record(d, cells, stride, n):
    cfgs = least_squares_batch(d, cells, stride, n, seed=10 * d + cells + stride)
    kgrid = list(range(1, n + 1, stride))
    kgrid += [] if kgrid[-1] == n else [n]
    for cfg, got in zip(cfgs, run_batch(cfgs)):
        assert got.k.tolist() == kgrid
        assert_rel_err_of_records(got, cfg.reference)
        assert_same_trace(got, run(cfg))


def test_rel_err_without_a_target_stays_exact_beside_a_diverging_row():
    cfgs = diverging_batch()
    with pytest.warns(Warning):
        batch = run_batch(cfgs)
    for cfg, got in zip(cfgs, batch):
        # an independent loop of the explicit step, up to the first non-finite iterate
        xs, k = [cfg.x1], 1
        with np.errstate(over="ignore", invalid="ignore"):
            while k < cfg.n_max and np.isfinite(nxt := step_at(xs[-1], k, cfg)).all():
                xs, k = xs + [nxt], k + 1
        if isinstance(got, DivergenceError):
            assert (got.step, str(got)) == (k, f"non-finite iterate at step {k} (algorithm 'explicit_viscosity')")
            assert same_bits(got.last_state, xs[-1])
        else:
            assert k == cfg.n_max and same_bits(got.x, np.array(xs))
            assert_rel_err_of_records(got, cfg.reference)
    assert [type(r) for r in batch] == [RunTrace, DivergenceError, RunTrace]



HUGE = 1e160  # squared, it overflows: the iterates are finite but their sum of squares is not


class AnchorUntilEdge:
    """f(x) = (HUGE, ..., HUGE) while x[0] <= edge, and ``bad`` (inf or nan) in every entry after."""

    lipschitz = 0.0
    ism_modulus = None

    def __init__(self, d, edge, bad):
        self.dim, self.edge, self.bad = d, edge, bad

    def __call__(self, x):
        return np.full(self.dim, self.bad if x[0] > self.edge else HUGE)


class RefuseBeyondEdge(AnchorUntilEdge):
    """AnchorUntilEdge that refuses an x with x[0] > edge (NonFiniteError), as the simplex projection refuses inf."""

    def __call__(self, x):
        if x[0] > self.edge:
            raise NonFiniteError(f"x[0] = {x[0]!r} is beyond the edge")
        return super().__call__(x)


def huge_batch(cells, edge=np.inf, bad=np.inf, d=3, n=15, f=AnchorUntilEdge):
    """Explicit runs toward (HUGE, ..., HUGE) from below; row i starts at ``starts[i] * HUGE``."""
    problem = ProblemSpec(
        set_Q=NonnegOrthant(d),
        map_S=Identity(d),
        map_A=LeastSquaresGradient(np.eye(d), np.full(d, HUGE)),
        map_f=f(d, edge, bad),
    )
    sched = ScheduleSpec(TableAlpha(np.full(n, 0.1)), ConstantLambda(0.5), (0.5, 0.5))
    starts = (0.0, 0.999, 0.99)[:cells]
    return [SolverConfig(problem=problem, schedule=sched, x1=np.full(d, f * HUGE), n_max=n) for f in starts]


def explicit_loop(cfg):
    """An independent loop of the explicit step: the iterates up to the first non-finite one, and its step."""
    xs, k = [cfg.x1], 1
    while k < cfg.n_max and np.isfinite(nxt := step_at(xs[-1], k, cfg)).all():
        xs, k = xs + [nxt], k + 1
    return np.array(xs), k


@pytest.mark.parametrize("cells", (1, 3))
def test_iterates_whose_sum_of_squares_overflows_are_finite(cells):
    cfgs = huge_batch(cells)
    for cfg, got in zip(cfgs, run_batch(cfgs) if cells > 1 else [run(cfgs[0])]):
        assert isinstance(got, RunTrace) and got.metadata["stopped_at"] is None
        xs, k = explicit_loop(cfg)
        assert k == cfg.n_max and same_bits(got.x, xs)
        with np.errstate(over="ignore"):
            assert np.sum(np.square(got.x[-1])) == np.inf


@pytest.mark.parametrize("bad", (np.inf, np.nan))
@pytest.mark.parametrize("cells", (1, 2, 3))
def test_a_row_whose_map_turns_non_finite_stops_where_the_oracle_does(cells, bad):
    cfgs = huge_batch(cells, edge=HUGE * (1 - 1e-6), bad=bad)
    if cells > 1:
        batch = run_batch(cfgs)
    else:
        try:
            batch = [run(cfgs[0])]
        except DivergenceError as err:
            batch = [err]
    for cfg, got in zip(cfgs, batch):
        xs, k = explicit_loop(cfg)
        if isinstance(got, DivergenceError):
            assert (got.step, str(got)) == (k, f"non-finite iterate at step {k} (algorithm 'explicit_viscosity')")
            assert same_bits(got.last_state, xs[-1])
        else:
            assert k == cfg.n_max and same_bits(got.x, xs)
    assert [type(r) for r in batch] == [RunTrace, DivergenceError, DivergenceError][:cells]
    assert [getattr(r, "step", None) for r in batch] == [None, 10, 13][:cells]


def run_or_error(cfg):
    try:
        return run(cfg)
    except DivergenceError as err:
        return err


@pytest.mark.parametrize("cells", (2, 3))
def test_rows_a_kernel_refuses_end_alone_at_their_own_steps(cells):
    # the map refuses (NonFiniteError) the points where AnchorUntilEdge turns inf: the batch steps each row
    # alone at that step, so the refused rows end where the inf rows end (steps 10 and 13), each with the
    # last state of its own run, and the row that is never refused is its own run bit for bit
    edge = HUGE * (1 - 1e-6)
    cfgs = huge_batch(cells, edge=edge, f=RefuseBeyondEdge)
    batch = run_batch(cfgs)
    for cfg, got, twin in zip(cfgs, batch, run_batch(huge_batch(cells, edge=edge))):
        solo = run_or_error(cfg)  # one vector: the step that raised is the row's
        if isinstance(got, DivergenceError):
            for want in (twin, solo):
                assert (got.step, str(got)) == (want.step, str(want))
                assert same_bits(got.last_state, want.last_state)
            assert np.isfinite(got.last_state).all() and got.last_state[0] > edge
        else:
            assert_same_trace(got, solo)
    assert [getattr(r, "step", None) for r in batch] == [None, 10, 13][:cells]


def test_a_row_the_trig_contraction_refuses_ends_at_step_1(problem):
    # the sweep's kernels: a coordinate sum of 1e308 + 1e308 is refused in the rows' f; the other rows go on
    starts = ([2.0, 3.0], [1e308, 1e308], [0.5, 4.0], [1e308, 1e308])
    cfgs = [
        SolverConfig(problem=problem, schedule=benchmark_schedule(0.9, problem=problem), x1=x1, n_max=300,
                     algorithm=PERTURBED, perturbation=UniformSquarePerturbation(seed))
        for seed, x1 in enumerate(starts, 1)
    ]
    batch = run_batch(cfgs)
    for cfg, got in zip(cfgs, batch):
        solo = run_or_error(cfg)
        if isinstance(got, DivergenceError):
            message = "non-finite iterate at step 1 (algorithm 'perturbed')"
            assert (got.step, str(got)) == (solo.step, str(solo)) == (1, message)
            assert same_bits(got.last_state, cfg.x1) and same_bits(solo.last_state, cfg.x1)
        else:
            assert_same_trace(got, solo)
    assert [type(r) for r in batch] == [RunTrace, DivergenceError, RunTrace, DivergenceError]


def test_rel_err_in_a_batch_with_one_target_is_exact_on_every_row():
    cfgs = least_squares_batch(3, 4, 1, 200, seed=5)
    # a target the second row reaches by k = 41, stopping it early
    free = run(cfgs[1]).rel_err
    target = float(free[40])
    hit = int(np.flatnonzero(free <= target)[0]) + 1
    cfgs[1] = dataclasses.replace(cfgs[1], rel_err_target=target)
    batch = run_batch(cfgs)
    assert [got.k[-1] for got in batch] == [200, hit, 200, 200]
    assert batch[1].metadata["stopped_at"] == hit
    for cfg, got in zip(cfgs, batch):
        assert_rel_err_of_records(got, cfg.reference)
        assert_same_trace(got, run(cfg))


@pytest.mark.parametrize("stride", (1, 7))
def test_a_runs_rel_err_is_that_of_each_record_when_it_stops_at_a_target(stride):
    (cfg,) = least_squares_batch(2, 1, stride, 400, seed=41)
    cfg = dataclasses.replace(cfg, reference=run(cfg).final)  # rel_err falls as the run goes on
    dense = run(dataclasses.replace(cfg, record_stride=1)).rel_err
    lowest = np.minimum.accumulate(dense)
    # the first k past 100, off the stride-7 grid, where rel_err is below every earlier value
    k = next(k for k in range(101, 400) if dense[k - 1] < lowest[k - 2] and (k - 1) % 7)
    trace = run(dataclasses.replace(cfg, rel_err_target=float(dense[k - 1])))
    assert trace.metadata["stopped_at"] == trace.k[-1] == k
    assert_rel_err_of_records(trace, cfg.reference)


def test_each_rows_rel_err_in_a_mixed_batch_is_that_of_its_records():
    # diverging_batch's line with the anchor (2, -2), where x_k = c_k (1, -1) tends to (2, -2) / (1 + lambda):
    # row 0 steps with a lambda table, row 1 stops at k = 2 off the stride-3 grid (c_2 = 1.25 is the nearest
    # c_k to the reference's 1.2), row 2 diverges (lambda = 50) and row 3 runs to n_max
    n = 300
    problem = ProblemSpec(set_Q=Hyperplane(normal=[1.0, 1.0], offset=0.0), map_S=Identity(2),
                          map_A=LeastSquaresGradient(B=np.eye(2), b=[0.0, 0.0]), map_f=ConstantAnchor([2.0, -2.0]))
    lams = [TableLambda(np.linspace(0.5, 1.5, n)), ConstantLambda(0.5), ConstantLambda(50.0), ConstantLambda(1.5)]
    cfgs = [SolverConfig(problem=problem, schedule=ScheduleSpec(TableAlpha(np.full(n, 0.5)), lam, (0.5, 50.0)),
                         x1=[1.0, -1.0], n_max=n, reference=[1.2, -1.2], record_stride=3,
                         rel_err_target=0.05 if j == 1 else None)
            for j, lam in enumerate(lams)]
    with pytest.warns(ScheduleViolationWarning):
        batch = run_batch(cfgs)
    assert [type(r) for r in batch] == [RunTrace, RunTrace, DivergenceError, RunTrace]
    assert batch[1].metadata["stopped_at"] == batch[1].k[-1] == 2 and batch[3].k[-1] == n
    for cfg, got in zip(cfgs, batch):
        if isinstance(got, RunTrace):
            assert got.reference is cfg.reference
            assert_rel_err_of_records(got, cfg.reference)


def test_a_reference_of_norm_zero_is_refused(problem):
    with pytest.raises(ConfigurationError, match="nonzero norm"):
        SolverConfig(problem=problem, schedule=benchmark_schedule(0.9, problem=problem), x1=[2.0, 3.0],
                     n_max=10, reference=[0.0, 0.0])


def test_schedule_error_before_stepping_is_the_rows_outcome(problem):
    short = ScheduleSpec(TableAlpha(np.full(10, 0.5)), ConstantLambda(0.1), (0.1, 0.1))
    cfgs = [
        SolverConfig(problem=problem, schedule=s, x1=[2.0, 3.0], n_max=50)
        for s in (benchmark_schedule(0.9, problem=problem), short)
    ]
    ok, err = run_batch(cfgs)
    assert isinstance(err, IndexError) and "alpha table exhausted at k=11" in str(err)
    assert_same_trace(ok, run(cfgs[0]))


@pytest.mark.parametrize("kind", SET_KINDS)
@pytest.mark.parametrize("d", range(1, 9))
def test_project_rows_equals_project_of_each_row(kind, d):
    rng = np.random.default_rng(100 * d + SET_KINDS.index(kind))
    cset = make_set(kind, rng, d)
    inside = sample(cset, rng, 7)
    outside = rng.normal(scale=5.0, size=(7, d))
    boundary = np.stack([project(cset, x) for x in outside])
    mixed = np.concatenate([inside, outside, boundary])
    for cells in (1, 2, 7):
        for X in (inside[:cells], outside[:cells], boundary[:cells], mixed[rng.permutation(21)[:cells]]):
            want = np.stack([project(cset, x) for x in X])
            assert same_bits(project_rows(cset, X), want), (kind, d, cells)


def test_empty_rows_give_empty_rows():
    rng = np.random.default_rng(4)
    X = np.empty((0, 2))
    for kind in SET_KINDS:
        assert project_rows(make_set(kind, rng, 2), X).shape == (0, 2), kind
    for m in (Identity(2), TrigContraction(), ConstantAnchor([1.0, 2.0]), AffineMap(np.eye(2), [1.0, 0.0])):
        assert rows_of(m)(X).shape == (0, 2), type(m).__name__


def test_simplex_rows_refuse_non_finite_rows_like_project():
    X = np.array([[0.2, 0.3, 0.5], [np.nan, 1.0, 0.0]])
    with pytest.raises(NonFiniteError):
        project(Simplex(1.0, 3), X[1])
    with pytest.raises(NonFiniteError):
        project_rows(Simplex(1.0, 3), X)


def test_batch_needs_shared_problem_and_rule(problem):
    cfg = SolverConfig(problem=problem, schedule=benchmark_schedule(0.9, problem=problem), x1=[2.0, 3.0], n_max=20)
    other = SolverConfig(problem=problem, schedule=cfg.schedule, x1=[2.0, 3.0], n_max=20, algorithm=PERTURBED)
    with pytest.raises(ConfigurationError, match="batch"):
        run_batch([cfg, other])
    assert run_batch([]) == []


def test_rows_fallback_for_custom_sets_and_maps():
    # a set with a projection rule but no row kernel, and a map without
    # ``rows``, step through per-row loops and still match their solo runs
    @dataclass(frozen=True)
    class UnitSquare:
        dim: int = 2

        def project(self, x):
            return np.clip(x, 0.0, 1.0)

        def contains(self, x, tol=1e-10):
            return bool(np.all(x >= -tol) and np.all(x <= 1.0 + tol))

    class Halve:
        dim = 2
        lipschitz = 0.5
        ism_modulus = None

        def __call__(self, x):
            return 0.5 * x

    problem = ProblemSpec(
        set_Q=UnitSquare(),
        map_S=Identity(2),
        map_A=LeastSquaresGradient(B=np.eye(2), b=[0.5, 0.5]),
        map_f=Halve(),
    )
    X = np.random.default_rng(3).normal(scale=2.0, size=(4, 2))
    assert np.array_equal(project_rows(problem.set_Q, X), np.clip(X, 0.0, 1.0))
    sched = benchmark_schedule(0.7, lam=0.5)
    cfgs = [
        SolverConfig(problem=problem, schedule=sched, x1=x1, n_max=30, algorithm=PERTURBED,
                     perturbation=UniformSquarePerturbation(s))
        for s, x1 in ((1, [0.2, 0.9]), (2, [1.0, 0.0]))
    ]
    for cfg, got in zip(cfgs, run_batch(cfgs)):
        assert_same_trace(got, run(cfg))


@pytest.mark.parametrize("with_rel", [False, True])
def test_csv_writer_matches_per_row_repr(tmp_path, with_rel):
    # three chunks, the last one partial; columns that are constant only in
    # some chunks, start with a repeated value, or mix 0.0 with -0.0
    n = 2503
    rng = np.random.default_rng(7)
    x = rng.normal(size=(n, 3))
    x[:, 2] = 0.0
    x[1500, 2] = -0.0
    lam = np.full(n, 0.1)
    lam[1000:2000] = 0.0
    lam[1500] = -0.0
    lam[-1] = 0.2
    alpha = np.concatenate([[0.5, 0.5], rng.random(n - 2)])
    ref = None
    if with_rel:  # x near the reference: rel_err from 1e-11 to about 1e-4, in exponent form and in the 0.0000d... band
        ref = np.array([1.5, -2.5, 0.0])
        x[:, :2] = ref[:2] + rng.normal(size=(n, 2)) * (norm(ref) * 10.0 ** rng.uniform(-11, -4, size=(n, 1)))
    tr = RunTrace(k=np.arange(1, n + 1), x=x, alpha=alpha, lam=lam, e_norm=np.zeros(n), reference=ref, metadata={})
    if with_rel:
        rel = tr.rel_err
        assert (rel < 1e-9).any() and ((rel >= 1e-9) & (rel < 1e-5)).any() and ((rel >= 1e-5) & (rel < 1e-4)).any()
    path = tmp_path / "trace.csv"
    tr.write_csv(path)
    assert path.read_text() == repr_csv(tr)


def repr_csv(trace):
    """The trace CSV written row by row with repr: the oracle of ``RunTrace.write_csv``."""
    d, rel = trace.x.shape[1], trace.rel_err
    lines = ["k," + ",".join(f"x{i + 1}" for i in range(d)) + ",alpha,lambda,e_norm,rel_err"]
    for j in range(trace.k.size):
        cells = [str(int(trace.k[j]))] + [repr(float(v)) for v in trace.x[j]]
        cells += [repr(float(v[j])) for v in (trace.alpha, trace.lam, trace.e_norm)]
        cells.append("" if rel is None else repr(float(rel[j])))
        lines.append(",".join(cells))
    return "\n".join(lines) + "\n"


def test_csv_writer_matches_per_row_repr_on_a_perturbed_run(tmp_path, problem, qstar):
    # the sweep's trace: 6000 rows whose e_norm column is a uniform_square_over_ksq
    # stream, nearly all of it in exponent form and some of it in the 0.0000d... band
    cfg = SolverConfig(problem=problem, schedule=benchmark_schedule(0.6, problem=problem), x1=[2.0, 3.0],
                       n_max=6000, algorithm=PERTURBED, perturbation=UniformSquarePerturbation(3), reference=qstar)
    assert cfg.perturbation.kind == "uniform_square_over_ksq"
    tr = run(cfg)
    assert (tr.e_norm < 1e-5).mean() > 0.9 and ((tr.e_norm >= 1e-5) & (tr.e_norm < 1e-4)).any()
    path = tmp_path / "trace.csv"
    tr.write_csv(path)
    assert path.read_text() == repr_csv(tr)


def shared_column_traces(n=2503, seed=23):
    """A trace of three chunks (the last partial) and variants that differ from it in one chunk of one column.

    Its x lies near its reference, so that its rel_err cells are in exponent form and in the 0.0000d... band.
    """
    rng = np.random.default_rng(seed)
    e_norm = rng.random(n) * 1e-6
    e_norm[1500] = 0.0
    ref = np.array([0.75, 1.25])
    x = ref + rng.normal(size=(n, 2)) * (norm(ref) * 10.0 ** rng.uniform(-8, -4, size=(n, 1)))
    base = dict(k=np.arange(1, n + 1), x=x, alpha=rng.random(n), lam=np.full(n, 0.1), e_norm=e_norm, reference=ref,
                metadata={})

    def variant(name, index, value, rows=n):
        cols = {key: v.copy() if isinstance(v, np.ndarray) else v for key, v in base.items()}
        cols[name][index] = value
        return RunTrace(**{key: v[:rows] if isinstance(v, np.ndarray) and key != "reference" else v
                           for key, v in cols.items()})

    return RunTrace(**base), variant, base


def five_traces():
    """The five traces of the open-file test: two of other lengths, one variant, the base trace twice."""
    trace, variant, _ = shared_column_traces()
    return [trace, variant("k", 700, 700, rows=1999), variant("e_norm", 1500, -0.0), variant("lam", 300, 0.1, rows=7),
            trace]


def test_write_traces_reuses_only_bit_equal_chunks(tmp_path):
    # consecutive traces that differ from the kept cells in one chunk only, and traces of other
    # lengths (the chunks at the same start then differ in shape): each file is its solo write
    trace, variant, base = shared_column_traces()
    e = base["e_norm"]
    traces = [
        trace,
        variant("e_norm", 1200, np.nextafter(e[1200], 1.0)),  # one ULP, in the second chunk
        variant("e_norm", 1500, -0.0),  # -0.0 against 0.0
        trace,
        variant("k", 2100, 2102),  # in the last, partial chunk
        variant("k", 700, 700, rows=1999),  # a shorter trace: its second chunk has 999 rows
        trace,
        variant("lam", 300, np.nextafter(0.1, 1.0)),
        variant("lam", 300, 0.1, rows=7),
        variant("e_norm", 2, -0.0, rows=1000),
        trace,
        variant("k", 1200, 5, rows=1500),  # its 500-row chunk is kept ...
        variant("k", 1200, 5),  # ... and is only a prefix of this one's chunk
    ]
    paths = [tmp_path / f"shared_{i}.csv" for i in range(len(traces))]
    solvers._write_traces(zip(traces, paths))
    for i, (tr, path) in enumerate(zip(traces, paths)):
        tr.write_csv(tmp_path / "alone.csv")
        assert path.read_bytes() == (tmp_path / "alone.csv").read_bytes(), i
        assert path.read_text() == repr_csv(tr), i


def test_write_traces_beyond_the_open_file_bound_writes_each_file_as_written_alone(tmp_path, monkeypatch, cpus):
    # with the bound at 2, five traces go out in three groups: never more than two files are open,
    # and each file holds the bytes write_csv writes for its trace alone (one CPU: this process opens all)
    cpus(1)
    traces = five_traces()
    monkeypatch.setattr(solvers, "_OPEN_TRACES", 2)
    opened = []

    def counting_open(*args, **kwargs):
        assert sum(not fh.closed for fh in opened) < 2
        opened.append(fh := open(*args, **kwargs))
        return fh

    monkeypatch.setattr(solvers, "open", counting_open, raising=False)
    paths = [tmp_path / f"group_{i}.csv" for i in range(len(traces))]
    solvers._write_traces(zip(traces, paths))
    assert len(opened) == len(traces) and all(fh.closed for fh in opened)
    for i, (tr, path) in enumerate(zip(traces, paths)):
        tr.write_csv(tmp_path / "alone.csv")
        assert path.read_bytes() == (tmp_path / "alone.csv").read_bytes(), i
        assert path.read_text() == repr_csv(tr), i


def test_write_traces_formats_a_shared_chunk_once(tmp_path, monkeypatch, cpus):
    # three traces that share k, lambda and e_norm (as the cells of one sweep seed do) and
    # differ in x, alpha and rel_err: only the first formats the shared columns (one CPU: one share)
    cpus(1)
    n = 2503
    chunks = -(-n // solvers._CSV_CHUNK)
    traces = [dataclasses.replace(shared_column_traces(n)[0], x=x, alpha=a)  # rel_err follows x
              for x, a in [(np.full((n, 2), i + 0.5), np.full(n, 0.5 + i) + np.arange(n)) for i in range(3)]]
    calls = []
    csv_cells = solvers._csv_cells
    monkeypatch.setattr(solvers, "_csv_cells", lambda v: calls.append(v.size) or csv_cells(v))
    solvers._write_traces((tr, tmp_path / f"t{i}.csv") for i, tr in enumerate(traces))
    # per chunk: x, alpha and rel_err of every trace, k, lambda and e_norm once
    assert len(calls) == chunks * (3 * 3 + 3)
    for i, tr in enumerate(traces):
        assert (tmp_path / f"t{i}.csv").read_text() == repr_csv(tr)


def assert_no_child_left():
    with pytest.raises(ChildProcessError):  # every writer child was reaped: this process has none
        os.waitpid(-1, os.WNOHANG)


def test_write_traces_in_two_or_three_shares_writes_the_bytes_of_one(tmp_path, monkeypatch, cpus, forks):
    # with two files open at a time, a forked child writes each share past the first, and every file
    # holds the bytes one process writes
    traces = five_traces()
    monkeypatch.setattr(solvers, "_OPEN_TRACES", 2)
    written = {}
    for shares in (1, 2, 3):
        cpus(shares)
        paths = [tmp_path / f"shares_{shares}_{i}.csv" for i in range(len(traces))]
        solvers._write_traces(zip(traces, paths))
        written[shares] = [path.read_bytes() for path in paths]
        assert len(forks) == shares * (shares - 1) // 2  # one child per share past the first
        assert_no_child_left()
    assert written[2] == written[1] and written[3] == written[1]
    assert [blob.decode() for blob in written[1]] == [repr_csv(tr) for tr in traces]


@pytest.mark.parametrize("bad", [0, 3], ids=["own share", "child's share"])
def test_write_traces_raises_a_shares_os_error_with_its_filename_and_leaves_no_child(tmp_path, cpus, forks, bad):
    # five traces in two shares: this process writes traces 0-1, a child 2-4
    cpus(2)
    paths = [tmp_path / f"t{i}.csv" for i in range(5)]
    paths[bad] = tmp_path / "missing" / "t.csv"
    with pytest.raises(FileNotFoundError) as info:
        solvers._write_traces(zip(five_traces(), paths))
    assert info.value.filename == str(paths[bad]) and info.value.errno == errno.ENOENT
    assert len(forks) == 1
    assert_no_child_left()


def count_own_writes(monkeypatch, child_write=None):
    """The ``_write_share`` calls made in this process, each as its list of paths; a forked child calls
    ``child_write`` in its place, when given."""
    parent, write_share, calls = os.getpid(), solvers._write_share, []

    def write(items):
        if os.getpid() == parent:
            calls.append([path for _, path in items])
        elif child_write:
            return child_write(items)
        return write_share(items)

    monkeypatch.setattr(solvers, "_write_share", write)
    return calls


@pytest.mark.parametrize("how", ["SIGKILL", "local class", "exit 3"])
def test_write_traces_writes_again_the_share_of_a_child_that_fails(tmp_path, cpus, monkeypatch, how):
    # five traces in two shares: a child that does not end with status 0 (killed, raising an exception of
    # a class local to this test, or leaving with code 3) leaves its share, traces 2-4, to this process,
    # which writes it once its own share is written and the child reaped
    class LocalError(Exception):
        pass

    def fail(items):
        if how == "SIGKILL":
            os.kill(os.getpid(), signal.SIGKILL)
        if how == "local class":
            raise LocalError("not for pickle")
        os._exit(3)

    cpus(2)
    calls = count_own_writes(monkeypatch, fail)
    traces, paths = five_traces(), [tmp_path / f"t{i}.csv" for i in range(5)]
    solvers._write_traces(zip(traces, paths))
    assert [path.read_text() for path in paths] == [repr_csv(tr) for tr in traces]
    assert calls == [paths[:2], paths[2:]]
    assert_no_child_left()


def test_write_traces_raises_its_own_shares_failure_and_writes_no_failed_share_again(tmp_path, cpus, forks,
                                                                                   monkeypatch):
    # this process's share (traces 0-1) and the child's (2-4) both fail: the own share's error is raised,
    # once the child is reaped, and nothing is written again
    cpus(2)
    calls = count_own_writes(monkeypatch)
    paths = [tmp_path / f"t{i}.csv" for i in range(5)]
    paths[0], paths[3] = tmp_path / "missing" / "t0.csv", tmp_path / "missing" / "t3.csv"
    with pytest.raises(FileNotFoundError) as info:
        solvers._write_traces(zip(five_traces(), paths))
    assert info.value.filename == str(paths[0])
    assert calls == [paths[:2]] and len(forks) == 1
    assert_no_child_left()


def test_write_traces_writes_every_share_itself_when_it_cannot_fork(tmp_path, cpus, monkeypatch):
    # fork refused (as at a process limit): no pipe is left open and each file holds its bytes
    cpus(3)

    def refused():
        raise BlockingIOError(errno.EAGAIN, "Resource temporarily unavailable")

    monkeypatch.setattr(os, "fork", refused)
    fds = len(os.listdir("/proc/self/fd"))
    traces, paths = five_traces(), [tmp_path / f"t{i}.csv" for i in range(5)]
    solvers._write_traces(zip(traces, paths))
    assert len(os.listdir("/proc/self/fd")) == fds
    assert [path.read_text() for path in paths] == [repr_csv(tr) for tr in traces]


@pytest.mark.parametrize("case", ["one trace", "one CPU", "another thread"])
def test_write_traces_forks_nothing_for_one_trace_one_cpu_or_while_another_thread_runs(tmp_path, cpus, monkeypatch,
                                                                                       case):
    # a forked child holds only the forking thread, so a write while another thread runs stays here
    traces = five_traces()[: 1 if case == "one trace" else 5]
    cpus(1 if case == "one CPU" else 3)
    monkeypatch.setattr(os, "fork", lambda: pytest.fail("forked"))
    stop = threading.Event()
    worker = threading.Thread(target=stop.wait, args=(60,))
    if case == "another thread":
        worker.start()
    try:
        solvers._write_traces((tr, tmp_path / f"t{i}.csv") for i, tr in enumerate(traces))
    finally:
        stop.set()
        if worker.is_alive():
            worker.join(timeout=60)
    assert not worker.is_alive()
    assert [(tmp_path / f"t{i}.csv").read_text() for i in range(len(traces))] == [repr_csv(tr) for tr in traces]


def repr_cells(values):
    return repr(values.tolist())[1:-1].split(", ")


def assert_cells_equal_repr(values):
    got, want = _csv_cells(values), repr_cells(values)
    assert len(got) == len(want)
    bad = [(a, b) for a, b in zip(got, want) if a != b]
    assert not bad, bad[:5]


@settings(max_examples=300)
@given(st.lists(st.floats(allow_nan=True, allow_infinity=True, allow_subnormal=True), max_size=40))
def test_csv_cells_equal_repr_for_any_floats(vals):
    v = np.array(vals, dtype=float)
    assert _csv_cells(v) == repr_cells(v)


def test_csv_cells_equal_repr_cell_for_cell():
    rng = np.random.default_rng(5)
    bits = rng.integers(0, 2**64, size=100_000, dtype=np.uint64).view(np.float64)  # nan, inf, subnormals
    normals = rng.normal(size=20_000) * 10.0 ** rng.uniform(-20, 20, size=20_000)
    edges = []
    for e in (1e-5, 1e-4, 1e16):
        up = down = e
        for _ in range(5):
            up, down = np.nextafter(up, np.inf), np.nextafter(down, 0.0)
            edges += [up, down]
        edges.append(e)
    edges = np.array(edges)
    edges = np.concatenate([edges, -edges, [0.0, -0.0, 5e-324, -5e-324, np.finfo(float).max, -np.finfo(float).max]])
    for v in (bits, normals, edges):
        assert_cells_equal_repr(v)
    k = np.arange(1, 2001, dtype=np.int64)
    assert _csv_cells(k) == [str(i) for i in range(1, 2001)]
    assert _csv_cells(np.array([-(2**63), 0, 2**63 - 1], dtype=np.int64)) == repr_cells(np.array([-(2**63), 0, 2**63 - 1]))
    block = rng.normal(size=(300, 4)) * 10.0 ** rng.integers(-8, 18, size=(300, 4))
    for v in (block.ravel()[::3], block[:, 1], block[[5, 0, 299, 7], 2], block[::-1, 0]):
        assert _csv_cells(v) == repr_cells(v)


def test_csv_cells_of_int_columns_equal_repr():
    # int64 goes through orjson, other int dtypes through repr of the list
    rng = np.random.default_rng(19)
    wide = rng.integers(-(2**63), 2**63 - 1, size=5000, dtype=np.int64, endpoint=True)
    edges = np.array([-(2**63), -(2**63) + 1, -1, 0, 1, 2**53 + 1, 2**63 - 2, 2**63 - 1], dtype=np.int64)
    for v in (wide, wide[::7], wide[::-1], edges, edges[:1], wide.astype(np.int32), np.arange(5, dtype=np.uint8)):
        assert _csv_cells(v) == repr_cells(v)


def test_csv_cells_rewrite_exponents_of_either_sign():
    # orjson writes 5e-7 and 1e16 where repr writes 5e-07 and 1e+16
    rng = np.random.default_rng(13)
    mantissas = rng.uniform(1.0, 10.0, size=600) * rng.choice([-1.0, 1.0], size=600)
    negative = mantissas * 10.0 ** rng.integers(-323, -5, size=600)  # every |v| < 1e-5
    positive = mantissas * 10.0 ** rng.integers(16, 307, size=600)  # every |v| >= 1e16
    both = rng.permutation(np.concatenate([negative, positive]))
    for v in (negative, positive, both, negative[:1], positive[:1], np.array([1e16, 5e-7, 0.5, 2e-5])):
        assert_cells_equal_repr(v)


def test_csv_cells_at_every_exponent_edge():
    exponents = [*range(-9, -4), -10, -99, -100, *range(-324, -307)]
    values = [float(f"{m}e{e}") for e in exponents for m in ("1", "2.5", "9.999")]
    for edge in (1e-5, 1e-9, 1e-10, 1e-100, 1e16):
        up = down = edge
        for _ in range(4):
            up, down = np.nextafter(up, np.inf), np.nextafter(down, 0.0)
            values += [edge, up, down]
    values = np.array(values)
    for v in (values, -values, np.concatenate([values, -values])):
        assert_cells_equal_repr(v)
    for v in values:  # alone, so that no other cell of the column decides whether it is rewritten
        assert_cells_equal_repr(np.array([v]))
        assert_cells_equal_repr(np.array([-v]))


def test_csv_cells_pad_one_digit_exponents_beside_longer_ones():
    rng = np.random.default_rng(17)
    signs = rng.choice([-1.0, 1.0], size=400)
    one_digit = signs[:200] * rng.uniform(1.0, 10.0, size=200) * 10.0 ** rng.integers(-9, -5, size=200)
    mixed = rng.permutation(np.concatenate([one_digit[:100], signs[200:300] * 3.7e-7, signs[300:] * 2.5e-12]))
    for v in (mixed, one_digit, np.array([1e-7, 1e-12]), np.array([5e-7, 0.0, -0.0, 0.5, 2e-5, 1e16])):
        assert_cells_equal_repr(v)


@settings(max_examples=300)
@given(st.lists(st.tuples(st.floats(-330.0, 20.0), st.booleans()), max_size=40))
def test_csv_cells_equal_repr_mostly_in_exponent_form(draws):
    assert_cells_equal_repr(np.array([(-1.0 if neg else 1.0) * 10.0 ** e for e, neg in draws]))


def test_import_does_not_load_the_trace_formatter():
    # orjson is loaded on the first trace write, so import and set-up do not pay for it;
    # -I ignores PYTHONPATH, so the source tree goes on sys.path inside the child
    src = str(Path(__file__).resolve().parents[1] / "src")
    code = f"import sys; sys.path.insert(0, {src!r}); import viscosolve; print('orjson' in sys.modules)"
    out = subprocess.run([sys.executable, "-I", "-c", code], capture_output=True, text=True, check=True)
    assert out.stdout.strip() == "False"


@pytest.mark.parametrize("cells", (1, 2, 16))
def test_built_in_map_rows_are_c_contiguous_and_equal_each_rows_call(cells):
    # a step multiplies and adds these rows: a transposed or broadcast result takes numpy's slower loops
    rng = np.random.default_rng(cells)
    for m in (Identity(2), TrigContraction(), LeastSquaresGradient(rng.normal(size=(3, 2)), rng.normal(size=3))):
        X = rng.normal(scale=3.0, size=(cells, 2))
        got = m.rows(X)
        assert got.shape == X.shape and got.flags.c_contiguous, type(m).__name__
        for x, row in zip(X, got):
            assert same_bits(row, m(x)), type(m).__name__


def test_map_rows_equal_calls_on_each_row():
    rng = np.random.default_rng(11)
    maps = [
        Identity(3),
        TrigContraction(),
        ConstantAnchor(rng.normal(size=3)),
        LeastSquaresGradient(rng.normal(size=(4, 3)), rng.normal(size=4)),
        AffineMap(rng.normal(size=(3, 3)), rng.normal(size=3)),
    ]
    for m in maps:
        for cells in (1, 2, 7):
            X = rng.normal(scale=3.0, size=(cells, m.dim))
            got = np.broadcast_to(rows_of(m)(X), X.shape)
            for x, row in zip(X, got):
                assert same_bits(row, np.asarray(m(x), dtype=float)), type(m).__name__


def test_the_csv_rel_err_column_is_the_traces_across_its_chunks(tmp_path):
    trace, _, _ = shared_column_traces()
    assert trace.k.size == 2503 and solvers._CSV_CHUNK < trace.k.size
    trace.write_csv(tmp_path / "trace.csv")
    column = [line.rsplit(",", 1)[1] for line in (tmp_path / "trace.csv").read_text().splitlines()[1:]]
    assert column == [repr(v) for v in trace.rel_err.tolist()]


def test_a_finite_iterate_whose_rel_err_overflows_reads_inf_without_a_warning(tmp_path):
    x = np.array([[1.0, 2.0], [HUGE, -HUGE], [3.0, 4.0]])
    trace = RunTrace(k=np.arange(1, 4), x=x, alpha=np.full(3, 0.5), lam=np.full(3, 0.1), e_norm=np.zeros(3),
                     reference=np.array([1.0, 1.0]), metadata={})
    with warnings.catch_warnings():
        warnings.simplefilter("error")
        rel = trace.rel_err
        trace.write_csv(tmp_path / "trace.csv")
        assert trace.min_rel_err() == rel[0] and trace.first_hit(np.inf) == 1
    assert np.isfinite(x).all() and rel[1] == np.inf and np.isfinite(rel[[0, 2]]).all()
    assert (tmp_path / "trace.csv").read_text().splitlines()[2].endswith(",inf")
