"""The lockstep engine: every row of a batch is its own batch-of-one run, bit for bit."""

import subprocess
import sys
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
    Simplex,
    SolverConfig,
    TableAlpha,
    TrigContraction,
    UniformSquarePerturbation,
    benchmark_schedule,
    contains,
    ls_lipschitz,
    project,
    project_rows,
    run,
    run_batch,
    sample,
)
from viscosolve.operators import rows_of
from viscosolve.solvers import PERTURBED, _csv_cells

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

    @project.register
    def _(cset: UnitSquare, x):
        return np.clip(x, 0.0, 1.0)

    @contains.register
    def _(cset: UnitSquare, x, tol=1e-10):
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
    rel = rng.random(n) * 1e-7 if with_rel else None
    tr = RunTrace(k=np.arange(1, n + 1), x=x, alpha=alpha, lam=lam, e_norm=np.zeros(n), rel_err=rel, metadata={})
    path = tmp_path / "trace.csv"
    tr.write_csv(path)
    lines = ["k,x1,x2,x3,alpha,lambda,e_norm,rel_err"]
    for j in range(n):
        cells = [str(j + 1)] + [repr(float(v)) for v in x[j]]
        cells += [repr(float(alpha[j])), repr(float(lam[j])), "0.0", repr(float(rel[j])) if with_rel else ""]
        lines.append(",".join(cells))
    assert path.read_text() == "\n".join(lines) + "\n"


def repr_cells(values):
    return repr(values.tolist())[1:-1].split(", ")


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
        got, want = _csv_cells(v), repr_cells(v)
        assert len(got) == len(want)
        bad = [(a, b) for a, b in zip(got, want) if a != b]
        assert not bad, bad[:5]
    k = np.arange(1, 2001, dtype=np.int64)
    assert _csv_cells(k) == [str(i) for i in range(1, 2001)]
    assert _csv_cells(np.array([-(2**63), 0, 2**63 - 1], dtype=np.int64)) == repr_cells(np.array([-(2**63), 0, 2**63 - 1]))
    block = rng.normal(size=(300, 4)) * 10.0 ** rng.integers(-8, 18, size=(300, 4))
    for v in (block.ravel()[::3], block[:, 1], block[[5, 0, 299, 7], 2], block[::-1, 0]):
        assert _csv_cells(v) == repr_cells(v)


def test_import_does_not_load_the_trace_formatter():
    # orjson is loaded on the first trace write, so import and set-up do not pay for it;
    # -I ignores PYTHONPATH, so the source tree goes on sys.path inside the child
    src = str(Path(__file__).resolve().parents[1] / "src")
    code = f"import sys; sys.path.insert(0, {src!r}); import viscosolve; print('orjson' in sys.modules)"
    out = subprocess.run([sys.executable, "-I", "-c", code], capture_output=True, text=True, check=True)
    assert out.stdout.strip() == "False"


def test_sweep_falls_back_to_one_cell_at_a_time(monkeypatch):
    # a failure the batch cannot pin on one row reruns every cell alone
    from viscosolve import ExperimentConfig, experiment, run_experiment

    cfg = ExperimentConfig(thetas=(0.3, 0.9), seeds=(1, 2), n_max=200)
    want = run_experiment(cfg)

    def fail(*args, **kwargs):
        raise RuntimeError("not tied to one row")

    monkeypatch.setattr(experiment, "run_batch", fail)
    got = run_experiment(cfg)
    for a, b in zip(got.cells, want.cells):
        assert (a.theta, a.seed, a.min_rel_err, a.first_hit, a.error) == (b.theta, b.seed, b.min_rel_err, b.first_hit, b.error)
        assert_same_trace(a.trace, b.trace)


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
