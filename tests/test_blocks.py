"""The engine steps in blocks: every trace equals the whole-run tables, stream and iterates bit for bit."""

import dataclasses
import tracemalloc
import warnings

import numpy as np
import pytest

from viscosolve import (
    ConstantAnchor,
    ConstantLambda,
    DivergenceError,
    Hyperplane,
    Identity,
    LeastSquaresGradient,
    NonnegOrthant,
    NoPerturbation,
    PowerAlpha,
    ProblemSpec,
    RunTrace,
    ScheduleSpec,
    ScheduleViolationWarning,
    SolverConfig,
    TableAlpha,
    TableLambda,
    UniformSquarePerturbation,
    hypothesis_report,
    lambda_at,
    perturbation_stream,
    run,
    run_batch,
)
from viscosolve import solvers
from viscosolve.schedules import _BLOCK_DOUBLES, _block_steps, tabulate
from viscosolve.solvers import PERTURBED

from oracles import ls_lipschitz, step_at
from test_batch import assert_same_trace, explicit_loop, least_squares_batch, run_or_error, same_bits

D = 64
B = _block_steps(D)


def one_block(monkeypatch, steps):
    """Make every block of the engine ``steps`` steps long."""
    monkeypatch.setattr(solvers, "_block_steps", lambda dim: steps)


class CountingMap(LeastSquaresGradient):
    """A least-squares gradient that counts its calls."""

    calls = 0

    def __call__(self, x):
        CountingMap.calls += 1
        return super().__call__(x)


def counting_identity():
    """A x = x (nu = 1), counted."""
    CountingMap.calls = 0
    return CountingMap(np.eye(D), np.zeros(D))


def d64_cfgs(cells, n, stride, seed, schedule=None, map_A=None):
    """Perturbed runs on a 64-dimensional orthant problem, each with a reference."""
    rng = np.random.default_rng(seed)
    G = rng.normal(size=(D, D)) / 8.0 + np.eye(D)
    b = rng.normal(size=D)
    problem = ProblemSpec(
        set_Q=NonnegOrthant(D),
        map_S=Identity(D),
        map_A=map_A or LeastSquaresGradient(G, b),
        map_f=ConstantAnchor(rng.uniform(0.0, 1.0, size=D)),
    )
    lam = 1.0 / ls_lipschitz(G)
    return [
        SolverConfig(
            problem=problem,
            schedule=schedule or ScheduleSpec(PowerAlpha(float(rng.uniform(0.3, 1.0))), ConstantLambda(lam),
                                              (lam, lam)),
            x1=rng.uniform(0.0, 2.0, size=D),
            n_max=n,
            algorithm=PERTURBED,
            perturbation=UniformSquarePerturbation(int(rng.integers(1, 10_000))),
            reference=rng.uniform(0.5, 1.5, size=D),
            record_stride=stride,
        )
        for _ in range(cells)
    ]


def assert_whole_run_columns(trace, cfg):
    """alpha, lambda and e_norm at the recorded k are those of ``tabulate`` and the stream of the whole run."""
    n, d = cfg.n_max, cfg.problem.dim
    alphas, lams = tabulate(cfg.schedule, n)
    e_norms = np.linalg.norm(perturbation_stream(cfg.perturbation, n, d), axis=1)
    at = trace.k - 1
    assert same_bits(trace.alpha, alphas[at])
    assert same_bits(trace.lam, lams[at])
    assert same_bits(trace.e_norm, e_norms[at])


def perturbed_iterates(cfg, until):
    """x_1 .. x_until by a loop of one step at a time, which draws e_k on its own for each k."""
    xs = [cfg.x1]
    for k in range(1, until):
        xs.append(step_at(xs[-1], k, cfg))
    return np.array(xs)


# --------------------------------------------------------------------------
# the pieces a block is built from


@pytest.mark.parametrize("d", (1, 2, 3, 64))
def test_stream_from_start_equals_those_rows_of_the_whole_stream(d):
    p = UniformSquarePerturbation(seed=11)
    whole = perturbation_stream(p, 600, d)
    for k0, m in ((1, 600), (1, 1), (2, 5), (257, 256), (513, 88), (600, 1)):
        assert same_bits(perturbation_stream(p, m, d, start=k0), whole[k0 - 1 : k0 - 1 + m]), (k0, m)
    for k in (1, 256, 257, 600):
        assert same_bits(perturbation_stream(p, 1, d, k)[0], whole[k - 1])
    assert same_bits(perturbation_stream(NoPerturbation(), 5, d, start=100), np.zeros((5, d)))


@pytest.mark.parametrize("schedule", [
    ScheduleSpec(PowerAlpha(0.7), ConstantLambda(0.1), (0.1, 0.1)),
    ScheduleSpec(TableAlpha(np.linspace(1.0, 0.01, 700)), TableLambda(np.linspace(0.05, 0.3, 700)), (0.1, 0.2)),
])
def test_tabulate_from_start_equals_those_rows_of_the_whole_table(schedule):
    alphas, lams = tabulate(schedule, 700)
    with warnings.catch_warnings():
        warnings.simplefilter("ignore", ScheduleViolationWarning)  # values outside the bounds warn in lambda_at
        per_k = np.array([lambda_at(schedule, k) for k in range(1, 701)])
    for k0, m in ((1, 700), (2, 5), (257, 256), (690, 11), (700, 1), (5, 0)):
        a, lam = tabulate(schedule, m, start=k0)
        assert same_bits(a, alphas[k0 - 1 : k0 - 1 + m]) and same_bits(lam, lams[k0 - 1 : k0 - 1 + m]), (k0, m)
        assert same_bits(lam, per_k[k0 - 1 : k0 - 1 + m]), (k0, m)


@pytest.mark.parametrize("dim, n", ((2, 3000), (64, 1000), (64, 257)))
def test_hypothesis_report_evidence_of_a_blockwise_stream_equals_the_whole_stream(dim, n):
    s = ScheduleSpec(PowerAlpha(0.9), ConstantLambda(0.1), (0.1, 0.1))
    p = UniformSquarePerturbation(seed=5)
    e_norms = np.linalg.norm(perturbation_stream(p, n, dim), axis=1)
    (evidence,) = [c.evidence for c in hypothesis_report(s, p, n, nu=0.1, dim=dim).checks if c.key == "v"]
    assert evidence["e_norm_sum"] == float(e_norms.sum())
    assert evidence["e_over_alpha_last"] == float(e_norms[-1] / tabulate(s, n)[0][-1])


# --------------------------------------------------------------------------
# runs across block boundaries


@pytest.mark.parametrize("n", (B - 1, B, B + 1, 2 * B + 1))
@pytest.mark.parametrize("stride", (7, 100))  # neither divides the block
def test_a_run_across_block_boundaries_equals_the_whole_run(monkeypatch, n, stride):
    (cfg,) = d64_cfgs(1, n, stride, seed=n + stride)
    trace = run(cfg)
    grid = list(range(1, n + 1, stride))
    assert trace.k.tolist() == grid + ([] if grid[-1] == n else [n])
    assert_whole_run_columns(trace, cfg)
    assert same_bits(trace.x, perturbed_iterates(cfg, n)[trace.k - 1])
    one_block(monkeypatch, n)
    assert_same_trace(trace, run(cfg))


def toward_the_end(cfgs):
    """``cfgs`` with each reference at the end of its free run, so that rel_err falls as a run goes on."""
    return [dataclasses.replace(cfg, reference=run(cfg).final) for cfg in cfgs]


@pytest.mark.parametrize("steps", (1, 3, 7, 64))
def test_a_batch_whose_rows_stop_inside_blocks_equals_one_block(monkeypatch, steps):
    cfgs = toward_the_end(d64_cfgs(4, 120, 5, seed=3))
    free = run_batch(cfgs)
    # targets between the rel_err recorded at k = 41 and 46 and at k = 76 and 81, and
    # the one recorded at k = 101: rows stop off and on the stride-5 grid
    targets = [float(free[0].rel_err[8] + free[0].rel_err[9]) / 2, None,
               float(free[2].rel_err[15] + free[2].rel_err[16]) / 2, float(free[3].rel_err[20])]
    cfgs = [dataclasses.replace(cfg, rel_err_target=t) for cfg, t in zip(cfgs, targets)]
    whole = [run(cfg) for cfg in cfgs]
    stops = [t.metadata["stopped_at"] for t in whole]
    assert 41 < stops[0] < 46 and stops[1] is None and 76 < stops[2] < 81 and stops[3] <= 101
    one_block(monkeypatch, steps)
    for cfg, got, want in zip(cfgs, run_batch(cfgs), whole):
        assert_same_trace(got, want)
        assert_whole_run_columns(got, cfg)
        assert same_bits(got.x, perturbed_iterates(cfg, int(got.k[-1]))[got.k - 1])


def test_a_row_stops_off_the_grid_inside_a_later_block():
    cfgs = toward_the_end(d64_cfgs(3, 2 * B + 1, 7, seed=21))
    free = run(cfgs[1])
    # a target between the rel_err recorded at k = 1 + 7 * 44 = 309 and at k = 316
    target = float(free.rel_err[44] + free.rel_err[45]) / 2
    cfgs[1] = dataclasses.replace(cfgs[1], rel_err_target=target)
    batch = run_batch(cfgs)
    hit = batch[1].metadata["stopped_at"]
    assert B < hit < 316 and (hit - 1) % 7 and batch[1].k[-1] == hit
    for cfg, got in zip(cfgs, batch):
        assert_same_trace(got, run(cfg))
        assert_whole_run_columns(got, cfg)


def stopping_at(cfg, after, on_grid):
    """``cfg`` with the rel_err target its run first meets at the first k > ``after`` on (or off) its
    stride grid where rel_err falls below every earlier value, and that k."""
    dense = run(dataclasses.replace(cfg, record_stride=1)).rel_err
    lowest = np.minimum.accumulate(dense)
    k = next(k for k in range(after + 1, cfg.n_max)
             if dense[k - 1] < lowest[k - 2] and ((k - 1) % cfg.record_stride == 0) == on_grid)
    return dataclasses.replace(cfg, rel_err_target=float(dense[k - 1])), k


@pytest.mark.parametrize("cells, shared", [
    (1, "none"), (3, "none"), (3, "both"), (16, "none"), (16, "schedule"), (16, "stream"), (16, "both"),
])
def test_a_batch_across_its_own_blocks_equals_each_row_run_alone(cells, shared):
    # a batch's blocks hold 2**14 doubles across its rows: 256 steps for one row at d = 64, 85 for 3
    # rows and 16 for 16; row j runs to n_max, stops off the grid, stops on it or diverges as (j + 1) % 4
    n, stride, block = 2 * B + 1, 7, _block_steps(cells * D)
    cfgs = d64_cfgs(cells, n, stride, seed=cells)
    if shared in ("schedule", "both"):
        cfgs = [dataclasses.replace(cfg, schedule=cfgs[0].schedule) for cfg in cfgs]
    if shared in ("stream", "both"):
        cfgs = [dataclasses.replace(cfg, perturbation=cfgs[0].perturbation) for cfg in cfgs]
    cfgs = toward_the_end(cfgs)
    stops = {}
    for j, cfg in enumerate(cfgs):
        role = (j + 1) % 4
        if role in (1, 2):
            cfgs[j], stops[j] = stopping_at(cfg, B + B // 4, on_grid=role == 2)
        elif role == 3:  # lambda = 20 / L: the iterates overflow after a few hundred steps
            lam = 20 * cfg.schedule.lam.value
            cfgs[j] = dataclasses.replace(cfg, schedule=ScheduleSpec(cfg.schedule.alpha, ConstantLambda(lam),
                                                                     (lam, lam)))
    with warnings.catch_warnings():
        warnings.simplefilter("ignore", ScheduleViolationWarning)  # lambda = 20 / L > 2 nu
        batch, alone = run_batch(cfgs), [run_or_error(cfg) for cfg in cfgs]
    assert [isinstance(want, DivergenceError) for want in alone] == [(j + 1) % 4 == 3 for j in range(cells)]
    for j, (cfg, got, want) in enumerate(zip(cfgs, batch, alone)):
        if isinstance(want, DivergenceError):
            assert type(got) is DivergenceError and block < got.step == want.step < n
            assert same_bits(got.last_state, want.last_state)
            continue
        assert_same_trace(got, want)
        assert_whole_run_columns(got, cfg)
        if j in stops:
            assert got.metadata["stopped_at"] == got.k[-1] == stops[j] > block


def test_a_batch_mixing_a_lambda_table_with_constant_lambdas_equals_each_row_run_alone():
    # 4 rows at d = 64 step in blocks of 64 and slabs of 16: row 0 has a lambda table and stops off the
    # stride-7 grid inside a block's second or later slab, row 1 (lambda = 20 / L) diverges, row 3 stops on
    # the grid, and row 2 then steps alone to n_max, across blocks and slabs
    n, block = 2 * B + 1, _block_steps(4 * D)
    slab = block // 4
    cfgs = toward_the_end(d64_cfgs(4, n, 7, seed=30))
    lam = cfgs[0].schedule.lam.value
    table = lam * np.random.default_rng(30).uniform(0.5, 1.0, size=n)
    cfgs[0] = dataclasses.replace(cfgs[0], schedule=ScheduleSpec(cfgs[0].schedule.alpha, TableLambda(table),
                                                                 (lam / 2, lam)))
    cfgs[0], stop = stopping_at(cfgs[0], block + slab, on_grid=False)
    cfgs[1] = dataclasses.replace(cfgs[1], schedule=ScheduleSpec(cfgs[1].schedule.alpha, ConstantLambda(20 * lam),
                                                                 (20 * lam, 20 * lam)))
    cfgs[3], last = stopping_at(cfgs[3], stop, on_grid=True)
    with warnings.catch_warnings():
        warnings.simplefilter("ignore", ScheduleViolationWarning)  # lambda = 20 / L > 2 nu
        batch, alone = run_batch(cfgs), [run_or_error(cfg) for cfg in cfgs]
    assert (stop - 1) % block > slab and (stop - 1) % slab and (stop - 1) % 7 and stop < last < n
    assert [type(r) for r in alone] == [RunTrace, DivergenceError, RunTrace, RunTrace]
    assert type(batch[1]) is DivergenceError and batch[1].step == alone[1].step < n
    assert same_bits(batch[1].last_state, alone[1].last_state)
    for j in (0, 2, 3):
        assert_same_trace(batch[j], alone[j])
        assert_whole_run_columns(batch[j], cfgs[j])
    assert [t.k[-1] for t in (batch[0], batch[2], batch[3])] == [stop, n, last]


def test_the_row_path_steps_on_operands_of_the_iterates_shape(monkeypatch):
    # alpha_k, 1 - alpha_k, lambda_k, e_k, the anchors and beta reach each step of a batch C-contiguous and
    # (C, d), as the iterate is: a broadcast (C, 1) column or a strided view takes numpy's slower loops
    built, seen = solvers._build_step, []

    def checked(problem, rule, rows=False):
        step = built(problem, rule, rows)
        if not rows:
            return step

        def recording(X, *operands):
            seen.append([(v.shape == X.shape, v.flags.c_contiguous) for v in (X, *operands) if v is not None])
            return step(X, *operands)
        return recording

    monkeypatch.setattr(solvers, "_build_step", checked)
    cfgs = [dataclasses.replace(cfg, anchor=cfg.x1, beta=0.25) for cfg in d64_cfgs(3, 40, 3, seed=31)]
    tabled = dataclasses.replace(cfgs[1].schedule, lam=TableLambda(np.full(40, cfgs[1].schedule.lam.value)))
    for rule in solvers.ALGORITHMS:
        for lams in ("constant", "a table"):
            batch = [dataclasses.replace(cfg, algorithm=rule) for cfg in cfgs]
            if lams == "a table":
                batch[1] = dataclasses.replace(batch[1], schedule=tabled)
            seen.clear()
            run_batch(batch)
            assert len(seen) == 39 and all(all(map(all, step)) for step in seen), (rule, lams)
            # X, alpha, 1 - alpha, lambda, beta and 1 - beta, and e_k or the anchors where the rule reads them
            assert len(seen[0]) == (6 if rule in ("explicit_viscosity", "takahashi_toyoda") else 7)


def test_columns_of_batch_rows_are_read_only():
    # the rows' alpha, lambda and ||e|| are views of tables that rows of one schedule or stream share
    cfgs = d64_cfgs(3, 100, 7, seed=8)
    cfgs[1] = dataclasses.replace(cfgs[1], schedule=cfgs[0].schedule, perturbation=cfgs[0].perturbation)
    batch = run_batch(cfgs)
    for name in ("alpha", "lam", "e_norm"):
        col = getattr(batch[0], name)
        with pytest.raises(ValueError, match="read-only"):
            col[0] = 0.5
        assert same_bits(col, getattr(batch[1], name)) and same_bits(col, getattr(run(cfgs[0]), name))
    for cfg, trace in zip(cfgs, batch):
        assert_whole_run_columns(trace, cfg)


def test_a_row_that_stops_off_the_grid_has_the_columns_of_one_that_stops_on_it():
    cfgs = toward_the_end(d64_cfgs(1, 300, 7, seed=12)) * 3
    cfgs[1], on = stopping_at(cfgs[1], 100, on_grid=True)
    cfgs[2], off = stopping_at(cfgs[2], 100, on_grid=False)
    free, on_trace, off_trace = run_batch(cfgs)
    for name in ("k", "alpha", "lam", "e_norm"):
        cols = [getattr(t, name) for t in (free, on_trace, off_trace)]
        flags = [(c.dtype, c.flags.writeable, c.flags.c_contiguous) for c in cols]
        contiguous = name != "lam"  # a constant lambda is a zero-stride view of its one value
        assert flags == [(cols[0].dtype, False, contiguous)] * 3
        for c in cols[1:]:  # each stop's records up to the last are the free run's
            assert same_bits(c[:-1], cols[0][: c.size - 1])
    assert on_trace.k[-1] == on and off_trace.k[-1] == off and (off - 1) % 7
    for cfg, trace in zip(cfgs, (free, on_trace, off_trace)):
        assert_whole_run_columns(trace, cfg)


def diverging_cfgs(n):
    # on the hyperplane sum(x) = 0, x - lam x grows by |1 - lam| a step; alpha = 1e-9 keeps f out of it
    problem = ProblemSpec(
        set_Q=Hyperplane(normal=np.ones(D), offset=0.0),
        map_S=Identity(D),
        map_A=LeastSquaresGradient(np.eye(D), np.zeros(D)),
        map_f=ConstantAnchor(np.zeros(D)),
    )
    x1 = np.tile([1.0, -1.0], D // 2)
    return [
        SolverConfig(problem=problem, schedule=ScheduleSpec(TableAlpha(np.full(n, 1e-9)), ConstantLambda(lam),
                                                            (lam, lam)),
                     x1=x1, n_max=n, reference=x1, record_stride=9)
        for lam in (0.5, 6.9, 1.5)
    ]


@pytest.mark.parametrize("steps", (None, 5))
def test_a_row_that_diverges_inside_a_block_fails_alone(monkeypatch, steps):
    cfgs = diverging_cfgs(3 * B)
    if steps:
        one_block(monkeypatch, steps)
    with pytest.warns(Warning):  # lambda = 6.9 > 2 nu, and the overflow
        batch = run_batch(cfgs)
    assert [type(r) for r in batch] == [RunTrace, DivergenceError, RunTrace]
    with np.errstate(over="ignore", invalid="ignore"):
        xs, k = explicit_loop(cfgs[1])
    # inside the second block of 256 steps, and inside a block of the batch's own 85 (2**14 // (3 * 64))
    assert B < k < 2 * B and k % (steps or _block_steps(3 * D)) not in (0, 1)
    assert batch[1].step == k and same_bits(batch[1].last_state, xs[-1])
    for i in (0, 2):
        xs, k = explicit_loop(cfgs[i])
        assert k == cfgs[i].n_max and same_bits(batch[i].x, xs[batch[i].k - 1])
        assert_whole_run_columns(batch[i], cfgs[i])


# --------------------------------------------------------------------------
# schedule errors come before the first step


def test_table_lambda_violations_past_the_first_block_are_counted_before_stepping():
    n = 2 * B + 1
    lam = np.full(n + 40, 0.5)
    lam[B + 10 : B + 21] = 5.0  # 11 values outside [0, 2 nu = 2], all past the first block
    lam[B + 30] = 0.75  # inside [0, 2 nu], outside the bounds
    lam[n:] = 5.0  # past n_max: not counted
    schedule = ScheduleSpec(PowerAlpha(0.8), TableLambda(lam), (0.5, 0.5))
    cfgs = d64_cfgs(3, n, 50, seed=2, schedule=schedule, map_A=counting_identity())
    cfg = cfgs[1]
    ok = ScheduleSpec(PowerAlpha(0.8), ConstantLambda(0.5), (0.5, 0.5))
    cfgs[0], cfgs[2] = (dataclasses.replace(c, schedule=ok) for c in (cfgs[0], cfgs[2]))
    msg = "11 lambda value(s) outside [0, 2*nu = 2.0]; convergence guarantees void"
    with warnings.catch_warnings():  # strict mode: the warning is an error, raised before the first step
        warnings.simplefilter("error", ScheduleViolationWarning)
        with pytest.raises(ScheduleViolationWarning) as err:
            run(cfg)
        assert str(err.value) == msg and CountingMap.calls == 0
        first, failed, last = run_batch(cfgs)  # the row it refuses fails alone
        assert type(failed) is ScheduleViolationWarning and str(failed) == msg
        assert_same_trace(first, run(cfgs[0]))
        assert_same_trace(last, run(cfgs[2]))
    with warnings.catch_warnings(record=True) as caught:
        warnings.simplefilter("always")
        trace = run(cfg)
    assert [str(w.message) for w in caught] == [msg]
    assert caught[0].filename == __file__
    assert trace.metadata["schedule_violations_2nu"] == 11
    assert trace.metadata["schedule_violations_bounds"] == 12
    assert_whole_run_columns(trace, cfg)


@pytest.mark.parametrize("table", ("alpha", "lambda"))
def test_a_table_that_ends_in_a_later_block_fails_before_stepping(table):
    n, size = 2 * B + 1, B + 40
    short = np.full(size, 0.5)
    schedule = ScheduleSpec(TableAlpha(short) if table == "alpha" else PowerAlpha(0.8),
                            TableLambda(short) if table == "lambda" else ConstantLambda(0.5), (0.5, 0.5))
    cfgs = d64_cfgs(2, n, 50, seed=4, map_A=counting_identity())
    cfgs[1] = dataclasses.replace(cfgs[1], schedule=schedule)
    want = f"{table} table exhausted at k={size + 1} (length {size})"
    for start in (1, B + 1):  # tabulate raises what the run raises, from any start
        with pytest.raises(IndexError) as err:
            tabulate(schedule, n + 1 - start, start)
        assert str(err.value) == want
    with pytest.raises(IndexError) as err:
        run(cfgs[1])
    assert str(err.value) == want and CountingMap.calls == 0
    ok, failed = run_batch(cfgs)
    assert isinstance(failed, IndexError) and str(failed) == want
    assert_same_trace(ok, run(cfgs[0]))


# --------------------------------------------------------------------------
# memory


def test_a_runs_traced_peak_does_not_grow_with_n_max():
    # records at stride 10,000 are a few rows: what is left is one block of tables and draws
    (cfg,) = d64_cfgs(1, 10_000, 10_000, seed=9)
    cfg = dataclasses.replace(cfg, reference=None)

    def peak(n):
        tracemalloc.start()
        try:
            run(dataclasses.replace(cfg, n_max=n))
            return tracemalloc.get_traced_memory()[1]
        finally:
            tracemalloc.stop()

    small, large = peak(10_000), peak(50_000)
    assert abs(large - small) <= 2**20, (small, large)


def test_a_dense_batch_holds_its_schedule_columns_once():
    # at stride 1 a block tabulates into the records: against a run that records
    # two rows, the traced peak grows by the iterate records, not by a second
    # copy of the (C, 3, n) alpha, lambda and e_norm columns
    cells, d, n = 4, 2, 3000
    cfgs = [dataclasses.replace(cfg, reference=None) for cfg in least_squares_batch(d, cells, 1, n, seed=6)]

    def peak(stride):
        batch = [dataclasses.replace(cfg, record_stride=stride) for cfg in cfgs]
        tracemalloc.start()
        try:
            run_batch(batch)
            return tracemalloc.get_traced_memory()[1]
        finally:
            tracemalloc.stop()

    iterates, columns = cells * n * d * 8, cells * 3 * n * 8
    assert peak(1) - peak(n) <= iterates + columns / 2


def test_a_batch_of_one_schedule_and_one_stream_records_them_once():
    # 16 rows at stride 1: alpha_k and ||e_k|| are recorded once and the constant lambda_k not at all,
    # 2 doubles a step, where columns of each row would take 16 x 3
    cells, d, n = 16, 2, 10_000
    (cfg,) = least_squares_batch(d, 1, 1, n, seed=6)
    cfgs = [dataclasses.replace(cfg, x1=cfg.x1 * (1 + j / 32)) for j in range(cells)]
    tracemalloc.start()
    try:
        batch = run_batch(cfgs)
        peak = tracemalloc.get_traced_memory()[1]
    finally:
        tracemalloc.stop()
    assert all(t.k.size == n for t in batch)
    records = cells * n * (d + 1) * 8 + n * 8  # each row's iterates and rel_err, and the k they share
    block = 4 * _BLOCK_DOUBLES * 8  # a block's alpha and lambda columns, its draws and its rel_err rows
    assert peak - records < 2 * n * 8 + block, (peak, records)


def test_a_dense_batch_holds_no_rel_err_column():
    # 16 rows with references at stride 1: the traces hold the iterates, the k they share and one alpha and one
    # ||e|| table, and derive rel_err when it is read, where a stored column would hold n doubles a row
    cells, d, n = 16, 2, 10_000
    (cfg,) = least_squares_batch(d, 1, 1, n, seed=6)
    cfgs = [dataclasses.replace(cfg, x1=cfg.x1 * (1 + j / 32)) for j in range(cells)]
    tracemalloc.start()
    try:
        batch = run_batch(cfgs)
        held = tracemalloc.get_traced_memory()[0]
    finally:
        tracemalloc.stop()
    assert all(t.k.size == n and t.rel_err is not None for t in batch)
    records = cells * n * d * 8 + 3 * n * 8
    assert held - records < cells * n * 8 / 2, (held, records)
