import numpy as np
import pytest

from viscosolve import (
    ExperimentConfig,
    Simplex,
    benchmark_schedule,
    build_benchmark_problem,
    emit_report,
    emit_tables,
    emit_trace,
    norm,
    reference_solution,
    run_experiment,
)


@pytest.fixture(scope="module")
def small_report():
    cfg = ExperimentConfig(thetas=(0.4, 0.9), seeds=(1, 2, 3), n_max=300,
                           epsilons=(0.5, 0.1, 1e-9))
    return run_experiment(cfg)


def test_benchmark_problem_pieces(problem):
    assert problem.nu == pytest.approx(0.1, abs=1e-15)
    assert isinstance(problem.reference_set_omega, Simplex)
    assert problem.reference_set_omega.total == 2.6
    q = reference_solution(problem, tol=1e-12)
    assert abs(q[0] - 0.9647) < 5e-5 and abs(q[1] - 1.6353) < 5e-5


def test_benchmark_schedule_defaults(problem):
    s = benchmark_schedule(0.9, problem=problem)
    assert s.lam.value == pytest.approx(0.1, abs=1e-15)
    assert s.bounds == (0.1, 0.1)


def test_cells_cover_grid(small_report):
    assert len(small_report.cells) == 6
    assert {(c.theta, c.seed) for c in small_report.cells} == {
        (t, s) for t in (0.4, 0.9) for s in (1, 2, 3)
    }
    for c in small_report.cells:
        assert c.error is None
        assert c.trace.k.size == 300


def test_min_rel_err_matches_trace(small_report):
    for c in small_report.cells:
        assert c.min_rel_err == c.trace.min_rel_err()
        # running minimum is nonincreasing by construction
        running = np.minimum.accumulate(c.trace.rel_err)
        assert np.all(np.diff(running) <= 0)


def test_cell_summaries_are_those_of_their_trace(small_report):
    for c in small_report.cells:
        assert c.min_rel_err.hex() == c.trace.min_rel_err().hex()
        assert c.first_hit == {eps: c.trace.first_hit(eps) for eps in small_report.config.epsilons}


def test_first_hit_consistency(small_report):
    # looser thresholds are hit no later; ND absorbs
    for c in small_report.cells:
        hits = c.first_hit
        eps_sorted = sorted(hits, reverse=True)
        for e1, e2 in zip(eps_sorted, eps_sorted[1:]):
            if hits[e2] is None:
                continue
            assert hits[e1] is not None and hits[e1] <= hits[e2]
        # definition check at the hit index
        for eps, k in hits.items():
            if k is not None:
                rel = c.trace.rel_err
                assert rel[k - 1] <= eps
                assert np.all(rel[: k - 1] > eps)


def test_never_hit_is_nd(small_report):
    grid = small_report.first_hit_grid()
    assert grid[1e-9] == {0.4: None, 0.9: None}


def test_perturbed_iterates_feasible(small_report):
    for c in small_report.cells:
        assert np.all(c.trace.x >= 0.0)


def test_deterministic_mode_single_cell_per_theta():
    cfg = ExperimentConfig(thetas=(0.9,), seeds=(1, 2, 3), n_max=200, deterministic=True)
    rep = run_experiment(cfg)
    assert len(rep.cells) == 1
    assert rep.cells[0].seed == 0
    assert rep.cells[0].trace.e_norm.max() == 0.0


def test_emit_report_layout(tmp_path, small_report):
    out = emit_report(small_report, tmp_path / "exp", extra_metadata={"config_digest": "0123456789abcdef"})
    assert (out / "report.csv").exists()
    assert (out / "meta.txt").exists()
    assert (out / "traces" / "theta_0.4_seed_1.csv").exists()
    assert (out / "traces" / "theta_0.9_seed_3.csv").exists()
    report_lines = (out / "report.csv").read_text().strip().split("\n")
    assert report_lines[0].startswith("theta,seed,min_rel_err,hit_0.5,hit_0.1,hit_1e-09")
    assert len(report_lines) == 7
    trace_lines = (out / "traces" / "theta_0.9_seed_1.csv").read_text().strip().split("\n")
    assert len(trace_lines) == 301  # header + one line per iterate
    meta = (out / "meta.txt").read_text()
    assert "prng: numpy-pcg64" in meta
    assert "config_digest: 0123456789abcdef\n" in meta
    assert "config_digest" not in (emit_report(small_report, tmp_path / "bare") / "meta.txt").read_text()


def test_emit_tables_shapes(tmp_path, small_report):
    out = tmp_path / "tables"
    written = emit_tables(small_report, out)
    names = {p.name for p in written}
    assert names == {"table1.csv", "table1.txt", "table2.csv", "table2.txt",
                     "table3.csv", "table3.txt"}
    t1 = (out / "table1.csv").read_text().strip().split("\n")
    assert t1[0] == "theta,median_min_rel_err,min,max,n_seeds"
    assert len(t1) == 2  # only theta = 0.4
    t3 = (out / "table3.csv").read_text().strip().split("\n")
    assert t3[0] == "eps,theta_0.4,theta_0.9"
    assert t3[-1].endswith("ND,ND")  # eps = 1e-9 unreachable in 300 steps


def test_emit_tables_without_epsilons(tmp_path):
    cfg = ExperimentConfig(thetas=(0.9,), seeds=(1,), n_max=100, epsilons=())
    rep = run_experiment(cfg)
    written = emit_tables(rep, tmp_path)
    assert {p.name for p in written} == {"table2.csv", "table2.txt"}


def test_emit_trace_row_count(tmp_path, small_report):
    trace = small_report.cells[0].trace
    path = emit_trace(trace, tmp_path / "t.csv")
    lines = path.read_text().strip().split("\n")
    assert len(lines) == 301


def test_deterministic_rerun_is_byte_identical(tmp_path):
    cfg = ExperimentConfig(thetas=(0.6,), seeds=(1,), n_max=150, deterministic=True)
    outs = []
    for name in ("a", "b"):
        rep = run_experiment(cfg)
        out = emit_report(rep, tmp_path / name)
        emit_tables(rep, out)
        outs.append(out)
    for rel in ("report.csv", "meta.txt", "table2.csv", "traces/theta_0.6_seed_0.csv"):
        assert (outs[0] / rel).read_bytes() == (outs[1] / rel).read_bytes()


def test_seeded_rerun_is_byte_identical(tmp_path):
    cfg = ExperimentConfig(thetas=(0.9,), seeds=(42,), n_max=150)
    blobs = []
    for name in ("a", "b"):
        rep = run_experiment(cfg)
        out = emit_report(rep, tmp_path / name)
        blobs.append((out / "traces" / "theta_0.9_seed_42.csv").read_bytes())
    assert blobs[0] == blobs[1]


def test_aggregate_median_and_spread(small_report):
    agg = small_report.aggregate()
    for theta in (0.4, 0.9):
        values = sorted(c.min_rel_err for c in small_report.cells_for(theta))
        med, lo, hi = agg[theta]
        assert lo == values[0] and hi == values[-1]
        assert med == values[1]  # median of three


def test_experiment_config_validation():
    with pytest.raises(ValueError):
        ExperimentConfig(thetas=())
    with pytest.raises(ValueError):
        ExperimentConfig(thetas=(0.9,), n_max=0)


def test_experiment_config_refuses_a_non_integral_n_max():
    # 20.5 used to pass and leave every cell failed
    with pytest.raises(ValueError, match="n_max must be an integer >= 1, got 20.5"):
        ExperimentConfig(thetas=(0.9,), n_max=20.5)


@pytest.mark.parametrize("field, values", [("thetas", (0.9, 0.4, 0.9)), ("seeds", (1, 1)), ("epsilons", (0.1, 0.1))])
def test_experiment_config_refuses_repeated_thetas_and_seeds(field, values):
    kwargs = {"thetas": (0.9,), field: values}
    with pytest.raises(ValueError, match=f"{field} must be distinct"):
        ExperimentConfig(**kwargs)


def test_experiment_config_refuses_x1_outside_Q_before_any_reference_solve(monkeypatch):
    from viscosolve import ConfigurationError, solvers

    def no_solve(*args, **kwargs):
        raise AssertionError("reference solve before the config check")

    monkeypatch.setattr(solvers, "reference_solution", no_solve)
    with pytest.raises(ConfigurationError, match=r"x1 = .* is not in Q"):
        ExperimentConfig(thetas=(0.9,), seeds=(1,), n_max=20, x1=[-1.0, 3.0])


def test_experiment_cells_are_the_template_with_their_schedule_and_seed():
    from dataclasses import fields

    from viscosolve import PERTURBED, NoPerturbation, SolverConfig, UniformSquarePerturbation

    cfg = ExperimentConfig(thetas=(0.4, 0.9), seeds=(3, 5), n_max=40.0, x1=[2, 3])
    template = cfg.template
    assert isinstance(template, SolverConfig) and "template" not in {f.name for f in fields(cfg)}
    assert (template.algorithm, template.perturbation, template.n_max) == (PERTURBED, UniformSquarePerturbation(3), 40)
    assert template.schedule.alpha.theta == 0.4
    assert template.reference.tobytes() == reference_solution(cfg.problem, tol=1e-12).tobytes()  # q*, solved once
    # x1, n_max and lam are the template's, lam defaulting to nu
    assert cfg.x1 is template.x1 and cfg.x1.dtype == np.float64
    assert cfg.n_max == 40 and type(cfg.n_max) is int
    assert cfg.lam == template.schedule.lam.value == cfg.problem.nu
    assert isinstance(ExperimentConfig(thetas=(0.9,), deterministic=True).template.perturbation, NoPerturbation)
    report = run_experiment(cfg)
    for cell in report.cells:
        meta = cell.trace.metadata
        assert (meta["theta"], meta["cell_seed"], meta["seed"], meta["n_max"]) == (cell.theta, cell.seed, cell.seed, 40)
        assert cell.trace.alpha[1] == 2.0 ** -cell.theta and cell.trace.x[0].tolist() == [2.0, 3.0]
    assert report.reference is template.reference


def test_cell_failure_recorded_without_aborting_sweep():
    # an exploding relaxation step on an unbounded set diverges; the sweep
    # keeps going and records the failure in the cell
    from viscosolve import Ball, ConstantAnchor, Hyperplane, Identity, LeastSquaresGradient, ProblemSpec

    anchor = [1.0, -1.0]
    prob = ProblemSpec(
        set_Q=Hyperplane(normal=[1.0, 1.0], offset=0.0),
        map_S=Identity(2),
        map_A=LeastSquaresGradient(B=np.eye(2), b=[0.0, 0.0]),
        map_f=ConstantAnchor(anchor),
        reference_set_omega=Ball(center=anchor, radius=1e-9),
    )
    cfg = ExperimentConfig(
        thetas=(0.5,), seeds=(1,), n_max=400, epsilons=(0.5,),
        problem=prob, x1=[2.0, -2.0], lam=50.0,
    )
    with pytest.warns(Warning):
        rep = run_experiment(cfg)
    assert len(rep.cells) == 1
    cell = rep.cells[0]
    assert cell.error is not None and "non-finite" in cell.error
    assert np.isnan(cell.min_rel_err)
    assert rep.aggregate() == {}


# --------------------------------------------------------------------------
# emit_report writes a seed's traces back to back, sharing their k, lambda and e_norm cells


@pytest.fixture(scope="module")
def grid_report():
    # 3 seeds x 3 thetas, three chunks of trace rows (the last partial)
    return run_experiment(ExperimentConfig(thetas=(0.3, 0.6, 0.9), seeds=(1, 2, 3), n_max=2500))


def with_a_failed_cell(report, index):
    from dataclasses import replace

    cells = list(report.cells)
    cells[index] = replace(cells[index], trace=None, error="non-finite iterate at step 9 (algorithm 'perturbed')")
    return replace(report, cells=tuple(cells))


def assert_each_trace_as_written_alone(report, tmp_path):
    out = emit_report(report, tmp_path / "report")
    want = {}
    for c in report.cells:
        if c.trace is not None:
            name = f"theta_{c.theta!r}_seed_{c.seed}.csv"
            c.trace.write_csv(tmp_path / "alone.csv")
            want[name] = (tmp_path / "alone.csv").read_bytes()
    got = {p.name: p.read_bytes() for p in (out / "traces").iterdir()}
    assert sorted(got) == sorted(want)
    for name in want:
        assert got[name] == want[name], name
    rows = [line.split(",") for line in (out / "report.csv").read_text().splitlines()[1:]]
    assert [row[:2] for row in rows] == [[repr(c.theta), str(c.seed)] for c in report.cells]  # the cells' order
    assert [row[-1] for row in rows] == [c.error or "" for c in report.cells]


def test_emit_report_writes_each_trace_as_written_alone(tmp_path, grid_report):
    by_seed = {}
    for c in grid_report.cells:  # the cells of one seed share k, lambda and e_norm, so the writer reuses them
        by_seed.setdefault(c.seed, []).append(c.trace)
    for traces in by_seed.values():
        assert all(np.array_equal(t.e_norm, traces[0].e_norm) and np.array_equal(t.k, traces[0].k) for t in traces)
    assert not np.array_equal(by_seed[1][0].e_norm, by_seed[2][0].e_norm)
    assert_each_trace_as_written_alone(grid_report, tmp_path)


def test_emit_report_of_a_deterministic_sweep_writes_each_trace_as_written_alone(tmp_path):
    # e_norm is all zeros, the same column in every cell
    report = run_experiment(ExperimentConfig(thetas=(0.3, 0.6, 0.9), n_max=2500, deterministic=True))
    assert all(c.trace.e_norm.tobytes() == bytes(8 * 2500) for c in report.cells)
    assert_each_trace_as_written_alone(report, tmp_path)


def test_emit_report_with_a_failed_cell_inside_a_seed_group(tmp_path, grid_report):
    # cells run theta by theta, so seed 1's cells are 0, 3 and 6: the failed one sits between the other two
    report = with_a_failed_cell(grid_report, 3)
    assert (report.cells[3].theta, report.cells[3].seed) == (0.6, 1)
    assert_each_trace_as_written_alone(report, tmp_path)
    assert not (tmp_path / "report" / "traces" / "theta_0.6_seed_1.csv").exists()


def test_emit_report_memory_stays_at_one_traces_shared_cells(tmp_path, cpus):
    # emission is the sweep's peak-memory phase: what the writer keeps lands on top of the peak.
    # A memo of the whole report's cells would grow with its seeds and thetas; one trace's k,
    # lambda and e_norm cells (about 0.7 MiB at 6000 rows) do not. One CPU: tracemalloc sees
    # the whole write only when this process makes it
    import tracemalloc

    cpus(1)

    report = run_experiment(ExperimentConfig(thetas=(0.1, 0.2, 0.3, 0.4, 0.6, 0.8, 0.9, 1.0), seeds=(1, 2),
                                             n_max=6000))
    largest = max((c.trace for c in report.cells), key=lambda t: t.k.size)
    largest.write_csv(tmp_path / "warm.csv")  # loads the formatter first

    def peak(write):
        tracemalloc.start()
        try:
            base = tracemalloc.get_traced_memory()[0]
            write()
            return tracemalloc.get_traced_memory()[1] - base
        finally:
            tracemalloc.stop()

    alone = peak(lambda: largest.write_csv(tmp_path / "alone.csv"))
    whole = peak(lambda: emit_report(report, tmp_path / "report"))
    assert whole <= alone + 1.5 * 2**20, (whole / 2**20, alone / 2**20)


def test_emit_report_memory_does_not_grow_with_n_max(tmp_path, cpus):
    # the writer holds the cells of one chunk of rows, whatever the traces' length: the traced
    # peak of emission above the report at 24000 steps is that at 6000 up to one chunk's cells
    # (7 columns of _CSV_CHUNK cells of at most 64 bytes; one CPU, so this process writes all)
    import tracemalloc

    from viscosolve import solvers

    cpus(1)

    def emission_peak(n):
        report = run_experiment(ExperimentConfig(thetas=(0.3, 0.9), seeds=(1, 2), n_max=n))
        emit_report(report, tmp_path / f"warm_{n}")  # loads the formatter first
        tracemalloc.start()
        try:
            base = tracemalloc.get_traced_memory()[0]
            emit_report(report, tmp_path / f"report_{n}")
            return tracemalloc.get_traced_memory()[1] - base
        finally:
            tracemalloc.stop()

    short, long = emission_peak(6000), emission_peak(24_000)
    assert long <= short + 7 * solvers._CSV_CHUNK * 64, (short / 2**20, long / 2**20)


def test_emit_report_writes_the_same_directory_in_one_two_and_three_shares(tmp_path, cpus, forks):
    # the 16 traces of the bench sweep (8 thetas x 2 seeds), three chunks each: a forked child writes
    # each share past the first, and the directory is the one one process writes
    report = run_experiment(ExperimentConfig(thetas=(0.1, 0.2, 0.3, 0.4, 0.6, 0.8, 0.9, 1.0), seeds=(1, 2),
                                             n_max=1200))
    written = {}
    for shares in (1, 2, 3):
        cpus(shares)
        out = emit_report(report, tmp_path / f"shares_{shares}")
        written[shares] = {p.relative_to(out).as_posix(): p.read_bytes() for p in out.rglob("*") if p.is_file()}
    assert len(forks) == 3 and len(written[1]) == 2 + 16
    assert written[2] == written[1] and written[3] == written[1]


def test_a_sweep_traces_lambda_is_a_read_only_zero_stride_view(grid_report):
    # a constant lambda is held as its one value, not as an n_max-long column per theta
    for c in grid_report.cells:
        lam = c.trace.lam
        assert lam.strides == (0,) and not lam.flags.writeable
        assert lam.shape == c.trace.k.shape and (lam == grid_report.config.lam).all()


def test_emit_report_formats_each_seeds_shared_chunks_once(tmp_path, grid_report, monkeypatch, cpus):
    from viscosolve import solvers

    cpus(1)  # one share: the calls are counted in this process
    calls = []
    csv_cells = solvers._csv_cells
    monkeypatch.setattr(solvers, "_csv_cells", lambda v: calls.append(v.size) or csv_cells(v))
    emit_report(grid_report, tmp_path / "report")
    # per chunk: x and rel_err of each of the 9 traces, alpha once per theta, e_norm once per seed
    # and k and lambda once
    chunks = -(-grid_report.config.n_max // solvers._CSV_CHUNK)
    assert len(calls) == chunks * (9 * 2 + 3 + 3 + 2)


def test_experiment_config_refuses_a_problem_without_a_target_set(monkeypatch):
    from viscosolve import (
        ConfigurationError, ConstantAnchor, Identity, LeastSquaresGradient, NonnegOrthant, ProblemSpec, solvers,
    )

    monkeypatch.setattr(solvers, "reference_solution", lambda *a, **k: pytest.fail("no q* to solve for"))
    prob = ProblemSpec(NonnegOrthant(2), Identity(2), LeastSquaresGradient(np.eye(2), [1.0, 1.0]),
                       ConstantAnchor([1.0, 1.0]))
    with pytest.raises(ConfigurationError, match="the sweep needs q"):
        ExperimentConfig(thetas=(0.9,), seeds=(1,), n_max=20, problem=prob)
