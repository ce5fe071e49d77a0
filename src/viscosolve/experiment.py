"""Benchmark study: how the mixing exponent theta drives the convergence rate.

The built-in 2-D benchmark minimizes phi(x) = 0.5 ||B x - b||^2 over the
nonnegative quadrant with B = [[1, 1], [2, 2]], b = (3, 5), steered by the
trigonometric contraction. Its solution set is the simplex slice
{x >= 0 : x1 + x2 = 2.6}, which gives an independent closed-form route to
the limit point (fixed point of the projection onto that slice composed with
the contraction).

The harness sweeps theta over a seed grid with the perturbed rule, records
min_{k <= n_max} rel_err and the first-hit indices N(eps, theta), and emits
a frozen directory layout::

    report.csv                      one row per (theta, seed) cell
    table1.csv / table1.txt         median min rel_err for theta < 0.5
    table2.csv / table2.txt         median min rel_err for theta >= 0.5
    table3.csv / table3.txt         N(eps, theta) grid, ND for never-hit
    traces/theta_<t>_seed_<s>.csv   full per-iteration traces
    meta.txt                        seeds, PRNG, reference, plus the caller's
                                    extra metadata

``viscosolve experiment`` passes its config digest (the one in its
config.json) as extra metadata, so meta.txt carries the command's identity;
the library computes no digest of its own. All numbers use shortest
round-trip float formatting; reruns are byte-identical for fixed seeds.
"""

from __future__ import annotations

import math
import statistics
from dataclasses import field, replace
from pathlib import Path

import numpy as np

from .configio import DEFAULT_CONFIG, DEFAULT_EPSILONS, DEFAULT_SEEDS, build_problem
from .operators import ProblemSpec
from .schedules import (
    ConstantLambda,
    NoPerturbation,
    PowerAlpha,
    ScheduleSpec,
    UniformSquarePerturbation,
    _integer,
)
# run is not called here: the benchmark's self-test calls viscosolve.experiment.run
from .solvers import (PERTURBED, ConfigurationError, RunTrace, SolverConfig, _check_records, _first_hit, _write_traces, run,
                      run_batch)
from .space import record

__all__ = [
    "build_benchmark_problem",
    "benchmark_schedule",
    "BENCHMARK_X1",
    "DEFAULT_EPSILONS",
    "DEFAULT_SEEDS",
    "ExperimentConfig",
    "CellResult",
    "ExperimentReport",
    "run_experiment",
    "emit_trace",
    "emit_tables",
    "emit_report",
]

BENCHMARK_X1 = tuple(DEFAULT_CONFIG["solver"]["x1"])

_ND = "ND"


def build_benchmark_problem() -> ProblemSpec:
    """The built-in 2-D benchmark of the module docstring: the problem of ``DEFAULT_CONFIG``.

    A = gradient of 0.5 ||B x - b||^2 has Lipschitz constant 10 and
    cocoercivity modulus 0.1.
    """
    return build_problem(DEFAULT_CONFIG)


def benchmark_schedule(theta: float, lam: float | None = None, problem: ProblemSpec | None = None) -> ScheduleSpec:
    """alpha_k = k**(-theta) with a constant relaxation step (default 1/L = nu)."""
    if lam is None:
        lam = (problem or build_benchmark_problem()).nu
    return ScheduleSpec(alpha=PowerAlpha(theta), lam=ConstantLambda(lam), bounds=(lam, lam))


@record(eq=False)
class ExperimentConfig:
    """The (theta, seed) sweep of the perturbed rule on one problem.

    ``template`` (not a field) is the first cell's :class:`SolverConfig`: it checks ``x1``, ``n_max`` and
    ``lam`` (default nu), read back from it, then solves q*; every cell is it with its own schedule and seed.
    """

    thetas: tuple[float, ...]
    seeds: tuple[int, ...] = DEFAULT_SEEDS
    n_max: int = DEFAULT_CONFIG["experiment"]["nmax"]
    epsilons: tuple[float, ...] = DEFAULT_EPSILONS
    problem: ProblemSpec = field(default_factory=build_benchmark_problem)
    x1: np.ndarray = field(default_factory=lambda: np.array(BENCHMARK_X1))
    lam: float | None = None
    deterministic: bool = False

    def __post_init__(self):
        thetas = tuple(PowerAlpha(t).theta for t in self.thetas)  # the cells' alpha check, before any step
        object.__setattr__(self, "thetas", thetas)
        seeds = (0,) if self.deterministic else tuple(_integer(s, "seeds entry") for s in self.seeds)
        object.__setattr__(self, "seeds", seeds)
        epsilons = tuple(float(e) for e in self.epsilons)
        object.__setattr__(self, "epsilons", epsilons)
        if not all(math.isfinite(e) and e > 0 for e in epsilons):  # a rel_err threshold: -1 or NaN is never met
            raise ValueError(f"epsilons must be finite and > 0, got {epsilons}")
        for name, values in (("thetas", thetas), ("seeds", seeds), ("epsilons", epsilons)):
            if not values and name != "epsilons":  # no epsilons is a report without hit columns
                raise ValueError(f"{name} must be nonempty")
            if len(set(values)) != len(values):  # a repeat would count one cell, or write one column, twice
                raise ValueError(f"{name} must be distinct, got {values}")
        template = SolverConfig(
            problem=self.problem, schedule=benchmark_schedule(thetas[0], self.lam, self.problem), x1=self.x1,
            n_max=self.n_max, algorithm=PERTURBED,
            perturbation=NoPerturbation() if self.deterministic else UniformSquarePerturbation(seeds[0]),
            reference="auto",
        )
        if template.reference is None:
            raise ConfigurationError("the sweep needs q*: the problem has no closed-form target set (problem.omega)")
        _check_records(template, rows=len(thetas) * len(seeds))
        object.__setattr__(self, "template", template)
        object.__setattr__(self, "x1", template.x1)
        object.__setattr__(self, "n_max", template.n_max)
        object.__setattr__(self, "lam", template.schedule.lam.value)


@record(eq=False)
class CellResult:
    theta: float
    seed: int
    min_rel_err: float
    first_hit: dict
    trace: RunTrace | None
    error: str | None = None


@record(eq=False)
class ExperimentReport:
    config: ExperimentConfig
    reference: np.ndarray
    cells: tuple[CellResult, ...]

    def cells_for(self, theta: float) -> list[CellResult]:
        return [c for c in self.cells if c.theta == theta and c.error is None]

    def aggregate(self) -> dict:
        """Per theta: (median, min, max) of min_rel_err over seeds."""
        out = {}
        for theta in self.config.thetas:
            vals = [c.min_rel_err for c in self.cells_for(theta)]
            if vals:
                out[theta] = (statistics.median(vals), min(vals), max(vals))
        return out

    def first_hit_grid(self) -> dict:
        """grid[eps][theta] = lower median over seeds of N(eps, theta); None for ND.

        A seed that never reaches eps counts as +inf, so the cell is ND as
        soon as half the seeds miss.
        """
        grid = {}
        for eps in self.config.epsilons:
            row = {}
            for theta in self.config.thetas:
                hits = [
                    c.first_hit[eps] if c.first_hit[eps] is not None else float("inf")
                    for c in self.cells_for(theta)
                ]
                if not hits:
                    row[theta] = None
                    continue
                med = statistics.median_low(sorted(hits))
                row[theta] = None if med == float("inf") else int(med)
            grid[eps] = row
        return grid


def run_experiment(cfg: ExperimentConfig) -> ExperimentReport:
    """Run the perturbed rule for each (theta, seed) cell.

    Each cell is ``cfg.template``, reference q* included, with its theta's schedule (one per theta, so a
    block tabulates once per theta) and its seed's perturbation. The cells step as one :func:`run_batch`,
    each trace equal to its own :func:`run` bit for bit; a cell that diverges or meets a non-finite value
    is recorded with its error while the others go on.
    """
    grid, solver_cfgs = [], []
    for theta in cfg.thetas:
        schedule = benchmark_schedule(theta, cfg.lam)
        for seed in cfg.seeds:
            perturbation = cfg.template.perturbation if cfg.deterministic else UniformSquarePerturbation(seed)
            grid.append((theta, seed))
            solver_cfgs.append(replace(cfg.template, schedule=schedule, perturbation=perturbation))
    outcomes = run_batch(solver_cfgs, [{"theta": theta, "cell_seed": seed} for theta, seed in grid])
    cells = []
    for (theta, seed), trace in zip(grid, outcomes):
        if isinstance(trace, Exception):  # record the failure, keep sweeping
            cells.append(
                CellResult(theta, seed, float("nan"), {e: None for e in cfg.epsilons}, None, error=str(trace))
            )
            continue
        rel_err = trace.rel_err  # computed once for the cell's summary, then dropped
        hits = {eps: _first_hit(trace.k, rel_err, eps) for eps in cfg.epsilons}
        cells.append(CellResult(theta, seed, float(rel_err.min()), hits, trace))
    return ExperimentReport(config=cfg, reference=cfg.template.reference, cells=tuple(cells))


# --------------------------------------------------------------------------
# emission


def _fmt(v) -> str:
    return repr(float(v))


def emit_trace(trace: RunTrace, path) -> Path:
    """Write one trace as CSV; the (k, rel_err) columns are the plot-ready series."""
    path = Path(path)
    path.parent.mkdir(parents=True, exist_ok=True)
    trace.write_csv(path)
    return path


def _aligned(rows: list[list[str]]) -> str:
    widths = [max(len(r[i]) for r in rows) for i in range(len(rows[0]))]
    return "\n".join("  ".join(c.rjust(w) for c, w in zip(r, widths)) for r in rows) + "\n"


def emit_tables(report: ExperimentReport, out_dir) -> list[Path]:
    """Write the three summary tables (CSV plus aligned text).

    Table 1 covers theta < 0.5, table 2 covers theta >= 0.5 (median
    min rel_err with min/max spread over seeds); table 3 is the
    N(eps, theta) grid with ND for cells that never reach eps. Table 3 is
    omitted when the epsilon list is empty.
    """
    out_dir = Path(out_dir)
    out_dir.mkdir(parents=True, exist_ok=True)
    agg = report.aggregate()
    written = []

    for name, selector in (("table1", lambda t: t < 0.5), ("table2", lambda t: t >= 0.5)):
        thetas = [t for t in report.config.thetas if selector(t) and t in agg]
        if not thetas:
            continue
        csv_lines = ["theta,median_min_rel_err,min,max,n_seeds"]
        txt_rows = [["theta", "median min rel_err", "min", "max"]]
        for t in thetas:
            med, lo, hi = agg[t]
            n_seeds = len(report.cells_for(t))
            csv_lines.append(f"{_fmt(t)},{_fmt(med)},{_fmt(lo)},{_fmt(hi)},{n_seeds}")
            txt_rows.append([f"{t:g}", f"{med:.4f}", f"{lo:.4f}", f"{hi:.4f}"])
        (out_dir / f"{name}.csv").write_text("\n".join(csv_lines) + "\n")
        (out_dir / f"{name}.txt").write_text(_aligned(txt_rows))
        written += [out_dir / f"{name}.csv", out_dir / f"{name}.txt"]

    if report.config.epsilons:
        grid = report.first_hit_grid()
        thetas = list(report.config.thetas)
        header = "eps," + ",".join(f"theta_{_fmt(t)}" for t in thetas)
        csv_lines = [header]
        txt_rows = [["eps"] + [f"theta={t:g}" for t in thetas]]
        for eps in report.config.epsilons:
            cells = [grid[eps][t] for t in thetas]
            csv_lines.append(
                ",".join([_fmt(eps)] + [_ND if c is None else str(c) for c in cells])
            )
            txt_rows.append([f"{eps:g}"] + [_ND if c is None else str(c) for c in cells])
        (out_dir / "table3.csv").write_text("\n".join(csv_lines) + "\n")
        (out_dir / "table3.txt").write_text(_aligned(txt_rows))
        written += [out_dir / "table3.csv", out_dir / "table3.txt"]
    return written


def emit_report(report: ExperimentReport, out_dir, extra_metadata: dict | None = None) -> Path:
    """Write report.csv, all traces and meta.txt under ``out_dir``; ``extra_metadata`` joins meta.txt.

    Each trace file holds the bytes :func:`emit_trace` writes. All traces go
    through one writer call, chunk by chunk, so that cells formatted for one
    trace's chunk (k and lambda of the sweep, alpha of its theta, e_norm of
    its seed) serve every other trace's.
    """
    out_dir = Path(out_dir)
    out_dir.mkdir(parents=True, exist_ok=True)
    eps = report.config.epsilons

    header = "theta,seed,min_rel_err," + ",".join(f"hit_{_fmt(e)}" for e in eps) + ",trace,error"
    lines, traces = [header], []
    for c in report.cells:
        trace_name = f"traces/theta_{_fmt(c.theta)}_seed_{c.seed}.csv"
        if c.trace is not None:
            traces.append((c.trace, out_dir / trace_name))
        hit_cells = [_ND if c.first_hit[e] is None else str(c.first_hit[e]) for e in eps]
        lines.append(
            ",".join(
                [_fmt(c.theta), str(c.seed), _fmt(c.min_rel_err)]
                + hit_cells
                + [trace_name if c.trace is not None else "", c.error or ""]
            )
        )
    if traces:
        (out_dir / "traces").mkdir(exist_ok=True)
    _write_traces(traces)
    (out_dir / "report.csv").write_text("\n".join(lines) + "\n")

    perturbation = report.config.template.perturbation
    meta = {
        "algorithm": PERTURBED,
        "perturbation": perturbation.kind,
        "prng": perturbation.generator,
        "seeds": list(report.config.seeds),
        "thetas": list(report.config.thetas),
        "epsilons": list(report.config.epsilons),
        "n_max": report.config.n_max,
        "lambda": report.config.lam,
        "x1": report.config.x1.tolist(),
        "deterministic": report.config.deterministic,
        "reference": report.reference.tolist(),
        **(extra_metadata or {}),
    }
    (out_dir / "meta.txt").write_text("".join(f"{k}: {meta[k]}\n" for k in sorted(meta)))
    return out_dir
