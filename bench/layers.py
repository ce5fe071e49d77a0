"""Per-layer metrics of the traced pass.

Every per-layer metric is printed on every workload, with its source:

* ``span``     -- measured around a call the workload's pass makes, or the
  package makes inside it (see ``tracing.SPANNED``); 0 on a workload that
  makes no such call;
* ``micro``    -- per-call cost of a public function at a fixed shape,
  independent of the workload;
* ``count``    -- counted in the pass: calls (``tracing.COUNTED``) or the
  pass's own outputs; 0 on a workload that makes no such call;
* ``computed`` -- derived from the measured passes.

Layer self times come from the spans: a span's own time (minus its nested
spans) less the time of the counted calls made in it, each priced at its
cost per call, which goes to the counted function's layer.
"""

from __future__ import annotations

import statistics
import warnings

import numpy as np

from tracing import per_call_s, timed
from workloads import ANCHORED_RULES, RULES

LAYERS = ("space", "projections", "operators", "schedules", "solvers", "experiment", "configio", "diagnostics")

# name -> (unit, better, meaning)
END_TO_END = {
    "wall_s": ("s", "lower", "one full pass, emission included; median of the run's passes, speed-scaled"),
    "setup_s": ("s", "lower", "fresh interpreter, import viscosolve .. ready to step; median of 9, speed-scaled"),
    "peak_rss_mb": ("MiB", "lower", "peak resident memory of the run's process"),
    "ok_frac": ("ratio", "higher", "operations that passed their check / operations attempted (1 - failed_frac)"),
}

PROJECTION_KINDS_D2 = ("orthant", "box", "ball", "halfspace", "hyperplane", "simplex")
HIGHER_IS_BETTER = ("solvers.steps_per_s",)

# name -> (unit, source, end-to-end metric it should move, workloads it should move it on)
PER_LAYER = {}
for _kind in PROJECTION_KINDS_D2:
    PER_LAYER[f"projections.project_us.{_kind}"] = (
        "us/call", "micro", "wall_s",
        "sweep, implicit" if _kind == "orthant" else "solve_mix only (no change elsewhere)",
    )
PER_LAYER.update({
    "projections.project_us.simplex_d64": ("us/call", "micro", "wall_s", "solve_mix"),
    "projections.project_us.orthant_d64": ("us/call", "micro", "wall_s", "solve_mix"),
    "projections.calls": ("count/pass", "count", "base for project_us", "all"),
    "operators.map_A_us": ("us/call", "micro", "wall_s", "sweep, solve_mix"),
    "operators.map_f_us": ("us/call", "micro", "wall_s", "sweep, solve_mix"),
    "operators.map_S_us": ("us/call", "micro", "wall_s", "sweep, solve_mix"),
    "operators.viscosity_map_us": ("us/call", "micro", "wall_s", "implicit"),
    "space.norm_us": ("us/call", "micro", "wall_s", "implicit"),
    "schedules.tabulate_ms": ("ms/table", "micro", "wall_s", "sweep (once per cell)"),
    "schedules.perturbation_stream_ms": ("ms/stream", "micro", "wall_s", "sweep"),
    "schedules.hypothesis_report_ms": ("ms", "span", "wall_s", "solve_mix"),
})
for _rule in RULES:
    PER_LAYER[f"solvers.run_ms.{_rule}"] = (
        "ms/run", "span", "wall_s", "solve_mix, sweep" if _rule == "perturbed" else "solve_mix",
    )
PER_LAYER.update({
    "solvers.step_us": ("us/step", "micro", "wall_s", "sweep, solve_mix"),
    "solvers.steps_per_s": ("1/s", "micro", "wall_s", "sweep, solve_mix"),
    "solvers.record_ms": ("ms/run", "micro", "wall_s", "sweep (dense) vs solve_mix (strided)"),
    "solvers.config_digest_us": ("us/call", "micro", "wall_s, setup_s", "sweep, solve_mix"),
    "solvers.reference_solution_us": ("us/call", "micro", "setup_s", "all"),
    "solvers.banach_iters": ("count", "count", "wall_s", "implicit"),
    "solvers.banach_iters.t_1e-05": ("count", "count", "wall_s", "implicit"),
    "solvers.implicit_path_s": ("s", "span", "wall_s", "implicit"),
    "solvers.dist_to_ref_over_t": ("ratio", "count", "none (accuracy watch)", "implicit"),
    "experiment.run_experiment_s": ("s", "span", "wall_s", "sweep"),
    "experiment.emit_report_s": ("s", "span", "wall_s", "sweep"),
    "experiment.emit_tables_ms": ("ms", "span", "wall_s", "sweep"),
    "experiment.emit_us_per_row": ("us/row", "span", "wall_s", "sweep (dense) vs solve_mix (strided)"),
    "experiment.emit_bytes": ("bytes", "count", "wall_s", "sweep (dense) vs solve_mix (strided)"),
    "configio.build_ms": ("ms", "span", "setup_s", "all"),
    "diagnostics.property_checks_ms": ("ms", "span", "wall_s", "solve_mix"),
    "tracing_overhead_frac": ("ratio", "computed", "none", "all"),
})


# --------------------------------------------------------------------------
# per-call costs at fixed shapes


def _d2_sets():
    from viscosolve import Ball, Box, Halfspace, Hyperplane, NonnegOrthant, Simplex

    return {
        "orthant": NonnegOrthant(dim=2),
        "box": Box(lo=[-1.0, -1.0], hi=[1.0, 1.0]),
        "ball": Ball(center=[0.0, 0.0], radius=1.0),
        "halfspace": Halfspace(normal=[1.0, 1.0], offset=1.0),
        "hyperplane": Hyperplane(normal=[1.0, 1.0], offset=1.0),
        "simplex": Simplex(total=2.6, dim=2),
    }


def _points(dim: int, n: int = 64) -> list:
    # fixed points, mostly outside the sets, so each projection does its work
    return list(np.random.default_rng(20220702).normal(scale=3.0, size=(n, dim)))


def project_us(clock, cset) -> float:
    from viscosolve import project

    pts = _points(cset.dim)
    return 1e6 * per_call_s(clock, lambda: [project(cset, x) for x in pts], per_invocation=len(pts))


def map_us(clock, mapping, dim: int) -> float:
    pts = _points(dim)
    return 1e6 * per_call_s(clock, lambda: [mapping(x) for x in pts], per_invocation=len(pts))


def tabulate_s(clock, schedule, n: int) -> float:
    """The alpha / lambda tables ``run`` builds, through the public accessors."""
    from viscosolve import ScheduleViolationWarning, alpha_at, lambda_at

    def tabulate():
        np.array([alpha_at(schedule, k) for k in range(1, n + 1)])
        with warnings.catch_warnings():
            warnings.simplefilter("ignore", ScheduleViolationWarning)
            np.array([lambda_at(schedule, k) for k in range(1, n + 1)])

    return per_call_s(clock, tabulate, repeats=3, min_block_s=0.0)


def stream_s(clock, perturbation, n: int, dim: int) -> float:
    from viscosolve import perturbation_stream

    return per_call_s(clock, lambda: perturbation_stream(perturbation, n, dim), repeats=3)


def _bench_solver_cfg(rule: str, n_max: int, *, reference=None, stride: int = 1, target=None):
    from viscosolve import SolverConfig, UniformSquarePerturbation, benchmark_schedule, build_benchmark_problem

    problem = build_benchmark_problem()
    return SolverConfig(
        problem=problem,
        schedule=benchmark_schedule(0.9, problem=problem),
        x1=[2.0, 3.0],
        n_max=n_max,
        algorithm=rule,
        perturbation=UniformSquarePerturbation(seed=1),
        anchor=[1.0, 1.0] if rule in ANCHORED_RULES else None,
        reference=reference,
        rel_err_target=target,
        record_stride=stride,
    )


def _run_s(clock, cfg, repeats: int = 3) -> float:
    from viscosolve import run

    return statistics.median(timed(clock, run, cfg)[0] for _ in range(repeats))


def fixed_micro(clock) -> dict:
    """The workload-independent per-call metrics (all in their metric units)."""
    from viscosolve import (
        NonnegOrthant, PERTURBED, Simplex, UniformSquarePerturbation, benchmark_schedule,
        build_benchmark_problem, norm, reference_solution, viscosity_map,
    )
    from viscosolve.solvers import config_digest

    problem = build_benchmark_problem()
    out = {}
    for kind, cset in _d2_sets().items():
        out[f"projections.project_us.{kind}"] = project_us(clock, cset)
    out["projections.project_us.simplex_d64"] = project_us(clock, Simplex(total=2.6, dim=64))
    out["projections.project_us.orthant_d64"] = project_us(clock, NonnegOrthant(dim=64))
    out["operators.map_A_us"] = map_us(clock, problem.map_A, 2)
    out["operators.map_f_us"] = map_us(clock, problem.map_f, 2)
    out["operators.map_S_us"] = map_us(clock, problem.map_S, 2)
    pts = _points(2)
    out["operators.viscosity_map_us"] = 1e6 * per_call_s(
        clock, lambda: [viscosity_map(np.abs(x), problem, 0.5, 0.1) for x in pts], per_invocation=len(pts)
    )
    out["space.norm_us"] = 1e6 * per_call_s(clock, lambda: [norm(x) for x in pts], per_invocation=len(pts))
    schedule = benchmark_schedule(0.9, problem=problem)
    out["schedules.tabulate_ms"] = 1e3 * tabulate_s(clock, schedule, 6000)
    out["schedules.perturbation_stream_ms"] = 1e3 * stream_s(clock, UniformSquarePerturbation(seed=1), 6000, 2)

    qref = reference_solution(problem, tol=1e-12)
    # per-step cost as the slope between two run lengths (fixed costs cancel)
    t_short = _run_s(clock, _bench_solver_cfg(PERTURBED, 1000, stride=1000))
    t_long = _run_s(clock, _bench_solver_cfg(PERTURBED, 3000, stride=3000))
    step_s = max(t_long - t_short, 1e-9) / 2000
    out["solvers.step_us"] = 1e6 * step_s
    out["solvers.steps_per_s"] = 1.0 / step_s
    dense = _run_s(clock, _bench_solver_cfg(PERTURBED, 6000, reference=qref, stride=1))
    bare = _run_s(clock, _bench_solver_cfg(PERTURBED, 6000, stride=6000))
    out["solvers.record_ms"] = 1e3 * (dense - bare)
    cfg = _bench_solver_cfg(PERTURBED, 6000, reference=qref)
    out["solvers.config_digest_us"] = 1e6 * per_call_s(clock, lambda: config_digest(cfg))
    out["solvers.reference_solution_us"] = 1e6 * per_call_s(clock, lambda: reference_solution(problem, tol=1e-12))
    return out


# --------------------------------------------------------------------------
# attribution


def price(clock, counter) -> dict:
    """Speed-scaled seconds per call of each counted key, timed on the arguments of its first call."""
    prices = {}
    with warnings.catch_warnings():
        warnings.simplefilter("ignore")
        for key, (_, fn, args) in counter.samples.items():
            prices[key] = per_call_s(clock, lambda fn=fn, args=args: fn(*args), repeats=3)
    return prices


def layer_self_times(spans, counter, prices: dict) -> dict:
    """Seconds per layer: span self times, less their counted calls, which go to the callee's layer.

    When a span's counted calls price above the span's own time, they are
    scaled down to fit it.
    """
    out = {layer: 0.0 for layer in LAYERS}
    nested = [0.0] * len(spans)
    for _, _, parent, secs in spans:
        if parent is not None:
            nested[parent] += secs
    counted = [{} for _ in spans]
    for (span, key), n in counter.counts.items():
        if span is not None:
            layer = counter.samples[key][0]
            counted[span][layer] = counted[span].get(layer, 0.0) + n * prices[key]
    for i, (layer, _, _, secs) in enumerate(spans):
        own = max(secs - nested[i], 0.0)
        inner = sum(counted[i].values())
        scale = min(1.0, own / inner) if inner > 0 else 0.0
        for callee, t in counted[i].items():
            out[callee] += t * scale
        out[layer] += own - inner * scale
    return out


def compose(workload: str, spans, shape: dict, micro: dict, build_ms: float, overhead: float, counter):
    """All per-layer metrics: name -> (value, source)."""
    out = {name: (micro[name], "micro") for name in PER_LAYER if PER_LAYER[name][1] == "micro"}
    by_name = {}
    for _, name, _, secs in spans:
        by_name.setdefault(name, []).append(secs)

    def total(span_name, scale):
        return (scale * sum(by_name.get(span_name, ())), "span")

    def mean(span_name, scale):
        secs = by_name.get(span_name)
        return (scale * sum(secs) / len(secs) if secs else 0.0, "span")

    out["projections.calls"] = (counter.total("project"), "count")
    out["schedules.hypothesis_report_ms"] = mean("hypothesis_report", 1e3)
    for rule in RULES:
        out[f"solvers.run_ms.{rule}"] = mean(f"run.{rule}", 1e3)
    out["solvers.banach_iters"] = (shape.get("banach_iters", 0), "count")
    out["solvers.banach_iters.t_1e-05"] = (shape.get("banach_iters_smallest_t", 0), "count")
    out["solvers.implicit_path_s"] = total("implicit_path", 1.0)
    out["solvers.dist_to_ref_over_t"] = (shape.get("dist_to_ref_over_t", 0.0), "count")
    out["experiment.run_experiment_s"] = total("run_experiment", 1.0)
    out["experiment.emit_report_s"] = total("emit_report", 1.0)
    out["experiment.emit_tables_ms"] = total("emit_tables", 1e3)
    emit_secs = total("emit_report" if workload == "sweep" else "emit_trace", 1e6)[0]
    out["experiment.emit_us_per_row"] = (emit_secs / shape["rows"] if shape.get("rows") else 0.0, "span")
    out["experiment.emit_bytes"] = (shape.get("emit_bytes", 0), "count")
    out["configio.build_ms"] = (build_ms, "span")
    out["diagnostics.property_checks_ms"] = total("run_property_checks", 1e3)
    out["tracing_overhead_frac"] = (overhead, "computed")
    missing = set(PER_LAYER) - set(out)
    if missing:
        raise KeyError(f"per-layer metrics not computed: {sorted(missing)}")
    return {name: out[name] for name in PER_LAYER}
