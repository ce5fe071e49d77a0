"""Self-tests of the benchmark: pure generators, failure counting, metric names.

Run with ``python3 -m pytest -q bench/tests`` from the repository root.
"""

import json
import shutil
import subprocess
import sys
from pathlib import Path

import pytest

import layers
import viscosolve
import workloads
from compare import broken, verdict
from tracing import CAL_REF_S, CallCounter, SpeedSampler, Tracer, instrument
from viscosolve import (
    ExperimentConfig,
    ImplicitConfig,
    SolverConfig,
    benchmark_schedule,
    build_benchmark_problem,
    emit_report,
    emit_tables,
    implicit_path,
    reference_solution,
    run,
    run_experiment,
)

ROOT = Path(__file__).resolve().parents[2]
SPEC = json.loads((ROOT / "BENCHMARK.json").read_text())


@pytest.mark.parametrize("workload", workloads.WORKLOADS)
def test_generators_are_pure_in_the_seed(workload):
    first = json.dumps(workloads.generate(workload, 7), sort_keys=True)
    again = json.dumps(workloads.generate(workload, 7), sort_keys=True)
    other = json.dumps(workloads.generate(workload, 8), sort_keys=True)
    assert first == again
    assert first != other


def _sweep_failures(report, out_dir):
    checks = workloads.Checks()
    workloads.check_sweep({"report": report, "out_dir": out_dir}, checks, full=True)
    return checks


def test_corrupted_trace_row_is_counted_as_a_failure(tmp_path):
    report = run_experiment(ExperimentConfig(thetas=(0.9,), seeds=(1,), n_max=50))
    emit_report(report, tmp_path)
    emit_tables(report, tmp_path)
    clean = _sweep_failures(report, tmp_path)
    assert not any("traces" in f or ".csv" in f for f in clean.failures)

    trace = next((tmp_path / "traces").glob("*.csv"))
    lines = trace.read_text().splitlines()
    cells = lines[10].split(",")
    cells[1] = repr(float(cells[1]) + 1e-3)
    lines[10] = ",".join(cells)
    trace.write_text("\n".join(lines) + "\n")
    dirty = _sweep_failures(report, tmp_path)
    assert dirty.attempted == clean.attempted
    assert dirty.failed == clean.failed + 1
    assert any("row 10" in f for f in dirty.failures)


def test_non_converged_t_point_is_counted_as_a_failure():
    problem = build_benchmark_problem()
    qref = reference_solution(problem, tol=1e-12)
    strict = ImplicitConfig(t_values=(1.0, 0.1), lambda_of_t=0.1, inner_tol=1e-10)
    loose = ImplicitConfig(t_values=(1.0, 0.1), lambda_of_t=0.1, inner_tol=1e-4)

    ok = workloads.Checks()
    workloads.check_path(implicit_path(strict, problem, x1=[2.0, 3.0]), problem, strict, qref, ok)
    assert ok.attempted == 5 and ok.failed == 0

    early = workloads.Checks()
    workloads.check_path(implicit_path(loose, problem, x1=[2.0, 3.0]), problem, strict, qref, early)
    assert early.attempted == 5
    assert early.failed >= 1
    assert all("residual" in f for f in early.failures)


def test_metric_definitions_match_benchmark_json():
    assert [w["name"] for w in SPEC["workloads"]] == list(workloads.WORKLOADS)
    e2e = {m["name"]: (m["unit"], m["better"]) for m in SPEC["end_to_end"]}
    assert e2e == {name: (d[0], d[1]) for name, d in layers.END_TO_END.items()}
    per_layer = {m["name"]: (m["unit"], m["better"]) for m in SPEC["per_layer"]}
    assert per_layer == {
        name: (d[0], "higher" if name in layers.HIGHER_IS_BETTER else "lower") for name, d in layers.PER_LAYER.items()
    }


@pytest.mark.parametrize("trace", [0, 1])
def test_printed_metrics_match_benchmark_json(trace):
    proc = subprocess.run(
        [sys.executable, "bench/run.py", "--workload", "solve_mix", "--seed", "3", "--seconds", "1",
         "--trace", str(trace)],
        cwd=ROOT, capture_output=True, text=True, timeout=170,
    )
    assert proc.returncode == 0, proc.stderr
    result = json.loads(proc.stdout.strip().splitlines()[-1])
    assert set(result) == {"correct", "attempted", "failed", "metrics"}
    assert result["correct"] and result["failed"] == 0 and result["attempted"] >= 1
    spec = SPEC["per_layer"] if trace else SPEC["end_to_end"]
    assert {name: m["unit"] for name, m in result["metrics"].items()} == {m["name"]: m["unit"] for m in spec}


def test_refuses_to_run_without_the_package_source(tmp_path):
    shutil.copy(ROOT / "BENCHMARK.json", tmp_path)
    shutil.copytree(ROOT / "bench", tmp_path / "bench", ignore=shutil.ignore_patterns("__pycache__"))
    proc = subprocess.run(
        [sys.executable, "bench/run.py", "--workload", "sweep", "--seed", "1", "--seconds", "1", "--trace", "0"],
        cwd=tmp_path, capture_output=True, text=True, timeout=170,
    )
    assert proc.returncode != 0
    assert '"metrics"' not in proc.stdout


def test_compare_verdicts():
    parent = [10.0, 10.2, 9.9, 10.1, 10.0, 10.3, 9.8, 10.1, 10.0, 10.2]
    faster = [v * 0.5 for v in parent]
    same = [v * 1.001 for v in parent]
    assert verdict(parent, faster, "lower", 0.1) == ("improved", 1.0)
    assert verdict(parent, same, "lower", 0.1)[0] == "no worse"
    assert verdict(parent, [v * 1.5 for v in parent], "lower", 0.1)[0] == "worse"
    noisy = [v * (1.0 + (0.6 if i % 2 else -0.3)) for i, v in enumerate(parent)]
    assert verdict(parent, noisy, "lower", 0.1)[0] == "unresolved"
    assert verdict(parent, same, "higher", None)[0] == "-"


def _records(failed, correct=None):
    return [{"result": {"failed": f, "correct": f == 0 if correct is None else correct}} for f in failed]


def test_more_failed_operations_make_the_change_worse():
    clean = _records([0] * 10)
    assert not broken(clean, clean)
    assert broken(clean, _records([0] * 9 + [1]))
    assert broken(clean, _records([0] * 10, correct=False))
    assert not broken(_records([1] * 10), _records([1] * 10, correct=True))


def test_instrument_counts_the_calls_the_package_makes_and_restores_it():
    problem = build_benchmark_problem()
    n = 40
    cfg = SolverConfig(
        problem=problem, schedule=benchmark_schedule(0.9, problem=problem), x1=[2.0, 3.0], n_max=n,
        algorithm="perturbed", perturbation=viscosolve.UniformSquarePerturbation(seed=1),
    )
    originals = {name: getattr(viscosolve.solvers, name) for name in ("project", "norm", "run", "alpha_at")}
    map_call = type(problem.map_A).__call__
    tracer = Tracer(SpeedSampler(), counter=CallCounter())
    with instrument(tracer, [problem.map_A, problem.map_f, problem.map_S]):
        # a call the package makes itself, as run_experiment does
        trace = tracer.call("experiment", "outer", lambda: viscosolve.experiment.run(cfg))
    assert [(s.name, s.parent) for s in tracer.spans] == [
        ("outer", None), ("run.perturbed", 0), ("perturbation_stream", 1)
    ]
    counter = tracer.counter
    # the perturbed rule projects twice per update step and tabulates one alpha per row
    assert counter.total("project") == 2 * (n - 1)
    assert counter.total("alpha_at") == n
    assert all(span == 1 for span, _ in counter.counts)
    assert {name: getattr(viscosolve.solvers, name) for name in originals} == originals
    assert type(problem.map_A).__call__ is map_call
    assert trace.final.tolist() == run(cfg).final.tolist()


def test_speed_factor_weights_each_sample_by_the_time_it_covers():
    clock = SpeedSampler()
    slow, fast = 2 * CAL_REF_S, CAL_REF_S
    clock.samples = [(0.0, slow), (1.0, slow), (2.0, fast), (3.0, fast)]
    half = 0.5
    assert clock.factor(0.0, 1.4) == pytest.approx(half)
    assert clock.factor(1.6, 3.0) == pytest.approx(1.0)
    # [0.5, 2.5] is slow up to the midpoint 1.5 and fast after it
    assert clock.factor(0.5, 2.5) == pytest.approx((half + 1.0) / 2)
