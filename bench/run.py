#!/usr/bin/env python3
"""The viscosolve benchmark: one command, three workloads, checked outputs.

Usage (from the root of a checkout):

    python3 bench/run.py --workload {sweep,implicit,solve_mix} --seed N \\
        --seconds S --trace {0,1} [--out RESULT.json]

``--trace 0`` measures the end-to-end metrics (``wall_s``, ``setup_s``,
``peak_rss_mb``, ``ok_frac``); ``--trace 1`` runs untraced and traced passes
alternately and prints every per-layer metric. The last line of standard
output is one JSON object with the keys ``correct``, ``attempted``,
``failed`` and ``metrics``. See ``bench/README.md``.

The package is imported from ``src/`` of the checkout this file sits in;
without it the command exits with code 2 and prints no result.
"""

from __future__ import annotations

import argparse
import contextlib
import json
import os
import platform
import resource
import shutil
import statistics
import subprocess
import sys
import tempfile
import time
import traceback
from pathlib import Path

ROOT = Path(__file__).resolve().parent.parent
SRC = ROOT / "src"
BENCH = Path(__file__).resolve().parent
WORK_ROOT = ROOT / ".bench_work"

# BLAS / OpenMP pools are pinned to one thread in this process and in every
# process it starts, so all load comes from one process at a time.
THREAD_VARS = ("OMP_NUM_THREADS", "OPENBLAS_NUM_THREADS", "MKL_NUM_THREADS", "NUMEXPR_NUM_THREADS", "VECLIB_MAXIMUM_THREADS")
SETUP_REPEATS = 9
SETUP_TIMEOUT_S = 60


class SourceMissing(RuntimeError):
    """The checkout has no ``src/viscosolve`` to benchmark."""


def _parser() -> argparse.ArgumentParser:
    p = argparse.ArgumentParser(description=__doc__.split("\n")[0])
    p.add_argument("--workload", required=True, choices=("sweep", "implicit", "solve_mix"))
    p.add_argument("--seed", type=int, required=True)
    p.add_argument("--seconds", type=int, required=True)
    p.add_argument("--trace", type=int, choices=(0, 1), required=True)
    p.add_argument("--out", type=Path, default=None, help="also write the full result record here (for compare.py)")
    return p


def _import_package():
    if not (SRC / "viscosolve" / "__init__.py").is_file():
        raise SourceMissing(f"no package source at {SRC / 'viscosolve'}")
    sys.path.insert(0, str(SRC))
    import viscosolve

    if Path(viscosolve.__file__).resolve().parent != (SRC / "viscosolve").resolve():
        raise SourceMissing(f"imported viscosolve from {viscosolve.__file__}, not from {SRC}")
    return viscosolve


def fingerprint() -> dict:
    import numpy as np

    cpu = "unknown"
    try:
        with open("/proc/cpuinfo") as fh:
            for line in fh:
                if line.startswith("model name"):
                    cpu = line.split(":", 1)[1].strip()
                    break
    except OSError:
        pass
    sha = "unknown"
    try:
        top = subprocess.run(["git", "-C", str(ROOT), "rev-parse", "--show-toplevel", "HEAD"],
                             capture_output=True, text=True, timeout=10)
        lines = top.stdout.split()
        if top.returncode == 0 and len(lines) == 2 and Path(lines[0]).resolve() == ROOT:
            sha = lines[1]
    except (OSError, subprocess.SubprocessError):
        pass
    loc = sum(len(p.read_text().splitlines()) for p in sorted(SRC.rglob("*.py")))
    return {
        "python": platform.python_version(),
        "numpy": np.__version__,
        "nproc": os.cpu_count(),
        "affinity": len(os.sched_getaffinity(0)),
        "cpu_model": cpu,
        "git_sha": sha,
        "src_loc": loc,
        "threads": {v: os.environ.get(v) for v in THREAD_VARS},
        "load_processes": 1,
    }


def _setup_samples(workload: str, input_dir: Path) -> tuple[list[float], list[float], list[dict]]:
    """Set-up in fresh interpreters, one at a time: (speed-scaled s, raw s, each probe's speed samples)."""
    samples, raw, speed = [], [], []
    for _ in range(SETUP_REPEATS):
        proc = subprocess.run(
            [sys.executable, "-I", str(BENCH / "setup_probe.py"), str(SRC), workload, str(input_dir)],
            capture_output=True, text=True, env=dict(os.environ), timeout=SETUP_TIMEOUT_S, cwd=ROOT,
        )
        if proc.returncode != 0:
            raise RuntimeError(f"setup probe failed:\n{proc.stderr}")
        out = json.loads(proc.stdout.strip().splitlines()[-1])
        samples.append(out["setup_s"])
        raw.append(out["raw_s"])
        speed.append({"interval": out["interval"], "calibration": out["calibration"]})
    return samples, raw, speed


class Runner:
    """Runs and checks the passes of one workload in one work directory."""

    def __init__(self, workload: str, prepared, work_dir: Path, clock):
        import workloads

        self.wl = workloads
        self.clock = clock
        self.workload = workload
        self.prepared = prepared
        self.work_dir = work_dir
        self.checks = workloads.Checks()
        self.digest = None
        self.count = 0

    def one_pass(self, tracer=None, full: bool = False):
        """Run, time and check one pass; a traced pass also gets ``tracing.instrument``.

        Returns (seconds excluding speed sampling, the same speed-scaled,
        the pass's interval on the sampler's clock, PassResult or None).
        """
        from tracing import instrument

        out_dir = self.work_dir / f"pass{self.count}"
        self.count += 1
        instrumented = instrument(tracer, self.wl.problem_maps(self.prepared)) if tracer else contextlib.nullcontext()
        t0 = self.clock.now()
        try:
            with instrumented:
                result = self.wl.PASSES[self.workload](self.prepared, out_dir, tracer)
        except Exception:  # one failed pass is one failed operation; keep measuring
            t1 = self.clock.now()
            traceback.print_exc(file=sys.stderr)
            self.checks.add(False, "pass raised")
            return t1 - t0, (t1 - t0) * self.clock.factor(t0, t1), (t0, t1), None
        t1 = self.clock.now()
        secs = t1 - t0
        res = self.wl.check(self.workload, result, self.prepared, self.checks, full)
        if self.digest is None:
            self.digest = res.digest
        else:
            self.checks.add(res.digest == self.digest, "outputs differ from the first pass (byte identity)")
        shutil.rmtree(out_dir, ignore_errors=True)
        return secs, secs * self.clock.factor(t0, t1), (t0, t1), res


def measure(workload: str, seed: int, seconds: int, trace: bool, work_dir: Path) -> dict:
    import layers
    import workloads
    from tracing import CallCounter, SpeedSampler, Tracer, median_spans, timed

    inputs = workloads.generate(workload, seed)
    input_dir = work_dir / "inputs"
    paths = workloads.write_inputs(inputs, input_dir)
    samples = {}
    record = {"samples": samples}
    if not trace:
        samples["setup_s"], samples["setup_raw_s"], samples["setup_speed"] = _setup_samples(workload, input_dir)

    clock = SpeedSampler()
    clock.start()
    try:
        build_times = []
        prepared = None
        for _ in range(5 if trace else 1):
            secs, prepared = timed(clock, workloads.prepare, workload, paths, inputs)
            build_times.append(secs)

        runner = Runner(workload, prepared, work_dir, clock)
        # warm-up: caches, lazy imports; the full row checks; with --trace 1 the call counts
        counted = Tracer(clock, counter=CallCounter()) if trace else None
        runner.one_pass(tracer=counted, full=True)

        walls, raw_walls, intervals, traced_walls, tracers, shapes, unattributed = [], [], [], [], [], [], []
        start = time.perf_counter()
        while True:
            raw, scaled, interval, _ = runner.one_pass()
            raw_walls.append(raw)
            walls.append(scaled)
            intervals.append(interval)
            if trace:
                tracer = Tracer(clock, pass_id=runner.count)
                raw, scaled, _, res = runner.one_pass(tracer=tracer)
                traced_walls.append(scaled)
                if res is not None:
                    tracers.append(tracer)
                    shapes.append(res.shape)
                    glue = raw - sum(sp.duration for sp in tracer.top_level())
                    unattributed.append(glue * scaled / raw)
            if time.perf_counter() - start >= seconds:
                break

        checks = runner.checks
        record.update(attempted=checks.attempted, failed=checks.failed, failures=checks.failures[:20])
        samples.update(wall_s=walls, wall_raw_s=raw_walls, wall_interval=intervals)
        if not trace:
            record["metrics"] = {
                "wall_s": statistics.median(walls),
                "setup_s": statistics.median(samples["setup_s"]),
                "peak_rss_mb": resource.getrusage(resource.RUSAGE_SELF).ru_maxrss / 1024.0,
                "ok_frac": (checks.attempted - checks.failed) / checks.attempted,
            }
            return record

        samples["traced_wall_s"] = traced_walls
        if not tracers:
            raise RuntimeError("no traced pass completed")
        if counted.shape() != tracers[0].shape():
            raise RuntimeError("the counted pass recorded other spans than the traced passes")
        spans = median_spans(tracers, clock)
        micro = layers.fixed_micro(clock)
        prices = layers.price(clock, counted.counter)
        overhead = (statistics.median(traced_walls) - statistics.median(walls)) / statistics.median(walls)
        per_layer = layers.compose(
            workload, spans, shapes[-1], micro, 1e3 * statistics.median(build_times), overhead, counted.counter
        )
    finally:
        clock.stop()
        samples["calibration"] = clock.samples

    record["metrics"] = {name: value for name, (value, _) in per_layer.items()}
    record["sources"] = {name: source for name, (_, source) in per_layer.items()}
    record["layer_self_s"] = layers.layer_self_times(spans, counted.counter, prices)
    # the median top-level spans plus the median glue between them
    record["unattributed_s"] = statistics.median(unattributed)
    record["traced_wall_s"] = sum(secs for _, _, parent, secs in spans if parent is None) + record["unattributed_s"]
    record["spans"] = [[layer, name, parent, secs] for layer, name, parent, secs in spans]
    record["calls"] = {}
    for (_, (name, _)), n in counted.counter.counts.items():
        record["calls"][name] = record["calls"].get(name, 0) + n
    record["spans_raw"] = [
        [sp.pass_id, sp.layer, sp.name, sp.start, sp.end, sp.parent] for tr in tracers for sp in tr.spans
    ]
    return record


def _print_report(workload: str, trace: bool, record: dict) -> None:
    import layers
    from tracing import CAL_REF_S

    print(f"bench: workload={workload} passes={len(record['samples']['wall_s'])} "
          f"operations={record['attempted']} failed={record['failed']}")
    for msg in record["failures"]:
        print(f"bench: FAILED {msg}")
    if not trace:
        samples = record["samples"]
        for name, value in record["metrics"].items():
            unit, better, meaning = layers.END_TO_END[name]
            print(f"metric {name} = {value!r} {unit} ({better} is better) -- {meaning}")
        print(f"raw wall_s = {statistics.median(samples['wall_raw_s'])!r} s, raw setup_s = "
              f"{statistics.median(samples['setup_raw_s'])!r} s (medians before speed scaling); "
              f"calibration kernel median {statistics.median(dt for _, dt in samples['calibration'])!r} s "
              f"({len(samples['calibration'])} samples) vs reference {CAL_REF_S} s")
        failed_frac = record["failed"] / record["attempted"]
        print(f"metric failed_frac = {failed_frac!r} ratio ({record['failed']} of {record['attempted']} operations)")
        return
    print(f"{'per-layer metric':40s} {'value':>14s} {'unit':10s} {'source':9s} should move / on")
    for name, value in record["metrics"].items():
        unit, _, moves, on = layers.PER_LAYER[name]
        print(f"{name:40s} {value:14.6g} {unit:10s} {record['sources'][name]:9s} {moves} / {on}")
    print("counted calls in one pass: " + ", ".join(f"{name} {n}" for name, n in sorted(record["calls"].items())))
    wall = record["traced_wall_s"]
    print(f"traced pass: {wall:.4f} s (median); layer self time and share of the pass:")
    for layer, secs in record["layer_self_s"].items():
        print(f"  {layer:12s} {secs:10.4f} s {100 * secs / wall:6.1f} %")
    un = record["unattributed_s"]
    print(f"  {'unattributed':12s} {un:10.4f} s {100 * un / wall:6.1f} %")


def main(argv=None) -> int:
    args = _parser().parse_args(argv)
    if args.seconds < 1:
        print("bench: --seconds must be >= 1", file=sys.stderr)
        return 2
    for var in THREAD_VARS:
        os.environ[var] = "1"
    try:
        _import_package()
    except (SourceMissing, ImportError) as exc:
        print(f"bench: cannot import the package from this checkout: {exc}", file=sys.stderr)
        return 2

    WORK_ROOT.mkdir(exist_ok=True)
    work_dir = Path(tempfile.mkdtemp(prefix=f"{args.workload}-", dir=WORK_ROOT))
    try:
        fp = fingerprint()
        print(f"bench: workload={args.workload} seed={args.seed} seconds={args.seconds} trace={args.trace}")
        print(f"fingerprint: {json.dumps(fp, sort_keys=True)}")
        record = measure(args.workload, args.seed, args.seconds, bool(args.trace), work_dir)
    finally:
        shutil.rmtree(work_dir, ignore_errors=True)
        try:
            WORK_ROOT.rmdir()
        except OSError:
            pass
    _print_report(args.workload, bool(args.trace), record)

    import layers

    defs = layers.PER_LAYER if args.trace else layers.END_TO_END
    result = {
        "correct": record["failed"] == 0,
        "attempted": record["attempted"],
        "failed": record["failed"],
        "metrics": {name: {"value": record["metrics"][name], "unit": defs[name][0]} for name in defs},
    }
    if args.out is not None:
        full = dict(record, workload=args.workload, seed=args.seed, seconds=args.seconds,
                    trace=args.trace, fingerprint=fp, result=result)
        args.out.parent.mkdir(parents=True, exist_ok=True)
        args.out.write_text(json.dumps(full, indent=1, sort_keys=True) + "\n")
    print(json.dumps(result))
    return 0


if __name__ == "__main__":
    sys.exit(main())
