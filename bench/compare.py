#!/usr/bin/env python3
"""Compare benchmark results of a parent commit and a change.

Two subcommands:

    python3 bench/compare.py run --parent DIR --change DIR --out RESULTS \\
        [--pairs 10] [--trace 0]

runs ``bench/run.py`` in two checkouts on every workload, pair by pair
(seeds 1000, 1001, ...), alternating which side goes first, with the run
length of ``BENCHMARK.json``, and writes one result record per run under
RESULTS/parent and RESULTS/change. Both checkouts must hold identical
benchmark files.

    python3 bench/compare.py report RESULTS/parent RESULTS/change

pairs records by (workload, trace, seed) and prints, for each metric, each
side's median and quartiles, the share of pairs the change wins (ties count
for neither) and a verdict. When the change fails more operations than the
parent, or any of its runs is not ``correct``, every metric of that workload
is ``worse``. Otherwise:

* ``improved``   -- the change wins at least 9 of 10 pairs and the medians
  differ, in its favour, by more than the parent's quartile spread;
* ``no worse``   -- the change's median is not worse than the parent's by
  more than the metric's bound, and both spreads are within the bound;
* ``worse``      -- the median is worse by more than the bound;
* ``unresolved`` -- a spread is wider than the bound, and not every change
  run beats every parent run.

Per-layer metrics have no bound: they get ``improved`` or ``-``.
"""

from __future__ import annotations

import argparse
import hashlib
import json
import statistics
import subprocess
import sys
from pathlib import Path

BENCH = Path(__file__).resolve().parent
MIN_PAIRS = 10
WIN_SHARE = 0.9
SEED0 = 1000


def quartiles(values: list[float]) -> tuple[float, float, float]:
    if len(values) == 1:
        return values[0], values[0], values[0]
    q1, q2, q3 = statistics.quantiles(values, n=4)
    return q1, q2, q3


def verdict(parent: list[float], change: list[float], better: str, bound: float | None) -> tuple[str, float]:
    """Verdict for paired samples (same order = same seed) and the change's win share."""
    sign = 1.0 if better == "lower" else -1.0  # sign * (a - b) > 0 means a is worse than b
    wins = sum(1 for p, c in zip(parent, change) if sign * (p - c) > 0)
    share = wins / len(parent)
    p1, pm, p3 = quartiles(parent)
    c1, cm, c3 = quartiles(change)
    if share >= WIN_SHARE and sign * (pm - cm) > (p3 - p1):
        return "improved", share
    if bound is None:
        return "-", share
    spread = max((p3 - p1) / abs(pm) if pm else 0.0, (c3 - c1) / abs(cm) if cm else 0.0)
    all_better = all(sign * (p - c) > 0 for p in parent for c in change)
    if spread > bound and not all_better:
        return "unresolved", share
    worse_by = sign * (cm - pm) / abs(pm) if pm else 0.0
    return ("worse" if worse_by > bound else "no worse"), share


def broken(parent_recs: list[dict], change_recs: list[dict]) -> bool:
    """True when the change fails more operations than the parent, or any change run is not correct."""
    p_fail = sum(r["result"]["failed"] for r in parent_recs)
    c_fail = sum(r["result"]["failed"] for r in change_recs)
    return c_fail > p_fail or not all(r["result"]["correct"] for r in change_recs)


def load(dir_: Path) -> dict:
    out = {}
    for path in sorted(dir_.glob("*.json")):
        rec = json.loads(path.read_text())
        out[(rec["workload"], rec["trace"], rec["seed"])] = rec
    return out


def report(parent_dir: Path, change_dir: Path) -> int:
    spec = json.loads((BENCH.parent / "BENCHMARK.json").read_text())
    defs = {m["name"]: m for m in spec["end_to_end"] + spec["per_layer"]}
    parent, change = load(parent_dir), load(change_dir)
    keys = sorted(set(parent) & set(change))
    if not keys:
        print("compare: no (workload, trace, seed) present on both sides", file=sys.stderr)
        return 2
    groups = {}
    for wl, trace, seed in keys:
        groups.setdefault((wl, trace), []).append(seed)
    for (wl, trace), seeds in sorted(groups.items()):
        p_recs = [parent[(wl, trace, s)] for s in seeds]
        c_recs = [change[(wl, trace, s)] for s in seeds]
        p_fail = sum(r["result"]["failed"] for r in p_recs)
        c_fail = sum(r["result"]["failed"] for r in c_recs)
        print(f"\n== workload {wl}, trace {trace}: {len(seeds)} pairs; failed operations parent {p_fail}, change {c_fail}")
        if len(seeds) < MIN_PAIRS:
            print(f"   (fewer than {MIN_PAIRS} pairs: no verdict is a claim)")
        failing = broken(p_recs, c_recs)
        if failing:
            print("   (the change fails more operations, or a change run is not correct: every metric is worse)")
        print(f"   {'metric':36s} {'parent median [q1, q3]':>36s} {'change median [q1, q3]':>36s} {'wins':>5s} verdict")
        for name in p_recs[0]["result"]["metrics"]:
            pv = [r["result"]["metrics"][name]["value"] for r in p_recs]
            cv = [r["result"]["metrics"][name]["value"] for r in c_recs]
            d = defs.get(name, {"better": "lower"})
            v, share = verdict(pv, cv, d["better"], d.get("bound"))
            if failing:
                v = "worse"
            p1, pm, p3 = quartiles(pv)
            c1, cm, c3 = quartiles(cv)
            print(f"   {name:36s} {pm:12.6g} [{p1:10.6g}, {p3:10.6g}] {cm:12.6g} [{c1:10.6g}, {c3:10.6g}] "
                  f"{share:5.2f} {v}")
    return 0


def _bench_hash(checkout: Path) -> str:
    h = hashlib.sha256()
    for path in sorted((checkout / "bench").rglob("*.py")) + [checkout / "BENCHMARK.json"]:
        h.update(path.relative_to(checkout).as_posix().encode())
        h.update(path.read_bytes())
    return h.hexdigest()


def run_pairs(args) -> int:
    parent, change = args.parent.resolve(), args.change.resolve()
    if _bench_hash(parent) != _bench_hash(change):
        print("compare: the two checkouts hold different benchmark files", file=sys.stderr)
        return 2
    if args.pairs < MIN_PAIRS:
        print(f"compare: at least {MIN_PAIRS} pairs are needed", file=sys.stderr)
        return 2
    spec = json.loads((BENCH.parent / "BENCHMARK.json").read_text())
    seconds = spec["run_seconds"]
    workloads = [w["name"] for w in spec["workloads"]]
    for i in range(args.pairs):
        seed = SEED0 + i
        order = [("parent", parent), ("change", change)]
        if i % 2:
            order.reverse()
        for wl in workloads:
            for side, checkout in order:
                out = args.out / side / f"{wl}_t{args.trace}_s{seed}.json"
                cmd = [sys.executable, "bench/run.py", "--workload", wl, "--seed", str(seed),
                       "--seconds", str(seconds), "--trace", str(args.trace), "--out", str(out.resolve())]
                print(f"compare: pair {i + 1}/{args.pairs} {side} {wl} seed {seed}", flush=True)
                proc = subprocess.run(cmd, cwd=checkout, stdout=subprocess.DEVNULL)
                if proc.returncode != 0:
                    print(f"compare: {side} run failed with code {proc.returncode}", file=sys.stderr)
                    return 1
    return report(args.out / "parent", args.out / "change")


def main(argv=None) -> int:
    ap = argparse.ArgumentParser(description=__doc__.split("\n")[0])
    sub = ap.add_subparsers(dest="command", required=True)
    r = sub.add_parser("run", help="run alternating pairs in two checkouts, then report")
    r.add_argument("--parent", type=Path, required=True)
    r.add_argument("--change", type=Path, required=True)
    r.add_argument("--out", type=Path, required=True)
    r.add_argument("--pairs", type=int, default=MIN_PAIRS, help=f"at least {MIN_PAIRS}")
    r.add_argument("--trace", type=int, choices=(0, 1), default=0)
    p = sub.add_parser("report", help="compare two directories of result records")
    p.add_argument("parent", type=Path)
    p.add_argument("change", type=Path)
    args = ap.parse_args(argv)
    if args.command == "run":
        return run_pairs(args)
    return report(args.parent, args.change)


if __name__ == "__main__":
    sys.exit(main())
