"""Workload inputs, passes and output checks of the viscosolve benchmark.

Each workload has three parts:

* ``generate_<name>(seed)`` turns the workload seed into plain JSON inputs
  (config dicts in the ``viscosolve`` schema). It uses numpy only, never the
  package, so the program receives nothing but these inputs.
* ``prepare_<name>(paths)`` does what a ``viscosolve`` subcommand does
  before it steps: load, resolve and build the config (``configio``),
  including the ProblemSpec spot checks and ``reference_solution``.
* ``pass_<name>(prepared, out_dir, tracer)`` runs one full pass through the
  same public calls the CLI makes, emission included, and returns what the
  checks and the tracer need.

Every check counts one operation; a failed or raising operation counts
against ``ok_frac``. Checks test only what the code guarantees.

Why these workloads (each planned optimisation works in one and not in the
others):

* ``sweep`` -- the paper's theta x seed study with dense recording and CSV
  emission. The batched engine and the vectorised writer act here.
* ``implicit`` -- one scalar Banach loop over the viscosity map, most of it
  at t = 1e-5. Anderson acceleration acts here; batching must not slow it.
* ``solve_mix`` -- all six rules, every non-orthant projection in dimension
  64, sparse recording with early stops, and the ``check`` battery. The
  one-primitive refactor must hold here.
"""

from __future__ import annotations

import hashlib
import json
import math
from dataclasses import dataclass, field
from pathlib import Path

import numpy as np

WORKLOADS = ("sweep", "implicit", "solve_mix")

# The paper's theta grid and the Table 1 / Table 2 medians of min rel_err;
# the acceptance bands are +-25% of these.
THETAS = (0.1, 0.2, 0.3, 0.4, 0.6, 0.8, 0.9, 1.0)
TABLE_MEDIANS = {
    0.1: 0.4774, 0.2: 0.1810, 0.3: 0.0742, 0.4: 0.0309,
    0.6: 0.0055, 0.8: 0.0010, 0.9: 0.0005, 1.0: 0.0008,
}
BAND = 0.25
EPSILONS = (0.5, 0.1, 0.05, 0.01, 0.005, 0.001)
SWEEP_NMAX = 6000
SWEEP_SEEDS_PER_PASS = 2

# The full config t-grid; t = 1e-5 carries three quarters of the iterations.
T_VALUES = (1.0, 0.1, 0.01, 0.001, 0.0001, 1e-05)
IMPLICIT_LAMBDA = 0.1
IMPLICIT_TOL = 1e-10

RULES = (
    "explicit_viscosity",
    "perturbed",
    "takahashi_toyoda",
    "halpern",
    "yao_outer",
    "yao_inner",
)
ANCHORED_RULES = ("halpern", "yao_outer", "yao_inner")
MIX_KINDS = ("simplex", "ball", "box", "halfspace")
MIX_DIM = 64
MIX_NMAX = 2000
MIX_STRIDE = 50
MIX_REL_ERR_TARGET = 0.005


def _rng(workload: str, seed: int) -> np.random.Generator:
    return np.random.default_rng([int(seed), WORKLOADS.index(workload)])


def _floats(a) -> list:
    return [float(v) for v in np.asarray(a, dtype=float).ravel()]


# --------------------------------------------------------------------------
# generators: seed -> JSON inputs


def generate_sweep(seed: int) -> dict:
    """The paper's 8 thetas over a block of seeds drawn from ``seed``."""
    rng = _rng("sweep", seed)
    block = sorted(int(s) for s in rng.choice(np.arange(1, 100_000), SWEEP_SEEDS_PER_PASS, replace=False))
    return {
        "configs": {
            "sweep": {
                "experiment": {
                    "thetas": list(THETAS),
                    "seeds": block,
                    "nmax": SWEEP_NMAX,
                    "epsilons": list(EPSILONS),
                    "deterministic": False,
                }
            }
        }
    }


def generate_implicit(seed: int) -> dict:
    """The full t-grid from a start point in Q (the quadrant) drawn from ``seed``."""
    rng = _rng("implicit", seed)
    x1 = _floats(rng.uniform(0.0, 4.0, size=2))
    return {
        "configs": {
            "implicit": {
                "solver": {"x1": x1},
                "implicit": {
                    "t_values": list(T_VALUES),
                    "lambda": IMPLICIT_LAMBDA,
                    "inner_tol": IMPLICIT_TOL,
                    "inner_max_iter": 20_000_000,
                },
            }
        }
    }


def _mix_set(kind: str, rng: np.random.Generator, d: int) -> tuple[dict, np.ndarray, np.ndarray]:
    """A set descriptor of ``kind`` plus two points of it (x1 and the anchor u)."""
    if kind == "simplex":
        total = float(rng.uniform(1.0, 3.0))
        pts = rng.dirichlet(np.ones(d), size=2) * total
        return {"kind": "simplex", "total": total, "dim": d}, pts[0], pts[1]
    if kind == "ball":
        center = rng.normal(size=d)
        radius = float(rng.uniform(1.0, 3.0))
        dirs = rng.normal(size=(2, d))
        dirs /= np.linalg.norm(dirs, axis=1, keepdims=True)
        pts = center + 0.5 * radius * dirs
        return {"kind": "ball", "center": _floats(center), "radius": radius}, pts[0], pts[1]
    if kind == "box":
        lo = rng.uniform(-2.0, 0.0, size=d)
        hi = lo + rng.uniform(0.5, 2.0, size=d)
        pts = rng.uniform(lo, hi, size=(2, d))
        return {"kind": "box", "lo": _floats(lo), "hi": _floats(hi)}, pts[0], pts[1]
    if kind == "halfspace":
        normal = rng.normal(size=d)
        offset = float(rng.uniform(-1.0, 1.0))
        pts = rng.normal(size=(2, d))
        # shift each point to sit 0.1 inside the boundary when it is outside
        excess = pts @ normal - offset
        shift = np.maximum(excess + 0.1, 0.0) / float(normal @ normal)
        pts = pts - shift[:, None] * normal
        return {"kind": "halfspace", "normal": _floats(normal), "offset": offset}, pts[0], pts[1]
    raise ValueError(f"unknown set kind {kind!r}")


def generate_solve_mix(seed: int) -> dict:
    """The 2-D benchmark plus one seeded problem per set kind, for all six rules.

    Seeded problems: Q of the kind in dimension 64, S = identity, A = the
    gradient of 0.5 ||B x - b||^2 with a random square B, f = the constant
    u in Q. Their target set has no closed form, so they run without a
    reference; the 2-D benchmark runs with one and with an rel_err target.
    """
    rng = _rng("solve_mix", seed)
    solver_common = {"nmax": MIX_NMAX, "stride": MIX_STRIDE, "beta": 0.5}
    configs = {
        "benchmark": {
            "perturbation": {"kind": "uniform_square_over_ksq", "seed": int(rng.integers(1, 100_000))},
            "solver": dict(
                solver_common,
                x1=_floats(rng.uniform(0.0, 4.0, size=2)),
                anchor=_floats(rng.uniform(0.0, 4.0, size=2)),
                reference="auto",
                rel_err_target=MIX_REL_ERR_TARGET,
            ),
        }
    }
    for kind in MIX_KINDS:
        set_d, x1, u = _mix_set(kind, rng, MIX_DIM)
        B = rng.normal(size=(MIX_DIM, MIX_DIM)) / math.sqrt(MIX_DIM)
        b = rng.normal(size=MIX_DIM)
        lam = 1.0 / float(np.linalg.eigvalsh(B.T @ B)[-1])
        configs[kind] = {
            "problem": {
                "set": set_d,
                "S": {"kind": "identity"},
                "A": {"kind": "least_squares_gradient", "B": [_floats(r) for r in B], "b": _floats(b)},
                "f": {"kind": "constant", "value": _floats(u)},
                "omega": None,
            },
            "schedule": {
                "alpha": {"power": float(rng.uniform(0.6, 1.0))},
                "lambda": {"constant": lam},
                "bounds": [lam, lam],
            },
            "perturbation": {"kind": "uniform_square_over_ksq", "seed": int(rng.integers(1, 100_000))},
            "solver": dict(solver_common, x1=_floats(x1), anchor=_floats(u), reference=None),
        }
    return {"configs": configs, "rules": list(RULES)}


GENERATORS = {"sweep": generate_sweep, "implicit": generate_implicit, "solve_mix": generate_solve_mix}


def generate(workload: str, seed: int) -> dict:
    return GENERATORS[workload](seed)


def write_inputs(inputs: dict, work_dir: Path) -> dict:
    """Write each config of ``inputs`` as a JSON file; returns name -> path."""
    work_dir.mkdir(parents=True, exist_ok=True)
    (work_dir / "inputs.json").write_text(json.dumps(inputs, sort_keys=True))
    paths = {}
    for name, cfg in inputs["configs"].items():
        path = work_dir / f"{name}.json"
        path.write_text(json.dumps(cfg, sort_keys=True))
        paths[name] = path
    return paths


# --------------------------------------------------------------------------
# tracing hook used by the passes


class NoTracer:
    """Calls through without recording; the untraced passes use it."""

    def call(self, layer: str, name: str, fn, *args, **kwargs):
        return fn(*args, **kwargs)


@dataclass
class Checks:
    """Outcome of every checked operation in a pass."""

    attempted: int = 0
    failures: list = field(default_factory=list)

    def add(self, ok: bool, what: str) -> None:
        self.attempted += 1
        if not ok:
            self.failures.append(what)

    @property
    def failed(self) -> int:
        return len(self.failures)


@dataclass
class PassResult:
    """What the benchmark keeps of a checked pass."""

    digest: str  # of the pass's numeric outputs; must equal the first pass's
    shape: dict  # counts the per-layer metrics report


def _digest_files(root: Path, names) -> str:
    h = hashlib.sha256()
    for name in names:
        h.update(name.encode())
        h.update((root / name).read_bytes())
    return h.hexdigest()


# --------------------------------------------------------------------------
# sweep


def prepare_sweep(paths: dict):
    from viscosolve import configio, reference_solution

    raw = configio.load_config(paths["sweep"])
    resolved, _ = configio.resolve_config(raw)
    problem = configio.build_problem(resolved)
    cfg = configio.build_experiment_config(resolved, problem=problem)
    # run_experiment solves for the reference itself; solving here too makes
    # set-up cover what ``viscosolve experiment`` needs before its first step
    reference_solution(problem, tol=1e-12)
    return {"cfg": cfg}


def pass_sweep(prepared, out_dir: Path, tracer=None) -> dict:
    """``viscosolve experiment``: run the sweep, emit report, traces and tables."""
    from viscosolve import emit_report, emit_tables, run_experiment

    tracer = tracer or NoTracer()
    report = tracer.call("experiment", "run_experiment", run_experiment, prepared["cfg"])
    tracer.call("experiment", "emit_report", emit_report, report, out_dir)
    tracer.call("experiment", "emit_tables", emit_tables, report, out_dir)
    return {"report": report, "out_dir": out_dir}


def sweep_numeric_files(out_dir: Path) -> list[str]:
    files = sorted(p.relative_to(out_dir).as_posix() for p in out_dir.rglob("*.csv"))
    return files + sorted(p.name for p in out_dir.glob("table*.txt"))


def check_trace_file(path: Path, n_rows: int, reference) -> str | None:
    """Validate one emitted trace CSV; returns a failure message or None.

    Rows must be k = 1 .. n_rows with finite values, and each rel_err must
    equal ||x_k - ref|| / ||ref|| recomputed from the row's own x.
    """
    try:
        lines = path.read_text().splitlines()
    except OSError as exc:
        return f"{path.name}: unreadable ({exc})"
    ref = np.asarray(reference, dtype=float)
    nref = math.sqrt(float(ref @ ref))
    d = ref.size
    if len(lines) != n_rows + 1:
        return f"{path.name}: {len(lines) - 1} rows, expected {n_rows}"
    for j, line in enumerate(lines[1:], start=1):
        cells = line.split(",")
        try:
            k = int(cells[0])
            vals = [float(c) for c in cells[1:]]
        except (ValueError, IndexError):
            return f"{path.name}: row {j} does not parse"
        if k != j or len(vals) != d + 4 or not all(math.isfinite(v) for v in vals):
            return f"{path.name}: row {j} malformed"
        diff = np.asarray(vals[:d]) - ref
        rel = math.sqrt(float(diff @ diff)) / nref
        if abs(rel - vals[-1]) > 1e-12 * max(1.0, rel):
            return f"{path.name}: row {j} rel_err {vals[-1]!r} != recomputed {rel!r}"
    return None


def check_sweep(result: dict, checks: Checks, full: bool) -> PassResult:
    report, out_dir = result["report"], result["out_dir"]
    cfg = report.config
    for c in report.cells:
        checks.add(c.error is None and c.trace is not None, f"cell theta={c.theta} seed={c.seed}: {c.error}")
    agg = report.aggregate()
    for theta, target in TABLE_MEDIANS.items():
        med = agg.get(theta, (float("nan"),))[0]
        checks.add(abs(med - target) <= BAND * target, f"theta={theta}: median min rel_err {med!r} outside +-25% of {target}")
    if full:
        for c in report.cells:
            trace_path = out_dir / "traces" / f"theta_{float(c.theta)!r}_seed_{c.seed}.csv"
            msg = check_trace_file(trace_path, cfg.n_max, report.reference)
            checks.add(msg is None, msg or "")
    files = sweep_numeric_files(out_dir)
    shape = {
        "rows": sum(c.trace.k.size for c in report.cells if c.trace is not None),
        "emit_bytes": sum((out_dir / f).stat().st_size for f in files) + (out_dir / "meta.txt").stat().st_size,
    }
    return PassResult(_digest_files(out_dir, files), shape)


# --------------------------------------------------------------------------
# implicit


def prepare_implicit(paths: dict):
    from viscosolve import configio

    raw = configio.load_config(paths["implicit"])
    resolved, _ = configio.resolve_config(raw)
    problem = configio.build_problem(resolved)
    icfg = configio.build_implicit_config(resolved)
    return {"problem": problem, "icfg": icfg, "x1": resolved["solver"]["x1"]}


def pass_implicit(prepared, out_dir: Path, tracer=None) -> dict:
    """``viscosolve implicit``: the reference point and the curve x_t over the t-grid."""
    from viscosolve import implicit_path, reference_solution

    tracer = tracer or NoTracer()
    problem = prepared["problem"]
    qref = tracer.call("solvers", "reference_solution", reference_solution, problem, tol=1e-12)
    points = tracer.call("solvers", "implicit_path", implicit_path, prepared["icfg"], problem, x1=prepared["x1"])
    return {"points": points, "qref": qref}


def check_path(points, problem, icfg, qref, checks: Checks) -> None:
    """Each x_t must be a fixed point of T_t to within inner_tol.

    The residual ||x_t - T_t x_t|| is recomputed here with ``viscosity_map``;
    the solver's own stop guarantees it is <= inner_tol. The reported
    distance to the reference must match ||x_t - q*||.
    """
    from viscosolve import viscosity_map

    got = [p.t for p in points]
    checks.add(got == list(icfg.t_values), f"t-grid {got} != {list(icfg.t_values)}")
    for p in points:
        x = np.asarray(p.x, dtype=float)
        tx = viscosity_map(x, problem, p.t, icfg.lam_at(p.t))
        r = float(np.linalg.norm(x - tx))
        checks.add(
            bool(np.isfinite(x).all()) and r <= icfg.inner_tol,
            f"t={p.t!r}: residual {r:.3e} > inner_tol {icfg.inner_tol:g}",
        )
        if qref is not None:
            dist = float(np.linalg.norm(x - qref))
            checks.add(
                p.dist_to_reference is not None and abs(p.dist_to_reference - dist) <= 1e-15 + 1e-12 * dist,
                f"t={p.t!r}: dist_to_reference {p.dist_to_reference!r} != {dist!r}",
            )


def check_implicit(result: dict, prepared, checks: Checks) -> PassResult:
    points = result["points"]
    check_path(points, prepared["problem"], prepared["icfg"], result["qref"], checks)
    h = hashlib.sha256()
    for p in points:
        h.update(repr((p.t, [float(v) for v in p.x], p.residual, p.iterations)).encode())
    iters = {p.t: p.iterations for p in points}
    shape = {
        "banach_iters": sum(iters.values()),
        "banach_iters_smallest_t": iters[min(iters)],
        "t_points": len(points),
        "dist_to_ref_over_t": points[-1].dist_to_reference / points[-1].t,
    }
    return PassResult(h.hexdigest(), shape)


# --------------------------------------------------------------------------
# solve_mix


def prepare_solve_mix(paths: dict, rules):
    from viscosolve import configio

    runs = []
    problems = {}
    check_cfg = None
    for name, path in paths.items():
        raw = configio.load_config(path)
        resolved, _ = configio.resolve_config(raw)
        problem = configio.build_problem(resolved)
        problems[name] = problem
        for rule in rules:
            r_resolved, _ = configio.resolve_config(configio.apply_overrides(raw, {"algorithm": rule}))
            runs.append((name, rule, configio.build_solver_config(r_resolved, problem=problem)))
        if problem.reference_set_omega is not None:
            # what ``viscosolve check`` grades: the benchmark's schedule and problem
            check_cfg = {
                "problem": problem,
                "schedule": configio.build_schedule(resolved),
                "perturbation": configio.build_perturbation(resolved),
                "n": int(resolved["experiment"]["nmax"]),
            }
    return {"runs": runs, "problems": problems, "check": check_cfg}


def pass_solve_mix(prepared, out_dir: Path, tracer=None) -> dict:
    """``viscosolve solve`` for every (problem, rule), then ``viscosolve check``."""
    from viscosolve import emit_trace, hypothesis_report, run
    from viscosolve.diagnostics import run_property_checks

    tracer = tracer or NoTracer()
    traces = []
    for name, rule, cfg in prepared["runs"]:
        trace = tracer.call("solvers", f"run.{rule}", run, cfg)
        run_dir = out_dir / f"{name}_{rule}"
        tracer.call("experiment", "emit_trace", emit_trace, trace, run_dir / "trace.csv")
        tracer.call("solvers", "write_meta", trace.write_meta, run_dir / "trace.meta.txt")
        traces.append((name, rule, cfg, trace))
    chk = prepared["check"]
    hyp = tracer.call(
        "schedules", "hypothesis_report", hypothesis_report,
        chk["schedule"], chk["perturbation"], chk["n"], nu=chk["problem"].nu, dim=chk["problem"].dim,
    )
    props = tracer.call("diagnostics", "run_property_checks", run_property_checks, chk["problem"])
    return {"traces": traces, "hypotheses": hyp, "properties": props, "out_dir": out_dir}


def check_solve_mix(result: dict, checks: Checks) -> PassResult:
    from viscosolve import contains
    from viscosolve.schedules import VIOLATED

    out_dir = result["out_dir"]
    rows = 0
    files = []
    for name, rule, cfg, trace in result["traces"]:
        x = trace.final
        ok = bool(np.isfinite(x).all()) and contains(cfg.problem.set_Q, x)
        checks.add(ok, f"{name}/{rule}: final iterate not finite or not in Q")
        rows += trace.k.size
        files.append(f"{name}_{rule}/trace.csv")
    for c in result["hypotheses"].checks:
        checks.add(c.verdict != VIOLATED, f"hypothesis ({c.key}) violated")
    for r in result["properties"]:
        checks.add(r.passed, f"property check {r.name} failed (worst {r.worst:.3e})")
    shape = {
        "rows": rows,
        "emit_bytes": sum((out_dir / f).stat().st_size for f in files),
    }
    return PassResult(_digest_files(out_dir, files), shape)


# --------------------------------------------------------------------------
# dispatch


def prepare(workload: str, paths: dict, inputs: dict):
    """Load, resolve and build the configs: everything before the first step."""
    if workload == "sweep":
        return prepare_sweep(paths)
    if workload == "implicit":
        return prepare_implicit(paths)
    return prepare_solve_mix(paths, inputs["rules"])


PASSES = {"sweep": pass_sweep, "implicit": pass_implicit, "solve_mix": pass_solve_mix}


def problem_maps(prepared) -> list:
    """The maps (A, f, S) of every problem the workload's passes solve."""
    if "problems" in prepared:
        problems = list(prepared["problems"].values())
    else:
        problems = [prepared["cfg"].problem if "cfg" in prepared else prepared["problem"]]
    return [m for p in problems for m in (p.map_A, p.map_f, p.map_S)]


def check(workload: str, result: dict, prepared, checks: Checks, full: bool) -> PassResult:
    """Check one pass's outputs; ``full`` adds the slow per-row trace validation."""
    if workload == "sweep":
        return check_sweep(result, checks, full)
    if workload == "implicit":
        return check_implicit(result, prepared, checks)
    return check_solve_mix(result, checks)
