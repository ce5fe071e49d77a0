"""Command-line entry point.

Subcommands::

    solve        run one algorithm, write trace.csv + trace.meta.txt
    implicit     follow the implicit curve t -> x_t, write implicit_path.csv
    experiment   run the (theta, seed) sweep, write the report directory
    tables       run the sweep and write only the three summary tables
    check        grade the schedule hypotheses and run the property battery

Exit codes: 0 ok, 1 check found violations, 2 configuration error,
3 numerical failure (for experiment and tables: every cell failed),
4 I/O failure. The default output directory is
$VISCOSOLVE_OUT, falling back to ./runs.
"""

from __future__ import annotations

import argparse
import json
import os
import sys
from pathlib import Path

from . import configio
from .__about__ import __version__
from .schedules import _integer
from .solvers import (
    ConfigurationError,
    DivergenceError,
    NonConvergenceError,
    _point_of_Q,
    config_digest,
    implicit_path,
    run,
)
from .space import NonFiniteError

__all__ = ["main", "cli_main"]

EXIT_OK = 0
EXIT_CHECK_FAILED = 1
EXIT_CONFIG = 2
EXIT_DIVERGENCE = 3
EXIT_IO = 4

OUT_ENV_VAR = "VISCOSOLVE_OUT"


def _parser() -> argparse.ArgumentParser:
    p = argparse.ArgumentParser(prog="viscosolve", description=__doc__.split("\n")[0])
    p.add_argument("--version", action="version", version=f"viscosolve {__version__}")
    sub = p.add_subparsers(dest="command", required=True)

    def common(sp, experiment_flags=False):
        sp.add_argument("--config", type=Path, default=None, help="JSON config file (defaults to the built-in benchmark)")
        sp.add_argument("--out", type=Path, default=None, help=f"output directory (default ${OUT_ENV_VAR} or ./runs)")
        sp.add_argument("--theta", type=float, default=None, help="override the mixing exponent")
        sp.add_argument("--seed", type=int, default=None, help="override the perturbation seed")
        sp.add_argument("--nmax", type=int, default=None, help="override the iteration budget")
        sp.add_argument("--deterministic", action="store_true", help="disable perturbations (e = 0)")
        if experiment_flags:
            sp.add_argument("--seeds", type=int, nargs="+", default=None, help="override the seed list")

    sp = sub.add_parser("solve", help="run one algorithm and write its trace")
    common(sp)
    sp.add_argument("--algorithm", default=None, help="step rule (e.g. explicit_viscosity, perturbed, halpern)")
    sp.add_argument("--stride", type=int, default=None, help="record every k-th iterate")

    sp = sub.add_parser("implicit", help="follow the implicit curve t -> x_t")
    common(sp)

    sp = sub.add_parser("experiment", help="run the (theta, seed) sweep")
    common(sp, experiment_flags=True)

    sp = sub.add_parser("tables", help="run the sweep and write the summary tables")
    common(sp, experiment_flags=True)

    sp = sub.add_parser("check", help="grade schedule hypotheses and property checks")
    common(sp)
    return p


def _overrides(args) -> dict:
    return {
        "theta": getattr(args, "theta", None),
        "seed": getattr(args, "seed", None),
        "seeds": getattr(args, "seeds", None),
        "nmax": getattr(args, "nmax", None),
        "algorithm": getattr(args, "algorithm", None),
        "deterministic": getattr(args, "deterministic", False),
        "stride": getattr(args, "stride", None),
    }


def _resolve(args) -> tuple[dict, list[str], str]:
    """The resolved config, the paths that came from the defaults, and the config's digest.

    The digest is the command's one identity: every file it writes that
    carries a ``config_digest`` carries this value.
    """
    raw = configio.load_config(args.config) if args.config else {}
    resolved, defaulted = configio.resolve_config(configio.apply_overrides(raw, _overrides(args)))
    return resolved, defaulted, config_digest(resolved)


def _out_dir(args) -> Path:
    if args.out is not None:
        return args.out
    return Path(os.environ.get(OUT_ENV_VAR, "runs"))


def _write_resolved(out: Path, resolved: dict, defaulted: list[str], digest: str) -> None:
    out.mkdir(parents=True, exist_ok=True)
    echo = {"config": resolved, "defaulted_fields": defaulted, "config_digest": digest}
    (out / "config.json").write_text(json.dumps(echo, indent=2, sort_keys=True) + "\n")


def _cmd_solve(args) -> int:
    resolved, defaulted, digest = _resolve(args)
    cfg = configio.build_solver_config(resolved)
    out = _out_dir(args)
    trace = run(cfg, extra_metadata={"defaulted_fields": defaulted, "config_digest": digest})
    out.mkdir(parents=True, exist_ok=True)
    trace.write_csv(out / "trace.csv")
    trace.write_meta(out / "trace.meta.txt")
    _write_resolved(out, resolved, defaulted, digest)
    final = ", ".join(repr(float(v)) for v in trace.final)
    print(f"solve: {cfg.algorithm}, {trace.k.size} recorded iterates, final x = ({final})")
    if trace.reference is not None:
        print(f"solve: min rel_err = {trace.min_rel_err()!r}")
    print(f"solve: wrote {out / 'trace.csv'}")
    return EXIT_OK


def _cmd_implicit(args) -> int:
    resolved, defaulted, digest = _resolve(args)
    problem = configio.build_problem(resolved)
    icfg = configio.build_implicit_config(resolved)
    with configio._as_config_error("solver"):  # a malformed x1, or one outside Q
        x1 = _point_of_Q(problem, resolved["solver"]["x1"], "x1")
    points = implicit_path(icfg, problem, x1=x1)
    out = _out_dir(args)
    out.mkdir(parents=True, exist_ok=True)
    d = problem.dim
    header = "t," + ",".join(f"x{i + 1}" for i in range(d)) + ",residual,iterations,dist_to_reference,dist_bound"
    lines = [header]
    for pt in points:
        cells = [repr(float(pt.t))] + [repr(float(v)) for v in pt.x]
        cells += [repr(float(pt.residual)), str(pt.iterations)]
        cells.append(repr(float(pt.dist_to_reference)) if pt.dist_to_reference is not None else "")
        cells.append(repr(float(pt.dist_bound)))
        lines.append(",".join(cells))
    (out / "implicit_path.csv").write_text("\n".join(lines) + "\n")
    _write_resolved(out, resolved, defaulted, digest)
    last = points[-1]
    print(f"implicit: {len(points)} points, final t = {last.t!r}, residual = {last.residual!r}")
    if last.dist_to_reference is not None:
        print(f"implicit: final distance to reference = {last.dist_to_reference!r}")
    print(f"implicit: wrote {out / 'implicit_path.csv'}")
    return EXIT_OK


def _cmd_experiment(args, tables_only: bool = False) -> int:
    from .experiment import emit_report, emit_tables, run_experiment  # loaded by the commands that sweep

    resolved, defaulted, digest = _resolve(args)
    cfg = configio.build_experiment_config(resolved)
    report = run_experiment(cfg)
    out = _out_dir(args)
    if tables_only:
        out.mkdir(parents=True, exist_ok=True)
        written = emit_tables(report, out)
        for path in written:
            print(f"tables: wrote {path}")
    else:
        emit_report(report, out, extra_metadata={"config_digest": digest})
        emit_tables(report, out)
        print(f"experiment: {len(report.cells)} cells -> {out}")
        for theta, (med, lo, hi) in sorted(report.aggregate().items()):
            print(f"experiment: theta={theta:g} median min rel_err = {med!r} (spread [{lo!r}, {hi!r}])")
    _write_resolved(out, resolved, defaulted, digest)
    if all(c.trace is None for c in report.cells):  # the files say why; the exit code says it failed
        print(f"numerical failure: {args.command}: every cell failed ({len(report.cells)} cells)", file=sys.stderr)
        return EXIT_DIVERGENCE
    return EXIT_OK


def _cmd_check(args) -> int:
    from .diagnostics import hypothesis_report, run_property_checks  # loaded by this command alone

    resolved, _, _ = _resolve(args)
    problem = configio.build_problem(resolved)
    schedule = configio.build_schedule(resolved)
    perturbation = configio.build_perturbation(resolved)
    # grading the hypotheses needs n >= 2 steps, that numpy can tabulate and the schedule's tables reach
    with configio._as_config_error("experiment", (ValueError, TypeError, IndexError)):
        n = _integer(resolved["experiment"]["nmax"], "nmax", 2)
        report = hypothesis_report(schedule, perturbation, n, nu=problem.nu, dim=problem.dim)
    for c in report.checks:
        evidence = ", ".join(f"{k}={v:.6g}" for k, v in c.evidence.items())
        print(f"hypothesis ({c.key}): {c.verdict} -- {c.statement} [{evidence}]")
    ok = report.all_satisfied()
    for r in run_property_checks(problem):
        print(f"{'PASS' if r.passed else 'FAIL'} {r.name} (worst violation {r.worst:.3e}, {r.detail})")
        ok = ok and r.passed
    return EXIT_OK if ok else EXIT_CHECK_FAILED


def main(argv=None) -> int:
    args = _parser().parse_args(argv)
    try:
        if args.command == "solve":
            return _cmd_solve(args)
        if args.command == "implicit":
            return _cmd_implicit(args)
        if args.command == "experiment":
            return _cmd_experiment(args)
        if args.command == "tables":
            return _cmd_experiment(args, tables_only=True)
        return _cmd_check(args)
    except ConfigurationError as exc:
        print(f"config error: {exc}", file=sys.stderr)
        return EXIT_CONFIG
    except MemoryError as exc:  # a request larger than memory, such as a record table for a huge --nmax
        print(f"config error: out of memory{f': {exc}' if str(exc) else ''}", file=sys.stderr)
        return EXIT_CONFIG
    except (DivergenceError, NonConvergenceError, NonFiniteError) as exc:
        print(f"numerical failure: {exc}", file=sys.stderr)
        return EXIT_DIVERGENCE
    except OSError as exc:
        print(f"i/o error: {exc}", file=sys.stderr)
        return EXIT_IO


def cli_main() -> None:
    sys.exit(main())


if __name__ == "__main__":
    cli_main()
