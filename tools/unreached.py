"""Line coverage of the package by what its users run: the executable lines of ``src/viscosolve`` never reached.

Runs in one process under ``sys.settrace``, with the standard library only:

* the five commands on the built-in config: ``solve`` with each rule (anchored at (2, 3)), ``implicit``,
  ``experiment`` and ``tables`` at ``--nmax 300``, and ``check``;
* ``experiment --nmax 300`` on ``configs/benchmark.json``;
* one pass of each benchmark workload (``bench/workloads.py``) at seed 1000;
* ``solve`` on each config that the ``solve_mix`` workload generates.

Lines that only a forked trace writer runs count as unreached. Usage, from the repository root::

    python tools/unreached.py           # unreached / executable lines, and per module
    python tools/unreached.py --list    # also each unreached line as path:line

It takes about a minute: tracing slows each step tenfold or more.
"""

from __future__ import annotations

import argparse
import contextlib
import io
import json
import sys
import tempfile
from pathlib import Path

ROOT = Path(__file__).resolve().parents[1]
PACKAGE = ROOT / "src" / "viscosolve"


def executable_lines(path: Path) -> set[int]:
    """The lines of ``path`` that carry bytecode, from every code object its compiled module holds."""
    lines, stack = set(), [compile(path.read_text(), str(path), "exec")]
    while stack:
        code = stack.pop()
        lines.update(line for _, _, line in code.co_lines() if line)  # line 0: a module's RESUME, before line 1
        stack.extend(c for c in code.co_consts if hasattr(c, "co_lines"))
    return lines


def commands(out: Path) -> None:
    """Each user-facing run: the CLI commands, then the benchmark's passes and its solve_mix configs."""
    from viscosolve import ALGORITHMS
    from viscosolve.cli import main

    runs = []
    for rule in ALGORITHMS:  # the anchored rules need an anchor, which only a config gives
        path = out / f"{rule}.json"
        path.write_text(json.dumps({"solver": {"algorithm": rule, "anchor": [2.0, 3.0]}}))
        runs.append(["solve", "--config", str(path)])
    runs += [["implicit"], ["experiment", "--nmax", "300"], ["tables", "--nmax", "300"], ["check"],
             ["experiment", "--nmax", "300", "--config", str(ROOT / "configs" / "benchmark.json")]]
    sys.path.insert(0, str(ROOT / "bench"))
    import workloads

    for name in workloads.WORKLOADS:
        inputs = workloads.generate(name, 1000)
        paths = workloads.write_inputs(inputs, out / "inputs" / name)
        workloads.PASSES[name](workloads.prepare(name, paths, inputs), out / "pass" / name)
        if name == "solve_mix":
            runs += [["solve", "--config", str(path)] for path in paths.values()]
    for i, argv in enumerate(runs):
        with contextlib.redirect_stdout(io.StringIO()), contextlib.redirect_stderr(io.StringIO()):
            code = main([*argv, "--out", str(out / f"cli_{i}")])
        if code not in (0, 1):  # check exits 1 when it finds a violation
            raise SystemExit(f"viscosolve {' '.join(argv)} exited {code}")


def main(argv=None) -> int:
    p = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    p.add_argument("--list", action="store_true", help="print each unreached line as path:line")
    args = p.parse_args(argv)

    sys.path.insert(0, str(ROOT / "src"))
    prefix = str(PACKAGE) + "/"
    seen: set[tuple[str, int]] = set()

    def local(frame, event, arg):
        if event == "line":
            seen.add((frame.f_code.co_filename, frame.f_lineno))
        return local

    def tracer(frame, event, arg):
        return local if frame.f_code.co_filename.startswith(prefix) else None

    sys.settrace(tracer)
    try:
        import viscosolve  # noqa: F401 -- module-level lines run under the tracer

        with tempfile.TemporaryDirectory() as tmp:
            commands(Path(tmp))
    finally:
        sys.settrace(None)

    total = unreached = 0
    for path in sorted(PACKAGE.glob("*.py")):
        lines = executable_lines(path)
        missed = sorted(line for line in lines if (str(path), line) not in seen)
        total, unreached = total + len(lines), unreached + len(missed)
        print(f"{path.name:16} {len(missed):4} of {len(lines):4} lines unreached")
        if args.list:
            print("".join(f"  {path.relative_to(ROOT)}:{line}\n" for line in missed), end="")
    print(f"{'src/viscosolve':16} {unreached:4} of {total:4} lines unreached")
    return 0


if __name__ == "__main__":
    sys.exit(main())
