"""Time set-up in a fresh interpreter: ``import viscosolve`` to ready-to-step.

Usage: python -I bench/setup_probe.py SRC_DIR WORKLOAD INPUT_DIR

Loads, resolves and builds the workload's configs from INPUT_DIR (the
ProblemSpec spot checks and ``reference_solution`` included) and prints the
elapsed seconds, raw and speed-scaled, with the interval and the speed
samples, as one JSON object. numpy is imported before the clock starts: the
speed sampler's kernel needs it.
"""

import json
import sys
from pathlib import Path


def main() -> None:
    src, workload, input_dir = sys.argv[1], sys.argv[2], Path(sys.argv[3])
    sys.path.insert(0, src)
    sys.path.insert(1, str(Path(__file__).resolve().parent))
    from tracing import SETUP_ELASTICITY, SpeedSampler

    clock = SpeedSampler()
    clock.start()
    try:
        t0 = clock.now()
        import viscosolve  # noqa: F401  (the import is what is timed)
        import workloads

        inputs = json.loads((input_dir / "inputs.json").read_text())
        paths = {name: input_dir / f"{name}.json" for name in inputs["configs"]}
        workloads.prepare(workload, paths, inputs)
        t1 = clock.now()
    finally:
        clock.stop()
    print(json.dumps({
        "setup_s": (t1 - t0) * clock.factor(t0, t1, SETUP_ELASTICITY), "raw_s": t1 - t0, "interval": [t0, t1], "calibration": clock.samples,
    }))


if __name__ == "__main__":
    main()
