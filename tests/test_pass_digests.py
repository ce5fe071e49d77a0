"""The benchmark's pass digests: each workload's outputs at seeds 1000-1002, pinned byte for byte.

Each case does what one benchmark pass does (``bench/workloads.py``): it
generates the workload's inputs from the seed, writes them, prepares the
configs, runs the pass and checks its outputs without the slow per-row trace
validation. No check may fail, and the digest of the pass's numeric outputs
must equal its pin. So a change that moves a byte the benchmark writes fails
here, not only in a benchmark run.

Like the golden pins, these values hold on OpenBLAS's SkylakeX kernels: other
kernels round some dot products and matrix products differently.
"""

import sys
from pathlib import Path

import pytest

sys.path.insert(0, str(Path(__file__).resolve().parent.parent / "bench"))

import workloads  # noqa: E402

DIGESTS = {
    ("sweep", 1000): "516c25eb91f287badcf66044fd75bf9170eca0fa5f483c8dc9296bac0a64f6b7",
    ("sweep", 1001): "e2b7b071522af3f7dc2d5afd11723954bf128db41ef46ade52307bebe5b075b3",
    ("sweep", 1002): "ce1120f6c6b1cb93cacd7ce9a2bac5ab86ea99995f7a5e690de8a7cd07b3c13d",
    ("implicit", 1000): "d1469ef8e5f3f86335d9fe31348058bf5a6a35836026dc919f35d601227dc823",
    ("implicit", 1001): "f390c4fa50b7694bc4ebc6d0fb1d95d0be5000c64921e70c37896acd41ffcfd9",
    ("implicit", 1002): "6e2d86cd84d2310c9b328e78d5ba70340aaef13c9cc12250f11e0b63e3ddb16d",
    ("solve_mix", 1000): "d7166079dc9329aeef38500d74df4e26ae03b1b2ef4132af333f8e1d8fdebbfc",
    ("solve_mix", 1001): "57934e585eea0a28b384c3f5d57282266e5f7c95667901726eb790ad1a99c948",
    ("solve_mix", 1002): "2cbd9235d2af1ba15ec69293740d32497a0e092cbcb44a1b71c111cd4468d91a",
}


@pytest.mark.parametrize("workload,seed", list(DIGESTS), ids=[f"{w}-{s}" for w, s in DIGESTS])
def test_pass_digest(workload, seed, tmp_path):
    inputs = workloads.generate(workload, seed)
    paths = workloads.write_inputs(inputs, tmp_path / "inputs")
    prepared = workloads.prepare(workload, paths, inputs)
    result = workloads.PASSES[workload](prepared, tmp_path / "pass")
    checks = workloads.Checks()
    res = workloads.check(workload, result, prepared, checks, full=False)
    assert checks.attempted and checks.failures == []
    assert res.digest == DIGESTS[workload, seed]
