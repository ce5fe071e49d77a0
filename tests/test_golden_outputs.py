"""Byte-level regression guard: sha256 digests of whole output directories.

The digests were recorded once and must never move: any change to the
stepping, the recording or the CSV writers that alters a single byte of the
sweep directory or of a strided, early-stopped ``solve`` trace fails here.
Run this file as a script to print the current digests.
"""

import hashlib
import json
from pathlib import Path

import pytest

from viscosolve import ALGORITHMS
from viscosolve.cli import EXIT_OK, main

CONFIG = Path(__file__).resolve().parent.parent / "configs" / "benchmark.json"

EXPERIMENT_DIGEST = "059c93c0f498ca092d1cde7768a2cfe665d0275d5cfaef7427dafbfbe94c937c"
EXPERIMENT_DETERMINISTIC_DIGEST = "d300fdb724eca094938e74f9f5ef94e2dfd0a1162f4cccb32265a24ad874980c"
SOLVE_TRACE_DIGESTS = {
    "explicit_viscosity": "5f37866d403fcb1ae67ffe0802db92f72af59c0b450975cf523b26604d39758c",
    "perturbed": "e0321ac274ff2700a5ed79f8931d0f0712a616a8422028b0fb65443fa71bd8af",
    "takahashi_toyoda": "b55647bcd4d3d319803377cfe7d91763eb750866879ad8c8dd6fee4c6de6bbb8",
    "halpern": "a00cd1a26c1fd72913d1652dac759cecb4c53e40305209630acf7b36eec51dd9",
    "yao_outer": "a58c4d10de3984ea5dfeefd443b335c2f00fb32fb00a91aa3f45453c8876a3a5",
    "yao_inner": "a58c4d10de3984ea5dfeefd443b335c2f00fb32fb00a91aa3f45453c8876a3a5",
}


def tree_digest(root: Path) -> str:
    h = hashlib.sha256()
    for path in sorted(p for p in root.rglob("*") if p.is_file()):
        h.update(path.relative_to(root).as_posix().encode() + b"\0")
        h.update(path.read_bytes())
    return h.hexdigest()


def experiment_digest(out: Path, *extra) -> str:
    argv = ["experiment", "--nmax", "600", "--seeds", "1", "2", "--out", str(out), *extra]
    assert main(argv) == EXIT_OK
    return tree_digest(out)


def solve_trace_digest(tmp: Path, algorithm: str) -> str:
    # strided records plus a rel_err target that some rules reach off the stride grid
    cfg = json.loads(CONFIG.read_text())
    cfg["solver"].update({"anchor": [1.0, 1.5], "rel_err_target": 0.02, "stride": 7})
    cfg_path = tmp / "cfg.json"
    cfg_path.write_text(json.dumps(cfg))
    out = tmp / algorithm
    assert main(["solve", "--config", str(cfg_path), "--algorithm", algorithm, "--out", str(out)]) == EXIT_OK
    return hashlib.sha256((out / "trace.csv").read_bytes()).hexdigest()


def test_experiment_directory_digest(tmp_path):
    assert experiment_digest(tmp_path / "exp") == EXPERIMENT_DIGEST


def test_deterministic_experiment_directory_digest(tmp_path):
    assert experiment_digest(tmp_path / "exp", "--deterministic") == EXPERIMENT_DETERMINISTIC_DIGEST


@pytest.mark.parametrize("algorithm", ALGORITHMS)
def test_solve_trace_digest(tmp_path, algorithm):
    assert solve_trace_digest(tmp_path, algorithm) == SOLVE_TRACE_DIGESTS[algorithm]


if __name__ == "__main__":
    import tempfile

    with tempfile.TemporaryDirectory() as tmp:
        tmp = Path(tmp)
        print("EXPERIMENT_DIGEST =", repr(experiment_digest(tmp / "a")))
        print("EXPERIMENT_DETERMINISTIC_DIGEST =", repr(experiment_digest(tmp / "b", "--deterministic")))
        print("SOLVE_TRACE_DIGESTS = {")
        for algorithm in ALGORITHMS:
            print(f"    {algorithm!r}: {solve_trace_digest(tmp, algorithm)!r},")
        print("}")
