"""Byte-level regression guard: sha256 digests of whole output directories.

The digests were recorded once and must never move: any change to the
stepping, the projections, the recording or the CSV writers that alters a
single byte of the sweep directory, of a strided, early-stopped ``solve``
trace, of a d = 64 ``solve`` trace over a simplex, ball, box or halfspace, or
of the benchmark's ``implicit_path.csv`` (which also pins the reference point
its distances are measured to) fails here; so does any change to the
property battery's results on the benchmark problem (name, verdict and the
repr of its worst value, per check). Two set-up pins sit beside them: the
benchmark instance (its problem's config digest and the sweep's defaults) and
the points on which ``ProblemSpec`` spot-checks that f and S map Q into Q.
Run this file as a script to print the current digests and pins.

The two experiment digests were re-pinned once, on purpose, when meta.txt
took its ``config_digest`` from the command's config.json instead of a digest
of its own: that line is the only byte of either directory that moved.
"""

import hashlib
import json
import math
import os
import subprocess
import sys
from pathlib import Path

import numpy as np
import pytest

from viscosolve import ALGORITHMS, Ball, Box, ExperimentConfig, Halfspace, NonnegOrthant, Simplex, build_benchmark_problem
from viscosolve.cli import EXIT_OK, main
from viscosolve.diagnostics import run_property_checks
from viscosolve.operators import _spot_points
from viscosolve.solvers import config_digest

CONFIG = Path(__file__).resolve().parent.parent / "configs" / "benchmark.json"

EXPERIMENT_DIGEST = "7e33fdd590d7cacfb772b5fdc831a81b2026b189e1229b0fd49d85b57a33f685"
EXPERIMENT_DETERMINISTIC_DIGEST = "a17e879f0d466c94e60d5654970bbf96f5d2be22d3447170f47e51dcbe69f7df"
SOLVE_TRACE_DIGESTS = {
    "explicit_viscosity": "5f37866d403fcb1ae67ffe0802db92f72af59c0b450975cf523b26604d39758c",
    "perturbed": "e0321ac274ff2700a5ed79f8931d0f0712a616a8422028b0fb65443fa71bd8af",
    "takahashi_toyoda": "b55647bcd4d3d319803377cfe7d91763eb750866879ad8c8dd6fee4c6de6bbb8",
    "halpern": "a00cd1a26c1fd72913d1652dac759cecb4c53e40305209630acf7b36eec51dd9",
    "yao_outer": "a58c4d10de3984ea5dfeefd443b335c2f00fb32fb00a91aa3f45453c8876a3a5",
    "yao_inner": "a58c4d10de3984ea5dfeefd443b335c2f00fb32fb00a91aa3f45453c8876a3a5",
}
IMPLICIT_DIGEST = "8c14ef692b0f36afd42229c4d52b0802c77c4414499e5a23024deee2c081ab24"
PROPERTY_CHECKS_DIGEST = "5a8934baabb8768bf914d7e97af39bd75a2644428f52155956dda40731b8feda"
SPOT_POINTS_DIGEST = "d778bcc01dcdb1d6728b8d6a54db1842916041196741257fb829e82007350368"
BENCHMARK_INSTANCE = {
    "problem": "71a2b4cf7737b89c",
    "n_max": 6000,
    "seeds": list(range(1, 21)),
    "epsilons": [0.5, 0.1, 0.05, 0.01, 0.005, 0.001],
    "x1": [2.0, 3.0],
}

# d = 64 problems shaped like the benchmark's mixed workload: least-squares A,
# constant f (the anchor), identity S, strided records, no reference
MIX_KINDS = ("simplex", "ball", "box", "halfspace")
MIX_DIM = 64
MIX_NMAX = 300
MIX_STRIDE = 50
MIX_TRACE_DIGESTS = {
    "simplex/explicit_viscosity": "8619741bce07d02f9e16968cc9cceaa25b412b3f4494ad82022470e2897839c9",
    "simplex/perturbed": "23bec482ed2200d888cc2a9dc540950505d1b8ea7df4425060f648adfd044cb1",
    "simplex/takahashi_toyoda": "4d25b81e88cf9cae7a578e1aec5328d4bb568984e5bf52a1621a91ea2357e40b",
    "simplex/halpern": "8619741bce07d02f9e16968cc9cceaa25b412b3f4494ad82022470e2897839c9",
    "simplex/yao_outer": "7e4f6a18139c8cd22a80237a2030184da10378e5477059c06b28748bd63c9944",
    "simplex/yao_inner": "382216e3214967b9b49a030717d94dc246438aad205166951f571f14b61ce78e",
    "ball/explicit_viscosity": "81608e8ce8b8a5e1c9b0f1ee577a884798f577b67932396309057208ef6dddf4",
    "ball/perturbed": "48e4ac5181c90dddb09b3e1bba72ee3db98c3e385d42a425c6f5fcdd692fa0ef",
    "ball/takahashi_toyoda": "24ad7eba64940438d9fa90d64602cf28e5c8d9b45ed203bdb601bcc994e099ef",
    "ball/halpern": "81608e8ce8b8a5e1c9b0f1ee577a884798f577b67932396309057208ef6dddf4",
    "ball/yao_outer": "88f19e9e9a8f93509c3278f54133b9b036dd35cae57d9844fe5af9861dd394fe",
    "ball/yao_inner": "1d34c764d6c4297629e04206c9ab44ad52d49a25a35d147aa55c86eb555a985e",
    "box/explicit_viscosity": "30540c767ad66ad0b9af76eb89175de78b917dec07e01fa0d21c5effe51ff4a8",
    "box/perturbed": "eb45e73dd81a3a0092582afd74483fecd87f50fae842fc74838bde1775b07c4b",
    "box/takahashi_toyoda": "779f29d038430376bdf34b80e396f8fba965ced515e412f2e6fd14593955772e",
    "box/halpern": "30540c767ad66ad0b9af76eb89175de78b917dec07e01fa0d21c5effe51ff4a8",
    "box/yao_outer": "d51734f1ec21a46c69aa2be6d16316ed71335bd98a878670c986b1d40af57747",
    "box/yao_inner": "560a32a2b5b4a69b4b18536b40bb238fbc55153c2f04c3c9f63cffb1dfc6d06c",
    "halfspace/explicit_viscosity": "21848ee8511748f8117f65668c1835f0d3e62dd374f572516b907d815f2585f5",
    "halfspace/perturbed": "4220830741b09e99afbf9495863c8b0599dcbc8c5bbaae493d65225e7e63d248",
    "halfspace/takahashi_toyoda": "3e736bb664d61fa843a83c31e8ca7dc624b783ba9c5f86ffb1961413eec4be63",
    "halfspace/halpern": "21848ee8511748f8117f65668c1835f0d3e62dd374f572516b907d815f2585f5",
    "halfspace/yao_outer": "115e9b5267f67ba414812d431e472d70522f58c151a56a6a7c7c40f6b032cb55",
    "halfspace/yao_inner": "115e9b5267f67ba414812d431e472d70522f58c151a56a6a7c7c40f6b032cb55",
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


def implicit_digest(out: Path) -> str:
    assert main(["implicit", "--config", str(CONFIG), "--out", str(out)]) == EXIT_OK
    return hashlib.sha256((out / "implicit_path.csv").read_bytes()).hexdigest()


def property_checks_digest() -> str:
    results = run_property_checks(build_benchmark_problem())
    return hashlib.sha256("".join(f"{r.name},{r.passed},{r.worst!r}\n" for r in results).encode()).hexdigest()


def spot_sets(d: int):
    """An orthant, box, ball, halfspace and simplex in dimension ``d``, from + - * / alone."""
    j = np.arange(d, dtype=float)
    return (NonnegOrthant(d), Box(-1.0 - j / d, 0.5 + j / d), Ball(j % 3 - 1.0, 1.5), Halfspace(1.0 + j % 4, 0.5),
            Simplex(2.0, d))


def spot_points_digest() -> str:
    h = hashlib.sha256()
    for d in (2, 64):
        for Q in spot_sets(d):
            h.update(_spot_points(Q).tobytes())
    return h.hexdigest()


def benchmark_instance() -> dict:
    """The benchmark problem's config digest and the defaults of a one-theta sweep."""
    cfg = ExperimentConfig(thetas=(0.9,))
    return {"problem": config_digest(build_benchmark_problem()), "n_max": cfg.n_max, "seeds": list(cfg.seeds),
            "epsilons": list(cfg.epsilons), "x1": cfg.x1.tolist()}


def mix_set(kind: str, rng: np.random.Generator, d: int):
    """A set descriptor of ``kind`` plus two points of it (x1 and the anchor u)."""
    if kind == "simplex":
        total = float(rng.uniform(1.0, 3.0))
        pts = rng.dirichlet(np.ones(d), size=2) * total
        return {"kind": "simplex", "total": total, "dim": d}, pts
    if kind == "ball":
        center, radius = rng.normal(size=d), float(rng.uniform(1.0, 3.0))
        dirs = rng.normal(size=(2, d))
        dirs /= np.linalg.norm(dirs, axis=1, keepdims=True)
        return {"kind": "ball", "center": center.tolist(), "radius": radius}, center + 0.5 * radius * dirs
    if kind == "box":
        lo = rng.uniform(-2.0, 0.0, size=d)
        hi = lo + rng.uniform(0.5, 2.0, size=d)
        return {"kind": "box", "lo": lo.tolist(), "hi": hi.tolist()}, rng.uniform(lo, hi, size=(2, d))
    normal, offset = rng.normal(size=d), float(rng.uniform(-1.0, 1.0))
    pts = rng.normal(size=(2, d))
    pts -= (np.maximum(pts @ normal - offset + 0.1, 0.0) / float(normal @ normal))[:, None] * normal
    return {"kind": "halfspace", "normal": normal.tolist(), "offset": offset}, pts


def mix_trace_digest(tmp: Path, kind: str, algorithm: str) -> str:
    rng = np.random.default_rng([MIX_KINDS.index(kind), MIX_DIM])
    set_d, (x1, u) = mix_set(kind, rng, MIX_DIM)
    B = rng.normal(size=(MIX_DIM, MIX_DIM)) / math.sqrt(MIX_DIM)
    lam = 1.0 / float(np.linalg.eigvalsh(B.T @ B)[-1])
    cfg = {
        "problem": {
            "set": set_d,
            "S": {"kind": "identity"},
            "A": {"kind": "least_squares_gradient", "B": B.tolist(), "b": rng.normal(size=MIX_DIM).tolist()},
            "f": {"kind": "constant", "value": u.tolist()},
            "omega": None,
        },
        "schedule": {"alpha": {"power": float(rng.uniform(0.6, 1.0))}, "lambda": {"constant": lam},
                     "bounds": [lam, lam]},
        "perturbation": {"kind": "uniform_square_over_ksq", "seed": int(rng.integers(1, 100_000))},
        "solver": {"algorithm": algorithm, "x1": x1.tolist(), "anchor": u.tolist(), "nmax": MIX_NMAX,
                   "stride": MIX_STRIDE, "beta": 0.5, "reference": None},
    }
    cfg_path = tmp / f"{kind}.json"
    cfg_path.write_text(json.dumps(cfg))
    out = tmp / f"{kind}_{algorithm}"
    assert main(["solve", "--config", str(cfg_path), "--out", str(out)]) == EXIT_OK
    return hashlib.sha256((out / "trace.csv").read_bytes()).hexdigest()


def test_experiment_directory_digest(tmp_path):
    assert experiment_digest(tmp_path / "exp") == EXPERIMENT_DIGEST


def test_deterministic_experiment_directory_digest(tmp_path):
    assert experiment_digest(tmp_path / "exp", "--deterministic") == EXPERIMENT_DETERMINISTIC_DIGEST


@pytest.mark.parametrize("algorithm", ALGORITHMS)
def test_solve_trace_digest(tmp_path, algorithm):
    assert solve_trace_digest(tmp_path, algorithm) == SOLVE_TRACE_DIGESTS[algorithm]


def test_implicit_path_digest(tmp_path):
    assert implicit_digest(tmp_path / "implicit") == IMPLICIT_DIGEST


def test_property_checks_digest():
    assert property_checks_digest() == PROPERTY_CHECKS_DIGEST


def test_benchmark_instance():
    assert benchmark_instance() == BENCHMARK_INSTANCE


def test_spot_points_digest():
    assert spot_points_digest() == SPOT_POINTS_DIGEST


@pytest.mark.parametrize("hash_seed", ["1", "2"])
def test_spot_points_are_the_same_in_a_fresh_interpreter(hash_seed):
    # the spread is drawn from an integer seed, so neither str hashing nor the interpreter moves it
    here = Path(__file__).resolve().parent
    code = f"import sys; sys.path[:0] = [{str(here.parent / 'src')!r}, {str(here)!r}]\n" \
           "from test_golden_outputs import spot_points_digest; print(spot_points_digest())"
    env = {**os.environ, "PYTHONHASHSEED": hash_seed}
    out = subprocess.run([sys.executable, "-c", code], capture_output=True, text=True, check=True, env=env)
    assert out.stdout.strip() == spot_points_digest()


@pytest.mark.parametrize("algorithm", ALGORITHMS)
@pytest.mark.parametrize("kind", MIX_KINDS)
def test_d64_trace_digest(tmp_path, kind, algorithm):
    assert mix_trace_digest(tmp_path, kind, algorithm) == MIX_TRACE_DIGESTS[f"{kind}/{algorithm}"]


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
        print("IMPLICIT_DIGEST =", repr(implicit_digest(tmp / "implicit")))
        print("PROPERTY_CHECKS_DIGEST =", repr(property_checks_digest()))
        print("SPOT_POINTS_DIGEST =", repr(spot_points_digest()))
        print("BENCHMARK_INSTANCE =", repr(benchmark_instance()))
        print("MIX_TRACE_DIGESTS = {")
        for kind in MIX_KINDS:
            for algorithm in ALGORITHMS:
                print(f"    {kind + '/' + algorithm!r}: {mix_trace_digest(tmp, kind, algorithm)!r},")
        print("}")
