import errno
import json
import os
import subprocess
import sys
import warnings
from pathlib import Path

import pytest

from viscosolve.cli import EXIT_CONFIG, EXIT_DIVERGENCE, EXIT_IO, EXIT_OK, main


def run_cli(*argv):
    return main([str(a) for a in argv])


def test_experiment_command_writes_directory(tmp_path):
    out = tmp_path / "exp"
    code = run_cli("experiment", "--theta", "0.9", "--seed", "42", "--nmax", "300", "--out", out)
    assert code == EXIT_OK
    assert (out / "report.csv").exists()
    assert (out / "meta.txt").exists()
    assert (out / "table2.csv").exists()
    assert (out / "traces" / "theta_0.9_seed_42.csv").exists()
    assert (out / "config.json").exists()


def test_experiment_rerun_byte_identical(tmp_path):
    blobs = []
    for name in ("a", "b"):
        out = tmp_path / name
        assert run_cli("experiment", "--theta", "0.8", "--seed", "7", "--nmax", "200", "--out", out) == EXIT_OK
        blobs.append(
            tuple((out / rel).read_bytes() for rel in
                  ("report.csv", "meta.txt", "traces/theta_0.8_seed_7.csv", "config.json"))
        )
    assert blobs[0] == blobs[1]


def test_solve_command(tmp_path):
    out = tmp_path / "solve"
    code = run_cli("solve", "--theta", "0.9", "--seed", "1", "--nmax", "250", "--out", out)
    assert code == EXIT_OK
    lines = (out / "trace.csv").read_text().strip().split("\n")
    assert lines[0] == "k,x1,x2,alpha,lambda,e_norm,rel_err"
    assert len(lines) == 251
    meta = (out / "trace.meta.txt").read_text()
    assert "algorithm: perturbed" in meta


def test_solve_halpern_without_anchor_is_config_error(tmp_path):
    code = run_cli("solve", "--algorithm", "halpern", "--nmax", "50", "--out", tmp_path)
    assert code == EXIT_CONFIG


def test_solve_halpern_with_anchor_from_config(tmp_path):
    cfg = {"solver": {"algorithm": "halpern", "anchor": [1.0, 1.5], "nmax": 100}}
    cfg_path = tmp_path / "cfg.json"
    cfg_path.write_text(json.dumps(cfg))
    assert run_cli("solve", "--config", cfg_path, "--out", tmp_path / "out") == EXIT_OK


def test_invalid_json_is_config_error(tmp_path, capsys):
    bad = tmp_path / "bad.json"
    bad.write_text("{not json")
    code = run_cli("solve", "--config", bad, "--out", tmp_path)
    assert code == EXIT_CONFIG
    assert "config error" in capsys.readouterr().err


def test_unknown_field_is_config_error(tmp_path):
    cfg_path = tmp_path / "cfg.json"
    cfg_path.write_text(json.dumps({"solver": {"wat": 1}}))
    assert run_cli("solve", "--config", cfg_path, "--out", tmp_path) == EXIT_CONFIG


def test_missing_config_file_is_config_error(tmp_path):
    assert run_cli("solve", "--config", tmp_path / "nope.json", "--out", tmp_path) == EXIT_CONFIG


def test_repeated_theta_or_seed_is_config_error(tmp_path, capsys):
    out = tmp_path / "out"
    code = run_cli("experiment", "--nmax", "50", "--theta", "0.9", "--seeds", "1", "1", "--out", out)
    assert code == EXIT_CONFIG
    assert "seeds must be distinct" in capsys.readouterr().err
    cfg_path = tmp_path / "cfg.json"
    cfg_path.write_text(json.dumps({"experiment": {"thetas": [0.9, 0.9], "seeds": [1], "nmax": 50}}))
    assert run_cli("experiment", "--config", cfg_path, "--out", out) == EXIT_CONFIG
    assert "thetas must be distinct" in capsys.readouterr().err
    assert not out.exists()


def test_lambda_above_two_nu_warns_but_runs(tmp_path):
    cfg_path = tmp_path / "cfg.json"
    cfg_path.write_text(json.dumps({"schedule": {"lambda": {"constant": 0.25}}}))
    out = tmp_path / "out"
    with pytest.warns(Warning, match="2\\*nu"):
        code = run_cli("solve", "--config", cfg_path, "--nmax", "100", "--out", out)
    assert code == EXIT_OK
    assert "schedule_violations_2nu: 100" in (out / "trace.meta.txt").read_text()


def test_theta_override_replaces_config_value(tmp_path):
    cfg_path = tmp_path / "cfg.json"
    cfg_path.write_text(json.dumps({"experiment": {"thetas": [0.9], "seeds": [1], "nmax": 100}}))
    out = tmp_path / "out"
    assert run_cli("experiment", "--config", cfg_path, "--theta", "0.5", "--out", out) == EXIT_OK
    report = (out / "report.csv").read_text()
    assert "\n0.5,1," in report
    assert "0.9," not in report


def test_config_echo_round_trip(tmp_path):
    out1 = tmp_path / "one"
    assert run_cli("experiment", "--theta", "0.7", "--seed", "5", "--nmax", "150", "--out", out1) == EXIT_OK
    echoed = json.loads((out1 / "config.json").read_text())
    cfg_path = tmp_path / "echo.json"
    cfg_path.write_text(json.dumps(echoed["config"]))
    out2 = tmp_path / "two"
    assert run_cli("experiment", "--config", cfg_path, "--out", out2) == EXIT_OK
    assert (out1 / "report.csv").read_bytes() == (out2 / "report.csv").read_bytes()


def test_solve_without_target_set_leaves_rel_err_blank(tmp_path):
    cfg_path = tmp_path / "cfg.json"
    cfg_path.write_text(json.dumps({"problem": {"omega": None}}))
    out = tmp_path / "out"
    assert run_cli("solve", "--config", cfg_path, "--seed", "1", "--nmax", "60", "--out", out) == EXIT_OK
    lines = (out / "trace.csv").read_text().strip().split("\n")
    assert lines[1].endswith(",")  # rel_err column empty without a reference


def test_custom_mapping_via_config(tmp_path, capsys):
    # no mapping is looked up by name: a user map goes straight to ProblemSpec in Python
    cfg_path = tmp_path / "cfg.json"
    cfg_path.write_text(json.dumps({"problem": {"f": {"kind": "custom", "name": "cli_half_push"}}}))
    out = tmp_path / "out"
    assert run_cli("solve", "--config", cfg_path, "--seed", "1", "--nmax", "60", "--out", out) == EXIT_CONFIG
    assert "config error: problem.f.kind: unknown mapping kind 'custom'" in capsys.readouterr().err
    assert not out.exists()


def test_config_file_not_mutated(tmp_path):
    cfg_path = tmp_path / "cfg.json"
    cfg_path.write_text(json.dumps({"experiment": {"thetas": [0.9], "seeds": [1], "nmax": 80}}))
    before = cfg_path.read_bytes()
    assert run_cli("experiment", "--config", cfg_path, "--out", tmp_path / "out") == EXIT_OK
    assert cfg_path.read_bytes() == before


def test_tables_command_writes_only_tables(tmp_path):
    out = tmp_path / "tbl"
    code = run_cli("tables", "--theta", "0.9", "--seeds", "1", "2", "--nmax", "200", "--out", out)
    assert code == EXIT_OK
    assert (out / "table2.csv").exists()
    assert (out / "table3.csv").exists()
    assert not (out / "report.csv").exists()
    assert not (out / "traces").exists()


def test_deterministic_flag(tmp_path):
    outs = []
    for name in ("a", "b"):
        out = tmp_path / name
        assert run_cli("experiment", "--theta", "0.9", "--deterministic", "--nmax", "120", "--out", out) == EXIT_OK
        outs.append((out / "report.csv").read_bytes())
    assert outs[0] == outs[1]


def test_implicit_command(tmp_path):
    cfg_path = tmp_path / "cfg.json"
    cfg_path.write_text(json.dumps({"implicit": {"t_values": [1.0, 0.5], "inner_tol": 1e-8}}))
    out = tmp_path / "out"
    assert run_cli("implicit", "--config", cfg_path, "--out", out) == EXIT_OK
    lines = (out / "implicit_path.csv").read_text().strip().split("\n")
    assert lines[0] == "t,x1,x2,residual,iterations,dist_to_reference,dist_bound"
    assert len(lines) == 3


@pytest.mark.parametrize("lam", [float("nan"), float("inf"), -1.0])
def test_implicit_with_a_non_finite_or_negative_lambda_is_config_error(tmp_path, capsys, lam):
    cfg_path = tmp_path / "cfg.json"
    cfg_path.write_text(json.dumps({"implicit": {"t_values": [1.0, 0.5], "lambda": lam}}))
    out = tmp_path / "out"
    assert run_cli("implicit", "--config", cfg_path, "--out", out) == EXIT_CONFIG
    assert f"lambda_of_t must be finite and >= 0, got {lam}" in capsys.readouterr().err
    assert not out.exists()


@pytest.mark.parametrize("lam, code", [(0.2, EXIT_OK), (0.25, EXIT_CONFIG), (0.5, EXIT_CONFIG)])
def test_implicit_with_a_lambda_above_2nu_is_config_error(tmp_path, capsys, lam, code):
    # 2 nu = 0.2 on the benchmark: above it neither the contraction factor nor dist_bound holds
    cfg_path = tmp_path / "cfg.json"
    cfg_path.write_text(json.dumps({"implicit": {"t_values": [1.0, 1e-5], "lambda": lam}}))
    out = tmp_path / "out"
    assert run_cli("implicit", "--config", cfg_path, "--out", out) == code
    if code == EXIT_CONFIG:
        assert f"config error: implicit lambda = {lam} exceeds 2*nu = 0.2" in capsys.readouterr().err
        assert not out.exists()
    else:
        assert len((out / "implicit_path.csv").read_text().strip().split("\n")) == 3


@pytest.mark.parametrize("x1, message", [
    ([1, 2, 3], "solver: x1 has dimension 3, expected 2"),
    ("ab", "solver: could not convert string to float: 'ab'"),
    ([-1, 2], "solver: x1 = array([-1.,  2.]) is not in Q (tolerance 1e-10)"),
], ids=["wrong_dimension", "not_numeric", "outside_Q"])
def test_implicit_with_a_bad_start_point_is_config_error(tmp_path, capsys, x1, message):
    # the first two ended in a traceback, the third ran from outside Q
    cfg_path = tmp_path / "cfg.json"
    cfg_path.write_text(json.dumps({"solver": {"x1": x1}}))
    out = tmp_path / "implicit"
    assert run_cli("implicit", "--config", cfg_path, "--out", out) == EXIT_CONFIG
    assert f"config error: {message}" in capsys.readouterr().err
    assert not out.exists()
    for command in ("solve", "experiment"):  # as the other commands that read x1 do
        assert run_cli(command, "--config", cfg_path, "--nmax", "50", "--out", tmp_path / command) == EXIT_CONFIG


@pytest.mark.parametrize("epsilons, message", [
    ([0.1, 0.1], "epsilons must be distinct, got (0.1, 0.1)"),
    ([0.1, -1], "epsilons must be finite and > 0, got (0.1, -1.0)"),
    ([0.1, 0.0], "epsilons must be finite and > 0, got (0.1, 0.0)"),
    ([0.1, float("nan")], "epsilons must be finite and > 0, got (0.1, nan)"),
    ([float("inf")], "epsilons must be finite and > 0, got (inf,)"),
], ids=["repeated", "negative", "zero", "nan", "inf"])
def test_bad_epsilons_are_config_error(tmp_path, capsys, epsilons, message):
    # a repeat wrote two hit columns and two equal table rows; -1 and NaN gave a silent all-ND row
    cfg_path = tmp_path / "cfg.json"
    cfg_path.write_text(json.dumps({"experiment": {"epsilons": epsilons, "nmax": 50}}))
    out = tmp_path / "out"
    assert run_cli("experiment", "--config", cfg_path, "--out", out) == EXIT_CONFIG
    assert f"config error: experiment: {message}" in capsys.readouterr().err
    assert not out.exists()


def test_check_command_benchmark_passes(capsys):
    assert run_cli("check", "--nmax", "1000") == EXIT_OK
    out = capsys.readouterr().out
    for key in ("(i)", "(ii)", "(iii)", "(iv)", "(v)"):
        assert f"hypothesis {key}: analytically-satisfied" in out
    assert "FAIL" not in out


def test_check_command_flags_violating_schedule(tmp_path, capsys):
    cfg_path = tmp_path / "cfg.json"
    cfg_path.write_text(json.dumps({"schedule": {"alpha": {"power": 1.5}}}))
    assert run_cli("check", "--config", cfg_path, "--nmax", "500") == 1
    assert "violated" in capsys.readouterr().out


def test_stride_flag(tmp_path):
    out = tmp_path / "out"
    assert run_cli("solve", "--nmax", "100", "--stride", "10", "--seed", "1", "--out", out) == EXIT_OK
    lines = (out / "trace.csv").read_text().strip().split("\n")
    assert len(lines) == 12  # header + 11 recorded rows


def test_rel_err_target_via_config(tmp_path):
    cfg_path = tmp_path / "cfg.json"
    cfg_path.write_text(json.dumps({"solver": {"rel_err_target": 0.05, "nmax": 6000}}))
    out = tmp_path / "out"
    assert run_cli("solve", "--config", cfg_path, "--seed", "1", "--out", out) == EXIT_OK
    lines = (out / "trace.csv").read_text().strip().split("\n")
    assert len(lines) < 200  # stops well before the budget
    assert float(lines[-1].rsplit(",", 1)[1]) <= 0.05


@pytest.mark.parametrize("target, message", [
    ([0.1], "solver: float() argument"), ({"a": 1}, "solver: float() argument"),
    (-1, "rel_err_target must be finite and >= 0, got -1.0"), (float("nan"), "rel_err_target must be finite and >= 0, got nan"),
])
def test_malformed_rel_err_target_is_config_error(tmp_path, capsys, target, message):
    cfg_path = tmp_path / "cfg.json"
    cfg_path.write_text(json.dumps({"solver": {"rel_err_target": target}}))
    assert run_cli("solve", "--config", cfg_path, "--nmax", "50", "--out", tmp_path / "out") == EXIT_CONFIG
    err = capsys.readouterr().err
    assert err.startswith("config error: solver: ") and message in err  # each names the solver section


@pytest.mark.parametrize("command", ["solve", "check"])
@pytest.mark.parametrize("section, body", [
    ("schedule", {"bounds": [0.1]}), ("schedule", {"alpha": {"power": "x"}}), ("schedule", {"alpha": 3}),
    ("schedule", {"lambda": {"table": [[0.1], [0.2, 0.3]]}}), ("perturbation", {"seed": "x"}),
    ("perturbation", {"seed": [1]}),
])
def test_malformed_schedule_or_perturbation_is_config_error(tmp_path, capsys, command, section, body):
    cfg_path = tmp_path / "cfg.json"
    cfg_path.write_text(json.dumps({section: body}))
    assert run_cli(command, "--config", cfg_path, "--nmax", "5", "--out", tmp_path / "out") == EXIT_CONFIG
    assert f"config error: {section}: " in capsys.readouterr().err


@pytest.mark.parametrize("command, section", [("solve", "solver"), ("check", "experiment")])
@pytest.mark.parametrize("table, schedule", [
    ("alpha", {"alpha": {"table": [0.5, 0.4]}}),
    ("lambda", {"lambda": {"table": [0.1, 0.1]}, "bounds": [0.1, 0.1]}),
])
def test_a_table_shorter_than_nmax_is_config_error(tmp_path, capsys, command, section, table, schedule):
    cfg_path = tmp_path / "cfg.json"
    cfg_path.write_text(json.dumps({"schedule": schedule}))
    out = tmp_path / "out"
    assert run_cli(command, "--config", cfg_path, "--nmax", "50", "--out", out) == EXIT_CONFIG
    assert capsys.readouterr().err == f"config error: {section}: {table} table exhausted at k=3 (length 2)\n"
    assert not out.exists()


@pytest.mark.parametrize("command", ["solve", "check", "experiment"])
@pytest.mark.parametrize("seed, shown", [(-1, "-1"), (1.5, "1.5")])
def test_negative_or_non_integral_perturbation_seed_is_config_error(tmp_path, capsys, command, seed, shown):
    # refused when the config is parsed, before any step: PCG64 takes no negative seed,
    # and int() would run 1.5 as seed 1 while config.json echoed 1.5
    cfg_path = tmp_path / "cfg.json"
    section = {"experiment": {"seeds": [seed]}} if command == "experiment" else {"perturbation": {"seed": seed}}
    cfg_path.write_text(json.dumps(section))
    out = tmp_path / "out"
    assert run_cli(command, "--config", cfg_path, "--nmax", "5", "--out", out) == EXIT_CONFIG
    field = "experiment: seeds entry" if command == "experiment" else "perturbation: seed"
    assert f"config error: {field} must be an integer >= 0, got {shown}" in capsys.readouterr().err
    assert not out.exists()


@pytest.mark.parametrize("command", ["solve", "check", "experiment"])
def test_negative_seed_flag_is_config_error(tmp_path, capsys, command):
    flag = "--seeds" if command == "experiment" else "--seed"
    out = tmp_path / "out"
    assert run_cli(command, flag, "-1", "--nmax", "5", "--out", out) == EXIT_CONFIG
    assert "must be an integer >= 0, got -1" in capsys.readouterr().err
    assert not out.exists()


@pytest.mark.parametrize("command", ["solve", "check"])
@pytest.mark.parametrize("bounds", [[0.1], [0.1, 0.1, 0.5], []])
def test_bounds_other_than_a_pair_is_config_error(tmp_path, capsys, command, bounds):
    cfg_path = tmp_path / "cfg.json"
    cfg_path.write_text(json.dumps({"schedule": {"bounds": bounds}}))
    assert run_cli(command, "--config", cfg_path, "--nmax", "5", "--out", tmp_path / "out") == EXIT_CONFIG
    assert "config error: schedule: bounds must be a pair (a, b)" in capsys.readouterr().err


# a simplex Q whose step overflows to inf before the simplex projection, which refuses it
SIMPLEX_OVERFLOW = {
    "problem": {"set": {"kind": "simplex", "total": 1.0, "dim": 2}, "f": {"kind": "constant", "value": [0.5, 0.5]}},
    "schedule": {"lambda": {"constant": 1e308}},
    "solver": {"x1": [0.5, 0.5]},
}
# a start in the orthant whose coordinate sum overflows in the trigonometric contraction
X1_OVERFLOW = {"solver": {"x1": [1e308, 1e308]}}


def test_divergence_exit_code(tmp_path, capsys):
    cfg = {
        "problem": {
            "set": {"kind": "hyperplane", "normal": [1.0, 1.0], "offset": 0.0},
            "S": {"kind": "identity"},
            "A": {"kind": "least_squares_gradient", "B": [[1.0, 0.0], [0.0, 1.0]], "b": [0.0, 0.0]},
            "f": {"kind": "constant", "value": [1.0, -1.0]},
            "omega": {"kind": "ball", "center": [1.0, -1.0], "radius": 1e-9},
        },
        "schedule": {"alpha": {"table": [0.5] * 500}, "lambda": {"constant": 50.0}},
        "perturbation": {"kind": "none"},
        "solver": {"algorithm": "explicit_viscosity", "x1": [2.0, -2.0], "nmax": 500},
    }
    cfg_path = tmp_path / "cfg.json"
    cfg_path.write_text(json.dumps(cfg))
    with pytest.warns(Warning):
        code = run_cli("solve", "--config", cfg_path, "--out", tmp_path / "out")
    assert code == EXIT_DIVERGENCE
    assert "numerical failure" in capsys.readouterr().err
    # a value a kernel refuses (NonFiniteError) ends the run the same way; both used to end in a traceback, exit 1
    for name, cfg, warns in (("simplex", SIMPLEX_OVERFLOW, True), ("x1", X1_OVERFLOW, False)):
        cfg_path = tmp_path / f"{name}.json"
        cfg_path.write_text(json.dumps(cfg))
        with pytest.warns(Warning) if warns else warnings.catch_warnings():  # lambda = 1e308 is above 2 nu
            code = run_cli("solve", "--config", cfg_path, "--nmax", "50", "--out", tmp_path / name)
        assert code == EXIT_DIVERGENCE, name
        assert "numerical failure: non-finite iterate at step 1 (algorithm 'perturbed')" in capsys.readouterr().err
        assert not (tmp_path / name).exists()


@pytest.mark.parametrize("name, cfg", [("simplex", SIMPLEX_OVERFLOW), ("x1", X1_OVERFLOW)])
def test_experiment_records_a_refused_cell_without_rerunning_it(tmp_path, capsys, monkeypatch, name, cfg):
    from viscosolve import experiment, solvers

    calls = []

    def batch(*args, **kwargs):
        calls.append(len(args[0]))
        return solvers.run_batch(*args, **kwargs)

    def no_rerun(*args, **kwargs):
        raise AssertionError("a cell was rerun on its own")

    monkeypatch.setattr(experiment, "run_batch", batch)
    monkeypatch.setattr(experiment, "run", no_rerun)
    monkeypatch.setattr(solvers, "run", no_rerun)
    cfg_path = tmp_path / "cfg.json"
    cfg_path.write_text(json.dumps({**cfg, "experiment": {"thetas": [0.5, 0.9], "seeds": [1, 2]}}))
    out = tmp_path / "out"
    with warnings.catch_warnings():
        warnings.simplefilter("ignore", UserWarning)  # lambda = 1e308 is above 2 nu
        assert run_cli("experiment", "--config", cfg_path, "--nmax", "50", "--out", out) == EXIT_DIVERGENCE
    assert "experiment: every cell failed (4 cells)" in capsys.readouterr().err
    assert calls == [4]
    rows = (out / "report.csv").read_text().splitlines()[1:]
    assert [row.split(",")[-1] for row in rows] == ["non-finite iterate at step 1 (algorithm 'perturbed')"] * 4


@pytest.mark.parametrize("command", ["experiment", "tables"])
def test_a_sweep_in_which_every_cell_failed_exits_3(tmp_path, capsys, command):
    # it used to exit 0, so a sweep with no result read as a success to a caller checking the code
    cfg_path = tmp_path / "cfg.json"
    cfg_path.write_text(json.dumps({**X1_OVERFLOW, "experiment": {"thetas": [0.5, 0.9], "seeds": [1, 2]}}))
    out = tmp_path / "out"
    assert run_cli(command, "--config", cfg_path, "--nmax", "50", "--out", out) == EXIT_DIVERGENCE
    assert f"{command}: every cell failed (4 cells)" in capsys.readouterr().err
    assert (out / "config.json").exists()
    if command == "experiment":  # the files still say what failed
        rows = (out / "report.csv").read_text().splitlines()[1:]
        assert [row.split(",")[-1] for row in rows] == ["non-finite iterate at step 1 (algorithm 'perturbed')"] * 4
        assert "thetas: [0.5, 0.9]" in (out / "meta.txt").read_text()
        assert not (out / "traces").exists()


def test_a_sweep_with_one_good_cell_exits_0(tmp_path, capsys, monkeypatch):
    from viscosolve import experiment, solvers

    def all_but_the_last_fail(cfgs, extras):
        outcomes = solvers.run_batch(cfgs, extras)
        failure = solvers.DivergenceError("non-finite iterate at step 7 (algorithm 'perturbed')", cfgs[0].x1, 7)
        return [failure] * (len(outcomes) - 1) + outcomes[-1:]

    monkeypatch.setattr(experiment, "run_batch", all_but_the_last_fail)
    out = tmp_path / "out"
    args = ("--seeds", "1", "2", "--theta", "0.9", "--nmax", "50", "--out", out)
    assert run_cli("experiment", *args) == EXIT_OK
    assert "every cell failed" not in capsys.readouterr().err
    rows = [row.split(",") for row in (out / "report.csv").read_text().splitlines()[1:]]
    assert [row[-1] for row in rows] == ["non-finite iterate at step 7 (algorithm 'perturbed')", ""]
    assert [p.name for p in (out / "traces").iterdir()] == ["theta_0.9_seed_2.csv"]


def test_numpy_warnings_stay_inside_the_engine(tmp_path, capsys):
    # numpy's overflow warnings used to escape _lockstep before the typed failure;
    # under an error filter they would end the run as an exception, not a DivergenceError
    from viscosolve import ExperimentConfig, run_experiment

    with warnings.catch_warnings():
        warnings.simplefilter("error", RuntimeWarning)
        report = run_experiment(ExperimentConfig(thetas=(0.5, 0.9), seeds=(1, 2), n_max=50, x1=[1e308, 1e308]))
        assert [c.error for c in report.cells] == ["non-finite iterate at step 1 (algorithm 'perturbed')"] * 4
        cfg_path = tmp_path / "simplex.json"
        cfg_path.write_text(json.dumps(SIMPLEX_OVERFLOW))
        warnings.simplefilter("ignore", UserWarning)  # lambda = 1e308 is above 2 nu
        assert run_cli("solve", "--config", cfg_path, "--nmax", "50", "--out", tmp_path / "simplex") == EXIT_DIVERGENCE
    assert "numerical failure: non-finite iterate at step 1 (algorithm 'perturbed')" in capsys.readouterr().err


@pytest.mark.parametrize("command, cfg, message", [
    ("implicit", {"implicit": {"inner_tol": float("inf")}}, "implicit: inner_tol must be finite and > 0, got inf"),
    ("experiment", {"solver": {"x1": [-1.0, 3.0]}}, "experiment: x1 = array([-1.,  3.]) is not in Q (tolerance 1e-10)"),
    ("solve", {"solver": {"algorithm": "nope"}}, "solver: unknown algorithm 'nope'"),
    ("solve", {"schedule": {"alpha": {}}}, "schedule.alpha: need 'power' or 'table'"),
    ("solve", {"perturbation": {"kind": "uniform_square_over_ksq", "seed": None}}, "perturbation: seed must be"),
], ids=["implicit", "experiment", "solver", "schedule_in_solve", "perturbation_in_solve"])
def test_a_configuration_error_names_its_section(tmp_path, capsys, command, cfg, message):
    # the first three used to read "config error: <message>" with no section
    cfg_path = tmp_path / "cfg.json"
    cfg_path.write_text(json.dumps(cfg))
    assert run_cli(command, "--config", cfg_path, "--nmax", "50", "--out", tmp_path / "out") == EXIT_CONFIG
    assert f"config error: {message}" in capsys.readouterr().err


def test_implicit_non_finite_evaluation_exit_code(tmp_path, capsys):
    # the first evaluation of T_t takes cos of an infinite coordinate sum: exit 3, not a traceback with exit 1
    cfg_path = tmp_path / "cfg.json"
    cfg_path.write_text(json.dumps(X1_OVERFLOW))
    out = tmp_path / "out"
    assert run_cli("implicit", "--config", cfg_path, "--out", out) == EXIT_DIVERGENCE
    assert "numerical failure: coordinate sum inf is not finite" in capsys.readouterr().err
    assert not out.exists()


@pytest.mark.parametrize("tol", ["1e999", "-1e999"])
def test_implicit_with_an_infinite_inner_tol_is_config_error(tmp_path, capsys, tol):
    # inf used to stop every solve after one evaluation (residual 0.141 at t = 1)
    cfg_path = tmp_path / "cfg.json"
    cfg_path.write_text('{"implicit": {"inner_tol": %s}}' % tol)
    out = tmp_path / "out"
    assert run_cli("implicit", "--config", cfg_path, "--out", out) == EXIT_CONFIG
    assert "config error: implicit: inner_tol must be finite and > 0" in capsys.readouterr().err
    assert not out.exists()


def test_experiment_with_x1_outside_Q_stops_before_the_reference_solve(tmp_path, capsys, monkeypatch):
    from viscosolve import solvers

    def no_solve(*args, **kwargs):
        raise AssertionError("reference solve before the config check")

    monkeypatch.setattr(solvers, "reference_solution", no_solve)
    cfg_path = tmp_path / "cfg.json"
    cfg_path.write_text(json.dumps({"solver": {"x1": [-1.0, 3.0]}}))
    out = tmp_path / "out"
    assert run_cli("experiment", "--config", cfg_path, "--out", out) == EXIT_CONFIG
    assert "is not in Q" in capsys.readouterr().err
    assert not out.exists()


def test_io_failure_exit_code(tmp_path):
    blocker = tmp_path / "blocked"
    blocker.write_text("a file where the output directory should go")
    assert run_cli("solve", "--nmax", "20", "--seed", "1", "--out", blocker) == EXIT_IO


@pytest.mark.parametrize("shares", [1, 2])
def test_io_failure_of_a_trace_exit_code(tmp_path, capsys, cpus, shares):
    # in two shares a forked child writes the second trace: its OSError reaches main with its filename
    cpus(shares)
    blocker = tmp_path / "out" / "traces" / "theta_0.9_seed_2.csv"
    blocker.mkdir(parents=True)  # a directory where the trace file should go
    code = run_cli("experiment", "--theta", "0.9", "--seeds", "1", "2", "--nmax", "50", "--out", tmp_path / "out")
    assert code == EXIT_IO
    assert capsys.readouterr().err == f"i/o error: [Errno {errno.EISDIR}] {os.strerror(errno.EISDIR)}: {str(blocker)!r}\n"


def test_experiment_pinned_to_one_cpu_writes_the_directory_two_cpus_write(tmp_path):
    # the default sweep's 160 traces in one share and in two: only each command's process is pinned
    allowed = sorted(os.sched_getaffinity(0))
    if len(allowed) < 2:
        pytest.skip("needs two CPUs in this process's affinity")
    env = {**os.environ, "PYTHONPATH": str(Path(__file__).resolve().parent.parent / "src")}

    def experiment(out, pinned):
        subprocess.run([sys.executable, "-c", "from viscosolve.cli import cli_main; cli_main()",
                        "experiment", "--nmax", "300", "--out", str(out)],
                       env=env, preexec_fn=lambda: os.sched_setaffinity(0, pinned), capture_output=True, check=True,
                       timeout=300)
        return {p.relative_to(out).as_posix(): p.read_bytes() for p in out.rglob("*") if p.is_file()}

    one, two = experiment(tmp_path / "one", allowed[:1]), experiment(tmp_path / "two", allowed[:2])
    assert len(one) == 9 + 160 and one == two


@pytest.mark.parametrize("command, module, name, exc, message", [
    ("solve", "cli", "run", MemoryError("Unable to allocate 7.28 TiB"), "config error: out of memory: Unable to allocate 7.28 TiB\n"),
    ("experiment", "experiment", "run_batch", MemoryError(), "config error: out of memory\n"),
])
def test_running_out_of_memory_is_config_error(tmp_path, capsys, monkeypatch, command, module, name, exc, message):
    # a huge --nmax used to end in an uncaught numpy _ArrayMemoryError, exit 1: the code of a failed check
    import importlib

    def out_of_memory(*args, **kwargs):
        raise exc

    monkeypatch.setattr(importlib.import_module(f"viscosolve.{module}"), name, out_of_memory)
    assert run_cli(command, "--nmax", "50", "--seed", "1", "--out", tmp_path / "out") == EXIT_CONFIG
    assert capsys.readouterr().err == message


@pytest.mark.parametrize("command, flag", [("solve", ("--algorithm", "halpern")), ("solve", ("--nmax", "5")),
                                           ("check", ("--nmax", "5"))])
def test_non_object_section_with_flag_is_config_error(tmp_path, capsys, command, flag):
    cfg_path = tmp_path / "cfg.json"
    cfg_path.write_text(json.dumps({"solver": 3}))
    assert run_cli(command, "--config", cfg_path, *flag, "--out", tmp_path / "out") == EXIT_CONFIG
    assert "config error: solver: must be an object" in capsys.readouterr().err


@pytest.mark.parametrize("command", ["solve", "check"])
def test_non_object_top_level_is_config_error(tmp_path, capsys, command):
    cfg_path = tmp_path / "cfg.json"
    cfg_path.write_text(json.dumps(["solver"]))
    assert run_cli(command, "--config", cfg_path, "--nmax", "5", "--out", tmp_path / "out") == EXIT_CONFIG
    assert "top level: must be an object" in capsys.readouterr().err


def test_null_section_with_flag_uses_the_defaults(tmp_path):
    cfg_path = tmp_path / "cfg.json"
    cfg_path.write_text(json.dumps({"solver": None}))
    with_null, without = tmp_path / "null", tmp_path / "none"
    assert run_cli("solve", "--config", cfg_path, "--nmax", "5", "--out", with_null) == EXIT_OK
    assert run_cli("solve", "--nmax", "5", "--out", without) == EXIT_OK
    for name in ("trace.csv", "config.json"):
        assert (with_null / name).read_bytes() == (without / name).read_bytes()


# -------------------------------------------------------------- one config digest per command


def _digest_lines(out):
    """{relative path: config_digest value} for every ``config_digest: <value>`` line under ``out``."""
    found = {}
    for path in sorted(p for p in out.rglob("*") if p.is_file() and p.name != "config.json"):
        for line in path.read_text().splitlines():
            if line.startswith("config_digest: "):
                found[path.relative_to(out).as_posix()] = line.split(": ", 1)[1]
    return found


@pytest.mark.parametrize("command, argv, carriers", [
    ("solve", ("--nmax", "40", "--seed", "3"), {"trace.meta.txt"}),
    ("solve", ("--nmax", "40", "--algorithm", "takahashi_toyoda", "--stride", "3"), {"trace.meta.txt"}),
    ("experiment", ("--nmax", "60", "--seeds", "1", "2", "--theta", "0.8"), {"meta.txt"}),
    ("experiment", ("--nmax", "60", "--deterministic"), {"meta.txt"}),
    ("tables", ("--nmax", "60", "--seeds", "1"), set()),
    ("implicit", (), set()),
])
def test_every_file_carries_the_config_json_digest(tmp_path, command, argv, carriers):
    cfg_path = tmp_path / "cfg.json"
    cfg_path.write_text(json.dumps({"implicit": {"t_values": [1.0, 0.5]}}))
    out = tmp_path / "out"
    assert run_cli(command, "--config", cfg_path, *argv, "--out", out) == EXIT_OK
    digest = json.loads((out / "config.json").read_text())["config_digest"]
    found = _digest_lines(out)
    assert set(found) == carriers
    assert set(found.values()) <= {digest}


def test_default_solve_writes_one_digest(tmp_path):
    out = tmp_path / "out"
    assert run_cli("solve", "--out", out) == EXIT_OK
    assert json.loads((out / "config.json").read_text())["config_digest"] == "93f301372dee9e20"
    assert _digest_lines(out) == {"trace.meta.txt": "93f301372dee9e20"}


@pytest.mark.parametrize("command", ["experiment", "tables", "solve", "check"])
@pytest.mark.parametrize("theta", ["0", "-1", "nan"])
def test_non_positive_or_nan_theta_is_config_error(tmp_path, capsys, command, theta):
    out = tmp_path / "out"
    seed_flag = "--seeds" if command in ("experiment", "tables") else "--seed"
    assert run_cli(command, "--theta", theta, "--nmax", "50", seed_flag, "1", "--out", out) == EXIT_CONFIG
    assert f"power exponent must be > 0, got {float(theta)!r}" in capsys.readouterr().err
    assert not out.exists()


@pytest.mark.parametrize("section", [{"experiment": {"nmax": 1}}, {"experiment": {"nmax": 2.5}}])
def test_check_with_fewer_than_two_steps_is_config_error(tmp_path, capsys, section):
    # exit 1 means the check found violations; a horizon it cannot grade is a config error
    cfg_path = tmp_path / "cfg.json"
    cfg_path.write_text(json.dumps(section))
    assert run_cli("check", "--config", cfg_path) == EXIT_CONFIG
    shown = section["experiment"]["nmax"]
    assert f"config error: experiment: nmax must be an integer >= 2, got {shown}" in capsys.readouterr().err
    assert run_cli("check", "--nmax", "1") == EXIT_CONFIG


def test_empty_seed_list_is_config_error(tmp_path, capsys):
    cfg_path = tmp_path / "cfg.json"
    cfg_path.write_text(json.dumps({"experiment": {"seeds": [], "nmax": 50}}))
    out = tmp_path / "out"
    assert run_cli("experiment", "--config", cfg_path, "--out", out) == EXIT_CONFIG
    assert "config error: experiment: seeds must be nonempty" in capsys.readouterr().err
    assert not out.exists()


@pytest.mark.parametrize("command, body, message", [
    ("solve", {"solver": {"nmax": 10.9}}, "solver: nmax must be an integer >= 1, got 10.9"),
    ("solve", {"solver": {"nmax": "10"}}, "solver: nmax must be an integer >= 1, got '10'"),
    ("solve", {"solver": {"stride": 2.5}}, "solver: stride must be an integer >= 1, got 2.5"),
    ("experiment", {"experiment": {"nmax": 50.7}}, "experiment: nmax must be an integer >= 1, got 50.7"),
    ("implicit", {"implicit": {"inner_max_iter": 0}}, "implicit: inner_max_iter must be an integer >= 1, got 0"),
    ("implicit", {"implicit": {"inner_max_iter": 99.5}}, "implicit: inner_max_iter must be an integer >= 1, got 99.5"),
    ("solve", {"problem": {"set": {"kind": "orthant", "dim": 2.5}}}, "problem.set: dim must be an integer >= 1, got 2.5"),
    ("solve", {"problem": {"omega": {"kind": "simplex", "total": 2.6, "dim": 1.5}}},
     "problem.omega: dim must be an integer >= 1, got 1.5"),
])
def test_non_integral_count_is_config_error(tmp_path, capsys, command, body, message):
    # int() would run 10.9 as 10 steps while config.json echoed 10.9
    cfg_path = tmp_path / "cfg.json"
    cfg_path.write_text(json.dumps(body))
    out = tmp_path / "out"
    assert run_cli(command, "--config", cfg_path, "--out", out) == EXIT_CONFIG
    assert f"config error: {message}" in capsys.readouterr().err
    assert not out.exists()


def test_integral_floats_still_count(tmp_path):
    # 40.0 is the integer 40: the same run and trace as 40
    traces = []
    for name, nmax in (("int", 40), ("float", 40.0)):
        cfg_path = tmp_path / f"{name}.json"
        body = {"solver": {"nmax": nmax, "stride": 1.0}, "problem": {"set": {"kind": "orthant", "dim": 2.0}}}
        cfg_path.write_text(json.dumps(body))
        assert run_cli("solve", "--config", cfg_path, "--out", tmp_path / name) == EXIT_OK
        traces.append((tmp_path / name / "trace.csv").read_bytes())
    assert traces[0] == traces[1]


BENCHMARK_JSON = Path(__file__).resolve().parents[1] / "configs" / "benchmark.json"


@pytest.fixture
def reference_solves(monkeypatch):
    """The calls of ``solvers.reference_solution``, the one solve for q* that every command goes through."""
    from viscosolve import solvers

    calls, solve = [], solvers.reference_solution

    def counting(*args, **kwargs):
        calls.append(args)
        return solve(*args, **kwargs)

    monkeypatch.setattr(solvers, "reference_solution", counting)
    return calls


@pytest.mark.parametrize("command", ["solve", "implicit", "experiment", "check"])
def test_each_command_solves_for_q_star_once(tmp_path, reference_solves, command):
    assert run_cli(command, "--config", BENCHMARK_JSON, "--nmax", "50", "--out", tmp_path / "out") == EXIT_OK
    assert len(reference_solves) == 1


@pytest.mark.parametrize("command, body", [
    ("solve", {"solver": {"x1": [-1.0, 3.0]}}),
    ("solve", {"solver": {"algorithm": "nope"}}),
    ("solve", {"solver": {"rel_err_target": float("nan")}}),
    ("implicit", {"solver": {"x1": [-1.0, 3.0]}}),
    ("experiment", {"solver": {"x1": [-1.0, 3.0]}}),
], ids=["solve_x1", "solve_algorithm", "solve_nan_target", "implicit_x1", "experiment_x1"])
def test_a_refused_config_makes_no_reference_solve(tmp_path, capsys, reference_solves, command, body):
    # configio solved for q* before the solver section was checked, and implicit before it checked x1
    cfg_path = tmp_path / "cfg.json"
    cfg_path.write_text(json.dumps(body))
    assert run_cli(command, "--config", cfg_path, "--nmax", "50", "--out", tmp_path / "out") == EXIT_CONFIG
    assert reference_solves == []
    assert not (tmp_path / "out").exists()


@pytest.mark.parametrize("command", ["experiment", "tables"])
def test_a_sweep_without_a_target_set_is_config_error(tmp_path, capsys, monkeypatch, command):
    # it failed at run time, with no section in its message: the sweep's rel_err needs q*
    from viscosolve import experiment

    def no_step(*args, **kwargs):
        raise AssertionError("a step before the config check")

    monkeypatch.setattr(experiment, "run_batch", no_step)
    cfg_path = tmp_path / "cfg.json"
    cfg_path.write_text(json.dumps({"problem": {"omega": None}}))
    out = tmp_path / "out"
    assert run_cli(command, "--config", cfg_path, "--nmax", "50", "--out", out) == EXIT_CONFIG
    assert "config error: experiment: the sweep needs q*" in capsys.readouterr().err
    assert not out.exists()


AT_MOST = "must be at most 2**63 - 1, got"


@pytest.mark.parametrize("command, body, message", [
    ("solve", {"solver": {"nmax": 1e308}}, f"solver: nmax {AT_MOST} 1e+308"),
    ("solve", {"solver": {"nmax": 2**70}}, f"solver: nmax {AT_MOST} {2**70}"),
    ("experiment", {"experiment": {"nmax": 1e308}}, f"experiment: nmax {AT_MOST} 1e+308"),
    ("experiment", {"experiment": {"nmax": 2**70}}, f"experiment: nmax {AT_MOST} {2**70}"),
    ("solve", {"solver": {"nmax": 50, "stride": 1e308}}, f"solver: stride {AT_MOST} 1e+308"),
    ("solve", {"solver": {"nmax": 50, "stride": 2**70}}, f"solver: stride {AT_MOST} {2**70}"),
    ("check", {"experiment": {"nmax": 1e308}}, f"experiment: nmax {AT_MOST} 1e+308"),
    ("check", {"experiment": {"nmax": 2**70}}, f"experiment: nmax {AT_MOST} {2**70}"),
    ("experiment", {"experiment": {"nmax": 50, "seeds": [1e308]}}, f"experiment: seeds entry {AT_MOST} 1e+308"),
    ("solve", {"solver": {"nmax": 50}, "perturbation": {"kind": "uniform_square_over_ksq", "seed": 2**70}},
     f"perturbation: seed {AT_MOST} {2**70}"),
    ("solve", {"solver": {"nmax": 2**62}},
     f"solver: 1 run(s) of {2**62} records in dimension 2 (n_max {2**62}, record_stride 1) "
     "are more than numpy can size"),
    ("experiment", {"experiment": {"nmax": 2**62}},
     f"experiment: 1 run(s) of {2**62} records in dimension 2 (n_max {2**62}, record_stride 1) "
     "are more than numpy can size"),
    ("check", {"experiment": {"nmax": 2**62}}, f"experiment: n = {2**62} steps are more than numpy can tabulate"),
])
def test_a_count_no_run_can_hold_is_config_error(tmp_path, capsys, command, body, message):
    # a traceback from np.arange or from indexing with a float grid, a check that never returned, and
    # exit 4 from a trace file named after a 309-digit seed; 2**62 passes the int64 bound, not numpy's sizes
    cfg_path = tmp_path / "cfg.json"
    cfg_path.write_text(json.dumps(body))
    out = tmp_path / "out"
    assert run_cli(command, "--config", cfg_path, "--out", out) == EXIT_CONFIG
    assert f"config error: {message}" in capsys.readouterr().err
    assert not out.exists()


def test_a_sweep_that_ends_in_a_numerical_failure_says_so(tmp_path, capsys):
    # exit 3 always comes with "numerical failure", the all-failed sweep's message included
    cfg_path = tmp_path / "cfg.json"
    cfg_path.write_text(json.dumps({**X1_OVERFLOW, "experiment": {"thetas": [0.5], "seeds": [1]}}))
    assert run_cli("experiment", "--config", cfg_path, "--nmax", "50", "--out", tmp_path / "out") == EXIT_DIVERGENCE
    assert capsys.readouterr().err == "numerical failure: experiment: every cell failed (1 cells)\n"


def test_check_beyond_the_end_of_a_schedule_table_is_config_error(tmp_path, capsys):
    # an alpha table shorter than experiment.nmax ended check in an IndexError traceback
    cfg_path = tmp_path / "cfg.json"
    cfg_path.write_text(json.dumps({"schedule": {"alpha": {"table": [0.5, 0.4]}}, "experiment": {"nmax": 50}}))
    assert run_cli("check", "--config", cfg_path) == EXIT_CONFIG
    assert "config error: experiment: alpha table exhausted at k=3 (length 2)" in capsys.readouterr().err
