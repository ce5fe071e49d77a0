import json

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


def test_custom_mapping_via_config(tmp_path):
    import numpy as np

    from viscosolve import register_mapping

    register_mapping("cli_half_push", lambda x: 0.5 * x + 1.0, dim=2, role="contraction", modulus=0.5)
    cfg_path = tmp_path / "cfg.json"
    cfg_path.write_text(json.dumps({"problem": {"f": {"kind": "custom", "name": "cli_half_push"}}}))
    out = tmp_path / "out"
    assert run_cli("solve", "--config", cfg_path, "--seed", "1", "--nmax", "60", "--out", out) == EXIT_OK
    # unknown names surface as config errors
    cfg_path.write_text(json.dumps({"problem": {"f": {"kind": "custom", "name": "no_such_map"}}}))
    assert run_cli("solve", "--config", cfg_path, "--out", out) == EXIT_CONFIG


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
    assert f"config error: {message}" in capsys.readouterr().err


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


def test_io_failure_exit_code(tmp_path):
    blocker = tmp_path / "blocked"
    blocker.write_text("a file where the output directory should go")
    assert run_cli("solve", "--nmax", "20", "--seed", "1", "--out", blocker) == EXIT_IO


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
