"""The input contract, leaf by leaf: any one config value, however wrong, ends in exit 0, 2 or a typed failure.

Each case takes the built-in config at small sizes, puts one of ``VALUES`` at
one leaf of ``DEFAULT_CONFIG`` and runs one command through ``cli.main`` in
this process, under a ``signal.alarm`` time bound. Exit 0 and 2 are always
allowed, 3 only with a "numerical failure" message and 1 only for ``check``;
an exception out of ``main`` fails the case.
"""

import contextlib
import io
import json
import signal
import tempfile
from pathlib import Path

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from viscosolve.cli import EXIT_CHECK_FAILED, EXIT_CONFIG, EXIT_DIVERGENCE, EXIT_OK, main
from viscosolve.configio import DEFAULT_CONFIG

COMMANDS = ("solve", "implicit", "check", "experiment")
VALUES = (None, "x", -1, 0, 1.5, float("inf"), float("nan"), -0.0, 1e308, [], [1.0], {}, True, 2**70)
RUN_SECONDS = 10  # per command; each takes well under a second at SMALL sizes

SMALL = {  # nmax 50, 2 thetas x 2 seeds, 2 t values
    "solver": {"nmax": 50},
    "experiment": {"nmax": 50, "thetas": [0.5, 0.9], "seeds": [1, 2]},
    "implicit": {"t_values": [1.0, 0.1]},
}


def _leaves(node, path=()):
    """Every scalar of ``node``, and every list with its first element, as a key path."""
    if isinstance(node, dict):
        for key, value in node.items():
            yield from _leaves(value, path + (key,))
        return
    yield path
    if isinstance(node, list) and node:
        yield from _leaves(node[0], path + (0,))


def _small_config() -> dict:
    config = {section: {**body, **SMALL.get(section, {})} for section, body in DEFAULT_CONFIG.items()}
    return json.loads(json.dumps(config))  # a copy: a case writes into it


LEAVES = tuple(_leaves(_small_config()))


def _with_value(path, value) -> dict:
    config = _small_config()
    node = config
    for key in path[:-1]:
        node = node[key]
    node[path[-1]] = value
    return config


class _Overtime(BaseException):
    """The alarm went off; a BaseException, so no ``except Exception`` in the package can swallow it."""


def run_case(command: str, config: dict) -> tuple[int, str]:
    """``viscosolve <command>`` on ``config`` in this process, in a temporary directory: (exit code, stderr)."""
    def overtime(signum, frame):
        raise _Overtime(f"{command} still running after {RUN_SECONDS} s on {config}")

    with tempfile.TemporaryDirectory() as tmp:
        cfg_path = Path(tmp) / "cfg.json"
        cfg_path.write_text(json.dumps(config))
        err = io.StringIO()
        previous = signal.signal(signal.SIGALRM, overtime)
        signal.alarm(RUN_SECONDS)
        try:
            with contextlib.redirect_stdout(io.StringIO()), contextlib.redirect_stderr(err):
                code = main([command, "--config", str(cfg_path), "--out", str(Path(tmp) / "out")])
        finally:
            signal.alarm(0)
            signal.signal(signal.SIGALRM, previous)
    return code, err.getvalue()


def assert_typed_exit(command: str, code: int, err: str) -> None:
    allowed = code in (EXIT_OK, EXIT_CONFIG)
    allowed = allowed or (code == EXIT_DIVERGENCE and "numerical failure" in err)
    allowed = allowed or (code == EXIT_CHECK_FAILED and command == "check")
    assert allowed, f"exit {code}: {err}"


def test_the_leaves_cover_every_section():
    assert {path[0] for path in LEAVES} == set(DEFAULT_CONFIG)
    assert ("problem", "A", "B", 0, 0) in LEAVES and ("experiment", "seeds", 0) in LEAVES
    assert len(LEAVES) == 39


@pytest.mark.filterwarnings("ignore::viscosolve.ScheduleViolationWarning")  # a lambda outside [0, 2 nu] runs
@settings(max_examples=1000)
@given(leaf=st.sampled_from(LEAVES), command=st.sampled_from(COMMANDS), value=st.sampled_from(VALUES))
def test_one_bad_leaf_ends_in_a_typed_exit(leaf, command, value):
    code, err = run_case(command, _with_value(leaf, value))
    assert_typed_exit(command, code, err)


def test_the_small_config_runs_every_command():
    for command in COMMANDS:
        assert run_case(command, _small_config()) == (EXIT_OK, "")
