"""Config resolution: results equal a deepcopy-based oracle and share no container with their inputs."""

import copy
import json
import types

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from viscosolve import configio
from viscosolve.configio import DEFAULT_CONFIG, apply_overrides, resolve_config
from viscosolve.solvers import ConfigurationError

# --------------------------------------------------------------------------
# oracle: resolution by copy.deepcopy, as configio did it before the JSON-tree copy


def oracle_resolve(raw):
    raw = raw or {}
    unknown = set(raw) - set(DEFAULT_CONFIG)
    if unknown:
        raise ConfigurationError(f"unknown config section(s): {sorted(unknown)}")
    resolved = {}
    defaulted = []
    for section, default_body in DEFAULT_CONFIG.items():
        user_body = raw.get(section)
        if user_body is None:
            resolved[section] = copy.deepcopy(default_body)
            defaulted.append(section)
            continue
        if not isinstance(user_body, dict):
            raise ConfigurationError(f"{section}: must be an object")
        body = {}
        for key, default_value in default_body.items():
            if key in user_body:
                body[key] = copy.deepcopy(user_body[key])
            else:
                body[key] = copy.deepcopy(default_value)
                defaulted.append(f"{section}.{key}")
        for key in user_body:
            if key not in default_body:
                if section == "schedule" and key == "bounds":
                    body[key] = copy.deepcopy(user_body[key])
                else:
                    raise ConfigurationError(f"{section}.{key}: unknown field")
        resolved[section] = body
    return resolved, defaulted


def oracle_apply(raw, overrides):
    raw = copy.deepcopy(raw)

    def section(name):
        return raw.setdefault(name, {})

    if overrides.get("theta") is not None:
        section("experiment")["thetas"] = [overrides["theta"]]
        section("schedule")["alpha"] = {"power": overrides["theta"]}
    if overrides.get("seed") is not None:
        section("experiment")["seeds"] = [overrides["seed"]]
        section("perturbation").update({"kind": "uniform_square_over_ksq", "seed": overrides["seed"]})
    if overrides.get("seeds") is not None:
        section("experiment")["seeds"] = list(overrides["seeds"])
    if overrides.get("nmax") is not None:
        section("experiment")["nmax"] = overrides["nmax"]
        section("solver")["nmax"] = overrides["nmax"]
    if overrides.get("algorithm") is not None:
        section("solver")["algorithm"] = overrides["algorithm"]
    if overrides.get("deterministic"):
        section("experiment")["deterministic"] = True
        section("perturbation").update({"kind": "none"})
        section("perturbation").pop("seed", None)
    if overrides.get("stride") is not None:
        section("solver")["stride"] = overrides["stride"]
    return raw


# --------------------------------------------------------------------------
# inputs

ALL_OVERRIDES = {
    "theta": 0.7, "seed": 11, "seeds": [3, 4], "nmax": 50,
    "algorithm": "halpern", "deterministic": True, "stride": 5,
}


def d64_config(seed=0, d=64):
    """A solve_mix-shaped config: a d x d least-squares B, a simplex Q, bounds on the schedule."""
    rng = np.random.default_rng(seed)
    B = rng.normal(size=(d, d)) / np.sqrt(d)
    u = rng.dirichlet(np.ones(d))
    return {
        "problem": {
            "set": {"kind": "simplex", "total": 1.0, "dim": d},
            "S": {"kind": "identity"},
            "A": {"kind": "least_squares_gradient", "B": B.tolist(), "b": rng.normal(size=d).tolist()},
            "f": {"kind": "constant", "value": u.tolist()},
            "omega": None,
        },
        "schedule": {"alpha": {"power": 0.8}, "lambda": {"constant": 0.3}, "bounds": [0.3, 0.3]},
        "perturbation": {"kind": "uniform_square_over_ksq", "seed": 17},
        "solver": {"nmax": 1000, "stride": 10, "beta": 0.5, "x1": u.tolist(), "anchor": u.tolist(), "reference": None},
    }


json_leaves = st.none() | st.booleans() | st.integers() | st.floats() | st.text(max_size=4)
json_trees = st.recursive(
    json_leaves,
    lambda kids: st.lists(kids, max_size=4) | st.dictionaries(st.text(max_size=4), kids, max_size=4),
    max_leaves=12,
)


@st.composite
def raw_configs(draw):
    raw = {}
    for section, default_body in DEFAULT_CONFIG.items():
        if draw(st.booleans()):
            keys = list(default_body) + (["bounds"] if section == "schedule" else [])
            chosen = draw(st.lists(st.sampled_from(keys), unique=True))
            raw[section] = {key: draw(json_trees) for key in chosen}
    return raw


overrides_st = st.fixed_dictionaries({
    "theta": st.none() | st.floats(0.01, 1.0),
    "seed": st.none() | st.integers(0, 10**6),
    "seeds": st.none() | st.lists(st.integers(0, 100), max_size=3),
    "nmax": st.none() | st.integers(1, 10**4),
    "algorithm": st.none() | st.text(max_size=8),
    "deterministic": st.booleans(),
    "stride": st.none() | st.integers(1, 10),
})


def containers(tree):
    """Every dict and list in a JSON tree, the root included."""
    if isinstance(tree, dict):
        yield tree
        for value in tree.values():
            yield from containers(value)
    elif isinstance(tree, list):
        yield tree
        for value in tree:
            yield from containers(value)


def snapshot(tree):
    return json.dumps(tree, sort_keys=True)


def assert_same_as_oracle(raw, overrides=None):
    if overrides is None:
        got, want = resolve_config(raw), oracle_resolve(raw)
    else:
        got = resolve_config(apply_overrides(raw, overrides))
        want = oracle_resolve(oracle_apply(raw, overrides))
    assert got == want
    assert snapshot(got) == snapshot(want)


def assert_results_detached(raw, overrides):
    before_raw, before_default = snapshot(raw), snapshot(DEFAULT_CONFIG)
    for resolved in (resolve_config(raw)[0], resolve_config(apply_overrides(raw, overrides))[0]):
        for node in containers(resolved):
            if isinstance(node, dict):
                node["mutated"] = 1
            else:
                node.append("mutated")
    assert snapshot(raw) == before_raw
    assert snapshot(DEFAULT_CONFIG) == before_default


# --------------------------------------------------------------------------
# equality with the oracle


@pytest.mark.parametrize("overrides", [None, {}, ALL_OVERRIDES, {"algorithm": "yao_inner"}])
def test_default_config_matches_oracle(overrides):
    assert_same_as_oracle({}, overrides)


@pytest.mark.parametrize("overrides", [None, {}, ALL_OVERRIDES, {"algorithm": "halpern"}])
def test_d64_config_matches_oracle(overrides):
    assert_same_as_oracle(d64_config(), overrides)


@settings(max_examples=200)
@given(raw=raw_configs(), overrides=overrides_st)
def test_json_trees_match_oracle(raw, overrides):
    assert_same_as_oracle(raw)
    assert_same_as_oracle(raw, overrides)


# --------------------------------------------------------------------------
# no shared containers, inputs unmodified


def test_d64_results_share_no_container_with_inputs():
    assert_results_detached(d64_config(), ALL_OVERRIDES)
    assert_results_detached({}, ALL_OVERRIDES)


@settings(max_examples=100)
@given(raw=raw_configs(), overrides=overrides_st)
def test_json_tree_results_share_no_container_with_inputs(raw, overrides):
    assert_results_detached(raw, overrides)


@settings(max_examples=200)
@given(raw=raw_configs(), overrides=overrides_st)
def test_apply_overrides_never_modifies_its_input(raw, overrides):
    before = copy.deepcopy(raw)
    sections = dict(raw)
    apply_overrides(raw, overrides)
    assert raw == before
    assert snapshot(raw) == snapshot(before)
    assert all(raw[name] is body for name, body in sections.items())


def test_non_json_values_are_still_deep_copied():
    x1 = np.array([2.0, 3.0])
    resolved, _ = resolve_config({"solver": {"x1": x1}})
    assert resolved["solver"]["x1"] is not x1
    assert np.array_equal(resolved["solver"]["x1"], x1)


def test_json_config_never_calls_deepcopy(monkeypatch):
    def refuse(*args, **kwargs):
        raise AssertionError("copy.deepcopy called on a JSON-only config")

    monkeypatch.setattr(configio, "copy", types.SimpleNamespace(deepcopy=refuse))
    for raw in ({}, d64_config()):
        resolve_config(raw)
        resolve_config(apply_overrides(raw, ALL_OVERRIDES))


# --------------------------------------------------------------------------
# non-object sections and top levels


@pytest.mark.parametrize("overrides", [{"nmax": 5}, {"algorithm": "halpern"}, ALL_OVERRIDES])
def test_null_section_with_override_counts_as_missing(overrides):
    with_null = resolve_config(apply_overrides({"solver": None, "experiment": None}, overrides))
    assert with_null == resolve_config(apply_overrides({}, overrides))


@pytest.mark.parametrize("body", [3, "x", [], [1.0], True])
@pytest.mark.parametrize("overrides", [{"nmax": 5}, {"algorithm": "halpern"}])
def test_non_object_section_with_override_is_config_error(body, overrides):
    with pytest.raises(ConfigurationError, match="^solver: must be an object$"):
        apply_overrides({"solver": body}, overrides)
    with pytest.raises(ConfigurationError, match="^solver: must be an object$"):
        resolve_config({"solver": body})


@pytest.mark.parametrize("raw", [["problem"], "problem", 3, []])
def test_non_object_top_level_is_config_error(raw):
    with pytest.raises(ConfigurationError, match="must be an object"):
        resolve_config(raw)
    with pytest.raises(ConfigurationError, match="must be an object"):
        apply_overrides(raw, {})


@pytest.mark.parametrize("errors", [(ValueError, TypeError), ValueError])
@pytest.mark.parametrize("raised, shown", [
    (ConfigurationError("inner_tol must be finite and > 0, got inf"), "implicit: inner_tol must be finite and > 0, got inf"),
    (ConfigurationError("implicit.t_values: must be decreasing"), "implicit.t_values: must be decreasing"),
    (ConfigurationError("implicit: already named"), "implicit: already named"),
    (ValueError("inner_max_iter must be an integer >= 1, got 0"), "implicit: inner_max_iter must be an integer >= 1, got 0"),
], ids=["bare", "dotted", "prefixed", "value_error"])
def test_as_config_error_names_the_section_once(errors, raised, shown):
    # a bare ConfigurationError used to pass through with no section
    with pytest.raises(ConfigurationError) as info, configio._as_config_error("implicit", errors):
        raise raised
    assert str(info.value) == shown


def test_as_config_error_lets_other_errors_through():
    with pytest.raises(IndexError), configio._as_config_error("implicit"):
        raise IndexError("not a configuration problem")
    with pytest.raises(TypeError), configio._as_config_error("problem", ValueError):
        raise TypeError("not among the errors it converts")


def test_the_benchmark_has_one_definition():
    # configs/benchmark.json, DEFAULT_CONFIG and build_benchmark_problem state one problem three times
    from pathlib import Path

    from viscosolve import build_benchmark_problem
    from viscosolve.operators import _jsonable

    raw = configio.load_config(Path(__file__).resolve().parents[1] / "configs" / "benchmark.json")
    assert resolve_config(raw)[0] == resolve_config({})[0]
    assert _jsonable(build_benchmark_problem()) == _jsonable(configio.build_problem(DEFAULT_CONFIG))


@pytest.mark.parametrize("cls, name, value, label", [
    ("TrigContraction", "lipschitz", 0.1, "f"),  # sqrt(2)/2 holds, 0.1 does not
    ("Identity", "lipschitz", 0.5, "S"),
    ("LeastSquaresGradient", "ism_modulus", property(lambda self: 10.0 / self.lipschitz), "A"),  # 1/L holds
])
def test_a_false_declared_modulus_is_config_error(monkeypatch, cls, name, value, label):
    from viscosolve import operators

    monkeypatch.setattr(getattr(operators, cls), name, value)
    with pytest.raises(ConfigurationError, match=f"^problem: map {label} breaks its declared {name} = "):
        configio.build_problem(DEFAULT_CONFIG)
