"""``space.record`` against a stdlib ``@dataclass(frozen=True, eq=...)`` oracle with the same fields."""

import copy
import dataclasses
import inspect
import pickle
from dataclasses import KW_ONLY, FrozenInstanceError, InitVar, dataclass, field
from typing import ClassVar

import numpy as np
import pytest

import viscosolve as vs
from viscosolve import configio, diagnostics, experiment
from viscosolve.space import record


def _point(decorate):
    @decorate
    class Point:
        """A required field, a plain default, a default_factory, a field left out of repr and a class constant."""

        x: float
        tag: str = "p"
        bag: list = field(default_factory=list)
        secret: object = field(default=None, repr=False)
        unit: ClassVar[str] = "m"

        def __post_init__(self):
            object.__setattr__(self, "posts", getattr(self, "posts", 0) + 1)

    return Point


def _bare(decorate):
    @decorate
    class Bare:
        n: int
        label: str = "b"

    return Bare


def _empty(decorate):
    @decorate
    class Empty:
        kind: ClassVar[str] = "none"

    return Empty


SHAPES = [_point, _bare, _empty]
ARGS = {_point: [(1.0,), (1.0, "q", (1, 2), 7), (2.0, "p", (), None)], _bare: [(3,), (3, "c")], _empty: [()]}


def pair(shape, eq):
    """The stdlib class and the record class of one shape; both have the same ``__qualname__``."""
    return shape(dataclass(frozen=True, eq=eq)), shape(record(eq=eq))


def outcome(fn):
    try:
        return ("ok", fn())
    except Exception as exc:  # noqa: BLE001 (the oracle's exception is the expected value)
        return (type(exc), str(exc))


@record
class Pickled:
    x: float
    bag: list = field(default_factory=list)


@dataclass(frozen=True)
class PickledOracle:
    x: float
    bag: list = field(default_factory=list)


@record(eq=False)
class PickledByIdentity:
    x: float


@dataclass(frozen=True, eq=False)
class PickledByIdentityOracle:
    x: float


@pytest.mark.parametrize("eq", [True, False])
@pytest.mark.parametrize("shape", SHAPES)
def test_repr_eq_and_hash_match_the_stdlib(shape, eq):
    std, own = pair(shape, eq)
    for args in ARGS[shape]:
        s, o = std(*args), own(*args)
        assert repr(o) == repr(s)
        if eq:
            assert outcome(lambda: hash(o)) == outcome(lambda: hash(s))
        else:
            assert hash(o) == object.__hash__(o)
        for other in ARGS[shape]:
            assert (o == own(*other)) == (s == std(*other))
            assert (o != own(*other)) == (s != std(*other))
        assert (o == s) is False and (s == o) is False  # another class compares by identity


@pytest.mark.parametrize("eq", [True, False])
@pytest.mark.parametrize("shape", SHAPES)
def test_setting_or_deleting_any_attribute_is_refused_as_by_the_stdlib(shape, eq):
    for cls in pair(shape, eq):
        obj = cls(*ARGS[shape][0])
        names = [f.name for f in dataclasses.fields(cls)]
        for name in [*names, "unit", "new"]:
            with pytest.raises(FrozenInstanceError, match=f"cannot assign to field '{name}'"):
                setattr(obj, name, 0)
            with pytest.raises(FrozenInstanceError, match=f"cannot delete field '{name}'"):
                delattr(obj, name)


@pytest.mark.parametrize("eq", [True, False])
@pytest.mark.parametrize("shape", SHAPES)
def test_fields_match_args_signature_and_doc_match_the_stdlib(shape, eq):
    std, own = pair(shape, eq)
    assert dataclasses.is_dataclass(own)
    assert [(f.name, f.type, f.repr) for f in dataclasses.fields(own)] == [
        (f.name, f.type, f.repr) for f in dataclasses.fields(std)
    ]
    assert own.__match_args__ == std.__match_args__
    assert repr(own.__dataclass_params__) == repr(std.__dataclass_params__)
    assert str(inspect.signature(own)) == str(inspect.signature(std))
    assert own.__doc__ == std.__doc__
    assert own.__init__ is Pickled.__init__  # one function for every record


def test_replace_builds_a_new_record_and_runs_post_init_once():
    std, own = pair(_point, True)
    s, o = std(1.0, bag=[1]), own(1.0, bag=[1])
    s2, o2 = dataclasses.replace(s, tag="r"), dataclasses.replace(o, tag="r")
    assert repr(o2) == repr(s2) and o2.posts == s2.posts == 1 and o.posts == s.posts == 1
    assert o2.bag is o.bag  # replace passes the field on, as the stdlib does
    assert outcome(lambda: dataclasses.replace(o, nope=1))[0] is outcome(lambda: dataclasses.replace(s, nope=1))[0]


def test_each_instance_gets_a_fresh_default_factory_value():
    for cls in pair(_point, True):
        a, b = cls(1.0), cls(1.0)
        assert a.bag == b.bag == [] and a.bag is not b.bag
        assert a.secret is None and a.tag == "p" and a.unit == "m"


@pytest.mark.parametrize("args, kwargs", [
    ((), {}),  # missing
    ((), {"tag": "q"}),  # missing, with a keyword
    ((1.0, "q", [], None, 5), {}),  # one positional too many
    ((1.0,), {"nope": 1}),  # unexpected keyword
    ((1.0,), {"x": 2.0}),  # twice
    ((1.0, "q"), {"tag": "r"}),  # twice, on a default
])
def test_wrong_arguments_are_a_type_error_as_for_the_stdlib(args, kwargs):
    std, own = pair(_point, True)
    assert outcome(lambda: std(*args, **kwargs))[0] is TypeError
    assert outcome(lambda: own(*args, **kwargs))[0] is TypeError


def test_keyword_and_positional_arguments_mix_as_for_the_stdlib():
    std, own = pair(_point, True)
    for args, kwargs in [((1.0,), {"secret": 3}), ((), {"x": 1.0, "bag": [2]}), ((1.0, "q"), {"bag": [], "secret": 0})]:
        s, o = std(*args, **kwargs), own(*args, **kwargs)
        assert repr(o) == repr(s) and o.secret == s.secret and o.posts == s.posts == 1


@pytest.mark.parametrize("obj, oracle", [
    (Pickled(1.5, [1, 2]), PickledOracle(1.5, [1, 2])),
    (PickledByIdentity(2.5), PickledByIdentityOracle(2.5)),
])
def test_pickle_and_copies_round_trip_as_for_the_stdlib(obj, oracle):
    for trip in (lambda o: pickle.loads(pickle.dumps(o)), copy.deepcopy, copy.copy):
        twin, oracle_twin = trip(obj), trip(oracle)
        assert type(twin) is type(obj) and vars(twin) == vars(obj)
        assert repr(twin) == repr(obj) == repr(oracle).replace("Oracle", "")
        assert (twin == obj) == (oracle_twin == oracle)


def _scale(decorate):
    @decorate
    class Scale:
        factor: float

        def __call__(self, x, shift=0.0):
            return self.factor * x + shift

    return Scale


def test_a_callable_record_is_signed_by_its_call():
    std, own = pair(_scale, True)
    assert str(inspect.signature(own)) == str(inspect.signature(std)) == "(factor: float) -> None"
    assert str(inspect.signature(own(2.0))) == str(inspect.signature(std(2.0))) == "(x, shift=0.0)"


@pytest.mark.parametrize("body", [
    {"__annotations__": {"x": InitVar[int]}},
    {"__annotations__": {"x": int}, "x": field(kw_only=True)},
    {"__annotations__": {"_": KW_ONLY, "x": int}},
    {"__annotations__": {"x": int}, "x": field(init=False, default=0)},
    {"__annotations__": {"x": int}, "x": field(compare=False)},
    {"__annotations__": {"x": int}, "x": field(hash=True)},
    {"__annotations__": {"x": int, "y": int}, "x": 0},  # a default before a required field
    {"__annotations__": {"x": int}, "__repr__": lambda self: "mine"},
    {"__annotations__": {"x": int}, "__eq__": lambda self, other: True},
], ids=["InitVar", "kw_only", "KW_ONLY", "init_false", "compare", "hash", "default_first", "own_repr", "own_eq"])
def test_what_record_does_not_implement_is_refused_at_decoration(body):
    with pytest.raises(TypeError, match="record"):
        record(type("Refused", (), body))


def _base(decorate):
    @decorate
    class Base:
        a: int

        def __post_init__(self):
            object.__setattr__(self, "double", 2 * self.a)

    return Base


def test_a_plain_subclass_inherits_a_records_fields_and_methods():
    Base = _base(record(eq=False))

    class Child(Base):
        pass

    c = Child(3)
    assert repr(c) == "test_a_plain_subclass_inherits_a_records_fields_and_methods.<locals>.Child(a=3)"
    assert c.double == 6 and dataclasses.is_dataclass(Child) and str(inspect.signature(Child)) == "(a: int) -> None"
    with pytest.raises(FrozenInstanceError):
        c.a = 4


@pytest.mark.parametrize("eq", [True, False])
def test_a_stdlib_frozen_dataclass_extends_a_record_as_it_extends_its_oracle(eq):
    def child(base):
        @dataclass(frozen=True, eq=eq)
        class Child(base):
            b: str = "c"

        return Child

    std, own = (child(base) for base in pair(_base, eq))
    s, o = std(3), own(3)
    assert repr(o) == repr(s) and o.double == s.double == 6 and str(inspect.signature(own)) == str(inspect.signature(std))
    assert (o == own(3)) == (s == std(3))
    with pytest.raises(FrozenInstanceError):
        o.b = "d"


def test_a_record_does_not_extend_a_dataclass():
    with pytest.raises(TypeError, match="record"):
        record(type("Twice", (_base(record),), {"__annotations__": {"b": int}, "b": 0}))


def _public_records():
    """One instance of every record class the package exports, and of those its results hold."""
    problem = experiment.build_benchmark_problem()
    schedule = experiment.benchmark_schedule(0.5, problem=problem)
    cfg = vs.SolverConfig(problem, schedule, x1=vs.BENCHMARK_X1, n_max=3, reference="auto")
    report = vs.run_experiment(vs.ExperimentConfig(thetas=(0.5,), seeds=(1,), n_max=3))
    hypotheses = vs.hypothesis_report(schedule, vs.NoPerturbation(), 3, nu=problem.nu)
    icfg = configio.build_implicit_config(configio.resolve_config({})[0])
    return [
        vs.PowerAlpha(0.5), vs.TableAlpha([0.5, 0.25]), vs.ConstantLambda(0.1), vs.TableLambda([0.1]), schedule,
        vs.NoPerturbation(), vs.UniformSquarePerturbation(3), vs.NonnegOrthant(2), vs.Box([0, 0], [1, 1]),
        vs.Ball([0, 0], 1.0), vs.Halfspace([1, 1], 1.0), vs.Hyperplane([1, 1], 1.0), vs.Simplex(1.0, 2),
        vs.Identity(2), vs.TrigContraction(), vs.ConstantAnchor([0.5, 0.5]), problem.map_A,
        vs.AffineMap(np.eye(2) / 2, [0, 0]), vs.register_mapping("half", lambda x: x / 2, dim=2, role="contraction", modulus=0.5),
        problem, cfg, vs.run(cfg), icfg, vs.implicit_path(icfg, problem)[0], report.config, report.cells[0], report,
        hypotheses, hypotheses.checks[0], diagnostics.run_property_checks(problem, n_pairs=4)[0],
    ]


def test_every_public_record_is_a_dataclass_that_replace_rebuilds():
    objs = _public_records()
    exported = {c for m in (vs, diagnostics, experiment) for c in vars(m).values()
                if isinstance(c, type) and dataclasses.is_dataclass(c) and c.__module__.startswith("viscosolve")}
    assert len(exported) == 30 and exported == {type(o) for o in objs}  # a new record needs an instance here
    for obj in objs:
        assert dataclasses.is_dataclass(obj) and type(obj).__init__ is Pickled.__init__
        twin = dataclasses.replace(obj)
        assert type(twin) is type(obj) and repr(twin) == repr(obj)
        assert [f.name for f in dataclasses.fields(twin)] == list(inspect.signature(type(obj)).parameters)
