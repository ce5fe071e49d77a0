"""Euclidean substrate: dense 1-D float64 vectors with the standard inner product.

Vectors are plain numpy arrays. Every operation is a pure function; nothing
here mutates its inputs. NaN/Inf are rejected at operation boundaries so that
iterative loops fail fast instead of silently propagating garbage.

:func:`record`, the frozen dataclass of the package's records, lives here because every module imports this one.
"""

from __future__ import annotations

import math
from dataclasses import MISSING, FrozenInstanceError, dataclass, fields, is_dataclass
from inspect import Parameter, Signature, signature
from reprlib import recursive_repr

import numpy as np

__all__ = [
    "DimensionMismatchError",
    "NonFiniteError",
    "as_vector",
    "norm",
    "row_inners",
    "row_norms",
]


class DimensionMismatchError(ValueError):
    """Operands live in spaces of different dimension."""


class NonFiniteError(ValueError):
    """A NaN or infinite value reached an operation boundary."""


def as_vector(x, dim: int | None = None, name: str = "vector") -> np.ndarray:
    """Coerce ``x`` to a finite 1-D float64 array of length >= 1."""
    v = np.asarray(x, dtype=float)
    if v.ndim != 1:
        raise ValueError(f"{name} must be 1-D, got shape {v.shape}")
    if v.size < 1:
        raise ValueError(f"{name} must have dimension >= 1")
    if not np.isfinite(v).all():
        raise NonFiniteError(f"{name} contains NaN or Inf: {v!r}")
    if dim is not None and v.size != dim:
        raise DimensionMismatchError(f"{name} has dimension {v.size}, expected {dim}")
    return v


def norm(x: np.ndarray) -> float:
    """Norm induced by the standard inner product; zero iff x is the zero vector."""
    out = math.sqrt(x.dot(x))  # ndarray.dot: the ddot of np.dot, with less dispatch
    if not math.isfinite(out):
        raise NonFiniteError("norm is not finite (NaN/Inf or overflowing input)")
    return out


def row_inners(X: np.ndarray, Y: np.ndarray) -> np.ndarray:
    """``np.dot`` of each pair of rows of the (C, d) arrays X and Y, bit for bit.

    The stacked (1, d) by (d, 1) ``matmul`` takes the same BLAS dot per row
    as ``np.dot`` does on one pair of vectors. ``np.dot`` multiplies vectors
    of one entry as scalars, which keeps the sign of a zero product, where
    the BLAS sum would give +0.0.
    """
    if X.shape[1] == 1:
        return X[:, 0] * Y[:, 0]
    return np.matmul(X[:, None, :], Y[:, :, None])[:, 0, 0]


def row_norms(X: np.ndarray) -> np.ndarray:
    """:func:`norm` of each row of the (C, d) array X, bit for bit, without the finiteness check."""
    return np.sqrt(row_inners(X, X))


# The methods that record() gives every record class. Each reads the class's field table, ``_record_spec``:
# the init fields' names in order, those with a default by name, and whether the class has __post_init__.
def _init(self, /, *args, **kwargs):
    names, defaults, post_init = type(self)._record_spec
    setter, given = object.__setattr__, len(args) + len(kwargs)
    for name, value in zip(names, args):
        setter(self, name, value)
    for name in names[len(args):]:
        if name in kwargs:
            setter(self, name, kwargs[name])
        elif name in defaults:
            f, given = defaults[name], given + 1
            setter(self, name, f.default if f.default_factory is MISSING else f.default_factory())
        else:  # a field without a default, not given
            given = -1
            break
    if given != len(names):  # a field missing, or an argument unknown, repeated or one too many
        type(self).__signature__.bind(*args, **kwargs)  # raises the TypeError of a def with these parameters
    if post_init:
        self.__post_init__()


@recursive_repr()
def _repr(self):
    shown = ", ".join(f"{f.name}={getattr(self, f.name)!r}" for f in fields(self) if f.repr)
    return f"{type(self).__qualname__}({shown})"


def _frozen(self, name, *value):
    raise FrozenInstanceError(f"cannot {'assign to' if value else 'delete'} field {name!r}")


def _values(self) -> tuple:
    return tuple(getattr(self, name) for name in type(self)._record_spec[0])


def _eq(self, other):
    return _values(self) == _values(other) if other.__class__ is self.__class__ else NotImplemented


def _hash(self):
    return hash(_values(self))


class _Signed:
    def __get__(self, obj, cls):  # a record class's fields; an instance has none, so ``__call__`` signs a callable record
        if obj is not None or cls.__init__ is not _init:
            raise AttributeError("__signature__")
        empty = Parameter.empty
        return Signature([Parameter(f.name, Parameter.POSITIONAL_OR_KEYWORD, annotation=f.type, default=_FACTORY if
                                    f.default_factory is not MISSING else empty if f.default is MISSING else f.default)
                          for f in fields(cls)], return_annotation=None)


_FACTORY = type("_Factory", (), {"__repr__": lambda self: "<factory>"})()  # how the stdlib shows a default_factory
_METHODS = {"__init__": _init, "__repr__": _repr, "__setattr__": _frozen, "__delattr__": _frozen, "__signature__": _Signed()}
_EQ_METHODS = {**_METHODS, "__eq__": _eq, "__hash__": _hash}


def record(cls=None, /, *, eq=True):
    """``@dataclass(frozen=True, eq=eq)`` with methods that all records share, where the stdlib compiles them per class.

    That compiling costs 0.4-1.0 ms a class at import. ``dataclass``, asked here for none of the methods, still makes
    the class a dataclass to ``fields``, ``replace`` and ``is_dataclass``. Refused, as the shared methods do not
    implement them: ``InitVar``, ``kw_only`` and ``init=False`` fields (each makes ``__match_args__`` differ from the
    fields), ``compare`` and ``hash`` options, a default before a field without one, a class's own such method, and a
    dataclass base. A plain subclass of a record inherits its fields and methods; a stdlib frozen dataclass may extend it.
    """
    if cls is None:
        return lambda cls: record(cls, eq=eq)
    methods = _EQ_METHODS if eq else _METHODS
    if methods.keys() & cls.__dict__.keys() or any(is_dataclass(base) for base in cls.__mro__[1:]):
        raise TypeError(f"record {cls.__qualname__} defines one of {sorted(methods)} or extends a dataclass")
    for name, method in methods.items():
        setattr(cls, name, method)
    doc = cls.__doc__
    cls.__doc__ = doc or "-"  # so that dataclass() reads no signature: 3.10's refuses a default first with ValueError
    own = fields(dataclass(init=False, repr=False, eq=False)(cls))
    names = tuple(f.name for f in own)
    defaults = {f.name: f for f in own if f.default is not MISSING or f.default_factory is not MISSING}
    if not all(f.compare and f.hash is None for f in own) or cls.__match_args__ != names or any(
            a.name in defaults and b.name not in defaults for a, b in zip(own, own[1:])):
        raise TypeError(f"record {cls.__qualname__} takes plain fields, defaults last")
    cls.__doc__ = doc or cls.__name__ + str(signature(cls)).replace(" -> None", "")  # the stdlib's docstring
    params = cls.__dataclass_params__  # as the methods behave, so that a stdlib frozen dataclass may extend the class
    params.init = params.repr = params.frozen = True
    params.eq = eq
    cls._record_spec = (names, defaults, hasattr(cls, "__post_init__"))
    return cls
