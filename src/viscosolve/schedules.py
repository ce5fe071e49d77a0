"""Parameter sequences {alpha_k}, {lambda_k}, {e_k} and the verdicts their diagnostics give.

The solvers consume three sequences:

* alpha_k  -- mixing weights in (0, 1], either k**(-theta) or tabulated;
* lambda_k -- relaxation steps for the forward (gradient) part;
* e_k      -- additive perturbations, either zero or X_k / k**2 with X_k
  uniform on the centered unit cube.

The verdicts ``ANALYTIC``, ``CONSISTENT`` and ``VIOLATED`` are those of
:func:`viscosolve.diagnostics.hypothesis_report`, which grades the five
standing hypotheses of the strong convergence theory on these sequences.
"""

from __future__ import annotations

import warnings
from typing import ClassVar, Union

import numpy as np

from .space import record

__all__ = [
    "ScheduleViolationWarning",
    "ScheduleViolationError",
    "PowerAlpha",
    "TableAlpha",
    "ConstantLambda",
    "TableLambda",
    "ScheduleSpec",
    "NoPerturbation",
    "UniformSquarePerturbation",
    "Perturbation",
    "alpha_at",
    "lambda_at",
    "tabulate",
    "perturbation_stream",
    "ANALYTIC",
    "CONSISTENT",
    "VIOLATED",
]


class ScheduleViolationWarning(UserWarning):
    """A schedule value left its hypothesis interval (run proceeds)."""


class ScheduleViolationError(ValueError):
    """A schedule value left its hypothesis interval (strict mode)."""


@record
class PowerAlpha:
    """alpha_k = k**(-theta) for k >= 1, so alpha_1 = 1.

    theta in (0, 1] satisfies the convergence hypotheses; larger exponents are
    accepted so that deliberately violating configurations can be diagnosed.
    """

    theta: float

    def __post_init__(self):
        object.__setattr__(self, "theta", float(self.theta))
        if not self.theta > 0:
            raise ValueError(f"power exponent must be > 0, got {self.theta}")


@record(eq=False)
class TableAlpha:
    """Explicit table of alpha values in (0, 1], indexed from k = 1."""

    values: np.ndarray

    def __post_init__(self):
        v = np.asarray(self.values, dtype=float)
        if v.ndim != 1 or v.size < 1:
            raise ValueError("alpha table must be a nonempty 1-D sequence")
        if not np.isfinite(v).all() or np.any(v <= 0) or np.any(v > 1):
            raise ValueError("alpha table values must be finite and in (0, 1]")
        v.setflags(write=False)
        object.__setattr__(self, "values", v)


@record
class ConstantLambda:
    value: float

    def __post_init__(self):
        object.__setattr__(self, "value", float(self.value))
        if not self.value >= 0:
            raise ValueError(f"lambda must be >= 0, got {self.value}")


@record(eq=False)
class TableLambda:
    values: np.ndarray

    def __post_init__(self):
        v = np.asarray(self.values, dtype=float)
        if v.ndim != 1 or v.size < 1:
            raise ValueError("lambda table must be a nonempty 1-D sequence")
        if not np.isfinite(v).all() or np.any(v < 0):
            raise ValueError("lambda table values must be finite and >= 0")
        v.setflags(write=False)
        object.__setattr__(self, "values", v)


AlphaSchedule = Union[PowerAlpha, TableAlpha]
LambdaSchedule = Union[ConstantLambda, TableLambda]


@record
class ScheduleSpec:
    """alpha and lambda schedules plus the target interval [a, b] for lambda.

    ``bounds = (a, b)`` is hypothesis metadata: the interval the relaxation
    steps are meant to stay in (0 < a <= b, and b < 2*nu for the problem at
    hand). A constant lambda must lie inside it.
    """

    alpha: AlphaSchedule
    lam: LambdaSchedule
    bounds: tuple[float, float]

    def __post_init__(self):
        if len(self.bounds) != 2:
            raise ValueError(f"bounds must be a pair (a, b), got {self.bounds}")
        a, b = (float(self.bounds[0]), float(self.bounds[1]))
        object.__setattr__(self, "bounds", (a, b))
        if not (0 < a <= b):
            raise ValueError(f"bounds must satisfy 0 < a <= b, got {self.bounds}")
        if isinstance(self.lam, ConstantLambda) and not (a <= self.lam.value <= b):
            raise ValueError(
                f"constant lambda {self.lam.value} outside bounds [{a}, {b}]"
            )


def _exhausted(name: str, k: int, size: int) -> IndexError:
    return IndexError(f"{name} table exhausted at k={k} (length {size})")


def alpha_at(s: ScheduleSpec, k: int) -> float:
    """alpha_k for k >= 1."""
    if k < 1:
        raise IndexError(f"schedule index starts at 1, got {k}")
    a = s.alpha
    if isinstance(a, PowerAlpha):
        return float(k) ** (-a.theta)
    if k > a.values.size:
        raise _exhausted("alpha", k, a.values.size)
    return float(a.values[k - 1])


def lambda_at(s: ScheduleSpec, k: int) -> float:
    """lambda_k for k >= 1; warns when the value leaves ``s.bounds``."""
    if k < 1:
        raise IndexError(f"schedule index starts at 1, got {k}")
    lam = s.lam
    if isinstance(lam, ConstantLambda):
        value = lam.value
    else:
        if k > lam.values.size:
            raise _exhausted("lambda", k, lam.values.size)
        value = float(lam.values[k - 1])
    a, b = s.bounds
    if not (a <= value <= b):
        warnings.warn(
            f"lambda_{k} = {value} outside target interval [{a}, {b}]",
            ScheduleViolationWarning,
            stacklevel=2,
        )
    return value


def tabulate(s: ScheduleSpec, n: int, start: int = 1) -> tuple[np.ndarray, np.ndarray]:
    """(alpha_k, lambda_k) for k = start .. start + n - 1 as two arrays, without the per-value warnings."""
    alphas = np.array([alpha_at(s, k) for k in range(start, start + n)])
    if isinstance(s.lam, ConstantLambda):
        return alphas, np.full(n, s.lam.value)
    _check_horizon(s, start + n - 1)
    return alphas, s.lam.values[start - 1 : start - 1 + n]


def _check_horizon(s: ScheduleSpec, n: int) -> None:
    """Raise the ``IndexError`` of :func:`alpha_at` / :func:`lambda_at` if a table ends before k = n."""
    for name, table in (("alpha", s.alpha), ("lambda", s.lam)):
        if isinstance(table, (TableAlpha, TableLambda)) and table.values.size < n:
            raise _exhausted(name, table.values.size + 1, table.values.size)


# --------------------------------------------------------------------------
# perturbations


@record
class NoPerturbation:
    """e_k = 0 for all k."""

    kind: ClassVar[str] = "none"
    generator: ClassVar[str] = "none"
    seed: ClassVar[None] = None


@record
class UniformSquarePerturbation:
    """e_k = X_k / k**2 with X_k uniform on [-1, 1]^dim, independent over k.

    X_k is row k of the (k, dim) uniform stream of numpy's PCG64 generator
    seeded with ``seed``, mapped by u -> 2u - 1. Indexing by (seed, k) is
    pure: the same pair always yields the same vector.
    """

    seed: int
    kind: ClassVar[str] = "uniform_square_over_ksq"
    generator: ClassVar[str] = "numpy-pcg64"

    def __post_init__(self):
        object.__setattr__(self, "seed", _integer(self.seed, "seed"))


Perturbation = Union[NoPerturbation, UniformSquarePerturbation]


_INT64_MAX = 2**63 - 1
_MAX_BYTES = np.iinfo(np.intp).max  # numpy refuses, without allocating, an array of more bytes


def _integer(value, name: str, minimum: int = 0, error: type[ValueError] = ValueError) -> int:
    """``value`` as an int in [``minimum``, 2**63 - 1], refusing what ``int()`` would cut: with minimum 0,
    ``1.0`` passes and ``1.5``, ``-1`` and ``1e308`` do not; else ``error``. Checks seeds, step counts,
    strides and dimensions."""
    try:
        number = int(value)
    except (TypeError, ValueError, OverflowError):  # a list, "x", nan, inf
        number = None
    if number is None or number != value or number < minimum:
        raise error(f"{name} must be an integer >= {minimum}, got {value!r}")
    if number > _INT64_MAX:  # no run holds more steps, and a seed names a trace file
        raise error(f"{name} must be at most 2**63 - 1, got {value!r}")
    return number


# Doubles in one block of steps: the engine and diagnostics.hypothesis_report draw e_k (and the
# engine tabulates alpha_k and lambda_k) _block_steps(width) steps at a time.
_BLOCK_DOUBLES = 2**14


def _block_steps(width: int) -> int:
    """Steps in one block whose steps are ``width`` doubles: one row's dim, or rows x dim for a batch.

    One row takes 8192 steps at dim 2 and 256 at dim 64; 16 rows at dim 2 take 512.
    """
    return max(1, _BLOCK_DOUBLES // width)


def _generator(p: Perturbation, start: int = 1, dim: int = 1) -> np.random.Generator | None:
    """The PCG64 generator of ``p``'s stream at row ``start``, each row ``dim`` draws (None for no perturbation)."""
    if isinstance(p, NoPerturbation):
        return None
    return np.random.Generator(np.random.PCG64(p.seed).advance((start - 1) * dim))


def perturbation_stream(p: Perturbation, n: int, dim: int, start: int = 1, generator=None) -> np.ndarray:
    """Rows e_start .. e_{start + n - 1} as an (n, dim) array, bit for bit those rows of the whole stream.

    ``generator``, when given, is ``_generator(p)`` after it has drawn the
    rows before ``start``: the draws continue it, so a run that keeps one
    generator for its whole stream seeds and advances none per block.
    """
    if isinstance(p, NoPerturbation):
        return np.zeros((n, dim))
    # row k starts (k - 1) * dim draws into the seed's stream
    e = (_generator(p, start, dim) if generator is None else generator).random((n, dim))
    e *= 2.0  # (2 u - 1) / k**2 in place: the same roundings, no temporaries
    e -= 1.0
    e /= np.arange(start, start + n, dtype=float)[:, None] ** 2
    return e


# --------------------------------------------------------------------------
# verdicts of diagnostics.hypothesis_report

ANALYTIC = "analytically-satisfied"
CONSISTENT = "numerically-consistent"
VIOLATED = "violated"
