"""Exact metric projections onto the closed convex sets used by the solvers.

Each set is a small frozen dataclass descriptor that owns its kernels. The
set protocol, which a user-defined set follows too:

* ``dim``: the dimension of the space the set lives in;
* ``project(x)``: the nearest point of the set to a float vector ``x`` of
  length ``dim``, which the caller has checked;
* ``contains(x, tol)``: membership of such a vector up to ``tol``;
* ``project_rows(X)`` (optional): ``project`` of every row of a checked
  (C, dim) array, bit for bit;
* ``sample(rng, n)`` (optional): ``n`` points of the set as an (n, dim) array.

The module functions :func:`project`, :func:`contains` and
:func:`project_rows` are the checked entry points: each checks the shape of
its argument, then calls the set's method. :func:`project_rows` of a set
with no row method is a loop of :func:`project` over the rows, and
:func:`sample` of a set with no ``sample`` projects Gaussian points.

Closed forms:

* orthant / box:  componentwise clamp
* ball:           radial shrink toward the center
* halfspace {x : <n,x> <= c}:   x - max(0, <n,x> - c) / ||n||^2 * n
* hyperplane {x : <n,x> = c}:   x - (<n,x> - c) / ||n||^2 * n
* simplex {x >= 0 : sum x = a}: water-filling threshold, see ``_threshold``

Only the orthant, the constraint set of the theta sweep, has a row method
(the same clamp on the whole array); every other set steps through the loop
of :func:`project`, since no workload batches it.
"""

from __future__ import annotations

import math
from dataclasses import dataclass
from functools import cache
from typing import Union

import numpy as np

from .schedules import _integer
from .space import DimensionMismatchError, as_vector

__all__ = [
    "MEMBERSHIP_TOL",
    "InvalidDescriptorError",
    "NonnegOrthant",
    "Box",
    "Ball",
    "Halfspace",
    "Hyperplane",
    "Simplex",
    "ConvexSet",
    "project",
    "project_rows",
    "contains",
    "sample",
]

# Default membership tolerance, commensurate with double-precision projections.
MEMBERSHIP_TOL = 1e-10

# The clamps' 0-d zero: numpy takes a 0-d operand faster than the Python float 0.0, with the same result.
_ZERO = np.zeros(())
_ZERO.setflags(write=False)


class InvalidDescriptorError(ValueError):
    """The convex-set descriptor violates its own invariants."""


@dataclass(frozen=True)
class NonnegOrthant:
    """{x : x_i >= 0 for all i}."""

    dim: int

    def __post_init__(self):
        object.__setattr__(self, "dim", _integer(self.dim, "dim", 1, InvalidDescriptorError))

    def project(self, x):
        return np.maximum(x, _ZERO)

    project_rows = project

    def contains(self, x, tol=MEMBERSHIP_TOL):
        return bool(np.all(x >= -tol))

    def sample(self, rng, n):
        return np.abs(rng.normal(scale=2.0, size=(n, self.dim)))


@dataclass(frozen=True, eq=False)
class Box:
    """{x : lo <= x <= hi componentwise}."""

    lo: np.ndarray
    hi: np.ndarray

    def __post_init__(self):
        object.__setattr__(self, "lo", as_vector(self.lo, name="lo"))
        object.__setattr__(self, "hi", as_vector(self.hi, dim=self.lo.size, name="hi"))
        if np.any(self.lo > self.hi):
            raise InvalidDescriptorError("box needs lo <= hi componentwise")
        self.lo.setflags(write=False)
        self.hi.setflags(write=False)
        object.__setattr__(self, "dim", self.lo.size)  # not a field: digests ignore it

    def project(self, x):
        return x.clip(self.lo, self.hi)  # skips np.clip's fromnumeric wrapper; numpy's _methods._clip still runs

    def contains(self, x, tol=MEMBERSHIP_TOL):
        return bool(np.all(x >= self.lo - tol) and np.all(x <= self.hi + tol))

    def sample(self, rng, n):
        return rng.uniform(self.lo, self.hi, size=(n, self.dim))


@dataclass(frozen=True, eq=False)
class Ball:
    """{x : ||x - center|| <= radius}."""

    center: np.ndarray
    radius: float

    def __post_init__(self):
        object.__setattr__(self, "center", as_vector(self.center, name="center"))
        object.__setattr__(self, "radius", float(self.radius))
        if not self.radius > 0:
            raise InvalidDescriptorError(f"ball radius must be > 0, got {self.radius}")
        self.center.setflags(write=False)
        object.__setattr__(self, "dim", self.center.size)  # not a field: digests ignore it

    def project(self, x):
        d = x - self.center
        dist = math.sqrt(d.dot(d))
        if dist <= self.radius:
            return x.copy()
        return self.center + (self.radius / dist) * d

    def contains(self, x, tol=MEMBERSHIP_TOL):
        d = x - self.center
        return float(np.sqrt(np.dot(d, d))) <= self.radius + tol

    def sample(self, rng, n):
        dirs = rng.normal(size=(n, self.dim))
        dirs /= np.linalg.norm(dirs, axis=1, keepdims=True)
        radii = self.radius * rng.random(n) ** (1.0 / self.dim)
        return self.center + radii[:, None] * dirs


@dataclass(frozen=True, eq=False)
class Halfspace:
    """{x : <normal, x> <= offset}."""

    normal: np.ndarray
    offset: float

    def __post_init__(self):
        object.__setattr__(self, "normal", as_vector(self.normal, name="normal"))
        object.__setattr__(self, "offset", float(self.offset))
        if not np.any(self.normal != 0):
            raise InvalidDescriptorError("halfspace normal must be nonzero")
        self.normal.setflags(write=False)
        object.__setattr__(self, "_normal_sq", float(np.dot(self.normal, self.normal)))  # not fields: digests ignore them
        object.__setattr__(self, "dim", self.normal.size)

    def project(self, x):
        excess = float(self.normal.dot(x)) - self.offset
        if excess <= 0:
            return x.copy()
        return x - (excess / self._normal_sq) * self.normal

    def contains(self, x, tol=MEMBERSHIP_TOL):
        return float(np.dot(self.normal, x)) <= self.offset + tol


@dataclass(frozen=True, eq=False)
class Hyperplane:
    """{x : <normal, x> = offset}."""

    normal: np.ndarray
    offset: float

    def __post_init__(self):
        object.__setattr__(self, "normal", as_vector(self.normal, name="normal"))
        object.__setattr__(self, "offset", float(self.offset))
        if not np.any(self.normal != 0):
            raise InvalidDescriptorError("hyperplane normal must be nonzero")
        self.normal.setflags(write=False)
        object.__setattr__(self, "_normal_sq", float(np.dot(self.normal, self.normal)))  # not fields: digests ignore them
        object.__setattr__(self, "dim", self.normal.size)

    def project(self, x):
        excess = float(self.normal.dot(x)) - self.offset
        return x - (excess / self._normal_sq) * self.normal

    def contains(self, x, tol=MEMBERSHIP_TOL):
        return abs(float(np.dot(self.normal, x)) - self.offset) <= tol


@dataclass(frozen=True)
class Simplex:
    """{x >= 0 : sum_i x_i = total} with total > 0 (a scaled simplex slice)."""

    total: float
    dim: int

    def __post_init__(self):
        object.__setattr__(self, "total", float(self.total))
        if not self.total > 0:
            raise InvalidDescriptorError(f"simplex total must be > 0, got {self.total}")
        object.__setattr__(self, "dim", _integer(self.dim, "dim", 1, InvalidDescriptorError))

    def project(self, x):
        threshold = _threshold(x, self.total)
        if threshold is None:  # the largest entry swamps total: it takes all of it
            y = np.zeros_like(x)
            y[x.argmax()] = self.total
            return y
        return np.maximum(x - threshold, _ZERO)

    def contains(self, x, tol=MEMBERSHIP_TOL):
        return bool(np.all(x >= -tol)) and abs(float(np.sum(x)) - self.total) <= tol


ConvexSet = Union[NonnegOrthant, Box, Ball, Halfspace, Hyperplane, Simplex]


def _check_dim(cset, x, name="x") -> np.ndarray:
    x = np.asarray(x, dtype=float)
    if x.ndim != 1 or x.size != cset.dim:
        raise DimensionMismatchError(
            f"{name} has shape {x.shape}, set lives in dimension {cset.dim}"
        )
    return x


def _check_rows(cset, X) -> np.ndarray:
    X = np.asarray(X, dtype=float)
    if X.ndim != 2 or X.shape[1] != cset.dim:
        raise DimensionMismatchError(
            f"rows have shape {X.shape}, set lives in dimension {cset.dim}"
        )
    return X


def _threshold(x: np.ndarray, total: float) -> float | None:
    """The alpha with sum_k max(x_k - alpha, 0) = total, of a checked ``x`` and ``total``.

    max(x - alpha, 0) is then the projection onto ``Simplex(total, x.size)``.
    Sort-based, exact in O(n log n) (Duchi et al. 2008): sort descending,
    scan cumulative sums for the active-support breakpoint.

    At small n numpy's per-call overhead is the cost, so the methods stand in
    for their wrappers (an in-place sort of a copy for ``np.sort``,
    ``np.add.accumulate`` for ``np.cumsum``), the ranks 1 .. n are cached per
    n, and the ends of the sorted vector stand in for a finiteness test of
    all of it: after the reversal a NaN comes first and an infinity sits at
    an end. On finite floats u - q > 0 exactly when u > q (subnormals keep
    u - q from rounding to 0), so the active test skips the subtraction.
    When the largest entry swamps ``total`` (u_1 - total rounds to u_1), no
    entry passes the test and the support is the largest entry alone: the
    result is then None, and ``Simplex.project`` puts ``total`` on that entry.
    """
    u = x.copy()
    u.sort()
    u = u[::-1]
    if not (math.isfinite(u[0]) and math.isfinite(u[-1])):
        as_vector(x, name="x")  # raises NonFiniteError
    excess = np.add.accumulate(u)
    excess -= total
    active = (u > excess / _ranks(x.size)).nonzero()[0]
    if not active.size:
        return None
    rho = int(active[-1])
    return excess.item(rho) / (rho + 1)


@cache
def _ranks(n: int) -> np.ndarray:
    """1.0, 2.0, ..., n as a read-only array, shared by every threshold of size n."""
    ranks = np.arange(1.0, n + 1.0)
    ranks.setflags(write=False)
    return ranks


def project(cset, x) -> np.ndarray:
    """Nearest point of ``cset`` to ``x`` in the Euclidean norm: ``cset.project`` after a shape check."""
    try:
        kernel = cset.project
    except AttributeError:
        raise TypeError(f"no projection rule for {type(cset).__name__}") from None
    x = np.asarray(x, dtype=float)
    if x.ndim != 1 or x.size != cset.dim:
        _check_dim(cset, x)  # raises
    return kernel(x)


def project_rows(cset, X) -> np.ndarray:
    """Row i of the result is ``project(cset, X[i])``; X is a (C, d) array.

    Sets without a ``project_rows`` method (all but the orthant) loop over the rows.
    """
    X = _check_rows(cset, X)
    kernel = getattr(cset, "project_rows", None)
    if kernel is not None:
        return kernel(X)
    return np.array([project(cset, x) for x in X]).reshape(X.shape)


def contains(cset, x, tol: float = MEMBERSHIP_TOL) -> bool:
    """True iff ``x`` violates every defining constraint of ``cset`` by at most ``tol``."""
    try:
        kernel = cset.contains
    except AttributeError:
        raise TypeError(f"no membership rule for {type(cset).__name__}") from None
    return kernel(_check_dim(cset, x), tol)


def sample(cset: ConvexSet, rng: np.random.Generator, n: int = 1) -> np.ndarray:
    """Draw ``n`` points of ``cset`` as an (n, dim) array.

    Distribution is arbitrary (``cset.sample`` where the set has one, else
    the projection of Gaussians); intended for membership-style property
    checks, not for statistics.
    """
    draw = getattr(cset, "sample", None)
    if draw is not None:
        return draw(rng, n)
    return project_rows(cset, rng.normal(scale=2.0, size=(n, cset.dim)))
