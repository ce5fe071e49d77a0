"""Exact metric projections onto the closed convex sets used by the solvers.

Each set is a small frozen dataclass descriptor; :func:`project` returns the
nearest point in the set, :func:`project_rows` projects every row of a
(C, d) array (the batched solvers' kernel), :func:`contains` tests
membership up to a tolerance, and :func:`sample` draws points of the set
for property checks.

Closed forms:

* orthant / box:  componentwise clamp
* ball:           radial shrink toward the center
* halfspace {x : <n,x> <= c}:   x - max(0, <n,x> - c) / ||n||^2 * n
* hyperplane {x : <n,x> = c}:   x - (<n,x> - c) / ||n||^2 * n
* simplex {x >= 0 : sum x = a}: water-filling threshold, see
  :func:`simplex_threshold`

Each row of :func:`project_rows` equals :func:`project` of that row bit for
bit. Only the orthant, the constraint set of the theta sweep, has a row
kernel (the same clamp on the whole array); every other set steps through a
loop of :func:`project` over the rows, since no workload batches it.
"""

from __future__ import annotations

import math
from dataclasses import dataclass
from functools import cache, singledispatch
from typing import Union

import numpy as np

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
    "simplex_threshold",
    "contains",
    "sample",
]

# Default membership tolerance, commensurate with double-precision projections.
MEMBERSHIP_TOL = 1e-10


class InvalidDescriptorError(ValueError):
    """The convex-set descriptor violates its own invariants."""


@dataclass(frozen=True)
class NonnegOrthant:
    """{x : x_i >= 0 for all i}."""

    dim: int

    def __post_init__(self):
        if self.dim < 1:
            raise InvalidDescriptorError("orthant dimension must be >= 1")


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

    @property
    def dim(self) -> int:
        return self.lo.size


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

    @property
    def dim(self) -> int:
        return self.center.size


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
        object.__setattr__(self, "_normal_sq", float(np.dot(self.normal, self.normal)))  # not a field: digests ignore it

    @property
    def dim(self) -> int:
        return self.normal.size


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
        object.__setattr__(self, "_normal_sq", float(np.dot(self.normal, self.normal)))  # not a field: digests ignore it

    @property
    def dim(self) -> int:
        return self.normal.size


@dataclass(frozen=True)
class Simplex:
    """{x >= 0 : sum_i x_i = total} with total > 0 (a scaled simplex slice)."""

    total: float
    dim: int

    def __post_init__(self):
        object.__setattr__(self, "total", float(self.total))
        if not self.total > 0:
            raise InvalidDescriptorError(f"simplex total must be > 0, got {self.total}")
        if self.dim < 1:
            raise InvalidDescriptorError("simplex dimension must be >= 1")


ConvexSet = Union[NonnegOrthant, Box, Ball, Halfspace, Hyperplane, Simplex]


def _check_dim(cset, x, name="x") -> np.ndarray:
    x = np.asarray(x, dtype=float)
    if x.ndim != 1 or x.size != cset.dim:
        raise DimensionMismatchError(
            f"{name} has shape {x.shape}, set lives in dimension {cset.dim}"
        )
    return x


def simplex_threshold(x, total: float) -> float:
    """Solve sum_k max(x_k - alpha, 0) = total for the unique alpha.

    Sort-based, exact in O(n log n): sort descending, scan cumulative sums for
    the active-support breakpoint. The threshold reproduces the projection
    onto ``Simplex(total, n)`` as max(x - alpha, 0).

    At small n numpy's per-call overhead is the cost, so the methods stand in
    for their wrappers (an in-place sort of a copy for ``np.sort``,
    ``np.add.accumulate`` for ``np.cumsum``), the ranks 1 .. n are cached per
    n, and the ends of the sorted vector stand in for a finiteness test of
    all of it: after the reversal a NaN comes first and an infinity sits at
    an end. On finite floats u - q > 0 exactly when u > q (subnormals keep
    u - q from rounding to 0), so the active test skips the subtraction.
    """
    if not total > 0:
        raise InvalidDescriptorError(f"simplex total must be > 0, got {total}")
    x = np.asarray(x, dtype=float)
    if x.ndim != 1 or not x.size:
        as_vector(x, name="x")  # raises
    u = x.copy()
    u.sort()
    u = u[::-1]
    if not (math.isfinite(u[0]) and math.isfinite(u[-1])):
        as_vector(x, name="x")  # raises NonFiniteError
    excess = np.add.accumulate(u)
    excess -= total
    rho = int((u > excess / _ranks(x.size)).nonzero()[0][-1])
    return excess.item(rho) / (rho + 1)


@cache
def _ranks(n: int) -> np.ndarray:
    """1.0, 2.0, ..., n as a read-only array, shared by every threshold of size n."""
    ranks = np.arange(1.0, n + 1.0)
    ranks.setflags(write=False)
    return ranks


@singledispatch
def project(cset, x) -> np.ndarray:
    """Nearest point of ``cset`` to ``x`` in the Euclidean norm."""
    raise TypeError(f"no projection rule for {type(cset).__name__}")


@project.register
def _(cset: NonnegOrthant, x) -> np.ndarray:
    x = _check_dim(cset, x)
    return np.maximum(x, 0.0)


@project.register
def _(cset: Box, x) -> np.ndarray:
    return _check_dim(cset, x).clip(cset.lo, cset.hi)  # the method np.clip calls, without its wrappers


@project.register
def _(cset: Ball, x) -> np.ndarray:
    x = _check_dim(cset, x)
    d = x - cset.center
    dist = math.sqrt(np.dot(d, d))
    if dist <= cset.radius:
        return x.copy()
    return cset.center + (cset.radius / dist) * d


@project.register
def _(cset: Halfspace, x) -> np.ndarray:
    x = _check_dim(cset, x)
    excess = float(np.dot(cset.normal, x)) - cset.offset
    if excess <= 0:
        return x.copy()
    return x - (excess / cset._normal_sq) * cset.normal


@project.register
def _(cset: Hyperplane, x) -> np.ndarray:
    x = _check_dim(cset, x)
    excess = float(np.dot(cset.normal, x)) - cset.offset
    return x - (excess / cset._normal_sq) * cset.normal


@project.register
def _(cset: Simplex, x) -> np.ndarray:
    x = _check_dim(cset, x)
    alpha = simplex_threshold(x, cset.total)
    return np.maximum(x - alpha, 0.0)


def _check_rows(cset, X) -> np.ndarray:
    X = np.asarray(X, dtype=float)
    if X.ndim != 2 or X.shape[1] != cset.dim:
        raise DimensionMismatchError(
            f"rows have shape {X.shape}, set lives in dimension {cset.dim}"
        )
    return X


@singledispatch
def project_rows(cset, X) -> np.ndarray:
    """Row i of the result is ``project(cset, X[i])``; X is a (C, d) array.

    Sets without a row kernel (all but the orthant) loop over the rows.
    """
    X = _check_rows(cset, X)
    return np.array([project(cset, x) for x in X]).reshape(X.shape)


@project_rows.register
def _(cset: NonnegOrthant, X) -> np.ndarray:
    return np.maximum(_check_rows(cset, X), 0.0)


@singledispatch
def contains(cset, x, tol: float = MEMBERSHIP_TOL) -> bool:
    """True iff ``x`` violates every defining constraint of ``cset`` by at most ``tol``."""
    raise TypeError(f"no membership rule for {type(cset).__name__}")


@contains.register
def _(cset: NonnegOrthant, x, tol: float = MEMBERSHIP_TOL) -> bool:
    x = _check_dim(cset, x)
    return bool(np.all(x >= -tol))


@contains.register
def _(cset: Box, x, tol: float = MEMBERSHIP_TOL) -> bool:
    x = _check_dim(cset, x)
    return bool(np.all(x >= cset.lo - tol) and np.all(x <= cset.hi + tol))


@contains.register
def _(cset: Ball, x, tol: float = MEMBERSHIP_TOL) -> bool:
    x = _check_dim(cset, x)
    d = x - cset.center
    return float(np.sqrt(np.dot(d, d))) <= cset.radius + tol


@contains.register
def _(cset: Halfspace, x, tol: float = MEMBERSHIP_TOL) -> bool:
    x = _check_dim(cset, x)
    return float(np.dot(cset.normal, x)) <= cset.offset + tol


@contains.register
def _(cset: Hyperplane, x, tol: float = MEMBERSHIP_TOL) -> bool:
    x = _check_dim(cset, x)
    return abs(float(np.dot(cset.normal, x)) - cset.offset) <= tol


@contains.register
def _(cset: Simplex, x, tol: float = MEMBERSHIP_TOL) -> bool:
    x = _check_dim(cset, x)
    return bool(np.all(x >= -tol)) and abs(float(np.sum(x)) - cset.total) <= tol


def sample(cset: ConvexSet, rng: np.random.Generator, n: int = 1) -> np.ndarray:
    """Draw ``n`` points of ``cset`` as an (n, dim) array.

    Distribution is arbitrary (projection of Gaussians for the constrained
    sets); intended for membership-style property checks, not for statistics.
    """
    d = cset.dim
    if isinstance(cset, NonnegOrthant):
        return np.abs(rng.normal(scale=2.0, size=(n, d)))
    if isinstance(cset, Box):
        return rng.uniform(cset.lo, cset.hi, size=(n, d))
    if isinstance(cset, Ball):
        dirs = rng.normal(size=(n, d))
        dirs /= np.linalg.norm(dirs, axis=1, keepdims=True)
        radii = cset.radius * rng.random(n) ** (1.0 / d)
        return cset.center + radii[:, None] * dirs
    return project_rows(cset, rng.normal(scale=2.0, size=(n, d)))
