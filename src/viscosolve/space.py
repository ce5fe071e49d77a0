"""Euclidean substrate: dense 1-D float64 vectors with the standard inner product.

Vectors are plain numpy arrays. Every operation is a pure function; nothing
here mutates its inputs. NaN/Inf are rejected at operation boundaries so that
iterative loops fail fast instead of silently propagating garbage.
"""

from __future__ import annotations

import numpy as np

__all__ = [
    "DEFAULT_TOL",
    "DimensionMismatchError",
    "NonFiniteError",
    "as_vector",
    "inner",
    "norm",
    "row_inners",
    "row_norms",
]

# Absolute tolerance for scalar/vector equality checks throughout the library.
DEFAULT_TOL = 1e-12


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


def inner(x: np.ndarray, y: np.ndarray) -> float:
    """Standard inner product sum_i x_i * y_i."""
    if np.shape(x) != np.shape(y):
        raise DimensionMismatchError(
            f"inner product needs equal dimensions, got {np.shape(x)} and {np.shape(y)}"
        )
    out = float(np.dot(x, y))
    if not np.isfinite(out):
        raise NonFiniteError("inner product is not finite (NaN/Inf or overflowing input)")
    return out


def norm(x: np.ndarray) -> float:
    """Norm induced by :func:`inner`; zero iff x is the zero vector."""
    out = float(np.sqrt(np.dot(x, x)))
    if not np.isfinite(out):
        raise NonFiniteError("norm is not finite (NaN/Inf or overflowing input)")
    return out


def row_inners(X: np.ndarray, Y: np.ndarray) -> np.ndarray:
    """:func:`inner` of each pair of rows of the (C, d) arrays X and Y, bit for bit, without the checks.

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
