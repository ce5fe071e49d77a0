"""Mapping layer: contractions, nonexpansive maps, cocoercive operators.

A mapping is any callable on 1-D float64 arrays with a ``dim`` (Q's when
absent) and the modulus of its role in :class:`ProblemSpec`; the built-in
maps carry both:

* ``lipschitz``   -- an upper bound on its Lipschitz constant (None when
  unknown);
* ``ism_modulus`` -- nu such that <Fx - Fy, x - y> >= nu * ||Fx - Fy||^2
  (inverse strong monotonicity / cocoercivity; None when there is none).

:class:`Identity`, :class:`TrigContraction` and :class:`LeastSquaresGradient`
also evaluate a (C, d) array through ``rows``, bit-identical to calling them
on each row; :func:`rows_of` loops over the rows for every other callable:
:class:`ConstantAnchor`, :class:`AffineMap` and user maps.

:class:`ProblemSpec` bundles a constraint set Q with a nonexpansive S, a
cocoercive A and a contraction f, and checks each declared modulus on Q. The
operators built from them, the step rules and the composite viscosity map
T_t (the explicit rule's step at alpha = t), live in :mod:`viscosolve.solvers`.
"""

from __future__ import annotations

import math
import random
from dataclasses import fields, is_dataclass
from typing import Callable, ClassVar

import numpy as np

from .projections import ConvexSet, contains, project, project_rows
from .space import DimensionMismatchError, NonFiniteError, as_vector, record, row_inners, row_norms

__all__ = [
    "Identity",
    "TrigContraction",
    "ConstantAnchor",
    "LeastSquaresGradient",
    "AffineMap",
    "ProblemSpec",
    "rows_of",
]


@record
class Identity:
    dim: int
    lipschitz: ClassVar[float] = 1.0
    ism_modulus: ClassVar[float] = 1.0

    def __call__(self, x):
        return x

    def rows(self, X):
        return X


@record
class TrigContraction:
    """f(x) = ((5 + cos(x1 + x2)) / 2, (6 - sin(x1 + x2)) / 2) on the plane.

    Depends on the input only through the coordinate sum; the mean value
    theorem certifies the Lipschitz modulus sqrt(2)/2 (the exact modulus may
    be smaller). Maps the nonnegative quadrant into [2, 3] x [2.5, 3.5].
    """

    dim: ClassVar[int] = 2
    lipschitz: ClassVar[float] = math.sqrt(2) / 2
    ism_modulus: ClassVar[None] = None

    def __call__(self, x):
        s = float(x[0]) + float(x[1])
        try:
            return np.array([(5.0 + math.cos(s)) / 2.0, (6.0 - math.sin(s)) / 2.0])
        except ValueError:  # math.cos of an infinite sum
            raise NonFiniteError(f"coordinate sum {s} is not finite") from None

    def rows(self, X):
        # the __call__ formula per row, with math.cos / math.sin (np.cos may round differently), into a
        # C-contiguous (C, 2) array: a transposed (2, C) one costs each later product about twice as much
        s = (X[:, 0] + X[:, 1]).tolist()
        out = np.empty((len(s), 2))
        try:
            out[:, 0] = [(5.0 + math.cos(v)) / 2.0 for v in s]
            out[:, 1] = [(6.0 - math.sin(v)) / 2.0 for v in s]
        except ValueError:
            raise NonFiniteError("a coordinate sum is not finite") from None
        return out


@record(eq=False)
class ConstantAnchor:
    """f(x) = value for all x; the degenerate contraction (modulus 0)."""

    value: np.ndarray
    lipschitz: ClassVar[float] = 0.0
    ism_modulus: ClassVar[None] = None

    def __post_init__(self):
        object.__setattr__(self, "value", as_vector(self.value, name="anchor"))
        self.value.setflags(write=False)

    @property
    def dim(self) -> int:
        return self.value.size

    def __call__(self, x):
        return self.value


@record(eq=False)
class LeastSquaresGradient:
    """A(x) = B^T (B x - b), the gradient of phi(x) = 0.5 ||B x - b||^2.

    Lipschitz constant L = lambda_max(B^T B); by the Baillon-Haddad theorem
    the gradient of a convex L-smooth function is (1/L)-cocoercive, so
    ``ism_modulus`` is always the derived 1/L, never user-supplied.
    """

    B: np.ndarray
    b: np.ndarray

    def __post_init__(self):
        B = np.asarray(self.B, dtype=float)
        if B.ndim != 2 or B.size == 0:
            raise ValueError(f"B must be a nonempty 2-D matrix, got shape {B.shape}")
        if not np.isfinite(B).all():
            raise NonFiniteError("B contains NaN or Inf")
        b = as_vector(self.b, dim=B.shape[0], name="b")
        B.setflags(write=False)
        b.setflags(write=False)
        object.__setattr__(self, "B", B)
        object.__setattr__(self, "b", b)
        with np.errstate(over="ignore", invalid="ignore"):  # a product that overflows is refused below
            gram, bt_b = B.T @ B, B.T @ b
        if not (np.isfinite(gram).all() and np.isfinite(bt_b).all()):
            raise NonFiniteError("B^T B or B^T b overflows")
        if not np.any(B != 0):
            raise ValueError("B must be a nonzero 2-D matrix")
        object.__setattr__(self, "_gram", gram)
        object.__setattr__(self, "_bt_b", bt_b)
        object.__setattr__(self, "lipschitz", float(np.linalg.eigvalsh(gram)[-1]))

    @property
    def dim(self) -> int:
        return self.B.shape[1]

    @property
    def ism_modulus(self) -> float:
        return 1.0 / self.lipschitz

    def __call__(self, x):
        return self._gram.dot(x) - self._bt_b  # ndarray.dot: the gemv of ``@``, with less dispatch

    def rows(self, X):
        # stacked matrix-vector products: the same BLAS gemv per row as __call__
        return np.matmul(self._gram, X[:, :, None])[:, :, 0] - self._bt_b

    def objective(self, x) -> float:
        """phi(x) = 0.5 ||B x - b||^2."""
        r = self.B @ x - self.b
        return 0.5 * float(np.dot(r, r))


@record(eq=False)
class AffineMap:
    """x -> M x + c with Lipschitz bound ||M||_2."""

    M: np.ndarray
    c: np.ndarray

    def __post_init__(self):
        M = np.asarray(self.M, dtype=float)
        if M.ndim != 2 or M.shape[0] != M.shape[1]:
            raise ValueError(f"M must be square, got shape {M.shape}")
        if not np.isfinite(M).all():
            raise NonFiniteError("M contains NaN or Inf")
        c = as_vector(self.c, dim=M.shape[0], name="c")
        M.setflags(write=False)
        c.setflags(write=False)
        object.__setattr__(self, "M", M)
        object.__setattr__(self, "c", c)
        object.__setattr__(self, "lipschitz", float(np.linalg.norm(M, 2)))

    ism_modulus: ClassVar[None] = None

    @property
    def dim(self) -> int:
        return self.M.shape[0]

    def __call__(self, x):
        return self.M @ x + self.c


# --------------------------------------------------------------------------

_SPOT_CHECK_SEED = 20220702
_MODULUS_TOL = 1e-10


@record(eq=False)
class ProblemSpec:
    """The quadruple (Q, S, A, f) with its certified moduli.

    Q is a closed convex set, S a nonexpansive self-map of Q, A a cocoercive
    operator with modulus nu > 0, f a contraction with modulus rho < 1. The
    target set is the intersection of the fixed points of S with the
    solutions q of the variational inequality <Aq, x - q> >= 0 on Q;
    ``reference_set_omega`` names that intersection when it is known in
    closed form, enabling the independent reference solver.

    Each map is evaluated once on the 32 spot points of Q (:func:`_spot_points`).
    S and f must map them into Q (up to 1e-8), and on the 32 cyclic pairs
    (x_i, x_{i+1 mod 32}) each map must keep its declared modulus:
    ||Sx - Sy|| <= ``lipschitz`` ||x - y||, ||fx - fy|| <= rho ||x - y|| and
    <Ax - Ay, x - y> >= nu ||Ax - Ay||^2. A pair may miss its inequality by
    1e-10 times its magnitudes: ||Fx|| + ||Fy|| + L (||x|| + ||y||) for a
    Lipschitz bound L, and (nu (||Ax|| + ||Ay||) + ||x|| + ||y||)^2 / nu for
    the cocoercivity, the scales of their rounding.
    """

    set_Q: ConvexSet
    map_S: Callable
    map_A: Callable
    map_f: Callable
    reference_set_omega: ConvexSet | None = None

    def __post_init__(self):
        d = self.set_Q.dim
        for label, m in (("S", self.map_S), ("A", self.map_A), ("f", self.map_f)):
            mdim = getattr(m, "dim", d)
            if mdim != d:
                raise DimensionMismatchError(
                    f"map {label} has dimension {mdim}, set Q has {d}"
                )
        if self.reference_set_omega is not None and self.reference_set_omega.dim != d:
            raise DimensionMismatchError("reference set dimension differs from Q")
        rho = getattr(self.map_f, "lipschitz", None)
        if rho is None or not (0 <= rho < 1):
            raise ValueError(f"map_f must carry a contraction modulus in [0, 1), got {rho}")
        s_lip = getattr(self.map_S, "lipschitz", None)
        if s_lip is None or s_lip > 1:
            raise ValueError(f"map_S must carry a Lipschitz bound <= 1, got {s_lip}")
        nu = getattr(self.map_A, "ism_modulus", None)
        if nu is None or not nu > 0:
            raise ValueError(f"map_A must carry a cocoercivity modulus > 0, got {nu}")
        pts = _spot_points(self.set_Q)
        with np.errstate(over="ignore", invalid="ignore"):  # an overflow reads inf or NaN, and a NaN fails its test
            images = {label: rows_of(m)(pts) for label, m in (("S", self.map_S), ("f", self.map_f), ("A", self.map_A))}
            for label in "Sf":
                if not all(contains(self.set_Q, p, 1e-8) for p in images[label]):
                    raise ValueError(f"map {label} does not map Q into Q (sampled point left Q)")
            nxt, nX = np.roll(np.arange(len(pts)), -1), row_norms(pts)  # the pairs (x_i, x_{i+1 mod 32})
            dX, mX = pts - pts[nxt], nX + nX[nxt]
            for label, name, modulus in (("S", "lipschitz", s_lip), ("f", "lipschitz", rho), ("A", "ism_modulus", nu)):
                F, nF = images[label], row_norms(images[label])
                dF, mF = F - F[nxt], nF + nF[nxt]
                if label == "A":
                    gap, scale = nu * row_inners(dF, dF) - row_inners(dF, dX), (nu * mF + mX) ** 2 / nu
                else:
                    gap, scale = row_norms(dF) - modulus * row_norms(dX), mF + modulus * mX
                bad = ~(gap <= _MODULUS_TOL * scale)  # a NaN fails too
                if bad.any():
                    raise ValueError(f"map {label} breaks its declared {name} = {modulus:g} on Q: a pair of "
                                     f"sampled points misses its inequality by {gap[bad].max():.3g}")

    @property
    def dim(self) -> int:
        return self.set_Q.dim

    @property
    def rho(self) -> float:
        return float(self.map_f.lipschitz)

    @property
    def sigma(self) -> float:
        """1 - rho, the contraction gap driving every rate below."""
        return 1.0 - self.rho

    @property
    def nu(self) -> float:
        return float(self.map_A.ism_modulus)


def _spot_points(cset) -> np.ndarray:
    """The 32 points of ``cset`` on which :class:`ProblemSpec` checks each map.

    Sixteen are projections onto ``cset`` of a fixed spread around the point
    of ``cset`` nearest the origin: eight points 2u - 1 of [-1, 1)^d, u from a
    seeded ``random.Random`` (MT19937 is integer arithmetic, so the points are
    the same on every platform), at scales 16**-4 .. 16**3, and their
    negations, so that each coordinate is met from both sides at every scale.
    A projection from outside lies on the boundary. While the whole spread
    lies in ``cset`` (a boundary more than 4096 from the centre), it grows by
    16, at most twice: farther out the projections' rounding nears the
    check's 1e-8. The other sixteen are a chain of midpoints, each the
    midpoint of the last one and the next projection, so in Q by convexity:
    the later ones mix all sixteen projections and lie in the interior when
    any projection does, or when two of them differ on a ball.
    """
    draw = random.Random(_SPOT_CHECK_SEED).random
    unit = 2.0 * np.array([draw() for _ in range(8 * cset.dim)], float).reshape(8, cset.dim) - 1.0
    centre = project(cset, np.zeros(cset.dim))
    for top in (12, 16, 20):  # scales 2**(top - 28) .. 2**top, exact: 16**-4 .. 16**3, then 16 and 256 times those
        spread = unit * np.ldexp(1.0, np.arange(top - 28, top + 1, 4))[:, None]
        starts = centre + np.concatenate([spread, -spread])
        ends = project_rows(cset, starts)
        if not np.array_equal(ends, starts):  # a projection met the boundary
            break
    mids = np.empty_like(ends)
    last = ends[-1]
    for i, end in enumerate(ends):
        last = mids[i] = 0.5 * (last + end)
    return np.concatenate([ends, mids])


def _jsonable(obj):
    """``obj`` as JSON-ready data: dataclasses by type name and fields, arrays as lists, callables by name."""
    if is_dataclass(obj) and not isinstance(obj, type):
        out = {"type": type(obj).__name__}
        for f in fields(obj):
            out[f.name] = _jsonable(getattr(obj, f.name))
        return out
    if isinstance(obj, np.ndarray):
        return obj.tolist()
    if isinstance(obj, (np.floating, np.integer)):
        return obj.item()
    if isinstance(obj, (list, tuple)):
        return [_jsonable(v) for v in obj]
    if isinstance(obj, dict):
        return {str(k): _jsonable(v) for k, v in obj.items()}
    if callable(obj):
        return getattr(obj, "__qualname__", type(obj).__name__)
    return obj


def rows_of(mapping) -> Callable[[np.ndarray], np.ndarray]:
    """``mapping`` on (C, d) arrays, row by row: its ``rows`` method, else a loop over the rows."""
    rows = getattr(mapping, "rows", None)
    if rows is not None:
        return rows
    return lambda X: np.array([np.asarray(mapping(x), dtype=float) for x in X]).reshape(np.shape(X))
