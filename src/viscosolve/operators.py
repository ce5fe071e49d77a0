"""Mapping layer: contractions, nonexpansive maps, cocoercive operators.

A mapping is any callable on 1-D float64 arrays carrying two optional
attributes:

* ``lipschitz``   -- a certified upper bound on its Lipschitz constant
  (None when unknown);
* ``ism_modulus`` -- nu such that <Fx - Fy, x - y> >= nu * ||Fx - Fy||^2
  (inverse strong monotonicity / cocoercivity; None when not certified).

The maps of the theta sweep (:class:`Identity`, :class:`TrigContraction`
and :class:`LeastSquaresGradient`) also evaluate a (C, d) array through
``rows``, bit-identical to calling them on each row; :func:`rows_of` loops
over the rows for every other callable, since no workload batches it.

:class:`ProblemSpec` bundles a constraint set Q with a nonexpansive S, a
cocoercive A and a contraction f, with their certified moduli. The
operators built from them, the step rules and the composite viscosity map
T_t (the explicit rule's step at alpha = t), live in :mod:`viscosolve.solvers`.
"""

from __future__ import annotations

import math
import random
from dataclasses import field, fields, is_dataclass
from typing import Callable, ClassVar

import numpy as np

from .projections import ConvexSet, contains, project, project_rows
from .space import DimensionMismatchError, NonFiniteError, as_vector, record

__all__ = [
    "Identity",
    "TrigContraction",
    "ConstantAnchor",
    "LeastSquaresGradient",
    "AffineMap",
    "RegisteredMapping",
    "register_mapping",
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


@record
class RegisteredMapping:
    """A user-supplied mapping with a declared role and modulus, passed to :class:`ProblemSpec`.

    :func:`register_mapping` builds it after spot-checking the declared
    modulus on random pairs, and refuses on violation, since every
    convergence guarantee hinges on it. ``name`` labels it in those messages.
    """

    name: str
    fn: Callable[[np.ndarray], np.ndarray] = field(repr=False)
    dim: int
    role: str
    modulus: float

    @property
    def lipschitz(self):
        if self.role == "contraction":
            return self.modulus
        if self.role == "nonexpansive":
            return 1.0
        return None

    @property
    def ism_modulus(self):
        return self.modulus if self.role == "ism" else None

    def __call__(self, x):
        return self.fn(x)


_SPOT_CHECK_PAIRS = 1000
_SPOT_CHECK_TOL = 1e-10
_SPOT_CHECK_SEED = 20220702


def register_mapping(
    name: str,
    fn: Callable[[np.ndarray], np.ndarray],
    *,
    dim: int,
    role: str,
    modulus: float | None = None,
) -> RegisteredMapping:
    """``fn`` as a :class:`RegisteredMapping` named ``name``, after spot-checking its declared modulus.

    role="contraction" requires modulus in [0, 1); role="nonexpansive"
    defaults to modulus 1; role="ism" requires modulus > 0. The check draws
    1000 Gaussian pairs and refuses the mapping on any violation beyond
    1e-10.
    """
    if role not in ("contraction", "nonexpansive", "ism"):
        raise ValueError(f"unknown role {role!r}")
    if role == "nonexpansive" and modulus is None:
        modulus = 1.0
    if modulus is None:
        raise ValueError(f"role {role!r} needs an explicit modulus")
    modulus = float(modulus)
    if role == "contraction" and not (0 <= modulus < 1):
        raise ValueError(f"contraction modulus must be in [0, 1), got {modulus}")
    if role == "ism" and not modulus > 0:
        raise ValueError(f"ism modulus must be > 0, got {modulus}")

    rng = np.random.default_rng(_SPOT_CHECK_SEED)
    xs = rng.normal(scale=2.0, size=(_SPOT_CHECK_PAIRS, dim))
    ys = rng.normal(scale=2.0, size=(_SPOT_CHECK_PAIRS, dim))
    for x, y in zip(xs, ys):
        fx, fy = np.asarray(fn(x), dtype=float), np.asarray(fn(y), dtype=float)
        dxy = float(np.linalg.norm(x - y))
        dfxy = float(np.linalg.norm(fx - fy))
        if role in ("contraction", "nonexpansive"):
            bound = modulus if role == "contraction" else 1.0
            if dfxy > bound * dxy + _SPOT_CHECK_TOL:
                raise ValueError(
                    f"mapping {name!r} violates its declared {role} modulus "
                    f"{bound} ({dfxy:.6g} > {bound * dxy:.6g})"
                )
        else:
            lhs = float(np.dot(fx - fy, x - y))
            if lhs < modulus * dfxy**2 - _SPOT_CHECK_TOL:
                raise ValueError(
                    f"mapping {name!r} violates its declared ism modulus {modulus}"
                )
    return RegisteredMapping(name=name, fn=fn, dim=dim, role=role, modulus=modulus)


# --------------------------------------------------------------------------


@record(eq=False)
class ProblemSpec:
    """The quadruple (Q, S, A, f) with its certified moduli.

    Q is a closed convex set, S a nonexpansive self-map of Q, A a cocoercive
    operator with modulus nu > 0, f a contraction with modulus rho < 1. The
    target set is the intersection of the fixed points of S with the
    solutions q of the variational inequality <Aq, x - q> >= 0 on Q;
    ``reference_set_omega`` names that intersection when it is known in
    closed form, enabling the independent reference solver.
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
        # spot-check that f and S map Q into Q
        pts = _spot_points(self.set_Q)
        for label, m in (("S", self.map_S), ("f", self.map_f)):
            for p in pts:
                if not contains(self.set_Q, np.asarray(m(p), dtype=float), 1e-8):
                    raise ValueError(f"map {label} does not map Q into Q (sampled point left Q)")

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
    """The 32 points of ``cset`` on which :class:`ProblemSpec` checks that f and S map Q into Q.

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
