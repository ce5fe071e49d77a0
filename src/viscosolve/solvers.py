"""Iterative solvers for the constrained fixed-point / variational-inequality problem.

Step rules (P = projection onto Q, S nonexpansive, A cocoercive, f a
contraction, u a fixed anchor in Q):

* explicit_viscosity:  x+ = a f(x) + (1 - a) S P(x - l A x)
* perturbed:           x+ = P(a f(x) + (1 - a) S P(x - l A x) + e)
* takahashi_toyoda:    x+ = a x + (1 - a) S P(x - l A x)
* halpern:             x+ = a u + (1 - a) S P(x - l A x)
* yao_outer:           x+ = b x + (1 - b) P(a u + (1 - a) S P(x - l A x))
* yao_inner:           x+ = b x + (1 - b) S P(a u + (1 - a)(x - l A x))

plus the implicit path x_t = T_t(x_t), T_t (:func:`viscosity_map`) being the
explicit_viscosity step at a = t, and the reference solver for the limit point
(the fixed point of P_Omega . f), both solved by one safeguarded Anderson loop.
"""

from __future__ import annotations

import contextlib
import hashlib
import json
import math
import warnings
from collections import deque, namedtuple
from dataclasses import dataclass, field
from functools import partial
from typing import Callable

import numpy as np

from .__about__ import __version__ as _VERSION
from .operators import ParameterError, ProblemSpec, _jsonable, rows_of
from .projections import contains, project, project_rows
from .schedules import (
    NoPerturbation,
    Perturbation,
    ScheduleSpec,
    ScheduleViolationError,
    ScheduleViolationWarning,
    TableLambda,
    _block_steps,
    _check_horizon,
    _generator,
    _MAX_BYTES,
    _integer,
    alpha_at,  # not called here: bench/tests reads solvers.alpha_at, with project, norm and run
    perturbation_stream,
    tabulate,
)
from .space import NonFiniteError, as_vector, norm, row_norms

__all__ = [
    "EXPLICIT_VISCOSITY",
    "PERTURBED",
    "TAKAHASHI_TOYODA",
    "HALPERN",
    "YAO_OUTER",
    "YAO_INNER",
    "ALGORITHMS",
    "ConfigurationError",
    "DivergenceError",
    "NonConvergenceError",
    "SolverConfig",
    "RunTrace",
    "ImplicitConfig",
    "PathPoint",
    "run",
    "run_batch",
    "viscosity_map",
    "implicit_path",
    "reference_solution",
    "config_digest",
]

EXPLICIT_VISCOSITY = "explicit_viscosity"
PERTURBED = "perturbed"
TAKAHASHI_TOYODA = "takahashi_toyoda"
HALPERN = "halpern"
YAO_OUTER = "yao_outer"
YAO_INNER = "yao_inner"
ALGORITHMS = (
    EXPLICIT_VISCOSITY,
    PERTURBED,
    TAKAHASHI_TOYODA,
    HALPERN,
    YAO_OUTER,
    YAO_INNER,
)

_X1_TOL = 1e-10
_AA_DEPTH = 5  # Anderson memory of the contraction solver


class ConfigurationError(ValueError):
    """The configuration is structurally unusable (missing pieces, bad fields)."""


class DivergenceError(RuntimeError):
    """An iterate left the finite floats; carries the last finite state."""

    def __init__(self, message: str, last_state: np.ndarray, step: int):
        super().__init__(message)
        self.last_state = last_state
        self.step = step


class NonConvergenceError(RuntimeError):
    """A fixed-point solve hit its iteration cap; carries the final residual."""

    def __init__(self, message: str, residual: float, iterations: int):
        super().__init__(message)
        self.residual = residual
        self.iterations = iterations


@dataclass(frozen=True, eq=False)
class SolverConfig:
    """One run: problem + schedules + start point + stopping/recording policy."""

    problem: ProblemSpec
    schedule: ScheduleSpec
    x1: np.ndarray
    n_max: int
    algorithm: str = EXPLICIT_VISCOSITY
    perturbation: Perturbation = field(default_factory=NoPerturbation)
    anchor: np.ndarray | None = None
    beta: float = 0.5
    reference: np.ndarray | str | None = None  # or "auto": q* (see _target_point), solved after every other check
    rel_err_target: float | None = None
    record_stride: int = 1
    strict_schedule: bool = False

    def __post_init__(self):
        if self.algorithm not in ALGORITHMS:
            raise ConfigurationError(
                f"unknown algorithm {self.algorithm!r}; choose from {ALGORITHMS}"
            )
        x1 = _point_of_Q(self.problem, self.x1, "x1")
        x1.setflags(write=False)
        object.__setattr__(self, "x1", x1)
        object.__setattr__(self, "n_max", _integer(self.n_max, "n_max", 1, ConfigurationError))
        object.__setattr__(self, "record_stride", _integer(self.record_stride, "record_stride", 1, ConfigurationError))
        if self.algorithm in (HALPERN, YAO_OUTER, YAO_INNER):
            if self.anchor is None:
                raise ConfigurationError(f"algorithm {self.algorithm!r} needs an anchor point")
            u = _point_of_Q(self.problem, self.anchor, "anchor")
            u.setflags(write=False)
            object.__setattr__(self, "anchor", u)
        if self.algorithm in (YAO_OUTER, YAO_INNER) and not (0 <= self.beta < 1):
            raise ConfigurationError(f"beta must be in [0, 1), got {self.beta}")
        if self.rel_err_target is not None:
            target = float(self.rel_err_target)
            if not (math.isfinite(target) and target >= 0):  # a NaN target would never stop the run
                raise ConfigurationError(f"rel_err_target must be finite and >= 0, got {target}")
            object.__setattr__(self, "rel_err_target", target)
        _check_records(self)
        auto = isinstance(self.reference, str) and self.reference == "auto"
        ref = _target_point(self.problem) if auto else self.reference
        if ref is not None:
            ref = as_vector(ref, dim=self.problem.dim, name="reference")
            with np.errstate(over="ignore"):  # a norm that overflows is refused, as a zero norm is
                nref = _vector_norm(ref)
            if not 0 < nref < math.inf:
                raise ConfigurationError(f"reference must have a finite nonzero norm: rel_err divides by it, got {nref}")
            ref.setflags(write=False)
        object.__setattr__(self, "reference", ref)
        if self.rel_err_target is not None and ref is None:
            raise ConfigurationError("rel_err_target needs a reference point")


def _check_records(cfg: SolverConfig, rows: int = 1) -> None:
    """Refuse ``rows`` runs of ``cfg`` whose record arrays numpy would refuse to size.

    A run records k = 1, 1 + stride, ... and n_max: (records, d) iterates and
    (3, records) schedule values a row, allocated before its first step.
    """
    n, stride = cfg.n_max, cfg.record_stride
    records = (n - 1) // stride + 1 + ((n - 1) % stride > 0)
    if rows * records * max(cfg.problem.dim, 3) * 8 > _MAX_BYTES:
        raise ConfigurationError(
            f"{rows} run(s) of {records} records in dimension {cfg.problem.dim} "
            f"(n_max {n}, record_stride {stride}) are more than numpy can size"
        )


def _point_of_Q(problem: ProblemSpec, x, name: str) -> np.ndarray:
    """``x`` as a vector (:func:`~viscosolve.space.as_vector`) of Q up to ``_X1_TOL``, else a ConfigurationError."""
    v = as_vector(x, dim=problem.dim, name=name)
    if not contains(problem.set_Q, v, _X1_TOL):
        raise ConfigurationError(f"{name} = {v!r} is not in Q (tolerance {_X1_TOL})")
    return v


_CSV_CHUNK = 1000  # trace rows formatted per write


def _csv_cells(values: np.ndarray) -> list[str]:
    """repr of each entry of a 1-D array (str for ints).

    float64 and int64 arrays go through orjson's compiled formatter. For
    int64 it writes repr's digits, at about a third of the cost of one repr
    of the list. For float64 it picks the same shortest round-trip digits as
    repr, and its layout is repr's for 0 and for 1e-4 <= |v| < 1e16; below
    1e-5 and from 1e16 up both write exponent form and differ only in its
    text, which is rewritten on the joined column: repr pads one-digit
    exponents, which occur exactly for 1e-9 <= |v| < 1e-5 (orjson's
    ``5e-7`` is ``5e-07``), and signs positive ones (``1e16`` is
    ``1e+16``). Only the 0.0000d... band (1e-5 <= |v| < 1e-4, repr's
    ``3.21e-05``) and inf / nan (orjson's null) take their repr. Other
    dtypes take one repr of the list.
    """
    if values.dtype not in (np.float64, np.int64):
        return repr(values.tolist())[1:-1].split(", ")
    import orjson  # loaded on the first trace write, not at ``import viscosolve``

    text = orjson.dumps(np.ascontiguousarray(values), option=orjson.OPT_SERIALIZE_NUMPY)[1:-1].decode()
    if values.dtype == np.int64:
        return text.split(",")
    text += ","  # each cell ends in a comma, so "e-6," never matches "e-60,"
    mag = np.abs(values)
    if ((mag >= 1e-9) & (mag < 1e-5)).any():  # a scan of the text costs more than this test
        if ((mag > 0) & (mag < 1e-9)).any():  # two- and three-digit exponents stay as they are
            for digit in "6789":
                text = text.replace(f"e-{digit},", f"e-0{digit},")
        else:  # every negative exponent has one digit
            text = text.replace("e-", "e-0")
    if (mag >= 1e16).any():
        text = text.replace("e", "e+").replace("e+-", "e-")
    cells = text.split(",")[:-1]
    in_band = (mag < 1e-5) | ((mag >= 1e-4) & (mag < np.inf))  # False for inf and nan
    out = np.flatnonzero(~in_band)
    for i, cell in zip(out.tolist(), repr(values[out].tolist())[1:-1].split(", ")):
        cells[i] = cell
    return cells


def _schedule_cells(col: np.ndarray) -> list[str]:
    """:func:`_csv_cells`, formatting a column of one repeated value (such as a constant lambda) once."""
    if (col.view(np.uint64) == col[:1].view(np.uint64)).all():
        return [repr(float(col[0]))] * col.size
    return _csv_cells(col)


def _same_bits(a: np.ndarray, b: np.ndarray) -> bool:
    """Whether two 1-D columns are equal bit for bit: 0.0 and -0.0, or two NaN payloads, differ."""
    if a.dtype != b.dtype or a.shape != b.shape:
        return False
    bits = np.dtype(f"u{a.dtype.itemsize}")
    return bool((a.view(bits) == b.view(bits)).all())


def _write_traces(items) -> None:
    """Write each ``(trace, path)`` of ``items`` as CSV: one row per record, shortest round-trip floats.

    A trace is formatted column by column in chunks of ``_CSV_CHUNK`` rows.
    The k, lambda and e_norm chunks of the last trace written are kept with
    their cells, per chunk start; a chunk bit-equal to the kept one takes
    those cells instead of being formatted again. The cells of one sweep
    seed share all three, so writing them back to back formats each once.
    alpha is not kept: consecutive cells of one seed never share a theta.
    What is kept is one trace's shared cells, however many traces follow,
    and nothing while the last trace is written.
    """
    items = list(items)
    kept = {}  # (column, chunk start) -> (values, cells)

    def shared(name, values, lo, fmt, keep):
        old = kept.get((name, lo))
        if old is not None and _same_bits(old[0], values):
            return old[1]
        cells = fmt(values)
        if keep:
            kept[name, lo] = values, cells
        return cells

    for n, (trace, path) in enumerate(items, 1):
        keep = n < len(items)  # a trace follows that may reuse the cells
        d = trace.x.shape[1]
        header = "k," + ",".join(f"x{i + 1}" for i in range(d)) + ",alpha,lambda,e_norm,rel_err"
        with open(path, "w") as fh:
            fh.write(header + "\n")
            for lo in range(0, trace.k.size, _CSV_CHUNK):
                rows = slice(lo, lo + _CSV_CHUNK)
                x = _csv_cells(trace.x[rows].ravel())
                cols = [shared("k", trace.k[rows], lo, _csv_cells, keep)] + [x[i::d] for i in range(d)]
                cols.append(_schedule_cells(trace.alpha[rows]))
                cols.append(shared("lam", trace.lam[rows], lo, _schedule_cells, keep))
                cols.append(shared("e_norm", trace.e_norm[rows], lo, _schedule_cells, keep))
                cols.append(_csv_cells(trace.rel_err[rows]) if trace.rel_err is not None else [""] * len(cols[0]))
                fh.write("\n".join(map(",".join, zip(*cols))) + "\n")


@dataclass(frozen=True, eq=False)
class RunTrace:
    """Per-iteration records of one run, plus run metadata.

    Row j holds the iterate x_k with k = k[j], the schedule values at k and,
    when a reference point was supplied, rel_err_k = ||x_k - ref|| / ||ref||.
    """

    k: np.ndarray
    x: np.ndarray
    alpha: np.ndarray
    lam: np.ndarray
    e_norm: np.ndarray
    rel_err: np.ndarray | None
    metadata: dict

    @property
    def final(self) -> np.ndarray:
        return self.x[-1]

    def min_rel_err(self) -> float:
        if self.rel_err is None:
            raise ValueError("trace has no rel_err column (no reference was supplied)")
        return float(self.rel_err.min())

    def first_hit(self, eps: float) -> int | None:
        """Smallest recorded k with rel_err_k <= eps, or None if never reached."""
        if self.rel_err is None:
            raise ValueError("trace has no rel_err column (no reference was supplied)")
        idx = np.nonzero(self.rel_err <= eps)[0]
        return int(self.k[idx[0]]) if idx.size else None

    def write_csv(self, path) -> None:
        """One row per record, shortest round-trip floats; written column by column in chunks."""
        _write_traces([(self, path)])

    def write_meta(self, path) -> None:
        with open(path, "w") as fh:
            for key in sorted(self.metadata):
                fh.write(f"{key}: {self.metadata[key]}\n")


# --------------------------------------------------------------------------
# step rules, written once over the rows of a (C, d) array: a builder takes
# P_Q, A, f and S and returns step(X, a, ca, lam, E, U, B, cB), where a, ca
# and lam are the (C, 1) columns of alpha_k, 1 - alpha_k and lambda_k, E holds
# the rows of e_k, U the anchors and B and cB the (C, 1) columns of beta and
# 1 - beta. Fed the problem's 1-D maps and projection, the same step moves one
# 1-D iterate with 0-d coefficients. Every rule applies the forward-backward
# map P(X - lam A(X)).


def _explicit(P, A, f, S):
    return lambda X, a, ca, lam, E, U, B, cB: a * f(X) + ca * S(P(X - lam * A(X)))


def _perturbed(P, A, f, S):
    return lambda X, a, ca, lam, E, U, B, cB: P(a * f(X) + ca * S(P(X - lam * A(X))) + E)


def _takahashi_toyoda(P, A, f, S):
    return lambda X, a, ca, lam, E, U, B, cB: a * X + ca * S(P(X - lam * A(X)))


def _halpern(P, A, f, S):
    return lambda X, a, ca, lam, E, U, B, cB: a * U + ca * S(P(X - lam * A(X)))


def _yao_outer(P, A, f, S):
    return lambda X, a, ca, lam, E, U, B, cB: B * X + cB * P(a * U + ca * S(P(X - lam * A(X))))


def _yao_inner(P, A, f, S):
    return lambda X, a, ca, lam, E, U, B, cB: B * X + cB * S(P(a * U + ca * (X - lam * A(X))))


_RULES = {
    EXPLICIT_VISCOSITY: _explicit,
    PERTURBED: _perturbed,
    TAKAHASHI_TOYODA: _takahashi_toyoda,
    HALPERN: _halpern,
    YAO_OUTER: _yao_outer,
    YAO_INNER: _yao_inner,
}


def _build_step(problem: ProblemSpec, rule: str, rows: bool = False) -> Callable:
    """``rule``'s step on ``problem``, on (C, d) rows or on one vector.

    Rows go through the set's ``project_rows`` method (else the checked
    per-row loop) and ``rows_of`` each map. One vector goes through the
    problem's maps and ``partial(project, Q)``: this module's name ``project``
    is read here, once per built step, so every projection keeps its shape
    check and a function put in its place before a run (a call counter, say)
    sees each of the run's projections.
    """
    Q, maps = problem.set_Q, (problem.map_A, problem.map_f, problem.map_S)
    if rows:
        P = getattr(Q, "project_rows", None) or partial(project_rows, Q)
        return _RULES[rule](P, *(rows_of(m) for m in maps))
    return _RULES[rule](partial(project, Q), *maps)


def viscosity_map(x, problem: ProblemSpec, t: float, mu: float) -> np.ndarray:
    """T_t(x) = t f(x) + (1 - t) S(P_Q(x - mu A(x))): the explicit_viscosity step at alpha = t, lambda = mu.

    Lipschitz with factor <= 1 - sigma * t where sigma = 1 - rho, hence a
    strict contraction for every t in (0, 1] and mu in [0, 2 nu]; a mu
    outside that interval warns. A (C, d) array ``x`` is mapped row by row
    through the row kernels, each row bit-identical to its 1-D call.
    """
    if not (0 < t <= 1):
        raise ParameterError(f"t must be in (0, 1], got {t}")
    nu = problem.nu
    if mu < 0 or mu > 2 * nu:
        warnings.warn(f"lambda = {mu} outside [0, 2*nu = {2 * nu}]", ScheduleViolationWarning, stacklevel=2)
    return _build_step(problem, EXPLICIT_VISCOSITY, rows=np.ndim(x) == 2)(x, t, 1.0 - t, mu, None, None, None, None)


# --------------------------------------------------------------------------
# the lockstep engine


def run(cfg: SolverConfig, extra_metadata: dict | None = None) -> RunTrace:
    """Iterate the selected rule from x1, recording iterates k = 1 .. n_max.

    The trace holds n_max rows (n_max - 1 update steps); row k carries the
    schedule values at index k. Stops early when rel_err_target is reached.
    Deterministic given the perturbation seed. A non-finite iterate raises
    :class:`DivergenceError` carrying the last finite state. ``extra_metadata``
    joins the trace's metadata: the CLI passes its config digest there. This
    is :func:`run_batch` on a batch of one.
    """
    (out,) = _lockstep([cfg], [extra_metadata])
    if isinstance(out, Exception):
        raise out
    return out


def run_batch(cfgs, extra_metadata=None) -> list:
    """Run configs that share a problem, a rule, n_max and record_stride in lockstep.

    Each config is one row of a (C, d) array that every step updates at
    once; schedules, perturbation seeds, start points, anchors, beta,
    references and rel_err targets may differ. Entry i of the result is
    ``run(cfgs[i], extra_metadata[i])`` bit for bit, or the exception that
    ended that row instead (a :class:`DivergenceError`, or an error raised
    before stepping). A row that stops or diverges leaves the batch; the
    others go on.
    """
    cfgs = list(cfgs)
    extras = [None] * len(cfgs) if extra_metadata is None else list(extra_metadata)
    if len(extras) != len(cfgs):
        raise ConfigurationError(f"{len(extras)} metadata entries for {len(cfgs)} configs")
    return _lockstep(cfgs, extras)


def _violations(cfg: SolverConfig) -> tuple[int, int]:
    """One run's counts of lambda_k outside its bounds and outside [0, 2 nu] over k <= n_max.

    Raises what the run's tables would raise, before the first step: the
    ``IndexError`` of an alpha or lambda table that ends before n_max, and the
    :class:`ScheduleViolationError` of a strict run.
    """
    s, n = cfg.schedule, cfg.n_max
    _check_horizon(s, n)
    if isinstance(s.lam, TableLambda):
        lams, repeats = s.lam.values[:n], 1
    else:  # a constant lambda: one value, n times
        lams, repeats = np.array([s.lam.value]), n
    a_lo, a_hi = s.bounds
    n_outside_bounds = repeats * int(np.count_nonzero((lams < a_lo) | (lams > a_hi)))
    n_outside_2nu = repeats * int(np.count_nonzero((lams < 0) | (lams > 2 * cfg.problem.nu)))
    if n_outside_2nu:
        msg = (
            f"{n_outside_2nu} lambda value(s) outside [0, 2*nu = {2 * cfg.problem.nu}]; "
            "convergence guarantees void"
        )
        if cfg.strict_schedule:
            raise ScheduleViolationError(msg)
        # _violations <- _lockstep <- run / run_batch <- their caller
        warnings.warn(msg, ScheduleViolationWarning, stacklevel=4)
    return n_outside_bounds, n_outside_2nu


def _vector_norm(v):
    return math.sqrt(v.dot(v))


# What a step reads, the nine fields the loop binds to locals: x; the alpha, 1 - alpha (None for rows,
# which take 1.0 - a per step), lambda and e tables of the block, indexed by k - k0; u, beta, 1 - beta
# and the step. Then what the stop test reads: the reference, its norm, the rel_err target, the norm
# and the any-row-at-target test.
_Views = namedtuple("_Views", "x alpha calpha lam e u beta cbeta step ref nref target norms any_of")


class _Rows:
    """The rows of a batch still stepping: one array per field, row axis first.

    ``x`` is the start, then the iterate at which rows last left; the loop
    steps a local copy. ``cols`` holds alpha_k, lambda_k and ||e_k|| and
    ``e`` the rows e_k of the current block, k = k0 .. k0 + m - 1, as (C, 3, m)
    and (C, m, d) arrays.
    """

    def __init__(self, **fields):
        self.__dict__.update(fields)

    def keep(self, mask) -> None:
        for name, value in list(vars(self).items()):
            if value is not None:
                setattr(self, name, value[mask])

    def views(self, step) -> _Views:
        """The views of the rows for ``step``, which is built for rows or, for a single row, for one vector.

        A single row steps as a 1-D vector through the problem's own 1-D maps
        and projection, which cost less than (1, d) kernels. Its coefficients
        are 0-d float64 views: alpha_k, 1 - alpha_k (tabulated here, once per
        block, as Python's ``1.0 - a`` rounds it) and lambda_k of the block,
        beta and 1 - beta. numpy takes a 0-d array operand faster than a
        Python float and rounds the same. Its rel_err is a Python float.
        """
        if self.x.shape[0] > 1:
            return _Views(self.x, self.cols[:, 0].T[:, :, None], None, self.cols[:, 1].T[:, :, None],
                          None if self.e is None else self.e.swapaxes(0, 1), self.u, self.beta, self.cbeta, step,
                          self.ref, self.nref, self.target, row_norms, np.ndarray.any)

        def first(v):
            return None if v is None else v[0]

        def scalars(col):  # nditer yields a 0-d view of each entry, cheaper than col[i, ...]
            return list(np.nditer(col, order="C"))

        alpha = self.cols[0, 0]
        return _Views(self.x[0], scalars(alpha), scalars(1.0 - alpha), scalars(self.cols[0, 1]), first(self.e),
                      first(self.u), self.beta[0, 0, ...], self.cbeta[0, 0, ...], step, first(self.ref),
                      None if self.nref is None else float(self.nref[0]),
                      None if self.target is None else float(self.target[0]), _vector_norm, bool)


def _lockstep(cfgs: list, extras: list) -> list:
    """The engine of :func:`run` and :func:`run_batch`: each config's trace, or the exception that ended its row.

    A row whose next iterate is not finite, or that a kernel refuses with :class:`NonFiniteError` (found by
    stepping each row alone), ends in a :class:`DivergenceError` at that step; the others go on bit for bit."""
    results = [None] * len(cfgs)
    if not cfgs:
        return results
    head = cfgs[0]
    problem, rule, n, stride = head.problem, head.algorithm, head.n_max, head.record_stride
    with_ref = head.reference is not None
    for cfg in cfgs[1:]:
        if (cfg.problem is not problem or cfg.algorithm != rule or cfg.n_max != n
                or cfg.record_stride != stride or (cfg.reference is not None) != with_ref):
            raise ConfigurationError(
                "a batch shares one problem, algorithm, n_max and record_stride, "
                "and either every config has a reference or none has"
            )
    violations = {}
    for i, cfg in enumerate(cfgs):
        try:
            violations[i] = _violations(cfg)
        except Exception as exc:  # a row that fails before stepping: its outcome
            results[i] = exc
    if not violations:
        return results
    ids, live = list(violations), [cfgs[i] for i in violations]
    d = problem.dim
    targets = [cfg.rel_err_target for cfg in live]
    betas = np.array([[cfg.beta] for cfg in live])
    rows = _Rows(
        cfg=np.array(ids),
        rec=np.arange(len(ids)),
        x=np.array([cfg.x1 for cfg in live]),
        cols=None,
        e=None,
        u=np.array([cfg.anchor for cfg in live]) if rule in (HALPERN, YAO_OUTER, YAO_INNER) else None,
        beta=betas,
        cbeta=1.0 - betas,
        ref=np.array([cfg.reference for cfg in live]) if with_ref else None,
        nref=np.array([norm(cfg.reference) for cfg in live]) if with_ref else None,
        target=np.array([-np.inf if t is None else t for t in targets]) if with_ref else None,
    )
    has_target = any(t is not None for t in targets)

    # records: the stride grid k = 1, 1 + stride, ..., n is shared; a row that
    # stops off the grid writes its stopping row into the next slot. Xrec holds
    # the iterates and Srec alpha_k, lambda_k and ||e_k||; traces are views of them.
    kgrid = np.arange(1, n + 1, stride)
    if kgrid[-1] != n:
        kgrid = np.append(kgrid, n)
    kgrid.setflags(write=False)
    Xrec = np.empty((len(ids), kgrid.size, d))
    Srec = np.empty((len(ids), 3, kgrid.size))

    # one generator per perturbation for the whole run, shared by the rows of one seed:
    # each block's draws continue its stream
    generators = {p: _generator(p) for p in {cfg.perturbation for cfg in live}} if rule == PERTURBED else {}

    def load(k0, m):
        """Tabulate and draw k = k0 .. k0 + m - 1 for the rows still stepping; record their values on the grid."""
        lo, hi = np.searchsorted(kgrid, (k0, k0 + m))
        dense = stride == 1 and rows.rec.size == len(ids)  # the tables are the records: held once
        cols = Srec[:, :, lo:hi] if dense else np.empty((rows.rec.size, 3, m))
        cols[:, 2] = 0.0
        tabulated, drawn, E = {}, {}, None  # sweep cells of one theta share a schedule, of one seed a stream
        for j, i in enumerate(rows.cfg.tolist()):
            s, p = cfgs[i].schedule, cfgs[i].perturbation
            if id(s) not in tabulated:
                tabulated[id(s)] = tabulate(s, m, k0)
            cols[j, 0], cols[j, 1] = tabulated[id(s)]
            if rule == PERTURBED:
                if p not in drawn:
                    e = perturbation_stream(p, m, d, k0, generators[p])
                    drawn[p] = e, np.linalg.norm(e, axis=1)
                e, cols[j, 2] = drawn[p]
                if rows.rec.size == 1:  # a batch of one keeps its stream
                    E = e[None]
                else:
                    E = np.empty((rows.rec.size, m, d)) if E is None else E
                    E[j] = e
        if not dense:
            Srec[rows.rec, :, lo:hi] = cols[:, :, kgrid[lo:hi] - k0]
        rows.cols, rows.e = cols, E

    def finish(j, count, stopped_at, off_grid):
        i, b = rows.cfg[j], rows.rec[j]
        metadata = {
            "algorithm": rule,
            "prng": cfgs[i].perturbation.generator,
            "seed": cfgs[i].perturbation.seed,
            "n_max": n,
            "record_stride": stride,
            "stopped_at": stopped_at,
            "schedule_violations_bounds": violations[i][0],
            "schedule_violations_2nu": violations[i][1],
            "package": f"viscosolve {_VERSION}",
        }
        metadata.update(extras[i] or {})
        alpha, lam, e_norm = Srec[b, :, :count]
        results[i] = RunTrace(
            k=np.append(kgrid[: count - 1], stopped_at) if off_grid else kgrid[:count],
            x=Xrec[b, :count],
            alpha=alpha,
            lam=lam,
            e_norm=e_norm,
            # one row_norms over the records: the norm(x_k - ref) / norm(ref) of each, bit for bit
            rel_err=row_norms(Xrec[b, :count] - rows.ref[j]) / rows.nref[j] if with_ref else None,
            metadata=metadata,
        )

    def leave(x, gone):
        """Drop the rows flagged in ``gone``; the views of the rest, or None when none is left."""
        rows.x = x.reshape(-1, d)
        rows.keep(~gone)
        if not rows.rec.size:
            return None
        return rows.views(_build_step(problem, rule) if rows.rec.size == 1 else step)

    # blocks of steps: the tables and draws of one block at a time, so a run's
    # memory is its records plus one block (_block_steps(d) steps of d doubles a row)
    step = _build_step(problem, rule, rows=len(ids) > 1)
    count_nonzero, isfinite = np.count_nonzero, np.isfinite
    written = slice(None)  # record rows a record writes: all, until one leaves
    slot = 0
    block = _block_steps(d)
    # numpy's overflow and invalid warnings stay inside: the finiteness test turns what they
    # flag into a DivergenceError of exactly the rows concerned (one errstate per call, not per step)
    with np.errstate(over="ignore", invalid="ignore"):
        for k0 in range(1, n + 1, block):
            load(k0, min(block, n + 1 - k0))
            v = rows.views(step)
            if k0 == 1:
                x = v.x
            _, alpha, calpha, lam, e, u, beta, cbeta, step = v[:9]
            for i, k in enumerate(range(k0, min(k0 + block, n + 1))):
                on_grid = (k - 1) % stride == 0 or k == n
                if has_target:
                    # only the stop test reads rel_err during the run; it may overflow
                    # to inf on a diverging run, which the finiteness check below detects
                    rel = v.norms(x - v.ref) / v.nref
                if on_grid:
                    Xrec[written, slot] = x
                if has_target and v.any_of(hit := rel <= v.target):
                    hit = np.reshape(hit, -1)
                    js = np.flatnonzero(hit)
                    if not on_grid:
                        Xrec[rows.rec[js], slot] = x.reshape(-1, d)[js]
                        Srec[rows.rec[js], :, slot] = rows.cols[js, :, i]
                    for j in js:
                        finish(j, slot + 1, k, not on_grid)
                    if (v := leave(x, hit)) is None:
                        return results
                    x, alpha, calpha, lam, e, u, beta, cbeta, step = v[:9]
                    written = rows.rec
                if on_grid:
                    slot += 1
                if k == n:
                    break
                a = alpha[i]
                ca, ei = 1.0 - a if calpha is None else calpha[i], None if e is None else e[i]
                try:
                    x_next = step(x, a, ca, lam[i], ei, u, beta, cbeta)
                except NonFiniteError:  # a kernel refused a row: step each row alone, NaN for those it still refuses
                    x_next, args = np.full_like(x, np.nan), (x, a, ca, lam[i], ei, u, beta, cbeta)
                    for j in range(x.shape[0] if x.ndim == 2 else 0):  # none for one vector, whose step raised
                        with contextlib.suppress(NonFiniteError):  # a one-row slice of every 2-D argument
                            x_next[j:j + 1] = step(*(v[j:j + 1] if np.ndim(v) == 2 else v for v in args))
                # exact and warning-free, unlike a test of a sum or dot product, which may overflow
                if count_nonzero(isfinite(x_next)) != x_next.size:
                    bad = ~isfinite(x_next.reshape(-1, d)).all(axis=1)
                    for j in np.flatnonzero(bad):
                        results[rows.cfg[j]] = DivergenceError(
                            f"non-finite iterate at step {k} (algorithm {rule!r})",
                            last_state=x.reshape(-1, d)[j].copy(),
                            step=k,
                        )
                    if (v := leave(x_next, bad)) is None:
                        return results
                    x_next, alpha, calpha, lam, e, u, beta, cbeta, step = v[:9]
                    written = rows.rec
                x = x_next
        for j in range(rows.rec.size):
            finish(j, slot, None, False)
        return results


# --------------------------------------------------------------------------
# implicit path


@dataclass(frozen=True, eq=False)
class ImplicitConfig:
    """Settings for the implicit curve t -> x_t.

    ``lambda_of_t`` is the relaxation step at every t, a finite float in
    [0, 2*nu]: :func:`implicit_path` refuses a larger one, for which T_t is
    not certified to contract. Each solve runs safeguarded Anderson on T_t
    and stops once either the contraction a-posteriori bound certifies
    ||x - x_t|| <= inner_tol or the fixed-point residual itself drops below
    inner_tol (for very small t the bound alone would demand residuals below
    the float64 rounding floor). ``inner_max_iter`` caps the evaluations of
    T_t in one solve.
    """

    t_values: tuple[float, ...]
    lambda_of_t: float
    inner_tol: float = 1e-10
    inner_max_iter: int = 20_000_000

    def __post_init__(self):
        ts = tuple(float(t) for t in self.t_values)
        object.__setattr__(self, "t_values", ts)
        if not ts:
            raise ConfigurationError("t_values must be nonempty")
        if any(not (0 < t <= 1) for t in ts):
            raise ConfigurationError(f"t values must be in (0, 1], got {ts}")
        if any(t2 >= t1 for t1, t2 in zip(ts, ts[1:])):
            raise ConfigurationError("t_values must be strictly decreasing")
        if not (math.isfinite(self.inner_tol) and self.inner_tol > 0):  # an infinite tol stops every solve at once
            raise ConfigurationError(f"inner_tol must be finite and > 0, got {self.inner_tol}")
        # a solve of no evaluations would end as a numerical failure
        object.__setattr__(self, "inner_max_iter", _integer(self.inner_max_iter, "inner_max_iter", 1, ConfigurationError))
        lam = float(self.lambda_of_t)
        if not (math.isfinite(lam) and lam >= 0):
            raise ConfigurationError(f"lambda_of_t must be finite and >= 0, got {lam}")
        object.__setattr__(self, "lambda_of_t", lam)

    def lam_at(self, t: float) -> float:
        """The relaxation step at t: ``lambda_of_t``, the same at every t."""
        return self.lambda_of_t


@dataclass(frozen=True, eq=False)
class PathPoint:
    """x_t; iterations counts evaluations of T_t, dist_bound = residual / (sigma t) >= ||x - x_t||."""

    t: float
    x: np.ndarray
    residual: float
    iterations: int
    dist_to_reference: float | None
    dist_bound: float


def _anderson_solve(T, q, x0, tol, floor, max_iter, label):
    """The fixed point x* of T, a contraction with factor q, by safeguarded Anderson acceleration.

    The candidate fits g = T(x) - x by least squares over the last
    ``_AA_DEPTH`` differences dx of accepted iterates and dg of their g, and
    moves T(x) by the fitted combination of dx + dg (Walker & Ni 2011). It is
    kept only if it cuts ||g|| by the factor q; else the Banach step T(x) is
    taken and the history cleared (Zhang, O'Donoghue & Boyd 2020). Returns
    (T(x), evaluations of T) once r = ||g(x)|| has r q / (1 - q) <= tol, which
    certifies ||T(x) - x*|| <= tol, or r <= floor; ``label`` names the solve in
    the NonConvergenceError that ``max_iter`` evaluations end in.
    """
    post_factor = q / (1.0 - q)  # a-posteriori multiplier
    history = deque(maxlen=_AA_DEPTH)  # (dx, dg) pairs
    x = fx = g = None
    r = np.inf
    y, accelerated, evals = x0, False, 0
    while evals < max_iter:
        fy = T(y)
        evals += 1
        gy = fy - y
        ry = norm(gy)
        if accelerated and not ry <= q * r:
            history.clear()
            y, accelerated = fx, False
            continue
        if x is not None:
            history.append((y - x, gy - g))
        x, fx, g, r = y, fy, gy, ry
        if r * post_factor <= tol or r <= floor:
            return fx, evals
        # least squares by modified Gram-Schmidt over the dg, newest first; dropping
        # a dg nearly dependent on newer ones takes fewer evaluations than lstsq
        y, basis = fx, []  # (u, w, w . w) per kept dg
        for dx, dg in reversed(history):
            u, w = dx + dg, dg
            for ui, wi, wwi in basis:
                c = wi.dot(w) / wwi
                u, w = u - c * ui, w - c * wi
            if norm(w) > 1e-8 * norm(dg):
                ww = w.dot(w)
                basis.append((u, w, ww))
                y = y - (w.dot(g) / ww) * u
        accelerated = bool(basis)
    raise NonConvergenceError(
        f"{label} did not converge in {max_iter} iterations (last residual {r:.3e})",
        residual=r,
        iterations=evals,
    )


@np.errstate(over="ignore", invalid="ignore", divide="ignore")  # a non-finite residual or distance raises in norm
def implicit_path(cfg: ImplicitConfig, problem: ProblemSpec, x1=None) -> list[PathPoint]:
    """Solve x_t along cfg.t_values from ``x1`` in Q (default P_Q(0)), warm-starting each solve from the last.

    T_t is the explicit_viscosity step, built once, at 0-d float64 operands
    t, 1 - t and lambda. A lambda above 2 nu is a :class:`ConfigurationError`.
    When the problem carries a closed-form target set, each point also
    reports its distance to the independently computed reference solution.
    """
    if cfg.lambda_of_t > 2 * problem.nu:  # then neither the factor 1 - sigma t nor dist_bound holds
        raise ConfigurationError(f"implicit lambda = {cfg.lambda_of_t} exceeds 2*nu = {2 * problem.nu}")
    x = _point_of_Q(problem, x1, "x1") if x1 is not None else project(problem.set_Q, np.zeros(problem.dim))
    ref = _target_point(problem)
    step, lam = _build_step(problem, EXPLICIT_VISCOSITY), np.array(cfg.lambda_of_t)
    points = []
    for t in cfg.t_values:
        a, ca = np.array(t), np.array(1.0 - t)
        x, iters = _anderson_solve(lambda y: step(y, a, ca, lam, None, None, None, None), 1.0 - problem.sigma * t,
                                   x, cfg.inner_tol, cfg.inner_tol, cfg.inner_max_iter, f"implicit solve at t={t}")
        residual = norm(x - step(x, a, ca, lam, None, None, None, None))
        dist = norm(x - ref) if ref is not None else None
        bound = residual / (problem.sigma * t)
        points.append(PathPoint(t, x, residual, iterations=iters, dist_to_reference=dist, dist_bound=bound))
    return points


@np.errstate(over="ignore", invalid="ignore", divide="ignore")  # a non-finite residual raises in norm
def reference_solution(problem: ProblemSpec, tol: float = 1e-12, max_iter: int = 100_000) -> np.ndarray:
    """The target point: the unique fixed point of P_Omega . f.

    Needs ``problem.reference_set_omega``. :func:`_anderson_solve` on P_Omega . f,
    a contraction with factor rho, from P_Omega(0) and with no residual floor:
    the a-posteriori bound alone certifies the result within tol of the point.
    """
    omega = problem.reference_set_omega
    if omega is None:
        raise ConfigurationError(
            "reference_solution needs problem.reference_set_omega (the closed-form target set)"
        )
    if not (math.isfinite(tol) and tol > 0):
        raise ConfigurationError(f"tol must be finite and > 0, got {tol}")
    x0 = project(omega, np.zeros(problem.dim))
    return _anderson_solve(lambda y: project(omega, np.asarray(problem.map_f(y), dtype=float)), problem.rho, x0,
                           tol, 0.0, max_iter, "reference solve")[0]


def _target_point(problem: ProblemSpec) -> np.ndarray | None:
    """q* within 1e-12 (:func:`reference_solution`) when ``problem`` has a closed-form target set; else None."""
    return None if problem.reference_set_omega is None else reference_solution(problem, tol=1e-12)


# --------------------------------------------------------------------------
# structural digest (stable across processes; no addresses, no timestamps)


def config_digest(obj) -> str:
    """Short stable hash of a configuration's structure and numbers: the first 16 hex digits
    of the sha256 of ``json.dumps(_jsonable(obj), sort_keys=True)``."""
    return hashlib.sha256(json.dumps(_jsonable(obj), sort_keys=True).encode()).hexdigest()[:16]
