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
import json
import math
import os
import threading
import warnings
from collections import deque, namedtuple
from dataclasses import field
from functools import partial
from typing import Callable

import numpy as np

from .__about__ import __version__ as _VERSION
from .operators import ProblemSpec, _jsonable, rows_of
from .projections import MEMBERSHIP_TOL, contains, project, project_rows
from .schedules import (
    NoPerturbation,
    Perturbation,
    ScheduleSpec,
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
from .space import NonFiniteError, as_vector, norm, record, row_norms

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


@record(eq=False)
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

    A run records k = 1, 1 + stride, ... and n_max: (records, d) iterates a
    row, and alpha of each distinct schedule, lambda of each with a lambda
    table and ||e|| of each distinct stream, at most (3, records) values a
    row, allocated before its first step.
    """
    n, stride = cfg.n_max, cfg.record_stride
    records = (n - 1) // stride + 1 + ((n - 1) % stride > 0)
    if rows * records * max(cfg.problem.dim, 3) * 8 > _MAX_BYTES:
        raise ConfigurationError(
            f"{rows} run(s) of {records} records in dimension {cfg.problem.dim} "
            f"(n_max {n}, record_stride {stride}) are more than numpy can size"
        )


def _point_of_Q(problem: ProblemSpec, x, name: str) -> np.ndarray:
    """``x`` as a vector (:func:`~viscosolve.space.as_vector`) of Q up to ``MEMBERSHIP_TOL``, else a ConfigurationError."""
    v = as_vector(x, dim=problem.dim, name=name)
    if not contains(problem.set_Q, v):
        raise ConfigurationError(f"{name} = {v!r} is not in Q (tolerance {MEMBERSHIP_TOL})")
    return v


_CSV_CHUNK = 500  # trace rows formatted per write
_OPEN_TRACES = 128  # trace files one write keeps open at once: half of macOS's default limit of 256 descriptors


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


def _rel_errs(X: np.ndarray, ref: np.ndarray) -> np.ndarray:
    """norm(x_k - ref) / norm(ref) of each row x_k of X, bit for bit, through row_norms one block of rows at a time
    (each row's norm is its own dot product, so any chunk of X gives the same bits); an overflowing norm reads inf."""
    out = np.empty(len(X))
    rows = _block_steps(X.shape[1])
    with np.errstate(over="ignore", invalid="ignore"):
        for lo in range(0, len(X), rows):
            out[lo : lo + rows] = row_norms(X[lo : lo + rows] - ref)
    out /= norm(ref)
    return out


def _first_hit(k: np.ndarray, rel_err: np.ndarray, eps: float) -> int | None:
    """The first k[j] with rel_err[j] <= eps, or None if there is none."""
    idx = np.flatnonzero(rel_err <= eps)
    return int(k[idx[0]]) if idx.size else None


def _write_traces(items) -> None:
    """Write each ``(trace, path)`` of ``items`` as CSV: one row per record, shortest round-trip floats.

    The items are split into one contiguous share per CPU this process may run on, at most one per
    trace (:func:`_share_count`). The calling process writes the first share and a child, forked before
    any trace file is opened, writes each other share, so each file has one writer and the bytes
    :func:`_write_share` gives it. A child leaves through ``os._exit``: code 0 once its share is written,
    1 on any exception. Every child is reaped before this returns or raises. An error of this process's
    own share is raised as it is, and nothing is written again. Otherwise this process then writes each
    share whose child did not end with status 0, and each it could not fork for: a failure that recurs
    is raised from here with its class, message and filename, and one that does not (a killed child)
    leaves complete files.
    """
    items = list(items)
    shares = _share_count(len(items))
    cuts = [len(items) * i // shares for i in range(shares + 1)]
    children, again = {}, []
    try:
        for lo, hi in zip(cuts[1:-1], cuts[2:]):
            try:
                pid = os.fork()
            except OSError:  # no process to spare: this process writes the share
                again.append(items[lo:hi])
                continue
            if not pid:  # the child never returns into its caller's code, whatever it raises
                try:
                    _write_share(items[lo:hi])
                    os._exit(0)
                finally:
                    os._exit(1)
            children[pid] = items[lo:hi]
        _write_share(items[: cuts[1]])
    finally:
        again += [share for pid, share in children.items() if os.waitpid(pid, 0)[1]]
    for share in again:
        _write_share(share)


def _share_count(n: int) -> int:
    """Writers for n traces: one per CPU in this process's affinity, at most n. One where the platform has no
    affinity query, or while another Python thread runs: a forked child holds only the forking thread, and
    any lock another thread held stays locked in it."""
    if n < 2 or not hasattr(os, "sched_getaffinity") or threading.active_count() > 1:
        return 1
    return min(n, len(os.sched_getaffinity(0)))


def _write_share(items) -> None:
    """Write each ``(trace, path)`` of the list ``items`` as CSV, in this process.

    The traces are written chunk by chunk: chunk j of every trace, ``_CSV_CHUNK`` rows each, goes out
    before chunk j + 1 of any, so each trace's file stays open, ``_OPEN_TRACES`` files at a time (a
    longer list is written in groups of that many). Within one chunk each distinct k, alpha, lambda and
    e_norm column chunk, found by its bits (0.0 and -0.0, or two NaN payloads, differ), is formatted
    once: the cells of a sweep share k and lambda, those of one seed e_norm and those of one theta
    alpha. x and rel_err, computed from the chunk's x, are formatted per trace. The writer holds one
    chunk's cells and rel_err values, whatever the traces' length, and no file's bytes depend on the
    order of ``items``.
    """
    memo = {}  # (dtype, bits) of a k, alpha, lambda or e_norm chunk -> its cells, for the chunk being written

    def shared(values):
        key = values.dtype.char, values.tobytes()
        if key not in memo:
            memo[key] = _csv_cells(values)
        return memo[key]

    for first in range(0, len(items), _OPEN_TRACES):
        group = items[first : first + _OPEN_TRACES]
        with contextlib.ExitStack() as stack:
            files = [stack.enter_context(open(path, "w")) for _, path in group]
            for (trace, _), fh in zip(group, files):
                names = ",".join(f"x{i + 1}" for i in range(trace.x.shape[1]))
                fh.write(f"k,{names},alpha,lambda,e_norm,rel_err\n")
            for lo in range(0, max(trace.k.size for trace, _ in group), _CSV_CHUNK):
                rows = slice(lo, lo + _CSV_CHUNK)
                memo.clear()
                for (trace, _), fh in zip(group, files):
                    if trace.k.size <= lo:
                        continue
                    d = trace.x.shape[1]
                    x = _csv_cells(trace.x[rows].ravel())
                    cols = [shared(trace.k[rows])] + [x[i::d] for i in range(d)]
                    cols += [shared(trace.alpha[rows]), shared(trace.lam[rows]), shared(trace.e_norm[rows])]
                    ref = trace.reference
                    cols.append(_csv_cells(_rel_errs(trace.x[rows], ref)) if ref is not None else [""] * len(cols[0]))
                    fh.write("\n".join(map(",".join, zip(*cols))) + "\n")


@record(eq=False)
class RunTrace:
    """Per-iteration records of one run, plus run metadata.

    Row j holds the iterate x_k with k = k[j] and the schedule values at k.
    ``reference`` is the run's reference point, or None. The rel_err column
    is derived from it and the iterates on each read, not stored. A trace
    from :func:`run` or :func:`run_batch` holds read-only columns: k, alpha,
    lam and e_norm are views of tables that runs of one batch share, a
    constant lambda is a zero-stride view of its one value, and the
    reference is its config's own array, which the cells of a sweep share.
    """

    k: np.ndarray
    x: np.ndarray
    alpha: np.ndarray
    lam: np.ndarray
    e_norm: np.ndarray
    reference: np.ndarray | None
    metadata: dict

    @property
    def final(self) -> np.ndarray:
        return self.x[-1]

    @property
    def rel_err(self) -> np.ndarray | None:
        """||x_k - ref|| / ||ref|| of each record (inf where a norm overflows), or None without a reference."""
        return None if self.reference is None else _rel_errs(self.x, self.reference)

    def _checked_rel_err(self) -> np.ndarray:
        if self.reference is None:
            raise ValueError("trace has no rel_err column (no reference was supplied)")
        return self.rel_err

    def min_rel_err(self) -> float:
        return float(self._checked_rel_err().min())

    def first_hit(self, eps: float) -> int | None:
        """Smallest recorded k with rel_err_k <= eps, or None if never reached."""
        return _first_hit(self.k, self._checked_rel_err(), eps)

    def write_csv(self, path) -> None:
        """One row per record, shortest round-trip floats; written column by column in chunks."""
        _write_traces([(self, path)])

    def write_meta(self, path) -> None:
        with open(path, "w") as fh:
            for key in sorted(self.metadata):
                fh.write(f"{key}: {self.metadata[key]}\n")


# --------------------------------------------------------------------------
# step rules, written once over the rows of a (C, d) array: a builder takes
# P_Q, A, f and S and returns step(X, a, ca, lam, E, U, B, cB), where a, ca,
# lam, E, U, B and cB hold alpha_k, 1 - alpha_k, lambda_k, e_k, the anchors,
# beta and 1 - beta of each row, each in X's C-contiguous (C, d) shape (a
# coefficient spread over its row). Fed the problem's 1-D maps and projection,
# the same step moves one 1-D iterate with 0-d coefficients. Every rule applies
# the forward-backward map P(X - lam A(X)).


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
        raise ConfigurationError(f"t must be in (0, 1], got {t}")
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
    :class:`ScheduleViolationWarning` itself where a warnings filter makes it an error.
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
        # _violations <- _lockstep <- run / run_batch <- their caller
        warnings.warn(
            f"{n_outside_2nu} lambda value(s) outside [0, 2*nu = {2 * cfg.problem.nu}]; convergence guarantees void",
            ScheduleViolationWarning,
            stacklevel=4,
        )
    return n_outside_bounds, n_outside_2nu


def _vector_norm(v):
    return math.sqrt(v.dot(v))


# What a step reads, the eight fields the loop binds to locals: x; the alpha, 1 - alpha, lambda and e
# operands of the slab, indexed by step; u, beta and 1 - beta. Then what the stop test reads: the
# reference, its norm, the rel_err target, the norm and the any-row-at-target test.
_Views = namedtuple("_Views", "x alpha calpha lam e u beta cbeta ref nref target norms any_of")


class _Rows:
    """The rows of a batch still stepping: one array per field, row axis first.

    ``x`` is the start, then the iterate at which rows last left; the loop
    steps a local copy. ``sched`` and ``stream`` number each row's schedule
    and perturbation stream among the batch's distinct ones. ``lam`` is each
    row's constant lambda spread over d columns, or None when a schedule of
    the batch has a lambda table; ``beta`` and ``cbeta`` are spread likewise.
    """

    def __init__(self, **fields):
        self.__dict__.update(fields)

    def keep(self, mask) -> None:
        for name, value in list(vars(self).items()):
            if value is not None:
                setattr(self, name, value[mask])

    def views(self, rows: bool, alphas, lams, draws) -> _Views:
        """The views of the rows, built for rows or, unless ``rows``, for the one row as one vector, over a
        slab whose alpha_k and lambda_k are ``alphas`` and ``lams``, one row per schedule, and whose e_k are
        ``draws``, one column per stream (or None).

        Rows step on operands of the iterate's C-contiguous (C, d) shape: the slab's alpha_k, 1 - alpha_k, a
        lambda table and e_k of its s steps are gathered into (s, C, d) arrays; a constant lambda is ``lam``.
        numpy takes a broadcast (C, 1) or a strided operand through loops that cost about twice as much.

        A batch of one row steps as a 1-D vector through the problem's own 1-D maps
        and projection, which cost less than (1, d) kernels. Its coefficients
        are 0-d float64 views of the slab's alpha_k, 1 - alpha_k and
        lambda_k, beta and 1 - beta. numpy takes a 0-d array operand faster
        than a Python float and rounds the same. Its rel_err is a Python float.
        """
        if rows:
            def spread(table):
                return np.repeat(table[self.sched].T[:, :, None], self.x.shape[1], axis=2)

            a = spread(alphas)
            return _Views(self.x, a, 1.0 - a, spread(lams) if self.lam is None else [self.lam] * len(a),
                          None if draws is None else np.take(draws, self.stream, axis=1), self.u,
                          self.beta, self.cbeta, self.ref, self.nref, self.target, row_norms, np.ndarray.any)

        def first(v):
            return None if v is None else v[0]

        def scalars(col):  # nditer yields a 0-d view of each entry, cheaper than col[i, ...]
            return list(np.nditer(col, order="C"))

        s = self.sched[0]
        return _Views(self.x[0], scalars(alphas[s]), scalars(1.0 - alphas[s]), scalars(lams[s]),
                      None if draws is None else draws[:, self.stream[0]], first(self.u), self.beta[0, 0, ...],
                      self.cbeta[0, 0, ...], first(self.ref), None if self.nref is None else float(self.nref[0]),
                      None if self.target is None else float(self.target[0]), _vector_norm, bool)


def _lockstep(cfgs: list, extras: list) -> list:
    """The engine of :func:`run` and :func:`run_batch`: each config's trace, or the exception that ended its row.

    A row whose next iterate is not finite, or that a kernel refuses with :class:`NonFiniteError` (found by
    stepping each row alone), ends in a :class:`DivergenceError` at that step; the others go on bit for bit.

    The batch steps in blocks of ``_block_steps(C * d)`` steps, about 2**14 doubles a field across its C
    rows: 8192 steps for one row at d = 2, 256 at d = 64. A block tabulates alpha_k and lambda_k once per
    distinct schedule (by identity) and draws e_k once per distinct perturbation among the rows still
    stepping. Rows step it one slab of a quarter block at a time, on operands gathered for the slab (see
    :meth:`_Rows.views`); a batch of one row steps each block as one slab, as one vector, and a larger batch
    steps as rows to its end. The records hold each row's iterates, and on the record grid alpha_k once per
    schedule, lambda_k once per schedule with a lambda table and ||e_k|| once per stream; a constant lambda
    is recorded as its one value, which each trace views with stride 0. A run's memory is its iterate
    records (a trace derives rel_err from them), those tables, one block and one slab."""
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
    betas = np.repeat([[cfg.beta] for cfg in live], d, axis=1)
    # the batch's distinct schedules (by identity) and perturbation streams, in order of first use;
    # without perturbation every row reads one stream of zeros
    schedules = list({id(cfg.schedule): cfg.schedule for cfg in live}.values())
    perts = list(dict.fromkeys(cfg.perturbation for cfg in live)) if rule == PERTURBED else [NoPerturbation()]
    sched_no = {id(s): j for j, s in enumerate(schedules)}
    stream_no = {p: j for j, p in enumerate(perts)}
    tabled = [s for s, sched in enumerate(schedules) if isinstance(sched.lam, TableLambda)]
    rows = _Rows(
        cfg=np.array(ids),
        rec=np.arange(len(ids)),
        sched=np.array([sched_no[id(cfg.schedule)] for cfg in live]),
        stream=np.array([stream_no[cfg.perturbation] if rule == PERTURBED else 0 for cfg in live]),
        x=np.array([cfg.x1 for cfg in live]),
        lam=None if tabled else np.repeat([[cfg.schedule.lam.value] for cfg in live], d, axis=1),
        u=np.array([cfg.anchor for cfg in live]) if rule in (HALPERN, YAO_OUTER, YAO_INNER) else None,
        beta=betas,
        cbeta=1.0 - betas,
        ref=np.array([cfg.reference for cfg in live]) if with_ref else None,
        nref=np.array([norm(cfg.reference) for cfg in live]) if with_ref else None,
        target=np.array([-np.inf if t is None else t for t in targets]) if with_ref else None,
    )
    has_target = any(t is not None for t in targets)

    # records: the stride grid k = 1, 1 + stride, ..., n is shared; a row that
    # stops off the grid writes its stopping iterate into the next slot. Xrec holds
    # each row's iterates, Atab alpha_k of each schedule, Ltab lambda_k of each
    # schedule with a lambda table (a constant lambda is its one value) and Etab
    # ||e_k|| of each stream. Traces are views of them.
    kgrid = np.arange(1, n + 1, stride)
    if kgrid[-1] != n:
        kgrid = np.append(kgrid, n)
    kgrid.setflags(write=False)
    lam_no = {s: j for j, s in enumerate(tabled)}  # schedule -> its row of Ltab
    Xrec = np.empty((len(ids), kgrid.size, d))
    Atab = np.empty((len(schedules), kgrid.size))
    Ltab = np.empty((len(lam_no), kgrid.size))
    Etab = np.zeros((len(perts), kgrid.size))

    # one generator per stream for the whole run: each block's draws continue it
    generators = [_generator(p) for p in perts]

    def load(k0, m):
        """Tabulate and draw k = k0 .. k0 + m - 1, once for each schedule and stream of the rows still
        stepping, and record the values on the grid: a block whose every k is recorded (stride 1)
        tabulates alpha and draws into the records. Returns the block's alpha_k and lambda_k, one row per
        schedule, its e_k, one column per stream (or None), and its ||e_k||, one row per stream."""
        lo, hi = np.searchsorted(kgrid, (k0, k0 + m))
        into = hi - lo == m
        at = slice(None) if into else kgrid[lo:hi] - k0
        alphas = Atab[:, lo:hi] if into else np.empty((len(schedules), m))
        lams = np.empty((len(schedules), m))
        e_norms = Etab[:, lo:hi] if into else np.zeros((len(perts), m))
        for s in set(rows.sched.tolist()):  # not np.unique, whose first call imports numpy.ma (1.7 MiB)
            alphas[s], lams[s] = tabulate(schedules[s], m, k0)
            if not into:
                Atab[s, lo:hi] = alphas[s, at]
            if s in lam_no:
                Ltab[lam_no[s], lo:hi] = lams[s, at]
        draws = np.zeros((m, len(perts), d)) if rule == PERTURBED else None
        for p in sorted(set(rows.stream.tolist())) if rule == PERTURBED else ():
            e = perturbation_stream(perts[p], m, d, k0, generators[p])
            e_norms[p] = np.linalg.norm(e, axis=1)
            if not into:
                Etab[p, lo:hi] = e_norms[p, at]
            draws[:, p] = e
        return alphas, lams, draws, e_norms

    def finish(j, count, stopped_at=None, last=()):
        """Row j's trace of ``count`` records. A row that stopped off the grid passes ``last``, its
        alpha_k, lambda_k and ||e_k|| there: its columns are copies that end in those values. A constant
        lambda is a zero-stride view of its one value, the same at every k."""
        i, b, s, p = rows.cfg[j], rows.rec[j], rows.sched[j], rows.stream[j]
        columns = [kgrid[:count], Atab[s, :count], Ltab[lam_no[s], :count] if s in lam_no else None,
                   Etab[p, :count]]
        if last:
            columns = [col if col is None else np.append(col[:-1], value)
                       for col, value in zip(columns, (stopped_at, *last))]
        if columns[2] is None:
            columns[2] = np.broadcast_to(np.float64(schedules[s].lam.value), count)
        for col in columns:  # the tables are shared, and a copy is as read-only as a view
            col.setflags(write=False)
        k, alpha, lam, e_norm = columns
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
        results[i] = RunTrace(
            k=k,
            x=Xrec[b, :count],
            alpha=alpha,
            lam=lam,
            e_norm=e_norm,
            reference=cfgs[i].reference,
            metadata=metadata,
        )

    def leave(x, gone):
        """Drop the rows flagged in ``gone``; the views of the rest, or None when none is left."""
        rows.x = x.reshape(-1, d)
        rows.keep(~gone)
        if not rows.rec.size:
            return None
        return rows.views(batched, alphas, lams, draws)

    def slabs():
        """Each slab's first k, its alpha_k, lambda_k and e_k tables (as :meth:`_Rows.views` takes them) and its
        ||e_k||: a block's, loaded when the rows still stepping reach it, cut into slabs."""
        block = _block_steps(len(ids) * d)
        slab = block if len(ids) == 1 else max(1, block // 4)
        for b0 in range(1, n + 1, block):
            alphas, lams, draws, e_norms = load(b0, min(block, n + 1 - b0))
            for lo in range(0, alphas.shape[1], slab):
                cut = slice(lo, lo + slab)
                yield b0 + lo, alphas[:, cut], lams[:, cut], None if draws is None else draws[cut], e_norms[:, cut]

    batched = len(ids) > 1
    step = _build_step(problem, rule, rows=batched)
    count_nonzero, isfinite = np.count_nonzero, np.isfinite
    written = slice(None)  # record rows a record writes: all, until one leaves
    slot = 0
    # numpy's overflow and invalid warnings stay inside: the finiteness test turns what they
    # flag into a DivergenceError of exactly the rows concerned (one errstate per call, not per step)
    with np.errstate(over="ignore", invalid="ignore"):
        for k0, alphas, lams, draws, e_norms in slabs():
            v = rows.views(batched, alphas, lams, draws)
            if k0 == 1:
                x = v.x
            _, alpha, calpha, lam, e, u, beta, cbeta = v[:8]
            for i, k in enumerate(range(k0, k0 + len(alpha))):
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
                    for j in js:
                        s = rows.sched[j]
                        last = () if on_grid else (alphas[s, i], lams[s, i], e_norms[rows.stream[j], i])
                        finish(j, slot + 1, k, last)
                    if (v := leave(x, hit)) is None:
                        return results
                    x, alpha, calpha, lam, e, u, beta, cbeta = v[:8]
                    written = rows.rec
                if on_grid:
                    slot += 1
                if k == n:
                    break
                a, ca, ei = alpha[i], calpha[i], None if e is None else e[i]
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
                    x_next, alpha, calpha, lam, e, u, beta, cbeta = v[:8]
                    written = rows.rec
                x = x_next
        for j in range(rows.rec.size):
            finish(j, slot)
        return results


# --------------------------------------------------------------------------
# implicit path


@record(eq=False)
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


@record(eq=False)
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
    import hashlib  # here, not at the top: with its OpenSSL binding it adds about 3 ms to every import of the package

    return hashlib.sha256(json.dumps(_jsonable(obj), sort_keys=True).encode()).hexdigest()[:16]
