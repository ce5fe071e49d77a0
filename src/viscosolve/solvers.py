"""Iterative solvers for the constrained fixed-point / variational-inequality problem.

Step rules (P = projection onto Q, S nonexpansive, A cocoercive, f a
contraction, u a fixed anchor in Q):

* explicit_viscosity:  x+ = a f(x) + (1 - a) S P(x - l A x)
* perturbed:           x+ = P(a f(x) + (1 - a) S P(x - l A x) + e)
* takahashi_toyoda:    x+ = a x + (1 - a) S P(x - l A x)
* halpern:             x+ = a u + (1 - a) S P(x - l A x)
* yao_outer:           x+ = b x + (1 - b) P(a u + (1 - a) S P(x - l A x))
* yao_inner:           x+ = b x + (1 - b) S P(a u + (1 - a)(x - l A x))

plus the implicit path x_t = t f(x_t) + (1 - t) S P(x_t - l(t) A x_t) solved
by safeguarded Anderson acceleration, the reference solver for the limit
point (the fixed point of P_Omega . f), and the scalar comparison recursion
used as a test oracle for convergence diagnostics.
"""

from __future__ import annotations

import dataclasses
import hashlib
import json
import warnings
from collections import deque
from dataclasses import dataclass, field
from functools import partial
from typing import Callable, NamedTuple

import numpy as np

from .__about__ import __version__ as _VERSION
from .operators import ParameterError, ProblemSpec, _jsonable, rows_of, viscosity_map
from .projections import contains, project, project_rows
from .schedules import (
    NoPerturbation,
    Perturbation,
    ScheduleSpec,
    ScheduleViolationError,
    ScheduleViolationWarning,
    alpha_at,
    lambda_at,
    perturbation_at,
    perturbation_stream,
    tabulate,
)
from .space import as_vector, norm, row_norms

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
    "explicit_step",
    "perturbed_step",
    "run",
    "run_batch",
    "implicit_solve",
    "implicit_path",
    "reference_solution",
    "xu_recursion",
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
_AA_DEPTH = 5  # Anderson memory of the implicit solve


class ConfigurationError(ValueError):
    """The configuration is structurally unusable (missing pieces, bad fields)."""


class DivergenceError(RuntimeError):
    """An iterate left the finite floats; carries the last finite state."""

    def __init__(self, message: str, last_state: np.ndarray, step: int):
        super().__init__(message)
        self.last_state = last_state
        self.step = step


class NonConvergenceError(RuntimeError):
    """An inner solve hit its iteration cap; carries the final residual."""

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
    reference: np.ndarray | None = None
    rel_err_target: float | None = None
    record_stride: int = 1
    strict_schedule: bool = False

    def __post_init__(self):
        if self.algorithm not in ALGORITHMS:
            raise ConfigurationError(
                f"unknown algorithm {self.algorithm!r}; choose from {ALGORITHMS}"
            )
        x1 = as_vector(self.x1, dim=self.problem.dim, name="x1")
        x1.setflags(write=False)
        object.__setattr__(self, "x1", x1)
        if not contains(self.problem.set_Q, x1, _X1_TOL):
            raise ConfigurationError(f"x1 = {x1!r} is not in Q (tolerance {_X1_TOL})")
        if self.n_max < 1:
            raise ConfigurationError(f"n_max must be >= 1, got {self.n_max}")
        if self.record_stride < 1:
            raise ConfigurationError("record_stride must be >= 1")
        if self.algorithm in (HALPERN, YAO_OUTER, YAO_INNER):
            if self.anchor is None:
                raise ConfigurationError(f"algorithm {self.algorithm!r} needs an anchor point")
            u = as_vector(self.anchor, dim=self.problem.dim, name="anchor")
            u.setflags(write=False)
            object.__setattr__(self, "anchor", u)
            if not contains(self.problem.set_Q, u, _X1_TOL):
                raise ConfigurationError("anchor point is not in Q")
        if self.algorithm in (YAO_OUTER, YAO_INNER) and not (0 <= self.beta < 1):
            raise ConfigurationError(f"beta must be in [0, 1), got {self.beta}")
        if self.reference is not None:
            ref = as_vector(self.reference, dim=self.problem.dim, name="reference")
            if not norm(ref) > 0:
                raise ConfigurationError("reference must have a nonzero norm: rel_err divides by it")
            ref.setflags(write=False)
            object.__setattr__(self, "reference", ref)
        if self.rel_err_target is not None and self.reference is None:
            raise ConfigurationError("rel_err_target needs a reference point")


_CSV_CHUNK = 1000  # trace rows formatted per write


def _csv_cells(values: np.ndarray) -> list[str]:
    """repr of each entry of a 1-D array (str for ints).

    float64 arrays go through orjson's shortest round-trip formatter, which
    picks the same digits as repr. Its layout is repr's for 0 and for
    1e-4 <= |v| < 1e16; below 1e-5 and from 1e16 up both write exponent form
    and differ only in its text, which is rewritten on the joined column:
    repr pads one-digit exponents, which occur exactly for 1e-9 <= |v| < 1e-5
    (orjson's ``5e-7`` is ``5e-07``), and signs positive ones (``1e16`` is
    ``1e+16``). Only the 0.0000d... band (1e-5 <= |v| < 1e-4, repr's
    ``3.21e-05``) and inf / nan (orjson's null) take their repr. Other
    dtypes take one repr of the list.
    """
    if values.dtype != np.float64:
        return repr(values.tolist())[1:-1].split(", ")
    import orjson  # loaded on the first trace write, not at ``import viscosolve``

    text = orjson.dumps(np.ascontiguousarray(values), option=orjson.OPT_SERIALIZE_NUMPY)
    text = text[1:-1].decode() + ","  # each cell ends in a comma, so "e-6," never matches "e-60,"
    mag = np.abs(values)
    if ((mag >= 1e-9) & (mag < 1e-5)).any():  # a scan of the text costs more than this test
        for digit in "6789":
            text = text.replace(f"e-{digit},", f"e-0{digit},")
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
        d = self.x.shape[1]
        header = "k," + ",".join(f"x{i + 1}" for i in range(d)) + ",alpha,lambda,e_norm,rel_err"
        with open(path, "w") as fh:
            fh.write(header + "\n")
            for lo in range(0, self.k.size, _CSV_CHUNK):
                rows = slice(lo, lo + _CSV_CHUNK)
                x = _csv_cells(self.x[rows].ravel())
                cols = [_csv_cells(self.k[rows])] + [x[i::d] for i in range(d)]
                cols += [_schedule_cells(v[rows]) for v in (self.alpha, self.lam, self.e_norm)]
                cols.append(_csv_cells(self.rel_err[rows]) if self.rel_err is not None else [""] * len(cols[0]))
                fh.write("\n".join(map(",".join, zip(*cols))) + "\n")

    def write_meta(self, path) -> None:
        with open(path, "w") as fh:
            for key in sorted(self.metadata):
                fh.write(f"{key}: {self.metadata[key]}\n")


# --------------------------------------------------------------------------
# step rules, written once over the rows of a (C, d) array: o holds the
# problem's maps and projection on rows, a and lam are the (C, 1) columns of
# alpha_k and lambda_k, E holds the rows of e_k, U the anchors and B the
# (C, 1) column of beta. The same code steps one 1-D iterate with scalar
# coefficients and the problem's own 1-D maps and projection.


class _Ops(NamedTuple):
    """P_Q, A, f and S of a problem, on (C, d) arrays or on one vector."""

    P: Callable
    A: Callable
    f: Callable
    S: Callable

    @classmethod
    def of(cls, problem: ProblemSpec, rows: bool) -> _Ops:
        Q, maps = problem.set_Q, (problem.map_A, problem.map_f, problem.map_S)
        if not rows:
            return cls(partial(project, Q), *maps)
        return cls(partial(project_rows.dispatch(type(Q)), Q), *(rows_of(m) for m in maps))

    def forward(self, X, lam):
        """P_Q(X - lam A X) per row: the forward-backward map of every rule."""
        return self.P(X - lam * self.A(X))


def _explicit(o, X, a, lam, E, U, B):
    return a * o.f(X) + (1.0 - a) * o.S(o.forward(X, lam))


def _perturbed(o, X, a, lam, E, U, B):
    return o.P(_explicit(o, X, a, lam, E, U, B) + E)


def _takahashi_toyoda(o, X, a, lam, E, U, B):
    return a * X + (1.0 - a) * o.S(o.forward(X, lam))


def _halpern(o, X, a, lam, E, U, B):
    return a * U + (1.0 - a) * o.S(o.forward(X, lam))


def _yao_outer(o, X, a, lam, E, U, B):
    return B * X + (1.0 - B) * o.P(_halpern(o, X, a, lam, E, U, B))


def _yao_inner(o, X, a, lam, E, U, B):
    inner_pt = o.P(a * U + (1.0 - a) * (X - lam * o.A(X)))
    return B * X + (1.0 - B) * o.S(inner_pt)


_RULES = {
    EXPLICIT_VISCOSITY: _explicit,
    PERTURBED: _perturbed,
    TAKAHASHI_TOYODA: _takahashi_toyoda,
    HALPERN: _halpern,
    YAO_OUTER: _yao_outer,
    YAO_INNER: _yao_inner,
}


def _explicit_update(x, a, lam, problem):
    return _explicit(_Ops.of(problem, rows=False), np.asarray(x, dtype=float), a, lam, None, None, None)


def _perturbed_update(x, a, lam, e, problem):
    return _perturbed(_Ops.of(problem, rows=False), np.asarray(x, dtype=float), a, lam, e, None, None)


def explicit_step(x, k: int, cfg: SolverConfig) -> np.ndarray:
    """One step of the explicit viscosity rule at index k (k >= 1)."""
    if k < 1:
        raise IndexError(f"step index starts at 1, got {k}")
    a = alpha_at(cfg.schedule, k)
    lam = lambda_at(cfg.schedule, k)
    return _explicit_update(x, a, lam, cfg.problem)


def perturbed_step(x, k: int, cfg: SolverConfig) -> np.ndarray:
    """One step of the perturbed rule: the explicit step plus e_k, re-projected onto Q."""
    if k < 1:
        raise IndexError(f"step index starts at 1, got {k}")
    a = alpha_at(cfg.schedule, k)
    lam = lambda_at(cfg.schedule, k)
    e = perturbation_at(cfg.perturbation, k, cfg.problem.dim)
    return _perturbed_update(x, a, lam, e, cfg.problem)


# --------------------------------------------------------------------------
# the lockstep engine


def run(cfg: SolverConfig, extra_metadata: dict | None = None) -> RunTrace:
    """Iterate the selected rule from x1, recording iterates k = 1 .. n_max.

    The trace holds n_max rows (n_max - 1 update steps); row k carries the
    schedule values at index k. Stops early when rel_err_target is reached.
    Deterministic given the perturbation seed. A non-finite iterate raises
    :class:`DivergenceError` carrying the last finite state. This is
    :func:`run_batch` on a batch of one.
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


def _tables(cfg: SolverConfig, tabulated: dict):
    """The alpha and lambda tables of one run, and its schedule-violation counts.

    ``tabulated`` keeps the alpha and lambda tables of each schedule object
    already seen in the batch (sweep cells of one theta share a schedule).
    """
    n = cfg.n_max
    if id(cfg.schedule) not in tabulated:
        tabulated[id(cfg.schedule)] = tabulate(cfg.schedule, n)
    alphas, lams = tabulated[id(cfg.schedule)]
    a_lo, a_hi = cfg.schedule.bounds
    n_outside_bounds = int(np.count_nonzero((lams < a_lo) | (lams > a_hi)))
    n_outside_2nu = int(np.count_nonzero((lams < 0) | (lams > 2 * cfg.problem.nu)))
    if n_outside_2nu:
        msg = (
            f"{n_outside_2nu} lambda value(s) outside [0, 2*nu = {2 * cfg.problem.nu}]; "
            "convergence guarantees void"
        )
        if cfg.strict_schedule:
            raise ScheduleViolationError(msg)
        # _tables <- _lockstep <- run / run_batch <- their caller
        warnings.warn(msg, ScheduleViolationWarning, stacklevel=4)
    return alphas, lams, (n_outside_bounds, n_outside_2nu)


def _vector_norm(v):
    return float(np.sqrt(np.dot(v, v)))


class _Rows:
    """The rows of a batch still stepping: one array per field, row axis first.

    ``x`` is the start, then the iterate at which rows last left; the loop
    steps a local copy.
    """

    def __init__(self, **fields):
        self.__dict__.update(fields)

    def keep(self, mask) -> None:
        for name, value in list(vars(self).items()):
            if value is not None:
                setattr(self, name, value[mask])

    def views(self, problem: ProblemSpec) -> tuple:
        """What a step reads: x; the alpha, lambda and e tables indexed by k - 1;
        u, beta, the reference, its norm and the rel_err target; the norm, the
        test for any row at its target and the maps to use.

        A single row steps as a 1-D vector with scalar coefficients through the
        problem's own 1-D maps and projection, which cost less than (1, d)
        kernels; its rel_err is a Python float, as a numpy comparison costs
        more than the rest of a 2-D step.
        """
        if self.x.shape[0] > 1:
            return (self.x, self.alpha.T[:, :, None], self.lam.T[:, :, None],
                    None if self.e is None else self.e.swapaxes(0, 1), self.u, self.beta,
                    self.ref, self.nref, self.target, row_norms, np.ndarray.any, _Ops.of(problem, rows=True))

        def first(v):
            return None if v is None else v[0]

        return (self.x[0], self.alpha[0], self.lam[0], first(self.e), first(self.u), self.beta[0, 0],
                first(self.ref), None if self.nref is None else float(self.nref[0]),
                None if self.target is None else float(self.target[0]), _vector_norm, bool,
                _Ops.of(problem, rows=False))


def _lockstep(cfgs: list, extras: list) -> list:
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
    tables, tabulated = {}, {}
    for i, cfg in enumerate(cfgs):
        try:
            tables[i] = _tables(cfg, tabulated)
        except Exception as exc:  # a row that fails before stepping: its outcome
            results[i] = exc
    if not tables:
        return results
    ids, live = list(tables), [cfgs[i] for i in tables]
    alphas, lams, violations = zip(*tables.values())
    d = problem.dim
    # e_k rows, filled stream by stream; a batch of one keeps its stream
    E, e_norms = None, np.zeros((len(ids), n))
    for j, cfg in enumerate(live if rule == PERTURBED else ()):
        e = perturbation_stream(cfg.perturbation, n, d)
        e_norms[j] = np.linalg.norm(e, axis=1)
        if len(ids) == 1:
            E = e[None]
        else:
            E = np.empty((len(ids), n, d)) if E is None else E
            E[j] = e
    targets = [cfg.rel_err_target for cfg in live]
    rows = _Rows(
        cfg=np.array(ids),
        block=np.arange(len(ids)),
        x=np.array([cfg.x1 for cfg in live]),
        alpha=np.array(alphas),
        lam=np.array(lams),
        e=E,
        e_norm=e_norms,
        violations=np.array(violations),
        u=np.array([cfg.anchor for cfg in live]) if rule in (HALPERN, YAO_OUTER, YAO_INNER) else None,
        beta=np.array([[cfg.beta] for cfg in live]),
        ref=np.array([cfg.reference for cfg in live]) if with_ref else None,
        nref=np.array([norm(cfg.reference) for cfg in live]) if with_ref else None,
        target=np.array([-np.inf if t is None else t for t in targets]) if with_ref else None,
    )
    del tables, alphas, lams, E, e_norms
    has_target = any(t is not None for t in targets)

    # records: the stride grid k = 1, 1 + stride, ..., n is shared; a row that
    # stops off the grid writes its stopping row into the next slot. Traces
    # are views of these blocks.
    kgrid = np.arange(1, n + 1, stride)
    if kgrid[-1] != n:
        kgrid = np.append(kgrid, n)
    kgrid.setflags(write=False)
    Xrec = np.empty((len(ids), kgrid.size, d))

    def finish(j, count, stopped_at, off_grid):
        i, b = rows.cfg[j], rows.block[j]
        ks = np.append(kgrid[: count - 1], stopped_at) if off_grid else kgrid[:count]
        take = slice(0, count) if stride == 1 else ks - 1
        metadata = {
            "algorithm": rule,
            "prng": cfgs[i].perturbation.generator,
            "seed": cfgs[i].perturbation.seed,
            "n_max": n,
            "record_stride": stride,
            "stopped_at": stopped_at,
            "schedule_violations_bounds": int(rows.violations[j, 0]),
            "schedule_violations_2nu": int(rows.violations[j, 1]),
            "config_digest": config_digest(cfgs[i]),
            "package": f"viscosolve {_VERSION}",
        }
        metadata.update(extras[i] or {})
        results[i] = RunTrace(
            k=ks,
            x=Xrec[b, :count],
            alpha=rows.alpha[j][take],
            lam=rows.lam[j][take],
            e_norm=rows.e_norm[j][take],
            # one row_norms over the records: the norm(x_k - ref) / norm(ref) of each, bit for bit
            rel_err=row_norms(Xrec[b, :count] - rows.ref[j]) / rows.nref[j] if with_ref else None,
            metadata=metadata,
        )

    def leave(x, gone):
        """Drop the rows flagged in ``gone``; the views of the rest, or None when none is left."""
        rows.x = x.reshape(-1, d)
        rows.keep(~gone)
        return rows.views(problem) if rows.block.size else None

    step = _RULES[rule]
    x, a_tab, lam_tab, e_tab, u, beta, ref, nref, target, norms, any_of, ops = rows.views(problem)
    written = slice(None)  # block rows a record writes: all, until one leaves
    slot = 0
    for k in range(1, n + 1):
        on_grid = (k - 1) % stride == 0 or k == n
        if has_target:
            # only the stop test reads rel_err during the run; it may overflow
            # to inf on a diverging run, which the finiteness check below detects
            rel = norms(x - ref) / nref
        if on_grid:
            Xrec[written, slot] = x
        if has_target and any_of(hit := rel <= target):
            hit = np.reshape(hit, -1)
            js = np.flatnonzero(hit)
            if not on_grid:
                Xrec[rows.block[js], slot] = x.reshape(-1, d)[js]
            for j in js:
                finish(j, slot + 1, k, not on_grid)
            if (views := leave(x, hit)) is None:
                return results
            x, a_tab, lam_tab, e_tab, u, beta, ref, nref, target, norms, any_of, ops = views
            written = rows.block
        if on_grid:
            slot += 1
        if k == n:
            break
        x_next = step(ops, x, a_tab[k - 1], lam_tab[k - 1], None if e_tab is None else e_tab[k - 1], u, beta)
        if not np.isfinite(x_next).all():
            bad = ~np.isfinite(x_next.reshape(-1, d)).all(axis=1)
            for j in np.flatnonzero(bad):
                results[rows.cfg[j]] = DivergenceError(
                    f"non-finite iterate at step {k} (algorithm {rule!r})",
                    last_state=x.reshape(-1, d)[j].copy(),
                    step=k,
                )
            if (views := leave(x_next, bad)) is None:
                return results
            x_next, a_tab, lam_tab, e_tab, u, beta, ref, nref, target, norms, any_of, ops = views
            written = rows.block
        x = x_next
    for j in range(rows.block.size):
        finish(j, slot, None, False)
    return results


# --------------------------------------------------------------------------
# implicit path


@dataclass(frozen=True, eq=False)
class ImplicitConfig:
    """Settings for the implicit curve t -> x_t.

    ``lambda_of_t`` maps t to the relaxation step (a float means a constant
    map); values are expected in (0, 2*nu). Each solve runs safeguarded
    Anderson acceleration on the viscosity map and stops once either the
    contraction a-posteriori bound certifies ||x - x_t|| <= inner_tol or the
    fixed-point residual itself drops below inner_tol (for very small t the
    bound alone would demand residuals below the float64 rounding floor).
    ``inner_max_iter`` caps the viscosity_map evaluations of one solve.
    """

    t_values: tuple[float, ...]
    lambda_of_t: float | Callable[[float], float]
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
        if not self.inner_tol > 0:
            raise ConfigurationError("inner_tol must be > 0")

    def lam_at(self, t: float) -> float:
        if callable(self.lambda_of_t):
            return float(self.lambda_of_t(t))
        return float(self.lambda_of_t)


@dataclass(frozen=True, eq=False)
class PathPoint:
    """x_t; iterations counts viscosity_map calls, dist_bound = residual / (sigma t) >= ||x - x_t||."""

    t: float
    x: np.ndarray
    residual: float
    iterations: int
    dist_to_reference: float | None
    dist_bound: float


def _anderson_solve(t, lam, problem, x0, tol, max_iter):
    """Safeguarded Anderson acceleration of T = viscosity_map(., problem, t, lam).

    The candidate fits g = T(x) - x by least squares over the last
    ``_AA_DEPTH`` differences dx of accepted iterates and dg of their g, and
    moves T(x) by the fitted combination of dx + dg (Walker & Ni 2011). It is
    kept only if it cuts ||g|| by the contraction factor q = 1 - sigma t;
    else the Banach step T(x) is taken and the history cleared (Zhang,
    O'Donoghue & Boyd 2020). Returns (T(x), viscosity_map evaluations) once
    r = ||g(x)|| has r q / (1 - q) <= tol or r <= tol.
    """
    q = 1.0 - problem.sigma * t
    post_factor = q / (1.0 - q)  # a-posteriori multiplier
    history = deque(maxlen=_AA_DEPTH)  # (dx, dg) pairs
    x = fx = g = None
    r = np.inf
    y, accelerated, evals = x0, False, 0
    while evals < max_iter:
        fy = viscosity_map(y, problem, t, lam)
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
        if r * post_factor <= tol or r <= tol:
            return fx, evals
        # least squares by modified Gram-Schmidt over the dg, newest first; dropping
        # a dg nearly dependent on newer ones takes fewer evaluations than lstsq
        y, basis = fx, []
        for dx, dg in reversed(history):
            u, w = dx + dg, dg
            for ui, wi in basis:
                c = (wi @ w) / (wi @ wi)
                u, w = u - c * ui, w - c * wi
            if norm(w) > 1e-8 * norm(dg):
                basis.append((u, w))
                y = y - ((w @ g) / (w @ w)) * u
        accelerated = bool(basis)
    raise NonConvergenceError(
        f"implicit solve at t={t} did not converge in {max_iter} iterations "
        f"(last residual {r:.3e})",
        residual=r,
        iterations=evals,
    )


def implicit_solve(t: float, cfg: ImplicitConfig, problem: ProblemSpec, x0=None) -> np.ndarray:
    """The unique x_t with x_t = t f(x_t) + (1 - t) S P_Q(x_t - lambda(t) A x_t).

    Safeguarded Anderson acceleration on the viscosity map (contraction
    factor <= 1 - sigma t); the returned point has fixed-point residual
    <= cfg.inner_tol.
    """
    if not (0 < t <= 1):
        raise ParameterError(f"t must be in (0, 1], got {t}")
    x0 = as_vector(x0, dim=problem.dim, name="x0") if x0 is not None else project(
        problem.set_Q, np.zeros(problem.dim)
    )
    x, _ = _anderson_solve(t, cfg.lam_at(t), problem, x0, cfg.inner_tol, cfg.inner_max_iter)
    return x


def implicit_path(cfg: ImplicitConfig, problem: ProblemSpec, x1=None) -> list[PathPoint]:
    """Solve x_t along cfg.t_values, warm-starting each solve from the previous one.

    When the problem carries a closed-form target set, each point also
    reports its distance to the independently computed reference solution.
    """
    ref = None
    if problem.reference_set_omega is not None:
        ref = reference_solution(problem, tol=1e-12)
    x = as_vector(x1, dim=problem.dim, name="x1") if x1 is not None else project(
        problem.set_Q, np.zeros(problem.dim)
    )
    points = []
    for t in cfg.t_values:
        x, iters = _anderson_solve(t, cfg.lam_at(t), problem, x, cfg.inner_tol, cfg.inner_max_iter)
        residual = norm(x - viscosity_map(x, problem, t, cfg.lam_at(t)))
        dist = norm(x - ref) if ref is not None else None
        bound = residual / (problem.sigma * t)
        points.append(PathPoint(t, x, residual, iterations=iters, dist_to_reference=dist, dist_bound=bound))
    return points


def reference_solution(problem: ProblemSpec, tol: float = 1e-12, max_iter: int = 100_000) -> np.ndarray:
    """The target point: the unique fixed point of P_Omega . f.

    Needs ``problem.reference_set_omega``. Banach iteration with the
    contraction a-posteriori stop: once the step size drops below
    tol * (1 - rho) / rho, the iterate is within tol of the fixed point.
    """
    omega = problem.reference_set_omega
    if omega is None:
        raise ConfigurationError(
            "reference_solution needs problem.reference_set_omega (the closed-form target set)"
        )
    if not tol > 0:
        raise ConfigurationError("tol must be > 0")
    rho = problem.rho
    x = project(omega, np.zeros(problem.dim))
    step = np.inf
    for _ in range(max_iter):
        x_next = project(omega, np.asarray(problem.map_f(x), dtype=float))
        step = norm(x_next - x)
        x = x_next
        if rho == 0.0 or step * rho / (1.0 - rho) <= tol:
            return x
    raise NonConvergenceError(
        f"reference solve did not reach tol={tol} in {max_iter} iterations",
        residual=step,
        iterations=max_iter,
    )


def xu_recursion(a1, gamma, r, delta, n: int) -> list:
    """Run a_{k+1} = (1 - gamma_k) a_k + gamma_k r_k + delta_k with equality.

    Returns [a_1, ..., a_n]: the extremal majorant of the comparison
    inequality, used as a numeric oracle for convergence diagnostics.
    ``gamma``, ``r`` and ``delta`` may be callables of k >= 1 or indexable
    sequences. Arithmetic follows the input scalar types: pass
    ``fractions.Fraction`` values for exact evaluation.
    """
    if a1 < 0:
        raise ValueError(f"a1 must be >= 0, got {a1}")
    if n < 1:
        raise ValueError(f"n must be >= 1, got {n}")
    gamma_f = gamma if callable(gamma) else (lambda k: gamma[k - 1])
    r_f = r if callable(r) else (lambda k: r[k - 1])
    delta_f = delta if callable(delta) else (lambda k: delta[k - 1])
    a = a1
    out = [a]
    for k in range(1, n):
        g = gamma_f(k)
        if not (0 <= g <= 1):
            raise ValueError(f"gamma_{k} = {g} outside [0, 1]")
        a = (1 - g) * a + g * r_f(k) + delta_f(k)
        out.append(a)
    return out


# --------------------------------------------------------------------------
# structural digest (stable across processes; no addresses, no timestamps)


_encode = json.JSONEncoder(sort_keys=True).encode  # json.dumps(..., sort_keys=True)


def _json(obj) -> str:
    """``json.dumps(_jsonable(obj), sort_keys=True)``, splicing in the encoding a problem keeps
    where ``obj`` or one of its fields is a :class:`ProblemSpec`."""
    if isinstance(obj, ProblemSpec):
        return obj.digest_json
    if not dataclasses.is_dataclass(obj) or isinstance(obj, type):
        return _encode(_jsonable(obj))
    items = {"type": type(obj).__name__, **{f.name: getattr(obj, f.name) for f in dataclasses.fields(obj)}}
    members, run = [], {}  # the members of the JSON object; a run of consecutive other fields
    for k, v in sorted(items.items()):
        if isinstance(v, ProblemSpec):
            members += [_encode(run)[1:-1]] if run else []
            members.append(f"{_encode(k)}: {v.digest_json}")
            run = {}
        else:
            run[k] = _jsonable(v)
    members += [_encode(run)[1:-1]] if run else []
    return "{" + ", ".join(members) + "}"


def config_digest(cfg) -> str:
    """Short stable hash of a configuration's structure and numbers.

    A problem is encoded once per problem object (``ProblemSpec.digest_json``),
    so the runs that share it do not encode it again.
    """
    return hashlib.sha256(_json(cfg).encode()).hexdigest()[:16]
