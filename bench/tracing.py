"""Spans around calls into the package's layers, call counts, and per-call timing.

Spans are recorded only from the benchmark's own files; nothing inside
``src/`` is edited. The passes put spans around the calls they make into a
layer's public functions. For calls the package makes internally,
``instrument`` swaps functions in the package's module namespaces for the
length of one pass: the infrequent ones in ``SPANNED`` get a nested span,
and every call of the frequent, cheap ones in ``COUNTED`` is counted, per
innermost open span. Counts are taken on a pass of their own, so the counting
wrappers never slow a timed pass; a count times the function's cost per call
(timed afterwards on the arguments of its first call) is that layer's share
of the span (see ``layers.py``).
"""

from __future__ import annotations

import bisect
import contextlib
import importlib
import math
import pkgutil
import signal
import statistics
import sys
import time
from dataclasses import dataclass

import numpy as np

# Nominal duration of one calibration kernel: the reference machine speed.
CAL_REF_S = 0.001
# Set-up (imports, file reads, config builds) slows less than the kernel
# when the host slows: on a shared 2-vCPU VM raw set-up took 1.5x as long in
# the host's slow state as in its fast one, where the kernel took 2x. Its
# speed factor is taken to this power, chosen on one set of runs and checked
# on others (see "Speed scaling" in README.md).
SETUP_ELASTICITY = 0.7
_CAL_G = np.array([[2.0, 1.0], [1.0, 3.0]])
_CAL_B = np.array([1.0, 2.0])


# Infrequent calls the package makes internally, given a nested span: name -> layer.
SPANNED = {"run": "solvers", "reference_solution": "solvers", "perturbation_stream": "schedules"}
# Frequent, cheap calls the package makes internally, counted: name -> layer.
# The maps of a problem (A, f, S) are counted too, in the ``operators`` layer.
COUNTED = {"project": "projections", "norm": "space", "alpha_at": "schedules", "lambda_at": "schedules"}


@dataclass
class Span:
    layer: str
    name: str
    start: float
    end: float
    parent: int | None
    pass_id: int

    @property
    def duration(self) -> float:
        return self.end - self.start


class Tracer:
    """Keeps spans in memory; one tracer per traced pass.

    With a ``CallCounter``, the counter's calls are attributed to the
    innermost span open at the time.
    """

    def __init__(self, clock, pass_id: int = 0, counter: CallCounter | None = None):
        self.clock = clock
        self.pass_id = pass_id
        self.counter = counter
        self.spans: list[Span] = []
        self._stack: list[int] = []

    def call(self, layer: str, name: str, fn, *args, **kwargs):
        index = len(self.spans)
        parent = self._stack[-1] if self._stack else None
        self.spans.append(Span(layer, name, self.clock.now(), 0.0, parent, self.pass_id))
        self._stack.append(index)
        if self.counter is not None:
            self.counter.span = index
        try:
            return fn(*args, **kwargs)
        finally:
            self._stack.pop()
            if self.counter is not None:
                self.counter.span = parent
            self.spans[index].end = self.clock.now()

    def top_level(self) -> list[Span]:
        return [s for s in self.spans if s.parent is None]

    def shape(self) -> list[tuple[str, str, int | None]]:
        return [(s.layer, s.name, s.parent) for s in self.spans]


class CallCounter:
    """Counts calls of wrapped functions, per (innermost span, function, first argument).

    A call made while another counted call runs is not counted: its cost is
    part of the outer call's. The first argument is told apart by identity
    (a set, a map, a schedule), or by size for an array. The arguments of
    the first call of each key are kept, so its cost per call can be timed
    after the pass.
    """

    def __init__(self):
        self.span: int | None = None
        self.counts: dict[tuple, int] = {}
        self.samples: dict[tuple, tuple] = {}  # (function, arg key) -> (layer, original, args)
        self._inside = False

    def wrap(self, name: str, layer: str, fn):
        def counted(*args, **kwargs):
            if self._inside:
                return fn(*args, **kwargs)
            first = args[0]
            key = (name, ("size", first.size) if isinstance(first, np.ndarray) else id(first))
            if key not in self.samples:
                self.samples[key] = (layer, fn, args)
            span_key = (self.span, key)
            self.counts[span_key] = self.counts.get(span_key, 0) + 1
            self._inside = True
            try:
                return fn(*args, **kwargs)
            finally:
                self._inside = False

        return counted

    def total(self, name: str) -> int:
        return sum(n for (_, key), n in self.counts.items() if key[0] == name)


@contextlib.contextmanager
def instrument(tracer: Tracer, maps=()):
    """Swap the ``SPANNED`` (and, with a counter, ``COUNTED``) functions for one pass.

    Every module of the package that holds one of these functions as a
    global gets the wrapper, except the top-level package, through which the
    passes make their own (already spanned) calls. ``maps`` are the problem
    maps whose class ``__call__`` is counted. Every submodule is imported
    first: one imported during the pass would bind a wrapper for good.
    """
    import viscosolve

    for info in pkgutil.iter_modules(viscosolve.__path__, "viscosolve."):
        importlib.import_module(info.name)
    wrappers = {}
    for name, layer in SPANNED.items():
        fn = getattr(viscosolve, name)
        wrappers[id(fn)] = _spanned(tracer, name, layer, fn)
    counter = tracer.counter
    if counter is not None:
        for name, layer in COUNTED.items():
            fn = getattr(viscosolve, name)
            wrappers[id(fn)] = counter.wrap(name, layer, fn)
    saved = []
    for mod_name, module in list(sys.modules.items()):
        if not mod_name.startswith("viscosolve.") or module is None:
            continue
        for attr, value in list(vars(module).items()):
            if id(value) in wrappers:
                saved.append((module, attr, value))
                setattr(module, attr, wrappers[id(value)])
    if counter is not None:
        for cls in {type(m) for m in maps}:
            original = cls.__call__
            saved.append((cls, "__call__", original))
            cls.__call__ = counter.wrap(f"map.{cls.__name__}", "operators", original)
    try:
        yield
    finally:
        for owner, attr, value in reversed(saved):
            setattr(owner, attr, value)


def _spanned(tracer: Tracer, name: str, layer: str, fn):
    def spanned(*args, **kwargs):
        label = f"run.{args[0].algorithm}" if name == "run" else name
        return tracer.call(layer, label, fn, *args, **kwargs)

    return spanned


def median_spans(tracers: list[Tracer], clock) -> list[tuple[str, str, int | None, float]]:
    """Per-position median of span durations (speed-scaled seconds), with each span's parent."""
    shape = tracers[0].shape()
    if any(t.shape() != shape for t in tracers):
        raise ValueError("traced passes recorded different span sequences")
    return [
        (layer, name, parent,
         statistics.median(t.spans[i].duration * clock.factor(t.spans[i].start, t.spans[i].end) for t in tracers))
        for i, (layer, name, parent) in enumerate(shape)
    ]


def per_call_s(clock, fn, *, per_invocation: int = 1, repeats: int = 5, min_block_s: float = 0.004) -> float:
    """Median speed-scaled seconds per call of ``fn`` (a zero-argument closure).

    ``fn`` may make ``per_invocation`` calls of the timed function per
    invocation. The block size grows until one block takes ``min_block_s``,
    then ``repeats`` blocks are timed.
    """
    fn()
    number = 1
    while True:
        t0 = clock.now()
        for _ in range(number):
            fn()
        if clock.now() - t0 >= min_block_s:
            break
        number *= 4
    samples = []
    for _ in range(repeats):
        secs, _ = timed(clock, lambda: [fn() for _ in range(number)])
        samples.append(secs / (number * per_invocation))
    return statistics.median(samples)


def timed(clock, fn, *args, **kwargs) -> tuple[float, object]:
    """Speed-scaled seconds of one call, and its result."""
    t0 = clock.now()
    out = fn(*args, **kwargs)
    t1 = clock.now()
    return (t1 - t0) * clock.factor(t0, t1), out


def _calibration_kernel() -> None:
    # fixed work shaped like a solver step: small-vector numpy dispatch plus
    # Python float arithmetic; it never calls the package under test
    x = np.array([1.0, 1.0])
    acc = 0.0
    for _ in range(150):
        x = np.maximum(x - 0.1 * (_CAL_G @ x - _CAL_B), 0.0)
        acc += math.cos(acc + float(x[0]))
        d = x - _CAL_B
        acc += float(np.sqrt(np.dot(d, d)))


class SpeedSampler:
    """Samples the machine's speed all through a run, from a timer signal.

    On a shared host the speed drifts by up to 2x within seconds, in CPU time
    as much as in wall time, and it moves every kind of work together. Every
    ``PERIOD_S`` the SIGALRM handler runs a fixed calibration kernel (about
    1 ms) in this process, between two bytecodes of whatever is being
    measured, and records how long it took. ``now()`` is a clock that
    excludes the time spent in the handler. ``factor(a, b)`` rescales an
    interval [a, b] of that clock towards the reference speed, at which the
    kernel takes CAL_REF_S: a measured time is reported in units of kernel
    runs. The speed can switch within a pass, so each sample's speed holds
    from halfway to the sample before it to halfway to the sample after it,
    and the interval's factor is the time-weighted mean over the samples it
    overlaps.
    """

    PERIOD_S = 0.04

    def __init__(self):
        self.samples: list[tuple[float, float]] = []
        self.spent = 0.0
        self._previous = None

    def _handler(self, signum, frame):
        t0 = time.perf_counter()
        _calibration_kernel()
        dt = time.perf_counter() - t0
        self.spent += dt
        self.samples.append((t0 - self.spent + dt, dt))

    def now(self) -> float:
        return time.perf_counter() - self.spent

    def start(self) -> None:
        for _ in range(3):
            self._handler(signal.SIGALRM, None)
        self._previous = signal.signal(signal.SIGALRM, self._handler)
        signal.setitimer(signal.ITIMER_REAL, self.PERIOD_S, self.PERIOD_S)

    def stop(self) -> None:
        signal.setitimer(signal.ITIMER_REAL, 0.0, 0.0)
        signal.signal(signal.SIGALRM, self._previous or signal.SIG_DFL)

    def factor(self, a: float, b: float, elasticity: float = 1.0) -> float:
        """Time-weighted mean of (CAL_REF_S / kernel time) ** elasticity over [a, b]."""
        times = [t for t, _ in self.samples]
        lo = max(bisect.bisect_left(times, a) - 1, 0)
        hi = min(bisect.bisect_right(times, b) + 1, len(times))
        weighted = 0.0
        for j in range(lo, hi):
            left = (times[j - 1] + times[j]) / 2 if j > 0 else -math.inf
            right = (times[j] + times[j + 1]) / 2 if j + 1 < len(times) else math.inf
            overlap = min(b, right) - max(a, left)
            if overlap > 0:
                weighted += overlap * (CAL_REF_S / self.samples[j][1]) ** elasticity
        if b <= a or weighted == 0.0:  # an empty interval: the nearest sample's speed
            nearest = min(self.samples, key=lambda s: abs(s[0] - a))
            return (CAL_REF_S / nearest[1]) ** elasticity
        return weighted / (b - a)
