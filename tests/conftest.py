import os

import hypothesis
import numpy as np
import pytest

import viscosolve as vs

hypothesis.settings.register_profile("ci", deadline=None)
hypothesis.settings.load_profile("ci")


@pytest.fixture(scope="session")
def problem():
    return vs.build_benchmark_problem()


@pytest.fixture(scope="session")
def qstar(problem):
    return vs.reference_solution(problem, tol=1e-12)


@pytest.fixture
def rng():
    return np.random.default_rng(0)


@pytest.fixture
def cpus(monkeypatch):
    """``cpus(n)`` makes the affinity query report n CPUs, so the trace writer splits its traces into at most n
    shares."""
    def set_cpus(n):
        monkeypatch.setattr(os, "sched_getaffinity", lambda pid: set(range(n)), raising=False)

    return set_cpus


@pytest.fixture
def forks(monkeypatch):
    """The list of os.fork calls made in this process from here on (each appended before it forks)."""
    made, fork = [], os.fork
    monkeypatch.setattr(os, "fork", lambda: made.append(1) or fork())
    return made
