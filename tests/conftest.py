import multiprocessing
import os

import numpy as np
import pytest
from hypothesis import settings

from synthpanel import synth

# property tests do real numerical work; wall-clock deadlines only add flakes,
# and a fixed draw makes each run test the same examples
settings.register_profile("no_deadline", deadline=None, derandomize=True)
settings.load_profile("no_deadline")


@pytest.fixture
def report_cpus(monkeypatch):
    """`report_cpus(n)` makes the CPU affinity mask show n CPUs and returns
    a list of the start method of each worker pool started from then on."""
    real_get_context = multiprocessing.get_context

    def report(cpus):
        started = []

        def get_context(method=None):
            started.append(method)
            return real_get_context(method)

        monkeypatch.setattr(os, "sched_getaffinity", lambda pid: set(range(cpus)), raising=False)
        monkeypatch.setattr(multiprocessing, "get_context", get_context)
        return started

    return report


@pytest.fixture
def public_lapack(monkeypatch):
    """Binds the solver to np.linalg's lstsq, eigvalsh and solve, and to one `@` per slice of a stacked
    product, as on numpy 1.x, in place of the LAPACK gufuncs and np.matvec and np.vecmat."""
    for name, call in zip(("_lstsq", "_eigvalsh", "_lu", "_matvec", "_vecmat"),
                          (*synth._public_linalg(), *synth._sliced_products())):
        monkeypatch.setattr(synth, name, call)


class LapackInputs:
    """The arguments of every least-squares system, as (a, b, rcond), of
    every eigenvalue system and of every LU solve, as (a, b), that the
    solver passes while recording, with each slice of a stacked call as a
    system of its own, and the number of systems of each least-squares and
    eigenvalue call."""

    def __init__(self):
        self.lstsq, self.eigvalsh, self.lu = synth._lstsq, synth._eigvalsh, synth._lu  # the bound calls
        self.systems, self.hessians, self.lu_systems = [], [], []
        self.lstsq_calls, self.eigvalsh_calls = [], []

    def assert_public_bits(self):
        """The bound calls give np.linalg's bits on every recorded input, lstsq's at its default rcond.

        On a singular system np.linalg.solve raises, and the bound LU solve must return nan.
        """
        for a, b, rcond in self.systems:
            assert self.lstsq(a, b, rcond)[0].tobytes() == np.linalg.lstsq(a, b, rcond=None)[0].tobytes()
        for a in self.hessians:
            assert self.eigvalsh(a).tobytes() == np.linalg.eigvalsh(a).tobytes()
        for a, b in self.lu_systems:
            try:
                expected = np.linalg.solve(a, b)
            except np.linalg.LinAlgError:
                expected = np.full(b.shape, np.nan)
            with np.errstate(invalid="ignore"):  # the flag a failed gufunc raises
                assert self.lu(a, b).tobytes() == expected.tobytes()


@pytest.fixture
def lapack_inputs(monkeypatch):
    """A LapackInputs that records from now until the test ends."""
    inputs = LapackInputs()

    def recorded_lstsq(a, b, rcond):
        stack = list(zip(a, b)) if a.ndim > 2 else [(a, b)]
        inputs.systems.extend((ai.copy(), bi.copy(), rcond) for ai, bi in stack)
        inputs.lstsq_calls.append(len(stack))
        return inputs.lstsq(a, b, rcond)

    def recorded_eigvalsh(a):
        stack = list(a) if a.ndim > 2 else [a]
        inputs.hessians.extend(ai.copy() for ai in stack)
        inputs.eigvalsh_calls.append(len(stack))
        return inputs.eigvalsh(a)

    def recorded_lu(a, b):
        inputs.lu_systems.append((a.copy(), b.copy()))
        return inputs.lu(a, b)

    monkeypatch.setattr(synth, "_lstsq", recorded_lstsq)
    monkeypatch.setattr(synth, "_eigvalsh", recorded_eigvalsh)
    monkeypatch.setattr(synth, "_lu", recorded_lu)
    return inputs


@pytest.fixture(params=["vertex", "uniform", "random"])
def stand_in_probe(request, monkeypatch):
    """Replaces synth._probe with a plain start: the vertex of least objective,
    uniform weights, or random simplex weights on a random support. The
    certified warm attempt or the cold solve defines the bits, so no start
    may change them."""
    rng = np.random.default_rng(0)

    def vertex(A, b, kkt, rhs):
        w = np.zeros(b.size)
        w[(A.diagonal() - 2.0 * b).argmin()] = 1.0
        return w

    def uniform(A, b, kkt, rhs):
        return np.full(b.size, 1.0 / b.size)

    def random(A, b, kkt, rhs):
        w = np.zeros(b.size)
        held = rng.choice(b.size, size=int(rng.integers(1, b.size + 1)), replace=False)
        w[held] = rng.dirichlet(np.ones(held.size))
        return w

    monkeypatch.setattr(synth, "_probe", {"vertex": vertex, "uniform": uniform, "random": random}[request.param])
    return request.param
