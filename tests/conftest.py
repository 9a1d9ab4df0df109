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
    """Binds the solver to np.linalg.lstsq and eigvalsh, its binding on numpy 1.x, in place of their gufuncs."""
    monkeypatch.setattr(synth, "_lstsq", np.linalg.lstsq)
    monkeypatch.setattr(synth, "_eigvalsh", np.linalg.eigvalsh)


class LapackInputs:
    """The arguments of every least-squares call, as (a, b, rcond), and of
    every eigenvalue call that the solver makes while recording."""

    def __init__(self):
        self.lstsq, self.eigvalsh = synth._lstsq, synth._eigvalsh  # the bound calls
        self.systems, self.hessians = [], []

    def assert_public_bits(self):
        """The bound calls give np.linalg's bits on every recorded input, lstsq's at its default rcond."""
        for a, b, rcond in self.systems:
            assert self.lstsq(a, b, rcond)[0].tobytes() == np.linalg.lstsq(a, b, rcond=None)[0].tobytes()
        for a in self.hessians:
            assert self.eigvalsh(a).tobytes() == np.linalg.eigvalsh(a).tobytes()


@pytest.fixture
def lapack_inputs(monkeypatch):
    """A LapackInputs that records from now until the test ends."""
    inputs = LapackInputs()

    def recorded_lstsq(a, b, rcond):
        inputs.systems.append((a.copy(), b.copy(), rcond))
        return inputs.lstsq(a, b, rcond)

    def recorded_eigvalsh(a):
        inputs.hessians.append(a.copy())
        return inputs.eigvalsh(a)

    monkeypatch.setattr(synth, "_lstsq", recorded_lstsq)
    monkeypatch.setattr(synth, "_eigvalsh", recorded_eigvalsh)
    return inputs
