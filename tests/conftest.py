import multiprocessing
import os

import pytest
from hypothesis import settings

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
