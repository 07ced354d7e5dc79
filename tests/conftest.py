"""Fixtures shared by the test modules."""

import os

import pytest


class Forks(list):
    """The pids of the processes forked from this one, in fork order."""

    def alive(self) -> list[int]:
        """Those not yet reaped: running, or exited and not waited for."""
        running = []
        for pid in self:
            try:
                os.kill(pid, 0)
            except ProcessLookupError:
                continue
            running.append(pid)
        return running


@pytest.fixture
def forks(monkeypatch):
    """The worker processes chunk_map forks, on two CPUs whatever the host has."""
    started = Forks()
    real_fork = os.fork

    def fork():
        pid = real_fork()
        if pid:  # the parent; the child returns 0 and records nothing
            started.append(pid)
        return pid

    monkeypatch.setattr(os, "fork", fork)
    monkeypatch.setattr("tentlab.basins._cpus", lambda: 2)
    return started
