"""Fixtures shared by the test modules."""

import multiprocessing.context
import os

import pytest


@pytest.fixture
def forks(monkeypatch):
    """The worker processes chunk_map starts, on two CPUs whatever the host has."""
    started = []
    real_start = multiprocessing.context.ForkProcess.start

    def start(self):
        started.append(self)
        real_start(self)

    monkeypatch.setattr(multiprocessing.context.ForkProcess, "start", start)
    monkeypatch.setattr(os, "cpu_count", lambda: 2)
    return started
