"""Fixtures shared by the test modules, and the guards against stray
processes and threads."""

import math
import multiprocessing
import threading

import pytest

import semilab.evolution as evolution


@pytest.fixture(autouse=True)
def no_process_left_running():
    """Fail any test after which a child process is still running; the
    strays are stopped first, so that one leak does not spread."""
    yield
    left = multiprocessing.active_children()
    for proc in left:
        proc.terminate()
        proc.join()
    if left:
        pytest.fail(f"processes left running after the test: {left}")


@pytest.fixture(autouse=True)
def no_thread_left_running():
    """Fail any test after which a thread started during it is still alive,
    such as a process pool's manager or queue feeder thread."""
    before = set(threading.enumerate())
    yield
    left = [t for t in threading.enumerate() if t not in before]
    if left:
        pytest.fail(f"threads left running after the test: {left}")


@pytest.fixture
def march_on(monkeypatch):
    """march_on(cpus): march every block of two or more columns in forked
    column groups, as if ``cpus`` CPUs were usable; march_on(None): march
    every block in-process."""
    def force(cpus):
        if cpus is None:
            monkeypatch.setattr(evolution, "PARALLEL_WORK", math.inf)
        else:
            monkeypatch.setattr(evolution, "PARALLEL_WORK", 0)
            monkeypatch.setattr(evolution.os, "sched_getaffinity",
                                lambda pid: set(range(cpus)))
    return force


@pytest.fixture
def process_starts(monkeypatch):
    """Every process started during the test, in order."""
    started = []
    start = multiprocessing.process.BaseProcess.start

    def counting_start(proc):
        started.append(proc)
        start(proc)

    monkeypatch.setattr(multiprocessing.process.BaseProcess, "start",
                        counting_start)
    return started
