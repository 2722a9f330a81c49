import contextlib
import os
import signal
import sys

import pytest

sys.path.insert(0, os.path.dirname(__file__))


@pytest.fixture
def deadline():
    """``with deadline(s):`` raises TimeoutError in the block after s
    seconds, so that a computation that has become unbounded fails its test
    instead of hanging it."""

    @contextlib.contextmanager
    def within(seconds):
        def expire(signum, frame):
            raise TimeoutError(f"did not finish within {seconds} s")

        previous = signal.signal(signal.SIGALRM, expire)
        signal.setitimer(signal.ITIMER_REAL, seconds)
        try:
            yield
        finally:
            signal.setitimer(signal.ITIMER_REAL, 0)
            signal.signal(signal.SIGALRM, previous)

    return within


@pytest.fixture
def matrix_calls(monkeypatch):
    """The dimension d of each d x d matrix that ``liegrade._matrix`` builds
    from a cell map during the test, in order; the test may clear it."""
    from gradedorbits import liegrade

    calls = []
    build = liegrade._matrix

    def counted(d, cells, den=1):
        calls.append(d)
        return build(d, cells, den)

    monkeypatch.setattr(liegrade, "_matrix", counted)
    return calls


@pytest.fixture
def no_rows_built(monkeypatch):
    """Forbids ``orbitlib._chain_orbits``, so that no row of a graded-orbit
    table is built, and lists how many multisets each call of
    ``orbitlib._interval_multisets`` handed out; the test may clear it."""
    from gradedorbits import orbitlib

    taken = []
    listing = orbitlib._interval_multisets

    def counted(dims):
        taken.append(0)
        for multiset in listing(dims):
            taken[-1] += 1
            yield multiset

    def build_nothing(*args):
        raise AssertionError("rows were built")

    monkeypatch.setattr(orbitlib, "_interval_multisets", counted)
    monkeypatch.setattr(orbitlib, "_chain_orbits", build_nothing)
    return taken
