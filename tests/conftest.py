"""Shared fixtures: groups are expensive to enumerate, so build once per
session; ``hang_guard`` turns a search that runs away into a failure."""

import signal

import pytest

from glab.groupcore import build_group, parse_group_spec


def _group(text):
    return build_group(parse_group_spec(text))


@pytest.fixture(scope="session")
def cyc5():
    return _group("Cyc(5)")


@pytest.fixture(scope="session")
def cyc6():
    return _group("Cyc(6)")


@pytest.fixture(scope="session")
def cyc7():
    return _group("Cyc(7)")


@pytest.fixture(scope="session")
def cyc12():
    return _group("Cyc(12)")


@pytest.fixture(scope="session")
def ab42():
    return _group("Ab(4,2)")


@pytest.fixture(scope="session")
def sym3():
    return _group("Sym(3)")


@pytest.fixture(scope="session")
def sym4():
    return _group("Sym(4)")


@pytest.fixture(scope="session")
def sym6():
    return _group("Sym(6)")


@pytest.fixture(scope="session")
def alt5():
    return _group("Alt(5)")


@pytest.fixture(scope="session")
def sl25():
    return _group("SL(2,5)")


@pytest.fixture(scope="session")
def sl27():
    return _group("SL(2,7)")


@pytest.fixture(scope="session")
def sl33():
    return _group("SL(3,3)")


@pytest.fixture(scope="session")
def a5xs3():
    return _group("Prod(Alt(5),Sym(3))")


HANG_LIMIT_S = 60


@pytest.fixture
def hang_guard():
    """Fail the test once it has run HANG_LIMIT_S seconds (SIGALRM), so a
    search whose pruning broke fails instead of hanging the suite."""
    def expire(signum, frame):
        raise TimeoutError(f"still running after {HANG_LIMIT_S} s")

    previous = signal.signal(signal.SIGALRM, expire)
    signal.alarm(HANG_LIMIT_S)
    yield
    signal.alarm(0)
    signal.signal(signal.SIGALRM, previous)
