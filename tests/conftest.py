import faulthandler
import os
import sys

import pytest

from sgpoly import AlgebraContext, FieldSpec, friendly_context, from_generators
from oracles import sieve_irreducibles


@pytest.fixture(scope="session")
def f2():
    return FieldSpec(2)


@pytest.fixture(scope="session")
def f3():
    return FieldSpec(3)


@pytest.fixture(scope="session")
def friendly():
    return friendly_context()


@pytest.fixture(scope="session")
def ctx345(f2):
    return AlgebraContext(f2, from_generators((3, 4, 5)))


@pytest.fixture(scope="session")
def f2_sieve(f2):
    """Oracle irreducibles over F_2 up to degree 16 (multiplication sieve)."""
    return sieve_irreducibles(f2, 16)


@pytest.fixture(scope="session")
def f3_sieve(f3):
    """Oracle irreducibles over F_3 up to degree 10."""
    return sieve_irreducibles(f3, 10)


# a test that runs past this ends the suite, exit 1 with every thread's
# traceback on stderr, instead of hanging it; the slowest test takes under
# 10 s.  The limit starts after the session fixtures are set up
TEST_TIME_LIMIT_S = 60

# stderr as it was before output capture: ending the process loses what
# the capture holds, so the traceback is written past it
_STDERR_FD = pytest.StashKey[int]()


def pytest_configure(config):
    config.stash[_STDERR_FD] = os.dup(sys.stderr.fileno())


def pytest_unconfigure(config):
    os.close(config.stash[_STDERR_FD])


@pytest.fixture(autouse=True)
def time_limit(pytestconfig):
    faulthandler.dump_traceback_later(
        TEST_TIME_LIMIT_S, exit=True, file=pytestconfig.stash[_STDERR_FD])
    yield
    faulthandler.cancel_dump_traceback_later()
