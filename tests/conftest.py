"""Shared fixtures: the paper's databases, engines and baselines.

Dataset generation is deterministic, so session-scoped fixtures are safe
and keep the suite fast.  Tests must not mutate fixture databases; tests
that need a mutable database build their own.
"""

from __future__ import annotations

import faulthandler
import os
import sys

import pytest

from repro.baselines import SqakEngine
from repro.datasets import (
    denormalize_acmdl,
    denormalize_tpch,
    enrolment_database,
    generate_acmdl,
    generate_tpch,
    university_database,
    unnormalized_lecturer_database,
)
from repro.engine import KeywordSearchEngine


#: a test still running after this long has every thread's stack dumped
#: to stderr — the test's own frame among them — so that a hang is named
#: in the log before CI's ``timeout-minutes`` kills the job; the slowest
#: test takes well under a minute
HANG_SECONDS = 300

_stderr_fd = -1  # a copy of stderr, made before output capture takes it


def pytest_configure(config):
    global _stderr_fd
    _stderr_fd = os.dup(sys.stderr.fileno())


def pytest_unconfigure(config):
    os.close(_stderr_fd)


@pytest.fixture(autouse=True)
def name_a_hung_test():
    faulthandler.dump_traceback_later(HANG_SECONDS, file=_stderr_fd)
    yield
    faulthandler.cancel_dump_traceback_later()


@pytest.fixture(scope="session", autouse=True)
def lock_sanitizer():
    """Opt-in runtime lock-order sanitizer (``REPRO_LOCK_SANITIZER``).

    Unset — inert.  Set (CI uses ``1``) — instrument every lock the
    package creates and fail the session on an observed lock-order
    inversion (C002).
    """
    from repro.analysis.runtime import sanitizer_from_env

    sanitizer = sanitizer_from_env(os.environ.get("REPRO_LOCK_SANITIZER"))
    if sanitizer is None:
        yield None
        return
    sanitizer.install()
    try:
        yield sanitizer
    finally:
        sanitizer.uninstall()
        inversions = [
            diagnostic
            for diagnostic in sanitizer.report()
            if diagnostic.code == "C002"
        ]
        assert not inversions, "\n".join(str(d) for d in inversions)


@pytest.fixture(scope="session")
def university_db():
    return university_database()


@pytest.fixture(scope="session")
def university_engine(university_db):
    return KeywordSearchEngine(university_db)


@pytest.fixture(scope="session")
def university_sqak(university_db):
    return SqakEngine(university_db)


@pytest.fixture(scope="session")
def enrolment_db():
    return enrolment_database()


@pytest.fixture(scope="session")
def enrolment_fds():
    return {"Enrolment": ["Sid -> Sname, Age", "Code -> Title, Credit"]}


@pytest.fixture(scope="session")
def enrolment_engine(enrolment_db, enrolment_fds):
    return KeywordSearchEngine(enrolment_db, fds=enrolment_fds)


@pytest.fixture(scope="session")
def fig2_db():
    return unnormalized_lecturer_database()


@pytest.fixture(scope="session")
def fig2_engine(fig2_db):
    return KeywordSearchEngine(fig2_db, fds={"Lecturer": ["Did -> Fid"]})


@pytest.fixture(scope="session")
def tpch_db():
    return generate_tpch()


@pytest.fixture(scope="session")
def tpch_engine(tpch_db):
    return KeywordSearchEngine(tpch_db)


@pytest.fixture(scope="session")
def tpch_sqak(tpch_db):
    return SqakEngine(tpch_db)


@pytest.fixture(scope="session")
def acmdl_db():
    return generate_acmdl()


@pytest.fixture(scope="session")
def acmdl_engine(acmdl_db):
    return KeywordSearchEngine(acmdl_db)


@pytest.fixture(scope="session")
def acmdl_sqak(acmdl_db):
    return SqakEngine(acmdl_db)


@pytest.fixture(scope="session")
def tpch_unnorm(tpch_db):
    return denormalize_tpch(tpch_db)


@pytest.fixture(scope="session")
def tpch_unnorm_engine(tpch_unnorm):
    return KeywordSearchEngine(
        tpch_unnorm.database,
        fds=tpch_unnorm.fds,
        name_hints=tpch_unnorm.name_hints,
    )


@pytest.fixture(scope="session")
def tpch_unnorm_sqak(tpch_unnorm):
    return SqakEngine(tpch_unnorm.database, extra_joins=tpch_unnorm.sqak_extra_joins)


@pytest.fixture(scope="session")
def acmdl_unnorm(acmdl_db):
    return denormalize_acmdl(acmdl_db)


@pytest.fixture(scope="session")
def acmdl_unnorm_engine(acmdl_unnorm):
    return KeywordSearchEngine(
        acmdl_unnorm.database,
        fds=acmdl_unnorm.fds,
        name_hints=acmdl_unnorm.name_hints,
    )


@pytest.fixture(scope="session")
def acmdl_unnorm_sqak(acmdl_unnorm):
    return SqakEngine(
        acmdl_unnorm.database, extra_joins=acmdl_unnorm.sqak_extra_joins
    )
