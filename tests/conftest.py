"""Shared fixtures plus the acceptance-criteria report hook.

The acceptance tests register one line per criterion; the hook prints the
collected lines after the run so the pass/fail story is visible in plain
pytest output without -s.
"""
import os
import subprocess
import sys

import pytest

from robinlab.arithmetic import sigma_sieve
from robinlab.primes import primes_up_to

_CRITERION_LINES: dict[str, tuple[str, str]] = {}


def record_criterion(key: str, status: str, detail: str) -> None:
    _CRITERION_LINES[key] = (status, detail)


@pytest.fixture(scope="session")
def table7():
    # one shared table reaching past 1e7 so large scans never re-sieve
    return primes_up_to(10_000_100)


@pytest.fixture(scope="session")
def sigma1e5():
    return sigma_sieve(100_000)


@pytest.fixture(scope="session")
def sigma1e6():
    return sigma_sieve(1_000_000)


@pytest.fixture
def criterion_log():
    return record_criterion


@pytest.fixture(scope="session")
def run_cli():
    def run(args, env_extra=None, timeout=None):
        env = os.environ.copy()
        if env_extra:
            env.update(env_extra)
        return subprocess.run(
            [sys.executable, "-m", "robinlab.cli", *args],
            capture_output=True, text=True, env=env, timeout=timeout,
        )
    return run


def pytest_terminal_summary(terminalreporter, exitstatus, config):
    if not _CRITERION_LINES:
        return
    terminalreporter.section("acceptance criteria")
    for key in sorted(_CRITERION_LINES):
        status, detail = _CRITERION_LINES[key]
        terminalreporter.write_line(f"criterion {key}: {status}  {detail}")
