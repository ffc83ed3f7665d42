"""Shared fixtures plus the acceptance-criteria report hook.

The acceptance tests register one line per criterion; the hook prints the
collected lines after the run so the pass/fail story is visible in plain
pytest output without -s.
"""
import os
import subprocess
import sys
from collections import namedtuple

import pytest

from robinlab.arithmetic import sigma_sieve
from robinlab.cli import CSV_HEADERS
from robinlab.primes import primes_up_to

_CRITERION_LINES: dict[str, tuple[str, str]] = {}


# the columns each library function hands to on_rows: its command's CSV
# header, and for the sweep the three columns of its cross-check
ROW_FIELDS = {
    "condition7": [*CSV_HEADERS["condition7"], "deviation", "log_zeta_partial", "deficit_holds"],
    "gap-series": CSV_HEADERS["gap-series"],
    "theta-check": CSV_HEADERS["theta-check"],
}


class RowLog(list):
    """An on_rows target that keeps every row, as a named tuple of Python values."""

    def __init__(self, command: str) -> None:
        super().__init__()
        self._row = namedtuple("Row", ROW_FIELDS[command])

    def __call__(self, columns) -> None:
        assert len(columns) == len(self._row._fields)
        assert len({c.size for c in columns}) == 1 and columns[0].size > 0  # no empty call
        self.extend(map(self._row._make, zip(*[c.tolist() for c in columns])))


@pytest.fixture
def row_log():
    return RowLog


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
