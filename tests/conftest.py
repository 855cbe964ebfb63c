"""Collects acceptance-criterion verdicts and prints them in the summary, and
gives the tests a spy on the C core's entry scan."""

import ctypes

import pytest

from fpmimo import _core

CRITERION_LINES = []


def pytest_terminal_summary(terminalreporter):
    if not CRITERION_LINES:
        return
    terminalreporter.section("acceptance criteria")
    for line in sorted(CRITERION_LINES):
        terminalreporter.write_line(line)


@pytest.fixture
def scans(monkeypatch):
    """A list that gets the (address, shape) of the operand of every
    ``fp_scan`` call made while the test runs."""
    lib = _core.lib()
    scan = lib.fp_scan
    seen = []

    def spy(ndim, geom, x, fmt, out):
        seen.append((x, tuple((ctypes.c_int64 * ndim).from_address(geom)) if ndim else ()))
        return scan(ndim, geom, x, fmt, out)

    monkeypatch.setattr(lib, "fp_scan", spy)
    return seen
