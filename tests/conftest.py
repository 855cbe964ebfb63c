"""Collects acceptance-criterion verdicts and prints them in the summary, and
gives the tests a spy on the C core's elementwise rounding."""

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
def roundings(monkeypatch):
    """A list that gets the (address, shape, drawn) of the operand of every
    ``fp_round`` call made while the test runs; ``drawn`` is True when the
    call takes stochastic uniforms."""
    lib = _core.lib()
    fp_round = lib.fp_round
    seen = []

    def spy(ndim, geom, parts, x, out, fmt, u, found):
        shape = tuple((ctypes.c_int64 * ndim).from_address(geom)) if ndim else ()
        seen.append((x, shape, u is not None))
        return fp_round(ndim, geom, parts, x, out, fmt, u, found)

    monkeypatch.setattr(lib, "fp_round", spy)
    return seen
