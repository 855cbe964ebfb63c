"""The benchmark's workloads against the output digests pinned for seed 0 in
``bench/golden.json``: one pass of each, bit for bit.

Each pass runs in a temporary working directory, since the workloads write
to the relative ``bench/_work``; nothing under ``bench/`` is written."""

import importlib.util
import json
import sys
from pathlib import Path

import pytest

BENCH = Path(__file__).resolve().parent.parent / "bench"
GOLDEN = BENCH / "golden.json"

pytestmark = pytest.mark.skipif(not GOLDEN.exists(), reason="bench/golden.json is absent")


def _workloads():
    spec = importlib.util.spec_from_file_location("workloads", BENCH / "workloads.py")
    module = importlib.util.module_from_spec(spec)
    sys.modules[spec.name] = module  # its dataclasses look their module up there
    spec.loader.exec_module(module)
    return module


workloads = _workloads()


@pytest.mark.parametrize("name", workloads.NAMES)
def test_seed_0_gives_the_pinned_digests(name, tmp_path, monkeypatch):
    want = json.loads(GOLDEN.read_text())[name]["0"]
    monkeypatch.chdir(tmp_path)
    (tmp_path / workloads.WORKDIR).mkdir(parents=True)
    wl = workloads.build(name, 0)
    ops = wl.ops(wl.run_pass())
    assert [(op.name, op.problem) for op in ops if op.problem] == []
    assert [op.digests for op in ops] == want
