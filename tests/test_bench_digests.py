"""The benchmark's Wronskian ops against its reference digests.

Every `okw:*` and `wmode:*` op of the certify-polynomial workload runs
through the benchmark's own executor, and its verdict and digest must equal
those in `perfbench/reference.json`.  So a Wronskian whose canonical form
drifts fails here, not only in a benchmark run.  The test reads perfbench/
and writes nothing there (no bytecode either).
"""

import importlib
import json
import sys
from pathlib import Path

import pytest

_BENCH = Path(__file__).resolve().parents[1] / "perfbench"
_WORKLOAD = "certify-polynomial"


@pytest.fixture
def workloads(monkeypatch):
    monkeypatch.setattr(sys, "dont_write_bytecode", True)
    monkeypatch.syspath_prepend(str(_BENCH))
    return importlib.import_module("workloads")


def test_wronskian_ops_match_the_reference(workloads):
    reference = json.loads((_BENCH / "reference.json").read_text())["workloads"][_WORKLOAD]
    ops = [op for op in workloads.op_universe(_WORKLOAD) if op.split(":")[0] in ("okw", "wmode")]
    assert len(ops) > 40
    executor = workloads.Executor()
    drifted = []
    for op in ops:
        verdict, payload = executor.run(op)
        want = reference[op]
        if (verdict, workloads.digest(payload)) != (want["verdict"], want["digest"]):
            drifted.append(op)
    assert drifted == []
