"""The benchmark's span recorder against the library it wraps.

`perfbench/spans.py` wraps functions and methods of okladder by name,
including `RationalFn.__init__(num, den=None, *, _reduced=False)` and
`ExactPoly.__mul__`/`__rmul__`, so renaming one or changing its signature
breaks the traced benchmark run only.  This test installs the recorder,
runs ops of the certify kinds through the benchmark's own executor,
and checks that the verdicts hold and the originals come back.  It reads
perfbench/ and writes nothing there (no bytecode either).
"""

import importlib
import sys
from pathlib import Path

import pytest

from okladder import exact_ring, painleve4

_BENCH = Path(__file__).resolve().parents[1] / "perfbench"
_OPS = (
    "backlund:m1:n0:w1+",
    "eigen:k1:j2:n1",
    "raise:k1:j2:n1",
    "shape:k1:j2:n1",
    "sturm:m4:n2",
    "fill:m3:n2",
    "wmode:k1:j2:n1",
    "okw:psi:m2:n1",
)


@pytest.fixture
def bench(monkeypatch):
    monkeypatch.setattr(sys, "dont_write_bytecode", True)
    monkeypatch.syspath_prepend(str(_BENCH))
    return importlib.import_module("spans"), importlib.import_module("workloads")


def test_traced_ops_pass_and_originals_return(bench):
    spans, workloads = bench
    originals = (
        painleve4.piv_residual,
        exact_ring.RationalFn.__init__,
        exact_ring.ExactPoly.__dict__["__mul__"],
    )
    recorder = spans.SpanRecorder()
    recorder.install()
    try:
        assert painleve4.piv_residual is not originals[0]
        executor = workloads.Executor()
        verdicts = {op: executor.run(op)[0] for op in _OPS}
    finally:
        recorder.uninstall()
    assert all(verdicts.values()), verdicts
    layers = recorder.metrics(1.0)
    assert layers["exact_ring.reduce.calls"] > 0
    assert layers["rootcount.sturm_count.calls"] == 2
    assert layers["okamoto.get.calls"] > 0
    assert layers["exact_ring.wronskian.calls"] > 0
    assert layers["ttrr.sequence.calls"] > 0
    assert painleve4.piv_residual is originals[0]
    assert exact_ring.RationalFn.__init__ is originals[1]
    assert exact_ring.ExactPoly.__dict__["__mul__"] is originals[2]
