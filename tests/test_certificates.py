"""Certificates raise CertificateFailed, also under `python -O`.

Each case corrupts one input of a certificate in a fresh interpreter
started with -O (which strips `assert` statements) and expects the typed
error, so no certificate can silently vanish.
"""

import ast
import os
import subprocess
import sys
from pathlib import Path

_SRC = Path(__file__).resolve().parents[1] / "src"

_SCRIPT = r"""
import sys

from okladder import wronskian_rep
from okladder.errors import CertificateFailed, NonPolynomialResult
from okladder.exact_ring import ExactPoly
from okladder.okamoto import DEFAULT_TABLE, OkamotoTable, okamoto
from okladder.painleve4 import rational_solution
from okladder.ttrr import RecurrenceState, ttrr_next

assert sys.flags.optimize >= 1


def recurrence_closed_forms():
    for key in ((3, 0), (2, 1), (2, -1), (2, 0), (1, 0)):
        okamoto(*key)
    sound = okamoto(3, 0)
    DEFAULT_TABLE._memo[(3, 0)] = sound * 2
    try:
        RecurrenceState(1, 1)
    finally:
        DEFAULT_TABLE._memo[(3, 0)] = sound


def product_form_check():
    for key in ((2, 1), (1, 1), (2, 0), (1, 2)):
        okamoto(*key)
    sound = okamoto(1, 2)
    DEFAULT_TABLE._memo[(1, 2)] = sound * 2
    try:
        rational_solution(1, 1, 1)
    finally:
        DEFAULT_TABLE._memo[(1, 2)] = sound


def okamoto_wronskian():
    sound = okamoto(2, 0)
    DEFAULT_TABLE._memo[(2, 0)] = ExactPoly((1, 1))
    try:
        wronskian_rep.okamoto_via_wronskian(2, 0, "psi")
    finally:
        DEFAULT_TABLE._memo[(2, 0)] = sound


def okamoto_fill_partner():
    # A partner that is not monic and integral in u.
    table = OkamotoTable()
    table.get(3, 0)
    table._memo[(3, 0)] = table._memo[(3, 0)] * 2
    table.get(4, 0)


def okamoto_fill_division():
    # A partner that is monic and integral in u (u^2 + 2) but not Q_{2,0}.
    table = OkamotoTable()
    table.get(3, 0)
    table._memo[(2, 0)] = ExactPoly((6, 0, 2))
    table.get(4, 0)


def recurrence_step():
    # P_1 of the (1, 1) sequence shifted by a constant of its grade.
    state = RecurrenceState(1, 1)
    state.extend_to(1)
    p = state.entries[1]
    state.entries[1] = p + ExactPoly.constant(p.leading)
    ttrr_next(state, 0)


def xhermite():
    wronskian_rep.ttrr_sequence = lambda k, j, n: [ExactPoly((0, 0, 1))] * (n + 1)
    wronskian_rep.xhermite_from_ttrr(1, 1, 1)


for case in (
    recurrence_step,
    recurrence_closed_forms,
    product_form_check,
    okamoto_wronskian,
    okamoto_fill_partner,
    okamoto_fill_division,
    xhermite,
):
    try:
        case()
    except CertificateFailed:
        print(case.__name__, "raised")
    except NonPolynomialResult as exc:
        print(case.__name__, "raised:", exc)
    else:
        print(case.__name__, "passed silently")
"""


def test_corrupted_certificates_raise_under_optimize():
    env = dict(os.environ, PYTHONPATH=str(_SRC))
    proc = subprocess.run(
        [sys.executable, "-O", "-c", _SCRIPT],
        capture_output=True,
        text=True,
        env=env,
        timeout=300,
    )
    assert proc.returncode == 0, proc.stderr
    assert proc.stdout.split("\n")[:-1] == [
        "recurrence_step raised: recurrence step n=2 (k=1, j=1) left denominator"
        " x^6 + 3*x^4 - 9/4*x^2 + 27/4",
        "recurrence_closed_forms raised",
        "product_form_check raised",
        "okamoto_wronskian raised",
        "okamoto_fill_partner raised",
        "okamoto_fill_division raised",
        "xhermite raised",
    ]


def test_library_has_no_assert():
    # `python -O` strips assert statements, so no check in the library may be one.
    paths = sorted((_SRC / "okladder").glob("*.py"))
    assert paths
    found = [
        f"{path.name}:{node.lineno}"
        for path in paths
        for node in ast.walk(ast.parse(path.read_text(), filename=str(path)))
        if isinstance(node, ast.Assert)
    ]
    assert found == []
