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
from fractions import Fraction

from okladder import wronskian_rep
from okladder.errors import CertificateFailed
from okladder.exact_ring import ExactPoly, RationalFn
from okladder.okamoto import DEFAULT_TABLE, okamoto
from okladder.painleve4 import rational_solution
from okladder.spectral import HamiltonianK
from okladder.ttrr import RecurrenceState

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
    DEFAULT_TABLE._memo[(1, 2)] = okamoto(1, 2) * 2
    rational_solution(1, 1, 1)


def _hamiltonian(quotient):
    return HamiltonianK(0, RationalFn.from_poly(ExactPoly((1, 0, 1)) + quotient))


def asymptotic_growth():
    _hamiltonian(ExactPoly((0, 0, Fraction(-7, 9)))).asymptotic_constant()


def okamoto_wronskian():
    okamoto(2, 0)
    DEFAULT_TABLE._memo[(2, 0)] = ExactPoly((1, 1))
    wronskian_rep.okamoto_via_wronskian(2, 0, "psi")


def xhermite():
    wronskian_rep.ttrr_sequence = lambda k, j, n: [ExactPoly((0, 0, 1))] * (n + 1)
    wronskian_rep.xhermite_from_ttrr(1, 1, 1)


for case in (
    recurrence_closed_forms,
    product_form_check,
    asymptotic_growth,
    okamoto_wronskian,
    xhermite,
):
    try:
        case()
    except CertificateFailed:
        print(case.__name__, "raised")
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
        "recurrence_closed_forms raised",
        "product_form_check raised",
        "asymptotic_growth raised",
        "okamoto_wronskian raised",
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
