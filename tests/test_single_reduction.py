"""Single-reduction constructions against their per-operation oracles.

`backlund` and `hamiltonian_residual` assemble each result as one quotient
of polynomials and reduce it once.  The oracles below build the same values
the long way, through `RationalFn` arithmetic that reduces after every
operation, and every result must serialize identically.
"""

from fractions import Fraction

import pytest

from okladder.errors import SingularMap
from okladder.exact_ring import ExactPoly, QuasiGaussian, RationalFn
from okladder.painleve4 import (
    _W34_DENOMINATOR_SIGN_REL,
    BACKLUND_MAPS,
    PIVSolution,
    _sqrt_fraction,
    backlund,
    rational_solution,
)
from okladder.spectral import ModeFunction, energy, hamiltonian_residual, potential
from okladder.ttrr import ttrr_sequence


def backlund_per_op(s: PIVSolution, map_name: str, denominator_sign: int | None = None) -> PIVSolution:
    """The eight maps composed operation by operation in RationalFn."""
    kind, e = map_name[:2], (1 if map_name[2] == "+" else -1)
    w0, a0, b0 = s.w, s.alpha, s.beta
    if w0.is_zero:
        raise SingularMap("maps are singular on the zero solution")
    c = _sqrt_fraction(-2 * b0)
    ec = Fraction(e) * c
    two_x = RationalFn.from_poly(ExactPoly((0, 2)))
    f_plus = w0.derivative() + two_x * w0 + w0 * w0
    f_minus = w0.derivative() - (two_x * w0 + w0 * w0)

    if kind == "w1":
        w1 = (f_minus - RationalFn.constant(ec)) / (w0 * 2)
        alpha = (2 - 2 * a0 + 3 * ec) / 4
        beta = -Fraction(1, 2) * (1 + a0 + ec / 2) ** 2
        return PIVSolution(w1, alpha, beta)
    if kind == "w2":
        w2 = -(f_plus - RationalFn.constant(ec)) / (w0 * 2)
        alpha = -(2 + 2 * a0 + 3 * ec) / 4
        beta = -Fraction(1, 2) * (1 - a0 + ec / 2) ** 2
        return PIVSolution(w2, alpha, beta)
    dc = (
        Fraction(denominator_sign) * c
        if denominator_sign is not None
        else _W34_DENOMINATOR_SIGN_REL[kind] * ec
    )
    if kind == "w3":
        den = f_plus + RationalFn.constant(dc)
        if den.is_zero:
            raise SingularMap("w3 denominator vanishes identically")
        w3 = w0 + w0 * 2 * (1 - a0 - ec / 2) / den
        alpha = Fraction(3, 2) - a0 / 2 - Fraction(3, 4) * dc
        beta = -Fraction(1, 2) * (1 - a0 + ec / 2) ** 2
        return PIVSolution(w3, alpha, beta)
    den = f_minus + RationalFn.constant(dc)
    if den.is_zero:
        raise SingularMap("w4 denominator vanishes identically")
    w4 = w0 + w0 * 2 * (1 + a0 + ec / 2) / den
    alpha = -Fraction(3, 2) - a0 / 2 + Fraction(3, 4) * dc
    beta = -Fraction(1, 2) * (-1 - a0 + ec / 2) ** 2
    return PIVSolution(w4, alpha, beta)


def hamiltonian_residual_per_op(mode: ModeFunction) -> QuasiGaussian:
    """(H - E) phi through HamiltonianK.apply, reducing after every operation."""
    phi = mode.phi()
    out = potential(mode.k).apply(phi)
    return out - QuasiGaussian(phi.rational * RationalFn.constant(mode.energy), -1)


def _image_json(s: PIVSolution) -> dict:
    return {"w": s.w.to_json_dict(), "alpha": s.alpha, "beta": s.beta}


def _residual_json(r: QuasiGaussian) -> dict:
    return {"rational": r.rational.to_json_dict(), "gauss_exponent": r.gauss_exponent}


class TestBacklundOracle:
    @pytest.mark.parametrize("map_name", BACKLUND_MAPS)
    def test_family1_seeds(self, map_name):
        for m in range(3):
            for n in range(3):
                seed = rational_solution(1, m, n)
                assert _image_json(backlund(seed, map_name)) == _image_json(
                    backlund_per_op(seed, map_name)
                ), (m, n, map_name)

    @pytest.mark.parametrize("map_name", ["w3+", "w3-", "w4+", "w4-"])
    def test_denominator_sign_override(self, map_name):
        seed = rational_solution(1, 1, 0)
        for sign in (-1, 1):
            assert _image_json(backlund(seed, map_name, denominator_sign=sign)) == _image_json(
                backlund_per_op(seed, map_name, denominator_sign=sign)
            ), (map_name, sign)

    @pytest.mark.parametrize("map_name", ["w3+", "w4-"])
    def test_singular_map(self, map_name):
        # w = -2x gives f+ = f- = -2, cancelled by dc = 2 when -2*beta = 4
        s = PIVSolution(RationalFn.from_poly(ExactPoly((0, -2))), Fraction(0), Fraction(-2))
        with pytest.raises(SingularMap):
            backlund_per_op(s, map_name)
        with pytest.raises(SingularMap, match="vanishes identically"):
            backlund(s, map_name)


class TestHamiltonianResidualOracle:
    def test_certified_modes(self):
        for k in (0, 1, 2):
            for j in (1, 2, 3):
                for n, p in enumerate(ttrr_sequence(k, j, 2)):
                    mode = ModeFunction(k, j, n, p, energy(k, j, n))
                    new = hamiltonian_residual(mode)
                    assert new.is_zero
                    assert _residual_json(new) == _residual_json(hamiltonian_residual_per_op(mode))

    def test_mutated_polynomial(self):
        for k, j, n in ((0, 1, 1), (1, 2, 1), (2, 3, 0)):
            p = ttrr_sequence(k, j, n)[n] + ExactPoly((0, 1))
            mode = ModeFunction(k, j, n, p, energy(k, j, n))
            new = hamiltonian_residual(mode)
            assert not new.is_zero
            assert _residual_json(new) == _residual_json(hamiltonian_residual_per_op(mode))

    def test_wrong_energy(self):
        p = ttrr_sequence(1, 1, 2)[2]
        mode = ModeFunction(1, 1, 2, p, energy(1, 1, 2) + 2)
        new = hamiltonian_residual(mode)
        assert not new.is_zero
        assert _residual_json(new) == _residual_json(hamiltonian_residual_per_op(mode))
