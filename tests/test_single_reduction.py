"""Single-reduction constructions against their per-operation oracles.

`backlund`, `hamiltonian_residual`, `potential`, `log_derivative(p, q)`,
`RationalFn.inverse`, the quasi-Gaussian derivative, `apply_first_order`
and `HamiltonianK.apply` assemble each result as one quotient of
polynomials and reduce it at most once.  The oracles below build the same
values the long way, through `RationalFn` arithmetic that reduces after
every operation, and every result must serialize identically.
"""

from fractions import Fraction

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from okladder.errors import SingularMap
from okladder.exact_ring import (
    SQRT2,
    ExactPoly,
    QuasiGaussian,
    RationalFn,
    SqrtTwoScalar,
    apply_first_order,
    log_derivative,
)
from okladder.okamoto import okamoto
from okladder.painleve4 import (
    _W34_DENOMINATOR_SIGN_REL,
    BACKLUND_MAPS,
    PIVSolution,
    _sqrt_fraction,
    backlund,
    rational_solution,
)
from okladder.spectral import (
    HamiltonianK,
    LadderOp,
    ModeFunction,
    energy,
    hamiltonian_residual,
    ladder,
    ladder_constant_sq,
    potential,
    superpotentials,
)
from okladder.ttrr import RecurrenceState, ttrr_next, ttrr_sequence


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
    return out - QuasiGaussian(phi.rational * RationalFn.constant(mode.energy))


def _image_json(s: PIVSolution) -> dict:
    return {"w": s.w.to_json_dict(), "alpha": s.alpha, "beta": s.beta}


def _residual_json(r: QuasiGaussian) -> dict:
    return {"rational": r.rational.to_json_dict()}


class TestBacklundOracle:
    @pytest.mark.parametrize("map_name", BACKLUND_MAPS)
    def test_family1_seeds(self, map_name):
        for m in range(3):
            for n in range(3):
                seed = rational_solution(1, m, n)
                assert _image_json(backlund(seed, map_name)) == _image_json(
                    backlund_per_op(seed, map_name)
                ), (m, n, map_name)

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


def _json(f: RationalFn) -> dict:
    return f.to_json_dict()


def count_reductions(monkeypatch) -> list:
    """Record the (num, den) of every reducing RationalFn construction."""
    reductions = []
    init = RationalFn.__init__

    def counting(self, num, den=None, *, _reduced=False):
        if not _reduced:
            reductions.append((num, den))
        init(self, num, den, _reduced=_reduced)

    monkeypatch.setattr(RationalFn, "__init__", counting)
    return reductions


class TestPotentialOracle:
    @pytest.mark.parametrize("k", range(5))
    def test_sum_of_parts(self, k):
        top = okamoto(k + 2, 0) * okamoto(k, 0) * Fraction(-4, 9)
        q = okamoto(k + 1, 0)
        old = (
            RationalFn.from_poly(ExactPoly((0, 0, 1)))
            + RationalFn(top, q * q)
            + RationalFn.constant(4 * k + 1)
        )
        assert _json(potential(k).potential_fn()) == _json(old)

    @pytest.mark.parametrize("k", range(4))
    def test_one_reduction(self, k, monkeypatch):
        for m in (k, k + 1, k + 2):
            okamoto(m, 0)
        reductions = count_reductions(monkeypatch)
        h = potential(k)
        assert len(reductions) == 1
        reductions.clear()
        h.potential_fn()
        assert reductions == []


# Neighbouring Okamoto pairs (a, b) of the Painleve IV families, the
# superpotentials and the recurrence coefficients.
_PAIRS = [
    pair
    for m in range(4)
    for n in range(-1, 3)
    for pair in (((m + 1, n), (m, n)), ((m, n), (m, n + 1)), ((m, n + 1), (m + 1, n)))
] + [((k + 1, -1), (k + 1, 0)) for k in range(4)]


class TestLogDerivativeOracle:
    @pytest.mark.parametrize("a,b", _PAIRS)
    def test_difference_of_logs(self, a, b):
        p, q = okamoto(*a), okamoto(*b)
        assert _json(log_derivative(p, q)) == _json(log_derivative(p) - log_derivative(q))

    def test_without_q(self):
        p = okamoto(2, 1)
        assert log_derivative(p) == RationalFn(p.derivative(), p)
        assert log_derivative(p, ExactPoly.one()) == log_derivative(p)


_fractions = st.fractions(min_value=-50, max_value=50, max_denominator=50)
_line_factors = st.sampled_from((1, SQRT2))
_rational_polys = st.lists(_fractions, max_size=4).map(ExactPoly)
_nonzero_rational_polys = st.lists(_fractions, min_size=1, max_size=4).map(ExactPoly).filter(bool)
# Polynomials in Q[x] or in sqrt2*Q[x].
_polys = st.builds(lambda p, f: p * f, _rational_polys, _line_factors)
_nonzero_polys = st.builds(lambda p, f: p * f, _nonzero_rational_polys, _line_factors)
_rationals = st.builds(RationalFn, _polys, _nonzero_polys)
# A potential or superpotential lies in Q(x), so that (sign*d/dx + f) g
# keeps the grade of g.
_potentials = st.builds(RationalFn, _rational_polys, _nonzero_rational_polys)


def gauss_derivative_per_op(r: RationalFn) -> RationalFn:
    """R' - (x/3) R, reducing after each operation."""
    gprime = RationalFn(ExactPoly((0, SqrtTwoScalar(Fraction(-1, 3)))), _reduced=True)
    return r.derivative() + gprime * r


def gauss_derivative(r: RationalFn) -> RationalFn:
    """R' - (x/3) R through the one quasi-Gaussian derivative route."""
    return apply_first_order(1, RationalFn.zero(), QuasiGaussian(r)).rational


class TestGaussDerivativeOracle:
    @given(_rationals)
    @settings(max_examples=60, deadline=None)
    def test_old_row(self, r):
        assert _json(gauss_derivative(r)) == _json(gauss_derivative_per_op(r))


def apply_first_order_per_op(sign: int, f: RationalFn, g: QuasiGaussian) -> QuasiGaussian:
    """(sign * d/dx + f) g as derivative, sign, product and sum, each reduced."""
    dg = gauss_derivative_per_op(g.rational)
    term = dg if sign == 1 else -dg
    return QuasiGaussian(term + f * g.rational)


def hamiltonian_apply_per_op(h: HamiltonianK, g: QuasiGaussian) -> QuasiGaussian:
    """-g'' + V g with two per-operation derivatives."""
    second = gauss_derivative_per_op(gauss_derivative_per_op(g.rational))
    return QuasiGaussian(-second + h.v * g.rational)


def lowering_tuple(k: int) -> LadderOp:
    """(+d/dx + W1) o (+d/dx + W2) o (-d/dx + W), written out by hand."""
    w, w1, w2 = superpotentials(k)
    return LadderOp(((1, w1), (1, w2), (-1, w)))


def _modes():
    for k in range(3):
        for j in (1, 2, 3):
            for n, p in enumerate(ttrr_sequence(k, j, 3)):
                yield k, ModeFunction(k, j, n, p, energy(k, j, n)).phi()


# A non-polynomial seed (Q_{k,1}/Q_{k+1,0}) exp(-x^2/6).
_SEEDS = [(1, QuasiGaussian(RationalFn(okamoto(1, 1), okamoto(2, 0))))]


class TestOperatorApplicationOracle:
    def test_gauss_derivative(self):
        for _, g in [*_modes(), *_SEEDS]:
            assert _json(gauss_derivative(g.rational)) == _json(gauss_derivative_per_op(g.rational))

    def test_first_order_factors(self):
        for k, g in [*_modes(), *_SEEDS]:
            for f in superpotentials(k):
                for sign in (-1, 1):
                    new = apply_first_order(sign, f, g)
                    assert _residual_json(new) == _residual_json(
                        apply_first_order_per_op(sign, f, g)
                    ), (k, g, sign)

    def test_ladders(self):
        for k, g in _modes():
            assert ladder(k, "lower").factors == lowering_tuple(k).factors
            for op in (ladder(k, "raise"), ladder(k, "lower")):
                old = g
                for sign, f in reversed(op.factors):
                    old = apply_first_order_per_op(sign, f, old)
                assert _residual_json(op.apply(g)) == _residual_json(old)

    def test_hamiltonian_apply(self):
        for k, g in [*_modes(), *_SEEDS]:
            h = potential(k)
            assert _residual_json(h.apply(g)) == _residual_json(hamiltonian_apply_per_op(h, g))

    @given(_potentials, _rationals, st.sampled_from((-1, 1)))
    @settings(max_examples=60, deadline=None)
    def test_random_quotients(self, f, r, sign):
        g = QuasiGaussian(r)
        assert _residual_json(apply_first_order(sign, f, g)) == _residual_json(
            apply_first_order_per_op(sign, f, g)
        )
        if f:
            h = HamiltonianK(0, f)
            assert _residual_json(h.apply(g)) == _residual_json(hamiltonian_apply_per_op(h, g))

    def test_one_reduction_per_application(self, monkeypatch):
        cases = [(k, g, superpotentials(k), potential(k)) for k, g in [*_modes(), *_SEEDS]]
        reductions = count_reductions(monkeypatch)
        for k, g, factors, h in cases:
            for f in factors:
                for sign in (-1, 1):
                    reductions.clear()
                    apply_first_order(sign, f, g)
                    assert len(reductions) <= 1, (k, g, sign)
            reductions.clear()
            h.apply(g)
            assert len(reductions) <= 1, (k, g)


class TestInverseOracle:
    @given(_rationals.filter(bool))
    @settings(max_examples=60, deadline=None)
    def test_swapped_construction(self, f):
        assert _json(f.inverse()) == _json(RationalFn(f.den, f.num))


def ttrr_first_oracle(state: RecurrenceState) -> ExactPoly:
    """P_1 from P_0 by the first-step formula
    L~_0 P_1 = [-w2 g_1 + E_0 w1 g_1/g_0 + w3 (2/3 - 2k + E_0)] P_0."""
    k, j = state.k, state.j
    e0 = energy(k, j, 0)
    g1 = state.g(1)
    bracket = -state.w2 * g1 + state.w3 * RationalFn.constant(Fraction(2, 3) - 2 * k + e0)
    if e0:
        bracket = bracket + state.w1 * (g1 / state.g(0)) * RationalFn.constant(e0)
    result = bracket * RationalFn.from_poly(state.entries[0]) / ladder_constant_sq(k, j, 0)
    return result.as_poly()


class TestRecurrenceFirstStepOracle:
    @pytest.mark.parametrize("k,j", [(k, j) for k in range(4) for j in (1, 2, 3)])
    def test_first_step(self, k, j):
        state = RecurrenceState(k, j)
        assert ttrr_next(state, -1).to_json_dict() == ttrr_first_oracle(state).to_json_dict()
