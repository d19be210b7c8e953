"""The sum-of-products kernel and the numerators built on it, against the
same sums written with ExactPoly operators, one canonical form per step."""

from fractions import Fraction

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from okladder.errors import MixedGrade
from okladder.exact_ring import SQRT2, ExactPoly, RationalFn, sum_of_products
from okladder.okamoto import okamoto
from okladder.painleve4 import BACKLUND_MAPS, PIVSolution, backlund, piv_residual, rational_solution
from okladder.spectral import _second_terms, energy
from okladder.ttrr import ode_residual, ttrr_sequence
from test_exact_ring import fractions, graded_scalars, line_factors, rational_polys


def sum_oracle(terms) -> ExactPoly:
    """sum(c * f_1 * ... * f_k) through ExactPoly operators."""
    total = ExactPoly.zero()
    for c, factors in terms:
        product = ExactPoly.constant(c)
        for f in factors:
            product = product * f
        total = total + product
    return total


def _grade(c, factors) -> int | None:
    """The grade, 0 or 1, of a nonzero term; None for a zero one."""
    if not c or not all(factors):
        return None
    scalars = [ExactPoly.constant(c).leading] + [f.leading for f in factors]
    return sum(0 if not v.b else 1 for v in scalars) % 2


@st.composite
def term_lists(draw):
    """Up to five terms over a pool of at most four polynomials, so that a
    factor often repeats (squares) and zero factors and coefficients occur.
    Half the lists keep to one grade; the rest mix grades freely."""
    one_grade = draw(st.booleans())
    line = draw(line_factors)
    pool = [
        p * (line if one_grade else draw(line_factors))
        for p in draw(st.lists(rational_polys(5), min_size=1, max_size=4))
    ]
    scalars = st.one_of(st.just(0), st.integers(-9, 9), fractions)
    if not one_grade:
        scalars = st.one_of(scalars, graded_scalars)
    return [
        (draw(scalars), tuple(draw(st.lists(st.sampled_from(pool), max_size=4))))
        for _ in range(draw(st.integers(0, 5)))
    ]


class TestKernel:
    @given(term_lists())
    @settings(max_examples=300, deadline=None)
    def test_against_operators(self, terms):
        # The sum splits into its Q[x] and sqrt2*Q[x] parts; adding the two
        # raises exactly when both are nonzero, and so must the kernel.
        parts = [
            sum_oracle([(c, fs) for c, fs in terms if _grade(c, fs) == g])
            for g in (0, 1)
        ]
        try:
            expected = parts[0] + parts[1]
        except MixedGrade:
            with pytest.raises(MixedGrade):
                sum_of_products(terms)
            with pytest.raises(MixedGrade):
                sum_oracle(terms)
            return
        got = sum_of_products(terms)
        assert got == expected
        assert got.to_json_dict() == expected.to_json_dict()
        try:
            in_order = sum_oracle(terms)
        except MixedGrade:
            return  # a partial sum met the other grade before its own part cancelled
        assert got == in_order

    def test_edge_cases(self):
        x = ExactPoly.x()
        half = ExactPoly((Fraction(1, 2), Fraction(-1, 3)))
        assert sum_of_products([]) == ExactPoly.zero()
        assert sum_of_products([(0, (x,)), (5, (x, ExactPoly.zero()))]) == ExactPoly.zero()
        assert sum_of_products([(Fraction(3, 4), ())]) == ExactPoly.constant(Fraction(3, 4))
        # sqrt2 * sqrt2 = 2 moves into the integer scalar.
        assert sum_of_products([(SQRT2, (x * SQRT2, half))]) == x * half * 2
        assert sum_of_products([(1, (half, half, half))]) == half * half * half
        assert sum_of_products([(1, (x,)), (-1, (x,))]) == ExactPoly.zero()

    def test_mixed_grades(self):
        x = ExactPoly.x()
        with pytest.raises(MixedGrade):
            sum_of_products([(1, (x,)), (SQRT2, (x,))])
        with pytest.raises(MixedGrade):
            sum_of_products([(1, (x, x * SQRT2)), (1, (x,))])
        # A part that cancels has no grade, in either order.
        for terms in (
            [(1, (x,)), (-1, (x,)), (SQRT2, (x,))],
            [(SQRT2, (x,)), (1, (x,)), (-1, (x,))],
        ):
            assert sum_of_products(terms) == x * SQRT2


def piv_residual_oracle(s: PIVSolution) -> RationalFn:
    """The residual as piv_residual wrote it with ExactPoly operators."""
    n, d = s.w.num, s.w.den
    a = n.derivative() * d - n * d.derivative()
    n2 = n * n
    d2 = d * d
    x2_minus_alpha = ExactPoly((-s.alpha, 0, 1))
    num = (
        (a.derivative() * d - a * d.derivative() * 2) * n * 2
        - a * a
        - n2 * n2 * 3
        - n2 * n * d * ExactPoly((0, 8))
        - n2 * d2 * x2_minus_alpha * 4
        - d2 * d2 * (2 * s.beta)
    )
    if num.is_zero:
        return RationalFn.zero()
    return RationalFn(num, n * d * d2 * 2)


def second_numerator_oracle(n: ExactPoly, d: ExactPoly) -> ExactPoly:
    """S, ((N/D) exp(-x^2/6))'' = (S/D^3) exp(-x^2/6), with ExactPoly operators."""
    dn, dd = n.derivative(), d.derivative()
    d2 = d * d
    second = dn.derivative() * d2 - (dn * dd * 2 + n * dd.derivative()) * d + n * dd * dd * 2
    second = second + ExactPoly((0, Fraction(-2, 3))) * (dn * d - n * dd) * d
    return second + ExactPoly((Fraction(-1, 3), 0, Fraction(1, 9))) * n * d2


def ode_residual_oracle(k: int, j: int, n: int, p: ExactPoly) -> ExactPoly:
    """The residual as ode_residual wrote it with ExactPoly operators."""
    q = okamoto(k + 1, 0)
    dq = q.derivative()
    two_x_3 = ExactPoly((0, Fraction(2, 3)))
    dp = p.derivative()
    return (
        q * dp.derivative()
        - (two_x_3 * q + dq * 2) * dp
        + (dq.derivative() + two_x_3 * dq - q * (Fraction(4 * k, 3) - energy(k, j, n))) * p
    )


def _second(n: ExactPoly, d: ExactPoly) -> ExactPoly:
    """S from the conjugated terms T = D^3 (-R'' + (2x/3) R') of R = N/D:
    S = -T + (x^2/9 - 1/3) N D^2."""
    d2 = d * d
    return sum_of_products([
        *((-c, fs) for c, fs in _second_terms(n, d, d2)),
        (Fraction(1, 9), (ExactPoly.monomial(1, 2), n, d2)),
        (Fraction(-1, 3), (n, d2)),
    ])


def _solutions():
    for family in (1, 2, 3):
        for m in range(3):
            for n in range(-1, 3):
                yield rational_solution(family, m, n)
    seed = rational_solution(1, 1, 1)
    for name in BACKLUND_MAPS:
        yield backlund(seed, name)


class TestNumeratorOracles:
    def test_piv_residual(self):
        for s in _solutions():
            assert piv_residual(s).is_zero
            assert piv_residual_oracle(s).is_zero
            for da, db in ((1, 0), (0, Fraction(-1, 2)), (Fraction(1, 3), 2)):
                off = PIVSolution(s.w, s.alpha + da, s.beta + db)
                got = piv_residual(off)
                assert not got.is_zero
                assert got.to_json_dict() == piv_residual_oracle(off).to_json_dict()

    def test_second_numerator(self):
        for k in range(3):
            q = okamoto(k + 1, 0)
            for j in (1, 2, 3):
                for p in ttrr_sequence(k, j, 2):
                    assert _second(p, q).to_json_dict() == second_numerator_oracle(p, q).to_json_dict()
        for s in _solutions():
            n, d = s.w.num, s.w.den
            assert _second(n, d).to_json_dict() == second_numerator_oracle(n, d).to_json_dict()

    @given(rational_polys(6), rational_polys(5).filter(bool), line_factors)
    @settings(max_examples=80, deadline=None)
    def test_second_numerator_random(self, n, d, line):
        n = n * line
        assert _second(n, d).to_json_dict() == second_numerator_oracle(n, d).to_json_dict()

    def test_ode_residual(self):
        for k in range(3):
            for j in (1, 2, 3):
                for n, p in enumerate(ttrr_sequence(k, j, 3)):
                    assert ode_residual(k, j, n, p).is_zero
                    for wrong in (p + p.derivative(), p + ExactPoly.constant(p.leading)):
                        got = ode_residual(k, j, n, wrong)
                        assert got == ode_residual_oracle(k, j, n, wrong)
                    assert ode_residual(k, j, n + 1, p) == ode_residual_oracle(k, j, n + 1, p)
