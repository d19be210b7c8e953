"""Floating-point cross-checks: evaluation, eigenvalues, inner products."""

import math
import sys
from fractions import Fraction

import mpmath
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from okladder import numerics
from okladder.errors import GridTooCoarse, PoleAtPoint
from okladder.exact_ring import SQRT2, ExactPoly, QuasiGaussian, RationalFn, SqrtTwoScalar
from okladder.numerics import (
    NumericGrid,
    eval_array,
    eval_float,
    fd_eigensolve,
    normalized_cross_inner,
    quadrature_inner,
    spectrum_exact,
)
from okladder.spectral import ModeFunction, energy, potential, zero_mode
from okladder.ttrr import ttrr_sequence


class TestGrid:
    def test_spacing(self):
        g = NumericGrid(25.0, 8001)
        assert g.spacing == pytest.approx(50.0 / 8000)

    def test_validation(self):
        with pytest.raises(ValueError):
            NumericGrid(25.0, 8000)  # even
        with pytest.raises(ValueError):
            NumericGrid(-1.0, 8001)
        for width in (math.inf, math.nan):
            with pytest.raises(ValueError, match="finite"):
                NumericGrid(width, 8001)
        # 2/h^2 needs h^2 to be a finite normal double
        for width in (1e300, 1e-160):
            with pytest.raises(ValueError, match="cannot be squared"):
                NumericGrid(width, 5)

    def test_refined_shares_nodes(self):
        g = NumericGrid(10.0, 11)
        assert g.refined().points == 21
        assert g.refined().spacing == pytest.approx(g.spacing / 2)


class TestEvalFloat:
    def test_potential_at_zero(self):
        assert eval_float(potential(1).potential_fn(), 0.0) == pytest.approx(-5 / 3, abs=1e-15)

    def test_potential_at_one(self):
        assert eval_float(potential(1).potential_fn(), 1.0) == pytest.approx(178 / 225, abs=1e-15)

    def test_weight_at_origin(self):
        assert eval_float(zero_mode(0, 1).phi(), 0.0) == 1.0

    def test_high_precision_request(self):
        # The exact value at 1/2, rounded once.
        v = potential(2).potential_fn()
        assert eval_float(v, 0.5) == float(v.eval(Fraction(1, 2)).a)

    def test_correctly_rounded_under_cancellation(self):
        # Horner at 69 bits gave 15.339935028314667; the exact value rounds
        # to ...665.
        assert eval_float(potential(3).potential_fn(), 10.156632586743747) == 15.339935028314665

    @pytest.mark.parametrize("power", [1, 2, 3])
    def test_sqrt2_root_cancellation(self, power):
        # (x - sqrt2)^power at the double nearest sqrt2 is about 1e-16^power.
        x = math.sqrt(2.0)
        value = (Fraction(x) - SQRT2) ** power
        with mpmath.workprec(300):
            want = float((mpmath.mpf(x) - mpmath.sqrt(2)) ** power)
        assert numerics._round(value) == want

    def test_pole_guard(self):
        f = RationalFn(ExactPoly.one(), ExactPoly((-1, 1)))  # 1/(x-1)
        with pytest.raises(PoleAtPoint):
            eval_float(f, 1.0)

    @pytest.mark.parametrize("x", [math.inf, -math.inf, math.nan])
    def test_non_finite_point_raises(self, x):
        with pytest.raises(ValueError, match="cannot evaluate at x = "):
            eval_float(potential(1).potential_fn(), x)
        with pytest.raises(ValueError, match="cannot evaluate at x = "):
            eval_float(zero_mode(1, 1).phi(), x)

    @pytest.mark.parametrize("c", [1, -1, SQRT2, -SQRT2])
    def test_overflow_rounds_to_signed_inf(self, c):
        # c*x^2 at 1e308 is about 1e616, beyond the largest double.
        value = eval_float(ExactPoly((0, 0, c)), 1e308)
        assert value == math.copysign(math.inf, float(c))

    def test_largest_double_is_not_inf(self):
        # 2^1024 - 2^970 is the first value that rounds to inf.
        threshold = 2**1024 - 2**970
        assert eval_float(ExactPoly.constant(threshold - 1), 0.0) == sys.float_info.max
        assert eval_float(ExactPoly.constant(threshold), 0.0) == math.inf
        # p - q*sqrt2 is about -1/(2.8 q) with p^2 - 2q^2 = -1, so the value
        # sits just below the threshold and the first sqrt2 bracket straddles it.
        p, q = 1, 1
        while q < 2**40 or p * p - 2 * q * q != -1:
            p, q = p + 2 * q, p + q
        assert numerics._round(SqrtTwoScalar(threshold + p, -q)) == sys.float_info.max

    def test_array_agrees_with_scalar(self):
        import numpy as np

        v = potential(1).potential_fn()
        xs = np.linspace(-3, 3, 11)
        vals = eval_array(v, xs)
        for x, val in zip(xs, vals):
            assert val == pytest.approx(eval_float(v, float(x)), rel=1e-12)

    @pytest.mark.filterwarnings("error")
    def test_array_where_num_and_den_overflow(self):
        import numpy as np

        # num and den of V overflow a double at 5e99, V itself does not.
        v = potential(1).potential_fn()
        xs = np.array([-5e99, -3.0, 0.5, 5e99, 1e200])
        vals = eval_array(v, xs)
        for x, val in zip(xs[:4], vals):
            assert val == pytest.approx(eval_float(v, float(x)), rel=1e-12)
        assert vals[4] == math.inf  # V(1e200) is about 1e400/9
        assert vals[0] == pytest.approx(2.7778e198, rel=1e-4)


@pytest.mark.filterwarnings("error")
class TestQuasiGaussianEval:
    """R exp(-x^2/6) where R overflows a double or the Gaussian is below the
    smallest normal double, through both entry points."""

    @pytest.mark.parametrize(
        "power,x,value",
        [(200, 60.0, 1.1312561019266056e95), (160, 76.0, 7.0689273681997226e-118)],
        ids=["rational-part-overflows", "gaussian-underflows"],
    )
    def test_monomials(self, power, x, value):
        import numpy as np

        g = QuasiGaussian(ExactPoly.x() ** power)
        assert eval_float(g, x) == pytest.approx(value, rel=1e-12)
        assert list(eval_array(g, np.array([x, -x]))) == pytest.approx([value, value], rel=1e-12)

    def test_beyond_the_largest_double(self):
        import numpy as np

        # x^400 exp(-x^2/6) at 60 is about e^1038
        g = QuasiGaussian(ExactPoly.x() ** 400)
        assert eval_float(g, 60.0) == math.inf and eval_float(-g, 60.0) == -math.inf
        assert list(eval_array(-g, np.array([60.0, 1e300]))) == [-math.inf, 0.0]

    def test_modes_match_300_bit_mpmath(self):
        import numpy as np

        xs = [-1e3, -80.0, -66.0, 60.0, 65.5, 70.0, 100.0]
        for k, j, n in ((1, 1, 5), (1, 2, 3), (2, 3, 2)):
            phi = ModeFunction(k, j, n, ttrr_sequence(k, j, n)[n], energy(k, j, n)).phi()
            arr = eval_array(phi, np.array(xs))
            for x, got in zip(xs, arr):
                want = mp_value(phi, x)
                assert eval_float(phi, x) == pytest.approx(want, rel=1e-12, abs=0)
                assert got == pytest.approx(want, rel=1e-12, abs=0)

    def test_other_points_are_rational_part_times_gaussian(self):
        import numpy as np

        phi = zero_mode(2, 3).phi()
        xs = np.linspace(-25, 25, 101)
        assert list(eval_array(phi, xs)) == list(eval_array(phi.rational, xs) * np.exp(-xs * xs / 6))
        for x in xs:
            x = float(x)
            assert eval_float(phi, x) == eval_float(phi.rational, x) * math.exp(-x * x / 6)


fractions = st.fractions(min_value=-1000, max_value=1000, max_denominator=1000)
points = st.floats(min_value=-50, max_value=50, allow_nan=False)


def polys(coefficients, max_degree):
    return st.lists(coefficients, max_size=max_degree + 1).map(ExactPoly)


def quotients(coefficients, max_degree):
    return st.builds(RationalFn, polys(coefficients, max_degree), polys(coefficients, 2).filter(bool))


rational_exprs = st.one_of(polys(fractions, 6), quotients(fractions, 4))


def graded_polys(max_degree):
    """Polynomials in Q[x] or in sqrt2*Q[x]."""
    return st.builds(lambda p, f: p * f, polys(fractions, max_degree), st.sampled_from((1, SQRT2)))


sqrt2_exprs = st.one_of(
    polys(st.builds(lambda c: c * SQRT2, fractions), 4),
    st.builds(RationalFn, graded_polys(3), graded_polys(2).filter(bool)),
)


def mp_value(expr, x: float) -> float:
    """expr at x in 300-bit mpmath arithmetic, rounded to a double; a
    QuasiGaussian is rounded once, after its Gaussian factor."""
    with mpmath.workprec(300):
        root2 = mpmath.sqrt(2)

        def poly(p):
            acc = mpmath.mpf(0)
            for c in reversed(p.coeffs):
                term = mpmath.mpf(c.a.numerator) / c.a.denominator
                term += mpmath.mpf(c.b.numerator) / c.b.denominator * root2
                acc = acc * x + term
            return acc

        if isinstance(expr, ExactPoly):
            return float(poly(expr))
        if isinstance(expr, QuasiGaussian):
            r = expr.rational
            return float(poly(r.num) / poly(r.den) * mpmath.exp(-mpmath.mpf(x) ** 2 / 6))
        return float(poly(expr.num) / poly(expr.den))


class TestCorrectRounding:
    @given(rational_exprs, points)
    @settings(max_examples=150, deadline=None)
    def test_rational_values_round_like_fraction(self, v, x):
        try:
            exact = v.eval(Fraction(x))
        except PoleAtPoint:
            return
        assert eval_float(v, x) == float(exact)

    @given(sqrt2_exprs, points)
    @settings(max_examples=150, deadline=None)
    def test_sqrt2_values_match_300_bit_mpmath(self, v, x):
        try:
            got = eval_float(v, x)
        except PoleAtPoint:
            return
        assert got == mp_value(v, x)


class TestEigensolve:
    def test_oscillator_ladder(self):
        values = fd_eigensolve(0, count=4)
        for got, want in zip(values, [0.0, 2 / 3, 4 / 3, 2.0]):
            assert abs(got - want) < 1e-6

    def test_k1_spectrum(self):
        values = fd_eigensolve(1, count=5)
        expected = [0.0, 2.0, 8 / 3, 10 / 3, 4.0]
        assert [float(e) for e in spectrum_exact(1, 5)] == pytest.approx(expected)
        for got, want in zip(values, expected):
            assert abs(got - want) < 1e-6

    def test_k2_spectrum(self):
        values = fd_eigensolve(2, count=5)
        expected = [0.0, 2.0, 4.0, 14 / 3, 16 / 3]
        for got, want in zip(values, expected):
            assert abs(got - want) < 1e-6

    def test_grid_too_coarse_detected(self):
        with pytest.raises(GridTooCoarse):
            fd_eigensolve(1, grid=NumericGrid(25.0, 201), count=5, coarse_shift_tol=1e-9)

    def test_count_above_interior_nodes(self, monkeypatch):
        # rejected before the potential is built or any solve runs
        def no_solve(*args):
            raise AssertionError("solved")

        monkeypatch.setattr(numerics, "potential", no_solve)
        monkeypatch.setattr(numerics, "_dirichlet_eigenvalues", no_solve)
        with pytest.raises(ValueError, match="count 4 exceeds the number of interior nodes, 3"):
            fd_eigensolve(0, grid=NumericGrid(25.0, 5), count=4)

    @pytest.mark.parametrize("tol", [math.nan, -1.0])
    def test_tolerance_must_be_a_nonnegative_number(self, tol):
        # With a NaN tolerance no shift compares greater, so the grid check
        # would pass whatever the grid.
        with pytest.raises(ValueError, match="coarse_shift_tol"):
            fd_eigensolve(1, grid=NumericGrid(25.0, 11), count=3, coarse_shift_tol=tol)


class TestInnerProducts:
    def test_gaussian_norm_oracle(self):
        g = zero_mode(0, 1)
        assert quadrature_inner(g, g) == pytest.approx(math.sqrt(3 * math.pi), rel=1e-12)

    def test_zero_modes_orthogonal(self):
        a, b = zero_mode(1, 2), zero_mode(1, 3)
        assert normalized_cross_inner(a, b) < 1e-8

    def test_sequence_orthogonality(self):
        seq = ttrr_sequence(1, 1, 1)
        a = ModeFunction(1, 1, 0, seq[0], energy(1, 1, 0))
        b = ModeFunction(1, 1, 1, seq[1], energy(1, 1, 1))
        assert normalized_cross_inner(a, b) < 1e-8

    def test_mixed_hamiltonians_rejected(self):
        with pytest.raises(ValueError):
            quadrature_inner(zero_mode(0, 1), zero_mode(1, 1))

    def test_norm_ratio_mirror(self):
        import numpy as np

        from okladder.numerics import _gauss_panels
        from okladder.spectral import ladder, ladder_constant_sq

        xs, ws = _gauss_panels()
        up = ladder(1, "raise")
        seq = ttrr_sequence(1, 2, 1)
        mode = ModeFunction(1, 2, 0, seq[0], energy(1, 2, 0))
        raised = eval_array(up.apply(mode.phi()), xs)
        base = eval_array(mode.phi(), xs)
        ratio = float(np.sum(ws * raised**2) / np.sum(ws * base**2))
        assert ratio == pytest.approx(float(ladder_constant_sq(1, 2, 0)), rel=1e-6)
