"""Field, polynomial, rational-function and quasi-Gaussian arithmetic."""

import importlib
import math
import random
from fractions import Fraction

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from okladder import exact_ring
from okladder.errors import EmptyList, MixedGrade, MixedKinds, NonZeroRemainder, ZeroDenominator
from okladder.exact_ring import (
    SQRT2,
    ExactPoly,
    QuasiGaussian,
    RationalFn,
    SqrtTwoScalar,
    apply_first_order,
    poly_gcd,
    wronskian,
)

fractions = st.fractions(min_value=-1000, max_value=1000, max_denominator=1000)

# Polynomials are graded: each lies in Q[x] or in sqrt2*Q[x].
_LINE_FACTORS = (1, SQRT2)
line_factors = st.sampled_from(_LINE_FACTORS)
graded_scalars = st.builds(lambda c, f: SqrtTwoScalar.coerce(c * f), fractions, line_factors)
# Zero weighs as much as every other kind together, so zero runs are common.
_coeffs = st.one_of(st.just(0), st.just(0), fractions, st.integers(-60, 60))


def rational_polys(max_degree=8):
    return st.lists(_coeffs, max_size=max_degree + 1).map(ExactPoly)


def polys(max_degree=8):
    """Polynomials in Q[x] or in sqrt2*Q[x]."""
    return st.builds(lambda p, f: p * f, rational_polys(max_degree), line_factors)


def same_grade(count, max_degree=8):
    """count polynomials of one grade, so that they can be added."""
    return st.builds(
        lambda ps, f: tuple(p * f for p in ps),
        st.lists(rational_polys(max_degree), min_size=count, max_size=count),
        line_factors,
    )


@st.composite
def divisors(draw, max_degree=5):
    body = draw(st.lists(_coeffs, max_size=max_degree))
    return ExactPoly(body + [draw(fractions.filter(bool))]) * draw(line_factors)


class TestScalar:
    @given(graded_scalars)
    def test_inverse(self, a):
        if a.is_zero:
            with pytest.raises(ZeroDivisionError):
                a.inverse()
        else:
            assert a * a.inverse() == SqrtTwoScalar(1, 0)

    def test_sqrt2_squares_to_two(self):
        assert SQRT2 * SQRT2 == SqrtTwoScalar(2, 0)

    def test_hash_consistent_with_cross_type_equality(self):
        assert hash(SqrtTwoScalar(3, 0)) == hash(3) == hash(Fraction(3))
        assert hash(ExactPoly.constant(3)) == hash(SqrtTwoScalar(3, 0))
        assert hash(ExactPoly.zero()) == hash(0)
        assert hash(RationalFn.constant(3)) == hash(ExactPoly.constant(3))
        assert len({SqrtTwoScalar(Fraction(1, 2), 0), Fraction(1, 2)}) == 1

    @given(graded_scalars, polys())
    @settings(max_examples=60)
    def test_polynomial_hash(self, c, p):
        # A constant hashes like its scalar; a polynomial of degree >= 1
        # hashes its integer array and builds no scalar view.
        assert hash(ExactPoly.constant(c)) == hash(c)
        if c.is_rational:
            assert hash(ExactPoly.constant(c)) == hash(c.a)
        q = ExactPoly.from_json_dict(p.to_json_dict())
        assert hash(q) == hash(p)
        if p.degree >= 1:
            fresh = p * 1
            hash(fresh)
            assert fresh._coeffs is None

    @given(graded_scalars, polys(6))
    @settings(max_examples=60)
    def test_scalar_left_of_polynomial(self, c, p):
        # A scalar on the left defers to the polynomial's reflected method.
        for s in (c, SQRT2):
            assert s * p == p * s
        s = p.leading if p else c  # a scalar of p's grade
        assert s + p == p + s
        assert s - p == -(p - s)
        f = RationalFn(p, ExactPoly((1, 0, 1)))
        assert SQRT2 * f == f * SQRT2
        assert s + f == f + s

    def test_comparison_with_polynomial_is_unsupported(self):
        with pytest.raises(TypeError):
            SQRT2 < ExactPoly.x()
        with pytest.raises(TypeError):
            SQRT2 >= ExactPoly.x()


class TestPoly:
    def test_trailing_zeros_trimmed(self):
        p = ExactPoly((1, 2, 0, 0))
        assert p.degree == 1 and p.coeffs[-1] == SqrtTwoScalar(2, 0)

    def test_self_division(self):
        p = ExactPoly((3, 0, 2))  # 2x^2 + 3
        assert (p * p).exact_div(p) == p

    def test_sqrt2_x_squared(self):
        sx = ExactPoly((0, SQRT2))
        assert sx * sx == ExactPoly((0, 0, 2))

    def test_divide_exact_table_row(self):
        q3 = ExactPoly((135, 0, 90, 0, 60, 0, 8))
        assert q3.exact_div(ExactPoly.one()) == q3

    def test_nonzero_remainder(self):
        with pytest.raises(NonZeroRemainder):
            ExactPoly((1, 1)).exact_div(ExactPoly((0, 0, 1)))

    @given(polys(6), polys(6))
    @settings(max_examples=60)
    def test_mul_then_exact_divide_roundtrip(self, r, q):
        if q.is_zero:
            return
        assert (r * q).exact_div(q) == r

    @given(polys(6), same_grade(2, 6))
    @settings(max_examples=40)
    def test_ring_axioms(self, a, bc):
        b, c = bc
        assert a * (b + c) == a * b + a * c
        assert (a * b) * c == a * (b * c)

    def test_eval_exact(self):
        p = ExactPoly((Fraction(1, 3), 0, 1))
        assert p.eval(Fraction(1, 2)) == SqrtTwoScalar(Fraction(7, 12), 0)
        assert (p * SQRT2).eval(-2) == SqrtTwoScalar(0, Fraction(13, 3))
        assert ExactPoly((0, SQRT2)).eval(Fraction(-3, 5)) == SqrtTwoScalar(0, Fraction(-3, 5))

    def test_derivative_vs_difference_quotient(self):
        rng = random.Random(7)
        p = ExactPoly((Fraction(1, 3), -2, 0, Fraction(5, 7), 1))
        dp = p.derivative()
        for _ in range(100):
            x0 = Fraction(rng.randint(-400, 400), rng.randint(1, 100))
            h = Fraction(1, 10**7)
            quotient = (p.eval(x0 + h) - p.eval(x0 - h)) / SqrtTwoScalar(2 * h, 0)
            assert abs(float(quotient - dp.eval(x0))) < 1e-8

    def test_gcd(self):
        a = ExactPoly((0, 1)) * ExactPoly((3, 0, 2))
        b = ExactPoly((1, 1)) * ExactPoly((3, 0, 2))
        g = poly_gcd(a, b)
        assert g == ExactPoly((Fraction(3, 2), 0, 1))  # monic

    def test_gcd_coprime(self):
        assert poly_gcd(ExactPoly((1, 1)), ExactPoly((2, 1))) == ExactPoly.one()

    def test_json_roundtrip(self):
        for p in (ExactPoly((Fraction(1, 3), -2)), ExactPoly((Fraction(-2, 7) * SQRT2, SQRT2))):
            assert ExactPoly.from_json_dict(p.to_json_dict()) == p

    def test_parity(self):
        assert ExactPoly((1, 0, 3)).parity() == 0
        assert ExactPoly((0, 1, 0, 3)).parity() == 1
        assert ExactPoly((1, 1)).parity() is None


def divmod_oracle(p: ExactPoly, d: ExactPoly) -> tuple[ExactPoly, ExactPoly]:
    """Schoolbook long division over SqrtTwoScalar Fractions, the kernel
    `ExactPoly.__divmod__` used before it moved to the integer arrays."""
    if p.degree < d.degree:
        return ExactPoly.zero(), p
    rem = list(p.coeffs)
    dq = len(rem) - len(d.coeffs)
    quot = [SqrtTwoScalar(0, 0)] * (dq + 1)
    inv_lead = d.leading.inverse()
    for i in range(dq, -1, -1):
        c = rem[i + len(d.coeffs) - 1]
        if c.is_zero:
            continue
        q = c * inv_lead
        quot[i] = q
        for j, dj in enumerate(d.coeffs):
            rem[i + j] = rem[i + j] - q * dj
    return ExactPoly(quot), ExactPoly(rem)


def same_division(p: ExactPoly, d: ExactPoly) -> tuple[ExactPoly, ExactPoly]:
    q, r = divmod(p, d)
    q_ref, r_ref = divmod_oracle(p, d)
    assert q.to_json_dict() == q_ref.to_json_dict()
    assert r.to_json_dict() == r_ref.to_json_dict()
    return q, r


def kernel_calls(monkeypatch, name: str) -> list:
    """Records the calls of the integer kernel `exact_ring.<name>`."""
    calls = []
    kernel = getattr(exact_ring, name)

    def counting(*args):
        calls.append(args)
        return kernel(*args)

    monkeypatch.setattr(exact_ring, name, counting)
    return calls


@pytest.fixture
def line_divisions(monkeypatch):
    """Counts the calls of the single-line division kernel."""
    return kernel_calls(monkeypatch, "_divmod_ints")


class TestDivisionKernel:
    @given(polys(10), divisors())
    @settings(max_examples=200, deadline=None)
    def test_divmod_matches_oracle(self, p, d):
        q, r = same_division(p, d)
        assert r.degree < d.degree
        assert q * d + r == p

    @given(polys(6), divisors())
    @settings(max_examples=150, deadline=None)
    def test_exact_quotient_matches_oracle(self, q, d):
        got, r = same_division(q * d, d)
        assert got == q and r.is_zero
        assert (q * d).exact_div(d) == q

    @given(polys(6), divisors(), rational_polys(5))
    @settings(max_examples=100, deadline=None)
    def test_remainder_raises_and_matches(self, q, d, r):
        r = ExactPoly(r.coeffs[: d.degree])
        if q:
            r = r * (q * d).leading  # the grade of q*d, so that they add
        if r.is_zero:
            return
        p = q * d + r
        assert same_division(p, d) == (q, r)
        with pytest.raises(NonZeroRemainder):
            p.exact_div(d)

    @pytest.mark.parametrize(
        "lead", [(3, SQRT2), (Fraction(-5, 7), 1), (Fraction(-3, 4), SQRT2), (Fraction(7, 2), 1)]
    )
    def test_leads_needing_a_finer_scale(self, lead):
        top, line = lead
        d = ExactPoly((1, 0, 0, Fraction(2, 3), top)) * line
        p = ExactPoly((Fraction(1, 5), 2, 0, 0, 0, 0, 0, 3, 0, -5, 1)) * SQRT2
        same_division(p, d)
        q = ExactPoly((Fraction(1, 3), 0, 0, -1, 7))
        assert same_division(q * d, d) == (q, ExactPoly.zero())

    def test_dividend_of_lower_degree(self):
        p, d = ExactPoly((1, 2)) * SQRT2, ExactPoly((0, 0, Fraction(1, 2)))
        assert same_division(p, d) == (ExactPoly.zero(), p)
        assert same_division(ExactPoly.zero(), d) == (ExactPoly.zero(), ExactPoly.zero())

    def test_sqrt2_only_remainder(self):
        p, d = ExactPoly((SQRT2, 0, SQRT2)), ExactPoly((0, 0, 1))
        assert same_division(p, d) == (ExactPoly.constant(SQRT2), ExactPoly.constant(SQRT2))
        with pytest.raises(NonZeroRemainder):
            p.exact_div(d)

    def test_division_by_zero(self):
        with pytest.raises(ZeroDivisionError):
            divmod(ExactPoly.one(), ExactPoly.zero())

    def test_okamoto_fill_divisions_match_oracle(self, monkeypatch, line_divisions):
        # Each fill step divides its right side in u by the monic u form of
        # a partner over Z (`_exact_quo`), with no rational long division.
        okamoto = importlib.import_module("okladder.okamoto")
        seen = []
        quo = okamoto._exact_quo

        def recording(X, H):
            got = quo(X, H)
            seen.append((X, H, got))
            return got

        monkeypatch.setattr(okamoto, "_exact_quo", recording)
        table = okamoto.OkamotoTable()
        for m in range(7):
            for n in range(-1, 7):
                table.get(m, n)
        monkeypatch.undo()
        assert len(seen) == 7 * 8 - 4  # every entry but the four seeds
        assert not line_divisions
        for X, H, got in seen:
            assert H[-1] == 1 and got is not None
            q, r = same_division(ExactPoly(X), ExactPoly(H))
            assert r.is_zero and q == ExactPoly(got)
            if len(H) > 1:
                assert quo([X[0] + 1, *X[1:]], H) is None


class FractionPoly:
    """Tuple-of-SqrtTwoScalar polynomial: the representation ExactPoly used
    before it stored integer arrays, kept as the oracle for its operations."""

    def __init__(self, coeffs=()):
        cs = [SqrtTwoScalar.coerce(c) for c in coeffs]
        while cs and cs[-1].is_zero:
            cs.pop()
        self.coeffs = tuple(cs)

    @classmethod
    def of(cls, p: ExactPoly) -> "FractionPoly":
        return cls(p.coeffs)

    @property
    def degree(self):
        return len(self.coeffs) - 1

    @property
    def leading(self):
        return self.coeffs[-1]

    def parity(self):
        if not self.coeffs:
            return 0
        p = self.degree % 2
        if all(c.is_zero for i, c in enumerate(self.coeffs) if i % 2 != p):
            return p
        return None

    def __eq__(self, other):
        return self.coeffs == other.coeffs

    def __add__(self, other):
        a, b = self.coeffs, other.coeffs
        if len(a) < len(b):
            a, b = b, a
        out = list(a)
        for i, c in enumerate(b):
            out[i] = out[i] + c
        return FractionPoly(out)

    def __neg__(self):
        return FractionPoly(-c for c in self.coeffs)

    def __sub__(self, other):
        return self + (-other)

    def __mul__(self, other):
        if not isinstance(other, FractionPoly):
            c = SqrtTwoScalar.coerce(other)
            return FractionPoly(ci * c for ci in self.coeffs)
        if not self.coeffs or not other.coeffs:
            return FractionPoly()
        out = [SqrtTwoScalar(0, 0)] * (len(self.coeffs) + len(other.coeffs) - 1)
        for i, ci in enumerate(self.coeffs):
            for j, cj in enumerate(other.coeffs):
                out[i + j] = out[i + j] + ci * cj
        return FractionPoly(out)

    def derivative(self):
        return FractionPoly(c * i for i, c in enumerate(self.coeffs) if i)

    def monic(self):
        return self * self.leading.inverse() if self.coeffs else self

    def lattice_primitive(self):
        if not self.coeffs:
            return self
        den = 1
        for c in self.coeffs:
            den = math.lcm(den, c.a.denominator, c.b.denominator)
        A = [c.a * den for c in self.coeffs]
        B = [c.b * den for c in self.coeffs]
        g = math.gcd(*(int(v) for v in A + B))
        if self.leading.sign() < 0:
            g = -g
        return FractionPoly(SqrtTwoScalar(a / g, b / g) for a, b in zip(A, B))

    def proportionality(self, other):
        if not self.coeffs:
            return SqrtTwoScalar(1, 0) if not other.coeffs else SqrtTwoScalar(0, 0)
        if not other.coeffs or self.degree != other.degree:
            return None
        c = self.leading / other.leading
        return c if self == other * c else None

    def to_json_dict(self):
        return scalar_json(self.coeffs)


def scalar_json(coeffs) -> dict:
    """JSON of a polynomial formatted from its scalar coefficients, as
    ExactPoly.to_json_dict did before it read the integer array."""
    return {
        "coeffs": [
            [f"{c.a.numerator}/{c.a.denominator}", f"{c.b.numerator}/{c.b.denominator}"]
            for c in coeffs
        ]
    }


def same_json(got: ExactPoly, want: FractionPoly) -> None:
    assert got.to_json_dict() == want.to_json_dict()
    assert_canonical(got)


def assert_canonical(p: ExactPoly) -> None:
    """den > 0, r in {0, 1}, gcd(den, all X_i) = 1 and a nonzero top entry;
    the zero polynomial is ((), 0, 1)."""
    X, r, den = p._int_arrays()
    assert den > 0 and r in (0, 1)
    assert math.gcd(den, *X) == 1
    if X:
        assert X[-1]
    else:
        assert (r, den) == (0, 1)


def horner_oracle(p: ExactPoly, x) -> SqrtTwoScalar:
    """p(x) by Horner's rule over the scalar coefficients."""
    acc = SqrtTwoScalar(0, 0)
    for c in reversed(p.coeffs):
        acc = acc * x + c
    return acc


def det_oracle(matrix, zero):
    """Minor expansion memoized over column subsets, O(n 2^n) products: the
    determinant `wronskian` used before Bareiss elimination."""
    n = len(matrix)
    memo = {}

    def minor(row, cols):
        if row == n:
            return None
        key = (row, cols)
        if key in memo:
            return memo[key]
        acc = None
        for idx, col in enumerate(cols):
            entry = matrix[row][col]
            sub = minor(row + 1, cols[:idx] + cols[idx + 1 :])
            term = entry if sub is None else entry * sub
            if idx % 2:
                term = -term
            acc = term if acc is None else acc + term
        memo[key] = acc
        return acc

    result = minor(0, tuple(range(n)))
    return zero if result is None else result


def recorded_determinants(monkeypatch, build):
    """(matrix, determinant) of every `_det` call made by build()."""
    seen = []
    det = exact_ring._det

    def recording(matrix, *mirror):
        value = det(matrix, *mirror)
        seen.append((matrix, value))
        return value

    monkeypatch.setattr(exact_ring, "_det", recording)
    build()
    monkeypatch.undo()
    assert seen
    return seen


class TestRepresentation:
    @given(polys(8), graded_scalars, st.integers(0, 4))
    @settings(max_examples=150, deadline=None)
    def test_json_reads_the_integer_array(self, p, c, k):
        # The product is fresh: it has no scalar view, and serializing it
        # builds none.
        q = p * ExactPoly.monomial(c, k)
        got = q.to_json_dict()
        assert q._coeffs is None
        assert got == scalar_json(q.coeffs)
        assert ExactPoly.from_json_dict(got) == q

    def test_json_of_each_grade(self):
        q = ExactPoly((6, 0, Fraction(-3, 4))) * ExactPoly.x() * SQRT2
        assert q.to_json_dict() == {
            "coeffs": [["0/1", "0/1"], ["0/1", "6/1"], ["0/1", "0/1"], ["0/1", "-3/4"]]
        }
        assert q._coeffs is None
        assert (q * SQRT2).to_json_dict()["coeffs"][1] == ["12/1", "0/1"]
        assert ExactPoly.zero().to_json_dict() == {"coeffs": []}

    @given(same_grade(2), polys(8), graded_scalars, fractions, st.integers(-9, 9))
    @settings(max_examples=200, deadline=None)
    def test_ops_match_fraction_oracle(self, pq, other, c, f, k):
        p, q = pq
        fp, fq = FractionPoly.of(p), FractionPoly.of(q)
        same_json(p + q, fp + fq)
        same_json(p - q, fp - fq)
        same_json(-p, -fp)
        same_json(p * q, fp * fq)
        same_json(p * other, fp * FractionPoly.of(other))
        same_json(p * c, fp * c)
        same_json(p * f, fp * f)
        same_json(p * k, fp * k)
        same_json(p.derivative(), fp.derivative())
        same_json(p.monic(), fp.monic())
        same_json(p.lattice_primitive(), fp.lattice_primitive())
        assert p.parity() == fp.parity()
        assert p.proportionality(q) == fp.proportionality(fq)
        assert p.proportionality(other) == fp.proportionality(FractionPoly.of(other))
        assert p.proportionality(p * c) == fp.proportionality(fp * c)
        if p:
            assert p.leading == fp.leading
        assert [p.coeff(i) for i in range(-1, len(fp.coeffs) + 1)] == [
            SqrtTwoScalar(0, 0), *fp.coeffs, SqrtTwoScalar(0, 0)
        ]

    @given(polys(6))
    @settings(max_examples=60, deadline=None)
    def test_parity_of_even_and_odd_parts(self, p):
        even = ExactPoly(c if i % 2 == 0 else 0 for i, c in enumerate(p.coeffs))
        odd = ExactPoly(c if i % 2 else 0 for i, c in enumerate(p.coeffs))
        for part in (even, odd, even + odd * ExactPoly.x()):
            assert part.parity() == FractionPoly.of(part).parity()

    def test_equal_values_built_by_different_routes(self):
        half = ExactPoly([Fraction(1, 2)])
        assert half * 2 == ExactPoly.one() and hash(half * 2) == hash(ExactPoly.one())
        assert half + half == ExactPoly.one()
        assert ExactPoly((0, 0, Fraction(1, 2))).derivative() == ExactPoly.x()
        assert ExactPoly((SQRT2,)) * SQRT2 == ExactPoly.constant(2)
        assert ExactPoly.monomial(Fraction(3, 6), 2) == ExactPoly((0, 0, Fraction(1, 2)))
        assert ExactPoly.from_json_dict({"coeffs": [["2/4", "0/3"], ["0/1", "0/1"]]}) == half

    @given(same_grade(2, 6), divisors())
    @settings(max_examples=100, deadline=None)
    def test_routes_agree_structurally(self, pr, q):
        p, r = pr
        for got in ((p * q).exact_div(q), p + r - r, -(-p), p * q.leading * q.leading.inverse()):
            assert_canonical(got)
            assert got == p and hash(got) == hash(p)
            assert got._int_arrays() == p._int_arrays()
        rebuilt = ExactPoly(p.coeffs)
        assert rebuilt == p and hash(rebuilt) == hash(p)

    @given(polys(6), divisors())
    @settings(max_examples=100, deadline=None)
    def test_operations_leave_operands_unchanged(self, p, d):
        if p and p._int_arrays()[1] != d._int_arrays()[1]:
            d = d * SQRT2  # one grade, so that p and d add
        stored = [x._int_arrays() for x in (p, d)]
        copies = [(list(x), r, den) for x, r, den in stored]
        p + d, p - d, d - p, -p, p * d, d * p, p * SQRT2, p * Fraction(3, 7), p * 0
        divmod(p, d), divmod(d, p) if p else None, p.derivative(), p.monic(), d.monic()
        p.lattice_primitive(), p.parity(), p.proportionality(d)
        p.coeffs, p.to_json_dict(), hash(p), poly_gcd(p, d), wronskian([p, d])
        RationalFn(p, d)
        for y, (x0, _, _), copy in zip((p, d), stored, copies):
            x, r, den = y._int_arrays()
            assert x is x0
            assert (list(x), r, den) == copy

    @given(polys(8), st.one_of(st.integers(-9, 9), fractions))
    @settings(max_examples=150, deadline=None)
    def test_eval_matches_horner_over_coeffs(self, p, x):
        assert p.eval(x) == horner_oracle(p, x)

    def test_eval_at_float_point(self):
        p = ExactPoly((Fraction(1, 3), 1, -2)) * SQRT2
        assert p.eval(0.1) == horner_oracle(p, Fraction(0.1))

    @given(rational_polys(8))
    @settings(max_examples=150, deadline=None)
    def test_square_matches_fraction_oracle(self, p):
        for q in (p, p * SQRT2):
            fq = FractionPoly.of(q)
            same_json(q * q, fq * fq)
            same_json(q**3, fq * fq * fq)


def rhs_oracle(q, c):
    """(9/2)(q q'' - q'^2) + (2x^2 + 3c) q^2 as composed products, the way
    the Okamoto fill built it before it became one pass over the arrays; works
    on ExactPoly and FractionPoly alike."""
    dq = q.derivative()
    shift = type(q)((3 * c, 0, 2))
    return (q * dq.derivative() - dq * dq) * Fraction(9, 2) + shift * (q * q)


def u_rhs_oracle(y, c):
    """y y'' - y'^2 + (u^2 + c) y^2, the same right side in u = sqrt(2/3)*x,
    as composed products."""
    dy = y.derivative()
    return y * dy.derivative() - dy * dy + type(y)((c, 0, 1)) * (y * y)


_LINE_PAIRS = [(a, b) for a in _LINE_FACTORS for b in _LINE_FACTORS]


class TestOkamotoKernels:
    def test_rhs_matches_composed_oracle_on_the_table(self):
        # The u form of each table entry is monic and integral, its right
        # side in u matches the composed products, and read back in x it is
        # the x-form right side exactly: T_c(q)(x) = 3**(D+1) R(u).
        from okladder.okamoto import OkamotoTable, _u_array, _x_poly

        table = OkamotoTable()
        for m in range(11):
            for n in range(-1, 11):
                q = table.get(m, n)
                y = _u_array(q)
                assert y is not None and y[-1] == 1, (m, n)
                assert _x_poly(y)._int_arrays() == q._int_arrays(), (m, n)
                for c in (2 * m + n - 1, 1 - m - 2 * n, -7):
                    got = exact_ring._toda_ints(y, c)
                    assert ExactPoly(got) == u_rhs_oracle(ExactPoly(y), c), (m, n, c)
                    x_form = _x_poly(got)
                    assert_canonical(x_form)
                    assert x_form._int_arrays() == rhs_oracle(q, c)._int_arrays(), (m, n, c)

    @given(st.lists(st.integers(-10**12, 10**12), min_size=1, max_size=10), st.integers(-9, 9))
    @settings(max_examples=100, deadline=None)
    def test_rhs_matches_fraction_oracle(self, y, c):
        got = exact_ring._toda_ints(y, c)
        assert len(got) == 2 * len(y) + 1
        same_json(ExactPoly(got), u_rhs_oracle(FractionPoly(y), c))

    @given(polys(), polys())
    @settings(max_examples=100, deadline=None)
    def test_line_products_match_fraction_oracle(self, p, q):
        fp, fq = FractionPoly.of(p), FractionPoly.of(q)
        same_json(p * q, fp * fq)
        same_json(p * p, fp * fp)

    @given(polys(10), divisors(), same_grade(2, 5))
    @settings(max_examples=100, deadline=None)
    def test_line_division_matches_oracle(self, p, d, qr):
        q, r = qr
        same_division(p, d)
        assert same_division(q * d, d) == (q, ExactPoly.zero())
        assert (q * d).exact_div(d) == q
        r = ExactPoly(r.coeffs[: d.degree]) * d.leading  # the grade of q*d
        if r:
            assert same_division(q * d + r, d) == (q, r)
            with pytest.raises(NonZeroRemainder):
                (q * d + r).exact_div(d)

    @pytest.mark.parametrize(
        "fp,fd", _LINE_PAIRS, ids=["Q/Q", "Q/sqrt2Q", "sqrt2Q/Q", "sqrt2Q/sqrt2Q"]
    )
    @pytest.mark.parametrize(
        "p,d",
        [
            ((1, 0, 1), (1, 3)),  # 1/3 is the first quotient step: the scale grows
            ((2, -1, 0, 5, Fraction(1, 2)), (1, 0, Fraction(-2, 7))),  # negative lead
            ((1, 2, 3, 4, 5), (0, 0, Fraction(5, 3))),  # divisor with zero lower terms
            ((1, 1), (1, 0, 0, 2)),  # divisor of higher degree
        ],
        ids=["inexact-step", "negative-lead", "zero-lower-terms", "higher-degree-divisor"],
    )
    def test_line_division_cases(self, p, d, fp, fd, line_divisions):
        p, d = ExactPoly(p) * fp, ExactPoly(d) * fd
        same_division(p, d)
        q = ExactPoly((Fraction(1, 3), 0, -2)) * fp
        assert same_division(q * d, d) == (q, ExactPoly.zero())
        with pytest.raises(NonZeroRemainder):
            (q * d + ExactPoly.constant(fp * fd)).exact_div(d)
        # One integer long division each, except for a dividend of lower
        # degree, which needs no division at all.
        assert len(line_divisions) == (3 if p.degree >= d.degree else 2)

    def test_mixed_grades_raise(self):
        x = ExactPoly.x()
        for build in (lambda: SqrtTwoScalar(1, 2), lambda: 1 + SQRT2, lambda: SQRT2 - 1):
            with pytest.raises(MixedGrade):
                build()
        with pytest.raises(MixedGrade):
            x + ExactPoly.constant(SQRT2)
        with pytest.raises(MixedGrade):
            x * SQRT2 - x
        with pytest.raises(MixedGrade):
            ExactPoly((1, SQRT2))
        for coeffs in ([["1/2", "0/1"], ["0/1", "3/1"]], [["1/1", "1/1"]]):
            with pytest.raises(MixedGrade):
                ExactPoly.from_json_dict({"coeffs": coeffs})
        # A zero operand has no grade.
        assert x * SQRT2 + ExactPoly.zero() - ExactPoly.zero() == x * SQRT2
        assert ExactPoly.zero() - x * SQRT2 == x * -SQRT2
        # A determinant column with entries of both grades.
        one = ExactPoly.one()
        with pytest.raises(MixedGrade):
            exact_ring._det([[x, one], [x * SQRT2, one]])
        assert exact_ring._det([[x, one], [ExactPoly.zero(), one]]) == x


class TestRationalFn:
    def test_reduced_and_monic_denominator(self):
        x = ExactPoly.x()
        shared = ExactPoly((3, 0, 2))
        f = RationalFn(x * shared, shared * shared * 2)
        # x/(2(2x^2+3)) with the denominator normalized monic
        assert f.num == x * Fraction(1, 4)
        assert f.den == ExactPoly((Fraction(3, 2), 0, 1))

    def test_zero_denominator(self):
        with pytest.raises(ZeroDenominator):
            RationalFn(ExactPoly.one(), ExactPoly.zero())

    @given(polys(3), polys(3).filter(bool), st.one_of(graded_scalars, st.just(SQRT2)))
    @settings(max_examples=60, deadline=None)
    def test_reduced_construction_makes_denominator_monic(self, a, b, c):
        f = RationalFn(a, b)
        if c:
            assert RationalFn(f.num * c, f.den * c, _reduced=True) == f

    @given(same_grade(2, 3), polys(2))
    @settings(max_examples=40)
    def test_field_ops(self, ac, b):
        # f + g = (a*c + b^2)/(b*c) needs a and c of one grade.
        a, c = ac
        if b.is_zero or c.is_zero:
            return
        f = RationalFn(a, b)
        g = RationalFn(b, c)
        assert (f + g) - g == f
        assert (f * g) / g == f if not g.is_zero else True

    def test_derivative_quotient_rule(self):
        f = RationalFn(ExactPoly((0, 1)), ExactPoly((3, 0, 2)))
        d = f.derivative()
        # (x/(2x^2+3))' = (3 - 2x^2)/(2x^2+3)^2
        expected = RationalFn(ExactPoly((3, 0, -2)), ExactPoly((3, 0, 2)) ** 2)
        assert d == expected


class TestWronskian:
    def test_two_by_two_hand_oracle(self):
        psi1 = ExactPoly((0, 2))
        psi2 = ExactPoly((-3, 0, 2))
        assert wronskian([psi1, psi2]) == ExactPoly((6, 0, 4))

    def test_single_entry(self):
        f = ExactPoly((1, 2, 3))
        assert wronskian([f]) == f

    def test_pseudo_seed_is_table_entry(self):
        # Wr(Psi_2) = 2x^2 + 3, the first nontrivial table polynomial
        from okladder.wronskian_rep import pseudo_psi_poly

        assert wronskian([pseudo_psi_poly(2)]) == ExactPoly((3, 0, 2))

    def test_alternating(self):
        a, b, c = ExactPoly((0, 2)), ExactPoly((-3, 0, 2)), ExactPoly((1, 1, 1))
        assert wronskian([a, b, c]) == -wronskian([b, a, c])

    def test_empty_and_mixed(self):
        with pytest.raises(EmptyList):
            wronskian([])
        with pytest.raises(MixedKinds):
            wronskian([ExactPoly.one(), QuasiGaussian(RationalFn.one())])
        # only polynomials: a shared Gaussian is factored out by the caller
        for entries in ([QuasiGaussian(RationalFn.x())],
                        [QuasiGaussian(RationalFn.x()), QuasiGaussian(RationalFn.one())],
                        [RationalFn.x(), RationalFn.one()]):
            with pytest.raises(MixedKinds):
                wronskian(entries)

    def test_quasi_gaussian_factoring(self):
        # Wr(e^{-x^2/6}(2x), e^{-x^2/6}(2x^2 - 3)) = e^{-x^2/3} (4x^2 + 6): the
        # rows (d/dx - x/3)^r p_i of the dressed seeds have the determinant
        # of the plain seeds
        seeds = [ExactPoly((0, 2)), ExactPoly((-3, 0, 2))]
        rows = gauss_rows(seeds, -1)
        assert rows[1] == [RationalFn.from_poly(ExactPoly((2, 0, Fraction(-2, 3)))),
                           RationalFn.from_poly(ExactPoly((0, 5, 0, Fraction(-2, 3))))]
        assert det_oracle(rows, RationalFn.zero()) == RationalFn.from_poly(ExactPoly((6, 0, 4)))
        assert wronskian(seeds) == ExactPoly((6, 0, 4))


def gauss_rows(seeds, s):
    """[(d/dx + s*x/3)^r p_i] over RationalFn, one operation at a time: the
    matrix whose determinant is the polynomial part of Wr(e^{s x^2/6} p_i),
    built the way `wronskian` did before the Gaussian was factored out."""
    slope = RationalFn.from_poly(ExactPoly((0, Fraction(s, 3))))
    rows = [[RationalFn.from_poly(p) for p in seeds]]
    for _ in range(len(seeds) - 1):
        rows.append([r.derivative() + slope * r for r in rows[-1]])
    return rows


_det_entries = st.one_of(st.just(ExactPoly.zero()), rational_polys(3))


@st.composite
def square_matrices(draw):
    """3x3 or 4x4 matrices whose columns each have one grade."""
    n = draw(st.integers(3, 4))
    cols = []
    for _ in range(n):
        factor = draw(line_factors)
        cols.append([p * factor for p in draw(st.lists(_det_entries, min_size=n, max_size=n))])
    return [list(row) for row in zip(*cols)]


@st.composite
def wronskian_seeds(draw):
    """1 to 4 seeds, each in Q[x] or sqrt2*Q[x] with rational entries, and
    each cut to its even or its odd entries or left of mixed parity."""
    seeds = []
    for _ in range(draw(st.integers(1, 4))):
        p = draw(rational_polys(7)) * draw(line_factors)
        keep = draw(st.sampled_from((0, 1, None)))
        if keep is not None:
            p = ExactPoly([c if i % 2 == keep else 0 for i, c in enumerate(p.coeffs)])
        seeds.append(p)
    return seeds


def derivative_rows(seeds):
    rows = [list(seeds)]
    for _ in range(len(seeds) - 1):
        rows.append([p.derivative() for p in rows[-1]])
    return rows


class TestDeterminant:
    """`_det` (each column's power of sqrt2 factored out, evaluation at
    integer points up to the degree bound, integer determinants,
    interpolation) against the memoized minor expansion."""

    def same_det(self, matrix):
        value = exact_ring._det(matrix)
        assert value == det_oracle(matrix, ExactPoly.zero())
        return value

    def test_okamoto_index_sets(self, monkeypatch):
        from okladder.wronskian_rep import okamoto_via_wronskian

        def build():
            for m in range(6):
                for n in range(6):
                    if m + n >= 1 and not (m == 0 and n > 1):
                        okamoto_via_wronskian(m, n, "psi")
                    if m + n >= 2:
                        okamoto_via_wronskian(m, n, "Psi")

        seen = recorded_determinants(monkeypatch, build)
        assert max(len(matrix) for matrix, _ in seen) == 13
        for matrix, value in seen:
            assert value == det_oracle(matrix, ExactPoly.zero())

    def test_wronskian_modes(self, monkeypatch):
        from okladder.wronskian_rep import wronskian_mode

        def build():
            for k in range(6):
                for j in (1, 2, 3):
                    for n in (0, 1):
                        wronskian_mode(k, j, n)

        for matrix, value in recorded_determinants(monkeypatch, build):
            assert value == det_oracle(matrix, ExactPoly.zero())

    def test_exceptional_hermite(self, monkeypatch):
        from okladder.wronskian_rep import exceptional_hermite, sigma_index

        def build():
            for k in range(1, 4):
                for j in (1, 2, 3):
                    for n in range(3):
                        exceptional_hermite(list(range(1, k + 1)), sigma_index(k, j, n))
            exceptional_hermite([1], 0)

        for matrix, value in recorded_determinants(monkeypatch, build):
            assert value == det_oracle(matrix, ExactPoly.zero())

    def test_quasi_gaussian_rows(self, monkeypatch):
        # The seed sets of wronskian_potential in both forms, k <= 4: the rows
        # (d/dx + s*x/3)^r p_i of the dressed seeds have the plain seeds'
        # Wronskian as their determinant, so the Gaussian never enters `_det`.
        from okladder.wronskian_rep import (
            index_set_added,
            index_set_deleted,
            pseudo_psi_poly,
            psi_poly,
            wronskian_potential,
        )

        for k in range(1, 5):
            for seed, indices, s in ((psi_poly, index_set_deleted(k), -1),
                                     (pseudo_psi_poly, index_set_added(k), 1)):
                seeds = [seed(i) for i in indices]
                want = det_oracle(gauss_rows(seeds, s), RationalFn.zero())
                assert want == RationalFn.from_poly(wronskian(seeds)), (k, s)

        def build():
            for k in range(5):
                wronskian_potential(k, "deleting")
                wronskian_potential(k, "adding")

        for matrix, value in recorded_determinants(monkeypatch, build):
            assert value == det_oracle(matrix, ExactPoly.zero())

    def test_zero_pivot_swaps_rows(self):
        x, one, zero = ExactPoly.x(), ExactPoly.one(), ExactPoly.zero()
        assert self.same_det([[zero, x], [one, zero]]) == -x
        self.same_det([[zero, one, x], [x, zero, one], [one, x, zero]])
        # the zero pivot appears only after the first elimination step
        assert self.same_det([[one, zero, zero], [zero, zero, one], [zero, one, zero]]) == -one

    def test_no_pivot_gives_zero(self):
        x, zero = ExactPoly.x(), ExactPoly.zero()
        assert exact_ring._det([[zero, x], [zero, x * x]]) == zero
        assert exact_ring._det([[x, x], [x, x]]) == zero

    def test_equal_columns_give_zero(self):
        x, one = ExactPoly.x(), ExactPoly.one()
        p = ExactPoly((1, 2, 0, 3))
        matrix = [[x, p, x], [one, p.derivative(), one], [p, x * x, p]]
        assert self.same_det(matrix) == ExactPoly.zero()

    def test_below_degree_bound(self):
        # the bound is 2 + 2 - 1 = 3; the leading terms cancel
        x2 = ExactPoly((0, 0, 1))
        assert wronskian([x2, x2 + ExactPoly.one()]) == ExactPoly((0, -2))

    def test_sqrt2_parts(self):
        x, one, zero = ExactPoly.x(), ExactPoly.one(), ExactPoly.zero()
        # two columns in sqrt2*Q[x] and one in Q[x]: sqrt2**2 comes out
        line = ExactPoly((0, 1, 0, 3)) * SQRT2
        other = ExactPoly((Fraction(1, 2), 1, 3)) * SQRT2
        value = self.same_det([[line, x, other], [one * SQRT2, x * x, line], [other, one, zero]])
        assert value and value._int_arrays()[1] == 0
        # one column in sqrt2*Q[x]: the determinant lies there too
        assert self.same_det([[line, x], [other, one]])._int_arrays()[1] == 1
        seeds = [ExactPoly((1, Fraction(2, 3), 0, 1)) * SQRT2, ExactPoly((1, 0, Fraction(1, 5))),
                 ExactPoly((0, 1, Fraction(-1, 7), 2, 1)) * SQRT2]
        rows = [seeds, [p.derivative() for p in seeds]]
        rows.append([p.derivative() for p in rows[-1]])
        assert wronskian(seeds) == det_oracle(rows, ExactPoly.zero())

    def test_zero_row(self):
        x, one, zero = ExactPoly.x(), ExactPoly.one(), ExactPoly.zero()
        assert exact_ring._det([[x, one, x], [zero, zero, zero], [one, x, one]]) == zero
        # constant seeds: the derivative row is zero
        assert wronskian([one, one * 3]) == zero

    def test_rational_wronskian_makes_no_division(self, monkeypatch):
        from okladder.wronskian_rep import psi_poly

        divisions = kernel_calls(monkeypatch, "_divmod_ints")
        value = wronskian([psi_poly(i) for i in (1, 2, 4, 5)])
        assert not divisions
        assert value.degree == 1 + 2 + 4 + 5 - 6

    def test_one_and_two_by_two(self):
        p, q = ExactPoly((1, 3)) * SQRT2, ExactPoly((Fraction(1, 3), 0, 2)) * SQRT2
        assert self.same_det([[p]]) == p
        assert self.same_det([[p, q], [q, p]]) == p * p - q * q

    def test_rational_entries_rejected(self):
        f = RationalFn(ExactPoly.one(), ExactPoly.x())
        with pytest.raises(MixedKinds):
            exact_ring._det([[f]])
        with pytest.raises(MixedKinds):
            exact_ring._det([[ExactPoly.one(), f], [ExactPoly.x(), ExactPoly.one()]])

    @given(wronskian_seeds())
    @settings(max_examples=200, deadline=None)
    def test_mirrored_points_match_oracle(self, seeds):
        # Seeds of parities p_c give Wr(-x) = (-1)**(sum p_c + l(l-1)/2) Wr(x):
        # `_det` then evaluates only at x >= 0, with the same result.
        rows = derivative_rows(seeds)
        value = wronskian(seeds)
        assert value == det_oracle(rows, ExactPoly.zero())
        parities = [p.parity() for p in seeds]
        if None not in parities:
            size = len(seeds)
            sign = (sum(parities) + size * (size - 1) // 2) % 2
            assert exact_ring._det(rows, -1 if sign else 1) == exact_ring._det(rows) == value
            if value:
                assert value.parity() == sign

    def test_mirror_halves_the_points(self, monkeypatch):
        from okladder.wronskian_rep import psi_poly

        seeds = [psi_poly(i) for i in (1, 2, 4, 5)]  # degree bound 6: x = -3..3
        points = kernel_calls(monkeypatch, "_int_det")
        even_odd = wronskian(seeds)
        assert len(points) == 4  # x = 0..3
        mixed = seeds[:3] + [seeds[3] + ExactPoly.one()]
        assert mixed[3].parity() is None
        points.clear()
        assert wronskian(mixed) == det_oracle(derivative_rows(mixed), ExactPoly.zero())
        assert len(points) == 7  # x = -3..3
        assert even_odd == det_oracle(derivative_rows(seeds), ExactPoly.zero())

    @given(square_matrices())
    @settings(max_examples=100, deadline=None)
    def test_random_matrices(self, matrix):
        self.same_det(matrix)
        singular = [row[:-1] + [row[0]] for row in matrix]
        assert exact_ring._det(singular) == ExactPoly.zero()


class TestQuasiGaussian:
    def test_ground_mode_annihilation(self):
        # the lowering factor -d/dx + W with W = -x/3 kills exp(-x^2/6)
        w = RationalFn.from_poly(ExactPoly((0, Fraction(-1, 3))))
        g = QuasiGaussian(RationalFn.one())
        assert apply_first_order(-1, w, g).is_zero

    def test_plain_derivative(self):
        # (d/dx + x/3)(x G) = G for G = exp(-x^2/6)
        g = QuasiGaussian(RationalFn.from_poly(ExactPoly.x()))
        out = apply_first_order(1, RationalFn.from_poly(ExactPoly((0, Fraction(1, 3)))), g)
        assert out == QuasiGaussian(RationalFn.one())

    def test_product_rule_against_gaussian(self):
        f = RationalFn.from_poly(ExactPoly((0, Fraction(1, 3))))
        g = QuasiGaussian(RationalFn.one())
        out = apply_first_order(-1, f, g)
        assert out == QuasiGaussian(RationalFn.from_poly(ExactPoly((0, Fraction(2, 3)))))

    def test_derivative_vs_difference_quotient(self):
        from okladder.numerics import eval_float

        rng = random.Random(11)
        g = QuasiGaussian(RationalFn(ExactPoly((1, 2)), ExactPoly((3, 0, 2))))
        dg = apply_first_order(1, RationalFn.zero(), g)
        for _ in range(100):
            x0 = rng.uniform(-4, 4)
            h = 1e-6
            quotient = (eval_float(g, x0 + h) - eval_float(g, x0 - h)) / (2 * h)
            assert abs(quotient - eval_float(dg, x0)) < 1e-8
