"""Sturm census vs the closed-form zero-count laws, and the integer kernel
vs the Sturm chain over Q(sqrt2) scalars it replaced."""

from fractions import Fraction

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from okladder import exact_ring, rootcount, wronskian_rep
from okladder.errors import IndexOutOfCone
from okladder.exact_ring import SQRT2, ExactPoly, poly_gcd
from okladder.okamoto import okamoto
from okladder.rootcount import (
    predicted_mode_count,
    predicted_okamoto_count,
    predicted_wronskian_count,
    sturm_count,
)
from okladder.spectral import energy
from okladder.ttrr import ttrr_sequence
from okladder.verify import VerifySuiteConfig, run_verify
from okladder.wronskian_rep import index_set_deleted, psi_poly, sigma_index, wronskian_mode
from okladder.exact_ring import wronskian
from test_exact_ring import graded_scalars, polys


class TestSturm:
    def test_quartic_with_two_real_roots(self):
        report = sturm_count(okamoto(2, 1))  # 4x^4 + 12x^2 - 9
        assert (report.n0, report.n_plus, report.n_minus) == (0, 1, 1)
        assert report.n_total == 2

    def test_nodeless_sextic(self):
        assert sturm_count(okamoto(3, 0)).n_total == 0

    def test_mode_with_four_roots(self):
        p = ExactPoly((81, 0, -162, 0, -36, 0, 8))
        assert sturm_count(p).n_total == 4

    def test_root_at_zero_multiplicity(self):
        p = ExactPoly((0, 0, 0, -3, 0, 2))  # x^3 (2x^2 - 3)
        report = sturm_count(p)
        assert report.n0 == 3 and report.n_plus == report.n_minus == 1

    def test_sqrt2_coefficients(self):
        report = sturm_count(okamoto(3, -1))  # sqrt2 x (4x^4 - 45)
        assert report.n0 == 1 and report.n_total == 3

    def test_nonsquarefree_flagged(self):
        p = ExactPoly((-1, 0, 1)) ** 2
        report = sturm_count(p)
        assert not report.simple
        assert report.n_plus == report.n_minus == 1

    def test_one_remainder_sequence_for_a_repeated_sqrt2_root(self, monkeypatch):
        # sqrt2 x (2x^2 - 1)^2 (x^2 - 3): roots 0, a double +-1/sqrt2, and +-sqrt3.
        # The Sturm chain itself ends in gcd(p, p'); no separate gcd is taken.
        calls = []

        def counting(p, q):
            calls.append((p, q))
            return poly_gcd(p, q)

        monkeypatch.setattr(exact_ring, "poly_gcd", counting)
        monkeypatch.setattr(rootcount, "poly_gcd", counting, raising=False)
        p = ExactPoly((0, SQRT2)) * ExactPoly((-1, 0, 2)) ** 2 * ExactPoly((-3, 0, 1))
        report = sturm_count(p)
        assert (report.n0, report.n_plus, report.n_minus, report.simple) == (1, 2, 2, False)
        assert calls == []

    def test_zero_poly_rejected(self):
        with pytest.raises(ValueError):
            sturm_count(ExactPoly.zero())

    @given(
        st.integers(min_value=0, max_value=3),
        st.lists(
            st.fractions(min_value=Fraction(1, 8), max_value=8, max_denominator=16),
            max_size=3,
            unique=True,
        ),
        st.lists(
            st.fractions(min_value=Fraction(1, 8), max_value=8, max_denominator=16),
            max_size=2,
            unique=True,
        ),
    )
    @settings(max_examples=60, deadline=None)
    def test_constructed_root_oracle(self, zero_mult, positive_roots, complex_pairs):
        # build x^m * prod (x - r)(x + r) * prod (x^2 + a): every count is known
        p = ExactPoly.monomial(1, zero_mult)
        for r in positive_roots:
            p = p * ExactPoly((-r, 1)) * ExactPoly((r, 1))
        for a in complex_pairs:
            p = p * ExactPoly((a, 0, 1))
        report = sturm_count(p)
        assert report.n0 == zero_mult
        assert report.n_plus == len(positive_roots)
        assert report.n_minus == len(positive_roots)
        assert report.simple


class TestOkamotoPredictions:
    @pytest.mark.parametrize(
        "m,n,total", [(2, 1, 2), (3, 0, 0), (5, 0, 0), (3, 1, 3), (1, 1, 1), (0, 2, 2)]
    )
    def test_examples(self, m, n, total):
        assert predicted_okamoto_count(m, n).n_total == total

    def test_against_sturm_grid(self):
        for m in range(7):
            for n in range(7 - m):
                predicted = predicted_okamoto_count(m, n)
                counted = sturm_count(okamoto(m, n))
                assert counted.n_total == predicted.n_total, (m, n)
                assert counted.n0 == predicted.n0, (m, n)
                assert counted.n_plus == counted.n_minus


class TestModePredictions:
    @pytest.mark.parametrize(
        "k,j,n,total", [(1, 1, 1, 1), (0, 1, 0, 0), (2, 1, 0, 0), (1, 3, 0, 3), (1, 2, 0, 2)]
    )
    def test_examples(self, k, j, n, total):
        assert predicted_mode_count(k, j, n) == total

    def test_negative_indices_rejected(self):
        # In the order the mode's construction checks them: n, then k.
        with pytest.raises(ValueError, match="level index n must be >= 0"):
            predicted_mode_count(1, 1, -1)
        with pytest.raises(ValueError, match="level index n must be >= 0"):
            predicted_mode_count(-1, 1, -1)
        with pytest.raises(IndexOutOfCone, match="potential index k must be >= 0"):
            predicted_mode_count(-1, 2, 0)

    def test_against_sturm(self):
        for k in range(3):
            for j in (1, 2, 3):
                seq = ttrr_sequence(k, j, 4)
                for n, p in enumerate(seq):
                    assert sturm_count(p).n_total == predicted_mode_count(k, j, n)

    def test_rank_law_k1(self):
        # the first eight states ordered by energy carry 0..7 real zeros
        states = sorted((energy(1, j, n), j, n) for j in (1, 2, 3) for n in range(8))[:8]
        seqs = {j: ttrr_sequence(1, j, 7) for j in (1, 2, 3)}
        for rank, (_, j, n) in enumerate(states):
            assert sturm_count(seqs[j][n]).n_total == rank


class TestWronskianPredictions:
    def test_single_even_index(self):
        report = predicted_wronskian_count([2])
        assert (report.n0, report.n_plus, report.n_minus) == (0, 1, 1)
        assert sturm_count(psi_poly(2)).n_total == report.n_total

    def test_single_odd_index(self):
        report = predicted_wronskian_count([1])
        assert (report.n0, report.n_total) == (1, 1)

    def test_empty(self):
        assert predicted_wronskian_count([]).n_total == 0

    def test_family_used_by_modes(self):
        xi = sorted(index_set_deleted(1) + [6])
        assert xi == [1, 2, 6]
        predicted = predicted_wronskian_count(xi)
        counted = sturm_count(wronskian([psi_poly(i) for i in xi]))
        assert (predicted.n0, predicted.n_plus, predicted.n_minus) == (
            counted.n0,
            counted.n_plus,
            counted.n_minus,
        )

    def test_across_sequences(self):
        for k in (0, 1, 2):
            for j in (1, 2, 3):
                for n in range(3):
                    xi = sorted(index_set_deleted(k) + [sigma_index(k, j, n)])
                    predicted = predicted_wronskian_count(xi)
                    counted = sturm_count(wronskian_mode(k, j, n).P)
                    assert predicted.n_total == counted.n_total, (k, j, n)

    def test_monotonicity_guard(self):
        with pytest.raises(ValueError):
            predicted_wronskian_count([2, 1])


def squarefree_census(p: ExactPoly) -> tuple[int, int, int, bool]:
    """(n0, n_plus, n_minus, simple) by the older route: divide out
    gcd(p, p') first, then run Sturm on the squarefree part."""
    n0 = 0
    while p.degree > 0 and p.coeff(0).is_zero:
        p = ExactPoly(p.coeffs[1:])
        n0 += 1
    g = poly_gcd(p, p.derivative())
    report = sturm_count(p.exact_div(g))
    assert report.simple
    return n0, report.n_plus, report.n_minus, g.degree == 0


_roots = st.fractions(min_value=-6, max_value=6, max_denominator=8)
_factors = st.one_of(
    st.builds(lambda r: ExactPoly((-r, 1)), _roots),
    st.builds(lambda r: ExactPoly((-2 * r * r, 0, 1)) * SQRT2, _roots),  # roots +-sqrt2 r
    st.builds(lambda a, b: ExactPoly((a, b, 1)), _roots, _roots),
)


@given(st.lists(st.tuples(_factors, st.integers(1, 3)), min_size=1, max_size=4))
@settings(max_examples=60, deadline=None)
def test_repeated_factors_match_squarefree_route(factors):
    p = ExactPoly.one()
    for f, mult in factors:
        p = p * f**mult
    report = sturm_count(p)
    assert (report.n0, report.n_plus, report.n_minus, report.simple) == squarefree_census(p)


def scalar_chain(p: ExactPoly) -> list[ExactPoly]:
    """The Sturm chain of p over Q(sqrt2) scalars, each remainder scaled by
    a positive rational: the chain sturm_count ran before it read integer
    arrays, kept as the oracle of `rootcount._real_roots`."""
    chain = [p, p.derivative()]
    while chain[-1].degree > 0:
        _, r = divmod(chain[-2], chain[-1])
        if r.is_zero:
            break
        r = -r
        q = r.lattice_primitive()
        chain.append(q if q.leading.sign() == r.leading.sign() else -q)
    return [c for c in chain if not c.is_zero]


def variations(signs: list[int]) -> int:
    filtered = [s for s in signs if s]
    return sum(1 for a, b in zip(filtered, filtered[1:]) if a != b)


def census_oracle(p: ExactPoly) -> tuple[int, int, int, bool]:
    """(n0, n_plus, n_minus, simple) by exact division by x, then the scalar
    chain's signs at 0 and at both infinities."""
    if p.is_zero:
        raise ValueError("root count of the zero polynomial")
    n0 = 0
    while p.degree > 0 and p.coeff(0).is_zero:
        p = p.exact_div(ExactPoly.x())
        n0 += 1
    chain = scalar_chain(p)
    at_zero = [c.coeff(0).sign() for c in chain]
    at_plus_inf = [c.leading.sign() for c in chain]
    at_minus_inf = [c.leading.sign() * (-1 if c.degree % 2 else 1) for c in chain]
    pos = variations(at_zero) - variations(at_plus_inf)
    neg = variations(at_minus_inf) - variations(at_zero)
    return n0, pos, neg, chain[-1].degree == 0


def census(p: ExactPoly) -> tuple[int, int, int, bool]:
    report = rootcount.sturm_count(p)
    return report.n0, report.n_plus, report.n_minus, report.simple


def census_routes(monkeypatch) -> list[bool]:
    """For every census run from here on, whether it took the mixed-parity
    branch: its one chain ran over the stripped array X itself rather than
    over the shorter X[::2]."""
    routes, inputs = [], []
    kernel, count = rootcount._real_roots, rootcount.sturm_count

    def spy(p):
        report = count(p)
        X = p._int_arrays()[0][report.n0 :]
        routes.append(len(inputs.pop()) == len(X) > 1)
        return report

    monkeypatch.setattr(rootcount, "_real_roots", lambda X: inputs.append(X) or kernel(X))
    monkeypatch.setattr(rootcount, "sturm_count", spy)
    monkeypatch.setattr(wronskian_rep, "sturm_count", spy)
    return routes


def reflected(p: ExactPoly) -> ExactPoly:
    """p(-x)."""
    return ExactPoly(tuple(-c if i % 2 else c for i, c in enumerate(p.coeffs)))


# Factors with asymmetric real roots, complex pairs, sqrt2 roots and random
# polynomials (zero, constants and denominators among them), each taken up
# to three times.
_census_factors = st.one_of(
    st.builds(lambda r: ExactPoly((-r, 1)), _roots),
    st.builds(lambda a, b: ExactPoly((a, b, 1)), _roots, _roots),
    st.builds(lambda r: ExactPoly((-2 * r * r, 0, 1)) * SQRT2, _roots),
    polys(3),
)


@st.composite
def census_inputs(draw):
    p = ExactPoly.monomial(draw(graded_scalars), draw(st.integers(0, 3)))
    for f, mult in draw(st.lists(st.tuples(_census_factors, st.integers(1, 3)), max_size=4)):
        p = p * f**mult
    return p


class TestIntegerKernel:
    @given(census_inputs())
    @settings(max_examples=200, deadline=None)
    def test_matches_scalar_chain(self, p):
        if p.is_zero:
            with pytest.raises(ValueError, match="zero polynomial"):
                sturm_count(p)
            return
        assert census(p) == census_oracle(p)
        assert census(-p) == census(p)

    @given(census_inputs())
    @settings(max_examples=100, deadline=None)
    def test_parity_definite_inputs_match_scalar_chain(self, p):
        # p(x) p(-x) is even, and x p(x) p(-x) odd: the y = x^2 route.
        q = p * reflected(p)
        for r in (q, q * ExactPoly.x()):
            if r.is_zero:
                continue
            got = census(r)
            assert got == census_oracle(r)
            assert got[1] == got[2]

    @pytest.mark.parametrize(
        "roots,extra,expected",
        [
            ((1, 2, -3), 1, (0, 2, 1, True)),
            ((0, 0, 1, 1, -2), SQRT2 / 7, (2, 1, 1, False)),
            ((-1, -2, -3), ExactPoly((1, 0, 1)), (0, 0, 3, True)),
            ((Fraction(1, 3),) * 3, ExactPoly((1, 1, 1)), (0, 1, 0, False)),
            ((0, 5, Fraction(-1, 2), -3), Fraction(-2, 9), (1, 1, 2, True)),
            ((Fraction(-7, 4), 2, 2), ExactPoly((0, 0, 0, SQRT2)), (3, 1, 1, False)),
        ],
    )
    def test_mixed_parity(self, monkeypatch, roots, extra, expected):
        # Asymmetric real roots: the census reads both half lines off one
        # chain over X.
        p = ExactPoly.one()
        for r in roots:
            p = p * ExactPoly((-r, 1))
        p = p * extra
        routes = census_routes(monkeypatch)
        assert census(p) == expected == census_oracle(p)
        assert census(reflected(p)) == (expected[0], expected[2], expected[1], expected[3])
        assert routes == [True, True]

    def test_constants(self, monkeypatch):
        routes = census_routes(monkeypatch)
        for c in (1, -3, Fraction(5, 7), SQRT2, -SQRT2 / 3):
            assert census(ExactPoly.constant(c)) == (0, 0, 0, True)
            assert census(ExactPoly.monomial(c, 4)) == (4, 0, 0, True)
        assert routes == [False] * 10


def test_default_censuses_never_take_the_mixed_branch(monkeypatch):
    """Every census of the default zeros and wronskian suites and of the
    Okamoto grid m + n <= 9 is of an even array after x^n0 is stripped, so
    each runs one chain over X(sqrt y): a silent fall into the mixed-parity
    branch fails here."""
    routes = census_routes(monkeypatch)
    results = run_verify(VerifySuiteConfig(which=("zeros", "wronskian")))
    assert results and all(r.passed for r in results)
    for m in range(10):
        for n in range(10 - m):
            assert census(okamoto(m, n))[1:3] == (predicted_okamoto_count(m, n).n_plus,) * 2
    assert len(routes) > 200
    assert not any(routes)
