"""Sturm census vs the closed-form zero-count laws."""

from fractions import Fraction

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from okladder import exact_ring, rootcount
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
from okladder.wronskian_rep import index_set_deleted, psi_poly, sigma_index, wronskian_mode
from okladder.exact_ring import wronskian


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
