"""The one gcd kernel: `poly_gcd` and the cofactors `_cancel` builds every
reduction from, against a Euclid gcd over SqrtTwoScalar Fractions."""

from fractions import Fraction
from itertools import product

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from okladder import exact_ring, painleve4, ttrr
from okladder.exact_ring import SQRT2, ExactPoly, RationalFn, _cancel, poly_gcd
from okladder.spectral import ladder, potential, superpotentials
from okladder.verify import VerifySuiteConfig, run_verify
from test_exact_ring import divmod_oracle, line_factors, polys


def euclid_gcd(p: ExactPoly, q: ExactPoly) -> ExactPoly:
    """Monic gcd by Euclid's algorithm on the schoolbook division
    `divmod_oracle`, the oracle of `poly_gcd`."""
    a, b = p, q
    while not b.is_zero:
        a, b = b, divmod_oracle(a, b)[1]
    return a * a.leading.inverse() if not a.is_zero else a


def reduced_oracle(p: ExactPoly, q: ExactPoly) -> tuple[ExactPoly, ExactPoly]:
    """(p/g, q/g) with g = euclid_gcd(p, q), scaled to a monic denominator."""
    g = euclid_gcd(p, q)
    n, d = divmod_oracle(p, g)[0], divmod_oracle(q, g)[0]
    c = d.leading.inverse()
    return n * c, d * c


def same_as_oracle(p: ExactPoly, q: ExactPoly) -> None:
    assert poly_gcd(p, q) == euclid_gcd(p, q)
    if p.is_zero or q.is_zero:
        return
    n, d = reduced_oracle(p, q)
    f = RationalFn(p, q)
    assert (f.num, f.den) == (n, d)
    # The cofactors are (p/g, q/g) for one g: the oracle's pair up to one scalar.
    a, b = _cancel(p, q)
    c = a.proportionality(n)
    assert c is not None and not c.is_zero and b == d * c


big = st.integers(-(2**200), 2**200)
big_polys = st.builds(
    lambda cs, den, f: ExactPoly([Fraction(c, den) for c in cs]) * f,
    st.lists(st.one_of(st.just(0), big), min_size=1, max_size=7),
    st.integers(1, 2**120),
    line_factors,
)


class TestAgainstEuclid:
    @given(polys(6), polys(6))
    @settings(max_examples=150, deadline=None)
    def test_graded_operands(self, p, q):
        same_as_oracle(p, q)

    @given(polys(4), polys(4), polys(4))
    @settings(max_examples=150, deadline=None)
    def test_shared_factor(self, f, u, v):
        same_as_oracle(f * u, f * v)

    @given(big_polys, big_polys, big_polys)
    @settings(max_examples=60, deadline=None)
    def test_large_coefficients(self, f, u, v):
        same_as_oracle(f * u, f * v)
        same_as_oracle(u, v)

    @given(polys(3), polys(3), polys(3), st.integers(1, 4), st.integers(1, 4))
    @settings(max_examples=80, deadline=None)
    def test_repeated_shared_factors(self, f, u, v, i, j):
        same_as_oracle(f**i * u, f**j * v * f.derivative())

    @given(polys(5), polys(5), polys(3))
    @settings(max_examples=80, deadline=None)
    def test_remainder_sequence_fallback_gives_the_same_results(self, p, q, f):
        p, q = p * f, q * f
        expected = (poly_gcd(p, q), RationalFn(p, q) if q else None)
        with pytest.MonkeyPatch.context() as mp:
            mp.setattr(exact_ring, "_heu_gcd", lambda X, Y: None)
            got = (poly_gcd(p, q), RationalFn(p, q) if q else None)
        assert got == expected
        if got[1] is not None:
            assert got[1].to_json_dict() == expected[1].to_json_dict()


def evaluations(monkeypatch) -> list:
    """Records the k of every evaluation at xi = 2**k."""
    ks = []
    at = exact_ring._at_power_of_two
    monkeypatch.setattr(exact_ring, "_at_power_of_two", lambda X, k: ks.append(k) or at(X, k))
    return ks


def fallbacks(monkeypatch) -> list:
    """Records every call of the remainder-sequence fallback."""
    calls = []
    prs = exact_ring._prs_gcd
    monkeypatch.setattr(exact_ring, "_prs_gcd", lambda X, Y: calls.append((X, Y)) or prs(X, Y))
    return calls


class TestRetry:
    def test_coprime_pair_with_a_shared_value_factor(self, monkeypatch):
        # |x - 1| = 1 gives xi = 4, where the values 3 and 6 share 3 > xi/2:
        # the digits of 3 read back x - 1, which does not divide x + 2.  At
        # xi = 16 the values 15 and 18 share only 3 <= 8, which proves them
        # coprime.
        ks, prs = evaluations(monkeypatch), fallbacks(monkeypatch)
        p, q = ExactPoly((-1, 1)), ExactPoly((2, 1))
        assert poly_gcd(p, q) == ExactPoly.one()
        assert ks == [2, 2, 4, 4] and prs == []
        assert _cancel(p * SQRT2, q) == (p * SQRT2, q)

    def test_shared_factor_after_a_retry(self, monkeypatch):
        ks, prs = evaluations(monkeypatch), fallbacks(monkeypatch)
        g = ExactPoly((-3, 1))
        p, q = g * ExactPoly((-3, -3)), g * ExactPoly((-2, 1))
        assert poly_gcd(p, q) == g
        assert len(ks) == 4 and ks[2] == 2 * ks[0] and prs == []
        same_as_oracle(p, q)

    def test_fallback_after_the_last_try(self, monkeypatch):
        # Every trial division inside the heuristic is refused, so each try
        # fails, k doubles between tries, and the remainder sequence ends it.
        quo, heu = exact_ring._exact_quo, exact_ring._heu_gcd
        inside = []

        def refusing_heu(X, Y):
            inside.append(1)
            try:
                return heu(X, Y)
            finally:
                inside.pop()

        monkeypatch.setattr(exact_ring, "_heu_gcd", refusing_heu)
        monkeypatch.setattr(exact_ring, "_exact_quo", lambda X, H: None if inside else quo(X, H))
        ks, prs = evaluations(monkeypatch), fallbacks(monkeypatch)
        g = ExactPoly((-3, 1))
        p, q = g * ExactPoly((1, 0, 1)), g * ExactPoly((-2, 1)) * SQRT2
        assert poly_gcd(p, q) == g
        k = ks[0]
        assert ks == [k, k, 2 * k, 2 * k, 4 * k, 4 * k, 8 * k, 8 * k] and len(prs) == 1
        assert RationalFn(p, q) == RationalFn(ExactPoly((1, 0, 1)), ExactPoly((-2, 1)) * SQRT2)


def test_default_suites_never_fall_back(monkeypatch):
    """Every reduction of the backlund, ladder, orthogonality, piv and
    wronskian suites at k <= 5, n <= 8, which hold every check of the
    default bounds, and of the eight map images of the family 2 and 3
    members with m, n <= 3, which the backlund suite (family 1 seeds) does
    not reach, is settled by the heuristic: a silent fallback fails here.
    The memoized operators are cleared, so every application reduces
    afresh."""
    monkeypatch.setattr(painleve4, "_SOLUTIONS", {})
    monkeypatch.setattr(ttrr, "_STATES", {})
    superpotentials.cache_clear()
    potential.cache_clear()
    ladder.cache_clear()
    kernel = []
    heu = exact_ring._heu_gcd
    monkeypatch.setattr(exact_ring, "_heu_gcd", lambda X, Y: kernel.append(1) or heu(X, Y))
    prs = fallbacks(monkeypatch)
    results = run_verify(
        VerifySuiteConfig(
            k_max=5, n_max=8, which=("backlund", "ladder", "orthogonality", "piv", "wronskian")
        )
    )
    assert results and all(r.passed for r in results)
    for family, m, n, name in product((2, 3), range(4), range(4), painleve4.BACKLUND_MAPS):
        image = painleve4.backlund(painleve4.rational_solution(family, m, n), name)
        assert painleve4.piv_residual(image).is_zero
    assert len(kernel) > 1000, len(kernel)
    assert prs == []
