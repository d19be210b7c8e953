"""Rational solutions, residuals, parameter maps, and bilinear identities."""

import random
from fractions import Fraction

import pytest

from okladder import painleve4
from okladder.errors import CertificateFailed, IndexOutOfCone, SingularMap, ZeroDenominator
from okladder.exact_ring import ExactPoly, RationalFn, SqrtTwoScalar
from okladder.okamoto import okamoto
from okladder.painleve4 import (
    BACKLUND_MAPS,
    PIVSolution,
    backlund,
    bilinear_identities,
    family_parameters,
    match_hierarchy_parameters,
    piv_residual,
    rational_solution,
)
from oracles import product_form
from test_single_reduction import backlund_per_op


class TestRationalSolution:
    def test_family1_k1_seed(self):
        s = rational_solution(1, 1, 0)
        # -2x/3 + 4x/(2x^2+3)
        expected = RationalFn.from_poly(ExactPoly((0, Fraction(-2, 3)))) + RationalFn(
            ExactPoly((0, 4)), ExactPoly((3, 0, 2))
        )
        assert s.w == expected
        assert (s.alpha, s.beta) == (Fraction(2), Fraction(-2, 9))

    def test_family2_origin_is_linear_seed(self):
        s = rational_solution(2, 0, 0)
        assert s.w == RationalFn.from_poly(ExactPoly((0, Fraction(-2, 3))))
        assert (s.alpha, s.beta) == (Fraction(0), Fraction(-2, 9))

    def test_family3_product_form_matches(self):
        s = rational_solution(3, 1, 1)
        assert product_form(3, 1, 1) == s.w

    @pytest.mark.parametrize("family", [1, 2, 3])
    def test_log_and_product_forms_agree(self, family):
        for m in range(4):
            for n in range(4):
                if family == 2 and m == 0:
                    continue
                assert product_form(family, m, n) == rational_solution(family, m, n).w

    def test_out_of_cone(self):
        with pytest.raises(IndexOutOfCone):
            rational_solution(1, -1, 0)

    def test_each_member_is_built_and_checked_once(self, monkeypatch):
        monkeypatch.setattr(painleve4, "_SOLUTIONS", {})
        calls = []
        real = painleve4._check_product_form
        monkeypatch.setattr(
            painleve4, "_check_product_form", lambda key, *a: calls.append(key) or real(key, *a)
        )
        first = rational_solution(1, 2, 1)
        assert rational_solution(1, 2, 1) is first
        assert calls == [(1, 2, 1)]
        for _ in range(2):
            with pytest.raises(IndexOutOfCone):
                rational_solution(1, 2, -2)

    def test_a_failed_certificate_is_not_kept(self, monkeypatch):
        monkeypatch.setattr(painleve4, "_SOLUTIONS", {})
        real = painleve4._check_product_form
        # The certificate sees the log-form numerator doubled.
        monkeypatch.setattr(
            painleve4, "_check_product_form", lambda key, num: real(key, num * 2)
        )
        for _ in range(2):
            with pytest.raises(CertificateFailed):
                rational_solution(3, 1, 1)
        assert painleve4._SOLUTIONS == {}


class TestResidual:
    def test_seed_of_every_hierarchy(self):
        w = RationalFn.from_poly(ExactPoly((0, Fraction(-2, 3))))
        assert piv_residual(PIVSolution(w, Fraction(0), Fraction(-2, 9))).is_zero

    def test_family1_members_are_solutions(self):
        assert piv_residual(rational_solution(1, 1, 0)).is_zero

    def test_perturbed_parameter_fails(self):
        w = RationalFn.from_poly(ExactPoly((0, Fraction(-2, 3))))
        residual = piv_residual(PIVSolution(w, Fraction(1), Fraction(-2, 9)))
        assert not residual.is_zero
        # the alpha-perturbation contributes exactly -2*(delta alpha)*w... with
        # opposite sign in the residual: residual == 2w for delta alpha = 1
        assert residual == w * 2

    def test_zero_function_rejected(self):
        with pytest.raises(ZeroDenominator):
            piv_residual(PIVSolution(RationalFn.zero(), Fraction(0), Fraction(-2, 9)))


class TestBacklund:
    def test_w1_plus_parameter_map(self):
        s = rational_solution(1, 1, 1)
        image = backlund(s, "w1+")
        c = Fraction(4, 3)  # sqrt(-2 beta) for beta = -2(1 - 1/3)^2
        assert image.alpha == (2 - 2 * s.alpha + 3 * c) / 4
        assert image.beta == -Fraction(1, 2) * (1 + s.alpha + c / 2) ** 2

    def test_w2_minus_image_is_solution(self):
        s = rational_solution(2, 0, 0)
        image = backlund(s, "w2-")
        assert piv_residual(image).is_zero

    @pytest.mark.parametrize("map_name", BACKLUND_MAPS)
    def test_all_images_solve(self, map_name):
        for m in range(2):
            for n in range(2):
                image = backlund(rational_solution(1, m, n), map_name)
                assert piv_residual(image).is_zero

    def test_flipped_pairing_fails_residual(self):
        s = rational_solution(1, 1, 0)
        image = backlund_per_op(s, "w3+", denominator_sign=-1)
        assert not piv_residual(image).is_zero

    def test_irrational_radicand_rejected(self):
        w = RationalFn.from_poly(ExactPoly((0, Fraction(-2, 3))))
        with pytest.raises(SingularMap):
            backlund(PIVSolution(w, Fraction(0), Fraction(-1, 3)), "w1+")

    def test_hierarchy_closure(self):
        # every image of a family-1 seed lands on a family entry once the
        # n = -1 column of the index cone is included
        for m in range(3):
            for n in range(3):
                seed = rational_solution(1, m, n)
                for map_name in BACKLUND_MAPS:
                    image = backlund(seed, map_name)
                    matches = match_hierarchy_parameters(image.alpha, image.beta, 8)
                    assert matches, (m, n, map_name, image.alpha, image.beta)


class TestBilinearIdentities:
    @pytest.mark.parametrize("m,n", [(1, 1), (2, 1), (1, 2), (3, 3)])
    def test_identities_hold(self, m, n):
        assert bilinear_identities(m, n) == [True] * 6

    def test_mutation_control(self):
        # flipping the sign of the right side of the first identity must fail
        m = n = 1
        q = okamoto
        x = ExactPoly.x()
        root2 = ExactPoly.constant(SqrtTwoScalar(0, 1))
        lhs = x * q(m + 1, n) * q(m, n + 1) * (-2) + (
            q(m + 1, n) * q(m, n + 1).derivative() - q(m + 1, n).derivative() * q(m, n + 1)
        ) * 3
        assert lhs == -(root2 * q(m, n) * q(m + 1, n + 1))
        assert lhs != root2 * q(m, n) * q(m + 1, n + 1)

    def test_domain(self):
        with pytest.raises(IndexOutOfCone):
            bilinear_identities(0, 1)


def test_family_parameter_tables():
    assert family_parameters(1, 2, 1) == (Fraction(5), Fraction(-2) * Fraction(2, 3) ** 2)
    assert family_parameters(2, 1, 1) == (Fraction(-3), Fraction(-2) * Fraction(2, 3) ** 2)
    assert family_parameters(3, 1, 2) == (Fraction(1), Fraction(-2) * Fraction(10, 3) ** 2)


def scan_hierarchy_parameters(alpha, beta, bound):
    """Every (family, m, n) of the cone m in [0, bound], n in [-1, bound] whose
    parameter pair equals (alpha, beta), found by scanning the cone: the
    oracle of the closed-form inverse."""
    return [
        (family, m, n)
        for family in (1, 2, 3)
        for m in range(bound + 1)
        for n in range(-1, bound + 1)
        if family_parameters(family, m, n) == (alpha, beta)
    ]


class TestMatchHierarchyParameters:
    def test_backlund_images_match_the_scan(self):
        for m in range(5):
            for n in range(5):
                seed = rational_solution(1, m, n)
                for map_name in BACKLUND_MAPS:
                    image = backlund(seed, map_name)
                    scan = scan_hierarchy_parameters(image.alpha, image.beta, 12)
                    for bound in (2, 8, 12):
                        want = [(f, i, j) for f, i, j in scan if i <= bound and j <= bound]
                        assert match_hierarchy_parameters(image.alpha, image.beta, bound) == want, (
                            m, n, map_name, bound
                        )

    def test_random_pairs_match_the_scan(self):
        rng = random.Random(15)
        for _ in range(300):
            if rng.random() < 0.5:
                # a member's pair, which may lie outside the cone of the bound
                alpha, beta = family_parameters(
                    rng.randint(1, 3), rng.randint(0, 15), rng.randint(-1, 15)
                )
            else:
                alpha = Fraction(rng.randint(-30, 30), rng.choice((1, 1, 1, 2)))
                s = rng.randint(-15, 15) + rng.choice((Fraction(1, 3), Fraction(-1, 3), Fraction(1, 6)))
                beta = rng.choice((-2 * s * s, -s * s, 2 * s * s, s))
            bound = rng.randint(0, 12)
            assert match_hierarchy_parameters(alpha, beta, bound) == (
                scan_hierarchy_parameters(alpha, beta, bound)
            ), (alpha, beta, bound)

    def test_every_member_is_found(self):
        for family in (1, 2, 3):
            for m in range(7):
                for n in range(-1, 7):
                    alpha, beta = family_parameters(family, m, n)
                    assert (family, m, n) in match_hierarchy_parameters(alpha, beta, 6)
