"""Potential, superpotentials, zero-modes, ladder operators, spectrum."""

from fractions import Fraction

import pytest

from okladder.exact_ring import (
    ExactPoly,
    QuasiGaussian,
    RationalFn,
    SqrtTwoScalar,
    log_derivative,
)
from okladder.okamoto import okamoto
from okladder.spectral import (
    ModeFunction,
    auxiliary_potential_checks,
    energy,
    factorization_energies,
    hamiltonian_residual,
    ladder,
    ladder_constant_sq,
    mode_degree,
    potential,
    superpotentials,
    zero_mode,
)
from okladder.rootcount import sturm_count
from okladder.ttrr import ttrr_sequence


class TestPotential:
    def test_oscillator_limit(self):
        v = potential(0).potential_fn()
        assert v == RationalFn.from_poly(ExactPoly((Fraction(-1, 3), 0, Fraction(1, 9))))

    def test_values_from_table_substitution(self):
        v1 = potential(1).potential_fn()
        assert v1.eval(0) == SqrtTwoScalar(Fraction(-5, 3), 0)
        assert v1.eval(1) == SqrtTwoScalar(Fraction(178, 225), 0)

    def test_asymptotic_constant(self):
        for k in range(4):
            assert potential(k).asymptotic_constant() == Fraction(4 * k, 3) - Fraction(1, 3)

    def test_weight_denominator_is_nodeless(self):
        for k in range(4):
            assert sturm_count(okamoto(k + 1, 0)).n_total == 0

    def test_riccati_form(self):
        for k in range(3):
            w, _, _ = superpotentials(k)
            assert potential(k).potential_fn() == w * w + w.derivative()


class TestSuperpotentials:
    def test_k0_all_linear(self):
        w, w1, w2 = superpotentials(0)
        x3 = RationalFn.from_poly(ExactPoly((0, Fraction(1, 3))))
        assert w == -x3 and w1 == x3 and w2 == x3

    def test_k1_ground_superpotential(self):
        w, _, _ = superpotentials(1)
        expected = -(
            RationalFn.from_poly(ExactPoly((0, Fraction(1, 3))))
            + log_derivative(okamoto(2, 0))
        )
        assert w == expected

    def test_memoized_per_branch(self):
        for branch in ("+", "-"):
            assert superpotentials(2, branch) is superpotentials(2, branch)
        assert superpotentials(2, "+") != superpotentials(2, "-")
        with pytest.raises(ValueError, match="branch"):
            superpotentials(2, "x")

    def test_zero_mode_from_ground_factorization(self):
        # (-d^2/dx^2 + V) e^{int W} = 0 exactly, via the quasi-Gaussian form
        for k in range(3):
            ham = potential(k)
            ground = QuasiGaussian(RationalFn(okamoto(k, 0), okamoto(k + 1, 0)), -1)
            assert ham.apply(ground).is_zero

    def test_branch_formulas_reproduce_zero_modes(self):
        # (W - W2) e^{-int W2} is the j=2 zero-mode on either branch
        for k in range(3):
            for branch, jwant in (("+", 2), ("-", 3)):
                w, w1, w2 = superpotentials(k, branch)
                b = okamoto(k, 1) if branch == "+" else okamoto(k + 1, -1)
                exp_part = QuasiGaussian(RationalFn(b, okamoto(k, 0)), -1)
                built = QuasiGaussian((w - w2) * exp_part.rational, -1)
                target = zero_mode(k, jwant, branch="+").phi()
                c = built.proportionality(target)
                assert c is not None and not c.is_zero, (k, branch)

    def test_minus_branch_swaps_j23(self):
        for k in range(3):
            assert zero_mode(k, 2, "-").P == zero_mode(k, 3, "+").P
            assert zero_mode(k, 2, "-").energy == zero_mode(k, 3, "+").energy
            assert zero_mode(k, 3, "-").P == zero_mode(k, 2, "+").P


class TestEnergies:
    def test_factorization_energies(self):
        assert factorization_energies(0) == (Fraction(-4, 3), Fraction(-2, 3))
        assert factorization_energies(2) == (Fraction(8, 3), Fraction(10, 3))
        for k in range(6):
            e1, e2 = factorization_energies(k)
            assert e2 - e1 == Fraction(2, 3)

    def test_sequence_energies(self):
        assert energy(1, 1, 2) == 4
        assert energy(1, 2, 0) == Fraction(8, 3)
        assert energy(1, 3, 0) == Fraction(10, 3)

    def test_progressions_disjoint(self):
        for k in range(4):
            levels = [energy(k, j, n) for j in (1, 2, 3) for n in range(50)]
            assert len(set(levels)) == len(levels)

    def test_factorization_chain_identities(self):
        for k in range(3):
            for branch in ("+", "-"):
                assert auxiliary_potential_checks(k, branch) == [True] * 4

    def test_intertwining_relations(self):
        from okladder.spectral import intertwining_checks

        for k in range(3):
            assert intertwining_checks(k) == [True] * 6


class TestZeroModes:
    def test_unknown_branch_rejected(self):
        with pytest.raises(ValueError, match="branch must be '\\+' or '-'"):
            zero_mode(1, 2, branch="x")

    def test_k0_ground(self):
        zm = zero_mode(0, 1)
        assert zm.P == ExactPoly.one() and zm.energy == 0

    def test_k1_j3_table_entry(self):
        zm = zero_mode(1, 3)
        assert zm.P == okamoto(3, -1)
        assert zm.P == ExactPoly((0, SqrtTwoScalar(0, -45), 0, 0, 0, SqrtTwoScalar(0, 4)))
        assert zm.energy == Fraction(10, 3)

    def test_k1_j2_table_entry(self):
        zm = zero_mode(1, 2)
        assert zm.P == okamoto(2, 1) == ExactPoly((-9, 0, 12, 0, 4))
        assert zm.energy == Fraction(8, 3)

    def test_degrees(self):
        for k in range(4):
            for j in (1, 2, 3):
                assert zero_mode(k, j).P.degree == mode_degree(k, j, 0)


class TestLadder:
    def test_lower_annihilates_zero_modes(self):
        for k in range(4):
            down = ladder(k, "lower")
            for j in (1, 2, 3):
                assert down.apply(zero_mode(k, j).phi()).is_zero, (k, j)

    def test_raise_on_oscillator_ground(self):
        raised = ladder(0, "raise").apply(zero_mode(0, 1).phi())
        target = QuasiGaussian(RationalFn.from_poly(ExactPoly((0, -9, 0, 2))), -1)
        c = raised.proportionality(target)
        assert c is not None and not c.is_zero

    def test_adjoint_is_factor_reversal(self):
        up = ladder(1, "raise")
        down = ladder(1, "lower")
        assert up.adjoint().factors == down.factors
        assert down.adjoint().factors == up.factors

    @pytest.mark.parametrize(
        "k,j,n,expected",
        [
            (0, 1, 0, Fraction(16, 9)),
            (1, 1, 0, Fraction(16, 9)),
            (0, 2, 0, Fraction(64, 9)),
        ],
    )
    def test_ladder_constant_examples(self, k, j, n, expected):
        assert ladder_constant_sq(k, j, n) == expected

    def test_constants_match_spectral_polynomial(self):
        # C^2 = (E - eps1)(E - eps2)(E + 2) at E = E_{n;j}
        for k in range(3):
            e1, e2 = factorization_energies(k)
            for j in (1, 2, 3):
                for n in range(5):
                    e = energy(k, j, n)
                    assert ladder_constant_sq(k, j, n) == (e - e1) * (e - e2) * (e + 2)

    def test_raise_lower_composition_gives_squared_constant(self):
        for k in range(2):
            up, down = ladder(k, "raise"), ladder(k, "lower")
            for j in (1, 2, 3):
                seq = ttrr_sequence(k, j, 3)
                for n in range(3):
                    phi = ModeFunction(k, j, n, seq[n], energy(k, j, n)).phi()
                    c = down.apply(up.apply(phi)).proportionality(phi)
                    assert c == ladder_constant_sq(k, j, n)

    def test_shape_invariance(self):
        for k in range(2):
            up = ladder(k, "raise")
            ham = potential(k)
            for j in (1, 2, 3):
                seq = ttrr_sequence(k, j, 2)
                for n in range(3):
                    phi = ModeFunction(k, j, n, seq[n], energy(k, j, n)).phi()
                    lhs = up.apply(ham.apply(phi))
                    rhs = ham.apply(up.apply(phi)) - up.apply(phi) * 2
                    assert (lhs - rhs).is_zero


class TestHamiltonianResidual:
    def test_zero_modes_certified(self):
        assert hamiltonian_residual(zero_mode(2, 1)).is_zero
        assert hamiltonian_residual(zero_mode(3, 2)).is_zero

    def test_perturbed_energy_fails(self):
        zm = zero_mode(1, 1)
        bad = ModeFunction(zm.k, zm.j, zm.n, zm.P, Fraction(1, 7))
        assert not hamiltonian_residual(bad).is_zero

    def test_mode_degree_table(self):
        assert mode_degree(1, 1, 2) == 6
        assert mode_degree(1, 2, 0) == 4
        assert mode_degree(1, 3, 0) == 5
        assert mode_degree(2, 3, 1) == 13
