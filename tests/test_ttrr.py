"""Three-term recurrence: first steps, iteration, reduced equation, norms."""

from fractions import Fraction

import pytest

from okladder import ttrr
from okladder.errors import IndexOutOfCone
from okladder.exact_ring import ExactPoly, RationalFn, log_derivative
from okladder.okamoto import okamoto
from okladder.painleve4 import log_form
from okladder.reference_data import MODE_TABLE
from okladder.spectral import energy, mode_degree
from okladder.ttrr import (
    RecurrenceState,
    normalization_sq,
    ode_residual,
    ttrr_next,
    ttrr_sequence,
)


class TestFirstStep:
    def test_oscillator_sequence_start(self):
        p = ttrr_next(RecurrenceState(0, 1), -1)
        assert p.proportionality(ExactPoly((0, -9, 0, 2))) is not None  # x(2x^2 - 9)

    def test_k1_j1(self):
        p = ttrr_next(RecurrenceState(1, 1), -1)
        c = p.proportionality(ExactPoly((0, 9, 0, 2)))  # x(2x^2 + 9)
        assert c is not None and c.sign() > 0

    def test_k1_j3(self):
        p = ttrr_next(RecurrenceState(1, 3), -1)
        table = ExactPoly((-1215, 0, 3240, 0, 360, 0, -288, 0, 16))
        c = p.proportionality(table)
        assert c is not None and c.sign() > 0


class TestIteration:
    def test_k1_j1_second_entry(self):
        seq = ttrr_sequence(1, 1, 2)
        c = seq[2].proportionality(ExactPoly((81, 0, -162, 0, -36, 0, 8)))
        assert c is not None and c.sign() > 0

    def test_k1_j2_second_entry(self):
        seq = ttrr_sequence(1, 2, 2)
        table = ExactPoly((25515, 0, -85050, 0, 0, 0, 10080, 0, -1200, 0, 32))
        c = seq[2].proportionality(table)
        assert c is not None and c.sign() > 0

    def test_k3_j1_second_entry(self):
        seq = ttrr_sequence(3, 1, 2)
        c = seq[2].proportionality(MODE_TABLE[(3, 1)][2])
        assert c is not None and c.sign() > 0

    def test_state_extension_and_explicit_next(self):
        state = RecurrenceState(1, 1)
        state.extend_to(1)
        p2 = ttrr_next(state, 0)
        assert p2.proportionality(ExactPoly((81, 0, -162, 0, -36, 0, 8))) is not None

    def test_next_requires_entries(self):
        state = RecurrenceState(1, 1)
        with pytest.raises(ValueError):
            ttrr_next(state, 3)

    def test_index_below_minus_one_rejected(self):
        state = RecurrenceState(1, 1)
        state.extend_to(3)
        with pytest.raises(ValueError, match=">= -1"):
            ttrr_next(state, -2)

    def test_negative_potential_index_rejected(self):
        with pytest.raises(IndexOutOfCone, match="^potential index k must be >= 0$"):
            ttrr_sequence(-1, 1, 0)
        assert (-1, 1) not in ttrr._STATES

    def test_degrees_follow_the_ladder(self):
        for k in (0, 1, 2):
            for j in (1, 2, 3):
                seq = ttrr_sequence(k, j, 5)
                for n, p in enumerate(seq):
                    assert p.degree == mode_degree(k, j, n)

    def test_parity_alternates(self):
        for k in (0, 1):
            for j in (1, 2, 3):
                seq = ttrr_sequence(k, j, 4)
                for n, p in enumerate(seq):
                    assert p.parity() == mode_degree(k, j, n) % 2


class TestCoefficientFunctions:
    def test_both_closed_forms_agree(self):
        # construction asserts the equality; a mismatch would raise here
        for k in range(4):
            RecurrenceState(k, 1)

    @pytest.mark.parametrize("k", range(6))
    def test_w_log_derivative_oracle(self, k):
        # omega_f / delta_f against the Painleve IV log forms at (k, 0) and
        # the construction before them: -2x/3 + (ln a/b)' on the
        # neighbouring Okamoto pairs (a, b), with delta_f = a b
        q_k, q_k1, q_k_1 = okamoto(k, 0), okamoto(k + 1, 0), okamoto(k, 1)
        x23 = RationalFn.from_poly(ExactPoly((0, Fraction(-2, 3))))
        pairs = [(q_k1, q_k), (q_k, q_k_1), (q_k_1, q_k1)]
        expected = [(x23 + log_derivative(a, b)).to_json_dict() for a, b in pairs]
        assert [log_form(f, k, 0).to_json_dict() for f in (1, 2, 3)] == expected
        for j in (1, 2, 3):
            state = RecurrenceState(k, j)
            got = [RationalFn(w, a * b) for w, (a, b) in zip(state.omegas, pairs)]
            assert [f.to_json_dict() for f in got] == expected

    def test_g_difference_is_energy_step(self):
        # gamma_n / Q^2 against g_n = (2/9) Q_{k+2} Q_k / Q_{k+1}^2 - E_n
        for k in range(4):
            q2 = okamoto(k + 1, 0) ** 2
            g_base = RationalFn(okamoto(k + 2, 0) * okamoto(k, 0) * Fraction(2, 9), q2)
            for j in (1, 2, 3):
                state = RecurrenceState(k, j)
                assert state.q2 == q2 and state.den == q2 * okamoto(k, 0) * okamoto(k, 1)
                for n in range(4):
                    g = g_base - RationalFn.constant(energy(k, j, n))
                    assert RationalFn(state.gamma(n), q2) == g
                assert state.gamma(0) - state.gamma(3) == q2 * 6


class TestReducedEquation:
    def test_table_entry_satisfies(self):
        assert ode_residual(1, 1, 1, ExactPoly((0, 9, 0, 2))).is_zero

    def test_constant_ground_case(self):
        assert ode_residual(0, 1, 0, ExactPoly.one()).is_zero

    def test_mutation_control(self):
        assert not ode_residual(1, 1, 1, ExactPoly((0, 8, 0, 2))).is_zero

    def test_all_generated_entries(self):
        for k in (0, 1):
            for j in (1, 2, 3):
                for n, p in enumerate(ttrr_sequence(k, j, 4)):
                    assert ode_residual(k, j, n, p).is_zero


class TestDownwardRelation:
    def test_unit_constant_on_recurrence_normalization(self):
        from okladder.ttrr import downward_residual

        for k in (0, 1):
            for j in (1, 2, 3):
                state = RecurrenceState(k, j)
                for n in (1, 2, 3):
                    assert downward_residual(state, n).is_zero, (k, j, n)

    def test_starts_at_one(self):
        from okladder.ttrr import downward_residual

        with pytest.raises(ValueError):
            downward_residual(RecurrenceState(0, 1), 0)


class TestNormalization:
    def test_single_factor(self):
        assert normalization_sq(0, 1, 1) == Fraction(16, 9)

    def test_empty_product(self):
        for k in (0, 2):
            for j in (1, 2, 3):
                assert normalization_sq(k, j, 0) == 1

    def test_two_factors(self):
        assert normalization_sq(0, 2, 2) == Fraction(64, 9) * Fraction(560, 9)

    @pytest.mark.parametrize("n", [-1, -3])
    def test_negative_level_rejected(self, n):
        with pytest.raises(ValueError, match="^level index n must be >= 0$"):
            normalization_sq(0, 1, n)

    @pytest.mark.parametrize("j,n", [(5, 0), (0, 0), (4, 2)])
    def test_invalid_sequence_rejected(self, j, n):
        with pytest.raises(ValueError, match=f"^sequence index j must be 1, 2 or 3, got {j}$"):
            normalization_sq(0, j, n)


class TestMemo:
    def test_extension_matches_fresh_state(self, monkeypatch):
        monkeypatch.setattr(ttrr, "_STATES", {})
        short = ttrr_sequence(1, 3, 1)
        extended = ttrr_sequence(1, 3, 4)
        fresh = RecurrenceState(1, 3)
        fresh.extend_to(4)
        assert extended == fresh.entries
        assert extended[:2] == short

    def test_returned_list_is_a_copy(self):
        expected = list(ttrr_sequence(1, 1, 2))
        seq = ttrr_sequence(1, 1, 2)
        seq[0] = ExactPoly.zero()
        seq.append(ExactPoly.one())
        assert ttrr_sequence(1, 1, 2) == expected
        assert len(ttrr_sequence(1, 1, 3)) == 4
