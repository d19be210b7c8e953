"""Wronskian routes: seeds, potentials, modes, exceptional bridge."""

import math
from fractions import Fraction

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from okladder.errors import (
    DuplicateIndex,
    ExcludedDegree,
    IndexOutOfCone,
    MalformedIndexList,
    SingularWronskian,
)
from okladder.exact_ring import ExactPoly, SqrtTwoScalar
from okladder.okamoto import okamoto
from okladder.spectral import hamiltonian_residual, potential, zero_mode
from okladder.ttrr import ttrr_sequence
from okladder.wronskian_rep import (
    exceptional_hermite,
    index_set_added,
    index_set_deleted,
    okamoto_via_wronskian,
    partition_nu_indices,
    plain_hermite,
    pseudo_psi_poly,
    psi_poly,
    sigma_index,
    sqrt3_rescale,
    susy_chain_potential,
    wronskian_identity_check,
    wronskian_mode,
    wronskian_potential,
    xhermite_from_ttrr,
)
from test_exact_ring import polys


def scaled_hermite(r: int) -> ExactPoly:
    """3^{r/2} H_r(x/sqrt3), an integer-coefficient oracle for psi_r * r!."""
    prev, cur = ExactPoly.one(), ExactPoly((0, 2))
    if r == 0:
        return prev
    for i in range(1, r):
        prev, cur = cur, ExactPoly((0, 2)) * cur - prev * (6 * i)
    return cur


class TestSeeds:
    def test_generating_function_values(self):
        assert psi_poly(2) == ExactPoly((-3, 0, 2))
        assert psi_poly(3) == ExactPoly((0, -6, 0, Fraction(4, 3)))
        assert pseudo_psi_poly(2) == ExactPoly((3, 0, 2)) == okamoto(2, 0)

    def test_derivative_ladder(self):
        for r in range(1, 31):
            assert psi_poly(r).derivative() == psi_poly(r - 1) * 2
            assert pseudo_psi_poly(r).derivative() == pseudo_psi_poly(r - 1) * 2

    def test_hermite_recurrence_oracle(self):
        # psi_r agrees with the rescaled-argument Hermite family up to the
        # exact factorial scale
        for r in range(16):
            assert psi_poly(r) * Fraction(math.factorial(r)) == scaled_hermite(r)

    def test_unknown_seed_kind_rejected(self):
        with pytest.raises(ValueError):
            wronskian_identity_check([], (1, 2), kind="other")
        with pytest.raises(ValueError):
            okamoto_via_wronskian(2, 0, "other")

    def test_plain_hermite(self):
        assert plain_hermite(0) == ExactPoly.one()
        assert plain_hermite(2) == ExactPoly((-2, 0, 4))
        assert plain_hermite(3) == ExactPoly((0, -12, 0, 8))


class TestOkamotoWronskian:
    def test_single_pseudo_entry(self):
        w = okamoto_via_wronskian(2, 0, "Psi")
        assert w == ExactPoly((3, 0, 2))

    def test_pseudo_entry_for_1_1(self):
        w = okamoto_via_wronskian(1, 1, "Psi")
        c = w.proportionality(okamoto(1, 1))
        assert c == SqrtTwoScalar(0, 1)  # 2x = sqrt2 * (sqrt2 x)

    def test_psi_form_for_conventional(self):
        w = okamoto_via_wronskian(3, 0, "psi")
        c = w.proportionality(okamoto(3, 0))
        assert c is not None and not c.is_zero

    def test_both_forms_small_grid(self):
        for m in range(5):
            for n in range(5):
                if m + n < 1:
                    continue
                if not (m == 0 and n > 1):
                    okamoto_via_wronskian(m, n, "psi")
                okamoto_via_wronskian(m, n, "Psi")

    def test_sixteen_by_sixteen_psi_form(self):
        # Q_{6,6} is the Wronskian of 16 psi seeds
        w = okamoto_via_wronskian(6, 6, "psi")
        c = w.proportionality(okamoto(6, 6))
        assert c is not None and not c.is_zero

    def test_psi_form_out_of_range(self):
        with pytest.raises(MalformedIndexList):
            okamoto_via_wronskian(0, 2, "psi")


class TestPotentials:
    def test_deleting_empty_set(self):
        v = wronskian_potential(0, "deleting")
        assert v == potential(0).potential_fn()

    def test_deleting_value_at_one(self):
        v = wronskian_potential(1, "deleting")
        assert v.eval(1) == SqrtTwoScalar(Fraction(178, 225), 0)

    def test_adding_equals_deleting(self):
        for k in range(4):
            assert wronskian_potential(k, "adding") == wronskian_potential(k, "deleting")

    def test_all_routes_equal_rational_form(self):
        for k in range(4):
            v = potential(k).potential_fn()
            assert wronskian_potential(k, "deleting") == v
            assert wronskian_potential(k, "adding") == v
            assert susy_chain_potential(index_set_deleted(k)) == v

    def test_susy_empty(self):
        assert susy_chain_potential([]) == potential(0).potential_fn()

    def test_susy_singular_single_odd_level(self):
        with pytest.raises(SingularWronskian):
            susy_chain_potential([1])

    @pytest.mark.parametrize("levels", [[2], [1, 3], [2, 4]])
    def test_susy_singular_chains(self, levels):
        with pytest.raises(SingularWronskian, match="real pole"):
            susy_chain_potential(levels)

    def test_susy_chain_builds_no_wronskian(self, monkeypatch):
        from okladder import exact_ring, wronskian_rep

        def refuse(entries):
            raise AssertionError("the chained route built a Wronskian")

        monkeypatch.setattr(wronskian_rep, "wronskian", refuse)
        monkeypatch.setattr(exact_ring, "wronskian", refuse)
        for k in range(4):
            assert susy_chain_potential(index_set_deleted(k)) == potential(k).potential_fn()
        # A nonsingular pair off the deleting sets, in either order.
        assert susy_chain_potential([4, 3]) == susy_chain_potential([3, 4])

    def test_susy_validates_levels(self):
        with pytest.raises(ValueError):
            susy_chain_potential([0, 1])
        with pytest.raises(ValueError):
            susy_chain_potential([2, 2])


class TestModes:
    def test_zero_modes_recovered(self):
        for k in range(4):
            for j in (1, 2, 3):
                wm = wronskian_mode(k, j, 0)
                c = wm.P.proportionality(zero_mode(k, j).P)
                assert c is not None and not c.is_zero, (k, j)

    def test_k1_j1_n2_table_entry(self):
        wm = wronskian_mode(1, 1, 2)
        c = wm.P.proportionality(ExactPoly((81, 0, -162, 0, -36, 0, 8)))
        assert c is not None and not c.is_zero

    def test_k0_sequence_is_seed_family(self):
        for n in range(5):
            wm = wronskian_mode(0, 1, n)
            c = wm.P.proportionality(psi_poly(3 * n))
            assert c is not None and not c.is_zero

    def test_modes_solve_eigen_equation(self):
        for j in (1, 2, 3):
            for n in range(3):
                assert hamiltonian_residual(wronskian_mode(2, j, n)).is_zero

    def test_proportional_to_recurrence(self):
        for k in range(3):
            for j in (1, 2, 3):
                seq = ttrr_sequence(k, j, 4)
                for n in range(5):
                    c = wronskian_mode(k, j, n).P.proportionality(seq[n])
                    assert c is not None and not c.is_zero

    def test_sigma_never_collides_with_base(self):
        # the guard in wronskian_mode is unreachable for valid (j, n)
        for k in range(5):
            base = set(index_set_deleted(k))
            for j in (1, 2, 3):
                for n in range(8):
                    assert sigma_index(k, j, n) not in base


class TestExceptionalHermite:
    def test_empty_partition(self):
        assert exceptional_hermite([], 2) == plain_hermite(2) == ExactPoly((-2, 0, 4))

    def test_nu_indices(self):
        assert partition_nu_indices([1]) == [1, 2]
        assert partition_nu_indices(list(range(1, 4))) == [1, 2, 4, 5, 7, 8]

    def test_single_block_partition(self):
        value = exceptional_hermite([1], 0)
        # Wr[H_1, H_2, H_0] is a nonzero constant
        assert value.degree == 0 and not value.is_zero

    def test_gap_set_guard(self):
        with pytest.raises(ExcludedDegree):
            exceptional_hermite([1], 2)

    def test_rescaled_recurrence_entry(self):
        # sigma_{1;1} = 3 for k = 1
        target = exceptional_hermite([1], 3)
        seq = ttrr_sequence(1, 1, 1)
        c = sqrt3_rescale(seq[1]).proportionality(target)
        assert c is not None and not c.is_zero

    @pytest.mark.parametrize("k,j", [(1, 1), (1, 2), (2, 3)])
    def test_bridge_examples(self, k, j):
        for n in range(3):
            xhermite_from_ttrr(k, j, n)

    def test_degrees_match(self):
        for k in (1, 2):
            for j in (1, 2, 3):
                for n in range(3):
                    p = ttrr_sequence(k, j, n)[n]
                    assert xhermite_from_ttrr(k, j, n).degree == p.degree

    def test_sigma_indices(self):
        assert sigma_index(1, 1, 1) == 3
        assert sigma_index(1, 2, 0) == 4
        assert sigma_index(2, 3, 0) == 8

    def test_negative_potential_index_rejected(self):
        for route in (sigma_index, wronskian_mode, xhermite_from_ttrr):
            with pytest.raises(IndexOutOfCone, match="potential index k must be >= 0"):
                route(-1, 1, 0)

    def test_negative_level_index_rejected(self):
        for route in (sigma_index, wronskian_mode, xhermite_from_ttrr):
            with pytest.raises(ValueError, match="^level index n must be >= 0$"):
                route(1, 1, -1)


class TestIndexSets:
    def test_deleted_set(self):
        assert index_set_deleted(0) == []
        assert index_set_deleted(3) == [1, 2, 4, 5, 7, 8]

    def test_added_set(self):
        assert index_set_added(3) == [2, 5, 8]

    def test_sqrt3_rescale_parity_guard(self):
        with pytest.raises(ValueError):
            sqrt3_rescale(ExactPoly((1, 1)))
        assert sqrt3_rescale(ExactPoly((0, -9, 0, 2))) == ExactPoly((0, -9, 0, 6))

    @given(polys(6), st.integers(0, 1), st.integers(0, 4))
    @settings(max_examples=150, deadline=None)
    def test_sqrt3_rescale_matches_the_scalar_route(self, p, parity, e):
        # q = x^parity p(x^2) / 3^e, rescaled from its integer array and, as
        # before, entry by entry over its scalars.
        spread = [c for ci in p.coeffs for c in (ci, 0)]
        q = ExactPoly([0] * parity + spread) * Fraction(1, 3**e)
        want = ExactPoly(
            tuple(c * Fraction(3 ** ((i - parity) // 2)) for i, c in enumerate(q.coeffs))
        )
        assert sqrt3_rescale(q)._int_arrays() == want._int_arrays()


class TestIdentity:
    @pytest.mark.parametrize(
        "base,extra",
        [([], (1, 2)), ([1], (2, 3)), ([1, 2], (4, 5)), ([2], (3, 7)), ([1, 2, 4], (5, 8))],
    )
    def test_identity_holds(self, base, extra):
        assert wronskian_identity_check(base, extra)
        assert wronskian_identity_check(base, extra, kind="Psi")

    def test_duplicate_extra_rejected(self):
        with pytest.raises(DuplicateIndex):
            wronskian_identity_check([1], (1, 2))
