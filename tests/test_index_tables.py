"""The tower and family tables against the closed forms they replaced, and
the errors every index check raises, in the order the checks run."""

from pathlib import Path

import pytest

import oracles
from okladder import painleve4
from okladder.errors import CertificateFailed, IndexOutOfCone
from okladder.okamoto import okamoto
from okladder.painleve4 import family_parameters, log_form, rational_solution
from okladder.rootcount import predicted_mode_count
from okladder.spectral import (
    auxiliary_potential_checks,
    energy,
    ladder,
    ladder_constant_sq,
    mode_degree,
    potential,
    superpotentials,
    zero_mode,
)
from okladder.ttrr import normalization_sq, ttrr_sequence
from okladder.wronskian_rep import sigma_index, wronskian_mode, xhermite_from_ttrr

_SRC = Path(__file__).resolve().parents[1] / "src" / "okladder"

_TOWER_INDICES = [(k, j, n) for k in range(9) for j in (1, 2, 3) for n in range(13)]
_MEMBERS = [(f, m, n) for f in (1, 2, 3) for m in range(7) for n in range(-1, 7)]


class TestTowers:
    @pytest.mark.parametrize("k,j,n", _TOWER_INDICES)
    def test_closed_forms(self, k, j, n):
        assert energy(k, j, n) == oracles.energy(k, j, n)
        assert mode_degree(k, j, n) == oracles.mode_degree(k, j, n)
        assert ladder_constant_sq(k, j, n) == oracles.ladder_constant_sq(k, j, n)
        assert sigma_index(k, j, n) == oracles.sigma_index(k, j, n)
        assert type(sigma_index(k, j, n)) is int
        assert predicted_mode_count(k, j, n) == oracles.predicted_mode_count(k, j, n)

    @pytest.mark.parametrize("branch", ["+", "-"])
    def test_zero_modes(self, branch):
        for k in range(9):
            for j in (1, 2, 3):
                index, e0 = oracles.zero_mode_index(k, j, branch)
                zm = zero_mode(k, j, branch)
                assert (zm.k, zm.j, zm.n) == (k, j, 0)
                assert zm.P == okamoto(*index)
                assert zm.energy == e0


class TestFamilies:
    @pytest.mark.parametrize("family,m,n", _MEMBERS)
    def test_closed_forms(self, family, m, n):
        assert family_parameters(family, m, n) == oracles.family_parameters(family, m, n)
        w = log_form(family, m, n)
        assert w.to_json_dict() == oracles.log_form(family, m, n).to_json_dict()
        s = rational_solution(family, m, n)
        assert (s.w, s.alpha, s.beta) == (w, *family_parameters(family, m, n))
        if not (family == 1 and n == -1) and not (family == 2 and m == 0):
            assert oracles.product_form(family, m, n) == w

    def test_the_certificate_is_skipped_exactly_off_the_cone(self):
        # A doubled numerator fails every check that runs.
        skipped = []
        for key in _MEMBERS:
            num = painleve4._log_parts(*key)[2]
            try:
                painleve4._check_product_form(key, num * 2)
            except CertificateFailed as exc:
                family, m, n = key
                assert str(exc) == (
                    f"product and logarithmic forms disagree for family {family}, ({m},{n})"
                )
            else:
                skipped.append(key)
        assert skipped == [(1, m, -1) for m in range(7)] + [(2, 0, n) for n in range(-1, 7)]


_J4 = "sequence index j must be 1, 2 or 3, got 4"
_K = "potential index k must be >= 0"
_N = "level index n must be >= 0"
_BRANCH = "branch must be '+' or '-'"
_FAMILY = "family must be 1, 2 or 3, got 4"
_CONE = "rational solutions are indexed by m >= 0, n >= -1"
_Q_CONE = "Q_(-1,0) is outside the supported cone m >= 0, n >= -1"


@pytest.mark.parametrize(
    "call,args,error,message",
    [
        (energy, (-1, 4, -1), ValueError, _J4),
        (mode_degree, (-1, 4, -1), ValueError, _J4),
        (zero_mode, (-1, 4, "x"), ValueError, _J4),
        (zero_mode, (-1, 2, "x"), ValueError, _BRANCH),
        (zero_mode, (-1, 1), IndexOutOfCone, _Q_CONE),
        (ladder_constant_sq, (-1, 4, -1), ValueError, _N),
        (ladder_constant_sq, (-1, 4, 0), ValueError, _J4),
        (sigma_index, (-1, 4, -1), IndexOutOfCone, _K),
        (sigma_index, (0, 4, -1), ValueError, _N),
        (sigma_index, (0, 4, 0), ValueError, _J4),
        (predicted_mode_count, (-1, 4, -1), ValueError, _N),
        (predicted_mode_count, (-1, 4, 0), IndexOutOfCone, _K),
        (predicted_mode_count, (0, 4, 0), ValueError, _J4),
        (normalization_sq, (-1, 4, -1), ValueError, _N),
        (normalization_sq, (-1, 4, 0), ValueError, _J4),
        (ttrr_sequence, (-1, 4, -1), ValueError, _N),
        (ttrr_sequence, (-1, 4, 0), IndexOutOfCone, _K),
        (ttrr_sequence, (0, 4, 0), ValueError, _J4),
        (wronskian_mode, (-1, 4, -1), IndexOutOfCone, _K),
        (wronskian_mode, (0, 4, -1), ValueError, _N),
        (wronskian_mode, (0, 4, 0), ValueError, _J4),
        (xhermite_from_ttrr, (-1, 4, -1), ValueError, _N),
        (xhermite_from_ttrr, (-1, 4, 0), IndexOutOfCone, _K),
        (xhermite_from_ttrr, (0, 4, 0), ValueError, _J4),
        (potential, (-1,), IndexOutOfCone, _K),
        (superpotentials, (-1, "x"), ValueError, _BRANCH),
        (auxiliary_potential_checks, (-1, "x"), ValueError, _BRANCH),
        (ladder, (-1, "sideways"), ValueError, "direction must be 'raise' or 'lower'"),
        (family_parameters, (4, -1, -2), ValueError, _FAMILY),
        (log_form, (4, -1, -2), ValueError, _FAMILY),
        (rational_solution, (4, -1, 0), IndexOutOfCone, _CONE),
        (rational_solution, (4, 0, -2), IndexOutOfCone, _CONE),
        (rational_solution, (4, 0, 0), ValueError, _FAMILY),
    ],
)
def test_index_errors(call, args, error, message):
    with pytest.raises(error) as info:
        call(*args)
    assert type(info.value) is error
    assert str(info.value) == message


@pytest.mark.parametrize(
    "message",
    [
        "sequence index j must be 1, 2 or 3",
        "potential index k must be >= 0",
        "family must be 1, 2 or 3",
    ],
)
def test_each_index_check_is_written_once(message):
    found = sum(path.read_text().count(message) for path in sorted(_SRC.glob("*.py")))
    assert found == 1
