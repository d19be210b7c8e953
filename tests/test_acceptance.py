"""Acceptance criteria: one test per criterion, one printed line each.

Every bound and tolerance is pinned here; nothing is deferred to later
calibration.  Exact checks admit no tolerance at all.
"""

import time

import pytest

from okladder import numerics, painleve4, rootcount, spectral, ttrr, wronskian_rep
from okladder.okamoto import okamoto
from okladder.reference_data import (
    MODE_TABLE,
    OKAMOTO_COLUMN_0,
    OKAMOTO_COLUMN_MINUS_1,
    OKAMOTO_COLUMN_PLUS_1,
)


def report(number: int, description: str):
    """Print the per-criterion verdict line even when the assertion fails."""

    class _Reporter:
        def __enter__(self):
            self.t0 = time.monotonic()
            return self

        @property
        def elapsed(self) -> float:
            return time.monotonic() - self.t0

        def __exit__(self, exc_type, exc, tb):
            verdict = "PASS" if exc_type is None else "FAIL"
            print(f"ACCEPTANCE {number:2d} {verdict} ({self.elapsed:6.1f}s): {description}")
            return False

    return _Reporter()


def test_criterion_01_table_fidelity():
    with report(1, "polynomial tables reproduced exactly, k <= 5, under 10 s") as r:
        for k, expected in OKAMOTO_COLUMN_0.items():
            assert okamoto(k, 0) == expected, f"column 0, k={k}"
        for k, expected in OKAMOTO_COLUMN_PLUS_1.items():
            assert okamoto(k, 1) == expected, f"column +1, k={k}"
        for k, expected in OKAMOTO_COLUMN_MINUS_1.items():
            assert okamoto(k, -1) == expected, f"column -1, k={k}"
        assert r.elapsed < 10.0


def test_criterion_02_recurrence_table_fidelity():
    with report(2, "recurrence sequences match mode tables up to positive scalar, under 60 s") as r:
        for (k, j), rows in sorted(MODE_TABLE.items()):
            seq = ttrr.ttrr_sequence(k, j, 4)
            for n, expected in enumerate(rows):
                c = seq[n].proportionality(expected)
                assert c is not None and c.sign() > 0, f"(k={k}, j={j}, n={n})"
        assert r.elapsed < 60.0


def test_criterion_03_piv_residuals():
    with report(3, "rational solutions and all eight map images solve the equation exactly"):
        for family in (1, 2, 3):
            for m in range(5):
                for n in range(5):
                    sol = painleve4.rational_solution(family, m, n)
                    assert painleve4.piv_residual(sol).is_zero, (family, m, n)
        for m in range(4):
            for n in range(4):
                seed = painleve4.rational_solution(1, m, n)
                for map_name in painleve4.BACKLUND_MAPS:
                    image = painleve4.backlund(seed, map_name)
                    assert painleve4.piv_residual(image).is_zero, (m, n, map_name)


def test_criterion_04_bilinear_identities():
    with report(4, "six polynomial identities hold exactly for 1 <= m, n <= 3"):
        for m in range(1, 4):
            for n in range(1, 4):
                assert painleve4.bilinear_identities(m, n) == [True] * 6, (m, n)


def test_criterion_05_eigen_equation():
    with report(5, "every mode (k <= 3, n <= 5, both routes) solves the eigen-equation exactly"):
        for k in range(4):
            for j in (1, 2, 3):
                seq = ttrr.ttrr_sequence(k, j, 5)
                for n in range(6):
                    mode = spectral.ModeFunction(k, j, n, seq[n], spectral.energy(k, j, n))
                    assert spectral.hamiltonian_residual(mode).is_zero, ("ttrr", k, j, n)
                    wmode = wronskian_rep.wronskian_mode(k, j, n)
                    assert spectral.hamiltonian_residual(wmode).is_zero, ("wronskian", k, j, n)


def test_criterion_06_ladder_algebra():
    with report(6, "lowering kernel and exact squared raising constants, k <= 2, n <= 4"):
        for k in range(3):
            down = spectral.ladder(k, "lower")
            up = spectral.ladder(k, "raise")
            for j in (1, 2, 3):
                assert down.apply(spectral.zero_mode(k, j).phi()).is_zero, (k, j)
                seq = ttrr.ttrr_sequence(k, j, 5)
                for n in range(5):
                    phi_n = spectral.ModeFunction(k, j, n, seq[n], spectral.energy(k, j, n)).phi()
                    phi_next = spectral.ModeFunction(
                        k, j, n + 1, seq[n + 1], spectral.energy(k, j, n + 1)
                    ).phi()
                    raised = up.apply(phi_n)
                    c = raised.proportionality(phi_next)
                    assert c is not None and not c.is_zero, (k, j, n)
                    squared = down.apply(raised).proportionality(phi_n)
                    assert squared == spectral.ladder_constant_sq(k, j, n), (k, j, n)


def test_criterion_07_representation_equivalence():
    with report(7, "four potential routes equal and recurrence modes match Wronskian modes, k <= 3"):
        for k in range(4):
            v = spectral.potential(k).potential_fn()
            assert wronskian_rep.wronskian_potential(k, "deleting") == v, k
            assert wronskian_rep.wronskian_potential(k, "adding") == v, k
            assert wronskian_rep.susy_chain_potential(wronskian_rep.index_set_deleted(k)) == v, k
            for j in (1, 2, 3):
                seq = ttrr.ttrr_sequence(k, j, 6)
                for n in range(7):
                    c = wronskian_rep.wronskian_mode(k, j, n).P.proportionality(seq[n])
                    assert c is not None and not c.is_zero, (k, j, n)


def test_criterion_08_exceptional_hermite_bridge():
    with report(8, "rescaled recurrence entries match the exceptional family, k <= 2, n <= 4"):
        for k in range(3):
            for j in (1, 2, 3):
                for n in range(5):
                    wronskian_rep.xhermite_from_ttrr(k, j, n)  # asserts proportionality


def test_criterion_09_zero_counts():
    with report(9, "Sturm censuses match both count tables and the rank law, k <= 3"):
        for m in range(7):
            for n in range(7 - m):
                predicted = rootcount.predicted_okamoto_count(m, n)
                assert rootcount.sturm_count(okamoto(m, n)).n_total == predicted.n_total, (m, n)
        for k in range(4):
            sequences = {j: ttrr.ttrr_sequence(k, j, 11) for j in (1, 2, 3)}
            for j in (1, 2, 3):
                for n in range(6):
                    assert (
                        rootcount.sturm_count(sequences[j][n]).n_total
                        == rootcount.predicted_mode_count(k, j, n)
                    ), (k, j, n)
            states = sorted(
                (spectral.energy(k, j, n), j, n) for j in (1, 2, 3) for n in range(12)
            )[:12]
            for rank, (_, j, n) in enumerate(states):
                assert rootcount.sturm_count(sequences[j][n]).n_total == rank, (k, rank)


@pytest.fixture
def cold_spectra(monkeypatch):
    """An empty spectrum memo, so that the time bound covers the solves."""
    monkeypatch.setattr(numerics, "_SPECTRA", {})


def test_criterion_10_numeric_spectrum(cold_spectra):
    with report(10, "finite-difference spectrum within 1e-6 of the progressions, under 30 s") as r:
        for k in range(3):
            computed = numerics.fd_eigensolve(k, count=9)
            exact = numerics.spectrum_exact(k, 9)
            for got, want in zip(computed, exact):
                assert abs(got - float(want)) <= 1e-6, (k, want)
        oscillator = numerics.fd_eigensolve(0, count=6)
        for n, got in enumerate(oscillator):
            assert abs(got - 2 * n / 3) <= 1e-6, n
        assert r.elapsed < 30.0


def test_criterion_11_orthogonality():
    with report(11, "normalized cross inner products below 1e-8, k <= 2, n <= 3"):
        for k in range(3):
            modes = []
            for j in (1, 2, 3):
                seq = ttrr.ttrr_sequence(k, j, 3)
                modes.extend(
                    spectral.ModeFunction(k, j, n, seq[n], spectral.energy(k, j, n))
                    for n in range(4)
                )
            for i, a in enumerate(modes):
                for b in modes[i + 1 :]:
                    assert numerics.normalized_cross_inner(a, b) <= 1e-8, (
                        k,
                        (a.j, a.n),
                        (b.j, b.n),
                    )
