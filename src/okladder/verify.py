"""Verification suites: every desk-scale claim as an executable check.

Each check is a module-level function of its indices returning pass/fail
plus a detail string. `_checks` lists them all as one table; the CLI runs
the selected rows in turn and renders an order-stable report whose exit
status is nonzero iff any check fails.
"""

from __future__ import annotations

from dataclasses import dataclass
from fractions import Fraction
from functools import partial
from itertools import product
from typing import Callable, Iterator

from . import numerics, painleve4, rootcount, spectral, ttrr, wronskian_rep
from .okamoto import okamoto
from .reference_data import (
    MODE_TABLE,
    OKAMOTO_COLUMN_0,
    OKAMOTO_COLUMN_MINUS_1,
    OKAMOTO_COLUMN_PLUS_1,
)

ALL_SUITES = (
    "tables",
    "piv",
    "backlund",
    "identities",
    "ladder",
    "ode",
    "wronskian",
    "zeros",
    "spectrum-numeric",
    "orthogonality",
)


@dataclass(frozen=True)
class VerifySuiteConfig:
    k_max: int = 3
    n_max: int = 5
    which: tuple[str, ...] = ALL_SUITES

    def __post_init__(self) -> None:
        if self.k_max < 0:
            raise ValueError("k_max must be >= 0")
        if self.n_max < 0:
            raise ValueError("n_max must be >= 0")
        unknown = set(self.which) - set(ALL_SUITES)
        if unknown:
            raise ValueError(f"unknown suites: {sorted(unknown)}")


@dataclass(frozen=True)
class CheckResult:
    suite: str
    name: str
    passed: bool
    detail: str
    certifies: str

    def to_json_dict(self) -> dict:
        return {
            "suite": self.suite,
            "check": self.name,
            "status": "pass" if self.passed else "fail",
            "detail": self.detail,
            "certifies": self.certifies,
        }


Outcome = tuple[bool, str]


# -- tables ------------------------------------------------------------------

def _column(column: dict, n_index: int, label: str) -> Outcome:
    for k, expected in column.items():
        if okamoto(k, n_index) != expected:
            return False, f"{label} k={k} differs from the reference value"
    return True, f"k <= {max(column)} exact"


def _mode_table(k: int, j: int) -> Outcome:
    rows = MODE_TABLE[(k, j)]
    seq = ttrr.ttrr_sequence(k, j, len(rows) - 1)
    for n, expected in enumerate(rows):
        c = seq[n].proportionality(expected)
        if c is None or c.sign() <= 0:
            return False, f"entry n={n} not a positive multiple of the reference"
    return True, f"n <= {len(rows) - 1} up to positive scalar"


# -- piv, backlund, identities -------------------------------------------------

def _residual(family: int, m: int, n: int) -> Outcome:
    sol = painleve4.rational_solution(family, m, n)
    if not painleve4.piv_residual(sol).is_zero:
        return False, "nonzero residual"
    return True, f"alpha={sol.alpha}, beta={sol.beta}"


def _image(m: int, n: int, map_name: str, match_bound: int) -> Outcome:
    seed = painleve4.rational_solution(1, m, n)
    image = painleve4.backlund(seed, map_name)
    if not painleve4.piv_residual(image).is_zero:
        return False, "image fails the residual test"
    detail = f"alpha={image.alpha}, beta={image.beta}"
    matches = painleve4.match_hierarchy_parameters(image.alpha, image.beta, match_bound)
    if matches:
        detail += f"; parameters match {matches[0]}"
    return True, detail


def _identities(m: int, n: int) -> Outcome:
    flags = painleve4.bilinear_identities(m, n)
    if all(flags):
        return True, "all six identities hold"
    return False, f"failed identities: {[i + 1 for i, v in enumerate(flags) if not v]}"


# -- ladder ----------------------------------------------------------------------

def _annihilation(k: int, j: int) -> Outcome:
    down = spectral.ladder(k, "lower")
    if down.apply(spectral.zero_mode(k, j).phi()).is_zero:
        return True, ""
    return False, "lowering operator does not annihilate the zero-mode"


def _raising(k: int, j: int, n_top: int) -> Outcome:
    up, down = spectral.ladder(k, "raise"), spectral.ladder(k, "lower")
    modes = ttrr.ttrr_modes(k, j, n_top + 1)
    for n in range(n_top + 1):
        phi_n = modes[n].phi()
        phi_n1 = modes[n + 1].phi()
        raised = up.apply(phi_n)
        c = raised.proportionality(phi_n1)
        if c is None or c.is_zero:
            return False, f"raise(mode n={n}) is not proportional to mode n={n + 1}"
        c2 = down.apply(raised).proportionality(phi_n)
        if c2 != spectral.ladder_constant_sq(k, j, n):
            return False, f"squared ladder ratio at n={n} is {c2}"
    return True, f"n <= {n_top} proportional with exact squared constants"


def _shape_invariance(k: int) -> Outcome:
    up = spectral.ladder(k, "raise")
    ham = spectral.potential(k)
    for j in (1, 2, 3):
        for mode in ttrr.ttrr_modes(k, j, 3):
            phi = mode.phi()
            lhs = up.apply(ham.apply(phi))
            rhs = ham.apply(up.apply(phi)) - up.apply(phi) * 2
            if not (lhs - rhs).is_zero:
                return False, f"commutator nonzero on mode (j={j}, n={mode.n})"
    return True, "raise intertwines H and H+2 on sampled modes"


def _branch_swap(k: int) -> Outcome:
    for j in (2, 3):
        plus = spectral.zero_mode(k, j, branch="+")
        minus = spectral.zero_mode(k, 5 - j, branch="-")
        if plus.P != minus.P or plus.energy != minus.energy:
            return False, f"branch swap mismatch at j={j}"
    return True, "minus-branch zero-modes equal plus-branch with j=2,3 swapped"


def _spectrum_disjoint(k: int) -> Outcome:
    seen: dict[Fraction, tuple[int, int]] = {}
    for j in (1, 2, 3):
        for n in range(50):
            e = spectral.energy(k, j, n)
            if e in seen:
                return False, f"energy {e} shared by {seen[e]} and {(j, n)}"
            seen[e] = (j, n)
    return True, "first 50 levels of the three progressions are disjoint"


def _factorization(k: int) -> Outcome:
    if all(spectral.auxiliary_potential_checks(k)):
        return True, ""
    return False, "factorization identity failed"


def _intertwining(k: int) -> Outcome:
    if all(spectral.intertwining_checks(k)):
        return True, ""
    return False, "intertwining relation failed"


# -- ode (eigen-equation) ---------------------------------------------------------

def _eigen(k: int, j: int, n_top: int, producer: str) -> Outcome:
    if producer == "ttrr":
        modes = ttrr.ttrr_modes(k, j, n_top)
    else:
        modes = [wronskian_rep.wronskian_mode(k, j, n) for n in range(n_top + 1)]
    for mode in modes:
        if not spectral.hamiltonian_residual(mode).is_zero:
            return False, f"nonzero Hamiltonian residual at n={mode.n}"
    return True, f"n <= {n_top} exact eigenfunctions"


def _mode_ode(k: int, j: int, n_top: int) -> Outcome:
    seq = ttrr.ttrr_sequence(k, j, n_top)
    for n, p in enumerate(seq):
        if not ttrr.ode_residual(k, j, n, p).is_zero:
            return False, f"nonzero second-order residual at n={n}"
    return True, f"n <= {n_top}"


# -- wronskian (representation equivalence + exceptional bridge) --------------------

def _potential_equivalence(k: int) -> Outcome:
    v = spectral.potential(k).potential_fn()
    if wronskian_rep.wronskian_potential(k, "deleting") != v:
        return False, "state-deleting form differs"
    if wronskian_rep.wronskian_potential(k, "adding") != v:
        return False, "state-adding form differs"
    if wronskian_rep.susy_chain_potential(wronskian_rep.index_set_deleted(k)) != v:
        return False, "chained factorization form differs"
    return True, "three Wronskian routes equal the rational form"


def _mode_equivalence(k: int, j: int, n_top: int) -> Outcome:
    seq = ttrr.ttrr_sequence(k, j, n_top)
    for n in range(n_top + 1):
        wm = wronskian_rep.wronskian_mode(k, j, n)
        c = wm.P.proportionality(seq[n])
        if c is None or c.is_zero:
            return False, f"representations differ at n={n}"
    return True, f"n <= {n_top} proportional"


def _okamoto_wronskian(form: str) -> Outcome:
    for m in range(5):
        for n in range(5):
            if m + n < 1 or (form == "psi" and m == 0 and n > 1):
                continue
            wronskian_rep.okamoto_via_wronskian(m, n, form)
    return True, "m, n <= 4 proportional to the recurrence table"


def _xhermite(k: int, j: int, n_top: int) -> Outcome:
    for n in range(n_top + 1):
        wronskian_rep.xhermite_from_ttrr(k, j, n)
    return True, f"n <= {n_top} proportional after rescaling"


def _jacobi() -> Outcome:
    cases = [([], (1, 2)), ([1], (2, 3)), ([1, 2], (4, 5)), ([1, 2, 4], (5, 7)), ([2], (1, 5))]
    for base, extra in cases:
        if not wronskian_rep.wronskian_identity_check(base, extra):
            return False, f"identity fails for base {base}, extra {extra}"
    return True, f"{len(cases)} instances"


def _seed_ladder() -> Outcome:
    for r in range(1, 31):
        if wronskian_rep.psi_poly(r).derivative() != wronskian_rep.psi_poly(r - 1) * 2:
            return False, f"derivative ladder fails at r={r}"
    return True, "r <= 30"


# -- zeros --------------------------------------------------------------------------

def _okamoto_zeros() -> Outcome:
    for m in range(7):
        for n in range(7 - m):
            predicted = rootcount.predicted_okamoto_count(m, n)
            counted = rootcount.sturm_count(okamoto(m, n))
            if counted.n_total != predicted.n_total or counted.n0 != predicted.n0:
                return False, f"mismatch at ({m},{n}): {counted} vs {predicted}"
            if counted.n_plus != counted.n_minus:
                return False, f"asymmetric census at ({m},{n})"
    return True, "m + n <= 6"


def _mode_zeros(k: int, j: int, n_top: int) -> Outcome:
    seq = ttrr.ttrr_sequence(k, j, n_top)
    for n, p in enumerate(seq):
        if rootcount.sturm_count(p).n_total != rootcount.predicted_mode_count(k, j, n):
            return False, f"mismatch at n={n}"
    return True, f"n <= {n_top}"


def _rank_law(k: int) -> Outcome:
    states = sorted(
        ((spectral.energy(k, j, n), j, n) for j in (1, 2, 3) for n in range(12)),
    )[:12]
    sequences = {
        j: ttrr.ttrr_sequence(k, j, max(n for _, jj, n in states if jj == j)) for j in (1, 2, 3)
    }
    for rank, (_, j, n) in enumerate(states):
        if rootcount.sturm_count(sequences[j][n]).n_total != rank:
            return False, f"state of rank {rank} (j={j}, n={n}) breaks the oscillation law"
    return True, "first 12 states ordered by energy have counts 0..11"


def _wronskian_counts(k: int, n_top: int) -> Outcome:
    base = wronskian_rep.index_set_deleted(k)
    for j in (1, 2, 3):
        for n in range(n_top + 1):
            xi = sorted(base + [wronskian_rep.sigma_index(k, j, n)])
            predicted = rootcount.predicted_wronskian_count(xi)
            counted = rootcount.sturm_count(wronskian_rep.wronskian_mode(k, j, n).P)
            if (predicted.n0, predicted.n_plus, predicted.n_minus) != (
                counted.n0,
                counted.n_plus,
                counted.n_minus,
            ):
                return False, f"closed form fails on index family {xi}"
    return True, "closed-form census matches the Sturm oracle"


# -- numeric suites -------------------------------------------------------------------

def _fd_spectrum(k: int) -> Outcome:
    tol = numerics.EIGENVALUE_TOL
    computed = numerics.fd_eigensolve(k, count=9)
    exact = [float(e) for e in numerics.spectrum_exact(k, 9)]
    worst = max(abs(a - b) for a, b in zip(computed, exact))
    if worst > tol:
        return False, f"max |dE| = {worst:.3e} > {tol:.1e}"
    return True, f"max |dE| = {worst:.3e} over the lowest 9 levels"


def _oscillator() -> Outcome:
    tol = numerics.EIGENVALUE_TOL
    computed = numerics.fd_eigensolve(0, count=6)
    ladder = [2 * n / 3 for n in range(6)]
    worst = max(abs(a - b) for a, b in zip(computed, ladder))
    if worst > tol:
        return False, f"oscillator ladder off by {worst:.3e}"
    return True, f"levels 2n/3 reproduced to {worst:.3e}"


def _worst_cross_inner(modes: list[spectral.ModeFunction]) -> float:
    """The largest numerics.normalized_cross_inner over distinct pairs of
    modes of one Hamiltonian, bit for bit: each mode is sampled once on the
    panels, and the sums are those of quadrature_inner."""
    import numpy as np

    xs, ws = numerics._gauss_panels()
    samples = [numerics.eval_array(mode.phi(), xs) for mode in modes]
    norms = [float(np.sum(ws * v * v)) for v in samples]
    worst = 0.0
    for i, a in enumerate(samples):
        for j in range(i + 1, len(samples)):
            cross = float(np.sum(ws * a * samples[j]))
            worst = max(worst, abs(cross) / float(np.sqrt(norms[i] * norms[j])))
    return worst


def _orthogonality(k: int, n_top: int) -> Outcome:
    tol = numerics.ORTHOGONALITY_TOL
    modes = []
    for j in (1, 2, 3):
        modes.extend(ttrr.ttrr_modes(k, j, n_top))
    worst = _worst_cross_inner(modes)
    if worst > tol:
        return False, f"worst normalized cross product {worst:.3e} > {tol:.1e}"
    return True, f"worst normalized cross product {worst:.3e} over {len(modes)} states"


def _norm_ratio(k: int) -> Outcome:
    import numpy as np

    up = spectral.ladder(k, "raise")
    xs, ws = numerics._gauss_panels()
    for j in (1, 2, 3):
        for mode in ttrr.ttrr_modes(k, j, 2):
            raised_vals = numerics.eval_array(up.apply(mode.phi()), xs)
            mode_vals = numerics.eval_array(mode.phi(), xs)
            ratio = float(np.sum(ws * raised_vals**2) / np.sum(ws * mode_vals**2))
            expected = float(spectral.ladder_constant_sq(k, j, mode.n))
            if abs(ratio - expected) > 1e-6 * max(1.0, abs(expected)):
                return False, (
                    f"norm ratio {ratio:.9g} differs from {expected:.9g} at (j={j}, n={mode.n})"
                )
    return True, "norm ratios match the squared ladder constants to 1e-6"


# -- the check table ------------------------------------------------------------------

Row = tuple[str, str, str, Callable[[], Outcome]]


def _checks(config: VerifySuiteConfig) -> Iterator[Row]:
    """Every check of every suite as a (suite, name, certifies, thunk) row.

    Index ranges follow `config.k_max` and `config.n_max` except where a cap
    is written below: each bound that does not follow them lives here and
    nowhere else (the README lists them). The tables suite is fixed by
    `reference_data`.
    """
    k_max, n_max = config.k_max, config.n_max
    yield ("tables", "okamoto-column-0", "conventional polynomial table",
           partial(_column, OKAMOTO_COLUMN_0, 0, "Q_k"))
    yield ("tables", "okamoto-column-plus1", "second-index +1 table",
           partial(_column, OKAMOTO_COLUMN_PLUS_1, 1, "Q_{k,1}"))
    yield ("tables", "okamoto-column-minus1", "second-index -1 table",
           partial(_column, OKAMOTO_COLUMN_MINUS_1, -1, "Q_{k,-1}"))
    for k, j in sorted(MODE_TABLE):
        yield ("tables", f"mode-table-k{k}-j{j}", "higher-mode recurrence vs reference table",
               partial(_mode_table, k, j))

    for family, m, n in product((1, 2, 3), range(k_max + 1), range(k_max + 1)):
        yield ("piv", f"residual-f{family}-m{m}-n{n}",
               "rational solution satisfies the equation exactly", partial(_residual, family, m, n))

    top = min(k_max, 3)
    for m, n, map_name in product(range(top + 1), range(top + 1), painleve4.BACKLUND_MAPS):
        yield ("backlund", f"image-m{m}-n{n}-{map_name}",
               "map image solves the equation with the mapped parameters",
               partial(_image, m, n, map_name, top + 3))

    top = max(1, min(k_max, 3))
    for m, n in product(range(1, top + 1), range(1, top + 1)):
        yield ("identities", f"identities-m{m}-n{n}", "six bilinear polynomial identities",
               partial(_identities, m, n))

    for k in range(min(k_max, 2) + 1):
        for j in (1, 2, 3):
            yield ("ladder", f"annihilation-k{k}-j{j}", "lowering operator kernel",
                   partial(_annihilation, k, j))
            yield ("ladder", f"raising-k{k}-j{j}", "raising proportionality and squared constants",
                   partial(_raising, k, j, min(n_max, 4)))
        yield ("ladder", f"shape-invariance-k{k}", "third-order shape invariance",
               partial(_shape_invariance, k))
        yield ("ladder", f"branch-swap-k{k}", "superpotential branch swap of j=2,3",
               partial(_branch_swap, k))
        yield ("ladder", f"spectrum-disjoint-k{k}", "three disjoint energy progressions",
               partial(_spectrum_disjoint, k))
        yield ("ladder", f"factorization-identities-k{k}",
               "first-order factorization chain identities", partial(_factorization, k))
        yield ("ladder", f"intertwining-k{k}", "operator chain intertwines the three Hamiltonians",
               partial(_intertwining, k))

    for k, j in product(range(min(k_max, 3) + 1), (1, 2, 3)):
        yield ("ode", f"eigen-ttrr-k{k}-j{j}", "recurrence modes solve the eigenvalue equation",
               partial(_eigen, k, j, n_max, "ttrr"))
        yield ("ode", f"eigen-wronskian-k{k}-j{j}", "Wronskian modes solve the eigenvalue equation",
               partial(_eigen, k, j, n_max, "wronskian"))
        yield ("ode", f"mode-ode-k{k}-j{j}", "polynomial parts solve the reduced equation",
               partial(_mode_ode, k, j, n_max))

    for k in range(min(k_max, 3) + 1):
        yield ("wronskian", f"potential-equivalence-k{k}", "four potential constructions coincide",
               partial(_potential_equivalence, k))
        for j in (1, 2, 3):
            yield ("wronskian", f"mode-equivalence-k{k}-j{j}",
                   "recurrence and Wronskian modes are proportional",
                   partial(_mode_equivalence, k, j, max(n_max, 6)))
    for form in ("psi", "Psi"):
        yield ("wronskian", f"okamoto-wronskian-{form}",
               "Wronskian representation of the polynomial table",
               partial(_okamoto_wronskian, form))
    for k, j in product(range(min(k_max, 2) + 1), (1, 2, 3)):
        yield ("wronskian", f"xhermite-k{k}-j{j}", "three-term route to the exceptional family",
               partial(_xhermite, k, j, min(n_max, 4)))
    yield "wronskian", "jacobi-identity", "bilinear Wronskian identity", _jacobi
    yield "wronskian", "seed-derivative-ladder", "generating-function seed ladder", _seed_ladder

    yield "zeros", "okamoto-zero-counts", "polynomial table zero census", _okamoto_zeros
    for k in range(min(k_max, 3) + 1):
        for j in (1, 2, 3):
            yield ("zeros", f"mode-zero-counts-k{k}-j{j}", "mode zero census",
                   partial(_mode_zeros, k, j, min(n_max, 5)))
        yield "zeros", f"rank-law-k{k}", "oscillation-theorem rank law", partial(_rank_law, k)
        yield ("zeros", f"wronskian-counts-k{k}", "Hermite-Wronskian zero-count formula",
               partial(_wronskian_counts, k, min(n_max, 3)))

    for k in range(min(k_max, 2) + 1):
        yield ("spectrum-numeric", f"fd-spectrum-k{k}",
               "finite-difference spectrum matches the three progressions",
               partial(_fd_spectrum, k))
    yield ("spectrum-numeric", "oscillator-limit", "k=0 reduces to the rescaled oscillator ladder",
           _oscillator)

    for k in range(min(k_max, 2) + 1):
        yield ("orthogonality", f"orthogonality-k{k}", "distinct states are numerically orthogonal",
               partial(_orthogonality, k, min(n_max, 3)))
        yield ("orthogonality", f"norm-ratio-k{k}", "numerical mirror of the ladder constants",
               partial(_norm_ratio, k))


def _execute(suite: str, name: str, certifies: str, thunk: Callable[[], Outcome]) -> CheckResult:
    try:
        passed, detail = thunk()
    except Exception as exc:  # a crash is a failing check, not a fault
        passed, detail = False, f"{type(exc).__name__}: {exc}"
    return CheckResult(suite=suite, name=name, passed=passed, detail=detail, certifies=certifies)


def run_verify(config: VerifySuiteConfig) -> list[CheckResult]:
    """Run the checks of the selected suites, each once, in a stable order."""
    results = [_execute(*row) for row in _checks(config) if row[0] in config.which]
    return sorted(results, key=lambda r: (r.suite, r.name))
