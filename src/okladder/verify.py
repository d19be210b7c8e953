"""Verification suites: every desk-scale claim as an executable check.

Each suite yields independent named checks returning pass/fail plus a
detail string; the CLI runs them in turn and renders an order-stable
report whose exit status is nonzero iff any check fails.
"""

from __future__ import annotations

from dataclasses import dataclass
from fractions import Fraction
from typing import Callable

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


Check = tuple[str, str, Callable[[], tuple[bool, str]]]


def _ok(detail: str = "") -> tuple[bool, str]:
    return True, detail


def _fail(detail: str) -> tuple[bool, str]:
    return False, detail


# -- tables ------------------------------------------------------------------

def _tables_checks(config: VerifySuiteConfig) -> list[Check]:
    def column_check(column: dict, n_index: int, label: str) -> Callable[[], tuple[bool, str]]:
        def run() -> tuple[bool, str]:
            for k, expected in column.items():
                if okamoto(k, n_index) != expected:
                    return _fail(f"{label} k={k} differs from the reference value")
            return _ok(f"k <= {max(column)} exact")

        return run

    def mode_check(k: int, j: int) -> Callable[[], tuple[bool, str]]:
        def run() -> tuple[bool, str]:
            rows = MODE_TABLE[(k, j)]
            seq = ttrr.ttrr_sequence(k, j, len(rows) - 1)
            for n, expected in enumerate(rows):
                c = seq[n].proportionality(expected)
                if c is None or c.sign() <= 0:
                    return _fail(f"entry n={n} not a positive multiple of the reference")
            return _ok(f"n <= {len(rows) - 1} up to positive scalar")

        return run

    checks: list[Check] = [
        ("okamoto-column-0", "conventional polynomial table", column_check(OKAMOTO_COLUMN_0, 0, "Q_k")),
        ("okamoto-column-plus1", "second-index +1 table", column_check(OKAMOTO_COLUMN_PLUS_1, 1, "Q_{k,1}")),
        ("okamoto-column-minus1", "second-index -1 table", column_check(OKAMOTO_COLUMN_MINUS_1, -1, "Q_{k,-1}")),
    ]
    for (k, j) in sorted(MODE_TABLE):
        checks.append(
            (
                f"mode-table-k{k}-j{j}",
                "higher-mode recurrence vs reference table",
                mode_check(k, j),
            )
        )
    return checks


# -- piv -----------------------------------------------------------------------

def _piv_checks(config: VerifySuiteConfig) -> list[Check]:
    bound = config.k_max

    def residual_check(family: int, m: int, n: int) -> Callable[[], tuple[bool, str]]:
        def run() -> tuple[bool, str]:
            sol = painleve4.rational_solution(family, m, n)
            if not painleve4.piv_residual(sol).is_zero:
                return _fail("nonzero residual")
            return _ok(f"alpha={sol.alpha}, beta={sol.beta}")

        return run

    return [
        (
            f"residual-f{family}-m{m}-n{n}",
            "rational solution satisfies the equation exactly",
            residual_check(family, m, n),
        )
        for family in (1, 2, 3)
        for m in range(bound + 1)
        for n in range(bound + 1)
    ]


def _backlund_checks(config: VerifySuiteConfig) -> list[Check]:
    bound = min(config.k_max, 3)

    def image_check(m: int, n: int, map_name: str) -> Callable[[], tuple[bool, str]]:
        def run() -> tuple[bool, str]:
            seed = painleve4.rational_solution(1, m, n)
            image = painleve4.backlund(seed, map_name)
            if not painleve4.piv_residual(image).is_zero:
                return _fail("image fails the residual test")
            detail = f"alpha={image.alpha}, beta={image.beta}"
            matches = painleve4.match_hierarchy_parameters(image.alpha, image.beta, bound + 3)
            if matches:
                detail += f"; parameters match {matches[0]}"
            return _ok(detail)

        return run

    return [
        (
            f"image-m{m}-n{n}-{map_name}",
            "map image solves the equation with the mapped parameters",
            image_check(m, n, map_name),
        )
        for m in range(bound + 1)
        for n in range(bound + 1)
        for map_name in painleve4.BACKLUND_MAPS
    ]


def _identities_checks(config: VerifySuiteConfig) -> list[Check]:
    bound = min(config.k_max, 3) or 1

    def identity_check(m: int, n: int) -> Callable[[], tuple[bool, str]]:
        def run() -> tuple[bool, str]:
            flags = painleve4.bilinear_identities(m, n)
            if all(flags):
                return _ok("all six identities hold")
            return _fail(f"failed identities: {[i + 1 for i, v in enumerate(flags) if not v]}")

        return run

    return [
        (f"identities-m{m}-n{n}", "six bilinear polynomial identities", identity_check(m, n))
        for m in range(1, bound + 1)
        for n in range(1, bound + 1)
    ]


# -- ladder ----------------------------------------------------------------------

def _ladder_checks(config: VerifySuiteConfig) -> list[Check]:
    k_bound = min(config.k_max, 2)
    n_bound = min(config.n_max, 4)
    checks: list[Check] = []

    def annihilation_check(k: int, j: int) -> Callable[[], tuple[bool, str]]:
        def run() -> tuple[bool, str]:
            down = spectral.ladder(k, "lower")
            if down.apply(spectral.zero_mode(k, j).phi()).is_zero:
                return _ok()
            return _fail("lowering operator does not annihilate the zero-mode")

        return run

    def raising_check(k: int, j: int) -> Callable[[], tuple[bool, str]]:
        def run() -> tuple[bool, str]:
            up, down = spectral.ladder(k, "raise"), spectral.ladder(k, "lower")
            modes = ttrr.ttrr_modes(k, j, n_bound + 1)
            for n in range(n_bound + 1):
                phi_n = modes[n].phi()
                phi_n1 = modes[n + 1].phi()
                raised = up.apply(phi_n)
                c = raised.proportionality(phi_n1)
                if c is None or c.is_zero:
                    return _fail(f"raise(mode n={n}) is not proportional to mode n={n + 1}")
                c2 = down.apply(raised).proportionality(phi_n)
                if c2 != spectral.ladder_constant_sq(k, j, n):
                    return _fail(f"squared ladder ratio at n={n} is {c2}")
            return _ok(f"n <= {n_bound} proportional with exact squared constants")

        return run

    def shape_invariance_check(k: int) -> Callable[[], tuple[bool, str]]:
        def run() -> tuple[bool, str]:
            up = spectral.ladder(k, "raise")
            ham = spectral.potential(k)
            for j in (1, 2, 3):
                for mode in ttrr.ttrr_modes(k, j, 3):
                    phi = mode.phi()
                    lhs = up.apply(ham.apply(phi))
                    rhs = ham.apply(up.apply(phi)) - up.apply(phi) * 2
                    if not (lhs - rhs).is_zero:
                        return _fail(f"commutator nonzero on mode (j={j}, n={mode.n})")
            return _ok("raise intertwines H and H+2 on sampled modes")

        return run

    def swap_check(k: int) -> Callable[[], tuple[bool, str]]:
        def run() -> tuple[bool, str]:
            for j in (2, 3):
                plus = spectral.zero_mode(k, j, branch="+")
                minus = spectral.zero_mode(k, 5 - j, branch="-")
                if plus.P != minus.P or plus.energy != minus.energy:
                    return _fail(f"branch swap mismatch at j={j}")
            return _ok("minus-branch zero-modes equal plus-branch with j=2,3 swapped")

        return run

    def spectrum_disjoint_check(k: int) -> Callable[[], tuple[bool, str]]:
        def run() -> tuple[bool, str]:
            seen: dict[Fraction, tuple[int, int]] = {}
            for j in (1, 2, 3):
                for n in range(50):
                    e = spectral.energy(k, j, n)
                    if e in seen:
                        return _fail(f"energy {e} shared by {seen[e]} and {(j, n)}")
                    seen[e] = (j, n)
            return _ok("first 50 levels of the three progressions are disjoint")

        return run

    for k in range(k_bound + 1):
        for j in (1, 2, 3):
            checks.append((f"annihilation-k{k}-j{j}", "lowering operator kernel", annihilation_check(k, j)))
            checks.append((f"raising-k{k}-j{j}", "raising proportionality and squared constants", raising_check(k, j)))
        checks.append((f"shape-invariance-k{k}", "third-order shape invariance", shape_invariance_check(k)))
        checks.append((f"branch-swap-k{k}", "superpotential branch swap of j=2,3", swap_check(k)))
        checks.append((f"spectrum-disjoint-k{k}", "three disjoint energy progressions", spectrum_disjoint_check(k)))
        checks.append(
            (
                f"factorization-identities-k{k}",
                "first-order factorization chain identities",
                (lambda kk: lambda: (_ok() if all(spectral.auxiliary_potential_checks(kk)) else _fail("factorization identity failed")))(k),
            )
        )
        checks.append(
            (
                f"intertwining-k{k}",
                "operator chain intertwines the three Hamiltonians",
                (lambda kk: lambda: (_ok() if all(spectral.intertwining_checks(kk)) else _fail("intertwining relation failed")))(k),
            )
        )
    return checks


# -- ode (eigen-equation) ---------------------------------------------------------

def _ode_checks(config: VerifySuiteConfig) -> list[Check]:
    k_bound = min(config.k_max, 3)
    n_bound = config.n_max
    checks: list[Check] = []

    def eigen_check(k: int, j: int, producer: str) -> Callable[[], tuple[bool, str]]:
        def run() -> tuple[bool, str]:
            if producer == "ttrr":
                modes = ttrr.ttrr_modes(k, j, n_bound)
            else:
                modes = [wronskian_rep.wronskian_mode(k, j, n) for n in range(n_bound + 1)]
            for mode in modes:
                if not spectral.hamiltonian_residual(mode).is_zero:
                    return _fail(f"nonzero Hamiltonian residual at n={mode.n}")
            return _ok(f"n <= {n_bound} exact eigenfunctions")

        return run

    def ode_check(k: int, j: int) -> Callable[[], tuple[bool, str]]:
        def run() -> tuple[bool, str]:
            seq = ttrr.ttrr_sequence(k, j, n_bound)
            for n, p in enumerate(seq):
                if not ttrr.ode_residual(k, j, n, p).is_zero:
                    return _fail(f"nonzero second-order residual at n={n}")
            return _ok(f"n <= {n_bound}")

        return run

    for k in range(k_bound + 1):
        for j in (1, 2, 3):
            checks.append(
                (f"eigen-ttrr-k{k}-j{j}", "recurrence modes solve the eigenvalue equation", eigen_check(k, j, "ttrr"))
            )
            checks.append(
                (
                    f"eigen-wronskian-k{k}-j{j}",
                    "Wronskian modes solve the eigenvalue equation",
                    eigen_check(k, j, "wronskian"),
                )
            )
            checks.append(
                (f"mode-ode-k{k}-j{j}", "polynomial parts solve the reduced equation", ode_check(k, j))
            )
    return checks


# -- wronskian (representation equivalence + exceptional bridge) --------------------

def _wronskian_checks(config: VerifySuiteConfig) -> list[Check]:
    k_bound = min(config.k_max, 3)
    checks: list[Check] = []

    def potential_check(k: int) -> Callable[[], tuple[bool, str]]:
        def run() -> tuple[bool, str]:
            v = spectral.potential(k).potential_fn()
            if wronskian_rep.wronskian_potential(k, "deleting") != v:
                return _fail("state-deleting form differs")
            if wronskian_rep.wronskian_potential(k, "adding") != v:
                return _fail("state-adding form differs")
            if wronskian_rep.susy_chain_potential(wronskian_rep.index_set_deleted(k)) != v:
                return _fail("chained factorization form differs")
            return _ok("three Wronskian routes equal the rational form")

        return run

    def mode_equivalence_check(k: int, j: int) -> Callable[[], tuple[bool, str]]:
        def run() -> tuple[bool, str]:
            n_top = max(config.n_max, 6)
            seq = ttrr.ttrr_sequence(k, j, n_top)
            for n in range(n_top + 1):
                wm = wronskian_rep.wronskian_mode(k, j, n)
                c = wm.P.proportionality(seq[n])
                if c is None or c.is_zero:
                    return _fail(f"representations differ at n={n}")
            return _ok(f"n <= {n_top} proportional")

        return run

    def okamoto_wronskian_check(form: str) -> Callable[[], tuple[bool, str]]:
        def run() -> tuple[bool, str]:
            for m in range(5):
                for n in range(5):
                    if m + n < 1 or (form == "psi" and m == 0 and n > 1):
                        continue
                    wronskian_rep.okamoto_via_wronskian(m, n, form)
            return _ok("m, n <= 4 proportional to the recurrence table")

        return run

    def xhermite_check(k: int, j: int) -> Callable[[], tuple[bool, str]]:
        def run() -> tuple[bool, str]:
            for n in range(min(config.n_max, 4) + 1):
                wronskian_rep.xhermite_from_ttrr(k, j, n)
            return _ok(f"n <= {min(config.n_max, 4)} proportional after rescaling")

        return run

    def jacobi_check() -> tuple[bool, str]:
        cases = [([], (1, 2)), ([1], (2, 3)), ([1, 2], (4, 5)), ([1, 2, 4], (5, 7)), ([2], (1, 5))]
        for base, extra in cases:
            if not wronskian_rep.wronskian_identity_check(base, extra):
                return _fail(f"identity fails for base {base}, extra {extra}")
        return _ok(f"{len(cases)} instances")

    def seed_ladder_check() -> tuple[bool, str]:
        for r in range(1, 31):
            if wronskian_rep.psi_poly(r).derivative() != wronskian_rep.psi_poly(r - 1) * 2:
                return _fail(f"derivative ladder fails at r={r}")
        return _ok("r <= 30")

    for k in range(k_bound + 1):
        checks.append((f"potential-equivalence-k{k}", "four potential constructions coincide", potential_check(k)))
        for j in (1, 2, 3):
            checks.append(
                (
                    f"mode-equivalence-k{k}-j{j}",
                    "recurrence and Wronskian modes are proportional",
                    mode_equivalence_check(k, j),
                )
            )
    for form in ("psi", "Psi"):
        checks.append(
            (f"okamoto-wronskian-{form}", "Wronskian representation of the polynomial table", okamoto_wronskian_check(form))
        )
    for k in range(min(k_bound, 2) + 1):
        for j in (1, 2, 3):
            checks.append(
                (f"xhermite-k{k}-j{j}", "three-term route to the exceptional family", xhermite_check(k, j))
            )
    checks.append(("jacobi-identity", "bilinear Wronskian identity", jacobi_check))
    checks.append(("seed-derivative-ladder", "generating-function seed ladder", seed_ladder_check))
    return checks


# -- zeros --------------------------------------------------------------------------

def _zeros_checks(config: VerifySuiteConfig) -> list[Check]:
    k_bound = min(config.k_max, 3)
    n_bound = min(config.n_max, 5)
    checks: list[Check] = []

    def okamoto_zero_check() -> tuple[bool, str]:
        for m in range(7):
            for n in range(7 - m):
                predicted = rootcount.predicted_okamoto_count(m, n)
                counted = rootcount.sturm_count(okamoto(m, n))
                if counted.n_total != predicted.n_total or counted.n0 != predicted.n0:
                    return _fail(f"mismatch at ({m},{n}): {counted} vs {predicted}")
                if counted.n_plus != counted.n_minus:
                    return _fail(f"asymmetric census at ({m},{n})")
        return _ok("m + n <= 6")

    def mode_zero_check(k: int, j: int) -> Callable[[], tuple[bool, str]]:
        def run() -> tuple[bool, str]:
            seq = ttrr.ttrr_sequence(k, j, n_bound)
            for n, p in enumerate(seq):
                if rootcount.sturm_count(p).n_total != rootcount.predicted_mode_count(k, j, n):
                    return _fail(f"mismatch at n={n}")
            return _ok(f"n <= {n_bound}")

        return run

    def rank_law_check(k: int) -> Callable[[], tuple[bool, str]]:
        def run() -> tuple[bool, str]:
            states = sorted(
                ((spectral.energy(k, j, n), j, n) for j in (1, 2, 3) for n in range(12)),
            )[:12]
            sequences = {j: ttrr.ttrr_sequence(k, j, max(n for _, jj, n in states if jj == j)) for j in (1, 2, 3)}
            for rank, (_, j, n) in enumerate(states):
                if rootcount.sturm_count(sequences[j][n]).n_total != rank:
                    return _fail(f"state of rank {rank} (j={j}, n={n}) breaks the oscillation law")
            return _ok("first 12 states ordered by energy have counts 0..11")

        return run

    def wronskian_count_check(k: int) -> Callable[[], tuple[bool, str]]:
        def run() -> tuple[bool, str]:
            base = wronskian_rep.index_set_deleted(k)
            for j in (1, 2, 3):
                for n in range(min(n_bound, 3) + 1):
                    xi = sorted(base + [wronskian_rep.sigma_index(k, j, n)])
                    predicted = rootcount.predicted_wronskian_count(xi)
                    counted = rootcount.sturm_count(wronskian_rep.wronskian_mode(k, j, n).P)
                    if (predicted.n0, predicted.n_plus, predicted.n_minus) != (
                        counted.n0,
                        counted.n_plus,
                        counted.n_minus,
                    ):
                        return _fail(f"closed form fails on index family {xi}")
            return _ok("closed-form census matches the Sturm oracle")

        return run

    checks.append(("okamoto-zero-counts", "polynomial table zero census", okamoto_zero_check))
    for k in range(k_bound + 1):
        for j in (1, 2, 3):
            checks.append((f"mode-zero-counts-k{k}-j{j}", "mode zero census", mode_zero_check(k, j)))
        checks.append((f"rank-law-k{k}", "oscillation-theorem rank law", rank_law_check(k)))
        checks.append((f"wronskian-counts-k{k}", "Hermite-Wronskian zero-count formula", wronskian_count_check(k)))
    return checks


# -- numeric suites -------------------------------------------------------------------

def _spectrum_numeric_checks(config: VerifySuiteConfig) -> list[Check]:
    k_bound = min(config.k_max, 2)
    tol = numerics.EIGENVALUE_TOL

    def spectrum_check(k: int) -> Callable[[], tuple[bool, str]]:
        def run() -> tuple[bool, str]:
            computed = numerics.fd_eigensolve(k, count=9)
            exact = [float(e) for e in numerics.spectrum_exact(k, 9)]
            worst = max(abs(a - b) for a, b in zip(computed, exact))
            if worst > tol:
                return _fail(f"max |dE| = {worst:.3e} > {tol:.1e}")
            return _ok(f"max |dE| = {worst:.3e} over the lowest 9 levels")

        return run

    def oscillator_check() -> tuple[bool, str]:
        computed = numerics.fd_eigensolve(0, count=6)
        ladder = [2 * n / 3 for n in range(6)]
        worst = max(abs(a - b) for a, b in zip(computed, ladder))
        if worst > tol:
            return _fail(f"oscillator ladder off by {worst:.3e}")
        return _ok(f"levels 2n/3 reproduced to {worst:.3e}")

    checks: list[Check] = [
        (
            f"fd-spectrum-k{k}",
            "finite-difference spectrum matches the three progressions",
            spectrum_check(k),
        )
        for k in range(k_bound + 1)
    ]
    checks.append(("oscillator-limit", "k=0 reduces to the rescaled oscillator ladder", oscillator_check))
    return checks


def _orthogonality_checks(config: VerifySuiteConfig) -> list[Check]:
    k_bound = min(config.k_max, 2)
    n_bound = min(config.n_max, 3)
    tol = numerics.ORTHOGONALITY_TOL

    def orthogonality_check(k: int) -> Callable[[], tuple[bool, str]]:
        def run() -> tuple[bool, str]:
            modes = []
            for j in (1, 2, 3):
                modes.extend(ttrr.ttrr_modes(k, j, n_bound))
            worst = 0.0
            for i, a in enumerate(modes):
                for b in modes[i + 1 :]:
                    worst = max(worst, numerics.normalized_cross_inner(a, b))
            if worst > tol:
                return _fail(f"worst normalized cross product {worst:.3e} > {tol:.1e}")
            return _ok(f"worst normalized cross product {worst:.3e} over {len(modes)} states")

        return run

    def norm_ratio_check(k: int) -> Callable[[], tuple[bool, str]]:
        def run() -> tuple[bool, str]:
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
                        return _fail(f"norm ratio {ratio:.9g} differs from {expected:.9g} at (j={j}, n={mode.n})")
            return _ok("norm ratios match the squared ladder constants to 1e-6")

        return run

    checks: list[Check] = []
    for k in range(k_bound + 1):
        checks.append((f"orthogonality-k{k}", "distinct states are numerically orthogonal", orthogonality_check(k)))
        checks.append((f"norm-ratio-k{k}", "numerical mirror of the ladder constants", norm_ratio_check(k)))
    return checks


_SUITE_BUILDERS: dict[str, Callable[[VerifySuiteConfig], list[Check]]] = {
    "tables": _tables_checks,
    "piv": _piv_checks,
    "backlund": _backlund_checks,
    "identities": _identities_checks,
    "ladder": _ladder_checks,
    "ode": _ode_checks,
    "wronskian": _wronskian_checks,
    "zeros": _zeros_checks,
    "spectrum-numeric": _spectrum_numeric_checks,
    "orthogonality": _orthogonality_checks,
}


def _execute(suite: str, check: Check) -> CheckResult:
    name, certifies, fn = check
    try:
        passed, detail = fn()
    except Exception as exc:  # a crash is a failing check, not a fault
        passed, detail = False, f"{type(exc).__name__}: {exc}"
    return CheckResult(suite=suite, name=name, passed=passed, detail=detail, certifies=certifies)


def run_verify(config: VerifySuiteConfig) -> list[CheckResult]:
    """Run the selected suites and return order-stable results."""
    results = [
        _execute(suite, check)
        for suite in config.which
        for check in _SUITE_BUILDERS[suite](config)
    ]
    return sorted(results, key=lambda r: (r.suite, r.name))
