"""Higher-mode polynomials by the three-term recurrence, one sequence per j.

Each sequence starts from its zero-mode polynomial alone; the recurrence
coefficients are rational functions built from Q_{k}, Q_{k,1}, Q_{k+1} and
the sequence energies, and every step must collapse to a polynomial.
"""

from __future__ import annotations

from fractions import Fraction

from .errors import CertificateFailed, IndexOutOfCone, NonPolynomialResult
from .exact_ring import ExactPoly, RationalFn, log_derivative, sum_of_products
from .okamoto import okamoto
from .painleve4 import log_form
from .spectral import ModeFunction, energy, ladder_constant_sq, zero_mode

_X = ExactPoly.x()


class RecurrenceState:
    """Cached coefficient data and generated entries for one (k, j) sequence."""

    def __init__(self, k: int, j: int) -> None:
        if k < 0:
            raise IndexOutOfCone("potential index k must be >= 0")
        self.k = k
        self.j = j
        q_k = okamoto(k, 0)
        q_k1 = okamoto(k + 1, 0)
        q_kp1_1 = okamoto(k + 1, 1)
        q_kp1_m1 = okamoto(k + 1, -1)
        den = q_k1 * q_k1
        self._g_base = RationalFn(okamoto(k + 2, 0) * q_k * Fraction(2, 9), den)
        alt = RationalFn(q_kp1_1 * q_kp1_m1 * Fraction(2, 9), den) + RationalFn.constant(
            Fraction(2, 3) + 2 * k
        )
        if self._g_base != alt:
            raise CertificateFailed(
                f"the two closed forms of the recurrence coefficient disagree at k={k}"
            )
        self.w1, self.w2, self.w3 = (log_form(f, k, 0) for f in (1, 2, 3))
        self.entries: list[ExactPoly] = [zero_mode(k, j).P]

    def g(self, n: int) -> RationalFn:
        return self._g_base - RationalFn.constant(energy(self.k, self.j, n))

    def extend_to(self, n: int) -> None:
        while len(self.entries) <= n:
            self.entries.append(ttrr_next(self, len(self.entries) - 2))


def _as_polynomial(value: RationalFn, context: str) -> ExactPoly:
    if not value.is_polynomial:
        raise NonPolynomialResult(f"{context} left denominator {value.den.pretty()}")
    return value.as_poly()


def ttrr_next(state: RecurrenceState, n: int) -> ExactPoly:
    """P_{n+2} from P_{n+1}, P_n:
    L~_{n+1} P_{n+2} = [-w2 g_{n+2} + E_{n+1} w1 g_{n+2}/g_{n+1}
                        + w3 (2/3 - 2k + E_{n+1})] P_{n+1} - (g_{n+2}/g_{n+1}) P_n.

    n = -1 gives P_1 from P_0 alone (P_{-1} = 0).
    """
    k, j = state.k, state.j
    if n < -1:
        raise ValueError(f"recurrence index n must be >= -1, got {n}")
    if len(state.entries) < n + 2:
        raise ValueError(f"entries {n} and {n + 1} must exist before computing {n + 2}")
    e_next = energy(k, j, n + 1)
    g_n2 = state.g(n + 2)
    bracket = -state.w2 * g_n2 + state.w3 * RationalFn.constant(Fraction(2, 3) - 2 * k + e_next)
    # Only P_1 of the j = 1 sequence (E_0 = 0, no P_{-1}) needs no ratio term.
    if e_next or n >= 0:
        ratio = g_n2 / state.g(n + 1)
        bracket = bracket + state.w1 * ratio * RationalFn.constant(e_next)
    result = bracket * RationalFn.from_poly(state.entries[n + 1])
    if n >= 0:
        result = result - ratio * RationalFn.from_poly(state.entries[n])
    result = result / RationalFn.constant(ladder_constant_sq(k, j, n + 1))
    return _as_polynomial(result, f"recurrence step n={n + 2} (k={k}, j={j})")


# One RecurrenceState per (k, j), shared by every caller, as the Okamoto
# table shares Q_{m,n}; entries only ever grow. Not safe to extend from
# several threads at once.
_STATES: dict[tuple[int, int], RecurrenceState] = {}


def ttrr_sequence(k: int, j: int, max_n: int) -> list[ExactPoly]:
    """P_0 .. P_max_n for the (k, j) sequence, as a new list.

    Sequences are memoized per (k, j): a later call only computes the
    entries beyond those already generated.
    """
    if max_n < 0:
        raise ValueError("level index n must be >= 0")
    state = _STATES.get((k, j))
    if state is None:
        state = _STATES[(k, j)] = RecurrenceState(k, j)
    state.extend_to(max_n)
    return state.entries[: max_n + 1]


def ttrr_modes(k: int, j: int, max_n: int) -> list[ModeFunction]:
    """Modes 0 .. max_n of the (k, j) sequence, each entry with its energy."""
    return [
        ModeFunction(k, j, n, p, energy(k, j, n))
        for n, p in enumerate(ttrr_sequence(k, j, max_n))
    ]


def ode_residual(k: int, j: int, n: int, p: ExactPoly) -> ExactPoly:
    """Second-order equation satisfied by every sequence entry, cleared by
    Q_{k+1}:  Q P'' - ((2x/3) Q + 2 Q') P' + (Q'' + (2x/3) Q' - (4k/3 - E) Q) P."""
    q = okamoto(k + 1, 0)
    dq, dp = q.derivative(), p.derivative()
    return sum_of_products((
        (1, (q, dp.derivative())),
        (Fraction(-2, 3), (_X, q, dp)),
        (-2, (dq, dp)),
        (1, (dq.derivative(), p)),
        (Fraction(2, 3), (_X, dq, p)),
        (energy(k, j, n) - Fraction(4 * k, 3), (q, p)),
    ))


def normalization_sq(k: int, j: int, n: int) -> Fraction:
    """(N_{n;j}/N_{0;j})^2 = product of the squared ladder constants."""
    out = Fraction(1)
    for p in range(n):
        out *= ladder_constant_sq(k, j, p)
    return out


def downward_residual(state: RecurrenceState, n: int) -> RationalFn:
    """The first-order downward relation tying entry n to entry n-1:

        g_n P_n' + (-(ln Q_k)' g_n + E_n w1) P_n - P_{n-1}

    which vanishes identically on the recurrence's own normalization (the
    downward constant is exactly one for n >= 1).
    """
    if n < 1:
        raise ValueError("the downward relation starts at n = 1")
    state.extend_to(n)
    q_k = okamoto(state.k, 0)
    g_n = state.g(n)
    e_n = energy(state.k, state.j, n)
    p_n = RationalFn.from_poly(state.entries[n])
    lhs = g_n * RationalFn.from_poly(state.entries[n].derivative()) + (
        -log_derivative(q_k) * g_n + state.w1 * RationalFn.constant(e_n)
    ) * p_n
    return lhs - RationalFn.from_poly(state.entries[n - 1])
