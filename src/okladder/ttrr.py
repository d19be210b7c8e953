"""Higher-mode polynomials by the three-term recurrence, one sequence per j.

Each sequence starts from its zero-mode polynomial alone.  The recurrence
coefficients are rational functions whose denominators are all known in
advance: with Q = Q_{k+1,0},

    g_n = gamma_n / Q^2,   gamma_n = G - E_n Q^2,   G = (2/9) Q_{k+2,0} Q_{k,0},

and the Painleve IV log forms w_f = omega_f / delta_f at (k, 0), whose
delta_f are products of two of Q, Q_{k,0} and Q_{k,1}.  So each step is
cleared of denominators by L = Q^2 Q_{k,0} Q_{k,1} and gamma_{n+1}: its
right side is one sum of products of polynomials, and the step's
certificate is that one exact division by C^2 L gamma_{n+1} leaves no
remainder.
"""

from __future__ import annotations

from fractions import Fraction

from .errors import CertificateFailed, NonPolynomialResult
from .exact_ring import ExactPoly, RationalFn, sum_of_products
from .okamoto import okamoto
from .painleve4 import _omega
from .spectral import ModeFunction, check_potential_index, energy, ladder_constant_sq, tower, zero_mode

_X = ExactPoly.x()


class RecurrenceState:
    """Coefficient polynomials and generated entries for one (k, j) sequence.

    q, q_k, q_k_1 are Q = Q_{k+1,0}, Q_k = Q_{k,0} and Q_{k,1}; q2 is Q^2,
    g_num is G, omegas are the log-form numerators (omega_1, omega_2,
    omega_3) of the pairs (Q, Q_k), (Q_k, Q_{k,1}) and (Q_{k,1}, Q), and den
    is L = Q^2 Q_k Q_{k,1}.  All are polynomials.
    """

    def __init__(self, k: int, j: int) -> None:
        check_potential_index(k)
        self.k = k
        self.j = j
        self.q_k = q_k = okamoto(k, 0)
        self.q_k_1 = q_k_1 = okamoto(k, 1)
        self.q = q = okamoto(k + 1, 0)
        self.q2 = q2 = q * q
        self.g_num = g_num = okamoto(k + 2, 0) * q_k * Fraction(2, 9)
        # G = (2/9) Q_{k+2} Q_k against its second closed form
        # (2/9) Q_{k+1,1} Q_{k+1,-1} + (2/3 + 2k) Q^2.
        if not sum_of_products((
            (1, (g_num,)),
            (Fraction(-2, 9), (okamoto(k + 1, 1), okamoto(k + 1, -1))),
            (-Fraction(2, 3) - 2 * k, (q2,)),
        )).is_zero:
            raise CertificateFailed(
                f"the two closed forms of the recurrence coefficient disagree at k={k}"
            )
        self.omegas = (_omega(q, q_k), _omega(q_k, q_k_1), _omega(q_k_1, q))
        self.den = q2 * q_k * q_k_1
        self.entries: list[ExactPoly] = [zero_mode(k, j).P]

    def gamma(self, n: int) -> ExactPoly:
        """gamma_n = G - E_n Q^2, so that g_n = gamma_n / Q^2."""
        return sum_of_products(((1, (self.g_num,)), (-energy(self.k, self.j, n), (self.q2,))))

    def extend_to(self, n: int) -> None:
        while len(self.entries) <= n:
            self.entries.append(ttrr_next(self, len(self.entries) - 2))


def ttrr_next(state: RecurrenceState, n: int) -> ExactPoly:
    """P_{n+2} from P_{n+1}, P_n:

        C^2 P_{n+2} = [-w2 g_{n+2} + E_{n+1} w1 g_{n+2}/g_{n+1}
                       + w3 kappa] P_{n+1} - (g_{n+2}/g_{n+1}) P_n

    with C^2 the squared ladder constant at n+1 and kappa = 2/3 - 2k + E_{n+1};
    cleared of denominators by L gamma_{n+1}:

        C^2 L gamma_{n+1} P_{n+2}
          = [-omega_2 gamma_{n+2} gamma_{n+1} + kappa omega_3 Q Q_k gamma_{n+1}
             + E_{n+1} omega_1 gamma_{n+2} Q Q_{k,1}] P_{n+1} - gamma_{n+2} L P_n.

    n = -1 gives P_1 from P_0 alone (P_{-1} = 0).  A nonzero remainder
    raises NonPolynomialResult naming the reduced leftover denominator.
    """
    k, j = state.k, state.j
    if n < -1:
        raise ValueError(f"recurrence index n must be >= -1, got {n}")
    if len(state.entries) < n + 2:
        raise ValueError(f"entries {n} and {n + 1} must exist before computing {n + 2}")
    e_next = energy(k, j, n + 1)
    w1, w2, w3 = state.omegas
    q, p1 = state.q, state.entries[n + 1]
    gamma1, gamma2 = state.gamma(n + 1), state.gamma(n + 2)
    # The bracket is built nested, gamma_{n+1} and P_{n+1} factored out:
    # the same polynomial with fewer convolutions.
    inner = sum_of_products((
        (-1, (w2, gamma2)),
        (Fraction(2, 3) - 2 * k + e_next, (w3, q, state.q_k)),
    ))
    bracket = sum_of_products(((1, (inner, gamma1)), (e_next, (w1, q, state.q_k_1, gamma2))))
    terms = [(1, (bracket, p1))]
    if n >= 0:
        terms.append((-1, (gamma2, state.den, state.entries[n])))
    num = sum_of_products(terms)
    divisor = state.den * gamma1 * ladder_constant_sq(k, j, n + 1)
    quot, rem = divmod(num, divisor)
    if not rem.is_zero:
        leftover = RationalFn(num, divisor).den
        raise NonPolynomialResult(
            f"recurrence step n={n + 2} (k={k}, j={j}) left denominator {leftover.pretty()}"
        )
    return quot


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
    if n < 0:
        raise ValueError("level index n must be >= 0")
    tower(k, j)  # checks j also at n = 0, where the product is empty
    out = Fraction(1)
    for p in range(n):
        out *= ladder_constant_sq(k, j, p)
    return out


def downward_residual(state: RecurrenceState, n: int) -> RationalFn:
    """The first-order downward relation tying entry n to entry n-1:

        g_n P_n' + (-(ln Q_k)' g_n + E_n w1) P_n - P_{n-1}

    which vanishes identically on the recurrence's own normalization (the
    downward constant is exactly one for n >= 1).  Over Q^2 Q_k its
    numerator is

        gamma_n (Q_k P_n' - Q_k' P_n) + E_n omega_1 Q P_n - Q^2 Q_k P_{n-1}.
    """
    if n < 1:
        raise ValueError("the downward relation starts at n = 1")
    state.extend_to(n)
    q_k, p_n = state.q_k, state.entries[n]
    gamma = state.gamma(n)
    num = sum_of_products((
        (1, (gamma, q_k, p_n.derivative())),
        (-1, (gamma, q_k.derivative(), p_n)),
        (energy(state.k, state.j, n), (state.omegas[0], state.q, p_n)),
        (-1, (state.q2, q_k, state.entries[n - 1])),
    ))
    return RationalFn(num, state.q2 * q_k)
