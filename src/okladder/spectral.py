"""Hamiltonians with third-order shape invariance over the "-2x/3" hierarchy.

Potential, superpotentials, factorization energies, the three zero-modes,
exact third-order ladder operators, and the three-sequence spectrum.  The
energy unit is fixed by lambda = 1 (spectral shift 2 per ladder step).
"""

from __future__ import annotations

import functools
from dataclasses import dataclass
from fractions import Fraction

from .errors import CertificateFailed, IndexOutOfCone
from .exact_ring import ExactPoly, QuasiGaussian, RationalFn, apply_first_order, sum_of_products
from .okamoto import okamoto
from .painleve4 import log_form

_X = RationalFn.x()
_X_POLY = ExactPoly.x()
_X2 = ExactPoly.monomial(1, 2)


def energy(k: int, j: int, n: int) -> Fraction:
    """E_{n;j}: three disjoint arithmetic progressions of step 2."""
    if j == 1:
        return Fraction(2 * n)
    if j == 2:
        return 2 * k + 2 * n + Fraction(2, 3)
    if j == 3:
        return 2 * k + 2 * n + Fraction(4, 3)
    raise ValueError(f"sequence index j must be 1, 2 or 3, got {j}")


def mode_degree(k: int, j: int, n: int) -> int:
    """Degree of the polynomial part of the (n, j) mode."""
    if j == 1:
        return k * k - k + 3 * n
    if j == 2:
        return (k + 1) * (k + 1) + 3 * n
    if j == 3:
        return k * k + 2 * k + 2 + 3 * n
    raise ValueError(f"sequence index j must be 1, 2 or 3, got {j}")


@dataclass(frozen=True)
class HamiltonianK:
    """H = -d^2/dx^2 + v for a reduced potential v.

    potential(k) holds the level-k V = x^2 - (4/9) Q_{k+2} Q_k / Q_{k+1}^2
    + 4k + 1, which grows like x^2/9 + const; intertwining_checks holds the
    auxiliary potentials of the factor chain the same way.
    """

    k: int
    v: RationalFn

    def potential_fn(self) -> RationalFn:
        return self.v

    def apply(self, g: QuasiGaussian) -> QuasiGaussian:
        """H g = -g'' + V g, exactly: (-S v.den + v.num N D^2) / (D^3 v.den)
        for g = (N/D) exp(-x^2/6), reduced once."""
        r, v = g.rational, self.v
        n, d = r.num, r.den
        d2 = d * d
        nd2 = n * d2
        second = sum_of_products(_second_terms(n, d, d2, nd2))
        num = sum_of_products(((1, (v.num, nd2)), (-1, (second, v.den))))
        return QuasiGaussian(RationalFn(num, sum_of_products(((1, (d, d2, v.den)),))))

    def asymptotic_constant(self) -> Fraction:
        """Limit of V(x) - x^2/9 for |x| -> oo (finite by construction)."""
        quot, _ = divmod(self.v.num, self.v.den)
        # quot = x^2/9 + c; a polynomial has one grade, so c is rational.
        if not (quot.degree == 2 and quot.coeff(2) == Fraction(1, 9) and quot.coeff(1).is_zero):
            raise CertificateFailed(f"V does not grow like x^2/9 at k={self.k}")
        return quot.coeff(0).a


@dataclass(frozen=True)
class ModeFunction:
    """Eigenfunction data phi_{n;j} = (P/Q_{k+1}) exp(-x^2/6) up to normalization."""

    k: int
    j: int
    n: int
    P: ExactPoly
    energy: Fraction

    def phi(self) -> QuasiGaussian:
        return QuasiGaussian(RationalFn(self.P, okamoto(self.k + 1, 0)))


@dataclass(frozen=True)
class LadderOp:
    """Ordered composition of first-order factors (sign * d/dx + f).

    factors are stored in composition order (leftmost first); application
    on a function runs right-to-left.
    """

    factors: tuple[tuple[int, RationalFn], ...]

    def apply(self, g: QuasiGaussian) -> QuasiGaussian:
        for sign, f in reversed(self.factors):
            g = apply_first_order(sign, f, g)
        return g

    def adjoint(self) -> "LadderOp":
        return LadderOp(tuple((-sign, f) for sign, f in reversed(self.factors)))


def _second_terms(n: ExactPoly, d: ExactPoly, d2: ExactPoly, nd2: ExactPoly) -> list:
    """Terms of S, with ((N/D) exp(-x^2/6))'' = (S/D^3) exp(-x^2/6), given
    D^2 and N D^2:

        S = N''D^2 - 2N'D'D - ND''D + 2ND'^2 - (2x/3)(N'D - ND')D + (x^2/9 - 1/3) N D^2.
    """
    dn, dd = n.derivative(), d.derivative()
    return [
        (1, (dn.derivative(), d2)),
        (-2, (dn, dd, d)),
        (-1, (n, dd.derivative(), d)),
        (2, (n, dd, dd)),
        (Fraction(-2, 3), (_X_POLY, dn, d2)),
        (Fraction(2, 3), (_X_POLY, n, dd, d)),
        (Fraction(1, 9), (_X2, nd2)),
        (Fraction(-1, 3), (nd2,)),
    ]


def _potential_polys(k: int) -> tuple[ExactPoly, ExactPoly, ExactPoly]:
    """(Q_k, Q_{k+1}, Q_{k+2}), with V = x^2 - (4/9) Q_{k+2} Q_k / Q_{k+1}^2 + 4k + 1."""
    if k < 0:
        raise IndexOutOfCone("potential index k must be >= 0")
    return okamoto(k, 0), okamoto(k + 1, 0), okamoto(k + 2, 0)


def potential(k: int) -> HamiltonianK:
    """V(x) = x^2 - (4/9) Q_{k+2} Q_k / Q_{k+1}^2 + 4k + 1."""
    q_k, q, q_k2 = _potential_polys(k)
    q2 = q * q
    num = sum_of_products(((1, (_X2, q2)), (4 * k + 1, (q2,)), (Fraction(-4, 9), (q_k2, q_k))))
    return HamiltonianK(k, RationalFn(num, q2))


@functools.cache
def superpotentials(k: int, branch: str = "+") -> tuple[RationalFn, RationalFn, RationalFn]:
    """(W, W1, W2) for the three-step factorization: "-2x/3" Painleve IV
    solutions w^f_{m,n} = log_form(f, m, n) shifted by x,

        W  = -(x + w^1_{k,0}) = -(x/3 + (ln Q_{k+1}/Q_k)'),
        W1 = x + w^3_{k,0} = x/3 + (ln B/Q_{k+1})',  W2 = x + w^2_{k,0} = x/3 + (ln Q_k/B)'

    with B = Q_{k,1} on the '+' branch; the '-' branch has B = Q_{k+1,-1},
    W1 = x + w^2_{k+1,-1}, W2 = x + w^3_{k,-1} and swaps the roles of the
    j = 2 and j = 3 zero-modes.  Memoized per (k, branch); the RationalFn
    entries are immutable.
    """
    if branch not in ("+", "-"):
        raise ValueError("branch must be '+' or '-'")
    w = -(_X + log_form(1, k, 0))
    if branch == "+":
        return w, _X + log_form(3, k, 0), _X + log_form(2, k, 0)
    return w, _X + log_form(2, k + 1, -1), _X + log_form(3, k, -1)


def factorization_energies(k: int) -> tuple[Fraction, Fraction]:
    """(eps1, eps2) = (2k - 4/3, 2k - 2/3); their gap 2/3 is twice sqrt(1/9)."""
    return 2 * k - Fraction(4, 3), 2 * k - Fraction(2, 3)


def zero_mode(k: int, j: int, branch: str = "+") -> ModeFunction:
    """The three states annihilated by the lowering operator.

    Polynomial parts Q_k, Q_{k+1,1}, Q_{k+2,-1} at energies 0, 2k+2/3,
    2k+4/3 on the '+' branch; the '-' branch swaps j = 2 and j = 3.
    """
    if j not in (1, 2, 3):
        raise ValueError(f"sequence index j must be 1, 2 or 3, got {j}")
    if branch not in ("+", "-"):
        raise ValueError("branch must be '+' or '-'")
    jj = j
    if branch == "-" and j in (2, 3):
        jj = 5 - j
    if jj == 1:
        p = okamoto(k, 0)
    elif jj == 2:
        p = okamoto(k + 1, 1)
    else:
        p = okamoto(k + 2, -1)
    return ModeFunction(k=k, j=j, n=0, P=p, energy=energy(k, jj, 0))


def ladder(k: int, direction: str) -> LadderOp:
    """Third-order ladder operators in factored form.

    raise:  (+d/dx + W) o (-d/dx + W2) o (-d/dx + W1)
    lower:  (+d/dx + W1) o (+d/dx + W2) o (-d/dx + W), the adjoint of raise
    """
    if direction not in ("raise", "lower"):
        raise ValueError("direction must be 'raise' or 'lower'")
    w, w1, w2 = superpotentials(k)
    up = LadderOp(((1, w), (-1, w2), (-1, w1)))
    return up if direction == "raise" else up.adjoint()


def ladder_constant_sq(k: int, j: int, n: int) -> Fraction:
    """Squared proportionality constant C^2_{n+1;j} of the raising step,
    equal to (E - eps1)(E - eps2)(E + 2) at E = E_{n;j}."""
    if n < 0:
        raise ValueError("level index n must be >= 0")
    np1 = Fraction(n + 1)
    if j == 1:
        return 8 * np1 * (n - k + Fraction(2, 3)) * (n - k + Fraction(1, 3))
    if j == 2:
        return 8 * np1 * (n + Fraction(2, 3)) * (n + k + Fraction(4, 3))
    if j == 3:
        return 8 * np1 * (n + Fraction(4, 3)) * (n + k + Fraction(5, 3))
    raise ValueError(f"sequence index j must be 1, 2 or 3, got {j}")


def hamiltonian_residual(mode: ModeFunction) -> QuasiGaussian:
    """(-d^2/dx^2 + V - E) applied to mode.phi(); zero certifies the mode.

    With phi = (P/Q) exp(-x^2/6), Q = Q_{k+1} and phi'' = (S/Q^3) exp(-x^2/6),
    the result is N/Q^3 times exp(-x^2/6) where

        N = -S + (x^2 + 4k + 1 - E) P Q^2 - (4/9) Q_{k+2} Q_k P,

    so N is assembled as one polynomial and reduced at most once; a
    certified mode has N = 0 and needs no reduction at all.
    """
    k, p = mode.k, mode.P
    q_k, q, q_k2 = _potential_polys(k)
    q2 = q * q
    pq2 = p * q2
    num = sum_of_products([
        *((-c, fs) for c, fs in _second_terms(p, q, q2, pq2)),
        (1, (_X2, pq2)),
        (4 * k + 1 - mode.energy, (pq2,)),
        (Fraction(-4, 9), (q_k2, q_k, p)),
    ])
    if num.is_zero:
        return QuasiGaussian(RationalFn.zero())
    return QuasiGaussian(RationalFn(num, q * q2))


def intertwining_checks(k: int) -> list[bool]:
    """Exact intertwining relations of the factor chain, applied to the test
    function (Q_{k,1}/Q_{k+1,0}) exp(-x^2/6):

        H M1! = M1! H2     H2 M1 = M1 H
        H1 M2 = M2 H2      H2 M2! = M2! H1
        H Q!  = Q! (H1 + 2)    H1 Q = Q (H - 2)

    with the auxiliary potentials built from the superpotentials.
    """
    w, w1, w2 = superpotentials(k)
    e1, e2 = factorization_energies(k)
    v2 = w1 * w1 - w1.derivative() + RationalFn.constant(e2)
    v1 = w2 * w2 - w2.derivative() + RationalFn.constant(e1)

    ham = potential(k).apply
    ham1 = HamiltonianK(k, v1).apply
    ham2 = HamiltonianK(k, v2).apply
    g = QuasiGaussian(RationalFn(okamoto(k, 1), okamoto(k + 1, 0)))
    m1_up = lambda f: apply_first_order(1, w1, f)
    m1_dn = lambda f: apply_first_order(-1, w1, f)
    m2_up = lambda f: apply_first_order(1, w2, f)
    m2_dn = lambda f: apply_first_order(-1, w2, f)
    q_up = lambda f: apply_first_order(1, w, f)
    q_dn = lambda f: apply_first_order(-1, w, f)
    return [
        (ham(m1_up(g)) - m1_up(ham2(g))).is_zero,
        (ham2(m1_dn(g)) - m1_dn(ham(g))).is_zero,
        (ham1(m2_dn(g)) - m2_dn(ham2(g))).is_zero,
        (ham2(m2_up(g)) - m2_up(ham1(g))).is_zero,
        (ham(q_up(g)) - (q_up(ham1(g)) + q_up(g) * 2)).is_zero,
        (ham1(q_dn(g)) - (q_dn(ham(g)) - q_dn(g) * 2)).is_zero,
    ]


def auxiliary_potential_checks(k: int, branch: str = "+") -> list[bool]:
    """Exact factorization identities tying H and the two auxiliary
    Hamiltonians of the chain to the superpotentials:

        V   = W^2 + W'                      (ground factorization)
        V   = W1^2 + W1' + eps_a            (H  = M1! M1 + eps_a)
        V2  = W1^2 - W1' + eps_a
            = W2^2 + W2' + eps_b            (H2 = M2! M2 + eps_b)
        V1  = W2^2 - W2' + eps_b = W^2 - W' - 2

    On the '+' branch (eps_a, eps_b) = (eps2, eps1); the '-' branch swaps
    them, so both factorization energies appear on either branch.
    """
    w, w1, w2 = superpotentials(k, branch)
    e1, e2 = factorization_energies(k)
    ea, eb = (e2, e1) if branch == "+" else (e1, e2)
    v = potential(k).potential_fn()
    v2_a = w1 * w1 - w1.derivative() + RationalFn.constant(ea)
    v2_b = w2 * w2 + w2.derivative() + RationalFn.constant(eb)
    v1_a = w2 * w2 - w2.derivative() + RationalFn.constant(eb)
    v1_b = w * w - w.derivative() - RationalFn.constant(2)
    return [
        v == w * w + w.derivative(),
        v == w1 * w1 + w1.derivative() + RationalFn.constant(ea),
        v2_a == v2_b,
        v1_a == v1_b,
    ]
