"""Hamiltonians with third-order shape invariance over the "-2x/3" hierarchy.

Potential, superpotentials, factorization energies, the three zero-modes,
exact third-order ladder operators, and the three-sequence spectrum, whose
towers are read from one table.  The energy unit is fixed by lambda = 1
(spectral shift 2 per ladder step).
"""

from __future__ import annotations

import functools
from dataclasses import dataclass, field
from fractions import Fraction

from .errors import IndexOutOfCone
from .exact_ring import ExactPoly, RationalFn, apply_first_order, conjugate_factor, sum_of_products
from .okamoto import okamoto, okamoto_degree
from .painleve4 import log_form

_X = RationalFn.x()
_X_POLY = ExactPoly.x()
_X2 = ExactPoly.monomial(1, 2)


# Tower j = 1, 2, 3 of the spectrum starts at the zero-mode Q_{k+dm, dn}
# with ground energy E_0 = slope*k + offset, as (dm, dn, slope, offset).
_TOWERS = {
    1: (0, 0, 0, Fraction(0)),
    2: (1, 1, 2, Fraction(2, 3)),
    3: (2, -1, 2, Fraction(4, 3)),
}


def tower(k: int, j: int) -> tuple[tuple[int, int], Fraction]:
    """(Okamoto index of the zero-mode polynomial, ground energy E_0) of
    tower j: ((k, 0), 0), ((k+1, 1), 2k + 2/3) or ((k+2, -1), 2k + 4/3)."""
    if j not in (1, 2, 3):
        raise ValueError(f"sequence index j must be 1, 2 or 3, got {j}")
    dm, dn, slope, offset = _TOWERS[j]
    return (k + dm, dn), slope * k + offset


def check_potential_index(k: int) -> None:
    """Raise IndexOutOfCone unless k >= 0."""
    if k < 0:
        raise IndexOutOfCone("potential index k must be >= 0")


def energy(k: int, j: int, n: int) -> Fraction:
    """E_{n;j} = E_0 + 2n: three disjoint arithmetic progressions of step 2."""
    return tower(k, j)[1] + 2 * n


def mode_degree(k: int, j: int, n: int) -> int:
    """Degree of the polynomial part of the (n, j) mode: that of its
    zero-mode plus 3 per ladder step."""
    return okamoto_degree(*tower(k, j)[0]) + 3 * n


@dataclass(frozen=True)
class HamiltonianK:
    """H = -d^2/dx^2 + v for a reduced potential v, acting on the rational
    part R of R exp(-x^2/6).

    potential(k) holds the level-k V = x^2 - (4/9) Q_{k+2} Q_k / Q_{k+1}^2
    + 4k + 1, which grows like x^2/9 + const; intertwining_checks holds the
    auxiliary potentials of the factor chain the same way.  Conjugated by
    G = exp(-x^2/6), G^-1 H G = -d^2/dx^2 + (2x/3) d/dx + v_tilde with
    v_tilde = v - x^2/9 + 1/3, built once with the operator.
    """

    k: int
    v: RationalFn
    v_tilde: RationalFn = field(init=False, repr=False, compare=False)

    def __post_init__(self) -> None:
        # v.num - (x^2/9 - 1/3) v.den equals v.num mod v.den: still reduced.
        v = self.v
        num = sum_of_products(
            ((1, (v.num,)), (Fraction(-1, 9), (_X2, v.den)), (Fraction(1, 3), (v.den,)))
        )
        object.__setattr__(self, "v_tilde", RationalFn(num, v.den, _reduced=True))

    def potential_fn(self) -> RationalFn:
        return self.v

    def apply(self, r: RationalFn) -> RationalFn:
        """The rational part of H (r exp(-x^2/6)), -r'' + (2x/3) r' +
        v_tilde r, exactly: (T e + c N D^2) / (D^3 e) for r = N/D and
        v_tilde = c/e, with D^3 (-r'' + (2x/3) r') = T, reduced once."""
        v = self.v_tilde
        n, d = r.num, r.den
        d2 = d * d
        second = sum_of_products(_second_terms(n, d, d2))
        num = sum_of_products(((1, (v.num, n, d2)), (1, (second, v.den))))
        return RationalFn(num, sum_of_products(((1, (d, d2, v.den)),)))


@dataclass(frozen=True)
class ModeFunction:
    """Eigenfunction data phi_{n;j} = (P/Q_{k+1}) exp(-x^2/6) up to normalization."""

    k: int
    j: int
    n: int
    P: ExactPoly
    energy: Fraction

    def phi(self) -> RationalFn:
        """The rational part P/Q_{k+1} of phi_{n;j}."""
        return RationalFn(self.P, okamoto(self.k + 1, 0))


@dataclass(frozen=True)
class LadderOp:
    """Ordered composition of first-order factors (sign * d/dx + f), acting
    on the rational part R of R exp(-x^2/6).

    factors are stored in composition order (leftmost first); application
    on a function runs right-to-left, through the factors conjugated by
    exp(-x^2/6), which are built once with the operator.  Each image is
    kept per input R; the memo has no eviction and takes no locks, as the
    package runs no threads.
    """

    factors: tuple[tuple[int, RationalFn], ...]
    conjugated: tuple[tuple[int, RationalFn], ...] = field(init=False, repr=False, compare=False)
    _images: dict = field(init=False, repr=False, compare=False, default_factory=dict)

    def __post_init__(self) -> None:
        conjugated = tuple((sign, conjugate_factor(sign, f)) for sign, f in self.factors)
        object.__setattr__(self, "conjugated", conjugated)

    def apply(self, r: RationalFn) -> RationalFn:
        image = self._images.get(r)
        if image is None:
            image = r
            for sign, f in reversed(self.conjugated):
                image = apply_first_order(sign, f, image)
            self._images[r] = image
        return image

    def adjoint(self) -> "LadderOp":
        return LadderOp(tuple((-sign, f) for sign, f in reversed(self.factors)))


def _second_terms(n: ExactPoly, d: ExactPoly, d2: ExactPoly) -> list:
    """Terms of T = D^3 (-r'' + (2x/3) r') for r = N/D, given D^2:

        T = -N''D^2 + 2N'D'D + ND''D - 2ND'^2 + (2x/3)(N'D - ND')D.
    """
    dn, dd = n.derivative(), d.derivative()
    return [
        (-1, (dn.derivative(), d2)),
        (2, (dn, dd, d)),
        (1, (n, dd.derivative(), d)),
        (-2, (n, dd, dd)),
        (Fraction(2, 3), (_X_POLY, dn, d2)),
        (Fraction(-2, 3), (_X_POLY, n, dd, d)),
    ]


def _potential_polys(k: int) -> tuple[ExactPoly, ExactPoly, ExactPoly]:
    """(Q_k, Q_{k+1}, Q_{k+2}), with V = x^2 - (4/9) Q_{k+2} Q_k / Q_{k+1}^2 + 4k + 1."""
    check_potential_index(k)
    return okamoto(k, 0), okamoto(k + 1, 0), okamoto(k + 2, 0)


@functools.cache
def potential(k: int) -> HamiltonianK:
    """V(x) = x^2 - (4/9) Q_{k+2} Q_k / Q_{k+1}^2 + 4k + 1.  Memoized per k;
    the HamiltonianK is immutable."""
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
    index, e0 = tower(k, j)
    if branch not in ("+", "-"):
        raise ValueError("branch must be '+' or '-'")
    if branch == "-" and j != 1:
        index, e0 = tower(k, 5 - j)
    return ModeFunction(k=k, j=j, n=0, P=okamoto(*index), energy=e0)


@functools.cache
def ladder(k: int, direction: str) -> LadderOp:
    """Third-order ladder operators in factored form.

    raise:  (+d/dx + W) o (-d/dx + W2) o (-d/dx + W1)
    lower:  (+d/dx + W1) o (+d/dx + W2) o (-d/dx + W), the adjoint of raise

    Memoized per (k, direction), so each operator is conjugated once and
    keeps its images.
    """
    if direction not in ("raise", "lower"):
        raise ValueError("direction must be 'raise' or 'lower'")
    w, w1, w2 = superpotentials(k)
    up = LadderOp(((1, w), (-1, w2), (-1, w1)))
    return up if direction == "raise" else up.adjoint()


def ladder_constant_sq(k: int, j: int, n: int) -> Fraction:
    """Squared proportionality constant C^2_{n+1;j} of the raising step,
    (E - eps1)(E - eps2)(E + 2) at E = E_{n;j}."""
    if n < 0:
        raise ValueError("level index n must be >= 0")
    e = energy(k, j, n)
    e1, e2 = factorization_energies(k)
    return (e - e1) * (e - e2) * (e + 2)


def hamiltonian_residual(mode: ModeFunction) -> RationalFn:
    """(-d^2/dx^2 + V - E) applied to phi = (P/Q) exp(-x^2/6), Q = Q_{k+1},
    as its rational part; zero certifies the mode.

    With V - x^2/9 + 1/3 = (8/9) x^2 - (4/9) Q_{k+2} Q_k / Q^2 + 4k + 4/3
    and T = Q^3 (-R'' + (2x/3) R') for R = P/Q, the result is N/Q^3 where

        N = T + ((8/9) x^2 + 4k + 4/3 - E) P Q^2 - (4/9) Q_{k+2} Q_k P,

    so N is assembled as one polynomial and reduced at most once; a
    certified mode has N = 0 and needs no reduction at all.
    """
    k, p = mode.k, mode.P
    q_k, q, q_k2 = _potential_polys(k)
    q2 = q * q
    pq2 = p * q2
    num = sum_of_products([
        *_second_terms(p, q, q2),
        (Fraction(8, 9), (_X2, pq2)),
        (4 * k + Fraction(4, 3) - mode.energy, (pq2,)),
        (Fraction(-4, 9), (q_k2, q_k, p)),
    ])
    if num.is_zero:
        return RationalFn.zero()
    return RationalFn(num, q * q2)


def intertwining_checks(k: int) -> list[bool]:
    """Exact intertwining relations of the factor chain, applied to the test
    function (Q_{k,1}/Q_{k+1,0}) exp(-x^2/6) through its rational part:

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
    g = RationalFn(okamoto(k, 1), okamoto(k + 1, 0))

    factor = lambda sign, f: LadderOp(((sign, f),)).apply
    m1_up, m1_dn = factor(1, w1), factor(-1, w1)
    m2_up, m2_dn = factor(1, w2), factor(-1, w2)
    q_up, q_dn = factor(1, w), factor(-1, w)
    # Each Hamiltonian is applied to g once; each factor keeps its images.
    h_g, h1_g, h2_g = ham(g), ham1(g), ham2(g)
    return [
        (ham(m1_up(g)) - m1_up(h2_g)).is_zero,
        (ham2(m1_dn(g)) - m1_dn(h_g)).is_zero,
        (ham1(m2_dn(g)) - m2_dn(h2_g)).is_zero,
        (ham2(m2_up(g)) - m2_up(h1_g)).is_zero,
        (ham(q_up(g)) - (q_up(h1_g) + q_up(g) * 2)).is_zero,
        (ham1(q_dn(g)) - (q_dn(h_g) - q_dn(g) * 2)).is_zero,
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
