"""Older routes kept as test oracles.

The product-rule route for quasi-Gaussians: before the operators were
conjugated by G = exp(-x^2/6), every mode, zero-mode and ladder image was
carried as a `QuasiGaussian` R*G, and each operator differentiated the
product R*G and carried the -x/3 terms by hand.  The library now acts on R
alone; the code below is that older route, with the Gaussian kept explicit,
so that tests can require the same rational parts and the same doubles from
both.

The closed forms per tower j and per Painleve IV family, as each function
wrote them out before the towers and the families were read from one table
each, and the product form of a family member as a rational function.

The determinant by minor expansion, which every Wronskian route is checked
against.
"""

import math
import sys
from fractions import Fraction

import numpy as np

from okladder.exact_ring import (
    _ONE,
    _ZERO,
    SQRT2,
    ExactPoly,
    RationalFn,
    _graded,
    log_derivative,
    sum_of_products,
)
from okladder.numerics import _poly_array, _round
from okladder.okamoto import okamoto
from okladder.numerics import eval_array as eval_rational
from okladder.spectral import HamiltonianK, LadderOp, ModeFunction, _potential_polys

_X = ExactPoly.x()
_X2 = ExactPoly.monomial(1, 2)


class QuasiGaussian:
    """R(x) * exp(-x^2/6) with R rational."""

    __slots__ = ("rational",)

    def __init__(self, rational):
        object.__setattr__(self, "rational", RationalFn.coerce(rational))

    def __setattr__(self, name, value):  # pragma: no cover - guard
        raise AttributeError("QuasiGaussian is immutable")

    @property
    def is_zero(self) -> bool:
        return self.rational.is_zero

    def __eq__(self, other: object) -> bool:
        if not isinstance(other, QuasiGaussian):
            return NotImplemented
        return self.rational == other.rational

    def __hash__(self) -> int:
        return hash(self.rational)

    def __mul__(self, other):
        return QuasiGaussian(self.rational * RationalFn.coerce(other))

    __rmul__ = __mul__

    def __add__(self, other):
        if self.is_zero:
            return other
        if other.is_zero:
            return self
        return QuasiGaussian(self.rational + other.rational)

    def __sub__(self, other):
        return self + QuasiGaussian(-other.rational)

    def __neg__(self):
        return QuasiGaussian(-self.rational)

    def proportionality(self, other):
        if self.is_zero:
            return _ONE if other.is_zero else _ZERO
        if other.is_zero:
            return None
        return self.rational.proportionality(other.rational)

    def __repr__(self) -> str:
        return f"QuasiGaussian({self.rational!r} * exp(-x^2/6))"


def apply_first_order(op_sign: int, f: RationalFn, g: QuasiGaussian) -> QuasiGaussian:
    """(op_sign * d/dx + f) applied to g by the product rule."""
    if op_sign not in (-1, 1):
        raise ValueError("op_sign must be +1 or -1")
    r = g.rational
    if r.is_zero:
        return g
    # (R exp(-x^2/6))' = (B/D^2) exp(-x^2/6) for R = N/D and
    # B = N'D - ND' - (x/3) N D.
    n, d, b = r.num, r.den, f.den
    nd = n * d
    num = sum_of_products((
        (op_sign, (n.derivative(), d, b)),
        (-op_sign, (n, d.derivative(), b)),
        (Fraction(-op_sign, 3), (_X, nd, b)),
        (1, (f.num, nd)),
    ))
    den = sum_of_products(((1, (d, d, b)),))
    return QuasiGaussian(RationalFn(num, den, _reduced=den.degree == 0))


def second_terms(n: ExactPoly, d: ExactPoly, d2: ExactPoly, nd2: ExactPoly) -> list:
    """Terms of S, with ((N/D) exp(-x^2/6))'' = (S/D^3) exp(-x^2/6):

        S = N''D^2 - 2N'D'D - ND''D + 2ND'^2 - (2x/3)(N'D - ND')D + (x^2/9 - 1/3) N D^2.
    """
    dn, dd = n.derivative(), d.derivative()
    return [
        (1, (dn.derivative(), d2)),
        (-2, (dn, dd, d)),
        (-1, (n, dd.derivative(), d)),
        (2, (n, dd, dd)),
        (Fraction(-2, 3), (_X, dn, d2)),
        (Fraction(2, 3), (_X, n, dd, d)),
        (Fraction(1, 9), (_X2, nd2)),
        (Fraction(-1, 3), (nd2,)),
    ]


def hamiltonian_apply(h: HamiltonianK, g: QuasiGaussian) -> QuasiGaussian:
    """H g = -g'' + V g by the product rule, with V = h.v."""
    r, v = g.rational, h.v
    n, d = r.num, r.den
    d2 = d * d
    nd2 = n * d2
    second = sum_of_products(second_terms(n, d, d2, nd2))
    num = sum_of_products(((1, (v.num, nd2)), (-1, (second, v.den))))
    return QuasiGaussian(RationalFn(num, sum_of_products(((1, (d, d2, v.den)),))))


def ladder_apply(op: LadderOp, g: QuasiGaussian) -> QuasiGaussian:
    """The factors of op, right to left, each by the product rule."""
    for sign, f in reversed(op.factors):
        g = apply_first_order(sign, f, g)
    return g


def hamiltonian_residual(mode: ModeFunction) -> QuasiGaussian:
    """(-d^2/dx^2 + V - E) phi with phi = (P/Q) exp(-x^2/6), Q = Q_{k+1}:
    N/Q^3 exp(-x^2/6) with N = -S + (x^2 + 4k + 1 - E) P Q^2 - (4/9) Q_{k+2} Q_k P."""
    k, p = mode.k, mode.P
    q_k, q, q_k2 = _potential_polys(k)
    q2 = q * q
    pq2 = p * q2
    num = sum_of_products([
        *((-c, fs) for c, fs in second_terms(p, q, q2, pq2)),
        (1, (_X2, pq2)),
        (4 * k + 1 - mode.energy, (pq2,)),
        (Fraction(-4, 9), (q_k2, q_k, p)),
    ])
    if num.is_zero:
        return QuasiGaussian(RationalFn.zero())
    return QuasiGaussian(RationalFn(num, q * q2))


def eval_float(g: QuasiGaussian, x: float) -> float:
    """g at x: the rounded rational part times the double exp(-x^2/6), or
    sign(R)*exp(ln|R| - x^2/6) where R overflows or that double is not
    normal."""
    value = g.rational.eval(Fraction(x))
    base, gauss = _round(value), math.exp(-x * x / 6)
    if not value or (math.isfinite(base) and gauss >= sys.float_info.min):
        return base * gauss
    v, r, den = _graded(value)
    try:
        return value.sign() * math.exp(
            math.log(abs(v)) - math.log(den) + r * math.log(2) / 2 - x * x / 6
        )
    except OverflowError:
        return value.sign() * math.inf


def eval_array(g: QuasiGaussian, xs: np.ndarray) -> np.ndarray:
    """g on a grid, the rational part through numerics.eval_array."""
    r = g.rational
    vals = eval_rational(r, xs)
    with np.errstate(over="ignore", divide="ignore", invalid="ignore"):
        gauss = np.exp(-xs * xs / 6.0)
        far = ~np.isfinite(vals) | (gauss < sys.float_info.min)
        vals = np.where(far, 0.0, vals) * gauss
        if far.any():
            x, d = xs[far], r.num.degree - r.den.degree
            rev = lambda p: np.polynomial.polynomial.polyval(1.0 / x, _poly_array(p)[::-1])
            q = rev(r.num) / rev(r.den)
            log_abs = np.log(np.abs(q)) + d * np.log(np.abs(x))
            vals[far] = np.sign(q * x**d) * np.exp(log_abs - x * x / 6.0)
    return vals


# -- closed forms per tower j = 1, 2, 3 ------------------------------------


def energy(k: int, j: int, n: int) -> Fraction:
    if j == 1:
        return Fraction(2 * n)
    if j == 2:
        return 2 * k + 2 * n + Fraction(2, 3)
    if j == 3:
        return 2 * k + 2 * n + Fraction(4, 3)
    raise ValueError(f"sequence index j must be 1, 2 or 3, got {j}")


def mode_degree(k: int, j: int, n: int) -> int:
    if j == 1:
        return k * k - k + 3 * n
    if j == 2:
        return (k + 1) * (k + 1) + 3 * n
    if j == 3:
        return k * k + 2 * k + 2 + 3 * n
    raise ValueError(f"sequence index j must be 1, 2 or 3, got {j}")


def zero_mode_index(k: int, j: int, branch: str = "+") -> tuple[tuple[int, int], Fraction]:
    """(Okamoto index of the zero-mode polynomial, its energy)."""
    jj = 5 - j if branch == "-" and j in (2, 3) else j
    index = {1: (k, 0), 2: (k + 1, 1), 3: (k + 2, -1)}[jj]
    return index, energy(k, jj, 0)


def ladder_constant_sq(k: int, j: int, n: int) -> Fraction:
    np1 = Fraction(n + 1)
    if j == 1:
        return 8 * np1 * (n - k + Fraction(2, 3)) * (n - k + Fraction(1, 3))
    if j == 2:
        return 8 * np1 * (n + Fraction(2, 3)) * (n + k + Fraction(4, 3))
    if j == 3:
        return 8 * np1 * (n + Fraction(4, 3)) * (n + k + Fraction(5, 3))
    raise ValueError(f"sequence index j must be 1, 2 or 3, got {j}")


def sigma_index(k: int, j: int, n: int) -> int:
    if j == 1:
        return 3 * n
    if j == 2:
        return 3 * n + 3 * k + 1
    if j == 3:
        return 3 * n + 3 * k + 2
    raise ValueError(f"sequence index j must be 1, 2 or 3, got {j}")


def predicted_mode_count(k: int, j: int, n: int) -> int:
    if j == 1:
        return n if n <= k else 3 * n - 2 * k
    if j == 2:
        return 3 * n + k + 1
    if j == 3:
        return 3 * n + k + 2
    raise ValueError(f"sequence index j must be 1, 2 or 3, got {j}")


# -- closed forms per Painleve IV family f = 1, 2, 3 -----------------------


def family_parameters(family: int, m: int, n: int) -> tuple[Fraction, Fraction]:
    if family == 1:
        return Fraction(2 * m + n), -2 * (Fraction(n) - Fraction(1, 3)) ** 2
    if family == 2:
        return Fraction(-m - 2 * n), -2 * (Fraction(m) - Fraction(1, 3)) ** 2
    if family == 3:
        return Fraction(n - m), -2 * (Fraction(m + n) + Fraction(1, 3)) ** 2
    raise ValueError(f"family must be 1, 2 or 3, got {family}")


def log_form(family: int, m: int, n: int) -> RationalFn:
    """-2x/3 + (ln a/b)', reduced in the log derivative and again in the sum."""
    pairs = {1: ((m + 1, n), (m, n)), 2: ((m, n), (m, n + 1)), 3: ((m, n + 1), (m + 1, n))}
    a, b = pairs[family]
    minus_2x3 = RationalFn.from_poly(ExactPoly((0, Fraction(-2, 3))))
    return minus_2x3 + log_derivative(okamoto(*a), okamoto(*b))


def product_form(family: int, m: int, n: int) -> RationalFn:
    """The all-product representation -(sqrt2/3) N1 N2 / (a b) of the same solution."""
    c = RationalFn.constant(SQRT2 * Fraction(-1, 3))
    if family == 1:
        num = okamoto(m + 1, n - 1) * okamoto(m, n + 1)
        den = okamoto(m, n) * okamoto(m + 1, n)
    elif family == 2:
        num = okamoto(m + 1, n) * okamoto(m - 1, n + 1)
        den = okamoto(m, n + 1) * okamoto(m, n)
    else:
        num = okamoto(m + 1, n + 1) * okamoto(m, n)
        den = okamoto(m + 1, n) * okamoto(m, n + 1)
    return c * RationalFn(num, den)


def det_oracle(matrix, zero):
    """Minor expansion memoized over column subsets, O(n 2^n) products: the
    determinant `wronskian` used before Bareiss elimination."""
    n = len(matrix)
    memo = {}

    def minor(row, cols):
        if row == n:
            return None
        key = (row, cols)
        if key in memo:
            return memo[key]
        acc = None
        for idx, col in enumerate(cols):
            entry = matrix[row][col]
            sub = minor(row + 1, cols[:idx] + cols[idx + 1 :])
            term = entry if sub is None else entry * sub
            if idx % 2:
                term = -term
            acc = term if acc is None else acc + term
        memo[key] = acc
        return acc

    result = minor(0, tuple(range(n)))
    return zero if result is None else result
