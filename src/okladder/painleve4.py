"""Rational solutions of the fourth Painleve equation, hierarchy "-2x/3".

Solutions come in three families built from logarithmic derivatives of
quotients of generalized Okamoto polynomials, read from one table, with
equivalent product forms checked as theorems, each as one polynomial
identity.  The residual test and the eight parameter maps that generate
new solutions are exact.
"""

from __future__ import annotations

import math
from dataclasses import dataclass
from fractions import Fraction

from .errors import CertificateFailed, IndexOutOfCone, SingularMap, ZeroDenominator
from .exact_ring import SQRT2, ExactPoly, RationalFn, _wronskian_pair, sum_of_products
from .okamoto import in_cone, okamoto

_X = ExactPoly.x()
_X2 = ExactPoly.monomial(1, 2)
_SQRT2_3 = SQRT2 / 3


@dataclass(frozen=True)
class PIVSolution:
    """Solution w(x) of the fourth Painleve equation with parameters (alpha, beta)."""

    w: RationalFn
    alpha: Fraction
    beta: Fraction


# Family f at (m, n): alpha, s with beta = -2 s^2, the log-form pair (a, b)
# with w = -2x/3 + (ln a/b)' and the product-form pair (N1, N2) with
# w = -(sqrt2/3) N1 N2 / (a b), each pair as two Okamoto indices.
_THIRD = Fraction(1, 3)
_FAMILIES = {
    1: lambda m, n: (2 * m + n, n - _THIRD, ((m + 1, n), (m, n)), ((m + 1, n - 1), (m, n + 1))),
    2: lambda m, n: (-m - 2 * n, m - _THIRD, ((m, n), (m, n + 1)), ((m + 1, n), (m - 1, n + 1))),
    3: lambda m, n: (n - m, m + n + _THIRD, ((m, n + 1), (m + 1, n)), ((m + 1, n + 1), (m, n))),
}


def _family(family: int, m: int, n: int) -> tuple:
    """(alpha, s, log-form pair, product-form pair) of w^family_{m,n}."""
    if family not in (1, 2, 3):
        raise ValueError(f"family must be 1, 2 or 3, got {family}")
    return _FAMILIES[family](m, n)


def family_parameters(family: int, m: int, n: int) -> tuple[Fraction, Fraction]:
    """(alpha, beta) of w^family_{m,n}."""
    alpha, s, _, _ = _family(family, m, n)
    return Fraction(alpha), -2 * s * s


def _omega(a: ExactPoly, b: ExactPoly) -> ExactPoly:
    """omega = -(2x/3) a b + a'b - a b', the numerator of the log form
    -2x/3 + (ln a/b)' over a b."""
    return sum_of_products((
        (Fraction(-2, 3), (_X, a, b)),
        (1, (a.derivative(), b)),
        (-1, (a, b.derivative())),
    ))


def _log_parts(family: int, m: int, n: int) -> tuple[ExactPoly, ExactPoly, ExactPoly]:
    """(a, b, omega(a, b)): the log-form pair of w^family_{m,n} and the
    numerator of its log form over a b, unreduced."""
    a, b = (okamoto(*index) for index in _family(family, m, n)[2])
    return a, b, _omega(a, b)


def log_form(family: int, m: int, n: int) -> RationalFn:
    """w^family_{m,n} = -2x/3 + (ln a/b)' = omega(a, b) / (a b), reduced
    once, with (a, b) = (Q_{m+1,n}, Q_{m,n}), (Q_{m,n}, Q_{m,n+1}) or
    (Q_{m,n+1}, Q_{m+1,n}) for family 1, 2, 3."""
    a, b, num = _log_parts(family, m, n)
    return RationalFn(num, a * b)


def _check_product_form(key: tuple[int, int, int], num: ExactPoly) -> None:
    """Raise CertificateFailed unless the product form -(sqrt2/3) N1 N2 / (a b)
    of member key equals its log form num / (a b), num = omega(a, b): the
    two share their denominator, so the check is num + (sqrt2/3) N1 N2 = 0,
    one sum of products and no reduction.  Skipped when an index of N1 or
    N2 leaves the cone: family 1 at n = -1 and family 2 at m = 0."""
    product = _family(*key)[3]
    if not all(in_cone(*index) for index in product):
        return
    n1, n2 = (okamoto(*index) for index in product)
    if not sum_of_products(((1, (num,)), (_SQRT2_3, (n1, n2)))).is_zero:
        family, m, n = key
        raise CertificateFailed(
            f"product and logarithmic forms disagree for family {family}, ({m},{n})"
        )


# One certified PIVSolution per (family, m, n), shared by every caller as the
# Okamoto table shares Q_{m,n}.  Only solutions that passed are stored.
_SOLUTIONS: dict[tuple[int, int, int], PIVSolution] = {}


def rational_solution(family: int, m: int, n: int) -> PIVSolution:
    """Family member w^[family]_{m,n} in logarithmic-derivative form.

    The index cone is m >= 0, n >= -1 (parameter maps land on the n = -1
    column, which is why the polynomial table extends there).  Whenever the
    product-form indices stay inside the cone the two representations are
    checked exactly equal, raising CertificateFailed otherwise.  Each member
    is built and checked once per process.
    """
    if not in_cone(m, n):
        raise IndexOutOfCone("rational solutions are indexed by m >= 0, n >= -1")
    key = (family, m, n)
    sol = _SOLUTIONS.get(key)
    if sol is not None:
        return sol
    alpha, beta = family_parameters(family, m, n)
    a, b, num = _log_parts(family, m, n)
    _check_product_form(key, num)
    sol = _SOLUTIONS[key] = PIVSolution(RationalFn(num, a * b), alpha, beta)
    return sol


def piv_residual(s: PIVSolution) -> RationalFn:
    """w'' - w'^2/(2w) - (3/2)w^3 - 4x w^2 - 2(x^2 - alpha) w - beta/w, reduced.

    The combination is assembled over the single denominator 2*N*D^3 for
    w = N/D, so no intermediate reduction is needed; the result is zero
    exactly when w solves the equation at (alpha, beta).  With
    a = N'D - ND' the numerator is built nested,

        N [2(a'D - 2aD') - N (3N^2 + 8xND + (4x^2 - 4 alpha) D^2)] - a^2 - 2 beta D^4,

    which factors N out of the six terms that carry it.
    """
    w = s.w
    if w.is_zero:
        raise ZeroDenominator("residual of the identically-zero function")
    n, d = w.num, w.den
    dd = d.derivative()
    a = sum_of_products(((1, (n.derivative(), d)), (-1, (n, dd))))
    d2 = d * d
    inner = sum_of_products((
        (3, (n, n)),
        (8, (_X, n, d)),
        (4, (_X2, d2)),
        (-4 * s.alpha, (d2,)),
    ))
    bracket = sum_of_products(((2, (a.derivative(), d)), (-4, (a, dd)), (-1, (n, inner))))
    num = sum_of_products(((1, (n, bracket)), (-1, (a, a)), (-2 * s.beta, (d2, d2))))
    if num.is_zero:
        return RationalFn.zero()
    return RationalFn(num, n * d * d2 * 2)


def _sqrt_fraction(value: Fraction) -> Fraction:
    """Exact nonnegative square root of a rational, or raise."""
    if value < 0:
        raise SingularMap(f"negative radicand {value}")
    rn = math.isqrt(value.numerator)
    rd = math.isqrt(value.denominator)
    if rn * rn != value.numerator or rd * rd != value.denominator:
        raise SingularMap(f"{value} has no rational square root")
    return Fraction(rn, rd)


BACKLUND_MAPS = ("w1+", "w1-", "w2+", "w2-", "w3+", "w3-", "w4+", "w4-")

# Sign multiplying sqrt(-2*beta0) in the w3/w4 denominators, relative to the
# superscript sign e.  The source of these maps is ambiguous about the
# pairing; the values below are the unique choices whose images satisfy the
# equation on every hierarchy member (see README), and the alpha map carries
# the same sign as the denominator.
_W34_DENOMINATOR_SIGN_REL = {"w3": +1, "w4": -1}


def backlund(s: PIVSolution, map_name: str) -> PIVSolution:
    """One of the eight nonlinear maps generating new solutions."""
    if map_name not in BACKLUND_MAPS:
        raise ValueError(f"unknown map {map_name!r}")
    kind, e = map_name[:2], (1 if map_name[2] == "+" else -1)
    w0, a0, b0 = s.w, s.alpha, s.beta
    if w0.is_zero:
        raise SingularMap("maps are singular on the zero solution")
    c = _sqrt_fraction(-2 * b0)
    ec = Fraction(e) * c
    # With w0 = N/D: f+- = w0' +- (2x w0 + w0^2) = (wr +- quad) / D^2 for
    # wr = N'D - ND' and quad = 2x N D + N^2, so every image is one quotient
    # of polynomials in N and D, reduced once.
    n, d = w0.num, w0.den
    nd = n * d

    def f_plus_minus(sign: int, shift: Fraction) -> list:
        """Terms of wr + sign*quad + shift*D^2."""
        return [
            (1, (n.derivative(), d)),
            (-1, (n, d.derivative())),
            (2 * sign, (_X, nd)),
            (sign, (n, n)),
            (shift, (d, d)),
        ]

    if kind == "w1":
        w1 = RationalFn(sum_of_products(f_plus_minus(-1, -ec)), nd * 2)
        alpha = (2 - 2 * a0 + 3 * ec) / 4
        beta = -Fraction(1, 2) * (1 + a0 + ec / 2) ** 2
        return PIVSolution(w1, alpha, beta)
    if kind == "w2":
        w2 = RationalFn(sum_of_products((-c, fs) for c, fs in f_plus_minus(1, -ec)), nd * 2)
        alpha = -(2 + 2 * a0 + 3 * ec) / 4
        beta = -Fraction(1, 2) * (1 - a0 + ec / 2) ** 2
        return PIVSolution(w2, alpha, beta)
    dc = _W34_DENOMINATOR_SIGN_REL[kind] * ec
    # w3/w4 = w0 + 2 kappa w0 / (f+- + dc) = (N G + 2 kappa N D^2) / (D G)
    # with G = wr +- quad + dc D^2.
    if kind == "w3":
        g = sum_of_products(f_plus_minus(1, dc))
        if g.is_zero:
            raise SingularMap("w3 denominator vanishes identically")
        kappa = 1 - a0 - ec / 2
        alpha = Fraction(3, 2) - a0 / 2 - Fraction(3, 4) * dc
        beta = -Fraction(1, 2) * (1 - a0 + ec / 2) ** 2
    else:
        g = sum_of_products(f_plus_minus(-1, dc))
        if g.is_zero:
            raise SingularMap("w4 denominator vanishes identically")
        kappa = 1 + a0 + ec / 2
        alpha = -Fraction(3, 2) - a0 / 2 + Fraction(3, 4) * dc
        beta = -Fraction(1, 2) * (-1 - a0 + ec / 2) ** 2
    w34 = RationalFn(sum_of_products(((1, (n, g)), (2 * kappa, (nd, d)))), d * g)
    return PIVSolution(w34, alpha, beta)


def match_hierarchy_parameters(alpha: Fraction, beta: Fraction, bound: int = 12) -> list[tuple[int, int, int]]:
    """All (family, m, n) inside the cone m in [0, bound], n in [-1, bound]
    whose parameter pair equals (alpha, beta), in (family, m, n) order.

    `family_parameters` is inverted in closed form: beta = -2 s^2 fixes s up
    to sign, with s = n - 1/3, m - 1/3 and m + n + 1/3 in families 1, 2 and
    3, and alpha = 2m + n, -m - 2n and n - m then fixes the other index.
    """
    alpha = Fraction(alpha)
    try:
        r = _sqrt_fraction(-Fraction(beta) / 2)
    except SingularMap:
        return []
    third = Fraction(1, 3)
    candidates = []
    for s in {r, -r}:
        candidates.append((1, (alpha - s - third) / 2, s + third))
        candidates.append((2, s + third, (-alpha - s - third) / 2))
        candidates.append((3, (s - third - alpha) / 2, (s - third + alpha) / 2))
    return sorted(
        (family, int(m), int(n))
        for family, m, n in candidates
        if m.denominator == 1 and n.denominator == 1 and 0 <= m <= bound and -1 <= n <= bound
    )


def bilinear_identities(m: int, n: int) -> list[bool]:
    """Six exact bilinear identities tying neighbouring Q_{m,n} together.

    They encode the equality of pairs of the eight maps above on hierarchy
    members, and justify the product forms.  Identities 3-4 need m >= 1.
    """
    if m < 1 or n < 0:
        raise IndexOutOfCone("identities need m >= 1 and n >= 0")
    q = okamoto
    x = _X
    root2 = ExactPoly.constant(SQRT2)

    q_mn, q_m1n, q_mn1, q_m1n1 = q(m, n), q(m + 1, n), q(m, n + 1), q(m + 1, n + 1)
    q_m1nm1 = q(m + 1, n - 1)
    q_mm1n1 = q(m - 1, n + 1)

    checks = [
        # from comparing the first and eighth map on family 1
        x * q_m1n * q_mn1 * (-2) + _wronskian_pair(q_mn1, q_m1n) * 3 == -(root2 * q_mn * q_m1n1),
        _wronskian_pair(q_mn, q_m1n1) == -(root2 * q_m1n * q_mn1) * (3 * m + 3 * n + 1),
        # from comparing the third and fifth map on family 1
        x * q_mn1 * q_mn * (-2) + _wronskian_pair(q_mn, q_mn1) * 3 == -(root2 * q_m1n * q_mm1n1),
        _wronskian_pair(q_mm1n1, q_m1n) == -(root2 * q_mn1 * q_mn) * (3 * m - 1),
        # from comparing the first and eighth map on family 2
        x * q_mn * q_m1n * (-2) + _wronskian_pair(q_m1n, q_mn) * 3 == -(root2 * q_m1nm1 * q_mn1),
        _wronskian_pair(q_mn1, q_m1nm1) == root2 * q_mn * q_m1n * (3 * n - 1),
    ]
    return checks
