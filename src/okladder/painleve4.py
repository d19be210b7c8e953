"""Rational solutions of the fourth Painleve equation, hierarchy "-2x/3".

Solutions come in three families built from logarithmic derivatives of
quotients of generalized Okamoto polynomials, with equivalent product
forms checked as theorems.  The residual test and the eight parameter
maps that generate new solutions are exact.
"""

from __future__ import annotations

from dataclasses import dataclass
from fractions import Fraction

from .errors import CertificateFailed, IndexOutOfCone, SingularMap, ZeroDenominator
from .exact_ring import SQRT2, ExactPoly, RationalFn, SqrtTwoScalar, log_derivative
from .okamoto import okamoto

_X = ExactPoly.x()
_MINUS_2X3 = RationalFn.from_poly(ExactPoly((0, Fraction(-2, 3))))


@dataclass(frozen=True)
class PIVSolution:
    """Solution w(x) of the fourth Painleve equation with parameters (alpha, beta)."""

    w: RationalFn
    alpha: Fraction
    beta: Fraction


def family_parameters(family: int, m: int, n: int) -> tuple[Fraction, Fraction]:
    if family == 1:
        return Fraction(2 * m + n), -2 * (Fraction(n) - Fraction(1, 3)) ** 2
    if family == 2:
        return Fraction(-m - 2 * n), -2 * (Fraction(m) - Fraction(1, 3)) ** 2
    if family == 3:
        return Fraction(n - m), -2 * (Fraction(m + n) + Fraction(1, 3)) ** 2
    raise ValueError(f"family must be 1, 2 or 3, got {family}")


def log_form(family: int, m: int, n: int) -> RationalFn:
    """w^family_{m,n} = -2x/3 + (ln a/b)' with (a, b) = (Q_{m+1,n}, Q_{m,n}),
    (Q_{m,n}, Q_{m,n+1}) or (Q_{m,n+1}, Q_{m+1,n}) for family 1, 2, 3."""
    pairs = {1: ((m + 1, n), (m, n)), 2: ((m, n), (m, n + 1)), 3: ((m, n + 1), (m + 1, n))}
    if family not in pairs:
        raise ValueError(f"family must be 1, 2 or 3, got {family}")
    a, b = pairs[family]
    return _MINUS_2X3 + log_derivative(okamoto(*a), okamoto(*b))


def product_form(family: int, m: int, n: int) -> RationalFn:
    """The equivalent all-product representation of the same solution."""
    c = RationalFn.constant(SqrtTwoScalar(0, Fraction(-1, 3)))  # -sqrt2/3
    if family == 1:
        num = okamoto(m + 1, n - 1) * okamoto(m, n + 1)
        den = okamoto(m, n) * okamoto(m + 1, n)
    elif family == 2:
        if m < 1:
            raise IndexOutOfCone("product form of family 2 needs m >= 1")
        num = okamoto(m + 1, n) * okamoto(m - 1, n + 1)
        den = okamoto(m, n + 1) * okamoto(m, n)
    elif family == 3:
        num = okamoto(m + 1, n + 1) * okamoto(m, n)
        den = okamoto(m + 1, n) * okamoto(m, n + 1)
    else:
        raise ValueError(f"family must be 1, 2 or 3, got {family}")
    return c * RationalFn(num, den)


def rational_solution(family: int, m: int, n: int) -> PIVSolution:
    """Family member w^[family]_{m,n} in logarithmic-derivative form.

    The index cone is m >= 0, n >= -1 (parameter maps land on the n = -1
    column, which is why the polynomial table extends there).  Whenever the
    product-form indices stay inside the cone the two representations are
    checked exactly equal, raising CertificateFailed otherwise.
    """
    if m < 0 or n < -1:
        raise IndexOutOfCone("rational solutions are indexed by m >= 0, n >= -1")
    w = log_form(family, m, n)
    alpha, beta = family_parameters(family, m, n)
    if not (family == 2 and m == 0) and not (family == 1 and n == -1):
        if product_form(family, m, n) != w:
            raise CertificateFailed(
                f"product and logarithmic forms disagree for family {family}, ({m},{n})"
            )
    return PIVSolution(w=w, alpha=alpha, beta=beta)


def piv_residual(s: PIVSolution) -> RationalFn:
    """w'' - w'^2/(2w) - (3/2)w^3 - 4x w^2 - 2(x^2 - alpha) w - beta/w, reduced.

    The combination is assembled over the single denominator 2*N*D^3 for
    w = N/D, so no intermediate reduction is needed; the result is zero
    exactly when w solves the equation at (alpha, beta).
    """
    w = s.w
    if w.is_zero:
        raise ZeroDenominator("residual of the identically-zero function")
    n, d = w.num, w.den
    a = n.derivative() * d - n * d.derivative()
    n2 = n * n
    d2 = d * d
    x2_minus_alpha = ExactPoly((-s.alpha, 0, 1))
    num = (
        (a.derivative() * d - a * d.derivative() * 2) * n * 2
        - a * a
        - n2 * n2 * 3
        - n2 * n * d * ExactPoly((0, 8))
        - n2 * d2 * x2_minus_alpha * 4
        - d2 * d2 * (2 * s.beta)
    )
    return RationalFn(num, n * d * d2 * 2)


def _sqrt_fraction(value: Fraction) -> Fraction:
    """Exact nonnegative square root of a rational, or raise."""
    import math

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
    # With w0 = N/D: f+- = w0' +- (2x w0 + w0^2) = (wr +- quad) / D^2, so every
    # image is one quotient of polynomials in N and D, reduced once.
    n, d = w0.num, w0.den
    d2 = d * d
    wr = n.derivative() * d - n * d.derivative()
    quad = _X * n * d * 2 + n * n

    if kind == "w1":
        w1 = RationalFn(wr - quad - d2 * ec, n * d * 2)
        alpha = (2 - 2 * a0 + 3 * ec) / 4
        beta = -Fraction(1, 2) * (1 + a0 + ec / 2) ** 2
        return PIVSolution(w1, alpha, beta)
    if kind == "w2":
        w2 = RationalFn(-(wr + quad - d2 * ec), n * d * 2)
        alpha = -(2 + 2 * a0 + 3 * ec) / 4
        beta = -Fraction(1, 2) * (1 - a0 + ec / 2) ** 2
        return PIVSolution(w2, alpha, beta)
    dc = _W34_DENOMINATOR_SIGN_REL[kind] * ec
    # w3/w4 = w0 + 2 kappa w0 / (f+- + dc) = (N G + 2 kappa N D^2) / (D G)
    # with G = wr +- quad + dc D^2.
    if kind == "w3":
        g = wr + quad + d2 * dc
        if g.is_zero:
            raise SingularMap("w3 denominator vanishes identically")
        kappa = 1 - a0 - ec / 2
        alpha = Fraction(3, 2) - a0 / 2 - Fraction(3, 4) * dc
        beta = -Fraction(1, 2) * (1 - a0 + ec / 2) ** 2
    else:
        g = wr - quad + d2 * dc
        if g.is_zero:
            raise SingularMap("w4 denominator vanishes identically")
        kappa = 1 + a0 + ec / 2
        alpha = -Fraction(3, 2) - a0 / 2 + Fraction(3, 4) * dc
        beta = -Fraction(1, 2) * (-1 - a0 + ec / 2) ** 2
    w34 = RationalFn(n * (g + d2 * (2 * kappa)), d * g)
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

    def wr(a: ExactPoly, b: ExactPoly) -> ExactPoly:
        return a * b.derivative() - a.derivative() * b

    checks = [
        # from comparing the first and eighth map on family 1
        x * q_m1n * q_mn1 * (-2) + wr(q_m1n, q_mn1) * 3 == -(root2 * q_mn * q_m1n1),
        wr(q_m1n1, q_mn) == -(root2 * q_m1n * q_mn1) * (3 * m + 3 * n + 1),
        # from comparing the third and fifth map on family 1
        x * q_mn1 * q_mn * (-2) + wr(q_mn1, q_mn) * 3 == -(root2 * q_m1n * q_mm1n1),
        wr(q_m1n, q_mm1n1) == -(root2 * q_mn1 * q_mn) * (3 * m - 1),
        # from comparing the first and eighth map on family 2
        x * q_mn * q_m1n * (-2) + wr(q_mn, q_m1n) * 3 == -(root2 * q_m1nm1 * q_mn1),
        wr(q_m1nm1, q_mn1) == root2 * q_mn * q_m1n * (3 * n - 1),
    ]
    return checks
