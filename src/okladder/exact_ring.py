"""Exact arithmetic over Q(sqrt2).

Scalars a + b*sqrt(2) with arbitrary-precision rational a, b; dense
polynomials over them; reduced rational functions; and quasi-Gaussian
functions R(x)*exp(s*x^2/6) closed under first-order ladder factors.
All values are immutable and every operation is a pure function.
"""

from __future__ import annotations

import math
from fractions import Fraction
from typing import Iterable, Sequence, Union

from .errors import EmptyList, MixedKinds, NonZeroRemainder, ZeroDenominator

ScalarLike = Union["SqrtTwoScalar", Fraction, int]


def _sign(a, b) -> int:
    """Exact sign of a + b*sqrt2 for rational or integer a, b."""
    if not b:
        return -1 if a < 0 else (1 if a > 0 else 0)
    if not a:
        return 1 if b > 0 else -1
    sa = 1 if a > 0 else -1
    sb = 1 if b > 0 else -1
    if sa == sb:
        return sa
    # Opposite-signed parts: the larger of a^2, 2 b^2 decides.
    return sa if a * a > 2 * b * b else sb


class SqrtTwoScalar:
    """Element a + b*sqrt(2) of the real quadratic field Q(sqrt2).

    Sign and comparison are exact: a + b*sqrt2 is compared through the
    norm identity (a + b*sqrt2)(a - b*sqrt2) = a^2 - 2*b^2, never through
    floating point.
    """

    __slots__ = ("a", "b")

    def __init__(self, a: Fraction | int = 0, b: Fraction | int = 0) -> None:
        object.__setattr__(self, "a", a if type(a) is Fraction else Fraction(a))
        object.__setattr__(self, "b", b if type(b) is Fraction else Fraction(b))

    def __setattr__(self, name, value):  # pragma: no cover - guard
        raise AttributeError("SqrtTwoScalar is immutable")

    # -- constructors ------------------------------------------------------
    @classmethod
    def coerce(cls, value: ScalarLike) -> "SqrtTwoScalar":
        if isinstance(value, SqrtTwoScalar):
            return value
        return cls(Fraction(value), Fraction(0))

    # -- predicates --------------------------------------------------------
    @property
    def is_zero(self) -> bool:
        return not self.a and not self.b

    @property
    def is_rational(self) -> bool:
        return not self.b

    def __bool__(self) -> bool:
        return not self.is_zero

    # -- ring operations ---------------------------------------------------
    def __add__(self, other: ScalarLike) -> "SqrtTwoScalar":
        other = _operand(other)
        if other is None:
            return NotImplemented
        return SqrtTwoScalar(self.a + other.a, self.b + other.b)

    __radd__ = __add__

    def __sub__(self, other: ScalarLike) -> "SqrtTwoScalar":
        other = _operand(other)
        if other is None:
            return NotImplemented
        return SqrtTwoScalar(self.a - other.a, self.b - other.b)

    def __rsub__(self, other: ScalarLike) -> "SqrtTwoScalar":
        other = _operand(other)
        return NotImplemented if other is None else other - self

    def __neg__(self) -> "SqrtTwoScalar":
        return SqrtTwoScalar(-self.a, -self.b)

    def __mul__(self, other: ScalarLike) -> "SqrtTwoScalar":
        other = _operand(other)
        if other is None:
            return NotImplemented
        return SqrtTwoScalar(
            self.a * other.a + 2 * self.b * other.b,
            self.a * other.b + self.b * other.a,
        )

    __rmul__ = __mul__

    def conjugate(self) -> "SqrtTwoScalar":
        return SqrtTwoScalar(self.a, -self.b)

    def norm(self) -> Fraction:
        """Field norm a^2 - 2*b^2."""
        return self.a * self.a - 2 * self.b * self.b

    def inverse(self) -> "SqrtTwoScalar":
        n = self.norm()
        if not n:
            raise ZeroDivisionError("inverse of zero in Q(sqrt2)")
        return SqrtTwoScalar(self.a / n, -self.b / n)

    def __truediv__(self, other: ScalarLike) -> "SqrtTwoScalar":
        other = _operand(other)
        return NotImplemented if other is None else self * other.inverse()

    def __rtruediv__(self, other: ScalarLike) -> "SqrtTwoScalar":
        other = _operand(other)
        return NotImplemented if other is None else other * self.inverse()

    def __pow__(self, exponent: int) -> "SqrtTwoScalar":
        if exponent < 0:
            return self.inverse() ** (-exponent)
        result = SqrtTwoScalar(1, 0)
        base = self
        n = exponent
        while n:
            if n & 1:
                result = result * base
            base = base * base
            n >>= 1
        return result

    # -- order -------------------------------------------------------------
    def sign(self) -> int:
        """Exact sign in {-1, 0, +1}; a^2 is compared against 2*b^2."""
        return _sign(self.a, self.b)

    def __eq__(self, other: object) -> bool:
        if isinstance(other, (int, Fraction)):
            return self.b == 0 and self.a == other
        if isinstance(other, SqrtTwoScalar):
            return self.a == other.a and self.b == other.b
        return NotImplemented

    def __hash__(self) -> int:
        # rational elements hash like their Fraction so == stays consistent
        return hash(self.a) if not self.b else hash((self.a, self.b))

    def _compare(self, other) -> int | None:
        """Sign of self - other, or None for an operand that is no scalar."""
        other = _operand(other)
        return None if other is None else _sign(self.a - other.a, self.b - other.b)

    def __lt__(self, other: ScalarLike) -> bool:
        s = self._compare(other)
        return NotImplemented if s is None else s < 0

    def __le__(self, other: ScalarLike) -> bool:
        s = self._compare(other)
        return NotImplemented if s is None else s <= 0

    def __gt__(self, other: ScalarLike) -> bool:
        s = self._compare(other)
        return NotImplemented if s is None else s > 0

    def __ge__(self, other: ScalarLike) -> bool:
        s = self._compare(other)
        return NotImplemented if s is None else s >= 0

    def __float__(self) -> float:
        return float(self.a) + float(self.b) * math.sqrt(2.0)

    def __repr__(self) -> str:
        return f"SqrtTwoScalar({self.a!r}, {self.b!r})"

    def __str__(self) -> str:
        if not self.b:
            return str(self.a)
        if not self.a:
            return f"{self.b}*sqrt2"
        return f"({self.a}{'+' if self.b > 0 else '-'}{abs(self.b)}*sqrt2)"


def _operand(value) -> SqrtTwoScalar | None:
    """value as a scalar when it is an int, Fraction or SqrtTwoScalar; None for
    any other operand, whose own reflected method should then run."""
    if isinstance(value, SqrtTwoScalar):
        return value
    if isinstance(value, (int, Fraction)):
        return SqrtTwoScalar(value, 0)
    return None


SQRT2 = SqrtTwoScalar(0, 1)
_ZERO = SqrtTwoScalar(0, 0)
_ONE = SqrtTwoScalar(1, 0)


def _scalar(a: int, b: int, den: int) -> SqrtTwoScalar:
    """(a + b*sqrt2)/den from integers, den > 0."""
    if not a and not b:
        return _ZERO
    return SqrtTwoScalar(Fraction(a, den), Fraction(b, den))


def _scalar_ints(c: SqrtTwoScalar) -> tuple[int, int, int]:
    """(a, b, den) with c = (a + b*sqrt2)/den, integers, den > 0."""
    da, db = c.a.denominator, c.b.denominator
    den = da * db // math.gcd(da, db)
    return c.a.numerator * (den // da), c.b.numerator * (den // db), den


# Primes p = 7 (mod 8), so 2 is a quadratic residue and sqrt2 has a mod-p
# image; used for fast coprimality certificates in the polynomial gcd.
_CERT_PRIMES: list[tuple[int, int]] = []
for _p in (2**61 - 1, 2**31 - 1):
    _s = pow(2, (_p + 1) // 4, _p)
    if _s * _s % _p != 2:
        raise ArithmeticError(f"2 is not a square mod {_p}")
    _CERT_PRIMES.append((_p, _s))


class ExactPoly:
    """Dense polynomial over Q(sqrt2), ascending coefficients.

    Stored as integer arrays: coefficient i is (A_i + B_i*sqrt2)/den, in the
    one canonical form den > 0, gcd(den, all A_i, all B_i) = 1 and a nonzero
    top entry, so equality is structural.  The zero polynomial stores empty
    arrays over den = 1 and reports degree -1.  The arrays are tuples and
    are never replaced; `coeffs` is a view of them as scalars, built on
    first use.

    Arithmetic runs on integer kernels for one line, Q[x] or sqrt2*Q[x]:
    `_conv`, `_square_ints` and `_divmod_ints`.  An operand with both parts
    is reduced to them: three convolutions per product (Karatsuba), three
    squares by polarization, a dividend divided part by part, and a divisor
    G replaced by its norm G*conj(G), which lies in Q[x].
    """

    __slots__ = ("_a", "_b", "_den", "_coeffs")

    def __new__(cls, coeffs: Iterable[ScalarLike] = ()) -> "ExactPoly":
        cs = [SqrtTwoScalar.coerce(c) for c in coeffs]
        while cs and cs[-1].is_zero:
            cs.pop()
        den = 1
        for c in cs:
            den = math.lcm(den, c.a.denominator, c.b.denominator)
        # den is the lcm of the denominators, so the arrays are canonical.
        return _raw(
            tuple(c.a.numerator * (den // c.a.denominator) for c in cs),
            tuple(c.b.numerator * (den // c.b.denominator) for c in cs),
            den,
            tuple(cs),
        )

    def __setattr__(self, name, value):  # pragma: no cover - guard
        raise AttributeError("ExactPoly is immutable")

    # -- constructors ------------------------------------------------------
    @classmethod
    def zero(cls) -> "ExactPoly":
        return _raw((), (), 1)

    @classmethod
    def one(cls) -> "ExactPoly":
        return _raw((1,), (0,), 1)

    @classmethod
    def x(cls) -> "ExactPoly":
        return _raw((0, 1), (0, 0), 1)

    @classmethod
    def monomial(cls, coeff: ScalarLike, degree: int) -> "ExactPoly":
        c = SqrtTwoScalar.coerce(coeff)
        if c.is_zero:
            return cls.zero()
        a, b, den = _scalar_ints(c)
        return _raw((0,) * degree + (a,), (0,) * degree + (b,), den)

    @classmethod
    def constant(cls, c: ScalarLike) -> "ExactPoly":
        c = SqrtTwoScalar.coerce(c)
        if c.is_zero:
            return cls.zero()
        a, b, den = _scalar_ints(c)
        return _raw((a,), (b,), den)

    # -- basic queries ------------------------------------------------------
    @property
    def coeffs(self) -> tuple[SqrtTwoScalar, ...]:
        """The coefficients as scalars, ascending; built from the integer
        arrays on first use and cached."""
        cs = self._coeffs
        if cs is None:
            den = self._den
            cs = tuple(_scalar(a, b, den) for a, b in zip(self._a, self._b))
            object.__setattr__(self, "_coeffs", cs)
        return cs

    @property
    def is_zero(self) -> bool:
        return not self._a

    @property
    def degree(self) -> int:
        return len(self._a) - 1

    @property
    def leading(self) -> SqrtTwoScalar:
        if not self._a:
            raise ValueError("zero polynomial has no leading coefficient")
        return _scalar(self._a[-1], self._b[-1], self._den)

    def coeff(self, i: int) -> SqrtTwoScalar:
        if 0 <= i < len(self._a):
            return _scalar(self._a[i], self._b[i], self._den)
        return _ZERO

    def parity(self) -> int | None:
        """0 for even, 1 for odd, None for mixed; zero counts as even."""
        a, b = self._a, self._b
        if not a:
            return 0
        p = (len(a) - 1) % 2
        if any(a[i] or b[i] for i in range(1 - p, len(a), 2)):
            return None
        return p

    def __bool__(self) -> bool:
        return not self.is_zero

    def __eq__(self, other: object) -> bool:
        if isinstance(other, ExactPoly):
            return self._den == other._den and self._a == other._a and self._b == other._b
        if isinstance(other, (int, Fraction, SqrtTwoScalar)):
            return self == ExactPoly.constant(other)
        return NotImplemented

    def __hash__(self) -> int:
        cs = self.coeffs
        if len(cs) <= 1:
            return hash(cs[0]) if cs else hash(0)
        return hash(cs)

    # -- arithmetic ----------------------------------------------------------
    def _combine(self, other: "ExactPoly", sign: int) -> "ExactPoly":
        """self + sign*other over the common denominator lcm(den1, den2)."""
        d1, d2 = self._den, other._den
        if d1 == d2:
            m1, m2 = 1, sign
        else:
            g = math.gcd(d1, d2)
            m1, m2 = d2 // g, sign * (d1 // g)
        a = [v * m1 for v in self._a]
        b = [v * m1 for v in self._b]
        a2, b2 = other._a, other._b
        if len(a2) > len(a):
            pad = [0] * (len(a2) - len(a))
            a += pad
            b += pad
        for i, v in enumerate(a2):
            a[i] += m2 * v
        for i, v in enumerate(b2):
            b[i] += m2 * v
        return _make(a, b, d1 * m1)

    def __add__(self, other: "ExactPoly") -> "ExactPoly":
        if not isinstance(other, ExactPoly):
            other = ExactPoly.constant(other)
        return self._combine(other, 1)

    __radd__ = __add__

    def __neg__(self) -> "ExactPoly":
        return _raw(tuple(-v for v in self._a), tuple(-v for v in self._b), self._den)

    def __sub__(self, other) -> "ExactPoly":
        if not isinstance(other, ExactPoly):
            other = ExactPoly.constant(other)
        return self._combine(other, -1)

    def __rsub__(self, other) -> "ExactPoly":
        return ExactPoly.constant(other) - self

    def _int_arrays(self) -> tuple[tuple[int, ...], tuple[int, ...], int]:
        """Return (A, B, den) with coeff_i = (A_i + B_i*sqrt2)/den, integers."""
        return self._a, self._b, self._den

    def _scale(self, c: ScalarLike) -> "ExactPoly":
        """self * c for a scalar c."""
        if type(c) is int:
            ca, cb, cd = c, 0, 1
        else:
            ca, cb, cd = _scalar_ints(SqrtTwoScalar.coerce(c))
        A, B = self._a, self._b
        if not (ca or cb) or not A:
            return ExactPoly.zero()
        if not cb:
            a = [v * ca for v in A]
            b = [v * ca for v in B]
        elif not ca:
            a = [2 * cb * v for v in B]
            b = [cb * v for v in A]
        else:
            a = [x * ca + 2 * y * cb for x, y in zip(A, B)]
            b = [x * cb + y * ca for x, y in zip(A, B)]
        return _make(a, b, self._den * cd)

    def _line(self) -> tuple[tuple[int, ...], int] | None:
        """(X, r) with self = sqrt2**r * X/den and r in {0, 1} when self lies
        in Q[x] or sqrt2*Q[x]; None when both parts are nonzero."""
        A, B = self._a, self._b
        if not any(B):
            return A, 0
        if not any(A):
            return B, 1
        return None

    def __mul__(self, other) -> "ExactPoly":
        if not isinstance(other, ExactPoly):
            if isinstance(other, (int, Fraction, SqrtTwoScalar)):
                return self._scale(other)
            return NotImplemented
        if not self._a or not other._a:
            return ExactPoly.zero()
        if other is self:
            return self._square()
        den = self._den * other._den
        line1, line2 = self._line(), other._line()
        if line1 is not None and line2 is not None:
            (X1, r1), (X2, r2) = line1, line2
            return _lift(_conv(X1, X2), r1 + r2, den)
        # (A1 + B1 sqrt2)(A2 + B2 sqrt2) by three convolutions (Karatsuba):
        # A1 A2 + 2 B1 B2 and (A1 + B1)(A2 + B2) - A1 A2 - B1 B2.
        A1, B1, A2, B2 = self._a, self._b, other._a, other._b
        aa, bb = _conv(A1, A2), _conv(B1, B2)
        t = _conv([x + y for x, y in zip(A1, B1)], [x + y for x, y in zip(A2, B2)])
        return _make(
            [x + 2 * y for x, y in zip(aa, bb)], [z - x - y for x, y, z in zip(aa, bb, t)], den
        )

    __rmul__ = __mul__

    def _square(self) -> "ExactPoly":
        """self * self, nonzero, with each cross term computed once and
        doubled: about half the products of a general multiplication."""
        return _quadratic(_square_ints, self, self._den * self._den)

    def _toda_rhs(self, c: int) -> "ExactPoly":
        """(9/2)(q q'' - q'^2) + (2x^2 + 3c) q^2 for q = self: the right side
        of both Okamoto recurrences, on the integer kernel `_toda_ints`."""
        return _quadratic(lambda X: _toda_ints(X, c), self, 2 * self._den * self._den)

    def __pow__(self, exponent: int) -> "ExactPoly":
        if exponent < 0:
            raise ValueError("negative polynomial power")
        result = ExactPoly.one()
        base = self
        n = exponent
        while n:
            if n & 1:
                result = result * base
            base = base * base
            n >>= 1
        return result

    def __divmod__(self, other: "ExactPoly") -> tuple["ExactPoly", "ExactPoly"]:
        if other.is_zero:
            raise ZeroDivisionError("polynomial division by zero")
        if self.degree < other.degree:
            return ExactPoly.zero(), self
        line2 = other._line()
        if line2 is None:
            # With N = G conj(G) in Q[x], P conj(G) = Q N + R conj(G) and
            # deg(R conj(G)) < deg N: dividing by N gives the same quotient.
            conj = _raw(other._a, tuple(-v for v in other._b), other._den)
            q, _ = divmod(self * conj, other * conj)
            return q, self - q * other
        # sqrt2**r1 X = (sqrt2**(r1-r2) Q) (sqrt2**r2 Y) + sqrt2**r1 R
        # from X = Q Y + R: one integer update per inner step.
        Y, r2 = line2
        line1 = self._line()
        if line1 is not None:
            X, r1 = line1
            quot, rem, den = _divmod_ints(X, self._den, Y, other._den)
            return _lift(quot, r1 - r2, den), _lift(rem, r1, den)
        # A dividend with both parts is divided line by line.
        qa, ra, da = _divmod_ints(self._a, self._den, Y, other._den)
        qb, rb, db = _divmod_ints(self._b, self._den, Y, other._den)
        return _lift(qa, -r2, da) + _lift(qb, 1 - r2, db), _lift(ra, 0, da) + _lift(rb, 1, db)

    def exact_div(self, other: "ExactPoly") -> "ExactPoly":
        q, r = divmod(self, other)
        if not r.is_zero:
            raise NonZeroRemainder(
                f"degree-{other.degree} divisor does not divide degree-{self.degree} dividend"
            )
        return q

    def derivative(self) -> "ExactPoly":
        A, B = self._a, self._b
        return _make(
            [i * A[i] for i in range(1, len(A))], [i * B[i] for i in range(1, len(B))], self._den
        )

    def eval(self, x: ScalarLike) -> SqrtTwoScalar:
        """Value at x by Horner's rule on the integer arrays.  With
        x = (xa + xb*sqrt2)/xd, the running value is held as
        (ua + ub*sqrt2)/(den*scale) with scale = xd^steps."""
        A, B = self._a, self._b
        if not A:
            return _ZERO
        xa, xb, xd = _scalar_ints(SqrtTwoScalar.coerce(x))
        ua, ub, scale = A[-1], B[-1], 1
        for i in range(len(A) - 2, -1, -1):
            scale *= xd
            ua, ub = ua * xa + 2 * ub * xb + A[i] * scale, ua * xb + ub * xa + B[i] * scale
        return _scalar(ua, ub, self._den * scale)

    def __call__(self, x: ScalarLike) -> SqrtTwoScalar:
        return self.eval(x)

    # -- normal forms --------------------------------------------------------
    def monic(self) -> "ExactPoly":
        if self.is_zero:
            return self
        return self * self.leading.inverse()

    def lattice_primitive(self, keep_sign: bool = False) -> "ExactPoly":
        """Scale to integer (a, b) parts with content 1; the leading sign is
        normalized positive unless keep_sign (scaling by a positive rational
        only, as Sturm chains require)."""
        A, B = self._a, self._b
        if not A:
            return self
        g = math.gcd(*A, *B)
        if not keep_sign and _sign(A[-1], B[-1]) < 0:
            g = -g
        return _raw(tuple(v // g for v in A), tuple(v // g for v in B), 1)

    def proportionality(self, other: "ExactPoly") -> SqrtTwoScalar | None:
        """Scalar c with self == c*other, or None if not proportional."""
        if self.is_zero:
            return _ONE if other.is_zero else _ZERO
        if other.is_zero or self.degree != other.degree:
            return None
        c = self.leading / other.leading
        return c if self == other * c else None

    # -- serialization -------------------------------------------------------
    def to_json_dict(self) -> dict:
        return {
            "coeffs": [
                [f"{c.a.numerator}/{c.a.denominator}", f"{c.b.numerator}/{c.b.denominator}"]
                for c in self.coeffs
            ]
        }

    @classmethod
    def from_json_dict(cls, data: dict) -> "ExactPoly":
        return cls(
            tuple(SqrtTwoScalar(Fraction(a), Fraction(b)) for a, b in data["coeffs"])
        )

    def __repr__(self) -> str:
        return f"ExactPoly({self.pretty()})"

    def pretty(self, var: str = "x") -> str:
        if self.is_zero:
            return "0"
        parts = []
        for i in range(self.degree, -1, -1):
            c = self.coeffs[i]
            if c.is_zero:
                continue
            if i == 0:
                parts.append(str(c))
            else:
                xs = var if i == 1 else f"{var}^{i}"
                parts.append(xs if c == _ONE else f"{c}*{xs}")
        return " + ".join(parts).replace("+ -", "- ")


def _raw(a: tuple, b: tuple, den: int, coeffs: tuple | None = None) -> ExactPoly:
    """ExactPoly from arrays already in canonical form."""
    p = object.__new__(ExactPoly)
    object.__setattr__(p, "_a", a)
    object.__setattr__(p, "_b", b)
    object.__setattr__(p, "_den", den)
    object.__setattr__(p, "_coeffs", coeffs)
    return p


def _make(a: list[int], b: list[int], den: int) -> ExactPoly:
    """ExactPoly (a_i + b_i*sqrt2)/den, den > 0, brought to canonical form;
    the lists are fresh and trimmed here in place."""
    n = len(a)
    while n and not a[n - 1] and not b[n - 1]:
        n -= 1
    if not n:
        return _raw((), (), 1)
    del a[n:], b[n:]
    if den > 1:
        g = math.gcd(den, *a, *b)
        if g > 1:
            return _raw(tuple(v // g for v in a), tuple(v // g for v in b), den // g)
    return _raw(tuple(a), tuple(b), den)


def _lift(x: list[int], r: int, den: int) -> ExactPoly:
    """sqrt2**r * x/den in canonical form, for r in {-1, 0, 1, 2}: the
    result of a single-line product or quotient put back on its line."""
    zeros = [0] * len(x)
    if r == 0:
        return _make(x, zeros, den)
    if r == 2:
        return _make([2 * v for v in x], zeros, den)
    return _make(zeros, x, den if r == 1 else 2 * den)


def _conv(X: Sequence[int], Y: Sequence[int]) -> list[int]:
    """Integer array of the product of the integer polynomials X and Y, both
    nonempty, skipping zero entries."""
    out = [0] * (len(X) + len(Y) - 1)
    terms = [(j, y) for j, y in enumerate(Y) if y]
    for i, x in enumerate(X):
        if x:
            for j, y in terms:
                out[i + j] += x * y
    return out


def _square_ints(X: Sequence[int]) -> list[int]:
    """Integer array of X squared, each cross product made once and doubled."""
    out = [0] * (2 * len(X) - 1)
    terms = [(i, x) for i, x in enumerate(X) if x]
    for t, (i, x1) in enumerate(terms):
        out[2 * i] += x1 * x1
        x1 *= 2
        for j, x2 in terms[t + 1 :]:
            out[i + j] += x1 * x2
    return out


def _quadratic(kernel, p: ExactPoly, den: int) -> ExactPoly:
    """phi(p) over den, for a quadratic form phi whose integer kernel maps X
    to den * phi(X/p._den).  phi(sqrt2 s) = 2 phi(s) and, by polarization,
    phi(r + sqrt2 s) = phi(r) + 2 phi(s) + sqrt2 (phi(r + s) - phi(r) - phi(s))."""
    line = p._line()
    if line is not None:
        X, r = line
        return _lift(kernel(X), 2 * r, den)
    A, B = p._a, p._b
    r, s = kernel(A), kernel(B)
    t = kernel([x + y for x, y in zip(A, B)])
    return _make([x + 2 * y for x, y in zip(r, s)], [z - x - y for x, y, z in zip(r, s, t)], den)


def _divmod_ints(
    X: Sequence[int], dp: int, Y: Sequence[int], dg: int
) -> tuple[list[int], list[int], int]:
    """(Q, R, den) with X/dp = (Q/den)(Y/dg) + R/den for integer arrays with
    len(X) >= len(Y): the long division of `ExactPoly.__divmod__` on one
    line.  The remainder is held as r/(dp*scale) and moves to a finer scale
    only when a quotient step is not integral."""
    r = list(X)
    last = len(Y) - 1
    lead = Y[last]
    terms = [(j, Y[j]) for j in range(last) if Y[j]]
    scale = 1
    steps = []
    for i in range(len(X) - 1 - last, -1, -1):
        u = r[i + last]
        if not u:
            continue
        if u % lead:
            f = abs(lead) // math.gcd(lead, u)
            top = i + last
            r[:top] = [v * f for v in r[:top]]
            scale *= f
            u *= f
        q = u // lead
        steps.append((i, q, scale))
        for j, y in terms:
            r[i + j] -= q * y
    # The quotient entry made at scale s is q*dg/(dp*s); the final scale is
    # a multiple of every earlier one.
    quot = [0] * (len(X) - last)
    for i, q, s in steps:
        quot[i] = q * dg * (scale // s)
    del r[last:]
    return quot, r, dp * scale


def _toda_ints(A: Sequence[int], c: int) -> list[int]:
    """Integer array of 2*(9/2 (a a'' - a'^2) + (2x^2 + 3c) a^2) for the
    integer polynomial a = sum A_i x^i, length 2*len(A) + 1.

    One pass over the nonzero pairs i <= j: each product A_i*A_j is made
    once and feeds both the bilinear sum, with weight (j-i)^2 - (i+j) at
    x^(i+j-2) (-i on the diagonal), and the square sum at x^(i+j).  Pairs
    with i + j < 2 have weight zero, so no negative power arises."""
    n = len(A)
    bil = [0] * (2 * n - 1)
    diag = [0] * (2 * n - 1)
    cross = [0] * (2 * n - 1)
    terms = [(i, a) for i, a in enumerate(A) if a]
    for t, (i, a1) in enumerate(terms):
        p = a1 * a1
        diag[2 * i] += p
        if i:
            bil[2 * i] -= i * p
        for j, a2 in terms[t + 1 :]:
            p = a1 * a2
            s = i + j
            cross[s] += p
            w = (j - i) * (j - i) - s
            if w:
                bil[s] += w * p
    sq = [x + 2 * y for x, y in zip(diag, cross)]
    # 9 bil(x^(s-2)) + (4x^2 + 6c) sq, over twice the squared denominator.
    out = [0] * (2 * n + 1)
    c6 = 6 * c
    for s, v in enumerate(sq):
        if v:
            out[s] += c6 * v
            out[s + 2] += 4 * v
    for s in range(2, 2 * n - 1):
        if bil[s]:
            out[s - 2] += 9 * bil[s]
    return out


def _mod_image(p: ExactPoly, prime: int, sqrt2_image: int) -> list[int] | None:
    """Coefficients of p mod prime with sqrt2 -> sqrt2_image, or None if the
    denominator or the leading coefficient vanishes mod prime."""
    A, B, den = p._int_arrays()
    if den % prime == 0:
        return None
    inv_den = pow(den, -1, prime)
    out = [((a + sqrt2_image * b) % prime) * inv_den % prime for a, b in zip(A, B)]
    if out and out[-1] == 0:
        return None
    return out


def _gcd_mod_p(f: list[int], g: list[int], p: int) -> int:
    """Degree of gcd of f, g over F_p (coefficient lists, ascending)."""

    def rstrip(c: list[int]) -> list[int]:
        while c and c[-1] == 0:
            c.pop()
        return c

    a, b = rstrip(list(f)), rstrip(list(g))
    if len(a) < len(b):
        a, b = b, a
    while b:
        inv = pow(b[-1], -1, p)
        while len(a) >= len(b):
            c = a[-1] * inv % p
            if c:
                off = len(a) - len(b)
                for i, bi in enumerate(b):
                    a[off + i] = (a[off + i] - c * bi) % p
            a.pop()
            rstrip(a)
            if not a:
                break
        a, b = b, rstrip(a)
    return len(a) - 1


def _certified_coprime(p: ExactPoly, q: ExactPoly) -> bool:
    """True only with proof: a unit gcd of the mod-prime images certifies
    coprimality over Q(sqrt2)."""
    for prime, s in _CERT_PRIMES:
        fp = _mod_image(p, prime, s)
        gp = _mod_image(q, prime, s)
        if fp is None or gp is None:
            continue
        return _gcd_mod_p(fp, gp, prime) == 0
    return False


def poly_gcd(p: ExactPoly, q: ExactPoly) -> ExactPoly:
    """Monic gcd over Q(sqrt2).

    Fast path: a modular coprimality certificate. Fallback: primitive
    remainder sequence over the integer (a, b) lattice, which avoids the
    coefficient blowup of naive fraction Euclid.
    """
    if p.is_zero:
        return q.monic() if not q.is_zero else ExactPoly.zero()
    if q.is_zero:
        return p.monic()
    if p.degree == 0 or q.degree == 0:
        return ExactPoly.one()
    if _certified_coprime(p, q):
        return ExactPoly.one()
    a, b = p.lattice_primitive(), q.lattice_primitive()
    if a.degree < b.degree:
        a, b = b, a
    while not b.is_zero:
        _, r = divmod(a, b)
        a, b = b, (r.lattice_primitive() if not r.is_zero else r)
    return a.monic()


class RationalFn:
    """Reduced quotient of two ExactPoly.

    Canonical form: numerator and denominator share no nonconstant factor
    and the denominator is monic, so equality is structural.
    """

    __slots__ = ("num", "den")

    def __init__(self, num: ExactPoly, den: ExactPoly | None = None, *, _reduced: bool = False) -> None:
        if den is None:
            den = ExactPoly.one()
        if den.is_zero:
            raise ZeroDenominator("rational function with zero denominator")
        if num.is_zero:
            num, den = ExactPoly.zero(), ExactPoly.one()
        else:
            if not _reduced:
                g = poly_gcd(num, den)
                if g.degree > 0:
                    num = num.exact_div(g)
                    den = den.exact_div(g)
            if den._b[-1] or den._a[-1] != den._den:
                inv = den.leading.inverse()
                num = num * inv
                den = den * inv
        object.__setattr__(self, "num", num)
        object.__setattr__(self, "den", den)

    def __setattr__(self, name, value):  # pragma: no cover - guard
        raise AttributeError("RationalFn is immutable")

    # -- constructors ------------------------------------------------------
    @classmethod
    def from_poly(cls, p: ExactPoly) -> "RationalFn":
        return cls(p, ExactPoly.one(), _reduced=True)

    @classmethod
    def zero(cls) -> "RationalFn":
        return cls.from_poly(ExactPoly.zero())

    @classmethod
    def one(cls) -> "RationalFn":
        return cls.from_poly(ExactPoly.one())

    @classmethod
    def constant(cls, c: ScalarLike) -> "RationalFn":
        return cls.from_poly(ExactPoly.constant(c))

    @classmethod
    def x(cls) -> "RationalFn":
        return cls.from_poly(ExactPoly.x())

    @classmethod
    def coerce(cls, value) -> "RationalFn":
        if isinstance(value, RationalFn):
            return value
        if isinstance(value, ExactPoly):
            return cls.from_poly(value)
        return cls.constant(value)

    # -- queries -------------------------------------------------------------
    @property
    def is_zero(self) -> bool:
        return self.num.is_zero

    @property
    def is_polynomial(self) -> bool:
        return self.den.degree == 0

    def as_poly(self) -> ExactPoly:
        if not self.is_polynomial:
            raise NonZeroRemainder("rational function is not a polynomial")
        return self.num  # denominator is monic degree 0, i.e. exactly 1

    def __bool__(self) -> bool:
        return not self.is_zero

    def __eq__(self, other: object) -> bool:
        if isinstance(other, RationalFn):
            return self.num == other.num and self.den == other.den
        if isinstance(other, (ExactPoly, int, Fraction, SqrtTwoScalar)):
            return self == RationalFn.coerce(other)
        return NotImplemented

    def __hash__(self) -> int:
        return hash(self.num) if self.is_polynomial else hash((self.num, self.den))

    # -- arithmetic ------------------------------------------------------------
    def __add__(self, other) -> "RationalFn":
        other = RationalFn.coerce(other)
        if self.den == other.den:
            return RationalFn(self.num + other.num, self.den)
        return RationalFn(self.num * other.den + other.num * self.den, self.den * other.den)

    __radd__ = __add__

    def __neg__(self) -> "RationalFn":
        return RationalFn(-self.num, self.den, _reduced=True)

    def __sub__(self, other) -> "RationalFn":
        return self + (-RationalFn.coerce(other))

    def __rsub__(self, other) -> "RationalFn":
        return RationalFn.coerce(other) - self

    def __mul__(self, other) -> "RationalFn":
        other = RationalFn.coerce(other)
        if self.is_zero or other.is_zero:
            return RationalFn.zero()
        # Cross-reduce before multiplying to keep degrees low.
        g1 = poly_gcd(self.num, other.den)
        g2 = poly_gcd(other.num, self.den)
        n1 = self.num.exact_div(g1) if g1.degree > 0 else self.num
        d2 = other.den.exact_div(g1) if g1.degree > 0 else other.den
        n2 = other.num.exact_div(g2) if g2.degree > 0 else other.num
        d1 = self.den.exact_div(g2) if g2.degree > 0 else self.den
        return RationalFn(n1 * n2, d1 * d2, _reduced=True)

    __rmul__ = __mul__

    def inverse(self) -> "RationalFn":
        if self.is_zero:
            raise ZeroDenominator("inverse of the zero function")
        return RationalFn(self.den, self.num, _reduced=True)

    def __truediv__(self, other) -> "RationalFn":
        return self * RationalFn.coerce(other).inverse()

    def __rtruediv__(self, other) -> "RationalFn":
        return RationalFn.coerce(other) * self.inverse()

    def __pow__(self, exponent: int) -> "RationalFn":
        if exponent < 0:
            return self.inverse() ** (-exponent)
        return RationalFn(self.num**exponent, self.den**exponent, _reduced=True)

    def derivative(self) -> "RationalFn":
        if self.is_polynomial:
            return RationalFn.from_poly(self.num.derivative())
        n, d = self.num, self.den
        return RationalFn(n.derivative() * d - n * d.derivative(), d * d)

    def eval(self, x: ScalarLike) -> SqrtTwoScalar:
        dv = self.den.eval(x)
        if dv.is_zero:
            from .errors import PoleAtPoint

            raise PoleAtPoint(f"pole at x = {x}")
        return self.num.eval(x) / dv

    def __call__(self, x: ScalarLike) -> SqrtTwoScalar:
        return self.eval(x)

    def proportionality(self, other: "RationalFn") -> SqrtTwoScalar | None:
        """Scalar c with self == c*other, or None."""
        if self.is_zero:
            return _ONE if other.is_zero else _ZERO
        if other.is_zero or self.den != other.den:
            return None
        return self.num.proportionality(other.num)

    def to_json_dict(self) -> dict:
        return {
            "numerator": self.num.to_json_dict(),
            "denominator": self.den.to_json_dict(),
        }

    def __repr__(self) -> str:
        if self.is_polynomial:
            return f"RationalFn({self.num.pretty()})"
        return f"RationalFn(({self.num.pretty()}) / ({self.den.pretty()}))"


def log_derivative(p: ExactPoly, q: ExactPoly | None = None) -> RationalFn:
    """(ln p/q)' = (p'q - pq')/(pq), reduced once; (ln p)' = p'/p without q."""
    if q is None:
        return RationalFn(p.derivative(), p)
    return RationalFn(p.derivative() * q - p * q.derivative(), p * q)


# s*x/3 for s = +-1, the logarithmic derivative of exp(s*x^2/6).
_GAUSS_SLOPE = {s: ExactPoly((0, Fraction(s, 3))) for s in (-1, 1)}


def _gauss_numerator(r: RationalFn, s: int) -> tuple[ExactPoly, ExactPoly]:
    """(B, N*D) for R = N/D, with (R exp(s*x^2/6))' = (B/D^2) exp(s*x^2/6):
    B = N'D - ND' + (s*x/3) N D, which is N' + (s*x/3) N over 1 when D = 1."""
    n, d = r.num, r.den
    if r.is_polynomial:
        bracket, nd = n.derivative(), n
    else:
        bracket, nd = n.derivative() * d - n * d.derivative(), n * d
    if s:
        bracket = bracket + _GAUSS_SLOPE[s] * nd
    return bracket, nd


class QuasiGaussian:
    """R(x) * exp(s*x^2/6) with R rational and s in {-1, 0, +1}.

    Closed under multiplication by rational functions and under every
    first-order factor (+-d/dx + f) through `apply_first_order`; the
    derivative is apply_first_order(+1, RationalFn.zero(), g). Two
    quasi-Gaussians are never multiplied.
    """

    __slots__ = ("rational", "gauss_exponent")

    def __init__(self, rational: RationalFn | ExactPoly, gauss_exponent: int = 0) -> None:
        if gauss_exponent not in (-1, 0, 1):
            raise ValueError("gauss exponent must be -1, 0 or +1")
        object.__setattr__(self, "rational", RationalFn.coerce(rational))
        object.__setattr__(self, "gauss_exponent", gauss_exponent)

    def __setattr__(self, name, value):  # pragma: no cover - guard
        raise AttributeError("QuasiGaussian is immutable")

    @property
    def is_zero(self) -> bool:
        return self.rational.is_zero

    def __eq__(self, other: object) -> bool:
        if not isinstance(other, QuasiGaussian):
            return NotImplemented
        if self.is_zero and other.is_zero:
            return True
        return self.gauss_exponent == other.gauss_exponent and self.rational == other.rational

    def __hash__(self) -> int:
        return hash((self.rational, self.gauss_exponent if not self.is_zero else 0))

    def __mul__(self, other):
        return QuasiGaussian(self.rational * RationalFn.coerce(other), self.gauss_exponent)

    __rmul__ = __mul__

    def __add__(self, other: "QuasiGaussian") -> "QuasiGaussian":
        if self.is_zero:
            return other
        if other.is_zero:
            return self
        if self.gauss_exponent != other.gauss_exponent:
            raise ValueError("sum of quasi-Gaussians with different exponents")
        return QuasiGaussian(self.rational + other.rational, self.gauss_exponent)

    def __sub__(self, other: "QuasiGaussian") -> "QuasiGaussian":
        return self + QuasiGaussian(-other.rational, other.gauss_exponent)

    def __neg__(self) -> "QuasiGaussian":
        return QuasiGaussian(-self.rational, self.gauss_exponent)

    def proportionality(self, other: "QuasiGaussian") -> SqrtTwoScalar | None:
        if self.is_zero:
            return _ONE if other.is_zero else _ZERO
        if other.is_zero or self.gauss_exponent != other.gauss_exponent:
            return None
        return self.rational.proportionality(other.rational)

    def __repr__(self) -> str:
        tail = {1: " * exp(x^2/6)", 0: "", -1: " * exp(-x^2/6)"}[self.gauss_exponent]
        return f"QuasiGaussian({self.rational!r}{tail})"


def apply_first_order(op_sign: int, f: RationalFn, g: QuasiGaussian) -> QuasiGaussian:
    """(op_sign * d/dx + f) applied to g, exactly."""
    if op_sign not in (-1, 1):
        raise ValueError("op_sign must be +1 or -1")
    r, s = g.rational, g.gauss_exponent
    if r.is_zero:
        return g
    # With f = a/b and R = N/D: (op_sign*B*b + a*N*D) / (D^2*b), reduced once.
    bracket, nd = _gauss_numerator(r, s)
    if op_sign < 0:
        bracket = -bracket
    den = f.den if r.is_polynomial else r.den * r.den * f.den
    # Denominators are monic, so a constant one is 1 and there is nothing to reduce.
    return QuasiGaussian(
        RationalFn(bracket * f.den + f.num * nd, den, _reduced=den.degree == 0), s
    )


def _require_polys(entries: Iterable) -> None:
    kinds = {type(e) for e in entries}
    if kinds - {ExactPoly}:
        raise MixedKinds(f"entries must be ExactPoly, got {sorted(k.__name__ for k in kinds)}")


def _int_det(a: list[list[int]]) -> int:
    """Determinant of a square integer matrix by fraction-free elimination
    with row pivoting (Bareiss 1968): every `//` is exact.  Overwrites a."""
    n = len(a)
    sign, prev = 1, 1
    for k in range(n - 1):
        if not a[k][k]:
            swap = next((i for i in range(k + 1, n) if a[i][k]), None)
            if swap is None:
                return 0
            a[k], a[swap] = a[swap], a[k]
            sign = -sign
        tail = a[k][k + 1 :]
        pivot = a[k][k]
        for row in a[k + 1 :]:
            lead = row[k]
            if lead:
                row[k + 1 :] = [(pivot * x - lead * y) // prev for x, y in zip(row[k + 1 :], tail)]
            else:
                row[k + 1 :] = [pivot * x // prev for x in row[k + 1 :]]
        prev = pivot
    return sign * a[n - 1][n - 1]


def _interpolate(values: Sequence[int], x0: int) -> list[int]:
    """Integer array of D!*P for the polynomial P of degree <= D with
    P(x0 + j) = values[j], j = 0..D: Newton's forward differences, the k-th
    weighted by D!/k!, summed over the falling factorials
    (x - x0)(x - x0 - 1)..(x - x0 - k + 1) by Horner's rule."""
    heads = list(values)
    d = len(heads) - 1
    for k in range(1, d + 1):
        for j in range(d, k - 1, -1):
            heads[j] -= heads[j - 1]
    acc = [heads[d]]
    weight = 1
    for k in range(d - 1, -1, -1):
        # acc <- acc*(x - x0 - k) + heads[k]*D!/k!
        weight *= k + 1
        root = x0 + k
        acc.insert(0, 0)
        if root:
            for i in range(len(acc) - 1):
                acc[i] -= root * acc[i + 1]
        acc[0] += heads[k] * weight
    return acc


def _det(matrix: Sequence[Sequence[ExactPoly]]) -> ExactPoly:
    """Determinant of a matrix of polynomials by evaluation at integer points
    and interpolation (von zur Gathen and Gerhard, Modern Computer Algebra,
    ch. 5).

    With column potentials v_c = max_i deg a_ic and row potentials
    u_i = max_c (deg a_ic - v_c) over the nonzero entries, D = sum u + sum v
    bounds the degree of the determinant (for a Wronskian it is
    sum deg f_c - l(l-1)/2); a zero row or column, or D < 0, gives zero.
    Each column is scaled to integer arrays over its lcm denominator, and
    sqrt2 is replaced by an integer t: det(A + tB) has t-degree at most the
    number c of columns with a sqrt2 part.  At each of the D + 1 integers
    centred on 0 and each t = 0..c, the entries are evaluated by Horner's
    rule and the integer determinant taken; interpolation in t, reduced by
    t^2 = 2, and then in x gives the result.
    """
    _require_polys(e for row in matrix for e in row)
    zero = ExactPoly.zero()
    cols = list(zip(*matrix))
    col_pot = [max((p.degree for p in col if p._a), default=None) for col in cols]
    if None in col_pot:
        return zero
    bound = sum(col_pot)
    for row in matrix:
        row_pot = max((p.degree - v for p, v in zip(row, col_pot) if p._a), default=None)
        if row_pot is None:
            return zero
        bound += row_pot
    if bound < 0:
        return zero
    scales = [math.lcm(*(p._den for p in col)) for col in cols]
    mixed = sum(any(any(p._b) for p in col) for col in cols)
    x0 = -(bound // 2)
    # dets[t][j]: the integer determinant at x = x0 + j, with sqrt2 -> t and
    # column c scaled by scales[c].
    dets = []
    for t in range(mixed + 1):
        rows = [
            [[(ca + t * cb) * (s // p._den) for ca, cb in zip(reversed(p._a), reversed(p._b))]
             for p, s in zip(row, scales)]
            for row in matrix
        ]
        at_t = []
        for x in range(x0, x0 + bound + 1):
            m = []
            for row in rows:
                vals = []
                for rev in row:
                    y = 0
                    for co in rev:
                        y = y * x + co
                    vals.append(y)
                m.append(vals)
            at_t.append(_int_det(m))
        dets.append(at_t)
    # mixed! * det in powers of t at each point, then t^2 = 2.
    alpha, beta = [], []
    for at_x in zip(*dets):
        tc = _interpolate(at_x, 0)
        alpha.append(sum(w << (j // 2) for j, w in enumerate(tc) if not j % 2))
        beta.append(sum(w << (j // 2) for j, w in enumerate(tc) if j % 2))
    a = _interpolate(alpha, x0)
    b = _interpolate(beta, x0) if any(beta) else [0] * len(a)
    return _make(a, b, math.prod(scales) * math.factorial(mixed) * math.factorial(bound))


def wronskian(fs: Sequence[ExactPoly]) -> ExactPoly:
    """Wronskian determinant of an ordered list of polynomials.

    A common factor f comes out as f^l, Wr(f*y_1, .., f*y_l) =
    f^l Wr(y_1, .., y_l), so seeds dressed by one Gaussian exp(s*x^2/6)
    enter as their polynomial parts.
    """
    entries = list(fs)
    if not entries:
        raise EmptyList("wronskian of an empty list")
    _require_polys(entries)
    rows = [entries]
    for _ in range(len(entries) - 1):
        rows.append([p.derivative() for p in rows[-1]])
    return _det(rows)
