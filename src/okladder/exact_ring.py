"""Exact arithmetic over Q(sqrt2), graded by the power of sqrt2.

Scalars a or b*sqrt(2) with arbitrary-precision rational a, b; dense
polynomials over them, each in Q[x] or in sqrt2*Q[x], evaluated at
rational points; reduced rational functions, the first-order factors
(+-d/dx + f) acting on them, and the conjugation of such a factor by the
Gaussian exp(-x^2/6); Wronskians, of a list of polynomials or of a family
of Hermite-type seeds over an index list, by exact integer determinants at
integer points and interpolation.
All values are immutable and every operation is a pure function.  The seed
form keeps the cofactors of each bordered base per process in _BORDERS;
that memo has no eviction and takes no locks, as the package runs no
threads.
"""

from __future__ import annotations

import math
from fractions import Fraction
from typing import Iterable, NamedTuple, Sequence, Union

from .errors import (
    EmptyList,
    MixedGrade,
    MixedKinds,
    NonZeroRemainder,
    PoleAtPoint,
    ZeroDenominator,
)

ScalarLike = Union["SqrtTwoScalar", Fraction, int]


class SqrtTwoScalar:
    """Element of Q(sqrt2) of one grade: a rational a or sqrt2 times a
    rational b, the scalars of polynomials in Q[x] and in sqrt2*Q[x].

    At most one of a, b is nonzero; a value with both parts raises
    MixedGrade where it is built, so a sum of a rational and a sqrt2 value
    raises too.  The sign is that of the nonzero part.
    """

    __slots__ = ("a", "b")

    def __init__(self, a: Fraction | int = 0, b: Fraction | int = 0) -> None:
        a = a if type(a) is Fraction else Fraction(a)
        b = b if type(b) is Fraction else Fraction(b)
        if a and b:
            raise MixedGrade(f"{a} + {b}*sqrt2 has both a rational and a sqrt2 part")
        object.__setattr__(self, "a", a)
        object.__setattr__(self, "b", b)

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

    def inverse(self) -> "SqrtTwoScalar":
        if self.b:
            return SqrtTwoScalar(0, 1 / (2 * self.b))  # 1/(b*sqrt2) = sqrt2/(2b)
        if not self.a:
            raise ZeroDivisionError("inverse of zero in Q(sqrt2)")
        return SqrtTwoScalar(1 / self.a)

    def __truediv__(self, other: ScalarLike) -> "SqrtTwoScalar":
        other = _operand(other)
        return NotImplemented if other is None else self * other.inverse()

    def __rtruediv__(self, other: ScalarLike) -> "SqrtTwoScalar":
        other = _operand(other)
        return NotImplemented if other is None else other * self.inverse()

    # -- sign and equality -------------------------------------------------
    def sign(self) -> int:
        """Sign in {-1, 0, +1}: that of the nonzero part."""
        part = self.b or self.a
        return (part > 0) - (part < 0)

    def __eq__(self, other: object) -> bool:
        if isinstance(other, (int, Fraction)):
            return self.b == 0 and self.a == other
        if isinstance(other, SqrtTwoScalar):
            return self.a == other.a and self.b == other.b
        return NotImplemented

    def __hash__(self) -> int:
        # rational elements hash like their Fraction so == stays consistent
        return hash(self.a) if not self.b else hash((self.a, self.b))

    def __float__(self) -> float:
        return float(self.a) + float(self.b) * math.sqrt(2.0)

    def __repr__(self) -> str:
        return f"SqrtTwoScalar({self.a!r}, {self.b!r})"

    def __str__(self) -> str:
        return f"{self.b}*sqrt2" if self.b else str(self.a)


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


def _graded(c: ScalarLike) -> tuple[int, int, int]:
    """(v, r, den) with c = sqrt2**r * v/den, integers, r in {0, 1}, den > 0
    and gcd(v, den) = 1."""
    if type(c) is int:
        return c, 0, 1
    if type(c) is Fraction:
        return c.numerator, 0, c.denominator
    c = SqrtTwoScalar.coerce(c)
    part, r = (c.b, 1) if c.b else (c.a, 0)
    return part.numerator, r, part.denominator


class ExactPoly:
    """Dense polynomial over Q(sqrt2), ascending coefficients, of one grade.

    Stored as sqrt2**r * X/den with one integer tuple X, r in {0, 1} and
    den > 0, in the one canonical form gcd(den, all X_i) = 1 with a nonzero
    top entry, so equality is structural.  The zero polynomial stores
    ((), 0, 1) and reports degree -1.  The tuple is never replaced;
    `coeffs` is a view of it as scalars, built on first use.

    Every polynomial the Okamoto recurrences build lies in Q[x] or
    sqrt2*Q[x], so products, squares, quotients and derivatives run on the
    integer kernels `_conv`, `_square_ints` and `_divmod_ints` over X, and
    the grades add mod 2.  A sum of two nonzero operands of different
    grades, and coefficients of both grades given to a constructor, raise
    MixedGrade.  Scalars are graded the same way, and a value at a rational
    point is one of them.
    """

    __slots__ = ("_x", "_r", "_den", "_coeffs")

    def __new__(cls, coeffs: Iterable[ScalarLike] = ()) -> "ExactPoly":
        cs = [SqrtTwoScalar.coerce(c) for c in coeffs]
        while cs and cs[-1].is_zero:
            cs.pop()
        r = 1 if any(c.b for c in cs) else 0
        if r and any(c.a for c in cs):
            raise MixedGrade("coefficients in both Q and sqrt2*Q")
        parts = [c.b if r else c.a for c in cs]
        # den is the lcm of the denominators, so the array is canonical.
        den = math.lcm(1, *(f.denominator for f in parts))
        return _raw(tuple(f.numerator * (den // f.denominator) for f in parts), r, den, tuple(cs))

    def __setattr__(self, name, value):  # pragma: no cover - guard
        raise AttributeError("ExactPoly is immutable")

    # -- constructors ------------------------------------------------------
    @classmethod
    def zero(cls) -> "ExactPoly":
        return _raw((), 0, 1)

    @classmethod
    def one(cls) -> "ExactPoly":
        return _raw((1,), 0, 1)

    @classmethod
    def x(cls) -> "ExactPoly":
        return _raw((0, 1), 0, 1)

    @classmethod
    def monomial(cls, coeff: ScalarLike, degree: int) -> "ExactPoly":
        v, r, den = _graded(coeff)
        return _raw((0,) * degree + (v,), r, den) if v else cls.zero()

    @classmethod
    def constant(cls, c: ScalarLike) -> "ExactPoly":
        return cls.monomial(c, 0)

    # -- basic queries ------------------------------------------------------
    @property
    def coeffs(self) -> tuple[SqrtTwoScalar, ...]:
        """The coefficients as scalars, ascending; built from the integer
        array on first use and cached."""
        cs = self._coeffs
        if cs is None:
            cs = tuple(self.coeff(i) for i in range(len(self._x)))
            object.__setattr__(self, "_coeffs", cs)
        return cs

    @property
    def is_zero(self) -> bool:
        return not self._x

    @property
    def degree(self) -> int:
        return len(self._x) - 1

    @property
    def leading(self) -> SqrtTwoScalar:
        if not self._x:
            raise ValueError("zero polynomial has no leading coefficient")
        return self.coeff(len(self._x) - 1)

    def coeff(self, i: int) -> SqrtTwoScalar:
        if 0 <= i < len(self._x) and self._x[i]:
            v = Fraction(self._x[i], self._den)
            return SqrtTwoScalar(0, v) if self._r else SqrtTwoScalar(v, 0)
        return _ZERO

    def parity(self) -> int | None:
        """0 for even, 1 for odd, None for mixed; zero counts as even."""
        X = self._x
        if not X:
            return 0
        p = (len(X) - 1) % 2
        if any(X[i] for i in range(1 - p, len(X), 2)):
            return None
        return p

    def __bool__(self) -> bool:
        return not self.is_zero

    def __eq__(self, other: object) -> bool:
        if isinstance(other, ExactPoly):
            return self._den == other._den and self._r == other._r and self._x == other._x
        if isinstance(other, (int, Fraction, SqrtTwoScalar)):
            return self == ExactPoly.constant(other)
        return NotImplemented

    def __hash__(self) -> int:
        # A constant hashes like its scalar, so == across types stays consistent.
        if len(self._x) <= 1:
            return hash(self.coeff(0))
        return hash((self._x, self._r, self._den))

    # -- arithmetic ----------------------------------------------------------
    def _combine(self, other: "ExactPoly", sign: int) -> "ExactPoly":
        """self + sign*other over the common denominator lcm(den1, den2)."""
        if not other._x:
            return self
        if not self._x:
            return other if sign > 0 else -other
        if self._r != other._r:
            raise MixedGrade("sum of a polynomial in Q[x] and one in sqrt2*Q[x]")
        d1, d2 = self._den, other._den
        if d1 == d2:
            m1, m2 = 1, sign
        else:
            g = math.gcd(d1, d2)
            m1, m2 = d2 // g, sign * (d1 // g)
        x = [v * m1 for v in self._x]
        x2 = other._x
        if len(x2) > len(x):
            x += [0] * (len(x2) - len(x))
        for i, v in enumerate(x2):
            x[i] += m2 * v
        return _make(x, self._r, d1 * m1)

    def __add__(self, other: "ExactPoly") -> "ExactPoly":
        if not isinstance(other, ExactPoly):
            other = ExactPoly.constant(other)
        return self._combine(other, 1)

    __radd__ = __add__

    def __neg__(self) -> "ExactPoly":
        return _raw(tuple(-v for v in self._x), self._r, self._den)

    def __sub__(self, other) -> "ExactPoly":
        if not isinstance(other, ExactPoly):
            other = ExactPoly.constant(other)
        return self._combine(other, -1)

    def __rsub__(self, other) -> "ExactPoly":
        return ExactPoly.constant(other) - self

    def _int_arrays(self) -> tuple[tuple[int, ...], int, int]:
        """Return (X, r, den) with self = sqrt2**r * X/den, integers."""
        return self._x, self._r, self._den

    def _scale(self, c: ScalarLike) -> "ExactPoly":
        """self * c for a scalar c."""
        v, r, cd = _graded(c)
        if not v or not self._x:
            return ExactPoly.zero()
        return _lift([x * v for x in self._x], self._r + r, self._den * cd)

    def __mul__(self, other) -> "ExactPoly":
        if not isinstance(other, ExactPoly):
            if isinstance(other, (int, Fraction, SqrtTwoScalar)):
                return self._scale(other)
            return NotImplemented
        if not self._x or not other._x:
            return ExactPoly.zero()
        if other is self:
            return self._square()
        return _lift(_conv(self._x, other._x), self._r + other._r, self._den * other._den)

    __rmul__ = __mul__

    def _square(self) -> "ExactPoly":
        """self * self, nonzero, with each cross term computed once and
        doubled: about half the products of a general multiplication."""
        return _lift(_square_ints(self._x), 2 * self._r, self._den * self._den)

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
        # sqrt2**r1 X = (sqrt2**(r1-r2) Q) (sqrt2**r2 Y) + sqrt2**r1 R
        # from X = Q Y + R: one integer update per inner step.
        quot, rem, den = _divmod_ints(self._x, self._den, other._x, other._den)
        return _lift(quot, self._r - other._r, den), _lift(rem, self._r, den)

    def exact_div(self, other: "ExactPoly") -> "ExactPoly":
        q, r = divmod(self, other)
        if not r.is_zero:
            raise NonZeroRemainder(
                f"degree-{other.degree} divisor does not divide degree-{self.degree} dividend"
            )
        return q

    def derivative(self) -> "ExactPoly":
        X = self._x
        return _make([i * X[i] for i in range(1, len(X))], self._r, self._den)

    def eval(self, x: int | Fraction | float) -> SqrtTwoScalar:
        """Value at the rational point x by Horner's rule on the integer
        array.  With x = xn/xd, the running value is held as u/(den*scale)
        with scale = xd^steps."""
        X = self._x
        if not X:
            return _ZERO
        x = Fraction(x)
        xn, xd = x.numerator, x.denominator
        u, scale = X[-1], 1
        for i in range(len(X) - 2, -1, -1):
            scale *= xd
            u = u * xn + X[i] * scale
        v = Fraction(u, self._den * scale)
        return SqrtTwoScalar(0, v) if self._r else SqrtTwoScalar(v)

    def __call__(self, x: int | Fraction | float) -> SqrtTwoScalar:
        return self.eval(x)

    # -- normal forms --------------------------------------------------------
    def monic(self) -> "ExactPoly":
        if self.is_zero:
            return self
        top = self._x[-1]
        return _make([v if top > 0 else -v for v in self._x], 0, abs(top))

    def lattice_primitive(self) -> "ExactPoly":
        """Scale to an integer array with content 1 and a positive top
        entry, keeping the grade."""
        X = self._x
        if not X:
            return self
        return _raw(tuple(_primitive(X)), self._r, 1)

    def proportionality(self, other: "ExactPoly") -> SqrtTwoScalar | None:
        """Scalar c with self == c*other, or None if not proportional.

        For nonzero arrays X, Y of one length, c exists exactly when
        X*top(Y) == Y*top(X) entry by entry, whatever the two grades; c,
        the ratio of the leading coefficients, is built only then."""
        X, Y = self._x, other._x
        if not X:
            return _ZERO if Y else _ONE
        if len(X) != len(Y):
            return None
        xt, yt = X[-1], Y[-1]
        if [v * yt for v in X] != [v * xt for v in Y]:
            return None
        return self.leading / other.leading

    # -- serialization -------------------------------------------------------
    def to_json_dict(self) -> dict:
        """Each coefficient as [rational part, sqrt2 part], both "p/q" in
        lowest terms, formatted from the integer array."""
        den, zero = self._den, "0/1"
        out = []
        for v in self._x:
            g = math.gcd(v, den)
            part = f"{v // g}/{den // g}"
            out.append([zero, part] if self._r else [part, zero])
        return {"coeffs": out}

    def to_floats(self) -> list[float]:
        """The coefficients as doubles, each rounded as float(SqrtTwoScalar)
        rounds it: v/den + 0.0, or 0.0 + (v/den)*sqrt(2.0) on the sqrt2
        grade."""
        den = self._den
        if self._r:
            root2 = math.sqrt(2.0)
            return [0.0 + (v / den) * root2 for v in self._x]
        return [v / den + 0.0 for v in self._x]

    def rescaled_by_powers_of_3(self, parity: int) -> "ExactPoly":
        """Entry i times 3**((i - parity) // 2): p(sqrt3 * x) / 3**(parity/2)
        for a p of that parity, whose entry i is nonzero only for i = parity
        mod 2."""
        X = self._x
        return _make(
            [0] * parity + [v * 3 ** (i // 2) for i, v in enumerate(X[parity:])],
            self._r,
            self._den,
        )

    @classmethod
    def from_json_dict(cls, data: dict) -> "ExactPoly":
        """The polynomial `to_json_dict` wrote: the [a, b] pairs are parsed
        straight into one integer array over the lcm of their denominators,
        with no scalar view.  A pair with both parts nonzero, or nonzero
        entries of both grades, raises MixedGrade; a part that is not a
        rational raises ValueError."""
        nums, dens, grades = [], [], set()
        for a, b in data["coeffs"]:
            an, ad = _parse_rational(a)
            bn, bd = _parse_rational(b)
            if an and bn:
                raise MixedGrade(f"{a} + {b}*sqrt2 has both a rational and a sqrt2 part")
            if bn:
                grades.add(1)
                an, ad = bn, bd
            elif an:
                grades.add(0)
            nums.append(an)
            dens.append(ad)
        if len(grades) > 1:
            raise MixedGrade("coefficients in both Q and sqrt2*Q")
        den = math.lcm(1, *dens)
        return _make([v * (den // d) for v, d in zip(nums, dens)], 1 if grades == {1} else 0, den)

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


def _parse_rational(s) -> tuple[int, int]:
    """(p, q), q > 0, with p/q the value of a JSON coefficient part: the
    "p/q" strings `to_json_dict` writes are split and read as integers, and
    anything else is read by Fraction, which raises on what is not a
    rational."""
    if type(s) is str:
        p, slash, q = s.partition("/")
        if slash and q.isdecimal() and (p.isdecimal() or p[:1] == "-" and p[1:].isdecimal()):
            q = int(q)
            if q:
                return int(p), q
    f = Fraction(s)
    return f.numerator, f.denominator


def _raw(x: tuple, r: int, den: int, coeffs: tuple | None = None) -> ExactPoly:
    """ExactPoly sqrt2**r * x/den from an array already in canonical form."""
    p = object.__new__(ExactPoly)
    object.__setattr__(p, "_x", x)
    object.__setattr__(p, "_r", r)
    object.__setattr__(p, "_den", den)
    object.__setattr__(p, "_coeffs", coeffs)
    return p


def _make(x: list[int], r: int, den: int) -> ExactPoly:
    """ExactPoly sqrt2**r * x/den, r in {0, 1}, den > 0, brought to
    canonical form; the list is fresh and trimmed here in place."""
    n = len(x)
    while n and not x[n - 1]:
        n -= 1
    if not n:
        return _raw((), 0, 1)
    del x[n:]
    if den > 1:
        g = math.gcd(den, *x)
        if g > 1:
            return _raw(tuple([v // g for v in x]), r, den // g)
    return _raw(tuple(x), r, den)


def _lift(x: list[int], r: int, den: int) -> ExactPoly:
    """sqrt2**r * x/den in canonical form for any integer r, through
    sqrt2**r = 2**(r // 2) * sqrt2**(r % 2)."""
    half, r = divmod(r, 2)
    if half > 0:
        x = [v << half for v in x]
    elif half < 0:
        den <<= -half
    return _make(x, r, den)


def _conv(X: Sequence[int], Y: Sequence[int]) -> list[int]:
    """Integer array of the product of the integer polynomials X and Y, both
    nonempty, skipping zero entries."""
    out = [0] * (len(X) + len(Y) - 1)
    _add_conv(out, X, Y, 1)
    return out


def _add_conv(acc: list[int], X: Sequence[int], Y: Sequence[int], m: int) -> None:
    """acc += m * (X*Y) in place, for nonempty X, Y with len(acc) >=
    len(X) + len(Y) - 1, skipping zero entries."""
    terms = [(j, y * m) for j, y in enumerate(Y) if y]
    for i, x in enumerate(X):
        if x:
            for j, y in terms:
                acc[i + j] += x * y


def sum_of_products(terms: Iterable[tuple[ScalarLike, Sequence[ExactPoly]]]) -> ExactPoly:
    """The sum of c * f_1 * ... * f_k over the (c, (f_1, .., f_k)) terms,
    brought to canonical form once.

    c is an int, Fraction or graded SqrtTwoScalar and each f an ExactPoly;
    an empty product is 1.  A term's grade and denominator are those of c
    and its factors together, sqrt2**2 = 2 moves into the integer scalar,
    and the terms of one grade are added over the lcm of their
    denominators: each product is convolved on the factors' integer arrays
    and its last convolution adds straight into the sum.  Nonzero parts in
    Q[x] and in sqrt2*Q[x] raise MixedGrade, as a sum of ExactPoly does.
    One term is a product of several factors made with one canonical form.
    """
    # Per grade: [lcm of the term denominators, length of the sum, terms].
    grades = ([1, 0, []], [1, 0, []])
    for c, factors in terms:
        v, r, den = _graded(c)
        if not v:
            continue
        size = 1
        for f in factors:
            if not f._x:
                break
            r += f._r
            den *= f._den
            size += len(f._x) - 1
        else:
            g = grades[r & 1]
            if den != g[0]:
                g[0] = math.lcm(g[0], den)
            if size > g[1]:
                g[1] = size
            g[2].append((v << (r >> 1), den, factors))
    sums = [(_sum_terms(*g), r) for r, g in enumerate(grades) if g[2]]
    if len(sums) == 2:
        sums = [s for s in sums if any(s[0])]
        if len(sums) == 2:
            raise MixedGrade("sum of a polynomial in Q[x] and one in sqrt2*Q[x]")
    if not sums:
        return ExactPoly.zero()
    acc, r = sums[0]
    return _make(acc, r, grades[r][0])


def _sum_terms(den: int, size: int, terms: list) -> list[int]:
    """Integer array, over den, of the sum of v/d * f_1 * .. * f_k over the
    (v, d, factors) terms, d dividing den."""
    acc = [0] * size
    for v, d, fs in terms:
        m = v * (den // d) if d != den else v
        if not fs:
            acc[0] += m
            continue
        X = fs[0]._x
        for f in fs[1:-1]:
            X = _square_ints(X) if f._x is X else _conv(X, f._x)
        Y = fs[-1]._x if len(fs) > 1 else (1,)
        if Y is X:
            X, Y = _square_ints(X), (1,)
        _add_conv(acc, X, Y, m)
    return acc


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
    """Integer array of a a'' - a'^2 + (x^2 + c) a^2 for the integer
    polynomial a = sum A_i x^i, length 2*len(A) + 1: the right side of the
    Okamoto recurrences in the variable u = sqrt(2/3)*x (see `okamoto`).

    One pass over the nonzero pairs i <= j: each product A_i*A_j is made
    once and feeds both the bilinear part, with weight (j-i)^2 - (i+j) at
    x^(i+j-2) (-i on the diagonal), and the square a^2 at x^(i+j).  Pairs
    with i + j < 2 have weight zero, so no negative power arises."""
    n = len(A)
    out = [0] * (2 * n + 1)  # the bilinear part first
    diag = [0] * (2 * n - 1)
    cross = [0] * (2 * n - 1)
    terms = [(i, a) for i, a in enumerate(A) if a]
    for t, (i, a1) in enumerate(terms):
        p = a1 * a1
        diag[2 * i] += p
        if i:
            out[2 * i - 2] -= i * p
        for j, a2 in terms[t + 1 :]:
            p = a1 * a2
            s = i + j
            cross[s] += p
            w = (j - i) * (j - i) - s
            if w:
                out[s - 2] += w * p
    for s, (x, y) in enumerate(zip(diag, cross)):
        v = x + 2 * y  # the entry of a^2 at x^s
        if v:
            out[s + 2] += v
            if c:
                out[s] += c * v
    return out


def _exact_quo(X: Sequence[int], H: Sequence[int]) -> list[int] | None:
    """X/H over Z for integer arrays with len(X) >= len(H) and H[-1] > 0, or
    None as soon as a quotient entry is not an integer or the remainder is
    not zero."""
    r = list(X)
    last = len(H) - 1
    lead = H[last]
    terms = [(j, h) for j, h in enumerate(H[:last]) if h]
    quot = [0] * (len(X) - last)
    for i in range(len(quot) - 1, -1, -1):
        u = r[i + last]
        if u:
            q, u = divmod(u, lead)
            if u:
                return None
            quot[i] = q
            for j, h in terms:
                r[i + j] -= q * h
    return quot if not any(r[:last]) else None


def _primitive(X: Sequence[int]) -> list[int]:
    """X over its content, with a positive top entry."""
    g = math.gcd(*X)
    if X[-1] < 0:
        g = -g
    return [v // g for v in X]


def _at_power_of_two(X: Sequence[int], k: int) -> int:
    """X(2**k) by shift-and-add."""
    v = 0
    for c in reversed(X):
        v = (v << k) + c
    return v


# Attempts of the heuristic gcd, each at the square of the last point,
# before the remainder sequence takes over.
_HEU_TRIES = 4


def _heu_gcd(X: Sequence[int], Y: Sequence[int]) -> tuple[list[int], Sequence[int], Sequence[int]] | None:
    """(H, X/H, Y/H) with H the gcd of the integer arrays X and Y (degree
    >= 1), primitive with a positive top entry; None if the heuristic gives
    up.  GCDHEU (Char, Geddes and Gonnet 1989) at xi = 2**k.

    With A, B the primitive parts of X, Y and xi >= 2*min(|A|, |B|) + 2
    (max norms), let gamma = gcd(A(xi), B(xi)), G the polynomial of the
    symmetric base-xi digits of gamma (so G(xi) = gamma, every |G_i| <= xi/2)
    and H the primitive part of G.  Theorem (Geddes, Czapor and Labahn
    1992, Thm 7.7): if H divides A and B over Z, H is their gcd.  Proof
    sketch: H then divides the true gcd D; write D = H*E.  D(xi) divides
    gamma = c*H(xi), c the content of G, so E(xi) divides c, and
    0 < |c| <= xi/2.  Every root of E is a root of A and of B, of modulus
    below 1 + min(|A|, |B|) <= xi/2 by Cauchy's bound, so |E(xi)| > xi/2
    unless E is constant.  Hence E = +-1.  A constant H divides everything,
    so a constant H proves A and B coprime with no division at all.
    Otherwise the two exact quotients of the acceptance test are the
    cofactors.  A failed test squares xi (doubles k) and tries again.
    """
    cx, cy = math.gcd(*X), math.gcd(*Y)
    norm = min(max(map(abs, X)) // cx, max(map(abs, Y)) // cy)
    k = (2 * norm + 1).bit_length()  # the least k with 2**k >= 2*norm + 2
    for _ in range(_HEU_TRIES):
        gamma = math.gcd(_at_power_of_two(X, k) // cx, _at_power_of_two(Y, k) // cy)
        xi = 1 << k
        half, mask = xi >> 1, xi - 1
        G = []
        while gamma:
            d = gamma & mask
            if d > half:
                d -= xi
            G.append(d)
            gamma = (gamma - d) >> k
        if len(G) == 1:
            return [1], X, Y
        H = _primitive(G)
        if len(H) <= min(len(X), len(Y)):
            qx = _exact_quo(X, H)
            if qx is not None:
                qy = _exact_quo(Y, H)
                if qy is not None:
                    return H, qx, qy
        k *= 2
    return None


def _prs_gcd(X: Sequence[int], Y: Sequence[int]) -> list[int]:
    """Primitive gcd, positive top entry, of integer arrays of degree >= 1
    by the primitive remainder sequence: the fallback of `_heu_gcd`."""
    a, b = _primitive(X), _primitive(Y)
    if len(a) < len(b):
        a, b = b, a
    while len(b) > 1:
        _, r, _ = _divmod_ints(a, 1, b, 1)
        while r and not r[-1]:
            r.pop()
        if not r:
            return b
        a, b = b, _primitive(r)
    return [1]


def _gcd_ints(X: Sequence[int], Y: Sequence[int]) -> tuple[list[int], Sequence[int], Sequence[int]]:
    """(H, X/H, Y/H) with H the primitive gcd of integer arrays of degree
    >= 1: the one gcd kernel of `poly_gcd` and of every reduction."""
    found = _heu_gcd(X, Y)
    if found is not None:
        return found
    H = _prs_gcd(X, Y)
    return H, _exact_quo(X, H), _exact_quo(Y, H)


def poly_gcd(p: ExactPoly, q: ExactPoly) -> ExactPoly:
    """Monic gcd over Q(sqrt2).

    p = sqrt2**r * X/den and q = sqrt2**s * Y/dq have the monic gcd of X
    and Y, which lies in Q[x]; `_gcd_ints` finds it.
    """
    if p.is_zero:
        return q.monic() if not q.is_zero else ExactPoly.zero()
    if q.is_zero:
        return p.monic()
    if p.degree == 0 or q.degree == 0:
        return ExactPoly.one()
    H, _, _ = _gcd_ints(p._x, q._x)
    return _raw(tuple(H), 0, H[-1])


def _cancel(p: ExactPoly, q: ExactPoly) -> tuple[ExactPoly, ExactPoly]:
    """(p/g, q/g) for nonzero p, q and g their gcd, built from the cofactors
    that `_gcd_ints` returns with g, so no division follows the gcd."""
    if p.degree == 0 or q.degree == 0:
        return p, q
    H, a, b = _gcd_ints(p._x, q._x)
    if len(H) == 1:
        return p, q
    return _make(a, p._r, p._den), _make(b, q._r, q._den)


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
                num, den = _cancel(num, den)
            if den._r or den._x[-1] != den._den:
                # num / leading(den) = sqrt2**(r - s) * X*e / (d*top) for
                # num = sqrt2**r X/d and leading(den) = sqrt2**s top/e.
                top, e = den._x[-1], den._den
                if top < 0:
                    top, e = -top, -e
                num = _lift([v * e for v in num._x], num._r - den._r, num._den * top)
                den = den.monic()
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

    def __bool__(self) -> bool:
        return not self.is_zero

    def __eq__(self, other: object) -> bool:
        if isinstance(other, RationalFn):
            return self.num == other.num and self.den == other.den
        if isinstance(other, (ExactPoly, int, Fraction, SqrtTwoScalar)):
            return self.is_polynomial and self.num == other
        return NotImplemented

    def __hash__(self) -> int:
        return hash(self.num) if self.is_polynomial else hash((self.num, self.den))

    # -- arithmetic ------------------------------------------------------------
    def __add__(self, other) -> "RationalFn":
        other = RationalFn.coerce(other)
        if self.den == other.den:
            return RationalFn(self.num + other.num, self.den)
        num = sum_of_products(((1, (self.num, other.den)), (1, (other.num, self.den))))
        return RationalFn(num, self.den * other.den)

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
        n1, d2 = _cancel(self.num, other.den)
        n2, d1 = _cancel(other.num, self.den)
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
        return RationalFn(_wronskian_pair(n, d), d * d)

    def eval(self, x: int | Fraction | float) -> SqrtTwoScalar:
        dv = self.den.eval(x)
        if dv.is_zero:
            raise PoleAtPoint(f"pole at x = {x}")
        return self.num.eval(x) / dv

    def __call__(self, x: int | Fraction | float) -> SqrtTwoScalar:
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
    return RationalFn(_wronskian_pair(p, q), p * q)


def _wronskian_pair(p: ExactPoly, q: ExactPoly) -> ExactPoly:
    """p'q - pq', the numerator of (p/q)'."""
    return sum_of_products(((1, (p.derivative(), q)), (-1, (p, q.derivative()))))


_X = ExactPoly.x()


def conjugate_factor(op_sign: int, f: RationalFn) -> RationalFn:
    """f - op_sign*x/3: with G = exp(-x^2/6), G^-1 (op_sign*d/dx + f) G =
    op_sign*d/dx + (f - op_sign*x/3), the factor as it acts on the rational
    part R of R*G.  For f = a/b the numerator a - (op_sign/3)*x*b equals a
    mod b, so the quotient is reduced as built."""
    num = sum_of_products(((1, (f.num,)), (Fraction(-op_sign, 3), (_X, f.den))))
    return RationalFn(num, f.den, _reduced=True)


def apply_first_order(op_sign: int, f: RationalFn, r: RationalFn) -> RationalFn:
    """(op_sign * d/dx + f) applied to r, exactly."""
    if op_sign not in (-1, 1):
        raise ValueError("op_sign must be +1 or -1")
    if r.is_zero:
        return r
    # With f = a/b and r = N/D the result is
    # (op_sign*(N'D - ND')*b + a*N*D) / (D^2*b), reduced once.
    n, d, b = r.num, r.den, f.den
    num = sum_of_products((
        (op_sign, (n.derivative(), d, b)),
        (-op_sign, (n, d.derivative(), b)),
        (1, (f.num, n, d)),
    ))
    den = sum_of_products(((1, (d, d, b)),))
    # Denominators are monic, so a constant one is 1 and there is nothing to reduce.
    return RationalFn(num, den, _reduced=den.degree == 0)


def _require_polys(entries: Iterable) -> None:
    kinds = {type(e) for e in entries}
    if kinds - {ExactPoly}:
        raise MixedKinds(f"entries must be ExactPoly, got {sorted(k.__name__ for k in kinds)}")


def _bareiss(a: list[list[int]], steps: int) -> int:
    """Run `steps` steps of fraction-free elimination with row pivoting
    (Bareiss 1968) on the integer matrix a, in place: every `//` is exact,
    and after step k each entry (i, j) below row k is the minor of rows
    0..k, i and columns 0..k, j of the row-swapped matrix.  Returns the sign
    of the row swaps, or 0 when a column has no pivot (its leading columns
    are then dependent)."""
    n = len(a)
    sign, prev = 1, 1
    for k in range(steps):
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
    return sign


def _int_det(a: list[list[int]]) -> int:
    """Determinant of a square integer matrix by `_bareiss`.  Overwrites a."""
    return _bareiss(a, len(a) - 1) * a[-1][-1]


def _cofactors(a: list[list[int]]) -> list[int]:
    """[det(a | e_i)] over the unit columns e_i, for an integer matrix a of
    l rows and l - 1 columns: det(a | b) is then the dot product with b.
    `_bareiss` on (a | I) leaves them in the last row, times the sign of
    its row swaps."""
    size = len(a)
    rows = [row + [int(i == j) for j in range(size)] for i, row in enumerate(a)]
    sign = _bareiss(rows, size - 1)
    return [sign * v for v in rows[-1][size - 1 :]]


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


def _interpolated(bound: int, mirror: int | None, det_at) -> list[int]:
    """D!*P, D = bound, for the polynomial P of degree <= D whose value at
    each integer x is det_at(x): the one point loop of every determinant.
    It runs over the D + 1 integers centred on 0, or, when the caller knows
    P(-x) = mirror * P(x), mirror = +-1, over the points x >= 0 only, in
    increasing order; the value at each x < 0 is then mirror times the
    value at -x, which is one of them."""
    x0 = -(bound // 2)
    dets = [det_at(x) for x in range(x0 if mirror is None else 0, x0 + bound + 1)]
    if mirror is not None:
        # dets[k] is the value at x = k; prepend those at x = x0 .. -1.
        dets[:0] = [mirror * dets[k] for k in range(-x0, 0, -1)]
    return _interpolate(dets, x0)


def _det(matrix: Sequence[Sequence[ExactPoly]], mirror: int | None = None) -> ExactPoly:
    """Determinant of a matrix of polynomials by evaluation at integer points
    and interpolation (von zur Gathen and Gerhard, Modern Computer Algebra,
    ch. 5).

    With column potentials v_c = max_i deg a_ic and row potentials
    u_i = max_c (deg a_ic - v_c) over the nonzero entries, D = sum u + sum v
    bounds the degree of the determinant (for a Wronskian it is
    sum deg f_c - l(l-1)/2); a zero row or column, or D < 0, gives zero.
    The nonzero entries of column c share one grade r_c, so sqrt2**r_c
    comes out of the column (MixedGrade if they do not), and the column is
    scaled to integer arrays over its lcm denominator.  At each point of
    `_interpolated` the entries are evaluated by Horner's rule and the
    integer determinant taken; the result comes times sqrt2**(sum r_c).
    A caller that knows det(-x) = mirror * det(x) passes mirror on.
    """
    _require_polys(e for row in matrix for e in row)
    zero = ExactPoly.zero()
    cols = list(zip(*matrix))
    col_pot = [max((p.degree for p in col if p._x), default=None) for col in cols]
    if None in col_pot:
        return zero
    bound = sum(col_pot)
    for row in matrix:
        row_pot = max((p.degree - v for p, v in zip(row, col_pot) if p._x), default=None)
        if row_pot is None:
            return zero
        bound += row_pot
    if bound < 0:
        return zero
    grades = [{p._r for p in col if p._x} for col in cols]
    if any(len(g) > 1 for g in grades):
        raise MixedGrade("determinant column with entries in Q[x] and in sqrt2*Q[x]")
    scales = [math.lcm(*(p._den for p in col)) for col in cols]
    rows = [[[v * (s // p._den) for v in reversed(p._x)] for p, s in zip(row, scales)]
            for row in matrix]

    def det_at(x: int) -> int:
        m = []
        for row in rows:
            vals = []
            for rev in row:
                y = 0
                for co in rev:
                    y = y * x + co
                vals.append(y)
            m.append(vals)
        return _int_det(m)

    return _lift(
        _interpolated(bound, mirror, det_at), sum(r for g in grades for r in g),
        math.prod(scales) * math.factorial(bound),
    )


class HermiteSeeds(NamedTuple):
    """A family of Hermite-type Wronskian seeds f_r = h_r / r!**scaled, with
    h_0 = 1, h_1 = 2x and h_{r+1} = 2x h_r + 2c r h_{r-1}.  Scaled, f_r is
    the coefficient of t^r in exp(2xt + c t^2); unscaled at c = -1, h_r is
    the physicists' Hermite H_r.  Every h_r has h_r' = 2r h_{r-1}, so the
    i-th derivative of h_n is 2**i n!/(n-i)! h_{n-i}: an integer at each
    integer x, read off the recurrence with no polynomial built."""

    c: int
    scaled: bool


def _seed_values(c: int, top: int, x: int) -> list[int]:
    """[h_0(x), .., h_top(x)] (at least h_0, h_1) by the recurrence at c."""
    h = [1, 2 * x]
    for r in range(1, top):
        h.append(2 * x * h[r] + 2 * c * r * h[r - 1])
    return h


def _falling(n: int, size: int) -> list[int]:
    """n!/(n-i)! for i = 0..size-1; zero from i = n + 1 on."""
    out, f = [], 1
    for i in range(size):
        out.append(f)
        f *= n - i
    return out


# The cofactors `_cofactors` of the base columns of a bordered seed
# Wronskian, per (family, base indices, x).
_BORDERS: dict[tuple[HermiteSeeds, tuple[int, ...], int], list[int]] = {}


def _seed_wronskian(indices: list[int], seeds: HermiteSeeds, border: int | None) -> ExactPoly:
    """Wr(f_n over indices, then f_border) of one seed family.

    Row i of column n is 2**i n!/(n-i)! h_{n-i}(x)/n!**scaled; 2**i comes
    out of each row and n!**scaled out of each column, so the integer
    matrix at x is n!/(n-i)! h_{n-i}(x).  Its degree bound is sum n -
    l(l-1)/2 and its parity that of the bound, so `_interpolated` runs
    over x >= 0.  A border is dotted with the base's cofactors at x, kept
    in `_BORDERS`, instead of eliminating the whole matrix again.
    """
    cols = indices if border is None else indices + [border]
    if not cols:
        raise EmptyList("wronskian of an empty list")
    if any(type(n) is not int or n < 0 for n in cols):
        raise ValueError("seed indices must be integers >= 0")
    size = len(cols)
    if len(set(cols)) < size:
        return ExactPoly.zero()
    bound = sum(cols) - size * (size - 1) // 2
    top = max(cols)
    falls = [_falling(n, size) for n in cols]

    def rows(h: list[int], count: int) -> list[list[int]]:
        """The integer matrix at the point with seed values h, first count columns."""
        pairs = list(zip(cols[:count], falls))
        return [[f[i] * h[n - i] if f[i] else 0 for n, f in pairs] for i in range(size)]

    if border is None:
        def det_at(x: int) -> int:
            return _int_det(rows(_seed_values(seeds.c, top, x), size))
    else:
        base, fall = tuple(indices), falls[-1]

        def det_at(x: int) -> int:
            h = _seed_values(seeds.c, top, x)
            key = (seeds, base, x)
            cof = _BORDERS.get(key)
            if cof is None:
                cof = _BORDERS[key] = _cofactors(rows(h, size - 1))
            return sum(cof[i] * fall[i] * h[border - i] for i in range(min(size, border + 1)))

    den = math.factorial(bound)
    if seeds.scaled:
        den *= math.prod(math.factorial(n) for n in cols)
    return _lift(_interpolated(bound, -1 if bound % 2 else 1, det_at), size * (size - 1), den)


def wronskian(
    fs: Sequence, seeds: HermiteSeeds | None = None, *, border: int | None = None
) -> ExactPoly:
    """Wronskian determinant of an ordered list of polynomials, or, given
    seeds, of the seeds f_n of that family over an ordered list of indices
    n, then f_border when a border is given (each border of one base list
    reuses that base's elimination).

    A common factor f comes out as f^l, Wr(f*y_1, .., f*y_l) =
    f^l Wr(y_1, .., y_l), so seeds dressed by one Gaussian exp(s*x^2/6)
    enter as their polynomial parts.  When every f_c has a parity p_c, the
    i-th derivative of f_c has parity p_c + i, so Wr(-x) =
    (-1)**(sum p_c + l(l-1)/2) Wr(x), and `_det` evaluates at half the
    points.
    """
    entries = list(fs)
    if seeds is not None:
        return _seed_wronskian(entries, seeds, border)
    if border is not None:
        raise ValueError("a border index needs a seed family")
    if not entries:
        raise EmptyList("wronskian of an empty list")
    _require_polys(entries)
    parities = [p.parity() for p in entries]
    mirror = None
    if None not in parities:
        size = len(entries)
        mirror = -1 if (sum(parities) + size * (size - 1) // 2) % 2 else 1
    rows = [entries]
    for _ in range(len(entries) - 1):
        rows.append([p.derivative() for p in rows[-1]])
    return _det(rows, mirror)
