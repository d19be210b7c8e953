"""Exact real-root counting by Sturm sequences on integer arrays.

A polynomial sqrt2**r * X/den has the signs of X, so the census reads only
the integer array X.  The multiplicity at x = 0 is the number of zero
entries at the bottom of X; the distinct roots on each half line come
from the signs at 0 and at +-inf of one Sturm chain of primitive integer
pseudo-remainders (Sturm sequences as in Basu, Pollack and Roy,
Algorithms in Real Algebraic Geometry, ch. 2).  For even X, which is
every polynomial the program builds, that chain runs on X(sqrt y), half
as long, and the negative half line mirrors the positive one; otherwise
it runs on X itself.

Also provides the closed-form zero-count predictions for the Okamoto and
mode polynomial families and for Wronskians of contiguous Hermite seeds.
"""

from __future__ import annotations

import math
from dataclasses import dataclass
from fractions import Fraction

from .errors import IndexOutOfCone
# poly_gcd stays bound here: perfbench/selftest.py checks its tracer wraps it.
from .exact_ring import ExactPoly, _divmod_ints, _primitive, poly_gcd  # noqa: F401


@dataclass(frozen=True)
class RootCountReport:
    """Real-zero census of a polynomial."""

    n0: int
    n_plus: int
    n_minus: int
    simple: bool = True

    @property
    def n_total(self) -> int:
        return self.n0 + self.n_plus + self.n_minus

    def to_json_dict(self) -> dict:
        return {
            "n0": self.n0,
            "n_plus": self.n_plus,
            "n_minus": self.n_minus,
            "n_total": self.n_total,
        }


def _real_roots(X: tuple[int, ...]) -> tuple[int, int, bool]:
    """(distinct roots on (0, inf), distinct roots on (-inf, 0), squarefree)
    of the integer polynomial X with X[0] != 0, from one Sturm chain
    X, X', -rem, .. of primitive pseudo-remainders.  `_divmod_ints` scales
    each remainder by a positive integer only, so no sign is lost.  The
    chain ends in gcd(X, X'), and dividing that out changes no sign
    variation where X is nonzero, so the counts hold for any X and X is
    squarefree when the chain ends in a constant.  Only end signs are read:
    bottom entries at 0, top entries at +inf, and top entries times
    (-1)**degree at -inf."""
    if len(X) == 1:
        return 0, 0, True
    A = _primitive(X)
    B = _primitive([i * A[i] for i in range(1, len(A))])
    chain = [A, B]
    while len(B) > 1:
        _, r, _ = _divmod_ints(A, 1, B, 1)
        while r and not r[-1]:
            r.pop()
        if not r:
            break
        g = -math.gcd(*r)  # -rem divided by its positive content
        A, B = B, [v // g for v in r]
        chain.append(B)
    at_zero = _variations([c[0] for c in chain])
    at_plus = _variations([c[-1] for c in chain])
    at_minus = _variations([c[-1] if len(c) % 2 else -c[-1] for c in chain])
    return at_zero - at_plus, at_minus - at_zero, len(chain[-1]) == 1


def _variations(values: list[int]) -> int:
    """Sign changes along values, zeros skipped."""
    signs = [v > 0 for v in values if v]
    return sum(1 for a, b in zip(signs, signs[1:]) if a != b)


def sturm_count(p: ExactPoly) -> RootCountReport:
    """Exact real-zero census of p; `simple` means squarefree away from 0.

    The signs of p are those of its integer array X.  After the n0 zero
    entries at the bottom of X are stripped, an even X = Y(x^2) has as many
    roots on each half line as Y on (0, inf), and is squarefree when Y is
    (Y(0) != 0), so one chain over Y, half as long, gives the whole census.
    Mixed parity takes one chain over X and reads both half lines from it.
    """
    X, _, _ = p._int_arrays()
    if not X:
        raise ValueError("root count of the zero polynomial")
    n0 = 0
    while not X[n0]:
        n0 += 1
    X = X[n0:]
    if any(X[1::2]):
        n_plus, n_minus, simple = _real_roots(X)
    else:
        n_plus, _, simple = _real_roots(X[::2])
        n_minus = n_plus
    return RootCountReport(n0=n0, n_plus=n_plus, n_minus=n_minus, simple=simple)


def predicted_okamoto_count(m: int, n: int) -> RootCountReport:
    """Closed-form real-zero counts of Q_{m,n} by index parity.

    The total column is normative; the positive-root count is derived from
    it as (n_total - n0)/2, which also repairs the internally inconsistent
    odd-odd row of the published per-column values.
    """
    if m < 0 or n < 0:
        raise IndexOutOfCone("zero-count predictions cover m >= 0, n >= 0")
    if m % 2 == 0 and n % 2 == 0:
        n0, nt = 0, n
    elif m % 2 == 0:  # n odd
        n0, nt = 0, (n - 1) + m
    elif n % 2 == 0:  # m odd
        n0, nt = 0, n
    else:
        n0, nt = 1, m + n - 1
    half = (nt - n0) // 2
    return RootCountReport(n0=n0, n_plus=half, n_minus=half)


def predicted_mode_count(k: int, j: int, n: int) -> int:
    """Total real zeros of the (n, j) mode polynomial; the indices are
    checked in the order the mode's construction checks them."""
    if n < 0:
        raise ValueError("level index n must be >= 0")
    if k < 0:
        raise IndexOutOfCone("potential index k must be >= 0")
    if j == 1:
        return n if n <= k else 3 * n - 2 * k
    if j == 2:
        return 3 * n + k + 1
    if j == 3:
        return 3 * n + k + 2
    raise ValueError(f"sequence index j must be 1, 2 or 3, got {j}")


def predicted_wronskian_count(xi: list[int]) -> RootCountReport:
    """Real-zero census of Wr(H_{xi_1}, .., H_{xi_l}) for plain Hermite
    polynomials with strictly increasing indices.

    n0 = d(d+1)/2 with d = (#odd - #even); the positive count comes from the
    alternating sum of the shifted partition.  The formula is conjectural;
    callers validate it against sturm_count on the families they use.
    """
    if any(a >= b for a, b in zip(xi, xi[1:])) or (xi and xi[0] < 0):
        raise ValueError("indices must be strictly increasing and nonnegative")
    ell = len(xi)
    if ell == 0:
        return RootCountReport(0, 0, 0)
    d = sum(1 if v % 2 else -1 for v in xi)
    n0 = d * (d + 1) // 2
    lam = [v - i for i, v in enumerate(xi)]  # xi_j - (j - 1), 1-indexed
    alternating = sum((-1) ** (ell - 1 - i) * lam[i] for i in range(ell))
    n_plus = Fraction(alternating - Fraction(abs(d + (ell % 2)), 2), 2)
    if n_plus.denominator != 1 or n_plus < 0:
        raise ValueError(f"count formula fails on index family {xi}: n_plus = {n_plus}")
    return RootCountReport(n0=n0, n_plus=int(n_plus), n_minus=int(n_plus))
