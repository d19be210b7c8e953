"""Exact real-root counting by Sturm sequences over Q(sqrt2).

Counts are split into the multiplicity at x = 0 (by exact division by x)
and the distinct roots on each half line; every sign decision is exact.
Also provides the closed-form zero-count predictions for the Okamoto and
mode polynomial families and for Wronskians of contiguous Hermite seeds.
"""

from __future__ import annotations

from dataclasses import dataclass
from fractions import Fraction

from .errors import IndexOutOfCone
# poly_gcd stays bound here: perfbench/selftest.py checks its tracer wraps it.
from .exact_ring import ExactPoly, poly_gcd  # noqa: F401


@dataclass(frozen=True)
class RootCountReport:
    """Real-zero census of a parity-definite polynomial."""

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


def _sturm_chain(p: ExactPoly) -> list[ExactPoly]:
    chain = [p, p.derivative()]
    while chain[-1].degree > 0:
        _, r = divmod(chain[-2], chain[-1])
        if r.is_zero:
            break
        chain.append((-r).lattice_primitive(keep_sign=True))
    return [c for c in chain if not c.is_zero]


def _variations(signs: list[int]) -> int:
    filtered = [s for s in signs if s]
    return sum(1 for a, b in zip(filtered, filtered[1:]) if a != b)


def _count_roots_half_lines(chain: list[ExactPoly]) -> tuple[int, int]:
    """(positive, negative) distinct real roots of chain[0], given its Sturm
    chain and chain[0](0) != 0."""
    at_zero = [c.coeff(0).sign() for c in chain]
    at_plus_inf = [c.leading.sign() for c in chain]
    at_minus_inf = [c.leading.sign() * (-1 if c.degree % 2 else 1) for c in chain]
    pos = _variations(at_zero) - _variations(at_plus_inf)
    neg = _variations(at_minus_inf) - _variations(at_zero)
    return pos, neg


def sturm_count(p: ExactPoly) -> RootCountReport:
    """Exact real-zero census of p.

    The multiplicity at 0 comes from exact division by x. One Sturm chain
    counts the distinct nonzero real roots whether or not p is squarefree:
    the chain ends in gcd(p, p'), and dividing it out changes no sign
    variation where p is nonzero. So `simple` (squarefree away from 0) is
    that last entry being a constant.
    """
    if p.is_zero:
        raise ValueError("root count of the zero polynomial")
    n0 = 0
    while p.degree > 0 and p.coeff(0).is_zero:
        p = p.exact_div(ExactPoly.x())
        n0 += 1
    chain = _sturm_chain(p)
    pos, neg = _count_roots_half_lines(chain)
    return RootCountReport(n0=n0, n_plus=pos, n_minus=neg, simple=chain[-1].degree == 0)


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
