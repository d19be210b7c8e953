"""Hermite-seeded Wronskian representations.

The same objects built in okamoto/spectral/ttrr reappear here as Wronskians
of Hermite-type seeds: the Okamoto polynomials, the potential (in
state-deleting and state-adding form, and as the Darboux chain those
Wronskians close), the higher modes, and the exceptional Hermite bridge
with its three-term route.
Proportionality, not equality, is the acceptance relation wherever a free
normalization constant is involved.
"""

from __future__ import annotations

import functools
import math
from fractions import Fraction
from typing import Callable

from .errors import (
    CertificateFailed,
    DuplicateIndex,
    ExcludedDegree,
    IndexOutOfCone,
    MalformedIndexList,
    SingularWronskian,
)
from .exact_ring import (
    _GAUSS_SLOPE,
    ExactPoly,
    QuasiGaussian,
    RationalFn,
    apply_first_order,
    log_derivative,
    wronskian,
)
from .okamoto import okamoto
from .rootcount import sturm_count
from .spectral import ModeFunction, energy
from .ttrr import ttrr_sequence

_X_SQ_OVER_9 = RationalFn.from_poly(ExactPoly((0, 0, Fraction(1, 9))))


@functools.cache
def _seed_poly(r: int, c: int) -> ExactPoly:
    """Coefficient of t^r in exp(2xt + c*t^2), built once per (r, c)."""
    if r < 0:
        raise ValueError("seed index must be >= 0")
    coeffs = [Fraction(0)] * (r + 1)
    for b in range(r // 2 + 1):
        a = r - 2 * b
        coeffs[a] = Fraction(2**a * c**b, math.factorial(a) * math.factorial(b))
    return ExactPoly(coeffs)


def psi_poly(r: int) -> ExactPoly:
    """Coefficient of t^r in exp(2xt - 3t^2); satisfies psi_r' = 2 psi_{r-1}."""
    return _seed_poly(r, -3)


def pseudo_psi_poly(r: int) -> ExactPoly:
    """Coefficient of t^r in exp(2xt + 3t^2), the pseudo companion of psi_r."""
    return _seed_poly(r, 3)


def _seed(kind: str) -> Callable[[int], ExactPoly]:
    """The seed family of a Wronskian form: psi_poly or pseudo_psi_poly."""
    if kind == "psi":
        return psi_poly
    if kind == "Psi":
        return pseudo_psi_poly
    raise ValueError("kind must be 'psi' or 'Psi'")


def plain_hermite(r: int) -> ExactPoly:
    """Physicists' Hermite polynomial H_r(x)."""
    if r < 0:
        raise ValueError("Hermite index must be >= 0")
    prev, cur = ExactPoly.one(), ExactPoly((0, 2))
    if r == 0:
        return prev
    for i in range(1, r):
        prev, cur = cur, ExactPoly((0, 2)) * cur - prev * (2 * i)
    return cur


def index_set_deleted(k: int) -> list[int]:
    """Oscillator levels removed by the state-deleting chain: the two
    nonmultiples of 3 in each block of three, {1,2,4,5,...,3k-2,3k-1}."""
    out = []
    for i in range(k):
        out.extend((3 * i + 1, 3 * i + 2))
    return out


def index_set_added(k: int) -> list[int]:
    """{2, 5, ..., 3k-1}: the conjugate-partition index set of the
    state-adding construction."""
    return [3 * i + 2 for i in range(k)]


def sigma_index(k: int, j: int, n: int) -> int:
    """Oscillator level sigma_{n;j} whose state-deleting image is mode (n, j)
    of potential k; every Wronskian and definition route starts here."""
    if k < 0:
        raise IndexOutOfCone("potential index k must be >= 0")
    if n < 0:
        raise ValueError("level index n must be >= 0")
    if j == 1:
        return 3 * n
    if j == 2:
        return 3 * n + 3 * k + 1
    if j == 3:
        return 3 * n + 3 * k + 2
    raise ValueError(f"sequence index j must be 1, 2 or 3, got {j}")


def _okamoto_wronskian_indices(m: int, n: int, form: str) -> list[int]:
    """Seed indices of the Wronskian representation of Q_{m,n}.

    psi form (valid for m >= 1):   {1,4,..,3(m+n)-5} + {2,5,..,3m-4}
    Psi form (valid for n >= 1):   {1,4,..,3(m+n)-5} + {2,5,..,3n-4}
    Psi form at n = 0:             {2,5,..,3m-4}
    """
    if form == "psi":
        if m == 0 and n > 1:
            raise MalformedIndexList("psi-form index lists need m >= 1")
        first = [3 * i + 1 for i in range(m + n - 1)]
        second = [3 * i + 2 for i in range(m - 1)]
        return first + second
    if form == "Psi":
        if n < 0:
            raise MalformedIndexList("Psi-form index lists need n >= 0")
        if n == 0:
            return [3 * i + 2 for i in range(m - 1)]
        first = [3 * i + 1 for i in range(m + n - 1)]
        second = [3 * i + 2 for i in range(n - 1)]
        return first + second
    raise ValueError("form must be 'psi' or 'Psi'")


def okamoto_via_wronskian(m: int, n: int, form: str) -> ExactPoly:
    """Q_{m,n} as a Wronskian of psi or pseudo-psi seeds, up to a nonzero
    scalar in Q(sqrt2); the proportionality to the recurrence table is
    checked before returning (CertificateFailed otherwise)."""
    if m + n < 1 or m < 0 or n < 0:
        raise MalformedIndexList("wronskian representation needs m, n >= 0 with m + n >= 1")
    indices = _okamoto_wronskian_indices(m, n, form)
    seed = _seed(form)
    if not indices:
        value = ExactPoly.one()
    else:
        value = wronskian([seed(i) for i in indices])
    c = value.proportionality(okamoto(m, n))
    if c is None or c.is_zero:
        raise CertificateFailed(
            f"wronskian form of Q_({m},{n}) is not proportional to the table entry"
        )
    return value


def wronskian_mode(k: int, j: int, n: int) -> ModeFunction:
    """Mode (n, j) with polynomial part Wr(psi over I(k) + {sigma}), the
    state-deleting image of the oscillator level sigma."""
    base = index_set_deleted(k)
    sigma = sigma_index(k, j, n)
    if sigma in base:
        raise DuplicateIndex(f"index {sigma} already belongs to the base set")
    entries = [psi_poly(i) for i in sorted(base + [sigma])]
    return ModeFunction(k=k, j=j, n=n, P=wronskian(entries), energy=energy(k, j, n))


def _log_second_derivative(p: ExactPoly) -> RationalFn:
    """(ln p)'' = (p'' p - p'^2)/p^2."""
    dp = p.derivative()
    return RationalFn(dp.derivative() * p - dp * dp, p * p)


def wronskian_potential(k: int, form: str) -> RationalFn:
    """The potential as a Wronskian of dressed seeds.

    deleting: x^2/9 - 2 (ln Wr(psi~ over I(k)))'' - 1/3, with psi~ = e^{-x^2/6} psi;
    adding:   x^2/9 - 2 (ln Wr(Psi~ over {2,5,..,3k-1}))'' + 2k - 1/3, with
              Psi~ = e^{+x^2/6} Psi, the shift re-anchoring the ground level
              after k states are inserted below it.
    The Gaussian of l seeds factors out as e^{l*s*x^2/6} (Crum 1955), so the
    determinant is Wr(p_1, .., p_l) of the seed polynomials and the Gaussian
    adds the constant -2*l*s/3.
    """
    if k < 0:
        raise ValueError("k must be >= 0")
    if form == "deleting":
        seeds, s, shift = [psi_poly(i) for i in index_set_deleted(k)], -1, Fraction(-1, 3)
    elif form == "adding":
        seeds, s, shift = [pseudo_psi_poly(i) for i in index_set_added(k)], 1, 2 * k - Fraction(1, 3)
    else:
        raise ValueError("form must be 'deleting' or 'adding'")
    v = _X_SQ_OVER_9 + RationalFn.constant(shift - Fraction(2 * len(seeds) * s, 3))
    if not seeds:
        return v
    return v - _log_second_derivative(wronskian(seeds)) * 2


def susy_chain_potential(deleted_levels: list[int]) -> RationalFn:
    """The oscillator x^2/9 - 1/3 with the given bound levels deleted by an
    iterated Darboux chain (Crum 1955), one level per step.

    The seeds are u_i = psi_{n_i} exp(-x^2/6), in increasing level.  Each
    step takes L = u_1'/u_1, sets V <- V - 2L' and maps the remaining seeds
    through d/dx - L.  The result is x^2/9 - 2 (ln Wr(u_1, .., u_j))'' - 1/3,
    reached without building that Wronskian.

    Raises SingularWronskian when V has a real pole; those are exactly the
    real zeros of the seed Wronskian.
    """
    levels = list(deleted_levels)
    if len(set(levels)) != len(levels) or any(v < 1 for v in levels):
        raise ValueError("deleted levels must be distinct integers >= 1")
    v = _X_SQ_OVER_9 + RationalFn.constant(Fraction(-1, 3))
    seeds = [QuasiGaussian(psi_poly(i)) for i in sorted(levels)]
    while seeds:
        u = seeds.pop(0).rational
        log_u = log_derivative(u.num, u.den) + _GAUSS_SLOPE
        v = v - log_u.derivative() * 2
        seeds = [apply_first_order(1, -log_u, seed) for seed in seeds]
    if sturm_count(v.den).n_total:
        raise SingularWronskian(f"chained potential for levels {sorted(levels)} has a real pole")
    return v


def partition_nu_indices(lam: list[int]) -> list[int]:
    """Wronskian degrees nu_p = lam2_p + p - 1 of the doubled partition
    lam2 = (lam_1, lam_1, .., lam_l, lam_l); consecutive pairs by block."""
    if any(a > b for a, b in zip(lam, lam[1:])) or any(v < 1 for v in lam):
        raise MalformedIndexList("partition must be nondecreasing with parts >= 1")
    doubled = [v for v in lam for _ in range(2)]
    return [v + p for p, v in enumerate(doubled)]


def exceptional_hermite(lam: list[int], n: int) -> ExactPoly:
    """Exceptional Hermite polynomial for the doubled partition of lam:
    Wr over the plain Hermite polynomials H_{nu_1}, .., H_{nu_2l}, H_n."""
    nu = partition_nu_indices(lam)
    excluded = set(nu)
    if n in excluded:
        raise ExcludedDegree(f"degree {n} lies in the gap set {sorted(excluded)}")
    return wronskian([plain_hermite(i) for i in nu] + [plain_hermite(n)])


def sqrt3_rescale(p: ExactPoly) -> ExactPoly:
    """p(sqrt3 * x) divided by the overall 3^{parity/2}; requires a
    parity-definite p so the result stays inside Q(sqrt2)[x]."""
    parity = p.parity()
    if parity is None:
        raise ValueError("rescaling by sqrt3 needs a parity-definite polynomial")
    return p.rescaled_by_powers_of_3(parity)


def xhermite_from_ttrr(k: int, j: int, n: int) -> ExactPoly:
    """The recurrence route to the exceptional family: P_{n;j} rescaled by
    x -> sqrt3 x, checked proportional to the Wronskian definition at
    degree index sigma_{n;j} for the staircase partition (1, .., k)
    (CertificateFailed otherwise)."""
    p = ttrr_sequence(k, j, n)[n]
    rescaled = sqrt3_rescale(p)
    target = exceptional_hermite(list(range(1, k + 1)), sigma_index(k, j, n))
    c = rescaled.proportionality(target)
    if c is None or c.is_zero:
        raise CertificateFailed(
            f"recurrence route and Wronskian definition disagree at (k={k}, j={j}, n={n})"
        )
    return rescaled


def wronskian_identity_check(
    indices: list[int], extra: tuple[int, int], kind: str = "psi"
) -> bool:
    """Bilinear Wronskian identity on one solvable seed family:
    Wr[W_{S+a}, W_{S+b}] is proportional to W_S * W_{S+a+b}.

    With the empty-base convention W_{} = 1, the base-free case degenerates
    to equal sides.
    """
    a, b = extra
    if a in indices or b in indices or a == b:
        raise DuplicateIndex("extra indices must be new and distinct")
    seed = _seed(kind)

    def wr(idx: list[int]) -> ExactPoly:
        if not idx:
            return ExactPoly.one()
        return wronskian([seed(i) for i in idx])

    lhs = wronskian([wr(indices + [a]), wr(indices + [b])])
    rhs = wr(indices) * wr(indices + [a, b])
    c = lhs.proportionality(rhs)
    return c is not None and not c.is_zero
