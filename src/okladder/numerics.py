"""Floating-point cross-checks of the exact constructions.

Correctly rounded evaluation of exact expressions, a Dirichlet
finite-difference eigensolver for H = -d''/dx'' + V on a symmetric grid,
and composite Gauss-Legendre inner products of modes.  The default grid
and every tolerance are the module constants below NumericGrid.

Each Dirichlet spectrum is solved once per process and kept in _SPECTRA;
the memo has no eviction and takes no locks, as the package runs no threads.
"""

from __future__ import annotations

import functools
import math
import sys
from dataclasses import dataclass
from fractions import Fraction

import numpy as np
from scipy.linalg import eigh_tridiagonal

from .errors import GridTooCoarse
from .exact_ring import ExactPoly, RationalFn, SqrtTwoScalar, _graded
from .spectral import ModeFunction, energy, potential


@dataclass(frozen=True)
class NumericGrid:
    """Symmetric grid on [-half_width, half_width] with an odd point count."""

    half_width: float = 25.0
    points: int = 8001

    def __post_init__(self) -> None:
        if not (0 < self.half_width < math.inf):
            raise ValueError(f"half_width must be positive and finite, got {self.half_width}")
        if self.points < 3 or self.points % 2 == 0:
            raise ValueError("points must be an odd integer >= 3")
        # The finite-difference matrix holds 2/h^2: h^2 must be a finite
        # normal double.
        if not sys.float_info.min <= self.spacing * self.spacing < math.inf:
            raise ValueError(
                f"half_width {self.half_width} with {self.points} points gives a grid "
                f"spacing {self.spacing} that cannot be squared"
            )

    @property
    def spacing(self) -> float:
        return 2.0 * self.half_width / (self.points - 1)

    def nodes(self) -> np.ndarray:
        return np.linspace(-self.half_width, self.half_width, self.points)

    def refined(self) -> "NumericGrid":
        return NumericGrid(self.half_width, 2 * self.points - 1)


# Default grid and tolerances of every floating-point check.
GRID = NumericGrid()
QUAD_PANEL_WIDTH = 0.5
QUAD_ORDER = 10
EIGENVALUE_TOL = 1e-6
ORTHOGONALITY_TOL = 1e-8
COARSE_SHIFT_TOL = 1e-3


def eval_float(expr, x: float, gaussian: bool = False) -> float:
    """Value of an exact expression at x, correctly rounded to a double.

    The expression is evaluated exactly at Fraction(x) in Q(sqrt2) and
    rounded once.  With gaussian, expr is the rational part R of the mode
    R exp(-x^2/6), whose value is the rounded R times the double
    exp(-x^2/6), or sign(R)*exp(ln|R| - x^2/6) where R overflows or that
    double is not normal.  A non-finite x raises ValueError.
    """
    if isinstance(x, float) and not math.isfinite(x):
        raise ValueError(f"cannot evaluate at x = {x}")
    if not isinstance(expr, (ExactPoly, RationalFn)):
        raise TypeError(f"cannot evaluate {type(expr).__name__}")
    value = expr.eval(Fraction(x))
    if not gaussian:
        return _round(value)
    base, gauss = _round(value), math.exp(-x * x / 6)
    if not value or (math.isfinite(base) and gauss >= sys.float_info.min):
        return base * gauss
    v, r, den = _graded(value)  # value = sqrt2^r * v/den: ln|value| needs no rounding
    try:
        return value.sign() * math.exp(
            math.log(abs(v)) - math.log(den) + r * math.log(2) / 2 - x * x / 6
        )
    except OverflowError:
        return value.sign() * math.inf


def _round(value: SqrtTwoScalar) -> float:
    """The double nearest to value, +-inf beyond the largest double.

    A rational value v/den rounds by correctly rounded integer division.
    For sqrt2*v/den with v != 0, sqrt2 lies between r/2^n and (r+1)/2^n
    with r = isqrt(2*4^n); n doubles until both ends of the bracket round
    to the same double.  An irrational value is never a tie, so it ends.
    """
    v, grade, den = _graded(value)
    if not grade:
        return _quotient(v, den)
    n = 64
    while True:
        r = math.isqrt(2 << 2 * n)
        lo = _quotient(v * r, den << n)
        hi = _quotient(v * (r + 1), den << n)
        if lo == hi:
            return lo
        n *= 2


def _quotient(num: int, den: int) -> float:
    """num/den for den > 0, correctly rounded; +-inf where that overflows."""
    try:
        return num / den
    except OverflowError:
        return math.inf if num > 0 else -math.inf


def _poly_array(p: ExactPoly) -> np.ndarray:
    return np.array(p.to_floats(), dtype=float) if not p.is_zero else np.zeros(1)


def eval_array(expr, xs: np.ndarray, gaussian: bool = False) -> np.ndarray:
    """Vectorized double-precision evaluation on a grid.

    A rational function is num(x)/den(x), and a polynomial is one over 1.
    Where num or den overflows, it is taken instead as
    num_rev(1/x)/den_rev(1/x) * x^(deg num - deg den) with the reversed
    coefficient arrays, so a value that fits a double is not lost to the
    overflow of the powers of x.  With gaussian, expr is the rational part
    R of the mode R exp(-x^2/6), and the values are those of the mode."""
    if isinstance(expr, ExactPoly):
        expr = RationalFn.from_poly(expr)
    if not isinstance(expr, RationalFn):
        raise TypeError(f"cannot evaluate {type(expr).__name__}")
    polyval = np.polynomial.polynomial.polyval
    cn, cd = _poly_array(expr.num), _poly_array(expr.den)
    with np.errstate(over="ignore", invalid="ignore"):
        num, den = polyval(xs, cn), polyval(xs, cd)
        vals = num / den
        far = ~(np.isfinite(num) & np.isfinite(den))
        if far.any():
            x = xs[far]
            vals[far] = polyval(1.0 / x, cn[::-1]) / polyval(1.0 / x, cd[::-1]) * x ** (
                expr.num.degree - expr.den.degree
            )
    if not gaussian:
        return vals
    with np.errstate(over="ignore", divide="ignore", invalid="ignore"):
        gauss = np.exp(-xs * xs / 6.0)
        # Where R overflows or the Gaussian is below the smallest normal
        # double: sign(R)*exp(ln|R| - x^2/6), ln|R| from the reversed arrays.
        far = ~np.isfinite(vals) | (gauss < sys.float_info.min)
        vals = np.where(far, 0.0, vals) * gauss
        if far.any():
            x, d = xs[far], expr.num.degree - expr.den.degree
            q = polyval(1.0 / x, cn[::-1]) / polyval(1.0 / x, cd[::-1])  # R(x) = q * x^d
            log_abs = np.log(np.abs(q)) + d * np.log(np.abs(x))
            vals[far] = np.sign(q * x**d) * np.exp(log_abs - x * x / 6.0)
    return vals


# Lowest Dirichlet eigenvalues per (k, grid, count), read-only.  count
# stays in the key: the last bits of LAPACK's bisection depend on the index
# range it is asked for, so a prefix of a longer solve is not the same.
_SPECTRA: dict[tuple[int, NumericGrid, int], np.ndarray] = {}


def _dirichlet_eigenvalues(k: int, grid: NumericGrid, count: int) -> np.ndarray:
    key = (k, grid, count)
    values = _SPECTRA.get(key)
    if values is not None:
        return values
    xs = grid.nodes()[1:-1]
    h = grid.spacing
    diag = 2.0 / h**2 + eval_array(potential(k).potential_fn(), xs)
    off = np.full(xs.size - 1, -1.0 / h**2)
    # scipy returns a view of an array with one slot per node: the copy
    # keeps only count floats alive.
    values = eigh_tridiagonal(
        diag, off, select="i", select_range=(0, count - 1), eigvals_only=True
    ).copy()
    values.flags.writeable = False
    _SPECTRA[key] = values
    return values


def fd_eigensolve(
    k: int,
    grid: NumericGrid | None = None,
    count: int = 9,
    coarse_shift_tol: float | None = None,
) -> list[float]:
    """Lowest eigenvalues of the central-difference discretization of the
    level-k Hamiltonian, Richardson-extrapolated over one grid halving.

    Raises GridTooCoarse when halving the spacing moves any eigenvalue by
    more than coarse_shift_tol, i.e. the h^2 error model is not yet valid.
    Every argument is checked before _SPECTRA is read, and the grid test
    runs on every call, on the memoized spectra too.
    """
    if count < 1:
        raise ValueError("count must be >= 1")
    grid = grid or GRID
    if count > grid.points - 2:
        raise ValueError(
            f"count {count} exceeds the number of interior nodes, {grid.points - 2}, "
            f"of a {grid.points}-point grid"
        )
    tol = COARSE_SHIFT_TOL if coarse_shift_tol is None else coarse_shift_tol
    # Written so that NaN fails too: no shift compares greater than NaN.
    if not tol >= 0:
        raise ValueError(f"coarse_shift_tol must be >= 0, got {tol}")
    coarse = _dirichlet_eigenvalues(k, grid, count)
    fine = _dirichlet_eigenvalues(k, grid.refined(), count)
    if np.max(np.abs(fine - coarse)) > tol:
        raise GridTooCoarse(
            f"halving the grid moved an eigenvalue by {np.max(np.abs(fine - coarse)):.3e}"
        )
    return list((4.0 * fine - coarse) / 3.0)


def spectrum_exact(k: int, count: int) -> list[Fraction]:
    """Sorted union of the three energy progressions."""
    levels: list[Fraction] = []
    for j in (1, 2, 3):
        levels.extend(energy(k, j, n) for n in range(count))
    return sorted(levels)[:count]


@functools.cache
def _gauss_panels() -> tuple[np.ndarray, np.ndarray]:
    """Nodes and weights of QUAD_ORDER-point Gauss-Legendre panels of width
    QUAD_PANEL_WIDTH tiling the GRID window, built once; both read-only."""
    nodes, weights = np.polynomial.legendre.leggauss(QUAD_ORDER)
    edges = np.arange(-GRID.half_width, GRID.half_width - 1e-12, QUAD_PANEL_WIDTH)
    half = QUAD_PANEL_WIDTH / 2.0
    mids = edges + half
    xs = (mids[:, None] + half * nodes[None, :]).ravel()
    ws = np.broadcast_to(half * weights[None, :], (mids.size, QUAD_ORDER)).ravel()
    xs.flags.writeable = ws.flags.writeable = False
    return xs, ws


def quadrature_inner(a: ModeFunction, b: ModeFunction) -> float:
    """Integral of a*b over the GRID window by composite Gauss-Legendre
    panels; the modes are real so no conjugation is involved."""
    if a.k != b.k:
        raise ValueError("inner products are defined for modes of one Hamiltonian")
    xs, ws = _gauss_panels()
    va, vb = eval_array(a.phi(), xs, gaussian=True), eval_array(b.phi(), xs, gaussian=True)
    return float(np.sum(ws * va * vb))


def normalized_cross_inner(a: ModeFunction, b: ModeFunction) -> float:
    """|<a,b>| / sqrt(<a,a><b,b>)."""
    cross = quadrature_inner(a, b)
    na = quadrature_inner(a, a)
    nb = quadrature_inner(b, b)
    return abs(cross) / float(np.sqrt(na * nb))
