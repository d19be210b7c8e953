"""Generalized Okamoto polynomials Q_{m,n} on the cone m >= 0, n >= -1.

The table is filled from the two nonlinear recurrences that advance the
first and second index,

    Q_{m,n} * Q_other = (9/2)(q q'' - q'^2) + (2x^2 + 3c) q^2,  q = Q_mid,

seeded by Q_{0,0} = Q_{1,0} = Q_{0,1} = 1 and Q_{1,1} = sqrt2*x.  Each
step runs in the variable u = sqrt(2/3)*x of Noumi and Yamada (1999) and
Clarkson (2003): with q(x) = 3**(D/2) * Y(u) for q of degree D it reads

    Y_{m,n} * Y_other = Y Y'' - Y'^2 + (u^2 + c) Y^2,

every constant cancelling because D_{m,n} + D_other = 2 D_mid + 2.  Each
Y is monic with integer entries and has the parity of D: the seeds are,
the right side has top entry 1, and an exact division by a monic integer
divisor stays integral.  The memo holds the x form sqrt2**(D mod 2) * X
with X_i = 2**(i // 2) * 3**((D - i)/2) * Y_i and denominator 1; a step
converts its two partners to u, divides over Z and converts the quotient
back.  A partner that is not monic and integral in u, or a division that
leaves a remainder, raises CertificateFailed naming the step.
"""

from __future__ import annotations

import contextlib
import json
import os

from .errors import CertificateFailed, CorruptCache, IndexOutOfCone
from .exact_ring import SQRT2, ExactPoly, _exact_quo, _raw, _toda_ints


def okamoto_degree(m: int, n: int) -> int:
    """Degree m^2 + n^2 + m*n - m - n of Q_{m,n}."""
    return m * m + n * n + m * n - m - n


def check_cone(m: int, n: int) -> None:
    """Raise IndexOutOfCone unless (m, n) lies in the cone of the table."""
    if m < 0 or n < -1:
        raise IndexOutOfCone(f"Q_({m},{n}) is outside the supported cone m >= 0, n >= -1")


class OkamotoTable:
    """Append-only memo of Q_{m,n}; fills columns n = 0 and n = 1 by the
    first-index recurrence, the n = -1 column by the second-index recurrence
    at n = 0, and columns n >= 2 by the second-index recurrence ascending n.
    """

    def __init__(self) -> None:
        one = ExactPoly.one()
        self._memo: dict[tuple[int, int], ExactPoly] = {
            (0, 0): one,
            (1, 0): one,
            (0, 1): one,
            (1, 1): ExactPoly.monomial(SQRT2, 1),
        }
        # (path, raw bytes, memo size if the file held the whole memo else
        # None): what the cache file held when this table last validated or
        # wrote it.
        self._seen: tuple[str, bytes, int | None] | None = None

    def __contains__(self, key: tuple[int, int]) -> bool:
        return key in self._memo

    def known_indices(self) -> list[tuple[int, int]]:
        return sorted(self._memo)

    def get(self, m: int, n: int) -> ExactPoly:
        check_cone(m, n)
        cached = self._memo.get((m, n))
        if cached is not None:
            return cached
        if n in (0, 1):
            return self._fill_column(m, n)
        mid, other, _ = _recurrence(m, n)
        self.get(*mid)
        self.get(*other)
        value = self._memo[(m, n)] = self._step(m, n)
        return value

    def _fill_column(self, m: int, n: int) -> ExactPoly:
        # Ascend the first index from the two seeds of column n.
        top = max(mm for (mm, nn) in self._memo if nn == n and (mm - 1, n) in self._memo)
        for mm in range(top + 1, m + 1):
            self._memo[(mm, n)] = self._step(mm, n)
        return self._memo[(m, n)]

    def _step(self, m: int, n: int) -> ExactPoly:
        """Q_{m,n} by its recurrence in u from its two partners in the memo."""
        mid, other, c = _recurrence(m, n)
        y, below = _u_array(self._memo[mid]), _u_array(self._memo[other])
        for key, arr in ((mid, y), (other, below)):
            if arr is None:
                raise CertificateFailed(
                    f"{_step_name(m, n)}: {_name(*key)} is not monic and integral"
                    " in u = sqrt(2/3)*x"
                )
        quo = _exact_quo(_toda_ints(y, c), below)
        if quo is None:
            raise CertificateFailed(f"{_step_name(m, n)}: the division leaves a remainder")
        return _x_poly(quo)

    # -- optional on-disk persistence (used by the CLI cache) ----------------
    def dump(self, path: str) -> None:
        """Write the table as JSON through a temp file in the same directory
        that is renamed over `path`, so the file is always whole.  Nothing is
        written when the memo has gained no entry since this table last wrote
        or fully loaded `path` and the file still holds those same bytes."""
        items = list(self._memo.items())
        seen = self._seen
        if seen is not None and seen[0] == path and seen[2] == len(items):
            with contextlib.suppress(OSError):
                if _read_bytes(path) == seen[1]:
                    return
        data = {f"{m},{n}": poly.to_json_dict() for (m, n), poly in items}
        # One temp name per process, so dumps from several processes never
        # share a file; it is created like `path` itself, under the umask.
        tmp = f"{path}.{os.getpid()}.tmp"
        try:
            with open(tmp, "w", encoding="utf-8") as fh:
                json.dump(data, fh, sort_keys=True)
            raw = _read_bytes(tmp)
            os.replace(tmp, path)
        except BaseException:
            with contextlib.suppress(OSError):
                os.unlink(tmp)
            raise
        self._seen = (path, raw, len(items))

    def load(self, path: str) -> None:
        """Merge a cache written by `dump`; a missing file is an empty cache.
        The file is untrusted: unless its bytes are exactly those this table
        last validated or wrote for `path`, every key must name an index in
        the cone and every entry must be a polynomial of degree
        okamoto_degree(m, n) that is monic and integral in u, as every
        Q_{m,n} is (see the module docstring), or CorruptCache is raised and
        nothing is merged.  Each new entry whose two recurrence partners are
        in the memo or the file must also satisfy the recurrence step that
        `get` would make it by, at one point mod a prime (`_spot_check`)."""
        try:
            raw = _read_bytes(path)
        except FileNotFoundError:
            return
        except OSError as exc:
            raise CorruptCache(f"{path} cannot be read: {exc.strerror}") from exc
        seen = self._seen
        if seen is not None and seen[0] == path and seen[1] == raw:
            return  # the append-only memo already holds these entries
        try:
            data = json.loads(raw.decode("utf-8"))
        except ValueError as exc:
            raise CorruptCache(f"{path} is not valid JSON: {exc}") from exc
        if not isinstance(data, dict):
            raise CorruptCache(f"{path} does not hold a table of polynomials")
        entries = {}
        for key, entry in data.items():
            m, n = _cache_key(key)
            try:
                poly = ExactPoly.from_json_dict(entry)
            except (ArithmeticError, KeyError, TypeError, ValueError) as exc:
                raise CorruptCache(f"cached Q_({m},{n}) is malformed") from exc
            if poly.degree != okamoto_degree(m, n):
                raise CorruptCache(
                    f"cached Q_({m},{n}) has degree {poly.degree}, "
                    f"expected {okamoto_degree(m, n)}"
                )
            y = _u_array(poly)
            if y is None:
                raise CorruptCache(
                    f"cached Q_({m},{n}) is not monic and integral in u = sqrt(2/3)*x"
                )
            entries[(m, n)] = poly, y

        def u_form(key):
            q = self._memo.get(key)
            if q is not None:
                return _u_array(q)
            found = entries.get(key)
            return found[1] if found is not None else None

        for (m, n), (_, y) in sorted(entries.items()):
            if (m, n) in self._memo:
                continue
            mid, other, c = _recurrence(m, n)
            y_mid, below = u_form(mid), u_form(other)
            if y_mid is not None and below is not None and not _spot_check(y_mid, c, below, y):
                raise CorruptCache(f"cached Q_({m},{n}) fails its recurrence")
        for key, (poly, _) in entries.items():
            self._memo.setdefault(key, poly)
        # The merged memo holds every file entry, so equal sizes mean the
        # file held the whole memo.
        size = len(self._memo)
        self._seen = (path, raw, size if size == len(entries) else None)


def _recurrence(m: int, n: int) -> tuple[tuple[int, int], tuple[int, int], int]:
    """(mid, other, c) with Q_{m,n} * Q_other = T_c(Q_mid): the step that
    makes Q_{m,n} off the seeds, T_c(q) = (9/2)(q q'' - q'^2) + (2x^2 + 3c) q^2.
    Columns 0 and 1 advance the first index, c = 2m' + n - 1 at m' = m - 1;
    the n = -1 column and columns n >= 2 advance the second, c = 1 - m - 2n'
    at n' = n + 1 and n - 1."""
    if n in (0, 1):
        return (m - 1, n), (m - 2, n), 2 * m + n - 3
    if n == -1:
        return (m, 0), (m, 1), 1 - m
    return (m, n - 1), (m, n - 2), 3 - m - 2 * n


def _name(m: int, n: int) -> str:
    return f"Q_({m},{n})"


def _step_name(m: int, n: int) -> str:
    """The recurrence instance that makes Q_{m,n}, for error messages."""
    mid, other, c = _recurrence(m, n)
    index = "first" if n in (0, 1) else "second"
    return (
        f"{_name(m, n)} by the {index}-index recurrence "
        f"{_name(m, n)}*{_name(*other)} = T_{c}({_name(*mid)})"
    )


def _u_array(q: ExactPoly) -> list[int] | None:
    """The integer array of Y with q(x) = 3**(D/2) * Y(sqrt(2/3)*x), D the
    degree of q, or None unless Y is monic with integer entries of the
    parity of D: q must be sqrt2**(D mod 2) * X with X_i = 2**(i // 2) *
    3**((D - i)/2) * Y_i, denominator 1."""
    X, r, den = q._int_arrays()
    d = len(X) - 1
    half = d // 2
    if d < 0 or den != 1 or r != d % 2 or X[-1] != 1 << half or any(X[1 - d % 2 :: 2]):
        return None
    Y = [0] * (d + 1)
    p3 = 1
    for k in range(half + 1):
        i = d - 2 * k  # 2**(i // 2) = 2**(half - k)
        v = X[i]
        if v:
            shift = half - k
            if v & ((1 << shift) - 1):
                return None
            Y[i], rem = divmod(v >> shift, p3)
            if rem:
                return None
        p3 *= 3
    return Y


def _x_poly(Y: list[int]) -> ExactPoly:
    """The polynomial q(x) = 3**(D/2) * Y(sqrt(2/3)*x) of a monic integer
    array Y of degree D and of its parity: the inverse of `_u_array`."""
    d = len(Y) - 1
    half = d // 2
    X = [0] * (d + 1)
    p3 = 1
    for k in range(half + 1):
        i = d - 2 * k
        if Y[i]:
            X[i] = Y[i] * p3 << (half - k)
        p3 *= 3
    return _raw(tuple(X), d % 2, 1)


# The prime and the point of `_spot_check`.
_SPOT_P = (1 << 61) - 1
_SPOT_X = 1_234_567_891


def _mod_value(Y: list[int]) -> int:
    """Y(_SPOT_X) mod _SPOT_P by Horner's rule."""
    v = 0
    for a in reversed(Y):
        v = (v * _SPOT_X + a) % _SPOT_P
    return v


def _spot_check(y: list[int], c: int, below: list[int], above: list[int]) -> bool:
    """Whether below * above == Y Y'' - Y'^2 + (u^2 + c) Y^2 for the u forms
    of a recurrence step, at u = _SPOT_X mod the prime _SPOT_P."""
    p, t = _SPOT_P, _SPOT_X
    y0 = y1 = y2 = 0  # Y(t), Y'(t) and Y''(t)/2 by one Horner pass
    for v in reversed(y):
        y2 = (y2 * t + y1) % p
        y1 = (y1 * t + y0) % p
        y0 = (y0 * t + v) % p
    rhs = 2 * y0 * y2 - y1 * y1 + (t * t + c) * y0 * y0
    return (_mod_value(below) * _mod_value(above) - rhs) % p == 0


def _read_bytes(path: str) -> bytes:
    with open(path, "rb") as fh:
        return fh.read()


def _cache_key(key: str) -> tuple[int, int]:
    """(m, n) from a cache key "m,n" that names an index in the cone."""
    try:
        m, n = (int(part) for part in key.split(","))
    except ValueError:
        raise CorruptCache(f"cache key {key!r} is not of the form 'm,n'") from None
    if key != f"{m},{n}":
        raise CorruptCache(f"cache key {key!r} is not of the form 'm,n'")
    if m < 0 or n < -1:
        raise CorruptCache(f"cache key {key!r} is outside the cone m >= 0, n >= -1")
    return m, n


DEFAULT_TABLE = OkamotoTable()


def okamoto(m: int, n: int) -> ExactPoly:
    """Q_{m,n} from the shared table."""
    return DEFAULT_TABLE.get(m, n)
