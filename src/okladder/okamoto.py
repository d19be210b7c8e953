"""Generalized Okamoto polynomials Q_{m,n} on the cone m >= 0, n >= -1.

The table is filled from the two nonlinear recurrences that advance the
first and second index, seeded by Q_{0,0} = Q_{1,0} = Q_{0,1} = 1 and
Q_{1,1} = sqrt2*x.  Every division the recurrences require is exact; a
nonzero remainder signals a wrong recurrence instance and raises.
"""

from __future__ import annotations

import contextlib
import json
import os

from .errors import CorruptCache, IndexOutOfCone
from .exact_ring import SQRT2, ExactPoly


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
            value = self._fill_column(m, n)
        else:
            mid, other, c = _recurrence(m, n)
            value = self.get(*mid)._toda_rhs(c).exact_div(self.get(*other))
        self._memo[(m, n)] = value
        return value

    def _fill_column(self, m: int, n: int) -> ExactPoly:
        # Ascend the first index from the two seeds of column n.
        top = max(mm for (mm, nn) in self._memo if nn == n and (mm - 1, n) in self._memo)
        for mm in range(top + 1, m + 1):
            mid, other, c = _recurrence(mm, n)
            self._memo[(mm, n)] = self._memo[mid]._toda_rhs(c).exact_div(self._memo[other])
        return self._memo[(m, n)]

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
        okamoto_degree(m, n), or CorruptCache is raised and nothing is
        merged.  Each new entry whose two recurrence partners are in the
        memo or the file must also satisfy the recurrence step that `get`
        would make it by, at one point mod a prime (`_toda_spot_check`)."""
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
            entries[(m, n)] = poly
        for (m, n), poly in sorted(entries.items()):
            if (m, n) in self._memo:
                continue
            mid, other, c = _recurrence(m, n)
            q = self._memo.get(mid) or entries.get(mid)
            partner = self._memo.get(other) or entries.get(other)
            if q is not None and partner is not None and not q._toda_spot_check(c, partner, poly):
                raise CorruptCache(f"cached Q_({m},{n}) fails its recurrence")
        for key, poly in entries.items():
            self._memo.setdefault(key, poly)
        # The merged memo holds every file entry, so equal sizes mean the
        # file held the whole memo.
        size = len(self._memo)
        self._seen = (path, raw, size if size == len(entries) else None)


def _recurrence(m: int, n: int) -> tuple[tuple[int, int], tuple[int, int], int]:
    """(mid, other, c) with Q_{m,n} * Q_other = Q_mid._toda_rhs(c): the step
    that makes Q_{m,n} off the seeds.  Columns 0 and 1 advance the first
    index, c = 2m' + n - 1 at m' = m - 1; the n = -1 column and columns
    n >= 2 advance the second, c = 1 - m - 2n' at n' = n + 1 and n - 1."""
    if n in (0, 1):
        return (m - 1, n), (m - 2, n), 2 * m + n - 3
    if n == -1:
        return (m, 0), (m, 1), 1 - m
    return (m, n - 1), (m, n - 2), 3 - m - 2 * n


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
