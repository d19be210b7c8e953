"""Generation, seeding, degrees, parity, and recurrence consistency."""

import importlib
import json
import os
import re
import subprocess
import sys
from fractions import Fraction
from pathlib import Path

import pytest

from okladder import exact_ring
from okladder.errors import CertificateFailed, CorruptCache, IndexOutOfCone
from okladder.exact_ring import SQRT2, ExactPoly
from okladder.okamoto import (
    OkamotoTable,
    _recurrence,
    _u_array,
    _x_poly,
    okamoto,
    okamoto_degree,
)
from okladder.reference_data import (
    OKAMOTO_COLUMN_0,
    OKAMOTO_COLUMN_MINUS_1,
    OKAMOTO_COLUMN_PLUS_1,
)

# The package exports the function `okamoto` under the module's name.
okamoto_module = importlib.import_module("okladder.okamoto")

_SRC = Path(__file__).resolve().parents[1] / "src"


def test_seeds():
    one = ExactPoly.one()
    assert okamoto(0, 0) == one and okamoto(1, 0) == one and okamoto(0, 1) == one
    assert okamoto(1, 1) == ExactPoly((0, SQRT2))
    assert okamoto(0, -1) == ExactPoly((3, 0, 2))
    assert okamoto(1, -1) == ExactPoly((0, SQRT2))


@pytest.mark.parametrize("k,expected", sorted(OKAMOTO_COLUMN_0.items()))
def test_conventional_table(k, expected):
    assert okamoto(k, 0) == expected


@pytest.mark.parametrize("k,expected", sorted(OKAMOTO_COLUMN_PLUS_1.items()))
def test_plus_one_table(k, expected):
    assert okamoto(k, 1) == expected


@pytest.mark.parametrize("k,expected", sorted(OKAMOTO_COLUMN_MINUS_1.items()))
def test_minus_one_table(k, expected):
    assert okamoto(k, -1) == expected


def test_hand_expanded_recurrence_instance():
    # advancing the first index from Q_2 = 2x^2+3:
    # (9/2)(Q_2 * 4 - (4x)^2) + (2x^2 + 9) Q_2^2 = Q_3 * Q_1
    q2 = ExactPoly((3, 0, 2))
    rhs = (q2 * 4 - ExactPoly((0, 4)) ** 2) * Fraction(9, 2) + ExactPoly((9, 0, 2)) * q2 * q2
    assert rhs == ExactPoly((135, 0, 90, 0, 60, 0, 8))
    assert okamoto(3, 0) == rhs


@pytest.mark.parametrize(
    "m,n,expected", [(4, 0, 12), (0, 0, 0), (2, 1, 4), (3, -1, 5), (5, 5, 65)]
)
def test_degree_formula(m, n, expected):
    assert okamoto_degree(m, n) == expected


def test_degrees_and_parity_of_generated_entries():
    for m in range(6):
        for n in range(-1, 5):
            q = okamoto(m, n)
            d = okamoto_degree(m, n)
            assert q.degree == d
            assert q.parity() == d % 2


def test_both_recurrences_hold_on_stored_triples():
    table = OkamotoTable()
    for m in range(5):
        for n in range(-1, 4):
            table.get(m, n)

    def rhs1(m, n):
        q = table.get(m, n)
        dq = q.derivative()
        return (q * dq.derivative() - dq * dq) * Fraction(9, 2) + (
            ExactPoly((3 * (2 * m + n - 1), 0, 2))
        ) * q * q

    def rhs2(m, n):
        q = table.get(m, n)
        dq = q.derivative()
        return (q * dq.derivative() - dq * dq) * Fraction(9, 2) + (
            ExactPoly((3 * (1 - m - 2 * n), 0, 2))
        ) * q * q

    for m in range(1, 4):
        for n in range(-1, 4):
            assert table.get(m + 1, n) * table.get(m - 1, n) == rhs1(m, n), (m, n)
    for m in range(4):
        for n in range(0, 3):
            assert table.get(m, n + 1) * table.get(m, n - 1) == rhs2(m, n), (m, n)


def _x_toda_ints(A, c):
    """Integer array of 2*(9/2 (a a'' - a'^2) + (2x^2 + 3c) a^2) for the
    integer polynomial a = sum A_i x^i: the fused x-form kernel of the fill
    before it moved to u = sqrt(2/3)*x."""
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
    out = [0] * (2 * n + 1)
    for s, v in enumerate(sq):
        if v:
            out[s] += 6 * c * v
            out[s + 2] += 4 * v
    for s in range(2, 2 * n - 1):
        if bil[s]:
            out[s - 2] += 9 * bil[s]
    return out


class XFormTable:
    """The fill in x, kept as the oracle of the fill in u: each step is the
    x-form right side over its rational scale, divided exactly by the
    other partner with `ExactPoly.exact_div`."""

    def __init__(self):
        self.memo = {key: okamoto(*key) for key in ((0, 0), (1, 0), (0, 1), (1, 1))}

    def get(self, m, n):
        if (m, n) not in self.memo:
            mid, other, c = _recurrence(m, n)
            X, r, den = self.get(*mid)._int_arrays()
            rhs = exact_ring._lift(_x_toda_ints(X, c), 2 * r, 2 * den * den)
            self.memo[(m, n)] = rhs.exact_div(self.get(*other))
        return self.memo[(m, n)]


def test_fill_matches_the_x_form_oracle():
    table, oracle = OkamotoTable(), XFormTable()
    for m in range(11):
        for n in range(-1, 11):
            got, want = table.get(m, n), oracle.get(m, n)
            assert got.to_json_dict() == want.to_json_dict(), (m, n)
            assert got._int_arrays() == want._int_arrays(), (m, n)


def test_every_entry_is_monic_and_integral_in_u():
    # X_i = 2**(i // 2) * 3**((D - i)/2) * Y_i, sqrt2**(D mod 2), den 1.
    for m in range(8):
        for n in range(-1, 8):
            q = okamoto(m, n)
            d = okamoto_degree(m, n)
            X, r, den = q._int_arrays()
            y = _u_array(q)
            assert (r, den) == (d % 2, 1) and y[-1] == 1, (m, n)
            assert all(v == 0 for v in y[1 - d % 2 :: 2]), (m, n)
            assert X == tuple(2 ** (i // 2) * 3 ** ((d - i) // 2) * v for i, v in enumerate(y))
            assert _x_poly(y) == q


@pytest.mark.parametrize(
    "key,value,match",
    [
        ((3, 0), okamoto(3, 0) * 2, r"Q_\(3,0\) is not monic and integral in u"),
        ((2, 0), ExactPoly((6, 0, 2)), r"the division leaves a remainder"),
    ],
    ids=["partner-off-the-u-lattice", "inexact-division"],
)
def test_a_failed_step_names_its_recurrence(key, value, match):
    table = OkamotoTable()
    table.get(3, 0)
    table._memo[key] = value
    with pytest.raises(CertificateFailed) as info:
        table.get(4, 0)
    text = str(info.value)
    assert text.startswith(
        "Q_(4,0) by the first-index recurrence Q_(4,0)*Q_(2,0) = T_5(Q_(3,0)): "
    ), text
    assert re.search(match, text), text
    assert (4, 0) not in table


def test_cone_errors():
    with pytest.raises(IndexOutOfCone):
        okamoto(-1, 0)
    with pytest.raises(IndexOutOfCone):
        okamoto(0, -2)


def test_fill_depth_is_not_bounded_by_the_recursion_limit(monkeypatch):
    # With each step stubbed, a request 3x the recursion limit deep along
    # the second index fills its whole chain Q_(0,2) .. Q_(0,n).
    table = OkamotoTable()
    monkeypatch.setattr(table, "_step", lambda m, n: ExactPoly.one())
    n = 3 * sys.getrecursionlimit()
    assert table.get(0, n) == ExactPoly.one()
    chain = {(0, i) for i in range(1, n + 1)}
    assert sorted(table._memo) == sorted({(0, 0), (1, 0), (1, 1)} | chain)


@pytest.mark.parametrize(
    "request_, made",
    [
        ((5, 0), [(2, 0), (3, 0), (4, 0), (5, 0)]),
        ((4, 1), [(2, 1), (3, 1), (4, 1)]),
        ((3, 2), [(2, 0), (2, 1), (3, 0), (3, 1), (3, 2)]),
        ((2, -1), [(2, -1), (2, 0), (2, 1)]),
        ((0, 3), [(0, 2), (0, 3)]),
        ((2, 4), [(2, 0), (2, 1), (2, 2), (2, 3), (2, 4)]),
        ((1, -1), [(1, -1)]),
    ],
)
def test_a_request_makes_exactly_its_recurrence_partners(request_, made):
    table = OkamotoTable()
    seeds = set(table._memo)
    table.get(*request_)
    assert sorted(set(table._memo) - seeds) == made


def test_disk_roundtrip(tmp_path):
    table = OkamotoTable()
    table.get(3, 1)
    path = str(tmp_path / "table.json")
    table.dump(path)
    fresh = OkamotoTable()
    fresh.load(path)
    assert fresh.get(3, 1) == table.get(3, 1)
    with open(path, encoding="utf-8") as fh:
        data = json.load(fh)
    assert "3,1" in data


def _valid_entry(m, n):
    return okamoto(m, n).to_json_dict()


def _entry_with_both_parts(m, n):
    """Q_{m,n} of the right degree whose constant coefficient has a rational
    and a sqrt2 part, which no polynomial of one grade has."""
    entry = _valid_entry(m, n)
    entry["coeffs"][0] = ["1/1", "1/1"]
    return entry


@pytest.mark.parametrize(
    "payload",
    [
        {"-1,0": {"coeffs": [["1/1", "0/1"]]}},
        {"2,-2": {"coeffs": [["1/1", "0/1"]]}},
        {"3;1": _valid_entry(3, 1)},
        {"3,1,0": _valid_entry(3, 1)},
        {"03,1": _valid_entry(3, 1)},
        {"a,b": _valid_entry(3, 1)},
        {"3,1": []},
        {"3,1": {"coefs": [["1/1", "0/1"]]}},
        {"3,1": {"coeffs": [["1/0", "0/1"]]}},
        {"3,1": {"coeffs": [["1/1"]]}},
        {"3,1": {"coeffs": [["x", "0/1"]]}},
        {"3,1": {"coeffs": [["1/1", "0/1"]]}},
        {"3,1": {"coeffs": []}},
        ["3,1"],
        {"3,1": _entry_with_both_parts(3, 1)},
    ],
)
def test_load_rejects_corrupt_entries(tmp_path, payload):
    path = tmp_path / "table.json"
    if isinstance(payload, dict):
        payload = {"2,0": _valid_entry(2, 0), **payload}
    path.write_text(json.dumps(payload))
    table = OkamotoTable()
    before = sorted(table._memo)
    with pytest.raises(CorruptCache):
        table.load(str(path))
    assert sorted(table._memo) == before  # nothing merged


def test_load_rejects_truncated_json(tmp_path):
    table = OkamotoTable()
    table.get(3, 1)
    path = tmp_path / "table.json"
    table.dump(str(path))
    text = path.read_text()
    path.write_text(text[: len(text) // 2])
    with pytest.raises(CorruptCache):
        OkamotoTable().load(str(path))


def test_dump_failure_keeps_previous_file(tmp_path, monkeypatch):
    path = tmp_path / "table.json"
    table = OkamotoTable()
    table.get(2, 1)
    table.dump(str(path))
    before = path.read_bytes()
    real_open = open

    class FailingFile:
        """A temp file whose write stops part way with a full disk."""

        def __init__(self, fh):
            self.fh = fh

        def __enter__(self):
            return self

        def __exit__(self, *exc):
            self.fh.close()

        def write(self, data):
            self.fh.write(data[:20])
            raise OSError("disk full")

    table.get(4, 1)
    monkeypatch.setattr(
        okamoto_module, "open", lambda *a, **kw: FailingFile(real_open(*a, **kw)), raising=False
    )
    with pytest.raises(OSError, match="disk full"):
        table.dump(str(path))
    assert path.read_bytes() == before
    assert os.listdir(tmp_path) == ["table.json"]


def test_dump_writes_the_bytes_of_json_dump(tmp_path):
    # Entries of both grades; the file holds what json.dump to a text file
    # wrote, and the table keeps those bytes as the last written.
    table = OkamotoTable()
    table.get(4, 2)
    path = tmp_path / "table.json"
    table.dump(str(path))
    data = {f"{m},{n}": poly.to_json_dict() for (m, n), poly in table._memo.items()}
    old = tmp_path / "old.json"
    with open(old, "w", encoding="utf-8") as fh:
        json.dump(data, fh, sort_keys=True)
    assert path.read_bytes() == old.read_bytes()
    assert table._seen[1] == old.read_bytes()


_DUMP_SCRIPT = r"""
import sys
import time
from pathlib import Path

from okladder.okamoto import OkamotoTable

path, me, other = sys.argv[1], Path(sys.argv[2]), Path(sys.argv[3])
me.touch()
deadline = time.monotonic() + 60
while not other.exists() and time.monotonic() < deadline:
    time.sleep(0.001)
for _ in range(20):
    # A new table writes even when the file already holds its bytes.
    table = OkamotoTable()
    table.get(5, 2)
    table.dump(path)
"""


def test_two_processes_dumping_one_path_leave_a_whole_file(tmp_path):
    cache = tmp_path / "cache"
    cache.mkdir()
    path = cache / "table.json"
    env = dict(os.environ, PYTHONPATH=str(_SRC))
    ready = [str(tmp_path / "ready-a"), str(tmp_path / "ready-b")]
    children = [
        subprocess.Popen(
            [sys.executable, "-c", _DUMP_SCRIPT, str(path), *order],
            env=env,
            stderr=subprocess.PIPE,
            text=True,
        )
        for order in (ready, ready[::-1])
    ]
    try:
        for child in children:
            _, err = child.communicate(timeout=300)
            assert child.returncode == 0, err
    finally:
        for child in children:
            if child.poll() is None:
                child.kill()
                child.wait()
    assert os.listdir(cache) == ["table.json"]
    expected = OkamotoTable()
    expected.get(5, 2)
    single = tmp_path / "single.json"
    expected.dump(str(single))
    assert path.read_bytes() == single.read_bytes()
    fresh = OkamotoTable()
    fresh.load(str(path))
    assert fresh.get(5, 2) == expected.get(5, 2)


def test_dump_skips_only_when_nothing_changed(tmp_path):
    table = OkamotoTable()
    table.get(3, 1)
    path = tmp_path / "table.json"
    table.dump(str(path))
    written = path.read_bytes()
    before = os.stat(path)
    table.dump(str(path))
    after = os.stat(path)
    assert (after.st_ino, after.st_mtime_ns) == (before.st_ino, before.st_mtime_ns)
    # Same memo, but the file changed under the table: it is rewritten.
    path.write_text(json.dumps({"2,0": _valid_entry(2, 0)}))
    table.dump(str(path))
    assert path.read_bytes() == written
    # Same file, but the memo grew: it is rewritten.
    table.get(4, 1)
    table.dump(str(path))
    assert "4,1" in json.loads(path.read_text())


def test_dump_after_loading_a_partial_file_writes(tmp_path):
    path = tmp_path / "table.json"
    small = OkamotoTable()
    small.get(3, 1)
    small.dump(str(path))
    table = OkamotoTable()
    table.get(4, 1)
    table.load(str(path))
    table.dump(str(path))
    assert "4,1" in json.loads(path.read_text())



def test_load_builds_no_scalar_view(tmp_path):
    table = OkamotoTable()
    for m in range(7):
        for n in range(-1, 7):
            table.get(m, n)
    path = tmp_path / "table.json"
    table.dump(str(path))
    fresh = OkamotoTable()
    fresh.load(str(path))
    assert sorted(fresh._memo) == sorted(table._memo)
    for m, n in sorted(table._memo):
        got = fresh.get(m, n)
        assert got._coeffs is None, (m, n)
        assert got == table.get(m, n), (m, n)


def _bump_one_coefficient(entry: dict) -> None:
    """Add one to the lowest entry of the parity of the degree of the u form
    of an entry: the bumped entry is still monic and integral in u, and of
    the same degree, so only its recurrence can reject it."""
    y = _u_array(ExactPoly.from_json_dict(entry))
    y[(len(y) - 1) % 2] += 1
    entry["coeffs"] = _x_poly(y).to_json_dict()["coeffs"]


def test_load_rejects_an_entry_off_its_recurrence(tmp_path):
    table = OkamotoTable()
    table.get(4, 5)
    path = tmp_path / "table.json"
    table.dump(str(path))
    data = json.loads(path.read_text())
    _bump_one_coefficient(data["4,3"])
    assert ExactPoly.from_json_dict(data["4,3"]).degree == okamoto_degree(4, 3)
    path.write_text(json.dumps(data))
    fresh = OkamotoTable()
    before = sorted(fresh._memo)
    with pytest.raises(CorruptCache, match=r"Q_\(4,3\) fails its recurrence"):
        fresh.load(str(path))
    assert sorted(fresh._memo) == before  # nothing merged


@pytest.mark.parametrize("key", ["3,-1", "3,0", "2,1", "0,2"])
def test_load_checks_every_recurrence(tmp_path, key):
    # One entry made by each kind of step: the n = -1 column, columns 0
    # and 1 (first index), and columns n >= 2 (second index).
    table = OkamotoTable()
    for m in range(4):
        for n in range(-1, 3):
            table.get(m, n)
    path = tmp_path / "table.json"
    table.dump(str(path))
    data = json.loads(path.read_text())
    _bump_one_coefficient(data[key])
    # Drop the entries whose own step reads the bumped one, so that only
    # the bumped entry's step can fail.
    bumped = tuple(map(int, key.split(",")))
    for other in list(data):
        if bumped in _recurrence(*map(int, other.split(",")))[:2]:
            del data[other]
    path.write_text(json.dumps(data))
    with pytest.raises(CorruptCache, match=rf"Q_\({key}\) fails its recurrence"):
        OkamotoTable().load(str(path))


@pytest.mark.parametrize(
    "tamper",
    [
        lambda q: q * 2,
        lambda q: -q,
        lambda q: q * Fraction(1, 2),
        lambda q: q * SQRT2,
        lambda q: q + q.derivative(),
        # One more at the lowest entry of the parity of the degree.
        lambda q: q + ExactPoly.monomial(q.leading / 2 ** (q.degree // 2), q.degree % 2),
    ],
    ids=["doubled", "negated", "halved", "sqrt2-grade", "odd-entry", "off-the-u-lattice"],
)
@pytest.mark.parametrize("key", [(5, 3), (3, 0), (2, -1)])
def test_load_rejects_an_entry_not_monic_and_integral_in_u(tmp_path, key, tamper):
    # The entry's recurrence partners are not in the file, so the spot check
    # cannot see it: the u form alone rejects it.
    bad = tamper(okamoto(*key))
    assert bad.degree == okamoto_degree(*key)
    path = tmp_path / "table.json"
    path.write_text(json.dumps({"%d,%d" % key: bad.to_json_dict()}))
    table = OkamotoTable()
    before = sorted(table._memo)
    with pytest.raises(CorruptCache, match=r"Q_\(%d,%d\) is not monic and integral in u" % key):
        table.load(str(path))
    assert sorted(table._memo) == before  # nothing merged
