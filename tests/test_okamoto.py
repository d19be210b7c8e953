"""Generation, seeding, degrees, parity, and recurrence consistency."""

import json
import os
import subprocess
import sys
from fractions import Fraction
from pathlib import Path

import pytest

from okladder.errors import CorruptCache, IndexOutOfCone
from okladder.exact_ring import SQRT2, ExactPoly
from okladder.okamoto import OkamotoTable, okamoto, okamoto_degree
from okladder.reference_data import (
    OKAMOTO_COLUMN_0,
    OKAMOTO_COLUMN_MINUS_1,
    OKAMOTO_COLUMN_PLUS_1,
)

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


def test_cone_errors():
    with pytest.raises(IndexOutOfCone):
        okamoto(-1, 0)
    with pytest.raises(IndexOutOfCone):
        okamoto(0, -2)


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
    before = table.known_indices()
    with pytest.raises(CorruptCache):
        table.load(str(path))
    assert table.known_indices() == before  # nothing merged


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

    def failing_dump(obj, fh, **kwargs):
        fh.write('{"2,1": {"coeffs": [["')
        raise OSError("disk full")

    table.get(4, 1)
    monkeypatch.setattr(json, "dump", failing_dump)
    with pytest.raises(OSError, match="disk full"):
        table.dump(str(path))
    assert path.read_bytes() == before
    assert os.listdir(tmp_path) == ["table.json"]


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

