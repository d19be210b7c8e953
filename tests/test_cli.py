"""Command-line surface: schemas, determinism, exit codes, cache."""

import json
import subprocess
import sys

import pytest

from okladder.cli import main


def run_cli(args, capsys):
    code = main(args)
    captured = capsys.readouterr()
    return code, captured.out


class TestOkamotoCommand:
    def test_json_schema(self, capsys):
        code, out = run_cli(["okamoto", "--m", "3", "--n", "0"], capsys)
        assert code == 0
        payload = json.loads(out)
        assert payload["degree"] == 6
        assert payload["index"] == [3, 0]
        assert payload["coeffs"][0] == ["135/1", "0/1"]
        assert payload["coeffs"][6] == ["8/1", "0/1"]

    def test_sqrt2_entry(self, capsys):
        _, out = run_cli(["okamoto", "--m", "1", "--n", "1"], capsys)
        payload = json.loads(out)
        assert payload["coeffs"][1] == ["0/1", "1/1"]

    def test_pretty(self, capsys):
        _, out = run_cli(["okamoto", "--m", "2", "--n", "0", "--pretty"], capsys)
        assert out.strip() == "2*x^2 + 3"

    def test_determinism(self, capsys):
        _, first = run_cli(["okamoto", "--m", "4", "--n", "1"], capsys)
        _, second = run_cli(["okamoto", "--m", "4", "--n", "1"], capsys)
        assert first == second


class TestPivCommand:
    def test_residual_flag(self, capsys):
        _, out = run_cli(
            ["piv", "--family", "1", "--m", "1", "--n", "0", "--residual"], capsys
        )
        payload = json.loads(out)
        assert payload["residual_zero"] is True
        assert payload["alpha"] == "2/1"
        assert payload["beta"] == "-2/9"

    def test_backlund_image(self, capsys):
        _, out = run_cli(
            ["piv", "--family", "2", "--m", "0", "--n", "0", "--backlund", "w1+"], capsys
        )
        payload = json.loads(out)
        assert payload["residual_zero"] is True


class TestPotentialCommand:
    def test_eval(self, capsys):
        _, out = run_cli(["potential", "--k", "1", "--eval", "1.0"], capsys)
        payload = json.loads(out)
        assert abs(float(payload["value"]) - 178 / 225) < 1e-14

    @pytest.mark.parametrize("via", ["rational", "deleting", "adding", "susy"])
    def test_vias_agree(self, via, capsys):
        _, out = run_cli(["potential", "--k", "1", "--via", via], capsys)
        payload = json.loads(out)
        assert payload["via"] == via
        # all four constructions serialize to the identical reduced form
        _, base = run_cli(["potential", "--k", "1", "--via", "rational"], capsys)
        assert json.loads(base)["potential"] == payload["potential"]

    def test_csv(self, capsys):
        _, out = run_cli(
            ["potential", "--k", "0", "--csv", "--range", "-1", "1", "--samples", "3"], capsys
        )
        lines = out.strip().splitlines()
        assert lines[0] == "x,value"
        assert len(lines) == 4


class TestModesAndTtrr:
    def test_modes_energy(self, capsys):
        _, out = run_cli(["modes", "--k", "1", "--j", "3", "--n", "0"], capsys)
        payload = json.loads(out)
        assert payload["energy"] == "10/3"
        assert payload["degree"] == 5

    def test_ttrr_with_checks(self, capsys):
        _, out = run_cli(
            ["ttrr", "--k", "1", "--j", "1", "--max-n", "2", "--check-ode", "--check-wronskian"],
            capsys,
        )
        payload = json.loads(out)
        assert len(payload["entries"]) == 3
        assert all(e["ode_residual_zero"] for e in payload["entries"])
        assert all(e["wronskian_proportional"] for e in payload["entries"])


class TestZerosCommand:
    def test_mode_census(self, capsys):
        _, out = run_cli(["zeros", "--poly-from", "mode", "--k", "1", "--j", "1", "--n", "2"], capsys)
        payload = json.loads(out)
        assert payload == {
            "match": True,
            "n0": 0,
            "n_minus": 2,
            "n_plus": 2,
            "n_total": 4,
            "predicted": 4,
        }

    def test_okamoto_predict_only(self, capsys):
        _, out = run_cli(
            ["zeros", "--poly-from", "okamoto", "--m", "3", "--n", "1", "--predict"], capsys
        )
        payload = json.loads(out)
        assert payload == {"predicted": 3}


class TestSpectrumAndPlotData:
    def test_spectrum(self, capsys):
        _, out = run_cli(
            ["spectrum", "--k", "0", "--count", "4", "--L", "15", "--N", "2001"], capsys
        )
        payload = json.loads(out)
        assert payload["exact"] == ["0/1", "2/3", "4/3", "2/1"]
        assert float(payload["max_abs_error"]) < 1e-6

    def test_plot_data_rows(self, capsys):
        _, out = run_cli(
            ["plot-data", "--k", "0", "--what", "mode", "--j", "1", "--n", "0",
             "--range", "-2", "2", "--samples", "5"],
            capsys,
        )
        lines = out.strip().splitlines()
        assert lines[0] == "x,value"
        assert len(lines) == 6
        mid = lines[3].split(",")
        assert float(mid[0]) == 0.0 and float(mid[1]) == 1.0


class TestVerifyCommand:
    def test_passing_suite_exit_zero(self, capsys):
        code, out = run_cli(["verify", "--suite", "identities", "--k-max", "1"], capsys)
        assert code == 0
        assert "1/1 checks passed" in out

    def test_exit_code_contract(self, capsys, monkeypatch):
        from okladder import verify as verify_mod

        fake = verify_mod.CheckResult("tables", "forced", False, "synthetic failure", "n/a")
        monkeypatch.setattr(verify_mod, "run_verify", lambda config, jobs=1: [fake])
        code, out = run_cli(["verify", "--suite", "tables"], capsys)
        assert code == 1
        assert "0/1 checks passed" in out

    def test_json_report(self, capsys):
        code, out = run_cli(["--json", "verify", "--suite", "identities", "--k-max", "1"], capsys)
        assert code == 0
        report = json.loads(out)
        assert report[0]["status"] == "pass"
        assert report[0]["suite"] == "identities"


class TestExportCommand:
    def test_export_okamoto_json(self, capsys, tmp_path):
        out_path = tmp_path / "q.json"
        code, _ = run_cli(
            ["--quiet", "export", "okamoto", "--m", "3", "--n", "0", "--out", str(out_path)],
            capsys,
        )
        assert code == 0
        payload = json.loads(out_path.read_text())
        assert payload["degree"] == 6

    def test_export_mode_energy(self, capsys):
        _, out = run_cli(["export", "mode", "--k", "1", "--j", "3", "--n", "0"], capsys)
        payload = json.loads(out)
        assert payload["energy"] == "10/3"

    def test_export_byte_stable(self, capsys, tmp_path):
        a, b = tmp_path / "a.json", tmp_path / "b.json"
        run_cli(["--quiet", "export", "potential", "--k", "1", "--out", str(a)], capsys)
        run_cli(["--quiet", "export", "potential", "--k", "1", "--out", str(b)], capsys)
        assert a.read_bytes() == b.read_bytes()

    def test_export_csv(self, capsys):
        _, out = run_cli(
            ["export", "potential", "--k", "0", "--format", "csv", "--range", "-1", "1",
             "--samples", "3"],
            capsys,
        )
        lines = out.strip().splitlines()
        assert lines[0] == "x,value"
        assert len(lines) == 4

    def test_invalid_indices(self, capsys):
        code, _ = run_cli(["export", "mode", "--k", "1"], capsys)
        assert code == 2


class TestCache:
    def test_cache_roundtrip(self, tmp_path, monkeypatch, capsys):
        monkeypatch.setenv("OKLADDER_CACHE_DIR", str(tmp_path))
        code, _ = run_cli(["--quiet", "okamoto", "--m", "3", "--n", "1"], capsys)
        assert code == 0
        cache_file = tmp_path / "okamoto_table.json"
        assert cache_file.exists()
        data = json.loads(cache_file.read_text())
        assert "3,1" in data
        # second run loads the cache without error and stays deterministic
        code, _ = run_cli(["--quiet", "okamoto", "--m", "3", "--n", "1"], capsys)
        assert code == 0

    @pytest.mark.parametrize(
        "corrupt",
        [
            lambda text: text[: len(text) // 2],
            lambda text: json.dumps({"3,1": {"coeffs": [["1/1", "0/1"]]}}),
        ],
        ids=["truncated", "wrong-degree"],
    )
    def test_corrupt_cache_exits_2(self, corrupt, tmp_path, monkeypatch, capsys):
        monkeypatch.setenv("OKLADDER_CACHE_DIR", str(tmp_path))
        assert run_cli(["--quiet", "okamoto", "--m", "3", "--n", "1"], capsys)[0] == 0
        cache_file = tmp_path / "okamoto_table.json"
        cache_file.write_text(corrupt(cache_file.read_text()))
        code = main(["okamoto", "--m", "3", "--n", "1"])
        captured = capsys.readouterr()
        assert code == 2
        assert captured.out == ""
        assert captured.err.startswith("error: ")


def test_entry_point_subprocess():
    proc = subprocess.run(
        [sys.executable, "-m", "okladder.cli", "okamoto", "--m", "2", "--n", "0", "--pretty"],
        capture_output=True,
        text=True,
        check=True,
    )
    assert proc.stdout.strip() == "2*x^2 + 3"
