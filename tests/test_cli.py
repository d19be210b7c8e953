"""Command-line surface: schemas, determinism, exit codes, cache."""

import hashlib
import importlib
import json
import os
import re
import subprocess
import sys
import warnings
from pathlib import Path

import pytest

from okladder import cli
from okladder.cli import main
from okladder.okamoto import OkamotoTable

# The package re-exports the function `okamoto` under the module's name.
okamoto_mod = importlib.import_module("okladder.okamoto")
_SRC = Path(__file__).resolve().parents[1] / "src"


def run_cli(args, capsys):
    code = main(args)
    captured = capsys.readouterr()
    return code, captured.out


class TestDegreeBudget:
    """Commands that build an Okamoto entry refuse one of degree above
    OKAMOTO_DEGREE_BUDGET before building anything."""

    @pytest.mark.parametrize(
        "command,message",
        [
            ("okamoto --m 0 --n 40", "Q_(0,40) has degree 1560, above the budget of 1000"),
            ("okamoto --m 0 --n 1500 --pretty", "Q_(0,1500) has degree 2248500, above the budget of 1000"),
            ("export okamoto --m 0 --n 60", "Q_(0,60) has degree 3540, above the budget of 1000"),
            ("export okamoto --m 40 --n -1 --format csv", "Q_(40,-1) has degree 1522, above the budget of 1000"),
            ("zeros --poly-from okamoto --m 0 --n 40 --both", "Q_(0,40) has degree 1560, above the budget of 1000"),
            # piv reads Q_{m+1,n+1}: degree 1 089 here, against 992 for Q_{0,32}
            ("piv --family 1 --m 0 --n 32", "Q_(1,33) has degree 1089, above the budget of 1000"),
            ("piv --family 2 --m 0 --n 1500 --residual", "Q_(1,1501) has degree 2253001, above the budget of 1000"),
            ("piv --family 3 --m 25 --n 25", "Q_(26,26) has degree 1976, above the budget of 1000"),
            # off the cone, each command keeps its cone error
            ("okamoto --m -1 --n 100", "Q_(-1,100) is outside the supported cone m >= 0, n >= -1"),
            ("piv --family 1 --m -1 --n 100", "rational solutions are indexed by m >= 0, n >= -1"),
        ],
    )
    def test_rejected_before_any_build(self, command, message, capsys, monkeypatch):
        monkeypatch.delenv("OKLADDER_CACHE_DIR", raising=False)

        def refuse(table, m, n):
            okamoto_mod.check_cone(m, n)
            raise AssertionError(f"the table was asked for Q_({m},{n})")

        monkeypatch.setattr(OkamotoTable, "get", refuse)
        assert main(command.split()) == 2
        captured = capsys.readouterr()
        assert (captured.out, captured.err) == ("", f"error: {message}\n")

    def test_the_budget_is_inclusive(self, capsys, monkeypatch):
        # With the budget at deg Q_{3,2} = 14, Q_{3,2} builds and Q_{3,3}
        # (degree 21) does not; piv at (2, 1) reads Q_{3,2}.
        monkeypatch.delenv("OKLADDER_CACHE_DIR", raising=False)
        monkeypatch.setattr(cli, "OKAMOTO_DEGREE_BUDGET", 14)
        assert run_cli(["okamoto", "--m", "3", "--n", "2"], capsys)[0] == 0
        assert run_cli(["piv", "--family", "1", "--m", "2", "--n", "1"], capsys)[0] == 0
        assert main(["okamoto", "--m", "3", "--n", "3"]) == 2
        assert capsys.readouterr().err == "error: Q_(3,3) has degree 21, above the budget of 14\n"
        assert main(["piv", "--family", "1", "--m", "2", "--n", "2"]) == 2
        assert capsys.readouterr().err == "error: Q_(3,3) has degree 21, above the budget of 14\n"


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

    def test_eval_is_correctly_rounded_under_cancellation(self, capsys):
        # Working at 69 bits gave 15.339935028314667 here; the exact value
        # rounds to ...665.
        _, out = run_cli(["potential", "--k", "3", "--eval", "10.156632586743747"], capsys)
        assert json.loads(out)["value"] == "15.339935028314665"

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

    @pytest.mark.parametrize("x", ["inf", "-inf", "nan"])
    def test_non_finite_eval_exits_2(self, x, capsys):
        code = main(["potential", "--k", "1", f"--eval={x}"])
        captured = capsys.readouterr()
        assert code == 2
        assert captured.out == ""
        assert captured.err.startswith("error: cannot evaluate at x = ")

    def test_csv_writers_agree(self, capsys):
        span = ["--range", "-2", "3", "--samples", "7"]
        _, a = run_cli(["potential", "--k", "2", "--csv", *span], capsys)
        _, b = run_cli(["plot-data", "--k", "2", "--what", "potential", *span], capsys)
        _, c = run_cli(["export", "potential", "--k", "2", "--format", "csv", *span], capsys)
        assert a == b == c
        assert a.startswith("x,value\n-2,") and len(a.splitlines()) == 8
        mode = ["--k", "1", "--j", "2", "--n", "1"]
        _, d = run_cli(["plot-data", "--what", "mode", *mode, *span], capsys)
        _, e = run_cli(["export", "mode", *mode, "--format", "csv", *span], capsys)
        assert d == e and d.startswith("x,value\n-2,") and len(d.splitlines()) == 8

    @pytest.mark.parametrize("span", [["0", "inf"], ["nan", "1"]])
    @pytest.mark.parametrize(
        "command",
        [
            ["potential", "--k", "1", "--csv"],
            ["plot-data", "--k", "0", "--what", "potential"],
            ["export", "potential", "--k", "1", "--format", "csv"],
        ],
        ids=["potential", "plot-data", "export"],
    )
    def test_non_finite_range_exits_2(self, command, span, capsys):
        code = main([*command, "--range", *span, "--samples", "3"])
        captured = capsys.readouterr()
        assert code == 2
        assert captured.out == ""
        assert captured.err.startswith("error: range must be finite")

    @pytest.mark.filterwarnings("error")
    @pytest.mark.parametrize(
        "command",
        [
            ["potential", "--k", "0", "--csv"],
            ["plot-data", "--k", "0", "--what", "potential"],
            ["export", "potential", "--k", "0", "--format", "csv"],
        ],
        ids=["potential", "plot-data", "export"],
    )
    def test_range_wider_than_the_largest_double(self, command, capsys):
        # b - a overflows, so the grid is taken on the halved range and doubled
        code, out = run_cli([*command, "--range", "1e308", "-1e308", "--samples", "3"], capsys)
        assert code == 0
        assert out == "x,value\n1e+308,inf\n0,-0.33333333333333331\n-1e+308,inf\n"

    @pytest.mark.parametrize("samples", ["0", "-2"])
    @pytest.mark.parametrize(
        "command",
        [
            ["potential", "--k", "1", "--csv"],
            ["plot-data", "--k", "0", "--what", "potential"],
            ["export", "potential", "--k", "1", "--format", "csv"],
        ],
        ids=["potential", "plot-data", "export"],
    )
    def test_samples_below_one_exits_2(self, command, samples, capsys):
        code = main([*command, "--range", "0", "1", "--samples", samples])
        captured = capsys.readouterr()
        assert code == 2
        assert captured.out == ""
        assert captured.err == f"error: samples must be >= 1, got {samples}\n"

    def test_eval_overflow_is_inf(self, capsys):
        code, out = run_cli(["potential", "--k", "1", "--eval", "1e308"], capsys)
        assert code == 0
        assert json.loads(out)["value"] == "inf"


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

    @pytest.mark.parametrize(
        "command",
        [
            "modes --k 1 --j 1 --n -1",
            "xhermite --k 1 --j 1 --n -1",
            "zeros --poly-from mode --k 1 --j 1 --n -2",
            "export mode --k 1 --j 1 --n -1",
            "plot-data --k 1 --what mode --j 1 --n -1 --range 0 1 --samples 3",
        ],
        ids=lambda command: command.split()[0],
    )
    def test_negative_mode_index_exits_2(self, command, capsys):
        assert main(command.split()) == 2
        captured = capsys.readouterr()
        assert captured.out == ""
        assert captured.err == "error: level index n must be >= 0\n"


    @pytest.mark.parametrize(
        "command",
        [
            "modes --k -1 --j 1 --n 0",
            "ttrr --k -1 --j 1 --max-n 2",
            "xhermite --k -1 --j 1 --n 0",
            "zeros --poly-from mode --k -1 --j 1 --n 0",
            "plot-data --k -1 --what mode --j 1 --n 0 --range 0 1 --samples 3",
            "export mode --k -1 --j 1 --n 0",
        ],
        ids=lambda command: command.split()[0],
    )
    def test_negative_potential_index_exits_2(self, command, capsys):
        assert main(command.split()) == 2
        captured = capsys.readouterr()
        assert captured.out == ""
        assert captured.err == "error: potential index k must be >= 0\n"

    @pytest.mark.parametrize("via", ["ttrr", "wronskian", "definition"])
    def test_xhermite_negative_potential_index_exits_2(self, via, capsys):
        assert main(["xhermite", "--k", "-1", "--j", "1", "--n", "0", "--via", via]) == 2
        captured = capsys.readouterr()
        assert captured.out == ""
        assert captured.err == "error: potential index k must be >= 0\n"

    @pytest.mark.parametrize("via", ["ttrr", "wronskian", "definition"])
    def test_xhermite_negative_level_index_exits_2(self, via, capsys):
        assert main(["xhermite", "--k", "1", "--j", "1", "--n", "-1", "--via", via]) == 2
        captured = capsys.readouterr()
        assert captured.out == ""
        assert captured.err == "error: level index n must be >= 0\n"


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

    def test_predict_builds_nothing(self, capsys, monkeypatch):
        def refuse(args):
            raise AssertionError("--predict built the polynomial")

        for kind, (_, needed) in list(cli._KINDS.items()):
            monkeypatch.setitem(cli._KINDS, kind, (refuse, needed))
        for command, predicted in (
            ("--poly-from xhermite --k 3 --j 1 --n 8", 18),
            ("--poly-from mode --k 2 --j 3 --n 4", 16),
            ("--poly-from okamoto --m 3 --n 1", 3),
        ):
            _, out = run_cli(["zeros", *command.split(), "--predict"], capsys)
            assert json.loads(out) == {"predicted": predicted}

    @pytest.mark.parametrize(
        "command,message",
        [
            ("--poly-from okamoto --m 1 --n -1", "zero-count predictions cover m >= 0, n >= 0"),
            ("--poly-from okamoto --m -1 --n -1", "Q_(-1,-1) is outside the supported cone m >= 0, n >= -1"),
            ("--poly-from okamoto --m 0 --n -2", "Q_(0,-2) is outside the supported cone m >= 0, n >= -1"),
            ("--poly-from okamoto --m 3", "okamoto zeros need --m and --n"),
            ("--poly-from okamoto --m 0 --n 40", "Q_(0,40) has degree 1560, above the budget of 1000"),
            ("--poly-from okamoto --m -1 --n 40", "Q_(-1,40) is outside the supported cone m >= 0, n >= -1"),
            ("--poly-from mode --k -1 --j 1 --n -1", "level index n must be >= 0"),
            ("--poly-from mode --k -1 --j 1 --n 0", "potential index k must be >= 0"),
            ("--poly-from mode --k 1 --j 1", "mode zeros need --k, --j and --n"),
            ("--poly-from xhermite --k -1 --j 3 --n -1", "level index n must be >= 0"),
            ("--poly-from xhermite --k -2 --j 1 --n 0", "potential index k must be >= 0"),
        ],
    )
    def test_predict_rejects_as_the_build_does(self, command, message, capsys):
        # The same error, exit code and precedence with and without a build.
        for flag in ("--predict", "--count"):
            assert main(["zeros", *command.split(), flag]) == 2
            captured = capsys.readouterr()
            assert (captured.out, captured.err) == ("", f"error: {message}\n")


class TestSpectrumAndPlotData:
    def test_spectrum(self, capsys):
        _, out = run_cli(
            ["spectrum", "--k", "0", "--count", "4", "--L", "15", "--N", "2001"], capsys
        )
        payload = json.loads(out)
        assert payload["exact"] == ["0/1", "2/3", "4/3", "2/1"]
        assert float(payload["max_abs_error"]) < 1e-6

    @pytest.mark.parametrize("count", ["0", "-2"])
    def test_count_below_one_exits_2(self, count, capsys):
        assert main(["spectrum", "--k", "0", "--count", count, "--N", "201"]) == 2
        captured = capsys.readouterr()
        assert captured.out == ""
        assert captured.err == "error: count must be >= 1\n"

    @pytest.mark.parametrize(
        "args,message",
        [
            (["--count", "3", "--N", "5"], r"halving the grid moved an eigenvalue by \d\.\d{3}e\+\d\d"),
            # V's num and den overflow a double on this grid, V itself does not.
            (["--count", "2", "--L", "1e100", "--N", "5"],
             r"halving the grid moved an eigenvalue by \d\.\d{3}e\+198"),
            (["--tol", "-1", "--N", "201"], "coarse_shift_tol must be >= 0, got -1.0"),
            (["--tol", "nan", "--N", "11"], "coarse_shift_tol must be >= 0, got nan"),
            (["--L", "inf"], "half_width must be positive and finite, got inf"),
            (["--L", "nan"], "half_width must be positive and finite, got nan"),
            (["--count", "2", "--L", "1e300", "--N", "5"],
             r"half_width 1e\+300 with 5 points gives a grid spacing 5e\+299 that cannot be squared"),
            (["--count", "2", "--L", "1e-300", "--N", "5"],
             "half_width 1e-300 with 5 points gives a grid spacing 5e-301 that cannot be squared"),
            (["--count", "5", "--N", "3"],
             "count 5 exceeds the number of interior nodes, 1, of a 3-point grid"),
        ],
        ids=["grid-too-coarse", "num-and-den-overflow", "negative-tol", "nan-tol", "inf-width",
             "nan-width", "spacing-overflows", "spacing-underflows", "count-above-nodes"],
    )
    @pytest.mark.filterwarnings("error")
    def test_bad_grid_or_tolerance_exits_2(self, args, message, capsys):
        assert main(["spectrum", "--k", "1", *args]) == 2
        captured = capsys.readouterr()
        assert captured.out == ""
        assert re.fullmatch(f"error: {message}\n", captured.err)

    @pytest.mark.filterwarnings("error")
    def test_plot_data_beyond_the_largest_double(self, capsys):
        code, out = run_cli(
            ["plot-data", "--k", "1", "--what", "potential", "--range", "1e200", "1e300",
             "--samples", "3"],
            capsys,
        )
        assert code == 0
        rows = [line.split(",") for line in out.strip().splitlines()[1:]]
        assert [value for _, value in rows] == ["inf", "inf", "inf"]

    @pytest.mark.filterwarnings("error")
    def test_plot_data_mode_beyond_the_largest_double(self, capsys):
        # the rational part overflows where the Gaussian underflows; the
        # mode itself is 0 in doubles there
        code, out = run_cli(
            ["plot-data", "--k", "1", "--what", "mode", "--j", "1", "--n", "5",
             "--range", "1e100", "1e300", "--samples", "3"],
            capsys,
        )
        assert code == 0
        rows = [line.split(",") for line in out.strip().splitlines()[1:]]
        assert [value for _, value in rows] == ["0", "0", "0"]

    def test_exponent_form_negative_values(self, capsys):
        _, spaced = run_cli(["potential", "--k", "1", "--eval", "-1e-3"], capsys)
        _, joined = run_cli(["potential", "--k", "1", "--eval=-1e-3"], capsys)
        assert spaced == joined and json.loads(spaced)["value"] == "-1.6666612222281481"
        code, out = run_cli(
            ["plot-data", "--k", "0", "--what", "potential", "--range", "-1e3", "1E+3",
             "--samples", "3"],
            capsys,
        )
        assert code == 0 and out.splitlines()[1].startswith("-1000,")
        # Every '-'-prefixed string that float() reads is a value, not an option.
        bad_point = "error: cannot evaluate at x = {}\n"
        for x, want_code, want_err in [("-1_0", 0, ""), ("-inf", 2, bad_point.format("-inf")),
                                       ("-Infinity", 2, bad_point.format("-inf")),
                                       ("-nan", 2, bad_point.format("nan"))]:
            spaced = main(["potential", "--k", "1", "--eval", x]), capsys.readouterr()
            joined = main(["potential", "--k", "1", f"--eval={x}"]), capsys.readouterr()
            assert spaced == joined and spaced[0] == want_code and spaced[1].err == want_err
        assert run_cli(["potential", "--k", "1", "--eval", "-1_0"], capsys) == run_cli(
            ["potential", "--k", "1", "--eval", "-10"], capsys)
        code = main(["plot-data", "--k", "0", "--what", "potential", "--range", "-inf", "1",
                     "--samples", "3"])
        captured = capsys.readouterr()
        assert code == 2 and captured.err.startswith("error: range must be finite")

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
        monkeypatch.setattr(verify_mod, "run_verify", lambda config: [fake])
        code, out = run_cli(["verify", "--suite", "tables"], capsys)
        assert code == 1
        assert "0/1 checks passed" in out

    def test_duplicate_suite_reports_once(self, capsys):
        once = run_cli(["verify", "--suite", "tables", "--k-max", "0"], capsys)
        twice = run_cli(["verify", "--suite", "tables", "--suite", "tables", "--k-max", "0"], capsys)
        assert twice == once
        assert once[1].endswith("\n9/9 checks passed\n")

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

    @pytest.mark.filterwarnings("error")
    @pytest.mark.parametrize(
        "kind,want",
        [(["okamoto", "--m", "2", "--n", "0"], ["inf", "3", "inf"]),
         (["xhermite", "--k", "0", "--j", "1", "--n", "1"], ["-inf", "0", "inf"])],
        ids=["okamoto", "xhermite"],
    )
    def test_csv_polynomial_overflow_is_signed_inf(self, kind, want, capsys):
        code, out = run_cli(
            ["export", *kind, "--format", "csv", "--range", "-1e200", "1e200", "--samples", "3"],
            capsys,
        )
        assert code == 0
        assert [line.split(",")[1] for line in out.splitlines()[1:]] == want

    def test_invalid_indices(self, capsys):
        code, _ = run_cli(["export", "mode", "--k", "1"], capsys)
        assert code == 2

    def test_unwritable_out_exits_2(self, capsys, tmp_path):
        path = tmp_path / "missing" / "x.json"
        code = main(["export", "okamoto", "--m", "2", "--n", "1", "--out", str(path)])
        captured = capsys.readouterr()
        assert code == 2 and captured.out == ""
        assert captured.err == f"error: cannot write {path}: No such file or directory\n"


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

    def test_unreadable_cache_exits_2(self, tmp_path, monkeypatch, capsys):
        monkeypatch.setenv("OKLADDER_CACHE_DIR", str(tmp_path))
        (tmp_path / "okamoto_table.json").mkdir()
        code = main(["okamoto", "--m", "1", "--n", "0"])
        captured = capsys.readouterr()
        assert code == 2
        assert captured.out == ""
        assert captured.err.startswith("error: ")

    def test_cache_dir_that_is_a_file_exits_2(self, tmp_path, monkeypatch, capsys):
        not_a_dir = tmp_path / "cache"
        not_a_dir.touch()
        monkeypatch.setenv("OKLADDER_CACHE_DIR", str(not_a_dir))
        code = main(["okamoto", "--m", "1", "--n", "0"])
        captured = capsys.readouterr()
        assert code == 2
        assert captured.out == ""
        assert captured.err.startswith("error: ")
        assert not_a_dir.is_file() and not_a_dir.read_bytes() == b""

    def test_failed_cache_write_exits_2(self, session, monkeypatch, capsys):
        def no_space(src, dst):
            raise OSError(28, "No space left on device")

        monkeypatch.setattr(okamoto_mod.os, "replace", no_space)
        code = main(["okamoto", "--m", "3", "--n", "0"])
        captured = capsys.readouterr()
        assert code == 2
        assert json.loads(captured.out)["index"] == [3, 0]
        assert captured.err.startswith("error: ")
        assert not session.exists()
        assert os.listdir(session.parent) == []


@pytest.fixture
def session(tmp_path, monkeypatch):
    """A cache directory and a fresh, empty table shared by the CLI calls of
    one test, as in one long-lived process; returns the cache file path."""
    table = OkamotoTable()
    monkeypatch.setattr(okamoto_mod, "DEFAULT_TABLE", table)
    monkeypatch.setattr(cli, "DEFAULT_TABLE", table)
    monkeypatch.setenv("OKLADDER_CACHE_DIR", str(tmp_path))
    return tmp_path / "okamoto_table.json"


class TestSession:
    def test_memo_hit_leaves_cache_file_untouched(self, session, capsys):
        assert run_cli(["okamoto", "--m", "3", "--n", "1"], capsys)[0] == 0
        before = os.stat(session)
        for argv in (["okamoto", "--m", "3", "--n", "1"], ["okamoto", "--m", "2", "--n", "1"]):
            assert run_cli(argv, capsys)[0] == 0
        after = os.stat(session)
        assert (after.st_ino, after.st_mtime_ns) == (before.st_ino, before.st_mtime_ns)

    def test_same_size_tamper_between_calls_is_caught(self, session, capsys):
        assert run_cli(["okamoto", "--m", "3", "--n", "1"], capsys)[0] == 0
        stat = os.stat(session)
        raw = session.read_bytes()
        tampered = raw.replace(b'"3,1"', b'"3;1"')
        assert tampered != raw and len(tampered) == len(raw)
        session.write_bytes(tampered)
        os.utime(session, ns=(stat.st_atime_ns, stat.st_mtime_ns))
        assert os.stat(session).st_mtime_ns == stat.st_mtime_ns
        code = main(["okamoto", "--m", "3", "--n", "1"])
        captured = capsys.readouterr()
        assert code == 2
        assert captured.out == ""
        assert captured.err.startswith("error: ")

    def test_valid_extra_entry_is_merged_and_served(self, session, capsys):
        assert run_cli(["okamoto", "--m", "2", "--n", "0"], capsys)[0] == 0
        data = json.loads(session.read_text())
        q52 = OkamotoTable().get(5, 2)
        data["5,2"] = q52.to_json_dict()
        session.write_text(json.dumps(data, sort_keys=True))
        written = session.read_bytes()
        code, out = run_cli(["okamoto", "--m", "5", "--n", "2"], capsys)
        assert code == 0
        assert json.loads(out)["coeffs"] == q52.to_json_dict()["coeffs"]
        # served from the file: computing Q_{5,2} would have filled Q_{5,0}
        assert (5, 0) not in okamoto_mod.DEFAULT_TABLE
        # the file held the whole table, so it was not rewritten
        assert session.read_bytes() == written

    def test_one_parser_matches_fresh_parsers(self, session, capsys, monkeypatch):
        identities = ["verify", "--suite", "identities", "--k-max", "1"]
        calls = [
            ["okamoto", "--m", "2", "--n", "0", "--pretty"],
            ["okamoto", "--m", "2", "--n", "0"],
            ["--json", "okamoto", "--m", "2", "--n", "0", "--pretty"],
            ["okamoto", "--m", "3", "--n", "1", "--pretty"],
            ["okamoto", "--m", "3", "--n", "1", "--json"],
            ["--json", *identities],
            identities,
            [*identities, "--json"],
            [*identities, "--suite", "tables"],
            ["verify", "--k-max", "1", "--n-max", "1", "--suite", "tables"],
            ["--quiet", *identities],
            identities,
            ["modes", "--k", "1", "--j", "3", "--n", "0", "--pretty"],
            ["modes", "--k", "1", "--j", "3", "--n", "0"],
            ["xhermite", "--k", "1", "--j", "2", "--n", "1", "--pretty"],
            ["xhermite", "--k", "1", "--j", "2", "--n", "1", "--via", "wronskian"],
            ["xhermite", "--k", "1", "--j", "2", "--n", "1"],
            ["piv", "--family", "1", "--m", "1", "--n", "0", "--residual"],
            ["piv", "--family", "1", "--m", "1", "--n", "0"],
            ["piv", "--family", "2", "--m", "0", "--n", "0", "--backlund", "w1+"],
            ["piv", "--family", "2", "--m", "0", "--n", "0"],
            ["zeros", "--poly-from", "okamoto", "--m", "3", "--n", "1", "--predict"],
            ["zeros", "--poly-from", "okamoto", "--m", "3", "--n", "1"],
            ["potential", "--k", "1", "--eval", "1.0"],
            ["potential", "--k", "1"],
            ["ttrr", "--k", "1", "--j", "2", "--max-n", "2", "--check-ode"],
            ["ttrr", "--k", "1", "--j", "2", "--max-n", "2"],
            ["export", "okamoto", "--m", "2", "--n", "1"],
            ["--quiet", "export", "okamoto", "--m", "2", "--n", "1"],
            ["export", "potential", "--k", "0", "--format", "csv", "--range", "-1", "1",
             "--samples", "3"],
        ]
        assert len(calls) == 30
        shared = [(run_cli(argv, capsys), vars(cli._parser().parse_args(argv))) for argv in calls]
        monkeypatch.setattr(cli, "_parser", cli.build_parser)
        fresh = [(run_cli(argv, capsys), vars(cli.build_parser().parse_args(argv))) for argv in calls]
        for argv, got, want in zip(calls, shared, fresh):
            assert got == want, argv


_TAMPER_SCRIPT = r"""
import os
import sys
import warnings
from pathlib import Path

from okladder.cli import main

assert sys.flags.optimize >= 1
cache = Path(os.environ["OKLADDER_CACHE_DIR"]) / "okamoto_table.json"
first = main(["--quiet", "okamoto", "--m", "3", "--n", "1"])
stat = cache.stat()
cache.write_bytes(cache.read_bytes().replace(b'"3,1"', b'"3;1"'))
os.utime(cache, ns=(stat.st_atime_ns, stat.st_mtime_ns))
second = main(["--quiet", "okamoto", "--m", "3", "--n", "1"])
print(first, second)
"""


def test_tampered_cache_exits_2_under_optimize(tmp_path):
    env = dict(os.environ, PYTHONPATH=str(_SRC), OKLADDER_CACHE_DIR=str(tmp_path))
    proc = subprocess.run(
        [sys.executable, "-O", "-c", _TAMPER_SCRIPT],
        capture_output=True,
        text=True,
        env=env,
        timeout=300,
    )
    assert proc.returncode == 0, proc.stderr
    assert proc.stdout.split() == ["0", "2"]
    assert proc.stderr.startswith("error: ")


def test_entry_point_subprocess():
    env = dict(os.environ, PYTHONPATH=str(_SRC))
    env.pop("OKLADDER_CACHE_DIR", None)
    proc = subprocess.run(
        [sys.executable, "-m", "okladder.cli", "okamoto", "--m", "2", "--n", "0", "--pretty"],
        capture_output=True,
        text=True,
        env=env,
        check=True,
    )
    assert proc.stdout.strip() == "2*x^2 + 3"


def test_python_m_okladder_runs_the_cli(capsys, monkeypatch):
    monkeypatch.delenv("OKLADDER_CACHE_DIR", raising=False)
    args = ["--json", "verify", "--suite", "identities", "--k-max", "1"]
    env = dict(os.environ, PYTHONPATH=str(_SRC))
    proc = subprocess.run(
        [sys.executable, "-m", "okladder", *args], capture_output=True, text=True, env=env
    )
    code, out = run_cli(args, capsys)
    assert (proc.returncode, proc.stdout) == (code, out)


def test_exact_command_does_not_load_mpmath():
    script = "import sys, okladder.cli; okladder.cli.main(['okamoto', '--m', '3', '--n', '1'])\n"
    script += "print('mpmath' in sys.modules)"
    env = dict(os.environ, PYTHONPATH=str(_SRC))
    env.pop("OKLADDER_CACHE_DIR", None)
    proc = subprocess.run(
        [sys.executable, "-c", script], capture_output=True, text=True, env=env, check=True
    )
    assert proc.stdout.splitlines()[-1] == "False"


# Every subcommand, every --via, --what, export kind and --poly-from, and
# every missing-index error, run in one process.  Floats come only from
# correctly rounded exact values, from polyval on exact coefficients, or from
# the mode at x = 0 where the Gaussian is 1, so the bytes do not depend on
# the CPU's exp or on LAPACK.
_PINNED_CALLS = [
    "okamoto --m 3 --n 1",
    "okamoto --m 2 --n 0 --pretty",
    "--json okamoto --m 2 --n 0 --pretty",
    "--quiet okamoto --m 1 --n 0",
    "okamoto --m -1 --n 0",
    "piv --family 1 --m 1 --n 0 --residual",
    "piv --family 2 --m 0 --n 0 --backlund w1+",
    "piv --family 3 --m 1 --n 1",
    "potential --k 1",
    "potential --k 1 --via deleting",
    "potential --k 1 --via adding",
    "potential --k 1 --via susy",
    "potential --k 1 --eval 0.5",
    "potential --k 2 --eval 1.25 --via adding",
    "potential --k 1 --eval 1e308",
    "potential --k 1 --csv --range -2 3 --samples 5",
    "potential --k 1 --csv --via susy --samples 3",
    "potential --k -1",
    "modes --k 1 --j 3 --n 0",
    "modes --k 1 --j 2 --n 2 --pretty",
    "modes --k 1 --j 1 --n -1",
    "ttrr --k 1 --j 2 --max-n 2 --check-ode --check-wronskian",
    "ttrr --k 0 --j 1 --max-n 1",
    "xhermite --k 1 --j 2 --n 1",
    "xhermite --k 1 --j 2 --n 1 --via wronskian",
    "xhermite --k 1 --j 2 --n 1 --via definition",
    "xhermite --k 1 --j 2 --n 1 --pretty",
    "xhermite --k -1 --j 1 --n -1",
    "zeros --poly-from okamoto --m 3 --n 1",
    "zeros --poly-from okamoto --m 3 --n 1 --predict",
    "zeros --poly-from mode --k 1 --j 1 --n 2 --count",
    "zeros --poly-from xhermite --k 1 --j 1 --n 2",
    "zeros --poly-from okamoto --m 3",
    "zeros --poly-from mode --k 1 --j 1",
    "zeros --poly-from xhermite --j 1 --n 1",
    "zeros --poly-from mode --k 1 --j 1 --n -2",
    "zeros --poly-from xhermite --k -1 --j 1 --n -1",
    "spectrum --k 1 --count 0 --N 201",
    "spectrum --k 1 --L nan",
    "plot-data --k 1 --what potential --range -2 3 --samples 5",
    "plot-data --k 0 --what mode --j 1 --n 0 --range 0 0 --samples 1",
    "plot-data --k 1 --what mode --range 0 1 --samples 3",
    "plot-data --k 1 --what mode --j 1 --range 0 1 --samples 3",
    "plot-data --k 1 --what mode --j 1 --n -1 --range 0 1 --samples 3",
    "plot-data --k 0 --what potential --range 0 inf --samples 3",
    "plot-data --k 0 --what potential --range 0 1 --samples 0",
    "verify --suite identities --k-max 1",
    "--json verify --suite tables --k-max 0",
    "export okamoto --m 3 --n 0",
    "export okamoto --m 2 --n 1 --format csv --range -1 1 --samples 5",
    "export mode --k 1 --j 3 --n 0",
    "export mode --k 0 --j 1 --n 0 --format csv --range 0 0 --samples 1",
    "export xhermite --k 1 --j 2 --n 1",
    "export xhermite --k 1 --j 1 --n 1 --format csv --range -1 1 --samples 3",
    "export potential --k 1",
    "export potential --k 0 --format csv --range -1 1 --samples 3",
    "export potential --k 1 --format csv --samples 3",
    "export okamoto --m 2",
    "export mode --k 1",
    "export xhermite --k 1 --n 1",
    "export potential",
    "export xhermite --k -1 --j 1 --n -1",
    "export nothing --k 1",
]
_PINNED_DIGEST = "47dc609b7b09e20d99a4c1f0e60077725ccb6fcf33103a4bab1d93296660d252"


def test_cli_output_is_pinned(monkeypatch, capsys):
    monkeypatch.delenv("OKLADDER_CACHE_DIR", raising=False)
    digest = hashlib.sha256()
    for line in _PINNED_CALLS:
        try:
            code = main(line.split())
        except SystemExit as exc:
            code = exc.code
        captured = capsys.readouterr()
        digest.update(json.dumps([line, code, captured.out, captured.err]).encode())
    assert digest.hexdigest() == _PINNED_DIGEST



# In-process abuse of every subcommand: each numeric option of a small valid
# call in turn takes each hostile value, and each CSV writer samples ranges
# whose width or values overflow a double.  Every run exits 0 or 2, prints an
# `error:` line on exit 2, raises nothing and warns nothing.
_HOSTILE = ["nan", "inf", "-inf", "1e300", "-1e300", "1e-300", "-1", "0"]
_WIDE_SPANS = ["-1e308 1e308", "1e308 -1e308", "1e200 2e200", "-1e300 1e300"]
_ABUSED = [
    "okamoto --m 2 --n 0",
    "piv --family 1 --m 1 --n 0",
    "potential --k 0 --eval 0.5",
    "potential --k 0 --csv --range -1 1 --samples 3",
    "potential --k 0 --via susy --csv --range -1 1 --samples 3",
    "modes --k 0 --j 2 --n 1",
    "ttrr --k 0 --j 1 --max-n 1",
    "xhermite --k 0 --j 2 --n 1",
    "xhermite --k 0 --j 2 --n 1 --via wronskian",
    "xhermite --k 0 --j 2 --n 1 --via definition",
    "zeros --poly-from okamoto --m 2 --n 0",
    "zeros --poly-from mode --k 0 --j 1 --n 1",
    "zeros --poly-from xhermite --k 0 --j 1 --n 1",
    "spectrum --k 0 --count 2 --L 10 --N 201 --tol 1",
    "plot-data --k 0 --what potential --range -1 1 --samples 3",
    "plot-data --k 0 --what mode --j 1 --n 1 --range -1 1 --samples 3",
    "verify --suite identities --k-max 0 --n-max 1",
    "export okamoto --m 2 --n 0 --format csv --range -1 1 --samples 3",
    "export mode --k 0 --j 1 --n 1 --format csv --range -1 1 --samples 3",
    "export xhermite --k 0 --j 1 --n 1 --format csv --range -1 1 --samples 3",
    "export potential --k 0 --format csv --range -1 1 --samples 3",
]


def _abused(line):
    words = line.split()
    for i, word in enumerate(words[:-1]):
        if word.startswith("--") and not words[i + 1].startswith("--"):
            for value in _HOSTILE:
                yield " ".join([*words[: i + 1], value, *words[i + 2 :]])
    if "--range" in line:
        for span in _WIDE_SPANS:
            yield line.replace("--range -1 1", f"--range {span}")


@pytest.mark.parametrize("base", _ABUSED + ["potential --k 1 --eval=-1e-3"])
def test_hostile_values_exit_cleanly(base, monkeypatch, capsys):
    monkeypatch.delenv("OKLADDER_CACHE_DIR", raising=False)
    faults = []
    for line in [base, *_abused(base)]:
        with warnings.catch_warnings(record=True) as caught:
            warnings.simplefilter("always")
            try:
                code = main(line.split())
            except SystemExit as exc:
                code = exc.code
        out, err = capsys.readouterr()
        if caught:
            faults.append((line, [str(w.message) for w in caught]))
        elif code == 2 and "error: " not in err:
            faults.append((line, err))
        elif code == 0 and (err or "nan" in out):
            faults.append((line, out, err))
        elif code not in (0, 2):
            faults.append((line, code))
    assert faults == []
