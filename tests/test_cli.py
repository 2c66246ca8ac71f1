import json
import math
from pathlib import Path

import numpy as np
import pytest

from sobolev_constants.cli import _tolerance_for, main
from sobolev_constants.params import default_grid, grid_fingerprint
from sobolev_constants.report import (
    GoldenSnapshot,
    ResultTable,
    compare_golden,
    format_value,
    read_csv_cells,
    write_table,
)

REPO_GOLDEN = Path(__file__).resolve().parent.parent / "golden"


class TestFormatting:
    def test_twelve_significant_digits(self):
        assert format_value(math.pi) == "3.14159265359"
        assert format_value(1.0 / 3.0) == "0.333333333333"
        assert format_value(123456789012345.0) == "1.23456789012e+14"

    def test_other_types(self):
        assert format_value(True) == "true"
        assert format_value(False) == "false"
        assert format_value(None) == ""
        assert format_value(7) == "7"
        assert format_value("abc") == "abc"
        assert format_value(np.int64(3)) == "3"
        assert format_value(np.bool_(True)) == "true"
        assert format_value(np.bool_(False)) == "false"

    def test_nonfinite_rejected(self):
        with pytest.raises(ValueError):
            format_value(float("nan"))
        with pytest.raises(ValueError):
            format_value(float("inf"))


class TestWriteTable:
    def _table(self):
        t = ResultTable("demo", ("name", "x", "ok"))
        t.append(("alpha", 1.0 / 7.0, True))
        t.append(("beta", 2.5e-13, False))
        return t

    def test_empty_table_header_only(self, tmp_path):
        t = ResultTable("empty", ("a", "b"))
        path = write_table(t, tmp_path, "csv")
        assert path.read_text() == "a,b\n"

    def test_one_row_two_lines(self, tmp_path):
        t = ResultTable("one", ("a",))
        t.append((1.5,))
        path = write_table(t, tmp_path, "csv")
        assert path.read_text() == "a\n1.5\n"

    def test_lf_endings(self, tmp_path):
        path = write_table(self._table(), tmp_path, "csv")
        raw = path.read_bytes()
        assert b"\r" not in raw
        assert raw.endswith(b"\n")

    def test_csv_round_trip_at_twelve_digits(self, tmp_path):
        t = self._table()
        path = write_table(t, tmp_path, "csv")
        header, rows = read_csv_cells(path)
        assert header == t.columns
        for original, parsed in zip(t.rows, rows):
            assert tuple(format_value(v) for v in original) == parsed

    def test_json_matches_csv_formatting(self, tmp_path):
        t = self._table()
        path = write_table(t, tmp_path, "json")
        data = json.loads(path.read_text())
        assert data["schema_version"] == "1"
        assert data["columns"] == list(t.columns)
        assert data["rows"][0][1] == pytest.approx(1.0 / 7.0, rel=1e-11)
        assert "0.142857142857" in path.read_text()
        numpy_cells = ResultTable("numpy_cells", t.columns)
        numpy_cells.append(("gamma", np.int64(3), np.bool_(True)))
        text = write_table(numpy_cells, tmp_path, "json").read_text()
        assert '    ["gamma", 3, true]\n' in text
        assert json.loads(text)["rows"] == [["gamma", 3, True]]

    def test_row_width_checked(self):
        t = ResultTable("demo", ("a", "b"))
        with pytest.raises(ValueError):
            t.append((1.0,))

    def test_unwritable_path(self):
        t = self._table()
        with pytest.raises(ValueError):
            write_table(t, "/proc/definitely/not/writable", "csv")


class TestGolden:
    def test_snapshot_round_trip(self, tmp_path):
        snap = GoldenSnapshot("s", "abc", {"k1": (1.5, 0.05), "k2": (-2.0, 0.1)})
        path = snap.to_file(tmp_path)
        back = GoldenSnapshot.from_file(path)
        assert back == snap

    def test_identical_values_pass(self):
        snap = GoldenSnapshot("s", "h", {"k": (2.0, 0.05)})
        cmp = compare_golden({"k": 2.0}, snap, "h")
        assert cmp.ok and cmp.checked == 1

    def test_off_by_twice_tolerance_fails_with_key(self):
        snap = GoldenSnapshot("s", "h", {"k": (2.0, 0.05)})
        cmp = compare_golden({"k": 2.0 * 1.1}, snap, "h")
        assert not cmp.ok
        assert any("k" in f for f in cmp.failures)

    def test_unknown_key_fails(self):
        snap = GoldenSnapshot("s", "h", {"k": (2.0, 0.05)})
        cmp = compare_golden({"k": 2.0, "extra": 1.0}, snap, "h")
        assert not cmp.ok
        assert any("unknown key" in f for f in cmp.failures)

    def test_hash_mismatch_is_not_a_numeric_diff(self):
        snap = GoldenSnapshot("s", "h", {"k": (2.0, 0.05)})
        cmp = compare_golden({"k": 999.0}, snap, "other")
        assert not cmp.ok
        assert cmp.checked == 0
        assert any("grid changed" in f for f in cmp.failures)
        assert not any("999" in f for f in cmp.failures)


class TestCli:
    def test_point_constants(self, tmp_path, capsys):
        code = main(["constants", "--p", "2", "--q", "4", "--d", "4", "--out", str(tmp_path)])
        assert code == 0
        header, rows = read_csv_cells(tmp_path / "constants.csv")
        row = dict(zip(header, rows[0]))
        assert float(row["S"]) == pytest.approx(2.0, rel=1e-10)
        assert float(row["F"]) == pytest.approx(1.5946, abs=1e-4)
        assert float(row["E_H_tilde"]) == pytest.approx(1.4366, abs=1e-3)

    def test_point_constants_alpha_form(self, tmp_path):
        code = main(["constants", "--p", "2", "--alpha", "1", "--d", "4", "--out", str(tmp_path)])
        assert code == 0

    def test_inconsistent_point_rejected(self, tmp_path):
        code = main(
            ["constants", "--p", "2", "--q", "4", "--alpha", "0.2", "--d", "4", "--out", str(tmp_path)]
        )
        assert code == 2

    def test_bad_p_exits_two(self, tmp_path):
        assert main(["constants", "--p", "0.5", "--q", "4", "--d", "4", "--out", str(tmp_path)]) == 2

    def test_unknown_subcommand_exits_two(self, capsys):
        assert main(["frobnicate"]) == 2

    def test_config_file_sweep(self, tmp_path):
        cfg = tmp_path / "grid.cfg"
        cfg.write_text("p_values = 1.5, 2\nalpha_fractions = 0.5\nd_values = 2\n")
        code = main(["interp", "--config", str(cfg), "--out", str(tmp_path / "out")])
        assert code == 0
        header, rows = read_csv_cells(tmp_path / "out" / "marcinkiewicz.csv")
        assert len(rows) == 2

    def test_bad_config_exits_two(self, tmp_path):
        cfg = tmp_path / "grid.cfg"
        cfg.write_text("p_values = 2\n")
        assert main(["interp", "--config", str(cfg), "--out", str(tmp_path / "out")]) == 2

    def test_fractional_d_in_config_exits_two(self, tmp_path):
        cfg = tmp_path / "grid.cfg"
        cfg.write_text("p_values = 2\nalpha_fractions = 0.5\nd_values = 2.7\n")
        assert main(["interp", "--config", str(cfg), "--out", str(tmp_path / "out")]) == 2

    def test_repeated_config_key_exits_two(self, tmp_path, capsys):
        cfg = tmp_path / "grid.cfg"
        cfg.write_text("p_values = 2\nalpha_fractions = 0.5\nd_values = 2\np_values = 3\n")
        assert main(["interp", "--config", str(cfg), "--out", str(tmp_path / "out")]) == 2
        assert "repeated key 'p_values'" in capsys.readouterr().err

    def test_removed_flags_exit_two(self, tmp_path):
        assert main(["kernel", "--jobs", "2", "--out", str(tmp_path)]) == 2
        assert main(["verify-all", "--jobs", "2", "--out", str(tmp_path)]) == 2
        assert main(["mt", "--geom-c-heat", "2", "--out", str(tmp_path)]) == 2
        assert main(["mt", "--config", "x", "--out", str(tmp_path)]) == 2
        assert main(["constants", "--geom-b", "2", "--out", str(tmp_path)]) == 2
        assert main(["interp", "--geom-d", "2", "--out", str(tmp_path)]) == 2
        assert main(["kernel", "--config", "x", "--out", str(tmp_path)]) == 2
        assert main(["embed", "--config", "x", "--out", str(tmp_path)]) == 2

    def test_golden_tolerances_resolve_to_the_blessed_ones(self):
        data = json.loads((REPO_GOLDEN / "fitted_constants.json").read_text())
        for key, entry in data["values"].items():
            assert _tolerance_for(key) == entry["tolerance"], key

    def test_unknown_fitted_key_has_no_tolerance(self):
        with pytest.raises(ValueError, match="no_such_constant"):
            _tolerance_for("no_such_constant")

    def test_mt_subcommand(self, tmp_path):
        assert main(["mt", "--out", str(tmp_path)]) == 0
        assert (tmp_path / "mt_radius.csv").exists()

    def test_kernel_envelope_profile(self, tmp_path):
        code = main(["kernel", "--alpha", "1", "--d", "3", "--out", str(tmp_path)])
        assert code == 0
        header, rows = read_csv_cells(tmp_path / "envelope_profile.csv")
        assert header == ("r", "green", "normalized_local", "normalized_global")
        assert len(rows) == 80

    def test_verify_all_against_repo_golden(self, tmp_path):
        code = main(
            ["verify-all", "--out", str(tmp_path), "--golden-dir", str(REPO_GOLDEN)]
        )
        assert code == 0
        assert (tmp_path / "summary.csv").exists()

    def test_verify_all_missing_golden_fails(self, tmp_path):
        code = main(
            ["verify-all", "--out", str(tmp_path / "o"), "--golden-dir", str(tmp_path / "nope")]
        )
        assert code == 1

    def test_verify_all_tampered_golden_fails(self, tmp_path):
        snap = GoldenSnapshot.from_file(REPO_GOLDEN / "fitted_constants.json")
        snap.values = dict(snap.values)
        key = "ipq_C_global"
        value, tol = snap.values[key]
        snap.values[key] = (value * 2.0, tol)
        snap.to_file(tmp_path / "golden")
        code = main(
            ["verify-all", "--out", str(tmp_path / "o"), "--golden-dir", str(tmp_path / "golden")]
        )
        assert code == 1

    def test_bless_writes_snapshot(self, tmp_path):
        code = main(
            [
                "verify-all",
                "--out",
                str(tmp_path / "o"),
                "--golden-dir",
                str(tmp_path / "golden"),
                "--bless",
            ]
        )
        assert code == 0
        snap = GoldenSnapshot.from_file(tmp_path / "golden" / "fitted_constants.json")
        assert snap.grid_hash == grid_fingerprint(default_grid())
        assert "ipq_C_global" in snap.values
