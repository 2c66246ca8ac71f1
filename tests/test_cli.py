import contextlib
import csv
import io
import json
import math
import os
import shlex
import subprocess
import sys
import tempfile
from pathlib import Path

import numpy as np
import pytest
from hypothesis import assume, example, given, settings

from sobolev_constants import cli, kernel, verify
from sobolev_constants.cli import main
from sobolev_constants.params import ExponentPair, GroupGeometry, default_grid, grid_fingerprint
from sobolev_constants.report import (
    GoldenSnapshot,
    ResultTable,
    compare_golden,
    format_value,
    write_table,
)

from test_params import pair_inputs

REPO_GOLDEN = Path(__file__).resolve().parent.parent / "golden"
REPO_SRC = Path(__file__).resolve().parent.parent / "src"
TRACED_CLI = Path(__file__).resolve().parent.parent / "perfbench" / "traced_cli.py"


CONSTANTS_FILES = ["b1_multiplier.csv", "b3_bands.csv", "constants.csv"]
VERIFY_ALL_FILES = sorted(
    CONSTANTS_FILES
    + [
        f"{name}.csv"
        for name in (
            "marcinkiewicz", "weak_sup",
            "kernel_local", "kernel_global", "kalpha_agreement", "cutoff", "shell_sums", "envelope",
            "mt_radius", "mt_term_ratios", "mt_majorant", "mt_scaling",
            "embed", "interp_ratios", "gagliardo", "summary",
        )
    ]
)


def read_csv_cells(path) -> tuple[tuple[str, ...], list[tuple[str, ...]]]:
    """Read back a CSV table as raw string cells (header, rows)."""
    with Path(path).open(newline="") as handle:
        reader = csv.reader(handle)
        rows = [tuple(r) for r in reader]
    if not rows:
        raise ValueError(f"{path}: empty table file")
    return rows[0], rows[1:]


def run_python(*args):
    """Run a fresh interpreter with the package's src/ on its path."""
    paths = [str(REPO_SRC), os.environ.get("PYTHONPATH", "")]
    env = dict(os.environ, PYTHONPATH=os.pathsep.join(filter(None, paths)))
    return subprocess.run(
        [sys.executable, *args], capture_output=True, text=True, env=env, timeout=300
    )


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
        for original, parsed in zip(zip(*t.cells), rows):
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

    def test_nonfinite_last_row_leaves_no_file(self, tmp_path):
        # 4099 rows: the nan sits in the last row of a last, partial block
        t = ResultTable("late_nan", ("x", "k"))
        for i in range(4098):
            t.append((i / 7.0, i))
        t.append((float("nan"), 4098))
        for fmt in ("csv", "json"):
            with pytest.raises(ValueError, match="non-finite value nan"):
                write_table(t, tmp_path, fmt)
            assert not (tmp_path / f"late_nan.{fmt}").exists()

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
        failures, checked = compare_golden({"k": 2.0}, snap, "h")
        assert not failures and checked == 1

    def test_off_by_twice_tolerance_fails_with_key(self):
        snap = GoldenSnapshot("s", "h", {"k": (2.0, 0.05)})
        failures, _ = compare_golden({"k": 2.0 * 1.1}, snap, "h")
        assert failures
        assert any("k" in f for f in failures)

    def test_unknown_key_fails(self):
        snap = GoldenSnapshot("s", "h", {"k": (2.0, 0.05)})
        failures, _ = compare_golden({"k": 2.0, "extra": 1.0}, snap, "h")
        assert failures
        assert any("unknown key" in f for f in failures)

    def test_hash_mismatch_is_not_a_numeric_diff(self):
        snap = GoldenSnapshot("s", "h", {"k": (2.0, 0.05)})
        failures, checked = compare_golden({"k": 999.0}, snap, "other")
        assert failures
        assert checked == 0
        assert any("grid or geometry changed" in f for f in failures)
        assert not any("999" in f for f in failures)

    def test_nan_value_fails(self):
        snap = GoldenSnapshot("s", "h", {"k": (2.0, 0.05)})
        failures, _ = compare_golden({"k": float("nan")}, snap, "h")
        assert failures
        assert any("k: got nan" in f for f in failures)


class TestImportBoundary:
    """No subcommand imports scipy: the adaptive quadrature is the package's own."""

    @pytest.mark.parametrize(
        "argv, runs_quad",
        [
            (["constants", "--p", "2", "--q", "4", "--d", "4"], False),
            (["interp"], False),
            (["kernel", "--alpha", "1", "--d", "3"], True),
            (["verify-all", "--golden-dir", str(REPO_GOLDEN)], True),
        ],
    )
    def test_no_subcommand_imports_scipy(self, argv, runs_quad, tmp_path):
        # kernel and verify-all are the controls: they do run kernel.quad
        script = (
            "import sys\n"
            "from sobolev_constants import cli, kernel\n"
            "calls = []\n"
            "quad = kernel.quad\n"
            "kernel.quad = lambda *a, **k: calls.append(1) or quad(*a, **k)\n"
            "code = cli.main(sys.argv[1:])\n"
            "print(code, bool(calls), 'scipy' in sys.modules)\n"
        )
        out = run_python("-c", script, *argv, "--out", str(tmp_path))
        assert out.returncode == 0, out.stderr
        assert out.stdout.splitlines()[-1] == f"0 {runs_quad} False"

    @pytest.mark.parametrize(
        "argv, loads_numpy",
        [
            (["constants", "--p", "2", "--q", "4", "--d", "4"], False),
            (["interp"], True),
            (["kernel", "--alpha", "1", "--d", "3"], True),
            (["verify-all", "--golden-dir", str(REPO_GOLDEN)], True),
        ],
    )
    def test_point_query_imports_no_numpy(self, argv, loads_numpy, tmp_path):
        # interp, kernel and verify-all are the controls: their checks run on numpy;
        # no command imports csv, since the table writer quotes its CSV cells itself
        script = (
            "import sys\n"
            "from sobolev_constants import cli\n"
            "on_import = 'numpy' in sys.modules\n"
            "code = cli.main(sys.argv[1:])\n"
            "print(code, on_import, 'numpy' in sys.modules, 'csv' in sys.modules)\n"
        )
        out = run_python("-c", script, *argv, "--out", str(tmp_path))
        assert out.returncode == 0, out.stderr
        assert out.stdout.splitlines()[-1] == f"0 False {loads_numpy} False"

    @pytest.mark.parametrize(
        "argv, prelude, loads_ma",
        [
            (["constants", "--config", "GRID"], "", False),
            (["interp", "--config", "GRID"], "", False),
            (["verify-all", "--golden-dir", str(REPO_GOLDEN)], "", False),
            # the control: np.unique is what imported numpy.ma
            (["constants", "--config", "GRID"], "import numpy\nnumpy.unique([2, 1])\n", True),
        ],
        ids=["constants", "interp", "verify-all", "np-unique-control"],
    )
    def test_grid_commands_import_no_numpy_ma(self, argv, prelude, loads_ma, tmp_path):
        config = tmp_path / "grid.cfg"
        config.write_text("p_values = 1.5, 2, 4\nalpha_fractions = 0.3, 0.6\nd_values = 1, 3\n")
        script = (
            "import sys\n"
            f"{prelude}"
            "from sobolev_constants import cli\n"
            "code = cli.main(sys.argv[1:])\n"
            "print(code, 'numpy' in sys.modules, 'numpy.ma' in sys.modules)\n"
        )
        argv = [str(config) if a == "GRID" else a for a in argv]
        out = run_python("-c", script, *argv, "--out", str(tmp_path / "out"))
        assert out.returncode == 0, out.stderr
        assert out.stdout.splitlines()[-1] == f"0 True {loads_ma}"

    @pytest.mark.parametrize(
        "argv, prelude, loaded",
        [
            (["verify-all", "--golden-dir", str(REPO_GOLDEN)], "", "False False"),
            (["kernel"], "", "False False"),
            (["constants", "--config", "GRID"], "", "False False"),
            (["interp", "--config", "GRID"], "", "False False"),
            # the controls: the probe sees either module once something imports it
            (["constants", "--config", "GRID"], "import numpy.random\n", "True False"),
            (["kernel"], "import numpy.polynomial\n", "False True"),
        ],
        ids=[
            "verify-all", "kernel", "constants", "interp", "numpy-random-control", "numpy-polynomial-control"
        ],
    )
    def test_commands_load_neither_numpy_random_nor_polynomial(self, argv, prelude, loaded, tmp_path):
        # the seeded draws come from the standard library's random, and the
        # Gauss-Legendre rule from the package's own Newton iteration
        config = tmp_path / "grid.cfg"
        config.write_text("p_values = 1.5, 2, 4\nalpha_fractions = 0.3, 0.6\nd_values = 1, 3\n")
        script = (
            "import sys\n"
            f"{prelude}"
            "from sobolev_constants import cli\n"
            "code = cli.main(sys.argv[1:])\n"
            "print(code, 'numpy.random' in sys.modules, 'numpy.polynomial' in sys.modules)\n"
        )
        argv = [str(config) if a == "GRID" else a for a in argv]
        out = run_python("-c", script, *argv, "--out", str(tmp_path / "out"))
        assert out.returncode == 0, out.stderr
        assert out.stdout.splitlines()[-1] == f"0 {loaded}"

    LIBRARIES = ("dataclasses", "inspect", "hashlib", "decimal", "json")

    @pytest.mark.parametrize(
        "argv, d_values, present",
        [
            (["constants", "--p", "2", "--q", "4", "--d", "4"], None, ()),
            # the controls: verify-all loads hashlib (for its grid fingerprint),
            # the JSON writer json, and a d token with a decimal point decimal
            (["verify-all", "--golden-dir", str(REPO_GOLDEN)], None, ("hashlib",)),
            (["constants", "--p", "2", "--q", "4", "--d", "4", "--format", "json"], None, ("json",)),
            (["constants", "--config", "GRID"], "4.0", ("decimal",)),
        ],
        ids=["point-query", "verify-all", "point-query-json", "config-d-4.0"],
    )
    def test_cli_import_and_point_query_load_no_unread_library(self, argv, d_values, present, tmp_path):
        config = tmp_path / "grid.cfg"
        config.write_text(f"p_values = 1.5, 2\nalpha_fractions = 0.5\nd_values = {d_values}\n")
        script = (
            "import sys\n"
            "import sobolev_constants.cli\n"
            f"libraries = {self.LIBRARIES!r}\n"
            "print(*(m for m in libraries if m in sys.modules))\n"
            "code = sobolev_constants.cli.main(sys.argv[1:])\n"
            "print(code, *(m for m in libraries if m in sys.modules))\n"
        )
        argv = [str(config) if a == "GRID" else a for a in argv]
        out = run_python("-c", script, *argv, "--out", str(tmp_path / "out"))
        assert out.returncode == 0, out.stderr
        lines = out.stdout.splitlines()
        code, *loaded = lines[-1].split()
        assert (lines[0], code) == ("", "0")
        assert set(present) <= set(loaded) and "dataclasses" not in loaded
        if argv[0] == "constants" and "--config" not in argv:
            assert loaded == list(present)  # a point query loads what its format reads, nothing else

    def test_lazily_registered_modules_import_and_read(self):
        # the CLI registers the numpy modules unexecuted; an import or a read runs them
        script = (
            "import sys\n"
            "import sobolev_constants.cli\n"
            "registered = 'sobolev_constants.kernel' in sys.modules and 'numpy' not in sys.modules\n"
            "import sobolev_constants.kernel\n"
            "print(registered, callable(sobolev_constants.kernel.quad), 'numpy' in sys.modules)\n"
        )
        out = run_python("-c", script)
        assert (out.returncode, out.stdout) == (0, "True True True\n"), out.stderr

    def test_quad_returns_value_abserr_and_infodict(self):
        # the benchmark's tracer reads the evaluation count from the infodict
        value, abserr, info = kernel.quad(lambda x: x * x, 0.0, 1.0, 1e-8)
        assert value == pytest.approx(1.0 / 3.0, rel=1e-14) and abserr < 1e-12
        assert info == {"neval": 15}  # one 15-node rule integrates x^2 exactly

    def test_tracer_installs_after_the_cli_import(self, tmp_path):
        spans = tmp_path / "spans.json"
        argv = ["constants", "--p", "2", "--q", "4", "--d", "4", "--out", str(tmp_path / "o")]
        out = run_python(str(TRACED_CLI), str(spans), "--", *argv)
        assert out.returncode == 0, out.stderr
        assert spans.exists()


class TestCli:
    def test_point_constants(self, tmp_path, capsys):
        code = main(["constants", "--p", "2", "--q", "4", "--d", "4", "--out", str(tmp_path)])
        assert code == 0
        header, rows = read_csv_cells(tmp_path / "constants.csv")
        row = dict(zip(header, rows[0]))
        assert float(row["S"]) == pytest.approx(2.0, rel=1e-10)
        assert float(row["F"]) == pytest.approx(1.5946, abs=1e-4)
        assert float(row["E_H_tilde"]) == pytest.approx(1.4366, abs=1e-3)
        # q = 4 >= p' = 2, where all the comparison claims apply, and they hold
        assert row["pass"] == "true"

    def test_point_constants_alpha_form(self, tmp_path):
        code = main(["constants", "--p", "2", "--alpha", "1", "--d", "4", "--out", str(tmp_path)])
        assert code == 0

    @pytest.mark.parametrize(
        "argv, stdout",
        [
            (
                ["--p", "2", "--q", "4", "--d", "4"],
                "p=2 q=4 alpha=1 d=4\n"
                "S        = 2\n"
                "Q        = 2\n"
                "Q_dual   = 3.56762134501\n"
                "F        = 1.5946035575\n"
                "E_H_tilde = 1.43657193254\n"
                "E_H_tilde/S = 0.71828596627\n",
            ),
            (
                ["--p", "3", "--alpha", "0", "--d", "7"],
                "p=3 q=3 alpha=0 d=7\n"
                "S        = 1.04004191153\n"
                "Q        = 1.04004191153\n"
                "Q_dual   = 2.28942848511\n"
                "F        = 0.716621792357\n",
            ),
        ],
        ids=["q-form", "alpha-zero"],
    )
    def test_point_constants_stdout(self, argv, stdout, tmp_path, capsys):
        assert main(["constants", *argv, "--out", str(tmp_path)]) == 0
        assert capsys.readouterr() == (stdout, "")

    @pytest.mark.parametrize("fmt", ["csv", "json"])
    def test_negative_zero_alpha_prints_as_alpha_zero(self, fmt, tmp_path, capsys):
        outputs = []
        for alpha in ("-0.0", "0"):
            out = tmp_path / alpha
            argv = ["constants", "--p", "3", "--alpha", alpha, "--d", "7", "--format", fmt]
            assert main([*argv, "--out", str(out)]) == 0
            outputs.append((capsys.readouterr(), (out / f"constants.{fmt}").read_bytes()))
        assert outputs[0] == outputs[1]
        assert outputs[0][0].out.startswith("p=3 q=3 alpha=0 d=7\n")

    def test_inconsistent_point_rejected(self, tmp_path):
        code = main(
            ["constants", "--p", "2", "--q", "4", "--alpha", "0.2", "--d", "4", "--out", str(tmp_path)]
        )
        assert code == 2

    @pytest.mark.parametrize(
        "argv",
        [
            ["--p", "2", "--q", "4", "--alpha", "1", "--d", "4"],
            # q within 1e-12 of p: alpha = 1/2 - 1/2.000000000001 to 14 digits
            ["--p", "2", "--q", "2.000000000001", "--alpha", "2.49999999999875e-13", "--d", "1"],
        ],
        ids=["q-and-alpha", "q-and-alpha-near-p"],
    )
    def test_consistent_q_and_alpha_accepted(self, argv, tmp_path):
        assert main(["constants"] + argv + ["--out", str(tmp_path)]) == 0

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
        # the spectral shift is tau_delta of the geometry
        assert main(["embed", "--tau", "2", "--out", str(tmp_path)]) == 2
        assert main(["verify-all", "--tau", "2", "--out", str(tmp_path)]) == 2
        for sub in ("kernel", "embed", "verify-all"):
            for flag in ("--geom-d", "--geom-c-chi", "--geom-c-delta-chi-inv"):
                assert main([sub, flag, "2", "--out", str(tmp_path)]) == 2, (sub, flag)

    def test_every_geometry_flag_changes_the_output(self, tmp_path):
        subparsers = next(a for a in cli.build_parser()._actions if a.dest == "subcommand")
        flags = [
            option
            for action in subparsers.choices["embed"]._actions
            for option in action.option_strings
            if option.startswith("--geom-")
        ]
        assert flags
        assert main(["embed", "--out", str(tmp_path / "default")]) == 0
        baseline = (tmp_path / "default" / "embed.csv").read_bytes()
        for i, flag in enumerate(flags):
            out = tmp_path / f"flag{i}"
            assert main(["embed", flag, "2", "--out", str(out)]) == 0, flag
            assert (out / "embed.csv").read_bytes() != baseline, f"{flag} changes nothing"

    def test_every_option_changes_the_output_or_exits_two(self, tmp_path, monkeypatch, capsys):
        # relative defaults (golden/, results/) resolve inside tmp_path
        monkeypatch.chdir(tmp_path)
        config = tmp_path / "grid.cfg"
        config.write_text("p_values = 1.5, 2\nalpha_fractions = 0.5\nd_values = 2\n")
        # a valid value other than the default for every option but --out and --help
        option_values = {
            "--format": ["json"],
            "--config": [str(config)],
            "--p": ["3"],
            "--q": ["4"],
            "--alpha": ["0.5"],
            "--d": ["2"],
            "--geom-growth": ["2"],
            "--geom-b": ["2"],
            # the kernel shift is max{(2/b)(2D + b0)^2, 1 + c_delta^2/4}: c_delta must pass 2 sqrt(11.5)
            "--geom-c-delta": ["10"],
            "--dump-profiles": [],
            "--golden-dir": [str(REPO_GOLDEN)],
            "--bless": [],
        }

        def run(argv, out):
            code = main(argv + ["--out", str(out)])
            stdout, stderr = capsys.readouterr()
            files = {str(f.relative_to(out)): f.read_bytes() for f in out.rglob("*") if f.is_file()}
            return code, stdout, stderr, files

        subparsers = next(a for a in cli.build_parser()._actions if a.dest == "subcommand")
        for sub, parser in subparsers.choices.items():
            _, base_stdout, _, base_files = run([sub], tmp_path / sub)
            for action in parser._actions:
                option = action.option_strings[-1] if action.option_strings else None
                if option in (None, "--help", "--out"):
                    continue
                assert option in option_values, f"no test value for {sub} {option}"
                argv = [sub, option] + option_values[option]
                code, stdout, stderr, files = run(argv, tmp_path / f"{sub}{option}")
                if code == 2:
                    err = stderr.splitlines()
                    assert len(err) == 1 and err[0].startswith("error: "), (sub, option, err)
                else:
                    assert (files, stdout) != (base_files, base_stdout), f"{sub} {option} changes nothing"

    def test_geometries_of_equal_tau_delta_write_equal_embed_trees(self, tmp_path):
        # c_delta^2/4 = 25 and 100 both exceed the shift threshold 12.5, so tau_delta clamps to 1
        trees = []
        for c_delta in ("10", "20"):
            out = tmp_path / c_delta
            assert main(["embed", "--geom-c-delta", c_delta, "--out", str(out)]) == 0
            trees.append({f.name: f.read_bytes() for f in out.iterdir()})
        assert trees[0] == trees[1]

    def test_dump_profiles(self, tmp_path):
        for out in (tmp_path / "a", tmp_path / "b"):
            assert main(["embed", "--dump-profiles", "--out", str(out)]) == 0
        header, rows = read_csv_cells(tmp_path / "a" / "field_profiles.csv")
        assert header == ("width", "x", "abs_f")
        assert len(rows) == 3 * 128
        assert sorted((w, f) for w, x, f in rows if x == "8") == [("0.5", "1"), ("1", "1"), ("2", "1")]
        dumped = (tmp_path / "a" / "field_profiles.csv").read_bytes()
        assert (tmp_path / "b" / "field_profiles.csv").read_bytes() == dumped

    def test_runtime_error_is_a_verification_failure(self, tmp_path, monkeypatch, capsys):
        def unsettled():
            raise RuntimeError("term-ratio extrapolation did not settle")

        monkeypatch.setattr(verify, "check_series", unsettled)
        assert main(["mt", "--out", str(tmp_path)]) == 1
        err = capsys.readouterr().err.splitlines()
        assert err == ["verification failure: term-ratio extrapolation did not settle"]

    def test_mt_subcommand(self, tmp_path):
        assert main(["mt", "--out", str(tmp_path)]) == 0
        assert (tmp_path / "mt_radius.csv").exists()

    def test_kernel_envelope_profile(self, tmp_path):
        # one envelope.csv, of the --alpha/--d profile
        assert main(["kernel", "--alpha", "1", "--d", "3", "--out", str(tmp_path / "a")]) == 0
        assert sorted(p.name for p in (tmp_path / "a").glob("envelope*")) == ["envelope.csv"]
        header, rows = read_csv_cells(tmp_path / "a" / "envelope.csv")
        assert header == ("r", "green", "normalized_local", "log_normalized_global")
        assert len(rows) == 80
        assert main(["kernel", "--alpha", "0.5", "--d", "1", "--out", str(tmp_path / "b")]) == 0
        other = (tmp_path / "b" / "envelope.csv").read_bytes()
        assert other != (tmp_path / "a" / "envelope.csv").read_bytes()

    def test_bad_kernel_profile_exits_two_before_the_checks(self, tmp_path, monkeypatch):
        def must_not_run(geometry):
            pytest.fail("check_kernel ran before the profile order was validated")

        monkeypatch.setattr(verify, "check_kernel", must_not_run)
        assert main(["kernel", "--alpha", "5", "--d", "3", "--out", str(tmp_path)]) == 2

    def test_overflowing_spectral_shift_exits_two(self, tmp_path, capsys):
        # growth 1e150 makes tau_delta about 8e300, and the Bessel transform overflows
        assert main(["embed", "--geom-growth", "1e150", "--out", str(tmp_path)]) == 2
        assert "norm is not finite" in capsys.readouterr().err

    def test_overflowing_spectral_shift_prints_only_the_error(self, tmp_path):
        # run as a program: numpy's overflow warnings would reach stderr there
        argv = ["embed", "--geom-growth", "1e150", "--out", str(tmp_path)]
        out = run_python("-m", "sobolev_constants.cli", *argv)
        assert out.returncode == 2
        assert len(out.stderr.splitlines()) == 1 and out.stderr.startswith("error: L^"), out.stderr

    @pytest.mark.parametrize(
        "argv",
        [
            ["kernel", "--geom-growth", "1e200"],
            ["embed", "--geom-growth", "1e200"],
            ["kernel", "--geom-b", "1e-320"],
            ["embed", "--geom-c-delta", "1e200"],
        ],
    )
    def test_overflowing_shift_threshold_exits_two(self, argv, tmp_path, capsys):
        assert main(argv + ["--out", str(tmp_path)]) == 2
        err = capsys.readouterr().err.splitlines()
        assert len(err) == 1 and err[0].startswith("error: shift threshold"), err

    def test_kernel_envelope_below_the_double_range_runs(self, tmp_path, capsys):
        # growth 6 needs the shift a = 312.5: the envelope leaves the double
        # range before r = 30, but the weighted global sup (about e^-24) does not
        assert main(["kernel", "--geom-growth", "6", "--out", str(tmp_path)]) == 0
        assert capsys.readouterr().err == ""

    def test_underflowing_kernel_envelope_exits_two(self, tmp_path, capsys):
        # growth 200: the weighted global sup itself, about e^-735, is below
        # the normal doubles
        assert main(["kernel", "--geom-growth", "200", "--out", str(tmp_path)]) == 2
        err = capsys.readouterr().err.splitlines()
        assert len(err) == 1 and err[0].startswith("error: weighted global envelope sup"), err

    @pytest.mark.parametrize("growth", ["13", "190"])
    def test_weighted_kernel_profile_stays_in_logs(self, growth, tmp_path, capsys):
        # the unshifted profile weighted by e^{(2D + b0) r} is e^735 at r = 30
        # for growth 13, past the doubles, and is written as its log
        assert main(["kernel", "--geom-growth", growth, "--out", str(tmp_path)]) == 0
        assert capsys.readouterr().err == ""
        header, rows = read_csv_cells(tmp_path / "envelope.csv")
        r, green, _, log_global = rows[-1]
        rate = 2.0 * float(growth) + 0.5
        assert float(log_global) == pytest.approx(math.log(float(green)) + rate * float(r), rel=1e-11)

    @pytest.mark.parametrize(
        "argv, message",
        [
            (["kernel", "--alpha", "1", "--d", "300"], "error: kernel envelope e^"),
            (["constants", "--config", "MISSING"], "error: cannot read grid config"),
            (["interp", "--config", "MISSING"], "error: cannot read grid config"),
            (["verify-all", "--config", "MISSING"], "error: cannot read grid config"),
            (["constants", "--p", "2", "--alpha", "1", "--d", "1" + "0" * 400], "error: d must be"),
            (["constants", "--p", "2", "--q", "4", "--d", "1" + "0" * 400], "error: d must be"),
            (["kernel", "--alpha", "1", "--d", "1" + "0" * 400], "error: d must be"),
            (["kernel", "--alpha", "1", "--d", "1000000000000"], "error: kernel envelope at r="),
            (["kernel", "--alpha", "1", "--d", "9007199254740992"], "error: kernel envelope at r="),
            # the spectral shift is tau_delta of the geometry, so its extremes come from there
            (["embed", "--geom-growth", "inf"], "error: D must be finite, got inf"),
            (["verify-all", "--geom-growth", "inf"], "error: D must be finite, got inf"),
            (["embed", "--geom-c-delta", "nan"], "error: c_delta must be finite, got nan"),
            (["verify-all", "--geom-c-delta", "nan"], "error: c_delta must be finite, got nan"),
            # the kernel family runs before the spectral one and refuses first
            (["verify-all", "--geom-growth", "1e150"], "error: weighted global envelope sup e^-3.65685e+150"),
            (["verify-all", "--geom-c-delta", "1e200"], "error: shift threshold"),
            (["kernel", "--alpha", "5e-324"], "error: alpha=5e-324 is too small: alpha/2 rounds to 0"),
            (["kernel", "--geom-b", "1.7976931348623157e308"], "error: kernel envelope at r=30 needs b r^2"),
            (["verify-all", "--geom-b", "3e306"], "error: kernel envelope at r=30 needs b r^2"),
        ],
    )
    def test_extreme_sizes_exit_two_with_one_error_line(self, argv, message, tmp_path):
        # run as a program, so a traceback or a numpy warning would show on stderr
        argv = [str(tmp_path / "missing.cfg") if a == "MISSING" else a for a in argv]
        out = run_python("-m", "sobolev_constants.cli", *argv, "--out", str(tmp_path / "out"))
        assert out.returncode == 2
        assert len(out.stderr.splitlines()) == 1 and out.stderr.startswith(message), out.stderr
        assert not (tmp_path / "out").exists()

    @pytest.mark.parametrize("b, code", [("1e-300", 0), ("1e100", 2), ("1e300", 2)])
    def test_extreme_gaussian_rate_prints_no_warning(self, b, code, tmp_path):
        # b = 1e-300 once underflowed c/a in the split rule; 1e100 and 1e300
        # round its remainder interval to zero width
        argv = ["kernel", "--geom-b", b, "--out", str(tmp_path)]
        out = run_python("-m", "sobolev_constants.cli", *argv)
        assert out.returncode == code, out.stderr
        if code == 0:
            assert out.stderr == ""
        else:
            assert len(out.stderr.splitlines()) == 1, out.stderr
            assert out.stderr.startswith("error: weighted global envelope sup"), out.stderr

    def test_point_conjugates_rounding_to_one_name_the_inputs(self, tmp_path, capsys):
        argv = ["constants", "--p", "1e300", "--q", "2e300", "--d", "3", "--out", str(tmp_path)]
        assert main(argv) == 2
        err = capsys.readouterr().err.splitlines()
        assert len(err) == 1 and "p=1e+300, q=2e+300" in err[0] and "rounds to 1" in err[0], err

    @pytest.mark.parametrize(
        "argv, config, message",
        [
            # 1/p - alpha/d rounds to 0 although alpha < d/p: a raw ZeroDivisionError
            pytest.param(
                ["constants", "--p", "3", "--alpha", "0.9999999999999999", "--d", "3"],
                None,
                "1/q = 1/p - alpha/d is not positive for p=3.0",
                id="point-gap-rounds-to-zero",
            ),
            pytest.param(
                ["constants"],
                "p_values = 3\nalpha_fractions = 0.9999999999999999\nd_values = 3\n",
                "1/q = 1/p - alpha/d is not positive for p=3.0",
                id="constants-grid-gap-rounds-to-zero",
            ),
            pytest.param(
                ["interp"],
                "p_values = 3\nalpha_fractions = 0.9999999999999999\nd_values = 3\n",
                "1/q = 1/p - alpha/d is not positive for p=3.0",
                id="interp-grid-gap-rounds-to-zero",
            ),
            # float() read 2^53 + 1 as 2^53, and the sweep ran another d
            pytest.param(
                ["constants"],
                "p_values = 2\nalpha_fractions = 0.5\nd_values = 9007199254740993\n",
                "d must be a positive integer of at most 2^53, got 9007199254740993",
                id="grid-d-rounds-to-2-53",
            ),
            # alpha too small to move q: m1 raised a raw OverflowError
            pytest.param(
                ["interp"],
                "p_values = 2\nalpha_fractions = 1e-310\nd_values = 2\n",
                "alpha=1e-310 is too small to move q above p=2.0",
                id="interp-grid-alpha-too-small",
            ),
            # q = 2^53, so q + 1 rounds to q and no endpoint pair flanks it
            pytest.param(
                ["interp"],
                "p_values = 2.0109909367050562\nalpha_fractions = 0.9999999999999998\nd_values = 2\n",
                "q must lie strictly between the endpoint exponents "
                "for ExponentPair(p=2.0109909367050562, ",
                id="interp-grid-q-plus-one-rounds-to-q",
            ),
            # the fraction 5e-324 rounds alpha to 0: the line named no pair
            pytest.param(
                ["constants"],
                "p_values = 4\nalpha_fractions = 5e-324\nd_values = 1\n",
                "E_H_tilde needs alpha > 0 (the formula carries 1/alpha) "
                "for ExponentPair(p=4.0, alpha=0.0, d=1,",
                id="constants-grid-alpha-rounds-to-zero",
            ),
            pytest.param(
                ["interp"],
                "p_values = 4\nalpha_fractions = 5e-324\nd_values = 1\n",
                "endpoints need alpha > 0 (for alpha = 0 nothing is interpolated) "
                "for ExponentPair(p=4.0, alpha=0.0, d=1,",
                id="interp-grid-alpha-rounds-to-zero",
            ),
            # max/min of E_H_tilde/S overflows: numpy warned with the source path first
            pytest.param(
                ["constants"],
                "p_values = 1.0000000000002902, 1.0000017472693938, 56642572786789.52\n"
                "alpha_fractions = 0.6665874930314085\nd_values = 267\n",
                "comparability band max/min of E_H_tilde/S is not finite for d=267",
                id="constants-grid-band-overflows",
            ),
            # the grid path names the user's p, not the rounded conjugates
            pytest.param(
                ["constants"],
                "p_values = 2, 1e20\nalpha_fractions = 0.5\nd_values = 3\n",
                "p=1e+20, q=2e+20: the conjugate exponent q' = q/(q - 1) rounds to 1",
                id="constants-grid-conjugate-rounds-to-one",
            ),
            # 1/q with q = 0 raised a raw ZeroDivisionError, and q = nan was ignored
            pytest.param(
                ["constants", "--p", "2", "--q", "0", "--alpha", "1", "--d", "3"],
                None,
                "--q must be >= --p, got q=0.0 < p=2.0",
                id="point-q-zero-with-alpha",
            ),
            pytest.param(
                ["constants", "--p", "2", "--q", "nan", "--alpha", "1", "--d", "4"],
                None,
                "--q must be >= --p, got q=nan",
                id="point-q-nan-with-alpha",
            ),
            # a small alpha that disagrees with --q passed an absolute 1e-9 check
            pytest.param(
                ["constants", "--p", "2", "--q", "2.000000000002", "--alpha", "2e-12", "--d", "1"],
                None,
                "--q 2.000000000002 and --alpha 2e-12 disagree",
                id="point-small-alpha-disagrees-with-q",
            ),
            # --d alone ran the default grid and ignored it
            pytest.param(
                ["constants", "--d", "4"], None, "point mode needs --q or --alpha", id="point-d-alone"
            ),
            # a missing --p read as a bad value: "--p must be > 1, got None"
            pytest.param(["constants", "--q", "4", "--d", "4"], None, "point mode needs --p", id="point-no-p"),
            # point mode ignored a --config, even one naming no file
            pytest.param(
                ["constants", "--p", "2", "--q", "4", "--d", "4"],
                "p_values = 2\nalpha_fractions = 0.5\nd_values = 3\n",
                "point mode takes no --config",
                id="point-with-config",
            ),
            # --p is refused by ExponentPair's own rule, with its message, before 1/p is taken
            pytest.param(
                ["constants", "--p", "nan", "--q", "4", "--d", "4"],
                None,
                "error: p must lie in (1, inf), got nan",
                id="point-p-nan",
            ),
            # inf passed the CLI's own "--p must be > 1" and was reported as a --q error
            pytest.param(
                ["constants", "--p", "inf", "--q", "4", "--d", "4"],
                None,
                "error: p must lie in (1, inf), got inf",
                id="point-p-inf-with-q",
            ),
            pytest.param(
                ["constants", "--p", "0", "--q", "4", "--d", "4"],
                None,
                "error: p must lie in (1, inf), got 0.0",
                id="point-p-zero-with-q",
            ),
        ],
    )
    def test_unusable_exponents_exit_two_with_one_error_line(self, argv, config, message, tmp_path, capsys):
        if config is not None:
            cfg = tmp_path / "grid.cfg"
            cfg.write_text(config)
            argv = argv + ["--config", str(cfg)]
        assert main(argv + ["--out", str(tmp_path / "out")]) == 2
        err = capsys.readouterr().err.splitlines()
        assert len(err) == 1 and err[0].startswith("error: ") and message in err[0], err
        assert not (tmp_path / "out").exists()

    def test_underflowing_euclidean_bound_exits_two(self, tmp_path, capsys):
        argv = ["constants", "--p", "1.05", "--alpha", "257", "--d", "300", "--out", str(tmp_path)]
        assert main(argv) == 2
        assert "leaves double range" in capsys.readouterr().err
        cfg = tmp_path / "grid.cfg"
        cfg.write_text("p_values = 1.05, 2\nalpha_fractions = 0.5, 0.9\nd_values = 300\n")
        assert main(["constants", "--config", str(cfg), "--out", str(tmp_path / "grid")]) == 2
        assert "leaves double range" in capsys.readouterr().err

    def test_false_pass_cell_fails_check_summary_and_exit(self, tmp_path, monkeypatch, capsys):
        name = "embedding-factor powers stay below the counting majorant (k <= 200)"
        monkeypatch.setattr(verify, "s_majorant_gap", lambda p, k: -1.0)
        assert main(["mt", "--out", str(tmp_path / "mt")]) == 1
        assert f"[FAIL] {name}" in capsys.readouterr().out.splitlines()
        header, rows = read_csv_cells(tmp_path / "mt" / "mt_majorant.csv")
        assert {row[-1] for row in rows} == {"false"}
        # the summary row is rendered from the same record; skip the slow families
        for family in ("check_constants", "check_interpolation", "check_kernel", "check_spectral"):
            monkeypatch.setattr(verify, family, lambda *args: verify.CheckResult())
        main(["verify-all", "--out", str(tmp_path / "all"), "--golden-dir", str(REPO_GOLDEN)])
        header, rows = read_csv_cells(tmp_path / "all" / "summary.csv")
        assert header == ("check", "pass")
        assert (name, "false") in rows
        assert ("series radius matches the closed-form threshold (2%)", "true") in rows

    def test_false_interp_ratios_cell_fails_its_check(self, tmp_path, monkeypatch, capsys):
        name = "interpolation ratio at p = 2 within the frequency-side bound; exact at the ends"
        real = verify.interpolation_check

        def patched(ratio_at):
            def check(f, p, alpha, theta, tau):
                lhs, rhs, ratio = real(f, p, alpha, theta, tau)
                return lhs, rhs, ratio_at.get((p, theta), ratio)

            monkeypatch.setattr(verify, "interpolation_check", check)

        # a p = 4 row passes only with a finite ratio, and the check passes by every row
        patched({(4.0, 0.5): math.inf})
        result = verify.check_spectral(GroupGeometry())
        table = next(table for table in result.tables if table.name == "interp_ratios")
        p4_cells = [ok for p, ok in zip(table.column("p"), table.column("pass")) if p == 4.0]
        assert p4_cells and not any(p4_cells)
        assert (f"{name} (empirical p=4 constant inf)", False) in result.checks
        # no file holds the infinite ratio: the run stops at the table with exit 2
        assert main(["embed", "--out", str(tmp_path / "inf")]) == 2
        assert "refusing to serialize non-finite value inf" in capsys.readouterr().err
        # a finite false cell writes its table, fails the run and its summary row
        patched({(2.0, 0.5): 1.5})
        assert main(["embed", "--out", str(tmp_path / "embed")]) == 1
        assert any(line.startswith(f"[FAIL] {name}") for line in capsys.readouterr().out.splitlines())
        header, rows = read_csv_cells(tmp_path / "embed" / "interp_ratios.csv")
        assert {row[-1] for row in rows if row[:2] == ("2", "0.5")} == {"false"}
        for family in ("check_constants", "check_interpolation", "check_kernel", "check_series"):
            monkeypatch.setattr(verify, family, lambda *args: verify.CheckResult())
        main(["verify-all", "--out", str(tmp_path / "all"), "--golden-dir", str(REPO_GOLDEN)])
        header, rows = read_csv_cells(tmp_path / "all" / "summary.csv")
        assert [row[1] for row in rows if row[0].startswith(name)] == ["false"]

    @pytest.mark.parametrize("config", [None, "p_values = 1.5, 2\nalpha_fractions = 0.5\nd_values = 2\n"])
    def test_constants_writes_each_grid_number_once(self, config, tmp_path):
        # the comparison claims are the last column of constants.csv
        argv = ["constants", "--out", str(tmp_path / "out")]
        if config is not None:
            (tmp_path / "grid.cfg").write_text(config)
            argv += ["--config", str(tmp_path / "grid.cfg")]
        assert main(argv) == 0
        assert sorted(path.name for path in (tmp_path / "out").iterdir()) == CONSTANTS_FILES
        header, _ = read_csv_cells(tmp_path / "out" / "constants.csv")
        assert header[-2:] == ("ratio_EH_over_S", "pass")

    def test_verify_all_against_repo_golden(self, tmp_path):
        code = main(
            ["verify-all", "--out", str(tmp_path), "--golden-dir", str(REPO_GOLDEN)]
        )
        assert code == 0
        assert sorted(path.name for path in tmp_path.iterdir()) == VERIFY_ALL_FILES

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
        # the golden comparison has its own summary row
        header, rows = read_csv_cells(tmp_path / "o" / "summary.csv")
        golden_rows = [row for row in rows if row[0].startswith("golden snapshot comparison")]
        assert len(golden_rows) == 1 and golden_rows[0][1] == "false"
        assert "ipq_C_global" in golden_rows[0][0]

    def test_bless_refuses_a_non_finite_fitted_value(self, tmp_path, monkeypatch):
        nan_result = verify.CheckResult(fitted={"ipq_C_global": (float("nan"), 0.05)})
        for family in ("check_constants", "check_kernel", "check_series", "check_spectral"):
            monkeypatch.setattr(verify, family, lambda *args: verify.CheckResult())
        monkeypatch.setattr(verify, "check_interpolation", lambda *args: nan_result)
        golden = tmp_path / "golden"
        args = ["verify-all", "--out", str(tmp_path / "o"), "--golden-dir", str(golden), "--bless"]
        assert main(args) == 2
        assert not (golden / "fitted_constants.json").exists()

    @pytest.mark.parametrize(
        "snapshot",
        [
            "{}",
            "[1, 2]",
            '{"name": "fitted_constants", "grid_hash": "h", "values": {"k": 1.0}}',
            '{"name": "fitted_constants", "grid_hash": "h", "values": {"k": {"value": "abc", "tolerance": 0.1}}}',
            "not json",
            # an infinite tolerance would pass every value
            '{"name": "fitted_constants", "grid_hash": "h", "values": {"k": {"value": 1.0, "tolerance": Infinity}}}',
            None,  # --bless into a --golden-dir that is a regular file
        ],
        ids=[
            "empty-object", "list", "entry-not-an-object", "value-not-a-number", "not-json",
            "tolerance-infinite", "bless-into-a-file",
        ],
    )
    def test_bad_golden_snapshot_exits_two_naming_the_path(self, snapshot, tmp_path, monkeypatch, capsys):
        # the families run before the snapshot is read; skip them
        monkeypatch.setattr(verify, "run_all_checks", lambda *args: verify.CheckResult())
        golden = tmp_path / "golden"
        argv = ["verify-all", "--out", str(tmp_path / "out"), "--golden-dir", str(golden)]
        if snapshot is None:
            golden.write_text("a file\n")
            argv.append("--bless")
            named = golden
        else:
            golden.mkdir()
            named = golden / "fitted_constants.json"
            named.write_text(snapshot)
        assert main(argv) == 2
        out, err = capsys.readouterr()
        err = err.splitlines()
        assert out == ""
        assert len(err) == 1 and err[0].startswith("error: ") and str(named) in err[0], err
        assert not (tmp_path / "out").exists()
        assert sorted(path.name for path in tmp_path.iterdir()) == ["golden"]

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
        assert snap.grid_hash == grid_fingerprint(default_grid(), GroupGeometry())
        repo = GoldenSnapshot.from_file(REPO_GOLDEN / "fitted_constants.json")
        assert sorted(snap.values) == sorted(repo.values)

    def test_other_geometry_is_a_changed_fingerprint_not_a_numeric_diff(self, tmp_path, capsys):
        # blessed into its own directory, a non-default geometry passes; against
        # golden/ it fails on one fingerprint line, not on the values it moves
        growth = ["verify-all", "--geom-growth", "2"]
        own = str(tmp_path / "golden-growth2")
        assert main([*growth, "--out", str(tmp_path / "bless"), "--golden-dir", own, "--bless"]) == 0
        assert main([*growth, "--out", str(tmp_path / "own"), "--golden-dir", own]) == 0
        capsys.readouterr()
        assert main([*growth, "--out", str(tmp_path / "repo"), "--golden-dir", str(REPO_GOLDEN)]) == 1
        failed = [line for line in capsys.readouterr().out.splitlines() if line.startswith("[FAIL]")]
        fingerprint = grid_fingerprint(default_grid(), GroupGeometry(D=2.0))
        assert failed == [
            "[FAIL] golden snapshot comparison (grid or geometry changed: "
            f"run fingerprint {fingerprint} != snapshot 4214a3041c56)"
        ]

    def test_golden_tolerances_resolve_to_the_blessed_ones(self):
        # each tolerance is attached where its constant is fitted; on the
        # default grid and geometry they match the repository snapshot key by key
        grid = default_grid()
        result = verify.run_all_checks(grid, GroupGeometry())
        data = json.loads((REPO_GOLDEN / "fitted_constants.json").read_text())
        assert sorted(result.fitted) == sorted(data["values"])
        for key, entry in data["values"].items():
            assert result.fitted[key][1] == entry["tolerance"], key


@settings(derandomize=True, database=None, deadline=None, max_examples=200)
@example((3.0, 0.0, 7))
@given(pair_inputs)
def test_point_query_prints_its_constants_cells(inputs):
    # each printed value is its constants.csv cell, and the E_H_tilde lines
    # are printed exactly when those cells are set
    p, alpha, d = inputs
    with tempfile.TemporaryDirectory() as out:
        argv = ["constants", f"--p={p!r}", f"--alpha={alpha!r}", f"--d={d}", "--out", out]
        stdout, stderr = io.StringIO(), io.StringIO()
        with contextlib.redirect_stdout(stdout), contextlib.redirect_stderr(stderr):
            code = main(argv)
        if code == 2:
            assert stdout.getvalue() == "" and stderr.getvalue().startswith("error: ")
            assume(False)
        assert code == 0
        header, rows = read_csv_cells(Path(out) / "constants.csv")
    cells = dict(zip(header, rows[0]))
    lines = stdout.getvalue().splitlines()
    assert lines[0] == f"p={p:g} q={ExponentPair(p, alpha, d).q:g} alpha={alpha:g} d={d}"
    printed = {label.strip(): value for label, value in (line.split(" = ") for line in lines[1:])}
    names = {"E_H_tilde/S": "ratio_EH_over_S"}
    assert {names.get(label, label): value for label, value in printed.items()} == {
        name: cells[name] for name in ("S", "Q", "Q_dual", "F", "E_H_tilde", "ratio_EH_over_S") if cells[name] != ""
    }
    assert ("E_H_tilde" in printed) == (cells["E_H_tilde"] != "") == (cells["ratio_EH_over_S"] != "")


def readme_cli_commands():
    """The sobolev-constants lines of README's ## CLI block, without their comments."""
    text = (Path(__file__).resolve().parent.parent / "README.md").read_text()
    block = text.split("\n## CLI\n", 1)[1].split("```sh\n", 1)[1].split("```", 1)[0]
    commands = [shlex.split(line.split("#", 1)[0]) for line in block.splitlines() if line.startswith("sobolev-constants ")]
    if not commands:
        raise ValueError("README's ## CLI block has no sobolev-constants line")
    return commands


@pytest.mark.parametrize("command", readme_cli_commands(), ids=" ".join)
def test_readme_cli_examples_run(command, tmp_path, capsys):
    assert command[0] == "sobolev-constants"
    argv = command[1:] + ["--out", str(tmp_path / "out")]
    if argv[0] == "verify-all":
        argv += ["--golden-dir", str(REPO_GOLDEN)]
    assert main(argv) == 0, capsys.readouterr().err
