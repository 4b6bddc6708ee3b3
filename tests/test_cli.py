"""Command-line interface: subcommands, CSV schema, exit codes, validation."""

import csv
import io
import subprocess
import sys

from relaysec.cli import CSV_COLUMNS, FIGURE_PRESETS, main

PINNED_PREFIX = "scheme,mode,K,rho_db,gab_db,gar_db,grb_db,rate,method,sop,stderr,trials"


def run_cli(args, capsys):
    code = main(args)
    captured = capsys.readouterr()
    return code, captured.out, captured.err


class TestCsvSchema:
    def test_pinned_column_order(self):
        assert CSV_COLUMNS.startswith(PINNED_PREFIX)

    def test_point_analytic_row(self, capsys):
        code, out, _ = run_cli(
            ["point", "--scheme", "dt", "--rho-db", "20", "--method", "analytic"], capsys
        )
        assert code == 0
        header, row = out.strip().splitlines()
        assert header == CSV_COLUMNS
        fields = row.split(",")
        assert fields[0] == "dt"
        assert fields[8] == "analytic"
        assert fields[10] == "0"  # stderr
        assert fields[11] == "0"  # trials

    def test_montecarlo_row_has_wilson_bounds(self, capsys):
        code, out, _ = run_cli(
            ["point", "--scheme", "af", "--method", "montecarlo", "--trials", "20000"], capsys
        )
        assert code == 0
        row = out.strip().splitlines()[1].split(",")
        sop, lo, hi = float(row[9]), float(row[12]), float(row[13])
        assert lo <= sop <= hi

    def test_byte_identical_reruns(self, capsys):
        args = ["point", "--scheme", "cj", "--method", "both", "--trials", "20000", "--seed", "3"]
        _, out1, _ = run_cli(args, capsys)
        _, out2, _ = run_cli(args, capsys)
        assert out1 == out2

    def test_both_mode_reports_agreement(self, capsys):
        code, _, err = run_cli(
            ["point", "--scheme", "af", "--method", "both", "--trials", "200000"], capsys
        )
        assert code == 0
        ratio = float(err.split("|delta|/stderr=")[1].split()[0])
        assert ratio < 4.0


class TestExitCodes:
    def test_unsupported_analytic_combination(self, capsys):
        code, _, err = run_cli(
            ["point", "--scheme", "cj", "--mode", "full", "--k", "4", "--method", "analytic"],
            capsys,
        )
        assert code == 3
        assert "montecarlo" in err.lower()

    def test_config_file_missing(self, capsys):
        code, _, err = run_cli(["point", "--config", "/does/not/exist"], capsys)
        assert code == 2

    def test_bad_config_line(self, tmp_path, capsys):
        cfg = tmp_path / "bad.cfg"
        cfg.write_text("this is not a key value pair\n")
        code, _, _ = run_cli(["point", "--config", str(cfg)], capsys)
        assert code == 2

    def test_bad_flag_exits_two(self):
        proc = subprocess.run(
            [sys.executable, "-m", "relaysec.cli", "point", "--bogus"],
            capture_output=True,
        )
        assert proc.returncode == 2

    def test_invalid_scheme_mode_combination(self, capsys):
        code, _, _ = run_cli(["point", "--scheme", "dt", "--mode", "select-nocsi"], capsys)
        assert code == 2

    def test_selection_beyond_64_antennas(self, capsys):
        code, out, _ = run_cli(
            ["point", "--k", "65", "--mode", "select-csi", "--method", "analytic"], capsys
        )
        assert code == 0
        assert 0.0 <= float(out.strip().splitlines()[1].split(",")[9]) <= 1.0


class TestImports:
    def test_cli_does_not_load_mpmath(self):
        proc = subprocess.run(
            [sys.executable, "-c", "import sys, relaysec.cli; print('mpmath' in sys.modules)"],
            capture_output=True,
            text=True,
        )
        assert proc.returncode == 0, proc.stderr
        assert proc.stdout.strip() == "False"


class TestConfigFile:
    def test_config_supplies_defaults_and_flags_win(self, tmp_path, capsys):
        cfg = tmp_path / "run.cfg"
        cfg.write_text("scheme = cj\nrho_db = 30\ntrials = 20000\n")
        code, out, _ = run_cli(
            ["point", "--config", str(cfg), "--rho-db", "10", "--method", "analytic"], capsys
        )
        assert code == 0
        row = out.strip().splitlines()[1].split(",")
        assert row[0] == "cj"
        assert row[3] == "10"  # explicit flag beats the config file


class TestValidate:
    def test_passes_by_default(self, capsys):
        code, out, _ = run_cli(["validate", "--trials", "40000"], capsys)
        assert code == 0
        assert "FAIL" not in out
        assert "NOTE high-SNR AF limit" in out

    def test_uncorrected_threshold_fails(self, capsys):
        code, out, _ = run_cli(["validate", "--trials", "40000", "--debug-paper-t"], capsys)
        assert code == 1
        assert "FAIL zero-rate complement, cooperative jamming" in out


class TestSweepCommand:
    def test_csv_rows(self, capsys):
        code, out, _ = run_cli(
            [
                "sweep", "--axis", "rho_db", "--points", "0,10", "--schemes", "dt,af",
                "--trials", "20000",
            ],
            capsys,
        )
        assert code == 0
        rows = list(csv.DictReader(io.StringIO(out)))
        assert len(rows) == 4
        assert {r["scheme"] for r in rows} == {"dt", "af"}

    def test_bad_points(self, capsys):
        code, _, _ = run_cli(
            ["sweep", "--axis", "rho_db", "--points", "0,zebra"], capsys
        )
        assert code == 2


class TestPowerOptCommand:
    def test_reports_best_allocation(self, capsys):
        code, out, err = run_cli(
            ["power-opt", "--scheme", "af", "--rho-db", "10", "--trials", "20000"], capsys
        )
        assert code == 0
        rows = list(csv.DictReader(io.StringIO(out)))
        assert [r["method"] for r in rows] == ["montecarlo", "power-opt"]
        assert float(rows[1]["sop"]) <= float(rows[0]["sop"]) + 1e-12
        assert "best allocation" in err


class TestFigureCommand:
    def test_presets_cover_all_eight(self):
        assert sorted(FIGURE_PRESETS) == list(range(1, 9))

    def test_figure_three_dataset(self, tmp_path, capsys):
        out_path = tmp_path / "fig3.csv"
        code, _, _ = run_cli(
            ["figure", "3", "--trials", "20000", "--out", str(out_path)], capsys
        )
        assert code == 0
        rows = list(csv.DictReader(open(out_path)))
        methods = {r["method"] for r in rows}
        assert methods == {"analytic", "montecarlo", "asymptotic"}
        # Cooperative jamming fails at both ends of the first-hop sweep.
        cj = {
            float(r["gar_db"]): float(r["sop"])
            for r in rows
            if r["scheme"] == "cj" and r["method"] == "analytic"
        }
        xs = sorted(cj)
        assert cj[xs[0]] > 0.9 and cj[xs[-1]] > 0.9
        assert min(cj.values()) < 0.3

    def test_figure_one_crossover(self, tmp_path, capsys):
        out_path = tmp_path / "fig1.csv"
        code, _, _ = run_cli(
            ["figure", "1", "--trials", "20000", "--skip-power-opt", "--out", str(out_path)],
            capsys,
        )
        assert code == 0
        rows = list(csv.DictReader(open(out_path)))
        af = {
            float(r["rho_db"]): float(r["sop"])
            for r in rows if r["scheme"] == "af" and r["method"] == "analytic"
        }
        cj = {
            float(r["rho_db"]): float(r["sop"])
            for r in rows if r["scheme"] == "cj" and r["method"] == "analytic"
        }
        grid = sorted(af)
        signs = [af[p] - cj[p] > 0 for p in grid]
        assert signs[0] is False and signs[-1] is True
        assert sum(1 for a, b in zip(signs, signs[1:]) if a != b) == 1
        # Past the crossover the jamming curve keeps falling.
        after = [cj[p] for p in grid if af[p] - cj[p] > 0]
        assert all(b < a for a, b in zip(after, after[1:]))

    def test_figure_reruns_byte_identical(self, tmp_path, capsys):
        a, b = tmp_path / "a.csv", tmp_path / "b.csv"
        for path in (a, b):
            code, _, _ = run_cli(
                ["figure", "2", "--trials", "10000", "--seed", "5", "--out", str(path)], capsys
            )
            assert code == 0
        assert a.read_bytes() == b.read_bytes()
