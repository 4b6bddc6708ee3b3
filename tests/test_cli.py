"""Command-line interface: subcommands, CSV schema, exit codes, validation."""

import csv
import hashlib
import io
import subprocess
import sys

import pytest

from relaysec import cli
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

    @pytest.mark.parametrize("points", ["1.5", "0", "1,2.5"])
    def test_sweep_rejects_non_integral_antenna_counts(self, points, tmp_path, capsys):
        out_path = tmp_path / "sweep.csv"
        code, out, err = run_cli(
            ["sweep", "--axis", "k_antennas", "--points", points, "--trials", "1024",
             "--out", str(out_path)],
            capsys,
        )
        assert code == 2
        assert err.startswith("config error:")
        assert out == ""
        assert not out_path.exists()  # every point is checked before the CSV starts

    @pytest.mark.parametrize("argv,flag", [
        (["figure", "1", "--trials", "0"], "--trials"),
        (["figure", "1", "--trials", "-5"], "--trials"),
        (["figure", "1", "--trials", "64", "--power-opt-trials", "0"], "--power-opt-trials"),
        (["point", "--workers", "0", "--method", "montecarlo"], "--workers"),
        (["validate", "--trials", "0"], "--trials"),
        (["power-opt", "--trials", "64", "--grid-step", "0"], "--grid-step"),
        (["power-opt", "--trials", "64", "--grid-step", "nan"], "--grid-step"),
        (["power-opt", "--trials", "64", "--grid-step", "0.75"], "--grid-step"),
        (["sweep", "--axis", "rho_db", "--points", ","], "--points"),
        (["point", "--rho-db", "1e308"], "rho_db"),
        (["sweep", "--axis", "gar_db", "--points", "0,1e308", "--trials", "64"], "gar_db"),
    ])
    def test_bad_value_names_its_flag(self, argv, flag, capsys):
        code, out, err = run_cli(argv, capsys)
        assert code == 2
        assert err.startswith("config error:") and flag in err
        assert out == ""

    @pytest.mark.parametrize("argv", [["figure", "1", "--k", "6"], ["validate", "--k", "0"]])
    def test_unread_flag_is_rejected(self, argv, tmp_path, capsys):
        with pytest.raises(SystemExit) as exc:
            main(argv)
        assert exc.value.code == 2
        cfg = tmp_path / "run.cfg"
        cfg.write_text(f"k = {argv[-1]}\n")
        with pytest.raises(SystemExit) as exc:
            main([*argv[:-2], "--config", str(cfg)])
        assert exc.value.code == 2

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
        assert "PASS paper erratum: printed CJ threshold constant" in out
        assert "PASS paper erratum: printed high-SNR AF limit" in out
        assert f"{len(cli.CHECKS)}/{len(cli.CHECKS)} checks passed" in out

    def test_failing_check_exits_one(self, monkeypatch, capsys):
        failing = cli.Check("always fails", lambda mc: (False, "forced"))
        monkeypatch.setattr(cli, "CHECKS", (*cli.CHECKS, failing))
        n = len(cli.CHECKS)
        code, out, _ = run_cli(["validate", "--trials", "4096"], capsys)
        assert code == 1
        assert "FAIL always fails: forced" in out
        assert f"{n - 1}/{n} checks passed" in out


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


# sha256 of the montecarlo and power-opt rows, in output order.  Analytic and
# asymptotic rows are left out so that closed-form fixes do not move them;
# the simulated rows are a pure function of (seed, trials, chunk_size) and
# must stay byte-identical across refactors of the sampling and sweep code.
GOLDEN_RUNS = [
    pytest.param(
        ["figure", "1", "--trials", "4096", "--power-opt-trials", "1024"],
        45, "bde54c7ca7fed41785e15c2348be1d626ffb3baf28062b8ca97b1bc56b072446",
        id="figure-1",
    ),
    pytest.param(
        ["figure", "8", "--trials", "4096", "--skip-power-opt"],
        80, "5d711894489ac04a704e342b7593f5e56cdd246ea94b4aa4650863a1479f71b3",
        id="figure-8",
    ),
    pytest.param(
        ["sweep", "--axis", "k_antennas", "--points", "1,2,3",
         "--schemes", "dt,af,cj:select-nocsi", "--trials", "8192"],
        9, "889660316b08bb5f1683bf26bcdccb7b0e44000d5a85ba08f3a4aebd30ad8a25",
        id="sweep-k",
    ),
    pytest.param(
        ["sweep", "--axis", "gab_and_grb_db", "--points=-3.3,0,7.77", "--gar-db", "1.7",
         "--rho-db", "13.3", "--schemes", "dt,af,cj", "--trials", "8192"],
        9, "aa57a34b0b269748e56b8136fdb33815671d3051a4e91cf593d43a67cd712ac4",
        id="sweep-joint-gain",
    ),
]


class TestGoldenDigest:
    @pytest.mark.parametrize("argv,n_rows,digest", GOLDEN_RUNS)
    def test_simulated_rows_unchanged(self, argv, n_rows, digest, capsys):
        code, out, _ = run_cli(argv, capsys)
        assert code == 0
        rows = [
            line for line in out.splitlines()[1:]
            if line.split(",")[8] in ("montecarlo", "power-opt")
        ]
        assert len(rows) == n_rows
        assert hashlib.sha256("\n".join(rows).encode()).hexdigest() == digest
