"""Command-line interface: subcommands, CSV schema, exit codes, validation."""

import ast
import contextlib
import csv
import hashlib
import inspect
import io
import os
import subprocess
import sys
import weakref
from collections import Counter
from dataclasses import replace
from pathlib import Path

import numpy as np
import pytest
from hypothesis import example, given, settings
from hypothesis import strategies as st

from relaysec import analytic, checks, cli, model, montecarlo, powerallo, specfun
from relaysec.cli import CSV_COLUMNS, FIGURE_PRESETS, main

OUT_FILE = "<out>"  # stands for a path under the test's tmp_path
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

    def test_full_array_cj_floor_ignores_trials_and_seed(self, capsys):
        argv = ["point", "--scheme", "cj", "--k", "4", "--rho-db", "60", "--gab-db", "5",
                "--grb-db", "10", "--method", "asymptotic"]
        outs = []
        for budget in (["--trials", "10"], ["--trials", "4096", "--seed", "9"]):
            code, out, err = run_cli([*argv, *budget], capsys)
            assert code == 0, err
            outs.append(out)
        assert outs[0] == outs[1]
        (row,) = csv.DictReader(io.StringIO(outs[0]))
        assert (row["method"], row["stderr"], row["trials"]) == ("asymptotic", "0", "0")
        assert float(row["sop"]) == pytest.approx(0.927610230312222, abs=1e-9)


class TestExitCodes:
    def test_unsupported_analytic_combination(self, capsys):
        code, _, err = run_cli(
            ["point", "--scheme", "cj", "--mode", "full", "--k", "4", "--method", "analytic"],
            capsys,
        )
        assert code == 3
        assert "montecarlo" in err.lower()

    def test_unsupported_analytic_line_names_the_fallback(self, capsys):
        code, out, err = run_cli(
            ["point", "--scheme", "cj", "--k", "4", "--method", "analytic"], capsys
        )
        assert code == 3
        assert err == (
            "unsupported combination: no closed form exists for cj/full with K=4; "
            "use the Monte Carlo estimator (hint: rerun with --method montecarlo)\n"
        )
        assert out == ""

    def test_config_file_missing(self, capsys):
        code, _, err = run_cli(["point", "--config", "/does/not/exist"], capsys)
        assert code == 2

    @pytest.mark.parametrize("kind", ["existing-dir", "missing"])
    def test_unreadable_config_has_one_message(self, kind, tmp_path, capsys):
        cfg = tmp_path / "run.cfg"
        if kind == "existing-dir":
            cfg.mkdir()
        out_path = tmp_path / "rows.csv"
        code, out, err = run_cli(
            ["point", "--method", "analytic", "--config", str(cfg), "--out", str(out_path)], capsys
        )
        assert code == 2
        (line,) = err.splitlines()
        assert line.startswith(f"config error: config file {cfg} is unreadable: ")
        assert line.count(str(cfg)) == 1
        assert out == ""
        assert not out_path.exists()

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

    @pytest.mark.parametrize("points", ["1.5", "0", "1,2.5", "1,inf"])
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
        (["figure", "2", "--trials", "64", "--power-opt-trials", "0"], "--power-opt-trials"),
        (["figure", "1", "--trials", "64", "--skip-power-opt", "--power-opt-trials", "-3"],
         "--power-opt-trials"),
        (["figure", "1", "--trials", "64", "--rate", "1e6"], "rate"),
        (["point", "--rate", "1e308", "--method", "analytic"], "rate"),
        (["point", "--k", "1000000000", "--method", "montecarlo", "--trials", "10"], "k_antennas"),
        (["sweep", "--axis", "k_antennas", "--points", "1e12", "--trials", "10"], "k_antennas"),
        (["sweep", "--axis", "k_antennas", "--points", "1e308", "--trials", "10"], "k_antennas"),
        (["power-opt", "--trials", "64", "--grid-step", "1e-300"], "--grid-step"),
        (["power-opt", "--trials", "64", "--grid-step", "0.001"], "--grid-step"),
        (["point", "--method", "analytic", "--trials", "68719476737"], "--trials"),
        (["point", "--method", "analytic", "--workers", "65"], "--workers"),
        (["point", "--method", "analytic", "--seed", "-1"], "--seed"),
        (["point", "--method", "analytic", "--seed", "18446744073709551616"], "--seed"),
    ])
    def test_bad_value_names_its_flag(self, argv, flag, capsys):
        code, out, err = run_cli(argv, capsys)
        assert code == 2
        assert err.startswith("config error:") and flag in err
        assert out == ""

    @pytest.mark.parametrize("command", [
        ["point", "--method", "analytic"],
        ["sweep", "--axis", "rho_db", "--points", "0,10", "--trials", "64"],
        ["figure", "2", "--trials", "64", "--power-opt-trials", "64"],
        ["power-opt", "--trials", "64"],
    ], ids=lambda command: command[0])
    @pytest.mark.parametrize("bad", ["missing-dir", "existing-dir", "non-utf8-config"])
    def test_unusable_file_names_it(self, command, bad, tmp_path, capsys):
        out_dir = tmp_path / "out"
        out_dir.mkdir()
        cfg = tmp_path / "bad.cfg"
        cfg.write_bytes(b"trials = 10\xff\n")
        extra, named = {
            "missing-dir": (["--out", str(tmp_path / "missing" / "x.csv")], "--out"),
            "existing-dir": (["--out", str(out_dir)], "--out"),
            "non-utf8-config": (["--config", str(cfg), "--out", str(out_dir / "x.csv")], str(cfg)),
        }[bad]
        code, out, err = run_cli([*command, *extra], capsys)
        assert code == 2
        assert err.startswith("config error:") and named in err
        assert out == ""
        assert not (tmp_path / "missing").exists() and not any(out_dir.iterdir())

    def test_power_opt_checks_out_before_searching(self, monkeypatch, tmp_path, capsys):
        def fail(*args, **kwargs):
            raise AssertionError("searched before --out was opened")

        monkeypatch.setattr(powerallo, "minimize_sop", fail)
        code, out, err = run_cli(
            ["power-opt", "--scheme", "cj", "--out", str(tmp_path / "missing" / "x.csv")], capsys
        )
        assert code == 2
        assert err.startswith("config error:") and "--out" in err
        assert out == ""

    @pytest.mark.parametrize("unbuffered", [True, False], ids=["unbuffered", "buffered"])
    def test_closed_stdout_exits_like_sigpipe(self, unbuffered):
        # Unbuffered, the header arrives first and the pipe closes before
        # the first row; buffered, the pipe closes before the final flush.
        env = {key: value for key, value in os.environ.items() if key != "PYTHONUNBUFFERED"}
        if unbuffered:
            env["PYTHONUNBUFFERED"] = "1"
        proc = subprocess.Popen(
            [sys.executable, "-m", "relaysec.cli", "sweep", "--axis", "rho_db",
             "--points", "0,5,10,15,20,25,30,35,40", "--schemes", "dt,af,cj", "--trials", "200000"],
            stdout=subprocess.PIPE, stderr=subprocess.PIPE, env=env,
        )
        if unbuffered:
            assert proc.stdout.readline().decode().rstrip("\n") == CSV_COLUMNS
        proc.stdout.close()
        code = proc.wait(timeout=120)
        with proc.stderr:
            err = proc.stderr.read().decode()
        assert code == 141, err
        assert "Traceback" not in err and "Exception ignored" not in err

    @pytest.mark.skipif(not os.path.isdir("/proc/self/fd"), reason="needs /proc/self/fd")
    def test_closed_stdout_leaks_no_descriptor(self):
        # Each call meets a closed pipe on stdout and points it at the null
        # device; the count of open descriptors must not grow from call to call.
        script = (
            "import os, sys\n"
            "from relaysec.cli import main\n"
            "for _ in range(2):\n"
            "    read, write = os.pipe()\n"
            "    os.close(read)\n"
            "    os.dup2(write, sys.stdout.fileno())\n"
            "    os.close(write)\n"
            "    code = main(['point', '--method', 'analytic'])\n"
            "    print(code, len(os.listdir('/proc/self/fd')), file=sys.stderr)\n"
        )
        proc = subprocess.run([sys.executable, "-c", script], capture_output=True, text=True, timeout=120)
        assert proc.returncode == 0, proc.stderr
        first, second = (line.split() for line in proc.stderr.splitlines() if line[:1].isdigit())
        assert first[0] == second[0] == "141"
        assert first[1] == second[1]

    def test_failure_inside_the_search_is_not_blamed_on_the_grid_step(self, monkeypatch):
        def fail(*args, **kwargs):
            raise ValueError("planted")

        monkeypatch.setattr(powerallo, "estimate_sop_many", fail)
        with pytest.raises(ValueError, match="planted"):
            main(["power-opt", "--trials", "64"])

    @pytest.mark.parametrize("argv", [
        ["figure", "1", "--k", "6"],
        ["validate", "--k", "0"],
        *(["point", "--scheme", "af", "--method", method, "--limit", "cj_high_snr"]
          for method in ("analytic", "montecarlo", "both")),
    ])
    def test_unread_flag_is_rejected(self, argv, tmp_path, capsys):
        with pytest.raises(SystemExit) as exc:
            main(argv)
        assert exc.value.code == 2
        assert argv[-2] in capsys.readouterr().err
        cfg = tmp_path / "run.cfg"
        cfg.write_text(f"{argv[-2][2:]} = {argv[-1]}\n")
        with pytest.raises(SystemExit) as exc:
            main([*argv[:-2], "--config", str(cfg)])
        assert exc.value.code == 2

    @pytest.mark.parametrize("argv,where", [
        (["point", "--scheme", "cj", "--method", "analytic", "--rho-db", "30.88", "--gab-db", "6.73",
          "--gar-db", "-19.36", "--grb-db", "39.34", "--rate", "2.73"],
         "cj/full K=1 rho_db=30.88 gab_db=6.73 gar_db=-19.36 grb_db=39.34 rate=2.73"),
        (["figure", "1", "--trials", "64", "--skip-power-opt"],
         "cj/full K=1 rho_db=0 gab_db=0 gar_db=0 grb_db=5 rate=0.1"),
        # With --out, the error leaves no file: the closed forms of every
        # point are evaluated before the CSV header is written.
        (["figure", "1", "--trials", "64", "--skip-power-opt", "--out", OUT_FILE],
         "cj/full K=1 rho_db=0 gab_db=0 gar_db=0 grb_db=5 rate=0.1"),
        (["figure", "2", "--trials", "64", "--out", OUT_FILE],
         "cj/full K=1 rho_db=15 gab_db=5 gar_db=0 grb_db=-10 rate=0.1"),
        (["point", "--scheme", "af", "--k", "4", "--method", "both", "--out", OUT_FILE],
         "af/full K=4 rho_db=20 gab_db=0 gar_db=0 grb_db=5 rate=0.1"),
    ])
    def test_quadrature_failure_exits_four(self, argv, where, monkeypatch, capsys, tmp_path):
        def fail(*args, **kwargs):
            raise specfun.ConvergenceError("tolerance not met")

        out = tmp_path / "rows.csv"
        argv = [str(out) if arg == OUT_FILE else arg for arg in argv]
        monkeypatch.setattr(specfun, "integrate_semi_infinite", fail)
        code, _, err = run_cli(argv, capsys)
        assert code == 4
        assert err.splitlines()[-1] == f"numerical error: {where}: tolerance not met"
        assert "Traceback" not in err
        assert not out.exists()

    @pytest.mark.parametrize("argv", [
        ["figure", "2", "--trials", "64", "--rate", "0"],
        ["figure", "5", "--trials", "64", "--rate", "0"],
        ["point", "--scheme", "cj", "--method", "asymptotic", "--limit", "cj_strong_second_hop",
         "--rate", "0"],
    ])
    def test_zero_rate_strong_second_hop_limit(self, argv, capsys):
        code, out, err = run_cli(argv, capsys)
        assert code == 0, err
        rows = [r for r in csv.DictReader(io.StringIO(out)) if r["method"] == "asymptotic"]
        cj = [float(r["sop"]) for r in rows if r["scheme"] == "cj"]
        assert cj and all(sop == 0.0 for sop in cj)

    @pytest.mark.parametrize("argv", [
        ["--scheme", "dt", "--k", "4"],
        ["--scheme", "af", "--k", "4"],
        ["--scheme", "af", "--k", "4", "--mode", "select-csi", "--limit", "af_high_snr"],
        ["--scheme", "dt", "--k", "4", "--limit", "cj_high_snr"],
        ["--scheme", "af", "--limit", "af_high_snr_printed"],
    ])
    def test_limit_that_does_not_describe_the_variant_exits_three(self, argv, tmp_path, capsys):
        out_path = tmp_path / "rows.csv"
        code, out, err = run_cli(
            ["point", *argv, "--rho-db", "60", "--method", "asymptotic", "--out", str(out_path)],
            capsys,
        )
        assert code == 3
        assert err.startswith("unsupported combination:") and "montecarlo" in err
        assert out == ""
        assert not out_path.exists()

    @pytest.mark.parametrize("scheme", ["dt", "af"])
    def test_single_antenna_limit_holds_in_every_mode(self, scheme, capsys):
        rows = []
        for mode in ("full", "select-csi"):
            code, out, err = run_cli(
                ["point", "--scheme", scheme, "--mode", mode, "--method", "asymptotic"], capsys
            )
            assert code == 0, err
            rows.append(out.splitlines()[1].split(",")[2:])
        assert rows[0] == rows[1]

    def test_failed_pass_closes_the_out_file(self, monkeypatch, tmp_path, capsys):
        opened = []

        def spy_open(*args, **kwargs):
            opened.append(open(*args, **kwargs))
            return opened[-1]

        def fail(*args, **kwargs):
            raise RuntimeError("simulation failed")

        monkeypatch.setattr(cli, "open", spy_open, raising=False)
        monkeypatch.setattr(cli, "estimate_sop_many", fail)
        with pytest.raises(RuntimeError, match="simulation failed"):
            main(["figure", "2", "--trials", "64", "--out", str(tmp_path / "rows.csv")])
        assert len(opened) == 1 and opened[0].closed
        assert (tmp_path / "rows.csv").read_text() == CSV_COLUMNS + "\n"

    @pytest.mark.parametrize("scheme,mode", [
        ("af", "select-csi"), ("af", "select-nocsi"), ("dt", "select-csi"),
    ])
    def test_selection_at_the_largest_rates(self, scheme, mode, capsys):
        # The selection transform's argument nears the float range here; its
        # lgamma form overflowed into a traceback.
        for rate in ("511", "511.99"):
            code, out, err = run_cli(
                ["point", "--scheme", scheme, "--mode", mode, "--k", "4", "--rate", rate,
                 "--method", "analytic"], capsys,
            )
            assert code == 0, err
            assert float(out.splitlines()[1].split(",")[9]) == 1.0

    @pytest.mark.parametrize("mode,k", [("full", "1"), ("select-nocsi", "4")])
    def test_cooperative_jamming_above_rate_256(self, mode, k, capsys):
        # The jamming threshold's squared rate term overflowed above R = 256,
        # and the quadrature from an infinite threshold ended in exit 4.
        code, out, err = run_cli(
            ["point", "--scheme", "cj", "--mode", mode, "--k", k, "--rate", "300",
             "--method", "analytic"], capsys,
        )
        assert code == 0, err
        assert float(out.splitlines()[1].split(",")[9]) == 1.0

    def test_selection_beyond_64_antennas(self, capsys):
        code, out, _ = run_cli(
            ["point", "--k", "65", "--mode", "select-csi", "--method", "analytic"], capsys
        )
        assert code == 0
        assert 0.0 <= float(out.strip().splitlines()[1].split(",")[9]) <= 1.0


def _numbers(values):
    """A flag's value: a drawn one, or one time in four a value outside every domain."""
    extreme = st.sampled_from(("0", "-1", "-1e308", "nan", "inf", "-inf", "1e308"))
    return st.one_of(values.map(str), values.map(str), values.map(str), extreme)


_POINT_FLAGS = {
    "--scheme": st.sampled_from(("dt", "af", "cj")),
    "--mode": st.sampled_from(("full", "select-csi", "select-nocsi")),
    "--method": st.sampled_from(("analytic", "montecarlo", "asymptotic", "both")),
    "--k": _numbers(st.one_of(st.integers(1, 16), st.just(10**9))),
    "--rate": _numbers(st.one_of(st.floats(0.0, 511.99), st.sampled_from((511.0, 511.99)))),
    "--seed": _numbers(st.integers(-(2**70), 2**70)),
    "--workers": _numbers(st.integers(1, 2)),
    **{flag: _numbers(st.floats(-80.0, 80.0))
       for flag in ("--rho-db", "--gab-db", "--gar-db", "--grb-db")},
}


class TestPointArgvGate:
    """Every argv of ``point`` ends in an exit code of the contract, 0 for
    rows, 2 for a bad input, 3 for an unsupported variant and 4 for a
    missed quadrature tolerance, and never in a traceback."""

    @settings(derandomize=True, max_examples=250, deadline=None)
    # Every run names its trials: the default budget of 10^6 would take
    # seconds.  A --limit goes with --method asymptotic, the one method that
    # reads it, so that most runs get past the parser.
    @given(st.one_of(
        st.fixed_dictionaries({"--trials": _numbers(st.integers(1, 300))}, optional=_POINT_FLAGS),
        st.fixed_dictionaries(
            {"--trials": _numbers(st.integers(1, 300)), "--method": st.just("asymptotic")},
            optional={
                **{flag: value for flag, value in _POINT_FLAGS.items() if flag != "--method"},
                "--limit": st.sampled_from((*analytic.LIMIT_VARIANTS, "no_such_limit")),
            },
        ),
    ))
    @example({"--trials": "1", "--scheme": "af", "--mode": "select-csi", "--k": "4",
              "--rate": "511", "--method": "analytic"})
    @example({"--trials": "1", "--scheme": "af", "--mode": "select-nocsi", "--k": "4",
              "--rate": "511", "--method": "analytic"})
    @example({"--trials": "1", "--rate": "511.0", "--gar-db": "7.0"})
    # A quadrature node next to u = 1 rounded to it and divided by zero.
    @example({"--trials": "1", "--scheme": "cj", "--mode": "select-nocsi", "--k": "2",
              "--gab-db": "0", "--gar-db": "0", "--grb-db": "130", "--rho-db": "150",
              "--rate": "30", "--method": "analytic"})
    def test_every_argv_exits_by_the_contract(self, flags):
        argv = ["point", *(part for flag, value in flags.items() for part in (flag, value))]
        assert _exit_code(argv) in (0, 2, 3, 4), argv


def _exit_code(argv) -> int:
    with contextlib.redirect_stdout(io.StringIO()), contextlib.redirect_stderr(io.StringIO()):
        try:
            return main(argv)
        except SystemExit as exc:  # argparse's own exit for a malformed flag
            return exc.code


# The link and run flags of ``point`` without its --method, and every run
# names at most 300 trials.
_LINK_FLAGS = {flag: value for flag, value in _POINT_FLAGS.items() if flag != "--method"}
_TRIALS = {"--trials": _numbers(st.integers(1, 300))}


def _axis_points(axis: str):
    """A --points list of one to three values on ``axis``."""
    value = st.integers(1, 16) if axis == "k_antennas" else st.floats(-80.0, 80.0)
    return st.lists(_numbers(value), min_size=1, max_size=3).map(",".join)


class TestSweepAndPowerOptArgvGate:
    """The argv gate of ``point``, for ``sweep`` and ``power-opt``.  Values
    are attached with ``=``, so that a negative one reads as a value."""

    @settings(derandomize=True, max_examples=100, deadline=None)
    @given(st.sampled_from(sorted(cli.SWEEP_AXES)).flatmap(lambda axis: st.fixed_dictionaries(
        {**_TRIALS, "--axis": st.just(axis), "--points": _axis_points(axis)},
        optional={**_LINK_FLAGS, "--schemes": st.lists(st.sampled_from(
            ("dt", "af", "cj", "dt:select-csi", "af:select-nocsi", "cj:select-csi", "dt:select-nocsi")
        ), min_size=1, max_size=3).map(",".join)},
    )))
    @example({"--trials": "10", "--axis": "k_antennas", "--points": "1e12"})
    @example({"--trials": "10", "--axis": "k_antennas", "--points": "4,1e308"})
    def test_every_sweep_argv_exits_by_the_contract(self, flags):
        argv = ["sweep", *(f"{flag}={value}" for flag, value in flags.items())]
        assert _exit_code(argv) in (0, 2, 3, 4), argv

    @settings(derandomize=True, max_examples=60, deadline=None)
    @given(st.fixed_dictionaries(_TRIALS, optional={
        **_LINK_FLAGS,
        "--grid-step": _numbers(st.floats(0.05, 0.5)),
        "--constraint": st.sampled_from(("per-node", "total")),
    }))
    @example({"--trials": "10", "--scheme": "cj", "--grid-step": "1e-300"})
    @example({"--trials": "10", "--scheme": "cj", "--grid-step": "0.001"})
    @example({"--trials": "10", "--scheme": "cj", "--grid-step": "1e308"})
    def test_every_power_opt_argv_exits_by_the_contract(self, flags):
        argv = ["power-opt", *(f"{flag}={value}" for flag, value in flags.items())]
        assert _exit_code(argv) in (0, 2, 3, 4), argv


class TestFigureArgvGate:
    """The argv gate of ``point``, for ``figure``, with its files: ``--out``
    is a fresh file, a file in a missing directory or an existing
    directory, and ``--config`` a valid or a non-UTF-8 file.  A run that
    does not exit 0 leaves no CSV behind."""

    @pytest.fixture(scope="class")
    def files(self, tmp_path_factory):
        root = tmp_path_factory.mktemp("figure-gate")
        (root / "valid.cfg").write_text("seed = 7\n")
        (root / "non-utf8.cfg").write_bytes(b"trials = 10\xff\n")
        return root

    @settings(derandomize=True, max_examples=100, deadline=None)
    @given(st.fixed_dictionaries(
        {**_TRIALS, "figure_id": st.sampled_from(sorted(FIGURE_PRESETS))},
        optional={
            "--power-opt-trials": _numbers(st.integers(1, 300)),
            "--skip-power-opt": st.none(),
            "--rate": _numbers(st.one_of(st.floats(0.0, 511.99), st.sampled_from((0.0, 511.99)))),
            "--seed": _POINT_FLAGS["--seed"],
            "--workers": _POINT_FLAGS["--workers"],
            "--out": st.sampled_from(("fresh.csv", "missing/rows.csv", ".")),
            "--config": st.sampled_from(("valid.cfg", "non-utf8.cfg")),
        },
    ))
    @example({"--trials": "10", "figure_id": 1, "--out": "missing/rows.csv"})
    def test_every_figure_argv_exits_by_the_contract(self, files, flags):
        (files / "fresh.csv").unlink(missing_ok=True)
        argv = ["figure", str(flags["figure_id"])]
        for flag, value in flags.items():
            if flag != "figure_id":
                value = str(files / value) if flag in ("--out", "--config") else value
                argv.append(flag if value is None else f"{flag}={value}")
        code = _exit_code(argv)
        assert code in (0, 2, 3, 4), argv
        assert code == 0 or not (files / "fresh.csv").exists(), argv


class TestImports:
    def test_cli_does_not_load_mpmath(self):
        proc = subprocess.run(
            [sys.executable, "-c", "import sys, relaysec.cli; print('mpmath' in sys.modules)"],
            capture_output=True,
            text=True,
        )
        assert proc.returncode == 0, proc.stderr
        assert proc.stdout.strip() == "False"

    def test_cli_does_not_load_checks(self):
        # The suite loads only when ``validate`` runs, so no other command pays for it.
        proc = subprocess.run(
            [sys.executable, "-c", "import sys, relaysec.cli; print('relaysec.checks' in sys.modules)"],
            capture_output=True,
            text=True,
        )
        assert proc.returncode == 0, proc.stderr
        assert proc.stdout.strip() == "False"

    def test_one_chunk_run_does_not_load_thread_pool(self):
        # A pool starts only where chunks run side by side, so neither the
        # import nor a one-chunk run at --workers 4 loads concurrent.futures.
        script = (
            "import os, sys, relaysec.cli\n"
            "print('concurrent.futures' in sys.modules)\n"
            "assert relaysec.cli.main(['point', '--method', 'montecarlo', '--trials', '65536',\n"
            "                          '--workers', '4', '--out', os.devnull]) == 0\n"
            "print('concurrent.futures' in sys.modules)\n"
        )
        proc = subprocess.run([sys.executable, "-c", script], capture_output=True, text=True)
        assert proc.returncode == 0, proc.stderr
        assert proc.stdout.split() == ["False", "False"]

    @staticmethod
    def _scipy_modules_after(*argvs):
        """The scipy modules loaded by importing the CLI and running ``argvs``, as a printed list."""
        script = (
            "import os, sys, relaysec.cli\n"
            f"for argv in {[list(argv) for argv in argvs]!r}:\n"
            "    assert relaysec.cli.main([*argv, '--out', os.devnull]) == 0, argv\n"
            "print(sorted(m for m in sys.modules if m.split('.')[0] == 'scipy'))\n"
        )
        proc = subprocess.run([sys.executable, "-c", script], capture_output=True, text=True)
        assert proc.returncode == 0, proc.stderr
        return proc.stdout.strip().splitlines()[-1]

    def test_cli_does_not_load_scipy(self):
        assert self._scipy_modules_after() == "[]"

    def test_closed_forms_and_k1_asymptote_do_not_load_scipy(self):
        # One point per closed form, then a figure whose asymptote needs K1.
        points = [
            ["point", "--method", "analytic", "--scheme", scheme, "--mode", mode, "--k", k]
            for scheme, mode, k in (
                ("dt", "full", "1"), ("af", "full", "1"), ("cj", "full", "1"),
                ("dt", "full", "4"), ("dt", "select-csi", "4"), ("af", "full", "4"),
                ("af", "select-csi", "4"), ("af", "select-nocsi", "4"), ("cj", "select-nocsi", "4"),
            )
        ]
        floor = ["point", "--method", "asymptotic", "--scheme", "cj", "--k", "4"]
        assert self._scipy_modules_after(*points, floor, ["figure", "2", "--trials", "64"]) == "[]"

    @pytest.mark.parametrize("module", [analytic, specfun], ids=["analytic", "specfun"])
    def test_closed_form_layer_imports_no_simulator(self, module):
        # Checked on the source, so an import inside a function counts too.
        tree = ast.parse(Path(inspect.getfile(module)).read_text())
        imported = set()
        for node in ast.walk(tree):
            if isinstance(node, ast.Import):
                imported.update(alias.name.split(".")[-1] for alias in node.names)
            elif isinstance(node, ast.ImportFrom):
                imported.add((node.module or "").split(".")[-1])
                imported.update(alias.name for alias in node.names)
        assert not imported & {"montecarlo", "powerallo", "cli"}

    def test_simulator_leaves_block_reading_to_the_block(self):
        # How a block is read is ChannelBlock.tiles's rule, so the simulator
        # neither rebuilds feature tiles nor looks at the store's keep state.
        tree = ast.parse(Path(inspect.getfile(montecarlo)).read_text())
        imported, attributes = set(), set()
        for node in ast.walk(tree):
            if isinstance(node, (ast.Import, ast.ImportFrom)):
                imported.update(alias.name.split(".")[-1] for alias in node.names)
            elif isinstance(node, ast.Attribute):
                attributes.add(node.attr)
        assert "feature_rows" not in imported
        assert not attributes & {"kept", "_store"}


class TestTracedNames:
    # The traced benchmark wraps these by name and refuses a target that is
    # already wrapped, so a decorator on one of them fails here first.
    @pytest.mark.parametrize("module,name", [
        (model, "sample_channel_block"),
        (montecarlo, "rate_margins_block"),
        (montecarlo, "estimate_sop"),
        (montecarlo, "estimate_sop_many"),
        (powerallo, "minimize_sop"),
        (specfun, "integrate_semi_infinite"),
        *((analytic, form) for form in (
            "sop_dt_single", "sop_af_single", "sop_cj_single", "sop_dt_multi", "sop_dt_select",
            "sop_af_multi", "sop_af_select_csi", "sop_af_select_nocsi", "sop_cj_select_nocsi",
        )),
        # The tracer also patches every alias of these that a module imports.
        (cli, "estimate_sop_many"),
        (checks, "estimate_sop"),
        (checks, "estimate_sop_many"),
        (powerallo, "estimate_sop"),
        (montecarlo, "sample_channel_block"),
    ])
    def test_plain_function(self, module, name):
        fn = getattr(module, name)
        assert inspect.isfunction(fn)
        assert not hasattr(fn, "__wrapped__")

    def test_sampler_parameter_names(self):
        # The tracer binds the sampler's arguments by name to key its draws.
        assert list(inspect.signature(model.sample_channel_block).parameters) == ["k", "seed", "chunk_index", "n"]

    def test_closed_forms_call_no_public_closed_form(self):
        # The tracer counts each public closed form per call, so one that
        # calls another counts a single evaluation twice; shared bodies
        # stay private.
        tree = ast.parse(Path(inspect.getfile(analytic)).read_text())
        forms = {node.name: node for node in tree.body
                 if isinstance(node, ast.FunctionDef) and node.name.startswith("sop_")}
        named = {name: sorted({node.id for node in ast.walk(body)
                               if isinstance(node, ast.Name) and node.id in forms} - {name})
                 for name, body in forms.items()}
        assert len(forms) == 9 and not any(named.values()), named


class TestStdoutIsCsv:
    """Progress, agreement and allocation lines go to stderr: stdout holds
    the header and 14-field rows of the four methods only."""

    @pytest.mark.parametrize("argv", [
        ["point", "--method", "both", "--trials", "256"],
        ["sweep", "--axis", "rho_db", "--points", "0,10", "--schemes", "dt,af,cj", "--trials", "256"],
        ["figure", "1", "--trials", "256", "--power-opt-trials", "128"],
        ["power-opt", "--trials", "256"],
    ], ids=lambda argv: argv[0])
    def test_only_csv_rows(self, argv, capsys):
        code, out, err = run_cli(argv, capsys)
        assert code == 0, err
        header, *rows = out.splitlines()
        assert header == CSV_COLUMNS and rows
        for row in rows:
            fields = row.split(",")
            assert len(fields) == 14, row
            assert fields[8] in ("analytic", "montecarlo", "asymptotic", "power-opt"), row


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
        assert f"{len(checks.CHECKS)}/{len(checks.CHECKS)} checks passed" in out

    def test_largest_seed_runs_every_check(self, capsys):
        # The checks that draw on a seed offset wrap it past 2^64 - 1.
        code, out, _ = run_cli(["validate", "--trials", "4096", "--seed", str((1 << 64) - 1)], capsys)
        assert code == 0
        assert f"{len(checks.CHECKS)}/{len(checks.CHECKS)} checks passed" in out

    def test_failing_check_exits_one(self, monkeypatch, capsys):
        failing = checks.Check("always fails", lambda mc: (False, "forced"))
        monkeypatch.setattr(checks, "CHECKS", (*checks.CHECKS, failing))
        n = len(checks.CHECKS)
        code, out, _ = run_cli(["validate", "--trials", "4096"], capsys)
        assert code == 1
        assert "FAIL always fails: forced" in out
        assert f"{n - 1}/{n} checks passed" in out

    def test_numerical_error_exits_four(self, monkeypatch, capsys):
        def fail(mc):
            raise specfun.ConvergenceError("tolerance not met")

        before, after = checks.CHECKS[:2], checks.CHECKS[2:]
        monkeypatch.setattr(checks, "CHECKS", (*before, checks.Check("planted quadrature", fail), *after))
        code, out, err = run_cli(["validate", "--trials", "4096"], capsys)
        assert code == 4
        assert err.splitlines()[-1] == "numerical error: planted quadrature: tolerance not met"
        assert "Traceback" not in err
        lines = out.splitlines()
        assert len(lines) == len(before)
        assert all(line.startswith(f"PASS {check.name}: ") for line, check in zip(lines, before))


class TestMovedChecksCanFail:
    """Planted faults that the paper-level checks of ``validate`` catch at a small budget."""

    @staticmethod
    def _run(name: str) -> tuple[bool, str]:
        (check,) = (check for check in checks.CHECKS if check.name.startswith(name))
        return check.run(montecarlo.McConfig(trials=4096))

    def test_calibration_catches_a_shifted_closed_form(self, monkeypatch):
        assert self._run("calibration")[0]
        exact = analytic.analytic_sop
        jamming = model.SchemeId(model.Scheme.CJ)
        monkeypatch.setattr(analytic, "analytic_sop", lambda gains, params: (
            exact(gains, params) + 0.02 * (params.scheme == jamming)))
        ok, detail = self._run("calibration")
        assert not ok and "cj/full" in detail, detail

    def test_crossover_catches_jamming_equal_to_relaying(self, monkeypatch):
        assert self._run("AF and CJ outages cross")[0]
        monkeypatch.setattr(analytic, "sop_cj_single", analytic.sop_af_single)
        ok, detail = self._run("AF and CJ outages cross")
        assert not ok and "0 sign change" in detail, detail


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

    def test_total_budget_row_is_the_searched_estimate(self, capsys):
        # A search on the row budget is not settled against full power, which
        # the total constraint forbids; here full power has the lower outage.
        argv = ["--scheme", "af", "--rho-db", "5", "--trials", "4096"]
        code, out, err = run_cli(["power-opt", *argv, "--constraint", "total"], capsys)
        assert code == 0, err
        full, opt = csv.DictReader(io.StringIO(out))
        setting = cli.Setting(5.0, 0.0, 0.0, 5.0, 1)
        gains, params = setting.link(cli.DEFAULT_RATE)
        params = replace(params, scheme=model.SchemeId(model.Scheme.AF))
        _, searched = powerallo.minimize_sop(
            gains, params, montecarlo.McConfig(trials=4096), constraint="total"
        )
        assert (opt["method"], opt["sop"]) == ("power-opt", f"{searched.value:.10g}")
        assert float(full["sop"]) < searched.value


class TestFigureCommand:
    def test_presets_cover_all_eight(self):
        assert sorted(FIGURE_PRESETS) == list(range(1, 9))

    def test_power_opt_schemes_have_montecarlo_rows(self):
        # The settle step reads a searched scheme's full-power estimate from its montecarlo row.
        for preset in FIGURE_PRESETS.values():
            assert set(preset.power_opt) <= set(preset.schemes)

    def test_every_preset_closed_form_evaluates(self):
        # The figure runner writes a row for every analytic scheme and every
        # asymptote at every point; none of them may be a Monte-Carlo-only
        # variant or a limit that does not describe its scheme.
        for preset in FIGURE_PRESETS.values():
            for point in preset.points:
                gains, params = preset.base.at(preset.axis, point).link(cli.DEFAULT_RATE)
                for scheme in preset.analytic_schemes:
                    value = analytic.analytic_sop(gains, replace(params, scheme=scheme))
                    assert 0.0 <= value <= 1.0
                for scheme, selector in preset.asymptotes:
                    value = analytic.limits(gains, replace(params, scheme=scheme), selector)
                    assert 0.0 <= value <= 1.0

    @pytest.mark.parametrize("argv,ratio", [
        # Certain outage: delta and stderr are both zero.
        (["--rate", "100", "--trials", "1000"], "0.00"),
        # A frequency of 1 against a closed form below 1: no stderr to scale by.
        (["--rate", "1", "--trials", "4"], "inf"),
    ])
    def test_agreement_ratio_when_stderr_is_zero(self, argv, ratio, capsys):
        code, _, err = run_cli(["point", "--scheme", "af", "--method", "both", *argv], capsys)
        assert code == 0, err
        assert err.split("|delta|/stderr=")[1].split()[0] == ratio

    def test_agreement_line_per_point_and_scheme(self, capsys):
        code, _, err = run_cli(["figure", "2", "--trials", "64"], capsys)
        assert code == 0
        lines = [line for line in err.splitlines() if "|delta|/stderr=" in line]
        preset = FIGURE_PRESETS[2]
        assert len(lines) == len(preset.points) * len(preset.analytic_schemes)
        assert lines[0].startswith("dt/full K=1 rho_db=15 gab_db=5 gar_db=0 grb_db=-10 rate=0.1: ")

    def test_allocation_line_per_search(self, capsys):
        code, _, err = run_cli(["figure", "1", "--trials", "256", "--power-opt-trials", "128"], capsys)
        assert code == 0, err
        lines = [line for line in err.splitlines() if ": best allocation: " in line]
        preset = FIGURE_PRESETS[1]
        assert len(lines) == len(preset.points) * len(preset.power_opt) == 18
        assert lines[0].startswith("af/full K=1 rho_db=0 gab_db=0 gar_db=0 grb_db=5 rate=0.1: ")
        assert lines[-1].startswith("cj/full K=1 rho_db=40 gab_db=0 gar_db=0 grb_db=5 rate=0.1: ")

    def test_figure_three_dataset(self, tmp_path, capsys):
        out_path = tmp_path / "fig3.csv"
        code, _, _ = run_cli(
            ["figure", "3", "--trials", "20000", "--out", str(out_path)], capsys
        )
        assert code == 0
        rows = list(csv.DictReader(out_path.read_text().splitlines()))
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
        rows = list(csv.DictReader(out_path.read_text().splitlines()))
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
# the simulated rows are a pure function of (seed, trials) and
# must stay byte-identical across refactors of the sampling and sweep code.
GOLDEN_RUNS = [
    pytest.param(
        ["figure", "1", "--trials", "4096", "--power-opt-trials", "1024"],
        45, "bde54c7ca7fed41785e15c2348be1d626ffb3baf28062b8ca97b1bc56b072446",
        id="figure-1",
    ),
    pytest.param(
        ["figure", "6", "--trials", "4096", "--power-opt-trials", "1024"],
        40, "7c0b4f8546da4a5da99a9a058b7764abcfc63540333693cda7684cb8cdbab839",
        id="figure-6",
    ),
    pytest.param(
        ["figure", "7", "--trials", "4096", "--power-opt-trials", "1024"],
        45, "72d5135a99503068a3d23c4784c91fb4b813be1fd032cd9ed17ef66c1d6ceec0",
        id="figure-7",
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
    # Budgets of two 65,536-trial chunks: a search whose blocks are kept
    # across candidates, and an axis whose blocks are kept across points.
    pytest.param(
        ["power-opt", "--scheme", "cj", "--rho-db", "10", "--trials", "131072"],
        2, "ffcf91c206b4c1ee4875aae8dee6f123e9eedbb0a988a08b66692182ce55715d",
        id="power-opt-two-chunks",
    ),
    pytest.param(
        ["figure", "7", "--trials", "131072", "--skip-power-opt"],
        45, "b5a1443c39f875b6c3d01deb8815b008f963ccf2ed94ec0a0374e1f00cb16faf",
        id="figure-7-two-chunks",
    ),
    # Two chunks along an antenna axis and along a gain axis, and an antenna
    # axis out of order: each block is the same whichever blocks of its
    # chunk were drawn before it.
    pytest.param(
        ["figure", "8", "--trials", "131072", "--skip-power-opt"],
        80, "6fbe744984276bc94e5f85907babd946c4f9e7a5543c94e633efa87829151d43",
        id="figure-8-two-chunks",
    ),
    pytest.param(
        ["figure", "3", "--trials", "131072"],
        45, "13a833dab484ebb1fe891289d43c1c96726e02eb4e24dfa9542b4d6c0c7d772d",
        id="figure-3-two-chunks",
    ),
    pytest.param(
        ["sweep", "--axis", "k_antennas", "--points", "4,2,6,1", "--schemes",
         "dt,af,cj,dt:select-csi,af:select-csi,af:select-nocsi,cj:select-csi,cj:select-nocsi",
         "--trials", "70000"],
        32, "929d3da80905ac11b092759798685222d8528528bf4c17d34edbddbb8f0216a0",
        id="sweep-k-out-of-order",
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


class TestDrawReuse:
    """A figure draws each chunk's normals once, and keeps a block only
    where a later pass rereads it."""

    @staticmethod
    def _spy(monkeypatch):
        """Record each draw (the store's state at that moment), each distinct
        block requested, and, at each request, how many of the blocks handed
        out before are still alive."""
        draws, requested, alive, handed = [], set(), [], []
        block_rng, sample = model.block_rng, montecarlo.sample_channel_block

        def spy_rng(seed, chunk_index):
            draws.append((model._store is not None, sum(ref() is not None for ref in handed)))
            return block_rng(seed, chunk_index)

        def spy_sample(k, seed, chunk_index, n):
            requested.add((k, seed, chunk_index, n))
            alive.append(sum(ref() is not None for ref in handed))
            block = sample(k, seed, chunk_index, n)
            handed.append(weakref.ref(block))
            return block

        monkeypatch.setattr(model, "block_rng", spy_rng)
        monkeypatch.setattr(montecarlo, "sample_channel_block", spy_sample)
        return draws, requested, alive

    def test_figure_one_draws_each_block_once(self, monkeypatch, capsys):
        draws, requested, _ = self._spy(monkeypatch)
        builds, build = [], model._Stream.block

        def spy_build(stream, k):
            builds.append(stream.key[1:])
            return build(stream, k)

        monkeypatch.setattr(model._Stream, "block", spy_build)
        code, _, err = run_cli(["figure", "1", "--trials", "131072", "--power-opt-trials", "70000"], capsys)
        assert code == 0, err
        # Two chunks for the rows, two for the search; chunk 0 is common to both.
        chunks = [(0, 65536), (1, 4464), (1, 65536)]
        assert sorted(key[2:] for key in requested) == chunks
        assert len(draws) == len(requested)
        assert all(scoped for scoped, _ in draws)
        # Each stream is asked for one block throughout: the first request
        # builds it, the second builds it again and keeps it, and every later
        # one reads the kept block.
        assert sorted(builds) == sorted(2 * chunks)

    def test_store_counts_the_bytes_it_holds(self, capsys):
        interval = sys.getswitchinterval()
        sys.setswitchinterval(1e-5)  # switch chunk threads often, to expose a lost update
        try:
            with model.block_scope():  # the figure's scope joins this one
                store = model._store
                code, _, err = run_cli(["figure", "7", "--trials", "200000", "--skip-power-opt",
                                        "--workers", "4"], capsys)
                streams = list(store.streams.values())
                kept = [stream.kept for stream in streams if stream.kept is not None]
                held = store.nbytes
        finally:
            sys.setswitchinterval(interval)
        assert code == 0, err
        assert len(kept) == len(streams) == 4
        normals = sum(segment.nbytes for stream in streams for segment in stream._segments)
        # A kept block owns its transmit picks and features; its h_ab is a
        # view of the stream's normals, counted with them.
        for stream, block in zip(streams, kept):
            assert np.shares_memory(block.h_ab, stream._segments[0])
        assert held == normals + sum(
            block.tx_pick.nbytes + sum(value.nbytes for value in block._memo.values()) for block in kept
        )

    def test_gains_axis_makes_one_feature_pass_per_chunk(self, monkeypatch, capsys):
        evaluations, draws = Counter(), []

        def counted(name, formula):
            def evaluate(get):
                evaluations[name] += 1
                return formula(get)
            return evaluate

        def spy_rng(seed, chunk_index, block_rng=model.block_rng):
            draws.append(chunk_index)
            return block_rng(seed, chunk_index)

        monkeypatch.setattr(model, "_FORMULAS", {name: counted(name, f) for name, f in model._FORMULAS.items()})
        monkeypatch.setattr(model, "block_rng", spy_rng)
        code, _, err = run_cli(["figure", "3", "--trials", "131072", "--workers", "1"], capsys)
        assert code == 0, err
        # Fifteen gains at K = 1 read one block per chunk.  Its features are
        # computed on its first request and again on its second, which keeps
        # it for the other thirteen points: two passes of four tiles a chunk.
        chunks, tiles = 2, 65536 // (model.FEATURE_TILE_BYTES // 16)
        assert evaluations["g_ab"] > 0
        assert max(evaluations.values()) <= 2 * chunks * tiles
        assert sorted(draws) == [0, 1]

    def test_figure_eight_keeps_no_block(self, monkeypatch, capsys):
        draws, requested, alive = self._spy(monkeypatch)
        code, _, err = run_cli(["figure", "8", "--skip-power-opt", "--trials", "131072"], capsys)
        assert code == 0, err
        # Each chunk's normals are drawn once, at K = 1, and serve every K.
        assert len(requested) == 20
        assert draws == [(True, 0)] * 2
        # K changes at every point, so no block is asked for twice and none
        # is kept: no block is alive when the next one is asked for.
        assert alive == [0] * 20

    def test_figure_eight_beyond_the_bound_draws_each_chunk_once(self, monkeypatch, tmp_path, capsys):
        argv = ["figure", "8", "--skip-power-opt", "--trials", "200000"]
        unbounded = tmp_path / "unbounded.csv"
        code, _, err = run_cli([*argv, "--workers", "1", "--out", str(unbounded)], capsys)
        assert code == 0, err
        # Room for two K = 10 streams of the four the run reads: each stream
        # stops growing at the first K that does not fit and keeps its head.
        bound = 2 * model._Stream.nbytes(65536, 10)
        monkeypatch.setattr(model, "BLOCK_STORE_BYTES", bound)
        sample = model.sample_channel_block
        for workers in ("1", "4"):
            draws, held = [], []

            def spy_sample(k, seed, chunk_index, n):
                block = sample(k, seed, chunk_index, n)
                held.append(model._store.nbytes)
                return block

            def spy_rng(seed, chunk_index, block_rng=model.block_rng):
                draws.append(chunk_index)
                return block_rng(seed, chunk_index)

            with monkeypatch.context() as patch:
                patch.setattr(montecarlo, "sample_channel_block", spy_sample)
                patch.setattr(model, "block_rng", spy_rng)
                out = tmp_path / f"workers-{workers}.csv"
                code, _, err = run_cli([*argv, "--workers", workers, "--out", str(out)], capsys)
            assert code == 0, err
            assert sorted(draws) == [0, 1, 2, 3]
            assert len(held) == 40 and max(held) <= bound
            assert out.read_bytes() == unbounded.read_bytes()

    def test_power_opt_draws_each_chunk_once(self, monkeypatch, capsys):
        draws, _, _ = self._spy(monkeypatch)
        code, _, err = run_cli(["power-opt", "--scheme", "cj", "--trials", "131072"], capsys)
        assert code == 0, err
        # The search and the rows after it read the same two chunks.
        assert draws == [(True, 0)] * 2

    @pytest.mark.parametrize("argv", [
        ["point", "--scheme", "af", "--mode", "select-csi", "--k", "10", "--method", "montecarlo"],
        ["sweep", "--axis", "rho_db", "--points", "10", "--schemes", "dt,af,cj"],
    ])
    def test_lone_point_keeps_nothing(self, argv, monkeypatch, capsys):
        draws, requested, alive = self._spy(monkeypatch)
        code, _, err = run_cli([*argv, "--trials", "131072"], capsys)
        assert code == 0, err
        # Nothing rereads the chunks, so no scope holds their normals.
        assert len(requested) == 2
        assert draws == [(False, 0)] * 2 and alive == [0, 0]

    def test_workers_do_not_change_the_csv(self, tmp_path, capsys):
        self._assert_workers_agree(["figure", "1", "--trials", "262144", "--power-opt-trials", "70000"],
                                   tmp_path, capsys)

    def test_workers_do_not_change_figure_eight(self, tmp_path, capsys):
        # Four chunk threads grow four streams of normals at once.
        self._assert_workers_agree(["figure", "8", "--trials", "200000", "--skip-power-opt"],
                                   tmp_path, capsys)

    @staticmethod
    def _assert_workers_agree(argv, tmp_path, capsys):
        outputs = []
        for workers in ("1", "4"):
            out = tmp_path / f"workers-{workers}.csv"
            code, _, err = run_cli([*argv, "--workers", workers, "--out", str(out)], capsys)
            assert code == 0, err
            outputs.append(out.read_bytes())
        assert outputs[0] == outputs[1]


class TestBenchmarkBindings:
    """The benchmark (perfbench) counts draws and margins by wrapping
    ``sample_channel_block`` and ``rate_margins_block`` where the program
    looks them up, in ``montecarlo``'s namespace; a run that bypassed them
    would escape its counts and fail the benchmark's self-test."""

    def test_power_searches_draw_and_score_through_the_traced_names(self, monkeypatch, capsys):
        keys, margins = [], []
        sample, margins_of = montecarlo.sample_channel_block, montecarlo.rate_margins_block

        def spy_sample(k, seed, chunk_index, n):
            keys.append((k, seed, chunk_index, n))
            return sample(k, seed, chunk_index, n)

        def spy_margins(block, gains, params):
            margins.append(params)
            return margins_of(block, gains, params)

        monkeypatch.setattr(montecarlo, "sample_channel_block", spy_sample)
        monkeypatch.setattr(montecarlo, "rate_margins_block", spy_margins)
        argv = ["figure", "1", "--trials", "65536", "--power-opt-trials", "8192", "--seed", "7", "--workers", "1"]
        code, out, err = run_cli(argv, capsys)
        assert code == 0, err
        # The benchmark's traced fig1-poweropt asserts this share of repeated
        # draws: every candidate of a search asks for the chunk it scores on.
        assert keys and (len(keys) - len(set(keys))) / len(keys) >= 0.99
        rows = [line for line in out.splitlines()[1:] if line.split(",")[8] == "montecarlo"]
        assert len(margins) >= len(rows) > 0
