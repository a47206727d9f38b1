"""End-to-end CLI behavior: exit codes, report JSON, CSV artifacts,
determinism, the Monte-Carlo validator and the README's examples."""

import concurrent.futures
import csv
import json
import os
import re
import shlex
import subprocess
import sys

import pytest

from fblsec.bench_cli import (
    EXIT_INFEASIBLE,
    EXIT_INPUT,
    EXIT_OK,
    _VALIDATE_CHUNK,
    apply_sweep_value,
    ibl_reference_lfp,
    main,
)
from conftest import REPO_ROOT, make_scenario
from iterative_golden import (
    SWEEP_ARGV,
    SWEEP_GOLDEN_PATH,
    converge_argv,
    converge_golden_paths,
    strip_wall_time,
)


def write_scenario(tmp_path, name="sc.json", drop=(), **overrides):
    cfg = {
        "gamma_ab_db": 4.771212547196624, "gamma_ae_db": 0.0,
        "gamma_ba_db": 4.771212547196624, "gamma_be_db": 0.0,
        "d_m1": 2, "d_m2": 2, "M": 40,
        "eps_ab_max": 0.5, "eps_ba_max": 0.5, "eps_e_max": 0.5,
    }
    cfg.update(overrides)
    for key in drop:
        del cfg[key]
    path = tmp_path / name
    path.write_text(json.dumps(cfg))
    return str(path)


def run_main(capsys, argv):
    code = main(argv)
    captured = capsys.readouterr()
    return code, captured.out, captured.err


def read_csv(path):
    with open(path, newline="") as fh:
        return list(csv.DictReader(fh))


class TestSolve:
    def test_default_scenario_uses_full_budget(self, capsys,
                                               default_scenario_path):
        code, out, _ = run_main(capsys, [
            "solve", "--scenario", default_scenario_path,
            "--method", "exhaustive"])
        assert code == EXIT_OK
        report = json.loads(out)
        assert report["alloc"]["m1"] + report["alloc"]["m2"] == 1000
        assert report["status"] == "converged"

    def test_bcd_close_to_exhaustive(self, capsys, tmp_path):
        path = write_scenario(tmp_path)
        _, out_ex, _ = run_main(capsys, [
            "solve", "--scenario", path, "--method", "exhaustive"])
        _, out_bcd, _ = run_main(capsys, [
            "solve", "--scenario", path, "--method", "bcd"])
        lfp_ex = json.loads(out_ex)["lfp_final"]
        lfp_bcd = json.loads(out_bcd)["lfp_final"]
        assert abs(lfp_bcd - lfp_ex) <= 1e-3

    def test_relaxed_flag(self, capsys, tmp_path):
        path = write_scenario(tmp_path)
        code, out, _ = run_main(capsys, [
            "solve", "--scenario", path, "--method", "bcd", "--relaxed"])
        assert code == EXIT_OK
        alloc = json.loads(out)["alloc"]
        assert not float(alloc["d_r1"]).is_integer() or \
            not float(alloc["m1"]).is_integer()

    def test_relaxed_flag_leaves_the_oracle_integer(self, capsys, tmp_path):
        path = write_scenario(tmp_path)
        reports = []
        for extra in ([], ["--relaxed"]):
            code, out, _ = run_main(capsys, [
                "solve", "--scenario", path, "--method", "exhaustive", *extra])
            assert code == EXIT_OK
            reports.append(json.loads(out))
        assert reports[0]["alloc"] == reports[1]["alloc"]
        assert reports[0]["lfp_final"] == reports[1]["lfp_final"]

    def test_infeasible_exits_2(self, capsys, tmp_path):
        # eavesdropper above the legitimate receiver on the forward link
        path = write_scenario(tmp_path, gamma_ab_db=0.0, gamma_ae_db=1.0)
        code, _, _ = run_main(capsys, [
            "solve", "--scenario", path, "--method", "exhaustive"])
        assert code == EXIT_INFEASIBLE

    @pytest.mark.parametrize("method", ["bcd", "mm"])
    def test_degenerate_forward_direction_solves(self, capsys, tmp_path,
                                                 method):
        # gamma_ab = gamma_ae: the forward box is empty at most splits, so
        # the m1 search meets +inf profile values
        path = write_scenario(tmp_path, gamma_ab_db=0.0)
        reports = {}
        for m in (method, "exhaustive"):
            code, out, _ = run_main(capsys, [
                "solve", "--scenario", path, "--method", m])
            assert code == EXIT_OK
            reports[m] = json.loads(out)
        assert reports[method]["alloc"] == reports["exhaustive"]["alloc"] \
            == {"m1": 2, "m2": 38, "d_r1": 0, "d_r2": 54}
        assert reports[method]["lfp_final"] == \
            reports["exhaustive"]["lfp_final"]

    def test_malformed_json_exits_1_with_position(self, capsys, tmp_path):
        path = tmp_path / "bad.json"
        path.write_text('{"gamma_ab_db": \n 3.0,,}')
        code, _, err = run_main(capsys, [
            "solve", "--scenario", str(path), "--method", "bcd"])
        assert code == EXIT_INPUT
        assert "line" in err and "column" in err

    @pytest.mark.parametrize("field,value", [("M", 40.7), ("d_m1", 4.9),
                                             ("M", None)])
    def test_bad_scalar_field_exits_1(self, capsys, tmp_path, field, value):
        path = write_scenario(tmp_path, **{field: value})
        code, out, err = run_main(capsys, [
            "solve", "--scenario", path, "--method", "bcd"])
        assert code == EXIT_INPUT
        assert out == ""
        assert err.startswith("error: ") and field in err

    def test_null_db_field_exits_1(self, capsys, tmp_path):
        path = write_scenario(tmp_path, gamma_ab_db=None)
        code, out, err = run_main(capsys, [
            "solve", "--scenario", path, "--method", "bcd"])
        assert code == EXIT_INPUT
        assert out == ""
        assert err.startswith("error: ") and "gamma_ab_db" in err

    @pytest.mark.parametrize("geometry,fading_model,needle", [
        ({"pathloss": "abc"}, "real_normal", "geometry_ab.pathloss"),
        ({}, "rician", "rician"),
    ])
    def test_bad_geometry_link_exits_1(self, capsys, tmp_path, geometry,
                                       fading_model, needle):
        path = write_scenario(
            tmp_path, drop=("gamma_ab_db",), fading_model=fading_model,
            geometry_ab={"pathloss": 2.0, "noise_power": 1.0,
                         "tx_power": 1.0, "fading_seed": 7, **geometry})
        code, out, err = run_main(capsys, [
            "solve", "--scenario", path, "--method", "bcd"])
        assert code == EXIT_INPUT
        assert out == ""
        assert err.startswith("error: ") and needle in err

    def test_missing_file_exits_1(self, capsys, tmp_path):
        code, _, err = run_main(capsys, [
            "solve", "--scenario", str(tmp_path / "nope.json"),
            "--method", "bcd"])
        assert code == EXIT_INPUT

    def test_bad_flag_exits_1(self, capsys, tmp_path):
        path = write_scenario(tmp_path)
        code, _, _ = run_main(capsys, [
            "solve", "--scenario", path, "--method", "simplex"])
        assert code == EXIT_INPUT

    def test_exponent_flag_is_gone(self, capsys, tmp_path):
        # MM's step does not depend on the surrogate's exponent, so the
        # flag that chose it is a usage error
        path = write_scenario(tmp_path)
        code, out, err = run_main(capsys, [
            "solve", "--scenario", path, "--method", "mm", "--exponent", "4"])
        assert code == EXIT_INPUT
        assert out == ""
        assert err.startswith("usage: fblsec")
        assert "unrecognized arguments: --exponent 4" in err
        assert "Traceback" not in err

    def test_no_safeguard_flag_is_gone(self, capsys, tmp_path):
        # MM has no fallback left to disable
        path = write_scenario(tmp_path)
        code, out, err = run_main(capsys, [
            "solve", "--scenario", path, "--method", "mm", "--no-safeguard"])
        assert code == EXIT_INPUT
        assert out == ""
        assert err.startswith("usage: fblsec")
        assert "unrecognized arguments: --no-safeguard" in err
        assert "Traceback" not in err

    @pytest.mark.parametrize("field, value", [("gamma_ab_db", 1600),
                                              ("gamma_be_db", -3200)])
    def test_extreme_snr_exits_1_without_warnings(self, tmp_path, field,
                                                  value,
                                                  default_scenario_path):
        # 1600 dB makes V(gamma) NaN and -3200 dB (a subnormal SNR)
        # overflows M / V; both are rejected before any solve, in a
        # process with Python's default warning filters
        with open(default_scenario_path, encoding="utf-8") as fh:
            cfg = json.load(fh)
        cfg[field] = value
        path = tmp_path / "extreme.json"
        path.write_text(json.dumps(cfg))
        proc = subprocess.run(
            [sys.executable, "-m", "fblsec", "solve", "--scenario",
             str(path), "--method", "bcd"],
            capture_output=True, text=True)
        assert proc.returncode == EXIT_INPUT
        assert proc.stdout == ""
        assert proc.stderr.startswith("error: Scenario.gamma_")
        assert "out of range" in proc.stderr
        assert "Warning" not in proc.stderr and "Traceback" not in proc.stderr

    @pytest.mark.parametrize("value", [-400, -1000])
    @pytest.mark.parametrize("method", ["exhaustive", "bcd", "mm"])
    def test_vanishing_legitimate_snr_is_infeasible_without_warnings(
            self, tmp_path, value, method, default_scenario_path):
        # the legitimate margins fall below -1e19, where the oracle's cell
        # bound overflows a hazard; in a process with Python's default
        # warning filters nothing may be printed
        with open(default_scenario_path, encoding="utf-8") as fh:
            cfg = json.load(fh)
        cfg["gamma_ab_db"] = value
        path = tmp_path / "vanishing.json"
        path.write_text(json.dumps(cfg))
        proc = subprocess.run(
            [sys.executable, "-m", "fblsec", "solve", "--scenario",
             str(path), "--method", method],
            capture_output=True, text=True)
        assert proc.returncode == EXIT_INFEASIBLE
        assert proc.stderr == ""

    def test_module_entry_point(self, tmp_path):
        path = write_scenario(tmp_path)
        proc = subprocess.run(
            [sys.executable, "-m", "fblsec", "solve", "--scenario", path,
             "--method", "bcd"],
            capture_output=True, text=True)
        assert proc.returncode == EXIT_OK
        assert json.loads(proc.stdout)["status"] == "converged"


class TestConverge:
    def test_csv_structure_and_descent(self, capsys, tmp_path):
        path = write_scenario(tmp_path)
        out_csv = str(tmp_path / "trace.csv")
        code, _, _ = run_main(capsys, [
            "converge", "--scenario", path, "--methods", "bcd,mm",
            "--out", out_csv])
        assert code == EXIT_OK
        rows = read_csv(out_csv)
        methods = {r["method"] for r in rows}
        assert methods == {"exhaustive", "bcd", "mm"}
        by_method = {}
        for r in rows:
            by_method.setdefault(r["method"], []).append(
                (int(r["k"]), float(r["lfp"])))
        # benchmark series is constant
        bench = [v for _, v in sorted(by_method["exhaustive"])]
        assert len(set(bench)) == 1
        # iterative series are nonincreasing and end near the benchmark
        for m in ("bcd", "mm"):
            vals = [v for _, v in sorted(by_method[m])]
            assert all(b <= a + 1e-12 for a, b in zip(vals, vals[1:]))
            assert vals[-1] <= bench[0] + 1e-3
        # the joint scheme plateaus at least as fast
        assert max(k for k, _ in by_method["mm"]) <= \
            max(k for k, _ in by_method["bcd"])

    def test_infeasible_exits_2(self, capsys, tmp_path):
        path = write_scenario(tmp_path, gamma_ab_db=0.0, gamma_ae_db=1.0)
        code, _, _ = run_main(capsys, [
            "converge", "--scenario", path, "--methods", "bcd",
            "--out", str(tmp_path / "t.csv")])
        assert code == EXIT_INFEASIBLE

    @pytest.mark.parametrize("methods", ["bcd,exhaustive", "exhaustive",
                                         "mm,newton", "bcd,bcd", ""])
    def test_non_iterative_method_exits_1(self, capsys, tmp_path, methods):
        # the exhaustive series is written anyway; asking for it again,
        # like naming bcd twice, wrote a series twice
        path = write_scenario(tmp_path)
        out_csv = tmp_path / "trace.csv"
        code, _, err = run_main(capsys, [
            "converge", "--scenario", path, "--methods", methods,
            "--out", str(out_csv)])
        assert code == EXIT_INPUT
        if methods:
            assert "exhaustive series is always written" in err
        assert not out_csv.exists()


class TestSweep:
    def test_blocklength_sweep_trends(self, capsys, tmp_path):
        path = write_scenario(tmp_path)
        out_csv = str(tmp_path / "sweep.csv")
        code, _, _ = run_main(capsys, [
            "sweep", "--scenario", path, "--vary", "M",
            "--from", "40", "--to", "120", "--step", "20",
            "--methods", "bcd,mm", "--out", out_csv])
        assert code == EXIT_OK
        rows = read_csv(out_csv)
        assert len(rows) == 5 * 2
        for method in ("bcd", "mm"):
            vals = [(float(r["value"]), float(r["lfp"]))
                    for r in rows if r["method"] == method]
            vals.sort()
            lfps = [v for _, v in vals]
            assert all(b <= a for a, b in zip(lfps, lfps[1:]))
        # generated plot script exists and mentions the CSV
        script = out_csv.replace(".csv", "_plot.py")
        assert os.path.exists(script)
        with open(script) as fh:
            assert "sweep.csv" in fh.read()

    def test_byte_stable_rerun(self, capsys, tmp_path):
        path = write_scenario(tmp_path)
        a = str(tmp_path / "a.csv")
        b = str(tmp_path / "b.csv")
        for out in (a, b):
            run_main(capsys, [
                "sweep", "--scenario", path, "--vary", "gamma_ba_db",
                "--from", "2", "--to", "6", "--step", "2",
                "--methods", "bcd", "--out", out])
        assert strip_wall_time(a) == strip_wall_time(b)

    def test_sweep_through_degenerate_forward_direction(self, capsys,
                                                       tmp_path):
        path = write_scenario(tmp_path)
        out_csv = str(tmp_path / "deg.csv")
        code, _, _ = run_main(capsys, [
            "sweep", "--scenario", path, "--vary", "gamma_ab_db",
            "--from", "0", "--to", "2", "--step", "1",
            "--methods", "exhaustive,bcd,mm", "--out", out_csv])
        assert code == EXIT_OK
        rows = read_csv(out_csv)
        assert len(rows) == 3 * 3
        assert all(r["status"] == "converged" for r in rows)
        first = [r for r in rows if float(r["value"]) == 0.0]
        assert len({r["lfp"] for r in first}) == 1

    def test_all_infeasible_still_exits_0(self, capsys, tmp_path):
        path = write_scenario(tmp_path, gamma_ab_db=0.0, gamma_ae_db=3.0)
        out_csv = str(tmp_path / "inf.csv")
        code, _, _ = run_main(capsys, [
            "sweep", "--scenario", path, "--vary", "gamma_ba_db",
            "--from", "2", "--to", "6", "--step", "2",
            "--methods", "bcd,exhaustive", "--out", out_csv])
        assert code == EXIT_OK
        rows = read_csv(out_csv)
        assert rows and all(r["status"] == "infeasible" for r in rows)
        assert all(r["lfp"] == "" for r in rows)

    def test_bad_spec_exits_1(self, capsys, tmp_path):
        path = write_scenario(tmp_path)
        code, _, _ = run_main(capsys, [
            "sweep", "--scenario", path, "--vary", "M",
            "--from", "100", "--to", "50", "--step", "10",
            "--methods", "bcd", "--out", str(tmp_path / "x.csv")])
        assert code == EXIT_INPUT

    @pytest.mark.parametrize("vary,start,stop,step", [
        ("M", "40", "41", "1e-320"), ("gamma_ab_db", "3", "4", "5e-324")])
    def test_underflowing_step_exits_1(self, capsys, tmp_path, vary, start,
                                       stop, step):
        # the grid's point count overflows to inf: this was a traceback
        path = write_scenario(tmp_path)
        out_csv = tmp_path / "x.csv"
        code, _, err = run_main(capsys, [
            "sweep", "--scenario", path, "--vary", vary, "--from", start,
            "--to", stop, "--step", step, "--methods", "bcd",
            "--out", str(out_csv)])
        assert code == EXIT_INPUT
        assert "--step" in err
        assert not out_csv.exists()

    @pytest.mark.parametrize("methods", ["bcd,bcd", "mm,newton", ""])
    def test_bad_methods_exits_1(self, capsys, tmp_path, methods):
        # bcd,bcd solved and wrote every grid point twice
        path = write_scenario(tmp_path)
        out_csv = tmp_path / "x.csv"
        code, _, err = run_main(capsys, [
            "sweep", "--scenario", path, "--vary", "M",
            "--from", "40", "--to", "60", "--step", "10",
            "--methods", methods, "--out", str(out_csv)])
        assert code == EXIT_INPUT
        assert "--methods" in err
        assert not out_csv.exists()

    def test_solves_in_the_calling_process(self, capsys, tmp_path,
                                           monkeypatch):
        # FBLSEC_THREADS is not read: no worker pool is ever started
        def no_pool(*args, **kwargs):
            raise RuntimeError("sweep started a process pool")

        monkeypatch.setenv("FBLSEC_THREADS", "2")
        monkeypatch.setattr(concurrent.futures, "ProcessPoolExecutor", no_pool)
        path = write_scenario(tmp_path)
        out_csv = str(tmp_path / "sweep.csv")
        code, _, _ = run_main(capsys, [
            "sweep", "--scenario", path, "--vary", "M",
            "--from", "40", "--to", "70", "--step", "10",
            "--methods", "bcd", "--out", out_csv])
        assert code == EXIT_OK
        rows = read_csv(out_csv)
        assert [r["value"] for r in rows] == ["40.0", "50.0", "60.0", "70.0"]
        assert all(r["status"] == "converged" for r in rows)

    @pytest.mark.parametrize("flag, value", [
        ("--to", "inf"), ("--step", "nan"), ("--from", "-inf"),
        ("--step", "inf"), ("--to", "nan")])
    def test_non_finite_flag_exits_1(self, capsys, tmp_path, flag, value):
        # --to inf used to end in an OverflowError traceback from the
        # grid size, --step nan in a message that named no flag
        path = write_scenario(tmp_path)
        grid = {"--from": "40", "--to": "60", "--step": "10"}
        grid[flag] = value
        argv = (["sweep", "--scenario", path, "--vary", "M"]
                + [f"{f}={v}" for f, v in grid.items()]
                + ["--methods", "bcd", "--out", str(tmp_path / "x.csv")])
        code, _, err = run_main(capsys, argv)
        assert code == EXIT_INPUT
        assert f"sweep {flag} must be finite" in err
        assert not os.path.exists(tmp_path / "x.csv")

    def test_out_of_range_point_recorded_in_row(self, capsys, tmp_path):
        # a grid value that breaks scenario validity (M=1) must produce
        # an error row, not abort, and the CSV must stay parseable
        path = write_scenario(tmp_path)
        out_csv = str(tmp_path / "edge.csv")
        code, _, _ = run_main(capsys, [
            "sweep", "--scenario", path, "--vary", "M",
            "--from", "1", "--to", "41", "--step", "40",
            "--methods", "bcd", "--out", out_csv])
        assert code == EXIT_OK
        rows = read_csv(out_csv)
        assert len(rows) == 2
        assert rows[0]["status"].startswith("error(")
        assert rows[1]["status"] == "converged"


class TestGoldenSweep:
    """The default-operating-point sweep reproduces the committed CSV on
    every column except ``wall_time``: a change to any solver's results
    (allocation, last bit of the LFP, iteration or evaluation count)
    shows here.  ``tests/iterative_golden.py`` regenerates the CSV."""

    def test_matches_committed_csv(self, capsys, tmp_path):
        out_csv = str(tmp_path / "sweep.csv")
        code, _, _ = run_main(capsys, SWEEP_ARGV + ["--out", out_csv])
        assert code == EXIT_OK
        assert (strip_wall_time(out_csv)
                == strip_wall_time(SWEEP_GOLDEN_PATH))


class TestGoldenConverge:
    """BCD and MM's ``converge`` CSV of each scenario file reproduces the
    committed one byte for byte: every trace value's last bit and every
    iteration count.  ``tests/iterative_golden.py`` regenerates them."""

    @pytest.mark.parametrize("path,golden", converge_golden_paths(),
                             ids=lambda p: p.name)
    def test_matches_committed_csv(self, capsys, tmp_path, path, golden):
        out_csv = tmp_path / "converge.csv"
        code, _, _ = run_main(capsys, converge_argv(path)
                              + ["--out", str(out_csv)])
        assert code == EXIT_OK
        assert out_csv.read_bytes() == golden.read_bytes()


class TestSweepHelpers:
    def test_apply_gamma_db(self):
        sc = make_scenario()
        out = apply_sweep_value(sc, "gamma_ba_db", 10.0)
        assert out.gamma_ba == pytest.approx(10.0, rel=1e-12)
        assert out.gamma_ab == sc.gamma_ab

    def test_apply_tx_power_scales_all_links(self):
        sc = make_scenario()
        out = apply_sweep_value(sc, "tx_power", 2.0)
        assert out.gamma_ab == pytest.approx(2 * sc.gamma_ab)
        assert out.gamma_ae == pytest.approx(2 * sc.gamma_ae)
        assert out.gamma_ba == pytest.approx(2 * sc.gamma_ba)
        assert out.gamma_be == pytest.approx(2 * sc.gamma_be)

    def test_ibl_reference(self):
        assert ibl_reference_lfp(make_scenario()) == 0.0
        bad = make_scenario(gamma_ab=1.0, gamma_ae=2.0)
        assert ibl_reference_lfp(bad) == 1.0


class TestValidate:
    def test_all_half_scenario_within_band(self, capsys, tmp_path):
        # every link at capacity: all four error probabilities are 1/2
        # and the analytic failure rate is 1 - (1/2)^4 = 0.9375
        path = write_scenario(tmp_path, gamma_ab_db=4.771212547196624,
                              gamma_ae_db=4.771212547196624,
                              gamma_ba_db=4.771212547196624,
                              gamma_be_db=4.771212547196624,
                              d_m1=20, d_m2=20, M=200)
        code, out, _ = run_main(capsys, [
            "validate", "--scenario", path, "--m1", "100",
            "--dr1", "180", "--dr2", "180",
            "--trials", "1000000", "--seed", "42"])
        assert code == EXIT_OK
        res = json.loads(out)
        assert res["analytic_lfp"] == pytest.approx(0.9375, abs=1e-12)
        assert res["band_4sigma"] == pytest.approx(0.000968, abs=2e-5)
        assert res["within_band"]

    def test_deterministic_under_seed(self, capsys, tmp_path):
        path = write_scenario(tmp_path)
        args = ["validate", "--scenario", path, "--m1", "20",
                "--dr1", "26", "--dr2", "26", "--trials", "50000",
                "--seed", "9"]
        _, out1, _ = run_main(capsys, args)
        _, out2, _ = run_main(capsys, args)
        assert json.loads(out1) == json.loads(out2)

    def test_chunked_draws_match_one_draw(self, capsys, tmp_path, monkeypatch):
        # 50000 trials fit in one chunk; 777-trial chunks (the last one
        # short) must give the same JSON, bit for bit
        assert _VALIDATE_CHUNK > 50000
        path = write_scenario(tmp_path)
        args = ["validate", "--scenario", path, "--m1", "20",
                "--dr1", "26", "--dr2", "26", "--trials", "50000",
                "--seed", "9"]
        _, whole, _ = run_main(capsys, args)
        monkeypatch.setattr("fblsec.bench_cli._VALIDATE_CHUNK", 777)
        _, chunked, _ = run_main(capsys, args)
        assert 0.0 < json.loads(whole)["empirical_lfp"] < 1.0
        assert chunked == whole

    def test_extreme_margins_give_zero_failures(self, capsys, tmp_path):
        # enormous legitimate SNR, negligible eavesdropper SNR: the
        # round trip essentially cannot fail
        path = write_scenario(tmp_path, gamma_ab_db=30.0, gamma_ae_db=-30.0,
                              gamma_ba_db=30.0, gamma_be_db=-30.0,
                              d_m1=2, d_m2=2, M=400)
        code, out, _ = run_main(capsys, [
            "validate", "--scenario", path, "--m1", "200",
            "--dr1", "100", "--dr2", "100",
            "--trials", "100000", "--seed", "3"])
        assert code == EXIT_OK
        res = json.loads(out)
        assert res["analytic_lfp"] < 1e-15
        assert res["empirical_lfp"] == 0.0
        assert res["within_band"]

    @pytest.mark.parametrize("m1", ["0", "40"])
    def test_split_outside_budget_exits_1(self, capsys, tmp_path, m1):
        path = write_scenario(tmp_path)
        code, out, err = run_main(capsys, [
            "validate", "--scenario", path, "--m1", m1,
            "--dr1", "26", "--dr2", "26", "--trials", "1000", "--seed", "1"])
        assert code == EXIT_INPUT
        assert out == ""
        assert err == "error: --m1 must lie in [1, 39]\n"

    def test_too_few_trials_exits_1(self, capsys, tmp_path):
        path = write_scenario(tmp_path)
        code, _, err = run_main(capsys, [
            "validate", "--scenario", path, "--m1", "20",
            "--dr1", "26", "--dr2", "26", "--trials", "100", "--seed", "1"])
        assert code == EXIT_INPUT
        assert err == "error: --trials must be >= 1000\n"


def readme_commands():
    """The ``fblsec`` commands of the README's ``sh`` blocks, each with
    its backslash continuations joined, as argument lists."""
    text = (REPO_ROOT / "README.md").read_text(encoding="utf-8")
    commands = []
    for block in re.findall(r"^```sh\n(.*?)^```", text, re.S | re.M):
        for line in block.replace("\\\n", " ").splitlines():
            argv = shlex.split(line, comments=True)
            if argv[:1] == ["fblsec"]:
                commands.append(argv[1:])
    return commands


class TestReadme:
    def test_examples_found(self):
        assert {argv[0] for argv in readme_commands()} == {
            "solve", "converge", "sweep", "validate"}

    @pytest.mark.parametrize("argv", readme_commands(),
                             ids=lambda argv: argv[0])
    def test_cli_example_runs(self, argv, capsys, tmp_path, monkeypatch):
        # from the repo root, so the scenario paths resolve; outputs go
        # to tmp_path
        monkeypatch.chdir(REPO_ROOT)
        argv = list(argv)
        if "--out" in argv:
            i = argv.index("--out") + 1
            argv[i] = str(tmp_path / argv[i])
        code, _, err = run_main(capsys, argv)
        assert code == EXIT_OK, err
