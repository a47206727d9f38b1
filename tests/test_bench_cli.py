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
import warnings

import pytest

from fblsec.bench_cli import (
    EXIT_INFEASIBLE,
    EXIT_INPUT,
    EXIT_OK,
    _VALIDATE_CHUNK,
    SweepSpec,
    apply_sweep_value,
    ibl_reference_lfp,
    main,
)
from fblsec import DomainError, bench_cli, scenario_from_dict
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


def write_default_scenario(tmp_path, default_scenario_path, **overrides):
    """The default scenario file with ``overrides``, written to
    tmp_path."""
    with open(default_scenario_path, encoding="utf-8") as fh:
        cfg = json.load(fh)
    return write_scenario(tmp_path, **{**cfg, **overrides})


def run_main(capsys, argv):
    """The CLI run in this process: (exit code, stdout, stderr).

    Every warning is recorded, whatever the filters say, and fails the
    test.  It is not raised as an error, because the CLI could catch
    that error and still exit with the expected code.  An exception that
    escapes ``main`` fails the test as it is."""
    with warnings.catch_warnings(record=True) as caught:
        warnings.simplefilter("always")
        code = main(argv)
    captured = capsys.readouterr()
    assert not caught, [f"{w.category.__name__}: {w.message}"
                        for w in caught]
    return code, captured.out, captured.err


def read_csv(path):
    with open(path, newline="") as fh:
        return list(csv.DictReader(fh))


def rejects(capsys, argv, needle):
    """The CLI's one contract for rejected input: exit code 1, nothing
    on stdout, and stderr ending in one ``error: `` line that contains
    ``needle``, the field, flag or file at fault, after at most
    argparse's usage lines.  No file is left at ``--out`` and no plot
    script beside it; ``run_main`` fails the test on a warning or an
    escaping exception."""
    code, out, err = run_main(capsys, argv)
    *usage, last = err.splitlines() or [""]
    assert code == EXIT_INPUT, err
    assert out == ""
    assert err.endswith("\n") and last.startswith("error: "), err
    assert needle in last, err
    assert all(line.startswith(("usage: fblsec", " ")) for line in usage), err
    if "--out" in argv:
        csv_path = argv[argv.index("--out") + 1]
        assert not os.path.exists(csv_path)
        assert not os.path.exists(os.path.splitext(csv_path)[0] + "_plot.py")


def geometry_ab(**fields):
    """Overrides giving link ab by a geometry with ``fields`` changed."""
    return {"geometry_ab": {"pathloss": 2.0, "noise_power": 1.0,
                            "tx_power": 1.0, "fading_seed": 7, **fields}}


# Scenario files that are input errors: (id, overrides and drop on
# ``write_scenario``'s config, needle).  Link ab given by its geometry
# drops gamma_ab_db, so that the geometry is read.
GEO = ("gamma_ab_db",)
REJECTED_SCENARIOS = [
    *[(f"geometry_ab.{field}-{value}", geometry_ab(**{field: value}), GEO,
       f"geometry_ab.{field}")
      for field, value in [
          ("fading_seed", 7.9), ("fading_seed", "seven"),
          ("fading_seed", None), ("fading_seed", float("inf")),
          ("pathloss", "abc"), ("noise_power", None), ("tx_power", [1.0]),
          ("fading_seed", True), ("pathloss", True), ("fading_seed", -1)]],
    *[(f"geometry_ab.{field}-{value}", geometry_ab(**{field: value}), GEO,
       f"geometry_ab.{field} must be finite and > 0")
      for field in ("pathloss", "noise_power", "tx_power")
      for value in (0.0, -1.0, float("inf"))],
    ("fading_model-rician", {**geometry_ab(), "fading_model": "rician"}, GEO,
     "rician"),
    ("missing-eps_e_max", {}, ("eps_e_max",), "eps_e_max"),
    ("missing-link-be", {}, ("gamma_be_db",), "gamma_be_db"),
    *[(f"{field}-{value}", {field: value}, (), needle)
      for field, value, needle in [
          ("M", 40.7, "Scenario.M must be an integer"),
          ("d_m1", 4.9, "Scenario.d_m1 must be an integer"),
          ("d_m2", 2.5, "Scenario.d_m2 must be an integer"),
          ("M", None, "field M must be a number"),
          ("eps_e_max", None, "field eps_e_max must be a number"),
          ("M", "forty", "field M must be a number"),
          ("d_m1", True, "field d_m1 must be a number"),
          # floats do not hold every integer beyond 2**53: the m1 grid's
          # last split got m2 = 0 and a "converged" LFP of 0.0
          ("M", 1e16, "Scenario.M must be <= 2**43"),
          # a 1000-bit int made the link constants an object array
          ("d_m1", 1e300, "Scenario.d_m1 must be <= 2**43"),
          ("gamma_ab_db", 1600, "Scenario.gamma_ab = 1e+160 is out of range"),
          ("gamma_be_db", -3200, "Scenario.gamma_be = 1e-320 is out of range"),
      ]],
    ("M-401-digits", {"M": 10**400}, (), "field M must be a number"),
    *[(f"gamma_ab_db-{value}", {"gamma_ab_db": value}, (), "gamma_ab_db")
      for value in (None, [3.0], {"db": 3.0}, "loud", True)],
]


@pytest.mark.parametrize(
    "overrides,drop,needle", [row[1:] for row in REJECTED_SCENARIOS],
    ids=[row[0] for row in REJECTED_SCENARIOS])
def test_rejected_scenario(capsys, tmp_path, overrides, drop, needle):
    # the library first: a file it accepts would be solved below
    path = write_scenario(tmp_path, drop=drop, **overrides)
    cfg = json.loads((tmp_path / "sc.json").read_text())
    with pytest.raises(DomainError, match=re.escape(needle)):
        scenario_from_dict(cfg)
    rejects(capsys, ["solve", "--scenario", path, "--method", "bcd"], needle)


# Command lines that are input errors: (id, argv, needle).  In argv,
# {sc} is a valid scenario file, {tmp} the test's directory, holding the
# malformed bad.json, and {out} a path there.
SWEEP = "sweep --scenario {sc} --out {out}"
VALIDATE = "validate --scenario {sc} --dr2 26"
REJECTED_FLAGS = [
    ("solve-method-simplex", "solve --scenario {sc} --method simplex",
     "argument --method: invalid choice: 'simplex'"),
    # MM's step does not depend on the surrogate's exponent, and MM has
    # no fallback left to disable
    ("solve-exponent", "solve --scenario {sc} --method mm --exponent 4",
     "unrecognized arguments: --exponent 4"),
    ("solve-no-safeguard", "solve --scenario {sc} --method mm --no-safeguard",
     "unrecognized arguments: --no-safeguard"),
    ("solve-missing-file", "solve --scenario {tmp}/nope.json --method bcd",
     "nope.json"),
    ("solve-malformed-json-line",
     "solve --scenario {tmp}/bad.json --method bcd", "line"),
    ("solve-malformed-json-column",
     "solve --scenario {tmp}/bad.json --method bcd", "column"),
    # the exhaustive series is written anyway; asking for it again, like
    # naming bcd twice, wrote a series twice
    *[(f"converge-methods-{methods or 'empty'}",
       f"converge --scenario {{sc}} --methods '{methods}' --out {{out}}",
       "exhaustive series is always written")
      for methods in ("bcd,exhaustive", "exhaustive", "mm,newton", "bcd,bcd",
                      "")],
    ("sweep-from-above-to",
     f"{SWEEP} --vary M --from 100 --to 50 --step 10 --methods bcd",
     "sweep --from must be below --to"),
    ("sweep-step-0",
     f"{SWEEP} --vary M --from 40 --to 60 --step 0 --methods bcd",
     "sweep --step must be > 0"),
    # the grid's point count overflowed to inf: this was a traceback
    ("sweep-step-1e-320",
     f"{SWEEP} --vary M --from 40 --to 41 --step 1e-320 --methods bcd",
     "--step"),
    ("sweep-step-5e-324",
     f"{SWEEP} --vary gamma_ab_db --from 3 --to 4 --step 5e-324 --methods bcd",
     "--step"),
    # a billion-point grid: a MemoryError traceback while the grid was
    # built; 10,000 points is the most a grid may hold
    ("sweep-grid-1e9-points",
     f"{SWEEP} --vary gamma_ab_db --from 0 --to 1e9 --step 1 --methods bcd",
     "sweep --step 1.0 is too small: the grid may hold at most 10000 points"),
    ("sweep-grid-10001-points",
     f"{SWEEP} --vary M --from 2 --to 10002 --step 1 --methods bcd",
     "--step"),
    # these rounded to the budgets 40, 40, 41, 42, 42 and 40, 42, 42
    ("sweep-M-half-step",
     f"{SWEEP} --vary M --from 40 --to 43 --step 0.5 --methods bcd", "--step"),
    ("sweep-M-half-start",
     f"{SWEEP} --vary M --from 40.5 --to 43 --step 1 --methods bcd", "--from"),
    # bcd,bcd solved and wrote every grid point twice
    *[(f"sweep-methods-{methods or 'empty'}",
       f"{SWEEP} --vary M --from 40 --to 60 --step 10 --methods '{methods}'",
       "--methods")
      for methods in ("bcd,bcd", "mm,newton", "")],
    # --to inf ended in an OverflowError traceback from the grid size,
    # --step nan in a message that named no flag
    *[(f"sweep{flag}={value}", f"{SWEEP} --vary M --methods bcd " + " ".join(
        f"{f}={value if f == flag else v}"
        for f, v in (("--from", 40), ("--to", 60), ("--step", 10))),
       f"sweep {flag} must be finite")
      for flag, value in [("--to", "inf"), ("--step", "nan"),
                          ("--from", "-inf"), ("--step", "inf"),
                          ("--to", "nan")]],
    ("validate-m1-0", f"{VALIDATE} --m1 0 --dr1 26",
     "error: --m1 must lie in [1, 39]"),
    ("validate-m1-40", f"{VALIDATE} --m1 40 --dr1 26",
     "error: --m1 must lie in [1, 39]"),
    ("validate-trials-100", f"{VALIDATE} --m1 20 --dr1 26 --trials 100",
     "error: --trials must be >= 1000"),
    # float() of the 401-digit int overflowed: a traceback
    ("validate-dr1-401-digits", f"{VALIDATE} --m1 20 --dr1 1{'0' * 400}",
     "--dr1 must lie in [0, "),
    ("validate-dr1-negative", f"{VALIDATE} --m1 20 --dr1 -5",
     "--dr1 must lie in [0, "),
    ("validate-seed-negative", f"{VALIDATE} --m1 20 --dr1 26 --seed -1",
     "--seed must be >= 0"),
]


@pytest.mark.parametrize("argv,needle", [row[1:] for row in REJECTED_FLAGS],
                         ids=[row[0] for row in REJECTED_FLAGS])
def test_rejected_flag(capsys, tmp_path, argv, needle):
    sc = write_scenario(tmp_path)
    (tmp_path / "bad.json").write_text('{"gamma_ab_db": \n 3.0,,}')
    rejects(capsys, [arg.format(sc=sc, tmp=tmp_path, out=tmp_path / "out.csv")
                     for arg in shlex.split(argv)], needle)


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

    @pytest.mark.parametrize("message, needle", [
        ("Unable to allocate 90.5 MiB for an array with shape (2, 5931640)",
         "Unable to allocate 90.5 MiB"),
        ("", "out of memory"),
    ])
    def test_out_of_memory_exits_1(self, capsys, tmp_path, monkeypatch,
                                   message, needle):
        # a budget near M = 2**43 under an address-space limit: this was
        # a MemoryError traceback
        def out_of_memory(scenario, config):
            raise MemoryError(message)

        monkeypatch.setitem(bench_cli._METHODS, "exhaustive", out_of_memory)
        path = write_scenario(tmp_path)
        rejects(capsys, ["solve", "--scenario", path, "--method",
                         "exhaustive"], needle)

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

    @pytest.mark.parametrize("value", [-400, -1000])
    @pytest.mark.parametrize("method", ["exhaustive", "bcd", "mm"])
    def test_vanishing_legitimate_snr_is_infeasible_without_warnings(
            self, capsys, tmp_path, value, method, default_scenario_path):
        # the legitimate margins fall below -1e19, where the oracle's cell
        # bound overflows a hazard
        path = write_default_scenario(tmp_path, default_scenario_path,
                                      gamma_ab_db=value)
        code, _, err = run_main(capsys, [
            "solve", "--scenario", path, "--method", method])
        assert code == EXIT_INFEASIBLE
        assert err == ""

    # The process boundary, probed once per exit code: ``python -m
    # fblsec`` in a process with Python's default warning filters.

    def test_module_entry_point(self, tmp_path):
        path = write_scenario(tmp_path)
        proc = subprocess.run(
            [sys.executable, "-m", "fblsec", "solve", "--scenario", path,
             "--method", "bcd"],
            capture_output=True, text=True)
        assert proc.returncode == EXIT_OK
        assert json.loads(proc.stdout)["status"] == "converged"
        assert "Warning" not in proc.stderr and "Traceback" not in proc.stderr

    def test_module_exits_1_without_warnings(self, tmp_path,
                                             default_scenario_path):
        path = write_default_scenario(tmp_path, default_scenario_path,
                                      gamma_ab_db=1600)
        proc = subprocess.run(
            [sys.executable, "-m", "fblsec", "solve", "--scenario", path,
             "--method", "bcd"],
            capture_output=True, text=True)
        assert proc.returncode == EXIT_INPUT
        assert proc.stdout == ""
        assert proc.stderr.startswith("error: Scenario.gamma_ab")
        assert "Warning" not in proc.stderr and "Traceback" not in proc.stderr

    def test_module_exits_2_without_warnings(self, tmp_path,
                                             default_scenario_path):
        path = write_default_scenario(tmp_path, default_scenario_path,
                                      gamma_ab_db=-1000)
        proc = subprocess.run(
            [sys.executable, "-m", "fblsec", "solve", "--scenario", path,
             "--method", "exhaustive"],
            capture_output=True, text=True)
        assert proc.returncode == EXIT_INFEASIBLE
        assert json.loads(proc.stdout)["status"] == "infeasible"
        assert proc.stderr == ""


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

    def test_grid_of_the_cap_is_accepted(self):
        # one point more is the sweep-grid-10001-points row
        assert len(SweepSpec("M", 2.0, 10001.0, 1.0).values()) == 10_000
        assert len(SweepSpec("gamma_ab_db", 0.0, 9.999, 1e-3).values()) \
            == 10_000


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
