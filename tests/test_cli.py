"""Command-line interface: exit codes, file formats, determinism."""

import json
import math
import os
import subprocess
import sys
import tomllib
from pathlib import Path

import numpy as np
import pytest

import gamow_lab
from gamow_lab import cli
from gamow_lab.cli import (
    EXIT_NUMERICS,
    EXIT_OK,
    EXIT_POLE_AUDIT,
    EXIT_QUADRATURE,
    EXIT_USAGE,
    _parse_times,
    main,
)
from gamow_lab.exceptions import (
    CountMismatch,
    GamowLabError,
    NoCrossing,
    QuadratureNotConverged,
    WindowTooSmall,
    WrongQuadrant,
)
from gamow_lab.potential_model import WellParameters, refine_pole


def raised_by(fn, *args):
    """The GamowLabError that fn(*args) raises."""
    with pytest.raises(GamowLabError) as info:
        fn(*args)
    return info.value


def read_csv(path):
    with open(path, "rb") as fh:
        raw = fh.read()
    assert b"\r" not in raw
    lines = raw.decode().splitlines()
    assert lines[0].startswith("# config: ")
    config = json.loads(lines[0][len("# config: "):])
    header = lines[1].split(",")
    rows = [ln.split(",") for ln in lines[2:]]
    return config, header, rows


class TestParseTimes:
    def test_geometric(self):
        t = _parse_times("1:100:25")
        assert t[0] == 1.0 and t[-1] == pytest.approx(100.0)
        assert t.size == 51

    def test_comma_list(self):
        assert np.allclose(_parse_times("0,0.5,2"), [0.0, 0.5, 2.0])

    def test_garbage_rejected(self):
        with pytest.raises(ValueError):
            _parse_times("fast")

    @pytest.mark.parametrize("spec", ["nan,1", "1,inf", "inf", "1:inf:5"])
    def test_non_finite_rejected(self, spec):
        with pytest.raises(ValueError):
            _parse_times(spec)


SRC = Path(__file__).resolve().parents[1] / "src"


@pytest.mark.parametrize("argv", [
    ["survival", "--times", "nan,1"],
    ["survival", "--times", "1,inf"],
    ["evolve", "--times", "inf", "--policy", "direct"],
    ["survival", "--times", "1:100:-5"],
], ids=["survival-nan", "survival-inf", "evolve-inf",
        "survival-negative-density"])
def test_non_finite_times_exit_usage(tmp_path, argv):
    # a separate process, so a hang fails the test instead of stalling it
    env = {**os.environ, "PYTHONPATH": str(SRC)}
    cmd = [sys.executable, "-m", "gamow_lab.cli", argv[0], "--lambda", "10",
           "--profile", "box:1", *argv[1:], "--out", str(tmp_path)]
    proc = subprocess.run(cmd, capture_output=True, text=True, env=env,
                          timeout=60)
    assert proc.returncode == EXIT_USAGE
    assert "Traceback" not in proc.stderr
    assert not (tmp_path / "survival.csv").exists()


@pytest.mark.parametrize("argv, reason", [
    (["poles", "--lambda", "inf"], "opacity"),
    (["poles", "--lambda", "30", "--kmax", "inf"], "k_max"),
    (["poles", "--lambda", "30", "--width", "inf"], "width"),
    (["evolve", "--lambda", "30", "--profile", "box:1", "--times", "1,0",
      "--policy", "rotated"], "rotated representation requires t > 0"),
    (["evolve", "--lambda", "30", "--profile", "box:1", "--times=-1,1"],
     "snapshot times must be >= 0"),
    # a value after a separate --times reaches the same checks
    (["evolve", "--lambda", "30", "--profile", "box:1", "--times", "-1,1"],
     "snapshot times must be >= 0"),
    (["survival", "--lambda", "30", "--profile", "box:1",
      "--times", "-1,1"], "times must be >= 0"),
    # two snapshots of one file name, evolve_t1 at 6 significant digits
    (["evolve", "--lambda", "10", "--profile", "box:1", "--times",
      "1.0000001,1.0000002", "--policy", "direct"],
     "share the file name evolve_t1"),
    (["evolve", "--lambda", "10", "--profile", "box:1", "--times", "1,1"],
     "share the file name evolve_t1"),
    (["survival", "--lambda", "30", "--profile", "gauss:0.5,1e-10",
      "--times", "1,2"], "profile norm"),
    # more than 2**20 poles below the cutoff, 60 a / t on the direct route
    (["poles", "--lambda", "10", "--kmax", "1e12"], "needs more than"),
    (["survival", "--lambda", "10", "--profile", "box:1",
      "--times", "1e-8,1"], "needs more than"),
], ids=["poles-lambda-inf", "poles-kmax-inf", "poles-width-inf",
        "evolve-rotated-t0-last", "evolve-negative-time",
        "evolve-negative-time-spaced", "survival-negative-time-spaced",
        "evolve-times-share-a-name", "evolve-repeated-time",
        "survival-degenerate-profile",
        "poles-kmax-past-pole-bound", "survival-t-past-pole-bound"])
def test_rejected_input_exits_usage_and_writes_nothing(tmp_path, argv,
                                                       reason):
    # a separate process, so a hang fails the test instead of stalling it
    env = {**os.environ, "PYTHONPATH": str(SRC)}
    cmd = [sys.executable, "-m", "gamow_lab.cli", *argv, "--out",
           str(tmp_path)]
    proc = subprocess.run(cmd, capture_output=True, text=True, env=env,
                          timeout=60)
    assert proc.returncode == EXIT_USAGE
    assert reason in proc.stderr
    assert "Traceback" not in proc.stderr
    assert list(tmp_path.iterdir()) == []


class TestPoles:
    def test_table_contents(self, tmp_path):
        rc = main(["poles", "--lambda", "100", "--kmax", "16",
                   "--out", str(tmp_path)])
        assert rc == EXIT_OK
        config, header, rows = read_csv(tmp_path / "poles.csv")
        assert config["lam"] == 100.0
        assert header[:3] == ["n", "re_ka", "im_ka"]
        assert len(rows) == 5
        # residuals at machine precision, widths strictly increasing
        residuals = [float(r[header.index("residual")]) for r in rows]
        assert max(residuals) < 1e-12
        gammas = [float(r[header.index("gamma")]) for r in rows]
        assert gammas == sorted(gammas)

    def test_weak_barrier_table(self, tmp_path):
        # lam = 1 is outside the metastable regime: its poles are listed,
        # each flagged
        rc = main(["poles", "--lambda", "1", "--out", str(tmp_path)])
        assert rc == EXIT_OK
        _, header, rows = read_csv(tmp_path / "poles.csv")
        assert len(rows) == 12
        assert {r[header.index("warning")] for r in rows} == {"non-metastable"}

    def test_empty_table_is_success(self, tmp_path):
        rc = main(["poles", "--lambda", "100", "--kmax", "3",
                   "--out", str(tmp_path)])
        assert rc == EXIT_OK
        _, _, rows = read_csv(tmp_path / "poles.csv")
        assert rows == []

    def test_kmax_in_units_of_inverse_width(self, tmp_path):
        # ka depends on lam alone, so the column is the same bit for bit
        # at a width that is not a power of two
        columns = []
        for width in ("1", "2", "1e7"):
            out = tmp_path / width
            rc = main(["poles", "--lambda", "100", "--kmax", "16",
                       "--width", width, "--out", str(out)])
            assert rc == EXIT_OK
            _, header, rows = read_csv(out / "poles.csv")
            columns.append([r[header.index("re_ka")] for r in rows])
        assert columns[1] == columns[0] and columns[2] == columns[0]

    def test_json_format(self, tmp_path):
        rc = main(["poles", "--lambda", "100", "--kmax", "16",
                   "--out", str(tmp_path), "--format", "json"])
        assert rc == EXIT_OK
        doc = json.loads((tmp_path / "poles.json").read_text())
        assert doc["config"]["lam"] == 100.0
        assert len(doc["rows"]) == 5

    def test_seventeen_significant_digits(self, tmp_path):
        main(["poles", "--lambda", "100", "--kmax", "16",
              "--out", str(tmp_path)])
        _, header, rows = read_csv(tmp_path / "poles.csv")
        val = rows[0][header.index("re_ka")]
        assert float(val) != float(f"{float(val):.10g}")  # not truncated


class TestEvolve:
    def test_initial_snapshot_matches_profile(self, tmp_path):
        rc = main(["evolve", "--lambda", "100", "--profile", "box:1",
                   "--times", "0", "--out", str(tmp_path)])
        assert rc == EXIT_OK
        _, header, rows = read_csv(tmp_path / "evolve_t0.csv")
        ix, ia = header.index("x"), header.index("abs2_psi")
        for r in rows:
            x, dens = float(r[ix]), float(r[ia])
            assert dens == pytest.approx(2.0 * math.sin(math.pi * x) ** 2,
                                         abs=1e-4)

    @pytest.mark.filterwarnings("ignore::RuntimeWarning")
    def test_both_policies_agree(self, tmp_path, capsys):
        rc = main(["evolve", "--lambda", "100", "--profile", "box:1",
                   "--times", "84", "--policy", "both",
                   "--out", str(tmp_path)])
        assert rc == EXIT_OK
        out = capsys.readouterr().out
        sup = float(out.split("sup-norm")[1].split(")")[0])
        assert sup < 1e-6

    def test_negative_time_rejected(self, tmp_path):
        rc = main(["evolve", "--lambda", "100", "--profile", "box:1",
                   "--times", "-1", "--out", str(tmp_path)])
        assert rc == EXIT_USAGE

    def test_bad_profile_rejected(self, tmp_path):
        rc = main(["evolve", "--lambda", "100", "--profile", "ring:1",
                   "--times", "0", "--out", str(tmp_path)])
        assert rc == EXIT_USAGE


class TestEvolveAuto:
    def test_auto_switches_at_direct_time_limit(self, tmp_path):
        rc = main(["evolve", "--lambda", "100", "--profile", "box:1",
                   "--times", "0,1", "--out", str(tmp_path)])
        assert rc == EXIT_OK
        for name, method in (("evolve_t0.csv", "direct"),
                             ("evolve_t1.csv", "rotated")):
            _, header, rows = read_csv(tmp_path / name)
            assert {r[header.index("method")] for r in rows} == {method}


class TestSurvival:
    def test_outputs(self, tmp_path):
        rc = main(["survival", "--lambda", "100", "--profile", "box:1",
                   "--times", "20,40,84", "--out", str(tmp_path)])
        assert rc == EXIT_OK
        _, header, rows = read_csv(tmp_path / "survival.csv")
        iP = header.index("P")
        Ps = [float(r[iP]) for r in rows]
        assert Ps == sorted(Ps, reverse=True)
        rep = json.loads((tmp_path / "survival_report.json").read_text())
        assert rep["gamma1_exact"] > 0.0
        assert rep["gamma_fit"] == pytest.approx(rep["gamma1_exact"],
                                                 rel=0.02)


class TestExitCodes:
    def test_short_time_pole_audit_failure(self, tmp_path):
        out = tmp_path / "out"
        rc = main(["survival", "--lambda", "10", "--profile", "box:1",
                   "--times", "0.001:0.01:5", "--out", str(out)])
        assert rc == EXIT_POLE_AUDIT
        assert not out.exists() or os.listdir(out) == []

    @pytest.mark.filterwarnings("ignore::RuntimeWarning")
    @pytest.mark.parametrize("argv", [
        ["evolve", "--times", "0.0025"],
        ["survival", "--times", "0.0025,1"],
    ], ids=["evolve", "survival"])
    def test_nan_background_is_a_quadrature_failure(self, tmp_path, argv):
        # below ~0.003 a^2 the ray integrand's factors overflow to NaN;
        # the background's gate must refuse it, not pass it on
        rc = main([argv[0], "--lambda", "10", "--profile", "box:1",
                   *argv[1:], "--policy", "rotated", "--out", str(tmp_path)])
        assert rc == EXIT_QUADRATURE
        assert os.listdir(tmp_path) == []

    @pytest.mark.parametrize("exc, code", [
        (CountMismatch("x"), EXIT_POLE_AUDIT),
        # the pole refinement's own failure: a seed on no strip
        (raised_by(refine_pole, -1.0, WellParameters(10.0)), EXIT_POLE_AUDIT),
        (WrongQuadrant("x"), EXIT_POLE_AUDIT),
        (QuadratureNotConverged("x", estimate=1.0), EXIT_QUADRATURE),
        (NoCrossing("x"), EXIT_NUMERICS),
        (WindowTooSmall("x"), EXIT_NUMERICS),
    ])
    def test_library_errors_map_to_codes(self, tmp_path, monkeypatch, exc,
                                         code):
        def fail(*args, **kwargs):
            raise exc

        monkeypatch.setattr(cli, "nonescape_curve", fail)
        rc = main(["survival", "--lambda", "10", "--profile", "box:1",
                   "--times", "1,2", "--out", str(tmp_path)])
        assert rc == code
        assert os.listdir(tmp_path) == []


class TestVersion:
    def test_matches_pyproject(self):
        root = Path(__file__).resolve().parents[1]
        with open(root / "pyproject.toml", "rb") as fh:
            version = tomllib.load(fh)["project"]["version"]
        assert gamow_lab.__version__ == version

    def test_config_echo(self, tmp_path):
        main(["poles", "--lambda", "10", "--kmax", "16",
              "--out", str(tmp_path)])
        config, _, _ = read_csv(tmp_path / "poles.csv")
        assert config["version"] == gamow_lab.__version__
        assert "threads" not in config


class TestUsageErrors:
    def test_missing_subcommand(self):
        assert main([]) == EXIT_USAGE

    def test_unknown_flag(self):
        assert main(["poles", "--lambda", "100", "--frobnicate"]) == EXIT_USAGE

    def test_missing_required(self):
        assert main(["poles"]) == EXIT_USAGE

    def test_no_kmax_where_it_does_nothing(self, tmp_path):
        assert main(["evolve", "--lambda", "100", "--profile", "box:1",
                     "--times", "1", "--kmax", "5",
                     "--out", str(tmp_path)]) == EXIT_USAGE


class TestDeterminism:
    def test_byte_identical_reruns(self, tmp_path):
        args = ["poles", "--lambda", "10", "--kmax", "16",
                "--out", str(tmp_path)]
        main(args)
        first = (tmp_path / "poles.csv").read_bytes()
        main(args)
        assert (tmp_path / "poles.csv").read_bytes() == first

    def test_no_temp_files_left(self, tmp_path):
        main(["poles", "--lambda", "10", "--kmax", "16",
              "--out", str(tmp_path)])
        assert os.listdir(tmp_path) == ["poles.csv"]
