"""Command-line interface: exit codes, file formats, determinism."""

import json
import math
import os
import subprocess
import sys
import time
import tomllib
from pathlib import Path

import numpy as np
import pytest

import gamow_lab
from gamow_lab import cli, gamow_expansion
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
from gamow_lab.profiles import box_mode


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
    # a^2, the factor of every time and rate, must be a positive normal
    # double
    (["poles", "--lambda", "30", "--width", "0"], "width"),
    (["evolve", "--lambda", "30", "--profile", "box:1", "--times", "1",
      "--width", "-1"], "width"),
    (["survival", "--lambda", "30", "--profile", "box:1", "--times", "1,2",
      "--width", "nan"], "width"),
    (["report", "--lambda", "30", "--profile", "box:1", "--width", "1e200"],
     "width"),
    (["survival", "--lambda", "30", "--profile", "box:1", "--times", "1,2",
      "--width", "1e-200"], "width"),
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
    # 2e14 phase-budget panels on the direct route
    (["evolve", "--lambda", "10", "--profile", "box:1", "--times", "1e12",
      "--policy", "direct"], "phase panels"),
], ids=["poles-lambda-inf", "poles-kmax-inf", "poles-width-inf",
        "poles-width-zero", "evolve-width-negative", "survival-width-nan",
        "report-width-1e200", "survival-width-1e-200",
        "evolve-rotated-t0-last", "evolve-negative-time",
        "evolve-negative-time-spaced", "survival-negative-time-spaced",
        "evolve-times-share-a-name", "evolve-repeated-time",
        "survival-degenerate-profile",
        "poles-kmax-past-pole-bound", "survival-t-past-pole-bound",
        "evolve-t-past-phase-panel-bound"])
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


def written(out):
    """Every file of a run, snapshots in time order, each a dict: a csv
    by column (numbers as floats), a json document without its config."""
    def order(path):
        snapshot = path.stem.startswith("evolve_t")
        return snapshot, float(path.stem[8:]) if snapshot else 0.0, path.name

    docs = []
    for path in sorted(out.iterdir(), key=order):
        if path.suffix == ".csv":
            _, header, rows = read_csv(path)
            docs.append({h: [float(r[i]) if h not in ("method", "warning")
                             else r[i] for r in rows]
                         for i, h in enumerate(header)})
        else:
            doc = json.loads(path.read_text())
            del doc["config"]
            docs.append(doc)
    return docs


def numbers(doc):
    """Every number in a list or dict of written documents, at any depth."""
    if isinstance(doc, (dict, list)):
        for v in (doc.values() if isinstance(doc, dict) else doc):
            yield from numbers(v)
    elif isinstance(doc, (int, float)):
        yield float(doc)


#: the power of the width a that each output field carries
WIDTH_POWERS = {"x": 1, "re_psi": -0.5, "im_psi": -0.5, "abs2_psi": -1,
                "t": 2, "tau": 2, "tau1": 2, "t_star": 2, "t_star_measured": 2,
                "rule_of_thumb": 2, "crossover_estimate": 2, "exp_window": 2,
                "tail_window": 2, "re_E": -2, "gamma": -2, "gamma_fit": -2,
                "gamma1_exact": -2}


def assert_scaled(got, ref, a, key=None):
    """got is ref with each number of WIDTH_POWERS scaled by a to its
    power, to 1e-12 relative; other numbers and strings are unchanged."""
    if isinstance(ref, dict):
        assert got.keys() == ref.keys()
        for k in ref:
            if k != "summary":
                assert_scaled(got[k], ref[k], a, k)
    elif isinstance(ref, list):
        assert len(got) == len(ref)
        for g, r in zip(got, ref):
            assert_scaled(g, r, a, key)
    elif isinstance(ref, str):
        assert got == ref
    else:
        assert got == pytest.approx(ref * a ** WIDTH_POWERS.get(key, 0),
                                    rel=1e-12, abs=0.0), key


@pytest.mark.filterwarnings("ignore::RuntimeWarning")
@pytest.mark.parametrize("width", [0.5, 2.0])
@pytest.mark.parametrize("command", ["poles", "evolve", "survival",
                                     "report"])
def test_width_scaling(tmp_path, command, width):
    # the same dimensionless run at widths 1 and a: times a^2, rates
    # 1/a^2, x a and psi 1/sqrt(a); the Gaussian is gauss:0.5a,0.08a
    def run(a, profile):
        argv = {"poles": ["--kmax", "20"],
                "evolve": ["--times", f"{0.05 * a * a:g},{a * a:g}",
                           "--policy", "both"],
                "survival": ["--times", f"{0.05 * a * a:g}:{300 * a * a:g}:2"],
                "report": []}[command]
        if command != "poles":
            argv += ["--profile", profile(a)]
        out = tmp_path / f"{width}-{a}-{profile(1.0)}"
        rc = main([command, "--lambda", "30", "--width", f"{a:g}", *argv,
                   "--out", str(out)])
        assert rc == EXIT_OK
        return written(out)

    for profile in (lambda a: "box:1",
                    lambda a: f"gauss:{0.5 * a:g},{0.08 * a:g}"):
        assert_scaled(run(width, profile), run(1.0, profile), width)


@pytest.mark.filterwarnings("ignore::RuntimeWarning")
@pytest.mark.parametrize("width", ["1e150", "1e-150"])
def test_extreme_widths_give_finite_outputs(tmp_path, width):
    # a^2 = 1e+-300: every time and rate in --width's units stays finite
    a2 = float(width) ** 2
    for command, argv in (
            ("poles", ["--kmax", "16"]),
            ("evolve", ["--profile", "box:1", "--times", f"{0.3 * a2:g}"]),
            ("survival", ["--profile", "box:1", "--times",
                          f"{0.05 * a2:g}:{300 * a2:g}:5"]),
            ("report", ["--profile", "box:1"])):
        out = tmp_path / command
        rc = main([command, "--lambda", "100", "--width", width, *argv,
                   "--out", str(out)])
        assert rc == EXIT_OK
        assert all(math.isfinite(v) for v in numbers(written(out))), command


def test_ray_panel_bound_refuses_at_once(tmp_path, capsys):
    # t_min = 1e-300 lays about 500 ray panels; its pole cutoff then needs
    # more than MAX_POLES poles, refused before any pole is refined
    start = time.perf_counter()
    with pytest.warns(RuntimeWarning, match="rotated background"):
        rc = main(["survival", "--lambda", "10", "--profile", "box:1",
                   "--times", "1e-300,1", "--policy", "rotated",
                   "--out", str(tmp_path)])
    assert time.perf_counter() - start < 1.0
    assert rc == EXIT_USAGE
    assert "poles" in capsys.readouterr().err
    assert list(tmp_path.iterdir()) == []


def test_output_past_double_range_exits_usage(tmp_path, capsys):
    # at width 1e150, lambda = 3000's tail window ends at 100 t* a^2 ~ 6e308,
    # past the largest double: exit 1 before report.json is written;
    # lambda = 1000's (5.9e307) still fits
    out = tmp_path / "lam3000"
    rc = main(["report", "--lambda", "3000", "--profile", "box:1",
               "--width", "1e150", "--out", str(out)])
    assert rc == EXIT_USAGE
    assert "tail_window" in capsys.readouterr().err
    assert not (out / "report.json").exists()
    out = tmp_path / "lam1000"
    rc = main(["report", "--lambda", "1000", "--profile", "box:1",
               "--width", "1e150", "--out", str(out)])
    assert rc == EXIT_OK
    assert all(math.isfinite(v) for v in numbers(written(out)))


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

    def test_one_rotated_expansion_for_all_times(self, tmp_path,
                                                 monkeypatch):
        built = []
        original = gamow_expansion.RotatedExpansion

        def counting(*args, **kwargs):
            built.append(args)
            return original(*args, **kwargs)

        monkeypatch.setattr(gamow_expansion, "RotatedExpansion", counting)
        rc = main(["evolve", "--lambda", "31.6", "--profile", "box:2",
                   "--times", "0.5,5", "--policy", "rotated",
                   "--out", str(tmp_path)])
        assert rc == EXIT_OK
        assert len(built) == 1
        monkeypatch.undo()
        grid = np.linspace(0.0, 1.0, 257)
        for t in (0.5, 5.0):
            _, header, rows = read_csv(tmp_path / f"evolve_t{t:g}.csv")
            psi = np.array([complex(float(r[header.index("re_psi")]),
                                    float(r[header.index("im_psi")]))
                            for r in rows])
            single = gamow_expansion.evolve_rotated(
                box_mode(2), t, grid, WellParameters(31.6)).psi
            assert np.max(np.abs(psi - single)) <= 1e-14 * np.max(
                np.abs(single))

    def test_both_at_t0_fails_before_direct_work(self, tmp_path, capsys,
                                                  monkeypatch):
        # the rotated times are checked first, so t = 0 costs no direct
        # evolution
        def forbidden(*args, **kwargs):
            raise AssertionError("direct evolution before the t > 0 check")

        monkeypatch.setattr(gamow_expansion, "evolve_direct", forbidden)
        rc = main(["evolve", "--lambda", "100", "--profile", "box:1",
                   "--times", "0,10,84", "--policy", "both",
                   "--out", str(tmp_path)])
        assert rc == EXIT_USAGE
        assert ("rotated representation requires t > 0"
                in capsys.readouterr().err)
        assert list(tmp_path.iterdir()) == []

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

    @pytest.mark.filterwarnings("ignore::RuntimeWarning")
    def test_short_rotated_times(self, tmp_path):
        # the ray ends before D(k) overflows (s ~ 501.5) for every
        # t_min >~ 1.8e-4, so the rotated route runs below 0.003 a^2 too
        rc = main(["survival", "--lambda", "10", "--profile", "box:1",
                   "--times", "0.0025,0.004,0.0063,0.01", "--policy",
                   "rotated", "--out", str(tmp_path)])
        assert rc == EXIT_OK
        _, header, rows = read_csv(tmp_path / "survival.csv")
        Ps = [float(r[header.index("P")]) for r in rows]
        assert all(math.isfinite(P) and 0.0 <= P <= 1.0 for P in Ps)
        assert Ps == sorted(Ps, reverse=True)
        # the direct route's 5 digits at t = 0.01
        assert 1.0 - Ps[-1] == pytest.approx(3.3752e-3, abs=5e-8)


class TestExitCodes:
    def test_short_time_pole_audit_failure(self, tmp_path):
        out = tmp_path / "out"
        rc = main(["survival", "--lambda", "10", "--profile", "box:1",
                   "--times", "0.001:0.01:5", "--out", str(out)])
        assert rc == EXIT_POLE_AUDIT
        assert not out.exists() or os.listdir(out) == []

    @pytest.mark.parametrize("argv", [
        ["evolve", "--times", "0.5"],
        ["survival", "--times", "0.5,1"],
    ], ids=["evolve", "survival"])
    def test_nan_background_is_a_quadrature_failure(self, tmp_path,
                                                    monkeypatch, argv):
        # a NaN on the ray makes the estimate NaN; the background's gate
        # must refuse it, not pass it on
        integrand = gamow_expansion._integrand

        def poisoned(k, phi, x, w):
            out = integrand(k, phi, x, w)
            out[-1] = np.nan
            return out

        monkeypatch.setattr(gamow_expansion, "_integrand", poisoned)
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
