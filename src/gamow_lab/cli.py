"""Command-line front end: pole tables, wavefunction snapshots, decay
curves, and regime reports, emitted as regression-diffable CSV/JSON.

Output conventions: CSV with a header row, 17 significant digits, '.'
decimal separator, LF line endings; JSON in UTF-8 with stable key order.
Every output embeds the resolved run configuration and package version.
Files are written atomically (temp file + rename).

Units: the library works in units of the well width a.  This module alone
knows a = --width: it checks it, divides --times by a^2 (and parse_profile
a Gaussian's centre and width by a) and scales outputs in _in_width_units.

Exit codes:
  0  success
  1  usage error (bad arguments, profile, time grid, policy or width, a
     non-finite well or cutoff, a pole cutoff past MAX_POLES, a direct
     time past MAX_PHASE_PANELS phase panels (t > about 2.1e4 a^2 at the
     default cutoff), a rotated t_min past MAX_RAY_PANELS ray panels
     (below about 1.7e-4 a^2), a well outside a command's range, or an
     output that is not finite in the units of a)
  2  pole enumeration failure (CountMismatch, WrongQuadrant)
  3  quadrature failure (QuadratureNotConverged)
  4  any other numerical failure (a GamowLabError, e.g. NoCrossing)
"""

from __future__ import annotations

import argparse
import json
import math
import os
import sys
import tempfile
from dataclasses import asdict, dataclass

import numpy as np

from . import __version__
from .decay_analysis import geometric_times, nonescape_curve, regime_report
from .exceptions import (
    CountMismatch,
    GamowLabError,
    QuadratureNotConverged,
    SeedOutOfRegime,
    WrongQuadrant,
)
from .gamow_expansion import crossover_time, evolve
from .potential_model import (
    DEFAULT_KMAX,
    WellParameters,
    asymptotic_pole_seed,
    enumerate_poles,
)
from .profiles import parse_profile

EXIT_OK = 0
EXIT_USAGE = 1
EXIT_POLE_AUDIT = 2
EXIT_QUADRATURE = 3
EXIT_NUMERICS = 4

_FMT = "%.17g"
#: each output field's power of a, from well-width units to --width's units
_DIMENSIONS = {"x": 1.0, "re_psi": -0.5, "im_psi": -0.5, "abs2_psi": -1.0,
               **dict.fromkeys(["re_E", "gamma", "gamma_fit",
                                "gamma1_exact"], -2.0),
               **dict.fromkeys(["tau", "tau1", "t_star", "t_star_measured",
                                "rule_of_thumb", "crossover_estimate",
                                "exp_window", "tail_window"], 2.0)}


@dataclass
class RunConfig:
    """Resolved run parameters, echoed into every output file."""

    command: str
    lam: float
    a: float
    profile: str | None
    times: str | None
    k_max: float | None  # poles and report only, in units of 1/a
    policy: str | None   # evolve and survival only
    out: str
    format: str

    def as_dict(self) -> dict:
        return {**asdict(self), "version": __version__}


def _atomic_write(path: str, text: str) -> None:
    d = os.path.dirname(os.path.abspath(path))
    fd, tmp = tempfile.mkstemp(dir=d, suffix=".tmp")
    try:
        with os.fdopen(fd, "w", encoding="utf-8", newline="\n") as fh:
            fh.write(text)
        os.replace(tmp, path)
    except BaseException:
        if os.path.exists(tmp):
            os.unlink(tmp)
        raise


def _csv_text(config: RunConfig, header: list[str], records: list) -> str:
    lines = [f"# config: {json.dumps(config.as_dict(), sort_keys=True)}"]
    lines.append(",".join(header))
    for record in records:
        lines.append(",".join(_FMT % v if isinstance(v, float) else str(v)
                              for v in record.values()))
    return "\n".join(lines) + "\n"


def _json_text(config: RunConfig, payload: dict) -> str:
    doc = {"config": config.as_dict(), **payload}
    return json.dumps(doc, sort_keys=True, indent=2) + "\n"


def _in_width_units(record: dict, a: float) -> dict:
    """record with each field of _DIMENSIONS (a fit window by element)
    taken from units of the well width to --width's units.  ValueError if
    a value is not finite there (past the double range at this a), before
    any caller writes it."""
    out = dict(record)
    for name in record.keys() & _DIMENSIONS.keys():
        s, v = a ** _DIMENSIONS[name], record[name]
        window = isinstance(v, tuple)
        scaled = [u * s for u in (v if window else (v,))]
        if not all(map(math.isfinite, scaled)):
            raise ValueError(f"{name} = {scaled} at width a = {a:g}: not "
                             f"a finite double in the units of a")
        out[name] = scaled if window else scaled[0]
    return out


def _emit(config: RunConfig, name: str, header: list[str],
          rows: list[list]) -> str:
    """Write a table, in --width's units, under the configured directory in
    csv or json form."""
    os.makedirs(config.out, exist_ok=True)
    records = [_in_width_units(dict(zip(header, row)), config.a)
               for row in rows]
    if config.format == "csv":
        path = os.path.join(config.out, name + ".csv")
        _atomic_write(path, _csv_text(config, header, records))
    else:
        path = os.path.join(config.out, name + ".json")
        _atomic_write(path, _json_text(config, {"rows": records}))
    return path


def _parse_times(spec: str) -> np.ndarray:
    """'start:stop:points-per-decade' (geometric) or comma-separated finite
    values."""
    if ":" in spec:
        parts = spec.split(":")
        if len(parts) != 3:
            raise ValueError("time spec must be start:stop:points-per-decade")
        start, stop, ppd = float(parts[0]), float(parts[1]), int(parts[2])
        return geometric_times(start, stop, ppd)
    times = np.asarray([float(v) for v in spec.split(",")])
    if not np.all(np.isfinite(times)):
        raise ValueError("times must be finite")
    return times


def cmd_poles(config: RunConfig) -> int:
    w = WellParameters(lam=config.lam)
    poles = enumerate_poles(w, config.k_max)
    rows = []
    for n, (ka, E, gamma, tau, residual) in enumerate(zip(
            poles.k.tolist(), poles.E.tolist(), poles.gamma.tolist(),
            poles.tau.tolist(), poles.residual.tolist()), start=1):
        try:
            seed_dev = abs(ka - asymptotic_pole_seed(n, w))
        except SeedOutOfRegime:
            seed_dev = float("nan")
        rows.append([n, ka.real, ka.imag, E.real, gamma, tau, residual,
                     seed_dev, "" if w.metastable else "non-metastable"])
    path = _emit(config, "poles",
                 ["n", "re_ka", "im_ka", "re_E", "gamma", "tau",
                  "residual", "seed_deviation", "warning"], rows)
    print(f"wrote {path} ({len(rows)} poles)")
    return EXIT_OK


def cmd_evolve(config: RunConfig) -> int:
    w = WellParameters(lam=config.lam)
    p = parse_profile(config.profile, config.a)
    times = _parse_times(config.times)
    if np.any(times < 0.0):
        raise ValueError("snapshot times must be >= 0")
    # one file per snapshot: two times of one name would lose a snapshot
    names = {}
    for t in times.tolist():
        name = f"evolve_t{t:.6g}"
        if name in names:
            raise ValueError(f"snapshot times {names[name]!r} and {t!r} "
                             f"share the file name {name}")
        names[name] = t
    grid = np.linspace(0.0, 1.0, 257)
    # rotated first, so that a time of 0 fails before any direct work (rows
    # are direct first); nothing is written until every snapshot succeeded
    runs = [evolve(p, times / config.a ** 2, grid, w, policy)
            for policy in (("rotated", "direct") if config.policy == "both"
                           else (config.policy,))]
    for i, name in enumerate(names):
        states = {routes[i]: psi[i] for psi, routes in reversed(runs)}
        rows = []
        for method, psi in states.items():
            for x, v in zip(grid, psi):
                rows.append([float(x), float(v.real), float(v.imag),
                             float(abs(v) ** 2), method])
        path = _emit(config, name,
                     ["x", "re_psi", "im_psi", "abs2_psi", "method"], rows)
        msg = f"wrote {path}"
        if len(states) == 2:
            sup = float(np.max(np.abs(states["direct"]
                                      - states["rotated"]))
                        * config.a ** _DIMENSIONS["re_psi"])
            msg += f" (method discrepancy sup-norm {sup:.3e})"
        print(msg)
    return EXIT_OK


def cmd_survival(config: RunConfig) -> int:
    w = WellParameters(lam=config.lam)
    p = parse_profile(config.profile, config.a)
    times = _parse_times(config.times)
    curve = nonescape_curve(p, times / config.a ** 2, w, config.policy)
    rows = [[float(t), float(P), m]
            for t, P, m in zip(times, curve.P, curve.methods)]
    path = _emit(config, "survival", ["t", "P", "method"], rows)
    print(f"wrote {path}")

    regimes = _in_width_units(regime_report(p, w).as_dict(), config.a)
    report_path = os.path.join(config.out, "survival_report.json")
    _atomic_write(report_path, _json_text(config, {
        name: regimes[name] for name in ("gamma_fit", "gamma1_exact", "s_fit",
                                         "t_star_measured",
                                         "crossover_estimate")}))
    print(f"wrote {report_path}")
    return EXIT_OK


def cmd_report(config: RunConfig) -> int:
    w = WellParameters(lam=config.lam)
    p = parse_profile(config.profile, config.a)
    poles = enumerate_poles(w, config.k_max)
    rep = regime_report(p, w)
    reg = _in_width_units(rep.as_dict(), config.a)
    payload = {
        "poles": [_in_width_units(
            {"n": n, "re_ka": k.real, "im_ka": k.imag, "gamma": gamma,
             "tau": tau}, config.a) for n, k, gamma, tau in zip(
                 range(1, len(poles) + 1), poles.k.tolist(),
                 poles.gamma.tolist(), poles.tau.tolist())],
        "regimes": reg,
        "crossover": _in_width_units(crossover_time(p, w), config.a),
        "summary": (
            f"lam={w.lam:g}, a={config.a:g}, profile={p.label}: "
            f"tau1={reg['tau1']:.6g}, Gamma_fit/Gamma1="
            f"{rep.gamma_fit / rep.gamma1_exact:.6f}, tail exponent "
            f"{rep.s_fit:.4f}, crossover t*={reg['t_star_measured']:.6g} "
            f"(estimate {reg['crossover_estimate']:.6g}), "
            f"log10 P(t*)={rep.log10_P_at_t_star:.2f}"
        ),
    }
    os.makedirs(config.out, exist_ok=True)
    path = os.path.join(config.out, "report.json")
    _atomic_write(path, _json_text(config, payload))
    print(payload["summary"])
    print(f"wrote {path}")
    return EXIT_OK


def _build_parser() -> argparse.ArgumentParser:
    ap = argparse.ArgumentParser(
        prog="gamow-lab",
        description="Delta-shell well decay laboratory: resonance poles, "
                    "exact spectral evolution, Gamow expansion, and "
                    "nonescape-probability analysis.")
    ap.add_argument("--version", action="version", version=__version__)
    sub = ap.add_subparsers(dest="command", required=True)

    def common(sp, profile, times, policies):
        sp.add_argument("--lambda", dest="lam", type=float, required=True,
                        help="dimensionless barrier strength")
        sp.add_argument("--width", type=float, default=1.0,
                        help="well width a (default 1), in the length unit "
                             "of every input and output")
        # a command takes either a pole cutoff or a method policy
        if policies is None:
            sp.add_argument("--kmax", type=float, default=DEFAULT_KMAX,
                            help="pole cutoff in units of 1/a "
                                 f"(default {DEFAULT_KMAX:g})")
        else:
            sp.add_argument("--policy", default="auto", choices=policies)
        sp.add_argument("--out", default=".", help="output directory")
        sp.add_argument("--format", default="csv", choices=["csv", "json"])
        if profile:
            sp.add_argument("--profile", required=True,
                            help="box:n or gauss:center,width")
        if times:
            sp.add_argument("--times", required=True,
                            help="start:stop:points-per-decade (geometric) "
                                 "or comma-separated finite values")

    common(sub.add_parser("poles", help="resonance pole table"),
           profile=False, times=False, policies=None)
    common(sub.add_parser("evolve", help="wavefunction snapshots"),
           profile=True, times=True,
           policies=["direct", "rotated", "both", "auto"])
    common(sub.add_parser("survival", help="nonescape probability curve"),
           profile=True, times=True,
           policies=["auto", "direct", "rotated", "asymptotic"])
    common(sub.add_parser("report", help="aggregate regime report"),
           profile=True, times=False, policies=None)
    return ap


def _glue_times(argv: list[str]) -> list[str]:
    """argv with each '--times V' written '--times=V': argparse takes a V
    that starts with '-' and is not a plain number, such as -1,1, for an
    option, so it would never reach _parse_times and the times checks."""
    out: list[str] = []
    for arg in argv:
        if out and out[-1] == "--times":
            out[-1] += "=" + arg
        else:
            out.append(arg)
    return out


def main(argv: list[str] | None = None) -> int:
    ap = _build_parser()
    try:
        ns = ap.parse_args(_glue_times(sys.argv[1:] if argv is None
                                       else argv))
    except SystemExit as exc:
        # argparse exits 2 on usage errors; remap to the documented code
        return EXIT_USAGE if exc.code not in (0, None) else 0
    config = RunConfig(
        command=ns.command, lam=ns.lam, a=ns.width,
        profile=getattr(ns, "profile", None),
        times=getattr(ns, "times", None),
        k_max=getattr(ns, "kmax", None), policy=getattr(ns, "policy", None),
        out=ns.out, format=ns.format)
    try:
        if not (config.a > 0.0 and sys.float_info.min <= config.a * config.a
                <= sys.float_info.max):
            raise ValueError(f"width a must be > 0 with a^2 a positive "
                             f"normal double, got {config.a}")
        handler = {
            "poles": cmd_poles,
            "evolve": cmd_evolve,
            "survival": cmd_survival,
            "report": cmd_report,
        }[config.command]
        return handler(config)
    except (CountMismatch, WrongQuadrant) as exc:
        print(f"pole enumeration failed ({type(exc).__name__}): {exc}",
              file=sys.stderr)
        return EXIT_POLE_AUDIT
    except QuadratureNotConverged as exc:
        print(f"quadrature failure: {exc}", file=sys.stderr)
        return EXIT_QUADRATURE
    except GamowLabError as exc:
        print(f"numerical failure ({type(exc).__name__}): {exc}",
              file=sys.stderr)
        return EXIT_NUMERICS
    except ValueError as exc:
        print(str(exc), file=sys.stderr)
        return EXIT_USAGE


if __name__ == "__main__":
    sys.exit(main())
