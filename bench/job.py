"""Run one benchmark job in a fresh interpreter, as a gamow-lab user would.

Usage: python job.py SPEC.json   (run with the job directory as cwd)

The process imports gamow_lab.cli (the end of set-up), installs the span
wrappers when the spec asks for a trace, runs the job in the timed region,
and then, outside it, saves the job's numeric outputs and runs its
correctness checks.  The record goes to job.json in the working directory.
"""

from __future__ import annotations

import contextlib
import hashlib
import io
import json
import os
import resource
import sys
import time
import warnings
from pathlib import Path


def main() -> None:
    with open(sys.argv[1], encoding="utf-8") as fh:
        spec = json.load(fh)
    import gamow_lab.cli  # noqa: F401
    record = {"id": spec["id"], "ready": time.monotonic()}
    tracer = None
    if spec["trace"]:
        from spans import Tracer
        tracer = Tracer()
        tracer.install()
    runner = {"cli": _run_cli, "nonescape_point": _run_point,
              "unitarity_audit": _run_audit}[spec["kind"]]
    runner(spec, record, tracer)
    with open("job.json", "w", encoding="utf-8") as fh:
        json.dump(record, fh, sort_keys=True)


def _timed(record: dict, tracer, call):
    """Run call() as the job's timed region; record its time, peak RSS and
    spans (the checks that follow are not traced)."""
    if tracer is not None:
        tracer.start_sampling()
    t0 = time.perf_counter()
    try:
        return call()
    finally:
        record["job_s"] = time.perf_counter() - t0
        record["peak_rss_mb"] = (
            resource.getrusage(resource.RUSAGE_SELF).ru_maxrss / 1024.0)
        if tracer is not None:
            tracer.stop_sampling()
            record["trace"] = tracer.summary()


def _failure(record: dict, exc: Exception) -> None:
    record["status"] = type(exc).__name__
    record["message"] = str(exc)[:300]


def _check(record: dict, name: str, value: float, limit: float) -> None:
    record.setdefault("checks", []).append(
        {"name": name, "value": value, "limit": limit,
         "ok": bool(value < limit)})


def _digest_outputs(record: dict, paths: list[str]) -> None:
    record["outputs"] = {
        p: hashlib.sha256(Path(p).read_bytes()).hexdigest() for p in paths}


def _write_values(values: dict) -> str:
    """Numeric outputs of a library job, at full precision."""
    path = "values.json"
    with open(path, "w", encoding="utf-8", newline="\n") as fh:
        json.dump(values, fh, sort_keys=True, indent=1)
        fh.write("\n")
    return path


# --- CLI jobs ---------------------------------------------------------------

def _run_cli(spec: dict, record: dict, tracer) -> None:
    from gamow_lab import cli

    out, err = io.StringIO(), io.StringIO()
    rc = None
    with contextlib.redirect_stdout(out), contextlib.redirect_stderr(err):
        try:
            rc = _timed(record, tracer, lambda: cli.main(spec["argv"]))
        except Exception as exc:  # a traceback for a CLI user
            _failure(record, exc)
    if rc is not None:
        record["status"] = "ok" if rc == 0 else f"exit {rc}"
        record["message"] = err.getvalue().strip()[-300:]
    files = sorted(os.path.join(d, f) for d, _, fs in os.walk("results")
                   for f in fs)
    _digest_outputs(record, files)
    check = CLI_CHECKS[spec["check"]]
    if record["status"] != "ok" and check is not _check_evolve:
        return
    try:
        # snapshots written before a failure are still checked
        check(record, files)
    except (OSError, KeyError, IndexError, ValueError) as exc:
        _check(record, f"output unreadable ({type(exc).__name__}: {exc})",
               1.0, 0.5)


def _read_csv(path: str):
    import numpy as np

    with open(path, encoding="utf-8") as fh:
        lines = [ln.rstrip("\n") for ln in fh if not ln.startswith("#")]
    header = lines[0].split(",")
    rows = [ln.split(",") for ln in lines[1:]]
    return {h: np.array([r[i] for r in rows]) for i, h in enumerate(header)}


def _check_evolve(record: dict, files: list[str]) -> None:
    """Criterion 4: direct and rotated snapshots agree to 1e-6 (sup norm)."""
    import numpy as np

    for path in files:
        cols = _read_csv(path)
        methods = cols["method"]
        if set(methods) != {"direct", "rotated"}:
            continue
        psi = {m: (cols["re_psi"][methods == m].astype(float)
                   + 1j * cols["im_psi"][methods == m].astype(float))
               for m in ("direct", "rotated")}
        sup = float(np.max(np.abs(psi["direct"] - psi["rotated"])))
        _check(record, f"{os.path.basename(path)} direct-rotated sup",
               sup, 1e-6)


def _check_regimes(record: dict, doc: dict, tag: str) -> None:
    """Criteria 7 and 5: tail exponent and fitted rate."""
    _check(record, f"{tag} |s_fit + 3|", abs(doc["s_fit"] + 3.0), 0.15)
    _check(record, f"{tag} |gamma_fit/gamma1 - 1|",
           abs(doc["gamma_fit"] / doc["gamma1_exact"] - 1.0), 0.02)


def _check_report(record: dict, files: list[str]) -> None:
    with open(os.path.join("results", "report.json"), encoding="utf-8") as fh:
        _check_regimes(record, json.load(fh)["regimes"], "report")


def _check_survival(record: dict, files: list[str]) -> None:
    import numpy as np

    P = _read_csv(os.path.join("results", "survival.csv"))["P"].astype(float)
    _check(record, "survival P outside [0, 1]",
           float(np.sum((P < 0.0) | (P > 1.0))), 0.5)
    path = os.path.join("results", "survival_report.json")
    with open(path, encoding="utf-8") as fh:
        _check_regimes(record, json.load(fh), "survival")


def _check_poles(record: dict, files: list[str]) -> None:
    """Every listed pole is a root of F: |F(k_n)| < 1e-12 max(1, |k_n a|),
    the convergence test refine_pole documents.  (The CLI test asks an
    absolute 1e-12 of five poles below |k a| = 16; the seeded tables reach
    |k a| near 40, where poles that pass refine_pole exceed it.)"""
    import numpy as np

    cols = _read_csv(os.path.join("results", "poles.csv"))
    ka = np.abs(cols["re_ka"].astype(float) + 1j * cols["im_ka"].astype(float))
    res = cols["residual"].astype(float) / np.maximum(1.0, ka)
    _check(record, "no poles listed", float(res.size == 0), 0.5)
    _check(record, "max |F(k_n)| / max(1, |k_n a|)", float(np.max(res)), 1e-12)


CLI_CHECKS = {"evolve": _check_evolve, "report": _check_report,
              "survival": _check_survival, "poles": _check_poles}


# --- library jobs -----------------------------------------------------------

def _inputs(spec: dict):
    from gamow_lab import WellParameters, parse_profile

    return parse_profile(spec["profile"]), WellParameters(lam=spec["lam"])


def _run_point(spec: dict, record: dict, tracer) -> None:
    """One P(t) point on the short-time grid, with the default policy."""
    from gamow_lab import decay_analysis

    p, w = _inputs(spec)
    t = spec["t"]
    try:
        curve = _timed(record, tracer,
                       lambda: decay_analysis.nonescape_curve(p, [t], w))
    except Exception as exc:
        _failure(record, exc)
        _digest_outputs(record, [])
        return
    record["status"] = "ok"
    P = float(curve.P[0])
    values = {"t": t, "P": P, "method": curve.methods[0]}
    _check(record, "P outside [0, 1]", float(not 0.0 <= P <= 1.0), 0.5)
    with warnings.catch_warnings():
        warnings.simplefilter("ignore", RuntimeWarning)
        try:
            rot = decay_analysis.nonescape_curve(p, [t], w, policy="rotated")
        except Exception as exc:
            values["rotated"] = type(exc).__name__
        else:
            values["rotated"] = float(rot.P[0])
            _check(record, "|P - P_rotated|", abs(P - values["rotated"]), 1e-6)
    record["values"] = values
    _digest_outputs(record, [_write_values(values)])


def _run_audit(spec: dict, record: dict, tracer) -> None:
    from gamow_lab import spectral_evolution

    p, w = _inputs(spec)
    try:
        audit = _timed(record, tracer, lambda: (
            spectral_evolution.unitarity_audit(p, spec["t"], w)))
    except Exception as exc:
        _failure(record, exc)
        _digest_outputs(record, [])
        return
    record["status"] = "ok"
    record["values"] = audit
    _check(record, "|total - 1|", abs(audit["total"] - 1.0), 1e-6)
    _digest_outputs(record, [_write_values(audit)])


if __name__ == "__main__":
    main()
