"""gamow-lab benchmark: seeded user-level jobs, end-to-end and per-layer.

Usage (from the repository root):

    python3 bench/run.py --workload rotated-curves --seed 1 --seconds 30 \
        --trace 0

Each job runs in a fresh interpreter (python bench/job.py), one at a time,
with BLAS and OpenMP pinned to one thread, so every job pays the cold
start and the empty pole cache that a gamow-lab invocation pays.

--trace 0 runs the job list, then repeats it while another pass fits in
--seconds, and prints the end-to-end metrics.  --trace 1 runs the list
once untraced and once with the per-layer spans installed, and prints the
per-layer metrics and the tracing overhead.  Either way the last line of
standard output is one JSON object: correct, attempted, failed, metrics.

A job fails (failed_frac) if it raises, exits non-zero or fails its
correctness check.  The result line's `failed` counts only failures the
benchmark cannot account for: a failed check, outputs that differ between
repeated runs of one seed, a timeout, or a failure that is not one of the
known defects in workloads.KNOWN_DEFECTS.  `correct` is true when there
are none.  The full record (run record, per-job results, failure census,
per-path spans) is written to bench/out/results/.
"""

from __future__ import annotations

import argparse
import hashlib
import json
import os
import platform
import shutil
import statistics
import subprocess
import sys
import time
from pathlib import Path

BENCH = Path(__file__).resolve().parent
ROOT = Path.cwd()
SRC = ROOT / "src"
OUT = BENCH / "out"

#: BLAS/OpenMP thread pin applied to every job process
THREAD_PIN = {name: "1" for name in (
    "OMP_NUM_THREADS", "OPENBLAS_NUM_THREADS", "MKL_NUM_THREADS",
    "BLIS_NUM_THREADS", "VECLIB_MAXIMUM_THREADS", "NUMEXPR_NUM_THREADS")}

#: no job is started, and running jobs are killed, this long after start,
#: so a run ends well within the 180 s a run may take
DEADLINE_S = 165.0

#: trace.coverage below this share is reported with the uncovered spots
COVERAGE_FLOOR = 0.95


def _parse_args(argv=None):
    ap = argparse.ArgumentParser(description=__doc__.split("\n\n")[0])
    ap.add_argument("--workload", required=True)
    ap.add_argument("--seed", type=int, required=True)
    ap.add_argument("--seconds", type=float, required=True)
    ap.add_argument("--trace", type=int, choices=(0, 1), default=0)
    return ap.parse_args(argv)


# --- running jobs -------------------------------------------------------------

def _job_env() -> dict:
    env = dict(os.environ)
    env.update(THREAD_PIN)
    env["PYTHONPATH"] = os.pathsep.join(
        [str(SRC)] + [p for p in [env.get("PYTHONPATH")] if p])
    env.pop("GAMOW_LAB_THREADS", None)  # echoed into every CLI output
    return env


def _run_job(job: dict, trace: bool, job_dir: Path, env: dict,
             started: float) -> dict:
    job_dir.mkdir(parents=True)
    spec_path = job_dir / "spec.json"
    spec_path.write_text(json.dumps({**job, "trace": trace}, sort_keys=True))
    remaining = DEADLINE_S - (time.monotonic() - started)
    if remaining <= 1.0:
        return {"id": job["id"], "status": "not run (deadline)"}
    launched = time.monotonic()
    with open(job_dir / "process.log", "wb") as log:
        try:
            subprocess.run([sys.executable, str(BENCH / "job.py"),
                            str(spec_path)], cwd=job_dir, env=env,
                           stdout=log, stderr=subprocess.STDOUT,
                           timeout=remaining, check=False)
        except subprocess.TimeoutExpired:
            return {"id": job["id"], "status": "timeout"}
    record_path = job_dir / "job.json"
    if not record_path.exists():
        return {"id": job["id"], "status": "job process crashed"}
    result = json.loads(record_path.read_text())
    result["setup_s"] = result.pop("ready") - launched
    return result


def _run_pass(jobs: list[dict], trace: bool, pass_dir: Path, env: dict,
              started: float) -> list[dict]:
    return [_run_job(job, trace, pass_dir / job["id"], env, started)
            for job in jobs]


# --- classification -------------------------------------------------------

def _classify(jobs: list[dict], passes: list[list[dict]],
              previous: dict | None) -> list[dict]:
    """Label every job result ok / known defect / unexpected, in place.

    Unexpected: a failed check, a failure outside the known defects, or
    outputs that differ from the first pass or from an earlier run of the
    same seed on the same source.
    """
    from workloads import matches_known

    first = {r["id"]: r for r in passes[0]}
    for results in passes:
        for job, r in zip(jobs, results):
            failed_checks = [c for c in r.get("checks", []) if not c["ok"]]
            r["failed"] = r["status"] != "ok" or bool(failed_checks)
            problems = []
            if r["failed"] and not matches_known(job, r):
                if r["status"] != "ok":
                    problems.append(f"new defect: {r['status']}")
                problems += [f"check failed: {c['name']} = {c['value']:.3e}"
                             f" (limit {c['limit']:g})" for c in failed_checks]
            for ref, where in ((first[job["id"]], "the first pass"),
                               ((previous or {}).get(job["id"]),
                                "an earlier run of this seed")):
                if ref is not None and r["status"] == ref["status"] and (
                        r.get("outputs") != ref.get("outputs")):
                    problems.append(f"outputs differ from {where}")
                elif ref is not None and r["status"] != ref["status"]:
                    problems.append(f"status differs from {where}")
            r["failed"] = r["failed"] or bool(problems)
            r["unexpected"] = problems
    _check_series(jobs, passes)
    return [r for results in passes for r in results]


def _check_series(jobs: list[dict], passes: list[list[dict]]) -> None:
    """Short-time: P must not increase along each (lambda, mode) series."""
    for results in passes:
        last: dict[str, float] = {}
        for job, r in sorted(zip(jobs, results),
                             key=lambda jr: jr[0].get("t", 0.0)):
            if "series" not in job or r["status"] != "ok":
                continue
            P = r["values"]["P"]
            prev = last.get(job["series"])
            if prev is not None and P > prev:
                r["unexpected"].append(
                    f"check failed: P rises along the series ({P!r} > {prev!r})")
                r["failed"] = True
            last[job["series"]] = P


# --- metrics ----------------------------------------------------------------

def _end_to_end(passes: list[list[dict]]) -> dict:
    results = [r for results in passes for r in results]
    setups = [r["setup_s"] for r in results if "setup_s" in r]
    times = [r["job_s"] for r in results if "job_s" in r]
    walls = [sum(r.get("job_s", 0.0) for r in results) for results in passes]
    rss = [r["peak_rss_mb"] for r in results if "peak_rss_mb" in r]
    failed = sum(r["failed"] for r in results)
    return {
        "setup_s": (statistics.median(setups) if setups else 0.0,
                    len(setups)),
        "wall_s": (statistics.median(walls), len(walls)),
        "job_p50_s": (statistics.median(times) if times else 0.0,
                      len(times)),
        "failed_frac": (failed / len(results), len(results)),
        "peak_rss_mb": (max(rss) if rss else 0.0, len(rss)),
    }


def _per_layer(untraced: list[dict], traced: list[dict],
               spec: list[dict]) -> tuple[dict, dict]:
    """The per-layer metrics BENCHMARK.json lists, and the coverage samples.

    A metric named <span>.<calls|errors|self_s> reads that field of a span
    in spans.SPANS; a counter name reads the counter; the ratios and the
    trace.* metrics are derived here.
    """
    from spans import COUNTERS, SPANS, layer_totals

    names, counts, samples = layer_totals(
        [r["trace"] for r in traced if "trace" in r])
    points = counts.get("decay_analysis.points", 0)
    traced_wall = sum(r.get("job_s", 0.0) for r in traced)
    n_samples = samples["covered"] + sum(samples["uncovered"].values())
    derived = {
        "decay_analysis.evolutions_per_point":
            counts.get("decay_analysis.evolutions", 0) / points
            if points else 0.0,
        "trace.job_s": traced_wall,
        "trace.coverage":
            samples["covered"] / n_samples if n_samples else 0.0,
        "trace.overhead_s":
            traced_wall - sum(r.get("job_s", 0.0) for r in untraced),
    }
    span_names = {f"{mod}.{fn}" for mod, fn in SPANS}
    unused = {"calls": 0, "errors": 0, "self_s": 0.0}
    out = {}
    for metric in spec:
        name = metric["name"]
        span, _, field = name.rpartition(".")
        if name in derived:
            value = derived[name]
        elif span in span_names:
            value = names.get(span, unused)[field]
        elif name in COUNTERS:
            value = counts.get(name, 0)
        else:
            raise KeyError(f"per-layer metric {name!r} has no source")
        out[name] = (value, metric["unit"])
    return out, samples


# --- run record -------------------------------------------------------------

def _digest(paths) -> str:
    h = hashlib.sha256()
    for path in sorted(paths):
        h.update(path.name.encode() + b"\0" + path.read_bytes() + b"\0")
    return h.hexdigest()


def _git_sha() -> str:
    if not (ROOT / ".git").exists():
        return "unknown (not a git checkout)"
    proc = subprocess.run(["git", "rev-parse", "HEAD"], cwd=ROOT,
                          capture_output=True, text=True, check=False)
    return proc.stdout.strip() or "unknown"


def _run_record(args, jobs: list[dict], source: str, bench: str,
                n_passes: int) -> dict:
    import numpy
    import scipy

    kinds: dict[str, int] = {}
    for job in jobs:
        key = job["argv"][0] if job["kind"] == "cli" else job["kind"]
        kinds[key] = kinds.get(key, 0) + 1
    return {
        "git_sha": _git_sha(),
        "source_sha256": source,
        "bench_sha256": bench,
        "python": platform.python_version(),
        "numpy": numpy.__version__,
        "scipy": scipy.__version__,
        "nproc": os.cpu_count(),
        "affinity_cpus": len(os.sched_getaffinity(0)),
        "thread_pin": THREAD_PIN,
        "workload": args.workload,
        "seed": args.seed,
        "seconds": args.seconds,
        "trace": args.trace,
        "jobs_per_pass": len(jobs),
        "jobs_by_kind": kinds,
        "passes": n_passes,
    }


def _census(jobs: list[dict], results: list[dict]) -> list[dict]:
    from workloads import KNOWN_DEFECTS

    by_id = {j["id"]: j for j in jobs}
    census = []
    for r in results:
        if not r["failed"]:
            continue
        job = by_id[r["id"]]
        known = job["known"] if not r["unexpected"] else None
        failed_checks = [c["name"] for c in r.get("checks", []) if not c["ok"]]
        census.append({
            "job": r["id"],
            "failure": r["status"] if r["status"] != "ok" else
            "check failed: " + ", ".join(failed_checks),
            "known_defect": KNOWN_DEFECTS[known] if known else None,
            "unexpected": r["unexpected"],
            "message": r.get("message", ""),
            "inputs": job.get("argv") or {k: job[k] for k in
                                          ("lam", "profile", "t")},
        })
    return census


# --- main -----------------------------------------------------------------------

def main(argv=None) -> int:
    args = _parse_args(argv)
    if not (SRC / "gamow_lab" / "cli.py").is_file():
        print(f"error: no gamow_lab sources under {SRC}; run from the "
              f"repository root", file=sys.stderr)
        return 2
    sys.path.insert(0, str(SRC))
    import workloads

    if args.workload not in workloads.WORKLOADS:
        print(f"error: unknown workload {args.workload!r}; choose from "
              f"{', '.join(workloads.WORKLOADS)}", file=sys.stderr)
        return 2
    started = time.monotonic()
    jobs = workloads.build(args.workload, args.seed)
    key = f"{args.workload}-seed{args.seed}"
    run_dir = OUT / "runs" / f"{key}-trace{args.trace}"
    shutil.rmtree(run_dir, ignore_errors=True)
    env = _job_env()

    passes = [_run_pass(jobs, False, run_dir / "pass0", env, started)]
    pass_s = time.monotonic() - started
    traced = None
    if args.trace:
        traced = _run_pass(jobs, True, run_dir / "traced", env, started)
    else:
        while time.monotonic() - started + pass_s <= args.seconds:
            passes.append(_run_pass(jobs, False,
                                    run_dir / f"pass{len(passes)}", env,
                                    started))

    # outputs of one seed are compared across runs of the same program
    # and benchmark sources
    source = _digest((SRC / "gamow_lab").glob("*.py"))
    bench = _digest(BENCH.glob("*.py"))
    digest_path = OUT / "digests" / f"{key}-{source[:12]}-{bench[:12]}.json"
    previous = (json.loads(digest_path.read_text())
                if digest_path.exists() else None)
    results = _classify(jobs, passes + ([traced] if traced else []),
                        previous)
    unexpected = sum(bool(r["unexpected"]) for r in results)
    if previous is None and not unexpected:
        digest_path.parent.mkdir(parents=True, exist_ok=True)
        digest_path.write_text(json.dumps(
            {r["id"]: {"status": r["status"], "outputs": r.get("outputs")}
             for r in passes[0]}, sort_keys=True, indent=1))

    spec = json.loads((ROOT / "BENCHMARK.json").read_text())
    coverage = None
    if traced:
        metrics, coverage = _per_layer(passes[0], traced, spec["per_layer"])
        samples = {name: len(traced) for name in metrics}
        samples["trace.coverage"] = (
            coverage["covered"] + sum(coverage["uncovered"].values()))
    else:
        e2e = _end_to_end(passes)
        metrics = {m["name"]: (e2e[m["name"]][0], m["unit"])
                   for m in spec["end_to_end"]}
        samples = {name: e2e[name][1] for name in metrics}
    record = _run_record(args, jobs, source, bench, len(passes))
    census = _census(jobs, results)

    print(f"gamow-lab benchmark: workload {args.workload}, seed {args.seed},"
          f" trace {args.trace}, source {source[:12]}, git {record['git_sha']}")
    print(f"python {record['python']}, numpy {record['numpy']}, scipy "
          f"{record['scipy']}, nproc {record['nproc']}, threads pinned to 1")
    print(f"{len(jobs)} jobs per pass ({record['jobs_by_kind']}), "
          f"{len(results)} job runs")
    for name, (value, unit) in metrics.items():
        print(f"  {name:48s} {value:14.6g} {unit:6s} n={samples[name]}")
    if coverage is not None and metrics["trace.coverage"][0] < COVERAGE_FLOOR:
        worst = sorted(coverage["uncovered"].items(), key=lambda kv: -kv[1])
        print(f"  coverage below {COVERAGE_FLOOR}; most uncovered samples "
              f"(open span <- running function): "
              + ", ".join(f"{k} ({n})" for k, n in worst[:5]))
    seen: dict[tuple, int] = {}
    for entry in census:
        group = (entry["job"], entry["failure"],
                 entry["known_defect"] is None,
                 "; ".join(entry["unexpected"]))
        seen[group] = seen.get(group, 0) + 1
    for (job, failure, new_defect, why), runs in seen.items():
        tag = "UNEXPECTED" if new_defect else "known defect"
        print(f"  failed {job} ({runs} run{'s' * (runs > 1)}): {failure} "
              f"[{tag}] {why}".rstrip())

    result_path = OUT / "results" / f"{key}-trace{args.trace}.json"
    result_path.parent.mkdir(parents=True, exist_ok=True)
    result_path.write_text(json.dumps({
        "record": record,
        "metrics": {n: {"value": v, "unit": u, "samples": samples[n]}
                    for n, (v, u) in metrics.items()},
        "census": census,
        "coverage_samples": coverage,
        "jobs": jobs,
        "results": results,
    }, sort_keys=True, indent=1))
    print(f"record: {result_path.relative_to(ROOT)}")
    print(json.dumps({
        "correct": unexpected == 0,
        "attempted": len(results),
        "failed": unexpected,
        "metrics": {n: {"value": v, "unit": u}
                    for n, (v, u) in metrics.items()},
    }))
    return 0


if __name__ == "__main__":
    sys.exit(main())
