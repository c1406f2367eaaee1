"""Seeded job lists for the three benchmark workloads.

A job is one gamow-lab command (run through gamow_lab.cli.main) or one
public library call.  The seed draws lambda (log-uniform over each job's
range), the box mode, the Gaussian centre and width, and offsets of the
time grids; everything else is fixed, so a workload's job list has the
same shape for every seed.  Where a job's cost grows steeply with lambda
its range is one stratum of the workload's range, so the summed job time
moves little from seed to seed.  Only inputs the constructors accept are
drawn: a Gaussian must pass InitialProfile.validate.

See README.md in this directory for why each workload exists.
"""

from __future__ import annotations

import random

#: failures that are known defects of the program at the commit that
#: introduced this benchmark; any other failure is a newly found defect.
#: The last entry was found by this benchmark.
KNOWN_DEFECTS = {
    "short-time-count-mismatch":
        "nonescape_curve below about 0.017 a^2 (direct route): the pole "
        "audit at k_max = 60/t raises CountMismatch",
    "evolve-both-at-t0":
        "evolve --policy both with t = 0 in --times exits 1: "
        "'rotated representation requires t > 0'",
    "survival-lam-below-10":
        "survival with lam < 10 writes survival.csv, then exits 1 "
        "(regime_report rejects non-metastable wells)",
    "audit-closure-narrow-gaussian":
        "unitarity_audit with its default k_max = 40/a misses "
        "|total - 1| < 1e-6 (criterion 3) for a Gaussian of width 0.05 a: "
        "the miss is 4e-6 to 1e-5 and follows |phi(k_max)|",
}

#: points per decade of the survival grids
_SURVIVAL_PPD = 4


def matches_known(job: dict, result: dict) -> bool:
    """True when a failed job shows exactly the known defect its spec allows."""
    status, known = result.get("status"), job.get("known")
    failed_checks = {c["name"] for c in result.get("checks", [])
                     if not c["ok"]}
    if known == "audit-closure-narrow-gaussian":
        return status == "ok" and failed_checks == {"|total - 1|"}
    if failed_checks:
        return False
    if known == "short-time-count-mismatch":
        return status == "CountMismatch"
    if known == "evolve-both-at-t0":
        return (status == "exit 1" and "rotated representation requires "
                "t > 0" in result.get("message", ""))
    if known == "survival-lam-below-10":
        return (status == "exit 1"
                and "results/survival.csv" in result.get("outputs", {}))
    return False


def _log_uniform(rng: random.Random, lo: float, hi: float) -> float:
    return float(f"{lo * (hi / lo) ** rng.random():.6g}")


def _stratum(lo: float, hi: float, i: int, k: int) -> tuple[float, float]:
    """The i-th of k equal log-width strata of [lo, hi]."""
    r = hi / lo
    return lo * r ** (i / k), lo * r ** ((i + 1) / k)


def _gaussian(rng: random.Random) -> str:
    from gamow_lab import parse_profile

    while True:
        spec = (f"gauss:{0.4 + 0.2 * rng.random():.4f},"
                f"{0.05 + 0.015 * rng.random():.4f}")
        try:
            parse_profile(spec)
        except ValueError:
            continue
        return spec


def _box(rng: random.Random, modes: tuple[int, ...]) -> str:
    return f"box:{modes[int(rng.random() * len(modes))]}"


def _cli(job_id: str, argv: list[str], check: str,
         known: str | None = None) -> dict:
    return {"id": job_id, "kind": "cli", "argv": argv + ["--out", "results"],
            "check": check, "known": known}


def rotated_curves(rng: random.Random) -> list[dict]:
    from gamow_lab import WellParameters, crossover_time, parse_profile

    jobs = []
    # one pair per log-stratum of [10, 300], Gaussian and box in turn, so
    # the median job is the middle one of three Gaussian reports.  Odd
    # modes only: the rate check (criterion 5) compares the fitted rate
    # with Gamma_1, and an even mode barely populates the first pole.
    for i in range(3):
        lam = _log_uniform(rng, *_stratum(10.0, 300.0, i, 3))
        prof = _gaussian(rng) if i % 2 == 0 else _box(rng, (1, 3))
        t_star = crossover_time(parse_profile(prof),
                                WellParameters(lam))["t_star"]
        start = 0.02 * 10 ** (0.05 * rng.random())
        stop = 100.0 * t_star * 10 ** (0.05 + 0.05 * rng.random())
        common = ["--lambda", f"{lam:g}", "--profile", prof]
        jobs.append(_cli(f"survival-{i}", ["survival", *common, "--times",
                                           f"{start:.6g}:{stop:.6g}:"
                                           f"{_SURVIVAL_PPD}"], "survival"))
        jobs.append(_cli(f"report-{i}", ["report", *common, "--format",
                                         "json"], "report"))
    jobs.append(_cli("poles", ["poles", "--lambda",
                               f"{_log_uniform(rng, 10.0, 300.0):g}"],
                     "poles"))
    jobs += [
        _cli("readme-poles", ["poles", "--lambda", "100", "--kmax", "16"],
             "poles"),
        _cli("readme-survival", ["survival", "--lambda", "10", "--profile",
                                 "box:1", "--times", "0.1:300:25"],
             "survival"),
        _cli("readme-report", ["report", "--lambda", "30", "--profile",
                               "gauss:0.5,0.08", "--format", "json"],
             "report"),
        _cli("survival-lam5", ["survival", "--lambda", "5", "--profile",
                               "box:1", "--times", "0.02:1000:4"],
             "survival", known="survival-lam-below-10"),
    ]
    return jobs


def direct_snapshots(rng: random.Random) -> list[dict]:
    def times(decades: tuple[float, ...]) -> str:
        shift = 10 ** (0.05 * rng.random())
        return ",".join(f"{t * shift:.6g}" for t in decades)

    lam_range = (10.0, 100.0)
    # The snapshots of one profile are split over two jobs, the small t
    # (where the direct route is dear) and the larger t, so that five of
    # the eight jobs are cheap and the median falls among them, not
    # between one cheap and one dear job.
    snapshots = [("box-0", _box(rng, (1, 2, 3)), 3, (0.05,)),
                 ("box-1", _box(rng, (1, 2, 3)), 1, (0.5, 5.0)),
                 ("gauss-0", _gaussian(rng), 2, (0.15,)),
                 ("gauss-1", _gaussian(rng), 0, (1.5,))]
    jobs = [_cli(f"evolve-{name}",
                 ["evolve", "--lambda",
                  f"{_log_uniform(rng, *_stratum(*lam_range, i, 4)):g}",
                  "--profile", prof, "--times", times(decades),
                  "--policy", "both"], "evolve")
            for name, prof, i, decades in snapshots]
    # the audit's k step resolves the narrowest resonance, so its cost
    # grows like lambda^2: the seeded audits take the two lowest strata,
    # and one audit sits at lambda = 100 (the ROADMAP's 5 s case).  The
    # Gaussian audit uses a fixed narrow profile, centred where phi(40/a)
    # is large, so its known closure defect shows on every seed.
    audits = [
        (_log_uniform(rng, *_stratum(*lam_range, 0, 4)), "gauss:0.5,0.05",
         _log_uniform(rng, 0.5, 1.0), "audit-closure-narrow-gaussian"),
        (_log_uniform(rng, *_stratum(*lam_range, 1, 4)), _box(rng, (1, 2, 3)),
         _log_uniform(rng, 0.5, 5.0), None),
        (100.0, _box(rng, (1, 2, 3)), _log_uniform(rng, 0.5, 5.0), None),
    ]
    for i, (lam, prof, t, known) in enumerate(audits):
        jobs.append({"id": f"audit-{i}", "kind": "unitarity_audit",
                     "lam": lam, "profile": prof, "t": t, "known": known})
    jobs.append(_cli("readme-evolve", ["evolve", "--lambda", "100",
                                       "--profile", "box:1", "--times",
                                       "0,10,84", "--policy", "both"],
                     "evolve", known="evolve-both-at-t0"))
    return jobs


def short_time(rng: random.Random) -> list[dict]:
    # Three (lambda, mode) series, one per log-stratum of [10, 100], on one
    # grid 0.3 decade apart from the top point, in [0.0185, 0.0195) a^2,
    # down to about 1.2e-3 a^2.  Only the middle series runs the whole
    # grid.  The top point is where the direct route succeeds for every
    # lambda in [10, 100]: it costs 20-30 s, so one such job per run keeps
    # the run short.  The other two series run the three lowest points, so
    # the median job is the middle one of the three jobs near 2.4e-3 a^2
    # (about 0.3 s), not a job of 0.1-0.2 s, which the machine's jitter
    # moves by a larger share.
    top = 0.0185 * 10 ** (0.023 * rng.random())
    grid = [float(f"{top * 10 ** (-0.3 * i):.6g}") for i in range(4, -1, -1)]
    jobs = []
    for s in range(3):
        lam = _log_uniform(rng, *_stratum(10.0, 100.0, s, 3))
        prof = _box(rng, (1, 2, 3))
        for i, t in enumerate(grid if s == 1 else grid[:3]):
            jobs.append({"id": f"series{s}-point{i}", "kind": "nonescape_point",
                         "lam": lam, "profile": prof, "t": t,
                         "series": f"lam={lam:g},{prof}",
                         "known": "short-time-count-mismatch"})
    return jobs


_BUILDERS = {"rotated-curves": rotated_curves,
             "direct-snapshots": direct_snapshots,
             "short-time": short_time}
WORKLOADS = tuple(_BUILDERS)


def build(workload: str, seed: int) -> list[dict]:
    """The workload's job list for this seed (same seed, same jobs)."""
    return _BUILDERS[workload](random.Random(seed))
