"""Per-layer spans and counters for traced benchmark jobs.

The wrappers are installed from outside the package: every gamow_lab
module that holds a reference to a wrapped function (its own module, and
every module that imported it by name) gets the wrapper, so a call is
traced wherever it is made.  No file under src/ changes.

A span records calls, errors, total and self time (duration minus the
time covered by child spans), keyed by its call path, so the caller of
each span is known.  Counters record work sizes at the same boundaries.

Self times always add up to the job time, because each job runs under a
root span whose self time takes in whatever no other span covers.  So
coverage is measured apart from them: while a job runs, a thread samples
the main thread's stack.  A sample is covered when the innermost running
gamow_lab function belongs to the layer of the innermost open span, so
its time is charged to the layer that does the work.  Uncovered samples
are kept by (open span, running function), which names a missing span.
"""

from __future__ import annotations

import sys
import threading
import time

import numpy as np

#: layer entry points that get a span, as (module, function)
SPANS = (
    ("cli", "main"),
    ("decay_analysis", "nonescape_curve"),
    ("decay_analysis", "regime_report"),
    ("gamow_expansion", "evolve_rotated"),
    ("gamow_expansion", "residue_terms"),
    ("gamow_expansion", "background_integral"),
    ("gamow_expansion", "integrand_f"),
    ("spectral_evolution", "evolve_direct"),
    ("spectral_evolution", "unitarity_audit"),
    ("spectral_evolution", "spectral_tail_mass"),
    ("quadrature", "adaptive_gl"),
    ("profiles", "overlap_transform"),
    ("profiles", "parse_profile"),
    ("potential_model", "enumerate_poles"),
)

#: cheap entry points that are only counted: (module, function, counter);
#: the coefficients count the k values passed in, panel_nodes the nodes
#: it returns
COUNTED = (
    ("potential_model", "coefficient_A", "potential_model.coeff_nodes"),
    ("potential_model", "coefficient_A_bar", "potential_model.coeff_nodes"),
    ("potential_model", "coefficient_B", "potential_model.coeff_nodes"),
    ("quadrature", "panel_nodes", "quadrature.panel_nodes.nodes"),
)

_EVOLUTIONS = ("gamow_expansion.evolve_rotated",
               "spectral_evolution.evolve_direct")

#: counter names, for the metrics that read them
COUNTERS = tuple(sorted({key for _, _, key in COUNTED} | {
    "potential_model.poles_found", "profiles.overlap_nodes",
    "decay_analysis.points", "spectral_evolution.direct_nodes"}))

#: stack-sampling interval of the coverage measure
SAMPLE_INTERVAL_S = 0.002


class Tracer:
    """Span stack plus per-path aggregates for one job process."""

    def __init__(self):
        self.paths: dict[tuple, list] = {}  # path -> [calls, errors, total, self]
        self.counts: dict[str, float] = {}
        self._stack: list[list] = []        # [path, child time]
        self.covered = 0
        self.uncovered: dict[str, int] = {}  # "span <- function" -> samples
        self._stop = threading.Event()
        self._sampler = None

    def _count(self, key: str, n) -> None:
        self.counts[key] = self.counts.get(key, 0) + n

    def span(self, name: str, fn):
        def wrapper(*args, **kwargs):
            stack = self._stack
            path = stack[-1][0] + (name,) if stack else (name,)
            frame = [path, 0.0]
            stack.append(frame)
            failed = True
            t0 = time.perf_counter()
            try:
                out = fn(*args, **kwargs)
                failed = False
            finally:
                dt = time.perf_counter() - t0
                stack.pop()
                if stack:
                    stack[-1][1] += dt
                rec = self.paths.get(path)
                if rec is None:
                    rec = self.paths[path] = [0, 0, 0.0, 0.0]
                rec[0] += 1
                rec[1] += failed
                rec[2] += dt
                rec[3] += dt - frame[1]
            if name == "potential_model.enumerate_poles":
                self._count("potential_model.poles_found", len(out))
            elif name == "profiles.overlap_transform":
                k = args[1] if len(args) > 1 else kwargs["k"]
                self._count("profiles.overlap_nodes", np.size(k))
            elif name == "decay_analysis.nonescape_curve":
                self._count("decay_analysis.points", len(out.times))
            return out

        wrapper.__wrapped__ = fn
        return wrapper

    def counter(self, key: str, fn):
        def wrapper(*args, **kwargs):
            out = fn(*args, **kwargs)
            if key == "quadrature.panel_nodes.nodes":
                n = out[0].size
                if any(f[0][-1] == "spectral_evolution.evolve_direct"
                       for f in self._stack):
                    self._count("spectral_evolution.direct_nodes", n)
            else:
                n = np.size(args[0])
            self._count(key, n)
            return out

        wrapper.__wrapped__ = fn
        return wrapper

    def install(self) -> None:
        """Replace each traced function in every gamow_lab module."""
        import gamow_lab.cli  # noqa: F401  (imports every layer)

        modules = [m for n, m in sorted(sys.modules.items())
                   if n == "gamow_lab" or n.startswith("gamow_lab.")]
        wrappers = [self.span(f"{mod}.{fn}", _original(mod, fn))
                    for mod, fn in SPANS]
        wrappers += [self.counter(key, _original(mod, fn))
                     for mod, fn, key in COUNTED]
        for wrapper in wrappers:
            orig = wrapper.__wrapped__
            for m in modules:
                for attr, val in list(vars(m).items()):
                    if val is orig:
                        setattr(m, attr, wrapper)

    def start_sampling(self) -> None:
        """Sample the calling thread's stack until stop_sampling()."""
        main = threading.get_ident()
        self._stop.clear()
        self._sampler = threading.Thread(target=self._sample, args=(main,),
                                         daemon=True)
        self._sampler.start()

    def stop_sampling(self) -> None:
        self._stop.set()
        self._sampler.join()

    def _sample(self, main: int) -> None:
        while not self._stop.wait(SAMPLE_INTERVAL_S):
            frame = sys._current_frames().get(main)
            try:
                span = self._stack[-1][0][-1]
            except IndexError:
                span = "(no span)"
            running = "(outside gamow_lab)"
            while frame is not None:
                module = frame.f_globals.get("__name__", "")
                if module.startswith("gamow_lab."):
                    running = (f"{module.removeprefix('gamow_lab.')}."
                               f"{frame.f_code.co_name}")
                    break
                frame = frame.f_back
            if running.split(".", 1)[0] == span.split(".", 1)[0]:
                self.covered += 1
            else:
                key = f"{span} <- {running}"
                self.uncovered[key] = self.uncovered.get(key, 0) + 1

    def summary(self) -> dict:
        """Aggregates for the job record: spans by call path, and counters."""
        spans = {"/".join(p): {"calls": r[0], "errors": r[1],
                               "total_s": r[2], "self_s": r[3]}
                 for p, r in sorted(self.paths.items())}
        counts = dict(self.counts)
        # evolutions that returned inside nonescape_curve, for the
        # evolutions-per-point ratio
        counts["decay_analysis.evolutions"] = sum(
            r[0] - r[1] for p, r in self.paths.items()
            if p[-1] in _EVOLUTIONS and "decay_analysis.nonescape_curve" in p)
        return {"spans": spans, "counts": counts,
                "samples": {"covered": self.covered,
                            "uncovered": dict(self.uncovered)}}


def _original(mod: str, fn: str):
    return getattr(sys.modules[f"gamow_lab.{mod}"], fn)


def layer_totals(summaries: list[dict]) -> tuple[dict, dict, dict]:
    """Sum job summaries into per-span-name and per-counter totals, and
    the coverage samples: {"covered": n, "uncovered": {key: n}}."""
    names: dict[str, dict] = {}
    counts: dict[str, float] = {}
    samples = {"covered": 0, "uncovered": {}}
    for s in summaries:
        samples["covered"] += s["samples"]["covered"]
        for key, n in s["samples"]["uncovered"].items():
            samples["uncovered"][key] = samples["uncovered"].get(key, 0) + n
        for path, rec in s["spans"].items():
            acc = names.setdefault(path.rsplit("/", 1)[-1],
                                   {"calls": 0, "errors": 0, "self_s": 0.0})
            acc["calls"] += rec["calls"]
            acc["errors"] += rec["errors"]
            acc["self_s"] += rec["self_s"]
        for key, n in s["counts"].items():
            counts[key] = counts.get(key, 0) + n
    return names, counts, samples
