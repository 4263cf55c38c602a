"""The repository benchmark: host cost and simulated fidelity of HFetch.

Usage (from the repository root)::

    python3 perfbench/run.py --workload montage --seed 2020 --seconds 30 --trace 0

Workloads (see ``perfbench/manifest.json`` for why each was chosen):
``montage``, ``wrf``, ``events`` and ``montage-diagnose``.

With ``--trace 0`` the workload is built and run from the seed
repeatedly, untraced, for about ``--seconds``; every run's outputs are
checked, and every repeat must reproduce the first run exactly.  The
end-to-end metrics are medians over the runs (the simulated ones are
identical in every run).  With ``--trace 1`` untraced and traced runs
alternate, the traced run must reproduce the untraced one, and the
per-layer metrics are medians over the traced runs.

The console shows a table; the last line of standard output is one JSON
object ``{"correct", "attempted", "failed", "metrics"}``.  The program
exits non-zero, printing no result, when the simulator sources are not
next to it.
"""

from __future__ import annotations

import argparse
import gc
import json
import resource
import sys
import traceback
from pathlib import Path
from statistics import median
from time import perf_counter

ROOT = Path(__file__).resolve().parent.parent
#: fewest measured runs per invocation, whatever ``--seconds`` says
MIN_RUNS = 3
#: builds timed per measured run (set-up is short, so it is sampled more)
SETUP_BUILDS = 3
#: Host times are reported at reference speed: scaled by REFERENCE_SECONDS
#: over the measured duration of REFERENCE_LOOPS turns of a fixed loop run
#: right next to them.  The shared machine's speed drifts by tens of
#: percent over seconds; the scaled times drift far less.
REFERENCE_LOOPS = 1_000_000
REFERENCE_SECONDS = 0.075


def _import_program() -> None:
    src = ROOT / "src"
    if not (src / "repro" / "__init__.py").is_file():
        sys.exit(f"perfbench: simulator sources not found under {src}")
    sys.path.insert(0, str(src))


class Tally:
    """Attempted/failed operations and the problems found so far."""

    def __init__(self) -> None:
        self.attempted = 0
        self.failed = 0
        self.problems: list[str] = []

    def add(self, outcome, expected=None, what: str = "repeat of the seed") -> None:
        """Count one run; ``expected`` is the fingerprint it must reproduce."""
        self.attempted += outcome.attempted
        self.failed += outcome.failed
        self.problems += outcome.problems
        if expected is not None and outcome.fingerprint != expected:
            self.problems.append(f"{what} did not reproduce the first run")
            self.failed += outcome.attempted - outcome.failed

    def crash(self) -> None:
        self.attempted += 1
        self.failed += 1
        self.problems.append(traceback.format_exc(limit=4))

    def result(self, metrics: dict) -> dict:
        return {
            "correct": not self.problems,
            "attempted": max(1, self.attempted),
            "failed": self.failed,
            "metrics": metrics,
        }


def reference_seconds() -> float:
    """Wall time of a fixed pure-Python loop: the machine's speed right now."""
    t0 = perf_counter()
    x = 0
    for i in range(REFERENCE_LOOPS):
        x += i * i % 7
    return perf_counter() - t0


def _run_scaled(case):
    """Run a built case between two reference loops.

    Returns ``(outcome, scale, before)``: multiplying a host time taken
    next to the loops by ``scale`` expresses it at reference speed, and
    ``before`` is the loop's duration just before the run.
    """
    gc.collect()
    before = reference_seconds()
    outcome = case.run()
    after = reference_seconds()
    return outcome, 2 * REFERENCE_SECONDS / (before + after), before


def _build_and_run(cases, workload: str, seed: int, builds: int = 1):
    """Build a case ``builds`` times and run the last.

    Returns ``(setup seconds, outcome, run seconds)``, host times at
    reference speed.
    """
    setups = []
    for _ in range(builds):
        case = None  # let the previous build go before timing the next
        t0 = perf_counter()
        case = cases.build(workload, seed)
        setups.append(perf_counter() - t0)
    outcome, scale, before = _run_scaled(case)
    setup_scale = REFERENCE_SECONDS / before
    return [t * setup_scale for t in setups], outcome, outcome.host_s * scale


def _keep_going(
    started: float, durations: list[float], seconds: float, minimum: int = MIN_RUNS
) -> bool:
    """Another run fits in the time budget (or the minimum is not met)."""
    if len(durations) < minimum:
        return True
    return perf_counter() - started + median(durations) <= seconds


def measure_end_to_end(workload: str, seed: int, seconds: float) -> tuple[dict, Tally, dict]:
    import cases
    from report import END_TO_END, NOT_APPLICABLE

    tally = Tally()
    us_per_read: list[float] = []
    setups: list[float] = []
    durations: list[float] = []
    first = sim = None
    started = perf_counter()
    while _keep_going(started, durations, seconds):
        t0 = perf_counter()
        try:
            setup_s, outcome, host_s = _build_and_run(cases, workload, seed, SETUP_BUILDS)
        except Exception:
            tally.crash()
            break
        tally.add(outcome, first)
        if first is None:
            first, sim = outcome.fingerprint, outcome.sim
        setups += setup_s
        us_per_read.append(host_s / max(1, outcome.reads) * 1e6)
        del outcome  # holds the whole simulation; free it before the next build
        durations.append(perf_counter() - t0)
    if first is None:
        return {}, tally, {}
    values = {
        "host_us_per_read": median(us_per_read),
        "setup_s": median(setups),
        "host_peak_rss_mb": resource.getrusage(resource.RUSAGE_SELF).ru_maxrss / 1024,
        **sim,
    }
    na = {k for k, v in values.items() if v is None}
    metrics = {
        name: {"value": NOT_APPLICABLE if name in na else values[name], "unit": unit}
        for name, unit in END_TO_END.items()
    }
    notes = {name: "n/a" for name in na}
    notes["host_us_per_read"] = f"median of {len(us_per_read)} runs, at reference speed"
    notes["setup_s"] = f"median of {len(setups)} builds, at reference speed"
    return metrics, tally, notes


def measure_layers(workload: str, seed: int, seconds: float) -> tuple[dict, Tally, dict]:
    import cases
    from layers import LayerTracer
    from report import PER_LAYER, layer_metrics, tail_percentile

    tally = Tally()
    untraced: list[float] = []
    traced: list[float] = []
    plain: list[float] = []
    samples: list[dict] = []
    durations: list[float] = []
    pass_ms: list[float] = []
    started = perf_counter()
    while _keep_going(started, durations, seconds, minimum=1):
        t0 = perf_counter()
        try:
            _s, base, base_s = _build_and_run(cases, workload, seed)
            tally.add(base)
            expected = base.fingerprint
            del base
            with LayerTracer() as tracer:
                case = cases.build(workload, seed)
                setup = dict(case.setup)
                outcome, scale, _before = _run_scaled(case)
                del case
            if workload == "montage-diagnose":
                _s, montage, montage_s = _build_and_run(cases, "montage", seed)
                tally.add(montage)
                del montage
                plain.append(montage_s)
        except Exception:
            tally.crash()
            break
        tally.add(outcome, expected, what="traced run")
        closure = sum(tracer.self_s.values()) - tracer.attributed_s
        if abs(closure) > 1e-6 * max(1.0, outcome.host_s):
            tally.problems.append(f"span self times miss the attributed time by {closure:.3g} s")
        untraced.append(base_s)
        traced.append(outcome.host_s * scale)
        samples.append(layer_metrics(tracer, outcome, setup))
        del outcome
        pass_ms = tracer.pass_ms
        durations.append(perf_counter() - t0)
    if not samples:
        return {}, tally, {}
    values = {name: median(s[name] for s in samples) for name in samples[0]}
    values["trace.overhead_frac"] = median(traced) / median(untraced) - 1.0
    values["telemetry.overhead_frac"] = (
        median(untraced) / median(plain) - 1.0 if plain else 0.0
    )
    metrics = {name: {"value": values[name], "unit": unit} for name, unit in PER_LAYER.items()}
    p, _v = tail_percentile(pass_ms)
    notes = {
        "placement.pass_ms.tail": f"p{p:g} of {len(pass_ms)} passes",
        "trace.overhead_frac": f"{len(traced)} traced vs {len(untraced)} untraced runs",
    }
    if plain:
        notes["telemetry.overhead_frac"] = f"vs {len(plain)} untraced montage runs"
    return metrics, tally, notes


def print_table(workload: str, metrics: dict, tally: Tally, notes: dict) -> None:
    print(f"perfbench {workload}")
    for name, m in metrics.items():
        value = "n/a" if notes.get(name) == "n/a" else f"{m['value']:.6g}"
        note = notes.get(name, "")
        note = "" if note == "n/a" else note
        print(f"  {name:<28} {value:>14} {m['unit']:<8} {note}")
    rate = tally.failed / max(1, tally.attempted)
    print(f"  {'error_rate':<28} {rate:>14.6g} {'ratio':<8} {tally.failed} of {tally.attempted}")
    for problem in tally.problems:
        print(f"  PROBLEM: {problem}")


def main(argv=None) -> int:
    parser = argparse.ArgumentParser(description=__doc__.split("\n\n")[0])
    parser.add_argument("--workload", required=True)
    parser.add_argument("--seed", type=int, default=2020)
    parser.add_argument("--seconds", type=float, default=30.0)
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    args = parser.parse_args(argv)
    _import_program()
    import cases

    if args.workload not in cases.WORKLOADS:
        parser.error(f"unknown workload {args.workload!r}; choose from {cases.WORKLOADS}")
    measure = measure_layers if args.trace else measure_end_to_end
    metrics, tally, notes = measure(args.workload, args.seed, args.seconds)
    print_table(args.workload, metrics, tally, notes)
    if not metrics:
        return 1
    print(json.dumps(tally.result(metrics)))
    return 0


if __name__ == "__main__":
    sys.exit(main())
