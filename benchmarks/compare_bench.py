#!/usr/bin/env python
"""Record perfbench into a BENCH file, and gate the build against the newest one.

Both modes drive ``perfbench/run.py`` (the repository benchmark) for
every workload ``BENCHMARK.json`` lists, at seed 2020.

``--update --label X`` writes a ``perfbench`` block to ``BENCH_X.json``:
for each workload, the result line of ``run.py --trace 0`` and of
``--trace 1`` (each for ``BENCHMARK.json``'s ``run_seconds``), and the
sha256 of one seeded run's fingerprint (every ``RunResult`` field but
``extra``; the event-conservation tuple on ``events``) with the
operations that run attempted.  It refuses to record if any run is
incorrect or any operation failed.

``--check`` runs each workload with ``--trace 0 --seconds 0``
(perfbench's minimum of three runs) plus one fingerprint run, and
compares them with the newest ``perfbench`` block among the committed
``BENCH_*.json`` files:

* the fingerprint digest is exact;
* the operations attempted per run are exact and none failed;
* ``host_us_per_read`` (at perfbench's reference speed) is at most the
  baseline's times 1 + the ``bound`` ``BENCHMARK.json`` gives it.

When ``host_us_per_read`` fails, the gate traces that workload once and
prints each layer's share of wall time next to the baseline's before it
exits non-zero.

Usage::

    python benchmarks/compare_bench.py --update --label PR12   # record
    python benchmarks/compare_bench.py --check                 # gate (CI)
"""

from __future__ import annotations

import argparse
import hashlib
import json
import os
import platform
import subprocess
import sys
from datetime import datetime, timezone
from pathlib import Path

ROOT = Path(__file__).resolve().parent.parent
SPEC = ROOT / "BENCHMARK.json"
SEED = 2020
GATED = "host_us_per_read"


def load_spec(path: Path = SPEC) -> dict:
    return json.loads(Path(path).read_text())


def host_bound(spec: dict) -> float:
    """The fractional bound ``BENCHMARK.json`` gives ``host_us_per_read``."""
    return next(m["bound"] for m in spec["end_to_end"] if m["name"] == GATED)


def perfbench(workload: str, trace: int, seconds: float) -> dict:
    """The result line of one ``perfbench/run.py`` invocation."""
    cmd = [
        sys.executable, str(ROOT / "perfbench" / "run.py"), "--workload", workload,
        "--seed", str(SEED), "--seconds", str(seconds), "--trace", str(trace),
    ]
    proc = subprocess.run(cmd, cwd=ROOT, capture_output=True, text=True)
    if proc.returncode != 0:
        sys.exit(f"perfbench {workload} --trace {trace} failed:\n{proc.stdout}{proc.stderr}")
    return json.loads(proc.stdout.splitlines()[-1])


def fingerprint(workload: str) -> dict:
    """Digest of one seeded run's fingerprint, and the operations it attempted."""
    for path in (str(ROOT / "src"), str(ROOT / "perfbench")):
        if path not in sys.path:
            sys.path.insert(0, path)
    import cases

    outcome = cases.build(workload, SEED).run()
    return {
        "sha256": hashlib.sha256(repr(outcome.fingerprint).encode()).hexdigest(),
        "attempted": outcome.attempted,
        "failed": outcome.failed,
    }


def newest_baseline(root: Path = ROOT) -> tuple[str, dict] | None:
    """``(file name, block)`` of the newest ``perfbench`` block in ``BENCH_*.json``."""
    blocks = []
    for path in root.glob("BENCH_*.json"):
        try:
            block = json.loads(path.read_text()).get("perfbench")
        except (json.JSONDecodeError, OSError):
            continue
        if block:
            blocks.append((block["recorded_utc"], path.name, block))
    if not blocks:
        return None
    _when, name, block = max(blocks, key=lambda b: b[:2])
    return name, block


def host_us(record: dict) -> float:
    return record["trace0"]["metrics"][GATED]["value"]


def compare(baseline: dict, current: dict, bound: float) -> list[tuple[str, str, str]]:
    """``(workload, check, message)`` for every check ``current`` fails.

    Both map workload -> ``{"fingerprint": ..., "trace0": result line}``
    as :func:`fingerprint` and :func:`perfbench` return them; ``check`` is
    ``"fingerprint"``, ``"operations"`` or ``GATED``.
    """
    failures = []
    for name, cur in current.items():
        base = baseline.get(name)
        if base is None:
            failures.append((name, "fingerprint", "no baseline recorded"))
            continue
        was, now = base["fingerprint"], cur["fingerprint"]
        if now["sha256"] != was["sha256"]:
            failures.append((name, "fingerprint", "RunResult fingerprint changed"))
        if now["attempted"] != was["attempted"]:
            failures.append((
                name, "operations",
                f"{now['attempted']} operations per run, baseline {was['attempted']}",
            ))
        failed = now["failed"] + cur["trace0"]["failed"]
        if failed or not cur["trace0"]["correct"]:
            failures.append((name, "operations", f"incorrect run or {failed} failed operations"))
        limit = host_us(base) * (1.0 + bound)
        if host_us(cur) > limit:
            failures.append((
                name, GATED, f"{host_us(cur):.2f} us/read over the limit {limit:.2f}",
            ))
    return failures


def explain(workload: str, baseline: dict) -> None:
    """Trace ``workload`` once; print each layer's share next to the baseline's."""
    now = perfbench(workload, trace=1, seconds=0)["metrics"]
    was = baseline["trace1"]["metrics"]
    print(f"\n{workload}: share of wall time per layer, baseline -> now")
    for key in sorted(k for k in was if k.startswith("share.")):
        print(f"  {key:<18} {was[key]['value']:6.3f} -> {now[key]['value']:6.3f}")


def cmd_update(label: str, spec: dict) -> int:
    seconds = spec["run_seconds"]
    workloads = {}
    for w in spec["workloads"]:
        name = w["name"]
        workloads[name] = record = {
            "fingerprint": fingerprint(name),
            "trace0": perfbench(name, 0, seconds),
            "trace1": perfbench(name, 1, seconds),
        }
        print(f"  {name}: {host_us(record):.2f} us/read  {record['fingerprint']['sha256'][:12]}",
              flush=True)
    bad = [
        name for name, r in workloads.items()
        if r["fingerprint"]["failed"]
        or any(r[t]["failed"] or not r[t]["correct"] for t in ("trace0", "trace1"))
    ]
    if bad:
        print(f"refusing to record: incorrect or failed runs on {', '.join(bad)}",
              file=sys.stderr)
        return 1
    target = ROOT / f"BENCH_{label}.json"
    data = json.loads(target.read_text()) if target.exists() else {}
    data["perfbench"] = {
        "recorded_utc": datetime.now(timezone.utc).strftime("%Y-%m-%dT%H:%M:%SZ"),
        "seed": SEED,
        "run_seconds": seconds,
        "machine": f"{os.cpu_count()} cpus, Python {platform.python_version()}",
        "workloads": workloads,
    }
    target.write_text(json.dumps(data, indent=2) + "\n")
    print(f"recorded perfbench baseline in {target.name}")
    return 0


def cmd_check(spec: dict) -> int:
    found = newest_baseline()
    if found is None:
        print("no BENCH_*.json holds a perfbench block; record one with --update",
              file=sys.stderr)
        return 1
    bench_name, block = found
    baseline = block["workloads"]
    bound = host_bound(spec)
    print(f"gating against {bench_name} (recorded {block['recorded_utc']}), "
          f"{GATED} bound +{bound:.0%}")
    current = {}
    for w in spec["workloads"]:
        name = w["name"]
        current[name] = cur = {"fingerprint": fingerprint(name), "trace0": perfbench(name, 0, 0)}
        if name in baseline:
            print(f"  {name}: {host_us(cur):.2f} us/read, "
                  f"{host_us(cur) / host_us(baseline[name]):.3f}x baseline", flush=True)
    failures = compare(baseline, current, bound)
    for name in sorted({name for name, check, _ in failures if check == GATED}):
        explain(name, baseline[name])
    if failures:
        print("\nREGRESSIONS:", file=sys.stderr)
        for name, check, message in failures:
            print(f"  {name} [{check}]: {message}", file=sys.stderr)
        return 1
    print("all workloads pass: fingerprints, operations and host us/read")
    return 0


def main(argv: list[str] | None = None) -> int:
    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    mode = parser.add_mutually_exclusive_group(required=True)
    mode.add_argument("--update", action="store_true",
                      help="record perfbench into BENCH_<label>.json")
    mode.add_argument("--check", action="store_true",
                      help="gate the build against the newest recorded perfbench block")
    parser.add_argument("--label", help="suffix of BENCH_<label>.json (with --update)")
    args = parser.parse_args(argv)
    spec = load_spec()
    if args.update:
        if not args.label:
            parser.error("--update needs --label")
        return cmd_update(args.label, spec)
    return cmd_check(spec)


if __name__ == "__main__":
    raise SystemExit(main())
