"""The assembled diagnosis report: derivation, headline, rendering.

:meth:`DiagnosisReport.derive` runs the full offline pipeline over a
:class:`~repro.diagnosis.provenance.ProvenanceLog` — causal replay →
waste accounting → drift correlation → oracle counterfactual — and
holds the four result blocks.  :meth:`headline` flattens the scalars
the runner folds into ``RunResult.extra["diagnosis"]``; :meth:`console`
renders the human report the ``repro diagnose`` CLI prints;
:meth:`to_json` is the machine-readable dump.
"""

from __future__ import annotations

import json
from dataclasses import dataclass, field
from pathlib import Path

from repro.diagnosis.attribution import ReplayResult, replay
from repro.diagnosis.drift import analyze_drift
from repro.diagnosis.oracle import analyze_oracle
from repro.diagnosis.provenance import ReadIndex
from repro.diagnosis.waste import analyze_waste
from repro.telemetry.analysis import percentile

__all__ = ["DiagnosisReport"]


@dataclass
class DiagnosisReport:
    """Waste / attribution / drift / oracle blocks for one run."""

    waste: dict = field(default_factory=dict)
    attribution: dict = field(default_factory=dict)
    drift: dict = field(default_factory=dict)
    oracle: dict = field(default_factory=dict)
    #: the raw replay (per-decision records, credits) for deep dives
    replay: ReplayResult = None  # type: ignore[assignment]

    # -- derivation --------------------------------------------------------
    @classmethod
    def derive(cls, prov) -> "DiagnosisReport":
        """Run the offline pipeline over a provenance log."""
        rep = replay(prov)
        delays = rep.first_use_delays
        attribution = {
            "reads": rep.reads,
            "hits": rep.hits,
            "attributed_hits": rep.attributed_hits,
            "unattributed_hits": rep.unattributed_hits,
            "hits_by_kind": dict(sorted(rep.hits_by_kind.items())),
            "miss_causes": dict(sorted(rep.miss_causes.items())),
            "decisions": len(rep.decisions),
            "placement_to_first_use_s": {
                "count": len(delays),
                "mean": sum(delays) / len(delays) if delays else 0.0,
                "p50": percentile(delays, 0.50),
                "p99": percentile(delays, 0.99),
            },
            "decision_to_first_use_s": {
                "mean": (
                    sum(rep.decision_to_use) / len(rep.decision_to_use)
                    if rep.decision_to_use else 0.0
                ),
                "p99": percentile(rep.decision_to_use, 0.99),
            },
        }
        reads = ReadIndex.of(prov)  # one scan of the reads for drift and oracle
        return cls(
            waste=analyze_waste(prov, rep),
            attribution=attribution,
            drift=analyze_drift(prov, reads),
            oracle=analyze_oracle(prov, reads),
            replay=rep,
        )

    # -- summaries ---------------------------------------------------------
    def headline(self) -> dict:
        """Flat scalars for ``RunResult.extra['diagnosis']``."""
        w, a, d, o = self.waste, self.attribution, self.drift, self.oracle
        out = {
            "moves": w.get("total_moves", 0),
            "moves_used": w.get("classes", {}).get("used", 0),
            "used_fraction": round(w.get("used_fraction", 0.0), 4),
            "wasted_bytes": w.get("wasted_bytes", 0),
            "attributed_hits": a.get("attributed_hits", 0),
            "regret": round(o.get("regret", 0.0), 4),
        }
        for cls, n in w.get("classes", {}).items():
            if cls != "used":
                out[f"moves_{cls}"] = n
        if "tau_mean" in d:
            out["drift_tau_mean"] = round(d["tau_mean"], 4)
        if "tau_slope_per_s" in d:
            out["drift_tau_slope_per_s"] = round(d["tau_slope_per_s"], 6)
        rehome = a.get("hits_by_kind", {}).get("rehome")
        if rehome:
            out["rehome_hits"] = rehome
        return out

    def to_json(self, path=None, indent: int = 2) -> str:
        """Serialise every block (not the raw replay) to JSON."""
        payload = {
            "waste": self.waste,
            "attribution": self.attribution,
            "drift": self.drift,
            "oracle": self.oracle,
        }
        text = json.dumps(payload, indent=indent, sort_keys=True)
        if path is not None:
            Path(path).write_text(text)
        return text

    def console(self) -> str:
        """Human-readable multi-section report."""
        w, a, d, o = self.waste, self.attribution, self.drift, self.oracle
        mb = 1 << 20
        lines = ["=== prefetch diagnosis ==="]

        lines.append("\n-- waste (per physical prefetch move) --")
        total = w.get("total_moves", 0)
        lines.append(f"  moves: {total}   moved: {w.get('moved_bytes', 0) / mb:.1f} MB")
        for cls, n in w.get("classes", {}).items():
            frac = n / total if total else 0.0
            lines.append(f"  {cls:20s} {n:6d}  ({frac:6.1%})")
        for tier, b in w.get("wasted_bytes_by_tier", {}).items():
            t = w.get("wasted_device_time_s_by_tier", {}).get(tier, 0.0)
            lines.append(
                f"  wasted @ {tier:12s} {b / mb:8.1f} MB  ~{t * 1e3:.1f} ms device time"
            )

        lines.append("\n-- attribution (per read) --")
        lines.append(
            f"  reads: {a.get('reads', 0)}   hits: {a.get('hits', 0)}"
            f"   attributed: {a.get('attributed_hits', 0)}"
            f"   unattributed: {a.get('unattributed_hits', 0)}"
        )
        for kind, n in a.get("hits_by_kind", {}).items():
            lines.append(f"  hit via {kind:10s} {n:6d}")
        for cause, n in a.get("miss_causes", {}).items():
            lines.append(f"  miss: {cause:22s} {n:6d}")
        pfu = a.get("placement_to_first_use_s", {})
        if pfu.get("count"):
            lines.append(
                f"  placement→first-use: mean {pfu['mean'] * 1e3:.2f} ms"
                f"  p50 {pfu['p50'] * 1e3:.2f} ms  p99 {pfu['p99'] * 1e3:.2f} ms"
            )

        lines.append("\n-- drift (Eq. 1 score vs next access, Kendall tau) --")
        if "tau_mean" in d:
            lines.append(
                f"  snapshots: {d.get('scored_snapshots', 0)}"
                f"   tau mean: {d['tau_mean']:+.3f}"
            )
            if "tau_first_half_mean" in d:
                lines.append(
                    f"  first half: {d['tau_first_half_mean']:+.3f}"
                    f"   second half: {d['tau_second_half_mean']:+.3f}"
                    f"   slope: {d.get('tau_slope_per_s', 0.0):+.4f}/s"
                )
        else:
            lines.append("  (not enough scored snapshots)")

        lines.append("\n-- oracle counterfactual (cumulative per tier prefix) --")
        for row in o.get("per_tier", []):
            lines.append(
                f"  ≤{row['tier']:12s} actual {row['actual_hit_ratio']:6.1%}"
                f"   ceiling {row['ceiling_hit_ratio']:6.1%}"
                f"   gap {row['gap']:+6.1%}"
            )
        lines.append(
            f"  regret (full hierarchy): {o.get('regret', 0.0):+.1%}"
            f"   demand-Belady: {o.get('demand_belady_hit_ratio', 0.0):.1%}"
            " (informative, not a bound)"
        )
        return "\n".join(lines)
