"""Telemetry must never change what the simulation computes.

Two guarantees, mirroring the fault subsystem's equivalence suite:

* **disabled path**: ``telemetry=None`` installs nothing — results are
  bit-identical to a run that predates the subsystem, and no layer holds
  a handle.
* **enabled path** (stronger than the issue demands): because the tracer
  and registry only *read* the virtual clock and never schedule events,
  even a fully instrumented run produces the identical
  :class:`~repro.metrics.collector.RunResult`.
"""

from repro.metrics import format_run_results
from repro.prefetchers import NoPrefetcher, ParallelPrefetcher
from repro.runtime.runner import WorkflowRunner
from repro.telemetry import Telemetry

from .conftest import result_signature, run_hfetch, small_cluster, small_workload


class TestDisabledPath:
    def test_nothing_installed_without_telemetry(self):
        runner, _ = run_hfetch(telemetry=None)
        server = runner.prefetcher.server
        assert runner.telemetry is None
        assert runner.ctx.telemetry is None
        assert server.telemetry is None
        assert server.queue.telemetry is None
        assert server.inotify.telemetry is None
        assert server.auditor.telemetry is None
        assert server.monitor.telemetry is None
        assert server.engine.telemetry is None
        assert server.io_clients.telemetry is None
        assert server.stats_map._h_op is None

    def test_extra_has_no_telemetry_key(self):
        _, result = run_hfetch()
        assert "telemetry" not in result.extra


class TestEnabledEquivalence:
    """Instrumentation reads the clock but never advances it."""

    def test_instrumented_run_is_result_identical(self):
        _, plain = run_hfetch()
        tel = Telemetry(label="equiv")
        runner, instrumented = run_hfetch(telemetry=tel)
        assert result_signature(plain) == result_signature(instrumented)
        assert format_run_results([plain]) == format_run_results([instrumented])
        # ...while actually recording a full trace
        assert len(tel.tracer.spans) > 100
        assert "telemetry" in instrumented.extra

    def test_instrumented_server_counters_match_plain(self):
        runner_plain, _ = run_hfetch()
        runner_instr, _ = run_hfetch(telemetry=Telemetry())
        assert (
            runner_plain.prefetcher.server.metrics()
            == runner_instr.prefetcher.server.metrics()
        )

    def test_sampler_does_not_perturb_results(self):
        _, plain = run_hfetch()
        _, sampled = run_hfetch(telemetry=Telemetry(sample_interval=0.01))
        assert result_signature(plain) == result_signature(sampled)

    def test_baselines_accept_telemetry(self):
        for make_pf in (NoPrefetcher, ParallelPrefetcher):
            plain = WorkflowRunner(small_cluster(), small_workload(), make_pf()).run()
            instrumented = WorkflowRunner(
                small_cluster(),
                small_workload(),
                make_pf(),
                telemetry=Telemetry(),
            ).run()
            assert result_signature(plain) == result_signature(instrumented)

    def test_instrumented_runs_are_deterministic(self):
        tel_a = Telemetry()
        tel_b = Telemetry()
        _, a = run_hfetch(telemetry=tel_a, seed=2020)
        _, b = run_hfetch(telemetry=tel_b, seed=2020)
        assert result_signature(a) == result_signature(b)
        # traces are reproducible too: same spans, names and timestamps.
        # Flow ids come from the process-global event counter, so they are
        # normalised to first-appearance order before comparing.
        def signature(tracer):
            order: dict = {}
            out = []
            for s in tracer.spans:
                flow = s.flow
                if flow is not None:
                    flow = order.setdefault(flow, len(order))
                out.append((s.name, s.track, s.start, s.end, flow))
            return out

        assert len(tel_a.tracer.spans) == len(tel_b.tracer.spans)
        assert signature(tel_a.tracer) == signature(tel_b.tracer)


class TestHandleLifecycle:
    def test_handle_is_single_run(self):
        import pytest

        tel = Telemetry()
        run_hfetch(telemetry=tel)
        with pytest.raises(RuntimeError):
            run_hfetch(telemetry=tel)

    def test_verbose_row_flattens_telemetry(self):
        tel = Telemetry()
        _, result = run_hfetch(telemetry=tel)
        row = result.row(verbose=True)
        assert row["tel:trace_spans"] == len(tel.tracer.spans)
        assert "tel:metrics" in row
        # the default row is unchanged
        assert "tel:trace_spans" not in result.row()
