"""Read-span pin: a run whose requests cover several segments and start
inside a segment.

The fixture run of ``test_trace_pin.py`` reads one whole segment per
request, so it never checks how segment reads group into requests or
that a span carries the requested bytes (``op.size``) rather than the
segments' bytes.  Here each rank issues, per step, a 3 MiB read at a
half-segment offset (four 1 MiB segments) and a 1 MiB read at a
quarter-segment offset (two segments); both ranks' first requests start
and end at the same instants.  The records and the ``read.latency_s``
count and sum were recorded while the runner appended ``runner.read``
live, one record per request.
"""

from repro.core.prefetcher import HFetchPrefetcher
from repro.diagnosis.provenance import EV_READ
from repro.runtime.runner import WorkflowRunner
from repro.telemetry import Telemetry
from repro.workloads.spec import FileDecl, ProcessSpec, ReadOp, StepSpec, WorkloadSpec

from .conftest import MB, hfetch_config, small_cluster

#: per rank track: (start, end, flow, file, bytes), one per request
READ_SPANS = {
    "rank-0": [
        (0.05, 0.0660056, None, "/m", 3145728),
        (0.0660056, 0.07801559999999999, None, "/m", 1048576),
        (0.1280156, 0.128411925, None, "/m", 3145728),
        (0.128411925, 0.1286173375, None, "/m", 1048576),
        (0.17861733750000003, 0.17901366250000003, None, "/m", 3145728),
        (0.17901366250000003, 0.17921907500000003, None, "/m", 1048576),
    ],
    "rank-1": [
        (0.05, 0.0660056, None, "/m", 3145728),
        (0.0660056, 0.07801079999999999, None, "/m", 1048576),
        (0.12801079999999998, 0.12840712499999998, None, "/m", 3145728),
        (0.12840712499999998, 0.12860773749999999, None, "/m", 1048576),
        (0.17860773749999997, 0.17900406249999998, None, "/m", 3145728),
        (0.17900406249999998, 0.17920467499999998, None, "/m", 1048576),
    ],
}
READ_LATENCY_COUNT = 12
READ_LATENCY_SUM = 0.058423749999999997
#: 2 ranks x 3 steps x (4 + 2) segments
SEGMENT_READS = 36


def unaligned_workload() -> WorkloadSpec:
    procs = []
    for pid in range(2):
        base = pid * 8 * MB
        reads = (
            ReadOp("/m", base + MB // 2, 3 * MB),
            ReadOp("/m", base + 5 * MB + MB // 4, MB),
        )
        procs.append(
            ProcessSpec(pid=pid, app="a", steps=tuple(StepSpec(0.05, reads) for _ in range(3)))
        )
    return WorkloadSpec("unaligned", [FileDecl("/m", 16 * MB, segment_size=MB)], procs)


def unaligned_run() -> Telemetry:
    tel = Telemetry(label="unaligned", sample_interval=0.05)
    WorkflowRunner(
        small_cluster(), unaligned_workload(), HFetchPrefetcher(hfetch_config()),
        telemetry=tel,
    ).run()
    tel.finalize()
    return tel


def test_multi_segment_read_spans_match_the_pin():
    tel = unaligned_run()
    spans = {
        s.track: [tuple(s.buf[i : i + 5]) for i in range(0, len(s.buf), 5)]
        for s in tel.tracer.named("runner.read")
    }
    assert spans == READ_SPANS
    hist = tel.registry.get("read.latency_s")
    assert hist.count == READ_LATENCY_COUNT
    assert hist.total == READ_LATENCY_SUM
    reads = [ev for ev in tel.provenance.events if ev[0] == EV_READ]
    assert len(reads) == SEGMENT_READS
