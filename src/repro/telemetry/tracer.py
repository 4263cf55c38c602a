"""Span tracing keyed to the DES virtual clock.

A :class:`SpanTracer` records *spans* — named intervals of virtual time
with attributes — and *marks* (zero-duration instants).  Every timestamp
is read off the simulation clock, so a trace of a thousand-second run is
produced in milliseconds of wall time and is bit-reproducible from the
seed: nothing here consults wall clocks or entropy.

Records live on *tracks* (one per simulated thread of control: a monitor
daemon, the placement engine, an I/O client worker, an application
rank) and may carry a *flow id* — the ``eid`` of the file-system event
they serve — so one event can be followed end-to-end across tracks:
inotify emit → queue dwell → auditor fold → DHM update → placement
decision → data movement.

Every instrumentation site records through a per-site :class:`Stream`
from :meth:`~SpanTracer.stream`.  A stream stores its
name/category/track and field names *once* and its records as flat
scalars, so the hot path is a single prebound ``list.extend`` with a
small tuple literal — no per-record dict, no per-record retained
container to pump the cyclic GC's allocation counter, no repeated
string traffic.  The two cold sites (the runner's ``run`` span and the
engine's ``engine.pass`` span, a handful per run) instead open a
:class:`Span` with :meth:`~SpanTracer.begin` and close it with
:meth:`~SpanTracer.end`; the tracer keeps those spans in one plain list.

The tracer never advances the clock and never schedules events; an
instrumented run is therefore result-identical to an uninstrumented one.
"""

from __future__ import annotations

from bisect import bisect_left
from itertools import chain
from math import inf, nextafter
from operator import itemgetter
from typing import Any, Optional

from repro.sim.core import Environment

__all__ = ["Span", "Stream", "SpanTracer"]


class Span:
    """One named interval of virtual time on one track.

    ``end`` is ``None`` while the span is open.  ``phase`` is the Chrome
    ``trace_event`` phase the span exports as: ``"X"`` (complete) for
    intervals, ``"i"`` for marks.
    """

    __slots__ = ("name", "cat", "track", "start", "end", "flow", "phase", "args")

    def __init__(
        self,
        name: str,
        cat: str,
        track: str,
        start: float,
        end: Optional[float] = None,
        flow: Optional[int] = None,
        phase: str = "X",
        args: Optional[dict] = None,
    ):
        self.name = name
        self.cat = cat
        self.track = track
        self.start = start
        self.end = end
        self.flow = flow
        self.phase = phase
        self.args = args

    @property
    def duration(self) -> float:
        """Virtual seconds covered (0.0 while open or for marks)."""
        return (self.end - self.start) if self.end is not None else 0.0

    def __repr__(self) -> str:  # pragma: no cover - debugging aid
        state = f"{self.start:.6f}..{self.end:.6f}" if self.end is not None else f"{self.start:.6f}.."
        return f"<Span {self.name!r} track={self.track!r} {state}>"


class Stream:
    """One hot instrumentation site's private record buffer.

    Everything constant about the site — span name, category, track and
    the *names* of its record attributes — is stored once here; each
    record is just the varying scalars, flattened into one backing list:

    * ``kind="mark"``   → ``ts, flow, *field_values``   per record
    * ``kind="span"``   → ``start, end, flow, *field_values`` per record

    :attr:`append` is prebound to the buffer's ``list.extend``, so a
    site records by calling ``append((ts, flow, ...))`` — one C-level
    call whose tuple literal dies immediately.  The retained slots are
    plain scalars the cyclic GC never tracks, which keeps a run's
    thousands of records from forcing extra young-gen collections.

    Field values must be scalars (str/int/float/None); they become the
    span's ``args`` when records are materialised for export.
    """

    __slots__ = (
        "name", "cat", "track", "kind", "fields", "stride", "buf", "append",
        "limit", "dropped",
    )

    def __init__(
        self,
        name: str,
        cat: str = "sim",
        track: str = "sim",
        kind: str = "mark",
        fields: tuple = (),
    ):
        if kind not in ("mark", "span"):
            raise ValueError(f"stream kind must be 'mark' or 'span', got {kind!r}")
        self.name = name
        self.cat = cat
        self.track = track
        self.kind = kind
        self.fields = tuple(fields)
        self.stride = (3 if kind == "span" else 2) + len(self.fields)
        self.buf: list = []
        self.append = self.buf.extend
        #: slots kept once the retention cap froze the stream, and the
        #: records trimmed past them
        self.limit: Optional[int] = None
        self.dropped = 0

    def __len__(self) -> int:
        return len(self.buf) // self.stride

    def __repr__(self) -> str:  # pragma: no cover
        return f"<Stream {self.name!r} track={self.track!r} records={len(self)}>"


class SpanTracer:
    """Records spans against one environment's virtual clock.

    Parameters
    ----------
    env:
        The simulation environment whose ``now`` stamps every span.
    max_spans:
        Retention cap, per run (not per track), bounding trace memory on
        long runs.  Stream buffers check the cap only when
        :meth:`enforce_caps` runs (each sampler tick, and at finalize),
        trading exactness at the cap for a branch-free hot path.
        :meth:`begin` checks it on every call: past the cap, or once
        :meth:`enforce_caps` froze the trace, a new span is counted in
        :attr:`dropped` instead of stored.  :meth:`settle_cap` bounds the
        finished trace exactly.
    """

    def __init__(self, env: Environment, max_spans: int = 1_000_000):
        if max_spans < 1:
            raise ValueError(f"max_spans must be >= 1, got {max_spans}")
        self.env = env
        self.max_spans = max_spans
        # spans from :meth:`begin`, in opening order
        self._begun: list[Span] = []
        # hot-site streams, in registration order
        self._streams: list[Stream] = []
        # materialised-Span cache, invalidated by record-count change
        self._spans: list[Span] = []
        self._cache_key: tuple = (0, 0)
        # the last flow-start map built by :meth:`flow_latencies`, with
        # the stage name and record counts it was built from
        self._starts: Optional[tuple] = None
        self.dropped = 0
        #: virtual time the retention cap froze the trace (None: never)
        self.frozen_at: Optional[float] = None
        # track ids in first-use order (deterministic given deterministic
        # code paths)
        self._tracks: dict[str, int] = {}

    def _track(self, track: str) -> None:
        if track not in self._tracks:
            self._tracks[track] = len(self._tracks)

    # -- streams -----------------------------------------------------------
    def stream(
        self,
        name: str,
        cat: str = "sim",
        track: str = "sim",
        kind: str = "mark",
        fields: tuple = (),
    ) -> Stream:
        """Open a per-site record stream (see :class:`Stream`).

        Layers create their streams once at telemetry-bind time (or at
        worker start-up for per-worker tracks) and keep the stream's
        ``append`` bound method; the registration order is part of the
        deterministic record order.
        """
        s = Stream(name, cat=cat, track=track, kind=kind, fields=fields)
        self._track(track)
        if self.frozen_at is not None:
            s.limit = 0
        self._streams.append(s)
        return s

    def named(self, name: str) -> list[Stream]:
        """The streams registered under ``name``, in registration order."""
        return [s for s in self._streams if s.name == name]

    def enforce_caps(self) -> None:
        """Hold every stream at its length once the retention cap is reached.

        Called off the hot path.  The first call at the cap freezes every
        stream's length and notes the time in :attr:`frozen_at`; later
        calls move the records appended since into :attr:`dropped`,
        trimming the buffers in place so the ``append`` methods the sites
        cached keep working.
        """
        if self.frozen_at is None:
            if len(self) >= self.max_spans:
                self.frozen_at = self.env.now
                for s in self._streams:
                    s.limit = len(s.buf)
            return
        for s in self._streams:
            excess = (len(s.buf) - s.limit) // s.stride
            if excess > 0:
                del s.buf[s.limit:]
                s.dropped += excess
                self.dropped += excess

    def settle_cap(self) -> None:
        """Bound the finished trace, views included, by the retention cap.

        If the trace was frozen or holds more than ``max_spans`` records,
        :attr:`frozen_at` moves back (never forward) to the latest time
        that keeps at most ``max_spans``; every stream and the
        :meth:`begin` list keep the records that start by then, and the
        rest count in :attr:`dropped`.
        """
        cut = self.frozen_at
        if cut is None and len(self) <= self.max_spans:
            return
        starts = sorted(chain(
            (sp.start for sp in self._begun),
            *(s.buf[0::s.stride] for s in self._streams),
        ))
        if len(starts) > self.max_spans:
            first_cut = starts[self.max_spans]  # the first record over the cap
            k = bisect_left(starts, first_cut)
            latest = starts[k - 1] if k else nextafter(first_cut, -inf)
            cut = latest if cut is None else min(cut, latest)
        self.frozen_at = cut
        kept = [sp for sp in self._begun if sp.start <= cut]
        self.dropped += len(self._begun) - len(kept)
        self._begun = kept
        for s in self._streams:
            buf, stride = s.buf, s.stride
            keep = [i for i in range(0, len(buf), stride) if buf[i] <= cut]
            excess = len(buf) // stride - len(keep)
            if excess:
                # in place: the sites' cached ``append`` stays bound
                buf[:] = [v for i in keep for v in buf[i : i + stride]]
                s.dropped += excess
                self.dropped += excess
            s.limit = len(buf)
        self._cache_key = None  # record counts alone no longer identify the cache
        self._starts = None

    # -- cold-site spans ---------------------------------------------------
    def begin(self, name: str, track: str = "sim", cat: str = "sim", **args: Any) -> Span:
        """Open a span at the current virtual time.

        Close it with :meth:`end` (spans may stay open across generator
        yields — the common case for simulated processes).  The span is
        returned, and must still be ended, even when the retention cap
        dropped it.
        """
        self._track(track)
        span = Span(name, cat, track, self.env.now, args=args or None)
        if self.frozen_at is None and len(self._begun) < self.max_spans:
            self._begun.append(span)
        else:
            self.dropped += 1
        return span

    def end(self, span: Span, **args: Any) -> Span:
        """Close ``span`` at the current virtual time, merging ``args``."""
        if span.end is not None:
            raise ValueError(f"span {span.name!r} already ended")
        span.end = self.env.now
        if args:
            if span.args is None:
                span.args = args
            else:
                span.args.update(args)
        return span

    # -- materialisation ---------------------------------------------------
    @property
    def spans(self) -> list[Span]:
        """Every recorded span and mark, ordered by start time.

        Stream records are materialised into :class:`Span` objects and
        merged with the spans from :meth:`begin`, sorted stably by
        ``(start, source, position)`` — source 0 is the :meth:`begin`
        list, then streams in registration order — so ties break
        deterministically.  The merged list is cached until a new record
        arrives; spans from :meth:`begin` keep their object identity.
        """
        key = (len(self._begun), sum(len(s.buf) for s in self._streams))
        if key == self._cache_key:
            return self._spans
        decorated: list = [((sp.start, 0, pos), sp) for pos, sp in enumerate(self._begun)]
        for si, s in enumerate(self._streams, 1):
            buf = s.buf
            stride = s.stride
            fields = s.fields
            is_span = s.kind == "span"
            base = 3 if is_span else 2
            for pos, i in enumerate(range(0, len(buf), stride)):
                start = buf[i]
                span = Span(
                    s.name, s.cat, s.track, start,
                    buf[i + 1] if is_span else start,
                    buf[i + base - 1],
                    "X" if is_span else "i",
                    dict(zip(fields, buf[i + base : i + stride])) if fields else None,
                )
                decorated.append(((start, si, pos), span))
        decorated.sort(key=itemgetter(0))
        self._spans = [span for _key, span in decorated]
        self._cache_key = key
        return self._spans

    @property
    def tracks(self) -> dict[str, int]:
        """Track-name → id mapping in first-use order."""
        return dict(self._tracks)

    # -- queries -----------------------------------------------------------
    def _flow_firsts(self, name: str) -> dict:
        """First record timestamp per flow, over the streams named ``name``
        (each is in nondecreasing virtual-time order, so first-seen is
        earliest) — never the whole trace."""
        out: dict = {}
        for s in self.named(name):
            buf = s.buf
            stride = s.stride
            fi = 2 if s.kind == "span" else 1
            # build {flow: ts} keeping the *earliest* record per flow:
            # zipping the columns reversed makes the first occurrence
            # the last write, all at C speed
            firsts = dict(zip(buf[fi::stride][::-1], buf[0::stride][::-1]))
            firsts.pop(None, None)
            if not out:
                out = firsts
            else:  # several streams share the name: earliest ts wins
                for flow, ts in firsts.items():
                    cur = out.get(flow)
                    if cur is None or ts < cur:
                        out[flow] = ts
        return out

    def flow_latencies(self, start_name: str, end_name: str) -> dict:
        """Per-flow latency from the first ``start_name`` record to the
        first ``end_name`` record at-or-after it, as ``{flow: seconds}``.

        Reads just the two stage names' record columns, so end-of-run
        folds (queue dwell, headline percentiles) cost microseconds.
        Every such fold starts at ``fs.emit``, so the start stage's map
        is kept and rebuilt only when its name or record counts change.
        """
        mark = (start_name, [len(s.buf) for s in self.named(start_name)])
        if self._starts is None or self._starts[0] != mark:
            self._starts = (mark, self._flow_firsts(start_name))
        starts = self._starts[1]
        out: dict = {}
        if not starts:
            return out
        for flow, ts in self._flow_firsts(end_name).items():
            t0 = starts.get(flow)
            if t0 is not None and ts >= t0:
                out[flow] = ts - t0
        return out

    def flow_count(self) -> int:
        """Number of distinct flow ids recorded.

        The flow column of each stream is pulled with one C-level slice,
        so this is cheap enough for the in-run headline summary.
        """
        flows: set = set()
        for s in self._streams:
            fi = 2 if s.kind == "span" else 1
            flows.update(s.buf[fi :: s.stride])
        flows.discard(None)
        return len(flows)

    def by_name(self, name: str) -> list[Span]:
        """All recorded spans with the given name, ordered by start."""
        return [s for s in self.spans if s.name == name]

    def __len__(self) -> int:
        return len(self._begun) + sum(len(s.buf) // s.stride for s in self._streams)

    def __repr__(self) -> str:  # pragma: no cover
        return f"<SpanTracer spans={len(self)} tracks={len(self._tracks)} dropped={self.dropped}>"
