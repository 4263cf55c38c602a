"""Span tracing keyed to the DES virtual clock.

A :class:`SpanTracer` records *spans* — named intervals of virtual time
with attributes — and *instants* (zero-duration marks).  Every timestamp
is read off the simulation clock, so a trace of a thousand-second run is
produced in milliseconds of wall time and is bit-reproducible from the
seed: nothing here consults wall clocks or entropy.

Spans live on *tracks* (one per simulated thread of control: a monitor
daemon, the placement engine, an I/O client worker, an application
rank), nest within their track, and may carry a *flow id* — the ``eid``
of the file-system event they serve — so one event can be followed
end-to-end across tracks: inotify emit → queue dwell → auditor fold →
DHM update → placement decision → data movement.

Two recording APIs coexist:

* the generic :meth:`~SpanTracer.begin`/:meth:`~SpanTracer.end` /
  :meth:`~SpanTracer.instant` calls, for cold sites (a handful of
  records per run) and ad-hoc use;
* per-site :class:`Stream` buffers from :meth:`~SpanTracer.stream`, for
  the per-event pipeline sites that fire thousands of times per run.
  A stream stores its name/category/track and field names *once* and
  its records as flat scalars, so the hot path is a single prebound
  ``list.extend`` with a small tuple literal — no per-record dict, no
  per-record retained container to pump the cyclic GC's allocation
  counter, no repeated string traffic.

The tracer never advances the clock and never schedules events; an
instrumented run is therefore result-identical to an uninstrumented one.
"""

from __future__ import annotations

from contextlib import contextmanager
from operator import itemgetter
from typing import Any, Iterator, Optional

from repro.sim.core import Environment

__all__ = ["Span", "Stream", "SpanTracer"]

#: tail-slot sentinel: the record's slot 0 holds a live :class:`Span`
_OPEN = object()


class Span:
    """One named interval of virtual time on one track.

    ``end`` is ``None`` while the span is open.  ``phase`` is the Chrome
    ``trace_event`` phase the span exports as: ``"X"`` (complete) for
    intervals, ``"i"`` for instants.
    """

    __slots__ = ("name", "cat", "track", "start", "end", "args", "flow", "depth", "phase")

    def __init__(
        self,
        name: str,
        cat: str,
        track: str,
        start: float,
        flow: Optional[int] = None,
        depth: int = 0,
        phase: str = "X",
        args: Optional[dict] = None,
    ):
        self.name = name
        self.cat = cat
        self.track = track
        self.start = start
        self.end: Optional[float] = None
        self.args = args
        self.flow = flow
        self.depth = depth
        self.phase = phase

    @property
    def duration(self) -> float:
        """Virtual seconds covered (0.0 while open or for instants)."""
        return (self.end - self.start) if self.end is not None else 0.0

    @property
    def closed(self) -> bool:
        """Whether :meth:`SpanTracer.end` has been called on this span."""
        return self.end is not None

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
        Retention cap.  Past it new generic records are counted in
        :attr:`dropped` instead of stored, bounding trace memory on
        long runs (the cap is per run, not per track).  Stream buffers
        check the cap only when :meth:`enforce_caps` runs (each sampler
        tick, and at finalize), trading exactness at the cap for a
        branch-free hot path.
    """

    _STRIDE = 8  # scalar slots per generic record in the flat log

    def __init__(self, env: Environment, max_spans: int = 1_000_000):
        if max_spans < 1:
            raise ValueError(f"max_spans must be >= 1, got {max_spans}")
        self.env = env
        self.max_spans = max_spans
        # Generic-API record log: one flat list of scalars, eight slots
        # per record: ``name, cat, track, start, flow, depth, args,
        # tail`` where ``tail`` is ``None`` for instants, or the
        # ``_OPEN`` sentinel marking a :class:`Span` object (from
        # :meth:`begin`) stored in slot 0.
        self._flat: list = []
        self._max_flat = max_spans * self._STRIDE
        # hot-site streams, in registration order
        self._streams: list[Stream] = []
        # materialised-Span cache, invalidated by record-count change
        self._spans: list[Span] = []
        self._cache_key: tuple = (0, 0)
        self.dropped = 0
        #: virtual time the retention cap froze the streams (None: never)
        self.frozen_at: Optional[float] = None
        # per-track open-span stacks (nesting) and track ids in
        # first-use order (deterministic given deterministic code paths)
        self._stacks: dict[str, list[Span]] = {}
        self._tracks: dict[str, int] = {}

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
        if track not in self._tracks:
            self._tracks[track] = len(self._tracks)
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

    # -- materialisation ---------------------------------------------------
    @property
    def spans(self) -> list[Span]:
        """Every recorded span/instant, ordered by start time.

        Generic records and stream records are materialised into
        :class:`Span` objects and merged, sorted stably by ``(start,
        source, position)`` — source 0 is the generic log, then streams
        in registration order — so ties break deterministically.  The
        merged list is cached until a new record arrives; spans from
        :meth:`begin` keep their object identity across rebuilds.
        """
        flat = self._flat
        key = (len(flat), sum(len(s.buf) for s in self._streams))
        if key == self._cache_key:
            return self._spans
        decorated: list = []
        pos = 0
        for i in range(0, len(flat), 8):
            if flat[i + 7] is _OPEN:
                span = flat[i]
            else:  # instant
                span = Span.__new__(Span)
                span.name = flat[i]
                span.cat = flat[i + 1]
                span.track = flat[i + 2]
                span.start = span.end = flat[i + 3]
                span.flow = flat[i + 4]
                span.depth = flat[i + 5]
                span.args = flat[i + 6]
                span.phase = "i"
            decorated.append(((span.start, 0, pos), span))
            pos += 1
        for si, s in enumerate(self._streams, 1):
            buf = s.buf
            stride = s.stride
            fields = s.fields
            base = 3 if s.kind == "span" else 2
            is_span = s.kind == "span"
            for pos, i in enumerate(range(0, len(buf), stride)):
                span = Span.__new__(Span)
                span.name = s.name
                span.cat = s.cat
                span.track = s.track
                span.start = buf[i]
                if is_span:
                    span.end = buf[i + 1]
                    span.flow = buf[i + 2]
                    span.phase = "X"
                else:
                    span.end = buf[i]
                    span.flow = buf[i + 1]
                    span.phase = "i"
                span.depth = 0
                span.args = (
                    dict(zip(fields, buf[i + base : i + stride])) if fields else None
                )
                decorated.append(((span.start, si, pos), span))
        decorated.sort(key=itemgetter(0))
        self._spans = [span for _key, span in decorated]
        self._cache_key = key
        return self._spans

    # -- tracks ------------------------------------------------------------
    def track_id(self, track: str) -> int:
        """Stable integer id of a track (assigned on first use)."""
        tid = self._tracks.get(track)
        if tid is None:
            self._tracks[track] = tid = len(self._tracks)
        return tid

    @property
    def tracks(self) -> dict[str, int]:
        """Track-name → id mapping in first-use order."""
        return dict(self._tracks)

    # -- spans -------------------------------------------------------------
    def begin(
        self,
        name: str,
        track: str = "sim",
        cat: str = "sim",
        flow: Optional[int] = None,
        **args: Any,
    ) -> Span:
        """Open a span at the current virtual time.

        The span nests under whatever span is currently open on the same
        track.  Close it with :meth:`end` (spans may stay open across
        generator yields — the common case for simulated processes).
        """
        tracks = self._tracks
        if track not in tracks:
            tracks[track] = len(tracks)
        stack = self._stacks.setdefault(track, [])
        # bypass Span.__init__: one slot write per field beats a nested
        # Python call with nine arguments
        span = Span.__new__(Span)
        span.name = name
        span.cat = cat
        span.track = track
        span.start = self.env.now
        span.end = None
        span.args = args or None
        span.flow = flow
        span.depth = len(stack)
        span.phase = "X"
        stack.append(span)
        flat = self._flat
        if len(flat) < self._max_flat:
            flat.extend((span, None, None, None, None, None, None, _OPEN))
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
        stack = self._stacks.get(span.track)
        if stack:
            if stack[-1] is span:  # the common, well-nested case
                stack.pop()
            else:
                try:
                    stack.remove(span)
                except ValueError:
                    pass
        return span

    @contextmanager
    def span(
        self,
        name: str,
        track: str = "sim",
        cat: str = "sim",
        flow: Optional[int] = None,
        **args: Any,
    ) -> Iterator[Span]:
        """Context-manager form of :meth:`begin`/:meth:`end`."""
        sp = self.begin(name, track=track, cat=cat, flow=flow, **args)
        try:
            yield sp
        finally:
            self.end(sp)

    def instant(
        self,
        name: str,
        track: str = "sim",
        cat: str = "sim",
        flow: Optional[int] = None,
        **args: Any,
    ) -> None:
        """Record a zero-duration mark at the current virtual time."""
        flat = self._flat
        if len(flat) >= self._max_flat:
            self.dropped += 1
            return
        tracks = self._tracks
        if track not in tracks:
            tracks[track] = len(tracks)
        stack = self._stacks.get(track)
        flat.extend(
            (name, cat, track, self.env.now, flow,
             len(stack) if stack else 0, args or None, None)
        )

    # -- queries -----------------------------------------------------------
    def _flow_firsts(self, name: str) -> dict:
        """First record timestamp per flow, over records named ``name``.

        Walks only the streams registered under that name (each is in
        nondecreasing virtual-time order, so first-seen is earliest)
        plus the small generic log — never the whole trace.
        """
        out: dict = {}
        for s in self._streams:
            if s.name != name:
                continue
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
        flat = self._flat
        for i in range(0, len(flat), 8):
            if flat[i + 7] is _OPEN:
                span = flat[i]
                if span.name != name or span.flow is None:
                    continue
                flow, ts = span.flow, span.start
            elif flat[i] == name:
                flow, ts = flat[i + 4], flat[i + 3]
                if flow is None:
                    continue
            else:
                continue
            cur = out.get(flow)
            if cur is None or ts < cur:
                out[flow] = ts
        return out

    def begun(self, name: str) -> list[Span]:
        """Spans opened with :meth:`begin` under ``name``, in opening order."""
        return [
            sp for sp in self._flat[0::8] if sp.__class__ is Span and sp.name == name
        ]

    def flow_latencies(self, start_name: str, end_name: str) -> dict:
        """Per-flow latency from the first ``start_name`` record to the
        first ``end_name`` record at-or-after it, as ``{flow: seconds}``.

        Reads just the two stage names' record columns, so end-of-run
        folds (queue dwell, headline percentiles) cost microseconds.
        """
        starts = self._flow_firsts(start_name)
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
        flat = self._flat
        for i in range(0, len(flat), 8):
            if flat[i + 7] is _OPEN:
                flows.add(flat[i].flow)
            else:
                flows.add(flat[i + 4])
        flows.discard(None)
        return len(flows)

    def current(self, track: str) -> Optional[Span]:
        """The innermost open span of a track, if any."""
        stack = self._stacks.get(track)
        return stack[-1] if stack else None

    def open_spans(self) -> list[Span]:
        """Every span not yet ended (diagnostic: should be empty at exit)."""
        return [s for s in self.spans if s.end is None]

    def by_name(self, name: str) -> list[Span]:
        """All recorded spans with the given name, ordered by start."""
        return [s for s in self.spans if s.name == name]

    def by_flow(self, flow: int) -> list[Span]:
        """All spans carrying one flow id, sorted by start time."""
        return [s for s in self.spans if s.flow == flow]

    def flows(self) -> dict[int, list[Span]]:
        """Flow id → spans mapping for every flow seen."""
        out: dict[int, list[Span]] = {}
        for span in self.spans:
            if span.flow is not None:
                out.setdefault(span.flow, []).append(span)
        return out

    def __len__(self) -> int:
        return len(self._flat) // 8 + sum(
            len(s.buf) // s.stride for s in self._streams
        )

    def __repr__(self) -> str:  # pragma: no cover
        return f"<SpanTracer spans={len(self)} tracks={len(self._tracks)} dropped={self.dropped}>"
