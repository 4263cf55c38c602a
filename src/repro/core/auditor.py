"""The File Segment Auditor (paper §III-A.2).

Calculates file-segment statistics from the event stream: access
frequency, recency, and sequencing.  All records live in the distributed
hash map so the view is global across nodes without a synchronisation
barrier; score-relevant updates are accumulated in a *dirty vector* that
the placement engine drains on each trigger ("All updated scores are
pushed by the auditor into a vector which the engine processes",
§III-D).

The auditor also keeps the per-file prefetching-epoch accounting (a
file is targeted for prefetching only while open for reading, §III-B).
It does not track where segments are: ``locate`` queries are answered
by the hierarchy's residency ledger and the I/O clients' in-flight map.
"""

from __future__ import annotations

from typing import Callable, Iterable, Optional

import numpy as np

from repro.core.config import HFetchConfig
from repro.core.heatmap import FileHeatmap, HeatmapStore
from repro.core.scoring_models import ScoringModel, get_scoring_model
from repro.core.stats import SegmentStats
from repro.dhm.hashmap import DistributedHashMap
from repro.events.types import EventType, FileEvent
from repro.storage.files import FileSystemModel

__all__ = ["FileSegmentAuditor"]

_READ = EventType.READ
_WRITE = EventType.WRITE

#: Capacity of the dirty-score vector ("all updated scores are pushed by
#: the auditor into a vector which the engine processes", §III-D).  Like
#: the kernel's event queue, the buffer is bounded: score updates arriving
#: while it is full are dropped (the statistics in the hash map survive;
#: only the placement hint is lost).  A sluggish engine therefore *loses*
#: the freshest placement candidates — the cost of low reactiveness in
#: Fig. 3(b).
DIRTY_VECTOR_CAPACITY = 1024


class FileSegmentAuditor:
    """Segment statistics, sequencing links and epochs, backed by the DHM."""

    def __init__(
        self,
        config: HFetchConfig,
        fs: FileSystemModel,
        stats_map: Optional[DistributedHashMap] = None,
        heatmaps: Optional[HeatmapStore] = None,
    ):
        self.config = config
        self.fs = fs
        self.stats_map = stats_map if stats_map is not None else DistributedHashMap(shards=1)
        self.stats_map.shard_key = fs.segment_key
        self.heatmaps = heatmaps if heatmaps is not None else HeatmapStore()
        #: swappable scoring strategy (Eq. 1 by default)
        self.scoring_model: ScoringModel = get_scoring_model(config.scoring_model)
        # epoch refcounts: file_id -> number of concurrent read-openers
        self._epochs: dict[str, int] = {}
        # sequencing: last segment accessed per file, then per accessor
        # stream (pid).  The *scores* are global (data-centric), but
        # successor links must follow each process's own stream —
        # interleaving thousands of ranks into one chain would corrupt
        # the logical map of connected segments the engine walks for
        # lookahead.  Epoch teardown and invalidation drop a file's entry.
        self._last_segment: dict[str, dict[int, int]] = {}
        # dirty vector (ordered de-dup) for the placement engine
        self._dirty: dict[int, None] = {}
        # segment home node: node of the first accessor
        self._home_node: dict[int, int] = {}
        # last content version seen per file (the stat-on-open check)
        self._seen_version: dict[str, int] = {}
        # listeners told how many score updates each fold made (the
        # engine's count trigger)
        self._update_listeners: list[Callable[[int], None]] = []
        # invalidation hook installed by the server (the engine's eviction)
        self.invalidate_hook: Optional[Callable[[str], None]] = None
        # instrumentation
        self.events_processed = 0
        self.score_updates = 0
        self.invalidations = 0
        self.dirty_dropped = 0
        # telemetry (None in normal runs: zero overhead)
        self.telemetry = None
        self._tel_env = None
        self._fold_mark = None
        self._flows = None

    def bind_telemetry(self, tel) -> None:
        """Open the fold trace stream on a live handle and register the
        ``dhm.update`` stream its finalize fills from the fold records."""
        self.telemetry = tel
        self._tel_env = tel.tracer.env
        self._flows = tel.provenance.flow
        self._fold_mark = tel.tracer.stream(
            "auditor.fold", "auditor", "auditor", fields=("segments",)
        ).append
        tel.tracer.stream("dhm.update", "dhm", "dhm")

    # -- wiring ----------------------------------------------------------------
    def add_update_listener(self, fn: Callable[[int], None]) -> None:
        """Register a callback invoked with each fold's score-update count."""
        self._update_listeners.append(fn)

    # -- epochs (fopen..fclose windows, §III-B) -----------------------------------
    def start_epoch(self, file_id: str) -> bool:
        """Begin (or join) a prefetching epoch; True when newly started."""
        first = self._epochs.get(file_id, 0) == 0
        self._epochs[file_id] = self._epochs.get(file_id, 0) + 1
        if first:
            # stat-on-open: a write that happened while the file was
            # unwatched (no epoch, so no inotify events) must still
            # invalidate any stale prefetched copies
            if self.fs.exists(file_id):
                version = self.fs.get(file_id).version
                if self._seen_version.get(file_id, version) != version:
                    self._invalidate(file_id)
                self._seen_version[file_id] = version
            stored = self.heatmaps.load(file_id)
            if stored is not None:
                self._seed_from_heatmap(file_id, stored)
        return first

    def end_epoch(self, file_id: str, now: float = 0.0) -> bool:
        """Leave an epoch; True when the last opener closed the file."""
        count = self._epochs.get(file_id, 0)
        if count <= 1:
            self._epochs.pop(file_id, None)
            self._last_segment.pop(file_id, None)
            if self.fs.exists(file_id):
                self.heatmaps.save(self.build_heatmap(file_id, now))
            return True
        self._epochs[file_id] = count - 1
        return False

    def in_epoch(self, file_id: str) -> bool:
        """Whether the file is currently targeted for prefetching."""
        return self._epochs.get(file_id, 0) > 0

    @property
    def active_epochs(self) -> int:
        """Number of files currently in an open epoch."""
        return len(self._epochs)

    def _seed_from_heatmap(self, file_id: str, heatmap: FileHeatmap) -> None:
        """Warm the dirty vector from a stored heatmap on re-open.

        This is what lets HFetch start prefetching a re-opened file
        immediately, "in contrast to history-based prefetchers" that need
        a profiling run (§III-B): segments that were hot last epoch are
        handed to the engine as placement candidates right away.
        """
        f = self.fs.get(file_id)
        num_segments = f.num_segments
        scores = heatmap.scores
        # hottest() selects the top k via argpartition — O(n) in the
        # heatmap length rather than a full sort per re-open.
        for index in heatmap.hottest(k=min(heatmap.num_segments, 1024)):
            if scores[index] <= 0:
                break
            if index < num_segments:
                self._dirty[f.base + index] = None

    # -- event consumption (called by the hardware monitor's daemons) ---------------
    def on_event(self, event: FileEvent) -> None:
        """Fold one enriched file event into the statistics."""
        self.on_events((event,))

    def on_events(self, events: Iterable[FileEvent]) -> int:
        """Fold enriched file events into the statistics, in order.

        The monitor's daemons call this with one event at a time.  A
        read atomically updates each targeted segment's record in the
        DHM and links it to its predecessor in the reader's stream; a
        write invalidates the file (§III-B); OPEN/CLOSE carry nothing
        here, since epochs are driven by the agent manager, which sees
        the open flags.

        Records are mutated in place through
        :meth:`~repro.dhm.hashmap.DistributedHashMap.local_shard`, with
        the map traffic charged as if each access were its own ``update``
        (one statistics update, plus one ``get`` and one link update of
        the predecessor), in one
        :meth:`~repro.dhm.hashmap.DistributedHashMap.charge_batch` per
        call.  Update listeners are then called once with the number of
        score updates the call made.

        Since the daemons call it once per event, the fixed cost of a
        call is kept small: only the state the read path uses is bound
        up front.

        Returns the number of events folded.
        """
        lookup = self.fs.lookup
        stats_map = self.stats_map
        nshards = stats_map.shards
        shard_of = stats_map.shard_of
        local_shard = stats_map.local_shard
        wal = stats_map.wal
        dirty = self._dirty
        dirty_cap = DIRTY_VECTOR_CAPACITY
        last_segment = self._last_segment
        home_node = self._home_node
        flows = self._flows
        fold_mark = self._fold_mark
        processed = 0
        score_updates = 0
        dirty_dropped = 0
        n_updates = 0
        n_gets = 0
        n_local = 0
        n_remote = 0

        for event in events:
            processed += 1
            etype = event.etype
            if etype is _READ:
                fid = event.file_id
                f = lookup(fid)
                if f is None:
                    continue
                keys = f.read_segments(event.offset, event.size)
                if not keys:
                    continue
                streams = last_segment.get(fid)
                if streams is None:
                    last_segment[fid] = streams = {}
                pid = event.pid
                prev = streams.get(pid)
                when = event.timestamp
                node = event.node
                node_shard = node % nshards
                for key in keys:
                    if flows is not None:
                        flows[key] = event.eid
                    sid = 0 if nshards == 1 else shard_of(key)
                    shard = local_shard(sid)
                    stats = shard.get(key)
                    if stats is None:
                        stats = SegmentStats(key=key, nbytes=f.segment_bytes(key))
                        shard[key] = stats
                    stats.record(when)
                    n_updates += 1
                    if node_shard == sid:
                        n_local += 1
                    else:
                        n_remote += 1
                    if wal is not None:
                        wal.log_put(key, stats)
                    if prev is not None and prev != key:
                        # sequencing link on the predecessor: one local
                        # get, plus one local update when the record exists
                        psid = 0 if nshards == 1 else shard_of(prev)
                        prev_stats = local_shard(psid).get(prev)
                        n_gets += 1
                        n_local += 1
                        if prev_stats is not None:
                            # the link update is its own map op: taking
                            # the handle again charges a down shard's
                            # retries, as a separate ``update`` would
                            local_shard(psid)
                            prev_stats.link_successor(key)
                            n_updates += 1
                            n_local += 1
                            if wal is not None:
                                wal.log_put(prev, prev_stats)
                    if key not in home_node:
                        home_node[key] = node
                    if len(dirty) < dirty_cap or key in dirty:
                        dirty[key] = None
                    else:
                        # bounded vector: the placement hint is dropped (the
                        # stats in the map survive and a later access can
                        # re-surface it)
                        dirty_dropped += 1
                    score_updates += 1
                    prev = key
                streams[pid] = prev
                if fold_mark is not None:
                    fold_mark((self._tel_env.now, event.eid, len(keys)))
            elif etype is _WRITE:
                self._on_write(event)
            # OPEN/CLOSE: epochs are driven by the agent manager (below).

        # -- post-batch flush ----------------------------------------------
        self.events_processed += processed
        self.dirty_dropped += dirty_dropped
        if n_updates or n_gets:
            stats_map.charge_batch(
                local_ops=n_local, remote_ops=n_remote, gets=n_gets, updates=n_updates
            )
        if score_updates:
            self.score_updates += score_updates
            for listener in self._update_listeners:
                listener(score_updates)
        return processed

    def _on_write(self, event: FileEvent) -> None:
        """Update events invalidate previously prefetched data (§III-B)."""
        if self.fs.exists(event.file_id):
            self._seen_version[event.file_id] = self.fs.get(event.file_id).version
        self._invalidate(event.file_id)

    def _invalidate(self, file_id: str) -> None:
        self.invalidations += 1
        # Drop statistics of the written file — its content changed.  The
        # walk covers the file's current id range only, so it costs
        # O(segments-of-the-file) whatever else the map and the dirty
        # vector hold.  The uncharged membership test leaves one charged
        # ``delete`` per record that exists.  A down shard of a map with
        # no WAL cannot tell: its records are out of sight until recovery,
        # so every id on it is deleted (tombstoned) unconditionally.
        stats_map, dirty = self.stats_map, self._dirty
        blind = stats_map.down_shards if stats_map.wal is None else ()
        shard_of = stats_map.shard_of
        for key in self.fs.ids_of(file_id):
            if key in stats_map or (blind and shard_of(key) in blind):
                stats_map.delete(key)
            dirty.pop(key, None)
        self._last_segment.pop(file_id, None)
        if self.invalidate_hook is not None:
            self.invalidate_hook(file_id)

    # -- queries --------------------------------------------------------------------
    def stats_of(self, key: int) -> Optional[SegmentStats]:
        """Raw statistics record of a segment, if any.

        An uncharged :meth:`~repro.dhm.hashmap.DistributedHashMap.peek`:
        the placement engine reads its co-located view of the map.
        """
        return self.stats_map.peek(key)

    def home_node(self, key: int) -> int:
        """Node of the segment's first accessor (locality hint)."""
        return self._home_node.get(key, 0)

    def score_of(self, key: int, now: float) -> float:
        """Current score of one segment under the configured model."""
        stats = self.stats_map.get(key)
        if stats is None:
            return 0.0
        return self.scoring_model.score(stats, now, self.config.decay_base)

    def drain_dirty(self) -> list[int]:
        """Hand the accumulated dirty vector to the engine (clears it)."""
        dirty = list(self._dirty)
        self._dirty.clear()
        return dirty

    @property
    def pending_updates(self) -> int:
        """Dirty segments awaiting an engine pass."""
        return len(self._dirty)

    def batch_score(self, keys: Iterable[int], now: float) -> np.ndarray:
        """Vectorised scores for ``keys`` under the configured model.

        Stats are fetched through the DHM's bulk shard-local path — one
        aggregated charge instead of one charged ``get`` per key, so a
        full-file :meth:`build_heatmap` no longer pays per-segment DHM
        overhead.
        """
        stats_list = self.stats_map.get_many(keys)
        return self.scoring_model.batch(stats_list, now, self.config.decay_base)

    def build_heatmap(self, file_id: str, now: float) -> FileHeatmap:
        """Materialise the file's current heatmap (§III-C)."""
        scores = self.batch_score(self.fs.get(file_id).segments(), now)
        return FileHeatmap(file_id=file_id, scores=scores, captured_at=now)

    def __repr__(self) -> str:  # pragma: no cover
        return (
            f"<FileSegmentAuditor events={self.events_processed} "
            f"updates={self.score_updates} dirty={len(self._dirty)}>"
        )
