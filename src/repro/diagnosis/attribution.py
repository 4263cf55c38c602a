"""Causal replay of a provenance log: who earned each hit, why each miss.

The replay walks the :class:`~repro.diagnosis.provenance.ProvenanceLog`
event list once, in append order (= the simulation's causal order), and
maintains per-segment *serving windows*: the interval during which a
placement decision's copy is the one application reads are served from.

The window rules mirror the simulator's serving semantics exactly
(:meth:`repro.core.io_clients.IOClientPool.serving_tier_name`):

* a decision that submits a move keeps the segment served from its
  *source* until the move settles — the window opens at ``move_done``,
  not at ledger placement (timeliness is the whole game);
* a ledger-only decision (source tier == destination tier, no bytes
  moved) opens its window immediately;
* a window closes when a later move supersedes it, when the segment is
  evicted / invalidated / displaced, or at end of run.

Each *move lineage* (a decision that submitted a physical move,
identified by its decision id — retries keep the id) reaches exactly
one terminal classification, consumed by
:mod:`repro.diagnosis.waste`:

* ``used``                — at least one read was served from the moved
  copy during its window;
* ``invalidated-unused``  — the copy was consistency-invalidated by a
  write before any read used it;
* ``evicted-unused``      — the copy was displaced (demotion, placement
  rejection, tier failure, supersession) before any read used it;
* ``dead-on-arrival``     — the move terminally failed, never completed,
  or completed and sat unread until the end of the run.
"""

from __future__ import annotations

from collections import Counter
from dataclasses import dataclass, field

from repro.diagnosis.provenance import (
    EV_DECISION,
    EV_EVICT,
    EV_MOVE_DONE,
    EV_MOVE_FAILED,
    EV_READ,
)

__all__ = ["Decision", "ReplayResult", "replay"]

#: waste classes (the four buckets of the analyzer)
USED = "used"
EVICTED_UNUSED = "evicted-unused"
INVALIDATED_UNUSED = "invalidated-unused"
DEAD_ON_ARRIVAL = "dead-on-arrival"

WASTE_CLASSES = (USED, EVICTED_UNUSED, INVALIDATED_UNUSED, DEAD_ON_ARRIVAL)


@dataclass
class Decision:
    """One recorded Algorithm 1 outcome (see :class:`ProvenanceLog`)."""

    did: int
    t: float
    sid: int
    kind: str
    score: float
    rank: int
    src: str
    dst: str
    nbytes: int
    moved: bool
    #: hits credited to this decision's copy
    hits: int = 0
    #: reads (hit or not) served from this decision's copy
    uses: int = 0
    #: virtual time from decision to the copy's first use (None: unused)
    first_use_delay: float = None  # type: ignore[assignment]


@dataclass
class ReplayResult:
    """Everything one replay pass derives; consumed by waste/report."""

    decisions: dict[int, Decision] = field(default_factory=dict)
    #: move lineage did -> waste class (exactly one per moved decision)
    move_class: dict[int, str] = field(default_factory=dict)
    #: (t, sid, did) for every hit credited to a decision window
    credits: list[tuple] = field(default_factory=list)
    hits_by_kind: Counter = field(default_factory=Counter)
    miss_causes: Counter = field(default_factory=Counter)
    #: hits served from a tier with no open window (e.g. a baseline's
    #: own cache, or an exotic in-flight interleaving)
    unattributed_hits: int = 0
    reads: int = 0
    hits: int = 0
    #: t_first_use - t_window_open per used window (placement -> use lag)
    first_use_delays: list[float] = field(default_factory=list)
    #: t_first_use - t_decision per used window (decision -> use lag)
    decision_to_use: list[float] = field(default_factory=list)
    #: sids displaced by a tier failure (chaos attribution checks)
    displaced_sids: set = field(default_factory=set)

    @property
    def attributed_hits(self) -> int:
        return len(self.credits)


class _SegState:
    """Per-segment replay state."""

    __slots__ = ("win", "pending", "last_loss", "had_decision")

    def __init__(self):
        # open serving window: [tier, did, t_open, uses, from_move] | None
        self.win = None
        # did -> [src, dst, cancel_cause|None] for in-flight moves
        self.pending: dict[int, list] = {}
        self.last_loss = None  # cause the segment last left a cache tier
        self.had_decision = False


def replay(prov) -> ReplayResult:
    """One pass over the event list; O(events)."""
    out = ReplayResult()
    states: dict[int, _SegState] = {}
    move_class = out.move_class
    decisions = out.decisions

    def state(sid: int) -> _SegState:
        st = states.get(sid)
        if st is None:
            st = states[sid] = _SegState()
        return st

    def classify(did: int, cls: str) -> None:
        # first classification wins; move lineages terminate exactly once
        if did >= 0 and did not in move_class:
            move_class[did] = cls

    def close_window(st: _SegState, t: float, cause: str) -> None:
        win = st.win
        if win is None:
            return
        st.win = None
        tier, did, t0, uses, from_move = win
        if from_move:
            if uses > 0:
                classify(did, USED)
            elif cause == "invalidated":
                classify(did, INVALIDATED_UNUSED)
            elif cause == "run-end":
                classify(did, DEAD_ON_ARRIVAL)
            else:
                classify(did, EVICTED_UNUSED)
        st.last_loss = cause

    for ev in prov.events:
        tag = ev[0]
        if tag == EV_READ:
            _t, t, sid, served, origin, hit, nbytes, pid, _t0, _size = ev
            out.reads += 1
            st = states.get(sid)
            win = st.win if st is not None else None
            if hit:
                out.hits += 1
                if win is not None and win[0] == served:
                    if win[3] == 0:
                        dec = decisions[win[1]]
                        delay = t - win[2]
                        dec.first_use_delay = delay
                        out.first_use_delays.append(delay)
                        out.decision_to_use.append(t - dec.t)
                    win[3] += 1
                    dec = decisions[win[1]]
                    dec.uses += 1
                    dec.hits += 1
                    out.credits.append((t, sid, win[1]))
                    out.hits_by_kind[dec.kind] += 1
                else:
                    out.unattributed_hits += 1
            else:
                if win is not None and win[0] == served:
                    # served from an owned copy, just not a faster one
                    if win[3] == 0:
                        dec = decisions[win[1]]
                        delay = t - win[2]
                        dec.first_use_delay = delay
                        out.first_use_delays.append(delay)
                        out.decision_to_use.append(t - dec.t)
                    win[3] += 1
                    decisions[win[1]].uses += 1
                    out.miss_causes["placed-too-slow"] += 1
                elif st is not None and st.pending:
                    out.miss_causes["too-late"] += 1
                elif st is None or not st.had_decision:
                    out.miss_causes["never-placed"] += 1
                elif st.last_loss == "invalidated":
                    out.miss_causes["invalidated-before-use"] += 1
                elif st.last_loss == "move-failed":
                    out.miss_causes["prefetch-failed"] += 1
                elif st.last_loss is not None:
                    out.miss_causes["evicted-before-use"] += 1
                else:
                    out.miss_causes["never-placed"] += 1
        elif tag == EV_DECISION:
            _t, t, did, sid, kind, score, rank, src, dst, nbytes, moved, _f = ev
            decisions[did] = Decision(
                did=did, t=t, sid=sid, kind=kind, score=score, rank=rank,
                src=src, dst=dst, nbytes=nbytes, moved=moved,
            )
            st = state(sid)
            st.had_decision = True
            if moved:
                # served from src until the move settles
                st.pending[did] = [src, dst, None]
            else:
                # ledger-only placement: the copy is already at dst
                close_window(st, t, "superseded")
                st.win = [dst, did, t, 0, False]
        elif tag == EV_MOVE_DONE:
            _t, t, did, sid, src, dst, nbytes, _f = ev
            st = state(sid)
            entry = st.pending.pop(did, None)
            cancelled = entry[2] if entry is not None else None
            if cancelled is not None:
                # the placement was revoked while the bytes were in
                # flight; the arrival delivers a copy nobody can use
                classify(
                    did,
                    INVALIDATED_UNUSED if cancelled == "invalidated"
                    else EVICTED_UNUSED,
                )
            else:
                close_window(st, t, "superseded")
                st.win = [dst, did, t, 0, True]
        elif tag == EV_MOVE_FAILED:
            _t, t, did, sid, nbytes = ev
            st = state(sid)
            st.pending.pop(did, None)
            classify(did, DEAD_ON_ARRIVAL)
            # the ledger rolled back to origin-only: any copy the
            # failed promotion was superseding stops serving too
            close_window(st, t, "move-failed")
            st.last_loss = "move-failed"  # even with no window open
        elif tag == EV_EVICT:
            _t, t, sid, tier, cause = ev
            st = state(sid)
            for entry in st.pending.values():
                if entry[2] is None:
                    entry[2] = cause
            close_window(st, t, cause)
            st.last_loss = cause
            if cause == "displaced":
                out.displaced_sids.add(sid)

    # end of run: open windows arrived but were never needed again;
    # still-pending moves never even arrived
    for st in states.values():
        close_window(st, prov.now, "run-end")
        for did in st.pending:
            classify(did, DEAD_ON_ARRIVAL)

    return out
