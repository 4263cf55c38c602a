"""Causal replay unit tests: hand-built provenance logs with known
stories, plus full-run attribution invariants."""

from repro.diagnosis.attribution import (
    DEAD_ON_ARRIVAL,
    EVICTED_UNUSED,
    INVALIDATED_UNUSED,
    USED,
    replay,
)
from repro.diagnosis.provenance import ProvenanceLog

from .conftest import run_diagnosed

MB = 1 << 20
#: the segment id every unit test here records
SID = 7


class _Clock:
    """Minimal env stand-in so a hand-built log can stamp times."""

    def __init__(self):
        self.now = 0.0


def fresh_log():
    prov = ProvenanceLog()
    clock = _Clock()
    prov.bind_env(clock)
    return prov, clock


# ------------------------------------------------------------ unit stories
def test_move_used_is_credited_and_classified_used():
    prov, clock = fresh_log()
    did = prov.decision(SID, "place", 5.0, 0, "PFS", "RAM", MB, True)
    clock.now = 1.0
    prov.move_done(did, SID, "PFS", "RAM", MB)
    clock.now = 3.0
    prov.read(SID, "RAM", "PFS", True, MB, 0, 0.0, MB)
    rep = replay(prov)
    assert rep.move_class == {did: USED}
    assert rep.credits == [(3.0, SID, did)]
    assert rep.hits_by_kind == {"place": 1}
    assert rep.decisions[did].hits == 1
    assert rep.decisions[did].first_use_delay == 2.0  # from move arrival
    assert rep.decision_to_use == [3.0]  # from the decision itself
    assert rep.unattributed_hits == 0


def test_read_before_move_settles_is_too_late():
    prov, clock = fresh_log()
    did = prov.decision(SID, "place", 5.0, 0, "PFS", "RAM", MB, True)
    clock.now = 1.0
    prov.read(SID, "PFS", "PFS", False, MB, 0, 0.0, MB)  # still served from source
    clock.now = 2.0
    prov.move_done(did, SID, "PFS", "RAM", MB)
    rep = replay(prov)
    assert rep.miss_causes == {"too-late": 1}
    # arrived, then never read again until run end
    assert rep.move_class == {did: DEAD_ON_ARRIVAL}


def test_never_placed_miss_cause():
    prov, _clock = fresh_log()
    prov.read(SID, "PFS", "PFS", False, MB, 0, 0.0, MB)
    rep = replay(prov)
    assert rep.miss_causes == {"never-placed": 1}
    assert rep.move_class == {}


def test_invalidated_before_use():
    prov, clock = fresh_log()
    did = prov.decision(SID, "place", 5.0, 0, "PFS", "RAM", MB, True)
    prov.move_done(did, SID, "PFS", "RAM", MB)
    clock.now = 1.0
    prov.evict(SID, "RAM", "invalidated")
    clock.now = 2.0
    prov.read(SID, "PFS", "PFS", False, MB, 0, 0.0, MB)
    rep = replay(prov)
    assert rep.move_class == {did: INVALIDATED_UNUSED}
    assert rep.miss_causes == {"invalidated-before-use": 1}


def test_cancelled_in_flight_move_classified_by_cancel_cause():
    prov, clock = fresh_log()
    did = prov.decision(SID, "place", 5.0, 0, "PFS", "RAM", MB, True)
    clock.now = 0.5
    prov.evict(SID, "RAM", "invalidated")  # revoked while in flight
    clock.now = 1.0
    prov.move_done(did, SID, "PFS", "RAM", MB)  # bytes still arrive
    rep = replay(prov)
    assert rep.move_class == {did: INVALIDATED_UNUSED}


def test_failed_move_is_dead_on_arrival_and_prefetch_failed_miss():
    prov, clock = fresh_log()
    did = prov.decision(SID, "place", 5.0, 0, "PFS", "RAM", MB, True)
    clock.now = 1.0
    prov.move_failed(did, SID, MB)
    clock.now = 2.0
    prov.read(SID, "PFS", "PFS", False, MB, 0, 0.0, MB)
    rep = replay(prov)
    assert rep.move_class == {did: DEAD_ON_ARRIVAL}
    assert rep.miss_causes == {"prefetch-failed": 1}


def test_superseding_move_closes_unused_window_as_evicted():
    prov, clock = fresh_log()
    d1 = prov.decision(SID, "place", 5.0, 0, "PFS", "NVMe", MB, True)
    prov.move_done(d1, SID, "PFS", "NVMe", MB)
    clock.now = 1.0
    d2 = prov.decision(SID, "promote", 9.0, 0, "NVMe", "RAM", MB, True)
    prov.move_done(d2, SID, "NVMe", "RAM", MB)
    clock.now = 2.0
    prov.read(SID, "RAM", "PFS", True, MB, 0, 0.0, MB)
    rep = replay(prov)
    assert rep.move_class[d1] == EVICTED_UNUSED  # superseded before use
    assert rep.move_class[d2] == USED
    assert rep.hits_by_kind == {"promote": 1}


def test_ledger_only_decision_opens_window_without_waste_class():
    prov, clock = fresh_log()
    did = prov.decision(SID, "demote", 1.0, 2, "NVMe", "NVMe", MB, False)
    clock.now = 1.0
    prov.read(SID, "NVMe", "PFS", True, MB, 0, 0.0, MB)
    rep = replay(prov)
    assert rep.move_class == {}  # no bytes moved, nothing to classify
    assert rep.credits == [(1.0, SID, did)]


def test_pending_move_at_run_end_is_dead_on_arrival():
    prov, _clock = fresh_log()
    did = prov.decision(SID, "place", 5.0, 0, "PFS", "RAM", MB, True)
    rep = replay(prov)  # run ends before move_done
    assert rep.move_class == {did: DEAD_ON_ARRIVAL}


def test_hit_with_no_window_is_unattributed():
    prov, _clock = fresh_log()
    prov.read(SID, "RAM", "PFS", True, MB, 0, 0.0, MB)  # e.g. a baseline's cache
    rep = replay(prov)
    assert rep.unattributed_hits == 1
    assert rep.credits == []


def test_owned_but_slow_window_counts_placed_too_slow():
    prov, clock = fresh_log()
    did = prov.decision(SID, "place", 5.0, 0, "BurstBuffer", "BurstBuffer",
                        MB, False)
    clock.now = 1.0
    prov.read(SID, "BurstBuffer", "BurstBuffer", False, MB, 0, 0.0, MB)
    rep = replay(prov)
    assert rep.miss_causes == {"placed-too-slow": 1}
    assert rep.decisions[did].uses == 1 and rep.decisions[did].hits == 0


# -------------------------------------------------------- full-run invariants
def test_full_run_attribution_accounts_for_every_read():
    _runner, result, report = run_diagnosed()
    a = report.attribution
    assert a["reads"] == result.hits + result.misses
    assert a["hits"] == result.hits
    assert a["attributed_hits"] + a["unattributed_hits"] == result.hits
    assert sum(a["miss_causes"].values()) == result.misses
    assert sum(a["hits_by_kind"].values()) == a["attributed_hits"]
    assert all(d >= 0.0 for d in report.replay.first_use_delays)
    assert all(d >= 0.0 for d in report.replay.decision_to_use)


def test_full_run_headline_lands_in_run_result_extra():
    _runner, result, report = run_diagnosed()
    extra = result.extra["diagnosis"]
    assert extra == report.headline()
    assert extra["moves"] == report.waste["total_moves"]
    assert "regret" in extra
