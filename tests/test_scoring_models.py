"""Tests for the pluggable scoring models (repro.core.scoring_models)."""

import pytest

from repro.core.config import HFetchConfig
from repro.core.scoring_models import (
    SCORING_MODELS,
    DecayedFrequencyModel,
    EWMARateModel,
    HybridModel,
    get_scoring_model,
)
from repro.core.stats import SegmentStats
from repro.storage.segments import SegmentKey

MB = 1 << 20


def stats_with(times, refs=None):
    s = SegmentStats(key=SegmentKey("f", 0), nbytes=MB)
    for t in times:
        s.record(t)
    if refs is not None:
        s.refs = refs
    return s


def test_registry_and_lookup():
    assert set(SCORING_MODELS) == {"eq1", "ewma", "hybrid"}
    assert isinstance(get_scoring_model("eq1"), DecayedFrequencyModel)
    with pytest.raises(ValueError):
        get_scoring_model("gpt")


def test_config_accepts_registered_models_only():
    HFetchConfig(scoring_model="ewma")
    with pytest.raises(ValueError):
        HFetchConfig(scoring_model="nope")


def test_eq1_model_matches_exact_scoring():
    from repro.core.scoring import segment_score

    s = stats_with([0.0, 1.0, 2.0])
    model = DecayedFrequencyModel()
    assert model.score(s, now=3.0, p=2.0) == pytest.approx(
        segment_score(s.times, s.refs, 3.0, 2.0)
    )


def test_eq1_batch_matches_scalar():
    model = DecayedFrequencyModel()
    stats = [stats_with([0.0, 1.0]), None, stats_with([2.0])]
    out = model.batch(stats, now=3.0, p=2.0)
    assert out[1] == 0.0
    assert out[0] == pytest.approx(model.score(stats[0], 3.0, 2.0))
    assert out[2] == pytest.approx(model.score(stats[2], 3.0, 2.0))


def test_ewma_prefers_high_rate_segments():
    model = EWMARateModel()
    fast = stats_with([0.0, 0.1, 0.2, 0.3])   # period 0.1 -> rate 10
    slow = stats_with([0.0, 1.0, 2.0, 3.0])   # period 1   -> rate 1
    assert model.score(fast, now=0.3, p=2.0) > model.score(slow, now=3.0, p=2.0)


def test_ewma_decays_after_silence():
    model = EWMARateModel()
    s = stats_with([0.0, 0.5, 1.0])
    fresh = model.score(s, now=1.0, p=2.0)
    stale = model.score(s, now=5.0, p=2.0)
    assert stale < fresh


def test_ewma_single_observation_falls_back_to_recency():
    model = EWMARateModel()
    s = stats_with([2.0])
    assert model.score(s, now=2.0, p=2.0) == pytest.approx(1.0)
    assert model.score(s, now=4.0, p=2.0) == pytest.approx(0.25)


def test_ewma_alpha_validation():
    with pytest.raises(ValueError):
        EWMARateModel(alpha=0.0)


def test_hybrid_blends_extremes():
    eq1_only = HybridModel(weight=1.0)
    ewma_only = HybridModel(weight=0.0)
    s = stats_with([0.0, 0.5, 1.0])
    assert eq1_only.score(s, 1.0, 2.0) == pytest.approx(
        DecayedFrequencyModel().score(s, 1.0, 2.0)
    )
    assert ewma_only.score(s, 1.0, 2.0) == pytest.approx(
        EWMARateModel().score(s, 1.0, 2.0)
    )
    with pytest.raises(ValueError):
        HybridModel(weight=2.0)


def test_zero_refs_scores_zero_in_all_models():
    empty = SegmentStats(key=SegmentKey("f", 0), nbytes=MB)
    for name in SCORING_MODELS:
        assert get_scoring_model(name).score(empty, now=1.0, p=2.0) == 0.0


def test_auditor_respects_configured_model():
    from repro.core.auditor import FileSegmentAuditor
    from repro.events.types import EventType, FileEvent
    from repro.storage.files import FileSystemModel

    fs = FileSystemModel(default_segment_size=MB)
    fs.create("/f", 4 * MB)
    aud = FileSegmentAuditor(HFetchConfig(scoring_model="ewma"), fs)
    assert isinstance(aud.scoring_model, EWMARateModel)
    for t in (0.0, 0.2, 0.4):
        aud.on_event(FileEvent(EventType.READ, "/f", 0, MB, timestamp=t))
    score = aud.score_of(aud.fs.segment_id("/f", 0), now=0.4)
    assert score == pytest.approx(
        EWMARateModel().score(aud.stats_of(aud.fs.segment_id("/f", 0)), 0.4, 2.0)
    )
