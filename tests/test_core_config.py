"""Unit tests for HFetch configuration (repro.core.config)."""

from dataclasses import fields

import pytest

from repro.core.config import GB, HFetchConfig
from repro.runtime.cluster import ClusterSpec


def test_defaults_match_paper():
    c = HFetchConfig()
    assert c.segment_size == 1 << 20  # 1 MB
    assert c.decay_base == 2.0
    assert c.engine_interval == 1.0  # "e.g., every 1 sec"
    assert c.engine_update_threshold == 100  # medium reactiveness
    assert c.daemon_threads + c.engine_threads == 8  # the paper's server uses 8 threads
    # Fig. 4(a) default cache layout, read from the cluster: 5 / 15 / 20 GB
    tiers = ClusterSpec().tiers
    assert [t.profile.name for t in tiers] == ["RAM", "NVMe", "BurstBuffer"]
    assert [t.capacity for t in tiers] == [5 * GB, 15 * GB, 20 * GB]


@pytest.mark.parametrize(
    "kwargs",
    [
        dict(segment_size=0),
        dict(decay_base=1.5),
        dict(engine_interval=0),
        dict(engine_update_threshold=0),
        dict(daemon_threads=0),
        dict(engine_threads=0),
        dict(lookahead_depth=-1),
    ],
)
def test_invalid_configs_rejected(kwargs):
    with pytest.raises(ValueError):
        HFetchConfig(**kwargs)


def test_config_holds_only_the_settings_callers_vary():
    # settings no caller varies are constants in the module that uses them
    assert [f.name for f in fields(HFetchConfig)] == [
        "segment_size",
        "decay_base",
        "engine_interval",
        "engine_update_threshold",
        "daemon_threads",
        "engine_threads",
        "event_queue_capacity",
        "lookahead_depth",
        "scoring_model",
        "dhm_wal",
        "seed",
    ]


def test_event_queue_capacity_has_one_default():
    from repro.events.queue import EVENT_QUEUE_CAPACITY, EventQueue
    from repro.sim.core import Environment

    assert HFetchConfig().event_queue_capacity == EVENT_QUEUE_CAPACITY == 1 << 16
    assert EventQueue(Environment()).capacity == EVENT_QUEUE_CAPACITY


def test_with_reactiveness_presets():
    c = HFetchConfig()
    assert c.with_reactiveness("high").engine_update_threshold == 1
    assert c.with_reactiveness("medium").engine_update_threshold == 100
    assert c.with_reactiveness("low").engine_update_threshold == 1024
    with pytest.raises(ValueError):
        c.with_reactiveness("extreme")


def test_config_is_immutable():
    c = HFetchConfig()
    with pytest.raises(Exception):
        c.segment_size = 42  # type: ignore[misc]
