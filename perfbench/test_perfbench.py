"""Tests for the benchmark's own helpers.

Run from the repository root::

    python3 -m pytest -q perfbench/test_perfbench.py
"""

from __future__ import annotations

import json
import os
import sys

import pytest

HERE = os.path.dirname(os.path.abspath(__file__))
sys.path.insert(0, HERE)
sys.path.insert(0, os.path.join(os.path.dirname(HERE), "src"))

from metrics import (  # noqa: E402
    END_TO_END,
    MOVES,
    PER_LAYER,
    beyond_tail,
    check_name,
    latency,
    nearest_rank,
)
from spans import Tracer, aggregate, covered_ns, install, self_times, span_patches, under  # noqa: E402


# -- percentiles ----------------------------------------------------------
def test_nearest_rank_picks_an_observed_sample():
    values = list(range(1, 101))  # 1..100
    assert nearest_rank(values, 50) == 50
    assert nearest_rank(values, 95) == 95
    assert nearest_rank(values, 100) == 100
    assert nearest_rank([7.0], 95) == 7.0
    # ceil(0.95 * 21) = 20: the 20th smallest of 21, not an interpolation.
    assert nearest_rank(list(range(21)), 95) == 19


def test_nearest_rank_rejects_empty_sample():
    with pytest.raises(ValueError):
        nearest_rank([], 50)


def test_tail_needs_ten_samples_beyond_it():
    assert beyond_tail(200, 95) == 10
    assert beyond_tail(199, 95) == 9
    summary = latency([1000 * x for x in range(200, 0, -1)], "x")  # unsorted sample
    assert summary == {"p50_us": 100.0, "p95_us": 190.0, "n": 200}
    with pytest.raises(ValueError, match="fewer than the 200"):
        latency(list(range(199)), "x")


def fake_part(lat_us, elapsed_s, write_keys, setup_s, recover_s):
    """A part whose raw times are twice its paced ones."""
    from workloads import new_part

    part = new_part({"x": 1})
    lat = {kind: [int(x * 1000) for x in lat_us] for kind in ("write", "read", "scan")}
    part.update(lat=lat, elapsed_ns=int(elapsed_s * 1e9), write_keys=write_keys, setup_s=setup_s,
                recover_s=recover_s, disk_bytes=30, user_bytes=10, peak_rss_mb=5.0)
    part["raw"] = {
        "lat": {kind: [2 * x for x in xs] for kind, xs in lat.items()},
        "elapsed_ns": 2 * part["elapsed_ns"],
        "setup_s": [2 * x for x in setup_s],
        "recover_s": [2 * x for x in recover_s],
    }
    return part


def test_combine_pools_the_parts():
    from workloads import combine

    # 200 fast samples in one part, 200 slow ones in the other: the pooled
    # p50 is the fast part's largest sample, the pooled p95 a slow one.
    parts = [
        fake_part(range(1, 201), 1.0, 100, [1.0, 3.0], [2.0]),
        fake_part(range(1001, 1201), 3.0, 300, [2.0], [5.0]),
    ]
    run = combine("w", parts, traced=False)
    assert run.metrics["read_p50_us"] == 200.0
    assert run.metrics["read_p95_us"] == 1180.0
    assert run.samples["read"] == 400
    assert run.metrics["ops_per_s"] == 1200 / 4.0  # completions over summed phases
    assert run.metrics["write_keys_per_s"] == 400 / 4.0
    assert run.metrics["setup_s"] == 2.0  # median
    assert run.metrics["recover_s"] == 3.5  # mean
    assert run.metrics["disk_bytes_per_user_byte"] == 3.0
    assert run.raw["read_p50_us"] == 400.0
    assert run.raw["ops_per_s"] == 1200 / 8.0
    assert run.raw["setup_s"] == 4.0 and run.raw["recover_s"] == 7.0


# -- reference pace -----------------------------------------------------------
def fake_pace(took_ns, synced_ns=None):
    """A Pace whose core and disk references took ``took_ns`` and
    ``synced_ns`` (default: the disk's nominal time), one run every 100 ns
    of a fake clock, each occupying [100 i, 100 i + 10]."""
    from pace import DISK_NS, Pace

    pace = Pace.__new__(Pace)
    pace.starts = [100 * i for i in range(len(took_ns))]
    pace.ends = [100 * i + 10 for i in range(len(took_ns))]
    pace.took = list(took_ns)
    pace.synced = list(synced_ns or [DISK_NS] * len(took_ns))
    pace._factors = []
    return pace


def test_pace_factor_is_nominal_over_the_windowed_median():
    from pace import CORE_NS, DISK_NS, HALF_WINDOW

    slow = 2 * CORE_NS
    # One outlier run does not move the windowed median.
    pace = fake_pace([slow] * 10 + [CORE_NS * 100] + [slow] * 10, [4 * DISK_NS] * 21)
    assert HALF_WINDOW >= 1
    assert pace.factors() == [(0.5, 0.25)] * 21
    # On a core running at half speed every on-core time is halved; a wait
    # on a disk four times slower than nominal is quartered.
    assert pace.factor_at(555) == (0.5, 0.25)
    assert pace.scale([(120, 180), (220, 300), (320, 360, 400)]) == [30, 40, 30]


def test_pace_span_leaves_out_reference_runs_and_uses_local_pace():
    from pace import CORE_NS

    pace = fake_pace([CORE_NS] * 10 + [CORE_NS // 2] * 10)
    # [10, 310] holds the reference runs at 100, 200 and 300 (10 ns each).
    assert pace.span_ns(10, 310) == 270
    # Late stretches run at the fast runs' pace: twice the nominal speed,
    # so their time counts double, except a wait on the nominal disk.
    assert pace.span_ns(1810, 1900) == 180
    assert pace.span_ns(1810, 1900, waits=[(1850, 1890)]) == 140
    assert pace.scale([(1820, 1850, 1890)]) == [100]


# -- self time --------------------------------------------------------------
def span(name, start, end, parent=-1):
    return [name, start, end, parent, None]


def test_self_time_subtracts_nested_children():
    spans = [
        span("root", 0, 100),
        span("child", 10, 30, parent=0),
        span("grandchild", 12, 20, parent=1),
        span("child", 50, 60, parent=0),
    ]
    assert self_times(spans) == [70, 12, 8, 10]
    agg = aggregate(spans)
    assert agg["child"] == {"calls": 2, "self_ns": 22, "total_ns": 30}
    assert agg["root"]["self_ns"] == 70


def test_self_time_counts_overlapping_children_once():
    # Concurrent children (e.g. interleaved coroutines) cover [10, 50]
    # together; the parent's self time excludes that union exactly once,
    # and a child running past the parent's end is clipped to it.
    spans = [
        span("root", 0, 100),
        span("a", 10, 40, parent=0),
        span("b", 30, 50, parent=0),
        span("c", 90, 120, parent=0),
    ]
    assert self_times(spans)[0] == 100 - 40 - 10
    assert covered_ns(0, 100, [(10, 40), (30, 50), (35, 45)]) == 40
    assert covered_ns(0, 100, []) == 0


def test_under_follows_parent_links():
    spans = [
        span("sware", 0, 100),
        span("tree", 10, 60, parent=0),
        span("kernel", 20, 30, parent=1),
        span("kernel", 70, 80, parent=0),
        span("tree", 110, 120),
    ]
    assert under(spans, "sware") == [False, True, True, True, False]
    assert under(spans, "tree") == [False, False, True, False, False]


def test_tracer_records_parents_and_undo_restores():
    class Layer:
        def outer(self, x):
            return self.inner(x) + 1

        def inner(self, x):
            return x * 2

    ticks = iter(range(100))
    tracer = Tracer(clock=lambda: next(ticks))
    undo = install(span_patches(tracer, [(Layer, "outer", "L.outer"), (Layer, "inner", "L.inner")]))
    try:
        tracer.request_id = 7
        assert Layer().outer(3) == 7
    finally:
        undo()
    assert tracer.spans == [["L.outer", 0, 3, -1, 7], ["L.inner", 1, 2, 0, 7]]
    assert Layer.outer.__name__ == "outer" and not hasattr(Layer.outer, "__wrapped__")
    tracer.recording = False
    assert tracer.take() and tracer.spans == []


# -- names --------------------------------------------------------------------
@pytest.mark.parametrize("name", ["setup_s", "btree.get_many.self_s", "a-b.c_1", "9x"])
def test_valid_metric_names(name):
    assert check_name(name) == name


@pytest.mark.parametrize("name", ["", "has space", "slash/name", "_lead", ".lead", "x" * 65, "µs"])
def test_invalid_metric_names(name):
    with pytest.raises(ValueError):
        check_name(name)


def test_benchmark_json_matches_what_the_runner_emits():
    with open(os.path.join(os.path.dirname(HERE), "BENCHMARK.json")) as fobj:
        doc = json.load(fobj)
    assert [(m["name"], m["unit"], m["better"]) for m in doc["end_to_end"]] == END_TO_END
    assert [(m["name"], m["unit"], m["better"]) for m in doc["per_layer"]] == PER_LAYER
    assert {w["name"] for w in doc["workloads"]} == {"ingest", "lookup", "serve"}
    assert any(m["name"] == "setup_s" for m in doc["end_to_end"])
    names = [m["name"] for m in doc["end_to_end"] + doc["per_layer"]]
    assert len(names) == len(set(names))
    for name in names:
        check_name(name)


def test_every_layer_metric_names_the_metric_it_should_move():
    e2e = {name for name, _unit, _better in END_TO_END}
    for name, _unit, _better in PER_LAYER:
        # The longest MOVES prefix covering the metric applies.
        prefixes = [p for p in MOVES if name.startswith(p + ".")]
        assert prefixes, name
        entry = MOVES[max(prefixes, key=len)]
        assert entry["bypass"] in {"ingest", "lookup", "serve"}
        for claim in entry["claims"]:
            workload, metric = claim.split(".", 1)
            assert workload in {"ingest", "lookup", "serve"} and metric in e2e
    assert set(MOVES) >= {"core.buffer", "btree.insert", "net.server"}
