"""Tier-1 checks of the end-to-end harness, at smoke scale (ring degree 256).

They pin what later PRs lean on: equal seeds give byte-identical inputs, every
workload reports every metric BENCHMARK.json names, the traced budget sums to
the measured wall, and a wrong verdict is counted as a failure.
"""

from __future__ import annotations

import os
import pickle
import re

import pytest

from . import run as harness
from . import workloads as wl

NAME = re.compile(r"^[A-Za-z0-9][A-Za-z0-9_.-]{0,63}$")
SPEC = harness.SPEC
CLOSED_LOOP = ["spam_warm", "topic_warm", "onboard_cold"]


def _generated(seed: int) -> bytes:
    rng = wl.stream_rng(seed, 1, 0)
    model = wl.make_model(rng, 64, 4)
    return pickle.dumps((
        model.matrix.tobytes(),
        [wl.make_email(rng, 64) for _ in range(8)],
        wl.make_candidates(rng, 16, 4),
        wl.make_arrivals(rng, 5.0, 8.0, 4),
    ))


def test_generator_is_a_function_of_the_seed():
    assert _generated(5) == _generated(5)
    assert _generated(5) != _generated(6)


def test_arrival_schedule_keeps_the_mean_rate_and_the_topic_share():
    arrivals = wl.make_arrivals(wl.stream_rng(3), 200.0, 8.0, 8)
    assert abs(len(arrivals) / 200.0 - 8.0) < 0.8
    assert [a.due for a in arrivals] == sorted(a.due for a in arrivals)
    assert sum(a.topic for a in arrivals) == len(arrivals) // wl.FLEET_TOPIC_EVERY


def test_benchmark_json_is_well_formed():
    assert set(SPEC) == {
        "command", "paths", "run_seconds", "workloads", "end_to_end", "per_layer"
    }
    assert SPEC["paths"] == ["benchmarks/e2e"]
    assert [w["name"] for w in SPEC["workloads"]] == list(wl.WORKLOADS)
    names = [entry["name"] for section in ("workloads", "end_to_end", "per_layer")
             for entry in SPEC[section]]
    assert len(names) == len(set(names))
    assert all(NAME.match(name) for name in names)
    assert all(0 < entry["bound"] <= 0.25 for entry in SPEC["end_to_end"])
    setup = next(e for e in SPEC["end_to_end"] if e["name"] == "setup_s")
    assert (setup["unit"], setup["better"]) == ("s", "lower")
    assert setup["bound"] == max(e["bound"] for e in SPEC["end_to_end"])


def test_every_workload_reports_every_end_to_end_metric():
    names = list(wl.WORKLOADS)
    if (os.cpu_count() or 1) < wl.FLEET_AGENTS:
        names.remove("fleet_mixed_open")   # the harness refuses to oversubscribe
    results = harness.run_benchmark(names, seed=1, seconds=1.0, trace=False, scale=wl.SMOKE)
    for name, (rounds, _tracer) in results.items():
        values = harness.end_to_end(rounds)
        assert set(values) == {entry["name"] for entry in SPEC["end_to_end"]}, name
        assert all(value > 0 for value in values.values()), (name, values)
        attempted, failed = harness.failures(rounds)
        assert attempted >= 3 and failed == 0, name


def _stretch(latencies: list[float], **fields) -> harness.Block:
    """Back-to-back emails with the given walls, as a closed loop produces them."""
    samples, clock = [], 0.0
    for latency in latencies:
        clock += latency
        samples.append(wl.Sample(latency, clock, 0.0, 0.0, 0, True, **fields))
    return harness.Block(samples, clock, 0.0)


def test_the_quiet_quarter_keeps_the_undisturbed_slices():
    # A quarter second is four of these emails; only slices 2 and 7 escape the slow episodes.
    slow = [0.06] * 4
    fast = [0.05] * 4
    rounds = harness.Rounds(open_loop=False)
    rounds.timed = [_stretch(slow + slow + fast + slow), _stretch(slow + slow + slow + fast)]
    kept, wall = harness.quiet_quarter(rounds)
    assert [s.latency for s in kept] == fast + fast
    assert wall == pytest.approx(0.4)


def test_the_cost_floor_weighs_each_kind_by_its_count():
    spam = [wl.Sample(0.0, 0.0, cost, 0.0, 0, True) for cost in [0.010] * 3 + [0.015] * 3]
    topic = [wl.Sample(0.0, 0.0, cost, 0.0, 0, True, topic=True) for cost in [0.030, 0.045]]
    floor = harness.cost_floor(spam + topic, lambda sample: sample.provider_seconds)
    # The fast clump of each kind (10th percentiles: 10 ms and 31.5 ms), weighted 6 : 2.
    assert floor == pytest.approx((6 * 0.010 + 2 * 0.0315) / 8)


def test_traced_budget_sums_to_the_wall_and_names_match():
    results = harness.run_benchmark(CLOSED_LOOP, seed=2, seconds=1.0, trace=True, scale=wl.SMOKE)
    for name, (rounds, tracer) in results.items():
        values, budget = harness.per_layer(rounds, tracer)
        assert set(values) == {entry["name"] for entry in SPEC["per_layer"]}, name
        assert budget["emails"] >= 2, name
        # Self times telescope: the rows (unattributed included) are the wall.
        assert sum(budget["rows_ms"].values()) == pytest.approx(budget["wall_ms"], rel=1e-6)
        assert 0.0 <= values["driver.unattributed_share"] < 0.25, name
        assert values["crypto.garbled.garble_ms"] > 0 and values["crypto.ot.ots_per_email"] > 0
        assert values["utils.bitops.xor_bytes_calls_per_email"] > 0, name
        assert harness.failures(rounds)[1] == 0, name


def test_a_flipped_verdict_is_counted_as_failed(monkeypatch):
    truth = wl.spam_reference
    monkeypatch.setattr(wl, "spam_reference", lambda model, features: not truth(model, features))
    results = harness.run_benchmark(["spam_warm"], seed=3, seconds=0.3, trace=False, scale=wl.SMOKE)
    attempted, failed = harness.failures(results["spam_warm"][0])
    assert failed == attempted > 0
