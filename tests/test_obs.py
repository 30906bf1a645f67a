"""Telemetry subsystem tests: registry semantics, span chains, exporters.

Four properties carry the observability layer:

* **Registry algebra** — instruments are get-or-create (binding twice
  returns the same object), snapshots are deterministic and sorted, and
  merging snapshots is associative with sum semantics — the contract the
  cross-shard aggregation in `ShardedRuntime` builds on.
* **Bounded memory** — histograms keep a capped recent-sample window and
  the span ring drops (and counts) past capacity; a long-running server
  never grows telemetry state.
* **Span chains** — one drained email produces the full
  ``enqueue → window_park → decrypt → reply`` chain (plus the enclosing
  ``email`` span) under one trace id, and a `VirtualClock` replay of the
  same seed + policy yields **byte-identical** flight recordings.
* **Exporter conformance** — Prometheus text, bundled JSON, and Chrome
  trace all render from live scrapes (including *mid-drain*, with windows
  still open) and pass the golden-schema validators CI runs.
"""

import json

import pytest

from repro.core.runtime import DecryptScheduler, ProviderRuntime, session_job
from repro.mail.traces import TraceSpec, VirtualClock, generate_trace
from repro.obs import (
    MetricsRegistry,
    SpanTracer,
    get_registry,
    get_tracer,
    merge_snapshots,
    scoped_registry,
    scoped_telemetry,
    trace_is_sampled,
)
from repro.obs.export import (
    chrome_trace,
    chrome_trace_text,
    json_text,
    prometheus_text,
    validate_chrome_trace,
    validate_snapshot,
    write_artifacts,
)
from repro.obs.metrics import DEFAULT_BUCKET_BOUNDS, RECENT_SAMPLE_CAP
from repro.twopc.spam import SpamFilterProtocol

SPAM_EMAILS = [
    {1: 1, 5: 1, 9: 1},
    {100: 1, 150: 1, 199: 1, 42: 1},
    {0: 1},
]


@pytest.fixture(scope="module")
def spam_setup(bv_scheme, dh_group, small_spam_model):
    protocol = SpamFilterProtocol(bv_scheme, dh_group)
    return protocol, protocol.setup(small_spam_model)


def counter_value(snapshot, name):
    for entry in snapshot["counters"]:
        if entry["name"] == name:
            return entry["value"]
    raise AssertionError(f"no counter {name!r} in snapshot")


def gauge_value(snapshot, name):
    for entry in snapshot["gauges"]:
        if entry["name"] == name:
            return entry["value"]
    raise AssertionError(f"no gauge {name!r} in snapshot")


def histogram_entry(snapshot, name):
    for entry in snapshot["histograms"]:
        if entry["name"] == name:
            return entry
    raise AssertionError(f"no histogram {name!r} in snapshot")


class TestRegistry:
    def test_instruments_are_get_or_create(self):
        registry = MetricsRegistry()
        assert registry.counter("a_total") is registry.counter("a_total")
        assert registry.gauge("g") is registry.gauge("g")
        assert registry.histogram("h_seconds") is registry.histogram("h_seconds")
        # Distinct labels are distinct series of the same name.
        assert registry.counter("a_total", party="x") is not registry.counter(
            "a_total", party="y"
        )

    def test_counter_and_gauge_arithmetic(self):
        registry = MetricsRegistry()
        counter = registry.counter("ops_total")
        counter.inc()
        counter.inc(2.5)
        gauge = registry.gauge("depth")
        gauge.inc(7.0)
        gauge.inc(3.0)
        gauge.dec()
        snapshot = registry.snapshot()
        assert counter_value(snapshot, "ops_total") == 3.5
        assert gauge_value(snapshot, "depth") == 9.0

    def test_histogram_buckets(self):
        registry = MetricsRegistry()
        hist = registry.histogram("lat_seconds")
        for value in (0.001, 0.01, 0.1, 1.0):
            hist.observe(value)
        assert hist.count == 4
        assert hist.sum == pytest.approx(1.111)
        entry = histogram_entry(registry.snapshot(), "lat_seconds")
        assert sum(entry["counts"]) == 4
        assert len(entry["counts"]) == len(DEFAULT_BUCKET_BOUNDS) + 1
        assert entry["min"] == 0.001 and entry["max"] == 1.0

    def test_histogram_recent_window_is_capped(self):
        registry = MetricsRegistry()
        hist = registry.histogram("busy_seconds")
        for index in range(RECENT_SAMPLE_CAP + 100):
            hist.observe(float(index))
        assert hist.count == RECENT_SAMPLE_CAP + 100  # exact totals survive
        assert len(hist.recent) == RECENT_SAMPLE_CAP  # raw window is bounded
        assert min(hist.recent) == 100.0  # oldest samples aged out

    def test_empty_histogram_snapshot_has_null_extremes(self):
        registry = MetricsRegistry()
        registry.histogram("quiet_seconds")
        entry = histogram_entry(registry.snapshot(), "quiet_seconds")
        assert entry["count"] == 0
        assert entry["min"] is None and entry["max"] is None

    def test_merge_sums_counters_and_buckets(self):
        left, right = MetricsRegistry(), MetricsRegistry()
        left.counter("n_total").inc(2)
        right.counter("n_total").inc(5)
        left.histogram("h").observe(0.5)
        right.histogram("h").observe(0.5)
        right.histogram("h").observe(2.0)
        merged = merge_snapshots(left.snapshot(), right.snapshot())
        assert counter_value(merged, "n_total") == 7
        entry = histogram_entry(merged, "h")
        assert entry["count"] == 3 and entry["sum"] == pytest.approx(3.0)

    def test_merge_is_associative_with_empty_identity(self):
        snaps = []
        for seed in range(3):
            registry = MetricsRegistry()
            registry.counter("k_total").inc(seed + 1)
            registry.histogram("h").observe(float(seed))
            snaps.append(registry.snapshot())
        left_first = merge_snapshots(merge_snapshots(snaps[0], snaps[1]), snaps[2])
        right_first = merge_snapshots(snaps[0], merge_snapshots(snaps[1], snaps[2]))
        assert left_first == right_first
        assert merge_snapshots(merge_snapshots(), snaps[0]) == merge_snapshots(snaps[0])

    def test_merge_rejects_schema_and_bound_mismatches(self):
        registry = MetricsRegistry()
        with pytest.raises(ValueError, match="schema"):
            registry.merge_snapshot({"schema": "bogus/9"})
        registry.histogram("h", bounds=(1.0, 2.0)).observe(1.5)
        donor = MetricsRegistry()
        donor.histogram("h", bounds=(1.0, 2.0, 3.0)).observe(1.5)
        with pytest.raises(ValueError, match="bound mismatch"):
            registry.merge_snapshot(donor.snapshot())

    def test_scoped_registry_swaps_and_restores_default(self):
        outer = get_registry()
        with scoped_registry() as inner:
            assert get_registry() is inner and inner is not outer
            inner.counter("scoped_total").inc()
        assert get_registry() is outer

    def test_snapshot_is_sorted_and_validates(self):
        registry = MetricsRegistry()
        registry.counter("z_total").inc()
        registry.counter("a_total").inc()
        registry.counter("m_total", party="b").inc()
        registry.counter("m_total", party="a").inc()
        snapshot = registry.snapshot()
        names = [(entry["name"], tuple(sorted(entry["labels"].items()))) for entry in snapshot["counters"]]
        assert names == sorted(names)
        validate_snapshot(snapshot)


class TestSpanTracer:
    def test_record_and_snapshot(self):
        tracer = SpanTracer()
        tracer.record("email-1", "decrypt", 1.0, 2.5, ciphertexts=4)
        (span,) = tracer.snapshot()
        assert span["trace_id"] == "email-1" and span["name"] == "decrypt"
        assert span["meta"] == {"ciphertexts": 4}
        # The snapshot is a copy: mutating it never touches the ring.
        span["meta"]["ciphertexts"] = 99
        assert tracer.snapshot()[0]["meta"]["ciphertexts"] == 4

    def test_capacity_drops_oldest_and_counts(self):
        tracer = SpanTracer(capacity=3)
        for index in range(5):
            tracer.record(f"t{index}", "step", 0.0, 1.0)
        assert len(tracer.snapshot()) == 3
        assert tracer.dropped == 2
        assert [span["trace_id"] for span in tracer.snapshot()] == ["t2", "t3", "t4"]


class TestSpanSampling:
    def test_sampling_is_deterministic_per_trace(self):
        # The decision is a pure function of the trace id: two tracers (two
        # processes of a fabric) keep exactly the same traces.
        ids = [f"email-{index}" for index in range(200)]
        first = {tid for tid in ids if trace_is_sampled(tid, 0.25)}
        second = {tid for tid in ids if trace_is_sampled(tid, 0.25)}
        assert first == second
        assert 0 < len(first) < len(ids)  # thinned, but not degenerate

    def test_rate_edges_keep_all_or_none(self):
        assert trace_is_sampled("anything", 1.0)
        assert not trace_is_sampled("anything", 0.0)

    def test_whole_trace_shares_its_fate(self):
        tracer = SpanTracer(sample_rate=0.5)
        kept = [tid for tid in (f"e{i}" for i in range(50))
                if trace_is_sampled(tid, 0.5)][0]
        lost = [tid for tid in (f"e{i}" for i in range(50))
                if not trace_is_sampled(tid, 0.5)][0]
        for name in ("enqueue", "window_park", "decrypt", "reply"):
            tracer.record(kept, name, 0.0, 1.0)
            tracer.record(lost, name, 0.0, 1.0)
        recorded = {span["trace_id"] for span in tracer.snapshot()}
        assert recorded == {kept}  # never a ragged chain
        assert len(tracer.snapshot()) == 4
        assert tracer.sampled_out == 4
        assert tracer.dropped == 0  # sampling is not capacity pressure

    def test_rate_is_validated(self):
        with pytest.raises(ValueError):
            SpanTracer(sample_rate=1.5)
        with pytest.raises(ValueError):
            SpanTracer(sample_rate=-0.1)


class TestExporters:
    def _populated(self):
        registry = MetricsRegistry()
        registry.counter("frames_total", party="client").inc(3)
        registry.gauge("depth").inc(2.0)
        registry.histogram("lat_seconds").observe(0.5)
        return registry

    def test_prometheus_text_format(self):
        text = prometheus_text(self._populated().snapshot())
        assert '# TYPE frames_total counter' in text
        assert 'frames_total{party="client"} 3' in text
        assert '# TYPE lat_seconds histogram' in text
        assert 'lat_seconds_bucket{le="+Inf"} 1' in text
        assert "lat_seconds_sum 0.5" in text
        assert "lat_seconds_count 1" in text
        # Cumulative buckets: the +Inf bucket equals the total count.
        final_bucket = [line for line in text.splitlines() if '+Inf' in line][-1]
        assert final_bucket.endswith(" 1")

    def test_json_text_bundles_metrics_and_spans(self):
        tracer = SpanTracer()
        tracer.record("email-0", "email", 0.0, 1.0)
        payload = json.loads(json_text(self._populated().snapshot(), tracer.snapshot()))
        assert payload["schema"] == "repro-telemetry/1"
        assert payload["metrics"]["schema"] == "repro-metrics/1"
        assert payload["spans"][0]["trace_id"] == "email-0"

    def test_chrome_trace_lanes_and_validation(self):
        tracer = SpanTracer()
        tracer.record("email-0", "decrypt", 0.001, 0.002, ciphertexts=2)
        tracer.record("email-1", "decrypt", 0.001, 0.003)
        tracer.record("email-0", "reply", 0.002, 0.004)
        document = chrome_trace(tracer.snapshot())
        validate_chrome_trace(document)
        events = [event for event in document["traceEvents"] if event["ph"] == "X"]
        # Same trace id -> same lane; first appearance orders the lanes.
        assert [event["tid"] for event in events] == [1, 2, 1]
        assert events[0]["args"] == {"ciphertexts": 2}
        assert events[0]["ts"] == 1000 and events[0]["dur"] == 1000

    def test_validators_reject_malformed_documents(self):
        snapshot = self._populated().snapshot()
        snapshot["histograms"][0]["count"] += 1  # no longer sums to count
        with pytest.raises(ValueError, match="count"):
            validate_snapshot(snapshot)
        with pytest.raises(ValueError, match="schema"):
            validate_snapshot({"schema": "nope"})
        with pytest.raises(ValueError, match="phase"):
            validate_chrome_trace({"traceEvents": [{"ph": "B"}]})
        with pytest.raises(ValueError, match="integer"):
            validate_chrome_trace(
                {
                    "traceEvents": [
                        {
                            "name": "x",
                            "cat": "serve",
                            "ph": "X",
                            "pid": 1,
                            "tid": 1,
                            "ts": 0.5,
                            "dur": 1,
                        }
                    ]
                }
            )

    def test_write_artifacts_emits_the_trio(self, tmp_path):
        tracer = SpanTracer()
        tracer.record("email-0", "email", 0.0, 1.0)
        paths = write_artifacts(
            tmp_path / "suite.telemetry", self._populated().snapshot(), tracer.snapshot()
        )
        assert [path.name for path in paths] == [
            "suite.telemetry.prom",
            "suite.telemetry.metrics.json",
            "suite.telemetry.trace.json",
        ]
        for path in paths:
            assert path.read_text()
        validate_chrome_trace(json.loads(paths[2].read_text()))


class TestSpanChain:
    """One email end to end: the complete chain, deterministic under VirtualClock."""

    def _serve_one(self, protocol, setup):
        with scoped_telemetry() as (registry, tracer):
            clock = VirtualClock()
            runtime = ProviderRuntime(
                scheduler=DecryptScheduler(
                    window_bursts=100, max_delay_seconds=5.0, clock=clock
                )
            )
            job = session_job(protocol, setup, (SPAM_EMAILS[0],), label=0)
            assert runtime.serve_burst([job]) == []  # parked in the open window
            clock.advance(5.0)
            finished = runtime.poll()
            assert [job.label for job in finished] == [0]
            return registry.snapshot(), tracer.snapshot()

    def test_drained_email_produces_complete_chain(self, spam_setup):
        protocol, setup = spam_setup
        _, spans = self._serve_one(protocol, setup)
        assert [span["name"] for span in spans] == [
            "enqueue",
            "window_park",
            "decrypt",
            "reply",
            "email",
        ]
        assert {span["trace_id"] for span in spans} == {"email-0"}
        by_name = {span["name"]: span for span in spans}
        assert by_name["email"]["start_seconds"] == 0.0
        assert by_name["email"]["end_seconds"] == 5.0
        assert by_name["window_park"]["start_seconds"] == 0.0
        assert by_name["window_park"]["end_seconds"] == 5.0
        assert by_name["decrypt"]["meta"]["ciphertexts"] >= 1
        validate_chrome_trace(chrome_trace(spans))

    def test_flight_recording_is_bit_identical(self, spam_setup):
        protocol, setup = spam_setup
        first_snapshot, first_spans = self._serve_one(protocol, setup)
        second_snapshot, second_spans = self._serve_one(protocol, setup)
        assert chrome_trace_text(first_spans) == chrome_trace_text(second_spans)
        assert json_text(
            TestSpanChain._drop_byte_counters(first_snapshot), first_spans
        ) == json_text(TestSpanChain._drop_byte_counters(second_snapshot), second_spans)

    def _replay_trace(self, protocol, setup):
        spec = TraceSpec(
            mailboxes=3,
            senders_per_mailbox=2,
            mean_rate_per_second=4.0,
            duration_seconds=1.5,
            diurnal_period_seconds=1.5,
            seed=11,
        )
        events = generate_trace(spec)
        assert events, "the seeded spec must produce at least one arrival"
        with scoped_telemetry() as (registry, tracer):
            clock = VirtualClock()
            runtime = ProviderRuntime(
                scheduler=DecryptScheduler(
                    window_bursts=2,
                    max_delay_seconds=0.05,
                    clock=clock,
                )
            )
            # Each arrival jumps the clock, ticks the scheduler's age
            # deadlines, then serves the email; service takes no virtual time.
            for event in events:
                clock.advance(event.arrival_seconds - clock())
                runtime.poll()
                runtime.serve_burst(
                    [session_job(protocol, setup, (SPAM_EMAILS[0],), label=event.sender)]
                )
            runtime.drain()
            return registry.snapshot(), tracer.snapshot()

    @staticmethod
    def _drop_byte_counters(snapshot):
        # Serialized ciphertext sizes vary with encryption randomness, so the
        # transport byte counters are the one legitimately nondeterministic
        # series; everything else (frames, rounds, batches, ages, latencies)
        # must reproduce exactly.
        return dict(
            snapshot,
            counters=[
                entry
                for entry in snapshot["counters"]
                if entry["name"] != "transport_bytes_total"
            ],
        )

    def test_seeded_trace_replay_is_bit_identical(self, spam_setup):
        # The acceptance pin: same seed + same policy under VirtualClock ->
        # byte-equal telemetry artifacts, spans and metrics both.
        protocol, setup = spam_setup
        first_snapshot, first_spans = self._replay_trace(protocol, setup)
        second_snapshot, second_spans = self._replay_trace(protocol, setup)
        first_snapshot = self._drop_byte_counters(first_snapshot)
        second_snapshot = self._drop_byte_counters(second_snapshot)
        assert first_snapshot == second_snapshot
        assert chrome_trace_text(first_spans) == chrome_trace_text(second_spans)
        assert prometheus_text(first_snapshot) == prometheus_text(second_snapshot)
        # Every served email closed its chain: served count == email spans.
        email_spans = [span for span in first_spans if span["name"] == "email"]
        assert len(email_spans) == counter_value(first_snapshot, "emails_served_total")


class TestMidDrainScrape:
    """The CI obs-smoke path: scrape while decrypt windows are still open."""

    def test_mid_drain_scrape_validates_and_completes(self, spam_setup):
        protocol, setup = spam_setup
        with scoped_telemetry() as (registry, tracer):
            runtime = ProviderRuntime(scheduler=DecryptScheduler(window_bursts=100))
            jobs = [
                session_job(protocol, setup, (features,), label=index)
                for index, features in enumerate(SPAM_EMAILS)
            ]
            assert runtime.serve_burst(jobs) == []  # all parked mid-drain
            mid = registry.snapshot()
            validate_snapshot(mid)
            assert prometheus_text(mid)  # scrape renders while windows are open
            assert gauge_value(mid, "pending_window_ciphertexts") > 0
            assert counter_value(mid, "emails_served_total") == 0
            assert tracer.snapshot() == []  # spans close at finish, not admission

            finished = runtime.drain()
            assert len(finished) == len(SPAM_EMAILS)
            done = registry.snapshot()
            validate_snapshot(done)
            assert gauge_value(done, "pending_window_ciphertexts") == 0
            assert counter_value(done, "emails_served_total") == len(SPAM_EMAILS)
            batch = histogram_entry(done, "decrypt_batch_ciphertexts")
            assert batch["count"] == 1  # one window flush drained all three
            spans = tracer.snapshot()
            assert len([s for s in spans if s["name"] == "email"]) == len(SPAM_EMAILS)
            validate_chrome_trace(chrome_trace(spans))

    def test_one_served_email_reaches_the_registry(self, spam_setup):
        protocol, setup = spam_setup
        with scoped_telemetry() as (registry, _):
            runtime = ProviderRuntime()
            runtime.serve_burst([session_job(protocol, setup, (SPAM_EMAILS[0],), label=0)])
            snapshot = registry.snapshot()
        assert counter_value(snapshot, "emails_served_total") == 1
        assert gauge_value(snapshot, "pending_window_ciphertexts") == 0
        assert histogram_entry(snapshot, "decrypt_batch_ciphertexts")["count"] == 1
        assert histogram_entry(snapshot, "decrypt_age_seconds")["count"] >= 1
