"""Trace-driven workload tests: generation, virtual time, replay, percentiles.

Trace replay stands on three legs — a seeded trace generator, a virtual
clock that owns replay time, and the latency summaries — and the
bit-identical telemetry pins in ``test_obs.py`` assume all three are
deterministic and honest.  These tests pin each leg down.
"""

import time

import pytest

from repro.core.runtime import DecryptScheduler, ProviderRuntime, session_job
from repro.mail import (
    ReplayGuard,
    TraceEvent,
    TraceSpec,
    VirtualClock,
    generate_trace,
    serve_trace,
)
from repro.obs import scoped_telemetry
from repro.obs.metrics import RECENT_SAMPLE_CAP
from repro.twopc.spam import SpamFilterProtocol
from repro.utils.timing import percentile, summarize_latencies

SPAM_EMAILS = [
    {1: 1, 5: 1, 9: 1},
    {100: 1, 150: 1, 199: 1, 42: 1},
    {0: 1},
    {i: 1 for i in range(0, 200, 7)},
]


@pytest.fixture(scope="module")
def spam_setup(bv_scheme, dh_group, small_spam_model):
    protocol = SpamFilterProtocol(bv_scheme, dh_group)
    return protocol, protocol.setup(small_spam_model)


class TestGenerateTrace:
    SPEC = TraceSpec(
        mailboxes=50,
        mean_rate_per_second=40.0,
        duration_seconds=5.0,
        duplicate_fraction=0.05,
        seed=123,
    )

    def test_same_seed_same_schedule(self):
        # Replays of one trace under two policies are paired only if the
        # schedule itself is deterministic.
        assert generate_trace(self.SPEC) == generate_trace(self.SPEC)

    def test_different_seeds_differ(self):
        other = TraceSpec(
            mailboxes=50,
            mean_rate_per_second=40.0,
            duration_seconds=5.0,
            duplicate_fraction=0.05,
            seed=124,
        )
        assert generate_trace(self.SPEC) != generate_trace(other)

    def test_arrivals_are_ordered_and_bounded(self):
        events = generate_trace(self.SPEC)
        times = [event.arrival_seconds for event in events]
        assert times == sorted(times)
        assert all(0.0 <= t < self.SPEC.duration_seconds for t in times)
        # Thinned Poisson at these settings lands near the mean rate.
        assert 0.5 < len(events) / (40.0 * 5.0) < 2.0

    def test_mailbox_volume_is_heavy_tailed(self):
        events = generate_trace(self.SPEC)
        volumes: dict[str, int] = {}
        for event in events:
            volumes[event.mailbox] = volumes.get(event.mailbox, 0) + 1
        ranked = sorted(volumes.values(), reverse=True)
        # Zipf: the hottest mailbox carries many times the median's traffic.
        assert ranked[0] >= 5 * ranked[len(ranked) // 2]

    def test_sequence_numbers_count_up_per_sender(self):
        events = generate_trace(self.SPEC)
        next_expected: dict[str, int] = {}
        for event in events:
            if event.duplicate:
                continue
            assert event.sequence_number == next_expected.get(event.sender, 0)
            next_expected[event.sender] = event.sequence_number + 1

    def test_duplicates_replay_an_earlier_identity(self):
        events = generate_trace(self.SPEC)
        duplicates = [event for event in events if event.duplicate]
        assert duplicates  # 5% of ~200 events
        fresh = {(event.sender, event.sequence_number) for event in events if not event.duplicate}
        assert all((dup.sender, dup.sequence_number) in fresh for dup in duplicates)

    def test_spec_validation(self):
        with pytest.raises(ValueError):
            TraceSpec(mailboxes=0)
        with pytest.raises(ValueError):
            TraceSpec(mean_rate_per_second=0.0)
        with pytest.raises(ValueError):
            TraceSpec(diurnal_amplitude=1.0)
        with pytest.raises(ValueError):
            TraceSpec(burst_rate_multiplier=0.5)
        with pytest.raises(ValueError):
            TraceSpec(duplicate_fraction=1.0)


class TestVirtualClock:
    def test_advance_is_monotonic(self):
        clock = VirtualClock()
        clock.advance_to(3.0)
        clock.advance_to(1.0)  # never backwards
        assert clock() == 3.0
        clock.advance(0.5)
        assert clock() == 3.5
        with pytest.raises(ValueError):
            clock.advance(-0.1)

    def test_charge_flows_and_accumulates(self):
        clock = VirtualClock(start=10.0)

        readings = []

        def call():
            readings.append(clock())
            time.sleep(0.01)
            readings.append(clock())

        _, elapsed = clock.charge(call)
        assert elapsed >= 0.01
        assert clock() == pytest.approx(10.0 + elapsed)
        # Mid-call reads saw time flowing, not the stale entry timestamp.
        assert readings[0] >= 10.0
        assert readings[1] - readings[0] >= 0.01

    def test_cannot_jump_while_charging(self):
        clock = VirtualClock()

        def call():
            with pytest.raises(ValueError):
                clock.advance_to(99.0)
            with pytest.raises(ValueError):
                clock.advance(1.0)

        clock.charge(call)


class TestPercentiles:
    def test_interpolation(self):
        samples = [1.0, 2.0, 3.0, 4.0]
        assert percentile(samples, 0) == 1.0
        assert percentile(samples, 100) == 4.0
        assert percentile(samples, 50) == 2.5
        assert percentile([7.0], 99) == 7.0

    def test_validation(self):
        with pytest.raises(ValueError):
            percentile([], 50)
        with pytest.raises(ValueError):
            percentile([1.0], 101)

    def test_summary_schema(self):
        summary = summarize_latencies([0.1, 0.2, 0.3])
        assert set(summary) == {"count", "mean", "max", "p50", "p95", "p99"}
        assert summary["count"] == 3.0
        assert summary["p50"] == pytest.approx(0.2)
        empty = summarize_latencies([])
        assert empty["count"] == 0.0 and empty["p99"] == 0.0


class TestServeTrace:
    SPEC = TraceSpec(
        mailboxes=3,
        senders_per_mailbox=2,
        mean_rate_per_second=5.0,
        duration_seconds=2.0,
        duplicate_fraction=0.2,
        seed=7,
    )

    def _replay(self, spam_setup, cost_model, ledger=()):
        protocol, setup = spam_setup
        events = generate_trace(self.SPEC)
        clock = VirtualClock()
        runtime = ProviderRuntime(
            scheduler=DecryptScheduler(
                window_bursts=10**9, max_delay_seconds=0.05, clock=clock
            )
        )
        runtime.decrypt_batch_sizes.extend(ledger)
        features_by_mailbox = {
            f"user{index}@trace.example": SPAM_EMAILS[index % len(SPAM_EMAILS)]
            for index in range(self.SPEC.mailboxes)
        }
        report = serve_trace(
            runtime,
            events,
            lambda event: session_job(
                protocol, setup, (features_by_mailbox[event.mailbox],), label=event.sender
            ),
            clock,
            replay_guard=ReplayGuard(),
            cost_model=cost_model,
        )
        return events, report

    def test_real_runtime_serves_the_whole_trace(self, spam_setup):
        events, report = self._replay(spam_setup, cost_model=lambda size: 0.01 + 0.002 * size)
        fresh = [event for event in events if not event.duplicate]
        duplicates = len(events) - len(fresh)
        assert report.served == len(fresh)
        assert report.rejected_duplicates == duplicates > 0
        assert len(report.latencies) == report.served
        # Every latency includes at least its own batch's service charge,
        # and the 50 ms age trigger bounds the window wait.
        assert all(latency > 0.01 for latency in report.latencies)
        assert max(report.latencies) < 1.0
        assert report.provider_cpu_seconds > 0.0
        assert sum(report.decrypt_batch_sizes) > 0

    def test_cost_model_replay_is_deterministic(self, spam_setup):
        cost_model = lambda size: 0.01 + 0.002 * size
        _, first = self._replay(spam_setup, cost_model)
        _, second = self._replay(spam_setup, cost_model)
        # Bit-identical virtual timelines: policies compare without
        # wall-clock jitter.
        assert first.latencies == second.latencies
        assert first.decrypt_batch_sizes == second.decrypt_batch_sizes

    def test_summary_row_shape(self, spam_setup):
        _, report = self._replay(spam_setup, cost_model=lambda size: 0.01)
        row = report.summary()
        assert row["served"] == float(report.served)
        assert row["throughput_per_cpu_second"] > 0.0
        assert row["latency_p99"] >= row["latency_p50"] > 0.0
        assert row["mean_decrypt_batch"] >= 1.0
        # The batch-size distribution row rides along: p95 can never sit
        # below the mean's floor and must bound the observed maximum.
        assert row["p95_decrypt_batch"] >= 1.0
        assert row["p95_decrypt_batch"] <= max(report.decrypt_batch_sizes)

    def test_a_full_batch_ledger_still_charges_every_flushed_batch(self, spam_setup):
        # A long-lived runtime's ledger sits at RECENT_SAMPLE_CAP and no longer
        # grows, so the replay reads how many batches each call flushed off
        # the decrypt_batches_total counter.
        cost_model = lambda size: 0.01 + 0.002 * size
        _, fresh = self._replay(spam_setup, cost_model)
        with scoped_telemetry() as (registry, _):
            _, full = self._replay(spam_setup, cost_model, ledger=[1] * RECENT_SAMPLE_CAP)
        assert full.latencies == fresh.latencies
        assert full.decrypt_batch_sizes == fresh.decrypt_batch_sizes
        assert len(full.decrypt_batch_sizes) == registry.counter("decrypt_batches_total").value
