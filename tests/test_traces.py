"""Trace-driven workload tests: the seeded generator, virtual time, percentiles."""

import pytest

from repro.mail import TraceSpec, VirtualClock, generate_trace
from repro.utils.timing import percentile


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

    # Values each range check let through: with a NaN rate or an infinite
    # duration generate_trace never returns, and a zero burst length or
    # diurnal period divides by zero inside it.
    @pytest.mark.parametrize(
        "field, value",
        [
            ("mean_rate_per_second", float("nan")),
            ("mean_rate_per_second", float("inf")),
            ("duration_seconds", float("nan")),
            ("duration_seconds", float("inf")),
            ("diurnal_period_seconds", float("nan")),
            ("diurnal_period_seconds", float("inf")),
            ("diurnal_period_seconds", 0.0),
            ("burst_rate_multiplier", float("nan")),
            ("burst_rate_multiplier", float("inf")),
            ("mean_burst_seconds", float("nan")),
            ("mean_burst_seconds", float("inf")),
            ("mean_burst_seconds", 0.0),
            ("zipf_exponent", float("nan")),
            ("zipf_exponent", float("inf")),
            ("diurnal_amplitude", float("nan")),
            ("diurnal_amplitude", float("inf")),
            ("burst_fraction", float("nan")),
            ("burst_fraction", float("inf")),
            ("duplicate_fraction", float("nan")),
            ("duplicate_fraction", float("-inf")),
            ("diurnal_period_seconds", -1.0),
            ("mean_burst_seconds", -0.5),
        ],
    )
    def test_spec_refuses_values_the_generator_cannot_use(self, field, value):
        with pytest.raises(ValueError, match=field):
            TraceSpec(**{field: value})


class TestVirtualClock:
    def test_advance_is_monotonic(self):
        clock = VirtualClock(start=3.0)
        assert clock() == 3.0
        clock.advance(0.5)
        assert clock() == 3.5
        with pytest.raises(ValueError):
            clock.advance(-0.1)
        assert clock() == 3.5


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
