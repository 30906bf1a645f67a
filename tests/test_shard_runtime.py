"""Sharded serving stack tests: windowed scheduling, worker processes, async pump.

The §6.3 scaling layers must never change protocol outputs — only *when*
decrypts run and *where* sessions live.  These tests pin:

* :class:`DecryptScheduler` trigger semantics (burst window, size, time);
* output equivalence of the windowed serving loop against sequential runs
  under every window setting, including ``window_bursts=1`` (which must
  degenerate to the per-burst batching of the PR 2 loop);
* the sharded runtime's pipe-worker specifics: stable partition, topics,
  idle-tick polling, adaptive windows, series-for-series telemetry (what
  every shard-driver link must do is in ``test_shard_driver.py``);
* the asyncio pump: sessions over real TCP produce the same verdicts, with
  cross-connection decrypt batching.
"""

import asyncio
import time

import pytest
from hypothesis import given, settings, strategies as st

from repro.core.runtime import (
    AdaptiveDecryptScheduler,
    DecryptScheduler,
    ProviderRuntime,
    ShardedRuntime,
    shard_of_address,
    spam_job,
    topic_job,
)
from repro.exceptions import ProtocolError
from repro.obs import scoped_telemetry
from repro.twopc.session import AsyncSessionPump
from repro.utils.timing import AdaptiveWindowController
from repro.twopc.spam import SpamFilterProtocol
from repro.twopc.topics import TopicExtractionProtocol
from repro.twopc.transport import AsyncFramedChannel, AsyncTcpTransport
from repro.twopc.wire import WireCodec

SPAM_EMAILS = [
    {1: 1, 5: 1, 9: 1},
    {100: 1, 150: 1, 199: 1, 42: 1},
    {0: 1},
    {i: 1 for i in range(0, 200, 7)},
    {3: 1, 77: 1},
    {i: 1 for i in range(1, 200, 23)},
]

TOPIC_EMAILS = [
    {2: 1, 3: 2, 77: 1},
    {150: 4, 151: 1, 10: 2},
]


@pytest.fixture(scope="module")
def spam_setup(bv_scheme, dh_group, small_spam_model):
    protocol = SpamFilterProtocol(bv_scheme, dh_group)
    return protocol, protocol.setup(small_spam_model)


@pytest.fixture(scope="module")
def topic_setup(bv_scheme, dh_group, small_topic_model):
    protocol = TopicExtractionProtocol(bv_scheme, dh_group)
    return protocol, protocol.setup(small_topic_model)


@pytest.fixture(scope="module")
def spam_truth(small_spam_model):
    return [small_spam_model.predict_is_spam(features) for features in SPAM_EMAILS]


class _FakeClock:
    def __init__(self) -> None:
        self.now = 0.0

    def __call__(self) -> float:
        return self.now


class _FakeEntry:
    """Stands in for a parked decryption in scheduler unit tests."""

    class _Request:
        def __init__(self, scheme, keypair, count):
            self.scheme = scheme
            self.keypair = keypair
            self.ciphertexts = [object()] * count

    def __init__(self, keypair="kp", count=1, job=None):
        self.request = self._Request(scheme="scheme", keypair=keypair, count=count)
        self.job = job


class TestDecryptScheduler:
    def test_burst_window_ages_by_end_burst(self):
        scheduler = DecryptScheduler(window_bursts=2)
        scheduler.enqueue(_FakeEntry())
        assert scheduler.take_due() == []
        scheduler.end_burst()
        assert scheduler.take_due() == []  # one burst old, window is two
        scheduler.end_burst()
        due = scheduler.take_due()
        assert len(due) == 1 and len(due[0]) == 1
        assert scheduler.pending_sessions() == 0

    def test_size_trigger_fires_within_a_burst(self):
        scheduler = DecryptScheduler(window_bursts=10, max_pending_ciphertexts=3)
        scheduler.enqueue(_FakeEntry(count=2))
        assert scheduler.take_due() == []
        scheduler.enqueue(_FakeEntry(count=1))
        assert len(scheduler.take_due()) == 1

    def test_time_trigger_uses_clock(self):
        clock = _FakeClock()
        scheduler = DecryptScheduler(window_bursts=10, max_delay_seconds=5.0, clock=clock)
        scheduler.enqueue(_FakeEntry())
        assert scheduler.take_due() == []
        clock.now = 4.9
        assert scheduler.take_due() == []
        clock.now = 5.0
        assert len(scheduler.take_due()) == 1

    def test_windows_are_per_keypair(self):
        scheduler = DecryptScheduler(window_bursts=1, max_pending_ciphertexts=2)
        scheduler.enqueue(_FakeEntry(keypair="a"))
        scheduler.enqueue(_FakeEntry(keypair="b"))
        assert scheduler.pending_sessions() == 2
        scheduler.enqueue(_FakeEntry(keypair="a"))
        due = scheduler.take_due()
        assert [len(entries) for entries in due] == [2]  # only keypair a is full
        assert scheduler.pending_ciphertexts() == 1

    def test_flush_empties_everything(self):
        scheduler = DecryptScheduler(window_bursts=5)
        for keypair in ("a", "b"):
            scheduler.enqueue(_FakeEntry(keypair=keypair))
        assert len(scheduler.flush()) == 2
        assert scheduler.flush() == []

    def test_invalid_settings_rejected(self):
        with pytest.raises(ProtocolError):
            DecryptScheduler(window_bursts=0)
        with pytest.raises(ProtocolError):
            DecryptScheduler(max_pending_ciphertexts=0)
        with pytest.raises(ProtocolError):
            DecryptScheduler(max_delay_seconds=-1.0)

    def test_next_deadline_tracks_oldest_window(self):
        clock = _FakeClock()
        scheduler = DecryptScheduler(window_bursts=10, max_delay_seconds=2.0, clock=clock)
        assert scheduler.next_deadline() is None  # nothing parked
        scheduler.enqueue(_FakeEntry(keypair="a"))
        clock.now = 1.5
        scheduler.enqueue(_FakeEntry(keypair="b"))
        assert scheduler.next_deadline() == 2.0  # keypair a opened at 0.0
        clock.now = 2.0
        assert len(scheduler.take_due()) == 1  # only a is due
        assert scheduler.next_deadline() == 3.5  # b opened at 1.5

    def test_next_deadline_none_without_time_trigger(self):
        scheduler = DecryptScheduler(window_bursts=10)
        scheduler.enqueue(_FakeEntry())
        assert scheduler.next_deadline() is None

    def test_latency_ledger_records_enqueue_to_fired_ages(self):
        clock = _FakeClock()
        scheduler = DecryptScheduler(window_bursts=10, max_delay_seconds=1.0, clock=clock)
        scheduler.enqueue(_FakeEntry())
        clock.now = 0.4
        scheduler.enqueue(_FakeEntry())
        clock.now = 1.0
        assert len(scheduler.take_due()) == 1
        assert scheduler.decrypt_ages == [1.0, pytest.approx(0.6)]

    def test_latency_ledger_covers_flush_and_survives_detach(self):
        clock = _FakeClock()
        scheduler = DecryptScheduler(window_bursts=10, clock=clock)
        detached_job = object()
        scheduler.enqueue(_FakeEntry(job=detached_job))
        clock.now = 0.25
        scheduler.enqueue(_FakeEntry(job=object()))
        assert len(scheduler.detach_job(detached_job)) == 1
        assert scheduler.pending_ciphertexts() == 1
        clock.now = 1.0
        assert len(scheduler.flush()) == 1
        # Only the non-detached entry is released; its age is intact.
        assert scheduler.decrypt_ages == [0.75]


class TestAdaptiveDecryptScheduler:
    """The control loop, driven entirely by a fake clock."""

    def _ramp(self, scheduler, clock, gap, count=20):
        for _ in range(count):
            clock.now += gap
            scheduler.enqueue(_FakeEntry())

    def test_fast_arrivals_widen_the_window(self):
        clock = _FakeClock()
        scheduler = AdaptiveDecryptScheduler(
            min_delay_seconds=0.002,
            max_delay_seconds=0.25,
            target_batch_ciphertexts=16,
            clock=clock,
        )
        idle_delay = scheduler.max_delay_seconds
        assert idle_delay == pytest.approx(0.002)  # no traffic: minimum delay
        # ~200 ciphertexts/s sustained, far above target/cap = 64/s: the
        # window opens up (the ramp spans several observation intervals).
        self._ramp(scheduler, clock, gap=0.005, count=80)
        scheduler.take_due()  # consume the hot windows so only the knob remains
        assert scheduler.max_delay_seconds == pytest.approx(0.25)

    def test_idle_decay_shrinks_the_window_at_polls(self):
        clock = _FakeClock()
        scheduler = AdaptiveDecryptScheduler(
            min_delay_seconds=0.002,
            max_delay_seconds=0.25,
            target_batch_ciphertexts=16,
            clock=clock,
        )
        self._ramp(scheduler, clock, gap=0.005, count=80)
        hot_delay = scheduler.max_delay_seconds
        clock.now += 10.0  # a long lull: ~40 half-lives of decay
        scheduler.take_due()
        assert scheduler.max_delay_seconds < hot_delay
        assert scheduler.max_delay_seconds == pytest.approx(0.002, abs=1e-3)

    def test_slow_stream_releases_promptly(self):
        # One email every 2 s can never fill a batch: the window must sit at
        # ~min_delay so each email fires at most a few ms after parking.
        clock = _FakeClock()
        scheduler = AdaptiveDecryptScheduler(
            min_delay_seconds=0.002, max_delay_seconds=0.25, clock=clock
        )
        for _ in range(5):
            clock.now += 2.0
            scheduler.enqueue(_FakeEntry())
            deadline = scheduler.next_deadline()
            assert deadline is not None and deadline - clock.now < 0.01
            clock.now = deadline
            assert len(scheduler.take_due()) == 1
        assert all(age < 0.01 for age in scheduler.decrypt_ages)

    def test_arrival_clump_does_not_widen_the_window(self):
        # Three emails with millisecond gaps read as hundreds/s to a
        # per-gap estimator — one clump would saturate the controller and
        # park the clump itself behind the widest window.  The aggregated
        # estimator must see a trickle and keep the window tight.
        clock = _FakeClock()
        scheduler = AdaptiveDecryptScheduler(
            min_delay_seconds=0.002, max_delay_seconds=0.25, clock=clock
        )
        clock.now = 1.0
        for _ in range(3):
            clock.now += 0.001
            scheduler.enqueue(_FakeEntry())
        assert scheduler.max_delay_seconds < 0.01

    def test_window_history_traces_the_control_loop(self):
        clock = _FakeClock()
        scheduler = AdaptiveDecryptScheduler(clock=clock)
        self._ramp(scheduler, clock, gap=0.01, count=3)
        assert len(scheduler.window_history) == 3
        times = [when for when, _ in scheduler.window_history]
        assert times == sorted(times)

    def test_observed_rate_reads_the_estimator(self):
        clock = _FakeClock()
        scheduler = AdaptiveDecryptScheduler(clock=clock)
        assert scheduler.observed_rate() == 0.0
        self._ramp(scheduler, clock, gap=0.01)
        assert scheduler.observed_rate() > 0.0


class TestSchedulerTriggerInvariants:
    """Property test: trigger guarantees hold under any interleaving."""

    _OPS = st.lists(
        st.one_of(
            st.tuples(
                st.just("enqueue"), st.sampled_from(["a", "b", "c"]), st.integers(1, 4)
            ),
            st.tuples(st.just("end_burst")),
            st.tuples(st.just("advance"), st.floats(0.01, 1.5)),
            st.tuples(st.just("poll")),
            st.tuples(st.just("detach")),
        ),
        max_size=40,
    )

    @given(ops=_OPS)
    @settings(max_examples=60, deadline=None)
    def test_age_trigger_and_bookkeeping(self, ops):
        clock = _FakeClock()
        scheduler = DecryptScheduler(
            window_bursts=10**9, max_delay_seconds=1.0, clock=clock
        )
        enqueued_ciphertexts = 0
        released_ciphertexts = 0
        detached_ciphertexts = 0
        enqueued_entries = 0
        detached_entries = 0
        jobs: list[object] = []
        for op in ops:
            if op[0] == "enqueue":
                job = object()
                jobs.append(job)
                scheduler.enqueue(_FakeEntry(keypair=op[1], count=op[2], job=job))
                enqueued_ciphertexts += op[2]
                enqueued_entries += 1
            elif op[0] == "end_burst":
                scheduler.end_burst()
            elif op[0] == "advance":
                clock.now += op[1]
            elif op[0] == "detach" and jobs:
                for entry in scheduler.detach_job(jobs.pop()):
                    detached_ciphertexts += len(entry.request.ciphertexts)
                    detached_entries += 1
            elif op[0] == "poll":
                for entries in scheduler.take_due():
                    released_ciphertexts += sum(
                        len(entry.request.ciphertexts) for entry in entries
                    )
                # The starvation guarantee: no window older than
                # max_delay_seconds survives a poll.
                deadline = scheduler.next_deadline()
                assert deadline is None or deadline > clock.now
            # Conservation: every ciphertext is parked, released, or detached.
            assert (
                scheduler.pending_ciphertexts()
                == enqueued_ciphertexts - released_ciphertexts - detached_ciphertexts
            )
            assert scheduler.pending_ciphertexts() >= 0
        clock.now += 2.0  # one final poll past every possible deadline
        for entries in scheduler.take_due():
            released_ciphertexts += sum(len(entry.request.ciphertexts) for entry in entries)
        assert scheduler.pending_ciphertexts() == 0
        assert released_ciphertexts + detached_ciphertexts == enqueued_ciphertexts
        assert len(scheduler.decrypt_ages) == enqueued_entries - detached_entries


class TestWindowedServing:
    def _serve_in_bursts(self, protocol, setup, scheduler, burst_size=2):
        """Feed SPAM_EMAILS in bursts; return verdicts by label plus the runtime."""
        runtime = ProviderRuntime(scheduler=scheduler)
        pool = protocol.make_ot_pool(setup)
        finished = []
        for start in range(0, len(SPAM_EMAILS), burst_size):
            jobs = [
                spam_job(protocol, setup, features, label=start + offset, ot_pool=pool)
                for offset, features in enumerate(SPAM_EMAILS[start : start + burst_size])
            ]
            finished += runtime.serve_burst(jobs)
        finished += runtime.drain()
        verdicts = {job.label: job.client.is_spam for job in finished}
        return [verdicts[index] for index in range(len(SPAM_EMAILS))], runtime

    @pytest.mark.parametrize(
        "make_scheduler",
        [
            lambda: DecryptScheduler(window_bursts=1),
            lambda: DecryptScheduler(window_bursts=2),
            lambda: DecryptScheduler(window_bursts=100),  # only drain() closes it
            lambda: DecryptScheduler(window_bursts=100, max_pending_ciphertexts=3),
            lambda: DecryptScheduler(window_bursts=100, max_delay_seconds=0.0),
        ],
        ids=["bursts1", "bursts2", "drain-only", "size3", "delay0"],
    )
    def test_every_window_setting_matches_sequential(
        self, spam_setup, spam_truth, make_scheduler
    ):
        protocol, setup = spam_setup
        verdicts, _ = self._serve_in_bursts(protocol, setup, make_scheduler())
        assert verdicts == spam_truth

    def test_window_one_degenerates_to_per_burst_batching(self, spam_setup, spam_truth):
        # window_bursts=1 is PR 2 behaviour: every burst completes before
        # serve_burst returns, with one batched decrypt per burst.
        protocol, setup = spam_setup
        runtime = ProviderRuntime()  # default scheduler: window_bursts=1
        pool = protocol.make_ot_pool(setup)
        per_email = setup.encrypted_model.result_ciphertext_count()
        for start in range(0, len(SPAM_EMAILS), 3):
            burst = SPAM_EMAILS[start : start + 3]
            jobs = [
                spam_job(protocol, setup, features, label=index, ot_pool=pool)
                for index, features in enumerate(burst)
            ]
            finished = runtime.serve_burst(jobs)
            assert len(finished) == len(burst)
            assert runtime.outstanding_jobs() == 0
        assert runtime.decrypt_batch_sizes == [3 * per_email, 3 * per_email]
        assert runtime.drain() == []

    def test_wide_window_holds_work_across_bursts(self, spam_setup, spam_truth):
        protocol, setup = spam_setup
        scheduler = DecryptScheduler(window_bursts=3)
        verdicts, runtime = self._serve_in_bursts(protocol, setup, scheduler)
        assert verdicts == spam_truth
        per_email = setup.encrypted_model.result_ciphertext_count()
        # 3 bursts of 2 emails folded into one decrypt; no per-burst calls.
        assert runtime.decrypt_batch_sizes == [len(SPAM_EMAILS) * per_email]

    def test_drain_on_idle_runtime_is_empty(self):
        runtime = ProviderRuntime(scheduler=DecryptScheduler(window_bursts=4))
        assert runtime.drain() == []
        assert runtime.outstanding_jobs() == 0

    def test_time_window_through_serving_loop_pinned_to_fake_clock(
        self, spam_setup, spam_truth
    ):
        # The wall-clock trigger end-to-end, with zero real time involved: the
        # window must hold while the injected clock is short of the deadline
        # and close (finishing the parked jobs) the poll after it passes.
        protocol, setup = spam_setup
        clock = _FakeClock()
        runtime = ProviderRuntime(
            scheduler=DecryptScheduler(
                window_bursts=100, max_delay_seconds=5.0, clock=clock
            )
        )
        pool = protocol.make_ot_pool(setup)
        jobs = [
            spam_job(protocol, setup, features, label=index, ot_pool=pool)
            for index, features in enumerate(SPAM_EMAILS[:2])
        ]
        assert runtime.serve_burst(jobs) == []  # parked; clock at 0.0
        clock.now = 4.999
        assert runtime.serve_burst([]) == []  # still inside the window
        clock.now = 5.0
        finished = runtime.serve_burst([])
        assert sorted(job.label for job in finished) == [0, 1]
        verdicts = {job.label: job.client.is_spam for job in finished}
        assert [verdicts[0], verdicts[1]] == spam_truth[:2]
        assert runtime.outstanding_jobs() == 0


class TestIdleWindowStarvation:
    """The PR 8 bugfix: age triggers must fire with *no* further traffic.

    Before ``ProviderRuntime.poll``, ``max_delay_seconds`` was only evaluated
    inside ``serve_burst``/``drain`` — an idle provider held parked decrypts
    (and the clients' emails) unboundedly.  These tests park work, advance a
    fake clock past the deadline, send **no** further bursts, and assert the
    decrypt fires from a bare poll.
    """

    def test_poll_fires_aged_window_without_traffic(self, spam_setup, spam_truth):
        protocol, setup = spam_setup
        clock = _FakeClock()
        runtime = ProviderRuntime(
            scheduler=DecryptScheduler(
                window_bursts=100, max_delay_seconds=5.0, clock=clock
            )
        )
        job = spam_job(protocol, setup, SPAM_EMAILS[0], label=0)
        assert runtime.serve_burst([job]) == []  # parked inside the window
        assert runtime.poll() == []  # deadline not reached: still parked
        clock.now = 5.0
        finished = runtime.poll()  # no burst, no drain — just the tick
        assert [job.label for job in finished] == [0]
        assert finished[0].client.is_spam == spam_truth[0]
        assert runtime.outstanding_jobs() == 0

    def test_poll_respects_the_deadline(self, spam_setup):
        protocol, setup = spam_setup
        clock = _FakeClock()
        runtime = ProviderRuntime(
            scheduler=DecryptScheduler(
                window_bursts=100, max_delay_seconds=5.0, clock=clock
            )
        )
        runtime.serve_burst([spam_job(protocol, setup, SPAM_EMAILS[0], label=0)])
        assert runtime.scheduler.next_deadline() == 5.0
        clock.now = 4.999
        assert runtime.poll() == []
        assert runtime.outstanding_jobs() == 1  # still parked: not yet due

    def test_poll_accepts_explicit_now(self, spam_setup):
        protocol, setup = spam_setup
        clock = _FakeClock()
        runtime = ProviderRuntime(
            scheduler=DecryptScheduler(
                window_bursts=100, max_delay_seconds=2.0, clock=clock
            )
        )
        runtime.serve_burst([spam_job(protocol, setup, SPAM_EMAILS[0], label=0)])
        finished = runtime.poll(now=2.0)  # the clock itself never moved
        assert len(finished) == 1

    def test_poll_on_idle_runtime_is_empty(self):
        runtime = ProviderRuntime(
            scheduler=DecryptScheduler(window_bursts=100, max_delay_seconds=0.01)
        )
        assert runtime.poll() == []

    def test_adaptive_runtime_poll_releases_idle_tail(self, spam_setup, spam_truth):
        # End-to-end with the adaptive scheduler: one email on a quiet
        # stream parks, and the poll tick releases it near min_delay.
        protocol, setup = spam_setup
        clock = _FakeClock()
        runtime = ProviderRuntime(
            scheduler=AdaptiveDecryptScheduler(
                min_delay_seconds=0.002, max_delay_seconds=0.25, clock=clock
            )
        )
        assert runtime.serve_burst([spam_job(protocol, setup, SPAM_EMAILS[0], label=0)]) == []
        deadline = runtime.scheduler.next_deadline()
        assert deadline is not None and deadline <= 0.01  # quiet stream: ~min_delay
        clock.now = deadline
        finished = runtime.poll()
        assert [job.client.is_spam for job in finished] == spam_truth[:1]
        assert runtime.scheduler.decrypt_ages == [pytest.approx(deadline)]


class TestShardedRuntime:
    def test_partition_is_stable_and_total(self):
        addresses = [f"user{i}@example.com" for i in range(64)]
        shards = [shard_of_address(address, 4) for address in addresses]
        assert shards == [shard_of_address(address, 4) for address in addresses]
        assert set(shards) == {0, 1, 2, 3}  # 64 addresses cover 4 shards w.h.p.
        assert all(0 <= shard < 4 for shard in shards)

    def test_sharded_topics_match_sequential(self, topic_setup, small_topic_model):
        protocol, setup = topic_setup
        truths = [small_topic_model.predict(features) for features in TOPIC_EMAILS]
        candidates = [sorted({truth, 0, 1, 2}) for truth in truths]
        with ShardedRuntime(num_shards=2) as runtime:
            runtime.register_topics("dave@example.com", protocol, setup)
            job_ids = runtime.submit_topics(
                [
                    ("dave@example.com", features, candidate_list)
                    for features, candidate_list in zip(TOPIC_EMAILS, candidates)
                ]
            )
            runtime.drain()
            extracted = [runtime.take_result(job_id).extracted_topic for job_id in job_ids]
        assert extracted == truths

    def test_parent_poll_releases_aged_window_without_drain(
        self, spam_setup, spam_truth
    ):
        # The sharded face of the starvation fix: one email parks inside a
        # 100-burst window, no drain is ever called, and the result still
        # arrives once the age deadline passes — via poll() alone.
        protocol, setup = spam_setup
        address = "poller@example.com"
        with ShardedRuntime(
            num_shards=2, window_bursts=100, max_delay_seconds=0.05
        ) as runtime:
            runtime.register_spam(address, protocol, setup)
            (job_id,) = runtime.submit_spam([(address, SPAM_EMAILS[0])])
            released = 0
            deadline = time.monotonic() + 10.0
            while not released and time.monotonic() < deadline:
                time.sleep(0.02)
                released = runtime.poll()
            assert released == 1
            assert runtime.take_result(job_id).is_spam == spam_truth[0]
            assert runtime.outstanding_count() == 0

    def test_adaptive_sharded_runtime_matches_sequential(
        self, spam_setup, spam_truth
    ):
        protocol, setup = spam_setup
        addresses = ["ada@example.com", "bert@example.com"]
        with ShardedRuntime(
            num_shards=2,
            adaptive=True,
            adaptive_options={"min_delay_seconds": 0.001, "max_delay_seconds": 0.05},
        ) as runtime:
            for address in addresses:
                runtime.register_spam(address, protocol, setup)
            bursts = [
                [(addresses[index % 2], features) for index, features in burst]
                for burst in (
                    list(enumerate(SPAM_EMAILS[:3])),
                    list(enumerate(SPAM_EMAILS[3:], start=3)),
                )
            ]
            results = runtime.run_spam_stream(bursts)
            assert [result.is_spam for result in results] == spam_truth
            stats = runtime.shard_stats()
        # The workers report their latency ledgers up through shard_stats.
        assert all("decrypt_ages" in stat for stat in stats)
        assert sum(len(stat["decrypt_ages"]) for stat in stats) > 0


def _counter_value(snapshot, name):
    for entry in snapshot["counters"]:
        if entry["name"] == name:
            return entry["value"]
    return 0.0


def _histogram_entry(snapshot, name):
    for entry in snapshot["histograms"]:
        if entry["name"] == name:
            return entry
    raise AssertionError(f"no histogram {name!r} in snapshot")


class TestShardedTelemetry:
    """Worker registries merged in the parent equal a single-process run."""

    def _single_process_snapshot(self, protocol, setup, waves):
        """Serve the same stream in one process under an isolated registry."""
        with scoped_telemetry() as (registry, _):
            runtime = ProviderRuntime(scheduler=DecryptScheduler(window_bursts=1))
            pool = protocol.make_ot_pool(setup)
            label = 0
            for wave in waves:
                jobs = []
                for _, features in wave:
                    jobs.append(
                        spam_job(protocol, setup, features, label=label, ot_pool=pool)
                    )
                    label += 1
                runtime.serve_burst(jobs)
            runtime.drain()
            return registry.snapshot()

    def test_aggregated_metrics_equal_single_process_run(self, spam_setup):
        # One shard, window_bursts=1: the worker sees the identical burst
        # structure as a single-process runtime, so the aggregated serving
        # metrics must match series for series — counters and the full
        # decrypt batch-size distribution (bucket counts, sum, extremes).
        protocol, setup = spam_setup
        address = "solo-metrics@example.com"
        waves = [
            [(address, features) for features in SPAM_EMAILS[:3]],
            [(address, features) for features in SPAM_EMAILS[3:]],
        ]
        with ShardedRuntime(num_shards=1, window_bursts=1) as runtime:
            runtime.register_spam(address, protocol, setup)
            runtime.run_spam_stream(waves)
            aggregated = runtime.aggregated_metrics()
        single = self._single_process_snapshot(protocol, setup, waves)
        for name in ("emails_served_total", "decrypt_batches_total"):
            assert _counter_value(aggregated, name) == _counter_value(single, name)
        sharded_hist = _histogram_entry(aggregated, "decrypt_batch_ciphertexts")
        single_hist = _histogram_entry(single, "decrypt_batch_ciphertexts")
        for field in ("counts", "count", "sum", "min", "max", "recent"):
            assert sharded_hist[field] == single_hist[field]

    def test_multi_shard_aggregation_preserves_stream_totals(self, spam_setup):
        # Across two shards the batching *shape* legitimately differs (each
        # worker flushes its own windows), but the stream-level totals —
        # emails served and ciphertexts decrypted — must equal the
        # single-process run exactly.
        protocol, setup = spam_setup
        addresses = ["aggie@example.com", "boris@example.com", "cleo@example.com"]
        waves = [
            [
                (addresses[index % 3], features)
                for index, features in enumerate(SPAM_EMAILS[:3])
            ],
            [
                (addresses[index % 3], features)
                for index, features in enumerate(SPAM_EMAILS[3:], start=3)
            ],
        ]
        with ShardedRuntime(num_shards=2, window_bursts=1) as runtime:
            for address in addresses:
                runtime.register_spam(address, protocol, setup)
            runtime.run_spam_stream(waves)
            aggregated = runtime.aggregated_metrics()
        single = self._single_process_snapshot(protocol, setup, waves)
        assert _counter_value(aggregated, "emails_served_total") == _counter_value(
            single, "emails_served_total"
        ) == len(SPAM_EMAILS)
        sharded_hist = _histogram_entry(aggregated, "decrypt_batch_ciphertexts")
        single_hist = _histogram_entry(single, "decrypt_batch_ciphertexts")
        assert sharded_hist["sum"] == single_hist["sum"]

class TestAsyncSessionPump:
    def _run_tcp_sessions(
        self, protocol, setup, feature_sets, window_seconds=0.02, controller=None
    ):
        """Run N spam sessions over real TCP through one provider pump."""

        async def scenario():
            provider_pump = AsyncSessionPump(
                window_seconds=window_seconds, controller=controller
            )
            client_pump = AsyncSessionPump()
            pool = protocol.make_ot_pool(setup)

            def codec():
                return WireCodec(scheme=protocol.scheme, public_key=setup.keypair.public)

            async def handle_connection(transport):
                channel = AsyncFramedChannel(transport, codec())
                session = protocol.provider_session(setup, ot_pool=pool)
                await provider_pump.run_session(channel, "provider", session)

            server = await AsyncTcpTransport.start_server(handle_connection, port=0)
            port = server.sockets[0].getsockname()[1]

            async def run_client(features):
                transport = await AsyncTcpTransport.connect("127.0.0.1", port)
                channel = AsyncFramedChannel(transport, codec())
                session = protocol.client_session(setup, features, ot_pool=pool)
                await client_pump.run_session(channel, "client", session)
                verdict = session.is_spam
                await channel.aclose()
                return verdict, channel.total_bytes()

            try:
                outcomes = await asyncio.gather(
                    *(run_client(features) for features in feature_sets)
                )
            finally:
                server.close()
                await server.wait_closed()
            return outcomes, provider_pump.decrypt_batch_sizes

        return asyncio.run(scenario())

    def test_single_session_over_tcp_matches_plain(self, spam_setup, spam_truth):
        protocol, setup = spam_setup
        outcomes, batches = self._run_tcp_sessions(protocol, setup, SPAM_EMAILS[:1])
        assert [verdict for verdict, _ in outcomes] == spam_truth[:1]
        assert all(total_bytes > 0 for _, total_bytes in outcomes)
        assert batches == [setup.encrypted_model.result_ciphertext_count()]

    def test_concurrent_tcp_sessions_batch_decrypts(self, spam_setup, spam_truth):
        protocol, setup = spam_setup
        outcomes, batches = self._run_tcp_sessions(protocol, setup, SPAM_EMAILS[:3])
        assert [verdict for verdict, _ in outcomes] == spam_truth[:3]
        # All three connections' decrypts folded into one windowed batch.
        per_email = setup.encrypted_model.result_ciphertext_count()
        assert sum(batches) == 3 * per_email
        assert max(batches) >= 2 * per_email

    def test_invalid_pump_settings_rejected(self):
        with pytest.raises(ProtocolError):
            AsyncSessionPump(window_seconds=-0.1)
        with pytest.raises(ProtocolError):
            AsyncSessionPump(max_pending_ciphertexts=0)

    def test_controller_driven_pump_matches_plain(self, spam_setup, spam_truth):
        # An adaptive pump (window retuned per arrival by the controller)
        # must still serve every session correctly over real TCP.
        controller = AdaptiveWindowController(
            min_delay_seconds=0.001, max_delay_seconds=0.05, target_batch_items=64
        )
        protocol, setup = spam_setup
        outcomes, batches = self._run_tcp_sessions(
            protocol, setup, SPAM_EMAILS[:3], controller=controller
        )
        assert [verdict for verdict, _ in outcomes] == spam_truth[:3]
        per_email = setup.encrypted_model.result_ciphertext_count()
        assert sum(batches) == 3 * per_email
        assert controller.estimator._last_update is not None  # arrivals observed
