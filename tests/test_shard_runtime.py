"""Sharded serving stack tests: windowed scheduling, worker processes.

The §6.3 scaling layers must never change protocol outputs — only *when*
decrypts run and *where* sessions live.  These tests pin:

* :class:`DecryptScheduler` trigger semantics (burst window, time), the
  fire-on-arrival default, and the window values it refuses;
* output equivalence of the windowed serving loop against sequential runs
  under every window setting, including ``window_bursts=1`` (which must
  degenerate to the per-burst batching of the PR 2 loop);
* the sharded runtime's local-shard specifics: stable partition, topics,
  idle-tick polling, series-for-series telemetry, a forked agent's HELLO
  refusal, and no forked process outliving its runtime (what every
  shard-driver deployment must do, forked and over TCP, is in
  ``test_shard_driver.py``).
"""

import copy
import math
import multiprocessing
import os
import pickle
import signal
import time

import pytest
from hypothesis import given, settings, strategies as st

from repro.core.runtime import (
    DecryptScheduler,
    ProviderRuntime,
    ShardedRuntime,
    ShardWorkerCore,
    checked_scheduler_spec,
    shard_of_address,
    session_job,
)
from repro.exceptions import ProtocolError
from repro.fabric.agent import fork_local_agent
from repro.fabric.control import TcpLink
from repro.mail import VirtualClock
from repro.obs import scoped_telemetry
from repro.obs.metrics import RECENT_SAMPLE_CAP
from repro.twopc.session import _ParkedDecryption
from repro.twopc.spam import SpamFilterProtocol
from repro.twopc.topics import TopicExtractionProtocol

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
        assert scheduler.pending_ciphertexts() == 0

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
        scheduler = DecryptScheduler(window_bursts=1)
        scheduler.enqueue(_FakeEntry(keypair="a"))
        scheduler.enqueue(_FakeEntry(keypair="a"))
        scheduler.end_burst()
        scheduler.enqueue(_FakeEntry(keypair="b"))
        assert scheduler.pending_ciphertexts() == 3  # one ciphertext per entry
        due = scheduler.take_due()
        assert [len(entries) for entries in due] == [2]  # only keypair a is a burst old
        assert scheduler.pending_ciphertexts() == 1

    def test_flush_empties_everything(self):
        scheduler = DecryptScheduler(window_bursts=5)
        for keypair in ("a", "b"):
            scheduler.enqueue(_FakeEntry(keypair=keypair))
        assert len(scheduler.flush()) == 2
        assert scheduler.flush() == []

    def test_invalid_settings_rejected(self):
        for window_bursts in (0, -1, True, False, 1.0, 2.5, "2", None):
            with pytest.raises(ProtocolError, match="window_bursts"):
                DecryptScheduler(window_bursts=window_bursts)
        # nan < 0 is False, so a bare sign check once accepted nan (and inf):
        # next_deadline() then quoted nan and a worker's idle loop spun.
        for max_delay_seconds in (-1.0, -1e-9, math.nan, math.inf, -math.inf, True, "0.25"):
            with pytest.raises(ProtocolError, match="max_delay_seconds"):
                DecryptScheduler(max_delay_seconds=max_delay_seconds)

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
        with scoped_telemetry() as (registry, _):
            scheduler = DecryptScheduler(window_bursts=10, max_delay_seconds=1.0, clock=clock)
            scheduler.enqueue(_FakeEntry())
            clock.now = 0.4
            scheduler.enqueue(_FakeEntry())
            clock.now = 1.0
            assert len(scheduler.take_due()) == 1
        ages = registry.histogram("decrypt_age_seconds")
        assert list(ages.recent) == [1.0, pytest.approx(0.6)]

    def test_latency_ledger_covers_flush_and_survives_detach(self):
        clock = _FakeClock()
        with scoped_telemetry() as (registry, _):
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
        assert list(registry.histogram("decrypt_age_seconds").recent) == [0.75]


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
        with scoped_telemetry() as (registry, _):
            released_entries = self._drive(ops)
        # Every released entry's age is observed once; detached ones never.
        assert registry.histogram("decrypt_age_seconds").count == released_entries

    @staticmethod
    def _drive(ops) -> int:
        """Apply *ops*, checking the invariants; returns the entries released."""
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
        return enqueued_entries - detached_entries


class TestWindowedServing:
    def _serve_in_bursts(self, protocol, setup, scheduler, burst_size=2):
        """Feed SPAM_EMAILS in bursts; return verdicts by label plus the runtime."""
        runtime = ProviderRuntime(scheduler=scheduler)
        pool = protocol.make_ot_pool(setup)
        finished = []
        for start in range(0, len(SPAM_EMAILS), burst_size):
            jobs = [
                session_job(protocol, setup, (features,), label=start + offset, ot_pool=pool)
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
            lambda: DecryptScheduler(window_bursts=3),
            lambda: DecryptScheduler(window_bursts=100, max_delay_seconds=0.0),
        ],
        ids=["bursts1", "bursts2", "drain-only", "bursts3", "delay0"],
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
                session_job(protocol, setup, (features,), label=index, ot_pool=pool)
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
            session_job(protocol, setup, (features,), label=index, ot_pool=pool)
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
        job = session_job(protocol, setup, (SPAM_EMAILS[0],), label=0)
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
        runtime.serve_burst([session_job(protocol, setup, (SPAM_EMAILS[0],), label=0)])
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
        runtime.serve_burst([session_job(protocol, setup, (SPAM_EMAILS[0],), label=0)])
        finished = runtime.poll(now=2.0)  # the clock itself never moved
        assert len(finished) == 1

    def test_poll_on_idle_runtime_is_empty(self):
        runtime = ProviderRuntime(
            scheduler=DecryptScheduler(window_bursts=100, max_delay_seconds=0.01)
        )
        assert runtime.poll() == []


class TestFireOnArrival:
    """The default policy, pinned by exact counts on a clock that only moves between calls."""

    def test_every_burst_finishes_inside_its_own_call(self, spam_setup, spam_truth, monkeypatch):
        protocol, setup = spam_setup
        setups = [setup, copy.deepcopy(setup)]  # two mailboxes, two key pairs
        keypairs = sorted(id(each.keypair) for each in setups)
        calls: list[int] = []
        original = type(protocol.scheme).decrypt_slots_many

        def counting(scheme, keypair, ciphertexts):
            calls.append(id(keypair))
            return original(scheme, keypair, ciphertexts)

        monkeypatch.setattr(type(protocol.scheme), "decrypt_slots_many", counting)
        clock = VirtualClock()
        with scoped_telemetry() as (_, tracer):
            runtime = ProviderRuntime(scheduler=DecryptScheduler(clock=clock))
            verdicts = {}
            for first, burst in ((0, SPAM_EMAILS[:4]), (4, SPAM_EMAILS[4:])):
                jobs = [
                    session_job(protocol, setups[index % 2], (features,), label=index)
                    for index, features in enumerate(burst, start=first)
                ]
                finished = runtime.serve_burst(jobs)
                assert len(finished) == len(jobs)
                assert runtime.outstanding_jobs() == 0
                assert runtime.scheduler.next_deadline() is None
                assert sorted(calls) == keypairs  # one decrypt call per key pair
                calls.clear()
                verdicts.update((job.label, job.client.is_spam) for job in finished)
                clock.advance(1.0)
            parks = [span for span in tracer.snapshot() if span["name"] == "window_park"]
        assert [verdicts[index] for index in range(len(SPAM_EMAILS))] == spam_truth
        assert len(parks) == len(SPAM_EMAILS)
        assert all(span["end_seconds"] == span["start_seconds"] for span in parks)


class _StubSession:
    def add_seconds(self, seconds: float) -> None:
        pass

    def supply_decrypted(self, slot_lists):
        return []


class _StubJob:
    label = "stub"
    trace_id = None

    def dispatch(self, party, frames) -> None:
        pass


class _StubScheme:
    def decrypt_slots_many(self, keypair, ciphertexts):
        return [[0] for _ in ciphertexts]


class TestBoundedLedgers:
    def test_batch_ledger_and_stats_reply_stop_growing_at_the_cap(self):
        request = _FakeEntry._Request(scheme=_StubScheme(), keypair="kp", count=1)
        entry = _ParkedDecryption(
            job=_StubJob(), party="provider", session=_StubSession(), request=request
        )
        with scoped_telemetry():
            core = ShardWorkerCore((1, None))

            def stats_bytes_after(batches: int) -> int:
                for _ in range(batches):
                    core.runtime._service_group([entry])
                return len(pickle.dumps(core.handle("stats", None)))

            first = stats_bytes_after(RECENT_SAMPLE_CAP + 1)
            assert len(core.runtime.decrypt_batch_sizes) == RECENT_SAMPLE_CAP
            second = stats_bytes_after(RECENT_SAMPLE_CAP)
            stats, results, metrics = core.handle("stats", None)[1]
        assert len(core.runtime.decrypt_batch_sizes) == RECENT_SAMPLE_CAP
        assert second == first
        assert set(stats) == {
            "mailboxes",
            "outstanding_jobs",
            "disconnected_jobs",
            "pending_window_ciphertexts",
            "restored_jobs",
        }
        assert results == []
        assert _counter_value(metrics, "decrypt_batches_total") == 2 * RECENT_SAMPLE_CAP + 1


class TestWorkerSchedulerSpec:
    """The spec crosses a process boundary: a worker checks it before building anything."""

    @pytest.mark.parametrize(
        "spec",
        [
            (1,),
            (1, None, None),
            ("static", 1, None, None),
            ("static", True, None, "x"),
            (True, None),
            (0, None),
            (1, math.nan),
            (1, math.inf),
            (1, -0.5),
            None,
            "1,",
        ],
        ids=repr,
    )
    def test_malformed_spec_builds_no_core(self, spec):
        with pytest.raises(ProtocolError):
            checked_scheduler_spec(spec)
        with scoped_telemetry() as (registry, _):
            with pytest.raises(ProtocolError):
                ShardWorkerCore(spec)
        snapshot = registry.snapshot()
        assert snapshot["counters"] == snapshot["histograms"] == snapshot["gauges"] == []

    def test_driver_refuses_a_window_before_forking(self):
        with pytest.raises(ProtocolError, match="max_delay_seconds"):
            ShardedRuntime(num_shards=1, max_delay_seconds=math.nan)

    def test_a_forked_agent_answers_a_malformed_spec_with_bye_and_exits(self):
        agent = fork_local_agent(shard_index=0)
        with pytest.raises(ProtocolError, match="refused registration: bad scheduler spec"):
            TcpLink(agent, 0, (1, math.nan), "incarnation")
        assert agent.wait(timeout=10.0) == 0  # the failed link reaped it
        _assert_reaped(agent.pid)

    @pytest.mark.parametrize("delay, expected_ticks", [(0.0, 0), (0.05, 1)])
    def test_aged_window_fires_on_the_next_tick_without_spinning(
        self, spam_setup, spam_truth, delay, expected_ticks
    ):
        # The worker's loop: sleep until next_timeout(), then idle_tick().  A
        # zero delay fires inside the burst itself; a positive one after
        # exactly one tick, after which no timer is armed at all.
        protocol, setup = spam_setup
        address = "ticker@example.com"
        with scoped_telemetry():
            core = ShardWorkerCore((100, delay))
            assert core.handle("register", (address, protocol, setup)) == ("ok", None)
            tag, (results, _) = core.handle(
                "burst", [(0, "spam", address, (SPAM_EMAILS[0],))]
            )
            assert tag == "results"
            ticks = 0
            while (timeout := core.next_timeout()) is not None:
                assert math.isfinite(timeout) and ticks < 3
                time.sleep(timeout)
                core.idle_tick()
                ticks += 1
            results += core.handle("poll", None)[1][0]
        assert ticks == expected_ticks
        assert [(job_id, result.is_spam) for job_id, result in results] == [(0, spam_truth[0])]


def _assert_reaped(pid: int) -> None:
    """*pid* was a child of this process and has exited and been reaped."""
    with pytest.raises(ChildProcessError):
        os.waitpid(pid, os.WNOHANG)


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


    def test_no_forked_process_outlives_its_runtime(self, spam_setup, spam_truth):
        # Each restart forks while the other shard's link thread is live (the
        # fork-with-threads case); the children still serve, and every pid
        # this runtime forked is reaped by a kill drill's join_worker or by
        # close().
        protocol, setup = spam_setup
        addresses = [f"user{index}@example.com" for index in range(8)]
        addresses = [
            next(address for address in addresses if shard_of_address(address, 2) == shard)
            for shard in (0, 1)
        ]
        stream = [
            (addresses[index % 2], features) for index, features in enumerate(SPAM_EMAILS)
        ]
        with ShardedRuntime(num_shards=2, window_bursts=100) as runtime:
            for address in addresses:
                runtime.register_spam(address, protocol, setup)
            forked = [runtime.worker_pid(shard) for shard in (0, 1)]
            job_ids = runtime.submit_spam(stream[:3])
            for _ in range(3):
                assert runtime.worker_alive(1)
                runtime.restart_shard(0)
                forked.append(runtime.worker_pid(0))
            job_ids += runtime.submit_spam(stream[3:])
            runtime.drain()
            verdicts = [runtime.take_result(job_id).is_spam for job_id in job_ids]
            killed = runtime.worker_pid(1)
            os.kill(killed, signal.SIGKILL)
            runtime.join_worker(1)
            _assert_reaped(killed)
            assert multiprocessing.active_children() == []
            live = [runtime.worker_pid(0)]
        assert verdicts == spam_truth
        assert len(set(forked)) == 5 and live == forked[-1:]
        assert multiprocessing.active_children() == []
        for pid in forked:
            _assert_reaped(pid)


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
                        session_job(protocol, setup, (features,), label=label, ot_pool=pool)
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
