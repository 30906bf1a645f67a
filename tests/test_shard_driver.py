"""One shard driver, one link, two ways to reach an agent: the suite both pass.

:class:`~repro.core.runtime.ShardDriver` owns routing, registration replay,
recovery, migration and metrics aggregation; a
:class:`~repro.core.runtime.WorkerLink` only moves commands.  The one
production link is :class:`~repro.fabric.control.TcpLink`, and the
behaviour is asserted once and run over both ways it reaches an agent —

* ``local`` — :class:`~repro.core.runtime.ShardedRuntime` forking agents
  onto socketpairs (:func:`~repro.fabric.agent.fork_local_agent`), and
* ``tcp`` — :func:`repro.fabric.launch_fabric` dialing localhost agent
  processes;

and the driver's own bookkeeping is unit-tested with no process at all, over
an in-memory link wrapping a :class:`~repro.core.runtime.ShardWorkerCore`.
The control plane's own contract (HELLO refusals, heartbeat eviction,
mixed builds; checkpoint-log tampering on disk) stays in
``test_fabric.py`` / ``test_session_state.py``.
"""

import copy
import dataclasses
import os
import signal
import time
from collections import deque

import numpy as np
import pytest

from repro.classify.model import LinearModel
from repro.core import runtime as runtime_module
from repro.core.runtime import (
    DecryptScheduler,
    FileSessionStore,
    MailboxDirectory,
    ProviderRuntime,
    ShardDriver,
    ShardedRuntime,
    ShardWorkerCore,
    shard_of_address,
)
from repro.exceptions import ProtocolError
from repro.fabric import TcpLink, launch_fabric, spawn_local_agent
from repro.fabric.agent import fork_local_agent
from repro.obs import MetricsRegistry, merge_snapshots, scoped_registry, scoped_telemetry
from repro.twopc import spam as spam_module
from repro.twopc import topics as topics_module
from repro.twopc.noprv import NoPrivClassifier, NoPrivClientSession, NoPrivProviderSession
from repro.twopc.spam import SpamFilterProtocol
from repro.twopc.topics import TopicExtractionProtocol
from repro.twopc.transport import FramedChannel

from oracles import metrics_projection

SPAM_EMAILS = [
    {1: 1, 5: 1, 9: 1},
    {100: 1, 150: 1, 199: 1, 42: 1},
    {0: 1},
    {i: 1 for i in range(0, 200, 7)},
    {3: 1, 77: 1},
    {i: 1 for i in range(1, 200, 23)},
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


def _slot_addresses(num_slots: int, per_slot: int = 2) -> list[str]:
    """Deterministic addresses covering every slot of the hash partition."""
    found: dict[int, list[str]] = {slot: [] for slot in range(num_slots)}
    index = 0
    while any(len(bucket) < per_slot for bucket in found.values()):
        address = f"user{index}@example.com"
        slot = shard_of_address(address, num_slots)
        if len(found[slot]) < per_slot:
            found[slot].append(address)
        index += 1
    return [address for slot in range(num_slots) for address in found[slot]]


def _stream(addresses: list[str]) -> list[tuple[str, dict]]:
    return [
        (addresses[index % len(addresses)], features)
        for index, features in enumerate(SPAM_EMAILS)
    ]


def _counter(snapshot: dict, name: str) -> float:
    return sum(entry["value"] for entry in snapshot["counters"] if entry["name"] == name)


def _refuse_handshake(*_arguments, **_options):
    raise AssertionError("a base-OT handshake ran where a restored pool should have served")


def _wait_until(predicate, timeout: float = 15.0) -> bool:
    deadline = time.monotonic() + timeout
    while time.monotonic() < deadline:
        if predicate():
            return True
        time.sleep(0.02)
    return predicate()


class _Fleet:
    """A shard driver and the worker processes behind it, for either agent kind."""

    def __init__(self, link: str, workers: int, checkpoint_dir=None, **options) -> None:
        self.link = link
        self.workers = workers
        self.checkpoint_dir = checkpoint_dir
        self.agents: list = []
        if link == "local":
            self.runtime: ShardDriver = ShardedRuntime(
                num_shards=workers, checkpoint_dir=checkpoint_dir, **options
            )
        else:
            self.runtime, self.agents = launch_fabric(
                workers, checkpoint_dir=checkpoint_dir, **options
            )

    def register(self, addresses, spam_setup) -> None:
        protocol, setup = spam_setup
        for address in addresses:
            self.runtime.register_spam(address, protocol, setup)

    def kill(self, worker: int) -> None:
        """SIGKILL one worker and wait until the driver has noticed."""
        os.kill(self.runtime.worker_pid(worker), signal.SIGKILL)
        assert _wait_until(lambda: not self.runtime.worker_alive(worker))

    def replace(self, worker: int) -> int:
        """Put a fresh process in *worker*'s position; returns resubmissions."""
        if self.link == "local":
            return self.runtime.restart_shard(worker)
        agent = spawn_local_agent(shard_index=worker, checkpoint_dir=self.checkpoint_dir)
        self.agents.append(agent)
        return self.runtime.attach_replacement(worker, agent)

    def attach_spare(self) -> int:
        """Attach one more worker that owns no slots yet."""
        if self.link == "local":
            agent = fork_local_agent(shard_index=self.workers)  # its link reaps it
        else:
            agent = spawn_local_agent(shard_index=self.workers)
            self.agents.append(agent)
        self.workers += 1
        return self.runtime.attach_worker(agent)

    def close(self) -> None:
        self.runtime.close()
        for agent in self.agents:
            if agent.wait(timeout=10.0) is None:
                agent.kill()
                agent.wait(timeout=10.0)
            if agent.process.stdout is not None:
                agent.process.stdout.close()


@pytest.fixture(params=["local", "tcp"])
def link(request):
    return request.param


@pytest.fixture
def make_fleet(link):
    fleets: list[_Fleet] = []

    def make(workers: int, **options) -> _Fleet:
        fleets.append(_Fleet(link, workers, **options))
        return fleets[-1]

    yield make
    for fleet in fleets:
        fleet.close()


def _per_slot_reference(spam_setup, addresses, waves, num_slots, window_bursts):
    """The same stream served slot by slot in this process: merged metrics.

    Each slot's emails go through their own single-process windowed runtime
    in the bursts the slot's worker would see — what a driver over
    *num_slots* workers must reproduce whatever links it uses.
    """
    protocol, setup = spam_setup
    snapshots = []
    for slot in range(num_slots):
        with scoped_telemetry() as (registry, _):
            directory = MailboxDirectory()
            for address in addresses:
                if shard_of_address(address, num_slots) == slot:
                    # A worker holds its own copy of each mailbox's setup, so
                    # decrypt windows (per key pair *object*) are per mailbox.
                    directory.register_spam(address, protocol, copy.deepcopy(setup))
            runtime = ProviderRuntime(scheduler=DecryptScheduler(window_bursts=window_bursts))
            for wave in waves:
                jobs = []
                for address, features in wave:
                    if shard_of_address(address, num_slots) == slot:
                        jobs.extend(directory.spam_jobs(address, [features]))
                if jobs:
                    runtime.serve_burst(jobs)
            runtime.drain()
            snapshots.append(registry.snapshot())
    return merge_snapshots(*snapshots)


class TestServing:
    def test_verdicts_equal_plaintext_and_metrics_equal_single_process(
        self, make_fleet, spam_setup, spam_truth
    ):
        addresses = _slot_addresses(2)
        stream = _stream(addresses)
        waves = [stream[:4], stream[4:]]
        fleet = make_fleet(2, window_bursts=2)
        fleet.register(addresses, spam_setup)
        verdicts = [result.is_spam for result in fleet.runtime.run_spam_stream(waves)]
        aggregated = fleet.runtime.aggregated_metrics()
        stats = fleet.runtime.shard_stats()
        assert verdicts == spam_truth
        reference = _per_slot_reference(spam_setup, addresses, waves, 2, window_bursts=2)
        assert metrics_projection(aggregated) == metrics_projection(reference)
        assert _counter(aggregated, "emails_served_total") == len(SPAM_EMAILS)
        assert [stat["worker"] for stat in stats] == [0, 1]
        assert sum(stat["mailboxes"] for stat in stats) == len(addresses)
        assert all(stat["outstanding_jobs"] == 0 for stat in stats)
        assert fleet.runtime.outstanding_count() == 0

    def test_unregistered_mailbox_error_surfaces_in_parent(self, make_fleet):
        fleet = make_fleet(1)
        with pytest.raises(ProtocolError, match="rejected|no spam mailbox"):
            fleet.runtime.submit_spam([("ghost@example.com", SPAM_EMAILS[0])])

    def test_take_result_before_drain_raises(self, make_fleet, spam_setup):
        fleet = make_fleet(1, window_bursts=100)
        fleet.register(["early@example.com"], spam_setup)
        (job_id,) = fleet.runtime.submit_spam([("early@example.com", SPAM_EMAILS[0])])
        with pytest.raises(ProtocolError, match="no result"):
            fleet.runtime.take_result(job_id)
        fleet.runtime.drain()
        assert fleet.runtime.take_result(job_id) is not None

    def test_parent_poll_releases_aged_window_without_drain(
        self, make_fleet, spam_setup, spam_truth
    ):
        # The sharded face of the starvation fix: one email parks inside a
        # 100-burst window, no drain is ever called, and the result still
        # arrives once the age deadline passes — via poll() alone.
        fleet = make_fleet(2, window_bursts=100, max_delay_seconds=0.05)
        fleet.register(["poller@example.com"], spam_setup)
        runtime = fleet.runtime
        (job_id,) = runtime.submit_spam([("poller@example.com", SPAM_EMAILS[0])])
        released = 0
        deadline = time.monotonic() + 10.0
        while not released and time.monotonic() < deadline:
            time.sleep(0.02)
            released = runtime.poll()
        assert released == 1
        assert runtime.take_result(job_id).is_spam == spam_truth[0]
        assert runtime.outstanding_count() == 0

    def test_closed_runtime_rejects_work(self, make_fleet):
        fleet = make_fleet(1)
        fleet.runtime.close()
        with pytest.raises(ProtocolError, match="closed"):
            fleet.runtime.submit_spam([("late@example.com", SPAM_EMAILS[0])])
        fleet.runtime.close()  # idempotent


class TestCrashRecovery:
    """SIGKILL a worker process mid-window; a fresh process takes its place."""

    def test_sigkill_mid_window_restores_with_zero_resubmissions(
        self, make_fleet, tmp_path, spam_setup, spam_truth, monkeypatch
    ):
        # The worker gets no chance to do anything at death; the only state
        # that survives is the checkpoint log it wrote before acking the
        # burst.  The replacement resumes every open window from it: nothing
        # is recomputed from features, and each email is counted once.
        addresses = _slot_addresses(2)
        stream = _stream(addresses)
        fleet = make_fleet(2, checkpoint_dir=tmp_path, window_bursts=100)
        runtime = fleet.runtime
        fleet.register(addresses, spam_setup)
        job_ids = runtime.submit_spam(stream)
        assert runtime.outstanding_count() == len(SPAM_EMAILS)

        victim = 0
        fleet.kill(victim)
        with pytest.raises(ProtocolError, match="gone|died"):
            runtime._request(victim, "stats", None)

        # What the snapshot saves, as a count instead of a stopwatch: every
        # mailbox of the victim had an open window, so its pools come back
        # from the checkpoint and the replacement runs no base-OT handshake.
        # (A forked agent inherits this patch and would answer the rebuild
        # with an error; a spawned TCP agent is a separate program, so there
        # the same statement is the in-process count over FakeLink below.)
        monkeypatch.setattr(spam_module, "initialize_ot_pool", _refuse_handshake)
        assert fleet.replace(victim) == 0
        runtime.drain()
        verdicts = [runtime.take_result(job_id).is_spam for job_id in job_ids]
        stats = runtime.shard_stats()  # an extra refresh must not re-fold anything
        snapshot = runtime.aggregated_metrics()
        assert verdicts == spam_truth
        assert runtime.outstanding_count() == 0
        on_victim = sum(1 for address, _ in stream if runtime.shard_of(address) == victim)
        assert stats[victim]["restored_jobs"] == on_victim
        assert stats[1 - victim]["restored_jobs"] == 0
        assert all(stat["outstanding_jobs"] == 0 for stat in stats)
        # The killed incarnation served nothing (its emails were parked),
        # the replacement served each restored email once.
        assert _counter(snapshot, "emails_served_total") == len(SPAM_EMAILS)
        flushes = [
            entry for entry in snapshot["histograms"] if entry["name"] == "window_flush_sessions"
        ]
        assert flushes and sum(entry["count"] for entry in flushes) >= 1

    def test_restart_without_checkpoint_recomputes(self, make_fleet, spam_setup, spam_truth):
        # No checkpoint directory: the parent replays registrations and
        # resubmits the in-flight emails from their features.
        address = "restartable@example.com"
        fleet = make_fleet(2, window_bursts=100)
        runtime = fleet.runtime
        fleet.register([address], spam_setup)
        first_ids = runtime.submit_spam([(address, f) for f in SPAM_EMAILS[:3]])
        assert runtime.outstanding_count() == 3  # parked inside the window
        assert fleet.replace(runtime.shard_of(address)) == 3
        second_ids = runtime.submit_spam([(address, f) for f in SPAM_EMAILS[3:]])
        runtime.drain()
        verdicts = [runtime.take_result(job_id).is_spam for job_id in first_ids + second_ids]
        assert verdicts == spam_truth

    def test_replaced_worker_is_folded_exactly_once(self, make_fleet, spam_setup, spam_truth):
        # Work served before a replacement survives in the aggregate (the
        # old worker's final snapshot joins the base) and is never folded
        # twice by later stats refreshes; an idle replacement resubmits 0.
        address = "fold-once@example.com"
        fleet = make_fleet(1, window_bursts=1)
        runtime = fleet.runtime
        fleet.register([address], spam_setup)
        runtime.run_spam_stream([[(address, f) for f in SPAM_EMAILS[:3]]])
        assert _counter(runtime.aggregated_metrics(), "emails_served_total") == 3
        assert fleet.replace(0) == 0
        results = runtime.run_spam_stream([[(address, f) for f in SPAM_EMAILS[3:]]])
        runtime.shard_stats()
        assert [result.is_spam for result in results] == spam_truth[3:]
        assert _counter(runtime.aggregated_metrics(), "emails_served_total") == len(SPAM_EMAILS)

    @pytest.mark.parametrize("probe", ["silent", "stats"])
    def test_an_idle_tick_result_is_counted_once_across_a_kill(
        self, make_fleet, spam_setup, spam_truth, probe
    ):
        # The agent's own idle tick serves a parked email while the driver
        # sends nothing; the worker is SIGKILLed before any results reply.
        # The count the tick added may reach the driver only together with
        # the result: then either both arrived (a ``stats`` reply) and
        # nothing is resubmitted, or neither did and the email is served
        # again on the replacement — counted once either way.
        fleet = make_fleet(1, window_bursts=2, max_delay_seconds=0.05)
        runtime = fleet.runtime
        (address,) = _slot_addresses(1, per_slot=1)
        fleet.register([address], spam_setup)
        (job_id,) = runtime.submit_spam([(address, SPAM_EMAILS[0])])
        time.sleep(0.6)  # no command: the window ages and fires on its own
        if probe == "stats":
            (stats,) = runtime.shard_stats()
            assert stats["outstanding_jobs"] == 0  # the tick fired before the kill
        fleet.kill(0)
        resubmitted = fleet.replace(0)
        runtime.drain()
        assert _counter(runtime.aggregated_metrics(), "emails_served_total") == 1
        assert resubmitted == (1 if probe == "silent" else 0)  # stats carried the result
        assert runtime.take_result(job_id).is_spam == spam_truth[0]
        assert runtime.outstanding_count() == 0

    def test_failed_fan_out_leaves_no_reply_unread(self, make_fleet, spam_setup, spam_truth):
        # A burst spanning a dead worker raises — but the live worker's reply
        # must still be collected, or every later exchange with it reads the
        # reply before (stats would be a burst body, drained results unread).
        addresses = _slot_addresses(2, per_slot=1)
        fleet = make_fleet(2, window_bursts=100)
        runtime = fleet.runtime
        fleet.register(addresses, spam_setup)
        fleet.kill(1)
        with pytest.raises(ProtocolError):
            runtime.submit_spam([(addresses[0], SPAM_EMAILS[0]), (addresses[1], SPAM_EMAILS[1])])
        with pytest.raises(ProtocolError):
            runtime._request(1, "poll", None)
        assert fleet.replace(1) == 1  # the dead worker's email, from features
        stats = runtime.shard_stats()
        assert [stat["mailboxes"] for stat in stats] == [1, 1]
        assert [stat["outstanding_jobs"] for stat in stats] == [1, 1]
        runtime.drain()
        assert [runtime.take_result(job_id).is_spam for job_id in (0, 1)] == spam_truth[:2]
        assert runtime.outstanding_count() == 0


class TestReconnectResume:
    def test_disconnect_reconnect_restores_nothing(self, make_fleet, spam_setup):
        protocol, setup = spam_setup
        clean = protocol.classify_email(setup, SPAM_EMAILS[0])
        fleet = make_fleet(1, window_bursts=100)
        runtime = fleet.runtime
        fleet.register(["mobile@example.com"], spam_setup)
        (job_id,) = runtime.submit_spam([("mobile@example.com", SPAM_EMAILS[0])])
        blob = runtime.disconnect_client(job_id)
        assert isinstance(blob, bytes) and blob
        assert runtime.shard_stats()[0]["disconnected_jobs"] == 1
        runtime.reconnect_client(job_id, blob)
        runtime.drain()
        assert runtime.take_result(job_id).is_spam == clean.is_spam
        stats = runtime.shard_stats()[0]
        # Zero resubmissions: nothing was recomputed, nothing restored from
        # a checkpoint — the parked session simply re-attached.
        assert stats["disconnected_jobs"] == 0
        assert stats["restored_jobs"] == 0

    def test_a_topic_email_resumes_across_a_reconnect(self, make_fleet, topic_setup):
        protocol, setup = topic_setup
        features, candidates = {2: 1, 3: 2, 77: 1}, [0, 1, 2]
        clean = protocol.extract_topic(setup, features, candidate_topics=candidates)
        fleet = make_fleet(1, window_bursts=100)
        runtime = fleet.runtime
        runtime.register("tablet@example.com", protocol, setup)
        (job_id,) = runtime.submit("topics", [("tablet@example.com", features, candidates)])
        blob = runtime.disconnect_client(job_id)
        assert runtime.shard_stats()[0]["disconnected_jobs"] == 1
        runtime.reconnect_client(job_id, blob)
        runtime.drain()
        assert runtime.take_result(job_id).extracted_topic == clean.extracted_topic
        stats = runtime.shard_stats()[0]
        assert (stats["disconnected_jobs"], stats["restored_jobs"]) == (0, 0)

    def test_disconnect_unknown_job_rejected(self, make_fleet, spam_setup):
        fleet = make_fleet(1, window_bursts=100)
        fleet.register(["mobile@example.com"], spam_setup)
        with pytest.raises(ProtocolError, match="not outstanding"):
            fleet.runtime.disconnect_client(999)


class TestMigration:
    def test_live_migration_moves_open_windows(self, make_fleet, spam_setup, spam_truth):
        addresses = _slot_addresses(2)
        stream = _stream(addresses)
        fleet = make_fleet(2, window_bursts=100)
        runtime = fleet.runtime
        fleet.register(addresses, spam_setup)
        job_ids = runtime.submit_spam(stream[:4])
        assert runtime.outstanding_count() == 4  # windows held open

        target = fleet.attach_spare()
        source = runtime.slot_owners()[0]
        moved = [slot for slot, owner in enumerate(runtime.slot_owners()) if owner == source]
        assert runtime.migrate(source, target) == 0
        assert all(runtime.slot_owners()[slot] == target for slot in moved)
        assert not runtime.worker_alive(source)
        with pytest.raises(ProtocolError, match="owns no slots|dead"):
            runtime.migrate(source, target)

        job_ids += runtime.submit_spam(stream[4:])
        runtime.drain()
        verdicts = [runtime.take_result(job_id).is_spam for job_id in job_ids]
        assert verdicts == spam_truth
        assert runtime.outstanding_count() == 0
        # Exactly-once accounting across the handover: the quiesced source's
        # final snapshot plus the target's series sum to one serving.
        aggregated = runtime.aggregated_metrics()
        assert _counter(aggregated, "emails_served_total") == len(SPAM_EMAILS)
        assert [stat["worker"] for stat in runtime.shard_stats()] == sorted({1 - source, target})
        # Nothing moved, repeated or lost: the partition-invariant slice of the
        # merged telemetry equals an uninterrupted run of the same stream.
        reference = _per_slot_reference(
            spam_setup, addresses, [stream[:4], stream[4:]], 2, window_bursts=100
        )
        assert metrics_projection(aggregated) == metrics_projection(reference)


# ---------------------------------------------------------------------------
# The driver without processes: an in-memory link around a ShardWorkerCore
# ---------------------------------------------------------------------------
class FakeLink:
    """A :class:`WorkerLink` that runs its worker core inline.

    The *endpoint* is the worker's checkpoint store (or ``None``).  ``log``
    records every ``(command, payload)`` posted, ``waits`` the length of
    ``log`` at each ``wait``; ``timeouts`` makes that many ``wait`` calls
    give up while the replies stay queued; clearing ``alive`` kills the
    worker the way SIGKILL would.
    """

    def __init__(self, store, index, scheduler_spec, incarnation) -> None:
        self.registry = MetricsRegistry()
        with scoped_registry(self.registry):
            self.core = ShardWorkerCore(
                scheduler_spec, checkpoint_store=store, shard_index=index, incarnation=incarnation
            )
        self.pid = None
        self.alive = True
        self.log: list[tuple[str, object]] = []
        self.waits: list[int] = []
        self.timeouts = 0
        self._replies: deque = deque()

    def post(self, command, payload) -> None:
        if not self.alive:
            raise ProtocolError("fake worker is dead")
        self.log.append((command, payload))
        with scoped_registry(self.registry):
            self._replies.append(self.core.handle(command, payload))

    def wait(self):
        self.waits.append(len(self.log))
        if not self.alive:
            raise ProtocolError("fake worker is dead")
        if self.timeouts:
            self.timeouts -= 1
            raise ProtocolError("fake worker timed out")
        return self._replies.popleft()

    def close(self) -> None:
        self.alive = False


@pytest.fixture
def fake_driver():
    links: list[FakeLink] = []

    def connect(*arguments) -> FakeLink:
        links.append(FakeLink(*arguments))
        return links[-1]

    def make(stores, **options) -> tuple[ShardDriver, list[FakeLink]]:
        return ShardDriver(connect, stores, **options), links

    return make


class TestDriverOverFakeLinks:
    def test_commands_route_by_slot_and_follow_a_migration(self, fake_driver, spam_setup):
        protocol, setup = spam_setup
        addresses = _slot_addresses(2, per_slot=1)
        driver, links = fake_driver([None, None], window_bursts=100)
        for address in addresses:
            driver.register_spam(address, protocol, setup)
        driver.submit_spam([(address, SPAM_EMAILS[0]) for address in addresses])
        for slot, link in enumerate(links):
            assert [command for command, _ in link.log] == ["register", "burst"]
            ((job_id, kind, address, _request),) = link.log[-1][1]
            assert (job_id, kind, address) == (slot, "spam", addresses[slot])

        spare = driver.attach_worker(None)
        assert driver.migrate(0, spare) == 0
        assert driver.slot_owners() == [spare, 1]
        driver.submit_spam([(addresses[0], SPAM_EMAILS[1])])
        assert links[spare].log[-1][0] == "burst" and len(links[0].log) == 3  # + checkpoint
        driver.drain()
        assert driver.outstanding_count() == 0
        assert [command for command, _ in links[0].log][-1] == "checkpoint"  # never drained

    def test_rebuild_replays_in_order_and_resubmits_only_what_was_not_resumed(
        self, fake_driver, tmp_path, spam_setup, topic_setup, spam_truth
    ):
        protocol, setup = spam_setup
        topic_protocol, topic_set = topic_setup
        store = FileSessionStore(tmp_path)
        driver, links = fake_driver([store], window_bursts=100)
        driver.register_spam("a@example.com", protocol, setup)
        driver.register_topics("a@example.com", topic_protocol, topic_set)
        driver.register_spam("b@example.com", protocol, setup)
        checkpointed = driver.submit_spam(
            [("a@example.com", SPAM_EMAILS[0]), ("b@example.com", SPAM_EMAILS[1])]
        )
        # The worker dies before it sees the next burst: those emails are
        # outstanding in the parent but in no checkpoint.
        links[0].alive = False
        with pytest.raises(ProtocolError, match="gone"):
            driver.submit_spam([("a@example.com", SPAM_EMAILS[2])])
        assert driver.outstanding_count() == 3

        assert driver.attach_replacement(0, store) == 1
        fresh = links[-1]
        assert [command for command, _ in fresh.log] == [
            "register",
            "register",
            "register",
            "restore",
            "ensure_pools",
            "burst",
        ]
        assert [payload[0] for _, payload in fresh.log[:3]] == [
            "a@example.com",
            "a@example.com",
            "b@example.com",
        ]
        assert all(payload[3] is True for _, payload in fresh.log[:3])  # pools deferred
        assert [entry[0] for entry in fresh.log[-1][1]] == [2]  # outstanding − resumed
        assert fresh.core.restored_jobs == len(checkpointed)
        driver.drain()
        assert [driver.take_result(job_id).is_spam for job_id in range(3)] == spam_truth[:3]

    def test_a_pair_registered_three_times_is_replayed_once(
        self, fake_driver, spam_setup, topic_setup
    ):
        # Each replayed registration costs the worker an ensure_stacks, so the
        # log keeps the latest registration per (kind, address), not history.
        protocol, setup = spam_setup
        topic_protocol, topic_set = topic_setup
        driver, links = fake_driver([None])
        setups = [copy.copy(setup) for _ in range(3)]
        for each in setups:
            driver.register_spam("a@example.com", protocol, each)
        driver.register_topics("a@example.com", topic_protocol, topic_set)
        assert driver.attach_replacement(0, None) == 0
        replayed = [payload for command, payload in links[-1].log if command.startswith("register")]
        assert [(payload[1].kind, payload[0]) for payload in replayed] == [
            ("spam", "a@example.com"),
            ("topics", "a@example.com"),
        ]
        assert replayed[0][2] is setups[-1]  # the last registration wins

    def test_handshake_is_paid_once_per_pair_per_fleet_lifetime(
        self, fake_driver, tmp_path, spam_setup, topic_setup, spam_truth, monkeypatch
    ):
        handshakes = []
        for module in (spam_module, topics_module):
            real = module.initialize_ot_pool
            monkeypatch.setattr(
                module,
                "initialize_ot_pool",
                lambda *a, _real=real, **k: handshakes.append(1) or _real(*a, **k),
            )
        protocol, setup = spam_setup
        topic_protocol, topic_set = topic_setup
        store = FileSessionStore(tmp_path)
        driver, links = fake_driver([store], window_bursts=100)
        driver.register_spam("a@example.com", protocol, setup)
        driver.register_topics("a@example.com", topic_protocol, topic_set)
        driver.register_spam("b@example.com", protocol, setup)
        pairs = 3
        assert len(handshakes) == pairs

        # Every pair has an email parked in the open window, so every pool
        # rides the checkpoint log and the migration blob.
        spam_ids = driver.submit_spam(
            [("a@example.com", SPAM_EMAILS[0]), ("b@example.com", SPAM_EMAILS[1])]
        )
        (topic_id,) = driver.submit_topics([("a@example.com", SPAM_EMAILS[2], [0, 1, 2])])
        links[0].alive = False
        assert driver.attach_replacement(0, store) == 0
        spare_store = FileSessionStore(tmp_path / "spare")
        spare = driver.attach_worker(spare_store)
        assert driver.migrate(0, spare) == 0
        spam_ids += driver.submit_spam([("b@example.com", SPAM_EMAILS[2])])
        driver.drain()
        assert [driver.take_result(job_id).is_spam for job_id in spam_ids] == spam_truth[:3]
        assert driver.take_result(topic_id).extracted_topic in (0, 1, 2)
        assert len(handshakes) == pairs  # restore, migration and serving paid nothing

        # A pair with nothing in flight is in no checkpoint: its pool dies
        # with the worker and ensure_pools rebuilds it — once, not per command.
        driver.register_spam("c@example.com", protocol, setup)
        pairs += 1
        (parked,) = driver.submit_spam([("a@example.com", SPAM_EMAILS[3])])
        links[-1].alive = False
        assert driver.attach_replacement(spare, spare_store) == 0
        uncovered = 3  # a/topics, b/spam, c/spam; a/spam came back with its parked email
        assert len(handshakes) == pairs + uncovered
        driver._request(spare, "ensure_pools", None)
        driver.drain()
        assert driver.take_result(parked).is_spam == spam_truth[3]
        assert len(handshakes) == pairs + uncovered

    def test_worker_replaced_twice_is_folded_exactly_once(self, fake_driver, spam_setup):
        protocol, setup = spam_setup
        driver, _links = fake_driver([None])
        driver.register_spam("a@example.com", protocol, setup)
        served = 0
        for burst in (SPAM_EMAILS[:2], SPAM_EMAILS[2:3], SPAM_EMAILS[3:4]):
            driver.run_spam_stream([[("a@example.com", features) for features in burst]])
            served += len(burst)
            assert _counter(driver.aggregated_metrics(), "emails_served_total") == served
            if served < 4:
                assert driver.attach_replacement(0, None) == 0
                # The fold moved the old snapshot; it did not copy it.
                assert _counter(driver.aggregated_metrics(), "emails_served_total") == served
        driver.shard_stats()
        assert _counter(driver.aggregated_metrics(), "emails_served_total") == 4

    def test_a_stats_reply_carries_the_idle_tick_results_it_counts(
        self, fake_driver, spam_setup, spam_truth
    ):
        # The worker's idle tick serves a parked email and stashes its
        # result; a ``stats`` reply follows, then the worker dies.  Had the
        # reply carried the tick's count without the result, the fold would
        # keep the count and the resubmission would count the email again.
        protocol, setup = spam_setup
        driver, links = fake_driver([None], window_bursts=2, max_delay_seconds=0.01)
        driver.register_spam("a@example.com", protocol, setup)
        (job_id,) = driver.submit_spam([("a@example.com", SPAM_EMAILS[0])])
        time.sleep(0.05)
        with scoped_registry(links[0].registry):
            links[0].core.idle_tick()
        driver.shard_stats()
        links[0].alive = False
        resubmitted = driver.attach_replacement(0, None)
        driver.drain()
        assert _counter(driver.aggregated_metrics(), "emails_served_total") == 1
        assert resubmitted == 0  # the result rode the stats reply
        assert driver.take_result(job_id).is_spam == spam_truth[0]
        assert driver.outstanding_count() == 0

    def test_a_checkpoint_reply_carries_the_idle_tick_results_it_counts(
        self, fake_driver, spam_setup, spam_truth
    ):
        # The same stashed result across a migration: the source's final
        # snapshot counts it, so the handover must land it, and the target
        # must neither resume nor resubmit it.
        protocol, setup = spam_setup
        addresses = _slot_addresses(2, per_slot=1)
        driver, links = fake_driver([None, None], window_bursts=2, max_delay_seconds=0.01)
        for address in addresses:
            driver.register_spam(address, protocol, setup)
        (job_id,) = driver.submit_spam([(addresses[0], SPAM_EMAILS[0])])
        time.sleep(0.05)
        with scoped_registry(links[0].registry):
            links[0].core.idle_tick()
        assert driver.outstanding_count() == 1
        assert driver.migrate(0, 1) == 0
        assert driver.outstanding_count() == 0
        assert driver.take_result(job_id).is_spam == spam_truth[0]
        driver.drain()
        assert _counter(driver.aggregated_metrics(), "emails_served_total") == 1

    def test_late_reply_is_absorbed_not_discarded(self, fake_driver, spam_setup, spam_truth):
        # The link gives up on a reply that later arrives.  The worker has
        # already forgotten those jobs, so dropping the reply would leave
        # them outstanding forever; matching it to the *next* command would
        # hand that command the wrong body.
        protocol, setup = spam_setup
        driver, links = fake_driver([None])
        driver.register_spam("a@example.com", protocol, setup)
        links[0].timeouts = 1
        with pytest.raises(ProtocolError, match="silent"):
            driver.submit_spam([("a@example.com", SPAM_EMAILS[0])])
        assert driver.outstanding_count() == 1
        (stats,) = driver.shard_stats()
        assert stats["mailboxes"] == 1  # the stats body, not the stale burst body
        assert driver.outstanding_count() == 0
        assert driver.take_result(0).is_spam == spam_truth[0]
        assert _counter(driver.aggregated_metrics(), "emails_served_total") == 1

    def test_stale_error_reply_does_not_fail_a_later_command(self, fake_driver):
        driver, links = fake_driver([None])
        links[0].timeouts = 1
        with pytest.raises(ProtocolError, match="silent"):
            driver.submit_spam([("ghost@example.com", SPAM_EMAILS[0])])
        driver.drain()  # absorbs the old rejection, then its own reply
        with pytest.raises(ProtocolError, match="rejected"):
            driver.submit_spam([("ghost@example.com", SPAM_EMAILS[0])])

    def test_poll_posts_only_to_the_owner_of_an_aged_email(
        self, fake_driver, spam_setup, spam_truth
    ):
        protocol, setup = spam_setup
        addresses = _slot_addresses(2, per_slot=1)
        driver, links = fake_driver([None, None], window_bursts=100, max_delay_seconds=0.05)
        for address in addresses:
            driver.register_spam(address, protocol, setup)

        def polls(first: int = 0) -> list[int]:
            return [sum(command == "poll" for command, _ in link.log) for link in links[first:]]

        (aged,) = driver.submit_spam([(addresses[1], SPAM_EMAILS[0])])
        assert driver.poll() == 0 and polls() == [0, 0]  # nothing can be due yet
        time.sleep(0.06)
        (fresh,) = driver.submit_spam([(addresses[0], SPAM_EMAILS[1])])
        assert driver.poll() == 1 and polls() == [0, 1]  # the aged email's owner only
        assert driver.take_result(aged).is_spam == spam_truth[0]
        assert driver.poll() == 0 and polls() == [0, 1]  # landed; the other is young
        time.sleep(0.06)
        assert driver.poll() == 1 and polls() == [1, 1]
        assert driver.take_result(fresh).is_spam == spam_truth[1]
        assert driver.poll() == 0 and polls() == [1, 1]

        driver, _ = fake_driver([None, None], window_bursts=100)  # links 2 and 3
        for address in addresses:
            driver.register_spam(address, protocol, setup)
        job_ids = driver.submit_spam([(address, SPAM_EMAILS[2]) for address in addresses])
        time.sleep(0.06)
        assert driver.poll() == 0 and polls(2) == [0, 0]  # no age trigger: never
        driver.drain()
        assert [driver.take_result(job_id).is_spam for job_id in job_ids] == [spam_truth[2]] * 2

    def test_poll_cutoff_survives_a_resubmission(self, fake_driver, spam_setup, spam_truth):
        # The cutoff is when the driver first posted the email; a replacement
        # worker re-parks it later, so the driver asks early, never late.
        protocol, setup = spam_setup
        driver, links = fake_driver([None], window_bursts=100, max_delay_seconds=0.05)
        driver.register_spam("a@example.com", protocol, setup)
        (job_id,) = driver.submit_spam([("a@example.com", SPAM_EMAILS[0])])
        time.sleep(0.06)
        links[0].alive = False
        assert driver.attach_replacement(0, None) == 1
        assert driver.poll() == 0  # asked; the re-parked window is not due yet
        assert [command for command, _ in links[-1].log][-1] == "poll"
        time.sleep(0.06)
        assert driver.poll() == 1
        assert driver.take_result(job_id).is_spam == spam_truth[0]

    def test_retiring_a_serving_worker_is_refused(self, fake_driver):
        driver, _links = fake_driver([None, None])
        with pytest.raises(ProtocolError, match="still owns slots"):
            driver.retire_worker(0)
        spare = driver.attach_worker(None)
        driver.retire_worker(spare)
        assert not driver.worker_alive(spare)
        assert driver.rebalance() is None  # the only spare is gone


class TestWorkerReplies:
    """What a :class:`ShardWorkerCore` puts on the replies the driver reads."""

    @pytest.mark.parametrize(
        "command, payload",
        [
            ("burst", []),
            ("poll", None),
            ("drain", None),
            ("stats", None),
            ("restore", None),
            ("checkpoint", None),
        ],
    )
    def test_every_snapshot_bearing_reply_carries_the_stashed_results(
        self, spam_setup, spam_truth, command, payload
    ):
        """An idle tick serves a parked email and stashes its result; the
        next reply that carries a snapshot carries that result too, and a
        later one does not carry it again."""
        protocol, setup = spam_setup
        with scoped_telemetry():
            core = ShardWorkerCore((2, 0.01))
            core.handle("register", ("a@example.com", protocol, setup))
            tag, (results, snapshot) = core.handle(
                "burst", [(7, "spam", "a@example.com", (SPAM_EMAILS[0],))]
            )
            assert (tag, results, _counter(snapshot, "emails_served_total")) == ("results", [], 0)
            time.sleep(0.05)
            core.idle_tick()
            *_, results, snapshot = core.handle(command, payload)[1]
            assert [(job_id, result.is_spam) for job_id, result in results] == [
                (7, spam_truth[0])
            ]
            assert _counter(snapshot, "emails_served_total") == 1
            *_, again, _snapshot = core.handle(command, payload)[1]
            assert again == []


class TestPipelinedRegistration:
    """``register`` posts and returns; the worker's reply is absorbed later.

    The registration log takes a pair when its reply is absorbed, a refusal
    raises from the call that absorbs it (naming the address) and never
    enters the log, and a replacement posts every replay before it waits.
    """

    def test_a_replacement_posts_every_replay_before_its_first_wait(
        self, fake_driver, spam_setup
    ):
        protocol, setup = spam_setup
        addresses = [f"user{index}@example.com" for index in range(5)]
        driver, links = fake_driver([None])
        for address in addresses:
            driver.register_spam(address, protocol, setup)
        assert links[0].waits == []  # nothing waited on yet
        driver.shard_stats()
        assert links[0].waits[0] == len(addresses) + 1  # five registers and the stats
        assert driver.attach_replacement(0, None) == 0
        fresh = links[-1]
        assert [command for command, _ in fresh.log] == ["register"] * 5 + [
            "restore",
            "ensure_pools",
        ]
        assert fresh.waits[0] == len(addresses) + 1  # every replay and the restore

    def test_a_refused_replay_raises_from_attach_replacement(
        self, fake_driver, spam_setup, monkeypatch
    ):
        protocol, setup = spam_setup
        refused = copy.copy(setup)
        driver, links = fake_driver([None])
        driver.register_spam("a@example.com", protocol, setup)
        driver.register_spam("b@example.com", protocol, refused)
        driver.shard_stats()
        real_warm = runtime_module._warm

        def refusing_warm(each):
            if each is refused:
                raise ValueError("unreadable model rows")
            real_warm(each)

        monkeypatch.setattr(runtime_module, "_warm", refusing_warm)
        with pytest.raises(ProtocolError, match="'b@example.com'"):
            driver.attach_replacement(0, None)
        assert links[-1].waits[0] == 3  # raised from the one wait after both replays
        monkeypatch.undo()
        # The replacement holds nothing for the refused pair, and neither does the log.
        assert driver.attach_replacement(0, None) == 0
        assert [
            payload[0] for command, payload in links[-1].log if command == "register"
        ] == ["a@example.com"]

    @pytest.mark.parametrize("kind", ["fake", "tcp"])
    def test_a_refused_registration_is_reported_and_never_replayed(
        self, kind, fake_driver, spam_setup, spam_truth, monkeypatch
    ):
        protocol, setup = spam_setup
        # The worker's _warm reads the model rows and raises on these.
        broken = dataclasses.replace(setup, encrypted_model="unreadable")
        posted: list[tuple[str, object]] = []
        agents: list = []
        if kind == "fake":
            driver, links = fake_driver([None])
        else:
            real_post = TcpLink.post

            def recording_post(link, command, payload):
                posted.append((command, payload))
                real_post(link, command, payload)

            monkeypatch.setattr(TcpLink, "post", recording_post)
            driver, agents = launch_fabric(1)
        try:
            driver.register_spam("a@example.com", protocol, setup)
            driver.register_spam("b@example.com", protocol, broken)  # returns
            with pytest.raises(ProtocolError, match="'b@example.com'"):
                driver.submit_spam([("a@example.com", SPAM_EMAILS[0])])
            # The burst's reply was absorbed by the same collect: its result landed.
            assert driver.outstanding_count() == 0
            assert driver.take_result(0).is_spam == spam_truth[0]
            (stats,) = driver.shard_stats()  # reported once
            assert stats["mailboxes"] == 1

            if kind == "fake":
                assert driver.attach_replacement(0, None) == 0
                posted = links[-1].log
            else:
                agents.append(spawn_local_agent(shard_index=0))
                del posted[:]
                assert driver.attach_replacement(0, agents[-1]) == 0
            replayed = [payload[0] for command, payload in posted if command == "register"]
            assert replayed == ["a@example.com"]
            (stats,) = driver.shard_stats()
            assert stats["mailboxes"] == 1
        finally:
            driver.close()
            for agent in agents:
                if agent.wait(timeout=10.0) is None:
                    agent.kill()
                    agent.wait(timeout=10.0)

    def test_refusals_on_two_workers_are_both_reported(self, fake_driver, spam_setup):
        protocol, setup = spam_setup
        broken = dataclasses.replace(setup, encrypted_model="unreadable")
        addresses = _slot_addresses(2, per_slot=1)
        driver, _links = fake_driver([None, None])
        for address in addresses:
            driver.register_spam(address, protocol, broken)
        with pytest.raises(ProtocolError) as refused:
            driver.shard_stats()
        assert all(repr(address) in str(refused.value) for address in addresses)

    def test_a_refused_re_registration_keeps_the_accepted_one(
        self, fake_driver, spam_setup, spam_truth
    ):
        protocol, setup = spam_setup
        broken = dataclasses.replace(setup, encrypted_model="unreadable")
        driver, links = fake_driver([None])
        driver.register_spam("a@example.com", protocol, setup)
        driver.register_spam("a@example.com", protocol, broken)
        with pytest.raises(ProtocolError, match="refused the spam registration of 'a@example.com'"):
            driver.shard_stats()
        # The worker still holds the accepted setup, and so does the log.
        (job_id,) = driver.submit_spam([("a@example.com", SPAM_EMAILS[0])])
        assert driver.take_result(job_id).is_spam == spam_truth[0]
        assert driver.attach_replacement(0, None) == 0
        replayed = [payload for command, payload in links[-1].log if command == "register"]
        assert len(replayed) == 1 and replayed[0][2] is setup

    def test_a_registration_a_dead_worker_never_answered_is_replayed(
        self, fake_driver, spam_setup
    ):
        protocol, setup = spam_setup
        driver, links = fake_driver([None])
        driver.register_spam("a@example.com", protocol, setup)
        links[0].alive = False  # dies before any call collects the reply
        connect = driver._connect

        def refuse(*_arguments):
            raise ProtocolError("connection refused")

        driver._connect = refuse  # a replacement that cannot be dialed loses nothing
        with pytest.raises(ProtocolError, match="connection refused"):
            driver.attach_replacement(0, None)
        driver._connect = connect
        assert driver.attach_replacement(0, None) == 0
        assert [command for command, _ in links[-1].log] == [
            "register",
            "restore",
            "ensure_pools",
        ]
        (stats,) = driver.shard_stats()
        assert stats["mailboxes"] == 1
        # The replacement accepted it, so the log holds it from now on.
        assert driver.attach_replacement(0, None) == 0
        assert [command for command, _ in links[-1].log][0] == "register"


# ---------------------------------------------------------------------------
# Any provider function: one defined here, served with no runtime change
# ---------------------------------------------------------------------------
class NoPrivFunction:
    """The NoPriv arm as a provider function, defined in this test only.

    The provider reads the plaintext features and classifies them; the
    pair's setup is the provider's :class:`NoPrivClassifier`.  The driver
    serving it unchanged is what shows the serving layer is generic over
    provider functions, not a rename of its spam/topic pairs.
    """

    kind = "noprv"
    ot_mode = "none"

    def make_channel(self, setup, name="noprv"):
        return FramedChannel.loopback(name)

    def make_ot_pool(self, setup):
        raise AssertionError("a plaintext function runs no OTs")

    def client_session(self, setup, features, ot_pool=None):
        return NoPrivClientSession(features)

    def provider_session(self, setup, ot_pool=None):
        return NoPrivProviderSession(setup)

    def restore_client(self, setup, state, ot_pool=None):
        return NoPrivClientSession.restore(state)

    def restore_provider(self, setup, state, ot_pool=None):
        return NoPrivProviderSession.restore(setup, state)

    def result_of(self, job):
        return job.provider.result.predicted_category


class TestAnyProviderFunction:
    @pytest.mark.parametrize("link_kind", ["fake", "local"])
    def test_a_test_local_function_is_served_through_the_driver(self, link_kind, fake_driver):
        if link_kind == "local":
            driver = ShardedRuntime(num_shards=2)
        else:
            driver, _links = fake_driver([None, None])
        rng = np.random.default_rng(44)
        classifier = NoPrivClassifier(
            LinearModel(
                weights=rng.normal(size=(200, 4)),
                biases=rng.normal(size=4),
                category_names=[f"class-{index}" for index in range(4)],
            )
        )
        addresses = _slot_addresses(2, per_slot=1)
        emails = [(addresses[index % 2], features) for index, features in enumerate(SPAM_EMAILS)]
        try:
            for address in addresses:
                driver.register(address, NoPrivFunction(), classifier)
            job_ids = driver.submit("noprv", emails)
            driver.drain()
            verdicts = [driver.take_result(job_id) for job_id in job_ids]
        finally:
            driver.close()
        assert verdicts == [
            classifier.classify(features).predicted_category for _, features in emails
        ]
