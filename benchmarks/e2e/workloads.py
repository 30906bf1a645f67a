"""The benchmark's inputs and its four workloads.

Everything a run feeds the program is generated here from ``--seed`` with
``numpy.random.default_rng`` — models, emails, candidate sets and the
open-loop arrival schedule — so equal seeds give byte-identical inputs and
the program only ever sees generated inputs.  The DH group is a committed
constant (generated once with ``generate_group(256)``): set-up time and the
base-OT cost must not depend on a random safe-prime search.

Each workload is *set up*, *run* for a stretch of wall time and *torn down*
once per round; ``run`` appends one :class:`Sample` per email, already
checked against the plaintext reference.
"""

from __future__ import annotations

import os
import time
from dataclasses import dataclass
from pathlib import Path
from typing import Any, Callable

import numpy as np

import repro
from repro.classify.model import LinearModel, QuantizedLinearModel
from repro.core.runtime import (
    MailboxDirectory,
    ProviderRuntime,
    ShardedRuntime,
    shard_of_address,
)
from repro.crypto.bv import BVParameters, BVScheme
from repro.crypto.dh import DHGroup, validate_group
from repro.exceptions import ProtocolError
from repro.fabric import launch_fabric
from repro.obs import get_registry
from repro.twopc.spam import SpamFilterProtocol
from repro.twopc.topics import TopicExtractionProtocol
from repro.utils.timing import percentile

from . import trace as tracing

# A 256-bit safe-prime group, p = 2q + 1, from one ``generate_group(256)`` call.
GROUP_P = 0xEAF9F9953B86E8CC52DA8921348CF4AD786A5F3DB0BED3B7C1588F9BCEDB1F03
GROUP_G = 18906503934533127189041823383707208029840643372799600438332671013237248937478

FEATURES_PER_EMAIL = 100   # L
VALUE_BITS = 10            # bin
FREQUENCY_BITS = 4         # fin
MAX_FEATURES = 4096        # the dot-product width budget; 13 + 10 + 4 bits < one 32-bit slot
POLL_SECONDS = 0.02        # open loop: how often the driver asks the fleet for results
LOST_AFTER_SECONDS = 30.0  # open loop: an email without a result by then counts as failed


def fixed_group() -> DHGroup:
    """The committed group, re-validated: p = 2q + 1, both prime, g of order q."""
    group = DHGroup(p=GROUP_P, q=(GROUP_P - 1) // 2, g=GROUP_G)
    validate_group(group)
    return group


@dataclass(frozen=True)
class Scale:
    """Input sizes.  ``FULL`` is what BENCHMARK.json measures; ``SMOKE`` runs
    the same code path in seconds."""

    ring_degree: int
    rounds: int
    spam_rows: int              # N of spam_warm and of the fleet's spam models
    spam_mailboxes: int
    topic_rows: int             # N of topic_warm
    topic_categories: int       # B
    topic_candidates: int       # B'
    topic_mailboxes: int
    onboard_rows: int           # N of onboard_cold (40 ciphertexts at 20000)
    fleet_mailboxes: int
    fleet_topic_rows: int       # smaller than topic_rows: three fleet set-ups must fit a run
    fleet_rate: float           # mean emails/s offered
    mini_stream_emails: int     # per round, per IPC arm (traced fleet run)


FULL = Scale(
    ring_degree=1024, rounds=3,
    spam_rows=5000, spam_mailboxes=4,
    topic_rows=2000, topic_categories=256, topic_candidates=10, topic_mailboxes=2,
    onboard_rows=20000,
    fleet_mailboxes=8, fleet_topic_rows=500, fleet_rate=4.0,
    mini_stream_emails=20,
)
SMOKE = Scale(
    ring_degree=256, rounds=1,
    spam_rows=1000, spam_mailboxes=2,
    topic_rows=200, topic_categories=64, topic_candidates=10, topic_mailboxes=1,
    onboard_rows=2000,
    fleet_mailboxes=4, fleet_topic_rows=100, fleet_rate=8.0,
    mini_stream_emails=4,
)

FLEET_AGENTS = 2
FLEET_TOPIC_EVERY = 4       # every 4th email of the fleet mix is a topic email
BURST_FACTOR = 3.0          # arrival rate inside a burst, relative to outside
BURST_SHARE = 0.1           # share of the time covered by bursts
BURST_SLOT_SECONDS = 0.5
ZIPF_EXPONENT = 1.1


# ---------------------------------------------------------------------------
# Generators (the only source of inputs)
# ---------------------------------------------------------------------------
def stream_rng(seed: int, *path: int) -> np.random.Generator:
    return np.random.default_rng([seed, *path])


def make_model(rng: np.random.Generator, rows: int, categories: int) -> QuantizedLinearModel:
    linear = LinearModel(
        weights=rng.normal(size=(rows, categories)),
        biases=rng.normal(size=categories),
        category_names=[f"c{index}" for index in range(categories)],
    )
    return QuantizedLinearModel.from_linear_model(
        linear,
        value_bits=VALUE_BITS,
        frequency_bits=FREQUENCY_BITS,
        max_features_per_email=MAX_FEATURES,
    )


def make_email(rng: np.random.Generator, rows: int) -> dict[int, int]:
    """L distinct features with term frequencies 1–3."""
    indices = rng.choice(rows, size=min(FEATURES_PER_EMAIL, rows), replace=False)
    counts = rng.integers(1, 4, size=len(indices))
    return {int(index): int(count) for index, count in zip(indices, counts)}


def make_candidates(rng: np.random.Generator, categories: int, count: int) -> list[int]:
    return [int(c) for c in rng.choice(categories, size=min(count, categories), replace=False)]


@dataclass(frozen=True)
class Arrival:
    due: float       # seconds after the round's start
    mailbox: int
    topic: bool


def make_arrivals(
    rng: np.random.Generator, seconds: float, rate: float, mailboxes: int
) -> list[Arrival]:
    """``rate × seconds`` arrivals, Poisson-like, with ×3 bursts over 10 % of the time.

    Time is cut into half-second slots, a tenth of which (at least one) are
    bursts.  The *number* of arrivals is fixed (the nearest multiple of four) —
    a Poisson process conditioned on its count — so that goodput and the topic
    share do not vary with the seed; which slot each arrival falls in (burst
    slots weigh ×3) and where in the slot are drawn.  Mailboxes follow
    Zipf(1.1); every 4th email is a topic email.
    """
    slots = max(1, int(round(seconds / BURST_SLOT_SECONDS)))
    slot_seconds = seconds / slots
    slot_weights = np.ones(slots)
    slot_weights[rng.choice(slots, size=max(1, round(BURST_SHARE * slots)), replace=False)] = (
        BURST_FACTOR
    )
    # A whole number of spam-spam-spam-topic groups: the mix, and with it the
    # bytes and the cost of the mean email, must not depend on the stretch's length.
    count = FLEET_TOPIC_EVERY * max(1, round(rate * seconds / FLEET_TOPIC_EVERY))
    in_slot = rng.choice(slots, size=count, p=slot_weights / slot_weights.sum())
    times = [float(t) for t in (in_slot + rng.random(count)) * slot_seconds]
    weights = 1.0 / np.arange(1, mailboxes + 1) ** ZIPF_EXPONENT
    weights /= weights.sum()
    times.sort()
    chosen = rng.choice(mailboxes, size=len(times), p=weights)
    return [
        Arrival(due=due, mailbox=int(mailbox), topic=(index % FLEET_TOPIC_EVERY == FLEET_TOPIC_EVERY - 1))
        for index, (due, mailbox) in enumerate(zip(times, chosen))
    ]


# ---------------------------------------------------------------------------
# What one email yields
# ---------------------------------------------------------------------------
@dataclass
class Sample:
    latency: float            # seconds; open loop: from the instant the email was due
    finished: float           # perf_counter() when the result was in hand
    provider_seconds: float
    client_seconds: float
    network_bytes: int
    ok: bool                  # output equals the plaintext reference
    network_rounds: int = 0
    cpu_seconds: float = 0.0  # closed loop: this process's CPU over the email
    topic: bool = False       # open loop: which kind of email of the mix


def spam_reference(model: QuantizedLinearModel, features: dict[int, int]) -> bool:
    """The plaintext verdict (a function of its own so the harness test can flip it)."""
    return model.predict_is_spam(features)


def topic_reference(
    model: QuantizedLinearModel, features: dict[int, int], candidates: list[int]
) -> int:
    """Arg-max over the candidate list; ties go to the earliest, as in the circuit."""
    scores = model.integer_scores(features)
    return candidates[int(np.argmax(scores[candidates]))]


# Per-layer rows that do not come from spans: ``Workload.layer_rows`` fills them.
LAYER_ROWS = (
    "core.runtime.window_park_p50_ms",
    "core.runtime.decrypt_batch_mean",
    "core.runtime.inproc_ms_per_email",
    "core.runtime.pipe_ms_per_email",
    "fabric.tcp_ms_per_email",
)


def histogram_rows(snapshot: dict) -> dict[str, float]:
    """The two scheduler rows read off a public metrics snapshot."""
    rows = dict.fromkeys(LAYER_ROWS, 0.0)
    for histogram in snapshot["histograms"]:
        if not histogram["count"]:
            continue
        if histogram["name"] == "decrypt_age_seconds":
            rows["core.runtime.window_park_p50_ms"] = 1e3 * percentile(histogram["recent"], 50)
        elif histogram["name"] == "decrypt_batch_ciphertexts":
            rows["core.runtime.decrypt_batch_mean"] = histogram["sum"] / histogram["count"]
    return rows


def counter_total(snapshot: dict, name: str) -> float:
    return sum(entry["value"] for entry in snapshot["counters"] if entry["name"] == name)


# ---------------------------------------------------------------------------
# Workloads
# ---------------------------------------------------------------------------
class Workload:
    """Set up → run (any number of stretches) → layer rows → tear down."""

    name = ""
    index = 0            # position in the seed path: workloads never share a stream
    open_loop = False    # emails are due on a schedule, whatever the system does

    def __init__(self, seed: int, scale: Scale, tracer: tracing.Tracer) -> None:
        self.seed = seed
        self.scale = scale
        self.tracer = tracer
        self.group = fixed_group()
        self.scheme = BVScheme(BVParameters(ring_degree=scale.ring_degree))
        self.rng = stream_rng(seed, self.index)
        self.lateness: list[float] = []   # open loop: how late each email was submitted

    def setup(self, round_index: int) -> None:
        """Build keys, models and registrations, then serve one warm-up email per mailbox."""
        self.rng = stream_rng(self.seed, self.index, round_index)

    def run(self, seconds: float, samples: list[Sample]) -> None:
        deadline = time.perf_counter() + seconds
        while time.perf_counter() < deadline:
            self.one_email(samples)

    def one_email(self, samples: list[Sample]) -> None:
        """Closed loop: generate one email, serve it inside the timed region, check it."""
        serve = self.next_email()
        with self.tracer.email():
            cpu = time.process_time()
            start = time.perf_counter()
            job, ok, provider_extra = serve()
            finished = time.perf_counter()
            cpu = time.process_time() - cpu
        samples.append(Sample(
            finished - start, finished, job.provider.seconds + provider_extra,
            job.client.seconds, job.channel.total_bytes(), ok, job.channel.rounds(), cpu,
        ))

    def next_email(self) -> Callable[[], tuple[Any, bool, float]]:
        """Inputs and reference for the next email; the returned call serves it and
        gives ``(job, output == reference, provider seconds spent outside the job)``."""
        raise NotImplementedError

    def layer_rows(self) -> dict[str, float]:
        """Per-layer rows that come from the program's public metrics, not from spans."""
        return histogram_rows(get_registry().snapshot())

    def teardown(self) -> None:
        pass

    def worker_pids(self) -> list[int]:
        return []

    def client_storage_bytes(self) -> int:
        raise NotImplementedError

    def emails_served_mismatch(self) -> int:
        """Open loop only: |emails the fleet says it served − emails submitted|."""
        return 0


class _DirectoryWorkload(Workload):
    """Closed loop, one email in flight, a warm in-process ``MailboxDirectory``."""

    def setup(self, round_index: int) -> None:
        super().setup(round_index)
        self.directory = MailboxDirectory()
        self.models: dict[str, QuantizedLinearModel] = {}
        self.setups: dict[str, Any] = {}
        self.addresses: list[str] = []
        self.cursor = 0
        self.register_all()
        for _ in self.addresses:
            self.one_email([])

    def register_all(self) -> None:
        raise NotImplementedError

    def next_address(self) -> str:
        address = self.addresses[self.cursor % len(self.addresses)]
        self.cursor += 1
        return address

    def teardown(self) -> None:
        # Let go of the encrypted models: with rounds interleaved, another
        # workload runs next and should not carry this one's heap.
        self.directory = MailboxDirectory()
        self.models, self.setups = {}, {}

    def client_storage_bytes(self) -> int:
        return sum(setup.client_storage_bytes() for setup in self.setups.values())


class SpamWarm(_DirectoryWorkload):
    name = "spam_warm"
    index = 1

    def register_all(self) -> None:
        self.protocol = SpamFilterProtocol(self.scheme, self.group)
        for index in range(self.scale.spam_mailboxes):
            address = f"spam{index}@bench.example"
            model = make_model(self.rng, self.scale.spam_rows, 2)
            setup = self.protocol.setup(model)
            self.directory.register_spam(address, self.protocol, setup)
            self.addresses.append(address)
            self.models[address] = model
            self.setups[address] = setup

    def next_email(self) -> Callable[[], tuple[Any, bool, float]]:
        address = self.next_address()
        model = self.models[address]
        features = make_email(self.rng, model.num_features)
        expected = spam_reference(model, features)

        def serve() -> tuple[Any, bool, float]:
            (job,) = self.directory.spam_jobs(address, [features])
            ProviderRuntime().run([job])
            return job, job.client.is_spam == expected, 0.0

        return serve


class TopicWarm(_DirectoryWorkload):
    name = "topic_warm"
    index = 2

    def register_all(self) -> None:
        scale = self.scale
        self.protocol = TopicExtractionProtocol(self.scheme, self.group)
        for index in range(scale.topic_mailboxes):
            address = f"topic{index}@bench.example"
            model = make_model(self.rng, scale.topic_rows, scale.topic_categories)
            setup = self.protocol.setup(model)
            self.directory.register_topics(address, self.protocol, setup)
            self.addresses.append(address)
            self.models[address] = model
            self.setups[address] = setup

    def next_email(self) -> Callable[[], tuple[Any, bool, float]]:
        address = self.next_address()
        model = self.models[address]
        features = make_email(self.rng, model.num_features)
        candidates = make_candidates(self.rng, model.num_categories, self.scale.topic_candidates)
        expected = topic_reference(model, features, candidates)

        def serve() -> tuple[Any, bool, float]:
            (job,) = self.directory.topic_jobs(address, [features], [candidates])
            ProviderRuntime().run([job])
            return job, job.provider.extracted_topic == expected, 0.0

        return serve


class OnboardCold(Workload):
    name = "onboard_cold"
    index = 3

    def setup(self, round_index: int) -> None:
        super().setup(round_index)
        self.protocol = SpamFilterProtocol(self.scheme, self.group)
        self.model = make_model(self.rng, self.scale.onboard_rows, 2)
        self.storage_bytes = 0
        self.one_email([])

    def next_email(self) -> Callable[[], tuple[Any, bool, float]]:
        """One operation: set up a fresh pair, register it, serve its first email."""
        features = make_email(self.rng, self.model.num_features)
        expected = spam_reference(self.model, features)
        address = "new@bench.example"

        def serve() -> tuple[Any, bool, float]:
            setup = self.protocol.setup(self.model)
            directory = MailboxDirectory()
            directory.register_spam(address, self.protocol, setup)
            (job,) = directory.spam_jobs(address, [features])
            ProviderRuntime().run([job])
            self.storage_bytes = setup.client_storage_bytes()
            return job, job.client.is_spam == expected, setup.provider_setup_seconds

        return serve

    def client_storage_bytes(self) -> int:
        return self.storage_bytes


class FleetMixedOpen(Workload):
    name = "fleet_mixed_open"
    index = 4
    open_loop = True

    def __init__(self, seed: int, scale: Scale, tracer: tracing.Tracer) -> None:
        super().__init__(seed, scale, tracer)
        self.runtime = None
        self.agents: list[Any] = []

    def setup(self, round_index: int) -> None:
        super().setup(round_index)
        scale = self.scale
        if FLEET_AGENTS > (os.cpu_count() or 1):
            raise SystemExit(
                f"{self.name} needs {FLEET_AGENTS} worker processes but this machine has "
                f"{os.cpu_count()} cores; refusing to oversubscribe"
            )
        self.spam_protocol = SpamFilterProtocol(self.scheme, self.group)
        self.topic_protocol = TopicExtractionProtocol(self.scheme, self.group)
        self.addresses = self._balanced_addresses(scale.fleet_mailboxes)
        self.spam_models: dict[str, QuantizedLinearModel] = {}
        self.topic_models: dict[str, QuantizedLinearModel] = {}
        self.spam_setups: dict[str, Any] = {}
        self.topic_setups: dict[str, Any] = {}
        self.submitted = 0
        self.lateness = []
        # Agents start as ``python -m repro.fabric`` and find the program through
        # the environment: point them at the copy this process imported.
        source = str(Path(repro.__file__).resolve().parents[1])
        inherited = os.environ.get("PYTHONPATH", "")
        if source not in inherited.split(os.pathsep):
            os.environ["PYTHONPATH"] = source + (os.pathsep + inherited if inherited else "")
        self.runtime, self.agents = launch_fabric(
            FLEET_AGENTS, window_bursts=2, max_delay_seconds=0.25
        )
        for address in self.addresses:
            spam_model = make_model(self.rng, scale.spam_rows, 2)
            topic_model = make_model(self.rng, scale.fleet_topic_rows, scale.topic_categories)
            self.spam_models[address] = spam_model
            self.topic_models[address] = topic_model
            self.spam_setups[address] = self.spam_protocol.setup(spam_model)
            self.topic_setups[address] = self.topic_protocol.setup(topic_model)
            self.runtime.register_spam(address, self.spam_protocol, self.spam_setups[address])
            self.runtime.register_topics(address, self.topic_protocol, self.topic_setups[address])
        warm = [Arrival(0.0, index, topic=False) for index in range(len(self.addresses))]
        warm += [Arrival(0.0, index, topic=True) for index in range(len(self.addresses))]
        self._drive(warm, [])

    @staticmethod
    def _balanced_addresses(count: int) -> list[str]:
        """*count* addresses split evenly over the agents' hash slots."""
        per_slot = {slot: 0 for slot in range(FLEET_AGENTS)}
        addresses: list[str] = []
        candidate = 0
        while len(addresses) < count:
            address = f"user{candidate}@bench.example"
            candidate += 1
            slot = shard_of_address(address, FLEET_AGENTS)
            if per_slot[slot] < -(-count // FLEET_AGENTS):
                per_slot[slot] += 1
                addresses.append(address)
        return addresses

    def run(self, seconds: float, samples: list[Sample]) -> None:
        arrivals = make_arrivals(
            self.rng, seconds, self.scale.fleet_rate, len(self.addresses)
        )
        self._drive(arrivals, samples)

    def _drive(self, arrivals: list[Arrival], samples: list[Sample]) -> None:
        """Submit what is due as one burst, else sleep to the next arrival and poll."""
        runtime = self.runtime
        origin = time.perf_counter()
        outstanding: dict[int, tuple[float, Any, bool]] = {}   # job id -> (due, expected, topic)
        position = 0
        last_progress = origin   # last submission or result
        while position < len(arrivals) or outstanding:
            now = time.perf_counter() - origin
            due: list[Arrival] = []
            while position < len(arrivals) and arrivals[position].due <= now:
                due.append(arrivals[position])
                position += 1
            if due:
                self.lateness.extend(now - arrival.due for arrival in due)
                self._submit(due, outstanding)
                last_progress = time.perf_counter()
            else:
                wait = POLL_SECONDS
                if position < len(arrivals):
                    wait = min(wait, arrivals[position].due - now)
                time.sleep(max(wait, 0.0))
                if outstanding:
                    runtime.poll()
            done_at = time.perf_counter() - origin
            for job_id in list(outstanding):
                try:
                    result = runtime.take_result(job_id)
                except ProtocolError:
                    continue   # still inside an open window
                due_at, expected, topic = outstanding.pop(job_id)
                output = result.extracted_topic if topic else result.is_spam
                samples.append(Sample(
                    done_at - due_at, origin + done_at, result.provider_seconds,
                    result.client_seconds, result.network_bytes, output == expected,
                    result.network_rounds, topic=topic,
                ))
                last_progress = time.perf_counter()
            if time.perf_counter() - last_progress > LOST_AFTER_SECONDS:
                samples.extend(
                    Sample(LOST_AFTER_SECONDS, time.perf_counter(), 0.0, 0.0, 0, False)
                    for _ in outstanding
                )
                return

    def _submit(self, due: list[Arrival], outstanding: dict) -> None:
        spam, topics, spam_meta, topic_meta = [], [], [], []
        for arrival in due:
            address = self.addresses[arrival.mailbox]
            if arrival.topic:
                model = self.topic_models[address]
                features = make_email(self.rng, model.num_features)
                candidates = make_candidates(
                    self.rng, model.num_categories, self.scale.topic_candidates
                )
                topics.append((address, features, candidates))
                topic_meta.append((arrival.due, topic_reference(model, features, candidates), True))
            else:
                model = self.spam_models[address]
                features = make_email(self.rng, model.num_features)
                spam.append((address, features))
                spam_meta.append((arrival.due, spam_reference(model, features), False))
        self.submitted += len(due)
        if spam:
            outstanding.update(zip(self.runtime.submit_spam(spam), spam_meta))
        if topics:
            outstanding.update(zip(self.runtime.submit_topics(topics), topic_meta))

    def emails_served_mismatch(self) -> int:
        served = counter_total(self.runtime.aggregated_metrics(), "emails_served_total")
        return abs(int(served) - self.submitted)

    def layer_rows(self) -> dict[str, float]:
        """Worker-side rows from ``aggregated_metrics()``, then the three IPC arms.

        The arms time one closed-loop spam mini-stream through the fleet, through
        two in-box pipe workers and through an in-process ``serve_burst`` — the
        fleet is closed before the pipe workers start, so worker processes never
        exceed ``FLEET_AGENTS``.
        """
        rows = histogram_rows(self.runtime.aggregated_metrics())
        emails = [
            (self.addresses[index % len(self.addresses)],
             make_email(self.rng, self.scale.spam_rows))
            for index in range(self.scale.mini_stream_emails)
        ]
        rows["fabric.tcp_ms_per_email"] = self._mini_stream(self.runtime, emails)
        self.teardown()
        with ShardedRuntime(
            num_shards=FLEET_AGENTS, window_bursts=2, max_delay_seconds=0.25
        ) as sharded:
            for address in self.addresses:
                sharded.register_spam(address, self.spam_protocol, self.spam_setups[address])
            rows["core.runtime.pipe_ms_per_email"] = self._mini_stream(sharded, emails)
        directory = MailboxDirectory()
        for address in self.addresses:
            directory.register_spam(address, self.spam_protocol, self.spam_setups[address])
        runtime = ProviderRuntime()
        start = time.perf_counter()
        for address, features in emails:
            runtime.serve_burst(directory.spam_jobs(address, [features]))
            runtime.drain()
        rows["core.runtime.inproc_ms_per_email"] = (
            1e3 * (time.perf_counter() - start) / len(emails)
        )
        return rows

    @staticmethod
    def _mini_stream(runtime: Any, emails: list[tuple[str, dict[int, int]]]) -> float:
        start = time.perf_counter()
        for email in emails:
            (job_id,) = runtime.submit_spam([email])
            runtime.drain()
            runtime.take_result(job_id)
        return 1e3 * (time.perf_counter() - start) / len(emails)

    def teardown(self) -> None:
        if self.runtime is None:
            return
        self.runtime.close()
        for agent in self.agents:
            if agent.wait(timeout=10.0) is None:
                agent.kill()
                agent.wait(timeout=10.0)
            if agent.process.stdout is not None:
                agent.process.stdout.close()
        self.runtime = None

    def worker_pids(self) -> list[int]:
        return [agent.pid for agent in self.agents] if self.runtime is not None else []

    def client_storage_bytes(self) -> int:
        return sum(
            setup.client_storage_bytes()
            for setups in (self.spam_setups, self.topic_setups)
            for setup in setups.values()
        )


WORKLOADS: dict[str, type[Workload]] = {
    cls.name: cls for cls in (SpamWarm, TopicWarm, OnboardCold, FleetMixedOpen)
}
