"""Regression benchmark harness: serving runtime, sharded stack, fabric, gates.

Per-email and per-layer *performance* is measured by ``benchmarks/e2e/run.py``
(``BENCHMARK.json``), not here; what is left are suites whose hard-fail gates
are not yet tests.  ``--suite runtime`` measures multi-user
serving-loop throughput: 8 emails classified one-shot sequentially versus as
8 concurrent sessions through :class:`repro.core.runtime.ProviderRuntime`
(cross-session batched decrypts + the per-pair persistent OT extension).
``--suite shard`` measures the sharded serving stack of the §6.3 deployment
story: a stream of email waves over several mailboxes, driven three ways —
the PR 2 single-loop drive (fresh per-pair OT handshake per burst, exactly
the arrangement behind the committed runtime numbers), the same single loop
with a warm :class:`MailboxDirectory`, and a 4-worker
:class:`repro.core.runtime.ShardedRuntime` with windowed decrypt scheduling.
``--suite chaos`` measures goodput under degraded networks: the same spam
stream classified over a clean pipe and over seeded fault cocktails (1% and
5% drop/corrupt/reorder/duplicate per frame) with the
:class:`repro.twopc.reliable.ReliableChannel` ack/retransmit layer in
between, plus a raw (unreliable) control arm driven through the identical
cocktails.
``--suite latency`` measures end-to-end email latency SLOs: a seeded
bursty/diurnal trace over heavy-tailed mailboxes is replayed against the
windowed serving runtime under a virtual clock with a calibrated
deterministic service-cost model, once per static decrypt-window arm and
once with the adaptive (rate-driven) scheduler, reporting p50/p95/p99
latency and throughput per arm.
``--suite fabric`` scores the cross-host shard fabric: the shard suite's
email stream driven once through the in-box :class:`ShardedRuntime` and
once through a localhost-TCP :class:`repro.fabric.FabricRuntime` whose
first agent is **live-migrated to a fresh process mid-stream** with its
decrypt windows open.
The shard suite **hard-fails** if sharded throughput drops below the PR 2
single-loop drive, the chaos suite hard-fails if any reliable
run fails to complete or its verdict diverges from the clean run, the latency
suite hard-fails unless the adaptive arm's p99 beats every static arm's,
and the fabric suite hard-fails if the migration loses, duplicates or
re-executes any email (verdicts must equal the uninterrupted in-box run's,
zero resubmissions, every email counted exactly once) or if the
deterministic metrics projection of the fabric's merged telemetry diverges
from the in-box run's.
Each
suite writes its medians to a
``BENCH_*.json`` file, so successive PRs can track the performance
trajectory instead of re-deriving it from one-off pytest-benchmark runs.

Usage::

    PYTHONPATH=src python benchmarks/regress.py --suite runtime   # full-size ring (n=1024)
    PYTHONPATH=src python benchmarks/regress.py --suite runtime --ring-degree 256 --repeat 3
    PYTHONPATH=src python benchmarks/regress.py --suite shard
    PYTHONPATH=src python benchmarks/regress.py --suite chaos
    PYTHONPATH=src python benchmarks/regress.py --suite fabric
    PYTHONPATH=src python benchmarks/regress.py --suite chaos --output BENCH_smoke.json

The JSON schema is flat on purpose: ``{"meta": {...}, "results": {name: ...}}``.
Compare two files with any JSON diff tool; lower is better for ``*_ms`` rows,
higher for ``*_emails_per_s`` rows.
"""

from __future__ import annotations

import argparse
import json
import platform
import statistics
import time
from datetime import datetime, timezone
from pathlib import Path

import numpy as np

from repro.classify.model import LinearModel, QuantizedLinearModel
from repro.core.runtime import (
    DecryptScheduler,
    MailboxDirectory,
    ProviderRuntime,
    ShardedRuntime,
    run_spam_batch,
    shard_of_address,
    spam_job,
)
from repro.crypto.bv import BVParameters, BVScheme
from repro.crypto.dh import generate_group
from repro.fabric import launch_fabric, metrics_projection, spawn_local_agent
from repro.obs import get_registry, get_tracer, scoped_telemetry
from repro.obs.export import write_artifacts
from repro.twopc.spam import SpamFilterProtocol

SPAM_FEATURE_ROWS = 500
EMAIL_FEATURES = 100
RUNTIME_SESSIONS = 8
RUNTIME_DH_BITS = 256

SHARD_WORKERS = 4
SHARD_MAILBOXES = 4
SHARD_WAVES = 4
SHARD_EMAILS_PER_WAVE = 8  # 2 per mailbox per wave; 32 emails per stream
SHARD_WINDOW_BURSTS = 2


def run_runtime(ring_degree: int, repeat: int) -> dict:
    """Multi-user serving-loop throughput: sequential one-shots vs 8 concurrent.

    The sequential arm is the one-shot baseline (fresh sessions, fresh base
    OTs per email); the concurrent arm drives the same 8 emails through the
    serving loop, which batches the provider decrypts across sessions and
    amortises one per-pair OT-extension handshake over the whole burst.
    """
    parameters = BVParameters(ring_degree=ring_degree)
    scheme = BVScheme(parameters)
    group = generate_group(RUNTIME_DH_BITS)
    rng = np.random.default_rng(7)
    linear = LinearModel(
        weights=rng.normal(size=(SPAM_FEATURE_ROWS, 2)),
        biases=np.array([0.25, -0.25]),
        category_names=["spam", "ham"],
    )
    quantized = QuantizedLinearModel.from_linear_model(
        linear, value_bits=10, frequency_bits=4, max_features_per_email=4096
    )
    protocol = SpamFilterProtocol(scheme, group)
    setup = protocol.setup(quantized)
    emails = [
        {int(row): 1 for row in rng.choice(SPAM_FEATURE_ROWS, size=EMAIL_FEATURES, replace=False)}
        for _ in range(RUNTIME_SESSIONS)
    ]
    # Warm the one-time caches both arms share (model stacks, circuits).
    expected = [protocol.classify_email(setup, features).is_spam for features in emails]

    sequential_rates = []
    concurrent_rates = []
    batch_counts = []
    largest_batches = []
    for _ in range(repeat):
        start = time.perf_counter()
        sequential = [protocol.classify_email(setup, features) for features in emails]
        sequential_rates.append(RUNTIME_SESSIONS / (time.perf_counter() - start))
        runtime = ProviderRuntime()
        start = time.perf_counter()
        concurrent = run_spam_batch(protocol, setup, emails, runtime=runtime)
        concurrent_rates.append(RUNTIME_SESSIONS / (time.perf_counter() - start))
        # The batch *count* (and largest batch) are what detect a batching
        # regression: total ciphertexts is invariant under batching.
        batch_counts.append(len(runtime.decrypt_batch_sizes))
        largest_batches.append(max(runtime.decrypt_batch_sizes))
        if [r.is_spam for r in sequential] != expected or [r.is_spam for r in concurrent] != expected:
            raise AssertionError("concurrent and sequential verdicts disagree")

    sequential_rate = statistics.median(sequential_rates)
    concurrent_rate = statistics.median(concurrent_rates)
    # The suite's reason to exist: the serving loop must never be slower than
    # one-shot sequential sessions.  Fail loudly (CI-visible) if it regresses.
    if concurrent_rate < sequential_rate:
        raise AssertionError(
            f"serving-loop throughput regressed: {concurrent_rate:.2f} emails/s "
            f"concurrent < {sequential_rate:.2f} emails/s sequential"
        )
    return {
        "runtime_sequential_emails_per_s": sequential_rate,
        "runtime_concurrent8_emails_per_s": concurrent_rate,
        "runtime_concurrent_speedup": concurrent_rate / sequential_rate,
        "runtime_decrypt_batches_per_burst": statistics.median(batch_counts),
        "runtime_largest_decrypt_batch": statistics.median(largest_batches),
    }


def _shard_addresses(num_shards: int) -> list[str]:
    """SHARD_MAILBOXES addresses spread over the stable hash partition.

    Walks candidate addresses preferring unoccupied shards; once every shard
    owns a mailbox (or there are more mailboxes than shards) further
    addresses are taken as they come, so the walk always terminates.
    """
    addresses: list[str] = []
    taken: set[int] = set()
    candidate = 0
    while len(addresses) < SHARD_MAILBOXES:
        address = f"mailbox-{candidate}@bench.example"
        shard = shard_of_address(address, num_shards)
        if shard not in taken or len(taken) == num_shards:
            taken.add(shard)
            addresses.append(address)
        candidate += 1
    return addresses


def run_shard(ring_degree: int, repeat: int) -> dict:
    """Sharded serving-stack throughput versus the PR 2 single-loop drive.

    One workload, three drives.  The stream is SHARD_WAVES waves of
    SHARD_EMAILS_PER_WAVE emails spread over SHARD_MAILBOXES mailboxes (own
    key pairs, like real users):

    * ``singleloop`` — the PR 2 arrangement the committed runtime numbers
      use: each wave runs as concurrent sessions in one process via
      ``run_spam_batch``, paying a fresh per-pair base-OT handshake per
      mailbox per burst (that is what the one-shot drive does);
    * ``singleloop_warm`` — the same single process with a warm
      :class:`MailboxDirectory` (persistent OT pools, pre-stacked models), to
      separate what persistence buys from what sharding buys;
    * ``sharded`` — a ``SHARD_WORKERS``-process :class:`ShardedRuntime`,
      mailboxes partitioned by stable hash, per-worker warm directories and a
      ``SHARD_WINDOW_BURSTS``-burst :class:`DecryptScheduler` window
      accumulating decrypts across waves.

    Registration/handshake state for the warm arms is built *outside* the
    timed region — steady-state serving throughput is the §6.3 quantity.
    The suite hard-fails if ``sharded`` falls below ``singleloop``.
    """
    parameters = BVParameters(ring_degree=ring_degree)
    scheme = BVScheme(parameters)
    group = generate_group(RUNTIME_DH_BITS)
    rng = np.random.default_rng(11)
    linear = LinearModel(
        weights=rng.normal(size=(SPAM_FEATURE_ROWS, 2)),
        biases=np.array([0.25, -0.25]),
        category_names=["spam", "ham"],
    )
    quantized = QuantizedLinearModel.from_linear_model(
        linear, value_bits=10, frequency_bits=4, max_features_per_email=4096
    )
    protocol = SpamFilterProtocol(scheme, group)
    addresses = _shard_addresses(SHARD_WORKERS)
    setups = {address: protocol.setup(quantized) for address in addresses}

    total_emails = SHARD_WAVES * SHARD_EMAILS_PER_WAVE
    per_wave_per_mailbox = SHARD_EMAILS_PER_WAVE // SHARD_MAILBOXES
    waves: list[list[tuple[str, dict[int, int]]]] = []
    for _ in range(SHARD_WAVES):
        wave = []
        for address in addresses:
            for _ in range(per_wave_per_mailbox):
                features = {
                    int(row): 1
                    for row in rng.choice(
                        SPAM_FEATURE_ROWS, size=EMAIL_FEATURES, replace=False
                    )
                }
                wave.append((address, features))
        waves.append(wave)
    # Warm the shared one-time caches (circuits, model stacks) and pin truth.
    truth: list[list[bool]] = []
    for wave in waves:
        truth.append(
            [
                protocol.classify_email(setups[address], features).is_spam
                for address, features in wave
            ]
        )

    # -- warm state the persistent arms keep between waves (untimed) --------
    directory = MailboxDirectory()
    for address in addresses:
        directory.register_spam(address, protocol, setups[address])
    sharded_runtime = ShardedRuntime(
        num_shards=SHARD_WORKERS, window_bursts=SHARD_WINDOW_BURSTS
    )
    for address in addresses:
        sharded_runtime.register_spam(address, protocol, setups[address])

    singleloop_rates: list[float] = []
    warm_rates: list[float] = []
    sharded_rates: list[float] = []
    try:
        for _ in range(repeat):
            # Arm 1: the PR 2 single-loop drive (fresh handshakes per burst).
            start = time.perf_counter()
            singleloop_verdicts = []
            for wave in waves:
                by_mailbox: dict[str, list[dict[int, int]]] = {}
                for address, features in wave:
                    by_mailbox.setdefault(address, []).append(features)
                wave_results = {
                    address: run_spam_batch(protocol, setups[address], feature_sets)
                    for address, feature_sets in by_mailbox.items()
                }
                cursors = {address: 0 for address in by_mailbox}
                for address, _ in wave:
                    singleloop_verdicts.append(
                        wave_results[address][cursors[address]].is_spam
                    )
                    cursors[address] += 1
            singleloop_rates.append(total_emails / (time.perf_counter() - start))

            # Arm 2: one process, warm directory (persistent per-pair pools).
            start = time.perf_counter()
            warm_verdicts = []
            for wave in waves:
                runtime = ProviderRuntime()
                jobs = []
                for address, features in wave:
                    protocol_w, setup_w = directory.spam_of(address)
                    jobs.append(
                        spam_job(
                            protocol_w,
                            setup_w,
                            features,
                            label=len(jobs),
                            ot_pool=directory.spam_pool_of(address),
                        )
                    )
                runtime.run(jobs)
                warm_verdicts += [job.client.is_spam for job in jobs]
            warm_rates.append(total_emails / (time.perf_counter() - start))

            # Arm 3: the sharded stack (worker processes + windowed decrypts).
            start = time.perf_counter()
            sharded_results = sharded_runtime.run_spam_stream(waves)
            sharded_rates.append(total_emails / (time.perf_counter() - start))
            sharded_verdicts = [result.is_spam for result in sharded_results]

            flat_truth = [verdict for wave in truth for verdict in wave]
            if (
                singleloop_verdicts != flat_truth
                or warm_verdicts != flat_truth
                or sharded_verdicts != flat_truth
            ):
                raise AssertionError("serving arms disagree with the sequential truth")
        stats = sharded_runtime.shard_stats()
        # Fold the worker-side registries into this process's registry so
        # the suite telemetry artifact covers the sharded arm too.
        get_registry().merge_snapshot(sharded_runtime.aggregated_metrics())
    finally:
        sharded_runtime.close()

    singleloop_rate = statistics.median(singleloop_rates)
    warm_rate = statistics.median(warm_rates)
    sharded_rate = statistics.median(sharded_rates)
    # The row's reason to exist: scaling out must never cost throughput
    # against the single-loop drive.  Fail loudly (CI-visible) if it does.
    if sharded_rate < singleloop_rate:
        raise AssertionError(
            f"sharded serving regressed: {sharded_rate:.2f} emails/s with "
            f"{SHARD_WORKERS} workers < {singleloop_rate:.2f} emails/s single-loop"
        )
    largest_batch = max(
        (max(stat["decrypt_batch_sizes"], default=0) for stat in stats), default=0
    )
    return {
        "shard_singleloop_emails_per_s": singleloop_rate,
        "shard_singleloop_warm_emails_per_s": warm_rate,
        f"shard_sharded{SHARD_WORKERS}_emails_per_s": sharded_rate,
        "shard_speedup_vs_singleloop": sharded_rate / singleloop_rate,
        "shard_largest_decrypt_batch": largest_batch,
        "shard_mailboxes": SHARD_MAILBOXES,
        "shard_window_bursts": SHARD_WINDOW_BURSTS,
        "shard_stream_emails": total_emails,
    }


FABRIC_AGENTS = 2
FABRIC_WINDOW_BURSTS = 2


def run_fabric(ring_degree: int, repeat: int) -> dict:
    """Cross-host fabric equivalence: localhost TCP agents vs in-box workers.

    The shard suite's email stream (SHARD_WAVES waves over SHARD_MAILBOXES
    mailboxes), driven twice per repeat:

    * ``inbox`` — a fresh ``FABRIC_AGENTS``-process in-box
      :class:`ShardedRuntime` (pipe transport), uninterrupted;
    * ``tcp`` — a fresh :class:`repro.fabric.FabricRuntime` over
      ``FABRIC_AGENTS`` localhost TCP agent processes, with one **live
      migration mid-stream**: after the first wave (decrypt windows still
      open, ``FABRIC_WINDOW_BURSTS``-burst scheduler), agent 0's whole hash
      range is checkpointed, restored onto a pre-attached spare process and
      the remaining waves land on the new owner.

    The spare is spawned and attached *before* the timed region (Python
    process startup is not a serving cost); the migration itself — quiesce,
    checkpoint, restore, redirect, retire — happens inside it.

    Hard-fail gates, per repeat: the migration must resubmit **zero**
    emails; fabric verdicts must equal the uninterrupted in-box run's and
    the sequential truth (nothing lost, duplicated or re-executed);
    the merged ``emails_served_total`` must equal the stream size exactly
    (each email served on exactly one agent, source *or* target); and the
    deterministic metrics projection (partition-invariant counters and
    count-valued histograms — see :func:`repro.fabric.metrics_projection`)
    of the fabric's merged telemetry must equal the in-box run's.
    """
    parameters = BVParameters(ring_degree=ring_degree)
    scheme = BVScheme(parameters)
    group = generate_group(RUNTIME_DH_BITS)
    rng = np.random.default_rng(11)
    linear = LinearModel(
        weights=rng.normal(size=(SPAM_FEATURE_ROWS, 2)),
        biases=np.array([0.25, -0.25]),
        category_names=["spam", "ham"],
    )
    quantized = QuantizedLinearModel.from_linear_model(
        linear, value_bits=10, frequency_bits=4, max_features_per_email=4096
    )
    protocol = SpamFilterProtocol(scheme, group)
    addresses = _shard_addresses(FABRIC_AGENTS)
    setups = {address: protocol.setup(quantized) for address in addresses}

    total_emails = SHARD_WAVES * SHARD_EMAILS_PER_WAVE
    per_wave_per_mailbox = SHARD_EMAILS_PER_WAVE // SHARD_MAILBOXES
    waves: list[list[tuple[str, dict[int, int]]]] = []
    for _ in range(SHARD_WAVES):
        wave = []
        for address in addresses:
            for _ in range(per_wave_per_mailbox):
                features = {
                    int(row): 1
                    for row in rng.choice(
                        SPAM_FEATURE_ROWS, size=EMAIL_FEATURES, replace=False
                    )
                }
                wave.append((address, features))
        waves.append(wave)
    flat_truth = [
        protocol.classify_email(setups[address], features).is_spam
        for wave in waves
        for address, features in wave
    ]

    def served_total(snapshot: dict) -> float:
        return sum(
            entry["value"]
            for entry in snapshot["counters"]
            if entry["name"] == "emails_served_total"
        )

    inbox_rates: list[float] = []
    tcp_rates: list[float] = []
    fabric_metrics: dict = {}
    for _ in range(repeat):
        # Arm 1: the uninterrupted in-box sharded drive (fresh runtime per
        # repeat so its telemetry covers exactly one stream).
        with scoped_telemetry():
            with ShardedRuntime(
                num_shards=FABRIC_AGENTS, window_bursts=FABRIC_WINDOW_BURSTS
            ) as sharded:
                for address in addresses:
                    sharded.register_spam(address, protocol, setups[address])
                start = time.perf_counter()
                inbox_verdicts = [
                    result.is_spam for result in sharded.run_spam_stream(waves)
                ]
                inbox_rates.append(total_emails / (time.perf_counter() - start))
                inbox_metrics = sharded.aggregated_metrics()
        if inbox_verdicts != flat_truth:
            raise AssertionError("in-box arm disagrees with the sequential truth")

        # Arm 2: the TCP fabric, live migration after the first wave.
        runtime, agents = launch_fabric(
            FABRIC_AGENTS, window_bursts=FABRIC_WINDOW_BURSTS, metrics_interval=0.05
        )
        try:
            for address in addresses:
                runtime.register_spam(address, protocol, setups[address])
            spare = spawn_local_agent(shard_index=FABRIC_AGENTS)
            agents.append(spare)
            target = runtime.attach_worker(spare)

            start = time.perf_counter()
            job_ids = runtime.submit_spam(waves[0])
            resubmitted = runtime.migrate(0, target)
            for wave in waves[1:]:
                job_ids += runtime.submit_spam(wave)
            runtime.drain()
            tcp_verdicts = [
                runtime.take_result(job_id).is_spam for job_id in job_ids
            ]
            tcp_rates.append(total_emails / (time.perf_counter() - start))
            fabric_metrics = runtime.aggregated_metrics()
        finally:
            runtime.close()
            for agent in agents:
                if agent.wait(timeout=10.0) is None:
                    agent.kill()

        # The gates: the whole point of the suite, checked every repeat.
        if resubmitted != 0:
            raise AssertionError(
                f"live migration resubmitted {resubmitted} emails — the "
                "checkpoint handover must carry every open window"
            )
        if tcp_verdicts != inbox_verdicts:
            raise AssertionError(
                "fabric verdicts diverged from the uninterrupted in-box run "
                "(an email was lost, duplicated or re-executed across the "
                "migration)"
            )
        served = served_total(fabric_metrics)
        if served != total_emails:
            raise AssertionError(
                f"fabric counted {served:.0f} servings for {total_emails} "
                "emails — the migration double-counted or dropped work"
            )
        if metrics_projection(fabric_metrics) != metrics_projection(inbox_metrics):
            raise AssertionError(
                "deterministic metrics projection diverged between the fabric "
                "and the in-box run — serving work moved or repeated"
            )

    # Fold the last fabric stream's agent registries into this process's
    # registry so the suite telemetry artifact covers the TCP arm.
    get_registry().merge_snapshot(fabric_metrics)

    inbox_rate = statistics.median(inbox_rates)
    tcp_rate = statistics.median(tcp_rates)
    return {
        "fabric_inbox_emails_per_s": inbox_rate,
        "fabric_tcp_emails_per_s": tcp_rate,
        "fabric_tcp_vs_inbox": tcp_rate / inbox_rate,
        "fabric_migration_resubmitted": 0.0,
        "fabric_agents": FABRIC_AGENTS,
        "fabric_stream_emails": total_emails,
        "fabric_window_bursts": FABRIC_WINDOW_BURSTS,
    }


CHAOS_EMAILS = 6
CHAOS_RATES = (0.01, 0.05)
CHAOS_SEED_BASE = 20170814  # deterministic by default; CI varies it per run


def run_chaos(ring_degree: int, repeat: int) -> dict:
    """Goodput under seeded fault cocktails: reliable arm vs raw control.

    One spam stream, three network conditions.  CHAOS_EMAILS emails are
    classified over (a) a clean loopback pipe, (b) pipes injecting the 1% and
    5% loss cocktails (drop/corrupt/reorder/duplicate, each at the named rate
    per frame) with :class:`~repro.twopc.reliable.ReliableChannel` providing
    exactly-once in-order delivery, and (c) the same cocktails over the bare
    :class:`~repro.twopc.transport.FaultyTransport` with no reliability layer
    — the control that shows the damage is real.

    The reliable arms **hard-fail** if any run does not complete or any
    verdict diverges from the clean run; the raw arm merely reports its
    completion rate (it is expected to fail on seeds where faults land).
    Goodput ratios (chaotic emails/s over clean emails/s) are the headline
    rows: they price what resilience costs at each damage level.
    """
    import os

    from repro.exceptions import ProtocolError
    from repro.twopc.reliable import chaos_channel
    from repro.twopc.transport import FaultSpec, FaultyTransport, LoopbackTransport
    from repro.twopc.transport import FramedChannel
    from repro.twopc.wire import WireCodec

    seed_base = int(os.environ.get("CHAOS_SEED", str(CHAOS_SEED_BASE)))
    parameters = BVParameters(ring_degree=ring_degree)
    scheme = BVScheme(parameters)
    group = generate_group(RUNTIME_DH_BITS)
    rng = np.random.default_rng(17)
    linear = LinearModel(
        weights=rng.normal(size=(SPAM_FEATURE_ROWS, 2)),
        biases=np.array([0.25, -0.25]),
        category_names=["spam", "ham"],
    )
    quantized = QuantizedLinearModel.from_linear_model(
        linear, value_bits=10, frequency_bits=4, max_features_per_email=4096
    )
    protocol = SpamFilterProtocol(scheme, group)
    setup = protocol.setup(quantized)
    emails = [
        {int(row): 1 for row in rng.choice(SPAM_FEATURE_ROWS, size=EMAIL_FEATURES, replace=False)}
        for _ in range(CHAOS_EMAILS)
    ]
    # Uninterrupted truth (also warms the circuits/stacks every arm shares).
    truth = [protocol.classify_email(setup, features).is_spam for features in emails]

    clean_rates: list[float] = []
    reliable_rates: dict[float, list[float]] = {rate: [] for rate in CHAOS_RATES}
    retransmissions: dict[float, int] = {rate: 0 for rate in CHAOS_RATES}
    faults_injected: dict[float, int] = {rate: 0 for rate in CHAOS_RATES}
    raw_completed = 0
    raw_attempted = 0
    for round_index in range(repeat):
        start = time.perf_counter()
        clean = [protocol.classify_email(setup, features).is_spam for features in emails]
        clean_rates.append(CHAOS_EMAILS / (time.perf_counter() - start))
        if clean != truth:
            raise AssertionError("clean verdicts drifted between rounds")

        for rate in CHAOS_RATES:
            start = time.perf_counter()
            for index, features in enumerate(emails):
                seed = seed_base + 1000 * round_index + index
                spec = FaultSpec.loss_cocktail(rate, seed=seed)
                channel, faulty, reliable = chaos_channel(
                    spec, scheme=scheme, public_key=setup.keypair.public
                )
                result = protocol.classify_email(setup, features, channel=channel)
                # The suite's reason to exist: under these cocktails the
                # reliable arm must complete with bit-identical verdicts.
                # Fail loudly (CI-visible, seed in the message) if not.
                if result.is_spam != truth[index]:
                    raise AssertionError(
                        f"chaos verdict diverged at rate={rate} seed={seed} "
                        f"(rerun with CHAOS_SEED={seed_base})"
                    )
                retransmissions[rate] += reliable.stats["retransmissions"]
                # fault_counts() is exact even past the bounded fault_log cap.
                faults_injected[rate] += sum(faulty.fault_counts().values())
            reliable_rates[rate].append(CHAOS_EMAILS / (time.perf_counter() - start))

        # Raw control arm at the heavy rate: same cocktail, no reliability.
        for index, features in enumerate(emails):
            seed = seed_base + 1000 * round_index + index
            faulty = FaultyTransport(
                LoopbackTransport(parties=("client", "provider")),
                FaultSpec.loss_cocktail(CHAOS_RATES[-1], seed=seed),
            )
            codec = WireCodec(scheme=scheme, public_key=setup.keypair.public)
            raw_attempted += 1
            try:
                result = protocol.classify_email(
                    setup, features, channel=FramedChannel(faulty, codec)
                )
            except ProtocolError:
                continue
            if result.is_spam == truth[index]:
                raw_completed += 1

    clean_rate = statistics.median(clean_rates)
    results = {"chaos_clean_emails_per_s": clean_rate}
    for rate in CHAOS_RATES:
        label = f"{rate * 100:g}pct"
        chaotic_rate = statistics.median(reliable_rates[rate])
        results[f"chaos_reliable_{label}_emails_per_s"] = chaotic_rate
        results[f"chaos_goodput_ratio_{label}"] = chaotic_rate / clean_rate
        results[f"chaos_retransmissions_{label}"] = retransmissions[rate]
        results[f"chaos_faults_injected_{label}"] = faults_injected[rate]
    results["chaos_raw_5pct_completion_rate"] = raw_completed / raw_attempted
    results["chaos_stream_emails"] = CHAOS_EMAILS
    return results


LATENCY_MAILBOXES = 120
LATENCY_EVENTS_PER_REPEAT = 60
LATENCY_MAX_EVENTS = 360
LATENCY_UTILISATION = 0.25  # mean offered load as a fraction of measured capacity
LATENCY_BURST_MULTIPLIER = 2.5
LATENCY_BURST_FRACTION = 0.15
LATENCY_DIURNAL_AMPLITUDE = 0.25
LATENCY_DUPLICATE_FRACTION = 0.01
LATENCY_TRACE_SEED = 1017
LATENCY_TARGET_BATCH = 24
LATENCY_MIN_DELAY_S = 0.004
LATENCY_STATIC_DELAYS_S = (0.25, 0.10, 0.05)
LATENCY_CALIBRATION_BATCH = 8  # emails in the batched calibration flush


def run_latency(ring_degree: int, repeat: int) -> dict:
    """End-to-end email latency, static versus adaptive decrypt windows.

    A seeded bursty/diurnal trace (:func:`repro.mail.traces.generate_trace`,
    heavy-tailed mailbox volume, ~1% injected duplicates) is replayed against
    a real :class:`ProviderRuntime` under a virtual clock: the clock jumps to
    each arrival, and between arrivals it advances to the scheduler's next
    age deadline and ticks ``poll()`` — the idle-window flush.

    Service time is charged to the virtual clock through a **calibrated
    deterministic cost model**: the suite first measures, on the live
    protocol, the cost of serving one email alone and the cost of serving a
    batch, and fits ``cost(k) = c0 + k·c1`` (per-batch overhead plus
    per-email marginal cost — the decrypt-many amortization the runtime
    actually exhibits).  The trace rate is calibrated to the measured
    single-email cost, so the load level is machine-independent, and the
    replay itself — every queueing decision, every latency sample — is then
    fully deterministic given the trace seed and the scheduler policy.
    Measured wall-clock CPU per arm still feeds the throughput rows.

    Arms: one static :class:`DecryptScheduler` per delay in
    ``LATENCY_STATIC_DELAYS_S`` (shared size trigger
    ``LATENCY_TARGET_BATCH``), plus one :class:`AdaptiveDecryptScheduler`
    spanning the same delay range.  Every arm replays the identical trace and
    must serve the identical email set (duplicates rejected by the
    :class:`ReplayGuard` up front).  **Hard-fail gate**: the adaptive arm's
    p99 latency must beat the best static arm's — a fixed window either
    taxes the quiet tail (wide) or gives up batching (tight); the adaptive
    controller must dominate the whole grid.
    """
    from repro.core.runtime import AdaptiveDecryptScheduler
    from repro.mail import ReplayGuard, TraceSpec, VirtualClock, generate_trace, serve_trace

    parameters = BVParameters(ring_degree=ring_degree)
    scheme = BVScheme(parameters)
    group = generate_group(RUNTIME_DH_BITS)
    rng = np.random.default_rng(11)
    linear = LinearModel(
        weights=rng.normal(size=(SPAM_FEATURE_ROWS, 2)),
        biases=np.array([0.25, -0.25]),
        category_names=["spam", "ham"],
    )
    quantized = QuantizedLinearModel.from_linear_model(
        linear, value_bits=10, frequency_bits=4, max_features_per_email=4096
    )
    protocol = SpamFilterProtocol(scheme, group)
    setup = protocol.setup(quantized)

    # Calibrate the batch cost model cost(k) = c0 + k*c1 on the live runtime:
    # serve emails one per flush for the singleton cost, then one K-email
    # flush for the batched cost, and solve the two-point fit.
    calibration_emails = [
        {int(row): 1 for row in rng.choice(SPAM_FEATURE_ROWS, size=EMAIL_FEATURES, replace=False)}
        for _ in range(LATENCY_CALIBRATION_BATCH)
    ]

    def _flush_cost(emails_per_flush: int) -> float:
        runtime = ProviderRuntime(
            scheduler=DecryptScheduler(
                window_bursts=1, max_pending_ciphertexts=10**9, max_delay_seconds=None
            )
        )
        jobs = [
            spam_job(protocol, setup, features, label=index)
            for index, features in enumerate(calibration_emails[:emails_per_flush])
        ]
        start = time.perf_counter()
        finished = runtime.serve_burst(jobs)
        elapsed = time.perf_counter() - start
        assert len(finished) == emails_per_flush
        return elapsed

    _flush_cost(1)  # warm caches off the clock
    email_cost_s = min(_flush_cost(1) for _ in range(3))  # c0 + c1
    batch_cost_s = _flush_cost(LATENCY_CALIBRATION_BATCH)  # c0 + K*c1
    cost_per_item = max(
        (batch_cost_s - email_cost_s) / (LATENCY_CALIBRATION_BATCH - 1), email_cost_s * 0.05
    )
    cost_per_batch = max(email_cost_s - cost_per_item, 0.0)

    def cost_model(size: float) -> float:
        return cost_per_batch + size * cost_per_item

    mean_rate = LATENCY_UTILISATION / email_cost_s
    effective_rate = mean_rate * (
        1.0 + LATENCY_BURST_FRACTION * (LATENCY_BURST_MULTIPLIER - 1.0)
    )
    target_events = min(LATENCY_EVENTS_PER_REPEAT * repeat, LATENCY_MAX_EVENTS)
    duration = target_events / effective_rate
    spec = TraceSpec(
        mailboxes=LATENCY_MAILBOXES,
        mean_rate_per_second=mean_rate,
        duration_seconds=duration,
        diurnal_amplitude=LATENCY_DIURNAL_AMPLITUDE,
        diurnal_period_seconds=duration / 2.0,
        burst_rate_multiplier=LATENCY_BURST_MULTIPLIER,
        burst_fraction=LATENCY_BURST_FRACTION,
        mean_burst_seconds=max(8.0 * email_cost_s, 0.5),
        duplicate_fraction=LATENCY_DUPLICATE_FRACTION,
        seed=LATENCY_TRACE_SEED,
    )
    events = generate_trace(spec)

    mailbox_features = {}

    def features_of(mailbox: str) -> dict:
        if mailbox not in mailbox_features:
            box_rng = np.random.default_rng(abs(hash(mailbox)) % 2**32)
            mailbox_features[mailbox] = {
                int(row): 1
                for row in box_rng.choice(SPAM_FEATURE_ROWS, size=EMAIL_FEATURES, replace=False)
            }
        return mailbox_features[mailbox]

    def replay(name, make_scheduler):
        # Each arm replays inside its own registry/tracer so the per-arm
        # decrypt batch-size distribution stays attributable; the spans are
        # re-recorded into the suite-level tracer under an arm-qualified
        # trace id, and the metrics fold into the suite-level registry so
        # the telemetry artifact covers every arm.
        with scoped_telemetry() as (registry, tracer):
            clock = VirtualClock()
            runtime = ProviderRuntime(scheduler=make_scheduler(clock))
            report = serve_trace(
                runtime,
                events,
                lambda event: spam_job(
                    protocol, setup, features_of(event.mailbox), label=event.sender
                ),
                clock,
                replay_guard=ReplayGuard(),
                cost_model=cost_model,
            )
            summary = report.summary()
            batch_hist = registry.histogram("decrypt_batch_ciphertexts")
            summary["p95_decrypt_batch_registry"] = (
                batch_hist.percentile(95.0) if batch_hist.count else 0.0
            )
            arm_spans = tracer.snapshot()
            arm_snapshot = registry.snapshot()
        outer_tracer = get_tracer()
        for span in arm_spans:
            outer_tracer.record(
                f"{name}/{span['trace_id']}",
                span["name"],
                span["start_seconds"],
                span["end_seconds"],
                category=span["category"],
                **span["meta"],
            )
        get_registry().merge_snapshot(arm_snapshot)
        return summary

    arms = [
        (
            f"static{int(delay * 1000)}ms",
            lambda clock, delay=delay: DecryptScheduler(
                window_bursts=10**9,
                max_pending_ciphertexts=LATENCY_TARGET_BATCH,
                max_delay_seconds=delay,
                clock=clock,
            ),
        )
        for delay in LATENCY_STATIC_DELAYS_S
    ]
    arms.append(
        (
            "adaptive",
            lambda clock: AdaptiveDecryptScheduler(
                min_delay_seconds=LATENCY_MIN_DELAY_S,
                max_delay_seconds=max(LATENCY_STATIC_DELAYS_S),
                target_batch_ciphertexts=LATENCY_TARGET_BATCH,
                clock=clock,
            ),
        )
    )

    results: dict[str, float] = {
        "latency_events": float(len(events)),
        "latency_email_cost_ms": email_cost_s * 1e3,
        "latency_batch_overhead_ms": cost_per_batch * 1e3,
        "latency_marginal_email_cost_ms": cost_per_item * 1e3,
        "latency_trace_mean_rate_per_s": mean_rate,
        "latency_trace_duration_s": duration,
    }
    summaries: dict[str, dict[str, float]] = {}
    for name, make_scheduler in arms:
        summary = summaries[name] = replay(name, make_scheduler)
        for row in ("p50", "p95", "p99", "mean"):
            results[f"latency_{name}_{row}_ms"] = summary[f"latency_{row}"] * 1e3
        results[f"latency_{name}_throughput_per_cpu_s"] = summary["throughput_per_cpu_second"]
        results[f"latency_{name}_mean_decrypt_batch"] = summary["mean_decrypt_batch"]
        results[f"latency_{name}_p95_decrypt_batch"] = summary["p95_decrypt_batch_registry"]
    served = {summary["served"] for summary in summaries.values()}
    rejected = {summary["rejected_duplicates"] for summary in summaries.values()}
    if len(served) != 1 or len(rejected) != 1:
        raise AssertionError(
            f"arms disagree on the workload: served {served}, rejected {rejected}"
        )
    results["latency_rejected_duplicates"] = rejected.pop()

    static_names = [name for name, _ in arms if name != "adaptive"]
    best_static = min(static_names, key=lambda name: summaries[name]["latency_p99"])
    adaptive_p99 = summaries["adaptive"]["latency_p99"]
    best_static_p99 = summaries[best_static]["latency_p99"]
    results["latency_best_static_arm_p99_ms"] = best_static_p99 * 1e3
    # The suite's reason to exist: adaptive windows must dominate the static
    # grid on tail latency, or the control loop is not earning its keep.
    if adaptive_p99 >= best_static_p99:
        raise AssertionError(
            f"adaptive p99 {adaptive_p99 * 1e3:.1f} ms did not beat the best static "
            f"arm ({best_static}: {best_static_p99 * 1e3:.1f} ms)"
        )
    return results


def main() -> None:
    parser = argparse.ArgumentParser(description=__doc__)
    parser.add_argument("--ring-degree", type=int, default=1024)
    parser.add_argument("--repeat", type=int, default=9, help="samples per op (median reported)")
    parser.add_argument(
        "--suite",
        choices=("runtime", "shard", "chaos", "latency", "fabric"),
        required=True,
        help=(
            "runtime = serving-loop throughput; "
            "shard = sharded serving stack vs the single-loop drive; "
            "chaos = goodput under seeded fault cocktails, reliable vs raw; "
            "latency = p50/p95/p99 email latency on a bursty trace, static vs adaptive windows; "
            "fabric = localhost-TCP shard fabric vs in-box sharded, with a live mid-stream migration"
        ),
    )
    parser.add_argument(
        "--output",
        type=Path,
        default=None,
        help="output JSON path (default benchmarks/BENCH_<suite>_n<degree>.json)",
    )
    args = parser.parse_args()
    if args.repeat < 1:
        parser.error("--repeat must be at least 1")
    output = args.output or Path(__file__).parent / f"BENCH_{args.suite}_n{args.ring_degree}.json"

    if args.suite == "runtime":
        results = run_runtime(args.ring_degree, args.repeat)
    elif args.suite == "chaos":
        results = run_chaos(args.ring_degree, args.repeat)
    elif args.suite == "latency":
        results = run_latency(args.ring_degree, args.repeat)
    elif args.suite == "fabric":
        results = run_fabric(args.ring_degree, args.repeat)
    else:
        results = run_shard(args.ring_degree, args.repeat)
    payload = {
        "meta": {
            "harness": "benchmarks/regress.py",
            "suite": args.suite,
            "ring_degree": args.ring_degree,
            "repeat": args.repeat,
            "spam_feature_rows": SPAM_FEATURE_ROWS,
            "email_features": EMAIL_FEATURES,
            "numpy": np.__version__,
            "python": platform.python_version(),
            "machine": platform.machine(),
            "timestamp_utc": datetime.now(timezone.utc).isoformat(timespec="seconds"),
        },
        "results": {name: round(value, 4) for name, value in results.items()},
    }
    output.write_text(json.dumps(payload, indent=2) + "\n")

    # Every suite leaves its flight recording beside the bench JSON:
    # <output>.telemetry.{prom,metrics.json,trace.json}.
    telemetry_prefix = output.with_suffix("").as_posix() + ".telemetry"
    artifact_paths = write_artifacts(
        telemetry_prefix, get_registry().snapshot(), get_tracer().snapshot()
    )

    width = max(len(name) for name in results)
    print(f"{args.suite} suite (ring degree {args.ring_degree}, median of {args.repeat}):")
    for name, value in results.items():
        print(f"  {name.ljust(width)}  {value:10.3f}")
    print(f"wrote {output}")
    for path in artifact_paths:
        print(f"wrote {path}")


if __name__ == "__main__":
    main()
