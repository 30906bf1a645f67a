#!/usr/bin/env python3
"""The cross-host shard fabric: TCP agents, a control plane, live migration.

``sharded_serving.py`` forks its agents in this box onto socketpairs; here
the same shard driver and link reach agents over TCP, so shards can run on
remote hosts.
This example drives the three fabric layers on one machine:

1. **Worker agents** — two standalone processes, each serving one shard of
   the mailbox hash partition over a versioned control protocol (HELLO
   handshake, command/reply, heartbeats) straight over TCP, each frame
   checked by its CRC32;
2. **The control plane** — the shard driver over one ``TcpLink`` per
   agent: it replays registrations, routes emails by stable mailbox hash,
   and aggregates the metrics snapshot each agent's replies carry, beside
   the results it counts, fold-once;
3. **Live shard migration** — mid-stream, with decrypt windows still open,
   agent 0's whole hash range is checkpointed, restored onto a freshly
   spawned third process and retired — zero emails resubmitted, verdicts
   unchanged, every email counted on exactly one agent.

Run with:  python examples/fabric_serving.py
"""

import time

from repro.classify.model import QuantizedLinearModel
from repro.classify.naive_bayes import GrahamRobinsonNaiveBayes
from repro.core import PretzelConfig
from repro.datasets import lingspam_like, prepare_classification_data
from repro.fabric import launch_fabric, spawn_local_agent
from repro.twopc.spam import SpamFilterProtocol


def train_protocol(config):
    data = prepare_classification_data(
        lingspam_like(scale=0.25), boolean=True, max_features=1000
    )
    classifier = GrahamRobinsonNaiveBayes(num_features=data.num_features)
    classifier.fit(
        data.train_vectors, [1 if label == 1 else 0 for label in data.train_labels]
    )
    quantized = QuantizedLinearModel.from_linear_model(
        classifier.to_linear_model(),
        value_bits=config.value_bits,
        frequency_bits=config.frequency_bits,
    )
    protocol = SpamFilterProtocol(config.build_scheme(), config.build_group())
    return protocol, quantized, data.test_vectors


def _batches(metrics: dict) -> str:
    """One worker's decrypt batches, read from its metrics snapshot."""
    (batch,) = [h for h in metrics["histograms"] if h["name"] == "decrypt_batch_ciphertexts"]
    return f"{batch['count']} decrypt batches, {batch['sum']:.0f} ciphertexts"


def main() -> None:
    config = PretzelConfig.test()
    print("Training a GR-NB spam model ...")
    protocol, quantized, test_vectors = train_protocol(config)

    addresses = [f"user{i}@example.com" for i in range(4)]
    setups = {address: protocol.setup(quantized) for address in addresses}

    print("\nSpawning 2 fabric agents (own processes, reached only over TCP) ...")
    runtime, agents = launch_fabric(2, window_bursts=2)
    try:
        for agent in agents:
            print(f"  agent {agent.shard_index}: pid {agent.pid}, port {agent.port}")
        for address in addresses:
            runtime.register_spam(address, protocol, setups[address])
        partition = {address: runtime.shard_of(address) for address in addresses}
        print(f"  stable hash partition: {partition}")

        # A stream of email waves; the first wave's decrypt windows are still
        # open (2-burst scheduler) when the migration below fires.
        waves = [
            [
                (address, features)
                for address, features in zip(
                    addresses, test_vectors[start : start + 4]
                )
            ]
            for start in range(0, 12, 4)
        ]
        total = sum(len(wave) for wave in waves)

        start_time = time.perf_counter()
        job_ids = runtime.submit_spam(waves[0])
        print(
            f"\nWave 1 submitted: {runtime.outstanding_count()} emails inside "
            "open decrypt windows"
        )

        # -- live migration: agent 0's hash range moves to a fresh process ----
        spare = spawn_local_agent(shard_index=2)
        agents.append(spare)
        target = runtime.attach_worker(spare)
        moved = [slot for slot, owner in enumerate(runtime.slot_owners()) if owner == 0]
        resubmitted = runtime.migrate(0, target)
        print(
            f"Live migration: slot(s) {moved} checkpointed on agent 0, restored "
            f"on agent {target} (pid {spare.pid}) — {resubmitted} emails "
            "resubmitted, open windows carried over"
        )
        print(f"  slot owners now: {runtime.slot_owners()}, agent 0 retired")

        for wave in waves[1:]:
            job_ids += runtime.submit_spam(wave)
        runtime.drain()
        verdicts = [runtime.take_result(job_id).is_spam for job_id in job_ids]
        elapsed = time.perf_counter() - start_time

        merged = runtime.aggregated_metrics()
        served = sum(
            entry["value"]
            for entry in merged["counters"]
            if entry["name"] == "emails_served_total"
        )
        assert resubmitted == 0, "migration must carry every open window"
        assert served == total, "every email must be served on exactly one agent"

        spam_count = sum(1 for verdict in verdicts if verdict)
        print(f"\nStream of {total} emails in {len(waves)} waves over the fabric:")
        print(f"  throughput          : {total / elapsed:6.1f} emails/s (incl. migration)")
        print(f"  verdicts            : {spam_count} spam / {total - spam_count} ham")
        print(f"  emails_served_total : {served:.0f} (exactly-once across the handover)")
        for stats in runtime.shard_stats():
            print(
                f"  agent {stats['worker']}: {stats['mailboxes']} mailbox(es), "
                f"{_batches(stats['metrics'])}"
            )
    finally:
        runtime.close()
        for agent in agents:
            if agent.wait(timeout=10.0) is None:
                agent.kill()
    print("\nAll agents exited cleanly.")


if __name__ == "__main__":
    main()
