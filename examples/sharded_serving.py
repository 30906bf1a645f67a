#!/usr/bin/env python3
"""The sharded serving stack: worker shards and windowed decrypts.

Pretzel's deployability argument (§6.3) has a provider serving millions of
mailboxes.  This example drives the two layers this repository adds for
that scale (``fabric_serving.py`` runs the same shards as TCP agents):

1. **Shard worker processes** — mailboxes partition across a
   :class:`ShardedRuntime` by stable hash; each worker keeps its own warm
   :class:`MailboxDirectory` (encrypted-model stacks, per-pair OT pools);
2. **Windowed decrypt scheduling** — each worker's
   :class:`DecryptScheduler` accumulates parked provider decrypts *across*
   email waves before one ``decrypt_slots_many`` folds them, and a forced
   worker restart mid-window shows the parent recovering in-flight emails.

Run with:  python examples/sharded_serving.py
"""

import time

from repro.classify.naive_bayes import GrahamRobinsonNaiveBayes
from repro.classify.model import QuantizedLinearModel
from repro.core import PretzelConfig, ShardedRuntime
from repro.core.runtime import run_batch, zip_requests
from repro.datasets import lingspam_like, prepare_classification_data
from repro.twopc.spam import SpamFilterProtocol


def train_protocol(config):
    data = prepare_classification_data(
        lingspam_like(scale=0.25), boolean=True, max_features=1000
    )
    classifier = GrahamRobinsonNaiveBayes(num_features=data.num_features)
    classifier.fit(data.train_vectors, [1 if label == 1 else 0 for label in data.train_labels])
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

    # -- shard workers with windowed decrypt scheduling ----------------------
    waves = [
        [(address, features) for address, features in zip(addresses, test_vectors[start : start + 4])]
        for start in range(0, 12, 4)
    ]
    total = sum(len(wave) for wave in waves)

    print(f"\nRegistering {len(addresses)} mailboxes across 4 shard workers ...")
    with ShardedRuntime(num_shards=4, window_bursts=2) as runtime:
        for address in addresses:
            runtime.register_spam(address, protocol, setups[address])
        partition = {address: runtime.shard_of(address) for address in addresses}
        print(f"  stable hash partition: {partition}")

        start = time.perf_counter()
        sharded_results = runtime.run_spam_stream(waves)
        sharded_seconds = time.perf_counter() - start

        # Forced mid-window restart: emails in the open window re-run cleanly.
        ids = runtime.submit_spam([(addresses[0], test_vectors[12])])
        resubmitted = runtime.restart_shard(runtime.shard_of(addresses[0]))
        runtime.drain()
        restarted_verdict = runtime.take_result(ids[0]).is_spam
        print(
            f"  forced shard restart mid-window: {resubmitted} in-flight email(s) "
            f"resubmitted, verdict recovered ({'spam' if restarted_verdict else 'ham'})"
        )
        stats = runtime.shard_stats()

    # The PR 2 single-loop drive over the same waves (fresh handshakes/burst).
    start = time.perf_counter()
    singleloop_verdicts = []
    for wave in waves:
        by_mailbox = {}
        for address, features in wave:
            by_mailbox.setdefault(address, []).append(features)
        for address, feature_sets in by_mailbox.items():
            singleloop_verdicts += [
                result.is_spam
                for result in run_batch(protocol, setups[address], zip_requests(feature_sets))
            ]
        # (verdict order differs from the stream order; only rates compare)
    singleloop_seconds = time.perf_counter() - start

    sharded_verdicts = [result.is_spam for result in sharded_results]
    assert sorted(sharded_verdicts) == sorted(singleloop_verdicts), "outputs diverged"

    print(f"\nStream of {total} emails in {len(waves)} waves over {len(addresses)} mailboxes:")
    print(f"  single-loop drive    : {total / singleloop_seconds:6.1f} emails/s")
    print(f"  sharded (4 workers)  : {total / sharded_seconds:6.1f} emails/s")
    for shard, stat in enumerate(stats):
        print(
            f"  shard {shard}: {stat['mailboxes']} mailbox(es), "
            f"{_batches(stat['metrics'])}"
        )
    spam_count = sum(1 for verdict in sharded_verdicts if verdict)
    print(f"  verdicts             : {spam_count} spam / {total - spam_count} ham")


if __name__ == "__main__":
    main()
