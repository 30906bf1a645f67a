#!/usr/bin/env python3
"""The multi-user provider serving loop: concurrent sessions, real frames.

A deployed Pretzel provider (§6.3) drains bursts of email protocol sessions,
not one synchronous call at a time.  This example shows the runtime layer
introduced for that:

1. every protocol message travels as a typed, versioned wire frame with a
   real codec, so network costs are exact serialized byte counts;
2. two mailboxes are registered in a :class:`MailboxDirectory` (encrypted
   models stacked once, per-pair OT extension handshake done once);
3. a burst of emails for both users runs as concurrent sessions through
   :class:`ProviderRuntime` — provider decrypts batch per key pair, and the
   burst's throughput is compared against one-shot sequential runs.

Run with:  python examples/multi_user_runtime.py
"""

import time

from repro.classify.naive_bayes import GrahamRobinsonNaiveBayes
from repro.classify.model import QuantizedLinearModel
from repro.core import MailboxDirectory, PretzelConfig, ProviderRuntime
from repro.datasets import lingspam_like, prepare_classification_data
from repro.twopc.spam import SpamFilterProtocol


def main() -> None:
    config = PretzelConfig.test()
    data = prepare_classification_data(lingspam_like(scale=0.25), boolean=True, max_features=1000)
    labels = [1 if label == 1 else 0 for label in data.train_labels]

    print("Training a GR-NB spam model ...")
    classifier = GrahamRobinsonNaiveBayes(num_features=data.num_features)
    classifier.fit(data.train_vectors, labels)
    quantized = QuantizedLinearModel.from_linear_model(
        classifier.to_linear_model(),
        value_bits=config.value_bits,
        frequency_bits=config.frequency_bits,
    )

    group = config.build_group()
    protocol = SpamFilterProtocol(config.build_scheme(), group)

    # -- per-mailbox registration: setup + model-row stacks + OT handshake ----
    print("Registering two mailboxes (model encryption + per-pair OT handshake) ...")
    directory = MailboxDirectory()
    for address in ("alice@example.com", "bob@example.com"):
        directory.register_spam(address, protocol, protocol.setup(quantized))

    emails = data.test_vectors[:8]
    alice_emails, bob_emails = emails[:4], emails[4:]

    # -- one session over a framed channel: the frames are genuine wire bytes -
    _, alice_setup = directory.protocol_of("spam", "alice@example.com")
    result = protocol.classify_email(
        alice_setup, alice_emails[0], channel=protocol.make_channel(alice_setup)
    )
    print(
        f"\nOne session over a framed channel: verdict={'spam' if result.is_spam else 'ham'}, "
        f"{result.network_bytes} bytes in {result.network_messages} frames "
        f"({result.network_rounds} rounds)"
    )

    # -- sequential baseline: one-shot sessions, fresh base OTs per email -----
    start = time.perf_counter()
    sequential = [
        protocol.classify_email(setup, features)
        for setup, batch in (
            (directory.protocol_of("spam", "alice@example.com")[1], alice_emails),
            (directory.protocol_of("spam", "bob@example.com")[1], bob_emails),
        )
        for features in batch
    ]
    sequential_seconds = time.perf_counter() - start

    # -- the serving loop: all 8 emails as concurrent sessions ----------------
    runtime = ProviderRuntime()
    jobs = directory.spam_jobs("alice@example.com", alice_emails)
    jobs += directory.spam_jobs("bob@example.com", bob_emails)
    start = time.perf_counter()
    runtime.run(jobs)
    concurrent_seconds = time.perf_counter() - start

    sequential_verdicts = [r.is_spam for r in sequential]
    concurrent_verdicts = [job.client.is_spam for job in jobs]
    assert concurrent_verdicts == sequential_verdicts, "interleaving changed the outputs"

    print(f"\nBurst of {len(jobs)} emails across {directory.mailbox_count()} mailboxes:")
    print(f"  sequential one-shots : {len(jobs) / sequential_seconds:6.1f} emails/s")
    print(f"  serving loop         : {len(jobs) / concurrent_seconds:6.1f} emails/s")
    print(f"  decrypt batches      : {runtime.decrypt_batch_sizes} ciphertexts "
          f"(one vectorised call per mailbox key pair)")
    example = jobs[0]
    print(f"  per-email network    : {example.channel.total_bytes()} bytes, "
          f"{example.channel.total_messages()} frames, {example.channel.rounds()} rounds")
    spam_count = sum(1 for verdict in concurrent_verdicts if verdict)
    print(f"  verdicts             : {spam_count} spam / {len(jobs) - spam_count} ham "
          f"(identical to sequential)")


if __name__ == "__main__":
    main()
