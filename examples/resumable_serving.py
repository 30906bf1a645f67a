#!/usr/bin/env python3
"""Resumable sessions: checkpoint open decrypt windows, survive a SIGKILL.

A deployed Pretzel provider (§6.3) restarts worker processes all the time —
deploys, OOM kills, machine loss.  Before session persistence, a killed
worker's in-flight emails were *recomputed* from their features; now every
party machine snapshots to a typed, versioned
:class:`~repro.twopc.wire.SessionState` record, workers checkpoint their open
decrypt windows to a :class:`~repro.core.runtime.FileSessionStore` at each
burst boundary, and a replacement worker **resumes** the parked sessions —
no dot products, blinding, or OT handshakes re-run.

The same records carry a *client* across a lost connection: a phone whose
decrypt is parked in the provider's open window goes offline holding its
snapshot, and resumes on a fresh channel when it comes back.

This walkthrough:

1. serializes one live mid-window session pair to bytes and restores it in a
   fresh serving loop (the in-process view of the contract);
2. disconnects a client mid-protocol, carries its snapshot away, reconnects
   it on a fresh channel and drains it to the same verdict — zero
   resubmissions;
3. SIGKILLs a shard worker with an open window and lets ``restart_shard``
   resume from the on-disk checkpoint, comparing recovery against the
   recompute fallback;
4. verifies every recovery produces verdicts bit-identical to an
   uninterrupted run.

Run with:  python examples/resumable_serving.py
"""

import os
import signal
import tempfile
import time

from repro.classify.model import QuantizedLinearModel
from repro.classify.naive_bayes import GrahamRobinsonNaiveBayes
from repro.core import PretzelConfig, ShardedRuntime
from repro.core.runtime import (
    DecryptScheduler,
    MailboxDirectory,
    ProviderRuntime,
    checkpoint_open_windows,
    restore_open_windows,
    session_job,
)
from repro.datasets import lingspam_like, prepare_classification_data
from repro.twopc.spam import SpamClientSession, SpamFilterProtocol
from repro.twopc.wire import SessionState


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


def snapshot_roundtrip(protocol, setup, emails, truth):
    """Park sessions mid-window, serialize them, resume in a fresh loop."""
    print("== 1. snapshot/restore one open decrypt window in-process ==")
    directory = MailboxDirectory()
    directory.register_spam("alice@example.com", protocol, setup)
    runtime = ProviderRuntime(scheduler=DecryptScheduler(window_bursts=100))
    jobs = [
        session_job(protocol, setup, (features,), label=index,
                    ot_pool=directory.pool_of("spam", "alice@example.com"))
        for index, features in enumerate(emails)
    ]
    runtime.serve_burst(jobs)  # everything parks inside the open window
    context = {job.label: ("spam", "alice@example.com") for job in jobs}
    blob = checkpoint_open_windows(runtime, directory, context)
    print(f"   {len(jobs)} parked sessions -> {len(blob)} checkpoint bytes")

    # A "fresh process": new directory, new loop, state only from bytes.
    fresh = MailboxDirectory()
    fresh.register_spam("alice@example.com", protocol, setup)
    restored = restore_open_windows(blob, fresh)
    runtime2 = ProviderRuntime(scheduler=DecryptScheduler(window_bursts=100))
    runtime2.serve_burst([job for _, _, _, job in restored])
    finished = runtime2.drain()
    verdicts = {job.label: job.client.is_spam for job in finished}
    resumed = [verdicts[index] for index in range(len(emails))]
    print(f"   resumed verdicts match uninterrupted run: {resumed == truth}")
    assert resumed == truth


def disconnect_and_reconnect(protocol, setup, features, verdict):
    """A client goes offline mid-protocol, then resumes on a fresh channel."""
    print("== 2. disconnect a client mid-protocol, reconnect, resume ==")
    pool = protocol.make_ot_pool(setup)
    runtime = ProviderRuntime(scheduler=DecryptScheduler(window_bursts=100))
    job = session_job(protocol, setup, (features,), label="phone-1", ot_pool=pool)
    runtime.serve_burst([job])  # parks in the open decrypt window
    blob = runtime.disconnect_job("phone-1").to_bytes()
    print(f"   disconnected: the provider holds the parked decrypt, "
          f"the client carries a {len(blob)}-byte SessionState snapshot")

    client = SpamClientSession.restore(
        protocol, setup, SessionState.from_bytes(blob), ot_pool=pool
    )
    runtime.reconnect_job("phone-1", protocol.make_channel(setup, name="reconnect"), client)
    resumed = runtime.drain()[0].client.is_spam
    print(f"   reconnected and drained: is_spam={resumed} "
          f"(matches uninterrupted run: {resumed == verdict}, zero resubmissions)")
    assert resumed == verdict


def crash_and_recover(protocol, setup, emails, truth, checkpoint_dir):
    """SIGKILL a worker mid-window; resume (or recompute) and compare."""
    results = {}
    for arm, directory in (("recompute", None), ("resume", checkpoint_dir)):
        with ShardedRuntime(
            num_shards=1, window_bursts=100, checkpoint_dir=directory
        ) as runtime:
            runtime.register_spam("alice@example.com", protocol, setup)
            job_ids = runtime.submit_spam(
                [("alice@example.com", features) for features in emails]
            )
            os.kill(runtime.worker_pid(0), signal.SIGKILL)
            runtime.join_worker(0)
            begin = time.perf_counter()
            resubmitted = runtime.restart_shard(0)
            runtime.drain()
            recovery_ms = (time.perf_counter() - begin) * 1e3
            verdicts = [runtime.take_result(job_id).is_spam for job_id in job_ids]
        assert verdicts == truth, f"{arm} recovery diverged from the honest run"
        results[arm] = (recovery_ms, resubmitted)
        print(
            f"   {arm:9s}: {recovery_ms:7.1f} ms recovery, "
            f"{resubmitted} emails resubmitted"
        )
    return results


def main():
    config = PretzelConfig.test()
    protocol, quantized, test_vectors = train_protocol(config)
    setup = protocol.setup(quantized)
    emails = test_vectors[:4]
    truth = [protocol.classify_email(setup, features).is_spam for features in emails]
    print(f"baseline verdicts (uninterrupted): {truth}\n")

    snapshot_roundtrip(protocol, setup, emails, truth)
    print()
    disconnect_and_reconnect(protocol, setup, emails[0], truth[0])

    print("\n== 3. SIGKILL a shard worker mid-window, recover both ways ==")
    with tempfile.TemporaryDirectory() as checkpoint_dir:
        results = crash_and_recover(protocol, setup, emails, truth, checkpoint_dir)
    resume_ms, resubmitted = results["resume"]
    recompute_ms, _ = results["recompute"]
    print(
        f"\nresume recovered {len(emails)} in-flight emails from SessionState "
        f"snapshots ({resubmitted} recomputed), "
        f"{recompute_ms / resume_ms:.1f}x faster than recomputing"
    )


if __name__ == "__main__":
    main()
