"""Serving-loop tests: interleaved sessions, batched decrypts, OT pooling.

The concurrency satellite of the runtime refactor: N sessions interleaved
over loopback transports must produce exactly the outputs of N sequential
runs, while the provider's decrypts collapse into one batched
``decrypt_slots_many`` call per key pair and the Yao OTs of pooled sessions
extend a single per-pair base-OT handshake.
"""

import pytest

from repro.core.runtime import (
    MailboxDirectory,
    ProviderRuntime,
    ShardWorkerCore,
    run_batch,
    session_job,
    zip_requests,
)
from repro.crypto.ot import (
    TRANSFER_INDEX_LIMIT,
    initialize_ot_pool,
    make_ot_receiver,
    make_ot_sender,
)
from repro.exceptions import OTError, ProtocolError
from repro.obs import MetricsRegistry, scoped_registry
from repro.twopc import spam as spam_module
from repro.twopc.noprv import NoPrivClassifier, run_noprv_session
from repro.twopc.session import run_session_pair
from repro.twopc.spam import SpamFilterProtocol
from repro.twopc.topics import TopicExtractionProtocol
from repro.twopc.transport import FramedChannel

from oracles import ObliviousTransfer, pending_frames

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
    {i: 1 for i in range(0, 200, 11)},
    {40: 2, 41: 1},
]


@pytest.fixture(scope="module")
def spam_setup(bv_scheme, dh_group, small_spam_model):
    protocol = SpamFilterProtocol(bv_scheme, dh_group)
    return protocol, protocol.setup(small_spam_model)


@pytest.fixture(scope="module")
def topic_setup(bv_scheme, dh_group, small_topic_model):
    protocol = TopicExtractionProtocol(bv_scheme, dh_group)
    return protocol, protocol.setup(small_topic_model)


class TestConcurrentEqualsSequential:
    def test_spam_interleaved_matches_sequential(self, spam_setup, small_spam_model):
        protocol, setup = spam_setup
        sequential = [
            protocol.classify_email(setup, features).is_spam for features in SPAM_EMAILS
        ]
        runtime = ProviderRuntime()
        concurrent = run_batch(protocol, setup, zip_requests(SPAM_EMAILS), runtime=runtime)
        assert [result.is_spam for result in concurrent] == sequential
        assert sequential == [
            small_spam_model.predict_is_spam(features) for features in SPAM_EMAILS
        ]
        # All six provider decrypts ran as one cross-session batch.
        assert runtime.decrypt_batch_sizes == [
            len(SPAM_EMAILS) * setup.encrypted_model.result_ciphertext_count()
        ]

    def test_topic_interleaved_matches_sequential(self, topic_setup, small_topic_model):
        protocol, setup = topic_setup
        truths = [small_topic_model.predict(features) for features in TOPIC_EMAILS]
        candidate_lists = [sorted({truth, 0, 1, 2}) for truth in truths] + [None]
        emails = TOPIC_EMAILS + [TOPIC_EMAILS[0]]
        sequential = [
            protocol.extract_topic(setup, features, candidate_topics=candidates).extracted_topic
            for features, candidates in zip(emails, candidate_lists)
        ]
        runtime = ProviderRuntime()
        concurrent = run_batch(
            protocol, setup, zip_requests(emails, candidate_lists), runtime=runtime
        )
        assert [result.extracted_topic for result in concurrent] == sequential
        assert sequential[: len(truths)] == truths
        assert len(runtime.decrypt_batch_sizes) == 1

    def test_batch_results_account_exact_bytes(self, spam_setup, topic_setup, sent_frame_sizes):
        spam_protocol, s_setup = spam_setup
        topic_protocol, t_setup = topic_setup
        runtime = ProviderRuntime()
        jobs = [
            session_job(spam_protocol, s_setup, (features,), label=index)
            for index, features in enumerate(SPAM_EMAILS[:3])
        ]
        jobs.append(session_job(topic_protocol, t_setup, (TOPIC_EMAILS[0], [0, 1, 2]), label="t"))
        sizes = [sent_frame_sizes(job.channel) for job in jobs]
        runtime.run(jobs)
        for job, sent in zip(jobs, sizes):
            assert sent
            assert job.channel.total_bytes() == sum(sent)
            assert job.channel.total_messages() == len(sent)
            assert pending_frames(job.channel) == 0


class TestMultiUserBatching:
    def test_decrypts_group_by_keypair(self, bv_scheme, dh_group, small_spam_model):
        protocol = SpamFilterProtocol(bv_scheme, dh_group)
        setup_a = protocol.setup(small_spam_model)
        setup_b = protocol.setup(small_spam_model)
        runtime = ProviderRuntime()
        jobs = [
            session_job(protocol, setup_a, (SPAM_EMAILS[0],), label="a0"),
            session_job(protocol, setup_b, (SPAM_EMAILS[1],), label="b0"),
            session_job(protocol, setup_a, (SPAM_EMAILS[2],), label="a1"),
            session_job(protocol, setup_b, (SPAM_EMAILS[3],), label="b1"),
        ]
        runtime.run(jobs)
        # Two mailboxes -> two batched decrypts (one per key pair), each
        # covering that mailbox's two concurrent sessions.
        per_email = setup_a.encrypted_model.result_ciphertext_count()
        assert sorted(runtime.decrypt_batch_sizes) == [2 * per_email, 2 * per_email]
        for job, features in zip(jobs, SPAM_EMAILS[:4]):
            assert job.client.is_spam == small_spam_model.predict_is_spam(features)

    def test_mailbox_directory_serves_spam_and_topics(
        self, bv_scheme, dh_group, small_spam_model, small_topic_model
    ):
        directory = MailboxDirectory()
        spam_protocol = SpamFilterProtocol(bv_scheme, dh_group)
        topic_protocol = TopicExtractionProtocol(bv_scheme, dh_group)
        directory.register_spam("bob@example.com", spam_protocol, spam_protocol.setup(small_spam_model))
        directory.register_topics("bob@example.com", topic_protocol, topic_protocol.setup(small_topic_model))
        assert directory.mailbox_count() == 1
        jobs = directory.spam_jobs("bob@example.com", SPAM_EMAILS[:2])
        jobs += directory.topic_jobs("bob@example.com", TOPIC_EMAILS[:1])
        runtime = ProviderRuntime()
        runtime.run(jobs)
        assert jobs[0].client.is_spam == small_spam_model.predict_is_spam(SPAM_EMAILS[0])
        assert jobs[1].client.is_spam == small_spam_model.predict_is_spam(SPAM_EMAILS[1])
        assert jobs[2].provider.extracted_topic == small_topic_model.predict(TOPIC_EMAILS[0])

    def test_ragged_request_columns_are_refused(self, topic_setup):
        # A plain zip would serve one email of three and drop the rest silently.
        protocol, setup = topic_setup
        directory = MailboxDirectory()
        directory.register_topics("carol@example.com", protocol, setup, build_pool=False)
        with pytest.raises(ProtocolError, match="3 emails but 1"):
            directory.topic_jobs("carol@example.com", TOPIC_EMAILS[:3], [[0, 1, 2]])
        with pytest.raises(ProtocolError, match="3 emails but 4"):
            zip_requests(TOPIC_EMAILS[:3], [None] * 4)
        defaulted = zip_requests(TOPIC_EMAILS[:2], None)
        assert defaulted == [(TOPIC_EMAILS[0], None), (TOPIC_EMAILS[1], None)]


class TestOtPooling:
    def test_pooled_extension_matches_choices(self, dh_group):
        pool = initialize_ot_pool(dh_group)
        pairs = [(bytes([i]) * 16, bytes([i + 100]) * 16) for i in range(12)]
        choices = [i % 2 for i in range(12)]
        for batch in range(3):  # repeated batches advance the global indices
            channel = FramedChannel.loopback("pooled-ot", parties=("sender", "receiver"))
            sender = make_ot_sender(dh_group, pairs, "iknp", pool=pool)
            receiver = make_ot_receiver(dh_group, choices, "iknp", pool=pool)
            run_session_pair(channel, {"sender": sender, "receiver": receiver})
            assert receiver.result == [pair[choice] for pair, choice in zip(pairs, choices)]
            # No base-OT frames on the wire: two frames, one round trip.
            assert channel.total_messages() == 2
        assert pool.receiver_state.next_index == 3 * len(pairs)
        assert pool.sender_state.next_index == 3 * len(pairs)

    def test_pooled_spam_sessions_agree_with_fresh(self, spam_setup, small_spam_model):
        protocol, setup = spam_setup
        pool = protocol.make_ot_pool(setup)
        for features in SPAM_EMAILS[:3]:
            result = protocol.classify_email(setup, features, ot_pool=pool)
            assert result.is_spam == small_spam_model.predict_is_spam(features)

    def test_pooled_topic_sessions_agree_with_fresh(self, topic_setup, small_topic_model):
        protocol, setup = topic_setup
        pool = protocol.make_ot_pool(setup)
        truth = small_topic_model.predict(TOPIC_EMAILS[0])
        result = protocol.extract_topic(
            setup, TOPIC_EMAILS[0], candidate_topics=[truth, 0, 1], ot_pool=pool
        )
        assert result.extracted_topic == truth

    @pytest.mark.parametrize("path", ["directory", "worker"])
    def test_a_pool_out_of_transfer_indices_is_replaced_by_one_handshake(
        self, path, spam_setup, small_spam_model, monkeypatch
    ):
        # The frame's start_index is a u32: 16 M topic emails of one pair reach
        # it.  Ten indices from the end, a spam email (one transfer per input bit of
        # the client: one dot_product_bits + 1 wide word) cannot start.
        protocol, setup = spam_setup
        address = "spent@example.com"
        emails = SPAM_EMAILS[:3]
        with scoped_registry(MetricsRegistry()):
            worker = ShardWorkerCore((1, None))
            directory = worker.directory
            directory.register_spam(address, protocol, setup)
            spent = directory.pool_of("spam", address)
            spent.receiver_state.next_index = TRANSFER_INDEX_LIMIT - 10
            spent.sender_state.claim(0, TRANSFER_INDEX_LIMIT - 10)
            ledger = spent.snapshot().to_bytes()
            # On its own the pool refuses, before reserving anything (the
            # codec used to fail after the range was gone, for good).
            with pytest.raises(OTError, match="run out"):
                ProviderRuntime().run([session_job(protocol, setup, (emails[0],), ot_pool=spent)])
            assert spent.snapshot().to_bytes() == ledger

            handshakes = []
            real_handshake = spam_module.initialize_ot_pool

            def counted_handshake(*arguments, **options):
                handshakes.append(1)
                return real_handshake(*arguments, **options)

            monkeypatch.setattr(spam_module, "initialize_ot_pool", counted_handshake)
            if path == "directory":
                jobs = directory.spam_jobs(address, emails)
                ProviderRuntime().run(jobs)
                verdicts = [job.client.is_spam for job in jobs]
            else:
                burst = [(index, "spam", address, (features,)) for index, features in enumerate(emails)]
                verb, (results, _metrics) = worker.handle("burst", burst)
                assert verb == "results"
                verdicts = [result.is_spam for _job_id, result in sorted(results)]
        assert verdicts == [small_spam_model.predict_is_spam(features) for features in emails]
        assert len(handshakes) == 1
        fresh = directory.pool_of("spam", address)
        assert fresh is not spent and fresh.receiver_state.next_index == (
            (small_spam_model.dot_product_bits + 1) * len(emails)
        )
        assert spent.snapshot().to_bytes() == ledger  # the old pool's ledger is untouched

    def test_one_shot_ot_still_works_alongside_pool(self, dh_group):
        # The stateless driver remains the baseline arrangement.
        pairs = [(b"A" * 16, b"B" * 16)] * 4
        received = ObliviousTransfer(dh_group, mode="iknp").run(None, pairs, [1, 0, 1, 0])
        assert received == [b"B" * 16, b"A" * 16, b"B" * 16, b"A" * 16]


class TestNoPrivSessions:
    def test_session_matches_direct_classification(self, small_topic_model):
        import numpy as np

        from repro.classify.model import LinearModel

        weights = small_topic_model.matrix[:-1].astype(float)
        biases = small_topic_model.matrix[-1].astype(float)
        model = LinearModel(
            weights=weights, biases=biases, category_names=small_topic_model.category_names
        )
        classifier = NoPrivClassifier(model)
        features = {3: 2, 10: 1}
        channel = FramedChannel.loopback("noprv")
        result, network_bytes = run_noprv_session(classifier, features, channel)
        assert result.predicted_category == classifier.classify(features).predicted_category
        assert network_bytes == channel.total_bytes()
        assert network_bytes > 0
        assert pending_frames(channel) == 0
