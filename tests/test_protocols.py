"""Integration tests for the spam-filtering and topic-extraction protocols."""

import pickle
from dataclasses import replace

import pytest

from repro.exceptions import ProtocolAbort, ProtocolError
from repro.twopc.noprv import NoPrivClassifier
from repro.twopc.spam import SpamFilterProtocol
from repro.twopc.topics import TopicExtractionProtocol
from repro.twopc.wire import GarbledCircuitFrame, WireCodec


@pytest.fixture(scope="module")
def spam_setup(bv_scheme, dh_group, small_spam_model):
    protocol = SpamFilterProtocol(bv_scheme, dh_group, across_row_packing=True)
    return protocol, protocol.setup(small_spam_model)


@pytest.fixture(scope="module")
def topic_setup(bv_scheme, dh_group, small_topic_model):
    protocol = TopicExtractionProtocol(bv_scheme, dh_group)
    return protocol, protocol.setup(small_topic_model)


SPAM_TEST_EMAILS = [
    {1: 1, 5: 1, 9: 1},
    {100: 1, 150: 1, 199: 1, 42: 1},
    {0: 1},
    {i: 1 for i in range(0, 200, 7)},
]

TOPIC_TEST_EMAILS = [
    {2: 1, 3: 2, 77: 1},
    {150: 4, 151: 1, 10: 2},
    {i: 1 for i in range(0, 200, 11)},
]


class TestSpamProtocol:
    @pytest.mark.parametrize("features", SPAM_TEST_EMAILS)
    def test_verdict_matches_plaintext_classification(self, spam_setup, small_spam_model, features):
        protocol, setup = spam_setup
        result = protocol.classify_email(setup, features)
        assert result.is_spam == small_spam_model.predict_is_spam(features)

    def test_cost_accounting_is_populated(self, spam_setup):
        protocol, setup = spam_setup
        result = protocol.classify_email(setup, SPAM_TEST_EMAILS[0])
        assert result.provider_seconds > 0
        assert result.client_seconds > 0
        assert result.network_bytes >= setup.encrypted_model.scheme.ciphertext_size_bytes()
        assert result.yao_and_gates > 0

    def test_channel_is_drained(self, spam_setup):
        protocol, setup = spam_setup
        channel = protocol.make_channel(setup, name="spam-test")
        protocol.classify_email(setup, SPAM_TEST_EMAILS[1], channel=channel)
        assert channel.pending() == 0

    def test_network_bytes_equal_serialized_frame_lengths(self, spam_setup):
        # Acceptance: reported network_bytes is the sum of the actual
        # serialized frame lengths on the transport — no estimator anywhere.
        protocol, setup = spam_setup
        channel = protocol.make_channel(setup, name="spam-exact")
        result = protocol.classify_email(setup, SPAM_TEST_EMAILS[0], channel=channel)
        frame_log = channel.transport.frame_log
        assert result.network_bytes == sum(size for _, size in frame_log)
        assert result.network_messages == len(frame_log)
        assert result.network_rounds >= 2

    def test_client_storage_reported(self, spam_setup):
        _, setup = spam_setup
        assert setup.client_storage_bytes() == setup.encrypted_model.storage_bytes() > 0

    def test_rejects_non_binary_model(self, bv_scheme, dh_group, small_topic_model):
        protocol = SpamFilterProtocol(bv_scheme, dh_group)
        with pytest.raises(ProtocolError):
            protocol.setup(small_topic_model)

    def test_out_of_vocabulary_features_are_ignored(self, spam_setup, small_spam_model):
        protocol, setup = spam_setup
        features = {5: 1, 10_000: 3}
        result = protocol.classify_email(setup, features)
        assert result.is_spam == small_spam_model.predict_is_spam({5: 1})

    def test_paillier_baseline_agrees_with_pretzel(self, paillier_scheme, dh_group, bv_scheme, small_spam_model):
        baseline = SpamFilterProtocol(paillier_scheme, dh_group, across_row_packing=False)
        pretzel = SpamFilterProtocol(bv_scheme, dh_group, across_row_packing=True)
        baseline_setup = baseline.setup(small_spam_model)
        pretzel_setup = pretzel.setup(small_spam_model)
        features = SPAM_TEST_EMAILS[3]
        assert (
            baseline.classify_email(baseline_setup, features).is_spam
            == pretzel.classify_email(pretzel_setup, features).is_spam
        )

    def test_across_row_packing_reduces_storage(self, bv_scheme, dh_group, small_spam_model):
        pretzel = SpamFilterProtocol(bv_scheme, dh_group, across_row_packing=True)
        no_pack = SpamFilterProtocol(bv_scheme, dh_group, across_row_packing=False)
        assert (
            pretzel.setup(small_spam_model).client_storage_bytes()
            < no_pack.setup(small_spam_model).client_storage_bytes() / 10
        )


class TestTopicProtocol:
    @pytest.mark.parametrize("features", TOPIC_TEST_EMAILS)
    def test_full_candidate_set_matches_plaintext_argmax(self, topic_setup, small_topic_model, features):
        protocol, setup = topic_setup
        result = protocol.extract_topic(setup, features, candidate_topics=None)
        assert result.extracted_topic == small_topic_model.predict(features)

    @pytest.mark.parametrize("features", TOPIC_TEST_EMAILS)
    def test_decomposed_with_true_topic_in_candidates(self, topic_setup, small_topic_model, features):
        protocol, setup = topic_setup
        truth = small_topic_model.predict(features)
        candidates = sorted({truth, 0, 1, 2, 3})
        result = protocol.extract_topic(setup, features, candidate_topics=candidates)
        assert result.extracted_topic == truth
        assert result.candidates_used == len(candidates)

    def test_decomposed_without_true_topic_picks_best_candidate(self, topic_setup, small_topic_model):
        protocol, setup = topic_setup
        features = TOPIC_TEST_EMAILS[0]
        scores = small_topic_model.integer_scores(features)
        truth = int(scores.argmax())
        candidates = [index for index in range(small_topic_model.num_categories) if index != truth][:4]
        result = protocol.extract_topic(setup, features, candidate_topics=candidates)
        best_candidate = max(candidates, key=lambda index: scores[index])
        assert result.extracted_topic == best_candidate

    def test_decomposition_reduces_network_and_yao(self, topic_setup):
        protocol, setup = topic_setup
        features = TOPIC_TEST_EMAILS[1]
        full = protocol.extract_topic(setup, features, candidate_topics=None)
        pruned = protocol.extract_topic(setup, features, candidate_topics=[0, 1, 2])
        assert pruned.yao_and_gates < full.yao_and_gates
        assert pruned.candidates_used < full.candidates_used

    def test_duplicate_candidates_are_deduplicated(self, topic_setup, small_topic_model):
        protocol, setup = topic_setup
        features = TOPIC_TEST_EMAILS[2]
        truth = small_topic_model.predict(features)
        result = protocol.extract_topic(setup, features, candidate_topics=[truth, truth, 0, 0])
        assert result.candidates_used == 2
        assert result.extracted_topic == truth

    def test_empty_candidate_list_rejected(self, topic_setup):
        protocol, setup = topic_setup
        with pytest.raises(ProtocolError):
            protocol.extract_topic(setup, {0: 1}, candidate_topics=[])

    def test_out_of_range_candidate_rejected(self, topic_setup, small_topic_model):
        protocol, setup = topic_setup
        with pytest.raises(ProtocolError):
            protocol.extract_topic(setup, {0: 1}, candidate_topics=[small_topic_model.num_categories])

    def test_paillier_cannot_do_decomposed_extraction(self, paillier_scheme, dh_group, small_topic_model):
        protocol = TopicExtractionProtocol(paillier_scheme, dh_group)
        setup = protocol.setup(small_topic_model, across_row_packing=False)
        with pytest.raises(ProtocolError):
            protocol.extract_topic(setup, {0: 1}, candidate_topics=[0, 1])

    def test_paillier_full_extraction_agrees(self, paillier_scheme, dh_group, small_topic_model):
        protocol = TopicExtractionProtocol(paillier_scheme, dh_group)
        setup = protocol.setup(small_topic_model, across_row_packing=False)
        features = TOPIC_TEST_EMAILS[0]
        result = protocol.extract_topic(setup, features, candidate_topics=None)
        assert result.extracted_topic == small_topic_model.predict(features)


def _resize_decode_tables_in_transit(monkeypatch, change):
    """Re-size the decode table of every garbled-circuit frame a channel delivers."""
    original, tampered = WireCodec.decode, []

    def decode(self, data):
        frame = original(self, data)
        if isinstance(frame, GarbledCircuitFrame):
            digests = change(frame.tables.output_decode)
            frame = replace(frame, tables=replace(frame.tables, output_decode=digests))
            tampered.append(frame)
        return frame

    monkeypatch.setattr(WireCodec, "decode", decode)
    return tampered


DECODE_TABLE_CHANGES = {
    "short": lambda digests: digests[:-1],
    "empty": lambda digests: [],
    "long": lambda digests: digests + digests[:1],
}


class TestMisSizedDecodeTable:
    """A decode table was zipped against the outputs: a short one was truncated.

    The topic provider then decoded ``bits_to_int([]) = 0`` — a wrong topic and
    no error — and the spam client hit a raw ``IndexError``.
    """

    @pytest.mark.parametrize("change", sorted(DECODE_TABLE_CHANGES))
    def test_spam_client_aborts(self, spam_setup, monkeypatch, change):
        protocol, setup = spam_setup
        tampered = _resize_decode_tables_in_transit(monkeypatch, DECODE_TABLE_CHANGES[change])
        with pytest.raises(ProtocolAbort, match="decode table"):
            protocol.classify_email(setup, SPAM_TEST_EMAILS[0])
        assert len(tampered) == 1 and tampered[0].decode_at_evaluator

    @pytest.mark.parametrize("change", sorted(DECODE_TABLE_CHANGES))
    def test_topic_provider_aborts(self, topic_setup, small_topic_model, monkeypatch, change):
        protocol, setup = topic_setup
        features = TOPIC_TEST_EMAILS[0]
        truth = small_topic_model.predict(features)
        candidates = sorted({truth, 0, 1, 2})
        assert protocol.extract_topic(setup, features, candidates).extracted_topic == truth
        tampered = _resize_decode_tables_in_transit(monkeypatch, DECODE_TABLE_CHANGES[change])
        with pytest.raises(ProtocolAbort, match="decode table"):
            protocol.extract_topic(setup, features, candidates)
        assert len(tampered) == 1 and tampered[0].decode_at_evaluator


class TestRegistrationPickle:
    """A protocol object is what ``register_*`` ships to every worker and agent."""

    def test_a_used_protocol_pickles_like_a_fresh_one(
        self, spam_setup, topic_setup, bv_scheme, dh_group
    ):
        # Circuits are shared per shape at module level, not cached on the
        # protocol: the instance-level cache rode along in every registration
        # (18 161 bytes for a used spam protocol, 143 602 for topics at B = 10).
        spam_protocol, spam = spam_setup
        topic_protocol, topics = topic_setup
        spam_protocol.classify_email(spam, SPAM_TEST_EMAILS[0])
        topic_protocol.extract_topic(topics, TOPIC_TEST_EMAILS[0])
        for used, fresh in (
            (spam_protocol, SpamFilterProtocol(bv_scheme, dh_group)),
            (topic_protocol, TopicExtractionProtocol(bv_scheme, dh_group)),
        ):
            assert len(pickle.dumps(used)) == len(pickle.dumps(fresh)) < 1024
            assert not any("circuit" in name for name in vars(used))


class TestNoPriv:
    def test_matches_linear_model_prediction(self, small_topic_model):
        from repro.classify.model import LinearModel
        import numpy as np

        # Rebuild a float model matching the quantized one closely enough that
        # the argmax agrees on an easy input.
        weights = small_topic_model.matrix[:-1].astype(float)
        biases = small_topic_model.matrix[-1].astype(float)
        model = LinearModel(weights=weights, biases=biases, category_names=small_topic_model.category_names)
        classifier = NoPrivClassifier(model)
        features = {3: 2, 10: 1}
        result = classifier.classify(features)
        assert result.predicted_category == small_topic_model.predict(features)
        assert result.provider_seconds >= 0
        assert result.features_used == 2

    def test_is_spam_wrapper(self, small_spam_model):
        from repro.classify.model import LinearModel

        weights = small_spam_model.matrix[:-1].astype(float)
        biases = small_spam_model.matrix[-1].astype(float)
        model = LinearModel(weights=weights, biases=biases, category_names=["spam", "ham"])
        classifier = NoPrivClassifier(model)
        features = {5: 1, 7: 1}
        is_spam, seconds = classifier.classify_is_spam(features)
        assert is_spam == small_spam_model.predict_is_spam(features)
        assert seconds >= 0
