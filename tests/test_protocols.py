"""Integration tests for the spam-filtering and topic-extraction protocols."""

import pickle
from dataclasses import replace

import numpy as np
import pytest
from hypothesis import given, settings, strategies as st

from repro.classify.model import QuantizedLinearModel
from repro.core.runtime import ShardWorkerCore
from repro.crypto.packing import PackedLinearModel
from repro.exceptions import ClassifierError, ProtocolAbort, ProtocolError
from repro.obs import MetricsRegistry, scoped_registry
from repro.twopc.noprv import NoPrivClassifier
from repro.twopc.session import run_session_pair
from repro.twopc.spam import SpamFilterProtocol
from repro.twopc.topics import TopicExtractionProtocol
from repro.twopc.wire import GarbledCircuitFrame, WireCodec

from oracles import decrypt_dot_products, pending_frames


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

    @pytest.mark.parametrize("features", [{5.5: 1}, {5: 1.7}], ids=["row", "count"])
    def test_a_fractional_feature_is_refused_not_truncated(self, spam_setup, features):
        # The row was read as row 5 and gave a verdict; the count broke τ.
        protocol, setup = spam_setup
        with pytest.raises(ClassifierError, match="not an integer"):
            protocol.classify_email(setup, {1: 1, **features})

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
        assert pending_frames(channel) == 0

    def test_network_bytes_equal_serialized_frame_lengths(self, spam_setup, sent_frame_sizes):
        # Acceptance: reported network_bytes is the sum of the actual
        # serialized frame lengths on the transport — no estimator anywhere.
        protocol, setup = spam_setup
        channel = protocol.make_channel(setup, name="spam-exact")
        sent = sent_frame_sizes(channel)
        result = protocol.classify_email(setup, SPAM_TEST_EMAILS[0], channel=channel)
        assert result.network_bytes == sum(sent)
        assert result.network_messages == len(sent)
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


def _two_column_model(spam, ham, bias, value_bits=4, frequency_bits=4, max_features=7, dtype=np.int64):
    """A quantized spam/ham model from its columns (bias row last)."""
    matrix = np.array([list(pair) for pair in zip(spam, ham)] + [list(bias)], dtype=dtype)
    return QuantizedLinearModel(
        matrix=matrix,
        category_names=["spam", "ham"],
        value_bits=value_bits,
        frequency_bits=frequency_bits,
        max_features_per_email=max_features,
        scale=1.0,
        offset=0.0,
    )


# value_bits = 4, fin = 4, L = 7 over nine feature rows: b = 3 + 4 + 4 = 11.
FULL_EMAIL = {row: 15 for row in range(7)}                 # L features at maximal frequency
MARGIN_CASES = {
    # name: (spam column, ham column, bias, email, verdict)
    "tie": ([3, 9, 0, 15, 7, 1, 2, 8, 4], [3, 9, 0, 15, 7, 1, 2, 8, 4], (6, 6), FULL_EMAIL, False),
    "tie_by_other_rows": ([15] + [0] * 8, [0, 15] + [0] * 7, (2, 2), {0: 3, 1: 3}, False),
    "max_spam_margin": ([15] * 9, [0] * 9, (15, 0), FULL_EMAIL, True),
    "max_ham_margin": ([0] * 9, [15] * 9, (0, 15), FULL_EMAIL, False),
    "empty_email_spam_by_one": ([0] * 9, [15] * 9, (8, 7), {}, True),
    "empty_email_ham_by_one": ([15] * 9, [0] * 9, (7, 8), {}, False),
    "empty_email_tie": ([15] * 9, [0] * 9, (9, 9), {}, False),
    "spam_by_one": ([1] + [5] * 8, [0] + [5] * 8, (4, 4), {0: 1, 3: 15}, True),
    "ham_by_one": ([0] + [5] * 8, [1] + [5] * 8, (4, 4), {0: 1, 3: 15}, False),
}


@pytest.fixture(scope="module", params=["bv", "paillier"])
def margin_protocol(request, bv_scheme, paillier_scheme, dh_group):
    if request.param == "bv":
        return SpamFilterProtocol(bv_scheme, dh_group)
    return SpamFilterProtocol(paillier_scheme, dh_group, across_row_packing=False)


class TestSpamMargin:
    """The verdict is the top bit of one unblinded margin ``d_spam − d_ham + τ``."""

    @pytest.mark.parametrize("case", sorted(MARGIN_CASES))
    def test_edge_verdicts_match_the_plaintext_model(self, margin_protocol, case):
        spam, ham, bias, email, verdict = MARGIN_CASES[case]
        model = _two_column_model(spam, ham, bias)
        assert model.dot_product_bits == 11
        assert model.predict_is_spam(email) is verdict
        result = margin_protocol.classify_email(margin_protocol.setup(model), email)
        assert result.is_spam is verdict

    @pytest.mark.parametrize("case,dot", [("max_ham_margin", 0), ("max_spam_margin", 3180)])
    def test_the_margin_reaches_its_bounds(self, bv_scheme, dh_group, case, dot):
        # ±(7·15 + 1)·15 = ±1590 is the widest margin an email can have at
        # this budget; τ = 1590 puts the encrypted dot product at 0 and at
        # 3180 < 2^12, the ends of the b + 1 = 12 bits the circuit reads.
        spam, ham, bias, email, _verdict = MARGIN_CASES[case]
        setup = SpamFilterProtocol(bv_scheme, dh_group).setup(_two_column_model(spam, ham, bias))
        pairs = setup.quantized_model.sparse_features(email)
        result = setup.encrypted_model.dot_products(pairs)
        assert decrypt_dot_products(bv_scheme, setup.keypair, result) == [dot]

    @pytest.mark.parametrize("dtype", [np.int64, np.uint8, np.uint16])
    def test_the_encrypted_column_is_the_shifted_margin(self, bv_scheme, dh_group, dtype):
        # An unsigned matrix must not wrap in the subtraction (nor under NEP 50
        # promotion); the int64 twin is the reference.
        columns = ([255, 0, 17, 200], [0, 255, 17, 3], (128, 129))
        model = _two_column_model(*columns, value_bits=8, dtype=dtype)
        reference = _two_column_model(*columns, value_bits=8)
        protocol = SpamFilterProtocol(bv_scheme, dh_group)
        setup = protocol.setup(model)
        assert setup.encrypted_model.layout.num_columns == 1
        for email in ({}, {0: 15, 1: 2, 3: 7}, {1: 15, 2: 1}):
            pairs = model.sparse_features(email)
            d_spam, d_ham = reference.integer_scores(email).tolist()
            tau = 255 * (sum(count for _, count in pairs) + 1)
            dot = decrypt_dot_products(
                bv_scheme, setup.keypair, setup.encrypted_model.dot_products(pairs)
            )
            assert dot == [d_spam - d_ham + tau]
            assert protocol.classify_email(setup, email).is_spam == (d_spam > d_ham)

    @given(data=st.data())
    @settings(max_examples=40, deadline=None)
    def test_verdicts_match_the_plaintext_model(self, margin_protocol, data):
        value_bits = data.draw(st.integers(min_value=2, max_value=6))
        frequency_bits = data.draw(st.integers(min_value=1, max_value=4))
        max_features = data.draw(st.integers(min_value=1, max_value=8))
        rows = data.draw(st.integers(min_value=1, max_value=12))
        entry = st.integers(min_value=0, max_value=(1 << value_bits) - 1)
        columns = data.draw(
            st.lists(st.tuples(entry, entry), min_size=rows + 1, max_size=rows + 1)
        )
        spam, ham = zip(*columns[:-1])
        model = _two_column_model(
            spam, ham, columns[-1], value_bits, frequency_bits, max_features
        )
        indices = data.draw(
            st.lists(
                st.integers(min_value=0, max_value=rows + 2),  # a few out of vocabulary
                max_size=max_features,
                unique=True,
            )
        )
        frequency = st.integers(min_value=0, max_value=(1 << frequency_bits) + 2)  # clipped
        email = {index: data.draw(frequency) for index in indices}
        result = margin_protocol.classify_email(margin_protocol.setup(model), email)
        assert result.is_spam == model.predict_is_spam(email)

    def test_one_subtractor_and_one_transfer_per_bit(self, margin_protocol):
        model = _two_column_model([15] * 9, [0] * 9, (15, 0))
        setup = margin_protocol.setup(model)
        pool = margin_protocol.make_ot_pool(setup)
        b = model.dot_product_bits
        result = margin_protocol.classify_email(setup, FULL_EMAIL, ot_pool=pool)
        assert result.is_spam is True
        assert result.yao_and_gates == b
        assert pool.receiver_state.next_index == b + 1

    @pytest.mark.parametrize("bad", [16, -1])
    def test_setup_refuses_an_entry_outside_the_value_range(self, bv_scheme, dh_group, bad):
        model = _two_column_model([3] * 9, [4] * 9, (5, bad))
        with pytest.raises(ProtocolError, match="entries"):
            SpamFilterProtocol(bv_scheme, dh_group).setup(model)

    def test_setup_refuses_a_float_matrix(self, bv_scheme, dh_group):
        model = _two_column_model([3] * 9, [4] * 9, (5, 5), dtype=np.float64)
        with pytest.raises(ProtocolError, match="entries"):
            SpamFilterProtocol(bv_scheme, dh_group).setup(model)

    def test_setup_refuses_a_margin_as_wide_as_the_slot(self, margin_protocol):
        # b = 3 + value_bits + 8 against 32-bit slots.  BV refuses b + 1 = 32;
        # Paillier's whole-ciphertext blinding keeps one more guard bit, so it
        # refuses b + 1 = 31, which blinding would refuse on every email.
        guard_bits = 0 if margin_protocol.scheme.supports_slot_shift else 1
        widest_bits = margin_protocol.scheme.slot_bits - 13 - guard_bits
        too_wide = _two_column_model(
            [3] * 9, [4] * 9, (5, 5), value_bits=widest_bits + 1, frequency_bits=8
        )
        assert too_wide.dot_product_bits + 1 + guard_bits == margin_protocol.scheme.slot_bits
        with pytest.raises(ProtocolError, match="overflow a slot"):
            margin_protocol.setup(too_wide)
        widest = _two_column_model(
            [3] * 9, [4] * 9, (5, 5), value_bits=widest_bits, frequency_bits=8
        )
        setup = margin_protocol.setup(widest)
        assert margin_protocol.classify_email(setup, {0: 1}).is_spam is False
        assert margin_protocol.classify_email(setup, {0: 255}).is_spam is False

    @staticmethod
    def _parent_shaped(protocol, model):
        """This build's setup with the model packed as the parent packed it: spam, ham."""
        setup = protocol.setup(model)
        two_columns = PackedLinearModel.encrypt(
            protocol.scheme,
            setup.keypair.public,
            model.matrix_rows(),
            across_rows=protocol.across_row_packing,
        )
        return setup, replace(setup, encrypted_model=two_columns)

    def test_a_setup_packed_as_spam_and_ham_is_refused(self, margin_protocol):
        # A registration pickled by a build before the margin unpickles here
        # (same classes, same fields).  Its column 0 is the raw spam column;
        # served as the margin it would give a verdict, and a wrong one.
        model = _two_column_model([15] * 9, [0] * 9, (0, 15))
        email = {0: 1}
        assert model.predict_is_spam(email) is False
        setup, parent_shaped = self._parent_shaped(margin_protocol, model)
        parent_shaped = pickle.loads(pickle.dumps(parent_shaped))
        with pytest.raises(ProtocolError, match="one margin column, not 2"):
            margin_protocol.classify_email(parent_shaped, email)
        with pytest.raises(ProtocolError, match="one margin column, not 2"):
            margin_protocol.client_session(parent_shaped, email).start()
        # A provider holding the parent shape refuses a well-formed request
        # before it garbles anything.
        client = margin_protocol.client_session(setup, email)
        provider = margin_protocol.provider_session(parent_shaped)
        with pytest.raises(ProtocolError):
            run_session_pair(
                margin_protocol.make_channel(setup), {"client": client, "provider": provider}
            )
        assert client.is_spam is None
        assert margin_protocol.classify_email(setup, email).is_spam is False

    def test_a_worker_registered_with_the_parent_shape_refuses_the_burst(self, margin_protocol):
        model = _two_column_model([15] * 9, [0] * 9, (0, 15))
        _setup, parent_shaped = self._parent_shaped(margin_protocol, model)
        registration = pickle.dumps(("parent@example.com", margin_protocol, parent_shaped))
        with scoped_registry(MetricsRegistry()):
            worker = ShardWorkerCore((1, None))
            assert worker.handle("register", pickle.loads(registration)) == ("ok", None)
            verb, message = worker.handle(
                "burst", [(0, "spam", "parent@example.com", ({0: 1},))]
            )
        assert verb == "error"
        assert "one margin column, not 2" in message


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
