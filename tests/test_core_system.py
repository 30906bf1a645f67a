"""End-to-end integration tests: function modules and the full Pretzel system."""

import pytest

from repro.classify.metrics import accuracy
from repro.core import (
    PretzelConfig,
    PretzelSystem,
    SearchFunctionModule,
    SpamFunctionModule,
    TopicFunctionModule,
)
from repro.core.spam_module import SpamModuleOutput
from repro.core.topic_module import TopicModuleOutput
from repro.datasets import lingspam_like, newsgroups20_like, prepare_classification_data
from repro.exceptions import MailError, ParameterError


@pytest.fixture(scope="module")
def spam_data():
    return prepare_classification_data(lingspam_like(scale=0.25, seed=9), boolean=True, max_features=1200)


@pytest.fixture(scope="module")
def topic_data():
    return prepare_classification_data(newsgroups20_like(scale=0.2, seed=10), max_features=1200)


@pytest.fixture(scope="module")
def spam_module(test_config, spam_data):
    labels = [1 if label == 1 else 0 for label in spam_data.train_labels]
    return SpamFunctionModule.train(test_config, spam_data.extractor, spam_data.train_vectors, labels)


@pytest.fixture(scope="module")
def topic_module(test_config, topic_data):
    return TopicFunctionModule.train(
        test_config,
        topic_data.extractor,
        topic_data.train_vectors,
        topic_data.train_labels,
        topic_data.category_names,
    )


class TestConfig:
    def test_presets_build(self):
        assert PretzelConfig.test().ahe_scheme == "xpir-bv"
        assert PretzelConfig.baseline().ahe_scheme == "paillier"

    def test_invalid_values_rejected(self):
        with pytest.raises(ParameterError):
            PretzelConfig(ahe_scheme="rsa")
        with pytest.raises(ParameterError):
            PretzelConfig(ot_mode="magic")
        with pytest.raises(ParameterError):
            PretzelConfig(candidate_topics=0)

    def test_build_scheme_matches_selection(self, test_config):
        assert test_config.build_scheme().name == "xpir-bv"
        assert PretzelConfig.baseline().build_scheme().name == "paillier"


class TestSpamModule:
    def test_verdicts_mostly_match_ground_truth(self, spam_module, spam_data, test_config):
        from repro.mail.message import EmailMessage

        # Reconstruct raw text from the corpus by re-tokenizing test vectors is
        # not possible; instead check agreement between the secure verdict and
        # the module's own plaintext quantized model on feature vectors.
        hits = 0
        total = 6
        for vector in spam_data.test_vectors[:total]:
            secure = spam_module.protocol.classify_email(spam_module.setup, vector).is_spam
            plain = spam_module.quantized.predict_is_spam(vector)
            hits += int(secure == plain)
        assert hits == total

    def test_process_email_output_type(self, spam_module):
        from repro.mail.message import EmailMessage

        message = EmailMessage("a@x.com", "b@y.com", "hello", "w000001 w000002 w000003")
        result = spam_module.process_email(message)
        assert isinstance(result.output, SpamModuleOutput)
        assert result.network_bytes > 0
        assert result.client_seconds > 0

    def test_storage_and_setup_costs_positive(self, spam_module):
        assert spam_module.client_storage_bytes() > 0
        assert spam_module.setup.setup_network_bytes > 0


class TestTopicModule:
    def test_secure_extraction_matches_proprietary_model_when_candidates_cover(self, topic_module, topic_data):
        from repro.classify.model import QuantizedLinearModel

        hits = 0
        total = 5
        for vector in topic_data.test_vectors[:total]:
            candidates = topic_module.candidate_topics(vector)
            expected = topic_module.quantized.predict(vector)
            result = topic_module.protocol.extract_topic(
                topic_module.setup, vector, candidate_topics=candidates
            )
            if expected in (candidates or []):
                hits += int(result.extracted_topic == expected)
            else:
                hits += 1  # decomposition sacrificed accuracy by design; not a protocol bug
        assert hits == total

    def test_candidate_list_size_respects_config(self, topic_module, topic_data, test_config):
        candidates = topic_module.candidate_topics(topic_data.test_vectors[0])
        assert candidates is not None
        assert len(candidates) <= test_config.candidate_topics

    def test_end_to_end_topic_accuracy_reasonable(self, topic_module, topic_data):
        # The decomposed pipeline (public candidate model + proprietary model)
        # should classify synthetic newsgroups well above chance.
        predictions = []
        for vector in topic_data.test_vectors[:10]:
            candidates = topic_module.candidate_topics(vector)
            result = topic_module.protocol.extract_topic(
                topic_module.setup, vector, candidate_topics=candidates
            )
            predictions.append(result.extracted_topic)
        assert accuracy(predictions, topic_data.test_labels[:10]) > 0.5

    def test_client_storage_includes_public_model(self, topic_module):
        assert topic_module.client_storage_bytes() > topic_module.setup.client_storage_bytes()


class TestSearchModule:
    def test_indexes_and_searches(self):
        from repro.mail.message import EmailMessage

        module = SearchFunctionModule()
        first = EmailMessage("a@x.com", "b@y.com", "budget", "quarterly numbers attached")
        second = EmailMessage("a@x.com", "b@y.com", "lunch", "pizza on friday")
        module.process_email(first)
        module.process_email(second)
        matches, latency = module.search("pizza")
        assert matches == [second.message_id()]
        assert latency >= 0
        assert module.client_storage_bytes() > 0


class TestPretzelSystem:
    @pytest.fixture(scope="class")
    def system(self, test_config, spam_module, topic_module):
        system = PretzelSystem(test_config)
        system.add_user("alice@example.com")
        bob = system.add_user("bob@example.com")
        bob.attach_module(spam_module)
        bob.attach_module(topic_module)
        bob.attach_module(SearchFunctionModule())
        return system

    def test_duplicate_user_rejected(self, system):
        with pytest.raises(MailError):
            system.add_user("alice@example.com")

    def test_roundtrip_produces_all_module_outputs(self, system):
        report = system.roundtrip(
            "alice@example.com", "bob@example.com", "greetings", "w000001 w000002 w000500 w000900"
        )
        assert isinstance(report.output_of("spam-filter"), SpamModuleOutput)
        assert isinstance(report.output_of("topic-extraction"), TopicModuleOutput)
        assert report.output_of("keyword-search").indexed_documents >= 1
        assert report.total_network_bytes > 0
        assert report.total_provider_seconds > 0
        assert report.total_client_seconds > 0

    def test_unknown_user_rejected(self, system):
        with pytest.raises(MailError):
            system.client("nobody@example.com")
        with pytest.raises(MailError):
            system.send_email("nobody@example.com", "bob@example.com", "s", "b")


