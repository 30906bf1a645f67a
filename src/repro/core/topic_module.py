"""The topic-extraction function module with decomposed classification (§4.3).

Two classifiers are involved:

* the provider's **proprietary** multi-topic model — quantized, encrypted and
  shipped to the client during the protocol setup phase;
* a **public** candidate model at the client, trained on a small fraction of
  the data (topic lists are public, §4.3), which performs step (i) of the
  decomposition: mapping the email to B' candidate topics locally.

Per email the client picks its B' candidates with the public model and then
runs the protocol of :mod:`repro.twopc.topics`, after which the *provider*
learns exactly one topic index (§4.4 guarantee 3).
"""

from __future__ import annotations

from dataclasses import dataclass
from typing import Sequence

from repro.classify.features import FeatureExtractor
from repro.classify.model import LinearModel, QuantizedLinearModel
from repro.classify.naive_bayes import MultinomialNaiveBayes
from repro.core.config import PretzelConfig
from repro.core.modules import FunctionModule, ModuleRunResult
from repro.exceptions import ClassifierError
from repro.mail.message import EmailMessage
from repro.twopc.topics import TopicExtractionProtocol, TopicSetup
from repro.utils.rand import DeterministicRandom


@dataclass
class TopicModuleOutput:
    """What the provider learns: a single topic index and its name."""

    topic_index: int
    topic_name: str
    candidates_considered: int


class TopicFunctionModule(FunctionModule):
    """Joint topic extraction over encrypted email."""

    name = "topic-extraction"

    def __init__(
        self,
        config: PretzelConfig,
        extractor: FeatureExtractor,
        proprietary_model: LinearModel,
        public_model: LinearModel | None = None,
    ) -> None:
        if proprietary_model.num_categories < 2:
            raise ClassifierError("the topic module needs at least two categories")
        self.config = config
        self.extractor = extractor
        self.scheme = config.build_scheme()
        self.group = config.build_group()
        self.proprietary_model = proprietary_model
        self.public_model = public_model
        self.quantized = QuantizedLinearModel.from_linear_model(
            proprietary_model,
            value_bits=config.value_bits,
            frequency_bits=config.frequency_bits,
            max_features_per_email=config.max_features_per_email,
        )
        self.protocol = TopicExtractionProtocol(self.scheme, self.group, ot_mode=config.ot_mode)
        self.setup: TopicSetup = self.protocol.setup(
            self.quantized,
            across_row_packing=config.across_row_packing,
        )

    # -- training helpers ------------------------------------------------------------
    @classmethod
    def train(
        cls,
        config: PretzelConfig,
        extractor: FeatureExtractor,
        documents: Sequence[dict[int, int]],
        labels: Sequence[int],
        category_names: Sequence[str],
        seed: int = 29,
    ) -> "TopicFunctionModule":
        """Train the proprietary model on all data and the public model on a fraction.

        The public-model training fraction is ``config.public_model_fraction``,
        matching the sweep of Fig. 14 (1%–10% of the training data suffices
        for good candidate recall).
        """
        num_categories = len(category_names)
        proprietary = MultinomialNaiveBayes(
            num_features=extractor.num_features, category_names=list(category_names)
        )
        proprietary.fit(documents, labels)
        public_model = None
        if config.candidate_topics is not None:
            rng = DeterministicRandom(seed, label="public-model-subset")
            indices = list(range(len(documents)))
            rng.shuffle(indices)
            subset_size = max(num_categories, int(len(indices) * config.public_model_fraction))
            subset = indices[:subset_size]
            # Make sure every category appears at least once in the subset so the
            # public model knows about all topics (topic lists are public, §4.3).
            present = {labels[i] for i in subset}
            for index in indices:
                if len(present) == num_categories:
                    break
                if labels[index] not in present:
                    subset.append(index)
                    present.add(labels[index])
            public_classifier = MultinomialNaiveBayes(
                num_features=extractor.num_features, category_names=list(category_names)
            )
            public_classifier.fit([documents[i] for i in subset], [labels[i] for i in subset])
            public_model = public_classifier.to_linear_model()
        return cls(
            config,
            extractor,
            proprietary.to_linear_model(),
            public_model=public_model,
        )

    # -- decomposition step (i): candidate selection at the client ----------------------
    def candidate_topics(self, features: dict[int, int]) -> list[int] | None:
        """The client's candidate set S' (None disables decomposition)."""
        if self.config.candidate_topics is None:
            return None
        count = min(self.config.candidate_topics, self.proprietary_model.num_categories)
        model = self.public_model if self.public_model is not None else self.proprietary_model
        return model.top_categories(features, count)

    # -- per-email ----------------------------------------------------------------------
    def _output(self, result) -> TopicModuleOutput:
        return TopicModuleOutput(
            topic_index=result.extracted_topic,
            topic_name=self.proprietary_model.category_names[result.extracted_topic],
            candidates_considered=result.candidates_used,
        )

    def process_email(self, message: EmailMessage) -> ModuleRunResult:
        features = self.extractor.transform(message.text_content(), boolean=False)
        candidates = self.candidate_topics(features)
        result = self.protocol.extract_topic(self.setup, features, candidate_topics=candidates)
        return self._run_result(result, len(features))

    # -- costs -------------------------------------------------------------------------------
    def client_storage_bytes(self) -> int:
        storage = self.setup.client_storage_bytes()
        if self.public_model is not None:
            storage += self.public_model.plaintext_size_bytes()
        return storage

