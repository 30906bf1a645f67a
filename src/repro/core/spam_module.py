"""The spam-filtering function module (client half + provider half).

The provider trains (or is given) a two-category linear spam model — GR-NB by
default, LR or SVM alternatively (§3.1) — quantizes it, and runs the setup
phase of the spam protocol; the client stores the encrypted model.  Per email
the module runs the protocol of :mod:`repro.twopc.spam` and the *client*
learns the one-bit verdict (§4.4 guarantee 2).
"""

from __future__ import annotations

from dataclasses import dataclass
from typing import Sequence

from repro.classify.features import FeatureExtractor
from repro.classify.model import LinearModel, QuantizedLinearModel
from repro.classify.naive_bayes import GrahamRobinsonNaiveBayes
from repro.core.config import PretzelConfig
from repro.core.modules import FunctionModule, ModuleRunResult
from repro.exceptions import ClassifierError
from repro.mail.message import EmailMessage
from repro.twopc.spam import SpamFilterProtocol, SpamSetup


@dataclass
class SpamModuleOutput:
    """What the client learns: a single bit."""

    is_spam: bool


class SpamFunctionModule(FunctionModule):
    """Joint spam filtering over encrypted email."""

    name = "spam-filter"

    def __init__(
        self,
        config: PretzelConfig,
        extractor: FeatureExtractor,
        linear_model: LinearModel,
    ) -> None:
        if linear_model.num_categories != 2:
            raise ClassifierError("the spam module needs a two-category model")
        self.config = config
        self.extractor = extractor
        self.scheme = config.build_scheme()
        self.group = config.build_group()
        self.quantized = QuantizedLinearModel.from_linear_model(
            linear_model,
            value_bits=config.value_bits,
            frequency_bits=config.frequency_bits,
            max_features_per_email=config.max_features_per_email,
        )
        self.protocol = SpamFilterProtocol(
            self.scheme,
            self.group,
            across_row_packing=config.across_row_packing,
            ot_mode=config.ot_mode,
        )
        self.setup: SpamSetup = self.protocol.setup(self.quantized)

    # -- training helper ----------------------------------------------------------
    @classmethod
    def train(
        cls,
        config: PretzelConfig,
        extractor: FeatureExtractor,
        documents: Sequence[dict[int, int]],
        labels: Sequence[int],
    ) -> "SpamFunctionModule":
        """Train a GR-NB spam model (label 1 = spam) and build the module."""
        classifier = GrahamRobinsonNaiveBayes(num_features=extractor.num_features)
        classifier.fit(documents, labels)
        return cls(config, extractor, classifier.to_linear_model())

    # -- per-email -------------------------------------------------------------------
    def _output(self, result) -> SpamModuleOutput:
        return SpamModuleOutput(is_spam=result.is_spam)

    def process_email(self, message: EmailMessage) -> ModuleRunResult:
        features = self.extractor.transform(message.text_content(), boolean=True)
        result = self.protocol.classify_email(self.setup, features)
        return self._run_result(result, len(features))

    # -- costs -------------------------------------------------------------------------
    def client_storage_bytes(self) -> int:
        return self.setup.client_storage_bytes()

