"""Shared fixtures: small-but-real crypto parameters reused across the suite.

Key generation (safe primes, ring contexts) is expensive, so the fixtures are
session-scoped; tests must treat them as read-only.
"""

from __future__ import annotations

import numpy as np
import pytest

from repro.classify.model import LinearModel, QuantizedLinearModel
from repro.core.config import PretzelConfig
from repro.crypto.bv import BVParameters, BVScheme
from repro.crypto.dh import generate_group
from repro.crypto.paillier import PaillierScheme


@pytest.fixture(scope="session")
def dh_group():
    """A small (256-bit) safe-prime group: fast, still exercises all code paths."""
    return generate_group(256)


@pytest.fixture(scope="session")
def bv_scheme():
    """XPIR-BV with a reduced ring degree (256 slots) for fast tests."""
    return BVScheme(BVParameters.test_parameters())


@pytest.fixture(scope="session")
def paillier_scheme():
    """Paillier with a small modulus for fast tests."""
    return PaillierScheme(modulus_bits=256, slot_bits=32)


@pytest.fixture(scope="session")
def paillier_keys(paillier_scheme):
    return paillier_scheme.generate_keypair()


@pytest.fixture(scope="session")
def bv_keys(bv_scheme):
    return bv_scheme.generate_keypair()


@pytest.fixture(scope="session")
def test_config(dh_group):
    """PretzelConfig.test() sharing the session DH group via the config cache."""
    from repro.core import config as config_module

    config = PretzelConfig.test()
    config_module._GROUP_CACHE[config.dh_group_bits] = dh_group
    return config


@pytest.fixture(scope="session")
def small_spam_model():
    """A small random two-category quantized model for protocol tests."""
    rng = np.random.default_rng(42)
    weights = rng.normal(size=(200, 2))
    linear = LinearModel(weights=weights, biases=np.array([0.3, -0.1]), category_names=["spam", "ham"])
    return QuantizedLinearModel.from_linear_model(
        linear, value_bits=10, frequency_bits=4, max_features_per_email=512
    )


@pytest.fixture(scope="session")
def small_topic_model():
    """A small random multi-category quantized model for protocol tests."""
    rng = np.random.default_rng(43)
    categories = 10
    weights = rng.normal(size=(200, categories))
    linear = LinearModel(
        weights=weights,
        biases=rng.normal(size=categories),
        category_names=[f"topic-{index}" for index in range(categories)],
    )
    return QuantizedLinearModel.from_linear_model(
        linear, value_bits=10, frequency_bits=4, max_features_per_email=512
    )


@pytest.fixture
def sent_frame_sizes():
    """Record the encoded length of every frame a channel sends.

    ``record(channel)`` wraps ``channel.send`` and returns the list it fills:
    one ``len(channel.codec.encode(frame))`` per frame, in send order — the
    reference the exact byte ledgers are checked against.
    """

    def record(channel) -> list[int]:
        sizes: list[int] = []
        send = channel.send

        def recording_send(sender, frame):
            sizes.append(len(channel.codec.encode(frame)))
            return send(sender, frame)

        channel.send = recording_send
        return sizes

    return record
