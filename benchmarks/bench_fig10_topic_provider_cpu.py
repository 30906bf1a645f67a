"""Fig. 10 — provider-side CPU time per email for topic extraction.

Sweeps the number of categories B and the candidate count B' and compares the
provider CPU of NoPriv, Baseline and Pretzel.  The paper's claims to
reproduce: without decomposition (B'=B) the private arms are orders of
magnitude above NoPriv; with decomposition (B'=10 or 20) Pretzel's provider
CPU falls to within a small factor of NoPriv.
"""

import numpy as np
import pytest

from benchmarks.conftest import make_email_features, make_quantized_model, print_table
from repro.classify.model import LinearModel
from repro.twopc.noprv import NoPrivClassifier
from repro.twopc.topics import TopicExtractionProtocol

MODEL_FEATURES = 1_000
CATEGORY_COUNTS = [16, 64]
CANDIDATES = [None, 20, 10, 5]   # None = B' = B (no decomposition); 20/10 match Fig. 10


@pytest.fixture(scope="module")
def setups(bv_scheme_small, dh_group):
    result = {}
    for categories in CATEGORY_COUNTS:
        model = make_quantized_model(MODEL_FEATURES, categories, seed=categories)
        protocol = TopicExtractionProtocol(bv_scheme_small, dh_group)
        result[categories] = (protocol, protocol.setup(model), model)
    return result


@pytest.mark.parametrize("categories", CATEGORY_COUNTS)
@pytest.mark.parametrize("candidates", CANDIDATES)
def test_fig10_pretzel_provider_cpu(benchmark, setups, categories, candidates):
    protocol, setup, model = setups[categories]
    features = make_email_features(MODEL_FEATURES, 60, boolean=False)
    if candidates is not None and candidates > categories:
        pytest.skip(f"B'={candidates} exceeds B={categories}; covered by the B'=B arm")
    candidate_list = None if candidates is None else list(range(candidates))
    result = benchmark.pedantic(
        protocol.extract_topic, args=(setup, features), kwargs={"candidate_topics": candidate_list},
        rounds=1, iterations=1,
    )
    label = "B'=B" if candidates is None else f"B'={candidates}"
    print_table(
        f"Fig. 10 — topic extraction, B={categories}, {label}",
        ["arm", "provider_ms", "client_ms", "network_KB", "yao_AND_gates"],
        [[
            "pretzel",
            f"{result.provider_seconds*1e3:.2f}",
            f"{result.client_seconds*1e3:.2f}",
            f"{result.network_bytes/1024:.1f}",
            result.yao_and_gates,
        ]],
    )


def test_fig10_decomposition_shape(benchmark, setups):
    """Decomposed classification cuts provider CPU by a large factor (the figure's point)."""
    protocol, setup, model = setups[CATEGORY_COUNTS[-1]]
    features = make_email_features(MODEL_FEATURES, 60, boolean=False)
    full = protocol.extract_topic(setup, features, candidate_topics=None)
    pruned = benchmark.pedantic(
        protocol.extract_topic, args=(setup, features), kwargs={"candidate_topics": list(range(10))},
        rounds=1, iterations=1,
    )
    rng = np.random.default_rng(0)
    noprv = NoPrivClassifier(
        LinearModel(
            weights=rng.normal(size=(MODEL_FEATURES, CATEGORY_COUNTS[-1])),
            biases=np.zeros(CATEGORY_COUNTS[-1]),
            category_names=[f"c{i}" for i in range(CATEGORY_COUNTS[-1])],
        )
    )
    noprv_seconds = noprv.classify(features).provider_seconds
    print_table(
        f"Fig. 10 — provider CPU per email (ms), B={CATEGORY_COUNTS[-1]}",
        ["arm", "provider_ms"],
        [
            ["noprv", f"{noprv_seconds*1e3:.3f}"],
            ["pretzel (B'=B)", f"{full.provider_seconds*1e3:.3f}"],
            ["pretzel (B'=10)", f"{pruned.provider_seconds*1e3:.3f}"],
        ],
    )
    assert pruned.provider_seconds < full.provider_seconds


def test_fig10_baseline_provider_cpu(benchmark, paillier_scheme_small, dh_group):
    """The Baseline arm (§3.3): Paillier, one model row per ciphertext, B'=B.

    Topic features carry frequencies, so the client's dot product scales
    ciphertexts (``scalar_mul``) as well as adding them.
    """
    categories = CATEGORY_COUNTS[0]
    model = make_quantized_model(MODEL_FEATURES, categories, seed=categories)
    protocol = TopicExtractionProtocol(paillier_scheme_small, dh_group)
    setup = protocol.setup(model, across_row_packing=False)
    features = make_email_features(MODEL_FEATURES, 60, boolean=False)
    assert max(features.values()) > 1
    result = benchmark.pedantic(
        protocol.extract_topic, args=(setup, features), kwargs={"candidate_topics": None},
        rounds=1, iterations=1,
    )
    assert result.extracted_topic == model.predict(features)
    print_table(
        f"Fig. 10 — topic extraction, B={categories}, B'=B",
        ["arm", "provider_ms", "client_ms", "network_KB"],
        [[
            "baseline (paillier)",
            f"{result.provider_seconds*1e3:.2f}",
            f"{result.client_seconds*1e3:.2f}",
            f"{result.network_bytes/1024:.1f}",
        ]],
    )
