"""The analytic cost model of Fig. 3.

For each arm (NoPriv / Baseline / Pretzel) and each cost (provider CPU,
client CPU, network, client storage — setup and per-email), these functions
evaluate the formulas of Fig. 3 with the microbenchmark constants of Fig. 6.
The benchmark harness uses them both to print the Fig. 3 table and to
extrapolate the scaled-down measured runs to the paper's headline parameters
(N = 5M features, B = 2048 topics).
"""

from __future__ import annotations

import math
from dataclasses import dataclass

from repro.costmodel.params import MicrobenchmarkConstants, WorkloadParameters


@dataclass
class CostEstimate:
    """Setup and per-email costs of one arm, in seconds/bytes."""

    arm: str
    setup_provider_seconds: float = 0.0
    setup_network_bytes: int = 0
    client_storage_bytes: int = 0
    email_provider_seconds: float = 0.0
    email_client_seconds: float = 0.0
    email_network_bytes: int = 0

    def as_row(self) -> dict[str, float]:
        return {
            "arm": self.arm,
            "setup_provider_s": self.setup_provider_seconds,
            "setup_network_MB": self.setup_network_bytes / 1e6,
            "client_storage_MB": self.client_storage_bytes / 1e6,
            "email_provider_ms": self.email_provider_seconds * 1e3,
            "email_client_ms": self.email_client_seconds * 1e3,
            "email_network_KB": self.email_network_bytes / 1e3,
        }


def _paillier_slots(constants: MicrobenchmarkConstants, workload: WorkloadParameters) -> int:
    """Fig. 3's ``p_pail``: b-bit fields packable in one Paillier plaintext."""
    plaintext_bits = constants.paillier_ciphertext_bytes * 8 // 2  # |N| = half the ciphertext
    return max(1, plaintext_bits // workload.dot_product_bits)


def estimate_noprv(
    constants: MicrobenchmarkConstants, workload: WorkloadParameters
) -> CostEstimate:
    """Non-private arm: the provider classifies plaintext locally (Fig. 3 col. 1)."""
    per_email = (
        workload.email_features * (constants.feature_extract_seconds + constants.lookup_seconds)
        + workload.email_features * workload.categories * constants.float_add_seconds
    )
    return CostEstimate(
        arm="noprv",
        email_provider_seconds=per_email,
        email_network_bytes=workload.email_bytes,
    )


def estimate_baseline(
    constants: MicrobenchmarkConstants, workload: WorkloadParameters
) -> CostEstimate:
    """Baseline arm (§3.3): Paillier + GLLM within-row packing + Yao over all B."""
    rows = workload.model_features + 1
    p_pail = _paillier_slots(constants, workload)
    beta = math.ceil(workload.categories / p_pail)
    setup_provider = rows * beta * constants.paillier_encrypt_seconds
    storage = rows * beta * constants.paillier_ciphertext_bytes
    yao_inputs = workload.categories
    per_input_seconds = (
        constants.yao_compare_seconds if workload.categories == 2 else constants.yao_argmax_seconds_per_input
    )
    per_input_bytes = (
        constants.yao_compare_bytes if workload.categories == 2 else constants.yao_argmax_bytes_per_input
    )
    email_provider = beta * constants.paillier_decrypt_seconds + yao_inputs * per_input_seconds
    email_client = (
        workload.email_features * beta * constants.paillier_add_seconds
        + beta * constants.paillier_encrypt_seconds
        + yao_inputs * per_input_seconds
    )
    email_network = (
        workload.email_bytes
        + beta * constants.paillier_ciphertext_bytes
        + yao_inputs * per_input_bytes
    )
    return CostEstimate(
        arm="baseline",
        setup_provider_seconds=setup_provider,
        setup_network_bytes=storage,
        client_storage_bytes=storage,
        email_provider_seconds=email_provider,
        email_client_seconds=email_client,
        email_network_bytes=email_network,
    )


def estimate_pretzel(
    constants: MicrobenchmarkConstants, workload: WorkloadParameters
) -> CostEstimate:
    """Pretzel arm (§4.1–§4.3): XPIR-BV + across-row packing + decomposition."""
    rows = workload.effective_features + 1
    p = constants.xpir_slots
    b_categories = workload.categories
    b_prime = workload.effective_candidates
    full_segments = b_categories // p
    leftover = b_categories % p
    # Setup: one ciphertext per row per full segment, plus across-row packed
    # ciphertexts for the leftover columns (Fig. 3's beta'_xpir term).
    leftover_ciphertexts = 0
    if leftover:
        rows_per_ciphertext = max(1, p // leftover)
        leftover_ciphertexts = math.ceil(rows / rows_per_ciphertext)
    total_model_ciphertexts = rows * full_segments + leftover_ciphertexts
    setup_provider = total_model_ciphertexts * constants.xpir_encrypt_seconds
    storage = total_model_ciphertexts * constants.xpir_ciphertext_bytes

    # Per email, client side: one shift-and-add per email feature touching the
    # across-row packed part, plus plain adds for full segments, plus the
    # blinding encryptions and its half of Yao.
    decomposed = workload.candidate_topics is not None and b_prime < b_categories
    result_ciphertexts = full_segments + (1 if leftover else 0)
    blinding_ciphertexts = b_prime if decomposed else result_ciphertexts
    per_input_seconds = (
        constants.yao_compare_seconds if b_categories == 2 else constants.yao_argmax_seconds_per_input
    )
    per_input_bytes = (
        constants.yao_compare_bytes if b_categories == 2 else constants.yao_argmax_bytes_per_input
    )
    yao_inputs = 2 if b_categories == 2 else b_prime
    email_client = (
        workload.email_features * full_segments * constants.xpir_add_seconds
        + (workload.email_features if leftover else 0) * constants.xpir_shift_add_seconds
        + (b_prime if decomposed else 0) * constants.xpir_shift_add_seconds
        + blinding_ciphertexts * constants.xpir_encrypt_seconds
        + yao_inputs * per_input_seconds
    )
    email_provider = blinding_ciphertexts * constants.xpir_decrypt_seconds + yao_inputs * per_input_seconds
    email_network = (
        workload.email_bytes
        + blinding_ciphertexts * constants.xpir_ciphertext_bytes
        + yao_inputs * per_input_bytes
    )
    return CostEstimate(
        arm="pretzel",
        setup_provider_seconds=setup_provider,
        setup_network_bytes=storage,
        client_storage_bytes=storage,
        email_provider_seconds=email_provider,
        email_client_seconds=email_client,
        email_network_bytes=email_network,
    )


def estimate_all(
    constants: MicrobenchmarkConstants, workload: WorkloadParameters
) -> list[CostEstimate]:
    """All three arms for one workload (a full Fig. 3 column set)."""
    return [
        estimate_noprv(constants, workload),
        estimate_baseline(constants, workload),
        estimate_pretzel(constants, workload),
    ]


def format_table(estimates: list[CostEstimate]) -> str:
    """Human-readable Fig. 3-style table (used by benches and examples)."""
    header = (
        f"{'arm':<10} {'setup prov (s)':>15} {'storage (MB)':>13} "
        f"{'email prov (ms)':>16} {'email client (ms)':>18} {'email net (KB)':>15}"
    )
    lines = [header, "-" * len(header)]
    for estimate in estimates:
        row = estimate.as_row()
        lines.append(
            f"{row['arm']:<10} {row['setup_provider_s']:>15.2f} {row['client_storage_MB']:>13.1f} "
            f"{row['email_provider_ms']:>16.3f} {row['email_client_ms']:>18.3f} {row['email_network_KB']:>15.1f}"
        )
    return "\n".join(lines)
