"""Microbenchmark constants and workload parameters for the cost model.

Fig. 3 of the paper expresses every cost of NoPriv, Baseline and Pretzel as a
formula over a handful of per-operation constants (Fig. 6) and workload
parameters (N, N', B, B', L, bin, fin, email size).  This module holds both:

* :class:`MicrobenchmarkConstants` defaults to the paper's measured values
  (EC2 m3.2xlarge) and can alternatively be measured on the local machine via
  :meth:`MicrobenchmarkConstants.measure_local`, which times this library's
  own implementations — that is what ``benchmarks/bench_fig06`` does;
* :class:`WorkloadParameters` captures the paper's sweep axes.
"""

from __future__ import annotations

import math
import time
from dataclasses import dataclass

from repro.exceptions import ParameterError


@dataclass
class MicrobenchmarkConstants:
    """Per-operation costs.  Times are seconds; sizes are bytes (Fig. 6)."""

    # GPG / e2e module
    gpg_encrypt_seconds: float = 1.7e-3
    gpg_decrypt_seconds: float = 1.3e-3
    # Paillier
    paillier_encrypt_seconds: float = 2.5e-3
    paillier_decrypt_seconds: float = 0.7e-3
    paillier_add_seconds: float = 7e-6
    paillier_ciphertext_bytes: int = 256
    # XPIR-BV
    xpir_encrypt_seconds: float = 103e-6
    xpir_decrypt_seconds: float = 31e-6
    xpir_add_seconds: float = 3e-6
    xpir_shift_add_seconds: float = 70e-6
    xpir_ciphertext_bytes: int = 16 * 1024
    xpir_slots: int = 1024
    # Yao (per b-bit input value)
    yao_compare_seconds: float = 71e-6
    yao_compare_bytes: int = 2501
    yao_argmax_seconds_per_input: float = 70e-6
    yao_argmax_bytes_per_input: int = 3959
    # NoPriv plaintext operations
    lookup_seconds: float = 0.17e-6
    float_add_seconds: float = 0.001e-6
    feature_extract_seconds: float = 0.17e-6

    @classmethod
    def paper_values(cls) -> "MicrobenchmarkConstants":
        """The constants exactly as reported in Fig. 6."""
        return cls()

    @classmethod
    def measure_local(cls, quick: bool = True) -> "MicrobenchmarkConstants":
        """Measure the constants using this library's implementations.

        ``quick`` keeps repetition counts small so the measurement finishes in
        a few seconds; the Fig. 6 bench uses larger counts via pytest-benchmark.
        """
        # Imported lazily to keep the cost model importable without NumPy work.
        from repro.crypto.bv import BVScheme
        from repro.crypto.paillier import PaillierScheme

        repetitions = 3 if quick else 20
        bv = BVScheme()
        bv_keys = bv.generate_keypair()
        sample = list(range(16))
        start = time.perf_counter()
        for _ in range(repetitions):
            ciphertext = bv.encrypt_slots(bv_keys.public, sample)
        xpir_encrypt = (time.perf_counter() - start) / repetitions
        start = time.perf_counter()
        for _ in range(repetitions):
            bv.decrypt_slots(bv_keys, ciphertext)
        xpir_decrypt = (time.perf_counter() - start) / repetitions
        other = bv.encrypt_slots(bv_keys.public, sample)
        start = time.perf_counter()
        for _ in range(repetitions):
            bv.add(ciphertext, other)
        xpir_add = (time.perf_counter() - start) / repetitions
        start = time.perf_counter()
        for _ in range(repetitions):
            bv.add(ciphertext, bv.shift_up(other, 2))
        xpir_shift_add = (time.perf_counter() - start) / repetitions

        paillier = PaillierScheme(modulus_bits=1024, slot_bits=32)
        paillier_keys = paillier.generate_keypair()
        start = time.perf_counter()
        for _ in range(repetitions):
            pail_ct = paillier.encrypt_slots(paillier_keys.public, sample)
        paillier_encrypt = (time.perf_counter() - start) / repetitions
        start = time.perf_counter()
        for _ in range(repetitions):
            paillier.decrypt_slots(paillier_keys, pail_ct)
        paillier_decrypt = (time.perf_counter() - start) / repetitions
        pail_other = paillier.encrypt_slots(paillier_keys.public, sample)
        start = time.perf_counter()
        for _ in range(repetitions):
            paillier.add(pail_ct, pail_other)
        paillier_add = (time.perf_counter() - start) / repetitions

        return cls(
            paillier_encrypt_seconds=paillier_encrypt,
            paillier_decrypt_seconds=paillier_decrypt,
            paillier_add_seconds=paillier_add,
            paillier_ciphertext_bytes=paillier.ciphertext_size_bytes(),
            xpir_encrypt_seconds=xpir_encrypt,
            xpir_decrypt_seconds=xpir_decrypt,
            xpir_add_seconds=xpir_add,
            xpir_shift_add_seconds=xpir_shift_add,
            xpir_ciphertext_bytes=bv.ciphertext_size_bytes(),
            xpir_slots=bv.num_slots,
        )


@dataclass
class WorkloadParameters:
    """The paper's workload axes (Fig. 3 symbols in parentheses)."""

    model_features: int = 5_000_000          # N
    selected_features: int | None = None     # N' (after feature selection, §4.3)
    categories: int = 2                      # B
    candidate_topics: int | None = None      # B' (None means B, i.e. no decomposition)
    email_features: int = 692                # L (average in the authors' Gmail data)
    email_bytes: int = 75 * 1024             # sz_email (average email size)
    value_bits: int = 10                     # bin
    frequency_bits: int = 4                  # fin

    def __post_init__(self) -> None:
        if self.model_features <= 0 or self.categories < 2 or self.email_features <= 0:
            raise ParameterError("workload parameters must be positive (and B >= 2)")
        if self.selected_features is not None and self.selected_features > self.model_features:
            raise ParameterError("N' cannot exceed N")
        if self.candidate_topics is not None and not 1 <= self.candidate_topics <= self.categories:
            raise ParameterError("B' must lie in [1, B]")

    @property
    def effective_features(self) -> int:
        """N' if feature selection is applied, else N."""
        return self.selected_features if self.selected_features is not None else self.model_features

    @property
    def effective_candidates(self) -> int:
        """B' if decomposition is applied, else B."""
        return self.candidate_topics if self.candidate_topics is not None else self.categories

    @property
    def dot_product_bits(self) -> int:
        """Fig. 3's ``b = log L + bin + fin``."""
        return math.ceil(math.log2(self.email_features + 1)) + self.value_bits + self.frequency_bits

    @classmethod
    def spam_default(cls) -> "WorkloadParameters":
        """Spam filtering at the paper's headline scale (N = 5M, B = 2, L = 692)."""
        return cls()

    @classmethod
    def topics_default(cls) -> "WorkloadParameters":
        """Topic extraction at the paper's headline scale (B = 2048, B' = 20)."""
        return cls(
            model_features=100_000,
            categories=2048,
            candidate_topics=20,
            email_features=692,
        )
