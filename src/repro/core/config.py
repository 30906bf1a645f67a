"""System-wide configuration.

A :class:`PretzelConfig` fixes every knob the protocols and modules need:
which AHE scheme backs the secure dot products, the fixed-point quantization
budget (Fig. 3's ``bin``/``fin``), the number of candidate topics B' (§4.3),
the OT flavour, and the DH group profile for the e2e module and Yao.

Two presets are provided: :meth:`PretzelConfig.test` (small ring degree and
groups — seconds per protocol run, used by the unit tests) and
:meth:`PretzelConfig.standard` (paper-faithful XPIR-BV parameters: 1024 slots,
~16 KB ciphertexts).
"""

from __future__ import annotations

from dataclasses import dataclass, field

from repro.crypto.ahe import AHEScheme
from repro.crypto.bv import BVParameters, BVScheme
from repro.crypto.dh import DHGroup, generate_group, rfc3526_group_2048
from repro.crypto.paillier import PaillierScheme
from repro.exceptions import ParameterError

# Module-level cache so tests and benchmarks do not regenerate safe-prime
# groups for every config instance.
_GROUP_CACHE: dict[int, DHGroup] = {}


def _cached_group(bits: int) -> DHGroup:
    group = _GROUP_CACHE.get(bits)
    if group is None:
        group = generate_group(bits)
        _GROUP_CACHE[bits] = group
    return group


@dataclass
class PretzelConfig:
    """Every tunable of a Pretzel deployment, in one place."""

    # Cryptosystem for the secure dot products (§4.1): "xpir-bv" or "paillier".
    ahe_scheme: str = "xpir-bv"
    bv_parameters: BVParameters = field(default_factory=BVParameters)
    paillier_modulus_bits: int = 1024
    paillier_slot_bits: int = 32
    # Packing (§4.2): Pretzel's across-row packing vs the legacy layout.
    across_row_packing: bool = True
    # Quantization budget (Fig. 3): bin, fin, and the L used for width sizing.
    value_bits: int = 10
    frequency_bits: int = 4
    max_features_per_email: int = 8192
    # Decomposed classification (§4.3): number of candidate topics (None = B).
    candidate_topics: int | None = 20
    # Fraction of training data used for the client's public candidate model.
    public_model_fraction: float = 0.1
    # Yao / OT settings.
    ot_mode: str = "iknp"
    dh_group_bits: int = 256
    use_standard_group: bool = False

    def __post_init__(self) -> None:
        if self.ahe_scheme not in ("xpir-bv", "paillier"):
            raise ParameterError(f"unknown AHE scheme {self.ahe_scheme!r}")
        if self.ot_mode not in ("iknp", "base"):
            raise ParameterError(f"unknown OT mode {self.ot_mode!r}")
        if self.candidate_topics is not None and self.candidate_topics < 1:
            raise ParameterError("candidate_topics must be positive or None")
        if not 0.0 < self.public_model_fraction <= 1.0:
            raise ParameterError("public_model_fraction must be in (0, 1]")

    # -- factories -------------------------------------------------------------
    @classmethod
    def test(cls) -> "PretzelConfig":
        """Small, fast parameters for unit tests."""
        return cls(
            bv_parameters=BVParameters.test_parameters(),
            paillier_modulus_bits=512,
            dh_group_bits=256,
            candidate_topics=5,
            public_model_fraction=0.3,
        )

    @classmethod
    def standard(cls) -> "PretzelConfig":
        """Paper-faithful parameters (1024-slot XPIR-BV, 2048-bit DH group)."""
        return cls(use_standard_group=True)

    @classmethod
    def baseline(cls) -> "PretzelConfig":
        """The paper's Baseline arm (§3.3): Paillier and legacy packing."""
        return cls(ahe_scheme="paillier", across_row_packing=False, candidate_topics=None)

    # -- derived objects ----------------------------------------------------------
    def build_scheme(self) -> AHEScheme:
        """Instantiate the configured AHE scheme."""
        if self.ahe_scheme == "xpir-bv":
            return BVScheme(self.bv_parameters)
        return PaillierScheme(
            modulus_bits=self.paillier_modulus_bits, slot_bits=self.paillier_slot_bits
        )

    def build_group(self) -> DHGroup:
        """Return the DH group used by the e2e module and OT."""
        if self.use_standard_group:
            return rfc3526_group_2048()
        return _cached_group(self.dh_group_bits)
