"""Blinding of homomorphic dot-product results (Fig. 2 step 2, Fig. 5 step 3).

Before the client returns anything to the provider it adds noise so the
decrypted values reveal nothing beyond what the subsequent Yao step is meant
to output.  What it returns depends on the scheme's slot arithmetic.

**Slot-shifting schemes (XPIR-BV): score samples.**  In BV,
``Dec(c0, c1)[j] = c0[j] + (c1·s)[j]``: to open slot ``j`` the provider needs
all of ``c1`` but one coefficient of ``c0`` (LWE sample extraction).  So the
client sends, per result, ``c1`` and the ``c0`` coefficients of the one
contiguous slot *run* the protocol opens — the extraction slot of a candidate
or spam's one margin slot (run of 1), the output region of an undecomposed
topic result — and never computes, blinds or sends the other
``n - length`` coefficients
(:meth:`~repro.crypto.ahe.AHEScheme.blind_samples`).  Slots are modular
(coefficients mod ``t = 2^slot_bits``), so every run slot gets noise uniform
over the whole slot — perfect hiding; the client remembers it for the output
columns and the Yao circuit removes it with a subtraction mod
``2^dot_bits``.  Security: the provider's view (``c1`` in full, the run of
``c0``) is a strict subset of a fully blinded ciphertext's, ``(u, e1, e2)``
stay fresh per sample and the run's noise stays uniform, so nothing new is
assumed *about the slot*; the slots that used to need full-range noise no
longer leave the client.  That statement is about the slot, not the phase
noise ``E`` beneath it: the provider holds ``s``, so decrypting an opened
coefficient gives it ``m + t·E`` before the ``mod t``, and ``E`` is a sum of
the email's frequencies times noises of model ciphertexts it encrypted itself,
plus one fresh encryption's.  Whether ``E`` lets the provider test a guess
about the email, and flooding it, are open questions, unmeasured here; the
blinded whole ciphertext this replaces carries the same ``E``.  Paillier has
no analogue: its decryption is exact, so nothing lies beneath a slot (its
output slots' statistical hiding is the guard-bit matter below).

The client's results are coefficient-domain and hold ``c0`` only on the run
the protocol opens (:meth:`~repro.crypto.packing.PackingLayout.result_runs`):
the run of ``x^shift·c0`` is read as a run-wide window at
``n − shift + start`` of ``[−c0 | c0]`` and must lie inside that run — an
extracted candidate reads its own slot of the output region, a result opened
in place reads its whole run — and ``x^shift·c1`` joins ``t·e2`` before the
one forward transform blinding runs; only ``p0·u`` is an inner product with a
cached monomial spectrum
(:meth:`~repro.crypto.ringlwe.RingContext.coefficient_run`).
Blinding B' candidates is one forward transform over
``(u, x^shift·c1 + t·e2)`` — 2B' polynomials — and no other transform.
Cached per ring: the monomial spectra (one ``(primes, n)`` row per opened
slot); nothing is cached per key pair.

**Other schemes (Paillier): whole ciphertexts.**  Slots are bit fields in one
big integer; every slot of every result ciphertext is blinded and the full
ciphertext travels.  Output slots get noise limited to ``slot_bits - 1`` bits
(value + noise still fits the slot: statistical hiding with the guard bits of
Fig. 3's ``δ``), every other slot full-range noise the client forgets.

The provider half lives here too: :func:`score_runs` is what a provider
expects of each result ciphertext, :func:`check_score_runs` refuses anything
else before a decrypt is parked, and :func:`open_columns` reads columns off
the decrypted runs.

Randomness draw order is canonical (pinned under a seeded PRG in
``tests/test_batched_fabrication.py``).  Score samples:

1. the run noise, one ``secure_uniform_array(2^slot_bits, Σ length)`` call,
   in sample order then slot order — the recorded noise of an output column
   is its slot's draw;
2. the encryption randomness, one read: per sample ``n`` bytes of ternary
   ``u`` then ``2n`` bytes of ``e2``, for all samples, then two bytes of
   ``e1`` per run slot in the order of step 1.

Whole ciphertexts: full-range noise for every slot of every ciphertext (one
call, by position), then the recorded output noises (one call, by ciphertext
position then slot), then the scheme's own encryption randomness.
"""

from __future__ import annotations

from dataclasses import dataclass
from typing import Sequence

import numpy as np

from repro.crypto.ahe import AHECiphertext, AHEPublicKey, AHEScheme
from repro.crypto.packing import DotProductCiphertexts, PackedLinearModel
from repro.exceptions import ProtocolError
from repro.utils.rand import secure_uniform_array


@dataclass
class BlindedResult:
    """Blinded ciphertexts plus the client-side record of the output noises."""

    ciphertexts: list[AHECiphertext]
    # column index -> (ciphertext position in `ciphertexts`, slot, noise value)
    output_noise: dict[int, tuple[int, int, int]]

    def network_bytes(self) -> int:
        return sum(ct.size_bytes for ct in self.ciphertexts)


def blind_dot_products(
    scheme: AHEScheme,
    public_key: AHEPublicKey,
    model: PackedLinearModel,
    result: DotProductCiphertexts,
    output_columns: list[int],
    dot_bits: int,
    prg=None,
) -> BlindedResult:
    """Blind all result ciphertexts (spam filtering and B' = B topics).

    Everything that reaches the provider carries noise; the noise added to
    the slots of *output_columns* is recorded so the client can cancel it
    inside Yao.  A slot-shifting scheme sends one score sample per result
    ciphertext, opened at :func:`score_runs`; any other scheme sends the
    ciphertexts whole.  *prg* (tests only) makes every draw deterministic;
    see the module docstring for the draw order.
    """
    slot_map = model.column_slot_map()
    for column in set(output_columns):
        if column not in slot_map:
            raise ProtocolError(f"column {column} is not part of the model")
    ciphertexts = result.all_ciphertexts()
    if not scheme.supports_slot_shift:
        return _blind_whole_ciphertexts(
            scheme, public_key, ciphertexts, slot_map, output_columns, dot_bits, prg
        )
    runs = score_runs(scheme, model)
    offsets = np.cumsum([0] + [length for _, length in runs])
    noise = secure_uniform_array(scheme.slot_modulus, int(offsets[-1]), prg)
    output_noise = {}
    for column in output_columns:
        ct_index, slot = slot_map[column]
        at = offsets[ct_index] + slot - runs[ct_index][0]
        output_noise[column] = (ct_index, slot, int(noise[at]))
    positions = range(len(ciphertexts))
    samples = scheme.blind_samples(
        public_key, ciphertexts, positions, [0] * len(ciphertexts), runs, noise, prg=prg
    )
    return BlindedResult(ciphertexts=samples, output_noise=output_noise)


def blind_extracted_candidates(
    scheme: AHEScheme,
    public_key: AHEPublicKey,
    model: PackedLinearModel,
    result: DotProductCiphertexts,
    candidate_columns: list[int],
    dot_bits: int,
    prg=None,
) -> BlindedResult:
    """Pretzel's candidate extraction + blinding (Fig. 5 step 3, §4.3).

    For each candidate topic the client homomorphically shifts that topic's
    dot product to the *top* slot (the fixed extraction slot) and sends a
    score sample opened at that one slot, blinded with recorded noise.  The
    provider therefore learns exactly B' blinded values and nothing about
    which columns they came from.
    """
    if not scheme.supports_slot_shift:
        raise ProtocolError("candidate extraction requires a slot-shifting AHE scheme")
    slot_map = model.column_slot_map()
    extraction_slot = scheme.num_slots - 1
    sources: list[int] = []
    shifts: list[int] = []
    for column in candidate_columns:
        if column not in slot_map:
            raise ProtocolError(f"candidate column {column} is not part of the model")
        ct_index, slot = slot_map[column]
        sources.append(ct_index)
        shifts.append(extraction_slot - slot)
    noise = secure_uniform_array(scheme.slot_modulus, len(candidate_columns), prg)
    samples = scheme.blind_samples(
        public_key, result.all_ciphertexts(), sources, shifts,
        [candidate_run(scheme)] * len(candidate_columns), noise, prg=prg,
    )
    output_noise = {
        column: (position, extraction_slot, int(noise[position]))
        for position, column in enumerate(candidate_columns)
    }
    return BlindedResult(ciphertexts=samples, output_noise=output_noise)


def _blind_whole_ciphertexts(
    scheme: AHEScheme,
    public_key: AHEPublicKey,
    ciphertexts: list[AHECiphertext],
    slot_map: dict[int, tuple[int, int]],
    output_columns: list[int],
    dot_bits: int,
    prg,
) -> BlindedResult:
    """Blind every slot of every ciphertext (schemes whose slots are not modular).

    *prg* reaches the noise draws only; Paillier's own encryption randomness
    does not take a stream.
    """
    if dot_bits >= scheme.slot_bits - 1:
        raise ProtocolError(
            "dot products leave no guard bits for blinding under this scheme"
        )
    num_slots = scheme.num_slots
    # Group requested columns by the ciphertext that carries them.
    per_ciphertext: dict[int, dict[int, int]] = {}
    for column in output_columns:
        ct_index, slot = slot_map[column]
        per_ciphertext.setdefault(ct_index, {})[slot] = column
    noise_matrix = secure_uniform_array(
        scheme.slot_modulus, len(ciphertexts) * num_slots, prg
    ).reshape(len(ciphertexts), num_slots)
    outputs = [
        (ct_index, slot, column)
        for ct_index in range(len(ciphertexts))
        for slot, column in per_ciphertext.get(ct_index, {}).items()
    ]
    recorded = secure_uniform_array(1 << (scheme.slot_bits - 1), len(outputs), prg)
    output_noise: dict[int, tuple[int, int, int]] = {}
    for (ct_index, slot, column), noise in zip(outputs, recorded):
        noise_matrix[ct_index, slot] = noise
        output_noise[column] = (ct_index, slot, int(noise))
    noise_ciphertexts = scheme.encrypt_slots_many(public_key, noise_matrix)
    return BlindedResult(
        ciphertexts=scheme.add_many(ciphertexts, noise_ciphertexts), output_noise=output_noise
    )


# -- the provider's half -------------------------------------------------------
def candidate_run(scheme: AHEScheme) -> tuple[int, int]:
    """The run of an extracted candidate: the top slot alone."""
    return scheme.num_slots - 1, 1


def score_runs(scheme: AHEScheme, model: PackedLinearModel) -> list[tuple[int, int]]:
    """The slot run each blinded result ciphertext opens, in result order."""
    if scheme.supports_slot_shift:
        return model.layout.result_runs()
    return [(0, scheme.num_slots)] * model.result_ciphertext_count()


def check_score_runs(
    scheme: AHEScheme,
    ciphertexts: Sequence[AHECiphertext],
    runs: Sequence[tuple[int, int]],
) -> None:
    """Refuse blinded scores that are not opened exactly where the protocol reads."""
    if len(ciphertexts) != len(runs):
        raise ProtocolError(
            f"expected {len(runs)} blinded score ciphertexts, got {len(ciphertexts)}"
        )
    for position, (ciphertext, run) in enumerate(zip(ciphertexts, runs)):
        found = scheme.ciphertext_run(ciphertext)
        if found != run:
            raise ProtocolError(
                f"blinded score {position} opens slot run {found}, the protocol reads {run}"
            )


def open_columns(
    scheme: AHEScheme,
    model: PackedLinearModel,
    slot_lists: list[list[int]],
    columns: Sequence[int],
) -> list[int]:
    """The blinded value of each of *columns*, read off the decrypted runs."""
    runs = score_runs(scheme, model)
    slot_map = model.column_slot_map()
    values = []
    for column in columns:
        ct_index, slot = slot_map[column]
        values.append(slot_lists[ct_index][slot - runs[ct_index][0]])
    return values
