"""Model-matrix packing: the GLLM layout and Pretzel's across-row layout (§4.2).

The provider's model is a matrix with one row per feature and one column per
category (plus one extra "prior/bias" row).  The setup phase of the protocol
(Fig. 2, step 1) encrypts this matrix column-slot-wise so that the client can
later compute, per category ``j``, the dot product ``d_j = Σ_i x_i · v_{i,j}``
entirely in cipherspace (Fig. 2, step 2).

Two layouts are implemented:

* **Within-row (legacy GLLM / "NoOptimPack")** — each row is packed on its
  own: ``ceil(B / p)`` ciphertexts per row, where ``p`` is the number of slots
  per ciphertext.  When ``B`` is much smaller than ``p`` (spam filtering has
  B = 2 while XPIR-BV offers ~1024 slots), most of every ciphertext is wasted;
  Fig. 8's "Pretzel-NoOptimPack" row quantifies that waste.

* **Across-row (Pretzel, §4.2)** — column segments of exactly ``p`` columns
  are packed as above; the final segment with ``k = B mod p < p`` columns
  packs ``m = floor(p / k)`` *rows* per ciphertext in row-major order (Fig. 4).
  During the dot-product computation, each row's contribution is realigned to
  a common *output region* (the slots of the last row position) using the
  homomorphic slot shift, then accumulated.  Slots outside the output region
  end up holding garbage and must be blinded before the ciphertext leaves the
  client (the protocols in :mod:`repro.twopc` do that).

The dot-product consumer API is :meth:`PackedLinearModel.dot_products`, which
returns one :class:`DotProductCiphertexts` holding the encrypted ``d_j`` for
all ``B`` columns together with the slot position of each column.  On
XPIR-BV the model stays in the coefficient domain, where a row's
realignment ``x^shift · C`` is a window of the ``[−C | C]`` block its
ciphertext was stacked into once: an email's dot products are, per stack,
a gather of windows and an integer sum weighted by the term frequencies
(:meth:`~repro.crypto.bv.BVScheme.combine_windows`), with no transform.
Each result's ``c1`` is computed in full but its ``c0`` only on
:meth:`PackingLayout.result_runs` — the slots blinding opens (the output
region of the leftover, every slot of a full segment) — so a result decrypts
to, and answers for, that run alone.
"""

from __future__ import annotations

from dataclasses import dataclass, field
from typing import Iterable, Sequence

import numpy as np

from repro.crypto.ahe import AHECiphertext, AHEKeyPair, AHEPublicKey, AHEScheme
from repro.exceptions import PackingError, ParameterError


@dataclass(frozen=True)
class PackingLayout:
    """Geometry of a packed model."""

    num_columns: int            # B: categories
    num_rows: int               # feature rows + 1 prior/bias row
    slots_per_ciphertext: int   # p
    across_rows: bool           # Pretzel packing (§4.2) vs legacy GLLM packing

    @property
    def full_segments(self) -> int:
        """Number of column segments that occupy a whole ciphertext width."""
        return self.num_columns // self.slots_per_ciphertext

    @property
    def leftover_columns(self) -> int:
        """Columns in the final, partially filled segment (0 if B divides p)."""
        return self.num_columns % self.slots_per_ciphertext

    @property
    def rows_per_leftover_ciphertext(self) -> int:
        """How many matrix rows share one ciphertext in the leftover segment."""
        if self.leftover_columns == 0:
            return 0
        if not self.across_rows:
            return 1
        return self.slots_per_ciphertext // self.leftover_columns

    @property
    def leftover_output_offset(self) -> int:
        """Slot index where the leftover segment's dot products accumulate.

        The output region is the slot range of the *last* row position inside
        a leftover ciphertext, so that shifting any earlier row up never
        pushes its payload past the top of the ciphertext.
        """
        if self.leftover_columns == 0:
            return 0
        return (self.rows_per_leftover_ciphertext - 1) * self.leftover_columns

    def result_runs(self) -> list[tuple[int, int]]:
        """The ``(start, length)`` slot run that carries columns, per result ciphertext.

        Full segments use every slot; the leftover result carries its columns
        in the output region and garbage below it.  This is what blinding
        opens, and on XPIR-BV the only slots of ``c0`` a dot product computes.
        Order follows :meth:`DotProductCiphertexts.all_ciphertexts`.
        """
        runs = [(0, self.slots_per_ciphertext)] * self.full_segments
        if self.leftover_columns:
            runs.append((self.leftover_output_offset, self.leftover_columns))
        return runs

    def ciphertext_count(self) -> int:
        """Total ciphertexts needed to store the encrypted model."""
        count = self.full_segments * self.num_rows
        if self.leftover_columns:
            if self.across_rows:
                rows_per_ct = self.rows_per_leftover_ciphertext
                count += -(-self.num_rows // rows_per_ct)
            else:
                count += self.num_rows
        return count

    def column_location(self, column: int) -> tuple[str, int]:
        """Where a column's dot product ends up: ("segment", index) or ("leftover", slot)."""
        if not 0 <= column < self.num_columns:
            raise ParameterError(f"column {column} out of range")
        segment = column // self.slots_per_ciphertext
        if segment < self.full_segments:
            return "segment", segment
        return "leftover", self.leftover_output_offset + (column % self.slots_per_ciphertext)


@dataclass
class EncryptedModelColumnSegment:
    """One full-width column segment: one ciphertext per model row."""

    segment_index: int
    row_ciphertexts: list[AHECiphertext]


@dataclass
class EncryptedModelLeftover:
    """The final (narrow) column segment, possibly packed across rows."""

    ciphertexts: list[AHECiphertext]


@dataclass
class DotProductCiphertexts:
    """Encrypted dot products for all columns, as produced by the client."""

    layout: PackingLayout
    segment_results: list[AHECiphertext]
    leftover_result: AHECiphertext | None

    def all_ciphertexts(self) -> list[AHECiphertext]:
        results = list(self.segment_results)
        if self.leftover_result is not None:
            results.append(self.leftover_result)
        return results


class PackedLinearModel:
    """An encrypted linear model plus the client-side dot-product evaluator.

    The provider constructs this object during the setup phase and ships it to
    the client (it contains only public-key material and ciphertexts).  The
    client calls :meth:`dot_products` per email.
    """

    def __init__(
        self,
        scheme: AHEScheme,
        public_key: AHEPublicKey,
        layout: PackingLayout,
        segments: list[EncryptedModelColumnSegment],
        leftover: EncryptedModelLeftover | None,
    ) -> None:
        self.scheme = scheme
        self.public_key = public_key
        self.layout = layout
        self.segments = segments
        self.leftover = leftover
        # Scheme-specific dense batches of the encrypted model (one per full
        # segment plus one for the leftover), built lazily on the first
        # dot-product evaluation when the scheme supports batched accumulation.
        self._segment_stacks: list | None = None
        self._leftover_stack = None
        self._column_slot_map: dict[int, tuple[int, int]] | None = None

    # -- construction (provider side, setup phase) -------------------------
    @classmethod
    def encrypt(
        cls,
        scheme: AHEScheme,
        public_key: AHEPublicKey,
        matrix_rows: Sequence[Sequence[int]] | np.ndarray,
        across_rows: bool = True,
    ) -> "PackedLinearModel":
        """Encrypt a quantized model matrix (rows = features + prior row).

        Every entry must be a non-negative integer that fits in a slot after
        accounting for the dot-product growth (the caller — see
        :mod:`repro.classify.model` — quantizes with the ``bin``/``fin``/``log L``
        budget of Fig. 3).
        """
        try:
            matrix = np.asarray(matrix_rows)
        except ValueError as error:
            raise PackingError("model matrix rows differ in length") from error
        if matrix.ndim != 2 or matrix.size == 0:
            raise PackingError("cannot pack an empty or non-rectangular model matrix")
        num_rows, num_columns = matrix.shape
        if across_rows and not scheme.supports_slot_shift and num_columns % scheme.num_slots:
            # Across-row packing needs slot shifts at dot-product time; fall
            # back to the legacy layout on schemes that cannot shift (Paillier).
            across_rows = False
        layout = PackingLayout(
            num_columns=num_columns,
            num_rows=num_rows,
            slots_per_ciphertext=scheme.num_slots,
            across_rows=across_rows,
        )
        # Lay every slot vector of the packed model out as one row of a single
        # (ciphertexts, <= slots) block, then fabricate all ciphertexts in one
        # batched call: for XPIR-BV the whole model is one vectorised range
        # check, one stacked forward-NTT pass and one randomness draw.
        p = scheme.num_slots
        full, k = layout.full_segments, layout.leftover_columns
        rows_per_ct = layout.rows_per_leftover_ciphertext
        leftover_count = layout.ciphertext_count() - full * num_rows
        block = np.zeros(
            (layout.ciphertext_count(), p if full else rows_per_ct * k), dtype=matrix.dtype
        )
        if full:
            # Segment-major: all rows of column segment 0, then of segment 1, ...
            block[: full * num_rows] = (
                matrix[:, : full * p].reshape(num_rows, full, p).swapaxes(0, 1).reshape(-1, p)
            )
        if k:
            # rows_per_ct consecutive rows share a ciphertext in row-major order
            # (Fig. 4; one row each in the legacy layout); the last ciphertext
            # may be only partly filled and keeps zeros in its unused slots.
            tail = np.zeros((leftover_count * rows_per_ct, k), dtype=matrix.dtype)
            tail[:num_rows] = matrix[:, full * p :]
            block[full * num_rows :, : rows_per_ct * k] = tail.reshape(leftover_count, -1)
        encrypted = scheme.encrypt_slots_many(public_key, block)
        segments = [
            EncryptedModelColumnSegment(
                segment_index,
                encrypted[segment_index * num_rows : (segment_index + 1) * num_rows],
            )
            for segment_index in range(layout.full_segments)
        ]
        leftover = None
        if k:
            leftover = EncryptedModelLeftover(encrypted[len(encrypted) - leftover_count :])
        return cls(scheme, public_key, layout, segments, leftover)

    # -- sizes --------------------------------------------------------------
    def storage_bytes(self) -> int:
        """Client-side storage for the encrypted model (Fig. 8 / Fig. 12)."""
        count = sum(len(segment.row_ciphertexts) for segment in self.segments)
        if self.leftover is not None:
            count += len(self.leftover.ciphertexts)
        return count * self.scheme.ciphertext_size_bytes()

    def ciphertext_count(self) -> int:
        count = sum(len(segment.row_ciphertexts) for segment in self.segments)
        if self.leftover is not None:
            count += len(self.leftover.ciphertexts)
        return count

    # -- client-side evaluation (computation phase) ---------------------------
    def dot_products(self, sparse_features: Iterable[tuple[int, int]]) -> DotProductCiphertexts:
        """Homomorphically compute ``d_j = Σ_i x_i · v_{i,j}`` for every column.

        *sparse_features* yields ``(row_index, frequency)`` pairs for the
        non-zero entries of the email's feature vector; the prior/bias row
        (the last row of the matrix) is always added with frequency 1, as in
        expressions (1) and (2) of the paper.  Rows and frequencies must be
        integers (numpy integers included, ``bool`` and ``float`` not).

        When the scheme supports batched accumulation (XPIR-BV), the whole
        evaluation is a handful of vectorised array operations over the
        stacked encrypted model, and each result's ``c0`` is computed only on
        the slot run blinding opens (:meth:`PackingLayout.result_runs`);
        otherwise it falls back to the generic ``scalar_mul``/``shift_up``/
        ``add`` chain of whole ciphertexts (Paillier).
        """
        features = []
        for row_index, frequency in sparse_features:
            # int() would truncate a fractional row or frequency into a wrong
            # answer; `type(...) is int` is exact, so it refuses bool too.
            if (type(row_index) is not int and not isinstance(row_index, np.integer)) or (
                type(frequency) is not int and not isinstance(frequency, np.integer)
            ):
                raise PackingError(
                    f"feature ({row_index!r}, {frequency!r}) is not a pair of integers"
                )
            # The last row is the bias, added once below; it is not a feature.
            if not 0 <= row_index < self.layout.num_rows - 1:
                raise PackingError(f"feature row {row_index} outside the model's feature rows")
            if frequency <= 0:
                continue
            features.append((row_index, int(frequency)))
        features.append((self.layout.num_rows - 1, 1))  # prior/bias row
        if self.scheme.supports_batched_accumulation:
            return self._dot_products_batched(features)
        return self._dot_products_generic(features)

    def _dot_products_generic(self, features: list[tuple[int, int]]) -> DotProductCiphertexts:
        """Reference per-feature accumulation chain (also the Paillier path)."""
        segment_accumulators: list[AHECiphertext | None] = [None] * self.layout.full_segments
        leftover_accumulator: AHECiphertext | None = None
        for row_index, frequency in features:
            for segment in self.segments:
                term = segment.row_ciphertexts[row_index]
                if frequency != 1:
                    term = self.scheme.scalar_mul(term, frequency)
                current = segment_accumulators[segment.segment_index]
                segment_accumulators[segment.segment_index] = (
                    term if current is None else self.scheme.add(current, term)
                )
            if self.leftover is not None:
                term = self._leftover_term(row_index, frequency)
                leftover_accumulator = (
                    term
                    if leftover_accumulator is None
                    else self.scheme.add(leftover_accumulator, term)
                )
        segment_results = [ct for ct in segment_accumulators if ct is not None]
        if len(segment_results) != self.layout.full_segments:
            raise PackingError("internal error: missing segment accumulator")
        return DotProductCiphertexts(
            layout=self.layout,
            segment_results=segment_results,
            leftover_result=leftover_accumulator,
        )

    def ensure_stacks(self) -> None:
        """Pre-build the dense model stacks (the per-sender row cache): for
        XPIR-BV, one ``[−C | C]`` coefficient block per model ciphertext.

        The first dot-product evaluation normally pays this; a serving loop
        can call it when a mailbox is registered so that no email in a burst
        is charged the one-time stacking cost.  No-op for schemes without
        batched accumulation.
        """
        if self.scheme.supports_batched_accumulation:
            self._ensure_stacks()

    def _ensure_stacks(self) -> None:
        if self._segment_stacks is None:
            self._segment_stacks = [
                self.scheme.stack_ciphertexts(segment.row_ciphertexts)
                for segment in self.segments
            ]
            if self.leftover is not None:
                self._leftover_stack = self.scheme.stack_ciphertexts(self.leftover.ciphertexts)

    def _dot_products_batched(self, features: list[tuple[int, int]]) -> DotProductCiphertexts:
        """Vectorised evaluation over the stacked encrypted model."""
        self._ensure_stacks()
        rows = np.array([row for row, _ in features], dtype=np.intp)
        scalars = [frequency for _, frequency in features]
        unshifted = np.zeros_like(rows)
        # Each result is computed on the run blinding opens: `c0` there only.
        runs = self.layout.result_runs()
        segment_results = [
            self.scheme.combine_windows(stack, rows, scalars, unshifted, run)
            for stack, run in zip(self._segment_stacks, runs)
        ]
        leftover_result = None
        if self.leftover is not None:
            # Row r sits at position r mod m of leftover ciphertext r // m and
            # is realigned onto the output region (the last position, §4.2) by
            # x^shift; the legacy layout is m = 1, every shift 0.
            rows_per_ct = self.layout.rows_per_leftover_ciphertext
            shifts = (rows_per_ct - 1 - rows % rows_per_ct) * self.layout.leftover_columns
            leftover_result = self.scheme.combine_windows(
                self._leftover_stack, rows // rows_per_ct, scalars, shifts, runs[-1]
            )
        return DotProductCiphertexts(
            layout=self.layout,
            segment_results=segment_results,
            leftover_result=leftover_result,
        )

    def _leftover_term(self, row_index: int, frequency: int) -> AHECiphertext:
        assert self.leftover is not None
        rows_per_ct = self.layout.rows_per_leftover_ciphertext  # 1 in the legacy layout
        term = self.leftover.ciphertexts[row_index // rows_per_ct]
        if frequency != 1:
            term = self.scheme.scalar_mul(term, frequency)
        # Realign this row's k values onto the common output region (the last
        # row position): this is the homomorphic "left shift and add" of §4.2.
        shift = (rows_per_ct - 1 - row_index % rows_per_ct) * self.layout.leftover_columns
        if shift:
            term = self.scheme.shift_up(term, shift)
        return term

    # -- result interpretation (provider side, after decryption) ---------------
    def result_ciphertext_count(self) -> int:
        """How many ciphertexts one dot-product result carries on the wire."""
        return self.layout.full_segments + (1 if self.layout.leftover_columns else 0)

    def column_slot_map(self) -> dict[int, tuple[int, int]]:
        """Map column j -> (result ciphertext index, slot index).

        Result ciphertext indices follow :meth:`DotProductCiphertexts.all_ciphertexts`
        ordering: full segments first, leftover last.  The map depends only on
        the layout, so it is computed once and cached (the provider consults
        it per email).
        """
        if self._column_slot_map is None:
            mapping = {}
            p = self.layout.slots_per_ciphertext
            for column in range(self.layout.num_columns):
                kind, where = self.layout.column_location(column)
                if kind == "segment":
                    mapping[column] = (where, column % p)
                else:
                    mapping[column] = (self.layout.full_segments, where)
            self._column_slot_map = mapping
        return self._column_slot_map


def decrypt_dot_products(
    scheme: AHEScheme,
    keypair: AHEKeyPair,
    result: DotProductCiphertexts,
) -> list[int]:
    """Decrypt a dot-product result into the per-column values (testing helper).

    The real protocols never decrypt unblinded results at the provider — the
    client blinds first (Fig. 2, step 2) — but unit tests use this to check
    that packing preserves the plaintext dot products exactly.  Each result
    decrypts to its run (:meth:`~repro.crypto.ahe.AHEScheme.ciphertext_run`).
    """
    layout = result.layout
    ciphertexts = result.all_ciphertexts()
    decrypted = scheme.decrypt_slots_many(keypair, ciphertexts)
    starts = [scheme.ciphertext_run(ciphertext)[0] for ciphertext in ciphertexts]
    values = []
    p = layout.slots_per_ciphertext
    for column in range(layout.num_columns):
        kind, where = layout.column_location(column)
        at, slot = (column // p, column % p) if kind == "segment" else (layout.full_segments, where)
        values.append(decrypted[at][slot - starts[at]])
    return values
