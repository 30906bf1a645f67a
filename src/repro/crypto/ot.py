"""Oblivious transfer: base OT plus the IKNP OT extension.

In Yao's protocol the evaluator must obtain the wire labels corresponding to
its own private input bits without the garbler learning those bits and
without the evaluator learning the other labels — exactly a 1-out-of-2
oblivious transfer per input bit.

* The *base* OT is Chou–Orlandi's "simplest OT" over a safe-prime group,
  with **one sender key per batch**: the sender draws one ``a``, publishes
  one ``A = g^a``, and for transfer ``i`` the receiver answers
  ``B_i = g^{b_i}`` (choice 0) or ``A · g^{b_i}`` (choice 1) and keeps
  ``A^{b_i}``; the sender derives ``B_i^a`` and ``B_i^a · (A^a)^-1``.  A batch
  of ``m`` transfers costs the sender ``m + 2`` three-argument ``pow`` calls
  (every ``B_i^a``, one ``A^a``, one inverse) plus ``g^a`` from the group's
  cached generator table, and the receiver one ``pow`` (the subgroup check
  of ``A``) plus ``2m`` exponentiations from fixed-base tables
  (:class:`repro.crypto.dh.FixedBase` — the ``g`` table again and a table of
  ``A`` built for the handshake): 131 ``pow`` calls for the 128 seed
  transfers of a pool handshake, where drawing a fresh ``a`` per transfer
  took 896.  Because ``a`` and ``A`` are shared by every transfer
  of the batch, two transfers with equal ``B`` would share a DH value; the
  key is therefore ``H(i, A, B_i, shared)`` — bound to the transfer index and
  to the transcript, as the published protocol requires — and responses of
  order 1 or 2 (``B ∈ {1, p-1}``) are refused.
* The *IKNP extension* [71 in the paper, "Extending oblivious transfers
  efficiently"] stretches a small constant number of base OTs (128) run in
  the reverse direction, with only symmetric operations, into as many OTs as
  the circuit needs.  This is what makes the per-email Yao step affordable,
  and is the mechanism the paper's cost model charges as ``y_per-in`` /
  ``sz_per-in`` (Fig. 3).

  *Stream indexing.*  Each base-OT seed is read as **one** stream for the
  life of the pair (:class:`ColumnStream`): column ``j`` of the pair's bit
  matrix is ``SHAKE-256(seed_j || domain || chunk_no)``, and transfer ``i`` —
  the pool's global transfer index, the same number its pads' tweaks carry —
  is bit ``i`` of every column.  A batch of ``m`` transfers starting at
  index ``start`` is therefore rows ``start .. start + m - 1`` of that
  matrix, whatever the batch's size, alignment or arrival order; the
  receiver publishes ``U = T xor G xor r`` for those rows (as columns, the
  frame's layout) and the sender rebuilds ``q_i = t_i xor r_i s``.

  *Chunking.*  Streams are expanded :data:`CHUNK_TRANSFERS` transfers at a
  time for all 128 seeds (128 SHAKE calls, one bit-matrix transpose,
  ~0.3 ms) and the two most recent ``(1024, 16)`` row blocks per stream stay
  resident — 96 KB for a pool's three streams — so a 64-transfer email costs
  a row slice and a few array XORs.  The blocks are derived state: they are
  rebuilt from the seeds on demand and never enter a snapshot, a pickle or
  ``==``.

  *Pads.*  The pad of message ``b`` of transfer ``i`` is the tweakable
  correlation-robust hash of Guo–Katz–Wang–Yu ("Efficient and secure
  multiparty computation from fixed-key block ciphers", S&P 2020),
  ``H(x, t) = π(σ(x) ⊕ t) ⊕ σ(x)``: ``x = q_i xor b s`` on the sender and
  ``t_i`` on the receiver, ``σ(x_L ‖ x_R) = (x_L ⊕ x_R) ‖ x_L`` on the two
  64-bit halves, and the tweak ``t = domain ‖ i ‖ b ‖ k`` (3 bytes, u64, u8,
  u32, big-endian) for the ``k``-th 16-byte block of the pad, so a message of
  ``ℓ`` bytes takes ``⌈ℓ/16⌉`` blocks.  ``π`` is AES-128 under a public,
  fixed key (:func:`repro.crypto.hashes.fixed_key_permutation`) — the same
  for everyone, never a secret.  IKNP needs the pad hash to be correlation
  robust, because the sender's two inputs of every row differ by the one
  secret ``s``; ``H`` is, with ``π`` an ideal permutation (free-XOR's rows
  need the stronger *circular* version: :mod:`repro.crypto.garbled`).  The
  tweak's index keeps every pad of a pool on its own input, and, as Guo et al. note, the
  bound is multi-instance — it weakens with the total number of ``π`` calls
  made under the one key, over every pool at once.  A batch's pads are one
  ``π`` call: ``2·m·⌈ℓ/16⌉`` blocks on the sender, ``m·⌈ℓ/16⌉`` on the
  receiver, which first refuses a pairs frame whose messages are not all of
  one length.  ``i`` is the global index, so a pad is a function of
  ``(pool, i, b)`` alone: encrypting two different batches over the same
  index would reuse it.  Nothing else can — rows of distinct indices are
  distinct stream positions under distinct tweaks — which is why the
  sender's :meth:`~OtExtensionSenderState.claim` ledger, refusing any
  overlap with an already-extended range, is all the replay protection the
  extension needs.

  *The ceiling.*  The index travels as the frame's ``u32 start_index``, so a
  pool serves :data:`TRANSFER_INDEX_LIMIT` transfers (16 M topic emails at
  B' = 10 and 27-bit scores).  ``allocate`` and ``claim`` refuse a batch that
  would cross it, reserving nothing, and the serving layer replaces the pool
  with one fresh handshake shortly before
  (``MailboxDirectory.pool_for_new_jobs``).

Each party of each variant is an explicit frame-driven state machine
(:class:`BaseOtSenderMachine`, :class:`IknpReceiverMachine`, ...): it reacts
to typed wire frames (:mod:`repro.twopc.wire`) with response frames and never
blocks, so the machines compose into the larger Yao sessions of
:mod:`repro.crypto.yao` and multiplex across concurrent email sessions.
:class:`ObliviousTransfer` remains the in-process driver: it pumps a
sender/receiver machine pair over a framed channel, which is also how the
byte costs of an OT batch are measured.
"""

from __future__ import annotations

import hashlib
from dataclasses import dataclass, field
from functools import cached_property

import numpy as np

from repro.crypto.dh import DHGroup, DHKeyPair, FixedBase
from repro.crypto.hashes import fixed_key_permutation, sha256
from repro.crypto.prg import prf
from repro.exceptions import OTError
from repro.twopc.session import (
    ProtocolSession,
    _restore_base_fields,
    decode_state_payload,
    encode_state_payload,
    run_session_pair,
)
from repro.twopc.transport import FramedChannel
from repro.twopc.wire import (
    Frame,
    OtCipherPairsFrame,
    OtExtColumnsFrame,
    OtExtPairsFrame,
    OtPublicsFrame,
    OtResponsesFrame,
    SessionState,
    SessionStateKind,
)
from repro.utils.bitops import bits_to_bytes, bytes_to_bits, xor_bytes
from repro.utils.rand import secure_bytes

SECURITY_PARAMETER = 128  # number of base OTs backing the extension
ROW_BYTES = SECURITY_PARAMETER // 8
# Transfers per expanded block of a column stream.  Sized from the traffic, not
# tunable: an email takes 64 (spam) or 320 (topics, B' = 10) transfers, a
# block costs ~0.3 ms per stream to build whatever its size from 1 024 to
# 8 192, and the smallest keeps a pair's first email (which builds one per
# stream) and a pool's resident memory (two 16 KB blocks per stream) low.
CHUNK_TRANSFERS = 1024
RESIDENT_CHUNKS = 2
# ``OtExtColumnsFrame.start_index`` is a u32 on the wire.
TRANSFER_INDEX_LIMIT = 1 << 32


# ---------------------------------------------------------------------------
# Base OT (Chou–Orlandi, DH-based)
# ---------------------------------------------------------------------------
def _base_ot_key(
    group: DHGroup, index: int, encoded_public: bytes, response: int, shared: int
) -> bytes:
    """``H(i, A, B_i, shared)``: the key of one message of transfer *index*."""
    return sha256(
        b"base-ot-key",
        index.to_bytes(4, "big"),
        encoded_public,
        group.encode_element(response),
        group.encode_element(shared),
    )


def base_ot_batch_respond(
    group: DHGroup, sender_public: int, choices: list[int]
) -> tuple[list[int], list[bytes]]:
    """Receiver step: the responses ``B_i`` and the key of every chosen message."""
    if not group.is_valid_element(sender_public):
        raise OTError("base OT sender share failed validation")
    public_table = FixedBase(group, sender_public)
    encoded_public = group.encode_element(sender_public)
    responses, keys = [], []
    for index, choice in enumerate(choices):
        b = group.random_exponent()
        response = group.generator_power(b)
        if choice:
            response = sender_public * response % group.p
        responses.append(response)
        keys.append(_base_ot_key(group, index, encoded_public, response, public_table.power(b)))
    return responses, keys


def _ot_encrypt(key: bytes, message: bytes, index: int) -> bytes:
    pad = prf(key, b"base-ot-pad" + index.to_bytes(4, "big"), len(message))
    return xor_bytes(pad, message)


def base_ot_batch_send(
    keypair: DHKeyPair, message_pairs: list[tuple[bytes, bytes]], responses: list[int]
) -> list[tuple[bytes, bytes]]:
    """Sender step: encrypt every message pair under the keys its response derives."""
    if len(message_pairs) != len(responses):
        raise OTError("base OT response count does not match the transfer batch")
    group, a = keypair.group, keypair.secret
    encoded_public = group.encode_element(keypair.public)
    # Choice 1 shares (B / A)^a = B^a · (A^a)^-1: one inverse serves the batch.
    unmask = pow(group.power(keypair.public, a), -1, group.p)
    encrypted = []
    for index, ((m0, m1), response) in enumerate(zip(message_pairs, responses)):
        # ``a`` serves every transfer, so an order-1 or order-2 response
        # (whose ``B^a`` is 1, or leaks a's parity) is refused with the range.
        if not 1 < response < group.p - 1:
            raise OTError("base OT receiver response out of range")
        shared0 = group.power(response, a)
        key0 = _base_ot_key(group, index, encoded_public, response, shared0)
        key1 = _base_ot_key(group, index, encoded_public, response, shared0 * unmask % group.p)
        encrypted.append((_ot_encrypt(key0, m0, index), _ot_encrypt(key1, m1, index)))
    return encrypted


# ---------------------------------------------------------------------------
# Frame-driven party state machines
# ---------------------------------------------------------------------------
def _transpose_columns(matrix: bytes, count: int) -> bytes:
    """Rows of the kappa x *count* bit matrix whose columns are concatenated in *matrix*.

    Column ``j`` keeps bit ``i`` at ``(column[i // 8] >> (i % 8)) & 1``; row
    ``i`` comes back as ``kappa / 8`` bytes with bit ``j`` at the same
    little-endian position, rows concatenated.
    """
    columns = np.frombuffer(matrix, dtype=np.uint8).reshape(SECURITY_PARAMETER, -1)
    bits = np.unpackbits(columns, axis=1, count=count, bitorder="little")
    return np.packbits(bits.T, axis=1, bitorder="little").tobytes()


def _row_block(matrix: bytes, count: int) -> np.ndarray:
    """:func:`_transpose_columns` as a read-only ``(count, kappa / 8)`` array."""
    return np.frombuffer(_transpose_columns(matrix, count), dtype=np.uint8).reshape(
        count, ROW_BYTES
    )


class ColumnStream:
    """The ``kappa x N`` bit matrix a list of kappa seeds expands to, read by row.

    Column ``j`` is the byte stream ``SHAKE-256(seed_j || domain || chunk_no)``
    for ``chunk_no = 0, 1, ...`` (8 bytes, big-endian), each chunk
    :data:`CHUNK_TRANSFERS` bits long; transfer ``i`` owns bit ``i`` of every
    column — bit ``i % CHUNK_TRANSFERS`` of chunk ``i // CHUNK_TRANSFERS``,
    little-endian within a byte — so its row is ``kappa / 8`` bytes with
    column ``j`` at the same little-endian position.  ``i`` is the pool's
    *global* transfer index (0-based within a one-shot run): a batch is a row
    slice wherever it starts, in whatever order batches are asked for.

    A chunk is expanded for all seeds at once and transposed once into a
    ``(CHUNK_TRANSFERS, kappa / 8)`` row block; the :data:`RESIDENT_CHUNKS`
    most recently used blocks stay resident.  Everything here is a function
    of the seeds, so a stream is derived state — never snapshotted, pickled
    or compared — and a restored pool re-derives the same rows.

    The index space ends at :data:`TRANSFER_INDEX_LIMIT` (the width of the
    frame's ``start_index``); ``allocate`` and ``claim`` refuse a batch that
    would cross it, and the pair re-handshakes.
    """

    def __init__(self, seeds: list[bytes], domain: bytes) -> None:
        self._seeds = list(seeds)
        self._domain = domain
        self._chunks: dict[int, np.ndarray] = {}  # least recently used first

    def _chunk(self, number: int) -> np.ndarray:
        block = self._chunks.pop(number, None)
        if block is None:
            suffix = self._domain + number.to_bytes(8, "big")
            matrix = b"".join(
                [
                    hashlib.shake_256(seed + suffix).digest(CHUNK_TRANSFERS // 8)
                    for seed in self._seeds
                ]
            )
            block = _row_block(matrix, CHUNK_TRANSFERS)
        self._chunks[number] = block
        while len(self._chunks) > RESIDENT_CHUNKS:
            del self._chunks[next(iter(self._chunks))]
        return block

    def rows(self, start: int, count: int) -> np.ndarray:
        """Rows ``start .. start + count - 1`` as a read-only ``(count, kappa / 8)`` array."""
        first, last = start // CHUNK_TRANSFERS, (start + count - 1) // CHUNK_TRANSFERS
        blocks = [self._chunk(number) for number in range(first, last + 1)]
        block = blocks[0] if first == last else np.concatenate(blocks)
        offset = start - first * CHUNK_TRANSFERS
        return block[offset : offset + count]


class _DerivedStreams:
    """Mixin for a pool half: its cached streams are rebuilt on demand, never pickled."""

    def __getstate__(self) -> dict:
        return {
            name: value
            for name, value in self.__dict__.items()
            if not isinstance(value, ColumnStream)
        }


# One pad block's tweak: domain ‖ transfer index ‖ message bit ‖ block counter.
_TWEAK = np.dtype([("domain", "S3"), ("index", ">u8"), ("bit", "u1"), ("counter", ">u4")])
_BOTH_BITS = np.array([[0, 1]], dtype=np.uint8)  # the sender pads messages 0 and 1


def _pads(rows: np.ndarray, domain: bytes, start: int, bits: np.ndarray, length: int) -> np.ndarray:
    """``H(x, t) = π(σ(x) ⊕ t) ⊕ σ(x)`` for every row, cut to *length* bytes.

    *rows* is ``(m, c, kappa / 8)``: ``c`` rows for transfer ``start + i``,
    the ``j``-th padding message ``bits[i, j]``.  Returns ``(m, c, length)``
    pads from one call of the permutation over ``m·c·⌈length/16⌉`` blocks.
    """
    count, copies, _ = rows.shape
    blocks = -(-length // ROW_BYTES)
    half = ROW_BYTES // 2
    sigma = np.concatenate([rows[..., :half] ^ rows[..., half:], rows[..., :half]], axis=-1)
    tweaks = np.empty((count, copies, blocks), _TWEAK)
    tweaks["domain"] = domain
    tweaks["index"] = np.arange(start, start + count, dtype=np.uint64)[:, None, None]
    tweaks["bit"] = bits[..., None]
    tweaks["counter"] = np.arange(blocks, dtype=np.uint32)
    keys = tweaks.view(np.uint8).reshape(count, copies, blocks, ROW_BYTES) ^ sigma[:, :, None]
    permuted = np.frombuffer(fixed_key_permutation()(keys.tobytes()), np.uint8)
    pads = (permuted.reshape(keys.shape) ^ sigma[:, :, None]).reshape(count, copies, -1)
    return pads[..., :length]


def _extend_receiver(
    stream0: ColumnStream, stream1: ColumnStream, start: int, choices: list[int]
) -> tuple[bytes, ...]:
    """The U columns the receiver publishes: ``U_j = T_j XOR G_j XOR r``.

    ``T`` and ``G`` are the streams of the receiver's two seed lists; the
    sender holds one seed of each pair and rebuilds ``Q_j = T_j XOR s_j r``.
    """
    count = len(choices)
    selected = np.array(choices, dtype=np.uint8)[:, None] * np.uint8(0xFF)
    u_rows = stream0.rows(start, count) ^ stream1.rows(start, count) ^ selected
    bits = np.unpackbits(u_rows, axis=1, bitorder="little")
    return tuple(map(bytes, np.packbits(bits.T, axis=1, bitorder="little")))


def _extend_sender(
    columns: tuple[bytes, ...],
    stream: ColumnStream,
    s_bits: list[int],
    start: int,
    message_pairs: list[tuple[bytes, bytes]],
    length: int,
    domain: bytes,
) -> tuple[tuple[bytes, bytes], ...]:
    """Encrypt every message pair under the pads of its Q-matrix row (step 5)."""
    count = len(message_pairs)
    column_bytes = (count + 7) // 8
    if any(len(column) != column_bytes for column in columns):
        raise OTError("IKNP column length does not match the transfer batch")
    # Row i of Q is q_i = t_i XOR (r_i * s): this side's stream row, plus the
    # published u_i wherever s selected the other seed of the pair.  Pad 0
    # comes from q_i, pad 1 from q_i XOR s.
    s_row = np.frombuffer(bits_to_bytes(s_bits), dtype=np.uint8)
    rows0 = stream.rows(start, count) ^ (_row_block(b"".join(columns), count) & s_row)
    pads = _pads(np.stack([rows0, rows0 ^ s_row], axis=1), domain, start, _BOTH_BITS, length)
    messages = [message for pair in message_pairs for message in pair]
    encrypted = xor_bytes(pads.tobytes(), b"".join(messages))
    return tuple(
        (encrypted[at : at + length], encrypted[at + length : at + 2 * length])
        for at in range(0, len(encrypted), 2 * length)
    )


def _decrypt_chosen(
    t_rows: np.ndarray,
    choices: list[int],
    pairs: tuple[tuple[bytes, bytes], ...],
    domain: bytes,
    start: int,
) -> list[bytes]:
    """The receiver's last step: unpad the chosen message of every pair with its T row.

    Every message of the frame must have the first one's length: the pads of
    a batch are derived at one length, before any of them is computed.
    """
    length = len(pairs[0][0])
    if any(len(message) != length for pair in pairs for message in pair):
        raise OTError("IKNP message pairs are not all of one length")
    bits = np.array(choices, dtype=np.uint8)[:, None]
    pads = _pads(t_rows[:, None], domain, start, bits, length)
    chosen = [pair[choice] for pair, choice in zip(pairs, choices)]
    plain = xor_bytes(pads.tobytes(), b"".join(chosen))
    return [plain[at : at + length] for at in range(0, len(plain), length)]


_ONE_SHOT_DOMAIN = b"iknp-column"
_POOL_DOMAIN = b"iknp-pool-column"
# Pad tweak domains: one-shot runs index from 0, pools by global transfer index.
_ONE_SHOT_PAD = b"ot1"
_POOL_PAD = b"otp"


class OtMachine(ProtocolSession):
    """Common base: an OT party as a reentrant frame handler.

    ``result`` is the receiver's list of chosen messages (``None`` for a
    sender, and until the receiver finishes).  An empty batch finishes
    immediately without emitting any frames.
    """

    def __init__(self, group: DHGroup) -> None:
        super().__init__()
        self.group = group
        self.result: list[bytes] | None = None


class BaseOtSenderMachine(OtMachine):
    """Chou–Orlandi sender: one public key -> (responses) -> encrypted pairs."""

    def __init__(self, group: DHGroup, message_pairs: list[tuple[bytes, bytes]]) -> None:
        super().__init__(group)
        self.message_pairs = list(message_pairs)
        self._keypair: DHKeyPair | None = None

    def _start(self) -> list[Frame]:
        if not self.message_pairs:
            self.finished = True
            return []
        self._keypair = DHKeyPair.generate(self.group)
        return [OtPublicsFrame((self._keypair.public,))]

    def _handle(self, frame: Frame) -> list[Frame]:
        if not isinstance(frame, OtResponsesFrame):
            return self._unexpected(frame)
        encrypted = base_ot_batch_send(self._keypair, self.message_pairs, list(frame.elements))
        self.finished = True
        return [OtCipherPairsFrame(tuple(encrypted))]


class BaseOtReceiverMachine(OtMachine):
    """Chou–Orlandi receiver: (one public key) -> responses -> (pairs) -> messages."""

    def __init__(self, group: DHGroup, choices: list[int]) -> None:
        super().__init__(group)
        self.choices = list(choices)
        self._keys: list[bytes] = []

    def _start(self) -> list[Frame]:
        if not self.choices:
            self.result = []
            self.finished = True
        return []

    def _handle(self, frame: Frame) -> list[Frame]:
        if isinstance(frame, OtPublicsFrame):
            if self._keys:
                raise OTError("base OT sender's publics arrived twice")
            if len(frame.elements) != 1:
                raise OTError("base OT publics frame must carry exactly one sender key")
            responses, self._keys = base_ot_batch_respond(
                self.group, frame.elements[0], self.choices
            )
            return [OtResponsesFrame(tuple(responses))]
        if isinstance(frame, OtCipherPairsFrame):
            if not self._keys:
                raise OTError("base OT pairs arrived before the sender's publics")
            if len(frame.pairs) != len(self.choices):
                raise OTError("base OT pair count does not match the transfer batch")
            self.result = [
                _ot_encrypt(key, pair[choice], index)
                for index, (pair, choice, key) in enumerate(
                    zip(frame.pairs, self.choices, self._keys)
                )
            ]
            self.finished = True
            return []
        return self._unexpected(frame)


class IknpSenderMachine(OtMachine):
    """IKNP extension sender.

    Acts as base-OT *receiver* (choice vector ``s``) for the seed transfer,
    then turns the receiver's U-columns into its Q matrix and encrypts every
    message pair under row-derived pads (step 5 of the construction).
    """

    def __init__(self, group: DHGroup, message_pairs: list[tuple[bytes, bytes]]) -> None:
        super().__init__(group)
        self.message_pairs = list(message_pairs)
        if self.message_pairs:
            self.message_length = len(self.message_pairs[0][0])
            for m0, m1 in self.message_pairs:
                if len(m0) != self.message_length or len(m1) != self.message_length:
                    raise OTError("IKNP requires equal-length messages")
        self._kappa = SECURITY_PARAMETER
        self._s_bits = bytes_to_bits(secure_bytes(self._kappa // 8), self._kappa)
        self._base = BaseOtReceiverMachine(group, self._s_bits)
        self._seeds: list[bytes] | None = None

    def _start(self) -> list[Frame]:
        if not self.message_pairs:
            self.finished = True
            return []
        return self._base.start()

    def _handle(self, frame: Frame) -> list[Frame]:
        if isinstance(frame, (OtPublicsFrame, OtCipherPairsFrame)):
            frames = self._base.handle(frame)
            if self._base.finished:
                self._seeds = self._base.result
            return frames
        if isinstance(frame, OtExtColumnsFrame):
            if self._seeds is None:
                raise OTError("IKNP columns arrived before the seed base OTs completed")
            if len(frame.columns) != self._kappa:
                raise OTError("IKNP column count does not match the security parameter")
            encrypted_pairs = _extend_sender(
                frame.columns,
                ColumnStream(self._seeds, _ONE_SHOT_DOMAIN),
                self._s_bits,
                0,
                self.message_pairs,
                self.message_length,
                _ONE_SHOT_PAD,
            )
            self.finished = True
            return [OtExtPairsFrame(encrypted_pairs)]
        return self._unexpected(frame)


class IknpReceiverMachine(OtMachine):
    """IKNP extension receiver.

    Initiates the reverse-direction seed base OTs (it is the base *sender*
    with :data:`SECURITY_PARAMETER` fresh seed pairs), publishes its
    U-columns, and finally decrypts the chosen message of every pair with
    pads derived from its T-matrix rows.
    """

    def __init__(self, group: DHGroup, choices: list[int]) -> None:
        super().__init__(group)
        self.choices = list(choices)
        self._kappa = SECURITY_PARAMETER
        self._seed_pairs = [
            (secure_bytes(16), secure_bytes(16)) for _ in range(self._kappa)
        ]
        self._base = BaseOtSenderMachine(group, self._seed_pairs)
        self._stream0: ColumnStream | None = None

    def _start(self) -> list[Frame]:
        if not self.choices:
            self.result = []
            self.finished = True
            return []
        return self._base.start()

    def _handle(self, frame: Frame) -> list[Frame]:
        if isinstance(frame, OtResponsesFrame):
            frames = self._base.handle(frame)
            # The seed transfer is done from this party's side; expand both
            # seeds of every pair and publish U = T XOR G XOR r.
            self._stream0 = ColumnStream([seed0 for seed0, _ in self._seed_pairs], _ONE_SHOT_DOMAIN)
            stream1 = ColumnStream([seed1 for _, seed1 in self._seed_pairs], _ONE_SHOT_DOMAIN)
            u_columns = _extend_receiver(self._stream0, stream1, 0, self.choices)
            return frames + [OtExtColumnsFrame(u_columns)]
        if isinstance(frame, OtExtPairsFrame):
            if self._stream0 is None:
                raise OTError("IKNP pairs arrived before the seed base OTs completed")
            if len(frame.pairs) != len(self.choices):
                raise OTError("IKNP pair count does not match the transfer batch")
            self.result = _decrypt_chosen(
                self._stream0.rows(0, len(self.choices)),
                self.choices,
                frame.pairs,
                _ONE_SHOT_PAD,
                0,
            )
            self.finished = True
            return []
        return self._unexpected(frame)


# ---------------------------------------------------------------------------
# Persistent OT extension (the amortised IKNP usage)
#
# IKNP's whole point is that the expensive base OTs run *once* per party pair
# and are then stretched, with symmetric operations only, for as many
# transfers as all later executions need.  The pool below is that pair-level
# state: the extension sender keeps its secret column-choice vector ``s`` and
# the kappa received seeds; the receiver keeps the kappa seed pairs and a
# global transfer counter.  Every seed is one :class:`ColumnStream` indexed by
# that counter, so a batch is a row slice of the pool's matrix: concurrent
# sessions of the same pair can extend in any arrival order, and every pad is
# bound to a globally unique transfer index.
#
# Reusing ``s`` across extensions is the standard amortised IKNP deployment
# (passively secure, like the rest of this prototype).
# ---------------------------------------------------------------------------
@dataclass
class OtExtensionSenderState(_DerivedStreams):
    """The extension sender's half of the pair state (holds ``s`` + seeds).

    ``next_index`` is a high-water mark mirroring the receiver's allocation
    counter; ``claimed`` records every transfer-index range this sender has
    already extended.  Both are pad cursors that must survive a process
    restart (they ride in the pool's :class:`~repro.twopc.wire.SessionState`
    snapshot): pads are bound to global transfer indices, and encrypting two
    different message batches under the same index would hand an adversary
    the XOR of the two — which is exactly what a replayed columns frame
    tries to provoke, so :meth:`claim` rejects overlaps outright.
    """

    s_bits: list[int]
    seed_keys: list[bytes]
    next_index: int = 0
    claimed: list[tuple[int, int]] = field(default_factory=list)

    @cached_property
    def stream(self) -> ColumnStream:
        return ColumnStream(self.seed_keys, _POOL_DOMAIN)

    def claim(self, start: int, count: int) -> None:
        """Reserve ``[start, start + count)``; reject any overlap as a replay."""
        if start < 0:
            raise OTError("IKNP extension batch starts at a negative transfer index")
        if count <= 0:
            return
        end = start + count
        if end > TRANSFER_INDEX_LIMIT:
            raise OTError("IKNP extension batch runs past the pool's last transfer index")
        for begin, length in self.claimed:
            if start < begin + length and begin < end:
                raise OTError(
                    "IKNP extension batch overlaps already-extended transfer "
                    "indices (replayed or forged columns would reuse pads)"
                )
        self.claimed.append((start, count))
        self._coalesce()
        self.next_index = max(self.next_index, end)

    def _coalesce(self) -> None:
        """Merge adjacent claimed ranges so the ledger stays O(holes)."""
        self.claimed.sort()
        merged: list[tuple[int, int]] = []
        for begin, length in self.claimed:
            if merged and merged[-1][0] + merged[-1][1] == begin:
                merged[-1] = (merged[-1][0], merged[-1][1] + length)
            else:
                merged.append((begin, length))
        self.claimed = merged


@dataclass
class OtExtensionReceiverState(_DerivedStreams):
    """The extension receiver's half of the pair state (holds the seed pairs)."""

    seed_pairs: list[tuple[bytes, bytes]]
    next_index: int = 0

    @cached_property
    def stream0(self) -> ColumnStream:
        return ColumnStream([seed0 for seed0, _ in self.seed_pairs], _POOL_DOMAIN)

    @cached_property
    def stream1(self) -> ColumnStream:
        return ColumnStream([seed1 for _, seed1 in self.seed_pairs], _POOL_DOMAIN)

    @property
    def remaining(self) -> int:
        """Transfer indices this pool can still hand out."""
        return TRANSFER_INDEX_LIMIT - self.next_index

    def allocate(self, count: int) -> int:
        """Reserve *count* globally unique transfer indices for one batch.

        Refuses, reserving nothing, a batch that would leave the index range
        the wire can address: the pair needs a fresh pool.
        """
        if count > self.remaining:
            raise OTError("OT extension pool has run out of transfer indices")
        start = self.next_index
        self.next_index += count
        return start


# 2: a pool's seeds are read as column streams indexed by the global transfer
# index (version 1 re-keyed a PRG per batch) — same payload layout, other rows;
# 3: pads are fixed-key AES hashes (version 2: SHA-256) — same rows, other pads.
OT_POOL_STATE_VERSION = 3


@dataclass
class OtExtensionPool:
    """Both halves of one directional pair's persistent extension state.

    In a deployment each party holds only its own half; keeping the two
    halves in one object mirrors the in-process arrangement of the rest of
    the repository.  ``ready`` becomes true after :func:`initialize_ot_pool`
    has run the one-time base OTs.

    The pool is pair-level state exactly like the encrypted model, so it is
    part of the session-persistence contract: :meth:`snapshot` captures the
    seeds and pad cursors as an ``OT_POOL`` :class:`SessionState`, and
    :meth:`restore` rebuilds a pool whose later extensions are bit-identical
    — which is what lets in-flight Yao rounds survive a worker restart.
    """

    sender_state: OtExtensionSenderState | None = None
    receiver_state: OtExtensionReceiverState | None = None

    @property
    def ready(self) -> bool:
        return self.sender_state is not None and self.receiver_state is not None

    def snapshot(self) -> SessionState:
        sender = None
        if self.sender_state is not None:
            sender = {
                "kappa": len(self.sender_state.s_bits),
                "s_bits": bits_to_bytes(self.sender_state.s_bits),
                "seed_keys": list(self.sender_state.seed_keys),
                "next_index": self.sender_state.next_index,
                "claimed": [[begin, length] for begin, length in self.sender_state.claimed],
            }
        receiver = None
        if self.receiver_state is not None:
            receiver = {
                "seed_pairs": [
                    [seed0, seed1] for seed0, seed1 in self.receiver_state.seed_pairs
                ],
                "next_index": self.receiver_state.next_index,
            }
        return SessionState(
            kind=SessionStateKind.OT_POOL,
            version=OT_POOL_STATE_VERSION,
            payload=encode_state_payload(sender=sender, receiver=receiver),
        )

    @classmethod
    def restore(cls, state: SessionState) -> "OtExtensionPool":
        payload = decode_state_payload(state, SessionStateKind.OT_POOL, OT_POOL_STATE_VERSION)
        sender_state = None
        if payload["sender"] is not None:
            sender = payload["sender"]
            sender_state = OtExtensionSenderState(
                s_bits=bytes_to_bits(sender["s_bits"], sender["kappa"]),
                seed_keys=list(sender["seed_keys"]),
                next_index=sender["next_index"],
                claimed=[(begin, length) for begin, length in sender["claimed"]],
            )
        receiver_state = None
        if payload["receiver"] is not None:
            receiver = payload["receiver"]
            receiver_state = OtExtensionReceiverState(
                seed_pairs=[(seed0, seed1) for seed0, seed1 in receiver["seed_pairs"]],
                next_index=receiver["next_index"],
            )
        return cls(sender_state=sender_state, receiver_state=receiver_state)


def initialize_ot_pool(
    group: DHGroup,
    channel: FramedChannel | None = None,
    sender_name: str = "sender",
    receiver_name: str = "receiver",
) -> OtExtensionPool:
    """Run the one-time seed base OTs for a party pair and return the pool.

    *sender_name* / *receiver_name* are the channel parties acting as
    extension sender (the Yao garbler side) and receiver.  The handshake
    costs :data:`SECURITY_PARAMETER` base OTs — a pair-setup expense on the
    order of shipping the encrypted model, amortised over every later email.
    """
    channel = channel or FramedChannel.loopback(
        "ot-pool", parties=(sender_name, receiver_name)
    )
    kappa = SECURITY_PARAMETER
    s_bits = bytes_to_bits(secure_bytes(kappa // 8), kappa)
    seed_pairs = [(secure_bytes(16), secure_bytes(16)) for _ in range(kappa)]
    # The extension *sender* is the base-OT receiver of the seeds (and vice
    # versa), exactly as inside a one-shot IKNP run.
    seed_receiver = BaseOtReceiverMachine(group, s_bits)
    seed_sender = BaseOtSenderMachine(group, seed_pairs)
    run_session_pair(channel, {sender_name: seed_receiver, receiver_name: seed_sender})
    assert seed_receiver.result is not None
    return OtExtensionPool(
        sender_state=OtExtensionSenderState(s_bits=s_bits, seed_keys=seed_receiver.result),
        receiver_state=OtExtensionReceiverState(seed_pairs=seed_pairs),
    )


class PooledIknpSenderMachine(OtMachine):
    """IKNP sender against persistent pair state: no base OTs, columns in."""

    def __init__(
        self,
        group: DHGroup,
        message_pairs: list[tuple[bytes, bytes]],
        state: OtExtensionSenderState,
    ) -> None:
        super().__init__(group)
        self.message_pairs = list(message_pairs)
        self.state = state
        if self.message_pairs:
            self.message_length = len(self.message_pairs[0][0])
            for m0, m1 in self.message_pairs:
                if len(m0) != self.message_length or len(m1) != self.message_length:
                    raise OTError("IKNP requires equal-length messages")

    def _start(self) -> list[Frame]:
        if not self.message_pairs:
            self.finished = True
        return []

    # 2: a restored machine pads with fixed-key AES hashes (1: SHA-256).
    POOLED_OT_STATE_VERSION = 2

    def snapshot(self) -> SessionState:
        return SessionState(
            kind=SessionStateKind.POOLED_OT_SENDER,
            version=self.POOLED_OT_STATE_VERSION,
            payload=encode_state_payload(
                started=self.started,
                finished=self.finished,
                seconds=self.seconds,
                message_pairs=[[m0, m1] for m0, m1 in self.message_pairs],
            ),
        )

    @classmethod
    def restore(
        cls, group: DHGroup, state: SessionState, pool_state: OtExtensionSenderState
    ) -> "PooledIknpSenderMachine":
        payload = decode_state_payload(
            state, SessionStateKind.POOLED_OT_SENDER, cls.POOLED_OT_STATE_VERSION
        )
        machine = cls(
            group,
            [(m0, m1) for m0, m1 in payload["message_pairs"]],
            pool_state,
        )
        _restore_base_fields(machine, payload)
        return machine

    def _handle(self, frame: Frame) -> list[Frame]:
        if not isinstance(frame, OtExtColumnsFrame):
            return self._unexpected(frame)
        if len(frame.columns) != SECURITY_PARAMETER:
            raise OTError("IKNP column count does not match the security parameter")
        count = len(self.message_pairs)
        start = frame.start_index
        self.state.claim(start, count)
        encrypted_pairs = _extend_sender(
            frame.columns,
            self.state.stream,
            self.state.s_bits,
            start,
            self.message_pairs,
            self.message_length,
            _POOL_PAD,
        )
        self.finished = True
        return [OtExtPairsFrame(encrypted_pairs)]


class PooledIknpReceiverMachine(OtMachine):
    """IKNP receiver against persistent pair state: allocate, extend, decrypt."""

    def __init__(
        self, group: DHGroup, choices: list[int], state: OtExtensionReceiverState
    ) -> None:
        super().__init__(group)
        self.choices = list(choices)
        self.state = state
        self._start_index = 0

    def _start(self) -> list[Frame]:
        if not self.choices:
            self.result = []
            self.finished = True
            return []
        self._start_index = self.state.allocate(len(self.choices))
        u_columns = _extend_receiver(
            self.state.stream0, self.state.stream1, self._start_index, self.choices
        )
        return [OtExtColumnsFrame(u_columns, start_index=self._start_index)]

    # 2: a restored machine pads with fixed-key AES hashes (1: SHA-256).
    POOLED_OT_STATE_VERSION = 2

    def snapshot(self) -> SessionState:
        return SessionState(
            kind=SessionStateKind.POOLED_OT_RECEIVER,
            version=self.POOLED_OT_STATE_VERSION,
            payload=encode_state_payload(
                started=self.started,
                finished=self.finished,
                seconds=self.seconds,
                count=len(self.choices),
                choices=bits_to_bytes(self.choices) if self.choices else b"",
                start_index=self._start_index,
                result=None if self.result is None else list(self.result),
            ),
        )

    @classmethod
    def restore(
        cls, group: DHGroup, state: SessionState, pool_state: OtExtensionReceiverState
    ) -> "PooledIknpReceiverMachine":
        payload = decode_state_payload(
            state, SessionStateKind.POOLED_OT_RECEIVER, cls.POOLED_OT_STATE_VERSION
        )
        count = payload["count"]
        choices = bytes_to_bits(payload["choices"], count) if count else []
        machine = cls(group, choices, pool_state)
        _restore_base_fields(machine, payload)
        machine._start_index = payload["start_index"]
        if payload["result"] is not None:
            machine.result = list(payload["result"])
        return machine

    def _handle(self, frame: Frame) -> list[Frame]:
        if not isinstance(frame, OtExtPairsFrame):
            return self._unexpected(frame)
        if len(frame.pairs) != len(self.choices):
            raise OTError("IKNP pair count does not match the transfer batch")
        # The T rows are read back from the pool's stream rather than kept:
        # the seeds and the batch's start index pin them, so a machine
        # restored mid-flight decrypts with the same rows and re-reserves
        # nothing.
        self.result = _decrypt_chosen(
            self.state.stream0.rows(self._start_index, len(self.choices)),
            self.choices,
            frame.pairs,
            _POOL_PAD,
            self._start_index,
        )
        self.finished = True
        return []


def make_ot_sender(
    group: DHGroup,
    message_pairs: list[tuple[bytes, bytes]],
    mode: str = "iknp",
    pool: OtExtensionPool | None = None,
) -> OtMachine:
    """Build the sender-side machine for the given OT flavour.

    A ready *pool* (``mode="iknp"`` only) selects the persistent-extension
    machine: no base OTs, one round of symmetric work per batch.
    """
    if mode == "base":
        return BaseOtSenderMachine(group, message_pairs)
    if mode == "iknp":
        if pool is not None and pool.ready:
            return PooledIknpSenderMachine(group, message_pairs, pool.sender_state)
        return IknpSenderMachine(group, message_pairs)
    raise OTError(f"unknown OT mode {mode!r}")


def make_ot_receiver(
    group: DHGroup,
    choices: list[int],
    mode: str = "iknp",
    pool: OtExtensionPool | None = None,
) -> OtMachine:
    """Build the receiver-side machine for the given OT flavour."""
    if mode == "base":
        return BaseOtReceiverMachine(group, choices)
    if mode == "iknp":
        if pool is not None and pool.ready:
            return PooledIknpReceiverMachine(group, choices, pool.receiver_state)
        return IknpReceiverMachine(group, choices)
    raise OTError(f"unknown OT mode {mode!r}")


# ---------------------------------------------------------------------------
# Whole-protocol driver (pumps both machines in-process over a framed channel)
# ---------------------------------------------------------------------------
class ObliviousTransfer:
    """Batch 1-out-of-2 OT of fixed-length messages.

    ``mode="base"`` runs one DH-based OT per transfer; ``mode="iknp"`` runs
    :data:`SECURITY_PARAMETER` base OTs and extends.  :meth:`run` drives a
    sender and a receiver machine over a framed *channel*, so every byte that
    would cross the network is serialized and accounted exactly as in a real
    deployment.
    """

    def __init__(self, group: DHGroup, mode: str = "iknp") -> None:
        if mode not in ("base", "iknp"):
            raise OTError(f"unknown OT mode {mode!r}")
        self.group = group
        self.mode = mode

    def run(
        self,
        channel: FramedChannel | None,
        sender_pairs: list[tuple[bytes, bytes]],
        receiver_choices: list[int],
        sender_name: str = "sender",
        receiver_name: str = "receiver",
    ) -> list[bytes]:
        if len(sender_pairs) != len(receiver_choices):
            raise OTError("sender and receiver disagree on the number of transfers")
        if not sender_pairs:
            return []
        channel = channel or FramedChannel.loopback(
            "ot", parties=(sender_name, receiver_name)
        )
        sender = make_ot_sender(self.group, sender_pairs, self.mode)
        receiver = make_ot_receiver(self.group, receiver_choices, self.mode)
        run_session_pair(channel, {sender_name: sender, receiver_name: receiver})
        assert receiver.result is not None
        return receiver.result
