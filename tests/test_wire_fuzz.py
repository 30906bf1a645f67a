"""Adversarial wire-format fuzzing: `WireCodec.decode` is a trust boundary.

Frames arrive from the peer — a deployed provider decodes bytes written by
arbitrary clients — so decoding must be total over byte strings: for ANY
input it either raises :class:`~repro.exceptions.WireFormatError` or returns
a frame whose re-encoding decodes to the same frame (idempotence).  Anything
else — ``IndexError``, ``struct.error``, ``ValueError``, a numpy shape error,
a hang — is an escape an adversary can aim at the serving loop.

Three generators, all seeded (export ``WIRE_FUZZ_SEED`` to reproduce a CI
failure; every assertion message carries the seed):

* random byte strings, with and without a valid header prefix;
* truncations of valid frames at **every** prefix length (a strict prefix
  must never decode — the parser consumes the full frame exactly);
* single-bit flips of valid frames, exhaustively for the small frames and
  seeded-sampled for the multi-kilobyte ciphertext frames.

Ciphertext frames are fuzzed in both blob forms the XPIR-BV codec reads: the
whole ciphertext and the score sample (``c1`` plus one slot run of ``c0``).

The whole suite is marked ``fuzz`` so CI can run it as its own job
(``pytest -m fuzz``) with a fresh seed per run.
"""

import os
import random
import struct

import numpy as np
import pytest

from repro.exceptions import WireFormatError
from repro.twopc.wire import (
    WIRE_MAGIC,
    WIRE_VERSION,
    BlindedScoresFrame,
    ClassifyResultFrame,
    ControlFrame,
    ControlVerb,
    ExtractedCandidatesFrame,
    FeaturesFrame,
    FrameType,
    GarbledCircuitFrame,
    OtCipherPairsFrame,
    OtExtColumnsFrame,
    OtExtPairsFrame,
    OtPublicsFrame,
    OtResponsesFrame,
    OutputLabelsFrame,
    SessionState,
    SessionStateFrame,
    SessionStateKind,
    WireCodec,
)

pytestmark = pytest.mark.fuzz

FUZZ_SEED = int(os.environ.get("WIRE_FUZZ_SEED", "20260728"))

ALL_FRAME_TYPES = [
    value for name, value in vars(FrameType).items() if not name.startswith("_")
]

schemeless_codec = WireCodec()


def _score_samples(scheme, keys):
    """Two honest score samples: a candidate's run of 1 and a two-slot run."""
    source = scheme.encrypt_slots(keys.public, [7, 11, 13])
    n = scheme.num_slots
    return tuple(
        scheme.blind_samples(
            keys.public, [source], [0, 0], [n - 1, 0], [(n - 1, 1), (1, 2)], np.array([5, 6, 7])
        )
    )


def _valid_frames():
    """One representative valid frame per schemeless frame type."""
    from repro.crypto.garbled import LABEL_BYTES, GarbledTables

    return [
        OtPublicsFrame((1, 255, 2**40, 0)),
        OtResponsesFrame((17,)),
        OtCipherPairsFrame(((b"x", b"yz"), (b"", b"abc"))),
        OtExtPairsFrame(((b"\x00" * 16, b"\xff" * 16),)),
        OtExtColumnsFrame((b"ab", b"", b"column-three"), start_index=7),
        OutputLabelsFrame((bytes(range(LABEL_BYTES)), b"\x42" * LABEL_BYTES)),
        FeaturesFrame(((1, 2), (3, 4), (0xFFFFFFFF, 0))),
        ClassifyResultFrame(5),
        GarbledCircuitFrame(
            tables=GarbledTables(
                positions=(3, 9),
                rows=b"".join(bytes([i]) * LABEL_BYTES for i in range(8)),
                output_decode=[(b"\xaa" * LABEL_BYTES, b"\xbb" * LABEL_BYTES)],
            ),
            garbler_labels=(b"\xcc" * LABEL_BYTES,),
            decode_at_evaluator=True,
        ),
        SessionStateFrame(
            SessionState(
                kind=SessionStateKind.OT_POOL, version=1, payload=b"\x01\x02\x03\x04"
            )
        ),
        ControlFrame(
            verb=ControlVerb.COMMAND, version=1, payload=b"\x05\x06\x07\x08"
        ),
    ]


def _decode_never_escapes(codec, data: bytes, context: str):
    """Decode *data*; fail on any non-WireFormatError escape.

    Returns the decoded frame, or ``None`` if decoding (correctly) rejected
    the input.  On success the re-encoding must decode to the same bytes —
    accepted inputs must be stable under a decode/encode cycle, otherwise two
    honest parties could disagree about what crossed the wire.
    """
    try:
        frame = codec.decode(data)
    except WireFormatError:
        return None
    except Exception as error:  # noqa: BLE001 — the point of the suite
        pytest.fail(
            f"{context}: decode escaped with {type(error).__name__}: {error} "
            f"[WIRE_FUZZ_SEED={FUZZ_SEED}, data={data[:64].hex()}"
            f"{'...' if len(data) > 64 else ''}]"
        )
    try:
        first = codec.encode(frame)
        second = codec.encode(codec.decode(first))
    except WireFormatError as error:
        pytest.fail(
            f"{context}: decoded frame failed to re-encode/re-decode: {error} "
            f"[WIRE_FUZZ_SEED={FUZZ_SEED}, data={data[:64].hex()}]"
        )
    assert second == first, (
        f"{context}: decode/encode cycle is not idempotent "
        f"[WIRE_FUZZ_SEED={FUZZ_SEED}, data={data[:64].hex()}]"
    )
    return frame


class TestRandomBytes:
    def test_pure_random_bytes(self):
        rng = random.Random(FUZZ_SEED)
        for case in range(400):
            data = rng.randbytes(rng.randint(0, 300))
            _decode_never_escapes(schemeless_codec, data, f"random case {case}")

    def test_random_bodies_behind_valid_header(self):
        # Get past the magic/version/type gate so the body parsers see fuzz.
        rng = random.Random(FUZZ_SEED + 1)
        for case in range(600):
            frame_type = rng.choice(ALL_FRAME_TYPES + [rng.randrange(256)])
            data = bytes([WIRE_MAGIC, WIRE_VERSION, frame_type]) + rng.randbytes(
                rng.randint(0, 300)
            )
            _decode_never_escapes(
                schemeless_codec, data, f"headered case {case} (type 0x{frame_type:02x})"
            )

    def test_random_bodies_behind_ciphertext_header(self, bv_scheme, bv_keys):
        # Ciphertext frames delegate to the scheme codec; fuzz that path too.
        codec = WireCodec(scheme=bv_scheme, public_key=bv_keys.public)
        rng = random.Random(FUZZ_SEED + 2)
        for case in range(200):
            data = bytes([WIRE_MAGIC, WIRE_VERSION, FrameType.BLINDED_SCORES]) + rng.randbytes(
                rng.randint(0, 400)
            )
            _decode_never_escapes(codec, data, f"ciphertext-header case {case}")

    def test_random_bodies_behind_sample_header(self, bv_scheme, bv_keys):
        # Past the frame header, the blob length and the sample's own header
        # (valid, or with any of its fields drawn at random): the run checks
        # and the length check see fuzz before the residues do.
        codec = WireCodec(scheme=bv_scheme, public_key=bv_keys.public)
        rng = random.Random(FUZZ_SEED + 5)
        n, primes = bv_scheme.num_slots, len(bv_scheme.ring.primes)
        for case in range(300):
            length = rng.choice([0, 1, 2, n, n + 1, rng.randrange(2**32)])
            start = rng.choice([0, n - 1, n - length, n, rng.randrange(2**32)]) % 2**32
            header = struct.pack(
                ">IBII",
                rng.choice([n, n, n, 2 * n, rng.randrange(2**32)]),
                0x80 | rng.choice([primes, primes, primes, rng.randrange(128)]),
                start,
                length,
            )
            honest_size = bv_scheme.sample_size_bytes(length if length <= n else 1)
            size = rng.choice([honest_size - len(header), rng.randint(0, 400)])
            blob = header + rng.randbytes(size)
            data = (
                bytes([WIRE_MAGIC, WIRE_VERSION, FrameType.EXTRACTED_CANDIDATES])
                + struct.pack(">HI", 1, len(blob))
                + blob
            )
            _decode_never_escapes(codec, data, f"sample-header case {case}")


    def test_random_garbled_table_blocks(self):
        # Past the frame header and the tables blob's length: record counts,
        # positions (increasing or not) and decode counts drawn at random, so
        # the block decoder's count and order checks see fuzz.
        rng = random.Random(FUZZ_SEED + 8)
        for case in range(300):
            count = rng.choice([0, 1, 2, 5, rng.randrange(2**32)])
            positions = sorted(rng.sample(range(50), min(count, 5)))
            if rng.random() < 0.5:
                rng.shuffle(positions)
            records = b"".join(
                struct.pack(">I", position) + rng.randbytes(64) for position in positions
            )
            decode = rng.choice([0, 1, 2, rng.randrange(2**32)])
            tables = (
                struct.pack(">I", count)
                + records[: rng.choice([len(records), rng.randint(0, len(records))])]
                + struct.pack(">I", decode)
                + rng.randbytes(32 * rng.choice([0, 1, 2]))
            )
            data = (
                bytes([WIRE_MAGIC, WIRE_VERSION, FrameType.GARBLED_CIRCUIT])
                + struct.pack(">I", len(tables))
                + tables
                + struct.pack(">I", 1)
                + rng.randbytes(16)
                + b"\x01"
            )
            frame = _decode_never_escapes(schemeless_codec, data, f"garbled-table case {case}")
            if frame is not None:
                assert list(frame.tables.positions) == sorted(set(frame.tables.positions))
                assert len(frame.tables.rows) == 64 * len(frame.tables.positions)


class TestTruncatedFrames:
    @pytest.mark.parametrize(
        "frame", _valid_frames(), ids=lambda frame: type(frame).__name__
    )
    def test_every_strict_prefix_is_rejected(self, frame):
        encoded = schemeless_codec.encode(frame)
        for length in range(len(encoded)):
            with pytest.raises(WireFormatError):
                schemeless_codec.decode(encoded[:length])
            # A strict prefix never decodes: the parser consumes the whole
            # frame, so running out of bytes is detected before any output.

    def test_bv_frame_prefixes(self, bv_scheme, bv_keys):
        codec = WireCodec(scheme=bv_scheme, public_key=bv_keys.public)
        ciphertext = bv_scheme.encrypt_slots(bv_keys.public, [7, 11, 13])
        encoded = codec.encode(BlindedScoresFrame((ciphertext,)))
        rng = random.Random(FUZZ_SEED + 3)
        lengths = set(range(0, 64)) | {
            rng.randrange(len(encoded)) for _ in range(200)
        } | {len(encoded) - 1}
        for length in sorted(lengths):
            with pytest.raises(WireFormatError):
                codec.decode(encoded[:length])

    def test_bv_sample_frame_prefixes(self, bv_scheme, bv_keys):
        codec = WireCodec(scheme=bv_scheme, public_key=bv_keys.public)
        encoded = codec.encode(ExtractedCandidatesFrame(_score_samples(bv_scheme, bv_keys)))
        assert codec.encode(codec.decode(encoded)) == encoded
        rng = random.Random(FUZZ_SEED + 6)
        lengths = set(range(0, 64)) | {
            rng.randrange(len(encoded)) for _ in range(200)
        } | {len(encoded) - 1}
        for length in sorted(lengths):
            with pytest.raises(WireFormatError):
                codec.decode(encoded[:length])


class TestBitFlips:
    @pytest.mark.parametrize(
        "frame", _valid_frames(), ids=lambda frame: type(frame).__name__
    )
    def test_every_single_bit_flip(self, frame):
        encoded = bytearray(schemeless_codec.encode(frame))
        for bit in range(8 * len(encoded)):
            encoded[bit // 8] ^= 1 << (bit % 8)
            _decode_never_escapes(
                schemeless_codec, bytes(encoded), f"{type(frame).__name__} bit {bit}"
            )
            encoded[bit // 8] ^= 1 << (bit % 8)

    def test_sampled_bit_flips_of_bv_frame(self, bv_scheme, bv_keys):
        codec = WireCodec(scheme=bv_scheme, public_key=bv_keys.public)
        ciphertexts = tuple(
            bv_scheme.encrypt_slots(bv_keys.public, [index]) for index in range(2)
        )
        encoded = bytearray(codec.encode(BlindedScoresFrame(ciphertexts)))
        rng = random.Random(FUZZ_SEED + 4)
        bits = {rng.randrange(8 * len(encoded)) for _ in range(400)}
        # Always include the header and the length prefixes, the likeliest
        # places for a flip to redirect the parser.
        bits |= set(range(8 * 16))
        for bit in sorted(bits):
            encoded[bit // 8] ^= 1 << (bit % 8)
            _decode_never_escapes(codec, bytes(encoded), f"bv frame bit {bit}")
            encoded[bit // 8] ^= 1 << (bit % 8)

    def test_sampled_bit_flips_of_bv_sample_frame(self, bv_scheme, bv_keys):
        codec = WireCodec(scheme=bv_scheme, public_key=bv_keys.public)
        samples = _score_samples(bv_scheme, bv_keys)
        encoded = bytearray(codec.encode(ExtractedCandidatesFrame(samples)))
        rng = random.Random(FUZZ_SEED + 7)
        bits = {rng.randrange(8 * len(encoded)) for _ in range(400)}
        # Every bit of the frame header, the count, the first blob's length
        # and its sample header (form flag, run start, run length) — and of the
        # second blob's, where a flipped run can only disagree with the length.
        second = 3 + 2 + 4 + samples[0].size_bytes
        bits |= set(range(8 * (3 + 2 + 4 + 13))) | set(range(8 * second, 8 * (second + 4 + 13)))
        for bit in sorted(bits):
            encoded[bit // 8] ^= 1 << (bit % 8)
            _decode_never_escapes(codec, bytes(encoded), f"bv sample frame bit {bit}")
            encoded[bit // 8] ^= 1 << (bit % 8)
