"""Wire-codec tests: property-based roundtrips for every frame type plus a
pinned-bytes golden test that catches accidental format drift.

The frames are the system boundary (every protocol message crosses parties as
``codec.encode(frame)`` bytes), so two properties matter: *roundtrip* — frame
→ bytes → frame is bit-identical for arbitrary payloads — and *stability* —
the byte layout only changes together with :data:`repro.twopc.wire.WIRE_VERSION`.
"""

import numpy as np
import pytest
from hypothesis import given, settings, strategies as st

from repro.crypto.garbled import LABEL_BYTES, GarbledTables
from repro.exceptions import CircuitError, WireFormatError
from repro.twopc.wire import (
    WIRE_VERSION,
    BlindedScoresFrame,
    ClassifyResultFrame,
    ControlFrame,
    ControlVerb,
    ExtractedCandidatesFrame,
    FeaturesFrame,
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

codec = WireCodec()

elements = st.lists(st.integers(min_value=0, max_value=2**521), max_size=6).map(tuple)
blobs = st.binary(max_size=64)
pairs = st.lists(st.tuples(blobs, blobs), max_size=5).map(tuple)
labels = st.lists(st.binary(min_size=LABEL_BYTES, max_size=LABEL_BYTES), max_size=5).map(tuple)


class TestRoundTrips:
    @given(elements)
    @settings(max_examples=40, deadline=None)
    def test_ot_publics(self, values):
        assert codec.decode(codec.encode(OtPublicsFrame(values))) == OtPublicsFrame(values)

    @given(elements)
    @settings(max_examples=40, deadline=None)
    def test_ot_responses(self, values):
        assert codec.decode(codec.encode(OtResponsesFrame(values))) == OtResponsesFrame(values)

    @given(pairs)
    @settings(max_examples=40, deadline=None)
    def test_ot_cipherpairs(self, values):
        frame = OtCipherPairsFrame(values)
        assert codec.decode(codec.encode(frame)) == frame

    @given(pairs)
    @settings(max_examples=40, deadline=None)
    def test_ot_ext_pairs(self, values):
        frame = OtExtPairsFrame(values)
        assert codec.decode(codec.encode(frame)) == frame

    @given(st.lists(blobs, max_size=6).map(tuple), st.integers(min_value=0, max_value=2**32 - 1))
    @settings(max_examples=40, deadline=None)
    def test_ot_ext_columns(self, columns, start):
        frame = OtExtColumnsFrame(columns, start_index=start)
        decoded = codec.decode(codec.encode(frame))
        assert decoded == frame
        assert decoded.start_index == start

    @given(labels)
    @settings(max_examples=40, deadline=None)
    def test_output_labels(self, values):
        frame = OutputLabelsFrame(values)
        assert codec.decode(codec.encode(frame)) == frame

    @given(
        st.lists(
            st.tuples(
                st.integers(min_value=0, max_value=2**32 - 1),
                st.integers(min_value=0, max_value=2**32 - 1),
            ),
            max_size=8,
        ).map(tuple)
    )
    @settings(max_examples=40, deadline=None)
    def test_features(self, values):
        frame = FeaturesFrame(values)
        assert codec.decode(codec.encode(frame)) == frame

    @given(st.integers(min_value=0, max_value=2**32 - 1))
    @settings(max_examples=20, deadline=None)
    def test_classify_result(self, category):
        frame = ClassifyResultFrame(category)
        assert codec.decode(codec.encode(frame)) == frame

    @given(
        st.sampled_from(sorted(
            value for name, value in vars(ControlVerb).items() if not name.startswith("_")
        )),
        st.integers(min_value=0, max_value=255),
        blobs,
    )
    @settings(max_examples=40, deadline=None)
    def test_control(self, verb, version, payload):
        frame = ControlFrame(verb=verb, version=version, payload=payload)
        assert codec.decode(codec.encode(frame)) == frame

    @given(
        st.lists(st.integers(min_value=0, max_value=1000), unique=True, max_size=4),
        st.integers(min_value=0, max_value=3),
        labels,
        st.booleans(),
        st.randoms(use_true_random=False),
    )
    @settings(max_examples=25, deadline=None)
    def test_garbled_circuit(self, positions, outputs, garbler_labels, decode_flag, rnd):
        tables = GarbledTables(
            positions=tuple(sorted(positions)),
            rows=rnd.randbytes(4 * LABEL_BYTES * len(positions)),
            output_decode=[
                (rnd.randbytes(LABEL_BYTES), rnd.randbytes(LABEL_BYTES)) for _ in range(outputs)
            ],
        )
        frame = GarbledCircuitFrame(tables, garbler_labels, decode_flag)
        assert codec.decode(codec.encode(frame)) == frame


class TestGarbledTableBlock:
    """The garbled circuit travels as one row block keyed by increasing positions."""

    TABLES = GarbledTables(
        positions=(3, 9),
        rows=bytes(range(4 * LABEL_BYTES)) + bytes(4 * LABEL_BYTES),
        output_decode=[(b"\xaa" * LABEL_BYTES, b"\xbb" * LABEL_BYTES)],
    )

    @staticmethod
    def _with_positions(data: bytes, first: int, second: int) -> bytes:
        record = 4 + 4 * LABEL_BYTES
        patched = bytearray(data)
        patched[4:8], patched[4 + record : 8 + record] = first.to_bytes(4, "big"), second.to_bytes(4, "big")
        return bytes(patched)

    def test_the_layout_is_one_record_per_gate(self):
        data = self.TABLES.to_bytes()
        assert data[:4] == (2).to_bytes(4, "big")
        assert data[4:8] == (3).to_bytes(4, "big") and data[8:72] == self.TABLES.rows[:64]
        assert data[72:76] == (9).to_bytes(4, "big") and data[76:140] == self.TABLES.rows[64:]
        assert GarbledTables.from_bytes(data) == self.TABLES
        assert self.TABLES.size_bytes() == 2 * 4 * LABEL_BYTES + 2 * LABEL_BYTES

    @pytest.mark.parametrize("first,second", [(9, 3), (3, 3), (9, 9)])
    def test_positions_that_do_not_increase_are_refused(self, first, second):
        data = self._with_positions(self.TABLES.to_bytes(), first, second)
        with pytest.raises(WireFormatError, match="strictly increasing"):
            GarbledTables.from_bytes(data)
        assert GarbledTables.from_bytes(self._with_positions(data, 3, 4)).positions == (3, 4)

    @pytest.mark.parametrize("count", [3, 2**32 - 1])
    def test_a_record_count_larger_than_the_body_is_refused(self, count):
        data = count.to_bytes(4, "big") + self.TABLES.to_bytes()[4:]
        with pytest.raises(WireFormatError, match="truncated"):
            GarbledTables.from_bytes(data)

    @pytest.mark.parametrize(
        "positions,rows",
        [((3, 9), bytes(127)), ((3,), bytes(128)), ((9, 3), bytes(128)), ((3, 3), bytes(128)),
         ((-1, 3), bytes(128)), ((3, 2**32), bytes(128))],
    )
    def test_the_encoder_refuses_what_the_decoder_would(self, positions, rows):
        with pytest.raises(CircuitError):
            GarbledTables(positions, rows, self.TABLES.output_decode).to_bytes()


class TestCiphertextFrames:
    def _codec(self, scheme, keys):
        return WireCodec(scheme=scheme, public_key=keys.public)

    @pytest.mark.parametrize("frame_cls", [BlindedScoresFrame, ExtractedCandidatesFrame])
    def test_bv_roundtrip_bit_identical(self, bv_scheme, bv_keys, frame_cls):
        ciphertexts = tuple(
            bv_scheme.encrypt_slots(bv_keys.public, [index, index + 1])
            for index in range(3)
        )
        wire = self._codec(bv_scheme, bv_keys)
        decoded = wire.decode(wire.encode(frame_cls(ciphertexts)))
        assert isinstance(decoded, frame_cls)
        assert len(decoded.ciphertexts) == 3
        for original, restored in zip(ciphertexts, decoded.ciphertexts):
            np.testing.assert_array_equal(
                original.payload.c0.spectra, restored.payload.c0.spectra
            )
            np.testing.assert_array_equal(
                original.payload.c1.spectra, restored.payload.c1.spectra
            )
            assert restored.size_bytes == bv_scheme.ciphertext_size_bytes()

    def test_bv_roundtrip_still_decrypts(self, bv_scheme, bv_keys):
        ciphertext = bv_scheme.encrypt_slots(bv_keys.public, [7, 11, 13])
        wire = self._codec(bv_scheme, bv_keys)
        frame = wire.decode(wire.encode(BlindedScoresFrame((ciphertext,))))
        assert bv_scheme.decrypt_slots(bv_keys, frame.ciphertexts[0])[:3] == [7, 11, 13]

    def test_paillier_roundtrip_still_decrypts(self, paillier_scheme, paillier_keys):
        ciphertext = paillier_scheme.encrypt_slots(paillier_keys.public, [41, 42])
        wire = self._codec(paillier_scheme, paillier_keys)
        frame = wire.decode(wire.encode(BlindedScoresFrame((ciphertext,))))
        restored = frame.ciphertexts[0]
        assert restored.payload[0] == ciphertext.payload[0]
        assert paillier_scheme.decrypt_slots(paillier_keys, restored)[:2] == [41, 42]

    def test_serialized_length_is_constant(self, bv_scheme, bv_keys):
        for values in ([], [1], list(range(50))):
            ciphertext = bv_scheme.encrypt_slots(bv_keys.public, values)
            assert (
                len(bv_scheme.serialize_ciphertext(ciphertext))
                == bv_scheme.ciphertext_size_bytes()
            )

    def test_schemeless_codec_rejects_ciphertext_frames(self, bv_scheme, bv_keys):
        ciphertext = bv_scheme.encrypt_slots(bv_keys.public, [1])
        with pytest.raises(WireFormatError):
            codec.encode(BlindedScoresFrame((ciphertext,)))

    def test_corrupt_residue_rejected(self, bv_scheme, bv_keys):
        data = bytearray(
            bv_scheme.serialize_ciphertext(bv_scheme.encrypt_slots(bv_keys.public, [1]))
        )
        data[5:9] = (0xFFFFFFFF).to_bytes(4, "big")  # residue >= every prime
        with pytest.raises(WireFormatError):
            bv_scheme.deserialize_ciphertext(bytes(data))


class TestMalformedFrames:
    def test_bad_magic(self):
        encoded = bytearray(codec.encode(ClassifyResultFrame(1)))
        encoded[0] ^= 0xFF
        with pytest.raises(WireFormatError):
            codec.decode(bytes(encoded))

    def test_bad_version(self):
        encoded = bytearray(codec.encode(ClassifyResultFrame(1)))
        encoded[1] = WIRE_VERSION + 1
        with pytest.raises(WireFormatError):
            codec.decode(bytes(encoded))

    def test_unknown_type(self):
        encoded = bytearray(codec.encode(ClassifyResultFrame(1)))
        encoded[2] = 0x7F
        with pytest.raises(WireFormatError):
            codec.decode(bytes(encoded))

    def test_truncated(self):
        encoded = codec.encode(OtPublicsFrame((12345,)))
        with pytest.raises(WireFormatError):
            codec.decode(encoded[:-1])

    def test_trailing_bytes(self):
        encoded = codec.encode(ClassifyResultFrame(1))
        with pytest.raises(WireFormatError):
            codec.decode(encoded + b"\x00")

    def test_unknown_control_verb(self):
        encoded = bytearray(
            codec.encode(ControlFrame(ControlVerb.HEARTBEAT, 1, b""))
        )
        encoded[3] = 0x7F  # verb byte, right after the 3-byte header
        with pytest.raises(WireFormatError):
            codec.decode(bytes(encoded))

    def test_control_verb_validated_at_construction(self):
        with pytest.raises(WireFormatError):
            ControlFrame(verb=0x7F, version=1, payload=b"")


# Pinned encodings: regenerate ONLY together with a WIRE_VERSION bump.
GOLDEN_FRAMES = {
    "ot_publics": "5a010300000003000000010100000001ff00000006010000000000",
    "ot_cipherpairs": "5a010500000001000000017800000002797a",
    "ot_ext_columns": "5a0106000000070000000200000002616200000000",
    "output_labels": "5a010900000001000102030405060708090a0b0c0d0e0f",
    "features": "5a010a0000000200000001000000020000000300000004",
    "classify_result": "5a010b00000005",
    "session_state": "5a010c210100000003010203",
    "control": "5a010d020100000003010203",
    "garbled_circuit": "5a01080000006c00000001000000030000000000000000000000000000000001010101010101010101010101010101020202020202020202020202020202020303030303030303030303030303030300000001aaaaaaaaaaaaaaaaaaaaaaaaaaaaaaaabbbbbbbbbbbbbbbbbbbbbbbbbbbbbbbb00000001cccccccccccccccccccccccccccccccc01",  # noqa: E501
}


def _golden_frame(name):
    if name == "ot_publics":
        return OtPublicsFrame((1, 255, 2**40))
    if name == "ot_cipherpairs":
        return OtCipherPairsFrame(((b"x", b"yz"),))
    if name == "ot_ext_columns":
        return OtExtColumnsFrame((b"ab", b""), start_index=7)
    if name == "output_labels":
        return OutputLabelsFrame((bytes(range(16)),))
    if name == "features":
        return FeaturesFrame(((1, 2), (3, 4)))
    if name == "classify_result":
        return ClassifyResultFrame(5)
    if name == "session_state":
        return SessionStateFrame(
            SessionState(
                kind=SessionStateKind.SPAM_PROVIDER, version=1, payload=b"\x01\x02\x03"
            )
        )
    if name == "control":
        return ControlFrame(
            verb=ControlVerb.COMMAND, version=1, payload=b"\x01\x02\x03"
        )
    if name == "garbled_circuit":
        return GarbledCircuitFrame(
            tables=GarbledTables(
                positions=(3,),
                rows=b"".join(bytes([i]) * 16 for i in range(4)),
                output_decode=[(b"\xaa" * 16, b"\xbb" * 16)],
            ),
            garbler_labels=(b"\xcc" * 16,),
            decode_at_evaluator=True,
        )
    raise AssertionError(name)


class TestGoldenBytes:
    @pytest.mark.parametrize("name", sorted(GOLDEN_FRAMES))
    def test_pinned_encoding(self, name):
        assert codec.encode(_golden_frame(name)).hex() == GOLDEN_FRAMES[name]

    @pytest.mark.parametrize("name", sorted(GOLDEN_FRAMES))
    def test_pinned_bytes_decode(self, name):
        decoded = codec.decode(bytes.fromhex(GOLDEN_FRAMES[name]))
        assert codec.encode(decoded).hex() == GOLDEN_FRAMES[name]
