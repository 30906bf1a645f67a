"""Score samples at the trust boundary: the blob codec, what a provider refuses,
a mixed pair of builds, and the width budget the narrower Yao circuit relies on.

What a sample *is* (and that it decrypts to what the whole ciphertext would)
is pinned against the full-ciphertext oracle in ``test_batched_fabrication.py``;
byte-level fuzzing of the blob form rides in ``test_wire_fuzz.py``.
"""

import hashlib
import struct

import numpy as np
import pytest

from repro.classify.model import QuantizedLinearModel
from repro.crypto import bv as bv_module
from repro.crypto.ahe import AHECiphertext
from repro.crypto.bv import BVSamplePayload
from repro.crypto.circuits import TopicCircuit
from repro.exceptions import ClassifierError, ProtocolError, WireFormatError
from repro.twopc.spam import SpamFilterProtocol
from repro.twopc.topics import TopicExtractionProtocol
from repro.twopc.wire import BlindedScoresFrame, ExtractedCandidatesFrame, WireCodec

PINNED_SAMPLE_SHA256 = "b8a0814288d9a18b5e7a81997c438bb45c5024debb10cbd069b83cc546652c8f"

SPAM_FEATURES = {1: 1, 5: 1, 9: 2}
TOPIC_FEATURES = {2: 1, 3: 2, 77: 1}


@pytest.fixture(scope="module")
def spam_setup(bv_scheme, dh_group, small_spam_model):
    protocol = SpamFilterProtocol(bv_scheme, dh_group)
    return protocol, protocol.setup(small_spam_model)


@pytest.fixture(scope="module")
def topic_setup(bv_scheme, dh_group, small_topic_model):
    protocol = TopicExtractionProtocol(bv_scheme, dh_group)
    return protocol, protocol.setup(small_topic_model)


def _fixed_sample(scheme, start: int, length: int) -> AHECiphertext:
    """A sample whose residues are a fixed arithmetic pattern (no randomness)."""
    primes = scheme.ring.primes_column
    n = scheme.num_slots
    c1 = (np.arange(len(primes) * n, dtype=np.int64).reshape(len(primes), n) * 2654435761) % primes
    c0 = (np.arange(len(primes) * length, dtype=np.int64).reshape(len(primes), length) * 40503 + 7) % primes
    payload = BVSamplePayload(c1=c1, start=start, c0=c0)
    return AHECiphertext(scheme.name, payload, scheme.sample_size_bytes(length))


def _client_request(protocol, setup, features, *candidates):
    """The score frame an honest client of this build opens with."""
    return protocol.client_session(setup, features, *candidates).start()[0]


class TestSampleBlobCodec:
    def test_roundtrip_is_bit_identical(self, bv_scheme):
        for start, length in ((255, 1), (254, 2), (0, 256), (17, 5)):
            sample = _fixed_sample(bv_scheme, start, length)
            blob = bv_scheme.serialize_ciphertext(sample)
            assert len(blob) == sample.size_bytes == 13 + 4 * 2 * (256 + length)
            restored = bv_scheme.deserialize_ciphertext(blob)
            assert bv_scheme.ciphertext_run(restored) == (start, length)
            assert restored.size_bytes == len(blob)
            assert np.array_equal(restored.payload.c1, sample.payload.c1)
            assert np.array_equal(restored.payload.c0, sample.payload.c0)
            assert bv_scheme.serialize_ciphertext(restored) == blob

    def test_pinned_blob(self, bv_scheme):
        # n = 256, two primes, the extraction slot alone: the layout is
        # header (ring degree u32, 0x80 | primes u8, run start u32, run length
        # u32), c1's spectra, then the run's c0 coefficients, all u32 BE.
        blob = bv_scheme.serialize_ciphertext(_fixed_sample(bv_scheme, 255, 1))
        assert len(blob) == 2069
        assert blob[:13].hex() == "0000010082000000ff00000001"
        assert blob[13:29].hex() == "000000001e377bb03c6ef7605aa67310"  # c1[0][:4]
        assert hashlib.sha256(blob).hexdigest() == PINNED_SAMPLE_SHA256

    @pytest.mark.parametrize(
        "mutate",
        [
            lambda blob: blob[:-1],                                   # truncated by a byte
            lambda blob: blob[:12],                                   # truncated inside the header
            lambda blob: blob[:5],                                    # no run header at all
            lambda blob: blob + b"\x00",                              # over-long
            lambda blob: blob[:9] + struct.pack(">I", 0) + blob[13:],       # run of length 0
            lambda blob: blob[:9] + struct.pack(">I", 3) + blob[13:],       # run past slot n - 1
            lambda blob: blob[:5] + struct.pack(">I", 256) + blob[9:],      # run starts at n
            lambda blob: blob[:5] + struct.pack(">II", 2**32 - 1, 2) + blob[13:],
            lambda blob: struct.pack(">I", 512) + blob[4:],           # another ring
            lambda blob: blob[:4] + b"\x83" + blob[5:],               # another prime count
        ],
    )
    def test_a_malformed_header_is_refused_before_any_array_is_built(
        self, bv_scheme, monkeypatch, mutate
    ):
        blob = mutate(bv_scheme.serialize_ciphertext(_fixed_sample(bv_scheme, 254, 2)))

        def no_arrays(*_arguments, **_options):
            raise AssertionError("the body was read before the header was checked")

        monkeypatch.setattr(bv_module.np, "frombuffer", no_arrays)
        with pytest.raises(WireFormatError):
            bv_scheme.deserialize_ciphertext(blob)

    def test_a_residue_not_below_its_prime_is_refused(self, bv_scheme):
        blob = bytearray(bv_scheme.serialize_ciphertext(_fixed_sample(bv_scheme, 254, 2)))
        for offset in (13, len(blob) - 4):  # first c1 residue, last c0 coefficient
            corrupt = bytearray(blob)
            corrupt[offset : offset + 4] = (0xFFFFFFFF).to_bytes(4, "big")
            with pytest.raises(WireFormatError, match="residue"):
                bv_scheme.deserialize_ciphertext(bytes(corrupt))

    def test_both_forms_share_a_frame(self, bv_scheme, bv_keys):
        codec = WireCodec(scheme=bv_scheme, public_key=bv_keys.public)
        whole = bv_scheme.encrypt_slots(bv_keys.public, [7, 11, 13])
        frame = codec.decode(codec.encode(BlindedScoresFrame((whole, _fixed_sample(bv_scheme, 3, 2)))))
        assert [bv_scheme.ciphertext_run(ct) for ct in frame.ciphertexts] == [(0, 256), (3, 2)]
        assert bv_scheme.decrypt_slots(bv_keys, frame.ciphertexts[0])[:3] == [7, 11, 13]


class TestProviderRefusals:
    def test_honest_requests_open_exactly_the_expected_runs(self, spam_setup, topic_setup, bv_scheme):
        n = bv_scheme.num_slots
        protocol, setup = spam_setup
        frame = _client_request(protocol, setup, SPAM_FEATURES)
        # Spam: one margin column, the output region is the top slot.
        assert [bv_scheme.ciphertext_run(ct) for ct in frame.ciphertexts] == [(n - 1, 1)]
        protocol, setup = topic_setup
        frame = _client_request(protocol, setup, TOPIC_FEATURES, [4, 0, 9])
        assert isinstance(frame, ExtractedCandidatesFrame)
        assert [bv_scheme.ciphertext_run(ct) for ct in frame.ciphertexts] == [(n - 1, 1)] * 3
        frame = _client_request(protocol, setup, TOPIC_FEATURES, None)
        assert isinstance(frame, BlindedScoresFrame)
        # B' = B: ten columns, 25 rows a ciphertext, the output region on top.
        assert [bv_scheme.ciphertext_run(ct) for ct in frame.ciphertexts] == [(n - 16, 10)]

    def test_more_candidates_than_topics_is_refused_before_anything_is_parked(self, topic_setup):
        protocol, setup = topic_setup
        num_topics = setup.quantized_model.num_categories
        honest = _client_request(protocol, setup, TOPIC_FEATURES, list(range(num_topics)))
        provider = protocol.provider_session(setup)
        before = provider.snapshot().to_bytes()
        circuits = TopicCircuit.build.cache_info()
        for count in (num_topics + 1, 0):
            hostile = ExtractedCandidatesFrame((honest.ciphertexts * 2)[:count])
            with pytest.raises(ProtocolError, match="topics"):
                provider.handle(hostile)
            assert provider.decryption_request() is None
            assert provider.snapshot().to_bytes() == before   # what a store would hold
        assert TopicCircuit.build.cache_info() == circuits    # nor a B'-sized circuit built
        # The refusal spent nothing: the same session still serves the honest frame.
        assert provider.handle(honest) == []
        assert len(provider.decryption_request().ciphertexts) == num_topics

    def test_a_sample_opened_elsewhere_is_refused(self, spam_setup, topic_setup, bv_scheme, bv_keys):
        n = bv_scheme.num_slots
        source = bv_scheme.encrypt_slots(bv_keys.public, [1])
        blind = lambda run: bv_scheme.blind_samples(  # noqa: E731
            bv_keys.public, [source], [0], [0], [run], np.zeros(run[1], dtype=np.int64)
        )[0]
        protocol, setup = spam_setup
        for run in ((n - 2, 1), (n - 2, 2), (n - 3, 3), (0, n)):
            provider = protocol.provider_session(setup)
            with pytest.raises(ProtocolError, match="slot run"):
                provider.handle(BlindedScoresFrame((blind(run),)))
            assert provider.decryption_request() is None
        with pytest.raises(ProtocolError, match="expected 1"):
            protocol.provider_session(setup).handle(BlindedScoresFrame((blind((n - 1, 1)),) * 2))
        protocol, setup = topic_setup
        for run in ((n - 2, 1), (n - 2, 2), (0, n)):
            provider = protocol.provider_session(setup)
            with pytest.raises(ProtocolError, match="slot run"):
                provider.handle(ExtractedCandidatesFrame((blind((n - 1, 1)), blind(run))))
            assert provider.decryption_request() is None


def _parent_deserialize_ciphertext(scheme, data: bytes):
    """``BVScheme.deserialize_ciphertext`` as commit 8bb011a had it (one blob form)."""
    if len(data) != scheme.ciphertext_size_bytes():
        raise WireFormatError(
            f"BV ciphertext frame is {len(data)} bytes, expected {scheme.ciphertext_size_bytes()}"
        )
    n, num_primes = struct.unpack_from(">IB", data)
    if n != scheme.ring.n or num_primes != len(scheme.ring.primes):
        raise WireFormatError("BV ciphertext parameters do not match the scheme")
    body = np.frombuffer(data, dtype=">u4", offset=5)
    halves = body.astype(np.int64).reshape(2, num_primes, n)
    if (halves >= scheme.ring.primes_column).any():
        raise WireFormatError("BV ciphertext residue exceeds its RNS prime")
    return halves


class TestMixedBuilds:
    """A pair of which one half runs the parent commit ends in a refusal, never a verdict."""

    @pytest.mark.parametrize("kind", ["spam", "topics"])
    def test_a_parent_client_is_refused_by_this_provider(
        self, kind, spam_setup, topic_setup, bv_scheme
    ):
        # The parent's client sends whole blinded ciphertexts — still a valid
        # blob, so the codec passes it and the provider's run check refuses it.
        protocol, setup = spam_setup if kind == "spam" else topic_setup
        codec = WireCodec(scheme=bv_scheme, public_key=setup.keypair.public)
        whole = bv_scheme.encrypt_slots(setup.keypair.public, [5, 6])
        frame_class = BlindedScoresFrame if kind == "spam" else ExtractedCandidatesFrame
        frame = codec.decode(codec.encode(frame_class((whole,))))
        provider = protocol.provider_session(setup)
        with pytest.raises(ProtocolError, match="slot run"):
            provider.handle(frame)
        assert provider.decryption_request() is None and not provider.finished

    def test_this_client_is_refused_by_a_parent_provider(self, spam_setup, topic_setup, bv_scheme):
        # The parent's decoder knows one blob length; a sample is never that long.
        for protocol, setup, features in (
            (*spam_setup, SPAM_FEATURES),
            (*topic_setup, TOPIC_FEATURES),
        ):
            frame = _client_request(protocol, setup, features)
            for ciphertext in frame.ciphertexts:
                blob = bv_scheme.serialize_ciphertext(ciphertext)
                with pytest.raises(WireFormatError, match="bytes, expected"):
                    _parent_deserialize_ciphertext(bv_scheme, blob)
        whole = bv_scheme.serialize_ciphertext(bv_scheme.encrypt_slots(setup.keypair.public, [1]))
        assert _parent_deserialize_ciphertext(bv_scheme, whole).shape == (2, 2, 256)


def _budget_model(columns: list[list[int]], bias: list[int]) -> QuantizedLinearModel:
    """L = 7, bin = 4, fin = 4: a score fits b = 3 + 4 + 4 = 11 bits."""
    matrix = np.array(columns + [bias], dtype=np.int64)
    return QuantizedLinearModel(
        matrix=matrix,
        category_names=[f"c{index}" for index in range(matrix.shape[1])],
        value_bits=4,
        frequency_bits=4,
        max_features_per_email=7,
        scale=1.0,
        offset=0.0,
    )


class TestTheWidthBudget:
    """The Yao circuits are ``dot_product_bits`` wide (spam's margin one more);
    ``L`` is what makes that enough."""

    FULL = {index: 15 for index in range(7)}       # L features at maximal frequency
    OVER = {index: 15 for index in range(8)}       # L + 1

    def test_spam_at_the_boundary(self, bv_scheme, dh_group):
        # Spam: maximal weight everywhere, (7·15 + 1)·15 = 1590 — the top bit of
        # 11 is set.  Ham: 7·15·9 + 15 = 960.  The margin 1590 − 960 + 106·15
        # = 2220 needs the twelfth bit the spam circuit adds.
        model = _budget_model([[15, 9]] * 9, [15, 15])
        assert model.dot_product_bits == 11
        assert model.integer_scores(self.FULL).tolist() == [1590, 960]
        assert 2**10 <= 1590 < 2**11 and 1590 - 2**10 < 960
        protocol = SpamFilterProtocol(bv_scheme, dh_group)
        setup = protocol.setup(model)
        result = protocol.classify_email(setup, self.FULL)
        assert result.is_spam is True is model.predict_is_spam(self.FULL)
        assert result.yao_and_gates == 11
        mirrored = _budget_model([[9, 15]] * 9, [15, 15])
        assert protocol.classify_email(protocol.setup(mirrored), self.FULL).is_spam is False

    def test_topics_at_the_boundary(self, bv_scheme, dh_group):
        model = _budget_model([[9, 15, 1, 15]] * 9, [15, 15, 1, 14])
        assert model.integer_scores(self.FULL).tolist() == [960, 1590, 106, 1589]
        protocol = TopicExtractionProtocol(bv_scheme, dh_group)
        setup = protocol.setup(model)
        assert protocol.extract_topic(setup, self.FULL, [0, 3, 1, 2]).extracted_topic == 1
        assert protocol.extract_topic(setup, self.FULL, [0, 3, 2]).extracted_topic == 3
        assert protocol.extract_topic(setup, self.FULL, None).extracted_topic == 1

    def test_one_feature_over_the_budget_is_refused_before_any_frame(self, bv_scheme, dh_group):
        model = _budget_model([[15, 9]] * 9, [15, 15])
        with pytest.raises(ClassifierError, match="at most 7"):
            model.sparse_features(self.OVER)
        with pytest.raises(ClassifierError):
            model.integer_scores(self.OVER)       # the reference refuses too: no silent wrap
        # Out-of-vocabulary and zero-frequency entries do not count against L.
        assert len(model.sparse_features({**self.FULL, 7: 0, 99: 3})) == 7
        protocol = SpamFilterProtocol(bv_scheme, dh_group)
        setup = protocol.setup(model)
        channel = protocol.make_channel(setup)
        with pytest.raises(ClassifierError):
            protocol.classify_email(setup, self.OVER, channel=channel)
        assert channel.total_messages() == 0
        topics = TopicExtractionProtocol(bv_scheme, dh_group)
        topic_setup = topics.setup(_budget_model([[9, 15, 1]] * 9, [1, 1, 1]))
        channel = topics.make_channel(topic_setup)
        with pytest.raises(ClassifierError):
            topics.extract_topic(topic_setup, self.OVER, [0, 1], channel=channel)
        assert channel.total_messages() == 0
