"""Tests for the from-scratch ChaCha20 implementation."""

import pytest
from hypothesis import given, strategies as st

from repro.crypto.chacha import chacha20_xor

from oracles import chacha20_block
from repro.exceptions import ParameterError

KEY = bytes(range(32))
NONCE = bytes(12)


class TestBlockFunction:
    def test_block_length(self):
        assert len(chacha20_block(KEY, 0, NONCE)) == 64

    def test_block_deterministic(self):
        assert chacha20_block(KEY, 1, NONCE) == chacha20_block(KEY, 1, NONCE)

    def test_counter_changes_block(self):
        assert chacha20_block(KEY, 1, NONCE) != chacha20_block(KEY, 2, NONCE)

    def test_nonce_changes_block(self):
        other_nonce = bytes(11) + b"\x01"
        assert chacha20_block(KEY, 1, NONCE) != chacha20_block(KEY, 1, other_nonce)

    def test_key_changes_block(self):
        other_key = bytes(31) + b"\x01"
        assert chacha20_block(KEY, 1, NONCE) != chacha20_block(other_key, 1, NONCE)

    def test_bad_key_length(self):
        with pytest.raises(ParameterError):
            chacha20_block(b"short", 0, NONCE)

    def test_bad_nonce_length(self):
        with pytest.raises(ParameterError):
            chacha20_block(KEY, 0, b"short")

    def test_bad_counter(self):
        with pytest.raises(ParameterError):
            chacha20_block(KEY, 2**32, NONCE)


class TestStreamCipher:
    def test_roundtrip(self):
        plaintext = b"attack at dawn" * 10
        ciphertext = chacha20_xor(KEY, NONCE, plaintext)
        assert ciphertext != plaintext
        assert chacha20_xor(KEY, NONCE, ciphertext) == plaintext

    def test_empty_plaintext(self):
        assert chacha20_xor(KEY, NONCE, b"") == b""

    def test_ciphertext_length_matches(self):
        for length in (1, 63, 64, 65, 1000):
            assert len(chacha20_xor(KEY, NONCE, b"a" * length)) == length

    def test_different_keys_give_different_ciphertexts(self):
        plaintext = b"x" * 128
        other_key = bytes(reversed(KEY))
        assert chacha20_xor(KEY, NONCE, plaintext) != chacha20_xor(other_key, NONCE, plaintext)

    def test_wrong_key_does_not_decrypt(self):
        plaintext = b"secret message"
        ciphertext = chacha20_xor(KEY, NONCE, plaintext)
        other_key = bytes(reversed(KEY))
        assert chacha20_xor(other_key, NONCE, ciphertext) != plaintext

    @given(st.binary(max_size=300), st.integers(min_value=1, max_value=2**31))
    def test_roundtrip_property(self, plaintext, counter):
        ciphertext = chacha20_xor(KEY, NONCE, plaintext, initial_counter=counter)
        assert chacha20_xor(KEY, NONCE, ciphertext, initial_counter=counter) == plaintext


# RFC 8439 §2.3.2 (one block) and §2.4.2 (the "sunscreen" encryption).
RFC_KEY = bytes(range(32))
RFC_BLOCK_NONCE = bytes.fromhex("000000090000004a00000000")
RFC_BLOCK = bytes.fromhex(
    "10f1e7e4d13b5915500fdd1fa32071c4c7d1f4c733c068030422aa9ac3d46c4e"
    "d2826446079faa0914c2d705d98b02a2b5129cd1de164eb9cbd083e8a2503c4e"
)
RFC_SUNSCREEN_NONCE = bytes.fromhex("000000000000004a00000000")
RFC_SUNSCREEN = (
    b"Ladies and Gentlemen of the class of '99: If I could offer you only one tip "
    b"for the future, sunscreen would be it."
)
RFC_SUNSCREEN_CIPHERTEXT = bytes.fromhex(
    "6e2e359a2568f98041ba0728dd0d6981e97e7aec1d4360c20a27afccfd9fae0b"
    "f91b65c5524733ab8f593dabcd62b3571639d624e65152ab8f530c359f0861d8"
    "07ca0dbf500d6a6156a38e088a22b65e52bc514d16ccf806818ce91ab7793736"
    "5af90bbf74a35be6b40b8eedf2785e42874d"
)


def _cryptography_keystream(key, nonce, counter, length):
    """The keystream from the ``cryptography`` package: an independent implementation."""
    from cryptography.hazmat.primitives.ciphers import Cipher, algorithms

    full_nonce = counter.to_bytes(4, "little") + nonce
    return Cipher(algorithms.ChaCha20(key, full_nonce), mode=None).encryptor().update(bytes(length))


class TestRfc8439Vectors:
    def test_scalar_block(self):
        assert chacha20_block(RFC_KEY, 1, RFC_BLOCK_NONCE) == RFC_BLOCK

    def test_vectorised_keystream_block(self):
        assert chacha20_xor(RFC_KEY, RFC_BLOCK_NONCE, bytes(64), initial_counter=1) == RFC_BLOCK

    def test_sunscreen_encryption(self):
        ciphertext = chacha20_xor(RFC_KEY, RFC_SUNSCREEN_NONCE, RFC_SUNSCREEN, initial_counter=1)
        assert ciphertext == RFC_SUNSCREEN_CIPHERTEXT
        assert chacha20_xor(RFC_KEY, RFC_SUNSCREEN_NONCE, ciphertext, initial_counter=1) == RFC_SUNSCREEN


class TestVectorisedKeystreamMatchesScalarBlocks:
    """``chacha20_xor`` over zeros is the keystream: block for block the scalar oracle."""

    @pytest.mark.parametrize(
        "counter, length",
        [
            (0, 64),
            (1, 1),
            (1, 63),
            (1, 65),
            (5, 1000),
            (2**31, 128),
            (2**32 - 2, 128),
            (2**32 - 1, 64),
        ],
    )
    def test_blocks_agree(self, counter, length):
        blocks = -(-length // 64)
        expected = b"".join(chacha20_block(KEY, counter + i, NONCE) for i in range(blocks))
        assert chacha20_xor(KEY, NONCE, bytes(length), initial_counter=counter) == expected[:length]

    @pytest.mark.parametrize("counter, length", [(0, 1), (1, 64), (3, 100), (2**32 - 4, 256)])
    def test_matches_an_independent_implementation(self, counter, length):
        key, nonce = bytes(reversed(KEY)), bytes(range(12))
        assert chacha20_xor(key, nonce, bytes(length), initial_counter=counter) == (
            _cryptography_keystream(key, nonce, counter, length)
        )


class TestStreamCipherRefusals:
    @pytest.mark.parametrize(
        "key, nonce, length, counter",
        [
            (b"short", NONCE, 16, 1),
            (KEY, b"short", 16, 1),
            (KEY, NONCE, 16, -1),
            # The last block would need counter 2^32: the counter never wraps.
            (KEY, NONCE, 65, 2**32 - 1),
            (KEY, NONCE, 1, 2**32),
        ],
        ids=["short-key", "short-nonce", "negative-counter", "counter-wraps", "counter-too-large"],
    )
    def test_refused(self, key, nonce, length, counter):
        with pytest.raises(ParameterError):
            chacha20_xor(key, nonce, bytes(length), initial_counter=counter)
