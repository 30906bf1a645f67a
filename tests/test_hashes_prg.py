"""Tests for hashing/HKDF helpers and the HMAC-DRBG style PRG."""

import pytest
from hypothesis import given, strategies as st

from repro.crypto import hashes
from repro.crypto.prg import Prg, prf
from repro.exceptions import ParameterError


class TestSha256Helpers:
    def test_sha256_concatenation_equivalence(self):
        assert hashes.sha256(b"ab", b"cd") == hashes.sha256(b"abcd")

    def test_sha256_int_deterministic(self):
        assert hashes.sha256_int(b"x") == hashes.sha256_int(b"x")

    def test_hmac_key_sensitivity(self):
        assert hashes.hmac_sha256(b"k1", b"m") != hashes.hmac_sha256(b"k2", b"m")

    def test_constant_time_equal(self):
        assert hashes.constant_time_equal(b"same", b"same")
        assert not hashes.constant_time_equal(b"same", b"diff")


class TestHkdf:
    def test_output_length(self):
        assert len(hashes.hkdf(b"ikm", b"info", 100)) == 100

    def test_info_separation(self):
        assert hashes.hkdf(b"ikm", b"a", 32) != hashes.hkdf(b"ikm", b"b", 32)

    def test_salt_changes_output(self):
        assert hashes.hkdf(b"ikm", b"i", 32, salt=b"s1") != hashes.hkdf(b"ikm", b"i", 32, salt=b"s2")

    def test_rejects_zero_length(self):
        with pytest.raises(ParameterError):
            hashes.hkdf(b"ikm", b"info", 0)

    @given(st.binary(min_size=1, max_size=64), st.integers(min_value=1, max_value=255))
    def test_prefix_property(self, ikm, length):
        long = hashes.hkdf(ikm, b"info", 255)
        assert hashes.hkdf(ikm, b"info", length) == long[:length]


class TestPrg:
    def test_deterministic(self):
        assert Prg(b"seed").read(64) == Prg(b"seed").read(64)

    def test_seed_separation(self):
        assert Prg(b"seed-a").read(32) != Prg(b"seed-b").read(32)

    def test_domain_separation(self):
        assert Prg(b"s", domain=b"d1").read(32) != Prg(b"s", domain=b"d2").read(32)

    def test_stream_continuity(self):
        prg = Prg(b"seed")
        combined = prg.read(10) + prg.read(22)
        assert combined == Prg(b"seed").read(32)

    def test_empty_seed_rejected(self):
        with pytest.raises(ParameterError):
            Prg(b"")


class TestPrf:
    def test_deterministic_and_length(self):
        assert prf(b"key", b"msg", 48) == prf(b"key", b"msg", 48)
        assert len(prf(b"key", b"msg", 48)) == 48

    def test_message_separation(self):
        assert prf(b"key", b"m1") != prf(b"key", b"m2")

    def test_rejects_zero_length(self):
        with pytest.raises(ParameterError):
            prf(b"key", b"msg", 0)
