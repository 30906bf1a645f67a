"""Tests for DH groups, Schnorr signatures, ElGamal KEM."""

import pickle

import pytest
from hypothesis import given, settings, strategies as st

from repro.crypto.dh import (
    DHGroup,
    DHKeyPair,
    FixedBase,
    rfc3526_group_2048,
    validate_group,
)
from repro.crypto.elgamal import ElGamalKeyPair, KemCiphertext, decapsulate, encapsulate
from repro.crypto.schnorr import SchnorrKeyPair, SchnorrSignature, sign, verify
from repro.exceptions import ParameterError


class TestDHGroup:
    def test_group_structure_validated(self, dh_group):
        assert dh_group.p == 2 * dh_group.q + 1
        assert pow(dh_group.g, dh_group.q, dh_group.p) == 1

    def test_invalid_generator_rejected(self, dh_group):
        with pytest.raises(ParameterError):
            DHGroup(p=dh_group.p, q=dh_group.q, g=dh_group.p - 1)

    def test_non_safe_prime_rejected(self):
        with pytest.raises(ParameterError):
            DHGroup(p=23, q=7, g=2)

    def test_element_validation(self, dh_group):
        keys = DHKeyPair.generate(dh_group)
        assert dh_group.is_valid_element(keys.public)
        assert not dh_group.is_valid_element(0)
        assert not dh_group.is_valid_element(dh_group.p)

    def test_validate_group_accepts_good_group(self, dh_group):
        validate_group(dh_group)


# The 256-bit safe-prime group the end-to-end benchmark commits to.
_BENCH_P = 0xEAF9F9953B86E8CC52DA8921348CF4AD786A5F3DB0BED3B7C1588F9BCEDB1F03
_BENCH_G = 18906503934533127189041823383707208029840643372799600438332671013237248937478
_GROUPS = {
    256: DHGroup(p=_BENCH_P, q=(_BENCH_P - 1) // 2, g=_BENCH_G),
    2048: rfc3526_group_2048(),
}


class TestFixedBase:
    @pytest.mark.parametrize("bits", sorted(_GROUPS))
    @given(data=st.data())
    @settings(max_examples=25, deadline=None)
    def test_power_matches_pow(self, bits, data):
        group = _GROUPS[bits]
        exponent = data.draw(st.integers(min_value=0, max_value=group.q - 1))
        assert group.generator_power(exponent) == pow(group.g, exponent, group.p)
        base = pow(group.g, 0xC0FFEE, group.p)
        assert FixedBase(group, base).power(exponent) == pow(base, exponent, group.p)

    @pytest.mark.parametrize("bits", sorted(_GROUPS))
    def test_edge_exponents(self, bits):
        group = _GROUPS[bits]
        table = FixedBase(group, group.g)
        for exponent in (0, 1, 2, 15, 16, group.q - 1):
            assert table.power(exponent) == pow(group.g, exponent, group.p)
        assert table.power(group.q - 1) * group.g % group.p == 1

    def test_out_of_range_exponent_refused(self):
        group = _GROUPS[256]
        for exponent in (-1, group.q, group.q + 1, 1 << 300):
            with pytest.raises(ParameterError):
                group.generator_power(exponent)

    def test_generator_table_is_cached_but_never_pickled(self):
        group = DHGroup(p=_BENCH_P, q=(_BENCH_P - 1) // 2, g=_BENCH_G)
        bare = len(pickle.dumps(group))
        group.generator_power(5)
        assert group._generator_table is group._generator_table
        assert len(pickle.dumps(group)) == bare
        clone = pickle.loads(pickle.dumps(group))
        assert clone == group and clone.generator_power(5) == pow(_BENCH_G, 5, _BENCH_P)

    def test_key_generation_uses_the_same_arithmetic(self, dh_group):
        keys = DHKeyPair.generate(dh_group)
        assert keys.public == pow(dh_group.g, keys.secret, dh_group.p)


class TestSchnorr:
    def test_sign_verify_roundtrip(self, dh_group):
        keys = SchnorrKeyPair.generate(dh_group)
        signature = sign(keys.private, b"hello world")
        assert verify(keys.public, b"hello world", signature)

    def test_wrong_message_rejected(self, dh_group):
        keys = SchnorrKeyPair.generate(dh_group)
        signature = sign(keys.private, b"hello")
        assert not verify(keys.public, b"goodbye", signature)

    def test_wrong_key_rejected(self, dh_group):
        keys = SchnorrKeyPair.generate(dh_group)
        other = SchnorrKeyPair.generate(dh_group)
        signature = sign(keys.private, b"msg")
        assert not verify(other.public, b"msg", signature)

    def test_tampered_signature_rejected(self, dh_group):
        keys = SchnorrKeyPair.generate(dh_group)
        signature = sign(keys.private, b"msg")
        tampered = SchnorrSignature(signature.challenge, (signature.response + 1) % dh_group.q)
        assert not verify(keys.public, b"msg", tampered)

    def test_out_of_range_signature_rejected(self, dh_group):
        keys = SchnorrKeyPair.generate(dh_group)
        bad = SchnorrSignature(challenge=dh_group.q, response=0)
        assert not verify(keys.public, b"msg", bad)


class TestElGamalKem:
    def test_encapsulate_decapsulate_agree(self, dh_group):
        keys = ElGamalKeyPair.generate(dh_group)
        ciphertext, key = encapsulate(keys.public)
        assert decapsulate(keys.private, ciphertext) == key
        assert len(key) == 32

    def test_different_encapsulations_differ(self, dh_group):
        keys = ElGamalKeyPair.generate(dh_group)
        _, key_1 = encapsulate(keys.public)
        _, key_2 = encapsulate(keys.public)
        assert key_1 != key_2

    def test_wrong_private_key_gives_wrong_key(self, dh_group):
        keys = ElGamalKeyPair.generate(dh_group)
        other = ElGamalKeyPair.generate(dh_group)
        ciphertext, key = encapsulate(keys.public)
        assert decapsulate(other.private, ciphertext) != key

    def test_invalid_ephemeral_rejected(self, dh_group):
        keys = ElGamalKeyPair.generate(dh_group)
        with pytest.raises(ParameterError):
            decapsulate(keys.private, KemCiphertext(ephemeral=dh_group.p - 1))

    def test_custom_key_length(self, dh_group):
        keys = ElGamalKeyPair.generate(dh_group)
        ciphertext, key = encapsulate(keys.public, key_length=48)
        assert len(key) == 48
        assert decapsulate(keys.private, ciphertext, key_length=48) == key
