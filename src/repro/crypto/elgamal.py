"""ElGamal key-encapsulation mechanism (KEM).

The e2e module encrypts each email under a fresh symmetric key; that key is
wrapped for the recipient with this KEM (the reproduction's stand-in for the
public-key layer of GPG — see DESIGN.md).  We use the hashed-ElGamal / DHIES
style KEM: the sender sends an ephemeral public share and both sides derive
the data-encryption key via HKDF of the DH shared value.
"""

from __future__ import annotations

from dataclasses import dataclass

from repro.crypto.dh import DHGroup, DHKeyPair
from repro.crypto.hashes import hkdf
from repro.exceptions import ParameterError


@dataclass
class ElGamalPublicKey:
    """Recipient's long-term public key."""

    group: DHGroup
    element: int

    def __post_init__(self) -> None:
        if not self.group.is_valid_element(self.element):
            raise ParameterError("ElGamal public key is not a valid group element")


@dataclass
class ElGamalPrivateKey:
    """Recipient's long-term private key."""

    group: DHGroup
    exponent: int

    def public_key(self) -> ElGamalPublicKey:
        return ElGamalPublicKey(self.group, self.group.generator_power(self.exponent))


@dataclass
class ElGamalKeyPair:
    public: ElGamalPublicKey
    private: ElGamalPrivateKey

    @classmethod
    def generate(cls, group: DHGroup) -> "ElGamalKeyPair":
        dh = DHKeyPair.generate(group)
        private = ElGamalPrivateKey(group, dh.secret)
        return cls(public=ElGamalPublicKey(group, dh.public), private=private)


@dataclass
class KemCiphertext:
    """Encapsulation: the ephemeral public share."""

    ephemeral: int

    def encoded_size(self, group: DHGroup) -> int:
        return group.element_bytes


def encapsulate(public_key: ElGamalPublicKey, key_length: int = 32, info: bytes = b"pretzel-e2e-kem") -> tuple[KemCiphertext, bytes]:
    """Generate a fresh symmetric key and its encapsulation for *public_key*."""
    group = public_key.group
    ephemeral = DHKeyPair.generate(group)
    shared = group.power(public_key.element, ephemeral.secret)
    transcript = group.encode_element(ephemeral.public) + group.encode_element(shared)
    key = hkdf(transcript, info, key_length)
    return KemCiphertext(ephemeral=ephemeral.public), key


def decapsulate(private_key: ElGamalPrivateKey, ciphertext: KemCiphertext, key_length: int = 32, info: bytes = b"pretzel-e2e-kem") -> bytes:
    """Recover the symmetric key from an encapsulation."""
    group = private_key.group
    if not group.is_valid_element(ciphertext.ephemeral):
        raise ParameterError("KEM ephemeral share is not a valid group element")
    shared = group.power(ciphertext.ephemeral, private_key.exponent)
    transcript = group.encode_element(ciphertext.ephemeral) + group.encode_element(shared)
    return hkdf(transcript, info, key_length)
