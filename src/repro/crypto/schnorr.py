"""Schnorr signatures over a safe-prime group.

The e2e module signs every outgoing email (§2.2 step 1 of the paper); §4.4
further notes that signatures are what make the replay/duplicate defence
meaningful ("emails have to be signed, otherwise an adversary can ... deny
service by pretending to be a sender and spuriously exhausting counters").
"""

from __future__ import annotations

from dataclasses import dataclass

from repro.crypto.dh import DHGroup, DHKeyPair
from repro.crypto.hashes import sha256_int


@dataclass
class SchnorrPublicKey:
    group: DHGroup
    element: int


@dataclass
class SchnorrPrivateKey:
    group: DHGroup
    exponent: int


@dataclass
class SchnorrKeyPair:
    public: SchnorrPublicKey
    private: SchnorrPrivateKey

    @classmethod
    def generate(cls, group: DHGroup) -> "SchnorrKeyPair":
        dh = DHKeyPair.generate(group)
        return cls(
            public=SchnorrPublicKey(group, dh.public),
            private=SchnorrPrivateKey(group, dh.secret),
        )


@dataclass
class SchnorrSignature:
    """A (challenge, response) Fiat–Shamir Schnorr signature."""

    challenge: int
    response: int


def _challenge(group: DHGroup, commitment: int, public_element: int, message: bytes) -> int:
    return sha256_int(
        b"pretzel-schnorr",
        group.encode_element(commitment),
        group.encode_element(public_element),
        message,
    ) % group.q


def sign(private_key: SchnorrPrivateKey, message: bytes) -> SchnorrSignature:
    """Sign *message* (Fiat–Shamir transformed Schnorr identification)."""
    group = private_key.group
    nonce = group.random_exponent()
    commitment = group.generator_power(nonce)
    public_element = group.generator_power(private_key.exponent)
    challenge = _challenge(group, commitment, public_element, message)
    response = (nonce + challenge * private_key.exponent) % group.q
    return SchnorrSignature(challenge=challenge, response=response)


def verify(public_key: SchnorrPublicKey, message: bytes, signature: SchnorrSignature) -> bool:
    """Return True iff *signature* is valid for *message* under *public_key*."""
    group = public_key.group
    if not (0 <= signature.challenge < group.q and 0 <= signature.response < group.q):
        return False
    if not group.is_valid_element(public_key.element):
        return False
    # commitment' = g^s * y^{-c}
    y_inv_c = pow(public_key.element, group.q - signature.challenge, group.p)
    commitment = (group.generator_power(signature.response) * y_inv_c) % group.p
    expected = _challenge(group, commitment, public_key.element, message)
    return expected == signature.challenge


