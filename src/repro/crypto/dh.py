"""Diffie–Hellman groups, key exchange, and joint parameter agreement.

Two roles in the paper:

* The e2e module's public-key primitives (ElGamal KEM, Schnorr signatures)
  operate in a prime-order subgroup of Z_p^* described by :class:`DHGroup`.
* §3.3 (footnote 3) requires that the AHE public parameters not be chosen
  unilaterally by one party: "Pretzel determines these parameters with
  Diffie–Hellman key exchange, so that both parties inject randomness into
  these parameters."  :func:`joint_parameter_seed` implements that step: both
  parties contribute a random share, run DH, and hash the transcript into a
  seed from which the AHE scheme derives its public randomness.
"""

from __future__ import annotations

from dataclasses import dataclass
from functools import cached_property

from repro.crypto.hashes import sha256
from repro.crypto.numtheory import find_generator, generate_safe_prime, is_probable_prime
from repro.exceptions import ParameterError, ProtocolAbort
from repro.utils.rand import secure_randbelow

# RFC 3526 MODP group 14 (2048-bit), a well-known safe-prime group.  Using a
# fixed vetted group avoids minutes-long safe-prime generation at import time
# while remaining faithful to deployments (GPG and TLS use such groups).
_RFC3526_PRIME_2048 = int(
    "FFFFFFFFFFFFFFFFC90FDAA22168C234C4C6628B80DC1CD129024E088A67CC74"
    "020BBEA63B139B22514A08798E3404DDEF9519B3CD3A431B302B0A6DF25F1437"
    "4FE1356D6D51C245E485B576625E7EC6F44C42E9A637ED6B0BFF5CB6F406B7ED"
    "EE386BFB5A899FA5AE9F24117C4B1FE649286651ECE45B3DC2007CB8A163BF05"
    "98DA48361C55D39A69163FA8FD24CF5F83655D23DCA3AD961C62F356208552BB"
    "9ED529077096966D670C354E4ABC9804F1746C08CA18217C32905E462E36CE3B"
    "E39E772C180E86039B2783A2EC07A28FB5C55DF06F4C52C9DE2BCBF695581718"
    "3995497CEA956AE515D2261898FA051015728E5A8AACAA68FFFFFFFFFFFFFFFF",
    16,
)


_WINDOW_BITS = 4  # 16 entries per window: ~32 KB of residues at 256 bits, ~2 MB at 2048


class FixedBase:
    """Windowed table of one order-q element's powers, for repeated exponentiation.

    Row ``i`` holds ``base^(d · 16^i)`` for every hex digit ``d``, so
    ``base^e`` is the product of one entry per digit of ``e``: ``bits/4``
    multiplications and no squarings, against ``bits`` squarings plus
    ``~bits/5`` multiplications inside a three-argument ``pow``.  Building the
    table costs about as much as four ``pow`` calls, so it pays for a base
    that is raised to many exponents (``g`` always; a base-OT sender's ``A``
    once per handshake).
    """

    def __init__(self, group: "DHGroup", base: int) -> None:
        self.p = p = group.p
        self.q = group.q
        rows, power = [], base % p
        for _ in range(-(-group.q.bit_length() // _WINDOW_BITS)):
            row = [1, power]
            for _ in range(2, 1 << _WINDOW_BITS):
                row.append(row[-1] * power % p)
            rows.append(row)
            power = row[-1] * power % p
        self._rows = rows

    def power(self, exponent: int) -> int:
        """``base^exponent mod p`` for ``0 <= exponent < q``."""
        if not 0 <= exponent < self.q:
            raise ParameterError("fixed-base exponent outside [0, q)")
        p, mask, result = self.p, (1 << _WINDOW_BITS) - 1, 1
        for row in self._rows:
            result = result * row[exponent & mask] % p
            exponent >>= _WINDOW_BITS
        return result


@dataclass(frozen=True)
class DHGroup:
    """A prime-order-q subgroup of Z_p^* with generator g (p = 2q + 1)."""

    p: int
    q: int
    g: int

    def __post_init__(self) -> None:
        if self.p != 2 * self.q + 1:
            raise ParameterError("DHGroup requires a safe prime p = 2q + 1")
        if not 1 < self.g < self.p:
            raise ParameterError("generator out of range")
        if pow(self.g, self.q, self.p) != 1:
            raise ParameterError("generator does not have order q")

    @property
    def element_bytes(self) -> int:
        """Byte length of a serialized group element."""
        return (self.p.bit_length() + 7) // 8

    def random_exponent(self) -> int:
        """Uniform secret exponent in [1, q)."""
        return 1 + secure_randbelow(self.q - 1)

    def power(self, base: int, exponent: int) -> int:
        """Group exponentiation ``base^exponent mod p`` of an arbitrary base."""
        return pow(base, exponent, self.p)

    @cached_property
    def _generator_table(self) -> FixedBase:
        return FixedBase(self, self.g)

    def generator_power(self, exponent: int) -> int:
        """``g^exponent mod p`` for ``0 <= exponent < q``, from the group's cached table."""
        return self._generator_table.power(exponent)

    def __getstate__(self) -> dict:
        # The generator table is derived state: a pickled group (worker
        # registration, checkpoints) carries p, q and g only.
        return {"p": self.p, "q": self.q, "g": self.g}

    def is_valid_element(self, element: int) -> bool:
        """Check that *element* lies in the order-q subgroup (subgroup-membership check).

        This is the standard defence against small-subgroup attacks: an
        actively adversarial party could otherwise send an element of order 2.
        """
        if not 1 <= element < self.p:
            return False
        return pow(element, self.q, self.p) == 1

    def encode_element(self, element: int) -> bytes:
        """Fixed-width big-endian encoding of a group element."""
        return element.to_bytes(self.element_bytes, "big")


def rfc3526_group_2048() -> DHGroup:
    """The RFC 3526 2048-bit MODP group with generator 4 (a quadratic residue)."""
    p = _RFC3526_PRIME_2048
    q = (p - 1) // 2
    # g=2 generates the full group for this prime; squaring it lands in the
    # order-q subgroup of quadratic residues.
    return DHGroup(p=p, q=q, g=4)


def generate_group(bits: int) -> DHGroup:
    """Generate a fresh safe-prime group (slow; intended for small test sizes)."""
    p, q = generate_safe_prime(bits)
    g = find_generator(p, q)
    return DHGroup(p=p, q=q, g=g)


def default_group(security: str = "test") -> DHGroup:
    """Return a group sized for the requested profile.

    ``"test"`` uses a small (fast) freshly generated group; ``"standard"``
    returns the vetted 2048-bit RFC 3526 group used by the benchmarks.
    """
    if security == "standard":
        return rfc3526_group_2048()
    if security == "test":
        return generate_group(256)
    raise ParameterError(f"unknown security profile {security!r}")


@dataclass
class DHKeyPair:
    """An ephemeral or long-term DH key pair."""

    group: DHGroup
    secret: int
    public: int

    @classmethod
    def generate(cls, group: DHGroup) -> "DHKeyPair":
        secret = group.random_exponent()
        return cls(group=group, secret=secret, public=group.generator_power(secret))

    def shared_secret(self, peer_public: int) -> bytes:
        """Raw DH shared secret with subgroup validation of the peer share."""
        if not self.group.is_valid_element(peer_public):
            raise ProtocolAbort("peer DH share failed subgroup-membership validation")
        shared = self.group.power(peer_public, self.secret)
        return self.group.encode_element(shared)


def joint_parameter_seed(
    group: DHGroup,
    own_keypair: DHKeyPair,
    peer_public: int,
    own_nonce: bytes,
    peer_nonce: bytes,
    context: bytes = b"pretzel-ahe-parameters",
) -> bytes:
    """Derive a jointly random 32-byte seed for AHE public parameters.

    Both parties contribute a nonce and a DH share; the seed is a hash of the
    full transcript, so neither party can steer the resulting parameters
    (§3.3 footnote 3).  The ordering of nonces in the hash is canonicalised
    (lexicographic) so both parties compute the same value.
    """
    shared = own_keypair.shared_secret(peer_public)
    first, second = sorted([own_nonce, peer_nonce])
    return sha256(context, shared, first, second)


def validate_group(group: DHGroup) -> None:
    """Re-validate a group received from a peer (defence against rigged parameters)."""
    if not is_probable_prime(group.p) or not is_probable_prime(group.q):
        raise ProtocolAbort("received DH group with composite modulus or order")
    if pow(group.g, group.q, group.p) != 1 or group.g in (0, 1, group.p - 1):
        raise ProtocolAbort("received DH group with invalid generator")
