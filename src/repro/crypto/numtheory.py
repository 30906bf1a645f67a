"""Number-theoretic primitives: modular arithmetic, primality, prime generation.

These routines back the Paillier cryptosystem (§3.3 of the paper), the
Diffie–Hellman parameter agreement (§3.3 footnote 3), the discrete-log based
e2e primitives, and the NTT-friendly prime search used by the Ring-LWE
cryptosystem (§4.1).
"""

from __future__ import annotations

from repro.exceptions import ParameterError
from repro.utils.rand import secure_randbelow, secure_randbits

# Small primes used for cheap trial division before Miller-Rabin.
_SMALL_PRIMES = [
    2, 3, 5, 7, 11, 13, 17, 19, 23, 29, 31, 37, 41, 43, 47, 53, 59, 61, 67,
    71, 73, 79, 83, 89, 97, 101, 103, 107, 109, 113, 127, 131, 137, 139, 149,
    151, 157, 163, 167, 173, 179, 181, 191, 193, 197, 199, 211, 223, 227, 229,
    233, 239, 241, 251, 257, 263, 269, 271, 277, 281, 283, 293, 307, 311, 313,
]


def egcd(a: int, b: int) -> tuple[int, int, int]:
    """Extended Euclid: returns ``(g, x, y)`` with ``a*x + b*y == g == gcd(a, b)``."""
    old_r, r = a, b
    old_s, s = 1, 0
    old_t, t = 0, 1
    while r:
        quotient = old_r // r
        old_r, r = r, old_r - quotient * r
        old_s, s = s, old_s - quotient * s
        old_t, t = t, old_t - quotient * t
    return old_r, old_s, old_t


def invmod(a: int, modulus: int) -> int:
    """Modular inverse of *a* modulo *modulus*; raises if it does not exist."""
    if modulus <= 0:
        raise ParameterError("modulus must be positive")
    g, x, _ = egcd(a % modulus, modulus)
    if g != 1:
        raise ParameterError(f"{a} has no inverse modulo {modulus} (gcd={g})")
    return x % modulus


def crt_pair(residue_p: int, p: int, residue_q: int, q: int) -> int:
    """Chinese-remainder combine for two coprime moduli."""
    q_inv = invmod(q, p)
    diff = (residue_p - residue_q) % p
    return (residue_q + q * ((diff * q_inv) % p)) % (p * q)


def is_probable_prime(candidate: int, rounds: int = 40) -> bool:
    """Miller–Rabin probabilistic primality test."""
    if candidate < 2:
        return False
    for prime in _SMALL_PRIMES:
        if candidate == prime:
            return True
        if candidate % prime == 0:
            return False
    # Write candidate - 1 as d * 2^r with d odd.
    d = candidate - 1
    r = 0
    while d % 2 == 0:
        d //= 2
        r += 1
    for _ in range(rounds):
        witness = 2 + secure_randbelow(candidate - 3)
        x = pow(witness, d, candidate)
        if x in (1, candidate - 1):
            continue
        for _ in range(r - 1):
            x = (x * x) % candidate
            if x == candidate - 1:
                break
        else:
            return False
    return True


def generate_prime(bits: int) -> int:
    """Generate a random prime of exactly *bits* bits."""
    if bits < 8:
        raise ParameterError("refusing to generate a prime smaller than 8 bits")
    while True:
        candidate = secure_randbits(bits) | (1 << (bits - 1)) | 1
        if is_probable_prime(candidate):
            return candidate


def generate_safe_prime(bits: int, max_attempts: int = 200000) -> tuple[int, int]:
    """Generate a safe prime ``p = 2q + 1``; returns ``(p, q)``.

    Safe primes give prime-order subgroups for Diffie–Hellman, Schnorr and
    ElGamal.  Generation is slow for large sizes; the test suite uses small
    parameters and the benchmarks use cached groups (see
    :data:`repro.crypto.dh.RFC3526_GROUP_2048`).
    """
    if bits < 16:
        raise ParameterError("safe prime must be at least 16 bits")
    for _ in range(max_attempts):
        q = generate_prime(bits - 1)
        p = 2 * q + 1
        if is_probable_prime(p):
            return p, q
    raise ParameterError(f"failed to find a {bits}-bit safe prime in {max_attempts} attempts")


def generate_distinct_primes(bits: int) -> tuple[int, int]:
    """Generate two distinct primes of the same bit length (for Paillier/RSA-style moduli)."""
    p = generate_prime(bits)
    while True:
        q = generate_prime(bits)
        if p != q:
            return p, q


def find_primitive_root_of_unity(order: int, modulus: int) -> int:
    """Find a primitive *order*-th root of unity modulo a prime *modulus*."""
    if (modulus - 1) % order != 0:
        raise ParameterError("modulus - 1 must be divisible by order")
    cofactor = (modulus - 1) // order
    for base in range(2, modulus):
        candidate = pow(base, cofactor, modulus)
        if candidate == 1:
            continue
        # candidate has order dividing `order`; check it is exactly `order`
        # by verifying candidate^(order/p) != 1 for every prime p | order.
        # `order` is a power of two here, so the only prime divisor is 2.
        if pow(candidate, order // 2, modulus) != 1:
            return candidate
    raise ParameterError("no primitive root of unity found")


def find_generator(p: int, q: int) -> int:
    """Find a generator of the order-*q* subgroup of Z_p^*, with ``p = 2q + 1``."""
    if p != 2 * q + 1:
        raise ParameterError("expected a safe prime p = 2q + 1")
    while True:
        h = 2 + secure_randbelow(p - 3)
        g = pow(h, 2, p)
        if g not in (1, p - 1):
            return g


