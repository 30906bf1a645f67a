"""Exception hierarchy for the Pretzel reproduction.

All library errors derive from :class:`PretzelError` so callers can catch a
single base class.  Subsystems raise the most specific subclass available;
errors carry human-readable messages and never swallow the underlying cause.
"""

from __future__ import annotations


class PretzelError(Exception):
    """Base class for every error raised by this library."""


class ParameterError(PretzelError, ValueError):
    """A configuration or cryptographic parameter is invalid."""


class CryptoError(PretzelError):
    """Base class for cryptographic failures."""


class KeyError_(CryptoError):
    """A key is malformed, missing, or does not match its parameters."""


class DecryptionError(CryptoError):
    """Ciphertext failed to decrypt (wrong key, corrupted data, noise overflow)."""


class SignatureError(CryptoError):
    """A signature failed to verify."""


class IntegrityError(CryptoError):
    """A MAC or authenticated-encryption tag failed to verify."""


class NoiseBudgetExceeded(DecryptionError):
    """Homomorphic noise grew beyond what the ciphertext modulus can absorb."""


class PackingError(PretzelError, ValueError):
    """Packed plaintext layout is inconsistent (overflow, misaligned rows, ...)."""


class ProtocolError(PretzelError):
    """A two-party protocol received an out-of-order or malformed message."""


class ProtocolAbort(ProtocolError):
    """A party detected misbehaviour and aborted the protocol."""


class WireFormatError(ProtocolError):
    """A serialized protocol frame is malformed, truncated, or mis-versioned."""


class TransportClosedError(ProtocolError):
    """The transport (or its peer) closed; no further frames can move."""


class TransportTimeoutError(ProtocolError):
    """No frame arrived within the receive deadline (the peer may be silent)."""


class SnapshotError(ProtocolError):
    """A session cannot be snapshotted or restored at its current position."""


class CircuitError(PretzelError, ValueError):
    """A boolean circuit is malformed or used inconsistently."""


class OTError(ProtocolError):
    """Oblivious-transfer sub-protocol failure."""


class ReplayError(ProtocolError):
    """A duplicate or replayed email was detected (§4.4 of the paper)."""


class MailError(PretzelError):
    """Errors in the simulated mail substrate (delivery, mailbox, parsing)."""


class ClassifierError(PretzelError):
    """A classifier was used before training or with inconsistent shapes."""


class DatasetError(PretzelError):
    """Synthetic corpus generation or loading failed."""


class SearchIndexError(PretzelError):
    """Keyword-search index failure."""
