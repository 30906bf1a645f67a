"""Email message representation and wire encoding.

A minimal, self-contained stand-in for RFC 5322 + MIME: enough structure
(headers, body, canonical byte encoding, stable message ids, size accounting)
for the mail substrate and the benchmarks, without pulling in a real mail
stack.  The paper's cost model charges ``sz_email`` for the email body itself
(Fig. 3); :meth:`EmailMessage.size_bytes` is that quantity.
"""

from __future__ import annotations

from dataclasses import dataclass, field

from repro.crypto.hashes import sha256
from repro.exceptions import MailError
from repro.utils.serialization import canonical_dumps, canonical_loads


@dataclass
class EmailMessage:
    """A plaintext email."""

    sender: str
    recipient: str
    subject: str
    body: str
    headers: dict[str, str] = field(default_factory=dict)
    sequence_number: int = 0   # per-sender counter used by the replay defence (§4.4)

    def __post_init__(self) -> None:
        if not self.sender or not self.recipient:
            raise MailError("emails need both a sender and a recipient address")

    def to_bytes(self) -> bytes:
        """Canonical byte encoding (what gets encrypted and signed)."""
        return canonical_dumps(
            {
                "sender": self.sender,
                "recipient": self.recipient,
                "subject": self.subject,
                "body": self.body,
                "headers": dict(self.headers),
                "sequence_number": self.sequence_number,
            }
        )

    @classmethod
    def from_bytes(cls, data: bytes) -> "EmailMessage":
        decoded = canonical_loads(data)
        if not isinstance(decoded, dict):
            raise MailError("malformed email encoding")
        try:
            return cls(
                sender=decoded["sender"],
                recipient=decoded["recipient"],
                subject=decoded["subject"],
                body=decoded["body"],
                headers=dict(decoded.get("headers", {})),
                sequence_number=int(decoded.get("sequence_number", 0)),
            )
        except KeyError as missing:
            raise MailError(f"email encoding missing field {missing}") from missing

    def size_bytes(self) -> int:
        """The paper's ``sz_email``."""
        return len(self.to_bytes())

    def message_id(self) -> str:
        """Stable content-derived identifier (used for mailbox indexing)."""
        return sha256(b"message-id", self.to_bytes()).hex()[:32]

    def text_content(self) -> str:
        """The text the function modules classify: subject plus body."""
        return f"{self.subject}\n{self.body}"


@dataclass
class EncryptedEmail:
    """An end-to-end encrypted, signed email as handled by the provider.

    The provider sees only routing metadata (sender, recipient), the KEM
    encapsulation, the ciphertext, the MAC tag and the signature — never the
    subject or body.
    """

    sender: str
    recipient: str
    kem_ephemeral: int
    nonce: bytes
    ciphertext: bytes
    mac_tag: bytes
    signature_challenge: int
    signature_response: int

    def size_bytes(self) -> int:
        """Wire size of the encrypted email (``sz_email`` plus e2e overhead)."""
        return len(self.to_bytes())

    def to_bytes(self) -> bytes:
        return canonical_dumps(
            {
                "sender": self.sender,
                "recipient": self.recipient,
                "kem": self.kem_ephemeral,
                "nonce": self.nonce,
                "ciphertext": self.ciphertext,
                "mac": self.mac_tag,
                "sig_c": self.signature_challenge,
                "sig_s": self.signature_response,
            }
        )

