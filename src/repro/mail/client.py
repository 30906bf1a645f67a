"""The mail client: composes, encrypts, sends, fetches and decrypts email.

The client side of Fig. 1: it owns an :class:`~repro.mail.e2e.E2EIdentity`,
keeps a per-sender outgoing sequence counter (consumed by the recipient's
replay guard, §4.4), and a tiny "key directory" of peers' public identities —
the piece of the key-management problem the paper explicitly scopes out
(§2.2) but which the substrate still needs in order to run.
"""

from __future__ import annotations

from dataclasses import dataclass, field

from repro.exceptions import MailError
from repro.mail.e2e import E2EIdentity, E2EModule, E2EPublicIdentity
from repro.mail.message import EmailMessage, EncryptedEmail
from repro.mail.provider import MailProvider
from repro.mail.replay import ReplayGuard


@dataclass
class MailClient:
    """A user's mail client."""

    identity: E2EIdentity
    provider: MailProvider
    e2e: E2EModule
    key_directory: dict[str, E2EPublicIdentity] = field(default_factory=dict)
    replay_guard: ReplayGuard = field(default_factory=ReplayGuard)
    _outgoing_sequence: dict[str, int] = field(default_factory=dict)
    _fetch_cursor: int = 0

    def __post_init__(self) -> None:
        self.provider.register_user(self.identity.address)

    @property
    def address(self) -> str:
        return self.identity.address

    # -- key directory ---------------------------------------------------------
    def learn_identity(self, public_identity: E2EPublicIdentity) -> None:
        """Record a peer's public keys (stand-in for key management, §7)."""
        self.key_directory[public_identity.address] = public_identity

    def lookup_identity(self, address: str) -> E2EPublicIdentity:
        identity = self.key_directory.get(address)
        if identity is None:
            raise MailError(f"no public keys known for {address}")
        return identity

    # -- sending ----------------------------------------------------------------
    def compose(self, recipient: str, subject: str, body: str) -> EmailMessage:
        """Build a message with the next per-recipient sequence number."""
        sequence = self._outgoing_sequence.get(recipient, 0)
        self._outgoing_sequence[recipient] = sequence + 1
        return EmailMessage(
            sender=self.address,
            recipient=recipient,
            subject=subject,
            body=body,
            sequence_number=sequence,
        )

    def send(self, message: EmailMessage, recipient_provider: MailProvider) -> EncryptedEmail:
        """Encrypt, sign and hand the email to the recipient's provider."""
        if message.sender != self.address:
            raise MailError("clients may only send email from their own address")
        recipient_public = self.lookup_identity(message.recipient)
        encrypted = self.e2e.encrypt_and_sign(message, self.identity, recipient_public)
        recipient_provider.accept_delivery(encrypted)
        return encrypted

    def send_new(
        self, recipient: str, subject: str, body: str, recipient_provider: MailProvider
    ) -> EncryptedEmail:
        """Compose-and-send convenience."""
        return self.send(self.compose(recipient, subject, body), recipient_provider)

    def fetch_and_decrypt(self, enforce_replay_guard: bool = True) -> list[EmailMessage]:
        """Fetch new encrypted emails from the provider, verify and decrypt them.

        Emails failing signature or integrity checks raise; emails flagged by
        the replay guard are silently dropped (they are duplicates by
        definition), matching the counters-and-windows defence of §4.4.
        """
        encrypted_emails = self.provider.fetch(self.address, self._fetch_cursor)
        self._fetch_cursor += len(encrypted_emails)
        decrypted = []
        for encrypted in encrypted_emails:
            sender_public = self.lookup_identity(encrypted.sender)
            message = self.e2e.verify_and_decrypt(encrypted, self.identity, sender_public)
            if enforce_replay_guard:
                if not self.replay_guard.would_accept(message.sender, message.sequence_number):
                    continue
                self.replay_guard.check_and_record(message.sender, message.sequence_number)
            decrypted.append(message)
        return decrypted
