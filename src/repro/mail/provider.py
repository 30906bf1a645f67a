"""The mail provider: stores and forwards encrypted emails, hosts function modules.

In Pretzel's architecture (Fig. 1) the recipient's provider receives the
encrypted email over SMTP, places it in the recipient's mailbox and later
participates — as Party A — in the function-module protocols.  The provider
never holds email plaintext; its mailbox stores only :class:`EncryptedEmail`
objects.
"""

from __future__ import annotations

from dataclasses import dataclass, field

from repro.exceptions import MailError
from repro.mail.message import EncryptedEmail


@dataclass
class Mailbox:
    """One user's mailbox of encrypted emails, in arrival order."""

    address: str
    emails: list[EncryptedEmail] = field(default_factory=list)

    def deliver(self, email: EncryptedEmail) -> None:
        if email.recipient != self.address:
            raise MailError(
                f"email addressed to {email.recipient} cannot be delivered to {self.address}"
            )
        self.emails.append(email)

    def fetch_since(self, index: int) -> list[EncryptedEmail]:
        """IMAP-style incremental fetch: everything at or after *index*."""
        if index < 0:
            raise MailError("fetch index must be non-negative")
        return list(self.emails[index:])


class MailProvider:
    """An email provider with per-user mailboxes and delivery accounting."""

    def __init__(self, name: str) -> None:
        self.name = name
        self._mailboxes: dict[str, Mailbox] = {}
        self.delivered_count = 0
        self.delivered_bytes = 0

    def register_user(self, address: str) -> Mailbox:
        """Create (or return) the mailbox for *address*."""
        mailbox = self._mailboxes.get(address)
        if mailbox is None:
            mailbox = Mailbox(address=address)
            self._mailboxes[address] = mailbox
        return mailbox

    def accept_delivery(self, email: EncryptedEmail) -> None:
        """SMTP-equivalent: accept an inbound encrypted email for a local user."""
        mailbox = self._mailboxes.get(email.recipient)
        if mailbox is None:
            raise MailError(f"{self.name} has no user {email.recipient}")
        mailbox.deliver(email)
        self.delivered_count += 1
        self.delivered_bytes += email.size_bytes()

    def mailbox(self, address: str) -> Mailbox:
        mailbox = self._mailboxes.get(address)
        if mailbox is None:
            raise MailError(f"{self.name} has no user {address}")
        return mailbox

    def fetch(self, address: str, since_index: int = 0) -> list[EncryptedEmail]:
        """IMAP-equivalent: fetch a user's encrypted emails."""
        return self.mailbox(address).fetch_since(since_index)

