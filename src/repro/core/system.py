"""End-to-end orchestration: Fig. 1 as running code.

:class:`PretzelSystem` wires a sender, a recipient and the recipient's
provider together:

1. the sender's client composes, encrypts and signs an email (e2e module);
2. the recipient's provider stores the opaque ciphertext in the mailbox;
3. the recipient's client fetches, verifies, decrypts (replay guard applied);
4. the decrypted email is handed to each configured function module, whose
   client half runs the two-party protocol with the provider half;
5. the per-email report collects the module outputs and the provider/client
   CPU and network costs — the same quantities §6 tabulates.
"""

from __future__ import annotations

from dataclasses import dataclass, field

from repro.core.config import PretzelConfig
from repro.core.modules import FunctionModule, ModuleRunResult
from repro.exceptions import MailError
from repro.mail.client import MailClient
from repro.mail.e2e import E2EIdentity, E2EModule
from repro.mail.message import EmailMessage
from repro.mail.provider import MailProvider


@dataclass
class EmailProcessingReport:
    """Everything that happened while handling one email end-to-end."""

    message: EmailMessage
    encrypted_size_bytes: int
    module_results: dict[str, ModuleRunResult] = field(default_factory=dict)

    @property
    def total_provider_seconds(self) -> float:
        return sum(result.provider_seconds for result in self.module_results.values())

    @property
    def total_client_seconds(self) -> float:
        return sum(result.client_seconds for result in self.module_results.values())

    @property
    def total_network_bytes(self) -> int:
        """Protocol bytes on top of the email itself (Fig. 3's per-email network rows)."""
        return sum(result.network_bytes for result in self.module_results.values())

    def output_of(self, module_name: str):
        result = self.module_results.get(module_name)
        return result.output if result else None


class PretzelProvider:
    """A mail provider augmented with the provider halves of the function modules."""

    def __init__(self, name: str, config: PretzelConfig | None = None) -> None:
        self.config = config or PretzelConfig.test()
        self.mail = MailProvider(name)


class PretzelClient:
    """A mail client augmented with the client halves of the function modules."""

    def __init__(self, address: str, provider: PretzelProvider, e2e: E2EModule, group) -> None:
        self.provider = provider
        self.identity = E2EIdentity.generate(address, group)
        self.mail = MailClient(identity=self.identity, provider=provider.mail, e2e=e2e)
        self.modules: dict[str, FunctionModule] = {}

    def attach_module(self, module: FunctionModule) -> None:
        """Enable a function module for this user's incoming email."""
        self.modules[module.name] = module

    def client_storage_bytes(self) -> int:
        """Total client-side storage across modules (encrypted models + indexes)."""
        return sum(module.client_storage_bytes() for module in self.modules.values())

    def process_message(self, message: EmailMessage, encrypted_size: int) -> EmailProcessingReport:
        """Run every attached function module over one decrypted email."""
        report = EmailProcessingReport(message=message, encrypted_size_bytes=encrypted_size)
        for name, module in self.modules.items():
            report.module_results[name] = module.process_email(message)
        return report


class PretzelSystem:
    """Factory/driver for a small Pretzel deployment (one provider, many users)."""

    def __init__(self, config: PretzelConfig | None = None, provider_name: str = "provider.example") -> None:
        self.config = config or PretzelConfig.test()
        self.group = self.config.build_group()
        self.e2e = E2EModule(self.group)
        self.provider = PretzelProvider(provider_name, self.config)
        self.clients: dict[str, PretzelClient] = {}

    # -- user management -----------------------------------------------------------
    def add_user(self, address: str) -> PretzelClient:
        if address in self.clients:
            raise MailError(f"user {address} already exists")
        client = PretzelClient(address, self.provider, self.e2e, self.group)
        self.clients[address] = client
        # Publish the new user's public identity to everyone (stand-in for the
        # key-management layer the paper scopes out, §7).
        for other in self.clients.values():
            other.mail.learn_identity(client.identity.public_bundle())
            client.mail.learn_identity(other.identity.public_bundle())
        return client

    def client(self, address: str) -> PretzelClient:
        client = self.clients.get(address)
        if client is None:
            raise MailError(f"unknown user {address}")
        return client

    # -- the end-to-end pipeline -----------------------------------------------------
    def send_email(self, sender: str, recipient: str, subject: str, body: str) -> int:
        """Steps 1–2 of Fig. 1: encrypt, sign, deliver.  Returns the wire size."""
        sending_client = self.client(sender)
        encrypted = sending_client.mail.send_new(recipient, subject, body, self.provider.mail)
        return encrypted.size_bytes()

    def fetch_and_process(self, recipient: str) -> list[EmailProcessingReport]:
        """Steps 3–4 of Fig. 1: fetch, verify+decrypt, run the function modules."""
        receiving_client = self.client(recipient)
        messages = receiving_client.mail.fetch_and_decrypt()
        reports = []
        for message in messages:
            reports.append(receiving_client.process_message(message, message.size_bytes()))
        return reports

    def roundtrip(self, sender: str, recipient: str, subject: str, body: str) -> EmailProcessingReport:
        """Send one email and process it at the recipient; returns the report."""
        self.send_email(sender, recipient, subject, body)
        reports = self.fetch_and_process(recipient)
        if not reports:
            raise MailError("the email was sent but not processed (replay guard or empty fetch)")
        return reports[-1]
