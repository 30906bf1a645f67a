"""Function-module abstraction (Fig. 1: client half + provider half).

Every value-added function in Pretzel is a *function module*: a pair of
components, one at the client and one at the provider, that jointly compute a
result over the decrypted email without either side revealing its input.  The
spam and topic modules run two-party protocols; the keyword-search module is
client-only (§5).  This module defines the small shared vocabulary: a result
record with cost accounting and the abstract interface the system driver
calls.
"""

from __future__ import annotations

from abc import ABC, abstractmethod
from dataclasses import dataclass, field
from typing import Any, Sequence

from repro.mail.message import EmailMessage


@dataclass
class ModuleRunResult:
    """Outcome of running one function module over one email.

    ``network_bytes`` is the exact sum of the serialized frame lengths the
    protocol session put on its transport; ``network_messages`` and
    ``network_rounds`` are the frame count and the number of communication
    rounds (direction changes) of the same session — the paper reports rounds
    alongside bytes in Figs. 3, 6 and 11.
    """

    module_name: str
    output: Any
    provider_seconds: float = 0.0
    client_seconds: float = 0.0
    network_bytes: int = 0
    network_messages: int = 0
    network_rounds: int = 0
    details: dict[str, Any] = field(default_factory=dict)


class FunctionModule(ABC):
    """A provider-supplied function evaluated jointly with the client.

    A module with a provider half sets :attr:`protocol` (a
    :class:`~repro.core.runtime.ProviderFunction`) and :attr:`setup`, and
    implements :meth:`requests` and :meth:`_output`; a client-only module
    (keyword search) leaves ``protocol`` as ``None``.
    """

    name: str = "abstract"
    protocol: Any = None
    setup: Any = None
    # Per-pair OT-extension state, created lazily by the first batch run.
    _ot_pool: Any = None

    @abstractmethod
    def process_email(self, message: EmailMessage) -> ModuleRunResult:
        """Run the module's protocol over one decrypted email."""

    def requests(self, messages: Sequence[EmailMessage]) -> list[tuple]:
        """Each email's client-side protocol arguments, as one request tuple."""
        raise NotImplementedError(f"{type(self).__name__} has no provider half")

    def _output(self, result: Any) -> Any:
        """What the module reports for one protocol result."""
        raise NotImplementedError(f"{type(self).__name__} has no provider half")

    def _run_result(self, result: Any, num_features: int) -> ModuleRunResult:
        """One protocol result as this module's report entry."""
        return ModuleRunResult(
            module_name=self.name,
            output=self._output(result),
            provider_seconds=result.provider_seconds,
            client_seconds=result.client_seconds,
            network_bytes=result.network_bytes,
            network_messages=result.network_messages,
            network_rounds=result.network_rounds,
            details={
                "yao_and_gates": result.yao_and_gates,
                "features_in_email": num_features,
            },
        )

    def process_emails(self, messages: Sequence[EmailMessage]) -> list[ModuleRunResult]:
        """Run the module over a batch of decrypted emails.

        A client-only module runs its per-email path sequentially.  A module
        with a provider half runs the batch as concurrent sessions through
        the serving loop (:func:`repro.core.runtime.run_batch`), with
        cross-session batched decrypts; its per-pair OT-extension pool
        persists on the module, so only the first burst of its lifetime pays
        the base-OT handshake.
        """
        if self.protocol is None:
            return [self.process_email(message) for message in messages]
        from repro.core.runtime import run_batch

        if not messages:
            return []
        requests = self.requests(messages)
        if self._ot_pool is None and self.protocol.ot_mode == "iknp":
            self._ot_pool = self.protocol.make_ot_pool(self.setup)
        results = run_batch(self.protocol, self.setup, requests, ot_pool=self._ot_pool)
        return [
            self._run_result(result, len(request[0]))
            for result, request in zip(results, requests)
        ]

    def client_storage_bytes(self) -> int:
        """Client-side storage this module requires (encrypted models, indexes)."""
        return 0

    def setup_network_bytes(self) -> int:
        """One-time setup-phase transfer (encrypted model shipping)."""
        return 0
