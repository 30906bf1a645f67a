"""Simulated email substrate: messages, end-to-end encryption, delivery.

Pretzel is "backwards compatible with existing email delivery infrastructure"
(§2.1): senders encrypt and sign, providers store and forward opaque
ciphertexts, recipients decrypt and then run the function-module protocols.
This package implements that substrate — a message format, a GPG-equivalent
e2e module, an in-process transport with byte accounting, provider mailboxes,
and the sender-side replay/duplicate defence of §4.4.
"""

from repro.mail.message import EmailMessage, EncryptedEmail
from repro.mail.e2e import E2EIdentity, E2EModule
from repro.mail.provider import MailProvider
from repro.mail.client import MailClient
from repro.mail.replay import ReplayGuard
from repro.mail.traces import TraceEvent, TraceSpec, VirtualClock, generate_trace

__all__ = [
    "EmailMessage",
    "EncryptedEmail",
    "E2EIdentity",
    "E2EModule",
    "MailProvider",
    "MailClient",
    "ReplayGuard",
    "TraceEvent",
    "TraceSpec",
    "VirtualClock",
    "generate_trace",
]
