"""Two-party protocols: the baseline Yao+GLLM hybrid and Pretzel's refinements.

The protocol stack is message-driven: typed wire frames
(:mod:`repro.twopc.wire`) travel over a transport abstraction
(:mod:`repro.twopc.transport`), and each protocol party is a reentrant state
machine (:mod:`repro.twopc.session`), so byte accounting is exact and the
provider halves multiplex across many concurrent email sessions.

* :mod:`repro.twopc.wire` — typed, versioned protocol frames with real
  ``to_bytes``/``from_bytes`` codecs for everything that crosses parties.
* :mod:`repro.twopc.transport` — :class:`Transport` (in-process loopback and
  one asyncio TCP endpoint, whose frames carry a CRC32 and rely on TCP for
  order and delivery) plus :class:`FramedChannel`, the typed-frame channel
  with per-party byte/message/round ledgers (the evaluation's "network
  transfers" columns).
* :mod:`repro.twopc.session` — the :class:`ProtocolSession` state-machine
  contract and the in-process session-pair driver.
* :mod:`repro.twopc.spam` — spam-filtering protocol: dot products + blinding +
  a Yao threshold comparison; client learns the 1-bit verdict (§3.3, §4.1–4.2).
* :mod:`repro.twopc.topics` — decomposed topic extraction: the client prunes
  to B' candidate topics, extracts and blinds those dot products, and a Yao
  argmax reveals only the winning topic index to the provider (§4.3, Fig. 5).
* :mod:`repro.twopc.noprv` — the NoPriv baseline: the provider classifies
  plaintext directly (the status quo the paper compares against).
"""

# The protocol modules import crypto modules that in turn build on the wire /
# transport / session layers of this package, so the package initialiser must
# not import the protocol modules eagerly (that would close an import cycle
# through a half-initialised repro.crypto.ot).  Names resolve lazily instead
# (PEP 562): `from repro.twopc import SpamFilterProtocol` works as before.
from importlib import import_module

_EXPORTS = {
    "NoPrivClassifier": "repro.twopc.noprv",
    "SpamFilterProtocol": "repro.twopc.spam",
    "SpamProtocolResult": "repro.twopc.spam",
    "TopicExtractionProtocol": "repro.twopc.topics",
    "TopicProtocolResult": "repro.twopc.topics",
    "ProtocolSession": "repro.twopc.session",
    "DecryptingSession": "repro.twopc.session",
    "BufferedProviderSession": "repro.twopc.session",
    "DecryptionRequest": "repro.twopc.session",
    "SessionJob": "repro.twopc.session",
    "SessionLoop": "repro.twopc.session",
    "run_session_pair": "repro.twopc.session",
    "SessionState": "repro.twopc.wire",
    "SessionStateFrame": "repro.twopc.wire",
    "SessionStateKind": "repro.twopc.wire",
    "Transport": "repro.twopc.transport",
    "LoopbackTransport": "repro.twopc.transport",
    "FramedChannel": "repro.twopc.transport",
    "WireCodec": "repro.twopc.wire",
}

__all__ = list(_EXPORTS)


def __getattr__(name: str):
    module_name = _EXPORTS.get(name)
    if module_name is None:
        raise AttributeError(f"module {__name__!r} has no attribute {name!r}")
    value = getattr(import_module(module_name), name)
    globals()[name] = value
    return value
