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
