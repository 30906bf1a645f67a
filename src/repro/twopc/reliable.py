"""Reliable framing: exactly-once, in-order frames over a lossy transport.

The protocol stack assumes a perfect pipe — :class:`~repro.twopc.session.SessionLoop`
delivers each frame exactly once, in order, and a single dropped or corrupted
frame wedges a whole protocol session.  This module inserts a small
ack/retransmit layer *underneath* :class:`~repro.twopc.transport.FramedChannel`
so that protocol code keeps that assumption over a degraded network with zero
protocol-level changes.

Every frame crossing the wire carries a 10-byte reliability header::

    offset  size  field
    0       1     magic (0x52, "R")
    1       1     type  (0x01 DATA | 0x02 ACK)
    2       4     u32   sequence number (DATA) / cumulative ack (ACK)
    6       4     u32   CRC32 over header-sans-CRC + payload

DATA frames are numbered from 1 by each sender and kept until cumulatively
acked.  A receiver acks every in-order delivery with the highest contiguous
sequence it has seen; duplicates are dropped (and re-acked, in case the
original ack was lost), gaps are buffered for in-order reassembly, and any
frame whose CRC32 does not verify is discarded as corrupt — the retransmit
path recovers it.  Retransmission is timeout-driven with exponential backoff
on the poll deadline; a channel that makes no progress for
``max_attempts`` polls raises :class:`~repro.exceptions.ReliabilityError`.

Two arrangements are provided, mirroring the transport layer:

* :class:`ReliableChannel` — the shared-object (in-process) arrangement: one
  instance owns both ends, wrapping any synchronous
  :class:`~repro.twopc.transport.Transport` (typically a
  :class:`~repro.twopc.transport.FaultyTransport`).  Because both parties are
  driven from one thread, a receiver's poll timeout doubles as the *peer's*
  retransmit timer: frames the peer sent but never saw acked are put back on
  the wire.
* :class:`AsyncReliableTransport` — one endpoint of a cross-process pair
  (asyncio).  Each endpoint keeps its own send window; on a poll timeout it
  retransmits its *own* unacked frames, and on receiving a duplicate DATA
  frame it both re-acks and retransmits its unacked window, which unsticks
  the request/response pattern the protocols follow when a response is lost.
"""

from __future__ import annotations

import struct
import zlib
from collections import deque

from repro.exceptions import (
    ProtocolError,
    ReliabilityError,
    TransportClosedError,
    TransportTimeoutError,
    WireFormatError,
)
from repro.obs import get_registry
from repro.twopc.transport import (
    FaultSpec,
    FaultyTransport,
    FramedChannel,
    LoopbackTransport,
    Transport,
)
from repro.twopc.wire import WireCodec

#: Reliability header: magic, frame type, seq/ack, CRC32.
RELIABLE_HEADER = struct.Struct(">BBII")
RELIABLE_MAGIC = 0x52
TYPE_DATA = 0x01
TYPE_ACK = 0x02

#: Poll deadline for the first receive attempt; doubles per timeout.
DEFAULT_BASE_TIMEOUT = 0.05
#: Receive attempts (polls) without progress before the layer gives up.
DEFAULT_MAX_ATTEMPTS = 16


def encode_reliable(frame_type: int, sequence: int, payload: bytes = b"") -> bytes:
    """Serialize one reliability frame (header + payload, CRC over both)."""
    if frame_type not in (TYPE_DATA, TYPE_ACK):
        raise WireFormatError(f"unknown reliability frame type 0x{frame_type:02x}")
    if not 0 <= sequence <= 0xFFFFFFFF:
        raise WireFormatError(f"sequence {sequence} does not fit in u32")
    prefix = struct.pack(">BBI", RELIABLE_MAGIC, frame_type, sequence)
    checksum = zlib.crc32(prefix + payload) & 0xFFFFFFFF
    return prefix + struct.pack(">I", checksum) + payload


def decode_reliable(data: bytes) -> tuple[int, int, bytes]:
    """Parse and verify one reliability frame; returns (type, seq, payload).

    Raises :class:`~repro.exceptions.WireFormatError` on any damage — a bad
    magic, an unknown type, a truncated header, or a CRC mismatch.  Callers
    treat that as "the network corrupted this frame" and drop it.
    """
    if len(data) < RELIABLE_HEADER.size:
        raise WireFormatError(f"reliability frame truncated at {len(data)} bytes")
    magic, frame_type, sequence, checksum = RELIABLE_HEADER.unpack_from(data)
    payload = data[RELIABLE_HEADER.size :]
    if magic != RELIABLE_MAGIC:
        raise WireFormatError(f"bad reliability magic 0x{magic:02x}")
    if frame_type not in (TYPE_DATA, TYPE_ACK):
        raise WireFormatError(f"unknown reliability frame type 0x{frame_type:02x}")
    expected = zlib.crc32(data[:6] + payload) & 0xFFFFFFFF
    if checksum != expected:
        raise WireFormatError(
            f"reliability CRC mismatch (got 0x{checksum:08x}, want 0x{expected:08x})"
        )
    return frame_type, sequence, payload


class _EndpointState:
    """Per-party reliability bookkeeping (one direction of the conversation)."""

    def __init__(self) -> None:
        self.next_sequence = 1  # next DATA sequence this party assigns
        self.unacked: dict[int, bytes] = {}  # sent by this party, not yet acked
        self.expected = 1  # next peer sequence this party will deliver
        self.ready: deque[bytes] = deque()  # in-order payloads awaiting delivery
        self.out_of_order: dict[int, bytes] = {}  # buffered past-the-gap frames


class _ReliabilityCore:
    """Frame bookkeeping shared by the sync channel and the async endpoint."""

    def __init__(self) -> None:
        self.stats = {
            "retransmissions": 0,
            "acks_sent": 0,
            "duplicates_dropped": 0,
            "corrupt_dropped": 0,
        }
        # Mirror each stat into the process registry (bound once per channel).
        registry = get_registry()
        self._metrics = {
            key: registry.counter(f"reliable_{key}_total") for key in self.stats
        }

    def bump(self, key: str) -> None:
        self.stats[key] += 1
        self._metrics[key].inc()

    def on_data(self, state: _EndpointState, sequence: int, payload: bytes) -> tuple[int, bool]:
        """Apply one inbound DATA frame; returns (cumulative ack, was duplicate)."""
        duplicate = False
        if sequence < state.expected:
            self.bump("duplicates_dropped")
            duplicate = True
        elif sequence == state.expected:
            state.ready.append(payload)
            state.expected += 1
            while state.expected in state.out_of_order:
                state.ready.append(state.out_of_order.pop(state.expected))
                state.expected += 1
        elif sequence in state.out_of_order:
            self.bump("duplicates_dropped")
            duplicate = True
        else:
            state.out_of_order[sequence] = payload
        return state.expected - 1, duplicate

    def on_ack(self, state: _EndpointState, cumulative: int) -> None:
        """Drop every frame the peer has cumulatively acknowledged."""
        for sequence in [seq for seq in state.unacked if seq <= cumulative]:
            del state.unacked[sequence]


class ReliableChannel(Transport):
    """Exactly-once in-order delivery over a lossy synchronous transport.

    A drop-in :class:`~repro.twopc.transport.Transport`: wrap it in a
    :class:`~repro.twopc.transport.FramedChannel` and every protocol in the
    repo runs unchanged over a faulty pipe.  The ledger charges each party the
    *protocol* payload bytes exactly once per logical frame, so §4 cost
    accounting is unaffected by retransmissions; the inner transport's ledger
    shows the wire-level traffic including reliability overhead, retransmits
    and acks.
    """

    def __init__(
        self,
        inner: Transport,
        name: str | None = None,
        max_attempts: int = DEFAULT_MAX_ATTEMPTS,
        base_timeout: float = DEFAULT_BASE_TIMEOUT,
    ) -> None:
        super().__init__(inner.parties, name or f"reliable[{inner.name}]")
        if max_attempts < 1:
            raise ProtocolError("max_attempts must be at least 1")
        self.inner = inner
        self.max_attempts = max_attempts
        self.base_timeout = base_timeout
        self._core = _ReliabilityCore()
        self._states = {party: _EndpointState() for party in inner.parties}

    @property
    def stats(self) -> dict[str, int]:
        return dict(self._core.stats)

    # -- sending ------------------------------------------------------------
    def send(self, sender: str, data: bytes) -> int:
        self._check_party(sender)
        data = bytes(data)
        state = self._states[sender]
        sequence = state.next_sequence
        state.next_sequence += 1
        state.unacked[sequence] = data
        self._account(sender, len(data))
        self.inner.send(sender, encode_reliable(TYPE_DATA, sequence, data))
        return len(data)

    # -- receiving ----------------------------------------------------------
    def receive(self, receiver: str, timeout_seconds: float | None = None) -> bytes:
        self._check_party(receiver)
        state = self._states[receiver]
        peer = self.peer_of(receiver)
        peer_state = self._states[peer]
        timeouts = 0
        for _ in range(self.max_attempts * 64):  # hard stop against livelock
            if state.ready:
                return state.ready.popleft()
            poll = self.base_timeout * (2 ** min(timeouts, 6))
            if timeout_seconds is not None:
                poll = min(poll, timeout_seconds)
            try:
                raw = self.inner.receive(receiver, poll)
            except TransportTimeoutError:
                timeouts += 1
                # Both ends live in this object, so when the peer's
                # retransmit timer "fires" it can first learn what the lossy
                # wire acks never told it: everything below the receiver's
                # delivery frontier arrived (an implicit cumulative ack).
                # Without this, one lost tail ACK pins a delivered frame in
                # the unacked window forever.
                self._core.on_ack(peer_state, state.expected - 1)
                if timeouts >= self.max_attempts:
                    raise ReliabilityError(
                        f"no progress for {receiver!r} after {timeouts} polls "
                        f"({len(peer_state.unacked)} peer frame(s) unacked)"
                    ) from None
                if not peer_state.unacked and not state.out_of_order:
                    # Nothing in flight anywhere: behave like the bare
                    # transport and let the caller see the silence.
                    raise
                # Both parties run on this thread, so the receiver's poll
                # timeout doubles as the peer's retransmit timer firing.
                self._retransmit(peer, peer_state)
                continue
            try:
                frame_type, sequence, payload = decode_reliable(raw)
            except WireFormatError:
                self._core.bump("corrupt_dropped")
                continue
            if frame_type == TYPE_ACK:
                self._core.on_ack(state, sequence)
                continue
            cumulative, duplicate = self._core.on_data(state, sequence, payload)
            self.inner.send(receiver, encode_reliable(TYPE_ACK, cumulative))
            self._core.bump("acks_sent")
            if duplicate and not state.ready:
                # The peer is resending history, so our ack (or our own last
                # frame) probably got lost — push our unacked window too.
                self._retransmit(receiver, state)
        raise ReliabilityError(f"receive loop for {receiver!r} made no progress")

    def _retransmit(self, sender: str, state: _EndpointState) -> None:
        for sequence in sorted(state.unacked):
            self.inner.send(sender, encode_reliable(TYPE_DATA, sequence, state.unacked[sequence]))
            self._core.bump("retransmissions")

    # -- plumbing -----------------------------------------------------------
    def pending(self) -> int:
        buffered = sum(
            len(state.ready) + len(state.out_of_order) for state in self._states.values()
        )
        return self.inner.pending() + buffered

    def close(self) -> None:
        self.inner.close()


def chaos_channel(
    spec: FaultSpec,
    scheme=None,
    public_key=None,
    parties: tuple[str, str] = ("client", "provider"),
    name: str = "chaos",
    max_attempts: int = DEFAULT_MAX_ATTEMPTS,
) -> tuple[FramedChannel, FaultyTransport, ReliableChannel]:
    """The full degraded-network stack in one call.

    ``FramedChannel(ReliableChannel(FaultyTransport(LoopbackTransport)))`` —
    a drop-in replacement for ``protocol.make_channel(setup)`` that runs the
    same protocol over a seeded-lossy pipe.  Returns the channel plus the
    two wrapper layers so callers can read the fault ledger and the
    retransmit stats afterwards.
    """
    faulty = FaultyTransport(LoopbackTransport(parties=parties, name=name), spec)
    reliable = ReliableChannel(faulty, max_attempts=max_attempts)
    channel = FramedChannel(
        reliable, WireCodec(scheme=scheme, public_key=public_key), name=name
    )
    return channel, faulty, reliable


class AsyncReliableTransport:
    """One reliable endpoint of a cross-process pair (asyncio convention).

    Wraps one async endpoint (an
    :class:`~repro.twopc.transport.AsyncTcpTransport` or its faulty wrapper)
    and exposes the same calling convention; the fabric's control link
    (:mod:`repro.fabric.control`) is this over TCP.  Unlike the sync channel,
    each endpoint only controls its own side: on a poll timeout it retransmits
    its own unacked frames, and a duplicate inbound DATA frame triggers both a
    re-ack and a retransmit of the unacked window.
    """

    def __init__(
        self,
        inner,
        name: str | None = None,
        max_attempts: int = DEFAULT_MAX_ATTEMPTS,
        base_timeout: float = DEFAULT_BASE_TIMEOUT,
    ) -> None:
        if max_attempts < 1:
            raise ProtocolError("max_attempts must be at least 1")
        self.inner = inner
        self.name = name or f"reliable[{inner.name}]"
        self.max_attempts = max_attempts
        self.base_timeout = base_timeout
        self._core = _ReliabilityCore()
        self._state = _EndpointState()

    @property
    def stats(self) -> dict[str, int]:
        return dict(self._core.stats)

    # -- identity delegation (the ledger stays on the inner endpoint) --------
    @property
    def local_party(self) -> str:
        return self.inner.local_party

    def pending(self) -> int:
        return self.inner.pending() + len(self._state.ready) + len(self._state.out_of_order)

    # -- frame movement ------------------------------------------------------
    async def send(self, sender: str, data: bytes) -> int:
        data = bytes(data)
        state = self._state
        sequence = state.next_sequence
        state.next_sequence += 1
        state.unacked[sequence] = data
        await self.inner.send(sender, encode_reliable(TYPE_DATA, sequence, data))
        return len(data)

    async def receive(self, receiver: str, timeout_seconds: float | None = None) -> bytes:
        state = self._state
        timeouts = 0
        for _ in range(self.max_attempts * 64):
            if state.ready:
                return state.ready.popleft()
            poll = self.base_timeout * (2 ** min(timeouts, 6))
            if timeout_seconds is not None:
                poll = min(poll, timeout_seconds)
            try:
                raw = await self.inner.receive(receiver, poll)
            except TransportTimeoutError:
                timeouts += 1
                if timeouts >= self.max_attempts:
                    raise ReliabilityError(
                        f"no progress for {receiver!r} after {timeouts} polls "
                        f"({len(state.unacked)} local frame(s) unacked)"
                    ) from None
                # Our last frames may never have arrived; push them again so
                # the peer can respond.
                await self._retransmit()
                continue
            try:
                frame_type, sequence, payload = decode_reliable(raw)
            except WireFormatError:
                self._core.bump("corrupt_dropped")
                continue
            if frame_type == TYPE_ACK:
                self._core.on_ack(state, sequence)
                continue
            cumulative, duplicate = self._core.on_data(state, sequence, payload)
            if await self._send_control(encode_reliable(TYPE_ACK, cumulative)):
                self._core.bump("acks_sent")
            if duplicate and not state.ready:
                await self._retransmit()
        raise ReliabilityError(f"receive loop for {receiver!r} made no progress")

    async def _send_control(self, frame: bytes) -> bool:
        """Best-effort ack/retransmit write: a peer that already hung up after
        flushing its tail must not invalidate frames we have reassembled."""
        try:
            await self.inner.send(self.local_party, frame)
        except TransportClosedError:
            return False
        return True

    async def _retransmit(self) -> None:
        state = self._state
        for sequence in sorted(state.unacked):
            if await self._send_control(encode_reliable(TYPE_DATA, sequence, state.unacked[sequence])):
                self._core.bump("retransmissions")

    async def aclose(self) -> None:
        await self.inner.aclose()

    def close(self) -> None:
        self.inner.close()
