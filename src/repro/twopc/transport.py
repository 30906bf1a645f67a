"""Transport abstraction: moving serialized frames between two parties.

A :class:`Transport` carries opaque byte strings between exactly two named
parties and keeps the ledger the paper's evaluation needs — bytes and
messages per sending party, plus communication *rounds* (a round is a maximal
burst of consecutive frames from one direction; Figs. 3/6/11 report rounds
alongside bytes).  Accounting is exact: a transport charges ``len(data)`` for
every frame it accepts, nothing is estimated.

Two implementations are provided:

* :class:`LoopbackTransport` — an in-process FIFO.  Every protocol frame runs
  over it: one-shot drivers, tests, and the serving loop of
  :mod:`repro.core.runtime` inside each shard worker;
* :class:`AsyncTcpTransport` — **one endpoint** of a real TCP connection
  (asyncio streams) using u32-length-prefixed framing.  Each process holds its
  own endpoint and its own ledger; the shard fabric's control link
  (:mod:`repro.fabric.control`) runs over it.

The TCP endpoint parses its byte stream with :class:`FrameAssembler`, the
incremental length-prefix parser, so framing behaviour under adversarial write
splits (1-byte writes, frame-boundary straddles) is defined — and
property-tested — in one place.  A closed transport (or a peer hangup
mid-frame) raises :class:`~repro.exceptions.TransportClosedError`, never a raw
``OSError``.

:class:`FramedChannel` layers a :class:`~repro.twopc.wire.WireCodec` on top:
protocol code sends and receives *typed frames*, the transport sees bytes.
"""

from __future__ import annotations

import asyncio
import random
import struct
from abc import ABC, abstractmethod
from collections import deque
from dataclasses import dataclass

from repro.crypto.ahe import AHEPublicKey, AHEScheme
from repro.exceptions import (
    ProtocolError,
    TransportClosedError,
    TransportTimeoutError,
    WireFormatError,
)
from repro.obs import get_registry
from repro.twopc.wire import Frame, WireCodec

#: Every byte-stream transport prefixes each frame with its u32 length.
FRAME_LENGTH_PREFIX = struct.Struct(">I")

#: Upper bound on a single frame accepted off the wire (64 MiB).  Nothing the
#: protocols produce comes near this; it exists so a corrupted or hostile
#: length prefix cannot make an endpoint try to buffer gigabytes.
MAX_FRAME_BYTES = 64 * 1024 * 1024


class FrameAssembler:
    """Incremental parser for u32-length-prefixed frames.

    Byte-stream transports deliver arbitrary chunks — a frame may arrive one
    byte at a time, or a chunk may straddle a frame boundary.  ``feed`` copes
    with every split: it buffers partial data and returns each frame exactly
    once, in order, as soon as its last byte arrives.
    """

    def __init__(self, max_frame_bytes: int = MAX_FRAME_BYTES) -> None:
        self.max_frame_bytes = max_frame_bytes
        self._buffer = bytearray()

    def feed(self, data: bytes) -> list[bytes]:
        """Absorb *data* and return every frame it completed."""
        self._buffer += data
        frames: list[bytes] = []
        while True:
            if len(self._buffer) < FRAME_LENGTH_PREFIX.size:
                return frames
            (length,) = FRAME_LENGTH_PREFIX.unpack_from(self._buffer)
            if length > self.max_frame_bytes:
                raise WireFormatError(
                    f"frame length {length} exceeds the {self.max_frame_bytes}-byte cap"
                )
            end = FRAME_LENGTH_PREFIX.size + length
            if len(self._buffer) < end:
                return frames
            frames.append(bytes(self._buffer[FRAME_LENGTH_PREFIX.size : end]))
            del self._buffer[:end]

    def buffered_bytes(self) -> int:
        """Bytes held waiting for the rest of a frame (0 at frame boundaries)."""
        return len(self._buffer)


class Transport(ABC):
    """Duplex byte transport between two named parties, with exact accounting."""

    def __init__(self, parties: tuple[str, str], name: str = "transport") -> None:
        if len(set(parties)) != 2:
            raise ProtocolError("a transport connects exactly two distinct parties")
        self.name = name
        self.parties = tuple(parties)
        self.bytes_by_sender: dict[str, int] = {party: 0 for party in self.parties}
        self.messages_by_sender: dict[str, int] = {party: 0 for party in self.parties}
        self.frame_log: list[tuple[str, int]] = []  # (sender, size) per frame, in order
        self._last_sender: str | None = None
        self._rounds = 0
        # Registry instruments bound once here; _account only does arithmetic.
        registry = get_registry()
        self._metric_bytes = {
            party: registry.counter("transport_bytes_total", party=party)
            for party in self.parties
        }
        self._metric_frames = {
            party: registry.counter("transport_frames_total", party=party)
            for party in self.parties
        }
        self._metric_rounds = registry.counter("transport_rounds_total")

    def peer_of(self, party: str) -> str:
        self._check_party(party)
        first, second = self.parties
        return second if party == first else first

    def _check_party(self, party: str) -> None:
        if party not in self.parties:
            raise ProtocolError(
                f"unknown party {party!r} on transport {self.name!r} "
                f"(parties: {self.parties})"
            )

    def _account(self, sender: str, size: int) -> None:
        self.bytes_by_sender[sender] += size
        self.messages_by_sender[sender] += 1
        self.frame_log.append((sender, size))
        self._metric_bytes[sender].inc(size)
        self._metric_frames[sender].inc()
        if sender != self._last_sender:
            self._rounds += 1
            self._metric_rounds.inc()
            self._last_sender = sender

    # -- byte movement ------------------------------------------------------
    @abstractmethod
    def send(self, sender: str, data: bytes) -> int:
        """Accept *data* from *sender* for delivery to the peer; returns len(data)."""

    @abstractmethod
    def receive(self, receiver: str, timeout_seconds: float | None = None) -> bytes:
        """Return the oldest undelivered frame addressed to *receiver*.

        *timeout_seconds* bounds how long a blocking transport waits for a
        frame before raising :class:`~repro.exceptions.TransportTimeoutError`
        — without it, a silent peer hangs the receiver forever, which is what
        the ack/retransmit layer (:mod:`repro.twopc.reliable`) polls against.
        In-process transports have nothing to wait on, so they raise the
        timeout immediately when the queue is empty.
        """

    @abstractmethod
    def pending(self) -> int:
        """Frames accepted but not yet received (0 after a completed protocol)."""

    # -- ledger -------------------------------------------------------------
    def total_bytes(self) -> int:
        return sum(self.bytes_by_sender.values())

    def total_messages(self) -> int:
        return sum(self.messages_by_sender.values())

    def rounds(self) -> int:
        """Completed communication rounds (direction changes, counting the first)."""
        return self._rounds

    def close(self) -> None:
        """Release any OS resources (no-op for in-process transports)."""


class LoopbackTransport(Transport):
    """In-process FIFO transport; both parties live in one Python process."""

    def __init__(
        self, parties: tuple[str, str] = ("client", "provider"), name: str = "loopback"
    ) -> None:
        super().__init__(parties, name)
        self._queues: dict[str, deque[bytes]] = {party: deque() for party in self.parties}

    def send(self, sender: str, data: bytes) -> int:
        self._check_party(sender)
        self._account(sender, len(data))
        self._queues[self.peer_of(sender)].append(bytes(data))
        return len(data)

    def receive(self, receiver: str, timeout_seconds: float | None = None) -> bytes:
        self._check_party(receiver)
        pending = self._queues[receiver]
        if not pending:
            # Nothing can arrive while the caller holds the only thread, so
            # an empty queue is an immediate timeout regardless of deadline.
            raise TransportTimeoutError(
                f"no pending frame for {receiver!r} on transport {self.name!r}"
            )
        return pending.popleft()

    def pending(self) -> int:
        return sum(len(pending) for pending in self._queues.values())


class AsyncTcpTransport(Transport):
    """One endpoint of a real TCP connection speaking length-prefixed frames.

    Unlike the in-process transports, which own both ends, an
    :class:`AsyncTcpTransport` lives in one process and talks to a peer
    endpoint across the network — the deployment arrangement of §6.3, where a
    provider serves remote clients.  The party owning this endpoint is
    ``local_party``; sends are accounted to it at :meth:`send`, and inbound
    frames are accounted to the peer as they are assembled, so each endpoint's
    ledger converges to the shared-transport ledger of the in-process case.

    ``send``/``receive`` are coroutines (the :class:`Transport` ledger
    contract is unchanged, only the calling convention differs).  Frame
    reassembly under arbitrary TCP segmentation is delegated to
    :class:`FrameAssembler`.  A closed endpoint, or a peer hangup mid-frame,
    raises :class:`~repro.exceptions.TransportClosedError`.
    """

    def __init__(
        self,
        reader: asyncio.StreamReader,
        writer: asyncio.StreamWriter,
        local_party: str = "client",
        parties: tuple[str, str] = ("client", "provider"),
        name: str = "tcp",
        timeout: float = 30.0,
    ) -> None:
        super().__init__(parties, name)
        self._check_party(local_party)
        self.local_party = local_party
        self.timeout = timeout
        self._reader = reader
        self._writer = writer
        self._assembler = FrameAssembler()
        self._inbound: deque[bytes] = deque()
        self._closed = False

    # -- connection establishment -------------------------------------------
    @classmethod
    async def connect(
        cls,
        host: str,
        port: int,
        local_party: str = "client",
        parties: tuple[str, str] = ("client", "provider"),
        name: str = "tcp-client",
        timeout: float = 30.0,
    ) -> "AsyncTcpTransport":
        """Dial a serving endpoint and return the connecting side's transport."""
        reader, writer = await asyncio.open_connection(host, port)
        return cls(reader, writer, local_party, parties, name, timeout)

    @classmethod
    async def start_server(
        cls,
        connection_handler,
        host: str = "127.0.0.1",
        port: int = 0,
        local_party: str = "provider",
        parties: tuple[str, str] = ("client", "provider"),
        name: str = "tcp-server",
        timeout: float = 30.0,
    ) -> asyncio.base_events.Server:
        """Serve TCP connections; *connection_handler(transport)* runs per peer.

        Returns the :class:`asyncio.Server` (use ``server.sockets[0]
        .getsockname()[1]`` for the bound port when *port* is 0).
        """

        async def on_connect(reader: asyncio.StreamReader, writer: asyncio.StreamWriter):
            transport = cls(reader, writer, local_party, parties, name, timeout)
            try:
                await connection_handler(transport)
            finally:
                await transport.aclose()

        return await asyncio.start_server(on_connect, host, port)

    @staticmethod
    def bound_port(server: asyncio.base_events.Server) -> int:
        """The port a server actually bound (for ``port=0`` OS assignment)."""
        return server.sockets[0].getsockname()[1]

    def _local_only(self, party: str) -> None:
        self._check_party(party)
        if party != self.local_party:
            raise ProtocolError(
                f"endpoint {self.name!r} belongs to {self.local_party!r}; "
                f"{party!r} lives across the network"
            )

    # -- byte movement (async) ----------------------------------------------
    async def send(self, sender: str, data: bytes) -> int:
        self._local_only(sender)
        if self._closed:
            raise TransportClosedError(f"transport {self.name!r} is closed")
        self._account(sender, len(data))
        self._writer.write(FRAME_LENGTH_PREFIX.pack(len(data)) + bytes(data))
        try:
            await self._writer.drain()
        except (ConnectionError, OSError) as error:
            raise TransportClosedError(
                f"transport {self.name!r} peer went away while sending: {error}"
            ) from error
        return len(data)

    async def receive(self, receiver: str, timeout_seconds: float | None = None) -> bytes:
        self._local_only(receiver)
        peer = self.peer_of(receiver)
        deadline = timeout_seconds if timeout_seconds is not None else self.timeout
        while not self._inbound:
            if self._closed:
                raise TransportClosedError(f"transport {self.name!r} is closed")
            try:
                chunk = await asyncio.wait_for(self._reader.read(65536), deadline)
            except asyncio.TimeoutError as timeout:
                raise TransportTimeoutError(
                    f"timed out waiting for a frame for {receiver!r} on {self.name!r}"
                ) from timeout
            except (ConnectionError, OSError) as error:
                raise TransportClosedError(
                    f"transport {self.name!r} connection failed: {error}"
                ) from error
            if not chunk:
                if self._assembler.buffered_bytes():
                    raise TransportClosedError(
                        f"transport {self.name!r} peer closed mid-frame"
                    )
                raise TransportClosedError(f"transport {self.name!r} peer closed")
            for frame in self._assembler.feed(chunk):
                self._account(peer, len(frame))
                self._inbound.append(frame)
        return self._inbound.popleft()

    def pending(self) -> int:
        """Frames assembled at this endpoint but not yet received."""
        return len(self._inbound)

    async def aclose(self) -> None:
        if self._closed:
            return
        self._closed = True
        try:
            self._writer.close()
            await self._writer.wait_closed()
        except (ConnectionError, OSError):
            pass

    def close(self) -> None:
        """Synchronous best-effort close (prefer :meth:`aclose` inside a loop)."""
        if self._closed:
            return
        self._closed = True
        try:
            self._writer.close()
        except (ConnectionError, OSError, RuntimeError):
            pass


# ---------------------------------------------------------------------------
# Fault injection: a seeded, deterministic degraded-network simulator
# ---------------------------------------------------------------------------
class FaultKind:
    """Names of the injectable faults (the ledger's vocabulary)."""

    DROP = "drop"
    CORRUPT = "corrupt"
    REORDER = "reorder"
    DUPLICATE = "duplicate"
    DELAY = "delay"
    DISCONNECT = "disconnect"


@dataclass(frozen=True)
class FaultSpec:
    """Per-fault injection rates for a :class:`FaultyTransport`, plus the seed.

    Rates are per-frame probabilities drawn from one seeded RNG in a fixed
    order, so a (spec, call-sequence) pair replays bit-identically — the same
    seeded-chaos discipline as the wire fuzz suite.  At most one fault is
    injected per frame (the rates must sum to at most 1).
    """

    drop_rate: float = 0.0
    corrupt_rate: float = 0.0
    reorder_rate: float = 0.0
    duplicate_rate: float = 0.0
    delay_rate: float = 0.0
    #: How many later sends a delayed frame waits before being released.
    delay_frames: int = 3
    #: Hard mid-stream hangup: the Nth accepted frame (and everything after
    #: it) raises :class:`~repro.exceptions.TransportClosedError` on both ends.
    disconnect_after_frames: int | None = None
    seed: int = 0

    def __post_init__(self) -> None:
        rates = (
            self.drop_rate,
            self.corrupt_rate,
            self.reorder_rate,
            self.duplicate_rate,
            self.delay_rate,
        )
        if any(not 0.0 <= rate <= 1.0 for rate in rates):
            raise ProtocolError("fault rates must lie in [0, 1]")
        if sum(rates) > 1.0 + 1e-9:
            raise ProtocolError("fault rates must sum to at most 1")
        if self.delay_frames < 1:
            raise ProtocolError("delay_frames must be at least 1")
        if self.disconnect_after_frames is not None and self.disconnect_after_frames < 0:
            raise ProtocolError("disconnect_after_frames must be non-negative")

    @classmethod
    def loss_cocktail(cls, rate: float, seed: int = 0) -> "FaultSpec":
        """The chaos suite's standard mix: *rate* each of drop/corrupt/reorder/duplicate."""
        return cls(
            drop_rate=rate,
            corrupt_rate=rate,
            reorder_rate=rate,
            duplicate_rate=rate,
            seed=seed,
        )


@dataclass(frozen=True)
class FaultEvent:
    """One injected fault: which frame (by global send index), what, to whom."""

    index: int
    kind: str
    sender: str
    size: int


#: Most recent fault events kept verbatim; older events age out of the log
#: (the exact per-kind tally never does).  Far above any chaos-suite volume.
FAULT_LOG_CAP = 4096


class _FaultInjector:
    """Seeded fault decisions + the holdback queue, shared by sync/async wrappers."""

    def __init__(self, spec: FaultSpec) -> None:
        self.spec = spec
        self._rng = random.Random(spec.seed)
        self.sends = 0
        self.disconnected = False
        #: Bounded event window — long chaos runs no longer grow it forever.
        self.fault_log: deque[FaultEvent] = deque(maxlen=FAULT_LOG_CAP)
        #: Events aged out of the bounded window (counts() stays exact regardless).
        self.dropped_events = 0
        self._tally: dict[str, int] = {}
        self._metric_by_kind: dict[str, object] = {}
        #: Frames being reordered/delayed: (release_after_send_index, sender, frame).
        self.held: list[tuple[int, str, bytes]] = []

    def record(self, kind: str, sender: str, size: int) -> None:
        if len(self.fault_log) == FAULT_LOG_CAP:
            self.dropped_events += 1
        self.fault_log.append(FaultEvent(self.sends, kind, sender, size))
        self._tally[kind] = self._tally.get(kind, 0) + 1
        counter = self._metric_by_kind.get(kind)
        if counter is None:
            counter = self._metric_by_kind[kind] = get_registry().counter(
                "faults_injected_total", kind=kind
            )
        counter.inc()

    def counts(self) -> dict[str, int]:
        """Exact per-kind tally, maintained in record() — unaffected by the log cap."""
        return dict(self._tally)

    def check_disconnect(self, sender: str, size: int) -> None:
        after = self.spec.disconnect_after_frames
        if self.disconnected:
            raise TransportClosedError("injected disconnect: the peer hung up")
        if after is not None and self.sends >= after:
            self.disconnected = True
            self.record(FaultKind.DISCONNECT, sender, size)
            raise TransportClosedError(
                f"injected disconnect after {after} frames (mid-stream hangup)"
            )

    def decide(self, sender: str, data: bytes) -> tuple[str | None, bytes]:
        """Draw the fault (if any) for one frame; returns (kind, frame bytes)."""
        self.sends += 1
        spec = self.spec
        draw = self._rng.random()
        for kind, rate in (
            (FaultKind.DROP, spec.drop_rate),
            (FaultKind.CORRUPT, spec.corrupt_rate),
            (FaultKind.REORDER, spec.reorder_rate),
            (FaultKind.DUPLICATE, spec.duplicate_rate),
            (FaultKind.DELAY, spec.delay_rate),
        ):
            if draw < rate:
                if kind == FaultKind.CORRUPT and not data:
                    return None, data  # an empty frame has no bit to flip
                self.record(kind, sender, len(data))
                if kind == FaultKind.CORRUPT:
                    data = self.flip_bit(data)
                return kind, data
            draw -= rate
        return None, data

    def flip_bit(self, data: bytes) -> bytes:
        position = self._rng.randrange(len(data) * 8)
        corrupted = bytearray(data)
        corrupted[position // 8] ^= 1 << (position % 8)
        return bytes(corrupted)

    def release_after(self, kind: str) -> int:
        if kind == FaultKind.REORDER:
            return self.sends + 1  # the very next send overtakes this frame
        return self.sends + self.spec.delay_frames

    def take_due(self, peer_of, force_receiver: str | None = None) -> list[tuple[str, bytes]]:
        """Held frames whose deadline passed (or destined to *force_receiver*)."""
        due: list[tuple[str, bytes]] = []
        still: list[tuple[int, str, bytes]] = []
        for release_at, sender, frame in self.held:
            if release_at <= self.sends or (
                force_receiver is not None and peer_of(sender) == force_receiver
            ):
                due.append((sender, frame))
            else:
                still.append((release_at, sender, frame))
        self.held = still
        return due


class FaultyTransport(Transport):
    """Wrap any synchronous :class:`Transport` and inject seeded faults.

    Frames accepted from a sender may be dropped, bit-flipped, reordered
    (overtaken by the next frame), duplicated, delayed (held for
    ``delay_frames`` later sends) or cut off entirely by a mid-stream
    disconnect — each with its own configured rate, all drawn from one seeded
    RNG so a chaos run replays exactly.  Every injected fault is recorded in
    :attr:`fault_log`, so tests assert against what *actually* happened, not
    against probabilities.

    The wrapper keeps the standard :class:`Transport` ledger for the frames it
    *accepts* (the bytes a sender put on the wire); the inner transport's
    ledger shows what survived injection.  Held (reordered/delayed) frames are
    flushed into the inner transport as their deadlines pass — and, to keep a
    quiet tail from wedging the pipe, any frame still held when the receiver's
    poll times out is released then.
    """

    def __init__(self, inner: Transport, spec: FaultSpec, name: str | None = None) -> None:
        super().__init__(inner.parties, name or f"faulty[{inner.name}]")
        self.inner = inner
        self.spec = spec
        self._injector = _FaultInjector(spec)

    @property
    def fault_log(self) -> list[FaultEvent]:
        """The most recent ``FAULT_LOG_CAP`` fault events (bounded window)."""
        return list(self._injector.fault_log)

    @property
    def fault_events_dropped(self) -> int:
        """Events aged out of the bounded log (fault_counts() stays exact)."""
        return self._injector.dropped_events

    def fault_counts(self) -> dict[str, int]:
        """Injected-fault tally by kind (the ledger tests assert against)."""
        return self._injector.counts()

    def send(self, sender: str, data: bytes) -> int:
        self._check_party(sender)
        data = bytes(data)
        self._injector.check_disconnect(sender, len(data))
        self._account(sender, len(data))
        kind, frame = self._injector.decide(sender, data)
        if kind == FaultKind.DROP:
            pass
        elif kind == FaultKind.DUPLICATE:
            self.inner.send(sender, frame)
            self.inner.send(sender, frame)
        elif kind in (FaultKind.REORDER, FaultKind.DELAY):
            self._injector.held.append((self._injector.release_after(kind), sender, frame))
        else:
            self.inner.send(sender, frame)
        self._flush_due()
        return len(data)

    def _flush_due(self, force_receiver: str | None = None) -> None:
        for sender, frame in self._injector.take_due(self.peer_of, force_receiver):
            self.inner.send(sender, frame)

    def receive(self, receiver: str, timeout_seconds: float | None = None) -> bytes:
        self._check_party(receiver)
        if self._injector.disconnected:
            raise TransportClosedError("injected disconnect: the peer hung up")
        self._flush_due()
        try:
            return self.inner.receive(receiver, timeout_seconds)
        except TransportTimeoutError:
            # The stream dried up with frames still held back — release
            # anything destined to this receiver and try once more, otherwise
            # a delayed final frame could never be delivered.
            held_for_receiver = any(
                self.peer_of(sender) == receiver for _, sender, _ in self._injector.held
            )
            if not held_for_receiver:
                raise
            self._flush_due(force_receiver=receiver)
            return self.inner.receive(receiver, timeout_seconds)

    def pending(self) -> int:
        return self.inner.pending() + len(self._injector.held)

    def drain(self) -> None:
        """Release every held frame, oldest first (see the async twin)."""
        held = sorted(self._injector.held)
        self._injector.held = []
        for _, sender, frame in held:
            self.inner.send(sender, frame)

    def close(self) -> None:
        self.drain()
        self.inner.close()


class AsyncFaultyTransport:
    """The asyncio twin of :class:`FaultyTransport`: wraps one async endpoint.

    Faults are injected on this endpoint's *outbound* frames (each endpoint of
    a TCP pair wraps its own side, mirroring where real damage happens), with
    the same seeded decision stream and fault ledger as the sync wrapper.
    Exposes the async :class:`Transport` calling convention; the ledger stays
    on the inner endpoint.
    """

    def __init__(self, inner, spec: FaultSpec, name: str | None = None) -> None:
        self.inner = inner
        self.spec = spec
        self.name = name or f"faulty[{inner.name}]"
        self._injector = _FaultInjector(spec)

    @property
    def local_party(self) -> str:
        return self.inner.local_party

    @property
    def fault_log(self) -> list[FaultEvent]:
        """The most recent ``FAULT_LOG_CAP`` fault events (bounded window)."""
        return list(self._injector.fault_log)

    @property
    def fault_events_dropped(self) -> int:
        return self._injector.dropped_events

    def fault_counts(self) -> dict[str, int]:
        return self._injector.counts()

    def peer_of(self, party: str) -> str:
        return self.inner.peer_of(party)

    async def send(self, sender: str, data: bytes) -> int:
        data = bytes(data)
        self._injector.check_disconnect(sender, len(data))
        kind, frame = self._injector.decide(sender, data)
        if kind == FaultKind.DROP:
            pass
        elif kind == FaultKind.DUPLICATE:
            await self.inner.send(sender, frame)
            await self.inner.send(sender, frame)
        elif kind in (FaultKind.REORDER, FaultKind.DELAY):
            self._injector.held.append((self._injector.release_after(kind), sender, frame))
        else:
            await self.inner.send(sender, frame)
        await self._flush_due()
        return len(data)

    async def _flush_due(self) -> None:
        for sender, frame in self._injector.take_due(self.peer_of):
            await self.inner.send(sender, frame)

    async def receive(self, receiver: str, timeout_seconds: float | None = None) -> bytes:
        if self._injector.disconnected:
            raise TransportClosedError("injected disconnect: the peer hung up")
        try:
            return await self.inner.receive(receiver, timeout_seconds)
        except TransportTimeoutError:
            if not self._injector.held:
                raise
            # An endpoint only ever holds its own outbound frames, and a quiet
            # stream brings no later send to release them — the peer may be
            # waiting on exactly those.  Release them, then listen once more.
            await self.drain()
            return await self.inner.receive(receiver, timeout_seconds)

    def pending(self) -> int:
        return self.inner.pending() + len(self._injector.held)

    async def drain(self) -> None:
        """Release every held frame into the inner transport, oldest first.

        Held (reordered/delayed) frames are normally flushed by *later
        sends* crossing their release deadline — so a session whose final
        outbound frame gets held, with no further sends coming, strands it:
        the peer waits forever on a frame this wrapper is still sitting on.
        Draining at end-of-stream (and on :meth:`aclose`) delivers the tail
        regardless of deadlines; injected *drops* stay dropped.
        """
        held = sorted(self._injector.held)
        self._injector.held = []
        for _, sender, frame in held:
            await self.inner.send(sender, frame)

    async def aclose(self) -> None:
        await self.drain()
        await self.inner.aclose()

    def close(self) -> None:
        self.inner.close()


class FramedChannel:
    """A typed frame channel: :class:`WireCodec` over a :class:`Transport`.

    This is what every protocol party holds.  ``send`` serializes a frame and
    charges its exact byte length to the sending party; ``receive`` decodes
    the oldest frame addressed to the receiver.  The ledger methods delegate
    to the transport, so ``total_bytes()`` is by construction the sum of the
    serialized frame lengths that crossed the wire.
    """

    def __init__(self, transport: Transport, codec: WireCodec, name: str | None = None) -> None:
        self.transport = transport
        self.codec = codec
        self.name = name or transport.name

    @classmethod
    def loopback(
        cls,
        name: str = "channel",
        scheme: AHEScheme | None = None,
        public_key: AHEPublicKey | None = None,
        parties: tuple[str, str] = ("client", "provider"),
    ) -> "FramedChannel":
        """An in-process framed channel (the default for protocol drivers)."""
        return cls(
            LoopbackTransport(parties=parties, name=name),
            WireCodec(scheme=scheme, public_key=public_key),
            name=name,
        )

    # -- frame movement -----------------------------------------------------
    def send(self, sender: str, frame: Frame) -> int:
        return self.transport.send(sender, self.codec.encode(frame))

    def receive(self, receiver: str) -> Frame:
        return self.codec.decode(self.transport.receive(receiver))

    # -- ledger (delegated) -------------------------------------------------
    @property
    def parties(self) -> tuple[str, str]:
        return self.transport.parties

    @property
    def bytes_by_sender(self) -> dict[str, int]:
        return self.transport.bytes_by_sender

    @property
    def messages_by_sender(self) -> dict[str, int]:
        return self.transport.messages_by_sender

    def total_bytes(self) -> int:
        return self.transport.total_bytes()

    def total_messages(self) -> int:
        return self.transport.total_messages()

    def rounds(self) -> int:
        return self.transport.rounds()

    def pending(self) -> int:
        return self.transport.pending()

    def close(self) -> None:
        self.transport.close()
