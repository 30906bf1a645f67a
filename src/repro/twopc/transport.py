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
* :class:`TcpTransport` — **one endpoint** of a real TCP connection (or of
  a socketpair) over a blocking socket.  Each process holds its own
  endpoint and its own ledger; the shard fabric's control link
  (:mod:`repro.fabric.control`) runs over it.  ``receive`` waits on a
  selector, not on the socket's timeout, so one thread can read with a
  deadline while another writes.

TCP already delivers a connection's bytes once and in order, so the TCP
endpoint adds no acks or retransmits: each frame is
``u32 length ‖ u32 CRC32(length ‖ payload) ‖ payload`` (:func:`encode_frame`),
and :class:`FrameAssembler`, the incremental parser, refuses a frame whose
checksum does not verify (TCP's own 16-bit checksum misses real corruption).
A refused frame ends the connection; the fabric recovers by replacing the
link.  Framing behaviour under adversarial write splits (1-byte writes,
frame-boundary straddles) is defined — and property-tested — in one place.
A closed transport (or a peer hangup mid-frame) raises
:class:`~repro.exceptions.TransportClosedError`, never a raw ``OSError``.

:class:`FramedChannel` layers a :class:`~repro.twopc.wire.WireCodec` on top:
protocol code sends and receives *typed frames*, the transport sees bytes.
"""

from __future__ import annotations

import os
import selectors
import socket
import struct
import threading
import time
import zlib
from abc import ABC, abstractmethod
from collections import deque

from repro.crypto.ahe import AHEPublicKey, AHEScheme
from repro.exceptions import (
    ProtocolError,
    TransportClosedError,
    TransportTimeoutError,
    WireFormatError,
)
from repro.obs import get_registry
from repro.twopc.wire import Frame, WireCodec

#: Every TCP frame starts with ``u32 length ‖ u32 CRC32(length ‖ payload)``.
FRAME_HEADER = struct.Struct(">II")

#: Upper bound on a single frame accepted off the wire (64 MiB).  Nothing the
#: protocols produce comes near this; it exists so a corrupted or hostile
#: length prefix cannot make an endpoint try to buffer gigabytes.
MAX_FRAME_BYTES = 64 * 1024 * 1024


def _checksum(length_bytes, payload) -> int:
    return zlib.crc32(payload, zlib.crc32(length_bytes))


def encode_frame(payload: bytes) -> bytes:
    """One frame as it crosses a byte stream: header, then *payload*."""
    checksum = _checksum(len(payload).to_bytes(4, "big"), payload)
    return FRAME_HEADER.pack(len(payload), checksum) + payload


class FrameAssembler:
    """Incremental parser for checksummed, length-prefixed frames.

    Byte-stream transports deliver arbitrary chunks — a frame may arrive one
    byte at a time, or a chunk may straddle a frame boundary.  ``feed`` copes
    with every split: it buffers partial data and returns each frame exactly
    once, in order, as soon as its last byte arrives.  A length over the cap
    or a checksum that does not verify raises
    :class:`~repro.exceptions.WireFormatError`, and frames the same chunk
    completed before the damaged one are dropped with it: the link ends
    either way.
    """

    def __init__(self, max_frame_bytes: int = MAX_FRAME_BYTES) -> None:
        self.max_frame_bytes = max_frame_bytes
        self._buffer = bytearray()

    def feed(self, data: bytes) -> list[bytes]:
        """Absorb *data* and return every frame it completed."""
        self._buffer += data
        frames: list[bytes] = []
        while len(self._buffer) >= FRAME_HEADER.size:
            length, checksum = FRAME_HEADER.unpack_from(self._buffer)
            if length > self.max_frame_bytes:
                raise WireFormatError(
                    f"frame length {length} exceeds the {self.max_frame_bytes}-byte cap"
                )
            end = FRAME_HEADER.size + length
            if len(self._buffer) < end:
                break
            frame = bytes(self._buffer[FRAME_HEADER.size : end])
            if _checksum(self._buffer[:4], frame) != checksum:
                raise WireFormatError(f"frame CRC32 mismatch ({length}-byte frame)")
            frames.append(frame)
            del self._buffer[:end]
        return frames

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
    def receive(self, receiver: str) -> bytes:
        """Return the oldest undelivered frame addressed to *receiver*.

        An in-process transport has nothing to wait on, so an empty queue
        raises :class:`~repro.exceptions.TransportTimeoutError` at once.
        """

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

    def receive(self, receiver: str) -> bytes:
        self._check_party(receiver)
        pending = self._queues[receiver]
        if not pending:
            # Nothing can arrive while the caller holds the only thread.
            raise TransportTimeoutError(
                f"no pending frame for {receiver!r} on transport {self.name!r}"
            )
        return pending.popleft()


class TcpTransport(Transport):
    """One endpoint of a real stream connection speaking checksummed frames.

    Unlike the in-process transports, which own both ends, a
    :class:`TcpTransport` lives in one process and talks to a peer endpoint
    across the network — the deployment arrangement of §6.3, where a
    provider serves remote clients.  It drives one connected blocking
    stream socket (a TCP connection, or one end of a socketpair) and owns
    it: :meth:`close` closes it.  The party owning this endpoint is
    ``local_party``; sends are accounted to it at :meth:`send`, and inbound
    frames are accounted to the peer as they are assembled, so each
    endpoint's ledger converges to the shared-transport ledger of the
    in-process case.

    :meth:`send` writes the whole frame before it returns.  :meth:`receive`
    waits for readability, never on the socket's own timeout, so a deadline
    on one thread's reads leaves another thread's writes blocking; it raises
    :class:`~repro.exceptions.TransportTimeoutError` when its deadline
    passes (a partial frame stays buffered for the next call).  One thread
    may send while another receives — their ledger updates share one lock
    — but concurrent senders must serialise their sends themselves.  A
    closed or shut-down endpoint, or a peer hangup, raises
    :class:`~repro.exceptions.TransportClosedError`.
    """

    def __init__(
        self,
        sock: socket.socket,
        local_party: str = "client",
        parties: tuple[str, str] = ("client", "provider"),
        name: str = "tcp",
        timeout: float = 30.0,
    ) -> None:
        super().__init__(parties, name)
        self._check_party(local_party)
        self.local_party = local_party
        self.timeout = timeout
        if sock.family in (socket.AF_INET, socket.AF_INET6):
            # Each frame reaches the kernel whole: send it without waiting for an ACK.
            sock.setsockopt(socket.IPPROTO_TCP, socket.TCP_NODELAY, 1)
        self._sock = sock
        self._selector = selectors.DefaultSelector()
        self._selector.register(sock, selectors.EVENT_READ)
        self._assembler = FrameAssembler()
        self._inbound: deque[bytes] = deque()
        self._closed = False

    @classmethod
    def connect(
        cls,
        host: str,
        port: int,
        local_party: str = "client",
        parties: tuple[str, str] = ("client", "provider"),
        name: str = "tcp-client",
        timeout: float = 30.0,
    ) -> "TcpTransport":
        """Dial a serving endpoint (within *timeout*) and return this side's transport."""
        try:
            sock = socket.create_connection((host, port), timeout=timeout)
        except OSError as error:
            raise TransportClosedError(
                f"transport {name!r} could not reach {host}:{port}: {error}"
            ) from error
        sock.settimeout(None)
        return cls(sock, local_party, parties, name, timeout)

    def _local_only(self, party: str) -> None:
        self._check_party(party)
        if party != self.local_party:
            raise ProtocolError(
                f"endpoint {self.name!r} belongs to {self.local_party!r}; "
                f"{party!r} lives across the network"
            )

    #: One lock for every endpoint's ledger: a sending and a reading thread
    #: update one endpoint's ledger, and every endpoint's updates land in
    #: the same process-wide registry counters.
    _ledger_lock = threading.Lock()

    def _account(self, sender: str, size: int) -> None:
        with self._ledger_lock:
            super()._account(sender, size)

    # -- byte movement --------------------------------------------------------
    def send(self, sender: str, data: bytes) -> int:
        self._local_only(sender)
        if self._closed:
            raise TransportClosedError(f"transport {self.name!r} is closed")
        self._account(sender, len(data))
        try:
            self._sock.sendall(encode_frame(data))
        except OSError as error:
            raise TransportClosedError(
                f"transport {self.name!r} peer went away while sending: {error}"
            ) from error
        return len(data)

    def receive(self, receiver: str, timeout_seconds: float | None = None) -> bytes:
        self._local_only(receiver)
        peer = self.peer_of(receiver)
        deadline = time.monotonic() + (
            timeout_seconds if timeout_seconds is not None else self.timeout
        )
        while not self._inbound:
            if self._closed:
                raise TransportClosedError(f"transport {self.name!r} is closed")
            if not self._selector.select(max(0.0, deadline - time.monotonic())):
                raise TransportTimeoutError(
                    f"timed out waiting for a frame for {receiver!r} on {self.name!r}"
                )
            try:
                chunk = self._sock.recv(65536)
            except OSError as error:
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

    def shutdown(self) -> None:
        """End the connection but keep the descriptor: a thread blocked in
        :meth:`send` or :meth:`receive` wakes with
        :class:`~repro.exceptions.TransportClosedError`, and no other file
        can take the descriptor's number while it might still use it."""
        try:
            self._sock.shutdown(socket.SHUT_RDWR)
        except OSError:
            pass  # already disconnected

    def close(self) -> None:
        """Shut the connection down and release the socket (idempotent)."""
        if self._closed:
            return
        self._closed = True
        self.shutdown()
        self._selector.close()
        self._sock.close()


def _new_ledger_lock() -> None:
    # A child forked while another thread held the lock would wait forever.
    TcpTransport._ledger_lock = threading.Lock()


os.register_at_fork(after_in_child=_new_ledger_lock)


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

    def total_bytes(self) -> int:
        return self.transport.total_bytes()

    def total_messages(self) -> int:
        return self.transport.total_messages()

    def rounds(self) -> int:
        return self.transport.rounds()

