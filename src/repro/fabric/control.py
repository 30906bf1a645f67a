"""The fabric's control plane: versioned frames and the parent's link to an agent.

Every shard worker is an agent (:mod:`repro.fabric.agent`) serving a
:class:`~repro.core.runtime.ShardWorkerCore`, and the one
:class:`~repro.core.runtime.ShardDriver` steers every agent through this
module's :class:`TcpLink`, whether the agent is on another host or a child
forked in this box.  Every message on the wire is a
:class:`~repro.twopc.wire.ControlFrame`: a verb byte, the
:data:`~repro.twopc.wire.CONTROL_VERSION` stamp both ends check before
trusting a body, and an opaque payload this module pickles — the
parent<->agent link is a trusted deployment channel, so rich registration
payloads (protocols, setups) ride whole.

The channel stack is ``ControlFrame`` directly over
:class:`~repro.twopc.transport.TcpTransport` on one blocking stream socket
(a TCP connection, or one end of a socketpair): the stream delivers each
frame once and in order, and a frame whose CRC32 does not verify ends the
link, which then recovers the way any dead worker does
(``attach_replacement``).  A read deadline that passes is silence, not
failure.  There is no event loop at either end: the parent writes each
command from the caller's thread and reads on one plain thread per link,
and the agent serves one single-threaded loop.

Health rides the same link.  Either end sends a HEARTBEAT beacon only on
silence: when it has sent no frame for ``heartbeat_interval`` (2.5 s by
default, a dozen beacons inside the 30-s ``heartbeat_timeout``), so a link
that carries commands carries no beacons.  An agent that stays silent past
``heartbeat_timeout`` (and has no command in flight — a shard deep in a
decrypt burst is busy, not dead) is evicted.  Metrics are not the link's:
a worker's cumulative snapshot rides only on replies, beside the results
it counts, and the driver keeps it.
"""

from __future__ import annotations

import numbers
import pickle
import queue
import threading
import time
from typing import Any

from repro.core.runtime import ShardDriver
from repro.exceptions import ProtocolError, TransportTimeoutError, WireFormatError
from repro.twopc.transport import TcpTransport
from repro.twopc.wire import CONTROL_VERSION, ControlFrame, ControlVerb, WireCodec

#: Parties of every control link: the fabric parent dials, the agent serves.
CONTROL_PARTIES = ("parent", "agent")

_CODEC = WireCodec()  # control frames never carry ciphertexts; schemeless is fine


def pack_control(verb: int, body: Any) -> bytes:
    """Encode one control message: pickle the body into a versioned frame."""
    return _CODEC.encode(
        ControlFrame(verb=verb, version=CONTROL_VERSION, payload=pickle.dumps(body))
    )


def unpack_control(data: bytes) -> tuple[int, Any]:
    """Decode one control message to ``(verb, body)``.

    Refuses a foreign version *before* unpickling the body — the version
    stamp exists precisely so an endpoint never has to parse a payload
    format it does not speak.
    """
    frame = _CODEC.decode(data)
    if not isinstance(frame, ControlFrame):
        raise ProtocolError(
            f"expected a control frame on the control channel, got {type(frame).__name__}"
        )
    if frame.version != CONTROL_VERSION:
        raise ProtocolError(
            f"control version mismatch: peer speaks v{frame.version}, "
            f"this end speaks v{CONTROL_VERSION}"
        )
    try:
        body = pickle.loads(frame.payload)
    except Exception as error:  # pickle raises a zoo of types on bad bytes
        raise WireFormatError(f"undecodable control payload: {error}") from error
    return frame.verb, body


#: How long dialing and the HELLO exchange may take (and how long one read of
#: the link waits; after HELLO a passed deadline is silence), and how long a
#: posted command may go unanswered before :meth:`TcpLink.wait` gives up on
#: it (the driver still absorbs the reply if it arrives later).
CONNECT_TIMEOUT_SECONDS = 10.0
REQUEST_TIMEOUT_SECONDS = 300.0

#: Default silence after which either end of a link sends a HEARTBEAT.
HEARTBEAT_INTERVAL_SECONDS = 2.5


class TcpLink:
    """A :class:`~repro.core.runtime.WorkerLink` to one agent.

    *endpoint* names the agent: a ``(host, port)`` pair or any object with
    ``host``/``port`` attributes (an
    :class:`~repro.fabric.agent.AgentProcess` qualifies), which the link
    dials; or a forked :class:`~repro.fabric.agent.LocalAgent`, whose
    connected ``socket`` the link drives and whose child :meth:`close`
    reaps.  Construction runs the HELLO handshake, which delivers the scheduler
    spec ``(window_bursts, max_delay_seconds)`` and the driver's
    incarnation — the agent checks the spec and builds its worker core only
    then, or refuses the HELLO — and refuses an agent that speaks another
    control version or was launched as a different shard than position
    *index* (its checkpoint log is keyed by that shard index, so a
    replacement could never find its predecessor's).

    The caller's thread packs each command and writes it whole under a send
    lock.  One plain reader thread per link routes every inbound frame in
    stream order and keeps the liveness deadlines between frames: it waits
    for the socket to turn readable only until a beacon or the eviction
    check is due.  A beacon goes out only after ``heartbeat_interval``
    (default 2.5 s) in which the link sent nothing, and never waits for the
    send lock — a send in progress means the link is not silent — so the
    reader keeps draining replies while a large command is being written.
    An interval that is not above zero and below ``heartbeat_timeout`` is
    refused at construction.  The public surface is synchronous and is
    called from the driver's thread.
    """

    def __init__(
        self,
        endpoint: Any,
        index: int,
        scheduler_spec: tuple,
        incarnation: str,
        heartbeat_interval: float = HEARTBEAT_INTERVAL_SECONDS,
        heartbeat_timeout: float = 30.0,
    ) -> None:
        if not (
            isinstance(heartbeat_interval, numbers.Real)
            and 0 < heartbeat_interval < heartbeat_timeout
        ):
            raise ProtocolError(
                f"heartbeat_interval must be > 0 and < heartbeat_timeout "
                f"({heartbeat_timeout!r}), got {heartbeat_interval!r}"
            )
        self.index = index
        self.pid: int | None = None
        self.transport: TcpTransport | None = None
        self._heartbeat_interval = heartbeat_interval
        self._heartbeat_timeout = heartbeat_timeout
        self._failure: BaseException | None = None
        self._replies: queue.SimpleQueue = queue.SimpleQueue()
        # Commands sent (caller's thread), replies read, last frame heard
        # (reader thread), last frame sent (either, under the send lock).
        self._send_lock = threading.Lock()
        self._next_seq = 0
        self._next_reply = 0
        self._last_seen = self._last_sent = time.monotonic()
        self._thread: threading.Thread | None = None
        #: The forked child behind a socket endpoint (``None`` for a dialed one).
        self.agent = endpoint if hasattr(endpoint, "socket") else None
        if self.agent is not None:
            host = port = None
        elif hasattr(endpoint, "host") and hasattr(endpoint, "port"):
            host, port = endpoint.host, endpoint.port
        else:
            host, port = endpoint
        hello = {
            "version": CONTROL_VERSION,
            "incarnation": incarnation,
            "scheduler_spec": scheduler_spec,
            "agent_index": index,
            "heartbeat_interval": heartbeat_interval,
            "parent_timeout": max(heartbeat_timeout * 4, 60.0),
        }
        try:
            self._handshake(host, port, hello)
        except BaseException:
            self.close()
            raise
        self._thread = threading.Thread(
            target=self._reader, name=f"fabric-link[{index}]", daemon=True
        )
        self._thread.start()

    @property
    def alive(self) -> bool:
        return self._failure is None

    def _handshake(self, host: str | None, port: int | None, hello: dict) -> None:
        index = self.index
        where = (
            f"agent at {host}:{port}" if self.agent is None else f"forked agent {self.agent.pid}"
        )
        options = dict(
            local_party="parent",
            parties=CONTROL_PARTIES,
            name=f"fabric[{index}]",
            timeout=CONNECT_TIMEOUT_SECONDS,
        )
        if self.agent is None:
            self.transport = TcpTransport.connect(host, port, **options)
        else:
            self.transport = TcpTransport(self.agent.socket, **options)
        self._send(pack_control(ControlVerb.HELLO, hello))
        verb, body = unpack_control(self.transport.receive("parent"))
        if verb == ControlVerb.BYE:
            raise ProtocolError(
                f"{where} refused registration: "
                f"{body.get('error', 'no reason given')}"
            )
        if verb != ControlVerb.HELLO:
            raise ProtocolError(
                f"{where} broke the HELLO handshake (verb 0x{verb:02x})"
            )
        if body.get("version") != CONTROL_VERSION:
            raise ProtocolError(
                f"{where} speaks control v{body.get('version')}, "
                f"this parent speaks v{CONTROL_VERSION}"
            )
        if body.get("shard_index") != index:
            raise ProtocolError(
                f"{where} serves shard {body.get('shard_index')}, "
                f"expected {index} (checkpoints would not line up)"
            )
        self.pid = body.get("pid")
        self._last_seen = time.monotonic()

    def _send(self, frame: bytes) -> None:
        """Write one frame; the caller holds the send lock (or is the only thread)."""
        self.transport.send("parent", frame)
        self._last_sent = time.monotonic()

    def _reader(self) -> None:
        """Route every inbound frame and keep the liveness deadlines.

        A beacon tells an idle agent its parent is still there (it exits
        once the parent stays silent past its advertised timeout), so it
        goes out only when the link has sent nothing for
        ``heartbeat_interval``.  An agent that has said nothing for
        ``heartbeat_timeout`` is evicted — unless a command is in flight,
        because a shard mid-burst is compute-bound, not gone.  Between
        frames the thread waits until the earlier of the two is due: a
        read deadline that passes is silence, never failure.
        """
        beacon = pack_control(ControlVerb.HEARTBEAT, {})
        interval, timeout = self._heartbeat_interval, self._heartbeat_timeout
        try:
            while True:
                now = time.monotonic()
                wait = interval  # a command in flight: no beacon, no eviction
                if self._next_seq == self._next_reply:
                    silent = now - self._last_seen
                    if silent >= timeout:
                        raise ProtocolError(
                            f"agent {self.index} unheard from for {silent:.1f}s "
                            f"(timeout {timeout}s)"
                        )
                    if now - self._last_sent >= interval and self._send_lock.acquire(
                        blocking=False
                    ):
                        try:
                            self._send(beacon)
                        finally:
                            self._send_lock.release()
                    due = min(self._last_sent + interval, self._last_seen + timeout)
                    if due > now:  # else a send in progress took the beacon's place
                        wait = due - now
                try:
                    raw = self.transport.receive("parent", timeout_seconds=wait)
                except TransportTimeoutError:
                    continue
                verb, body = unpack_control(raw)
                self._last_seen = time.monotonic()
                if verb == ControlVerb.REPLY:
                    seq, reply = body
                    if seq != self._next_reply:
                        raise ProtocolError(
                            f"agent answered command {seq}, expected {self._next_reply}"
                        )
                    self._next_reply += 1
                    self._replies.put(reply)
                elif verb == ControlVerb.BYE:
                    raise ProtocolError("agent said BYE")
                # HEARTBEAT: last_seen is the whole message.
        except BaseException as error:  # noqa: BLE001 — any reader death ends the link
            self._fail(error)

    def _fail(self, error: BaseException) -> None:
        """Mark the link dead and wake whoever waits on or writes to it.

        The socket is shut down, not closed: a thread still blocked on it
        wakes, and its descriptor stays ours until :meth:`close` joins the
        reader.
        """
        if self._failure is None:
            self._failure = error
            self._replies.put(None)
            if self.transport is not None:
                self.transport.shutdown()

    # -- the WorkerLink surface ----------------------------------------------
    def post(self, command: str, payload: Any) -> None:
        with self._send_lock:
            if self._failure is not None:
                raise ProtocolError(f"agent {self.index} is gone: {self._failure}")
            seq = self._next_seq
            self._next_seq += 1
            try:
                self._send(
                    pack_control(
                        ControlVerb.COMMAND,
                        {"seq": seq, "command": command, "payload": payload},
                    )
                )
            except ProtocolError as error:
                self._fail(error)
                raise

    def wait(self) -> tuple[str, Any]:
        try:
            reply = self._replies.get(timeout=REQUEST_TIMEOUT_SECONDS)
        except queue.Empty:
            raise ProtocolError(
                f"agent {self.index} has not answered for {REQUEST_TIMEOUT_SECONDS:.0f}s"
            ) from None
        if reply is None:
            self._replies.put(None)  # the link stays dead for the next waiter too
            raise ProtocolError(f"agent {self.index} died mid-command: {self._failure}")
        return reply

    def close(self) -> None:
        """Say BYE (the agent exits on it), stop the reader, reap a forked agent."""
        if (
            self._failure is None
            and self.transport is not None
            and self._send_lock.acquire(timeout=5.0)
        ):
            try:
                self._send(pack_control(ControlVerb.BYE, {}))
            except ProtocolError:
                pass  # the BYE is best-effort; the link ends either way
            finally:
                self._send_lock.release()
        self._fail(ProtocolError(f"agent {self.index} retired"))
        if self._thread is not None:
            self._thread.join(timeout=10.0)
        if self.transport is not None:
            self.transport.close()
        if self.agent is not None:
            self.agent.socket.close()  # a child still waiting for HELLO reads EOF
            self.agent.reap()


#: The fabric's runtime *is* the shard driver: built with :class:`TcpLink` as
#: its ``connect`` it drives remote agents (see :func:`repro.fabric.launch_fabric`).
FabricRuntime = ShardDriver
