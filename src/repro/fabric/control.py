"""The fabric's control plane: versioned frames and the parent's TCP link.

A remote agent runs the same :class:`~repro.core.runtime.ShardWorkerCore`
a pipe worker runs, and the same :class:`~repro.core.runtime.ShardDriver`
steers both; this module supplies what is particular to crossing a host
boundary.  Every message on the wire is a
:class:`~repro.twopc.wire.ControlFrame`: a verb byte, the
:data:`~repro.twopc.wire.CONTROL_VERSION` stamp both ends check before
trusting a body, and an opaque payload this module pickles — the
parent<->agent link is a trusted deployment channel, like the pipe it
replaces, so rich registration payloads (protocols, setups) ride whole.
:class:`TcpLink` is the driver's :class:`~repro.core.runtime.WorkerLink`
over that codec.

The channel stack is ``ControlFrame`` directly over
:class:`~repro.twopc.transport.AsyncTcpTransport`, as
:class:`~repro.core.runtime.PipeLink` runs over its pipe: TCP delivers each
frame once and in order, and a frame whose CRC32 does not verify ends the
link, which then recovers the way any dead worker does
(``attach_replacement``).  A read deadline that passes is silence, not
failure.

Health and telemetry ride the same link.  Agents push HEARTBEAT beacons
and streamed cumulative METRICS snapshots on configured intervals; the link
keeps only the *latest* snapshot, which is all the driver's
replace-latest/fold-once aggregation needs.  An agent that stays silent
past ``heartbeat_timeout`` (and has no command in flight — a shard deep in
a decrypt burst is busy, not dead) is evicted.
"""

from __future__ import annotations

import asyncio
import pickle
import queue
import threading
import time
from typing import Any

from repro.core.runtime import ShardDriver
from repro.exceptions import ProtocolError, TransportTimeoutError, WireFormatError
from repro.twopc.transport import AsyncTcpTransport
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


class TcpLink:
    """A :class:`~repro.core.runtime.WorkerLink` to one remote agent.

    *endpoint* names the agent: a ``(host, port)`` pair or any object with
    ``host``/``port`` attributes (an
    :class:`~repro.fabric.agent.AgentProcess` qualifies).  Construction
    dials it and runs the HELLO handshake, which delivers the scheduler
    spec ``(window_bursts, max_delay_seconds)`` and the driver's
    incarnation — the agent checks the spec and builds its worker core only
    then, or refuses the HELLO — and refuses an agent that speaks another
    control version or was launched as a different shard than position
    *index* (its checkpoint log is keyed by that shard index, so a
    replacement could never find its predecessor's).

    Network plumbing lives on a private asyncio loop thread: a reader task
    that routes every inbound frame, and a keepalive task.  The public
    surface is synchronous and is called from the driver's thread.
    """

    def __init__(
        self,
        endpoint: Any,
        index: int,
        scheduler_spec: tuple,
        incarnation: str,
        heartbeat_interval: float = 0.25,
        heartbeat_timeout: float = 30.0,
        metrics_interval: float = 0.2,
    ) -> None:
        self.index = index
        self.pid: int | None = None
        self.metrics: dict | None = None
        self.transport: AsyncTcpTransport | None = None
        self._heartbeat_interval = heartbeat_interval
        self._heartbeat_timeout = heartbeat_timeout
        self._failure: BaseException | None = None
        self._replies: queue.SimpleQueue = queue.SimpleQueue()
        # Loop-thread state: commands sent, replies read, last frame heard.
        self._next_seq = 0
        self._next_reply = 0
        self._last_seen = time.monotonic()
        self._tasks: list[asyncio.Task] = []
        self._loop = asyncio.new_event_loop()
        self._thread = threading.Thread(
            target=self._loop.run_forever, name=f"fabric-link[{index}]", daemon=True
        )
        self._thread.start()
        if hasattr(endpoint, "host") and hasattr(endpoint, "port"):
            host, port = endpoint.host, endpoint.port
        else:
            host, port = endpoint
        hello = {
            "version": CONTROL_VERSION,
            "incarnation": incarnation,
            "scheduler_spec": scheduler_spec,
            "agent_index": index,
            "heartbeat_interval": heartbeat_interval,
            "metrics_interval": metrics_interval,
            "parent_timeout": max(heartbeat_timeout * 4, 60.0),
        }
        try:
            self._call(self._handshake(host, port, hello))
        except BaseException:
            self.close()
            raise

    @property
    def alive(self) -> bool:
        return self._failure is None

    # -- loop plumbing -------------------------------------------------------
    def _call(self, coro, timeout: float = REQUEST_TIMEOUT_SECONDS):
        future = asyncio.run_coroutine_threadsafe(coro, self._loop)
        try:
            return future.result(timeout)
        except TimeoutError:
            future.cancel()
            raise ProtocolError(
                f"agent {self.index}: control operation timed out after {timeout:.0f}s"
            ) from None

    async def _handshake(self, host: str, port: int, hello: dict) -> None:
        index = self.index
        self.transport = await asyncio.wait_for(
            AsyncTcpTransport.connect(
                host,
                port,
                local_party="parent",
                parties=CONTROL_PARTIES,
                name=f"fabric[{index}]",
                timeout=CONNECT_TIMEOUT_SECONDS,
            ),
            CONNECT_TIMEOUT_SECONDS,
        )
        await self.transport.send("parent", pack_control(ControlVerb.HELLO, hello))
        verb, body = unpack_control(
            await self.transport.receive("parent", timeout_seconds=CONNECT_TIMEOUT_SECONDS)
        )
        if verb == ControlVerb.BYE:
            raise ProtocolError(
                f"agent at {host}:{port} refused registration: "
                f"{body.get('error', 'no reason given')}"
            )
        if verb != ControlVerb.HELLO:
            raise ProtocolError(
                f"agent at {host}:{port} broke the HELLO handshake (verb 0x{verb:02x})"
            )
        if body.get("version") != CONTROL_VERSION:
            raise ProtocolError(
                f"agent at {host}:{port} speaks control v{body.get('version')}, "
                f"this parent speaks v{CONTROL_VERSION}"
            )
        if body.get("shard_index") != index:
            raise ProtocolError(
                f"agent at {host}:{port} serves shard {body.get('shard_index')}, "
                f"expected {index} (checkpoints would not line up)"
            )
        self.pid = body.get("pid")
        self._last_seen = time.monotonic()
        self._tasks = [
            asyncio.ensure_future(self._reader()),
            asyncio.ensure_future(self._keepalive()),
        ]

    async def _reader(self) -> None:
        """Route every inbound frame (the only ``receive`` caller after HELLO).

        A read deadline that passes is silence: a shard deep in a long
        decrypt sends nothing, and judging silence is the keepalive's job.
        """
        try:
            while True:
                try:
                    raw = await self.transport.receive("parent")
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
                elif verb == ControlVerb.METRICS:
                    # Streamed scrape: cumulative, so replace — never add.
                    self.metrics = body["metrics"]
                elif verb == ControlVerb.BYE:
                    raise ProtocolError("agent said BYE")
                # HEARTBEAT: last_seen is the whole message.
        except asyncio.CancelledError:
            raise
        except BaseException as error:  # noqa: BLE001 — any reader death ends the link
            self._fail(error)

    def _fail(self, error: BaseException) -> None:
        """Mark the link dead (loop thread) and wake whoever waits on it."""
        if self._failure is None:
            self._failure = error
            self._replies.put(None)
            if self.transport is not None:
                self.transport.close()

    async def _keepalive(self) -> None:
        """Parent-side heartbeats out, liveness policy in.

        Outbound beacons tell an idle agent its parent is still there (it
        exits once the parent stays silent past its advertised timeout);
        the timeout check evicts an agent that has said nothing for
        ``heartbeat_timeout`` — unless a command is in flight, because a
        shard mid-burst is compute-bound, not gone.
        """
        beacon = pack_control(ControlVerb.HEARTBEAT, {})
        while self._failure is None:
            await asyncio.sleep(self._heartbeat_interval)
            if self._failure is not None or self._next_seq != self._next_reply:
                continue
            silent = time.monotonic() - self._last_seen
            if silent > self._heartbeat_timeout:
                self._fail(
                    ProtocolError(
                        f"agent {self.index} unheard from for "
                        f"{silent:.1f}s (> {self._heartbeat_timeout}s)"
                    )
                )
                return
            try:
                await self.transport.send("parent", beacon)
            except ProtocolError as error:
                self._fail(error)

    # -- the WorkerLink surface ----------------------------------------------
    def post(self, command: str, payload: Any) -> None:
        self._call(self._send_command(command, payload))

    async def _send_command(self, command: str, payload: Any) -> None:
        if self._failure is not None:
            raise ProtocolError(f"agent {self.index} is gone: {self._failure}")
        seq = self._next_seq
        self._next_seq += 1
        try:
            await self.transport.send(
                "parent",
                pack_control(
                    ControlVerb.COMMAND,
                    {"seq": seq, "command": command, "payload": payload},
                ),
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
        """Say BYE (the agent exits on it), then stop the loop thread."""
        if not self._thread.is_alive():
            return
        try:
            self._call(self._retire(), 5.0)
        except ProtocolError:
            pass  # the BYE is best-effort; the loop stops either way
        self._loop.call_soon_threadsafe(self._loop.stop)
        self._thread.join(timeout=10.0)
        # run_forever has returned; a close() on a live loop would raise.
        if not self._loop.is_running():
            self._loop.close()

    async def _retire(self) -> None:
        if self._failure is None:
            try:
                await self.transport.send("parent", pack_control(ControlVerb.BYE, {}))
            except ProtocolError:
                pass
            self._fail(ProtocolError(f"agent {self.index} retired"))
        for task in self._tasks:
            task.cancel()
        await asyncio.gather(*self._tasks, return_exceptions=True)


#: The fabric's runtime *is* the shard driver: built with :class:`TcpLink` as
#: its ``connect`` it drives remote agents (see :func:`repro.fabric.launch_fabric`).
FabricRuntime = ShardDriver
