"""The fabric worker agent: one shard served over one stream, as its own process.

An agent is the only shard worker there is: a
:class:`~repro.core.runtime.ShardWorkerCore` behind the versioned control
protocol of :mod:`repro.fabric.control`, spoken directly over one stream
socket — the stream delivers commands once and in order, and a frame that
fails its CRC32 ends the connection.  It reaches its parent one of two ways:

* ``python -m repro.fabric`` (:func:`spawn_local_agent` in tests and the
  fleet) binds a TCP port (``--port 0`` for an OS-assigned one, announced as
  ``PORT <n>`` on stdout so a parent script can harvest it) and accepts one
  parent connection — a host boundary.  An agent that no parent dials
  within :data:`ACCEPT_TIMEOUT_SECONDS` exits non-zero;
* :func:`fork_local_agent` forks a child of the parent that serves one end
  of a ``socket.socketpair()`` — an in-box shard of
  :class:`~repro.core.runtime.ShardedRuntime`, with no interpreter start.

Lifecycle: the parent's HELLO delivers the scheduler spec, the fabric
incarnation, the beacon interval and the parent timeout (the agent checks
them and builds its core only then — the parent owns serving policy; a
malformed spec or interval is refused with BYE and no core is built),
after which one single-threaded loop serves the connection over a
blocking :class:`~repro.twopc.transport.TcpTransport`.  Each pass does the
*housekeeping* that is due, then waits on the socket until the next
deadline or until it has turned one COMMAND into its REPLY.  What can be
due: an aged decrypt window to fire, a HEARTBEAT beacon (sent only when
the agent has sent no frame for the heartbeat interval), and the orphan
check.  A fired window's results wait in the core for the next reply that
carries a snapshot, and leave on it together with the counts they added:
the agent never speaks unasked except to beacon, and an idle agent wakes
for beacons alone.  The agent exits when the parent says BYE (or ``stop``),
when the connection dies, or when the parent stays silent past its
advertised timeout — an orphaned agent never lingers.  A read deadline
that passes is only silence: the loop does its housekeeping and reads on.

With ``--checkpoint-dir``, open windows are synced to the agent's own
append-only :class:`~repro.core.runtime.ShardCheckpointLog` at every burst
boundary; a replacement agent launched on the same directory and shard
index restores them via the parent's ``restore`` command, and a live
migration ships them to a *different* agent via ``checkpoint``/``restore``.
"""

from __future__ import annotations

import argparse
import math
import numbers
import os
import signal
import socket
import subprocess
import sys
import time
import traceback
import weakref
from dataclasses import dataclass, field

from repro.core.runtime import FileSessionStore, ShardWorkerCore, checked_scheduler_spec
from repro.exceptions import ProtocolError, TransportTimeoutError
from repro.fabric.control import (
    CONTROL_PARTIES,
    HEARTBEAT_INTERVAL_SECONDS,
    pack_control,
    unpack_control,
)
from repro.obs import MetricsRegistry, SpanTracer, scoped_registry, set_registry, set_tracer
from repro.twopc.transport import TcpTransport
from repro.twopc.wire import CONTROL_VERSION, ControlVerb

#: Shortest housekeeping sleep toward a window deadline.
_WINDOW_FLOOR_SECONDS = 0.005

#: How long a ``python -m repro.fabric`` agent waits for its parent to dial:
#: the order of the parent timeout an agent applies once it is serving, so
#: an agent whose parent died before dialing does not block in ``accept()``.
ACCEPT_TIMEOUT_SECONDS = 60.0


def _checked_intervals(hello: dict) -> tuple[float, float]:
    """The HELLO's ``(heartbeat_interval, parent_timeout)``.

    Housekeeping sleeps until the earliest deadline these set, so a negative
    or ``nan`` one would spin it and an infinite one would never beacon:
    both must be finite and above zero.
    """
    heartbeat, parent = values = (
        hello.get("heartbeat_interval", HEARTBEAT_INTERVAL_SECONDS),
        hello.get("parent_timeout", 60.0),
    )
    if not all(
        isinstance(value, numbers.Real)
        and not isinstance(value, bool)
        and math.isfinite(value)
        and value > 0
        for value in values
    ):
        raise ProtocolError(
            f"got heartbeat_interval={heartbeat!r}, parent_timeout={parent!r}"
        )
    return float(heartbeat), float(parent)


def _serve_connection(
    link: TcpTransport,
    checkpoint_dir: str | None,
    shard_index: int,
) -> None:
    """Serve one parent over one connection until BYE/stop/death.

    The parent has *link*'s read deadline to send its HELLO; after that a
    passed deadline is only silence.
    """
    try:
        verb, hello = unpack_control(link.receive("agent"))
    except ProtocolError:
        return
    if verb != ControlVerb.HELLO:
        link.send(
            "agent",
            pack_control(ControlVerb.BYE, {"error": "expected HELLO first"}),
        )
        return
    if hello.get("version") != CONTROL_VERSION:
        link.send(
            "agent",
            pack_control(
                ControlVerb.BYE,
                {
                    "error": (
                        f"agent speaks control v{CONTROL_VERSION}, "
                        f"parent sent v{hello.get('version')}"
                    )
                },
            ),
        )
        return
    try:
        checked_scheduler_spec(hello.get("scheduler_spec"))
    except ProtocolError as error:
        link.send(
            "agent", pack_control(ControlVerb.BYE, {"error": f"bad scheduler spec: {error}"})
        )
        return
    try:
        intervals = _checked_intervals(hello)
    except ProtocolError as error:
        link.send(
            "agent", pack_control(ControlVerb.BYE, {"error": f"bad intervals: {error}"})
        )
        return
    store = FileSessionStore(checkpoint_dir) if checkpoint_dir is not None else None
    core = ShardWorkerCore(
        hello["scheduler_spec"],
        checkpoint_store=store,
        shard_index=shard_index,
        incarnation=hello.get("incarnation", ""),
    )
    link.send(
        "agent",
        pack_control(
            ControlVerb.HELLO,
            {
                "version": CONTROL_VERSION,
                "pid": os.getpid(),
                "shard_index": shard_index,
                "has_checkpoint": store is not None,
            },
        ),
    )
    try:
        _serve_commands(link, core, *intervals)
    except ProtocolError:
        return  # the parent hung up, or sent a frame that failed its checks


def _serve_commands(
    link: TcpTransport,
    core: ShardWorkerCore,
    heartbeat_interval: float,
    parent_timeout: float,
) -> None:
    """The agent's one loop: housekeeping, then wait for a command or a deadline.

    Housekeeping runs once per wake-up: it judges the parent, beacons and
    fires an aged window when each is due, and sets the next deadline.  The
    wait that follows ends at that deadline or after a COMMAND is answered;
    a HEARTBEAT only refreshes the orphan clock.
    """
    last_parent = last_sent = time.monotonic()

    def send(verb: int, body) -> None:
        nonlocal last_sent
        link.send("agent", pack_control(verb, body))
        last_sent = time.monotonic()

    while True:
        now = time.monotonic()
        if now - last_parent >= parent_timeout:
            return  # orphaned: the parent stopped talking entirely
        if now - last_sent >= heartbeat_interval:
            send(ControlVerb.HEARTBEAT, {})
        window = core.next_timeout()
        if window is not None and window <= 0:
            core.idle_tick()
        due = [last_sent + heartbeat_interval, last_parent + parent_timeout]
        if window is not None:
            due.append(now + max(window, _WINDOW_FLOOR_SECONDS))
        deadline = min(due)
        while True:
            try:
                raw = link.receive("agent", max(0.0, deadline - time.monotonic()))
            except TransportTimeoutError:
                break
            last_parent = time.monotonic()
            verb, body = unpack_control(raw)
            if verb == ControlVerb.BYE:
                return
            if verb == ControlVerb.COMMAND:
                reply = core.handle(body["command"], body["payload"])
                send(ControlVerb.REPLY, (body["seq"], reply))
                if body["command"] == "stop":
                    return
                break
            # HEARTBEAT (or a verb this build ignores): keep waiting.


def _serve_socket(sock: socket.socket, checkpoint_dir: str | None, shard_index: int) -> None:
    """Serve one parent over one connected stream socket, then close it."""
    # The control link's own accounting must not pollute the serving
    # registry: agent snapshots have to merge with an in-process serving
    # run's, which never sees a control channel.  Instruments bind at
    # construction, so building the link under a scratch registry keeps the
    # control plane's frame counters out of the serving series.
    with scoped_registry(MetricsRegistry()):
        link = TcpTransport(
            sock,
            local_party="agent",
            parties=CONTROL_PARTIES,
            name=f"agent[{shard_index}]",
        )
    try:
        _serve_connection(link, checkpoint_dir, shard_index)
    finally:
        link.close()


def serve(
    host: str = "127.0.0.1",
    port: int = 0,
    checkpoint_dir: str | None = None,
    shard_index: int = 0,
    announce=None,
) -> int:
    """Bind, announce ``PORT <n>``, serve one parent connection; the exit status.

    ``1`` when no parent dialed within :data:`ACCEPT_TIMEOUT_SECONDS`,
    ``0`` once a connection was served.
    """
    with socket.create_server((host, port)) as server:
        print(
            f"PORT {server.getsockname()[1]}",
            file=announce or sys.stdout,
            flush=True,
        )
        server.settimeout(ACCEPT_TIMEOUT_SECONDS)
        try:
            connection, _ = server.accept()
        except TimeoutError:
            return 1
    _serve_socket(connection, checkpoint_dir, shard_index)
    return 0


def main(argv: list[str] | None = None) -> int:
    parser = argparse.ArgumentParser(
        description="Pretzel fabric agent: serve one shard over TCP"
    )
    parser.add_argument("--host", default="127.0.0.1")
    parser.add_argument("--port", type=int, default=0, help="0 = OS-assigned")
    parser.add_argument(
        "--checkpoint-dir",
        default=None,
        help="directory for the shard's append-only checkpoint log",
    )
    parser.add_argument(
        "--shard-index",
        type=int,
        default=0,
        help="stable shard identity (keys the checkpoint log)",
    )
    args = parser.parse_args(argv)
    # Fresh serving telemetry for this process — nothing inherited, and
    # snapshots merge cleanly with in-box worker snapshots.
    set_registry(MetricsRegistry())
    set_tracer(SpanTracer())
    return serve(
        host=args.host,
        port=args.port,
        checkpoint_dir=args.checkpoint_dir,
        shard_index=args.shard_index,
    )


# -- parent-side spawning helpers --------------------------------------------
@dataclass
class AgentProcess:
    """A locally spawned agent: its process handle and announced endpoint.

    The agent announces its port once its interpreter has started and bound
    it; :attr:`port` reads that announcement the first time something asks
    for it (a :class:`~repro.fabric.control.TcpLink` dialing the agent), so
    a fleet's agents all start before the parent waits on any of them.
    """

    process: subprocess.Popen
    host: str
    shard_index: int
    _port: int | None = field(default=None, init=False, repr=False)

    @property
    def pid(self) -> int:
        return self.process.pid

    @property
    def port(self) -> int:
        """The announced port; blocks until the agent announces it.

        An agent that exits (or closes its stdout) before announcing is
        killed and reaped, and :class:`ProtocolError` is raised.
        """
        if self._port is None:
            line = self.process.stdout.readline() if self.process.stdout else ""
            if not line.startswith("PORT "):
                self.kill()
                self.wait()
                raise ProtocolError(
                    f"fabric agent {self.shard_index} exited before announcing its port "
                    f"(returncode {self.process.returncode})"
                )
            self._port = int(line.split()[1])
        return self._port

    def kill(self) -> None:
        self.process.kill()

    def wait(self, timeout: float | None = 10.0) -> int | None:
        """Reap the process (closing its announce pipe); ``None`` while it runs."""
        try:
            returncode = self.process.wait(timeout=timeout)
        except subprocess.TimeoutExpired:
            return None
        if self.process.stdout is not None:
            self.process.stdout.close()
        return returncode


def spawn_local_agent(
    shard_index: int = 0,
    checkpoint_dir=None,
    host: str = "127.0.0.1",
) -> AgentProcess:
    """Launch ``python -m repro.fabric`` and return without waiting for it.

    In-test stand-in for a remote host: the agent is a genuinely separate
    process reached only over TCP — nothing is shared but the wire (and,
    when *checkpoint_dir* is given, the checkpoint directory a replacement
    agent restores from).  This returns right after the process starts;
    the returned handle's :attr:`AgentProcess.port` waits for the ``PORT``
    announcement, so dialing the agent is the wait.
    """
    command = [
        sys.executable,
        "-m",
        "repro.fabric",
        "--host",
        host,
        "--port",
        "0",
        "--shard-index",
        str(shard_index),
    ]
    if checkpoint_dir is not None:
        command += ["--checkpoint-dir", str(checkpoint_dir)]
    process = subprocess.Popen(
        command,
        stdout=subprocess.PIPE,
        text=True,
    )
    return AgentProcess(process=process, host=host, shard_index=shard_index)


#: Parent ends of the socketpairs of agents this process forked.  A child
#: forked later closes its copies, so an agent whose parent goes away reads
#: end-of-stream at once instead of waiting out its parent timeout.
_PARENT_ENDS: weakref.WeakSet[socket.socket] = weakref.WeakSet()


@dataclass
class LocalAgent:
    """An agent forked from this process: its pid and the parent's socket end.

    :class:`~repro.fabric.control.TcpLink` takes it as an endpoint, talks
    over :attr:`socket`, and reaps the child when the link closes.
    """

    socket: socket.socket
    pid: int
    returncode: int | None = None

    def wait(self, timeout: float | None = 10.0) -> int | None:
        """Reap the child; its exit code, or ``None`` while it runs past *timeout*."""
        deadline = None if timeout is None else time.monotonic() + timeout
        while self.returncode is None:
            pid, status = os.waitpid(self.pid, os.WNOHANG)
            if pid:
                self.returncode = os.waitstatus_to_exitcode(status)
            elif deadline is not None and time.monotonic() >= deadline:
                return None
            else:
                time.sleep(0.005)
        return self.returncode

    def reap(self, timeout: float = 10.0) -> int:
        """Wait for the child to exit, SIGKILL it if it has not after *timeout*."""
        if self.wait(timeout) is None:
            os.kill(self.pid, signal.SIGKILL)
            self.wait(None)
        return self.returncode


def fork_local_agent(shard_index: int = 0, checkpoint_dir=None) -> LocalAgent:
    """Fork a child that serves one shard on one end of a socketpair.

    The child inherits the imported program, so it starts in milliseconds
    where ``python -m repro.fabric`` pays an interpreter start; from there it
    serves exactly as that agent does, under a fresh registry and tracer
    (it would otherwise re-report every count the parent made before the
    fork).  It serves on the calling thread alone and builds its own
    transport, so the parent's link threads, alive or not when it forks,
    have nothing it uses; it closes its copies of the other agents' parent
    ends, and ends with ``os._exit``.
    """
    parent_end, child_end = socket.socketpair()
    pid = os.fork()
    if pid == 0:
        status = 1
        try:
            parent_end.close()
            for inherited in list(_PARENT_ENDS):
                inherited.close()
            set_registry(MetricsRegistry())
            set_tracer(SpanTracer())
            _serve_socket(child_end, checkpoint_dir, shard_index)
            status = 0
        except BaseException:  # noqa: BLE001 — report, then leave without unwinding
            traceback.print_exc()
        finally:
            os._exit(status)
    child_end.close()
    _PARENT_ENDS.add(parent_end)
    return LocalAgent(socket=parent_end, pid=pid)


if __name__ == "__main__":
    raise SystemExit(main())
