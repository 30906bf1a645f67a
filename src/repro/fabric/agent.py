"""The fabric worker agent: one shard served over TCP, as its own process.

An agent is the cross-host twin of the in-box pipe worker
(:func:`repro.core.runtime._shard_worker_main`): the same
:class:`~repro.core.runtime.ShardWorkerCore` brain, a different envelope.
It binds a TCP port (``--port 0`` for an OS-assigned one, announced as
``PORT <n>`` on stdout so a parent script can harvest it), accepts one
parent connection, and speaks the versioned control protocol of
:mod:`repro.fabric.control` directly over that TCP connection — TCP delivers
commands once and in order, and a frame that fails its CRC32 ends the
connection.

Lifecycle: the parent's HELLO delivers the scheduler spec and fabric
incarnation (the agent checks the spec and builds its core only then — the
parent owns serving policy; a malformed spec is refused with BYE and no core
is built), after which two tasks share the single connection: the *command
loop* turns COMMANDs into REPLYs one at a time, and *housekeeping* fires
aged decrypt windows between commands, pushes HEARTBEAT beacons, and
streams cumulative METRICS snapshots on the configured interval.  The agent
exits when the parent says BYE (or ``stop``), when the connection dies, or
when the parent stays silent past its advertised timeout — an orphaned
agent never lingers.  A read deadline that passes is only silence; the
command loop keeps reading and the housekeeping clock judges the parent.

With ``--checkpoint-dir``, open windows are synced to the agent's own
append-only :class:`~repro.core.runtime.ShardCheckpointLog` at every burst
boundary; a replacement agent launched on the same directory and shard
index restores them via the parent's ``restore`` command, and a live
migration ships them to a *different* agent via ``checkpoint``/``restore``.
"""

from __future__ import annotations

import argparse
import asyncio
import os
import subprocess
import sys
import time
from dataclasses import dataclass

from repro.core.runtime import FileSessionStore, ShardWorkerCore, checked_scheduler_spec
from repro.exceptions import ProtocolError, TransportClosedError, TransportTimeoutError
from repro.fabric.control import CONTROL_PARTIES, pack_control, unpack_control
from repro.obs import MetricsRegistry, SpanTracer, get_registry, scoped_registry, set_registry, set_tracer
from repro.twopc.transport import AsyncTcpTransport
from repro.twopc.wire import CONTROL_VERSION, ControlVerb

#: Housekeeping granularity: the longest the agent sleeps between checking
#: window deadlines, heartbeat/metrics due times and parent liveness.
_TICK_SECONDS = 0.05


async def _serve_connection(
    link: AsyncTcpTransport,
    checkpoint_dir: str | None,
    shard_index: int,
) -> None:
    """Serve one parent over one connection until BYE/stop/death.

    The parent has *link*'s read deadline to send its HELLO; after that a
    passed deadline is only silence.
    """
    try:
        verb, hello = unpack_control(await link.receive("agent"))
    except ProtocolError:
        return
    if verb != ControlVerb.HELLO:
        await link.send(
            "agent",
            pack_control(ControlVerb.BYE, {"error": "expected HELLO first"}),
        )
        return
    if hello.get("version") != CONTROL_VERSION:
        await link.send(
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
        await link.send(
            "agent", pack_control(ControlVerb.BYE, {"error": f"bad scheduler spec: {error}"})
        )
        return
    store = FileSessionStore(checkpoint_dir) if checkpoint_dir is not None else None
    core = ShardWorkerCore(
        hello["scheduler_spec"],
        checkpoint_store=store,
        shard_index=shard_index,
        incarnation=hello.get("incarnation", ""),
    )
    await link.send(
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
    heartbeat_interval = float(hello.get("heartbeat_interval", 0.25))
    metrics_interval = float(hello.get("metrics_interval", 0.0))
    parent_timeout = float(hello.get("parent_timeout", 60.0))
    stop = asyncio.Event()
    last_parent = [time.monotonic()]

    async def command_loop() -> None:
        try:
            while not stop.is_set():
                try:
                    raw = await link.receive("agent")
                except TransportTimeoutError:
                    continue
                last_parent[0] = time.monotonic()
                verb, body = unpack_control(raw)
                if verb == ControlVerb.BYE:
                    return
                if verb == ControlVerb.HEARTBEAT:
                    continue
                if verb != ControlVerb.COMMAND:
                    continue
                reply = core.handle(body["command"], body["payload"])
                await link.send(
                    "agent", pack_control(ControlVerb.REPLY, (body["seq"], reply))
                )
                if body["command"] == "stop":
                    return
        except TransportClosedError:
            return  # the parent hung up: no one is left to serve
        finally:
            stop.set()

    async def housekeeping() -> None:
        next_heartbeat = 0.0
        next_metrics = 0.0
        try:
            while not stop.is_set():
                now = time.monotonic()
                if now - last_parent[0] > parent_timeout:
                    return  # orphaned: the parent stopped talking entirely
                if now >= next_heartbeat:
                    await link.send("agent", pack_control(ControlVerb.HEARTBEAT, {}))
                    next_heartbeat = now + heartbeat_interval
                if (
                    metrics_interval > 0
                    and now >= next_metrics
                    and not core.quiesced
                ):
                    # Streamed scrape: cumulative snapshot, so a lost push
                    # costs freshness, never correctness.
                    await link.send(
                        "agent",
                        pack_control(
                            ControlVerb.METRICS,
                            {"metrics": get_registry().snapshot()},
                        ),
                    )
                    next_metrics = now + metrics_interval
                deadline = core.next_timeout()
                if deadline is not None and deadline <= 0:
                    core.idle_tick()
                await asyncio.sleep(
                    _TICK_SECONDS
                    if deadline is None
                    else min(_TICK_SECONDS, max(deadline, 0.005))
                )
        except TransportClosedError:
            return
        finally:
            stop.set()

    commands = asyncio.ensure_future(command_loop())
    chores = asyncio.ensure_future(housekeeping())
    await stop.wait()
    for task in (commands, chores):
        task.cancel()
        try:
            await task
        except (asyncio.CancelledError, ProtocolError):
            pass


async def serve(
    host: str = "127.0.0.1",
    port: int = 0,
    checkpoint_dir: str | None = None,
    shard_index: int = 0,
    announce=None,
) -> None:
    """Bind, announce ``PORT <n>``, serve one parent connection, exit."""
    done = asyncio.Event()

    async def handler(reader: asyncio.StreamReader, writer: asyncio.StreamWriter):
        # The control link's own accounting must not pollute the serving
        # registry: agent snapshots have to merge with in-box worker
        # snapshots, which never see a TCP control channel.  Instruments
        # bind at construction, so building the link under a scratch
        # registry keeps the control plane's frame counters out of the
        # serving series.
        with scoped_registry(MetricsRegistry()):
            link = AsyncTcpTransport(
                reader,
                writer,
                local_party="agent",
                parties=CONTROL_PARTIES,
                name=f"agent[{shard_index}]",
            )
        try:
            await _serve_connection(link, checkpoint_dir, shard_index)
        finally:
            await link.aclose()
            done.set()

    server = await asyncio.start_server(handler, host, port)
    print(
        f"PORT {AsyncTcpTransport.bound_port(server)}",
        file=announce or sys.stdout,
        flush=True,
    )
    try:
        await done.wait()
    finally:
        server.close()
        await server.wait_closed()


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
    asyncio.run(
        serve(
            host=args.host,
            port=args.port,
            checkpoint_dir=args.checkpoint_dir,
            shard_index=args.shard_index,
        )
    )
    return 0


# -- parent-side spawning helpers --------------------------------------------
@dataclass
class AgentProcess:
    """A locally spawned agent: its process handle and announced endpoint."""

    process: subprocess.Popen
    host: str
    port: int
    shard_index: int

    @property
    def pid(self) -> int:
        return self.process.pid

    def kill(self) -> None:
        self.process.kill()

    def wait(self, timeout: float | None = 10.0) -> int | None:
        try:
            return self.process.wait(timeout=timeout)
        except subprocess.TimeoutExpired:
            return None


def spawn_local_agent(
    shard_index: int = 0,
    checkpoint_dir=None,
    host: str = "127.0.0.1",
) -> AgentProcess:
    """Launch ``python -m repro.fabric.agent`` and harvest its bound port.

    In-test stand-in for a remote host: the agent is a genuinely separate
    process reached only over TCP — nothing is shared but the wire (and,
    when *checkpoint_dir* is given, the checkpoint directory a replacement
    agent restores from).
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
    line = process.stdout.readline() if process.stdout else ""
    if not line.startswith("PORT "):
        process.kill()
        process.wait(timeout=10.0)
        raise ProtocolError(
            f"fabric agent {shard_index} exited before announcing its port "
            f"(returncode {process.returncode})"
        )
    return AgentProcess(
        process=process,
        host=host,
        port=int(line.split()[1]),
        shard_index=shard_index,
    )


if __name__ == "__main__":
    raise SystemExit(main())
