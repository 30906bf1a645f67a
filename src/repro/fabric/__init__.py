"""Shard fabric: worker agents and a versioned control plane.

:class:`~repro.core.runtime.ShardDriver` scales Pretzel's serving loop
across workers; this package puts a process boundary, and over TCP a host
boundary, between the driver and a worker.  Each **agent**
(:mod:`repro.fabric.agent`) is a process serving one
:class:`~repro.core.runtime.ShardWorkerCore` — the shard brain every worker
runs — and :class:`~repro.fabric.control.TcpLink` is the driver's one link
to it: the versioned CONTROL frame family of :mod:`repro.twopc.wire` (HELLO
handshake, seq-tagged COMMAND/REPLY, HEARTBEAT beacons on silence, BYE)
over one blocking stream socket — a TCP connection, or a socketpair to an
agent forked in this box — whose frames carry a CRC32; the stream itself
does the delivering.  Neither end runs an event loop: the link is the
caller's thread plus one reader thread, the agent one single-threaded loop.
Routing, registration replay, crash recovery, live migration
(:meth:`~repro.core.runtime.ShardDriver.migrate`: checkpoint the open
decrypt windows on host A, restore them bit-identically on host B, redirect
the mailbox hash range, retire A — zero resubmissions, no email lost or
served twice) and metrics aggregation are the driver's, whatever the link:
a worker's cumulative snapshot reaches it only on a reply, together with
every result that snapshot counts.
"""

import functools

from repro.fabric.agent import AgentProcess, spawn_local_agent
from repro.fabric.control import (
    FabricRuntime,
    TcpLink,
    pack_control,
    unpack_control,
)

__all__ = [
    "AgentProcess",
    "FabricRuntime",
    "TcpLink",
    "launch_fabric",
    "pack_control",
    "spawn_local_agent",
    "unpack_control",
]

_LINK_OPTIONS = ("heartbeat_interval", "heartbeat_timeout")


def launch_fabric(
    num_agents: int,
    checkpoint_dir=None,
    **options,
) -> tuple[FabricRuntime, list[AgentProcess]]:
    """Spawn *num_agents* localhost agents and a shard driver dialing them.

    The two-line on-ramp the example, the end-to-end benchmark and the tests
    use.  *options* are :class:`~repro.fabric.control.TcpLink`'s link options
    (beacon interval, eviction timeout) and
    :class:`~repro.core.runtime.ShardDriver`'s scheduler options
    (``window_bursts``, ``max_delay_seconds``).  Every agent is started
    before the driver waits on any: dialing agent *k* waits for its port
    announcement while the later agents are still starting.  A failure
    anywhere in spawning, dialing or the HELLO kills and reaps every agent
    already spawned.  The caller owns both halves: ``runtime.close()``
    retires the agents (they exit on BYE), then
    ``agent.wait()``/``agent.kill()`` reaps the processes.  Registrations
    on the returned runtime are pipelined (see
    :meth:`~repro.core.runtime.ShardDriver.register`).
    """
    link_options = {name: options.pop(name) for name in _LINK_OPTIONS if name in options}
    agents: list[AgentProcess] = []
    try:
        for index in range(num_agents):
            agents.append(spawn_local_agent(shard_index=index, checkpoint_dir=checkpoint_dir))
        runtime = FabricRuntime(functools.partial(TcpLink, **link_options), agents, **options)
    except BaseException:
        for agent in agents:
            agent.kill()
            agent.wait()
        raise
    return runtime, agents
