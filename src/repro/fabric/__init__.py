"""Cross-host shard fabric: TCP agents and a versioned control plane.

:class:`~repro.core.runtime.ShardDriver` scales Pretzel's serving loop
across workers; this package puts a host boundary between the driver and a
worker.  Each remote **agent** (:mod:`repro.fabric.agent`) is a standalone
process serving one :class:`~repro.core.runtime.ShardWorkerCore` — the shard
brain every worker runs — and :class:`~repro.fabric.control.TcpLink` is the
driver's link to it: the versioned CONTROL frame family of
:mod:`repro.twopc.wire` (HELLO handshake, seq-tagged COMMAND/REPLY,
HEARTBEAT health, streamed METRICS snapshots) over one TCP connection,
whose frames carry a CRC32; TCP itself does the delivering.
Routing, registration replay, crash recovery, live migration
(:meth:`~repro.core.runtime.ShardDriver.migrate`: checkpoint the open
decrypt windows on host A, restore them bit-identically on host B, redirect
the mailbox hash range, retire A — zero resubmissions, no email lost or
served twice) and metrics aggregation are the driver's, whatever the link.
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

_LINK_OPTIONS = ("heartbeat_interval", "heartbeat_timeout", "metrics_interval")


def launch_fabric(
    num_agents: int,
    checkpoint_dir=None,
    **options,
) -> tuple[FabricRuntime, list[AgentProcess]]:
    """Spawn *num_agents* localhost agents and a shard driver dialing them.

    The two-line on-ramp the example, the end-to-end benchmark and the tests
    use.  *options* are :class:`~repro.fabric.control.TcpLink`'s link options
    (heartbeats, metrics interval) and
    :class:`~repro.core.runtime.ShardDriver`'s scheduler options
    (``window_bursts``, ``max_delay_seconds``).  The
    caller owns both halves: ``runtime.close()`` retires the agents (they
    exit on BYE), then ``agent.wait()``/``agent.kill()`` reaps the processes.
    """
    link_options = {name: options.pop(name) for name in _LINK_OPTIONS if name in options}
    agents = [
        spawn_local_agent(shard_index=index, checkpoint_dir=checkpoint_dir)
        for index in range(num_agents)
    ]
    try:
        runtime = FabricRuntime(functools.partial(TcpLink, **link_options), agents, **options)
    except BaseException:
        for agent in agents:
            agent.kill()
        raise
    return runtime, agents
