"""Fabric tests: the control plane of the one link to an agent.

Everything a shard driver does whichever way it reaches its agents —
verdicts, metrics equivalence, SIGKILL recovery, reconnect-resume, live
migration — is asserted once for forked and TCP agents in
``test_shard_driver.py``.  These tests pin the rest of the fabric's contract:

* the versioned control codec (roundtrip, foreign-version refusal, junk,
  and the retired verb 0x05 of control v2's snapshot push);
* the deterministic metrics projection and the telemetry artifacts a real
  two-agent run exports;
* HELLO refusal of an agent launched as the wrong shard, of a HELLO
  carrying a malformed scheduler spec, and of a parent speaking control v2;
* heartbeat-timeout eviction of a hung (SIGSTOPped) agent that owes no
  reply, an agent hung with a registration in flight reported by the next
  call once the request timeout passes, and a command that blocks its agent
  past both ends' read deadlines completing with no eviction (a passed
  deadline is silence, not failure);
* no agent outlives a launch that failed in spawn, dial or HELLO, and an
  agent that no parent dials exits non-zero;
* housekeeping that wakes only when something is due: an idle agent
  sleeps between beacons, an aged window fires with no command (its
  result and the count it added wait for the next reply), an orphaned
  agent exits, and a HELLO or link with an interval that would spin or
  silence the agent is refused;
* the thread-per-link design: a large command posted while the agent
  writes a large reply completes, ``close()`` leaves no link thread, the
  ledger stays exact while commands and beacons interleave, and importing
  the fabric loads no event loop;
* mixed builds: an agent (spawned or forked) and a parent of the build that
  framed control frames with an ack/retransmit header refuse this build's
  peers at HELLO;
* ``rebalance`` choosing the migration from the load the replies report.
"""

import functools
import io
import json
import math
import os
import pickle
import signal
import socket
import struct
import subprocess
import sys
import threading
import time
import zlib
from pathlib import Path

import pytest

from repro.core.runtime import ShardedRuntime, ShardWorkerCore, shard_of_address
from repro.exceptions import ProtocolError, WireFormatError
import repro.fabric as fabric_package
from repro.fabric import agent as agent_module
from repro.fabric import control
from repro.fabric import (
    FabricRuntime,
    TcpLink,
    launch_fabric,
    pack_control,
    spawn_local_agent,
    unpack_control,
)
from repro.obs import get_registry
from repro.obs.export import validate_chrome_trace, validate_snapshot, write_artifacts
from repro.twopc.spam import SpamFilterProtocol
from repro.twopc.transport import FrameAssembler, TcpTransport, encode_frame
from repro.twopc.wire import (
    CONTROL_VERSION,
    KNOWN_CONTROL_VERBS,
    ControlFrame,
    ControlVerb,
    OtPublicsFrame,
    WireCodec,
)

from oracles import metrics_projection

SPAM_EMAILS = [
    {1: 1, 5: 1, 9: 1},
    {100: 1, 150: 1, 199: 1, 42: 1},
    {0: 1},
    {i: 1 for i in range(0, 200, 7)},
    {3: 1, 77: 1},
    {i: 1 for i in range(1, 200, 23)},
]


@pytest.fixture(scope="module")
def spam_setup(bv_scheme, dh_group, small_spam_model):
    protocol = SpamFilterProtocol(bv_scheme, dh_group)
    return protocol, protocol.setup(small_spam_model)


@pytest.fixture(scope="module")
def spam_truth(small_spam_model):
    return [small_spam_model.predict_is_spam(features) for features in SPAM_EMAILS]


def _slot_addresses(num_slots: int, per_slot: int = 2) -> list[str]:
    """Deterministic addresses covering every slot of the hash partition."""
    found: dict[int, list[str]] = {slot: [] for slot in range(num_slots)}
    index = 0
    while any(len(bucket) < per_slot for bucket in found.values()):
        address = f"user{index}@example.com"
        slot = shard_of_address(address, num_slots)
        if len(found[slot]) < per_slot:
            found[slot].append(address)
        index += 1
    return [address for slot in range(num_slots) for address in found[slot]]


def _stream(addresses: list[str]) -> list[tuple[str, dict]]:
    return [
        (addresses[index % len(addresses)], features)
        for index, features in enumerate(SPAM_EMAILS)
    ]


def _served_total(snapshot: dict) -> float:
    return sum(
        entry["value"]
        for entry in snapshot["counters"]
        if entry["name"] == "emails_served_total"
    )


def _register_all(runtime, addresses, spam_setup) -> None:
    protocol, setup = spam_setup
    for address in addresses:
        runtime.register_spam(address, protocol, setup)


def _wait_until(predicate, timeout: float = 15.0) -> bool:
    deadline = time.monotonic() + timeout
    while time.monotonic() < deadline:
        if predicate():
            return True
        time.sleep(0.05)
    return predicate()


def _reap(agents) -> None:
    for agent in agents:
        if agent.wait(timeout=10.0) is None:
            agent.kill()
            agent.wait(timeout=10.0)


def _child_pids() -> set[int]:
    """Pids whose parent is this process, zombies included (an unreaped child is left too)."""
    children = set()
    for stat in Path("/proc").glob("[0-9]*/stat"):
        try:
            fields = stat.read_text().rsplit(")", 1)[1].split()
        except (OSError, IndexError):
            continue  # the process exited while we looked
        if int(fields[1]) == os.getpid():
            children.add(int(stat.parent.name))
    return children


def _agent_in_thread() -> tuple[threading.Thread, int]:
    """Run :func:`agent_module.serve` in a thread of this process; the thread
    and the port it announced."""
    announce = io.StringIO()
    thread = threading.Thread(
        target=agent_module.serve, kwargs={"announce": announce}, daemon=True
    )
    thread.start()
    assert _wait_until(lambda: announce.getvalue().startswith("PORT "), timeout=10.0)
    return thread, int(announce.getvalue().split()[1])


class TestControlCodec:
    def test_roundtrip_preserves_verb_and_body(self):
        body = {"seq": 7, "command": "burst", "payload": [(0, "spam", "a@x", {1: 1}, None)]}
        verb, decoded = unpack_control(pack_control(ControlVerb.COMMAND, body))
        assert verb == ControlVerb.COMMAND
        assert decoded == body

    def test_foreign_version_is_refused_before_unpickling(self):
        frame = ControlFrame(
            verb=ControlVerb.HELLO,
            version=CONTROL_VERSION + 1,
            payload=pickle.dumps({"incarnation": "deadbeef"}),
        )
        with pytest.raises(ProtocolError, match="version"):
            unpack_control(WireCodec().encode(frame))

    def test_a_v2_frame_is_refused_by_this_v3_build(self):
        # v3: no snapshot push, and the ``stats`` reply carries stashed results.
        assert CONTROL_VERSION == 3
        frame = ControlFrame(verb=ControlVerb.HELLO, version=2, payload=pickle.dumps({}))
        with pytest.raises(ProtocolError, match="peer speaks v2"):
            unpack_control(WireCodec().encode(frame))

    def test_a_frame_with_the_retired_verb_fails_decode(self):
        """Verb 0x05 was control v2's unsolicited snapshot push; five verbs
        remain, and a frame carrying 0x05 is a wire error, never a message."""
        assert sorted(KNOWN_CONTROL_VERBS) == [0x01, 0x02, 0x03, 0x04, 0x06]
        encoded = bytearray(pack_control(ControlVerb.HEARTBEAT, {}))
        encoded[3] = 0x05  # the verb byte, right after the codec's 3-byte header
        with pytest.raises(WireFormatError, match="unknown control verb 0x05"):
            unpack_control(bytes(encoded))

    def test_non_control_frame_is_refused(self):
        data = WireCodec().encode(OtPublicsFrame(elements=[1, 2, 3]))
        with pytest.raises(ProtocolError, match="control"):
            unpack_control(data)

    def test_undecodable_payload_is_a_wire_error(self):
        frame = ControlFrame(
            verb=ControlVerb.REPLY, version=CONTROL_VERSION, payload=b"\x80junk\xff"
        )
        with pytest.raises(WireFormatError):
            unpack_control(WireCodec().encode(frame))


class TestMetricsProjection:
    def test_keeps_only_partition_invariant_series(self):
        snapshot = {
            "counters": [
                {"name": "emails_served_total", "labels": {}, "value": 4},
                {"name": "transport_bytes_total", "labels": {"party": "client"}, "value": 999},
                {"name": "transport_frames_total", "labels": {"party": "client"}, "value": 12},
            ],
            "histograms": [
                {
                    "name": "decrypt_batch_ciphertexts",
                    "labels": {},
                    "counts": [1, 2, 0],
                    "count": 3,
                    "sum": 9,
                },
                {
                    "name": "decrypt_age_seconds",
                    "labels": {},
                    "counts": [5],
                    "count": 5,
                    "sum": 1.23,
                },
            ],
        }
        projected = metrics_projection(snapshot)
        assert set(projected["counters"]) == {
            ("emails_served_total", ()),
            ("transport_frames_total", (("party", "client"),)),
        }
        assert set(projected["histograms"]) == {("decrypt_batch_ciphertexts", ())}

    def test_duplicate_series_accumulate(self):
        snapshot = {
            "counters": [
                {"name": "emails_served_total", "labels": {}, "value": 2},
                {"name": "emails_served_total", "labels": {}, "value": 3},
            ],
            "histograms": [],
        }
        projected = metrics_projection(snapshot)
        assert projected["counters"][("emails_served_total", ())] == 5


class TestFabricTelemetryArtifacts:
    def test_two_agent_run_exports_valid_artifacts(self, spam_setup, spam_truth, tmp_path):
        """What an operator exports after a fleet run: the Prometheus text,
        the bundled JSON and the Chrome trace, each schema-valid, and every
        email of the stream counted exactly once in them."""
        addresses = _slot_addresses(2)
        runtime, agents = launch_fabric(2, window_bursts=2)
        try:
            _register_all(runtime, addresses, spam_setup)
            stream = _stream(addresses)
            results = runtime.run_spam_stream([stream[:3], stream[3:]])
            aggregated = runtime.aggregated_metrics()
        finally:
            runtime.close()
            _reap(agents)
        assert [result.is_spam for result in results] == spam_truth
        prom, bundle_path, trace_path = write_artifacts(tmp_path / "fabric", aggregated, [])
        bundle = json.loads(bundle_path.read_text())
        validate_snapshot(bundle["metrics"])
        validate_chrome_trace(json.loads(trace_path.read_text()))
        assert _served_total(bundle["metrics"]) == len(SPAM_EMAILS)
        assert f"emails_served_total {len(SPAM_EMAILS)}" in prom.read_text()


class TestFabricRecovery:
    def test_hello_refuses_an_agent_launched_as_another_shard(self):
        """A worker's checkpoint log is keyed by its shard index, so position
        *k* of the driver must be served by the agent launched as shard *k* —
        or a replacement could never find its predecessor's open windows."""
        runtime, agents = launch_fabric(1)
        try:
            stray = spawn_local_agent(shard_index=5)
            agents.append(stray)
            with pytest.raises(ProtocolError, match="would not line up"):
                runtime.attach_worker(stray)
            assert runtime.slot_owners() == [0]
        finally:
            runtime.close()
            _reap(agents)

    def test_a_v2_parent_is_refused_at_hello(self, monkeypatch):
        """A mixed build fails at the handshake, before any registration: the
        agent refuses the v2 HELLO unread, hangs up and exits."""
        agent = spawn_local_agent(shard_index=0)
        try:
            monkeypatch.setattr(control, "CONTROL_VERSION", 2)
            with pytest.raises(ProtocolError):
                TcpLink(agent, 0, (1, None), "incarnation")
            assert agent.wait(timeout=10.0) == 0
        finally:
            _reap([agent])

    @pytest.mark.parametrize(
        "spec", [(1, math.nan), ("static", 1, None, None), (True, None)], ids=repr
    )
    def test_hello_with_a_malformed_scheduler_spec_is_refused(self, spec):
        """The spec rides the HELLO body: the agent checks it before it builds
        a worker core, says BYE with the reason, and exits."""
        agent = spawn_local_agent(shard_index=0)
        try:
            with pytest.raises(ProtocolError, match="refused registration: bad scheduler spec"):
                TcpLink(agent, 0, spec, "incarnation")
            assert agent.wait(timeout=10.0) == 0
        finally:
            _reap([agent])

    def test_heartbeat_timeout_evicts_a_hung_agent(self, spam_setup):
        """A SIGSTOPped agent keeps its socket open but goes silent; only the
        liveness policy can notice — and must."""
        addresses = _slot_addresses(2, per_slot=1)
        runtime, agents = launch_fabric(
            2, heartbeat_interval=0.05, heartbeat_timeout=1.0
        )
        stopped = None
        try:
            _register_all(runtime, addresses, spam_setup)
            # Precondition: nothing in flight.  Registration is pipelined, and
            # a link never evicts an agent that owes it a reply, so collect
            # the registrations before the agent hangs.
            runtime.shard_stats()
            victim = 1
            stopped = runtime.worker_pid(victim)
            os.kill(stopped, signal.SIGSTOP)
            assert _wait_until(lambda: not runtime.worker_alive(victim), timeout=20.0)
            with pytest.raises(ProtocolError):
                runtime._request(victim, "stats", None)
            # The survivor still serves its own range.
            survivor_address = addresses[0]
            job_ids = runtime.submit_spam([(survivor_address, SPAM_EMAILS[0])])
            runtime.drain()
            assert runtime.take_result(job_ids[0]) is not None
        finally:
            if stopped is not None:
                try:
                    os.kill(stopped, signal.SIGCONT)
                except ProcessLookupError:
                    pass
            runtime.close()
            for agent in agents:
                agent.kill()
                agent.wait(timeout=10.0)

    def test_an_agent_hung_mid_registration_is_reported_by_the_next_call(
        self, monkeypatch, spam_setup
    ):
        """A registration in flight suspends eviction, so the request timeout
        is what reports an agent that hangs during one: the next call raises
        instead of waiting on it, and the reply still lands once it comes."""
        monkeypatch.setattr(control, "REQUEST_TIMEOUT_SECONDS", 1.0)
        (address,) = _slot_addresses(1, per_slot=1)
        runtime, agents = launch_fabric(1, heartbeat_interval=0.05, heartbeat_timeout=0.5)
        stopped = runtime.worker_pid(0)
        try:
            os.kill(stopped, signal.SIGSTOP)
            began = time.monotonic()
            _register_all(runtime, [address], spam_setup)
            assert time.monotonic() - began < 1.0  # posted, not waited on
            time.sleep(1.0)  # past heartbeat_timeout: the registration is in flight
            assert runtime.worker_alive(0)
            with pytest.raises(ProtocolError, match="silent"):
                runtime.shard_stats()
            assert time.monotonic() - began < 10.0
            os.kill(stopped, signal.SIGCONT)
            (stats,) = runtime.shard_stats()  # absorbs the late registration reply
            assert stats["mailboxes"] == 1
        finally:
            os.kill(stopped, signal.SIGCONT)
            runtime.close()
            _reap(agents)


class TestAgentLeaks:
    """No agent process outlives the parent's use of it."""

    @pytest.mark.parametrize("failure", ["spawn", "announce", "hello"])
    def test_a_failed_launch_kills_and_reaps_every_agent(self, monkeypatch, failure):
        """Agent 1 of 3 fails to start, exits before announcing its port, or
        every agent refuses the HELLO: each agent already spawned is killed
        and reaped, and no child of this process is left."""
        before = _child_pids()
        spawned = []
        real_spawn = spawn_local_agent

        def spawn(shard_index, checkpoint_dir=None):
            if shard_index == 1 and failure == "spawn":
                raise OSError("no more processes")
            if shard_index == 1 and failure == "announce":
                shard_index = "not-a-shard"  # the agent's argument parser exits
            spawned.append(real_spawn(shard_index=shard_index, checkpoint_dir=checkpoint_dir))
            return spawned[-1]

        monkeypatch.setattr(fabric_package, "spawn_local_agent", spawn)
        if failure == "hello":
            monkeypatch.setattr(control, "CONTROL_VERSION", 2)
        with pytest.raises((OSError, ProtocolError)):
            launch_fabric(3)
        assert spawned and all(agent.process.returncode is not None for agent in spawned)
        assert _child_pids() <= before

    def test_an_agent_no_parent_dials_exits(self, monkeypatch):
        """The accept has a deadline: past it the agent returns status 1 and
        its port is closed."""
        monkeypatch.setattr(agent_module, "ACCEPT_TIMEOUT_SECONDS", 0.2)
        announce = io.StringIO()
        status: list[int] = []
        thread = threading.Thread(
            target=lambda: status.append(agent_module.serve(announce=announce)), daemon=True
        )
        thread.start()
        thread.join(timeout=10.0)
        assert status == [1]
        port = int(announce.getvalue().split()[1])
        with pytest.raises(ConnectionRefusedError):
            socket.create_connection(("127.0.0.1", port), timeout=2.0).close()


# -- the parent build's control framing, kept test-locally ---------------------
#
# Before this build the control link ran an ack/retransmit layer over TCP:
# each frame on the socket was ``u32 length ‖ reliability frame``, where the
# reliability frame is the 10-byte header below followed by the control frame.

_OLD_HEADER = struct.Struct(">BBII")
_OLD_MAGIC, _OLD_DATA, _OLD_ACK = 0x52, 0x01, 0x02


def encode_reliable(frame_type: int, sequence: int, payload: bytes = b"") -> bytes:
    prefix = struct.pack(">BBI", _OLD_MAGIC, frame_type, sequence)
    return prefix + struct.pack(">I", zlib.crc32(prefix + payload)) + payload


def decode_reliable(data: bytes) -> tuple[int, int, bytes]:
    if len(data) < _OLD_HEADER.size:
        raise WireFormatError("reliability frame truncated")
    magic, frame_type, sequence, checksum = _OLD_HEADER.unpack_from(data)
    payload = data[_OLD_HEADER.size :]
    if magic != _OLD_MAGIC or frame_type not in (_OLD_DATA, _OLD_ACK):
        raise WireFormatError("bad reliability header")
    if checksum != zlib.crc32(data[:6] + payload):
        raise WireFormatError("reliability CRC mismatch")
    return frame_type, sequence, payload


def _old_socket_frame(frame_type: int, sequence: int, payload: bytes = b"") -> bytes:
    frame = encode_reliable(frame_type, sequence, payload)
    return struct.pack(">I", len(frame)) + frame


def _old_frames(buffer: bytearray):
    """Pop every complete parent-build socket frame off *buffer*."""
    while len(buffer) >= 4:
        (length,) = struct.unpack_from(">I", buffer)
        if len(buffer) < 4 + length:
            return
        frame = bytes(buffer[4 : 4 + length])
        del buffer[: 4 + length]
        yield frame


def _old_parent_hello(sock: socket.socket) -> tuple[list[int], bool]:
    """Greet the agent on *sock* as the parent build did; return (verbs read, closed).

    The parent build resent an unacknowledged frame on its first 50 ms poll
    timeout, so the HELLO goes out twice.
    """
    hello = pack_control(
        ControlVerb.HELLO,
        {
            "version": CONTROL_VERSION,
            "incarnation": "parent-build",
            "scheduler_spec": (1, None),
            "agent_index": 0,
            "heartbeat_interval": 0.25,
            "parent_timeout": 60.0,
        },
    )
    verbs: list[int] = []
    buffer = bytearray()
    sock.settimeout(10.0)
    sock.sendall(_old_socket_frame(_OLD_DATA, 1, hello))
    time.sleep(0.05)
    try:
        sock.sendall(_old_socket_frame(_OLD_DATA, 1, hello))
    except (BrokenPipeError, ConnectionResetError):
        pass  # the agent already hung up on the first copy
    while ControlVerb.HELLO not in verbs:
        try:
            chunk = sock.recv(65536)
        except ConnectionResetError:
            chunk = b""
        if not chunk:
            return verbs, True
        buffer += chunk
        for frame in _old_frames(buffer):
            frame_type, _, payload = decode_reliable(frame)
            if frame_type == _OLD_DATA:
                verbs.append(unpack_control(payload)[0])
    return verbs, False


def _dial(port: int) -> socket.socket:
    return socket.create_connection(("127.0.0.1", port), timeout=10.0)


class _ParentBuildAgent:
    """An agent stub speaking the parent build's framing on a localhost port.

    Like the parent build, it drops a frame that fails its reliability
    header, acks every data frame but delivers each sequence number once
    (a retransmitted HELLO is a duplicate), and answers a HELLO it can read
    with its own HELLO.
    """

    def __init__(self) -> None:
        self._server = socket.create_server(("127.0.0.1", 0))
        self.port = self._server.getsockname()[1]
        self.verbs: list[int] = []
        self._thread = threading.Thread(target=self._serve, daemon=True)
        self._thread.start()

    def _serve(self) -> None:
        self._server.settimeout(10.0)
        try:
            connection, _ = self._server.accept()
        except OSError:
            return
        buffer = bytearray()
        sent = 0
        delivered: set[int] = set()
        with connection:
            connection.settimeout(10.0)
            try:
                while chunk := connection.recv(65536):
                    buffer += chunk
                    for frame in _old_frames(buffer):
                        try:
                            frame_type, sequence, payload = decode_reliable(frame)
                        except WireFormatError:
                            continue  # "corrupt": the sender's retransmit recovers it
                        if frame_type != _OLD_DATA:
                            continue
                        connection.sendall(_old_socket_frame(_OLD_ACK, sequence))
                        if sequence in delivered:
                            continue
                        delivered.add(sequence)
                        verb, _ = unpack_control(payload)
                        self.verbs.append(verb)
                        if verb == ControlVerb.HELLO:
                            sent += 1
                            body = {"version": CONTROL_VERSION, "pid": 0, "shard_index": 0}
                            reply = pack_control(ControlVerb.HELLO, body)
                            connection.sendall(_old_socket_frame(_OLD_DATA, sent, reply))
            except OSError:
                return  # the peer hung up

    def close(self) -> None:
        self._server.close()
        self._thread.join(timeout=15.0)


class TestMixedBuilds:
    """A parent-build peer meets a peer of this build: a refusal, never a verdict."""

    def test_the_parent_build_stub_answers_a_parent_build_hello(self):
        # The stub is faithful: the refusals below come from the framing.
        stub = _ParentBuildAgent()
        try:
            with _dial(stub.port) as sock:
                verbs, _ = _old_parent_hello(sock)
            assert verbs == [ControlVerb.HELLO]
        finally:
            stub.close()

    def test_a_parent_build_hello_is_refused_by_this_agent(self):
        agent = spawn_local_agent(shard_index=0)
        try:
            with _dial(agent.port) as sock:
                verbs, closed = _old_parent_hello(sock)
            assert verbs == [] and closed
            assert agent.wait(timeout=10.0) == 0
        finally:
            _reap([agent])

    def test_a_parent_build_hello_is_refused_by_a_forked_agent(self):
        # The socketpair link of a local shard runs the same refusal: no
        # HELLO back, let alone a verdict, and the child exits cleanly.
        agent = agent_module.fork_local_agent(shard_index=0)
        try:
            verbs, closed = _old_parent_hello(agent.socket)
            assert verbs == [] and closed
            assert agent.wait(timeout=10.0) == 0
        finally:
            agent.socket.close()
            agent.reap()

    def test_this_parent_refuses_a_parent_build_agent(self, monkeypatch):
        monkeypatch.setattr(control, "CONNECT_TIMEOUT_SECONDS", 1.0)
        stub = _ParentBuildAgent()
        try:
            begin = time.monotonic()
            with pytest.raises(ProtocolError):
                TcpLink(("127.0.0.1", stub.port), 0, (1, None), "incarnation")
            assert time.monotonic() - begin < 5.0
        finally:
            stub.close()
        assert stub.verbs == []  # it never read a HELLO, let alone a command


class TestReadDeadlines:
    def test_a_command_longer_than_both_read_deadlines_completes(
        self, monkeypatch, spam_setup, spam_truth
    ):
        """A shard busy in a long decrypt sends nothing; a parent between
        beacons sends nothing.  Either end's read deadline passing is only
        silence: the verdict arrives and nobody is evicted."""
        deadline, block = 0.3, 1.5

        class ShortDeadlineTransport(TcpTransport):
            def receive(self, receiver, timeout_seconds=None):
                if timeout_seconds is None or timeout_seconds > deadline:
                    timeout_seconds = deadline
                return super().receive(receiver, timeout_seconds)

        # Both ends' endpoints: the parent's reader and the agent's loop.
        monkeypatch.setattr(control, "TcpTransport", ShortDeadlineTransport)
        monkeypatch.setattr(agent_module, "TcpTransport", ShortDeadlineTransport)
        handle = ShardWorkerCore.handle

        def slow_handle(core, command, payload):
            if command == "burst":
                time.sleep(block)
            return handle(core, command, payload)

        monkeypatch.setattr(ShardWorkerCore, "handle", slow_handle)
        thread, port = _agent_in_thread()
        connect = functools.partial(
            TcpLink, heartbeat_interval=3 * deadline, heartbeat_timeout=60.0
        )
        runtime = FabricRuntime(connect, [("127.0.0.1", port)])
        try:
            protocol, setup = spam_setup
            runtime.register_spam("a@example.com", protocol, setup)
            verdicts = []
            for features in SPAM_EMAILS[:2]:
                begin = time.monotonic()
                (job_id,) = runtime.submit_spam([("a@example.com", features)])
                runtime.drain()
                assert time.monotonic() - begin > block
                verdicts.append(runtime.take_result(job_id).is_spam)
                time.sleep(4 * deadline)  # idle: only beacons, 3 deadlines apart
            assert verdicts == spam_truth[:2]
            assert runtime.worker_alive(0)
        finally:
            runtime.close()
            thread.join(timeout=15.0)
        assert not thread.is_alive()


class TestLinkThreads:
    """One caller that sends and one reader thread per link, and no event loop."""

    def test_a_large_command_posted_during_a_large_reply_completes(self, monkeypatch):
        """The agent writes a multi-MiB reply while the caller writes a
        multi-MiB command: each write waits for the other side to read, and
        only the link's reader thread, which never waits on the send lock,
        can drain the reply.  Both replies arrive in bounded time."""
        size = 8 * 1024 * 1024
        handle = ShardWorkerCore.handle

        def echo_handle(core, command, payload):
            if command == "echo":
                return ("echo", payload[::-1])
            return handle(core, command, payload)

        monkeypatch.setattr(ShardWorkerCore, "handle", echo_handle)
        agent = agent_module.fork_local_agent(shard_index=0)  # inherits the patch
        link = TcpLink(agent, 0, (1, None), "incarnation", heartbeat_interval=0.01)
        commands = [bytes(range(256)) * (size // 256), b"\x01\x02" * (size // 2)]
        replies = []

        def drive():
            for payload in commands:
                link.post("echo", payload)
            replies.extend(link.wait() for _ in commands)

        driver = threading.Thread(target=drive, daemon=True)
        try:
            driver.start()
            driver.join(timeout=60.0)
            assert not driver.is_alive(), "the link deadlocked"
            assert replies == [("echo", payload[::-1]) for payload in commands]
            assert link.alive
        finally:
            link.close()
        assert agent.returncode == 0

    @pytest.mark.parametrize("fate", ["serving", "killed"])
    def test_close_leaves_no_link_thread(self, fate):
        """``close()`` shuts the socket down, joins the reader, and only then
        closes the descriptor — whether the agent is serving or dead."""
        agent = agent_module.fork_local_agent(shard_index=3)
        link = TcpLink(agent, 3, (1, None), "incarnation")
        assert any(thread.name == "fabric-link[3]" for thread in threading.enumerate())
        if fate == "killed":
            os.kill(agent.pid, signal.SIGKILL)
            assert _wait_until(lambda: not link.alive, timeout=10.0)
        link.close()
        assert not [
            thread.name
            for thread in threading.enumerate()
            if thread.name.startswith("fabric-link[")
        ]
        assert agent.socket.fileno() == -1
        assert agent.returncode == (0 if fate == "serving" else -signal.SIGKILL)

    def test_the_ledger_is_exact_when_commands_and_beacons_interleave(self, monkeypatch):
        """The caller's commands, the reader's beacons and the frames it
        reads all reach one endpoint's ledger from two threads: every frame
        the parent sent is one the agent received, byte for byte, and the
        registry's counters agree with the ledger."""
        agent_ends: list[TcpTransport] = []

        class RecordingTransport(TcpTransport):
            def __init__(self, *args, **kwargs):
                super().__init__(*args, **kwargs)
                agent_ends.append(self)

        monkeypatch.setattr(agent_module, "TcpTransport", RecordingTransport)
        registry = get_registry()
        counters = {
            (name, party): registry.counter(name, party=party)
            for name in ("transport_bytes_total", "transport_frames_total")
            for party in control.CONTROL_PARTIES
        }
        before = {key: counter.value for key, counter in counters.items()}
        thread, port = _agent_in_thread()
        link = TcpLink(
            ("127.0.0.1", port), 0, (1, None), "incarnation",
            heartbeat_interval=0.002,
        )
        commands = 100
        try:
            for _ in range(commands):
                link.post("stats", None)
                assert link.wait()[0] == "stats"
                time.sleep(0.005)  # silence enough for a beacon or two
        finally:
            link.close()
            thread.join(timeout=15.0)
        (agent_end,) = agent_ends
        parent_end = link.transport
        assert agent_end.messages_by_sender["parent"] == parent_end.messages_by_sender["parent"]
        assert agent_end.bytes_by_sender["parent"] == parent_end.bytes_by_sender["parent"]
        beacons = parent_end.messages_by_sender["parent"] - commands - 2  # HELLO, BYE
        assert beacons > 0
        assert parent_end.messages_by_sender["agent"] > commands  # replies and beacons
        for (name, party), counter in counters.items():
            ledger = (
                parent_end.bytes_by_sender
                if name == "transport_bytes_total"
                else parent_end.messages_by_sender
            )
            assert counter.value - before[name, party] == ledger[party]

    def test_importing_the_fabric_loads_no_event_loop(self):
        """Both ends of the control link are plain sockets and threads."""
        source = str(Path(agent_module.__file__).parents[2])  # the directory holding repro/
        code = (
            "import sys, repro.fabric; "
            "loaded = sorted(name for name in sys.modules if name.startswith('asyncio')); "
            "assert not loaded, loaded"
        )
        completed = subprocess.run(
            [sys.executable, "-c", code],
            env={**os.environ, "PYTHONPATH": source},
            capture_output=True,
            text=True,
            timeout=60,
        )
        assert completed.returncode == 0, completed.stderr


def _raw_hello(**overrides) -> bytes:
    """This build's HELLO as one socket frame, with *overrides* in its body."""
    body = {
        "version": CONTROL_VERSION,
        "incarnation": "raw",
        "scheduler_spec": (1, None),
        "agent_index": 0,
        "heartbeat_interval": 0.25,
        "parent_timeout": 60.0,
        **overrides,
    }
    return encode_frame(pack_control(ControlVerb.HELLO, body))


def _read_until_hangup(sock: socket.socket, timeout: float) -> tuple[list, float]:
    """Every control message read off *sock* until the agent hangs up, and
    the seconds that took; a socket timeout if it stays open past *timeout*."""
    assembler = FrameAssembler()
    messages = []
    begin = time.monotonic()
    while True:
        sock.settimeout(max(begin + timeout - time.monotonic(), 1e-3))
        try:
            chunk = sock.recv(65536)
        except ConnectionResetError:
            chunk = b""
        if not chunk:
            return messages, time.monotonic() - begin
        messages += [unpack_control(frame) for frame in assembler.feed(chunk)]


class TestHousekeeping:
    """The agent wakes when something is due, not on a clock."""

    def test_an_idle_agent_sleeps_between_beacons(self, monkeypatch, spam_setup):
        """Idle for 1 s with 0.25-s beacons: a handful of wake-ups (one per
        beacon), where a 50-ms tick would wake 20 times."""
        wakes = [0]
        next_timeout = ShardWorkerCore.next_timeout

        def counting_next_timeout(core):
            wakes[0] += 1
            return next_timeout(core)

        monkeypatch.setattr(ShardWorkerCore, "next_timeout", counting_next_timeout)
        thread, port = _agent_in_thread()
        connect = functools.partial(TcpLink, heartbeat_interval=0.25)
        runtime = FabricRuntime(connect, [("127.0.0.1", port)])
        try:
            protocol, setup = spam_setup
            # The registration's reply is the last frame the agent owes.
            runtime.register_spam("a@example.com", protocol, setup)
            time.sleep(0.2)
            wakes_before = wakes[0]
            time.sleep(1.0)
            assert wakes[0] - wakes_before <= 8
            assert runtime.worker_alive(0)
        finally:
            runtime.close()
            thread.join(timeout=15.0)
        assert not thread.is_alive()

    @pytest.mark.parametrize("kind", ["local", "tcp"])
    def test_an_aged_window_fires_with_no_command(self, spam_setup, spam_truth, kind):
        """One email parked in a two-burst window and nothing sent after it:
        the window's age deadline alone wakes the agent, which serves the
        email and keeps its result and count for the next reply.  A command
        sent before the window fired would fire it only after its reply,
        so one ``stats`` after the silence tells which woke the agent."""
        delay = 0.2
        if kind == "local":
            runtime = ShardedRuntime(num_shards=1, window_bursts=2, max_delay_seconds=delay)
            agents = []
        else:
            runtime, agents = launch_fabric(1, window_bursts=2, max_delay_seconds=delay)
        try:
            (address,) = _slot_addresses(1, per_slot=1)
            _register_all(runtime, [address], spam_setup)
            (job_id,) = runtime.submit_spam([(address, SPAM_EMAILS[0])])
            time.sleep(delay + 0.4)  # no command: only the window's age can wake the agent
            assert runtime.outstanding_count() == 1  # the driver still holds the job
            (stats,) = runtime.shard_stats()
            assert stats["outstanding_jobs"] == 0, "the aged window did not fire without a command"
            assert _served_total(stats["metrics"]) == 1
            # The stashed result rode the stats reply beside the count it added.
            assert runtime.outstanding_count() == 0
            assert runtime.take_result(job_id).is_spam == spam_truth[0]
        finally:
            runtime.close()
            _reap(agents)

    @pytest.mark.parametrize("kind", ["local", "tcp"])
    def test_an_idle_agent_reports_a_fired_window_only_when_asked(
        self, monkeypatch, spam_setup, spam_truth, kind
    ):
        """The agent fires the aged window in its own loop and says nothing
        about it: with beacons 2.5 s apart, no frame reaches the parent
        between the burst's reply and the next command, whose reply then
        carries the result."""
        verbs: list[int] = []

        def recording_unpack(data):
            verb, body = unpack_control(data)
            verbs.append(verb)
            return verb, body

        monkeypatch.setattr(control, "unpack_control", recording_unpack)
        delay = 0.1
        if kind == "local":
            runtime = ShardedRuntime(num_shards=1, window_bursts=2, max_delay_seconds=delay)
            agents = []
        else:
            runtime, agents = launch_fabric(1, window_bursts=2, max_delay_seconds=delay)
        try:
            (address,) = _slot_addresses(1, per_slot=1)
            _register_all(runtime, [address], spam_setup)
            (job_id,) = runtime.submit_spam([(address, SPAM_EMAILS[0])])
            heard = len(verbs)
            time.sleep(delay + 0.5)
            assert verbs[heard:] == []
            assert runtime.poll() == 1
            assert verbs[heard:] == [ControlVerb.REPLY]
            assert runtime.take_result(job_id).is_spam == spam_truth[0]
        finally:
            runtime.close()
            _reap(agents)

    def test_an_orphaned_agent_exits(self):
        """The parent goes silent but keeps the socket open: the agent judges
        it gone after its advertised timeout and hangs up."""
        agent = agent_module.fork_local_agent(shard_index=0)
        try:
            agent.socket.sendall(_raw_hello(parent_timeout=0.5))
            messages, waited = _read_until_hangup(agent.socket, 10.0)
            assert messages[0][0] == ControlVerb.HELLO
            assert ControlVerb.HEARTBEAT in [verb for verb, _ in messages]
            assert waited < 2.0
            assert agent.wait(timeout=10.0) == 0
        finally:
            agent.socket.close()
            agent.reap()

    @pytest.mark.parametrize("value", [math.nan, -1.0, math.inf], ids=repr)
    @pytest.mark.parametrize("field", ["heartbeat_interval", "parent_timeout"])
    def test_a_hello_with_a_bad_interval_is_refused(self, field, value):
        """A wait computed from a negative or ``nan`` interval would spin the
        agent, from an infinite one never beacon: BYE, no core, exit 0."""
        agent = agent_module.fork_local_agent(shard_index=0)
        try:
            agent.socket.sendall(_raw_hello(**{field: value}))
            messages, _ = _read_until_hangup(agent.socket, 10.0)
            assert [verb for verb, _ in messages] == [ControlVerb.BYE]
            assert messages[0][1]["error"].startswith("bad intervals")
            assert agent.wait(timeout=10.0) == 0
        finally:
            agent.socket.close()
            agent.reap()

    @pytest.mark.parametrize("interval", [0.0, -1.0, math.nan, 30.0, 45.0], ids=repr)
    def test_a_link_refuses_a_bad_interval(self, interval):
        """A beacon interval must be above zero and below the eviction
        timeout (30 s here); the link refuses one before it starts a thread."""
        threads = threading.active_count()
        with pytest.raises(ProtocolError, match="heartbeat_interval"):
            TcpLink(("127.0.0.1", 9), 0, (1, None), "incarnation", heartbeat_interval=interval)
        assert threading.active_count() == threads


class TestFabricMigration:
    def test_rebalance_moves_the_hottest_range_to_a_spare(
        self, spam_setup, spam_truth
    ):
        addresses = _slot_addresses(2)
        runtime, agents = launch_fabric(2)
        try:
            _register_all(runtime, addresses, spam_setup)
            # Skew the load: every email lands on slot 0's addresses.
            hot = [addr for addr in addresses if shard_of_address(addr, 2) == 0]
            job_ids = runtime.submit_spam(
                [(hot[index % len(hot)], features) for index, features in enumerate(SPAM_EMAILS[:4])]
            )
            runtime.drain()
            for job_id in job_ids:
                runtime.take_result(job_id)

            assert runtime.rebalance() is None  # no spare attached yet
            spare = spawn_local_agent(shard_index=2)
            agents.append(spare)
            runtime.attach_worker(spare)
            moved = runtime.rebalance()
            assert moved is not None
            source, target, resubmitted = moved
            assert source == 0 and resubmitted == 0
            assert runtime.slot_owners()[0] == target

            # The moved range keeps serving, correctly, on its new host.
            job_ids = runtime.submit_spam([(hot[0], SPAM_EMAILS[0])])
            runtime.drain()
            assert runtime.take_result(job_ids[0]).is_spam == spam_truth[0]
        finally:
            runtime.close()
            _reap(agents)


