"""Cross-host fabric tests: what only the TCP link can do.

Everything a shard driver does whatever its links — verdicts, metrics
equivalence, SIGKILL recovery, reconnect-resume, live migration — is
asserted once for both transports in ``test_shard_driver.py``.  These tests
pin the rest of the fabric's contract:

* the versioned control codec (roundtrip, foreign-version refusal, junk);
* the deterministic metrics projection, the streamed METRICS scrape, and
  the telemetry artifacts a real two-agent run exports;
* HELLO refusal of an agent launched as the wrong shard, of a HELLO
  carrying a malformed scheduler spec, and of a parent speaking control v1;
* heartbeat-timeout eviction of a hung (SIGSTOPped) agent, and a command
  that blocks its agent past both ends' read deadlines completing with no
  eviction (a passed deadline is silence, not failure);
* mixed builds: an agent and a parent of the build that framed control
  frames with an ack/retransmit header refuse this build's peers at HELLO;
* ``rebalance`` choosing the migration from streamed load.
"""

import asyncio
import functools
import io
import json
import math
import os
import pickle
import signal
import socket
import struct
import threading
import time
import zlib

import pytest

from repro.core.runtime import ShardWorkerCore, shard_of_address
from repro.exceptions import ProtocolError, WireFormatError
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
from repro.obs.export import validate_chrome_trace, validate_snapshot, write_artifacts
from repro.twopc.spam import SpamFilterProtocol
from repro.twopc.transport import AsyncTcpTransport
from repro.twopc.wire import CONTROL_VERSION, ControlFrame, ControlVerb, OtPublicsFrame, WireCodec

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

    def test_a_v1_frame_is_refused_by_this_v2_build(self):
        # v2: one ``register`` command, bursts of (job_id, kind, address, request).
        assert CONTROL_VERSION == 2
        frame = ControlFrame(verb=ControlVerb.HELLO, version=1, payload=pickle.dumps({}))
        with pytest.raises(ProtocolError, match="peer speaks v1"):
            unpack_control(WireCodec().encode(frame))

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


class TestFabricEquivalence:
    def test_metrics_stream_without_a_results_reply(self, spam_setup):
        """The streamed scrape: registrations alone never carry a snapshot,
        so anything aggregated before the first burst must have arrived via
        pushed METRICS frames on the control channel."""
        addresses = _slot_addresses(2, per_slot=1)
        runtime, agents = launch_fabric(2, metrics_interval=0.05)
        try:
            _register_all(runtime, addresses, spam_setup)
            assert _wait_until(
                lambda: runtime.aggregated_metrics()["counters"], timeout=10.0
            ), "no streamed metrics snapshot arrived"
        finally:
            runtime.close()
            _reap(agents)


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

    def test_a_v1_parent_is_refused_at_hello(self, monkeypatch):
        """A mixed build fails at the handshake, before any registration: the
        agent refuses the v1 HELLO unread, hangs up and exits."""
        agent = spawn_local_agent(shard_index=0)
        try:
            monkeypatch.setattr(control, "CONTROL_VERSION", 1)
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


def _old_parent_hello(port: int) -> tuple[list[int], bool]:
    """Greet an agent as the parent build did; return (verbs read, closed).

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
            "metrics_interval": 0.0,
            "parent_timeout": 60.0,
        },
    )
    verbs: list[int] = []
    buffer = bytearray()
    with socket.create_connection(("127.0.0.1", port), timeout=10.0) as sock:
        sock.sendall(_old_socket_frame(_OLD_DATA, 1, hello))
        time.sleep(0.05)
        sock.sendall(_old_socket_frame(_OLD_DATA, 1, hello))
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


class _ParentBuildAgent:
    """An agent stub speaking the parent build's framing on a localhost port.

    Like the parent build, it drops a frame that fails its reliability
    header and answers a HELLO it can read with its own HELLO.
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
            verbs, _ = _old_parent_hello(stub.port)
            assert verbs == [ControlVerb.HELLO]
        finally:
            stub.close()

    def test_a_parent_build_hello_is_refused_by_this_agent(self):
        agent = spawn_local_agent(shard_index=0)
        try:
            verbs, closed = _old_parent_hello(agent.port)
            assert verbs == [] and closed
            assert agent.wait(timeout=10.0) == 0
        finally:
            _reap([agent])

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

        class ShortDeadlineTransport(AsyncTcpTransport):
            def __init__(self, *args, **kwargs):
                super().__init__(*args, **kwargs)
                self.timeout = deadline

        # Both ends' endpoints: the parent's reader and the agent's loop.
        monkeypatch.setattr(control, "AsyncTcpTransport", ShortDeadlineTransport)
        monkeypatch.setattr(agent_module, "AsyncTcpTransport", ShortDeadlineTransport)
        handle = ShardWorkerCore.handle

        def slow_handle(core, command, payload):
            if command == "burst":
                time.sleep(block)
            return handle(core, command, payload)

        monkeypatch.setattr(ShardWorkerCore, "handle", slow_handle)
        announce = io.StringIO()
        thread = threading.Thread(
            target=asyncio.run, args=(agent_module.serve(announce=announce),), daemon=True
        )
        thread.start()
        assert _wait_until(lambda: announce.getvalue().startswith("PORT "), timeout=10.0)
        port = int(announce.getvalue().split()[1])
        connect = functools.partial(
            TcpLink, heartbeat_interval=3 * deadline, heartbeat_timeout=60.0, metrics_interval=0.0
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


class TestFabricMigration:
    def test_rebalance_moves_the_hottest_range_to_a_spare(
        self, spam_setup, spam_truth
    ):
        addresses = _slot_addresses(2)
        runtime, agents = launch_fabric(2, metrics_interval=0.05)
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


