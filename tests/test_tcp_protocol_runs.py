"""Full protocol runs whose every frame crosses a real localhost TCP connection.

The in-process protocol runs use :class:`LoopbackTransport`; a deployment
moves the same frames over TCP (§6.3).  TCP delivers a live connection's
bytes once and in order, so over :class:`TcpTransport` a spam or topic
run must give *bit-identical* results and ledgers to the in-process run —
each endpoint charging every frame's payload once, never its header.  What
TCP cannot promise is handled by the framing and the serving stack: a frame
damaged on the wire is refused by its CRC32 and ends the run without a
verdict, a peer that hangs up mid-run surfaces as
:class:`~repro.exceptions.TransportClosedError`, and a job whose client went
away resumes over a fresh TCP connection with the clean run's verdict.
"""

import socket

import pytest

from repro.core.runtime import DecryptScheduler, ProviderRuntime, session_job
from repro.exceptions import TransportClosedError, WireFormatError
from repro.twopc.spam import SpamClientSession, SpamFilterProtocol
from repro.twopc.topics import TopicExtractionProtocol
from repro.twopc.transport import (
    FramedChannel,
    TcpTransport,
    Transport,
    encode_frame,
)
from repro.twopc.wire import SessionState, WireCodec

from oracles import pending_frames

SPAM_EMAILS = [
    {1: 1, 5: 1, 9: 1},
    {100: 1, 150: 1, 199: 1, 42: 1},
    {i: 1 for i in range(0, 200, 7)},
]

TOPIC_EMAILS = [
    {2: 1, 3: 2, 77: 1},
    {150: 4, 151: 1, 10: 2},
]

CANDIDATE_TOPICS = [0, 2, 5]


@pytest.fixture(scope="module")
def spam_setup(bv_scheme, dh_group, small_spam_model):
    protocol = SpamFilterProtocol(bv_scheme, dh_group)
    return protocol, protocol.setup(small_spam_model)


@pytest.fixture(scope="module")
def topic_setup(bv_scheme, dh_group, small_topic_model):
    protocol = TopicExtractionProtocol(bv_scheme, dh_group)
    return protocol, protocol.setup(small_topic_model)


class TcpPairTransport(Transport):
    """Both parties of one localhost TCP connection behind the sync interface.

    Each party owns one :class:`TcpTransport` endpoint, and the protocol
    drives both from its one thread: a send writes the whole frame into the
    socket before the peer reads it, which the frames of these runs (a dozen
    KiB at most) fit with room to spare.  The pair keeps the shared ledger a
    :class:`LoopbackTransport` would (charged at ``send``), and each
    endpoint keeps its own, so the three can be compared.

    ``tamper(index, wire)`` may rewrite the bytes of the *index*-th frame
    written (0-based, either direction); ``hangup_after`` makes the sender of
    that frame close its endpoint instead of writing it.
    """

    def __init__(self, tamper=None, hangup_after=None) -> None:
        super().__init__(("client", "provider"), "tcp-pair")
        self._tamper = tamper
        self._hangup_after = hangup_after
        self._written = 0
        self.hung_up: str | None = None
        with socket.create_server(("127.0.0.1", 0)) as server:
            client = TcpTransport.connect("127.0.0.1", server.getsockname()[1])
            accepted, _ = server.accept()
        provider = TcpTransport(accepted, local_party="provider")
        self.endpoints = {"client": client, "provider": provider}

    def send(self, sender: str, data: bytes) -> int:
        self._check_party(sender)
        endpoint = self.endpoints[sender]
        index, self._written = self._written, self._written + 1
        if index == self._hangup_after:
            self.hung_up = sender
            endpoint.close()
            return len(data)
        self._account(sender, len(data))
        if self._tamper is None:
            endpoint.send(sender, data)
        else:
            endpoint._sock.sendall(self._tamper(index, encode_frame(data)))
        return len(data)

    def receive(self, receiver: str) -> bytes:
        return self.endpoints[receiver].receive(receiver, timeout_seconds=10.0)

    def pending(self) -> int:
        return sum(pending_frames(endpoint) for endpoint in self.endpoints.values())

    def close(self) -> None:
        for endpoint in self.endpoints.values():
            endpoint.close()


def _tcp_channel(protocol, setup, **kwargs) -> tuple[FramedChannel, TcpPairTransport]:
    transport = TcpPairTransport(**kwargs)
    codec = WireCodec(scheme=protocol.scheme, public_key=setup.keypair.public)
    return FramedChannel(transport, codec, name="tcp"), transport


def _assert_endpoint_ledgers_match(transport: TcpPairTransport) -> None:
    # Every frame crossed once: both endpoints saw both directions, payload
    # bytes only, exactly as the shared ledger charged them.
    for endpoint in transport.endpoints.values():
        assert endpoint.bytes_by_sender == transport.bytes_by_sender
        assert endpoint.messages_by_sender == transport.messages_by_sender
        assert endpoint.rounds() == transport.rounds()
    assert pending_frames(transport) == 0


def _flip(offset_of):
    """A tamper hook flipping one bit of the frame it is aimed at."""

    def tamper_at(target):
        def tamper(index, wire):
            if index != target:
                return wire
            damaged = bytearray(wire)
            damaged[offset_of(wire)] ^= 0x10
            return bytes(damaged)

        return tamper

    return tamper_at


DAMAGE = {
    "checksum": _flip(lambda wire: 4),
    "payload": _flip(lambda wire: len(wire) - 1),
}


class TestSpamOverTcp:
    @pytest.mark.parametrize("index", range(len(SPAM_EMAILS)))
    def test_verdict_and_ledger_match_in_process(
        self, spam_setup, small_spam_model, sent_frame_sizes, index
    ):
        protocol, setup = spam_setup
        features = SPAM_EMAILS[index]
        clean = protocol.classify_email(setup, features)
        channel, transport = _tcp_channel(protocol, setup)
        sizes = sent_frame_sizes(channel)
        try:
            over_tcp = protocol.classify_email(setup, features, channel=channel)
            _assert_endpoint_ledgers_match(transport)
        finally:
            channel.transport.close()
        assert over_tcp.is_spam == clean.is_spam == small_spam_model.predict_is_spam(features)
        assert over_tcp.yao_and_gates == clean.yao_and_gates
        assert over_tcp.network_messages == clean.network_messages == len(sizes)
        assert over_tcp.network_rounds == clean.network_rounds
        # Group elements vary in encoded length run to run, so the byte count
        # is checked against this run's own frames.
        assert over_tcp.network_bytes == sum(sizes)


class TestTopicOverTcp:
    @pytest.mark.parametrize("index", range(len(TOPIC_EMAILS)))
    def test_topic_and_ledger_match_in_process(self, topic_setup, sent_frame_sizes, index):
        protocol, setup = topic_setup
        features = TOPIC_EMAILS[index]
        clean = protocol.extract_topic(setup, features, candidate_topics=CANDIDATE_TOPICS)
        channel, transport = _tcp_channel(protocol, setup)
        sizes = sent_frame_sizes(channel)
        try:
            over_tcp = protocol.extract_topic(
                setup, features, candidate_topics=CANDIDATE_TOPICS, channel=channel
            )
            _assert_endpoint_ledgers_match(transport)
        finally:
            channel.transport.close()
        assert over_tcp.extracted_topic == clean.extracted_topic
        assert over_tcp.candidates_used == clean.candidates_used
        assert over_tcp.yao_and_gates == clean.yao_and_gates
        assert over_tcp.network_messages == clean.network_messages == len(sizes)
        assert over_tcp.network_bytes == sum(sizes)


class TestDamageOverTcp:
    """What TCP's own checksum lets through, the frame CRC refuses."""

    @pytest.mark.parametrize("field", sorted(DAMAGE))
    @pytest.mark.parametrize("target", [0, 1, 2])
    def test_a_damaged_frame_ends_the_run_without_a_verdict(self, spam_setup, field, target):
        protocol, setup = spam_setup
        channel, transport = _tcp_channel(protocol, setup, tamper=DAMAGE[field](target))
        try:
            with pytest.raises(WireFormatError, match="CRC32"):
                protocol.classify_email(setup, SPAM_EMAILS[0], channel=channel)
            # Frames arrive in order, so the damaged frame and everything
            # after it went undelivered.  (Earlier frames that shared its
            # read chunk are dropped with it: the link ends either way.)
            delivered = sum(
                endpoint.messages_by_sender[endpoint.peer_of(endpoint.local_party)]
                for endpoint in transport.endpoints.values()
            )
            assert delivered <= target
        finally:
            channel.transport.close()


class TestHangupOverTcp:
    @pytest.mark.parametrize("after", [0, 1, 2])
    def test_a_peer_hangup_mid_run_surfaces_transport_closed(self, spam_setup, after):
        # The signal the reconnect-resume path starts from.
        protocol, setup = spam_setup
        channel, transport = _tcp_channel(protocol, setup, hangup_after=after)
        try:
            with pytest.raises(TransportClosedError):
                protocol.classify_email(setup, SPAM_EMAILS[1], channel=channel)
            assert transport.hung_up in ("client", "provider")
        finally:
            channel.transport.close()


class TestResumeOverTcp:
    @pytest.mark.parametrize("index", range(len(SPAM_EMAILS)))
    def test_a_parked_job_resumes_over_a_fresh_tcp_connection(self, spam_setup, index):
        protocol, setup = spam_setup
        pool = protocol.make_ot_pool(setup)
        clean = protocol.classify_email(setup, SPAM_EMAILS[index])
        runtime = ProviderRuntime(scheduler=DecryptScheduler(window_bursts=100))
        job = session_job(protocol, setup, (SPAM_EMAILS[index],), label=index, ot_pool=pool)
        assert runtime.serve_burst([job]) == []  # parked inside the open window
        state = runtime.disconnect_job(index)
        client = SpamClientSession.restore(
            protocol, setup, SessionState.from_bytes(state.to_bytes()), ot_pool=pool
        )
        channel, transport = _tcp_channel(protocol, setup)
        try:
            runtime.reconnect_job(index, channel, client)
            finished = runtime.drain()
            assert [j.label for j in finished] == [index]
            assert finished[0].client.is_spam == clean.is_spam
            assert transport.total_messages() > 0  # the rest of the run crossed TCP
            _assert_endpoint_ledgers_match(transport)
        finally:
            channel.transport.close()
