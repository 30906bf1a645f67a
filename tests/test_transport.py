"""Transport-layer tests: the loopback transport and framed channels.

The transport is where byte accounting lives, so the ledger invariants are
tested here: every accepted frame is charged exactly ``len(data)`` to its
sender, message counts and rounds track the frames sent, and frames are
delivered FIFO per direction.  The TCP endpoint has its own suite in
``test_transport_framing.py``.
"""

import pytest

from repro.exceptions import ProtocolError, TransportTimeoutError
from repro.twopc.transport import FramedChannel, LoopbackTransport
from repro.twopc.wire import ClassifyResultFrame, FeaturesFrame, OtExtColumnsFrame, WireCodec


class TestLoopbackTransport:
    def test_fifo_per_direction(self):
        transport = LoopbackTransport()
        transport.send("client", b"first")
        transport.send("client", b"second")
        transport.send("provider", b"reply")
        assert transport.receive("provider") == b"first"
        assert transport.receive("provider") == b"second"
        assert transport.receive("client") == b"reply"
        assert transport.pending() == 0

    def test_exact_byte_accounting(self):
        transport = LoopbackTransport()
        transport.send("client", b"x" * 100)
        transport.send("provider", b"y" * 50)
        assert transport.bytes_by_sender == {"client": 100, "provider": 50}
        assert transport.total_bytes() == 150
        assert transport.total_messages() == 2
        assert transport.messages_by_sender == {"client": 1, "provider": 1}

    def test_rounds_count_direction_bursts(self):
        transport = LoopbackTransport()
        assert transport.rounds() == 0
        transport.send("client", b"a")
        transport.send("client", b"b")   # same burst
        assert transport.rounds() == 1
        transport.send("provider", b"c")
        assert transport.rounds() == 2
        transport.send("client", b"d")
        assert transport.rounds() == 3

    def test_empty_receive_raises(self):
        transport = LoopbackTransport()
        with pytest.raises(ProtocolError):
            transport.receive("client")

    def test_empty_receive_is_an_immediate_timeout(self):
        # Nothing can arrive in-process, so waiting could never help.
        transport = LoopbackTransport()
        with pytest.raises(TransportTimeoutError):
            transport.receive("provider")

    def test_send_snapshots_the_buffer(self):
        transport = LoopbackTransport()
        buffer = bytearray(b"original")
        transport.send("client", buffer)
        buffer[:] = b"mutated!"
        assert transport.receive("provider") == b"original"

    def test_unknown_party_rejected(self):
        transport = LoopbackTransport(parties=("alice", "bob"))
        with pytest.raises(ProtocolError):
            transport.send("mallory", b"hi")
        with pytest.raises(ProtocolError):
            transport.receive("mallory")

    def test_peer_of(self):
        transport = LoopbackTransport(parties=("alice", "bob"))
        assert transport.peer_of("alice") == "bob"
        assert transport.peer_of("bob") == "alice"


class TestFramedChannel:
    def test_typed_frames_roundtrip(self):
        channel = FramedChannel(LoopbackTransport(), WireCodec())
        sent = FeaturesFrame(((1, 2), (9, 1)))
        size = channel.send("client", sent)
        assert size == len(channel.codec.encode(sent))
        assert channel.receive("provider") == sent
        channel.send("provider", ClassifyResultFrame(3))
        assert channel.receive("client") == ClassifyResultFrame(3)

    def test_total_bytes_is_sum_of_frame_lengths(self):
        channel = FramedChannel.loopback()
        frames = [
            FeaturesFrame(((0, 1),)),
            OtExtColumnsFrame((b"col",), start_index=4),
            ClassifyResultFrame(0),
        ]
        expected = 0
        for frame in frames:
            expected += len(channel.codec.encode(frame))
            channel.send("client", frame)
        assert channel.total_bytes() == expected
        assert channel.total_messages() == len(frames)
        assert channel.bytes_by_sender == {"client": expected, "provider": 0}
