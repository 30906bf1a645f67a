"""Framing property tests: byte-stream transports under adversarial splits.

TCP may deliver a frame one byte at a time, or glue the tail of one frame to
the head of the next.  These tests pin the property that framing is
independent of write splits — every frame is delivered intact and in order no
matter how the byte stream is chopped — that a frame damaged in transit is
refused by its CRC32 rather than delivered, that a long-lived endpoint keeps
no per-frame state, and that a closed transport surfaces
:class:`~repro.exceptions.TransportClosedError` rather than a raw ``OSError``.
"""

import asyncio
import zlib
from collections import deque

import pytest
from hypothesis import given, settings, strategies as st

from repro.exceptions import (
    ProtocolError,
    TransportClosedError,
    TransportTimeoutError,
    WireFormatError,
)
from repro.fabric import pack_control, unpack_control
from repro.twopc.transport import (
    FRAME_HEADER,
    MAX_FRAME_BYTES,
    AsyncTcpTransport,
    FrameAssembler,
    encode_frame,
)
from repro.twopc.wire import CONTROL_VERSION, ControlVerb

from oracles import pending_frames


def _stream_of(frames):
    return b"".join(encode_frame(frame) for frame in frames)


def _chop(data: bytes, cuts) -> list[bytes]:
    """Split *data* at the given positions (any order, duplicates allowed)."""
    positions = sorted({cut % (len(data) + 1) for cut in cuts} | {0, len(data)})
    return [data[a:b] for a, b in zip(positions, positions[1:])]


class TestFrameAssembler:
    @given(
        st.lists(st.binary(max_size=200), max_size=8),
        st.lists(st.integers(min_value=0, max_value=10_000), max_size=32),
    )
    @settings(max_examples=200, deadline=None)
    def test_frames_survive_any_split(self, frames, cuts):
        assembler = FrameAssembler()
        out = []
        for chunk in _chop(_stream_of(frames), cuts):
            out += assembler.feed(chunk)
        assert out == frames
        assert assembler.buffered_bytes() == 0

    def test_one_byte_at_a_time(self):
        frames = [b"", b"x", b"hello world", bytes(range(256))]
        assembler = FrameAssembler()
        out = []
        for byte in _stream_of(frames):
            out += assembler.feed(bytes([byte]))
        assert out == frames

    def test_boundary_straddling_chunk(self):
        # One chunk carries the tail of frame 1 and the head of frame 2.
        stream = _stream_of([b"aaaa", b"bbbb"])
        assembler = FrameAssembler()
        first = assembler.feed(stream[:6])
        assert first == []
        rest = assembler.feed(stream[6:10]) + assembler.feed(stream[10:])
        assert rest == [b"aaaa", b"bbbb"]

    def test_one_mebibyte_frame(self):
        big = bytes(range(256)) * 4096  # 1 MiB
        assembler = FrameAssembler()
        stream = _stream_of([big])
        out = []
        for start in range(0, len(stream), 64 * 1024 - 1):  # misaligned chunks
            out += assembler.feed(stream[start : start + 64 * 1024 - 1])
        assert out == [big]

    def test_hostile_length_prefix_rejected(self):
        assembler = FrameAssembler(max_frame_bytes=1024)
        with pytest.raises(WireFormatError):
            assembler.feed(FRAME_HEADER.pack(1 << 30, 0))

    def test_zero_length_frames(self):
        assembler = FrameAssembler()
        out = assembler.feed(_stream_of([b"", b"", b"payload", b""]))
        assert out == [b"", b"", b"payload", b""]
        assert assembler.buffered_bytes() == 0

    def test_frame_exactly_at_max_frame_bytes(self):
        limit = 1024
        exactly = bytes(limit)
        assembler = FrameAssembler(max_frame_bytes=limit)
        assert assembler.feed(_stream_of([exactly])) == [exactly]

    def test_frame_one_past_max_frame_bytes(self):
        limit = 1024
        assembler = FrameAssembler(max_frame_bytes=limit)
        with pytest.raises(WireFormatError):
            assembler.feed(FRAME_HEADER.pack(limit + 1, 0))

    def test_header_split_across_nine_one_byte_feeds(self):
        # The 8-byte header arrives one byte per feed; the ninth feed carries
        # the single payload byte.  No feed may deliver early or misparse.
        stream = _stream_of([b"z"])
        assert len(stream) == FRAME_HEADER.size + 1 == 9
        assembler = FrameAssembler()
        deliveries = [assembler.feed(bytes([byte])) for byte in stream]
        assert deliveries[:8] == [[]] * 8
        assert deliveries[8] == [b"z"]
        assert assembler.buffered_bytes() == 0

    def test_checksum_covers_length_and_payload(self):
        # u32 length ‖ u32 CRC32(length ‖ payload) ‖ payload, big-endian.
        frame = encode_frame(b"abc")
        assert frame == (
            b"\x00\x00\x00\x03"
            + zlib.crc32(b"\x00\x00\x00\x03abc").to_bytes(4, "big")
            + b"abc"
        )

    @given(
        st.lists(st.binary(max_size=64), min_size=1, max_size=6),
        st.lists(st.integers(min_value=0, max_value=10_000), max_size=12),
        st.data(),
    )
    @settings(max_examples=300, deadline=None)
    def test_any_single_bit_flip_is_refused(self, frames, cuts, data):
        """For any frames, write split and single bit flip: only a prefix of
        the original frames is delivered, and the damaged frame never is."""
        stream = _stream_of(frames)
        bit = data.draw(st.integers(min_value=0, max_value=len(stream) * 8 - 1))
        damaged = bytearray(stream)
        damaged[bit // 8] ^= 1 << (bit % 8)
        ends = [len(_stream_of(frames[: count + 1])) for count in range(len(frames))]
        hit = next(index for index, end in enumerate(ends) if bit // 8 < end)
        in_length_field = bit // 8 - (ends[hit - 1] if hit else 0) < 4
        assembler = FrameAssembler()
        delivered = []
        refused = False
        try:
            for chunk in _chop(bytes(damaged), cuts):
                delivered += assembler.feed(chunk)
        except WireFormatError:
            refused = True
        assert delivered == frames[: len(delivered)]
        assert len(delivered) <= hit
        # A flipped length bit may instead promise more bytes than ever
        # arrive: the frame stays incomplete, and the endpoint reports the
        # hangup that follows as a peer that closed mid-frame.
        assert refused or (in_length_field and assembler.buffered_bytes() > 0)


class TestFrameLayout:
    @pytest.mark.parametrize("size", [0, 1, 255, 256, 65_536, (1 << 20) + 3])
    def test_header_is_length_then_crc_of_length_and_payload(self, size):
        payload = (bytes(range(251)) * (size // 251 + 1))[:size]
        frame = encode_frame(payload)
        length, checksum = FRAME_HEADER.unpack_from(frame)
        assert FRAME_HEADER.size == 8
        assert frame[:4] == size.to_bytes(4, "big") and length == size
        assert checksum == zlib.crc32(frame[:4] + payload)
        assert frame[FRAME_HEADER.size :] == payload
        assert FrameAssembler().feed(frame) == [payload]


def _damaged(frame: bytes, offset: int, mask: int = 0x01) -> bytes:
    damaged = bytearray(frame)
    damaged[offset] ^= mask
    return bytes(damaged)


class TestFrameDamage:
    """Deterministic damage, field by field (the property is above)."""

    PAYLOAD = b"a registration body"

    @pytest.mark.parametrize(
        "offset", [4, 7, 8, -1], ids=["crc-first", "crc-last", "payload-first", "payload-last"]
    )
    def test_a_damaged_checksum_or_payload_byte_is_refused(self, offset):
        assembler = FrameAssembler()
        with pytest.raises(WireFormatError, match="CRC32"):
            assembler.feed(_damaged(encode_frame(self.PAYLOAD), offset))

    def test_a_shorter_length_is_refused(self):
        # The checksum covers the length, so a frame cut short by its own
        # header is refused rather than delivered truncated.
        frame = encode_frame(self.PAYLOAD)
        shorter = (len(self.PAYLOAD) - 1).to_bytes(4, "big") + frame[4:]
        with pytest.raises(WireFormatError, match="CRC32"):
            FrameAssembler().feed(shorter)

    def test_a_longer_length_swallows_the_next_frame_and_is_refused(self):
        frame = encode_frame(self.PAYLOAD)
        longer = (len(self.PAYLOAD) + 1).to_bytes(4, "big") + frame[4:]
        assembler = FrameAssembler()
        assert assembler.feed(longer) == []  # still waiting for one more byte
        assert assembler.buffered_bytes() == len(longer)
        with pytest.raises(WireFormatError, match="CRC32"):
            assembler.feed(encode_frame(b"next"))

    def test_a_refused_stream_stays_refused(self):
        # The assembler never resynchronises past damage onto later frames:
        # the link ends, and a replacement link starts a fresh stream.
        assembler = FrameAssembler()
        with pytest.raises(WireFormatError):
            assembler.feed(_damaged(encode_frame(b"first"), -1))
        for _ in range(3):
            with pytest.raises(WireFormatError):
                assembler.feed(encode_frame(b"intact"))

    def test_frames_of_earlier_feeds_are_kept_and_of_the_same_feed_dropped(self):
        good, bad = encode_frame(b"good"), _damaged(encode_frame(b"bad"), -1)
        assembler = FrameAssembler()
        assert assembler.feed(good) == [b"good"]
        with pytest.raises(WireFormatError):
            assembler.feed(good + bad)  # the second b"good" is dropped with it


class TestReceiveTimeouts:
    """The optional receive deadline: silent peers raise instead of hanging."""

    def test_async_receive_timeout_raises(self):
        async def scenario():
            server, provider, client = await _tcp_pair()()
            try:
                with pytest.raises(TransportTimeoutError) as raised:
                    await provider.receive("provider", timeout_seconds=0.05)
                assert isinstance(raised.value, ProtocolError)  # subclass contract
                # The per-call deadline does not poison the endpoint.
                await client.send("client", b"late but fine")
                assert await provider.receive("provider") == b"late but fine"
            finally:
                await client.aclose()
                await provider.aclose()
                server.close()
                await server.wait_closed()

        asyncio.run(scenario())

    def test_constructor_timeout_bounds_a_receive_without_deadline(self):
        async def scenario():
            server, provider, client = await _tcp_pair(timeout=0.05)()
            try:
                with pytest.raises(TransportTimeoutError):
                    await client.receive("client")
            finally:
                await client.aclose()
                await provider.aclose()
                server.close()
                await server.wait_closed()

        asyncio.run(scenario())

    def test_timeout_keeps_a_partial_frame(self):
        # Half a frame arrives, the receive times out, the rest arrives: the
        # assembler's buffer survives the timeout and the frame is intact.
        async def scenario():
            server, provider, client = await _tcp_pair()()
            try:
                stream = _stream_of([b"split across a timeout"])
                client._writer.write(stream[:7])
                await client._writer.drain()
                with pytest.raises(TransportTimeoutError):
                    await provider.receive("provider", timeout_seconds=0.05)
                client._writer.write(stream[7:])
                await client._writer.drain()
                assert await provider.receive("provider") == b"split across a timeout"
                assert provider.messages_by_sender["client"] == 1
            finally:
                await client.aclose()
                await provider.aclose()
                server.close()
                await server.wait_closed()

        asyncio.run(scenario())


def _tcp_pair(**kwargs):
    """A connected (server_transport, client_transport) pair on localhost."""

    async def build():
        accepted = asyncio.get_running_loop().create_future()

        async def on_connect(reader, writer):
            accepted.set_result(
                AsyncTcpTransport(reader, writer, local_party="provider", name="tcp-test")
            )
            await asyncio.Event().wait()  # keep the connection open

        server = await asyncio.start_server(on_connect, "127.0.0.1", 0)
        port = server.sockets[0].getsockname()[1]
        client = await AsyncTcpTransport.connect("127.0.0.1", port, **kwargs)
        return server, await accepted, client

    return build


class TestAsyncTcpTransport:
    def _run(self, coroutine):
        return asyncio.run(coroutine)

    def test_roundtrip_and_accounting(self):
        async def scenario():
            server, provider, client = await _tcp_pair()()
            try:
                await client.send("client", b"hello")
                assert await provider.receive("provider") == b"hello"
                await provider.send("provider", b"world!")
                assert await client.receive("client") == b"world!"
                # Each endpoint sees both directions in its ledger.
                assert client.bytes_by_sender == {"client": 5, "provider": 6}
                assert provider.bytes_by_sender == {"client": 5, "provider": 6}
                assert client.rounds() == provider.rounds() == 2
            finally:
                await client.aclose()
                await provider.aclose()
                server.close()
                await server.wait_closed()

        self._run(scenario())

    def test_frames_survive_one_byte_writes(self):
        async def scenario():
            accepted = asyncio.get_running_loop().create_future()

            async def on_connect(reader, writer):
                accepted.set_result(
                    AsyncTcpTransport(reader, writer, local_party="provider")
                )
                await asyncio.Event().wait()

            server = await asyncio.start_server(on_connect, "127.0.0.1", 0)
            port = server.sockets[0].getsockname()[1]
            # A raw writer that dribbles the frame one byte at a time.
            reader, writer = await asyncio.open_connection("127.0.0.1", port)
            provider = await accepted
            try:
                payload = bytes(range(256)) * 3
                for byte in encode_frame(payload):
                    writer.write(bytes([byte]))
                    await writer.drain()
                assert await provider.receive("provider") == payload
            finally:
                writer.close()
                await provider.aclose()
                server.close()
                await server.wait_closed()

        self._run(scenario())

    def test_one_mebibyte_frame(self):
        async def scenario():
            server, provider, client = await _tcp_pair()()
            big = bytes(range(256)) * 4096  # 1 MiB
            try:
                send = asyncio.create_task(client.send("client", big))
                received = await provider.receive("provider")
                await send
                assert received == big
                assert provider.bytes_by_sender["client"] == len(big)
            finally:
                await client.aclose()
                await provider.aclose()
                server.close()
                await server.wait_closed()

        self._run(scenario())

    def test_receive_on_closed_endpoint_raises_transport_closed(self):
        async def scenario():
            server, provider, client = await _tcp_pair()()
            try:
                await client.aclose()
                with pytest.raises(TransportClosedError):
                    await client.receive("client")
                with pytest.raises(TransportClosedError):
                    await client.send("client", b"late")
                # The peer sees the hangup as a closed transport, not OSError.
                with pytest.raises(TransportClosedError):
                    await provider.receive("provider")
            finally:
                await provider.aclose()
                server.close()
                await server.wait_closed()

        self._run(scenario())

    def test_remote_party_cannot_use_local_endpoint(self):
        async def scenario():
            server, provider, client = await _tcp_pair()()
            try:
                with pytest.raises(ProtocolError):
                    await client.send("provider", b"spoof")
                with pytest.raises(ProtocolError):
                    await provider.receive("client")
            finally:
                await client.aclose()
                await provider.aclose()
                server.close()
                await server.wait_closed()

        self._run(scenario())

    def test_two_frames_in_one_write(self):
        async def scenario():
            server, provider, client = await _tcp_pair()()
            try:
                client._writer.write(_stream_of([b"first", b"second"]))
                await client._writer.drain()
                assert await provider.receive("provider") == b"first"
                assert await provider.receive("provider") == b"second"
                assert provider.messages_by_sender["client"] == 2
            finally:
                await client.aclose()
                await provider.aclose()
                server.close()
                await server.wait_closed()

        self._run(scenario())

    def test_peer_hangup_mid_frame_raises_transport_closed(self):
        async def scenario():
            server, provider, client = await _tcp_pair()()
            try:
                client._writer.write(encode_frame(bytes(100))[:20])
                client._writer.write_eof()
                await client._writer.drain()
                with pytest.raises(TransportClosedError, match="mid-frame"):
                    await provider.receive("provider")
            finally:
                await client.aclose()
                await provider.aclose()
                server.close()
                await server.wait_closed()

        self._run(scenario())

    def test_clean_peer_close_raises_transport_closed(self):
        async def scenario():
            server, provider, client = await _tcp_pair()()
            try:
                await client.send("client", b"last words")
                await client.aclose()
                # Frames that arrived before the close are still delivered.
                assert await provider.receive("provider") == b"last words"
                with pytest.raises(TransportClosedError, match="peer closed$"):
                    await provider.receive("provider")
            finally:
                await provider.aclose()
                server.close()
                await server.wait_closed()

        self._run(scenario())

    def test_hostile_length_prefix_rejected(self):
        async def scenario():
            server, provider, client = await _tcp_pair()()
            try:
                client._writer.write(FRAME_HEADER.pack(MAX_FRAME_BYTES + 1, 0))
                await client._writer.drain()
                with pytest.raises(WireFormatError):
                    await provider.receive("provider")
            finally:
                await client.aclose()
                await provider.aclose()
                server.close()
                await server.wait_closed()

        self._run(scenario())

    def test_fifo_order_preserved_both_directions(self):
        async def scenario():
            server, provider, client = await _tcp_pair()()
            try:
                for index in range(20):
                    await client.send("client", bytes([index]))
                    await provider.send("provider", bytes([255 - index]))
                upstream = [await provider.receive("provider") for _ in range(20)]
                downstream = [await client.receive("client") for _ in range(20)]
                assert upstream == [bytes([index]) for index in range(20)]
                assert downstream == [bytes([255 - index]) for index in range(20)]
            finally:
                await client.aclose()
                await provider.aclose()
                server.close()
                await server.wait_closed()

        self._run(scenario())

    def test_large_frames_cross_in_both_directions(self):
        # Both sides send a frame far larger than a socket buffer before
        # either receives; concurrent sends and receives must not deadlock.
        async def scenario():
            server, provider, client = await _tcp_pair()()
            big = bytes(range(256)) * 4096  # 1 MiB
            try:
                sends = asyncio.gather(
                    client.send("client", big), provider.send("provider", big[::-1])
                )
                received = await asyncio.gather(
                    provider.receive("provider"), client.receive("client")
                )
                await sends
                assert received == [big, big[::-1]]
            finally:
                await client.aclose()
                await provider.aclose()
                server.close()
                await server.wait_closed()

        self._run(scenario())

    def test_pending_counts_assembled_frames(self):
        async def scenario():
            server, provider, client = await _tcp_pair()()
            try:
                assert pending_frames(provider) == 0
                client._writer.write(_stream_of([b"a", b"b", b"c"]))
                await client._writer.drain()
                assert await provider.receive("provider") == b"a"
                # One read assembled all three; two still wait in the inbox.
                assert pending_frames(provider) == 2
                assert [await provider.receive("provider") for _ in range(2)] == [b"b", b"c"]
                assert pending_frames(provider) == 0
            finally:
                await client.aclose()
                await provider.aclose()
                server.close()
                await server.wait_closed()

        self._run(scenario())

    def test_close_is_idempotent(self):
        async def scenario():
            server, provider, client = await _tcp_pair()()
            try:
                await client.aclose()
                await client.aclose()
                client.close()
                with pytest.raises(TransportClosedError):
                    await client.send("client", b"late")
            finally:
                await provider.aclose()
                server.close()
                await server.wait_closed()

        self._run(scenario())

    @given(
        st.lists(st.binary(max_size=300), min_size=1, max_size=6),
        st.lists(st.integers(min_value=0, max_value=10_000), max_size=12),
    )
    @settings(max_examples=15, deadline=None)
    def test_frames_survive_any_write_split(self, frames, cuts):
        async def scenario():
            server, provider, client = await _tcp_pair()()
            try:
                for chunk in _chop(_stream_of(frames), cuts):
                    client._writer.write(chunk)
                    await client._writer.drain()
                received = [await provider.receive("provider") for _ in frames]
                assert received == frames
                assert provider.bytes_by_sender["client"] == sum(map(len, frames))
                assert pending_frames(provider) == 0
            finally:
                await client.aclose()
                await provider.aclose()
                server.close()
                await server.wait_closed()

        self._run(scenario())

    def test_local_party_must_be_a_transport_party(self):
        async def scenario():
            server, provider, client = await _tcp_pair()()
            try:
                with pytest.raises(ProtocolError):
                    AsyncTcpTransport(client._reader, client._writer, local_party="mallory")
            finally:
                await client.aclose()
                await provider.aclose()
                server.close()
                await server.wait_closed()

        self._run(scenario())

    def test_bytes_like_payloads_are_sent_verbatim(self):
        async def scenario():
            server, provider, client = await _tcp_pair()()
            try:
                assert await client.send("client", bytearray(b"array")) == 5
                assert await client.send("client", memoryview(b"view")) == 4
                assert await provider.receive("provider") == b"array"
                assert await provider.receive("provider") == b"view"
                assert client.bytes_by_sender["client"] == 9
            finally:
                await client.aclose()
                await provider.aclose()
                server.close()
                await server.wait_closed()

        self._run(scenario())

    def test_a_damaged_frame_is_refused_at_the_endpoint(self):
        async def scenario():
            server, provider, client = await _tcp_pair()()
            try:
                await client.send("client", b"intact")
                assert await provider.receive("provider") == b"intact"
                damaged = bytearray(encode_frame(b"registration body"))
                damaged[-1] ^= 0x01
                client._writer.write(bytes(damaged))
                await client._writer.drain()
                with pytest.raises(WireFormatError, match="CRC32"):
                    await provider.receive("provider")
                assert provider.messages_by_sender["client"] == 1
            finally:
                await client.aclose()
                await provider.aclose()
                server.close()
                await server.wait_closed()

        self._run(scenario())

    def test_ten_thousand_frames_grow_no_endpoint_container(self):
        """A control link lives for days at ~13 frames/s each way, so an
        endpoint may keep counters but nothing that grows per frame."""

        def sizes(endpoint):
            found = {}
            for owner in (endpoint, endpoint._assembler):
                for name, value in vars(owner).items():
                    if isinstance(value, (list, tuple, dict, set, deque, bytearray)):
                        found[type(owner).__name__, name] = len(value)
            return found

        async def scenario():
            server, provider, client = await _tcp_pair()()
            try:
                before = sizes(client), sizes(provider)
                assert ("AsyncTcpTransport", "_inbound") in before[0]
                for index in range(5_000):
                    await client.send("client", index.to_bytes(4, "big"))
                    request = await provider.receive("provider")
                    await provider.send("provider", request)
                    assert await client.receive("client") == request
                assert client.total_messages() == provider.total_messages() == 10_000
                assert (sizes(client), sizes(provider)) == before
            finally:
                await client.aclose()
                await provider.aclose()
                server.close()
                await server.wait_closed()

        self._run(scenario())

    def test_send_after_peer_hangup_raises_transport_closed(self):
        # The first write after a hangup may still land in the socket buffer;
        # the peer's reset then surfaces as a closed transport, not OSError.
        async def scenario():
            server, provider, client = await _tcp_pair()()
            try:
                await provider.aclose()
                with pytest.raises(TransportClosedError):
                    for _ in range(200):
                        await client.send("client", bytes(1024))
                        await asyncio.sleep(0.01)
            finally:
                await client.aclose()
                server.close()
                await server.wait_closed()

        self._run(scenario())

    CONTROL_BODIES = {
        ControlVerb.HELLO: {"version": CONTROL_VERSION, "pid": 4242, "shard_index": 1},
        ControlVerb.COMMAND: {"seq": 3, "command": "burst", "payload": bytes(range(256)) * 64},
        ControlVerb.REPLY: (3, {"finished": [7, 8], "served": 2}),
        ControlVerb.HEARTBEAT: {},
        ControlVerb.METRICS: {"metrics": {"emails_served_total": 12.0}},
        ControlVerb.BYE: {},
    }

    @pytest.mark.parametrize(
        "verb", sorted(CONTROL_BODIES), ids=lambda verb: f"verb-{verb:#04x}"
    )
    def test_control_frames_cross_byte_exact(self, verb):
        # The control link sends ControlFrame bytes unchanged: the endpoint
        # adds only the 8-byte header and charges the frame's own length.
        raw = pack_control(verb, self.CONTROL_BODIES[verb])

        async def scenario():
            server, provider, client = await _tcp_pair()()
            try:
                await client.send("client", raw)
                received = await provider.receive("provider")
                await provider.send("provider", received)
                echoed = await client.receive("client")
                assert received == echoed == raw
                assert unpack_control(received) == (verb, self.CONTROL_BODIES[verb])
                assert provider.bytes_by_sender == {"client": len(raw), "provider": len(raw)}
            finally:
                await client.aclose()
                await provider.aclose()
                server.close()
                await server.wait_closed()

        self._run(scenario())
