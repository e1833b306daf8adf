"""TCP transport: round-trips, per-peer FIFO, reconnect with backoff.

Plain ``asyncio.run()`` drivers (no pytest-asyncio in the toolchain);
each test owns its loop and closes every transport it opened.
"""

import asyncio
import itertools
import random
import socket
import struct

import pytest

from repro.live.transport import (
    FrameDecoder,
    Transport,
    encode_frame,
    hello_frame,
    next_backoff,
    parse_hello,
)
from repro.net.message import NetMessage, encode_message


def message(src: int, dst: int, seq: int) -> NetMessage:
    return NetMessage(
        kind="test",
        module="abcast",
        src=src,
        dst=dst,
        payload=seq,
        payload_size=8,
        header_size=4,
    )


def free_port() -> int:
    with socket.socket() as sock:
        sock.bind(("127.0.0.1", 0))
        return sock.getsockname()[1]


async def read_until_hangup(reader) -> bytes:
    """Everything the transport writes until it closes the connection."""
    received = bytearray()
    try:
        while chunk := await asyncio.wait_for(reader.read(1024), 5.0):
            received += chunk
    except ConnectionResetError:
        pass  # a reset instead of EOF: bytes were still unread
    return bytes(received)


async def wait_for(predicate, timeout=5.0, poll=0.005):
    deadline = asyncio.get_running_loop().time() + timeout
    while not predicate():
        assert asyncio.get_running_loop().time() < deadline, "condition never held"
        await asyncio.sleep(poll)


def make_pair(addresses, received):
    """Two transports whose inbound messages land in ``received[pid]``."""
    return [
        Transport(pid, addresses, lambda m, pid=pid: received[pid].append(m))
        for pid in (0, 1)
    ]


class TestRoundtrip:
    def test_send_and_receive_both_directions(self):
        async def run():
            addresses = {0: ("127.0.0.1", free_port()), 1: ("127.0.0.1", free_port())}
            received = {0: [], 1: []}
            a, b = make_pair(addresses, received)
            await a.start()
            await b.start()
            try:
                a.send(message(0, 1, 1))
                b.send(message(1, 0, 2))
                await wait_for(lambda: received[1] and received[0])
            finally:
                await a.close()
                await b.close()
            assert received[1][0].payload == 1
            assert received[1][0].src == 0
            assert received[0][0].payload == 2
            assert a.stats.messages_sent == 1
            assert b.stats.messages_received == 1

        asyncio.run(run())

    def test_fifo_under_concurrent_sends(self):
        async def run():
            addresses = {0: ("127.0.0.1", free_port()), 1: ("127.0.0.1", free_port())}
            received = {0: [], 1: []}
            a, b = make_pair(addresses, received)
            await a.start()
            await b.start()
            total = 200
            try:
                # Interleave bursts with yields so sends race the writer
                # task instead of queueing up-front in one block.
                for seq in range(total):
                    a.send(message(0, 1, seq))
                    if seq % 10 == 0:
                        await asyncio.sleep(0)
                await wait_for(lambda: len(received[1]) == total)
            finally:
                await a.close()
                await b.close()
            assert [m.payload for m in received[1]] == list(range(total))

        asyncio.run(run())


class TestReconnect:
    def test_peer_that_starts_late_gets_the_backlog(self):
        async def run():
            addresses = {0: ("127.0.0.1", free_port()), 1: ("127.0.0.1", free_port())}
            received = {0: [], 1: []}
            a = Transport(
                0, addresses, received[0].append, initial_backoff=0.01, max_backoff=0.05
            )
            await a.start()
            try:
                for seq in range(5):
                    a.send(message(0, 1, seq))
                await asyncio.sleep(0.05)  # several failed dials
                assert a.pending_to(1) == 5
                b = Transport(1, addresses, received[1].append)
                await b.start()
                try:
                    await wait_for(lambda: len(received[1]) == 5)
                finally:
                    await b.close()
            finally:
                await a.close()
            assert [m.payload for m in received[1]] == list(range(5))

        asyncio.run(run())

    def test_restarted_peer_gets_queued_messages_in_order(self):
        async def run():
            addresses = {0: ("127.0.0.1", free_port()), 1: ("127.0.0.1", free_port())}
            received = {0: [], 1: []}
            a = Transport(
                0, addresses, received[0].append, initial_backoff=0.01, max_backoff=0.05
            )
            b = Transport(1, addresses, received[1].append)
            await a.start()
            await b.start()
            try:
                a.send(message(0, 1, 0))
                await wait_for(lambda: received[1])
                await b.close()  # the peer dies

                for seq in range(1, 6):
                    a.send(message(0, 1, seq))
                await asyncio.sleep(0.05)  # writes fail, frames stay queued

                b2 = Transport(1, addresses, received[1].append)
                await b2.start()
                try:
                    await wait_for(lambda: len(received[1]) >= 6)
                finally:
                    await b2.close()
            finally:
                await a.close()
            # Exactly-once and in order across the outage: the resume
            # point told the sender where to restart, the ack protocol
            # kept unacked frames queued.
            assert [m.payload for m in received[1]] == list(range(6))
            assert a.stats.reconnects >= 1

        asyncio.run(run())

    def test_exactly_once_across_consecutive_reconnects(self):
        """Two receiver restarts in a row, resume points carried across.

        Each incarnation snapshots ``delivered_counts()`` (what the
        worker's WAL checkpoint persists) and the next one starts from
        it — so across two consecutive outages with traffic queued
        during each, the stream stays exactly-once and in order.
        """

        async def run():
            addresses = {0: ("127.0.0.1", free_port()), 1: ("127.0.0.1", free_port())}
            received = {0: [], 1: []}
            a = Transport(
                0, addresses, received[0].append, initial_backoff=0.01, max_backoff=0.05
            )
            await a.start()
            seq = 0
            resume = {}
            try:
                for outage in range(2):
                    b = Transport(
                        1, addresses, received[1].append, resume_points=resume
                    )
                    await b.start()
                    for __ in range(3):
                        a.send(message(0, 1, seq))
                        seq += 1
                    await wait_for(lambda: len(received[1]) == seq)
                    resume = b.delivered_counts()
                    await b.close()  # outage: frames sent now stay queued
                    for __ in range(2):
                        a.send(message(0, 1, seq))
                        seq += 1
                    await asyncio.sleep(0.03)
                b = Transport(1, addresses, received[1].append, resume_points=resume)
                await b.start()
                try:
                    await wait_for(lambda: len(received[1]) == seq)
                    await asyncio.sleep(0.05)  # no late duplicates either
                finally:
                    await b.close()
            finally:
                await a.close()
            assert [m.payload for m in received[1]] == list(range(seq))

        asyncio.run(run())

    def test_mid_frame_outage_does_not_lose_or_duplicate(self):
        """The connection dies with a torn length-prefix on the wire.

        A raw accept loop plays the receiver: it completes the HELLO /
        resume-point handshake, reads half a frame, and disconnects
        without ever acking. A real transport then takes over the same
        port; the sender must retransmit from the resume point — the
        torn frame arrives exactly once, nothing is skipped.
        """

        async def run():
            port = free_port()
            addresses = {0: ("127.0.0.1", free_port()), 1: ("127.0.0.1", port)}
            received = {0: [], 1: []}
            half_read = asyncio.Event()

            async def flaky_receiver(reader, writer):
                decoder = FrameDecoder()
                data = await reader.read(64 * 1024)
                frames = decoder.feed(data)
                assert frames, "expected the HELLO first"
                parse_hello(frames[0])
                writer.write(struct.pack(">Q", 0))  # resume point: nothing yet
                await writer.drain()
                # Read a few bytes — at most half the first data frame,
                # cutting it inside the 4-byte length prefix or body —
                # then drop the connection without acking.
                while decoder.pending_bytes < 2:
                    chunk = await reader.read(2)
                    if not chunk:
                        break
                    decoder.feed(chunk)
                writer.close()
                half_read.set()

            flaky = await asyncio.start_server(flaky_receiver, "127.0.0.1", port)
            a = Transport(
                0, addresses, received[0].append, initial_backoff=0.01, max_backoff=0.05
            )
            await a.start()
            try:
                for seq in range(4):
                    a.send(message(0, 1, seq))
                await asyncio.wait_for(half_read.wait(), 5.0)
                flaky.close()
                await flaky.wait_closed()
                b = Transport(1, addresses, received[1].append)
                await b.start()
                try:
                    await wait_for(lambda: len(received[1]) == 4)
                finally:
                    await b.close()
            finally:
                await a.close()
            assert [m.payload for m in received[1]] == [0, 1, 2, 3]

        asyncio.run(run())

    def test_restarted_sender_incarnation_is_not_resumed_at_old_count(self):
        """A fresh endpoint at an old address starts its stream at zero.

        Without the incarnation nonce the receiver would answer the new
        sender with the dead incarnation's delivered count, and the new
        stream's first messages would be silently swallowed (the
        restarted worker could then never ask for state transfer).
        """

        async def run():
            addresses = {0: ("127.0.0.1", free_port()), 1: ("127.0.0.1", free_port())}
            received = {0: [], 1: []}
            b = Transport(1, addresses, received[1].append)
            await b.start()
            a = Transport(0, addresses, received[0].append)
            await a.start()
            try:
                for seq in range(3):
                    a.send(message(0, 1, seq))
                await wait_for(lambda: len(received[1]) == 3)
                await a.close()  # the sender process dies...
                a2 = Transport(  # ...and restarts: new incarnation
                    0, addresses, received[0].append,
                    initial_backoff=0.01, max_backoff=0.05,
                )
                assert a2.nonce != a.nonce
                await a2.start()
                try:
                    a2.send(message(0, 1, 100))
                    await wait_for(lambda: len(received[1]) == 4)
                finally:
                    await a2.close()
            finally:
                await b.close()
            assert [m.payload for m in received[1]] == [0, 1, 2, 100]
            # The receiver's count was reset for the new incarnation.
            nonce, count = b.delivered_counts()[0]
            assert nonce == a2.nonce
            assert count == 1

        asyncio.run(run())

    def test_wal_resume_points_skip_already_delivered_frames(self):
        """A restarted receiver answers with its persisted resume point."""

        async def run():
            addresses = {0: ("127.0.0.1", free_port()), 1: ("127.0.0.1", free_port())}
            received = {0: [], 1: []}
            b = Transport(1, addresses, received[1].append)
            await b.start()
            a = Transport(
                0, addresses, received[0].append, initial_backoff=0.01, max_backoff=0.05
            )
            await a.start()
            try:
                for seq in range(3):
                    a.send(message(0, 1, seq))
                await wait_for(lambda: len(received[1]) == 3)
                snapshot = b.delivered_counts()  # what the WAL would hold
                await b.close()  # the receiver process dies
                for seq in range(3, 5):
                    a.send(message(0, 1, seq))  # queued during the outage
                b2 = Transport(
                    1, addresses, received[1].append, resume_points=snapshot
                )
                await b2.start()
                try:
                    await wait_for(lambda: len(received[1]) == 5)
                    # Nothing the first incarnation already delivered is
                    # replayed into the restarted endpoint.
                    await asyncio.sleep(0.05)
                finally:
                    await b2.close()
            finally:
                await a.close()
            assert [m.payload for m in received[1]] == [0, 1, 2, 3, 4]

        asyncio.run(run())


class TestBackoff:
    def test_next_backoff_stays_within_decorrelated_jitter_bounds(self):
        rng = random.Random(42)
        initial, cap = 0.05, 1.0
        previous = initial
        for __ in range(200):
            nxt = next_backoff(rng, initial, previous, cap)
            assert initial <= nxt <= min(cap, max(initial, previous * 3.0))
            previous = nxt

    def test_backoff_is_capped(self):
        rng = random.Random(7)
        value = 0.05
        for __ in range(50):
            value = next_backoff(rng, 0.05, value, 1.0)
            assert value <= 1.0

    def test_two_seeded_streams_decorrelate(self):
        """Peers redialing after one partition must not march in step."""
        a, b = random.Random(1), random.Random(2)
        seq_a, seq_b = [], []
        prev_a = prev_b = 0.05
        for __ in range(10):
            prev_a = next_backoff(a, 0.05, prev_a, 1.0)
            prev_b = next_backoff(b, 0.05, prev_b, 1.0)
            seq_a.append(prev_a)
            seq_b.append(prev_b)
        assert seq_a != seq_b


class TestFaultHooks:
    def test_hold_and_release(self):
        async def run():
            addresses = {0: ("127.0.0.1", free_port()), 1: ("127.0.0.1", free_port())}
            received = {0: [], 1: []}
            a, b = make_pair(addresses, received)
            await a.start()
            await b.start()
            try:
                a.hold_links({1})
                for seq in range(3):
                    a.send(message(0, 1, seq))
                await asyncio.sleep(0.05)
                assert received[1] == []  # held, not lost
                assert a.pending_to(1) == 3
                a.release_links({1})
                await wait_for(lambda: len(received[1]) == 3)
            finally:
                await a.close()
                await b.close()
            assert [m.payload for m in received[1]] == [0, 1, 2]

        asyncio.run(run())

    def test_drop_discards_and_undrop_restores(self):
        async def run():
            addresses = {0: ("127.0.0.1", free_port()), 1: ("127.0.0.1", free_port())}
            received = {0: [], 1: []}
            a, b = make_pair(addresses, received)
            await a.start()
            await b.start()
            try:
                a.drop_links({1})
                a.send(message(0, 1, 0))
                a.undrop_links({1})
                a.send(message(0, 1, 1))
                await wait_for(lambda: received[1])
            finally:
                await a.close()
                await b.close()
            assert [m.payload for m in received[1]] == [1]
            assert a.stats.messages_dropped == 1

        asyncio.run(run())

    def test_congested_signals_at_the_unacked_cap(self):
        async def run():
            addresses = {0: ("127.0.0.1", free_port()), 1: ("127.0.0.1", free_port())}
            received = {0: [], 1: []}
            a = Transport(0, addresses, received[0].append, max_unacked=4)
            b = Transport(1, addresses, received[1].append)
            await a.start()
            await b.start()
            try:
                assert not a.congested
                a.hold_links({1})  # a slow consumer, in effect
                for seq in range(4):
                    a.send(message(0, 1, seq))
                assert a.congested  # at the cap: stop offering load
                a.release_links({1})
                await wait_for(lambda: len(received[1]) == 4)
                await wait_for(lambda: not a.congested)
            finally:
                await a.close()
                await b.close()

        asyncio.run(run())


class TestHandoff:
    """The direct path and the writer task share one send cursor.

    Each phase streams frames (sends interleaved with loop turns, so
    ``send()`` writes them itself), switches the link to another path
    mid-stream and back. Whatever the interleaving, the receiver must
    see every queued frame exactly once and in order: a writer task
    resuming from a cursor of its own would re-send the frames the
    direct path already wrote.
    """

    def test_every_path_switch_keeps_the_stream_exactly_once(self):
        async def run():
            addresses = {0: ("127.0.0.1", free_port()), 1: ("127.0.0.1", free_port())}
            received = {0: [], 1: []}
            a = Transport(
                0, addresses, received[0].append,
                initial_backoff=0.01, max_backoff=0.05, rng=random.Random(3),
            )
            b = Transport(1, addresses, received[1].append)
            await a.start()
            await b.start()
            counter = itertools.count()
            expected = []

            async def stream(count):
                for __ in range(count):
                    seq = next(counter)
                    a.send(message(0, 1, seq))
                    expected.append(seq)
                    await asyncio.sleep(0)

            async def settle():
                await wait_for(lambda: len(received[1]) >= len(expected))
                assert [m.payload for m in received[1]] == expected
                await wait_for(lambda: a.unacked_to(1) == 0)

            try:
                await stream(20)
                await settle()

                await stream(10)
                a.hold_links({1})
                await stream(10)
                assert a.unacked_to(1) >= 10  # held frames stay queued
                a.release_links({1})
                await stream(10)
                await settle()

                await stream(10)
                a.set_link_delay({1}, 0.002, 0.002)
                await stream(10)
                a.clear_link_delay({1})
                await stream(10)
                await settle()

                await stream(5)
                a.drop_links({1})
                a.send(message(0, 1, -1))  # discarded, never queued
                a.undrop_links({1})
                await stream(5)
                await settle()

                await stream(10)
                a._links[1].abort()  # the connection resets mid-stream
                await stream(10)
                await settle()
                assert a.stats.reconnects >= 1
            finally:
                await a.close()
                await b.close()
            assert [m.payload for m in received[1]] == expected
            assert a.stats.messages_dropped == 1

        asyncio.run(run())

    def test_malformed_frame_closes_only_that_connection(self):
        async def run():
            loop = asyncio.get_running_loop()
            errors = []
            loop.set_exception_handler(lambda __, context: errors.append(context))
            addresses = {0: ("127.0.0.1", free_port()), 1: ("127.0.0.1", free_port())}
            received = {0: [], 1: []}
            a, b = make_pair(addresses, received)
            await a.start()
            await b.start()
            try:
                a.send(message(0, 1, 0))
                await wait_for(lambda: received[1])
                for garbage in (
                    [encode_frame(b"not a hello")],
                    [encode_frame(b'{"v":1,"hello":2}'), encode_frame(b"{not json")],
                    [struct.pack(">I", 2**31)],  # length prefix over the cap
                ):
                    reader, writer = await asyncio.open_connection(*addresses[1])
                    for frame in garbage:
                        writer.write(frame)
                    await writer.drain()
                    await read_until_hangup(reader)
                    writer.close()
                a.send(message(0, 1, 1))
                await wait_for(lambda: len(received[1]) == 2)
            finally:
                await a.close()
                await b.close()
            assert [m.payload for m in received[1]] == [0, 1]
            assert errors == []
            assert a.stats.reconnects == 0  # the healthy connection survived

        asyncio.run(run())


class TestEncodeOnce:
    def test_send_to_all_encodes_the_payload_once(self, monkeypatch):
        from repro.consensus.messages import Ack
        from repro.live.runtime import LiveRuntime
        from repro.net import message as message_module
        from repro.stack.actions import SendToAll
        from repro.stack.module import Microprotocol, ModuleContext

        class Broadcaster(Microprotocol):
            name = "consensus"

            def handle_event(self, event):
                return [SendToAll("ACK", Ack(instance=1, round=1), 24)]

        calls = []
        real = message_module.encode_value
        monkeypatch.setattr(
            message_module, "encode_value", lambda v: calls.append(v) or real(v)
        )
        n = 4
        addresses = {pid: ("127.0.0.1", 1) for pid in range(n)}
        transport = Transport(0, addresses, lambda m: None)  # never started
        ctx = ModuleContext(pid=0, n=n, suspects=lambda: frozenset())
        runtime = LiveRuntime(0, n, [Broadcaster(ctx)], transport)
        runtime.inject(object())
        assert transport.stats.messages_sent == n - 1
        assert [transport.unacked_to(peer) for peer in (1, 2, 3)] == [1, 1, 1]
        assert len(calls) == 1


class TestPeerIdentity:
    """A connection speaks for exactly one other group member.

    A HELLO naming a non-member or the receiver itself gets no resume
    point and leaves no entry in ``delivered_counts()``; a frame whose
    ``src``/``dst`` does not match the connection is not delivered.
    Either way only that connection closes: the healthy link keeps its
    stream.
    """

    @pytest.mark.parametrize(
        "case",
        ["hello-non-member", "hello-self", "frame-wrong-src", "frame-wrong-dst"],
    )
    def test_impostor_connection_is_closed(self, case):
        async def run():
            loop = asyncio.get_running_loop()
            errors = []
            loop.set_exception_handler(lambda __, context: errors.append(context))
            # p2 is a group member that never starts; the impostor
            # connections that pass the HELLO check claim to be p2.
            addresses = {pid: ("127.0.0.1", free_port()) for pid in range(3)}
            received = {0: [], 1: []}
            a, b = make_pair(addresses, received)
            await a.start()
            await b.start()
            try:
                a.send(message(0, 1, 0))
                await wait_for(lambda: received[1])
                raw = {
                    "hello-non-member": [hello_frame(7, 1)],
                    "hello-self": [hello_frame(1, 1)],
                    "frame-wrong-src": [hello_frame(2, 1), encode_message(message(0, 1, 99))],
                    "frame-wrong-dst": [hello_frame(2, 1), encode_message(message(2, 0, 99))],
                }[case]
                reader, writer = await asyncio.open_connection(*addresses[1])
                writer.write(b"".join(encode_frame(frame) for frame in raw))
                await writer.drain()
                answer = await read_until_hangup(reader)
                writer.close()
                a.send(message(0, 1, 1))
                await wait_for(lambda: len(received[1]) == 2)
                await wait_for(lambda: a.unacked_to(1) == 0)
            finally:
                await a.close()
                await b.close()
            assert [m.payload for m in received[1]] == [0, 1]
            assert errors == []
            assert a.stats.reconnects == 0  # the healthy connection survived
            counts = b.delivered_counts()
            assert set(counts) <= {0, 2}
            if case.startswith("hello"):
                assert answer == b""  # no resume point for an impostor
                assert 2 not in counts
            else:
                # The HELLO was accepted (resume point 0), no frame was.
                assert answer == struct.pack(">Q", 0)
                assert counts[2] == (1, 0)

        asyncio.run(run())


class TestBufferedReceive:
    """Reads land in a fixed per-connection buffer; frames and counts
    that straddle reads are reassembled."""

    def test_frame_larger_than_the_receive_buffer_arrives_and_is_acked(self):
        async def run():
            addresses = {0: ("127.0.0.1", free_port()), 1: ("127.0.0.1", free_port())}
            received = {0: [], 1: []}
            a, b = make_pair(addresses, received)
            await a.start()
            await b.start()
            blob = random.Random(5).randbytes(256 * 1024)
            try:
                a.send(message(0, 1, 0))
                a.send(
                    NetMessage(
                        kind="test", module="abcast", src=0, dst=1,
                        payload=blob, payload_size=len(blob), header_size=4,
                    )
                )
                a.send(message(0, 1, 2))
                await wait_for(lambda: len(received[1]) == 3)
                await wait_for(lambda: a.unacked_to(1) == 0)
            finally:
                await a.close()
                await b.close()
            assert [m.payload for m in received[1]] == [0, blob, 2]
            assert b.delivered_counts()[0] == (a.nonce, 3)

        asyncio.run(run())

    def test_stream_written_one_byte_at_a_time(self):
        async def run():
            addresses = {0: ("127.0.0.1", free_port()), 1: ("127.0.0.1", free_port())}
            received = []
            b = Transport(1, addresses, received.append)
            await b.start()
            try:
                reader, writer = await asyncio.open_connection(*addresses[1])
                writer.get_extra_info("socket").setsockopt(
                    socket.IPPROTO_TCP, socket.TCP_NODELAY, 1
                )
                stream = encode_frame(hello_frame(0, 42)) + b"".join(
                    encode_frame(encode_message(message(0, 1, seq))) for seq in range(3)
                )
                for index in range(len(stream)):
                    writer.write(stream[index : index + 1])
                    await writer.drain()
                    for __ in range(2):  # let the receiver read this byte alone
                        await asyncio.sleep(0)
                counts = []
                acked = bytearray()
                while not counts or counts[-1] < 3:
                    acked += await asyncio.wait_for(reader.read(1024), 5.0)
                    whole = len(acked) - len(acked) % 8
                    counts = [
                        struct.unpack_from(">Q", acked, at)[0] for at in range(0, whole, 8)
                    ]
                writer.close()
                await asyncio.sleep(0.02)  # no late duplicates either
            finally:
                await b.close()
            assert [m.payload for m in received] == [0, 1, 2]
            assert counts[0] == 0  # the resume point
            assert counts == sorted(counts)
            assert counts[-1] == 3
            assert b.delivered_counts() == {0: (42, 3)}

        asyncio.run(run())

    def test_count_split_across_writes_is_applied_once_complete(self):
        async def run():
            port = free_port()
            addresses = {0: ("127.0.0.1", free_port()), 1: ("127.0.0.1", port)}
            frames_in = asyncio.Queue()
            connected = asyncio.Event()
            writers = []

            async def raw_receiver(reader, writer):
                writers.append(writer)
                writer.get_extra_info("socket").setsockopt(
                    socket.IPPROTO_TCP, socket.TCP_NODELAY, 1
                )
                decoder = FrameDecoder()
                while chunk := await reader.read(64 * 1024):
                    for frame in decoder.feed(chunk):
                        if not connected.is_set():
                            parse_hello(frame)
                            writer.write(struct.pack(">Q", 0))  # resume point
                            connected.set()
                        else:
                            frames_in.put_nowait(frame)

            server = await asyncio.start_server(raw_receiver, "127.0.0.1", port)
            a = Transport(0, addresses, lambda m: None)
            await a.start()
            try:
                await asyncio.wait_for(connected.wait(), 5.0)
                for seq in range(300):
                    a.send(message(0, 1, seq))
                for __ in range(300):
                    await asyncio.wait_for(frames_in.get(), 5.0)
                count = struct.pack(">Q", 3)
                for piece in (count[:3], count[3:6]):
                    writers[0].write(piece)
                    await writers[0].drain()
                    await asyncio.sleep(0.02)
                    assert a.unacked_to(1) == 300  # a partial count acks nothing
                writers[0].write(count[6:])
                await wait_for(lambda: a.unacked_to(1) == 297)
                # A whole count, then count 258 (0x0102) cut after its
                # seventh byte: the partial kept across reads holds a
                # non-zero byte, so one that is lost or overwritten reads
                # as the wrong count. 258 < 300 keeps the cap from hiding it.
                stream = struct.pack(">QQ", 4, 258)
                writers[0].write(stream[:15])
                await writers[0].drain()
                await wait_for(lambda: a.unacked_to(1) == 296)
                await asyncio.sleep(0.02)
                assert a.unacked_to(1) == 296  # the partial 258 acks nothing
                writers[0].write(stream[15:])
                await wait_for(lambda: a.unacked_to(1) == 42)
                await asyncio.sleep(0.02)
                assert a.unacked_to(1) == 42
            finally:
                await a.close()
                server.close()
                for writer in writers:
                    writer.close()
                await server.wait_closed()

        asyncio.run(run())
