"""Asyncio TCP transport: framing, per-peer FIFO streams, reconnect.

Mirrors the channel model the stacks assume (and the simulator's
:class:`~repro.net.network.Network` provides): quasi-reliable FIFO
channels between every pair of processes, as TCP gives the paper's
Fortika testbed.

Topology: every process listens on one TCP port and additionally dials
one *outgoing* connection per peer, used exclusively for its own sends
to that peer. Inbound connections are receive-only.

Sending: frames join a per-peer queue, and :meth:`Transport._pump`, the
only code that writes them, advances one per-peer send cursor. In
steady state ``send()`` pumps directly: one socket write per frame. The
per-peer writer task only dials, replays the backlog after the
HELLO/resume handshake or a HOLD release, and paces delay spikes.
Receiving: each connection is an :class:`asyncio.BufferedProtocol`
that owns one preallocated receive buffer; the event loop reads into it
and ``buffer_updated`` parses, delivers and acks the frames of each read.

Framing: each frame is a 4-byte big-endian length prefix followed by
the body (see :func:`encode_frame` / :class:`FrameDecoder`; the decoder
is a plain incremental parser so framing is testable without sockets).
The first frame on every outgoing connection is a HELLO identifying the
dialing process and the wire-format version; everything after is an
encoded :class:`~repro.net.message.NetMessage`.

Failure handling: a failed dial or a broken connection triggers
reconnection with exponential backoff (capped). Delivery is exactly-once
and in-order across reconnects, via a cumulative-ack protocol layered on
the per-peer stream: the receiver answers every HELLO with the number of
frames it has delivered from that peer (the *resume point*) and streams
cumulative acks back as frames arrive; the sender dequeues a frame only
once acked and, after reconnecting, resumes transmission exactly at the
receiver's resume point. TCP alone cannot give this — a write into a
connection whose peer already vanished "succeeds" into the socket
buffer — which is why the ack layer exists. An outage therefore delays
messages rather than dropping or duplicating them, the quasi-reliable
FIFO channel the protocol stacks assume.
"""

from __future__ import annotations

import asyncio
import itertools
import json
import os
import random
import struct
from collections import deque
from typing import Callable

from repro.errors import NetworkError
from repro.net.message import NetMessage, decode_message, encode_message
from repro.net.wire import WIRE_FORMAT_VERSION, check_version

#: Refuse frames bigger than this (a corrupt length prefix otherwise
#: asks the decoder to buffer gigabytes).
MAX_FRAME_SIZE = 64 * 1024 * 1024

_LENGTH = struct.Struct(">I")

#: Cumulative frame counts exchanged by the ack protocol.
_COUNT = struct.Struct(">Q")

#: Receive buffer of each inbound connection, allocated once and reused
#: for every read. A fresh buffer per read (asyncio's default, 256 KiB)
#: makes each read's cost depend on glibc's dynamic mmap threshold; 64 KiB
#: also stays below its default 128 KiB. Larger frames span several reads.
_RECV_BUFFER = 64 * 1024

#: Receive buffer of each outbound connection, which only reads the
#: receiver's 8-byte cumulative counts.
_ACK_BUFFER = 32 * _COUNT.size

#: Callback invoked with every decoded protocol message.
MessageHandler = Callable[[NetMessage], None]

#: ``REPRO_LIVE_TRACE=1`` narrates connection/handshake events on
#: stderr (same switch as the worker's recovery trace).
_TRACE = bool(os.environ.get("REPRO_LIVE_TRACE"))


def _trace(pid: int, text: str) -> None:
    if _TRACE:
        import sys
        import time

        print(
            f"[transport {pid} t={time.monotonic():.3f}] {text}",
            file=sys.stderr,
            flush=True,
        )


def next_backoff(
    rng: random.Random, initial: float, previous: float, cap: float
) -> float:
    """Decorrelated-jitter reconnect backoff.

    Draws the next delay uniformly from ``[initial, 3 * previous]``,
    capped at *cap* — the "decorrelated jitter" strategy. Unlike plain
    doubling, two peers cut off by the same partition draw different
    delays and do not redial in lockstep when it heals (a reconnection
    storm every ``initial * 2^k`` seconds); unlike full jitter, the
    expected delay still grows geometrically while the outage lasts.
    """
    return min(cap, rng.uniform(initial, max(initial, previous * 3.0)))


def encode_frame(body: bytes) -> bytes:
    """Length-prefix *body* for the stream."""
    if len(body) > MAX_FRAME_SIZE:
        raise NetworkError(f"frame of {len(body)} bytes exceeds {MAX_FRAME_SIZE}")
    return _LENGTH.pack(len(body)) + body


class FrameDecoder:
    """Incremental frame parser tolerant of split and coalesced reads.

    TCP is a byte stream: one ``read()`` may return half a frame or
    twelve frames and a half. Feed whatever arrives; complete frames
    come out, the remainder stays buffered.
    """

    def __init__(self, max_frame: int = MAX_FRAME_SIZE) -> None:
        self._buffer = bytearray()
        self._max_frame = max_frame

    def feed(self, data: bytes | memoryview) -> list[bytes]:
        """Absorb *data*; return every frame it completed, in order.

        *data* is copied, so the caller may reuse its buffer.
        """
        self._buffer.extend(data)
        frames: list[bytes] = []
        while len(self._buffer) >= _LENGTH.size:
            (length,) = _LENGTH.unpack_from(self._buffer)
            if length > self._max_frame:
                raise NetworkError(
                    f"incoming frame of {length} bytes exceeds {self._max_frame}"
                )
            if len(self._buffer) < _LENGTH.size + length:
                break
            start = _LENGTH.size
            frames.append(bytes(self._buffer[start : start + length]))
            del self._buffer[: start + length]
        return frames

    @property
    def pending_bytes(self) -> int:
        """Bytes buffered waiting for the rest of a frame."""
        return len(self._buffer)


def hello_frame(pid: int, nonce: int = 0) -> bytes:
    """The identification frame opening every outgoing connection.

    *nonce* identifies the sending endpoint's *incarnation*: it is drawn
    once per Transport construction, so every connection from one
    process lifetime carries the same nonce, and a restarted process
    (crash recovery) presents a new one. The receiver uses a nonce
    change to reset its delivered-frame count — the new incarnation's
    outbound stream starts over at frame zero, and resuming it at the
    predecessor's count would silently swallow its first messages.
    """
    return json.dumps(
        {"v": WIRE_FORMAT_VERSION, "hello": pid, "nonce": nonce}
    ).encode("utf-8")


def parse_hello(frame: bytes) -> tuple[int, int]:
    """Validate a HELLO frame; returns (dialing pid, incarnation nonce)."""
    try:
        document = json.loads(frame.decode("utf-8"))
        check_version(document.get("v"))
        return int(document["hello"]), int(document.get("nonce", 0))
    except (UnicodeDecodeError, json.JSONDecodeError, KeyError, ValueError) as exc:
        raise NetworkError(f"malformed transport HELLO: {exc}") from exc


class TransportStats:
    """Mutable per-transport counters (schema mirrors NetworkStats)."""

    def __init__(self) -> None:
        self.messages_sent = 0
        self.bytes_sent = 0
        self.payload_bytes_sent = 0
        self.messages_received = 0
        self.reconnects = 0
        self.messages_dropped = 0

    def snapshot(self) -> dict:
        """A plain-dict copy for control-channel reporting."""
        return dict(vars(self))


class _Inbound(asyncio.BufferedProtocol):
    """One receive-only connection: HELLO, then frames to deliver."""

    def __init__(self, endpoint: Transport) -> None:
        self._endpoint = endpoint
        self._decoder = FrameDecoder()
        self._peer: int | None = None
        self._view = memoryview(bytearray(_RECV_BUFFER))

    def connection_made(self, transport: asyncio.BaseTransport) -> None:
        self._link = transport  # type: ignore[assignment]
        self._endpoint._inbound.add(self._link)

    def connection_lost(self, exc: Exception | None) -> None:
        self._endpoint._inbound.discard(self._link)

    def get_buffer(self, sizehint: int) -> memoryview:
        return self._view

    def buffer_updated(self, nbytes: int) -> None:
        endpoint = self._endpoint
        try:
            frames = self._decoder.feed(self._view[:nbytes])
            if self._peer is None and frames:
                self._greet(frames.pop(0))
            if not frames:
                return
            peer = self._peer
            pid = endpoint.pid
            delivered = endpoint._delivered
            for frame in frames:
                message = decode_message(frame)
                if message.src != peer or message.dst != pid:
                    raise NetworkError(
                        f"frame {message.src}->{message.dst} on the p{peer} "
                        f"connection to p{pid}"
                    )
                delivered[peer] += 1
                endpoint.stats.messages_received += 1
                endpoint._on_message(message)
            # One cumulative ack per read chunk, not per frame.
            self._link.write(_COUNT.pack(delivered[peer]))
        except NetworkError as exc:
            _trace(endpoint.pid, f"dropping inbound connection: {exc}")
            self._link.close()

    def _greet(self, frame: bytes) -> None:
        endpoint = self._endpoint
        peer, nonce = parse_hello(frame)
        if peer not in endpoint._queues:  # this process, or not in the group
            raise NetworkError(f"HELLO from p{peer}, not a peer of p{endpoint.pid}")
        if endpoint._peer_nonce.get(peer) != nonce:
            # New peer incarnation (first contact, or a crash-recovered
            # restart): its stream starts over at frame zero. The
            # recovered stack layer dedups re-sent messages.
            endpoint._peer_nonce[peer] = nonce
            endpoint._delivered[peer] = 0
        _trace(endpoint.pid, f"inbound hello from p{peer}: resume={endpoint._delivered[peer]}")
        self._peer = peer
        # Resume point: how many of this incarnation's frames were
        # already delivered (over any connection).
        self._link.write(_COUNT.pack(endpoint._delivered[peer]))


class _Outbound(asyncio.BufferedProtocol):
    """One send-only connection: HELLO out, delivered counts back."""

    def __init__(self, endpoint: Transport, peer: int) -> None:
        self._endpoint = endpoint
        self._peer = peer
        self._view = memoryview(bytearray(_ACK_BUFFER))
        #: Bytes of a partial count kept at the front of the buffer.
        self._filled = 0

    def connection_made(self, transport: asyncio.BaseTransport) -> None:
        self.link = transport  # type: ignore[assignment]
        endpoint = self._endpoint
        self.link.write(encode_frame(hello_frame(endpoint.pid, endpoint.nonce)))

    def get_buffer(self, sizehint: int) -> memoryview:
        return self._view[self._filled :]

    def buffer_updated(self, nbytes: int) -> None:
        view = self._view
        total = self._filled + nbytes
        self._filled = total % _COUNT.size
        whole = total - self._filled
        if whole:
            # Counts are cumulative: the last whole one says it all.
            (count,) = _COUNT.unpack_from(view, whole - _COUNT.size)
            view[: self._filled] = view[whole:total]
            self._endpoint._on_count(self._peer, self.link, count)

    def connection_lost(self, exc: Exception | None) -> None:
        endpoint = self._endpoint
        if endpoint._links[self._peer] is self.link:
            endpoint._links[self._peer] = None
        endpoint._wake(self._peer)


class Transport:
    """One process's TCP endpoint in a live group.

    Args:
        pid: This process's identifier.
        addresses: ``pid -> (host, port)`` for the whole group, this
            process included (that entry is where we listen).
        on_message: Called in the event loop with every decoded message.
        initial_backoff: First reconnect delay in seconds.
        max_backoff: Backoff cap in seconds.
        resume_points: ``peer -> (incarnation nonce, delivered count)``
            restored from a previous incarnation's WAL snapshot (crash
            recovery): a restarted endpoint answers reconnecting peers
            with these counts, so frames its predecessor already
            delivered are not replayed into the recovered stack. The
            stored nonce keeps the count scoped to the peer incarnation
            it was observed against.
        max_unacked: Per-peer cap on frames queued but not yet acked;
            :attr:`congested` turns true while any queue is at or above
            it. The transport itself never blocks or drops — the cap is
            a *credit signal* the arrival scheduler consults before
            offering more load (see PROTOCOLS.md, "Backpressure").
        rng: Randomness for the reconnect jitter (injectable for tests).
    """

    def __init__(
        self,
        pid: int,
        addresses: dict[int, tuple[str, int]],
        on_message: MessageHandler,
        *,
        initial_backoff: float = 0.05,
        max_backoff: float = 1.0,
        resume_points: dict[int, tuple[int, int]] | None = None,
        max_unacked: int | None = None,
        rng: random.Random | None = None,
    ) -> None:
        if pid not in addresses:
            raise NetworkError(f"addresses lack an entry for this process ({pid})")
        self.pid = pid
        self.stats = TransportStats()
        self.max_unacked = max_unacked
        self._addresses = dict(addresses)
        self._on_message = on_message
        self._initial_backoff = initial_backoff
        self._max_backoff = max_backoff
        self._rng = rng if rng is not None else random.Random()
        #: This endpoint's incarnation identity, presented in every
        #: HELLO. Drawn from the OS, not self._rng: a restarted worker
        #: reseeds the same (seed, pid) rng and MUST still get a nonce
        #: its predecessor never used.
        self.nonce = int.from_bytes(os.urandom(8), "big")
        self._queues: dict[int, deque[bytes]] = {
            peer: deque() for peer in addresses if peer != pid
        }
        #: Global stream index of ``_queues[peer][0]`` — how many frames
        #: to this peer have been acked (and dequeued) so far.
        self._send_base: dict[int, int] = {peer: 0 for peer in self._queues}
        #: The send cursor: global stream index of the next frame to
        #: write to the peer's current connection. Only ``_pump`` and
        #: the reconnect handshake move it.
        self._cursor: dict[int, int] = {peer: 0 for peer in self._queues}
        #: The peer's outgoing connection once its handshake is done.
        self._links: dict[int, asyncio.Transport | None] = {
            peer: None for peer in self._queues
        }
        #: How many frames from each peer were delivered to ``on_message``;
        #: persists across that peer's reconnects (the resume point),
        #: scoped to the peer incarnation in ``_peer_nonce``.
        self._delivered: dict[int, int] = {}
        self._peer_nonce: dict[int, int] = {}
        for peer, (nonce, count) in (resume_points or {}).items():
            self._peer_nonce[peer] = nonce
            self._delivered[peer] = count
        #: What each peer's idle writer task waits on (see ``_wake``).
        self._waiters: dict[int, asyncio.Future[None]] = {}
        self._server: asyncio.base_events.Server | None = None
        self._sender_tasks: list[asyncio.Task] = []
        self._inbound: set[asyncio.Transport] = set()
        self._closed = False
        #: Peers whose outbound frames are held back (fault injection:
        #: HOLD-mode partition — frames queue up and flow on release).
        self._held: set[int] = set()
        #: Peers whose outbound frames are discarded (DROP-mode).
        self._dropped: set[int] = set()
        #: Per-peer (extra_delay, jitter) slept before each frame write
        #: (fault injection: delay spikes).
        self._extra_delay: dict[int, tuple[float, float]] = {}

    # -- lifecycle ---------------------------------------------------------

    async def start(self) -> None:
        """Bind the listening socket and begin dialing every peer."""
        host, port = self._addresses[self.pid]
        self._server = await asyncio.get_running_loop().create_server(
            lambda: _Inbound(self), host, port
        )
        for peer in self._queues:
            task = asyncio.create_task(
                self._sender_loop(peer), name=f"transport.p{self.pid}->p{peer}"
            )
            self._sender_tasks.append(task)

    async def close(self) -> None:
        """Stop dialing, close the server and every open connection."""
        self._closed = True
        for task in self._sender_tasks:
            task.cancel()
        await asyncio.gather(*self._sender_tasks, return_exceptions=True)
        self._sender_tasks.clear()
        if self._server is not None:
            self._server.close()
            for link in list(self._inbound):
                link.close()
            await self._server.wait_closed()
            self._server = None
        self._inbound.clear()

    @property
    def listen_port(self) -> int:
        """The actual bound port (useful when configured with port 0)."""
        if self._server is None:
            raise NetworkError("transport is not started")
        return self._server.sockets[0].getsockname()[1]

    # -- sending -----------------------------------------------------------

    def send(self, message: NetMessage) -> None:
        """Queue *message* for its destination and write it if the link
        is open (never blocks).

        FIFO per destination: frames reach the socket strictly in
        ``send()`` call order, whichever path writes them.
        """
        if self._closed:
            return
        dst = message.dst
        queue = self._queues.get(dst)
        if queue is None:
            raise NetworkError(f"message to unknown process: {message}")
        if dst in self._dropped:
            self.stats.messages_dropped += 1
            return
        queue.append(encode_frame(encode_message(message)))
        self.stats.messages_sent += 1
        self.stats.bytes_sent += message.wire_size
        self.stats.payload_bytes_sent += message.payload_size
        if dst in self._extra_delay:
            self._wake(dst)  # the writer task paces delayed frames
        else:
            self._pump(dst)

    def _pump(self, peer: int, limit: int | None = None) -> None:
        """Write up to *limit* frames past the send cursor to *peer*.

        The only code that writes frames and advances the cursor:
        ``send()`` calls it for the direct path, the writer task for
        backlog replay and paced writes. It does nothing while the link
        is down or held. Frames stay queued until acked.
        """
        link = self._links[peer]
        if link is None or peer in self._held:
            return
        queue = self._queues[peer]
        cursor = self._cursor[peer]
        start = cursor - self._send_base[peer]
        stop = len(queue) if limit is None else min(len(queue), start + limit)
        if start >= stop:
            return
        if stop - start == 1:
            # Indexing a deque near either end is O(1); islice would walk
            # every unacked frame from the left on each direct send.
            link.write(queue[start])
        else:
            link.write(b"".join(itertools.islice(queue, start, stop)))
        self._cursor[peer] = cursor + stop - start

    def _wake(self, peer: int) -> None:
        """Resume *peer*'s writer task if it is idle."""
        waiter = self._waiters.get(peer)
        if waiter is not None and not waiter.done():
            waiter.set_result(None)

    def unacked_to(self, peer: int) -> int:
        """Frames to *peer* not yet acked by its receiver (== queued)."""
        return len(self._queues[peer])

    pending_to = unacked_to

    @property
    def congested(self) -> bool:
        """Whether any peer's unacked queue is at the configured cap.

        The transport's credit signal: while true, the worker's arrival
        scheduler stops offering load (counting ``backpressure_stalls``)
        instead of growing an unbounded frame queue toward a slow or
        partitioned peer.
        """
        if self.max_unacked is None:
            return False
        return any(len(queue) >= self.max_unacked for queue in self._queues.values())

    def delivered_counts(self) -> dict[int, tuple[int, int]]:
        """``peer -> (nonce, delivered count)`` — the WAL resume snapshot."""
        return {
            peer: (self._peer_nonce.get(peer, 0), count)
            for peer, count in self._delivered.items()
        }

    # -- fault injection hooks (driven by `repro nemesis --live`) ----------

    def hold_links(self, peers: set[int] | frozenset[int]) -> None:
        """Stop transmitting to *peers*; frames queue until release.

        The live form of a HOLD-mode partition: channels stay
        quasi-reliable (nothing is lost, everything is late), matching
        the simulator's semantics so the same faultload is comparable.
        """
        self._held.update(peers)

    def release_links(self, peers: set[int] | frozenset[int]) -> None:
        """Heal a HOLD: resume transmitting queued frames to *peers*."""
        self._held.difference_update(peers)
        for peer in peers:
            self._wake(peer)

    def drop_links(self, peers: set[int] | frozenset[int]) -> None:
        """Silently discard every new frame to *peers* (DROP mode)."""
        self._dropped.update(peers)

    def undrop_links(self, peers: set[int] | frozenset[int]) -> None:
        """Stop discarding frames to *peers*."""
        self._dropped.difference_update(peers)

    def set_link_delay(
        self, peers: set[int] | frozenset[int], extra: float, jitter: float = 0.0
    ) -> None:
        """Sleep ``extra + U(0, jitter)`` before each frame to *peers*."""
        for peer in peers:
            self._extra_delay[peer] = (extra, jitter)

    def clear_link_delay(self, peers: set[int] | frozenset[int]) -> None:
        """Remove the extra per-frame delay towards *peers*."""
        for peer in peers:
            self._extra_delay.pop(peer, None)
            self._wake(peer)

    def _on_count(self, peer: int, link: asyncio.Transport, count: int) -> None:
        """Dequeue every frame *peer*'s receiver has now delivered.

        The first count on a new connection is the receiver's resume
        point: how many of our frames it has delivered. Anything below
        it was received even if the ack got lost with the previous
        connection; transmission restarts exactly there, so the stream
        is exactly-once and in-order end to end.
        """
        queue = self._queues[peer]
        done = max(0, min(count - self._send_base[peer], len(queue)))
        for __ in range(done):
            queue.popleft()
        self._send_base[peer] += done
        if self._links[peer] is not link:
            _trace(self.pid, f"connected to p{peer}: resume={count} queued={len(queue)}")
            # A resume point below our base means the peer endpoint is
            # fresh (fail-stop processes do not restart; a new endpoint
            # at the old address starts a new incarnation): frames
            # already acked by the predecessor are gone, so transmission
            # continues from the first unacked frame.
            self._cursor[peer] = max(count, self._send_base[peer])
            self._links[peer] = link
            self._wake(peer)  # the writer task replays the backlog

    async def _sender_loop(self, peer: int) -> None:
        loop = asyncio.get_running_loop()
        backoff = self._initial_backoff
        while not self._closed:
            host, port = self._addresses[peer]
            connection = _Outbound(self, peer)
            try:
                await loop.create_connection(lambda: connection, host, port)
            except OSError:
                pass  # not reachable (yet): back off and redial
            else:
                backoff = self._initial_backoff
                try:
                    await self._serve(peer, connection)
                except OSError:  # includes ConnectionError
                    self.stats.reconnects += 1
                finally:
                    self._links[peer] = None
                    connection.link.close()
            await asyncio.sleep(backoff)
            backoff = next_backoff(
                self._rng, self._initial_backoff, backoff, self._max_backoff
            )

    async def _serve(self, peer: int, connection: _Outbound) -> None:
        """Replay the backlog and pace delayed frames until the
        connection dies.

        Between those jobs the task sleeps on a future that ``_wake``
        resolves; undelayed frames sent meanwhile go out from ``send()``.
        """
        loop = asyncio.get_running_loop()
        while not self._closed:
            if connection.link.is_closing():
                raise ConnectionResetError("peer closed the connection")
            pause = self._extra_delay.get(peer)
            if pause is None:
                self._pump(peer)
            elif (
                self._links[peer] is connection.link
                and peer not in self._held
                and self._cursor[peer] < self._send_base[peer] + len(self._queues[peer])
            ):
                extra, jitter = pause
                await asyncio.sleep(extra + self._rng.uniform(0.0, jitter))
                self._pump(peer, 1)
                continue
            waiter = self._waiters[peer] = loop.create_future()
            await waiter
