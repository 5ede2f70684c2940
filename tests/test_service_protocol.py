"""Wire-protocol property tests: framing survives any byte chunking,
and anything malformed raises a typed ServiceError instead of hanging.

The decoder is the only thing standing between a flaky TCP stream and
the scheduler state machine, so its contract is pinned hard:

* every message type round-trips bit-exactly (floats included — JSON
  repr round-tripping is exact, which is what keeps service rows
  bit-identical to local ones);
* chunk boundaries are invisible: 1-byte drip, half frames, many
  frames per recv — same messages out, in order;
* truncated / oversized / garbage frames raise :class:`FrameError`
  *immediately* (a poisoned length prefix must not make the reader
  wait for 64 MiB that will never arrive);
* a clean EOF between frames is :class:`ConnectionClosed`, distinct
  from corruption, so "worker went away" can be requeued without
  masking protocol bugs.

The peers' pure halves are pinned here too, without a socket or a
sleep: :class:`SignIn` (the lull, the budget, refusals are final) and
:class:`JobRows` (rows once per idx across resubmits; malformed rows
refused). A coordinator address is one ``host:port``: a replica list
is refused before anything is dialed.
"""

from __future__ import annotations

import asyncio
import json
import random
import socket
import struct
import threading
import time

import pytest

from repro.harness.experiment import ExperimentConfig
from repro.harness.units import SweepUnit
from repro.params import Organization
from repro.service.errors import (ConnectionClosed, FrameError, JobFailed,
                                  ProtocolMismatch, ServiceError)
from repro.service.protocol import (MAX_FRAME, MESSAGE_TYPES,
                                    PROTOCOL_VERSION, SIGNIN_LULL,
                                    FrameDecoder, JobRows, SignIn,
                                    encode_frame)
from repro.service.transport import (Connection, SyncTransport,
                                     parse_address)

#: one representative payload per message type — keep in sync with
#: MESSAGE_TYPES (the completeness test below enforces it)
SAMPLES = {
    "hello": {"type": "hello", "role": "worker",
              "protocol": PROTOCOL_VERSION, "name": "w0", "pid": 4242},
    "welcome": {"type": "welcome", "name": "w0",
                "protocol": PROTOCOL_VERSION},
    "submit": {"type": "submit", "units": [{"benchmark": "barnes"}]},
    "status": {"type": "status"},
    "ping": {"type": "ping"},
    "shutdown": {"type": "shutdown"},
    "bye": {"type": "bye"},
    "accepted": {"type": "accepted", "job": "job-1", "total": 6,
                 "cached": [[0, 1.5]]},
    "row": {"type": "row", "job": "job-1", "idx": 3,
            "value": {"runtime": 30237, "mpki": 0.1 + 0.2}},
    "done": {"type": "done", "job": "job-1", "from_cache": 0},
    "job_failed": {"type": "job_failed", "job": "job-1", "idx": 2,
                   "error": "ConfigError: unknown benchmark"},
    "status_reply": {"type": "status_reply", "workers": [],
                     "stats": {"pending": 0}},
    "pong": {"type": "pong"},
    "assign": {"type": "assign", "job": "job-1", "idx": 0,
               "unit": {"benchmark": "barnes", "seed": 1}},
    "result": {"type": "result", "job": "job-1", "idx": 0,
               "value": 1e-308},
    "unit_error": {"type": "unit_error", "job": "job-1", "idx": 0,
                   "error": "boom",
                   "traceback": "Traceback (most recent call last):\n"
                                "  ...\nValueError: boom\n"},
    "heartbeat": {"type": "heartbeat"},
    "error": {"type": "error", "error": "protocol version mismatch"},
}


def decode_all(data: bytes, chunk_sizes=None):
    """Push ``data`` through a decoder in the given chunk sizes."""
    dec = FrameDecoder()
    out = []
    pos = 0
    sizes = iter(chunk_sizes or [len(data)])
    while pos < len(data):
        size = next(sizes, len(data))
        dec.feed(data[pos:pos + size])
        pos += size
        out.extend(dec)
    assert dec.at_boundary
    return out


class TestRoundTrip:
    def test_samples_cover_every_message_type(self):
        assert set(SAMPLES) == set(MESSAGE_TYPES)

    @pytest.mark.parametrize("kind", sorted(MESSAGE_TYPES))
    def test_round_trip(self, kind):
        msg = SAMPLES[kind]
        (out,) = decode_all(encode_frame(msg))
        assert out == msg

    def test_floats_round_trip_bit_exactly(self):
        values = [0.1 + 0.2, 1 / 3, 1e-308, 1.7976931348623157e308,
                  -0.0, 3.141592653589793, 2 ** 53 - 1]
        msg = {"type": "row", "job": "j", "idx": 0, "value": values}
        (out,) = decode_all(encode_frame(msg))
        for sent, got in zip(values, out["value"]):
            assert sent == got
            assert struct.pack("!d", sent) == struct.pack("!d", got)

    def test_many_frames_single_feed(self):
        msgs = [SAMPLES[k] for k in sorted(MESSAGE_TYPES)] * 3
        blob = b"".join(encode_frame(m) for m in msgs)
        assert decode_all(blob) == msgs


class TestChunking:
    """Frame boundaries must be invisible to the decoder."""

    def test_one_byte_drip(self):
        msgs = [SAMPLES["assign"], SAMPLES["result"], SAMPLES["ping"]]
        blob = b"".join(encode_frame(m) for m in msgs)
        assert decode_all(blob, chunk_sizes=[1] * len(blob)) == msgs

    @pytest.mark.parametrize("seed", range(20))
    def test_fuzzed_chunk_boundaries(self, seed):
        rng = random.Random(seed)
        kinds = [rng.choice(sorted(MESSAGE_TYPES)) for _ in range(30)]
        msgs = [SAMPLES[k] for k in kinds]
        blob = b"".join(encode_frame(m) for m in msgs)
        sizes = []
        total = 0
        while total < len(blob):
            n = rng.choice([1, 2, 3, 5, 7, 16, 64, 1024])
            sizes.append(n)
            total += n
        assert decode_all(blob, chunk_sizes=sizes) == msgs

    def test_chunks_split_inside_length_prefix(self):
        blob = encode_frame(SAMPLES["row"])
        for cut in range(1, 4):  # inside the 4-byte length prefix
            dec = FrameDecoder()
            dec.feed(blob[:cut])
            assert dec.next_message() is None
            dec.feed(blob[cut:])
            assert dec.next_message() == SAMPLES["row"]


class TestMalformed:
    def test_oversized_length_prefix_rejected_immediately(self):
        dec = FrameDecoder()
        with pytest.raises(FrameError):
            # only the prefix arrives — the decoder must not wait for
            # the (impossible) 2 GiB payload
            dec.feed(struct.pack("!I", MAX_FRAME + 1))

    def test_garbage_json_rejected(self):
        payload = b"{not json!"
        dec = FrameDecoder()
        dec.feed(struct.pack("!I", len(payload)) + payload)
        with pytest.raises(FrameError):
            dec.next_message()

    def test_non_object_payload_rejected(self):
        payload = json.dumps([1, 2, 3]).encode()
        dec = FrameDecoder()
        dec.feed(struct.pack("!I", len(payload)) + payload)
        with pytest.raises(FrameError):
            dec.next_message()

    def test_unknown_message_type_rejected(self):
        payload = json.dumps({"type": "teleport"}).encode()
        dec = FrameDecoder()
        dec.feed(struct.pack("!I", len(payload)) + payload)
        with pytest.raises(FrameError):
            dec.next_message()

    def test_missing_type_rejected(self):
        payload = json.dumps({"job": "job-1"}).encode()
        dec = FrameDecoder()
        dec.feed(struct.pack("!I", len(payload)) + payload)
        with pytest.raises(FrameError):
            dec.next_message()

    def test_encode_rejects_unknown_type(self):
        with pytest.raises(FrameError):
            encode_frame({"type": "teleport"})
        with pytest.raises(FrameError):
            encode_frame({"no": "type"})

    def test_every_frame_error_is_a_service_error(self):
        assert issubclass(FrameError, ServiceError)
        assert issubclass(ConnectionClosed, ServiceError)


class TestFrameBound:
    """The configurable ``max_frame`` bound, exercised *at* the bound:
    a frame of exactly max_frame bytes decodes; one byte more is
    rejected from the 4-byte prefix alone."""

    BOUND = 256

    def _frame_of_payload_len(self, n: int) -> bytes:
        # a real JSON object padded to exactly n payload bytes (the
        # empty-pad base length accounts for encode_frame's compact,
        # sorted serialization)
        base = len(encode_frame({"type": "ping", "pad": ""})) - 4
        assert n >= base
        frame = encode_frame({"type": "ping", "pad": "x" * (n - base)})
        assert len(frame) == 4 + n
        return frame

    def test_frame_exactly_at_bound_decodes(self):
        dec = FrameDecoder(max_frame=self.BOUND)
        dec.feed(self._frame_of_payload_len(self.BOUND))
        msg = dec.next_message()
        assert msg["type"] == "ping"
        assert dec.at_boundary

    def test_frame_one_past_bound_rejected(self):
        dec = FrameDecoder(max_frame=self.BOUND)
        with pytest.raises(FrameError) as exc:
            dec.feed(self._frame_of_payload_len(self.BOUND + 1))
        assert str(self.BOUND) in str(exc.value)

    def test_prefix_alone_is_enough_to_reject(self):
        """The decoder must refuse from the length prefix without
        waiting for a payload that may never arrive."""
        dec = FrameDecoder(max_frame=self.BOUND)
        with pytest.raises(FrameError):
            dec.feed(struct.pack("!I", self.BOUND + 1))

    @pytest.mark.parametrize("seed", range(10))
    def test_property_frames_below_bound_survive_chunking(self, seed):
        """Property: for random payload sizes in (0, bound] and random
        chunkings, every frame decodes bit-exactly; sizes in
        (bound, 2*bound] always raise."""
        rng = random.Random(seed)
        bound = rng.randrange(64, 4096)
        dec = FrameDecoder(max_frame=bound)
        for _ in range(20):
            n = rng.randrange(30, bound + 1)
            frame = self._frame_of_payload_len(n)
            pos = 0
            while pos < len(frame):
                step = rng.randrange(1, 64)
                dec.feed(frame[pos:pos + step])
                pos += step
            got = dec.next_message()
            assert len(encode_frame(got)) == 4 + n
            assert dec.at_boundary
        over = FrameDecoder(max_frame=bound)
        with pytest.raises(FrameError):
            over.feed(self._frame_of_payload_len(
                rng.randrange(bound + 1, 2 * bound)))

    def test_default_bound_is_max_frame(self):
        assert FrameDecoder().max_frame == MAX_FRAME


class TestSocketRecv:
    """SyncTransport (the blocking peer) over a real socket pair: EOF
    semantics."""

    def _pair(self):
        a, b = socket.socketpair()
        return SyncTransport(a), SyncTransport(b)

    def test_send_recv_round_trip(self):
        a, b = self._pair()
        try:
            a.send(SAMPLES["assign"], timeout=5.0)
            assert b.recv(timeout=5.0) == SAMPLES["assign"]
        finally:
            a.close()
            b.close()

    def test_clean_eof_between_frames_is_connection_closed(self):
        a, b = self._pair()
        try:
            a.send(SAMPLES["ping"], timeout=5.0)
            a.close()
            assert b.recv(timeout=5.0) == SAMPLES["ping"]
            with pytest.raises(ConnectionClosed):
                b.recv(timeout=5.0)
        finally:
            b.close()

    def test_eof_mid_frame_is_frame_error(self):
        a, b = socket.socketpair()
        transport = SyncTransport(b)
        try:
            frame = encode_frame(SAMPLES["row"])
            a.sendall(frame[:len(frame) // 2])
            a.close()
            with pytest.raises(FrameError):
                transport.recv(timeout=5.0)
        finally:
            transport.close()

    def test_transport_eof_semantics_match_recv_msg(self):
        """The EOF rule lives once, on the decoder both read loops
        share (``recv_msg``'s copy is gone): clean at a frame boundary
        is ConnectionClosed, mid-frame is FrameError — before any
        frame, between frames, and after a partial one."""
        dec = FrameDecoder()
        assert isinstance(dec.eof(), ConnectionClosed)
        frame = encode_frame(SAMPLES["row"])
        dec.feed(frame + frame[:3])
        assert isinstance(dec.eof(), FrameError)  # partial tail
        assert dec.next_message() == SAMPLES["row"]
        assert isinstance(dec.eof(), FrameError)
        dec.feed(frame[3:])
        assert dec.next_message() == SAMPLES["row"]
        assert isinstance(dec.eof(), ConnectionClosed)

    def test_transport_clean_eof_is_connection_closed(self):
        a, b = socket.socketpair()
        transport = SyncTransport(b)
        try:
            a.close()
            with pytest.raises(ConnectionClosed):
                transport.recv(timeout=5.0)
        finally:
            transport.close()

    def test_transport_deadline_is_a_real_timeout(self):
        """No bytes ever arrive: recv must raise socket.timeout after
        the monotonic deadline, not block on the kernel."""
        import time
        a, b = socket.socketpair()
        transport = SyncTransport(b)
        try:
            t0 = time.monotonic()
            with pytest.raises(socket.timeout):
                transport.recv(timeout=0.2)
            assert time.monotonic() - t0 < 5.0
        finally:
            a.close()
            transport.close()

    @pytest.mark.parametrize("seed", range(10))
    def test_transport_survives_fuzzed_chunking(self, seed):
        """A writer thread drips frames in random chunks with random
        pauses; the transport reassembles every message in order."""
        rng = random.Random(seed)
        kinds = [rng.choice(sorted(MESSAGE_TYPES)) for _ in range(25)]
        blob = b"".join(encode_frame(SAMPLES[k]) for k in kinds)
        a, b = socket.socketpair()
        transport = SyncTransport(b)

        def drip():
            pos = 0
            while pos < len(blob):
                step = rng.choice([1, 2, 3, 7, 16, 129, 1024])
                a.sendall(blob[pos:pos + step])
                pos += step
            a.close()

        writer = threading.Thread(target=drip)
        writer.start()
        try:
            got = [transport.recv(timeout=10.0) for _ in kinds]
            assert got == [SAMPLES[k] for k in kinds]
            with pytest.raises(ConnectionClosed):
                transport.recv(timeout=5.0)
        finally:
            writer.join()
            transport.close()

    def test_transport_send_round_trips(self):
        a, b = self._pair()
        try:
            b.send(SAMPLES["submit"], timeout=5.0)
            assert a.recv(timeout=5.0) == SAMPLES["submit"]
        finally:
            a.close()
            b.close()


class TestConnection:
    """The event-loop connection over a real socket pair: the same
    EOF semantics from its one read loop, and the send bound."""

    @staticmethod
    async def _connect(sock, **kw):
        reader, writer = await asyncio.open_connection(sock=sock)
        return Connection(reader, writer, **kw)

    def test_read_round_trip_in_order_across_chunks(self):
        async def main():
            a, b = socket.socketpair()
            conn = await self._connect(a)
            kinds = sorted(MESSAGE_TYPES)
            blob = b"".join(encode_frame(SAMPLES[k]) for k in kinds)
            b.sendall(blob[:7])  # a prefix and three bytes of payload
            await asyncio.sleep(0.01)
            b.sendall(blob[7:])
            assert [await conn.read(5.0) for _ in kinds] == [
                SAMPLES[k] for k in kinds]
            conn.send(SAMPLES["pong"])
            conn.close()  # flush-then-close: the pong still arrives
            await conn.wait_closed()
            peer = SyncTransport(b)
            assert peer.recv(timeout=5.0) == SAMPLES["pong"]
            with pytest.raises(ConnectionClosed):
                peer.recv(timeout=5.0)
            peer.close()

        asyncio.run(main())

    def test_clean_eof_between_frames_is_connection_closed(self):
        async def main():
            a, b = socket.socketpair()
            conn = await self._connect(a)
            b.sendall(encode_frame(SAMPLES["ping"]))
            b.close()
            assert await conn.read(5.0) == SAMPLES["ping"]
            with pytest.raises(ConnectionClosed):
                await conn.read(5.0)
            conn.abort()

        asyncio.run(main())

    def test_eof_mid_frame_is_frame_error(self):
        async def main():
            a, b = socket.socketpair()
            conn = await self._connect(a)
            frame = encode_frame(SAMPLES["row"])
            b.sendall(frame[:len(frame) // 2])
            b.close()
            with pytest.raises(FrameError):
                await conn.read(5.0)
            conn.abort()

        asyncio.run(main())

    def test_read_timeout_loses_no_bytes(self):
        async def main():
            a, b = socket.socketpair()
            conn = await self._connect(a)
            frame = encode_frame(SAMPLES["row"])
            b.sendall(frame[:5])
            with pytest.raises(asyncio.TimeoutError):
                await conn.read(0.05)
            b.sendall(frame[5:])
            assert await conn.read(5.0) == SAMPLES["row"]
            conn.abort()
            b.close()

        asyncio.run(main())

    def test_stalled_peer_kills_its_own_writer_not_the_fleet(self):
        """A peer that never reads (tiny socket buffers, so the kernel
        stops taking bytes at once) is torn down within
        ``send_timeout``: its reader wakes with ConnectionClosed, and
        a healthy connection on the same loop never notices."""
        async def main():
            a, b = socket.socketpair()
            for sock in (a, b):
                sock.setsockopt(socket.SOL_SOCKET, socket.SO_SNDBUF, 4096)
                sock.setsockopt(socket.SOL_SOCKET, socket.SO_RCVBUF, 4096)
            stalled = await self._connect(a, send_timeout=0.3)
            c, d = socket.socketpair()
            healthy = await self._connect(c)
            peer = SyncTransport(d)
            loop = asyncio.get_running_loop()
            t0 = loop.time()
            for _ in range(2048):  # ~1 MiB nobody will ever read
                stalled.send(SAMPLES["unit_error"])
            reader = asyncio.create_task(stalled.read())
            await asyncio.sleep(0.1)  # the stalled pump is mid-drain
            healthy.send(SAMPLES["row"])
            assert await loop.run_in_executor(
                None, peer.recv, 5.0) == SAMPLES["row"]
            with pytest.raises(ConnectionClosed):
                await asyncio.wait_for(reader, 5.0)
            assert 0.3 <= loop.time() - t0 < 3.0
            stalled.send(SAMPLES["ping"])  # dropped, not queued
            await stalled.wait_closed()
            healthy.abort()
            peer.close()
            b.close()

        asyncio.run(main())


class TestProtocolV10:
    """v10: one coordinator — no frame points a peer at a leader and
    none links two coordinators; a full-result value's stats are v9's
    ``[count, total]`` samplers, and no warmup field rides the wire."""

    def test_hello_samples_carry_protocol_10(self):
        assert PROTOCOL_VERSION == 10
        for kind in ("hello", "welcome"):
            assert SAMPLES[kind]["protocol"] == 10
        for kind in ("submit", "assign", "result", "done"):
            assert not any(key.startswith("warm") for key in SAMPLES[kind])
        assert not any(kind.startswith("replica") or kind == "redirect"
                       for kind in MESSAGE_TYPES)


class TestProtocolV6:
    """v6: ``kind: "sweep"`` is the only unit kind on the wire."""

    def test_workload_kind_submit_gets_typed_error_frame(self):
        """A v5-era ``kind: "workload"`` unit is refused with the
        ``malformed submit`` error frame — not dropped, not run."""
        from repro.service import Coordinator
        coord = Coordinator()
        peer = SyncTransport.open(coord.start(), 5)
        try:
            peer.send({"type": "hello", "role": "client",
                       "protocol": PROTOCOL_VERSION})
            assert peer.recv(timeout=5)["type"] == "welcome"
            peer.send({"type": "submit", "units": [{
                "kind": "workload", "workload": "W0",
                "organization": "shared", "cores": 64, "noc": "smart",
                "cluster": None, "scale": 0.02, "full_system": False,
                "seed": 1, "warmup_fraction": 0.35, "cache_scale": 0.125,
                "max_cycles": 50_000_000, "metric": "runtime"}]})
            reply = peer.recv(timeout=5)
            assert reply["type"] == "error"
            assert "malformed submit" in reply["error"]
            assert "unknown unit kind 'workload'" in reply["error"]
        finally:
            peer.close()
            coord.stop()


class TestMalformedWorkerFrames:
    """A worker frame without a field the coordinator reads, or with one
    of the wrong type, gets the typed error frame and the worker is
    dropped the normal way: no unhandled ``KeyError``, no silent drop,
    and nothing of it reaches the scheduler."""

    @pytest.mark.parametrize("frame", [
        {"type": "result", "job": "x"},
        {"type": "unit_error"},
        {"type": "result", "job": "x", "idx": "0", "value": 1},
        {"type": "result", "job": "x", "idx": 0},
    ], ids=["result_without_idx", "bare_unit_error", "string_idx",
            "result_without_value"])
    def test_typed_error_then_dropped(self, frame):
        from repro.service import Coordinator, ServiceClient
        coord = Coordinator()
        address = coord.start()
        peer = SyncTransport.open(address, 5)
        try:
            peer.send({"type": "hello", "role": "worker", "name": "raw",
                       "protocol": PROTOCOL_VERSION, "pid": 1})
            assert peer.recv(timeout=5)["type"] == "welcome"
            with ServiceClient(address, row_timeout=5.0) as mon:
                peer.send(frame)
                reply = peer.recv(timeout=5)
                assert reply["type"] == "error"
                assert "malformed" in reply["error"]
                status = mon.status()
            stats = status["stats"]
            assert stats["workers"] == 0
            assert (stats["units_completed"], stats["duplicates"],
                    stats["results_cached"]) == (0, 0, 0)
        finally:
            peer.close()
            coord.stop()


class TestMalformedCoordinatorFrames:
    @pytest.mark.parametrize("assign", [
        {"type": "assign", "unit": {}},
        {"type": "assign", "job": "j", "idx": "0", "unit": {}},
    ], ids=["no_job_or_idx", "string_idx"])
    def test_an_assign_the_worker_cannot_answer_ends_its_session(
            self, assign):
        """The worker refuses the frame and closes its connection (and,
        with one address, exits). It used to read the fields outside its
        ``try``: the task died unretrieved, heartbeats went on, and the
        coordinator held the unit until the worker died."""
        from repro.service import Worker
        server = socket.create_server(("127.0.0.1", 0))
        server.settimeout(10)
        worker = Worker(f"127.0.0.1:{server.getsockname()[1]}", name="w",
                        heartbeat_interval=0.1)
        thread = threading.Thread(target=worker.run, daemon=True)
        thread.start()
        peer = None
        try:
            peer = SyncTransport(server.accept()[0])
            assert peer.recv(timeout=10)["type"] == "hello"
            peer.send({"type": "welcome", "name": "w",
                       "protocol": PROTOCOL_VERSION})
            peer.send(assign)
            deadline = time.monotonic() + 5.0
            with pytest.raises(ConnectionClosed):
                while time.monotonic() < deadline:
                    assert peer.recv(timeout=5)["type"] == "heartbeat"
            thread.join(timeout=10)
            assert not thread.is_alive()
            assert (worker.signins, worker.units_run) == (1, 0)
        finally:
            worker.stop()
            thread.join(timeout=10)
            if peer is not None:
                peer.close()
            server.close()


# ----------------------------------------------------------------------
# sign-in with the one coordinator, shared by client and worker
# ----------------------------------------------------------------------
WELCOME = {"type": "welcome", "protocol": PROTOCOL_VERSION}
REPLICAS = "127.0.0.1:7077,127.0.0.1:7078"


def tries(signin: SignIn, answer, now: float = 0.0) -> list:
    """Dial until ``dial`` says wait or someone welcomes us;
    ``answer(addr)`` is the reply to that ``hello`` (None: the dial
    failed)."""
    dialed = []
    while (address := signin.dial(now)) is not None:
        dialed.append(address)
        assert len(dialed) < 100, "the sign-in never paused"
        reply = answer(address)
        if reply is None:
            signin.failed(OSError(f"{address} refused"))
        else:
            signin.reply(reply)
            break
    return dialed


class TestSignIn:
    def test_a_round_that_finds_nobody_lulls_then_starts_over(self):
        """A failed dial is followed by a :data:`SIGNIN_LULL`, then the
        same address is dialed again."""
        signin = SignIn("a:1", 60, 10.0)
        assert tries(signin, lambda a: None, 10.0) == ["a:1"]
        assert signin.wake == 10.0 + SIGNIN_LULL
        assert signin.dial(10.0 + SIGNIN_LULL / 2) is None
        assert tries(signin, lambda a: WELCOME, signin.wake) == ["a:1"]
        assert signin.dials == 2

    def test_past_the_budget_the_hunt_fails_with_the_last_error(self):
        signin = SignIn("a:1", 5.0, 100.0)
        assert tries(signin, lambda a: None, 100.0) == ["a:1"]
        assert signin.dial(104.9) == "a:1"
        signin.failed(OSError("connection refused"))
        with pytest.raises(ServiceError, match="within 5.0s .*last error: "
                                               "connection refused"):
            signin.dial(105.0)

    @pytest.mark.parametrize("reply", [
        {"type": "error", "code": "protocol-mismatch",
         "error": "peer speaks protocol 7"},
        dict(WELCOME, protocol=9)], ids=["error_frame", "old_welcome"])
    def test_protocol_mismatch_is_final(self, reply):
        signin = SignIn("a:1", 60, 0.0)
        signin.dial(0.0)
        with pytest.raises(ProtocolMismatch):
            signin.reply(reply)

    def test_a_refusal_is_final(self):
        """A typed error frame, or anything but a welcome, ends the
        sign-in: there is no other coordinator to try."""
        refusal = {"type": "error", "error": "go away"}
        with pytest.raises(ServiceError, match="go away"):
            tries(SignIn("a:1", 60, 0.0), lambda a: refusal)
        with pytest.raises(ServiceError, match="expected welcome, got "
                                               "'pong'"):
            tries(SignIn("a:1", 60, 0.0), lambda a: {"type": "pong"})

    def test_a_budget_of_zero_is_one_try(self):
        """The worker's sign-in: one dial, and an unreachable
        coordinator ends it (the worker exits quietly)."""
        signin = SignIn("a:1", 0.0, 7.0)
        with pytest.raises(ServiceError, match="last error: a:1 refused"):
            tries(signin, lambda a: None, 7.0)
        assert signin.dials == 1


class TestOneAddress:
    def test_a_replica_list_is_refused_before_anything_is_dialed(
            self, monkeypatch):
        """``parse_address`` used to read the list as host
        ``127.0.0.1:7077,127.0.0.1`` and port 7078, so an old replica
        list failed only at the connect budget, with the wrong error."""
        with pytest.raises(ServiceError, match="one host:port"):
            parse_address(REPLICAS)
        assert parse_address("127.0.0.1:7077") == ("127.0.0.1", 7077)

        def no_dial(*args, **kw):
            raise AssertionError("dialed a replica list")
        monkeypatch.setattr(socket, "create_connection", no_dial)
        monkeypatch.setattr(socket, "socket", no_dial)
        from repro.harness.sweep import sweep
        from repro.service import ServiceClient, Worker
        for make in (lambda: ServiceClient(REPLICAS),
                     lambda: Worker(REPLICAS),
                     lambda: sweep("water_spatial", metric="runtime",
                                   service=REPLICAS, scale=[0.04],
                                   organization=[Organization.SHARED])):
            with pytest.raises(ServiceError, match="one host:port"):
                make()


# ----------------------------------------------------------------------
# a client's rows of one job
# ----------------------------------------------------------------------
UNITS = [SweepUnit(ExperimentConfig("water_spatial", Organization.SHARED,
                                    scale=0.04, seed=seed),
                   50_000_000, "runtime") for seed in (1, 2, 3)]


def _accepted(job, cached=()):
    return {"type": "accepted", "job": job, "total": len(UNITS),
            "cached": [list(pair) for pair in cached]}


def _row(job, idx, value):
    return {"type": "row", "job": job, "idx": idx, "value": value}


class TestJobRows:
    def test_each_row_fires_once_across_a_resubmit(self):
        fired = []
        rows = JobRows(UNITS, on_row=lambda i, v: fired.append((i, v)))
        assert rows.submit() == {"type": "submit",
                                 "units": [u.to_wire() for u in UNITS]}
        assert not rows.frame(_accepted("j1", [(0, 10)]))
        assert not rows.frame(_row("j1", 1, 11))
        assert (rows.received, rows.remaining) == ({0, 1}, 1)
        # the session ends; the resubmit's memo serves both back
        rows.submit()
        assert not rows.frame(_accepted("j2", [(0, 10), (1, 11)]))
        assert not rows.frame(_row("j2", 2, 12))
        assert rows.frame({"type": "done", "job": "j2", "from_cache": 2})
        assert fired == [(0, 10), (1, 11), (2, 12)]
        assert (rows.values, rows.from_cache) == ([10, 11, 12], 2)

    def test_a_failed_or_short_job_raises_job_failed(self):
        rows = JobRows(UNITS)
        rows.submit()
        rows.frame(_accepted("j1"))
        with pytest.raises(JobFailed, match="#1 failed permanently: boom"):
            rows.frame({"type": "job_failed", "job": "j1", "idx": 1,
                        "error": "boom"})
        with pytest.raises(JobFailed, match="3 rows missing"):
            rows.frame({"type": "done", "job": "j1", "from_cache": 0})

    @pytest.mark.parametrize("frame", [
        _row("j1", 3, 1), _row("j1", -1, 1), _row("j1", "0", 1),
        _row("j1", True, 1), {"type": "row", "job": "j1", "idx": 0},
    ], ids=["idx_past_the_end", "negative_idx", "string_idx", "bool_idx",
            "no_value"])
    def test_a_malformed_row_is_refused(self, frame):
        """An out-of-range idx used to raise a bare ``IndexError`` out of
        ``run_units``, and a negative one silently marked another unit
        done."""
        rows = JobRows(UNITS)
        rows.submit()
        rows.frame(_accepted("j1"))
        with pytest.raises(FrameError):
            rows.frame(frame)
        assert (rows.received, rows.values) == (set(), [None] * 3)

    @pytest.mark.parametrize("cached", [[[5, 1]], [[-1, 1]], [[0]], [7]],
                             ids=["idx_past_the_end", "negative_idx",
                                  "no_value", "not_a_pair"])
    def test_a_malformed_cached_pair_is_refused(self, cached):
        rows = JobRows(UNITS)
        rows.submit()
        with pytest.raises(FrameError):
            rows.frame(dict(_accepted("j1"), cached=cached))
        assert rows.received == set()

    def test_error_and_stray_frames_raise_typed(self):
        rows = JobRows(UNITS)
        rows.submit()
        with pytest.raises(ServiceError, match="expected accepted"):
            rows.frame(_row("j1", 0, 1))
        rows.frame(_accepted("j1"))
        with pytest.raises(ServiceError, match="unexpected 'row'"):
            rows.frame(_row("j0", 0, 1))  # another job's row
        with pytest.raises(ProtocolMismatch):
            rows.frame({"type": "error", "code": "protocol-mismatch",
                        "error": "drift"})
        with pytest.raises(ServiceError, match="quorum lost"):
            rows.frame({"type": "error", "error": "quorum lost"})
