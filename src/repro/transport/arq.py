"""ARQ sessions: NACK-driven selective retransmission with backoff.

The broadcast modes (fountain, carousel) need no return path; when one
exists -- the paper's device-to-device scenarios -- selective-repeat ARQ
delivers with far less proactive redundancy.  The model here:

* the sender splits the payload into sequential DATA packets whose
  ``seq`` field is the *byte offset*, so the receiver reassembles and
  detects gaps purely from headers (no out-of-band plan);
* after each forward pass the receiver reports the missing byte ranges
  in a NACK packet over a (possibly lossy) feedback channel;
* a delivered NACK narrows the next round to exactly the missing
  packets; a lost NACK triggers a timeout, the sender retransmits its
  entire outstanding set, and the timeout backs off exponentially;
* :class:`ArqStats` accounts rounds, retransmissions and virtual elapsed
  time so benchmarks can compare ARQ against rateless coding.

The forward channel is abstract (``packets in -> delivered packets
out``), so the same session drives both the synthetic GOB-loss channel
in the benchmarks and the full PHY via
:func:`repro.core.pipeline.run_transport_link`.
"""

from __future__ import annotations

import struct
from collections.abc import Callable, Iterable
from dataclasses import dataclass

import numpy as np

from repro._util import check_in_range, check_positive, check_positive_int
from repro.obs import Telemetry
from repro.transport.packet import (
    FLAG_FIN,
    Packet,
    PacketFormatError,
    PacketType,
    build_packet,
    parse_packet,
)

_RANGE = struct.Struct(">II")


@dataclass(frozen=True)
class ArqStats:
    """Delivery accounting for one ARQ session.

    ``delivered_bytes`` counts the distinct correct payload bytes the
    receiver holds even when the session ends partial; ``deadline_hit``
    and ``budget_exhausted`` say which degradation bound (if any) ended
    the session early.  The ``n_*`` counters are the receiver's rejection
    tallies (foreign-session, duplicate and out-of-range packets are
    dropped without raising).
    """

    delivered: bool
    rounds: int
    packets_sent: int
    retransmissions: int
    nacks_sent: int
    nacks_delivered: int
    timeouts: int
    elapsed_s: float
    delivered_bytes: int = 0
    deadline_hit: bool = False
    budget_exhausted: bool = False
    n_foreign: int = 0
    n_duplicate: int = 0
    n_out_of_range: int = 0

    def row(self) -> str:
        """One formatted summary line for tables."""
        status = "ok" if self.delivered else "FAIL"
        marks = ""
        if self.deadline_hit:
            marks += " deadline"
        if self.budget_exhausted:
            marks += " budget"
        return (
            f"{status:4s} rounds={self.rounds:2d} sent={self.packets_sent:4d} "
            f"retx={self.retransmissions:4d} nacks={self.nacks_delivered}/"
            f"{self.nacks_sent} timeouts={self.timeouts}{marks}"
        )


def record_arq_telemetry(stats: ArqStats, telemetry: Telemetry) -> None:
    """Record one session's ARQ accounting as ``arq.*`` work counters."""
    metrics = telemetry.metrics
    metrics.counter("arq.rounds").inc(stats.rounds)
    metrics.counter("arq.packets_sent").inc(stats.packets_sent)
    metrics.counter("arq.retransmissions").inc(stats.retransmissions)
    metrics.counter("arq.nacks_sent").inc(stats.nacks_sent)
    metrics.counter("arq.nacks_delivered").inc(stats.nacks_delivered)
    metrics.counter("arq.timeouts").inc(stats.timeouts)
    metrics.counter("arq.rejected_foreign").inc(stats.n_foreign)
    metrics.counter("arq.rejected_duplicate").inc(stats.n_duplicate)
    metrics.counter("arq.rejected_out_of_range").inc(stats.n_out_of_range)


class ArqSender:
    """Packetize a payload into offset-addressed DATA packets."""

    def __init__(self, payload: bytes, chunk_bytes: int, session_id: int = 1) -> None:
        if not payload:
            raise ValueError("payload must not be empty")
        check_positive_int(chunk_bytes, "chunk_bytes")
        self.payload = bytes(payload)
        self.chunk_bytes = chunk_bytes
        self.session_id = int(session_id)
        self.total_len = len(self.payload)

    @property
    def n_packets(self) -> int:
        """Packets covering the payload."""
        return (self.total_len + self.chunk_bytes - 1) // self.chunk_bytes

    def packet(self, index: int) -> bytes:
        """The *index*-th DATA packet (FIN flagged on the last)."""
        if not (0 <= index < self.n_packets):
            raise IndexError(f"packet index {index} outside [0, {self.n_packets})")
        offset = index * self.chunk_bytes
        chunk = self.payload[offset : offset + self.chunk_bytes]
        flags = FLAG_FIN if index == self.n_packets - 1 else 0
        return build_packet(
            PacketType.DATA,
            self.session_id,
            offset,
            chunk,
            self.total_len,
            flags=flags,
        )

    def all_packets(self) -> list[bytes]:
        """Every DATA packet, in order."""
        return [self.packet(i) for i in range(self.n_packets)]

    def packets_for_ranges(
        self, ranges: Iterable[tuple[int, int]]
    ) -> list[bytes]:
        """The packets overlapping the given missing ``(offset, length)`` ranges."""
        wanted: set[int] = set()
        for offset, length in ranges:
            if length <= 0:
                continue
            first = max(0, offset) // self.chunk_bytes
            last = min(self.total_len, offset + length - 1) // self.chunk_bytes
            wanted.update(range(first, min(last, self.n_packets - 1) + 1))
        return [self.packet(i) for i in sorted(wanted)]


class ArqReceiver:
    """Reassemble a DATA stream purely from packet headers.

    No constructor arguments: the session id, total length and chunk
    offsets all come from the packets themselves.
    """

    def __init__(self) -> None:
        self.session_id: int | None = None
        self.total_len: int | None = None
        self._fragments: dict[int, bytes] = {}
        self.n_received = 0
        self.n_rejected = 0
        self.n_foreign = 0
        self.n_duplicate = 0
        self.n_out_of_range = 0

    def receive(self, raw: bytes) -> bool:
        """Ingest one raw packet; returns True if it carried new bytes.

        Never raises on hostile input: malformed buffers, foreign
        sessions, duplicates and packets whose byte range falls outside
        the session's declared length are counted and dropped
        (``n_rejected`` / ``n_foreign`` / ``n_duplicate`` /
        ``n_out_of_range``).
        """
        try:
            packet = parse_packet(raw)
        except PacketFormatError:
            self.n_rejected += 1
            return False
        header = packet.header
        if header.ptype != PacketType.DATA:
            return False
        if self.session_id is None:
            self.session_id = header.session_id
            self.total_len = header.total_len
        elif header.session_id != self.session_id or header.total_len != self.total_len:
            self.n_foreign += 1
            return False
        self.n_received += 1
        assert self.total_len is not None
        if header.seq >= self.total_len or header.seq + len(packet.payload) > self.total_len:
            # A stored out-of-range fragment would silently grow the
            # reassembly buffer past the declared length in payload().
            self.n_out_of_range += 1
            return False
        if header.seq in self._fragments:
            self.n_duplicate += 1
            return False
        self._fragments[header.seq] = packet.payload
        return True

    @property
    def received_bytes(self) -> int:
        """Distinct payload bytes received so far."""
        return sum(len(f) for f in self._fragments.values())

    @property
    def complete(self) -> bool:
        """True when the fragments cover the whole payload."""
        return self.total_len is not None and not self.missing_ranges()

    def missing_ranges(self) -> list[tuple[int, int]]:
        """The ``(offset, length)`` gaps still undelivered."""
        if self.total_len is None:
            return [(0, 0xFFFFFFFF)]
        gaps: list[tuple[int, int]] = []
        cursor = 0
        for offset in sorted(self._fragments):
            if offset > cursor:
                gaps.append((cursor, offset - cursor))
            cursor = max(cursor, offset + len(self._fragments[offset]))
        if cursor < self.total_len:
            gaps.append((cursor, self.total_len - cursor))
        return gaps

    def nack(self, round_index: int = 0) -> bytes | None:
        """A NACK packet listing the missing ranges, or None when done.

        Returns None as well before any DATA packet arrived -- the
        receiver does not yet know the session to complain about.
        """
        if self.session_id is None or self.total_len is None:
            return None
        gaps = self.missing_ranges()
        if not gaps:
            return None
        body = b"".join(_RANGE.pack(offset, length) for offset, length in gaps)
        return build_packet(
            PacketType.NACK, self.session_id, round_index, body, self.total_len
        )

    def payload(self) -> bytes:
        """The reassembled payload (requires :attr:`complete`)."""
        if not self.complete:
            raise ValueError(f"delivery incomplete: missing {self.missing_ranges()}")
        assert self.total_len is not None
        out = bytearray(self.total_len)
        for offset, chunk in self._fragments.items():
            out[offset : offset + len(chunk)] = chunk
        return bytes(out)


def parse_nack(packet: Packet) -> list[tuple[int, int]]:
    """Decode a NACK packet's missing ``(offset, length)`` ranges."""
    if packet.header.ptype != PacketType.NACK:
        raise ValueError(f"not a NACK packet: {packet.header.ptype!r}")
    body = packet.payload
    if len(body) % _RANGE.size:
        raise PacketFormatError(f"NACK body of {len(body)}B is not whole ranges")
    return [
        _RANGE.unpack_from(body, i) for i in range(0, len(body), _RANGE.size)
    ]


class ArqSession:
    """Drive a full ARQ delivery over abstract forward/feedback channels.

    Parameters
    ----------
    payload:
        The bytes to deliver.
    chunk_bytes:
        DATA packet payload size (the frame codec's capacity).
    forward:
        The lossy forward channel: takes the round's packets, returns the
        raw packets that arrived (any order, duplicates allowed).
    session_id:
        Session identifier stamped on every packet.
    feedback_loss:
        Probability that a round's NACK is lost (simulated feedback
        channel).
    timeout_s, backoff:
        Initial sender timeout and its exponential growth factor on every
        lost-feedback round.
    packet_airtime_s:
        Virtual transmission time per packet (one data frame on the PHY),
        accounted into :attr:`ArqStats.elapsed_s`.
    max_rounds:
        Hard bound on forward rounds before giving up.
    retry_budget:
        Degradation bound: maximum retransmitted packets across the whole
        session (None = unlimited).  When the budget runs out the session
        ends and reports whatever bytes arrived (partial delivery).
    deadline_s:
        Degradation bound: virtual-time deadline; no new round starts
        once ``elapsed_s`` reaches it.
    backoff_jitter:
        Fractional jitter on the exponential backoff (a timeout grows by
        ``backoff * (1 +/- jitter)``), decorrelating retry storms.  0
        disables the extra draws, keeping legacy sessions bit-stable.
    rng:
        Generator for feedback-loss and backoff-jitter draws.
    """

    def __init__(
        self,
        payload: bytes,
        chunk_bytes: int,
        forward: Callable[[list[bytes]], list[bytes]],
        session_id: int = 1,
        feedback_loss: float = 0.0,
        timeout_s: float = 0.25,
        backoff: float = 2.0,
        packet_airtime_s: float = 0.1,
        max_rounds: int = 16,
        retry_budget: int | None = None,
        deadline_s: float | None = None,
        backoff_jitter: float = 0.0,
        rng: np.random.Generator | None = None,
    ) -> None:
        check_in_range(feedback_loss, "feedback_loss", 0.0, 1.0)
        check_positive(timeout_s, "timeout_s")
        check_positive(backoff, "backoff")
        check_positive(packet_airtime_s, "packet_airtime_s")
        check_positive_int(max_rounds, "max_rounds")
        check_in_range(backoff_jitter, "backoff_jitter", 0.0, 1.0)
        if retry_budget is not None and retry_budget < 0:
            raise ValueError(f"retry_budget must be >= 0, got {retry_budget}")
        if deadline_s is not None:
            check_positive(deadline_s, "deadline_s")
        self.sender = ArqSender(payload, chunk_bytes, session_id=session_id)
        self.receiver = ArqReceiver()
        self.forward = forward
        self.feedback_loss = feedback_loss
        self.timeout_s = timeout_s
        self.backoff = backoff
        self.packet_airtime_s = packet_airtime_s
        self.max_rounds = max_rounds
        self.retry_budget = retry_budget
        self.deadline_s = deadline_s
        self.backoff_jitter = backoff_jitter
        self.rng = rng if rng is not None else np.random.default_rng(0)

    def run(self) -> tuple[ArqStats, bytes | None]:
        """Execute rounds until delivery, returning (stats, payload|None).

        With a ``retry_budget`` or ``deadline_s`` the session degrades
        instead of looping: it stops at the bound, flags which one fired
        in the stats, and reports the bytes that did arrive
        (:attr:`ArqStats.delivered_bytes`) so callers can act on partial
        delivery.
        """
        to_send = self.sender.all_packets()
        timeout = self.timeout_s
        elapsed = 0.0
        packets_sent = 0
        nacks_sent = 0
        nacks_delivered = 0
        timeouts = 0
        rounds = 0
        delivered = False
        deadline_hit = False
        budget_exhausted = False
        budget = self.retry_budget
        for round_index in range(self.max_rounds):
            if self.deadline_s is not None and elapsed >= self.deadline_s:
                deadline_hit = True
                break
            if round_index > 0 and budget is not None:
                if budget <= 0:
                    budget_exhausted = True
                    break
                to_send = to_send[:budget]
                budget -= len(to_send)
            rounds = round_index + 1
            packets_sent += len(to_send)
            elapsed += len(to_send) * self.packet_airtime_s
            for raw in self.forward(to_send):
                self.receiver.receive(raw)
            if self.receiver.complete:
                delivered = True
                break
            nack = self.receiver.nack(round_index)
            if nack is not None:
                nacks_sent += 1
            if nack is not None and float(self.rng.random()) >= self.feedback_loss:
                nacks_delivered += 1
                ranges = parse_nack(parse_packet(nack))
                to_send = self.sender.packets_for_ranges(ranges)
                timeout = self.timeout_s
            else:
                # Feedback lost (or receiver heard nothing): wait out the
                # timeout, back off, and retransmit the whole batch.
                timeouts += 1
                elapsed += timeout
                timeout *= self.backoff
                if self.backoff_jitter > 0.0:
                    timeout *= 1.0 + self.backoff_jitter * (
                        2.0 * float(self.rng.random()) - 1.0
                    )
                to_send = self.sender.all_packets()
            if not to_send:
                break
        receiver = self.receiver
        stats = ArqStats(
            delivered=delivered,
            rounds=rounds,
            packets_sent=packets_sent,
            retransmissions=max(packets_sent - self.sender.n_packets, 0),
            nacks_sent=nacks_sent,
            nacks_delivered=nacks_delivered,
            timeouts=timeouts,
            elapsed_s=elapsed,
            delivered_bytes=receiver.received_bytes,
            deadline_hit=deadline_hit,
            budget_exhausted=budget_exhausted,
            n_foreign=receiver.n_foreign,
            n_duplicate=receiver.n_duplicate,
            n_out_of_range=receiver.n_out_of_range,
        )
        payload = receiver.payload() if delivered else None
        return stats, payload
