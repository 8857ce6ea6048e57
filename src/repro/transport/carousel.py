"""Broadcast carousel: an endless fountain stream for mid-stream joiners.

The paper's digital-signage scenario has no return path and no session
setup: a display cycles content all day, and a camera that starts
watching at an arbitrary moment should still collect a payload.  The
carousel wraps :class:`~repro.transport.fountain.LTEncoder` in
self-describing FOUNTAIN packets; because the code is rateless, a
receiver that joins at symbol 10 000 needs exactly as many packets as one
that joined at symbol 0, and :class:`CarouselReceiver` bootstraps every
parameter (k, symbol size, payload length, session seed) from the first
valid header it sees.
"""

from __future__ import annotations

import math
from collections.abc import Iterator

from repro._util import check_positive_int
from repro.transport.fountain import LTDecoder, LTEncoder
from repro.transport.packet import (
    PacketFormatError,
    PacketType,
    build_packet,
    parse_packet,
)

#: Extra fraction of fountain symbols sent beyond the blocks still missing.
_FOUNTAIN_MARGIN = 0.35


def fountain_batch(missing: int) -> int:
    """Fountain symbols to send while *missing* source blocks are unknown.

    The margin covers the packets the PHY will erase on the way, and the
    floor of two keeps a nearly finished decode moving.  Every fountain
    and carousel sender sizes its batches here.
    """
    return max(2, math.ceil(missing * (1.0 + _FOUNTAIN_MARGIN)))


class BroadcastCarousel:
    """Cycle fountain packets for a payload, indefinitely.

    Parameters
    ----------
    payload:
        The bytes being broadcast.
    symbol_bytes:
        Payload bytes per packet (the frame codec's capacity).
    session_id:
        Stamped on every packet; doubles as the fountain seed, so the
        receiver needs nothing out of band.
    """

    def __init__(self, payload: bytes, symbol_bytes: int, session_id: int = 1) -> None:
        check_positive_int(symbol_bytes, "symbol_bytes")
        self.session_id = int(session_id)
        self.encoder = LTEncoder(payload, symbol_bytes, seed=self.session_id)

    @property
    def k(self) -> int:
        """Source blocks in the payload."""
        return self.encoder.k

    @property
    def total_len(self) -> int:
        """Payload length in bytes."""
        return self.encoder.total_len

    def packet(self, index: int) -> bytes:
        """The carousel's *index*-th packet (symbol id = index)."""
        return build_packet(
            PacketType.FOUNTAIN,
            self.session_id,
            index,
            self.encoder.symbol(index),
            self.total_len,
        )

    def packets(self, start: int, count: int) -> list[bytes]:
        """``count`` consecutive packets starting at symbol *start*."""
        return [self.packet(start + i) for i in range(count)]

    def symbol_degrees(self, start: int, count: int) -> list[int]:
        """The LT degrees of ``count`` symbols from *start* (for telemetry)."""
        return [self.encoder.degree(start + i) for i in range(count)]

    def stream(self, start: int = 0) -> Iterator[bytes]:
        """An endless packet iterator from symbol *start* on."""
        index = start
        while True:
            yield self.packet(index)
            index += 1


class CarouselReceiver:
    """Collect a carousel broadcast with zero out-of-band state.

    Feed every raw packet (or candidate byte buffer) to :meth:`receive`;
    malformed buffers and foreign packet types are counted and ignored.
    The LT decoder is constructed lazily from the first valid FOUNTAIN
    header: ``symbol_size`` is the header's length field, ``k`` follows
    from the total length, and the fountain seed is the session id.  A
    new session id resets the receiver (the signage moved on to the next
    payload).
    """

    def __init__(self) -> None:
        self.session_id: int | None = None
        self.decoder: LTDecoder | None = None
        self.n_received = 0
        self.n_rejected = 0
        self._join_offset: int | None = None

    def receive(self, raw: bytes) -> bool:
        """Ingest one raw packet; returns True if it advanced the decode."""
        try:
            packet = parse_packet(raw)
        except PacketFormatError:
            self.n_rejected += 1
            return False
        header = packet.header
        if header.ptype != PacketType.FOUNTAIN:
            return False
        if header.length < 1 or header.total_len < 1:
            self.n_rejected += 1
            return False
        if self.session_id is not None and header.session_id != self.session_id:
            self._reset()
        if self.decoder is None:
            self.session_id = header.session_id
            k = (header.total_len + header.length - 1) // header.length
            self.decoder = LTDecoder(
                k, header.length, header.total_len, seed=header.session_id
            )
        self.n_received += 1
        if self._join_offset is None:
            self._join_offset = int(header.seq)
        return self.decoder.add_symbol(header.seq, packet.payload)

    def _reset(self) -> None:
        self.session_id = None
        self.decoder = None
        self.n_received = 0
        self.n_rejected = 0
        self._join_offset = None

    @property
    def complete(self) -> bool:
        """True when the payload is fully recovered."""
        return self.decoder is not None and self.decoder.complete

    @property
    def join_offset(self) -> int | None:
        """Symbol id of the first packet accepted this session.

        The carousel has no session setup, so where in the cycle a
        receiver tuned in is exactly this first header's ``seq``;
        cohort time-to-join analytics read it straight off the
        receiver instead of reconstructing it from packet logs.
        """
        return self._join_offset

    @property
    def symbols_consumed(self) -> int:
        """Distinct fountain symbols the decoder has ingested.

        Unlike :attr:`n_received` (every accepted packet, including the
        carousel's re-airs of symbols already held), this counts only
        symbols that entered the decode -- the quantity rateless-code
        overhead is measured in.
        """
        return 0 if self.decoder is None else self.decoder.n_received

    def payload(self) -> bytes:
        """The recovered payload (requires :attr:`complete`)."""
        if self.decoder is None:
            raise ValueError("no fountain packets received yet")
        return self.decoder.data()
