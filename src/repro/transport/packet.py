"""Transport packets: a compact self-describing header over the PHY.

The physical layer delivers data frames whose GOBs may be individually
erased; :mod:`repro.core.framing` recovers payloads from them only when
sender and receiver share a :class:`~repro.core.framing.FramingPlan` out
of band.  The transport layer removes that requirement: every packet
carries an 18-byte header that fully describes the session, so a receiver
can bootstrap from the packets alone (including one that joins an ongoing
broadcast mid-stream).

Header layout (big-endian, 18 bytes)::

    offset  size  field
    0       2     magic  b"IF"
    2       1     version (high nibble) | packet type (low nibble)
    3       1     flags   (bit 0: FIN -- last packet of a DATA stream)
    4       2     session id
    6       4     seq     (byte offset for DATA, symbol id for FOUNTAIN,
                           feedback round for NACK)
    10      4     total length of the payload object in bytes
    14      2     length of this packet's payload in bytes
    16      2     CRC-16/CCITT-FALSE over bytes 0..15

The header CRC lets a receiver reject frames whose inner RS decode
miscorrected; the payload is separately protected by a trailing CRC-16,
so a packet on the wire is ``header || payload || crc16(payload)``.

:class:`FramePacketCodec` maps whole packets onto single data frames: the
packet bytes are Reed-Solomon coded and interleaved to fill the frame's
bit budget, so a handful of erased GOBs is corrected in place and a burst
beyond the RS radius costs exactly one packet -- turning the PHY into the
packet-erasure channel the fountain and ARQ layers are built for.
"""

from __future__ import annotations

import struct
from dataclasses import dataclass
from enum import IntEnum

import numpy as np

from repro._util import check_positive_int
from repro.core.config import InFrameConfig
from repro.core.decoder import DecodedDataFrame
from repro.core.framing import decoded_frame_bits, slice_bits_to_frames
from repro.core.parity import data_bits_to_grid
from repro.ecc.crc import crc16_append, crc16_bytes, crc16_verify
from repro.ecc.interleaver import BlockInterleaver, decode_interleaved
from repro.ecc.reed_solomon import ReedSolomonCodec, RSDecodingError

MAGIC = b"IF"
VERSION = 1

#: Fixed header size in bytes.
HEADER_BYTES = 18
#: Header plus the trailing payload CRC-16.
PACKET_OVERHEAD = HEADER_BYTES + 2

#: Last packet of a sequential DATA stream.
FLAG_FIN = 0x01

_HEADER = struct.Struct(">2sBBHIIH")


class PacketType(IntEnum):
    """Packet types carried in the header's low type nibble."""

    DATA = 0x1  #: sequential payload chunk; ``seq`` is the byte offset
    FOUNTAIN = 0x2  #: LT-coded symbol; ``seq`` is the encoding-symbol id
    NACK = 0x3  #: feedback listing missing byte ranges
    ACK = 0x4  #: feedback confirming complete delivery


class PacketFormatError(ValueError):
    """Raised when a byte buffer is not a well-formed transport packet."""


@dataclass(frozen=True)
class PacketHeader:
    """Parsed header fields (see the module docstring for the layout)."""

    ptype: PacketType
    session_id: int
    seq: int
    total_len: int
    length: int
    flags: int = 0
    version: int = VERSION

    def to_bytes(self) -> bytes:
        """Serialize, appending the header CRC."""
        if not (0 <= self.session_id <= 0xFFFF):
            raise ValueError(f"session_id out of range: {self.session_id}")
        if not (0 <= self.seq <= 0xFFFFFFFF):
            raise ValueError(f"seq out of range: {self.seq}")
        if not (0 <= self.total_len <= 0xFFFFFFFF):
            raise ValueError(f"total_len out of range: {self.total_len}")
        if not (0 <= self.length <= 0xFFFF):
            raise ValueError(f"length out of range: {self.length}")
        body = _HEADER.pack(
            MAGIC,
            (self.version << 4) | int(self.ptype),
            self.flags,
            self.session_id,
            self.seq,
            self.total_len,
            self.length,
        )
        return body + crc16_bytes(body)


@dataclass(frozen=True)
class Packet:
    """One parsed transport packet."""

    header: PacketHeader
    payload: bytes

    def to_bytes(self) -> bytes:
        """The on-the-wire form: ``header || payload || crc16(payload)``."""
        return self.header.to_bytes() + crc16_append(self.payload)

    @property
    def wire_bytes(self) -> int:
        """Total serialized size in bytes."""
        return PACKET_OVERHEAD + len(self.payload)


def build_packet(
    ptype: PacketType,
    session_id: int,
    seq: int,
    payload: bytes,
    total_len: int,
    flags: int = 0,
) -> bytes:
    """Serialize one packet; the convenience inverse of :func:`parse_packet`."""
    header = PacketHeader(
        ptype=PacketType(ptype),
        session_id=session_id,
        seq=seq,
        total_len=total_len,
        length=len(payload),
        flags=flags,
    )
    return Packet(header, bytes(payload)).to_bytes()


def parse_header(buffer: bytes) -> PacketHeader:
    """Parse and verify the 18-byte header at the start of *buffer*."""
    buf = bytes(buffer)
    if len(buf) < HEADER_BYTES:
        raise PacketFormatError(f"buffer too short for header: {len(buf)} bytes")
    body, crc = buf[: HEADER_BYTES - 2], buf[HEADER_BYTES - 2 : HEADER_BYTES]
    if crc16_bytes(body) != crc:
        raise PacketFormatError("header CRC mismatch")
    magic, vt, flags, session_id, seq, total_len, length = _HEADER.unpack(body)
    if magic != MAGIC:
        raise PacketFormatError(f"bad magic {magic!r}")
    version, type_code = vt >> 4, vt & 0x0F
    if version != VERSION:
        raise PacketFormatError(f"unsupported version {version}")
    try:
        ptype = PacketType(type_code)
    except ValueError as exc:
        raise PacketFormatError(f"unknown packet type {type_code}") from exc
    return PacketHeader(
        ptype=ptype,
        session_id=session_id,
        seq=seq,
        total_len=total_len,
        length=length,
        flags=flags,
        version=version,
    )


def parse_packet(buffer: bytes) -> Packet:
    """Parse the packet at the start of *buffer* (trailing bytes ignored).

    Trailing bytes beyond the header's declared length are permitted --
    a packet recovered from a data frame arrives padded to the frame's
    byte capacity.

    Raises
    ------
    PacketFormatError:
        On truncation, bad magic, or a header/payload CRC mismatch.
    """
    buf = bytes(buffer)
    header = parse_header(buf)
    end = HEADER_BYTES + header.length + 2
    if len(buf) < end:
        raise PacketFormatError(
            f"buffer truncated: need {end} bytes, have {len(buf)}"
        )
    body = buf[HEADER_BYTES:end]
    if not crc16_verify(body):
        raise PacketFormatError("payload CRC mismatch")
    return Packet(header, body[:-2])


def scan_packets(stream: bytes) -> list[Packet]:
    """Extract every well-formed packet from a byte stream.

    Resynchronises on the magic after corruption, so a damaged region
    costs only the packets it covers.
    """
    buf = bytes(stream)
    packets: list[Packet] = []
    offset = 0
    while offset + HEADER_BYTES <= len(buf):
        index = buf.find(MAGIC, offset)
        if index < 0:
            break
        try:
            packet = parse_packet(buf[index:])
        except PacketFormatError:
            offset = index + 1
            continue
        packets.append(packet)
        offset = index + packet.wire_bytes
    return packets


class FramePacketCodec:
    """Map whole transport packets onto single data frames.

    Each packet is padded to the frame's byte capacity, split into
    ``n_codewords`` RS(n, k) messages, encoded, byte-interleaved across
    the codewords and laid on the Block grid.  On receive, unavailable
    GOBs become byte erasures; if every codeword decodes, the recovered
    bytes are returned for packet parsing, otherwise the frame is a
    packet erasure.

    Parameters
    ----------
    config:
        The InFrame parameters (fix the per-frame bit budget).
    rs_n, rs_k:
        The inner Reed-Solomon code; ``bits_per_frame // 8`` must fit at
        least one codeword, and ``n_codewords * rs_k`` must exceed
        :data:`PACKET_OVERHEAD` so a packet has room for payload.
    """

    def __init__(self, config: InFrameConfig, rs_n: int = 60, rs_k: int = 40) -> None:
        check_positive_int(rs_n, "rs_n")
        check_positive_int(rs_k, "rs_k")
        self.config = config
        self.rs_n = rs_n
        self.rs_k = rs_k
        frame_bytes = config.bits_per_frame // 8
        self.n_codewords = frame_bytes // rs_n
        if self.n_codewords < 1:
            raise ValueError(
                f"frame capacity {frame_bytes}B cannot hold one RS({rs_n},{rs_k}) "
                f"codeword; use a smaller code or a larger Block grid"
            )
        self.frame_payload_bytes = self.n_codewords * rs_k
        self.max_payload_bytes = self.frame_payload_bytes - PACKET_OVERHEAD
        if self.max_payload_bytes < 1:
            raise ValueError(
                f"frame payload {self.frame_payload_bytes}B leaves no room after "
                f"the {PACKET_OVERHEAD}B packet overhead"
            )
        self._codec = ReedSolomonCodec(rs_n, rs_k)
        self._interleaver = BlockInterleaver(self.n_codewords, rs_n)

    def encode(self, packet_bytes: bytes) -> np.ndarray:
        """One packet -> a Block bit grid (with GOB coding) for one frame."""
        buf = bytes(packet_bytes)
        if len(buf) > self.frame_payload_bytes:
            raise ValueError(
                f"packet of {len(buf)}B exceeds frame payload "
                f"{self.frame_payload_bytes}B"
            )
        buf = buf.ljust(self.frame_payload_bytes, b"\x00")
        codewords = b"".join(
            self._codec.encode(buf[i : i + self.rs_k])
            for i in range(0, len(buf), self.rs_k)
        )
        message = self._interleaver.interleave(codewords)
        bits = np.unpackbits(np.frombuffer(message, dtype=np.uint8))
        frame_bits = slice_bits_to_frames(bits, self.config)
        if frame_bits.shape[0] != 1:
            raise ValueError("internal error: packet bits overflow one frame")
        return data_bits_to_grid(frame_bits[0], self.config)

    def decode(self, decoded: DecodedDataFrame) -> bytes | None:
        """One decoded data frame -> the packet bytes it carried, or None.

        Returns ``None`` when any inner codeword is beyond the erasure
        radius -- the frame then counts as a lost packet.  The returned
        buffer still carries the frame padding; :func:`parse_packet`
        ignores it.
        """
        bits, known = decoded_frame_bits(decoded, self.config)
        return self.decode_bits(bits, known)

    def decode_bits(self, bits: np.ndarray, known: np.ndarray) -> bytes | None:
        """Decode from accumulated frame bits and their known-mask.

        Split out from :meth:`decode` so a receiver can merge several
        observations of the same packet slot (the display airs a batch
        cyclically) before spending the RS budget -- the same
        first-confident accumulation :class:`~repro.core.framing.PayloadAssembler`
        uses, but per packet.
        """
        used = self.n_codewords * self.rs_n * 8
        try:
            return decode_interleaved(
                bits[:used], known[:used], self._interleaver, self._codec
            )
        except RSDecodingError:
            return None


class PacketSlotAccumulator:
    """Merge repeated observations of packet slots before RS decoding.

    The display airs a packet batch cyclically for the clip's duration,
    so most slots are observed more than once per pass; each observation
    misses a different set of GOBs.  Accumulating known bits per slot
    (first confident reading wins, as in
    :class:`~repro.core.framing.PayloadAssembler`) shrinks the residual
    erasure set geometrically before the RS budget is spent.
    """

    def __init__(self, codec: FramePacketCodec, n_slots: int) -> None:
        check_positive_int(n_slots, "n_slots")
        self.codec = codec
        self.n_slots = n_slots
        per_frame = codec.config.bits_per_frame
        self._bits = np.zeros((n_slots, per_frame), dtype=bool)
        self._known = np.zeros((n_slots, per_frame), dtype=bool)
        self._observations = np.zeros(n_slots, dtype=np.int64)

    def add_frame(self, decoded: DecodedDataFrame) -> None:
        """Merge one decoded data frame into its slot (index mod n_slots)."""
        slot = decoded.index % self.n_slots
        bits, known = decoded_frame_bits(decoded, self.codec.config)
        fresh = known & ~self._known[slot]
        self._bits[slot][fresh] = bits[fresh]
        self._known[slot] |= known
        self._observations[slot] += 1

    def observations(self, slot: int) -> int:
        """How many decoded frames have been merged into *slot*."""
        if not (0 <= slot < self.n_slots):
            raise IndexError(f"slot {slot} outside [0, {self.n_slots})")
        return int(self._observations[slot])

    def decode_slot(self, slot: int) -> bytes | None:
        """RS-decode one slot from the evidence merged so far.

        Returns ``None`` for unobserved slots and for slots still beyond
        the erasure radius.  A carousel receiver calls this after each
        merged frame to deliver packets the moment they become
        decodable, instead of waiting for the end-of-round
        :meth:`decode_packets` sweep.
        """
        if not self.observations(slot):
            return None
        return self.codec.decode_bits(self._bits[slot], self._known[slot])

    def decode_packets(self) -> list[bytes]:
        """RS-decode every observed slot; undecodable slots are skipped."""
        raws: list[bytes] = []
        for slot in range(self.n_slots):
            raw = self.decode_slot(slot)
            if raw is not None:
                raws.append(raw)
        return raws


class PacketSchedule:
    """A :class:`~repro.core.multiplexer.DataFrameSchedule` serving packets.

    Data frame *i* carries ``packets[i % len(packets)]``; cycling means a
    stream longer than one pass retransmits the batch, and the transport
    receivers deduplicate by header.
    """

    def __init__(
        self,
        config: InFrameConfig,
        codec: FramePacketCodec,
        packets: list[bytes],
    ) -> None:
        if not packets:
            raise ValueError("need at least one packet")
        self.config = config
        self.codec = codec
        self._grids = [codec.encode(p) for p in packets]

    @property
    def n_packets(self) -> int:
        """Packets in one pass of the batch."""
        return len(self._grids)

    def bits(self, index: int) -> np.ndarray:
        """Grid for data frame *index* (the batch cycles)."""
        if index < 0:
            raise IndexError(f"data frame index must be >= 0, got {index}")
        return self._grids[index % self.n_packets]
