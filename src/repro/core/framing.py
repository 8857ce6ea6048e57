"""Framing: payload bytes <-> data-frame bit grids.

Three schedules feed the multiplexer:

* :class:`ZeroSchedule` -- all-zero grids (carrier off; control condition);
* :class:`PseudoRandomSchedule` -- seeded random bits, the paper's workload
  ("a pseudo-random data generator with a pre-set seed");
* :class:`PayloadSchedule` -- real byte payloads protected by CRC-16,
  Reed-Solomon coding and interleaving, consumed on the receive side by
  :class:`PayloadAssembler`.

The payload pipeline (sender):

1. ``buffer = length(4B, big-endian) || payload || crc16(payload)``;
2. pad to a whole number of RS messages, one RS(n, k) codeword each;
3. interleave the codeword bytes (rows = codewords, cols = n) so a
   rolling-shutter burst erases a few bytes of *many* codewords instead of
   many bytes of one;
4. unpack to bits, slice into ``bits_per_frame`` chunks (zero-padded), and
   lay each chunk on the Block grid with GOB parity.

The receiver reverses the pipeline, converting unavailable GOBs into byte
erasures for the RS decoder -- the receiver shares the sender's
:class:`FramingPlan` out of band, the way a channel profile would be
provisioned.  For a sessionful channel with self-describing headers (no
out-of-band plan), rateless coding and retransmission, see
:mod:`repro.transport`, which reuses this module's bit-grid slicing via
:func:`slice_bits_to_frames` and :func:`decoded_frame_bits`.

Erasure amplification: a GOB carries 3 bits, so one message byte spans 3-4
GOBs and a GOB-loss rate ``p`` becomes a byte-erasure rate of roughly
``1 - (1 - p)**3.5``.  Size the RS overhead accordingly (parity fraction
comfortably above the amplified rate), or rely on the schedule cycling --
retransmission passes shrink the *unknown* GOB set geometrically, which is
how the lossy video-content channel delivers payloads in practice.
"""

from __future__ import annotations

from dataclasses import dataclass

import numpy as np

from repro.core.config import InFrameConfig
from repro.core.decoder import DecodedDataFrame
from repro.core.parity import data_bits_to_grid, grid_to_data_bits
from repro.ecc.crc import crc16_append, crc16_verify
from repro.ecc.interleaver import BlockInterleaver, decode_interleaved
from repro.ecc.reed_solomon import ReedSolomonCodec, RSDecodingError


class FrameFormatError(ValueError):
    """Raised when a received payload fails structural or integrity checks."""


# ----------------------------------------------------------------------
# Bit-grid slicing (shared by the payload pipeline and repro.transport)
# ----------------------------------------------------------------------
def slice_bits_to_frames(bits: np.ndarray, config: InFrameConfig) -> np.ndarray:
    """Slice a flat bit vector into per-data-frame rows (zero-padded).

    Returns a ``(n_frames, bits_per_frame)`` boolean array; the last row
    is padded with zeros.  This is the sender-side slicing both
    :class:`PayloadSchedule` and the transport packetizer use before
    laying each row on the Block grid with :func:`data_bits_to_grid`.
    """
    bits = np.asarray(bits).ravel().astype(np.uint8)
    per_frame = config.bits_per_frame
    n_frames = max(1, (bits.size + per_frame - 1) // per_frame)
    padded = np.zeros(n_frames * per_frame, dtype=np.uint8)
    padded[: bits.size] = bits
    return padded.reshape(n_frames, per_frame).astype(bool)


def decoded_frame_bits(
    decoded: DecodedDataFrame, config: InFrameConfig
) -> tuple[np.ndarray, np.ndarray]:
    """Extract one decoded frame's data bits and their known-mask.

    Returns ``(bits, known)``, both of length ``config.bits_per_frame``.
    A bit is *known* when its GOB was available and its GOB code checked
    out; everything else must be treated as an erasure.  This is the
    receiver-side inverse of :func:`slice_bits_to_frames`, shared by
    :class:`PayloadAssembler` and the transport frame codec.
    """
    bits = grid_to_data_bits(decoded.bits, config)
    gob_ok = decoded.gob_available & decoded.gob_parity_ok
    m = config.gob_size
    block_mask = np.kron(gob_ok, np.ones((m, m), dtype=bool))
    known = grid_to_data_bits(block_mask, config)
    return bits, known


class ZeroSchedule:
    """All-zero data frames: the multiplexed stream equals the plain video."""

    def __init__(self, config: InFrameConfig) -> None:
        self.config = config
        self._grid = np.zeros((config.block_rows, config.block_cols), dtype=bool)

    def bits(self, index: int) -> np.ndarray:
        """Return the all-zero grid for any index."""
        return self._grid


class PseudoRandomSchedule:
    """Seeded random data frames (the paper's experimental workload)."""

    def __init__(self, config: InFrameConfig, seed: int = 2014) -> None:
        self.config = config
        self.seed = int(seed)

    def bits(self, index: int) -> np.ndarray:
        """Grid for data frame *index*: random data bits plus GOB parity."""
        if index < 0:
            raise IndexError(f"data frame index must be >= 0, got {index}")
        rng = np.random.default_rng((self.seed, index))
        data = rng.random(self.config.bits_per_frame) < 0.5
        return data_bits_to_grid(data, self.config)

    def data_bits(self, index: int) -> np.ndarray:
        """The data bits (without parity) for data frame *index*."""
        rng = np.random.default_rng((self.seed, index))
        return rng.random(self.config.bits_per_frame) < 0.5


@dataclass(frozen=True)
class FramingPlan:
    """Out-of-band parameters shared by sender and receiver."""

    rs_n: int = 60
    rs_k: int = 40
    n_codewords: int = 0  # filled in by PayloadSchedule

    @property
    def message_bytes(self) -> int:
        """Total interleaved message size in bytes."""
        return self.n_codewords * self.rs_n


class PayloadSchedule:
    """Carry a byte payload across data frames with CRC + RS + interleaving.

    Parameters
    ----------
    config:
        InFrame parameters (defines bits per data frame).
    payload:
        The bytes to deliver.
    rs_n, rs_k:
        Reed-Solomon codeword/message sizes.

    The whole message cycles forever, so streams longer than one message
    keep retransmitting (receivers combine passes).
    """

    def __init__(
        self,
        config: InFrameConfig,
        payload: bytes,
        rs_n: int = 60,
        rs_k: int = 40,
    ) -> None:
        if not payload:
            raise ValueError("payload must not be empty")
        self.config = config
        self.payload = bytes(payload)
        codec = ReedSolomonCodec(rs_n, rs_k)
        buffer = len(self.payload).to_bytes(4, "big") + crc16_append(self.payload)
        if len(buffer) % rs_k:
            buffer += bytes(rs_k - len(buffer) % rs_k)
        codewords = [
            codec.encode(buffer[i : i + rs_k]) for i in range(0, len(buffer), rs_k)
        ]
        self.plan = FramingPlan(rs_n=rs_n, rs_k=rs_k, n_codewords=len(codewords))
        interleaver = BlockInterleaver(len(codewords), rs_n)
        message = interleaver.interleave(b"".join(codewords))
        bits = np.unpackbits(np.frombuffer(message, dtype=np.uint8))
        self._frame_bits = slice_bits_to_frames(bits, config)

    @property
    def n_payload_frames(self) -> int:
        """Data frames one full message occupies."""
        return self._frame_bits.shape[0]

    def bits(self, index: int) -> np.ndarray:
        """Grid for data frame *index* (the message cycles)."""
        if index < 0:
            raise IndexError(f"data frame index must be >= 0, got {index}")
        frame_bits = self._frame_bits[index % self.n_payload_frames]
        return data_bits_to_grid(frame_bits, self.config)


class PayloadAssembler:
    """Receiver-side inverse of :class:`PayloadSchedule`.

    Feed it decoded data frames (any order, duplicates allowed -- later
    passes fill GOBs earlier passes missed) and call :meth:`payload` to
    attempt reconstruction.

    Parameters
    ----------
    config, plan:
        The sender's configuration and framing plan.

    Repeated observations of the same bit across retransmission passes
    keep the first confident reading.
    """

    def __init__(self, config: InFrameConfig, plan: FramingPlan) -> None:
        if plan.n_codewords < 1:
            raise ValueError("plan.n_codewords must be set (take it from the sender)")
        self.config = config
        self.plan = plan
        total_bits = plan.message_bytes * 8
        per_frame = config.bits_per_frame
        self.n_payload_frames = (total_bits + per_frame - 1) // per_frame
        n_slots = self.n_payload_frames * per_frame
        self._bits = np.zeros(n_slots, dtype=bool)
        self._known = np.zeros(n_slots, dtype=bool)

    # ------------------------------------------------------------------
    # Accumulation
    # ------------------------------------------------------------------
    def add_frame(self, decoded: DecodedDataFrame) -> None:
        """Merge one decoded data frame's available GOBs into the message."""
        slot = decoded.index % self.n_payload_frames
        frame_bits, frame_known = decoded_frame_bits(decoded, self.config)
        start = slot * self.config.bits_per_frame
        stop = start + self.config.bits_per_frame
        fresh = frame_known & ~self._known[start:stop]
        self._bits[start:stop][fresh] = frame_bits[fresh]
        self._known[start:stop] |= frame_known

    def coverage(self) -> float:
        """Fraction of message bits currently known."""
        return float(self._known[: self.plan.message_bytes * 8].mean())

    # ------------------------------------------------------------------
    # Reconstruction
    # ------------------------------------------------------------------
    def payload(self) -> bytes:
        """Reconstruct and verify the payload.

        Raises
        ------
        FrameFormatError:
            If too many codewords are uncorrectable or the CRC/length
            checks fail.
        """
        total_bits = self.plan.message_bytes * 8
        try:
            buffer = decode_interleaved(
                self._bits[:total_bits],
                self._known[:total_bits],
                BlockInterleaver(self.plan.n_codewords, self.plan.rs_n),
                ReedSolomonCodec(self.plan.rs_n, self.plan.rs_k),
            )
        except RSDecodingError as exc:
            raise FrameFormatError(str(exc)) from exc
        length = int.from_bytes(buffer[:4], "big")
        if not (0 < length <= len(buffer) - 6):
            raise FrameFormatError(f"implausible payload length {length}")
        payload_with_crc = bytes(buffer[4 : 4 + length + 2])
        if not crc16_verify(payload_with_crc):
            raise FrameFormatError("payload CRC mismatch after RS decoding")
        return payload_with_crc[:-2]
