"""GOB-loss channel models for transport experiments.

Two uses:

* inside :func:`repro.core.pipeline.run_transport_link`, an *extra* loss
  process stacked on the PHY's own impairments, so experiments can dial
  the erasure rate past what the content alone produces (occlusions,
  hands in front of the signage, harsher rolling-shutter bands);
* in :mod:`benchmarks.bench_transport` and unit tests, a fast synthetic
  packet channel -- perfect bit decisions, masked availability -- that
  sweeps loss rates without simulating photons.

Bursts erase contiguous GOB *rows*, matching the dominant real loss
shape: a rolling-shutter band cancels the chessboard across a horizontal
stripe of the frame.
"""

from __future__ import annotations

from dataclasses import dataclass, replace

import numpy as np

from repro._util import check_in_range
from repro.core.decoder import DecodedDataFrame
from repro.transport.packet import FramePacketCodec

#: Mean height of a burst band, in GOB rows.
_MEAN_BURST_ROWS = 3


@dataclass(frozen=True)
class GobLossModel:
    """Random or bursty GOB erasures at a target rate.

    Attributes
    ----------
    rate:
        Expected fraction of GOBs erased per frame.
    burst:
        If True, losses arrive as contiguous GOB-row bands (the
        rolling-shutter shape, three rows high on average) instead of
        independent GOBs.
    """

    rate: float
    burst: bool = False

    def __post_init__(self) -> None:
        check_in_range(self.rate, "rate", 0.0, 1.0)

    def mask(
        self, gob_shape: tuple[int, int], rng: np.random.Generator
    ) -> np.ndarray:
        """One frame's erasure mask over the GOB grid (True = erased)."""
        rows, cols = gob_shape
        if self.rate <= 0.0:
            return np.zeros(gob_shape, dtype=bool)
        if not self.burst:
            return rng.random(gob_shape) < self.rate
        mask = np.zeros(gob_shape, dtype=bool)
        target = self.rate * rows * cols
        # Draw geometric-length bands at random rows until the target
        # erased mass is reached.
        while mask.sum() < target:
            height = min(rows, 1 + int(rng.geometric(1.0 / _MEAN_BURST_ROWS)))
            top = int(rng.integers(0, rows))
            mask[top : top + height, :] = True
            if mask.all():
                break
        return mask

    def degrade(
        self, decoded: DecodedDataFrame, rng: np.random.Generator
    ) -> DecodedDataFrame:
        """A copy of *decoded* with extra GOBs marked unavailable."""
        erased = self.mask(decoded.gob_available.shape, rng)
        return replace(decoded, gob_available=decoded.gob_available & ~erased)


def perfect_frame(
    codec: FramePacketCodec, packet_bytes: bytes, index: int = 0
) -> DecodedDataFrame:
    """A noiselessly decoded data frame carrying one packet.

    The synthetic starting point for loss sweeps: bits are exact and every
    GOB available; apply a :class:`GobLossModel` to knock GOBs out.
    """
    config = codec.config
    grid = codec.encode(packet_bytes)
    gob_shape = (config.gob_rows, config.gob_cols)
    return DecodedDataFrame(
        index=index,
        bits=grid,
        confident=np.ones_like(grid, dtype=bool),
        gob_available=np.ones(gob_shape, dtype=bool),
        gob_parity_ok=np.ones(gob_shape, dtype=bool),
        noise_map=np.zeros(grid.shape, dtype=np.float32),
        threshold=0.0,
        n_captures=1,
    )


def simulate_packet_channel(
    codec: FramePacketCodec,
    packets: list[bytes],
    loss: GobLossModel,
    rng: np.random.Generator,
) -> list[bytes]:
    """Run packets through encode -> GOB loss -> frame decode.

    Returns the raw packet buffers that survive (frame padding included,
    as on the real link); frames whose inner RS decode fails are dropped.
    """
    delivered: list[bytes] = []
    for index, packet in enumerate(packets):
        frame = loss.degrade(perfect_frame(codec, packet, index=index), rng)
        raw = codec.decode(frame)
        if raw is not None:
            delivered.append(raw)
    return delivered
