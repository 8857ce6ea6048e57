"""Transport layer over the InFrame PHY.

Turns the one-shot :func:`~repro.core.pipeline.run_link` physical layer
into a sessionful data channel:

* :mod:`~repro.transport.packet` -- self-describing packet headers
  (magic, session, sequence, lengths, CRC-16) and
  :class:`FramePacketCodec`, which maps whole packets onto single data
  frames with inner RS erasure protection;
* :mod:`~repro.transport.fountain` -- rateless LT coding (robust-soliton
  degrees, peeling decoder) so any ``k(1+eps)`` received packets recover
  the payload regardless of which loss bursts occurred;
* :mod:`~repro.transport.arq` -- NACK-driven selective retransmission
  with timeout/backoff over a simulated feedback channel;
* :mod:`~repro.transport.carousel` -- a broadcast carousel cycling
  fountain packets for receivers that join mid-stream;
* :mod:`~repro.transport.erasures` -- GOB-loss channel models for
  benchmarks and stress experiments.

The end-to-end entry point is
:func:`repro.core.pipeline.run_transport_link`; the CLI is
``python -m repro.tools.transfer``.
"""

from repro.transport.arq import (
    ArqReceiver,
    ArqSender,
    ArqSession,
    ArqStats,
    parse_nack,
)
from repro.transport.carousel import (
    BroadcastCarousel,
    CarouselReceiver,
    fountain_batch,
)
from repro.transport.erasures import GobLossModel, simulate_packet_channel
from repro.transport.fountain import (
    LTDecoder,
    LTEncoder,
    robust_soliton_distribution,
)
from repro.transport.packet import (
    FLAG_FIN,
    HEADER_BYTES,
    MAGIC,
    PACKET_OVERHEAD,
    FramePacketCodec,
    Packet,
    PacketFormatError,
    PacketHeader,
    PacketSchedule,
    PacketType,
    build_packet,
    parse_header,
    parse_packet,
    scan_packets,
)

__all__ = [
    "ArqReceiver",
    "ArqSender",
    "ArqSession",
    "ArqStats",
    "BroadcastCarousel",
    "CarouselReceiver",
    "FLAG_FIN",
    "FramePacketCodec",
    "GobLossModel",
    "HEADER_BYTES",
    "LTDecoder",
    "LTEncoder",
    "MAGIC",
    "PACKET_OVERHEAD",
    "Packet",
    "PacketFormatError",
    "PacketHeader",
    "PacketSchedule",
    "PacketType",
    "build_packet",
    "fountain_batch",
    "parse_header",
    "parse_nack",
    "parse_packet",
    "robust_soliton_distribution",
    "scan_packets",
    "simulate_packet_channel",
]
