"""Transport schemes under GOB loss: plain RS vs fountain vs ARQ.

The PHY turns display impairments into *frame* erasures: a packet's frame
either survives its inner RS decode or the whole packet is gone.  This
bench sweeps a bursty GOB-loss channel (the rolling-shutter band shape)
over the three delivery schemes in :mod:`repro.transport`:

* ``plain``    -- sequential DATA packets, one pass, no feedback (the
  RS-only baseline of the seed repo's file-transfer example);
* ``fountain`` -- rateless LT packets, no feedback, send until decoded;
* ``arq``      -- NACK-driven selective retransmission.

The loss sweep uses the synthetic packet channel (perfect bit decisions,
masked GOB availability) so many cells stay cheap; a second table runs
the full photon pipeline on textured content at quick scale, where the
content itself defeats a single plain pass.
"""

from __future__ import annotations

import numpy as np
import pytest

from repro.analysis.experiments import ExperimentScale
from repro.analysis.reporting import format_table
from repro.core.config import InFrameConfig
from repro.core.pipeline import run_transport_link
from repro.transport import (
    ArqReceiver,
    ArqSender,
    ArqSession,
    BroadcastCarousel,
    CarouselReceiver,
    FramePacketCodec,
    GobLossModel,
    fountain_batch,
    simulate_packet_channel,
)

from conftest import run_once

LOSS_RATES = (0.0, 0.1, 0.2, 0.3, 0.4)
N_TRIALS = 8
PAYLOAD_BYTES = 300
MAX_ROUNDS = 8

# Full-size grid (30x50 Blocks) with tiny pixels: the synthetic channel
# never renders pixels, so only the bit geometry matters.
CONFIG = InFrameConfig(element_pixels=1, pixels_per_block=2)
CODEC = FramePacketCodec(CONFIG, rs_n=60, rs_k=24)


def _deliver(mode: str, loss_rate: float, seed: int) -> dict:
    """One payload delivery over the synthetic GOB-loss channel."""
    rng = np.random.default_rng((seed, int(loss_rate * 1000)))
    payload = rng.integers(0, 256, PAYLOAD_BYTES, dtype=np.uint8).tobytes()
    loss = GobLossModel(loss_rate, burst=True)
    chunk = CODEC.max_payload_bytes
    k = (len(payload) + chunk - 1) // chunk
    counters = {"sent": 0, "rounds": 0}

    def forward(packets: list[bytes]) -> list[bytes]:
        counters["rounds"] += 1
        counters["sent"] += len(packets)
        return simulate_packet_channel(CODEC, packets, loss, rng)

    delivered: bytes | None = None
    if mode == "plain":
        receiver = ArqReceiver()
        for raw in forward(ArqSender(payload, chunk).all_packets()):
            receiver.receive(raw)
        if receiver.complete:
            delivered = receiver.payload()
    elif mode == "arq":
        session = ArqSession(
            payload, chunk, forward, max_rounds=MAX_ROUNDS, rng=rng
        )
        _, delivered = session.run()
    elif mode == "fountain":
        carousel = BroadcastCarousel(payload, chunk)
        receiver = CarouselReceiver()
        next_seq = 0
        for _ in range(MAX_ROUNDS):
            missing = (
                carousel.k if receiver.decoder is None else receiver.decoder.n_missing
            )
            batch = fountain_batch(missing)
            for raw in forward(carousel.packets(next_seq, batch)):
                receiver.receive(raw)
            next_seq += batch
            if receiver.complete:
                break
        if receiver.complete:
            delivered = receiver.payload()
    else:
        raise ValueError(mode)
    return {
        "ok": delivered == payload,
        "sent": counters["sent"],
        "rounds": counters["rounds"],
        "overhead": counters["sent"] / k,
    }


@pytest.fixture(scope="module")
def sweep():
    results = {}
    for loss_rate in LOSS_RATES:
        for mode in ("plain", "fountain", "arq"):
            trials = [_deliver(mode, loss_rate, seed) for seed in range(N_TRIALS)]
            results[loss_rate, mode] = {
                "rate": sum(t["ok"] for t in trials) / N_TRIALS,
                "overhead": np.mean([t["overhead"] for t in trials]),
                "rounds": np.mean([t["rounds"] for t in trials]),
            }
    return results


def test_transport_loss_sweep(benchmark, emit, sweep):
    rows = [
        [
            f"{loss_rate * 100:.0f}%",
            mode,
            f"{cell['rate'] * 100:.0f}%",
            f"{cell['overhead']:.2f}x",
            f"{cell['rounds']:.1f}",
        ]
        for (loss_rate, mode), cell in sweep.items()
    ]
    emit(
        "transport_loss_sweep",
        format_table(
            ["GOB loss", "scheme", "delivery", "sent/k", "rounds"],
            rows,
            title=(
                f"Transport delivery vs bursty GOB loss "
                f"({PAYLOAD_BYTES} B payload, RS(60,24), {N_TRIALS} trials)"
            ),
        ),
    )
    run_once(benchmark, lambda: _deliver("fountain", 0.3, seed=99))

    # Lossless floor: everyone delivers in one round.  Plain and ARQ hit
    # the 1.0x overhead floor exactly; open-loop fountain still pays its
    # provisioning margin (it cannot know the channel was clean).
    for mode in ("plain", "fountain", "arq"):
        assert sweep[0.0, mode]["rate"] == 1.0
        assert sweep[0.0, mode]["rounds"] == 1.0
    assert sweep[0.0, "plain"]["overhead"] == 1.0
    assert sweep[0.0, "arq"]["overhead"] == 1.0
    assert sweep[0.0, "fountain"]["overhead"] <= 1.5

    # One open-loop pass cannot survive bursty loss; the feedback (ARQ)
    # and rateless (fountain) schemes keep delivering.
    assert sweep[0.3, "plain"]["rate"] < 0.5
    assert sweep[0.3, "fountain"]["rate"] == 1.0
    assert sweep[0.3, "arq"]["rate"] == 1.0

    # Redundancy scales with the channel, not a worst-case provision:
    # fountain overhead grows with loss but stays far below blanket
    # repetition of the whole batch every round.
    assert sweep[0.1, "fountain"]["overhead"] < sweep[0.4, "fountain"]["overhead"]
    assert sweep[0.3, "arq"]["rounds"] > sweep[0.1, "arq"]["rounds"] - 1e-9


@pytest.fixture(scope="module")
def phy_results():
    scale = ExperimentScale.quick()
    config = scale.config(amplitude=30.0, tau=12)
    rng = np.random.default_rng(7)
    payload = rng.integers(0, 256, 84, dtype=np.uint8).tobytes()
    return {
        mode: run_transport_link(
            config,
            scale.video("video"),
            payload,
            mode=mode,
            camera=scale.camera(),
            seed=3,
            max_rounds=6,
        ).stats
        for mode in ("plain", "fountain", "arq")
    }


def test_transport_over_phy(benchmark, emit, phy_results):
    emit(
        "transport_phy",
        format_table(
            ["scheme", "summary"],
            [[mode, stats.row()] for mode, stats in phy_results.items()],
            title=(
                "Transport over the photon pipeline "
                "(textured video, delta=30, tau=12, quick scale)"
            ),
        ),
    )
    run_once(benchmark, lambda: phy_results)

    # Textured content alone pushes a single open-loop pass past the
    # inner code's budget; both closed-loop and rateless delivery cope.
    assert not phy_results["plain"].delivered
    assert phy_results["fountain"].delivered
    assert phy_results["arq"].delivered
    assert phy_results["arq"].rounds <= 6
