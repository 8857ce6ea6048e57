"""The broadcast session: one carousel, rendered once, served to many.

InFrame's deployment is digital signage: a display loops its content all
day with a data carousel multiplexed on top, and any number of cameras
watch.  :class:`BroadcastSession` is that display.  It fixes a cyclic
batch of fountain symbols (the carousel), multiplexes them onto a
looping video, and exposes the emitted light field through a
:class:`~repro.display.scheduler.MemoizedTimeline` whose render cache is
keyed on ``index mod period`` -- so the steady-state render work is one
carousel cycle, no matter how many receivers integrate it.

Cycle alignment
---------------
The emitted stream repeats exactly when both of its inputs do: the video
loop (``video frames x frame_duplication`` display frames) and the
packet carousel (``cycle_packets x tau`` display frames).  The session
rounds the fountain batch up until one carousel cycle is a whole number
of video loops, which makes the joint period *equal* to the carousel
cycle -- the smallest render cache that can serve the whole session.
Extra symbols are free value, not padding: the code is rateless, so a
longer cycle simply airs more distinct symbols per pass.

Render-once semantics
---------------------
``frame_average_luminance`` folds the panel's liquid-crystal state in,
and that state depends on the *previous* frames' content -- so cache
keys must be periodic in the LC state, not merely in frame content.
Over a periodic stream, ``index mod period`` is: every index of a class
sees bit-identical predecessor frames.  The session pre-renders the
*second* cycle (indices ``[period, 2*period)``), i.e. the steady-state
fields; receivers that join during the very first frames are served
those steady-state fields too, which discards the display's power-on
transient (a deliberate modelling choice, documented in
``docs/broadcast.md``).

The render cache is the timeline's plain dict of fields.  Forked fleet
workers inherit it copy-on-write and only ever read it, so every
receiver process reads the parent's fields without copying the cache.
"""

from __future__ import annotations

import math

import numpy as np

from repro._util import check_positive_int
from repro.core.config import InFrameConfig
from repro.core.geometry import FrameGeometry
from repro.core.multiplexer import MultiplexedStream
from repro.display.panel import DisplayPanel
from repro.display.scheduler import DisplayTimeline, MemoizedTimeline
from repro.transport.carousel import BroadcastCarousel
from repro.transport.packet import FramePacketCodec, PacketSchedule
from repro.video.source import LoopingVideoSource, VideoSource

#: Extra fraction of fountain symbols in the carousel cycle beyond ``k``
#: (before cycle alignment rounds further up).
_CYCLE_MARGIN = 0.35


class BroadcastSession:
    """One display broadcasting one payload to whoever watches.

    Parameters
    ----------
    config, video:
        The InFrame parameters and the looping content clip (the video's
        fps must match ``config.video_fps``; the session loops it as
        long as the fleet needs).
    payload:
        The bytes on the carousel.
    panel:
        The display; defaults to a panel matching the video at
        ``config.refresh_hz``.
    session_id:
        Stamped on every packet; doubles as the fountain seed.
    rs_n, rs_k:
        The per-frame inner Reed-Solomon code (see
        :func:`repro.core.pipeline.run_transport_link`).
    shm_budget_bytes:
        Ignored.  The render cache uses no shared memory, so every
        budget is met.  Accepted only because the benchmark suite still
        passes it; the next change to the benchmark drops the keyword.
    """

    def __init__(
        self,
        config: InFrameConfig,
        video: VideoSource,
        payload: bytes,
        *,
        panel: DisplayPanel | None = None,
        session_id: int = 1,
        rs_n: int = 60,
        rs_k: int = 24,
        c: float = 0.1,
        delta: float = 0.5,
        shm_budget_bytes: int = 0,
    ) -> None:
        if not payload:
            raise ValueError("payload must be non-empty")
        if panel is None:
            panel = DisplayPanel(
                width=video.width, height=video.height, refresh_hz=config.refresh_hz
            )
        if (panel.height, panel.width) != (video.height, video.width):
            raise ValueError(
                f"panel {panel.height}x{panel.width} does not match video "
                f"{video.height}x{video.width}"
            )
        self.config = config
        self.video = video
        self.payload = bytes(payload)
        self.panel = panel
        self.session_id = int(session_id)

        self.codec = FramePacketCodec(config, rs_n=rs_n, rs_k=rs_k)
        self.carousel = BroadcastCarousel(
            self.payload,
            self.codec.max_payload_bytes,
            session_id=self.session_id,
            c=c,
            delta=delta,
        )
        # Cycle alignment: round the batch up so one carousel cycle spans
        # a whole number of video loops -- then the joint period of the
        # emitted stream IS the cycle (see the module docstring).
        batch = max(2, math.ceil(self.carousel.k * (1.0 + _CYCLE_MARGIN)))
        loop_frames = video.n_frames * config.frame_duplication
        align = loop_frames // math.gcd(loop_frames, config.tau)
        self.cycle_packets = math.ceil(batch / align) * align
        self.period_frames = self.cycle_packets * config.tau
        self.loop_frames = loop_frames
        self.schedule = PacketSchedule(
            config,
            self.codec,
            self.carousel.packets(0, self.cycle_packets),
            repeat=True,
        )
        self.geometry = FrameGeometry(config, video.height, video.width)
        self._memo: MemoizedTimeline | None = None
        self._closed = False

    # ------------------------------------------------------------------
    # Carousel facts
    # ------------------------------------------------------------------
    @property
    def k(self) -> int:
        """Source blocks in the payload."""
        return self.carousel.k

    @property
    def cycle_s(self) -> float:
        """Wall-clock length of one carousel cycle."""
        return self.period_frames / self.config.refresh_hz

    @property
    def render_cache_hits(self) -> int:
        """Parent-side render-cache hits so far (workers report their own)."""
        return 0 if self._memo is None else self._memo.hits

    @property
    def render_cache_misses(self) -> int:
        """Fields actually rendered (the warm pass renders one cycle)."""
        return 0 if self._memo is None else self._memo.misses

    # ------------------------------------------------------------------
    # The emitted stream
    # ------------------------------------------------------------------
    def prepare(self, horizon_s: float) -> MemoizedTimeline:
        """The memoized emitted-light timeline covering *horizon_s* seconds.

        Builds (or extends) the looping stream, then warms the render
        cache over one steady-state cycle so the fan-out workers run
        hit-only.  Reuses the existing cache when called again -- the
        stream is periodic, so a longer horizon never invalidates a
        field already rendered.
        """
        if self._closed:
            raise RuntimeError("session is closed")
        if horizon_s <= 0.0:
            raise ValueError(f"horizon_s must be > 0, got {horizon_s}")
        needed = math.ceil(horizon_s * self.config.refresh_hz)
        needed = max(needed, 2 * self.period_frames)
        n_loops = math.ceil(needed / self.loop_frames)
        n_frames = n_loops * self.loop_frames
        if self._memo is not None and self._memo.n_frames >= n_frames:
            return self._memo
        looped = (
            self.video
            if n_loops == 1
            else LoopingVideoSource(self.video, n_loops)
        )
        stream = MultiplexedStream(
            self.config,
            looped,
            self.schedule,
            n_display_frames=n_frames,
            gamma_curve=self.panel.gamma_curve,
        )
        memo = MemoizedTimeline(DisplayTimeline(self.panel, stream), key_fn=self._key_fn)
        if self._memo is not None:
            # Carry the session's fields and counters across a horizon
            # extension: the stream is periodic, so no field goes stale.
            memo.fields = self._memo.fields
            memo.hits, memo.misses = self._memo.hits, self._memo.misses
        self._memo = memo
        # Warm over the SECOND cycle: every index there is >= one full
        # LC warm-up deep, so the cached fields are the steady-state
        # ones every later cycle reproduces bit for bit.
        memo.warm(range(self.period_frames, 2 * self.period_frames))
        return memo

    def _key_fn(self, index: int) -> int:
        return index % self.period_frames

    # ------------------------------------------------------------------
    # Lifecycle
    # ------------------------------------------------------------------
    def close(self) -> None:
        """Drop the render cache; a closed session prepares nothing."""
        self._closed = True
        self._memo = None

    def __enter__(self) -> "BroadcastSession":
        return self

    def __exit__(self, *exc: object) -> None:
        self.close()


def deterministic_payload(n_bytes: int, seed: int = 0) -> bytes:
    """A seed-stamped payload for demos and smoke tests."""
    check_positive_int(n_bytes, "n_bytes")
    from repro.runtime.scheduler import spawn_rng

    rng = spawn_rng(seed, 0x9A710AD)
    return rng.integers(0, 256, size=n_bytes, dtype=np.uint8).tobytes()
