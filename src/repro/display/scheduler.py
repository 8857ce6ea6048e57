"""Display timeline: frames -> emitted light field over continuous time.

:class:`DisplayTimeline` is the boundary between the discrete world of the
encoder (a sequence of pixel-value frames) and the continuous world of the
receivers (a camera integrating light over exposure windows; an eye
low-pass filtering luminance over time).  It models:

* frame latching on the panel's refresh clock;
* the first-order liquid-crystal response of the panel;
* exact integration of luminance over arbitrary time windows.

Frames are produced lazily from a :class:`FrameSource`, so a multi-second
120 Hz stream never has to exist in memory at once.
"""

from __future__ import annotations

from collections.abc import Callable
from typing import Protocol

import numpy as np

from repro.display.panel import DisplayPanel


class FrameSource(Protocol):
    """Anything that can serve pixel-value frames by index.

    A read-only array that a source hands back again, for any index, must
    still hold the same content: the timeline then reuses its luminance.
    """

    @property
    def n_frames(self) -> int:
        """Total number of frames available."""
        ...

    def frame(self, index: int) -> np.ndarray:
        """Return frame *index* as a float32 array of pixel values."""
        ...


class DisplayTimeline:
    """The light field a panel emits while playing a frame source.

    Parameters
    ----------
    panel:
        The :class:`DisplayPanel` doing the playback.
    source:
        The frame source being played, one frame per refresh.

    Notes
    -----
    With a liquid-crystal time constant ``tau``, the luminance during frame
    ``i`` (latched at ``t_i``) is ``L_i + (s_{i-1} - L_i) * exp(-(t - t_i)/tau)``
    where ``s_{i-1}`` is the pixel state at the end of the previous frame.
    States are advanced lazily and monotonically; jumping far backwards
    re-warms the recursion from a few frames earlier, which is exact to
    within ``exp(-k * T / tau)`` (~1e-15 for the defaults).

    The per-frame caches (emitted-luminance fields and per-refresh
    averages) each hold at most ``_CACHE_FRAMES`` frames in FIFO order,
    so peak cache memory is ``2 * _CACHE_FRAMES`` full luminance fields
    regardless of stream length.
    """

    _WARMUP_FRAMES = 8
    #: Two data-frame cycles at the paper's ``tau = 12``.
    _CACHE_FRAMES = 24

    def __init__(self, panel: DisplayPanel, source: FrameSource) -> None:
        if source.n_frames < 1:
            raise ValueError("frame source must contain at least one frame")
        self.panel = panel
        self.source = source
        self._lum_cache: dict[int, np.ndarray] = {}
        self._lum_cache_order: list[int] = []
        self._avg_cache: dict[int, np.ndarray] = {}
        self._avg_cache_order: list[int] = []
        # The last two distinct (source frame, luminance) pairs: a pair alternates.
        self._recent: list[tuple[np.ndarray, np.ndarray]] = []
        self._state_index = -1
        self._state: np.ndarray | None = None
        # (index, state, state - target): one LC lag per display frame.
        self._lag: tuple[int, np.ndarray, np.ndarray] | None = None

    # ------------------------------------------------------------------
    # Clocking
    # ------------------------------------------------------------------
    @property
    def n_frames(self) -> int:
        """Number of frames in the underlying source."""
        return self.source.n_frames

    @property
    def duration_s(self) -> float:
        """Total playback duration in seconds."""
        return self.n_frames * self.panel.frame_interval_s

    def frame_index_at(self, t: float) -> int:
        """Index of the frame latched at time *t* (clamped to the stream)."""
        index = int(np.floor(t * self.panel.refresh_hz))
        return min(max(index, 0), self.n_frames - 1)

    def latch_time(self, index: int) -> float:
        """Time at which frame *index* is latched."""
        return index * self.panel.frame_interval_s

    # ------------------------------------------------------------------
    # Light field evaluation
    # ------------------------------------------------------------------
    def luminance_at(self, t: float, rect: tuple[int, int, int, int] | None = None) -> np.ndarray:
        """Instantaneous luminance field at time *t* (cd/m^2).

        Parameters
        ----------
        t:
            Time in seconds from playback start; clamped into the stream.
        rect:
            Optional ``(row0, row1, col0, col1)`` crop evaluated instead of
            the full field (the full-field state is still tracked so the
            liquid-crystal recursion stays exact).
        """
        index = self.frame_index_at(t)
        if self.panel.response_time_s <= 0.0:
            return self._crop(self._frame_luminance(index), rect)
        # State first; see _frame_luminance.
        previous_state = self._state_before(index)
        target = self._frame_luminance(index)
        # Every sample of a frame shares its lag, until a re-warm or a
        # backward jump hands back a different state array for the index.
        lag = self._lag
        if lag is None or lag[0] != index or lag[1] is not previous_state:
            lag = self._lag = (index, previous_state, previous_state - target)
        elapsed = max(t - self.latch_time(index), 0.0)
        decay = np.float32(np.exp(-elapsed / self.panel.response_time_s))
        field = lag[2] * decay
        field += target
        return self._crop(field, rect)

    def integrate(
        self,
        t0: float,
        t1: float,
        rect: tuple[int, int, int, int] | None = None,
    ) -> np.ndarray:
        """Mean luminance over the window [t0, t1] (cd/m^2).

        The window is split at frame boundaries and each piece is integrated
        analytically (exponential relaxation toward the latched frame).
        """
        if not (t1 > t0):
            raise ValueError(f"need t1 > t0, got [{t0}, {t1}]")
        interval = self.panel.frame_interval_s
        tau = self.panel.response_time_s
        total: np.ndarray | None = None
        first_index = self.frame_index_at(t0)
        last_index = self.frame_index_at(t1 - 1e-12)
        for index in range(first_index, last_index + 1):
            seg_start = max(t0, self.latch_time(index)) if index > first_index else t0
            seg_end = min(t1, self.latch_time(index + 1))
            if index == self.n_frames - 1:
                seg_end = t1  # stream holds its last frame
            seg_len = seg_end - seg_start
            if seg_len <= 0:
                continue
            # State first; see _frame_luminance.
            previous_state = (
                self._crop(self._state_before(index), rect) if tau > 0.0 else None
            )
            target = self._crop(self._frame_luminance(index), rect)
            # Fresh arrays from here on, so the sums below work in place.
            piece = target * np.float32(seg_len)
            if previous_state is not None:
                a = max(seg_start - self.latch_time(index), 0.0)
                b = max(seg_end - self.latch_time(index), 0.0)
                weight = np.float32(tau * (np.exp(-a / tau) - np.exp(-b / tau)))
                lag = previous_state - target
                lag *= weight
                piece += lag
            if total is None:
                total = piece
            else:
                total += piece
        assert total is not None  # guaranteed: t1 > t0 yields >= 1 segment
        total /= np.float32(t1 - t0)
        return total

    def frame_average_luminance(self, index: int) -> np.ndarray:
        """Mean luminance field over the full refresh interval of frame *index*.

        This folds the liquid-crystal response into a single per-frame
        field; the camera pipeline blends these with rolling-shutter row
        weights instead of re-integrating per row.
        """
        if not (0 <= index < self.n_frames):
            raise IndexError(f"frame index {index} outside [0, {self.n_frames})")
        cached = self._avg_cache.get(index)
        if cached is not None:
            return cached
        start = self.latch_time(index)
        avg = self.integrate(start, start + self.panel.frame_interval_s)
        self._cache_put(self._avg_cache, self._avg_cache_order, index, avg)
        return avg

    # ------------------------------------------------------------------
    # Internals
    # ------------------------------------------------------------------
    def _cache_put(
        self,
        cache: dict[int, np.ndarray],
        order: list[int],
        index: int,
        value: np.ndarray,
    ) -> None:
        """FIFO-insert into a per-frame cache bounded by ``_CACHE_FRAMES``."""
        cache[index] = value
        order.append(index)
        if len(order) > self._CACHE_FRAMES:
            cache.pop(order.pop(0), None)

    @staticmethod
    def _crop(
        field: np.ndarray, rect: tuple[int, int, int, int] | None
    ) -> np.ndarray:
        if rect is None:
            return field
        row0, row1, col0, col1 = rect
        return field[row0:row1, col0:col1]

    def _frame_luminance(self, index: int) -> np.ndarray:
        # Sources may cache only their latest frame (FunctionVideoSource),
        # so callers fetch frames in playback order: walk the LC state up
        # to a frame before fetching the frame itself.
        cached = self._lum_cache.get(index)
        if cached is not None:
            return cached
        frame = self.source.frame(index)
        reused = [lum for seen, lum in self._recent if seen is frame and not frame.flags.writeable]
        lum = reused[0] if reused else self.panel.emitted_luminance(frame)
        self._recent = [(frame, lum), *(e for e in self._recent if e[0] is not frame)][:2]
        self._cache_put(self._lum_cache, self._lum_cache_order, index, lum)
        return lum

    def _state_before(self, index: int) -> np.ndarray:
        """Pixel luminance state at the instant frame *index* is latched."""
        if index == 0:
            return self._frame_luminance(0)
        if self._state is not None and self._state_index == index:
            return self._state
        if self._state is None or self._state_index > index or self._state_index < index - 64:
            # (Re)warm the recursion from a settled approximation.
            start = max(index - self._WARMUP_FRAMES, 0)
            state = self._frame_luminance(start)
            self._state_index = start + 1
        else:
            state = self._state
        decay = np.float32(
            np.exp(-self.panel.frame_interval_s / self.panel.response_time_s)
        )
        first = self._state_index
        for i in range(first, index):
            # State at the latch of frame i+1: relaxed toward frame i's target.
            # The first step writes a fresh array (the state it starts from is
            # cached or already handed out); later steps update it in place.
            target = self._frame_luminance(i)
            state = np.subtract(state, target, out=None if i == first else state)
            state *= decay
            state += target
        self._state = state
        self._state_index = index
        return state


class MemoizedTimeline:
    """A timeline whose per-frame average fields are rendered once per key.

    The camera pipeline only ever asks a timeline for
    :meth:`DisplayTimeline.frame_average_luminance` (plus the panel and
    the clocking properties), so a broadcast session can stand this
    wrapper between one shared timeline and hundreds of receivers: the
    caller supplies ``key_fn`` mapping a display-frame index to its
    equivalence class -- for a carousel that is ``index % period``,
    because the stream re-airs bit-identical (video frame, data frame,
    pair phase) triples every cycle -- and each class is rendered once,
    no matter how many receivers integrate it.

    The wrapper does **not** memoize :meth:`DisplayTimeline.integrate` or
    :meth:`DisplayTimeline.luminance_at`; those remain per-instance on
    the inner timeline.  The rendered fields live in the plain dict
    ``fields``, which forked fleet workers share copy-on-write.
    ``hits`` / ``misses`` count served reads and renders for the
    ``serve.render_cache.*`` exec-scoped metrics.

    Keys must be *periodic in the liquid-crystal state*, not merely in
    frame content: ``frame_average_luminance`` folds the panel's LC
    relaxation in, so two indices may share a key only when their
    predecessor frames match too.  ``index % period`` over a periodic
    stream satisfies this exactly (see ``docs/broadcast.md``).
    """

    def __init__(self, inner: DisplayTimeline, key_fn: Callable[[int], int]) -> None:
        self.inner = inner
        self.key_fn = key_fn
        self.fields: dict[int, np.ndarray] = {}
        self.hits = 0
        self.misses = 0

    # ------------------------------------------------------------------
    # The timeline surface the camera pipeline consumes
    # ------------------------------------------------------------------
    @property
    def panel(self) -> DisplayPanel:
        """The panel doing the playback."""
        return self.inner.panel

    @property
    def n_frames(self) -> int:
        """Display frames in the underlying stream."""
        return self.inner.n_frames

    @property
    def duration_s(self) -> float:
        """Total playback duration in seconds."""
        return self.inner.duration_s

    def frame_average_luminance(self, index: int) -> np.ndarray:
        """The memoized mean-luminance field of frame *index*'s class."""
        if not (0 <= index < self.n_frames):
            raise IndexError(f"frame index {index} outside [0, {self.n_frames})")
        key = self.key_fn(index)
        field = self.fields.get(key)
        if field is not None:
            self.hits += 1
            return field
        self.misses += 1
        field = self.inner.frame_average_luminance(index)
        self.fields[key] = field
        return field

    def warm(self, indices: "range | list[int]") -> int:
        """Render every class reachable from *indices*; returns new renders.

        Sessions warm sequentially (the LC recursion advances frame by
        frame, so in-order warming renders each class exactly once at
        full accuracy) before any receiver runs; steady state afterwards
        is hit-only.
        """
        before = self.misses
        for index in indices:
            self.frame_average_luminance(index)
        return self.misses - before
