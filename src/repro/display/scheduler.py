"""Display timeline: frames -> emitted light field over continuous time.

:class:`DisplayTimeline` is the boundary between the discrete world of the
encoder (a sequence of pixel-value frames) and the continuous world of the
receivers (a camera integrating light over exposure windows; an eye
low-pass filtering luminance over time).  It models:

* frame latching on the panel's refresh clock;
* the first-order liquid-crystal response of the panel;
* exact integration of luminance over arbitrary time windows.

Frames are produced lazily from a :class:`FrameSource`, so a multi-second
120 Hz stream never has to exist in memory at once.  A source whose frames
hold one value per pixel class (a multiplexed uniform video) is played as
palettes of class values, expanded to pixels only where a field is handed
out.
"""

from __future__ import annotations

import math
from collections.abc import Callable, Sequence
from typing import Protocol, runtime_checkable

import numpy as np

from repro.display.panel import DisplayPanel


class FrameSource(Protocol):
    """Anything that can serve pixel-value frames by index.

    A read-only array that a source hands back again, for any index, must
    still hold the same content: the timeline then reuses its luminance.
    A source that is also a :class:`PaletteSource` with ``classes`` is
    played as palettes.
    """

    @property
    def n_frames(self) -> int:
        """Total number of frames available."""
        ...

    def frame(self, index: int) -> np.ndarray:
        """Return frame *index* as a float32 array of pixel values."""
        ...


@runtime_checkable
class PaletteSource(FrameSource, Protocol):
    """A frame source whose frames may hold one value per pixel class.

    ``classes`` is None, or an ``intp`` map giving every pixel its class;
    then ``palette(index)`` returns frame *index* as a read-only
    ``(1, n_classes)`` array with ``frame(index) == palette(index)[0][classes]``
    (see :class:`~repro.core.multiplexer.MultiplexedStream`).  Gamma, the
    liquid-crystal response and integration are elementwise and act on
    each pixel's own frame sequence, so the timeline computes them once
    per class, with the bits every pixel of the class would get.
    """

    classes: np.ndarray | None

    def palette(self, index: int) -> np.ndarray:
        """Return frame *index* as one float32 pixel value per class."""
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
    States are advanced lazily and monotonically.  A backward jump, or a
    forward one of more than ``max(64, k)`` frames, re-warms the recursion
    from ``k`` frames earlier, where ``k = max(8, ceil(ln(1e10) * tau / T))``
    for the frame interval ``T``: the state it starts from weighs at most
    ``exp(-k * T / tau) <= 1e-10`` in the result, on any panel, so a field
    does not depend on the order in which fields are read.

    The per-frame caches (emitted-luminance fields and per-refresh
    averages) each hold at most ``_CACHE_FRAMES`` frames in FIFO order,
    so peak cache memory is ``2 * _CACHE_FRAMES`` luminance fields
    regardless of stream length.  Cached fields are read-only, and so is
    every field :meth:`frame_average_luminance` returns.

    When the source has pixel ``classes``, the luminance, the LC state
    and both caches are palettes of one value per class, and the per-frame
    lag holds the class map's distinct rows.  :meth:`luminance_rows`, the
    one sampler, computes samples on those rows only (a super Pixel repeats
    its class row: 58 of the flicker study panel's 240); fields are expanded
    through the class map (cropped to ``rect``) only when
    :meth:`frame_average_luminance`, :meth:`luminance_at` or
    :meth:`integrate` hands one out.
    """

    #: Fewest frames a re-warm of the LC state walks.
    _MIN_WARMUP_FRAMES = 8
    #: Longest forward jump walked rather than re-warmed, unless a re-warm walks more.
    _MAX_WALK_FRAMES = 64
    #: Two data-frame cycles at the paper's ``tau = 12``.
    _CACHE_FRAMES = 24

    def __init__(self, panel: DisplayPanel, source: FrameSource) -> None:
        if source.n_frames < 1:
            raise ValueError("frame source must contain at least one frame")
        self.panel = panel
        self.source = source
        # Frames a re-warm walks: the state it starts from decays to <= 1e-10.
        settle = math.log(1e10) * panel.response_time_s / panel.frame_interval_s
        self._warmup_frames = max(self._MIN_WARMUP_FRAMES, math.ceil(settle))
        # The source as a palette source, when its frames are played as
        # palettes expanded through the class map's row runs.
        self._palettes: PaletteSource | None = None
        self._class_rows: tuple[np.ndarray, np.ndarray] | None = None
        if isinstance(source, PaletteSource) and source.classes is not None:
            self._palettes = source
            self._class_rows = _row_runs(source.classes)
        self._lum_cache: dict[int, np.ndarray] = {}
        self._lum_cache_order: list[int] = []
        self._avg_cache: dict[int, np.ndarray] = {}
        self._avg_cache_order: list[int] = []
        # The last two distinct (source frame, luminance) pairs: a pair alternates.
        self._recent: list[tuple[np.ndarray, np.ndarray]] = []
        self._state_index = -1
        self._state: np.ndarray | None = None
        # (index, state, state - target, target), the last two on distinct
        # rows: one LC lag per display frame.
        self._lag: tuple[int, np.ndarray, np.ndarray, np.ndarray] | None = None
        # The last two distinct (luminance, its distinct rows) pairs, kept
        # like _recent, so a repeated target is taken through the rows once.
        self._target_rows: list[tuple[np.ndarray, np.ndarray]] = []

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
    def luminance_rows(self, times: Sequence[float]) -> tuple[np.ndarray, np.ndarray | None]:
        """Instantaneous luminance at each of *times*, all in one display frame.

        Returns ``(samples, row_of)``: the field at ``times[i]`` (cd/m^2) is
        ``samples[i][row_of]``.  On a palette-played source ``samples`` holds
        the class map's distinct rows only, shaped ``(len(times), n_rows,
        width)``, and ``row_of`` gives each panel row its distinct row; on
        any other source ``row_of`` is None and ``samples[i]`` is the field.
        Each sample is ``lag * decay + target``, elementwise, with one
        scalar decay per time.  Times in more than one display frame
        (:meth:`frame_index_at`) raise ``ValueError``.
        """
        index = self.frame_index_at(times[0])
        if any(self.frame_index_at(t) != index for t in times):
            raise ValueError("luminance_rows samples one display frame at a time")
        row_of = None if self._class_rows is None else self._class_rows[1]
        tau = self.panel.response_time_s
        if tau <= 0.0:
            rows = self._rows_of_target(self._frame_luminance(index))
            return np.broadcast_to(rows, (len(times), *rows.shape)), row_of
        # State first; see _frame_luminance.
        previous_state = self._state_before(index)
        target = self._frame_luminance(index)
        # Every sample of a frame shares its lag, until a re-warm or a
        # backward jump hands back a different state array for the index.
        lag = self._lag
        if lag is None or lag[0] != index or lag[1] is not previous_state:
            lag = self._lag = (
                index,
                previous_state,
                self._distinct_rows(previous_state - target),
                self._rows_of_target(target),
            )
        latch = self.latch_time(index)
        # One scalar exp per time: a vectorised exp may round differently.
        decays = np.array(
            [np.float32(np.exp(-max(t - latch, 0.0) / tau)) for t in times], dtype=np.float32
        )
        samples = lag[2] * decays[:, None, None]
        samples += lag[3]
        return samples, row_of

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

        One sample of :meth:`luminance_rows`, expanded to its field.
        """
        samples, row_of = self.luminance_rows((t,))
        if row_of is None:
            return self._crop(samples[0], rect)
        return _expand_rows(samples[0], row_of, rect)

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
        return self._expand(self._integrate(t0, t1), rect)

    def _integrate(self, t0: float, t1: float) -> np.ndarray:
        """:meth:`integrate` as a fresh full field or palette."""
        if not (t1 > t0):
            raise ValueError(f"need t1 > t0, got [{t0}, {t1}]")
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
            previous_state = self._state_before(index) if tau > 0.0 else None
            target = self._frame_luminance(index)
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
        weights instead of re-integrating per row.  The field is read-only.
        """
        if not (0 <= index < self.n_frames):
            raise IndexError(f"frame index {index} outside [0, {self.n_frames})")
        avg = self._avg_cache.get(index)
        if avg is None:
            start = self.latch_time(index)
            avg = self._integrate(start, start + self.panel.frame_interval_s)
            self._cache_put(self._avg_cache, self._avg_cache_order, index, avg)
        field = self._expand(avg)
        field.flags.writeable = False
        return field

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
        """FIFO-insert *value*, made read-only, into a cache bounded by ``_CACHE_FRAMES``."""
        value.flags.writeable = False
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

    def _distinct_rows(self, values: np.ndarray) -> np.ndarray:
        """A full field as is, or a palette taken through the class map's distinct rows."""
        if self._class_rows is None:
            return values
        return np.take(values[0], self._class_rows[0])

    def _rows_of_target(self, target: np.ndarray) -> np.ndarray:
        """:meth:`_distinct_rows` of a frame's read-only luminance, taken once while it repeats."""
        kept = [rows for lum, rows in self._target_rows if lum is target]
        rows = kept[0] if kept else self._distinct_rows(target)
        self._target_rows = [
            (target, rows), *(e for e in self._target_rows if e[0] is not target)
        ][:2]
        return rows

    def _expand(
        self, values: np.ndarray, rect: tuple[int, int, int, int] | None = None
    ) -> np.ndarray:
        """The field of a full field or palette *values*, cropped to *rect*.

        A full field is cropped as a view.  A palette is taken through the
        class map's distinct rows into a fresh field.
        """
        if self._class_rows is None:
            return self._crop(values, rect)
        return _expand_rows(self._distinct_rows(values), self._class_rows[1], rect)

    def _frame_luminance(self, index: int) -> np.ndarray:
        # Sources may cache only their latest frame (FunctionVideoSource),
        # so callers fetch frames in playback order: walk the LC state up
        # to a frame before fetching the frame itself.
        cached = self._lum_cache.get(index)
        if cached is not None:
            return cached
        palettes = self._palettes
        frame = self.source.frame(index) if palettes is None else palettes.palette(index)
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
        depth = self._warmup_frames
        far = self._state_index < index - max(self._MAX_WALK_FRAMES, depth)
        if self._state is None or self._state_index > index or far:
            # (Re)warm the recursion from a settled approximation.
            start = max(index - depth, 0)
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


def _expand_rows(
    rows: np.ndarray, row_of: np.ndarray, rect: tuple[int, int, int, int] | None
) -> np.ndarray:
    """The fresh field ``rows[row_of]``, cropped to *rect*: distinct rows copied whole."""
    if rect is not None:
        row0, row1, col0, col1 = rect
        rows, row_of = rows[:, col0:col1], row_of[row0:row1]
    return np.take(rows, row_of, axis=0)


def _row_runs(classes: np.ndarray) -> tuple[np.ndarray, np.ndarray]:
    """A class map as ``(rows, row_of)`` with ``classes == rows[row_of]``.

    Each run of equal adjacent rows keeps one row of ``rows``; a pattern
    repeats each class row over a super Pixel's rows, so this is a few
    times smaller than the map.
    """
    starts = np.ones(classes.shape[0], dtype=bool)
    starts[1:] = np.any(classes[1:] != classes[:-1], axis=1)
    return classes[starts], np.cumsum(starts) - 1


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
