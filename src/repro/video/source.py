"""Video source abstractions.

A :class:`VideoSource` serves pixel-value frames (float32, [0, 255]) at a
fixed content frame rate -- grayscale ``(h, w)`` or RGB ``(h, w, 3)``
(``channels`` says which).  The multiplexer duplicates each content frame
``refresh_hz / fps`` times, exactly as the paper duplicates a 30 FPS video
four times on a 120 Hz panel.
"""

from __future__ import annotations

from collections.abc import Callable

import numpy as np

from repro._util import check_frame, check_positive, check_positive_int


class VideoSource:
    """Base class for video sources.

    Subclasses implement :meth:`frame`; the base class provides shape
    bookkeeping and iteration helpers.

    Parameters
    ----------
    height, width:
        Frame geometry in pixels.
    fps:
        Content frame rate (frames per second).
    n_frames:
        Total number of content frames the source can serve.
    """

    def __init__(
        self, height: int, width: int, fps: float, n_frames: int, channels: int = 1
    ) -> None:
        self.height = check_positive_int(height, "height")
        self.width = check_positive_int(width, "width")
        self.fps = check_positive(fps, "fps")
        self.n_frames = check_positive_int(n_frames, "n_frames")
        if channels not in (1, 3):
            raise ValueError(f"channels must be 1 (grayscale) or 3 (RGB), got {channels}")
        self.channels = channels

    @property
    def shape(self) -> tuple[int, ...]:
        """Frame shape: ``(height, width)`` or ``(height, width, 3)``."""
        if self.channels == 3:
            return (self.height, self.width, 3)
        return (self.height, self.width)

    @property
    def duration_s(self) -> float:
        """Clip duration in seconds."""
        return self.n_frames / self.fps

    def frame(self, index: int) -> np.ndarray:
        """Return content frame *index* (float32 pixel values in [0, 255])."""
        raise NotImplementedError

    @property
    def uniform_frame(self) -> np.ndarray | None:
        """The read-only frame served at every index, when it holds one value everywhere.

        None unless the source guarantees both (a :class:`ConstantVideoSource`,
        also under :class:`LoopingVideoSource`).  A multiplexed stream of such
        a video displays one value per pixel class, which the display
        timeline computes once per class instead of once per pixel.
        """
        return None

    def _check_index(self, index: int) -> int:
        if not (0 <= index < self.n_frames):
            raise IndexError(f"frame index {index} outside [0, {self.n_frames})")
        return int(index)

    def frames(self) -> "list[np.ndarray]":
        """Materialise every frame (convenience for small test clips)."""
        return [self.frame(i) for i in range(self.n_frames)]

    def __repr__(self) -> str:  # pragma: no cover - debugging aid
        return (
            f"{type(self).__name__}({self.height}x{self.width}, fps={self.fps}, "
            f"n_frames={self.n_frames})"
        )


class ConstantVideoSource(VideoSource):
    """A pure-colour clip: every frame is the same uniform value.

    The paper uses these ("for its ease to detect any visual artifact") with
    gray levels 127 and 180.  Every index returns one read-only array, so
    the layers downstream can tell that the content did not change.
    """

    def __init__(
        self,
        height: int,
        width: int,
        value: float,
        fps: float = 30.0,
        n_frames: int = 30,
    ) -> None:
        super().__init__(height, width, fps, n_frames)
        if not (0.0 <= value <= 255.0):
            raise ValueError(f"value must be in [0, 255], got {value}")
        self.value = float(value)
        self._frame = np.full(self.shape, np.float32(value), dtype=np.float32)
        self._frame.flags.writeable = False

    def frame(self, index: int) -> np.ndarray:
        self._check_index(index)
        return self._frame

    @property
    def uniform_frame(self) -> np.ndarray:
        return self._frame


class ArrayVideoSource(VideoSource):
    """A clip backed by an in-memory ``(n, h, w)`` or ``(n, h, w, 3)`` array.

    The store is a read-only copy, so every frame is a read-only view.
    """

    def __init__(self, frames: np.ndarray, fps: float = 30.0) -> None:
        arr = np.asarray(frames)
        if arr.ndim not in (3, 4) or (arr.ndim == 4 and arr.shape[3] != 3):
            raise ValueError(f"frames must be (n, h, w) or (n, h, w, 3), got shape {arr.shape}")
        checked = np.stack([check_frame(f, f"frames[{i}]") for i, f in enumerate(arr)])
        super().__init__(
            checked.shape[1],
            checked.shape[2],
            fps,
            checked.shape[0],
            channels=3 if arr.ndim == 4 else 1,
        )
        checked.flags.writeable = False
        self._frames = checked

    def frame(self, index: int) -> np.ndarray:
        return self._frames[self._check_index(index)]


class LoopingVideoSource(VideoSource):
    """A clip replayed end to end *n_loops* times.

    Digital signage plays its content on a loop; the broadcast carousel
    rides on that repetition (``repro.serve``).  Looping keeps the frame
    stream exactly periodic -- frame ``i`` equals frame ``i mod base
    frames`` bit for bit -- which is what lets a render cache keyed on
    ``index mod period`` serve the whole session.
    """

    def __init__(self, base: VideoSource, n_loops: int) -> None:
        check_positive_int(n_loops, "n_loops")
        super().__init__(
            base.height,
            base.width,
            base.fps,
            base.n_frames * n_loops,
            channels=base.channels,
        )
        self.base = base
        self.n_loops = int(n_loops)

    def frame(self, index: int) -> np.ndarray:
        return self.base.frame(self._check_index(index) % self.base.n_frames)

    @property
    def uniform_frame(self) -> np.ndarray | None:
        return self.base.uniform_frame


class FunctionVideoSource(VideoSource):
    """A clip generated on demand by ``render(index) -> frame``.

    Frames are validated and cached (most recently used only), which is
    enough for the forward-moving access pattern of the display timeline.
    Every frame is served read-only: a writable render result is wrapped
    in a read-only view, and a read-only one is served as it is, so a
    static clip whose render returns one read-only array serves that
    array at every index.
    """

    def __init__(
        self,
        height: int,
        width: int,
        render: Callable[[int], np.ndarray],
        fps: float = 30.0,
        n_frames: int = 30,
        channels: int = 1,
    ) -> None:
        super().__init__(height, width, fps, n_frames, channels=channels)
        self._render = render
        self._cache_index = -1
        self._cache_frame: np.ndarray | None = None

    def frame(self, index: int) -> np.ndarray:
        index = self._check_index(index)
        if index == self._cache_index and self._cache_frame is not None:
            return self._cache_frame
        frame = check_frame(self._render(index), f"render({index})")
        if frame.shape != self.shape:
            raise ValueError(
                f"render({index}) returned shape {frame.shape}, expected {self.shape}"
            )
        if frame.flags.writeable:
            frame = frame.view()
            frame.flags.writeable = False
        self._cache_index = index
        self._cache_frame = frame
        return frame
