"""Deterministic synthetic clips.

Everything here is procedural and seeded, so every experiment re-runs
bit-identically.  The sunrise clip stands in for the paper's "normal
sun-rising video clip": it combines the three content properties that
matter to the channel -- a smooth luminance gradient (sky), a moving bright
object (the sun disc) and a textured region (foreground ripples) that
stresses the decoder's mean-|difference| correction.
"""

from __future__ import annotations

import numpy as np

from repro._util import check_in_range, check_positive_int
from repro.video.source import ConstantVideoSource, FunctionVideoSource, VideoSource

#: Seed-domain tag separating film-grain draws from base-noise draws.
_GRAIN_DOMAIN = 0xF11A


def frame_rng(seed: int, index: int, domain: int | None = None) -> np.random.Generator:
    """The generator for one content frame of a clip.

    Every random draw in this module flows through a generator built
    here, seeded by ``(seed, index[, domain])`` -- frames are independent
    streams, so rendering frame 40 never requires drawing frames 0..39
    first (random access stays cheap and parallel rendering stays
    bit-identical to serial).
    """
    key = (seed, index) if domain is None else (seed, index, domain)
    return np.random.default_rng(key)


def _gaussian_field(
    rng: np.random.Generator, mean: float, std: float, shape: tuple[int, int]
) -> np.ndarray:
    """One Gaussian noise field drawn from an explicitly threaded generator."""
    return rng.normal(mean, std, size=shape)


def pure_color_video(
    height: int,
    width: int,
    value: float,
    fps: float = 30.0,
    n_frames: int = 30,
) -> ConstantVideoSource:
    """The paper's pure-colour test clip (e.g. gray 127, "dark gray" 180)."""
    return ConstantVideoSource(height, width, value, fps=fps, n_frames=n_frames)


def gradient_video(
    height: int,
    width: int,
    low: float = 0.0,
    high: float = 255.0,
    fps: float = 30.0,
    n_frames: int = 30,
    horizontal: bool = True,
) -> VideoSource:
    """A static linear gradient covering [low, high]; exercises clipping."""
    check_in_range(low, "low", 0.0, 255.0)
    check_in_range(high, "high", 0.0, 255.0)
    if horizontal:
        ramp = np.linspace(low, high, width, dtype=np.float32)[None, :]
        frame = np.broadcast_to(ramp, (height, width)).copy()
    else:
        ramp = np.linspace(low, high, height, dtype=np.float32)[:, None]
        frame = np.broadcast_to(ramp, (height, width)).copy()
    frame.flags.writeable = False
    return FunctionVideoSource(height, width, lambda index: frame, fps=fps, n_frames=n_frames)


def noise_video(
    height: int,
    width: int,
    mean: float = 127.0,
    std: float = 30.0,
    fps: float = 30.0,
    n_frames: int = 30,
    seed: int = 0,
    static: bool = False,
) -> VideoSource:
    """Gaussian-noise texture; the hardest content for the induced-noise decoder.

    With ``static=True`` the same noise field is used in every frame
    (texture without motion); otherwise each content frame is fresh noise.
    """
    base_rng = np.random.default_rng(seed)
    static_field = (
        _gaussian_field(base_rng, mean, std, (height, width)) if static else None
    )

    def render(index: int) -> np.ndarray:
        if static_field is not None:
            field = static_field
        else:
            field = _gaussian_field(frame_rng(seed, index), mean, std, (height, width))
        return np.clip(field, 0.0, 255.0).astype(np.float32)

    return FunctionVideoSource(height, width, render, fps=fps, n_frames=n_frames)


def moving_bars_video(
    height: int,
    width: int,
    bar_width: int = 40,
    speed_px_per_frame: float = 6.0,
    low: float = 60.0,
    high: float = 200.0,
    fps: float = 30.0,
    n_frames: int = 30,
) -> VideoSource:
    """Vertical bars sweeping horizontally; motion stress for the decoder."""
    check_positive_int(bar_width, "bar_width")
    cols = np.arange(width, dtype=np.float32)

    def render(index: int) -> np.ndarray:
        phase = (cols + index * speed_px_per_frame) % (2 * bar_width)
        row = np.where(phase < bar_width, np.float32(high), np.float32(low))
        return np.broadcast_to(row[None, :], (height, width)).copy()

    return FunctionVideoSource(height, width, render, fps=fps, n_frames=n_frames)


def checker_texture_video(
    height: int,
    width: int,
    cell: int = 3,
    low: float = 90.0,
    high: float = 165.0,
    fps: float = 30.0,
    n_frames: int = 30,
) -> VideoSource:
    """A static fine checkerboard texture.

    Adversarial content: its spatial spectrum resembles the data chessboard,
    which is exactly the case the paper's mean-|difference| correction is
    designed to survive.
    """
    check_positive_int(cell, "cell")
    rows = (np.arange(height) // cell)[:, None]
    cols = (np.arange(width) // cell)[None, :]
    frame = np.where((rows + cols) % 2 == 0, np.float32(low), np.float32(high))
    frame = np.broadcast_to(frame, (height, width)).astype(np.float32).copy()
    frame.flags.writeable = False
    return FunctionVideoSource(height, width, lambda index: frame, fps=fps, n_frames=n_frames)


def sunrise_video(
    height: int,
    width: int,
    fps: float = 30.0,
    n_frames: int = 30,
    seed: int = 7,
    grain_std: float = 8.0,
) -> VideoSource:
    """A procedural stand-in for the paper's sun-rising clip.

    Composition (all deterministic in *seed*):

    * sky: vertical gradient brightening from deep blue-gray toward the
      horizon, warming slowly over the clip;
    * sun: a bright disc with a soft halo rising from below the horizon --
      its core saturates, which (as in any real bright scene) leaves no
      amplitude headroom for the chessboard;
    * water: the lower third carries ripple texture (band-limited noise)
      with a slow horizontal drift and a sun glint column;
    * film grain: per-content-frame pixel noise of standard deviation
      *grain_std*, the fine texture that makes real video the hard case
      for the induced-noise decoder (paper Fig. 7's "Video" bars).
    """
    rng = np.random.default_rng(seed)
    horizon = int(height * 0.62)
    rows = np.arange(height, dtype=np.float32)[:, None]
    cols = np.arange(width, dtype=np.float32)[None, :]

    # Pre-generate a smooth ripple field (low-pass filtered noise) that the
    # water region samples with a per-frame drift.
    ripple = rng.normal(0.0, 1.0, size=(height, width + 64)).astype(np.float32)
    kernel = np.hanning(9).astype(np.float32)
    kernel /= kernel.sum()
    ripple = np.apply_along_axis(lambda m: np.convolve(m, kernel, mode="same"), 1, ripple)
    ripple = np.apply_along_axis(lambda m: np.convolve(m, kernel, mode="same"), 0, ripple)
    ripple /= max(float(np.abs(ripple).max()), 1e-6)

    def render(index: int) -> np.ndarray:
        progress = index / max(n_frames - 1, 1)
        # Sky: brightens toward the horizon and over time.
        sky_top = 40.0 + 30.0 * progress
        sky_horizon = 120.0 + 70.0 * progress
        sky = sky_top + (sky_horizon - sky_top) * np.clip(rows / max(horizon, 1), 0.0, 1.0)

        # Sun: rises from below the horizon to ~35% height; the disc core
        # saturates like a real sunrise shot.
        sun_row = horizon + 18.0 - (horizon * 0.45 + 18.0) * progress
        sun_col = width * 0.5
        sun_radius = max(min(height, width) * 0.08, 2.0)
        dist2 = (rows - sun_row) ** 2 + (cols - sun_col) ** 2
        disc = np.exp(-dist2 / (2.0 * sun_radius**2))
        halo = np.exp(-dist2 / (2.0 * (sun_radius * 4.0) ** 2))
        frame = sky + 260.0 * disc + 70.0 * halo

        # Water: darker, textured, drifting, with a glint under the sun.
        drift = int(index * 2) % 64
        water_texture = ripple[:, drift : drift + width]
        water_mask = rows >= horizon
        depth = np.clip((rows - horizon) / max(height - horizon, 1), 0.0, 1.0)
        water = (sky_horizon * 0.55 - 38.0 * depth) + 30.0 * water_texture
        glint_width = max(width * 0.02, 1.0)
        glint = 60.0 * progress * np.exp(-((cols - sun_col) ** 2) / (2.0 * glint_width**2))
        water = water + glint * (1.0 - depth)
        frame = np.where(water_mask, water, frame)

        # Film grain: fresh per content frame, like real camera footage.
        if grain_std > 0.0:
            grain = _gaussian_field(
                frame_rng(seed, index, _GRAIN_DOMAIN), 0.0, grain_std, (height, width)
            )
            frame = frame + grain
        return np.clip(frame, 0.0, 255.0).astype(np.float32)

    return FunctionVideoSource(height, width, render, fps=fps, n_frames=n_frames)


def rgb_color_video(
    height: int,
    width: int,
    color: tuple[float, float, float],
    fps: float = 30.0,
    n_frames: int = 30,
) -> VideoSource:
    """A pure-RGB-colour clip (e.g. the paper's (127,127,127) as a triple)."""
    values = np.asarray(color, dtype=np.float32)
    if values.shape != (3,) or values.min() < 0 or values.max() > 255:
        raise ValueError(f"color must be an RGB triple in [0, 255], got {color}")
    frame = np.broadcast_to(values, (height, width, 3)).astype(np.float32).copy()
    frame.flags.writeable = False
    return FunctionVideoSource(
        height, width, lambda index: frame, fps=fps, n_frames=n_frames, channels=3
    )


def rgb_sunrise_video(
    height: int,
    width: int,
    fps: float = 30.0,
    n_frames: int = 30,
    seed: int = 7,
    grain_std: float = 8.0,
) -> VideoSource:
    """The sunrise clip in colour: blue-to-orange sky, golden sun, dark water.

    Built by colour-grading the grayscale :func:`sunrise_video` luminance
    with altitude-dependent channel gains, so its luminance structure (and
    therefore channel behaviour) matches the grayscale clip.
    """
    base = sunrise_video(height, width, fps=fps, n_frames=n_frames, seed=seed,
                         grain_std=grain_std)
    horizon = int(height * 0.62)
    rows = np.arange(height, dtype=np.float32)[:, None]
    # Channel gains: cool blue high in the sky, warm near the horizon,
    # desaturated teal in the water.
    sky_mix = np.clip(rows / max(horizon, 1), 0.0, 1.0)
    red = np.where(rows < horizon, 0.75 + 0.45 * sky_mix, 0.70)
    green = np.where(rows < horizon, 0.85 + 0.15 * sky_mix, 0.85)
    blue = np.where(rows < horizon, 1.25 - 0.45 * sky_mix, 1.05)
    gains = np.stack(
        [np.broadcast_to(c, (height, width)) for c in (red, green, blue)], axis=2
    ).astype(np.float32)

    def render(index: int) -> np.ndarray:
        gray = base.frame(index)
        return np.clip(gray[..., None] * gains, 0.0, 255.0).astype(np.float32)

    return FunctionVideoSource(
        height, width, render, fps=fps, n_frames=n_frames, channels=3
    )
