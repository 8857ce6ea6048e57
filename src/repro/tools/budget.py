"""CLI: print the screen->camera link budget at an operating point.

The budget summarises the channel's small-signal quality the way an RF
engineer would: how many capture counts one unit of chessboard amplitude
is worth, and how that compares to the sensor noise floor.  Office
ambient light reflects off the panel and adds a luminance pedestal,
which costs modulation *contrast* at the camera.

Example::

    python -m repro.tools.budget --brightness 127 --lux 400
"""

from __future__ import annotations

import argparse
from dataclasses import dataclass

import numpy as np

from repro._util import check_in_range, check_positive
from repro.camera.capture import CameraModel
from repro.display.gamma import GammaCurve
from repro.display.panel import DisplayPanel

#: Fraction of incident ambient light the panel's front surface re-emits
#: diffusely (matte panels ~0.02-0.06).
PANEL_REFLECTANCE = 0.04


@dataclass(frozen=True)
class LinkBudget:
    """Small-signal quality summary of a screen->camera link.

    Attributes
    ----------
    counts_per_delta:
        Capture counts produced by one pixel-value unit of chessboard
        amplitude at the operating point (before spatial filtering).
    noise_floor_counts:
        RMS capture noise in counts at the operating point.
    snr_at_delta_20:
        Amplitude SNR for the paper's delta = 20 setting.
    ambient_contrast_loss:
        Fractional contrast lost to the ambient-light pedestal.
    """

    counts_per_delta: float
    noise_floor_counts: float
    snr_at_delta_20: float
    ambient_contrast_loss: float


def link_budget(
    panel: DisplayPanel,
    camera: CameraModel,
    pedestal: float,
    operating_pixel_value: float,
) -> LinkBudget:
    """Small-signal budget of *camera* watching *panel* at a video level.

    *pedestal* is the ambient luminance (cd/m^2) reflected off the panel
    and added to everything it emits.
    """
    check_positive(operating_pixel_value, "operating_pixel_value")
    curve = panel.gamma_curve
    base_lum = float(curve.to_luminance(operating_pixel_value)) * panel.brightness
    slope = float(curve.local_slope(operating_pixel_value)) * panel.brightness

    sensor = camera.sensor
    exposure = camera.exposure_s
    scene = base_lum + pedestal

    def capture_level(lum: float) -> float:
        electrons = lum * sensor.sensitivity * exposure
        normalized = min(max(electrons / sensor.full_well, 0.0), 1.0)
        return 255.0 * normalized**sensor.response_gamma

    level = capture_level(scene)
    counts_per_delta = capture_level(scene + slope) - level

    electrons = scene * sensor.sensitivity * exposure
    shot = np.sqrt(max(electrons, 0.0))
    total_e = float(np.hypot(shot, sensor.read_noise_electrons))
    # Convert electron noise to counts via the response slope.
    d_counts_d_e = (
        255.0
        * sensor.response_gamma
        * (electrons / sensor.full_well) ** (sensor.response_gamma - 1.0)
        / sensor.full_well
        if 0 < electrons < sensor.full_well
        else 0.0
    )
    quantization = 1.0 / np.sqrt(12.0)
    noise_counts = float(np.hypot(total_e * d_counts_d_e, quantization))

    snr20 = 20.0 * counts_per_delta / noise_counts if noise_counts > 0 else float("inf")
    contrast_loss = pedestal / scene if scene > 0 else 0.0
    return LinkBudget(
        counts_per_delta=float(counts_per_delta),
        noise_floor_counts=noise_counts,
        snr_at_delta_20=float(snr20),
        ambient_contrast_loss=float(contrast_loss),
    )


def build_parser() -> argparse.ArgumentParser:
    """The tool's argument parser."""
    parser = argparse.ArgumentParser(
        prog="repro.tools.budget",
        description="Small-signal link budget of the screen->camera channel.",
    )
    parser.add_argument("--brightness", type=float, default=127.0, help="video pixel level")
    parser.add_argument("--lux", type=float, default=400.0, help="ambient illuminance")
    parser.add_argument("--exposure", type=float, default=1 / 500, help="camera exposure (s)")
    parser.add_argument("--peak", type=float, default=300.0, help="panel peak luminance cd/m^2")
    return parser


def main(argv: list[str] | None = None) -> int:
    """Entry point; returns a process exit code."""
    parser = build_parser()
    args = parser.parse_args(argv)
    try:
        check_in_range(args.lux, "--lux", 0.0, 2.0e5)
        pedestal = args.lux * PANEL_REFLECTANCE / np.pi
        panel = DisplayPanel(gamma_curve=GammaCurve(peak_luminance=args.peak))
        # Auto-expose for the brightest thing in view: panel white plus
        # the ambient pedestal.
        camera = CameraModel(exposure_s=args.exposure).auto_exposed(
            panel.peak_luminance + pedestal
        )
        budget = link_budget(panel, camera, pedestal, args.brightness)
    except ValueError as exc:
        parser.error(str(exc))

    print(f"Link budget at pixel level {args.brightness:g}, {args.lux:g} lux ambient:")
    print(f"  counts per delta unit : {budget.counts_per_delta:.3f}")
    print(f"  noise floor           : {budget.noise_floor_counts:.3f} counts RMS")
    print(f"  SNR at delta=20       : {budget.snr_at_delta_20:.1f}")
    print(f"  ambient contrast loss : {budget.ambient_contrast_loss * 100:.1f}%")
    verdict = "comfortable" if budget.snr_at_delta_20 > 6 else "marginal"
    print(f"  verdict               : {verdict} for the paper's delta=20 operating point")
    return 0


if __name__ == "__main__":
    raise SystemExit(main())
