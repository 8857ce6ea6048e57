"""Perceived-video reconstruction.

Reconstructs what a human actually sees while the multiplexed stream
plays: a sliding-window temporal average of the emitted light (the
flicker-fusion low-pass).  Comparing that reconstruction against the
original video quantifies residual artifacts objectively -- the
complementary-frame design predicts the two match almost exactly, while
naive designs leave large residuals.
"""

from __future__ import annotations

import numpy as np

from repro._util import check_positive
from repro.display.scheduler import DisplayTimeline

#: Integration window of the fusion low-pass, in seconds.  Two complementary
#: pairs at 120 Hz; roughly the reciprocal of CFF.
DEFAULT_FUSION_WINDOW_S = 1.0 / 30.0


def perceived_frame(
    timeline: DisplayTimeline,
    t: float,
    window_s: float = DEFAULT_FUSION_WINDOW_S,
) -> np.ndarray:
    """Luminance field perceived at time *t* (cd/m^2).

    The eye's fusion behaviour is modelled as a boxcar average over the
    preceding *window_s* seconds of emitted light.
    """
    check_positive(window_s, "window_s")
    start = max(t - window_s, 0.0)
    end = max(t, start + 1e-6)
    return timeline.integrate(start, end)


def perception_artifacts(
    timeline: DisplayTimeline,
    reference_frame: np.ndarray,
    t: float,
    window_s: float = DEFAULT_FUSION_WINDOW_S,
) -> dict[str, float]:
    """Compare the perceived field at *t* against a reference video frame.

    Parameters
    ----------
    timeline:
        The multiplexed stream being played.
    reference_frame:
        The original video frame (pixel values) the viewer should perceive.
    t:
        Evaluation instant in seconds.
    window_s:
        Fusion window.

    Returns
    -------
    dict with keys:
        ``max_error`` -- worst absolute luminance error (cd/m^2);
        ``mean_error`` -- mean absolute luminance error;
        ``max_weber`` -- worst Weber-contrast error (error / local luminance);
        ``psnr_db`` -- PSNR of the perceived field against the reference, in
        the luminance domain with the panel's peak as full scale.
    """
    perceived = perceived_frame(timeline, t, window_s)
    reference = timeline.panel.emitted_luminance(np.asarray(reference_frame, dtype=np.float32))
    if perceived.shape != reference.shape:
        raise ValueError(
            f"shape mismatch: perceived {perceived.shape} vs reference {reference.shape}"
        )
    error = np.abs(perceived.astype(np.float64) - reference.astype(np.float64))
    local = np.maximum(reference.astype(np.float64), 1e-3)
    peak = timeline.panel.peak_luminance
    mse = float(np.mean(error**2))
    psnr = float("inf") if mse == 0 else 10.0 * np.log10(peak**2 / mse)
    return {
        "max_error": float(error.max()),
        "mean_error": float(error.mean()),
        "max_weber": float((error / local).max()),
        "psnr_db": psnr,
    }
