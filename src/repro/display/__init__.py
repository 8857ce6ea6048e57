"""Display simulator substrate.

The paper drives an Eizo FG2421 (24", 1920x1080, 120 Hz) at 100% brightness.
This subpackage models what matters about that panel for both channels:

* :mod:`repro.display.gamma` -- pixel value <-> emitted luminance transfer
  (the reason a fixed pixel-value amplitude produces a larger *luminance*
  modulation on bright content, which drives the Fig. 6 brightness trend).
* :mod:`repro.display.panel` -- the panel itself: geometry, refresh clock,
  peak luminance, and a first-order liquid-crystal response that low-passes
  abrupt frame transitions.
* :mod:`repro.display.scheduler` -- turns a frame sequence into the emitted
  light field sampled at arbitrary instants, which the camera and the
  human-vision models both consume.
"""

from repro.display.gamma import GammaCurve
from repro.display.panel import DisplayPanel
from repro.display.scheduler import DisplayTimeline, MemoizedTimeline

__all__ = [
    "DisplayTimeline",
    "DisplayPanel",
    "GammaCurve",
    "MemoizedTimeline",
]
