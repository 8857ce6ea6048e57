"""Camera simulator substrate.

Stands in for the paper's Lumia 1020 receiver (1280x720 at 30 FPS, 50 cm
fronto-parallel capture of the monitor).  The model covers every channel
impairment the paper names:

* **frame-rate mismatch** -- the camera clock (30 FPS + offset + drift) is
  independent of the 120 Hz display clock;
* **rolling shutter** -- each sensor row integrates over its own shifted
  exposure window, so a single capture can straddle a complementary frame
  pair and cancel the chessboard in a band of rows
  (:mod:`repro.camera.rolling_shutter`);
* **poor capture quality** -- lens blur and vignetting
  (:mod:`repro.camera.optics`), photon shot noise, read noise and 8-bit
  quantisation (:mod:`repro.camera.sensor`), and resolution loss from the
  1920x1080 panel to the 1280x720 capture (:mod:`repro.camera.capture`).
"""

from repro.camera.capture import CameraModel, CapturedFrame, CaptureNoise
from repro.camera.geometry import PerspectiveView, homography_from_points, warp_image
from repro.camera.optics import OpticsModel
from repro.camera.rolling_shutter import RollingShutter
from repro.camera.sensor import SensorModel, SensorNoise

__all__ = [
    "CameraModel",
    "CapturedFrame",
    "CaptureNoise",
    "OpticsModel",
    "RollingShutter",
    "SensorModel",
    "SensorNoise",
    "PerspectiveView",
    "homography_from_points",
    "warp_image",
]
