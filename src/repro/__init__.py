"""InFrame reproduction: dual-mode full-frame visible communication.

Reproduces Wang et al., "InFrame: Multiflexing Full-Frame Visible
Communication Channel for Humans and Devices" (HotNets-XIII, 2014): a
display shows video multiplexed with complementary data frames; humans
perceive only the video (flicker fusion), cameras decode the data.

Quickstart::

    from repro import InFrameConfig, run_link, sunrise_video

    config = InFrameConfig().scaled(0.5)
    video = sunrise_video(540, 960, n_frames=30)
    run = run_link(config, video)
    print(run.stats.row())

Subpackages: :mod:`repro.core` (the InFrame codec), :mod:`repro.display`,
:mod:`repro.camera`, :mod:`repro.hvs`, :mod:`repro.video`,
:mod:`repro.ecc`, :mod:`repro.baselines`, :mod:`repro.analysis`.
"""

from repro.camera import CameraModel, CapturedFrame, PerspectiveView
from repro.core import (
    DataFrameEncoder,
    FrameGeometry,
    InFrameConfig,
    InFrameDecoder,
    InFrameReceiver,
    InFrameSender,
    LinkStats,
    MultiplexedStream,
    PayloadSchedule,
    PseudoRandomSchedule,
    ZeroSchedule,
    run_link,
    summarize_link,
)
from repro.display import DisplayPanel, DisplayTimeline, GammaCurve
from repro.hvs import FlickerPredictor, FlickerReport, SubjectProfile
from repro.video import (
    gradient_video,
    moving_bars_video,
    noise_video,
    pure_color_video,
    sunrise_video,
)

__version__ = "1.0.0"

__all__ = [
    "InFrameConfig",
    "InFrameSender",
    "InFrameReceiver",
    "InFrameDecoder",
    "DataFrameEncoder",
    "FrameGeometry",
    "MultiplexedStream",
    "PseudoRandomSchedule",
    "PayloadSchedule",
    "ZeroSchedule",
    "LinkStats",
    "summarize_link",
    "run_link",
    "DisplayPanel",
    "DisplayTimeline",
    "GammaCurve",
    "CameraModel",
    "CapturedFrame",
    "PerspectiveView",
    "FlickerPredictor",
    "FlickerReport",
    "SubjectProfile",
    "pure_color_video",
    "gradient_video",
    "noise_video",
    "moving_bars_video",
    "sunrise_video",
    "__version__",
]
