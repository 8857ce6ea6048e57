"""A lightweight sampling profiler with per-stage aggregation.

The stage spans of :mod:`repro.obs.trace` answer "how long did each
stage take" (``RuntimeReport.stages``); they cannot answer "where
*inside* render is the time going" without instrumenting every
function.  This sampler answers that statistically: a daemon thread (or,
opt-in, a SIGPROF timer) captures the target thread's Python stack every
few milliseconds, aggregates identical stacks, and buckets every sample
by the innermost pipeline stage on the stack.  The buckets carry the
span names, so the sampled split and the timed split line up.  One
profile shows both the stage split and the hot call paths, exportable
as collapsed stacks for any flamegraph renderer (``stackcollapse``
format: one ``frame;frame;frame count`` line per unique stack).

Sampling is exec-scoped by nature (which samples land depends on
scheduling, never on the work), so the profiler lives entirely outside
the bit-identity contract: attaching it changes no pipeline output, and
its report carries wall-clock durations on purpose.

Usage::

    with SamplingProfiler(interval_s=0.005) as profiler:
        run_link(...)
    print(profiler.report().summary())
    profiler.report().write_collapsed("profile.folded")

or via ``--profile-sampling`` on the simulate / transfer / serve /
campaign CLIs.
"""

from __future__ import annotations

import signal
import sys
import threading
import time
import types
from collections.abc import Iterator, Mapping
from dataclasses import dataclass, field

#: ``module:function`` stack labels that mark a pipeline stage.  The
#: innermost match wins, so helper frames under ``render`` still bucket
#: as render.  Each link stage is named after the span
#: (``repro.runtime.profiler.LINK_STAGES``) its function runs inside.
STAGE_FUNCTIONS: Mapping[str, str] = {
    # link pipeline stages
    "repro.camera.capture:capture_frame": "render",
    "repro.faults.inject:capture_frame": "render",
    "repro.core.decoder:observe": "observe",
    "repro.core.decoder:decide_observations": "decide",
    "repro.core.decoder:decide_observations_healed": "decide",
    "repro.core.metrics:summarize_link": "score",
    # transport / serve / campaign layers
    "repro.core.pipeline:run_transport_link": "transport",
    "repro.serve.fanout:_simulate_receiver": "serve",
    "repro.campaign.units:execute_unit": "campaign",
}

#: Default sampling period: 5 ms ~ 200 Hz, cheap enough to leave on.
DEFAULT_INTERVAL_S = 0.005


def _frame_labels(frame: types.FrameType | None) -> tuple[str, ...]:
    """The stack under *frame* as ``module:function`` labels, root first."""
    labels: list[str] = []
    while frame is not None:
        code = frame.f_code
        module = frame.f_globals.get("__name__", "?")
        labels.append(f"{module}:{code.co_name}")
        frame = frame.f_back
    labels.reverse()
    return tuple(labels)


def stage_of(stack: tuple[str, ...]) -> str:
    """The stage bucket of one sampled stack (innermost marker wins)."""
    for label in reversed(stack):
        stage = STAGE_FUNCTIONS.get(label)
        if stage is not None:
            return stage
    return "other"


@dataclass(frozen=True)
class ProfileReport:
    """One finished sampling session, aggregated and JSON-ready.

    Attributes
    ----------
    samples:
        Total stacks captured.
    duration_s:
        Wall-clock span of the session (exec-scoped by design).
    interval_s:
        The configured sampling period.
    stacks:
        ``stack -> count`` over unique sampled stacks.
    by_stage:
        ``stage -> count`` per :data:`STAGE_FUNCTIONS` bucket.
    """

    samples: int
    duration_s: float
    interval_s: float
    stacks: dict[tuple[str, ...], int] = field(default_factory=dict)
    by_stage: dict[str, int] = field(default_factory=dict)

    def collapsed(self) -> list[str]:
        """Collapsed-stack lines (``a;b;c N``), sorted for stable output."""
        return [
            ";".join(stack) + f" {self.stacks[stack]}"
            for stack in sorted(self.stacks)
        ]

    def write_collapsed(self, path: str) -> None:
        """Write the collapsed stacks where flamegraph renderers expect them."""
        with open(path, "w", encoding="utf-8") as handle:
            for line in self.collapsed():
                handle.write(line + "\n")

    def stage_fractions(self) -> dict[str, float]:
        """Per-stage share of all samples (empty profile -> empty dict)."""
        if self.samples == 0:
            return {}
        return {
            stage: self.by_stage[stage] / self.samples
            for stage in sorted(self.by_stage)
        }

    def as_dict(self) -> dict[str, object]:
        """JSON-ready form (stacks keyed by their collapsed string)."""
        return {
            "format": "repro.obs.profile/1",
            "samples": self.samples,
            "duration_s": self.duration_s,
            "interval_s": self.interval_s,
            "by_stage": {k: self.by_stage[k] for k in sorted(self.by_stage)},
            "stacks": {
                ";".join(stack): self.stacks[stack] for stack in sorted(self.stacks)
            },
        }

    def summary(self) -> str:
        """A terminal-friendly stage breakdown."""
        lines = [
            f"sampling profile: {self.samples} samples over "
            f"{self.duration_s:.2f} s ({self.interval_s * 1000:g} ms period)"
        ]
        for stage, fraction in sorted(
            self.stage_fractions().items(), key=lambda kv: -kv[1]
        ):
            lines.append(
                f"  {stage:<10s} {fraction * 100:5.1f}%  "
                f"({self.by_stage[stage]} samples)"
            )
        return "\n".join(lines)


class SamplingProfiler:
    """Samples one thread's Python stack on a fixed period.

    Parameters
    ----------
    interval_s:
        Sampling period.
    mode:
        ``"thread"`` (default) runs a daemon thread reading the target
        thread's frame out of :func:`sys._current_frames` -- works from
        any thread and never interrupts the target.  ``"signal"`` uses
        ``SIGPROF`` via :func:`signal.setitimer` (CPU-time driven, main
        thread only) -- closer to a classic profiler, but unavailable
        inside embedded interpreters or off the main thread.
    target_thread_id:
        Thread to sample in ``"thread"`` mode; defaults to the thread
        that calls :meth:`start`.

    The profiler samples only -- it never mutates the target thread, so
    attaching it cannot change any pipeline output.
    """

    def __init__(
        self,
        interval_s: float = DEFAULT_INTERVAL_S,
        *,
        mode: str = "thread",
        target_thread_id: int | None = None,
    ) -> None:
        if interval_s <= 0.0:
            raise ValueError(f"interval_s must be > 0, got {interval_s}")
        if mode not in ("thread", "signal"):
            raise ValueError(f"mode must be 'thread' or 'signal', got {mode!r}")
        self.interval_s = float(interval_s)
        self.mode = mode
        self.target_thread_id = target_thread_id
        self._stacks: dict[tuple[str, ...], int] = {}
        self._samples = 0
        self._started_at = 0.0
        self._duration_s = 0.0
        self._stop = threading.Event()
        self._thread: threading.Thread | None = None
        self._previous_handler: object = None

    # ------------------------------------------------------------------
    # Sample capture (shared by both modes)
    # ------------------------------------------------------------------
    def _record_frame(self, frame: types.FrameType | None) -> None:
        if frame is None:
            return
        stack = _frame_labels(frame)
        if not stack:
            return
        self._stacks[stack] = self._stacks.get(stack, 0) + 1
        self._samples += 1

    def _sample_thread_loop(self, target_id: int) -> None:
        while not self._stop.is_set():
            frame = sys._current_frames().get(target_id)
            self._record_frame(frame)
            self._stop.wait(self.interval_s)

    def _on_sigprof(self, signum: int, frame: types.FrameType | None) -> None:
        self._record_frame(frame)

    # ------------------------------------------------------------------
    # Lifecycle
    # ------------------------------------------------------------------
    def start(self) -> "SamplingProfiler":
        """Begin sampling (idempotent)."""
        if self._thread is not None or self._started_at:
            return self
        self._started_at = time.perf_counter()
        if self.mode == "signal":
            if threading.current_thread() is not threading.main_thread():
                raise RuntimeError("signal-mode profiling requires the main thread")
            self._previous_handler = signal.signal(
                signal.SIGPROF, self._on_sigprof
            )
            signal.setitimer(signal.ITIMER_PROF, self.interval_s, self.interval_s)
            return self
        target = (
            self.target_thread_id
            if self.target_thread_id is not None
            else threading.get_ident()
        )
        self._stop.clear()
        self._thread = threading.Thread(
            target=self._sample_thread_loop,
            args=(target,),
            name="sampling-profiler",
            daemon=True,
        )
        self._thread.start()
        return self

    def stop(self) -> None:
        """Stop sampling; the report keeps accumulating across restarts."""
        if self._started_at:
            self._duration_s += time.perf_counter() - self._started_at
            self._started_at = 0.0
        if self.mode == "signal":
            signal.setitimer(signal.ITIMER_PROF, 0.0)
            if self._previous_handler is not None:
                signal.signal(signal.SIGPROF, self._previous_handler)  # type: ignore[arg-type]
                self._previous_handler = None
            return
        self._stop.set()
        if self._thread is not None:
            self._thread.join(timeout=5.0)
            self._thread = None

    def __enter__(self) -> "SamplingProfiler":
        return self.start()

    def __exit__(self, *exc: object) -> None:
        self.stop()

    # ------------------------------------------------------------------
    # Reporting
    # ------------------------------------------------------------------
    def _iter_stage_counts(self) -> Iterator[tuple[str, int]]:
        by_stage: dict[str, int] = {}
        for stack, count in self._stacks.items():
            stage = stage_of(stack)
            by_stage[stage] = by_stage.get(stage, 0) + count
        yield from sorted(by_stage.items())

    def report(self) -> ProfileReport:
        """Freeze what was sampled so far into a :class:`ProfileReport`."""
        duration = self._duration_s
        if self._started_at:
            duration += time.perf_counter() - self._started_at
        return ProfileReport(
            samples=self._samples,
            duration_s=duration,
            interval_s=self.interval_s,
            stacks=dict(self._stacks),
            by_stage=dict(self._iter_stage_counts()),
        )
