"""repro.runtime: the parallel batched execution engine.

The photon pipeline (encode -> display -> capture -> decode) is
embarrassingly parallel per camera frame.  This package supplies the
execution substrate that exploits it without changing a single decoded
bit:

* :mod:`~repro.runtime.scheduler` -- deterministic chunk plans and
  spawn-keyed per-item RNG streams (the determinism contract);
* :mod:`~repro.runtime.engine` -- a crash-tolerant process-pool mapper
  with windowed dispatch, bounded retry and serial fallback; inputs
  reach workers by fork inheritance and results return pickled;
* :mod:`~repro.runtime.profiler` -- the :class:`RuntimeReport`
  (frames/sec, bits/sec, and the stage breakdown rolled up from spans);
* :mod:`~repro.runtime.link_exec` -- the one chunk fan-out, and the
  capture+observe job ``run_link(..., workers=N)`` runs through it.

See ``docs/runtime.md`` for the design.
"""

from repro.runtime.engine import (
    EngineStats,
    ExecutionEngine,
    default_workers,
    resolve_start_method,
    usable_cpus,
)
from repro.runtime.link_exec import LinkExecution, execute_link_captures
from repro.runtime.profiler import RuntimeReport
from repro.runtime.scheduler import WorkChunk, plan_chunks, spawn_rng

__all__ = [
    "EngineStats",
    "ExecutionEngine",
    "LinkExecution",
    "RuntimeReport",
    "WorkChunk",
    "default_workers",
    "execute_link_captures",
    "plan_chunks",
    "resolve_start_method",
    "spawn_rng",
    "usable_cpus",
]
