"""Deliberate DET001-DET004 violations, annotated -- do NOT copy these.

The full-tree lint (``python -m repro.tools.check``) scans only
``src/repro``, so this file never gates CI; it exists to demonstrate
the determinism analyzer on realistic-looking code.  Run it through the
checker to see every rule fire with its taint trace::

    python -m repro.tools.check examples/determinism_antipatterns.py --explain DET002

Each block below breaks the bit-identity contract (results are pure
functions of unit identity, byte-identical at any worker count) in one
of the four ways the DET rules catch statically.
"""

from __future__ import annotations

import json
import time
from typing import Any

import numpy as np

# DET001 (module state): one generator shared by every unit that lands
# in this process -- draw order depends on the work distribution.
_PROCESS_RNG = np.random.default_rng(2014)


def simulate_receiver(unit: Any) -> dict[str, float]:  # checks: worker-scope
    # DET001: fresh entropy -- a different stream in every process.
    jitter_rng = np.random.default_rng()
    # DET001: constant seed -- the *same* stream for every unit.
    noise_rng = np.random.default_rng(1234)
    # DET001: module state read (see _PROCESS_RNG above).
    offset = float(_PROCESS_RNG.uniform())
    return {"ber": float(noise_rng.uniform() + jitter_rng.uniform() + offset)}


def fold_fleet_metrics(registry: Any, decoded_frames: int) -> None:
    pool_gauge = registry.gauge("exec.pool_size")  # exec-scoped substrate number
    decoded = registry.counter("fleet.decoded")  # work-scoped by default
    decoded.inc(decoded_frames)
    # DET004: exec-scoped value folded into a work-scoped metric -- the
    # "work" number now varies with worker count.
    decoded.inc(pool_gauge.value)
    # DET002: wall-clock into a work-scoped metric write.
    decoded.inc(time.perf_counter())


def fleet_report_json(cohorts: dict[str, dict[str, float]]) -> str:
    seen = {name for name in cohorts}
    # DET003: set iteration order feeds canonical JSON -- byte-unstable
    # across processes.  sorted(seen) is the one-token fix.
    rows = [cohorts[name] for name in seen]
    return json.dumps({"cohorts": rows})
