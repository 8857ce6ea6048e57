"""Temporal block smoothing (paper Section 3.2).

A data frame is held for ``tau`` displayed frames.  A Pixel whose bit is
unchanged between consecutive data frames keeps a constant envelope; a
Pixel that switches 1->0 or 0->1 ramps its amplitude across the *second
half* of the outgoing data frame's cycle, following Omega_10 (down) or
Omega_01 (up).

The paper compares three envelope shapes and adopts "half of the
square-root raised Cosine waveform":

* ``srrc``   -- Omega_10(x) = cos(pi x / 2); the constant-power crossfade
  (Omega_10^2 + Omega_01^2 = 1), smooth at both ends;
* ``linear`` -- straight ramps;
* ``stair``  -- a hard switch at mid-transition (the no-smoothing control).
"""

from __future__ import annotations

from dataclasses import dataclass

import numpy as np


def omega_10(x: np.ndarray | float, kind: str = "srrc") -> np.ndarray | float:
    """Down-ramp envelope Omega_10 over normalised transition time x in [0, 1]."""
    x = np.clip(x, 0.0, 1.0)
    if kind == "srrc":
        return np.cos(np.pi * x / 2.0)
    if kind == "linear":
        return 1.0 - x
    if kind == "stair":
        return np.where(np.asarray(x) < 0.5, 1.0, 0.0)
    raise ValueError(f"unknown waveform kind {kind!r}")


def omega_01(x: np.ndarray | float, kind: str = "srrc") -> np.ndarray | float:
    """Up-ramp envelope Omega_01 over normalised transition time x in [0, 1]."""
    x = np.clip(x, 0.0, 1.0)
    if kind == "srrc":
        return np.sin(np.pi * x / 2.0)
    if kind == "linear":
        return np.asarray(x, dtype=np.float64) + 0.0
    if kind == "stair":
        return np.where(np.asarray(x) < 0.5, 0.0, 1.0)
    raise ValueError(f"unknown waveform kind {kind!r}")


def envelope_pair(x: float, kind: str = "srrc") -> tuple[float, float]:
    """(outgoing, incoming) envelope factors at transition phase *x*."""
    return float(omega_10(x, kind)), float(omega_01(x, kind))


@dataclass(frozen=True)
class SmoothingWaveform:
    """The per-Pixel envelope schedule for one data-frame cycle.

    Parameters
    ----------
    tau:
        Cycle length in displayed frames (even).
    kind:
        Envelope shape: ``srrc``, ``linear`` or ``stair``.
    """

    tau: int
    kind: str = "srrc"

    def __post_init__(self) -> None:
        if self.tau < 2 or self.tau % 2:
            raise ValueError(f"tau must be an even integer >= 2, got {self.tau}")
        if self.kind not in ("srrc", "linear", "stair"):
            raise ValueError(f"unknown waveform kind {self.kind!r}")

    def factors(self, step: int) -> tuple[float, float]:
        """Envelope factors ``(current, next)`` at displayed-frame *step*.

        ``step`` counts displayed frames within the cycle, 0 <= step < tau.
        The envelope advances per *iteration* (complementary frame pair),
        never within a pair -- both frames of a pair must carry identical
        amplitude or the pair stops fusing to the plain video and leaks a
        baseband flicker component.  During the first half of the
        iterations the current data frame is fully active; across the
        second half the envelope crossfades toward the next data frame,
        reaching it exactly at the cycle boundary.
        """
        if not (0 <= step < self.tau):
            raise ValueError(f"step must be in [0, {self.tau}), got {step}")
        if self.tau == 2:
            return (1.0, 0.0)  # single-pair cycles switch hard at the boundary
        pair = step // 2
        n_pairs = self.tau / 2.0
        half_pairs = n_pairs / 2.0
        x = (pair + 1 - half_pairs) / half_pairs
        if x <= 0.0:
            return (1.0, 0.0)
        if x >= 1.0:
            return (0.0, 1.0)  # cos(pi/2) is 6e-17, not 0: the next frame is held exactly
        return envelope_pair(x, self.kind)

    def stability(self, step: int) -> float:
        """How much of the *current* data frame's amplitude survives at *step*.

        The decoder weights captured frames by this factor when
        aggregating evidence for a data frame.
        """
        return self.factors(step)[0]

    def envelope_samples(self, bits: np.ndarray) -> np.ndarray:
        """Displayed-frame envelope for a Pixel bit sequence.

        Given the bit value of one Pixel across consecutive data frames,
        return the amplitude envelope (0..1) over ``tau * len(bits)``
        displayed frames.  Used by Figure 5 and the waveform tests.
        """
        bits = np.asarray(bits, dtype=np.float64)
        if bits.ndim != 1 or bits.size < 1:
            raise ValueError(f"bits must be a 1-D sequence, got shape {bits.shape}")
        samples = np.empty(self.tau * bits.size, dtype=np.float64)
        for k, bit in enumerate(bits):
            nxt = bits[k + 1] if k + 1 < bits.size else bit
            for step in range(self.tau):
                current_factor, next_factor = self.factors(step)
                if bit == nxt:
                    value = bit  # invariant Pixels hold a constant envelope
                else:
                    value = bit * current_factor + nxt * next_factor
                samples[k * self.tau + step] = value
        return samples


def transition_profile(kind: str, n_samples: int = 64) -> np.ndarray:
    """Sampled Omega_10 down-ramp for plotting/comparison (Figure 5)."""
    if n_samples < 2:
        raise ValueError(f"n_samples must be >= 2, got {n_samples}")
    x = np.linspace(0.0, 1.0, n_samples)
    return np.asarray(omega_10(x, kind), dtype=np.float64)
