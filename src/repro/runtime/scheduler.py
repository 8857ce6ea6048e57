"""Chunk scheduling and seed-stamped RNG spawning.

The photon pipeline is embarrassingly parallel once the data frames are
scheduled: every camera capture renders, films and measures independently
of every other.  The scheduler splits an index range into contiguous
:class:`WorkChunk` units -- contiguous so each worker's display-frame
cache stays warm (consecutive captures share the display frames at their
boundary) -- and stamps every chunk with the run seed its items' RNG
streams spawn from.

Determinism contract
--------------------
Randomness is never drawn from a generator shared across items.  Each
item ``i`` of a run seeded with ``seed`` uses::

    np.random.default_rng(np.random.SeedSequence(seed, spawn_key=(i,)))

``spawn_key`` addressing is order-independent: it does not matter which
worker computes item ``i``, or in what order, or whether there are any
workers at all -- the draws are identical.  This is what makes parallel
output *bit-identical* to serial execution (see ``docs/runtime.md``).
"""

from __future__ import annotations

from dataclasses import dataclass

import numpy as np

from repro._util import check_positive_int


@dataclass(frozen=True)
class WorkChunk:
    """One contiguous, seed-stamped unit of work.

    Attributes
    ----------
    index:
        Position of the chunk in the plan (0-based).
    start, stop:
        Half-open item range ``[start, stop)`` this chunk covers.
    seed:
        The run seed every item RNG is spawned from.
    """

    index: int
    start: int
    stop: int
    seed: int = 0

    def __post_init__(self) -> None:
        if not (0 <= self.start < self.stop):
            raise ValueError(f"need 0 <= start < stop, got [{self.start}, {self.stop})")

    def __len__(self) -> int:
        return self.stop - self.start

    @property
    def items(self) -> range:
        """The item indices this chunk covers."""
        return range(self.start, self.stop)


def spawn_rng(seed: int, *key: int) -> np.random.Generator:  # checks: worker-scope
    """A generator on the stream addressed by ``(seed, key)``.

    Streams with distinct keys are statistically independent, and the
    addressing is stable across processes and schedule orders.
    """
    return np.random.default_rng(np.random.SeedSequence(seed, spawn_key=tuple(key)))


def plan_chunks(n_items: int, n_chunks: int = 1, seed: int = 0) -> list[WorkChunk]:
    """Split ``[0, n_items)`` into *n_chunks* contiguous chunks.

    When *n_items* does not divide evenly the leading chunks carry the
    remainder, so sizes differ by at most one and the plan is a pure
    function of its arguments.
    """
    check_positive_int(n_items, "n_items")
    check_positive_int(n_chunks, "n_chunks")
    n_chunks = min(n_chunks, n_items)
    base, extra = divmod(n_items, n_chunks)
    chunks: list[WorkChunk] = []
    at = 0
    for index in range(n_chunks):
        size = base + (1 if index < extra else 0)
        chunks.append(WorkChunk(index=index, start=at, stop=at + size, seed=seed))
        at += size
    return chunks
