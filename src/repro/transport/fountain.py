"""Rateless LT (fountain) coding for the packet-erasure channel.

The PHY erases *frames* in bursts (rolling-shutter bands, occlusions,
textured content), so which packets of a batch survive is unpredictable.
A fountain code makes that irrelevant: the sender emits an endless stream
of encoding symbols -- each the XOR of a pseudo-random subset of the
``k`` source blocks -- and *any* ``k(1+eps)`` received symbols recover
the payload with high probability (Luby, FOCS 2002).

Both ends derive a symbol's neighbour set deterministically from
``(session seed, symbol id)``, so the id in a packet header is all the
receiver needs.  The code is *systematic*: symbols ``0..k-1`` are the
source blocks verbatim (a lossless first pass costs zero overhead), and
every later symbol draws its degree from the robust-soliton
distribution, which keeps the peeling decoder's ripple alive: a spike at
``d = 1`` seeds it, the ``1/d(d-1)`` ideal-soliton body sustains it, and
the spike at ``d = k/R`` ensures full coverage of the source blocks.
"""

from __future__ import annotations

import numpy as np

from repro._util import check_positive_int

#: Domain-separation constant mixed into every symbol RNG seed.
_SEED_DOMAIN = 0x1F5E

#: Robust-soliton ripple constant: larger means more low degrees, so more
#: overhead but a more robust ripple.  Encoder and decoder both read it,
#: so a sender and a receiver always derive the same degrees.
_SOLITON_C = 0.1

#: Robust-soliton target bound on the decoder's failure probability.
_SOLITON_DELTA = 0.5


def robust_soliton_distribution(k: int) -> np.ndarray:
    """The robust-soliton degree probabilities for ``k`` source blocks.

    Returns a length-``k`` vector where entry ``d-1`` is the probability
    of degree ``d``, at the module's ripple constant ``_SOLITON_C``
    and failure bound ``_SOLITON_DELTA``.
    """
    check_positive_int(k, "k")
    if k == 1:
        return np.ones(1)
    degrees = np.arange(1, k + 1, dtype=np.float64)
    rho = np.zeros(k)
    rho[0] = 1.0 / k
    rho[1:] = 1.0 / (degrees[1:] * (degrees[1:] - 1.0))
    ripple = _SOLITON_C * np.log(k / _SOLITON_DELTA) * np.sqrt(k)
    spike = max(1, min(k, int(round(k / ripple))))
    tau = np.zeros(k)
    small = degrees < spike
    tau[small] = ripple / (degrees[small] * k)
    tau[spike - 1] = (
        ripple * np.log(ripple / _SOLITON_DELTA) / k if ripple > _SOLITON_DELTA else 0.0
    )
    tau = np.maximum(tau, 0.0)
    dist = rho + tau
    return dist / dist.sum()


def symbol_neighbors(
    k: int, seed: int, seq: int, distribution: np.ndarray
) -> np.ndarray:
    """The source-block indices XORed into symbol *seq* (sorted, unique).

    Deterministic in ``(k, seed, seq)``: the encoder and the peeling
    decoder call this with the same arguments and agree exactly.  The
    first ``k`` symbols are systematic (symbol ``i`` is source block
    ``i``); later symbols draw from *distribution*.
    """
    if seq < 0:
        raise ValueError(f"symbol id must be >= 0, got {seq}")
    if seq < k:
        return np.array([seq])
    rng = np.random.default_rng((_SEED_DOMAIN, seed, seq))
    degree = 1 + int(rng.choice(distribution.size, p=distribution))
    return np.sort(rng.choice(k, size=degree, replace=False))


def symbol_degree(k: int, seed: int, seq: int, distribution: np.ndarray) -> int:
    """The number of source blocks XORed into symbol *seq*.

    Same derivation as :func:`symbol_neighbors` (systematic symbols have
    degree 1); used by the telemetry layer to histogram the realized
    degree distribution of a session's sent symbols.
    """
    return int(symbol_neighbors(k, seed, seq, distribution).size)


class LTEncoder:
    """Generate LT encoding symbols from a byte payload.

    Parameters
    ----------
    data:
        The payload; padded to a whole number of blocks internally.
    symbol_size:
        Bytes per encoding symbol (= per source block).
    seed:
        Session seed shared with the decoder (typically the session id,
        which travels in every packet header).
    """

    def __init__(self, data: bytes, symbol_size: int, seed: int = 0) -> None:
        if not data:
            raise ValueError("data must not be empty")
        check_positive_int(symbol_size, "symbol_size")
        self.total_len = len(data)
        self.symbol_size = symbol_size
        self.seed = int(seed)
        self.k = (self.total_len + symbol_size - 1) // symbol_size
        padded = bytes(data).ljust(self.k * symbol_size, b"\x00")
        self._blocks = np.frombuffer(padded, dtype=np.uint8).reshape(
            self.k, symbol_size
        )
        self._distribution = robust_soliton_distribution(self.k)

    def neighbors(self, seq: int) -> np.ndarray:
        """The source blocks combined into symbol *seq*."""
        return symbol_neighbors(self.k, self.seed, seq, self._distribution)

    def degree(self, seq: int) -> int:
        """How many source blocks symbol *seq* combines."""
        return symbol_degree(self.k, self.seed, seq, self._distribution)

    def symbol(self, seq: int) -> bytes:
        """Encoding symbol *seq*: the XOR of its neighbour blocks."""
        picked = self._blocks[self.neighbors(seq)]
        return np.bitwise_xor.reduce(picked, axis=0).tobytes()


class LTDecoder:
    """Peeling (belief-propagation) decoder for :class:`LTEncoder` symbols.

    Feed symbols in any order via :meth:`add_symbol`; degree-1 symbols
    release source blocks, which are XORed out of every pending symbol,
    possibly cascading further releases (the ripple).  When peeling
    stalls with enough equations banked, the decoder falls back to
    GF(2) Gaussian elimination over the pending symbols (inactivation
    decoding, as in RaptorQ), which pushes the overhead toward the
    information-theoretic minimum for small ``k``.  Everything needed to
    construct one travels in packet headers: ``k`` and ``total_len``
    from the length fields, ``seed`` from the session id.
    """

    def __init__(
        self,
        k: int,
        symbol_size: int,
        total_len: int,
        seed: int = 0,
    ) -> None:
        check_positive_int(k, "k")
        check_positive_int(symbol_size, "symbol_size")
        check_positive_int(total_len, "total_len")
        if total_len > k * symbol_size:
            raise ValueError(
                f"total_len {total_len} exceeds k*symbol_size {k * symbol_size}"
            )
        self.k = k
        self.symbol_size = symbol_size
        self.total_len = total_len
        self.seed = int(seed)
        self._distribution = robust_soliton_distribution(k)
        self._blocks = np.zeros((k, symbol_size), dtype=np.uint8)
        self._known = np.zeros(k, dtype=bool)
        self._pending: dict[int, tuple[set[int], np.ndarray]] = {}
        self._by_block: dict[int, set[int]] = {}
        self._seen: set[int] = set()
        self._solve_watermark = 0
        self.n_received = 0
        self.n_redundant = 0

    # ------------------------------------------------------------------
    # Symbol intake
    # ------------------------------------------------------------------
    def add_symbol(self, seq: int, payload: bytes) -> bool:
        """Ingest symbol *seq*; returns True if it advanced the decode."""
        buf = bytes(payload)
        if len(buf) != self.symbol_size:
            raise ValueError(
                f"symbol must be {self.symbol_size} bytes, got {len(buf)}"
            )
        if seq in self._seen:
            self.n_redundant += 1
            return False
        self._seen.add(seq)
        self.n_received += 1
        value = np.frombuffer(buf, dtype=np.uint8).copy()
        neighbors = set(
            int(i) for i in symbol_neighbors(self.k, self.seed, seq, self._distribution)
        )
        # Reduce by already-recovered blocks.
        for block in [b for b in neighbors if self._known[b]]:
            value ^= self._blocks[block]
            neighbors.discard(block)
        if not neighbors:
            self.n_redundant += 1
            return False
        if len(neighbors) == 1:
            self._release(neighbors.pop(), value)
            return True
        self._pending[seq] = (neighbors, value)
        for block in neighbors:
            self._by_block.setdefault(block, set()).add(seq)
        if not self.complete:
            self._try_solve()
        return True

    def _release(self, block: int, value: np.ndarray) -> None:
        """Recover one source block and peel it out of pending symbols."""
        ripple = [(block, value)]
        while ripple:
            block, value = ripple.pop()
            if self._known[block]:
                continue
            self._blocks[block] = value
            self._known[block] = True
            for seq in sorted(self._by_block.pop(block, ())):
                entry = self._pending.get(seq)
                if entry is None:
                    continue
                neighbors, sym = entry
                sym ^= value
                neighbors.discard(block)
                if len(neighbors) == 1:
                    del self._pending[seq]
                    last = next(iter(neighbors))
                    self._by_block.get(last, set()).discard(seq)
                    ripple.append((last, sym))
                elif not neighbors:
                    del self._pending[seq]

    def _try_solve(self) -> None:
        """Inactivation fallback: GF(2) elimination over pending symbols.

        Runs only when the banked equations could possibly determine all
        remaining blocks, and only once per new batch of pending symbols
        (the watermark), so the peeling fast path stays dominant.
        """
        unknown = [int(b) for b in np.flatnonzero(~self._known)]
        if not unknown or len(self._pending) < len(unknown):
            return
        if len(self._pending) <= self._solve_watermark:
            return
        self._solve_watermark = len(self._pending)
        column = {block: j for j, block in enumerate(unknown)}
        rows = []
        for neighbors, value in self._pending.values():
            indicator = np.zeros(len(unknown), dtype=bool)
            for block in neighbors:
                indicator[column[block]] = True
            rows.append((indicator, value.copy()))
        # Forward elimination (columns before *col* are already clear in
        # every remaining row by induction).
        pivots: list[tuple[int, np.ndarray, np.ndarray]] = []
        for col in range(len(unknown)):
            pivot = next((r for r in rows if r[0][col]), None)
            if pivot is None:
                return  # rank-deficient; wait for more symbols
            rows = [r for r in rows if r is not pivot]
            for indicator, value in rows:
                if indicator[col]:
                    indicator ^= pivot[0]
                    value ^= pivot[1]
            pivots.append((col, pivot[0], pivot[1]))
        # Back substitution, last pivot first.
        solved: dict[int, np.ndarray] = {}
        for col, indicator, value in reversed(pivots):
            resolved = value.copy()
            for other in np.flatnonzero(indicator):
                if other != col:
                    resolved ^= solved[int(other)]
            solved[col] = resolved
        for col, value in solved.items():
            self._release(unknown[col], value)
        self._solve_watermark = 0

    # ------------------------------------------------------------------
    # Status and output
    # ------------------------------------------------------------------
    @property
    def complete(self) -> bool:
        """True when every source block is recovered."""
        return bool(self._known.all())

    @property
    def n_decoded(self) -> int:
        """Source blocks recovered so far."""
        return int(self._known.sum())

    @property
    def n_missing(self) -> int:
        """Source blocks still unknown."""
        return self.k - self.n_decoded

    def data(self) -> bytes:
        """The reassembled payload.

        Raises
        ------
        ValueError:
            If the decode is not complete yet.
        """
        if not self.complete:
            raise ValueError(
                f"decode incomplete: {self.n_missing}/{self.k} blocks missing"
            )
        return self._blocks.tobytes()[: self.total_len]
