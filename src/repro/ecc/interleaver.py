"""Block interleaving.

Rolling-shutter loss is bursty: a band of adjacent rows straddles a
complementary-frame boundary and every GOB in the band is erased at once.
Interleaving RS codeword symbols across the frame converts that burst into
isolated erasures in many codewords, which is what RS handles well.
"""

from __future__ import annotations

import numpy as np

from repro._util import check_positive_int
from repro.ecc.reed_solomon import ReedSolomonCodec, RSDecodingError


class BlockInterleaver:
    """A (rows x cols) block interleaver over byte streams.

    Bytes are written row-major into a matrix and read out column-major;
    deinterleaving inverts the permutation.  The stream length must equal
    ``rows * cols``.

    Examples
    --------
    >>> il = BlockInterleaver(2, 3)
    >>> il.interleave(b"abcdef")
    b'adbecf'
    >>> il.deinterleave(b'adbecf')
    b'abcdef'
    """

    def __init__(self, rows: int, cols: int) -> None:
        self.rows = check_positive_int(rows, "rows")
        self.cols = check_positive_int(cols, "cols")

    @property
    def size(self) -> int:
        """Number of bytes per interleaver frame."""
        return self.rows * self.cols

    def interleave(self, data: bytes) -> bytes:
        """Permute *data* (row-major write, column-major read)."""
        buf = self._as_matrix(data)
        return buf.T.tobytes()

    def deinterleave(self, data: bytes) -> bytes:
        """Invert :meth:`interleave`."""
        arr = np.frombuffer(bytes(data), dtype=np.uint8)
        if arr.size != self.size:
            raise ValueError(f"expected {self.size} bytes, got {arr.size}")
        return arr.reshape(self.cols, self.rows).T.tobytes()

    def interleave_positions(self, positions: list[int]) -> list[int]:
        """Map pre-interleave byte indices to post-interleave indices.

        Used to translate known-bad (erased) positions through the
        permutation so the RS decoder can be told where they land.
        """
        return sorted(self._forward_index(p) for p in self._check_positions(positions))

    def deinterleave_positions(self, positions: list[int]) -> list[int]:
        """Map post-interleave byte indices back to pre-interleave indices."""
        return sorted(self._backward_index(p) for p in self._check_positions(positions))

    def _as_matrix(self, data: bytes) -> np.ndarray:
        arr = np.frombuffer(bytes(data), dtype=np.uint8)
        if arr.size != self.size:
            raise ValueError(f"expected {self.size} bytes, got {arr.size}")
        return arr.reshape(self.rows, self.cols)

    def _check_positions(self, positions: list[int]) -> list[int]:
        out = [int(p) for p in positions]
        for p in out:
            if not (0 <= p < self.size):
                raise ValueError(f"position {p} outside [0, {self.size})")
        return out

    def _forward_index(self, index: int) -> int:
        row, col = divmod(index, self.cols)
        return col * self.rows + row

    def _backward_index(self, index: int) -> int:
        col, row = divmod(index, self.rows)
        return row * self.cols + col

    def __repr__(self) -> str:  # pragma: no cover - debugging aid
        return f"BlockInterleaver(rows={self.rows}, cols={self.cols})"


def decode_interleaved(
    bits: np.ndarray,
    known: np.ndarray,
    interleaver: BlockInterleaver,
    codec: ReedSolomonCodec,
) -> bytes:
    """Recover the messages of ``interleaver.rows`` interleaved RS codewords.

    *bits* and *known* hold the interleaved stream bit by bit; a byte
    with any unknown bit is an erasure.  The stream is deinterleaved and
    each codeword (one interleaver row) decoded with its erasures; the
    messages are returned concatenated.

    Raises
    ------
    RSDecodingError:
        Naming the first codeword beyond the correction radius and its
        erasure count.
    """
    message = np.packbits(bits.astype(np.uint8)).tobytes()
    byte_known = known.reshape(-1, 8).all(axis=1)
    erased = [int(i) for i in np.flatnonzero(~byte_known)]
    stream = interleaver.deinterleave(message)
    erased_original = interleaver.deinterleave_positions(erased)
    n = interleaver.cols
    out = bytearray()
    for cw_index in range(interleaver.rows):
        start = cw_index * n
        word = stream[start : start + n]
        erasures = [p - start for p in erased_original if start <= p < start + n]
        try:
            decoded, _ = codec.decode(word, erasure_positions=erasures)
        except RSDecodingError as exc:
            raise RSDecodingError(
                f"codeword {cw_index} uncorrectable ({len(erasures)} erasures): {exc}"
            ) from exc
        out.extend(decoded)
    return bytes(out)
