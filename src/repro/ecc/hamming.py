"""Extended Hamming (8,4) SECDED code.

The paper's prototype protects each 2x2 GOB with a single XOR parity
Block (error *detection* only) and notes that "more sophisticated error
correction codes can be applied for larger GOB" as future work.  This
module supplies that upgrade: with 3x3 GOBs, 8 of the 9 Blocks carry an
extended-Hamming codeword of 4 data bits -- single-error *correction*,
double-error detection -- so a GOB with one misread Block is repaired
instead of discarded.

Bit layout (1-indexed positions, classic Hamming):

====  =======================
pos   meaning
====  =======================
1     p1 (parity of 3,5,7)
2     p2 (parity of 3,6,7)
3     d1
4     p3 (parity of 5,6,7)
5     d2
6     d3
7     d4
8     overall parity (SECDED)
====  =======================
"""

from __future__ import annotations

import numpy as np

#: Data-bit positions (0-indexed) in the 8-bit codeword.
_DATA_POSITIONS = (2, 4, 5, 6)
#: Positions checked by each of the three Hamming parities (0-indexed).
_CHECKS = ((0, 2, 4, 6), (1, 2, 5, 6), (3, 4, 5, 6))

#: Decode verdicts, indexed by the codes :func:`decode_block` returns.
OK = "ok"
CORRECTED = "corrected"
DOUBLE_ERROR = "double_error"
VERDICTS = (OK, CORRECTED, DOUBLE_ERROR)


def encode_hamming84(data_bits: np.ndarray) -> np.ndarray:
    """Encode 4 data bits into an extended-Hamming 8-bit codeword."""
    bits = np.asarray(data_bits, dtype=bool).ravel()
    if bits.size != 4:
        raise ValueError(f"expected 4 data bits, got {bits.size}")
    return encode_block(bits[None, :])[0]


def decode_hamming84(word: np.ndarray) -> tuple[np.ndarray, str]:
    """Decode an 8-bit word; returns ``(data_bits, verdict)``.

    Verdicts: :data:`OK` (clean), :data:`CORRECTED` (single error fixed),
    :data:`DOUBLE_ERROR` (uncorrectable; data bits are best-effort).
    """
    received = np.asarray(word, dtype=bool).ravel()
    if received.size != 8:
        raise ValueError(f"expected 8 codeword bits, got {received.size}")
    words, verdicts = decode_block(received[None, :])
    return words[0, list(_DATA_POSITIONS)], VERDICTS[verdicts[0]]


def encode_block(nibbles: np.ndarray) -> np.ndarray:
    """Encode an ``(n, 4)`` array of data bits into ``(n, 8)`` codewords."""
    nibbles = np.asarray(nibbles, dtype=bool)
    if nibbles.ndim != 2 or nibbles.shape[1] != 4:
        raise ValueError(f"expected (n, 4) data bits, got {nibbles.shape}")
    words = np.zeros((nibbles.shape[0], 8), dtype=bool)
    words[:, list(_DATA_POSITIONS)] = nibbles
    for parity_pos, checked in zip((0, 1, 3), _CHECKS):
        words[:, parity_pos] = np.bitwise_xor.reduce(words[:, list(checked[1:])], axis=1)
    words[:, 7] = np.bitwise_xor.reduce(words[:, :7], axis=1)
    return words


def decode_block(words: np.ndarray) -> tuple[np.ndarray, np.ndarray]:
    """Decode an ``(n, 8)`` array of words; returns ``(corrected, verdicts)``.

    ``corrected`` holds every word with its single error flipped (a
    :data:`DOUBLE_ERROR` word is returned as received); ``verdicts`` holds
    each word's index into :data:`VERDICTS`.
    """
    words = np.asarray(words, dtype=bool)
    if words.ndim != 2 or words.shape[1] != 8:
        raise ValueError(f"expected (n, 8) codeword bits, got {words.shape}")
    checks = np.bitwise_xor.reduce(words[:, np.array(_CHECKS)], axis=2)
    syndrome = checks @ np.array([1, 2, 4])
    overall = np.bitwise_xor.reduce(words, axis=1)
    # Verdict indices: an odd overall parity is one error (CORRECTED), at the
    # syndrome's position or, with a zero syndrome, in the overall parity bit;
    # an even one with a nonzero syndrome is a DOUBLE_ERROR.
    verdicts = np.where(overall, 1, np.where(syndrome > 0, 2, 0))
    corrected = words.copy()
    rows = np.flatnonzero(overall)
    flip = np.where(syndrome > 0, syndrome - 1, 7)[rows]
    corrected[rows, flip] = ~corrected[rows, flip]
    return corrected, verdicts
