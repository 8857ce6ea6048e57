"""Error-correction substrate used by the InFrame framing layer.

The paper applies "common error correction code such as RS code" inside a
Group of Blocks and leaves stronger codes as future work; this subpackage
provides that substrate built from scratch:

* :mod:`repro.ecc.galois` -- GF(2^8) arithmetic on log/antilog tables.
* :mod:`repro.ecc.reed_solomon` -- a systematic RS(n, k) codec with
  errors-and-erasures decoding (Berlekamp-Massey + Chien + Forney).
* :mod:`repro.ecc.crc` -- CRC-16/CCITT payload integrity check.
* :mod:`repro.ecc.interleaver` -- block interleaving to spread the bursty
  losses produced by the rolling-shutter bands across RS codewords, and
  the erasure-aware decode of an interleaved codeword block.
"""

from repro.ecc.crc import crc16, crc16_verify
from repro.ecc.galois import GF256
from repro.ecc.interleaver import BlockInterleaver
from repro.ecc.reed_solomon import ReedSolomonCodec, RSDecodingError

__all__ = [
    "GF256",
    "ReedSolomonCodec",
    "RSDecodingError",
    "crc16",
    "crc16_verify",
    "BlockInterleaver",
]
