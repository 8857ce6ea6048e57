"""Systematic Reed-Solomon codec over GF(2^8) with errors-and-erasures decoding.

The InFrame receiver knows *which* GOBs were unavailable (rolling-shutter
bands, low-confidence blocks), so erasure decoding roughly doubles the
protection the parity symbols buy: an RS(n, k) code corrects ``e`` errors
and ``f`` erasures whenever ``2e + f <= n - k``.

The implementation is textbook: syndrome computation, erasure-locator
initialisation, Berlekamp-Massey for the errata locator, Chien search for
the roots, and Forney's algorithm for the magnitudes.
"""

from __future__ import annotations

from collections.abc import Iterable, Sequence

import numpy as np

from repro.ecc.galois import DEFAULT_FIELD, GF256


class RSDecodingError(ValueError):
    """Raised when a received word is beyond the code's correction radius."""


class ReedSolomonCodec:
    """A systematic RS(n, k) code over GF(2^8).

    Parameters
    ----------
    n_symbols:
        Codeword length in bytes, at most 255.
    k_symbols:
        Message length in bytes, ``1 <= k < n``.
    field:
        The GF(2^8) instance to operate in.
    first_consecutive_root:
        The power of alpha at which the generator polynomial's consecutive
        roots start (``fcr``), conventionally 0 or 1.

    Examples
    --------
    >>> codec = ReedSolomonCodec(15, 11)
    >>> word = codec.encode(bytes(range(11)))
    >>> corrupted = bytearray(word); corrupted[3] ^= 0xFF
    >>> decoded, n_fixed = codec.decode(bytes(corrupted))
    >>> decoded == bytes(range(11)), n_fixed
    (True, 1)
    """

    def __init__(
        self,
        n_symbols: int,
        k_symbols: int,
        field: GF256 | None = None,
        first_consecutive_root: int = 0,
    ) -> None:
        if not (1 <= k_symbols < n_symbols <= 255):
            raise ValueError(
                f"need 1 <= k < n <= 255, got n={n_symbols}, k={k_symbols}"
            )
        self.n = int(n_symbols)
        self.k = int(k_symbols)
        self.n_parity = self.n - self.k
        self.fcr = int(first_consecutive_root)
        self.field = field if field is not None else DEFAULT_FIELD
        self._generator = self._build_generator()
        # Power tables: alpha^((fcr+i)(n-1-j)) weighs byte j in syndrome i,
        # and alpha^(k(255-loc)) is x^k at the Chien candidate x = alpha^-loc.
        exp = self.field._exp
        positions = np.arange(self.n)
        roots = self.fcr + np.arange(self.n_parity)
        self._syndrome_powers = exp[np.outer(roots, self.n - 1 - positions) % 255]
        self._chien_powers = exp[np.outer(np.arange(self.n_parity + 1), 255 - positions) % 255]

    # ------------------------------------------------------------------
    # Encoding
    # ------------------------------------------------------------------
    def _build_generator(self) -> list[int]:
        """Generator polynomial: product of (x - alpha^(fcr+i))."""
        gen = [1]
        for i in range(self.n_parity):
            gen = self.field.poly_multiply(gen, [1, self.field.exp(self.fcr + i)])
        return gen

    def encode(self, message: bytes | Sequence[int]) -> bytes:
        """Encode *message* (k bytes) into a systematic n-byte codeword.

        The codeword layout is ``message || parity``.
        """
        msg = bytes(message)
        if len(msg) != self.k:
            raise ValueError(f"message must be exactly {self.k} bytes, got {len(msg)}")
        shifted = list(msg) + [0] * self.n_parity
        _, remainder = self.field.poly_divmod(shifted, self._generator)
        parity = [0] * (self.n_parity - len(remainder)) + remainder
        if parity == [0] * (self.n_parity - 1) + [0]:
            parity = [0] * self.n_parity
        parity = parity[-self.n_parity:]
        return msg + bytes(parity)

    # ------------------------------------------------------------------
    # Decoding
    # ------------------------------------------------------------------
    def decode(
        self,
        received: bytes | Sequence[int],
        erasure_positions: Iterable[int] = (),
    ) -> tuple[bytes, int]:
        """Decode an n-byte *received* word.

        Parameters
        ----------
        received:
            The possibly corrupted codeword.
        erasure_positions:
            Byte indices (0-based from the start of the codeword) known to
            be unreliable.  Values at those positions are ignored.

        Returns
        -------
        (message, n_corrected):
            The recovered k-byte message and the number of errata fixed
            (errors plus erasures).

        Raises
        ------
        RSDecodingError:
            If the word is uncorrectable (``2*errors + erasures > n - k``
            or an internally inconsistent solution).
        """
        word = list(bytes(received))
        if len(word) != self.n:
            raise ValueError(f"received word must be {self.n} bytes, got {len(word)}")
        erasures = sorted(set(int(p) for p in erasure_positions))
        if erasures and (erasures[0] < 0 or erasures[-1] >= self.n):
            raise ValueError(f"erasure positions must be in [0, {self.n}), got {erasures}")
        if len(erasures) > self.n_parity:
            raise RSDecodingError(
                f"{len(erasures)} erasures exceed correction capacity {self.n_parity}"
            )
        for pos in erasures:
            word[pos] = 0

        syndromes = self._syndromes(word)
        if not any(syndromes):
            return bytes(word[: self.k]), 0

        # Positions are conventionally expressed as powers of alpha of the
        # term each byte multiplies: byte i multiplies x^(n-1-i).
        erasure_locs = [self.n - 1 - pos for pos in erasures]
        erasure_locator = self._erasure_locator(erasure_locs)
        forney_syndromes = self._forney_syndromes(syndromes, erasure_locs)
        error_locator = self._berlekamp_massey(forney_syndromes, len(erasures))
        error_count = len(error_locator) - 1
        if 2 * error_count + len(erasures) > self.n_parity:
            raise RSDecodingError("too many errors to correct")
        errata_locator = self.field.poly_multiply(error_locator, erasure_locator)

        positions = self._chien_search(errata_locator)
        if len(positions) != len(errata_locator) - 1:
            raise RSDecodingError("errata locator has wrong number of roots")

        magnitudes = self._forney(syndromes, errata_locator, positions)
        for loc, magnitude in zip(positions, magnitudes):
            word[self.n - 1 - loc] ^= magnitude
        if any(self._syndromes(word)):
            raise RSDecodingError("correction failed to zero the syndromes")
        return bytes(word[: self.k]), len(positions)

    def check(self, received: bytes | Sequence[int]) -> bool:
        """Return True if *received* is a valid codeword (all syndromes zero)."""
        word = list(bytes(received))
        if len(word) != self.n:
            raise ValueError(f"received word must be {self.n} bytes, got {len(word)}")
        return not any(self._syndromes(word))

    # ------------------------------------------------------------------
    # Decoder internals
    # ------------------------------------------------------------------
    def _syndromes(self, word: list[int]) -> list[int]:
        """S_i = r(alpha^(fcr+i)) for i in [0, n_parity)."""
        terms = self.field.multiply_vec(self._syndrome_powers, np.asarray(word, dtype=np.uint8))
        syndromes: list[int] = np.bitwise_xor.reduce(terms, axis=1).tolist()
        return syndromes

    def _erasure_locator(self, erasure_locs: list[int]) -> list[int]:
        """Product of (1 - x * alpha^loc) for the known erasure locations."""
        locator = [1]
        for loc in erasure_locs:
            # (1 + alpha^loc * x) with coefficients highest-degree-first.
            locator = self.field.poly_multiply([self.field.exp(loc), 1], locator)
        return locator

    def _forney_syndromes(self, syndromes: list[int], erasure_locs: list[int]) -> list[int]:
        """Strip the known-erasure contributions out of the syndromes.

        Each pass computes ``S'_j = alpha^loc * S_j + S_{j+1}`` for every j
        at once, which zeroes the term contributed by the erasure at *loc*
        regardless of ``fcr`` and drops the last entry, so
        ``n_parity - len(erasure_locs)`` entries remain.
        """
        fsynd = np.asarray(syndromes, dtype=np.uint8)
        for loc in erasure_locs:
            fsynd = self.field.scale_vec(fsynd[:-1], self.field.exp(loc)) ^ fsynd[1:]
        forney_syndromes: list[int] = fsynd.tolist()
        return forney_syndromes

    def _berlekamp_massey(self, syndromes: list[int], n_erasures: int) -> list[int]:
        """Find the error-locator polynomial for the unknown error positions.

        Canonical Massey formulation with explicit degree tracking; operates
        on lowest-degree-first coefficients internally and returns the
        locator highest-degree-first (matching the rest of the codec).
        """
        gf = self.field
        n_steps = self.n_parity - n_erasures
        locator = [1]          # Lambda(x), lowest-degree-first
        support = [1]          # B(x), the last locator before a length change
        degree = 0             # L, current locator degree
        gap = 1                # m, steps since the last length change
        last_delta = 1         # b, discrepancy at the last length change
        for step in range(n_steps):
            delta = syndromes[step]
            for j in range(1, degree + 1):
                delta ^= gf.multiply(locator[j], syndromes[step - j])
            if delta == 0:
                gap += 1
                continue
            scale = gf.divide(delta, last_delta)
            correction = [0] * gap + gf.poly_scale(support, scale)
            updated = [0] * max(len(locator), len(correction))
            for i, coeff in enumerate(locator):
                updated[i] ^= coeff
            for i, coeff in enumerate(correction):
                updated[i] ^= coeff
            if 2 * degree <= step:
                support = list(locator)
                last_delta = delta
                degree = step + 1 - degree
                gap = 1
            else:
                gap += 1
            locator = updated
        locator = locator[: degree + 1] + [0] * max(0, degree + 1 - len(locator))
        return gf._trim(list(reversed(locator)))

    def _chien_search(self, locator: list[int]) -> list[int]:
        """Return the error locations (as powers of alpha) that zero the locator."""
        # A root at x = alpha^(-loc) marks an errata at position loc.  With the
        # coefficients lowest degree first, row k of the table holds x^k.
        coeffs = np.array(locator[::-1], dtype=np.uint8)[:, None]
        terms = self.field.multiply_vec(self._chien_powers[: coeffs.shape[0]], coeffs)
        roots = np.bitwise_xor.reduce(terms, axis=0) == 0
        positions: list[int] = np.flatnonzero(roots).tolist()
        return positions

    def _forney(
        self,
        syndromes: list[int],
        locator: list[int],
        positions: list[int],
    ) -> list[int]:
        """Compute errata magnitudes with Forney's algorithm."""
        # Errata evaluator: Omega(x) = [S(x) * Lambda(x)] mod x^n_parity (its last terms).
        syndrome_poly = list(reversed(syndromes))
        product = self.field.poly_multiply(syndrome_poly, locator)
        evaluator = self.field._trim(product[-self.n_parity :])
        derivative = self.field.poly_derivative(locator)

        magnitudes = []
        for loc in positions:
            x_inv = self.field.exp(255 - loc)
            numerator = self.field.poly_eval(evaluator, x_inv)
            denominator = self.field.poly_eval(derivative, x_inv)
            if denominator == 0:
                raise RSDecodingError("Forney denominator is zero")
            magnitude = self.field.divide(numerator, denominator)
            # Adjust for fcr: magnitude *= X^(1 - fcr) where X = alpha^loc.
            magnitude = self.field.multiply(magnitude, self.field.power(self.field.exp(loc), 1 - self.fcr))
            magnitudes.append(magnitude)
        return magnitudes

    def __repr__(self) -> str:  # pragma: no cover - debugging aid
        return f"ReedSolomonCodec(n={self.n}, k={self.k}, fcr={self.fcr})"
