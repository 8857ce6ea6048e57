"""GF(2^8) finite-field arithmetic.

The field is realised as polynomials over GF(2) modulo a primitive
polynomial (default ``x^8 + x^4 + x^3 + x^2 + 1`` = 0x11d, the polynomial
used by most Reed-Solomon deployments).  Multiplication and division go
through log/antilog tables.  The Reed-Solomon codec evaluates its
syndromes and Chien search with the vectorised :meth:`GF256.multiply_vec`,
one array operation per codeword against precomputed power tables.

Elements are plain Python ints (or NumPy uint8 arrays for the vectorised
helpers) in ``range(256)``.
"""

from __future__ import annotations

import numpy as np

#: Primitive polynomials of degree 8 over GF(2), as 9-bit integers.
PRIMITIVE_POLYNOMIALS_DEG8 = (
    0x11D, 0x12B, 0x12D, 0x14D, 0x15F, 0x163, 0x165, 0x169,
    0x171, 0x187, 0x18D, 0x1A9, 0x1C3, 0x1CF, 0x1E7, 0x1F5,
)


class GF256:
    """The finite field GF(2^8).

    Parameters
    ----------
    primitive_poly:
        A degree-8 primitive polynomial over GF(2), given as a 9-bit
        integer.  The generator element is always ``x`` (i.e. 2).

    Examples
    --------
    >>> gf = GF256()
    >>> gf.multiply(0x53, 0xCA)
    143
    >>> gf.inverse(0x53) == 0x8C
    True
    """

    ORDER = 256

    def __init__(self, primitive_poly: int = 0x11D) -> None:
        if not (0x100 < primitive_poly < 0x200):
            raise ValueError(
                f"primitive_poly must be a degree-8 polynomial (0x101..0x1ff), got {primitive_poly:#x}"
            )
        self.primitive_poly = int(primitive_poly)
        self._exp = np.zeros(512, dtype=np.uint8)
        self._log = np.zeros(256, dtype=np.int32)
        value = 1
        for power in range(255):
            self._exp[power] = value
            self._log[value] = power
            value <<= 1
            if value & 0x100:
                value ^= self.primitive_poly
        # x generates the field only if it first returns to 1 at step 255,
        # that is, if its powers before then are all distinct.
        if value != 1 or np.unique(self._exp[:255]).size != 255:
            raise ValueError(f"{primitive_poly:#x} is not primitive over GF(2)")
        # Duplicate the exp table so that exp[a + b] needs no modular reduction
        # for a, b in [0, 254].
        self._exp[255:510] = self._exp[:255]
        self._log[0] = -1  # log(0) is undefined; poisoned value.

    # ------------------------------------------------------------------
    # Scalar operations
    # ------------------------------------------------------------------
    @staticmethod
    def add(a: int, b: int) -> int:
        """Field addition (= subtraction): bitwise XOR."""
        return (a ^ b) & 0xFF

    subtract = add

    def multiply(self, a: int, b: int) -> int:
        """Field multiplication via log tables."""
        if a == 0 or b == 0:
            return 0
        return int(self._exp[self._log[a] + self._log[b]])

    def divide(self, a: int, b: int) -> int:
        """Field division ``a / b``; raises ZeroDivisionError for b == 0."""
        if b == 0:
            raise ZeroDivisionError("division by zero in GF(256)")
        if a == 0:
            return 0
        return int(self._exp[(self._log[a] - self._log[b]) % 255])

    def inverse(self, a: int) -> int:
        """Multiplicative inverse; raises ZeroDivisionError for a == 0."""
        if a == 0:
            raise ZeroDivisionError("zero has no inverse in GF(256)")
        return int(self._exp[(255 - self._log[a]) % 255])

    def power(self, a: int, exponent: int) -> int:
        """Raise *a* to an integer *exponent* (negative allowed for a != 0)."""
        if a == 0:
            if exponent < 0:
                raise ZeroDivisionError("zero has no negative powers in GF(256)")
            return 0 if exponent else 1
        return int(self._exp[(self._log[a] * exponent) % 255])

    def exp(self, power: int) -> int:
        """Return the generator raised to *power* (alpha^power)."""
        return int(self._exp[power % 255])

    def log(self, a: int) -> int:
        """Discrete log base alpha; raises ValueError for a == 0."""
        if a == 0:
            raise ValueError("log(0) is undefined in GF(256)")
        return int(self._log[a])

    # ------------------------------------------------------------------
    # Vectorised operations (uint8 arrays)
    # ------------------------------------------------------------------
    def multiply_vec(self, a: np.ndarray, b: np.ndarray) -> np.ndarray:
        """Element-wise field multiplication of two uint8 arrays."""
        a = np.asarray(a, dtype=np.uint8)
        b = np.asarray(b, dtype=np.uint8)
        out = self._exp[self._log[a] + self._log[b]].astype(np.uint8)
        return np.where((a == 0) | (b == 0), np.uint8(0), out)

    def scale_vec(self, a: np.ndarray, scalar: int) -> np.ndarray:
        """Multiply every element of *a* by the field scalar."""
        if scalar == 0:
            return np.zeros_like(np.asarray(a, dtype=np.uint8))
        a = np.asarray(a, dtype=np.uint8)
        shift = self._log[scalar]
        out = self._exp[self._log[a] + shift].astype(np.uint8)
        return np.where(a == 0, np.uint8(0), out)

    # ------------------------------------------------------------------
    # Polynomial operations (coefficient lists, highest degree first)
    # ------------------------------------------------------------------
    def poly_add(self, p: list[int], q: list[int]) -> list[int]:
        """Add two polynomials over the field."""
        out = [0] * max(len(p), len(q))
        out[len(out) - len(p):] = list(p)
        for i, coeff in enumerate(q):
            out[len(out) - len(q) + i] ^= coeff
        return self._trim(out)

    def poly_multiply(self, p: list[int], q: list[int]) -> list[int]:
        """Multiply two polynomials over the field."""
        out = [0] * (len(p) + len(q) - 1)
        for i, pc in enumerate(p):
            if pc == 0:
                continue
            for j, qc in enumerate(q):
                if qc:
                    out[i + j] ^= self.multiply(pc, qc)
        return self._trim(out)

    def poly_scale(self, p: list[int], scalar: int) -> list[int]:
        """Multiply a polynomial by a field scalar."""
        return [self.multiply(coeff, scalar) for coeff in p]

    def poly_eval(self, p: list[int], x: int) -> int:
        """Evaluate polynomial *p* at *x* (Horner's rule)."""
        result = 0
        for coeff in p:
            result = self.multiply(result, x) ^ coeff
        return result

    def poly_divmod(self, dividend: list[int], divisor: list[int]) -> tuple[list[int], list[int]]:
        """Return (quotient, remainder) of polynomial division."""
        divisor = self._trim(list(divisor))
        if divisor == [0]:
            raise ZeroDivisionError("polynomial division by zero")
        remainder = list(dividend)
        quotient_len = max(len(remainder) - len(divisor) + 1, 0)
        quotient = [0] * quotient_len
        lead_inv = self.inverse(divisor[0])
        for i in range(quotient_len):
            coeff = self.multiply(remainder[i], lead_inv)
            quotient[i] = coeff
            if coeff == 0:
                continue
            for j, dc in enumerate(divisor):
                remainder[i + j] ^= self.multiply(dc, coeff)
        remainder = remainder[quotient_len:] if quotient_len else remainder
        return self._trim(quotient), self._trim(remainder)

    def poly_derivative(self, p: list[int]) -> list[int]:
        """Formal derivative over GF(2^m): even-power terms vanish."""
        n = len(p)
        out = []
        for i, coeff in enumerate(p[:-1]):
            degree = n - 1 - i
            out.append(coeff if degree % 2 == 1 else 0)
        return self._trim(out) if out else [0]

    @staticmethod
    def _trim(p: list[int]) -> list[int]:
        """Remove leading zero coefficients, keeping at least one term."""
        idx = 0
        while idx < len(p) - 1 and p[idx] == 0:
            idx += 1
        return p[idx:]

    def __repr__(self) -> str:  # pragma: no cover - debugging aid
        return f"GF256(primitive_poly={self.primitive_poly:#x})"


#: A module-level default field instance, shared by the RS codec.
DEFAULT_FIELD = GF256()
