"""Reed-Solomon codec: round trips, capacity bounds, errors and erasures."""

from __future__ import annotations

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from repro.ecc.reed_solomon import ReedSolomonCodec, RSDecodingError


@pytest.fixture(scope="module")
def rs15_11() -> ReedSolomonCodec:
    return ReedSolomonCodec(15, 11)


class TestConstruction:
    def test_rejects_bad_sizes(self):
        with pytest.raises(ValueError):
            ReedSolomonCodec(10, 10)
        with pytest.raises(ValueError):
            ReedSolomonCodec(256, 10)
        with pytest.raises(ValueError):
            ReedSolomonCodec(10, 0)

    def test_generator_has_consecutive_roots(self):
        codec = ReedSolomonCodec(20, 14, first_consecutive_root=1)
        for i in range(codec.n_parity):
            root = codec.field.exp(codec.fcr + i)
            assert codec.field.poly_eval(codec._generator, root) == 0


class TestEncoding:
    def test_systematic_layout(self, rs15_11):
        message = bytes(range(11))
        codeword = rs15_11.encode(message)
        assert len(codeword) == 15
        assert codeword[:11] == message

    def test_codeword_passes_check(self, rs15_11):
        assert rs15_11.check(rs15_11.encode(bytes(11)))

    def test_wrong_message_length_rejected(self, rs15_11):
        with pytest.raises(ValueError):
            rs15_11.encode(bytes(10))

    def test_all_zero_message(self, rs15_11):
        codeword = rs15_11.encode(bytes(11))
        assert codeword == bytes(15)

    @given(st.binary(min_size=11, max_size=11))
    @settings(max_examples=100)
    def test_every_codeword_is_valid(self, message):
        codec = ReedSolomonCodec(15, 11)
        assert codec.check(codec.encode(message))


class TestDecoding:
    def test_error_free_roundtrip(self, rs15_11):
        message = b"hello world"
        decoded, fixed = rs15_11.decode(rs15_11.encode(message))
        assert decoded == message
        assert fixed == 0

    def test_single_error_corrected(self, rs15_11):
        message = b"hello world"
        word = bytearray(rs15_11.encode(message))
        word[2] ^= 0x42
        decoded, fixed = rs15_11.decode(bytes(word))
        assert decoded == message
        assert fixed == 1

    def test_parity_byte_error_corrected(self, rs15_11):
        message = b"hello world"
        word = bytearray(rs15_11.encode(message))
        word[-1] ^= 0x01
        decoded, fixed = rs15_11.decode(bytes(word))
        assert decoded == message
        assert fixed == 1

    def test_too_many_errors_raises(self, rs15_11):
        word = bytearray(rs15_11.encode(b"hello world"))
        for i in range(3):  # capacity is floor(4/2) = 2
            word[i] ^= 0xA5
        with pytest.raises(RSDecodingError):
            rs15_11.decode(bytes(word))

    def test_erasures_double_capacity(self, rs15_11):
        message = b"hello world"
        word = bytearray(rs15_11.encode(message))
        positions = [0, 3, 7, 12]  # 4 erasures == n - k
        for p in positions:
            word[p] ^= 0x99
        decoded, fixed = rs15_11.decode(bytes(word), erasure_positions=positions)
        assert decoded == message

    def test_too_many_erasures_raises(self, rs15_11):
        word = rs15_11.encode(b"hello world")
        with pytest.raises(RSDecodingError):
            rs15_11.decode(word, erasure_positions=[0, 1, 2, 3, 4])

    def test_erasure_position_out_of_range(self, rs15_11):
        word = rs15_11.encode(b"hello world")
        with pytest.raises(ValueError):
            rs15_11.decode(word, erasure_positions=[15])

    def test_wrong_word_length(self, rs15_11):
        with pytest.raises(ValueError):
            rs15_11.decode(bytes(14))

    def test_erased_zero_byte_still_decodes(self, rs15_11):
        # An erasure whose true value was already what the decoder wrote
        # must not break decoding.
        message = bytes(11)
        word = rs15_11.encode(message)
        decoded, _ = rs15_11.decode(word, erasure_positions=[4])
        assert decoded == message


@st.composite
def rs_scenario(draw):
    """A random (codec params, message, error/erasure plan) scenario."""
    n = draw(st.integers(min_value=6, max_value=80))
    k = draw(st.integers(min_value=1, max_value=n - 1))
    fcr = draw(st.sampled_from([0, 1]))
    message = draw(st.binary(min_size=k, max_size=k))
    t = n - k
    n_errors = draw(st.integers(min_value=0, max_value=t // 2))
    n_erasures = draw(st.integers(min_value=0, max_value=t - 2 * n_errors))
    positions = draw(
        st.lists(
            st.integers(min_value=0, max_value=n - 1),
            min_size=n_errors + n_erasures,
            max_size=n_errors + n_erasures,
            unique=True,
        )
    )
    flips = draw(
        st.lists(
            st.integers(min_value=1, max_value=255),
            min_size=n_errors + n_erasures,
            max_size=n_errors + n_erasures,
        )
    )
    return n, k, fcr, message, positions[:n_errors], positions[n_errors:], flips


class TestPropertyBased:
    @given(rs_scenario())
    @settings(max_examples=150, deadline=None)
    def test_within_capacity_always_decodes(self, scenario):
        n, k, fcr, message, error_pos, erasure_pos, flips = scenario
        codec = ReedSolomonCodec(n, k, first_consecutive_root=fcr)
        word = bytearray(codec.encode(message))
        for position, flip in zip(error_pos + erasure_pos, flips):
            word[position] ^= flip
        decoded, fixed = codec.decode(bytes(word), erasure_positions=erasure_pos)
        assert decoded == message
        assert fixed >= len(error_pos)

    @given(st.binary(min_size=40, max_size=40), st.integers(min_value=0, max_value=59))
    @settings(max_examples=50)
    def test_single_byte_corruption_never_misdecodes(self, message, position):
        codec = ReedSolomonCodec(60, 40)
        word = bytearray(codec.encode(message))
        word[position] ^= 0xFF
        decoded, _ = codec.decode(bytes(word))
        assert decoded == message


class _HornerCodec(ReedSolomonCodec):
    """The codec with the scalar forms that power tables and vector operations
    replaced, as its oracle: Horner syndromes and Chien search, one scalar
    pass per erasure for the Forney syndromes, and the errata evaluator as
    the remainder of a polynomial division by x^n_parity."""

    def _syndromes(self, word):
        return [
            self.field.poly_eval(word, self.field.exp(self.fcr + i))
            for i in range(self.n_parity)
        ]

    def _chien_search(self, locator):
        return [
            loc
            for loc in range(self.n)
            if self.field.poly_eval(locator, self.field.exp(255 - loc)) == 0
        ]

    def _forney_syndromes(self, syndromes, erasure_locs):
        fsynd = list(syndromes)
        for loc in erasure_locs:
            x = self.field.exp(loc)
            for j in range(len(fsynd) - 1):
                fsynd[j] = self.field.multiply(fsynd[j], x) ^ fsynd[j + 1]
            fsynd.pop()
        return fsynd

    def _forney(self, syndromes, locator, positions):
        gf = self.field
        product = gf.poly_multiply(list(reversed(syndromes)), locator)
        _, evaluator = gf.poly_divmod(product, [1] + [0] * self.n_parity)
        derivative = gf.poly_derivative(locator)
        magnitudes = []
        for loc in positions:
            x_inv = gf.exp(255 - loc)
            numerator = gf.poly_eval(evaluator, x_inv)
            denominator = gf.poly_eval(derivative, x_inv)
            if denominator == 0:
                raise RSDecodingError("Forney denominator is zero")
            magnitude = gf.divide(numerator, denominator)
            magnitudes.append(gf.multiply(magnitude, gf.power(gf.exp(loc), 1 - self.fcr)))
        return magnitudes


ORACLE_CODES = [
    (n, k, fcr) for n, k in ((15, 11), (60, 24), (60, 40), (255, 223)) for fcr in (0, 1)
]
ORACLE_CODECS = {
    code: (ReedSolomonCodec(*code[:2], first_consecutive_root=code[2]),
           _HornerCodec(*code[:2], first_consecutive_root=code[2]))
    for code in ORACLE_CODES
}


def _outcome(codec, word, erasures):
    try:
        return codec.decode(word, erasure_positions=erasures)
    except RSDecodingError as exc:
        return type(exc), str(exc)


def _outcome_of(forney, syndromes, locator, positions):
    try:
        return forney(syndromes, locator, positions)
    except RSDecodingError as exc:
        return type(exc), str(exc)


@st.composite
def oracle_scenario(draw):
    """A word with errors and erasures, inside or beyond the correction radius."""
    n, k, fcr = draw(st.sampled_from(ORACLE_CODES))
    message = draw(st.binary(min_size=k, max_size=k))
    n_errata = draw(st.integers(min_value=0, max_value=min(n, n - k + 6)))
    positions = draw(
        st.lists(st.integers(0, n - 1), min_size=n_errata, max_size=n_errata, unique=True)
    )
    n_erasures = draw(st.integers(min_value=0, max_value=n_errata))
    flips = draw(st.lists(st.integers(1, 255), min_size=n_errata, max_size=n_errata))
    return (n, k, fcr), message, positions, positions[:n_erasures], flips


class TestPowerTableOracle:
    """Table-driven syndromes and Chien search, and vector Forney syndromes,
    decode exactly as the scalar forms."""

    @given(oracle_scenario())
    @settings(max_examples=250, deadline=None)
    def test_decode_matches_horner(self, scenario):
        code, message, positions, erasures, flips = scenario
        codec, oracle = ORACLE_CODECS[code]
        word = bytearray(codec.encode(message))
        for position, flip in zip(positions, flips):
            word[position] ^= flip
        word = bytes(word)
        assert _outcome(codec, word, erasures) == _outcome(oracle, word, erasures)
        assert codec.check(word) == oracle.check(word)

    @pytest.mark.parametrize("code", ORACLE_CODES, ids=str)
    def test_tables_match_horner_on_every_position(self, code):
        codec, oracle = ORACLE_CODECS[code]
        for position in range(codec.n):
            word = [0] * codec.n
            word[position] = 1 + position % 255
            assert codec._syndromes(word) == oracle._syndromes(word)
        # Roots at n_parity spread positions: the largest locator decode builds.
        step = -(-codec.n // codec.n_parity)
        locator = codec._erasure_locator([codec.n - 1 - p for p in range(0, codec.n, step)])
        assert len(locator) - 1 <= codec.n_parity
        assert codec._chien_search(locator) == oracle._chien_search(locator)

    @given(st.sampled_from(ORACLE_CODES), st.data())
    @settings(max_examples=150, deadline=None)
    def test_forney_syndromes_match_scalar_passes(self, code, data):
        codec, oracle = ORACLE_CODECS[code]
        syndromes = data.draw(
            st.lists(st.integers(0, 255), min_size=codec.n_parity, max_size=codec.n_parity)
        )
        locs = data.draw(
            st.lists(st.integers(0, codec.n - 1), max_size=codec.n_parity, unique=True)
        )
        forney = codec._forney_syndromes(syndromes, locs)
        assert forney == oracle._forney_syndromes(syndromes, locs)
        assert all(type(value) is int for value in forney)

    @given(st.sampled_from(ORACLE_CODES), st.data())
    @settings(max_examples=150, deadline=None)
    def test_forney_evaluator_matches_full_product(self, code, data):
        # Omega from only the low n_parity terms of S * Lambda against the
        # whole product's remainder, on a locator of any degree up to n_parity
        # (zero coefficients included) and with any syndromes.
        codec, oracle = ORACLE_CODECS[code]
        syndromes = data.draw(
            st.lists(st.integers(0, 255), min_size=codec.n_parity, max_size=codec.n_parity)
        )
        locs = data.draw(
            st.lists(st.integers(0, codec.n - 1), max_size=codec.n_parity, unique=True)
        )
        locator = codec._erasure_locator(locs)
        positions = codec._chien_search(locator)
        assert _outcome_of(codec._forney, syndromes, locator, positions) == _outcome_of(
            oracle._forney, syndromes, locator, positions
        )
