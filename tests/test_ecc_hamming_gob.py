"""Extended Hamming (8,4) and the Hamming-coded GOB mode."""

from __future__ import annotations

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from repro.core.config import InFrameConfig
from repro.core.parity import (
    apply_parity_grid,
    check_parity_grid,
    data_bits_to_grid,
    decode_gob_grid,
    grid_to_data_bits,
)
from repro.ecc.hamming import (
    _CHECKS,
    _DATA_POSITIONS,
    CORRECTED,
    DOUBLE_ERROR,
    OK,
    VERDICTS,
    decode_block,
    decode_hamming84,
    encode_block,
    encode_hamming84,
)

NIBBLES = st.lists(st.booleans(), min_size=4, max_size=4)


class TestHamming84:
    @given(NIBBLES)
    def test_clean_roundtrip(self, nibble):
        word = encode_hamming84(np.array(nibble))
        decoded, verdict = decode_hamming84(word)
        assert verdict == OK
        assert np.array_equal(decoded, np.array(nibble))

    @given(NIBBLES, st.integers(min_value=0, max_value=7))
    @settings(max_examples=128)
    def test_every_single_error_corrected(self, nibble, position):
        word = encode_hamming84(np.array(nibble))
        word[position] = ~word[position]
        decoded, verdict = decode_hamming84(word)
        assert verdict == CORRECTED
        assert np.array_equal(decoded, np.array(nibble))

    @given(
        NIBBLES,
        st.tuples(
            st.integers(min_value=0, max_value=7), st.integers(min_value=0, max_value=7)
        ).filter(lambda t: t[0] != t[1]),
    )
    @settings(max_examples=128)
    def test_every_double_error_detected(self, nibble, positions):
        word = encode_hamming84(np.array(nibble))
        for position in positions:
            word[position] = ~word[position]
        _, verdict = decode_hamming84(word)
        assert verdict == DOUBLE_ERROR

    def test_all_codewords_distinct_distance_4(self):
        words = encode_block(
            np.array([[bool(n & 8), bool(n & 4), bool(n & 2), bool(n & 1)] for n in range(16)])
        )
        for i in range(16):
            for j in range(i + 1, 16):
                distance = int(np.sum(words[i] != words[j]))
                assert distance >= 4

    def test_input_validation(self):
        with pytest.raises(ValueError):
            encode_hamming84(np.ones(3, bool))
        with pytest.raises(ValueError):
            decode_hamming84(np.ones(7, bool))
        with pytest.raises(ValueError):
            encode_block(np.ones((2, 3), bool))


@pytest.fixture
def hamming_config() -> InFrameConfig:
    return InFrameConfig(
        element_pixels=2,
        pixels_per_block=3,
        gob_size=3,
        block_rows=9,
        block_cols=12,
        tau=12,
        gob_code="hamming84",
    )


class TestHammingGOBMode:
    def test_config_validation(self):
        with pytest.raises(ValueError):
            InFrameConfig(gob_code="hamming84")  # gob_size 2
        with pytest.raises(ValueError):
            InFrameConfig(gob_code="turbo")

    def test_bit_budget(self, hamming_config):
        assert hamming_config.bits_per_gob == 4
        assert hamming_config.bits_per_frame == hamming_config.n_gobs * 4

    def test_grid_roundtrip(self, hamming_config):
        rng = np.random.default_rng(0)
        bits = rng.random(hamming_config.bits_per_frame) < 0.5
        grid = data_bits_to_grid(bits, hamming_config)
        assert np.array_equal(grid_to_data_bits(grid, hamming_config), bits)
        assert check_parity_grid(grid, hamming_config).all()

    def test_spare_block_is_zero(self, hamming_config):
        rng = np.random.default_rng(1)
        bits = rng.random(hamming_config.bits_per_frame) < 0.5
        grid = data_bits_to_grid(bits, hamming_config)
        # Bottom-right Block of every 3x3 GOB is the unused spare.
        assert not grid[2::3, 2::3].any()

    def test_single_block_error_repaired(self, hamming_config):
        rng = np.random.default_rng(2)
        bits = rng.random(hamming_config.bits_per_frame) < 0.5
        grid = data_bits_to_grid(bits, hamming_config)
        corrupted = grid.copy()
        corrupted[0, 1] = ~corrupted[0, 1]
        repaired, ok, n_corrected = decode_gob_grid(corrupted, hamming_config)
        assert ok.all()
        assert n_corrected == 1
        assert np.array_equal(repaired, grid)
        assert np.array_equal(grid_to_data_bits(corrupted, hamming_config), bits)

    def test_double_block_error_detected(self, hamming_config):
        rng = np.random.default_rng(3)
        bits = rng.random(hamming_config.bits_per_frame) < 0.5
        grid = data_bits_to_grid(bits, hamming_config)
        corrupted = grid.copy()
        corrupted[0, 0] = ~corrupted[0, 0]
        corrupted[1, 1] = ~corrupted[1, 1]
        _, ok, _ = decode_gob_grid(corrupted, hamming_config)
        assert not ok[0, 0]
        assert ok.sum() == ok.size - 1

    def test_xor_mode_decode_gob_grid_is_checking_only(self, small_config):
        rng = np.random.default_rng(4)
        bits = rng.random(small_config.bits_per_frame) < 0.5
        grid = data_bits_to_grid(bits, small_config)
        corrupted = grid.copy()
        corrupted[0, 0] = ~corrupted[0, 0]
        repaired, ok, n_corrected = decode_gob_grid(corrupted, small_config)
        assert n_corrected == 0
        assert np.array_equal(repaired, corrupted)  # XOR cannot repair
        assert not ok[0, 0]

    def test_end_to_end_link_with_hamming(self):
        from repro.camera.capture import CameraModel
        from repro.core.pipeline import run_link
        from repro.video.synthetic import pure_color_video

        config = InFrameConfig(
            element_pixels=4,
            pixels_per_block=3,
            gob_size=3,
            block_rows=15,
            block_cols=24,
            tau=12,
            gob_code="hamming84",
        )
        video = pure_color_video(240, 360, 127.0, n_frames=24)
        camera = CameraModel(width=240, height=160)
        stats = run_link(config, video, camera=camera, seed=3).stats
        assert stats.bit_accuracy > 0.9
        assert stats.available_gob_ratio > 0.7


# ----------------------------------------------------------------------
# Oracles: the per-word and per-GOB loops the whole-grid codes replaced
# ----------------------------------------------------------------------
def _scalar_encode_hamming84(bits):
    word = np.zeros(8, dtype=bool)
    word[list(_DATA_POSITIONS)] = bits
    for parity_pos, checked in zip((0, 1, 3), _CHECKS):
        word[parity_pos] = np.bitwise_xor.reduce(word[list(checked[1:])])
    word[7] = np.bitwise_xor.reduce(word[:7])
    return word


def _scalar_decode_hamming84(received):
    word = np.asarray(received, dtype=bool).copy()
    syndrome = 0
    for bit_value, checked in zip((1, 2, 4), _CHECKS):
        if np.bitwise_xor.reduce(word[list(checked)]):
            syndrome += bit_value
    overall = bool(np.bitwise_xor.reduce(word))
    if syndrome == 0 and not overall:
        return word[list(_DATA_POSITIONS)].copy(), OK
    if overall:
        if syndrome:
            word[syndrome - 1] = ~word[syndrome - 1]
        else:
            word[7] = ~word[7]
        return word[list(_DATA_POSITIONS)].copy(), CORRECTED
    return word[list(_DATA_POSITIONS)].copy(), DOUBLE_ERROR


def _encode_gob(data_bits, config):
    if config.gob_code == "hamming84":
        flat = np.zeros(9, dtype=bool)
        flat[:8] = _scalar_encode_hamming84(data_bits)
        return flat
    return np.append(data_bits, bool(np.bitwise_xor.reduce(data_bits)))


def _decode_gob(flat, config):
    if config.gob_code == "hamming84":
        data, verdict = _scalar_decode_hamming84(flat[:8])
        return data, verdict != DOUBLE_ERROR
    data = flat[:-1]
    return data, bool(np.bitwise_xor.reduce(data)) == bool(flat[-1])


def _iter_gob_slices(config):
    m = config.gob_size
    for gob_row in range(config.gob_rows):
        for gob_col in range(config.gob_cols):
            yield gob_row, gob_col, (
                slice(gob_row * m, (gob_row + 1) * m),
                slice(gob_col * m, (gob_col + 1) * m),
            )


def _per_gob_decode(grid, config):
    """``decode_gob_grid`` and ``grid_to_data_bits`` the per-GOB way."""
    m = config.gob_size
    grid = grid.copy()
    ok = np.zeros((config.gob_rows, config.gob_cols), dtype=bool)
    data_bits = []
    n_corrected = 0
    for gob_row, gob_col, cell in _iter_gob_slices(config):
        flat = grid[cell].ravel()
        data, ok[gob_row, gob_col] = _decode_gob(flat, config)
        data_bits.append(data)
        if config.gob_code == "hamming84" and ok[gob_row, gob_col]:
            repaired = _encode_gob(data, config)
            if not np.array_equal(repaired, flat):
                n_corrected += 1
                grid[cell] = repaired.reshape(m, m)
    return grid, ok, np.concatenate(data_bits), n_corrected


def _per_gob_encode(data_bits, config):
    """``data_bits_to_grid`` the per-GOB way."""
    m = config.gob_size
    grid = np.zeros((config.block_rows, config.block_cols), dtype=bool)
    per_gob = data_bits.reshape(config.n_gobs, config.bits_per_gob)
    for index, (_, _, cell) in enumerate(_iter_gob_slices(config)):
        grid[cell] = _encode_gob(per_gob[index], config).reshape(m, m)
    return grid


def _per_gob_apply_parity(grid, config):
    """``apply_parity_grid`` the per-GOB way."""
    m = config.gob_size
    grid = grid.copy()
    for _, _, cell in _iter_gob_slices(config):
        flat = grid[cell].ravel()
        if config.gob_code == "hamming84":
            data = flat[list(_DATA_POSITIONS)]
        else:
            data = flat[:-1]
        grid[cell] = _encode_gob(data, config).reshape(m, m)
    return grid


GOB_CONFIGS = {
    "xor-2x2": InFrameConfig(
        element_pixels=2, pixels_per_block=3, block_rows=6, block_cols=12, tau=12
    ),
    "xor-3x3": InFrameConfig(
        element_pixels=2, pixels_per_block=3, gob_size=3, block_rows=6, block_cols=12, tau=12
    ),
    "hamming84-3x3": InFrameConfig(
        element_pixels=2,
        pixels_per_block=3,
        gob_size=3,
        block_rows=6,
        block_cols=12,
        tau=12,
        gob_code="hamming84",
    ),
}


def frame_bits(config):
    return st.lists(
        st.booleans(), min_size=config.bits_per_frame, max_size=config.bits_per_frame
    ).map(np.array)


@st.composite
def received_grid(draw, config):
    """A coded grid with a few Blocks flipped, or a uniformly random grid."""
    n_blocks = config.block_rows * config.block_cols
    if draw(st.booleans()):
        grid = _per_gob_encode(draw(frame_bits(config)), config)
        flips = draw(st.lists(st.integers(0, n_blocks - 1), max_size=12))
        for index in flips:
            grid.flat[index] = ~grid.flat[index]
        return grid
    bits = draw(st.lists(st.booleans(), min_size=n_blocks, max_size=n_blocks))
    return np.array(bits).reshape(config.block_rows, config.block_cols)


class TestWholeGridOracle:
    """Whole-grid GOB codes are bit-identical to the per-GOB loops."""

    @pytest.mark.parametrize("name", sorted(GOB_CONFIGS))
    @given(data=st.data())
    @settings(max_examples=120, deadline=None)
    def test_decode_matches_per_gob_loop(self, name, data):
        config = GOB_CONFIGS[name]
        grid = data.draw(received_grid(config))
        expected_grid, expected_ok, expected_bits, expected_n = _per_gob_decode(grid, config)
        corrected, ok, n_corrected = decode_gob_grid(grid, config)
        assert np.array_equal(corrected, expected_grid)
        assert np.array_equal(ok, expected_ok)
        assert np.array_equal(check_parity_grid(grid, config), expected_ok)
        assert np.array_equal(grid_to_data_bits(grid, config), expected_bits)
        assert n_corrected == expected_n

    @pytest.mark.parametrize("name", sorted(GOB_CONFIGS))
    @given(data=st.data())
    @settings(max_examples=60, deadline=None)
    def test_encode_matches_per_gob_loop(self, name, data):
        config = GOB_CONFIGS[name]
        bits = data.draw(frame_bits(config))
        assert np.array_equal(data_bits_to_grid(bits, config), _per_gob_encode(bits, config))
        grid = data.draw(received_grid(config))
        assert np.array_equal(apply_parity_grid(grid, config), _per_gob_apply_parity(grid, config))

    @given(st.lists(st.booleans(), min_size=8, max_size=8))
    def test_word_decode_matches_scalar(self, word):
        word = np.array(word)
        data, verdict = decode_hamming84(word)
        expected_data, expected_verdict = _scalar_decode_hamming84(word)
        assert verdict == expected_verdict
        assert np.array_equal(data, expected_data)

    def test_block_decode_matches_scalar_on_all_words(self):
        words = np.array([[bool(w >> (7 - i) & 1) for i in range(8)] for w in range(256)])
        corrected, verdicts = decode_block(words)
        for word, fixed, verdict in zip(words, corrected, verdicts):
            data, expected = _scalar_decode_hamming84(word)
            assert VERDICTS[verdict] == expected
            assert np.array_equal(fixed[list(_DATA_POSITIONS)], data)
        nibbles = words[:16, 4:]
        expected_words = np.stack([_scalar_encode_hamming84(n) for n in nibbles])
        assert np.array_equal(encode_block(nibbles), expected_words)
