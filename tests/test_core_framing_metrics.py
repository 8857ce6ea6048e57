"""Framing layer (schedules, payload pipeline) and link metrics."""

from __future__ import annotations

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from repro.core.config import InFrameConfig
from repro.core.decoder import DecodedDataFrame
from repro.core.framing import (
    FrameFormatError,
    FramingPlan,
    PayloadAssembler,
    PayloadSchedule,
    PseudoRandomSchedule,
    ZeroSchedule,
)
from repro.core.metrics import compare_bits, gob_correct_mask, summarize_link
from repro.core.parity import check_parity_grid


def _decoded_from_grid(config, grid, index=0, available=None, parity_ok=None):
    """Build a DecodedDataFrame as if the channel were perfect."""
    gob_shape = (config.gob_rows, config.gob_cols)
    available = np.ones(gob_shape, bool) if available is None else available
    parity_ok = check_parity_grid(grid, config) if parity_ok is None else parity_ok
    return DecodedDataFrame(
        index=index,
        bits=np.asarray(grid, bool),
        confident=np.ones_like(np.asarray(grid, bool)),
        gob_available=available,
        gob_parity_ok=parity_ok,
        noise_map=np.zeros_like(np.asarray(grid, float)),
        threshold=0.0,
        n_captures=3,
    )


class TestSchedules:
    def test_zero_schedule(self, small_config):
        schedule = ZeroSchedule(small_config)
        assert not schedule.bits(0).any()
        assert not schedule.bits(99).any()

    def test_pseudo_random_deterministic(self, small_config):
        a = PseudoRandomSchedule(small_config, seed=5)
        b = PseudoRandomSchedule(small_config, seed=5)
        assert np.array_equal(a.bits(3), b.bits(3))

    def test_pseudo_random_differs_across_frames(self, small_config):
        schedule = PseudoRandomSchedule(small_config)
        assert not np.array_equal(schedule.bits(0), schedule.bits(1))

    def test_pseudo_random_has_valid_parity(self, small_config):
        schedule = PseudoRandomSchedule(small_config)
        assert check_parity_grid(schedule.bits(7), small_config).all()

    def test_pseudo_random_data_bits_consistent(self, small_config):
        schedule = PseudoRandomSchedule(small_config, seed=9)
        from repro.core.parity import grid_to_data_bits

        assert np.array_equal(
            grid_to_data_bits(schedule.bits(4), small_config), schedule.data_bits(4)
        )

    def test_negative_index_rejected(self, small_config):
        with pytest.raises(IndexError):
            PseudoRandomSchedule(small_config).bits(-1)


class TestPayloadPipeline:
    def test_roundtrip_clean(self, small_config):
        payload = b"The quick brown fox jumps over the lazy dog."
        schedule = PayloadSchedule(small_config, payload, rs_n=30, rs_k=20)
        assembler = PayloadAssembler(small_config, schedule.plan)
        for k in range(schedule.n_payload_frames):
            assembler.add_frame(_decoded_from_grid(small_config, schedule.bits(k), index=k))
        assert assembler.payload() == payload

    def test_roundtrip_with_missing_gobs(self, small_config):
        # 8% GOB loss amplifies to ~25% byte erasures (one byte spans 3-4
        # GOBs); RS(30, 16) carries 47% parity, comfortably above that.
        payload = bytes(range(64))
        schedule = PayloadSchedule(small_config, payload, rs_n=30, rs_k=16)
        assembler = PayloadAssembler(small_config, schedule.plan)
        rng = np.random.default_rng(0)
        for k in range(schedule.n_payload_frames):
            available = rng.random((small_config.gob_rows, small_config.gob_cols)) > 0.08
            assembler.add_frame(
                _decoded_from_grid(small_config, schedule.bits(k), index=k, available=available)
            )
        assert assembler.payload() == payload

    def test_retransmission_fills_gaps(self, small_config):
        payload = bytes(range(48))
        schedule = PayloadSchedule(small_config, payload, rs_n=30, rs_k=16)
        assembler = PayloadAssembler(small_config, schedule.plan)
        rng = np.random.default_rng(1)
        n = schedule.n_payload_frames
        # Three passes, each losing half the GOBs; the unknown set shrinks
        # geometrically and RS absorbs the residue.
        for k in range(3 * n):
            available = rng.random((small_config.gob_rows, small_config.gob_cols)) > 0.5
            assembler.add_frame(
                _decoded_from_grid(
                    small_config, schedule.bits(k), index=k, available=available
                )
            )
        assert assembler.payload() == payload

    def test_coverage_monotone(self, small_config):
        payload = bytes(64)
        schedule = PayloadSchedule(small_config, payload, rs_n=30, rs_k=20)
        assembler = PayloadAssembler(small_config, schedule.plan)
        before = assembler.coverage()
        assembler.add_frame(_decoded_from_grid(small_config, schedule.bits(0), index=0))
        assert assembler.coverage() > before

    def test_total_loss_raises(self, small_config):
        schedule = PayloadSchedule(small_config, b"data", rs_n=30, rs_k=20)
        assembler = PayloadAssembler(small_config, schedule.plan)
        with pytest.raises(FrameFormatError):
            assembler.payload()

    def test_corrupted_bits_within_rs_capacity_recovered(self, small_config):
        payload = b"correctable payload"
        schedule = PayloadSchedule(small_config, payload, rs_n=40, rs_k=20)
        assembler = PayloadAssembler(small_config, schedule.plan)
        for k in range(schedule.n_payload_frames):
            grid = schedule.bits(k).copy()
            if k == 0:
                grid[0, 0] = ~grid[0, 0]  # silent corruption, parity forced OK
            assembler.add_frame(
                _decoded_from_grid(
                    small_config,
                    grid,
                    index=k,
                    parity_ok=np.ones((small_config.gob_rows, small_config.gob_cols), bool),
                )
            )
        assert assembler.payload() == payload

    def test_fully_erased_frame_contributes_nothing(self, small_config):
        payload = bytes(range(32))
        schedule = PayloadSchedule(small_config, payload, rs_n=30, rs_k=16)
        assembler = PayloadAssembler(small_config, schedule.plan)
        gob_shape = (small_config.gob_rows, small_config.gob_cols)
        assembler.add_frame(
            _decoded_from_grid(
                small_config,
                schedule.bits(0),
                index=0,
                available=np.zeros(gob_shape, bool),
            )
        )
        assert assembler.coverage() == 0.0
        with pytest.raises(FrameFormatError):
            assembler.payload()
        # The dead frame must not poison later, healthy passes.
        for k in range(schedule.n_payload_frames):
            assembler.add_frame(
                _decoded_from_grid(small_config, schedule.bits(k), index=k)
            )
        assert assembler.payload() == payload

    def test_crc_mismatch_after_rs_success(self, small_config):
        # Build a message whose RS codewords are pristine but whose
        # embedded CRC-16 disagrees with the payload: every codeword
        # decodes with zero corrections, and the CRC gate must still
        # reject delivery.
        from repro.core.framing import FramingPlan, slice_bits_to_frames
        from repro.core.parity import data_bits_to_grid
        from repro.ecc.crc import crc16_append
        from repro.ecc.interleaver import BlockInterleaver
        from repro.ecc.reed_solomon import ReedSolomonCodec

        payload = b"payload whose checksum lies"
        rs_n, rs_k = 30, 16
        codec = ReedSolomonCodec(rs_n, rs_k)
        buffer = bytearray(len(payload).to_bytes(4, "big") + crc16_append(payload))
        buffer[-1] ^= 0xFF  # tamper with the stored CRC only
        if len(buffer) % rs_k:
            buffer += bytes(rs_k - len(buffer) % rs_k)
        codewords = [
            codec.encode(bytes(buffer[i : i + rs_k]))
            for i in range(0, len(buffer), rs_k)
        ]
        interleaver = BlockInterleaver(len(codewords), rs_n)
        bits = np.unpackbits(
            np.frombuffer(interleaver.interleave(b"".join(codewords)), dtype=np.uint8)
        )
        plan = FramingPlan(rs_n=rs_n, rs_k=rs_k, n_codewords=len(codewords))
        assembler = PayloadAssembler(small_config, plan)
        for k, frame_bits in enumerate(slice_bits_to_frames(bits, small_config)):
            grid = data_bits_to_grid(frame_bits, small_config)
            assembler.add_frame(_decoded_from_grid(small_config, grid, index=k))
        with pytest.raises(FrameFormatError, match="CRC"):
            assembler.payload()

    def test_multi_pass_repeat_convergence(self, small_config):
        # The schedule cycles; at 70% GOB loss a single
        # pass is hopeless, but the unknown set shrinks geometrically and
        # the assembler converges within a bounded number of passes.
        payload = bytes(range(48))
        schedule = PayloadSchedule(small_config, payload, rs_n=30, rs_k=16)
        assembler = PayloadAssembler(small_config, schedule.plan)
        rng = np.random.default_rng(4)
        n = schedule.n_payload_frames
        gob_shape = (small_config.gob_rows, small_config.gob_cols)
        delivered = None
        passes_needed = None
        for pass_index in range(12):
            for k in range(pass_index * n, (pass_index + 1) * n):
                available = rng.random(gob_shape) > 0.7
                assembler.add_frame(
                    _decoded_from_grid(
                        small_config, schedule.bits(k), index=k, available=available
                    )
                )
            try:
                delivered = assembler.payload()
            except FrameFormatError:
                continue
            passes_needed = pass_index + 1
            break
        assert delivered == payload
        assert passes_needed is not None and 1 < passes_needed <= 12

    def test_empty_payload_rejected(self, small_config):
        with pytest.raises(ValueError):
            PayloadSchedule(small_config, b"")

    def test_plan_requires_codeword_count(self, small_config):
        with pytest.raises(ValueError):
            PayloadAssembler(small_config, FramingPlan(rs_n=30, rs_k=20, n_codewords=0))

    @given(st.binary(min_size=1, max_size=200))
    @settings(max_examples=20, deadline=None)
    def test_roundtrip_property(self, payload):
        config = InFrameConfig(
            element_pixels=2, pixels_per_block=2, block_rows=4, block_cols=6, tau=12
        )
        schedule = PayloadSchedule(config, payload, rs_n=24, rs_k=16)
        assembler = PayloadAssembler(config, schedule.plan)
        for k in range(schedule.n_payload_frames):
            assembler.add_frame(_decoded_from_grid(config, schedule.bits(k), index=k))
        assert assembler.payload() == payload


class TestMetrics:
    def test_perfect_frame(self, small_config):
        schedule = PseudoRandomSchedule(small_config)
        grid = schedule.bits(0)
        comparison = compare_bits(grid, _decoded_from_grid(small_config, grid), small_config)
        assert comparison.bit_accuracy == 1.0
        assert comparison.available_ratio == 1.0
        assert comparison.gob_error_rate == 0.0

    def test_gob_correct_mask_flags_wrong_gob(self, small_config):
        schedule = PseudoRandomSchedule(small_config)
        truth = schedule.bits(0)
        wrong = truth.copy()
        wrong[0, 0] = ~wrong[0, 0]
        mask = gob_correct_mask(truth, _decoded_from_grid(small_config, wrong), small_config)
        assert not mask[0, 0]
        assert mask.sum() == mask.size - 1

    def test_error_rate_counts_only_available(self, small_config):
        schedule = PseudoRandomSchedule(small_config)
        truth = schedule.bits(0)
        wrong = truth.copy()
        wrong[0, 0] = ~wrong[0, 0]
        available = np.ones((small_config.gob_rows, small_config.gob_cols), bool)
        available[0, 0] = False  # the wrong GOB was not available
        comparison = compare_bits(
            truth,
            _decoded_from_grid(small_config, wrong, available=available),
            small_config,
        )
        assert comparison.gob_error_rate == 0.0

    def test_summarize_link_throughput_formula(self, small_config):
        schedule = PseudoRandomSchedule(small_config)
        grids = [schedule.bits(k) for k in range(3)]
        decodeds = [_decoded_from_grid(small_config, g, index=k) for k, g in enumerate(grids)]
        stats = summarize_link(grids, decodeds, small_config)
        expected = small_config.bits_per_frame * small_config.data_frame_rate_hz
        assert stats.throughput_bps == pytest.approx(expected)
        assert stats.available_gob_ratio == 1.0
        assert stats.gob_error_rate == 0.0

    def test_summarize_empty_rejected(self, small_config):
        with pytest.raises(ValueError):
            summarize_link([], [], small_config)

    def test_summarize_length_mismatch(self, small_config):
        schedule = PseudoRandomSchedule(small_config)
        grid = schedule.bits(0)
        with pytest.raises(ValueError):
            summarize_link([grid], [], small_config)

    def test_row_format(self, small_config):
        schedule = PseudoRandomSchedule(small_config)
        grid = schedule.bits(0)
        stats = summarize_link([grid], [_decoded_from_grid(small_config, grid)], small_config)
        row = stats.row()
        assert "avail" in row and "kbps" in row


class TestVotingAssembler:
    def test_first_mode_keeps_initial_reading(self, small_config):
        payload = bytes(range(32))
        schedule = PayloadSchedule(small_config, payload, rs_n=30, rs_k=16)
        assembler = PayloadAssembler(small_config, schedule.plan)
        clean = _decoded_from_grid(small_config, schedule.bits(0), index=0)
        assembler.add_frame(clean)
        # A later conflicting frame must not overwrite the first reading.
        wrong_grid = ~schedule.bits(0)
        assembler.add_frame(
            _decoded_from_grid(
                small_config,
                wrong_grid,
                index=0,
                parity_ok=np.ones((small_config.gob_rows, small_config.gob_cols), bool),
            )
        )
        from repro.core.parity import grid_to_data_bits

        start_bits = assembler._bits[: small_config.bits_per_frame]
        assert np.array_equal(
            start_bits, grid_to_data_bits(schedule.bits(0), small_config)
        )
