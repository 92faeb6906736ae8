"""Random sign-plus-Hadamard block transform."""

from __future__ import annotations

import numpy as np
import pytest

from mxsim.hadamard import (
    HADAMARD_ALL,
    HadamardSpec,
    block_signs,
    sylvester,
    transform_along_axis,
)


class TestSylvester:
    def test_order_two(self):
        expected = np.array([[1.0, 1.0], [1.0, -1.0]]) / np.sqrt(2.0)
        np.testing.assert_allclose(sylvester(2), expected)

    @pytest.mark.parametrize("l", [16, 32])
    def test_orthogonality(self, l):
        h = sylvester(l)
        err = np.abs(h.T @ h - np.eye(l)).max()
        assert err <= 1e-12

    @pytest.mark.parametrize("l", [4, 16, 32])
    def test_unnormalized_row_sums(self, l):
        h = sylvester(l) * np.sqrt(l)
        sums = h.sum(axis=1)
        assert sums[0] == l
        np.testing.assert_array_equal(sums[1:], 0.0)

    @pytest.mark.parametrize("l", [16, 32])
    def test_entries_pm_inv_sqrt_l(self, l):
        h = sylvester(l)
        np.testing.assert_allclose(np.abs(h), 1.0 / np.sqrt(l))

    def test_rejects_non_power_of_two(self):
        with pytest.raises(ValueError):
            sylvester(12)


class TestSigns:
    def test_pm_one(self):
        s = block_signs(7, 20, 16)
        assert set(np.unique(s)) <= {-1.0, 1.0}

    def test_block_signs_independent_of_count(self):
        a = block_signs(7, 3, 16)
        b = block_signs(7, 10, 16)
        np.testing.assert_array_equal(a, b[:3])

    def test_seed_changes_signs(self):
        assert not np.array_equal(block_signs(1, 4, 32), block_signs(2, 4, 32))

    def test_negative_seed_rejected(self):
        with pytest.raises(ValueError, match="non-negative"):
            HadamardSpec(seed=-1)


class TestTransform:
    SPEC = HadamardSpec(block_size=16, seed=3, mode=HADAMARD_ALL)

    def test_round_trip(self):
        rng = np.random.default_rng(0)
        x = rng.normal(size=6 * 16)
        t = transform_along_axis(x, 0, self.SPEC)
        y = transform_along_axis(t, 0, self.SPEC, inverse=True)
        np.testing.assert_allclose(y, x, atol=1e-10)

    def test_norm_preserved(self):
        rng = np.random.default_rng(1)
        x = rng.normal(size=16)
        y = transform_along_axis(x, 0, self.SPEC)
        assert np.linalg.norm(y) == pytest.approx(np.linalg.norm(x), abs=1e-10)

    def test_dot_preserved(self):
        rng = np.random.default_rng(2)
        x, y = rng.normal(size=(2, 3 * 16))
        tx, ty = transform_along_axis(np.stack([x, y]), 1, self.SPEC)
        assert tx[32:] @ ty[32:] == pytest.approx(x[32:] @ y[32:], abs=1e-10)

    def test_unit_vector_spreads_fully(self):
        x = np.zeros(16)
        x[4] = 3.0
        y = transform_along_axis(x, 0, self.SPEC)
        np.testing.assert_allclose(np.abs(y), 3.0 / 4.0)

    def test_deterministic(self):
        x = np.tile(np.arange(16.0), 10)
        np.testing.assert_array_equal(
            transform_along_axis(x, 0, self.SPEC)[9 * 16 :],
            transform_along_axis(x, 0, self.SPEC)[9 * 16 :],
        )

    def test_length_mismatch(self):
        with pytest.raises(ValueError):
            transform_along_axis(np.ones(8), 0, self.SPEC)


class TestAxisTransform:
    def test_matmul_preserved_when_both_operands_transformed(self):
        rng = np.random.default_rng(3)
        a = rng.normal(size=(5, 32))
        b = rng.normal(size=(32, 4))
        spec = HadamardSpec(block_size=16, seed=11)
        at = transform_along_axis(a, 1, spec)
        bt = transform_along_axis(b, 0, spec)
        np.testing.assert_allclose(at @ bt, a @ b, atol=1e-10)

    def test_matches_per_block_apply(self):
        rng = np.random.default_rng(4)
        x = rng.normal(size=32)
        spec = HadamardSpec(block_size=16, seed=5)
        signs, h = block_signs(5, 2, 16), sylvester(16)
        got = transform_along_axis(x, 0, spec)
        expected = np.concatenate([(x[:16] * signs[0]) @ h, (x[16:] * signs[1]) @ h])
        np.testing.assert_allclose(got, expected, atol=1e-12)
        got = transform_along_axis(x, 0, spec, inverse=True)
        expected = np.concatenate([(x[:16] @ h) * signs[0], (x[16:] @ h) * signs[1]])
        np.testing.assert_allclose(got, expected, atol=1e-12)

    @pytest.mark.parametrize("axis", [0, 1])
    def test_inverse_undoes_either_axis(self, axis):
        rng = np.random.default_rng(6)
        a = rng.normal(size=(32, 64))
        spec = HadamardSpec(block_size=16, seed=8)
        t = transform_along_axis(a, axis, spec)
        assert not np.allclose(t, a)
        np.testing.assert_allclose(
            transform_along_axis(t, axis, spec, inverse=True), a, atol=1e-12
        )

    def test_rejects_indivisible_axis(self):
        spec = HadamardSpec(block_size=16)
        with pytest.raises(ValueError):
            transform_along_axis(np.ones(20), 0, spec)


class TestSignDraws:
    def test_one_draw_per_length_per_layer_step(self, monkeypatch):
        import mxsim.hadamard as hadamard
        from mxsim.mx import BlockSpec
        from mxsim.qlinear import QLinearConfig, backward, forward

        draws = []

        def counting(seed, num_blocks, l):
            draws.append((num_blocks, l))
            return block_signs(seed, num_blocks, l)

        hadamard._shared_signs.cache_clear()
        monkeypatch.setattr(hadamard, "block_signs", counting)
        cfg = QLinearConfig(spec=BlockSpec(block_size=16),
                            hadamard=HadamardSpec(block_size=16, mode=HADAMARD_ALL))
        rng = np.random.default_rng(12)
        # Padded lengths: contraction 48, output 16 and batch 32, so the
        # eight transforms of one step use three lengths.
        X, W = rng.normal(size=(20, 40)), rng.normal(size=(3, 40))
        Y, ctx = forward(X, W, cfg, step=5)
        backward(np.ones_like(Y), ctx, cfg)
        assert sorted(draws) == [(1, 16), (2, 16), (3, 16)]

    def test_shared_rows_are_read_only_and_bounded(self):
        from mxsim.hadamard import _shared_signs

        signs = _shared_signs(21, 3, 8)
        np.testing.assert_array_equal(signs, block_signs(21, 3, 8))
        assert not signs.flags.writeable
        assert _shared_signs.cache_info().maxsize is not None
