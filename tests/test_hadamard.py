"""Random sign-plus-Hadamard block transform."""

from __future__ import annotations

from concurrent.futures import ThreadPoolExecutor

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

    @pytest.mark.parametrize("kw, message", [
        ({"mode": "sometimes"}, "unknown transform mode 'sometimes'"),
        ({"block_size": 12}, "power of two"),
        ({"block_size": 24}, "power of two"),
    ])
    def test_spec_rejects(self, kw, message):
        # The transform acts on the layer's quantization blocks, so the
        # layer configuration checks their size.
        from mxsim.mx import BlockSpec
        from mxsim.qlinear import QLinearConfig

        with pytest.raises(ValueError, match=message):
            QLinearConfig(spec=BlockSpec(block_size=kw.get("block_size", 32)),
                          hadamard=HadamardSpec(mode=kw.get("mode", HADAMARD_ALL)))


class TestTransform:
    SIGNS = block_signs(3, 10, 16)

    def test_round_trip(self):
        rng = np.random.default_rng(0)
        x = rng.normal(size=6 * 16)
        t = transform_along_axis(x, 0, self.SIGNS)
        y = transform_along_axis(t, 0, self.SIGNS, inverse=True)
        np.testing.assert_allclose(y, x, atol=1e-10)

    def test_norm_preserved(self):
        rng = np.random.default_rng(1)
        x = rng.normal(size=16)
        y = transform_along_axis(x, 0, self.SIGNS)
        assert np.linalg.norm(y) == pytest.approx(np.linalg.norm(x), abs=1e-10)

    def test_dot_preserved(self):
        rng = np.random.default_rng(2)
        x, y = rng.normal(size=(2, 3 * 16))
        tx, ty = transform_along_axis(np.stack([x, y]), 1, self.SIGNS)
        assert tx[32:] @ ty[32:] == pytest.approx(x[32:] @ y[32:], abs=1e-10)

    def test_unit_vector_spreads_fully(self):
        x = np.zeros(16)
        x[4] = 3.0
        y = transform_along_axis(x, 0, self.SIGNS)
        np.testing.assert_allclose(np.abs(y), 3.0 / 4.0)

    def test_deterministic(self):
        x = np.tile(np.arange(16.0), 10)
        np.testing.assert_array_equal(
            transform_along_axis(x, 0, self.SIGNS)[9 * 16 :],
            transform_along_axis(x, 0, self.SIGNS)[9 * 16 :],
        )

    def test_length_mismatch(self):
        with pytest.raises(ValueError):
            transform_along_axis(np.ones(8), 0, self.SIGNS)


class TestAxisTransform:
    def test_matmul_preserved_when_both_operands_transformed(self):
        rng = np.random.default_rng(3)
        a = rng.normal(size=(5, 32))
        b = rng.normal(size=(32, 4))
        signs = block_signs(11, 2, 16)
        at = transform_along_axis(a, 1, signs)
        bt = transform_along_axis(b, 0, signs)
        np.testing.assert_allclose(at @ bt, a @ b, atol=1e-10)

    def test_matches_per_block_apply(self):
        rng = np.random.default_rng(4)
        x = rng.normal(size=32)
        signs, h = block_signs(5, 2, 16), sylvester(16)
        got = transform_along_axis(x, 0, signs)
        expected = np.concatenate([(x[:16] * signs[0]) @ h, (x[16:] * signs[1]) @ h])
        np.testing.assert_allclose(got, expected, atol=1e-12)
        got = transform_along_axis(x, 0, signs, inverse=True)
        expected = np.concatenate([(x[:16] @ h) * signs[0], (x[16:] @ h) * signs[1]])
        np.testing.assert_allclose(got, expected, atol=1e-12)

    @pytest.mark.parametrize("axis", [0, 1])
    def test_inverse_undoes_either_axis(self, axis):
        rng = np.random.default_rng(6)
        a = rng.normal(size=(32, 64))
        signs = block_signs(8, 4, 16)
        t = transform_along_axis(a, axis, signs)
        assert not np.allclose(t, a)
        np.testing.assert_allclose(
            transform_along_axis(t, axis, signs, inverse=True), a, atol=1e-12
        )

    def test_rejects_indivisible_axis(self):
        with pytest.raises(ValueError, match="multiple"):
            transform_along_axis(np.ones(20), 0, block_signs(0, 2, 16))

    def test_rejects_axis_with_more_blocks_than_sign_rows(self):
        signs = block_signs(0, 2, 16)
        transform_along_axis(np.ones(32), 0, signs)
        with pytest.raises(ValueError, match="3 blocks, only 2 sign rows"):
            transform_along_axis(np.ones(48), 0, signs)

    def test_uses_the_leading_rows(self):
        # Rows drawn for a longer axis give the bits of an exact draw.
        x = np.random.default_rng(9).normal(size=(3, 32))
        for inverse in (False, True):
            got = transform_along_axis(x, 1, block_signs(4, 6, 16), inverse)
            want = transform_along_axis(x, 1, block_signs(4, 2, 16), inverse)
            assert got.tobytes() == want.tobytes()


def _in_new_thread(fn):
    with ThreadPoolExecutor(max_workers=1) as pool:
        return pool.submit(fn).result(timeout=60)


class TestSignDraws:
    @staticmethod
    def _layer_step():
        """One forward and backward step under ``all``.  Padded lengths:
        contraction 48, output 16 and batch 32, so the eight transforms of
        one step use three lengths."""
        from mxsim.mx import BlockSpec
        from mxsim.qlinear import QLinearConfig, backward, forward

        cfg = QLinearConfig(spec=BlockSpec(block_size=16),
                            hadamard=HadamardSpec(mode=HADAMARD_ALL))
        rng = np.random.default_rng(12)
        X, W = rng.normal(size=(20, 40)), rng.normal(size=(3, 40))
        Y, ctx = forward(X, W, cfg, step=5)
        backward(np.ones_like(Y), ctx, cfg)

    @staticmethod
    def _count_draws(monkeypatch):
        import mxsim.hadamard as hadamard

        draws = []

        def counting(seed, num_blocks, l):
            draws.append((num_blocks, l))
            return block_signs(seed, num_blocks, l)

        monkeypatch.setattr(hadamard, "block_signs", counting)
        return draws

    def test_one_draw_per_layer_step(self, monkeypatch):
        # The rows for the longest axis, the contraction, serve all three.
        draws = self._count_draws(monkeypatch)
        self._layer_step()
        assert draws == [(3, 16)]

    def test_draws_do_not_depend_on_other_threads(self, monkeypatch):
        # The same step in a second thread draws its own rows, as the
        # sweep's pool threads must for a run's counts to repeat.
        draws = self._count_draws(monkeypatch)
        _in_new_thread(self._layer_step)
        in_a = len(draws)
        _in_new_thread(self._layer_step)
        assert (in_a, len(draws) - in_a) == (1, 1)
