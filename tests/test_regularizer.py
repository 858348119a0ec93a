"""Cost regularization U-Net and winner-takes-all depth extraction."""

import numpy as np
import pytest

from minimvs import gradcheck
from minimvs import tensor as T
from minimvs.errors import DimensionError, ParameterError
from minimvs.geometry import HypothesisSet, initial_hypotheses
from minimvs.regularizer import VolumeRegularizer, wta_depth
from minimvs.tensor import Tensor


class TestRegularize:
    def test_output_shape_and_normalization(self, rng):
        reg = VolumeRegularizer(4, 8, rng=np.random.default_rng(0))
        reg.eval()
        vol = Tensor(rng.standard_normal((4, 8, 6, 7)))
        prob = reg.forward(vol)
        assert prob.shape == (8, 6, 7)
        assert np.all(prob.data >= 0.0)
        assert np.abs(prob.data.sum(axis=0) - 1.0).max() < 1e-5

    def test_constant_volume_gives_uniform(self, rng):
        for d in (4, 8):
            reg = VolumeRegularizer(3, 4, rng=np.random.default_rng(d))
            reg.eval()
            prob = reg.forward(Tensor(np.full((3, d, 5, 6), 0.7)))
            assert np.abs(prob.data - 1.0 / d).max() < 1e-9

    def test_channel_mismatch_rejected(self, rng):
        reg = VolumeRegularizer(4, 4, rng=np.random.default_rng(1))
        with pytest.raises(DimensionError):
            reg.forward(Tensor(rng.standard_normal((3, 4, 4, 4))))

    def test_depth_not_multiple_of_four_rejected(self, rng):
        reg = VolumeRegularizer(2, 4, rng=np.random.default_rng(1))
        with pytest.raises(ParameterError):
            reg.forward(Tensor(rng.standard_normal((2, 6, 4, 4))))

    def test_odd_spatial_sizes_are_padded(self, rng):
        reg = VolumeRegularizer(2, 4, rng=np.random.default_rng(2))
        reg.eval()
        prob = reg.forward(Tensor(rng.standard_normal((2, 4, 5, 9))))
        assert prob.shape == (4, 5, 9)
        assert np.abs(prob.data.sum(axis=0) - 1.0).max() < 1e-5

    def test_gradient_reaches_first_conv(self, rng):
        reg = VolumeRegularizer(2, 4, rng=np.random.default_rng(3))
        reg.train()
        vol = Tensor(rng.standard_normal((2, 4, 4, 4)))
        target = Tensor(rng.standard_normal((4, 4, 4)))

        def loss():
            return T.sum_all(T.mul(reg.forward(vol), target))

        err = gradcheck.max_relative_error(loss, [reg.conv0.conv.weight],
                                           max_entries=5,
                                           rng=np.random.default_rng(0))
        assert err <= 1e-3


class TestWinnerTakesAll:
    def test_one_hot_selects_bin(self):
        hyp = initial_hypotheses((1.0, 4.0), 4)
        p = np.zeros((4, 2, 3))
        p[2] = 1.0
        depth, confidence = wta_depth(p, hyp)
        assert np.all(depth == hyp.values[2])
        assert np.all(confidence == 1.0)

    def test_uniform_ties_break_to_smaller_index(self):
        hyp = initial_hypotheses((1.0, 4.0), 4)
        depth, confidence = wta_depth(np.full((4, 2, 2), 0.25), hyp)
        assert np.all(depth == hyp.values[0])
        assert np.all(confidence == 0.25)

    def test_logit_scaling_never_changes_selection(self, rng):
        for _ in range(20):
            logits = rng.standard_normal((8, 4, 5))
            hyp = initial_hypotheses((1.0, 9.0), 8)
            base, _ = wta_depth(T.softmax_axis(Tensor(logits), 0).data, hyp)
            for beta in (0.5, 2.0, 7.3):
                scaled, _ = wta_depth(T.softmax_axis(Tensor(beta * logits), 0).data, hyp)
                assert np.array_equal(base, scaled)

    def test_monotone_relabel_preserves_bins(self, rng):
        hyp = initial_hypotheses((1.0, 9.0), 8)
        p = rng.uniform(0.01, 1.0, (8, 3, 3))
        p /= p.sum(axis=0, keepdims=True)
        base, _ = wta_depth(p, hyp)
        relabeled, _ = wta_depth(np.exp(3.0 * p), hyp)
        assert np.array_equal(base, relabeled)

    def test_depth_is_hypothesis_member(self, rng):
        hyp = initial_hypotheses((2.0, 8.0), 8)
        refined_vals = np.sort(rng.uniform(2.0, 8.0, (4, 3, 3)), axis=0)
        refined_vals += np.arange(4)[:, None, None] * 1e-6
        per_pixel = HypothesisSet(refined_vals, 0.5, None)
        p = rng.uniform(0.01, 1.0, (4, 3, 3))
        depth, _ = wta_depth(p, per_pixel)
        vals = per_pixel.per_pixel(3, 3)
        member = np.any(np.abs(vals - depth[None]) == 0.0, axis=0)
        assert member.all()

    def test_confidence_bounds_after_softmax(self, rng):
        hyp = initial_hypotheses((1.0, 9.0), 8)
        for _ in range(10):
            prob = T.softmax_axis(Tensor(rng.standard_normal((8, 4, 4))), 0).data
            _, confidence = wta_depth(prob, hyp)
            assert confidence.min() >= 1.0 / 8 - 1e-12
            assert confidence.max() <= 1.0 + 1e-12

    def test_shape_mismatch_raises(self, rng):
        hyp = initial_hypotheses((1.0, 9.0), 8)
        with pytest.raises(DimensionError):
            wta_depth(rng.uniform(size=(4, 3, 3)), hyp)
