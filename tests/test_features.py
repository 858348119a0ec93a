"""Feature pyramid, coordinate pooling, and attention-gated fusion."""

import numpy as np
import pytest

from conftest import photometric_features
from minimvs import gradcheck
from minimvs import tensor as T
from minimvs.config import PipelineConfig
from minimvs.errors import ParameterError
from minimvs.features import CoordinateGate, FeatureExtractor, coordinate_pool, gated_fuse
from minimvs.tensor import Tensor


class TestCoordinatePool:
    def test_constant_field(self):
        t_h, t_w = coordinate_pool(Tensor(np.full((3, 4, 5), 2.5)))
        assert t_h.shape == (3, 4, 1) and t_w.shape == (3, 1, 5)
        assert np.allclose(t_h.data, 2.5) and np.allclose(t_w.data, 2.5)

    def test_hand_case(self):
        x = Tensor(np.array([[[1.0, 3.0], [5.0, 7.0]]]))
        t_h, t_w = coordinate_pool(x)
        assert np.array_equal(t_h.data.ravel(), [2.0, 6.0])
        assert np.array_equal(t_w.data.ravel(), [3.0, 5.0])

    def test_profile_means_equal_global_mean(self, rng):
        for _ in range(20):
            x = rng.standard_normal((4, 6, 9))
            t_h, t_w = coordinate_pool(Tensor(x))
            g = x.mean(axis=(1, 2))
            assert np.abs(t_h.data.mean(axis=(1, 2)) - g).max() < 1e-12
            assert np.abs(t_w.data.mean(axis=(1, 2)) - g).max() < 1e-12


class TestCoordinateGate:
    def test_zero_parameters_give_half(self, rng):
        gate = CoordinateGate(6, reduction=4, rng=rng)
        for p in gate.parameters():
            p.data[...] = 0.0
        t_h, t_w = coordinate_pool(Tensor(rng.standard_normal((6, 5, 7))))
        a_h, a_w = gate.forward(t_h, t_w)
        assert a_h.shape == (6, 5, 1) and a_w.shape == (6, 1, 7)
        assert np.allclose(a_h.data, 0.5) and np.allclose(a_w.data, 0.5)

    def test_gates_strictly_inside_unit_interval(self, rng):
        gate = CoordinateGate(8, 4, rng=np.random.default_rng(5))
        t_h, t_w = coordinate_pool(Tensor(rng.standard_normal((8, 6, 6)) * 3))
        a_h, a_w = gate.forward(t_h, t_w)
        for a in (a_h, a_w):
            assert np.all(a.data > 0.0) and np.all(a.data < 1.0)

    def test_monotone_profile_preserved_by_positive_weights(self):
        # channel-reduce and restore with positive weights keep a ramp ordered
        gate = CoordinateGate(2, reduction=2, rng=np.random.default_rng(0))
        gate.reduce.weight.data[...] = 0.5
        gate.reduce.bias.data[...] = 0.0
        gate.restore.weight.data[...] = 1.0
        gate.restore.bias.data[...] = 0.0
        ramp = np.tile(np.arange(6.0)[None, :, None], (2, 1, 4))
        t_h, t_w = coordinate_pool(Tensor(ramp))
        a_h, _ = gate.forward(t_h, t_w)
        assert np.all(np.diff(a_h.data[:, :, 0], axis=1) > 0)


class TestGatedFuse:
    def test_identity_gating_passes_fine(self, rng):
        fine = Tensor(rng.standard_normal((3, 6, 8)))
        zero_coarse = Tensor(np.zeros((3, 3, 4)))
        ones = Tensor(np.ones((3, 6, 1))), Tensor(np.ones((3, 1, 8)))
        fused = gated_fuse(zero_coarse, fine, *ones)
        assert np.array_equal(fused.data, fine.data)

    def test_half_gating_quarters_the_fine_term(self, rng):
        fine = Tensor(rng.standard_normal((2, 4, 4)))
        halves = Tensor(np.full((2, 4, 1), 0.5)), Tensor(np.full((2, 1, 4), 0.5))
        fused = gated_fuse(Tensor(np.zeros((2, 2, 2))), fine, *halves)
        assert np.abs(fused.data - fine.data / 4.0).max() < 1e-15

    def test_matches_naive_loop(self, rng):
        from test_tensor import upsample2x_naive
        coarse = rng.standard_normal((2, 3, 4))
        fine = rng.standard_normal((2, 6, 8))
        a_h = rng.uniform(0.1, 0.9, (2, 6, 1))
        a_w = rng.uniform(0.1, 0.9, (2, 1, 8))
        got = gated_fuse(Tensor(coarse), Tensor(fine), Tensor(a_h), Tensor(a_w))
        want = upsample2x_naive(coarse).copy()
        for c in range(2):
            for i in range(6):
                for j in range(8):
                    want[c, i, j] += a_h[c, i, 0] * a_w[c, 0, j] * fine[c, i, j]
        assert np.abs(got.data - want).max() < 1e-12

    def test_attention_term_bounded_by_fine(self, rng):
        fine = rng.standard_normal((2, 4, 4))
        gate = CoordinateGate(2, 4, rng=np.random.default_rng(3))
        t_h, t_w = coordinate_pool(Tensor(fine))
        a_h, a_w = gate.forward(t_h, t_w)
        term = T.mul(T.mul(a_h, a_w), Tensor(fine))
        assert np.all(np.abs(term.data) <= np.abs(fine) + 1e-15)


def _extractor(seed):
    cfg = PipelineConfig()
    return FeatureExtractor(cfg.feature_channels, cfg.attention_reduction,
                            rng=np.random.default_rng(seed))


class TestFeatureExtractor:
    def test_stage_shapes_and_channels(self, rng):
        net = _extractor(1)
        pyr = net.forward(Tensor(rng.uniform(size=(3, 64, 64))))
        assert pyr[0].shape == (32, 8, 8)
        assert pyr[1].shape == (16, 16, 16)
        assert pyr[2].shape == (8, 32, 32)
        assert pyr[3].shape == (8, 64, 64)

    def test_indivisible_resolution_rejected(self, rng):
        net = _extractor(1)
        with pytest.raises(ParameterError):
            net.forward(Tensor(np.zeros((3, 60, 64))))

    def test_offset_images_stay_finite(self, rng):
        net = _extractor(2)
        base = rng.uniform(size=(3, 16, 16))
        for offset in (0.0, 0.25):
            pyr = net.forward(Tensor(np.clip(base + offset, 0, 1)))
            for stage in range(4):
                assert np.all(np.isfinite(pyr[stage].data))

    def test_gradient_reaches_first_layer(self, rng):
        net = _extractor(3)
        img = Tensor(rng.uniform(size=(3, 16, 16)))
        w = net.enc0.conv.weight

        def loss():
            pyr = net.forward(img)
            total = None
            for stage in range(4):
                s = T.sum_all(T.mul(pyr[stage], pyr[stage]))
                total = s if total is None else T.add(total, s)
            return total

        err = gradcheck.max_relative_error(loss, [w], max_entries=6,
                                           rng=np.random.default_rng(0))
        assert err <= 1e-3


class TestPhotometricFeatures:
    def test_roles_and_shapes(self, rng):
        img = rng.uniform(size=(3, 16, 24))
        ref = photometric_features(img, 8, "ref")
        src = photometric_features(img, 8, "src")
        assert ref.shape == (4, 2, 3) and src.shape == (4, 2, 3)
        assert np.allclose(ref.data[3], 1.0)
        assert np.all(src.data[3] <= 0.0)

    def test_correlation_is_ssd_up_to_offset(self, rng):
        a = rng.uniform(size=(3, 16, 16))
        b = rng.uniform(size=(3, 16, 16))
        ref = photometric_features(a, 8, "ref").data
        src = photometric_features(b, 8, "src").data
        corr = (ref * src).sum(axis=0)
        fa, fb = ref[:3], src[:3]
        ssd_term = (fa * fb).sum(axis=0) - 0.5 * (fb * fb).sum(axis=0)
        assert np.abs(corr - ssd_term).max() < 1e-12

    def test_bad_role_rejected(self, rng):
        with pytest.raises(ParameterError):
            photometric_features(rng.uniform(size=(3, 8, 8)), 8, "other")
