"""Cost volume assembly: correlations, view weighting, aggregation, guidance."""

import math

import numpy as np
import pytest

from conftest import fronto_plane_setup, make_camera, photometric_features
from minimvs import tensor as T
from minimvs.cost import VolumeGuidance, aggregate, view_weights, warp_and_correlate
from minimvs.errors import ParameterError, UsageError
from minimvs.geometry import initial_hypotheses
from minimvs.tensor import Tensor


class TestWarpAndCorrelate:
    def test_identity_camera_recovers_products(self, rng):
        cam = make_camera()
        hyp = initial_hypotheses((1.0, 9.0), 4)
        f0 = Tensor(rng.standard_normal((4, 6, 7)))
        fi = Tensor(rng.standard_normal((4, 6, 7)))
        pair = warp_and_correlate(f0, fi, cam, cam, hyp, groups=2)
        prod = (f0.data * fi.data).reshape(2, 2, 6, 7).mean(axis=1)
        for d in range(4):
            assert np.abs(pair.data.data[:, d] - prod).max() < 1e-12
        assert pair.valid.all()

    def test_group_equal_channels_is_elementwise(self, rng):
        cam = make_camera()
        hyp = initial_hypotheses((1.0, 9.0), 4)
        f0 = Tensor(rng.standard_normal((3, 4, 5)))
        fi = Tensor(rng.standard_normal((3, 4, 5)))
        pair = warp_and_correlate(f0, fi, cam, cam, hyp, groups=3)
        for d in range(4):
            assert np.abs(pair.data.data[:, d] - f0.data * fi.data).max() < 1e-12

    def test_indivisible_groups_rejected(self, rng):
        cam = make_camera()
        hyp = initial_hypotheses((1.0, 9.0), 4)
        f = Tensor(rng.standard_normal((3, 4, 5)))
        with pytest.raises(ParameterError):
            warp_and_correlate(f, f, cam, cam, hyp, groups=2)

    def test_invalid_warps_are_exact_zeros(self, rng):
        ref = make_camera()
        src = make_camera(t=(3.0, 0.0, 0.0))  # large baseline pushes warps outside
        hyp = initial_hypotheses((1.0, 2.0), 4)
        f = Tensor(rng.standard_normal((2, 6, 8)) + 5.0)
        pair = warp_and_correlate(f, f, ref, src, hyp, groups=1)
        invalid = ~pair.valid
        assert invalid.any()
        assert np.all(pair.data.data[:, invalid] == 0.0)

    def test_correlation_peak_on_textured_plane(self):
        """Photometric features peak at the GT-nearest bin for >=95% of valid pixels."""
        cams, scene, renders, depth_range = fronto_plane_setup(seed=1)
        stage_cams = [c.scaled(1.0 / 8.0) for c in cams]
        hyp = initial_hypotheses(depth_range, 8)
        gt0 = renders[0][1][::8, ::8]
        nearest = np.argmin(np.abs(hyp.values[:, None, None] - gt0[None]), axis=0)
        f_ref = photometric_features(renders[0][0], 8, "ref")
        corrs, weights, valids = [], [], []
        with T.no_grad():
            for i in (1, 2):
                f_src = photometric_features(renders[i][0], 8, "src")
                pair = warp_and_correlate(f_ref, f_src, stage_cams[0], stage_cams[i],
                                          hyp, groups=1)
                corrs.append(pair.data)
                weights.append(view_weights(pair.data, 2.0))
                valids.append(pair.valid)
            vol = aggregate(corrs, weights)
        best = np.argmax(vol.data[0], axis=0)
        ok = np.ones_like(best, dtype=bool)
        for v in valids:
            ok &= np.take_along_axis(v, nearest[None], axis=0)[0]
        assert ok.sum() >= 30
        assert (best[ok] == nearest[ok]).mean() >= 0.95


class TestViewWeights:
    def test_constant_scores_uniform(self):
        corr = Tensor(np.full((2, 4, 3, 3), 1.7))
        w = view_weights(corr, 2.0)
        assert np.abs(w.data - 0.25).max() < 1e-12

    def test_large_temperature_flattens(self, rng):
        corr = Tensor(rng.standard_normal((2, 4, 3, 3)))
        w = view_weights(corr, 1e6)
        assert np.abs(w.data - 0.25).max() < 1e-4

    def test_closed_form_two_bins(self):
        scores = np.zeros((1, 2, 1, 1))
        scores[0, 1] = math.log(3.0)
        w = view_weights(Tensor(scores), 1.0)
        assert np.abs(w.data.ravel() - [0.25, 0.75]).max() < 1e-12

    def test_sums_to_one(self, rng):
        for _ in range(20):
            corr = Tensor(rng.standard_normal((3, 8, 4, 5)))
            w = view_weights(corr, 2.0)
            assert np.abs(w.data.sum(axis=0) - 1.0).max() < 1e-6

    def test_nonpositive_temperature_rejected(self, rng):
        with pytest.raises(ParameterError):
            view_weights(Tensor(rng.standard_normal((1, 4, 2, 2))), 0.0)


class TestAggregate:
    def test_single_view_identity(self, rng):
        corr = Tensor(rng.standard_normal((2, 4, 3, 3)))
        w = view_weights(corr, 2.0)
        out = aggregate([corr], [w])
        assert np.abs(out.data - corr.data).max() < 1e-12

    def test_identical_views(self, rng):
        corr = Tensor(rng.standard_normal((2, 4, 3, 3)))
        w = view_weights(corr, 2.0)
        out = aggregate([corr, corr], [w, w])
        assert np.abs(out.data - corr.data).max() < 1e-12

    def test_convex_combination(self, rng):
        for _ in range(20):
            corrs = [Tensor(rng.standard_normal((2, 4, 3, 3))) for _ in range(3)]
            weights = [view_weights(c, 2.0) for c in corrs]
            out = aggregate(corrs, weights).data
            lo = np.min([c.data for c in corrs], axis=0)
            hi = np.max([c.data for c in corrs], axis=0)
            assert np.all(out >= lo - 1e-12)
            assert np.all(out <= hi + 1e-12)

    def test_empty_rejected(self):
        with pytest.raises(ParameterError):
            aggregate([], [])


class TestVolumeGuidance:
    def test_zero_channels_is_identity_object(self, rng):
        guide = VolumeGuidance(8, 8, 0, 0)
        vol = Tensor(rng.standard_normal((2, 4, 4, 4)))
        assert guide.forward(None, vol) is vol

    def test_channel_count_contract(self, rng):
        for num in range(5):
            guide = VolumeGuidance(2 * 4, 2 * 4, num, num, rng=np.random.default_rng(num))
            guide.eval()
            prev = Tensor(rng.standard_normal((2, 4, 3, 4)))
            curr = Tensor(rng.standard_normal((2, 4, 6, 8)))
            out = guide.forward(prev, curr)
            assert out.shape == (2 + 2 * num, 4, 6, 8)

    def test_missing_previous_stage_raises(self, rng):
        guide = VolumeGuidance(8, 8, 1, 1, rng=np.random.default_rng(0))
        with pytest.raises(UsageError):
            guide.forward(None, Tensor(rng.standard_normal((2, 4, 4, 4))))

    def test_zeroed_convs_produce_zero_guidance(self, rng):
        guide = VolumeGuidance(2 * 4, 2 * 4, 1, 1, rng=np.random.default_rng(1))
        for p in guide.parameters():
            p.data[...] = 0.0
        guide.conv_coarse.bn.gamma.data[...] = 1.0
        guide.conv_fine.bn.gamma.data[...] = 1.0
        guide.eval()
        prev = Tensor(rng.standard_normal((2, 4, 3, 4)))
        curr = Tensor(rng.standard_normal((2, 4, 6, 8)))
        out = guide.forward(prev, curr)
        assert np.array_equal(out.data[:2], curr.data)
        assert np.all(out.data[2:] == 0.0)
