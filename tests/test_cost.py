"""Cost volume assembly: correlations, view weighting, aggregation, guidance."""

import math
import tracemalloc

import numpy as np
import pytest

from conftest import (fronto_plane_setup, make_camera, per_source_cost, photometric_features,
                      warp_valid)
from minimvs import tensor as T
from minimvs.cost import VolumeGuidance, aggregate, view_weights, warp_and_correlate
from minimvs.errors import ParameterError, UsageError
from minimvs.geometry import initial_hypotheses, warp_coords
from minimvs.tensor import Tensor


class TestWarpAndCorrelate:
    def test_identity_camera_recovers_products(self, rng):
        cam = make_camera()
        hyp = initial_hypotheses((1.0, 9.0), 4)
        f0 = Tensor(rng.standard_normal((4, 6, 7)))
        fi = Tensor(rng.standard_normal((4, 6, 7)))
        corr = warp_and_correlate(f0, [fi], cam, [cam], hyp, groups=2)
        prod = (f0.data * fi.data).reshape(2, 2, 6, 7).mean(axis=1)
        for d in range(4):
            assert np.abs(corr.data[0, :, d] - prod).max() < 1e-12
        assert warp_valid(cam, cam, hyp, 6, 7).all()

    def test_group_equal_channels_is_elementwise(self, rng):
        cam = make_camera()
        hyp = initial_hypotheses((1.0, 9.0), 4)
        f0 = Tensor(rng.standard_normal((3, 4, 5)))
        fi = Tensor(rng.standard_normal((3, 4, 5)))
        corr = warp_and_correlate(f0, [fi], cam, [cam], hyp, groups=3)
        for d in range(4):
            assert np.abs(corr.data[0, :, d] - f0.data * fi.data).max() < 1e-12

    def test_indivisible_groups_rejected(self, rng):
        cam = make_camera()
        hyp = initial_hypotheses((1.0, 9.0), 4)
        f = Tensor(rng.standard_normal((3, 4, 5)))
        with pytest.raises(ParameterError):
            warp_and_correlate(f, [f], cam, [cam], hyp, groups=2)

    def test_no_source_view_rejected(self, rng):
        cam = make_camera()
        hyp = initial_hypotheses((1.0, 9.0), 4)
        f = Tensor(rng.standard_normal((2, 4, 5)))
        with pytest.raises(ParameterError):
            warp_and_correlate(f, [], cam, [], hyp, groups=1)

    def test_invalid_warps_are_exact_zeros(self, rng):
        ref = make_camera()
        src = make_camera(t=(3.0, 0.0, 0.0))  # large baseline pushes warps outside
        hyp = initial_hypotheses((1.0, 2.0), 4)
        f = Tensor(rng.standard_normal((2, 6, 8)) + 5.0)
        corr = warp_and_correlate(f, [f], ref, [src], hyp, groups=1)
        invalid = ~warp_valid(ref, src, hyp, 6, 8)
        assert invalid.any()
        assert np.all(corr.data[0][:, invalid] == 0.0)
        assert np.all(corr.data[0][:, ~invalid] != 0.0)

    def test_correlation_peak_on_textured_plane(self):
        """Photometric features peak at the GT-nearest bin for >=95% of valid pixels."""
        cams, scene, renders, depth_range = fronto_plane_setup(seed=1)
        stage_cams = [c.scaled(1.0 / 8.0) for c in cams]
        hyp = initial_hypotheses(depth_range, 8)
        gt0 = renders[0][1][::8, ::8]
        nearest = np.argmin(np.abs(hyp.values[:, None, None] - gt0[None]), axis=0)
        f_ref = photometric_features(renders[0][0], 8, "ref")
        f_src = [photometric_features(renders[i][0], 8, "src") for i in (1, 2)]
        with T.no_grad():
            corr = warp_and_correlate(f_ref, f_src, stage_cams[0], stage_cams[1:],
                                      hyp, groups=1)
            vol = aggregate(corr, view_weights(corr, 2.0))
        best = np.argmax(vol.data[0], axis=0)
        ok = np.ones_like(best, dtype=bool)
        for cam in stage_cams[1:]:
            v = warp_valid(stage_cams[0], cam, hyp, *f_ref.shape[1:])
            ok &= np.take_along_axis(v, nearest[None], axis=0)[0]
        assert ok.sum() >= 30
        assert (best[ok] == nearest[ok]).mean() >= 0.95


class TestStackedMatchesPerSource:
    """The stacked cost layer equals the per-source path and its pairwise fold, bit for bit."""

    @pytest.mark.parametrize("sources", [1, 2, 3])
    def test_volume_weights_and_feature_gradients(self, rng, sources):
        ref = make_camera(fx=32.0, fy=32.0, cx=4.0, cy=3.0)
        # the last camera's large baseline sends some warps outside the image
        cams = [make_camera(fx=32.0, fy=32.0, cx=4.0, cy=3.0, t=t)
                for t in ((0.1, 0.0, 0.0), (-0.1, 0.05, 0.0), (0.5, 0.0, 0.0))][-sources:]
        hyp = initial_hypotheses((1.0, 9.0), 4)
        inside = [warp_valid(ref, cam, hyp, 6, 8).mean() for cam in cams]
        assert min(inside) > 0.25 and inside[-1] < 1.0
        f_ref = rng.standard_normal((4, 6, 8))
        f_src = [rng.standard_normal((4, 6, 8)) for _ in cams]
        probe = rng.standard_normal((2, 4, 6, 8))

        def run(layer):
            leaves = [Tensor(f, requires_grad=True) for f in [f_ref, *f_src]]
            corr, weights, vol = layer(leaves[0], leaves[1:])
            T.backward(T.sum_all(T.mul(vol, probe)))
            return [corr, weights, vol.data, *(leaf.grad for leaf in leaves)]

        def stacked(f0, fs):
            corr = warp_and_correlate(f0, fs, ref, cams, hyp, groups=2)
            weights = view_weights(corr, 2.0)
            return corr.data, weights.data, aggregate(corr, weights)

        def fold(f0, fs):
            corrs, weights, vol = per_source_cost(f0, fs, ref, cams, hyp, 2, 2.0)
            return np.stack([c.data for c in corrs]), np.stack([w.data for w in weights]), vol

        for got, want in zip(run(stacked), run(fold), strict=True):
            assert np.array_equal(got, want)


# (H, W) per feature channel count: H * W just above one chunk of
# _TILE_BYTES // (8 * C) points, so each depth slice ends in a short chunk
_ONE_CHUNK_AND_A_BIT = {32: (48, 90), 16: (64, 130), 8: (112, 150)}
# maps so small that the chunk budget holds every depth slice, and each
# chunk is still one whole slice
_WHOLE_SLICES = {32: (6, 8), 16: (6, 8), 8: (6, 8)}


class TestCorrelationMatchesComposition:
    """`grid_sample_bilinear`'s correlation mode equals sampling, `mul` with
    the reference and `mean_axis` over each group (`per_source_cost`), byte
    for byte: the forward recorded and under `no_grad`, and both gradients.
    Every group count the default feature channels (32, 16, 8, 8) allow, on
    maps whose depth slices split into chunks and on maps whose slices are
    each one chunk."""

    @pytest.mark.parametrize("sizes", [_ONE_CHUNK_AND_A_BIT, _WHOLE_SLICES],
                             ids=["split-slices", "whole-slices"])
    @pytest.mark.parametrize("c, groups", [(c, g) for c in (32, 16, 8)
                                           for g in range(1, c + 1) if c % g == 0])
    def test_forward_and_gradients(self, rng, c, groups, sizes):
        h, w = sizes[c]
        step = T._TILE_BYTES // (8 * c)
        assert step < h * w < 2 * step or 3 * h * w <= step
        f = 4.0 * w
        ref = make_camera(fx=f, fy=f, cx=w / 2, cy=h / 2)
        # a baseline that sends some warps outside the image, and a camera
        # ahead of the nearer hypotheses, which sit behind it
        cams = [make_camera(fx=f, fy=f, cx=w / 2, cy=h / 2, t=(0.5, 0.0, 0.0)),
                make_camera(fx=f, fy=f, cx=w / 2, cy=h / 2, t=(0.1, 0.05, -5.0))]
        hyp = initial_hypotheses((1.0, 9.0), 3)
        x = np.stack([warp_coords(ref, cam, hyp, h, w)[0] for cam in cams])
        inside = (x >= 0.0) & (x <= w - 1.0)
        assert (x == -1e9).any() and inside.any() and (~inside & (x > -1e9)).any()
        f_ref = rng.standard_normal((c, h, w))
        probe = rng.standard_normal((groups, 3, h, w))
        for cam in cams:
            f_src = rng.standard_normal((c, h, w))
            coords = warp_coords(ref, cam, hyp, h, w)

            def run(layer):
                leaves = [Tensor(f_ref, requires_grad=True), Tensor(f_src, requires_grad=True)]
                with T.no_grad():
                    unrecorded = layer(*leaves).data.tobytes()
                corr = layer(*leaves)
                T.backward(T.sum_all(T.mul(corr, probe)))
                return [corr.data.tobytes(), unrecorded, *(leaf.grad.tobytes() for leaf in leaves)]

            def fused(r, s):
                return T.grid_sample_bilinear(s, coords, r, groups)

            def composed(r, s):
                return per_source_cost(r, [s], ref, [cam], hyp, groups, 1.0)[0][0]

            assert run(fused) == run(composed)

    def test_shared_parameter_adds_gradients_in_the_same_order(self, rng):
        """With the reference and three sources all computed from one
        parameter, its gradient matches the stacked composition byte for
        byte: the backward sweep visits the feature graphs in the same order,
        so the parameter adds up the same terms in the same order."""
        ref = make_camera(fx=32.0, fy=32.0, cx=4.0, cy=3.0)
        cams = [make_camera(fx=32.0, fy=32.0, cx=4.0, cy=3.0, t=t)
                for t in ((0.1, 0.0, 0.0), (-0.1, 0.05, 0.0), (0.05, 0.1, 0.0))]
        hyp = initial_hypotheses((1.0, 9.0), 4)
        assert all(warp_valid(ref, cam, hyp, 6, 8).mean() > 0.5 for cam in cams)
        weights = [rng.standard_normal((4, 6, 8)) for _ in range(4)]
        base = rng.standard_normal((4, 6, 8))
        probe = rng.standard_normal((3, 2, 4, 6, 8))

        def composed(f_ref, f_src):
            views = []
            for feats, cam in zip(f_src, cams):
                corr = per_source_cost(f_ref, [feats], ref, [cam], hyp, 2, 1.0)[0][0]
                views.append(T.reshape(corr, (1, *corr.shape)))
            return T.concat_axis(views, 0)

        def grad(layer):
            shared = T.Parameter(base)
            f_ref, *f_src = [T.mul(shared, wt) for wt in weights]
            T.backward(T.sum_all(T.mul(layer(f_ref, f_src), probe)))
            return shared.grad.tobytes()

        assert grad(lambda r, s: warp_and_correlate(r, s, ref, cams, hyp, 2)) == grad(composed)


class TestWorkingSet:
    """tracemalloc figures of stage 3 of a 3-view 128x160 view: 8 channels in
    4 groups, 4 hypotheses, a (2, 4, 4, 128, 160) correlation of 5.2 MB."""

    @pytest.fixture
    def stage3(self, rng):
        ref = make_camera(cx=80.0, cy=64.0)
        cams = [make_camera(cx=80.0, cy=64.0, t=(0.3, 0.0, 0.0)),
                make_camera(cx=80.0, cy=64.0, t=(-0.2, 0.1, 0.0))]
        hyp = initial_hypotheses((1.0, 9.0), 4)
        feats = [Tensor(rng.standard_normal((8, 128, 160)), requires_grad=True)
                 for _ in range(3)]
        with T.no_grad():  # a warm-up, so one-time allocations are not counted
            warp_and_correlate(feats[0], feats[1:], ref, cams, hyp, 4)
        return lambda: warp_and_correlate(feats[0], feats[1:], ref, cams, hyp, 4)

    @staticmethod
    def _traced(call):
        """(result, bytes held after the call, peak bytes during it)."""
        tracemalloc.start()
        try:
            base = tracemalloc.get_traced_memory()[0]
            out = call()
            held, peak = tracemalloc.get_traced_memory()
        finally:
            tracemalloc.stop()
        return out, held - base, peak - base

    def test_unrecorded_peak(self, stage3):
        """About 11 MB: a chunk's samples are correlated as they are drawn;
        24 MB when each source's (C, D, H, W) warped volume and its product
        with the reference were built whole."""
        with T.no_grad():
            out, _, peak = self._traced(stage3)
        assert out.shape == (2, 4, 4, 128, 160)
        assert peak < 14e6, f"peak {peak / 1e6:.1f} MB"

    def test_recorded_call_keeps_coordinates_only(self, stage3):
        """About 7.9 MB: the result and each source's (2, D, H, W)
        coordinates; 26 MB when the tape held each warped volume and every
        chunk's corner indices and weights."""
        out, held, _ = self._traced(stage3)
        assert out.requires_grad
        assert held < 10e6, f"held {held / 1e6:.1f} MB"


class TestViewWeights:
    def test_constant_scores_uniform(self):
        corr = Tensor(np.full((2, 2, 4, 3, 3), 1.7))
        w = view_weights(corr, 2.0)
        assert np.abs(w.data - 0.25).max() < 1e-12

    def test_large_temperature_flattens(self, rng):
        corr = Tensor(rng.standard_normal((2, 2, 4, 3, 3)))
        w = view_weights(corr, 1e6)
        assert np.abs(w.data - 0.25).max() < 1e-4

    def test_closed_form_two_bins(self):
        scores = np.zeros((1, 1, 2, 1, 1))
        scores[0, 0, 1] = math.log(3.0)
        w = view_weights(Tensor(scores), 1.0)
        assert np.abs(w.data.ravel() - [0.25, 0.75]).max() < 1e-12

    def test_sums_to_one(self, rng):
        for _ in range(20):
            corr = Tensor(rng.standard_normal((2, 3, 8, 4, 5)))
            w = view_weights(corr, 2.0)
            assert np.abs(w.data.sum(axis=1) - 1.0).max() < 1e-6

    def test_nonpositive_temperature_rejected(self, rng):
        with pytest.raises(ParameterError):
            view_weights(Tensor(rng.standard_normal((1, 1, 4, 2, 2))), 0.0)


class TestAggregate:
    def test_single_view_identity(self, rng):
        corr = Tensor(rng.standard_normal((1, 2, 4, 3, 3)))
        w = view_weights(corr, 2.0)
        out = aggregate(corr, w)
        assert np.abs(out.data - corr.data[0]).max() < 1e-12

    def test_identical_views(self, rng):
        one = rng.standard_normal((2, 4, 3, 3))
        corr = Tensor(np.stack([one, one]))
        w = view_weights(corr, 2.0)
        out = aggregate(corr, w)
        assert np.abs(out.data - one).max() < 1e-12

    def test_convex_combination(self, rng):
        for _ in range(20):
            corr = Tensor(rng.standard_normal((3, 2, 4, 3, 3)))
            out = aggregate(corr, view_weights(corr, 2.0)).data
            assert np.all(out >= corr.data.min(axis=0) - 1e-12)
            assert np.all(out <= corr.data.max(axis=0) + 1e-12)


class TestVolumeGuidance:
    def test_zero_channels_is_identity_object(self, rng):
        guide = VolumeGuidance(8, 8, 0, 0, rng=rng)
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
