"""Depth-error and point-cloud metrics against brute-force oracles."""

import hypothesis.extra.numpy as hnp
import numpy as np
import pytest
from hypothesis import given, settings, strategies as st

from conftest import scene_mean
from minimvs.errors import ParameterError
from minimvs.evaluation import (cloud_distance_metrics, depth_errors,
                                nearest_distances, threshold_metrics)


def brute_force_nearest(queries, points):
    """O(n*m) oracle for nearest-neighbor distances, with the index's arithmetic."""
    out = np.empty(len(queries))
    for i, q in enumerate(queries):
        d2 = (q[0] - points[:, 0]) ** 2
        d2 += (q[1] - points[:, 1]) ** 2
        d2 += (q[2] - points[:, 2]) ** 2
        out[i] = np.sqrt(d2.min())
    return out


def assert_matches_brute_force(queries, points, radius):
    dist, found = nearest_distances(queries, points, radius)
    brute = brute_force_nearest(queries, points)
    np.testing.assert_array_equal(found, brute <= radius)
    np.testing.assert_array_equal(dist[found], brute[found])
    assert np.all(dist[~found] == np.inf)


class TestDepthErrors:
    def test_perfect_prediction(self):
        r = depth_errors(np.ones((4, 4)), np.ones((4, 4)))
        assert r.ade == 0.0
        assert all(v == 0.0 for v in r.tde.values())

    def test_hand_computed_case(self):
        gt = np.zeros((1, 3))
        pred = np.array([[0.5, 3.0, 20.0]])
        r = depth_errors(pred, gt)
        assert abs(r.ade - 23.5 / 3.0) < 1e-9
        assert abs(r.tde[1] - 200.0 / 3.0) < 1e-9
        assert abs(r.tde[2] - 200.0 / 3.0) < 1e-9
        assert abs(r.tde[4] - 100.0 / 3.0) < 1e-9
        assert abs(r.tde[8] - 100.0 / 3.0) < 1e-9
        assert abs(r.tde[16] - 100.0 / 3.0) < 1e-9

    def test_strict_inequality_at_threshold(self):
        r = depth_errors(np.array([[1.0]]), np.array([[0.0]]))
        assert r.tde[1] == 0.0  # error exactly 1 is not "above 1"

    def test_tde_monotone_in_threshold(self, rng):
        for _ in range(20):
            pred = rng.uniform(0, 30, (8, 8))
            gt = rng.uniform(0, 30, (8, 8))
            r = depth_errors(pred, gt)
            values = [r.tde[x] for x in sorted(r.tde)]
            assert all(a >= b for a, b in zip(values, values[1:]))

    def test_empty_mask_flagged(self):
        r = depth_errors(np.ones((2, 2)), np.ones((2, 2)), np.zeros((2, 2), dtype=bool))
        assert r.empty and r.valid_count == 0

    def test_mask_respected(self):
        pred = np.array([[0.0, 100.0]])
        gt = np.zeros((1, 2))
        mask = np.array([[True, False]])
        assert depth_errors(pred, gt, mask).ade == 0.0


class TestCloudDistances:
    def test_identical_clouds(self, rng):
        pts = rng.standard_normal((60, 3))
        r = cloud_distance_metrics(pts, pts, outlier_cap=5.0)
        assert r.acc == 0.0 and r.comp == 0.0 and r.overall == 0.0

    def test_matches_brute_force_on_100_points(self, rng):
        recon = rng.uniform(-1, 1, (100, 3))
        gt = rng.uniform(-1, 1, (100, 3))
        cap = 20.0
        r = cloud_distance_metrics(recon, gt, outlier_cap=cap)
        d_rg = brute_force_nearest(recon, gt)
        d_gr = brute_force_nearest(gt, recon)
        assert abs(r.acc - d_rg[d_rg <= cap].mean()) < 1e-9
        assert abs(r.comp - d_gr[d_gr <= cap].mean()) < 1e-9
        assert abs(r.overall - (r.acc + r.comp) / 2.0) < 1e-15

    def test_accelerated_equals_brute_under_small_radius(self, rng):
        recon = rng.uniform(-1, 1, (100, 3))
        gt = rng.uniform(-1, 1, (100, 3))
        d, found = nearest_distances(recon, gt, radius=0.25)
        brute = brute_force_nearest(recon, gt)
        for i in range(100):
            if brute[i] <= 0.25:
                assert found[i] and abs(d[i] - brute[i]) < 1e-9
            else:
                assert not found[i]

    @pytest.mark.parametrize("radius", [0.1, 0.25, 1.0, 3.0])
    def test_point_at_exactly_the_radius_is_found(self, radius):
        d, found = nearest_distances([[radius, 0.0, 0.0]], [[0.0, 0.0, 0.0]], radius)
        assert found[0] and d[0] == radius

    def test_neighbour_across_a_rounded_cell_edge_is_found(self):
        """Within the radius, yet floor((x - origin) / radius) puts the point two
        cells from the query: the last level's side must exceed the radius."""
        origin, radius = -18.74959573565897, 0.08376493989599784
        query, point = 4.872117315012419, 4.955882254908415
        assert_matches_brute_force([[query, 0.0, 0.0]],
                                   np.array([[origin, 0.0, 0.0], [point, 0.0, 0.0]]), radius)

    @pytest.mark.parametrize("where", ["points", "queries", "radius"])
    @pytest.mark.parametrize("bad", [np.nan, np.inf, -np.inf])
    def test_non_finite_input_rejected(self, rng, where, bad):
        points = rng.uniform(-1, 1, (50, 3))
        queries = points.copy()
        radius = 1.0
        if where == "radius":
            radius = bad
        else:
            (points if where == "points" else queries)[7, 1] = bad
        with pytest.raises(ParameterError):
            nearest_distances(queries, points, radius)
        with pytest.raises(ParameterError):
            cloud_distance_metrics(queries, points, outlier_cap=radius)

    def test_surface_cloud_at_scale(self):
        """20k-point surface clouds with 2% outliers, searched both ways at the
        CLI default cap and below the point spacing (about 0.024)."""
        rng = np.random.default_rng(7)

        def surface(n):
            x, y = rng.uniform(0, 4, n), rng.uniform(0, 3, n)
            pts = np.stack([x, y, 0.3 * np.sin(3 * x) + 0.2 * np.cos(5 * y)], axis=1)
            wild = rng.random(n) < 0.02
            pts[wild] += rng.normal(0, 1.0, (int(wild.sum()), 3))
            return pts

        a, b = surface(20000), surface(20000)
        for radius in (20.0, 0.01):
            for queries, points in ((a, b), (b, a)):
                dist, found = nearest_distances(queries, points, radius)
                pick = rng.choice(len(queries), 64, replace=False)
                brute = brute_force_nearest(queries[pick], points)
                np.testing.assert_array_equal(found[pick], brute <= radius)
                np.testing.assert_array_equal(dist[pick][found[pick]], brute[brute <= radius])

    def test_outlier_cap_excludes(self):
        recon = np.array([[0.0, 0, 0], [100.0, 0, 0]])
        gt = np.array([[1.0, 0, 0]])
        r = cloud_distance_metrics(recon, gt, outlier_cap=5.0)
        assert abs(r.acc - 1.0) < 1e-12
        assert r.acc_used == 1

    def test_symmetry(self, rng):
        a = rng.uniform(-1, 1, (50, 3))
        b = rng.uniform(-1, 1, (70, 3))
        r_ab = cloud_distance_metrics(a, b, outlier_cap=10.0)
        r_ba = cloud_distance_metrics(b, a, outlier_cap=10.0)
        assert r_ab.acc == r_ba.comp
        assert r_ab.comp == r_ba.acc

    def test_scale_equivariance(self, rng):
        a = rng.uniform(-1, 1, (40, 3))
        b = rng.uniform(-1, 1, (40, 3))
        base = cloud_distance_metrics(a, b, outlier_cap=10.0)
        for s in (0.5, 3.0):
            scaled = cloud_distance_metrics(s * a, s * b, outlier_cap=10.0 * s)
            assert abs(scaled.acc - s * base.acc) < 1e-9
            assert abs(scaled.comp - s * base.comp) < 1e-9
            assert abs(scaled.overall - s * base.overall) < 1e-9

    def test_empty_cloud_rejected(self):
        with pytest.raises(ParameterError):
            cloud_distance_metrics(np.zeros((0, 3)), np.ones((3, 3)))

    def test_reported_table_arithmetic(self):
        """Constructed clouds with acc 0.327 / comp 0.251 average to 0.289."""
        recon = np.array([[0.0, 0.0, 0.0], [100.0, 0.0, 0.0]])
        gt = np.array([
            [0.6, 0.0, 0.0],       # 0.6 from recon[0]
            [100.054, 0.0, 0.0],   # 0.054 from recon[1]
            [100.2, 0.0, 0.0],     # 0.2 from recon[1]
            [99.85, 0.0, 0.0],     # 0.15 from recon[1]
        ])
        r = cloud_distance_metrics(recon, gt, outlier_cap=20.0)
        assert abs(r.acc - 0.327) < 1e-12
        assert abs(r.comp - 0.251) < 1e-12
        assert abs(r.overall - 0.289) < 1e-12


_COORDS = st.one_of(st.integers(-4, 4).map(float),   # duplicates, multiples of the radius
                    st.floats(-4, 4, allow_nan=False))


def _clouds(max_points):
    return hnp.arrays(np.float64, st.tuples(st.integers(1, max_points), st.just(3)),
                      elements=_COORDS)


_POINTS = st.one_of(
    _clouds(40),
    st.tuples(_clouds(1), st.integers(1, 20)).map(lambda c: np.repeat(c[0], c[1], axis=0)),
)
_QUERIES = st.one_of(_clouds(20), _clouds(5).map(lambda q: q * 1e3))  # or far outside
_RADII = st.one_of(st.sampled_from([0.5, 1.0, 2.0, 1e-3, 1e3]),  # 1e3 exceeds the box
                   st.floats(1e-3, 1e3))


@settings(max_examples=200, deadline=None)
@given(points=_POINTS, queries=_QUERIES, radius=_RADII)
def test_index_matches_brute_force(points, queries, radius):
    assert_matches_brute_force(queries, points, radius)


class TestThresholdMetrics:
    def test_identical_clouds_all_hundred(self, rng):
        pts = rng.standard_normal((80, 3))
        r = threshold_metrics(pts, pts, 0.5)
        assert r.precision == 100.0 and r.recall == 100.0 and r.fscore == 100.0

    def test_half_subset_construction(self, rng):
        gt = rng.uniform(-1, 1, (100, 3))
        # spread points so each recon point matches exactly its own gt point
        gt = gt + np.arange(100)[:, None] * 3.0
        recon = gt[:50]
        r = threshold_metrics(recon, gt, 0.5)
        assert r.precision == 100.0
        assert r.recall == 50.0
        assert abs(r.fscore - 200.0 / 3.0) < 1e-9

    def test_mean_of_reported_scene_scores(self):
        scores = [81.73, 68.92, 56.59, 66.10, 64.86, 64.41, 62.33, 59.26]
        mean = scene_mean(scores)
        assert abs(mean - 65.525) < 1e-9
        assert abs(mean - 65.53) < 0.0051  # value as printed at 2 decimals

    def test_tau_positive_required(self, rng):
        pts = rng.standard_normal((5, 3))
        with pytest.raises(ParameterError):
            threshold_metrics(pts, pts, 0.0)


class TestReports:
    def test_depth_report_emitters(self):
        from minimvs.evaluation import depth_report_csv, depth_report_text
        r = depth_errors(np.array([[0.5, 3.0, 20.0]]), np.zeros((1, 3)))
        csv_text = depth_report_csv(r)
        assert csv_text.splitlines()[0].startswith("ade,tde(1),tde(2)")
        assert "7.833333" in csv_text
        table = depth_report_text(r)
        assert "ade" in table and "7.8333" in table

    def test_cloud_report_emitters(self, rng):
        from minimvs.evaluation import cloud_report_csv, cloud_report_text
        pts = rng.standard_normal((30, 3))
        dist = cloud_distance_metrics(pts, pts, outlier_cap=5.0)
        thr = threshold_metrics(pts, pts, 0.5)
        csv_text = cloud_report_csv(dist, thr)
        assert csv_text.splitlines()[0] == \
            "acc,comp,overall,outlier_cap,precision,recall,fscore,tau"
        table = cloud_report_text(dist, thr)
        assert "overall" in table and "f-score" in table
