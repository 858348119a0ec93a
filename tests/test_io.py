"""File formats, the config parser, and the command-line surface."""

import os
import sys

import numpy as np
import pytest

from minimvs import formats, fusion
from minimvs.cli import main
from minimvs.config import (PipelineConfig, default_config_text, load_config,
                            parse_config_text)
from minimvs.errors import ParameterError, ParseError
from minimvs.pipeline import read_pair_file


class TestPfm:
    def test_round_trip_bit_identical(self, tmp_path, rng):
        data = rng.uniform(0.5, 9.0, (13, 17)).astype(np.float32)
        path = tmp_path / "d.pfm"
        formats.write_pfm(path, data)
        assert np.array_equal(formats.read_pfm(path), data)

    def test_header_layout(self, tmp_path):
        path = tmp_path / "d.pfm"
        formats.write_pfm(path, np.zeros((2, 3), dtype=np.float32))
        blob = open(path, "rb").read()
        assert blob.startswith(b"Pf\n3 2\n-1.0\n")
        assert len(blob) == len(b"Pf\n3 2\n-1.0\n") + 2 * 3 * 4

    def test_bottom_up_row_order(self, tmp_path):
        data = np.array([[1.0, 2.0], [3.0, 4.0]], dtype=np.float32)
        path = tmp_path / "d.pfm"
        formats.write_pfm(path, data)
        blob = open(path, "rb").read()
        payload = np.frombuffer(blob[len(b"Pf\n2 2\n-1.0\n"):], dtype="<f4")
        assert np.array_equal(payload, [3.0, 4.0, 1.0, 2.0])

    def test_big_endian_fixture(self, tmp_path):
        values = np.array([[1.5, -2.0], [0.25, 8.0]], dtype=">f4")
        path = tmp_path / "be.pfm"
        with open(path, "wb") as fh:
            fh.write(b"Pf\n2 2\n1.0\n")
            fh.write(np.flipud(values).tobytes())
        back = formats.read_pfm(path)
        assert np.array_equal(back, values.astype(np.float32))

    def test_malformed_header_offsets(self, tmp_path):
        path = tmp_path / "bad.pfm"
        path.write_bytes(b"Px\n2 2\n-1.0\n" + b"\x00" * 16)
        with pytest.raises(ParseError, match="byte 0"):
            formats.read_pfm(path)
        path.write_bytes(b"Pf\nxx yy\n-1.0\n")
        with pytest.raises(ParseError):
            formats.read_pfm(path)
        path.write_bytes(b"Pf\n4 4\n-1.0\n" + b"\x00" * 8)
        with pytest.raises(ParseError, match="truncated"):
            formats.read_pfm(path)


class TestPpm:
    def test_round_trip_at_8bit(self, tmp_path, rng):
        img = rng.uniform(size=(3, 6, 7))
        path = tmp_path / "i.ppm"
        formats.write_ppm(path, img)
        back = formats.read_ppm(path)
        quantized = np.rint(img * 255.0) / 255.0
        assert np.abs(back - quantized).max() < 1e-12

    def test_header_comments_skipped(self, tmp_path):
        path = tmp_path / "c.ppm"
        payload = bytes(range(12))
        path.write_bytes(b"P6\n# a comment\n2 2\n255\n" + payload)
        img = formats.read_ppm(path)
        assert img.shape == (3, 2, 2)

    def test_bad_magic(self, tmp_path):
        path = tmp_path / "bad.ppm"
        path.write_bytes(b"P5\n2 2\n255\n" + b"\x00" * 4)
        with pytest.raises(ParseError):
            formats.read_ppm(path)


class TestPly:
    def test_binary_round_trip(self, tmp_path, rng):
        pts = rng.uniform(-3, 3, (40, 3)).astype(np.float32).astype(np.float64)
        cols = rng.integers(0, 256, (40, 3)) / 255.0
        path = tmp_path / "c.ply"
        formats.write_ply(path, pts, cols)
        back_pts, back_cols = formats.read_ply(path)
        assert np.array_equal(back_pts.astype(np.float32), pts.astype(np.float32))
        assert np.array_equal(back_cols, cols)

    def test_ascii_round_trip(self, tmp_path):
        path = tmp_path / "a.ply"
        path.write_bytes(
            b"ply\nformat ascii 1.0\nelement vertex 2\n"
            b"property float x\nproperty float y\nproperty float z\n"
            b"property uchar red\nproperty uchar green\nproperty uchar blue\n"
            b"end_header\n0 0 0 255 255 255\n1.5 -2.25 8 0 128 255\n"
        )
        back_pts, back_cols = formats.read_ply(path)
        assert np.array_equal(back_pts, [[0.0, 0.0, 0.0], [1.5, -2.25, 8.0]])
        assert np.array_equal(back_cols, np.array([[255, 255, 255], [0, 128, 255]]) / 255.0)

    def test_single_white_point(self, tmp_path):
        path = tmp_path / "p.ply"
        formats.write_ply(path, np.zeros((1, 3)), np.ones((1, 3)))
        pts, cols = formats.read_ply(path)
        assert pts.shape == (1, 3)
        assert np.array_equal(pts[0], [0.0, 0.0, 0.0])
        assert np.array_equal(cols[0], [1.0, 1.0, 1.0])

    def test_missing_property_rejected(self, tmp_path):
        path = tmp_path / "bad.ply"
        path.write_bytes(
            b"ply\nformat ascii 1.0\nelement vertex 1\n"
            b"property float x\nproperty float y\nproperty float z\n"
            b"end_header\n0 0 0\n"
        )
        with pytest.raises(ParseError, match="red"):
            formats.read_ply(path)


@pytest.mark.parametrize("name, blob, reader", [
    ("neg.pfm", b"Pf\n-4 3\n-1.0\n" + b"\x00" * 48, formats.read_pfm),
    ("pair.txt", b"3\n0 2 1 1.0\n", read_pair_file),
    ("pair.txt", b"1\n0 1 x 1.0\n", read_pair_file),
    ("pair.txt", b" \n", read_pair_file),
    ("pair.txt", b"2\n0 1 1 1.0\n5 1 0 1.0\n", read_pair_file),
    ("pair.txt", b"2\n0 1 1 1.0\n0 1 1 1.0\n", read_pair_file),
    ("pair.txt", b"2\n0 1 7 1.0\n1 1 0 1.0\n", read_pair_file),
    ("pair.txt", b"2\n0 1 -1 1.0\n1 1 0 1.0\n", read_pair_file),
    ("pair.txt", b"-1\n", read_pair_file),
    ("pair.txt", b"1\n0 -3\n", read_pair_file),
], ids=["pfm-negative-dims", "pair-truncated", "pair-non-integer", "pair-empty",
        "pair-reference-out-of-range", "pair-missing-reference", "pair-source-out-of-range",
        "pair-source-negative", "pair-negative-view-count", "pair-negative-source-count"])
def test_malformed_input_raises_parse_error(tmp_path, name, blob, reader):
    path = tmp_path / name
    path.write_bytes(blob)
    with pytest.raises(ParseError):
        reader(str(path))


class TestConfig:
    def test_defaults_validate(self):
        PipelineConfig().validate()

    def test_default_text_parses_back(self):
        cfg = parse_config_text(default_config_text())
        assert cfg.depths == (8, 8, 4, 4)
        assert cfg.guidance_coarse == 1 and cfg.guidance_fine == 1

    def test_sections_comments_and_values(self):
        text = """
        # pipeline tunables
        [pipeline]
        temperature = 3.5
        guidance_coarse = 2   # ablation knob

        [train]
        learning_rate = 0.01
        stage_weights = 0 0 0 1

        [fusion]
        dynamic = false
        """
        cfg = parse_config_text(text)
        assert cfg.temperature == 3.5
        assert cfg.guidance_coarse == 2
        assert cfg.train.learning_rate == 0.01
        assert cfg.train.stage_weights == (0.0, 0.0, 0.0, 1.0)
        assert cfg.fusion.dynamic is False

    def test_unknown_key_lists_valid(self):
        with pytest.raises(ParameterError, match="valid keys"):
            parse_config_text("[train]\nlearningrate = 0.1\n")

    def test_stage_scales_is_not_a_key(self):
        # the ladder is geometry.STAGE_SCALES; the config cannot restate it
        with pytest.raises(ParameterError, match="unknown key 'stage_scales'"):
            parse_config_text("[pipeline]\nstage_scales = 8 4 2 1\n")

    def test_unknown_section_rejected(self):
        with pytest.raises(ParameterError, match="valid sections"):
            parse_config_text("[optimizer]\nlr = 1\n")

    def test_bad_value_rejected(self):
        with pytest.raises(ParameterError):
            parse_config_text("[train]\nlearning_rate = fast\n")

    def test_schedule_validation(self):
        with pytest.raises(ParameterError):
            parse_config_text("[pipeline]\ndepths = 8 8 4\n")
        with pytest.raises(ParameterError):
            parse_config_text("[pipeline]\ndepths = 8 8 4 6\n")
        with pytest.raises(ParameterError):
            parse_config_text("[pipeline]\ngroups = 7 8 4 4\n")
        with pytest.raises(ParameterError):
            parse_config_text("[pipeline]\ntemperature = 0\n")

    def test_load_from_file(self, tmp_path):
        path = tmp_path / "run.cfg"
        path.write_text("[pipeline]\nseed = 7\n")
        assert load_config(path).seed == 7

    def test_eval_norm_choices(self):
        assert parse_config_text("[pipeline]\neval_norm = running\n").eval_norm == "running"
        with pytest.raises(ParameterError):
            parse_config_text("[pipeline]\neval_norm = layer\n")


class TestCli:
    def test_selftest_exits_zero(self, capsys):
        assert main(["selftest"]) == 0
        out = capsys.readouterr().out
        assert "FAIL" not in out

    def test_selftest_failing_stage_returns_two(self, capsys, monkeypatch):
        def broken(*args, **kwargs):
            raise RuntimeError("injected fusion failure")

        monkeypatch.setattr(fusion, "fuse", broken)
        assert main(["selftest"]) == 2
        assert "FAIL fuse" in capsys.readouterr().out

    def test_gradcheck_subset(self, capsys):
        assert main(["gradcheck", "--ops", "add,relu,softmax_axis"]) == 0
        out = capsys.readouterr().out
        assert "softmax_axis" in out

    def test_gradcheck_unknown_op_is_validation_error(self):
        assert main(["gradcheck", "--ops", "warp_drive"]) == 2

    def test_eval_cloud_identical_files(self, tmp_path, capsys, rng):
        pts = rng.uniform(-1, 1, (50, 3))
        a = tmp_path / "a.ply"
        b = tmp_path / "b.ply"
        formats.write_ply(a, pts)
        formats.write_ply(b, pts)
        assert main(["eval-cloud", "--recon", str(a), "--gt", str(b),
                     "--tau", "0.5"]) == 0
        out = capsys.readouterr().out
        assert "precision" in out and "100.0000" in out
        assert "overall" in out

    @pytest.mark.parametrize("cap", ["nan", "inf"])
    def test_eval_cloud_non_finite_cap_returns_two(self, tmp_path, rng, cap):
        path = tmp_path / "a.ply"
        formats.write_ply(path, rng.uniform(-1, 1, (50, 3)))
        assert main(["eval-cloud", "--recon", str(path), "--gt", str(path),
                     "--cap", cap]) == 2

    def test_eval_depth_writes_inside_out_dir(self, tmp_path, capsys, rng):
        gt = rng.uniform(1, 9, (8, 8)).astype(np.float32)
        pred = gt + 0.5
        gt_path = tmp_path / "gt.pfm"
        pred_path = tmp_path / "pred.pfm"
        formats.write_pfm(gt_path, gt)
        formats.write_pfm(pred_path, pred)
        out_dir = tmp_path / "report"
        assert main(["eval-depth", "--pred", str(pred_path), "--gt", str(gt_path),
                     "--out", str(out_dir)]) == 0
        assert (out_dir / "depth_report.csv").exists()

    def test_synth_requires_out(self, capsys):
        assert main(["synth"]) == 2

    def test_default_config_prints(self, capsys):
        assert main(["default-config"]) == 0
        out = capsys.readouterr().out
        assert "[pipeline]" in out and "[fusion]" in out

    def test_unknown_config_key_returns_two(self, tmp_path):
        cfg = tmp_path / "bad.cfg"
        cfg.write_text("[pipeline]\nnot_a_key = 1\n")
        assert main(["selftest", "--config", str(cfg)]) == 2

    def test_end_to_end_synth_infer_fuse(self, tmp_path):
        data = tmp_path / "data"
        cfg = tmp_path / "run.cfg"
        cfg.write_text(
            "[synth]\nscenes = 1\nviews = 3\nheight = 16\nwidth = 24\n"
            "[train]\nviews = 3\n"
        )
        assert main(["synth", "--config", str(cfg), "--out", str(data),
                     "--seed", "5"]) == 0
        depth_out = tmp_path / "depths"
        assert main(["infer", "--config", str(cfg), "--data", str(data),
                     "--out", str(depth_out)]) == 0
        assert (depth_out / "scene_0000" / "0000_depth.pfm").exists()
        assert (depth_out / "scene_0000" / "0002_conf.pfm").exists()
        cloud_out = tmp_path / "clouds"
        assert main(["fuse", "--config", str(cfg), "--data", str(data),
                     "--depths", str(depth_out), "--out", str(cloud_out)]) == 0
        assert (cloud_out / "scene_0000.ply").exists()
