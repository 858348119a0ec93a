"""File formats, the config parser, and the command-line surface."""

import math
import os
import subprocess
import sys

import numpy as np
import pytest

import minimvs
from minimvs import cli, formats, fusion, pipeline, synth
from minimvs.checkpoint import load_checkpoint, save_checkpoint
from minimvs.cli import main
from minimvs.config import (PipelineConfig, default_config_text, load_config,
                            parse_config_text)
from minimvs.errors import ParameterError, ParseError
from minimvs.formats import read_camera, read_pair_file


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
        path.write_bytes(NON_FINITE_PFM)  # payload at byte 12, inf is its first value
        with pytest.raises(ParseError, match="non-finite value at byte 12 "):
            formats.read_pfm(path)

    @pytest.mark.parametrize("scale", [b"nan", b"inf", b"1e999", b"-inf", b"0"])
    def test_scale_must_be_finite_and_nonzero(self, tmp_path, scale):
        """The scale line, at byte 7 here, picks no byte order unless it is a
        finite nonzero number."""
        path = tmp_path / "s.pfm"
        path.write_bytes(b"Pf\n1 1\n" + scale + b"\n" + b"\x00" * 4)
        with pytest.raises(ParseError, match=r"s\.pfm: scale .* at byte 7$"):
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


# written from [[1, nan], [inf, 2]]: rows bottom-up, little-endian float32
NON_FINITE_PFM = (b"Pf\n2 2\n-1.0\n"
                  + np.array([[np.inf, 2.0], [1.0, np.nan]], dtype="<f4").tobytes())


ASCII_PLY = (b"ply\nformat ascii 1.0\nelement vertex 1\n"
             b"property float x\nproperty float y\nproperty float z\n"
             b"property uchar red\nproperty uchar green\nproperty uchar blue\n"
             b"end_header\n0 0 0 255 255 255\n")
NAN_BINARY_PLY = (ASCII_PLY.replace(b"ascii", b"binary_little_endian").split(b"0 0 0")[0]
                  + np.array([0.0, np.nan, 0.0], dtype="<f4").tobytes() + b"\xff\xff\xff")
CAMERA = (b"extrinsic\n1 0 0 0\n0 1 0 0\n0 0 1 0\n0 0 0 1\n\n"
          b"intrinsic\n100 0 12\n0 100 8\n0 0 1\n\n1 10\n")
THREE_COLUMN_CAMERA = (b"extrinsic\n1 0 0\n0 1 0\n0 0 1\n0 0 0\n\n"
                       b"intrinsic\n100 0 12\n0 100 8\n0 0 1\n\n1 10\n")
# magic, version 1, two records; each is name length 1, "w", rank 1, extent 1
# and one f64, 25 bytes, so the second record starts at byte 37
REPEATED_CHECKPOINT = (b"ICGW" + np.array([1, 2], dtype="<u4").tobytes()
                       + 2 * (b"\x01\x00\x00\x00w\x01\x00\x00\x00"
                              + np.array([1], dtype="<u8").tobytes() + np.zeros(1).tobytes()))


def test_camera_fixture_is_valid(tmp_path):
    path = tmp_path / "cam.txt"
    path.write_bytes(CAMERA)
    assert read_camera(str(path)).depth_max == 10.0


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
    ("pair.txt", b"2\n0 1 0 1.0\n1 1 0 1.0\n", read_pair_file),
    ("pair.txt", b"3\n0 2 1 1.0 1 0.5\n1 1 0 1.0\n2 1 0 1.0\n", read_pair_file),
    ("nan.pfm", NON_FINITE_PFM, formats.read_pfm),
    ("pair.txt", b"2\n0 1 1 1.0\n1 1 0 \xff\n", read_pair_file),
    ("pair.txt", b"99999999999\n0 0\n", read_pair_file),
    ("pair.txt", b"2\n0 0\n1 1 0 1.0\n", read_pair_file),
    ("pair.txt", b"2\n0 1 1 nan\n1 1 0 1.0\n", read_pair_file),
    ("c.ply", ASCII_PLY.replace(b"vertex 1", b"vertex abc"), formats.read_ply),
    ("c.ply", ASCII_PLY.replace(b"format ascii 1.0", b"format"), formats.read_ply),
    ("c.ply", ASCII_PLY.replace(b"property float x", b"property float"), formats.read_ply),
    ("c.ply", ASCII_PLY.replace(b"vertex 1", b"vertex -1"), formats.read_ply),
    ("c.ply", ASCII_PLY.replace(b"0 0 0 255", b"0 nan 0 255"), formats.read_ply),
    ("c.ply", ASCII_PLY.replace(b"0 0 0 255", b"0 x 0 255"), formats.read_ply),
    ("c.ply", NAN_BINARY_PLY, formats.read_ply),
    ("i.ppm", b"P6\n-2 2\n255\n" + b"\x00" * 12, formats.read_ppm),
    ("cam.txt", THREE_COLUMN_CAMERA, read_camera),
    ("cam.txt", CAMERA.replace(b"0 0 1 0\n", b"0 0 1 nan\n"), read_camera),
    ("cam.txt", CAMERA.replace(b"1 10", b"1 inf"), read_camera),
    ("cam.txt", CAMERA.replace(b"100 0 12", b"100 \xff 12"), read_camera),
    ("w.bin", REPEATED_CHECKPOINT, load_checkpoint),
], ids=["pfm-negative-dims", "pair-truncated", "pair-non-integer", "pair-empty",
        "pair-reference-out-of-range", "pair-missing-reference", "pair-source-out-of-range",
        "pair-source-negative", "pair-negative-view-count", "pair-negative-source-count",
        "pair-self-source", "pair-duplicate-source", "pfm-non-finite", "pair-not-utf8",
        "pair-view-count-beyond-file", "pair-zero-sources", "pair-nan-score", "ply-vertex-count-not-integer", "ply-format-no-value",
        "ply-property-no-name", "ply-negative-vertex-count", "ply-ascii-nan",
        "ply-ascii-not-a-number", "ply-binary-nan", "ppm-negative-dims",
        "camera-three-columns", "camera-nan-translation", "camera-inf-depth-max",
        "camera-not-utf8", "checkpoint-repeated-name"])
def test_malformed_input_raises_parse_error(tmp_path, name, blob, reader):
    path = tmp_path / name
    path.write_bytes(blob)
    with pytest.raises(ParseError):
        reader(str(path))


class TestCheckpointInput:
    def test_nan_payload(self, tmp_path):
        path = tmp_path / "bad.bin"
        save_checkpoint(path, {"w": np.array([1.0, np.nan])})
        # payload at byte 29: magic 4, version and count 8, name 4 + 1, rank 4, extent 8
        with pytest.raises(ParseError, match="non-finite value in 'w' at byte 37"):
            load_checkpoint(str(path))

    def test_name_not_utf8(self, tmp_path):
        path = tmp_path / "bad.bin"
        save_checkpoint(path, {"w": np.zeros(2)})
        blob = path.read_bytes()
        path.write_bytes(blob[:16] + b"\xff" + blob[17:])  # the name is byte 16
        with pytest.raises(ParseError, match="malformed record at byte 12 .*utf-8"):
            load_checkpoint(str(path))

    def test_repeated_name(self, tmp_path):
        path = tmp_path / "w.bin"
        path.write_bytes(REPEATED_CHECKPOINT)
        with pytest.raises(ParseError, match="repeated record 'w' at byte 37"):
            load_checkpoint(str(path))


# one size past config.MAX_SIZE per key that sizes an allocation; the groups
# case scales the feature channels too, so only the bound can reject it
OVERSIZED = [
    ("pipeline", "depths", "4100 8 4 4"),
    ("pipeline", "groups", "8192 8 4 4\nfeature_channels = 8192 16 8 8"),
    ("pipeline", "feature_channels", "8192 16 8 8"),
    ("pipeline", "regularizer_base", "5000"),
    ("synth", "height", "800000"),
    ("synth", "width", "8192"),
    ("synth", "views", "5000"),
    ("synth", "scenes", "5000"),
    ("train", "views", "5000"),
    ("train", "batch_size", "5000"),
]


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

    @pytest.mark.parametrize("depths, stage", [("4 16 4 4", 1), ("8 8 32 4", 2),
                                               ("4 4 12 28", 3)])
    def test_hypothesis_window_fits_the_depth_range(self, depths, stage):
        with pytest.raises(ParameterError, match=f"^pipeline.depths: stage {stage}'s"):
            parse_config_text(f"[pipeline]\ndepths = {depths}\n")

    def test_widest_hypothesis_windows_validate(self):
        assert parse_config_text("[pipeline]\ndepths = 4 4 12 24\n").depths == (4, 4, 12, 24)

    def test_load_from_file(self, tmp_path):
        path = tmp_path / "run.cfg"
        path.write_text("[pipeline]\nseed = 7\n")
        assert load_config(path).seed == 7

    def test_file_not_utf8(self, tmp_path):
        path = tmp_path / "run.cfg"
        path.write_bytes(b"[pipeline]\nseed = \xff\n")
        with pytest.raises(ParseError, match="not UTF-8 at byte 18"):
            load_config(path)

    @pytest.mark.parametrize("text", [
        "[pipeline]\ndepths = inf 8 4 4\n",
        "[pipeline]\ntemperature = nan\n",
        "[train]\nlearning_rate = nan\n",
        "[fusion]\npixel_threshold = nan\n",
        "[fusion]\ndepth_threshold = nan\n",
        "[synth]\nradius = nan\n",
        "[synth]\nradius = 1e999\n",
    ], ids=["depths-inf", "temperature", "learning-rate", "pixel-threshold",
            "depth-threshold", "radius", "radius-overflow"])
    def test_non_finite_value_rejected(self, text):
        with pytest.raises(ParameterError, match="non-finite"):
            parse_config_text(text)

    @pytest.mark.parametrize("section, key, value", OVERSIZED,
                             ids=[f"{section}.{key}" for section, key, _ in OVERSIZED])
    def test_allocating_size_is_bounded(self, section, key, value):
        name = key if section == "pipeline" else f"{section}.{key}"
        with pytest.raises(ParameterError, match=f"^{name} must be at most 4096"):
            parse_config_text(f"[{section}]\n{key} = {value}\n")

    @pytest.mark.parametrize("value", ["1e300 8 4 4", "8.0 8 4 4", "1" + "0" * 300 + " 8 4 4"],
                             ids=["exponent", "decimal-point", "301-digits"])
    def test_integer_keys_take_integers(self, value):
        with pytest.raises(ParameterError, match="bad value|at most 4096"):
            parse_config_text(f"[pipeline]\ndepths = {value}\n")

    def test_bad_value_names_file_and_line(self, tmp_path):
        path = tmp_path / "run.cfg"
        path.write_text("[train]\n\nepochs = x\n")
        with pytest.raises(ParameterError, match=f"{path}:3: bad value 'x' for key 'epochs'"):
            load_config(path)

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
        assert main(["gradcheck", "--ops", "add,clamp_min,softmax_axis"]) == 0
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

    def test_eval_depth_size_mismatch_names_both_files(self, tmp_path, capsys):
        pred, gt = tmp_path / "pred.pfm", tmp_path / "gt.pfm"
        formats.write_pfm(pred, np.ones((8, 8)))
        formats.write_pfm(gt, np.ones((4, 4)))
        assert main(["eval-depth", "--pred", str(pred), "--gt", str(gt)]) == 2
        assert f"{pred}: depth map is 8x8, the ground truth {gt} is 4x4" in (
            capsys.readouterr().err)

    @pytest.mark.parametrize("empty", ["recon", "gt"])
    def test_eval_cloud_empty_cloud_names_the_file(self, tmp_path, capsys, rng, empty):
        paths = {name: tmp_path / f"{name}.ply" for name in ("recon", "gt")}
        for name, path in paths.items():
            formats.write_ply(path, np.zeros((0, 3)) if name == empty
                              else rng.uniform(-1, 1, (20, 3)))
        assert main(["eval-cloud", "--recon", str(paths["recon"]),
                     "--gt", str(paths["gt"])]) == 2
        assert f"{paths[empty]}: the cloud has no points" in capsys.readouterr().err

    def test_synth_requires_out(self, capsys):
        assert main(["synth"]) == 2

    def test_default_config_prints(self, capsys):
        assert main(["default-config"]) == 0
        out = capsys.readouterr().out
        assert "[pipeline]" in out and "[fusion]" in out

    def test_config_is_read_once(self, tmp_path):
        """A config piped on stdin can be read only once; all of it must apply."""
        out = tmp_path / "data"
        done = subprocess.run(
            [sys.executable, "-m", "minimvs", "synth", "--config", "/dev/stdin",
             "--out", str(out)],
            input=b"[synth]\nscenes = 1\nviews = 3\nheight = 32\nwidth = 40\n",
            env=dict(os.environ, PYTHONPATH=os.path.dirname(os.path.dirname(minimvs.__file__))),
            capture_output=True,
        )
        assert done.returncode == 0, done.stderr.decode()
        assert os.listdir(out) == ["scene_0000"]

    @pytest.mark.parametrize("argv, config", [
        (["--seed", "-1"], None),
        ([], "[pipeline]\nseed = -3\n"),
        ([], "[train]\nseed = -3\n"),
    ], ids=["flag", "pipeline-seed", "train-seed"])
    def test_negative_seed_returns_two(self, tmp_path, capsys, argv, config):
        out = tmp_path / "data"
        if config is not None:
            (tmp_path / "run.cfg").write_text(config)
            argv = argv + ["--config", str(tmp_path / "run.cfg")]
        assert main(["synth", "--out", str(out)] + argv) == 2
        assert "seed must be >= 0" in capsys.readouterr().err
        assert not out.exists()

    def test_batch_that_never_fills_returns_two(self, tmp_path, capsys):
        data = tmp_path / "data"
        out = tmp_path / "out"
        synth.make_dataset(str(data), 1, 3, 16, 24, seed=5, style="plane")
        cfg = tmp_path / "run.cfg"
        cfg.write_text("[train]\nviews = 3\nbatch_size = 4\n")
        assert main(["train", "--config", str(cfg), "--data", str(data),
                     "--out", str(out)]) == 2
        assert "3 training samples never fill a batch of train.batch_size = 4" in (
            capsys.readouterr().err)
        assert os.listdir(out) == []

    @pytest.mark.parametrize("command", ["infer", "train"])
    def test_mixed_image_sizes_return_two(self, tmp_path, capsys, command):
        """A scene whose images differ in size is refused before any work, naming the file."""
        data = tmp_path / "data"
        out = tmp_path / "out"
        synth.make_dataset(str(data), 1, 3, 32, 40, seed=5, style="plane")
        image = data / "scene_0000" / "images" / "0001.ppm"
        formats.write_ppm(image, formats.read_ppm(image)[:, :16, :24])
        assert main([command, "--data", str(data), "--out", str(out)]) == 2
        err = capsys.readouterr().err
        assert f"{image}: image is 16x24, the scene's first image is 32x40" in err
        assert os.listdir(out) == []

    def test_failed_first_forward_leaves_out_empty(self, tmp_path, capsys):
        """A scene's directory is made just before its first map is written, so
        a resolution off the stage ladder leaves --out empty."""
        data = tmp_path / "data"
        out = tmp_path / "out"
        synth.make_dataset(str(data), 1, 3, 32, 40, seed=5, style="plane")
        for path in sorted((data / "scene_0000" / "images").iterdir()):
            image = formats.read_ppm(path)
            formats.write_ppm(path, np.concatenate([image, image[:, :4]], axis=1))
        assert main(["infer", "--data", str(data), "--out", str(out)]) == 2
        assert "input resolution must be divisible by 8, got 36x40" in capsys.readouterr().err
        assert os.listdir(out) == []

    @pytest.mark.parametrize("command", ["infer", "train"])
    def test_gap_in_view_ids_returns_two(self, tmp_path, capsys, command):
        """Views are counted by position, so ids must run 0000..N-1; a gap names the file."""
        data = tmp_path / "data"
        out = tmp_path / "out"
        synth.make_dataset(str(data), 1, 3, 16, 24, seed=5, style="plane")
        scene = data / "scene_0000"
        for old, new in (("images/0002.ppm", "images/0005.ppm"),
                         ("cams/0002_cam.txt", "cams/0005_cam.txt"),
                         ("depths/0002.pfm", "depths/0005.pfm")):
            os.rename(scene / old, scene / new)
        assert main([command, "--data", str(data), "--out", str(out)]) == 2
        err = capsys.readouterr().err
        assert f"{scene / 'images' / '0005.ppm'}: view ids must run 0000 to 0002" in err
        assert os.listdir(out) == []

    def test_view_without_ground_truth_trains(self, tmp_path):
        """A sample whose depth map is all 0 adds a zero loss and no gradient."""
        data = tmp_path / "data"
        out = tmp_path / "out"
        synth.make_dataset(str(data), 1, 3, 16, 24, seed=5, style="plane")
        formats.write_pfm(data / "scene_0000" / "depths" / "0001.pfm", np.zeros((16, 24)))
        cfg = tmp_path / "run.cfg"
        cfg.write_text("[train]\nviews = 3\nepochs = 1\n")
        assert main(["train", "--config", str(cfg), "--data", str(data),
                     "--out", str(out)]) == 0
        rows = (out / "loss_trace.csv").read_text().splitlines()[1:]
        totals = [float(row.split(",")[-1]) for row in rows]
        assert len(totals) == 3 and all(math.isfinite(t) for t in totals)
        assert sorted(totals)[0] == 0.0 < sorted(totals)[1]

    @pytest.mark.parametrize("kind", ["depth", "conf"])
    def test_fuse_wrong_size_map_returns_two(self, tmp_path, capsys, kind):
        """A depth or confidence map whose size differs from its image is refused, naming it."""
        data = tmp_path / "data"
        synth.make_dataset(str(data), 1, 3, 32, 40, seed=5, style="plane")
        maps = tmp_path / "depths" / "scene_0000"
        maps.mkdir(parents=True)
        for v in range(3):
            formats.write_pfm(maps / f"{v:04d}_depth.pfm",
                              formats.read_pfm(data / "scene_0000" / "depths" / f"{v:04d}.pfm"))
            formats.write_pfm(maps / f"{v:04d}_conf.pfm", np.ones((32, 40)))
        bad = maps / f"0001_{kind}.pfm"
        formats.write_pfm(bad, formats.read_pfm(bad)[::2, ::2])
        out = tmp_path / "clouds"
        assert main(["fuse", "--data", str(data), "--depths", str(maps.parent),
                     "--out", str(out)]) == 2
        err = capsys.readouterr().err
        assert f"{bad}: map is 16x20, its image is 32x40" in err and "Traceback" not in err
        assert os.listdir(out) == []

    @pytest.mark.parametrize("value", ["0", "-1", "abc"])
    def test_bad_thread_count_returns_two(self, monkeypatch, capsys, value):
        """--threads below 1 (or not a number) exits 2 and exports no BLAS thread variable."""
        for var in ("OPENBLAS_NUM_THREADS", "OMP_NUM_THREADS",
                    "MKL_NUM_THREADS", "NUMEXPR_NUM_THREADS"):
            monkeypatch.delenv(var, raising=False)
        before = dict(os.environ)
        argv = ["default-config", "--threads", value]
        cli._apply_thread_env(["minimvs", *argv])
        assert dict(os.environ) == before
        if value == "abc":
            with pytest.raises(SystemExit) as exc:  # argparse's usage error
                main(argv)
            assert exc.value.code == 2
        else:
            assert main(argv) == 2
            assert f"--threads must be >= 1, got {value}" in capsys.readouterr().err

    def test_unknown_config_key_returns_two(self, tmp_path):
        cfg = tmp_path / "bad.cfg"
        cfg.write_text("[pipeline]\nnot_a_key = 1\n")
        assert main(["selftest", "--config", str(cfg)]) == 2

    @pytest.mark.parametrize("bad", ["config", "ply", "camera", "checkpoint"])
    def test_bad_input_file_returns_two(self, tmp_path, capsys, bad):
        path = tmp_path / "bad"
        data = tmp_path / "data"
        out = str(tmp_path / "out")
        if bad in ("camera", "checkpoint"):
            synth.make_dataset(str(data), 1, 3, 16, 24, seed=5, style="plane")
        if bad == "config":
            path.write_text("[pipeline]\ntemperature = nan\n")
            argv = ["default-config", "--config", str(path)]
        elif bad == "ply":
            path.write_bytes(NAN_BINARY_PLY)
            argv = ["eval-cloud", "--recon", str(path), "--gt", str(path)]
        elif bad == "camera":
            path = data / "scene_0000" / "cams" / "0001_cam.txt"
            path.write_bytes(THREE_COLUMN_CAMERA)
            argv = ["infer", "--data", str(data), "--out", out]
        else:
            state = pipeline.build_network(PipelineConfig()).state_dict()
            state["features.enc0.conv.weight"][0, 0, 0, 0] = np.nan
            save_checkpoint(path, state)
            argv = ["infer", "--data", str(data), "--checkpoint", str(path), "--out", out]
        assert main(argv) == 2
        err = capsys.readouterr().err
        assert ("non-finite value 'nan'" if bad == "config" else str(path)) in err

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
