"""Every writer's bytes, pinned by sha256 for fixed inputs; whole-file writes;
missing inputs at the command line."""

import hashlib
import os

import numpy as np
import pytest

from conftest import make_camera
from minimvs import formats, synth, training
from minimvs import tensor as T
from minimvs.checkpoint import save_checkpoint
from minimvs.cli import main
from minimvs.config import PipelineConfig
from minimvs.pipeline import load_dataset
from minimvs.tensor import Tensor
from test_pipeline import UNTRAINED_SHA256

# every input is a dyadic rational, so the bytes are the same on every machine
PAIRS = [[(1, 0.75), (2, 0.5)], [(0, 1.0)], [(1, 0.25), (0, 0.125)]]
CHECKPOINT = {"conv.weight": np.arange(6.0).reshape(2, 1, 3) / 8, "conv.bias": np.array([-1.5, 2.0])}

WRITERS = {
    "pfm": lambda p: formats.write_pfm(p, np.arange(12.0).reshape(3, 4) / 4),
    "ppm": lambda p: formats.write_ppm(p, np.arange(60.0).reshape(3, 4, 5) / 64),
    "ply": lambda p: formats.write_ply(p, np.arange(12.0).reshape(4, 3) / 8,
                                       np.arange(12.0).reshape(4, 3) / 16),
    "camera": lambda p: formats.write_camera(p, make_camera(t=[0.5, -0.25, 2.0])),
    "pair": lambda p: formats.write_pair_file(p, PAIRS),
    "checkpoint": lambda p: save_checkpoint(p, CHECKPOINT),
}

DIGESTS = {
    "pfm": "1025f3eb614f4a2693bdcd6493ee738fbcc969eeccb0f5a8f34529134abe0cb6",
    "ppm": "c0ce31e45cd88e8a5812748a0b6567938125cce50255ff5d9f4ca2edf6f8547a",
    "ply": "f85e6361829c58287113fb971bef412dfdee00d03025bf28a0aa551601b9e2ed",
    "camera": "ab14ffc3e53f09c490148f18b997cbefcf62c43b5b5b3a97443dd306562733e2",
    "pair": "271a3228cc1ee80f4e1da6ccb8313347bd45dd8c3b3d9c5ef1cb5b3a1e53cbf7",
    "checkpoint": "82b68020f879b5d157baced26279b25a73ee0cd9445f1ab82c8e01cc23319216",
    "loss_trace": "3e74d8402d52edfcb2a5199e143f88c85b50e8b98e7d07886f7560cf3145674e",
    "depth_report": "57443b666854b2aff33677239eb39fe13688232c0287285c47c95db88a3a796c",
    "cloud_report": "562bcaac42e5d8d863e4e24f160570ceabc306f97aea71410fa80a1217bc98d6",
}


def _sha(path):
    return hashlib.sha256(open(path, "rb").read()).hexdigest()


@pytest.mark.parametrize("name", sorted(WRITERS))
def test_writer_bytes_are_pinned(tmp_path, name):
    path = tmp_path / "out"
    WRITERS[name](path)
    assert _sha(path) == DIGESTS[name]


def _fixed_losses(network, images, cams, gt_depth, valid):
    # stage losses 0.25 .. 1.0 on a graph that reaches one parameter with a
    # zero gradient, so Adam leaves every weight as it was built
    weight = next(iter(network.parameters()))
    zero = T.mul(T.sum_all(weight), 0.0)
    return [T.add(zero, Tensor(0.25 * (s + 1))) for s in range(4)]


def test_loss_trace_bytes_are_pinned(tmp_path, monkeypatch):
    synth.make_dataset(str(tmp_path / "data"), 1, 3, 16, 24, seed=5, style="plane")
    monkeypatch.setattr(training, "stage_losses_for_sample", _fixed_losses)
    cfg = PipelineConfig()
    cfg.train.epochs = 1
    trace, _ = training.train(load_dataset(str(tmp_path / "data")), cfg, str(tmp_path / "run"))
    assert len(trace) == 3
    assert _sha(tmp_path / "run" / "loss_trace.csv") == DIGESTS["loss_trace"]
    assert _sha(tmp_path / "run" / "checkpoint.bin") == UNTRAINED_SHA256


def test_report_bytes_are_pinned(tmp_path, capsys):
    gt, pred = tmp_path / "gt.pfm", tmp_path / "pred.pfm"
    formats.write_pfm(gt, np.full((8, 8), 2.0))
    formats.write_pfm(pred, np.full((8, 8), 2.5))
    assert main(["eval-depth", "--pred", str(pred), "--gt", str(gt),
                 "--out", str(tmp_path / "depth")]) == 0
    grid = np.stack(np.meshgrid(np.arange(4.0), np.arange(4.0), [0.0]), -1).reshape(-1, 3)
    recon, ref = tmp_path / "recon.ply", tmp_path / "gt.ply"
    formats.write_ply(recon, grid)
    formats.write_ply(ref, grid + [0.5, 0.0, 0.0])
    assert main(["eval-cloud", "--recon", str(recon), "--gt", str(ref), "--tau", "1",
                 "--out", str(tmp_path / "cloud")]) == 0
    assert _sha(tmp_path / "depth" / "depth_report.csv") == DIGESTS["depth_report"]
    assert _sha(tmp_path / "cloud" / "cloud_report.csv") == DIGESTS["cloud_report"]


# the loss trace and the report CSVs are text handed to write_file
WRITES = {**WRITERS, "text": lambda p: formats.write_file(p, "iteration,total\r\n0,2.5\r\n")}


def _fail_rename(*args):
    raise OSError(28, "No space left on device")


class _HalfWrite:
    """A file that takes half of what it is given, then reports a full disk."""

    def __init__(self, fh):
        self.fh = fh

    def __enter__(self):
        return self

    def __exit__(self, *exc):
        self.fh.close()

    def write(self, data):
        self.fh.write(data[: len(data) // 2])
        raise OSError(28, "No space left on device")


def _half_open(path, mode="r", *args, **kwargs):
    fh = open(path, mode, *args, **kwargs)
    return _HalfWrite(fh) if "w" in mode else fh


@pytest.mark.parametrize("previous", [b"previous bytes\n", None], ids=["over-a-file", "fresh"])
@pytest.mark.parametrize("fault", ["rename", "write"])
@pytest.mark.parametrize("name", sorted(WRITES))
def test_failed_write_keeps_the_previous_file(tmp_path, monkeypatch, name, fault, previous):
    path = tmp_path / "out.ppm"
    if previous is not None:
        path.write_bytes(previous)
    if fault == "rename":
        monkeypatch.setattr(os, "replace", _fail_rename)
    else:
        monkeypatch.setattr(formats, "open", _half_open, raising=False)
    with pytest.raises(OSError, match="No space left"):
        WRITES[name](path)
    monkeypatch.undo()
    if previous is None:
        assert os.listdir(tmp_path) == []
    else:
        assert os.listdir(tmp_path) == ["out.ppm"]
        assert path.read_bytes() == previous


def test_write_keeps_the_umask_mode(tmp_path):
    umask = os.umask(0o022)
    try:
        formats.write_file(tmp_path / "a.csv", "x\n")
    finally:
        os.umask(umask)
    assert os.stat(tmp_path / "a.csv").st_mode & 0o777 == 0o644


def _missing_input(tmp_path, case):
    """(argv, the path stderr must name) for one missing or unusable input."""
    missing = str(tmp_path / "missing")
    out = str(tmp_path / "out")
    pfm, ply = tmp_path / "gt.pfm", tmp_path / "gt.ply"
    formats.write_pfm(pfm, np.ones((8, 8)))
    formats.write_ply(ply, np.zeros((1, 3)))
    if case == "eval-depth-pred":
        return ["eval-depth", "--pred", missing + ".pfm", "--gt", str(pfm)], missing + ".pfm"
    if case == "eval-cloud-recon":
        return ["eval-cloud", "--recon", missing + ".ply", "--gt", str(ply)], missing + ".ply"
    if case == "train-config":
        return ["train", "--config", missing + ".cfg", "--out", out], missing + ".cfg"
    if case == "infer-data":
        return ["infer", "--data", missing, "--out", out], missing
    if case == "synth-out-is-a-file":
        return ["synth", "--out", str(pfm)], str(pfm)
    data = tmp_path / "data"
    synth.make_dataset(str(data), 1, 3, 16, 24, seed=5, style="plane")
    if case == "train-missing-gt":
        depth = data / "scene_0000" / "depths" / "0001.pfm"
        depth.unlink()
        return ["train", "--data", str(data), "--out", out], str(depth)
    # a pair file whose view 0 has no source views
    pair = data / "scene_0000" / "pair.txt"
    pair.write_bytes(b"3\n0\n0\n1\n1 0 1.0\n2\n1 0 1.0\n")
    return ["infer", "--data", str(data), "--out", out], str(pair)


@pytest.mark.parametrize("case", ["eval-depth-pred", "eval-cloud-recon", "train-config",
                                  "infer-data", "synth-out-is-a-file", "pair-without-sources",
                                  "train-missing-gt"])
def test_bad_input_exits_two_and_names_the_path(tmp_path, capsys, case):
    argv, named = _missing_input(tmp_path, case)
    assert main(argv) == 2
    err = capsys.readouterr().err
    assert named in err and "Traceback" not in err
