"""Every file reader returns a value or raises ParseError, whatever bytes it is given."""

import numpy as np
import pytest
from hypothesis import HealthCheck, given, settings, strategies as st

from conftest import make_camera
from minimvs import formats
from minimvs.checkpoint import load_checkpoint, save_checkpoint
from minimvs.errors import ParseError
from minimvs.formats import read_camera, read_pair_file, write_camera

# tokens that push a number field out of its range
TOKENS = [b"-1", b"0", b"nan", b"inf", b"1e999", b"99999999999", b"x", b"\xff", b" ", b"\n"]


def _write_pair(path):
    path.write_bytes(b"3\n0 2 1 1.0 2 0.5\n1 1 0 1.0\n2 2 1 0.3 0 0.2\n")


def _write_ascii_ply(path):
    path.write_bytes(b"ply\nformat ascii 1.0\nelement vertex 2\n"
                     b"property float x\nproperty float y\nproperty float z\n"
                     b"property uchar red\nproperty uchar green\nproperty uchar blue\n"
                     b"end_header\n0 0 0 255 255 255\n1.5 -2.25 8 0 128 255\n")


WRITERS = {
    "pfm": (formats.read_pfm, lambda p: formats.write_pfm(p, np.arange(12.0).reshape(3, 4))),
    "ppm": (formats.read_ppm, lambda p: formats.write_ppm(p, np.full((3, 2, 3), 0.5))),
    "ply": (formats.read_ply, lambda p: formats.write_ply(p, np.arange(12.0).reshape(4, 3))),
    "ascii-ply": (formats.read_ply, _write_ascii_ply),
    "pair": (read_pair_file, _write_pair),
    "camera": (read_camera, lambda p: write_camera(p, make_camera())),
    "checkpoint": (load_checkpoint, lambda p: save_checkpoint(
        p, {"conv.weight": np.ones((2, 1, 3)), "conv.bias": np.zeros(2)})),
}


@pytest.fixture(scope="module")
def valid_files(tmp_path_factory):
    root = tmp_path_factory.mktemp("valid")
    blobs = {}
    for name, (reader, write) in WRITERS.items():
        path = root / name
        write(path)
        reader(str(path))  # the seed file itself parses
        blobs[name] = path.read_bytes()
    return blobs


@pytest.fixture(scope="module")
def scratch(tmp_path_factory):
    return tmp_path_factory.mktemp("fuzz") / "input"


def _read(name, path, blob):
    path.write_bytes(blob)
    try:
        WRITERS[name][0](str(path))
    except ParseError:
        pass


@st.composite
def mutations(draw, blob):
    data = bytearray(blob)
    for _ in range(draw(st.integers(1, 4))):
        at = draw(st.integers(0, len(data)))
        op = draw(st.sampled_from(["set", "insert", "token", "delete", "truncate"]))
        if op == "set" and at < len(data):
            data[at] = draw(st.integers(0, 255))
        elif op == "insert":
            data[at:at] = draw(st.binary(min_size=1, max_size=8))
        elif op == "token":
            data[at:at + draw(st.integers(0, 3))] = draw(st.sampled_from(TOKENS))
        elif op == "delete":
            del data[at:at + draw(st.integers(1, 8))]
        else:
            del data[at:]
    return bytes(data)


FUZZ = settings(max_examples=40, deadline=None, derandomize=True,
                suppress_health_check=[HealthCheck.function_scoped_fixture])


@pytest.mark.parametrize("name", sorted(WRITERS))
@FUZZ
@given(blob=st.binary(max_size=64))
def test_any_bytes(scratch, name, blob):
    _read(name, scratch, blob)


@pytest.mark.parametrize("name", sorted(WRITERS))
@FUZZ
@given(data=st.data())
def test_mutated_valid_file(valid_files, scratch, name, data):
    _read(name, scratch, data.draw(mutations(valid_files[name])))
