"""Fuzz every file reader: a mutated valid file is read or ends in DataError.

Each reader starts from a small valid file of its format. Every offset
gets a truncation and 0x7FFFFFFF, the value of a corrupt size field,
written over four bytes; then a derandomized hypothesis search applies
one to three mutations: those two, flipped bytes and inserted tokens (nan,
-1, huge integers, bytes that are not UTF-8). Any exception other than
DataError, a MemoryError included, fails.
"""

import numpy as np
import pytest
from hypothesis import HealthCheck, given, settings
from hypothesis import strategies as st

from octcomplete import data as dt
from octcomplete import fileio
from octcomplete.octree import PointSet, build_octree

TOKENS = [b"nan", b"-1", b"4294967296", b"99999999999999999999999", b"\xff\xfe\x80"]
SIZE_FIELD = (0x7FFFFFFF).to_bytes(4, "little")


READERS = {
    "checkpoint": fileio.load_checkpoint,
    "octree": fileio.load_octree,
    "ply": fileio.read_ply,
    "xyz": fileio.read_xyz,
    "sgrid": fileio.load_sgrid,
    "manifest": fileio.read_manifest,
    "config": fileio.read_config,
}


def write_valid_files(root):
    """reader name -> path of a small valid file of the reader's format."""
    shape = dt.make_shape("box", density=300, seed=1)
    pts = PointSet(shape.positions[:6], shape.normals[:6], np.arange(6, dtype=np.int32))
    paths = {name: root / name for name in READERS}
    arrays = {"w": np.arange(6, dtype=np.float32).reshape(2, 3), "b": np.ones(3, np.float32)}
    fileio.save_checkpoint(paths["checkpoint"], arrays, "net.c0=4\n", 1)
    fileio.save_octree(paths["octree"], build_octree(pts, 3))
    fileio.write_ply(paths["ply"], pts)
    fileio.write_xyz(paths["xyz"], pts)
    fileio.save_sgrid(paths["sgrid"], np.array([[[0, 0], [1, -1]], [[2, 2], [2, -1]]]))
    fileio.write_manifest(paths["manifest"], [
        {"partial": "a.ply", "complete": "b.ply", "grid": None, "seed": 3},
        {"partial": "c.ply", "complete": "d.ply", "grid": "e.sgrid", "seed": 4},
    ])
    fileio.write_config(paths["config"], {"net.c0": "4", "train.lr": "0.01"})
    return paths


@pytest.fixture(scope="module")
def valid_files(tmp_path_factory):
    return write_valid_files(tmp_path_factory.mktemp("valid"))


def mutate(raw, draw):
    """Apply one to three mutations, each drawn with its position in the
    bytes as they stand."""
    raw = bytearray(raw)
    for _ in range(draw(st.integers(1, 3))):
        kind = draw(st.sampled_from(["truncate", "flip", "insert", "size_field"]))
        pos = draw(st.integers(0, len(raw)))
        if kind == "truncate":
            del raw[pos:]
        elif kind == "flip" and pos < len(raw):
            raw[pos] ^= draw(st.integers(1, 255))
        elif kind == "insert":
            raw[pos:pos] = draw(st.sampled_from(TOKENS))
        elif kind == "size_field":
            raw[pos : pos + 4] = SIZE_FIELD
    return bytes(raw)


def read_or_data_error(name, path):
    try:
        READERS[name](path)
    except fileio.DataError:
        pass


def test_valid_files_read(valid_files):
    for name, path in valid_files.items():
        READERS[name](path)


@pytest.mark.parametrize("name", sorted(READERS))
def test_every_truncation_and_size_field_reads_or_raises_data_error(valid_files, tmp_path, name):
    """One mutation at every offset: the file cut there, or 0x7FFFFFFF
    written over the four bytes from there."""
    raw = valid_files[name].read_bytes()
    path = tmp_path / f"mutated-{name}"
    for pos in range(len(raw)):
        for mutated in (raw[:pos], raw[:pos] + SIZE_FIELD + raw[pos + 4 :]):
            path.write_bytes(mutated)
            read_or_data_error(name, path)


@pytest.mark.parametrize("name", sorted(READERS))
@settings(
    max_examples=60,
    derandomize=True,
    deadline=None,
    database=None,
    suppress_health_check=[HealthCheck.function_scoped_fixture],
)
@given(data=st.data())
def test_mutated_file_reads_or_raises_data_error(valid_files, tmp_path, name, data):
    path = tmp_path / f"mutated-{name}"
    path.write_bytes(mutate(valid_files[name].read_bytes(), data.draw))
    read_or_data_error(name, path)
