"""Round-trips for every on-disk format."""

import numpy as np
import pytest

from octcomplete import data as dt
from octcomplete import fileio
from octcomplete.octree import MAX_DEPTH, PointSet, build_octree

def random_points(rng, n=50, labels=False):
    nrm = rng.normal(size=(n, 3))
    nrm /= np.linalg.norm(nrm, axis=1, keepdims=True)
    return PointSet(
        positions=rng.random((n, 3)),
        normals=nrm,
        labels=rng.integers(0, 5, size=n).astype(np.int32) if labels else None,
    )


@pytest.mark.parametrize("labels", [False, True])
def test_ply_roundtrip(tmp_path, rng, labels):
    pts = random_points(rng, labels=labels)
    path = tmp_path / "p.ply"
    fileio.write_ply(path, pts)
    back = fileio.read_ply(path)
    assert np.allclose(back.positions, pts.positions, atol=1e-6)
    assert np.allclose(back.normals, pts.normals, atol=1e-6)
    if labels:
        assert np.array_equal(back.labels, pts.labels)
    else:
        assert back.labels is None


@pytest.mark.parametrize("labels", [False, True])
def test_xyz_roundtrip(tmp_path, rng, labels):
    pts = random_points(rng, labels=labels)
    path = tmp_path / "p.xyz"
    fileio.write_xyz(path, pts)
    back = fileio.read_xyz(path)
    assert np.allclose(back.positions, pts.positions, atol=1e-6)
    if labels:
        assert np.array_equal(back.labels, pts.labels)


@pytest.mark.parametrize("fmt", ["xyz", "ply"])
def test_large_and_negative_labels_roundtrip_exactly(tmp_path, rng, fmt):
    """Labels are written as integers: as %.7g, 12345678 read back as
    12345680 and 2**31 - 1 as a label that the reader rejects."""
    xyz = random_points(rng, n=3)
    pts = PointSet(xyz.positions, xyz.normals, np.array([12345678, 2**31 - 1, -1], np.int32))
    path = tmp_path / f"p.{fmt}"
    {"xyz": fileio.write_xyz, "ply": fileio.write_ply}[fmt](path, pts)
    back = fileio.read_points(path)
    assert back.labels.dtype == np.int32
    assert back.labels.tolist() == [12345678, 2**31 - 1, -1]


@pytest.mark.parametrize("labels", [False, True])
@pytest.mark.parametrize("fmt", ["xyz", "ply"])
def test_empty_cloud_roundtrips(tmp_path, fmt, labels):
    """A 0-point cloud reads back as 0 points, with an empty int32 label
    column when it had one."""
    none = np.zeros((0, 3))
    pts = PointSet(none, none, np.zeros(0, np.int32) if labels else None)
    path = tmp_path / f"e.{fmt}"
    {"xyz": fileio.write_xyz, "ply": fileio.write_ply}[fmt](path, pts)
    back = fileio.read_points(path)
    assert back.positions.shape == back.normals.shape == (0, 3)
    if labels:
        assert back.labels.dtype == np.int32 and back.labels.shape == (0,)
    else:
        assert back.labels is None


def test_ply_bad_magic(tmp_path):
    path = tmp_path / "bad.ply"
    path.write_text("not a ply\n")
    with pytest.raises(fileio.DataError):
        fileio.read_ply(path)


PLY_HEADER = (
    "ply\nformat ascii 1.0\nelement vertex {count}\n"
    + "".join(f"property float {p}\n" for p in ("x", "y", "z", "nx", "ny", "nz"))
    + "{extra}end_header\n"
)


@pytest.mark.parametrize(
    "count, extra, body",
    [
        ("1", "", "0.1 abc 0.3 0 0 1\n"),                 # non-numeric token
        ("two", "", "0.1 0.2 0.3 0 0 1\n"),               # non-numeric count
        ("-3", "", "0.1 0.2 0.3 0 0 1\n"),                # negative count
        ("2", "", "0.1 0.2\n0.1 0.2 0.3 0 0 1\n"),        # ragged rows
        ("1", "property int label\n", "0.1 0.2 0.3 0 0 1\n"),  # label column missing
    ],
    ids=["token", "count-word", "count-negative", "ragged", "no-label-column"],
)
def test_malformed_ply_is_data_error(tmp_path, count, extra, body):
    path = tmp_path / "bad.ply"
    path.write_text(PLY_HEADER.format(count=count, extra=extra) + body)
    with pytest.raises(fileio.DataError):
        fileio.read_ply(path)


@pytest.mark.parametrize(
    "body",
    ["0.1 abc 0.3 0 0 1\n", "0.1 0.2 0.3 0 0 1\n0.1 0.2\n", b"\xff\xfe 0.2 0.3 0 0 1\n"],
    ids=["token", "ragged", "undecodable"],
)
def test_malformed_xyz_is_data_error(tmp_path, body):
    path = tmp_path / "bad.xyz"
    if isinstance(body, bytes):
        path.write_bytes(body)
    else:
        path.write_text(body)
    with pytest.raises(fileio.DataError):
        fileio.read_xyz(path)


@pytest.mark.parametrize("label", ["2.5", "nan", "inf", "1e20"])
@pytest.mark.parametrize("fmt", ["xyz", "ply"])
def test_non_integer_label_is_data_error(tmp_path, fmt, label):
    """A label that is not an int32 integer is rejected where it is read;
    it used to cast to 2 (or to -2**31 with a RuntimeWarning) and pass."""
    rows = f"0.1 0.2 0.3 0 0 1 1\n0.4 0.5 0.6 0 0 1 {label}\n"
    path = tmp_path / f"bad.{fmt}"
    if fmt == "ply":
        path.write_text(PLY_HEADER.format(count=2, extra="property int label\n") + rows)
    else:
        path.write_text(rows)
    with pytest.raises(fileio.DataError, match="labels must be integers"):
        fileio.read_points(path)
    path.write_text(path.read_text().replace(label, "3"))
    assert fileio.read_points(path).labels.tolist() == [1, 3]


def test_read_points_dispatch(tmp_path, rng):
    pts = random_points(rng)
    fileio.write_ply(tmp_path / "a.ply", pts)
    fileio.write_xyz(tmp_path / "a.xyz", pts)
    assert len(fileio.read_points(tmp_path / "a.ply")) == 50
    assert len(fileio.read_points(tmp_path / "a.xyz")) == 50


def test_octree_roundtrip(tmp_path, rng):
    pts = random_points(rng, n=300)
    o = build_octree(pts, 4)
    path = tmp_path / "t.octc"
    fileio.save_octree(path, o)
    back = fileio.load_octree(path)
    assert back.depth == o.depth
    for a, b in zip(o.levels, back.levels):
        assert np.array_equal(a.keys, b.keys)
        assert np.array_equal(a.status, b.status)
        assert np.array_equal(a.child_start, b.child_start)
    assert np.array_equal(back.signal, o.signal)


def test_octree_bad_magic(tmp_path):
    path = tmp_path / "bad.octc"
    path.write_bytes(b"NOPE" + b"\0" * 64)
    with pytest.raises(fileio.DataError):
        fileio.load_octree(path)


def small_octree_bytes(tmp_path, rng):
    o = build_octree(random_points(rng, n=40), 3)
    o.signal[:] = rng.normal(size=o.signal.shape)
    path = tmp_path / "s.octc"
    fileio.save_octree(path, o)
    return o, path.read_bytes()


def status_offset(o, level):
    """Byte offset of `level`'s first status byte in a saved container."""
    counts = [lv.num_nodes for lv in o.levels]
    return 16 + 4 * o.depth + 8 * sum(counts) + sum(counts[:level])


def test_octree_truncated_at_every_offset_is_data_error(tmp_path, rng):
    o, raw = small_octree_bytes(tmp_path, rng)
    cut = tmp_path / "cut.octc"
    for size in range(len(raw)):
        cut.write_bytes(raw[:size])
        with pytest.raises(fileio.DataError):
            fileio.load_octree(cut)
    cut.write_bytes(raw + b"\0")
    with pytest.raises(fileio.DataError):
        fileio.load_octree(cut)
    cut.write_bytes(raw)
    assert np.array_equal(fileio.load_octree(cut).signal, o.signal)


# (level, new status byte); at the finest level only a byte other than 0
# and 1 shows, since the finest statuses are what the check builds from
@pytest.mark.parametrize("level,value", [(1, 0), (2, 0), (2, 1), (1, 7), (2, 7), (3, 7)])
def test_octree_status_not_matching_the_finest_level_is_data_error(tmp_path, rng, level, value):
    o, raw = small_octree_bytes(tmp_path, rng)
    st = o.levels[level].status
    # an empty node where there is one: a changed nonempty finest status can
    # change the key arrays the finest level builds, which is another error
    r = min(np.flatnonzero(st != value), key=lambda i: st[i])
    bad = bytearray(raw)
    bad[status_offset(o, level) + r] = value
    path = tmp_path / "bad.octc"
    path.write_bytes(bytes(bad))
    with pytest.raises(fileio.DataError, match="status"):
        fileio.load_octree(path)


def test_octree_depth_beyond_max_is_data_error(tmp_path, rng):
    _, raw = small_octree_bytes(tmp_path, rng)
    bad = bytearray(raw)
    bad[8:12] = (MAX_DEPTH + 1).to_bytes(4, "little")
    path = tmp_path / "deep.octc"
    path.write_bytes(bytes(bad))
    with pytest.raises(fileio.DataError, match="depth"):
        fileio.load_octree(path)


def test_checkpoint_roundtrip_bitwise(tmp_path, rng):
    arrays = {
        "w1": rng.normal(size=(4, 7)).astype(np.float32),
        "opt.w1": rng.normal(size=(4, 7)).astype(np.float32),
        "scalarish": rng.normal(size=(1, 1)).astype(np.float32),
    }
    cfg = "alpha=1\nbeta=two\n"
    path = tmp_path / "c.ockp"
    fileio.save_checkpoint(path, arrays, cfg, epoch=7)
    back = fileio.load_checkpoint(path)
    assert back["epoch"] == 7
    assert back["config_text"] == cfg
    for k, v in arrays.items():
        assert back["arrays"][k].tobytes() == v.tobytes()


def test_checkpoint_hash_guard(tmp_path, rng):
    path = tmp_path / "c.ockp"
    fileio.save_checkpoint(path, {"w": np.ones((2, 2), np.float32)}, "a=1\n", 0)
    raw = bytearray(path.read_bytes())
    # flip a byte inside the stored config text
    raw[-10] ^= 0xFF
    pos = raw.find(b"a=1\n")
    raw[pos] = ord("b")
    path.write_bytes(bytes(raw))
    with pytest.raises(fileio.DataError):
        fileio.load_checkpoint(path)


def test_checkpoint_truncated_at_every_offset_is_data_error(tmp_path, rng):
    path = tmp_path / "c.ockp"
    arrays = {
        "w": rng.normal(size=(2, 3)).astype(np.float32),
        "b": rng.normal(size=(3,)).astype(np.float32),
    }
    # two-byte characters in the config text, so some cuts split one
    fileio.save_checkpoint(path, arrays, "net.c0=4\nlabel=\u00e9t\u00e9\n", 2)
    raw = path.read_bytes()
    cut = tmp_path / "cut.ockp"
    for size in range(len(raw)):
        cut.write_bytes(raw[:size])
        with pytest.raises(fileio.DataError):
            fileio.load_checkpoint(cut)
    cut.write_bytes(raw)
    assert fileio.load_checkpoint(cut)["epoch"] == 2


def test_checkpoint_undecodable_name_is_data_error(tmp_path):
    path = tmp_path / "c.ockp"
    fileio.save_checkpoint(path, {"w": np.ones((2, 2), np.float32)}, "a=1\n", 0)
    raw = bytearray(path.read_bytes())
    raw[raw.rfind(b"w")] = 0xFF  # the tensor name is no longer UTF-8
    path.write_bytes(bytes(raw))
    with pytest.raises(fileio.DataError):
        fileio.load_checkpoint(path)


@pytest.mark.parametrize("field, stored", [(0, 2), (4, 3)], ids=["ndim", "first_dim"])
def test_checkpoint_huge_size_field_is_data_error(tmp_path, field, stored):
    """0x7FFFFFFF in a tensor's ndim or first dimension asks for gigabytes
    of a file of a few hundred bytes: a DataError, not a MemoryError."""
    path = tmp_path / "c.ockp"
    fileio.save_checkpoint(path, {"w": np.ones((3, 5), np.float32)}, "a=1\n", 0)
    raw = bytearray(path.read_bytes())
    at = raw.rfind(b"w") + 1 + field  # the name, then ndim, then the dimensions
    assert raw[at : at + 4] == stored.to_bytes(4, "little")
    raw[at : at + 4] = (0x7FFFFFFF).to_bytes(4, "little")
    path.write_bytes(bytes(raw))
    with pytest.raises(fileio.DataError):
        fileio.load_checkpoint(path)


def test_sgrid_roundtrip(tmp_path, rng):
    grid = rng.integers(-1, 4, size=(60, 36, 60)).astype(np.int32)
    path = tmp_path / "g.sgrid"
    fileio.save_sgrid(path, grid)
    assert path.read_text().splitlines()[0] == "SGRID 60 36 60"
    assert np.array_equal(fileio.load_sgrid(path), grid)


def test_sgrid_scene_roundtrip(tmp_path):
    _, grid = dt.make_scene(dt.SceneConfig(seed=4))
    path = tmp_path / "g.sgrid"
    fileio.save_sgrid(path, grid)
    assert np.array_equal(fileio.load_sgrid(path), grid)


@pytest.mark.parametrize(
    "shape", [(0, 4, 5), (3, 0, 2), (0, 0, 0)], ids=["0x4x5", "3x0x2", "0x0x0"]
)
def test_empty_sgrid_roundtrips(tmp_path, shape):
    """A grid with a zero dimension is its header line alone."""
    path = tmp_path / "g.sgrid"
    fileio.save_sgrid(path, np.zeros(shape, np.int32))
    assert path.read_text() == "SGRID %d %d %d\n" % shape
    back = fileio.load_sgrid(path)
    assert back.shape == shape and back.dtype == np.int32


def test_sgrid_bad_header(tmp_path):
    path = tmp_path / "bad.sgrid"
    path.write_text("GRID 2 2 2\n0 8\n")
    with pytest.raises(fileio.DataError):
        fileio.load_sgrid(path)


MALFORMED_SGRID = {
    "dims": "SGRID 2 2 x\n0 8\n",
    "negative_dims": "SGRID -2 -2 2\n0 8\n",
    "run_value": "SGRID 2 2 2\n0 abc\n",
    "run_float": "SGRID 2 2 2\n0 8.5\n",
    "negative_run": "SGRID 2 2 2\n0 10\n1 -2\n",
    "ragged": "SGRID 2 2 2\n0 4\n1 4 9\n",
    "one_column": "SGRID 2 2 2\n0\n1\n",
    "short": "SGRID 2 2 2\n0 4\n1 3\n",
    "no_runs": "SGRID 2 2 2\n",
}


@pytest.mark.parametrize("name", sorted(MALFORMED_SGRID))
def test_malformed_sgrid_is_data_error(tmp_path, name):
    path = tmp_path / "bad.sgrid"
    path.write_text(MALFORMED_SGRID[name])
    with pytest.raises(fileio.DataError):
        fileio.load_sgrid(path)


@pytest.mark.parametrize("dims", [(20, 20, 20), (21, 21, 20)], ids=["2**60", "2**62"])
def test_sgrid_too_large_to_allocate_is_data_error(tmp_path, dims):
    """Grids that pass every count check but that no machine can allocate:
    2**60 cells ask for 4 EiB, 2**62 for more than numpy's largest array."""
    path = tmp_path / "huge.sgrid"
    side = [2**d for d in dims]
    path.write_text(f"SGRID {side[0]} {side[1]} {side[2]}\n0 {side[0] * side[1] * side[2]}\n")
    with pytest.raises(fileio.DataError, match="memory"):
        fileio.load_sgrid(path)


def test_manifest_non_integer_seed_is_data_error(tmp_path):
    path = tmp_path / "m.txt"
    path.write_text("a.ply b.ply - 3\nc.ply d.ply - four\n")
    with pytest.raises(fileio.DataError):
        fileio.read_manifest(path)


def test_manifest_roundtrip(tmp_path):
    entries = [
        {"partial": "a.ply", "complete": "b.ply", "grid": None, "seed": 3},
        {"partial": "c.ply", "complete": "d.ply", "grid": "e.sgrid", "seed": 4},
    ]
    path = tmp_path / "m.txt"
    fileio.write_manifest(path, entries)
    assert fileio.read_manifest(path) == entries


def test_config_roundtrip(tmp_path):
    values = {"lr": "0.1", "name": "run a"}
    path = tmp_path / "cfg"
    fileio.write_config(path, values)
    assert fileio.read_config(path) == values
    assert fileio.config_to_text(values) == "lr=0.1\nname=run a\n"


def test_metrics_json(tmp_path):
    fileio.write_metrics(tmp_path / "m.json", {"a": 1.5, "nested": {"b": 2}})
    import json

    got = json.loads((tmp_path / "m.json").read_text())
    assert got == {"a": 1.5, "nested": {"b": 2}}
