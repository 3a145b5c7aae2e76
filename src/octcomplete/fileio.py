"""File formats: point clouds, octree containers, checkpoints, label grids.

Every reader fails the same way: a missing or unreadable file, text that
is not numbers where numbers belong, undecodable bytes or a short binary
read ends as a `DataError` that names the file, never as an `OSError`,
`ValueError` or `struct.error`. PLY bodies, XYZ files and SGRID runs are
one kind of text: whitespace-separated number rows.
"""

import contextlib
import hashlib
import json
import math
import os
import struct
import tempfile
import warnings

import numpy as np

from .octree import MAX_DEPTH, Octree, PointSet, build_levels

OCTC_MAGIC = b"OCTC"
OCKP_MAGIC = b"OCKP"
FORMAT_VERSION = 1


class DataError(RuntimeError):
    """I/O or file-format failure attributable to the data, not the code."""


@contextlib.contextmanager
def _reading(path, what):
    """The reader contract: an OSError becomes a DataError naming `path`; a
    ValueError (UnicodeDecodeError included) or struct.error one that also
    names the file as a malformed `what`."""
    try:
        yield
    except OSError as e:
        raise DataError(f"{path}: {e}") from e
    except (ValueError, struct.error) as e:
        raise DataError(f"{path}: malformed {what}: {e}") from e


def _read_table(f, columns, dtype=float, max_rows=None):
    """Whitespace-separated number rows as a 2-D array. A body without rows
    reads as a (0, columns) array, without numpy's empty-input warning."""
    with warnings.catch_warnings():
        warnings.filterwarnings("ignore", "loadtxt: input contained no data", UserWarning)
        table = np.loadtxt(f, dtype=dtype, max_rows=max_rows, ndmin=2)
    return table if len(table) else np.zeros((0, columns), dtype)


def _point_table(points: PointSet):
    """A cloud's rows and their formats, as both point writers write them:
    the six coordinates as %.7g, then the label, if any, as an integer."""
    cols, fmt = [points.positions, points.normals], ["%.7g"] * 6
    if points.labels is not None:
        cols.append(points.labels[:, None])
        fmt.append("%d")
    return np.hstack(cols), fmt


# -- point clouds -----------------------------------------------------------


def write_ply(path, points: PointSet):
    rows, fmt = _point_table(points)
    header = ["ply", "format ascii 1.0", f"element vertex {len(points)}"]
    header += [f"property float {p}" for p in ("x", "y", "z", "nx", "ny", "nz")]
    if points.labels is not None:
        header.append("property int label")
    header.append("end_header")
    np.savetxt(path, rows, fmt=fmt, header="\n".join(header), comments="")


def read_ply(path) -> PointSet:
    with _reading(path, "PLY"), open(path) as f:
        if f.readline().strip() != "ply":
            raise DataError(f"{path}: not a PLY file")
        props, count = [], 0
        while True:
            line = f.readline()
            if not line:
                raise DataError(f"{path}: truncated header")
            line = line.strip()
            if line.startswith("element vertex"):
                count = int(line.split()[-1])
            elif line.startswith("property"):
                props.append(line.split()[-1])
            elif line == "end_header":
                break
        data = _read_table(f, len(props), max_rows=count)
    if data.shape[0] != count or data.shape[1] < 6:
        raise DataError(f"{path}: vertex data mismatch")
    labels = None
    if "label" in props:
        if props.index("label") >= data.shape[1]:
            raise DataError(f"{path}: no column for property label")
        labels = _labels(path, data[:, props.index("label")])
    return PointSet(positions=data[:, :3], normals=data[:, 3:6], labels=labels)


def _labels(path, column):
    """A text file's label column as int32; a label that is not a finite
    int32 integer (2.5, nan, 1e20) is a DataError, not a silent cast."""
    ok = np.isfinite(column) & (np.abs(column) < 2**31)
    if not ok.all() or not np.array_equal(column, np.trunc(column)):
        raise DataError(f"{path}: labels must be integers")
    return column.astype(np.int32)


_XYZ_COLUMNS = ("x", "y", "z", "nx", "ny", "nz", "label")


def write_xyz(path, points: PointSet):
    """One row per point; an empty cloud, which has no row to show whether
    it is labelled, is one comment line naming its columns."""
    rows, fmt = _point_table(points)
    header = "" if len(points) else " ".join(_XYZ_COLUMNS[: len(fmt)])
    np.savetxt(path, rows, fmt=fmt, header=header)


def read_xyz(path) -> PointSet:
    with _reading(path, "XYZ"), open(path) as f:
        # read only when no row follows: an empty cloud's column comment
        labelled = f.readline().split()[-1:] == ["label"]
        f.seek(0)
        data = _read_table(f, 7 if labelled else 6)
    if data.shape[1] not in (6, 7):
        raise DataError(f"{path}: expected 'x y z nx ny nz [label]' columns")
    labels = _labels(path, data[:, 6]) if data.shape[1] == 7 else None
    return PointSet(positions=data[:, :3], normals=data[:, 3:6], labels=labels)


def read_points(path) -> PointSet:
    if str(path).endswith(".ply"):
        return read_ply(path)
    return read_xyz(path)


# -- octree container -------------------------------------------------------


def save_octree(path, octree: Octree):
    with open(path, "wb") as f:
        f.write(OCTC_MAGIC)
        f.write(struct.pack("<II", FORMAT_VERSION, octree.depth))
        counts = [lv.num_nodes for lv in octree.levels]
        f.write(struct.pack(f"<{len(counts)}I", *counts))
        for lv in octree.levels:
            f.write(lv.keys.astype("<u8").tobytes())
        for lv in octree.levels:
            f.write(lv.status.astype(np.uint8).tobytes())
        f.write(octree.signal.astype("<f4").tobytes())


def load_octree(path) -> Octree:
    """Read an octree container, checking it against the octree its finest
    nonempty keys build: every stored key and status must match."""
    with _reading(path, "octree container"):
        with open(path, "rb") as f:
            raw = f.read()
        if raw[:4] != OCTC_MAGIC:
            raise DataError(f"{path}: bad magic")
        version, depth = struct.unpack_from("<II", raw, 4)
        if version != FORMAT_VERSION:
            raise DataError(f"{path}: unsupported version {version}")
        if depth > MAX_DEPTH:
            raise DataError(f"{path}: depth {depth} exceeds {MAX_DEPTH}")
        counts = struct.unpack_from(f"<{depth + 1}I", raw, 12)
    # keys, then statuses, then the finest level's 4-channel signal
    head, n, m = 16 + 4 * depth, sum(counts), counts[-1]
    if len(raw) != head + 9 * n + 16 * m:
        raise DataError(f"{path}: {len(raw) - head} data bytes for {n} nodes")
    split = np.cumsum(counts)[:-1]
    keys = np.split(np.frombuffer(raw, "<u8", n, head).astype(np.uint64), split)
    status = np.split(np.frombuffer(raw, np.uint8, n, head + 8 * n), split)
    signal = np.frombuffer(raw, "<f4", 4 * m, head + 9 * n).reshape(m, 4).astype(np.float32)
    levels = build_levels(keys[depth][status[depth] == 1], depth)
    for l, lv in enumerate(levels):
        if not np.array_equal(lv.keys, keys[l]):
            raise DataError(f"{path}: inconsistent level {l} keys")
        if not np.array_equal(lv.status, status[l]):
            raise DataError(f"{path}: level {l} status does not match the finest level")
    return Octree(depth=depth, levels=levels, signal=signal)


# -- checkpoints ------------------------------------------------------------


def config_hash(text):
    return hashlib.sha256(text.encode()).digest()


def save_checkpoint(path, named_arrays, config_text, epoch):
    """Atomic write of the named tensor table plus metadata."""
    tmp_fd, tmp_path = tempfile.mkstemp(dir=os.path.dirname(os.path.abspath(path)))
    try:
        with os.fdopen(tmp_fd, "wb") as f:
            f.write(OCKP_MAGIC)
            f.write(struct.pack("<I", FORMAT_VERSION))
            f.write(config_hash(config_text))
            f.write(struct.pack("<I", epoch))
            cfg = config_text.encode()
            f.write(struct.pack("<I", len(cfg)))
            f.write(cfg)
            f.write(struct.pack("<I", len(named_arrays)))
            for name, arr in named_arrays.items():
                nb = name.encode()
                f.write(struct.pack("<H", len(nb)))
                f.write(nb)
                arr = np.asarray(arr, dtype=np.float32)
                f.write(struct.pack("<I", arr.ndim))
                f.write(struct.pack(f"<{arr.ndim}I", *arr.shape))
                f.write(arr.astype("<f4").tobytes())
        os.replace(tmp_path, path)
    except BaseException:
        if os.path.exists(tmp_path):
            os.unlink(tmp_path)
        raise


def load_checkpoint(path):
    with _reading(path, "checkpoint"), open(path, "rb") as f:
        size = os.fstat(f.fileno()).st_size

        def read(n):
            # a corrupt size field must not ask for more than the file holds
            if n > size - f.tell():
                raise DataError(f"{path}: truncated or corrupt checkpoint: "
                                f"{n} bytes wanted at offset {f.tell()} of {size}")
            return f.read(n)

        if read(4) != OCKP_MAGIC:
            raise DataError(f"{path}: bad magic")
        (version,) = struct.unpack("<I", read(4))
        if version != FORMAT_VERSION:
            raise DataError(f"{path}: unsupported version {version}")
        chash = read(32)
        (epoch,) = struct.unpack("<I", read(4))
        (clen,) = struct.unpack("<I", read(4))
        config_text = read(clen).decode()
        (count,) = struct.unpack("<I", read(4))
        arrays = {}
        for _ in range(count):
            (nlen,) = struct.unpack("<H", read(2))
            name = read(nlen).decode()
            (ndim,) = struct.unpack("<I", read(4))
            shape = struct.unpack(f"<{ndim}I", read(4 * ndim))
            arrays[name] = (
                np.frombuffer(read(4 * math.prod(shape)), dtype="<f4")
                .reshape(shape)
                .astype(np.float32)
            )
    if config_hash(config_text) != chash:
        raise DataError(f"{path}: config hash mismatch")
    return {"epoch": epoch, "config_text": config_text, "arrays": arrays}


# -- label grids ------------------------------------------------------------


def save_sgrid(path, grid):
    """A label grid as its header line, then one 'label length' row per run
    of equal labels in C order."""
    grid = np.asarray(grid, dtype=np.int32)
    flat = grid.ravel()
    # an empty grid has no run, not one that starts at 0
    starts = np.concatenate([[0], np.flatnonzero(np.diff(flat)) + 1])[: len(flat)]
    runs = np.column_stack([flat[starts], np.diff(starts, append=len(flat))])
    np.savetxt(path, runs, fmt="%d", header="SGRID %d %d %d" % grid.shape, comments="")


def load_sgrid(path):
    with _reading(path, "SGRID"), open(path) as f:
        header = f.readline().split()
        if len(header) != 4 or header[0] != "SGRID":
            raise DataError(f"{path}: bad SGRID header")
        dims = tuple(int(v) for v in header[1:])
        runs = _read_table(f, 2, dtype=np.int64)
    if min(dims) < 0:
        raise DataError(f"{path}: negative grid dimension")
    if runs.shape[1] != 2:
        raise DataError(f"{path}: expected 'label length' runs")
    if np.any(runs[:, 1] < 0):
        raise DataError(f"{path}: negative run length")
    cells = math.prod(dims)
    if np.any(runs[:, 1] > cells) or runs[:, 1].sum() != cells:
        raise DataError(f"{path}: run lengths do not fill the grid")
    try:
        grid = np.repeat(runs[:, 0].astype(np.int32), runs[:, 1])
    except (MemoryError, ValueError) as e:  # ValueError: past numpy's largest array
        raise DataError(f"{path}: a {dims[0]}x{dims[1]}x{dims[2]} grid does not fit in memory") from e
    return grid.reshape(dims)


# -- dataset manifest -------------------------------------------------------


def write_manifest(path, entries):
    """One line per sample: partial complete grid(or -) seed."""
    with open(path, "w") as f:
        for e in entries:
            f.write(f"{e['partial']} {e['complete']} {e.get('grid') or '-'} {e['seed']}\n")


def read_manifest(path):
    entries = []
    with _reading(path, "manifest"), open(path) as f:
        for line in f:
            line = line.strip()
            if not line or line.startswith("#"):
                continue
            parts = line.split()
            if len(parts) != 4:
                raise DataError(f"{path}: malformed manifest line: {line}")
            entries.append(
                {
                    "partial": parts[0],
                    "complete": parts[1],
                    "grid": None if parts[2] == "-" else parts[2],
                    "seed": int(parts[3]),
                }
            )
    return entries


# -- flat key=value config --------------------------------------------------


def write_config(path, values):
    with open(path, "w") as f:
        for k, v in values.items():
            f.write(f"{k}={v}\n")


def read_config(path):
    with _reading(path, "config"), open(path) as f:
        text = f.read()
    return parse_config(text, path)


def parse_config(text, source):
    """key=value lines -> dict; blank lines and # comments are skipped."""
    out = {}
    for line in text.splitlines():
        line = line.strip()
        if not line or line.startswith("#"):
            continue
        if "=" not in line:
            raise DataError(f"{source}: malformed config line: {line}")
        k, v = line.split("=", 1)
        out[k.strip()] = v.strip()
    return out


def config_to_text(values):
    return "".join(f"{k}={v}\n" for k, v in sorted(values.items()))


def write_metrics(path, metrics):
    with open(path, "w") as f:
        json.dump(metrics, f, indent=2, sort_keys=True)

