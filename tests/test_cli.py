"""End-to-end command-line flows and exit codes."""

import json
import re
from pathlib import Path

import numpy as np
import pytest

from octcomplete import data as dt
from octcomplete import fileio
from octcomplete.cli import EXIT_DATA, EXIT_OK, EXIT_USAGE, main
from octcomplete.network import CompletionNet, NetworkSpec
from octcomplete.octree import MAX_DEPTH, build_octree, cell_centers
from octcomplete.train import net_from_checkpoint, spec_config_values


def run(argv):
    return main(argv)


def test_usage_errors():
    assert run([]) == EXIT_USAGE
    assert run(["gen", "--task", "nope", "--count", "1", "--out", "x"]) == EXIT_USAGE
    assert run(["frobnicate"]) == EXIT_USAGE


def test_help_exits_ok(capsys):
    assert run(["--help"]) == EXIT_OK
    assert "gen" in capsys.readouterr().out


def test_data_error_exit(tmp_path):
    missing = str(tmp_path / "nope.ply")
    out = str(tmp_path / "o.octc")
    assert run(["build-octree", "--in", missing, "--depth", "4", "--out", out]) == EXIT_DATA


def test_gen_build_inspect_flow(tmp_path, capsys):
    data = str(tmp_path / "data")
    assert run(["gen", "--task", "shape", "--count", "2", "--seed", "1", "--out", data]) == EXIT_OK
    entries = fileio.read_manifest(tmp_path / "data" / "manifest.txt")
    assert len(entries) == 2

    octc = str(tmp_path / "s.octc")
    assert run(["build-octree", "--in", entries[0]["partial"], "--depth", "5", "--out", octc]) == EXIT_OK
    capsys.readouterr()
    assert run(["inspect", "--in", octc]) == EXIT_OK
    text = capsys.readouterr().out
    lines = [l for l in text.splitlines() if l.startswith("level")]
    assert len(lines) == 6
    nonempty = [int(l.split("nonempty")[1].split()[0]) for l in lines]
    # each nonempty node has at most 8 nonempty children
    for l in range(5):
        assert nonempty[l + 1] <= 8 * nonempty[l]
    assert nonempty[0] == 1


def write_tiny_config(path, extra=None):
    values = {
        "net.input_depth": "4",
        "net.output_depth": "4",
        "net.n_res": "0",
        "net.c0": "4",
        "net.c_max": "8",
        "net.hidden": "4",
        "train.epochs": "1",
        "train.batch_size": "2",
        "train.lr": "0.02",
        "train.seed": "0",
        "train.log_every": "1",
    }
    values.update(extra or {})
    fileio.write_config(path, values)


def test_train_complete_eval_flow(tmp_path, capsys):
    data = str(tmp_path / "data")
    assert run(["gen", "--task", "shape", "--count", "2", "--seed", "3", "--out", data, "--views", "3"]) == EXIT_OK
    manifest = str(tmp_path / "data" / "manifest.txt")

    cfg = str(tmp_path / "cfg")
    write_tiny_config(cfg)
    out = str(tmp_path / "run")
    assert run(["train", "--config", cfg, "--data", manifest, "--out", out]) == EXIT_OK
    ckpt = str(tmp_path / "run" / "checkpoint.ockp")
    (epoch,) = json.loads(Path(out, "history.json").read_text())["epochs"]
    assert set(epoch["status_accuracy"]) == {"3", "4"}
    assert all(0 <= a <= 1 for a in epoch["status_accuracy"].values())
    assert epoch["step_s"] > 0

    # resume continues from the stored epoch without retraining
    write_tiny_config(cfg)
    capsys.readouterr()
    assert run(["train", "--config", cfg, "--data", manifest, "--out", out, "--resume"]) == EXIT_OK
    assert "resumed from epoch 1" in capsys.readouterr().out

    entries = fileio.read_manifest(manifest)
    done = str(tmp_path / "done.ply")
    grid = str(tmp_path / "done.sgrid")
    code = run(["complete", "--ckpt", ckpt, "--in", entries[0]["partial"], "--out", done, "--export-grid", grid])
    if code == EXIT_OK:
        pts = fileio.read_ply(done)
        assert len(pts) > 0
        g = fileio.load_sgrid(grid)
        assert (g >= 0).sum() > 0
    else:
        # an undertrained net may legitimately predict nothing
        assert code == 3

    report = str(tmp_path / "report.json")
    assert run(["eval", "--ckpt", ckpt, "--data", manifest, "--metric", "chamfer", "--report", report]) == EXIT_OK

    rep = json.loads(Path(report).read_text())
    assert np.isfinite(rep["chamfer"]) or rep["chamfer"] == float("inf")
    assert rep["baseline"] > 0


@pytest.mark.parametrize("shape", [(3, 5), (1, 1)])
def test_resume_rejects_optimizer_state_of_another_shape(tmp_path, capsys, shape):
    """An optimizer tensor of the wrong shape in a checkpoint whose config
    still matches is a data error naming the tensor, whether or not it
    would broadcast into the velocity."""
    data = str(tmp_path / "data")
    assert run(["gen", "--task", "shape", "--count", "2", "--seed", "3", "--out", data, "--views", "3"]) == EXIT_OK
    manifest = str(tmp_path / "data" / "manifest.txt")
    cfg = str(tmp_path / "cfg")
    write_tiny_config(cfg)
    out = str(tmp_path / "run")
    assert run(["train", "--config", cfg, "--data", manifest, "--out", out]) == EXIT_OK
    ckpt = str(tmp_path / "run" / "checkpoint.ockp")
    ck = fileio.load_checkpoint(ckpt)
    key = next(k for k, v in ck["arrays"].items() if k.startswith("opt.") and v.shape != shape)
    ck["arrays"][key] = np.ones(shape, ck["arrays"][key].dtype)
    fileio.save_checkpoint(ckpt, ck["arrays"], ck["config_text"], ck["epoch"])
    capsys.readouterr()
    assert run(["train", "--config", cfg, "--data", manifest, "--out", out, "--resume"]) == EXIT_DATA
    err = capsys.readouterr().err
    assert key in err and "Traceback" not in err


def test_eval_iou_needs_grids(tmp_path, capsys):
    ckpt, _ = untrained_checkpoint_and_scan(tmp_path, task="semantic", num_classes=3)
    manifest = str(tiny_shape_manifest(tmp_path))
    assert run(["eval", "--ckpt", ckpt, "--data", manifest, "--metric", "iou"]) == EXIT_DATA
    assert "needs label grids" in capsys.readouterr().err


@pytest.mark.parametrize("metric, task", [("iou", "completion"), ("chamfer", "semantic")])
def test_eval_metric_of_another_task_is_data_error(tmp_path, capsys, metric, task):
    """A metric that does not read the checkpoint's task is a DataError
    before any sample runs, even where the manifest has label grids and the
    net predicts leaves."""
    ckpt, scan = untrained_checkpoint_and_scan(tmp_path, task=task, num_classes=3)
    grid = str(tmp_path / "scan.sgrid")
    fileio.save_sgrid(grid, np.zeros((16, 16, 16), np.int32))
    manifest = str(tmp_path / "manifest.txt")
    fileio.write_manifest(manifest, [{"partial": scan, "complete": scan, "grid": grid, "seed": 0}])
    assert run(["eval", "--ckpt", ckpt, "--data", manifest, "--metric", metric]) == EXIT_DATA
    err = capsys.readouterr().err
    assert f"metric {metric} needs a" in err and "Traceback" not in err


GEN_BAD = [
    ("--seed", "-1", "shape"),
    ("--noise", "nan", "shape"),
    ("--count", "-3", "shape"),
    ("--count", "0", "shape"),
    ("--views", "7", "shape"),
    ("--views", "-1", "shape"),
    ("--noise", "0.5", "scene"),
]


@pytest.mark.parametrize(
    "flag, value, task",
    GEN_BAD,
    ids=[f"{f}-{v}" if t == "shape" else f"{t}-{f}-{v}" for f, v, t in GEN_BAD],
)
def test_gen_bad_argument_is_data_error(tmp_path, capsys, flag, value, task):
    """A negative seed, a non-finite noise, a count below one, a view count
    outside 0..6 and any noise for scenes, whose scans take none, are data
    errors naming the argument, and the output directory is not made."""
    data = tmp_path / "data"
    argv = ["gen", "--task", task, "--count", "1", "--out", str(data), flag, value]
    assert run(argv) == EXIT_DATA
    err = capsys.readouterr().err
    assert flag[2:] in err and "Traceback" not in err
    assert not data.exists()


def test_gen_scene_writes_grids(tmp_path):
    data = str(tmp_path / "scenes")
    assert run(["gen", "--task", "scene", "--count", "1", "--seed", "2", "--out", data]) == EXIT_OK
    entries = fileio.read_manifest(tmp_path / "scenes" / "manifest.txt")
    assert entries[0]["grid"] is not None
    g = fileio.load_sgrid(entries[0]["grid"])
    assert g.shape == (60, 36, 60)
    pts = fileio.read_ply(entries[0]["complete"])
    assert pts.labels is not None


def untrained_checkpoint_and_scan(tmp_path, **spec_fields):
    """A checkpoint of an untrained net that predicts a nonempty shape for the scan.

    `spec_fields` override the completion spec; the output head is created
    last, so a semantic net shares every other weight, and the structure.
    """
    fields = dict(input_depth=4, output_depth=4, n_res=1, c0=8, c_max=16, hidden=8)
    spec = NetworkSpec(**{**fields, **spec_fields})
    net = CompletionNet(spec, seed=3)
    ckpt = str(tmp_path / "untrained.ockp")
    text = fileio.config_to_text(spec_config_values(spec))
    fileio.save_checkpoint(ckpt, dict(net.params.state_arrays()), text, 0)
    shape = dt.make_shape("sphere", density=2500, seed=0)
    scan = str(tmp_path / "scan.ply")
    fileio.write_ply(scan, dt.virtual_scan(shape, dt.ScanConfig(num_views=2, seed=0)))
    return ckpt, scan


def test_complete_samples_per_node_below_one_is_data_error(tmp_path):
    ckpt, scan = untrained_checkpoint_and_scan(tmp_path)
    out = str(tmp_path / "out.ply")
    base = ["complete", "--ckpt", ckpt, "--in", scan, "--out", out]
    assert run(base + ["--samples-per-node", "1"]) == EXIT_OK
    assert len(fileio.read_ply(out)) > 0
    assert run(base + ["--samples-per-node", "0"]) == EXIT_DATA
    assert run(base + ["--samples-per-node", "-1"]) == EXIT_DATA


def test_complete_prints_decoder_growth_per_level(tmp_path, capsys):
    """One line per guarded decoder level: the rows expanded and the
    expand_cap guard's cap, as complete records them."""
    ckpt, scan = untrained_checkpoint_and_scan(tmp_path, input_depth=5, output_depth=5)
    out = str(tmp_path / "out.ply")
    capsys.readouterr()
    assert run(["complete", "--ckpt", ckpt, "--in", scan, "--out", out]) == EXIT_OK
    lines = [l for l in capsys.readouterr().out.splitlines() if l.startswith("level ")]
    net, _ = net_from_checkpoint(ckpt)
    growth = net.complete(build_octree(fileio.read_points(scan), 5)).growth
    assert sorted(growth) == [3, 4]
    assert lines == [f"level {l}: expanded {e} rows, cap {c:g}" for l, (e, c) in sorted(growth.items())]


def test_complete_semantic_writes_labeled_leaf_centers(tmp_path):
    ckpt, scan = untrained_checkpoint_and_scan(tmp_path, task="semantic", num_classes=3)
    out = str(tmp_path / "out.ply")
    assert run(["complete", "--ckpt", ckpt, "--in", scan, "--out", out]) == EXIT_OK
    net, _ = net_from_checkpoint(ckpt)
    shape = net.complete(build_octree(fileio.read_points(scan), 4))
    assert not shape.empty
    pts = fileio.read_ply(out)
    assert len(pts) == len(shape.leaf_codes)
    assert np.allclose(pts.positions, cell_centers(shape.leaf_codes, 4), rtol=0, atol=1e-6)
    assert np.array_equal(pts.normals, np.tile((0.0, 1.0, 0.0), (len(pts), 1)))
    assert np.array_equal(pts.labels, np.argmax(shape.semantic_logits, axis=1))


def test_complete_semantic_exports_argmax_label_grid(tmp_path):
    ckpt, scan = untrained_checkpoint_and_scan(tmp_path, task="semantic", num_classes=3)
    out, grid = str(tmp_path / "out.ply"), str(tmp_path / "out.sgrid")
    assert run(["complete", "--ckpt", ckpt, "--in", scan, "--out", out, "--export-grid", grid]) == EXIT_OK
    net, _ = net_from_checkpoint(ckpt)
    shape = net.complete(build_octree(fileio.read_points(scan), 4))
    labels = np.argmax(shape.semantic_logits, axis=1)
    want = dt.shape_to_label_grid(shape.leaf_codes, labels, 4)
    assert np.array_equal(fileio.load_sgrid(grid), want)


def test_depth_above_max_in_checkpoint_or_train_config_is_data_error(tmp_path, capsys):
    """net.input_depth = net.output_depth = MAX_DEPTH + 1 exits 2, naming
    the depth: in a checkpoint's config before the net draws a weight, and
    in a train config before the manifest (here a missing file) is read."""
    deep = MAX_DEPTH + 1
    spec = NetworkSpec(input_depth=deep, output_depth=deep, c0=4, c_max=8, hidden=4)
    ckpt = str(tmp_path / "deep.ockp")
    fileio.save_checkpoint(ckpt, {}, fileio.config_to_text(spec_config_values(spec)), 0)
    out = str(tmp_path / "out.ply")
    capsys.readouterr()
    assert run(["complete", "--ckpt", ckpt, "--in", str(tmp_path / "scan.ply"), "--out", out]) == EXIT_DATA
    assert "input_depth" in capsys.readouterr().err
    cfg = str(tmp_path / "cfg")
    write_tiny_config(cfg, {"net.input_depth": str(deep), "net.output_depth": str(deep)})
    argv = ["train", "--config", cfg, "--data", str(tmp_path / "missing.txt"), "--out", str(tmp_path / "run")]
    assert run(argv) == EXIT_DATA
    err = capsys.readouterr().err
    assert "input_depth" in err and "Traceback" not in err


def test_complete_truncated_checkpoint_is_data_error(tmp_path):
    ckpt, scan = untrained_checkpoint_and_scan(tmp_path)
    raw = Path(ckpt).read_bytes()
    cut = tmp_path / "cut.ockp"
    out = str(tmp_path / "out.ply")
    for size in (len(raw) // 3, len(raw) - 1):
        cut.write_bytes(raw[:size])
        assert run(["complete", "--ckpt", str(cut), "--in", scan, "--out", out]) == EXIT_DATA


def test_complete_corrupt_checkpoint_size_field_is_data_error(tmp_path, capsys):
    """0x7FFFFFFF over the first tensor's ndim field: exit 2, no MemoryError."""
    ckpt, scan = untrained_checkpoint_and_scan(tmp_path)
    raw = bytearray(Path(ckpt).read_bytes())
    # magic, version, config hash, epoch; then the config text, the tensor
    # count, and the first tensor's name length and name
    clen = int.from_bytes(raw[44:48], "little")
    nlen = int.from_bytes(raw[52 + clen : 54 + clen], "little")
    at = 54 + clen + nlen
    raw[at : at + 4] = (0x7FFFFFFF).to_bytes(4, "little")
    bad = tmp_path / "bad.ockp"
    bad.write_bytes(bytes(raw))
    out = str(tmp_path / "out.ply")
    assert run(["complete", "--ckpt", str(bad), "--in", scan, "--out", out]) == EXIT_DATA
    assert "Traceback" not in capsys.readouterr().err


MALFORMED_POINTS = {
    "token.ply": "ply\nformat ascii 1.0\nelement vertex 1\nend_header\n0.1 abc 0.3 0 0 1\n",
    "count.ply": "ply\nformat ascii 1.0\nelement vertex two\nend_header\n0.1 0.2 0.3 0 0 1\n",
    "token.xyz": "0.1 abc 0.3 0 0 1\n",
    "nan_position.xyz": "0.1 nan 0.3 0 0 1\n",
    "nan_normal.xyz": "0.1 0.2 0.3 0 0 nan\n",
}


@pytest.mark.parametrize("name", sorted(MALFORMED_POINTS))
def test_build_octree_malformed_points_is_data_error(tmp_path, name):
    path = tmp_path / name
    path.write_text(MALFORMED_POINTS[name])
    out = str(tmp_path / "o.octc")
    assert run(["build-octree", "--in", str(path), "--depth", "4", "--out", out]) == EXIT_DATA


def test_inspect_corrupt_octree_is_data_error(tmp_path, capsys):
    o = build_octree(dt.make_shape("sphere", density=2000, seed=1), 4)
    octc = tmp_path / "s.octc"
    fileio.save_octree(octc, o)
    raw = octc.read_bytes()
    bad = tmp_path / "bad.octc"
    for size in (10, 30, len(raw) // 2, len(raw) - 1):  # header, counts, keys, signal
        bad.write_bytes(raw[:size])
        assert run(["inspect", "--in", str(bad)]) == EXIT_DATA
    counts = [lv.num_nodes for lv in o.levels]
    flipped = bytearray(raw)
    # the first level-2 status byte, after the header, counts and keys
    flipped[16 + 4 * 4 + 8 * sum(counts) + counts[0] + counts[1]] ^= 1
    bad.write_bytes(bytes(flipped))
    assert run(["inspect", "--in", str(bad)]) == EXIT_DATA
    assert "Traceback" not in capsys.readouterr().err


def tiny_shape_manifest(tmp_path):
    data = str(tmp_path / "data")
    assert run(["gen", "--task", "shape", "--count", "1", "--seed", "5", "--out", data]) == EXIT_OK
    return tmp_path / "data" / "manifest.txt"


def test_eval_malformed_manifest_or_grid_is_data_error(tmp_path):
    ckpt, _ = untrained_checkpoint_and_scan(tmp_path, task="semantic", num_classes=3)
    manifest = tiny_shape_manifest(tmp_path)
    partial, complete, _, seed = manifest.read_text().split()
    grid = tmp_path / "bad.sgrid"
    grid.write_text("SGRID 2 2 2\n0 abc\n")
    for line in (f"{partial} {complete} {grid} {seed}", f"{partial} {complete} - x{seed}"):
        manifest.write_text(line + "\n")
        argv = ["eval", "--ckpt", ckpt, "--data", str(manifest), "--metric", "iou"]
        assert run(argv) == EXIT_DATA


def test_eval_grid_too_large_to_allocate_is_data_error(tmp_path, capsys):
    ckpt, _ = untrained_checkpoint_and_scan(tmp_path, task="semantic", num_classes=3)
    manifest = tiny_shape_manifest(tmp_path)
    partial, complete, _, seed = manifest.read_text().split()
    grid = tmp_path / "huge.sgrid"
    grid.write_text(f"SGRID {2**20} {2**20} {2**20}\n0 {2**60}\n")
    manifest.write_text(f"{partial} {complete} {grid} {seed}\n")
    argv = ["eval", "--ckpt", ckpt, "--data", str(manifest), "--metric", "iou"]
    assert run(argv) == EXIT_DATA
    assert "Traceback" not in capsys.readouterr().err


# (key, value) pairs: values that do not parse, keys that name no field,
# then values out of range
UNPARSEABLE_CONFIG_VALUES = [
    ("net.c0", "abc"),
    ("net.scene_head", "maybe"),
    ("train.lr", "fast"),
    ("train.epochs", "1.5"),
    ("train.shuffle", "yes"),
    ("train.lr_drop_epochs", "6,x"),
]
UNKNOWN_CONFIG_KEYS = [
    ("net.n_ress", "4"),
    ("train.epoch", "3"),
    ("model.c0", "8"),
]
OUT_OF_RANGE_CONFIG_VALUES = [
    ("net.c0", "0"),
    ("net.c_max", "0"),
    ("net.hidden", "0"),
    ("net.n_res", "-1"),
    ("net.coarsest", "-1"),
    ("train.batch_size", "0"),
    ("train.log_every", "0"),
    ("train.lr_drop_factor", "0"),
    ("train.epochs", "-2"),
    ("train.max_steps", "-1"),
    ("train.seed", "-1"),
    ("train.lr", "nan"),
    ("train.lr", "inf"),
    ("train.lr", "0"),
    ("train.momentum", "nan"),
    ("train.momentum", "1"),
    ("train.momentum", "-0.1"),
    ("train.weight_decay", "nan"),
    ("train.weight_decay", "inf"),
    ("train.weight_decay", "-1e-4"),
    ("train.task_weight", "nan"),
    ("train.task_weight", "inf"),
    ("train.task_weight", "-1"),
]
# a parse error and an unknown key name the whole dotted key; a range error
# names the field
BAD_CONFIG_VALUES = [
    (k, v, re.escape(k)) for k, v in UNPARSEABLE_CONFIG_VALUES + UNKNOWN_CONFIG_KEYS
] + [(k, v, rf"\b{k.split('.')[1]}\b") for k, v in OUT_OF_RANGE_CONFIG_VALUES]


@pytest.mark.parametrize(
    "key, value, named",
    BAD_CONFIG_VALUES,
    ids=[k for k, _ in UNPARSEABLE_CONFIG_VALUES + UNKNOWN_CONFIG_KEYS]
    + [f"{k}={v}" for k, v in OUT_OF_RANGE_CONFIG_VALUES],
)
def test_train_bad_config_value_is_data_error(tmp_path, capsys, key, value, named):
    manifest = tiny_shape_manifest(tmp_path)
    cfg = str(tmp_path / "cfg")
    write_tiny_config(cfg, {key: value})
    out = str(tmp_path / "run")
    assert run(["train", "--config", cfg, "--data", str(manifest), "--out", out]) == EXIT_DATA
    err = capsys.readouterr().err
    assert re.search(named, err), err
    assert "Traceback" not in err


def test_train_undecodable_config_is_data_error(tmp_path, capsys):
    manifest = tiny_shape_manifest(tmp_path)
    cfg = tmp_path / "cfg"
    write_tiny_config(str(cfg))
    cfg.write_bytes(cfg.read_bytes() + b"net.c0=\xff\n")
    out = str(tmp_path / "run")
    assert run(["train", "--config", str(cfg), "--data", str(manifest), "--out", out]) == EXIT_DATA
    assert "Traceback" not in capsys.readouterr().err
