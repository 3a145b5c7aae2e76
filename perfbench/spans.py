"""In-memory spans and counters around octcomplete's public entry points.

A probe replaces a function at the name its caller looks up -- a module
attribute such as ``kernels.scatter_add``, a name bound by ``from .octree
import neighbor_table`` inside ``network``, or a method on a class -- and
calls through to the original. Each call records a span (name, start, end,
parent span) and, through optional hooks, counts read from its arguments or
result. Spans stay in memory; ``Tracer.dump`` writes them out at the end.

A layer's time is its self time: a span's duration minus the time its child
spans cover. A probe whose layer is already the innermost open span (a
kernel calling another kernel of the same layer) calls straight through, so
work is never counted twice.

The same probes run without a clock when ``Tracer(timed=False)``: they then
only count, which lets a run compare its counts with and without spans.
"""

import functools
import inspect
import json
import time
from collections import defaultdict

import numpy as np

from octcomplete import (
    autodiff,
    data,
    evaluate,
    fileio,
    kernels,
    losses,
    network,
    nn,
    octree,
    skip,
    train,
)


class Tracer:
    """Spans as [name, start, end, parent index] plus named counters."""

    def __init__(self, timed=True):
        self.timed = timed
        self.spans = []
        self.counts = defaultdict(float)
        self.headroom = []       # cap / expanded, one entry per guarded decoder level
        self.active_tape = None  # most recently entered autodiff.Tape
        self._names = []         # open span names, innermost last
        self._ids = []           # open span indices, innermost last

    def innermost(self):
        return self._names[-1] if self._names else None

    def begin(self, name):
        self._names.append(name)
        if self.timed:
            parent = self._ids[-1] if self._ids else -1
            self._ids.append(len(self.spans))
            self.spans.append([name, time.perf_counter(), None, parent])

    def end(self):
        self._names.pop()
        if self.timed:
            self.spans[self._ids.pop()][2] = time.perf_counter()

    def span(self, name):
        """Context manager for a span opened by the benchmark itself."""
        return _Span(self, name)

    def add(self, key, value=1):
        self.counts[key] += value

    def dump(self, path):
        with open(path, "w") as f:
            json.dump({"spans": self.spans, "counts": dict(self.counts)}, f)


class _Span:
    def __init__(self, tracer, name):
        self.tracer = tracer
        self.name = name

    def __enter__(self):
        self.tracer.begin(self.name)

    def __exit__(self, *exc):
        self.tracer.end()
        return False


def self_times(spans):
    """Total self time per span name: duration minus what child spans cover."""
    covered = [0.0] * len(spans)
    for _, start, end, parent in spans:
        if parent >= 0:
            covered[parent] += end - start
    out = defaultdict(float)
    for i, (name, start, end, _) in enumerate(spans):
        out[name] += (end - start) - covered[i]
    return dict(out)


class Probes:
    """Installed wrappers; ``remove`` restores every original."""

    def __init__(self, tracer):
        self.tracer = tracer
        self.missing = []
        self._undo = []

    def wrap(self, owner, attr, name, before=None, after=None):
        """Wrap owner.attr as layer `name`.

        Hooks receive (tracer, bound arguments) and, for `after`, the result
        too. A name a later version of the package no longer has is listed
        in `missing` and its metrics stay at zero.
        """
        if not hasattr(owner, attr):
            self.missing.append(f"{getattr(owner, '__name__', owner)}.{attr}")
            return
        orig = getattr(owner, attr)
        sig = inspect.signature(orig) if (before or after) else None
        tracer = self.tracer

        @functools.wraps(orig)
        def wrapper(*args, **kwargs):
            if tracer.innermost() == name:
                return orig(*args, **kwargs)
            bound = None
            if sig is not None:
                ba = sig.bind(*args, **kwargs)
                ba.apply_defaults()
                bound = ba.arguments
            if before:
                before(tracer, bound)
            tracer.begin(name)
            try:
                out = orig(*args, **kwargs)
            finally:
                tracer.end()
            if after:
                after(tracer, bound, out)
            return out

        setattr(owner, attr, wrapper)
        self._undo.append((owner, attr, orig))

    def remove(self):
        for owner, attr, orig in reversed(self._undo):
            setattr(owner, attr, orig)
        self._undo.clear()


# -- hooks: counts and computed bytes, read from arguments and results ------

MB = 1e6


def _scatter(tr, a):
    # reads idx and rows, reads and writes one destination row per index
    tr.add("kernels.scatter_add.calls")
    tr.add("kernels.scatter_add.mb", (a["idx"].nbytes + 3 * a["rows"].nbytes) / MB)


def _gather(index_arg):
    def hook(tr, a):
        # reads the index and one source row per index, writes the output row
        src, idx = a["src"], np.asarray(a[index_arg])
        row_bytes = src.shape[1] * src.itemsize
        tr.add("kernels.gather.calls")
        tr.add("kernels.gather.mb", (idx.nbytes + 2 * idx.size * row_bytes) / MB)

    return hook


def _tape_enter(tr, a):
    tr.active_tape = a["self"]


def _tape_exit(tr, a):
    # closures recorded but never replayed (inference under a Tape)
    tr.add("autodiff.tape_ops", len(a["self"].ops))


def _backward(tr, a):
    if tr.active_tape is not None:
        tr.add("autodiff.tape_ops", len(tr.active_tape.ops))


def _conv_rows(tr, a, out):
    tr.add("nn.conv.calls")
    tr.add("nn.conv.rows", out.rows)


def _nbr_rows(tr, a):
    tr.add("octree.neighbor_table.rows", len(a["keys"]))


def _queries(tr, a):
    tr.add("octree.find_in_sorted.queries", np.size(a["queries"]))


def _decode(tr, a, res):
    state = res.state
    for level in state.keys:
        if level > state.coarsest:
            tr.add(f"network.decode.rows.l{level}", state.rows(level))
    if a["train"]:
        return
    # the decoder-explosion guard of CompletionNet.decode, read from outside
    enc = a["enc_batch"]
    for level, status in res.pred_status.items():
        expanded = float(np.sum(status))
        if level + 1 in state.keys and expanded > 0:
            cap = a["expand_cap"] * max(enc.nonempty(min(level, enc.depth)), 64)
            tr.headroom.append(cap / expanded)


def _leaves(tr, a, shape):
    tr.add("network.leaves", len(shape.leaf_codes))


def _skip_open(tr, a):
    align = np.asarray(a["align_idx"])
    gate = a["mask"].s[np.asarray(a["parent_index"])] > 0
    tr.add("skip.open_rows", int(np.count_nonzero((align >= 0) & gate)))
    tr.add("skip.rows", len(align))


def install(tracer):
    """Wrap the public entry points of every measured layer."""
    p = Probes(tracer)
    # kernels: attribute lookups from autodiff, nn and octree
    p.wrap(kernels, "scatter_add", "kernels.scatter_add", before=_scatter)
    p.wrap(kernels, "gather_rows", "kernels.gather", before=_gather("idx"))
    p.wrap(kernels, "gather_concat", "kernels.gather", before=_gather("idx2d"))
    p.wrap(kernels, "interleave3", "kernels.morton")
    p.wrap(kernels, "deinterleave3", "kernels.morton")
    # autodiff
    p.wrap(autodiff, "backward", "autodiff.backward", before=_backward)
    p.wrap(autodiff.Tape, "__enter__", "autodiff.tape", before=_tape_enter)
    p.wrap(autodiff.Tape, "__exit__", "autodiff.tape", before=_tape_exit)
    # nn: forward only; backward closures run inside autodiff.backward
    p.wrap(nn, "octree_conv", "nn.conv", after=_conv_rows)
    p.wrap(nn, "downsample", "nn.conv", after=_conv_rows)
    p.wrap(nn, "upsample", "nn.upsample")
    p.wrap(nn, "batch_norm", "nn.batch_norm")
    p.wrap(nn, "max_pool", "nn.max_pool")
    # octree: module functions and the names other modules imported
    for owner in (octree, train):
        p.wrap(owner, "build_octree", "octree.build")
    p.wrap(network, "octree_from_codes", "octree.build")
    for owner in (octree, network):
        p.wrap(owner, "neighbor_table", "octree.neighbor_table", before=_nbr_rows)
    for owner in (octree, network, skip, train):
        p.wrap(owner, "find_in_sorted", "octree.find_in_sorted", before=_queries)
    # network
    p.wrap(network.CompletionNet, "encode", "network.encode")
    p.wrap(network.CompletionNet, "decode", "network.decode", after=_decode)
    p.wrap(network.CompletionNet, "complete", "network.complete", after=_leaves)
    p.wrap(network, "sample_points", "network.sample_points")
    # skip: imported by name into network
    p.wrap(network, "guided_skip_add", "skip.guided_add", before=_skip_open)
    # losses: imported by name into train; chamfer called by the benchmark
    for attr in ("structure_loss", "completion_task_loss", "semantic_task_loss", "total_loss"):
        p.wrap(train, attr, "losses.train")
    p.wrap(losses, "chamfer_distance", "losses.chamfer")
    # train, evaluate, fileio, data
    p.wrap(train.SGD, "step", "train.sgd")
    p.wrap(evaluate, "identity_baseline", "evaluate.identity_baseline")
    p.wrap(fileio, "load_checkpoint", "fileio.load_checkpoint")
    p.wrap(data, "virtual_scan", "data.scan")
    return p
