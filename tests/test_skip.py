"""Status-guided encoder-to-decoder feature injection."""

import numpy as np
import pytest

from octcomplete import autodiff as ad
from octcomplete.errors import DomainError
from octcomplete.network import OctreeBatch
from octcomplete.octree import find_in_sorted, octree_from_codes
from octcomplete.skip import StatusMask, guided_skip_add

from conftest import align_encoder_rows, check_grads


def random_pair(rng, depth, n_enc=None, n_dec_parents=None):
    """Encoder octree + a decoder level layout with random parent statuses."""
    n_cells = 1 << (3 * depth)
    n_enc = n_enc or int(rng.integers(1, min(n_cells, 40) + 1))
    enc = octree_from_codes(
        rng.choice(n_cells, size=n_enc, replace=False).astype(np.uint64), depth
    )
    # decoder: subdivide a random set of level-(depth-1) parents
    n_par = 1 << (3 * (depth - 1))
    k = n_dec_parents or int(rng.integers(1, min(n_par, 20) + 1))
    parents = np.sort(rng.choice(n_par, size=k, replace=False).astype(np.uint64))
    dec_keys = (
        (parents[:, None] << np.uint64(3)) + np.arange(8, dtype=np.uint64)[None, :]
    ).ravel()
    parent_index = np.repeat(np.arange(k, dtype=np.int64), 8)
    status = rng.integers(0, 2, size=k).astype(np.float64)
    return enc, dec_keys, parents, parent_index, status


def oracle(enc, e_feats, d_feats, dec_keys, parent_index, status, depth):
    """Per-node recomputation of the guided addition, one row at a time."""
    lv = enc.levels[depth]
    out = d_feats.copy()
    for i, key in enumerate(dec_keys):
        j = find_in_sorted(lv.keys, np.array([key], np.uint64))[0]
        e = e_feats[j] if (j >= 0 and lv.status[j] == 1) else 0.0
        out[i] = d_feats[i] + e * status[parent_index[i]]
    return out


def run_skip(enc, e_feats, d_feats, dec_keys, parent_index, status, depth):
    d = ad.constant(d_feats)
    e = ad.constant(e_feats)
    align = align_encoder_rows(enc, dec_keys, depth)
    return guided_skip_add(
        d, e, align, parent_index, StatusMask(status)
    ).values


@pytest.mark.parametrize("seed", range(40))
def test_matches_oracle_small(seed):
    rng = np.random.default_rng(seed)
    depth = int(rng.integers(2, 4))
    enc, dec_keys, _, parent_index, status = random_pair(rng, depth)
    c = 3
    e_feats = rng.normal(size=(enc.levels[depth].num_nodes, c))
    d_feats = rng.normal(size=(len(dec_keys), c))
    got = run_skip(enc, e_feats, d_feats, dec_keys, parent_index, status, depth)
    want = oracle(enc, e_feats, d_feats, dec_keys, parent_index, status, depth)
    assert np.array_equal(got, want)


@pytest.mark.parametrize("seed", range(10))
def test_matches_oracle_depth6(seed):
    rng = np.random.default_rng(100 + seed)
    enc, dec_keys, _, parent_index, status = random_pair(
        rng, 6, n_enc=200, n_dec_parents=50
    )
    c = 4
    e_feats = rng.normal(size=(enc.levels[6].num_nodes, c))
    d_feats = rng.normal(size=(len(dec_keys), c))
    got = run_skip(enc, e_feats, d_feats, dec_keys, parent_index, status, 6)
    want = oracle(enc, e_feats, d_feats, dec_keys, parent_index, status, 6)
    assert np.array_equal(got, want)


@pytest.mark.parametrize("seed", range(30))
def test_masked_encoder_rows_are_filtered(seed):
    """Perturbing encoder features under a zero parent status changes nothing."""
    rng = np.random.default_rng(200 + seed)
    depth = 3
    enc, dec_keys, _, parent_index, status = random_pair(rng, depth)
    c = 3
    e_feats = rng.normal(size=(enc.levels[depth].num_nodes, c))
    d_feats = rng.normal(size=(len(dec_keys), c))
    base = run_skip(enc, e_feats, d_feats, dec_keys, parent_index, status, depth)

    masked_rows = np.flatnonzero(status[parent_index] == 0.0)
    lv = enc.levels[depth]
    touched = False
    for i in masked_rows:
        j = find_in_sorted(lv.keys, dec_keys[i : i + 1])[0]
        if j >= 0 and lv.status[j] == 1:
            pert = e_feats.copy()
            pert[j] += rng.normal(size=c) * 100.0
            again = run_skip(enc, pert, d_feats, dec_keys, parent_index, status, depth)
            assert np.array_equal(base, again)
            touched = True
    if not touched:
        # no co-located masked node this draw; the zero-row case still holds
        assert np.array_equal(
            base,
            run_skip(enc, e_feats + 0.0, d_feats, dec_keys, parent_index, status, depth),
        )


def test_absent_encoder_node_contributes_zero(rng):
    depth = 2
    enc = octree_from_codes(np.array([0], np.uint64), depth)
    dec_keys = np.arange(8, dtype=np.uint64) + np.uint64(56)  # parent key 7
    e_feats = rng.normal(size=(enc.levels[2].num_nodes, 2))
    d_feats = rng.normal(size=(8, 2))
    out = run_skip(enc, e_feats, d_feats, dec_keys, np.zeros(8, np.int64), np.ones(1), 2)
    assert np.array_equal(out, d_feats)


def test_empty_status_encoder_slot_is_absent(rng):
    depth = 2
    enc = octree_from_codes(np.array([0], np.uint64), depth)
    lv = enc.levels[depth]
    # key 1 is stored (sibling of 0) but flagged empty
    assert lv.status[find_in_sorted(lv.keys, np.array([1], np.uint64))[0]] == 0
    idx = align_encoder_rows(enc, np.array([0, 1], np.uint64), depth)
    assert idx[0] >= 0 and idx[1] == -1


def test_mask_carries_no_gradient(rng):
    depth = 2
    enc = octree_from_codes(np.arange(16, dtype=np.uint64), depth)
    dec_keys = np.arange(16, dtype=np.uint64)
    e_vals = rng.normal(size=(enc.levels[2].num_nodes, 2))
    d_vals = rng.normal(size=(16, 2))
    status = np.array([1.0, 0.0])  # the second parent's 8 children are gated shut
    parent_index = np.repeat(np.arange(2), 8)
    e = ad.parameter(e_vals)
    d = ad.parameter(d_vals)
    align = align_encoder_rows(enc, dec_keys, depth)
    assert (align >= 0).all()
    with ad.Tape():
        out = guided_skip_add(d, e, align, parent_index, StatusMask(status))
        ad.backward(ad.sum_all(out))
    assert np.array_equal(d.grad, np.ones_like(d_vals))
    # encoder gradient is exactly the mask value routed through the alignment
    want = np.zeros_like(e_vals)
    for i, j in enumerate(align):
        want[j] += status[parent_index[i]]
    assert np.array_equal(e.grad, want)
    assert not e.grad[align[8:]].any()


@pytest.mark.parametrize("seed", range(10))
def test_grad_guided_skip_add(seed):
    """Finite differences of the one-op skip, with gated-shut parents and
    decoder rows that have no encoder row."""
    rng = np.random.default_rng(300 + seed)
    n_dec, n_enc = 24, 20
    align = np.full(n_dec, -1, dtype=np.int64)
    hit = rng.choice(n_dec, size=16, replace=False)
    align[hit] = rng.permutation(n_enc)[:16]
    parent_index = np.repeat(np.arange(3), 8)
    status = np.array([1.0, 0.0, 1.0])
    d_arr = rng.normal(size=(n_dec, 3))
    e_arr = rng.normal(size=(n_enc, 3))
    d, e = ad.parameter(d_arr), ad.parameter(e_arr)

    def build():
        out = guided_skip_add(d, e, align, parent_index, StatusMask(status))
        return ad.sum_all(ad.mul(out, out))

    check_grads(build, {"d": (d, d_arr), "e": (e, e_arr)})


def test_shape_errors(rng):
    enc = octree_from_codes(np.array([0], np.uint64), 2)
    d = ad.constant(rng.normal(size=(8, 3)))
    e = ad.constant(rng.normal(size=(enc.levels[2].num_nodes, 2)))
    align = align_encoder_rows(enc, np.arange(8, dtype=np.uint64), 2)
    with pytest.raises(DomainError):
        guided_skip_add(d, e, align, np.zeros(8, np.int64), StatusMask(np.ones(1)))
    e3 = ad.constant(rng.normal(size=(enc.levels[2].num_nodes, 3)))
    with pytest.raises(DomainError):
        guided_skip_add(d, e3, align[:4], np.zeros(8, np.int64), StatusMask(np.ones(1)))
    with pytest.raises(DomainError):
        guided_skip_add(d, e3, align, np.full(8, 5, np.int64), StatusMask(np.ones(1)))


@pytest.mark.parametrize("d_kind", ["kept", "remade"])
def test_taped_skip_output_is_remade_bit_for_bit(d_kind, rng):
    """A taped skip output carries a recipe that gives its values, whole or
    at some rows, bit for bit, as often as it is called, whether the
    decoder input is held as it is (and so must not be written) or is
    itself remade; the recipe is dropped when the skip replays."""
    n_dec, n_enc = 24, 20
    align = np.full(n_dec, -1, dtype=np.int64)
    align[rng.choice(n_dec, size=16, replace=False)] = rng.permutation(n_enc)[:16]
    parent_index = np.repeat(np.arange(3), 8)
    status = np.array([1.0, 0.0, 1.0])
    d_arr = rng.normal(size=(n_dec, 3)).astype(np.float32)
    e = ad.parameter(rng.normal(size=(n_enc, 3)).astype(np.float32))
    rows = np.array([1, 5, 8, 23])
    with ad.Tape():
        d = ad.parameter(d_arr.copy())
        if d_kind == "remade":

            def remake(rows=None):
                v = d_arr * 2  # a new array per call, as custom_op asks
                return v if rows is None else np.take(v, rows, axis=0)

            d = ad.custom_op(d.values * 2, [d], lambda g: (g * 2,), remake=remake)
        before = d.values.copy()
        out = guided_skip_add(d, e, align, parent_index, StatusMask(status))
        recipe = out._slot.remake
        for _ in range(2):
            assert np.array_equal(recipe(), out.values)
            assert np.array_equal(recipe(rows), out.values[rows])
        assert np.array_equal(d.values, before)
        ad.backward(ad.sum_all(out))
    assert out._slot.remake is None


@pytest.mark.parametrize("seed", range(6))
def test_skip_over_nonempty_encoder_rows_equals_full_row_skip(seed):
    """guided_skip_add over the encoder level's nonempty rows, as encode
    keeps them (nn.nonempty), aligned by OctreeBatch.nonempty_index, equals
    the skip over every encoder row bit for bit: the output, the values its
    recipe remakes and the decoder gradient; the encoder gradient is the
    full-row one's at the nonempty rows, and that one is zero at every
    empty row."""
    rng = np.random.default_rng(seed)
    depth = 3
    enc, dec_keys, _, parent_index, status = random_pair(rng, depth, n_enc=30, n_dec_parents=20)
    lv = enc.levels[depth]
    full = np.flatnonzero(lv.status)
    assert len(full) < lv.num_nodes  # the level has empty rows
    c = 3
    e_feats = rng.normal(size=(lv.num_nodes, c))
    d_feats = rng.normal(size=(len(dec_keys), c))
    g = rng.normal(size=d_feats.shape)
    align = align_encoder_rows(enc, dec_keys, depth)
    assert np.any((align >= 0) & (status[parent_index] != 0))  # some rows open
    kept_align = OctreeBatch([enc]).nonempty_index(depth, align)
    results = []
    for e_vals, idx in ((e_feats, align), (e_feats[full], kept_align)):
        d, e = ad.parameter(d_feats.copy()), ad.parameter(e_vals.copy())
        with ad.Tape():
            out = guided_skip_add(d, e, idx, parent_index, StatusMask(status))
            remade = out._slot.remake()
            ad.backward(ad.sum_all(ad.mul(out, ad.constant(g))))
        results.append((out.values, remade, d.grad, e.grad))
    (out, remade, gd, ge), (kept_out, kept_remade, kept_gd, kept_ge) = results
    assert np.array_equal(out, kept_out) and np.array_equal(remade, kept_remade)
    assert np.array_equal(gd, kept_gd) and np.array_equal(ge[full], kept_ge)
    assert not ge[lv.status == 0].any()
