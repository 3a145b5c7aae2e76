"""Finite-difference checks for every taped primitive."""

import weakref

import numpy as np
import pytest

from octcomplete import autodiff as ad
from octcomplete.errors import DomainError

SEEDS = range(20)


def fd_check(build, leaves, h=1e-5, rtol=1e-4):
    """build() -> scalar FeatureMap; leaves: list of tracked FeatureMaps."""
    for leaf in leaves:
        leaf.grad = None
    with ad.Tape():
        loss = build()
        ad.backward(loss)
    grads = [leaf.grad.copy() for leaf in leaves]
    for leaf, got in zip(leaves, grads):
        a = leaf.values
        want = np.zeros_like(a)
        it = np.nditer(a, flags=["multi_index"])
        for _ in it:
            i = it.multi_index
            orig = a[i]
            a[i] = orig + h
            fp = float(build().values.sum())
            a[i] = orig - h
            fm = float(build().values.sum())
            a[i] = orig
            want[i] = (fp - fm) / (2 * h)
        err = np.abs(got - want) / np.maximum(np.abs(want), 1.0)
        assert err.max() < rtol, f"max rel err {err.max():.2e}"


def leaf(rng, shape):
    return ad.parameter(rng.normal(size=shape).astype(np.float64))


def scalarize(fm):
    return ad.sum_all(ad.mul(fm, fm))


@pytest.mark.parametrize("seed", SEEDS)
def test_grad_add_sub_mul(seed):
    rng = np.random.default_rng(seed)
    a, b = leaf(rng, (4, 3)), leaf(rng, (4, 3))
    fd_check(lambda: scalarize(ad.add(a, b)), [a, b])
    fd_check(lambda: scalarize(ad.sub(a, b)), [a, b])
    fd_check(lambda: scalarize(ad.mul(a, b)), [a, b])


@pytest.mark.parametrize("seed", SEEDS)
def test_grad_matmul_linear(seed):
    rng = np.random.default_rng(seed)
    x, m = leaf(rng, (4, 3)), leaf(rng, (3, 5))
    w, bias = leaf(rng, (5, 3)), leaf(rng, (1, 5))
    fd_check(lambda: scalarize(ad.linear(x, w, bias)), [x, w, bias])


@pytest.mark.parametrize("seed", SEEDS)
def test_grad_relu_sigmoid_scale(seed):
    rng = np.random.default_rng(seed)
    a = leaf(rng, (6, 2))
    a.values[np.abs(a.values) < 1e-2] += 0.1  # keep clear of the relu kink
    fd_check(lambda: scalarize(ad.relu(a)), [a])
    fd_check(lambda: scalarize(ad.scale(a, -2.5)), [a])


@pytest.mark.parametrize("dtype", [np.float32, np.float64])
def test_relu_values_is_where_bit_for_bit(dtype):
    """NaN and -0.0 map to +0.0, +-inf and subnormals as np.where maps them,
    in the vectorized body and the scalar tail of every length."""
    rng = np.random.default_rng(0)
    tiny = np.finfo(dtype).smallest_subnormal
    specials = np.array([np.nan, -0.0, 0.0, np.inf, -np.inf, tiny, -tiny], dtype)
    for n in [*range(1, 40), 1001]:
        v = rng.normal(size=n).astype(dtype)
        pos = rng.permutation(n)[: len(specials)]
        v[pos] = specials[: len(pos)]
        want = np.where(v > 0, v, 0).astype(dtype)
        for got in (ad.relu_values(v), ad.relu(ad.constant(v)).values):
            assert got.dtype == dtype
            assert got.tobytes() == want.tobytes()


@pytest.mark.parametrize("seed", SEEDS)
def test_grad_row_ops(seed):
    rng = np.random.default_rng(seed)
    a = leaf(rng, (6, 3))
    # distinct rows, as row_gather requires, and zero rows from -1
    keep = int(rng.integers(1, 7))
    idx1 = rng.permutation(np.concatenate([rng.permutation(6)[:keep], np.full(3, -1)]))
    fd_check(lambda: scalarize(ad.row_gather(a, idx1)), [a])


@pytest.mark.parametrize("seed", SEEDS)
def test_grad_reductions(seed):
    rng = np.random.default_rng(seed)
    a = leaf(rng, (5, 4))
    fd_check(lambda: ad.sum_all(ad.mul(a, a)), [a])


def test_gradient_accumulates_on_reuse():
    a = ad.parameter(np.array([[2.0]]))
    with ad.Tape():
        loss = ad.sum_all(ad.add(a, a))
        ad.backward(loss)
    assert a.grad[0, 0] == 2.0


def test_first_gradients_do_not_share_storage():
    """`add` hands one gradient to both inputs; accumulating more into one
    input's gradient must leave the other's as it was."""
    x = ad.parameter(np.ones((2, 3)))
    y = ad.parameter(np.ones((2, 3)))
    with ad.Tape():
        loss = ad.sum_all(ad.add(ad.add(x, y), x))
        ad.backward(loss)
    assert np.array_equal(x.grad, np.full((2, 3), 2.0))
    assert np.array_equal(y.grad, np.ones((2, 3)))


def test_first_gradient_is_kept_without_a_copy():
    """A backward that returns a fresh array of the input's dtype hands
    that very array on as the input's .grad."""
    x = ad.parameter(np.ones((2, 3)))
    returned = []

    def back(g):
        returned.append(np.full((2, 3), 3.0))
        return (returned[0],)

    with ad.Tape():
        y = ad.custom_op(x.values * 3.0, [x], back)
        ad.backward(ad.sum_all(y))
    assert x.grad is returned[0]


def test_backward_errors():
    a = ad.parameter(np.ones((2, 2)))
    with pytest.raises(DomainError):
        ad.backward(ad.constant(np.ones((1, 1))))  # detached
    with ad.Tape():
        y = ad.add(a, a)
        with pytest.raises(DomainError):
            ad.backward(y)  # not a scalar
        ad.backward(ad.sum_all(y))


def test_add_needs_equal_shapes():
    """A (1, c) row does not broadcast: ad.linear adds its own bias."""
    with pytest.raises(DomainError, match="shape mismatch"):
        ad.add(ad.constant(np.ones((5, 3))), ad.constant(np.ones((1, 3))))


def test_nested_tape_rejected():
    with ad.Tape():
        with pytest.raises(DomainError):
            with ad.Tape():
                pass


def test_tape_cleared_after_backward():
    a = ad.parameter(np.ones((2, 2)))
    with ad.Tape() as t:
        loss = ad.sum_all(a)
        ad.backward(loss)
        assert t.ops == []


def scale_by(a, factor):
    """a * factor; only the op's backward keeps `factor`."""
    return ad.custom_op(a.values * factor, [a], lambda g: (g * factor,))


def test_backward_frees_each_closure_as_it_replays():
    x = ad.parameter(np.ones((2, 2)))
    factor = np.full((2, 2), 3.0)
    factor_ref = weakref.ref(factor)
    seen = []

    def first_back(g):
        seen.append(factor_ref())
        return (g,)

    with ad.Tape():
        h = ad.custom_op(x.values * 2.0, [x], first_back)
        y = scale_by(h, factor)
        del factor
        ad.backward(ad.sum_all(y))
    assert seen == [None]
    assert np.array_equal(x.grad, np.full((2, 2), 3.0))


def test_backward_keeps_only_leaf_gradients():
    rng = np.random.default_rng(0)
    x = ad.parameter(rng.normal(size=(4, 3)))
    w = ad.parameter(rng.normal(size=(2, 3)))
    with ad.Tape() as tape:
        h = ad.linear(x, w)
        r = ad.relu(h)
        sq = ad.mul(r, r)
        loss = ad.sum_all(sq)
        ad.backward(loss)
    assert all(fm.grad is None for fm in (h, r, sq, loss))
    assert x.grad.shape == (4, 3) and w.grad.shape == (2, 3)
    assert tape.ops == []


def test_backward_needs_a_live_tape():
    a = ad.parameter(np.ones((2, 2)))
    with ad.Tape():
        loss = ad.sum_all(a)
    with pytest.raises(DomainError, match="detached"):
        ad.backward(loss)  # nothing held the tape past its block
    assert a.grad is None
    with ad.Tape() as tape:
        loss = ad.sum_all(a)
    ad.backward(loss)  # the caller holds it
    assert np.array_equal(a.grad, np.ones((2, 2)))
    assert tape.ops == []


def test_untracked_inputs_stay_untracked():
    c = ad.constant(np.ones((2, 2)))
    with ad.Tape() as t:
        out = ad.add(c, c)
        assert not ad.tracked(out)
        assert t.ops == []


def test_reader_remakes_a_taped_output_until_its_op_replays():
    """A taped output's slot carries its recipe: a reader holds the slot,
    not the array, and remakes the values on each call until the output's
    own op replays, which drops the recipe even with no gradient to give.
    Untaped, the output carries none and a reader returns its array."""
    x = ad.parameter(np.arange(6.0).reshape(3, 2))
    calls = []

    def twice():
        calls.append(1)
        return x.values * 2.0

    with ad.Tape():
        y = ad.custom_op(twice(), [x], lambda g: (g * 2.0,), remake=twice)
        values = weakref.ref(y.values)
        read = ad.reader(y)
        del y
        assert values() is None
        unread = ad.custom_op(twice(), [x], lambda g: (g * 2.0,), remake=twice)
        assert np.array_equal(read(), x.values * 2.0) and len(calls) == 3
        ad.backward(ad.sum_all(ad.linear(x, ad.constant(np.ones((1, 2))))))
    assert unread._slot.remake is None
    with pytest.raises(DomainError, match="after its op replayed"):
        read()
    untaped = ad.custom_op(twice(), [x], lambda g: (g * 2.0,), remake=twice)
    assert untaped._slot.remake is None
    assert ad.reader(untaped)() is untaped.values
