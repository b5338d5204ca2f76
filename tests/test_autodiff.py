"""Tensor engine: forward semantics, backward correctness, primitive edge cases."""

import threading
import tracemalloc

import numpy as np
import pytest

from conftest import (away_from_zero, conv3d_oracle, conv3d_vjp_oracle, dropout_kept_reference,
                      gradcheck, instance_norm_kept_reference, leaf, maxpool3d_reference,
                      prelu_reference, relu_kept_reference, separated_pool_input, split_walks,
                      upconv3d_composition)
from voxelpaint import autodiff, util
from voxelpaint.autodiff import (
    Tensor,
    blur3d,
    concat_channels,
    conv3d,
    dropout,
    instance_norm,
    maxpool3d,
    no_grad,
    prelu,
    relu,
    upconv3d,
    upsample3d_nearest,
)
from voxelpaint.errors import ShapeError
from voxelpaint.optim import Adam
from voxelpaint.unet import UNetConfig, build_unet


# ---------------------------------------------------------------------------
# Tensor basics
# ---------------------------------------------------------------------------

def test_tensor_casts_non_float_to_f32():
    t = Tensor([1, 2])
    assert t.dtype == np.float32
    assert not t.requires_grad
    assert t.grad is None
    assert Tensor(np.ones(2, dtype=np.float32)).dtype == np.float32


def test_tensor_keeps_f64():
    t = Tensor(np.ones(3, dtype=np.float64))
    assert t.dtype == np.float64


def test_no_grad_drops_graph_and_restores_on_exit():
    w = Tensor(np.ones((2, 2), np.float32), requires_grad=True)
    with no_grad():
        y = relu(w * 2.0)
    assert not y.requires_grad and y._parents == () and y._backward is None
    with pytest.raises(RuntimeError):
        with no_grad():
            raise RuntimeError("leaves the block early")
    z = (w * 2.0).sum()
    assert z.requires_grad
    z.backward()
    assert np.array_equal(w.grad, np.full((2, 2), 2.0, np.float32))


def test_no_grad_switches_off_graph_building_on_its_own_thread_only():
    # one thread's block neither stops graph building on another thread nor,
    # on its exit, switches it back on under a thread that entered later
    w = Tensor(np.ones(2, np.float32), requires_grad=True)
    barrier = threading.Barrier(2, timeout=10)
    seen = {}

    def first():
        with no_grad():
            barrier.wait()  # 1: first is inside its block
            barrier.wait()  # 2: second has built a graph and entered its own block
        barrier.wait()      # 3: first has left its block

    def second():
        barrier.wait()
        seen["beside"] = (w * 2.0).requires_grad
        with no_grad():
            barrier.wait()
            barrier.wait()
            seen["after"] = (w * 2.0).requires_grad

    threads = [threading.Thread(target=f) for f in (first, second)]
    for t in threads:
        t.start()
    for t in threads:
        t.join()
    assert seen == {"beside": True, "after": False}


def test_backward_requires_scalar():
    t = Tensor(np.ones(3), requires_grad=True)
    with pytest.raises(ShapeError):
        (t + t).backward()


def test_item_requires_scalar():
    with pytest.raises(ShapeError):
        Tensor(np.ones(2)).item()


def test_mismatched_shapes_rejected():
    a = Tensor(np.ones((2, 3)))
    b = Tensor(np.ones((3, 2)))
    with pytest.raises(ShapeError):
        _ = a + b


def test_gradient_accumulates_across_uses():
    x = Tensor(np.array([3.0]), requires_grad=True)
    y = x * x + x * x  # dy/dx = 4x
    y.sum().backward()
    assert np.allclose(x.grad, [12.0])


def test_zero_grad_resets_to_none():
    x = Tensor(np.array([1.0]), requires_grad=True)
    (x * 2.0).sum().backward()
    assert x.grad is not None
    x.zero_grad()
    assert x.grad is None


def test_scalar_lift_and_reflected_ops():
    x = Tensor(np.array([2.0, 4.0], dtype=np.float64), requires_grad=True)
    y = (1.0 - x) + (8.0 / x) - (-x) * 0.5
    # y = 1 - x + 8/x + x/2 ; dy/dx = -1 - 8/x^2 + 0.5
    y.sum().backward()
    expected = -1.0 - 8.0 / np.array([4.0, 16.0]) + 0.5
    assert np.allclose(x.grad, expected, atol=1e-12)


def test_mean_matches_sum_over_size():
    x = Tensor(np.arange(6, dtype=np.float64).reshape(2, 3), requires_grad=True)
    x.mean().backward()
    assert np.allclose(x.grad, np.full((2, 3), 1.0 / 6.0))


def test_second_backward_of_a_graph_raises():
    x = Tensor(np.array([1.0, 1.0, 1.0]), requires_grad=True)
    loss = (x * x).sum()
    loss.backward()
    with pytest.raises(RuntimeError, match="already backed through"):
        loss.backward()
    assert np.array_equal(x.grad, [2.0, 2.0, 2.0])


def test_backward_through_a_spent_intermediate_raises():
    x = Tensor(np.array([1.0, 2.0]), requires_grad=True)
    w = Tensor(np.array([3.0, 3.0]), requires_grad=True)
    y = x * 2.0
    (y * 3.0).sum().backward()
    assert y.grad is None and y._parents is None
    with pytest.raises(RuntimeError, match="already backed through"):
        (y * w).sum().backward()
    # the walk stops before any closure runs, so no leaf gradient moves
    assert np.array_equal(x.grad, [6.0, 6.0]) and w.grad is None


def test_leaf_backward_on_itself_works_and_leaves_it_usable():
    x = Tensor(np.array(2.0), requires_grad=True)
    x.backward()
    assert x.grad == 1.0 and x._parents == ()
    # a leaf is never spent: graphs built on it later still back through it
    (x * 3.0).backward()
    assert x.grad == 4.0


def test_root_backward_adds_one_to_the_grad_it_holds():
    x = Tensor(np.array(2.0), requires_grad=True)
    (x * 3.0).backward()
    x.backward()
    assert x.grad == 4.0


def test_deep_chain_backward_is_iterative():
    # A graph deep enough to blow the recursion limit if backward recursed.
    x = Tensor(np.array([1.0], dtype=np.float64), requires_grad=True)
    y = x
    for _ in range(5000):
        y = y + 0.0
    y.sum().backward()
    assert np.allclose(x.grad, [1.0])


# ---------------------------------------------------------------------------
# Finite-difference checks for every differentiable primitive (f64 graphs)
# ---------------------------------------------------------------------------

RTOL = 1e-3
H = 1e-3


def test_gradcheck_elementwise():
    rng = np.random.default_rng(11)
    a = away_from_zero(rng, (3, 4))
    b = away_from_zero(rng, (3, 4))

    def build():
        return ((a * b + a - b) / (b * b + 2.0) + (-a).abs()).mean()

    worst = gradcheck(build, [a, b], rng, n_samples=20, h=H)
    assert worst <= RTOL, f"elementwise gradcheck rel err {worst:.3e}"


def test_gradcheck_conv3d_padding0_and_bias():
    rng = np.random.default_rng(12)
    x = leaf(rng, (2, 3, 5, 5, 5))
    w = leaf(rng, (4, 3, 3, 3, 3), scale=0.5)
    b = leaf(rng, (4,), scale=0.5)

    def build():
        return conv3d(x, w, b, padding=0).mean()

    worst = gradcheck(build, [x, w, b], rng, n_samples=20, h=H)
    assert worst <= RTOL, f"conv3d p=0 gradcheck rel err {worst:.3e}"


def test_gradcheck_conv3d_padding1():
    rng = np.random.default_rng(13)
    x = leaf(rng, (1, 2, 4, 4, 4))
    w = leaf(rng, (3, 2, 3, 3, 3), scale=0.5)

    def build():
        return conv3d(x, w, padding=1).mean()

    worst = gradcheck(build, [x, w], rng, n_samples=20, h=H)
    assert worst <= RTOL, f"conv3d p=1 gradcheck rel err {worst:.3e}"


@pytest.mark.parametrize("k,p", [(1, 0), (3, 0), (3, 1)])
def test_gradcheck_conv3d_non_cubic_extents(k, p):
    # Hp != Wp != Dp exercises every term of the flat tap offset a*Hp*Wp + b*Wp + c.
    rng = np.random.default_rng(100 + 10 * k + p)
    x = leaf(rng, (2, 2, 4, 5, 6))
    w = leaf(rng, (3, 2, k, k, k), scale=0.5)
    b = leaf(rng, (3,), scale=0.5)
    probe = leaf(rng, conv3d(x, w, b, padding=p).shape)

    def build():
        return (conv3d(x, w, b, padding=p) * probe).mean()

    worst = gradcheck(build, [x, w, b], rng, n_samples=20, h=H)
    assert worst <= RTOL, f"conv3d k={k} p={p} gradcheck rel err {worst:.3e}"


def test_gradcheck_blur3d_non_cubic():
    rng = np.random.default_rng(19)
    x = leaf(rng, (2, 1, 7, 6, 8))
    taps = np.array([0.2, 0.5, 0.3])  # asymmetric: the backward must flip them
    probe = leaf(rng, (2, 1, 5, 4, 6))

    def build():
        return (blur3d(x, taps) * probe).mean()

    worst = gradcheck(build, [x], rng, n_samples=20, h=H)
    assert worst <= RTOL, f"blur3d gradcheck rel err {worst:.3e}"


def test_gradcheck_instance_norm():
    rng = np.random.default_rng(14)
    x = leaf(rng, (2, 3, 4, 4, 4))
    gamma = leaf(rng, (3,), scale=0.5, offset=1.0)
    beta = leaf(rng, (3,), scale=0.5)

    def build():
        return instance_norm(x, gamma, beta).mean()

    worst = gradcheck(build, [x, gamma, beta], rng, n_samples=20, h=H)
    assert worst <= RTOL, f"instance_norm gradcheck rel err {worst:.3e}"


def test_gradcheck_relu_prelu():
    rng = np.random.default_rng(15)
    x = away_from_zero(rng, (2, 2, 4, 4, 4))
    y = away_from_zero(rng, (2, 2, 4, 4, 4))
    alpha = Tensor(np.array([0.25]), requires_grad=True)

    def build():
        return (relu(x).mean() + prelu(y, alpha).mean())

    worst = gradcheck(build, [x, y, alpha], rng, n_samples=20, h=H)
    assert worst <= RTOL, f"relu/prelu gradcheck rel err {worst:.3e}"


def test_gradcheck_dropout_fixed_mask():
    rng = np.random.default_rng(16)
    x = leaf(rng, (2, 2, 4, 4, 4))

    def build():
        # Same seed each rebuild: an identical mask keeps the map smooth.
        return dropout(x, 0.3, training=True, rng=np.random.default_rng(99)).mean()

    worst = gradcheck(build, [x], rng, n_samples=20, h=H)
    assert worst <= RTOL, f"dropout gradcheck rel err {worst:.3e}"


def test_gradcheck_maxpool_upsample_concat():
    rng = np.random.default_rng(17)
    x = separated_pool_input(rng, 1, 2, 4, 4, 4)
    y = leaf(rng, (1, 3, 4, 4, 4))

    def build():
        pooled = maxpool3d(x)
        up = upsample3d_nearest(pooled)
        return concat_channels(up, y).mean()

    worst = gradcheck(build, [x, y], rng, n_samples=20, h=H)
    assert worst <= RTOL, f"pool/upsample/concat gradcheck rel err {worst:.3e}"


@pytest.mark.parametrize("low_dims", [(3, 2, 3), (2, 4, 2), (1, 3, 2)])
def test_gradcheck_upconv3d(low_dims):
    rng = np.random.default_rng(18)
    low = leaf(rng, (2, 3, *low_dims))
    skip = leaf(rng, (2, 2, *(2 * e for e in low_dims)))
    w = leaf(rng, (4, 5, 3, 3, 3), scale=0.5)
    g = Tensor(rng.standard_normal((2, 4, *(2 * e for e in low_dims))))

    def build():
        return (upconv3d(low, skip, w) * g).mean()

    worst = gradcheck(build, [low, skip, w], rng, n_samples=20, h=H)
    assert worst <= RTOL, f"upconv3d gradcheck rel err {worst:.3e}"


# ---------------------------------------------------------------------------
# Primitive semantics with hand-computed expectations
# ---------------------------------------------------------------------------

def test_conv3d_all_ones_counts_overlap():
    # 3^3 ones image, 3^3 ones kernel, padding 1: each output voxel counts the
    # kernel taps that land inside the image (corner 8, center 27).
    x = Tensor(np.ones((1, 1, 3, 3, 3)))
    w = Tensor(np.ones((1, 1, 3, 3, 3)))
    out = conv3d(x, w, padding=1).data[0, 0]
    assert out[1, 1, 1] == 27.0
    for corner in [(0, 0, 0), (0, 0, 2), (0, 2, 0), (2, 0, 0),
                   (2, 2, 0), (2, 0, 2), (0, 2, 2), (2, 2, 2)]:
        assert out[corner] == 8.0
    oracle = conv3d_oracle(x.data, w.data, padding=1)
    assert np.array_equal(out, oracle[0, 0])


def test_conv3d_matches_oracle_with_bias():
    rng = np.random.default_rng(18)
    x = rng.standard_normal((2, 2, 5, 4, 6)).astype(np.float32)
    # Non-cubic spatial extents with a cubic kernel.
    w = rng.standard_normal((3, 2, 3, 3, 3)).astype(np.float32)
    b = rng.standard_normal(3).astype(np.float32)
    out = conv3d(Tensor(x), Tensor(w), Tensor(b), padding=1).data
    oracle = conv3d_oracle(x, w, b, padding=1)
    assert np.max(np.abs(out - oracle)) <= 1e-5


@pytest.mark.parametrize("k,p", [(1, 0), (3, 0), (3, 1)])
def test_conv3d_backward_matches_vjp_oracle(k, p):
    rng = np.random.default_rng(40 + 10 * k + p)
    x = Tensor(rng.uniform(-1, 1, (2, 2, 4, 5, 6)).astype(np.float32), requires_grad=True)
    w = Tensor(rng.uniform(-1, 1, (3, 2, k, k, k)).astype(np.float32), requires_grad=True)
    out = conv3d(x, w, padding=p)
    g = rng.uniform(-1, 1, out.shape).astype(np.float32)
    (out * Tensor(g)).sum().backward()
    gx_ref, gw_ref = conv3d_vjp_oracle(x.data, w.data, g, padding=p)
    assert x.grad.dtype == np.float32 and w.grad.dtype == np.float32
    assert np.max(np.abs(x.grad - gx_ref)) <= 1e-5
    assert np.max(np.abs(w.grad - gw_ref)) <= 1e-5


def test_conv3d_forward_memory_stays_linear_in_output():
    # An im2col buffer would hold k^3 = 27 copies of the input.
    rng = np.random.default_rng(20)
    x = Tensor(rng.standard_normal((1, 16, 24, 24, 24)).astype(np.float32))
    w = Tensor(rng.standard_normal((16, 16, 3, 3, 3)).astype(np.float32))
    tracemalloc.start()
    try:
        out = conv3d(x, w, padding=1)
        _, peak = tracemalloc.get_traced_memory()
    finally:
        tracemalloc.stop()
    assert peak <= 8 * out.data.nbytes, f"peak {peak / out.data.nbytes:.1f}x the output"


# -- the blocked tap walk -------------------------------------------------------
#
# _tap_conv and the grad-weight loop walk the flattened grid in blocks of
# about BLOCK // (n * (cin + cout) * itemsize) columns. At test sizes the
# default gives one block, so these tests shrink the target to 13 columns.
# The helper checks that the forward span then splits into several blocks
# whose width does not divide it, so block edges fall mid-row and the last
# block is short.

SHORT_BLOCK = 13


def _short_blocks(monkeypatch, n, cin, cout, dtype, padded, kernel):
    itemsize = np.dtype(dtype).itemsize
    monkeypatch.setattr(autodiff, "BLOCK", SHORT_BLOCK * n * (cin + cout) * itemsize)
    span = autodiff._taps(padded, kernel)[1]
    cols = autodiff._block_columns(span, n, cin, cout, itemsize)
    assert cols < span and span % cols, f"span {span} splits evenly into blocks of {cols}"


@pytest.mark.parametrize("k,p", [(1, 0), (3, 0), (3, 1)])
def test_conv3d_short_blocks_match_oracles(monkeypatch, k, p):
    rng = np.random.default_rng(60 + 10 * k + p)
    _short_blocks(monkeypatch, 2, 2, 3, np.float32, (4 + 2 * p, 5 + 2 * p, 6 + 2 * p), (k, k, k))
    x = Tensor(rng.uniform(-1, 1, (2, 2, 4, 5, 6)).astype(np.float32), requires_grad=True)
    w = Tensor(rng.uniform(-1, 1, (3, 2, k, k, k)).astype(np.float32), requires_grad=True)
    b = rng.uniform(-1, 1, 3).astype(np.float32)
    out = conv3d(x, w, Tensor(b), padding=p)
    assert np.max(np.abs(out.data - conv3d_oracle(x.data, w.data, b, padding=p))) <= 1e-5
    g = rng.uniform(-1, 1, out.shape).astype(np.float32)
    (out * Tensor(g)).sum().backward()
    gx_ref, gw_ref = conv3d_vjp_oracle(x.data, w.data, g, padding=p)
    assert np.max(np.abs(x.grad - gx_ref)) <= 1e-5
    assert np.max(np.abs(w.grad - gw_ref)) <= 1e-5


def test_gradcheck_conv3d_short_blocks(monkeypatch):
    rng = np.random.default_rng(61)
    _short_blocks(monkeypatch, 2, 2, 3, np.float64, (6, 7, 8), (3, 3, 3))
    x = leaf(rng, (2, 2, 4, 5, 6))
    w = leaf(rng, (3, 2, 3, 3, 3), scale=0.5)
    b = leaf(rng, (3,), scale=0.5)
    probe = leaf(rng, (2, 3, 4, 5, 6))

    def build():
        return (conv3d(x, w, b, padding=1) * probe).mean()

    worst = gradcheck(build, [x, w, b], rng, n_samples=20, h=H)
    assert worst <= RTOL, f"conv3d short-block gradcheck rel err {worst:.3e}"


def test_gradcheck_blur3d_short_blocks(monkeypatch):
    # blur3d runs its [N,C] slices as N*C one-channel images: n=2, cin=cout=1;
    # the check covers the first pass, along D
    rng = np.random.default_rng(62)
    _short_blocks(monkeypatch, 2, 1, 1, np.float64, (7, 6, 8), (3, 1, 1))
    x = leaf(rng, (2, 1, 7, 6, 8))
    taps = np.array([0.2, 0.5, 0.3])
    probe = leaf(rng, (2, 1, 5, 4, 6))

    def build():
        return (blur3d(x, taps) * probe).mean()

    worst = gradcheck(build, [x], rng, n_samples=20, h=H)
    assert worst <= RTOL, f"blur3d short-block gradcheck rel err {worst:.3e}"


def test_conv3d_default_blocks_are_deterministic():
    # 8+8 f32 rows: 8192 columns a block at the default, two blocks on this grid
    rng = np.random.default_rng(63)
    x0 = rng.standard_normal((1, 8, 24, 24, 24)).astype(np.float32)
    w0 = rng.standard_normal((8, 8, 3, 3, 3)).astype(np.float32)
    b0 = rng.standard_normal(8).astype(np.float32)
    g = rng.standard_normal((1, 8, 24, 24, 24)).astype(np.float32)
    span = autodiff._taps((26, 26, 26), (3, 3, 3))[1]
    assert autodiff._block_columns(span, 1, 8, 8, 4) < span

    def run():
        x, w, b = (Tensor(a.copy(), requires_grad=True) for a in (x0, w0, b0))
        out = conv3d(x, w, b, padding=1)
        (out * Tensor(g)).sum().backward()
        return out.data, x.grad, w.grad, b.grad

    for first, second in zip(run(), run()):
        assert np.array_equal(first, second)


def _worker_runs(monkeypatch):
    """Bytes of a conv3d and a blur3d forward and backward in 16 short blocks,
    on 1, 2 and 3 workers, and the part counts of the split walks."""
    # 16 blocks of 13 columns, the last one 11, split in 2 and in 3; the
    # last part holds the short block
    rng = np.random.default_rng(64)
    _short_blocks(monkeypatch, 2, 2, 3, np.float32, (6, 7, 8), (3, 3, 3))
    x0 = rng.uniform(-1, 1, (2, 2, 4, 5, 6)).astype(np.float32)
    w0 = rng.uniform(-1, 1, (3, 2, 3, 3, 3)).astype(np.float32)
    g = Tensor(rng.uniform(-1, 1, (2, 3, 4, 5, 6)).astype(np.float32))
    # blur3d's D pass on these [2,1] slices: 8 blocks of 30 columns
    b0 = rng.uniform(-1, 1, (2, 1, 7, 6, 8)).astype(np.float32)
    gb = Tensor(rng.uniform(-1, 1, (2, 1, 5, 4, 6)).astype(np.float32))
    taps = np.array([0.2, 0.5, 0.3])

    def run(workers):
        parts = split_walks(monkeypatch, workers)
        x, w, b = (Tensor(a.copy(), requires_grad=True) for a in (x0, w0, b0))
        out, blurred = conv3d(x, w, padding=1), blur3d(b, taps)
        ((out * g).sum() + (blurred * gb).sum()).backward()
        return [a.tobytes() for a in (out.data, x.grad, w.grad, blurred.data, b.grad)], set(parts)

    return run(1), run(2), run(3)


def test_tap_conv_bytes_do_not_depend_on_the_worker_count(monkeypatch):
    (one, none), (two, halves), (three, thirds) = _worker_runs(monkeypatch)
    # blur3d's shorter H and W passes split in 2 at most
    assert none == set() and halves == {2} and thirds == {2, 3}
    assert one == two == three


def test_tap_conv_runs_three_blocks_as_one_part(monkeypatch):
    # span 28 in 3 blocks of 10: split in two, one part would hold fewer than PART_BLOCKS
    rng = np.random.default_rng(65)
    monkeypatch.setattr(autodiff, "BLOCK", 10 * 1 * (1 + 1) * 4)
    span = autodiff._taps((1, 1, 30), (1, 1, 3))[1]
    assert -(-span // autodiff._block_columns(span, 1, 1, 1, 4)) == 3 < 2 * autodiff.PART_BLOCKS
    parts = split_walks(monkeypatch, 2)
    x = rng.uniform(-1, 1, (1, 1, 1, 1, 30)).astype(np.float32)
    out = autodiff._tap_conv(x, np.array([1.0, 2.0, 3.0], dtype=np.float32).reshape(1, 1, 1, 1, 3))
    assert parts == []
    assert np.allclose(out[0, 0, 0, 0], x[0, 0, 0, 0, :-2] + 2 * x[0, 0, 0, 0, 1:-1] + 3 * x[0, 0, 0, 0, 2:])


# -- the BLAS walk against the numpy walk ---------------------------------------
#
# Where numpy bundles scipy-openblas, _tap_conv's GEMMs add straight into
# the accumulator (util.gemm); elsewhere np.matmul writes a product that is
# then added. The two must give the same bytes.

needs_blas = pytest.mark.skipif(util.gemm(np.dtype(np.float32)) is None,
                                reason="numpy bundles no ILP64 scipy-openblas here")


def _on_both_walks(monkeypatch, fn):
    """fn() on the BLAS walk, then fn() with util.gemm forced to None."""
    blas = fn()
    with monkeypatch.context() as patch:
        patch.setattr(util, "gemm", lambda dtype: None)
        return blas, fn()


def _conv_bytes(seed, n, cin, cout, k, dtype, grid=6):
    rng = np.random.default_rng(seed)
    x = Tensor(rng.uniform(-1, 1, (n, cin, grid, grid + 1, grid + 2)).astype(dtype), requires_grad=True)
    w = Tensor(rng.uniform(-1, 1, (cout, cin, k, k, k)).astype(dtype), requires_grad=True)
    out = conv3d(x, w, padding=k // 2)
    (out * Tensor(rng.uniform(-1, 1, out.shape).astype(dtype))).sum().backward()
    return [a.tobytes() for a in (out.data, x.grad, w.grad)]


# every (Cin, Cout, k) of the base-8 U-Net in f32, then batch 2 and f64
_CONVS = [(1, cin, cout, k, np.float32) for cin, cout, k in sorted(
    {(w.shape[1], w.shape[0], w.shape[2]) for _, w in
     build_unet(UNetConfig(base_channels=8), np.random.default_rng(0)).parameters() if w.data.ndim == 5})]
_CONVS += [(2, 8, 16, 3, np.float32), (1, 8, 16, 3, np.float64), (2, 8, 16, 3, np.float64)]


@needs_blas
@pytest.mark.parametrize("n,cin,cout,k,dtype", _CONVS,
                         ids=[f"n{n}_{a}to{b}_k{k}_{np.dtype(t).name}" for n, a, b, k, t in _CONVS])
def test_blas_walk_matches_numpy_walk_on_conv3d(monkeypatch, n, cin, cout, k, dtype):
    blas, numpy = _on_both_walks(monkeypatch, lambda: _conv_bytes(70 + cin + 100 * cout, n, cin, cout, k, dtype))
    assert blas == numpy


@needs_blas
@pytest.mark.parametrize("dtype", [np.float32, np.float64])
def test_blas_walk_matches_numpy_walk_on_the_blur_passes(monkeypatch, dtype):
    # 2x3 slices of 9x10x11 through the D, H and W passes, forward and backward
    rng = np.random.default_rng(72)
    x0 = rng.uniform(-1, 1, (2, 3, 9, 10, 11)).astype(dtype)
    g = rng.uniform(-1, 1, (2, 3, 5, 6, 7)).astype(dtype)
    taps = rng.uniform(0, 1, 5)

    def run():
        x = Tensor(x0.copy(), requires_grad=True)
        out = blur3d(x, taps)
        (out * Tensor(g)).sum().backward()
        return out.data.tobytes(), x.grad.tobytes()

    blas, numpy = _on_both_walks(monkeypatch, run)
    assert blas == numpy


@needs_blas
def test_blas_walk_matches_numpy_walk_on_mixed_and_strided_operands(monkeypatch):
    # f32 input with f64 weights, and an input that is a strided view
    rng = np.random.default_rng(73)
    base = rng.uniform(-1, 1, (2, 4, 8, 9, 20))
    cases = [(base[:, :, :, :, :10].astype(np.float32), rng.uniform(-1, 1, (3, 4, 3, 3, 3))),
             (base[:, :, :, :, ::2], rng.uniform(-1, 1, (5, 4, 3, 3, 3))),
             (base.transpose(0, 1, 4, 3, 2)[:, ::2], rng.uniform(-1, 1, (2, 2, 3, 3, 3)).astype(np.float32))]
    for xp, w in cases:
        blas, numpy = _on_both_walks(monkeypatch, lambda: autodiff._tap_conv(xp, w))
        assert blas.dtype == numpy.dtype == np.result_type(xp, w)
        assert blas.tobytes() == numpy.tobytes()


@needs_blas
def test_blas_walk_matches_numpy_walk_at_any_worker_count(monkeypatch):
    blas, numpy = _on_both_walks(monkeypatch, lambda: [run[0] for run in _worker_runs(monkeypatch)])
    assert blas == numpy


def test_conv3d_validation():
    x = Tensor(np.ones((1, 1, 4, 4, 4)))
    with pytest.raises(ShapeError):
        conv3d(x, Tensor(np.ones((1, 1, 3, 3, 2))))  # non-cubic kernel
    with pytest.raises(ShapeError):
        conv3d(x, Tensor(np.ones((1, 1, 3, 3, 3))), padding=3)  # p > k-1
    with pytest.raises(ShapeError):
        conv3d(x, Tensor(np.ones((1, 2, 3, 3, 3))))  # channel mismatch


@pytest.mark.parametrize("dtype", [np.float32, np.float64])
@pytest.mark.parametrize("p", [0, 1, 2])
@pytest.mark.parametrize("shape", [(1, 1, 1, 1, 1), (2, 3, 1, 4, 1), (1, 2, 3, 2, 5)])
def test_pad_equals_np_pad_bitwise(dtype, p, shape):
    a = np.random.default_rng(19).standard_normal(shape).astype(dtype)
    a.flat[0] = -0.0
    padded = autodiff._pad(a, p)
    expected = np.pad(a, ((0, 0), (0, 0), (p, p), (p, p), (p, p)))
    assert padded.dtype == expected.dtype and padded.shape == expected.shape
    assert padded.tobytes() == expected.tobytes()


def test_instance_norm_two_voxels():
    # Spatial values {0, 2}: mean 1, biased variance 1, so outputs are ±1.
    x = Tensor(np.array([0.0, 2.0]).reshape(1, 1, 1, 1, 2))
    gamma = Tensor(np.ones(1))
    beta = Tensor(np.zeros(1))
    out = instance_norm(x, gamma, beta, eps=0.0).data
    assert np.allclose(out.ravel(), [-1.0, 1.0], atol=1e-6)


def test_instance_norm_gamma_beta_applied():
    rng = np.random.default_rng(19)
    x = Tensor(rng.standard_normal((1, 2, 3, 3, 3)).astype(np.float32))
    gamma = Tensor(np.array([2.0, 0.5], dtype=np.float32))
    beta = Tensor(np.array([1.0, -1.0], dtype=np.float32))
    out = instance_norm(x, gamma, beta, eps=1e-5).data
    for c in range(2):
        xc = x.data[0, c].astype(np.float64)
        ref = (xc - xc.mean()) / np.sqrt(xc.var() + 1e-5)
        ref = ref * gamma.data[c] + beta.data[c]
        assert np.allclose(out[0, c], ref, atol=1e-5)


def test_instance_norm_keeps_precision_on_an_offset_slice():
    # A slice at 1000 + N(0, 1): a one-pass E[x^2] - E[x]^2 in float32 loses
    # its unit variance. The constant slice beside it has zero variance.
    rng = np.random.default_rng(23)
    data = np.full((1, 2, 32, 32, 32), 1000.0, dtype=np.float32)
    data[0, 0] += rng.standard_normal((32, 32, 32)).astype(np.float32)
    x = Tensor(data, requires_grad=True)
    gamma = Tensor(np.array([1.5, 0.5], dtype=np.float32), requires_grad=True)
    beta = Tensor(np.array([0.25, -1.0], dtype=np.float32), requires_grad=True)
    out = instance_norm(x, gamma, beta)
    y = (out.data[0, 0].astype(np.float64) - 0.25) / 1.5
    assert abs(y.mean()) <= 1e-4
    assert abs(y.var() - 1.0) <= 1e-3
    assert np.all(np.isfinite(out.data[0, 1]))

    g = rng.standard_normal(out.shape).astype(np.float32)
    (out * Tensor(g)).sum().backward()
    # the instance-norm VJP written out in float64
    x64, g64 = data.astype(np.float64), g.astype(np.float64)
    mu = x64.mean(axis=(2, 3, 4), keepdims=True)
    inv = 1.0 / np.sqrt(x64.var(axis=(2, 3, 4), keepdims=True) + 1e-5)
    xhat = (x64 - mu) * inv
    gg = g64 * gamma.data.astype(np.float64).reshape(1, 2, 1, 1, 1)
    gx_ref = inv * (gg - gg.mean(axis=(2, 3, 4), keepdims=True)
                    - xhat * (gg * xhat).mean(axis=(2, 3, 4), keepdims=True))
    refs = ((x, gx_ref), (gamma, (g64 * xhat).sum(axis=(0, 2, 3, 4))),
            (beta, g64.sum(axis=(0, 2, 3, 4))))
    for t, ref in refs:
        assert t.grad.dtype == np.float32
        err = np.max(np.abs(t.grad - ref)) / np.max(np.abs(ref))
        assert err <= 1e-5, f"relative error {err:.2e}"


def test_instance_norm_cancels_a_conv_bias():
    # why the U-Net's norm-fed convs carry no bias: the norm subtracts each
    # channel's mean, and with it any per-channel constant the conv adds
    rng = np.random.default_rng(29)
    x0 = rng.standard_normal((1, 2, 6, 6, 6))
    w0 = rng.standard_normal((3, 2, 3, 3, 3))
    gamma = Tensor(rng.uniform(0.5, 1.5, 3))
    beta = Tensor(rng.standard_normal(3))
    g = Tensor(rng.standard_normal((1, 3, 6, 6, 6)))

    def run(bias):
        x, w = Tensor(x0.copy(), requires_grad=True), Tensor(w0.copy(), requires_grad=True)
        out = instance_norm(conv3d(x, w, bias, padding=1), gamma, beta)
        (out * g).sum().backward()
        return out.data, x.grad, w.grad

    bias = Tensor(rng.normal(0.0, 5.0, 3), requires_grad=True)
    for got, want in zip(run(bias), run(None)):
        assert got.dtype == np.float64
        assert np.max(np.abs(got - want)) <= 1e-12
    assert np.max(np.abs(bias.grad)) <= 1e-12


def test_relu_and_prelu_values():
    x = Tensor(np.array([-2.0, -0.5, 0.0, 0.5, 2.0]).reshape(1, 1, 1, 1, 5))
    assert np.allclose(relu(x).data.ravel(), [0.0, 0.0, 0.0, 0.5, 2.0])
    alpha = Tensor(np.array([0.1], dtype=np.float32))
    out = prelu(x, alpha).data.ravel()
    assert np.allclose(out, [-0.2, -0.05, 0.0, 0.5, 2.0], atol=1e-7)


def test_prelu_matches_where_reference_on_exact_zeros():
    rng = np.random.default_rng(24)
    data = rng.standard_normal((2, 3, 4, 5, 6)).astype(np.float32)
    data.flat[::7] = 0.0
    data.flat[3::11] = -0.0
    g = rng.standard_normal(data.shape).astype(np.float32)
    g.flat[::5] = 0.0
    x = Tensor(data, requires_grad=True)
    alpha = Tensor(np.array([0.3], dtype=np.float32), requires_grad=True)
    out = prelu(x, alpha)
    (out * Tensor(g)).sum().backward()
    out_ref, gx_ref, galpha_ref = prelu_reference(data, alpha.data[0], g)
    # == compares values, so -0 and +0 count as equal
    assert out.data.dtype == x.grad.dtype == alpha.grad.dtype == np.float32
    assert np.all(out.data == out_ref)
    assert np.all(x.grad == gx_ref)
    assert alpha.grad[0] == galpha_ref


def test_dropout_eval_and_zero_rate_are_identity():
    x = Tensor(np.arange(8.0, dtype=np.float32))
    assert np.array_equal(dropout(x, 0.4, training=False).data, x.data)
    assert np.array_equal(
        dropout(x, 0.0, training=True, rng=np.random.default_rng(0)).data, x.data)


def test_dropout_scales_survivors():
    x = Tensor(np.ones(10000, dtype=np.float32))
    rate = 0.3
    out = dropout(x, rate, training=True, rng=np.random.default_rng(7)).data
    kept = out != 0.0
    assert np.allclose(out[kept], 1.0 / (1.0 - rate))
    assert abs(kept.mean() - (1.0 - rate)) < 0.02


def test_dropout_training_requires_rng():
    with pytest.raises(ValueError):
        dropout(Tensor(np.ones(3)), 0.5, training=True)


# -- recomputed in the backward, not kept from the forward ------------------
#
# instance_norm centres its input again, relu compares it with zero again and
# dropout keeps its draw as bools; outputs and gradients must match the
# kept-array references in conftest byte for byte.

def _recompute_input(case):
    rng = np.random.default_rng(31)
    if case == "n2":
        data = rng.standard_normal((2, 3, 5, 6, 7)).astype(np.float32)
        data.flat[::13] = 0.0
        data.flat[5::17] = -0.0
    else:  # a slice at 1000 + N(0, 1) beside a constant one
        data = np.full((1, 2, 8, 8, 8), 1000.0, dtype=np.float32)
        data[0, 0] += rng.standard_normal((8, 8, 8)).astype(np.float32)
    return data, rng.standard_normal(data.shape).astype(np.float32)


def _assert_same_bytes(got, want):
    assert got.dtype == want.dtype and got.shape == want.shape
    assert got.tobytes() == want.tobytes()


@pytest.mark.parametrize("case", ["n2", "offset_slice"])
def test_instance_norm_matches_the_kept_centred_input_byte_for_byte(case):
    data, g = _recompute_input(case)
    rng = np.random.default_rng(32)
    c = data.shape[1]
    x = Tensor(data, requires_grad=True)
    gamma = Tensor(rng.uniform(0.5, 1.5, c).astype(np.float32), requires_grad=True)
    beta = Tensor(rng.standard_normal(c).astype(np.float32), requires_grad=True)
    out = instance_norm(x, gamma, beta)
    out._backward(g)
    want = instance_norm_kept_reference(data, gamma.data, beta.data, g)
    for got, ref in zip((out.data, x.grad, gamma.grad, beta.grad), want):
        _assert_same_bytes(got, ref)


@pytest.mark.parametrize("case", ["n2", "offset_slice"])
def test_dropout_matches_the_kept_float_factor_byte_for_byte(case):
    data, g = _recompute_input(case)
    x = Tensor(data, requires_grad=True)
    out = dropout(x, 0.3, training=True, rng=np.random.default_rng(33))
    out._backward(g)
    want = dropout_kept_reference(data, 0.3, np.random.default_rng(33), g)
    for got, ref in zip((out.data, x.grad), want):
        _assert_same_bytes(got, ref)


@pytest.mark.parametrize("case", ["n2", "offset_slice"])
def test_relu_matches_the_kept_positive_mask_byte_for_byte(case):
    data, g = _recompute_input(case)
    x = Tensor(data, requires_grad=True)
    out = relu(x)
    out._backward(g)
    for got, ref in zip((out.data, x.grad), relu_kept_reference(data, g)):
        _assert_same_bytes(got, ref)


# -- the decoder's upsample + concat + conv as one op ------------------------


def _upconv_run(op, low0, skip0, w0, g, wants):
    """op's output and the gradients of the operands named in ``wants``, as bytes."""
    low, skip, w = (Tensor(a.copy(), requires_grad=name in wants)
                    for name, a in (("low", low0), ("skip", skip0), ("weight", w0)))
    out = op(low, skip, w)
    (out * Tensor(g)).sum().backward()
    return [out.data.tobytes()] + [t.grad.tobytes() for t in (low, skip, w) if t.requires_grad]


@pytest.mark.parametrize("n,low_dims", [(1, (4, 4, 4)), (2, (3, 5, 2)), (2, (1, 1, 1))])
@pytest.mark.parametrize("wants", [("low", "skip", "weight"), ("low", "weight"), ("skip",)],
                         ids=["all", "no_skip", "skip_only"])
def test_upconv3d_matches_the_composition_byte_for_byte(n, low_dims, wants):
    rng = np.random.default_rng(36)
    full = tuple(2 * e for e in low_dims)
    low = rng.standard_normal((n, 6, *low_dims)).astype(np.float32)
    skip = rng.standard_normal((n, 3, *full)).astype(np.float32)
    w = rng.standard_normal((4, 9, 3, 3, 3)).astype(np.float32)
    g = rng.standard_normal((n, 4, *full)).astype(np.float32)
    got = _upconv_run(upconv3d, low, skip, w, g, wants)
    assert got == _upconv_run(upconv3d_composition, low, skip, w, g, wants)
    assert len(got) == 1 + len(wants)


def test_upconv3d_keeps_no_joined_array_in_the_graph():
    # the composition's graph also holds the upsampled and the concatenated
    # arrays, 8 + 8 + 8 = 24 low grids against the operands' 1 + 8
    rng = np.random.default_rng(37)
    low = Tensor(rng.standard_normal((1, 8, 8, 8, 8)).astype(np.float32), requires_grad=True)
    skip = Tensor(rng.standard_normal((1, 8, 16, 16, 16)).astype(np.float32), requires_grad=True)
    w = Tensor(rng.standard_normal((8, 16, 3, 3, 3)).astype(np.float32), requires_grad=True)
    held = {}
    for op in (upconv3d, upconv3d_composition):
        tracemalloc.start()
        try:
            out = op(low, skip, w)
            held[op] = tracemalloc.get_traced_memory()[0] - out.data.nbytes
            del out
        finally:
            tracemalloc.stop()
    assert held[upconv3d] < 2**16
    assert held[upconv3d_composition] > low.data.nbytes * 16


def test_upconv3d_validation():
    low = Tensor(np.ones((1, 2, 2, 2, 2)))
    skip = Tensor(np.ones((1, 3, 4, 4, 4)))
    with pytest.raises(ShapeError):
        upconv3d(low, Tensor(np.ones((1, 3, 4, 4, 5))), Tensor(np.ones((1, 5, 3, 3, 3))))
    with pytest.raises(ShapeError):
        upconv3d(low, Tensor(np.ones((2, 3, 4, 4, 4))), Tensor(np.ones((1, 5, 3, 3, 3))))
    with pytest.raises(ShapeError):
        upconv3d(low, skip, Tensor(np.ones((1, 4, 3, 3, 3))))  # channel mismatch
    with pytest.raises(ShapeError):
        upconv3d(low, skip, Tensor(np.ones((1, 5, 1, 1, 1))))  # not a 3^3 kernel
    assert upconv3d(low, skip, Tensor(np.ones((1, 5, 3, 3, 3)))).shape == (1, 1, 4, 4, 4)


def test_maxpool_values_and_first_tie_routing():
    # All-equal window: the gradient must land on the first flattened slot,
    # which is the (0,0,0) corner of the 2x2x2 block.
    x = Tensor(np.full((1, 1, 2, 2, 2), 5.0), requires_grad=True)
    out = maxpool3d(x)
    assert out.data.shape == (1, 1, 1, 1, 1)
    assert out.data.ravel()[0] == 5.0
    out.sum().backward()
    expected = np.zeros((1, 1, 2, 2, 2), dtype=np.float32)
    expected[0, 0, 0, 0, 0] = 1.0
    assert np.array_equal(x.grad, expected)


def test_maxpool_matches_block_reduce():
    rng = np.random.default_rng(20)
    data = rng.standard_normal((2, 3, 4, 6, 8)).astype(np.float32)
    out = maxpool3d(Tensor(data)).data
    for n in range(2):
        for c in range(3):
            for z in range(2):
                for y in range(3):
                    for x in range(4):
                        block = data[n, c, 2 * z:2 * z + 2,
                                     2 * y:2 * y + 2, 2 * x:2 * x + 2]
                        assert out[n, c, z, y, x] == block.max()


def _tied_pool_windows(rng):
    """Windows of 8 values with the max tied at every slot pair, and -0/+0 ties."""
    windows = []
    for s, t in ((s, t) for s in range(8) for t in range(s + 1, 8)):
        w = rng.uniform(-1.0, 0.4, 8)
        w[s] = w[t] = 0.5
        windows.append(w)
        # the max is a zero, held as -0 at one slot and +0 at the other
        for first, second in ((-0.0, 0.0), (0.0, -0.0)):
            w = rng.uniform(-1.0, -0.1, 8)
            w[s], w[t] = first, second
            windows.append(w)
    windows.append(np.full(8, 0.75))
    while len(windows) < 2 * 4 * 4 * 4:
        windows.append(rng.standard_normal(8))
    win = np.stack(windows)[rng.permutation(len(windows))].astype(np.float32)
    win = win.reshape(1, 2, 4, 4, 4, 2, 2, 2)
    return np.ascontiguousarray(win.transpose(0, 1, 2, 5, 3, 6, 4, 7).reshape(1, 2, 8, 8, 8))


def test_maxpool_f32_gradient_matches_argmax_reference_bit_for_bit():
    rng = np.random.default_rng(25)
    data = _tied_pool_windows(rng)
    x = Tensor(data, requires_grad=True)
    out = maxpool3d(x)
    g = rng.standard_normal(out.shape).astype(np.float32)
    (out * Tensor(g)).sum().backward()
    out_ref, gx_ref = maxpool3d_reference(data, g)
    assert np.array_equal(out.data, out_ref)
    assert x.grad.dtype == np.float32
    assert np.array_equal(x.grad.view(np.uint32), gx_ref.view(np.uint32))


def test_maxpool_forward_memory_stays_within_twice_the_output():
    # A transposed copy of the input and an int64 argmax come to about 10x.
    rng = np.random.default_rng(26)
    x = Tensor(rng.standard_normal((1, 8, 48, 48, 48)).astype(np.float32), requires_grad=True)
    tracemalloc.start()
    try:
        out = maxpool3d(x)
        _, peak = tracemalloc.get_traced_memory()
    finally:
        tracemalloc.stop()
    assert peak <= 2 * out.data.nbytes, f"peak {peak / out.data.nbytes:.1f}x the output"


def test_maxpool_requires_even_extents():
    with pytest.raises(ShapeError):
        maxpool3d(Tensor(np.ones((1, 1, 3, 4, 4))))


def test_upsample_after_maxpool_restores_block_constant_input():
    # Block-constant volumes are fixed points of maxpool followed by
    # nearest-neighbour upsampling.
    rng = np.random.default_rng(21)
    coarse = rng.standard_normal((1, 2, 2, 2, 2)).astype(np.float32)
    fine = coarse.repeat(2, 2).repeat(2, 3).repeat(2, 4)
    restored = upsample3d_nearest(maxpool3d(Tensor(fine))).data
    assert np.array_equal(restored, fine)


def test_upsample_repeats_each_voxel():
    x = Tensor(np.arange(8.0, dtype=np.float32).reshape(1, 1, 2, 2, 2))
    up = upsample3d_nearest(x).data
    assert up.shape == (1, 1, 4, 4, 4)
    assert np.array_equal(up, x.data.repeat(2, 2).repeat(2, 3).repeat(2, 4))


def test_upsample_backward_is_the_block_sum():
    rng = np.random.default_rng(27)
    x = Tensor(rng.standard_normal((2, 3, 3, 4, 5)).astype(np.float32), requires_grad=True)
    out = upsample3d_nearest(x)
    g = rng.standard_normal(out.shape).astype(np.float32)
    (out * Tensor(g)).sum().backward()
    blocks = g.astype(np.float64).reshape(2, 3, 3, 2, 4, 2, 5, 2)
    ref = blocks.sum(axis=(3, 5, 7))
    # seven float32 additions per block, each off by at most half an ulp
    bound = 3.5 * np.finfo(np.float32).eps * np.abs(blocks).sum(axis=(3, 5, 7))
    assert x.grad.dtype == np.float32
    assert np.all(np.abs(x.grad - ref) <= bound)


def test_upsample_backward_memory_and_addition_tree():
    # The quarter sums share one buffer: about 4x the input gradient's bytes
    # (two quarters, the result and the stored gradient). Halving D, H and W
    # in turn keeps a half and a quarter at once and came to about 6x.
    rng = np.random.default_rng(28)
    x = Tensor(rng.standard_normal((1, 16, 24, 24, 24)).astype(np.float32), requires_grad=True)
    out = upsample3d_nearest(x)
    g = rng.standard_normal(out.shape).astype(np.float32)
    tracemalloc.start()
    try:
        out._backward(g)
        _, peak = tracemalloc.get_traced_memory()
    finally:
        tracemalloc.stop()
    assert peak <= 4.5 * x.data.nbytes, f"peak {peak / x.data.nbytes:.1f}x the input gradient"
    # the same additions in the same order as halving D, then H, then W
    ref = g[:, :, 0::2] + g[:, :, 1::2]
    ref = ref[:, :, :, 0::2] + ref[:, :, :, 1::2]
    assert np.array_equal(x.grad, ref[..., 0::2] + ref[..., 1::2])


def test_concat_channels_order_and_backward_split():
    a = Tensor(np.ones((1, 2, 2, 2, 2)), requires_grad=True)
    b = Tensor(np.zeros((1, 3, 2, 2, 2)), requires_grad=True)
    cat = concat_channels(a, b)
    assert cat.shape == (1, 5, 2, 2, 2)
    assert np.array_equal(cat.data[:, :2], a.data)
    assert np.array_equal(cat.data[:, 2:], b.data)
    (cat * 3.0).sum().backward()
    assert np.allclose(a.grad, 3.0)
    assert np.allclose(b.grad, 3.0)


def test_concat_rejects_spatial_mismatch():
    with pytest.raises(ShapeError):
        concat_channels(Tensor(np.ones((1, 1, 2, 2, 2))),
                        Tensor(np.ones((1, 1, 4, 4, 4))))


# ---------------------------------------------------------------------------
# Adam
# ---------------------------------------------------------------------------

def test_adam_first_step_magnitude():
    # With bias correction the very first step moves by almost exactly lr.
    p = Tensor(np.array([1.0], dtype=np.float64), requires_grad=True)
    p.grad = np.array([1.0], dtype=np.float64)
    Adam([p], lr=1e-4).step()
    delta = 1.0 - p.data[0]
    assert 0.99e-4 <= delta <= 1.0e-4, f"first Adam step moved {delta:.3e}"


def test_adam_matches_reference_loop():
    rng = np.random.default_rng(22)
    p = Tensor(rng.standard_normal(5).astype(np.float64), requires_grad=True)
    ref = p.data.copy()
    lr, b1, b2, eps = 1e-2, 0.9, 0.999, 1e-8
    opt = Adam([p], lr=lr, betas=(b1, b2), eps=eps)
    m = np.zeros(5)
    v = np.zeros(5)
    for t in range(1, 8):
        g = rng.standard_normal(5)
        p.grad = g.copy()
        opt.step()
        m = b1 * m + (1 - b1) * g
        v = b2 * v + (1 - b2) * g * g
        mh = m / (1 - b1 ** t)
        vh = v / (1 - b2 ** t)
        ref = ref - lr * mh / (np.sqrt(vh) + eps)
        assert np.allclose(p.data, ref, atol=1e-12)


def test_adam_step_consumes_the_gradients():
    # the applied gradients go with the step, so the next forward pass does
    # not run beside them; a second step without a backward moves by the
    # decayed moments alone, as for a zero gradient
    p = Tensor(np.array([1.0, -2.0]), requires_grad=True)
    q = Tensor(np.array([1.0, -2.0]), requires_grad=True)
    opt, ref = Adam([p], lr=0.1), Adam([q], lr=0.1)
    p.grad = np.array([0.5, 0.25])
    q.grad = p.grad.copy()
    opt.step()
    ref.step()
    assert p.grad is None
    opt.step()
    q.grad = np.zeros(2)
    ref.step()
    assert p.data.tobytes() == q.data.tobytes()


def test_adam_skips_params_without_grad():
    p = Tensor(np.array([2.0]), requires_grad=True)
    q = Tensor(np.array([3.0]), requires_grad=True)
    p.grad = np.array([1.0], dtype=np.float32)
    opt = Adam([p, q], lr=0.1)
    opt.step()
    assert q.data[0] == 3.0
    assert p.data[0] != 2.0
