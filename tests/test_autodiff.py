"""Tensor engine: forward semantics, backward correctness, primitive edge cases."""

import tracemalloc

import numpy as np
import pytest

from conftest import (away_from_zero, conv3d_oracle, conv3d_vjp_oracle, gradcheck, leaf,
                      maxpool3d_reference, prelu_reference, separated_pool_input)
from voxelpaint import autodiff
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
    upsample3d_nearest,
)
from voxelpaint.errors import ShapeError
from voxelpaint.optim import Adam


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


def test_conv3d_validation():
    x = Tensor(np.ones((1, 1, 4, 4, 4)))
    with pytest.raises(ShapeError):
        conv3d(x, Tensor(np.ones((1, 1, 3, 3, 2))))  # non-cubic kernel
    with pytest.raises(ShapeError):
        conv3d(x, Tensor(np.ones((1, 1, 3, 3, 3))), padding=3)  # p > k-1
    with pytest.raises(ShapeError):
        conv3d(x, Tensor(np.ones((1, 2, 3, 3, 3))))  # channel mismatch


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


def test_adam_skips_params_without_grad():
    p = Tensor(np.array([2.0]), requires_grad=True)
    q = Tensor(np.array([3.0]), requires_grad=True)
    p.grad = np.array([1.0], dtype=np.float32)
    opt = Adam([p, q], lr=0.1)
    opt.step()
    assert q.data[0] == 3.0
    assert p.data[0] != 2.0
