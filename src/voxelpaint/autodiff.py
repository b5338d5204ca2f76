"""Dense tensors with reverse-mode automatic differentiation.

Five-dimensional data follows the [batch, channel, depth, height, width]
layout. Every forward op that touches a gradient-requiring tensor records
a closure on its output (the elementwise ops and reductions build theirs
through ``_binary`` and ``_unary``); Tensor.backward() on a scalar result
replays the closures in reverse topological order and accumulates into
.grad buffers.

A graph backs once. As the backward walks it, each interior node drops its
.grad, its closure and its parents as soon as its closure has run, so the
arrays the closure saved are freed once nothing downstream needs them; only
leaves (parameters and other tensors built with requires_grad=True) keep
their .grad. A second backward that reaches a spent node raises RuntimeError.

A closure keeps no per-voxel array that it can recompute from its operands:
``instance_norm`` centres its input again, ``relu`` compares its input with
zero again, and ``dropout`` keeps its draw as bools. That is safe by one
rule: a closure reads the arrays of its operands, which the graph holds, and
nothing writes a graph-held array before the backward pass (an op writes in
place only into a buffer it has just made; Adam updates parameters after it).

Inside ``with no_grad():`` no graph is built on that thread: op outputs
carry neither parents nor closures, so intermediates are freed as soon as
the forward pass drops them.

Buffers are float32 by default. float64 graphs are supported so that
finite-difference test harnesses can run the same code at full precision.
"""

from __future__ import annotations

import contextlib
import ctypes
import threading
from functools import lru_cache, partial

import numpy as np

from . import util
from .errors import ShapeError

_FLOAT_DTYPES = (np.dtype(np.float32), np.dtype(np.float64))
# Bytes of input plus accumulator rows in one block of the tap-conv walk.
# Measured on one OpenBLAS thread: 512 KiB gives the 48^3 base-8 U-Net's
# 24-to-8-channel layer 4096 columns a block, and its forward ran 12-16 ms
# there, 16-20 ms at 256 KiB and 1 MiB, 37-39 ms in one pass over the grid.
# The one-channel blur3d runs within 1.2x of one pass (7-9x slower at 4096).
BLOCK = 512 * 1024
# Fewest blocks in each part of a split tap-conv walk. On one BLAS thread and
# two cores, a 2-block walk loses split in two: a 24^3 8-to-8 conv3d forward
# and backward took 4.1 ms whole, 4.7 ms split. Splitting every walk
# (PART_BLOCKS = 1) is no clear gain per layer: 24^3 8-to-16 slowed on two
# 2-core hosts, 12^3 96-to-32 slowed on one and gained on the other. The split
# pays on perfbench train-desk: without it, infer_cases_per_s lost 17 of 22
# pairs on one host (median ratio 0.895) and 10 of 12 on another (0.869);
# train_samples_per_s lost 17 of 22 (0.926) on the first, noise on the other.
PART_BLOCKS = 2


class _GradSwitch(threading.local):
    """Whether ops build a graph, set apart for each thread."""

    enabled = True


_grad = _GradSwitch()


@contextlib.contextmanager
def no_grad():
    """Build no graph inside the block, for forward passes nobody differentiates.

    The switch is per thread: the block stops graph building only on the
    thread that entered it, and its exit restores that thread's own state.
    """
    previous, _grad.enabled = _grad.enabled, False
    try:
        yield
    finally:
        _grad.enabled = previous


class Tensor:
    """Dense array node in a reverse-mode differentiation graph.

    ``grad`` stays None until a backward pass deposits something; None
    means an all-zero gradient. ``_parents`` is None once the node's
    backward has run (see Tensor.backward).
    """

    __slots__ = ("data", "requires_grad", "grad", "_parents", "_backward")

    def __init__(self, data, requires_grad: bool = False):
        arr = np.asarray(data)
        if arr.dtype not in _FLOAT_DTYPES:
            arr = arr.astype(np.float32)
        self.data = arr
        self.requires_grad = bool(requires_grad)
        self.grad: np.ndarray | None = None
        self._parents: tuple[Tensor, ...] | None = ()
        self._backward = None

    @property
    def shape(self) -> tuple[int, ...]:
        return self.data.shape

    @property
    def size(self) -> int:
        return self.data.size

    @property
    def dtype(self):
        return self.data.dtype

    def item(self) -> float:
        if self.data.size != 1:
            raise ShapeError(f"item() needs a scalar, got shape {self.shape}")
        return float(self.data.reshape(()))

    def zero_grad(self) -> None:
        self.grad = None

    def __repr__(self) -> str:
        return f"Tensor(shape={self.shape}, dtype={self.data.dtype}, requires_grad={self.requires_grad})"

    # -- graph construction helpers -------------------------------------

    def _lift(self, other) -> "Tensor":
        if isinstance(other, Tensor):
            return other
        return Tensor(np.asarray(other, dtype=self.data.dtype))

    # -- elementwise arithmetic ------------------------------------------

    def __add__(self, other):
        return _binary(self, other, np.add, lambda g, x, y: g, lambda g, x, y: g)

    __radd__ = __add__

    def __sub__(self, other):
        return _binary(self, other, np.subtract, lambda g, x, y: g, lambda g, x, y: -g)

    def __rsub__(self, other):
        return self._lift(other) - self

    def __mul__(self, other):
        return _binary(self, other, np.multiply, lambda g, x, y: g * y, lambda g, x, y: g * x)

    __rmul__ = __mul__

    def __truediv__(self, other):
        return _binary(self, other, np.true_divide, lambda g, x, y: g / y, lambda g, x, y: -g * x / (y * y))

    def __rtruediv__(self, other):
        return self._lift(other) / self

    def __neg__(self):
        return _unary(self, np.negative, lambda g, x: -g)

    def abs(self):
        """Elementwise |x|; the subgradient at zero is zero."""
        return _unary(self, np.abs, lambda g, x: g * np.sign(x))

    # -- reductions -------------------------------------------------------

    def sum(self):
        return _unary(self, lambda x: np.asarray(x.sum(), dtype=x.dtype),
                      lambda g, x: np.broadcast_to(g, x.shape).astype(x.dtype, copy=False))

    def mean(self):
        return _unary(self, lambda x: np.asarray(x.mean(), dtype=x.dtype),
                      lambda g, x: np.broadcast_to(g / x.size, x.shape).astype(x.dtype, copy=False))

    # -- backward ----------------------------------------------------------

    def backward(self) -> None:
        """Accumulate d(self)/d(leaf) into every reachable leaf's .grad.

        self must hold a single value. Each graph node is visited exactly
        once, in reverse topological order. Interior gradients are not kept:
        once a node's closure has run, the node drops its .grad, closure and
        parents, and only leaves keep .grad. The graph is spent afterwards;
        a backward that reaches any of its interior nodes again raises
        RuntimeError before touching a gradient. The root's own .grad is
        seeded by adding one, like every other gradient path, so a leaf may
        call backward() on itself and add one to what earlier backwards
        deposited.
        """
        if self.data.size != 1:
            raise ShapeError(f"backward() needs a scalar loss, got shape {self.shape}")

        order: list[Tensor] = []
        visited: set[int] = set()
        stack: list[tuple[Tensor, bool]] = [(self, False)]
        while stack:
            node, children_done = stack.pop()
            if children_done:
                order.append(node)
                continue
            if id(node) in visited:
                continue
            if node._parents is None:
                raise RuntimeError(
                    "backward() reached a node whose graph was already backed through; "
                    "a graph backs once, so run the forward again to build a new one")
            visited.add(id(node))
            stack.append((node, True))
            for parent in node._parents:
                if id(parent) not in visited and parent.requires_grad:
                    stack.append((parent, False))

        seed = np.ones_like(self.data)
        self.grad = seed if self.grad is None else self.grad + seed
        while order:
            node = order.pop()
            if node._backward is not None:
                node._backward(node.grad)
                # parents None marks the node spent; its saved arrays go with the closure
                node.grad = node._backward = node._parents = None


def _node(data: np.ndarray, parents: tuple[Tensor, ...], backward) -> Tensor:
    out = Tensor(data)
    if _grad.enabled and any(p.requires_grad for p in parents):
        out.requires_grad = True
        out._parents = parents
        out._backward = backward
    return out


def _binary(a: Tensor, b, value, grad_a, grad_b) -> Tensor:
    """Node of an elementwise op on ``a`` and ``b``, a non-Tensor ``b`` lifted to a's dtype.

    ``value(x, y)`` maps the operands' arrays x, y to the output; ``grad_a(g, x, y)``
    and ``grad_b`` give each operand's vector-Jacobian product, and each runs only
    when its operand requires a gradient. Only scalar-vs-array broadcasting is
    allowed, so a one-element operand's product reduces to its shape by a full sum.
    """
    b = a._lift(b)
    x, y = a.data, b.data
    if x.shape != y.shape and x.size != 1 and y.size != 1:
        raise ShapeError(f"operand shapes {a.shape} and {b.shape} do not match")

    def backward(g):
        for t, grad in ((a, grad_a), (b, grad_b)):
            if t.requires_grad:
                d = grad(g, x, y)
                if d.shape != t.data.shape:
                    d = np.asarray(d.sum(), dtype=d.dtype).reshape(t.data.shape)
                _accumulate(t, d)

    return _node(value(x, y), (a, b), backward)


def _unary(x: Tensor, value, grad) -> Tensor:
    """Node of a one-operand op: ``value(v)`` on x's array v, ``grad(g, v)`` its vector-Jacobian product."""

    def backward(g):
        _accumulate(x, grad(g, x.data))

    return _node(value(x.data), (x,), backward)


def _accumulate(t: Tensor, g: np.ndarray) -> None:
    if not t.requires_grad:
        return
    if t.grad is None:
        t.grad = np.empty_like(t.data)
        np.copyto(t.grad, g)
    else:
        t.grad += g


def _check_5d(x: Tensor, name: str) -> None:
    if x.data.ndim != 5:
        raise ShapeError(f"{name} must be 5-D [N,C,D,H,W], got {x.shape}")


def _pad(a: np.ndarray, p: int) -> np.ndarray:
    """[N,C,D,H,W] zero-padded by p on both sides of each spatial axis: one zeroed buffer, one copy."""
    n, c, d, h, w = a.shape
    out = np.zeros((n, c, d + 2 * p, h + 2 * p, w + 2 * p), dtype=a.dtype)
    out[:, :, p:p + d, p:p + h, p:p + w] = a
    return out


@lru_cache(maxsize=256)
def _taps(padded: tuple[int, ...], kernel: tuple[int, ...]):
    """Output extent, window length and per-tap flat offsets of a valid correlation.

    On the flattened padded grid [Dp*Hp*Wp], the input window of tap
    (a,b,c) is the contiguous run of ``span`` elements starting at
    a*Hp*Wp + b*Wp + c; output voxel (z,y,x) sits at z*Hp*Wp + y*Wp + x.
    Cached: every call of a layer asks again, and the tuples are immutable.
    """
    _, hp, wp = padded
    d, h, w = (e - k + 1 for e, k in zip(padded, kernel))
    span = (d - 1) * hp * wp + (h - 1) * wp + w
    offsets = tuple((tap, tap[0] * hp * wp + tap[1] * wp + tap[2]) for tap in np.ndindex(*kernel))
    return (d, h, w), span, offsets


def _block_columns(span: int, n: int, cin: int, cout: int, itemsize: int) -> int:
    """Grid columns per block of a walk over ``span`` columns.

    The target is the width at which n*(cin+cout) rows fill BLOCK bytes;
    the span is then cut into the nearest whole number of equal blocks, so
    no short block is left over at the end (a 16^3 layer whose span is
    1.3 targets runs as one block, not as a full one and a slow short one).
    """
    target = max(1, BLOCK // (n * (cin + cout) * itemsize))
    return -(-span // max(1, round(span / target)))


def _tap_conv(xp: np.ndarray, weight: np.ndarray) -> np.ndarray:
    """Valid cross-correlation of [N,Cin,Dp,Hp,Wp] with [Cout,Cin,kd,kh,kw].

    One GEMM per kernel tap, each reading its window as a strided view of
    the flattened input and accumulating on the padded output grid, which
    is cropped at the end. No im2col buffer: working memory is O(output).

    The grid is walked in equal blocks of columns (about ``BLOCK`` bytes of
    input and accumulator rows each), and all taps land on one block before
    the walk moves on. The block's accumulator and the input rows it reads
    stay in cache, instead of the whole grid streaming through memory once
    per tap.

    Each tap's GEMM adds its product straight into the block's accumulator
    rows (``util.gemm``: BLAS with beta = 1), one call per batch item, so
    no product buffer is written and read back. Where numpy bundles no
    such BLAS, ``np.matmul`` writes each product to a buffer that is then
    added; the sums are the same, so either path gives the same bytes.

    Blocks write disjoint columns, so on the cores BLAS leaves free
    (``util.free_workers``) the walk is cut into contiguous runs of blocks,
    at least ``PART_BLOCKS`` each, run side by side on the pool. Every
    block runs the same GEMMs and sums in either case, so the output is
    byte-identical at any worker count. The parts call nothing a tracer
    wraps.
    """
    n, cin, dp, hp, wp = xp.shape
    cout = weight.shape[0]
    (d, h, w), span, offsets = _taps((dp, hp, wp), weight.shape[2:])
    dtype = np.result_type(xp, weight)
    # both operands contiguous in the result dtype, so the BLAS path can take their addresses
    flat = np.ascontiguousarray(xp.reshape(n, cin, dp * hp * wp), dtype=dtype)
    # [kd,kh,kw,Cout,Cin]: each tap's matrix contiguous, as BLAS needs
    wt = np.ascontiguousarray(weight.transpose(2, 3, 4, 0, 1), dtype=dtype)
    acc = np.zeros((n, cout, d * hp * wp), dtype=dtype)
    cols = _block_columns(span, n, cin, cout, dtype.itemsize)
    gemm = util.gemm(dtype)

    if gemm is None:
        def walk(starts):
            prod = np.empty((n, cout, cols), dtype=dtype)
            for lo in starts:
                hi = min(lo + cols, span)
                block, part = acc[:, :, lo:hi], prod[:, :, :hi - lo]
                for tap, off in offsets:
                    np.matmul(wt[tap], flat[:, :, off + lo:off + hi], out=part)
                    block += part
    else:
        # sizes made C integers once per call rather than once per GEMM
        m, k, ldb, ldc = (ctypes.c_int64(v) for v in (cout, cin, flat.shape[2], acc.shape[2]))
        size = dtype.itemsize
        x0, w0, c0 = flat.ctypes.data, wt.ctypes.data, acc.ctypes.data
        xstep, wstep, cstep = cin * flat.shape[2] * size, cout * cin * size, cout * acc.shape[2] * size

        def walk(starts):
            for lo in starts:
                width = ctypes.c_int64(min(cols, span - lo))
                for i in range(n):
                    x, c = x0 + i * xstep + lo * size, c0 + i * cstep + lo * size
                    for t, (_, off) in enumerate(offsets):
                        gemm(m, width, k, w0 + t * wstep, k, x + off * size, ldb, c, ldc)

    starts = range(0, span, cols)
    parts = min(util.free_workers(), len(starts) // PART_BLOCKS)
    if parts > 1:
        cuts = [i * len(starts) // parts for i in range(parts + 1)]
        util.concurrently(*(partial(walk, starts[a:b]) for a, b in zip(cuts, cuts[1:])))
    else:
        walk(starts)
    return np.ascontiguousarray(acc.reshape(n, cout, d, hp, wp)[:, :, :, :h, :w])


# -- network primitives -----------------------------------------------------


def conv3d(x: Tensor, weight: Tensor, bias: Tensor | None = None, padding: int = 0) -> Tensor:
    """3D cross-correlation with a cubic kernel, stride 1, zero padding.

    x: [N,Cin,D,H,W], weight: [Cout,Cin,k,k,k], bias: [Cout] or None.
    Output spatial extent is D + 2*padding - k + 1 per axis.
    """
    _check_5d(x, "conv3d input")
    if weight.data.ndim != 5:
        raise ShapeError(f"conv3d weight must be 5-D, got {weight.shape}")
    cout, cin, kd, kh, kw = weight.data.shape
    if not (kd == kh == kw):
        raise ShapeError(f"conv3d kernel must be cubic, got {(kd, kh, kw)}")
    k = kd
    if x.data.shape[1] != cin:
        raise ShapeError(f"conv3d input has {x.data.shape[1]} channels, weight expects {cin}")
    if bias is not None and bias.data.shape != (cout,):
        raise ShapeError(f"conv3d bias must be [{cout}], got {bias.shape}")
    p = int(padding)
    if p < 0 or p > k - 1:
        raise ShapeError(f"conv3d padding must be in [0, {k - 1}], got {p}")
    if min(x.data.shape[2:]) + 2 * p < k:
        raise ShapeError(f"conv3d input {x.shape} too small for kernel {k} with padding {p}")

    xp = _pad(x.data, p)
    out = _tap_conv(xp, weight.data)
    if bias is not None:
        out += bias.data.reshape(1, cout, 1, 1, 1)

    parents = (x, weight) if bias is None else (x, weight, bias)

    def backward(g):
        if bias is not None:
            _accumulate(bias, g.sum(axis=(0, 2, 3, 4)))
        if weight.requires_grad:
            # padded again rather than kept from the forward, so the graph holds x once
            xp = _pad(x.data, p)
            n = g.shape[0]
            _, hp, wp = xp.shape[2:]
            (d, h, w), span, offsets = _taps(xp.shape[2:], (k, k, k))
            # g laid out on the padded grid that the forward accumulated on
            ggrid = np.zeros((n, cout, d, hp, wp), dtype=g.dtype)
            ggrid[..., :h, :w] = g
            gflat = ggrid.reshape(n, cout, -1)
            flat = xp.reshape(n, cin, -1)
            # [k,k,k,N,Cout,Cin], summed over N and moved to weight layout once
            gw = np.zeros((k, k, k, n, cout, cin), dtype=g.dtype)
            cols = _block_columns(span, n, cin, cout, g.dtype.itemsize)
            for lo in range(0, span, cols):
                hi = min(lo + cols, span)
                gblock = gflat[:, :, lo:hi]
                for tap, off in offsets:
                    gw[tap] += np.matmul(gblock, flat[:, :, off + lo:off + hi].transpose(0, 2, 1))
            gw = gw.sum(axis=3).transpose(3, 4, 0, 1, 2)
            _accumulate(weight, gw)
            # let the padded copy and the gradient grid go before the input gradient's buffers
            del xp, flat, ggrid, gflat, gblock
        if x.requires_grad:
            q = k - 1 - p
            gp = _pad(g, q)
            wf = weight.data[:, :, ::-1, ::-1, ::-1].transpose(1, 0, 2, 3, 4)
            _accumulate(x, _tap_conv(gp, wf))

    return _node(out, parents, backward)


def blur3d(x: Tensor, taps: np.ndarray) -> Tensor:
    """Separable valid correlation of each [N,C] slice with 1-D ``taps``.

    Equivalent to a conv3d with the outer-product kernel taps x taps x taps,
    run as three passes of the conv3d tap kernel, along D, then H, then W:
    3k instead of k^3 multiply-adds per voxel. Output spatial extent is
    D - k + 1 per axis.
    """
    _check_5d(x, "blur3d input")
    taps = np.asarray(taps, dtype=x.data.dtype)
    k = taps.size
    if min(x.data.shape[2:]) < k:
        raise ShapeError(f"blur3d input {x.shape} too small for {k} taps")

    def blur(v, t):
        n, c = v.shape[:2]
        v = v.reshape(n * c, 1, *v.shape[2:])
        for shape in ((1, 1, k, 1, 1), (1, 1, 1, k, 1), (1, 1, 1, 1, k)):
            v = _tap_conv(v, t.reshape(shape))
        return v.reshape(n, c, *v.shape[2:])

    def backward(g):
        q = k - 1
        _accumulate(x, blur(_pad(g, q), taps[::-1]))

    return _node(blur(x.data, taps), (x,), backward)


def instance_norm(x: Tensor, gamma: Tensor, beta: Tensor, eps: float = 1e-5) -> Tensor:
    """Normalize each (sample, channel) slice over its spatial voxels.

    Uses the biased variance (divisor D*H*W). gamma and beta are [C].

    The statistics reduce in float64 over values centred on the mean, with
    no full-size float64 copy: the variance of a slice offset far from zero
    keeps its precision, and the part of the mean that float32 cannot hold
    is carried per slice instead of being left in the output.
    """
    _check_5d(x, "instance_norm input")
    n, c = x.data.shape[:2]
    if gamma.data.shape != (c,) or beta.data.shape != (c,):
        raise ShapeError(f"instance_norm needs gamma/beta of shape [{c}]")

    axes, dtype = (2, 3, 4), x.data.dtype
    m = int(np.prod(x.data.shape[2:]))
    mean = x.data.mean(axis=axes, dtype=np.float64)
    mean32 = mean.astype(dtype).reshape(n, c, 1, 1, 1)
    xc = x.data - mean32
    # what the float32 mean cannot hold: the centred values are xc - rest
    rest = mean - mean.astype(dtype)
    var = np.einsum("ncdhw,ncdhw->nc", xc, xc, dtype=np.float64) / m - rest * rest
    inv = 1.0 / np.sqrt(var.astype(dtype) + np.asarray(eps, dtype=dtype))
    scale = inv * gamma.data
    # scaled and shifted in place into the output: the backward centres x
    # again rather than keep a second per-voxel array
    out = xc
    out *= scale.reshape(n, c, 1, 1, 1)
    out += (beta.data - rest * scale).astype(dtype).reshape(n, c, 1, 1, 1)

    def backward(g):
        xc = x.data - mean32
        # per-slice sums of g and of g*xhat, xhat = (xc - rest) * inv, in float64
        sg = g.sum(axis=axes, dtype=np.float64)
        sgx = (np.einsum("ncdhw,ncdhw->nc", g, xc, dtype=np.float64) - rest * sg) * inv
        _accumulate(beta, sg.sum(axis=0).astype(dtype))
        _accumulate(gamma, sgx.sum(axis=0).astype(dtype))
        if x.requires_grad:
            # inv*gamma * (g - mean(g) - xhat*mean(g*xhat)), built in xc's buffer
            b = inv * sgx / m
            gx = xc
            gx *= (-b).astype(dtype).reshape(n, c, 1, 1, 1)
            gx += g
            gx -= (sg / m - rest * b).astype(dtype).reshape(n, c, 1, 1, 1)
            gx *= scale.reshape(n, c, 1, 1, 1)
            _accumulate(x, gx)

    return _node(out, (x, gamma, beta), backward)


def relu(x: Tensor) -> Tensor:
    """max(x, 0); the subgradient at zero is zero."""

    def backward(g):
        _accumulate(x, g * (x.data > 0))

    return _node(np.maximum(x.data, 0), (x,), backward)


def prelu(x: Tensor, alpha: Tensor) -> Tensor:
    """x for x >= 0, alpha * x otherwise; alpha is one learnable scalar."""
    if alpha.data.size != 1:
        raise ShapeError(f"prelu alpha must hold one value, got shape {alpha.shape}")
    a = alpha.data.reshape(())
    out = np.minimum(x.data, 0)
    out *= a
    out += np.maximum(x.data, 0)

    def backward(g):
        gn = g * (x.data < 0)
        gx = np.empty_like(gn)
        if alpha.requires_grad:
            np.multiply(gn, x.data, out=gx)
            _accumulate(alpha, np.asarray(gx.sum(), dtype=alpha.data.dtype).reshape(alpha.data.shape))
        if x.requires_grad:
            # g where x >= 0, a*g where x < 0
            np.subtract(g, gn, out=gx)
            gn *= a
            gx += gn
            del gn
            _accumulate(x, gx)

    return _node(out, (x, alpha), backward)


def dropout(x: Tensor, rate: float, training: bool, rng: np.random.Generator | None = None) -> Tensor:
    """Zero each element with probability ``rate``; scale survivors by 1/(1-rate).

    Identity in eval mode or at rate 0. The caller's rng makes the draw
    reproducible.
    """
    if not 0.0 <= rate < 1.0:
        raise ShapeError(f"dropout rate must be in [0, 1), got {rate}")
    if not training or rate == 0.0:
        return x
    if rng is None:
        raise ValueError("dropout in training mode needs an rng")
    # the draw is kept as one byte a voxel; the float factor is rebuilt where it is used
    keep = rng.random(x.data.shape) >= rate

    def factor():
        f = keep.astype(x.data.dtype)
        f *= x.data.dtype.type(1.0 / (1.0 - rate))
        return f

    def backward(g):
        _accumulate(x, g * factor())

    return _node(x.data * factor(), (x,), backward)


def maxpool3d(x: Tensor) -> Tensor:
    """2x2x2 max pooling with stride 2.

    The gradient routes to the first window element equal to the window's
    max, in (kd, kh, kw) scan order, so a tie goes to the earliest slot. A
    window holding NaN pools to NaN and routes its gradient nowhere, since
    no slot compares equal to NaN; training stops on a non-finite loss
    before any backward, so no training run reaches that case.
    """
    _check_5d(x, "maxpool3d input")
    d, h, w = x.data.shape[2:]
    if d % 2 or h % 2 or w % 2:
        raise ShapeError(f"maxpool3d needs even spatial extents, got {(d, h, w)}")
    # slot (a,b,c) of every window, as one strided view of x
    slots = [x.data[:, :, a::2, b::2, c::2] for a, b, c in np.ndindex(2, 2, 2)]
    out = np.maximum(slots[0], slots[1])
    for view in slots[2:]:
        np.maximum(out, view, out=out)

    def backward(g):
        gx = np.empty_like(x.data)
        taken = np.zeros(out.shape, dtype=bool)
        for (a, b, c), view in zip(np.ndindex(2, 2, 2), slots):
            hit = view == out
            np.greater(hit, taken, out=hit)  # equal here and not taken by an earlier slot
            np.multiply(g, hit, out=gx[:, :, a::2, b::2, c::2])
            taken |= hit
        gx += 0  # a slot passed over by a negative g holds -0; adding +0 makes it +0
        _accumulate(x, gx)

    return _node(out, (x,), backward)


def upsample3d_nearest(x: Tensor) -> Tensor:
    """Double every spatial axis by nearest-neighbor replication."""
    _check_5d(x, "upsample3d input")
    n, c, d, h, w = x.data.shape
    out = np.empty((n, c, 2 * d, 2 * h, 2 * w), dtype=x.data.dtype)
    # widen each W row once, then copy it to its four (D, H) positions
    out.reshape(n, c, d, 2, h, 2, 2 * w)[...] = x.data.repeat(2, axis=4)[:, :, :, None, :, None]

    def backward(g):
        # sum each 2x2x2 block: the D pairs of each H half, the two H halves,
        # then the W pairs; two quarter-size buffers at most live at once
        p = g[:, :, 0::2, 0::2] + g[:, :, 1::2, 0::2]
        q = g[:, :, 0::2, 1::2] + g[:, :, 1::2, 1::2]
        p += q
        del q
        _accumulate(x, p[..., 0::2] + p[..., 1::2])

    return _node(out, (x,), backward)


def concat_channels(a: Tensor, b: Tensor) -> Tensor:
    """Stack two tensors along the channel axis, ``a`` first."""
    _check_5d(a, "concat operand")
    if b.data.ndim != 5:
        raise ShapeError(f"concat operand must be 5-D, got {b.shape}")
    if a.data.shape[0] != b.data.shape[0] or a.data.shape[2:] != b.data.shape[2:]:
        raise ShapeError(f"concat operands disagree outside channels: {a.shape} vs {b.shape}")
    ca = a.data.shape[1]
    out = np.concatenate([a.data, b.data], axis=1)

    def backward(g):
        _accumulate(a, g[:, :ca])
        _accumulate(b, g[:, ca:])

    return _node(out, (a, b), backward)
