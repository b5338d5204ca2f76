"""Dense tensors with reverse-mode automatic differentiation.

Five-dimensional data follows the [batch, channel, depth, height, width]
layout. Every forward op that touches a gradient-requiring tensor records
a closure on its output; Tensor.backward() on a scalar result replays the
closures in reverse topological order and accumulates into .grad buffers.

A graph backs once. As the backward walks it, each interior node drops its
.grad, its closure and its parents as soon as its closure has run, so the
arrays the closure saved are freed once nothing downstream needs them; only
leaves (parameters and other tensors built with requires_grad=True) keep
their .grad. A second backward that reaches a spent node raises RuntimeError.

Inside ``with no_grad():`` no graph is built: op outputs carry neither
parents nor closures, so intermediates are freed as soon as the forward
pass drops them.

Buffers are float32 by default. float64 graphs are supported so that
finite-difference test harnesses can run the same code at full precision.
"""

from __future__ import annotations

import contextlib

import numpy as np

from .errors import ShapeError

_FLOAT_DTYPES = (np.dtype(np.float32), np.dtype(np.float64))
# Bytes of input plus accumulator rows in one block of the tap-conv walk.
# Measured on one OpenBLAS thread: 512 KiB gives the 48^3 base-8 U-Net's
# 24-to-8-channel layer a target of 4096 columns, near which its forward
# runs fastest, and gives the one-channel blur3d passes blocks long enough
# to amortize each call (a fixed 4096 columns made them 1.0-1.6x slower
# than one pass over the grid, across three probes).
BLOCK = 512 * 1024
_grad_enabled = True


@contextlib.contextmanager
def no_grad():
    """Build no graph inside the block, for forward passes nobody differentiates."""
    global _grad_enabled
    previous, _grad_enabled = _grad_enabled, False
    try:
        yield
    finally:
        _grad_enabled = previous


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
        other = self._lift(other)
        _check_binary(self, other)
        out_data = self.data + other.data

        def backward(g):
            _accumulate(self, _reduce_to(g, self.data.shape))
            _accumulate(other, _reduce_to(g, other.data.shape))

        return _node(out_data, (self, other), backward)

    __radd__ = __add__

    def __sub__(self, other):
        other = self._lift(other)
        _check_binary(self, other)
        out_data = self.data - other.data

        def backward(g):
            _accumulate(self, _reduce_to(g, self.data.shape))
            _accumulate(other, _reduce_to(-g, other.data.shape))

        return _node(out_data, (self, other), backward)

    def __rsub__(self, other):
        return self._lift(other) - self

    def __mul__(self, other):
        other = self._lift(other)
        _check_binary(self, other)
        out_data = self.data * other.data

        def backward(g):
            _accumulate(self, _reduce_to(g * other.data, self.data.shape))
            _accumulate(other, _reduce_to(g * self.data, other.data.shape))

        return _node(out_data, (self, other), backward)

    __rmul__ = __mul__

    def __truediv__(self, other):
        other = self._lift(other)
        _check_binary(self, other)
        out_data = self.data / other.data

        def backward(g):
            _accumulate(self, _reduce_to(g / other.data, self.data.shape))
            _accumulate(other, _reduce_to(-g * self.data / (other.data * other.data), other.data.shape))

        return _node(out_data, (self, other), backward)

    def __rtruediv__(self, other):
        return self._lift(other) / self

    def __neg__(self):
        def backward(g):
            _accumulate(self, -g)

        return _node(-self.data, (self,), backward)

    def abs(self):
        """Elementwise |x|; the subgradient at zero is zero."""
        sign = np.sign(self.data)

        def backward(g):
            _accumulate(self, g * sign)

        return _node(np.abs(self.data), (self,), backward)

    # -- reductions -------------------------------------------------------

    def sum(self):
        def backward(g):
            _accumulate(self, np.broadcast_to(g, self.data.shape).astype(self.data.dtype, copy=False))

        return _node(np.asarray(self.data.sum(), dtype=self.data.dtype), (self,), backward)

    def mean(self):
        n = self.data.size

        def backward(g):
            _accumulate(self, np.broadcast_to(g / n, self.data.shape).astype(self.data.dtype, copy=False))

        return _node(np.asarray(self.data.mean(), dtype=self.data.dtype), (self,), backward)

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
    if _grad_enabled and any(p.requires_grad for p in parents):
        out.requires_grad = True
        out._parents = parents
        out._backward = backward
    return out


def _accumulate(t: Tensor, g: np.ndarray) -> None:
    if not t.requires_grad:
        return
    if t.grad is None:
        t.grad = np.empty_like(t.data)
        np.copyto(t.grad, g)
    else:
        t.grad += g


def _reduce_to(g: np.ndarray, shape: tuple[int, ...]) -> np.ndarray:
    # binary ops only broadcast scalar-vs-array, so a full sum suffices
    if g.shape == shape:
        return g
    return np.asarray(g.sum(), dtype=g.dtype).reshape(shape)


def _check_binary(a: Tensor, b: Tensor) -> None:
    if a.data.shape != b.data.shape and a.data.size != 1 and b.data.size != 1:
        raise ShapeError(f"operand shapes {a.shape} and {b.shape} do not match")


def _check_5d(x: Tensor, name: str) -> None:
    if x.data.ndim != 5:
        raise ShapeError(f"{name} must be 5-D [N,C,D,H,W], got {x.shape}")


def _taps(padded: tuple[int, ...], kernel: tuple[int, ...]):
    """Output extent, window length and per-tap flat offsets of a valid correlation.

    On the flattened padded grid [Dp*Hp*Wp], the input window of tap
    (a,b,c) is the contiguous run of ``span`` elements starting at
    a*Hp*Wp + b*Wp + c; output voxel (z,y,x) sits at z*Hp*Wp + y*Wp + x.
    """
    _, hp, wp = padded
    d, h, w = (e - k + 1 for e, k in zip(padded, kernel))
    span = (d - 1) * hp * wp + (h - 1) * wp + w
    offsets = [(tap, tap[0] * hp * wp + tap[1] * wp + tap[2]) for tap in np.ndindex(*kernel)]
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
    the walk moves on. The block's accumulator, its product and the input
    rows it reads stay in cache, instead of the whole grid streaming through
    memory once per tap.
    """
    n, cin, dp, hp, wp = xp.shape
    cout = weight.shape[0]
    (d, h, w), span, offsets = _taps((dp, hp, wp), weight.shape[2:])
    flat = xp.reshape(n, cin, dp * hp * wp)
    # [kd,kh,kw,Cout,Cin]: each tap's matrix contiguous, as BLAS needs
    wt = np.ascontiguousarray(weight.transpose(2, 3, 4, 0, 1))
    dtype = np.result_type(xp, weight)
    acc = np.zeros((n, cout, d * hp * wp), dtype=dtype)
    cols = _block_columns(span, n, cin, cout, dtype.itemsize)
    prod = np.empty((n, cout, cols), dtype=dtype)
    for lo in range(0, span, cols):
        hi = min(lo + cols, span)
        block, part = acc[:, :, lo:hi], prod[:, :, :hi - lo]
        for tap, off in offsets:
            np.matmul(wt[tap], flat[:, :, off + lo:off + hi], out=part)
            block += part
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

    xp = np.pad(x.data, ((0, 0), (0, 0), (p, p), (p, p), (p, p)))
    out = _tap_conv(xp, weight.data)
    if bias is not None:
        out += bias.data.reshape(1, cout, 1, 1, 1)

    parents = (x, weight) if bias is None else (x, weight, bias)

    def backward(g):
        if bias is not None:
            _accumulate(bias, g.sum(axis=(0, 2, 3, 4)))
        if weight.requires_grad:
            # padded again rather than kept from the forward, so the graph holds x once
            xp = np.pad(x.data, ((0, 0), (0, 0), (p, p), (p, p), (p, p)))
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
            gp = np.pad(g, ((0, 0), (0, 0), (q, q), (q, q), (q, q)))
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
        _accumulate(x, blur(np.pad(g, ((0, 0), (0, 0), (q, q), (q, q), (q, q))), taps[::-1]))

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
    xc = x.data - mean.astype(dtype).reshape(n, c, 1, 1, 1)
    # what the float32 mean cannot hold: the centred values are xc - rest
    rest = mean - mean.astype(dtype)
    var = np.einsum("ncdhw,ncdhw->nc", xc, xc, dtype=np.float64) / m - rest * rest
    inv = 1.0 / np.sqrt(var.astype(dtype) + np.asarray(eps, dtype=dtype))
    scale = inv * gamma.data
    out = xc * scale.reshape(n, c, 1, 1, 1)
    out += (beta.data - rest * scale).astype(dtype).reshape(n, c, 1, 1, 1)

    def backward(g):
        # per-slice sums of g and of g*xhat, xhat = (xc - rest) * inv, in float64
        sg = g.sum(axis=axes, dtype=np.float64)
        sgx = (np.einsum("ncdhw,ncdhw->nc", g, xc, dtype=np.float64) - rest * sg) * inv
        _accumulate(beta, sg.sum(axis=0).astype(dtype))
        _accumulate(gamma, sgx.sum(axis=0).astype(dtype))
        if x.requires_grad:
            # inv*gamma * (g - mean(g) - xhat*mean(g*xhat))
            b = inv * sgx / m
            gx = xc * (-b).astype(dtype).reshape(n, c, 1, 1, 1)
            gx += g
            gx -= (sg / m - rest * b).astype(dtype).reshape(n, c, 1, 1, 1)
            gx *= scale.reshape(n, c, 1, 1, 1)
            _accumulate(x, gx)

    return _node(out, (x, gamma, beta), backward)


def relu(x: Tensor) -> Tensor:
    """max(x, 0); the subgradient at zero is zero."""
    pos = x.data > 0

    def backward(g):
        _accumulate(x, g * pos)

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
    keep = (rng.random(x.data.shape) >= rate).astype(x.data.dtype)
    keep *= x.data.dtype.type(1.0 / (1.0 - rate))

    def backward(g):
        _accumulate(x, g * keep)

    return _node(x.data * keep, (x,), backward)


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
