"""Dense tensors with reverse-mode automatic differentiation.

Every numeric primitive the models need lives here: matmul (with an
optional fused bias), multi-head attention, broadcast elementwise
arithmetic, layer norm, softmax/log-softmax, GELU, dropout,
drop-path, reductions, shape ops, overlapping patch extraction and
bilinear upsampling. Executed primitives are recorded in execution
order on the calling thread's :class:`Tape`; ``backward`` sweeps that
record in reverse, so gradient accumulation order is fixed by forward
order and runs are bit-stable. Each thread records its own graph and
must run ``backward`` on it itself.

A recorded op gets a :class:`Node` that holds no value: its backward
rule and its inputs' nodes (a leaf input is the tensor itself, whose
``grad`` ``backward`` sets). The rule takes the output gradient and
returns one entry per input: the input's gradient, or ``None`` for an
input that did not require a gradient when the op ran. Frozen operands
(encoder weights, constants, wrapped scalars) therefore cost no backward
work. Each rule closes over only the arrays and shapes it reads, so a
forward buffer that no rule reads is freed as soon as the forward code
drops its tensor, while the graph is still alive. A node links only to
its inputs' nodes, so the graph holds no cycle: once ``Tape.clear`` has
run, reference counting frees every node and the buffers they saved.
"""

from __future__ import annotations

import contextlib
import functools
import math
import threading
from typing import Callable, Optional, Sequence

import numpy as np
from scipy.special import erf

LAYER_NORM_EPS = 1e-6


class ShapeError(ValueError):
    """Raised when operand shapes violate an operation's contract."""


class Tape(threading.local):
    """Execution-ordered record of primitive operations, one per thread.

    Each thread that touches a tape sees its own list of recorded
    nodes and grad flag. Reverse iteration visits each exactly once,
    which is the traversal ``backward`` uses. Clear it between training
    steps to release intermediate buffers; tensors kept past ``clear``
    keep their values, but a ``backward`` through them raises.
    """

    def __init__(self):
        self._nodes: list[Node] = []
        self.grad_enabled = True

    def clear(self) -> None:
        self._nodes.clear()

    def __len__(self) -> int:
        return len(self._nodes)


_TAPE = Tape()


def active_tape() -> Tape:
    """The calling thread's tape."""
    return _TAPE


@contextlib.contextmanager
def no_grad():
    """Disable tape recording inside the block, in the calling thread."""
    saved, _TAPE.grad_enabled = _TAPE.grad_enabled, False
    try:
        yield
    finally:
        _TAPE.grad_enabled = saved


class Node:
    """A recorded op's place in the graph: its ``backward_fn`` and, per
    input, the input's node, the input itself if it is a leaf that
    requires a gradient, or ``None``. It holds no value of its own."""

    __slots__ = ("inputs", "backward_fn")
    requires_grad = True

    def __init__(self, inputs: tuple, backward_fn: Callable):
        self.inputs = inputs
        self.backward_fn = backward_fn


class Tensor:
    """A dense row-major n-d value with an optional gradient buffer; a
    recorded op's result also holds the op's ``node``."""

    __slots__ = ("data", "grad", "requires_grad", "node")

    def __init__(self, data, requires_grad: bool = False):
        arr = np.asarray(data)
        if arr.dtype.kind != "f":
            arr = arr.astype(np.float64)
        self._fill(arr, requires_grad)

    def _fill(self, data: np.ndarray, requires_grad: bool) -> None:
        """Set every slot; ``data`` must already be a float ndarray."""
        self.data: np.ndarray = data
        self.grad: Optional[np.ndarray] = None
        self.requires_grad = requires_grad
        self.node: Optional[Node] = None

    # -- introspection ------------------------------------------------
    @property
    def shape(self) -> tuple[int, ...]:
        return self.data.shape

    @property
    def ndim(self) -> int:
        return self.data.ndim

    @property
    def size(self) -> int:
        return self.data.size

    @property
    def dtype(self):
        return self.data.dtype

    def item(self) -> float:
        if self.data.size != 1:
            raise ShapeError(f"item requires a one-element tensor, got shape {self.shape}")
        return float(self.data.reshape(-1)[0])

    def __repr__(self):
        return f"Tensor(shape={self.shape}, requires_grad={self.requires_grad})"

    # -- operators ----------------------------------------------------
    def __add__(self, other):
        return add(self, other)

    __radd__ = __add__

    def __mul__(self, other):
        return mul(self, other)

    __rmul__ = __mul__


def _as_tensor(value, dtype) -> Tensor:
    if isinstance(value, Tensor):
        return value
    return Tensor(np.asarray(value, dtype=dtype), requires_grad=False)


def _make(out_data: np.ndarray, inputs: Sequence[Tensor],
          backward_fn: Callable[[np.ndarray], Sequence[Optional[np.ndarray]]]) -> Tensor:
    """Wrap an op result; record it iff gradients can flow. Results keep
    their inputs' float dtype; a numpy scalar becomes a 0-d array."""
    needs = _TAPE.grad_enabled and any(t.requires_grad for t in inputs)
    out = Tensor.__new__(Tensor)
    out._fill(out_data if isinstance(out_data, np.ndarray) else np.asarray(out_data), needs)
    if needs:
        out.node = Node(tuple(t.node or (t if t.requires_grad else None) for t in inputs),
                        backward_fn)
        _TAPE._nodes.append(out.node)
    return out


def _unbroadcast(grad: np.ndarray, shape: tuple[int, ...]) -> np.ndarray:
    """Sum a broadcast gradient back down to ``shape``."""
    if grad.shape == shape:
        return grad
    while grad.ndim > len(shape):
        grad = grad.sum(axis=0)
    for axis, extent in enumerate(shape):
        if extent == 1 and grad.shape[axis] != 1:
            grad = grad.sum(axis=axis, keepdims=True)
    return grad


def backward(loss: Tensor) -> None:
    """Populate ``grad`` on every requires-grad leaf ancestor of ``loss``.

    Leaves are tensors no recorded op produced (parameters, inputs);
    intermediate results get no ``grad``, so their gradient buffers are
    freed as the sweep passes them. Repeated calls (without zeroing)
    accumulate one gradient's worth per call. The reverse sweep follows
    tape order, so accumulation order is deterministic for a fixed
    forward order. Backward rules return ``None`` for inputs that did
    not require a gradient when their op was recorded, and those
    inputs are skipped. Raises ``RuntimeError`` if part of the graph is
    not on the calling thread's tape.
    """
    if loss.size != 1:
        raise ShapeError(f"backward requires a scalar loss, got shape {loss.shape}")

    # node or leaf -> pending gradient. A node's rule runs only when it
    # has a pending gradient, so ops outside the loss's graph never run.
    pending: dict = {loss.node or loss: np.ones_like(loss.data)}
    for node in reversed(_TAPE._nodes):
        g_out = pending.pop(node, None)
        if g_out is None:
            continue
        for t, g in zip(node.inputs, node.backward_fn(g_out)):
            if g is None or not t.requires_grad:
                continue
            prev = pending.get(t)
            pending[t] = g if prev is None else prev + g
    if any(isinstance(t, Node) for t in pending):
        raise RuntimeError("backward: the loss's graph is not on this thread's tape; "
                           "it was cleared, or recorded in another thread")
    for t, g in pending.items():
        t.grad = g if t.grad is None else t.grad + g


# ---------------------------------------------------------------------
# elementwise arithmetic
# ---------------------------------------------------------------------

def _broadcast_op(a: Tensor, b, fn, da, db, name: str, reads_operands: bool = False) -> Tensor:
    """``da(g, b.data)`` and ``db(g, a.data)`` give the operands' gradients
    before unbroadcasting; the other operand's array is kept for the rule
    only if ``reads_operands`` and this side needs a gradient."""
    b = _as_tensor(b, a.dtype)
    x, y = a.data, b.data
    try:
        out = fn(x, y)
    except ValueError:
        raise ShapeError(f"{name}: incompatible shapes {x.shape} and {y.shape}") from None
    need_a, need_b = a.requires_grad, b.requires_grad
    shape_a, shape_b = x.shape, y.shape
    x = x if reads_operands and need_b else None
    y = y if reads_operands and need_a else None

    def bwd(g):
        return (_unbroadcast(da(g, y), shape_a) if need_a else None,
                _unbroadcast(db(g, x), shape_b) if need_b else None)

    return _make(out, (a, b), bwd)


def add(a: Tensor, b) -> Tensor:
    """Pointwise sum; ``b`` may be a scalar or broadcast bias."""
    return _broadcast_op(a, b, np.add, lambda g, _: g, lambda g, _: g, "add")


def sub(a: Tensor, b) -> Tensor:
    return _broadcast_op(a, b, np.subtract, lambda g, _: g, lambda g, _: -g, "sub")


def mul(a: Tensor, b) -> Tensor:
    """Pointwise product; covers scaling by a python scalar."""
    return _broadcast_op(a, b, np.multiply, lambda g, y: g * y, lambda g, x: g * x, "mul",
                         reads_operands=True)


def texp(x: Tensor) -> Tensor:
    out = np.exp(x.data)
    return _make(out, (x,), lambda g: (g * out,))


def tlog(x: Tensor) -> Tensor:
    xd = x.data
    return _make(np.log(xd), (x,), lambda g: (g / xd,))


# ---------------------------------------------------------------------
# matmul
# ---------------------------------------------------------------------

def matmul(a: Tensor, b: Tensor, bias: Optional[Tensor] = None) -> Tensor:
    """Matrix product with numpy stacking semantics on leading axes, plus
    an optional ``bias`` broadcast onto the product (a linear layer in
    one node).

    With a 2-D ``b``, both gradients are one GEMM over all leading rows
    of ``a``. The forward stays one GEMM per leading index: BLAS may
    round a row differently as the row count changes, and a sample's
    output must not depend on its batch mates, because ``fit`` caches
    frozen features per sample."""
    x, w = a.data, b.data
    if x.ndim < 2 or w.ndim < 2:
        raise ShapeError(f"matmul requires >=2-d operands, got {x.shape} and {w.shape}")
    if x.shape[-1] != w.shape[-2]:
        raise ShapeError(f"matmul inner extents differ: {x.shape} x {w.shape}")
    out = x @ w
    k, e = w.shape[-2:]
    inputs = (a, b)
    if bias is not None:
        try:
            out += bias.data
        except ValueError:
            raise ShapeError(f"matmul bias {bias.shape} does not broadcast "
                             f"to {out.shape}") from None
        inputs = (a, b, bias)
    need_a, need_b = a.requires_grad, b.requires_grad
    need_bias = bias is not None and bias.requires_grad
    shape_a, shape_b, flat_b = x.shape, w.shape, w.ndim == 2
    shape_bias = None if bias is None else bias.data.shape
    x = x if need_b else None                   # each side's gradient reads the other
    w = w if need_a else None

    def bwd(g):
        ga = gb = None
        if need_a and flat_b:
            ga = (g.reshape(-1, e) @ w.T).reshape(shape_a)
        elif need_a:
            ga = _unbroadcast(g @ np.swapaxes(w, -1, -2), shape_a)
        if need_b and flat_b:
            gb = x.reshape(-1, k).T @ g.reshape(-1, e)
        elif need_b:
            gb = _unbroadcast(np.swapaxes(x, -1, -2) @ g, shape_b)
        if shape_bias is None:
            return ga, gb
        return ga, gb, _unbroadcast(g, shape_bias) if need_bias else None

    return _make(out, inputs, bwd)


def attention(q: Tensor, k: Tensor, v: Tensor, heads: int) -> Tensor:
    """Multi-head scaled dot-product attention in one node.

    ``q`` is [B, N, d] and ``k``, ``v`` are [B, M, d]. The channels split
    into ``heads`` heads of d / heads; each head computes
    softmax(q k^T / sqrt(d / heads)) v, and the heads merge back to
    [B, N, d]. Forward and backward run the numpy ops of the composed
    reshape, transpose, matmul, mul and softmax chain in its order, so
    outputs and gradients are bit-identical to that chain.
    """
    if (q.ndim != 3 or k.ndim != 3 or k.shape != v.shape
            or k.shape[0] != q.shape[0] or k.shape[2] != q.shape[2]):
        raise ShapeError(f"attention expects q [B, N, d] and k, v [B, M, d], "
                         f"got {q.shape}, {k.shape} and {v.shape}")
    b, n, d = q.shape
    if d % heads:
        raise ShapeError(f"attention: dim {d} not divisible by {heads} heads")
    hd = d // heads

    def split(x):                               # [B, L, d] -> [B, heads, L, hd]
        return x.data.reshape(x.shape[0], x.shape[1], heads, hd).transpose(0, 2, 1, 3)

    qh, kh, vh = split(q), split(k), split(v)
    kt = kh.transpose(0, 1, 3, 2)
    scale = np.asarray(1.0 / np.sqrt(hd), dtype=q.dtype)
    scores = (qh @ kt) * scale
    e = np.exp(scores - scores.max(axis=-1, keepdims=True))
    attn = e / e.sum(axis=-1, keepdims=True)
    out = (attn @ vh).transpose(0, 2, 1, 3).reshape(b, n, d)
    need_q, need_k, need_v = q.requires_grad, k.requires_grad, v.requires_grad
    kv_shape = k.shape

    def merge(gh, shape):                       # [B, heads, L, hd] -> [B, L, d]
        return gh.transpose(0, 2, 1, 3).reshape(shape)

    def bwd(g):
        gctx = g.reshape(b, n, heads, hd).transpose(0, 2, 1, 3)
        gq = gk = gv = None
        if need_q or need_k:
            gattn = gctx @ np.swapaxes(vh, -1, -2)
            dot = (gattn * attn).sum(axis=-1, keepdims=True)
            gscores = attn * (gattn - dot) * scale
            if need_q:
                gq = merge(gscores @ np.swapaxes(kt, -1, -2), (b, n, d))
            if need_k:
                gk = merge((np.swapaxes(qh, -1, -2) @ gscores).transpose(0, 1, 3, 2), kv_shape)
        if need_v:
            gv = merge(np.swapaxes(attn, -1, -2) @ gctx, kv_shape)
        return gq, gk, gv

    return _make(out, (q, k, v), bwd)


# ---------------------------------------------------------------------
# nonlinearities and normalization
# ---------------------------------------------------------------------

_SQRT2 = math.sqrt(2.0)
_INV_SQRT_2PI = 1.0 / math.sqrt(2.0 * math.pi)


def gelu(x: Tensor) -> Tensor:
    """Exact Gaussian-CDF GELU: x * Phi(x)."""
    xd = x.data
    phi = 0.5 * (1.0 + erf(xd / _SQRT2))
    out = xd * phi

    def bwd(g):
        pdf = np.exp(-0.5 * xd * xd) * _INV_SQRT_2PI
        gx = g * (phi + xd * pdf)
        # Below about x = -11 the product underflows to subnormals, and
        # every GEMM that reads them takes the CPU's slow path. Flushed,
        # they are far below the last bit of any sum they would join.
        gx[np.abs(gx) < np.finfo(gx.dtype).tiny] = 0
        return (gx,)

    return _make(out, (x,), bwd)


def softmax(x: Tensor) -> Tensor:
    """Softmax over the last axis, max-subtracted for stability."""
    shifted = x.data - x.data.max(axis=-1, keepdims=True)
    e = np.exp(shifted)
    out = e / e.sum(axis=-1, keepdims=True)

    def bwd(g):
        dot = (g * out).sum(axis=-1, keepdims=True)
        return (out * (g - dot),)

    return _make(out, (x,), bwd)


def log_softmax(x: Tensor) -> Tensor:
    shifted = x.data - x.data.max(axis=-1, keepdims=True)
    lse = np.log(np.exp(shifted).sum(axis=-1, keepdims=True))
    out = shifted - lse

    def bwd(g):
        soft = np.exp(out)
        return (g - soft * g.sum(axis=-1, keepdims=True),)

    return _make(out, (x,), bwd)


def layer_norm(x: Tensor, gamma: Tensor, beta: Tensor) -> Tensor:
    """Zero-mean unit-variance over the last axis, then affine."""
    d = x.shape[-1]
    if gamma.shape != (d,) or beta.shape != (d,):
        raise ShapeError(
            f"layer_norm affine params must have shape ({d},), "
            f"got gamma {gamma.shape}, beta {beta.shape}")

    def mean_last(a):    # a.mean(-1, keepdims=True) to the bit, minus numpy's wrapper
        m = np.add.reduce(a, axis=-1, keepdims=True)
        m /= d           # correctly rounded, as in numpy's mean
        return m

    mu = mean_last(x.data)
    centered = x.data - mu
    var = mean_last(centered * centered)
    inv = 1.0 / np.sqrt(var + LAYER_NORM_EPS)
    xhat = centered * inv
    out = xhat * gamma.data + beta.data
    need_x, need_gamma, need_beta = x.requires_grad, gamma.requires_grad, beta.requires_grad
    gd = gamma.data

    def bwd(g):
        lead = tuple(range(g.ndim - 1))
        dx = dgamma = dbeta = None
        if need_beta:
            dbeta = np.add.reduce(g, axis=lead)
        if need_gamma:
            dgamma = np.add.reduce(g * xhat, axis=lead)
        if need_x:
            dxhat = g * gd
            dx = inv * (dxhat
                        - mean_last(dxhat)
                        - xhat * mean_last(dxhat * xhat))
        return dx, dgamma, dbeta

    return _make(out, (x, gamma, beta), bwd)


# ---------------------------------------------------------------------
# stochastic regularizers
# ---------------------------------------------------------------------

def _drop(x: Tensor, p: float, rng, mask_shape: tuple[int, ...], name: str) -> Tensor:
    """``x`` times a broadcast ``mask_shape`` mask: 0 w.p. ``p``, else 1 / (1 - p)."""
    if not 0.0 <= p < 1.0:
        raise ValueError(f"{name} rate must be in [0, 1), got {p}")
    if rng is None or p == 0.0:
        return x
    scale = (rng.random(mask_shape) >= p).astype(x.dtype) / (1.0 - p)
    return _make(x.data * scale, (x,), lambda g: (g * scale,))


def dropout(x: Tensor, p: float, *, rng: Optional[np.random.Generator] = None) -> Tensor:
    """Zero elements w.p. ``p`` and rescale survivors; identity if no ``rng``."""
    return _drop(x, p, rng, x.shape, "dropout")


def drop_path(x: Tensor, p: float, *, rng: Optional[np.random.Generator] = None) -> Tensor:
    """Zero the whole residual branch per leading-axis element w.p. ``p``
    (identity if no ``rng``)."""
    return _drop(x, p, rng, (x.shape[0],) + (1,) * (x.ndim - 1), "drop_path")


# ---------------------------------------------------------------------
# reductions and shape ops
# ---------------------------------------------------------------------

def tsum(x: Tensor, axis: Optional[int] = None) -> Tensor:
    out = x.data.sum(axis=axis)
    shape, dtype = x.shape, x.dtype

    def bwd(g):
        if axis is not None:
            g = np.expand_dims(g, axis)
        return (np.broadcast_to(g, shape).astype(dtype, copy=True),)

    return _make(out, (x,), bwd)


def tmean(x: Tensor, axis: Optional[int] = None) -> Tensor:
    n = x.size if axis is None else x.shape[axis]
    return mul(tsum(x, axis=axis), 1.0 / n)


def reshape(x: Tensor, shape: tuple[int, ...]) -> Tensor:
    out, in_shape = x.data.reshape(shape), x.data.shape
    return _make(out, (x,), lambda g: (g.reshape(in_shape),))


def transpose(x: Tensor, axes: tuple[int, ...]) -> Tensor:
    inverse = tuple(np.argsort(axes))
    out = x.data.transpose(axes)
    return _make(out, (x,), lambda g: (g.transpose(inverse),))


def concat(tensors: Sequence[Tensor], axis: int) -> Tensor:
    parts = list(tensors)
    out = np.concatenate([t.data for t in parts], axis=axis)
    sizes = [t.shape[axis] for t in parts]
    split_at = np.cumsum(sizes)[:-1]
    needs = [t.requires_grad for t in parts]

    def bwd(g):
        return tuple(np.ascontiguousarray(piece) if need else None
                     for piece, need in zip(np.split(g, split_at, axis=axis), needs))

    return _make(out, parts, bwd)


# ---------------------------------------------------------------------
# spatial primitives
# ---------------------------------------------------------------------

def extract_patches(x: Tensor, kernel: int, stride: int, pad: int) -> Tensor:
    """Im2col for overlapping strided patches.

    ``x`` is [B, C, H, W]; output is [B, N, C*kernel*kernel] with
    N = out_h * out_w patches in row-major spatial order.
    """
    if x.ndim != 4:
        raise ShapeError(f"extract_patches expects [B, C, H, W], got {x.shape}")
    b, c, h, w = x.shape
    dtype = x.dtype
    out_h = (h + 2 * pad - kernel) // stride + 1
    out_w = (w + 2 * pad - kernel) // stride + 1
    if out_h <= 0 or out_w <= 0:
        raise ShapeError(
            f"extract_patches: spatial dims {h}x{w} too small for "
            f"kernel={kernel} stride={stride} pad={pad}")
    xp = x.data
    if pad:
        xp = np.zeros((b, c, h + 2 * pad, w + 2 * pad), dtype=dtype)
        xp[:, :, pad:pad + h, pad:pad + w] = x.data
    padded = xp.shape
    sb, sc, sh, sw = xp.strides
    win = np.lib.stride_tricks.as_strided(xp, (b, out_h, out_w, c, kernel, kernel),
                                          (sb, sh * stride, sw * stride, sc, sh, sw))
    out = np.empty(win.shape, dtype=dtype)           # [B, out_h, out_w, C, k, k]
    out[...] = win
    out = out.reshape(b, out_h * out_w, c * kernel * kernel)

    def bwd(g):
        gw = g.reshape(b, out_h, out_w, c, kernel, kernel).transpose(0, 3, 1, 2, 4, 5)
        gp = np.zeros(padded, dtype=dtype)
        for ki in range(kernel):
            for kj in range(kernel):
                gp[:, :, ki:ki + out_h * stride:stride,
                   kj:kj + out_w * stride:stride] += gw[..., ki, kj]
        if pad:
            gp = gp[:, :, pad:pad + h, pad:pad + w]
        return (np.ascontiguousarray(gp),)

    return _make(out, (x,), bwd)


@functools.lru_cache(maxsize=None)
def _interp_matrix(n_out: int, n_in: int, dtype) -> np.ndarray:
    """Row-interpolation matrix for align_corners=False bilinear (cached, read-only)."""
    m = np.zeros((n_out, n_in), dtype=dtype)
    scale = n_in / n_out
    for i in range(n_out):
        src = (i + 0.5) * scale - 0.5
        src = min(max(src, 0.0), n_in - 1.0)
        lo = int(math.floor(src))
        hi = min(lo + 1, n_in - 1)
        frac = src - lo
        m[i, lo] += 1.0 - frac
        m[i, hi] += frac
    m.flags.writeable = False
    return m


def upsample_bilinear(x: Tensor, out_h: int, out_w: int) -> Tensor:
    """Bilinear upsample (align_corners=False) of [..., C, H, W] maps."""
    if x.ndim < 3:
        raise ShapeError(f"upsample_bilinear expects [..., C, H, W], got {x.shape}")
    h, w = x.shape[-2], x.shape[-1]
    if out_h < h or out_w < w:
        raise ShapeError(f"upsample_bilinear cannot downscale {h}x{w} -> {out_h}x{out_w}")
    rows = _interp_matrix(out_h, h, x.dtype)
    cols = _interp_matrix(out_w, w, x.dtype)
    # named leading axes and a fixed contraction order (rows first): einsum
    # names "..." axes, and optimize=True orders contractions, by the
    # string-hash seed, and either changes the float summation order
    lead, path = "abcdefg"[:x.ndim - 2], ["einsum_path", (0, 1), (0, 1)]
    out = np.einsum(f"ih,{lead}hw,jw->{lead}ij", rows, x.data, cols, optimize=path)

    def bwd(g):
        return (np.einsum(f"ih,{lead}ij,jw->{lead}hw", rows, g, cols, optimize=path),)

    return _make(out, (x,), bwd)
