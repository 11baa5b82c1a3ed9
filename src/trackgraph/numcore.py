"""Dense 64-bit numeric core: tensors, tape-based reverse-mode differentiation,
parameter stores, gradient checking, and the Adam step.

Every primitive runs eagerly on numpy float64 arrays and, when a tape is
active, records (op name, inputs, output, aux) so that the tape can be
replayed forward bit-exactly and swept backward.  The primitive set holds
only what the model runs: affine maps on the last axis of any leading
shape, elementwise arithmetic, relu/sigmoid/tanh/log/clip, a last-axis
softmax, reshapes, broadcasts (as views), concatenation, row gathers, an
axis swap, reductions, and the tiny mask head's two zero-padded 3x3
convolutions as one node, `mask_convs`, that reads its weights as stored,
(out, in * 9), tap t = 3*di + dj of input c at column 9c + t.  It holds its
data channels as uint8 planes in its aux and builds their float64 tap
columns when it needs them, and it keeps its inputs and the logits but not
the first convolution's hidden activations h: its backward recomputes h
with the forward's code, one more first-convolution pass per frame for the
largest array a training tape held.  Reductions delegate to numpy's
summation, which is deterministic for a fixed shape; `slot_sum` additionally
fixes the accumulation order to ascending slot index, so a graph node's
aggregate is one sequential sum however large the graph is.

`backward` with a `ParamStore` accumulates: each parameter's gradient is
added onto the `.grad` it holds until `ParamStore.zero_grads()`, so a batch
can be swept one tape at a time.  Other gradients live only from the sweep of
their first consumer to the sweep of the node that made them; afterwards only
parameters hold `.grad`.

Importing the module also sets glibc's heap policy once, so that the memory
a frame frees stays in the heap for the next frame.  By default glibc hands
a freed top of heap back to the kernel, and a crowded frame's several MB of
`(16, K*G^2)` mask-head and edge temporaries then fault in again on every
frame: about 1300 minor page faults per track-crowded frame and 500 per
track-sparse frame in the benchmark's track loop, none once the policy is
set.  The thresholds are glibc's own dynamic ceiling (32 MB for mmap, twice
that for trimming); where libc has no `mallopt` nothing changes.
"""

from __future__ import annotations

import ctypes
import functools
from typing import Callable, Iterable, Sequence

import numpy as np

Array = np.ndarray


def _keep_freed_heap() -> None:
    try:
        mallopt = ctypes.CDLL(None).mallopt
    except (OSError, TypeError, AttributeError):
        return
    mallopt(-3, 32 << 20)  # M_MMAP_THRESHOLD
    mallopt(-1, 64 << 20)  # M_TRIM_THRESHOLD


_keep_freed_heap()


class NumericError(ValueError):
    """Raised on shape mismatches, non-finite values, and misuse of the tape."""


class NumericOverflowError(NumericError):
    """Numeric state went bad (non-finite values, saturated rates): the
    signature of a diverging run rather than a programming error."""


def _as_array(x) -> Array:
    return np.asarray(x, dtype=np.float64)


class Tensor:
    """A float64 array plus a gradient slot filled in by `backward`."""

    __slots__ = ("data", "grad", "name")

    def __init__(self, data, name: str | None = None):
        self.data = _as_array(data)
        self.grad: Array | None = None
        self.name = name

    @property
    def shape(self) -> tuple[int, ...]:
        return self.data.shape

    @property
    def size(self) -> int:
        return self.data.size

    def item(self) -> float:
        return float(self.data.item())

    def __repr__(self):
        tag = f" {self.name!r}" if self.name else ""
        return f"Tensor{tag}(shape={self.data.shape})"

    # Arithmetic sugar; scalars and arrays are wrapped as constants.
    def __add__(self, other):
        return add(self, _wrap(other))

    def __radd__(self, other):
        return add(_wrap(other), self)

    def __sub__(self, other):
        return sub(self, _wrap(other))

    def __rsub__(self, other):
        return sub(_wrap(other), self)

    def __mul__(self, other):
        return mul(self, _wrap(other))

    def __rmul__(self, other):
        return mul(_wrap(other), self)

    def __truediv__(self, other):
        return div(self, _wrap(other))

    def __rtruediv__(self, other):
        return div(_wrap(other), self)

    def __neg__(self):
        return mul(self, _wrap(-1.0))


def _wrap(x) -> Tensor:
    return x if isinstance(x, Tensor) else Tensor(x)


_ACTIVE: "Tape | None" = None


class Node:
    __slots__ = ("op", "inputs", "output", "aux")

    def __init__(self, op: str, inputs: tuple[Tensor, ...], output: Tensor, aux):
        self.op = op
        self.inputs = inputs
        self.output = output
        self.aux = aux


class Tape:
    """Records primitives in forward order while a `with` block installs it;
    one tape is active at a time."""

    def __init__(self):
        self.nodes: list[Node] = []

    def __enter__(self) -> "Tape":
        global _ACTIVE
        if _ACTIVE is not None:
            raise NumericError("a tape is already active")
        _ACTIVE = self
        return self

    def __exit__(self, *exc):
        global _ACTIVE
        _ACTIVE = None
        return False

    def replay(self) -> None:
        """Re-execute every recorded primitive and verify the stored outputs
        are reproduced bit-exactly."""
        for node in self.nodes:
            out = _FORWARD[node.op](node.aux, *[t.data for t in node.inputs])
            if out.shape != node.output.data.shape or not np.array_equal(
                out, node.output.data, equal_nan=True
            ):
                raise NumericError(f"replay mismatch in op {node.op!r}")


def _run(op: str, inputs: tuple[Tensor, ...], aux=None) -> Tensor:
    # A forward returns float64, so its result is wrapped as it is, without
    # Tensor()'s conversion; only a ufunc on 0-d operands hands back a numpy
    # scalar, which becomes the 0-d array Tensor() would make of it.
    fwd, n = _FORWARD[op], len(inputs)
    data = (fwd(aux, inputs[0].data) if n == 1 else
            fwd(aux, inputs[0].data, inputs[1].data) if n == 2 else
            fwd(aux, *[t.data for t in inputs]))
    if type(data) is not np.ndarray:
        data = np.asarray(data)
    out = object.__new__(Tensor)
    out.data, out.grad, out.name = data, None, None
    if _ACTIVE is not None:
        _ACTIVE.nodes.append(Node(op, inputs, out, aux))
    return out


_FORWARD: dict[str, Callable] = {}
_BACKWARD: dict[str, Callable] = {}


# A backward takes (aux, g, out, need, *inputs), where need[i] says whether
# input i takes a gradient, and returns one gradient per input: None where
# need is False, so a product for an input no parameter reaches is not formed.
def _op(name: str):
    def deco(pair):
        fwd, bwd = pair()
        _FORWARD[name] = fwd
        _BACKWARD[name] = bwd
        return pair

    return deco


def _unbroadcast(grad: Array, shape: tuple[int, ...]) -> Array:
    """Sum `grad` down to `shape` (reverses numpy broadcasting)."""
    extra = grad.ndim - len(shape)
    if extra:
        grad = grad.sum(axis=tuple(range(extra)))
    axes = tuple(i for i, n in enumerate(shape) if n == 1 and grad.shape[i] != 1)
    if axes:
        grad = grad.sum(axis=axes, keepdims=True)
    return grad


# ---------------------------------------------------------------------------
# primitive registry


@_op("add")
def _():
    def fwd(aux, a, b):
        return a + b

    def bwd(aux, g, out, need, a, b):
        return (_unbroadcast(g, a.shape) if need[0] else None,
                _unbroadcast(g, b.shape) if need[1] else None)

    return fwd, bwd


@_op("sub")
def _():
    def fwd(aux, a, b):
        return a - b

    def bwd(aux, g, out, need, a, b):
        return (_unbroadcast(g, a.shape) if need[0] else None,
                _unbroadcast(-g, b.shape) if need[1] else None)

    return fwd, bwd


@_op("mul")
def _():
    def fwd(aux, a, b):
        return a * b

    def bwd(aux, g, out, need, a, b):
        return (_unbroadcast(g * b, a.shape) if need[0] else None,
                _unbroadcast(g * a, b.shape) if need[1] else None)

    return fwd, bwd


@_op("div")
def _():
    def fwd(aux, a, b):
        return a / b

    def bwd(aux, g, out, need, a, b):
        return (_unbroadcast(g / b, a.shape) if need[0] else None,
                _unbroadcast(-g * a / (b * b), b.shape) if need[1] else None)

    return fwd, bwd


@_op("affine")
def _():
    # x (..., in), w (out, in), b (out,) -> x @ w.T + b on the last axis.  The
    # leading axes are flattened to one row axis inside the op, forward and
    # backward; the bias goes into the fresh matmul output in place (same
    # bits, one buffer fewer).
    def fwd(aux, x, w, b):
        out = x.reshape(-1, x.shape[-1]) @ w.T
        out += b
        return out.reshape(x.shape[:-1] + (w.shape[0],))

    def bwd(aux, g, out, need, x, w, b):
        g = g.reshape(-1, g.shape[-1])
        return ((g @ w).reshape(x.shape) if need[0] else None,
                g.T @ x.reshape(-1, x.shape[-1]) if need[1] else None,
                g.sum(axis=0) if need[2] else None)

    return fwd, bwd


@_op("reshape")
def _():
    def fwd(shape, a):
        return a.reshape(shape)

    def bwd(shape, g, out, need, a):
        return (g.reshape(a.shape),)

    return fwd, bwd


@_op("broadcast_to")
def _():
    # numpy's read-only view; its one consumer, concat, copies it anyway
    def fwd(shape, a):
        return np.broadcast_to(a, shape)

    def bwd(shape, g, out, need, a):
        return (_unbroadcast(g, a.shape),)

    return fwd, bwd


@_op("concat")
def _():
    def fwd(axis, *parts):
        return np.concatenate(parts, axis=axis)

    # Each part's gradient is its slice of g: the views np.split would give,
    # without its per-call overhead.
    def bwd(axis, g, out, need, *parts):
        index = [slice(None)] * g.ndim
        grads, start = [], 0
        for p in parts:
            index[axis] = slice(start, start + p.shape[axis])
            grads.append(g[tuple(index)])
            start += p.shape[axis]
        return tuple(grads)

    return fwd, bwd


@_op("gather")
def _():
    # Row gather along axis 0; indices may repeat.  Indices that are
    # non-negative and strictly increasing (in flat order) cannot repeat, and
    # then a plain scatter-add gives np.add.at's bits several times faster.
    def fwd(idx, a):
        return a[idx]

    def bwd(idx, g, out, need, a):
        acc = np.zeros_like(a)
        flat = idx.reshape(-1)
        if flat.size < 2 or (flat[0] >= 0 and (flat[1:] > flat[:-1]).all()):
            acc[idx] += g
        else:
            np.add.at(acc, idx, g)
        return (acc,)

    return fwd, bwd


@_op("sum")
def _():
    def fwd(aux, a):
        axis, keepdims = aux
        return np.sum(a, axis=axis, keepdims=keepdims, dtype=np.float64)

    def bwd(aux, g, out, need, a):
        axis, keepdims = aux
        if axis is None:
            return (np.broadcast_to(g, a.shape).copy(),)
        if not keepdims:
            g = np.expand_dims(g, axis)
        return (np.broadcast_to(g, a.shape).copy(),)

    return fwd, bwd


@_op("slot_sum")
def _():
    # Sequential sum over one axis in ascending slot order.  x + 0.0 is exact,
    # so trailing all-zero slots leave every bit of the result unchanged.
    def fwd(axis, a):
        a = np.moveaxis(a, axis, 0)
        if a.shape[0] == 0:
            return np.zeros(a.shape[1:], dtype=a.dtype)
        acc = a[0].copy()
        for j in range(1, a.shape[0]):
            acc += a[j]
        return acc

    def bwd(axis, g, out, need, a):
        g = np.expand_dims(g, axis)
        return (np.broadcast_to(g, a.shape).copy(),)

    return fwd, bwd


@_op("relu")
def _():
    def fwd(aux, a):
        return np.maximum(a, 0.0)

    def bwd(aux, g, out, need, a):
        return (g * (a > 0.0),)

    return fwd, bwd


@_op("sigmoid")
def _():
    # 1 / (1 + exp(-a)) for a >= 0, exp(a) / (1 + exp(a)) below, with no
    # boolean-mask indexing: ex = exp(min(a, -a)) gives every element (NaNs
    # too) the two-branch form's exp argument and division, bit for bit.
    def fwd(aux, a):
        ex = np.exp(np.minimum(a, -a))
        d = 1.0 + ex
        return np.where(a >= 0, 1.0 / d, ex / d)

    def bwd(aux, g, out, need, a):
        return (g * out * (1.0 - out),)

    return fwd, bwd


@_op("tanh")
def _():
    def fwd(aux, a):
        return np.tanh(a)

    def bwd(aux, g, out, need, a):
        return (g * (1.0 - out * out),)

    return fwd, bwd


@_op("log")
def _():
    def fwd(aux, a):
        return np.log(a)

    def bwd(aux, g, out, need, a):
        return (g / a,)

    return fwd, bwd


@_op("softmax")
def _():
    # Along the last axis, shifted for stability.
    def fwd(aux, a):
        z = a - a.max(axis=-1, keepdims=True)
        e = np.exp(z)
        return e / e.sum(axis=-1, keepdims=True)

    def bwd(aux, g, out, need, a):
        dot = np.sum(g * out, axis=-1, keepdims=True)
        return (out * (g - dot),)

    return fwd, bwd


@_op("clip")
def _():
    def fwd(aux, a):
        lo, hi = aux
        return np.clip(a, lo, hi)

    def bwd(aux, g, out, need, a):
        lo, hi = aux
        return (g * ((a > lo) & (a < hi)),)

    return fwd, bwd


def _tap_sum3x3(a: Array) -> Array:
    """(9, B, G, G) -> (B, G, G): a zero-padded 3x3 convolution run tap-first.
    Tap plane t = 3*di + dj holds each pixel's contribution through tap
    (di, dj), so out[i, j] = sum_t a[t, i + di - 1, j + dj - 1], zero outside
    the grid, accumulated in ascending tap order.  A tap adds only where its
    source lies inside the grid: adding the outside zeros would change no
    bit."""
    g = a.shape[2]
    out = np.zeros(a.shape[1:], dtype=a.dtype)
    for di in range(3):
        i0, i1 = max(0, 1 - di), min(g, g + 1 - di)
        for dj in range(3):
            j0, j1 = max(0, 1 - dj), min(g, g + 1 - dj)
            out[:, i0:i1, j0:j1] += a[3 * di + dj, :, i0 + di - 1 : i1 + di - 1,
                                      j0 + dj - 1 : j1 + dj - 1]
    return out


def _tap_columns(planes: Array) -> Array:
    """(C*9, K*G*G) float64 3x3 tap columns of (C, K, G, G) planes: row c*9 + t,
    t = 3*di + dj, holds plane c read at (i + di - 1, j + dj - 1), 0 outside."""
    c, k, g, _ = planes.shape
    padded = np.zeros((c, k, g + 2, g + 2), dtype=planes.dtype)
    padded[:, :, 1:-1, 1:-1] = planes
    cols = np.empty((c, 9, k, g, g))
    for t in range(9):
        cols[:, t] = padded[:, :, t // 3 : t // 3 + g, t % 3 : t % 3 + g]
    return cols.reshape(9 * c, -1)


@functools.cache
def _in_grid_taps(grid: int) -> Array:
    """(9, G*G): the tap columns of a plane of ones, 1 where a tap reads inside
    the grid.  Built once per grid and shared, so read-only."""
    taps = _tap_columns(np.ones((1, 1, grid, grid), dtype=np.uint8))
    taps.setflags(write=False)
    return taps


# The mask head's two convolutions.  Every product is formed from the
# operands, and in the order, of the node chain the two replaced (weight
# gathers and swaps, matrix products, tap sums, bias adds), each operand
# handed to BLAS C-contiguous as the chain's were (a reshape that cannot be
# a view copies in C order), so every output and gradient has its bits.


def _proj_taps(w: Array, p: int) -> Array:
    """(P, O*9): conv1's weights on its P projection channels, row c holding
    w[o, 9c + t] at column 9o + t."""
    return w[:, : 9 * p].reshape(len(w), p, 9).swapaxes(0, 1).reshape(p, -1)


def _conv1(w: Array, b: Array, proj: Array, planes: Array,
           cols: Array | None = None) -> Array:
    """(O, K*G*G) hidden activations from the planes, or from their tap
    columns `cols` when the caller keeps them; columns built here are freed
    before the projection's share is spread.  A projection channel is
    constant over the grid, so its share is taken per tap: (O*K, 9) rows,
    spread over the pixels whose tap reads inside the grid."""
    (k, p), o = proj.shape, w.shape[0]
    per_tap = (proj @ _proj_taps(w, p)).reshape(k, o, 9).swapaxes(0, 1).reshape(o * k, 9)
    out = w[:, 9 * p :].copy() @ (_tap_columns(planes) if cols is None else cols)
    out += b[:, None]
    out += (per_tap @ _in_grid_taps(planes.shape[-1])).reshape(o, -1)
    return np.maximum(out, 0.0, out=out)


def _conv1_backward(g: Array, h: Array, need, w: Array, proj: Array, cols: Array,
                    taps: Array):
    (k, p), o = proj.shape, w.shape[0]
    g = g * (h > 0.0)
    g_tap = (g.reshape(o * k, -1) @ taps.T
             ).reshape(o, k, 9).swapaxes(0, 1).reshape(k, o * 9)
    gw = None
    if need[0]:  # both blocks added onto zeros, as the chain's scatter did
        gw = np.zeros_like(w)
        blocks = gw.reshape(o, -1, 9)
        blocks[:, :p] += (proj.T @ g_tap).reshape(p, o, 9).swapaxes(0, 1)
        blocks[:, p:] += (g @ cols.T).reshape(o, -1, 9)
    return (gw, g.sum(axis=1) if need[1] else None,
            g_tap @ _proj_taps(w, p).T if need[2] else None)


def _conv2(w: Array, b: Array, h: Array, grid: int) -> Array:
    """(B, G, G): the tap sum of (taps @ h).reshape(9, B, G, G) + b, taps
    w's (9, C) copy."""
    out = _tap_sum3x3((w.reshape(-1, 9).T.copy() @ h).reshape(9, -1, grid, grid))
    out += b
    return out


def _conv2_backward(g: Array, need, w: Array, b: Array, h: Array):
    # the tap sum's transpose reads g's tap columns in reverse tap order
    gz = _tap_columns(g[None])[::-1].copy()
    taps = w.reshape(-1, 9).T.copy()
    return ((gz @ h.T).T.reshape(w.shape) if need[0] else None,
            _unbroadcast(g, b.shape) if need[1] else None,
            taps.T @ gz if need[2] else None)


@_op("mask_convs")
def _():
    # The aux holds the uint8 planes, and the node keeps its five inputs and
    # the logits but not conv1's (O, K*G*G) output h.  The backward rebuilds
    # h with the forward's own code, so h has its bits, from tap columns it
    # builds once for that and for conv1's weight gradient.
    def fwd(planes, w1, b1, proj, w2, b2):
        return _conv2(w2, b2, _conv1(w1, b1, proj, planes), planes.shape[-1])

    def bwd(planes, g, out, need, w1, b1, proj, w2, b2):
        cols = _tap_columns(planes)
        h = _conv1(w1, b1, proj, planes, cols)
        need1 = need[:3]
        gw2, gb2, gh = _conv2_backward(g, (need[3], need[4], True in need1), w2, b2, h)
        if True in need1:
            return _conv1_backward(gh, h, need1, w1, proj, cols,
                                   _in_grid_taps(planes.shape[-1])) + (gw2, gb2)
        return None, None, None, gw2, gb2

    return fwd, bwd


# ---------------------------------------------------------------------------
# public primitives


def add(a: Tensor, b: Tensor) -> Tensor:
    return _run("add", (a, b))


def sub(a: Tensor, b: Tensor) -> Tensor:
    return _run("sub", (a, b))


def mul(a: Tensor, b: Tensor) -> Tensor:
    return _run("mul", (a, b))


def div(a: Tensor, b: Tensor) -> Tensor:
    return _run("div", (a, b))


def reshape(a: Tensor, shape: Sequence[int]) -> Tensor:
    return _run("reshape", (a,), tuple(shape))


def broadcast_to(a: Tensor, shape: Sequence[int]) -> Tensor:
    return _run("broadcast_to", (a,), tuple(shape))


def concat(parts: Iterable[Tensor], axis: int = -1) -> Tensor:
    parts = tuple(parts)
    return _run("concat", parts, axis)


def gather(a: Tensor, idx) -> Tensor:
    return _run("gather", (a,), np.asarray(idx, dtype=np.intp))


def tsum(a: Tensor, axis=None, keepdims: bool = False) -> Tensor:
    return _run("sum", (a,), (axis, keepdims))


def slot_sum(a: Tensor, axis: int) -> Tensor:
    return _run("slot_sum", (a,), axis)


def relu(a: Tensor) -> Tensor:
    return _run("relu", (a,))


def sigmoid(a: Tensor) -> Tensor:
    return _run("sigmoid", (a,))


def tanh(a: Tensor) -> Tensor:
    return _run("tanh", (a,))


def log(a: Tensor) -> Tensor:
    return _run("log", (a,))


def softmax(a: Tensor) -> Tensor:
    return _run("softmax", (a,))


def clip(a: Tensor, lo: float, hi: float) -> Tensor:
    return _run("clip", (a,), (lo, hi))


def mask_convs(w1: Tensor, b1: Tensor, proj: Tensor, w2: Tensor, b2: Tensor,
               planes) -> Tensor:
    """(K, G, G) logits of two zero-padded 3x3 convolutions as one node.
    conv1 maps P projection channels, constant over each track's grid, and
    C data planes to O hidden channels under a relu; conv2 maps those to one
    channel.  Each weight holds each output's taps channel by channel (tap
    t = 3*di + dj of input c at column 9c + t): w1 (O, 9(P+C)), the
    projection channels first, b1 (O,), w2 (1, 9O), b2 (1,); proj is (K, P),
    and the (C, K, G, G) uint8 planes are the node's aux and take no
    gradient."""
    planes = np.asarray(planes)
    fits = (planes.dtype == np.uint8 and planes.ndim == 4
            and planes.shape[2] == planes.shape[3] and proj.data.ndim == 2
            and proj.shape[0] == planes.shape[1] and w1.data.ndim == 2
            and w1.shape[1] == 9 * (proj.shape[1] + planes.shape[0])
            and b1.shape == (w1.shape[0],))
    if not fits:
        raise NumericError(f"conv1 expects w (O, 9(P+C)), b (O,), proj (K, P) and uint8 "
                           f"planes (C, K, G, G), got {w1.shape}, {b1.shape}, {proj.shape} "
                           f"and {planes.dtype} {planes.shape}")
    grid = planes.shape[-1]
    if (w2.data.ndim != 2 or w2.shape[0] != 1 or b2.shape != (1,)
            or w2.shape[1] != 9 * w1.shape[0] or grid < 1):
        raise NumericError(f"conv2 expects w (1, 9C), b (1,) and h (C, B*{grid}*{grid}), "
                           f"got {w2.shape}, {b2.shape} and "
                           f"{(w1.shape[0], proj.shape[0] * grid * grid)}")
    return _run("mask_convs", (w1, b1, proj, w2, b2), planes)


def linear(weight: Tensor, bias: Tensor, x: Tensor) -> Tensor:
    """Affine map on the last axis: x @ W^T + b for W of shape (out, in)."""
    if x.data.shape[-1] != weight.data.shape[1]:
        raise NumericError(
            f"linear: input shape {x.shape} does not match weight shape {weight.shape}"
        )
    return _run("affine", (x, weight, bias))


@_op("swapaxes01")
def _():
    def fwd(aux, a):
        return np.swapaxes(a, 0, 1).copy()

    def bwd(aux, g, out, need, a):
        return (np.swapaxes(g, 0, 1).copy(),)

    return fwd, bwd


def swapaxes01(a: Tensor) -> Tensor:
    return _run("swapaxes01", (a,))


# ---------------------------------------------------------------------------
# backward sweep


def backward(tape: Tape, output: Tensor, params: "ParamStore | None" = None):
    """Reverse sweep from a scalar output.

    Without a ParamStore, sets `.grad` on every tensor that participates,
    replacing what it held.  With one, only tensors that descend from a
    parameter in the store receive gradient: a node none of whose inputs
    does is never swept, and a swept node forms no gradient for an input
    that does not.  Each parameter's gradient is then added onto the `.grad`
    it already holds (`zero_grads()` starts a new sum), contribution by
    contribution in sweep order, and a node's output gradient is dropped once
    that node is swept, so the sweep holds only the gradients it still owes
    and afterwards only parameters hold `.grad`.  Returns {name: grad} for
    the store, with zeros for parameters that hold no gradient."""
    if output.data.shape != ():
        raise NumericError(f"backward needs a scalar output, got shape {output.shape}")
    if params is None:
        needs = [[True] * len(node.inputs) for node in tape.nodes]
        grads: dict[int, Array] = {}
    else:
        live = {id(t) for t in params.tensors()}
        needs = []
        for node in tape.nodes:
            need = [id(t) in live for t in node.inputs]
            if True in need:
                live.add(id(node.output))
            needs.append(need)
        grads = {id(t): t.grad for t in params.tensors() if t.grad is not None}
    grads[id(output)] = np.ones((), dtype=np.float64)
    touched: dict[int, Tensor] = {id(output): output}
    take = grads.get if params is None else grads.pop
    for node, need in zip(reversed(tape.nodes), reversed(needs)):
        g = take(id(node.output), None)
        if g is None:
            continue
        in_grads = _BACKWARD[node.op](
            node.aux, g, node.output.data, need, *[t.data for t in node.inputs]
        )
        for t, keep, ig in zip(node.inputs, need, in_grads):
            if not keep:
                continue
            if id(t) in grads:
                grads[id(t)] = grads[id(t)] + ig
            else:
                grads[id(t)] = ig
                touched[id(t)] = t
    if params is None:
        for key, t in touched.items():
            t.grad = grads[key]
        return None
    for t in params.tensors():
        t.grad = grads.get(id(t))
    return {
        name: (t.grad if t.grad is not None else np.zeros_like(t.data))
        for name, t in params.items()
    }


# ---------------------------------------------------------------------------
# parameters


class ParamStore:
    """Named parameter tensors with a lossless flat view for optimizers and
    finite-difference probing."""

    def __init__(self):
        self._params: dict[str, Tensor] = {}
        # layer name -> its (w, b) Tensors, for apply_linear.  Nothing
        # replaces a parameter Tensor once added (set_flat and the optimizer
        # write .data), so an entry stays valid.
        self._layers: dict[str, tuple[Tensor, Tensor]] = {}

    def add(self, name: str, data) -> Tensor:
        if name in self._params:
            raise NumericError(f"duplicate parameter name {name!r}")
        t = Tensor(data, name=name)
        self._params[name] = t
        return t

    def __getitem__(self, name: str) -> Tensor:
        return self._params[name]

    def __contains__(self, name: str) -> bool:
        return name in self._params

    def __len__(self) -> int:
        return len(self._params)

    def names(self) -> list[str]:
        return list(self._params)

    def items(self):
        return self._params.items()

    def tensors(self):
        return self._params.values()

    @property
    def num_values(self) -> int:
        return sum(t.size for t in self._params.values())

    def flat_values(self) -> Array:
        if not self._params:
            return np.zeros(0)
        return np.concatenate([t.data.ravel() for t in self._params.values()])

    def set_flat(self, vec: Array):
        vec = _as_array(vec)
        if vec.shape != (self.num_values,):
            raise NumericError(
                f"flat vector length {vec.shape} does not match store size {self.num_values}"
            )
        start = 0
        for t in self._params.values():
            t.data = vec[start : start + t.size].reshape(t.data.shape).copy()
            start += t.size

    def flat_grads(self) -> Array:
        chunks = []
        for t in self._params.values():
            g = t.grad if t.grad is not None else np.zeros_like(t.data)
            chunks.append(g.ravel())
        return np.concatenate(chunks) if chunks else np.zeros(0)

    def zero_grads(self):
        for t in self._params.values():
            t.grad = None

    def subset(self, keep) -> "ParamStore":
        """View over a subset of parameters sharing the same tensors, so
        perturbing the view perturbs the full model."""
        other = ParamStore()
        for name, t in self._params.items():
            if keep(name):
                other._params[name] = t
        return other


def uniform_init(rng: np.random.Generator, shape: tuple[int, ...], fan_in: int) -> Array:
    """Weights start uniform in +-1/sqrt(fan_in); biases start at zero."""
    bound = 1.0 / np.sqrt(max(fan_in, 1))
    return rng.uniform(-bound, bound, size=shape)


def add_linear(params: ParamStore, name: str, in_dim: int, out_dim: int,
               rng: np.random.Generator):
    """A named linear layer: `{name}/w` (out_dim, in_dim), drawn from rng, and
    a zero `{name}/b`."""
    params.add(f"{name}/w", uniform_init(rng, (out_dim, in_dim), in_dim))
    params.add(f"{name}/b", np.zeros(out_dim))


def apply_linear(params: ParamStore, name: str, x: Tensor) -> Tensor:
    """The named layer `name` of `add_linear` applied to x's last axis."""
    layer = params._layers.get(name)
    if layer is None:
        layer = params._layers[name] = (params[f"{name}/w"], params[f"{name}/b"])
    return linear(*layer, x)


# ---------------------------------------------------------------------------
# gradient checking


def grad_check(fn: Callable[[ParamStore], Tensor], params: ParamStore,
               epsilon: float = 1e-4) -> float:
    """Compare reverse-mode gradients of `fn(params)` (scalar) against central
    finite differences over every parameter entry; return the worst error
    |a - n| / max(1, |a|, |n|).  `fn` must be deterministic."""
    params.zero_grads()
    with Tape() as tape:
        out = fn(params)
    backward(tape, out, params)
    analytic = params.flat_grads()

    numeric = np.empty_like(analytic)
    i = 0
    for t in params.tensors():
        flat_view = t.data.reshape(-1)
        for k in range(t.size):
            saved = flat_view[k]
            flat_view[k] = saved + epsilon
            hi = fn(params).item()
            flat_view[k] = saved - epsilon
            lo = fn(params).item()
            flat_view[k] = saved
            numeric[i] = (hi - lo) / (2.0 * epsilon)
            i += 1

    if not (np.all(np.isfinite(analytic)) and np.all(np.isfinite(numeric))):
        raise NumericError("NaN or Inf encountered during gradient check")
    if analytic.size == 0:
        return 0.0
    denom = np.maximum(1.0, np.maximum(np.abs(analytic), np.abs(numeric)))
    return float(np.max(np.abs(analytic - numeric) / denom))


# ---------------------------------------------------------------------------
# optimizer


class AdamState:
    """First/second moment accumulators plus the step counter."""

    def __init__(self, params: ParamStore):
        self.step = 0
        self.m = {name: np.zeros_like(t.data) for name, t in params.items()}
        self.v = {name: np.zeros_like(t.data) for name, t in params.items()}


def adam_step(params: ParamStore, grads: dict[str, Array], state: AdamState,
              lr: float, weight_decay: float = 0.0,
              betas: tuple[float, float] = (0.9, 0.999), eps: float = 1e-8):
    """One Adam update with decoupled weight decay, in place."""
    b1, b2 = betas
    state.step += 1
    t = state.step
    for name, p in params.items():
        g = grads[name]
        if not np.all(np.isfinite(g)):
            raise NumericOverflowError(
                f"non-finite gradient for parameter {name!r}")
        m = state.m[name]
        v = state.v[name]
        m *= b1
        m += (1.0 - b1) * g
        v *= b2
        v += (1.0 - b2) * g * g
        mhat = m / (1.0 - b1**t)
        vhat = v / (1.0 - b2**t)
        if weight_decay:
            p.data -= lr * weight_decay * p.data
        p.data -= lr * mhat / (np.sqrt(vhat) + eps)
