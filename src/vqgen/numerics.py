"""Dense tensors with reverse-mode gradients, plus Adam with linear warmup/decay.

Values are backed by numpy arrays (row-major). Every operation that builds a
Tensor records enough state to push gradients back to its inputs; calling
``backward_gradients`` on a scalar loss fills in ``Parameter.gradient`` (None
until then) for every trainable parameter that participated in the forward pass.
The pass consumes the graph it walks: a node drops its parents and its vjp
once its vjp has run, so an activation lives only until its last consumer's
vjp has run, and a loss is backpropagated once.

A vjp asks, when the backward pass reaches it, which operands need a
gradient: a trainable parameter's tensor or a recorded node (``_needs_grad``).
It returns None for every other operand -- a frozen weight, a constant input,
an attention mask -- instead of computing a gradient nothing reads. The graph
keeps its shape either way.

Every operation ends in ``_record``, the one place where an op's result
becomes a graph node. Inside ``no_grad()`` it records nothing and skips the
finiteness check that ``affine``, ``softmax_rows``, ``layer_norm``, ``gelu`` and
``cross_entropy`` ask for; a forward-only caller checks its final output once
with ``check_finite`` instead.
"""

from __future__ import annotations

import contextlib
import math
import weakref
from typing import Callable, Iterable, Optional, Sequence

import numpy as np

DEFAULT_DTYPE = np.float64
LAYER_NORM_EPS = 1e-12


class ShapeError(ValueError):
    """Operand shapes do not satisfy an operation's contract."""


class StateError(RuntimeError):
    """Operation called outside its valid lifecycle (e.g. backward w/o forward)."""


class NumericError(ArithmeticError):
    """A public operation produced or received non-finite values."""


class Tensor:
    """A dense array node in the computation graph.

    Leaf tensors either belong to a Parameter (then `param` is a weak proxy to
    it) or are constants; interior tensors carry a vjp closure over their parents.
    """

    __slots__ = ("data", "_parents", "_vjp", "param")

    def __init__(self, data, parents: tuple = (), vjp: Optional[Callable] = None):
        arr = np.asarray(data)
        if arr.dtype not in (np.float64, np.float32):
            arr = arr.astype(DEFAULT_DTYPE)
        self.data = arr
        self._parents = parents
        self._vjp = vjp
        self.param: Optional[Parameter] = None

    @property
    def shape(self) -> tuple:
        return self.data.shape

    @property
    def ndim(self) -> int:
        return self.data.ndim

    @property
    def size(self) -> int:
        return self.data.size

    def item(self) -> float:
        if self.size != 1:
            raise ShapeError(f"item() on tensor of shape {self.shape}")
        return float(self.data.reshape(-1)[0])

    def __repr__(self) -> str:
        return f"Tensor(shape={list(self.shape)})"


class Parameter:
    """Named learnable tensor; `gradient` is None until a backward pass fills it.

    The wrapped tensor points back through a weak proxy, so a parameter is
    freed by reference counting as soon as its owner drops it; it must outlive
    any graph that `backward_gradients` walks.
    """

    __slots__ = ("id", "value", "gradient", "trainable", "__weakref__")

    def __init__(self, id: str, value, trainable: bool = True):
        tensor = value if isinstance(value, Tensor) else Tensor(value)
        if tensor._parents:
            raise StateError(f"parameter {id!r} must wrap a leaf tensor")
        self.id = id
        self.value = tensor
        self.gradient: Optional[np.ndarray] = None
        self.trainable = trainable
        tensor.param = weakref.proxy(self)

    @property
    def shape(self) -> tuple:
        return self.value.shape

    def __repr__(self) -> str:
        return f"Parameter({self.id!r}, shape={list(self.shape)}, trainable={self.trainable})"


def _as_tensor(x) -> Tensor:
    return x if isinstance(x, Tensor) else Tensor(x)


def _as_pair(a, b) -> tuple[Tensor, Tensor]:
    """Wrap operands, casting plain scalars to the tensor operand's dtype."""
    if isinstance(a, Tensor) and not isinstance(b, Tensor):
        return a, Tensor(np.asarray(b, dtype=a.data.dtype))
    if isinstance(b, Tensor) and not isinstance(a, Tensor):
        return Tensor(np.asarray(a, dtype=b.data.dtype)), b
    return _as_tensor(a), _as_tensor(b)


def _check_finite(arr: np.ndarray, op: str) -> None:
    # a single-pass sum is nan/inf-poisoned, so it detects any non-finite entry
    with np.errstate(all="ignore"):
        total = float(np.sum(arr))
    if not math.isfinite(total):
        raise NumericError(f"{op} produced non-finite values")


_grad_enabled = True


@contextlib.contextmanager
def no_grad():
    """Forward-only mode: ``_record`` keeps no parents or vjp and skips the
    per-op finiteness check. Nests, and restores the mode on exit."""
    global _grad_enabled
    previous = _grad_enabled
    _grad_enabled = False
    try:
        yield
    finally:
        _grad_enabled = previous


def check_finite(x, what: str) -> None:
    """Raise NumericError if a tensor or array holds a NaN or an infinity."""
    _check_finite(x.data if isinstance(x, Tensor) else np.asarray(x), what)


def _record(out, parents: tuple, vjp: Callable, check: Optional[str] = None) -> Tensor:
    """An op's result: a bare tensor under ``no_grad()``; otherwise, once `out`
    passes the finiteness check of an op that names one, a node over `parents`."""
    if not _grad_enabled:
        return Tensor(out)
    if check is not None:
        _check_finite(out, check)
    return Tensor(out, parents, vjp)


def _needs_grad(t: Tensor) -> bool:
    """A trainable parameter's tensor or a recorded node, read at backward time."""
    return t._vjp is not None or (t.param is not None and t.param.trainable)


def _unbroadcast(grad: np.ndarray, shape: tuple) -> np.ndarray:
    """Sum `grad` down to `shape`, undoing numpy broadcasting."""
    extra = grad.ndim - len(shape)
    if extra > 0:
        grad = grad.sum(axis=tuple(range(extra)))
    axes = tuple(i for i, s in enumerate(shape) if s == 1 and grad.shape[i] != 1)
    if axes:
        grad = grad.sum(axis=axes, keepdims=True)
    return grad


# ---------------------------------------------------------------------------
# graph-building operations
# ---------------------------------------------------------------------------


def add(a, b) -> Tensor:
    a, b = _as_pair(a, b)
    out = a.data + b.data

    def vjp(g):
        ga = _unbroadcast(g, a.shape) if _needs_grad(a) else None
        gb = _unbroadcast(g, b.shape) if _needs_grad(b) else None
        return ga, gb

    return _record(out, (a, b), vjp)


def mul(a, b) -> Tensor:
    a, b = _as_pair(a, b)
    out = a.data * b.data

    def vjp(g):
        ga = _unbroadcast(g * b.data, a.shape) if _needs_grad(a) else None
        gb = _unbroadcast(g * a.data, b.shape) if _needs_grad(b) else None
        return ga, gb

    return _record(out, (a, b), vjp)


def matmul(a, b) -> Tensor:
    a, b = _as_tensor(a), _as_tensor(b)
    if a.ndim < 2 or b.ndim < 2:
        raise ShapeError("matmul expects tensors with ndim >= 2")
    if a.shape[-1] != b.shape[-2]:
        raise ShapeError(f"matmul inner dims differ: {a.shape} @ {b.shape}")
    out = a.data @ b.data

    def vjp(g):
        ga = _unbroadcast(g @ np.swapaxes(b.data, -1, -2), a.shape) if _needs_grad(a) else None
        gb = _unbroadcast(np.swapaxes(a.data, -1, -2) @ g, b.shape) if _needs_grad(b) else None
        return ga, gb

    return _record(out, (a, b), vjp)


def affine(x, w, b) -> Tensor:
    """out[..., j] = sum_k x[..., k] * w[k, j] + b[j].

    The forward and backward GEMMs run on the (rows, k) view of `x`: numpy
    runs a stacked 3-d @ 2-d product as one small GEMM per leading index, well
    below the speed of the same product on the flattened rows. The result is
    the same bit for bit.
    """
    x, w, b = _as_tensor(x), _as_tensor(w), _as_tensor(b)
    if w.ndim != 2 or b.ndim != 1:
        raise ShapeError(f"affine weight must be 2-d and bias 1-d, got {w.shape}, {b.shape}")
    if x.shape[-1] != w.shape[0]:
        raise ShapeError(f"affine inner dims differ: {x.shape} vs {w.shape}")
    if b.shape[0] != w.shape[1]:
        raise ShapeError(f"affine bias dim {b.shape[0]} != output dim {w.shape[1]}")
    k, n = w.shape
    flat = x.data.reshape(-1, k) @ w.data
    if flat.dtype == b.data.dtype:
        flat += b.data
    else:
        flat = flat + b.data
    out = flat.reshape(x.shape[:-1] + (n,))

    def vjp(g):
        g_rows = g.reshape(-1, n)
        gx = (g_rows @ w.data.T).reshape(x.shape) if _needs_grad(x) else None
        gw = x.data.reshape(-1, k).T @ g_rows if _needs_grad(w) else None
        gb = g_rows.sum(axis=0) if _needs_grad(b) else None
        return gx, gw, gb

    return _record(out, (x, w, b), vjp, "affine")


def transpose(a) -> Tensor:
    """Swap the last two axes."""
    a = _as_tensor(a)
    out = np.swapaxes(a.data, -1, -2)

    def vjp(g):
        return (np.swapaxes(g, -1, -2),)

    return _record(out, (a,), vjp)


def swapaxes(a, i: int, j: int) -> Tensor:
    a = _as_tensor(a)
    out = np.swapaxes(a.data, i, j)

    def vjp(g):
        return (np.swapaxes(g, i, j),)

    return _record(out, (a,), vjp)


def reshape(a, shape: Sequence[int]) -> Tensor:
    a = _as_tensor(a)
    out = a.data.reshape(tuple(shape))

    def vjp(g):
        return (g.reshape(a.shape),)

    return _record(out, (a,), vjp)


def concat(tensors: Sequence, axis: int = 0) -> Tensor:
    parts = [_as_tensor(t) for t in tensors]
    out = np.concatenate([p.data for p in parts], axis=axis)

    def vjp(g):
        offsets = np.cumsum([0] + [p.shape[axis] for p in parts])
        grads = []
        for k in range(len(parts)):
            index = [slice(None)] * g.ndim
            index[axis] = slice(offsets[k], offsets[k + 1])
            grads.append(g[tuple(index)])
        return tuple(grads)

    return _record(out, tuple(parts), vjp)


def narrow(a, axis: int, start: int, length: int) -> Tensor:
    """Contiguous slice of `length` entries along `axis`, starting at `start`."""
    a = _as_tensor(a)
    if not 0 <= start <= start + length <= a.shape[axis]:
        raise ShapeError(f"narrow [{start}:{start + length}) outside axis of {a.shape[axis]}")
    index = [slice(None)] * a.ndim
    index[axis] = slice(start, start + length)
    index = tuple(index)
    out = a.data[index]

    def vjp(g):
        ga = np.zeros_like(a.data)
        ga[index] = g
        return (ga,)

    return _record(out, (a,), vjp)


def take_rows(table, ids) -> Tensor:
    """Gather rows of a 2-d tensor by an integer index array of any shape."""
    table = _as_tensor(table)
    idx = np.asarray(ids, dtype=np.int64)
    if table.ndim != 2:
        raise ShapeError(f"take_rows expects a 2-d table, got {table.shape}")
    if idx.size and (idx.min() < 0 or idx.max() >= table.shape[0]):
        raise ShapeError(f"row index out of range for table with {table.shape[0]} rows")
    out = table.data[idx]

    def vjp(g):
        if not _needs_grad(table):
            return (None,)
        gt = np.zeros_like(table.data)
        np.add.at(gt, idx.reshape(-1), g.reshape(-1, table.shape[1]))
        return (gt,)

    return _record(out, (table,), vjp)


def softmax_rows(x) -> Tensor:
    """Stable softmax over the last axis; each output row sums to 1."""
    x = _as_tensor(x)
    shifted = x.data - x.data.max(axis=-1, keepdims=True)
    e = np.exp(shifted)
    out = e / e.sum(axis=-1, keepdims=True)

    def vjp(g):
        inner = (g * out).sum(axis=-1, keepdims=True)
        return (out * (g - inner),)

    return _record(out, (x,), vjp, "softmax_rows")


def layer_norm(x, gain, bias) -> Tensor:
    """Normalize the last axis to zero mean / unit variance, then scale and shift."""
    x, gain, bias = _as_tensor(x), _as_tensor(gain), _as_tensor(bias)
    d = x.shape[-1]
    if gain.shape != (d,) or bias.shape != (d,):
        raise ShapeError(f"layer_norm gain/bias must have shape ({d},)")
    mean = x.data.mean(axis=-1, keepdims=True)
    centered = x.data - mean
    var = (centered * centered).mean(axis=-1, keepdims=True)
    inv = 1.0 / np.sqrt(var + LAYER_NORM_EPS)
    normed = centered * inv
    out = normed * gain.data + bias.data

    def vjp(g):
        # gx = gn * inv + gvar * 2.0 * centered / d + gmean / d with gn = g * gain,
        # evaluated in the same order in two full-size buffers
        gx = ggain = gbias = None
        if _needs_grad(x):
            gn = g * gain.data
            gx = gn * centered
            gvar = gx.sum(axis=-1, keepdims=True) * (-0.5) * inv**3
            np.multiply(gn, inv, out=gx)
            gmean = -gx.sum(axis=-1, keepdims=True) + gvar * (-2.0 / d) * centered.sum(
                axis=-1, keepdims=True
            )
            np.multiply(gvar * 2.0, centered, out=gn)
            gn /= d
            gx += gn
            gx += gmean / d
        if _needs_grad(gain):
            ggain = (g * normed).reshape(-1, d).sum(axis=0)
        if _needs_grad(bias):
            gbias = g.reshape(-1, d).sum(axis=0)
        return gx, ggain, gbias

    return _record(out, (x, gain, bias), vjp, "layer_norm")


_GELU_C = math.sqrt(2.0 / math.pi)


def gelu(x) -> Tensor:
    """Elementwise x * Phi(x) via the tanh approximation."""
    x = _as_tensor(x)
    xd = x.data
    x_sq = xd * xd
    t = np.tanh(_GELU_C * xd * (1.0 + 0.044715 * x_sq))
    out = 0.5 * xd * (1.0 + t)

    def vjp(g):
        # dx = 0.5 * (1 + t) + 0.5 * xd * (1 - t * t) * du with
        # du = C * (1 + 0.134145 * x_sq), evaluated in the same order in place
        du = np.multiply(x_sq, 0.134145)
        du += 1.0
        du *= _GELU_C
        slope = np.multiply(t, t)
        np.subtract(1.0, slope, out=slope)
        np.multiply(0.5 * xd, slope, out=slope)
        slope *= du
        np.add(t, 1.0, out=du)
        du *= 0.5
        du += slope
        du *= g
        return (du,)

    return _record(out, (x,), vjp, "gelu")


def cross_entropy(logits, targets) -> Tensor:
    """Mean over rows of -log softmax(logits)[target]."""
    logits = _as_tensor(logits)
    ids = np.asarray(targets, dtype=np.int64).reshape(-1)
    if logits.ndim < 2:
        raise ShapeError("cross_entropy expects logits with ndim >= 2")
    v = logits.shape[-1]
    flat = logits.data.reshape(-1, v)
    n = ids.shape[0]
    if flat.shape[0] != n or n == 0:
        raise ShapeError(f"{flat.shape[0]} logit rows vs {n} targets")
    if np.any((ids < 0) | (ids >= v)):
        raise ShapeError(f"target id out of range [0,{v})")

    shifted = flat - flat.max(axis=-1, keepdims=True)
    logz = np.log(np.exp(shifted).sum(axis=-1))
    rows = np.arange(n)
    out = (logz - shifted[rows, ids]).sum() / n

    def vjp(g):
        grad = np.exp(shifted - logz[:, None])
        grad[rows, ids] -= 1.0
        grad *= float(g) / n
        return (grad.reshape(logits.shape),)

    return _record(out, (logits,), vjp, "cross_entropy")


# ---------------------------------------------------------------------------
# backward pass
# ---------------------------------------------------------------------------


def _topo_order(root: Tensor) -> list[Tensor]:
    order: list[Tensor] = []
    seen: set[int] = set()
    stack: list[tuple[Tensor, bool]] = [(root, False)]
    while stack:
        node, expanded = stack.pop()
        if expanded:
            order.append(node)
            continue
        if id(node) in seen:
            continue
        seen.add(id(node))
        stack.append((node, True))
        for p in node._parents:
            if id(p) not in seen:
                stack.append((p, False))
    return order


def backward_gradients(loss: Tensor, params: Optional[Iterable[Parameter]] = None) -> None:
    """Populate Parameter.gradient with d(loss)/d(parameter).

    Trainable parameters reachable from `loss` get their true gradient; any
    other parameter in `params` or in the graph (a frozen one, or one the graph
    never touched) gets zeros. Requires `loss` to be a recorded scalar
    computation.

    The pass consumes the graph it walks: once a node's vjp has run, the node
    drops its parents and its vjp, so each activation is freed as soon as its
    last consumer's vjp has run, and `loss` keeps only its value. A loss is
    backpropagated once; a second call raises StateError.
    """
    if not isinstance(loss, Tensor):
        raise StateError("backward_gradients expects a Tensor loss")
    if loss.size != 1:
        raise ShapeError(f"loss must be scalar, got shape {loss.shape}")
    if not loss._parents:
        raise StateError("no recorded forward computation behind this loss")

    order = _topo_order(loss)
    in_graph = [node.param for node in order if node.param is not None]
    grads: dict[int, np.ndarray] = {id(loss): np.ones_like(loss.data)}
    done: set[int] = set()  # ids of the parameter tensors given a gradient
    while order:  # popped, so that `order` holds no node the pass is done with
        node = order.pop()
        g = grads.pop(id(node), None)
        if g is None:
            continue
        if node.param is not None:
            if node.param.trainable:
                node.param.gradient = np.array(g, copy=True)
                done.add(id(node))
            continue
        if node._vjp is None:
            continue
        parent_grads = node._vjp(g)
        for parent, pg in zip(node._parents, parent_grads):
            if pg is None:
                continue
            key = id(parent)
            if key in grads:
                grads[key] = grads[key] + pg
            else:
                grads[key] = pg
        node._parents, node._vjp = (), None

    for p in [*(params or ()), *in_graph]:
        if id(p.value) not in done:
            p.gradient = np.zeros_like(p.value.data)
            done.add(id(p.value))


# ---------------------------------------------------------------------------
# optimizer
# ---------------------------------------------------------------------------


ADAM_BETA1 = 0.9
ADAM_BETA2 = 0.999
ADAM_EPSILON = 1e-8


class OptimizerState:
    """Adam moments plus the warmup/decay schedule settings."""

    def __init__(self, base_lr: float, total_steps: int, warmup_fraction: float = 0.1):
        if total_steps <= 0:
            raise ShapeError("total_steps must be positive")
        if not 0.0 <= warmup_fraction <= 1.0:
            raise ShapeError("warmup_fraction must lie in [0, 1]")
        self.step = 0
        self.base_lr = base_lr
        self.total_steps = total_steps
        self.warmup_fraction = warmup_fraction
        self.first_moment: dict[str, np.ndarray] = {}
        self.second_moment: dict[str, np.ndarray] = {}


def lr_schedule(state: OptimizerState, step: int) -> float:
    """Linear ramp to base_lr over the warmup span, then linear decay to zero."""
    total = state.total_steps
    warm = state.warmup_fraction * total
    if step <= 0:
        return 0.0 if warm > 0 else state.base_lr
    if step >= total:
        return 0.0
    if step < warm:
        return state.base_lr * step / warm
    return state.base_lr * (total - step) / (total - warm)


def adam_step(params: Iterable[Parameter], state: OptimizerState) -> None:
    """Bias-corrected Adam update at the scheduled learning rate.

    Non-trainable parameters are left untouched, bit for bit.
    """
    state.step += 1
    t = state.step
    lr = lr_schedule(state, t)
    b1, b2, eps = ADAM_BETA1, ADAM_BETA2, ADAM_EPSILON
    for p in params:
        if not p.trainable:
            continue
        g = p.gradient
        m = state.first_moment.get(p.id)
        if m is None:
            m = np.zeros_like(p.value.data)
            state.first_moment[p.id] = m
            state.second_moment[p.id] = np.zeros_like(p.value.data)
        v = state.second_moment[p.id]
        # m = b1 * m + (1 - b1) * g, v = b2 * v + (1 - b2) * g^2 and
        # update = lr * m_hat / (sqrt(v_hat) + eps), in the same order in place
        m *= b1
        scratch = np.multiply(g, 1.0 - b1)
        m += scratch
        v *= b2
        np.multiply(g, g, out=scratch)
        scratch *= 1.0 - b2
        v += scratch
        update = np.divide(m, 1.0 - b1**t)
        update *= lr
        np.divide(v, 1.0 - b2**t, out=scratch)
        np.sqrt(scratch, out=scratch)
        scratch += eps
        update /= scratch
        _check_finite(update, "adam_step")
        p.value.data -= update


def clip_gradients(params: Iterable[Parameter], max_norm: float) -> float:
    """Scale all trainable gradients so their global L2 norm is at most max_norm."""
    total = 0.0
    trainable = [p for p in params if p.trainable]
    for p in trainable:
        total += float((p.gradient * p.gradient).sum())
    norm = math.sqrt(total)
    if norm > max_norm > 0:
        factor = max_norm / norm
        for p in trainable:
            p.gradient = p.gradient * factor
    return norm
