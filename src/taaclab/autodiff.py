"""Reverse-mode automatic differentiation over dense float64 tensors.

The computation graph is implicit: every tensor produced by an op keeps
references to its parent tensors plus a closure that maps the output
gradient to per-parent gradients. ``backward`` walks that graph once in
reverse topological order and accumulates gradients additively into the
leaves (tensors created with ``requires_grad=True``).

The op set is deliberately small: add, sub, mul, neg, scale, reshape,
exp, softmax_rows and log_softmax (both over the last axis), gather,
concat, reduce_sum, reduce_mean, mean_pairwise_cosine, maximum_const,
minimum, clip_const. The losses compose from these. The layers in ``nn``
(dense, multi-head attention) are one node each, added through ``record``
with a hand-derived backward.
"""

from __future__ import annotations

import contextlib
from typing import Callable, Iterator, Sequence

import numpy as np


class ShapeError(ValueError):
    """Operation received tensors of incompatible shape."""


_GRAD_ENABLED = [True]


@contextlib.contextmanager
def no_grad() -> Iterator[None]:
    """Disable graph recording inside the context (inference mode)."""
    _GRAD_ENABLED.append(False)
    try:
        yield
    finally:
        _GRAD_ENABLED.pop()


def grad_enabled() -> bool:
    return _GRAD_ENABLED[-1]


class Tensor:
    """Dense float64 array with an optional gradient slot.

    Leaves are tensors constructed directly with ``requires_grad=True``;
    after ``backward`` their ``.grad`` holds the partial derivative of the
    loss, accumulating across repeated backward calls until ``zero_grads``.
    """

    __slots__ = ("data", "grad", "requires_grad", "_parents", "_backward")

    def __init__(self, data, requires_grad: bool = False):
        self.data: np.ndarray = np.asarray(data, dtype=np.float64)
        self.grad: np.ndarray | None = None
        self.requires_grad = requires_grad
        self._parents: tuple[Tensor, ...] = ()
        self._backward: Callable[[np.ndarray], Sequence[np.ndarray | None]] | None = None

    @property
    def shape(self) -> tuple[int, ...]:
        return self.data.shape

    @property
    def is_leaf(self) -> bool:
        return not self._parents

    def item(self) -> float:
        if self.data.size != 1:
            raise ShapeError(f"item() requires a single-element tensor, got shape {self.shape}")
        return float(self.data.reshape(()))

    def __repr__(self) -> str:  # pragma: no cover - debug aid
        return f"Tensor(shape={self.shape}, requires_grad={self.requires_grad})"


def record(data: np.ndarray, parents: tuple[Tensor, ...], backward_fn) -> Tensor:
    """A tensor holding ``data``; while recording and some parent needs a gradient,
    also a tape node whose ``backward_fn(g)`` gives one gradient (or None) per parent."""
    out = Tensor(data)
    if grad_enabled() and any(p.requires_grad for p in parents):
        out.requires_grad = True
        out._parents = parents
        out._backward = backward_fn
    return out


def _topo_order(root: Tensor) -> list[Tensor]:
    """Iterative post-order DFS: parents appear before children."""
    topo: list[Tensor] = []
    visited: set[int] = set()
    stack: list[tuple[Tensor, bool]] = [(root, False)]
    while stack:
        node, processed = stack.pop()
        if processed:
            topo.append(node)
            continue
        if id(node) in visited:
            continue
        visited.add(id(node))
        stack.append((node, True))
        for parent in node._parents:
            if id(parent) not in visited:
                stack.append((parent, False))
    return topo


def backward(loss: Tensor) -> None:
    """Propagate d(loss)/d(node) through the graph rooted at ``loss``.

    ``loss`` must hold a single element. Leaf gradients accumulate
    additively across calls; non-leaf tensors get their latest gradient
    stored for inspection.
    """
    if loss.data.size != 1:
        raise ShapeError(f"backward requires a scalar loss, got shape {loss.shape}")
    topo = _topo_order(loss)
    grads: dict[int, np.ndarray] = {id(loss): np.ones_like(loss.data)}
    for node in reversed(topo):
        g = grads.pop(id(node), None)
        if g is None:
            continue
        if node.requires_grad:
            if node.is_leaf:
                node.grad = g.copy() if node.grad is None else node.grad + g
            else:
                node.grad = g
        if node._backward is None:
            continue
        for parent, pg in zip(node._parents, node._backward(g)):
            if pg is None or not parent.requires_grad:
                continue
            key = id(parent)
            if key in grads:
                grads[key] = grads[key] + pg
            else:
                grads[key] = pg


def zero_grads(params: Sequence[Tensor]) -> None:
    for p in params:
        p.grad = None


# ---------------------------------------------------------------------------
# ops


def add(a: Tensor, b: Tensor) -> Tensor:
    if a.shape != b.shape:
        raise ShapeError(f"add shapes differ: {a.shape} vs {b.shape}")

    def bw(g: np.ndarray):
        return g, g

    return record(a.data + b.data, (a, b), bw)


def sub(a: Tensor, b: Tensor) -> Tensor:
    if a.shape != b.shape:
        raise ShapeError(f"sub shapes differ: {a.shape} vs {b.shape}")

    def bw(g: np.ndarray):
        return g, -g

    return record(a.data - b.data, (a, b), bw)


def mul(a: Tensor, b: Tensor) -> Tensor:
    if a.shape != b.shape:
        raise ShapeError(f"mul shapes differ: {a.shape} vs {b.shape}")

    def bw(g: np.ndarray):
        return g * b.data, g * a.data

    return record(a.data * b.data, (a, b), bw)


def neg(a: Tensor) -> Tensor:
    return record(-a.data, (a,), lambda g: (-g,))


def scale(a: Tensor, s: float) -> Tensor:
    s = float(s)
    return record(a.data * s, (a,), lambda g: (g * s,))


def reshape(a: Tensor, shape: tuple[int, ...]) -> Tensor:
    data = a.data.reshape(shape)
    return record(data.copy(), (a,), lambda g: (g.reshape(a.shape),))


def exp(a: Tensor) -> Tensor:
    out = np.exp(a.data)
    return record(out, (a,), lambda g: (g * out,))


def softmax_rows(a: Tensor) -> Tensor:
    """Softmax over the last axis (the rows of a matrix), max-shifted for stability."""
    shifted = a.data - a.data.max(axis=-1, keepdims=True)
    e = np.exp(shifted)
    out = e / e.sum(axis=-1, keepdims=True)

    def bw(g: np.ndarray):
        dot = (g * out).sum(axis=-1, keepdims=True)
        return (out * (g - dot),)

    return record(out, (a,), bw)


def log_softmax(a: Tensor) -> Tensor:
    """log(softmax) over the last axis in one step: finite even where the
    probability underflows to 0."""
    shifted = a.data - a.data.max(axis=-1, keepdims=True)
    out = shifted - np.log(np.exp(shifted).sum(axis=-1, keepdims=True))

    def bw(g: np.ndarray):
        return (g - np.exp(out) * g.sum(axis=-1, keepdims=True),)

    return record(out, (a,), bw)


def gather(a: Tensor, cols: np.ndarray) -> Tensor:
    """Pick one column per row: out[i] = a[i, cols[i]]."""
    if a.data.ndim != 2:
        raise ShapeError(f"gather requires a 2-D tensor, got shape {a.shape}")
    cols = np.asarray(cols, dtype=np.intp)
    if cols.shape != (a.shape[0],):
        raise ShapeError(f"gather needs one column index per row: {cols.shape} vs {a.shape}")
    rows = np.arange(a.shape[0])

    def bw(g: np.ndarray):
        ga = np.zeros_like(a.data)
        np.add.at(ga, (rows, cols), g)
        return (ga,)

    return record(a.data[rows, cols], (a,), bw)


def concat(tensors: Sequence[Tensor], axis: int = 0) -> Tensor:
    if not tensors:
        raise ShapeError("concat of an empty sequence")
    ndim = tensors[0].data.ndim
    if any(t.data.ndim != ndim for t in tensors) or axis >= ndim:
        raise ShapeError(f"concat got incompatible shapes {[t.shape for t in tensors]} on axis {axis}")
    sizes = [t.shape[axis] for t in tensors]
    offsets = np.cumsum([0] + sizes)

    def bw(g: np.ndarray):
        sl = [slice(None)] * ndim
        out = []
        for k in range(len(sizes)):
            sl[axis] = slice(offsets[k], offsets[k + 1])
            out.append(g[tuple(sl)])
        return tuple(out)

    return record(np.concatenate([t.data for t in tensors], axis=axis), tuple(tensors), bw)


def reduce_sum(a: Tensor, axis: int | None = None) -> Tensor:
    def bw(g: np.ndarray):
        if axis is None:
            return (np.full_like(a.data, float(g)),)
        return (np.broadcast_to(np.expand_dims(g, axis), a.shape).copy(),)

    return record(a.data.sum(axis=axis), (a,), bw)


def reduce_mean(a: Tensor, axis: int | None = None) -> Tensor:
    count = a.data.size if axis is None else a.shape[axis]

    def bw(g: np.ndarray):
        if axis is None:
            return (np.full_like(a.data, float(g) / count),)
        return (np.broadcast_to(np.expand_dims(g, axis), a.shape) / count,)

    return record(a.data.mean(axis=axis), (a,), bw)


def mean_pairwise_cosine(a: Tensor, eps: float = 1e-8) -> Tensor:
    """Mean of cos(a[..., i, :], a[..., j, :]) over the row pairs i < j: (..., n, d) -> (...).

    ``eps`` is added to each norm, so zero rows stay finite and give 0.
    """
    if a.data.ndim < 2 or a.shape[-2] < 2:
        raise ShapeError(f"mean_pairwise_cosine requires (..., n >= 2, d) rows, got shape {a.shape}")
    n = a.shape[-2]
    upper = np.triu_indices(n, 1)
    norm = np.linalg.norm(a.data, axis=-1, keepdims=True)
    # direction of the norm term; a zero row contributes no norm gradient
    unit = np.divide(a.data, norm, out=np.zeros_like(a.data), where=norm > 0)
    scaled = a.data / (norm + eps)
    cos = scaled @ np.swapaxes(scaled, -1, -2)
    off_diag = 1.0 - np.eye(n)

    def bw(g: np.ndarray):
        # d/da_i of the pair sum: (sum_{j != i} scaled_j - (sum_{j != i} cos_ij) unit_i) / (|a_i| + eps)
        g = np.asarray(g)[..., None, None] / len(upper[0])
        others = off_diag @ scaled
        row_cos = (cos * off_diag).sum(axis=-1, keepdims=True)
        return (g * (others - row_cos * unit) / (norm + eps),)

    return record(cos[..., upper[0], upper[1]].mean(axis=-1), (a,), bw)


def maximum_const(a: Tensor, floor: float) -> Tensor:
    """Elementwise max(a, floor); gradient passes only where a > floor."""
    mask = a.data > floor

    def bw(g: np.ndarray):
        return (g * mask,)

    return record(np.maximum(a.data, floor), (a,), bw)


def minimum(a: Tensor, b: Tensor) -> Tensor:
    """Elementwise min; at ties the gradient routes to the first argument."""
    if a.shape != b.shape:
        raise ShapeError(f"minimum shapes differ: {a.shape} vs {b.shape}")
    take_a = a.data <= b.data

    def bw(g: np.ndarray):
        return g * take_a, g * ~take_a

    return record(np.minimum(a.data, b.data), (a, b), bw)


def clip_const(a: Tensor, lo: float, hi: float) -> Tensor:
    """Clamp to [lo, hi]; gradient passes only strictly inside the interval."""
    inside = (a.data > lo) & (a.data < hi)

    def bw(g: np.ndarray):
        return (g * inside,)

    return record(np.clip(a.data, lo, hi), (a,), bw)


# ---------------------------------------------------------------------------
# gradient checking


def grad_check(loss_fn: Callable[[], Tensor], params: Sequence[Tensor], eps: float = 1e-5) -> float:
    """Compare tape gradients of ``loss_fn()`` against central finite differences.

    ``loss_fn`` must rebuild the same scalar loss from the current contents
    of ``params`` on every call. Returns the max over all parameter entries
    of |analytic - numeric| / (|analytic| + |numeric| + 1e-12), which is NaN
    when any entry's error is.
    """
    zero_grads(params)
    backward(loss_fn())
    analytic = [p.grad.copy() if p.grad is not None else np.zeros_like(p.data) for p in params]
    errors = [0.0]
    with no_grad():
        for p, ga in zip(params, analytic):
            flat = p.data.reshape(-1)
            gflat = np.asarray(ga, dtype=np.float64).reshape(-1)
            for i in range(flat.size):
                orig = flat[i]
                flat[i] = orig + eps
                lp = loss_fn().item()
                flat[i] = orig - eps
                lm = loss_fn().item()
                flat[i] = orig
                numeric = (lp - lm) / (2.0 * eps)
                a = gflat[i]
                errors.append(abs(a - numeric) / (abs(a) + abs(numeric) + 1e-12))
    return float(np.max(errors))
