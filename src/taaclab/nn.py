"""MLP and multi-head scaled-dot-product attention, each layer one tape node.

Each layer has one array kernel: ``_dense``, or ``_attend``, whose stacked
matmuls over (B, H, n, d_k) views its backward shares. ``forward`` records
the kernel's result as one autodiff node with a hand-derived backward;
``forward_np`` runs the same kernel without the tape, so the two give the
same bits. Weights use Xavier-uniform initialization with zero biases. All
parameters are float64 leaf tensors; ``nets`` owns their file format.
"""

from __future__ import annotations

import math
import operator
from dataclasses import dataclass
from typing import Sequence

import numpy as np

from .autodiff import ShapeError, Tensor, record

ACTIVATIONS = ("relu", "identity")


def xavier_uniform(rng: np.random.Generator, fan_in: int, fan_out: int) -> np.ndarray:
    limit = math.sqrt(6.0 / (fan_in + fan_out))
    return rng.uniform(-limit, limit, size=(fan_in, fan_out))


@dataclass
class DenseLayer:
    w: Tensor
    b: Tensor
    activation: str


def check_stackable(what: str, layouts: Sequence[dict]) -> None:
    """ValueError naming the first entry in which the parts of a stack differ; ``layouts``
    holds one {name: value} dict per part, and a name a part lacks reads as None."""
    first = layouts[0]
    for k, layout in enumerate(layouts[1:], 1):
        for name in dict.fromkeys([*first, *layout]):
            if layout.get(name) != first.get(name):
                raise ValueError(f"cannot stack {what}: {name} is {layout.get(name)!r} in part {k} "
                                 f"but {first.get(name)!r} in part 0")


class Mlp:
    """Chain of affine layers with per-layer activation tags."""

    def __init__(self, layers: list[DenseLayer]):
        for prev, nxt in zip(layers, layers[1:]):
            if prev.w.shape[-1] != nxt.w.shape[-2]:
                raise ShapeError(f"adjacent layer widths do not chain: {prev.w.shape} -> {nxt.w.shape}")
        for layer in layers:
            if layer.activation not in ACTIVATIONS:
                raise ValueError(f"unknown activation {layer.activation!r}")
        self.layers = layers

    @classmethod
    def create(cls, sizes: Sequence[int], activations: Sequence[str], rng: np.random.Generator) -> "Mlp":
        if len(activations) != len(sizes) - 1:
            raise ValueError("need one activation per layer")
        layers = []
        for fan_in, fan_out, act in zip(sizes, sizes[1:], activations):
            w = Tensor(xavier_uniform(rng, fan_in, fan_out), requires_grad=True)
            b = Tensor(np.zeros(fan_out), requires_grad=True)
            layers.append(DenseLayer(w, b, act))
        return cls(layers)

    @classmethod
    def stacked(cls, mlps: Sequence["Mlp"]) -> "Mlp":
        """``mlps``, all of one shape, side by side for rollouts: each weight (K, in, out), each
        bias (K, 1, out). ``forward_np`` maps (K, rows, in) to (K, rows, out), slot k with mlp
        k's bits: numpy's stacked matmul makes each slot's BLAS call as a lone mlp would.
        Unequal weight shapes or activations raise ValueError (``check_stackable``).
        Tape-free only."""
        check_stackable("mlps", [{f"layer {i} {key}": value for i, layer in enumerate(m.layers)
                                  for key, value in (("weight shape", layer.w.shape), ("activation", layer.activation))}
                                 for m in mlps])
        return cls([DenseLayer(Tensor(np.stack([m.layers[i].w.data for m in mlps])),
                               Tensor(np.stack([m.layers[i].b.data for m in mlps])[:, None]), layer.activation)
                    for i, layer in enumerate(mlps[0].layers)])

    @property
    def in_width(self) -> int:
        return self.layers[0].w.shape[-2]

    def forward(self, x: Tensor) -> Tensor:
        """Forward for (rows, in_width) or stacked (..., in_width) inputs: one tape node per layer."""
        if x.data.ndim < 2 or x.shape[-1] != self.in_width:
            raise ShapeError(f"mlp input shape {x.shape} does not match first layer width {self.in_width}")
        for layer in self.layers:
            x = _dense_node(x, layer)
        return x

    def forward_np(self, x: np.ndarray, relu_preacts: list | None = None) -> np.ndarray:
        """Tape-free forward for stacked inputs (..., in_width).

        When ``relu_preacts`` is given, a copy of every relu layer's
        pre-activation array is appended to it (used to screen kink proximity).
        Stacked weights (``stacked``) take (K, rows, in_width), unfolded.
        """
        fold = x.ndim != 2 and self.layers[0].w.data.ndim == 2  # one GEMM per layer
        rows = x.reshape(-1, x.shape[-1]) if fold else x
        for layer in self.layers:
            rows = _dense(rows, layer, relu_preacts)
        return rows.reshape(x.shape[:-1] + rows.shape[-1:]) if fold else rows

    def parameters(self) -> list[Tensor]:
        out = []
        for layer in self.layers:
            out.extend((layer.w, layer.b))
        return out

    def named_parameters(self, prefix: str) -> dict[str, Tensor]:
        out = {}
        for i, layer in enumerate(self.layers):
            out[f"{prefix}.{i}.w"] = layer.w
            out[f"{prefix}.{i}.b"] = layer.b
        return out


def _dense(x: np.ndarray, layer: DenseLayer, relu_preacts: list | None = None, out=None) -> np.ndarray:
    """One layer over (rows, in) rows, or (K, rows, in) under stacked (K, in, out) weights, into
    ``out`` or a fresh array. A one-column layer is a per-row dot (einsum), so each row is
    bit-identical whatever the row count; BLAS gemv is not."""
    w = layer.w.data
    if w.shape[-1] == 1:
        y = np.einsum("...ij,...jk->...ik", x, w, out=out)
    else:  # the operator skips the ufunc's keyword parsing
        y = x @ w if out is None else np.matmul(x, w, out=out)
    y += layer.b.data
    if layer.activation == "relu":
        if relu_preacts is not None:
            relu_preacts.append(y.copy())
        np.maximum(y, 0.0, out=y)
    return y


def _dense_node(x: Tensor, layer: DenseLayer) -> Tensor:
    """``_dense`` over (..., in) as one tape node: relu mask, then g @ w.T, x.T @ g, g.sum(0)."""
    rows, w = x.data.reshape(-1, x.shape[-1]), layer.w.data
    y = _dense(rows, layer)

    def bw(g: np.ndarray):
        g = g.reshape(y.shape)
        if layer.activation == "relu":
            g = g * (y > 0)
        gx = (g @ w.T).reshape(x.shape) if x.requires_grad else None
        return gx, rows.T @ g, g.sum(axis=0)

    return record(y.reshape(x.shape[:-1] + y.shape[1:]), (x, layer.w, layer.b), bw)


@dataclass
class AttentionHead:
    wq: Tensor
    wk: Tensor
    wv: Tensor


def attention(m: Tensor, head: AttentionHead) -> tuple[Tensor, Tensor]:
    """Single-head scaled dot-product attention over the rows of ``m``: one
    (n, d_model) matrix, or each matrix of a (T, n, d_model) stack.

    Returns ``(weights, out)`` where ``weights`` is the row-stochastic
    n x n matrix softmax(m Wq (m Wk)^T / sqrt(d_k)), a constant, and ``out``
    is ``weights @ (m Wv)``, each with the leading axis of ``m`` if it has one.
    """
    out, (weights,) = MultiHeadAttention([head]).forward(m)
    return weights, out


def _attend(m: np.ndarray, packed: np.ndarray, n_heads: int):
    """Attention of every head over the rows of each (n, d_model) matrix of ``m``
    (..., n, d_model), from the packed projection (``_packed_weights``); a stacked
    (K, d_model, 3 * H * d_k) projection takes (K, n, d_model), one slot per weight set.

    Returns ``(qkv, weights, out)``: the (B, n, 3, H, d_k) projections, the
    (B, H, n, n) weights and the (..., n, H * d_k) head outputs side by side.
    One GEMM projects every head; the scores and outputs are stacked matmuls
    over (B, H, n, d_k) views of it, the views the backward uses.
    """
    n, d_model = m.shape[-2:]
    d_k = packed.shape[-1] // (3 * n_heads)
    rows = m if m.ndim == 2 or packed.ndim == 3 else m.reshape(-1, d_model)  # (K, ...) packs keep the slots
    qkv = (rows @ packed).reshape(-1, n, 3, n_heads, d_k)
    heads = qkv.transpose(2, 0, 3, 1, 4)  # q, k, v: (B, H, n, d_k); indexed, not unpacked
    w = heads[0] @ qkv[:, :, 1].transpose(0, 2, 3, 1)  # q @ k^T, k^T taken in one view
    w /= math.sqrt(d_k)
    w -= np.maximum.reduce(w, -1, keepdims=True)  # softmax in place
    np.exp(w, out=w)
    w /= np.add.reduce(w, -1, keepdims=True)
    out = (w @ heads[2]).transpose(0, 2, 1, 3)
    return qkv, w, out.reshape(m.shape[:-1] + (n_heads * d_k,))


class MultiHeadAttention:
    """Parallel attention heads whose per-row outputs are concatenated."""

    def __init__(self, heads: list[AttentionHead]):
        if not heads:
            raise ValueError("need at least one attention head")
        shape = heads[0].wq.shape  # one shape lets forward_np project every head in one GEMM
        if any(w.shape != shape for h in heads for w in (h.wq, h.wk, h.wv)):
            raise ShapeError(f"every head's wq, wk and wv must share one shape, the first wq's {shape}")
        self.heads = heads
        # every head's wq, then wk, then wv (the packed projection's column order); weights change via .data
        self._projections = [h.wq for h in heads] + [h.wk for h in heads] + [h.wv for h in heads]
        self._packed_from: list[np.ndarray] = []  # the arrays ``_packed`` was built from
        self._packed: np.ndarray | None = None

    @classmethod
    def create(cls, d_model: int, n_heads: int, rng: np.random.Generator) -> "MultiHeadAttention":
        if d_model % n_heads != 0:
            raise ValueError(f"d_model {d_model} not divisible by n_heads {n_heads}")
        d_head = d_model // n_heads
        heads = [
            AttentionHead(
                wq=Tensor(xavier_uniform(rng, d_model, d_head), requires_grad=True),
                wk=Tensor(xavier_uniform(rng, d_model, d_head), requires_grad=True),
                wv=Tensor(xavier_uniform(rng, d_model, d_head), requires_grad=True),
            )
            for _ in range(n_heads)
        ]
        return cls(heads)

    @classmethod
    def stacked(cls, blocks: Sequence["MultiHeadAttention"]) -> "MultiHeadAttention":
        """``blocks``, all of one shape, side by side for rollouts: each projection
        (K, d_model, d_k). ``forward_np`` maps (K, n, d_model) to (K, n, H * d_k), slot k with
        block k's bits. Unequal head counts or shapes raise ValueError. Tape-free only. The heads'
        weights are column views of the stack's one copy, its packed projection (``_packed``)."""
        check_stackable("attention blocks", [{f"head {h} {name} shape": getattr(head, name).shape
                                              for h, head in enumerate(b.heads) for name in ("wq", "wk", "wv")}
                                             for b in blocks])
        packed = np.stack([np.concatenate([p.data for p in b._projections], axis=-1) for b in blocks])
        n_heads = len(blocks[0].heads)
        views = [Tensor(v) for v in np.split(packed, 3 * n_heads, axis=-1)]
        stack = cls([AttentionHead(*views[h::n_heads]) for h in range(n_heads)])
        stack._packed, stack._packed_from = packed, [p.data for p in stack._projections]
        return stack

    @property
    def out_width(self) -> int:
        return sum(h.wv.shape[-1] for h in self.heads)

    def forward(self, m: Tensor) -> tuple[Tensor, list[Tensor]]:
        """Returns (per-row concatenation of head outputs, per-head weights as
        constants) for an (n, d_model) matrix or a (T, n, d_model) stack.

        One tape node; its backward is the softmax Jacobian, then dQKV, split
        back into each head's wq, wk and wv. The projection is packed afresh,
        so an in-place edit of a weight array is seen.
        """
        params = self._projections
        d_model = params[0].shape[0]
        if m.data.ndim not in (2, 3) or m.shape[-1] != d_model:
            raise ShapeError(f"attention input shape {m.shape} does not match head width {d_model}")
        packed = np.concatenate([p.data for p in params], axis=1)
        rows, n_heads = m.data.reshape(-1, d_model), len(self.heads)
        qkv, w, out = _attend(m.data, packed, n_heads)

        def bw(g: np.ndarray):
            # the forward's stacked matmuls over (B, H, n, d_k) views, transposed
            q, k, v = qkv.transpose(2, 0, 3, 1, 4)
            g = g.reshape(qkv[:, :, 0].shape).transpose(0, 2, 1, 3)
            dqkv = np.empty((3,) + q.shape)
            np.matmul(w.swapaxes(-1, -2), g, out=dqkv[2])
            dw = g @ v.swapaxes(-1, -2)
            ds = w * (dw - (dw * w).sum(axis=-1, keepdims=True))  # softmax Jacobian
            ds /= math.sqrt(q.shape[-1])
            np.matmul(ds, k, out=dqkv[0])
            np.matmul(ds.swapaxes(-1, -2), q, out=dqkv[1])
            dqkv = dqkv.transpose(1, 3, 0, 2, 4).reshape(rows.shape[0], -1)
            dm = (dqkv @ packed.T).reshape(m.shape) if m.requires_grad else None
            return (dm, *np.split(rows.T @ dqkv, len(params), axis=1))

        weights = [Tensor(w[:, h].reshape(m.shape[:-1] + (m.shape[-2],))) for h in range(n_heads)]
        return record(out, (m, *params), bw), weights

    def _packed_weights(self) -> np.ndarray:
        """Every head's wq, then wk, then wv side by side: (d_model, 3 * H * d_k), with a
        leading K axis for stacked weights.

        Rebuilt only when some head's ``.data`` is another array object than at
        the last build, as after ``Adam.step`` or ``restore_params``; an in-place
        edit of a weight array is not seen.
        """
        arrays = [p.data for p in self._projections]
        # the arrays are held, not their ids: a freed array's id can come back
        if self._packed is None or not all(map(operator.is_, arrays, self._packed_from)):
            self._packed = np.concatenate(arrays, axis=-1)
            self._packed_from = arrays
        return self._packed

    def forward_np(self, m: np.ndarray) -> np.ndarray:
        """Tape-free forward for stacked inputs (..., n, d_model): ``forward``'s kernel.
        The packed projection is cached (``_packed_weights``): replace a weight's
        ``.data`` to change it; an in-place edit is not seen."""
        return _attend(m, self._packed_weights(), len(self.heads))[2]

    def parameters(self) -> list[Tensor]:
        out = []
        for head in self.heads:
            out.extend((head.wq, head.wk, head.wv))
        return out

    def named_parameters(self, prefix: str) -> dict[str, Tensor]:
        out = {}
        for i, head in enumerate(self.heads):
            out[f"{prefix}.{i}.wq"] = head.wq
            out[f"{prefix}.{i}.wk"] = head.wk
            out[f"{prefix}.{i}.wv"] = head.wv
        return out
