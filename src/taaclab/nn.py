"""MLP and multi-head scaled-dot-product attention built on the autodiff tape.

Weights use Xavier-uniform initialization with zero biases. All parameters
are float64 leaf tensors; ``nets`` owns their file format.
"""

from __future__ import annotations

import math
from dataclasses import dataclass
from typing import Sequence

import numpy as np

from .autodiff import (
    ShapeError,
    Tensor,
    add,
    bmm,
    concat,
    matmul,
    relu,
    reshape,
    scale,
    softmax_rows,
    tanh,
)

ACTIVATIONS = ("relu", "tanh", "identity")


def xavier_uniform(rng: np.random.Generator, fan_in: int, fan_out: int) -> np.ndarray:
    limit = math.sqrt(6.0 / (fan_in + fan_out))
    return rng.uniform(-limit, limit, size=(fan_in, fan_out))


def _apply_activation(x: Tensor, tag: str) -> Tensor:
    if tag == "relu":
        return relu(x)
    if tag == "tanh":
        return tanh(x)
    if tag == "identity":
        return x
    raise ValueError(f"unknown activation {tag!r}, expected one of {ACTIVATIONS}")


@dataclass
class DenseLayer:
    w: Tensor
    b: Tensor
    activation: str


class Mlp:
    """Chain of affine layers with per-layer activation tags."""

    def __init__(self, layers: list[DenseLayer]):
        for prev, nxt in zip(layers, layers[1:]):
            if prev.w.shape[1] != nxt.w.shape[0]:
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

    @property
    def in_width(self) -> int:
        return self.layers[0].w.shape[0]

    @property
    def out_width(self) -> int:
        return self.layers[-1].w.shape[1]

    def forward(self, x: Tensor) -> Tensor:
        """Forward for (rows, in_width) or stacked (..., in_width) inputs."""
        if x.data.ndim < 2 or x.shape[-1] != self.in_width:
            raise ShapeError(f"mlp input shape {x.shape} does not match first layer width {self.in_width}")
        lead = x.shape[:-1]
        if len(lead) > 1:
            x = reshape(x, (-1, self.in_width))  # collapse to one GEMM per layer
        for layer in self.layers:
            x = _apply_activation(add(matmul(x, layer.w), layer.b), layer.activation)
        return reshape(x, lead + (x.shape[-1],)) if len(lead) > 1 else x

    def forward_np(self, x: np.ndarray, relu_preacts: list | None = None) -> np.ndarray:
        """Tape-free forward for stacked inputs (..., in_width).

        When ``relu_preacts`` is given, a copy of every relu layer's
        pre-activation array is appended to it (used to screen kink proximity).
        """
        lead = x.shape[:-1]
        x = x.reshape(-1, x.shape[-1])  # collapse to one GEMM per layer
        for layer in self.layers:
            x = x @ layer.w.data  # a fresh array: the rest of the layer works in place
            x += layer.b.data
            if layer.activation == "relu":
                if relu_preacts is not None:
                    relu_preacts.append(x.copy())
                np.maximum(x, 0.0, out=x)
            elif layer.activation == "tanh":
                np.tanh(x, out=x)
        return x.reshape(lead + (x.shape[-1],))

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


@dataclass
class AttentionHead:
    wq: Tensor
    wk: Tensor
    wv: Tensor


def attention(m: Tensor, head: AttentionHead) -> tuple[Tensor, Tensor]:
    """Scaled dot-product attention over the rows of ``m``: one (n, d_model)
    matrix, or each matrix of a (T, n, d_model) stack.

    Returns ``(weights, out)`` where ``weights`` is the row-stochastic
    n x n matrix softmax(m Wq (m Wk)^T / sqrt(d_k)) and ``out`` is
    ``weights @ (m Wv)``, each with the leading axis of ``m`` if it has one.
    """
    d_model = head.wq.shape[0]
    if m.data.ndim not in (2, 3) or m.shape[-1] != d_model:
        raise ShapeError(f"attention input shape {m.shape} does not match head width {d_model}")
    n = m.shape[-2]
    rows = reshape(m, (-1, d_model))  # one GEMM per projection over every row
    q, k, v = (reshape(matmul(rows, w), (-1, n, w.shape[1])) for w in (head.wq, head.wk, head.wv))
    d_k = head.wk.shape[1]
    weights = softmax_rows(scale(bmm(q, k, transpose_b=True), 1.0 / math.sqrt(d_k)))
    out = bmm(weights, v)
    lead = m.shape[:-1]
    return reshape(weights, lead + (n,)), reshape(out, lead + (out.shape[-1],))


class MultiHeadAttention:
    """Parallel attention heads whose per-row outputs are concatenated."""

    def __init__(self, heads: list[AttentionHead]):
        if not heads:
            raise ValueError("need at least one attention head")
        shape = heads[0].wq.shape  # one shape lets forward_np project every head in one GEMM
        if any(w.shape != shape for h in heads for w in (h.wq, h.wk, h.wv)):
            raise ShapeError(f"every head's wq, wk and wv must share one shape, the first wq's {shape}")
        self.heads = heads
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

    @property
    def d_model(self) -> int:
        return self.heads[0].wq.shape[0]

    @property
    def out_width(self) -> int:
        return sum(h.wv.shape[1] for h in self.heads)

    def forward(self, m: Tensor) -> tuple[Tensor, list[Tensor]]:
        """Returns (per-row concatenation of head outputs, per-head weights)
        for an (n, d_model) matrix or a (T, n, d_model) stack."""
        outs, weights = [], []
        for head in self.heads:
            w, o = attention(m, head)
            weights.append(w)
            outs.append(o)
        return concat(outs, axis=-1), weights

    def _packed_weights(self) -> np.ndarray:
        """Every head's wq, then wk, then wv side by side: (d_model, 3 * H * d_k).

        Rebuilt only when some head's ``.data`` is another array object than at
        the last build, as after ``Adam.step`` or ``restore_params``; an in-place
        edit of a weight array is not seen.
        """
        arrays = ([h.wq.data for h in self.heads] + [h.wk.data for h in self.heads]
                  + [h.wv.data for h in self.heads])
        # the arrays are held, not their ids: a freed array's id can come back
        if self._packed is None or any(a is not b for a, b in zip(arrays, self._packed_from)):
            self._packed = np.concatenate(arrays, axis=1)
            self._packed_from = arrays
        return self._packed

    def forward_np(self, m: np.ndarray) -> np.ndarray:
        """Tape-free forward for stacked inputs (..., n, d_model): one GEMM projects
        every head, and the 4-D einsums equal per-head ones bit for bit (``q @ k.T``
        does not). The packed projection is cached (``_packed_weights``): replace a
        weight's ``.data`` to change it; an in-place edit is not seen."""
        lead = m.shape[:-2]
        n, d_model = m.shape[-2:]
        d_k = self.heads[0].wk.shape[1]
        qkv = (m.reshape(-1, d_model) @ self._packed_weights()).reshape(-1, n, 3, len(self.heads), d_k)
        q, k, v = qkv[:, :, 0], qkv[:, :, 1], qkv[:, :, 2]
        w = np.einsum("bihk,bjhk->bhij", q, k)
        w /= math.sqrt(d_k)
        w -= w.max(axis=-1, keepdims=True)  # softmax in place
        np.exp(w, out=w)
        w /= w.sum(axis=-1, keepdims=True)
        out = np.einsum("bhij,bjhk->bihk", w, v)
        return out.reshape(lead + (n, self.out_width))

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
