"""The layer compositions that the single-node layers in ``taaclab.nn`` replaced.

``matmul``, ``bmm``, ``relu`` and the bias-broadcast ``add_bias`` are the
tape ops the dense layer and multi-head attention were once built from;
``mlp_forward``, ``attention`` and ``multihead_forward`` compose them as the
layers did. Tests hold the one-node layers to this reference: same values
at rounding level, same gradients within 1e-12.
"""

import math

import numpy as np

from taaclab.autodiff import ShapeError, concat, record, reshape, scale, softmax_rows


def matmul(a, b):
    """2-D product. A 1-column product is a row-wise multiply-sum, so its rows do not
    depend on the row count."""
    if a.data.ndim != 2 or b.data.ndim != 2 or a.shape[1] != b.shape[0]:
        raise ShapeError(f"matmul requires 2-D tensors with matching inner dims, got {a.shape} x {b.shape}")

    def bw(g):
        return g @ b.data.T, a.data.T @ g

    if b.shape[1] == 1:
        return record((a.data * b.data[:, 0]).sum(axis=1, keepdims=True), (a, b), bw)
    return record(a.data @ b.data, (a, b), bw)


def bmm(a, b, transpose_b=False):
    """Matrix product over a leading batch axis: (B, m, k) x (B, k, p) -> (B, m, p).

    With ``transpose_b`` the second operand is given as (B, p, k).
    """
    bt = np.swapaxes(b.data, 1, 2) if transpose_b else b.data
    if a.data.ndim != 3 or bt.ndim != 3 or a.shape[0] != bt.shape[0] or a.shape[2] != bt.shape[1]:
        raise ShapeError(f"bmm requires (B, m, k) x (B, k, p) tensors, got {a.shape} x {bt.shape}")

    def bw(g):
        gb = np.swapaxes(a.data, 1, 2) @ g
        return g @ np.swapaxes(bt, 1, 2), (np.swapaxes(gb, 1, 2) if transpose_b else gb)

    return record(a.data @ bt, (a, b), bw)


def add_bias(a, b):
    """A 1-D bias added to every row of a matrix."""
    if a.data.ndim != 2 or b.data.ndim != 1 or a.shape[1] != b.shape[0]:
        raise ShapeError(f"add_bias needs (rows, k) + (k,), got {a.shape} + {b.shape}")
    return record(a.data + b.data, (a, b), lambda g: (g, g.sum(axis=0)))


def relu(a):
    mask = a.data > 0
    return record(np.where(mask, a.data, 0.0), (a,), lambda g: (g * mask,))


def mlp_forward(mlp, x):
    """``Mlp.forward`` as a chain of reshape, matmul, add_bias and relu nodes."""
    lead = x.shape[:-1]
    x = reshape(x, (-1, mlp.in_width))
    for layer in mlp.layers:
        x = add_bias(matmul(x, layer.w), layer.b)
        if layer.activation == "relu":
            x = relu(x)
    return reshape(x, lead + (x.shape[-1],))


def attention(m, head):
    """One head over (n, d_model) or (T, n, d_model): (weights, out), per-head bmm nodes."""
    d_model = head.wq.shape[0]
    n = m.shape[-2]
    rows = reshape(m, (-1, d_model))
    q, k, v = (reshape(matmul(rows, w), (-1, n, w.shape[1])) for w in (head.wq, head.wk, head.wv))
    weights = softmax_rows(scale(bmm(q, k, transpose_b=True), 1.0 / math.sqrt(head.wk.shape[1])))
    out = bmm(weights, v)
    lead = m.shape[:-1]
    return reshape(weights, lead + (n,)), reshape(out, lead + (out.shape[-1],))


def multihead_forward(mha, m):
    """``MultiHeadAttention.forward`` as per-head ``attention`` plus a concat."""
    outs, weights = [], []
    for head in mha.heads:
        w, o = attention(m, head)
        weights.append(w)
        outs.append(o)
    return concat(outs, axis=-1), weights
