"""The tape-free forward kernels as they were before their dispatch was trimmed.

``_dense``, ``mlp_forward_np`` (``Mlp.forward_np``), ``_attend``,
``_stable_softmax_np`` and ``_sample_rows`` below are those kernels verbatim,
with ``Mlp.forward_np`` taking the ``Mlp`` as its first argument. The
``taaclab`` kernels run the same numpy operations on the same operands in the
same order, so tests hold every tape-free output built from them to these bit
for bit. The composed forwards (``actor_probs``, ``critic_q``, ``ppo_probs``,
``ppo_values``, ``act``) rebuild each network's tape-free forward from these
kernels and the network's own weights.
"""

import bisect
import itertools
import math

import numpy as np


def _dense(x: np.ndarray, layer, relu_preacts: list | None = None, out=None) -> np.ndarray:
    """One layer over (rows, in) rows, into ``out`` or a fresh array. A one-column layer is a
    per-row dot (einsum), so each row is bit-identical whatever the row count; BLAS gemv is not."""
    w = layer.w.data
    y = np.einsum("ij,jk->ik", x, w, out=out) if w.shape[1] == 1 else np.matmul(x, w, out=out)
    y += layer.b.data
    if layer.activation == "relu":
        if relu_preacts is not None:
            relu_preacts.append(y.copy())
        np.maximum(y, 0.0, out=y)
    return y


def mlp_forward_np(mlp, x: np.ndarray, relu_preacts: list | None = None) -> np.ndarray:
    """Tape-free forward for stacked inputs (..., in_width).

    When ``relu_preacts`` is given, a copy of every relu layer's
    pre-activation array is appended to it (used to screen kink proximity).
    """
    lead = x.shape[:-1]
    x = x.reshape(-1, x.shape[-1])  # collapse to one GEMM per layer
    for layer in mlp.layers:
        x = _dense(x, layer, relu_preacts)
    return x.reshape(lead + (x.shape[-1],))


def _attend(m: np.ndarray, packed: np.ndarray, n_heads: int):
    """Attention of every head over the rows of each (n, d_model) matrix of ``m``
    (..., n, d_model), from the packed projection (``_packed_weights``).

    Returns ``(qkv, weights, out)``: the (B, n, 3, H, d_k) projections, the
    (B, H, n, n) weights and the (..., n, H * d_k) head outputs side by side.
    One GEMM projects every head; the scores and outputs are stacked matmuls
    over (B, H, n, d_k) views of it, the views the backward uses.
    """
    lead = m.shape[:-2]
    n, d_model = m.shape[-2:]
    d_k = packed.shape[1] // (3 * n_heads)
    qkv = (m.reshape(-1, d_model) @ packed).reshape(-1, n, 3, n_heads, d_k)
    q, k, v = qkv.transpose(2, 0, 3, 1, 4)
    w = q @ k.swapaxes(-1, -2)
    w /= math.sqrt(d_k)
    w -= w.max(axis=-1, keepdims=True)  # softmax in place
    np.exp(w, out=w)
    w /= w.sum(axis=-1, keepdims=True)
    out = (w @ v).transpose(0, 2, 1, 3)
    return qkv, w, out.reshape(lead + (n, n_heads * d_k))


def _stable_softmax_np(logits: np.ndarray) -> np.ndarray:
    """Softmax over the last axis, computed in place: returns ``logits``, overwritten."""
    logits -= logits.max(axis=-1, keepdims=True)
    np.exp(logits, out=logits)
    logits /= logits.sum(axis=-1, keepdims=True)
    return logits


def _sample_rows(probs: np.ndarray, rng: np.random.Generator) -> np.ndarray:
    """One inverse-CDF draw per row; ``rng.random(n)`` is the stream of n single draws.

    The action is the count of cdf entries <= u, capped at k - 1. ``accumulate``
    adds in order, as ``np.cumsum`` does, so the cdf has the same bits.
    """
    n, k = probs.shape
    actions = []
    for row, u in zip(probs.tolist(), rng.random(n).tolist()):
        cdf = list(itertools.accumulate(row))
        # bisect needs a sorted cdf; a NaN makes the rest of it NaN, and NaN counts as > u
        a = bisect.bisect_right(cdf, u) if cdf[-1] == cdf[-1] else sum(c <= u for c in cdf)
        actions.append(min(a, k - 1))
    return np.array(actions, dtype=np.int64)


def attention_np(attn, m: np.ndarray) -> np.ndarray:
    """``MultiHeadAttention.forward_np`` from the reference kernel, packed afresh."""
    packed = np.concatenate([p.data for p in attn._projections], axis=1)
    return _attend(m, packed, len(attn.heads))[2]


def actor_probs(actor, obs: np.ndarray) -> np.ndarray:
    """``ActorNet.probs_np``."""
    x = np.asarray(obs, dtype=np.float64) / actor.cfg.obs_scale
    m = mlp_forward_np(actor.embed, x)
    e = attention_np(actor.attn, m) if actor.attn is not None else m
    return _stable_softmax_np(mlp_forward_np(actor.post, e))


def critic_q(critic, obs: np.ndarray, actions: np.ndarray) -> np.ndarray:
    """``CriticNet.q_np``."""
    x = critic._inputs(obs, actions)
    m = mlp_forward_np(critic.embed, x)
    e = attention_np(critic.attn, m)
    return mlp_forward_np(critic.post, np.concatenate([m, e], axis=-1))[..., 0]


def ppo_probs(policy, obs: np.ndarray) -> np.ndarray:
    """``PpoTeamPolicy.probs_np``."""
    x = np.asarray(obs, dtype=np.float64) / policy.net_cfg.obs_scale
    return _stable_softmax_np(mlp_forward_np(policy.policy_net, x))


def ppo_values(policy, obs: np.ndarray) -> np.ndarray:
    """``PpoTeamPolicy.values_np``."""
    x = np.asarray(obs, dtype=np.float64) / policy.net_cfg.obs_scale
    return mlp_forward_np(policy.value_net, x)[..., 0]


def act(policy, obs: np.ndarray, rng: np.random.Generator) -> np.ndarray:
    """``act`` of a TAAC or PPO team policy."""
    probs = ppo_probs(policy, obs) if policy.kind == "ppo" else actor_probs(policy.actor, obs)
    return _sample_rows(probs, rng)
