"""The counterfactual-baseline kernels that ``taaclab.nets`` replaced.

``counterfactual_baselines`` is the per-transition oracle: one stacked
tape-free ``q_np`` pass over all n * A single-action substitutions of one
transition. Tests hold the blocked kernel to it at rounding level.

The one-workspace kernel in ``taaclab.nets`` replaced the blocked kernel below.

``counterfactual_baselines_batch`` below is that kernel verbatim: every block
allocates its own intermediates (``np.repeat`` of the critic input,
``take_along_axis`` for the taken actions' keys and values, a ``concatenate``
of the head outputs). It runs the same GEMMs on the same inputs and the same
elementwise ops in the same order, so tests hold ``nets.counterfactual_baselines_batch``
to it bit for bit. It runs in the kernel's blocks (``nets._CF_BLOCK_ROWS``),
since BLAS results can depend on a GEMM's row count.
"""

import functools
import math

import numpy as np

from taaclab.nets import _CF_BLOCK_ROWS, CriticNet


def counterfactual_baselines(obs: np.ndarray, actions: np.ndarray, probs: np.ndarray,
                             critic: CriticNet) -> np.ndarray:
    """Per-agent expected value over the agent's own action choices.

    b_i = sum_a probs[i, a] * Q_i(obs, (a, actions of everyone else)),
    evaluated with one stacked tape-free critic pass over all n * A
    single-action substitutions. Never depends on actions[i].
    """
    obs = np.asarray(obs, dtype=np.float64)
    n, n_act = obs.shape[0], critic.cfg.n_actions
    act_stack = np.tile(actions, (n * n_act, 1))
    for i in range(n):
        act_stack[i * n_act:(i + 1) * n_act, i] = np.arange(n_act)
    obs_stack = np.broadcast_to(obs, (n * n_act,) + obs.shape)
    q = critic.q_np(obs_stack, act_stack)  # (n * n_act, n)
    b = np.empty(n)
    for i in range(n):
        b[i] = probs[i] @ q[i * n_act:(i + 1) * n_act, i]
    return b


def counterfactual_baselines_batch(obs_stack: np.ndarray, act_stack: np.ndarray,
                                   probs_stack: np.ndarray, critic: CriticNet) -> np.ndarray:
    """Baselines for a whole batch of transitions, computed from the critic's parts.

    ``obs_stack`` is (T, n, obs_width), ``act_stack`` (T, n), ``probs_stack``
    (T, n, A). Returns (T, n). Matches counterfactual_baselines applied per
    transition. Each (agent, action) pair is embedded once. Substituting
    agent i's action changes only agent i's key and value, and only agent
    i's value is needed, so each substitution attends from one query row.
    Blocks of at most ``_CF_BLOCK_ROWS`` substitutions (at least one
    transition) run per pass.
    """
    obs_stack = np.asarray(obs_stack, dtype=np.float64)
    act_stack = np.asarray(act_stack, dtype=np.int64)
    T, n = act_stack.shape
    A = critic.cfg.n_actions
    step = max(1, _CF_BLOCK_ROWS // (n * A))
    idx = np.arange(n)
    out = np.empty((T, n))
    for start in range(0, T, step):
        acts = act_stack[start:start + step]
        x = critic._inputs(obs_stack[start:start + step], acts)  # checks the action ids
        x = np.repeat(x[:, :, None], A, axis=2)                  # (t, n, A, in)
        x[..., -A:] = np.eye(A)                                   # row a: one-hot of action a
        m = critic.embed.forward_np(x)                            # (t, n, A, d)
        t, taken = m.shape[0], acts[:, :, None, None]
        heads = [m]
        for head in critic.attn.heads:  # per-head GEMMs: slices of one packed GEMM slow what follows
            q, k, v = ((m.reshape(-1, m.shape[-1]) @ w.data).reshape(t, n, A, -1)
                       for w in (head.wq, head.wk, head.wv))
            k_act = np.take_along_axis(k, taken, axis=2)[:, :, 0]  # keys of the taken actions
            v_act = np.take_along_axis(v, taken, axis=2)[:, :, 0]
            scores = (q.reshape(t, n * A, -1) @ np.swapaxes(k_act, 1, 2)).reshape(t, n, A, n)
            scores[:, idx, :, idx] = (q * k).sum(axis=-1).transpose(1, 0, 2)
            scores /= math.sqrt(k.shape[-1])
            # softmax over the n keys from elementwise ops on the n key slices; the in-order
            # sum equals numpy's reduction over a last axis shorter than 8, bit for bit
            keys = [scores[..., j] for j in range(n)]
            scores -= functools.reduce(np.maximum, keys)[..., None]
            np.exp(scores, out=scores)
            scores /= functools.reduce(np.add, keys)[..., None]
            own = scores[:, idx, :, idx].transpose(1, 0, 2)[..., None]  # weight on the substituted row
            scores[:, idx, :, idx] = 0.0
            heads.append((scores.reshape(t, n * A, n) @ v_act).reshape(v.shape) + own * v)
        q_sub = critic.post.forward_np(np.concatenate(heads, axis=-1))[..., 0]  # (t, n, A)
        out[start:start + step] = np.einsum("tia,tia->ti", probs_stack[start:start + step], q_sub)
    return out
