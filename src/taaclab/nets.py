"""Attention actor-critic networks, counterfactual baseline, conformity loss.

The actor embeds each agent's observation, runs the embeddings through
multi-head attention, and maps each agent's concatenated head outputs to
a distribution over the 18 discrete actions. The original embedding is
deliberately NOT forwarded past the attention block, so each agent's
policy depends on teammates only through attention. The critic embeds
(observation, one-hot action) pairs, and its post-network consumes the
original embedding concatenated with the attended one, so its own-input
path survives even with attention zeroed out.

Observations are divided by ``obs_scale`` before the embedding layers so
pitch-scale coordinates land in a range where Xavier-initialized nets
start near-uniform.
"""

from __future__ import annotations

import base64
import functools
import hashlib
import json
import math
import os
from dataclasses import asdict, dataclass, field
from typing import Optional

import numpy as np

from . import autodiff as ad
from .autodiff import Tensor
from .nn import Mlp, MultiHeadAttention, _dense, check_stackable


@dataclass(frozen=True)
class TaacNetConfig:
    obs_width: int = 22
    n_actions: int = 18
    d_model: int = 64
    actor_heads: int = 4
    critic_heads: int = 4
    embed_hidden: int = 64
    post_hidden: int = 64
    obs_scale: float = 100.0

    def validate(self) -> "TaacNetConfig":
        for name in ("obs_width", "n_actions", "d_model", "actor_heads", "critic_heads",
                     "embed_hidden", "post_hidden"):
            if getattr(self, name) < 1:
                raise ValueError(f"{name} must be >= 1, got {getattr(self, name)}")
        if self.d_model % self.actor_heads != 0 or self.d_model % self.critic_heads != 0:
            raise ValueError("d_model must be divisible by both head counts")
        if self.obs_scale <= 0:
            raise ValueError("obs_scale must be positive")
        return self


def _stable_softmax_np(logits: np.ndarray) -> np.ndarray:
    """Softmax over the last axis, computed in place: returns ``logits``, overwritten."""
    logits -= np.maximum.reduce(logits, -1, keepdims=True)
    np.exp(logits, out=logits)
    logits /= np.add.reduce(logits, -1, keepdims=True)
    return logits


def _action_ids(actions, n_actions: int) -> np.ndarray:
    """Action ids as int64; ValueError on a float or bool dtype or an id outside [0, n_actions)."""
    actions = np.asarray(actions)
    if actions.dtype.kind not in "iu":  # a cast would play 0.5 and -0.5 as 0
        raise ValueError(f"action ids must be integers, got dtype {actions.dtype}")
    if np.any(actions < 0) or np.any(actions >= n_actions):
        raise ValueError(f"action ids out of range [0, {n_actions})")
    return actions.astype(np.int64, copy=False)


class _AttendingSlots:
    """The attention of a stack of actors of which only some attend (``ActorNet.stacked``).
    ``forward_np`` overwrites those slots' embeddings with the stacked attention's output,
    of the same width, and leaves the other slots' to go straight to ``post``, as in an
    ablated net."""

    def __init__(self, attn: MultiHeadAttention, slots: list[int]):
        run = slice(slots[0], slots[-1] + 1)  # a view: indexing by a list copies, ~4 µs a step
        self.attn, self.slots = attn, run if run.stop - run.start == len(slots) else slots

    def forward_np(self, m: np.ndarray) -> np.ndarray:
        m[self.slots] = self.attn.forward_np(m[self.slots])
        return m


class ActorNet:
    """Shared-parameter policy producing one action distribution per agent."""

    def __init__(self, cfg: TaacNetConfig, rng: np.random.Generator, attention_off: bool = False):
        cfg.validate()
        self.cfg = cfg
        self.embed = Mlp.create([cfg.obs_width, cfg.embed_hidden, cfg.d_model], ("relu", "relu"), rng)
        self.attn: Optional[MultiHeadAttention] = (
            None if attention_off else MultiHeadAttention.create(cfg.d_model, cfg.actor_heads, rng)
        )
        post_in = cfg.d_model if attention_off else self.attn.out_width
        self.post = Mlp.create(
            [post_in, cfg.post_hidden, cfg.post_hidden, cfg.n_actions],
            ("relu", "relu", "identity"), rng,
        )

    def forward(self, obs: np.ndarray, log_probs: bool = False) -> tuple[Tensor, Tensor]:
        """Returns (action distributions, or their logs with ``log_probs``; attended
        embeddings) for (n, obs) observations or a (T, n, obs) stack."""
        obs = np.asarray(obs, dtype=np.float64)
        m = self.embed.forward(Tensor(obs / self.cfg.obs_scale))
        e = self.attn.forward(m)[0] if self.attn is not None else m
        logits = self.post.forward(e)
        return (ad.log_softmax(logits) if log_probs else ad.softmax_rows(logits)), e

    @classmethod
    def stacked(cls, actors: list["ActorNet"]) -> "ActorNet":
        """``actors``, all of one config, side by side for rollouts (``Mlp.stacked``):
        ``probs_np`` maps (K, n, obs) observations to (K, n, A) distributions, slot k with
        actor k's bits. ``embed`` and ``post`` stack over every slot and attention over the
        slots that attend, so ``taac`` and ``taac_ablation`` actors stack together: when only
        some slots attend, ``attn`` is an ``_AttendingSlots``, chosen here, and ``probs_np``
        is the lone net's. Unequal configs raise ValueError. Tape-free only."""
        check_stackable("actors", [asdict(a.cfg) for a in actors])
        net = cls.__new__(cls)
        net.cfg = actors[0].cfg
        net.embed, net.post = (Mlp.stacked([getattr(a, part) for a in actors]) for part in ("embed", "post"))
        attending = [k for k, a in enumerate(actors) if a.attn is not None]
        net.attn = MultiHeadAttention.stacked([actors[k].attn for k in attending]) if attending else None
        if 0 < len(attending) < len(actors):
            net.attn = _AttendingSlots(net.attn, attending)
        return net

    def probs_np(self, obs: np.ndarray) -> np.ndarray:
        """Tape-free distributions for rollouts; supports stacked (..., n, obs) inputs."""
        x = np.asarray(obs, dtype=np.float64) / self.cfg.obs_scale
        m = self.embed.forward_np(x)
        e = self.attn.forward_np(m) if self.attn is not None else m
        return _stable_softmax_np(self.post.forward_np(e))

    def parameters(self) -> list[Tensor]:
        out = self.embed.parameters()
        if self.attn is not None:
            out += self.attn.parameters()
        return out + self.post.parameters()

    def named_parameters(self) -> dict[str, Tensor]:
        out = self.embed.named_parameters("actor.embed")
        if self.attn is not None:
            out.update(self.attn.named_parameters("actor.attn"))
        out.update(self.post.named_parameters("actor.post"))
        return out


class CriticNet:
    """Shared-parameter critic producing one state-action value per agent."""

    def __init__(self, cfg: TaacNetConfig, rng: np.random.Generator):
        cfg.validate()
        self.cfg = cfg
        in_width = cfg.obs_width + cfg.n_actions
        self.embed = Mlp.create([in_width, cfg.embed_hidden, cfg.d_model], ("relu", "relu"), rng)
        self.attn = MultiHeadAttention.create(cfg.d_model, cfg.critic_heads, rng)
        self.post = Mlp.create(
            [cfg.d_model + self.attn.out_width, cfg.post_hidden, cfg.post_hidden, 1],
            ("relu", "relu", "identity"), rng,
        )

    def _inputs(self, obs: np.ndarray, actions: np.ndarray) -> np.ndarray:
        obs = np.asarray(obs, dtype=np.float64) / self.cfg.obs_scale
        actions = _action_ids(actions, self.cfg.n_actions)
        onehot = np.zeros(obs.shape[:-1] + (self.cfg.n_actions,))
        np.put_along_axis(onehot, actions[..., None], 1.0, axis=-1)
        return np.concatenate([obs, onehot], axis=-1)

    def forward(self, obs: np.ndarray, actions: np.ndarray) -> Tensor:
        """Returns the per-agent values, (n,) for one joint (observations, actions)
        or (T, n) for a stack of them."""
        x = Tensor(self._inputs(obs, actions))
        m = self.embed.forward(x)
        e, _ = self.attn.forward(m)
        q = self.post.forward(ad.concat([m, e], axis=-1))
        return ad.reshape(q, q.shape[:-1])

    def q_np(self, obs: np.ndarray, actions: np.ndarray) -> np.ndarray:
        """Tape-free values; supports stacked (..., n, obs) / (..., n) inputs."""
        x = self._inputs(obs, actions)
        m = self.embed.forward_np(x)
        e = self.attn.forward_np(m)
        h = np.concatenate([m, e], axis=-1)
        return self.post.forward_np(h)[..., 0]

    def parameters(self) -> list[Tensor]:
        return self.embed.parameters() + self.attn.parameters() + self.post.parameters()

    def named_parameters(self) -> dict[str, Tensor]:
        out = self.embed.named_parameters("critic.embed")
        out.update(self.attn.named_parameters("critic.attn"))
        out.update(self.post.named_parameters("critic.post"))
        return out

    def value_matrices(self) -> list[Tensor]:
        return [head.wv for head in self.attn.heads]


# ---------------------------------------------------------------------------
# counterfactual baseline


def counterfactual_baselines(obs: np.ndarray, actions: np.ndarray, probs: np.ndarray,
                             critic: CriticNet) -> np.ndarray:
    """b_i = sum_a probs[i, a] * Q_i(obs, (a, actions of everyone else)) for one joint
    (n, obs_width) observation, (n,) action ids and (n, A) distributions: the per-agent
    expected value over the agent's own action choices, so it never depends on actions[i].
    ``counterfactual_baselines_batch`` on one transition."""
    stacks = (np.asarray(a)[None] for a in (obs, actions, probs))
    return counterfactual_baselines_batch(*stacks, critic)[0]


# substitution rows per pass of counterfactual_baselines_batch: a block's intermediates stay
# in a 4 MiB L2 (8,192-row passes took ~1.6x as long). At n * A = 54 a block is 972 rows and
# its workspace 284 columns on the smoke net (2.1 MiB), 476 on the default net (3.5 MiB)
_CF_BLOCK_ROWS = 1024


def counterfactual_baselines_batch(obs_stack: np.ndarray, act_stack: np.ndarray,
                                   probs_stack: np.ndarray, critic: CriticNet) -> np.ndarray:
    """Baselines for (T, n, obs_width) observations, (T, n) integer action ids in [0, A)
    and (T, n, A) distributions, from the critic's parts: (T, n), as the per-transition
    stacked ``q_np`` pass of tests/baseline_reference.py; other inputs raise ValueError before
    any block runs. Each (agent, action)
    pair is embedded once. Substituting agent i's action changes only agent i's key and value,
    and only agent i's value is needed, so each substitution attends from one query row.
    Blocks of at most ``_CF_BLOCK_ROWS`` substitutions (at least one transition) write every
    intermediate with ``out=`` into views of one workspace, ``min(T, step) * n * A`` rows by
    the sum of the layer widths; the one-hot input columns are written once. One allocation,
    not one per view: freed at the end of the call, it raises glibc's dynamic mmap threshold,
    so the tape updates' transients are no longer trimmed from the heap and faulted in again.
    """
    A, obs_width = critic.cfg.n_actions, critic.cfg.obs_width
    act_stack = _action_ids(act_stack, A)
    obs_stack, probs_stack = np.asarray(obs_stack, dtype=np.float64), np.asarray(probs_stack)
    shape = act_stack.shape
    if len(shape) != 2 or obs_stack.shape != shape + (obs_width,) or probs_stack.shape != shape + (A,):
        raise ValueError(f"expected act_stack (T, n), obs_stack (T, n, {obs_width}) and probs_stack "
                         f"(T, n, {A}); got {shape}, {obs_stack.shape} and {probs_stack.shape}")
    T, n = shape
    step = max(1, _CF_BLOCK_ROWS // (n * A))
    heads, embed, post = critic.attn.heads, critic.embed.layers, critic.post.layers
    d, d_k = heads[0].wq.shape
    widths = [embed[0].w.shape[0], post[0].w.shape[0], d_k, d_k, d_k, n] + [lr.w.shape[1] for lr in embed + post]
    rows = min(T, step) * n * A
    parts = np.split(np.empty(rows * sum(widths)), np.cumsum(widths[:-1]) * rows)
    x, post_in, q, k, v, s, *layer_out = (part.reshape(rows, w) for part, w in zip(parts, widths))
    x.reshape(-1, n, A, x.shape[1])[..., obs_width:] = np.eye(A)  # row a: one-hot of action a
    idx, out = np.arange(n), np.empty((T, n))
    for start in range(0, T, step):
        acts = act_stack[start:start + step]
        t, r = len(acts), len(acts) * n * A
        np.divide(obs_stack[start:start + step, :, None], critic.cfg.obs_scale,
                  out=x[:r].reshape(t, n, A, -1)[..., :obs_width])
        m = x[:r]
        for layer, dest in zip(embed, layer_out):
            m = _dense(m, layer, out=dest[:r])                    # (t * n * A, d)
        post_in[:r, :d] = m
        taken = np.arange(0, r, A) + acts.ravel()  # row (t * n + i) * A + a of each taken action
        q4, k4, v4 = (buf[:r].reshape(t, n, A, d_k) for buf in (q, k, v))
        scores = s[:r].reshape(t, n, A, n)
        for h, head in enumerate(heads):  # per-head GEMMs: slices of one packed GEMM slow what follows
            for w, buf in zip((head.wq, head.wk, head.wv), (q, k, v)):
                np.matmul(m, w.data, out=buf[:r])
            k_act, v_act = (buf[taken].reshape(t, n, d_k) for buf in (k, v))  # of the taken actions
            np.matmul(q4.reshape(t, n * A, d_k), np.swapaxes(k_act, 1, 2), out=scores.reshape(t, n * A, n))
            scores[:, idx, :, idx] = np.multiply(q4, k4, out=q4).sum(axis=-1).transpose(1, 0, 2)
            scores /= math.sqrt(d_k)
            # softmax over the n keys from elementwise ops on the n key slices; the in-order
            # sum equals numpy's reduction over a last axis shorter than 8, bit for bit
            keys = [scores[..., j] for j in range(n)]
            scores -= functools.reduce(np.maximum, keys)[..., None]
            np.exp(scores, out=scores)
            scores /= functools.reduce(np.add, keys)[..., None]
            own = scores[:, idx, :, idx].transpose(1, 0, 2)[..., None]  # weight on the substituted row
            scores[:, idx, :, idx] = 0.0
            np.matmul(scores.reshape(t, n * A, n), v_act, out=k4.reshape(t, n * A, d_k))  # q, k are spent
            head_out = post_in[:r].reshape(t, n, A, -1)[..., d + h * d_k:d + (h + 1) * d_k]
            np.add(k4, np.multiply(own, v4, out=q4), out=head_out)
        y = post_in[:r]
        for layer, dest in zip(post, layer_out[len(embed):]):
            y = _dense(y, layer, out=dest[:r])
        out[start:start + step] = np.einsum("tia,tia->ti", probs_stack[start:start + step], y.reshape(t, n, A))
    return out


# ---------------------------------------------------------------------------
# conformity loss


def conformity_loss(embeddings: Tensor, scale_coef: float, floor: float) -> Tensor:
    """scale_coef * max(mean pairwise cosine similarity of rows, floor).

    ``embeddings`` is one (n, d) matrix or a (T, n, d) stack; a stack gives
    the mean of the per-transition penalties. High when the agents'
    attended embeddings align (low role diversity). Gradients flow only
    while the mean similarity exceeds the floor.
    """
    n = embeddings.shape[-2] if embeddings.data.ndim >= 2 else 0
    if n < 2:
        raise ValueError(f"conformity loss needs at least 2 embeddings, got {n}")
    per_transition = ad.maximum_const(ad.mean_pairwise_cosine(embeddings), floor)
    return ad.reduce_mean(ad.scale(per_transition, scale_coef))


# ---------------------------------------------------------------------------
# snapshots


# a parameter is {"shape": [...], _PAYLOAD: base64 of its little-endian float64
# bytes in C order}, so a round trip is exact for every value, -0.0 and NaN included
_PAYLOAD = "f8le_base64"


def _decode_array(path: str, entry) -> np.ndarray:
    """A native, C-contiguous, writable float64 array, or ValueError naming ``path``."""
    if not isinstance(entry, dict):
        raise ValueError(f"parameter {path}: expected an object, got {type(entry).__name__}")
    if "data" in entry:
        raise ValueError(f"parameter {path}: a 'data' list; text snapshots are no longer read")
    shape, payload = entry.get("shape"), entry.get(_PAYLOAD)
    if not isinstance(shape, list) or not all(type(s) is int and s >= 0 for s in shape):
        raise ValueError(f"parameter {path}: shape must be a list of non-negative ints, got {shape!r}")
    if not isinstance(payload, str):
        raise ValueError(f"parameter {path}: missing or non-string {_PAYLOAD} payload")
    try:
        raw = base64.b64decode(payload, validate=True)
    except ValueError as exc:  # binascii.Error
        raise ValueError(f"parameter {path}: invalid base64 payload ({exc})") from None
    if len(raw) != 8 * math.prod(shape):
        raise ValueError(f"parameter {path}: {len(raw)} payload bytes do not hold shape {shape}")
    return np.frombuffer(raw, dtype="<f8").astype(np.float64).reshape(shape)


@dataclass(frozen=True)
class PolicySnapshot:
    """Immutable copy of a policy's parameters plus identifying metadata."""

    kind: str
    flags: dict
    version: int
    config_hash: str
    params: dict = field(repr=False)

    def to_doc(self) -> dict:
        return {
            "kind": self.kind,
            "flags": dict(self.flags),
            "version": self.version,
            "config_hash": self.config_hash,
            "params": {path: {"shape": list(arr.shape),
                              _PAYLOAD: base64.b64encode(np.asarray(arr, dtype="<f8").tobytes()).decode("ascii")}
                       for path, arr in self.params.items()},
        }

    @classmethod
    def from_doc(cls, doc: dict) -> "PolicySnapshot":
        """The snapshot a document holds, or ValueError naming the first bad field."""
        if not isinstance(doc, dict):
            raise ValueError(f"snapshot: expected an object, got {type(doc).__name__}")
        for name, kind in (("kind", str), ("flags", dict), ("version", int),
                           ("config_hash", str), ("params", dict)):
            if name not in doc:
                raise ValueError(f"snapshot: missing field {name!r}")
            value = doc[name]
            if not isinstance(value, kind) or isinstance(value, bool):  # JSON true is no version
                raise ValueError(f"snapshot: field {name!r} must be {kind.__name__}, "
                                 f"got {type(value).__name__}")
        return cls(
            kind=doc["kind"],
            flags=dict(doc["flags"]),
            version=doc["version"],
            config_hash=doc["config_hash"],
            params={path: _decode_array(path, entry) for path, entry in doc["params"].items()},
        )


def write_text_atomic(path, text: str) -> None:
    """Write ``text`` beside ``path``, then ``os.replace`` it over ``path``: readers
    see the old file or the new one, never part of one (no fsync: not power-safe)."""
    tmp = f"{os.fspath(path)}.tmp"  # not *.json, so snapshot scans skip it
    try:
        with open(tmp, "w") as fh:
            fh.write(text)
        os.replace(tmp, path)
    except BaseException:
        if os.path.exists(tmp):
            os.remove(tmp)
        raise


def save_snapshot(snapshot: PolicySnapshot, path) -> None:
    write_text_atomic(path, json.dumps(snapshot.to_doc()))


def load_snapshot(path) -> PolicySnapshot:
    with open(path) as fh:
        return PolicySnapshot.from_doc(json.load(fh))


def architecture_hash(kind: str, flags: dict, cfg: TaacNetConfig) -> str:
    desc = {"kind": kind, "flags": {k: flags[k] for k in sorted(flags)}, "net": asdict(cfg)}
    return hashlib.sha256(json.dumps(desc, sort_keys=True).encode()).hexdigest()


def snapshot_params(named: dict[str, Tensor]) -> dict:
    return {path: t.data.copy() for path, t in named.items()}


def restore_params(named: dict[str, Tensor], params: dict) -> None:
    """Copy stored arrays into live parameters, validating names and shapes."""
    missing = set(named) - set(params)
    extra = set(params) - set(named)
    if missing or extra:
        raise ValueError(f"parameter set mismatch: missing={sorted(missing)} extra={sorted(extra)}")
    for path, t in named.items():
        arr = np.asarray(params[path], dtype=np.float64)
        if arr.shape != t.shape:
            raise ValueError(f"shape mismatch for {path}: stored {arr.shape}, architecture expects {t.shape}")
        t.data = arr.copy()
