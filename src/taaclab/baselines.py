"""Team policies behind one interface: attention actor-critic, its ablations,
shared-policy independent PPO, uniform random, and a no-op (inactive) team.

Every policy exposes ``act(obs_rows, rng) -> action ids`` so match play
and the league harness stay algorithm-agnostic. Snapshot files
carry the policy kind and ablation flags in their header so reports can
attribute results.
"""

from __future__ import annotations

import bisect
import itertools
from dataclasses import dataclass
from typing import Protocol

import numpy as np

from . import autodiff as ad
from .autodiff import Tensor
from .env import N_ACTIONS, NOOP_ACTION
from .nets import (
    ActorNet,
    CriticNet,
    PolicySnapshot,
    TaacNetConfig,
    _stable_softmax_np,
    architecture_hash,
    restore_params,
    snapshot_params,
)
from .nn import Mlp

POLICY_KINDS = ("taac", "taac_ablation", "ppo", "random")


@dataclass(frozen=True)
class AblationConfig:
    actor_attention_off: bool = False
    critic_V_fixed: bool = False

    def to_flags(self) -> dict:
        return {
            "actor_attention_off": self.actor_attention_off,
            "critic_V_fixed": self.critic_V_fixed,
        }


class TeamPolicy(Protocol):
    kind: str

    def act(self, obs: np.ndarray, rng: np.random.Generator) -> np.ndarray:
        """Map (n, obs_width) observations to (n,) int64 action ids."""
        ...


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


def random_action(n: int, rng: np.random.Generator, n_actions: int = N_ACTIONS) -> np.ndarray:
    """Independent uniform draws over the action ids for n agents."""
    return rng.integers(0, n_actions, size=n, dtype=np.int64)


class RandomTeamPolicy:
    kind = "random"
    flags: dict = {}

    def __init__(self, n_actions: int = N_ACTIONS):
        self.n_actions = n_actions

    def act(self, obs: np.ndarray, rng: np.random.Generator) -> np.ndarray:
        return random_action(len(obs), rng, self.n_actions)


class InactiveTeamPolicy:
    """Stands still and never kicks; the stage-1 curriculum opponent."""

    kind = "inactive"
    flags: dict = {}

    def act(self, obs: np.ndarray, rng: np.random.Generator) -> np.ndarray:
        return np.full(len(obs), NOOP_ACTION, dtype=np.int64)


class _SnapshotCodec:
    """Architecture hash and snapshot save/load shared by the trainable policies,
    which provide ``kind``, ``flags``, ``net_cfg`` and ``named_parameters``."""

    @property
    def config_hash(self) -> str:
        return architecture_hash(self.kind, self.flags, self.net_cfg)

    def to_snapshot(self, version: int) -> PolicySnapshot:
        return PolicySnapshot(
            kind=self.kind,
            flags=self.flags,
            version=version,
            config_hash=self.config_hash,
            params=snapshot_params(self.named_parameters()),
        )

    def load_snapshot(self, snapshot: PolicySnapshot) -> None:
        if snapshot.config_hash != self.config_hash:
            raise ValueError(
                f"snapshot architecture hash {snapshot.config_hash[:12]} does not match "
                f"this policy's {self.config_hash[:12]}"
            )
        restore_params(self.named_parameters(), snapshot.params)


class TaacTeamPolicy(_SnapshotCodec):
    """Actor-critic pair with attention; ablation flags carve out MAAC-style variants."""

    def __init__(self, net_cfg: TaacNetConfig, rng: np.random.Generator,
                 ablation: AblationConfig | None = None):
        self.net_cfg = net_cfg
        self.ablation = ablation or AblationConfig()
        self.kind = "taac_ablation" if (self.ablation.actor_attention_off or
                                        self.ablation.critic_V_fixed) else "taac"
        self.actor = ActorNet(net_cfg, rng, attention_off=self.ablation.actor_attention_off)
        self.critic = CriticNet(net_cfg, rng)

    @property
    def flags(self) -> dict:
        return self.ablation.to_flags()

    def act(self, obs: np.ndarray, rng: np.random.Generator) -> np.ndarray:
        return _sample_rows(self.actor.probs_np(obs), rng)

    def named_parameters(self) -> dict[str, Tensor]:
        out = self.actor.named_parameters()
        out.update(self.critic.named_parameters())
        return out

    def actor_parameters(self) -> list[Tensor]:
        return self.actor.parameters()

    def critic_parameters(self) -> list[Tensor]:
        params = self.critic.parameters()
        if self.ablation.critic_V_fixed:
            frozen = {id(t) for t in self.critic.value_matrices()}
            params = [p for p in params if id(p) not in frozen]
        return params


class PpoTeamPolicy(_SnapshotCodec):
    """Independent learner: one shared per-agent MLP policy, no inter-agent inputs."""

    kind = "ppo"

    def __init__(self, net_cfg: TaacNetConfig, rng: np.random.Generator):
        self.net_cfg = net_cfg
        self.policy_net = Mlp.create(
            [net_cfg.obs_width, net_cfg.post_hidden, net_cfg.post_hidden, net_cfg.n_actions],
            ("relu", "relu", "identity"), rng,
        )
        self.value_net = Mlp.create(
            [net_cfg.obs_width, net_cfg.post_hidden, net_cfg.post_hidden, 1],
            ("relu", "relu", "identity"), rng,
        )

    @property
    def flags(self) -> dict:
        return {}

    def _scaled(self, obs: np.ndarray) -> np.ndarray:
        return np.asarray(obs, dtype=np.float64) / self.net_cfg.obs_scale

    def probs_np(self, obs: np.ndarray) -> np.ndarray:
        return _stable_softmax_np(self.policy_net.forward_np(self._scaled(obs)))

    def dist_forward(self, obs: np.ndarray, log_probs: bool = False) -> Tensor:
        logits = self.policy_net.forward(Tensor(self._scaled(obs)))
        return ad.log_softmax(logits) if log_probs else ad.softmax_rows(logits)

    def values_forward(self, obs: np.ndarray) -> Tensor:
        v = self.value_net.forward(Tensor(self._scaled(obs)))
        return ad.reshape(v, (v.shape[0],))

    def values_np(self, obs: np.ndarray) -> np.ndarray:
        return self.value_net.forward_np(self._scaled(obs))[..., 0]

    def act(self, obs: np.ndarray, rng: np.random.Generator) -> np.ndarray:
        return _sample_rows(self.probs_np(obs), rng)

    def named_parameters(self) -> dict[str, Tensor]:
        out = self.policy_net.named_parameters("ppo.policy")
        out.update(self.value_net.named_parameters("ppo.value"))
        return out


def build_policy(kind: str, net_cfg: TaacNetConfig, rng: np.random.Generator,
                 ablation: AblationConfig | None = None):
    """Construct a team policy of the given kind behind the uniform interface."""
    if kind == "taac":
        return TaacTeamPolicy(net_cfg, rng, AblationConfig())
    if kind == "taac_ablation":
        return TaacTeamPolicy(net_cfg, rng, ablation or AblationConfig(actor_attention_off=True,
                                                                       critic_V_fixed=True))
    if kind == "ppo":
        return PpoTeamPolicy(net_cfg, rng)
    if kind == "random":
        return RandomTeamPolicy(net_cfg.n_actions)
    if kind == "inactive":
        return InactiveTeamPolicy()
    raise ValueError(f"unknown policy kind {kind!r}, expected one of {POLICY_KINDS}")


def policy_from_snapshot(snapshot: PolicySnapshot, net_cfg: TaacNetConfig):
    """Materialize a frozen policy from a snapshot, enforcing the header hash."""
    if snapshot.kind == "random":
        return RandomTeamPolicy()
    if snapshot.kind == "inactive":
        return InactiveTeamPolicy()
    rng = np.random.default_rng(0)  # weights are overwritten below
    if snapshot.kind == "ppo":
        policy = PpoTeamPolicy(net_cfg, rng)
    elif snapshot.kind in ("taac", "taac_ablation"):
        flags = snapshot.flags
        policy = TaacTeamPolicy(net_cfg, rng, AblationConfig(
            actor_attention_off=bool(flags.get("actor_attention_off", False)),
            critic_V_fixed=bool(flags.get("critic_V_fixed", False)),
        ))
    else:
        raise ValueError(f"unknown snapshot kind {snapshot.kind!r}")
    policy.load_snapshot(snapshot)
    return policy


# PPO update hyperparameters live here so the learner can drive any policy kind.


@dataclass
class PpoHyper:
    clip_ratio: float = 0.2
    epochs: int = 4
    gae_lambda: float = 0.95
    gamma: float = 0.99
    policy_lr: float = 3e-4
    value_lr: float = 1e-3
    entropy_coef: float = 0.01
    grad_clip: float = 5.0


@dataclass
class PpoBatch:
    """Flattened per-agent streams gathered from rollouts."""

    obs: np.ndarray        # (B, obs_width)
    actions: np.ndarray    # (B,)
    behavior_logps: np.ndarray  # (B,)
    advantages: np.ndarray      # (B,)
    value_targets: np.ndarray   # (B,)


def gae_advantages(rewards: np.ndarray, values: np.ndarray, gamma: float,
                   lam: float) -> tuple[np.ndarray, np.ndarray]:
    """GAE over one episode stream; terminal bootstrap is zero.

    ``rewards`` has shape (T,), ``values`` shape (T,). Returns
    (advantages, value targets) each of shape (T,).
    """
    T = rewards.shape[0]
    adv = np.zeros(T)
    last = 0.0
    for t in range(T - 1, -1, -1):
        next_v = values[t + 1] if t + 1 < T else 0.0
        delta = rewards[t] + gamma * next_v - values[t]
        last = delta + gamma * lam * last
        adv[t] = last
    return adv, adv + values


def ppo_update(batch: PpoBatch, policy: PpoTeamPolicy, policy_opt, value_opt,
               hyper: PpoHyper) -> dict:
    """Clipped-surrogate PPO step over multiple epochs on one fixed batch."""
    from .learner import check_finite_grads  # local import to avoid a cycle

    total_policy_loss = 0.0
    total_value_loss = 0.0
    total_entropy = 0.0
    eps = hyper.clip_ratio
    adv = Tensor(batch.advantages)
    # ratio = pi_new(a) / pi_old(a); the behavior side enters as a constant
    inv_old_prob = Tensor(np.exp(-batch.behavior_logps))
    targets = Tensor(batch.value_targets)

    for _ in range(hyper.epochs):
        logdists = policy.dist_forward(batch.obs, log_probs=True)
        dists = ad.exp(logdists)
        ratio = ad.mul(ad.gather(dists, batch.actions), inv_old_prob)
        unclipped = ad.mul(ratio, adv)
        clipped = ad.mul(ad.clip_const(ratio, 1.0 - eps, 1.0 + eps), adv)
        surrogate = ad.reduce_mean(ad.minimum(unclipped, clipped))
        entropy = ad.neg(ad.reduce_mean(ad.reduce_sum(ad.mul(dists, logdists), axis=1)))
        policy_loss = ad.sub(ad.neg(surrogate), ad.scale(entropy, hyper.entropy_coef))

        values = policy.values_forward(batch.obs)
        err = ad.sub(values, targets)
        value_loss = ad.reduce_mean(ad.mul(err, err))

        policy_opt.zero_grad()
        value_opt.zero_grad()
        ad.backward(policy_loss)
        ad.backward(value_loss)
        check_finite_grads(policy.policy_net.parameters() + policy.value_net.parameters(),
                           context="ppo_update")
        policy_opt.step()
        value_opt.step()

        total_policy_loss += policy_loss.item()
        total_value_loss += value_loss.item()
        total_entropy += entropy.item()

    n = hyper.epochs
    return {
        "policy_loss": total_policy_loss / n,
        "value_loss": total_value_loss / n,
        "entropy": total_entropy / n,
        "batch_size": int(batch.obs.shape[0]),
    }
