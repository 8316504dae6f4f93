"""Team policies behind one interface: attention actor-critic, its ablations,
shared-policy independent PPO, uniform random, and a no-op (inactive) team.

Every policy exposes ``act(obs_rows, rng) -> action ids`` so match play
and the league harness stay algorithm-agnostic. ``build_policy`` is the one
place a kind and its ablation flags become a policy. Every kind saves and
loads through one snapshot codec whose header carries the kind, the ablation
flags and an architecture hash; ``policy_from_snapshot`` rebuilds a policy
from that header.
"""

from __future__ import annotations

import bisect
import itertools
from dataclasses import asdict, dataclass

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

    @classmethod
    def from_flags(cls, flags: dict) -> "AblationConfig":
        """The ablation a snapshot header's ``flags`` name; absent flags are off."""
        return cls(actor_attention_off=bool(flags.get("actor_attention_off", False)),
                   critic_V_fixed=bool(flags.get("critic_V_fixed", False)))

    def to_flags(self) -> dict:
        return asdict(self)


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


class _SnapshotCodec:
    """Architecture hash and snapshot save/load shared by every policy kind.
    Each provides ``kind`` and ``net_cfg``; a kind with ablation flags or
    weights overrides ``flags`` or ``named_parameters``."""

    flags: dict = {}

    def named_parameters(self) -> dict[str, Tensor]:
        return {}

    @property
    def config_hash(self) -> str:
        return architecture_hash(self.kind, self.flags, self.net_cfg)

    def to_snapshot(self, version: int) -> PolicySnapshot:
        return PolicySnapshot(
            kind=self.kind,
            flags=dict(self.flags),
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


class RandomTeamPolicy(_SnapshotCodec):
    kind = "random"

    def __init__(self, net_cfg: TaacNetConfig = TaacNetConfig()):
        self.net_cfg = net_cfg

    def act(self, obs: np.ndarray, rng: np.random.Generator) -> np.ndarray:
        return random_action(len(obs), rng, self.net_cfg.n_actions)


class InactiveTeamPolicy(_SnapshotCodec):
    """Stands still and never kicks; the stage-1 curriculum opponent."""

    kind = "inactive"

    def __init__(self, net_cfg: TaacNetConfig = TaacNetConfig()):
        self.net_cfg = net_cfg

    def act(self, obs: np.ndarray, rng: np.random.Generator) -> np.ndarray:
        return np.full(len(obs), NOOP_ACTION, dtype=np.int64)


class TaacTeamPolicy(_SnapshotCodec):
    """Actor-critic pair with attention; ablation flags carve out MAAC-style variants."""

    def __init__(self, net_cfg: TaacNetConfig, rng: np.random.Generator,
                 ablation: AblationConfig | None = None):
        self.net_cfg = net_cfg
        self.ablation = ablation or AblationConfig()
        self.kind = "taac_ablation" if any(self.flags.values()) else "taac"
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

    def _scaled(self, obs: np.ndarray) -> np.ndarray:
        return np.asarray(obs, dtype=np.float64) / self.net_cfg.obs_scale

    def probs_np(self, obs: np.ndarray) -> np.ndarray:
        return _stable_softmax_np(self.policy_net.forward_np(self._scaled(obs)))

    def dist_forward(self, obs: np.ndarray, log_probs: bool = False) -> Tensor:
        logits = self.policy_net.forward(Tensor(self._scaled(obs)))
        return ad.log_softmax(logits) if log_probs else ad.softmax_rows(logits)

    def values_forward(self, obs: np.ndarray) -> Tensor:
        v = self.value_net.forward(Tensor(self._scaled(obs)))
        return ad.reshape(v, v.shape[:-1])

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
    """The team policy of ``kind``: the one place a kind and its ablation flags
    become a policy. ``taac_ablation`` needs at least one flag set (both when
    ``ablation`` is None) and every other kind none; a contradiction raises
    ValueError."""
    kinds = POLICY_KINDS + ("inactive",)
    if kind not in kinds:
        raise ValueError(f"unknown policy kind {kind!r}, expected one of {kinds}")
    if ablation is None:
        ablation = AblationConfig(True, True) if kind == "taac_ablation" else AblationConfig()
    if any(ablation.to_flags().values()) != (kind == "taac_ablation"):
        raise ValueError(f"policy kind {kind!r} contradicts ablation flags {ablation.to_flags()}: "
                         "taac_ablation needs at least one flag set, every other kind none")
    if kind in ("taac", "taac_ablation"):
        return TaacTeamPolicy(net_cfg, rng, ablation)
    if kind == "ppo":
        return PpoTeamPolicy(net_cfg, rng)
    return (RandomTeamPolicy if kind == "random" else InactiveTeamPolicy)(net_cfg)


def policy_from_snapshot(snapshot: PolicySnapshot, net_cfg: TaacNetConfig):
    """The frozen policy a snapshot holds: built from its header, then loaded,
    which checks the architecture hash and the parameter set."""
    policy = build_policy(snapshot.kind, net_cfg, np.random.default_rng(0),  # weights are overwritten
                          AblationConfig.from_flags(snapshot.flags))
    policy.load_snapshot(snapshot)
    return policy
