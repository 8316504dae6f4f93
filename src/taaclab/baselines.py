"""Team policies behind one interface: attention actor-critic, its MAAC-style
ablation, shared-policy independent PPO, uniform random, and a no-op team.

Every policy exposes ``act(obs_rows, rng) -> action ids`` so match play
and the league harness stay algorithm-agnostic. ``build_policy`` is the one
place a kind becomes a policy; the kind is the whole policy identity. Every
kind saves and loads through one snapshot codec whose header carries the
kind, the ablation flags that kind fixes and an architecture hash;
``policy_from_snapshot`` rebuilds a policy from the kind alone.
"""

from __future__ import annotations

from bisect import bisect_right
from dataclasses import asdict
from itertools import accumulate

import numpy as np

from . import autodiff as ad
from .autodiff import Tensor
from .env import N_ACTIONS, NOOP_ACTION, TEAM_SIZE
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
from .nn import Mlp, check_stackable

POLICY_KINDS = ("taac", "taac_ablation", "ppo", "random")


def _sample_rows(probs: np.ndarray, rng: np.random.Generator) -> np.ndarray:
    """One inverse-CDF draw per row; ``rng.random(n)`` is the stream of n single draws.

    The action is the count of cdf entries <= u, capped at k - 1. ``accumulate``
    adds in order, as ``np.cumsum`` does, so the cdf has the same bits.
    """
    n, k = probs.shape
    actions = []
    for row, u in zip(probs.tolist(), rng.random(n).tolist()):
        cdf = list(accumulate(row))
        # bisect needs a sorted cdf, and its hi bound is the cap; a NaN makes the rest of
        # the cdf NaN, and NaN counts as > u
        actions.append(bisect_right(cdf, u, 0, k - 1) if cdf[-1] == cdf[-1]
                       else min(sum(c <= u for c in cdf), k - 1))
    return np.array(actions, dtype=np.int64)


def random_action(n: int, rng: np.random.Generator, n_actions: int = N_ACTIONS) -> np.ndarray:
    """Independent uniform draws over the action ids for n agents."""
    return rng.integers(0, n_actions, size=n, dtype=np.int64)


class _SnapshotCodec:
    """Architecture hash and snapshot save/load shared by every policy kind.
    Each provides ``kind`` and ``net_cfg``; a kind with header flags or
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
    """Actor-critic pair with attention. ``taac_ablation`` is the MAAC-style
    variant: no actor attention and frozen critic value matrices."""

    def __init__(self, net_cfg: TaacNetConfig, rng: np.random.Generator, kind: str = "taac"):
        self.net_cfg = net_cfg
        self.kind = kind
        ablated = kind == "taac_ablation"
        self.flags = {"actor_attention_off": ablated, "critic_V_fixed": ablated}
        self.actor = ActorNet(net_cfg, rng, attention_off=ablated)
        self.critic = CriticNet(net_cfg, rng)

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
        if self.kind == "taac_ablation":
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

    @classmethod
    def stacked(cls, policies: list["PpoTeamPolicy"]) -> "PpoTeamPolicy":
        """``policies``' policy nets side by side (``Mlp.stacked``), for ``probs_np`` only.
        Unequal net configs raise ValueError."""
        check_stackable("ppo policies", [asdict(p.net_cfg) for p in policies])
        pair = cls.__new__(cls)
        pair.net_cfg, pair.policy_net = policies[0].net_cfg, Mlp.stacked([p.policy_net for p in policies])
        return pair

    def named_parameters(self) -> dict[str, Tensor]:
        out = self.policy_net.named_parameters("ppo.policy")
        out.update(self.value_net.named_parameters("ppo.value"))
        return out


def joint_act(team0, team1):
    """Both teams' ``act`` as one ``act(obs0, obs1, rng0, rng1)``, built once per game, in
    which weights do not change. It returns (team 0's ids from ``rng0``, team 1's from
    ``rng1``), drawn in that order: the ids two ``act`` calls give. Two ``TaacTeamPolicy``
    objects (``taac``, ``taac_ablation`` or one of each) or two ``PpoTeamPolicy`` objects on
    equal net configs act from one forward over their stacked weights (``ActorNet.stacked``,
    ``PpoTeamPolicy.stacked``), each slot with the bits of its team's own ``probs_np``.
    """
    cls = type(team0)
    if cls is not type(team1) or cls not in (TaacTeamPolicy, PpoTeamPolicy) or team0.net_cfg != team1.net_cfg:
        act0, act1 = team0.act, team1.act
        return lambda obs0, obs1, rng0, rng1: (act0(obs0, rng0), act1(obs1, rng1))
    probs_np = (ActorNet.stacked([team0.actor, team1.actor]) if cls is TaacTeamPolicy
                else PpoTeamPolicy.stacked([team0, team1])).probs_np
    both = np.empty((2, TEAM_SIZE, team0.net_cfg.obs_width))  # both teams' observations of a step

    def act(obs0: np.ndarray, obs1: np.ndarray, rng0: np.random.Generator, rng1: np.random.Generator):
        both[0], both[1] = obs0, obs1
        probs = probs_np(both)
        return _sample_rows(probs[0], rng0), _sample_rows(probs[1], rng1)

    return act


def build_policy(kind: str, net_cfg: TaacNetConfig, rng: np.random.Generator):
    """The team policy of ``kind``: the one place a kind becomes a policy."""
    kinds = POLICY_KINDS + ("inactive",)
    if kind not in kinds:
        raise ValueError(f"unknown policy kind {kind!r}, expected one of {kinds}")
    if kind in ("taac", "taac_ablation"):
        return TaacTeamPolicy(net_cfg, rng, kind)
    if kind == "ppo":
        return PpoTeamPolicy(net_cfg, rng)
    return (RandomTeamPolicy if kind == "random" else InactiveTeamPolicy)(net_cfg)


def policy_from_snapshot(snapshot: PolicySnapshot, net_cfg: TaacNetConfig):
    """The frozen policy a snapshot holds: built from its kind, then loaded,
    which checks the architecture hash (and so the header flags) and the
    parameter set."""
    policy = build_policy(snapshot.kind, net_cfg, np.random.default_rng(0))  # weights are overwritten
    policy.load_snapshot(snapshot)
    return policy
