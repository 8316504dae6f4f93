"""Finite-difference gradient suite over every trainable objective.

Each case builds a desk-sized network, screens the draw so no relu
pre-activation sits within finite-difference range of its kink (central
differences are invalid across a kink, not a gradient bug), and compares
tape gradients against central differences for every parameter entry.
"""

from __future__ import annotations

from dataclasses import dataclass

import numpy as np

from . import autodiff as ad
from .autodiff import Tensor, grad_check
from .baselines import PpoTeamPolicy
from .nets import ActorNet, CriticNet, TaacNetConfig, conformity_loss

SMALL_NET = TaacNetConfig(
    obs_width=6, n_actions=6, d_model=8, actor_heads=2, critic_heads=2,
    embed_hidden=8, post_hidden=8, obs_scale=1.0,
)
KINK_MARGIN = 1e-3


@dataclass(frozen=True)
class GradCaseResult:
    name: str
    seed: int
    error: float


def _min_abs(arrays: list) -> float:
    return min(float(np.abs(a).min()) for a in arrays) if arrays else np.inf


def _actor_min_preact(actor: ActorNet, obs: np.ndarray) -> float:
    pre: list = []
    m = actor.embed.forward_np(obs / actor.cfg.obs_scale, pre)
    e = actor.attn.forward_np(m) if actor.attn is not None else m
    actor.post.forward_np(e, pre)
    return _min_abs(pre)


def _critic_min_preact(critic: CriticNet, obs: np.ndarray, actions: np.ndarray) -> float:
    pre: list = []
    x = critic._inputs(obs, actions)
    m = critic.embed.forward_np(x, pre)
    e = critic.attn.forward_np(m)
    critic.post.forward_np(np.concatenate([m, e], axis=-1), pre)
    return _min_abs(pre)


def case_actor_logprob(seed: int):
    """Advantage-weighted log-likelihood through embed + attention + softmax."""
    rng = np.random.default_rng(seed)
    actor = ActorNet(SMALL_NET, rng)
    obs = rng.normal(size=(3, SMALL_NET.obs_width))
    actions = rng.integers(0, SMALL_NET.n_actions, size=3)
    adv = Tensor(rng.normal(size=3))

    def loss_fn():
        logdists, _ = actor.forward(obs, log_probs=True)
        logp = ad.gather(logdists, actions)
        return ad.neg(ad.reduce_mean(ad.mul(logp, adv)))

    return loss_fn, actor.parameters(), lambda: _actor_min_preact(actor, obs)


def case_critic_mse(seed: int):
    rng = np.random.default_rng(seed)
    critic = CriticNet(SMALL_NET, rng)
    obs = rng.normal(size=(3, SMALL_NET.obs_width))
    actions = rng.integers(0, SMALL_NET.n_actions, size=3)
    targets = Tensor(rng.normal(size=3))

    def loss_fn():
        err = ad.sub(critic.forward(obs, actions), targets)
        return ad.reduce_mean(ad.mul(err, err))

    return loss_fn, critic.parameters(), lambda: _critic_min_preact(critic, obs, actions)


def case_conformity(seed: int):
    """Conformity loss on three free embedding rows, floor inactive."""
    rng = np.random.default_rng(seed)
    emb = Tensor(rng.normal(size=(3, 5)), requires_grad=True)

    def loss_fn():
        return conformity_loss(emb, scale_coef=0.7, floor=-2.0)

    return loss_fn, [emb], lambda: np.inf


def case_actor_objective(seed: int):
    """Full actor objective: log-prob term, entropy bonus, conformity penalty."""
    rng = np.random.default_rng(seed)
    actor = ActorNet(SMALL_NET, rng)
    obs = rng.normal(size=(3, SMALL_NET.obs_width))
    actions = rng.integers(0, SMALL_NET.n_actions, size=3)
    adv = Tensor(rng.normal(size=3))

    def loss_fn():
        logdists, emb = actor.forward(obs, log_probs=True)
        logp = ad.gather(logdists, actions)
        pg = ad.neg(ad.reduce_mean(ad.mul(logp, adv)))
        entropy = ad.neg(ad.reduce_mean(ad.reduce_sum(ad.mul(ad.exp(logdists), logdists), axis=1)))
        conf = conformity_loss(emb, scale_coef=0.05, floor=-2.0)
        return ad.add(ad.sub(pg, ad.scale(entropy, 0.01)), conf)

    return loss_fn, actor.parameters(), lambda: _actor_min_preact(actor, obs)


def case_ppo_surrogate(seed: int):
    """Clipped surrogate + entropy + value regression at behavior ratio 1."""
    rng = np.random.default_rng(seed)
    policy = PpoTeamPolicy(SMALL_NET, rng)
    obs = rng.normal(size=(5, SMALL_NET.obs_width))
    actions = rng.integers(0, SMALL_NET.n_actions, size=5)
    adv = Tensor(rng.normal(size=5))
    targets = Tensor(rng.normal(size=5))
    taken = policy.probs_np(obs)[np.arange(5), actions]
    inv_old = Tensor(1.0 / taken)

    def loss_fn():
        logdists = policy.dist_forward(obs, log_probs=True)
        dists = ad.exp(logdists)
        ratio = ad.mul(ad.gather(dists, actions), inv_old)
        unclipped = ad.mul(ratio, adv)
        clipped = ad.mul(ad.clip_const(ratio, 0.8, 1.2), adv)
        surrogate = ad.reduce_mean(ad.minimum(unclipped, clipped))
        entropy = ad.neg(ad.reduce_mean(ad.reduce_sum(ad.mul(dists, logdists), axis=1)))
        err = ad.sub(policy.values_forward(obs), targets)
        value_loss = ad.reduce_mean(ad.mul(err, err))
        return ad.add(ad.sub(ad.neg(surrogate), ad.scale(entropy, 0.01)), value_loss)

    def screen():
        pre: list = []
        x = obs / SMALL_NET.obs_scale
        policy.policy_net.forward_np(x, pre)
        policy.value_net.forward_np(x, pre)
        return _min_abs(pre)

    params = policy.policy_net.parameters() + policy.value_net.parameters()
    return loss_fn, params, screen


CASES = {
    "actor_logprob": case_actor_logprob,
    "critic_mse": case_critic_mse,
    "conformity": case_conformity,
    "actor_objective": case_actor_objective,
    "ppo_surrogate": case_ppo_surrogate,
}


def run_case(name: str, seed: int, eps: float = 1e-5) -> GradCaseResult:
    factory = CASES[name]
    for attempt in range(32):
        use_seed = seed + attempt * 1000003
        loss_fn, params, screen = factory(use_seed)
        if screen() >= KINK_MARGIN:
            return GradCaseResult(name, use_seed, grad_check(loss_fn, params, eps))
    raise RuntimeError(f"could not draw a kink-free instance for case {name}")


def run_gradient_suite(n_seeds: int = 10, eps: float = 1e-5) -> list[GradCaseResult]:
    """All cases over ``n_seeds`` base seeds, in case order, then seed order."""
    if n_seeds < 1:
        raise ValueError(f"n_seeds must be >= 1, got {n_seeds}")
    if not (np.isfinite(eps) and eps > 0):
        raise ValueError(f"eps must be a finite positive number, got {eps}")
    results = []
    for name in CASES:
        for seed in range(n_seeds):
            results.append(run_case(name, seed, eps))
    return results
