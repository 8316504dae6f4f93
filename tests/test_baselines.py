import math

import numpy as np
import pytest

from taaclab import autodiff as ad
from taaclab.autodiff import Tensor
from taaclab.baselines import (
    AblationConfig,
    InactiveTeamPolicy,
    PpoBatch,
    PpoHyper,
    PpoTeamPolicy,
    TaacTeamPolicy,
    build_policy,
    gae_advantages,
    policy_from_snapshot,
    _sample_rows,
    ppo_update,
    random_action,
)
from taaclab.env import N_ACTIONS, NOOP_ACTION
from taaclab.learner import Adam
from taaclab.nets import TaacNetConfig

SMALL = TaacNetConfig(obs_width=8, n_actions=6, d_model=8, actor_heads=2, critic_heads=2,
                      embed_hidden=8, post_hidden=8, obs_scale=1.0)
ENV_NET = TaacNetConfig()


# ---------------------------------------------------------------------------
# sampling


def loop_sample_rows(probs, rng):
    """The per-row reference for ``_sample_rows``."""
    n, k = probs.shape
    actions = np.empty(n, dtype=np.int64)
    logps = np.empty(n)
    for i in range(n):
        cdf = np.cumsum(probs[i])
        a = int(np.searchsorted(cdf, rng.random(), side="right"))
        a = min(a, k - 1)
        actions[i] = a
        logps[i] = math.log(max(probs[i, a], 1e-300))
    return actions, logps


def test_sample_rows_matches_the_per_row_loop():
    gen = np.random.default_rng(3)
    batches = []
    for _ in range(400):
        n = int(gen.integers(1, 7))
        logits = gen.normal(size=(n, N_ACTIONS)) * gen.choice([0.1, 1.0, 30.0, 800.0])
        p = np.exp(logits - logits.max(axis=1, keepdims=True))
        batches.append(p / p.sum(axis=1, keepdims=True))
    one_hot = np.zeros((2, N_ACTIONS))
    one_hot[0, 0] = one_hot[1, -1] = 1.0
    short = np.full((40, N_ACTIONS), 0.9 / N_ACTIONS)  # rows summing below 1
    nan = np.full((3, N_ACTIONS), 1.0 / N_ACTIONS)
    nan[0] = np.nan
    nan[1, 5] = nan[2, 1] = np.nan  # NaN from entry 5 / entry 1 on in the cdf
    batches += [one_hot, short, nan]
    rng_vec, rng_loop = np.random.default_rng(11), np.random.default_rng(11)
    for probs in batches:
        actions = _sample_rows(probs, rng_vec)
        ref_actions, _ = loop_sample_rows(probs, rng_loop)
        assert actions.dtype == ref_actions.dtype
        assert np.array_equal(actions, ref_actions)
    assert rng_vec.random() == rng_loop.random()


# ---------------------------------------------------------------------------
# random / inactive


def test_random_action_frequencies_are_uniform():
    rng = np.random.default_rng(0)
    draws = np.concatenate([random_action(3, rng) for _ in range(6000)])
    for a in range(N_ACTIONS):
        assert abs(np.mean(draws == a) - 1 / N_ACTIONS) < 0.005


def test_random_action_seeded_determinism_and_validity():
    a = random_action(100, np.random.default_rng(3))
    b = random_action(100, np.random.default_rng(3))
    np.testing.assert_array_equal(a, b)
    assert a.dtype == np.int64 and np.all((a >= 0) & (a < N_ACTIONS))


def test_inactive_policy_always_noops():
    policy = InactiveTeamPolicy()
    actions = policy.act(np.zeros((3, 22)), np.random.default_rng(0))
    np.testing.assert_array_equal(actions, np.full(3, NOOP_ACTION))


# ---------------------------------------------------------------------------
# GAE


def test_gae_hand_case():
    rewards = np.array([1.0, 0.0])
    values = np.array([0.5, 0.2])
    adv, targets = gae_advantages(rewards, values, gamma=0.9, lam=0.8)
    np.testing.assert_allclose(adv, [0.68 + 0.9 * 0.8 * (-0.2), -0.2])
    np.testing.assert_allclose(targets, adv + values)


def test_gae_with_lambda_one_is_discounted_return_minus_value():
    rng = np.random.default_rng(1)
    rewards = rng.normal(size=6)
    values = rng.normal(size=6)
    adv, _ = gae_advantages(rewards, values, gamma=0.95, lam=1.0)
    returns = np.zeros(6)
    acc = 0.0
    for t in range(5, -1, -1):
        acc = rewards[t] + 0.95 * acc
        returns[t] = acc
    np.testing.assert_allclose(adv, returns - values, atol=1e-12)


# ---------------------------------------------------------------------------
# PPO update


def _ppo_batch(policy, rng, batch_size=6, adv=None):
    obs = rng.normal(size=(batch_size, SMALL.obs_width))
    actions = rng.integers(0, SMALL.n_actions, batch_size)
    with ad.no_grad():
        probs = policy.probs_np(obs)
        values = policy.values_np(obs)
    logps = np.log(probs[np.arange(batch_size), actions])
    return PpoBatch(
        obs=obs,
        actions=actions,
        behavior_logps=logps,
        advantages=np.zeros(batch_size) if adv is None else adv,
        value_targets=values.copy(),
    )


def test_ppo_ratio_one_zero_advantage_gives_zero_policy_gradient():
    rng = np.random.default_rng(2)
    policy = PpoTeamPolicy(SMALL, rng)
    batch = _ppo_batch(policy, rng)  # advantages all zero, ratio exactly 1
    hyper = PpoHyper(epochs=1, entropy_coef=0.0)
    before = [p.data.copy() for p in policy.policy_net.parameters()]
    ppo_update(batch, policy,
               Adam(policy.policy_net.parameters(), 1e-3),
               Adam(policy.value_net.parameters(), 1e-3), hyper)
    for p, b in zip(policy.policy_net.parameters(), before):
        np.testing.assert_array_equal(p.data, b)


def test_ppo_clip_blocks_gradient_beyond_band():
    """With the ratio pushed past 1+eps and positive advantage, the clipped
    branch wins the min and its gradient to the policy is exactly zero."""
    rng = np.random.default_rng(3)
    policy = PpoTeamPolicy(SMALL, rng)
    obs = rng.normal(size=(4, SMALL.obs_width))
    actions = rng.integers(0, SMALL.n_actions, 4)
    with ad.no_grad():
        taken = policy.probs_np(obs)[np.arange(4), actions]
    inv_old = Tensor(1.3 / taken)  # current ratio lands at 1.3 > 1 + 0.2
    adv = Tensor(np.ones(4))

    def surrogate():
        dists = policy.dist_forward(obs)
        ratio = ad.mul(ad.gather(dists, actions), inv_old)
        clipped = ad.mul(ad.clip_const(ratio, 0.8, 1.2), adv)
        unclipped = ad.mul(ratio, adv)
        return ad.neg(ad.reduce_mean(ad.minimum(unclipped, clipped)))

    ad.zero_grads(policy.policy_net.parameters())
    ad.backward(surrogate())
    for p in policy.policy_net.parameters():
        assert p.grad is None or np.all(p.grad == 0.0)


def test_ppo_update_improves_surrogate_on_fixed_batch():
    rng = np.random.default_rng(4)
    policy = PpoTeamPolicy(SMALL, rng)
    adv = np.where(rng.random(8) > 0.5, 1.0, -1.0)
    batch = _ppo_batch(policy, rng, batch_size=8, adv=adv)
    hyper = PpoHyper(epochs=8, entropy_coef=0.0)
    report = ppo_update(batch, policy,
                        Adam(policy.policy_net.parameters(), 3e-3),
                        Adam(policy.value_net.parameters(), 1e-3), hyper)
    assert np.isfinite(report["policy_loss"])
    with ad.no_grad():
        probs = policy.probs_np(batch.obs)
    new_logp = np.log(probs[np.arange(8), batch.actions])
    ratio = np.exp(new_logp - batch.behavior_logps)
    # the clipped surrogate started at mean(adv) (ratio 1) and must have improved
    surrogate = np.mean(np.minimum(ratio * adv, np.clip(ratio, 0.8, 1.2) * adv))
    assert surrogate > np.mean(adv)
    # and most samples moved in their advantage's direction
    assert np.mean(np.sign(ratio - 1.0) == np.sign(adv)) >= 0.75


# ---------------------------------------------------------------------------
# build_policy and ablations


def test_build_policy_random_matches_random_action_stream():
    policy = build_policy("random", ENV_NET, np.random.default_rng(5))
    got = policy.act(np.zeros((3, 22)), np.random.default_rng(42))
    expected = random_action(3, np.random.default_rng(42))
    np.testing.assert_array_equal(got, expected)


def test_build_policy_rejects_unknown_kind():
    with pytest.raises(ValueError):
        build_policy("espn", ENV_NET, np.random.default_rng(0))


def test_actor_attention_off_isolates_agents():
    rng = np.random.default_rng(6)
    policy = build_policy("taac_ablation", SMALL, rng,
                          AblationConfig(actor_attention_off=True))
    obs = rng.normal(size=(3, 8))
    base, _ = policy.actor.forward(obs)
    other = obs.copy()
    other[1] += 9.0
    changed, _ = policy.actor.forward(other)
    np.testing.assert_array_equal(changed.data[0], base.data[0])
    np.testing.assert_array_equal(changed.data[2], base.data[2])
    assert not np.array_equal(changed.data[1], base.data[1])


def test_critic_v_fixed_freezes_value_matrices_only():
    rng = np.random.default_rng(7)
    policy = build_policy("taac_ablation", SMALL, rng,
                          AblationConfig(critic_V_fixed=True))
    frozen = {id(t) for t in policy.critic.value_matrices()}
    trainable = {id(t) for t in policy.critic_parameters()}
    everything = {id(t) for t in policy.critic.parameters()}
    assert frozen.isdisjoint(trainable)
    assert trainable | frozen == everything

    from taaclab.config import LearnerSettings
    from taaclab.learner import Trajectory, Transition, compute_returns, critic_update

    v_before = [t.data.copy() for t in policy.critic.value_matrices()]
    others_before = [t.data.copy() for t in policy.critic_parameters()]
    traj = Trajectory([Transition(rng.normal(size=(3, 8)), rng.integers(0, 6, 3),
                                  rng.normal(size=3), rng.normal(size=(3, 8)), True, 0)])
    compute_returns(traj, 0.9)
    critic_update([traj], policy, Adam(policy.critic_parameters(), 1e-2), LearnerSettings())
    for t, b in zip(policy.critic.value_matrices(), v_before):
        np.testing.assert_array_equal(t.data, b)
    moved = any(not np.array_equal(t.data, b)
                for t, b in zip(policy.critic_parameters(), others_before))
    assert moved


def test_ppo_policy_ignores_teammate_observations():
    rng = np.random.default_rng(8)
    policy = PpoTeamPolicy(SMALL, rng)
    obs = rng.normal(size=(3, 8))
    base = policy.probs_np(obs)
    other = obs.copy()
    other[0] += 4.0
    changed = policy.probs_np(other)
    np.testing.assert_array_equal(changed[1:], base[1:])


@pytest.mark.parametrize("kind", ["taac", "taac_ablation", "ppo", "random", "inactive"])
def test_uniform_interface_across_kinds(kind):
    policy = build_policy(kind, SMALL, np.random.default_rng(9))
    actions = policy.act(np.random.default_rng(1).normal(size=(3, 8)), np.random.default_rng(2))
    assert actions.shape == (3,) and actions.dtype == np.int64
    assert np.all(actions >= 0) and np.all(actions < SMALL.n_actions)


def test_snapshot_headers_carry_kind_and_flags():
    rng = np.random.default_rng(10)
    ablation = AblationConfig(actor_attention_off=True, critic_V_fixed=False)
    policy = build_policy("taac_ablation", SMALL, rng, ablation)
    snap = policy.to_snapshot(version=2)
    assert snap.kind == "taac_ablation"
    assert snap.flags == {"actor_attention_off": True, "critic_V_fixed": False}

    restored = policy_from_snapshot(snap, SMALL)
    assert isinstance(restored, TaacTeamPolicy)
    assert restored.ablation == ablation
    obs = rng.normal(size=(3, 8))
    np.testing.assert_array_equal(restored.actor.probs_np(obs), policy.actor.probs_np(obs))


def test_policy_from_snapshot_round_trips_ppo():
    rng = np.random.default_rng(11)
    policy = PpoTeamPolicy(SMALL, rng)
    restored = policy_from_snapshot(policy.to_snapshot(1), SMALL)
    obs = rng.normal(size=(3, 8))
    np.testing.assert_array_equal(restored.probs_np(obs), policy.probs_np(obs))
