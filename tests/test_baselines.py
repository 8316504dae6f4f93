import dataclasses
import math

import numpy as np
import pytest

from taaclab import autodiff as ad
from taaclab.autodiff import Tensor
from taaclab.baselines import (
    InactiveTeamPolicy,
    PpoTeamPolicy,
    TaacTeamPolicy,
    build_policy,
    policy_from_snapshot,
    _sample_rows,
    random_action,
)
from taaclab.config import LearnerSettings, PolicySettings
from taaclab.env import N_ACTIONS, NOOP_ACTION
from taaclab.learner import Adam, PpoBatch, gae_advantages, ppo_update
from taaclab.nets import TaacNetConfig, architecture_hash, load_snapshot, save_snapshot

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


def ref_gae_advantages(rewards, values, gamma, lam):
    """The numpy-row loop ``gae_advantages`` replaced: one row op per step."""
    T = rewards.shape[0]
    adv = np.zeros(rewards.shape)
    last = 0.0
    for t in range(T - 1, -1, -1):
        next_v = values[t + 1] if t + 1 < T else 0.0
        delta = rewards[t] + gamma * next_v - values[t]
        last = delta + gamma * lam * last
        adv[t] = last
    return adv, adv + values


@pytest.mark.parametrize("shape", [(240, 3), (37, 2), (1, 3), (240,), (5,), (1,)])
def test_gae_equals_the_numpy_row_loop_bit_for_bit(shape):
    rng = np.random.default_rng(sum(shape))
    for gamma, lam in ((0.99, 0.95), (0.9, 1.0), (1.0, 0.0)):
        rewards, values = rng.normal(size=shape) * 10.0, rng.normal(size=shape)
        got, want = gae_advantages(rewards, values, gamma, lam), ref_gae_advantages(rewards, values, gamma, lam)
        for g, w in zip(got, want):
            assert g.shape == w.shape and g.dtype == w.dtype and g.flags.c_contiguous
            assert g.tobytes() == w.tobytes()


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
    before = [p.data.copy() for p in policy.policy_net.parameters()]
    ppo_update(batch, policy,
               Adam(policy.policy_net.parameters(), 1e-3),
               Adam(policy.value_net.parameters(), 1e-3),
               LearnerSettings(entropy_coef=0.0), PolicySettings(ppo_epochs=1))
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
    report = ppo_update(batch, policy,
                        Adam(policy.policy_net.parameters(), 3e-3),
                        Adam(policy.value_net.parameters(), 1e-3),
                        LearnerSettings(entropy_coef=0.0), PolicySettings(ppo_epochs=8))
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
    policy = build_policy("taac_ablation", SMALL, rng)
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
    policy = build_policy("taac_ablation", SMALL, rng)
    frozen = {id(t) for t in policy.critic.value_matrices()}
    trainable = {id(t) for t in policy.critic_parameters()}
    everything = {id(t) for t in policy.critic.parameters()}
    assert frozen.isdisjoint(trainable)
    assert trainable | frozen == everything

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


def test_policy_from_snapshot_round_trips_ppo():
    rng = np.random.default_rng(11)
    policy = PpoTeamPolicy(SMALL, rng)
    restored = policy_from_snapshot(policy.to_snapshot(1), SMALL)
    obs = rng.normal(size=(3, 8))
    np.testing.assert_array_equal(restored.probs_np(obs), policy.probs_np(obs))


def test_build_policy_defaults_the_ablation_kind_to_both_flags():
    policy = build_policy("taac_ablation", SMALL, np.random.default_rng(0))
    assert policy.flags == {"actor_attention_off": True, "critic_V_fixed": True}


def test_snapshot_headers_carry_kind_and_flags():
    rng = np.random.default_rng(10)
    policy = build_policy("taac_ablation", SMALL, rng)
    snap = policy.to_snapshot(version=2)
    assert snap.kind == "taac_ablation"
    assert snap.flags == {"actor_attention_off": True, "critic_V_fixed": True}

    restored = policy_from_snapshot(snap, SMALL)
    assert isinstance(restored, TaacTeamPolicy)
    assert (restored.kind, restored.flags) == (snap.kind, snap.flags)
    assert restored.actor.attn is None
    obs = rng.normal(size=(3, 8))
    np.testing.assert_array_equal(restored.actor.probs_np(obs), policy.actor.probs_np(obs))


@pytest.mark.parametrize("kind", ["taac", "taac_ablation", "ppo", "random", "inactive"],
                         ids=["taac", "ablation_both", "ppo", "random", "inactive"])
def test_every_kind_round_trips_through_a_snapshot_file(tmp_path, kind):
    policy = build_policy(kind, SMALL, np.random.default_rng(12))
    path = tmp_path / "snapshot.json"
    save_snapshot(policy.to_snapshot(3), path)
    snap = load_snapshot(path)
    assert (snap.kind, snap.flags, snap.version) == (kind, policy.flags, 3)
    if kind in ("random", "inactive"):
        assert snap.params == {} and snap.flags == {}
    restored = policy_from_snapshot(snap, SMALL)
    assert type(restored) is type(policy) and restored.config_hash == policy.config_hash
    restored_params = {k: t.data for k, t in restored.named_parameters().items()}
    assert restored_params.keys() == policy.named_parameters().keys()
    for k, t in policy.named_parameters().items():
        np.testing.assert_array_equal(restored_params[k], t.data)
    obs = np.random.default_rng(13).normal(size=(3, 8))
    rng_a, rng_b = np.random.default_rng(14), np.random.default_rng(14)
    for _ in range(3):
        np.testing.assert_array_equal(restored.act(obs, rng_a), policy.act(obs, rng_b))


# the snapshot format: written by earlier versions, these must keep loading
PINNED_CONFIG_HASHES = {
    "taac": "af9d50a06d78b7ee33593c38bb1a760d17db69a08d32a778100bd99edbd67cab",
    "taac_ablation": "e7a5501d36ce5d63c04921948792221c5e657ce3d352a6b4ae6df87387590378",
    "ppo": "ca469ec8ce19430e8a99ad6bed73e98aef91a8eb52fcb2a20c383ca937398770",
    "random": "22bb217dc830100d4f6727cb75d8091c6f56b5bd0f145c84c0aa09291b442aff",
    "inactive": "7b5f4a3016cec32665e0a0efddcd62d529128569ead3a6eb2369cb3d4f33a5c3",
}


@pytest.mark.parametrize("kind", sorted(PINNED_CONFIG_HASHES))
def test_config_hash_of_each_kind_is_pinned_under_the_default_net(kind):
    policy = build_policy(kind, ENV_NET, np.random.default_rng(0))
    assert policy.config_hash == PINNED_CONFIG_HASHES[kind]
    assert policy.config_hash == architecture_hash(kind, policy.flags, ENV_NET)


def test_a_single_flag_ablation_snapshot_is_refused_by_its_architecture_hash():
    # earlier versions could write a taac_ablation snapshot with one ablation; its hash is its header's
    snap = build_policy("taac_ablation", SMALL, np.random.default_rng(0)).to_snapshot(1)
    flags = {"actor_attention_off": True, "critic_V_fixed": False}
    single = dataclasses.replace(snap, flags=flags, config_hash=architecture_hash(snap.kind, flags, SMALL))
    with pytest.raises(ValueError, match="architecture hash"):
        policy_from_snapshot(single, SMALL)


@pytest.mark.parametrize("kind", ["random", "inactive"])
def test_weightless_snapshots_check_the_architecture_hash(kind):
    snap = build_policy(kind, SMALL, np.random.default_rng(0)).to_snapshot(1)
    other_net = TaacNetConfig(obs_width=8, n_actions=5, d_model=8, actor_heads=2, critic_heads=2,
                              embed_hidden=8, post_hidden=8, obs_scale=1.0)
    with pytest.raises(ValueError, match="architecture hash"):
        policy_from_snapshot(snap, other_net)
    with pytest.raises(ValueError, match="architecture hash"):
        policy_from_snapshot(dataclasses.replace(snap, config_hash="0" * 64), SMALL)
    with pytest.raises(ValueError, match="parameter set mismatch"):
        policy_from_snapshot(dataclasses.replace(snap, params={"w": np.zeros(2)}), SMALL)
