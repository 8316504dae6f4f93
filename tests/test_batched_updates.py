"""The batched updates against the per-transition and per-agent code they replaced.

``per_transition_actor_objective`` and ``per_transition_critic_loss`` build
one small graph per transition, as the updates used to; the batched
updates must give the same losses and gradients within 1e-10 relative.
``per_agent_ppo_batch`` runs GAE once per agent column, as
``build_ppo_batch`` used to; the batch must equal it bit for bit.
"""

import functools

import numpy as np
import pytest
from baseline_reference import counterfactual_baselines

from taaclab import autodiff as ad
from taaclab.autodiff import Tensor
from taaclab.baselines import PpoTeamPolicy, TaacTeamPolicy
from taaclab.config import LearnerSettings, PolicySettings
from taaclab.env import TEAM_SIZE
from taaclab.learner import (
    Adam,
    Trajectory,
    Transition,
    actor_update,
    build_ppo_batch,
    compute_returns,
    critic_update,
    gae_advantages,
)
from taaclab.nets import ActorNet, CriticNet, TaacNetConfig, conformity_loss

SMALL = TaacNetConfig(obs_width=8, n_actions=6, d_model=8, actor_heads=2, critic_heads=2,
                      embed_hidden=8, post_hidden=8, obs_scale=1.0)
SMOKE = TaacNetConfig(d_model=32, actor_heads=2, critic_heads=2, embed_hidden=32, post_hidden=32)
RTOL = 1e-10


def make_batch(seed, lengths, cfg=SMALL):
    rng = np.random.default_rng(seed)
    batch = []
    for length in lengths:
        batch.append(Trajectory([
            Transition(obs=rng.normal(size=(TEAM_SIZE, cfg.obs_width)),
                       actions=rng.integers(0, cfg.n_actions, TEAM_SIZE),
                       rewards=rng.normal(size=TEAM_SIZE),
                       next_obs=rng.normal(size=(TEAM_SIZE, cfg.obs_width)),
                       done=t == length - 1, t=t)
            for t in range(length)
        ]))
    return batch


def _sum(terms):
    return functools.reduce(ad.add, terms)


def per_transition_actor_objective(batch, policy, lrn):
    """The actor objective with one graph per transition: (objective, pg, entropy, conformity)."""
    returns = np.concatenate([compute_returns(traj, lrn.gamma) for traj in batch])
    obs_stack = np.concatenate([traj.obs for traj in batch])
    act_stack = np.concatenate([traj.actions for traj in batch])
    n_tr = len(act_stack)
    probs = policy.actor.probs_np(obs_stack)
    baselines = np.stack([counterfactual_baselines(obs_stack[t], act_stack[t], probs[t], policy.critic)
                          for t in range(n_tr)])
    adv = returns - baselines
    pg_terms, ent_terms, conf_terms = [], [], []
    for t in range(n_tr):
        logdists, emb = policy.actor.forward(obs_stack[t], log_probs=True)
        dists = ad.exp(logdists)
        logp = ad.gather(logdists, act_stack[t])
        pg_terms.append(ad.reduce_sum(ad.mul(logp, Tensor(adv[t]))))
        ent_terms.append(ad.scale(ad.neg(ad.reduce_sum(ad.mul(dists, logdists))), 1.0 / TEAM_SIZE))
        conf_terms.append(conformity_loss(emb, lrn.conformity_scale, lrn.conformity_floor))
    pg = ad.neg(ad.scale(_sum(pg_terms), 1.0 / n_tr))
    entropy = ad.scale(_sum(ent_terms), 1.0 / n_tr)
    conformity = ad.scale(_sum(conf_terms), 1.0 / n_tr)
    objective = ad.add(ad.sub(pg, ad.scale(entropy, lrn.entropy_coef)), conformity)
    return objective, pg, entropy, conformity


def per_transition_critic_loss(batch, policy, lrn):
    terms = []
    for traj in batch:
        targets = compute_returns(traj, lrn.gamma)
        for t in range(len(traj)):
            err = ad.sub(policy.critic.forward(traj.obs[t], traj.actions[t]), Tensor(targets[t]))
            terms.append(ad.reduce_sum(ad.mul(err, err)))
    return ad.scale(_sum(terms), 1.0 / (len(terms) * TEAM_SIZE))


def _grads(params):
    return [p.grad.copy() for p in params]


def _assert_close(got, ref):
    assert abs(got - ref) <= RTOL * abs(ref), (got, ref)


def _assert_grads_close(got, ref):
    for g, r in zip(got, ref):
        np.testing.assert_allclose(g, r, rtol=RTOL, atol=RTOL * np.abs(r).max())


BATCHES = [[1], [4], [1, 3], [37], [20, 17]]
BATCH_IDS = ["T1", "T4", "T4-two-trajs", "T37", "T37-two-trajs"]


@pytest.mark.parametrize("lengths", BATCHES, ids=BATCH_IDS)
@pytest.mark.parametrize("floor", [1.0, -1.0], ids=["floor-active", "floor-inactive"])
def test_batched_actor_update_matches_per_transition_objective(lengths, floor):
    policy = TaacTeamPolicy(SMALL, np.random.default_rng(len(lengths) * 100 + sum(lengths)))
    batch = make_batch(sum(lengths), lengths)
    lrn = LearnerSettings(gamma=0.9, conformity_floor=floor)
    params = policy.actor_parameters()
    report = actor_update(batch, policy, Adam(params, lr=0.0), lrn)  # lr 0 keeps the weights
    got = _grads(params)

    ad.zero_grads(params)
    objective, pg, entropy, conformity = per_transition_actor_objective(batch, policy, lrn)
    ad.backward(objective)
    _assert_close(report["objective"], objective.item())
    _assert_close(report["policy_loss"], pg.item())
    _assert_close(report["entropy"], entropy.item())
    _assert_close(report["conformity"], conformity.item())
    assert report["transitions"] == sum(lengths)
    _assert_grads_close(got, _grads(params))


@pytest.mark.parametrize("lengths", BATCHES, ids=BATCH_IDS)
def test_batched_critic_update_matches_per_transition_loss(lengths):
    policy = TaacTeamPolicy(SMALL, np.random.default_rng(sum(lengths)))
    batch = make_batch(sum(lengths) + 1, lengths)
    lrn = LearnerSettings(gamma=0.9)
    params = policy.critic_parameters()
    report = critic_update(batch, policy, Adam(params, lr=0.0), lrn)
    got = _grads(params)

    ad.zero_grads(params)
    loss = per_transition_critic_loss(batch, policy, lrn)
    ad.backward(loss)
    _assert_close(report["critic_mse"], loss.item())
    assert report["values"] == sum(lengths) * TEAM_SIZE
    _assert_grads_close(got, _grads(params))


@pytest.mark.parametrize("cfg", [SMALL, SMOKE], ids=["small", "smoke"])
def test_stacked_forward_rows_equal_single_forwards(cfg):
    rng = np.random.default_rng(50)
    actor, critic = ActorNet(cfg, rng), CriticNet(cfg, rng)
    obs = rng.normal(size=(9, TEAM_SIZE, cfg.obs_width)) * 30.0
    acts = rng.integers(0, cfg.n_actions, size=(9, TEAM_SIZE))
    dists, emb = actor.forward(obs)
    q = critic.forward(obs, acts)
    assert dists.shape == (9, TEAM_SIZE, cfg.n_actions) and q.shape == (9, TEAM_SIZE)
    for t in range(9):
        single_dists, single_emb = actor.forward(obs[t])
        np.testing.assert_array_equal(critic.forward(obs[t], acts[t]).data, q.data[t])
        np.testing.assert_array_equal(single_emb.data, emb.data[t])
        # the 18-wide output GEMM is not row-count invariant on every BLAS
        np.testing.assert_allclose(single_dists.data, dists.data[t], rtol=1e-14, atol=1e-16)


def test_actor_update_finite_at_extreme_logits():
    policy = TaacTeamPolicy(SMALL, np.random.default_rng(60))
    out = policy.actor.post.layers[-1]
    out.w.data[:] = 0.0
    out.b.data[:] = [800.0, 0.0, 0.0, -5.0, 0.0, 0.0]  # exp(-800) underflows to 0
    batch = make_batch(61, [5])
    params = policy.actor_parameters()
    report = actor_update(batch, policy, Adam(params, lr=1e-3), LearnerSettings(entropy_coef=0.01))
    assert np.isfinite(report["entropy"]) and np.isfinite(report["objective"])
    assert all(np.all(np.isfinite(p.grad)) for p in params)


def per_agent_ppo_batch(batch, policy, gamma, lam):
    """The PPO batch with GAE run once per agent column, rows agent-major within each trajectory."""
    obs_rows, act_rows, logp_rows, adv_rows, target_rows = [], [], [], [], []
    for traj in batch:
        values = policy.values_np(traj.obs)
        probs = policy.probs_np(traj.obs)
        for i in range(TEAM_SIZE):
            adv, targets = gae_advantages(traj.rewards[:, i], values[:, i], gamma, lam)
            obs_rows.append(traj.obs[:, i])
            act_rows.append(traj.actions[:, i])
            logp_rows.append(np.log(np.maximum(probs[np.arange(len(traj)), i, traj.actions[:, i]], 1e-300)))
            adv_rows.append(adv)
            target_rows.append(targets)
    adv = np.concatenate(adv_rows)
    adv = (adv - adv.mean()) / adv.std()
    return (np.concatenate(obs_rows), np.concatenate(act_rows), np.concatenate(logp_rows), adv,
            np.concatenate(target_rows))


@pytest.mark.parametrize("T", [1, 37])
def test_gae_on_team_columns_equals_one_call_per_agent(T):
    rng = np.random.default_rng(70 + T)
    rewards, values = rng.normal(size=(2, T, TEAM_SIZE))
    adv, targets = gae_advantages(rewards, values, 0.97, 0.9)
    assert adv.shape == targets.shape == (T, TEAM_SIZE)
    for i in range(TEAM_SIZE):
        col_adv, col_targets = gae_advantages(rewards[:, i], values[:, i], 0.97, 0.9)
        np.testing.assert_array_equal(adv[:, i], col_adv)
        np.testing.assert_array_equal(targets[:, i], col_targets)


@pytest.mark.parametrize("lengths", [[1], [37], [20, 17]], ids=["T1", "T37", "T37-two-trajs"])
def test_ppo_batch_equals_the_per_agent_loop(lengths):
    policy = PpoTeamPolicy(SMALL, np.random.default_rng(80 + sum(lengths)))
    batch = make_batch(81 + len(lengths), lengths)
    got = build_ppo_batch(batch, policy, LearnerSettings(gamma=0.9), PolicySettings(gae_lambda=0.8))
    ref = per_agent_ppo_batch(batch, policy, 0.9, 0.8)
    for arr, ref_arr in zip((got.obs, got.actions, got.behavior_logps, got.advantages, got.value_targets), ref):
        np.testing.assert_array_equal(arr, ref_arr)
