import dataclasses
import json
import os

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from taaclab import autodiff as ad
from taaclab.baselines import InactiveTeamPolicy, PpoTeamPolicy, RandomTeamPolicy, TaacTeamPolicy
from taaclab.config import CurriculumSettings, LearnerSettings, PolicySettings, RunConfig
from taaclab.env import OBS_WIDTH, TEAM_SIZE, EnvConfig
from taaclab.learner import (
    Adam,
    NumericFailure,
    Trajectory,
    Transition,
    actor_update,
    build_ppo_batch,
    compute_returns,
    critic_update,
    curriculum_stages,
    play_training_game,
    ppo_update,
    run_curriculum,
    sample_opponent,
)
from taaclab.nets import TaacNetConfig

SMALL = TaacNetConfig(obs_width=8, n_actions=6, d_model=8, actor_heads=2, critic_heads=2,
                      embed_hidden=8, post_hidden=8, obs_scale=1.0)
TINY_ENV = EnvConfig(steps_per_game=40)
TINY_NET = TaacNetConfig(d_model=16, actor_heads=2, critic_heads=2,
                         embed_hidden=16, post_hidden=16)


def make_traj(rng, length=4, n=3, obs_w=8, n_actions=6, rewards=None):
    transitions = []
    for t in range(length):
        r = rewards[t] if rewards is not None else rng.normal(size=n)
        transitions.append(Transition(
            obs=rng.normal(size=(n, obs_w)),
            actions=rng.integers(0, n_actions, n),
            rewards=np.asarray(r, dtype=float),
            next_obs=rng.normal(size=(n, obs_w)),
            done=t == length - 1,
            t=t,
        ))
    return Trajectory(transitions)


# ---------------------------------------------------------------------------
# returns


def test_returns_all_zero_rewards():
    traj = make_traj(np.random.default_rng(0), rewards=np.zeros((4, 3)))
    np.testing.assert_array_equal(compute_returns(traj, 0.9), np.zeros((4, 3)))


def test_returns_gamma_zero_is_myopic():
    rng = np.random.default_rng(1)
    rewards = rng.normal(size=(5, 3))
    traj = make_traj(rng, length=5, rewards=rewards)
    np.testing.assert_array_equal(compute_returns(traj, 0.0), rewards)


def test_returns_three_step_hand_case():
    rewards = np.array([[1.0], [2.0], [3.0]])
    traj = Trajectory([
        Transition(np.zeros((1, 2)), np.zeros(1, dtype=int), rewards[t],
                   np.zeros((1, 2)), t == 2, t)
        for t in range(3)
    ])
    G = compute_returns(traj, 0.5)
    np.testing.assert_allclose(G[:, 0], [2.75, 3.5, 3.0])


def ref_compute_returns(rewards, gamma):
    """The numpy-row loop ``compute_returns`` replaced: one row op per step."""
    G = np.zeros(rewards.shape)
    tail = np.zeros(rewards.shape[1])
    for t in range(len(rewards) - 1, -1, -1):
        tail = rewards[t] + gamma * tail
        G[t] = tail
    return G


@pytest.mark.parametrize("shape, zero", [((240, 3), False), ((37, 2), False), ((1, 3), False),
                                         ((240, 3), True)], ids=["240x3", "37x2", "1x3", "all-zero"])
def test_returns_equal_the_numpy_row_loop_bit_for_bit(shape, zero):
    rng = np.random.default_rng(sum(shape))
    for gamma in (0.99, 0.9, 1.0, 0.0):
        rewards = np.zeros(shape) if zero else rng.normal(size=shape) * 10.0
        traj = Trajectory(np.zeros(shape + (2,)), np.zeros(shape, dtype=np.int64), rewards)
        got, want = compute_returns(traj, gamma), ref_compute_returns(rewards, gamma)
        assert got is traj.returns
        assert got.shape == want.shape and got.dtype == want.dtype and got.flags.c_contiguous
        assert got.tobytes() == want.tobytes()


@given(st.integers(0, 2**32 - 1), st.floats(0.0, 1.0))
@settings(max_examples=40, deadline=None)
def test_returns_satisfy_recursion_exactly(seed, gamma):
    rng = np.random.default_rng(seed)
    rewards = rng.normal(size=(6, 3))
    traj = make_traj(rng, length=6, rewards=rewards)
    G = compute_returns(traj, gamma)
    for t in range(5):
        np.testing.assert_array_equal(G[t], rewards[t] + gamma * G[t + 1])
    np.testing.assert_array_equal(G[5], rewards[5])


def test_returns_match_double_loop_oracle():
    rng = np.random.default_rng(2)
    for _ in range(50):
        gamma = rng.uniform(0.0, 1.0)
        rewards = rng.normal(size=(rng.integers(1, 12), 3))
        traj = make_traj(rng, length=rewards.shape[0], rewards=rewards)
        G = compute_returns(traj, gamma)
        T = rewards.shape[0]
        for t in range(T):
            direct = sum(gamma ** (k - t) * rewards[k] for k in range(t, T))
            np.testing.assert_allclose(G[t], direct, atol=1e-12)


@pytest.mark.parametrize("gamma", [-0.1, 1.1])
def test_returns_reject_out_of_range_gamma(gamma):
    traj = make_traj(np.random.default_rng(3))
    with pytest.raises(ValueError):
        compute_returns(traj, gamma)


# ---------------------------------------------------------------------------
# updates


def _taac(seed=0):
    return TaacTeamPolicy(SMALL, np.random.default_rng(seed))


def _zero_critic(policy):
    policy.critic.post.layers[-1].w.data[:] = 0.0
    policy.critic.post.layers[-1].b.data[:] = 0.0


def test_actor_update_zero_advantage_has_zero_policy_gradient_term():
    rng = np.random.default_rng(4)
    policy = _taac(4)
    _zero_critic(policy)  # baseline 0 everywhere
    traj = make_traj(rng, rewards=np.zeros((4, 3)))  # returns 0 -> advantage 0
    lrn = LearnerSettings(entropy_coef=0.01)  # the default conformity_scale keeps the penalty on
    before = [p.data.copy() for p in policy.actor.parameters()]
    opt = Adam(policy.actor_parameters(), 1e-3)
    report = actor_update([traj], policy, opt, lrn)
    assert report["policy_loss"] == 0.0
    assert report["mean_advantage"] == 0.0
    # entropy + conformity still drive a parameter change
    moved = any(not np.array_equal(p.data, b)
                for p, b in zip(policy.actor.parameters(), before))
    assert moved


def test_actor_update_increases_probability_of_positive_advantage_action():
    rng = np.random.default_rng(5)
    policy = _taac(5)
    _zero_critic(policy)
    obs = rng.normal(size=(3, 8))
    acts = np.array([2, 4, 1])
    traj = Trajectory([Transition(obs, acts, np.ones(3), obs, True, 0)],
                      returns=np.ones((1, 3)))  # advantage exactly +1
    lrn = LearnerSettings(entropy_coef=0.0, conformity_scale=0.0)  # a zero scale skips the penalty
    p_before = policy.actor.probs_np(obs)[np.arange(3), acts]
    opt = Adam(policy.actor_parameters(), 1e-3)
    assert actor_update([traj], policy, opt, lrn)["conformity"] is None
    p_after = policy.actor.probs_np(obs)[np.arange(3), acts]
    assert np.all(p_after > p_before)


def test_actor_update_leaves_critic_untouched_and_vice_versa():
    rng = np.random.default_rng(6)
    policy = _taac(6)
    traj = make_traj(rng)
    compute_returns(traj, 0.9)
    lrn = LearnerSettings()
    critic_before = [p.data.copy() for p in policy.critic.parameters()]
    actor_update([traj], policy, Adam(policy.actor_parameters(), 1e-3), lrn)
    for p, b in zip(policy.critic.parameters(), critic_before):
        np.testing.assert_array_equal(p.data, b)

    actor_before = [p.data.copy() for p in policy.actor.parameters()]
    critic_update([traj], policy, Adam(policy.critic_parameters(), 1e-3), lrn)
    for p, b in zip(policy.actor.parameters(), actor_before):
        np.testing.assert_array_equal(p.data, b)


def test_critic_update_zero_loss_when_targets_equal_predictions():
    rng = np.random.default_rng(7)
    policy = _taac(7)
    traj = make_traj(rng)
    targets = np.stack([policy.critic.forward(obs, acts).data
                        for obs, acts in zip(traj.obs, traj.actions)])
    traj.returns = targets
    opt = Adam(policy.critic_parameters(), 1e-3)
    report = critic_update([traj], policy, opt, LearnerSettings())
    assert report["critic_mse"] == 0.0
    for p in policy.critic.parameters():
        assert p.grad is None or np.all(p.grad == 0.0)


def test_critic_update_converges_to_constant_target():
    rng = np.random.default_rng(8)
    policy = _taac(8)
    traj = make_traj(rng, length=2)
    traj.returns = np.full((2, 3), 0.7)
    lrn = LearnerSettings()
    opt = Adam(policy.critic_parameters(), 3e-3)
    for _ in range(400):
        critic_update([traj], policy, opt, lrn)
    for obs, acts in zip(traj.obs, traj.actions):
        np.testing.assert_allclose(policy.critic.q_np(obs, acts),
                                   np.full(3, 0.7), atol=1e-3)


def test_updates_reject_empty_batch():
    policy = _taac(9)
    with pytest.raises(ValueError):
        actor_update([], policy, Adam(policy.actor_parameters(), 1e-3), LearnerSettings())
    with pytest.raises(ValueError):
        critic_update([], policy, Adam(policy.critic_parameters(), 1e-3), LearnerSettings())


def test_nan_gradient_aborts_update_and_dumps_batch():
    rng = np.random.default_rng(10)
    policy = _taac(10)
    policy.actor.post.layers[-1].w.data[0, 0] = np.nan
    traj = make_traj(rng)
    compute_returns(traj, 0.9)
    with pytest.raises(NumericFailure) as err:
        actor_update([traj], policy, Adam(policy.actor_parameters(), 1e-3), LearnerSettings())
    assert err.value.dump_path is not None and os.path.exists(err.value.dump_path)
    with open(err.value.dump_path) as fh:
        dump = json.load(fh)
    assert dump["trajectories"]
    obs = np.asarray(dump["trajectories"][0]["obs"])
    assert obs.shape == (len(traj), 3, 8)
    np.testing.assert_array_equal(obs, traj.obs)
    os.unlink(err.value.dump_path)


def _ppo_opts(policy):
    return Adam(policy.policy_net.parameters(), 1e-3), Adam(policy.value_net.parameters(), 1e-3)


def test_nan_gradient_aborts_ppo_update_and_dumps_batch():
    rng = np.random.default_rng(10)
    policy = PpoTeamPolicy(SMALL, rng)
    batch = build_ppo_batch([make_traj(rng)], policy, LearnerSettings(), PolicySettings())
    policy.policy_net.layers[-1].w.data[0, 0] = np.nan
    with pytest.raises(NumericFailure) as err:
        ppo_update(batch, policy, *_ppo_opts(policy), LearnerSettings(), PolicySettings())
    assert err.value.dump_path is not None and os.path.exists(err.value.dump_path)
    with open(err.value.dump_path) as fh:
        dump = json.load(fh)
    assert set(dump) == {"obs", "actions", "behavior_logps", "advantages", "value_targets"}
    np.testing.assert_array_equal(np.asarray(dump["obs"]), batch.obs)
    np.testing.assert_array_equal(np.asarray(dump["actions"]), batch.actions)
    os.unlink(err.value.dump_path)


def test_finite_update_builds_no_dump(monkeypatch):
    from taaclab import learner

    def fail(batch):
        raise AssertionError("dump payload built for a finite update")

    monkeypatch.setattr(learner, "_trajectory_payload", fail)
    monkeypatch.setattr(learner, "_ppo_payload", fail)
    rng = np.random.default_rng(10)
    policy = _taac(10)
    traj = make_traj(rng)
    lrn = LearnerSettings()
    critic_update([traj], policy, Adam(policy.critic_parameters(), 1e-3), lrn)
    actor_update([traj], policy, Adam(policy.actor_parameters(), 1e-3), lrn)
    ppo = PpoTeamPolicy(SMALL, rng)
    batch = build_ppo_batch([traj], ppo, lrn, PolicySettings())
    ppo_update(batch, ppo, *_ppo_opts(ppo), lrn, PolicySettings())


# ---------------------------------------------------------------------------
# optimizer


def test_adam_minimizes_quadratic():
    theta = ad.Tensor(np.array([3.0, -2.0]), requires_grad=True)
    opt = Adam([theta], lr=0.1)
    for _ in range(200):
        opt.zero_grad()
        ad.backward(ad.reduce_sum(ad.mul(theta, theta)))
        opt.step()
    assert np.all(np.abs(theta.data) < 1e-2)


def test_adam_clip_bounds_step_direction():
    theta = ad.Tensor(np.zeros(4), requires_grad=True)
    opt = Adam([theta], lr=1.0, clip_norm=1e-6)
    opt.zero_grad()
    ad.backward(ad.reduce_sum(ad.mul(theta, ad.Tensor(np.full(4, 1e6)))))
    opt.step()
    # clipped gradient keeps the first Adam step at ~lr scale
    assert np.all(np.abs(theta.data) <= 1.0 + 1e-9)


# ---------------------------------------------------------------------------
# rollouts


def test_play_training_game_episode_lengths_sum_to_T():
    rng = np.random.default_rng(13)
    policy = RandomTeamPolicy()
    trajs, stats = play_training_game(policy, RandomTeamPolicy(), TINY_ENV, rng, "random_spawns")
    assert sum(len(t) for t in trajs) == TINY_ENV.steps_per_game
    assert stats["episodes"] == len(trajs)
    for traj in trajs:
        T = len(traj)
        assert T >= 1 and traj.obs.shape == (T, TEAM_SIZE, OBS_WIDTH)
        assert traj.actions.shape == traj.rewards.shape == (T, TEAM_SIZE)


def test_play_training_game_observes_each_state_once(monkeypatch):
    from taaclab import evaluation

    steps, calls = [], []
    real_step, real_observe = evaluation.step, evaluation.observe_team

    def step(state, actions, cfg):
        nxt, ev = real_step(state, actions, cfg)
        steps.append((state, nxt))
        return nxt, ev

    def observe_team(state, team, cfg):
        calls.append(team)
        return real_observe(state, team, cfg)

    monkeypatch.setattr(evaluation, "step", step)
    monkeypatch.setattr(evaluation, "observe_team", observe_team)
    env = EnvConfig(pitch_length=20.0, pitch_width=14.0, goal_width=10.0, steps_per_game=300)
    trajs, _ = play_training_game(RandomTeamPolicy(), RandomTeamPolicy(), env,
                                  np.random.default_rng(5), "random_spawns")
    assert len(trajs) > 1  # goals ended episodes before the clock did
    assert len(calls) == 2 * env.steps_per_game + len(trajs)  # team 0 once per state
    assert sum(len(traj) for traj in trajs) == len(steps)
    start = 0
    for traj in trajs:
        # the td critic target reads step t's next observation as traj.obs[t + 1]
        for t, (before, after) in enumerate(steps[start:start + len(traj)]):
            np.testing.assert_array_equal(traj.obs[t], real_observe(before, 0, env))
            if t + 1 < len(traj):
                np.testing.assert_array_equal(traj.obs[t + 1], real_observe(after, 0, env))
        start += len(traj)


def _per_step_trajectories(game, rewards):
    """A game's episodes as ``Transition`` lists, one object per step."""
    trajs, current = [], []
    for t, ev in enumerate(game.events):
        current.append(Transition(game.obs0[game.after[t] - 1], game.actions[t, :TEAM_SIZE],
                                  rewards[t, :TEAM_SIZE], game.obs0[game.after[t]], ev.episode_done, t))
        if ev.episode_done:
            trajs.append(Trajectory(current))
            current = []
    return trajs


def _params_equal(a, b):
    return all(np.array_equal(p.data, q.data) for p, q in zip(a, b))


def test_array_and_transition_trajectories_give_the_same_updates():
    from taaclab import evaluation
    from taaclab.env import reward_components

    env = EnvConfig(pitch_length=20.0, pitch_width=14.0, goal_width=10.0, steps_per_game=60)
    arrays, _ = play_training_game(RandomTeamPolicy(), RandomTeamPolicy(), env,
                                   np.random.default_rng(21), "random_spawns")
    rng = np.random.default_rng(21)  # the same game again, through the shared loop
    game = evaluation.play_game(RandomTeamPolicy(), RandomTeamPolicy(), env, "random_spawns", rng, rng, rng)
    trail = game.trail
    rewards = reward_components(trail.take(game.after - 1), game.actions, trail.take(game.after), env).sum(-1)
    steps = _per_step_trajectories(game, rewards)
    assert len(arrays) == len(steps) > 1

    lrn = LearnerSettings(gamma=0.9)
    net = TaacNetConfig(d_model=8, actor_heads=2, critic_heads=2, embed_hidden=8, post_hidden=8)
    policies = [TaacTeamPolicy(net, np.random.default_rng(22)) for _ in range(2)]
    reports = []
    for policy, batch in zip(policies, (arrays, steps)):
        critic_opt = Adam(policy.critic_parameters(), 1e-2)
        actor_opt = Adam(policy.actor_parameters(), 1e-2)
        reports.append({**critic_update(batch, policy, critic_opt, lrn),
                        **actor_update(batch, policy, actor_opt, lrn)})
    assert reports[0] == reports[1]
    assert _params_equal(policies[0].actor.parameters(), policies[1].actor.parameters())
    assert _params_equal(policies[0].critic.parameters(), policies[1].critic.parameters())

    ppo = PpoTeamPolicy(net, np.random.default_rng(23))
    got, ref = (build_ppo_batch(batch, ppo, lrn, PolicySettings()) for batch in (arrays, steps))
    for name, arr in vars(got).items():
        np.testing.assert_array_equal(arr, getattr(ref, name), err_msg=name)


# ---------------------------------------------------------------------------
# snapshot league


def test_sample_opponent_single_snapshot():
    policy = _taac(14)
    league = [policy.to_snapshot(1)]
    rng = np.random.default_rng(0)
    for _ in range(5):
        assert sample_opponent(league, rng).version == 1


def test_sample_opponent_uniform_frequencies():
    league = [_taac(15).to_snapshot(1), _taac(16).to_snapshot(2)]
    rng = np.random.default_rng(1)
    draws = [sample_opponent(league, rng).version for _ in range(10_000)]
    freq = draws.count(1) / len(draws)
    assert abs(freq - 0.5) < 0.02


def test_sample_opponent_rejects_empty_league():
    with pytest.raises(ValueError):
        sample_opponent([], np.random.default_rng(0))


def test_sampled_snapshot_does_not_alias_live_parameters():
    policy = _taac(17)
    league = [policy.to_snapshot(1)]
    snap = sample_opponent(league, np.random.default_rng(0))
    frozen = {k: v.copy() for k, v in snap.params.items()}
    for p in policy.actor.parameters():
        p.data += 3.0
    for key in frozen:
        np.testing.assert_array_equal(snap.params[key], frozen[key])


# ---------------------------------------------------------------------------
# curriculum


def _tiny_cfg(out_dir, stage_games=(2, 1, 1, 1), seed=3, kind="taac"):
    from taaclab.config import PolicySettings

    return RunConfig(
        env=TINY_ENV,
        net=TINY_NET,
        learner=LearnerSettings(snapshot_interval=2),
        curriculum=CurriculumSettings(stage_games=stage_games),
        policy=PolicySettings(kind=kind),
        seed=seed,
        out_dir=str(out_dir),
    )


def test_curriculum_stage_order_and_modes():
    stages = curriculum_stages((5, 6, 7, 8))
    assert [s.tag for s in stages] == [1, 2, 3, 4]
    assert [s.opponent_source for s in stages] == [
        "inactive", "random", "snapshot_league", "snapshot_league"]
    assert [s.spawn_mode for s in stages] == [
        "random_spawns", "random_spawns", "random_spawns", "fixed_formation"]
    assert [s.games for s in stages] == [5, 6, 7, 8]


def test_zero_games_yields_snapshot_equal_to_initialization(tmp_path):
    cfg = _tiny_cfg(tmp_path / "run", stage_games=(0, 0, 0, 0))
    result = run_curriculum(cfg)
    assert result.games_done == 0
    init_rng = np.random.default_rng(np.random.SeedSequence([cfg.seed, 0]))
    from taaclab.baselines import build_policy

    reference = build_policy("taac", cfg.net, init_rng)
    snap = result.league[-1]
    for key, arr in reference.to_snapshot(0).params.items():
        np.testing.assert_array_equal(snap.params[key], arr)


def test_curriculum_trains_through_all_stages_and_logs(tmp_path):
    cfg = _tiny_cfg(tmp_path / "run")
    result = run_curriculum(cfg)
    assert result.games_done == 5
    with open(result.log_path) as fh:
        records = [json.loads(line) for line in fh]
    assert [r["stage"] for r in records] == [1, 1, 2, 3, 4]
    assert all("policy_loss" in r and "critic_mse" in r for r in records)
    assert all("entropy" in r and "mean_advantage" in r and "conformity" in r
               for r in records)


def test_curriculum_same_seed_identical_logs(tmp_path):
    r1 = run_curriculum(_tiny_cfg(tmp_path / "a"))
    r2 = run_curriculum(_tiny_cfg(tmp_path / "b"))
    with open(r1.log_path, "rb") as f1, open(r2.log_path, "rb") as f2:
        assert f1.read() == f2.read()


def test_curriculum_resumes_from_last_snapshot(tmp_path):
    out = tmp_path / "run"
    first = run_curriculum(_tiny_cfg(out, stage_games=(2, 0, 0, 0)))
    assert first.games_done == 2
    with open(first.log_path) as fh:
        first_lines = fh.readlines()

    # same directory, longer schedule: picks up after the finished games
    second = run_curriculum(_tiny_cfg(out, stage_games=(4, 0, 0, 0)))
    assert second.games_done == 4
    with open(second.log_path) as fh:
        lines = fh.readlines()
    assert lines[:len(first_lines)] == first_lines
    games = [json.loads(l)["games"] for l in lines]
    assert games == [1, 2, 3, 4]
    updates = [json.loads(l)["update"] for l in lines]
    assert updates == [0, 1, 2, 3]


def _snapshot_files(out):
    return sorted(os.listdir(out / "snapshots"))


def test_closing_snapshot_is_not_a_duplicate(tmp_path):
    straight = run_curriculum(_tiny_cfg(tmp_path / "straight", stage_games=(4, 0, 0, 0)))
    split_dir = tmp_path / "split"
    run_curriculum(_tiny_cfg(split_dir, stage_games=(2, 0, 0, 0)))
    split = run_curriculum(_tiny_cfg(split_dir, stage_games=(4, 0, 0, 0)))
    assert _snapshot_files(tmp_path / "straight") == _snapshot_files(split_dir) == [
        "snapshot_v00001.json", "snapshot_v00002.json"]
    for result in (straight, split):
        assert result.final_version == 2
        assert [snap.version for snap in result.league] == [1, 2]
        first, second = result.league
        assert any(not np.array_equal(first.params[k], second.params[k]) for k in first.params)

    # nothing left to play: the resume adds no snapshot
    before = {name: (split_dir / "snapshots" / name).read_bytes() for name in _snapshot_files(split_dir)}
    again = run_curriculum(_tiny_cfg(split_dir, stage_games=(4, 0, 0, 0)))
    assert again.final_version == 2 and len(again.league) == 2
    assert {name: (split_dir / "snapshots" / name).read_bytes()
            for name in _snapshot_files(split_dir)} == before


def test_resume_cuts_the_log_back_to_the_last_snapshot(tmp_path, monkeypatch):
    from taaclab import learner

    out = tmp_path / "run"
    real_play, played = learner.play_training_game, []

    def crash_in_game_4(*args):
        played.append(1)
        if len(played) == 4:  # after game 3's update, which no snapshot holds
            raise RuntimeError("crash")
        return real_play(*args)

    monkeypatch.setattr(learner, "play_training_game", crash_in_game_4)
    with pytest.raises(RuntimeError, match="crash"):
        run_curriculum(_tiny_cfg(out, stage_games=(6, 0, 0, 0)))
    with open(out / "training_log.jsonl") as fh:
        assert [json.loads(line)["update"] for line in fh] == [0, 1, 2]

    monkeypatch.setattr(learner, "play_training_game", real_play)
    result = run_curriculum(_tiny_cfg(out, stage_games=(6, 0, 0, 0)))
    with open(result.log_path) as fh:
        records = [json.loads(line) for line in fh]
    assert [r["update"] for r in records] == [0, 1, 2, 3, 4, 5]
    assert [r["games"] for r in records] == [1, 2, 3, 4, 5, 6]
    assert not os.path.exists(result.log_path + ".tmp")


def test_resume_ignores_a_snapshot_newer_than_the_saved_state(tmp_path, monkeypatch):
    from taaclab import learner

    clean, crashed = tmp_path / "clean", tmp_path / "crashed"
    run_curriculum(_tiny_cfg(clean, stage_games=(4, 0, 0, 0)))
    clean_result = run_curriculum(_tiny_cfg(clean, stage_games=(6, 0, 0, 0)))

    real_write = learner.write_text_atomic

    def crash_before_the_v3_state(path, text):
        if str(path).endswith("train_state.json") and json.loads(text)["version"] == 3:
            raise RuntimeError("crash")
        real_write(path, text)

    monkeypatch.setattr(learner, "write_text_atomic", crash_before_the_v3_state)
    with pytest.raises(RuntimeError, match="crash"):
        run_curriculum(_tiny_cfg(crashed, stage_games=(6, 0, 0, 0)))
    assert _snapshot_files(crashed)[-1] == "snapshot_v00003.json"  # newer than the saved state
    with open(crashed / "train_state.json") as fh:
        assert json.load(fh)["version"] == 2

    monkeypatch.setattr(learner, "write_text_atomic", real_write)
    short = run_curriculum(_tiny_cfg(crashed, stage_games=(4, 0, 0, 0)))
    assert [snap.version for snap in short.league] == [1, 2]
    assert _snapshot_files(crashed) == ["snapshot_v00001.json", "snapshot_v00002.json"]
    result = run_curriculum(_tiny_cfg(crashed, stage_games=(6, 0, 0, 0)))
    assert (crashed / "training_log.jsonl").read_bytes() == (clean / "training_log.jsonl").read_bytes()
    for r in (result, clean_result):
        assert [snap.version for snap in r.league] == [1, 2, 3]
    assert ({name: (crashed / "snapshots" / name).read_bytes() for name in _snapshot_files(crashed)}
            == {name: (clean / "snapshots" / name).read_bytes() for name in _snapshot_files(clean)})


def test_curriculum_random_kind_trains_without_updates(tmp_path):
    cfg = _tiny_cfg(tmp_path / "run", stage_games=(2, 0, 0, 0), kind="random")
    result = run_curriculum(cfg)
    assert result.games_done == 2
    assert result.league[-1].params == {}
    with open(result.log_path) as fh:
        records = [json.loads(line) for line in fh]
    assert [r["games"] for r in records] == [1, 2]  # one record per game at the default cadence
    assert all(list(r) == ["stage", "games", "update", "goals_for", "goals_against", "episodes"]
               for r in records)


@pytest.mark.parametrize("kind", ["taac", "ppo", "random"])
def test_games_after_the_last_full_buffer_are_logged(tmp_path, monkeypatch, kind):
    from taaclab import learner

    real_play, episodes = learner.play_training_game, []

    def play(*args):
        trajs, stats = real_play(*args)
        episodes.append(stats["episodes"])
        return trajs, stats

    monkeypatch.setattr(learner, "play_training_game", play)
    cfg = _tiny_cfg(tmp_path / "run", stage_games=(3, 0, 0, 0), kind=kind)
    cfg = dataclasses.replace(cfg, learner=dataclasses.replace(cfg.learner, games_per_update=2))
    result = run_curriculum(cfg)
    with open(result.log_path) as fh:
        records = [json.loads(line) for line in fh]
    assert [r["games"] for r in records] == [2, 3]
    assert sum(r["episodes"] for r in records) == sum(episodes) and len(episodes) == 3
    steps = 3 * TINY_ENV.steps_per_game
    if kind == "taac":
        assert sum(r["transitions"] for r in records) == steps
    elif kind == "ppo":
        assert sum(r["batch_size"] for r in records) == steps * TEAM_SIZE


def test_curriculum_ppo_kind_trains(tmp_path):
    cfg = _tiny_cfg(tmp_path / "run", stage_games=(2, 0, 0, 0), kind="ppo")
    result = run_curriculum(cfg)
    with open(result.log_path) as fh:
        records = [json.loads(line) for line in fh]
    assert all("value_loss" in r for r in records)
