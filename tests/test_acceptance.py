"""Acceptance gate: one test per criterion, each printing a PASS line.

Run with `pytest tests/test_acceptance.py -v -s` to see the per-criterion
lines as they complete. The learning smoke test (criterion 9) trains a
small attention actor-critic from scratch and is the slow one (minutes).
"""

import json
import time

import numpy as np
import pytest

from taaclab import autodiff as ad
from taaclab.autodiff import Tensor
from taaclab.baselines import InactiveTeamPolicy, RandomTeamPolicy, build_policy
from taaclab.config import CurriculumSettings, LearnerSettings, RunConfig
from taaclab.env import (
    N_ACTIONS,
    EnvConfig,
    observe_team,
    reset,
    respawn,
    reward_components,
    step,
)
from taaclab.evaluation import (
    connectivity_from_positions,
    count_possession_swaps,
    elo_update,
    mean_pairwise_distance,
    run_league,
)
from taaclab.learner import Trajectory, Transition, compute_returns, play_training_game, run_curriculum
from taaclab.nets import ActorNet, CriticNet, TaacNetConfig, conformity_loss, counterfactual_baselines


def _pass(n, message):
    print(f"\nACCEPTANCE {n}: {message}: PASS")


# ---------------------------------------------------------------------------
# 1. gradient suite


def test_acceptance_1_gradient_suite():
    from taaclab.checks import run_gradient_suite

    start = time.time()
    results = run_gradient_suite(n_seeds=10, eps=1e-5)
    elapsed = time.time() - start
    worst = max(r.error for r in results)
    covered = {r.name for r in results}
    assert {"actor_logprob", "critic_mse", "conformity", "actor_objective",
            "ppo_surrogate"} <= covered
    assert worst < 1e-4, f"worst gradient error {worst:.3e}"
    assert elapsed < 120.0, f"gradient suite took {elapsed:.1f}s"
    _pass(1, f"gradient suite worst {worst:.2e} over {len(results)} runs in {elapsed:.1f}s")


# ---------------------------------------------------------------------------
# 2. architecture invariants


def test_acceptance_2_architecture_invariants():
    net_cfg = TaacNetConfig()
    env_cfg = EnvConfig()
    start = time.time()
    for seed in range(100):
        rng = np.random.default_rng(seed)
        actor = ActorNet(net_cfg, rng)
        critic = CriticNet(net_cfg, rng)
        state = reset(env_cfg, "random_spawns", rng)
        obs = observe_team(state, 0, env_cfg)
        acts = rng.integers(0, N_ACTIONS, 3)

        dists, _ = actor.forward(obs)
        np.testing.assert_allclose(dists.data.sum(axis=1), np.ones(3), atol=1e-6)
        assert np.all(dists.data >= 0)

        m = actor.embed.forward(Tensor(obs / net_cfg.obs_scale))
        for head in actor.attn.heads:
            from taaclab.nn import attention
            weights, _ = attention(m, head)
            np.testing.assert_allclose(weights.data.sum(axis=1), np.ones(3), atol=1e-9)
            assert np.all(weights.data >= 0)

        perm = rng.permutation(3)
        dists_p, _ = actor.forward(obs[perm])
        np.testing.assert_allclose(dists_p.data, dists.data[perm], atol=1e-10)
        q = critic.forward(obs, acts)
        q_p = critic.forward(obs[perm], acts[perm])
        np.testing.assert_allclose(q_p.data, q.data[perm], atol=1e-10)

        # residual asymmetry with attention zeroed out
        for head in actor.attn.heads:
            head.wv.data[:] = 0.0
        for head in critic.attn.heads:
            head.wv.data[:] = 0.0
        base_d, _ = actor.forward(obs)
        base_q = critic.forward(obs, acts)
        other = obs.copy()
        other[2] += 11.0
        moved_d, _ = actor.forward(other)
        np.testing.assert_array_equal(moved_d.data[:2], base_d.data[:2])
        own = obs.copy()
        own[0] += 3.0
        assert abs(critic.forward(own, acts).data[0] - base_q.data[0]) > 1e-9
    elapsed = time.time() - start
    assert elapsed < 60.0, f"invariant sweep took {elapsed:.1f}s"
    _pass(2, f"architecture invariants over 100 nets in {elapsed:.1f}s")


# ---------------------------------------------------------------------------
# 3. baseline identity


def test_acceptance_3_baseline_identity():
    net_cfg = TaacNetConfig()
    worst_resid = 0.0
    for seed in range(100):
        rng = np.random.default_rng(1000 + seed)
        actor = ActorNet(net_cfg, rng)
        critic = CriticNet(net_cfg, rng)
        obs = rng.uniform(-50.0, 50.0, size=(3, net_cfg.obs_width))
        acts = rng.integers(0, N_ACTIONS, 3)
        probs = actor.probs_np(obs)
        b = counterfactual_baselines(obs, acts, probs, critic)
        for i in range(3):
            residual = 0.0
            for a in range(N_ACTIONS):
                varied = acts.copy()
                varied[i] = a
                residual += probs[i, a] * (critic.q_np(obs, varied)[i] - b[i])
            worst_resid = max(worst_resid, abs(residual))
        # own-action invariance
        varied = acts.copy()
        varied[0] = (acts[0] + 7) % N_ACTIONS
        b2 = counterfactual_baselines(obs, varied, probs, critic)
        assert b2[0] == b[0]
    assert worst_resid < 1e-8, f"worst identity residual {worst_resid:.2e}"
    _pass(3, f"counterfactual baseline identity residual {worst_resid:.1e} over 100 instances")


# ---------------------------------------------------------------------------
# 4. conformity loss oracle


def test_acceptance_4_conformity_oracle():
    theta_s, theta_b = 0.05, 0.3
    identical = Tensor(np.tile(np.array([0.4, -1.0, 2.0]), (3, 1)))
    assert abs(conformity_loss(identical, theta_s, theta_b).item() - theta_s) < 1e-6 * theta_s

    orthogonal = Tensor(np.eye(3))
    assert abs(conformity_loss(orthogonal, theta_s, theta_b).item() - theta_s * theta_b) < 1e-12

    hand = Tensor(np.array([[1.0, 0.0], [0.0, 1.0],
                            [1 / np.sqrt(2), 1 / np.sqrt(2)]]))
    expected = (np.sqrt(2) / 3.0) * theta_s  # mean cosine 0.4714...
    assert abs(conformity_loss(hand, theta_s, theta_b).item() - expected) < 1e-6
    _pass(4, "conformity loss matches the three hand oracles")


# ---------------------------------------------------------------------------
# 5. environment conservation


def test_acceptance_5_environment_conservation():
    cfg = EnvConfig(steps_per_game=10_000)
    rng = np.random.default_rng(77)
    s = reset(cfg, "random_spawns", rng)
    r = cfg.player_radius
    for _ in range(10_000):
        s, ev = step(s, rng.integers(0, N_ACTIONS, 6), cfg)
        assert np.all(s.player_pos[:, 0] >= r - 1e-9)
        assert np.all(s.player_pos[:, 0] <= cfg.pitch_length - r + 1e-9)
        assert np.all(s.player_pos[:, 1] >= r - 1e-9)
        assert np.all(s.player_pos[:, 1] <= cfg.pitch_width - r + 1e-9)
        assert -cfg.goal_depth <= s.ball_pos[0] <= cfg.pitch_length + cfg.goal_depth
        assert 0.0 <= s.ball_pos[1] <= cfg.pitch_width
        if ev.episode_done and not ev.game_done:
            s = respawn(s, cfg, "random_spawns", rng)

    # reflection law at unit damping: outgoing normal speed = restitution * incoming
    clean = EnvConfig(ball_damping=1.0)
    st_ = reset(clean, "fixed_formation")
    st_.ball_pos = np.array([50.0, 1.2])
    st_.ball_vel = np.array([0.4, -3.0])
    nxt, _ = step(st_, np.full(6, 4), clean)
    assert abs(nxt.ball_vel[1] - clean.wall_restitution * 3.0) < 1e-9
    assert abs(nxt.ball_vel[0] - 0.4) < 1e-9

    # bit-identical trajectories for a fixed seed and action sequence
    acts = np.random.default_rng(5).integers(0, N_ACTIONS, size=(500, 6))

    def run():
        state = reset(cfg, "random_spawns", np.random.default_rng(9))
        frames = []
        for t in range(500):
            prev = state
            state, _ = step(state, acts[t], cfg)
            rew = reward_components(prev, acts[t], state, cfg).sum(axis=-1)
            frames.append((state.player_pos.copy(), state.ball_pos.copy(),
                           state.ball_vel.copy(), rew.copy()))
        return frames

    for f1, f2 in zip(run(), run()):
        for a, b in zip(f1, f2):
            np.testing.assert_array_equal(a, b)
    _pass(5, "10k random steps contained, reflection law exact, trajectories bit-identical")


# ---------------------------------------------------------------------------
# 6. return oracle


def test_acceptance_6_return_oracle():
    rng = np.random.default_rng(11)
    worst = 0.0
    for _ in range(1000):
        T = int(rng.integers(1, 20))
        gamma = float(rng.uniform(0.0, 1.0))
        rewards = rng.normal(size=(T, 3))
        traj = Trajectory([
            Transition(np.zeros((3, 2)), np.zeros(3, dtype=int), rewards[t],
                       np.zeros((3, 2)), t == T - 1, t)
            for t in range(T)
        ])
        G = compute_returns(traj, gamma)
        for t in range(T):
            direct = np.zeros(3)
            for k in range(t, T):
                direct += gamma ** (k - t) * rewards[k]
            worst = max(worst, float(np.abs(G[t] - direct).max()))
    assert worst < 1e-12, f"worst return deviation {worst:.2e}"
    _pass(6, f"returns match the double-loop oracle to {worst:.1e} over 1000 sequences")


# ---------------------------------------------------------------------------
# 7. metric oracles


def test_acceptance_7_metric_oracles():
    pts = np.array([[0.0, 0.0], [3.0, 0.0], [0.0, 4.0]])
    assert mean_pairwise_distance(pts) == 4.0
    assert mean_pairwise_distance(np.zeros((3, 2))) == 0.0
    side = 6.0
    tri = np.array([[0.0, 0.0], [side, 0.0], [side / 2, side * np.sqrt(3) / 2]])
    assert abs(mean_pairwise_distance(tri) - side) < 1e-12

    assert count_possession_swaps([], 0) == 0
    assert count_possession_swaps([(0, 0), (1, 0), (0, 0)], 0) == 2
    assert count_possession_swaps([(0, 0), (3, 1), (1, 0)], 0) == 0

    positions = np.array([[0.0, 0.0], [20.0, 0.0], [10.0, 30.0],
                          [10.0, 0.0], [80.0, 50.0], [90.0, 50.0]])
    blocked = connectivity_from_positions([0, 1, 2], positions, 1.5, 5.0, 40.0)
    assert blocked == 2.0 / 3.0  # segment through the opponent at (10, 0)
    positions[3] = [10.0, 10.0]
    clear = connectivity_from_positions([0, 1, 2], positions, 1.5, 5.0, 40.0)
    assert clear == 1.0
    near = np.array([[0.0, 0.0], [10.0, 0.0], [5.0, 8.0],
                     [80.0, 10.0], [80.0, 50.0], [90.0, 50.0]])
    assert connectivity_from_positions([0, 1, 2], near, 1.5, 5.0, 40.0) == 1.0
    spread = np.array([[0.0, 0.0], [90.0, 0.0], [0.0, 55.0],
                       [80.0, 10.0], [80.0, 50.0], [90.0, 50.0]])
    assert connectivity_from_positions([0, 1, 2], spread, 1.5, 5.0, 40.0) == 0.0
    _pass(7, "pairwise-distance, possession-swap, connectivity fixtures exact")


# ---------------------------------------------------------------------------
# 8. Elo properties


def test_acceptance_8_elo_properties():
    assert elo_update(1200.0, 1200.0, "win_a", 32.0) == (1216.0, 1184.0)
    rng = np.random.default_rng(13)
    r_a, r_b = 1200.0, 1200.0
    for outcome in rng.choice(["win_a", "win_b", "tie"], size=200):
        r_a, r_b = elo_update(r_a, r_b, str(outcome), 32.0)
        assert r_a + r_b == 2400.0  # conservation exact

    from taaclab.config import LeagueSettings

    teams = [(f"rand-{i}", RandomTeamPolicy()) for i in range(8)]
    league_cfg = LeagueSettings(n_games=200, teams_per_kind=8, kinds=("random",),
                                spawn_mode="random_spawns")
    report = run_league(teams, EnvConfig(steps_per_game=150), league_cfg, seed=21)
    finals = list(report["elo_final"].values())
    assert all(abs(v - 1200.0) <= 60.0 for v in finals), finals
    totals = report["outcome_totals"]
    assert totals["wins"] + totals["losses"] + totals["ties"] == 200
    _pass(8, f"Elo conserved; win case exact; identical-policy league spread "
             f"{max(abs(v - 1200.0) for v in finals):.1f} <= 60")


# ---------------------------------------------------------------------------
# 9. learning smoke test (stage 1, scaled)


SMOKE_ENV = EnvConfig(steps_per_game=240, theta_exp=0.05, theta_ball=0.1)
SMOKE_NET = TaacNetConfig(d_model=32, actor_heads=2, critic_heads=2,
                          embed_hidden=32, post_hidden=32)
SMOKE_LEARNER = LearnerSettings(gamma=0.9, actor_lr=3e-3, critic_lr=3e-3,
                                snapshot_interval=100_000)
SMOKE_GAMES = 600
SMOKE_EPISODES = 200


def _goals_per_episode(policy, seed):
    rng = np.random.default_rng(np.random.SeedSequence([seed, 99]))
    opponent = InactiveTeamPolicy()
    episodes = goals = 0
    while episodes < SMOKE_EPISODES:
        _, stats = play_training_game(policy, opponent, SMOKE_ENV, rng, "random_spawns")
        episodes += stats["episodes"]
        goals += stats["goals_for"]
    return goals / episodes


def test_acceptance_9_learning_smoke(tmp_path):
    start = time.time()
    random_gpe = _goals_per_episode(RandomTeamPolicy(), seed=1234)

    cfg = RunConfig(env=SMOKE_ENV, net=SMOKE_NET, learner=SMOKE_LEARNER,
                    curriculum=CurriculumSettings(stage_games=(SMOKE_GAMES, 0, 0, 0)),
                    seed=7, out_dir=str(tmp_path / "smoke"))
    result = run_curriculum(cfg, resume=False)
    trained_gpe = _goals_per_episode(result.policy, seed=1234)
    elapsed = time.time() - start

    assert elapsed < 1800.0, f"smoke run took {elapsed:.0f}s"
    assert trained_gpe > 0.0
    assert trained_gpe >= 2.0 * random_gpe, (
        f"trained {trained_gpe:.4f} vs random {random_gpe:.4f} goals/episode")
    _pass(9, f"stage-1 learner {trained_gpe:.4f} vs random {random_gpe:.4f} "
             f"goals/episode ({trained_gpe / max(random_gpe, 1e-9):.1f}x) in {elapsed:.0f}s")


# ---------------------------------------------------------------------------
# 10. self-play determinism


def test_acceptance_10_training_determinism(tmp_path):
    def run(out):
        cfg = RunConfig(
            env=EnvConfig(steps_per_game=40),
            net=TaacNetConfig(d_model=16, actor_heads=2, critic_heads=2,
                              embed_hidden=16, post_hidden=16),
            learner=LearnerSettings(snapshot_interval=2),
            curriculum=CurriculumSettings(stage_games=(2, 1, 1, 1)),
            seed=23,
            out_dir=str(out),
        )
        return run_curriculum(cfg, resume=False)

    r1 = run(tmp_path / "a")
    r2 = run(tmp_path / "b")
    with open(r1.log_path, "rb") as f1, open(r2.log_path, "rb") as f2:
        log1, log2 = f1.read(), f2.read()
    assert log1 == log2 and len(log1) > 0
    _pass(10, "two identically seeded training runs wrote identical JSONL logs")
