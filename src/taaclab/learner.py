"""Trajectory collection, gradient updates, and the staged self-play curriculum.

The curriculum runs four stages in order: (1) inactive opponents with
random spawns, (2) uniformly random opponents with random spawns,
(3) self-play against uniformly sampled past snapshots with random spawns,
(4) the same league opponents with fixed kickoff formations. Snapshots are
saved on a fixed game cadence and double as both resume points and the
self-play opponent pool.

All per-game randomness is derived statelessly from (run seed, game index),
so a fixed seed yields identical training logs and interrupted runs can
resume from the last snapshot without replaying earlier games.
"""

from __future__ import annotations

import json
import os
import re
import tempfile
from dataclasses import dataclass, field
from typing import Callable, Optional

import numpy as np

from . import autodiff as ad
from .autodiff import Tensor
from .baselines import (
    InactiveTeamPolicy,
    PpoBatch,
    PpoHyper,
    PpoTeamPolicy,
    RandomTeamPolicy,
    TaacTeamPolicy,
    build_policy,
    gae_advantages,
    policy_from_snapshot,
    ppo_update,
)
from .config import RunConfig
from .env import TEAM_SIZE, observe_team, reset, respawn, step
from .nets import (
    PolicySnapshot,
    architecture_hash,
    conformity_loss,
    counterfactual_baselines_batch,
    load_snapshot,
    save_snapshot,
    write_text_atomic,
)


class NumericFailure(RuntimeError):
    """A gradient went non-finite; the offending batch was dumped for inspection."""

    def __init__(self, message: str, dump_path: Optional[str] = None):
        super().__init__(message)
        self.dump_path = dump_path


def check_finite_grads(params, context: str, dump_payload: Optional[Callable[[], dict]] = None) -> None:
    """Raise NumericFailure on a non-finite gradient; ``dump_payload`` builds
    the batch document to dump and only runs when one is found."""
    for p in params:
        if p.grad is not None and not np.all(np.isfinite(p.grad)):
            path = None
            if dump_payload is not None:
                fd, path = tempfile.mkstemp(prefix=f"{context}-batch-", suffix=".json")
                with os.fdopen(fd, "w") as fh:
                    json.dump(dump_payload(), fh)
            raise NumericFailure(f"non-finite gradient in {context}" +
                                 (f"; batch dumped to {path}" if path else ""), path)


# ---------------------------------------------------------------------------
# trajectories and returns


@dataclass
class Transition:
    obs: np.ndarray        # (n, obs_width)
    actions: np.ndarray    # (n,)
    rewards: np.ndarray    # (n,)
    next_obs: np.ndarray   # (n, obs_width)
    done: bool
    t: int


@dataclass
class Trajectory:
    transitions: list
    returns: Optional[np.ndarray] = None  # (len, n), cached by compute_returns

    def __len__(self) -> int:
        return len(self.transitions)


def compute_returns(traj: Trajectory, gamma: float) -> np.ndarray:
    """Per-agent discounted reward-to-go by backward recursion over the episode."""
    if not 0.0 <= gamma <= 1.0:
        raise ValueError(f"gamma must lie in [0, 1], got {gamma}")
    T = len(traj.transitions)
    n = traj.transitions[0].rewards.shape[0]
    G = np.zeros((T, n))
    tail = np.zeros(n)
    for t in range(T - 1, -1, -1):
        tail = traj.transitions[t].rewards + gamma * tail
        G[t] = tail
    traj.returns = G
    return G


def _trajectory_payload(batch: list) -> dict:
    """JSON form of a batch, written next to a NaN abort; ``obs`` replays the forward pass."""
    return {
        "trajectories": [
            {
                "obs": [tr.obs.tolist() for tr in traj.transitions],
                "actions": [tr.actions.tolist() for tr in traj.transitions],
                "rewards": [tr.rewards.tolist() for tr in traj.transitions],
                "steps": [tr.t for tr in traj.transitions],
            }
            for traj in batch
        ]
    }


# ---------------------------------------------------------------------------
# optimizer


class Adam:
    """Adaptive-moment gradient descent with optional global-norm clipping."""

    def __init__(self, params, lr: float, beta1: float = 0.9, beta2: float = 0.999,
                 eps: float = 1e-8, clip_norm: Optional[float] = None):
        self.params = list(params)
        self.lr = lr
        self.beta1 = beta1
        self.beta2 = beta2
        self.eps = eps
        self.clip_norm = clip_norm
        self.t = 0
        self.m = [np.zeros_like(p.data) for p in self.params]
        self.v = [np.zeros_like(p.data) for p in self.params]

    def zero_grad(self) -> None:
        for p in self.params:
            p.grad = None

    def step(self) -> None:
        grads = [p.grad if p.grad is not None else np.zeros_like(p.data) for p in self.params]
        if self.clip_norm is not None:
            total = float(np.sqrt(sum(float(np.sum(g * g)) for g in grads)))
            if total > self.clip_norm:
                factor = self.clip_norm / total
                grads = [g * factor for g in grads]
        self.t += 1
        b1c = 1.0 - self.beta1 ** self.t
        b2c = 1.0 - self.beta2 ** self.t
        for p, g, m, v in zip(self.params, grads, self.m, self.v):
            m *= self.beta1
            m += (1.0 - self.beta1) * g
            v *= self.beta2
            v += (1.0 - self.beta2) * g * g
            p.data = p.data - self.lr * (m / b1c) / (np.sqrt(v / b2c) + self.eps)


# ---------------------------------------------------------------------------
# actor / critic updates


def _stacked(batch: list, gamma: float) -> tuple[np.ndarray, np.ndarray, np.ndarray]:
    """Observations (T, n, obs_width), actions (T, n) and returns (T, n) of every
    transition in a nonempty batch, in order; missing returns are computed."""
    if not batch:
        raise ValueError("an update needs a nonempty batch")
    for traj in batch:
        if traj.returns is None:
            compute_returns(traj, gamma)
    transitions = [tr for traj in batch for tr in traj.transitions]
    return (np.stack([tr.obs for tr in transitions]), np.stack([tr.actions for tr in transitions]),
            np.concatenate([traj.returns for traj in batch]))


def actor_update(batch: list, policy: TaacTeamPolicy, opt: Adam, learner_cfg) -> dict:
    """One ascent step on the advantage-weighted log-likelihood.

    Maximizes sum_i sum_t ln pi(a_it | o_t) * (G_it - b_i), with the
    counterfactual baseline held constant, plus the entropy bonus, while
    the conformity penalty on attended embeddings is added to the
    minimized objective. Reports the component values and mean advantage.
    """
    obs_stack, act_stack, returns = _stacked(batch, learner_cfg.gamma)
    use_conformity = learner_cfg.conformity_enabled and policy.actor.attn is not None
    with ad.no_grad():
        probs_stack = policy.actor.probs_np(obs_stack)
        baselines = counterfactual_baselines_batch(obs_stack, act_stack,
                                                   probs_stack, policy.critic)
        if learner_cfg.advantage_mode == "coma":
            adv_stack = policy.critic.q_np(obs_stack, act_stack) - baselines
        else:
            adv_stack = returns - baselines

    T = act_stack.shape[0]
    logp_all, emb = policy.actor.forward(obs_stack, log_probs=True)  # (T, n, A), (T, n, e)
    logp_rows = ad.reshape(logp_all, (-1, logp_all.shape[-1]))       # (T*n, A)
    logp = ad.gather(logp_rows, act_stack.reshape(-1))
    pg_loss = ad.neg(ad.scale(ad.reduce_sum(ad.mul(logp, Tensor(adv_stack.reshape(-1)))), 1.0 / T))
    plogp = ad.mul(ad.exp(logp_rows), logp_rows)
    entropy = ad.scale(ad.neg(ad.reduce_sum(plogp)), 1.0 / (TEAM_SIZE * T))
    objective = pg_loss
    if learner_cfg.entropy_coef:
        objective = ad.sub(objective, ad.scale(entropy, learner_cfg.entropy_coef))
    conformity = None
    if use_conformity:
        conformity = conformity_loss(emb, learner_cfg.conformity_scale, learner_cfg.conformity_floor)
        objective = ad.add(objective, conformity)
    opt.zero_grad()
    ad.backward(objective)
    check_finite_grads(opt.params, "actor_update", lambda: _trajectory_payload(batch))
    opt.step()
    return {
        "policy_loss": pg_loss.item(),
        "objective": objective.item(),
        "conformity": conformity.item() if conformity is not None else None,
        "entropy": entropy.item(),
        "mean_advantage": float(np.mean(adv_stack)),
        "transitions": T,
    }


def critic_update(batch: list, policy: TaacTeamPolicy, opt: Adam, learner_cfg) -> dict:
    """Mean-squared-error regression of per-agent values onto their targets."""
    obs_stack, act_stack, _ = _stacked(batch, learner_cfg.gamma)
    targets = np.concatenate([_critic_targets(traj, policy, learner_cfg) for traj in batch])
    err = ad.sub(policy.critic.forward(obs_stack, act_stack), Tensor(targets))
    loss = ad.scale(ad.reduce_sum(ad.mul(err, err)), 1.0 / targets.size)
    opt.zero_grad()
    ad.backward(loss)
    check_finite_grads(opt.params, "critic_update", lambda: _trajectory_payload(batch))
    opt.step()
    return {"critic_mse": loss.item(), "values": targets.size}


def _critic_targets(traj: Trajectory, policy: TaacTeamPolicy, learner_cfg) -> np.ndarray:
    if learner_cfg.critic_target == "mc":
        return traj.returns
    # one-step bootstrapped target along the stored action sequence, one stacked pass
    trs = traj.transitions
    targets = np.stack([tr.rewards for tr in trs])
    if len(trs) > 1:
        q_next = policy.critic.q_np(np.stack([tr.next_obs for tr in trs[:-1]]),
                                    np.stack([tr.actions for tr in trs[1:]]))
        targets[:-1] = targets[:-1] + learner_cfg.gamma * q_next
    return targets


# ---------------------------------------------------------------------------
# rollouts


def play_training_game(team0, team1, env_cfg, rng: np.random.Generator,
                       spawn_mode: str) -> tuple[list, dict]:
    """Run one full game; returns team 0's per-episode trajectories and stats."""
    state = reset(env_cfg, spawn_mode, rng)
    obs0 = observe_team(state, 0, env_cfg)
    trajs: list[Trajectory] = []
    current: list[Transition] = []
    while True:
        a0 = team0.act(obs0, rng)
        a1 = team1.act(observe_team(state, 1, env_cfg), rng)
        nxt, rewards, ev = step(state, np.concatenate([a0, a1]), env_cfg)
        next_obs = observe_team(nxt, 0, env_cfg)  # also the next step's obs0
        current.append(Transition(obs0, a0, rewards[:TEAM_SIZE], next_obs, ev.episode_done, state.t))
        state, obs0 = nxt, next_obs
        if ev.episode_done:
            trajs.append(Trajectory(current))
            current = []
            if ev.game_done:
                break
            state = respawn(state, env_cfg, spawn_mode, rng)
            obs0 = observe_team(state, 0, env_cfg)
    stats = {
        "goals_for": int(state.scores[0]),
        "goals_against": int(state.scores[1]),
        "episodes": len(trajs),
    }
    return trajs, stats


def build_ppo_batch(batch: list, policy: PpoTeamPolicy, hyper: PpoHyper) -> PpoBatch:
    """Flatten trajectories into per-agent streams with GAE advantages."""
    obs_rows, act_rows, logp_rows, adv_rows, target_rows = [], [], [], [], []
    with ad.no_grad():
        for traj in batch:
            obs = np.stack([tr.obs for tr in traj.transitions])          # (T, n, ow)
            acts = np.stack([tr.actions for tr in traj.transitions])     # (T, n)
            rews = np.stack([tr.rewards for tr in traj.transitions])     # (T, n)
            values = policy.values_np(obs)                               # (T, n)
            probs = policy.probs_np(obs)                                 # (T, n, A)
            T, n = acts.shape
            taken = np.take_along_axis(probs, acts[..., None], axis=-1)[..., 0]
            for i in range(n):
                adv, targets = gae_advantages(rews[:, i], values[:, i],
                                              hyper.gamma, hyper.gae_lambda)
                obs_rows.append(obs[:, i])
                act_rows.append(acts[:, i])
                logp_rows.append(np.log(np.maximum(taken[:, i], 1e-300)))
                adv_rows.append(adv)
                target_rows.append(targets)
    adv = np.concatenate(adv_rows)
    std = adv.std()
    if std > 1e-8:
        adv = (adv - adv.mean()) / std
    return PpoBatch(
        obs=np.concatenate(obs_rows),
        actions=np.concatenate(act_rows),
        behavior_logps=np.concatenate(logp_rows),
        advantages=adv,
        value_targets=np.concatenate(target_rows),
    )


# ---------------------------------------------------------------------------
# snapshot league


@dataclass
class SnapshotLeague:
    snapshots: list = field(default_factory=list)

    def add(self, snapshot: PolicySnapshot) -> None:
        self.snapshots.append(snapshot)

    def __len__(self) -> int:
        return len(self.snapshots)


def sample_opponent(league: SnapshotLeague, rng: np.random.Generator) -> PolicySnapshot:
    """Uniform draw over stored snapshots; rejects an empty league."""
    if not league.snapshots:
        raise ValueError("cannot sample an opponent from an empty snapshot league")
    return league.snapshots[int(rng.integers(0, len(league.snapshots)))]


# ---------------------------------------------------------------------------
# curriculum


@dataclass(frozen=True)
class CurriculumStage:
    tag: int
    spawn_mode: str
    opponent_source: str  # inactive | random | snapshot_league
    games: int


def curriculum_stages(stage_games) -> list[CurriculumStage]:
    modes = [
        ("random_spawns", "inactive"),
        ("random_spawns", "random"),
        ("random_spawns", "snapshot_league"),
        ("fixed_formation", "snapshot_league"),
    ]
    return [
        CurriculumStage(tag=i + 1, spawn_mode=m, opponent_source=src, games=int(g))
        for i, ((m, src), g) in enumerate(zip(modes, stage_games))
    ]


@dataclass
class TrainResult:
    policy: object
    league: SnapshotLeague
    games_done: int
    out_dir: str
    log_path: str
    final_version: int


_SNAPSHOT_RE = re.compile(r"snapshot_v(\d+)\.json$")


def _snapshot_path(out_dir: str, version: int) -> str:
    return os.path.join(out_dir, "snapshots", f"snapshot_v{version:05d}.json")


def _existing_snapshots(out_dir: str) -> list[tuple[int, str]]:
    snap_dir = os.path.join(out_dir, "snapshots")
    if not os.path.isdir(snap_dir):
        return []
    found = []
    for name in os.listdir(snap_dir):
        m = _SNAPSHOT_RE.match(name)
        if m:
            found.append((int(m.group(1)), os.path.join(snap_dir, name)))
    return sorted(found)


def _game_rng(seed: int, game_index: int) -> np.random.Generator:
    return np.random.default_rng(np.random.SeedSequence([seed, 1, game_index]))


def _policy_snapshot(policy, version: int, net_cfg) -> PolicySnapshot:
    if hasattr(policy, "to_snapshot"):
        return policy.to_snapshot(version)
    return PolicySnapshot(kind=policy.kind, flags=dict(getattr(policy, "flags", {})),
                          version=version,
                          config_hash=architecture_hash(policy.kind, {}, net_cfg), params={})


def run_curriculum(cfg: RunConfig, resume: bool = True) -> TrainResult:
    """Train one team through the four curriculum stages, snapshotting as it goes."""
    env_cfg = cfg.env.validate()
    net_cfg = cfg.net.validate()
    lrn = cfg.learner.validate()
    stages = curriculum_stages(cfg.curriculum.stage_games)
    total_games = sum(s.games for s in stages)

    os.makedirs(os.path.join(cfg.out_dir, "snapshots"), exist_ok=True)
    log_path = os.path.join(cfg.out_dir, "training_log.jsonl")
    state_path = os.path.join(cfg.out_dir, "train_state.json")

    init_rng = np.random.default_rng(np.random.SeedSequence([cfg.seed, 0]))
    policy = build_policy(cfg.policy.kind, net_cfg, init_rng, cfg.policy.ablation())

    league = SnapshotLeague()
    games_done = 0
    version = 0
    update_idx = 0
    if resume and os.path.exists(state_path):
        with open(state_path) as fh:
            saved = json.load(fh)
        games_done = int(saved["games_done"])
        version = int(saved["version"])
        update_idx = int(saved.get("updates", 0))
        snaps = _existing_snapshots(cfg.out_dir)
        for _, path in snaps:
            league.add(load_snapshot(path))
        if snaps and hasattr(policy, "load_snapshot"):
            policy.load_snapshot(league.snapshots[-1])

    trainable = isinstance(policy, (TaacTeamPolicy, PpoTeamPolicy))
    actor_opt = critic_opt = policy_opt = value_opt = None
    ppo_hyper = None
    if isinstance(policy, TaacTeamPolicy):
        actor_opt = Adam(policy.actor_parameters(), lrn.actor_lr, clip_norm=lrn.grad_clip)
        critic_opt = Adam(policy.critic_parameters(), lrn.critic_lr, clip_norm=lrn.grad_clip)
    elif isinstance(policy, PpoTeamPolicy):
        ppo_hyper = PpoHyper(
            clip_ratio=cfg.policy.ppo_clip, epochs=cfg.policy.ppo_epochs,
            gae_lambda=cfg.policy.gae_lambda, gamma=lrn.gamma,
            policy_lr=lrn.actor_lr, value_lr=lrn.critic_lr,
            entropy_coef=lrn.entropy_coef, grad_clip=lrn.grad_clip,
        )
        policy_opt = Adam(policy.policy_net.parameters(), ppo_hyper.policy_lr,
                          clip_norm=ppo_hyper.grad_clip)
        value_opt = Adam(policy.value_net.parameters(), ppo_hyper.value_lr,
                         clip_norm=ppo_hyper.grad_clip)

    def save_version(v: int) -> None:
        snap = _policy_snapshot(policy, v, net_cfg)
        save_snapshot(snap, _snapshot_path(cfg.out_dir, v))
        league.add(snap)
        write_text_atomic(state_path, json.dumps({"games_done": games_done, "version": v,
                                                  "updates": update_idx}))

    stage_bounds = np.cumsum([s.games for s in stages])
    buffer: list[Trajectory] = []
    buffer_stats = {"goals_for": 0, "goals_against": 0, "episodes": 0}

    with open(log_path, "a" if games_done else "w") as log:
        while games_done < total_games:
            stage = stages[int(np.searchsorted(stage_bounds, games_done, side="right"))]
            game_rng = _game_rng(cfg.seed, games_done)
            opponent = _stage_opponent(stage, league, net_cfg, game_rng)
            trajs, stats = play_training_game(policy, opponent, env_cfg, game_rng, stage.spawn_mode)
            games_done += 1
            buffer.extend(trajs)
            for k in buffer_stats:
                buffer_stats[k] += stats[k]

            if trainable and games_done % lrn.games_per_update == 0 and buffer:
                for traj in buffer:
                    compute_returns(traj, lrn.gamma)
                record = {
                    "stage": stage.tag,
                    "games": games_done,
                    "update": update_idx,
                    **buffer_stats,
                }
                if isinstance(policy, TaacTeamPolicy):
                    record.update(critic_update(buffer, policy, critic_opt, lrn))
                    record.update(actor_update(buffer, policy, actor_opt, lrn))
                else:
                    ppo_batch = build_ppo_batch(buffer, policy, ppo_hyper)
                    record.update(ppo_update(ppo_batch, policy, policy_opt, value_opt, ppo_hyper))
                log.write(json.dumps(record) + "\n")
                update_idx += 1
                buffer = []
                buffer_stats = {k: 0 for k in buffer_stats}
            elif not trainable:
                record = {"stage": stage.tag, "games": games_done, "update": update_idx, **stats}
                log.write(json.dumps(record) + "\n")
                update_idx += 1

            if games_done % lrn.snapshot_interval == 0:
                version += 1
                save_version(version)

    version += 1
    save_version(version)
    return TrainResult(policy=policy, league=league, games_done=games_done,
                       out_dir=cfg.out_dir, log_path=log_path, final_version=version)


def _stage_opponent(stage: CurriculumStage, league: SnapshotLeague, net_cfg,
                    rng: np.random.Generator):
    if stage.opponent_source == "inactive":
        return InactiveTeamPolicy()
    if stage.opponent_source == "random":
        return RandomTeamPolicy(net_cfg.n_actions)
    try:
        snap = sample_opponent(league, rng)
    except ValueError:
        return RandomTeamPolicy(net_cfg.n_actions)  # empty league: fall back to random
    return policy_from_snapshot(snap, net_cfg)
