"""Trajectory collection, gradient updates, and the staged self-play curriculum.

The curriculum runs four stages in order: (1) inactive opponents with
random spawns, (2) uniformly random opponents with random spawns,
(3) self-play against uniformly sampled past snapshots with random spawns,
(4) the same league opponents with fixed kickoff formations. Snapshots are
saved on a fixed game cadence, plus a closing one when the last game is off
the cadence, and double as both resume points and the self-play opponent
pool. A resume refuses a config other than the saved run's (the schedule
and output directory aside), cuts the log back to the updates the last
snapshot holds and reads no snapshot newer than the saved state. Every
policy kind updates and
logs every ``games_per_update`` games, and once more for the games after the
last full buffer when training ends.

All per-game randomness is derived statelessly from (run seed, game index),
so a fixed seed yields identical training logs and interrupted runs can
resume from the last snapshot without replaying earlier games. Games run
through ``evaluation.play_game``, the loop match play uses;
``play_training_game`` cuts team 0's episodes out of its record as
``Trajectory`` arrays (observations, actions, rewards), which every update
reads as they are.
"""

from __future__ import annotations

import json
import os
import re
import tempfile
from dataclasses import dataclass
from typing import Callable, Optional

import numpy as np

from . import autodiff as ad
from .autodiff import Tensor
from .baselines import PpoTeamPolicy, TaacTeamPolicy, build_policy, policy_from_snapshot
from .config import ConfigError, RunConfig, config_to_dict, echo_config
# perfbench patches the game loop's env calls (step, observe_team, reset, respawn) here too
from .env import TEAM_SIZE, observe_team, reset, respawn, reward_components, step
from .evaluation import play_game
from .nets import (
    PolicySnapshot,
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
    """One step of a hand-built episode; ``Trajectory`` stacks a list of them."""

    obs: np.ndarray        # (n, obs_width)
    actions: np.ndarray    # (n,)
    rewards: np.ndarray    # (n,)
    next_obs: np.ndarray   # (n, obs_width), unread: the next step's obs
    done: bool
    t: int


@dataclass
class Trajectory:
    """One episode of team 0: ``obs`` (T, n, obs_width), ``actions`` (T, n) and
    ``rewards`` (T, n), or a list of ``Transition``s passed as ``obs``, stacked once."""

    obs: np.ndarray
    actions: Optional[np.ndarray] = None
    rewards: Optional[np.ndarray] = None
    returns: Optional[np.ndarray] = None  # (T, n), cached by compute_returns

    def __post_init__(self):
        if self.actions is None:
            steps = self.obs
            self.obs, self.actions, self.rewards = (
                np.stack([getattr(tr, name) for tr in steps]) for name in ("obs", "actions", "rewards"))

    def __len__(self) -> int:
        return len(self.actions)


def compute_returns(traj: Trajectory, gamma: float) -> np.ndarray:
    """Per-agent discounted reward-to-go by backward recursion over the episode."""
    if not 0.0 <= gamma <= 1.0:
        raise ValueError(f"gamma must lie in [0, 1], got {gamma}")
    streams = []
    for r in traj.rewards.T.tolist():  # one agent's column on Python floats, numpy's operation order
        g, tail = [0.0] * len(r), 0.0
        for t in range(len(r) - 1, -1, -1):
            tail = r[t] + gamma * tail
            g[t] = tail
        streams.append(g)
    G = np.ascontiguousarray(np.array(streams, dtype=np.float64).T).reshape(traj.rewards.shape)
    traj.returns = G
    return G


def _trajectory_payload(batch: list) -> dict:
    """JSON form of a batch, written next to a NaN abort; ``obs`` replays the forward pass."""
    return {"trajectories": [{"obs": traj.obs.tolist(), "actions": traj.actions.tolist(),
                              "rewards": traj.rewards.tolist()} for traj in batch]}


# ---------------------------------------------------------------------------
# optimizer


class Adam:
    """Adaptive-moment gradient descent with optional global-norm clipping."""

    def __init__(self, params, lr: float, beta1: float = 0.9, beta2: float = 0.999,
                 eps: float = 1e-8, clip_norm: Optional[float] = None):
        self.params = list(params)
        self.lr, self.beta1, self.beta2, self.eps, self.clip_norm, self.t = lr, beta1, beta2, eps, clip_norm, 0
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
    step in a nonempty batch, in order; missing returns are computed."""
    if not batch:
        raise ValueError("an update needs a nonempty batch")
    for traj in batch:
        if traj.returns is None:
            compute_returns(traj, gamma)
    return tuple(np.concatenate([getattr(traj, name) for traj in batch])
                 for name in ("obs", "actions", "returns"))


def actor_update(batch: list, policy: TaacTeamPolicy, opt: Adam, learner_cfg) -> dict:
    """One ascent step on the advantage-weighted log-likelihood.

    Maximizes sum_i sum_t ln pi(a_it | o_t) * (G_it - b_i), with the
    counterfactual baseline held constant, plus the entropy bonus, while
    the conformity penalty on attended embeddings is added to the
    minimized objective. Reports the component values and mean advantage.
    """
    obs_stack, act_stack, returns = _stacked(batch, learner_cfg.gamma)
    use_conformity = learner_cfg.conformity_scale != 0 and policy.actor.attn is not None
    logp_all, emb = policy.actor.forward(obs_stack, log_probs=True)  # (T, n, A), (T, n, e)
    baselines = counterfactual_baselines_batch(obs_stack, act_stack, np.exp(logp_all.data), policy.critic)
    adv_stack = returns - baselines

    T = act_stack.shape[0]
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
    """Mean-squared-error regression of per-agent values onto their observed returns."""
    obs_stack, act_stack, targets = _stacked(batch, learner_cfg.gamma)
    err = ad.sub(policy.critic.forward(obs_stack, act_stack), Tensor(targets))
    loss = ad.scale(ad.reduce_sum(ad.mul(err, err)), 1.0 / targets.size)
    opt.zero_grad()
    ad.backward(loss)
    check_finite_grads(opt.params, "critic_update", lambda: _trajectory_payload(batch))
    opt.step()
    return {"critic_mse": loss.item(), "values": targets.size}


# ---------------------------------------------------------------------------
# rollouts


def play_training_game(team0, team1, env_cfg, rng: np.random.Generator,
                       spawn_mode: str) -> tuple[list, dict]:
    """Run one full game; returns team 0's per-episode trajectories and stats.

    ``rng`` draws the spawns and both teams' actions. The rewards come after
    the game from one ``reward_components`` call over every step's before
    and after states; they equal one call per step.
    """
    game = play_game(team0, team1, env_cfg, spawn_mode, rng, rng, rng)
    trail, after = game.trail, game.after
    rewards = reward_components(trail.take(after - 1), game.actions, trail.take(after), env_cfg).sum(axis=-1)
    # an episode's steps run from trail row after[start] - 1 up to row after[end - 1], one row each
    ends = [t + 1 for t, ev in enumerate(game.events) if ev.episode_done]
    trajs = [Trajectory(game.obs0[after[start] - 1:after[end - 1]], game.actions[start:end, :TEAM_SIZE],
                        rewards[start:end, :TEAM_SIZE])
             for start, end in zip([0] + ends[:-1], ends)]
    goals_for, goals_against = game.scores.tolist()
    return trajs, {"goals_for": goals_for, "goals_against": goals_against, "episodes": len(trajs)}


# ---------------------------------------------------------------------------
# PPO update


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
    """GAE over one episode; terminal bootstrap is zero.

    ``rewards`` and ``values`` have shape (T,) for one agent's stream or
    (T, n) for a team's, one column per agent. Returns (advantages, value
    targets) of the same shape. Each stream runs backwards on Python floats,
    in numpy's operation order, so the bits are those of numpy's rows.
    """
    streams = []
    for r, v in zip(np.atleast_2d(rewards.T).tolist(), np.atleast_2d(values.T).tolist()):
        adv, last, next_v = [0.0] * len(r), 0.0, 0.0
        for t in range(len(r) - 1, -1, -1):
            last = (r[t] + gamma * next_v - v[t]) + gamma * lam * last
            adv[t], next_v = last, v[t]
        streams.append(adv)
    adv = np.ascontiguousarray(np.array(streams, dtype=np.float64).T).reshape(rewards.shape)
    return adv, adv + values


def _agent_major(a: np.ndarray) -> np.ndarray:
    """(T, n, ...) -> (n * T, ...) rows: agent 0's whole episode, then agent 1's."""
    return a.swapaxes(0, 1).reshape(-1, *a.shape[2:])


def build_ppo_batch(batch: list, policy: PpoTeamPolicy, learner_cfg, policy_cfg) -> PpoBatch:
    """Flatten trajectories into per-agent streams with GAE advantages."""
    parts = []
    for traj in batch:
        values = policy.values_np(traj.obs)                          # (T, n)
        probs = policy.probs_np(traj.obs)                            # (T, n, A)
        taken = np.take_along_axis(probs, traj.actions[..., None], axis=-1)[..., 0]
        adv, targets = gae_advantages(traj.rewards, values, learner_cfg.gamma, policy_cfg.gae_lambda)
        parts.append([_agent_major(a) for a in (traj.obs, traj.actions, np.log(np.maximum(taken, 1e-300)),
                                                adv, targets)])
    obs, actions, logps, adv, targets = (np.concatenate(column) for column in zip(*parts))
    std = adv.std()
    if std > 1e-8:
        adv = (adv - adv.mean()) / std
    return PpoBatch(obs=obs, actions=actions, behavior_logps=logps, advantages=adv, value_targets=targets)


def _ppo_payload(batch: PpoBatch) -> dict:
    """JSON form of a PPO batch, written next to a NaN abort; ``obs`` replays the forward pass."""
    return {name: arr.tolist() for name, arr in vars(batch).items()}


def ppo_update(batch: PpoBatch, policy: PpoTeamPolicy, policy_opt: Adam, value_opt: Adam,
               learner_cfg, policy_cfg) -> dict:
    """Clipped-surrogate PPO step over ``policy_cfg.ppo_epochs`` epochs on one fixed batch."""
    total_policy_loss = 0.0
    total_value_loss = 0.0
    total_entropy = 0.0
    eps = policy_cfg.ppo_clip
    adv = Tensor(batch.advantages)
    # ratio = pi_new(a) / pi_old(a); the behavior side enters as a constant
    inv_old_prob = Tensor(np.exp(-batch.behavior_logps))
    targets = Tensor(batch.value_targets)

    for _ in range(policy_cfg.ppo_epochs):
        logdists = policy.dist_forward(batch.obs, log_probs=True)
        dists = ad.exp(logdists)
        ratio = ad.mul(ad.gather(dists, batch.actions), inv_old_prob)
        unclipped = ad.mul(ratio, adv)
        clipped = ad.mul(ad.clip_const(ratio, 1.0 - eps, 1.0 + eps), adv)
        surrogate = ad.reduce_mean(ad.minimum(unclipped, clipped))
        entropy = ad.neg(ad.reduce_mean(ad.reduce_sum(ad.mul(dists, logdists), axis=1)))
        policy_loss = ad.sub(ad.neg(surrogate), ad.scale(entropy, learner_cfg.entropy_coef))

        values = policy.values_forward(batch.obs)
        err = ad.sub(values, targets)
        value_loss = ad.reduce_mean(ad.mul(err, err))

        policy_opt.zero_grad()
        value_opt.zero_grad()
        ad.backward(policy_loss)
        ad.backward(value_loss)
        check_finite_grads(policy_opt.params + value_opt.params, "ppo_update",
                           lambda: _ppo_payload(batch))
        policy_opt.step()
        value_opt.step()

        total_policy_loss += policy_loss.item()
        total_value_loss += value_loss.item()
        total_entropy += entropy.item()

    n = policy_cfg.ppo_epochs
    return {
        "policy_loss": total_policy_loss / n,
        "value_loss": total_value_loss / n,
        "entropy": total_entropy / n,
        "batch_size": int(batch.obs.shape[0]),
    }


# ---------------------------------------------------------------------------
# snapshot league


def sample_opponent(league: list, rng: np.random.Generator) -> PolicySnapshot:
    """Uniform draw over the league's snapshots; rejects an empty league."""
    if not league:
        raise ValueError("cannot sample an opponent from an empty snapshot league")
    return league[int(rng.integers(0, len(league)))]


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
    league: list  # the PolicySnapshots saved so far, oldest first
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


def run_curriculum(cfg: RunConfig, resume: bool = True) -> TrainResult:
    """Train one team through the four curriculum stages, snapshotting as it goes."""
    cfg.validate()
    env_cfg, net_cfg, lrn = cfg.env, cfg.net, cfg.learner
    stages = curriculum_stages(cfg.curriculum.stage_games)
    total_games = sum(s.games for s in stages)

    init_rng = np.random.default_rng(np.random.SeedSequence([cfg.seed, 0]))
    policy = build_policy(cfg.policy.kind, net_cfg, init_rng)

    log_path = os.path.join(cfg.out_dir, "training_log.jsonl")
    state_path = os.path.join(cfg.out_dir, "train_state.json")
    saved = None
    if resume and os.path.exists(state_path):
        saved = _read_state(state_path)
        _check_same_run(saved.get("config"), cfg)
    echo_config(cfg)

    league: list[PolicySnapshot] = []
    games_done = 0
    version = 0
    update_idx = 0
    saved_at = None  # games_done of the latest snapshot
    if saved is not None:
        games_done = saved_at = saved["games_done"]
        version, update_idx = saved["version"], saved["updates"]
        # a crash after the last snapshot leaves log records that the resumed run writes again
        if os.path.exists(log_path):
            with open(log_path) as fh:
                kept = fh.readlines()[:update_idx]
            write_text_atomic(log_path, "".join(kept))
        # a crash between a snapshot's write and the state's leaves a newer snapshot behind
        for v, path in _existing_snapshots(cfg.out_dir):
            if v <= version:
                league.append(load_snapshot(path))
            else:
                os.remove(path)
        if league:
            policy.load_snapshot(league[-1])
    os.makedirs(os.path.join(cfg.out_dir, "snapshots"), exist_ok=True)
    update = _update_step(policy, lrn, cfg.policy)

    def save_version(v: int) -> None:
        snap = policy.to_snapshot(v)
        save_snapshot(snap, _snapshot_path(cfg.out_dir, v))
        league.append(snap)
        write_text_atomic(state_path, json.dumps({"games_done": games_done, "version": v,
                                                  "updates": update_idx, "config": config_to_dict(cfg)}))

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

            # the last buffer is used even when training ends before it fills
            if games_done % lrn.games_per_update == 0 or games_done == total_games:
                record = {"stage": stage.tag, "games": games_done, "update": update_idx,
                          **buffer_stats, **update(buffer)}
                log.write(json.dumps(record) + "\n")
                update_idx += 1
                buffer = []
                buffer_stats = {k: 0 for k in buffer_stats}

            if games_done % lrn.snapshot_interval == 0:
                version += 1
                save_version(version)
                saved_at = games_done

    if saved_at != games_done:  # a closing snapshot, unless it would repeat the last one
        version += 1
        save_version(version)
    return TrainResult(policy=policy, league=league, games_done=games_done,
                       out_dir=cfg.out_dir, log_path=log_path, final_version=version)


def _read_state(state_path: str) -> dict:
    """The saved run state; ConfigError naming the first counter that is missing,
    not an integer (``true`` included) or negative."""
    with open(state_path) as fh:
        saved = json.load(fh)
    if not isinstance(saved, dict):
        raise ConfigError("train_state.json is not an object; use --fresh")
    for name in ("games_done", "version", "updates"):
        value = saved.get(name)
        if isinstance(value, bool) or not isinstance(value, int) or value < 0:
            raise ConfigError(f"train_state.json: {name} must be a nonnegative integer, "
                              f"got {value!r}; use --fresh")
    return saved


def _check_same_run(saved: object, cfg: RunConfig) -> None:
    """Refuse to resume a run under another config; only the schedule and the
    output directory may change."""
    if not isinstance(saved, dict):
        raise ConfigError("train_state.json holds no config to resume against; use --fresh")

    def key_paths(doc: dict, prefix: str = "") -> dict:
        flat = {}
        for key, value in doc.items():
            path = prefix + key
            if isinstance(value, dict):
                flat.update(key_paths(value, path + "."))
            elif path not in ("out_dir", "curriculum.stage_games"):
                flat[path] = value
        return flat

    old, new = key_paths(saved), key_paths(config_to_dict(cfg))
    missing = object()
    for path in [*new, *(p for p in old if p not in new)]:
        if old.get(path, missing) != new.get(path, missing):
            raise ConfigError(f"{path} differs from the run being resumed "
                              f"({old.get(path)!r} -> {new.get(path)!r}); use --fresh or another out_dir")


def _update_step(policy, lrn, policy_cfg) -> Callable[[list], dict]:
    """Build the optimizers of ``policy``'s kind and return its update step:
    a buffer of trajectories -> the update's log fields (none for ``random``)."""
    if isinstance(policy, TaacTeamPolicy):
        actor_opt = Adam(policy.actor_parameters(), lrn.actor_lr, clip_norm=lrn.grad_clip)
        critic_opt = Adam(policy.critic_parameters(), lrn.critic_lr, clip_norm=lrn.grad_clip)
        return lambda buffer: {**critic_update(buffer, policy, critic_opt, lrn),
                               **actor_update(buffer, policy, actor_opt, lrn)}
    if isinstance(policy, PpoTeamPolicy):
        policy_opt = Adam(policy.policy_net.parameters(), lrn.actor_lr, clip_norm=lrn.grad_clip)
        value_opt = Adam(policy.value_net.parameters(), lrn.critic_lr, clip_norm=lrn.grad_clip)

        def ppo_step(buffer: list) -> dict:
            batch = build_ppo_batch(buffer, policy, lrn, policy_cfg)
            return ppo_update(batch, policy, policy_opt, value_opt, lrn, policy_cfg)
        return ppo_step
    return lambda buffer: {}


def _stage_opponent(stage: CurriculumStage, league: list, net_cfg,
                    rng: np.random.Generator):
    if stage.opponent_source != "snapshot_league":
        return build_policy(stage.opponent_source, net_cfg, rng)
    if not league:
        return build_policy("random", net_cfg, rng)  # empty league: fall back to random
    return policy_from_snapshot(sample_opponent(league, rng), net_cfg)
