"""The three workloads: configs built from the seed, one API call, output checks.

Each workload plays a fixed number of games per call through the public
API (``learner.run_curriculum`` or ``evaluation.run_league``). The harness
repeats the call with one seed, so every repeat must write the same output
document; ``digest`` is what gets compared.
"""

from __future__ import annotations

import dataclasses
import glob
import hashlib
import json
import math
import os

import numpy as np

from taaclab import evaluation, learner
from taaclab.baselines import build_policy, policy_from_snapshot
from taaclab.config import (
    CurriculumSettings,
    LeagueSettings,
    LearnerSettings,
    PolicySettings,
    RunConfig,
)
from taaclab.env import TEAM_SIZE, EnvConfig
from taaclab.nets import TaacNetConfig, architecture_hash, load_snapshot

# "full" is what the benchmark measures; "tiny" only exercises every path.
SIZES = {
    "full": {"train_games": 1, "train_steps": 240,
             "selfplay_games": (2, 2), "selfplay_steps": 240,
             "league_games": 3, "league_steps": 400},
    "tiny": {"train_games": 1, "train_steps": 12,
             "selfplay_games": (2, 2), "selfplay_steps": 12,
             "league_games": 2, "league_steps": 12},
}

# stage-1 smoke settings (scripts/stage1_smoke.py)
SMOKE_NET = TaacNetConfig(d_model=32, actor_heads=2, critic_heads=2,
                          embed_hidden=32, post_hidden=32)
SMOKE_LEARNER = LearnerSettings(gamma=0.9, actor_lr=3e-3, critic_lr=3e-3,
                                snapshot_interval=200, games_per_update=1)


def smoke_env(steps: int) -> EnvConfig:
    return EnvConfig(steps_per_game=steps, theta_exp=0.05, theta_ball=0.1)


def _file_digest(path: str) -> str:
    with open(path, "rb") as fh:
        return hashlib.sha256(fh.read()).hexdigest()


def _check_log(path: str, games: int, count_field: str, per_game: int) -> list[str]:
    """One record per game, every number finite, ``count_field`` summing to games x per_game."""
    with open(path) as fh:
        records = [json.loads(line) for line in fh if line.strip()]
    problems = []
    if len(records) != games:
        problems.append(f"{len(records)} log records for {games} games")
    for rec in records:
        bad = [k for k, v in rec.items()
               if isinstance(v, (int, float)) and not math.isfinite(v)]
        if bad:
            problems.append(f"update {rec.get('update')}: non-finite {bad}")
    total = sum(rec.get(count_field, 0) for rec in records)
    if total != games * per_game:
        problems.append(f"{count_field} sum {total} != {games} games x {per_game}")
    return problems


class TrainTaac:
    """Stage 1 only: TAAC against the inactive team, one update per game."""

    name = "train_taac"
    first_game = (learner, "play_training_game")

    def __init__(self, seed: int, size: str):
        s = SIZES[size]
        self.games = s["train_games"]
        self.steps = s["train_steps"]
        self.cfg = RunConfig(env=smoke_env(self.steps), net=SMOKE_NET, learner=SMOKE_LEARNER,
                             curriculum=CurriculumSettings(stage_games=(self.games, 0, 0, 0)),
                             seed=seed).validate()

    def sizes(self) -> dict:
        return {"games_per_call": self.games, "steps_per_game": self.steps,
                "net": dataclasses.asdict(self.cfg.net)}

    def call(self, out_dir: str) -> None:
        learner.run_curriculum(dataclasses.replace(self.cfg, out_dir=out_dir), resume=False)

    def check(self, out_dir: str) -> list[str]:
        return _check_log(os.path.join(out_dir, "training_log.jsonl"),
                          self.games, "transitions", self.steps)

    def digest(self, out_dir: str) -> str:
        return _file_digest(os.path.join(out_dir, "training_log.jsonl"))


class SelfplayPpo:
    """PPO through stages 3 and 4, resumed from disk between the two stages."""

    name = "selfplay_ppo"
    first_game = (learner, "play_training_game")
    snapshot_interval = 2

    def __init__(self, seed: int, size: str):
        s = SIZES[size]
        self.stage3, self.stage4 = s["selfplay_games"]
        self.steps = s["selfplay_steps"]
        self.cfg = RunConfig(
            env=smoke_env(self.steps), net=SMOKE_NET,
            learner=dataclasses.replace(SMOKE_LEARNER, snapshot_interval=self.snapshot_interval),
            curriculum=CurriculumSettings(stage_games=(0, 0, self.stage3, 0)),
            policy=PolicySettings(kind="ppo"), seed=seed,
        ).validate()
        self.games = self.stage3 + self.stage4

    def sizes(self) -> dict:
        return {"games_per_call": self.games, "stage_games": [self.stage3, self.stage4],
                "steps_per_game": self.steps, "snapshot_interval": self.snapshot_interval,
                "net": dataclasses.asdict(self.cfg.net)}

    def call(self, out_dir: str) -> None:
        cfg = dataclasses.replace(self.cfg, out_dir=out_dir)
        learner.run_curriculum(cfg, resume=False)
        both = CurriculumSettings(stage_games=(0, 0, self.stage3, self.stage4))
        learner.run_curriculum(dataclasses.replace(cfg, curriculum=both), resume=True)

    def check(self, out_dir: str) -> list[str]:
        # one PPO sample per agent and transition
        problems = _check_log(os.path.join(out_dir, "training_log.jsonl"),
                              self.games, "batch_size", self.steps * TEAM_SIZE)
        expected = architecture_hash("ppo", {}, self.cfg.net)
        paths = sorted(glob.glob(os.path.join(out_dir, "snapshots", "snapshot_v*.json")))
        if not paths:
            problems.append("no snapshots written")
        for path in paths:
            snap = load_snapshot(path)
            if snap.config_hash != expected:
                problems.append(f"{os.path.basename(path)}: architecture hash mismatch")
            else:
                policy_from_snapshot(snap, self.cfg.net)
        return problems

    def digest(self, out_dir: str) -> str:
        return _file_digest(os.path.join(out_dir, "training_log.jsonl"))


class LeagueDesk:
    """The default desk league, single-threaded, no replays."""

    name = "league_desk"
    first_game = (evaluation, "play_match")
    # The schedule (pairings and match seeds) is fixed so every run plays the
    # same mix of policy kinds, whose step costs differ by up to 2x; a
    # schedule drawn from the run seed can leave out the attention policies
    # entirely. Schedule 24 plays taac vs taac_ablation twice, then ppo vs
    # random. The run seed draws the teams' weights.
    schedule_seed = 24

    def __init__(self, seed: int, size: str):
        s = SIZES[size]
        self.env = EnvConfig(steps_per_game=s["league_steps"])
        self.net = TaacNetConfig()
        self.league = LeagueSettings(n_games=s["league_games"], threads=1,
                                     save_replays=False).validate()
        self.games = self.league.n_games
        # policy construction: the teams are built once and only read by matches
        self.teams = []
        for kind in self.league.kinds:
            for copy in range(self.league.teams_per_kind):
                rng = np.random.default_rng(np.random.SeedSequence([seed, 4, len(self.teams)]))
                self.teams.append((f"{kind}-{copy}", build_policy(kind, self.net, rng)))

    def sizes(self) -> dict:
        return {"games_per_call": self.games, "steps_per_game": self.env.steps_per_game,
                "teams": len(self.teams), "net": dataclasses.asdict(self.net)}

    def call(self, out_dir: str) -> None:
        evaluation.run_league(self.teams, self.env, self.league, self.schedule_seed, out_dir)

    def check(self, out_dir: str) -> list[str]:
        with open(os.path.join(out_dir, "league_report.json")) as fh:
            report = json.load(fh)
        problems = []
        elo_sum = sum(report["elo_final"].values())
        if elo_sum != len(self.teams) * self.league.elo_initial:
            problems.append(f"Elo ratings sum to {elo_sum!r}, not teams x initial")
        decided = sum(map(sum, report["win_matrix"]))
        tied = sum(map(sum, report["tie_matrix"])) // 2
        if decided + tied != self.games:
            problems.append(f"{decided} wins + {tied} ties != {self.games} games")
        for name, collab in report["collaboration"].items():
            conn = collab["connectivity"]["mean"]
            if conn is not None and not 0.0 <= conn <= 1.0:
                problems.append(f"{name}: connectivity {conn} outside [0, 1]")
        return problems

    def digest(self, out_dir: str) -> str:
        return _file_digest(os.path.join(out_dir, "league_report.json"))


WORKLOADS = {w.name: w for w in (TrainTaac, LeagueDesk, SelfplayPpo)}
