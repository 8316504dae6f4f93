"""Match play, Elo ratings, and collaboration metrics for league evaluation.

A match is one full game of ``steps_per_game`` steps with episode respawns
after goals. Matches are deterministic given (policies, seed). The league
runner draws uniformly random pairings, plays them (optionally on a thread
pool over immutable policies), and applies Elo updates serially in schedule
order so results are reproducible.
"""

from __future__ import annotations

import csv
import io
import itertools
import json
import math
import os
from concurrent.futures import ThreadPoolExecutor
from dataclasses import dataclass, field
from typing import Optional, Sequence

import numpy as np

from .env import (
    EnvConfig,
    frame_dict,
    observe_team,
    reset,
    respawn,
    rowdot,
    step,
    team_players,
)
from .nets import write_text_atomic

# ---------------------------------------------------------------------------
# Elo


def elo_update(r_a: float, r_b: float, outcome: str, k: float = 32.0) -> tuple[float, float]:
    """Standard two-player Elo update; outcomes are win_a, win_b, or tie.

    One shared delta is applied with opposite signs, and it is quantized to
    a 2^-20 grid so that both additions are exact for ratings below 4096:
    the rating sum is conserved bit-exactly, with no ulp drift over a league.
    """
    scores = {"win_a": 1.0, "win_b": 0.0, "tie": 0.5}
    if outcome not in scores:
        raise ValueError(f"outcome must be one of {sorted(scores)}, got {outcome!r}")
    expected_a = 1.0 / (1.0 + 10.0 ** ((r_b - r_a) / 400.0))
    delta = math.ldexp(round(math.ldexp(k * (scores[outcome] - expected_a), 20)), -20)
    return r_a + delta, r_b - delta


@dataclass
class EloTable:
    k: float = 32.0
    initial: float = 1200.0
    ratings: dict = field(default_factory=dict)

    def rating(self, name: str) -> float:
        return self.ratings.get(name, self.initial)

    def record(self, name_a: str, name_b: str, outcome: str) -> tuple[float, float]:
        r_a, r_b = elo_update(self.rating(name_a), self.rating(name_b), outcome, self.k)
        self.ratings[name_a] = r_a
        self.ratings[name_b] = r_b
        return r_a, r_b


# ---------------------------------------------------------------------------
# collaboration metrics


def _pairs(items) -> np.ndarray:
    """(first, second) index arrays of all unordered pairs, in loop order (np.triu_indices is slow)."""
    return np.array(list(itertools.combinations(items, 2))).T


def mean_pairwise_distance(points: np.ndarray) -> float:
    """Mean Euclidean distance over all unordered point pairs; per step for a (T, n, 2) stack."""
    points = np.asarray(points, dtype=np.float64)
    n = points.shape[-2]
    if n < 2:
        raise ValueError(f"need at least 2 points, got {n}")
    i, j = _pairs(range(n))
    d = points[..., i, :] - points[..., j, :]
    dists = np.sqrt(rowdot(d, d))
    mean = dists.sum(axis=-1) / dists.shape[-1]
    return mean if mean.ndim else float(mean)


def connectivity_from_positions(team_idx: Sequence[int], positions: np.ndarray,
                                player_radius: float, d_min: float, d_max: float) -> float:
    """Fraction of teammate pairs joined by an unobstructed segment within [d_min, d_max].

    A pair connects when the segment between their centers stays clear of
    every other player's circle (either team) and the distance lies in band.
    ``positions`` is one step's (6, 2) array or a (T, 6, 2) trajectory, which
    gives the fraction per step.
    """
    n = len(team_idx)
    if n < 2:
        raise ValueError(f"connectivity needs at least 2 teammates, got {n}")
    i, j = _pairs(team_idx)
    a = positions[..., i, :]
    ab = positions[..., j, :] - a
    denom = rowdot(ab, ab)
    dist = np.sqrt(denom)
    in_band = (d_min <= dist) & (dist <= d_max)

    # distance from each pair's segment (axis -3) to every player (axis -2)
    players = positions[..., None, :, :]
    ac = players - a[..., None, :]
    point = denom < 1e-18  # coincident pair: distance to the point
    t = rowdot(ac, ab[..., None, :]) / np.where(point, 1.0, denom)[..., None]
    off = players - (a[..., None, :] + np.minimum(1.0, np.maximum(0.0, t))[..., None] * ab[..., None, :])
    off[point] = ac[point]
    others = np.arange(positions.shape[-2])
    near = (np.sqrt(rowdot(off, off)) < player_radius) & (others != i[:, None]) & (others != j[:, None])
    fraction = np.count_nonzero(in_band & ~near.any(axis=-1), axis=-1) / (n * (n - 1) / 2)
    return fraction if fraction.ndim else float(fraction)


def count_possession_swaps(touches: Sequence[tuple[int, int]], team: int) -> int:
    """Within-team possession changes over an ordered (player, team) touch list.

    The possessor is the last player to touch the ball; a swap counts when
    possession moves directly between two distinct members of ``team``. Any
    opponent touch in between breaks the chain.
    """
    swaps = 0
    possessor: Optional[tuple[int, int]] = None
    for player, player_team in touches:
        if (possessor is not None and player_team == team
                and possessor[1] == team and possessor[0] != player):
            swaps += 1
        possessor = (player, player_team)
    return swaps


def match_metrics(positions: np.ndarray, touches: Sequence[Sequence], episode_done: Sequence[bool],
                  player_radius: float, d_min: float, d_max: float) -> dict[str, np.ndarray]:
    """Both teams' collaboration metrics at each step of a game, as (2, T) arrays.

    ``positions`` is the (T, 6, 2) player trajectory; ``touches`` and
    ``episode_done`` are each step's (player, team) ball touches and
    episode-end flag. Possession swaps count from the first step, and the
    possession chain does not bridge the respawn after an episode ends.
    """
    gained = []
    head: list = []  # the episode's latest touch: who holds the ball
    for step_touches, done in zip(touches, episode_done):
        chain = head + list(step_touches)
        gained.append([count_possession_swaps(chain, team) for team in range(2)])
        head = [] if done else chain[-1:]
    teams = [list(team_players(team)) for team in range(2)]
    return {
        "pairwise_distance": np.stack([mean_pairwise_distance(positions[:, idx]) for idx in teams]),
        "connectivity": np.stack([connectivity_from_positions(idx, positions, player_radius, d_min, d_max)
                                  for idx in teams]),
        "possession_swaps": np.cumsum(gained, axis=0).T,
    }


# ---------------------------------------------------------------------------
# match play


@dataclass
class MatchRecord:
    team_a: str
    team_b: str
    score: tuple[int, int]
    goals: list  # (step, scoring team) pairs
    episode_lengths: list
    metrics: dict  # per-team collaboration aggregates
    seed: int
    frames: Optional[list] = None

    @property
    def outcome(self) -> str:
        if self.score[0] > self.score[1]:
            return "win_a"
        if self.score[1] > self.score[0]:
            return "win_b"
        return "tie"

    @property
    def goal_diff(self) -> int:
        return self.score[0] - self.score[1]


def play_match(team_a, team_b, cfg: EnvConfig, seed: int,
               spawn_mode: str = "fixed_formation",
               record_frames: bool = True,
               conn_d_min: float = 5.0, conn_d_max: float = 40.0,
               name_a: str = "a", name_b: str = "b") -> MatchRecord:
    """One full deterministic game between two team policies."""
    env_rng, rng_a, rng_b = (np.random.default_rng(s)
                             for s in np.random.SeedSequence(seed).spawn(3))
    state = reset(cfg, spawn_mode, env_rng)
    frames: list[dict] = []
    positions = np.empty((cfg.steps_per_game, *state.player_pos.shape))
    touches: list[list] = []
    episode_done: list[bool] = []
    goals: list[tuple[int, int]] = []
    episode_lengths: list[int] = []
    episode_start = 0

    while True:
        obs0 = observe_team(state, 0, cfg)
        obs1 = observe_team(state, 1, cfg)
        a0 = team_a.act(obs0, rng_a)
        a1 = team_b.act(obs1, rng_b)
        state, ev = step(state, np.concatenate([a0, a1]), cfg)
        if record_frames:
            frames.append(frame_dict(state, ev))
        positions[state.t - 1] = state.player_pos
        touches.append(ev.ball_touches)
        episode_done.append(ev.episode_done)
        if ev.goal_scored is not None:
            goals.append((state.t, ev.goal_scored))
        if ev.episode_done:
            episode_lengths.append(state.t - episode_start)
            episode_start = state.t
            if ev.game_done:
                break
            state = respawn(state, cfg, spawn_mode, env_rng)

    per_step = match_metrics(positions, touches, episode_done, cfg.player_radius, conn_d_min, conn_d_max)
    metrics = {
        str(team): {
            "pairwise_distance": float(np.mean(per_step["pairwise_distance"][team])),
            "connectivity": float(np.mean(per_step["connectivity"][team])),
            "possession_swaps": int(per_step["possession_swaps"][team, -1]),
        }
        for team in range(2)
    }
    return MatchRecord(
        team_a=name_a, team_b=name_b,
        score=(int(state.scores[0]), int(state.scores[1])),
        goals=goals, episode_lengths=episode_lengths,
        metrics=metrics, seed=seed,
        frames=frames if record_frames else None,
    )


def write_replay(frames: Sequence[dict], path: str) -> None:
    with open(path, "w") as fh:
        for frame in frames:
            fh.write(json.dumps(frame) + "\n")


def read_replay(path: str) -> list[dict]:
    with open(path) as fh:
        return [json.loads(line) for line in fh if line.strip()]


# ---------------------------------------------------------------------------
# league


def run_league(teams: Sequence[tuple[str, object]], env_cfg: EnvConfig, league_cfg,
               seed: int, out_dir: Optional[str] = None) -> dict:
    """Round of uniformly random pairings with Elo scoring and collab metrics.

    ``teams`` holds (name, policy) pairs. Writes league_report.json and
    matches.csv (and per-game replays when enabled) under ``out_dir``.
    """
    names = [name for name, _ in teams]
    if len(names) != len(set(names)):
        raise ValueError("team names must be unique")
    if len(teams) < 2:
        raise ValueError("league needs at least 2 teams")

    n_games = league_cfg.n_games
    schedule_rng = np.random.default_rng(np.random.SeedSequence([seed, 2]))
    schedule = [tuple(schedule_rng.choice(len(teams), size=2, replace=False))
                for _ in range(n_games)]
    match_seeds = schedule_rng.integers(0, 2**62, size=n_games)

    save_replays = bool(league_cfg.save_replays and out_dir)
    replay_dir = os.path.join(out_dir, "replays") if save_replays else None
    if replay_dir:
        os.makedirs(replay_dir, exist_ok=True)

    def run_one(g: int) -> MatchRecord:
        i, j = schedule[g]
        return play_match(
            teams[i][1], teams[j][1], env_cfg, int(match_seeds[g]),
            spawn_mode=league_cfg.spawn_mode, record_frames=save_replays,
            conn_d_min=league_cfg.conn_d_min, conn_d_max=league_cfg.conn_d_max,
            name_a=names[i], name_b=names[j],
        )

    if league_cfg.threads > 1:
        with ThreadPoolExecutor(max_workers=league_cfg.threads) as pool:
            records = list(pool.map(run_one, range(n_games)))
    else:
        records = [run_one(g) for g in range(n_games)]

    table = EloTable(k=league_cfg.elo_k, initial=league_cfg.elo_initial)
    trajectories: dict[str, list] = {name: [] for name in names}
    n = len(teams)
    wins = np.zeros((n, n), dtype=np.int64)
    ties = np.zeros((n, n), dtype=np.int64)
    pair_games = np.zeros((n, n), dtype=np.int64)
    diff_sum = np.zeros((n, n), dtype=np.float64)
    collab: dict[str, dict] = {name: {"pairwise_distance": [], "connectivity": [],
                                      "possession_swaps": []} for name in names}
    rows = []
    # game outcomes from the first-listed team's perspective
    totals = {"wins": 0, "losses": 0, "ties": 0}

    for g, rec in enumerate(records):
        i, j = schedule[g]
        r_a, r_b = table.record(rec.team_a, rec.team_b, rec.outcome)
        trajectories[rec.team_a].append([g, r_a])
        trajectories[rec.team_b].append([g, r_b])
        if rec.outcome == "win_a":
            wins[i, j] += 1
            totals["wins"] += 1
        elif rec.outcome == "win_b":
            wins[j, i] += 1
            totals["losses"] += 1
        else:
            ties[i, j] += 1
            ties[j, i] += 1
            totals["ties"] += 1
        pair_games[i, j] += 1
        pair_games[j, i] += 1
        diff_sum[i, j] += rec.goal_diff
        diff_sum[j, i] -= rec.goal_diff
        for team, name in ((0, rec.team_a), (1, rec.team_b)):
            m = rec.metrics[str(team)]
            collab[name]["pairwise_distance"].append(m["pairwise_distance"])
            collab[name]["connectivity"].append(m["connectivity"])
            collab[name]["possession_swaps"].append(m["possession_swaps"])
        replay_path = ""
        if save_replays:
            replay_path = os.path.join(replay_dir, f"game_{g:05d}.jsonl")
            write_replay(rec.frames, replay_path)
        m_a, m_b = rec.metrics["0"], rec.metrics["1"]
        rows.append({
            "game": g, "team_a": rec.team_a, "team_b": rec.team_b,
            "score_a": rec.score[0], "score_b": rec.score[1],
            "outcome": rec.outcome, "goal_diff": rec.goal_diff,
            "pairdist_a": f"{m_a['pairwise_distance']:.6f}",
            "pairdist_b": f"{m_b['pairwise_distance']:.6f}",
            "conn_a": f"{m_a['connectivity']:.6f}",
            "conn_b": f"{m_b['connectivity']:.6f}",
            "swaps_a": m_a["possession_swaps"], "swaps_b": m_b["possession_swaps"],
            "replay": replay_path,
        })

    diff_matrix = np.where(pair_games > 0, diff_sum / np.maximum(pair_games, 1), 0.0)

    report = {
        "teams": names,
        "n_games": n_games,
        "seed": seed,
        "elo_k": league_cfg.elo_k,
        "elo_initial": league_cfg.elo_initial,
        "elo_final": {name: table.rating(name) for name in names},
        "elo_trajectories": trajectories,
        "win_matrix": wins.tolist(),
        "tie_matrix": ties.tolist(),
        "goal_diff_matrix": diff_matrix.tolist(),
        "outcome_totals": totals,
        "collaboration": {
            name: {
                metric: ({"mean": float(np.mean(vals)), "std": float(np.std(vals))}
                         if vals else {"mean": None, "std": None})
                for metric, vals in metrics.items()
            }
            for name, metrics in collab.items()
        },
    }

    if out_dir:
        os.makedirs(out_dir, exist_ok=True)
        write_text_atomic(os.path.join(out_dir, "league_report.json"),
                          json.dumps(report, indent=2, sort_keys=True) + "\n")
        table_csv = io.StringIO()
        writer = csv.DictWriter(table_csv, fieldnames=list(rows[0].keys()))
        writer.writeheader()
        writer.writerows(rows)
        write_text_atomic(os.path.join(out_dir, "matches.csv"), table_csv.getvalue())
    return report


def head_to_head(policy_a, policy_b, env_cfg: EnvConfig, games: int, seed: int,
                 spawn_mode: str = "fixed_formation") -> dict:
    """Fixed number of matches between two policies; sides swap every game."""
    if games < 1:
        raise ValueError(f"games must be >= 1, got {games}")
    seeds = np.random.SeedSequence([seed, 3]).generate_state(games, dtype=np.uint64)
    results = []
    wins_a = wins_b = tie_count = 0
    goals_a = goals_b = 0
    for g in range(games):
        swap = g % 2 == 1
        first, second = (policy_b, policy_a) if swap else (policy_a, policy_b)
        rec = play_match(first, second, env_cfg, int(seeds[g] % (2**62)),
                         spawn_mode=spawn_mode, record_frames=False)
        score_a, score_b = (rec.score[1], rec.score[0]) if swap else rec.score
        goals_a += score_a
        goals_b += score_b
        if score_a > score_b:
            wins_a += 1
        elif score_b > score_a:
            wins_b += 1
        else:
            tie_count += 1
        results.append({"game": g, "score_a": score_a, "score_b": score_b,
                        "swapped_sides": swap})
    return {
        "games": games,
        "seed": seed,
        "wins_a": wins_a,
        "wins_b": wins_b,
        "ties": tie_count,
        "goals_a": goals_a,
        "goals_b": goals_b,
        "mean_goal_diff": (goals_a - goals_b) / games,
        "per_game": results,
    }
