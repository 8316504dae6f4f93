"""The game loop, match play, Elo ratings, and collaboration metrics.

``play_game`` is the one game loop (observe -> act -> step, respawning after
goals) for training and match play alike; it returns a ``GameRecord`` of
arrays, and ``baselines.joint_act`` alone decides how each step's actions are
drawn. ``play_match`` and ``learner.play_training_game`` are two views of it.
Matches are deterministic given (policies, seed). ``play_fixtures`` is the one
match driver, yielding records in fixture order: the league runner plays its
uniformly random pairings through it (optionally on a thread pool over
immutable policies), applies Elo updates serially in schedule order and writes
each replay as it arrives, and ``head_to_head`` plays its side-swapped games.
"""

from __future__ import annotations

import csv
import io
import itertools
import json
import math
import os
from concurrent.futures import ThreadPoolExecutor
from dataclasses import dataclass
from typing import Iterator, Optional, Sequence

import numpy as np

from .baselines import joint_act
from .env import (N_PLAYERS, OBS_WIDTH, STATE_WIDTH, TEAM_SIZE, EnvConfig, WorldState, frame_dict,
                  observe_team, reset, respawn, rowdot, step, team_players)
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
    """Both teams' collaboration metrics at each step of a game, as (2, T) arrays,
    keyed and ordered as ``METRIC_COLUMNS``.

    ``positions`` is the (T, 6, 2) player trajectory; ``touches`` and
    ``episode_done`` are each step's (player, team) ball touches and
    episode-end flag. A float metric is a per-step value, which a game
    averages; an integer metric is a running count, whose last value is the
    game's. Possession swaps count from the first step, and the possession
    chain does not bridge the respawn after an episode ends.
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


# each collaboration metric and the prefix of its columns in matches.csv and replay CSVs
METRIC_COLUMNS = {"pairwise_distance": "pairdist", "connectivity": "conn", "possession_swaps": "swaps"}


def metric_cell(value):
    """A metric's CSV cell: an integer as is, a float to 6 decimal places."""
    return f"{value:.6f}" if isinstance(value, float) else int(value)


def csv_text(rows: Sequence[dict]) -> str:
    """CSV text of ``rows``, with the first row's keys as the header."""
    table = io.StringIO()
    writer = csv.DictWriter(table, fieldnames=list(rows[0]))
    writer.writeheader()
    writer.writerows(rows)
    return table.getvalue()


# ---------------------------------------------------------------------------
# the game loop


class _StateTrail:
    """Every state a game passes through, in order, in per-game arrays: each
    episode's opening state, then the state after each of its steps."""

    def __init__(self, rows: int):
        self.packed = np.empty((rows, STATE_WIDTH))
        self.kicking = np.empty((rows, N_PLAYERS), dtype=bool)
        self.scores = np.empty((rows, 2), dtype=np.int64)
        self.rows = 0

    def add(self, s: WorldState) -> int:
        """Append ``s``; returns its row."""
        k = self.rows
        self.packed[k], self.kicking[k], self.scores[k] = s.packed, s.kicking, s.scores
        self.rows += 1
        return k

    def take(self, rows, t: int = 0, episode: int = 0) -> WorldState:
        """The states at ``rows``, stacked along a leading axis; for one row, views of it."""
        return WorldState.of(self.packed[rows], self.kicking[rows], self.scores[rows], t, episode)


@dataclass
class GameRecord:
    """One game as arrays. Step t takes the joint ``actions[t]`` from trail row
    ``after[t] - 1`` to trail row ``after[t]`` and raises ``events[t]``."""

    trail: _StateTrail
    obs0: np.ndarray     # (trail rows, TEAM_SIZE, OBS_WIDTH): team 0's observation of each row
    actions: np.ndarray  # (T, 6) joint action ids, team 0 first
    after: np.ndarray    # (T,) trail row after each step
    events: list         # T StepEvents

    @property
    def scores(self) -> np.ndarray:
        return self.trail.scores[self.after[-1]]


def play_game(team0, team1, cfg: EnvConfig, spawn_mode: str, env_rng: np.random.Generator,
              rng0: np.random.Generator, rng1: np.random.Generator) -> GameRecord:
    """Play one full game and record it. ``env_rng`` draws the spawns, ``rng0``
    and ``rng1`` the teams' actions (training passes one generator three
    times). Team 0 is observed once per state, team 1 once per step. How a step's
    actions are drawn is ``baselines.joint_act``'s to decide."""
    T = cfg.steps_per_game
    act = joint_act(team0, team1)
    trail = _StateTrail(2 * T)  # each episode has at least one step
    obs0 = np.empty((2 * T, TEAM_SIZE, OBS_WIDTH))
    actions = np.empty((T, N_PLAYERS), dtype=np.int64)
    after = np.empty(T, dtype=np.int64)
    events = []
    state = reset(cfg, spawn_mode, env_rng)
    row = trail.add(state)
    obs0[row] = observe_team(state, 0, cfg)
    while True:
        t = state.t
        a0, a1 = act(obs0[row], observe_team(state, 1, cfg), rng0, rng1)
        state, ev = step(state, np.concatenate([a0, a1], out=actions[t]), cfg)
        events.append(ev)
        row = after[t] = trail.add(state)
        obs0[row] = observe_team(state, 0, cfg)
        if ev.episode_done:
            if ev.game_done:
                return GameRecord(trail, obs0[:trail.rows], actions, after, events)
            state = respawn(state, cfg, spawn_mode, env_rng)
            row = trail.add(state)
            obs0[row] = observe_team(state, 0, cfg)


# ---------------------------------------------------------------------------
# match play


@dataclass
class MatchRecord:
    team_a: str
    team_b: str
    score: tuple[int, int]
    episode_lengths: list
    metrics: dict  # per-team collaboration aggregates
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


def _replay_frames(game: GameRecord) -> list[dict]:
    """One ``frame_dict`` per step, of the state after it."""
    episodes = np.cumsum([0] + [ev.episode_done for ev in game.events[:-1]]).tolist()
    return [frame_dict(game.trail.take(row, t + 1, episode), ev)
            for t, (row, episode, ev) in enumerate(zip(game.after, episodes, game.events))]


def play_match(team_a, team_b, cfg: EnvConfig, seed: int,
               spawn_mode: str = "fixed_formation",
               record_frames: bool = True,
               conn_d_min: float = 5.0, conn_d_max: float = 40.0,
               name_a: str = "a", name_b: str = "b") -> MatchRecord:
    """One full deterministic game between two team policies."""
    game = play_game(team_a, team_b, cfg, spawn_mode,
                     *(np.random.default_rng(s) for s in np.random.SeedSequence(seed).spawn(3)))
    episode_done = [ev.episode_done for ev in game.events]
    per_step = match_metrics(game.trail.take(game.after).player_pos, [ev.ball_touches for ev in game.events],
                             episode_done, cfg.player_radius, conn_d_min, conn_d_max)
    metrics = {str(team): {metric: float(np.mean(v[team])) if v.dtype.kind == "f" else int(v[team, -1])
                           for metric, v in per_step.items()} for team in range(2)}
    return MatchRecord(team_a=name_a, team_b=name_b, score=tuple(game.scores.tolist()),
                       episode_lengths=np.diff(np.flatnonzero(episode_done) + 1, prepend=0).tolist(),
                       metrics=metrics, frames=_replay_frames(game) if record_frames else None)


def write_replay(frames: Sequence[dict], path: str) -> None:
    write_text_atomic(path, "".join(json.dumps(frame) + "\n" for frame in frames))


def read_replay(path: str) -> list[dict]:
    with open(path) as fh:
        return [json.loads(line) for line in fh if line.strip()]


# ---------------------------------------------------------------------------
# league


def play_fixtures(fixtures: Sequence, seeds: Sequence[int], env_cfg: EnvConfig,
                  threads: int = 1, **match_kw) -> Iterator[MatchRecord]:
    """Play each ``((name_a, policy_a), (name_b, policy_b))`` fixture with its seed, one
    game per record asked for, and yield the records in fixture order. ``threads > 1``
    plays them on a thread pool, which only reads the policies and runs ahead of the
    caller; ``match_kw`` are passed to ``play_match``."""

    def run_one(g: int) -> MatchRecord:
        (name_a, team_a), (name_b, team_b) = fixtures[g]
        return play_match(team_a, team_b, env_cfg, int(seeds[g]),
                          name_a=name_a, name_b=name_b, **match_kw)

    if threads > 1:
        with ThreadPoolExecutor(max_workers=threads) as pool:
            yield from pool.map(run_one, range(len(fixtures)))
    else:
        yield from map(run_one, range(len(fixtures)))


def run_league(teams: Sequence[tuple[str, object]], env_cfg: EnvConfig, league_cfg,
               seed: int, out_dir: Optional[str] = None) -> dict:
    """Round of uniformly random pairings with Elo scoring and collab metrics.

    ``teams`` holds (name, policy) pairs. Writes league_report.json and matches.csv
    under ``out_dir``, and with replays enabled each game's replay once it is played
    (``threads > 1`` plays ahead of the writer, holding the frames of games not written).
    """
    names = [name for name, _ in teams]
    if len(names) != len(set(names)):
        raise ValueError("team names must be unique")
    if len(teams) < 2:
        raise ValueError("league needs at least 2 teams")

    n_games = league_cfg.n_games
    schedule_rng = np.random.default_rng(np.random.SeedSequence([seed, 2]))
    schedule = np.array([schedule_rng.choice(len(teams), size=2, replace=False)
                         for _ in range(n_games)])  # (G, 2) team indices: first-listed, second
    match_seeds = schedule_rng.integers(0, 2**62, size=n_games)

    save_replays = bool(league_cfg.save_replays and out_dir)
    if save_replays:
        os.makedirs(os.path.join(out_dir, "replays"), exist_ok=True)
    ratings = dict.fromkeys(names, league_cfg.elo_initial)
    trajectories: dict[str, list] = {name: [] for name in names}
    collab = {name: {metric: [] for metric in METRIC_COLUMNS} for name in names}
    rows = []
    records = play_fixtures([(teams[i], teams[j]) for i, j in schedule], match_seeds, env_cfg,
                            threads=league_cfg.threads, spawn_mode=league_cfg.spawn_mode,
                            record_frames=save_replays, conn_d_min=league_cfg.conn_d_min,
                            conn_d_max=league_cfg.conn_d_max)
    for g, rec in enumerate(records):  # each game's frames are written and dropped before the next
        new = elo_update(ratings[rec.team_a], ratings[rec.team_b], rec.outcome, league_cfg.elo_k)
        for team, name, rating in zip("01", (rec.team_a, rec.team_b), new):
            ratings[name] = rating
            trajectories[name].append([g, rating])
            for metric, value in rec.metrics[team].items():
                collab[name][metric].append(value)
        replay_path = ""  # relative to out_dir, so the bundle can move
        if save_replays:
            replay_path = f"replays/game_{g:05d}.jsonl"
            write_replay(rec.frames, os.path.join(out_dir, replay_path))
        rows.append({
            "game": g, "team_a": rec.team_a, "team_b": rec.team_b,
            "score_a": rec.score[0], "score_b": rec.score[1],
            "outcome": rec.outcome, "goal_diff": rec.goal_diff,
            **{f"{prefix}_{side}": metric_cell(rec.metrics[team][metric])
               for metric, prefix in METRIC_COLUMNS.items() for team, side in zip("01", "ab")},
            "replay": replay_path,
        })
    diff = np.array([row["goal_diff"] for row in rows])  # (G,) from the first-listed team's side

    def tally(games: np.ndarray, weights=1) -> np.ndarray:
        """(n, n) sums of ``weights`` at each game's (first, second) team indices."""
        out = np.zeros((len(teams), len(teams)), dtype=np.asarray(weights).dtype)
        np.add.at(out, tuple(games.T), weights)
        return out

    first_won, second_won, tied = (tally(schedule[games]) for games in (diff > 0, diff < 0, diff == 0))
    pair_games = tally(schedule)
    pair_games += pair_games.T
    diff_sum = tally(schedule, diff.astype(np.float64))  # sums of integers: the same bits in any order
    diff_matrix = np.where(pair_games > 0, (diff_sum - diff_sum.T) / np.maximum(pair_games, 1), 0.0)

    report = {
        "teams": names,
        "n_games": n_games,
        "seed": seed,
        "elo_k": league_cfg.elo_k,
        "elo_initial": league_cfg.elo_initial,
        "elo_final": ratings,
        "elo_trajectories": trajectories,
        "win_matrix": (first_won + second_won.T).tolist(),
        "tie_matrix": (tied + tied.T).tolist(),
        "goal_diff_matrix": diff_matrix.tolist(),
        # game outcomes from the first-listed team's perspective
        "outcome_totals": {"wins": int(first_won.sum()), "losses": int(second_won.sum()),
                           "ties": int(tied.sum())},
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
        write_text_atomic(os.path.join(out_dir, "matches.csv"), csv_text(rows))
    return report


def head_to_head(policy_a, policy_b, env_cfg: EnvConfig, games: int, seed: int,
                 spawn_mode: str = "fixed_formation") -> dict:
    """Fixed number of matches between two policies; sides swap every game."""
    if games < 1:
        raise ValueError(f"games must be >= 1, got {games}")
    seeds = np.random.SeedSequence([seed, 3]).generate_state(games, dtype=np.uint64) % (2**62)
    sides = (("a", policy_a), ("b", policy_b))
    records = list(play_fixtures([sides[::-1] if g % 2 else sides for g in range(games)], seeds, env_cfg,
                                 spawn_mode=spawn_mode, record_frames=False))
    scores = [rec.score[::-1] if rec.team_a == "b" else rec.score for rec in records]
    goals_a, goals_b = map(sum, zip(*scores))
    return {
        "games": games,
        "seed": seed,
        "wins_a": sum(a > b for a, b in scores),
        "wins_b": sum(b > a for a, b in scores),
        "ties": sum(a == b for a, b in scores),
        "goals_a": goals_a,
        "goals_b": goals_b,
        "mean_goal_diff": (goals_a - goals_b) / games,
        "per_game": [{"game": g, "score_a": a, "score_b": b, "swapped_sides": rec.team_a == "b"}
                     for g, (rec, (a, b)) in enumerate(zip(records, scores))],
    }
