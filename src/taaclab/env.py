"""Deterministic 2D soccer simulation: 3v3 solid circles on a walled pitch.

Coordinates: x runs along the pitch length (east-west), y along the width
(north-south). Team 0 players are indices 0-2 and defend the west goal at
x=0; team 1 players are indices 3-5 and defend the east goal. "Forward"
for the action space is +y (north).

Step update order (fixed for determinism): apply movement, separate
overlapping players, resolve kicks and ball contact, integrate the ball
(damping then position), resolve wall and goal-box collisions, then
compute rewards from the before/after states.
"""

from __future__ import annotations

from dataclasses import dataclass, field
from typing import Optional

import numpy as np

N_ACTIONS = 18
TEAM_SIZE = 3
N_PLAYERS = 2 * TEAM_SIZE

# movement index m in [0, 9): dx = m % 3 - 1, dy = m // 3 - 1
_MOVES = [(m % 3 - 1, m // 3 - 1) for m in range(9)]
NOOP_ACTION = 4  # (0, 0) without kick

SPAWN_MODES = ("random_spawns", "fixed_formation")


@dataclass(frozen=True)
class EnvConfig:
    pitch_length: float = 100.0
    pitch_width: float = 60.0
    player_radius: float = 1.5
    ball_radius: float = 1.0
    player_speed: float = 1.0
    kick_impulse: float = 3.0
    wall_restitution: float = 0.9
    ball_damping: float = 0.99
    goal_width: float = 20.0
    goal_depth: float = 3.0
    steps_per_game: int = 2000
    theta_exp: float = 0.01
    theta_ball: float = 0.05
    theta_dist: float = 0.001
    theta_max: float = 20.0
    goal_reward: float = 10.0
    seed: int = 0

    def validate(self) -> "EnvConfig":
        positives = (
            "pitch_length", "pitch_width", "player_radius", "ball_radius",
            "player_speed", "kick_impulse", "goal_width", "goal_depth",
        )
        for name in positives:
            if getattr(self, name) <= 0:
                raise ValueError(f"{name} must be positive, got {getattr(self, name)}")
        if self.goal_width >= self.pitch_width:
            raise ValueError(f"goal_width {self.goal_width} must be smaller than pitch_width {self.pitch_width}")
        for name in ("wall_restitution", "ball_damping"):
            v = getattr(self, name)
            if not 0.0 < v <= 1.0:
                raise ValueError(f"{name} must lie in (0, 1], got {v}")
        if self.steps_per_game < 1:
            raise ValueError(f"steps_per_game must be >= 1, got {self.steps_per_game}")
        return self


@dataclass
class WorldState:
    player_pos: np.ndarray  # (6, 2)
    player_vel: np.ndarray  # (6, 2)
    kicking: np.ndarray     # (6,) bool
    ball_pos: np.ndarray    # (2,)
    ball_vel: np.ndarray    # (2,)
    scores: np.ndarray      # (2,) int
    t: int = 0
    episode: int = 0

    def copy(self) -> "WorldState":
        return WorldState(
            player_pos=self.player_pos.copy(),
            player_vel=self.player_vel.copy(),
            kicking=self.kicking.copy(),
            ball_pos=self.ball_pos.copy(),
            ball_vel=self.ball_vel.copy(),
            scores=self.scores.copy(),
            t=self.t,
            episode=self.episode,
        )


@dataclass
class StepEvents:
    goal_scored: Optional[int] = None
    ball_touches: list = field(default_factory=list)  # (player, team) pairs
    episode_done: bool = False
    game_done: bool = False


class GameOverError(RuntimeError):
    """Raised when stepping a game whose step budget is exhausted."""


def team_of(player: int) -> int:
    return player // TEAM_SIZE


def team_players(team: int) -> range:
    return range(team * TEAM_SIZE, (team + 1) * TEAM_SIZE)


def own_goal_center(team: int, cfg: EnvConfig) -> np.ndarray:
    x = 0.0 if team == 0 else cfg.pitch_length
    return np.array([x, cfg.pitch_width / 2.0])


def opponent_goal_center(team: int, cfg: EnvConfig) -> np.ndarray:
    return own_goal_center(1 - team, cfg)


# ---------------------------------------------------------------------------
# actions


def decode_action(action: int) -> tuple[np.ndarray, bool]:
    """Map an id in [0, 18) to (move vector with components in {-1,0,1}, kick)."""
    if not 0 <= action < N_ACTIONS:
        raise ValueError(f"action id {action} out of range [0, {N_ACTIONS})")
    dx, dy = _MOVES[action % 9]
    return np.array([float(dx), float(dy)]), action >= 9


def encode_action(move: tuple[int, int], kick: bool) -> int:
    dx, dy = int(move[0]), int(move[1])
    if dx not in (-1, 0, 1) or dy not in (-1, 0, 1):
        raise ValueError(f"move components must be in {{-1,0,1}}, got {(dx, dy)}")
    return (dx + 1) + 3 * (dy + 1) + (9 if kick else 0)


# ---------------------------------------------------------------------------
# observations

OBS_WIDTH = 2 * (TEAM_SIZE - 1) + 2 * TEAM_SIZE + 2 + 2 + 2 + 2 + 4  # 22 for 3v3


def observe(state: WorldState, player: int, cfg: EnvConfig) -> np.ndarray:
    """Egocentric observation: relative teammate/opponent/ball/goal vectors,
    ball velocity, and N/E/W/S raycast distances to the boundary."""
    if not 0 <= player < N_PLAYERS:
        raise ValueError(f"player id {player} out of range")
    p = state.player_pos[player]
    team = team_of(player)
    parts = []
    for j in team_players(team):
        if j != player:
            parts.append(state.player_pos[j] - p)
    for j in team_players(1 - team):
        parts.append(state.player_pos[j] - p)
    parts.append(state.ball_pos - p)
    parts.append(state.ball_vel.copy())
    parts.append(opponent_goal_center(team, cfg) - p)
    parts.append(own_goal_center(team, cfg) - p)
    rays = np.array([cfg.pitch_width - p[1], cfg.pitch_length - p[0], p[0], p[1]])  # N, E, W, S
    parts.append(rays)
    return np.concatenate(parts)


def observe_team(state: WorldState, team: int, cfg: EnvConfig) -> np.ndarray:
    return np.stack([observe(state, j, cfg) for j in team_players(team)])


# ---------------------------------------------------------------------------
# spawning


def _sample_positions(cfg: EnvConfig, rng: np.random.Generator) -> tuple[np.ndarray, np.ndarray]:
    """Uniform non-overlapping player and ball positions inside the pitch."""
    rp, rb = cfg.player_radius, cfg.ball_radius
    placed: list[tuple[np.ndarray, float]] = []

    def place(radius: float) -> np.ndarray:
        while True:
            pos = np.array([
                rng.uniform(radius, cfg.pitch_length - radius),
                rng.uniform(radius, cfg.pitch_width - radius),
            ])
            if all(np.linalg.norm(pos - q) > radius + r for q, r in placed):
                placed.append((pos, radius))
                return pos

    players = np.stack([place(rp) for _ in range(N_PLAYERS)])
    ball = place(rb)
    return players, ball


def _fixed_positions(cfg: EnvConfig) -> tuple[np.ndarray, np.ndarray]:
    """Mirrored 1-2 formation: one deep player, two forward of them."""
    L, W = cfg.pitch_length, cfg.pitch_width
    west = np.array([
        [0.15 * L, 0.50 * W],
        [0.35 * L, W / 3.0],
        [0.35 * L, 2.0 * W / 3.0],
    ])
    east = west.copy()
    east[:, 0] = L - east[:, 0]
    players = np.vstack([west, east])
    ball = np.array([L / 2.0, W / 2.0])
    return players, ball


def reset(cfg: EnvConfig, mode: str, rng: Optional[np.random.Generator] = None) -> WorldState:
    """Fresh game state; an inactive opponent is a policy that always no-ops."""
    if mode not in SPAWN_MODES:
        raise ValueError(f"unknown spawn mode {mode!r}, expected one of {SPAWN_MODES}")
    if mode == "random_spawns":
        if rng is None:
            rng = np.random.default_rng(cfg.seed)
        players, ball = _sample_positions(cfg, rng)
    else:
        players, ball = _fixed_positions(cfg)
    return WorldState(
        player_pos=players,
        player_vel=np.zeros((N_PLAYERS, 2)),
        kicking=np.zeros(N_PLAYERS, dtype=bool),
        ball_pos=ball,
        ball_vel=np.zeros(2),
        scores=np.zeros(2, dtype=np.int64),
        t=0,
        episode=0,
    )


def respawn(state: WorldState, cfg: EnvConfig, mode: str,
            rng: Optional[np.random.Generator] = None) -> WorldState:
    """New episode within the same game: fresh positions, kept score and clock."""
    fresh = reset(cfg, mode, rng)
    fresh.scores = state.scores.copy()
    fresh.t = state.t
    fresh.episode = state.episode + 1
    return fresh


# ---------------------------------------------------------------------------
# physics step


def _clamp_players(pos: np.ndarray, cfg: EnvConfig) -> None:
    r = cfg.player_radius
    np.clip(pos[:, 0], r, cfg.pitch_length - r, out=pos[:, 0])
    np.clip(pos[:, 1], r, cfg.pitch_width - r, out=pos[:, 1])


def _separate_players(pos: np.ndarray, cfg: EnvConfig) -> None:
    """Symmetric positional separation of overlapping player circles."""
    min_d = 2.0 * cfg.player_radius
    for _ in range(4):
        moved = False
        for i in range(N_PLAYERS):
            for j in range(i + 1, N_PLAYERS):
                d = pos[j] - pos[i]
                dist = float(np.hypot(d[0], d[1]))
                if dist >= min_d:
                    continue
                normal = d / dist if dist > 1e-12 else np.array([1.0, 0.0])
                push = 0.5 * (min_d - dist)
                pos[i] -= push * normal
                pos[j] += push * normal
                moved = True
        _clamp_players(pos, cfg)
        if not moved:
            break


def _mouth_band(cfg: EnvConfig) -> tuple[float, float]:
    """y-range in which the whole ball fits through a goal mouth."""
    cy = cfg.pitch_width / 2.0
    half = cfg.goal_width / 2.0 - cfg.ball_radius
    return cy - half, cy + half


def _resolve_ball_walls(state: WorldState, cfg: EnvConfig) -> Optional[int]:
    """Reflect the ball off walls/goal boxes; returns the scoring team or None.

    Reflection law: the normal velocity component flips and scales by
    wall_restitution; the tangential component is untouched. The x walls
    open onto goal boxes wherever the whole ball fits through the mouth;
    mouth fit is judged at the crossing, before any y reflection.
    """
    pos, vel = state.ball_pos, state.ball_vel
    r, rest = cfg.ball_radius, cfg.wall_restitution
    L, W, depth = cfg.pitch_length, cfg.pitch_width, cfg.goal_depth
    lo, hi = _mouth_band(cfg)

    goal: Optional[int] = None
    if pos[0] < r:
        if lo <= pos[1] <= hi:
            if pos[0] <= -r:
                goal = 1  # fully behind the west goal line
            back = -depth + r
            if pos[0] < back:
                pos[0] = 2.0 * back - pos[0]
                vel[0] = -rest * vel[0]
        else:
            pos[0] = 2.0 * r - pos[0]
            vel[0] = -rest * vel[0]
    elif pos[0] > L - r:
        if lo <= pos[1] <= hi:
            if pos[0] >= L + r:
                goal = 0
            back = L + depth - r
            if pos[0] > back:
                pos[0] = 2.0 * back - pos[0]
                vel[0] = -rest * vel[0]
        else:
            pos[0] = 2.0 * (L - r) - pos[0]
            vel[0] = -rest * vel[0]

    # y walls: goal-box side walls once behind a goal line, pitch walls otherwise
    if pos[0] < 0.0 or pos[0] > L:
        y_lo, y_hi = lo, hi
    else:
        y_lo, y_hi = r, W - r
    if pos[1] < y_lo:
        pos[1] = 2.0 * y_lo - pos[1]
        vel[1] = -rest * vel[1]
    elif pos[1] > y_hi:
        pos[1] = 2.0 * y_hi - pos[1]
        vel[1] = -rest * vel[1]
    return goal


def step(state: WorldState, actions: np.ndarray, cfg: EnvConfig) -> tuple[WorldState, np.ndarray, StepEvents]:
    """Advance one time step for all six players.

    ``actions`` holds one id per player, team 0 first. Returns the next
    state, the per-player total rewards, and the step events.
    """
    if state.t >= cfg.steps_per_game:
        raise GameOverError(f"game already finished at step {state.t} (limit {cfg.steps_per_game})")
    actions = np.asarray(actions, dtype=np.int64)
    if actions.shape != (N_PLAYERS,):
        raise ValueError(f"expected {N_PLAYERS} action ids, got shape {actions.shape}")

    s = state.copy()
    events = StepEvents()

    # movement
    for i in range(N_PLAYERS):
        move, kick = decode_action(int(actions[i]))
        norm = float(np.hypot(move[0], move[1]))
        vel = cfg.player_speed * move / norm if norm > 0 else np.zeros(2)
        s.player_vel[i] = vel
        s.player_pos[i] += vel
        s.kicking[i] = kick
    _clamp_players(s.player_pos, cfg)

    # player-player overlap
    _separate_players(s.player_pos, cfg)

    # kicks and ball contact (fixed ascending player order)
    contact = cfg.player_radius + cfg.ball_radius
    for i in range(N_PLAYERS):
        d = s.ball_pos - s.player_pos[i]
        dist = float(np.hypot(d[0], d[1]))
        if dist >= contact:
            continue
        direction = d / dist if dist > 1e-12 else np.array([1.0, 0.0])
        events.ball_touches.append((i, team_of(i)))
        if s.kicking[i]:
            s.ball_vel += cfg.kick_impulse * direction
        s.ball_pos = s.player_pos[i] + contact * direction

    # integrate ball: damping then movement
    s.ball_vel *= cfg.ball_damping
    s.ball_pos += s.ball_vel

    goal = _resolve_ball_walls(s, cfg)

    s.t += 1
    events.game_done = s.t >= cfg.steps_per_game
    if goal is not None:
        s.scores[goal] += 1
        events.goal_scored = goal
        events.episode_done = True
    elif events.game_done:
        events.episode_done = True

    components = reward_components(state, actions, s, cfg)
    return s, components.sum(axis=1), events


# ---------------------------------------------------------------------------
# rewards


def reward_components(prev: WorldState, actions: np.ndarray, nxt: WorldState,
                      cfg: EnvConfig) -> np.ndarray:
    """Per-player (r_explore, r_ball, r_goal, r_dist) for one transition.

    r_explore: scaled dot of the unit move direction with the unit vector
    to the ball (zero when not moving). r_ball: scaled dot of the ball
    velocity with the unit direction to the opponent goal, shared by the
    team. r_goal: +/- goal_reward on the scoring step. r_dist: scaled mean
    pairwise teammate distance, capped at theta_max, same for the team.
    """
    actions = np.asarray(actions, dtype=np.int64)
    out = np.zeros((N_PLAYERS, 4))
    score_delta = nxt.scores - prev.scores

    team_vals = []
    for team in range(2):
        g = opponent_goal_center(team, cfg) - nxt.ball_pos
        gn = float(np.hypot(g[0], g[1]))
        r_ball = cfg.theta_ball * float(nxt.ball_vel @ (g / gn)) if gn > 1e-12 else 0.0
        idx = list(team_players(team))
        dists = [
            float(np.linalg.norm(nxt.player_pos[a] - nxt.player_pos[b]))
            for k, a in enumerate(idx)
            for b in idx[k + 1:]
        ]
        r_dist = cfg.theta_dist * min(float(np.mean(dists)), cfg.theta_max)
        team_vals.append((r_ball, r_dist))

    for i in range(N_PLAYERS):
        team = team_of(i)
        move, _ = decode_action(int(actions[i]))
        mn = float(np.hypot(move[0], move[1]))
        if mn > 0:
            to_ball = prev.ball_pos - prev.player_pos[i]
            bn = float(np.hypot(to_ball[0], to_ball[1]))
            if bn > 1e-12:
                out[i, 0] = cfg.theta_exp * float((move / mn) @ (to_ball / bn))
        out[i, 1] = team_vals[team][0]
        if score_delta[team] > 0:
            out[i, 2] = cfg.goal_reward
        elif score_delta[1 - team] > 0:
            out[i, 2] = -cfg.goal_reward
        out[i, 3] = team_vals[team][1]
    return out


# ---------------------------------------------------------------------------
# replay frames


def frame_dict(state: WorldState, events: StepEvents) -> dict:
    """One replay frame: the schema consumed by evaluation and the CLI."""
    return {
        "t": state.t,
        "episode": state.episode,
        "players": [
            {
                "team": team_of(i),
                "pos": [float(state.player_pos[i, 0]), float(state.player_pos[i, 1])],
                "vel": [float(state.player_vel[i, 0]), float(state.player_vel[i, 1])],
                "kick": bool(state.kicking[i]),
            }
            for i in range(N_PLAYERS)
        ],
        "ball": {
            "pos": [float(state.ball_pos[0]), float(state.ball_pos[1])],
            "vel": [float(state.ball_vel[0]), float(state.ball_vel[1])],
        },
        "touches": [[int(p), int(t)] for p, t in events.ball_touches],
        "scores": [int(state.scores[0]), int(state.scores[1])],
        "goal": events.goal_scored,
        "episode_done": events.episode_done,
        "game_done": events.game_done,
    }
