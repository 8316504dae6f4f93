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

# action id a: move (dx, dy) = (a % 3 - 1, a % 9 // 3 - 1), kick when a >= 9
_MOVE_VECS = np.array([(a % 3 - 1, a % 9 // 3 - 1) for a in range(N_ACTIONS)], dtype=np.float64)
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


# ---------------------------------------------------------------------------
# actions


# per action id: the move length (1 for the still moves), unit move, and whether it stands still
_MOVE_DIVISORS = np.hypot(_MOVE_VECS[:, 0], _MOVE_VECS[:, 1])
_MOVE_DIVISORS[_MOVE_DIVISORS == 0.0] = 1.0
_MOVE_UNITS = _MOVE_VECS / _MOVE_DIVISORS[:, None]
_STILL = np.arange(N_ACTIONS) % 9 == NOOP_ACTION


def _action_ids(actions) -> np.ndarray:
    """The six action ids as int64; raises on a wrong shape, a dtype that is not
    an integer one (bool included) or an id outside [0, 18)."""
    actions = np.asarray(actions)
    if actions.shape != (N_PLAYERS,):
        raise ValueError(f"expected {N_PLAYERS} action ids, got shape {actions.shape}")
    ids = actions.tolist()
    if actions.dtype.kind not in "iu":  # a cast would play 3.7 as 3 and NaN as a huge negative
        raise ValueError(f"action ids {ids} must be integers, got dtype {actions.dtype}")
    # explicit: a table lookup would wrap -1 to action 17
    if min(ids) < 0 or max(ids) >= N_ACTIONS:
        raise ValueError(f"action ids {ids} out of range [0, {N_ACTIONS})")
    return actions.astype(np.int64, copy=False)


# ---------------------------------------------------------------------------
# observations

OBS_WIDTH = 2 * (TEAM_SIZE - 1) + 2 * TEAM_SIZE + 2 + 2 + 2 + 2 + 4  # 22 for 3v3


def _obs_gather() -> tuple[np.ndarray, np.ndarray]:
    """Per-player indices such that observation = src[plus] - src[minus], where
    src is 12 player coordinates, ball position (12), ball velocity (14), west
    and east goal centers (16, 18), pitch width and length (20, 21), and 0."""
    plus, minus = [], []
    for p in range(N_PLAYERS):
        team, x, y = team_of(p), 2 * p, 2 * p + 1
        others = [j for j in team_players(team) if j != p] + list(team_players(1 - team))
        goals = (18, 16) if team == 0 else (16, 18)  # opponent's, then own
        plus.append([2 * j + k for j in others for k in (0, 1)] + [12, 13, 14, 15]
                    + [g + k for g in goals for k in (0, 1)] + [20, 21, x, y])  # rays N, E, W, S
        minus.append([x, y] * 6 + [22, 22] + [x, y] * 2 + [y, x, 22, 22])
    return np.array(plus), np.array(minus)


_OBS_PLUS, _OBS_MINUS = _obs_gather()


def observe(state: WorldState, player: int, cfg: EnvConfig) -> np.ndarray:
    """Egocentric observation: relative teammate/opponent/ball/goal vectors,
    ball velocity, and N/E/W/S raycast distances to the boundary."""
    if not 0 <= player < N_PLAYERS:
        raise ValueError(f"player id {player} out of range")
    return observe_team(state, team_of(player), cfg)[player % TEAM_SIZE]


def observe_team(state: WorldState, team: int, cfg: EnvConfig) -> np.ndarray:
    """The three ``observe`` rows of one team, teammates in id order."""
    if team not in (0, 1):
        raise ValueError(f"team id {team} out of range")
    L, W = cfg.pitch_length, cfg.pitch_width
    src = np.concatenate((state.player_pos.ravel(), state.ball_pos, state.ball_vel,
                          (0.0, W / 2.0, L, W / 2.0, W, L, 0.0)))
    rows = slice(team * TEAM_SIZE, (team + 1) * TEAM_SIZE)
    return src[_OBS_PLUS[rows]] - src[_OBS_MINUS[rows]]


# ---------------------------------------------------------------------------
# spawning


_SPAWN_DRAWS = 10_000  # rejection draws per circle before a random spawn gives up


def _sample_positions(cfg: EnvConfig, rng: np.random.Generator) -> tuple[np.ndarray, np.ndarray]:
    """Uniform non-overlapping player and ball positions inside the pitch;
    ValueError if the circles already placed leave no room for the next."""
    rp, rb = cfg.player_radius, cfg.ball_radius
    placed: list[tuple[np.ndarray, float]] = []

    def place(radius: float) -> np.ndarray:
        for _ in range(_SPAWN_DRAWS):
            pos = np.array([
                rng.uniform(radius, cfg.pitch_length - radius),
                rng.uniform(radius, cfg.pitch_width - radius),
            ])
            if all(np.linalg.norm(pos - q) > radius + r for q, r in placed):
                placed.append((pos, radius))
                return pos
        raise ValueError(f"random spawn found no free spot in {_SPAWN_DRAWS} draws on a "
                         f"{cfg.pitch_length} x {cfg.pitch_width} pitch (player_radius {rp}, "
                         f"ball_radius {rb}); use a larger pitch or smaller radii")

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


_PLAYER_TEAM = np.arange(N_PLAYERS) // TEAM_SIZE
_PAIR_I, _PAIR_J = np.triu_indices(N_PLAYERS, k=1)  # all 15 player pairs, i < j
_MATES = _PAIR_I // TEAM_SIZE == _PAIR_J // TEAM_SIZE
_MATE_I, _MATE_J = _PAIR_I[_MATES], _PAIR_J[_MATES]  # team 0's three pairs, then team 1's


def _clamp_players(pos: np.ndarray, cfg: EnvConfig) -> None:
    r = cfg.player_radius
    np.minimum(np.maximum(pos, r, out=pos), (cfg.pitch_length - r, cfg.pitch_width - r), out=pos)


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
    (x, y), (vx, vy) = state.ball_pos.tolist(), state.ball_vel.tolist()  # IEEE doubles, same bits
    r, rest = cfg.ball_radius, cfg.wall_restitution
    L, W, depth = cfg.pitch_length, cfg.pitch_width, cfg.goal_depth
    lo, hi = _mouth_band(cfg)

    goal: Optional[int] = None
    if x < r:
        if lo <= y <= hi:
            if x <= -r:
                goal = 1  # fully behind the west goal line
            back = -depth + r
            if x < back:
                x, vx = 2.0 * back - x, -rest * vx
        else:
            x, vx = 2.0 * r - x, -rest * vx
    elif x > L - r:
        if lo <= y <= hi:
            if x >= L + r:
                goal = 0
            back = L + depth - r
            if x > back:
                x, vx = 2.0 * back - x, -rest * vx
        else:
            x, vx = 2.0 * (L - r) - x, -rest * vx

    # y walls: goal-box side walls once behind a goal line, pitch walls otherwise
    if x < 0.0 or x > L:
        y_lo, y_hi = lo, hi
    else:
        y_lo, y_hi = r, W - r
    if y < y_lo:
        y, vy = 2.0 * y_lo - y, -rest * vy
    elif y > y_hi:
        y, vy = 2.0 * y_hi - y, -rest * vy
    state.ball_pos[0], state.ball_pos[1] = x, y
    state.ball_vel[0], state.ball_vel[1] = vx, vy
    return goal


def step(state: WorldState, actions: np.ndarray, cfg: EnvConfig) -> tuple[WorldState, np.ndarray, StepEvents]:
    """Advance one time step for all six players.

    ``actions`` holds one id per player, team 0 first. Returns the next
    state, the per-player total rewards, and the step events.
    """
    if state.t >= cfg.steps_per_game:
        raise GameOverError(f"game already finished at step {state.t} (limit {cfg.steps_per_game})")
    actions = _action_ids(actions)
    events = StepEvents()

    # movement
    vel = cfg.player_speed * _MOVE_VECS[actions] / _MOVE_DIVISORS[actions, None]
    s = WorldState(player_pos=state.player_pos + vel, player_vel=vel, kicking=actions >= 9,
                   ball_pos=state.ball_pos.copy(), ball_vel=state.ball_vel.copy(),
                   scores=state.scores.copy(), t=state.t + 1, episode=state.episode)
    _clamp_players(s.player_pos, cfg)

    # player-player overlap: the order-dependent pass runs only if some pair overlaps
    gap = s.player_pos[_PAIR_J] - s.player_pos[_PAIR_I]
    if (np.hypot(gap[:, 0], gap[:, 1]) < 2.0 * cfg.player_radius).any():
        _separate_players(s.player_pos, cfg)

    # kicks and ball contact (fixed ascending player order), from the first
    # player in contact; each contact moves the ball for the players after it
    contact = cfg.player_radius + cfg.ball_radius
    to_ball = s.ball_pos - s.player_pos
    touching = np.hypot(to_ball[:, 0], to_ball[:, 1]) < contact
    first = int(touching.argmax())
    for i in range(first if touching[first] else N_PLAYERS, N_PLAYERS):
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

    events.game_done = s.t >= cfg.steps_per_game
    if goal is not None:
        s.scores[goal] += 1
        events.goal_scored = goal
        events.episode_done = True
    elif events.game_done:
        events.episode_done = True

    return s, reward_components(state, actions, s, cfg).sum(axis=1), events


# ---------------------------------------------------------------------------
# rewards


def rowdot(a: np.ndarray, b: np.ndarray) -> np.ndarray:
    """Dot products over the last axis of broadcastable stacks of 2-vectors, bit
    for bit as ``a[i] @ b[i]`` (its root as ``np.linalg.norm``); ``x*x + y*y`` is not."""
    return (a[..., None, :] @ b[..., :, None])[..., 0, 0]


def reward_components(prev: WorldState, actions: np.ndarray, nxt: WorldState,
                      cfg: EnvConfig) -> np.ndarray:
    """Per-player (r_explore, r_ball, r_goal, r_dist) for one transition.

    r_explore: scaled dot of the unit move direction with the unit vector
    to the ball (zero when not moving). r_ball: scaled dot of the ball
    velocity with the unit direction to the opponent goal, shared by the
    team. r_goal: +/- goal_reward on the scoring step. r_dist: scaled mean
    pairwise teammate distance, capped at theta_max, same for the team.
    """
    actions = _action_ids(actions)
    out = np.empty((N_PLAYERS, 4))

    to_ball = prev.ball_pos - prev.player_pos
    bn = np.hypot(to_ball[:, 0], to_ball[:, 1])
    on_ball = bn <= 1e-12
    out[:, 0] = cfg.theta_exp * rowdot(_MOVE_UNITS[actions], to_ball / np.where(on_ball, 1.0, bn)[:, None])
    out[on_ball | _STILL[actions], 0] = 0.0

    # per team: r_ball, r_goal, r_dist
    team = np.empty((2, 3))
    half_w = cfg.pitch_width / 2.0
    g = np.array([[cfg.pitch_length, half_w], [0.0, half_w]]) - nxt.ball_pos
    gn = np.hypot(g[:, 0], g[:, 1])
    at_goal = gn <= 1e-12
    team[:, 0] = cfg.theta_ball * rowdot(nxt.ball_vel[None, :], g / np.where(at_goal, 1.0, gn)[:, None])
    team[at_goal, 0] = 0.0
    scored = [a > b for a, b in zip(nxt.scores.tolist(), prev.scores.tolist())]
    for k in (0, 1):
        team[k, 1] = cfg.goal_reward if scored[k] else -cfg.goal_reward if scored[1 - k] else 0.0
    d = nxt.player_pos[_MATE_I] - nxt.player_pos[_MATE_J]
    dists = np.sqrt(rowdot(d, d)).reshape(2, -1)
    team[:, 2] = cfg.theta_dist * np.minimum(dists.sum(axis=1) / dists.shape[1], cfg.theta_max)
    out[:, 1:] = team[_PLAYER_TEAM]
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
