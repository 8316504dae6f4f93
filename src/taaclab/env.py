"""Deterministic 2D soccer simulation: 3v3 solid circles on a walled pitch.

Coordinates: x runs along the pitch length (east-west), y along the width
(north-south). Team 0 players are indices 0-2 and defend the west goal at
x=0; team 1 players are indices 3-5 and defend the east goal. "Forward"
for the action space is +y (north).

Step update order (fixed for determinism): apply movement, separate
overlapping players, resolve kicks and ball contact, integrate the ball
(damping then position), then resolve wall and goal-box collisions. The
shaped rewards are not part of the step: ``reward_components`` computes them
from the before/after states, one transition or a whole game at once.
Separation and ball contact are gated by squared-distance prefilters, with a
margin that keeps the step's bits those of its exact ``np.hypot`` tests.

A ``WorldState`` keeps its floats in one float64 array, ``packed``: along its
last axis, 12 player coordinates, ball position, ball velocity and 7 pitch
constants (``observe_team``'s gather source; it writes the constants), then
12 player-velocity values, ``STATE_WIDTH`` in all. Leading axes stack states.
"""

from __future__ import annotations

from dataclasses import dataclass, field
from functools import cached_property
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

    @cached_property
    def pitch_constants(self) -> np.ndarray:
        """A packed state's pitch slots: west and east goal centers, pitch width and length, and 0."""
        L, W = self.pitch_length, self.pitch_width
        return np.array((0.0, W / 2.0, L, W / 2.0, W, L, 0.0))

    @cached_property
    def move_velocities(self) -> np.ndarray:
        """Player velocity per action id, (18, 2): speed times the move, over its length."""
        return self.player_speed * _MOVE_VECS / _MOVE_DIVISORS[:, None]

    @cached_property
    def step_limits(self) -> tuple[np.ndarray, float, float]:
        """A player center's upper clamp bound (L - r, W - r), then the squared overlap and
        contact distances (2 r)^2 and (r + ball_radius)^2 times 1 + 1e-9. While the squares
        are normal floats (sizes within 1e-150..1e150), the margin dwarfs their rounding, so
        a pair these limits pass but the hypot test does not only starts a separation pass
        that moves nobody (it re-clamps clamped positions) or a contact loop that skips it."""
        r = self.player_radius
        return (np.array((self.pitch_length - r, self.pitch_width - r)),
                *(d * d * (1.0 + 1e-9) for d in (2.0 * r, r + self.ball_radius)))


# the packed state layout along the last axis (module docstring)
_POS, _BALL, _BALL_VEL, _PITCH, _VEL = slice(0, 12), slice(12, 14), slice(14, 16), slice(16, 23), slice(23, 35)
STATE_WIDTH = 35


def _field(cols: slice, shape: tuple) -> property:
    """A float field as a view of ``packed``; assigning to it writes into ``packed``."""
    def view(s: WorldState) -> np.ndarray:
        return s.packed[..., cols].reshape(s.packed.shape[:-1] + shape)
    return property(view, lambda s, value: np.copyto(view(s), value))


class WorldState:
    """One game state, or a stack of them along leading axes: ``player_pos`` (..., 6, 2),
    ``ball_pos``, ``ball_vel`` (..., 2) and ``player_vel`` (..., 6, 2) are views of
    ``packed``; ``kicking`` (..., 6) bool and ``scores`` (..., 2) int are separate arrays."""

    __slots__ = ("packed", "kicking", "scores", "t", "episode")
    player_pos, ball_pos = _field(_POS, (N_PLAYERS, 2)), _field(_BALL, (2,))
    ball_vel, player_vel = _field(_BALL_VEL, (2,)), _field(_VEL, (N_PLAYERS, 2))

    def __init__(self, player_pos, player_vel, kicking, ball_pos, ball_vel, scores, t=0, episode=0):
        self.packed = np.zeros(np.shape(player_pos)[:-2] + (STATE_WIDTH,))
        self.player_pos, self.player_vel, self.kicking = player_pos, player_vel, kicking
        self.ball_pos, self.ball_vel, self.scores, self.t, self.episode = ball_pos, ball_vel, scores, t, episode

    @classmethod
    def of(cls, packed, kicking, scores, t: int = 0, episode: int = 0) -> WorldState:
        """The state over ``packed`` itself, not a copy of it."""
        s = cls.__new__(cls)
        s.packed, s.kicking, s.scores, s.t, s.episode = packed, kicking, scores, t, episode
        return s


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


# per action id: the move length (1 for the still moves), unit move, whether it stands still or kicks
_MOVE_DIVISORS = np.hypot(_MOVE_VECS[:, 0], _MOVE_VECS[:, 1])
_MOVE_DIVISORS[_MOVE_DIVISORS == 0.0] = 1.0
_MOVE_UNITS = _MOVE_VECS / _MOVE_DIVISORS[:, None]
_STILL = np.arange(N_ACTIONS) % 9 == NOOP_ACTION
_KICKS = np.arange(N_ACTIONS) >= 9


def _action_ids(actions) -> np.ndarray:
    """Action ids as int64 in rows of six, shape (6,) or (..., 6); raises on a
    wrong shape, a dtype that is not an integer one (bool included) or an id
    outside [0, 18), naming the first bad row of the (-1, 6) view."""
    actions = np.asarray(actions)
    if actions.shape[-1:] != (N_PLAYERS,):
        raise ValueError(f"expected rows of {N_PLAYERS} action ids, got shape {actions.shape}")
    ids = actions.ravel().tolist()
    if actions.dtype.kind not in "iu":  # a cast would play 3.7 as 3 and NaN as a huge negative
        raise ValueError(f"action ids {_id_row(actions, ids, 0)} must be integers, got dtype {actions.dtype}")
    # explicit: a table lookup would wrap -1 to action 17
    if min(ids) < 0 or max(ids) >= N_ACTIONS:
        k = next(k for k, a in enumerate(ids) if not 0 <= a < N_ACTIONS) // N_PLAYERS
        raise ValueError(f"action ids {_id_row(actions, ids, k)} out of range [0, {N_ACTIONS})")
    return actions.astype(np.int64, copy=False)


def _id_row(actions: np.ndarray, ids: list, k: int) -> str:
    row = ids[k * N_PLAYERS:(k + 1) * N_PLAYERS]
    return str(row) if actions.ndim == 1 else f"{row} (row {k})"


# ---------------------------------------------------------------------------
# observations

OBS_WIDTH = 2 * (TEAM_SIZE - 1) + 2 * TEAM_SIZE + 2 + 2 + 2 + 2 + 4  # 22 for 3v3


def _obs_gather() -> tuple[np.ndarray, np.ndarray]:
    """Per-team (3, 22) indices such that observation = src[plus] - src[minus], where
    src is a packed state: 12 player coordinates, ball position (12), ball velocity
    (14), west and east goal centers (16, 18), pitch width and length (20, 21), and 0."""
    plus, minus = [], []
    for p in range(N_PLAYERS):
        team, x, y = team_of(p), 2 * p, 2 * p + 1
        others = [j for j in team_players(team) if j != p] + list(team_players(1 - team))
        goals = (18, 16) if team == 0 else (16, 18)  # opponent's, then own
        plus.append([2 * j + k for j in others for k in (0, 1)] + [12, 13, 14, 15]
                    + [g + k for g in goals for k in (0, 1)] + [20, 21, x, y])  # rays N, E, W, S
        minus.append([x, y] * 6 + [22, 22] + [x, y] * 2 + [y, x, 22, 22])
    return np.array(plus).reshape(2, TEAM_SIZE, -1), np.array(minus).reshape(2, TEAM_SIZE, -1)


_OBS_PLUS, _OBS_MINUS = _obs_gather()


def observe_team(state: WorldState, team: int, cfg: EnvConfig) -> np.ndarray:
    """One egocentric observation row per player of one team, in id order: relative
    teammate/opponent/ball/goal vectors, ball velocity, and N/E/W/S raycast distances to
    the boundary, gathered from ``state.packed`` after writing its pitch slots."""
    if team not in (0, 1):
        raise ValueError(f"team id {team} out of range")
    src = state.packed
    src[_PITCH] = cfg.pitch_constants
    return src[_OBS_PLUS[team]] - src[_OBS_MINUS[team]]


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

    return np.stack([place(rp) for _ in range(N_PLAYERS)]), place(rb)  # players first


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
    return np.vstack([west, east]), np.array([L / 2.0, W / 2.0])


def reset(cfg: EnvConfig, mode: str, rng: Optional[np.random.Generator] = None) -> WorldState:
    """Fresh game state; an inactive opponent is a policy that always no-ops.
    ``random_spawns`` draws from ``rng``; ``fixed_formation`` needs none."""
    if mode not in SPAWN_MODES:
        raise ValueError(f"unknown spawn mode {mode!r}, expected one of {SPAWN_MODES}")
    if mode == "random_spawns":
        if rng is None:
            raise ValueError("spawn mode 'random_spawns' needs a random generator")
        players, ball = _sample_positions(cfg, rng)
    else:
        players, ball = _fixed_positions(cfg)
    return WorldState(players, np.zeros((N_PLAYERS, 2)), np.zeros(N_PLAYERS, dtype=bool),
                      ball, np.zeros(2), np.zeros(2, dtype=np.int64))


def respawn(state: WorldState, cfg: EnvConfig, mode: str,
            rng: Optional[np.random.Generator] = None) -> WorldState:
    """New episode within the same game: fresh positions, kept score and clock."""
    fresh = reset(cfg, mode, rng)
    fresh.scores, fresh.t, fresh.episode = state.scores.copy(), state.t, state.episode + 1
    return fresh


# ---------------------------------------------------------------------------
# physics step


_PLAYER_TEAM = np.arange(N_PLAYERS) // TEAM_SIZE
_PAIR_I, _PAIR_J = np.triu_indices(N_PLAYERS, k=1)  # all 15 player pairs, i < j
_MATES = _PAIR_I // TEAM_SIZE == _PAIR_J // TEAM_SIZE
_MATE_I, _MATE_J = _PAIR_I[_MATES], _PAIR_J[_MATES]  # team 0's three pairs, then team 1's
# x offsets into a state's first 14 floats (players, then ball): the 15 player pairs, then player-ball
_PAIR_XY = list(zip((2 * _PAIR_I).tolist(), (2 * _PAIR_J).tolist()))
_BALL_XY = [(2 * i, 12) for i in range(N_PLAYERS)]


def _clamp_players(pos: np.ndarray, cfg: EnvConfig) -> None:
    np.minimum(np.maximum(pos, cfg.player_radius, out=pos), cfg.step_limits[0], out=pos)


def _first_near(xy: list, pairs: list, limit_sq: float) -> int:
    """The first k whose points xy[i:i+2] and xy[j:j+2], (i, j) = pairs[k], have a squared
    distance under ``limit_sq``, else ``len(pairs)``."""
    for k, (i, j) in enumerate(pairs):
        dx, dy = xy[j] - xy[i], xy[j + 1] - xy[i + 1]
        if dx * dx + dy * dy < limit_sq:
            return k
    return len(pairs)


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


def _resolve_ball_walls(state: WorldState, cfg: EnvConfig) -> Optional[int]:
    """Reflect the ball off walls/goal boxes; returns the scoring team or None.

    Reflection law: the normal velocity component flips and scales by
    wall_restitution; the tangential component is untouched. The x walls
    open onto goal boxes wherever the whole ball fits through the mouth;
    mouth fit is judged at the crossing, before any y reflection.
    """
    ball = state.packed[_BALL.start:_BALL_VEL.stop]  # position, then velocity
    x, y, vx, vy = ball.tolist()  # IEEE doubles, same bits
    r, rest = cfg.ball_radius, cfg.wall_restitution
    L, W, depth = cfg.pitch_length, cfg.pitch_width, cfg.goal_depth
    cy, half = W / 2.0, cfg.goal_width / 2.0 - r
    lo, hi = cy - half, cy + half  # the y-range in which the whole ball fits through a goal mouth

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
    ball[0], ball[1], ball[2], ball[3] = x, y, vx, vy
    return goal


def step(state: WorldState, actions: np.ndarray, cfg: EnvConfig) -> tuple[WorldState, StepEvents]:
    """Advance one time step for all six players.

    ``actions`` holds one id per player, team 0 first. Returns the next
    state and the step events; the rewards come from ``reward_components``.
    """
    if state.t >= cfg.steps_per_game:
        raise GameOverError(f"game already finished at step {state.t} (limit {cfg.steps_per_game})")
    actions = _action_ids(actions)

    # one copy of the packed state, updated in place through views
    s = WorldState.of(state.packed.copy(), _KICKS[actions], state.scores.copy(), state.t + 1, state.episode)
    pos, vel = s.packed[_POS].reshape(N_PLAYERS, 2), s.packed[_VEL].reshape(N_PLAYERS, 2)
    ball, ball_vel = s.packed[_BALL], s.packed[_BALL_VEL]

    # movement; ids are checked, so the gather need not (clip mode writes out unbuffered)
    cfg.move_velocities.take(actions, 0, out=vel, mode="clip")
    pos += vel
    _clamp_players(pos, cfg)

    # player-player overlap: the order-dependent pass runs only if some pair may overlap
    _, overlap_sq, contact_sq = cfg.step_limits
    xy = s.packed[:14].tolist()  # IEEE doubles, same bits
    if _first_near(xy, _PAIR_XY, overlap_sq) < len(_PAIR_XY):
        _separate_players(pos, cfg)
        xy = s.packed[:14].tolist()

    # kicks and ball contact (fixed ascending player order), from the first
    # player that may touch; each contact moves the ball for the players after it
    contact, touches = cfg.player_radius + cfg.ball_radius, []
    for i in range(_first_near(xy, _BALL_XY, contact_sq), N_PLAYERS):
        d = ball - pos[i]
        dist = float(np.hypot(d[0], d[1]))
        if dist >= contact:
            continue
        direction = d / dist if dist > 1e-12 else np.array([1.0, 0.0])
        touches.append((i, team_of(i)))
        if s.kicking[i]:
            ball_vel += cfg.kick_impulse * direction
        ball[:] = pos[i] + contact * direction

    # integrate ball: damping then movement
    ball_vel *= cfg.ball_damping
    ball += ball_vel

    goal = _resolve_ball_walls(s, cfg)
    if goal is not None:
        s.scores[goal] += 1
    game_done = s.t >= cfg.steps_per_game
    return s, StepEvents(goal_scored=goal, ball_touches=touches,
                         episode_done=goal is not None or game_done, game_done=game_done)


# ---------------------------------------------------------------------------
# rewards


def rowdot(a: np.ndarray, b: np.ndarray) -> np.ndarray:
    """Dot products over the last axis of broadcastable stacks of 2-vectors, bit
    for bit as ``a[i] @ b[i]`` (its root as ``np.linalg.norm``); ``x*x + y*y`` is not."""
    return (a[..., None, :] @ b[..., :, None])[..., 0, 0]


def reward_components(prev: WorldState, actions: np.ndarray, nxt: WorldState,
                      cfg: EnvConfig) -> np.ndarray:
    """Per-player (r_explore, r_ball, r_goal, r_dist) for one transition, (6, 4).

    r_explore: scaled dot of the unit move direction with the unit vector
    to the ball (zero when not moving). r_ball: scaled dot of the ball
    velocity with the unit direction to the opponent goal, shared by the
    team. r_goal: +/- goal_reward on the scoring step. r_dist: scaled mean
    pairwise teammate distance, capped at theta_max, same for the team.

    For a whole game at once, give states whose arrays carry a leading T
    axis and (T, 6) actions: the result is (T, 6, 4), and each step's rows
    hold the same bits as a call on that step alone, since the same
    element-wise code runs.
    """
    actions = _action_ids(actions)
    out = np.empty((*actions.shape, 4))

    to_ball = prev.ball_pos[..., None, :] - prev.player_pos
    bn = np.hypot(to_ball[..., 0], to_ball[..., 1])
    on_ball = bn <= 1e-12
    out[..., 0] = cfg.theta_exp * rowdot(_MOVE_UNITS[actions], to_ball / np.where(on_ball, 1.0, bn)[..., None])
    out[..., 0][on_ball | _STILL[actions]] = 0.0

    # per team: r_ball, r_goal, r_dist
    team = np.empty((*actions.shape[:-1], 2, 3))
    half_w = cfg.pitch_width / 2.0
    g = np.array([[cfg.pitch_length, half_w], [0.0, half_w]]) - nxt.ball_pos[..., None, :]
    gn = np.hypot(g[..., 0], g[..., 1])
    at_goal = gn <= 1e-12
    team[..., 0] = cfg.theta_ball * rowdot(nxt.ball_vel[..., None, :], g / np.where(at_goal, 1.0, gn)[..., None])
    team[..., 0][at_goal] = 0.0
    scored = nxt.scores > prev.scores  # at most one team per step
    team[..., 1] = np.where(scored, cfg.goal_reward, np.where(scored[..., ::-1], -cfg.goal_reward, 0.0))
    d = nxt.player_pos[..., _MATE_I, :] - nxt.player_pos[..., _MATE_J, :]
    dists = np.sqrt(rowdot(d, d)).reshape(*actions.shape[:-1], 2, -1)
    team[..., 2] = cfg.theta_dist * np.minimum(dists.sum(axis=-1) / dists.shape[-1], cfg.theta_max)
    out[..., 1:] = team[..., _PLAYER_TEAM, :]
    return out


# ---------------------------------------------------------------------------
# replay frames


def frame_dict(state: WorldState, events: StepEvents) -> dict:
    """One replay frame: the schema consumed by evaluation and the CLI."""
    pos, vel, kick = state.player_pos.tolist(), state.player_vel.tolist(), state.kicking.tolist()
    return {
        "t": state.t,
        "episode": state.episode,
        "players": [{"team": team_of(i), "pos": pos[i], "vel": vel[i], "kick": kick[i]}
                    for i in range(N_PLAYERS)],
        "ball": {"pos": state.ball_pos.tolist(), "vel": state.ball_vel.tolist()},
        "touches": [[int(p), int(t)] for p, t in events.ball_touches],
        "scores": state.scores.tolist(),
        "goal": events.goal_scored,
        "episode_done": events.episode_done,
        "game_done": events.game_done,
    }
