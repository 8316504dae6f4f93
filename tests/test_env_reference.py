"""The array-at-once env step against the scalar per-player reference.

``ref_step``, ``ref_reward_components`` and ``ref_observe`` are the loop
versions the vectorized ``step``, ``reward_components`` and ``observe_team``
replaced. Every output must match them bit for bit over random-play games.
"""

import numpy as np
import pytest

import taaclab.env as env_mod
from taaclab.env import (
    N_PLAYERS,
    EnvConfig,
    StepEvents,
    _resolve_ball_walls,
    observe,
    observe_team,
    reset,
    respawn,
    step,
    team_of,
    team_players,
)

# ---------------------------------------------------------------------------
# scalar reference


_REF_MOVES = [(m % 3 - 1, m // 3 - 1) for m in range(9)]


def ref_decode_action(action):
    if not 0 <= action < 18:
        raise ValueError(f"action id {action} out of range")
    dx, dy = _REF_MOVES[action % 9]
    return np.array([float(dx), float(dy)]), action >= 9


def own_goal_center(team, cfg):
    x = 0.0 if team == 0 else cfg.pitch_length
    return np.array([x, cfg.pitch_width / 2.0])


def opponent_goal_center(team, cfg):
    return own_goal_center(1 - team, cfg)


def ref_observe(state, player, cfg):
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
    rays = np.array([cfg.pitch_width - p[1], cfg.pitch_length - p[0], p[0], p[1]])
    parts.append(rays)
    return np.concatenate(parts)


def ref_clamp_players(pos, cfg):
    r = cfg.player_radius
    np.clip(pos[:, 0], r, cfg.pitch_length - r, out=pos[:, 0])
    np.clip(pos[:, 1], r, cfg.pitch_width - r, out=pos[:, 1])


def ref_separate_players(pos, cfg):
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
        ref_clamp_players(pos, cfg)
        if not moved:
            break


def ref_resolve_ball_walls(state, cfg):
    """``_resolve_ball_walls`` on numpy scalars; the Python-float version must match it bit for bit."""
    pos, vel = state.ball_pos, state.ball_vel
    r, rest = cfg.ball_radius, cfg.wall_restitution
    L, W, depth = cfg.pitch_length, cfg.pitch_width, cfg.goal_depth
    cy, half = cfg.pitch_width / 2.0, cfg.goal_width / 2.0 - cfg.ball_radius
    lo, hi = cy - half, cy + half

    goal = None
    if pos[0] < r:
        if lo <= pos[1] <= hi:
            if pos[0] <= -r:
                goal = 1
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


def ref_step(state, actions, cfg):
    actions = np.asarray(actions, dtype=np.int64)
    s = state.copy()
    events = StepEvents()

    for i in range(N_PLAYERS):
        move, kick = ref_decode_action(int(actions[i]))
        norm = float(np.hypot(move[0], move[1]))
        vel = cfg.player_speed * move / norm if norm > 0 else np.zeros(2)
        s.player_vel[i] = vel
        s.player_pos[i] += vel
        s.kicking[i] = kick
    ref_clamp_players(s.player_pos, cfg)

    ref_separate_players(s.player_pos, cfg)

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

    components = ref_reward_components(state, actions, s, cfg)
    return s, components.sum(axis=1), events, components


def ref_reward_components(prev, actions, nxt, cfg):
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
        move, _ = ref_decode_action(int(actions[i]))
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
# bit-equality over random play


def assert_same_bits(a, b):
    a, b = np.asarray(a), np.asarray(b)
    assert a.dtype == b.dtype and a.shape == b.shape
    assert a.tobytes() == b.tobytes()


def assert_same_state(a, b):
    for name in ("player_pos", "player_vel", "kicking", "ball_pos", "ball_vel", "scores"):
        assert_same_bits(getattr(a, name), getattr(b, name))
    assert (a.t, a.episode) == (b.t, b.episode)


def play_both(cfg, mode, seed, counts):
    """One random-play game stepped by ``step`` and by ``ref_step`` side by side."""
    act_rng = np.random.default_rng(seed)
    rng_new, rng_ref = np.random.default_rng(seed + 1), np.random.default_rng(seed + 1)
    new, ref = reset(cfg, mode, rng_new), reset(cfg, mode, rng_ref)
    while True:
        assert_same_state(new, ref)
        for team in range(2):
            expected = np.stack([ref_observe(ref, j, cfg) for j in team_players(team)])
            assert_same_bits(observe_team(new, team, cfg), expected)
            for j in team_players(team):
                assert_same_bits(observe(new, j, cfg), expected[j % 3])
        actions = act_rng.integers(0, 18, size=N_PLAYERS)
        nxt_new, rew_new, ev_new = step(new, actions, cfg)
        nxt_ref, rew_ref, ev_ref, comps_ref = ref_step(ref, actions, cfg)
        assert_same_bits(env_mod.reward_components(new, actions, nxt_new, cfg), comps_ref)
        assert_same_bits(rew_new, rew_ref)
        assert ev_new == ev_ref
        counts["steps"] += 1
        counts["touch_steps"] += bool(ev_ref.ball_touches)
        counts["multi_contact"] += len(ev_ref.ball_touches) > 1
        counts["goals"] += ev_ref.goal_scored is not None
        new, ref = nxt_new, nxt_ref
        if ev_ref.episode_done:
            if ev_ref.game_done:
                assert_same_state(new, ref)
                return
            new, ref = respawn(new, cfg, mode, rng_new), respawn(ref, cfg, mode, rng_ref)
            counts["respawns"] += 1


SMALL = EnvConfig(pitch_length=40.0, pitch_width=24.0, goal_width=12.0, steps_per_game=200)
CRAMPED = EnvConfig(pitch_length=24.0, pitch_width=16.0, goal_width=6.0, steps_per_game=200)


@pytest.mark.parametrize("cfg", [SMALL, CRAMPED], ids=["small", "cramped"])
@pytest.mark.parametrize("mode", ["random_spawns", "fixed_formation"])
def test_step_matches_scalar_reference_bit_for_bit(cfg, mode, monkeypatch):
    separations = []
    real_separate = env_mod._separate_players

    def counting_separate(pos, c):
        separations.append(1)
        real_separate(pos, c)

    monkeypatch.setattr(env_mod, "_separate_players", counting_separate)
    counts = dict.fromkeys(("steps", "touch_steps", "multi_contact", "goals", "respawns"), 0)
    for game in range(10):
        play_both(cfg.validate(), mode, 1000 * game + 17, counts)
    assert counts["steps"] == 10 * cfg.steps_per_game
    assert counts["touch_steps"] > 0 and counts["respawns"] > 0
    if cfg is CRAMPED:
        # the order-dependent branches really ran
        assert len(separations) > 0
        assert counts["multi_contact"] > 0


@pytest.mark.parametrize("cfg", [SMALL, CRAMPED, EnvConfig()], ids=["small", "cramped", "default"])
def test_wall_resolution_matches_numpy_scalar_reference_bit_for_bit(cfg):
    cfg = cfg.validate()
    r, L, W, depth = cfg.ball_radius, cfg.pitch_length, cfg.pitch_width, cfg.goal_depth
    half = cfg.goal_width / 2.0 - r
    edges_x = [r, -r, L - r, L + r, 0.0, L, -depth + r, L + depth - r, -depth - r, L + depth]
    edges_y = [r, W - r, W / 2.0 - half, W / 2.0 + half, 0.0, W, W / 2.0]
    gen = np.random.default_rng(23)
    base = reset(cfg, "fixed_formation")
    goals = set()
    for i in range(4000):
        x = gen.choice(edges_x) if i % 3 == 0 else gen.uniform(-depth - 2.0, L + depth + 2.0)
        y = gen.choice(edges_y) if i % 5 == 0 else gen.uniform(-2.0, W + 2.0)
        v = gen.normal(size=2)
        new, ref = base.copy(), base.copy()
        for s in (new, ref):
            s.ball_pos, s.ball_vel = np.array([x, y]), v.copy()
        goal = _resolve_ball_walls(new, cfg)
        assert goal == ref_resolve_ball_walls(ref, cfg)
        assert_same_state(new, ref)
        goals.add(goal)
    assert goals == {None, 0, 1}


def test_step_rejects_out_of_range_ids_without_wrapping():
    cfg = SMALL.validate()
    s = reset(cfg, "fixed_formation")
    for bad in (-1, 18):
        actions = np.full(N_PLAYERS, 4)
        actions[2] = bad
        with pytest.raises(ValueError):
            step(s, actions, cfg)


def test_observe_team_rejects_bad_team():
    cfg = SMALL.validate()
    s = reset(cfg, "fixed_formation")
    for bad in (-1, 2):
        with pytest.raises(ValueError):
            observe_team(s, bad, cfg)
