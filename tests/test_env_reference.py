"""The array-at-once env step against the scalar per-player reference.

``ref_step``, ``ref_reward_components`` and ``ref_observe`` are the loop
versions the vectorized ``step``, ``reward_components`` and ``observe_team``
replaced. Every output must match them bit for bit over random-play games,
and so must ``reward_components`` called once over a whole game's stacked
states.
"""

import copy

import numpy as np
import pytest

import taaclab.env as env_mod
from taaclab.baselines import RandomTeamPolicy
from taaclab.env import (
    N_ACTIONS,
    N_PLAYERS,
    SPAWN_MODES,
    EnvConfig,
    StepEvents,
    WorldState,
    _resolve_ball_walls,
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
    s = copy.deepcopy(state)
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
        actions = act_rng.integers(0, 18, size=N_PLAYERS)
        nxt_new, ev_new = step(new, actions, cfg)
        nxt_ref, rew_ref, ev_ref, comps_ref = ref_step(ref, actions, cfg)
        comps_new = env_mod.reward_components(new, actions, nxt_new, cfg)
        assert_same_bits(comps_new, comps_ref)
        assert_same_bits(comps_new.sum(axis=1), rew_ref)
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
        new, ref = copy.deepcopy(base), copy.deepcopy(base)
        for s in (new, ref):
            s.ball_pos, s.ball_vel = np.array([x, y]), v.copy()
        goal = _resolve_ball_walls(new, cfg)
        assert goal == ref_resolve_ball_walls(ref, cfg)
        assert_same_state(new, ref)
        goals.add(goal)
    assert goals == {None, 0, 1}


def stacked(states):
    """The states as one WorldState whose arrays carry a leading step axis."""
    fields = ("player_pos", "player_vel", "kicking", "ball_pos", "ball_vel", "scores")
    return WorldState(*(np.stack([getattr(s, name) for s in states]) for name in fields))


@pytest.mark.parametrize("mode", SPAWN_MODES)
def test_whole_game_rewards_match_scalar_reference_bit_for_bit(mode):
    cfg = SMALL.validate()
    goals = respawns = 0
    for game in range(6):
        act_rng, env_rng = np.random.default_rng(game), np.random.default_rng(game + 50)
        s = reset(cfg, mode, env_rng)
        prevs, nxts, actions, expected = [], [], [], []
        while True:
            a = act_rng.integers(0, N_ACTIONS, size=N_PLAYERS)
            nxt, ev = step(s, a, cfg)
            prevs.append(s)
            nxts.append(nxt)
            actions.append(a)
            expected.append(ref_reward_components(s, a, nxt, cfg))
            goals += ev.goal_scored is not None
            if ev.game_done:
                break
            s = nxt
            if ev.episode_done:
                s = respawn(nxt, cfg, mode, env_rng)
                respawns += 1
        got = env_mod.reward_components(stacked(prevs), np.stack(actions), stacked(nxts), cfg)
        assert got.shape == (cfg.steps_per_game, N_PLAYERS, 4)
        assert_same_bits(got, np.stack(expected))
    assert goals > 0 and respawns > 0


def test_stacked_action_ids_name_the_bad_row():
    cfg = SMALL.validate()
    s = stacked([reset(cfg, "fixed_formation")] * 5)
    actions = np.full((5, N_PLAYERS), 4)
    actions[3, 2] = 18
    with pytest.raises(ValueError, match=r"\[4, 4, 18, 4, 4, 4\] \(row 3\) out of range"):
        env_mod.reward_components(s, actions, s, cfg)
    with pytest.raises(ValueError, match=r"\(row 0\) must be integers"):
        env_mod.reward_components(s, actions.astype(float), s, cfg)
    with pytest.raises(ValueError, match="rows of 6 action ids"):
        env_mod.reward_components(s, actions[:, :5], s, cfg)


def test_step_and_match_compute_no_rewards(monkeypatch):
    from taaclab.evaluation import play_match

    def no_rewards(*args):
        raise AssertionError("reward_components called")

    monkeypatch.setattr(env_mod, "reward_components", no_rewards)
    cfg = SMALL.validate()
    s, ev = step(reset(cfg, "fixed_formation"), np.full(N_PLAYERS, 13), cfg)
    assert s.t == 1 and not ev.game_done
    rec = play_match(RandomTeamPolicy(), RandomTeamPolicy(), cfg, seed=3,
                     spawn_mode="random_spawns", record_frames=False)
    assert sum(rec.episode_lengths) == cfg.steps_per_game


def test_training_rewards_equal_per_step_rewards(monkeypatch):
    from taaclab import evaluation, learner

    seen, calls = [], []
    real_step, real_rewards = evaluation.step, learner.reward_components

    def recording_step(state, actions, cfg):
        nxt, ev = real_step(state, actions, cfg)
        seen.append((state, np.array(actions), nxt))
        return nxt, ev

    def counting_rewards(*args):
        calls.append(1)
        return real_rewards(*args)

    monkeypatch.setattr(evaluation, "step", recording_step)
    monkeypatch.setattr(learner, "reward_components", counting_rewards)
    cfg = EnvConfig(pitch_length=20.0, pitch_width=14.0, goal_width=10.0, steps_per_game=300).validate()
    trajs, stats = learner.play_training_game(RandomTeamPolicy(), RandomTeamPolicy(), cfg,
                                              np.random.default_rng(4), "random_spawns")
    assert len(calls) == 1
    assert stats["episodes"] > 1  # goals ended episodes, so respawns happened
    rewards = np.concatenate([traj.rewards for traj in trajs])
    assert len(rewards) == len(seen) == cfg.steps_per_game
    for row, (prev, actions, nxt) in zip(rewards, seen):
        assert_same_bits(row, env_mod.reward_components(prev, actions, nxt, cfg).sum(-1)[:3])


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


# ---------------------------------------------------------------------------
# the squared-distance prefilters at their boundaries

# radii whose distances, and the coordinates below, are exact in binary: every gap is exact
EDGE = EnvConfig(pitch_length=40.0, pitch_width=24.0, goal_width=12.0, player_radius=1.25,
                 ball_radius=1.25, steps_per_game=200).validate()
JUST_UNDER = np.nextafter(2.5, 0.0)  # 2r and r + ball_radius are both 2.5
FAR_PLAYERS = [(20.0, 4.0), (20.0, 20.0), (30.0, 4.0), (30.0, 20.0)]
NOOP = env_mod.NOOP_ACTION


def edge_state(players, ball):
    return WorldState(np.array(players), np.zeros((N_PLAYERS, 2)), np.zeros(N_PLAYERS, dtype=bool),
                      np.array(ball), np.zeros(2), np.zeros(2, dtype=np.int64))


def step_both(state, actions, monkeypatch):
    """``step`` and ``ref_step`` from ``state``, compared bit for bit; returns how often
    ``step`` ran the separation pass and its events."""
    separations = []
    real_separate = env_mod._separate_players
    monkeypatch.setattr(env_mod, "_separate_players",
                        lambda pos, c: (separations.append(1), real_separate(pos, c)))
    new, ev_new = step(state, actions, EDGE)
    ref, _, ev_ref, _ = ref_step(state, actions, EDGE)
    assert_same_state(new, ref)
    assert ev_new == ev_ref
    return len(separations), ev_new


@pytest.mark.parametrize("gap, overlapping", [(2.5, False), (JUST_UNDER, True)], ids=["2r", "just-under"])
def test_player_pair_at_the_overlap_boundary_steps_as_the_reference(gap, overlapping, monkeypatch):
    p0 = (1.25, 10.0)  # on the west wall, so the clamp leaves it
    p1 = (p0[0] + gap, p0[1])
    assert p1[0] - p0[0] == gap and (np.hypot(p1[0] - p0[0], 0.0) < 2.5) == overlapping
    state = edge_state([p0, p1] + FAR_PLAYERS, (10.0, 16.0))
    separations, _ = step_both(state, np.full(N_PLAYERS, NOOP), monkeypatch)
    assert separations == 1  # the prefilter passes both; only the overlapping pair moves
    moved = step(state, np.full(N_PLAYERS, NOOP), EDGE)[0].player_pos[:2]
    assert (moved.tobytes() != state.player_pos[:2].tobytes()) == overlapping


@pytest.mark.parametrize("gap, touching", [(2.5, False), (JUST_UNDER, True)], ids=["contact", "just-under"])
@pytest.mark.parametrize("kick", [False, True], ids=["still", "kick"])
def test_ball_at_the_contact_boundary_steps_as_the_reference(gap, touching, kick, monkeypatch):
    p0 = (1.25, 10.0)
    ball = (p0[0] + gap, p0[1])
    assert ball[0] - p0[0] == gap and (np.hypot(ball[0] - p0[0], 0.0) < 2.5) == touching
    state = edge_state([p0, (10.0, 20.0)] + FAR_PLAYERS, ball)
    actions = np.full(N_PLAYERS, NOOP + 9 if kick else NOOP)
    separations, events = step_both(state, actions, monkeypatch)
    assert separations == 0
    assert events.ball_touches == ([(0, 0)] if touching else [])


def test_separation_leaves_a_clamped_layout_without_overlap_bit_identical():
    gen = np.random.default_rng(31)
    layouts = [(EDGE, np.array([(1.25, 10.0), (3.75, 10.0)] + FAR_PLAYERS))]  # one pair exactly 2r apart
    layouts += [(cfg, reset(cfg, "random_spawns", gen).player_pos) for cfg in (EDGE, SMALL, CRAMPED)
                for _ in range(50)]
    for cfg, pos in layouts:
        env_mod._clamp_players(pos, cfg)
        before = pos.tobytes()
        env_mod._separate_players(pos, cfg)
        assert pos.tobytes() == before
