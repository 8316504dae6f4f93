import copy

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from taaclab.env import (
    N_ACTIONS,
    NOOP_ACTION,
    OBS_WIDTH,
    EnvConfig,
    GameOverError,
    WorldState,
    observe_team,
    reset,
    respawn,
    reward_components,
    step,
)

CFG = EnvConfig().validate()


def quiet_state(cfg=CFG):
    """Fixed formation with the ball parked away from everyone."""
    s = reset(cfg, "fixed_formation")
    s.ball_pos = np.array([50.0, 5.0])
    return s


def noop_actions():
    return np.full(6, NOOP_ACTION)


def action_id(dx, dy, kick):
    """The id of move (dx, dy), each in {-1, 0, 1}, with or without a kick."""
    return (dx + 1) + 3 * (dy + 1) + (9 if kick else 0)


# ---------------------------------------------------------------------------
# actions


@pytest.mark.parametrize("bad", [-1, 18, 100])
def test_out_of_range_action_rejected(bad):
    actions = noop_actions()
    actions[0] = bad
    with pytest.raises(ValueError):  # the public reward function checks ids itself
        reward_components(quiet_state(), actions, quiet_state(), CFG)


@pytest.mark.filterwarnings("error")  # no cast warning before the error
@pytest.mark.parametrize("bad", [[3.7, 0, 0, 0, 0, 0.2], [True] * 6, [1e30, 4, 4, 4, 4, 4],
                                 [np.nan, 4, 4, 4, 4, 4]], ids=["fractional", "bool", "huge", "nan"])
def test_non_integer_action_ids_rejected(bad):
    s = quiet_state()
    for call in (lambda: step(s, bad, CFG), lambda: reward_components(s, bad, s, CFG)):
        with pytest.raises(ValueError, match="must be integers") as err:
            call()
        assert str(np.asarray(bad).tolist()) in str(err.value)


def test_every_integer_dtype_plays_the_same_step():
    s = quiet_state()
    actions = np.array([0, 5, 9, 13, 17, NOOP_ACTION])
    expected, _ = step(s, actions, CFG)
    for dtype in (np.int8, np.int32, np.uint8, np.uint64):
        got, _ = step(s, actions.astype(dtype), CFG)
        np.testing.assert_array_equal(got.player_pos, expected.player_pos)
        np.testing.assert_array_equal(got.kicking, expected.kicking)
        np.testing.assert_array_equal(reward_components(s, actions.astype(dtype), got, CFG),
                                      reward_components(s, actions, expected, CFG))


# ---------------------------------------------------------------------------
# observations


def test_raycasts_at_pitch_center():
    s = quiet_state()
    s.player_pos[0] = [50.0, 30.0]
    obs = observe_team(s, 0, CFG)[0]
    np.testing.assert_array_equal(obs[-4:], [30.0, 50.0, 50.0, 30.0])  # N, E, W, S


def test_obs_width_and_ball_at_player():
    s = quiet_state()
    s.ball_pos = s.player_pos[2].copy()
    obs = observe_team(s, 0, CFG)[2]
    assert obs.shape == (OBS_WIDTH,)
    np.testing.assert_array_equal(obs[10:12], [0.0, 0.0])  # relative ball block


def test_mirrored_state_flips_observation_signs():
    """Point-reflecting both teams and the ball through the pitch center and
    swapping team identities negates all relative vectors and swaps raycasts."""
    rng = np.random.default_rng(0)
    s = reset(CFG, "random_spawns", rng)
    s.ball_vel = rng.normal(size=2)
    center = np.array([CFG.pitch_length, CFG.pitch_width])

    mirrored = copy.deepcopy(s)
    mirrored.player_pos = np.vstack([center - s.player_pos[3:], center - s.player_pos[:3]])
    mirrored.player_vel = np.vstack([-s.player_vel[3:], -s.player_vel[:3]])
    mirrored.ball_pos = center - s.ball_pos
    mirrored.ball_vel = -s.ball_vel

    for i in range(3):
        orig = observe_team(s, 1, CFG)[i]         # team 1 player in the original state
        mirr = observe_team(mirrored, 0, CFG)[i]  # its team 0 counterpart after mirroring
        np.testing.assert_allclose(mirr[:-4], -orig[:-4], atol=1e-12)
        np.testing.assert_allclose(mirr[-4:], orig[[-1, -2, -3, -4]], atol=1e-12)


# ---------------------------------------------------------------------------
# spawning


def test_fixed_reset_is_reproducible():
    a, b = reset(CFG, "fixed_formation"), reset(CFG, "fixed_formation")
    np.testing.assert_array_equal(a.player_pos, b.player_pos)
    np.testing.assert_array_equal(a.ball_pos, b.ball_pos)


def test_random_reset_seed_determinism():
    a = reset(CFG, "random_spawns", np.random.default_rng(5))
    b = reset(CFG, "random_spawns", np.random.default_rng(5))
    c = reset(CFG, "random_spawns", np.random.default_rng(6))
    np.testing.assert_array_equal(a.player_pos, b.player_pos)
    assert not np.array_equal(a.player_pos, c.player_pos)


def test_thousand_random_resets_have_no_overlaps():
    rng = np.random.default_rng(7)
    for _ in range(1000):
        s = reset(CFG, "random_spawns", rng)
        radii = np.full(7, CFG.player_radius)
        radii[6] = CFG.ball_radius
        pos = np.vstack([s.player_pos, s.ball_pos])
        for i in range(7):
            for j in range(i + 1, 7):
                assert np.linalg.norm(pos[i] - pos[j]) > radii[i] + radii[j]


def test_random_spawn_without_room_raises_instead_of_hanging():
    cfg = EnvConfig(pitch_length=12, pitch_width=10, goal_width=4).validate()
    with pytest.raises(ValueError, match=r"12 x 10 pitch \(player_radius 1.5, ball_radius 1.0\)"):
        reset(cfg, "random_spawns", np.random.default_rng(114))


def test_random_spawns_without_a_generator_raise():
    s = reset(CFG, "random_spawns", np.random.default_rng(8))
    with pytest.raises(ValueError, match="'random_spawns' needs a random generator"):
        reset(CFG, "random_spawns")
    with pytest.raises(ValueError, match="'random_spawns' needs a random generator"):
        respawn(s, CFG, "random_spawns")


def test_fixed_formation_needs_no_generator():
    rng = np.random.default_rng(9)
    drawn = rng.bit_generator.state
    a, b = reset(CFG, "fixed_formation"), reset(CFG, "fixed_formation", rng)
    assert rng.bit_generator.state == drawn  # a passed generator is left undrawn
    np.testing.assert_array_equal(a.player_pos, b.player_pos)
    np.testing.assert_array_equal(a.ball_pos, b.ball_pos)
    a.scores[:] = (1, 0)
    a2 = respawn(a, CFG, "fixed_formation")
    np.testing.assert_array_equal(a2.player_pos, b.player_pos)
    assert tuple(a2.scores) == (1, 0) and a2.episode == a.episode + 1


def test_respawn_preserves_score_and_clock():
    rng = np.random.default_rng(8)
    s = reset(CFG, "random_spawns", rng)
    s.scores[:] = (2, 1)
    s.t = 57
    s2 = respawn(s, CFG, "random_spawns", rng)
    assert tuple(s2.scores) == (2, 1) and s2.t == 57 and s2.episode == s.episode + 1


# ---------------------------------------------------------------------------
# stepping


def test_noop_step_is_fixed_point():
    s = quiet_state()
    s2, ev = step(s, noop_actions(), CFG)
    np.testing.assert_array_equal(s2.player_pos, s.player_pos)
    np.testing.assert_array_equal(s2.ball_pos, s.ball_pos)
    assert s2.t == s.t + 1 and not ev.episode_done


def test_wall_reflection_law_without_damping():
    cfg = EnvConfig(ball_damping=1.0)
    s = quiet_state(cfg)
    s.ball_pos = np.array([50.0, 1.5])
    s.ball_vel = np.array([0.7, -2.0])
    s2, _ = step(s, noop_actions(), cfg)
    assert abs(s2.ball_vel[1] - cfg.wall_restitution * 2.0) < 1e-9  # normal reflected
    assert abs(s2.ball_vel[0] - 0.7) < 1e-9                         # tangential kept


def test_wall_reflection_with_damping_applies_to_incoming_speed():
    s = quiet_state()
    s.ball_pos = np.array([50.0, 1.5])
    s.ball_vel = np.array([0.0, -2.0])
    s2, _ = step(s, noop_actions(), CFG)
    incoming = 2.0 * CFG.ball_damping  # damping applies before the ball moves
    assert abs(s2.ball_vel[1] - CFG.wall_restitution * incoming) < 1e-9


def test_kick_gives_ball_impulse_along_center_line():
    s = quiet_state()
    s.player_pos[0] = np.array([50.0, 30.0])
    s.ball_pos = np.array([52.0, 30.0])
    actions = noop_actions()
    actions[0] = action_id(0, 0, True)
    s2, ev = step(s, actions, CFG)
    assert (0, 0) in ev.ball_touches
    speed = np.linalg.norm(s2.ball_vel)
    assert abs(speed - CFG.kick_impulse * CFG.ball_damping) < 1e-12
    assert s2.ball_vel[0] > 0 and abs(s2.ball_vel[1]) < 1e-12


def test_kick_without_contact_does_nothing():
    s = quiet_state()
    actions = noop_actions()
    actions[0] = action_id(0, 0, True)
    s2, ev = step(s, actions, CFG)
    assert ev.ball_touches == []
    np.testing.assert_array_equal(s2.ball_vel, [0.0, 0.0])


def test_goal_ends_episode_and_bumps_score():
    s = quiet_state()
    s.ball_pos = np.array([2.0, 30.0])
    s.ball_vel = np.array([-8.0, 0.0])
    s2, ev = step(s, noop_actions(), CFG)
    rewards = reward_components(s, noop_actions(), s2, CFG).sum(axis=1)
    assert ev.goal_scored == 1 and ev.episode_done
    assert tuple(s2.scores) == (0, 1)
    assert rewards[3] > 0 and rewards[0] < 0  # goal reward signs by team


def test_shot_outside_mouth_bounces_back():
    s = quiet_state()
    s.ball_pos = np.array([2.0, 55.0])  # far from the goal mouth band
    s.ball_vel = np.array([-8.0, 0.0])
    s2, ev = step(s, noop_actions(), CFG)
    assert ev.goal_scored is None
    assert s2.ball_vel[0] > 0  # reflected off the wall plane


def test_step_rejects_finished_game():
    cfg = EnvConfig(steps_per_game=1)
    s = quiet_state(cfg)
    s2, ev = step(s, noop_actions(), cfg)
    assert ev.game_done and ev.episode_done
    with pytest.raises(GameOverError):
        step(s2, noop_actions(), cfg)


def test_game_without_goals_is_one_episode_of_length_T():
    cfg = EnvConfig(steps_per_game=25)
    s = quiet_state(cfg)
    boundaries = []
    for t in range(25):
        s, ev = step(s, noop_actions(), cfg)
        if ev.episode_done:
            boundaries.append(s.t)
    assert boundaries == [25] and s.episode == 0


def test_fixed_seed_and_actions_give_bit_identical_trajectories():
    rng = np.random.default_rng(12)
    actions = rng.integers(0, N_ACTIONS, size=(40, 6))

    def run():
        s = reset(CFG, "random_spawns", np.random.default_rng(3))
        out = []
        for t in range(40):
            prev = s
            s, _ = step(s, actions[t], CFG)
            r = reward_components(prev, actions[t], s, CFG).sum(axis=1)
            out.append((s.player_pos.copy(), s.ball_pos.copy(), s.ball_vel.copy(), r.copy()))
        return out

    for (p1, b1, v1, r1), (p2, b2, v2, r2) in zip(run(), run()):
        np.testing.assert_array_equal(p1, p2)
        np.testing.assert_array_equal(b1, b2)
        np.testing.assert_array_equal(v1, v2)
        np.testing.assert_array_equal(r1, r2)


@given(st.integers(0, 2**32 - 1))
@settings(max_examples=15, deadline=None)
def test_containment_under_random_play(seed):
    rng = np.random.default_rng(seed)
    cfg = EnvConfig(steps_per_game=60)
    s = reset(cfg, "random_spawns", rng)
    for _ in range(60):
        s, ev = step(s, rng.integers(0, N_ACTIONS, 6), cfg)
        r = cfg.player_radius
        assert np.all(s.player_pos[:, 0] >= r - 1e-9)
        assert np.all(s.player_pos[:, 0] <= cfg.pitch_length - r + 1e-9)
        assert np.all(s.player_pos[:, 1] >= r - 1e-9)
        assert np.all(s.player_pos[:, 1] <= cfg.pitch_width - r + 1e-9)
        assert -cfg.goal_depth <= s.ball_pos[0] <= cfg.pitch_length + cfg.goal_depth
        assert 0.0 <= s.ball_pos[1] <= cfg.pitch_width
        if ev.episode_done and not ev.game_done:
            s = respawn(s, cfg, "random_spawns", rng)
        elif ev.game_done:
            break


# ---------------------------------------------------------------------------
# rewards


def test_moving_straight_at_ball_earns_full_explore_reward():
    s = quiet_state()
    s.player_pos[0] = np.array([40.0, 5.0])
    s.ball_pos = np.array([60.0, 5.0])
    actions = noop_actions()
    actions[0] = action_id(1, 0, False)
    s2, _ = step(s, actions, CFG)
    comps = reward_components(s, actions, s2, CFG)
    assert abs(comps[0, 0] - CFG.theta_exp) < 1e-12


def test_moving_away_from_ball_is_penalized():
    s = quiet_state()
    s.player_pos[0] = np.array([40.0, 5.0])
    s.ball_pos = np.array([60.0, 5.0])
    actions = noop_actions()
    actions[0] = action_id(-1, 0, False)
    s2, _ = step(s, actions, CFG)
    comps = reward_components(s, actions, s2, CFG)
    assert comps[0, 0] == -CFG.theta_exp


def test_resting_ball_gives_no_team_reward():
    s = quiet_state()
    s2, _ = step(s, noop_actions(), CFG)
    comps = reward_components(s, noop_actions(), s2, CFG)
    np.testing.assert_array_equal(comps[:, 1], np.zeros(6))


def test_ball_toward_own_goal_penalizes_that_team():
    s = quiet_state()
    s.ball_pos = np.array([50.0, 30.0])
    s.ball_vel = np.array([-2.0, 0.0])  # toward team 0's goal
    s2, _ = step(s, noop_actions(), CFG)
    comps = reward_components(s, noop_actions(), s2, CFG)
    assert np.all(comps[:3, 1] < 0) and np.all(comps[3:, 1] > 0)


def test_distance_reward_uses_capped_team_mean():
    s = quiet_state()
    base = np.array([50.0, 30.0])
    # mutual distances 10, 10, 16 -> mean 12, below the cap of 20
    s.player_pos[0] = base
    s.player_pos[1] = base + [10.0, 0.0]
    s.player_pos[2] = base + [-2.8, 9.6]
    s2 = copy.deepcopy(s)
    s2.t += 1
    comps = reward_components(s, noop_actions(), s2, CFG)
    np.testing.assert_allclose(comps[:3, 3], 12.0 * CFG.theta_dist, atol=1e-9)


def test_distance_reward_capped_at_theta_max():
    s = quiet_state()
    s.player_pos[0] = np.array([5.0, 30.0])
    s.player_pos[1] = np.array([95.0, 30.0])
    s.player_pos[2] = np.array([50.0, 55.0])
    s2 = copy.deepcopy(s)
    s2.t += 1
    comps = reward_components(s, noop_actions(), s2, CFG)
    np.testing.assert_allclose(comps[:3, 3], CFG.theta_dist * CFG.theta_max, atol=1e-12)


@given(st.integers(0, 2**32 - 1))
@settings(max_examples=25, deadline=None)
def test_distance_reward_bounds(seed):
    rng = np.random.default_rng(seed)
    s = reset(CFG, "random_spawns", rng)
    actions = rng.integers(0, N_ACTIONS, 6)
    s2, _ = step(s, actions, CFG)
    comps = reward_components(s, actions, s2, CFG)
    assert np.all(comps[:, 3] >= 0.0)
    assert np.all(comps[:, 3] <= CFG.theta_dist * CFG.theta_max + 1e-12)


def test_total_reward_is_sum_of_components():
    rng = np.random.default_rng(9)
    s = reset(CFG, "random_spawns", rng)
    actions = rng.integers(0, N_ACTIONS, 6)
    s2, _ = step(s, actions, CFG)
    comps = reward_components(s, actions, s2, CFG)

    def lead(st):  # the same state with a leading axis of one step
        return WorldState(st.player_pos[None], st.player_vel[None], st.kicking[None],
                          st.ball_pos[None], st.ball_vel[None], st.scores[None])

    rewards = reward_components(lead(s), actions[None], lead(s2), CFG).sum(axis=-1)[0]
    np.testing.assert_allclose(rewards, comps.sum(axis=1), atol=1e-15)


# ---------------------------------------------------------------------------
# the packed state: assigning a field writes into the state's one float array

FIELDS = ("player_pos", "player_vel", "kicking", "ball_pos", "ball_vel", "scores")


def assert_same_bits(a, b):
    a, b = np.asarray(a), np.asarray(b)
    assert a.dtype == b.dtype and a.shape == b.shape and a.tobytes() == b.tobytes()


@pytest.mark.parametrize("name", FIELDS)
def test_an_assigned_field_plays_like_a_state_built_from_the_arrays(name):
    s = reset(CFG, "fixed_formation")
    value = {"player_pos": np.vstack([[49.0, 29.5], s.player_pos[1:]]),  # player 0 kicks the ball
             "player_vel": np.full((6, 2), 0.75),
             "kicking": np.array([True, False, True, False, False, True]),
             "ball_pos": s.player_pos[3] + [1.0, -1.5],  # player 3 kicks it
             "ball_vel": np.array([-1.5, 0.25]),
             "scores": np.array([2, 1])}[name]
    built = WorldState(**{f: value if f == name else getattr(s, f).copy() for f in FIELDS})
    setattr(s, name, value)
    assert_same_bits(getattr(s, name), value)
    actions = np.array([9, 13, 17, 10, 4, 0])
    for team in (0, 1):
        assert_same_bits(observe_team(s, team, CFG), observe_team(built, team, CFG))
    (got, got_ev), (want, want_ev) = step(s, actions, CFG), step(built, actions, CFG)
    for f in FIELDS:
        assert_same_bits(getattr(got, f), getattr(want, f))
    assert got_ev == want_ev
    assert bool(got_ev.ball_touches) == (name in ("player_pos", "ball_pos"))
    assert_same_bits(reward_components(s, actions, got, CFG), reward_components(built, actions, want, CFG))


# ---------------------------------------------------------------------------
# config validation


@pytest.mark.parametrize("kwargs", [
    {"goal_width": 60.0},
    {"wall_restitution": 0.0},
    {"ball_damping": 1.5},
    {"steps_per_game": 0},
    {"player_radius": -1.0},
])
def test_env_config_rejects_bad_values(kwargs):
    with pytest.raises(ValueError):
        EnvConfig(**kwargs).validate()
