"""The tape-free forward path holds the bits of the reference kernels in forward_reference.py.

Every output is compared with ``np.array_equal(..., equal_nan=True)``: the
same shape and the same value in every entry, NaN where the reference has
NaN. Covers the smoke and default nets, one (3, 22) team of rows and stacked
(T, 3, 22) observations, and logits rows that hold +-inf, NaN or one
dominant entry. The forward over two teams' stacked weights holds each
team's own bits, in one step and over whole games, for two teams of one kind
and for a taac and a taac_ablation team in either order; teams that do not
pair build no stack, and a stacked attention holds one copy of its weights.
"""

import forward_reference as ref
import numpy as np
import pytest

from taaclab import baselines, evaluation, nets, nn
from taaclab.baselines import build_policy, joint_act
from taaclab.env import EnvConfig
from taaclab.nets import TaacNetConfig

SMOKE = TaacNetConfig(d_model=32, actor_heads=2, critic_heads=2, embed_hidden=32, post_hidden=32)
NETS = {"smoke": SMOKE, "default": TaacNetConfig()}
SHAPES = [(3,), (240, 3), (4, 5, 3)]  # leading axes of the (..., 3, 22) observations


def same(a, b) -> bool:
    return a.shape == b.shape and a.dtype == b.dtype and np.array_equal(a, b, equal_nan=True)


def observations(lead, seed):
    """Observations at pitch scale, as ``observe_team`` gives them."""
    return np.random.default_rng(seed).uniform(-60.0, 60.0, size=lead + (22,))


@pytest.mark.parametrize("lead", SHAPES, ids=str)
@pytest.mark.parametrize("net", NETS, ids=str)
@pytest.mark.parametrize("kind", ["taac", "taac_ablation", "ppo"])
def test_probs_np_equals_the_reference_kernels(kind, net, lead):
    policy = build_policy(kind, NETS[net], np.random.default_rng(7))
    obs = observations(lead, 1)
    if kind == "ppo":
        assert same(policy.probs_np(obs), ref.ppo_probs(policy, obs))
        assert same(policy.values_np(obs), ref.ppo_values(policy, obs))
    else:
        assert same(policy.actor.probs_np(obs), ref.actor_probs(policy.actor, obs))


@pytest.mark.parametrize("lead", SHAPES, ids=str)
@pytest.mark.parametrize("net", NETS, ids=str)
def test_critic_q_np_equals_the_reference_kernels(net, lead):
    policy = build_policy("taac", NETS[net], np.random.default_rng(8))
    obs = observations(lead, 2)
    actions = np.random.default_rng(3).integers(0, 18, size=lead)
    assert same(policy.critic.q_np(obs, actions), ref.critic_q(policy.critic, obs, actions))


@pytest.mark.parametrize("net", NETS, ids=str)
@pytest.mark.parametrize("kind", ["taac", "taac_ablation", "ppo"])
def test_act_draws_the_reference_ids_from_equal_generators(kind, net):
    policy = build_policy(kind, NETS[net], np.random.default_rng(9))
    rng, rng_ref = np.random.default_rng(11), np.random.default_rng(11)
    for t in range(200):
        obs = observations((3,), 100 + t)
        assert same(policy.act(obs, rng), ref.act(policy, obs, rng_ref))
    assert rng.random() == rng_ref.random()  # both drew the same number of values


def extreme_logits(rng):
    """(12, 18) logits rows: ordinary, one dominant entry (800 and 1e300 above the rest),
    +inf once and twice, -inf in all but one entry and in every entry, NaN, and mixes."""
    rows = rng.normal(size=(12, 18)) * 3
    rows[1, 4] = 800.0
    rows[2, 17] = 1e300
    rows[3, 0] = np.inf
    rows[4, [2, 9]] = np.inf
    rows[5, 1:] = -np.inf
    rows[6] = -np.inf
    rows[7, 5] = np.nan
    rows[8, [0, 3]] = [np.inf, -np.inf]
    rows[9, 7] = -800.0
    rows[10] = 0.0
    rows[11, 0] = -0.0
    return rows


@pytest.mark.filterwarnings("ignore::RuntimeWarning")
@pytest.mark.parametrize("lead", [(), (3,), (2, 4)], ids=str)
def test_softmax_and_sampler_equal_the_reference_on_extreme_logits(lead):
    rng = np.random.default_rng(12)
    logits = extreme_logits(rng)
    logits = np.broadcast_to(logits, lead + logits.shape).copy()
    probs = nets._stable_softmax_np(logits.copy())
    expected = ref._stable_softmax_np(logits.copy())
    assert same(probs, expected)
    assert np.isnan(expected).any() and (expected == 1.0).any()  # the rows reach both cases
    rows = probs.reshape(-1, 18)
    for seed in range(20):
        assert same(baselines._sample_rows(rows, np.random.default_rng(seed)),
                    ref._sample_rows(rows, np.random.default_rng(seed)))


@pytest.mark.filterwarnings("ignore::RuntimeWarning")
@pytest.mark.parametrize("lead", [(), (5,), (2, 3)], ids=str)
@pytest.mark.parametrize("heads", [1, 2, 4])
def test_attention_and_dense_kernels_equal_the_reference_on_extreme_inputs(heads, lead):
    rng = np.random.default_rng(13)
    attn = nn.MultiHeadAttention.create(16, heads, rng)
    mlp = nn.Mlp.create([16, 8, 8, 1], ("relu", "relu", "identity"), rng)
    m = rng.normal(size=lead + (3, 16)) * 2
    m.reshape(-1, 16)[:3, :2] = [[np.inf, 1.0], [np.nan, 0.0], [1e300, -np.inf]]  # the first team
    packed = attn._packed_weights()
    for got, expected in zip(nn._attend(m, packed, heads), ref._attend(m, packed, heads)):
        assert same(got, expected)
    got_pre, ref_pre = [], []
    assert same(mlp.forward_np(m, got_pre), ref.mlp_forward_np(mlp, m, ref_pre))
    assert len(got_pre) == len(ref_pre) == 2 and all(map(same, got_pre, ref_pre))
    rows = m.reshape(-1, 16)
    out, ref_out = np.empty((len(rows), 8)), np.empty((len(rows), 8))
    assert same(nn._dense(rows, mlp.layers[0], out=out), ref._dense(rows, mlp.layers[0], out=ref_out))
    assert same(out, ref_out)


def stacked_probs(team0, team1, obs):
    if team0.kind == "ppo":
        return baselines.PpoTeamPolicy.stacked([team0, team1]).probs_np(obs)
    return nets.ActorNet.stacked([team0.actor, team1.actor]).probs_np(obs)


def lone_probs(team, obs):
    return team.probs_np(obs) if team.kind == "ppo" else team.actor.probs_np(obs)


# two teams of one kind, then a taac and a taac_ablation team in both orders
PAIRS = [("taac",) * 2, ("taac_ablation",) * 2, ("ppo",) * 2, ("taac", "taac_ablation"), ("taac_ablation", "taac")]


def pair_id(kinds) -> str:
    return kinds[0] if kinds[0] == kinds[1] else "+".join(kinds)


@pytest.mark.parametrize("net", NETS, ids=str)
@pytest.mark.parametrize("kinds", PAIRS, ids=pair_id)
def test_each_slot_of_the_paired_forward_equals_its_teams_own(kinds, net):
    teams = [build_policy(kind, NETS[net], np.random.default_rng(seed)) for kind, seed in zip(kinds, (21, 22))]
    act = joint_act(*teams)
    for t in range(50):
        obs = observations((2, 3), 200 + t)
        probs = stacked_probs(*teams, obs)
        assert probs.shape == (2, 3, 18)
        for k, team in enumerate(teams):
            assert same(probs[k], lone_probs(team, obs[k]))
        draws = [np.random.default_rng(t + 1000 * (k % 2)) for k in range(4)]  # joint_act's, then act's
        a0, a1 = act(obs[0], obs[1], draws[0], draws[1])
        assert same(a0, teams[0].act(obs[0], draws[2])) and same(a1, teams[1].act(obs[1], draws[3]))
        assert draws[0].random() == draws[2].random() and draws[1].random() == draws[3].random()


class Delegate:
    """Acts as the team it wraps, but is not of a class that pairs."""

    def __init__(self, team):
        self.team = team

    def __getattr__(self, name):
        return getattr(self.team, name)


def count_stacks(monkeypatch) -> list:
    """The part counts of every actor or ppo stack built from now on."""
    built = []
    for owner in (nets.ActorNet, baselines.PpoTeamPolicy):
        def counting(parts, stacked=owner.stacked):
            built.append(len(parts))
            return stacked(parts)
        monkeypatch.setattr(owner, "stacked", counting)
    return built


# a short pitch with a wide goal: goals and respawns happen within a game
CRAMPED = EnvConfig(pitch_length=20.0, pitch_width=14.0, goal_width=10.0, steps_per_game=120)


@pytest.mark.parametrize("kinds", PAIRS, ids=pair_id)
def test_a_paired_game_equals_the_same_game_played_unpaired(kinds, monkeypatch):
    teams = [build_policy(kind, SMOKE, np.random.default_rng(seed)) for kind, seed in zip(kinds, (31, 32))]
    built = count_stacks(monkeypatch)
    games, next_draws = [], []
    for team1 in (teams[1], Delegate(teams[1])):
        rng = np.random.default_rng(4)  # one generator for spawns and both teams, as in training
        games.append(evaluation.play_game(teams[0], team1, CRAMPED, "random_spawns", rng, rng, rng))
        next_draws.append(rng.random())  # both games drew the same count of values
    assert built == [2]  # the paired game stacked once, over both teams; the unpaired one not at all
    paired, unpaired = games
    assert sum(ev.goal_scored is not None for ev in unpaired.events) > 0
    assert sum(ev.episode_done for ev in unpaired.events) > 1  # a respawn at least
    assert same(paired.obs0, unpaired.obs0) and same(paired.actions, unpaired.actions)
    assert same(paired.after, unpaired.after) and paired.trail.rows == unpaired.trail.rows
    rows = paired.trail.rows
    for name in ("packed", "kicking", "scores"):
        assert same(getattr(paired.trail, name)[:rows], getattr(unpaired.trail, name)[:rows])
    assert paired.events == unpaired.events and next_draws[0] == next_draws[1]


SCALED = TaacNetConfig(**{**vars(SMOKE), "obs_scale": 50.0})  # SMOKE's shapes, another config


@pytest.mark.parametrize("kinds, cfg1", [
    (("taac", "ppo"), SMOKE), (("taac", "random"), SMOKE), (("taac", "inactive"), SMOKE),
    (("taac_ablation", "ppo"), SMOKE), (("ppo", "random"), SMOKE), (("random", "random"), SMOKE),
    (("taac", "taac"), SCALED), (("taac", "taac_ablation"), SCALED), (("ppo", "ppo"), SCALED),
], ids=lambda v: "+".join(v) if isinstance(v, tuple) else ("scaled" if v is SCALED else "smoke"))
def test_teams_of_different_classes_or_net_configs_do_not_pair(kinds, cfg1, monkeypatch):
    """``joint_act`` builds no stack for them, and acts with the ids of two ``act`` calls."""
    teams = [build_policy(kind, cfg, np.random.default_rng(seed))
             for seed, (kind, cfg) in enumerate(zip(kinds, (SMOKE, cfg1)))]

    def refuse(parts):
        raise AssertionError(f"built a stack of {len(parts)} teams")

    for owner in (nets.ActorNet, baselines.PpoTeamPolicy):
        monkeypatch.setattr(owner, "stacked", refuse)
    for pair in (teams, teams[::-1], (teams[0], Delegate(teams[0]))):
        act = joint_act(*pair)
        for t in range(5):
            obs = observations((2, 3), 300 + t)
            draws = [np.random.default_rng(t + 1000 * (k % 2)) for k in range(4)]  # joint_act's, then act's
            a0, a1 = act(obs[0], obs[1], draws[0], draws[1])
            assert same(a0, pair[0].act(obs[0], draws[2])) and same(a1, pair[1].act(obs[1], draws[3]))
            assert draws[0].random() == draws[2].random() and draws[1].random() == draws[3].random()


@pytest.mark.parametrize("n_heads", [1, 2, 4])
def test_a_stacked_attention_holds_one_copy_of_its_weights(n_heads):
    rng = np.random.default_rng(6)
    blocks = [nn.MultiHeadAttention.create(8, n_heads, rng) for _ in range(2)]
    stack = nn.MultiHeadAttention.stacked(blocks)
    packed = stack._packed  # seeded by stacked: the first forward builds nothing
    assert packed.shape == (2, 8, 3 * 8) and stack._packed_weights() is packed
    assert all(np.shares_memory(w.data, packed) for w in stack.parameters())
    assert all(b._packed is None for b in blocks)  # no lone block built its own pack
    for k, b in enumerate(blocks):
        assert same(packed[k], np.concatenate([p.data for p in b._projections], axis=-1))
    m = rng.normal(size=(2, 3, 8))
    out = stack.forward_np(m)
    assert stack._packed_weights() is packed
    for k, b in enumerate(blocks):
        assert same(out[k], b.forward_np(m[k]))


def test_stacking_refuses_parts_that_differ_naming_the_difference():
    taac = [build_policy("taac", cfg, np.random.default_rng(1)) for cfg in (SMOKE, SCALED)]
    with pytest.raises(ValueError, match="cannot stack actors: obs_scale is 50.0 in part 1 but 100.0 in part 0"):
        nets.ActorNet.stacked([t.actor for t in taac])
    ppo = [build_policy("ppo", cfg, np.random.default_rng(1)) for cfg in (SMOKE, SCALED)]
    with pytest.raises(ValueError, match="cannot stack ppo policies: obs_scale is 50.0"):
        baselines.PpoTeamPolicy.stacked(ppo)
    rng = np.random.default_rng(2)
    mlp = nn.Mlp.create([4, 8, 2], ("relu", "identity"), rng)
    cases = [(nn.Mlp.create([4, 8, 2], ("relu", "relu"), rng), "layer 1 activation is 'relu' in part 1 but 'identity'"),
             (nn.Mlp.create([4, 6, 2], ("relu", "identity"), rng), r"layer 0 weight shape is \(4, 6\) in part 1"),
             (nn.Mlp.create([4, 8], ("relu",), rng), "layer 1 weight shape is None in part 1")]
    for other, message in cases:
        with pytest.raises(ValueError, match="cannot stack mlps: " + message):
            nn.Mlp.stacked([mlp, other])
    attn = nn.MultiHeadAttention.create(8, 2, rng)
    for other, message in [(nn.MultiHeadAttention.create(8, 4, rng), r"head 0 wq shape is \(8, 2\) in part 1"),
                           (nn.MultiHeadAttention.create(8, 1, rng), r"head 0 wq shape is \(8, 8\) in part 1")]:
        with pytest.raises(ValueError, match="cannot stack attention blocks: " + message):
            nn.MultiHeadAttention.stacked([attn, other])
