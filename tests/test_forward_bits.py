"""The tape-free forward path holds the bits of the reference kernels in forward_reference.py.

Every output is compared with ``np.array_equal(..., equal_nan=True)``: the
same shape and the same value in every entry, NaN where the reference has
NaN. Covers the smoke and default nets, one (3, 22) team of rows and stacked
(T, 3, 22) observations, and logits rows that hold +-inf, NaN or one
dominant entry.
"""

import forward_reference as ref
import numpy as np
import pytest

from taaclab import baselines, nets, nn
from taaclab.baselines import build_policy
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
