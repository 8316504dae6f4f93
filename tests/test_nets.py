import json
import os
import re

import baseline_reference
import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from taaclab import autodiff as ad
from taaclab import learner, nets
from taaclab.autodiff import Tensor, grad_check
from taaclab.baselines import build_policy
from taaclab.env import EnvConfig, observe_team, reset
from taaclab.nets import (
    ActorNet,
    CriticNet,
    PolicySnapshot,
    TaacNetConfig,
    conformity_loss,
    counterfactual_baselines,
    counterfactual_baselines_batch,
    load_snapshot,
    restore_params,
    save_snapshot,
    snapshot_params,
)
from taaclab.nn import Mlp

SMALL = TaacNetConfig(obs_width=8, n_actions=6, d_model=8, actor_heads=2, critic_heads=2,
                      embed_hidden=8, post_hidden=8, obs_scale=1.0)
SMOKE = TaacNetConfig(d_model=32, actor_heads=2, critic_heads=2, embed_hidden=32, post_hidden=32)
ENV_NET = TaacNetConfig()


def env_obs(seed=0):
    cfg = EnvConfig()
    state = reset(cfg, "random_spawns", np.random.default_rng(seed))
    return observe_team(state, 0, cfg)


# ---------------------------------------------------------------------------
# actor


def test_fresh_actor_is_near_uniform_on_pitch_scale_inputs():
    for seed in range(5):
        actor = ActorNet(ENV_NET, np.random.default_rng(seed))
        dists, _ = actor.forward(env_obs(seed))
        assert np.abs(dists.data - 1.0 / 18.0).max() < 0.05


@given(st.integers(0, 2**32 - 1))
@settings(max_examples=20, deadline=None)
def test_actor_rows_are_valid_distributions(seed):
    rng = np.random.default_rng(seed)
    actor = ActorNet(SMALL, rng)
    dists, _ = actor.forward(rng.normal(size=(3, 8)))
    np.testing.assert_allclose(dists.data.sum(axis=1), np.ones(3), atol=1e-6)
    assert np.all(dists.data >= 0) and np.all(dists.data <= 1)


def test_identical_observations_get_identical_rows():
    rng = np.random.default_rng(1)
    actor = ActorNet(SMALL, rng)
    obs = rng.normal(size=(3, 8))
    obs[1] = obs[0]
    dists, _ = actor.forward(obs)
    np.testing.assert_allclose(dists.data[0], dists.data[1], atol=1e-12)


def test_actor_permutation_equivariance():
    rng = np.random.default_rng(2)
    actor = ActorNet(SMALL, rng)
    obs = rng.normal(size=(3, 8))
    base, _ = actor.forward(obs)
    for perm in ([1, 2, 0], [2, 0, 1], [0, 2, 1]):
        permuted, _ = actor.forward(obs[perm])
        np.testing.assert_allclose(permuted.data, base.data[perm], atol=1e-12)


def test_actor_rejects_width_mismatch():
    actor = ActorNet(SMALL, np.random.default_rng(0))
    with pytest.raises(ad.ShapeError):
        actor.forward(np.zeros((3, 9)))


def test_actor_embeddings_feed_conformity_width():
    actor = ActorNet(SMALL, np.random.default_rng(3))
    _, emb = actor.forward(np.zeros((3, 8)))
    assert emb.shape == (3, actor.attn.out_width)


# ---------------------------------------------------------------------------
# critic


def test_critic_constant_head_gives_constant_values():
    rng = np.random.default_rng(4)
    critic = CriticNet(SMALL, rng)
    critic.post.layers[-1].w.data[:] = 0.0
    critic.post.layers[-1].b.data[:] = 1.25
    q = critic.forward(rng.normal(size=(3, 8)), np.array([0, 3, 5]))
    np.testing.assert_allclose(q.data, np.full(3, 1.25), atol=1e-12)


def test_critic_permutation_equivariance():
    rng = np.random.default_rng(5)
    critic = CriticNet(SMALL, rng)
    obs = rng.normal(size=(3, 8))
    acts = np.array([1, 4, 2])
    base = critic.forward(obs, acts)
    perm = [2, 0, 1]
    permuted = critic.forward(obs[perm], acts[perm])
    np.testing.assert_allclose(permuted.data, base.data[perm], atol=1e-12)


def test_critic_matches_scalar_loop_reference():
    """Independent re-implementation: per-agent embed, per-head scalar attention,
    concat with the original embedding, then the value head."""
    rng = np.random.default_rng(6)
    critic = CriticNet(SMALL, rng)
    obs = rng.normal(size=(3, 8))
    acts = np.array([5, 0, 2])
    got = critic.forward(obs, acts).data

    def mlp_rows(mlp, rows):
        outs = []
        for x in rows:
            h = np.asarray(x, dtype=float)
            for layer in mlp.layers:
                h = h @ layer.w.data + layer.b.data
                if layer.activation == "relu":
                    h = np.maximum(h, 0.0)
            outs.append(h)
        return np.stack(outs)

    onehot = np.zeros((3, SMALL.n_actions))
    onehot[np.arange(3), acts] = 1.0
    rows = np.concatenate([obs / SMALL.obs_scale, onehot], axis=1)
    m = mlp_rows(critic.embed, rows)

    head_outs = []
    for head in critic.attn.heads:
        q = m @ head.wq.data
        k = m @ head.wk.data
        v = m @ head.wv.data
        out = np.zeros_like(v)
        for i in range(3):
            scores = np.array([q[i] @ k[j] / np.sqrt(k.shape[1]) for j in range(3)])
            e = np.exp(scores - scores.max())
            w = e / e.sum()
            for j in range(3):
                out[i] += w[j] * v[j]
        head_outs.append(out)
    attended = np.concatenate(head_outs, axis=1)
    expected = mlp_rows(critic.post, np.concatenate([m, attended], axis=1))[:, 0]
    np.testing.assert_allclose(got, expected, atol=1e-10)


def test_critic_rejects_bad_action_ids():
    critic = CriticNet(SMALL, np.random.default_rng(7))
    with pytest.raises(ValueError):
        critic.forward(np.zeros((3, 8)), np.array([0, 6, 1]))


def test_zeroed_attention_decouples_agents_but_not_own_path():
    rng = np.random.default_rng(8)
    actor = ActorNet(SMALL, rng)
    critic = CriticNet(SMALL, rng)
    for head in actor.attn.heads:
        head.wv.data[:] = 0.0
    for head in critic.attn.heads:
        head.wv.data[:] = 0.0

    obs = rng.normal(size=(3, 8))
    acts = np.array([1, 2, 3])
    base_dists, _ = actor.forward(obs)
    base_q = critic.forward(obs, acts)

    other = obs.copy()
    other[2] += 7.5  # perturb a teammate
    dists2, _ = actor.forward(other)
    q2 = critic.forward(other, acts)
    np.testing.assert_array_equal(dists2.data[:2], base_dists.data[:2])
    np.testing.assert_array_equal(q2.data[:2], base_q.data[:2])

    own = obs.copy()
    own[0] += 1.0  # perturb the agent's own observation
    q3 = critic.forward(own, acts)
    assert abs(q3.data[0] - base_q.data[0]) > 1e-8
    acts2 = acts.copy()
    acts2[0] = 5
    q4 = critic.forward(obs, acts2)
    assert abs(q4.data[0] - base_q.data[0]) > 1e-8


# ---------------------------------------------------------------------------
# counterfactual baseline


def test_baseline_with_constant_critic_is_that_constant():
    rng = np.random.default_rng(9)
    critic = CriticNet(SMALL, rng)
    critic.post.layers[-1].w.data[:] = 0.0
    critic.post.layers[-1].b.data[:] = -0.75
    probs = np.full((3, 6), 1.0 / 6.0)
    b = counterfactual_baselines(np.zeros((3, 8)), np.array([0, 1, 2]), probs, critic)
    np.testing.assert_allclose(b, np.full(3, -0.75), atol=1e-12)


def test_baseline_with_deterministic_policy_picks_that_action():
    rng = np.random.default_rng(10)
    critic = CriticNet(SMALL, rng)
    obs = rng.normal(size=(3, 8))
    acts = np.array([4, 1, 3])
    probs = np.zeros((3, 6))
    star = np.array([2, 5, 0])
    probs[np.arange(3), star] = 1.0
    b = counterfactual_baselines(obs, acts, probs, critic)
    for i in range(3):
        swapped = acts.copy()
        swapped[i] = star[i]
        expected = critic.q_np(obs, swapped)[i]
        assert abs(b[i] - expected) < 1e-12


def test_baseline_matches_explicit_18_term_loop():
    rng = np.random.default_rng(11)
    net_cfg = TaacNetConfig(obs_width=8, d_model=8, actor_heads=2, critic_heads=2,
                            embed_hidden=8, post_hidden=8, obs_scale=1.0)
    actor = ActorNet(net_cfg, rng)
    critic = CriticNet(net_cfg, rng)
    obs = rng.normal(size=(3, 8))
    acts = np.array([17, 3, 9])
    probs = actor.probs_np(obs)
    b = counterfactual_baselines(obs, acts, probs, critic)
    for i in range(3):
        total = 0.0
        for a in range(18):
            varied = acts.copy()
            varied[i] = a
            total += probs[i, a] * critic.forward(obs, varied).data[i]
        assert abs(b[i] - total) < 1e-10


def test_baseline_identity_and_own_action_invariance():
    rng = np.random.default_rng(12)
    actor = ActorNet(SMALL, rng)
    critic = CriticNet(SMALL, rng)
    obs = rng.normal(size=(3, 8))
    acts = np.array([0, 5, 3])
    probs = actor.probs_np(obs)
    b = counterfactual_baselines(obs, acts, probs, critic)
    for i in range(3):
        residual = 0.0
        for a in range(6):
            varied = acts.copy()
            varied[i] = a
            residual += probs[i, a] * (critic.q_np(obs, varied)[i] - b[i])
        assert abs(residual) < 1e-8
    for own in range(6):
        varied = acts.copy()
        varied[1] = own
        b2 = counterfactual_baselines(obs, varied, probs, critic)
        assert b2[1] == b[1]


def _baseline_batch(T):
    rng = np.random.default_rng(13)
    critic = CriticNet(SMALL, rng)
    obs = rng.normal(size=(T, 3, 8))
    acts = rng.integers(0, 6, size=(T, 3))
    probs = rng.random(size=(T, 3, 6))
    probs /= probs.sum(axis=-1, keepdims=True)
    return obs, acts, probs, critic


def test_batched_baselines_match_per_transition():
    assert nets._CF_BLOCK_ROWS // (3 * SMALL.n_actions) == 56  # T = 130: blocks of 56, 56 and 18
    for T in (1, 2 * 56 + 18):
        obs, acts, probs, critic = _baseline_batch(T)
        batch = counterfactual_baselines_batch(obs, acts, probs, critic)
        assert batch.shape == (T, 3)
        for t in range(T):
            single = counterfactual_baselines(obs[t], acts[t], probs[t], critic)
            np.testing.assert_allclose(batch[t], single, atol=1e-12)


@pytest.mark.parametrize("bad", [-1, 6])
def test_batched_baselines_reject_a_bad_action_id_in_the_last_block(bad):
    assert nets._CF_BLOCK_ROWS // (3 * SMALL.n_actions) == 56
    obs, acts, probs, critic = _baseline_batch(2 * 56 + 18)
    acts[-1, 2] = bad  # only the ragged third block holds it
    with pytest.raises(ValueError, match="action ids out of range"):
        counterfactual_baselines_batch(obs, acts, probs, critic)


@pytest.mark.parametrize("acts", [lambda a: a + 0.5, lambda a: np.where(a == a[0, 0], -0.5, a),
                                  lambda a: a.astype(float), lambda a: a > 2],
                         ids=["plus-half", "minus-half", "float-valued-ints", "bool"])
def test_batched_baselines_refuse_action_ids_that_are_not_integers(acts):
    obs, ids, probs, critic = _baseline_batch(5)
    with pytest.raises(ValueError, match="action ids must be integers"):
        counterfactual_baselines_batch(obs, acts(ids), probs, critic)


@pytest.mark.parametrize("probs_shape", [(5, 3, 1), (1, 3, 6), (5, 1, 6)])
def test_batched_baselines_refuse_probs_that_would_broadcast(probs_shape):
    obs, acts, _, critic = _baseline_batch(5)
    with pytest.raises(ValueError, match=re.escape(f"got (5, 3), (5, 3, 8) and {probs_shape}")):
        counterfactual_baselines_batch(obs, acts, np.full(probs_shape, 0.5), critic)


@pytest.mark.parametrize("obs_shape", [(4, 3, 8), (5, 2, 8), (5, 3, 7), (5, 3)])
def test_batched_baselines_refuse_observations_of_another_shape(obs_shape):
    _, acts, probs, critic = _baseline_batch(5)
    with pytest.raises(ValueError, match=re.escape(f"got (5, 3), {obs_shape} and (5, 3, 6)")):
        counterfactual_baselines_batch(np.zeros(obs_shape), acts, probs, critic)


def test_batched_baselines_refuse_actions_that_are_not_one_row_per_transition():
    obs, acts, probs, critic = _baseline_batch(5)
    with pytest.raises(ValueError, match=re.escape("expected act_stack (T, n)")):
        counterfactual_baselines_batch(obs, acts.reshape(-1), probs, critic)


@pytest.mark.parametrize("actions", [np.array([0.5, 1.0, 2.0]), np.array([-0.5, 1.0, 2.0]),
                                     np.array([True, False, True])], ids=["plus-half", "minus-half", "bool"])
def test_critic_refuses_action_ids_that_are_not_integers(actions):
    critic = CriticNet(SMALL, np.random.default_rng(14))
    with pytest.raises(ValueError, match="action ids must be integers"):
        critic.q_np(np.zeros((3, 8)), actions)
    with pytest.raises(ValueError, match="action ids must be integers"):
        counterfactual_baselines(np.zeros((3, 8)), actions, np.full((3, 6), 1 / 6), critic)


# T = 17 and 19 end in a ragged block on the 18-transition blocks of the 18-action
# nets, 57 on the 56-transition blocks of SMALL; 480 runs 27 blocks
ORACLE_T = (1, 17, 18, 19, 56, 57, 130, 240, 480)


def _scaled_batch(cfg, T, rng):
    """Observations at the net's scale, random ids and distributions over (T, 3) agents."""
    obs = rng.normal(scale=cfg.obs_scale, size=(T, 3, cfg.obs_width))
    probs = rng.random(size=(T, 3, cfg.n_actions))
    return obs, rng.integers(0, cfg.n_actions, size=(T, 3)), probs / probs.sum(axis=-1, keepdims=True)


@pytest.mark.parametrize("kind", ["taac", "taac_ablation"])
@pytest.mark.parametrize("cfg", [SMALL, SMOKE, ENV_NET], ids=["small", "smoke", "default"])
def test_batched_baselines_equal_the_reference_kernel_bit_for_bit(cfg, kind):
    critic = build_policy(kind, cfg, np.random.default_rng(15)).critic
    rng = np.random.default_rng(16)
    for T in ORACLE_T:
        obs, acts, probs = _scaled_batch(cfg, T, rng)
        np.testing.assert_array_equal(
            counterfactual_baselines_batch(obs, acts, probs, critic),
            baseline_reference.counterfactual_baselines_batch(obs, acts, probs, critic), err_msg=f"T={T}")


def test_batched_baselines_equal_the_reference_kernel_on_three_concatenated_games():
    policy = build_policy("taac", SMOKE, np.random.default_rng(17))
    env_cfg = EnvConfig(steps_per_game=70)
    rng = np.random.default_rng(18)
    batch = [traj for _ in range(3)
             for traj in learner.play_training_game(policy, build_policy("random", SMOKE, rng), env_cfg,
                                                    rng, "random_spawns")[0]]
    obs, acts, _ = learner._stacked(batch, 0.9)
    assert len(batch) >= 3 and len(acts) == 210
    probs = policy.actor.probs_np(obs)
    np.testing.assert_array_equal(counterfactual_baselines_batch(obs, acts, probs, policy.critic),
                                  baseline_reference.counterfactual_baselines_batch(obs, acts, probs, policy.critic))


# ---------------------------------------------------------------------------
# conformity loss


def test_conformity_identical_embeddings_hits_scale():
    emb = Tensor(np.tile(np.array([0.3, -1.2, 0.5]), (3, 1)))
    assert abs(conformity_loss(emb, 0.05, 0.3).item() - 0.05) < 1e-8


def test_conformity_orthogonal_embeddings_hit_floor():
    emb = Tensor(np.eye(3))
    assert abs(conformity_loss(emb, 0.05, 0.3).item() - 0.05 * 0.3) < 1e-12


def test_conformity_three_vector_hand_case():
    emb = Tensor(np.array([[1.0, 0.0], [0.0, 1.0], [1 / np.sqrt(2), 1 / np.sqrt(2)]]))
    expected = (np.sqrt(2) / 3.0) * 0.05
    assert abs(conformity_loss(emb, 0.05, 0.3).item() - expected) < 1e-6 * 0.05


def test_conformity_rejects_single_embedding():
    with pytest.raises(ValueError):
        conformity_loss(Tensor(np.ones((1, 4))), 0.05, 0.3)


@given(st.integers(0, 2**32 - 1), st.floats(-1.0, 1.0))
@settings(max_examples=40, deadline=None)
def test_conformity_range_bounded_by_floor_and_scale(seed, floor):
    rng = np.random.default_rng(seed)
    emb = Tensor(rng.normal(size=(3, 4)))
    value = conformity_loss(emb, 0.05, floor).item()
    assert 0.05 * floor - 1e-9 <= value <= 0.05 + 1e-9


def test_conformity_gradient_flows_when_floor_inactive():
    rng = np.random.default_rng(14)
    emb = Tensor(rng.normal(size=(3, 5)), requires_grad=True)
    err = grad_check(lambda: conformity_loss(emb, 0.7, -2.0), [emb])
    assert err < 1e-4


def test_conformity_gradient_blocked_when_floor_active():
    emb = Tensor(np.eye(3), requires_grad=True)
    loss = conformity_loss(emb, 0.05, 0.9)  # mean cosine 0 < 0.9
    ad.backward(loss)
    np.testing.assert_array_equal(emb.grad, np.zeros((3, 3)))


def test_log_policy_gradient_flows():
    from taaclab.checks import KINK_MARGIN, _actor_min_preact

    # screen out draws whose relu pre-activations sit within finite-difference
    # range of the kink; central differences are invalid across it
    for seed in range(15, 40):
        rng = np.random.default_rng(seed)
        actor = ActorNet(SMALL, rng)
        obs = rng.normal(size=(3, 8))
        if _actor_min_preact(actor, obs) >= KINK_MARGIN:
            break
    acts = np.array([0, 2, 4])

    def loss_fn():
        logdists, _ = actor.forward(obs, log_probs=True)
        return ad.neg(ad.reduce_mean(ad.gather(logdists, acts)))

    assert grad_check(loss_fn, actor.parameters()) < 1e-4


# ---------------------------------------------------------------------------
# snapshots


def test_snapshot_round_trip_reproduces_outputs_bit_exactly(tmp_path):
    from taaclab.baselines import TaacTeamPolicy
    from taaclab.nets import load_snapshot, save_snapshot

    rng = np.random.default_rng(16)
    policy = TaacTeamPolicy(SMALL, rng)
    obs = rng.normal(size=(3, 8))
    expected = policy.actor.probs_np(obs)

    snap = policy.to_snapshot(version=7)
    path = tmp_path / "snap.json"
    save_snapshot(snap, path)
    # the file holds the bytes the streaming encoder writes
    streamed = tmp_path / "streamed.json"
    with open(streamed, "w") as fh:
        json.dump(snap.to_doc(), fh)
    assert path.read_bytes() == streamed.read_bytes()
    loaded = load_snapshot(path)
    assert loaded.version == 7 and loaded.kind == "taac"

    other = TaacTeamPolicy(SMALL, np.random.default_rng(999))
    other.load_snapshot(loaded)
    np.testing.assert_array_equal(other.actor.probs_np(obs), expected)


def test_snapshot_hash_mismatch_fails_loudly():
    from taaclab.baselines import TaacTeamPolicy

    rng = np.random.default_rng(17)
    policy = TaacTeamPolicy(SMALL, rng)
    snap = policy.to_snapshot(version=1)
    bad = PolicySnapshot(kind=snap.kind, flags=snap.flags, version=1,
                         config_hash="0" * 64, params=snap.params)
    with pytest.raises(ValueError, match="hash"):
        policy.load_snapshot(bad)


def test_snapshot_params_are_copies_not_aliases():
    from taaclab.baselines import TaacTeamPolicy

    policy = TaacTeamPolicy(SMALL, np.random.default_rng(18))
    snap = policy.to_snapshot(version=1)
    before = {k: v.copy() for k, v in snap.params.items()}
    for p in policy.actor.parameters():
        p.data += 1.0
    for key in before:
        np.testing.assert_array_equal(snap.params[key], before[key])


def test_snapshot_doc_survives_json_text_round_trip():
    from taaclab.baselines import TaacTeamPolicy

    policy = TaacTeamPolicy(SMALL, np.random.default_rng(19))
    snap = policy.to_snapshot(version=3)
    doc = json.loads(json.dumps(snap.to_doc()))
    restored = PolicySnapshot.from_doc(doc)
    for key, arr in snap.params.items():
        np.testing.assert_array_equal(restored.params[key], arr)


@pytest.mark.parametrize("net", ["actor", "critic"])
def test_packed_attention_projection_follows_weight_replacement(net, tmp_path):
    from taaclab.baselines import TaacTeamPolicy
    from taaclab.learner import Adam
    from taaclab.nn import AttentionHead, MultiHeadAttention

    rng = np.random.default_rng(19)
    policy = TaacTeamPolicy(SMALL, rng)
    attn = getattr(policy, net).attn
    m = rng.normal(size=(2, 3, SMALL.d_model))

    def same_bits_as_a_fresh_module():
        fresh = MultiHeadAttention([AttentionHead(*(Tensor(w.data.copy()) for w in (h.wq, h.wk, h.wv)))
                                    for h in attn.heads])
        out = attn.forward_np(m)
        assert out.tobytes() == fresh.forward_np(m).tobytes()
        return out.tobytes()

    before = same_bits_as_a_fresh_module()  # packs the projection
    opt = Adam(attn.parameters(), 1e-2)
    for p in attn.parameters():
        p.grad = rng.normal(size=p.shape)
    opt.step()
    after_step = same_bits_as_a_fresh_module()
    assert after_step != before

    path = tmp_path / "snap.json"
    save_snapshot(TaacTeamPolicy(SMALL, np.random.default_rng(20)).to_snapshot(version=1), path)
    policy.load_snapshot(load_snapshot(path))
    assert same_bits_as_a_fresh_module() not in (before, after_step)


# ---------------------------------------------------------------------------
# snapshot codec


def _mlp_snapshot(net, version=1):
    return PolicySnapshot(kind="ppo", flags={}, version=version, config_hash="0" * 64,
                          params=snapshot_params(net.named_parameters("net")))


def test_snapshot_codec_round_trips_mlp_weights_bit_exactly():
    rng = np.random.default_rng(11)
    net = Mlp.create([4, 5, 2], ("relu", "identity"), rng)
    doc = json.loads(json.dumps(_mlp_snapshot(net).to_doc()))  # through real JSON text

    other = Mlp.create([4, 5, 2], ("relu", "identity"), np.random.default_rng(99))
    restore_params(other.named_parameters("net"), PolicySnapshot.from_doc(doc).params)
    x = rng.normal(size=(3, 4))
    np.testing.assert_array_equal(other.forward_np(x), net.forward_np(x))


def test_restore_params_rejects_shape_mismatch():
    rng = np.random.default_rng(12)
    net = Mlp.create([4, 5], ("relu",), rng)
    doc = _mlp_snapshot(net).to_doc()
    doc["params"]["net.0.w"]["shape"] = [5, 4]  # same byte count, other shape
    with pytest.raises(ValueError, match="shape mismatch"):
        restore_params(net.named_parameters("net"), PolicySnapshot.from_doc(doc).params)


def test_restore_params_rejects_missing_and_extra_keys():
    rng = np.random.default_rng(13)
    net = Mlp.create([4, 5], ("relu",), rng)
    params = dict(PolicySnapshot.from_doc(_mlp_snapshot(net).to_doc()).params)
    params["stray"] = np.zeros(1)
    with pytest.raises(ValueError, match="extra"):
        restore_params(net.named_parameters("net"), params)
    del params["stray"], params["net.0.b"]
    with pytest.raises(ValueError, match="missing"):
        restore_params(net.named_parameters("net"), params)


def test_snapshot_codec_round_trips_special_values_and_layouts_bit_exactly():
    nan_payload = np.array([0x7FF8000000000123], dtype=np.uint64).view(np.float64)[0]
    special = np.array([-0.0, 0.0, 5e-324, -2.2250738585072e-308, np.inf, -np.inf,
                        nan_payload, 1.0 / 3.0, -1e308, np.nextafter(1.0, 2.0)])
    grid = np.arange(24, dtype=np.float64).reshape(4, 6) / 7.0
    params = {
        "special": special,
        "strided": grid[:, ::2],                 # non-contiguous view
        "transposed": grid.T,                    # Fortran-ordered view
        "big_endian": grid.astype(">f8"),
        "scalar": np.array(-0.0),
        "empty": np.zeros((0, 3)),
    }
    snap = PolicySnapshot(kind="ppo", flags={}, version=2, config_hash="0" * 64, params=params)
    restored = PolicySnapshot.from_doc(json.loads(json.dumps(snap.to_doc()))).params
    for key, arr in params.items():
        got = restored[key]
        assert got.shape == arr.shape
        assert got.dtype == np.float64 and got.dtype.isnative
        assert got.flags.c_contiguous and got.flags.writeable
        expected_bits = np.ascontiguousarray(arr, dtype=np.float64).view(np.uint64)
        np.testing.assert_array_equal(got.view(np.uint64), expected_bits)


@pytest.mark.parametrize("corrupt, message", [
    (lambda p: p["net.0.w"].pop("f8le_base64"), "missing or non-string"),
    (lambda p: p["net.0.w"].update(f8le_base64=[0.5, 1.5]), "missing or non-string"),
    (lambda p: p["net.0.w"].update(f8le_base64="not base64!"), "invalid base64"),
    (lambda p: p["net.0.w"].update(f8le_base64=p["net.0.w"]["f8le_base64"][:-12]), "payload bytes"),
    (lambda p: p["net.0.w"].update(shape=[2, 2]), "payload bytes"),
    (lambda p: p["net.0.w"].update(shape="4x5"), "shape must be"),
    (lambda p: p["net.0.w"].update(shape=[True, 20]), "shape must be"),  # bool is not a size
    (lambda p: p["net.0.w"].update(data=[0.0] * 20), "text snapshots are no longer read"),
    (lambda p: p.update({"net.0.w": [0.5]}), "expected an object"),
    (lambda p: p.update({"net.0.w": "data"}), "expected an object"),  # not a substring test
], ids=["missing", "non_string", "bad_base64", "short", "wrong_shape", "bad_shape", "bool_shape",
        "text_format", "list_entry", "string_entry"])
def test_snapshot_codec_rejects_bad_payloads_naming_the_parameter(corrupt, message):
    net = Mlp.create([4, 5], ("relu",), np.random.default_rng(14))
    doc = json.loads(json.dumps(_mlp_snapshot(net).to_doc()))
    corrupt(doc["params"])
    with pytest.raises(ValueError, match=message) as err:
        PolicySnapshot.from_doc(doc)
    assert "net.0.w" in str(err.value)


def _without(key):
    return lambda d: {k: v for k, v in d.items() if k != key}


def _with(**fields):
    return lambda d: {**d, **fields}


@pytest.mark.parametrize("corrupt, message", [
    (lambda d: [d], "expected an object, got list"),
    (lambda d: "snapshot", "expected an object, got str"),
    (_without("kind"), "missing field 'kind'"),
    (_without("flags"), "missing field 'flags'"),
    (_without("version"), "missing field 'version'"),
    (_without("config_hash"), "missing field 'config_hash'"),
    (_without("params"), "missing field 'params'"),
    (lambda d: {"params": {}}, "missing field 'kind'"),
    (_with(flags=[]), "'flags' must be dict, got list"),
    (_with(params=[]), "'params' must be dict, got list"),
    (_with(kind=3), "'kind' must be str, got int"),
    (_with(config_hash=None), "'config_hash' must be str, got NoneType"),
    (_with(version=True), "'version' must be int, got bool"),
    (_with(version=1.0), "'version' must be int, got float"),
    (_with(version="1"), "'version' must be int, got str"),
], ids=["list_doc", "string_doc", "no_kind", "no_flags", "no_version", "no_config_hash",
        "no_params", "params_only", "list_flags", "list_params", "int_kind", "null_hash",
        "bool_version", "float_version", "string_version"])
def test_snapshot_header_rejects_bad_fields_naming_them(corrupt, message):
    net = Mlp.create([4, 5], ("relu",), np.random.default_rng(16))
    doc = corrupt(json.loads(json.dumps(_mlp_snapshot(net).to_doc())))
    with pytest.raises(ValueError, match=message):
        PolicySnapshot.from_doc(doc)


def test_failed_replace_keeps_the_previous_snapshot_and_leaves_no_temp_file(tmp_path, monkeypatch):
    net = Mlp.create([4, 5], ("relu",), np.random.default_rng(15))
    path = tmp_path / "snapshot_v00001.json"
    save_snapshot(_mlp_snapshot(net, version=1), path)
    before = path.read_bytes()

    def refuse(src, dst):
        raise OSError("replace refused")

    monkeypatch.setattr(os, "replace", refuse)
    with pytest.raises(OSError, match="replace refused"):
        save_snapshot(_mlp_snapshot(net, version=2), path)
    assert path.read_bytes() == before
    assert load_snapshot(path).version == 1
    assert sorted(os.listdir(tmp_path)) == ["snapshot_v00001.json"]
