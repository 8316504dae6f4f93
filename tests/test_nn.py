import math

import numpy as np
import pytest

from taaclab import autodiff as ad
from taaclab.autodiff import ShapeError, Tensor
from taaclab.baselines import PpoTeamPolicy
from taaclab.nets import ActorNet, CriticNet, TaacNetConfig
from taaclab.nn import (
    AttentionHead,
    DenseLayer,
    Mlp,
    MultiHeadAttention,
    attention,
    xavier_uniform,
)

import tape_reference as ref


def test_identity_layer_passes_input_through():
    layer = DenseLayer(Tensor(np.eye(4), requires_grad=True),
                       Tensor(np.zeros(4), requires_grad=True), "identity")
    x = np.random.default_rng(0).normal(size=(3, 4))
    out = Mlp([layer]).forward(Tensor(x))
    np.testing.assert_array_equal(out.data, x)


def test_zero_weights_yield_bias():
    b = np.array([1.5, -2.0])
    layer = DenseLayer(Tensor(np.zeros((4, 2))), Tensor(b), "identity")
    out = Mlp([layer]).forward(Tensor(np.random.default_rng(1).normal(size=(5, 4))))
    np.testing.assert_array_equal(out.data, np.tile(b, (5, 1)))


def test_mlp_matches_hand_rolled_loops():
    rng = np.random.default_rng(2)
    net = Mlp.create([3, 4, 2], ("relu", "identity"), rng)
    x = rng.normal(size=(5, 3))
    out = net.forward(Tensor(x)).data

    expected = np.zeros((5, 2))
    w0, b0 = net.layers[0].w.data, net.layers[0].b.data
    w1, b1 = net.layers[1].w.data, net.layers[1].b.data
    for r in range(5):
        hidden = np.zeros(4)
        for j in range(4):
            acc = b0[j]
            for i in range(3):
                acc += x[r, i] * w0[i, j]
            hidden[j] = max(acc, 0.0)
        for j in range(2):
            acc = b1[j]
            for i in range(4):
                acc += hidden[i] * w1[i, j]
            expected[r, j] = acc
    np.testing.assert_allclose(out, expected, atol=1e-12)


def test_mlp_rejects_width_mismatch():
    net = Mlp.create([3, 4], ("relu",), np.random.default_rng(0))
    with pytest.raises(ShapeError):
        net.forward(Tensor(np.zeros((2, 5))))


def test_mlp_rejects_nonchaining_layers():
    rng = np.random.default_rng(0)
    layers = [DenseLayer(Tensor(np.zeros((3, 4))), Tensor(np.zeros(4)), "relu"),
              DenseLayer(Tensor(np.zeros((5, 2))), Tensor(np.zeros(2)), "relu")]
    with pytest.raises(ShapeError):
        Mlp(layers)


def test_one_column_layer_rows_do_not_depend_on_row_count():
    rng = np.random.default_rng(6)
    net = Mlp.create([8, 1], ("identity",), rng)
    x = rng.normal(size=(199, 8))
    full = net.forward_np(x)
    np.testing.assert_allclose(full, x @ net.layers[0].w.data, atol=1e-12)
    for rows in range(1, 200):
        np.testing.assert_array_equal(net.forward_np(x[:rows]), full[:rows])
        np.testing.assert_array_equal(net.forward(Tensor(x[:rows])).data, full[:rows])


def test_forward_np_reports_relu_preactivations_before_the_relu():
    rng = np.random.default_rng(4)
    net = Mlp.create([4, 6, 3], ("relu", "identity"), rng)
    x = rng.normal(size=(7, 4))
    pre: list = []
    out = net.forward_np(x, pre)
    assert len(pre) == 1  # one relu layer
    first = net.layers[0]
    np.testing.assert_array_equal(pre[0], x @ first.w.data + first.b.data)
    assert (pre[0] < 0).any()  # not clamped by the in-place relu that follows
    np.testing.assert_array_equal(out, net.forward_np(x))


def test_xavier_bounds_and_zero_biases():
    rng = np.random.default_rng(4)
    w = xavier_uniform(rng, 30, 50)
    limit = math.sqrt(6.0 / 80.0)
    assert np.all(np.abs(w) <= limit)
    net = Mlp.create([5, 7], ("relu",), rng)
    np.testing.assert_array_equal(net.layers[0].b.data, np.zeros(7))


# ---------------------------------------------------------------------------
# attention


def _head(rng, d_model=6, d_k=3):
    return AttentionHead(
        Tensor(xavier_uniform(rng, d_model, d_k), requires_grad=True),
        Tensor(xavier_uniform(rng, d_model, d_k), requires_grad=True),
        Tensor(xavier_uniform(rng, d_model, d_k), requires_grad=True),
    )


def test_attention_single_token_is_value_projection():
    rng = np.random.default_rng(5)
    head = _head(rng)
    m = Tensor(rng.normal(size=(1, 6)))
    weights, out = attention(m, head)
    np.testing.assert_array_equal(weights.data, [[1.0]])
    # v as the kernel projects it: one GEMM over the packed wq | wk | wv columns
    packed = np.concatenate([head.wq.data, head.wk.data, head.wv.data], axis=1)
    np.testing.assert_array_equal(out.data, (m.data @ packed)[:, 6:])


def test_attention_identical_rows_get_identical_outputs():
    rng = np.random.default_rng(6)
    head = _head(rng)
    row = rng.normal(size=6)
    m = Tensor(np.stack([row, row]))
    _, out = attention(m, head)
    np.testing.assert_allclose(out.data[0], out.data[1], atol=1e-14)


def test_attention_matches_scalar_loop_reference():
    rng = np.random.default_rng(7)
    head = _head(rng)
    m = rng.normal(size=(3, 6))
    weights, out = attention(Tensor(m), head)

    q = m @ head.wq.data
    k = m @ head.wk.data
    v = m @ head.wv.data
    d_k = k.shape[1]
    ref_w = np.zeros((3, 3))
    for i in range(3):
        scores = np.array([sum(q[i, c] * k[j, c] for c in range(d_k)) / math.sqrt(d_k)
                           for j in range(3)])
        e = np.exp(scores - scores.max())
        ref_w[i] = e / e.sum()
    ref_out = np.zeros_like(v)
    for i in range(3):
        for j in range(3):
            ref_out[i] += ref_w[i, j] * v[j]
    np.testing.assert_allclose(weights.data, ref_w, atol=1e-10)
    np.testing.assert_allclose(out.data, ref_out, atol=1e-10)


def test_attention_weights_row_stochastic_and_output_convex():
    rng = np.random.default_rng(8)
    head = _head(rng)
    m = rng.normal(size=(4, 6))
    weights, out = attention(Tensor(m), head)
    np.testing.assert_allclose(weights.data.sum(axis=1), np.ones(4), atol=1e-12)
    assert np.all(weights.data >= 0)
    v = m @ head.wv.data
    assert np.all(out.data <= v.max(axis=0) + 1e-12)
    assert np.all(out.data >= v.min(axis=0) - 1e-12)


def test_attention_permutation_equivariance():
    rng = np.random.default_rng(9)
    mha = MultiHeadAttention.create(8, 2, rng)
    m = rng.normal(size=(5, 8))
    perm = rng.permutation(5)
    out, _ = mha.forward(Tensor(m))
    out_p, _ = mha.forward(Tensor(m[perm]))
    np.testing.assert_allclose(out_p.data, out.data[perm], atol=1e-12)


def test_attention_rejects_width_mismatch():
    head = _head(np.random.default_rng(0))
    with pytest.raises(ShapeError):
        attention(Tensor(np.zeros((3, 5))), head)


def test_multihead_output_width_is_heads_times_dv():
    mha = MultiHeadAttention.create(12, 3, np.random.default_rng(1))
    out, weights = mha.forward(Tensor(np.random.default_rng(2).normal(size=(4, 12))))
    assert out.shape == (4, 12)  # 3 heads x d_v=4
    assert len(weights) == 3
    assert mha.out_width == 12


def _per_head_forward_np(mha, m):
    """Reference: one projection GEMM and one stacked-matmul pair per head, heads concatenated."""
    lead = m.shape[:-2]
    n, d_model = m.shape[-2:]
    flat = m.reshape(-1, d_model)
    outs = []
    for head in mha.heads:
        d_k = head.wk.shape[1]
        q = (flat @ head.wq.data).reshape(-1, n, d_k)
        k = (flat @ head.wk.data).reshape(-1, n, d_k)
        v = (flat @ head.wv.data).reshape(-1, n, head.wv.shape[1])
        scores = (q @ k.swapaxes(-1, -2)) / math.sqrt(d_k)
        scores -= scores.max(axis=-1, keepdims=True)
        e = np.exp(scores)
        w = e / e.sum(axis=-1, keepdims=True)
        outs.append(w @ v)
    out = np.concatenate(outs, axis=-1)
    return out.reshape(lead + (n, out.shape[-1]))


@pytest.mark.parametrize("n_heads", [1, 2, 4])
def test_fused_multihead_forward_np_equals_per_head_reference(n_heads):
    rng = np.random.default_rng(20 + n_heads)
    mha = MultiHeadAttention.create(32, n_heads, rng)
    for shape in [(3, 32), (240, 3, 32), (4, 5, 3, 32), (1500, 3, 32)]:
        m = rng.normal(size=shape)
        np.testing.assert_array_equal(mha.forward_np(m), _per_head_forward_np(mha, m))


def test_multihead_rejects_heads_of_different_shapes():
    rng = np.random.default_rng(21)
    with pytest.raises(ShapeError):
        MultiHeadAttention([_head(rng, 6, 3), _head(rng, 6, 2)])


# ---------------------------------------------------------------------------
# one forward path: the tape forward and the tape-free one are one kernel

NET = TaacNetConfig(obs_width=6, n_actions=5, d_model=8, actor_heads=2, critic_heads=4,
                    embed_hidden=7, post_hidden=9, obs_scale=3.0)


def _forward_pairs(rng, lead):
    """(name, tape forward's data, tape-free forward) for one input of leading shape ``lead``."""
    mlp = Mlp.create([6, 7, 1], ("relu", "identity"), rng)
    mha = MultiHeadAttention.create(8, 4, rng)
    actor, critic = ActorNet(NET, rng), CriticNet(NET, rng)
    ppo = PpoTeamPolicy(NET, rng)
    x, m = rng.normal(size=lead + (3, 6)), rng.normal(size=lead + (3, 8))
    obs, acts = rng.normal(size=lead + (3, 6)) * 5.0, rng.integers(0, 5, size=lead + (3,))
    return [
        ("mlp", mlp.forward(Tensor(x)).data, mlp.forward_np(x)),
        ("attention", mha.forward(Tensor(m))[0].data, mha.forward_np(m)),
        ("actor", actor.forward(obs)[0].data, actor.probs_np(obs)),
        ("critic", critic.forward(obs, acts).data, critic.q_np(obs, acts)),
        ("ppo_dist", ppo.dist_forward(obs).data, ppo.probs_np(obs)),
        ("ppo_values", ppo.values_forward(obs).data, ppo.values_np(obs)),
    ]


@pytest.mark.parametrize("lead", [(), (7,)], ids=["n", "T-n"])
def test_tape_forward_equals_tape_free_forward_bit_for_bit(lead):
    rng = np.random.default_rng(10)
    for name, tape, free in _forward_pairs(rng, lead):
        assert tape.shape == free.shape, name
        assert tape.tobytes() == free.tobytes(), name
    net = Mlp.create([4, 6, 3], ("relu", "identity"), rng)
    x = rng.normal(size=(7, 4))
    before = x.copy()
    net.forward_np(x)
    np.testing.assert_array_equal(x, before)  # the in-place layers never touch the input


def test_tape_forward_sees_in_place_weight_edits():
    rng = np.random.default_rng(11)
    actor = ActorNet(NET, rng)
    obs = rng.normal(size=(3, 6))
    m = actor.embed.forward(Tensor(obs / NET.obs_scale))
    head = actor.attn.heads[0]
    out_before, dists_before = actor.attn.forward(m)[0].data, actor.forward(obs)[0].data
    head.wq.data[0, 0] += 1.0
    fresh = MultiHeadAttention([AttentionHead(*(Tensor(w.data.copy()) for w in (h.wq, h.wk, h.wv)))
                                for h in actor.attn.heads])
    out_after = actor.attn.forward(m)[0].data
    assert out_after.tobytes() == fresh.forward_np(m.data).tobytes()
    assert out_after.tobytes() != out_before.tobytes()
    assert actor.forward(obs)[0].data.tobytes() != dists_before.tobytes()


def test_in_place_edits_of_every_parameter_reach_the_tape_forwards_and_mlp_forward_np():
    # checks.py's finite differences edit w.data and b.data in place, so no forward
    # that they run may keep a copy of a weight keyed on the array object
    rng = np.random.default_rng(12)
    actor, critic, ppo = ActorNet(NET, rng), CriticNet(NET, rng), PpoTeamPolicy(NET, rng)
    obs = rng.normal(size=(4, 3, 6))
    acts = rng.integers(0, NET.n_actions, size=(4, 3))

    def edited_changes(params, outputs):
        for p in params:
            data, before = p.data, [out().tobytes() for out in outputs]
            data += rng.normal(size=data.shape)
            assert p.data is data
            assert all(out().tobytes() != b for out, b in zip(outputs, before)), p.shape

    edited_changes(actor.parameters(), [lambda: actor.forward(obs)[0].data])
    edited_changes(critic.parameters(), [lambda: critic.forward(obs, acts).data])
    for mlp in (actor.embed, actor.post, critic.post, ppo.policy_net, ppo.value_net):
        x = rng.normal(size=(4, 3, mlp.in_width))
        edited_changes(mlp.parameters(), [lambda: mlp.forward(Tensor(x)).data, lambda: mlp.forward_np(x)])


# ---------------------------------------------------------------------------
# the one-node layers against the op compositions they replaced


def _grads(loss_fn, params):
    ad.zero_grads(params)
    ad.backward(loss_fn())
    return [p.grad.copy() for p in params]


@pytest.mark.parametrize("activation", ["relu", "identity"])
@pytest.mark.parametrize("lead", [(5,), (4, 3)], ids=["n", "T-n"])
def test_dense_node_matches_the_op_composition(activation, lead):
    rng = np.random.default_rng(12)
    net = Mlp.create([6, 9, 1], (activation, "identity"), rng)
    x = Tensor(rng.normal(size=lead + (6,)), requires_grad=True)
    c = Tensor(rng.normal(size=lead + (1,)))
    new, old = net.forward(x), ref.mlp_forward(net, x)
    np.testing.assert_allclose(new.data, old.data, rtol=0, atol=1e-12)
    params = net.parameters() + [x]
    got = _grads(lambda: ad.reduce_sum(ad.mul(net.forward(x), c)), params)
    want = _grads(lambda: ad.reduce_sum(ad.mul(ref.mlp_forward(net, x), c)), params)
    for g, w in zip(got, want):
        np.testing.assert_allclose(g, w, rtol=0, atol=1e-12)


@pytest.mark.parametrize("n_heads", [1, 2, 4])
@pytest.mark.parametrize("lead", [(), (6,)], ids=["n", "T-n"])
def test_attention_node_matches_the_op_composition(n_heads, lead):
    rng = np.random.default_rng(13 + n_heads)
    mha = MultiHeadAttention.create(8, n_heads, rng)
    for p in mha.parameters():  # unit scale, so the softmax is far from flat
        p.data = rng.normal(size=p.shape)
    m = Tensor(rng.normal(size=lead + (3, 8)), requires_grad=True)
    c = Tensor(rng.normal(size=lead + (3, 8)))
    (new, new_w), (old, old_w) = mha.forward(m), ref.multihead_forward(mha, m)
    np.testing.assert_allclose(new.data, old.data, rtol=0, atol=1e-12)
    for a, b in zip(new_w, old_w):
        np.testing.assert_allclose(a.data, b.data, rtol=0, atol=1e-12)
    params = mha.parameters() + [m]
    got = _grads(lambda: ad.reduce_sum(ad.mul(mha.forward(m)[0], c)), params)
    want = _grads(lambda: ad.reduce_sum(ad.mul(ref.multihead_forward(mha, m)[0], c)), params)
    for g, w in zip(got, want):
        np.testing.assert_allclose(g, w, rtol=0, atol=1e-12)


@pytest.mark.parametrize("n_heads", [1, 2, 4])
def test_packed_projection_is_kept_until_a_weight_array_is_replaced(n_heads):
    from taaclab.learner import Adam
    from taaclab.nets import restore_params

    rng = np.random.default_rng(30 + n_heads)
    mha = MultiHeadAttention.create(8, n_heads, rng)
    m = rng.normal(size=(4, 3, 8))

    def packed_as_a_fresh_module_runs():
        fresh = MultiHeadAttention([AttentionHead(*(Tensor(w.data.copy()) for w in (h.wq, h.wk, h.wv)))
                                    for h in mha.heads])
        assert mha.forward_np(m).tobytes() == fresh.forward_np(m).tobytes()
        return mha._packed_weights()

    packed = packed_as_a_fresh_module_runs()
    mha.forward(Tensor(m))  # the tape forward packs its own copy
    assert mha._packed_weights() is packed

    opt = Adam(mha.parameters(), 1e-2)
    for p in mha.parameters():
        p.grad = rng.normal(size=p.shape)
    opt.step()
    stepped = packed_as_a_fresh_module_runs()
    assert stepped is not packed and mha._packed_weights() is stepped

    other = MultiHeadAttention.create(8, n_heads, rng)
    restore_params(mha.named_parameters("attn"),
                   {path: t.data for path, t in other.named_parameters("attn").items()})
    restored = packed_as_a_fresh_module_runs()
    assert restored is not stepped and mha._packed_weights() is restored

    last = mha.heads[-1].wv
    last.data = last.data.copy()  # the same values in another array: the last column block rebuilds
    assert mha._packed_weights() is not restored
    assert mha._packed_weights().tobytes() == restored.tobytes()
