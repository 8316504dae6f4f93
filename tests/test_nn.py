import math

import numpy as np
import pytest

from taaclab import autodiff as ad
from taaclab.autodiff import ShapeError, Tensor
from taaclab.nn import (
    AttentionHead,
    DenseLayer,
    Mlp,
    MultiHeadAttention,
    attention,
    xavier_uniform,
)


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


def test_forward_np_matches_tape_forward():
    rng = np.random.default_rng(3)
    net = Mlp.create([4, 6, 3], ("relu", "identity"), rng)
    x = rng.normal(size=(7, 4))
    before = x.copy()
    np.testing.assert_array_equal(net.forward_np(x), net.forward(Tensor(x)).data)
    np.testing.assert_array_equal(x, before)  # the in-place layers never touch the input


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
    np.testing.assert_array_equal(out.data, m.data @ head.wv.data)


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
    """Reference: one projection GEMM and one 3-D einsum pair per head, heads concatenated."""
    lead = m.shape[:-2]
    n, d_model = m.shape[-2:]
    flat = m.reshape(-1, d_model)
    outs = []
    for head in mha.heads:
        d_k = head.wk.shape[1]
        q = (flat @ head.wq.data).reshape(-1, n, d_k)
        k = (flat @ head.wk.data).reshape(-1, n, d_k)
        v = (flat @ head.wv.data).reshape(-1, n, head.wv.shape[1])
        scores = np.einsum("bik,bjk->bij", q, k) / math.sqrt(d_k)
        scores -= scores.max(axis=-1, keepdims=True)
        e = np.exp(scores)
        w = e / e.sum(axis=-1, keepdims=True)
        outs.append(np.einsum("bij,bjk->bik", w, v))
    out = np.concatenate(outs, axis=-1)
    return out.reshape(lead + (n, out.shape[-1]))


@pytest.mark.parametrize("n_heads", [1, 2, 4])
def test_fused_multihead_forward_np_equals_per_head_reference(n_heads):
    rng = np.random.default_rng(20 + n_heads)
    mha = MultiHeadAttention.create(32, n_heads, rng)
    for shape in [(3, 32), (240, 3, 32), (4, 5, 3, 32)]:
        m = rng.normal(size=shape)
        np.testing.assert_array_equal(mha.forward_np(m), _per_head_forward_np(mha, m))


def test_multihead_rejects_heads_of_different_shapes():
    rng = np.random.default_rng(21)
    with pytest.raises(ShapeError):
        MultiHeadAttention([_head(rng, 6, 3), _head(rng, 6, 2)])


def test_multihead_forward_np_matches_tape():
    rng = np.random.default_rng(10)
    mha = MultiHeadAttention.create(8, 4, rng)
    m = rng.normal(size=(3, 8))
    tape_out, _ = mha.forward(Tensor(m))
    np.testing.assert_allclose(mha.forward_np(m), tape_out.data, atol=1e-14)
    stacked = rng.normal(size=(6, 3, 8))
    batch = mha.forward_np(stacked)
    for b in range(6):
        single, _ = mha.forward(Tensor(stacked[b]))
        np.testing.assert_allclose(batch[b], single.data, atol=1e-12)
