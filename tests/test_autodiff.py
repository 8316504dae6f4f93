import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from taaclab import autodiff as ad
from taaclab.autodiff import ShapeError, Tensor, backward, grad_check, no_grad
from taaclab.nn import DenseLayer, Mlp, MultiHeadAttention

import tape_reference as ref


def rand(rng, *shape):
    return rng.normal(size=shape)


# ---------------------------------------------------------------------------
# matmul (the reference op the dense layer replaced)


def test_matmul_identity():
    b = Tensor(np.arange(9.0).reshape(3, 3))
    out = ref.matmul(Tensor(np.eye(3)), b)
    np.testing.assert_array_equal(out.data, b.data)


def test_matmul_1x1():
    out = ref.matmul(Tensor([[2.0]]), Tensor([[3.0]]))
    assert out.item() == 6.0


def test_matmul_matches_triple_loop():
    rng = np.random.default_rng(0)
    a, b = rand(rng, 3, 4), rand(rng, 4, 2)
    expected = np.zeros((3, 2))
    for i in range(3):
        for j in range(2):
            for k in range(4):
                expected[i, j] += a[i, k] * b[k, j]
    out = ref.matmul(Tensor(a), Tensor(b))
    np.testing.assert_allclose(out.data, expected, atol=1e-12)


def test_matmul_shape_mismatch_reports_shapes():
    with pytest.raises(ShapeError, match=r"\(2, 3\).*\(2, 3\)"):
        ref.matmul(Tensor(np.zeros((2, 3))), Tensor(np.zeros((2, 3))))


# ---------------------------------------------------------------------------
# softmax


def test_softmax_zero_row_uniform():
    out = ad.softmax_rows(Tensor(np.zeros((1, 18))))
    np.testing.assert_allclose(out.data, np.full((1, 18), 1 / 18), atol=1e-12)


@given(st.lists(st.floats(-50, 50), min_size=2, max_size=12))
def test_softmax_shift_invariance(row):
    x = np.array([row])
    a = ad.softmax_rows(Tensor(x)).data
    b = ad.softmax_rows(Tensor(x + 100.0)).data
    np.testing.assert_allclose(a, b, atol=1e-9)


def test_softmax_extreme_logits_no_overflow():
    out = ad.softmax_rows(Tensor([[1000.0, 0.0]])).data
    assert np.all(np.isfinite(out))
    np.testing.assert_allclose(out, [[1.0, 0.0]], atol=1e-9)


@given(st.integers(0, 2**32 - 1))
@settings(max_examples=30)
def test_softmax_rows_sum_to_one(seed):
    rng = np.random.default_rng(seed)
    out = ad.softmax_rows(Tensor(rng.normal(scale=5.0, size=(4, 7)))).data
    np.testing.assert_allclose(out.sum(axis=1), np.ones(4), atol=1e-6)
    assert np.all(out >= 0)


# ---------------------------------------------------------------------------
# backward mechanics


def test_backward_sum_gives_ones():
    x = Tensor(np.arange(6.0).reshape(2, 3), requires_grad=True)
    backward(ad.reduce_sum(x))
    np.testing.assert_array_equal(x.grad, np.ones((2, 3)))


def test_backward_product_of_scalars():
    x = Tensor(3.0, requires_grad=True)
    y = Tensor(-2.0, requires_grad=True)
    backward(ad.mul(x, y))
    assert x.grad == -2.0 and y.grad == 3.0


def test_backward_rejects_nonscalar():
    x = Tensor(np.ones((2, 2)), requires_grad=True)
    with pytest.raises(ShapeError):
        backward(ad.add(x, x))


def test_backward_accumulates_without_reset():
    x = Tensor(np.ones(3), requires_grad=True)
    loss = ad.reduce_sum(ad.mul(x, x))
    backward(loss)
    first = x.grad.copy()
    backward(loss)
    np.testing.assert_allclose(x.grad, 2 * first)


def test_backward_identical_after_reset():
    rng = np.random.default_rng(1)
    x = Tensor(rand(rng, 4), requires_grad=True)
    loss = ad.reduce_sum(ad.exp(x))
    backward(loss)
    g1 = x.grad.copy()
    ad.zero_grads([x])
    backward(loss)
    np.testing.assert_array_equal(x.grad, g1)


def test_backward_shared_node_counted_once():
    # diamond: y = x + x visits x's contribution twice but the node once
    x = Tensor(2.0, requires_grad=True)
    backward(ad.add(x, x))
    assert x.grad == 2.0


def test_no_grad_blocks_recording():
    x = Tensor(np.ones(3), requires_grad=True)
    with no_grad():
        out = ad.mul(x, x)
    assert not out.requires_grad and out._parents == ()


# ---------------------------------------------------------------------------
# op values


def test_gather_and_row():
    m = Tensor(np.arange(12.0).reshape(3, 4), requires_grad=True)
    out = ad.gather(m, np.array([1, 3, 0]))
    np.testing.assert_array_equal(out.data, [1.0, 7.0, 8.0])
    backward(ad.reduce_sum(out))
    expected = np.zeros((3, 4))
    expected[0, 1] = expected[1, 3] = expected[2, 0] = 1.0
    np.testing.assert_array_equal(m.grad, expected)

    # rows of a (T, n, d) stack keep their values when flattened to (T*n, d)
    r = ad.reshape(Tensor(np.arange(12.0).reshape(2, 2, 3)), (4, 3))
    np.testing.assert_array_equal(r.data[2], [6.0, 7.0, 8.0])


def test_concat_axis0_and_axis1():
    a = Tensor(np.ones((2, 3)))
    b = Tensor(np.zeros((2, 3)))
    assert ad.concat([a, b], axis=0).shape == (4, 3)
    assert ad.concat([a, b], axis=1).shape == (2, 6)


def test_minimum_and_clip_values():
    a = Tensor(np.array([1.0, 5.0, -2.0]))
    b = Tensor(np.array([2.0, 3.0, -4.0]))
    np.testing.assert_array_equal(ad.minimum(a, b).data, [1.0, 3.0, -4.0])
    np.testing.assert_array_equal(ad.clip_const(a, -1.0, 2.0).data, [1.0, 2.0, -1.0])


def test_maximum_const_floor_blocks_gradient():
    x = Tensor(np.array([0.5, -0.5]), requires_grad=True)
    backward(ad.reduce_sum(ad.maximum_const(x, 0.0)))
    np.testing.assert_array_equal(x.grad, [1.0, 0.0])


def test_cosine_similarity_known_values():
    # mean over one pair of rows is the pair's cosine
    pair = Tensor(np.array([[1.0, 0.0], [0.0, 1.0]]))
    assert abs(ad.mean_pairwise_cosine(pair).item()) < 1e-7
    c = ad.mean_pairwise_cosine(Tensor(np.array([[2.0, 0.0], [3.0, 0.0]])))
    assert abs(c.item() - 1.0) < 1e-7
    # per-stack means: rows (1,0), (0,1), (1,1)/sqrt2 have pair cosines 0, 1/sqrt2, 1/sqrt2
    s = 1 / np.sqrt(2)
    stack = Tensor(np.array([[[1.0, 0.0], [0.0, 1.0], [s, s]],
                             [[1.0, 0.0], [1.0, 0.0], [1.0, 0.0]]]))
    np.testing.assert_allclose(ad.mean_pairwise_cosine(stack).data, [np.sqrt(2) / 3, 1.0], atol=1e-7)


def test_cosine_similarity_zero_vector_is_finite():
    a = Tensor(np.stack([np.zeros(3), np.ones(3)]), requires_grad=True)
    out = ad.mean_pairwise_cosine(a)
    assert out.item() == 0.0
    backward(out)
    assert np.all(np.isfinite(a.grad))


def test_bmm_matches_per_matrix_products():
    rng = np.random.default_rng(4)
    a, b = rand(rng, 5, 3, 4), rand(rng, 5, 4, 2)
    out = ref.bmm(Tensor(a), Tensor(b)).data
    out_t = ref.bmm(Tensor(a), Tensor(np.swapaxes(b, 1, 2).copy()), transpose_b=True).data
    for t in range(5):
        np.testing.assert_allclose(out[t], a[t] @ b[t], atol=1e-12)
        np.testing.assert_array_equal(out_t[t], out[t])
    with pytest.raises(ShapeError):
        ref.bmm(Tensor(a), Tensor(b), transpose_b=True)


def test_log_softmax_extreme_logits_stay_finite():
    x = Tensor(np.array([[800.0, 0.0, -5.0]]), requires_grad=True)
    out = ad.log_softmax(x)
    np.testing.assert_allclose(out.data, [[0.0, -800.0, -805.0]], atol=1e-9)
    moderate = np.array([[1.0, 2.0, 3.0], [0.5, -0.5, 0.0]])
    np.testing.assert_allclose(ad.log_softmax(Tensor(moderate)).data,
                               np.log(ad.softmax_rows(Tensor(moderate)).data), atol=1e-12)
    backward(ad.reduce_sum(ad.mul(ad.exp(out), out)))
    assert np.all(np.isfinite(x.grad))


# ---------------------------------------------------------------------------
# finite-difference checks, one per differentiable op


def _op_cases(rng):
    a32 = Tensor(rand(rng, 3, 2), requires_grad=True)
    b24 = Tensor(rand(rng, 2, 4), requires_grad=True)
    m = Tensor(rand(rng, 3, 4), requires_grad=True)
    m2 = Tensor(rand(rng, 3, 4), requires_grad=True)
    bias = Tensor(rand(rng, 4), requires_grad=True)
    # keep relu/kinked inputs away from their kinks
    off = Tensor(rand(rng, 3, 4) + np.where(rand(rng, 3, 4) > 0, 1.0, -1.0), requires_grad=True)
    pair = Tensor(rand(rng, 2, 5), requires_grad=True)
    s3 = Tensor(rand(rng, 4, 3, 5), requires_grad=True)
    s3b = Tensor(rand(rng, 4, 5, 2), requires_grad=True)
    s3t = Tensor(rand(rng, 4, 2, 5), requires_grad=True)
    cols = np.array([1, 3, 0])
    x = Tensor(rand(rng, 2, 3, 4), requires_grad=True)
    w, b = Tensor(rand(rng, 4, 5), requires_grad=True), Tensor(rand(rng, 5), requires_grad=True)
    x8, y8 = Tensor(rand(rng, 2, 3, 8), requires_grad=True), Tensor(rand(rng, 2, 3, 8))
    heads = {h: MultiHeadAttention.create(8, h, rng) for h in (1, 2, 4)}
    for mha in heads.values():  # unit-scale projections, so the softmax is not flat
        for p in mha.parameters():
            p.data = rand(rng, *p.shape)

    def dense(act):
        return lambda: ad.reduce_sum(ad.exp(Mlp([DenseLayer(w, b, act)]).forward(x)))

    def attention(h):
        return lambda: ad.reduce_sum(ad.mul(heads[h].forward(x8)[0], y8)), heads[h].parameters() + [x8]

    return {
        "dense_relu": (dense("relu"), [x, w, b]),
        "dense_identity": (dense("identity"), [x, w, b]),
        "attention_1": attention(1),
        "attention_2": attention(2),
        "attention_4": attention(4),
        "matmul": (lambda: ad.reduce_sum(ad.mul(ref.matmul(a32, b24), ref.matmul(a32, b24))), [a32, b24]),
        "add": (lambda: ad.reduce_sum(ad.exp(ad.add(m, m2))), [m, m2]),
        "add_bias": (lambda: ad.reduce_sum(ad.exp(ref.add_bias(m, bias))), [m, bias]),
        "sub": (lambda: ad.reduce_sum(ad.mul(ad.sub(m, m2), ad.sub(m, m2))), [m, m2]),
        "mul": (lambda: ad.reduce_sum(ad.mul(m, m2)), [m, m2]),
        "neg": (lambda: ad.reduce_sum(ad.mul(ad.neg(m), m2)), [m]),
        "scale": (lambda: ad.reduce_sum(ad.mul(ad.scale(m, 2.5), m2)), [m]),
        # "transpose", "row" and "cosine_similarity" name the ops these cases
        # covered before the batched ops replaced them: the transposed operand
        # of bmm, rows of one matrix in mean_pairwise_cosine, and a single pair
        "transpose": (lambda: ad.reduce_sum(ad.exp(ref.bmm(s3, s3t, transpose_b=True))), [s3, s3t]),
        "bmm": (lambda: ad.reduce_sum(ad.exp(ref.bmm(s3, s3b))), [s3, s3b]),
        "reshape": (lambda: ad.reduce_sum(ad.mul(ad.reshape(m, (4, 3)), ad.reshape(m2, (4, 3)))), [m]),
        "relu": (lambda: ad.reduce_sum(ad.mul(ref.relu(off), m2)), [off]),
        "softmax_rows": (lambda: ad.reduce_sum(ad.mul(ad.softmax_rows(m), m2)), [m]),
        "softmax_last_axis": (lambda: ad.reduce_sum(ad.exp(ad.softmax_rows(s3))), [s3]),
        "log_softmax": (lambda: ad.reduce_sum(ad.mul(ad.log_softmax(s3), ad.exp(s3))), [s3]),
        "exp": (lambda: ad.reduce_sum(ad.mul(ad.exp(m), m2)), [m]),
        "gather": (lambda: ad.reduce_sum(ad.mul(ad.gather(m, cols), Tensor([1.0, -2.0, 0.5]))), [m]),
        "row": (lambda: ad.mean_pairwise_cosine(m), [m]),
        "concat": (lambda: ad.reduce_sum(ad.mul(ad.concat([m, m2], axis=1),
                                                ad.concat([m2, m], axis=1))), [m, m2]),
        "reduce_sum_axis": (lambda: ad.reduce_sum(ad.exp(ad.reduce_sum(m, axis=1))), [m]),
        "reduce_mean": (lambda: ad.reduce_mean(ad.mul(m, m)), [m]),
        "reduce_mean_axis": (lambda: ad.reduce_sum(ad.exp(ad.reduce_mean(m, axis=0))), [m]),
        "cosine_similarity": (lambda: ad.mean_pairwise_cosine(pair), [pair]),
        "mean_pairwise_cosine": (lambda: ad.reduce_sum(ad.exp(ad.mean_pairwise_cosine(s3))), [s3]),
        "maximum_const": (lambda: ad.reduce_sum(ad.maximum_const(off, 0.0)), [off]),
        "minimum": (lambda: ad.reduce_sum(ad.minimum(m, m2)), [m, m2]),
        "clip_const": (lambda: ad.reduce_sum(ad.mul(ad.clip_const(off, -0.9, 0.9), m2)), [off]),
    }


OP_NAMES = sorted(_op_cases(np.random.default_rng(0)))


@pytest.mark.parametrize("name", OP_NAMES)
@pytest.mark.parametrize("seed", range(10))
def test_op_gradients_match_finite_differences(name, seed):
    loss_fn, params = _op_cases(np.random.default_rng(seed))[name]
    assert grad_check(loss_fn, params) < 1e-4


def test_grad_check_quadratic_is_tight():
    theta = Tensor(np.random.default_rng(3).normal(size=(4, 3)), requires_grad=True)
    assert grad_check(lambda: ad.reduce_sum(ad.mul(theta, theta)), [theta]) < 1e-8


def test_grad_check_reports_a_nan_or_wrong_gradient():
    x = Tensor(np.array([0.5, -1.0, 2.0]), requires_grad=True)

    def doubled(backward_fn):
        return lambda: ad.reduce_sum(ad.record(x.data * 2.0, (x,), lambda g: (backward_fn(g),)))

    # one NaN entry among finite ones makes the whole check NaN
    assert np.isnan(grad_check(doubled(lambda g: np.where(np.arange(3) == 0, np.nan, 2.0 * g)), [x]))
    assert np.isnan(grad_check(doubled(lambda g: np.full_like(g, np.nan)), [x]))
    assert abs(grad_check(doubled(lambda g: 4.0 * g), [x]) - 1.0 / 3.0) < 1e-9  # 2x too large
    assert grad_check(doubled(lambda g: 2.0 * g), [x]) < 1e-8


def test_grad_check_attention_cross_entropy():
    from taaclab.nn import MultiHeadAttention

    rng = np.random.default_rng(5)
    mha = MultiHeadAttention.create(8, 2, rng)
    x = Tensor(rand(rng, 3, 8))
    labels = np.array([0, 5, 2])
    proj = Tensor(rand(rng, 8, 6), requires_grad=True)

    def loss_fn():
        out, _ = mha.forward(x)
        logits = ref.matmul(out, proj)
        return ad.neg(ad.reduce_mean(ad.gather(ad.log_softmax(logits), labels)))

    assert grad_check(loss_fn, mha.parameters() + [proj]) < 1e-4
