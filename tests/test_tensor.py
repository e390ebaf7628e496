"""Primitive ops: contract examples, gradient oracles, invariants."""

import threading

import numpy as np
import pytest

import adafuse as af
from adafuse.gradcheck import grad_check_params
from adafuse.tensor import ShapeError


def t(data, rg=False):
    return af.Tensor(np.asarray(data, dtype=np.float64), requires_grad=rg)


# ---------------------------------------------------------------------
# matmul
# ---------------------------------------------------------------------

def test_matmul_identity():
    x = t([[1.0, 2.0], [3.0, 4.0]])
    out = af.matmul(t(np.eye(2)), x)
    assert np.array_equal(out.data, x.data)


def test_matmul_row_times_column():
    out = af.matmul(t([[1.0, 2.0]]), t([[3.0], [4.0]]))
    assert np.array_equal(out.data, [[11.0]])


def test_matmul_shape_mismatch_names_both_shapes():
    with pytest.raises(ShapeError, match=r"\(2, 3\).*\(2, 3\)"):
        af.matmul(t(np.zeros((2, 3))), t(np.zeros((2, 3))))


@pytest.mark.parametrize("seed", range(10))
def test_matmul_gradient_matches_finite_differences(seed):
    rng = np.random.default_rng(seed)
    a = t(rng.normal(size=(3, 4)), rg=True)
    b = t(rng.normal(size=(4, 2)), rg=True)
    err = grad_check_params(lambda: af.tsum(af.matmul(a, b) * af.matmul(a, b)), [a, b])
    assert err < 1e-4


def test_batched_matmul_gradient():
    rng = np.random.default_rng(7)
    a = t(rng.normal(size=(2, 3, 4)), rg=True)
    w = t(rng.normal(size=(4, 5)), rg=True)
    err = grad_check_params(lambda: af.tsum(af.matmul(a, w) * af.matmul(a, w)), [a, w])
    assert err < 1e-4


# ---------------------------------------------------------------------
# elementwise
# ---------------------------------------------------------------------

def test_add_zero_is_identity():
    x = t([[1.5, -2.0], [0.0, 3.0]])
    assert np.array_equal((x + 0.0).data, x.data)


def test_mul_pointwise():
    assert np.array_equal((t([2.0, 3.0]) * t([4.0, 5.0])).data, [8.0, 15.0])


def test_elementwise_incompatible_shapes():
    with pytest.raises(ShapeError, match="incompatible"):
        t(np.zeros((2, 3))) + t(np.zeros((4, 5)))


def test_bias_gradient_is_column_sum_of_upstream():
    rng = np.random.default_rng(0)
    x = t(rng.normal(size=(2, 3)))
    bias = t(rng.normal(size=3), rg=True)
    out = af.tsum((x + bias) * 2.0)
    af.backward(out)
    # d out / d bias = column-sum of the upstream gradient (all twos)
    assert np.allclose(bias.grad, np.full(3, 2.0 * 2))
    err = grad_check_params(lambda: af.tsum((x + bias) * (x + bias)), [bias])
    assert err < 1e-4


# ---------------------------------------------------------------------
# layer_norm
# ---------------------------------------------------------------------

def test_layer_norm_constant_vector_gives_beta():
    gamma, beta = t(np.ones(3)), t([0.5, -1.0, 2.0])
    out = af.layer_norm(t([5.0, 5.0, 5.0]), gamma, beta)
    assert np.allclose(out.data, beta.data)


def test_layer_norm_standardizes_last_axis():
    rng = np.random.default_rng(1)
    x = t(rng.normal(2.0, 3.0, size=(4, 16)))
    out = af.layer_norm(x, t(np.ones(16)), t(np.zeros(16))).data
    assert np.abs(out.mean(axis=-1)).max() < 1e-5
    assert np.abs(out.var(axis=-1) - 1.0).max() < 1e-5


def test_layer_norm_shape_mismatch():
    with pytest.raises(ShapeError):
        af.layer_norm(t(np.zeros((2, 4))), t(np.ones(3)), t(np.zeros(3)))


@pytest.mark.parametrize("seed", range(10))
def test_layer_norm_gradient(seed):
    rng = np.random.default_rng(seed)
    x = t(rng.normal(size=(3, 6)), rg=True)
    gamma = t(rng.normal(1.0, 0.1, size=6), rg=True)
    beta = t(rng.normal(size=6), rg=True)
    err = grad_check_params(
        lambda: af.tsum(af.layer_norm(x, gamma, beta) * af.layer_norm(x, gamma, beta)),
        [x, gamma, beta])
    assert err < 1e-4


# ---------------------------------------------------------------------
# softmax / gelu
# ---------------------------------------------------------------------

def test_softmax_uniform_on_equal_logits():
    assert np.allclose(af.softmax(t([0.0, 0.0, 0.0])).data, np.full(3, 1 / 3))


def test_softmax_huge_logit_no_overflow():
    out = af.softmax(t([1000.0, 0.0])).data
    assert np.isfinite(out).all()
    assert np.allclose(out, [1.0, 0.0])


def test_softmax_rows_sum_to_one():
    rng = np.random.default_rng(2)
    for _ in range(20):
        out = af.softmax(t(rng.normal(0, 5, size=(4, 7)))).data
        assert np.abs(out.sum(axis=-1) - 1.0).max() < 1e-6
        assert (out >= 0).all()


@pytest.mark.parametrize("seed", range(10))
def test_softmax_gradient(seed):
    rng = np.random.default_rng(seed)
    x = t(rng.normal(size=(2, 5)), rg=True)
    err = grad_check_params(lambda: af.tsum(af.softmax(x) * x), [x])
    assert err < 1e-4


def test_gelu_values():
    assert af.gelu(t([0.0])).data[0] == 0.0
    assert abs(af.gelu(t([10.0])).data[0] - 10.0) < 1e-6


@pytest.mark.parametrize("seed", range(10))
def test_gelu_gradient(seed):
    rng = np.random.default_rng(seed)
    x = t(rng.normal(size=(3, 4)), rg=True)
    err = grad_check_params(lambda: af.tsum(af.gelu(x) * x), [x])
    assert err < 1e-4


# ---------------------------------------------------------------------
# dropout / drop_path
# ---------------------------------------------------------------------

def test_dropout_eval_is_bit_identical():
    x = t(np.random.default_rng(0).normal(size=(5, 5)))
    out = af.dropout(x, 0.7)
    assert out.data is x.data


def test_regularizers_take_rng_by_keyword_only():
    """A positional third argument (a stale ``train`` flag) is an error,
    not a generator."""
    x = t(np.ones((4, 3)))
    with pytest.raises(TypeError):
        af.dropout(x, 0.5, True)
    with pytest.raises(TypeError):
        af.drop_path(x, 0.5, np.random.default_rng(0))


def test_dropout_p_zero_train_is_identity():
    x = t(np.ones((3, 3)))
    out = af.dropout(x, 0.0, rng=np.random.default_rng(0))
    assert np.array_equal(out.data, x.data)


def test_dropout_rate_validation():
    x = t(np.ones(3))
    with pytest.raises(ValueError):
        af.dropout(x, 1.0, rng=np.random.default_rng(0))
    with pytest.raises(ValueError):
        af.dropout(x, -0.1, rng=np.random.default_rng(0))


def test_dropout_monte_carlo_statistics():
    rng = np.random.default_rng(123)
    x = t(np.full(100_000, 2.0))
    out = af.dropout(x, 0.5, rng=rng).data
    survivors = np.count_nonzero(out) / out.size
    assert abs(survivors - 0.5) < 0.01
    assert abs(out.mean() - 2.0) / 2.0 < 0.02


def test_dropout_bit_reproducible_given_seed():
    x = t(np.random.default_rng(1).normal(size=(64, 64)))
    a = af.dropout(x, 0.3, rng=np.random.default_rng(9)).data
    b = af.dropout(x, 0.3, rng=np.random.default_rng(9)).data
    assert np.array_equal(a, b)


def test_drop_path_eval_identity():
    x = t(np.ones((4, 3)))
    assert af.drop_path(x, 0.9).data is x.data


def test_drop_path_zeroes_whole_rows():
    rng = np.random.default_rng(3)
    x = t(np.random.default_rng(0).normal(size=(100, 7)) + 10.0)
    out = af.drop_path(x, 0.5, rng=rng).data
    row_zero = (out == 0).all(axis=1)
    row_kept = (out != 0).all(axis=1)
    assert ((row_zero) | (row_kept)).all()


def test_drop_path_near_one_reduces_to_skip_connection():
    # residual z = x + drop_path(branch): with the branch's rows all
    # dropped the stream degenerates to the skip connection.
    rng = np.random.default_rng(4)
    x = t(np.random.default_rng(5).normal(size=(8, 3)))
    branch = t(np.random.default_rng(6).normal(size=(8, 3)))
    dropped = af.drop_path(branch, 1.0 - 1e-9, rng=rng)
    assert np.array_equal(dropped.data, np.zeros((8, 3)))
    z = x + dropped
    assert np.array_equal(z.data, x.data)


def test_drop_path_monte_carlo_rate():
    rng = np.random.default_rng(42)
    x = t(np.ones((10_000, 2)))
    out = af.drop_path(x, 0.3, rng=rng).data
    dropped = (out[:, 0] == 0).mean()
    assert abs(dropped - 0.3) < 0.02


# ---------------------------------------------------------------------
# backward
# ---------------------------------------------------------------------

def test_backward_of_sum_gives_ones():
    x = t(np.arange(6.0).reshape(2, 3), rg=True)
    af.backward(af.tsum(x))
    assert np.array_equal(x.grad, np.ones((2, 3)))


def test_backward_of_sum_of_squares_gives_two_x():
    x = t(np.arange(1.0, 7.0).reshape(2, 3), rg=True)
    af.backward(af.tsum(x * x))
    assert np.allclose(x.grad, 2 * x.data)


def test_backward_rejects_non_scalar():
    x = t(np.ones((2, 2)), rg=True)
    with pytest.raises(ShapeError):
        af.backward(x + x)


def test_backward_accumulates_across_calls():
    x = t([1.0, 2.0], rg=True)
    loss = af.tsum(x * x)
    af.backward(loss)
    af.backward(loss)
    assert np.allclose(x.grad, 4 * x.data)


def test_backward_sums_fanout_contributions():
    # x feeds two consumers; grads must add. d/dx [sum(x*x) + sum(3x)] = 2x + 3.
    x = t([1.0, -2.0, 0.5], rg=True)
    loss = af.tsum(x * x) + af.tsum(x * 3.0)
    af.backward(loss)
    assert np.allclose(x.grad, 2 * x.data + 3.0)
    err = grad_check_params(lambda: af.tsum(x * x) + af.tsum(x * 3.0), [x])
    assert err < 1e-4


def test_no_grad_suppresses_recording():
    x = t(np.ones(3), rg=True)
    with af.no_grad():
        y = x * 2.0
    assert y.backward_fn is None and not y.requires_grad
    assert len(af.active_tape()) == 0


def test_no_grad_in_one_thread_leaves_another_recording():
    entered, release = threading.Event(), threading.Event()

    def hold_no_grad():
        with af.no_grad():
            entered.set()
            release.wait(timeout=10)

    holder = threading.Thread(target=hold_no_grad)
    holder.start()
    try:
        assert entered.wait(timeout=10)
        y = t(np.ones(3), rg=True) * 2.0
    finally:
        release.set()
        holder.join(timeout=10)
    assert not holder.is_alive()
    assert y.requires_grad and y.backward_fn is not None
    assert len(af.active_tape()) == 1


# ---------------------------------------------------------------------
# reductions / shape ops / exp / log
# ---------------------------------------------------------------------

def test_sum_axis_and_mean():
    x = t(np.arange(6.0).reshape(2, 3))
    assert np.array_equal(af.tsum(x, axis=0).data, [3.0, 5.0, 7.0])
    assert np.allclose(af.tmean(x, axis=1).data, [1.0, 4.0])


def test_reshape_transpose_roundtrip_gradient():
    rng = np.random.default_rng(11)
    x = t(rng.normal(size=(2, 3, 4)), rg=True)
    err = grad_check_params(
        lambda: af.tsum(af.reshape(af.transpose(x, (1, 0, 2)), (3, 8)) * 0.5)
        + af.tsum(af.reshape(x, (6, 4)) * af.reshape(x, (6, 4))), [x])
    assert err < 1e-4


def test_concat_splits_gradient():
    a = t(np.ones((2, 2)), rg=True)
    b = t(np.ones((2, 3)), rg=True)
    af.backward(af.tsum(af.concat([a, b], axis=1) * 2.0))
    assert np.array_equal(a.grad, np.full((2, 2), 2.0))
    assert np.array_equal(b.grad, np.full((2, 3), 2.0))


def test_exp_log_gradients():
    rng = np.random.default_rng(12)
    x = t(rng.normal(size=(3,)), rg=True)
    err = grad_check_params(lambda: af.tsum(af.texp(x)), [x])
    assert err < 1e-4
    y = t(np.abs(rng.normal(size=(3,))) + 0.5, rg=True)
    err = grad_check_params(lambda: af.tsum(af.tlog(y)), [y])
    assert err < 1e-4


# ---------------------------------------------------------------------
# spatial primitives
# ---------------------------------------------------------------------

def test_extract_patches_shapes_and_content():
    x = t(np.arange(16.0).reshape(1, 1, 4, 4))
    out = af.extract_patches(x, kernel=2, stride=2, pad=0)
    assert out.shape == (1, 4, 4)
    assert np.array_equal(out.data[0, 0], [0.0, 1.0, 4.0, 5.0])
    assert np.array_equal(out.data[0, 3], [10.0, 11.0, 14.0, 15.0])


def test_extract_patches_gradient_overlapping():
    rng = np.random.default_rng(13)
    x = t(rng.normal(size=(1, 2, 6, 6)), rg=True)
    err = grad_check_params(
        lambda: af.tsum(af.extract_patches(x, 3, 2, 1) * af.extract_patches(x, 3, 2, 1)),
        [x])
    assert err < 1e-4


def test_upsample_identity_when_same_size():
    x = t(np.random.default_rng(14).normal(size=(2, 3, 5, 5)))
    out = af.upsample_bilinear(x, 5, 5)
    assert np.allclose(out.data, x.data)


def test_upsample_constant_stays_constant():
    x = t(np.full((1, 1, 3, 3), 7.5))
    out = af.upsample_bilinear(x, 9, 6)
    assert np.allclose(out.data, 7.5)


def test_upsample_rejects_downscale():
    with pytest.raises(ShapeError):
        af.upsample_bilinear(t(np.zeros((1, 1, 4, 4))), 2, 4)


def _naive_bilinear(img, out_h, out_w):
    """Independent nested-loop align_corners=False interpolation."""
    h, w = img.shape
    out = np.zeros((out_h, out_w))
    for i in range(out_h):
        for j in range(out_w):
            sy = min(max((i + 0.5) * h / out_h - 0.5, 0.0), h - 1.0)
            sx = min(max((j + 0.5) * w / out_w - 0.5, 0.0), w - 1.0)
            y0, x0 = int(np.floor(sy)), int(np.floor(sx))
            y1, x1 = min(y0 + 1, h - 1), min(x0 + 1, w - 1)
            fy, fx = sy - y0, sx - x0
            out[i, j] = (img[y0, x0] * (1 - fy) * (1 - fx)
                         + img[y0, x1] * (1 - fy) * fx
                         + img[y1, x0] * fy * (1 - fx)
                         + img[y1, x1] * fy * fx)
    return out


def test_upsample_2x2_matches_hand_computed_weights():
    img = np.array([[1.0, 2.0], [3.0, 4.0]])
    out = af.upsample_bilinear(t(img[None, None]), 4, 4).data[0, 0]
    assert np.allclose(out, _naive_bilinear(img, 4, 4))
    # hand value: row-interp 0.75*[1,2]+0.25*[3,4]=[1.5,2.5], col 0.75/0.25 mix
    assert abs(out[1, 1] - 1.75) < 1e-12
    assert out[0, 0] == 1.0 and out[3, 3] == 4.0


@pytest.mark.parametrize("seed", range(5))
def test_upsample_matches_naive_oracle(seed):
    rng = np.random.default_rng(seed)
    img = rng.normal(size=(3, 4))
    out = af.upsample_bilinear(t(img[None, None]), 7, 9).data[0, 0]
    assert np.allclose(out, _naive_bilinear(img, 7, 9), atol=1e-12)


def test_upsample_gradient():
    rng = np.random.default_rng(15)
    x = t(rng.normal(size=(1, 2, 3, 3)), rg=True)
    err = grad_check_params(
        lambda: af.tsum(af.upsample_bilinear(x, 6, 7) * af.upsample_bilinear(x, 6, 7)),
        [x])
    assert err < 1e-4


# ---------------------------------------------------------------------
# frozen operands
# ---------------------------------------------------------------------

def rule(out, g=None):
    """Run the backward rule of the op that produced ``out``."""
    return out.backward_fn(np.ones_like(out.data) if g is None else g)


def test_matmul_rule_skips_frozen_operand():
    rng = np.random.default_rng(20)
    x = t(rng.normal(size=(2, 3, 4)), rg=True)
    w = t(rng.normal(size=(4, 5)))
    out = af.matmul(x, w)
    w.requires_grad = True          # flags are read when the node is made
    gx, gw = rule(out)
    assert gx.shape == x.shape and gw is None
    gx, gw = rule(af.matmul(af.Tensor(x.data), w))
    assert gx is None and gw.shape == w.shape


def test_mul_rule_skips_frozen_and_scalar_operands():
    x = t([1.0, 2.0], rg=True)
    assert rule(x * 3.0)[1] is None
    frozen = t([4.0, 5.0])
    gf, gx = rule(frozen * x)
    assert gf is None and np.array_equal(gx, frozen.data)


def test_layer_norm_rule_skips_frozen_operands():
    rng = np.random.default_rng(21)
    x = t(rng.normal(size=(2, 3, 4)), rg=True)
    gamma, beta = t(np.ones(4)), t(np.zeros(4))
    dx, dgamma, dbeta = rule(af.layer_norm(x, gamma, beta))
    assert dx.shape == x.shape and dgamma is None and dbeta is None
    gamma.requires_grad = beta.requires_grad = True
    dx, dgamma, dbeta = rule(af.layer_norm(af.Tensor(x.data), gamma, beta))
    assert dx is None and dgamma.shape == (4,) and dbeta.shape == (4,)


def test_concat_rule_skips_frozen_parts():
    a, b = t(np.ones((2, 2))), t(np.ones((2, 3)), rg=True)
    ga, gb = rule(af.concat([a, b], axis=1))
    assert ga is None and np.array_equal(gb, np.ones((2, 3)))


def test_weight_gradient_matches_batched_reference():
    rng = np.random.default_rng(22)
    x = t(rng.normal(size=(3, 7, 6)))
    w = t(rng.normal(size=(6, 4)), rg=True)
    g = rng.normal(size=(3, 7, 4))
    _, gw = rule(af.matmul(x, w), g)
    reference = (np.swapaxes(x.data, -1, -2) @ g).sum(axis=0)
    assert gw.shape == w.shape
    assert np.max(np.abs(gw - reference)) < 1e-12


def test_input_gradient_matches_stacked_reference():
    rng = np.random.default_rng(23)
    x = t(rng.normal(size=(3, 7, 6)), rg=True)
    w = t(rng.normal(size=(6, 4)))
    g = rng.normal(size=(3, 7, 4))
    out = af.matmul(x, w)
    assert np.array_equal(out.data, x.data @ w.data)
    gx, _ = rule(out, g)
    assert gx.shape == x.shape
    assert np.max(np.abs(gx - g @ w.data.T)) < 1e-12


# ---------------------------------------------------------------------
# fused nodes: bit-identical to the chains they replace
# ---------------------------------------------------------------------

def leaf_grads(out, leaves, rng):
    """Back-propagate sum(out * G) for a fixed random G; the leaves' grads."""
    for leaf in leaves:
        leaf.grad = None
    upstream = af.Tensor(rng.normal(size=out.shape).astype(out.dtype))
    af.backward(af.tsum(out * upstream))
    return [leaf.grad for leaf in leaves]


def assert_same_bits(fused, chain, leaves, seed):
    """Equal output bytes and equal gradient bytes for every leaf; no
    gradient for a leaf that does not require one."""
    assert fused.dtype == chain.dtype and fused.data.tobytes() == chain.data.tobytes()
    grads_fused = leaf_grads(fused, leaves, np.random.default_rng(seed))
    grads_chain = leaf_grads(chain, leaves, np.random.default_rng(seed))
    for leaf, gf, gc in zip(leaves, grads_fused, grads_chain):
        if not leaf.requires_grad:
            assert gf is None and gc is None
        else:
            assert gf.dtype == leaf.dtype and gf.tobytes() == gc.tobytes()
    frozen = [not leaf.requires_grad for leaf in leaves]
    rule_grads = rule(fused)
    assert [g is None for g in rule_grads] == frozen


@pytest.mark.parametrize("dtype", [np.float32, np.float64])
@pytest.mark.parametrize("frozen", ["none", "x", "w", "b", "w,b"])
def test_biased_matmul_is_bitwise_matmul_then_add(dtype, frozen):
    rng = np.random.default_rng(30)
    x = af.Tensor(rng.normal(size=(3, 5, 6)).astype(dtype), requires_grad="x" not in frozen)
    w = af.Tensor(rng.normal(size=(6, 4)).astype(dtype), requires_grad="w" not in frozen)
    b = af.Tensor(rng.normal(size=4).astype(dtype), requires_grad="b" not in frozen)
    assert_same_bits(af.matmul(x, w, b), af.matmul(x, w) + b, [x, w, b], seed=31)


def test_biased_matmul_rejects_a_bias_that_does_not_broadcast():
    with pytest.raises(ShapeError, match="bias"):
        af.matmul(t(np.ones((2, 3))), t(np.ones((3, 4))), t(np.ones(3)))
    with pytest.raises(ShapeError, match="bias"):
        af.matmul(t(np.ones((2, 3))), t(np.ones((3, 4))), t(np.ones((5, 2, 4))))


def attention_chain(q, k, v, heads):
    """The composed multi-head attention chain that ``attention`` replaces."""
    b, n, d = q.shape
    hd = d // heads

    def split(x):
        return af.transpose(af.reshape(x, (x.shape[0], x.shape[1], heads, hd)), (0, 2, 1, 3))

    qh, kh, vh = split(q), split(k), split(v)
    scores = af.matmul(qh, af.transpose(kh, (0, 1, 3, 2))) * (1.0 / np.sqrt(hd))
    ctx = af.matmul(af.softmax(scores), vh)
    return af.reshape(af.transpose(ctx, (0, 2, 1, 3)), (b, n, d))


@pytest.mark.parametrize("dtype", [np.float32, np.float64])
@pytest.mark.parametrize("heads", [1, 2, 5])
@pytest.mark.parametrize("n,m", [(6, 6), (8, 2)], ids=["self", "reduced-kv"])
@pytest.mark.parametrize("frozen", ["none", "q", "k", "v", "k,v"])
def test_attention_is_bitwise_the_composed_chain(dtype, heads, n, m, frozen):
    rng = np.random.default_rng(40 + heads)
    d = 2 * 5                                   # divisible by every head count
    q, k, v = (af.Tensor(rng.normal(size=(2, length, d)).astype(dtype),
                         requires_grad=name not in frozen)
               for name, length in (("q", n), ("k", m), ("v", m)))
    assert_same_bits(af.attention(q, k, v, heads), attention_chain(q, k, v, heads),
                     [q, k, v], seed=41)


def test_attention_rejects_mismatched_operands():
    q = t(np.ones((2, 4, 6)))
    with pytest.raises(ShapeError, match="attention"):
        af.attention(q, t(np.ones((2, 3, 6))), t(np.ones((2, 2, 6))), 2)
    with pytest.raises(ShapeError, match="attention"):
        af.attention(q, t(np.ones((2, 3, 4))), t(np.ones((2, 3, 4))), 2)
    with pytest.raises(ShapeError, match="heads"):
        af.attention(q, q, q, 4)


# ---------------------------------------------------------------------
# rewritten primitives: bit-identical to the code they replaced
# ---------------------------------------------------------------------

def reference_extract_patches(x, kernel, stride, pad):
    """``extract_patches`` as written with ``np.pad`` and a sliding window."""
    b, c, h, w = x.shape
    out_h = (h + 2 * pad - kernel) // stride + 1
    out_w = (w + 2 * pad - kernel) // stride + 1
    xp = np.pad(x.data, ((0, 0), (0, 0), (pad, pad), (pad, pad)))
    win = np.lib.stride_tricks.sliding_window_view(xp, (kernel, kernel), axis=(2, 3))
    win = win[:, :, ::stride, ::stride]
    out = win.transpose(0, 2, 3, 1, 4, 5).reshape(b, out_h * out_w, c * kernel * kernel)
    out = np.ascontiguousarray(out)

    def bwd(g):
        gw = g.reshape(b, out_h, out_w, c, kernel, kernel).transpose(0, 3, 1, 2, 4, 5)
        gp = np.zeros_like(xp)
        for ki in range(kernel):
            for kj in range(kernel):
                gp[:, :, ki:ki + out_h * stride:stride,
                   kj:kj + out_w * stride:stride] += gw[..., ki, kj]
        if pad:
            gp = gp[:, :, pad:pad + h, pad:pad + w]
        return (np.ascontiguousarray(gp),)

    return af.tensor._make(out, (x,), bwd)


def reference_layer_norm(x, gamma, beta, eps=1e-6):
    """``layer_norm`` as written with ``ndarray.mean`` and ``ndarray.sum``."""
    mu = x.data.mean(axis=-1, keepdims=True)
    centered = x.data - mu
    var = (centered * centered).mean(axis=-1, keepdims=True)
    inv = 1.0 / np.sqrt(var + eps)
    xhat = centered * inv
    out = xhat * gamma.data + beta.data
    need_x, need_gamma, need_beta = x.requires_grad, gamma.requires_grad, beta.requires_grad

    def bwd(g):
        lead = tuple(range(g.ndim - 1))
        dx = dgamma = dbeta = None
        if need_beta:
            dbeta = g.sum(axis=lead)
        if need_gamma:
            dgamma = (g * xhat).sum(axis=lead)
        if need_x:
            dxhat = g * gamma.data
            dx = inv * (dxhat
                        - dxhat.mean(axis=-1, keepdims=True)
                        - xhat * (dxhat * xhat).mean(axis=-1, keepdims=True))
        return dx, dgamma, dbeta

    return af.tensor._make(out, (x, gamma, beta), bwd)


def awkward(rng, shape, dtype):
    """Normal values with +0.0, -0.0 and entries near 1e4 mixed in."""
    a = rng.normal(size=shape)
    flat = a.reshape(-1)
    flat[::7] = -0.0
    flat[3::11] = 0.0
    flat[5::13] *= 1e4
    return a.astype(dtype)


@pytest.mark.parametrize("dtype", [np.float32, np.float64])
@pytest.mark.parametrize("kernel,stride,pad,shape", [
    (7, 4, 3, (2, 1, 32, 32)), (3, 2, 1, (2, 4, 8, 8)), (2, 2, 0, (2, 4, 8, 8)),
    (8, 8, 0, (2, 3, 16, 16)), (1, 1, 0, (2, 3, 5, 5)), (3, 2, 1, (2, 2, 7, 9)),
    (2, 2, 0, (2, 2, 7, 9)), (3, 1, 0, (1, 2, 6, 5)),
], ids=["7-4-3", "3-2-1", "2-2-0", "8-8-0", "1-1-0", "3-2-1-odd", "2-2-0-odd", "3-1-0"])
@pytest.mark.parametrize("layout", ["contiguous", "transposed"])
def test_extract_patches_is_bitwise_the_replaced_code(dtype, kernel, stride, pad, shape,
                                                      layout):
    rng = np.random.default_rng(50 + kernel)
    if layout == "contiguous":
        x = af.Tensor(awkward(rng, shape, dtype), requires_grad=True)
    else:                                       # a token map seen as [B, C, H, W]
        b, c, h, w = shape
        tokens = awkward(rng, (b, h, w, c), dtype)
        x = af.Tensor(tokens.transpose(0, 3, 1, 2), requires_grad=True)
    assert_same_bits(af.extract_patches(x, kernel, stride, pad),
                     reference_extract_patches(x, kernel, stride, pad), [x], seed=51)


@pytest.mark.parametrize("dtype", [np.float32, np.float64])
@pytest.mark.parametrize("trainable", ["x", "gamma,beta", "x,gamma,beta"])
@pytest.mark.parametrize("shape", [(3, 7), (2, 5, 20), (2, 3, 4, 64)])
def test_layer_norm_is_bitwise_the_replaced_code(dtype, trainable, shape):
    rng = np.random.default_rng(60 + len(shape))
    d = shape[-1]
    x = af.Tensor(awkward(rng, shape, dtype) * 50, requires_grad="x" in trainable)
    gamma = af.Tensor(awkward(rng, (d,), dtype), requires_grad="gamma" in trainable)
    beta = af.Tensor(awkward(rng, (d,), dtype), requires_grad="beta" in trainable)
    assert_same_bits(af.layer_norm(x, gamma, beta),
                     reference_layer_norm(x, gamma, beta), [x, gamma, beta], seed=61)


# ---------------------------------------------------------------------
# tensor invariants
# ---------------------------------------------------------------------

@pytest.mark.parametrize("dtype", [np.float32, np.float64])
def test_full_sum_is_a_zero_d_array_of_the_input_dtype(dtype):
    out = af.tsum(af.Tensor(np.ones((3, 4), dtype=dtype)))
    assert type(out.data) is np.ndarray and out.data.dtype == dtype and out.shape == ()


def test_every_primitive_keeps_float32():
    rng = np.random.default_rng(70)

    def f32(*shape):
        return af.Tensor(rng.normal(size=shape).astype(np.float32), requires_grad=True)

    x, w, b = f32(2, 4, 6), f32(6, 6), f32(6)
    img = f32(2, 3, 4, 4)
    outputs = {
        "add": af.add(x, 1.5), "sub": af.sub(x, x), "mul": af.mul(x, 0.5),
        "texp": af.texp(x), "tlog": af.tlog(af.texp(x)), "matmul": af.matmul(x, w, b),
        "attention": af.attention(x, x, x, 2), "gelu": af.gelu(x),
        "softmax": af.softmax(x), "log_softmax": af.log_softmax(x),
        "layer_norm": af.layer_norm(x, b, b),
        "dropout": af.dropout(x, 0.5, rng=np.random.default_rng(0)),
        "drop_path": af.drop_path(x, 0.5, rng=np.random.default_rng(0)),
        "tsum": af.tsum(x), "tsum_axis": af.tsum(x, axis=1), "tmean": af.tmean(x),
        "reshape": af.reshape(x, (8, 6)), "transpose": af.transpose(x, (2, 0, 1)),
        "concat": af.concat([x, x], axis=1), "extract_patches": af.extract_patches(img, 3, 2, 1),
        "upsample_bilinear": af.upsample_bilinear(img, 7, 9),
    }
    for name, out in outputs.items():
        assert isinstance(out.data, np.ndarray) and out.dtype == np.float32, name


def test_interpolation_matrices_are_cached_and_read_only():
    rows = af.tensor._interp_matrix(8, 3, np.dtype(np.float32))
    assert af.tensor._interp_matrix(8, 3, np.dtype(np.float32)) is rows
    with pytest.raises(ValueError, match="read-only"):
        rows[0, 0] = 2.0
    assert rows.dtype == np.float32 and np.allclose(rows.sum(axis=1), 1.0)


def test_data_length_matches_shape_product():
    x = t(np.zeros((3, 4, 5)))
    assert x.size == 60 and x.data.size == int(np.prod(x.shape))


def test_grad_matches_data_shape_after_backward():
    x = t(np.ones((2, 5)), rg=True)
    af.backward(af.tsum(x * x))
    assert x.grad.shape == x.data.shape


def test_backward_stores_grad_on_leaves_only(monkeypatch):
    """Intermediate outputs get no ``grad``; leaf gradients equal a plain
    reverse sweep over the tape that accumulates in the same order."""
    outputs = []

    def make(out_data, inputs, backward_fn, _make=af.tensor._make):
        out = _make(out_data, inputs, backward_fn)
        outputs.append(out)
        return out
    monkeypatch.setattr(af.tensor, "_make", make)
    model = af.FusionModel(af.ModelConfig(modalities=("vis", "ir"), channels=(1, 1),
                                          bottleneck=4, num_classes=3,
                                          dtype="float32", seed=5))
    rng = np.random.default_rng(5)
    images = {name: rng.random((2, 1, 32, 32)) for name in ("vis", "ir")}
    loss = af.tsum(model.forward(images, train=True))
    nodes = list(af.active_tape()._nodes)
    assert [out for out in outputs if out.backward_fn is not None] == nodes

    # tensor -> gradient
    grads = {loss: np.ones_like(loss.data)}
    for node in reversed(nodes):
        g_out = grads.get(node)
        if g_out is None:
            continue
        for x, g in zip(node.inputs, node.backward_fn(g_out)):
            if g is not None and x.requires_grad:
                grads[x] = grads[x] + g if x in grads else g

    af.backward(loss)
    assert all(out.grad is None for out in outputs if out.backward_fn is not None)
    leaves = [p for _, p in model.trainable_parameters()]
    assert all(p.grad is not None for p in leaves)
    for p in leaves:
        assert p.grad.tobytes() == grads[p].tobytes()


def test_backward_refuses_a_cleared_graph():
    x = t([1.0, 2.0], rg=True)
    loss = af.tsum(x * x)
    af.active_tape().clear()
    with pytest.raises(RuntimeError, match="cleared, or recorded in another thread"):
        af.backward(loss)
    assert x.grad is None


def test_backward_refuses_a_graph_recorded_in_another_thread():
    x = t([1.0, 2.0], rg=True)
    made = []
    worker = threading.Thread(target=lambda: made.append(af.tsum(x * x)))
    worker.start()
    worker.join(timeout=10)
    assert not worker.is_alive() and len(af.active_tape()) == 0
    with pytest.raises(RuntimeError, match="cleared, or recorded in another thread"):
        af.backward(made[0])
    assert x.grad is None
