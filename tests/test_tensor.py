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
    assert y._node is None and not y.requires_grad
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
    assert y.requires_grad and y._node is not None
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
        lambda: af.tsum(x.transpose(1, 0, 2).reshape(3, 8) * 0.5)
        + af.tsum(x.reshape(6, 4) * x.reshape(6, 4)), [x])
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
    """Run the backward rule of the node that produced ``out``."""
    return out._node.backward_fn(np.ones_like(out.data) if g is None else g)


def test_matmul_rule_skips_frozen_operand():
    rng = np.random.default_rng(20)
    x = t(rng.normal(size=(2, 3, 4)), rg=True)
    w = t(rng.normal(size=(4, 5)))
    out = af.matmul(x, w)
    w.requires_grad = True          # flags are read when the node is made
    gx, gw = rule(out)
    assert gx.shape == x.shape and gw is None
    gx, gw = rule(af.matmul(x.detach(), w))
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
    dx, dgamma, dbeta = rule(af.layer_norm(x.detach(), gamma, beta))
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


# ---------------------------------------------------------------------
# tensor invariants
# ---------------------------------------------------------------------

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
    images = [rng.random((2, 1, 32, 32)) for _ in range(2)]
    loss = af.tsum(model.forward(images, train=True))
    nodes = list(af.active_tape()._nodes)
    assert [out._node for out in outputs if out._node is not None] == nodes

    # node (or leaf tensor) -> gradient
    grads = {loss._node: np.ones_like(loss.data)}
    for node in reversed(nodes):
        g_out = grads.get(node)
        if g_out is None:
            continue
        for x, g in zip(node.inputs, node.backward_fn(g_out)):
            if g is not None and x.requires_grad:
                key = x._node or x
                grads[key] = grads[key] + g if key in grads else g

    af.backward(loss)
    assert all(out.grad is None for out in outputs if out._node is not None)
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
