"""Contract of the finite-difference harness itself."""

import numpy as np
import pytest

import adafuse as af
from adafuse.adapters import CrossModalAdapter
from adafuse.gradcheck import grad_check_params, relative_error
from adafuse.tensor import ShapeError


def test_relative_error_normalization():
    assert relative_error(0.0, 0.0) == 0.0
    assert relative_error(100.0, 99.0) == pytest.approx(0.01)
    assert relative_error(0.5, 0.4) == pytest.approx(0.1)  # denominator floors at 1


def test_sum_has_exactly_zero_error():
    # With zero data the +/-h probes are exact floats, so the central
    # difference is exactly 1.0 and the error is identically zero.
    x = af.Tensor(np.zeros((3, 3)), requires_grad=True)
    assert grad_check_params(lambda: af.tsum(x), [x]) == 0.0
    # On arbitrary data only float rounding of the probes remains.
    y = af.Tensor(np.random.default_rng(0).normal(size=(3, 3)), requires_grad=True)
    assert grad_check_params(lambda: af.tsum(y), [y]) < 1e-10


def test_gelu_error_below_1e6():
    x = af.Tensor(np.random.default_rng(1).normal(size=(4, 4)), requires_grad=True)
    assert grad_check_params(lambda: af.tsum(af.gelu(x)), [x]) < 1e-6


def test_full_adapter_forward_below_1e4():
    rng = np.random.default_rng(2)
    adapter = CrossModalAdapter(6, 3, rng, dropout_rate=0.0)
    for p in adapter.parameters():
        p.data[...] = rng.normal(0.0, 0.3, p.shape)
    x = af.Tensor(rng.normal(size=(4, 6)))
    err = grad_check_params(lambda: af.tsum(adapter(x) * adapter(x)),
                            list(adapter.parameters()))
    assert err < 1e-4


def test_rejects_non_scalar_function():
    x = af.Tensor(np.ones((2, 2)), requires_grad=True)
    with pytest.raises(ShapeError):
        grad_check_params(lambda: x * 2.0, [x])


def test_subsampled_coordinates_are_deterministic():
    rng = np.random.default_rng(3)
    x = af.Tensor(rng.normal(size=(30,)), requires_grad=True)
    err1 = grad_check_params(lambda: af.tsum(x * x), [x], max_coords=5, seed=7)
    err2 = grad_check_params(lambda: af.tsum(x * x), [x], max_coords=5, seed=7)
    assert err1 == err2 < 1e-4
