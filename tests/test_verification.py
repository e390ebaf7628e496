"""The verification suites themselves (single-seed smoke; the
acceptance module runs them at full width)."""

from adafuse.verification import (adapter_check, end_to_end_check,
                                  equivalence_suite, fused_block_check,
                                  gradient_suite, primitive_checks)


def test_primitive_checks_cover_every_op_family():
    errs = primitive_checks(seed=0)
    expected = {"matmul", "add", "sub", "mul", "broadcast_add_bias",
                "layer_norm", "softmax", "log_softmax", "gelu", "exp", "log",
                "sum_axis", "mean", "reshape_transpose", "concat", "dropout",
                "drop_path", "extract_patches", "upsample_bilinear",
                "cross_entropy"}
    assert expected <= set(errs)
    assert max(errs.values()) < 1e-4


def test_composite_checks_single_seed():
    assert adapter_check(seed=1) < 1e-4
    assert fused_block_check(seed=1) < 1e-4
    assert end_to_end_check(seed=1) < 1e-4


def test_gradient_suite_report_shape():
    report = gradient_suite(seeds=[5], tol=1e-4)
    assert report["passed"] and report["seeds"] == [5]
    assert {"adapter", "fused_block", "end_to_end"} <= set(report["checks"])


def test_equivalence_suite_covers_both_precisions():
    suite = equivalence_suite(seed=2)
    assert set(suite["reports"]) == {"float32", "float64"}
    assert suite["passed"]
