"""Adapter parameter budgets: closed form vs enumeration."""

import math

import pytest

from adafuse.adapters import DENSITIES, build_adapter_bank, routes_for
from adafuse.budget import (adapter_param_count, analytic_count, budget_report,
                            empirical_count)
from adafuse.cli import build_parser
from adafuse.encoder import PRESETS, EncoderConfig
from adafuse.model import DTYPES, FusionModel, ModelConfig

B2 = EncoderConfig.preset("b2-like")


def count_for(m, stages, density="pair-bi", bias=True, r=8, config=B2):
    return analytic_count(config, density, stages, m, r, include_biases=bias)


# Frozen expected totals, derived by direct summation over stages:
# per adapter 2*r*d + r^2 (+ 2r + d biases), x2 positions, x route
# count, x depth. They reproduce the published budget deltas.
def test_m2_all_stages_is_144k():
    assert count_for(2, (1, 2, 3, 4)) == 144_000


def test_m3_all_stages_is_432k():
    assert count_for(3, (1, 2, 3, 4)) == 432_000


def test_m4_latter_two_stages_is_713664():
    assert count_for(4, (3, 4)) == 713_664


def test_deltas_round_to_published_millions():
    assert round(count_for(2, (1, 2, 3, 4)) / 1e6, 2) == 0.14
    assert round(count_for(3, (1, 2, 3, 4)) / 1e6, 2) == 0.43
    assert round(count_for(4, (3, 4)) / 1e6, 2) == 0.71


def test_weights_only_convention():
    # literal formula without biases: sum (2 r d_i + r^2) * 2 * C(m,2) * depth_i
    got = count_for(2, (1, 2, 3, 4), bias=False)
    want = sum((2 * 8 * d + 64) * 2 * 1 * dep
               for d, dep in zip(B2.dims, B2.depths))
    assert got == want == 135_168


def test_adapter_param_count_components():
    assert adapter_param_count(64, 8, include_biases=False) == 2 * 8 * 64 + 64
    assert adapter_param_count(64, 8, include_biases=True) == 2 * 8 * 64 + 64 + 16 + 64


@pytest.mark.parametrize("m", [2, 3, 4])
@pytest.mark.parametrize("density", ["shared", "pair-bi", "pair-uni"])
def test_analytic_equals_enumerated_bank(m, density):
    cfg = EncoderConfig.preset("b2-like")
    stages = (3, 4)
    bank = build_adapter_bank(m, cfg, density, stages, 8, seed=0)
    assert count_for(m, stages, density) == empirical_count(bank)


def test_shared_count_is_pair_bi_over_choose2():
    for m in (2, 3, 4, 6):
        shared = count_for(m, (1, 2), "shared")
        pair = count_for(m, (1, 2), "pair-bi")
        assert shared == pair // math.comb(m, 2)


def test_monotonic_in_m_r_and_stages():
    base = count_for(2, (3, 4))
    assert count_for(3, (3, 4)) > base
    assert count_for(2, (2, 3, 4)) > base
    assert count_for(2, (3, 4), r=16) > base


def test_route_counts():
    assert len(routes_for("shared", 5)) == 1
    assert len(routes_for("pair-bi", 5)) == 10
    assert len(routes_for("pair-uni", 5)) == 20


def test_empirical_count_of_a_model_bank_matches_analytic():
    cfg = ModelConfig(preset="tiny", modalities=("a", "b"), channels=(1, 1),
                      bottleneck=4, dtype="float32", num_classes=3)
    model = FusionModel(cfg)
    assert empirical_count(model.bank) == \
        count_for(2, (1, 2, 3, 4), r=4, config=EncoderConfig.preset("tiny")) > 0


def test_budget_report_record_and_table():
    record, table = budget_report("b2-like", 2, "pair-bi", (1, 2, 3, 4), 8)
    assert record["analytic_with_biases"] == 144_000
    assert record["empirical_adapters"] == 144_000
    assert record["match"] is True
    assert record["delta_millions"] == 0.14
    assert "144,000" in table


def test_analytic_count_validation():
    with pytest.raises(ValueError, match=">= 2 modalities"):
        count_for(1, (1,))
    with pytest.raises(ValueError, match="stage 5 outside 1..4"):
        count_for(2, (3, 5))
    with pytest.raises(ValueError, match="stage 0 outside 1..4"):
        count_for(2, (0,))


def test_repeated_or_unordered_stages_count_once():
    tiny = EncoderConfig.preset("tiny")
    assert analytic_count(tiny, "pair-bi", (4, 3, 3), 2, 8) == \
        analytic_count(tiny, "pair-bi", (3, 4), 2, 8)
    bank = build_adapter_bank(2, tiny, "pair-bi", (4, 3, 3), 8, seed=0)
    assert bank.stages == (3, 4)
    assert empirical_count(bank) == analytic_count(tiny, "pair-bi", (3, 4), 2, 8)


@pytest.mark.parametrize("m,density,stages,r", [
    (2, "pair-bi", (0,), 8), (2, "pair-bi", (3, 5), 8), (2, "pair-bi", (), 8),
    (1, "shared", (1,), 8), (2, "dense-everything", (1,), 8), (2, "pair-bi", (3, 4), 0),
    (2, "pair-bi", (3, 4), -3)],
    ids=["stage-0", "stage-5", "no-stages", "one-modality", "unknown-density",
         "bottleneck-0", "bottleneck-negative"])
def test_closed_form_and_bank_refuse_the_same_inputs(m, density, stages, r):
    tiny = EncoderConfig.preset("tiny")
    checks = [lambda: analytic_count(tiny, density, stages, m, r),
              lambda: build_adapter_bank(m, tiny, density, stages, r, seed=0)]
    if m == 2:
        checks.append(lambda: ModelConfig(modalities=("vis", "ir"), channels=(1, 1),
                                          density=density, active_stages=stages,
                                          bottleneck=r))
    messages = []
    for check in checks:
        with pytest.raises(ValueError) as exc:
            check()
        messages.append(str(exc.value))
    assert len(set(messages)) == 1, messages


@pytest.mark.parametrize("key,name", [("density", d) for d in DENSITIES]
                         + [("preset", p) for p in PRESETS]
                         + [("dtype", t) for t in DTYPES])
def test_every_listed_name_is_taken_by_the_config_and_the_cli(key, name):
    assert getattr(ModelConfig(**{key: name}), key) == name
    parser = build_parser()
    args = parser.parse_args(["train", "--data", "d", "--out", "o", f"--{key}", name])
    assert getattr(args, key) == name
    if key != "dtype":                  # param-count builds no model
        assert getattr(parser.parse_args(["param-count", f"--{key}", name]), key) == name
