"""Adapter parameter budgets: closed-form and enumerated counts.

The closed form sums, over active stages and their blocks, two adapter
positions times the per-route adapter size times the number of routes
per slot. The published budget deltas only come out when biases are
counted, so both conventions are exposed: ``include_biases=False`` is
the bare weight-matrix formula, ``include_biases=True`` is what a real
bank carries.
"""

from __future__ import annotations

from .adapters import AdapterBank, DensityConfig, build_adapter_bank, routes_for
from .encoder import EncoderConfig


def adapter_param_count(dim: int, r: int, include_biases: bool) -> int:
    """One bottleneck adapter: d->r, r->r and r->d weights (+ biases)."""
    weights = 2 * r * dim + r * r
    if include_biases:
        weights += 2 * r + dim
    return weights


def analytic_count(config: EncoderConfig, density: DensityConfig,
                   num_modalities: int, bottleneck: int,
                   include_biases: bool = True) -> int:
    """The adapter parameters of the bank ``build_adapter_bank`` would
    build for these arguments, in closed form, without building it."""
    if num_modalities < 2:
        raise ValueError("budgets are defined for >= 2 modalities")
    routes = len(routes_for(density.variant, num_modalities))
    total = 0
    for stage in density.active_stages:
        if not 1 <= stage <= config.num_stages:
            raise ValueError(f"stage {stage} outside 1..{config.num_stages}")
        total += adapter_param_count(config.dims[stage - 1], bottleneck, include_biases) \
            * 2 * routes * config.depths[stage - 1]
    return total


def empirical_count(bank: AdapterBank) -> int:
    """Sum the element counts of a bank's parameter buffers."""
    return sum(p.size for p in bank.parameters())


def budget_report(preset: str, num_modalities: int, density, active_stages,
                  bottleneck: int = 8) -> tuple[dict, str]:
    """Analytic-vs-enumerated comparison under both bias conventions.

    Returns (key/value record, printable table). The enumerated count
    comes from actually building the bank for the requested shape.
    """
    cfg = EncoderConfig.preset(preset)
    density = DensityConfig(density, tuple(active_stages))
    with_biases = analytic_count(cfg, density, num_modalities, bottleneck)
    weights_only = analytic_count(cfg, density, num_modalities, bottleneck,
                                  include_biases=False)
    bank = build_adapter_bank(num_modalities, cfg, density, bottleneck, seed=0)
    record = {
        "preset": preset,
        "modalities": num_modalities,
        "density": density.variant.value,
        "active_stages": ",".join(str(s) for s in density.active_stages),
        "bottleneck": bottleneck,
        "analytic_with_biases": with_biases,
        "analytic_weights_only": weights_only,
        "empirical_adapters": empirical_count(bank),
        "delta_millions": round(with_biases / 1e6, 2),
    }
    record["match"] = record["analytic_with_biases"] == record["empirical_adapters"]
    lines = [
        f"adapter budget: preset={preset} m={num_modalities} density={record['density']} "
        f"stages={record['active_stages']} r={bottleneck}",
        f"  analytic (weights only)   {record['analytic_weights_only']:>12,}",
        f"  analytic (with biases)    {record['analytic_with_biases']:>12,}",
        f"  enumerated from the bank  {record['empirical_adapters']:>12,}",
        f"  delta                     {record['delta_millions']:>11.2f}M",
        f"  analytic == enumerated    {str(record['match']).lower()}",
    ]
    return record, "\n".join(lines)
