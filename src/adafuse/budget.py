"""Adapter parameter budgets: closed-form and enumerated counts.

The closed form sums, over active stages and their blocks, two adapter
positions times the per-route adapter size times the density's route
multiplier. The published budget deltas only come out when biases are
counted, so both conventions are exposed: ``include_biases=False`` is
the bare weight-matrix formula, ``include_biases=True`` is what a real
bank carries.
"""

from __future__ import annotations

from dataclasses import dataclass

from .adapters import (AdapterBank, Density, DensityConfig, build_adapter_bank,
                       routes_for)
from .encoder import EncoderConfig


@dataclass(frozen=True)
class CountSpec:
    dims: tuple[int, ...]
    depths: tuple[int, ...]
    bottleneck: int
    num_modalities: int
    density: Density
    active_stages: tuple[int, ...]
    include_biases: bool = True

    def __post_init__(self):
        if len(self.dims) != len(self.depths):
            raise ValueError("dims and depths must align")
        if self.num_modalities < 2:
            raise ValueError("budgets are defined for >= 2 modalities")
        object.__setattr__(self, "density", Density.parse(self.density))
        object.__setattr__(self, "active_stages", tuple(sorted(set(self.active_stages))))
        for s in self.active_stages:
            if not 1 <= s <= len(self.dims):
                raise ValueError(f"stage {s} outside 1..{len(self.dims)}")

    @staticmethod
    def from_preset(preset: str, num_modalities: int, density, active_stages,
                    bottleneck: int = 8, include_biases: bool = True) -> "CountSpec":
        cfg = EncoderConfig.preset(preset)
        return CountSpec(cfg.dims, cfg.depths, bottleneck, num_modalities,
                         Density.parse(density), tuple(active_stages), include_biases)


def route_multiplier(density: Density, m: int) -> int:
    """Adapters per (stage, block, position) slot: one per route key."""
    return len(routes_for(density, m))


def adapter_param_count(dim: int, r: int, include_biases: bool) -> int:
    """One bottleneck adapter: d->r, r->r and r->d weights (+ biases)."""
    weights = 2 * r * dim + r * r
    if include_biases:
        weights += 2 * r + dim
    return weights


def analytic_count(spec: CountSpec) -> int:
    total = 0
    mult = route_multiplier(spec.density, spec.num_modalities)
    for stage in spec.active_stages:
        dim = spec.dims[stage - 1]
        depth = spec.depths[stage - 1]
        total += adapter_param_count(dim, spec.bottleneck, spec.include_biases) \
            * 2 * mult * depth
    return total


def empirical_count(target, which: str = "adapters-only") -> int:
    """Enumerate parameter buffers and sum their element counts.

    ``target`` is a model or a bare adapter bank; ``which`` selects
    ``trainable``, ``frozen``, ``adapters-only`` or ``all`` buffers.
    """
    if isinstance(target, AdapterBank):
        named = list(target.named_parameters())
        if which not in ("adapters-only", "all", "trainable"):
            raise ValueError(f"filter {which!r} not meaningful for a bare bank")
        return sum(p.size for _, p in named)
    if which == "adapters-only":
        if target.bank is None:
            return 0
        return sum(p.size for _, p in target.bank.named_parameters())
    named = list(target.named_parameters())
    if which == "trainable":
        return sum(p.size for _, p in named if p.requires_grad)
    if which == "frozen":
        return sum(p.size for _, p in named if not p.requires_grad)
    if which == "all":
        return sum(p.size for _, p in named)
    raise ValueError(f"unknown filter {which!r}")


def budget_report(preset: str, num_modalities: int, density, active_stages,
                  bottleneck: int = 8) -> tuple[dict, str]:
    """Analytic-vs-enumerated comparison under both bias conventions.

    Returns (key/value record, printable table). The enumerated count
    comes from actually building the bank for the requested shape.
    """
    cfg = EncoderConfig.preset(preset)
    density = Density.parse(density)
    spec_bias = CountSpec.from_preset(preset, num_modalities, density,
                                      active_stages, bottleneck, include_biases=True)
    spec_bare = CountSpec.from_preset(preset, num_modalities, density,
                                      active_stages, bottleneck, include_biases=False)
    bank = build_adapter_bank(num_modalities, cfg,
                              DensityConfig(density, tuple(active_stages)),
                              bottleneck, seed=0)
    record = {
        "preset": preset,
        "modalities": num_modalities,
        "density": density.value,
        "active_stages": ",".join(str(s) for s in spec_bias.active_stages),
        "bottleneck": bottleneck,
        "analytic_with_biases": analytic_count(spec_bias),
        "analytic_weights_only": analytic_count(spec_bare),
        "empirical_adapters": empirical_count(bank),
        "delta_millions": round(analytic_count(spec_bias) / 1e6, 2),
    }
    record["match"] = record["analytic_with_biases"] == record["empirical_adapters"]
    lines = [
        f"adapter budget: preset={preset} m={num_modalities} density={density.value} "
        f"stages={record['active_stages']} r={bottleneck}",
        f"  analytic (weights only)   {record['analytic_weights_only']:>12,}",
        f"  analytic (with biases)    {record['analytic_with_biases']:>12,}",
        f"  enumerated from the bank  {record['empirical_adapters']:>12,}",
        f"  delta                     {record['delta_millions']:>11.2f}M",
        f"  analytic == enumerated    {str(record['match']).lower()}",
    ]
    return record, "\n".join(lines)
