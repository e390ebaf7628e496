"""Cross-modal bottleneck adapters and the fused encoding wiring.

A frozen per-modality encoder stack becomes a feature fuser by adding,
at every block of the selected stages, small bottleneck adapters that
carry each modality's normalized features into every other modality's
residual stream: once after attention and once after the MLP. Three
routing densities are supported:

* shared       - one adapter serves every ordered modality route,
* pair-bi      - one adapter per unordered modality pair (both directions),
* pair-uni     - two adapters per pair, one per direction.
"""

from __future__ import annotations

from dataclasses import dataclass
from enum import Enum
from typing import Optional

import numpy as np

from .encoder import Encoder, EncoderConfig, tokens_to_map
from .initializers import Module, derive_rng, trunc_normal, zeros
from .tensor import Tensor, ShapeError, drop_path, dropout, gelu, matmul


class Density(str, Enum):
    SHARED = "shared"
    PAIR_BIDIRECTIONAL = "pair-bi"
    PAIR_UNIDIRECTIONAL = "pair-uni"

    @staticmethod
    def parse(value: "Density | str") -> "Density":
        if isinstance(value, Density):
            return value
        try:
            return Density(value)
        except ValueError:
            raise ValueError(
                f"unknown density {value!r} (shared, pair-bi, pair-uni)") from None


@dataclass(frozen=True)
class DensityConfig:
    """Routing density plus the 1-indexed stages whose blocks fuse."""
    variant: Density
    active_stages: tuple[int, ...] = (1, 2, 3, 4)

    def __post_init__(self):
        object.__setattr__(self, "variant", Density.parse(self.variant))
        stages = tuple(sorted(set(self.active_stages)))
        if not stages:
            raise ValueError("active_stages must be non-empty")
        object.__setattr__(self, "active_stages", stages)


class CrossModalAdapter(Module):
    """Down-project / mid / up-project bottleneck MLP.

    forward: up(dropout(gelu(mid(down(x))))), where down is d->r, mid is
    r->r and up is r->d. The up projection starts at zero so a freshly
    built adapter is an exact no-op contribution.
    """

    def __init__(self, dim: int, bottleneck: int, rng: np.random.Generator,
                 dropout_rate: float = 0.1, dtype=np.float64):
        if bottleneck < 1:
            raise ValueError(f"bottleneck width must be >= 1, got {bottleneck}")
        self.dim = dim
        self.dropout_rate = dropout_rate
        self.w_down = trunc_normal((dim, bottleneck), rng, dtype=dtype)
        self.b_down = zeros(bottleneck, dtype=dtype)
        self.w_mid = trunc_normal((bottleneck, bottleneck), rng, dtype=dtype)
        self.b_mid = zeros(bottleneck, dtype=dtype)
        self.w_up = zeros((bottleneck, dim), dtype=dtype)
        self.b_up = zeros(dim, dtype=dtype)

    def __call__(self, x: Tensor, *, rng: Optional[np.random.Generator] = None) -> Tensor:
        if x.shape[-1] != self.dim:
            raise ShapeError(f"adapter built for dim {self.dim}, got {x.shape}")
        down = matmul(x, self.w_down, self.b_down)
        mid = gelu(matmul(down, self.w_mid, self.b_mid))
        mid = dropout(mid, self.dropout_rate, rng=rng)
        return matmul(mid, self.w_up, self.b_up)

    def copy_weights_from(self, other: "CrossModalAdapter") -> None:
        for mine, theirs in zip(self.parameters(), other.parameters()):
            mine.data[...] = theirs.data


def route_key(variant: Density, src: int, dst: int) -> tuple[int, ...]:
    """Canonical key for the (src -> dst) modality route."""
    if src == dst:
        raise ValueError("adapter routes connect distinct modalities")
    if variant is Density.SHARED:
        return ()
    if variant is Density.PAIR_BIDIRECTIONAL:
        return (min(src, dst), max(src, dst))
    return (src, dst)


def routes_for(variant: Density, num_modalities: int) -> list[tuple[int, ...]]:
    """All distinct route keys for one (stage, block, position) slot."""
    return sorted({route_key(variant, i, j) for i in range(num_modalities)
                   for j in range(num_modalities) if i != j})


class AdapterBank(Module):
    """Routing table (stage, block, position, route) -> adapter.

    Positions: 1 = after-attention injection, 2 = after-MLP injection.
    Route cardinality per slot is 1 / C(M,2) / 2*C(M,2) for the shared /
    pair-bidirectional / pair-unidirectional densities.
    """

    def __init__(self, density: DensityConfig):
        self.density = density
        self.adapters: dict[tuple, CrossModalAdapter] = {}

    def get(self, stage: int, block: int, position: int, src: int, dst: int) -> CrossModalAdapter:
        key = (stage, block, position, route_key(self.density.variant, src, dst))
        return self.adapters[key]

    def __len__(self) -> int:
        return len(self.adapters)

    def children(self):
        for (stage, block, pos, route), adapter in sorted(self.adapters.items()):
            tag = "-".join(str(r) for r in route) if route else "all"
            yield f"stage{stage}.block{block}.pos{pos}.route_{tag}", adapter


def build_adapter_bank(num_modalities: int, config: EncoderConfig,
                       density: DensityConfig, bottleneck: int,
                       seed: int | tuple[int, ...],
                       dropout_rate: float = 0.1, dtype=np.float64) -> AdapterBank:
    """Populate a bank for every block of the active stages.

    Adapter parameter streams are derived from (seed, stage, block,
    position, route), so two banks built from the same seed agree
    wherever their keys coincide.
    """
    if num_modalities < 2:
        raise ValueError(f"adapter fusion needs >= 2 modalities, got {num_modalities}")
    path = (seed,) if isinstance(seed, int) else tuple(seed)
    bank = AdapterBank(density)
    for stage in density.active_stages:
        if not 1 <= stage <= config.num_stages:
            raise ValueError(f"active stage {stage} outside 1..{config.num_stages}")
        dim = config.dims[stage - 1]
        for block in range(config.depths[stage - 1]):
            for position in (1, 2):
                for route in routes_for(density.variant, num_modalities):
                    rng = derive_rng(*path, stage, block, position, *route)
                    bank.adapters[(stage, block, position, route)] = CrossModalAdapter(
                        dim, bottleneck, rng, dropout_rate, dtype)
    return bank


def fused_block_forward(xs: list[Tensor], blocks: list, h: int, w: int,
                        bank: AdapterBank, stage: int, block_idx: int, *,
                        rng: Optional[np.random.Generator] = None) -> list[Tensor]:
    """One transformer block across M modalities with cross-modal injection.

    Per modality i: z_attn_i = x_i + DropPath(Attn_i(LN1_i(x_i))); every
    route i->j then adds DropPath(Ada1(LN1_i(x_i))) into z_attn_j. The MLP
    half repeats the pattern on the updated z_attn with LN2 and Ada2.
    Cross-modal contributions are computed from values snapshotted before
    any of them is applied, so modality iteration order cannot matter.
    """
    m = len(xs)
    shape0 = xs[0].shape
    for x in xs[1:]:
        if x.shape != shape0:
            raise ShapeError(f"modality token shapes differ: {shape0} vs {x.shape}")

    zs = list(xs)
    for position in (1, 2):
        if position == 1:
            normed = [blk.norm1(z) for blk, z in zip(blocks, zs)]
        else:
            normed = [blk.norm2(z) for blk, z in zip(blocks, zs)]
        zs = [z + drop_path(blk.attn(x, h, w) if position == 1 else blk.mlp(x),
                            blk.drop_path_rate, rng=rng)
              for blk, z, x in zip(blocks, zs, normed)]
        for i in range(m):
            for j in range(m):
                if i == j:
                    continue
                ada = bank.get(stage, block_idx, position, i, j)
                zs[j] = zs[j] + drop_path(
                    ada(normed[i], rng=rng), blocks[j].drop_path_rate, rng=rng)
    return zs


def fused_encode(encoders: list[Encoder], images: list,
                 bank: Optional[AdapterBank], *,
                 rng: Optional[np.random.Generator] = None,
                 stages: Optional[int] = None) -> list[list[Tensor]]:
    """Run M encoders in lockstep, exchanging features in the bank's stages.

    Returns one feature pyramid (list of [B, d_i, h_i, w_i] maps) per
    modality. Other stages, and all of them without a bank, run the plain
    per-modality path; ``rng`` means training. Each modality's input is a
    [B, C, H, W] image, or a list holding the maps of its first k stages
    (computed earlier); encoding then resumes at stage k + 1. ``stages``
    stops after that many stages.
    """
    m = len(encoders)
    if len(images) != m:
        raise ShapeError(f"{m} encoders but {len(images)} modality images")
    pyramids = [list(x) if isinstance(x, list) else [] for x in images]
    current = [p[-1] if p else x for p, x in zip(pyramids, images)]
    for p, x in zip(pyramids[1:], current[1:]):
        if len(p) != len(pyramids[0]) or x.shape[-2:] != current[0].shape[-2:]:
            raise ShapeError("modality images must share spatial dims")
    config = encoders[0].config
    active = bank.density.active_stages if bank is not None else ()

    stop = config.num_stages if stages is None else stages
    for s in range(len(pyramids[0]), stop):
        stage_no = s + 1
        tokens = []
        h = w = 0
        for i in range(m):
            t, (h, w) = encoders[i].stages[s].patch(current[i])
            tokens.append(t)
        for b in range(config.depths[s]):
            blocks = [enc.stages[s].blocks[b] for enc in encoders]
            if stage_no in active:
                tokens = fused_block_forward(tokens, blocks, h, w, bank,
                                             stage_no, b, rng=rng)
            else:
                tokens = [blocks[i](tokens[i], h, w, rng=rng) for i in range(m)]
        for i in range(m):
            normed = encoders[i].stage_norm(s, tokens[i])
            current[i] = tokens_to_map(normed, h, w)
            pyramids[i].append(current[i])
    return pyramids

