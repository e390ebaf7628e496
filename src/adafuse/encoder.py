"""Multi-stage transformer encoder producing a feature pyramid.

One encoder per modality. Stages shrink the spatial grid by their
configured stride; each stage is overlapping-patch embedding followed by
transformer blocks and a layer norm. ``Encoder`` holds the layers;
``adapters.fused_encode`` runs them, through ``TransformerBlock`` for a
stage without adapters.
"""

from __future__ import annotations

from dataclasses import dataclass
from typing import Optional

import numpy as np

from .initializers import Module, derive_rng, ones, trunc_normal, zeros
from .tensor import (Tensor, attention, drop_path, extract_patches,
                     gelu, layer_norm, matmul, reshape, transpose)


@dataclass(frozen=True)
class EncoderConfig:
    dims: tuple[int, ...] = (16, 32, 64, 128)
    depths: tuple[int, ...] = (2, 2, 2, 2)
    heads: tuple[int, ...] = (1, 2, 4, 8)
    strides: tuple[int, ...] = (4, 2, 2, 2)
    sr_ratios: tuple[int, ...] = (2, 2, 1, 1)

    def __post_init__(self):
        n = len(self.dims)
        if not (len(self.depths) == len(self.heads) == len(self.strides)
                == len(self.sr_ratios) == n):
            raise ValueError("per-stage config lists must have equal length")
        if any(v <= 0 for v in self.dims + self.depths + self.heads + self.strides
               + self.sr_ratios):
            raise ValueError("all per-stage extents must be positive")
        for d, h in zip(self.dims, self.heads):
            if d % h != 0:
                raise ValueError(f"stage dim {d} not divisible by {h} heads")

    @property
    def num_stages(self) -> int:
        return len(self.dims)

    @property
    def size_multiple(self) -> int:
        """Input sides must be multiples of this: each stage's grid must
        divide by its patch stride and by its K/V pooling."""
        return int(np.lcm.reduce(np.cumprod(self.strides) * np.array(self.sr_ratios)))

    @staticmethod
    def preset(name: str) -> "EncoderConfig":
        if name not in PRESETS:
            raise ValueError(f"unknown encoder preset {name!r} ({', '.join(PRESETS)})")
        return PRESETS[name]


PRESETS = {"tiny": EncoderConfig(),
           "b2-like": EncoderConfig(dims=(64, 128, 320, 512), depths=(3, 4, 6, 3),
                                    heads=(1, 2, 5, 8), sr_ratios=(8, 4, 2, 1))}
MLP_RATIO = 4       # MLP hidden width per stage width, in every preset


def tokens_to_map(x: Tensor, h: int, w: int) -> Tensor:
    """[B, h*w, d] -> [B, d, h, w]."""
    b, n, d = x.shape
    return transpose(reshape(x, (b, h, w, d)), (0, 3, 1, 2))


def map_to_tokens(x: Tensor) -> Tensor:
    """[B, c, h, w] -> [B, h*w, c]."""
    b, c, h, w = x.shape
    return reshape(transpose(x, (0, 2, 3, 1)), (b, h * w, c))


class PatchEmbed(Module):
    """Overlapping strided linear patch projection + layer norm. A side not
    a multiple of the stride (``fused_encode`` refuses it) rounds up."""

    def __init__(self, in_channels: int, dim: int, stride: int,
                 rng: np.random.Generator, dtype=np.float64):
        self.stride = stride
        self.kernel = 2 * stride - 1
        self.pad = stride - 1
        self.weight = trunc_normal((in_channels * self.kernel ** 2, dim), rng, dtype=dtype)
        self.bias = trunc_normal(dim, rng, dtype=dtype)
        self.norm_gamma = ones(dim, dtype=dtype)
        self.norm_beta = zeros(dim, dtype=dtype)

    def __call__(self, x: Tensor) -> tuple[Tensor, tuple[int, int]]:
        patches = extract_patches(x, self.kernel, self.stride, self.pad)
        tokens = matmul(patches, self.weight, self.bias)
        tokens = layer_norm(tokens, self.norm_gamma, self.norm_beta)
        return tokens, tuple((side + self.pad) // self.stride for side in x.shape[2:])


class Attention(Module):
    """Multi-head scaled dot-product attention with optional K/V
    spatial reduction (keys and values computed on an sr x sr pooled
    token grid). A grid side not a multiple of ``sr_ratio`` (``fused_encode``
    refuses it) pools only its whole windows, rounding down."""

    def __init__(self, dim: int, heads: int, sr_ratio: int,
                 rng: np.random.Generator, dtype=np.float64):
        self.heads = heads
        self.sr_ratio = sr_ratio
        def lin(n_in, n_out):
            # biases random too: with zero biases, layer norm cancels the
            # pure intensity scaling that single-channel inputs ride on
            return (trunc_normal((n_in, n_out), rng, dtype=dtype),
                    trunc_normal(n_out, rng, dtype=dtype))
        self.wq, self.bq = lin(dim, dim)
        self.wk, self.bk = lin(dim, dim)
        self.wv, self.bv = lin(dim, dim)
        self.wo, self.bo = lin(dim, dim)
        if sr_ratio > 1:
            self.w_sr, self.b_sr = lin(dim * sr_ratio ** 2, dim)
            self.sr_gamma = ones(dim, dtype=dtype)
            self.sr_beta = zeros(dim, dtype=dtype)

    def __call__(self, x: Tensor, h: int, w: int) -> Tensor:
        q = matmul(x, self.wq, self.bq)
        if self.sr_ratio > 1:
            grid = tokens_to_map(x, h, w)
            pooled = extract_patches(grid, self.sr_ratio, self.sr_ratio, 0)
            kv_src = matmul(pooled, self.w_sr, self.b_sr)
            kv_src = layer_norm(kv_src, self.sr_gamma, self.sr_beta)
        else:
            kv_src = x
        k = matmul(kv_src, self.wk, self.bk)
        v = matmul(kv_src, self.wv, self.bv)
        return matmul(attention(q, k, v, self.heads), self.wo, self.bo)


class Mlp(Module):
    def __init__(self, dim: int, hidden: int, rng: np.random.Generator, dtype=np.float64):
        self.w1 = trunc_normal((dim, hidden), rng, dtype=dtype)
        self.b1 = trunc_normal(hidden, rng, dtype=dtype)
        self.w2 = trunc_normal((hidden, dim), rng, dtype=dtype)
        self.b2 = trunc_normal(dim, rng, dtype=dtype)

    def __call__(self, x: Tensor) -> Tensor:
        return matmul(gelu(matmul(x, self.w1, self.b1)), self.w2, self.b2)


class TransformerBlock(Module):
    """Pre-norm attention + MLP block with per-branch drop-path."""

    def __init__(self, dim: int, heads: int, sr_ratio: int, mlp_ratio: int,
                 drop_path_rate: float, rng: np.random.Generator, dtype=np.float64):
        self.ln1_gamma = ones(dim, dtype=dtype)
        self.ln1_beta = zeros(dim, dtype=dtype)
        self.attn = Attention(dim, heads, sr_ratio, rng, dtype)
        self.ln2_gamma = ones(dim, dtype=dtype)
        self.ln2_beta = zeros(dim, dtype=dtype)
        self.mlp = Mlp(dim, dim * mlp_ratio, rng, dtype)
        self.drop_path_rate = drop_path_rate

    def norm1(self, x: Tensor) -> Tensor:
        return layer_norm(x, self.ln1_gamma, self.ln1_beta)

    def norm2(self, x: Tensor) -> Tensor:
        return layer_norm(x, self.ln2_gamma, self.ln2_beta)

    def __call__(self, x: Tensor, h: int, w: int, *,
                 rng: Optional[np.random.Generator] = None) -> Tensor:
        x = x + drop_path(self.attn(self.norm1(x), h, w), self.drop_path_rate, rng=rng)
        return x + drop_path(self.mlp(self.norm2(x)), self.drop_path_rate, rng=rng)


class EncoderStage(Module):
    """One encoder stage: ``patch`` embedding, transformer ``blocks`` and
    the closing layer norm (``norm_gamma``, ``norm_beta``)."""

    numbered = {"blocks": ("block", 0)}


class Encoder(Module):
    """Stack of patch-embed + transformer-block stages for one modality;
    block drop-path rates rise linearly from 0 to ``drop_path_rate``."""

    numbered = {"stages": ("stage", 1)}

    def __init__(self, config: EncoderConfig, in_channels: int,
                 seed: int | tuple[int, ...], dtype=np.float64, drop_path_rate: float = 0.0):
        self.config = config
        path = (seed,) if isinstance(seed, int) else tuple(seed)
        depth = sum(config.depths)
        rates = [drop_path_rate * i / max(depth - 1, 1) for i in range(depth)]
        channels = (in_channels,) + config.dims
        self.stages: list[EncoderStage] = []
        for s, dim in enumerate(config.dims):
            first = sum(config.depths[:s])
            self.stages.append(EncoderStage(
                patch=PatchEmbed(channels[s], dim, config.strides[s],
                                 derive_rng(*path, s), dtype),
                blocks=[TransformerBlock(dim, config.heads[s], config.sr_ratios[s],
                                         MLP_RATIO, rates[first + b],
                                         derive_rng(*path, s, b), dtype)
                        for b in range(config.depths[s])],
                norm_gamma=ones(dim, dtype=dtype), norm_beta=zeros(dim, dtype=dtype)))

    def stage_norm(self, stage: int, tokens: Tensor) -> Tensor:
        st = self.stages[stage]
        return layer_norm(tokens, st.norm_gamma, st.norm_beta)
