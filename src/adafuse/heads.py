"""Per-stage modality merging and the MLP decode head.

Without a feature-fusion module the M modality pyramids are merged by an
element-wise mean (permutation invariant). With one, each stage
channel-concats the modalities and passes them through a two-layer
projection. The decoder projects every merged stage to a common width,
upsamples to the finest stage's grid, concats, fuses and classifies.
"""

from __future__ import annotations

from typing import Optional

import numpy as np

from .encoder import EncoderConfig, map_to_tokens, tokens_to_map
from .initializers import Module, trunc_normal, zeros
from .tensor import (Tensor, ShapeError, concat, gelu, matmul,
                     upsample_bilinear)


_GELU_AT_3 = 3.0 * 0.9986501019683699          # x * Phi(x) at x = 3
_GELU_SLOPE_AT_3 = 1.0119451974987552           # Phi(3) + 3 * pdf(3)


class StageFusion(Module):
    """Concat-project-GELU-project merge for one pyramid stage.

    Initialized to approximate the modality mean: stacked identities/M
    shifted into the GELU's near-linear region (+3) and mapped back, so
    a fresh fusion stage starts where the parameter-free mean merge
    starts and training learns a correction from there.
    """

    def __init__(self, num_modalities: int, dim: int, rng: np.random.Generator,
                 dtype=np.float64):
        stacked = np.tile(np.eye(dim) / num_modalities, (num_modalities, 1))
        self.w1 = trunc_normal((num_modalities * dim, dim), rng, dtype=dtype)
        self.w1.data += stacked.astype(dtype)
        self.b1 = zeros(dim, dtype=dtype)
        self.b1.data += 3.0
        self.w2 = trunc_normal((dim, dim), rng, dtype=dtype)
        self.w2.data += np.eye(dim, dtype=dtype) / _GELU_SLOPE_AT_3
        self.b2 = zeros(dim, dtype=dtype)
        self.b2.data -= _GELU_AT_3 / _GELU_SLOPE_AT_3

    def __call__(self, stacked_tokens: Tensor) -> Tensor:
        hidden = gelu(matmul(stacked_tokens, self.w1, self.b1))
        return matmul(hidden, self.w2, self.b2)


class FeatureFusion(Module):
    """Trainable per-stage merge of the M modality pyramids."""

    numbered = {"stages": ("stage", 1)}

    def __init__(self, num_modalities: int, config: EncoderConfig, seed: int,
                 dtype=np.float64):
        rng = np.random.default_rng([seed, 900])
        self.stages = [StageFusion(num_modalities, d, rng, dtype) for d in config.dims]


def modal_merge(stage_feats: list[Tensor], ffm_stage: Optional[StageFusion] = None) -> Tensor:
    """Merge M same-shape [B, d, h, w] maps into one.

    Mean across modalities by default; with a fusion stage, channel
    concat followed by its two-layer projection.
    """
    if ffm_stage is None:
        total = stage_feats[0]
        for f in stage_feats[1:]:
            total = total + f
        return total * (1.0 / len(stage_feats))
    h, w = stage_feats[0].shape[-2:]
    tokens = concat([map_to_tokens(f) for f in stage_feats], axis=-1)
    return tokens_to_map(ffm_stage(tokens), h, w)


class Decoder(Module):
    """All-MLP decode head over a merged feature pyramid."""

    numbered = {"stages": ("stage", 1)}

    def __init__(self, config: EncoderConfig, num_classes: int, decoder_dim: int,
                 seed: int, dtype=np.float64):
        rng = np.random.default_rng([seed, 901])
        self.stages = [Module(w=trunc_normal((d, decoder_dim), rng, dtype=dtype),
                              b=zeros(decoder_dim, dtype=dtype)) for d in config.dims]
        self.fuse_w = trunc_normal((len(config.dims) * decoder_dim, decoder_dim),
                                   rng, dtype=dtype)
        self.fuse_b = zeros(decoder_dim, dtype=dtype)
        self.cls_w = trunc_normal((decoder_dim, num_classes), rng, dtype=dtype)
        self.cls_b = zeros(num_classes, dtype=dtype)

    def __call__(self, pyramid: list[Tensor]) -> Tensor:
        """Merged pyramid -> class logits at the finest stage's grid."""
        if len(pyramid) != len(self.stages):
            raise ShapeError(f"expected {len(self.stages)} pyramid stages, "
                             f"got {len(pyramid)}")
        out_h, out_w = pyramid[0].shape[-2], pyramid[0].shape[-1]
        lifted = []
        for feat, stage in zip(pyramid, self.stages):
            tokens = matmul(map_to_tokens(feat), stage.w, stage.b)
            grid = tokens_to_map(tokens, feat.shape[-2], feat.shape[-1])
            if grid.shape[-2:] != (out_h, out_w):
                grid = upsample_bilinear(grid, out_h, out_w)
            lifted.append(grid)
        fused = concat(lifted, axis=1)
        tokens = gelu(matmul(map_to_tokens(fused), self.fuse_w, self.fuse_b))
        logits = matmul(tokens, self.cls_w, self.cls_b)
        return tokens_to_map(logits, out_h, out_w)
