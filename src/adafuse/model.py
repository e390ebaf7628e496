"""Model assembly: frozen encoders + adapter bank + merge head + decoder."""

from __future__ import annotations

import sys
from dataclasses import asdict, dataclass
from typing import Optional

import numpy as np

from .adapters import (AdapterBank, build_adapter_bank, check_bottleneck, fused_encode,
                       fused_stages, routes_for)
from .data import json_typed_like
from .encoder import Encoder, EncoderConfig
from .heads import Decoder, FeatureFusion, modal_merge
from .initializers import Module
from .tensor import Tensor, ShapeError, upsample_bilinear

DTYPES = {"float32": np.dtype("<f4"), "float64": np.dtype("<f8")}
_FLOAT_MAX = sys.float_info.max


class ConfigCodec:
    """The dict form of a config dataclass. ``from_dict`` refuses keys
    that are not fields and values whose JSON type differs from the
    field default's, naming the config's ``section`` in the error."""

    section = ""

    def to_dict(self) -> dict:
        return asdict(self)

    @classmethod
    def from_dict(cls, data: dict):
        fields = cls.__dataclass_fields__
        unknown = set(data) - set(fields)
        if unknown:
            raise ValueError(f"unknown {cls.section} config keys: {sorted(unknown)}")
        for key, value in data.items():
            cls.check_type(key, value)
        return cls(**data)

    @classmethod
    def check_type(cls, key: str, value) -> None:
        """Raise ``ValueError`` if ``value`` is not of field ``key``'s JSON type."""
        default = cls.__dataclass_fields__[key].default
        if not json_typed_like(value, default):
            raise ValueError(f"{cls.section} config key {key!r} holds {value!r}, "
                             f"not of the type of its default {default!r}")

    def check_finite(self) -> None:
        """Raise ``ValueError`` naming a float field that is inf, NaN or a huge int."""
        for key, field in self.__dataclass_fields__.items():
            if isinstance(field.default, float) and not abs(getattr(self, key)) <= _FLOAT_MAX:
                raise ValueError(f"{self.section} config key {key!r} must be a finite float")


@dataclass
class ModelConfig(ConfigCodec):
    section = "model"

    preset: str = "tiny"
    modalities: tuple[str, ...] = ("vis", "ir")
    channels: tuple[int, ...] = (1, 1)
    density: str = "pair-bi"
    active_stages: tuple[int, ...] = (1, 2, 3, 4)
    bottleneck: int = 8
    adapter_dropout: float = 0.1
    use_ffm: bool = False
    num_classes: int = 5
    decoder_dim: int = 0          # 0 = half the deepest stage's width
    drop_path_rate: float = 0.0
    dtype: str = "float64"
    seed: int = 0

    def __post_init__(self):
        self.check_finite()
        self.modalities = tuple(self.modalities)
        self.channels = tuple(self.channels)
        self.active_stages = tuple(self.active_stages)
        if len(self.modalities) != len(self.channels):
            raise ValueError("modalities and channels must align")
        if len(set(self.modalities)) != len(self.modalities):
            raise ValueError("modality names must be unique")
        if not self.modalities:
            raise ValueError("at least one modality required")
        if self.dtype not in DTYPES:
            raise ValueError(f"dtype must be one of {sorted(DTYPES)}")
        routes_for(self.density, 2)
        preset = EncoderConfig.preset(self.preset)
        fused_stages(preset, self.active_stages)
        if min(self.channels) < 1:
            raise ValueError("channels must be >= 1")
        if not (0.0 <= self.adapter_dropout < 1.0 and 0.0 <= self.drop_path_rate < 1.0):
            raise ValueError("adapter_dropout and drop_path_rate must be in [0, 1)")
        if self.num_classes < 2:
            raise ValueError("num_classes must be >= 2")
        check_bottleneck(self.bottleneck)
        for key in ("decoder_dim", "seed"):
            if getattr(self, key) < 0:
                raise ValueError(f"{key} must be >= 0")
        self.decoder_dim = self.decoder_dim or preset.dims[-1] // 2

    @property
    def num_modalities(self) -> int:
        return len(self.modalities)

    def np_dtype(self):
        return DTYPES[self.dtype]


class FusionModel(Module):
    """M frozen encoders exchanging features through an adapter bank,
    merged per stage and decoded to per-pixel class logits.

    With a single modality the bank is omitted and the model reduces to
    a plain frozen encoder + trainable decoder (the baseline
    configuration)."""

    def __init__(self, config: ModelConfig):
        self.config = config
        dtype = config.np_dtype()
        enc_cfg = EncoderConfig.preset(config.preset)
        self.encoders = [
            Encoder(enc_cfg, ch, seed=(config.seed, 10 + i), dtype=dtype,
                    drop_path_rate=config.drop_path_rate)
            for i, ch in enumerate(config.channels)
        ]
        for enc in self.encoders:
            enc.set_trainable(False)

        self.bank: Optional[AdapterBank] = None
        if config.num_modalities >= 2:
            self.bank = build_adapter_bank(
                config.num_modalities, enc_cfg, config.density, config.active_stages,
                config.bottleneck, seed=(config.seed, 500),
                dropout_rate=config.adapter_dropout, dtype=dtype)

        self.ffm = (FeatureFusion(config.num_modalities, enc_cfg, config.seed, dtype)
                    if config.use_ffm else None)
        self.decoder = Decoder(enc_cfg, config.num_classes, config.decoder_dim,
                               config.seed, dtype)
        self.rng = np.random.default_rng([config.seed, 999])

    # -- inputs ---------------------------------------------------------
    def _coerce(self, images: dict) -> list:
        if not isinstance(images, dict):
            raise TypeError("images must be a dict from modality name to a "
                            f"[B, C, H, W] array, not {type(images).__name__}")
        missing = [m for m in self.config.modalities if m not in images]
        if missing:
            raise ShapeError(f"missing modalities: {missing}")
        dtype = self.config.np_dtype()
        out = []
        for name, ch in zip(self.config.modalities, self.config.channels):
            img = images[name]
            if isinstance(img, list):       # leading stage maps, see encode
                out.append([Tensor(np.asarray(f, dtype=dtype)) for f in img])
                continue
            arr = np.asarray(img, dtype=dtype)
            if arr.ndim != 4 or arr.shape[1] != ch:
                raise ShapeError(f"expected [B, {ch}, H, W] image, got {arr.shape}")
            out.append(Tensor(arr))
        return out

    # -- forward ---------------------------------------------------------
    def frozen_stages(self) -> int:
        """How many leading encoder stages are a fixed function of the
        input: none with drop-path or with a trainable parameter in those
        stages, all of them without an adapter bank, else the stages
        before the first fused one."""
        if self.config.drop_path_rate > 0:
            return 0
        n = self.encoders[0].config.num_stages if self.bank is None else self.bank.stages[0] - 1
        if any(p.requires_grad for enc in self.encoders
               for stage in enc.stages[:n] for p in stage.parameters()):
            return 0
        return n

    def encode(self, images: dict, train: bool = False,
               stages: Optional[int] = None) -> list[list[Tensor]]:
        """Per-modality feature pyramids (stitched in active stages).

        ``images`` maps each modality name to a [B, C, H, W] array, or to the
        list of its first k stage maps (arrays), from which encoding starts at
        stage k + 1. ``stages`` stops after that many stages."""
        xs = self._coerce(images)
        return fused_encode(self.encoders, xs, self.bank,
                            rng=self.rng if train else None, stages=stages)

    def forward(self, images: dict, train: bool = False) -> Tensor:
        """Class logits on the finest feature grid [B, K, H/s1, W/s1]."""
        pyramids = self.encode(images, train)
        merged = []
        for s, feats in enumerate(zip(*pyramids)):
            ffm_stage = self.ffm.stages[s] if self.ffm is not None else None
            merged.append(modal_merge(list(feats), ffm_stage))
        return self.decoder(merged)

    def logits_at(self, images: dict, out_h: int, out_w: int, train: bool = False) -> Tensor:
        """Logits bilinearly upsampled to the label resolution."""
        logits = self.forward(images, train)
        if logits.shape[-2:] != (out_h, out_w):
            logits = upsample_bilinear(logits, out_h, out_w)
        return logits

    # -- parameters --------------------------------------------------------
    def children(self):
        for name, enc in zip(self.config.modalities, self.encoders):
            yield f"encoder.{name}", enc
        yield "adapters", self.bank
        yield "ffm", self.ffm
        yield "decoder", self.decoder

    def trainable_parameters(self) -> list[tuple[str, Tensor]]:
        return [(n, p) for n, p in self.named_parameters() if p.requires_grad]
