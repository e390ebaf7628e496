"""Parameter initialization helpers and the parameter registry.

All randomness flows through numpy's PCG64 generators seeded from
explicit integer sequences, so any parameter buffer is reproducible
from its seed path alone.
"""

from __future__ import annotations

from typing import Iterator

import numpy as np

from .tensor import Tensor


def derive_rng(*seed_path: int) -> np.random.Generator:
    """Independent PCG64 stream for a structural position in the model."""
    return np.random.default_rng(list(seed_path))


def trunc_normal(shape, rng: np.random.Generator, dtype=np.float64) -> Tensor:
    """Normal(0, 0.02) redrawn until within +/-2 std, like common ViT init."""
    std = 0.02
    vals = rng.normal(0.0, std, size=shape)
    bad = np.abs(vals) > 2.0 * std
    while bad.any():
        vals[bad] = rng.normal(0.0, std, size=int(bad.sum()))
        bad = np.abs(vals) > 2.0 * std
    return Tensor(vals.astype(dtype), requires_grad=True)


def zeros(shape, dtype=np.float64) -> Tensor:
    return Tensor(np.zeros(shape, dtype=dtype), requires_grad=True)


def ones(shape, dtype=np.float64) -> Tensor:
    return Tensor(np.ones(shape, dtype=dtype), requires_grad=True)


class Module:
    """Parameter registry for a layer that holds its tensors as attributes.

    ``named_parameters(prefix)`` yields every ``Tensor`` attribute as
    ``prefix.attr`` and every ``Module`` attribute's parameters as
    ``prefix.attr.name``, in ``__init__`` assignment order. Those names
    are the checkpoint format.
    """

    def named_parameters(self, prefix: str) -> Iterator[tuple[str, Tensor]]:
        for attr, value in vars(self).items():
            if isinstance(value, Tensor):
                yield f"{prefix}.{attr}", value
            elif isinstance(value, Module):
                yield from value.named_parameters(f"{prefix}.{attr}")

    def parameters(self) -> tuple[Tensor, ...]:
        return tuple(p for _, p in self.named_parameters(""))
