"""Parameter initialization helpers and the parameter registry.

All randomness flows through numpy's PCG64 generators seeded from
explicit integer sequences, so any parameter buffer is reproducible
from its seed path alone.
"""

from __future__ import annotations

from typing import Iterator

import numpy as np

from .tensor import Tensor


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
    """Parameter registry: ``named_parameters(prefix)`` yields each
    ``Tensor`` child as ``prefix.name`` and recurses into each ``Module``
    child, skipping other values. These attribute paths are the parameter
    names and the checkpoint format. The children are the attributes in
    assignment order, except that a list attribute named in ``numbered``
    (``{"stages": ("stage", 1)}``) gives its items as ``stage1``,
    ``stage2``, ...; a container keyed otherwise overrides ``children``.
    """

    numbered: dict[str, tuple[str, int]] = {}

    def __init__(self, **children):
        """A plain holder of the given children."""
        vars(self).update(children)

    def children(self) -> Iterator[tuple[str, object]]:
        for attr, value in vars(self).items():
            if attr in self.numbered:
                name, start = self.numbered[attr]
                yield from ((f"{name}{i}", item) for i, item in enumerate(value, start))
            else:
                yield attr, value

    def named_parameters(self, prefix: str = "") -> Iterator[tuple[str, Tensor]]:
        for name, value in self.children():
            path = f"{prefix}.{name}" if prefix else name
            if isinstance(value, Tensor):
                yield path, value
            elif isinstance(value, Module):
                yield from value.named_parameters(path)

    def parameters(self) -> tuple[Tensor, ...]:
        return tuple(p for _, p in self.named_parameters())

    def set_trainable(self, flag: bool) -> None:
        """Frozen parameters keep requires_grad False, so the optimizer
        and backward both skip their buffers."""
        for p in self.parameters():
            p.requires_grad = flag
