"""Central finite-difference verification of analytic gradients."""

from __future__ import annotations

from typing import Callable, Optional, Sequence

import numpy as np

from .tensor import Tensor, active_tape, backward, no_grad


def relative_error(analytic: float, numeric: float) -> float:
    return abs(analytic - numeric) / max(1.0, abs(analytic), abs(numeric))


def grad_check_params(f: Callable[[], Tensor], params: Sequence[Tensor],
                      max_coords: Optional[int] = None, seed: int = 0) -> float:
    """Max relative error between analytic and central-difference grads.

    ``f`` is a scalar-valued closure over ``params``; it must be
    deterministic (re-seed any internal randomness per call). When
    ``max_coords`` is set, a seeded random subsample of coordinates per
    parameter is probed instead of every coordinate. Records a graph and
    clears the calling thread's tape once, after backward: run it standalone.
    """
    for p in params:
        p.grad = None

    backward(f())
    analytic = [None if p.grad is None else p.grad.copy() for p in params]
    active_tape().clear()

    h = 1e-4                        # central-difference step
    pick_rng = np.random.default_rng(seed)
    worst = 0.0
    with no_grad():
        for p, ref in zip(params, analytic):
            flat = p.data.reshape(-1)
            n = flat.size
            if max_coords is not None and n > max_coords:
                coords = pick_rng.choice(n, size=max_coords, replace=False)
            else:
                coords = range(n)
            for idx in coords:
                orig = flat[idx]
                flat[idx] = orig + h
                f_plus = f().item()
                flat[idx] = orig - h
                f_minus = f().item()
                flat[idx] = orig
                numeric = (f_plus - f_minus) / (2.0 * h)
                a = 0.0 if ref is None else float(ref.reshape(-1)[idx])
                worst = max(worst, relative_error(a, numeric))
    return worst
