"""Finite-difference and equivalence verification suites.

Everything here checks the analytic machinery against an independent
route: central differences for gradients, banks that share one adapter
per slot for the density equivalences. Run via the CLI (``adafuse
grad-check`` / ``adafuse equiv-check``) or the test suite.
"""

from __future__ import annotations

import numpy as np

from .adapters import (DENSITIES, CrossModalAdapter, build_adapter_bank,
                       fused_block_forward, fused_encode)
from .data import IGNORE_INDEX
from .encoder import Encoder, EncoderConfig, TransformerBlock
from .gradcheck import grad_check_params
from .model import FusionModel, ModelConfig
from .tensor import (Tensor, attention, concat, drop_path, dropout, extract_patches, gelu,
                     layer_norm, log_softmax, matmul, no_grad, reshape, softmax, sub, texp,
                     tlog, tmean, transpose, tsum, upsample_bilinear)
from .training import cross_entropy


def _t(rng, *shape):
    return Tensor(rng.normal(0.0, 1.0, shape), requires_grad=True)


def primitive_checks(seed: int) -> dict[str, float]:
    """Max relative FD error for every differentiable primitive."""
    rng = np.random.default_rng(seed)
    errs: dict[str, float] = {}

    a, b = _t(rng, 3, 4), _t(rng, 4, 2)
    errs["matmul"] = grad_check_params(lambda: tsum(matmul(a, b) * matmul(a, b)), [a, b])

    x, y = _t(rng, 2, 5), _t(rng, 2, 5)
    errs["add"] = grad_check_params(lambda: tsum((x + y) * (x + y)), [x, y])
    errs["sub"] = grad_check_params(lambda: tsum(sub(x, y) * x), [x, y])
    errs["mul"] = grad_check_params(lambda: tsum(x * y * 0.7), [x, y])
    bias = _t(rng, 5)
    errs["broadcast_add_bias"] = grad_check_params(
        lambda: tsum((x + bias) * (x + bias)), [x, bias])

    v = _t(rng, 4, 6)
    gamma, beta = _t(rng, 6), _t(rng, 6)
    errs["layer_norm"] = grad_check_params(
        lambda: tsum(layer_norm(v, gamma, beta) * layer_norm(v, gamma, beta)),
        [v, gamma, beta])
    errs["softmax"] = grad_check_params(lambda: tsum(softmax(v) * v), [v])
    errs["log_softmax"] = grad_check_params(lambda: tsum(log_softmax(v) * v), [v])
    errs["gelu"] = grad_check_params(lambda: tsum(gelu(v) * v), [v])
    errs["exp"] = grad_check_params(lambda: tsum(texp(v * 0.3)), [v])
    p = _t(rng, 3, 3)
    p.data[...] = np.abs(p.data) + 0.5
    errs["log"] = grad_check_params(lambda: tsum(tlog(p) * p), [p])
    errs["sum_axis"] = grad_check_params(lambda: tsum(tsum(v, axis=0) * 2.0), [v])
    errs["mean"] = grad_check_params(lambda: tsum(tmean(v, axis=-1) * 3.0), [v])

    w = _t(rng, 2, 3, 4)
    errs["reshape_transpose"] = grad_check_params(
        lambda: tsum(reshape(w, (3, 8)) * 0.5)
        + tsum(transpose(w, (2, 0, 1)) * transpose(w, (2, 0, 1))),
        [w])
    c1, c2 = _t(rng, 2, 3), _t(rng, 2, 2)
    errs["concat"] = grad_check_params(
        lambda: tsum(concat([c1, c2], axis=1) * concat([c1, c2], axis=1)), [c1, c2])

    # Stochastic regularizers: mask fixed by reseeding per call.
    d = _t(rng, 4, 8)
    errs["dropout"] = grad_check_params(
        lambda: tsum(dropout(d, 0.4, rng=np.random.default_rng(seed + 1)) * d), [d])
    errs["drop_path"] = grad_check_params(
        lambda: tsum(drop_path(d, 0.4, rng=np.random.default_rng(seed + 2)) * d), [d])

    img = _t(rng, 1, 2, 8, 8)
    errs["extract_patches"] = grad_check_params(
        lambda: tsum(extract_patches(img, 3, 2, 1) * extract_patches(img, 3, 2, 1)),
        [img])
    small = _t(rng, 1, 2, 3, 3)
    errs["upsample_bilinear"] = grad_check_params(
        lambda: tsum(upsample_bilinear(small, 7, 5) * upsample_bilinear(small, 7, 5)),
        [small])

    flat = _t(rng, 2, 4, 3, 3)
    labels = np.random.default_rng(seed + 3).integers(0, 4, (2, 3, 3))
    labels[0, 0, 0] = IGNORE_INDEX
    errs["cross_entropy"] = grad_check_params(
        lambda: cross_entropy(flat, labels), [flat])

    x3, w3, b3 = _t(rng, 2, 3, 4), _t(rng, 4, 2), _t(rng, 2)
    errs["matmul_bias"] = grad_check_params(
        lambda: tsum(matmul(x3, w3, b3) * matmul(x3, w3, b3)), [x3, w3, b3])
    q, k, kv = _t(rng, 2, 3, 4), _t(rng, 2, 2, 4), _t(rng, 2, 2, 4)
    errs["attention"] = grad_check_params(
        lambda: tsum(attention(q, k, kv, 2) * attention(q, k, kv, 2)), [q, k, kv])
    return errs


def adapter_check(seed: int) -> float:
    """FD check of all six adapter parameter tensors."""
    rng = np.random.default_rng(seed)
    adapter = CrossModalAdapter(6, 3, rng, dropout_rate=0.0)
    for p in adapter.parameters():
        p.data[...] = rng.normal(0.0, 0.2, p.shape)
    x = Tensor(rng.normal(0.0, 1.0, (5, 6)))
    return grad_check_params(lambda: tsum(adapter(x) * adapter(x)),
                             list(adapter.parameters()))


def fused_block_check(seed: int) -> float:
    """FD check of every parameter of one cross-modal block (M=2)."""
    rng = np.random.default_rng(seed)
    config = EncoderConfig(dims=(8,), depths=(1,), heads=(2,), strides=(2,),
                           sr_ratios=(1,))
    blocks = [TransformerBlock(8, 2, 1, 0.0, np.random.default_rng([seed, i]))
              for i in range(2)]
    bank = build_adapter_bank(2, config, "pair-bi", (1,), bottleneck=3, seed=seed,
                              dropout_rate=0.0)
    for p in bank.parameters():
        p.data[...] = rng.normal(0.0, 0.2, p.shape)
    xs = [Tensor(rng.normal(0.0, 1.0, (1, 4, 8))) for _ in range(2)]

    params = [p for blk in blocks for p in blk.parameters()] + list(bank.parameters())

    def f():
        outs = fused_block_forward(xs, blocks, 2, 2, bank, stage=1, block_idx=0)
        return tsum(outs[0] * outs[0]) + tsum(outs[1] * outs[1])

    return grad_check_params(f, params)


def end_to_end_check(seed: int) -> float:
    """FD check of the loss gradient w.r.t. every trainable tensor of a
    small two-modality model (4 sampled coordinates per tensor)."""
    config = ModelConfig(preset="tiny", modalities=("vis", "ir"), channels=(1, 1),
                         density="pair-bi", active_stages=(3, 4), bottleneck=2,
                         adapter_dropout=0.0, num_classes=3, decoder_dim=8,
                         dtype="float64", seed=seed)
    model = FusionModel(config)
    rng = np.random.default_rng(seed)
    images = {"vis": rng.random((1, 1, 32, 32)), "ir": rng.random((1, 1, 32, 32))}
    labels = rng.integers(0, 3, (1, 32, 32))
    params = [p for _, p in model.trainable_parameters()]
    # Zero-init up-projections would hide half the adapter path from the
    # loss; perturb all trainables first.
    fill = np.random.default_rng(seed + 7)
    for p in params:
        p.data[...] = p.data + fill.normal(0.0, 0.05, p.shape)

    def f():
        return cross_entropy(model.logits_at(images, 32, 32, train=False), labels)

    return grad_check_params(f, params, max_coords=4, seed=seed)


def gradient_suite(seeds=range(10), tol: float = 1e-4) -> dict:
    """Full FD verification: primitives, adapter, fused block, end-to-end.

    Returns per-check worst errors over all seeds plus a pass flag.
    """
    seeds = list(seeds)
    if not seeds:
        raise ValueError("the gradient suite needs at least one seed")
    if not 0.0 < tol < np.inf:
        raise ValueError(f"the gradient suite needs a positive finite tolerance, got {tol}")
    worst: dict[str, float] = {}
    for seed in seeds:
        for name, err in primitive_checks(seed).items():
            worst[name] = max(worst.get(name, 0.0), err)
        worst["adapter"] = max(worst.get("adapter", 0.0), adapter_check(seed))
        worst["fused_block"] = max(worst.get("fused_block", 0.0), fused_block_check(seed))
        worst["end_to_end"] = max(worst.get("end_to_end", 0.0), end_to_end_check(seed))
    return {"checks": worst, "tolerance": tol, "seeds": seeds,
            "passed": all(v < tol for v in worst.values())}


# ---------------------------------------------------------------------
# density equivalence verification
# ---------------------------------------------------------------------

EQUIV_INPUTS = 10       # random M=2 input pairs each density is compared on


@no_grad()
def check_density_equivalence(seed: int = 0, dtype=np.float64) -> dict:
    """Verify the two-modality density equivalences, and that they break
    for three modalities. Every forward runs without recording a graph.

    With M=2 there is exactly one modality pair, so a shared bank and a
    pair-bidirectional bank whose one adapter per slot is the shared
    bank's are the same function; a pair-unidirectional bank with both
    directions tied to that adapter matches too.
    With M=3, independently initialized per-pair adapters differ from a
    shared one.
    """
    config = EncoderConfig.preset("tiny")
    report = {"m2_shared_vs_pair_bi": None, "m2_tied_uni_vs_pair_bi": None,
              "m3_shared_vs_pair_bi_differ": None, "passed": False}

    encoders = [Encoder(config, 1, seed=seed * 7 + i, dtype=dtype) for i in range(2)]
    banks = {}
    for variant in DENSITIES:
        banks[variant] = build_adapter_bank(
            2, config, variant, (1, 2, 3, 4), bottleneck=4,
            seed=seed, dropout_rate=0.0, dtype=dtype)
    # Every route of every bank uses the shared bank's adapter for its
    # (stage, block, position). Up-projections are randomized first; at
    # their zero init every density is trivially identical.
    shared = banks["shared"]
    fill = np.random.default_rng(seed + 101)
    for _key, adapter in sorted(shared.adapters.items()):
        adapter.w_up.data[...] = fill.normal(0.0, 0.05, adapter.w_up.shape)
        adapter.b_up.data[...] = fill.normal(0.0, 0.05, adapter.b_up.shape)
    for bank in (banks["pair-bi"], banks["pair-uni"]):
        bank.adapters = {key: shared.adapters[key[:3] + ((),)] for key in bank.adapters}

    rng = np.random.default_rng(seed)
    same_bi = True
    same_uni = True
    for _ in range(EQUIV_INPUTS):
        imgs = [Tensor(rng.random((1, 1, 32, 32)).astype(dtype)) for _ in range(2)]
        outs = {}
        for variant in DENSITIES:
            pyr = fused_encode(encoders, imgs, banks[variant])
            outs[variant] = [f.data for p in pyr for f in p]
        same_bi &= all(np.array_equal(a, b) for a, b in
                       zip(outs["shared"], outs["pair-bi"]))
        same_uni &= all(np.array_equal(a, b) for a, b in
                        zip(outs["pair-uni"], outs["pair-bi"]))
    report["m2_shared_vs_pair_bi"] = bool(same_bi)
    report["m2_tied_uni_vs_pair_bi"] = bool(same_uni)

    # M=3: independently initialized pair adapters cannot all equal the
    # shared one, so outputs must differ.
    encoders3 = [Encoder(config, 1, seed=seed * 11 + i, dtype=dtype) for i in range(3)]
    shared3 = build_adapter_bank(3, config, "shared", (1, 2, 3, 4),
                                 bottleneck=4, seed=seed, dropout_rate=0.0, dtype=dtype)
    pair3 = build_adapter_bank(3, config, "pair-bi", (1, 2, 3, 4),
                               bottleneck=4, seed=seed + 1, dropout_rate=0.0, dtype=dtype)
    # Nonzero, per-adapter up-projections so the routing shows in outputs.
    filler = np.random.default_rng(seed + 2)
    for bank3 in (shared3, pair3):
        for _key, adapter in sorted(bank3.adapters.items()):
            adapter.w_up.data[...] = filler.normal(0.0, 0.05, adapter.w_up.shape)
    imgs3 = [Tensor(rng.random((1, 1, 32, 32)).astype(dtype)) for _ in range(3)]
    out_shared = fused_encode(encoders3, imgs3, shared3)
    out_pair = fused_encode(encoders3, imgs3, pair3)
    max_diff = max(float(np.max(np.abs(a.data - b.data)))
                   for pa, pb in zip(out_shared, out_pair) for a, b in zip(pa, pb))
    report["m3_shared_vs_pair_bi_differ"] = max_diff > 0.0
    report["m3_max_abs_diff"] = max_diff
    report["passed"] = bool(same_bi and same_uni and max_diff > 0.0)
    return report


def equivalence_suite(seed: int = 0) -> dict:
    """Density equivalence verification in both scalar precisions."""
    reports = {"float64": check_density_equivalence(seed, dtype=np.float64),
               "float32": check_density_equivalence(seed, dtype=np.float32)}
    return {"reports": reports,
            "passed": all(r["passed"] for r in reports.values())}
