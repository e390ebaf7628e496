"""Cross-modal adapters: bottleneck contract, routing densities,
fused block wiring, transparency and equivalence properties."""

import math

import numpy as np
import pytest

import adafuse as af
from adafuse.adapters import (CrossModalAdapter, build_adapter_bank,
                              fused_block_forward, fused_encode, route_key,
                              routes_for)
from adafuse.encoder import Encoder, EncoderConfig, PatchEmbed, TransformerBlock
from adafuse.gradcheck import grad_check_params
from adafuse.verification import check_density_equivalence


def rng_of(seed):
    return np.random.default_rng(seed)


# ---------------------------------------------------------------------
# adapter forward
# ---------------------------------------------------------------------

def test_zero_up_projection_gives_zero_output():
    adapter = CrossModalAdapter(8, 4, rng_of(0), dropout_rate=0.0)
    x = af.Tensor(rng_of(1).normal(size=(3, 8)))
    assert np.array_equal(adapter(x).data, np.zeros((3, 8)))


@pytest.mark.parametrize("dim,r", [(4, 1), (8, 4), (16, 8), (16, 32)])
def test_adapter_preserves_shape(dim, r):
    adapter = CrossModalAdapter(dim, r, rng_of(2), dropout_rate=0.0)
    x = af.Tensor(rng_of(3).normal(size=(2, 5, dim)))
    assert adapter(x).shape == x.shape


def test_adapter_matches_formula():
    # up(dropout(gelu(mid(down(x))))) with dropout disabled in eval
    adapter = CrossModalAdapter(6, 3, rng_of(4), dropout_rate=0.5)
    for p in adapter.parameters():
        p.data[...] = rng_of(5).normal(0.0, 0.3, p.shape)
    x = rng_of(6).normal(size=(4, 6))
    down = x @ adapter.w_down.data + adapter.b_down.data
    mid = down @ adapter.w_mid.data + adapter.b_mid.data
    from scipy.special import erf
    mid = mid * 0.5 * (1.0 + erf(mid / math.sqrt(2.0)))
    expected = mid @ adapter.w_up.data + adapter.b_up.data
    out = adapter(af.Tensor(x))
    assert np.allclose(out.data, expected, atol=1e-12)


def test_adapter_six_parameter_gradients():
    adapter = CrossModalAdapter(5, 2, rng_of(7), dropout_rate=0.0)
    for p in adapter.parameters():
        p.data[...] = rng_of(8).normal(0.0, 0.3, p.shape)
    x = af.Tensor(rng_of(9).normal(size=(3, 5)))
    err = grad_check_params(lambda: af.tsum(adapter(x) * adapter(x)),
                            list(adapter.parameters()))
    assert err < 1e-4


def test_adapter_rejects_bad_bottleneck_and_dim():
    with pytest.raises(ValueError):
        CrossModalAdapter(8, 0, rng_of(10))
    adapter = CrossModalAdapter(8, 2, rng_of(11))
    with pytest.raises(af.ShapeError):
        adapter(af.Tensor(np.zeros((2, 7))))


# ---------------------------------------------------------------------
# bank construction and cardinality
# ---------------------------------------------------------------------

def test_bank_cardinality_m2_b2_like_pair_bi():
    cfg = EncoderConfig.preset("b2-like")
    bank = build_adapter_bank(2, cfg, "pair-bi", (1, 2, 3, 4), bottleneck=8, seed=0)
    # 2 positions x 16 blocks x 1 pair
    assert len(bank) == 32


def test_bank_cardinality_m4_pair_uni_per_slot():
    assert len(routes_for("pair-uni", 4)) == 12  # 2*C(4,2)
    assert len(routes_for("pair-bi", 4)) == 6
    assert len(routes_for("shared", 4)) == 1


@pytest.mark.parametrize("m", [2, 3, 5])
def test_bank_counting_rules(m):
    cfg = EncoderConfig.preset("tiny")
    slots = 2 * sum(cfg.depths)
    pairs = math.comb(m, 2)
    for variant, per_slot in (("shared", 1),
                              ("pair-bi", pairs),
                              ("pair-uni", 2 * pairs)):
        bank = build_adapter_bank(m, cfg, variant, (1, 2, 3, 4), bottleneck=2, seed=0)
        assert len(bank) == slots * per_slot


def test_m2_shared_and_pair_bi_have_equal_cardinality():
    cfg = EncoderConfig.preset("tiny")
    shared = build_adapter_bank(2, cfg, "shared", (1, 2), 2, 0)
    pair = build_adapter_bank(2, cfg, "pair-bi", (1, 2), 2, 0)
    assert len(shared) == len(pair)


def test_bank_rejects_single_modality():
    with pytest.raises(ValueError):
        build_adapter_bank(1, EncoderConfig.preset("tiny"),
                           "shared", (1,), 2, 0)


def test_route_lookup_symmetry():
    cfg = EncoderConfig.preset("tiny")
    for variant, symmetric in (("shared", True), ("pair-bi", True),
                               ("pair-uni", False)):
        bank = build_adapter_bank(3, cfg, variant, (1,), 2, 0)
        fwd = bank.get(1, 0, 1, 0, 2)
        rev = bank.get(1, 0, 1, 2, 0)
        assert (fwd is rev) == symmetric


def test_route_key_rejects_self_route():
    with pytest.raises(ValueError):
        route_key("shared", 1, 1)


def test_density_config_validation():
    tiny = EncoderConfig.preset("tiny")
    with pytest.raises(ValueError, match="active_stages must be non-empty"):
        build_adapter_bank(2, tiny, "pair-bi", (), 2, 0)
    with pytest.raises(ValueError, match="unknown density 'dense-everything'"):
        build_adapter_bank(2, tiny, "dense-everything", (1,), 2, 0)
    assert build_adapter_bank(2, tiny, "shared", (4, 3, 3), 2, 0).stages == (3, 4)


# ---------------------------------------------------------------------
# fused block wiring
# ---------------------------------------------------------------------

def _micro_blocks(m, seed=0, dim=8):
    return [TransformerBlock(dim, 2, 1, 0.0, rng_of(seed + i)) for i in range(m)]


def _micro_bank(m, variant, seed=0, dim=8, randomize=True):
    cfg = EncoderConfig(dims=(dim,), depths=(1,), heads=(2,), strides=(2,),
                        sr_ratios=(1,))
    bank = build_adapter_bank(m, cfg, variant, (1,), 3, seed,
                              dropout_rate=0.0)
    if randomize:
        fill = rng_of(seed + 100)
        for _, p in bank.named_parameters():
            p.data[...] = fill.normal(0.0, 0.2, p.shape)
    return bank


def test_zero_adapters_match_plain_block_bitwise():
    blocks = _micro_blocks(2, seed=1)
    bank = _micro_bank(2, "pair-bi", seed=1, randomize=False)  # zero-init ups
    xs = [af.Tensor(rng_of(20 + i).normal(size=(2, 4, 8))) for i in range(2)]
    fused = fused_block_forward(xs, blocks, 2, 2, bank, stage=1, block_idx=0)
    for i in range(2):
        plain = blocks[i](xs[i], 2, 2)
        assert np.array_equal(fused[i].data, plain.data)


def test_m2_shared_equals_pair_bi_with_shared_adapters():
    blocks = _micro_blocks(2, seed=2)
    shared = _micro_bank(2, "shared", seed=2)
    pair = _micro_bank(2, "pair-bi", seed=999, randomize=False)
    pair.adapters = {key: shared.adapters[key[:3] + ((),)] for key in pair.adapters}
    xs = [af.Tensor(rng_of(30 + i).normal(size=(1, 4, 8))) for i in range(2)]
    out_s = fused_block_forward(xs, blocks, 2, 2, shared, 1, 0)
    out_p = fused_block_forward(xs, blocks, 2, 2, pair, 1, 0)
    for a, b in zip(out_s, out_p):
        assert np.array_equal(a.data, b.data)


def test_m3_shared_bank_is_permutation_equivariant():
    m = 3
    blocks = _micro_blocks(m, seed=3)
    bank = _micro_bank(m, "shared", seed=3)
    xs = [af.Tensor(rng_of(40 + i).normal(size=(1, 4, 8))) for i in range(m)]
    base = fused_block_forward(xs, blocks, 2, 2, bank, 1, 0)
    perm = [2, 0, 1]
    permuted = fused_block_forward([xs[p] for p in perm],
                                   [blocks[p] for p in perm], 2, 2, bank, 1, 0)
    # equivariance at the function level; float addition order differs,
    # so compare values tightly rather than bitwise
    for slot, p in enumerate(perm):
        assert np.allclose(permuted[slot].data, base[p].data, atol=1e-12)


def test_eq2_uses_preblock_input_not_post_attention():
    # The after-attention injection must read LN1 of the block INPUT.
    # Verify against an explicit reimplementation of the wiring.
    m = 2
    blocks = _micro_blocks(m, seed=4)
    bank = _micro_bank(m, "pair-uni", seed=4)
    xs = [af.Tensor(rng_of(50 + i).normal(size=(1, 4, 8))) for i in range(m)]
    got = fused_block_forward(xs, blocks, 2, 2, bank, 1, 0)

    ln1 = [blocks[i].norm1(xs[i]) for i in range(m)]
    z_attn = [xs[i] + blocks[i].attn(ln1[i], 2, 2) for i in range(m)]
    z_attn[1] = z_attn[1] + bank.get(1, 0, 1, 0, 1)(ln1[0])
    z_attn[0] = z_attn[0] + bank.get(1, 0, 1, 1, 0)(ln1[1])
    ln2 = [blocks[i].norm2(z_attn[i]) for i in range(m)]
    z_mlp = [z_attn[i] + blocks[i].mlp(ln2[i]) for i in range(m)]
    z_mlp[1] = z_mlp[1] + bank.get(1, 0, 2, 0, 1)(ln2[0])
    z_mlp[0] = z_mlp[0] + bank.get(1, 0, 2, 1, 0)(ln2[1])
    for a, b in zip(got, z_mlp):
        assert np.allclose(a.data, b.data, atol=1e-12)


def test_fused_block_gradients_through_adapters_and_blocks():
    blocks = _micro_blocks(2, seed=5, dim=4)
    cfg = EncoderConfig(dims=(4,), depths=(1,), heads=(2,), strides=(2,),
                        sr_ratios=(1,))
    blocks = [TransformerBlock(4, 2, 1, 0.0, rng_of(5 + i)) for i in range(2)]
    bank = build_adapter_bank(2, cfg, "pair-bi", (1,), 2, 5,
                              dropout_rate=0.0)
    fill = rng_of(55)
    params = [p for _, p in bank.named_parameters()]
    for blk in blocks:
        params.extend(p for _, p in blk.named_parameters("b"))
    for p in params:
        p.data[...] = p.data + fill.normal(0.0, 0.1, p.shape)
        p.requires_grad = True
    xs = [af.Tensor(rng_of(60 + i).normal(size=(1, 4, 4))) for i in range(2)]

    def f():
        outs = fused_block_forward(xs, blocks, 2, 2, bank, 1, 0)
        return af.tsum(outs[0] * outs[0]) + af.tsum(outs[1] * outs[1])

    assert grad_check_params(f, params) < 1e-4


# ---------------------------------------------------------------------
# fused encoding over full stacks
# ---------------------------------------------------------------------

def _encoders(m, seed=0, dtype=np.float64):
    cfg = EncoderConfig.preset("tiny")
    return [Encoder(cfg, 1, seed=(seed, i), dtype=dtype) for i in range(m)]


@pytest.mark.parametrize("variant", ["shared", "pair-bi", "pair-uni"])
@pytest.mark.parametrize("stages", [(1, 2, 3, 4), (3, 4), (2,)])
def test_zero_adapter_transparency(variant, stages):
    encoders = _encoders(2, seed=6)
    bank = build_adapter_bank(2, encoders[0].config, variant, stages, 4, seed=6,
                              dropout_rate=0.0)
    imgs = [af.Tensor(rng_of(70 + i).random((1, 1, 32, 32))) for i in range(2)]
    fused = fused_encode(encoders, imgs, bank)
    for i in range(2):
        solo = fused_encode([encoders[i]], [imgs[i]], None)[0]
        for fs, ss in zip(fused[i], solo):
            assert np.array_equal(fs.data, ss.data)


def test_active_stage_subset_only_it_changes():
    encoders = _encoders(2, seed=7)
    bank = build_adapter_bank(2, encoders[0].config, "pair-bi", (3, 4), 4, seed=7,
                              dropout_rate=0.0)
    fill = rng_of(77)
    for _, p in bank.named_parameters():
        p.data[...] = fill.normal(0.0, 0.3, p.shape)
    imgs = [af.Tensor(rng_of(80 + i).random((1, 1, 32, 32))) for i in range(2)]
    fused = fused_encode(encoders, imgs, bank)
    for i in range(2):
        solo = fused_encode([encoders[i]], [imgs[i]], None)[0]
        # stages before the active set are untouched
        for s in (0, 1):
            assert np.array_equal(fused[i][s].data, solo[s].data)
        for s in (2, 3):
            assert not np.array_equal(fused[i][s].data, solo[s].data)


def test_fused_encode_eval_deterministic():
    encoders = _encoders(2, seed=8)
    bank = build_adapter_bank(2, encoders[0].config, "shared", (1, 2, 3, 4), 4, seed=8)
    imgs = [af.Tensor(rng_of(90 + i).random((1, 1, 32, 32))) for i in range(2)]
    a = fused_encode(encoders, imgs, bank)
    b = fused_encode(encoders, imgs, bank)
    for pa, pb in zip(a, b):
        for fa, fb in zip(pa, pb):
            assert np.array_equal(fa.data, fb.data)


def test_fused_encode_takes_the_layout_from_the_bank_only():
    """A stale positional density or train flag is an error, never read
    as the generator."""
    encoders = _encoders(2, seed=9)
    bank = build_adapter_bank(2, encoders[0].config, "pair-bi", (3, 4), 4, seed=9)
    imgs = [af.Tensor(rng_of(95 + i).random((1, 1, 32, 32))) for i in range(2)]
    with pytest.raises(TypeError):
        fused_encode(encoders, imgs, bank, "pair-bi")
    with pytest.raises(TypeError):
        fused_encode(encoders, imgs, bank, True, rng_of(0))


def _maps(*shapes):
    return [af.Tensor(np.zeros(shape)) for shape in shapes]


@pytest.mark.parametrize("images", [
    _maps((1, 1, 32, 32), (1, 1, 64, 64)),
    _maps((2, 1, 32, 32), (1, 1, 32, 32)),
    _maps((1, 32, 32), (1, 32, 32)),
    _maps((1, 1, 48, 48), (1, 1, 48, 48)),
    [_maps((1, 16, 8, 8)), _maps((1, 16, 8, 8), (1, 32, 4, 4))],
    [_maps((1, 16, 8, 8)), _maps((2, 16, 8, 8))]],
    ids=["spatial-dims-differ", "batch-sizes-differ", "not-4d", "not-multiples-of-32",
         "cached-stage-counts-differ", "cached-batch-sizes-differ"])
def test_fused_encode_refuses_bad_inputs_before_any_patch_embed(images, monkeypatch):
    calls = []
    real = PatchEmbed.__call__
    monkeypatch.setattr(PatchEmbed, "__call__", lambda self, x: calls.append(x) or real(self, x))
    encoders = _encoders(2, seed=9)
    bank = build_adapter_bank(2, encoders[0].config, "pair-bi", (3, 4), 4, seed=9)
    with pytest.raises(af.ShapeError, match=r"\[B, C, H, W\] with one B, H and W"):
        fused_encode(encoders, images, bank)
    assert calls == []


# ---------------------------------------------------------------------
# density equivalence report
# ---------------------------------------------------------------------

@pytest.mark.parametrize("seed", [0, 7])
def test_density_equivalence_report(seed):
    report = check_density_equivalence(seed)
    assert report["m2_shared_vs_pair_bi"]
    assert report["m2_tied_uni_vs_pair_bi"]
    assert report["m3_shared_vs_pair_bi_differ"]
    assert report["m3_max_abs_diff"] > 0.0
    assert report["passed"]
