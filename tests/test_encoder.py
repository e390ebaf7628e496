"""Encoder stages: shape arithmetic, degenerate cases, gradients."""

import numpy as np
import pytest

import adafuse as af
from adafuse.adapters import fused_encode
from adafuse.encoder import (Attention, Encoder, EncoderConfig, PatchEmbed,
                             TransformerBlock, tokens_to_map)
from adafuse.gradcheck import grad_check_params
from adafuse.tensor import ShapeError


def rng_of(seed):
    return np.random.default_rng(seed)


def test_config_presets():
    tiny = EncoderConfig.preset("tiny")
    assert tiny.dims == (16, 32, 64, 128) and tiny.depths == (2, 2, 2, 2)
    b2 = EncoderConfig.preset("b2-like")
    assert b2.dims == (64, 128, 320, 512) and b2.depths == (3, 4, 6, 3)
    with pytest.raises(ValueError):
        EncoderConfig.preset("b5")


@pytest.mark.parametrize("config,multiple", [
    (EncoderConfig.preset("tiny"), 32), (EncoderConfig.preset("b2-like"), 32),
    (EncoderConfig(dims=(8, 8), depths=(1, 1), heads=(1, 1), strides=(2, 3),
                   sr_ratios=(4, 1)), 24)])  # lcm(2 * 4, 6 * 1)
def test_size_multiple_tiles_every_stride_and_pooling(config, multiple):
    assert config.size_multiple == multiple


def test_config_validation():
    with pytest.raises(ValueError):
        EncoderConfig(dims=(16, 32), depths=(2,), heads=(1, 1), strides=(4, 2),
                      sr_ratios=(1, 1))
    with pytest.raises(ValueError):
        EncoderConfig(dims=(15,), depths=(1,), heads=(2,), strides=(4,),
                      sr_ratios=(1,))
    with pytest.raises(ValueError, match="positive"):        # no size_multiple of 0
        EncoderConfig(sr_ratios=(0, 2, 1, 1))


# ---------------------------------------------------------------------
# patch embed
# ---------------------------------------------------------------------

def test_patch_embed_token_count():
    pe = PatchEmbed(3, 64, stride=4, rng=rng_of(0))
    tokens, (h, w) = pe(af.Tensor(np.zeros((1, 3, 64, 64))))
    assert tokens.shape == (1, 256, 64) and (h, w) == (16, 16)


def test_patch_embed_token_counts_across_stages():
    cfg = EncoderConfig.preset("tiny")
    enc = Encoder(cfg, in_channels=3, seed=0)
    img = af.Tensor(np.random.default_rng(1).random((1, 3, 64, 64)))
    feats = fused_encode([enc], [img], None)[0]
    token_counts = [f.shape[-2] * f.shape[-1] for f in feats]
    assert token_counts == [256, 64, 16, 4]


def test_patch_embed_zero_image_gives_identical_bias_rows():
    pe = PatchEmbed(2, 8, stride=2, rng=rng_of(2))
    pe.bias.data[...] = rng_of(3).normal(size=8)
    pe.norm_beta.data[...] = rng_of(4).normal(size=8)
    tokens, _ = pe(af.Tensor(np.zeros((1, 2, 8, 8))))
    # every patch projects to the same bias row, so every token is the
    # layer-norm affine of that bias
    b = pe.bias.data
    normed = (b - b.mean()) / np.sqrt(b.var() + 1e-6)
    expected = normed * pe.norm_gamma.data + pe.norm_beta.data
    assert np.allclose(tokens.data, expected[None, None, :], atol=1e-12)


# ---------------------------------------------------------------------
# attention
# ---------------------------------------------------------------------

def test_attention_single_token_is_value_path():
    attn = Attention(8, heads=2, sr_ratio=1, rng=rng_of(6))
    x = af.Tensor(rng_of(7).normal(size=(1, 1, 8)))
    out = attn(x, 1, 1)
    v = x.data @ attn.wv.data + attn.bv.data
    expected = v @ attn.wo.data + attn.bo.data
    assert np.allclose(out.data, expected, atol=1e-12)


def test_attention_preserves_shape():
    attn = Attention(16, heads=4, sr_ratio=2, rng=rng_of(8))
    for n in (4, 16, 64):
        side = int(np.sqrt(n))
        x = af.Tensor(rng_of(9).normal(size=(2, n, 16)))
        assert attn(x, side, side).shape == (2, n, 16)


def test_attention_head_divisibility():
    attn = Attention(10, heads=4, sr_ratio=1, rng=rng_of(10))
    with pytest.raises(ShapeError, match="heads"):
        attn(af.Tensor(rng_of(11).normal(size=(1, 4, 10))), 2, 2)


def test_attention_refuses_a_token_width_it_was_not_built_for():
    attn = Attention(8, heads=2, sr_ratio=1, rng=rng_of(10))
    with pytest.raises(ShapeError):
        attn(af.Tensor(rng_of(11).normal(size=(2, 4, 6))), 2, 2)


@pytest.mark.parametrize("sr", [1, 2])
def test_attention_gradient(sr):
    attn = Attention(4, heads=2, sr_ratio=sr, rng=rng_of(11))
    x = af.Tensor(rng_of(12).normal(size=(1, 4, 4)), requires_grad=True)
    params = [x] + [p for _, p in attn.named_parameters("a")]
    for p in params:
        p.requires_grad = True
    err = grad_check_params(lambda: af.tsum(attn(x, 2, 2) * attn(x, 2, 2)), params)
    assert err < 1e-4


# ---------------------------------------------------------------------
# transformer block
# ---------------------------------------------------------------------

def test_block_drop_path_one_degenerates_to_skip():
    blk = TransformerBlock(8, 2, 1, 1.0 - 1e-9, rng_of(15))
    x = af.Tensor(rng_of(16).normal(size=(2, 4, 8)))
    out = blk(x, 2, 2, rng=rng_of(17))
    assert np.array_equal(out.data, x.data)


def test_block_zero_weights_is_identity_in_eval():
    blk = TransformerBlock(8, 2, 1, 0.0, rng_of(18))
    for name, p in blk.named_parameters("b"):
        if name.endswith(("gamma",)):
            continue
        p.data[...] = 0.0
    x = af.Tensor(rng_of(19).normal(size=(1, 4, 8)))
    out = blk(x, 2, 2)
    assert np.allclose(out.data, x.data, atol=1e-12)


def test_block_gradient():
    blk = TransformerBlock(4, 2, 1, 0.0, rng_of(20))
    x = af.Tensor(rng_of(21).normal(size=(1, 4, 4)), requires_grad=True)
    params = [x] + [p for _, p in blk.named_parameters("b")]
    for p in params:
        p.requires_grad = True

    def f():
        out = blk(x, 2, 2)
        return af.tsum(out * out) + af.tsum(out)

    assert grad_check_params(f, params) < 1e-4


# ---------------------------------------------------------------------
# full encoder
# ---------------------------------------------------------------------

def test_encoder_pyramid_shapes_b2_like():
    enc = Encoder(EncoderConfig.preset("b2-like"), in_channels=3, seed=1,
                  dtype=np.float32)
    img = af.Tensor(np.random.default_rng(22).random((1, 3, 64, 64)).astype(np.float32))
    feats = fused_encode([enc], [img], None)[0]
    shapes = [f.shape for f in feats]
    assert shapes == [(1, 64, 16, 16), (1, 128, 8, 8),
                      (1, 320, 4, 4), (1, 512, 2, 2)]


def test_encoder_eval_forward_is_deterministic():
    enc = Encoder(EncoderConfig.preset("tiny"), in_channels=1, seed=2)
    img = af.Tensor(np.random.default_rng(23).random((1, 1, 32, 32)))
    a = fused_encode([enc], [img], None)[0]
    b = fused_encode([enc], [img], None)[0]
    for fa, fb in zip(a, b):
        assert np.array_equal(fa.data, fb.data)


@pytest.mark.parametrize("config,h,w", [
    (EncoderConfig.preset("tiny"), 30, 30),
    (EncoderConfig.preset("tiny"), 30, 32),
    (EncoderConfig(sr_ratios=(2, 2, 1, 4)), 32, 32)],     # size_multiple 128
    ids=["30x30", "30x32", "sr-multiple-128-at-32x32"])
def test_encoder_rejects_bad_spatial_dims(config, h, w):
    enc = Encoder(config, in_channels=1, seed=3)
    with pytest.raises(ShapeError, match="multiples of"):
        fused_encode([enc], [af.Tensor(np.zeros((1, 1, h, w)))], None)


def reference_encode(enc, x, *, rng=None):
    """The plain per-modality stage loop, written out: each stage's patch
    embedding, its blocks in order, then its closing layer norm."""
    feats = []
    cur = x
    for s, stage in enumerate(enc.stages):
        tokens, (h, w) = stage.patch(cur)
        for blk in stage.blocks:
            tokens = blk(tokens, h, w, rng=rng)
        tokens = enc.stage_norm(s, tokens)
        cur = tokens_to_map(tokens, h, w)
        feats.append(cur)
    return feats


@pytest.mark.parametrize("dtype", [np.float32, np.float64])
@pytest.mark.parametrize("train", [False, True])
def test_fused_encode_without_bank_matches_reference_loop(dtype, train):
    """One encoder and no bank: ``fused_encode`` gives the reference
    loop's bytes, drop-path masks drawn in the same order included."""
    cfg = EncoderConfig()
    enc = Encoder(cfg, in_channels=1, seed=9, dtype=dtype, drop_path_rate=0.3)
    img = af.Tensor(rng_of(24).random((4, 1, 32, 32)).astype(dtype))

    def draws():
        return rng_of(25) if train else None

    ref = reference_encode(enc, img, rng=draws())
    got = fused_encode([enc], [img], None, rng=draws())[0]
    assert len(got) == len(ref) == cfg.num_stages
    for g, r in zip(got, ref):
        assert g.dtype == r.dtype == dtype
        assert g.data.tobytes() == r.data.tobytes()
    plain = reference_encode(enc, img)
    assert train != all(np.array_equal(r.data, p.data) for r, p in zip(ref, plain))


def test_set_trainable_toggles_every_buffer():
    enc = Encoder(EncoderConfig.preset("tiny"), in_channels=1, seed=4)
    enc.set_trainable(False)
    assert all(not p.requires_grad for _, p in enc.named_parameters())
    enc.set_trainable(True)
    assert all(p.requires_grad for _, p in enc.named_parameters())


def test_same_seed_same_parameters():
    a = Encoder(EncoderConfig.preset("tiny"), in_channels=1, seed=5)
    b = Encoder(EncoderConfig.preset("tiny"), in_channels=1, seed=5)
    for (na, pa), (nb, pb) in zip(a.named_parameters(), b.named_parameters()):
        assert na == nb
        assert np.array_equal(pa.data, pb.data)
