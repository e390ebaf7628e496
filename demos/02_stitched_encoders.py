# Frozen encoders exchanging features through bottleneck adapters.
#
# Two per-modality transformer encoders run in lockstep. At every block
# of the active stages, each modality's normalized features pass
# through a small down/mid/up adapter and land in the other modality's
# residual stream: once after attention, once after the MLP. The
# adapters are the only new parameters; their up-projections start at
# zero, so a fresh fused model is exactly the pair of independent
# encoders.

import numpy as np

import adafuse as af
from adafuse.adapters import build_adapter_bank, fused_encode
from adafuse.encoder import Encoder, EncoderConfig
from adafuse.verification import check_density_equivalence

cfg = EncoderConfig.preset("tiny")
encoders = [Encoder(cfg, in_channels=1, seed=(0, i)) for i in range(2)]
rng = np.random.default_rng(0)
imgs = [af.Tensor(rng.random((1, 1, 32, 32))) for _ in range(2)]

# -- routing densities --------------------------------------------------
# shared    : one adapter serves every route           (1 per slot)
# pair-bi   : one adapter per unordered modality pair  (C(M,2) per slot)
# pair-uni  : two per pair, one per direction          (2*C(M,2) per slot)

for variant in ("shared", "pair-bi", "pair-uni"):
    bank = build_adapter_bank(3, cfg, variant, (1, 2, 3, 4), bottleneck=8, seed=0)
    print(f"{variant:<9} M=3 bank: {len(bank)} adapters")

# -- zero-init transparency ---------------------------------------------
# Nothing here runs backward, so the forwards run under no_grad() and
# record no graph.

bank = build_adapter_bank(2, cfg, "pair-bi", (3, 4), bottleneck=8, seed=0)
with af.no_grad():
    fused = fused_encode(encoders, imgs, bank)
    solo = [fused_encode([enc], [img], None)[0] for enc, img in zip(encoders, imgs)]
same = all(np.array_equal(f.data, s.data)
           for pf, ps in zip(fused, solo) for f, s in zip(pf, ps))
print("\nfresh bank (zero up-projections) leaves encodings untouched:", same)

# After perturbing the up-projections, the active stages (3 and 4)
# change while stages 1 and 2 stay bit-identical:
fill = np.random.default_rng(1)
for name, p in bank.named_parameters():
    if "w_up" in name:
        p.data[...] = fill.normal(0.0, 0.1, p.shape)
with af.no_grad():
    fused = fused_encode(encoders, imgs, bank)
for s in range(4):
    untouched = np.array_equal(fused[0][s].data, solo[0][s].data)
    print(f"  stage {s + 1}: bit-identical to the solo encoder: {untouched}")

# -- two-modality equivalence -------------------------------------------
# With M=2 there is a single modality pair, so a shared bank and a
# pair-bidirectional bank carrying the same weights are the same
# function (and a pair of tied unidirectional adapters matches too).

report = check_density_equivalence(seed=0)
print("\nM=2 shared == pair-bi:", report["m2_shared_vs_pair_bi"])
print("M=2 tied pair-uni == pair-bi:", report["m2_tied_uni_vs_pair_bi"])
print("M=3 shared != independent pairs:", report["m3_shared_vs_pair_bi_differ"],
      f"(max abs diff {report['m3_max_abs_diff']:.2e})")
