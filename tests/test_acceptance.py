"""Acceptance suite.

One test per criterion, each printing a `[PASS]/[FAIL]` line (run with
``pytest tests/test_acceptance.py -v -s`` to see them stream). Training
criteria share one protocol run via a module-scoped fixture.
"""

import time

import numpy as np
import pytest

import adafuse as af
from adafuse.adapters import build_adapter_bank, fused_encode
from adafuse.budget import analytic_count, empirical_count
from adafuse.data import SceneDataset, generate_synthetic
from adafuse.encoder import Encoder, EncoderConfig
from adafuse.training import ConfusionMatrix, TrainConfig, evaluate, fit
from adafuse.verification import equivalence_suite, gradient_suite


def report(criterion: str, ok: bool, detail: str = "") -> None:
    tag = "PASS" if ok else "FAIL"
    print(f"\n[{tag}] {criterion}" + (f" -- {detail}" if detail else ""))
    assert ok, f"{criterion}: {detail}"


# ---------------------------------------------------------------------
# 1. parameter-budget reproduction
# ---------------------------------------------------------------------

def test_criterion_1_parameter_budgets():
    t0 = time.perf_counter()
    cases = [
        (2, (1, 2, 3, 4), 144_000, 0.14),
        (3, (1, 2, 3, 4), 432_000, 0.43),
        (4, (3, 4), 713_664, 0.71),
    ]
    cfg = EncoderConfig.preset("b2-like")
    ok = True
    details = []
    for m, stages, want, want_million in cases:
        analytic = analytic_count(cfg, "pair-bi", stages, m, 8, include_biases=True)
        exact = analytic == want
        rounded = round(analytic / 1e6, 2) == want_million
        empirical_match = True
        for dtype in (np.float64, np.float32):
            bank = build_adapter_bank(m, cfg, "pair-bi", stages, 8, seed=0, dtype=dtype)
            empirical_match &= empirical_count(bank) == analytic
        ok &= exact and rounded and empirical_match
        details.append(f"m={m}:{analytic}(+{round(analytic / 1e6, 2)}M)")
    elapsed = time.perf_counter() - t0
    ok &= elapsed < 1.0
    report("criterion 1: parameter budgets 144000/432000/713664, "
           "analytic == empirical", ok,
           f"{', '.join(details)}, {elapsed:.2f}s")


# ---------------------------------------------------------------------
# 2. two-modality density equivalence
# ---------------------------------------------------------------------

def test_criterion_2_density_equivalence_m2():
    t0 = time.perf_counter()
    suite = equivalence_suite(seed=0)
    elapsed = time.perf_counter() - t0
    ok = suite["passed"] and elapsed < 30.0
    detail = ", ".join(
        f"{dt}: shared==pair-bi {r['m2_shared_vs_pair_bi']}, "
        f"tied-uni==pair-bi {r['m2_tied_uni_vs_pair_bi']}"
        for dt, r in suite["reports"].items())
    report("criterion 2: M=2 shared / pair-bi / tied-uni equivalence", ok,
           f"{detail}, {elapsed:.1f}s")


# ---------------------------------------------------------------------
# 3. zero-adapter transparency
# ---------------------------------------------------------------------

def test_criterion_3_zero_adapter_transparency():
    t0 = time.perf_counter()
    cfg = EncoderConfig.preset("tiny")
    encoders = [Encoder(cfg, 1, seed=(3, i)) for i in range(2)]
    imgs = [af.Tensor(np.random.default_rng(30 + i).random((1, 1, 32, 32)))
            for i in range(2)]
    solo = [fused_encode([enc], [img], None)[0] for enc, img in zip(encoders, imgs)]
    ok = True
    checked = 0
    for variant in ("shared", "pair-bi", "pair-uni"):
        for stages in ((1, 2, 3, 4), (3, 4), (1,), (2, 3)):
            bank = build_adapter_bank(2, cfg, variant, stages, 8, seed=3,
                                      dropout_rate=0.0)
            fused = fused_encode(encoders, imgs, bank)
            for i in range(2):
                for fs, ss in zip(fused[i], solo[i]):
                    ok &= bool(np.array_equal(fs.data, ss.data))
            checked += 1
    elapsed = time.perf_counter() - t0
    ok &= elapsed < 30.0
    report("criterion 3: zero-init adapters are bit-transparent", ok,
           f"{checked} variant/stage combos, {elapsed:.1f}s")


# ---------------------------------------------------------------------
# 4. gradient integrity
# ---------------------------------------------------------------------

def test_criterion_4_gradient_integrity():
    t0 = time.perf_counter()
    suite = gradient_suite(seeds=range(10), tol=1e-4)
    elapsed = time.perf_counter() - t0
    worst = max(suite["checks"].items(), key=lambda kv: kv[1])
    ok = suite["passed"] and elapsed < 300.0
    report("criterion 4: finite-difference suite < 1e-4 over 10 seeds", ok,
           f"{len(suite['checks'])} checks, worst {worst[0]}={worst[1]:.2e}, "
           f"{elapsed:.0f}s")


# ---------------------------------------------------------------------
# 5. frozen-encoder contract
# ---------------------------------------------------------------------

def test_criterion_5_frozen_encoder_after_100_steps():
    t0 = time.perf_counter()
    ds = generate_synthetic(16, 32, 32, 5, 2, seed=50)
    model = af.FusionModel(af.ModelConfig(
        preset="tiny", modalities=("vis", "ir"), channels=(1, 1),
        density="pair-bi", bottleneck=4, use_ffm=True, num_classes=5,
        dtype="float32", seed=50))
    frozen_before = {n: p.data.tobytes() for n, p in model.named_parameters()
                     if not p.requires_grad}
    groups_before = {grp: {n: p.data.tobytes() for n, p in
                           model.trainable_parameters() if n.startswith(grp)}
                     for grp in ("adapters.", "ffm.", "decoder.")}
    # 16 samples / batch 8 = 2 steps per epoch -> 50 epochs = 100 steps
    fit(model, ds, TrainConfig(base_lr=1e-3, warmup_epochs=5, epochs=50,
                               batch_size=8, seed=50))
    frozen_after = {n: p.data.tobytes() for n, p in model.named_parameters()
                    if not p.requires_grad}
    encoder_ok = bool(frozen_before) and frozen_before == frozen_after
    changed_ok = True
    for grp, before in groups_before.items():
        changed = sum(before[n] != p.data.tobytes()
                      for n, p in model.trainable_parameters()
                      if n.startswith(grp))
        changed_ok &= changed > 0
    elapsed = time.perf_counter() - t0
    ok = encoder_ok and changed_ok and elapsed < 300.0
    report("criterion 5: encoders byte-frozen over 100 steps, "
           "adapters/ffm/decoder moved", ok, f"{elapsed:.0f}s")


# ---------------------------------------------------------------------
# 6/7. fusion benefit and FFM complementarity (shared protocol)
# ---------------------------------------------------------------------

def _split(ds, n):
    def sub(samples, tag):
        return SceneDataset(samples, ds.num_classes, ds.height, ds.width,
                            ds.modalities, ds.seed, tag, ds.ignore_index,
                            ds.class_visibility)
    return sub(ds.samples[:n], "train"), sub(ds.samples[n:], "eval")


def _train_eval(train_ds, eval_ds, modalities, seed, use_ffm=False):
    chans = dict(train_ds.modalities)
    model = af.FusionModel(af.ModelConfig(
        preset="tiny", modalities=modalities,
        channels=tuple(chans[m] for m in modalities), density="pair-bi",
        bottleneck=8, use_ffm=use_ffm, num_classes=train_ds.num_classes,
        dtype="float32", seed=seed))
    fit(model, train_ds, TrainConfig(base_lr=1e-2, warmup_epochs=3,
                                     decay_factor=0.01, epochs=30,
                                     batch_size=16, seed=seed))
    return evaluate(model, eval_ds)["miou"] * 100.0


@pytest.fixture(scope="module")
def fusion_protocol():
    """200 train / 50 eval, 32x32, 5 classes, tiny preset, 30 epochs;
    per seed: two single-modality baselines, the fused model, fused+FFM."""
    results = {"single": [], "fused": [], "ffm": [],
               "time_base": 0.0, "time_ffm": 0.0}
    for seed in range(5):
        full = generate_synthetic(250, 32, 32, 5, 2, seed=1000 + seed)
        train_ds, eval_ds = _split(full, 200)
        t0 = time.perf_counter()
        singles = [_train_eval(train_ds, eval_ds, (m,), seed)
                   for m in full.modality_names]
        fused = _train_eval(train_ds, eval_ds, tuple(full.modality_names), seed)
        results["time_base"] += time.perf_counter() - t0
        t0 = time.perf_counter()
        ffm = _train_eval(train_ds, eval_ds, tuple(full.modality_names), seed,
                          use_ffm=True)
        results["time_ffm"] += time.perf_counter() - t0
        results["single"].append(max(singles))
        results["fused"].append(fused)
        results["ffm"].append(ffm)
    return results


@pytest.mark.slow
def test_criterion_6_fusion_beats_single_modality(fusion_protocol):
    margins = [f - s for f, s in zip(fusion_protocol["fused"],
                                     fusion_protocol["single"])]
    hits = sum(m >= 5.0 for m in margins)
    ok = hits >= 4 and fusion_protocol["time_base"] < 900.0
    report("criterion 6: fused model >= best single baseline + 5 mIoU "
           "in >= 4/5 seeds", ok,
           f"margins {[round(m, 1) for m in margins]}, "
           f"{fusion_protocol['time_base']:.0f}s")


@pytest.mark.slow
def test_criterion_7_ffm_non_inferiority(fusion_protocol):
    fused_mean = float(np.mean(fusion_protocol["fused"]))
    ffm_mean = float(np.mean(fusion_protocol["ffm"]))
    ok = ffm_mean >= fused_mean - 0.5 and fusion_protocol["time_ffm"] < 900.0
    report("criterion 7: +FFM mean mIoU within 0.5 of (or above) plain fusion",
           ok, f"fused {fused_mean:.2f}, +ffm {ffm_mean:.2f} "
           f"({ffm_mean - fused_mean:+.2f}), {fusion_protocol['time_ffm']:.0f}s")


# ---------------------------------------------------------------------
# 8. metric oracle
# ---------------------------------------------------------------------

def test_criterion_8_metric_oracle_100_random_pairs():
    rng = np.random.default_rng(80)
    ok = True
    for _ in range(100):
        k = int(rng.integers(2, 7))
        label = rng.integers(0, k, (16, 16))
        pred = rng.integers(0, k, (16, 16))
        label[rng.random((16, 16)) < 0.1] = 255
        cm = ConfusionMatrix(k)
        cm.update(pred, label)
        got = cm.per_class_iou()
        for c in range(k):
            keep = label != 255
            inter = int(((pred == c) & (label == c) & keep).sum())
            union = int((((pred == c) | (label == c)) & keep).sum())
            if union == 0:
                ok &= bool(np.isnan(got[c]))
            else:
                ok &= got[c] == inter / union
    report("criterion 8: evaluate() equals brute-force intersection/union "
           "on 100 random pairs", ok)


# ---------------------------------------------------------------------
# 9. determinism and round trips
# ---------------------------------------------------------------------

def test_criterion_9_determinism_and_roundtrips(tmp_path):
    ds = generate_synthetic(6, 32, 32, 5, 2, seed=90)
    mious, confusions = [], []
    for _ in range(2):
        model = af.FusionModel(af.ModelConfig(
            preset="tiny", modalities=("vis", "ir"), channels=(1, 1),
            bottleneck=4, num_classes=5, dtype="float32", seed=90))
        fit(model, ds, TrainConfig(base_lr=1e-3, warmup_epochs=1, epochs=2,
                                   batch_size=4, seed=90))
        metrics = evaluate(model, ds)
        mious.append(metrics["miou"])
        confusions.append(metrics["confusion"])
    deterministic = mious[0] == mious[1] and confusions[0] == confusions[1]

    # dataset round trip
    af.save_dataset(ds, tmp_path / "ds")
    back = af.load_dataset(tmp_path / "ds")
    ds_ok = all(
        np.array_equal(a.label, b.label)
        and all(a.images[n].tobytes() == b.images[n].tobytes() for n in a.images)
        for a, b in zip(ds.samples, back.samples))

    # checkpoint round trip
    af.save_checkpoint(model, tmp_path / "ckpt")
    restored = af.load_checkpoint(tmp_path / "ckpt")
    ckpt_ok = all(pa.data.tobytes() == pb.data.tobytes()
                  for (_, pa), (_, pb) in zip(model.named_parameters(),
                                              restored.named_parameters()))
    ckpt_ok &= evaluate(restored, ds)["miou"] == mious[-1]

    report("criterion 9: seed determinism; dataset and checkpoint round "
           "trips bit-exact", deterministic and ds_ok and ckpt_ok,
           f"determinism {deterministic}, dataset {ds_ok}, checkpoint {ckpt_ok}")
