"""Schedule, loss, optimizer, metrics, freezing, checkpoints."""

import gc
import json
import math
import os
import subprocess
import sys
import threading
from pathlib import Path

import numpy as np
import pytest

import adafuse as af
from adafuse import tensor, training
from adafuse.data import (SceneDataset, StoreError, batch_iter, generate_synthetic,
                          stack_batch)
from adafuse.encoder import Encoder, PatchEmbed, TransformerBlock
from adafuse.gradcheck import grad_check_params
from adafuse.training import (AdamW, ConfusionMatrix,
                              TrainConfig, TrainingError, cross_entropy,
                              evaluate, fit, format_metrics, load_checkpoint,
                              lr_at, save_checkpoint, train_step)


def tiny_model(seed=0, modalities=("vis", "ir"), use_ffm=False, dtype="float32"):
    cfg = af.ModelConfig(preset="tiny", modalities=modalities,
                         channels=(1,) * len(modalities), density="pair-bi",
                         bottleneck=4, num_classes=5, dtype=dtype, seed=seed)
    cfg.use_ffm = use_ffm
    return af.FusionModel(cfg)


def tiny_dataset(n=8, seed=0):
    return generate_synthetic(n, 32, 32, 5, 2, seed=seed)


# ---------------------------------------------------------------------
# learning-rate schedule
# ---------------------------------------------------------------------

def test_lr_ramp_and_decay_endpoints():
    cfg = TrainConfig(base_lr=1.2e-4, warmup_epochs=10, decay_factor=0.01, epochs=50)
    assert lr_at(0.0, cfg) == 0.0
    assert lr_at(10.0, cfg) == pytest.approx(1.2e-4)
    assert lr_at(50.0, cfg) == pytest.approx(1.2e-4 * 0.01)


def test_lr_is_continuous_and_piecewise_monotone():
    cfg = TrainConfig(base_lr=1e-3, warmup_epochs=5, decay_factor=0.01, epochs=20)
    ts = np.linspace(0, 20, 401)
    lrs = [lr_at(float(t), cfg) for t in ts]
    jumps = np.abs(np.diff(lrs))
    assert jumps.max() < 1e-3 * 0.05          # no discontinuities
    peak = int(np.argmax(lrs))
    assert all(np.diff(lrs[:peak + 1]) >= 0)
    assert all(np.diff(lrs[peak:]) <= 0)


def test_train_config_validation():
    with pytest.raises(ValueError):
        TrainConfig(decay_factor=0.0)
    with pytest.raises(ValueError):
        TrainConfig(warmup_epochs=60, epochs=50)
    with pytest.raises(ValueError):
        TrainConfig.from_dict({"learning_rate": 1e-3})


# ---------------------------------------------------------------------
# cross entropy
# ---------------------------------------------------------------------

def test_uniform_logits_loss_is_ln_k():
    k = 7
    logits = af.Tensor(np.zeros((1, k, 4, 4)))
    labels = np.random.default_rng(0).integers(0, k, (1, 4, 4))
    assert cross_entropy(logits, labels).item() == pytest.approx(np.log(k))


def test_all_ignored_pixels_give_zero_loss():
    logits = af.Tensor(np.random.default_rng(1).normal(size=(1, 3, 2, 2)))
    labels = np.full((1, 2, 2), 255)
    loss = cross_entropy(logits, labels)
    assert loss.item() == 0.0


def test_out_of_range_label_rejected():
    logits = af.Tensor(np.zeros((1, 3, 2, 2)))
    labels = np.full((1, 2, 2), 3)
    with pytest.raises(ValueError, match="class ids"):
        cross_entropy(logits, labels)


@pytest.mark.parametrize("shape", [(1, 8, 4), (2, 2, 8), (4, 8), (32,)])
def test_cross_entropy_refuses_labels_not_shaped_like_the_logits(shape):
    logits = af.Tensor(np.zeros((1, 3, 4, 8)))      # same size as every shape
    with pytest.raises(af.ShapeError, match=r"labels must be \[B, H, W\]"):
        cross_entropy(logits, np.zeros(shape, dtype=np.int64))


@pytest.mark.parametrize("seed", range(3))
def test_cross_entropy_gradient(seed):
    rng = np.random.default_rng(seed)
    logits = af.Tensor(rng.normal(size=(2, 4, 3, 3)), requires_grad=True)
    labels = rng.integers(0, 4, (2, 3, 3))
    labels[0, 0, :] = 255
    err = grad_check_params(lambda: cross_entropy(logits, labels), [logits])
    assert err < 1e-4


def test_ignored_pixels_get_zero_gradient():
    logits = af.Tensor(np.random.default_rng(2).normal(size=(1, 3, 2, 2)),
                       requires_grad=True)
    labels = np.array([[[0, 255], [255, 2]]])
    af.backward(cross_entropy(logits, labels))
    grad = logits.grad
    assert np.all(grad[0, :, 0, 1] == 0.0) and np.all(grad[0, :, 1, 0] == 0.0)
    assert np.any(grad[0, :, 0, 0] != 0.0)


# ---------------------------------------------------------------------
# metrics vs brute-force oracle
# ---------------------------------------------------------------------

def brute_force_metrics(preds, labels, k, ignore=255):
    """Per-class IoU via explicit pixel-set intersection/union."""
    ious = []
    for c in range(k):
        inter = union = 0
        for p, l in zip(preds, labels):
            keep = l != ignore
            pc, lc = (p == c) & keep, (l == c) & keep
            inter += int((pc & lc).sum())
            union += int((pc | lc).sum())
        ious.append(inter / union if union else None)
    present = [v for v in ious if v is not None]
    return ious, (sum(present) / len(present) if present else float("nan"))


@pytest.mark.parametrize("seed", range(5))
def test_confusion_matrix_matches_brute_force(seed):
    rng = np.random.default_rng(seed)
    k = 4
    preds = [rng.integers(0, k, (16, 16)) for _ in range(5)]
    labels = [rng.integers(0, k, (16, 16)) for _ in range(5)]
    labels[0][rng.random((16, 16)) < 0.2] = 255
    cm = ConfusionMatrix(k)
    for p, l in zip(preds, labels):
        cm.update(p, l)
    want_iou, want_miou = brute_force_metrics(preds, labels, k)
    got = cm.per_class_iou()
    for c in range(k):
        if want_iou[c] is None:
            assert np.isnan(got[c])
        else:
            assert got[c] == pytest.approx(want_iou[c], abs=1e-15)
    assert cm.miou() == pytest.approx(want_miou, abs=1e-15)


def test_perfect_prediction_gives_full_scores():
    rng = np.random.default_rng(3)
    label = rng.integers(0, 5, (10, 10))
    cm = ConfusionMatrix(5)
    cm.update(label, label)
    assert np.nanmin(cm.per_class_iou()) == 1.0
    assert cm.miou() == 1.0 and cm.pixel_accuracy() == 1.0


def test_half_misclassified_class_iou():
    # 2-class toy: half of class 1 predicted as class 0.
    label = np.array([1, 1, 1, 1, 0, 0])
    pred = np.array([1, 1, 0, 0, 0, 0])
    cm = ConfusionMatrix(2)
    cm.update(pred, label)
    want_iou, want_miou = brute_force_metrics([pred], [label], 2)
    assert cm.per_class_iou()[1] == pytest.approx(want_iou[1]) == pytest.approx(0.5)
    assert cm.miou() == pytest.approx(want_miou)


def test_ignored_pixels_never_enter_the_matrix():
    rng = np.random.default_rng(4)
    label = rng.integers(0, 3, (8, 8))
    label[:2] = 255
    pred = rng.integers(0, 3, (8, 8))
    flipped = pred.copy()
    flipped[:2] = (flipped[:2] + 1) % 3
    a, b = ConfusionMatrix(3), ConfusionMatrix(3)
    a.update(pred, label)
    b.update(flipped, label)
    assert np.array_equal(a.counts, b.counts)


@pytest.mark.parametrize("label_shape", [(8, 4), (32,), (2, 2, 8)])
def test_confusion_refuses_a_label_not_shaped_like_the_prediction(label_shape):
    pred = np.zeros((4, 8), dtype=np.int64)
    with pytest.raises(af.ShapeError, match="shapes differ"):
        ConfusionMatrix(2).update(pred, np.zeros(label_shape, dtype=np.int64))


@pytest.mark.parametrize("pred,label,name", [
    ([3, 3], [0, 1], "prediction"), ([-1], [1], "prediction"),
    ([0], [3], "label"), ([0], [-1], "label")])
def test_confusion_refuses_a_class_id_outside_its_classes(pred, label, name):
    cm = ConfusionMatrix(3)
    with pytest.raises(ValueError, match=f"{name} holds class ids outside 0..2"):
        cm.update(np.array(pred), np.array(label))
    assert not cm.counts.any()
    cm.update(np.array([7]), np.array([255]))      # an ignored pixel is never checked
    assert not cm.counts.any()


def test_absent_classes_excluded_from_mean():
    cm = ConfusionMatrix(4)
    cm.update(np.array([0, 1, 1]), np.array([0, 1, 0]))
    iou = cm.per_class_iou()
    assert np.isnan(iou[2]) and np.isnan(iou[3])
    assert cm.miou() == pytest.approx(np.nanmean(iou[:2]))


def test_format_metrics_csv_layout():
    metrics = {"miou": 0.5, "pixel_accuracy": 0.9,
               "per_class_iou": [1.0, None, 0.25], "num_classes": 3,
               "confusion": []}
    text, csv = format_metrics(metrics)
    lines = csv.strip().split("\n")
    assert lines[0] == "method,class_0,class_1,class_2,mIoU(%)"
    assert lines[1] == "adafuse,100.00,,25.00,50.00"
    assert '"miou_percent": 50.0' in text


# ---------------------------------------------------------------------
# optimizer and train_step
# ---------------------------------------------------------------------

def test_zero_lr_step_changes_nothing():
    model = tiny_model(seed=1)
    ds = tiny_dataset(n=4, seed=1)
    images, labels = stack_batch(ds.samples, model.config.modalities)
    opt = AdamW([p for _, p in model.trainable_parameters()], lr=0.0)
    before = {n: p.data.tobytes() for n, p in model.named_parameters()}
    train_step(model, images, labels, opt, lr=0.0)
    after = {n: p.data.tobytes() for n, p in model.named_parameters()}
    assert before == after


def test_adamw_step_is_bitwise_the_reference_formula():
    """In-place updates through scratch buffers give the bits of the
    out-of-place formula, for two dtypes, several shapes and a parameter
    with no gradient in some steps."""
    rng = np.random.default_rng(3)
    shapes = [((40, 30), np.float32), ((30,), np.float32),
              ((20, 4, 3), np.float64), ((60,), np.float64)]
    params = [af.Tensor(rng.normal(size=s).astype(dt), requires_grad=True) for s, dt in shapes]
    ref = [p.data.copy() for p in params]
    ref_m = [np.zeros_like(r) for r in ref]
    ref_v = [np.zeros_like(r) for r in ref]
    opt = AdamW(params, lr=1e-2, weight_decay=0.05)
    lr, b1, b2, eps, wd = 1e-2, opt.beta1, opt.beta2, opt.eps, opt.weight_decay
    for t in range(1, 6):
        lr = lr * 0.7
        bc1, bc2 = 1.0 - b1 ** t, 1.0 - b2 ** t
        for i, p in enumerate(params):
            if i == 1 and t % 2 == 0:
                p.grad = None
                continue
            g = rng.normal(size=p.shape).astype(p.dtype)
            p.grad = g
            x, m, v = ref[i], ref_m[i], ref_v[i]
            x -= lr * wd * x
            m *= b1
            m += (1.0 - b1) * g
            v *= b2
            v += (1.0 - b2) * (g * g)
            x -= lr * (m / bc1) / (np.sqrt(v / bc2) + eps)
        opt.lr = lr
        opt.step()
        for p, x in zip(params, ref):
            assert p.data.dtype == x.dtype and p.data.tobytes() == x.tobytes()


def test_encoders_frozen_through_training_steps():
    model = tiny_model(seed=2)
    ds = tiny_dataset(n=4, seed=2)
    images, labels = stack_batch(ds.samples, model.config.modalities)
    opt = AdamW([p for _, p in model.trainable_parameters()], lr=1e-3)
    frozen_before = {n: p.data.tobytes() for n, p in model.named_parameters()
                     if not p.requires_grad}
    train_before = {n: p.data.tobytes() for n, p in model.trainable_parameters()}
    for _ in range(10):
        train_step(model, images, labels, opt, lr=1e-3)
    frozen_after = {n: p.data.tobytes() for n, p in model.named_parameters()
                    if not p.requires_grad}
    assert frozen_before and frozen_before == frozen_after
    changed = sum(train_before[n] != p.data.tobytes()
                  for n, p in model.trainable_parameters())
    assert changed > 0


def test_loss_decreases_on_fixed_batch_in_9_of_10_seeds():
    wins = 0
    for seed in range(10):
        model = tiny_model(seed=seed, modalities=("vis",))
        ds = tiny_dataset(n=2, seed=seed)
        images, labels = stack_batch(ds.samples, model.config.modalities)
        opt = AdamW([p for _, p in model.trainable_parameters()], lr=1e-3)
        first = train_step(model, images, labels, opt, lr=1e-3)
        last = first
        for _ in range(49):
            last = train_step(model, images, labels, opt, lr=1e-3)
        wins += last < first
    assert wins >= 9


def test_non_finite_loss_aborts_with_diagnostic():
    model = tiny_model(seed=3)
    model.decoder.cls_w.data[...] = np.inf
    ds = tiny_dataset(n=2, seed=3)
    images, labels = stack_batch(ds.samples, model.config.modalities)
    opt = AdamW([p for _, p in model.trainable_parameters()], lr=1e-3)
    with np.errstate(invalid="ignore"), pytest.raises(TrainingError, match="non-finite"):
        train_step(model, images, labels, opt, lr=1e-3)


def test_non_finite_loss_frees_the_graph():
    model = tiny_model(seed=3)
    model.decoder.cls_w.data[...] = np.inf
    ds = tiny_dataset(n=2, seed=3)
    images, labels = stack_batch(ds.samples, model.config.modalities)
    opt = AdamW([p for _, p in model.trainable_parameters()], lr=1e-3)
    with np.errstate(invalid="ignore"), pytest.raises(TrainingError):
        train_step(model, images, labels, opt, lr=1e-3)
    assert len(af.active_tape()) == 0


def test_grads_cleared_after_step():
    model = tiny_model(seed=4)
    ds = tiny_dataset(n=2, seed=4)
    images, labels = stack_batch(ds.samples, model.config.modalities)
    opt = AdamW([p for _, p in model.trainable_parameters()], lr=1e-3)
    train_step(model, images, labels, opt, lr=1e-3)
    assert all(p.grad is None for _, p in model.trainable_parameters())


def test_step_graph_is_freed_without_the_cycle_collector():
    model = tiny_model(seed=4)
    ds = tiny_dataset(n=2, seed=4)
    images, labels = stack_batch(ds.samples, model.config.modalities)
    opt = AdamW([p for _, p in model.trainable_parameters()], lr=1e-3)
    gc.collect()
    gc.disable()
    try:
        train_step(model, images, labels, opt, lr=1e-3)
        gc.set_debug(gc.DEBUG_SAVEALL)
        gc.collect()
        leaked = sum(isinstance(o, (af.Tensor, af.tensor.Node)) for o in gc.garbage)
    finally:
        gc.set_debug(0)
        gc.garbage.clear()
        gc.enable()
    assert leaked == 0


def test_clearing_one_threads_tape_leaves_another_threads_graph():
    model = tiny_model(seed=7)
    images, labels = stack_batch(tiny_dataset(n=2, seed=7).samples, model.config.modalities)
    built, cleared = threading.Event(), threading.Event()
    has_grad = []

    def worker():
        loss = cross_entropy(model.logits_at(images, 32, 32, train=True), labels)
        built.set()
        assert cleared.wait(timeout=30)
        af.backward(loss)
        has_grad.extend(p.grad is not None for _, p in model.trainable_parameters())

    t = threading.Thread(target=worker)
    t.start()
    try:
        assert built.wait(timeout=60)
        af.active_tape().clear()
    finally:
        cleared.set()
        t.join(timeout=60)
    assert not t.is_alive()
    assert len(has_grad) == len(model.trainable_parameters()) and all(has_grad)


def test_fits_in_two_threads_equal_the_same_fits_in_sequence():
    ds = tiny_dataset(n=4, seed=8)
    cfg = TrainConfig(epochs=2, batch_size=2, warmup_epochs=1, seed=8)

    def trained(seed):
        model = tiny_model(seed=seed)
        fit(model, ds, cfg)
        return b"".join(p.data.tobytes() for _, p in model.named_parameters())

    sequential = [trained(1), trained(2)]
    concurrent = [None, None]
    start = threading.Barrier(2, timeout=60)

    def run(i):
        start.wait()
        concurrent[i] = trained(i + 1)

    threads = [threading.Thread(target=run, args=(i,)) for i in range(2)]
    for t in threads:
        t.start()
    for t in threads:
        t.join(timeout=300)
    assert not any(t.is_alive() for t in threads)
    assert concurrent == sequential


def test_fit_rejects_empty_dataset():
    model = tiny_model(seed=5)
    empty = SceneDataset([], 5, 32, 32, [("vis", 1), ("ir", 1)], 0)
    with pytest.raises(ValueError, match="empty"):
        fit(model, empty, TrainConfig(epochs=1, warmup_epochs=0))


def test_identical_config_and_seed_give_bit_identical_metrics():
    ds = tiny_dataset(n=6, seed=6)
    results = []
    for _ in range(2):
        model = tiny_model(seed=6)
        cfg = TrainConfig(base_lr=1e-3, warmup_epochs=1, epochs=2, batch_size=4,
                          seed=6)
        fit(model, ds, cfg)
        results.append(evaluate(model, ds))
    assert results[0]["miou"] == results[1]["miou"]
    assert results[0]["confusion"] == results[1]["confusion"]


_FIT_DIGEST = """
import hashlib
import adafuse as af
ds = af.generate_synthetic(16, 32, 32, 5, 2, seed=4)
model = af.FusionModel(af.ModelConfig(preset="tiny", bottleneck=4, dtype="float32",
                                      seed=5))
af.fit(model, ds, af.TrainConfig(base_lr=1e-3, warmup_epochs=1, epochs=2,
                                 batch_size=8, seed=5))
digest = hashlib.sha256()
for _, p in model.named_parameters():
    digest.update(p.data.tobytes())
print(digest.hexdigest())
"""


def test_training_bits_do_not_depend_on_the_string_hash_seed():
    """Two processes with different ``PYTHONHASHSEED`` train the same bits."""
    src = str(Path(af.__file__).resolve().parents[1])
    path = os.pathsep.join(filter(None, [src, os.environ.get("PYTHONPATH")]))
    digests = []
    for hash_seed in ("1", "3"):
        env = dict(os.environ, PYTHONHASHSEED=hash_seed, PYTHONPATH=path)
        done = subprocess.run([sys.executable, "-c", _FIT_DIGEST], env=env,
                              capture_output=True, text=True, timeout=300, check=True)
        digests.append(done.stdout.strip())
    assert len(digests[0]) == 64 and digests[0] == digests[1]


# ---------------------------------------------------------------------
# frozen-prefix feature cache in fit
# ---------------------------------------------------------------------

def staged_model(modalities, stages, seed=11, **extra):
    cfg = af.ModelConfig(preset="tiny", modalities=modalities,
                         channels=(1,) * len(modalities), active_stages=stages,
                         bottleneck=4, num_classes=5, dtype="float32", seed=seed,
                         **extra)
    return af.FusionModel(cfg)


def reference_fit(model, dataset, cfg):
    """``fit`` without the cache: ``train_step`` on raw stacked images."""
    opt = AdamW([p for _, p in model.trainable_parameters()], lr=cfg.base_lr)
    steps = math.ceil(len(dataset) / cfg.batch_size)
    for epoch in range(cfg.epochs):
        for step, batch in enumerate(batch_iter(dataset, cfg.batch_size,
                                                shuffle_seed=cfg.seed, epoch=epoch)):
            images, labels = stack_batch(batch, model.config.modalities)
            train_step(model, images, labels, opt, lr_at(epoch + step / steps, cfg),
                       dataset.ignore_index)


@pytest.mark.parametrize("modalities,stages,frozen", [
    (("vis",), (1, 2, 3, 4), 4),
    (("vis", "ir"), (2, 3, 4), 1),
    (("vis", "ir"), (1, 2, 3, 4), 0),
])
def test_fit_matches_uncached_reference_bitwise(modalities, stages, frozen):
    ds = tiny_dataset(n=7, seed=11)
    cfg = TrainConfig(base_lr=1e-2, warmup_epochs=1, epochs=3, batch_size=3, seed=11)
    cached, plain = staged_model(modalities, stages), staged_model(modalities, stages)
    assert cached.frozen_stages() == frozen
    fit(cached, ds, cfg)
    reference_fit(plain, ds, cfg)
    for (name, a), (_, b) in zip(cached.named_parameters(), plain.named_parameters()):
        assert a.data.tobytes() == b.data.tobytes(), name


def test_frozen_stage_count():
    assert staged_model(("vis",), (1, 2, 3, 4)).frozen_stages() == 4
    assert staged_model(("vis", "ir"), (3, 4)).frozen_stages() == 2
    assert staged_model(("vis", "ir"), (4, 3, 3)).frozen_stages() == 2
    assert staged_model(("vis", "ir"), (1, 2, 3, 4)).frozen_stages() == 0
    assert staged_model(("vis",), (1, 2, 3, 4), drop_path_rate=0.1).frozen_stages() == 0
    model = staged_model(("vis", "ir"), (3, 4))
    model.encoders[1].set_trainable(True)
    assert model.frozen_stages() == 0


@pytest.mark.parametrize("preset,modalities,stages,ffm,nodes", [
    ("tiny", ("vis", "ir"), (1, 2, 3, 4), False, 488),
    ("tiny", ("vis",), (1, 2, 3, 4), False, 30),
    ("b2-like", ("vis", "ir"), (3, 4), True, 554),
], ids=["fused-tiny", "single-tiny", "b2-stages34-ffm"])
def test_recorded_graph_size_is_pinned(preset, modalities, stages, ffm, nodes):
    """Tape nodes of one training forward plus loss at batch 2, with the
    frozen prefix cached as ``fit`` does: the per-step node counts that
    the benchmark's traced runs report for its three training workloads."""
    model = af.FusionModel(af.ModelConfig(preset=preset, modalities=modalities,
                                          channels=(1,) * len(modalities),
                                          active_stages=stages, use_ffm=ffm,
                                          dtype="float32"))
    batch = tiny_dataset(n=2, seed=13).samples
    images, labels = stack_batch(batch, modalities)
    frozen = model.frozen_stages()
    if frozen:
        images = training._frozen_features(model, frozen, {}, [0, 1], images)
    tape = af.active_tape()
    tape.clear()
    try:
        cross_entropy(model.logits_at(images, 32, 32, train=True), labels)
        assert len(tape) == nodes
    finally:
        tape.clear()


def test_no_backward_rule_passes_a_subnormal_gradient_on(monkeypatch):
    """Subnormal operands put BLAS and numpy on the CPU's slow path. Run
    the ``stages-3-4-ffm-f32`` fit of ``tools/fit_digests.py``, where GELU's
    rule once returned thousands, and check every gradient a rule returns
    for a recorded op's output, which the next rule's GEMMs read. A
    parameter's gradient reaches only AdamW, so it is not checked."""
    make = tensor._make
    subnormals = {}

    def checked_make(out_data, inputs, backward_fn):
        recorded = [t.node is not None for t in inputs]

        def checked(g):
            grads = backward_fn(g)
            name = backward_fn.__qualname__.split(".")[0]
            for grad, is_recorded in zip(grads, recorded):
                if grad is not None and is_recorded:
                    tiny = np.finfo(grad.dtype).tiny
                    count = int(((grad != 0) & (np.abs(grad) < tiny)).sum())
                    subnormals[name] = subnormals.get(name, 0) + count
            return grads
        return make(out_data, inputs, checked)

    monkeypatch.setattr(tensor, "_make", checked_make)
    model = af.FusionModel(af.ModelConfig(active_stages=(3, 4), use_ffm=True,
                                          dtype="float32"))
    fit(model, generate_synthetic(48, 32, 32, num_classes=5, num_modalities=2, seed=0),
        TrainConfig(base_lr=1e-2, warmup_epochs=0.0, epochs=3, batch_size=8))
    assert "gelu" in subnormals
    assert not {name: count for name, count in subnormals.items() if count}


def test_fit_encodes_each_sample_prefix_once(monkeypatch):
    model = staged_model(("vis", "ir"), (3, 4))
    ds = tiny_dataset(n=7, seed=12)
    first_embed = model.encoders[0].stages[0].patch
    original = PatchEmbed.__call__
    seen = []

    def counting(self, x):
        if self is first_embed:
            seen.extend(row.tobytes() for row in x.data)
        return original(self, x)

    monkeypatch.setattr(PatchEmbed, "__call__", counting)
    fit(model, ds, TrainConfig(base_lr=1e-2, warmup_epochs=0, epochs=3, batch_size=3,
                               seed=12))
    expected = [s.images["vis"].astype(np.float32).tobytes() for s in ds.samples]
    assert sorted(seen) == sorted(expected)


def test_fit_calls_train_step_as_the_benchmark_hook_expects(monkeypatch):
    """The benchmark swaps ``training.train_step`` for a timing wrapper
    and calls the original with six positional arguments. Every step must
    reach the wrapper, and with the whole encoder cached none of the
    encoder's modules may run inside it."""
    model = staged_model(("vis",), (1, 2, 3, 4))
    ds = tiny_dataset(n=7, seed=13)
    cfg = TrainConfig(base_lr=1e-2, warmup_epochs=0, epochs=3, batch_size=3, seed=13)
    runs = {"encoder": 0}
    for owner, attr in ((PatchEmbed, "__call__"),
                        (TransformerBlock, "__call__"),
                        (Encoder, "stage_norm")):
        def counted(*args, _original=getattr(owner, attr), **kwargs):
            runs["encoder"] += 1
            return _original(*args, **kwargs)
        monkeypatch.setattr(owner, attr, counted)
    step_fn = training.train_step
    calls = []

    def wrapper(*args, **kwargs):
        before = runs["encoder"]
        m, images, labels, optimizer, lr, ignore_index = args
        loss = step_fn(m, images, labels, optimizer, lr, ignore_index)
        calls.append((len(args), kwargs, runs["encoder"] - before))
        return loss

    monkeypatch.setattr(training, "train_step", wrapper)
    fit(model, ds, cfg)
    assert len(calls) == cfg.epochs * math.ceil(len(ds) / cfg.batch_size)
    assert all(c == (6, {}, 0) for c in calls)
    assert runs["encoder"] > 0          # the prefix ran, outside the steps


# ---------------------------------------------------------------------
# checkpoints
# ---------------------------------------------------------------------

def test_checkpoint_roundtrip_bit_identical_metrics(tmp_path):
    model = tiny_model(seed=7)
    ds = tiny_dataset(n=4, seed=7)
    fit(model, ds, TrainConfig(base_lr=1e-3, warmup_epochs=0, epochs=1,
                               batch_size=4, seed=7))
    before = evaluate(model, ds)
    save_checkpoint(model, tmp_path / "ckpt")
    restored = load_checkpoint(tmp_path / "ckpt")
    after = evaluate(restored, ds)
    assert before["miou"] == after["miou"]
    assert before["confusion"] == after["confusion"]
    for (na, pa), (nb, pb) in zip(model.named_parameters(),
                                  restored.named_parameters()):
        assert na == nb and pa.data.tobytes() == pb.data.tobytes()


def test_checkpoint_missing_blob_fails(tmp_path):
    model = tiny_model(seed=11)
    root = save_checkpoint(model, tmp_path / "ckpt")
    next(root.glob("p000*.bin")).unlink()
    with pytest.raises(StoreError, match="missing blob"):
        load_checkpoint(root)


def test_truncated_checkpoint_blob_fails(tmp_path):
    root = save_checkpoint(tiny_model(seed=12), tmp_path / "ckpt")
    blob = root / "p00000.bin"
    blob.write_bytes(blob.read_bytes()[:-4])
    with pytest.raises(StoreError, match="bytes"):
        load_checkpoint(root)


def test_interrupted_checkpoint_save_leaves_no_manifest(tmp_path, fail_writes_after):
    root = save_checkpoint(tiny_model(seed=14), tmp_path / "ckpt")
    fail_writes_after(64)
    with pytest.raises(OSError):
        save_checkpoint(tiny_model(seed=15), root)
    with pytest.raises(StoreError, match="no manifest.json"):
        load_checkpoint(root)


def test_smaller_save_over_a_checkpoint_removes_stale_blobs(tmp_path):
    root = save_checkpoint(tiny_model(seed=16), tmp_path / "ckpt")
    fused_files = len(list(root.iterdir()))
    save_checkpoint(tiny_model(seed=16, modalities=("vis",)), root)
    named = {rec["path"] for rec in json.loads((root / "manifest.json").read_text())["params"]}
    assert len(named) + 1 < fused_files
    assert {p.name for p in root.iterdir()} == named | {"manifest.json"}
    assert load_checkpoint(root).config.modalities == ("vis",)


def test_a_checkpoint_save_over_a_dataset_is_refused_and_leaves_it_whole(tmp_path):
    root = af.save_dataset(tiny_dataset(n=2), tmp_path / "ds")
    before = {p.name: p.read_bytes() for p in root.iterdir()}
    with pytest.raises(StoreError, match="holds a 'dataset' store"):
        save_checkpoint(tiny_model(), root)
    assert {p.name: p.read_bytes() for p in root.iterdir()} == before
    assert len(af.load_dataset(root)) == 2


def test_a_checkpoint_record_of_another_shape_is_refused_before_its_blob_is_read(
        tmp_path, blob_reads):
    root = save_checkpoint(tiny_model(seed=18), tmp_path / "ckpt")
    manifest = json.loads((root / "manifest.json").read_text())
    rec = next(r for r in reversed(manifest["params"]) if len(r["shape"]) > 1)
    rec["shape"] = [math.prod(rec["shape"])]          # the same byte count, flattened
    (root / "manifest.json").write_text(json.dumps(manifest))
    with pytest.raises(StoreError, match=f"'name': '{rec['name']}'"):
        load_checkpoint(root)
    assert blob_reads[manifest["params"][0]["path"]] == 1 and blob_reads[rec["path"]] == 0


def test_checkpoint_blob_outside_its_directory_rejected(tmp_path):
    root = save_checkpoint(tiny_model(seed=13), tmp_path / "ckpt")
    (root / "p00000.bin").rename(tmp_path / "p00000.bin")
    manifest = json.loads((root / "manifest.json").read_text())
    manifest["params"][0]["path"] = "../p00000.bin"
    (root / "manifest.json").write_text(json.dumps(manifest))
    with pytest.raises(StoreError, match="relative"):
        load_checkpoint(root)
