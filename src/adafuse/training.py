"""Frozen-backbone training loop, schedule, loss, metrics, checkpoints."""

from __future__ import annotations

import json
import math
from dataclasses import dataclass
from pathlib import Path
from typing import Callable, Optional, Sequence

import numpy as np

from .data import (IGNORE_INDEX, SceneDataset, StoreError, batch_iter, manifest_fields,
                   read_blob, read_manifest, stack_batch, write_store)
from .model import ConfigCodec, FusionModel, ModelConfig
from .tensor import (Tensor, ShapeError, active_tape, backward, log_softmax, mul, no_grad,
                     reshape, transpose, tsum)


class TrainingError(RuntimeError):
    pass


@dataclass
class TrainConfig(ConfigCodec):
    section = "train"

    base_lr: float = 6e-5            # FMB-style preset uses 1.2e-4
    warmup_epochs: float = 10.0
    decay_factor: float = 0.01
    epochs: int = 50
    batch_size: int = 8
    seed: int = 0

    def __post_init__(self):
        self.check_finite()
        if not 0.0 < self.decay_factor <= 1.0:
            raise ValueError("decay_factor must be in (0, 1]")
        if self.warmup_epochs > self.epochs:
            raise ValueError("warmup_epochs cannot exceed epochs")
        if self.batch_size < 1 or self.epochs < 1:
            raise ValueError("epochs and batch_size must be >= 1")
        if not (self.base_lr >= 0.0 and self.warmup_epochs >= 0.0 and self.seed >= 0):
            raise ValueError("base_lr, warmup_epochs and seed must be >= 0")


def lr_at(t: float, cfg: TrainConfig) -> float:
    """Learning rate at epoch-fraction ``t``: linear ramp 0 -> base over
    the warmup epochs, then linear decay to base * decay_factor at the
    final epoch."""
    if t < 0:
        raise ValueError("epoch fraction must be >= 0")
    if cfg.warmup_epochs > 0 and t < cfg.warmup_epochs:
        return cfg.base_lr * t / cfg.warmup_epochs
    span = cfg.epochs - cfg.warmup_epochs
    if span <= 0:
        return cfg.base_lr
    frac = min((t - cfg.warmup_epochs) / span, 1.0)
    return cfg.base_lr * (1.0 - frac * (1.0 - cfg.decay_factor))


def cross_entropy(logits: Tensor, labels: np.ndarray,
                  ignore_index: int = IGNORE_INDEX) -> Tensor:
    """Mean over non-ignored pixels of -log softmax(logits)[label].

    ``logits`` is [B, K, H, W]; ``labels`` must be [B, H, W].
    All-ignored input yields a constant 0.
    """
    b, k, h, w = logits.shape
    labels = np.asarray(labels)
    if labels.shape != (b, h, w):
        raise ShapeError(f"labels must be [B, H, W] = {(b, h, w)}, got {labels.shape}")
    flat_labels = labels.reshape(-1)
    valid = flat_labels != ignore_index
    bad = valid & ((flat_labels < 0) | (flat_labels >= k))
    if bad.any():
        raise ValueError(f"labels contain class ids outside 0..{k - 1} "
                         f"(ignore={ignore_index})")
    n_valid = int(valid.sum())
    if n_valid == 0:
        return Tensor(np.zeros((), dtype=logits.dtype))
    flat = reshape(transpose(logits, (0, 2, 3, 1)), (-1, k))
    logp = log_softmax(flat)
    pick = np.zeros((flat_labels.size, k), dtype=logits.dtype)
    pick[valid, flat_labels[valid]] = 1.0 / n_valid
    return mul(tsum(mul(logp, Tensor(pick))), -1.0)


class AdamW:
    """Adaptive moments with decoupled weight decay. The keyword defaults
    are the constants ``fit`` trains with; no config overrides them.

    ``step`` updates parameters and moments in place, through two
    scratch buffers per dtype the size of the largest parameter."""

    def __init__(self, params: Sequence[Tensor], lr: float, beta1: float = 0.9,
                 beta2: float = 0.999, eps: float = 1e-8, weight_decay: float = 0.01):
        self.params = [p for p in params if p.requires_grad]
        self.lr = lr
        self.beta1, self.beta2 = beta1, beta2
        self.eps = eps
        self.weight_decay = weight_decay
        self.t = 0
        self._m = [np.zeros_like(p.data) for p in self.params]
        self._v = [np.zeros_like(p.data) for p in self.params]
        sizes: dict[np.dtype, int] = {}
        for p in self.params:
            sizes[p.dtype] = max(sizes.get(p.dtype, 0), p.size)
        self._scratch = {dt: (np.empty(n, dt), np.empty(n, dt)) for dt, n in sizes.items()}

    def zero_grad(self) -> None:
        for p in self.params:
            p.grad = None

    def step(self) -> None:
        """p -= lr*wd*p; m = b1*m + (1-b1)*g; v = b2*v + (1-b2)*g*g;
        p -= lr*(m/bc1) / (sqrt(v/bc2) + eps), op for op in that order."""
        self.t += 1
        bc1 = 1.0 - self.beta1 ** self.t
        bc2 = 1.0 - self.beta2 ** self.t
        for p, m, v in zip(self.params, self._m, self._v):
            if p.grad is None:
                continue
            g, x = p.grad, p.data
            a, b = (buf[:x.size].reshape(x.shape) for buf in self._scratch[x.dtype])
            x -= np.multiply(x, self.lr * self.weight_decay, out=a)
            m *= self.beta1
            m += np.multiply(g, 1.0 - self.beta1, out=a)
            v *= self.beta2
            v += np.multiply(np.multiply(g, g, out=a), 1.0 - self.beta2, out=a)
            np.multiply(np.divide(m, bc1, out=a), self.lr, out=a)
            np.add(np.sqrt(np.divide(v, bc2, out=b), out=b), self.eps, out=b)
            x -= np.divide(a, b, out=a)


def train_step(model: FusionModel, images: dict, labels: np.ndarray,
               optimizer: AdamW, lr: float,
               ignore_index: int = IGNORE_INDEX) -> float:
    """One forward/backward/update on the trainable parameters only.

    ``images`` may carry cached leading encoder stages in place of a
    modality's image (see ``FusionModel.encode``). The step records its
    graph on the calling thread's tape and clears that tape once, after
    backward or an abort, so steps in other threads keep their graphs."""
    try:
        h, w = labels.shape[-2], labels.shape[-1]
        logits = model.logits_at(images, h, w, train=True)
        loss = cross_entropy(logits, labels, ignore_index)
        value = loss.item()
        if not math.isfinite(value):
            raise TrainingError(f"non-finite loss {value!r} at optimizer step "
                                f"{optimizer.t + 1}")
        backward(loss)
        optimizer.lr = lr
        optimizer.step()
        optimizer.zero_grad()
        return value
    finally:
        active_tape().clear()


def _frozen_features(model: FusionModel, stages: int, cache: dict,
                     keys: list[int], images: dict) -> dict:
    """The batch's first ``stages`` encoder maps per modality, stacked
    from ``cache`` (sample key -> per-modality lists of per-sample maps).
    Samples not cached yet are encoded first, without a graph."""
    missing = [j for j, k in enumerate(keys) if k not in cache]
    if missing:
        with no_grad():
            pyramids = model.encode({name: img[missing] for name, img in images.items()},
                                    stages=stages)
        for row, j in enumerate(missing):
            cache[keys[j]] = [[f.data[row] for f in pyramid] for pyramid in pyramids]
    return {name: [np.stack([cache[k][m][s] for k in keys]) for s in range(stages)]
            for m, name in enumerate(model.config.modalities)}


def fit(model: FusionModel, dataset: SceneDataset, cfg: TrainConfig,
        log: Optional[Callable[[dict], None]] = None) -> list[dict]:
    """Train for ``cfg.epochs`` epochs; returns per-epoch history.

    The model's frozen leading encoder stages (``frozen_stages``) are
    computed once per sample, outside ``train_step``, and reused by every
    later epoch of this call."""
    if len(dataset) == 0:
        raise ValueError("cannot train on an empty dataset")
    optimizer = AdamW([p for _, p in model.trainable_parameters()], lr=cfg.base_lr)
    steps_per_epoch = math.ceil(len(dataset) / cfg.batch_size)
    frozen = model.frozen_stages()
    # keyed by id(sample): the dataset holds every sample for the whole call
    cache: dict[int, list] = {}
    history = []
    for epoch in range(cfg.epochs):
        losses = []
        for step, batch in enumerate(batch_iter(dataset, cfg.batch_size,
                                                shuffle_seed=cfg.seed, epoch=epoch)):
            images, labels = stack_batch(batch, model.config.modalities)
            if frozen:
                images = _frozen_features(model, frozen, cache,
                                          [id(s) for s in batch], images)
            lr = lr_at(epoch + step / steps_per_epoch, cfg)
            losses.append(train_step(model, images, labels, optimizer, lr,
                                     dataset.ignore_index))
        entry = {"epoch": epoch, "mean_loss": float(np.mean(losses)),
                 "lr": lr_at(min(epoch + 1.0, float(cfg.epochs)), cfg)}
        history.append(entry)
        if log is not None:
            log(entry)
    return history


# ---------------------------------------------------------------------
# metrics
# ---------------------------------------------------------------------

class ConfusionMatrix:
    """num_classes x num_classes pixel counts; ignored pixels excluded."""

    def __init__(self, num_classes: int, ignore_index: int = IGNORE_INDEX):
        self.num_classes = num_classes
        self.ignore_index = ignore_index
        self.counts = np.zeros((num_classes, num_classes), dtype=np.int64)

    def update(self, prediction: np.ndarray, label: np.ndarray) -> None:
        prediction, label = np.asarray(prediction), np.asarray(label)
        if prediction.shape != label.shape:
            raise ShapeError(f"prediction {prediction.shape} and label {label.shape} "
                             "shapes differ")
        prediction = prediction.reshape(-1)
        label = label.reshape(-1).astype(np.int64)
        keep = label != self.ignore_index
        label, prediction = label[keep], prediction[keep]
        for name, ids in (("label", label), ("prediction", prediction)):
            if ids.size and (ids.min() < 0 or ids.max() >= self.num_classes):
                raise ValueError(f"{name} holds class ids outside 0..{self.num_classes - 1}")
        idx = label * self.num_classes + prediction
        self.counts += np.bincount(idx, minlength=self.num_classes ** 2) \
            .reshape(self.num_classes, self.num_classes)

    def per_class_iou(self) -> np.ndarray:
        """IoU per class; NaN where a class is absent from both ground
        truth and prediction."""
        tp = np.diag(self.counts).astype(np.float64)
        union = self.counts.sum(axis=0) + self.counts.sum(axis=1) - tp
        iou = np.full(self.num_classes, np.nan)
        present = union > 0
        iou[present] = tp[present] / union[present]
        return iou

    def miou(self) -> float:
        iou = self.per_class_iou()
        if np.isnan(iou).all():
            return float("nan")
        return float(np.nanmean(iou))

    def pixel_accuracy(self) -> float:
        total = self.counts.sum()
        return float(np.diag(self.counts).sum() / total) if total else float("nan")


def evaluate(model: FusionModel, dataset: SceneDataset, batch_size: int = 8) -> dict:
    """Confusion-matrix metrics over the dataset at label resolution."""
    cm = ConfusionMatrix(dataset.num_classes, dataset.ignore_index)
    with no_grad():
        for batch in batch_iter(dataset, batch_size):
            images, labels = stack_batch(batch, model.config.modalities)
            h, w = labels.shape[-2], labels.shape[-1]
            logits = model.logits_at(images, h, w, train=False)
            pred = np.argmax(logits.data, axis=1)
            cm.update(pred, labels)
    iou = cm.per_class_iou()
    return {
        "miou": cm.miou(),
        "pixel_accuracy": cm.pixel_accuracy(),
        "per_class_iou": [None if np.isnan(v) else float(v) for v in iou],
        "num_classes": dataset.num_classes,
        "confusion": cm.counts.tolist(),
    }


def format_metrics(metrics: dict) -> tuple[str, str]:
    """(JSON record, per-class CSV row of method ``adafuse`` in the appendix-table layout)."""
    record = dict(metrics)
    record["miou_percent"] = None if math.isnan(metrics["miou"]) \
        else round(metrics["miou"] * 100.0, 2)
    text = json.dumps(record, indent=1)
    k = metrics["num_classes"]
    header = ["method"] + [f"class_{c}" for c in range(k)] + ["mIoU(%)"]
    cells = ["adafuse"]
    for v in metrics["per_class_iou"]:
        cells.append("" if v is None else f"{v * 100.0:.2f}")
    cells.append("" if record["miou_percent"] is None else f"{record['miou_percent']:.2f}")
    csv = ",".join(header) + "\n" + ",".join(cells) + "\n"
    return text, csv


# ---------------------------------------------------------------------
# checkpoints
# ---------------------------------------------------------------------

def save_checkpoint(model: FusionModel, directory) -> Path:
    """Serialize configs + parameter buffers (bit-exact blobs)."""
    named = list(model.named_parameters())
    blob_dtype = model.config.np_dtype().str
    records = [{"name": name, "path": f"p{i:05d}.bin", "shape": list(p.shape)}
               for i, (name, p) in enumerate(named)]
    blobs = [(rec["path"], p.data.astype(blob_dtype, copy=False))
             for rec, (_, p) in zip(records, named)]
    return write_store(directory, "checkpoint", {"model_config": model.config.to_dict(),
                                                 "blob_dtype": blob_dtype,
                                                 "params": records}, blobs)


def load_checkpoint(directory) -> FusionModel:
    """Rebuild the model from a checkpoint directory, whose records must
    name each of its parameters once, with its shape; any violation
    raises ``StoreError``."""
    manifest = read_manifest(directory, "checkpoint")
    root = Path(directory)
    with manifest_fields():
        model = FusionModel(ModelConfig.from_dict(manifest["model_config"]))
        lookup = dict(model.named_parameters())
        dtype = manifest["blob_dtype"]
        if dtype != model.config.np_dtype().str:
            raise StoreError(f"unsupported blob dtype {dtype!r} for a "
                             f"{model.config.dtype} model")
        for rec in manifest["params"]:
            name = rec["name"]
            if name not in lookup:
                raise StoreError(f"checkpoint parameter {name!r} has no "
                                 f"counterpart in the model")
            p = lookup.pop(name)
            p.data[...] = read_blob(root, rec, dtype, p.shape)
    if lookup:
        raise StoreError(f"checkpoint omits {len(lookup)} parameters "
                         f"(first: {next(iter(lookup))!r})")
    return model
