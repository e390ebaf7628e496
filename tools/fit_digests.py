"""Print a sha256 of seven short training runs and of one saved checkpoint.

Two source trees that compute the same bits print the same lines, so
this is the check that a change leaves the trained numbers alone. Run
each tree's ``src`` in turn and compare the outputs:

    PYTHONPATH=/path/to/old/src python3 tools/fit_digests.py > old.txt
    PYTHONPATH=src python3 tools/fit_digests.py > new.txt
    diff old.txt new.txt

Every run trains the ``tiny`` preset on the same 48 synthetic vis+ir
scenes (32x32, 5 classes) for 3 epochs at batch 8 and lr 1e-2, with one
BLAS thread; between them the runs use all three adapter densities. A
run's digest covers its parameters (names and bytes), its epoch losses
and the eval logits of the dataset's first batch. The logits are
included because after 3 epochs every run predicts background only, so
a confusion matrix would not tell them apart. The last line hashes the
first run's checkpoint directory: the manifest and every blob, sorted
by file name.
"""

import os

for _var in ("OPENBLAS_NUM_THREADS", "OMP_NUM_THREADS", "MKL_NUM_THREADS"):
    os.environ[_var] = "1"          # before numpy loads its BLAS

import hashlib
import tempfile
from pathlib import Path

import numpy as np

from adafuse import (FusionModel, ModelConfig, TrainConfig, fit, generate_synthetic,
                     no_grad, save_checkpoint, stack_batch)

RUNS = {
    "fused-all-stages-f32": dict(dtype="float32"),
    "stages-3-4-ffm-f32": dict(active_stages=(3, 4), use_ffm=True, dtype="float32"),
    "drop-path-0.2-stages-2-4-f32": dict(active_stages=(2, 3, 4), drop_path_rate=0.2,
                                         dtype="float32"),
    "vis-only-f32": dict(modalities=("vis",), channels=(1,), dtype="float32"),
    "stages-2-3-f64": dict(active_stages=(2, 3), dtype="float64"),
    "shared-f32": dict(density="shared", dtype="float32"),
    "pair-uni-f32": dict(density="pair-uni", dtype="float32"),
}


def run_digest(model: FusionModel, history: list, images: dict) -> str:
    digest = hashlib.sha256()
    for name, p in model.named_parameters():
        digest.update(name.encode())
        digest.update(p.data.tobytes())
    digest.update(np.array([h["mean_loss"] for h in history], dtype=np.float64).tobytes())
    with no_grad():
        digest.update(model.logits_at(images, 32, 32, train=False).data.tobytes())
    return digest.hexdigest()


def directory_digest(directory: Path) -> str:
    digest = hashlib.sha256()
    for path in sorted(directory.iterdir()):
        digest.update(path.name.encode())
        digest.update(path.read_bytes())
    return digest.hexdigest()


def main() -> None:
    dataset = generate_synthetic(48, 32, 32, num_classes=5, num_modalities=2, seed=0)
    train = TrainConfig(base_lr=1e-2, warmup_epochs=0.0, epochs=3, batch_size=8)
    models = []
    for name, fields in RUNS.items():
        model = FusionModel(ModelConfig(**fields))
        history = fit(model, dataset, train)
        images, _ = stack_batch(dataset.samples[:8], model.config.modalities)
        print(name, run_digest(model, history, images), flush=True)
        models.append(model)
    with tempfile.TemporaryDirectory() as tmp:
        print("checkpoint", directory_digest(save_checkpoint(models[0], Path(tmp) / "ckpt")))


if __name__ == "__main__":
    main()
