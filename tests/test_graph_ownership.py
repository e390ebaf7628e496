"""Graph ownership: only ``train_step`` and ``grad_check_params`` record a
graph, each frees it before returning, and every other public entry
point returns with the calling thread's tape as empty as it found it."""

import numpy as np
import pytest

import adafuse as af
from adafuse import cli
from adafuse.data import generate_synthetic, load_dataset, save_dataset, stack_batch
from adafuse.training import (AdamW, TrainConfig, TrainingError, evaluate, fit,
                              load_checkpoint, save_checkpoint, train_step)
from adafuse.verification import check_density_equivalence


def tiny_model():
    return af.FusionModel(af.ModelConfig(preset="tiny", modalities=("vis", "ir"),
                                         channels=(1, 1), active_stages=(3, 4),
                                         bottleneck=2, num_classes=5, dtype="float32"))


def tiny_dataset():
    return generate_synthetic(4, 32, 32, 5, 2, seed=0)


def step(loss_is_finite):
    def run(tmp_path):
        model = tiny_model()
        if not loss_is_finite:
            model.decoder.cls_w.data[...] = np.inf
        images, labels = stack_batch(tiny_dataset().samples, model.config.modalities)
        opt = AdamW([p for _, p in model.trainable_parameters()], lr=1e-3)
        if loss_is_finite:
            train_step(model, images, labels, opt, lr=1e-3)
        else:
            with np.errstate(invalid="ignore"), pytest.raises(TrainingError):
                train_step(model, images, labels, opt, lr=1e-3)
    return run


def grad_check(tmp_path):
    x = af.Tensor(np.random.default_rng(0).normal(size=(3, 4)), requires_grad=True)
    assert af.grad_check_params(lambda: af.tsum(af.gelu(x) * x), [x]) < 1e-4


def checkpoint_round_trip(tmp_path):
    load_checkpoint(save_checkpoint(tiny_model(), tmp_path / "ckpt"))


def dataset_round_trip(tmp_path):
    load_dataset(save_dataset(tiny_dataset(), tmp_path / "ds"))


def cli_run(command):
    """``cli.main`` on one subcommand at tiny sizes; a train run and a
    checkpoint are written first where the command reads them."""
    def run(tmp_path):
        data, ckpt = str(tmp_path / "ds"), str(tmp_path / "ckpt")
        if command in ("train", "eval"):
            save_dataset(tiny_dataset(), data)
        if command == "eval":
            save_checkpoint(tiny_model(), ckpt)
        argv = {
            "synth-data": ["synth-data", "--out", data, "--samples", "2"],
            "train": ["train", "--data", data, "--out", str(tmp_path / "run"),
                      "--epochs", "1", "--warmup-epochs", "0", "--batch-size", "2",
                      "--stages", "3,4", "--r", "2", "--dtype", "float32",
                      "--eval-data", data],
            "eval": ["eval", "--checkpoint", ckpt, "--data", data],
            "param-count": ["param-count", "--preset", "tiny"],
            "grad-check": ["grad-check", "--seeds", "1"],
            "equiv-check": ["equiv-check"],
        }[command]
        assert cli.main(argv) == cli.OK
    return run


ENTRY_POINTS = {
    "train_step": step(loss_is_finite=True),
    "train_step-non-finite": step(loss_is_finite=False),
    "fit": lambda tmp_path: fit(tiny_model(), tiny_dataset(),
                                TrainConfig(epochs=1, batch_size=2, warmup_epochs=0)),
    "evaluate": lambda tmp_path: evaluate(tiny_model(), tiny_dataset()),
    "grad_check_params": grad_check,
    "check_density_equivalence": lambda tmp_path: check_density_equivalence(0),
    "checkpoint-save-load": checkpoint_round_trip,
    "dataset-save-load": dataset_round_trip,
    **{f"cli-{command}": cli_run(command)
       for command in ("synth-data", "train", "eval", "param-count", "grad-check",
                       "equiv-check")},
}


@pytest.mark.parametrize("entry", ENTRY_POINTS.values(), ids=ENTRY_POINTS.keys())
def test_public_entry_point_returns_with_an_empty_tape(entry, tmp_path, capsys):
    assert len(af.active_tape()) == 0
    entry(tmp_path)
    assert len(af.active_tape()) == 0
