"""Graph ownership: only ``train_step`` and ``grad_check_params`` record a
graph, each frees it before returning, and every other public entry
point returns with the calling thread's tape as empty as it found it.
Graph lifetime: a recorded graph keeps only the buffers its backward
rules read, so forward buffers no rule reads are freed during the
forward, with the same gradient bytes as when they are kept."""

import weakref

import numpy as np
import pytest

import adafuse as af
from adafuse import adapters, cli, heads
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


def recorded_grads(watch, keep):
    """Record one forward of ``tiny_model`` and run its backward. ``watch``
    installs wrappers that call ``seen(out)`` for each op output to track.
    Returns whether each tracked output's buffer was freed by the end of
    the forward, while its graph was alive, and the trainable gradients'
    bytes. With ``keep`` the test holds every tracked output."""
    refs, kept = [], []

    def seen(out):
        refs.append(weakref.ref(out.data))
        if keep:
            kept.append(out)
    watch(seen)
    model = tiny_model()
    images, _ = stack_batch(tiny_dataset().samples, model.config.modalities)
    loss = af.tsum(model.forward(images))
    freed = [ref() is None for ref in refs]
    af.backward(loss)
    af.active_tape().clear()
    return freed, {name: p.grad.tobytes() for name, p in model.trainable_parameters()}


def decoder_concat(monkeypatch):
    def watch(seen):
        def concat(tensors, axis, _concat=heads.concat):
            out = _concat(tensors, axis)
            seen(out)
            return out
        monkeypatch.setattr(heads, "concat", concat)
    return watch


def fused_block_residual_add(monkeypatch):
    """Tracks ``z + DropPath(Attn(LN1(z)))``: an add whose left operand
    is one of a fused block's inputs."""
    def watch(seen):
        block_inputs = []

        def block(xs, *args, _block=adapters.fused_block_forward, **kwargs):
            block_inputs.append(xs)
            try:
                return _block(xs, *args, **kwargs)
            finally:
                block_inputs.pop()

        def add(a, b, _add=af.tensor.add):
            out = _add(a, b)
            if block_inputs and any(a is x for x in block_inputs[-1]):
                seen(out)
            return out
        monkeypatch.setattr(adapters, "fused_block_forward", block)
        monkeypatch.setattr(af.tensor, "add", add)
    return watch


@pytest.mark.parametrize("tracked", [decoder_concat, fused_block_residual_add])
def test_forward_buffers_no_backward_reads_are_freed_during_the_forward(tracked,
                                                                        monkeypatch):
    freed, grads = recorded_grads(tracked(monkeypatch), keep=False)
    assert freed and all(freed)
    held, held_grads = recorded_grads(tracked(monkeypatch), keep=True)
    assert len(held) == len(freed) and not any(held)
    assert grads == held_grads
