"""Contracts other code relies on: parameter names (the checkpoint
format) and the hooks the benchmark's tracer wraps."""

import gzip
import hashlib
import importlib.util
import json
from pathlib import Path

import numpy as np
import pytest

from adafuse import training
from adafuse.initializers import Module
from adafuse.model import FusionModel, ModelConfig
from adafuse.tensor import Tensor

ROOT = Path(__file__).resolve().parents[1]
GOLDEN = Path(__file__).with_name("golden_parameters.json.gz")

TRIO = ("vis", "ir", "depth")
CONFIGS = (
    [dict(preset="tiny", modalities=("vis",), channels=(1,))]
    + [dict(preset="tiny", modalities=TRIO[:m], channels=(1,) * m, density=d)
       for m in (2, 3) for d in ("shared", "pair-bi", "pair-uni")]
    + [dict(preset="tiny", modalities=("vis", "ir"), channels=(1, 3),
            active_stages=(3, 4), use_ffm=True),
       dict(preset="tiny", modalities=TRIO, channels=(1, 1, 1), density="pair-uni",
            active_stages=(2, 4), use_ffm=True),
       dict(preset="tiny", modalities=("vis", "ir"), channels=(1, 1),
            active_stages=(2,), drop_path_rate=0.1),
       dict(preset="tiny", modalities=TRIO, channels=(3, 1, 1), density="shared",
            active_stages=(1,), use_ffm=True),
       dict(preset="b2-like", modalities=("vis",), channels=(1,))]
    + [dict(preset="b2-like", modalities=("vis", "ir"), channels=(1, 1), density=d)
       for d in ("shared", "pair-bi", "pair-uni")]
    + [dict(preset="b2-like", modalities=TRIO, channels=(1, 1, 1), density=d,
            active_stages=(3, 4))
       for d in ("pair-bi", "pair-uni")]
    + [dict(preset="b2-like", modalities=("vis", "ir"), channels=(1, 3),
            active_stages=(3, 4), use_ffm=True)]
)


def config_id(config: dict) -> str:
    return ";".join(f"{k}={v}" for k, v in config.items())


def listing(model: FusionModel) -> dict:
    """Ordered (name, shape, requires_grad) of every parameter, plus a
    digest of their initial bytes."""
    digest = hashlib.sha256()
    params = []
    for name, p in model.named_parameters():
        params.append([name, list(p.shape), p.requires_grad])
        digest.update(p.data.tobytes())
    return {"params": params, "init_sha256": digest.hexdigest()}


def reachable_tensors(obj, found: dict) -> dict:
    """id -> tensor for every ``Tensor`` reachable from ``obj`` through
    ``Module`` attributes, list and tuple items and dict values."""
    if isinstance(obj, Tensor):
        found[id(obj)] = obj
    elif isinstance(obj, Module):
        reachable_tensors(list(vars(obj).values()), found)
    elif isinstance(obj, (list, tuple)):
        for item in obj:
            reachable_tensors(item, found)
    elif isinstance(obj, dict):
        reachable_tensors(list(obj.values()), found)
    return found


@pytest.fixture(scope="module")
def golden():
    """``listing`` of every config's model, captured while each layer still
    spelled out its parameter names by hand."""
    with gzip.open(GOLDEN, "rt", encoding="utf-8") as f:
        return json.load(f)


@pytest.mark.parametrize("config", CONFIGS, ids=config_id)
def test_parameters_match_the_golden_list(config, golden):
    model = FusionModel(ModelConfig(dtype="float32", bottleneck=4, seed=3, **config))
    assert listing(model) == golden[config_id(config)]
    # the registry is complete: every tensor the model holds is named once
    named = sorted(id(p) for p in model.parameters())
    assert named == sorted(reachable_tensors(model, {}))


def load_bench_spans():
    spec = importlib.util.spec_from_file_location("bench_spans",
                                                  ROOT / "bench" / "spans.py")
    spans = importlib.util.module_from_spec(spec)
    spec.loader.exec_module(spans)
    return spans


def test_benchmark_tracer_installs_and_uninstalls():
    """``bench/spans.py`` wraps classes' own ``__call__`` and other
    attributes and reads the tape's node list; every one must exist."""
    spans = load_bench_spans()
    originals = {(owner, attr): owner.__dict__[attr]
                 for owner, attr, _ in spans.LAYERS if isinstance(owner, type)}
    tracer = spans.Tracer()
    tracer.install()
    try:
        model = FusionModel(ModelConfig(preset="tiny", bottleneck=2, dtype="float32"))
        rng = np.random.default_rng(0)
        model.forward({"vis": rng.random((1, 1, 32, 32)), "ir": rng.random((1, 1, 32, 32))})
        assert "encoder.attention" in tracer.names
    finally:
        tracer.uninstall()
    for (owner, attr), original in originals.items():
        assert owner.__dict__[attr] is original


def test_benchmark_tracer_times_every_backward_rule():
    """The tracer's backward wrappers run inside a training step: backward
    spans are recorded, and the fused tiny step records 488 tape nodes."""
    spans = load_bench_spans()
    model = FusionModel(ModelConfig(preset="tiny", modalities=("vis", "ir"),
                                    channels=(1, 1), density="pair-bi", bottleneck=8,
                                    num_classes=5, dtype="float32", seed=0))
    rng = np.random.default_rng(0)
    images = {"vis": rng.random((2, 1, 32, 32), dtype=np.float32),
              "ir": rng.random((2, 1, 32, 32), dtype=np.float32)}
    labels = rng.integers(0, 5, (2, 32, 32))
    optimizer = training.AdamW([p for _, p in model.trainable_parameters()], lr=1e-3)
    tracer = spans.Tracer()
    tracer.install()
    try:
        tracer.step = 0
        training.train_step(model, images, labels, optimizer, lr=1e-3)
    finally:
        tracer.uninstall()
    assert (tracer.arrays()["origin"] >= 0).any()
    assert tracer.step_counts[0][0] == 488
