"""FusionModel assembly: config validation, input coercion, shapes."""

import numpy as np
import pytest

import adafuse as af
from adafuse.model import FusionModel, ModelConfig


def test_config_validation():
    with pytest.raises(ValueError):
        ModelConfig(modalities=("a",), channels=(1, 1))
    with pytest.raises(ValueError):
        ModelConfig(modalities=("a", "a"), channels=(1, 1))
    with pytest.raises(ValueError):
        ModelConfig(dtype="float16")
    with pytest.raises(ValueError):
        ModelConfig(density="everything")
    with pytest.raises(ValueError):
        ModelConfig.from_dict({"preset": "tiny", "nonsense": 1})


@pytest.mark.parametrize("key,value,message", [
    ("preset", "huge", "unknown encoder preset 'huge'"),
    ("active_stages", (5,), "active_stages must be non-empty and within 1..4"),
    ("active_stages", (), "active_stages must be non-empty and within 1..4"),
    ("channels", (-1, 1), "channels must be >= 1")])
def test_config_refuses_what_the_model_cannot_build(key, value, message):
    with pytest.raises(ValueError, match=message):
        ModelConfig(**{key: value})
    # one modality builds no adapter bank, so only the config can refuse
    if key == "active_stages":
        with pytest.raises(ValueError, match=message):
            ModelConfig(modalities=("vis",), channels=(1,), active_stages=value)


@pytest.mark.parametrize("key,value", [("use_ffm", 1), ("bottleneck", True), ("bottleneck", 2.0),
                                       ("drop_path_rate", "0.1"), ("dtype", 32),
                                       ("active_stages", 3), ("active_stages", [3, 4.0])])
def test_from_dict_refuses_a_value_of_another_json_type(key, value):
    with pytest.raises(ValueError, match=f"model config key '{key}'"):
        ModelConfig.from_dict({key: value})


def test_from_dict_takes_an_int_for_a_float_and_a_list_for_a_tuple():
    cfg = ModelConfig.from_dict({"drop_path_rate": 0, "active_stages": [3, 4]})
    assert (cfg.drop_path_rate, cfg.active_stages) == (0, (3, 4))


def test_decoder_dim_defaults_per_preset():
    assert ModelConfig(preset="tiny").decoder_dim == 64
    assert ModelConfig(preset="b2-like").decoder_dim == 256


def test_config_roundtrips_through_dict():
    cfg = ModelConfig(preset="tiny", modalities=("a", "b"), channels=(3, 1),
                      density="pair-uni", active_stages=(3, 4), bottleneck=2,
                      num_classes=4, dtype="float32", seed=11)
    assert ModelConfig.from_dict(cfg.to_dict()).to_dict() == cfg.to_dict()


def test_single_modality_model_has_no_bank():
    model = FusionModel(ModelConfig(modalities=("solo",), channels=(1,),
                                    num_classes=3, dtype="float32"))
    assert model.bank is None
    logits = model.forward({"solo": np.random.default_rng(0).random((1, 1, 32, 32))})
    assert logits.shape == (1, 3, 8, 8)


def test_forward_takes_a_dict_of_batches_only():
    model = FusionModel(ModelConfig(modalities=("vis", "ir"), channels=(1, 1),
                                    num_classes=3, dtype="float32", seed=1))
    rng = np.random.default_rng(1)
    vis, ir = rng.random((1, 1, 32, 32)), rng.random((1, 1, 32, 32))
    a = model.forward({"ir": ir, "vis": vis}).data
    b = model.forward({"vis": vis, "ir": ir, "extra": vis}).data
    assert np.array_equal(a, b)
    with pytest.raises(TypeError, match="dict from modality name"):
        model.forward([vis, ir])
    with pytest.raises(af.ShapeError, match=r"expected \[B, 1, H, W\] image"):
        model.forward({"vis": vis[0], "ir": ir[0]})
    assert not callable(model)


def test_forward_rejects_missing_or_misshapen_modalities():
    model = FusionModel(ModelConfig(modalities=("vis", "ir"), channels=(1, 1),
                                    num_classes=3, dtype="float32"))
    rng = np.random.default_rng(2)
    with pytest.raises(af.ShapeError, match="missing"):
        model.forward({"vis": rng.random((1, 1, 32, 32))})
    with pytest.raises(af.ShapeError):
        model.forward({"vis": rng.random((1, 2, 32, 32)), "ir": rng.random((1, 1, 32, 32))})


def test_logits_at_upsamples_to_label_resolution():
    model = FusionModel(ModelConfig(modalities=("vis",), channels=(1,),
                                    num_classes=3, dtype="float32"))
    out = model.logits_at({"vis": np.random.default_rng(3).random((1, 1, 32, 32))}, 32, 32)
    assert out.shape == (1, 3, 32, 32)


def test_encoder_params_frozen_and_adapters_trainable():
    model = FusionModel(ModelConfig(modalities=("vis", "ir"), channels=(1, 1),
                                    num_classes=3, dtype="float32"))
    names_frozen = {n for n, _ in model.frozen_parameters()}
    names_train = {n for n, _ in model.trainable_parameters()}
    assert all(n.startswith("encoder.") for n in names_frozen)
    assert any(n.startswith("adapters.") for n in names_train)
    assert any(n.startswith("decoder.") for n in names_train)
    assert not (names_frozen & names_train)


def test_zeroed_ffm_gives_constant_logits_and_training_moves_it():
    from adafuse.data import generate_synthetic, stack_batch
    from adafuse.training import AdamW, train_step
    model = FusionModel(ModelConfig(modalities=("vis", "ir"), channels=(1, 1),
                                    use_ffm=True, bottleneck=2, num_classes=5,
                                    dtype="float32", seed=21))
    for stage in model.ffm.stages:
        for p in (stage.w1, stage.b1, stage.w2, stage.b2):
            p.data[...] = 0.0
    ds = generate_synthetic(4, 32, 32, 5, 2, seed=21)
    images, labels = stack_batch(ds.samples, model.config.modalities)
    logits = model.forward(images).data
    # zero merged pyramid -> spatially constant class scores
    assert np.ptp(logits.reshape(logits.shape[0], logits.shape[1], -1),
                  axis=-1).max() == 0.0
    opt = AdamW([p for _, p in model.trainable_parameters()], lr=1e-2)
    for _ in range(3):
        train_step(model, images, labels, opt, lr=1e-2)
    moved = model.forward(images).data
    assert not np.array_equal(moved, logits)


def test_same_seed_reproduces_model_bitwise():
    cfg = dict(modalities=("vis", "ir"), channels=(1, 1), num_classes=4,
               dtype="float32", seed=9)
    a = FusionModel(ModelConfig(**cfg))
    b = FusionModel(ModelConfig(**cfg))
    for (na, pa), (nb, pb) in zip(a.named_parameters(), b.named_parameters()):
        assert na == nb and pa.data.tobytes() == pb.data.tobytes()
