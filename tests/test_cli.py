"""CLI surface: commands, exit codes, artifacts."""

import json
import math

import numpy as np
import pytest

from adafuse import cli, training, verification
from adafuse.cli import _resolve_train_configs, build_parser, main
from adafuse.data import StoreError, generate_synthetic, load_dataset, save_dataset
from adafuse.model import FusionModel, ModelConfig
from adafuse.tensor import ShapeError
from adafuse.training import TrainingError, save_checkpoint


def run(argv):
    return main(argv)


def test_synth_data_writes_loadable_dataset(tmp_path, capsys):
    out = tmp_path / "ds"
    assert run(["synth-data", "--out", str(out), "--samples", "3",
                "--height", "32", "--width", "32", "--classes", "4",
                "--modalities", "2", "--seed", "5"]) == 0
    ds = load_dataset(out)
    assert len(ds) == 3 and ds.num_classes == 4


def test_param_count_reports_published_budget(capsys):
    assert run(["param-count", "--preset", "b2-like", "--modalities", "2",
                "--density", "pair-bi", "--stages", "1,2,3,4", "--r", "8",
                "--include-bias"]) == 0
    out = capsys.readouterr().out
    assert "count=144000" in out
    assert "analytic_with_biases=144000" in out
    assert "analytic_weights_only=135168" in out
    assert "match=True" in out


def test_param_count_weights_only_convention(capsys):
    assert run(["param-count", "--preset", "b2-like", "--modalities", "2",
                "--density", "pair-bi", "--stages", "1,2,3,4", "--r", "8",
                "--weights-only"]) == 0
    assert "count=135168" in capsys.readouterr().out


def test_param_count_counts_repeated_or_unordered_stages_once(capsys):
    outs = []
    for stages in ("4,3,3", "3,4"):
        assert run(["param-count", "--preset", "tiny", "--modalities", "2",
                    "--density", "pair-bi", "--stages", stages, "--r", "8"]) == 0
        outs.append(capsys.readouterr().out.splitlines())
    assert "active_stages=3,4" in outs[0]
    counts = [[line for line in out if line.startswith("count=")] for out in outs]
    assert len(counts[0]) == 1 and counts[0] == counts[1]


def test_equiv_check_exits_zero(capsys):
    assert run(["equiv-check", "--seed", "7"]) == 0
    assert "PASSED" in capsys.readouterr().out


def test_grad_check_single_seed_exits_zero(capsys):
    assert run(["grad-check", "--seeds", "1", "--seed", "3"]) == 0
    out = capsys.readouterr().out
    assert "PASSED" in out and "end_to_end" in out


def empty_dataset(path):
    ds = generate_synthetic(2, 32, 32, 5, 2, seed=0)
    ds.samples = []
    return save_dataset(ds, path)


def test_train_rejects_empty_dataset(tmp_path, capsys):
    code = run(["train", "--data", str(empty_dataset(tmp_path / "empty")),
                "--out", str(tmp_path / "run")])
    assert code == 2
    assert "config error" in capsys.readouterr().err


def test_train_rejects_unknown_modality(tmp_path, capsys):
    save_dataset(generate_synthetic(2, 32, 32, 5, 2, seed=0), tmp_path / "ds")
    code = run(["train", "--data", str(tmp_path / "ds"),
                "--out", str(tmp_path / "run"), "--modalities", "sonar"])
    assert code == 2


def test_train_missing_dataset_is_io_error(tmp_path, capsys):
    code = run(["train", "--data", str(tmp_path / "nowhere"),
                "--out", str(tmp_path / "run")])
    assert code == 3


@pytest.mark.parametrize("edit,message", [
    (lambda images: images.pop("ir"), "sample 3"),
    (lambda images: images["ir"].update(shape=[1, 16, 64]), "s00003_ir.bin")],
    ids=["missing-modality", "wrong-shape"])
def test_train_sample_disagreeing_with_manifest_is_io_error(tmp_path, capsys, edit,
                                                            message):
    root = save_dataset(generate_synthetic(4, 32, 32, 5, 2, seed=0), tmp_path / "ds")
    manifest = json.loads((root / "manifest.json").read_text())
    edit(manifest["samples"][3]["images"])
    (root / "manifest.json").write_text(json.dumps(manifest))
    code = run(["train", "--data", str(root), "--out", str(tmp_path / "run"),
                "--epochs", "1", "--warmup-epochs", "0", "--batch-size", "4"])
    assert code == 3
    assert message in capsys.readouterr().err


def dataset_declaring(path, modalities=(("vis", 1), ("ir", 1)), height=32, width=32):
    """A saved dataset whose manifest declares ``modalities``, ``height``
    and ``width``, each blob of the shape its record declares."""
    ds = generate_synthetic(2, 32, 32, 5, 2, seed=0)
    ds.modalities, ds.height, ds.width = list(modalities), height, width
    for sample in ds.samples:
        sample.images = {n: np.zeros((c, height, width), np.float32) for n, c in modalities}
        sample.label = np.zeros((height, width), np.uint16)
    return save_dataset(ds, path)


@pytest.mark.parametrize("declared,message", [
    ({"modalities": (("vis", 1), ("ir", 1), ("vis", 1))}, "modality names repeat"),
    ({"modalities": (("vis", 0), ("ir", 1))}, "must all be >= 1"),
    ({"height": 0}, "must all be >= 1"),
    ({"width": 0}, "must all be >= 1"),
    ({"modalities": ()}, "the manifest declares no modality")],
    ids=["repeated-name", "channels-0", "height-0", "width-0", "no-modality"])
def test_train_on_a_manifest_that_cannot_describe_a_store_is_io_error(tmp_path, capsys,
                                                                       declared, message):
    data_dir = dataset_declaring(tmp_path / "ds", **declared)
    out = tmp_path / "run"
    assert run(["train", "--data", str(data_dir), "--out", str(out), "--epochs", "1",
                "--warmup-epochs", "0", "--batch-size", "2"]) == 3
    err = capsys.readouterr().err
    assert err.startswith("i/o error:") and message in err
    assert not out.exists()


@pytest.mark.parametrize("exc,code,prefix", [
    (StoreError("no manifest.json under ds"), 3, "i/o error:"),
    (OSError(28, "No space left on device"), 3, "i/o error:"),
    (TrainingError("non-finite loss nan"), 1, "training aborted:"),
    (ValueError("bottleneck must be >= 1"), 2, "config error:"),
    (ShapeError("labels must be [B, H, W]"), 2, "config error:"),
    (MemoryError("Unable to allocate"), 2, "config error:")],
    ids=["StoreError", "OSError", "TrainingError", "ValueError", "ShapeError",
         "MemoryError"])
def test_main_maps_each_exception_base_to_one_exit_code(capsys, monkeypatch, exc, code,
                                                        prefix):
    def failing(args):
        raise exc
    monkeypatch.setattr(cli, "cmd_equiv_check", failing)
    assert run(["equiv-check"]) == code
    assert capsys.readouterr().err == f"{prefix} {exc}\n"


def test_eval_truncated_checkpoint_is_io_error(tmp_path, capsys):
    data_dir = tmp_path / "ds"
    save_dataset(generate_synthetic(2, 32, 32, 5, 2, seed=1), data_dir)
    cfg = ModelConfig(preset="tiny", bottleneck=2, dtype="float32")
    ckpt = save_checkpoint(FusionModel(cfg), tmp_path / "ckpt")
    blob = ckpt / "p00000.bin"
    blob.write_bytes(blob.read_bytes()[:-4])
    code = run(["eval", "--checkpoint", str(ckpt), "--data", str(data_dir)])
    assert code == 3
    assert "i/o error" in capsys.readouterr().err


def eval_inputs(tmp_path):
    """A dataset directory and a checkpoint directory that ``eval`` accepts."""
    data_dir = save_dataset(generate_synthetic(2, 32, 32, 5, 2, seed=1), tmp_path / "ds")
    cfg = ModelConfig(preset="tiny", bottleneck=2, dtype="float32")
    return {"data": data_dir,
            "checkpoint": save_checkpoint(FusionModel(cfg), tmp_path / "ckpt")}


@pytest.mark.parametrize("target", ["data", "checkpoint"])
def test_eval_truncated_manifest_is_io_error(tmp_path, capsys, target):
    dirs = eval_inputs(tmp_path)
    manifest = dirs[target] / "manifest.json"
    manifest.write_text(manifest.read_text()[:200])
    code = run(["eval", "--checkpoint", str(dirs["checkpoint"]),
                "--data", str(dirs["data"])])
    assert code == 3
    assert "i/o error" in capsys.readouterr().err


@pytest.mark.parametrize("target,field", [("data", "num_classes"),
                                          ("checkpoint", "blob_dtype")])
def test_eval_manifest_missing_field_is_io_error(tmp_path, capsys, target, field):
    dirs = eval_inputs(tmp_path)
    path = dirs[target] / "manifest.json"
    manifest = json.loads(path.read_text())
    del manifest[field]
    path.write_text(json.dumps(manifest))
    code = run(["eval", "--checkpoint", str(dirs["checkpoint"]),
                "--data", str(dirs["data"])])
    assert code == 3
    assert "i/o error" in capsys.readouterr().err


def _widen_blobs(manifest, root):
    """Rewrite a float32 checkpoint's blobs as float64 and set its blob_dtype to match."""
    for rec in manifest["params"]:
        blob = root / rec["path"]
        blob.write_bytes(np.frombuffer(blob.read_bytes(), "<f4").astype("<f8").tobytes())
    manifest["blob_dtype"] = "<f8"


@pytest.mark.parametrize("edit,message", [
    (lambda m, _: m.update(blob_dtype="<f2"), "unsupported blob dtype '<f2'"),
    (_widen_blobs, "unsupported blob dtype '<f8' for a float32 model"),
    (lambda m, _: m["params"][0].update(name="encoder.sonar.cls_w"),
     "checkpoint parameter 'encoder.sonar.cls_w' has no counterpart in the model"),
    (lambda m, _: m["params"][0].update(shape=[3, 5, 7]),
     "'shape': [3, 5, 7]} declares a shape other than ("),
    (lambda m, _: m["params"].pop(), "checkpoint omits 1 parameters (first: 'decoder."),
    (None, "manifest kind 'dataset' is not a checkpoint")],
    ids=["blob-dtype", "blob-dtype-of-another-model", "unknown-name", "shape", "omits",
         "dataset-dir"])
def test_eval_refuses_a_checkpoint_that_does_not_fit_its_model(tmp_path, capsys,
                                                               edit, message):
    dirs = eval_inputs(tmp_path)
    checkpoint = dirs["checkpoint"] if edit else dirs["data"]
    if edit:
        manifest = json.loads((checkpoint / "manifest.json").read_text())
        edit(manifest, checkpoint)
        (checkpoint / "manifest.json").write_text(json.dumps(manifest))
    code = run(["eval", "--checkpoint", str(checkpoint), "--data", str(dirs["data"])])
    assert code == 3
    assert message in capsys.readouterr().err


def test_synth_data_over_a_checkpoint_is_io_error_and_leaves_it_whole(tmp_path, capsys):
    dirs = eval_inputs(tmp_path)
    checkpoint = dirs["checkpoint"]
    before = {p.name: p.read_bytes() for p in checkpoint.iterdir()}
    assert run(["synth-data", "--out", str(checkpoint), "--samples", "2"]) == 3
    assert "holds a 'checkpoint' store, refusing to overwrite it with a dataset" in \
        capsys.readouterr().err
    assert {p.name: p.read_bytes() for p in checkpoint.iterdir()} == before
    assert run(["eval", "--checkpoint", str(checkpoint), "--data", str(dirs["data"])]) == 0


def test_unknown_flag_is_an_error(tmp_path):
    with pytest.raises(SystemExit) as exc:
        run(["param-count", "--frobnicate"])
    assert exc.value.code == 2


def test_train_eval_cycle_writes_artifacts(tmp_path, capsys):
    data_dir = tmp_path / "ds"
    save_dataset(generate_synthetic(8, 32, 32, 5, 2, seed=1), data_dir)
    run_dir = tmp_path / "run"
    code = run(["train", "--data", str(data_dir), "--out", str(run_dir),
                "--epochs", "2", "--batch-size", "4", "--lr", "1e-3",
                "--warmup-epochs", "1", "--dtype", "float32", "--seed", "3",
                "--stages", "3,4", "--r", "2",
                "--eval-data", str(data_dir)])
    assert code == 0
    assert (run_dir / "checkpoint" / "manifest.json").exists()
    assert (run_dir / "train_log.csv").read_text().startswith("epoch,mean_loss,lr")
    assert (run_dir / "metrics.json").exists()
    resolved = json.loads((run_dir / "config.json").read_text())
    assert resolved["model"]["seed"] == 3
    assert resolved["model"]["active_stages"] == [3, 4]
    assert resolved["train"]["epochs"] == 2

    code = run(["eval", "--checkpoint", str(run_dir / "checkpoint"),
                "--data", str(data_dir), "--out", str(tmp_path / "metrics")])
    assert code == 0
    csv = (tmp_path / "metrics" / "per_class.csv").read_text()
    assert csv.startswith("method,class_0")
    out = capsys.readouterr().out
    assert "mIoU" in out



def test_train_log_keeps_the_finished_epochs_when_training_aborts(tmp_path, capsys,
                                                                  monkeypatch):
    data_dir = save_dataset(generate_synthetic(8, 32, 32, 5, 2, seed=1), tmp_path / "ds")
    real_step, calls = training.train_step, []

    def step_failing_in_epoch_2(*args, **kwargs):
        calls.append(1)
        if len(calls) == 5:            # 8 samples / batch 4: epoch 2's first step
            raise TrainingError("non-finite loss nan at optimizer step 5")
        return real_step(*args, **kwargs)

    monkeypatch.setattr(training, "train_step", step_failing_in_epoch_2)
    run_dir = tmp_path / "run"
    code = run(["train", "--data", str(data_dir), "--out", str(run_dir),
                "--epochs", "6", "--batch-size", "4", "--warmup-epochs", "0",
                "--stages", "3,4", "--r", "2"])
    assert code == 1
    assert "training aborted" in capsys.readouterr().err
    rows = (run_dir / "train_log.csv").read_text().splitlines()
    assert rows[0] == "epoch,mean_loss,lr"
    assert [row.split(",")[0] for row in rows[1:]] == ["0", "1"]
    assert not (run_dir / "checkpoint").exists()

def test_config_file_with_flag_overrides(tmp_path):
    data_dir = tmp_path / "ds"
    save_dataset(generate_synthetic(4, 32, 32, 5, 2, seed=2), data_dir)
    cfg_file = tmp_path / "cfg.json"
    cfg_file.write_text(json.dumps({
        "model": {"density": "pair-uni", "bottleneck": 2, "dtype": "float32"},
        "train": {"epochs": 1, "batch_size": 4, "base_lr": 1e-3,
                  "warmup_epochs": 0},
    }))
    run_dir = tmp_path / "run"
    code = run(["train", "--data", str(data_dir), "--out", str(run_dir),
                "--config", str(cfg_file), "--seed", "4", "--r", "3"])
    assert code == 0
    resolved = json.loads((run_dir / "config.json").read_text())
    assert resolved["model"]["density"] == "pair-uni"   # from file
    assert resolved["model"]["bottleneck"] == 3         # flag wins
    assert resolved["train"]["epochs"] == 1


def test_config_file_with_unknown_keys_rejected(tmp_path, capsys):
    data_dir = tmp_path / "ds"
    save_dataset(generate_synthetic(2, 32, 32, 5, 2, seed=3), data_dir)
    cfg_file = tmp_path / "cfg.json"
    cfg_file.write_text(json.dumps({"model": {"bottlneck": 2}}))
    code = run(["train", "--data", str(data_dir), "--out", str(tmp_path / "r"),
                "--config", str(cfg_file)])
    assert code == 2
    assert "unknown model config keys" in capsys.readouterr().err


def resolve(tmp_path, *flags, config=None):
    argv = ["train", "--data", "unused", "--out", "unused", *flags]
    if config is not None:
        cfg_file = tmp_path / "cfg.json"
        cfg_file.write_text(json.dumps(config))
        argv += ["--config", str(cfg_file)]
    return _resolve_train_configs(build_parser().parse_args(argv),
                                  generate_synthetic(2, 32, 32, 4, 2, seed=0))


def test_every_train_flag_lands_on_its_field(tmp_path):
    model_cfg, train_cfg = resolve(
        tmp_path, "--preset", "b2-like", "--modalities", "ir", "--density", "pair-uni",
        "--stages", "3,4", "--r", "5", "--ffm", "--dtype", "float32", "--epochs", "6",
        "--batch-size", "3", "--lr", "0.5", "--warmup-epochs", "2",
        "--decay-factor", "0.25", "--seed", "7")
    assert (model_cfg.preset, model_cfg.modalities, model_cfg.channels) == \
        ("b2-like", ("ir",), (1,))
    assert (model_cfg.density, model_cfg.active_stages, model_cfg.bottleneck) == \
        ("pair-uni", (3, 4), 5)
    assert (model_cfg.use_ffm, model_cfg.dtype, model_cfg.seed) == (True, "float32", 7)
    assert model_cfg.num_classes == 4
    assert (train_cfg.epochs, train_cfg.batch_size, train_cfg.base_lr) == (6, 3, 0.5)
    assert (train_cfg.warmup_epochs, train_cfg.decay_factor, train_cfg.seed) == \
        (2.0, 0.25, 7)


def test_file_values_survive_absent_and_empty_flags(tmp_path):
    config = {"model": {"modalities": ["ir"], "density": "shared", "active_stages": [2],
                        "bottleneck": 2, "use_ffm": True, "seed": 3,
                        "channels": [9], "num_classes": 9},
              "train": {"epochs": 4, "warmup_epochs": 1, "base_lr": 0.1, "seed": 5}}
    for flags in ((), ("--stages", "", "--modalities", "")):
        model_cfg, train_cfg = resolve(tmp_path, *flags, config=config)
        assert (model_cfg.modalities, model_cfg.density, model_cfg.active_stages) == \
            (("ir",), "shared", (2,))
        assert (model_cfg.bottleneck, model_cfg.use_ffm, model_cfg.seed) == (2, True, 3)
        # channels and the class count always come from the dataset
        assert (model_cfg.channels, model_cfg.num_classes) == ((1,), 4)
        assert (train_cfg.epochs, train_cfg.base_lr, train_cfg.seed) == (4, 0.1, 5)


def test_empty_list_flags_fall_back_to_the_defaults(tmp_path):
    model_cfg, train_cfg = resolve(tmp_path, "--stages", "", "--modalities", "")
    assert model_cfg == ModelConfig(channels=(1, 1), num_classes=4)
    assert train_cfg.seed == 0


def test_seed_flag_sets_both_configs_over_the_file(tmp_path):
    config = {"model": {"seed": 3}, "train": {"seed": 5, "epochs": 4, "warmup_epochs": 1}}
    model_cfg, train_cfg = resolve(tmp_path, "--seed", "11", config=config)
    assert (model_cfg.seed, train_cfg.seed, train_cfg.epochs) == (11, 11, 4)


def test_eval_refuses_a_dataset_without_the_checkpoint_modalities(tmp_path, capsys):
    dirs = eval_inputs(tmp_path)                       # a vis+ir checkpoint
    data_dir = save_dataset(generate_synthetic(2, 32, 32, 5, 3, seed=1), tmp_path / "m3")
    code = run(["eval", "--checkpoint", str(dirs["checkpoint"]), "--data", str(data_dir)])
    assert code == 2
    assert "modalities ['vis', 'ir'] not present in the dataset" in capsys.readouterr().err


@pytest.mark.parametrize("config", [{"model": 5}, {"model": {"bottleneck": "x"}},
                                    {"train": {"epochs": 1.5, "warmup_epochs": 0}}],
                         ids=["section", "model-value", "train-value"])
def test_config_file_value_of_the_wrong_type_is_a_config_error(tmp_path, capsys, config):
    data_dir = save_dataset(generate_synthetic(2, 32, 32, 5, 2, seed=3), tmp_path / "ds")
    cfg_file = tmp_path / "cfg.json"
    cfg_file.write_text(json.dumps(config))
    code = run(["train", "--data", str(data_dir), "--out", str(tmp_path / "r"),
                "--config", str(cfg_file)])
    assert code == 2
    assert "config error" in capsys.readouterr().err


def test_eval_checkpoint_config_value_of_the_wrong_type_is_io_error(tmp_path, capsys):
    dirs = eval_inputs(tmp_path)
    path = dirs["checkpoint"] / "manifest.json"
    manifest = json.loads(path.read_text())
    manifest["model_config"]["bottleneck"] = "x"
    path.write_text(json.dumps(manifest))
    code = run(["eval", "--checkpoint", str(dirs["checkpoint"]), "--data", str(dirs["data"])])
    assert code == 3
    assert "malformed manifest" in capsys.readouterr().err


def test_eval_refuses_a_dataset_with_another_class_count(tmp_path, capsys):
    dirs = eval_inputs(tmp_path)                       # a 5-class checkpoint
    data_dir = save_dataset(generate_synthetic(2, 32, 32, 7, 2, seed=1), tmp_path / "k7")
    code = run(["eval", "--checkpoint", str(dirs["checkpoint"]), "--data", str(data_dir)])
    assert code == 2
    assert "dataset has 7 classes, the model predicts 5" in capsys.readouterr().err


def test_train_refuses_an_eval_dataset_with_another_class_count_before_training(
        tmp_path, capsys):
    data_dir = save_dataset(generate_synthetic(2, 32, 32, 5, 2, seed=1), tmp_path / "k5")
    eval_dir = save_dataset(generate_synthetic(2, 32, 32, 7, 2, seed=2), tmp_path / "k7")
    out = tmp_path / "run"
    code = run(["train", "--data", str(data_dir), "--out", str(out), "--epochs", "1",
                "--warmup-epochs", "0", "--batch-size", "2", "--eval-data", str(eval_dir)])
    assert code == 2
    assert "dataset has 7 classes, the model predicts 5" in capsys.readouterr().err
    assert not (out / "checkpoint").exists()


def test_config_file_string_for_a_tuple_field_is_a_type_error(tmp_path, capsys):
    data_dir = save_dataset(generate_synthetic(2, 32, 32, 5, 2, seed=3), tmp_path / "ds")
    cfg_file = tmp_path / "cfg.json"
    cfg_file.write_text(json.dumps({"model": {"modalities": "vis"}}))
    code = run(["train", "--data", str(data_dir), "--out", str(tmp_path / "r"),
                "--config", str(cfg_file)])
    assert code == 2
    assert "config key 'modalities' holds 'vis', not of the type of its default" in \
        capsys.readouterr().err


OUT_OF_RANGE = [("train", "base_lr", -1.0), ("train", "warmup_epochs", -2.0),
                ("train", "seed", -1), ("model", "adapter_dropout", 1.0),
                ("model", "drop_path_rate", -0.5), ("train", "base_lr", math.inf),
                ("train", "warmup_epochs", math.nan), ("model", "drop_path_rate", -math.inf)]


@pytest.mark.parametrize("section,key,value", OUT_OF_RANGE,
                         ids=[f"{k}={v}" for _, k, v in OUT_OF_RANGE])
def test_out_of_range_config_value_is_refused_before_anything_is_written(
        tmp_path, capsys, section, key, value):
    data_dir = save_dataset(generate_synthetic(2, 32, 32, 5, 2, seed=3), tmp_path / "ds")
    config = {"model": {"bottleneck": 2},
              "train": {"epochs": 1, "warmup_epochs": 0, "batch_size": 2}}
    config[section][key] = value
    cfg_file = tmp_path / "cfg.json"
    cfg_file.write_text(json.dumps(config))
    out = tmp_path / "run"
    code = run(["train", "--data", str(data_dir), "--out", str(out),
                "--config", str(cfg_file)])
    assert code == 2
    err = capsys.readouterr().err
    assert "config error" in err and key in err
    assert not out.exists()


ADAMW_CONSTANTS = [("weight_decay", 0.01), ("beta1", 0.9), ("beta2", 0.999),
                   ("eps", 1e-8)]


@pytest.mark.parametrize("key,value", ADAMW_CONSTANTS,
                         ids=[k for k, _ in ADAMW_CONSTANTS])
def test_adamw_constant_in_a_config_file_is_an_unknown_key_before_anything_is_written(
        tmp_path, capsys, key, value):
    """AdamW's betas, eps and weight decay are fixed; even their own
    values are refused as train config keys."""
    data_dir = save_dataset(generate_synthetic(2, 32, 32, 5, 2, seed=3), tmp_path / "ds")
    out = tmp_path / "run"
    cfg_file = tmp_path / "cfg.json"
    cfg_file.write_text(json.dumps({"train": {"epochs": 1, "warmup_epochs": 0,
                                              "batch_size": 2, key: value}}))
    code = run(["train", "--data", str(data_dir), "--out", str(out),
                "--config", str(cfg_file)])
    assert code == 2
    assert f"unknown train config keys: ['{key}']" in capsys.readouterr().err
    assert not out.exists()


SIZE_OR_SEED_REFUSALS = {"decoder_dim": "decoder_dim must be >= 0",
                         "bottleneck": "bottleneck width must be >= 1, got 0",
                         "seed": "seed must be >= 0"}


@pytest.mark.parametrize("key,value", [("decoder_dim", -3), ("bottleneck", 0), ("seed", -1)])
def test_out_of_range_model_size_or_seed_is_refused_before_anything_is_written(
        tmp_path, capsys, key, value):
    # single modality: no adapter bank reads the bottleneck, so only the
    # config check can refuse it
    data_dir = save_dataset(generate_synthetic(2, 32, 32, 5, 2, seed=3), tmp_path / "ds")
    config = {"model": {"modalities": ["vis"], "channels": [1], key: value},
              "train": {"epochs": 1, "warmup_epochs": 0, "batch_size": 2}}
    cfg_file = tmp_path / "cfg.json"
    cfg_file.write_text(json.dumps(config))
    out = tmp_path / "run"
    code = run(["train", "--data", str(data_dir), "--out", str(out),
                "--config", str(cfg_file)])
    assert code == 2
    assert f"config error: {SIZE_OR_SEED_REFUSALS[key]}" in capsys.readouterr().err
    assert not out.exists()


def test_train_config_too_large_to_allocate_is_refused_before_anything_is_written(
        tmp_path, capsys):
    data_dir = save_dataset(generate_synthetic(2, 32, 32, 5, 2, seed=3), tmp_path / "ds")
    cfg_file = tmp_path / "cfg.json"
    cfg_file.write_text(json.dumps({"model": {"decoder_dim": 10**15},
                                    "train": {"epochs": 1, "warmup_epochs": 0,
                                              "batch_size": 2}}))
    out = tmp_path / "run"
    code = run(["train", "--data", str(data_dir), "--out", str(out),
                "--config", str(cfg_file)])
    assert code == 2
    assert "config error: Unable to allocate" in capsys.readouterr().err
    assert not out.exists()


@pytest.mark.parametrize("key,value", [("decoder_dim", -3), ("bottleneck", 0), ("seed", -1)])
def test_eval_checkpoint_model_size_or_seed_out_of_range_is_io_error(tmp_path, capsys,
                                                                     key, value):
    dirs = eval_inputs(tmp_path)
    path = dirs["checkpoint"] / "manifest.json"
    manifest = json.loads(path.read_text())
    manifest["model_config"][key] = value
    path.write_text(json.dumps(manifest))
    code = run(["eval", "--checkpoint", str(dirs["checkpoint"]), "--data", str(dirs["data"])])
    assert code == 3
    err = capsys.readouterr().err
    assert "i/o error" in err and SIZE_OR_SEED_REFUSALS[key] in err


@pytest.mark.parametrize("key,value", [("adapter_dropout", 1.0), ("adapter_dropout", -0.1),
                                       ("drop_path_rate", 1.5)])
def test_eval_checkpoint_config_value_out_of_range_is_io_error(tmp_path, capsys,
                                                               key, value):
    dirs = eval_inputs(tmp_path)
    path = dirs["checkpoint"] / "manifest.json"
    manifest = json.loads(path.read_text())
    manifest["model_config"][key] = value
    path.write_text(json.dumps(manifest))
    code = run(["eval", "--checkpoint", str(dirs["checkpoint"]), "--data", str(dirs["data"])])
    assert code == 3
    err = capsys.readouterr().err
    assert "i/o error" in err and key in err and "must be in [0, 1)" in err


@pytest.mark.parametrize("key,value,message", [
    ("preset", "huge", "unknown encoder preset 'huge'"),
    ("active_stages", [5], "active stage 5 outside 1..4"),
    ("active_stages", [], "active_stages must be non-empty"),
    ("channels", [-1, 1], "channels must be >= 1"),
    # in range but too large for numpy to allocate: refused before any memory is taken
    pytest.param("bottleneck", 10**400, "Maximum allowed dimension exceeded",
                 id="bottleneck-huge"),
    pytest.param("decoder_dim", 10**400, "Maximum allowed dimension exceeded",
                 id="decoder_dim-huge"),
    pytest.param("channels", [10**400, 1], "Maximum allowed dimension exceeded",
                 id="channels-huge"),
    # in numpy's range but past any address space: the allocation fails at once
    pytest.param("bottleneck", 10**15, "Unable to allocate", id="bottleneck-unallocatable"),
    pytest.param("decoder_dim", 10**15, "Unable to allocate", id="decoder_dim-unallocatable"),
    pytest.param("channels", [10**15, 1], "Unable to allocate", id="channels-unallocatable")])
def test_eval_checkpoint_model_structure_out_of_range_is_io_error(tmp_path, capsys,
                                                                  key, value, message):
    dirs = eval_inputs(tmp_path)
    path = dirs["checkpoint"] / "manifest.json"
    manifest = json.loads(path.read_text())
    manifest["model_config"][key] = value
    path.write_text(json.dumps(manifest))
    code = run(["eval", "--checkpoint", str(dirs["checkpoint"]), "--data", str(dirs["data"])])
    assert code == 3
    err = capsys.readouterr().err
    assert "i/o error" in err and message in err


def test_single_modality_config_with_a_stage_outside_the_preset_is_refused(tmp_path,
                                                                           capsys):
    data_dir = save_dataset(generate_synthetic(2, 32, 32, 5, 2, seed=3), tmp_path / "ds")
    cfg_file = tmp_path / "cfg.json"
    cfg_file.write_text(json.dumps({"model": {"modalities": ["vis"], "active_stages": [5]},
                                    "train": {"epochs": 1, "batch_size": 2}}))
    out = tmp_path / "run"
    code = run(["train", "--data", str(data_dir), "--out", str(out),
                "--config", str(cfg_file)])
    assert code == 2
    assert "active stage 5 outside 1..4" in capsys.readouterr().err
    assert not out.exists()


@pytest.mark.parametrize("odd", ["data", "eval-data"])
def test_train_refuses_a_dataset_of_the_wrong_size_before_anything_is_written(
        tmp_path, capsys, odd):
    sizes = {"data": 32, "eval-data": 32, odd: 48}
    dirs = {flag: save_dataset(generate_synthetic(2, side, side, 5, 2, seed=4),
                               tmp_path / flag)
            for flag, side in sizes.items()}
    out = tmp_path / "run"
    code = run(["train", "--data", str(dirs["data"]), "--eval-data", str(dirs["eval-data"]),
                "--out", str(out), "--epochs", "1", "--warmup-epochs", "0",
                "--batch-size", "2"])
    assert code == 2
    assert "dataset images are 48x48, not multiples of 32" in capsys.readouterr().err
    assert not out.exists()


def test_eval_refuses_a_dataset_of_the_wrong_size(tmp_path, capsys):
    dirs = eval_inputs(tmp_path)
    data_dir = save_dataset(generate_synthetic(2, 48, 48, 5, 2, seed=1), tmp_path / "big")
    out = tmp_path / "metrics"
    code = run(["eval", "--checkpoint", str(dirs["checkpoint"]), "--data", str(data_dir),
                "--out", str(out)])
    assert code == 2
    assert "dataset images are 48x48, not multiples of 32" in capsys.readouterr().err
    assert not out.exists()


def unlabeled_dataset(path):
    ds = generate_synthetic(2, 32, 32, 5, 2, seed=5)
    for sample in ds.samples:
        sample.label[...] = 255
    return save_dataset(ds, path)


def three_channel_vis_dataset(path):
    ds = generate_synthetic(2, 32, 32, 5, 2, seed=5)
    for sample in ds.samples:
        sample.images["vis"] = np.repeat(sample.images["vis"], 3, axis=0)
    ds.modalities = [("vis", 3), ("ir", 1)]
    return save_dataset(ds, path)


@pytest.mark.parametrize("make,message", [
    (empty_dataset, "dataset holds no samples"),
    (unlabeled_dataset, "dataset holds no labeled pixel, only 255"),
    (three_channel_vis_dataset,
     "dataset channels {'vis': 3, 'ir': 1}, the model takes {'vis': 1, 'ir': 1}")],
    ids=["empty", "unlabeled", "3-channel-vis"])
def test_train_refuses_an_eval_dataset_it_cannot_score_before_anything_is_written(
        tmp_path, capsys, make, message):
    data_dir = save_dataset(generate_synthetic(2, 32, 32, 5, 2, seed=1), tmp_path / "ds")
    out = tmp_path / "run"
    code = run(["train", "--data", str(data_dir), "--out", str(out), "--epochs", "1",
                "--warmup-epochs", "0", "--batch-size", "2",
                "--eval-data", str(make(tmp_path / "eval"))])
    assert code == 2
    assert message in capsys.readouterr().err
    assert not out.exists()


@pytest.mark.parametrize("make,message", [
    (empty_dataset, "dataset holds no samples"),
    (unlabeled_dataset, "dataset holds no labeled pixel, only 255"),
    (three_channel_vis_dataset, "dataset channels {'vis': 3, 'ir': 1}")],
    ids=["empty", "unlabeled", "3-channel-vis"])
def test_eval_refuses_a_dataset_it_cannot_score(tmp_path, capsys, make, message):
    dirs = eval_inputs(tmp_path)
    out = tmp_path / "metrics"
    code = run(["eval", "--checkpoint", str(dirs["checkpoint"]),
                "--data", str(make(tmp_path / "eval")), "--out", str(out)])
    assert code == 2
    assert message in capsys.readouterr().err
    assert not out.exists()



def test_partly_labeled_datasets_train_and_score_to_strict_json(tmp_path):
    ds = generate_synthetic(2, 32, 32, 5, 2, seed=6)
    ds.samples[0].label[...] = 255
    ds.samples[1].label[:, :16] = 255
    data_dir = save_dataset(ds, tmp_path / "ds")
    run_dir = tmp_path / "run"
    assert run(["train", "--data", str(data_dir), "--out", str(run_dir),
                "--epochs", "1", "--batch-size", "2", "--warmup-epochs", "0",
                "--stages", "3,4", "--r", "2", "--eval-data", str(data_dir)]) == 0
    assert run(["eval", "--checkpoint", str(run_dir / "checkpoint"),
                "--data", str(data_dir), "--out", str(tmp_path / "metrics")]) == 0

    def refuse(constant):
        raise ValueError(f"{constant} is not JSON")
    for metrics in (run_dir / "metrics.json", tmp_path / "metrics" / "metrics.json"):
        record = json.loads(metrics.read_text(), parse_constant=refuse)
        assert 0.0 <= record["miou"] <= 1.0

@pytest.mark.parametrize("flags,file_lr", [(["--lr", "inf"], 1e-3), ([], 10 ** 400)],
                         ids=["flag-inf", "file-int-beyond-float"])
def test_base_lr_beyond_the_float_range_is_refused_before_anything_is_written(
        tmp_path, capsys, flags, file_lr):
    data_dir = save_dataset(generate_synthetic(2, 32, 32, 5, 2, seed=3), tmp_path / "ds")
    cfg_file = tmp_path / "cfg.json"
    cfg_file.write_text(json.dumps({"train": {"base_lr": file_lr}}))
    out = tmp_path / "run"
    code = run(["train", "--data", str(data_dir), "--out", str(out), "--epochs", "1",
                "--warmup-epochs", "0", "--batch-size", "2", "--config", str(cfg_file),
                *flags])
    assert code == 2
    assert "train config key 'base_lr' must be a finite float" in capsys.readouterr().err
    assert not out.exists()


def test_eval_checkpoint_config_value_not_finite_is_io_error(tmp_path, capsys):
    dirs = eval_inputs(tmp_path)
    path = dirs["checkpoint"] / "manifest.json"
    manifest = json.loads(path.read_text())
    manifest["model_config"]["adapter_dropout"] = math.nan
    path.write_text(json.dumps(manifest))
    code = run(["eval", "--checkpoint", str(dirs["checkpoint"]), "--data", str(dirs["data"])])
    assert code == 3
    assert "model config key 'adapter_dropout' must be a finite float" in capsys.readouterr().err


@pytest.mark.parametrize("seeds", ["0", "-1"])
def test_grad_check_with_no_seeds_is_a_config_error(capsys, seeds):
    assert run(["grad-check", "--seeds", seeds]) == 2
    err = capsys.readouterr().err
    assert "at least one seed" in err


@pytest.mark.parametrize("tol", ["-1", "0", "nan", "inf"])
def test_grad_check_with_a_tolerance_that_is_not_positive_and_finite_is_a_config_error(
        capsys, monkeypatch, tol):
    monkeypatch.setattr(verification, "primitive_checks",
                        lambda seed: pytest.fail("a check ran"))
    assert run(["grad-check", "--seeds", "1", "--tol", tol]) == 2
    assert "positive finite tolerance" in capsys.readouterr().err


def test_synth_data_with_a_class_id_at_the_ignore_index_is_a_config_error(tmp_path,
                                                                           capsys):
    out = tmp_path / "ds"
    assert run(["synth-data", "--out", str(out), "--samples", "2", "--classes", "300"]) == 2
    assert "ignore index 255" in capsys.readouterr().err
    assert not out.exists()


def test_train_on_a_dataset_whose_ignore_index_is_a_class_is_io_error(tmp_path, capsys):
    data_dir = save_dataset(generate_synthetic(2, 32, 32, 5, 2, seed=3), tmp_path / "ds")
    manifest = json.loads((data_dir / "manifest.json").read_text())
    manifest["ignore_index"] = 0
    (data_dir / "manifest.json").write_text(json.dumps(manifest))
    out = tmp_path / "run"
    assert run(["train", "--data", str(data_dir), "--out", str(out), "--epochs", "1",
                "--batch-size", "2"]) == 3
    assert "ignore_index 0 is a class id" in capsys.readouterr().err
    assert not out.exists()


@pytest.mark.parametrize("samples", ["0", "-1"])
def test_synth_data_with_no_samples_is_a_config_error(tmp_path, capsys, samples):
    out = tmp_path / "ds"
    assert run(["synth-data", "--out", str(out), "--samples", samples]) == 2
    assert "need at least one sample" in capsys.readouterr().err
    assert not out.exists()


# each request is larger than the address space, so it fails at once
@pytest.mark.parametrize("argv", [
    ["param-count", "--r", "1000000000000000"],
    ["synth-data", "--samples", "1", "--height", "100000000", "--width", "100000000"]],
    ids=["param-count", "synth-data"])
def test_a_size_numpy_cannot_allocate_is_a_config_error(tmp_path, capsys, argv):
    out = tmp_path / "ds"
    extra = ["--out", str(out)] if argv[0] == "synth-data" else []
    assert run(argv + extra) == 2
    assert "config error: Unable to allocate" in capsys.readouterr().err
    assert not out.exists()


DEEP_JSON = "[" * 200_000 + "]" * 200_000


def _put_raw(path, edit, raw):
    """Rewrite the JSON file ``path`` by ``edit``; its value "RAW" becomes the text ``raw``."""
    manifest = json.loads(path.read_text())
    edit(manifest)
    path.write_text(json.dumps(manifest).replace('"RAW"', raw))


@pytest.mark.parametrize("case", ["dataset-height-1e400", "checkpoint-shape-1e400",
                                  "deep-dataset-manifest", "deep-config-file",
                                  "deep-old-manifest"])
def test_malformed_json_exits_with_the_documented_code(tmp_path, capsys, case):
    dirs = eval_inputs(tmp_path)
    data, checkpoint = dirs["data"], dirs["checkpoint"]
    train = ["train", "--data", str(data), "--out", str(tmp_path / "run"), "--epochs", "1",
             "--warmup-epochs", "0"]
    evaluate = ["eval", "--checkpoint", str(checkpoint), "--data", str(data)]
    if case == "dataset-height-1e400":
        _put_raw(data / "manifest.json", lambda m: m.update(height="RAW"), "1e400")
        runs = [(train, 3, "i/o error"), (evaluate, 3, "i/o error")]
    elif case == "checkpoint-shape-1e400":
        _put_raw(checkpoint / "manifest.json",
                 lambda m: m["params"][0].update(shape=["RAW"]), "1e400")
        runs = [(evaluate, 3, "i/o error")]
    elif case == "deep-dataset-manifest":
        (data / "manifest.json").write_text(DEEP_JSON)
        runs = [(evaluate, 3, "i/o error")]
    elif case == "deep-config-file":
        (tmp_path / "config.json").write_text(DEEP_JSON)
        runs = [(train + ["--config", str(tmp_path / "config.json")], 2, "config error")]
    else:
        (data / "manifest.json").write_text(DEEP_JSON)
        (data / "notes.txt").write_text("kept")
        runs = [(["synth-data", "--out", str(data), "--samples", "2"], 0, "")]
    for argv, code, prefix in runs:
        assert run(argv) == code
        assert capsys.readouterr().err.startswith(prefix)
        assert not (tmp_path / "run").exists()
    if case == "deep-old-manifest":
        assert len(load_dataset(data)) == 2
        assert (data / "notes.txt").read_text() == "kept"
