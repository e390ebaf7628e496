"""Command-line entry point.

Subcommands: synth-data, train, eval, param-count, grad-check,
equiv-check. Exit codes: 0 success, 1 verification failure, 2 config
error, 3 I/O error. Every command takes --seed and echoes its resolved
configuration into the artifacts it writes.
"""

from __future__ import annotations

import argparse
import json
import sys
from pathlib import Path

from .adapters import DENSITIES
from .budget import budget_report
from .data import generate_synthetic, load_dataset, save_dataset
from .encoder import PRESETS, EncoderConfig
from .model import DTYPES, FusionModel, ModelConfig
from .training import (TrainConfig, TrainingError, evaluate, fit, format_metrics,
                       load_checkpoint, save_checkpoint)
from .verification import equivalence_suite, gradient_suite

OK, VERIFY_FAIL, CONFIG_ERROR, IO_ERROR = 0, 1, 2, 3


# argparse types (their names appear in usage errors) for comma-separated
# lists; an empty value means the flag was not given
def int_list(text: str) -> tuple[int, ...] | None:
    return tuple(int(v) for v in text.split(",") if v.strip()) if text else None


def name_list(text: str) -> tuple[str, ...] | None:
    return tuple(v.strip() for v in text.split(",") if v.strip()) if text else None


def _load_config_file(path: str | None) -> dict:
    if path is None:
        return {}
    p = Path(path)
    if not p.exists():
        raise ValueError(f"config file {path!r} does not exist")
    try:
        data = json.loads(p.read_text(encoding="utf-8"))
    except (ValueError, RecursionError) as exc:   # JSON syntax, UTF-8 or nesting depth
        raise ValueError(f"unreadable config file {path!r}: {exc}") from None
    if not isinstance(data, dict):
        raise ValueError("config file must hold a JSON object")
    unknown = set(data) - {"model", "train"}
    if unknown:
        raise ValueError(f"unknown config sections: {sorted(unknown)}")
    for name, section in data.items():
        if not isinstance(section, dict):
            raise ValueError(f"config section {name!r} must be a JSON object")
    return data


def build_parser() -> argparse.ArgumentParser:
    parser = argparse.ArgumentParser(
        prog="adafuse",
        description="Multimodal segmentation with frozen encoders stitched "
                    "together by cross-modal bottleneck adapters.")
    sub = parser.add_subparsers(dest="command", required=True)

    p = sub.add_parser("synth-data", help="generate a synthetic dataset directory")
    p.add_argument("--out", required=True, help="output dataset directory")
    p.add_argument("--samples", type=int, default=200)
    p.add_argument("--height", type=int, default=32)
    p.add_argument("--width", type=int, default=32)
    p.add_argument("--classes", type=int, default=5)
    p.add_argument("--modalities", type=int, default=2,
                   help="number of complementary modalities")
    p.add_argument("--split", default="train")
    p.add_argument("--seed", type=int, default=0)
    p.set_defaults(func=cmd_synth_data)

    p = sub.add_parser("train", help="train adapters/head on a dataset")
    p.add_argument("--data", required=True, help="dataset directory")
    p.add_argument("--out", required=True, help="run output directory")
    p.add_argument("--config", help="JSON config file ({'model': ..., 'train': ...})")
    # --preset .. --decay-factor and --seed set the ModelConfig and/or
    # TrainConfig field that their dest names
    p.add_argument("--preset", choices=PRESETS)
    p.add_argument("--modalities", type=name_list,
                   help="comma-separated modality names (default: all in the dataset)")
    p.add_argument("--density", choices=DENSITIES)
    p.add_argument("--stages", dest="active_stages", type=int_list,
                   help="active fusion stages, e.g. 3,4")
    p.add_argument("--r", dest="bottleneck", type=int, help="adapter bottleneck width")
    p.add_argument("--ffm", dest="use_ffm", action="store_true", default=None,
                   help="enable the per-stage feature-fusion merge")
    p.add_argument("--dtype", choices=DTYPES)
    p.add_argument("--epochs", type=int)
    p.add_argument("--batch-size", type=int)
    p.add_argument("--lr", dest="base_lr", type=float)
    p.add_argument("--warmup-epochs", type=float)
    p.add_argument("--decay-factor", type=float)
    p.add_argument("--eval-data", help="optional eval dataset directory")
    p.add_argument("--seed", type=int)
    p.set_defaults(func=cmd_train)

    p = sub.add_parser("eval", help="evaluate a checkpoint on a dataset")
    p.add_argument("--checkpoint", required=True)
    p.add_argument("--data", required=True)
    p.add_argument("--out", help="directory for metrics artifacts")
    p.set_defaults(func=cmd_eval)

    p = sub.add_parser("param-count", help="analytic vs enumerated adapter budget")
    p.add_argument("--preset", default="b2-like", choices=PRESETS)
    p.add_argument("--modalities", type=int, default=2)
    p.add_argument("--density", default="pair-bi", choices=DENSITIES)
    p.add_argument("--stages", default="1,2,3,4")
    p.add_argument("--r", type=int, default=8)
    bias = p.add_mutually_exclusive_group()
    bias.add_argument("--include-bias", dest="include_bias", action="store_true",
                      default=True)
    bias.add_argument("--weights-only", dest="include_bias", action="store_false")
    p.set_defaults(func=cmd_param_count)

    p = sub.add_parser("grad-check", help="finite-difference gradient suite")
    p.add_argument("--seeds", type=int, default=10, help="number of seeds")
    p.add_argument("--seed", type=int, default=0, help="first seed")
    p.add_argument("--tol", type=float, default=1e-4)
    p.set_defaults(func=cmd_grad_check)

    p = sub.add_parser("equiv-check", help="density equivalence verification")
    p.add_argument("--seed", type=int, default=0)
    p.set_defaults(func=cmd_equiv_check)
    return parser


# ---------------------------------------------------------------------
# commands
# ---------------------------------------------------------------------

def cmd_synth_data(args) -> int:
    dataset = generate_synthetic(args.samples, args.height, args.width,
                                 args.classes, args.modalities, args.seed,
                                 split=args.split)
    out = save_dataset(dataset, args.out)
    print(f"wrote {len(dataset)} samples to {out}")
    return OK


def _resolve_train_configs(args, dataset) -> tuple[ModelConfig, TrainConfig]:
    """Each config from the file's values, then every flag given for one
    of its fields, then the dataset's channels and class count."""
    file_cfg = _load_config_file(args.config)
    model_kv = dict(file_cfg.get("model", {}))
    train_kv = dict(file_cfg.get("train", {}))
    for kv, cls in ((model_kv, ModelConfig), (train_kv, TrainConfig)):
        kv.update((k, v) for k, v in vars(args).items()
                  if v is not None and k in cls.__dataclass_fields__)

    names = model_kv.get("modalities", dataset.modality_names)
    ModelConfig.check_type("modalities", names)
    model_kv.update(modalities=names, channels=_dataset_channels(dataset, names),
                    num_classes=dataset.num_classes)
    return ModelConfig.from_dict(model_kv), TrainConfig.from_dict(train_kv)


def _dataset_channels(dataset, names) -> tuple[int, ...]:
    """The dataset's channel count for each modality in ``names``; a
    modality the dataset lacks is a config error."""
    channel_of = dict(dataset.modalities)
    missing = [n for n in names if n not in channel_of]
    if missing:
        raise ValueError(f"modalities {missing} not present in the dataset "
                         f"(has {dataset.modality_names})")
    return tuple(channel_of[n] for n in names)


def _check_dataset(dataset, config: ModelConfig) -> None:
    """Refuse a dataset with no sample or no labeled pixel, one that lacks a
    model modality, or one whose channels, classes or image size it cannot take."""
    if len(dataset) == 0:
        raise ValueError("dataset holds no samples")
    if all((s.label == dataset.ignore_index).all() for s in dataset.samples):
        raise ValueError(f"dataset holds no labeled pixel, only {dataset.ignore_index}")
    channels = _dataset_channels(dataset, config.modalities)
    if channels != config.channels:
        raise ValueError(f"dataset channels {dict(zip(config.modalities, channels))}, "
                         f"the model takes {dict(zip(config.modalities, config.channels))}")
    if dataset.num_classes != config.num_classes:
        raise ValueError(f"dataset has {dataset.num_classes} classes, the model "
                         f"predicts {config.num_classes}")
    multiple = EncoderConfig.preset(config.preset).size_multiple
    if dataset.height % multiple or dataset.width % multiple:
        raise ValueError(f"dataset images are {dataset.height}x{dataset.width}, not "
                         f"multiples of {multiple} as the {config.preset} encoder needs")


def _write_metrics(out: Path, metrics: dict) -> None:
    text, csv = format_metrics(metrics)
    out.mkdir(parents=True, exist_ok=True)
    (out / "metrics.json").write_text(text, encoding="utf-8")
    (out / "per_class.csv").write_text(csv, encoding="utf-8")


def cmd_train(args) -> int:
    dataset = load_dataset(args.data)
    model_cfg, train_cfg = _resolve_train_configs(args, dataset)
    _check_dataset(dataset, model_cfg)
    eval_set = load_dataset(args.eval_data) if args.eval_data else None
    if eval_set is not None:
        _check_dataset(eval_set, model_cfg)
    model = FusionModel(model_cfg)

    out = Path(args.out)
    out.mkdir(parents=True, exist_ok=True)
    resolved = {"model": model_cfg.to_dict(), "train": train_cfg.to_dict(),
                "data": str(args.data)}
    (out / "config.json").write_text(json.dumps(resolved, indent=1),
                                     encoding="utf-8")

    with open(out / "train_log.csv", "w", encoding="utf-8") as train_log:
        train_log.write("epoch,mean_loss,lr\n")

        def log(entry):
            train_log.write(f"{entry['epoch']},{entry['mean_loss']:.6f},{entry['lr']:.3e}\n")
            train_log.flush()
            print(f"epoch {entry['epoch']:>3}  loss {entry['mean_loss']:.4f}")

        fit(model, dataset, train_cfg, log=log)
    save_checkpoint(model, out / "checkpoint")
    print(f"checkpoint written to {out / 'checkpoint'}")

    if eval_set is not None:
        metrics = evaluate(model, eval_set)
        _write_metrics(out, metrics)
        print(f"mIoU {metrics['miou'] * 100.0:.2f}%")
    return OK


def cmd_eval(args) -> int:
    model = load_checkpoint(args.checkpoint)
    dataset = load_dataset(args.data)
    _check_dataset(dataset, model.config)
    metrics = evaluate(model, dataset)
    print(format_metrics(metrics)[1].strip())
    print(f"mIoU {metrics['miou'] * 100.0:.2f}%  "
          f"pixel-acc {metrics['pixel_accuracy'] * 100.0:.2f}%")
    if args.out:
        _write_metrics(Path(args.out), metrics)
    return OK


def cmd_param_count(args) -> int:
    record, table = budget_report(args.preset, args.modalities, args.density,
                                  int_list(args.stages) or (), args.r)
    print(table)
    for key, value in record.items():
        print(f"{key}={value}")
    chosen = record["analytic_with_biases"] if args.include_bias \
        else record["analytic_weights_only"]
    print(f"count={chosen}")
    return OK if record["match"] else VERIFY_FAIL


def cmd_grad_check(args) -> int:
    report = gradient_suite(seeds=range(args.seed, args.seed + args.seeds),
                            tol=args.tol)
    for name, err in sorted(report["checks"].items()):
        status = "ok" if err < args.tol else "FAIL"
        print(f"{status:>4}  {name:<20} max rel err {err:.3e}")
    print(f"gradient suite {'PASSED' if report['passed'] else 'FAILED'} "
          f"(tol {args.tol:g}, {len(report['seeds'])} seeds)")
    return OK if report["passed"] else VERIFY_FAIL


def cmd_equiv_check(args) -> int:
    suite = equivalence_suite(args.seed)
    for dtype, rep in suite["reports"].items():
        print(f"[{dtype}] shared == pair-bi (M=2):      {rep['m2_shared_vs_pair_bi']}")
        print(f"[{dtype}] tied uni == pair-bi (M=2):    {rep['m2_tied_uni_vs_pair_bi']}")
        print(f"[{dtype}] shared != pair-bi (M=3):      "
              f"{rep['m3_shared_vs_pair_bi_differ']} "
              f"(max abs diff {rep['m3_max_abs_diff']:.3e})")
    print(f"equivalence check {'PASSED' if suite['passed'] else 'FAILED'}")
    return OK if suite["passed"] else VERIFY_FAIL


def main(argv=None) -> int:
    parser = build_parser()
    args = parser.parse_args(argv)
    try:
        return args.func(args)
    except OSError as exc:        # StoreError is one
        print(f"i/o error: {exc}", file=sys.stderr)
        return IO_ERROR
    except TrainingError as exc:
        print(f"training aborted: {exc}", file=sys.stderr)
        return VERIFY_FAIL
    except (ValueError, MemoryError) as exc:   # a size numpy cannot allocate
        print(f"config error: {exc}", file=sys.stderr)
        return CONFIG_ERROR


if __name__ == "__main__":
    sys.exit(main())
