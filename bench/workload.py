"""Run one benchmark workload in this process and print its result.

``run.py`` starts this program once per workload, with one BLAS thread.
The last line of standard output is a JSON object with the workload's
metric values, its output checks and an environment record.

    python3 bench/workload.py --workload train_fused_tiny --seed 0 \
        --seconds 20 --trace 0 --out .bench_out
"""

from __future__ import annotations

import argparse
import ctypes
import hashlib
import json
import math
import os
import platform
import resource
import shutil
import subprocess
import sys
from dataclasses import dataclass
from pathlib import Path
from time import perf_counter

import numpy as np

ROOT = Path(__file__).resolve().parent.parent
sys.path.insert(0, str(ROOT / "src"))

import scipy  # noqa: E402

from adafuse import data, model, training  # noqa: E402
from spans import Tracer, summarize  # noqa: E402

PRIMS = ("matmul", "add", "mul", "layer_norm", "gelu", "softmax", "log_softmax",
         "extract_patches", "upsample_bilinear", "transpose", "reshape", "concat",
         "dropout", "drop_path")


@dataclass(frozen=True)
class Workload:
    kind: str                       # "train" (fit) or "eval" (evaluate)
    preset: str
    modalities: tuple[str, ...]
    active_stages: tuple[int, ...] = (1, 2, 3, 4)
    use_ffm: bool = False
    batch: int = 16
    scenes: int = 200
    warmup: int = 5                 # untimed steps (train) or passes (eval)
    setups: int = 3                 # set-up repetitions per process


WORKLOADS = {
    "train_fused_tiny": Workload("train", "tiny", ("vis", "ir")),
    "train_single_tiny": Workload("train", "tiny", ("vis",)),
    "eval_fused_tiny": Workload("eval", "tiny", ("vis", "ir"), batch=8, scenes=48,
                                warmup=2),
    "train_fused_b2": Workload("train", "b2-like", ("vis", "ir"), active_stages=(3, 4),
                               use_ffm=True, batch=4, scenes=32, warmup=1, setups=2),
}

SIZE = 32
CLASSES = 5
DATA_MODALITIES = 2


class StopRun(Exception):
    """Raised from the step wrapper to end ``fit`` once time is up."""


# ---------------------------------------------------------------------
# host speed
# ---------------------------------------------------------------------

# Time of one calibration kernel on the reference host (2-core shared
# Intel Xeon virtual machine, OpenBLAS 0.3.31, one BLAS thread, in its
# fast phase). Normalized times read as times on a host of that speed.
CALIBRATION_REF_S = 4.0e-3
# Timed wall time between two calibrations.
SLICE_S = 0.25


class HostSpeed:
    """A fixed float32 kernel that uses numpy alone, timed between slices
    of the timed loop and around each set-up.

    A shared host's speed changes by a factor of 1.3 to 1.8 in phases of
    seconds to minutes, and a whole run can fall into one phase. The
    kernel does not depend on adafuse and slows with the host in step
    with adafuse's passes, so a wall time multiplied by
    ``CALIBRATION_REF_S / kernel time`` measures the program at a fixed
    host speed. Like adafuse, the kernel spends about half its time on
    many small numpy calls (interpreter-bound) and half in one GEMM
    (BLAS-bound); either half alone tracks the eval forward or the b2
    step less well. ``measure`` returns the median of three kernel times.
    """

    def __init__(self):
        rng = np.random.default_rng(12345)
        self.small = [rng.standard_normal((16, 16)).astype(np.float32) for _ in range(3)]
        self.big = rng.standard_normal((512, 512)).astype(np.float32)
        self.readings: list[float] = []
        self.kernel()               # untimed: first-call costs

    def kernel(self) -> None:
        x, w, b = self.small
        for _ in range(300):
            x = np.tanh((x @ w) * 0.1 + b).T
        self.big @ self.big

    def measure(self) -> float:
        times = []
        for _ in range(3):
            t0 = perf_counter()
            self.kernel()
            times.append(perf_counter() - t0)
        reading = sorted(times)[1]
        self.readings.append(reading)
        return reading

    @staticmethod
    def factor(before: float, after: float) -> float:
        """Scale for a wall time measured between two readings."""
        return CALIBRATION_REF_S / (0.5 * (before + after))


# ---------------------------------------------------------------------
# set-up
# ---------------------------------------------------------------------

@dataclass
class SetUp:
    dataset: data.SceneDataset
    model: model.FusionModel        # the model the timed loop runs
    in_memory: model.FusionModel    # eval: the model before the checkpoint round trip
    roundtrip_ok: bool


def model_config(w: Workload, seed: int) -> model.ModelConfig:
    return model.ModelConfig(
        preset=w.preset, modalities=w.modalities, channels=(1,) * len(w.modalities),
        density="pair-bi", active_stages=w.active_stages, bottleneck=8,
        use_ffm=w.use_ffm, num_classes=CLASSES, dtype="float32", seed=seed)


def randomize_up_projections(m: model.FusionModel, seed: int) -> None:
    """Nonzero adapter outputs, so the eval forward is not the zero-init
    shortcut of a fresh bank."""
    rng = np.random.default_rng([seed, 7])
    for _key, adapter in sorted(m.bank.adapters.items()):
        adapter.w_up.data[...] = rng.normal(0.0, 0.05, adapter.w_up.shape)
        adapter.b_up.data[...] = rng.normal(0.0, 0.05, adapter.b_up.shape)


def set_up(w: Workload, seed: int, work: Path) -> SetUp:
    generated = data.generate_synthetic(w.scenes, SIZE, SIZE, CLASSES, DATA_MODALITIES,
                                        seed=seed)
    data.save_dataset(generated, work / "data")
    dataset = data.load_dataset(work / "data")
    roundtrip_ok = (
        len(generated.samples) == len(dataset.samples)
        and generated.num_classes == dataset.num_classes
        and generated.ignore_index == dataset.ignore_index
        and list(generated.modalities) == list(dataset.modalities)
        and all(np.array_equal(a.label, b.label)
                and sorted(a.images) == sorted(b.images)
                and all(np.array_equal(a.images[k], b.images[k]) for k in a.images)
                for a, b in zip(generated.samples, dataset.samples)))
    built = model.FusionModel(model_config(w, seed))
    run_model = built
    if w.kind == "eval":
        randomize_up_projections(built, seed)
        training.save_checkpoint(built, work / "checkpoint")
        run_model = training.load_checkpoint(work / "checkpoint")
    return SetUp(dataset, run_model, built, roundtrip_ok)


def timed_set_ups(w: Workload, seed: int, work: Path,
                  speed: HostSpeed | None) -> tuple[SetUp, list[float], list[float]]:
    """Set up ``w.setups`` times; return the last set-up, the wall times
    and the times normalized to the reference host speed (equal to the
    wall times without ``speed``)."""
    times, normalized = [], []
    before = speed.measure() if speed is not None else None
    for k in range(w.setups):
        t0 = perf_counter()
        result = set_up(w, seed, work / f"setup{k}")
        times.append(perf_counter() - t0)
        if speed is None:
            normalized.append(times[-1])
        else:
            after = speed.measure()
            normalized.append(times[-1] * HostSpeed.factor(before, after))
            before = after
    return result, times, normalized


def frozen_digest(m: model.FusionModel) -> str | None:
    """SHA-256 over every encoder parameter, whatever its
    ``requires_grad``; None if any of them requires a gradient, since
    the encoders must stay frozen."""
    h = hashlib.sha256()
    for modality, enc in zip(m.config.modalities, m.encoders):
        for name, p in enc.named_parameters(f"encoder.{modality}"):
            if p.requires_grad:
                return None
            h.update(name.encode())
            h.update(np.ascontiguousarray(p.data).view(np.uint8))
    return h.hexdigest()


# ---------------------------------------------------------------------
# closed loops
# ---------------------------------------------------------------------

class Clock:
    """Per-step times of one entry point; the first ``warmup`` units are
    excluded from the timed window, which lasts ``seconds``.

    With ``speed``, the timed window is cut into slices of about
    ``SLICE_S`` seconds with a calibration between two slices (called
    from ``unit_start``, before a step or batch begins). Each slice's
    wall time, and the times of its steps, are scaled by the host speed
    read before and after it. Calibration time is not part of the timed
    window.

    ``tracer.step`` advances when a step ends, so the batching done
    before step ``i`` is tagged with ``i``.
    """

    def __init__(self, seconds: float, warmup: int, tracer: Tracer | None,
                 speed: HostSpeed | None = None):
        self.seconds = seconds
        self.warmup = warmup
        self.tracer = tracer
        self.speed = speed
        self.times: list[float] = []
        self.batches: list[int] = []
        self.failed = 0
        self.first_timed = 0        # index of the first timed step
        self.t_start = math.nan
        self.t_end = math.nan
        self.deadline = math.inf
        self.timing = False
        # closed slices: (first step index, end step index, wall s, factor)
        self.slices: list[tuple[int, int, float, float]] = []
        self.slice_t0 = math.nan
        self.slice_first = 0
        self.reading = math.nan
        if tracer is not None:
            tracer.step = 0

    def record(self, t0: float, t1: float, batch: int) -> None:
        self.times.append(t1 - t0)
        self.batches.append(batch)
        if self.tracer is not None:
            self.tracer.step += 1

    def start_timing(self) -> None:
        if self.speed is not None:
            self.reading = self.speed.measure()
        self.first_timed = len(self.times)
        self.t_start = perf_counter()
        self.deadline = self.t_start + self.seconds
        self.timing = True
        if self.speed is not None:
            self._open_slice()

    def _open_slice(self) -> None:
        self.slice_first = len(self.times)
        self.slice_t0 = perf_counter()

    def _close_slice(self, end: float) -> None:
        t0 = perf_counter()
        after = self.speed.measure()
        self.slices.append((self.slice_first, len(self.times), end - self.slice_t0,
                            HostSpeed.factor(self.reading, after)))
        self.reading = after
        self.deadline += perf_counter() - t0

    def unit_start(self) -> None:
        if self.timing and self.speed is not None:
            now = perf_counter()
            if now - self.slice_t0 >= SLICE_S:
                self._close_slice(now)
                self._open_slice()

    def stop_timing(self) -> None:
        """Close the last slice at ``t_end``, the end of the last timed
        unit."""
        if self.timing and self.speed is not None:
            self._close_slice(self.t_end)
        self.timing = False

    def timed_times(self) -> list[float]:
        return self.times[self.first_timed:]

    def timed_samples(self) -> int:
        return sum(self.batches[self.first_timed:])

    def timed_s(self) -> float:
        """Wall time of the timed window, calibrations left out."""
        if self.speed is None:
            return self.t_end - self.t_start
        return sum(wall for _i, _j, wall, _f in self.slices)

    def samples_per_s(self) -> float:
        return self.timed_samples() / self.timed_s()

    def normalized_s(self) -> float:
        """The timed window's wall time at the reference host speed."""
        return sum(wall * f for _i, _j, wall, f in self.slices)

    def normalized_times(self) -> list[float]:
        """The timed step times at the reference host speed."""
        return [t * f for i, j, _wall, f in self.slices for t in self.times[i:j]]


def run_train(w: Workload, s: SetUp, seed: int, seconds: float,
              tracer: Tracer | None = None, speed: HostSpeed | None = None) -> Clock:
    """Closed loop over ``fit``: each ``train_step`` starts when the
    previous one returns; ``fit`` restarts until time is up."""
    clock = Clock(seconds, w.warmup, tracer, speed)
    step_fn = training.train_step

    def timed_step(m, images, labels, optimizer, lr, ignore_index=255):
        if perf_counter() >= clock.deadline:
            raise StopRun
        clock.unit_start()
        t0 = perf_counter()
        try:
            loss = step_fn(m, images, labels, optimizer, lr, ignore_index)
        except training.TrainingError:
            loss = math.nan
        t1 = perf_counter()
        clock.record(t0, t1, len(labels))
        if not math.isfinite(loss):
            clock.failed += 1
        clock.t_end = t1
        if len(clock.times) == w.warmup:
            clock.start_timing()
        return loss

    cfg = training.TrainConfig(base_lr=1e-2, warmup_epochs=3, decay_factor=0.01,
                               epochs=30, batch_size=w.batch, seed=seed)
    training.train_step = timed_step
    try:
        while True:
            training.fit(s.model, s.dataset, cfg)
    except StopRun:
        clock.stop_timing()
    finally:
        training.train_step = step_fn
    return clock


def run_eval(w: Workload, s: SetUp, seconds: float, reference: np.ndarray,
             tracer: Tracer | None = None, speed: HostSpeed | None = None) -> Clock:
    """Closed loop of ``evaluate`` passes; each ``logits_at`` batch is a
    step. A pass whose confusion matrix differs from ``reference`` fails
    all of its batches."""
    clock = Clock(seconds, w.warmup, tracer, speed)
    logits_at = model.FusionModel.logits_at

    def timed_logits_at(m, images, out_h, out_w, train=False):
        clock.unit_start()
        t0 = perf_counter()
        out = logits_at(m, images, out_h, out_w, train)
        clock.record(t0, perf_counter(), out.shape[0])
        return out

    model.FusionModel.logits_at = timed_logits_at
    try:
        passes = 0
        while perf_counter() < clock.deadline:
            before = len(clock.times)
            result = training.evaluate(s.model, s.dataset, batch_size=w.batch)
            if not np.array_equal(np.asarray(result["confusion"]), reference):
                clock.failed += len(clock.times) - before
            passes += 1
            clock.t_end = perf_counter()
            if passes == w.warmup:
                clock.start_timing()
        clock.stop_timing()
    finally:
        model.FusionModel.logits_at = logits_at
    return clock


def run_loop(w: Workload, s: SetUp, seed: int, seconds: float, reference,
             tracer: Tracer | None = None, speed: HostSpeed | None = None) -> Clock:
    if w.kind == "train":
        return run_train(w, s, seed, seconds, tracer, speed)
    return run_eval(w, s, seconds, reference, tracer, speed)


# ---------------------------------------------------------------------
# metrics
# ---------------------------------------------------------------------

def per_layer(summary: dict) -> dict:
    """Per-step (per-batch for eval) layer metrics; I/O metrics are per
    call. Layers a workload does not run read 0."""
    layers = summary["layers"]
    counts = summary["counts"]
    n = max(summary["steps"], 1)
    empty = {"calls": 0, "fwd_ms": 0.0, "self_ms": 0.0, "bwd_ms": 0.0}

    def get(name):
        return layers.get(name, empty)

    def calls(name):
        return counts["calls"].get(name, 0)

    def per_call(name):
        e = get(name)
        return e["fwd_ms"] / e["calls"] if e["calls"] else 0.0

    out = {}
    for p in PRIMS:
        e = get(f"tensor.{p}")
        out[f"tensor.{p}.fwd_ms"] = e["fwd_ms"] / n
        out[f"tensor.{p}.bwd_ms"] = e["bwd_ms"] / n
        out[f"tensor.{p}.calls"] = calls(f"tensor.{p}")
    out["tensor.backward_ms"] = get("tensor.backward")["fwd_ms"] / n
    out["tensor.tape_nodes"] = counts["tape_nodes"]
    out["tensor.grad_elems"] = counts["grad_elems"]
    out["tensor.useful_grad_ratio"] = (counts["useful_grad_elems"] / counts["grad_elems"]
                                       if counts["grad_elems"] else 0.0)
    for name in ("encoder.patch_embed", "encoder.attention", "encoder.mlp",
                 "encoder.block", "encoder.stage_norm", "adapters.adapter"):
        out[f"{name}.fwd_ms"] = get(name)["fwd_ms"] / n
        out[f"{name}.bwd_ms"] = get(name)["bwd_ms"] / n
        out[f"{name}.calls"] = calls(name)
    out["adapters.fused_block.fwd_ms"] = get("adapters.fused_block")["fwd_ms"] / n
    out["adapters.fused_encode.fwd_ms"] = get("adapters.fused_encode")["fwd_ms"] / n
    for name in ("heads.modal_merge", "heads.ffm", "heads.decoder"):
        out[f"{name}.fwd_ms"] = get(name)["fwd_ms"] / n
        out[f"{name}.bwd_ms"] = get(name)["bwd_ms"] / n
    out["model.logits_at.fwd_ms"] = get("model.logits_at")["fwd_ms"] / n
    step_ms = get("training.train_step")["fwd_ms"] / n
    out["training.train_step_ms"] = step_ms
    out["training.cross_entropy.fwd_ms"] = get("training.cross_entropy")["fwd_ms"] / n
    out["training.cross_entropy.bwd_ms"] = get("training.cross_entropy")["bwd_ms"] / n
    out["training.adamw_step_ms"] = get("training.adamw_step")["fwd_ms"] / n
    out["training.evaluate_ms"] = per_call("training.evaluate")
    out["training.confusion_update_ms"] = get("training.confusion_update")["fwd_ms"] / n
    out["training.save_checkpoint_ms"] = per_call("training.save_checkpoint")
    out["training.load_checkpoint_ms"] = per_call("training.load_checkpoint")
    # forward, backward and optimizer spans as a share of the step span
    covered = (out["model.logits_at.fwd_ms"] + out["training.cross_entropy.fwd_ms"]
               + out["tensor.backward_ms"] + out["training.adamw_step_ms"])
    out["training.step_coverage"] = covered / step_ms if step_ms else 0.0
    out["data.generate_ms"] = per_call("data.generate")
    out["data.save_dataset_ms"] = per_call("data.save_dataset")
    out["data.load_dataset_ms"] = per_call("data.load_dataset")
    out["data.batch_wait_ms"] = (get("data.batch_iter")["fwd_ms"]
                                 + get("data.stack_batch")["fwd_ms"]) / n
    return out


# ---------------------------------------------------------------------
# environment
# ---------------------------------------------------------------------

def blas_threads() -> int | None:
    """Thread count reported by the OpenBLAS numpy loaded, if any."""
    libdir = Path(np.__file__).resolve().parent.parent / "numpy.libs"
    for path in sorted(libdir.glob("*openblas*")):
        lib = ctypes.CDLL(str(path))
        for symbol in ("scipy_openblas_get_num_threads64_", "openblas_get_num_threads64_",
                       "openblas_get_num_threads"):
            fn = getattr(lib, symbol, None)
            if fn is not None:
                fn.restype = ctypes.c_int
                return int(fn())
    return None


def git_commit() -> str:
    try:
        out = subprocess.run(["git", "-C", str(ROOT), "rev-parse", "--show-toplevel", "HEAD"],
                             capture_output=True, text=True, timeout=10)
    except (OSError, subprocess.TimeoutExpired):
        return "unknown"
    lines = out.stdout.split()
    if out.returncode != 0 or len(lines) != 2 or Path(lines[0]).resolve() != ROOT:
        return "unknown"
    return lines[1]


def environment(seed: int) -> dict:
    blas = np.show_config(mode="dicts")["Build Dependencies"]["blas"]
    return {
        "nproc": len(os.sched_getaffinity(0)),
        "python": platform.python_version(),
        "numpy": np.__version__,
        "scipy": scipy.__version__,
        "blas": blas.get("name"),
        "blas_version": blas.get("version"),
        "blas_threads": blas_threads(),
        "git_commit": git_commit(),
        "seed": seed,
    }


# ---------------------------------------------------------------------
# one run
# ---------------------------------------------------------------------

def run(name: str, seed: int, seconds: float, traced: bool, out_dir: Path) -> dict:
    w = WORKLOADS[name]
    work = out_dir / f"work-{name}-{os.getpid()}"
    tracer = Tracer() if traced else None
    # end-to-end times are normalized to the reference host speed; the
    # traced run reports wall times
    speed = None if traced else HostSpeed()
    try:
        if tracer is not None:
            tracer.install()            # set-up I/O spans
        s, setup_wall, setup_times = timed_set_ups(w, seed, work, speed)
        if tracer is not None:
            tracer.uninstall()
        reference = None
        if w.kind == "eval":
            reference = np.asarray(training.evaluate(s.in_memory, s.dataset,
                                                     batch_size=w.batch)["confusion"])
        digest = frozen_digest(s.model) if w.kind == "train" else None

        if tracer is None:
            clock = run_loop(w, s, seed, seconds, reference, speed=speed)
            clocks = [clock]
            # raw samples; run.py pools them over processes into metrics.
            # step_s, timed_s and setup_s are normalized to the reference
            # host speed, the *_wall_s entries are not
            metrics = {}
            details = {
                "step_s": clock.normalized_times(),
                "step_wall_s": clock.timed_times(),
                "samples": clock.timed_samples(),
                "timed_s": clock.normalized_s(),
                "timed_wall_s": clock.timed_s(),
                "setup_s": setup_times,
                "setup_wall_s": setup_wall,
                "calibration_s": speed.readings,
                "peak_rss_mb": resource.getrusage(resource.RUSAGE_SELF).ru_maxrss / 1024.0,
            }
        else:
            plain = run_loop(w, s, seed, seconds / 3.0, reference)
            tracer.install()
            try:
                clock = run_loop(w, s, seed, seconds * 2.0 / 3.0, reference, tracer)
            finally:
                tracer.uninstall()
            clocks = [plain, clock]
            # the clock advances tracer.step after each step, so step i's
            # spans carry id i; the warmup steps are left out
            summary = summarize(tracer, list(range(clock.first_timed, len(clock.times))),
                                dict(enumerate(clock.batches)))
            metrics = per_layer(summary)
            metrics["trace.untraced_samples_per_s"] = plain.samples_per_s()
            metrics["trace.traced_samples_per_s"] = clock.samples_per_s()
            metrics["trace.overhead_ratio"] = (metrics["trace.untraced_samples_per_s"]
                                               / metrics["trace.traced_samples_per_s"] - 1.0)
            details = {"traced_steps": summary["steps"],
                       "counts_batch": summary["counts"]["batch"],
                       "counts_repeat": summary["counts_repeat"]}
            stem = f"{name}-seed{seed}"
            tracer.save(out_dir / f"{stem}-spans.npz")
            (out_dir / f"{stem}-profile.json").write_text(json.dumps(summary, indent=1))

        attempted = sum(len(c.times) for c in clocks)
        failed = sum(c.failed for c in clocks)
        checks = {"dataset_roundtrip_identical": s.roundtrip_ok}
        if w.kind == "train":
            checks["losses_finite"] = failed == 0
            checks["frozen_encoders_byte_identical"] = (
                digest is not None and frozen_digest(s.model) == digest)
            if not checks["frozen_encoders_byte_identical"]:
                failed = attempted
        else:
            checks["confusion_identical"] = failed == 0
        if traced:
            checks["exact_counts_repeat"] = details["counts_repeat"]
        return {
            "workload": name, "seed": seed, "seconds": seconds, "trace": int(traced),
            "env": environment(seed),
            "correct": all(checks.values()) and failed == 0,
            "attempted": attempted, "failed": failed,
            "checks": checks, "metrics": metrics, "details": details,
        }
    finally:
        shutil.rmtree(work, ignore_errors=True)


def main(argv=None) -> int:
    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    parser.add_argument("--workload", required=True, choices=sorted(WORKLOADS))
    parser.add_argument("--seed", type=int, required=True)
    parser.add_argument("--seconds", type=float, required=True)
    parser.add_argument("--trace", type=int, choices=(0, 1), required=True)
    parser.add_argument("--out", type=Path, required=True)
    args = parser.parse_args(argv)
    args.out.mkdir(parents=True, exist_ok=True)
    result = run(args.workload, args.seed, args.seconds, bool(args.trace), args.out)
    print(json.dumps(result))
    return 0


if __name__ == "__main__":
    sys.exit(main())
