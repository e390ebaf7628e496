"""Print the minor page faults, time and peak RSS of fit-driven training steps.

Two runs of the ``tiny`` preset, each in a fresh process with one BLAS
thread: ``single-tiny`` (vis only, no adapters) and ``fused-tiny``
(vis+ir, adapters in every stage). Each calls ``fit`` for 2 epochs over
200 synthetic scenes (32x32, 5 classes) at batch 16. Every
``train_step`` call ``fit`` makes is timed, and its minor page faults are
the change in ``ru_minflt`` across the call. Each run prints one line:
the step count, the median minor faults per step, the median step time
and the process's ``ru_maxrss`` when ``fit`` returns. It checks nothing;
to compare two source trees, run the script against each tree's ``src``:

    PYTHONPATH=/path/to/old/src python3 tools/step_memory.py
    PYTHONPATH=src python3 tools/step_memory.py
"""

import os

for _var in ("OPENBLAS_NUM_THREADS", "OMP_NUM_THREADS", "MKL_NUM_THREADS"):
    os.environ[_var] = "1"          # before numpy loads its BLAS

import resource
import statistics
import subprocess
import sys
import time

RUNS = {"single-tiny": ("vis",), "fused-tiny": ("vis", "ir")}
SCENES, SIZE, CLASSES, BATCH, EPOCHS = 200, 32, 5, 16, 2


def measure(name: str) -> str:
    from adafuse import FusionModel, ModelConfig, TrainConfig, fit, generate_synthetic
    from adafuse import training

    modalities = RUNS[name]
    dataset = generate_synthetic(SCENES, SIZE, SIZE, num_classes=CLASSES, num_modalities=2,
                                 seed=0)
    model = FusionModel(ModelConfig(modalities=modalities, channels=(1,) * len(modalities),
                                    num_classes=CLASSES, dtype="float32"))
    faults, times = [], []
    step = training.train_step

    def measured(*args, **kwargs):
        before = resource.getrusage(resource.RUSAGE_SELF).ru_minflt
        start = time.perf_counter()
        try:
            return step(*args, **kwargs)
        finally:
            times.append(time.perf_counter() - start)
            faults.append(resource.getrusage(resource.RUSAGE_SELF).ru_minflt - before)

    training.train_step = measured
    fit(model, dataset, TrainConfig(base_lr=1e-3, warmup_epochs=0.0, epochs=EPOCHS,
                                    batch_size=BATCH))
    maxrss_mib = resource.getrusage(resource.RUSAGE_SELF).ru_maxrss / 1024.0
    return (f"{name}: {len(times)} steps, minor faults per step (median) "
            f"{statistics.median(faults):.0f}, step median {1e3 * statistics.median(times):.1f} ms, "
            f"ru_maxrss {maxrss_mib:.1f} MiB")


def main() -> None:
    if len(sys.argv) == 2:
        print(measure(sys.argv[1]), flush=True)
        return
    for name in RUNS:
        subprocess.run([sys.executable, __file__, name], check=True)


if __name__ == "__main__":
    main()
