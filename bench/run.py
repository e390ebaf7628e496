"""Benchmark entry point: run adafuse workloads and print their metrics.

    python3 bench/run.py                                  # every workload
    python3 bench/run.py --workload train_fused_tiny --seed 3 --seconds 16 --trace 0
    python3 bench/run.py --workload eval_fused_tiny --trace 1   # per-layer

A benchmark harness calls the program once per workload, as
``--workload <name> --seed <n> --seconds <run_seconds> --trace <0|1>``,
and reads the unprefixed metric names of that workload. Without
``--workload`` every workload runs, and the metric names are prefixed
with ``<workload>/``.

Each workload runs in child processes (``bench/workload.py``) with one
BLAS thread, one process at a time. An untraced run splits its timed
loop over two processes and pools their samples, with its times
normalized to a reference host speed (see "Host speed" in
``bench/README.md``); a traced run uses one. Metric names and units come
from ``BENCHMARK.json``: ``--trace 0`` prints its ``end_to_end`` metrics,
``--trace 1`` its ``per_layer`` metrics. The last line of standard output
is one JSON object with the keys ``correct``, ``attempted``, ``failed``
and ``metrics``. Full results, with the environment record, are written
to ``.bench_out/``.
"""

from __future__ import annotations

import argparse
import json
import os
import statistics
import subprocess
import sys
from pathlib import Path

ROOT = Path(__file__).resolve().parent.parent
OUT_DIR = ROOT / ".bench_out"
CHILD_TIMEOUT_S = 170
# An untraced run splits its timed loop over this many processes and
# reports the smallest of their peak RSS, because a process's peak has
# not always repeated (see bench/README.md). Each process must run long
# enough for its peak to level off: about 26 timed steps on
# train_fused_tiny, 7 on train_fused_b2.
PROCESSES = 2
# Printed beside the end-to-end metrics but not listed in BENCHMARK.json:
# the tail step time, whose run-to-run spread on a shared host comes
# near the largest bound a listed metric may have (0.25), the throughput
# at this host's own speed, and the host-speed reading it was normalized
# with (see bench/README.md).
UNLISTED_UNITS = {"step_ms_tail": "ms", "wall_samples_per_s": "samples/s",
                  "calibration_ms": "ms"}


class BenchError(RuntimeError):
    pass


def load_spec() -> dict:
    if not (ROOT / "src" / "adafuse" / "__init__.py").is_file():
        raise BenchError(f"no adafuse sources under {ROOT / 'src'}")
    return json.loads((ROOT / "BENCHMARK.json").read_text(encoding="utf-8"))


def run_child(name: str, args, seconds: float) -> dict:
    env = dict(os.environ, OPENBLAS_NUM_THREADS="1", OMP_NUM_THREADS="1",
               MKL_NUM_THREADS="1")
    cmd = [sys.executable, str(ROOT / "bench" / "workload.py"), "--workload", name,
           "--seed", str(args.seed), "--seconds", str(seconds),
           "--trace", str(args.trace), "--out", str(OUT_DIR)]
    try:
        proc = subprocess.run(cmd, cwd=ROOT, env=env, stdout=subprocess.PIPE, text=True,
                              timeout=CHILD_TIMEOUT_S)
    except subprocess.TimeoutExpired:
        raise BenchError(f"{name}: no result within {CHILD_TIMEOUT_S} s") from None
    lines = proc.stdout.strip().splitlines()
    if proc.returncode != 0 or not lines:
        raise BenchError(f"{name}: workload process exited with {proc.returncode}")
    return json.loads(lines[-1])


def tail(times_ms: list[float]) -> tuple[float, float]:
    """(value, percentile) of the highest percentile with at least ten
    samples beyond it."""
    ordered = sorted(times_ms)
    n = len(ordered)
    if n <= 10:
        return ordered[-1], 100.0
    return ordered[n - 11], 100.0 * (n - 10) / n


def pool(parts: list[dict]) -> dict:
    """One untraced result from the raw samples of several processes."""
    step_ms = [t * 1e3 for p in parts for t in p["details"]["step_s"]]
    setup_s = [t for p in parts for t in p["details"]["setup_s"]]
    rss = [p["details"]["peak_rss_mb"] for p in parts]
    tail_ms, tail_pct = tail(step_ms)
    result = dict(parts[0])
    result.update(
        seconds=sum(p["seconds"] for p in parts),
        correct=all(p["correct"] for p in parts),
        attempted=sum(p["attempted"] for p in parts),
        failed=sum(p["failed"] for p in parts),
        checks={k: all(p["checks"][k] for p in parts) for k in parts[0]["checks"]},
        metrics={
            "samples_per_s": (sum(p["details"]["samples"] for p in parts)
                              / sum(p["details"]["timed_s"] for p in parts)),
            "setup_s": statistics.median(setup_s),
            "peak_rss_mb": min(rss),
            "step_ms_p50": statistics.median(step_ms),
        },
        unlisted={"step_ms_tail": tail_ms,
                  "wall_samples_per_s": (sum(p["details"]["samples"] for p in parts)
                                         / sum(p["details"]["timed_wall_s"] for p in parts)),
                  "calibration_ms": 1e3 * statistics.median(
                      t for p in parts for t in p["details"]["calibration_s"])},
        details={"timed_steps": len(step_ms), "tail_percentile": tail_pct,
                 "beyond_tail": 10 if len(step_ms) > 10 else 0, "setups": len(setup_s),
                 "calibrations": sum(len(p["details"]["calibration_s"]) for p in parts),
                 "peak_rss_mb_per_process": rss},
        processes=parts,
    )
    return result


def run_workload(name: str, args) -> dict:
    if args.trace:
        return run_child(name, args, args.seconds)
    return pool([run_child(name, args, args.seconds / PROCESSES)
                 for _ in range(PROCESSES)])


def report(result: dict, wanted: list[dict]) -> dict:
    """Print one workload's metrics with their units; return them in the
    result-line layout."""
    names = [m["name"] for m in wanted]
    if sorted(result["metrics"]) != sorted(names):
        raise BenchError(f"{result['workload']}: metrics differ from BENCHMARK.json: "
                         f"{sorted(set(result['metrics']) ^ set(names))}")
    mode = "traced" if result["trace"] else "untraced"
    print(f"== {result['workload']}  seed {result['seed']}  {result['seconds']:g} s  {mode}")
    print("   env " + json.dumps(result["env"], sort_keys=True))
    d = result["details"]
    notes = {}
    if not result["trace"]:
        notes = {
            "step_ms_p50": f"median of {d['timed_steps']} timed steps",
            "step_ms_tail": f"p{d['tail_percentile']:.1f}: {d['beyond_tail']} of "
                            f"{d['timed_steps']} steps beyond it",
            "setup_s": f"median of {d['setups']} set-ups",
            "wall_samples_per_s": "samples_per_s at this host's speed",
            "calibration_ms": f"median of {d['calibrations']} host-speed readings",
            "peak_rss_mb": "smallest of " + ", ".join(
                f"{v:.1f}" for v in d["peak_rss_mb_per_process"]),
        }
    out = {}
    for m in wanted:
        value = result["metrics"][m["name"]]
        out[m["name"]] = {"value": value, "unit": m["unit"]}
        note = f"   ({notes[m['name']]})" if m["name"] in notes else ""
        print(f"   {m['name']:<34} {value:>14.6g} {m['unit']}{note}")
    for name, value in result.get("unlisted", {}).items():
        note = f"   ({notes[name]}; not in BENCHMARK.json)"
        print(f"   {name:<34} {value:>14.6g} {UNLISTED_UNITS[name]}{note}")
    print(f"   {'error_rate':<34} {result['failed'] / result['attempted']:>14.6g} ratio   "
          f"({result['failed']} failed of {result['attempted']} attempted)")
    checks = ", ".join(f"{k}={'ok' if v else 'FAILED'}" for k, v in result["checks"].items())
    print(f"   checks: {checks}")
    return out


def main(argv=None) -> int:
    parser = argparse.ArgumentParser(description="Run the adafuse benchmark.")
    parser.add_argument("--workload", default="all",
                        help="a workload name from BENCHMARK.json, or 'all' (default)")
    parser.add_argument("--seed", type=int, default=0)
    parser.add_argument("--seconds", type=float, default=None,
                        help="timed seconds per workload (default: run_seconds)")
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    args = parser.parse_args(argv)
    try:
        spec = load_spec()
        known = [w["name"] for w in spec["workloads"]]
        if args.workload != "all" and args.workload not in known:
            raise BenchError(f"unknown workload {args.workload!r}; one of {known}")
        if args.seconds is None:
            args.seconds = spec["run_seconds"]
        wanted = spec["per_layer" if args.trace else "end_to_end"]
        OUT_DIR.mkdir(exist_ok=True)
        names = known if args.workload == "all" else [args.workload]
        results = []
        for name in names:
            result = run_workload(name, args)
            (OUT_DIR / f"{name}-seed{args.seed}-trace{args.trace}.json").write_text(
                json.dumps(result, indent=1))
            results.append((name, result, report(result, wanted)))
    except BenchError as exc:
        print(f"bench: {exc}", file=sys.stderr)
        return 1
    if len(results) == 1:
        metrics = results[0][2]
    else:
        metrics = {f"{name}/{k}": v for name, _, ms in results for k, v in ms.items()}
    print(json.dumps({
        "correct": all(r["correct"] for _, r, _ in results),
        "attempted": sum(r["attempted"] for _, r, _ in results),
        "failed": sum(r["failed"] for _, r, _ in results),
        "metrics": metrics,
    }))
    return 0


if __name__ == "__main__":
    sys.exit(main())
