"""Span tracer for the benchmark's traced run.

The tracer wraps the public functions and classes of ``adafuse`` from
the outside, wherever each name is bound, and restores them on
``uninstall``. ``src/adafuse`` itself is not modified.

* Every tensor primitive gets a span; only the outermost primitive of a
  nested call (``tmean`` calls ``tsum`` and ``mul``) is recorded.
* The tape nodes a primitive creates get their ``backward_fn`` wrapped,
  so each node's backward time is recorded as a span whose ``origin`` is
  the forward span that created it. A module's backward time is the
  backward time of the nodes created inside its forward span.
* Modules, the training loop, I/O and data batching get one span per
  call.

Spans hold numbers only (name id, start, end, parent, step, origin) and
stay in memory until ``save``.
"""

from __future__ import annotations

import functools
import json
import sys
from array import array
from pathlib import Path
from time import perf_counter

import numpy as np

from adafuse import adapters, data, encoder, heads, model, tensor, training

# tensor function -> primitive name; covers every function that records
# tape nodes, so every node is attributed to a primitive span
PRIM_FUNCS = {
    "matmul": "matmul", "add": "add", "sub": "sub", "mul": "mul",
    "layer_norm": "layer_norm", "gelu": "gelu", "softmax": "softmax",
    "log_softmax": "log_softmax", "extract_patches": "extract_patches",
    "upsample_bilinear": "upsample_bilinear", "transpose": "transpose",
    "reshape": "reshape", "concat": "concat", "dropout": "dropout",
    "drop_path": "drop_path", "tsum": "sum", "tmean": "mean", "texp": "exp",
    "tlog": "log",
}

# (owner, attribute, layer name). Module-level functions are patched in
# every adafuse module that binds them; methods on their class.
LAYERS = (
    (encoder.PatchEmbed, "__call__", "encoder.patch_embed"),
    (encoder.Attention, "__call__", "encoder.attention"),
    (encoder.Mlp, "__call__", "encoder.mlp"),
    (encoder.TransformerBlock, "__call__", "encoder.block"),
    (encoder.Encoder, "stage_norm", "encoder.stage_norm"),
    (adapters.CrossModalAdapter, "__call__", "adapters.adapter"),
    (adapters, "fused_block_forward", "adapters.fused_block"),
    (adapters, "fused_encode", "adapters.fused_encode"),
    (heads, "modal_merge", "heads.modal_merge"),
    (heads.StageFusion, "__call__", "heads.ffm"),
    (heads.Decoder, "__call__", "heads.decoder"),
    (model.FusionModel, "logits_at", "model.logits_at"),
    (training, "train_step", "training.train_step"),
    (training, "cross_entropy", "training.cross_entropy"),
    (training.AdamW, "step", "training.adamw_step"),
    (training, "evaluate", "training.evaluate"),
    (training.ConfusionMatrix, "update", "training.confusion_update"),
    (training, "save_checkpoint", "training.save_checkpoint"),
    (training, "load_checkpoint", "training.load_checkpoint"),
    (data, "generate_synthetic", "data.generate"),
    (data, "save_dataset", "data.save_dataset"),
    (data, "load_dataset", "data.load_dataset"),
    (data, "stack_batch", "data.stack_batch"),
    (tensor, "backward", "tensor.backward"),
)
BATCH_ITER = "data.batch_iter"

# the calls a workload times as its steps; exact counts cover their spans
STEP_ENTRIES = ("training.train_step", "model.logits_at")

# layers whose backward time is the backward time of the nodes created
# inside their forward span
BACKWARD_LAYERS = ("encoder.patch_embed", "encoder.attention", "encoder.mlp",
                   "encoder.block", "encoder.stage_norm", "adapters.adapter",
                   "heads.modal_merge", "heads.ffm", "heads.decoder",
                   "training.cross_entropy")


def _adafuse_modules():
    return [m for name, m in sorted(sys.modules.items())
            if m is not None and (name == "adafuse" or name.startswith("adafuse."))]


class Tracer:
    """In-memory span recorder plus the wrappers that feed it.

    ``step`` is set by the caller that drives the run; every span and
    count is tagged with it.
    """

    def __init__(self):
        self.names: list[str] = []
        self._ids: dict[str, int] = {}
        self.s_name = array("i")
        self.s_start = array("d")
        self.s_end = array("d")
        self.s_parent = array("i")
        self.s_step = array("i")
        self.s_origin = array("i")
        self._stack: list[int] = []
        self._in_prim = False
        self.step = -1
        # step -> [tape nodes at backward, grad elements, useful grad elements]
        self.step_counts: dict[int, list[int]] = {}
        self._patched: list[tuple[object, str, object]] = []
        self._nodes = tensor.active_tape()._nodes

    # -- recording -----------------------------------------------------
    def name_id(self, name: str) -> int:
        nid = self._ids.get(name)
        if nid is None:
            nid = self._ids[name] = len(self.names)
            self.names.append(name)
        return nid

    def _open(self, nid: int) -> int:
        idx = len(self.s_name)
        self.s_name.append(nid)
        self.s_parent.append(self._stack[-1] if self._stack else -1)
        self.s_step.append(self.step)
        self.s_origin.append(-1)
        self.s_end.append(0.0)
        self._stack.append(idx)
        self.s_start.append(perf_counter())
        return idx

    def _close(self, idx: int) -> None:
        self.s_end[idx] = perf_counter()
        self._stack.pop()

    def _counts(self) -> list[int]:
        counts = self.step_counts.get(self.step)
        if counts is None:
            counts = self.step_counts[self.step] = [0, 0, 0]
        return counts

    # -- wrappers ------------------------------------------------------
    def _layer(self, fn, name: str):
        nid = self.name_id(name)
        is_backward = name == "tensor.backward"

        @functools.wraps(fn)
        def wrapper(*args, **kwargs):
            if is_backward:
                self._counts()[0] += len(self._nodes)
            idx = self._open(nid)
            try:
                return fn(*args, **kwargs)
            finally:
                self._close(idx)
        return wrapper

    def _batch_iter(self, fn):
        nid = self.name_id(BATCH_ITER)

        @functools.wraps(fn)
        def wrapper(*args, **kwargs):
            batches = fn(*args, **kwargs)
            while True:
                idx = self._open(nid)
                try:
                    batch = next(batches)
                except StopIteration:
                    return
                finally:
                    self._close(idx)
                yield batch
        return wrapper

    def _prim(self, fn, prim: str):
        nid = self.name_id("tensor." + prim)
        nodes = self._nodes

        @functools.wraps(fn)
        def wrapper(*args, **kwargs):
            if self._in_prim:
                return fn(*args, **kwargs)
            self._in_prim = True
            n0 = len(nodes)
            idx = self._open(nid)
            try:
                return fn(*args, **kwargs)
            finally:
                self._close(idx)
                self._in_prim = False
                for node in nodes[n0:]:
                    node.backward_fn = self._timed_backward(
                        node.backward_fn, nid, idx, node.inputs)
        return wrapper

    def _timed_backward(self, fn, nid: int, origin: int, inputs):
        def timed(g):
            start = perf_counter()
            grads = fn(g)
            end = perf_counter()
            self.s_name.append(nid)
            self.s_start.append(start)
            self.s_end.append(end)
            self.s_parent.append(self._stack[-1] if self._stack else -1)
            self.s_step.append(self.step)
            self.s_origin.append(origin)
            total = useful = 0
            for t, gr in zip(inputs, grads):
                if gr is not None:
                    total += gr.size
                    if t.requires_grad:
                        useful += gr.size
            counts = self._counts()
            counts[1] += total
            counts[2] += useful
            return grads
        return timed

    # -- installation --------------------------------------------------
    def _patch(self, owner, attr: str, value) -> None:
        self._patched.append((owner, attr, owner.__dict__[attr]))
        setattr(owner, attr, value)

    def _patch_everywhere(self, original, wrapper) -> None:
        """Rebind ``original`` to ``wrapper`` in every adafuse module."""
        for mod in _adafuse_modules():
            for attr, value in list(vars(mod).items()):
                if value is original:
                    self._patch(mod, attr, wrapper)

    def install(self) -> None:
        if self._patched:
            raise RuntimeError("tracer already installed")
        for fname, prim in PRIM_FUNCS.items():
            original = getattr(tensor, fname)
            self._patch_everywhere(original, self._prim(original, prim))
        for owner, attr, name in LAYERS:
            original = getattr(owner, attr)
            wrapper = self._layer(original, name)
            if isinstance(owner, type):
                self._patch(owner, attr, wrapper)
            else:
                self._patch_everywhere(original, wrapper)
        self._patch_everywhere(data.batch_iter, self._batch_iter(data.batch_iter))

    def uninstall(self) -> None:
        for owner, attr, value in reversed(self._patched):
            setattr(owner, attr, value)
        self._patched.clear()

    # -- output --------------------------------------------------------
    def arrays(self) -> dict[str, np.ndarray]:
        return {
            "name": np.frombuffer(self.s_name, dtype=np.int32),
            "start": np.frombuffer(self.s_start, dtype=np.float64),
            "end": np.frombuffer(self.s_end, dtype=np.float64),
            "parent": np.frombuffer(self.s_parent, dtype=np.int32),
            "step": np.frombuffer(self.s_step, dtype=np.int32),
            "origin": np.frombuffer(self.s_origin, dtype=np.int32),
        }

    def save(self, path: Path) -> None:
        """Write every span as numpy arrays, with the name table."""
        np.savez_compressed(path, names=np.array(json.dumps(self.names)),
                            **self.arrays())


def summarize(tracer: Tracer, steps: list[int], step_batch: dict[int, int]) -> dict:
    """Per-layer totals over ``steps``, and per-step exact counts.

    Returns ``layers``: name -> {calls, fwd_ms, self_ms, bwd_ms} summed
    over the steps (spans recorded outside any step, such as set-up I/O,
    are summed over all of their calls); ``counts``: the exact per-step
    counts of the reference step; ``counts_repeat``: whether every step
    of the same batch size has identical counts.
    """
    a = tracer.arrays()
    names = tracer.names
    n = len(a["name"])
    dur = (a["end"] - a["start"]) * 1e3
    fwd = a["origin"] < 0
    has_parent = a["parent"] >= 0
    child_ms = np.bincount(a["parent"][has_parent], weights=dur[has_parent], minlength=n)
    self_ms = dur - child_ms

    # ancestor layer set of every forward span, as a bitmask over
    # BACKWARD_LAYERS plus one bit for the step entry points; parents are
    # always recorded before their children
    bits = {tracer.name_id(name): 1 << i for i, name in enumerate(BACKWARD_LAYERS)}
    step_bit = 1 << len(BACKWARD_LAYERS)
    for name in STEP_ENTRIES:
        bits[tracer.name_id(name)] = step_bit
    mask = np.zeros(n, dtype=np.int64)
    name_list = a["name"].tolist()
    parent_list = a["parent"].tolist()
    fwd_list = fwd.tolist()
    for i in range(n):
        if fwd_list[i]:
            p = parent_list[i]
            mask[i] = (mask[p] if p >= 0 else 0) | bits.get(name_list[i], 0)

    step_set = np.isin(a["step"], np.asarray(steps, dtype=np.int32))
    outside = a["step"] < 0
    keep = step_set | outside
    layers: dict[str, dict] = {}
    for nid, name in enumerate(names):
        sel_f = keep & fwd & (a["name"] == nid)
        sel_b = keep & ~fwd & (a["name"] == nid)
        layers[name] = {"calls": int(sel_f.sum()),
                        "fwd_ms": float(dur[sel_f].sum()),
                        "self_ms": float(self_ms[sel_f].sum()),
                        "bwd_ms": float(dur[sel_b].sum())}
    bwd_spans = keep & ~fwd
    origin_mask = mask[a["origin"][bwd_spans]]
    bwd_dur = dur[bwd_spans]
    for i, name in enumerate(BACKWARD_LAYERS):
        if name in layers:
            layers[name]["bwd_ms"] = float(bwd_dur[(origin_mask >> i) & 1 == 1].sum())

    # exact per-step counts: calls per span name inside the step entry
    # point plus the tape and gradient-element counts, compared across
    # steps of equal batch size
    counted = fwd & (mask & step_bit != 0)
    per_step: dict[int, tuple] = {}
    for s in steps:
        sel = counted & (a["step"] == s)
        calls = np.bincount(a["name"][sel], minlength=len(names))
        per_step[s] = (tuple(calls.tolist()), tuple(tracer.step_counts.get(s, (0, 0, 0))))
    by_batch: dict[int, list[int]] = {}
    for s in steps:
        by_batch.setdefault(step_batch[s], []).append(s)
    repeat = all(len({per_step[s] for s in group}) == 1 for group in by_batch.values())
    ref_batch = max(by_batch, key=lambda b: (len(by_batch[b]), b)) if by_batch else 0
    counts = {"batch": ref_batch, "calls": {}, "tape_nodes": 0,
              "grad_elems": 0, "useful_grad_elems": 0}
    if by_batch:
        calls, (nodes, total, useful) = per_step[by_batch[ref_batch][0]]
        counts.update(calls=dict(zip(names, calls)), tape_nodes=nodes,
                      grad_elems=total, useful_grad_elems=useful)
    return {"layers": layers, "counts": counts, "counts_repeat": repeat,
            "steps": len(steps)}
