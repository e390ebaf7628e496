"""Synthetic complementary-modality segmentation scenes and their
on-disk format.

Each foreground class is visible (contrasts with the background) in
exactly one modality and renders at background level everywhere else,
so no single modality can segment every class: the gap between a fused
model and any single-modality baseline is built into the data.

Disk layout: a directory with ``manifest.json`` plus one raw blob per
image (little-endian float32, row-major C x H x W) and per label map
(little-endian uint16, H x W). Blob paths in the manifest are relative
to the directory. Checkpoints use the same manifest+blob store
(``write_store``, ``read_manifest``, ``read_blob``), and a directory
that does not hold a valid one of either raises ``StoreError``.
"""

from __future__ import annotations

import contextlib
import json
import math
import os
from dataclasses import dataclass, field
from pathlib import Path
from typing import Iterator, Optional, Sequence

import numpy as np

FORMAT_VERSION = 1
IGNORE_INDEX = 255
MANIFEST = "manifest.json"


class StoreError(OSError):
    """The directory does not hold a valid dataset or checkpoint."""


@dataclass
class MultimodalSample:
    images: dict[str, np.ndarray]    # name -> float32 [C, H, W] in [0, 1]
    label: np.ndarray                # uint16 [H, W]


@dataclass
class SceneDataset:
    samples: list[MultimodalSample]
    num_classes: int
    height: int
    width: int
    modalities: list[tuple[str, int]]          # (name, channels)
    seed: int
    split: str = "train"
    ignore_index: int = IGNORE_INDEX
    class_visibility: dict[int, tuple[str, ...]] = field(default_factory=dict)

    def __len__(self) -> int:
        return len(self.samples)

    @property
    def modality_names(self) -> list[str]:
        return [name for name, _ in self.modalities]


def assign_visibility(num_classes: int, names: Sequence[str],
                      rng: np.random.Generator) -> dict[int, tuple[str, ...]]:
    """Round-robin the shuffled foreground classes over modalities, so
    every modality is blind to at least one class."""
    order = rng.permutation(np.arange(1, num_classes))
    return {int(cls): (names[i % len(names)],) for i, cls in enumerate(order)}


def generate_synthetic(num_samples: int, height: int, width: int,
                       num_classes: int, num_modalities: int, seed: int,
                       split: str = "train") -> SceneDataset:
    """Scenes of random rectangles and discs with per-class visibility.

    Modalities are named vis, ir for two and mod0, mod1, ... otherwise,
    with one channel each. Background sits at 0.2; a class visible in a
    modality fills at a class-specific level in [0.55, 0.95]; invisible
    classes render at background level. Gaussian pixel noise (sigma 0.05)
    is added everywhere and the result clipped to [0, 1]. Fully
    deterministic in ``seed``.
    """
    if num_samples < 1:
        raise ValueError(f"need at least one sample, got {num_samples}")
    if num_classes < 3:
        raise ValueError("need background plus at least two foreground classes")
    if num_classes > IGNORE_INDEX:
        raise ValueError(f"{num_classes} classes would use the ignore index "
                         f"{IGNORE_INDEX} as a class id")
    if num_modalities < 2:
        raise ValueError("complementary visibility needs >= 2 modalities")
    if height < 8 or width < 8:
        raise ValueError(f"degenerate scene size {height}x{width}")
    names = (("vis", "ir") if num_modalities == 2
             else tuple(f"mod{i}" for i in range(num_modalities)))

    rng = np.random.default_rng(seed)
    visibility = assign_visibility(num_classes, names, rng)
    n_fg = num_classes - 1
    fills = {c: 0.55 + 0.4 * (c - 1) / max(1, n_fg - 1) for c in range(1, num_classes)}

    yy, xx = np.mgrid[0:height, 0:width]
    samples = []
    for _ in range(num_samples):
        label = np.zeros((height, width), dtype=np.uint16)
        planes = {name: np.full((height, width), 0.2) for name in names}
        for _obj in range(int(rng.integers(3, 9))):
            cls = int(rng.integers(1, num_classes))
            size = int(rng.integers(height // 8, height // 3 + 1))
            cy = int(rng.integers(0, height))
            cx = int(rng.integers(0, width))
            if rng.integers(2) == 0:
                half = max(1, size // 2)
                mask = ((np.abs(yy - cy) <= half) & (np.abs(xx - cx) <= half))
            else:
                mask = ((yy - cy) ** 2 + (xx - cx) ** 2) <= (size / 2) ** 2
            label[mask] = cls
            # invisible modalities render the object at background level,
            # occluding anything painted underneath
            for name in names:
                planes[name][mask] = fills[cls] if name in visibility[cls] else 0.2
        images = {}
        for name in names:
            noisy = planes[name][None] + rng.normal(0.0, 0.05, (1, height, width))
            images[name] = np.clip(noisy, 0.0, 1.0).astype(np.float32)
        samples.append(MultimodalSample(images, label))

    return SceneDataset(samples, num_classes, height, width,
                        [(name, 1) for name in names], seed, split,
                        class_visibility=visibility)


# ---------------------------------------------------------------------
# persistence
# ---------------------------------------------------------------------

def write_store(directory, kind: str, fields: dict,
                blobs: Sequence[tuple[str, np.ndarray]]) -> Path:
    """Write a manifest+blob directory; datasets and checkpoints share it.

    ``blobs`` are (path relative to the directory, array in its on-disk
    dtype) pairs that ``fields`` refers to. The old manifest replaces the
    pending list ``manifest.json.tmp`` once the blobs only that list
    names are deleted; then the pending blobs this save does not write
    are deleted, and the new manifest is written there before any blob
    and moved into place after the last. Every blob is named by one of
    the two files at every step, so an interrupted save leaves no
    manifest, never a mix of two saves, and the next save deletes what
    it left. Other files are left alone. A readable old manifest of
    another ``kind`` raises ``StoreError`` before anything is touched.
    """
    out = Path(directory)
    final, tmp = out / MANIFEST, out / (MANIFEST + ".tmp")
    old_kind = _manifest_kind(final)
    if old_kind not in (None, kind):
        raise StoreError(f"{directory} holds a {old_kind!r} store, "
                         f"refusing to overwrite it with a {kind}")
    out.mkdir(parents=True, exist_ok=True)
    pending = _named_blobs(tmp)
    if final.exists():
        _unlink_blobs(out, pending - _named_blobs(final))
        os.replace(final, tmp)
        pending = _named_blobs(tmp)
    _unlink_blobs(out, pending - {Path(path) for path, _ in blobs})
    manifest = {"version": FORMAT_VERSION, "kind": kind, **fields}
    tmp.write_text(json.dumps(manifest, indent=1), encoding="utf-8")
    for path, array in blobs:
        (out / path).write_bytes(array.tobytes())
    os.replace(tmp, final)
    return out


def _unlink_blobs(root: Path, paths: set[Path]) -> None:
    """Delete the regular files among ``paths``, never a manifest."""
    for path in paths - {Path(MANIFEST), Path(MANIFEST + ".tmp")}:
        if (root / path).is_file():
            (root / path).unlink()


def _manifest_kind(manifest_path: Path):
    """The ``kind`` a manifest names; None if it is missing or unreadable."""
    try:
        manifest = json.loads(manifest_path.read_text(encoding="utf-8"))
    except (OSError, ValueError, RecursionError):
        return None
    return manifest.get("kind") if isinstance(manifest, dict) else None


def _named_blobs(manifest_path: Path) -> set[Path]:
    """Every blob path in a manifest that ``read_blob`` would accept;
    empty if the manifest is missing or unreadable."""
    paths = set()

    def collect(obj: dict) -> dict:
        if isinstance(obj.get("path"), str) and _inside_root(obj["path"]):
            paths.add(Path(obj["path"]))
        return obj
    try:
        json.loads(manifest_path.read_text(encoding="utf-8"), object_hook=collect)
    except (OSError, ValueError, RecursionError):
        return set()
    return paths


def _inside_root(path: str) -> bool:
    return not Path(path).is_absolute() and ".." not in Path(path).parts


def read_manifest(directory, kind: str) -> dict:
    """The manifest of a ``write_store`` directory, checked for
    existence, JSON syntax, format version and ``kind``; any violation
    raises ``StoreError``."""
    mpath = Path(directory) / MANIFEST
    if not mpath.exists():
        raise StoreError(f"no {MANIFEST} under {directory}")
    try:
        manifest = json.loads(mpath.read_text(encoding="utf-8"))
    except (ValueError, RecursionError) as exc:    # JSON syntax, UTF-8 or nesting depth
        raise StoreError(f"unreadable {mpath}: {exc}") from None
    if not isinstance(manifest, dict):
        raise StoreError(f"{mpath} does not hold a JSON object")
    if manifest.get("version") != FORMAT_VERSION:
        raise StoreError(f"unsupported manifest version {manifest.get('version')!r}, "
                         f"this reader handles {FORMAT_VERSION}")
    if manifest.get("kind") != kind:
        raise StoreError(f"manifest kind {manifest.get('kind')!r} is not a {kind}")
    return manifest


@contextlib.contextmanager
def manifest_fields() -> Iterator[None]:
    """Raise ``StoreError`` for a missing or ill-typed manifest field
    read inside the block, or for one too large to allocate."""
    try:
        yield
    except (KeyError, IndexError, TypeError, ValueError, AttributeError,
            OverflowError, MemoryError) as exc:
        raise StoreError(f"malformed manifest: {type(exc).__name__}: {exc}") from None


def read_blob(root: Path, entry: dict, dtype: str, shape: tuple[int, ...]) -> np.ndarray:
    """Read the raw blob a manifest ``entry`` (``path``, ``shape``) names.

    The entry must declare the reader's ``shape``, which is checked before
    the file is opened; the path must be relative and stay inside
    ``root``, and the file must hold exactly the bytes ``shape`` and
    ``dtype`` need. Any violation raises ``StoreError``.
    """
    if tuple(int(s) for s in entry["shape"]) != shape:
        raise StoreError(f"record {entry} declares a shape other than {shape}")
    path = entry["path"]
    if not _inside_root(path):
        raise StoreError(f"blob paths must be relative to the manifest dir: {path!r}")
    blob = root / path
    if not blob.exists():
        raise StoreError(f"missing blob {path!r}")
    expected = math.prod(shape) * np.dtype(dtype).itemsize
    actual = blob.stat().st_size
    if actual != expected:
        raise StoreError(f"blob {path!r} holds {actual} bytes, "
                         f"expected {expected} for shape {shape}")
    return np.frombuffer(blob.read_bytes(), dtype=dtype).reshape(shape).copy()


def save_dataset(dataset: SceneDataset, directory) -> Path:
    records, blobs = [], []
    for i, sample in enumerate(dataset.samples):
        rec = {"images": {}, "label": None}
        for name, img in sample.images.items():
            path = f"s{i:05d}_{name}.bin"
            blobs.append((path, img.astype("<f4", copy=False)))
            rec["images"][name] = {"path": path, "shape": list(img.shape)}
        lpath = f"s{i:05d}_label.bin"
        blobs.append((lpath, sample.label.astype("<u2", copy=False)))
        rec["label"] = {"path": lpath, "shape": list(sample.label.shape)}
        records.append(rec)
    return write_store(directory, "dataset", {
        "seed": dataset.seed,
        "split": dataset.split,
        "num_classes": dataset.num_classes,
        "ignore_index": dataset.ignore_index,
        "height": dataset.height,
        "width": dataset.width,
        "modalities": [{"name": n, "channels": c} for n, c in dataset.modalities],
        "class_visibility": {str(k): list(v) for k, v in dataset.class_visibility.items()},
        "samples": records,
    }, blobs)


def load_dataset(directory) -> SceneDataset:
    """Read a ``save_dataset`` directory. The manifest must declare one or
    more modalities, with unique names, and sizes >= 1; every sample must
    hold exactly its modalities, each image [channels, height, width],
    and an [height, width] label. Any mismatch raises ``StoreError``."""
    root = Path(directory)
    manifest = read_manifest(root, "dataset")
    with manifest_fields():
        num_classes = int(manifest["num_classes"])
        ignore = int(manifest.get("ignore_index", IGNORE_INDEX))
        if ignore < num_classes:
            raise StoreError(f"ignore_index {ignore} is a class id of the "
                             f"{num_classes} classes")
        height, width = int(manifest["height"]), int(manifest["width"])
        modalities = [(m["name"], int(m["channels"])) for m in manifest["modalities"]]
        shapes = {name: (c, height, width) for name, c in modalities}
        if not modalities:
            raise StoreError("the manifest declares no modality")
        if len(shapes) != len(modalities):
            raise StoreError(f"modality names repeat in {[n for n, _ in modalities]}")
        if min(height, width, *(c for _, c in modalities)) < 1:
            raise StoreError(f"height {height}, width {width} and channels "
                             f"{dict(modalities)} must all be >= 1")
        samples = []
        for i, rec in enumerate(manifest["samples"]):
            if rec["images"].keys() != shapes.keys():
                raise StoreError(f"sample {i} holds images {sorted(rec['images'])}, "
                                 f"the manifest declares {sorted(shapes)}")
            images = {name: read_blob(root, entry, "<f4", shapes[name])
                      for name, entry in rec["images"].items()}
            label = read_blob(root, rec["label"], "<u2", (height, width))
            bad = (label >= num_classes) & (label != ignore)
            if bad.any():
                raise StoreError(f"label {rec['label']['path']!r} holds class ids "
                                 f">= {num_classes}")
            samples.append(MultimodalSample(images, label))
        visibility = {int(k): tuple(v)
                      for k, v in manifest.get("class_visibility", {}).items()}
        return SceneDataset(
            samples, num_classes, height, width, modalities,
            int(manifest["seed"]), manifest.get("split", "train"), ignore,
            visibility)


# ---------------------------------------------------------------------
# iteration
# ---------------------------------------------------------------------

def batch_iter(dataset: SceneDataset, batch_size: int,
               shuffle_seed: Optional[int] = None,
               epoch: int = 0) -> Iterator[list[MultimodalSample]]:
    """Deterministic batches; permutation depends on (seed, epoch) only.

    The last partial batch is kept. ``shuffle_seed=None`` iterates in
    dataset order.
    """
    if batch_size < 1:
        raise ValueError("batch_size must be >= 1")
    n = len(dataset)
    if shuffle_seed is None:
        order = np.arange(n)
    else:
        order = np.random.default_rng([shuffle_seed, epoch]).permutation(n)
    for start in range(0, n, batch_size):
        yield [dataset.samples[i] for i in order[start:start + batch_size]]


def stack_batch(batch: list[MultimodalSample],
                modality_names: Sequence[str]) -> tuple[dict[str, np.ndarray], np.ndarray]:
    """Stack samples into per-modality [B, C, H, W] arrays + [B, H, W] labels."""
    images = {name: np.stack([s.images[name] for s in batch]) for name in modality_names}
    labels = np.stack([s.label for s in batch]).astype(np.int64)
    return images, labels
