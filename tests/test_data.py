"""Synthetic scene generation, disk format, iteration."""

import itertools
import json
from pathlib import Path

import numpy as np
import pytest

from adafuse.data import (IGNORE_INDEX, StoreError, batch_iter, generate_synthetic,
                          load_dataset, save_dataset, stack_batch)


def small_ds(seed=0, n=6, m=2, classes=5):
    return generate_synthetic(n, 32, 32, classes, m, seed)


# ---------------------------------------------------------------------
# generation
# ---------------------------------------------------------------------

def test_generation_is_byte_identical_per_seed():
    a, b = small_ds(seed=4), small_ds(seed=4)
    for sa, sb in zip(a.samples, b.samples):
        assert sa.label.tobytes() == sb.label.tobytes()
        for name in sa.images:
            assert sa.images[name].tobytes() == sb.images[name].tobytes()
    c = small_ds(seed=5)
    assert any(sa.label.tobytes() != sc.label.tobytes()
               for sa, sc in zip(a.samples, c.samples))


def test_visibility_splits_two_by_two_for_m2_five_classes():
    ds = small_ds(seed=1)
    per_modality = {name: 0 for name in ds.modality_names}
    for cls, vis in ds.class_visibility.items():
        assert len(vis) == 1
        per_modality[vis[0]] += 1
    assert sorted(per_modality.values()) == [2, 2]


def test_each_modality_is_blind_to_at_least_one_class():
    for m in (2, 3):
        ds = generate_synthetic(2, 32, 32, 6, m, seed=7)
        for name in ds.modality_names:
            invisible = [c for c, vis in ds.class_visibility.items()
                         if name not in vis]
            assert invisible


def test_invisible_classes_have_no_contrast():
    ds = generate_synthetic(40, 32, 32, 5, 2, seed=2)
    bg = 0.2
    contrast = {(cls, name): [] for cls in range(1, 5) for name in ds.modality_names}
    for s in ds.samples:
        for cls in range(1, 5):
            mask = s.label == cls
            if mask.sum() < 4:
                continue
            for name in ds.modality_names:
                contrast[(cls, name)].append(
                    float(np.abs(s.images[name][:, mask] - bg).mean()))
    for (cls, name), values in contrast.items():
        if not values:
            continue
        mean_contrast = np.mean(values)
        if name in ds.class_visibility[cls]:
            assert mean_contrast > 0.25, (cls, name, mean_contrast)
        else:
            # only noise remains: E|N(0, 0.05)| ~ 0.04
            assert mean_contrast < 0.08, (cls, name, mean_contrast)


def test_label_histogram_covers_all_classes():
    ds = generate_synthetic(50, 32, 32, 5, 2, seed=3)
    seen = np.zeros(5, dtype=bool)
    for s in ds.samples:
        seen |= np.bincount(s.label.reshape(-1), minlength=5)[:5] > 0
    assert seen.all()


def test_images_in_unit_range_float32():
    ds = small_ds(seed=6)
    for s in ds.samples:
        for img in s.images.values():
            assert img.dtype == np.float32
            assert img.min() >= 0.0 and img.max() <= 1.0


def test_generation_validation():
    with pytest.raises(ValueError):
        generate_synthetic(1, 32, 32, 2, 2, 0)       # too few classes
    with pytest.raises(ValueError):
        generate_synthetic(1, 32, 32, 5, 1, 0)       # single modality
    with pytest.raises(ValueError):
        generate_synthetic(1, 4, 4, 5, 2, 0)         # degenerate size
    for classes in (IGNORE_INDEX + 1, 300, 70_000):  # a class id at the ignore index
        with pytest.raises(ValueError, match=f"ignore index {IGNORE_INDEX}"):
            generate_synthetic(40, 32, 32, classes, 2, seed=3)
    ds = generate_synthetic(2, 32, 32, IGNORE_INDEX, 2, seed=3)
    assert max(int(s.label.max()) for s in ds.samples) < IGNORE_INDEX


# ---------------------------------------------------------------------
# disk round trip
# ---------------------------------------------------------------------

def test_save_load_roundtrip_bit_exact(tmp_path):
    ds = small_ds(seed=8)
    save_dataset(ds, tmp_path / "ds")
    back = load_dataset(tmp_path / "ds")
    assert back.num_classes == ds.num_classes
    assert back.modalities == ds.modalities
    assert back.class_visibility == ds.class_visibility
    for sa, sb in zip(ds.samples, back.samples):
        assert np.array_equal(sa.label, sb.label)
        for name in sa.images:
            assert sa.images[name].tobytes() == sb.images[name].tobytes()


def test_truncated_blob_fails_with_byte_count_error(tmp_path):
    root = save_dataset(small_ds(seed=9, n=2), tmp_path / "ds")
    blob = next(root.glob("s00000_*.bin"))
    blob.write_bytes(blob.read_bytes()[:-4])
    with pytest.raises(StoreError, match="bytes"):
        load_dataset(root)


def test_missing_blob_fails(tmp_path):
    root = save_dataset(small_ds(seed=10, n=2), tmp_path / "ds")
    next(root.glob("s00001_*.bin")).unlink()
    with pytest.raises(StoreError, match="missing"):
        load_dataset(root)


def test_absolute_blob_paths_rejected(tmp_path):
    root = save_dataset(small_ds(seed=11, n=1), tmp_path / "ds")
    manifest = json.loads((root / "manifest.json").read_text())
    rec = manifest["samples"][0]["label"]
    rec["path"] = str((root / rec["path"]).resolve())
    (root / "manifest.json").write_text(json.dumps(manifest))
    with pytest.raises(StoreError, match="relative"):
        load_dataset(root)


def test_unknown_version_rejected(tmp_path):
    root = save_dataset(small_ds(seed=12, n=1), tmp_path / "ds")
    manifest = json.loads((root / "manifest.json").read_text())
    manifest["version"] = 99
    (root / "manifest.json").write_text(json.dumps(manifest))
    with pytest.raises(StoreError, match="version"):
        load_dataset(root)


def test_a_size_beyond_int64_fails_the_byte_count_check_before_any_read(tmp_path,
                                                                        blob_reads):
    root = save_dataset(small_ds(seed=12, n=1), tmp_path / "ds")
    manifest = json.loads((root / "manifest.json").read_text())
    side = 2 ** 32         # 1 x 2**32 x 2**32 float32 is 0 bytes modulo 2**64
    manifest["height"] = manifest["width"] = side
    for rec in manifest["samples"]:
        for entry in rec["images"].values():
            entry["shape"] = [1, side, side]
            (root / entry["path"]).write_bytes(b"")
    (root / "manifest.json").write_text(json.dumps(manifest))
    with pytest.raises(StoreError, match=f"holds 0 bytes, expected {4 * side * side}"):
        load_dataset(root)
    assert not blob_reads


def test_interrupted_save_leaves_no_manifest(tmp_path, fail_writes_after):
    root = save_dataset(small_ds(seed=14, n=3), tmp_path / "ds")
    fail_writes_after(2)
    with pytest.raises(OSError):
        save_dataset(small_ds(seed=15, n=3), root)
    with pytest.raises(StoreError, match="no manifest.json"):
        load_dataset(root)


def test_smaller_save_removes_the_blobs_it_no_longer_names(tmp_path):
    root = save_dataset(small_ds(seed=16, n=10), tmp_path / "ds")
    (root / "notes.txt").write_text("not a blob")
    save_dataset(small_ds(seed=17, n=3), root)
    manifest = json.loads((root / "manifest.json").read_text())
    named = {entry["path"] for rec in manifest["samples"]
             for entry in (rec["label"], *rec["images"].values())}
    assert len(named) == 9
    assert {p.name for p in root.iterdir()} == named | {"manifest.json", "notes.txt"}
    assert len(load_dataset(root)) == 3


@pytest.mark.parametrize("sizes,failures", [((10, 3, 3), (2,)), ((3, 10, 5, 3), (20, 1))],
                         ids=["one", "two-in-a-row"])
def test_save_after_interrupted_ones_removes_the_blobs_they_left(tmp_path, fail_writes_after,
                                                                monkeypatch, sizes, failures):
    """``sizes``: scenes in the first save, in each interrupted save (the
    matching ``failures`` entry is how many blob writes it completes),
    and in the last save."""
    first, *interrupted, last = sizes
    root = save_dataset(small_ds(seed=16, n=first), tmp_path / "ds")
    for n, writes in zip(interrupted, failures):
        fail_writes_after(writes)
        with pytest.raises(OSError):
            save_dataset(small_ds(seed=n, n=n), root)
        monkeypatch.undo()
        assert not (root / "manifest.json").exists()
    save_dataset(small_ds(seed=17, n=last), root)
    manifest = json.loads((root / "manifest.json").read_text())
    named = {entry["path"] for rec in manifest["samples"]
             for entry in (rec["label"], *rec["images"].values())}
    assert {p.name for p in root.iterdir()} == named | {"manifest.json"}
    assert len(load_dataset(root)) == last


def test_save_removes_no_file_an_unusable_old_manifest_names(tmp_path):
    root = tmp_path / "ds"
    (root / "sub").mkdir(parents=True)
    (root / "old.bin").write_bytes(b"x")
    outside = tmp_path / "outside.bin"
    outside.write_bytes(b"x")
    (root / "manifest.json").write_text('{"samples": [{"path": "old.bin"}')  # truncated
    save_dataset(small_ds(seed=18, n=1), root)
    assert (root / "old.bin").exists()
    # paths that read_blob would refuse, a directory and the manifest itself
    stray = ["../outside.bin", str(outside), "sub", "manifest.json"]
    (root / "manifest.json").write_text(json.dumps({"samples": [{"path": p} for p in stray]}))
    save_dataset(small_ds(seed=18, n=1), root)
    assert outside.exists() and (root / "sub").is_dir() and (root / "old.bin").exists()
    assert len(load_dataset(root)) == 1


def test_a_same_kind_resave_reads_the_old_manifest_once(tmp_path, monkeypatch):
    root = save_dataset(small_ds(seed=20, n=4), tmp_path / "ds")
    reads = []

    def counting(path, *args, original=Path.read_text, **kwargs):
        text = original(path, *args, **kwargs)
        reads.append(path.name)
        return text
    monkeypatch.setattr(Path, "read_text", counting)
    save_dataset(small_ds(seed=21, n=4), root)
    assert reads == ["manifest.json"]
    monkeypatch.undo()
    assert contents(load_dataset(root)) == contents(small_ds(seed=21, n=4))


def contents(ds):
    """What ``load_dataset`` gives back, in a form ``==`` compares."""
    return (ds.seed, ds.modalities, [(s.label.tobytes(), *(img.tobytes() for img in
                                                          s.images.values()))
                                     for s in ds.samples])


@pytest.mark.parametrize("old,new", [(10, 3), (3, 10)], ids=["shrink", "grow"])
@pytest.mark.parametrize("prior", ["fresh", "after-an-interrupted-save"])
def test_a_save_cut_at_any_change_leaves_one_whole_save_or_none(tmp_path, fail_writes_after,
                                                               monkeypatch, old, new, prior):
    """For every n, the n-th filesystem change of an ``old`` -> ``new``
    save fails. Before it, ``after-an-interrupted-save`` cuts a 5-scene
    save at its 11th change. The directory then has no manifest or
    loads as exactly one of the two saves, and a complete save after it
    leaves only its own blobs, its manifest and a foreign file."""
    datasets = {n: small_ds(seed=n, n=n) for n in (old, new, 5, 1)}
    for n in itertools.count():
        root = save_dataset(datasets[old], tmp_path / f"ds{n}")
        (root / "notes.txt").write_text("not a blob")
        if prior == "after-an-interrupted-save":
            fail_writes_after(10, every_mutation=True)
            with pytest.raises(OSError):
                save_dataset(datasets[5], root)
            monkeypatch.undo()
        fail_writes_after(n, every_mutation=True)
        try:
            save_dataset(datasets[new], root)
            break                      # the save makes fewer than n + 1 changes
        except OSError:
            pass
        finally:
            monkeypatch.undo()
        if (root / "manifest.json").exists():
            assert contents(load_dataset(root)) in (contents(datasets[old]),
                                                    contents(datasets[new]))
        save_dataset(datasets[1], root)
        manifest = json.loads((root / "manifest.json").read_text())
        named = {entry["path"] for rec in manifest["samples"]
                 for entry in (rec["label"], *rec["images"].values())}
        assert {p.name for p in root.iterdir()} == named | {"manifest.json", "notes.txt"}
    assert n > 3 * min(old, new)


def test_a_record_of_another_shape_is_refused_before_its_blob_is_read(tmp_path, blob_reads):
    root = save_dataset(small_ds(seed=19, n=4), tmp_path / "ds")
    manifest = json.loads((root / "manifest.json").read_text())
    # the same byte count as the 1 x 32 x 32 image the manifest declares
    manifest["samples"][3]["images"]["ir"]["shape"] = [1, 16, 64]
    (root / "manifest.json").write_text(json.dumps(manifest))
    with pytest.raises(StoreError, match=r"'s00003_ir.bin', 'shape': \[1, 16, 64\]"):
        load_dataset(root)
    assert blob_reads["s00002_ir.bin"] == 1 and blob_reads["s00003_ir.bin"] == 0


@pytest.mark.parametrize("ignore", [0, 4])
def test_an_ignore_index_that_is_a_class_id_is_rejected(tmp_path, ignore):
    root = save_dataset(small_ds(seed=13, n=1), tmp_path / "ds")
    manifest = json.loads((root / "manifest.json").read_text())
    manifest["ignore_index"] = ignore
    (root / "manifest.json").write_text(json.dumps(manifest))
    with pytest.raises(StoreError, match=f"ignore_index {ignore} is a class id"):
        load_dataset(root)
    manifest["ignore_index"] = 5       # the first id past the 5 classes
    (root / "manifest.json").write_text(json.dumps(manifest))
    assert load_dataset(root).ignore_index == 5


def test_out_of_range_labels_rejected(tmp_path):
    ds = small_ds(seed=13, n=1)
    ds.samples[0].label[0, 0] = 200    # not a class, not ignore
    root = save_dataset(ds, tmp_path / "ds")
    with pytest.raises(StoreError, match="class ids"):
        load_dataset(root)


# ---------------------------------------------------------------------
# batching
# ---------------------------------------------------------------------

def test_batch_iter_same_seed_same_order():
    ds = small_ds(seed=14, n=11)
    a = [id(s) for batch in batch_iter(ds, 3, shuffle_seed=5, epoch=2) for s in batch]
    b = [id(s) for batch in batch_iter(ds, 3, shuffle_seed=5, epoch=2) for s in batch]
    assert a == b


def test_batch_iter_epochs_differ():
    ds = small_ds(seed=15, n=12)
    e0 = [id(s) for batch in batch_iter(ds, 4, shuffle_seed=1, epoch=0) for s in batch]
    e1 = [id(s) for batch in batch_iter(ds, 4, shuffle_seed=1, epoch=1) for s in batch]
    assert e0 != e1


def test_batch_iter_partitions_dataset():
    ds = small_ds(seed=16, n=10)
    seen = [s for batch in batch_iter(ds, 3, shuffle_seed=0, epoch=0) for s in batch]
    assert len(seen) == 10
    assert {id(s) for s in seen} == {id(s) for s in ds.samples}
    sizes = [len(b) for b in batch_iter(ds, 3, shuffle_seed=0, epoch=0)]
    assert sizes == [3, 3, 3, 1]   # last partial batch kept


def test_batch_iter_validation():
    with pytest.raises(ValueError):
        next(batch_iter(small_ds(17, n=2), 0))


def test_stack_batch_shapes():
    ds = small_ds(seed=18, n=5)
    batch = next(batch_iter(ds, 4))
    images, labels = stack_batch(batch, ds.modality_names)
    assert labels.shape == (4, 32, 32) and labels.dtype == np.int64
    for name, _ in ds.modalities:
        assert images[name].shape == (4, 1, 32, 32)
