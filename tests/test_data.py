"""Synthetic scene generation, disk format, iteration."""

import itertools
import json

import numpy as np
import pytest

from adafuse.data import (DatasetError, batch_iter, generate_synthetic,
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
    with pytest.raises(DatasetError, match="bytes"):
        load_dataset(root)


def test_missing_blob_fails(tmp_path):
    root = save_dataset(small_ds(seed=10, n=2), tmp_path / "ds")
    next(root.glob("s00001_*.bin")).unlink()
    with pytest.raises(DatasetError, match="missing"):
        load_dataset(root)


def test_absolute_blob_paths_rejected(tmp_path):
    root = save_dataset(small_ds(seed=11, n=1), tmp_path / "ds")
    manifest = json.loads((root / "manifest.json").read_text())
    rec = manifest["samples"][0]["label"]
    rec["path"] = str((root / rec["path"]).resolve())
    (root / "manifest.json").write_text(json.dumps(manifest))
    with pytest.raises(DatasetError, match="relative"):
        load_dataset(root)


def test_unknown_version_rejected(tmp_path):
    root = save_dataset(small_ds(seed=12, n=1), tmp_path / "ds")
    manifest = json.loads((root / "manifest.json").read_text())
    manifest["version"] = 99
    (root / "manifest.json").write_text(json.dumps(manifest))
    with pytest.raises(DatasetError, match="version"):
        load_dataset(root)


def test_interrupted_save_leaves_no_manifest(tmp_path, fail_writes_after):
    root = save_dataset(small_ds(seed=14, n=3), tmp_path / "ds")
    fail_writes_after(2)
    with pytest.raises(OSError):
        save_dataset(small_ds(seed=15, n=3), root)
    with pytest.raises(DatasetError, match="no manifest.json"):
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


def contents(ds):
    """What ``load_dataset`` gives back, in a form ``==`` compares."""
    return (ds.seed, ds.modalities, [(s.label.tobytes(), *(img.tobytes() for img in
                                                          s.images.values()))
                                     for s in ds.samples])


@pytest.mark.parametrize("old,new", [(10, 3), (3, 10)], ids=["shrink", "grow"])
@pytest.mark.parametrize("prior", ["fresh", "after-an-interrupted-save", "legacy-old"])
def test_a_save_cut_at_any_change_leaves_one_whole_save_or_none(tmp_path, fail_writes_after,
                                                               monkeypatch, old, new, prior):
    """For every n, the n-th filesystem change of an ``old`` -> ``new``
    save fails. Before it, ``after-an-interrupted-save`` cuts a 5-scene
    save at its 11th change and ``legacy-old`` leaves the old manifest
    moved to ``manifest.json.old``, as older writers did mid-save. The
    directory then has no manifest or loads as exactly one of the two
    saves, and a complete save after it leaves only its own blobs, its
    manifest and a foreign file."""
    datasets = {n: small_ds(seed=n, n=n) for n in (old, new, 5, 1)}
    for n in itertools.count():
        root = save_dataset(datasets[old], tmp_path / f"ds{n}")
        (root / "notes.txt").write_text("not a blob")
        if prior == "after-an-interrupted-save":
            fail_writes_after(10, every_mutation=True)
            with pytest.raises(OSError):
                save_dataset(datasets[5], root)
            monkeypatch.undo()
        elif prior == "legacy-old":
            (root / "manifest.json").rename(root / "manifest.json.old")
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


@pytest.mark.parametrize("kept", [0, 3], ids=["old-only", "old-and-manifest"])
def test_save_deletes_the_blobs_a_legacy_old_manifest_names(tmp_path, kept):
    """Older writers moved the manifest aside to ``manifest.json.old``
    during a save and deleted the blobs only it named after the new
    manifest was in place; a save cut short between leaves those blobs.
    ``kept``: scenes of a ``manifest.json`` written beside it (0: none)."""
    root = save_dataset(small_ds(seed=16, n=10), tmp_path / "ds")
    (root / "manifest.json").rename(root / "manifest.json.old")
    if kept:
        manifest = json.loads((root / "manifest.json.old").read_text())
        manifest["samples"] = manifest["samples"][:kept]
        (root / "manifest.json").write_text(json.dumps(manifest))
    save_dataset(small_ds(seed=17, n=3), root)
    assert len(list(root.iterdir())) == 10
    assert len(load_dataset(root)) == 3


def test_out_of_range_labels_rejected(tmp_path):
    ds = small_ds(seed=13, n=1)
    ds.samples[0].label[0, 0] = 200    # not a class, not ignore
    root = save_dataset(ds, tmp_path / "ds")
    with pytest.raises(DatasetError, match="class ids"):
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
