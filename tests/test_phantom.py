"""Phantom generation: determinism and the planted class differences."""

import numpy as np
import pytest

from ctradiomics import phantom
from ctradiomics.cli import extract_scan, main
from ctradiomics.dataio import Dataset, write_features_csv
from ctradiomics.features import DEFAULT_BIN_WIDTH, FEATURE_COLUMNS


def test_counts_and_interleaving():
    scans = phantom.generate_phantom(2, seed=0)
    assert len(scans) == 6
    assert [s.class_id for s in scans] == [1, 2, 3, 1, 2, 3]
    scans = phantom.generate_phantom((2, 1, 1), seed=0)
    assert [s.class_id for s in scans] == [1, 2, 3, 1]


def test_determinism_bytes():
    a = phantom.generate_phantom(2, seed=42)
    b = phantom.generate_phantom(2, seed=42)
    for sa, sb in zip(a, b):
        assert sa.scan_id == sb.scan_id
        assert sa.class_id == sb.class_id
        assert sa.volume.data.tobytes() == sb.volume.data.tobytes()
        assert np.array_equal(sa.mask.labels, sb.mask.labels)


def test_seed_changes_data():
    a = phantom.generate_phantom(1, seed=1)
    b = phantom.generate_phantom(1, seed=2)
    assert a[0].volume.data.tobytes() != b[0].volume.data.tobytes()


def test_masks_have_single_label_and_class_map():
    for scan in phantom.generate_phantom(1, seed=3):
        labels = set(np.unique(scan.mask.labels).tolist())
        assert labels == {0, 1}
        assert scan.mask.class_of_label == {1: scan.class_id}


def test_rows_in_memory_are_the_bytes_of_phantom_and_extract(tmp_path):
    # a scan in memory holds the values the phantom command writes to its files
    cohort = tmp_path / "cohort"
    assert main(["phantom", "--out", str(cohort), "--n-per-class", "2", "--seed", "5"]) == 0
    assert main(["extract", "--manifest", str(cohort / "manifest.csv"), "--out", str(tmp_path / "cli.csv")]) == 0
    rows = [
        row
        for scan in phantom.generate_phantom(2, seed=5)
        for row in extract_scan(scan.scan_id, scan.volume, scan.mask, DEFAULT_BIN_WIDTH, 1.0)
    ]
    write_features_csv(tmp_path / "memory.csv", rows)
    assert (tmp_path / "memory.csv").read_bytes() == (tmp_path / "cli.csv").read_bytes()


@pytest.fixture(scope="module")
def small_dataset():
    # extracted in memory through the CLI's one extraction path, at 25 HU and 1 mm
    rows = [
        row
        for scan in phantom.generate_phantom(8, seed=42)
        for row in extract_scan(scan.scan_id, scan.volume, scan.mask, DEFAULT_BIN_WIDTH, 1.0)
    ]
    lesion_ids, scan_ids, y, vectors = zip(*rows)
    x = np.array([list(fv.values.values()) for fv in vectors])
    return Dataset(x, np.array(y), FEATURE_COLUMNS, lesion_ids, scan_ids)


def test_dataset_shape(small_dataset):
    assert small_dataset.x.shape == (24, 105)
    assert sorted(set(small_dataset.y.tolist())) == [1, 2, 3]


def test_shell_sphericity_below_lens(small_dataset):
    ds = small_dataset
    col = ds.feature_names.index("shape_Sphericity")
    mean_shell = ds.x[ds.y == 1, col].mean()
    mean_lens = ds.x[ds.y == 2, col].mean()
    assert mean_shell < mean_lens


def test_speckled_class_has_highest_contrast(small_dataset):
    ds = small_dataset
    col = ds.feature_names.index("glcm_Contrast")
    means = {c: ds.x[ds.y == c, col].mean() for c in (1, 2, 3)}
    assert means[3] > means[1]
    assert means[3] > means[2]


def test_planted_features_separate_classes(small_dataset):
    ds = small_dataset
    for name in phantom.PLANTED_FEATURES:
        col = ds.feature_names.index(name)
        groups = [ds.x[ds.y == c, col] for c in (1, 2, 3)]
        spread = max(g.mean() for g in groups) - min(g.mean() for g in groups)
        pooled_sd = np.concatenate(groups).std()
        assert spread > 0.5 * pooled_sd, name
