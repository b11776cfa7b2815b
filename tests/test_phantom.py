"""Phantom generation: determinism, streaming, the written bytes, the masks
built on the lesion's box and the planted class differences."""

import contextlib
import hashlib
import io
import tracemalloc

import numpy as np
import oracles
import pytest

from ctradiomics import phantom
from ctradiomics.cli import extract_scan, main
from ctradiomics.dataio import Dataset, write_features_csv
from ctradiomics.features import DEFAULT_BIN_WIDTH, FEATURE_COLUMNS
from ctradiomics.volume_io import _label_boxes


def test_counts_and_interleaving():
    scans = list(phantom.generate_phantom(2, seed=0))
    assert len(scans) == 6
    assert [s.class_id for s in scans] == [1, 2, 3, 1, 2, 3]
    scans = list(phantom.generate_phantom((2, 1, 1), seed=0))
    assert [s.class_id for s in scans] == [1, 2, 3, 1]
    scans = list(phantom.generate_phantom((0, 3, 1), seed=0))
    assert [s.class_id for s in scans] == [2, 3, 2, 2]
    assert [s.scan_id for s in scans] == [f"phantom_{i:04d}" for i in range(4)]


def test_scans_are_made_one_at_a_time():
    scans = phantom.generate_phantom(2, seed=0)
    assert not isinstance(scans, list)
    first = next(scans)
    assert (first.scan_id, first.class_id) == ("phantom_0000", 1)
    assert len(list(scans)) == 5


@pytest.mark.parametrize("counts", [(0, 0, 0), (-1, 2, 2), 0, (1, 2)])
def test_bad_counts_raise_at_the_call(counts):
    with pytest.raises(ValueError, match="n_per_class"):
        phantom.generate_phantom(counts, seed=1)  # no scan is asked for


def test_cli_bad_counts_exit_2_and_write_no_manifest(tmp_path, capsys):
    assert main(["phantom", "--out", str(tmp_path / "cohort"), "--n-per-class", "0,0,0", "--seed", "1"]) == 2
    assert not (tmp_path / "cohort").exists()  # the counts are checked before any directory is made
    assert "n_per_class" in capsys.readouterr().err


def _phantom_peak_mib(out, n_per_class):
    tracemalloc.start()
    try:
        with contextlib.redirect_stdout(io.StringIO()):
            assert main(["phantom", "--out", str(out), "--n-per-class", str(n_per_class), "--seed", "1"]) == 0
        return tracemalloc.get_traced_memory()[1] / 2**20
    finally:
        tracemalloc.stop()


def test_cli_memory_does_not_grow_with_the_cohort(tmp_path):
    # one scan is held at a time, so the peak follows the largest scan, not the cohort
    small = _phantom_peak_mib(tmp_path / "small", 2)
    large = _phantom_peak_mib(tmp_path / "large", 20)
    assert large - small <= 3.0, (small, large)


def test_cli_peak_follows_the_lesion_box(tmp_path):
    # masks are built on the lesion's box and the float32 image is held once:
    # measured 1.3 MiB with numpy 2.4, and 5.2 MiB from whole-cube masks and float64 twins
    _phantom_peak_mib(tmp_path / "warm", 1)  # imports
    assert _phantom_peak_mib(tmp_path / "cohort", 20) <= 3.0


@pytest.mark.parametrize("class_id", [1, 2, 3])
def test_box_masks_equal_the_whole_cube_oracle(class_id):
    # the sub-block products must round as the whole-cube ones do, and the
    # same draws must be consumed, or every later scan's bytes move
    for seed in range(100):
        ours, theirs = np.random.default_rng(seed), np.random.default_rng(seed)
        lesion, box, side = phantom._lesion_mask(class_id, ours)
        whole = np.zeros((side,) * 3, dtype=bool)
        whole[box] = lesion
        expected = oracles.lesion_mask_whole_cube(class_id, theirs)
        assert whole.shape == expected.shape and np.array_equal(whole, expected), seed
        assert ours.bit_generator.state == theirs.bit_generator.state, seed


def test_volume_holds_the_float32_image_once():
    scan = next(phantom.generate_phantom(1, seed=4))
    payload = scan.volume.payload
    assert payload.dtype == phantom.IMAGE_DTYPE and payload.shape == scan.mask.dims
    assert [k for k, v in vars(scan.volume).items() if isinstance(v, np.ndarray)] == ["_payload"]
    assert np.array_equal(scan.volume.data, payload.astype(np.float64))


def test_mask_boxes_are_the_label_boxes():
    for scan in phantom.generate_phantom(6, seed=0):
        expected = _label_boxes(scan.mask.labels)
        assert list(scan.mask.boxes) == list(expected) == [1], scan.scan_id
        for got, want in zip(scan.mask.boxes[1], expected[1]):
            assert np.array_equal(got, want), scan.scan_id


# SHA-256 of the files `phantom --n-per-class 2 --seed 1` writes, recorded
# before the generator streamed its scans and built its masks from 1-D axes
PINNED_SHA256 = {
    "images/phantom_0000.nii": "90873507a4418e6363fcb9db94935c3362fc6ad3e76f0793a962b5db14326286",
    "images/phantom_0001.nii": "773d83c6f34eb929ae726245cc9f710f5abc0d2e0860251bf695fed22abbcb04",
    "images/phantom_0002.nii": "830f5e6f051a24eed5ea3ea05310804146136b8e6057601d41cf4e57d568077e",
    "images/phantom_0003.nii": "5e261506d818e0f9326f56223025d0462b2c944e65161e5e7d7c6e43f9519052",
    "images/phantom_0004.nii": "2bd81738139e327b69af8df8fe80208963018672a9037f58c4482791408ea648",
    "images/phantom_0005.nii": "8f6b6a355f43269a315119e7dcce5555eb4d0767ab7c67be841959bf55ecb808",
    "masks/phantom_0000.nii": "bfe8e15771be404d59102248a5b8dcdae0f04d3b9b58a68a7078659271891f9e",
    "masks/phantom_0001.nii": "b97014a775ffb5cfd8626c1bbbbdde9ceda87b5d92ddc0c743b143a8cab05e61",
    "masks/phantom_0002.nii": "3e63e8e5a189048a97009c5b2fb7110bee82ef2e0a12af9027c6471c629fb628",
    "masks/phantom_0003.nii": "1e61e2e4818115feda2a167d245e37d10c48dcaf26ed1a6583d62e205b73b523",
    "masks/phantom_0004.nii": "13bbec4f49dca8248ccf06dbac00d7505db0685168c0a39a93d990eeb3e28f69",
    "masks/phantom_0005.nii": "b4eb604c4ab05f07abf8bc663d430f245ce9583c53da78c2f928a72827c18ee1",
}


def test_cli_writes_the_pinned_bytes(tmp_path):
    # the golden gate compares features at rel 1e-12; a last-bit change in a float32 image passes it
    assert main(["phantom", "--out", str(tmp_path), "--n-per-class", "2", "--seed", "1"]) == 0
    written = {p.relative_to(tmp_path).as_posix() for p in tmp_path.glob("*/*.nii")}
    assert written == set(PINNED_SHA256)
    digests = {name: hashlib.sha256((tmp_path / name).read_bytes()).hexdigest() for name in sorted(written)}
    assert digests == PINNED_SHA256


def test_determinism_bytes():
    a = list(phantom.generate_phantom(2, seed=42))
    b = list(phantom.generate_phantom(2, seed=42))
    assert len(a) == len(b) == 6
    for sa, sb in zip(a, b):
        assert sa.scan_id == sb.scan_id
        assert sa.class_id == sb.class_id
        assert sa.volume.data.tobytes() == sb.volume.data.tobytes()
        assert np.array_equal(sa.mask.labels, sb.mask.labels)


def test_seed_changes_data():
    a = list(phantom.generate_phantom(1, seed=1))
    b = list(phantom.generate_phantom(1, seed=2))
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
