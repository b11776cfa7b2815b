"""Feature CSV and manifest round trips, group parsing."""

import numpy as np
import pytest

from ctradiomics import dataio
from ctradiomics.features import FEATURE_COLUMNS, extract_all

from conftest import random_blob_region


def _records(n=3):
    out = []
    for i in range(n):
        region = random_blob_region(seed=i)
        fv = extract_all(region, lesion_id=f"scan_{i}/1")
        out.append((f"scan_{i}/1", f"scan_{i}", (i % 3) + 1, fv))
    return out


class TestFeatureCsv:
    def test_round_trip(self, tmp_path):
        records = _records()
        path = tmp_path / "features.csv"
        dataio.write_features_csv(path, records)
        ds = dataio.read_features_csv(path)
        assert ds.feature_names == FEATURE_COLUMNS
        assert len(ds) == 3
        assert ds.y.tolist() == [1, 2, 3]
        for row, (_, _, _, fv) in zip(ds.x, records):
            assert np.array_equal(row, fv.as_array())  # repr round-trips exactly

    def test_write_is_deterministic(self, tmp_path):
        records = _records()
        p1 = tmp_path / "a.csv"
        p2 = tmp_path / "b.csv"
        dataio.write_features_csv(p1, records)
        dataio.write_features_csv(p2, records)
        assert p1.read_bytes() == p2.read_bytes()

    def test_unlabeled_rows(self, tmp_path):
        records = [(l, s, None, fv) for l, s, _, fv in _records(2)]
        path = tmp_path / "features.csv"
        dataio.write_features_csv(path, records)
        ds = dataio.read_features_csv(path)
        assert ds.y is None

    def test_header_shape(self, tmp_path):
        path = tmp_path / "features.csv"
        dataio.write_features_csv(path, _records(1))
        header = path.read_text().splitlines()[0].split(",")
        assert header[:3] == ["lesion_id", "scan_id", "class"]
        assert len(header) == 108

    def test_bad_header_rejected(self, tmp_path):
        path = tmp_path / "bad.csv"
        path.write_text("a,b,c,fos_Mean\n1,2,3,4\n")
        with pytest.raises(ValueError, match="id columns"):
            dataio.read_features_csv(path)

    def test_header_only_file_is_empty_dataset(self, tmp_path):
        path = tmp_path / "features.csv"
        dataio.write_features_csv(path, [])
        ds = dataio.read_features_csv(path)
        assert len(ds) == 0
        assert ds.x.shape == (0, len(FEATURE_COLUMNS))
        assert ds.feature_names == FEATURE_COLUMNS
        assert ds.y.dtype.kind == "i" and ds.y.shape == (0,)

    def test_ragged_row_names_path_and_line(self, tmp_path):
        path = tmp_path / "features.csv"
        dataio.write_features_csv(path, _records(2))
        lines = path.read_text().splitlines()
        lines[2] = lines[2].rsplit(",", 1)[0]  # drop the last cell of the second row
        path.write_text("\n".join(lines) + "\n")
        with pytest.raises(ValueError, match=r"features\.csv: line 3 has 107 cells but the header has 108"):
            dataio.read_features_csv(path)


class TestGroups:
    def test_presets(self):
        assert dataio.parse_groups("all") == ("shape", "fos", "glcm", "gldm", "glrlm", "glszm", "ngtdm")
        assert dataio.parse_groups("shape") == ("shape",)
        assert dataio.parse_groups("shape+fos") == ("shape", "fos")
        assert dataio.parse_groups("texture") == ("glcm", "gldm", "glrlm", "glszm", "ngtdm")

    def test_custom(self):
        assert dataio.parse_groups("custom:glcm,ngtdm") == ("glcm", "ngtdm")

    def test_unknown_rejected(self):
        with pytest.raises(ValueError):
            dataio.parse_groups("everything")
        with pytest.raises(ValueError):
            dataio.parse_groups("custom:wavelet")

    def test_columns_for_groups_counts(self):
        counts = {
            "all": 105,
            "shape": 13,
            "shape+fos": 31,
            "texture": 74,
        }
        for preset, expected in counts.items():
            groups = dataio.parse_groups(preset)
            assert len(dataio.columns_for_groups(FEATURE_COLUMNS, groups)) == expected


class TestManifest:
    def test_round_trip(self, tmp_path):
        entries = [
            dataio.ManifestEntry("s1", tmp_path / "img1.nii", tmp_path / "m1.nii", {1: 2}),
            dataio.ManifestEntry("s2", tmp_path / "img2.nii", tmp_path / "m2.nii", {1: 1, 2: 3}),
        ]
        path = tmp_path / "manifest.csv"
        dataio.write_manifest(path, entries)
        loaded = dataio.read_manifest(path)
        assert [e.scan_id for e in loaded] == ["s1", "s2"]
        assert loaded[1].class_map == {1: 1, 2: 3}

    def test_relative_paths_resolve_against_manifest(self, tmp_path):
        path = tmp_path / "manifest.csv"
        path.write_text(
            "scan_id,image_path,mask_path,class_map\ns1,images/a.nii,masks/a.nii,1=1\n"
        )
        entry = dataio.read_manifest(path)[0]
        assert entry.image_path == tmp_path / "images/a.nii"
        assert entry.mask_path == tmp_path / "masks/a.nii"

    def test_missing_columns_rejected(self, tmp_path):
        path = tmp_path / "manifest.csv"
        path.write_text("scan_id,image_path\ns1,a.nii\n")
        with pytest.raises(ValueError, match="manifest needs columns"):
            dataio.read_manifest(path)

    def test_empty_manifest_rejected(self, tmp_path):
        path = tmp_path / "manifest.csv"
        path.write_text("scan_id,image_path,mask_path,class_map\n")
        with pytest.raises(ValueError, match="no scans"):
            dataio.read_manifest(path)
