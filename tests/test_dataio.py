"""Feature CSV and manifest round trips, the output cell format, group parsing."""

from pathlib import Path

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
            assert np.array_equal(row, list(fv.values.values()))  # repr round-trips exactly

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

    def test_byte_order_mark_is_skipped(self, tmp_path):
        # Excel saves "CSV UTF-8" with a BOM before the first column name
        path = tmp_path / "features.csv"
        dataio.write_features_csv(path, _records())
        bom = tmp_path / "bom.csv"
        bom.write_bytes(b"\xef\xbb\xbf" + path.read_bytes())
        got, want = dataio.read_features_csv(bom), dataio.read_features_csv(path)
        assert (got.feature_names, got.lesion_ids, got.y.tolist()) == (want.feature_names, want.lesion_ids, want.y.tolist())
        assert got.x.tobytes() == want.x.tobytes()

    def test_header_only_file_is_empty_dataset(self, tmp_path):
        path = tmp_path / "features.csv"
        dataio.write_features_csv(path, [])
        ds = dataio.read_features_csv(path)
        assert len(ds) == 0
        assert ds.x.shape == (0, len(FEATURE_COLUMNS))
        assert ds.feature_names == FEATURE_COLUMNS
        assert ds.y.dtype.kind == "i" and ds.y.shape == (0,)

    def test_repeated_column_rejected(self, tmp_path):
        # subset_columns would fill both columns from the second
        path = tmp_path / "features.csv"
        path.write_text("lesion_id,scan_id,class,shape_MeshVolume,shape_MeshVolume\na,s,1,1.0,2.0\n")
        with pytest.raises(ValueError) as caught:
            dataio.read_features_csv(path)
        assert str(caught.value) == f"{path}: the header names shape_MeshVolume more than once"

    def test_class_cell_not_an_integer_names_path_and_line(self, tmp_path):
        path = tmp_path / "features.csv"
        path.write_text("lesion_id,scan_id,class,shape_MeshVolume\na,s,1,1.0\nb,s,x,2.0\n")
        with pytest.raises(ValueError) as caught:
            dataio.read_features_csv(path)
        assert str(caught.value) == f"{path}: line 3: class cell 'x' is not an integer"

    @pytest.mark.parametrize("cell", ["0", "4", "-1"])
    def test_class_outside_the_class_ids_names_path_line_and_cell(self, tmp_path, cell):
        # extract writes only classes 1-3; stats would report a group c0 and train fit a class 4
        path = tmp_path / "features.csv"
        path.write_text(f"lesion_id,scan_id,class,shape_MeshVolume\na,s,1,1.0\nb,s,{cell},2.0\n")
        with pytest.raises(ValueError) as caught:
            dataio.read_features_csv(path)
        assert str(caught.value) == f"{path}: line 3: class cell {cell!r} is not one of the class ids (1, 2, 3)"

    def test_repeated_lesion_id_names_both_lines(self, tmp_path):
        # the two copies could land in a training fold and in its held-out fold
        path = tmp_path / "features.csv"
        path.write_text("lesion_id,scan_id,class,shape_MeshVolume\na,s,1,1.0\nb,s,2,2.0\na,s,1,1.0\n")
        with pytest.raises(ValueError) as caught:
            dataio.read_features_csv(path)
        assert str(caught.value) == f"{path}: lesion_id 'a' on line 4 repeats line 2"

    def test_feature_cell_not_a_number_names_path_line_and_column(self, tmp_path):
        path = tmp_path / "features.csv"
        path.write_text("lesion_id,scan_id,class,shape_MeshVolume,shape_SurfaceArea\na,s,1,1.0,abc\n")
        with pytest.raises(ValueError) as caught:
            dataio.read_features_csv(path)
        assert str(caught.value) == f"{path}: line 2: column 'shape_SurfaceArea' cell 'abc' is not a number"

    @pytest.mark.parametrize("cell", ["nan", "NaN", "inf", "-inf", "Infinity"])
    def test_feature_cell_not_finite_names_path_line_and_column(self, tmp_path, cell):
        # Dataset would reject the table as "X contains non-finite values", with no location
        path = tmp_path / "features.csv"
        path.write_text(f"lesion_id,scan_id,class,shape_MeshVolume,shape_SurfaceArea\na,s,1,1.0,2.0\nb,s,2,3.0,{cell}\n")
        with pytest.raises(ValueError) as caught:
            dataio.read_features_csv(path)
        assert str(caught.value) == f"{path}: line 3: column 'shape_SurfaceArea' cell {cell!r} is not finite"

    @pytest.mark.parametrize(
        "classes, line", [(("1", "", "2", ""), 3), (("", "1", "2", "3"), 2), (("1", "2", "3", ""), 5)]
    )
    def test_class_column_empty_on_some_lines_names_the_first(self, tmp_path, classes, line):
        # read as wholly unlabelled, stats and train would refuse it as having no class column
        path = tmp_path / "features.csv"
        rows = "".join(f"l{i},s,{c},{i}.5\n" for i, c in enumerate(classes))
        path.write_text("lesion_id,scan_id,class,shape_MeshVolume\n" + rows)
        with pytest.raises(ValueError) as caught:
            dataio.read_features_csv(path)
        assert str(caught.value) == f"{path}: line {line} has no class, but other lines do"

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
        # an unknown family in a custom list is rejected where it is used,
        # by columns_for_groups (tests/test_cli.py runs it through train)
        with pytest.raises(ValueError):
            dataio.parse_groups("everything")
        assert dataio.parse_groups("custom:wavelet") == ("wavelet",)
        with pytest.raises(ValueError, match=r"unknown feature groups: \['wavelet'\]"):
            dataio.columns_for_groups(FEATURE_COLUMNS, ("glcm", "wavelet"))

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


def test_write_csv_cell_format(tmp_path):
    # the bytes every CSV output is made of: a float as its shortest repr, a
    # bool as true/false and None as an empty cell
    path = tmp_path / "cells.csv"
    row = [0.1, float(np.float64(2.0) / 3.0), 1e-05, 1e16, True, False, None, 7, "a,b", Path("images/x.nii")]
    dataio.write_csv(path, ["f", "f64", "small", "big", "t", "f", "none", "int", "str", "path"], [row])
    expected = 'f,f64,small,big,t,f,none,int,str,path\n0.1,0.6666666666666666,1e-05,1e+16,true,false,,7,"a,b",images/x.nii\n'
    assert path.read_bytes() == expected.encode()


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

    def test_repeated_column_rejected(self, tmp_path):
        # DictReader would keep the last class_map cell and map label 1 to class 3
        path = tmp_path / "manifest.csv"
        path.write_text("scan_id,image_path,mask_path,class_map,class_map\ns1,a.nii,m.nii,1=1,1=3\n")
        with pytest.raises(ValueError) as caught:
            dataio.read_manifest(path)
        assert str(caught.value) == f"{path}: the header names class_map more than once"

    def test_relative_paths_resolve_against_manifest(self, tmp_path):
        path = tmp_path / "manifest.csv"
        path.write_text(
            "scan_id,image_path,mask_path,class_map\ns1,images/a.nii,masks/a.nii,1=1\n"
        )
        entry = dataio.read_manifest(path)[0]
        assert entry.image_path == tmp_path / "images/a.nii"
        assert entry.mask_path == tmp_path / "masks/a.nii"

    def test_byte_order_mark_is_skipped(self, tmp_path):
        path = tmp_path / "manifest.csv"
        path.write_bytes(b"\xef\xbb\xbfscan_id,image_path,mask_path,class_map\ns1,a.nii,m.nii,1=2\n")
        (entry,) = dataio.read_manifest(path)
        assert (entry.scan_id, entry.image_path, entry.class_map) == ("s1", tmp_path / "a.nii", {1: 2})

    def test_missing_columns_rejected(self, tmp_path):
        path = tmp_path / "manifest.csv"
        path.write_text("scan_id,image_path\ns1,a.nii\n")
        with pytest.raises(ValueError, match="manifest needs columns"):
            dataio.read_manifest(path)

    def test_repeated_scan_id_rejected(self, tmp_path):
        path = tmp_path / "manifest.csv"
        path.write_text(
            "scan_id,image_path,mask_path,class_map\n"
            "s1,a.nii,ma.nii,1=1\ns2,b.nii,mb.nii,1=2\ns1,c.nii,mc.nii,1=3\n"
        )
        with pytest.raises(ValueError) as caught:
            dataio.read_manifest(path)
        assert str(caught.value) == f"{path}: scan_id 's1' on line 4 repeats line 2"

    def test_label_given_twice_in_one_cell_rejected(self, tmp_path):
        path = tmp_path / "manifest.csv"
        path.write_text("scan_id,image_path,mask_path,class_map\ns1,a.nii,m.nii,1=1;1=3\n")
        with pytest.raises(ValueError) as caught:
            dataio.read_manifest(path)
        assert str(caught.value) == f"{path}: line 2: label 1 given twice in class map cell '1=1;1=3'"

    @pytest.mark.parametrize("pair", ["1", "1=", "=2", "a=1", "1=2=3"])
    def test_malformed_class_map_pair_is_named(self, tmp_path, pair):
        path = tmp_path / "manifest.csv"
        path.write_text(f"scan_id,image_path,mask_path,class_map\ns1,a.nii,m.nii,2=1;{pair}\n")
        with pytest.raises(ValueError) as caught:
            dataio.read_manifest(path)
        message = f"{path}: line 2: malformed label=class pair {pair!r} in class map cell '2=1;{pair}'"
        assert str(caught.value) == message

    def test_short_row_rejected_with_its_line(self, tmp_path):
        path = tmp_path / "manifest.csv"
        path.write_text("scan_id,image_path,mask_path,class_map\ns1,a.nii,m.nii,1=1\ns2,b.nii,m.nii\n")
        with pytest.raises(ValueError) as caught:
            dataio.read_manifest(path)
        assert str(caught.value) == f"{path}: line 3 has 3 cells but the header has 4"

    def test_long_row_rejected_with_its_line(self, tmp_path):
        path = tmp_path / "manifest.csv"
        path.write_text("scan_id,image_path,mask_path,class_map\ns1,a.nii,m.nii,1=1\ns2,b.nii,m.nii,1=1,extra\n")
        with pytest.raises(ValueError) as caught:
            dataio.read_manifest(path)
        assert str(caught.value) == f"{path}: line 3 has 5 cells but the header has 4"

    def test_empty_scan_id_rejected_with_its_line(self, tmp_path):
        path = tmp_path / "manifest.csv"
        path.write_text("scan_id,image_path,mask_path,class_map\n,a.nii,m.nii,1=1\n")
        with pytest.raises(ValueError) as caught:
            dataio.read_manifest(path)
        assert str(caught.value) == f"{path}: line 2 has an empty scan_id"

    def test_empty_manifest_rejected(self, tmp_path):
        path = tmp_path / "manifest.csv"
        path.write_text("scan_id,image_path,mask_path,class_map\n")
        with pytest.raises(ValueError, match="no scans"):
            dataio.read_manifest(path)


# each reader's header and one good row; both read through the same row reader
_READERS = {
    "features": (dataio.read_features_csv, "lesion_id", "lesion_id,scan_id,class,shape_MeshVolume", "a,s,1,1.0"),
    "manifest": (dataio.read_manifest, "scan_id", "scan_id,image_path,mask_path,class_map", "a,a.nii,m.nii,1=1"),
}


@pytest.mark.parametrize("reader", sorted(_READERS))
@pytest.mark.parametrize(
    "fault, message",
    [
        ("empty", "empty file"),
        ("repeated column", "the header names {key} more than once"),
        ("short row", "line 3 has 3 cells but the header has 4"),
        ("long row", "line 3 has 5 cells but the header has 4"),
        ("blank line", "line 3 has 0 cells but the header has 4"),
        ("empty key", "line 3 has an empty {key}"),
        ("repeated key", "{key} 'a' on line 4 repeats line 2"),
    ],
)
def test_both_readers_share_the_row_rules(tmp_path, reader, fault, message):
    read, key, header, row = _READERS[reader]
    other = row.replace("a", "b", 1)  # the good row under another key
    text = {
        "empty": "",
        "repeated column": f"{header},{key}\n{row},x\n",
        "short row": f"{header}\n{row}\n{other.rsplit(',', 1)[0]}\n",
        "long row": f"{header}\n{row}\n{other},extra\n",
        "blank line": f"{header}\n{row}\n\n{other}\n",
        "empty key": f"{header}\n{row}\n{row[1:]}\n",
        "repeated key": f"{header}\n{row}\n{other}\n{row}\n",
    }[fault]
    path = tmp_path / "input.csv"
    path.write_text(text)
    with pytest.raises(ValueError) as caught:
        read(path)
    assert str(caught.value) == f"{path}: " + message.format(key=key)


def test_dataset_class_ids_are_whole_numbers():
    x = np.zeros((6, 1))
    with pytest.raises(ValueError, match="^class id 1.5 is not a whole number$"):
        dataio.Dataset(x=x, y=[1.5, 2.5, 1, 2, 1, 2], feature_names=("f",))
    ds = dataio.Dataset(x=x, y=[1.0, 2.0, 1, 2, 1, 2], feature_names=("f",))
    assert ds.y.dtype.kind == "i"
    assert ds.y.tolist() == [1, 2, 1, 2, 1, 2]


def _written(directory, name, text):
    path = directory / name
    path.write_text(text)
    return path


@pytest.mark.parametrize(
    "call, message",
    [
        (lambda tmp: dataio.Dataset(x=np.zeros(3), y=None, feature_names=("f",)), "^X must be 2D$"),
        (
            lambda tmp: dataio.Dataset(x=np.zeros((2, 2)), y=None, feature_names=("f",)),
            "^column count does not match feature names$",
        ),
        (lambda tmp: dataio.Dataset(x=[[np.inf]], y=None, feature_names=("f",)), "^X contains non-finite values$"),
        (lambda tmp: dataio.Dataset(x=np.zeros((2, 1)), y=[1], feature_names=("f",)), "^y length does not match X$"),
        (
            lambda tmp: dataio.read_features_csv(_written(tmp, "features.csv", "lesion_id,scan_id,class\na,s,1\n")),
            r"features\.csv: no feature columns$",
        ),
        # both pairs of the cell are empty, and an empty pair is skipped
        (
            lambda tmp: dataio.read_manifest(
                _written(tmp, "manifest.csv", "scan_id,image_path,mask_path,class_map\ns1,a.nii,m.nii, ; \n")
            ),
            r"manifest\.csv: line 2: empty label=class map cell: ' ; '$",
        ),
    ],
    ids=["1D X", "column count", "non-finite X", "y length", "no feature columns", "empty class map"],
)
def test_each_rejected_input_names_its_fault(tmp_path, call, message):
    with pytest.raises(ValueError, match=message):
        call(tmp_path)


def test_an_empty_class_map_pair_is_skipped(tmp_path):
    path = _written(tmp_path, "manifest.csv", "scan_id,image_path,mask_path,class_map\ns1,a.nii,m.nii,1=2;;2=3;\n")
    (entry,) = dataio.read_manifest(path)
    assert entry.class_map == {1: 2, 2: 3}
