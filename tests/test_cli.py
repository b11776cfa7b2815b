"""The command-line pipeline end to end on a small phantom cohort."""

import gzip
import inspect
import json
import multiprocessing
import os
import time
from pathlib import Path

import numpy as np
import pytest

from ctradiomics import cli, dataio, model_selection as ms, pls, stats
from ctradiomics.cli import main
from ctradiomics.dataio import read_features_csv, write_features_csv
from ctradiomics.volume_io import write_nifti


@pytest.fixture(scope="module")
def workspace(tmp_path_factory):
    """Phantom data plus extracted features shared across CLI tests."""
    root = tmp_path_factory.mktemp("cli")
    assert main(["phantom", "--out", str(root / "train"), "--n-per-class", "6", "--seed", "42"]) == 0
    assert main(["phantom", "--out", str(root / "test"), "--n-per-class", "2,2,2", "--seed", "7"]) == 0
    assert (
        main(
            [
                "extract",
                "--manifest",
                str(root / "train" / "manifest.csv"),
                "--out",
                str(root / "train.csv"),
            ]
        )
        == 0
    )
    assert (
        main(
            [
                "extract",
                "--manifest",
                str(root / "test" / "manifest.csv"),
                "--out",
                str(root / "test.csv"),
                "--jobs",
                "2",
            ]
        )
        == 0
    )
    return root


def test_phantom_outputs(workspace):
    manifest = (workspace / "train" / "manifest.csv").read_text().splitlines()
    assert len(manifest) == 19  # header + 18 scans
    assert len(list((workspace / "train" / "images").glob("*.nii"))) == 18
    assert len(list((workspace / "train" / "masks").glob("*.nii"))) == 18


def test_phantom_deterministic(workspace, tmp_path):
    assert main(["phantom", "--out", str(tmp_path / "again"), "--n-per-class", "6", "--seed", "42"]) == 0
    a = (workspace / "train" / "manifest.csv").read_bytes()
    b = (tmp_path / "again" / "manifest.csv").read_bytes()
    assert a == b
    img = "phantom_0003.nii"
    assert (workspace / "train" / "images" / img).read_bytes() == (
        tmp_path / "again" / "images" / img
    ).read_bytes()


def test_extract_shape_and_determinism(workspace, tmp_path):
    lines = (workspace / "train.csv").read_text().splitlines()
    assert len(lines) == 19
    assert len(lines[0].split(",")) == 108
    out = tmp_path / "repeat.csv"
    assert (
        main(
            [
                "extract",
                "--manifest",
                str(workspace / "train" / "manifest.csv"),
                "--out",
                str(out),
            ]
        )
        == 0
    )
    assert out.read_bytes() == (workspace / "train.csv").read_bytes()


def test_train_predict_evaluate(workspace, tmp_path):
    model_path = tmp_path / "model.json"
    report_path = tmp_path / "report.json"
    assert (
        main(
            [
                "train",
                "--features",
                str(workspace / "train.csv"),
                "--out",
                str(model_path),
                "--report",
                str(report_path),
                "--kfold",
                "5",
                "--max-lv",
                "8",
            ]
        )
        == 0
    )
    report = json.loads(report_path.read_text())
    assert report["considered_total"] == 105
    assert 0 < report["selected_total"] < 105

    pred_path = tmp_path / "pred.csv"
    assert (
        main(
            ["predict", "--features", str(workspace / "test.csv"), "--model", str(model_path), "--out", str(pred_path)]
        )
        == 0
    )
    rows = pred_path.read_text().splitlines()
    assert len(rows) == 7
    assert rows[0].split(",")[:3] == ["lesion_id", "scan_id", "predicted_class"]

    eval_path = tmp_path / "eval.json"
    assert (
        main(
            ["evaluate", "--features", str(workspace / "test.csv"), "--model", str(model_path), "--out", str(eval_path)]
        )
        == 0
    )
    metrics = json.loads(eval_path.read_text())["metrics"]
    assert set(metrics["sensitivity"]) == {"1", "2", "3"}
    assert sum(sum(row) for row in metrics["confusion"]) == 6


def test_train_group_presets(workspace, tmp_path):
    for preset, considered in (("shape", 13), ("texture", 74)):
        model_path = tmp_path / f"{preset}.json"
        assert (
            main(
                [
                    "train",
                    "--features",
                    str(workspace / "train.csv"),
                    "--out",
                    str(model_path),
                    "--groups",
                    preset,
                    "--no-select",
                    "--kfold",
                    "5",
                    "--max-lv",
                    "4",
                ]
            )
            == 0
        )
        report = json.loads(model_path.with_suffix(".report.json").read_text())
        assert report["considered_total"] == considered
        assert report["selected_total"] == considered


@pytest.mark.parametrize(
    "groups, message",
    [("custom:wavelet", "unknown feature groups: ['wavelet']"), ("custom:", "the feature group list is empty")],
)
def test_train_rejects_an_unknown_or_empty_custom_group_list(workspace, tmp_path, capsys, groups, message):
    out = tmp_path / "model.json"
    argv = ["train", "--features", str(workspace / "train.csv"), "--out", str(out), "--groups", groups]
    assert main(argv) == 2
    assert capsys.readouterr().err.splitlines() == [f"error: {message}"]
    assert not out.exists()


def test_experiments_and_determinism(workspace, tmp_path):
    out1 = tmp_path / "exp1.json"
    out2 = tmp_path / "exp2.json"
    for out in (out1, out2):
        assert (
            main(
                [
                    "experiments",
                    "--train",
                    str(workspace / "train.csv"),
                    "--test",
                    str(workspace / "test.csv"),
                    "--out",
                    str(out),
                    "--kfold",
                    "5",
                    "--max-lv",
                    "6",
                ]
            )
            == 0
        )
    assert out1.read_bytes() == out2.read_bytes()
    doc = json.loads(out1.read_text())
    assert [e["considered_total"] for e in doc["experiments"]] == [105, 105, 13, 31, 74]
    exp1 = doc["experiments"][0]
    assert exp1["selected_total"] == 105  # selection off keeps every family at 100%
    assert exp1["selected_by_family"] == exp1["considered_by_family"]
    assert doc["failures"] == []


def _round_trip(doc):
    """``doc`` as ``json.dump`` writes it and ``json.load`` reads it back."""
    return json.loads(json.dumps(doc))


def test_experiments_writes_what_run_experiments_returns(workspace, tmp_path):
    out = tmp_path / "experiments.json"
    argv = ["experiments", "--train", str(workspace / "train.csv"), "--test", str(workspace / "test.csv")]
    assert main(argv + ["--out", str(out), "--kfold", "5", "--max-lv", "6"]) == 0
    train, test = (read_features_csv(workspace / f"{name}.csv") for name in ("train", "test"))
    reports, failures = ms.run_experiments(train, test, ms.experiment_specs(k=5, max_lv=6))
    assert failures == {}
    assert json.loads(out.read_text()) == _round_trip({"experiments": reports, "failures": []})


def test_train_and_evaluate_write_what_fit_experiment_and_evaluate_return(workspace, tmp_path):
    model_path, report_path, eval_path = tmp_path / "model.json", tmp_path / "report.json", tmp_path / "eval.json"
    argv = ["train", "--features", str(workspace / "train.csv"), "--out", str(model_path)]
    assert main(argv + ["--report", str(report_path), "--kfold", "5", "--max-lv", "8"]) == 0
    argv = ["evaluate", "--features", str(workspace / "test.csv"), "--model", str(model_path)]
    assert main(argv + ["--out", str(eval_path)]) == 0
    spec = ms.ExperimentSpec(0, ms.GROUP_PRESETS["all"], True, k=5, max_lv=8)
    model, report = ms.fit_experiment(read_features_csv(workspace / "train.csv"), spec)
    assert json.loads(report_path.read_text()) == _round_trip(report)
    metrics = ms.evaluate(model, read_features_csv(workspace / "test.csv"))
    assert json.loads(eval_path.read_text())["metrics"] == _round_trip(metrics)


def test_stats_command(workspace, tmp_path):
    out = tmp_path / "stats.csv"
    assert (
        main(
            [
                "stats",
                "--features",
                str(workspace / "train.csv"),
                "--out",
                str(out),
                "--features-list",
                "shape_Sphericity,glcm_Contrast",
            ]
        )
        == 0
    )
    lines = out.read_text().splitlines()
    assert len(lines) == 3
    assert lines[0].startswith("feature,degenerate,H,p_value")


def test_stats_global_family_with_no_feature_past_alpha(workspace, tmp_path):
    # the global BH family is empty: every Dunn cell stays empty
    out = tmp_path / "stats.csv"
    argv = ["stats", "--features", str(workspace / "train.csv"), "--out", str(out)]
    assert main(argv + ["--global-family", "--alpha", "1e-300"]) == 0
    lines = out.read_text().splitlines()
    header, rows = lines[0].split(","), [line.split(",") for line in lines[1:]]
    assert len(rows) == 105
    dunn = range(4, header.index("median_c1"))  # z, p, p_adj and rejected of each class pair
    assert len(dunn) == 12
    assert all(row[k] == "" for row in rows for k in dunn)
    tested = [row for row in rows if row[1] == "false"]
    assert tested and all(float(row[3]) > 1e-300 for row in tested)


@pytest.mark.parametrize(
    "features_list, message",
    [
        ("shape_Sphericity,glcm_Contrast,shape_Sphericity", "feature 'shape_Sphericity' is listed more than once"),
        (",", "the feature list names no feature"),
    ],
    ids=["repeated", "empty"],
)
def test_stats_rejects_a_repeated_or_empty_features_list(workspace, tmp_path, capsys, features_list, message):
    out = tmp_path / "stats.csv"
    argv = ["stats", "--features", str(workspace / "train.csv"), "--out", str(out), "--features-list", features_list]
    assert main(argv) == 2
    assert capsys.readouterr().err.splitlines() == [f"error: {message}"]
    assert not out.exists()


def test_predict_missing_column_lists_it(workspace, tmp_path, capsys):
    model_path = tmp_path / "model.json"
    assert (
        main(
            [
                "train",
                "--features",
                str(workspace / "train.csv"),
                "--out",
                str(model_path),
                "--groups",
                "shape",
                "--no-select",
                "--kfold",
                "5",
                "--max-lv",
                "4",
            ]
        )
        == 0
    )
    # drop one column the model needs
    lines = (workspace / "train.csv").read_text().splitlines()
    header = lines[0].split(",")
    drop = header.index("shape_Sphericity")
    trimmed = "\n".join(",".join(v for i, v in enumerate(l.split(",")) if i != drop) for l in lines)
    bad_csv = tmp_path / "missing.csv"
    bad_csv.write_text(trimmed + "\n")
    code = main(["predict", "--features", str(bad_csv), "--model", str(model_path), "--out", str(tmp_path / "p.csv")])
    assert code != 0
    err = capsys.readouterr().err
    assert "shape_Sphericity" in err
    assert "glcm_Contrast" not in err


def test_extract_records_per_scan_errors(workspace, tmp_path, capsys):
    # one good scan, one with mismatched mask geometry
    good_img = workspace / "train" / "images" / "phantom_0000.nii"
    good_mask = workspace / "train" / "masks" / "phantom_0000.nii"
    bad_mask = tmp_path / "bad_mask.nii"
    write_nifti(bad_mask, np.zeros((3, 3, 3), dtype=np.uint8), (1.0, 1.0, 1.0))
    manifest = tmp_path / "manifest.csv"
    manifest.write_text(
        "scan_id,image_path,mask_path,class_map\n"
        f"ok,{good_img},{good_mask},1=1\n"
        f"broken,{good_img},{bad_mask},1=1\n"
    )
    out = tmp_path / "features.csv"
    code = main(["extract", "--manifest", str(manifest), "--out", str(out)])
    assert code == 1
    assert "broken" in capsys.readouterr().err
    assert len(out.read_text().splitlines()) == 2  # header + the good scan


def test_extract_names_a_gzip_image_and_runs_the_other_scan(workspace, tmp_path, capsys):
    image = workspace / "train" / "images" / "phantom_0000.nii"
    mask = workspace / "train" / "masks" / "phantom_0000.nii"
    gz_image = tmp_path / "phantom_0000.nii.gz"
    gz_image.write_bytes(gzip.compress(image.read_bytes()))
    manifest = tmp_path / "manifest.csv"
    manifest.write_text(f"scan_id,image_path,mask_path,class_map\nok,{image},{mask},1=1\ngz,{gz_image},{mask},1=1\n")
    out = tmp_path / "features.csv"
    assert main(["extract", "--manifest", str(manifest), "--out", str(out)]) == 1
    err = capsys.readouterr().err
    assert f"error: scan gz: {gz_image}: gzip-compressed NIfTI (.nii.gz) is not supported" in err
    assert len(out.read_text().splitlines()) == 2  # header + the uncompressed scan


@pytest.mark.parametrize("jobs", ["1", "2"])
def test_extract_names_every_dropped_label(tmp_path, capsys, jobs):
    # label 2 is one voxel that nearest-neighbour sampling at 3 mm misses, in
    # every scan: each (scan, label) gets its own line, in manifest order
    rows = ["scan_id,image_path,mask_path,class_map"]
    for i in range(3):
        mask = np.zeros((12, 12, 12), dtype=np.uint8)
        mask[2:9, 2:9, 2:9] = 1
        mask[10, 10, 10] = 2
        write_nifti(tmp_path / f"image{i}.nii", np.full(mask.shape, 40.0 + i), (1.0, 1.0, 1.0))
        write_nifti(tmp_path / f"mask{i}.nii", mask, (1.0, 1.0, 1.0))
        rows.append(f"scan{i},image{i}.nii,mask{i}.nii,1=1;2=2")
    manifest = tmp_path / "manifest.csv"
    manifest.write_text("\n".join(rows) + "\n")
    out = tmp_path / "features.csv"
    argv = ["extract", "--manifest", str(manifest), "--out", str(out), "--spacing", "3", "--jobs", jobs]
    assert main(argv) == 0
    assert capsys.readouterr().err.splitlines() == [
        f"warning: scan scan{i}: label 2 has no voxels and was dropped" for i in range(3)
    ]
    assert len(out.read_text().splitlines()) == 4  # header + label 1 of each scan


def test_extract_fails_each_scan_whose_bin_width_gives_too_many_levels(workspace, tmp_path, capsys):
    scans = ("phantom_0000", "phantom_0001")
    manifest = tmp_path / "manifest.csv"
    manifest.write_text(
        "scan_id,image_path,mask_path,class_map\n"
        + "".join(f"{s},{workspace}/train/images/{s}.nii,{workspace}/train/masks/{s}.nii,1=1\n" for s in scans)
    )
    out = tmp_path / "features.csv"
    assert main(["extract", "--manifest", str(manifest), "--out", str(out), "--bin-width", "1e-300"]) == 1
    err = capsys.readouterr().err.splitlines()
    assert len(err) == 2
    for line, scan in zip(err, scans):
        assert line.startswith(f"error: scan {scan}: bin width 1e-300 splits the ")
        assert line.endswith(" HU span into 2**53 or more gray levels")
    assert len(out.read_text().splitlines()) == 1  # the header alone


def test_extract_fails_each_scan_whose_lesion_box_is_over_the_cap(tmp_path, capsys):
    # at 0.01 mm a phantom lesion's box would hold billions of float64
    # samples; each scan fails before its box is allocated
    import guards

    assert main(["phantom", "--out", str(tmp_path), "--n-per-class", "1", "--seed", "42"]) == 0
    capsys.readouterr()
    argv = ["extract", "--manifest", str(tmp_path / "manifest.csv"), "--out", str(tmp_path / "f.csv"), "--spacing", "0.01"]
    assert main(argv) == 1
    err = capsys.readouterr().err.splitlines()
    assert len(err) == 3
    for i, line in enumerate(err):
        assert line.startswith(f"error: scan phantom_{i:04d}: label 1: its box on the 0.01 mm grid would hold about ")
        assert line.endswith("), over the cap of 16777216")
    assert len((tmp_path / "f.csv").read_text().splitlines()) == 1  # the header alone
    assert guards.peak_mb(guards.ctradiomics(*argv), expected_returncode=1) < 100


def test_extract_writes_the_scan_whose_lesion_box_is_under_the_cap(tmp_path, capsys):
    # at 0.1 mm each input voxel is 1,000 samples: a 2-voxel cube's box holds
    # 8,000 of them, a 30-voxel cube's 27 million, over the 2**24 cap
    rows = ["scan_id,image_path,mask_path,class_map"]
    for name, side in (("small", 2), ("large", 30)):
        mask = np.zeros((32, 32, 32), dtype=np.uint8)
        mask[1 : 1 + side, 1 : 1 + side, 1 : 1 + side] = 1
        image = 40.0 + np.arange(mask.size).reshape(mask.shape) % 5
        write_nifti(tmp_path / f"image-{name}.nii", image, (1.0, 1.0, 1.0))
        write_nifti(tmp_path / f"mask-{name}.nii", mask, (1.0, 1.0, 1.0))
        rows.append(f"{name},image-{name}.nii,mask-{name}.nii,1=2")
    manifest = tmp_path / "manifest.csv"
    manifest.write_text("\n".join(rows) + "\n")
    out = tmp_path / "features.csv"
    assert main(["extract", "--manifest", str(manifest), "--out", str(out), "--spacing", "0.1"]) == 1
    err = capsys.readouterr().err.splitlines()
    assert len(err) == 1 and err[0].startswith("error: scan large: label 1: its box on the 0.1 mm grid")
    lines = out.read_text().splitlines()
    assert [line.split(",")[:3] for line in lines[1:]] == [["small/1", "small", "2"]]


@pytest.mark.parametrize("jobs", ["1", "2"])
def test_extract_fails_the_scan_whose_arithmetic_leaves_the_float_range(tmp_path, capsys, jobs):
    # at 1e200 HU the first-order powers overflow float64: that scan fails on
    # one line naming the cause, and the other scan's row is still written
    mask = np.zeros((8, 8, 8), dtype=np.uint8)
    mask[2:6, 2:6, 2:6] = 1
    write_nifti(tmp_path / "mask.nii", mask, (1.0, 1.0, 1.0))
    rows = ["scan_id,image_path,mask_path,class_map"]
    for name, hu in (("ct", 40.0), ("huge", 1e200)):
        write_nifti(tmp_path / f"image-{name}.nii", np.full(mask.shape, hu), (1.0, 1.0, 1.0))
        rows.append(f"{name},image-{name}.nii,mask.nii,1=2")
    manifest = tmp_path / "manifest.csv"
    manifest.write_text("\n".join(rows) + "\n")
    out = tmp_path / "features.csv"
    argv = ["extract", "--manifest", str(manifest), "--out", str(out), "--bin-width", "1e199", "--jobs", jobs]
    assert main(argv) == 1
    assert capsys.readouterr().err.splitlines() == [
        "error: scan huge: lesion huge/1: arithmetic leaves the float64 range: overflow encountered in multiply"
    ]
    lines = out.read_text().splitlines()
    assert [line.split(",")[:3] for line in lines[1:]] == [["ct/1", "ct", "2"]]


def _batch_manifest(tmp_path, n_good=3):
    """``n_good`` small scans whose one-voxel label 2 is dropped at 3 mm,
    then one scan whose mask disagrees with its image."""
    rows = ["scan_id,image_path,mask_path,class_map"]
    for i in range(n_good):
        mask = np.zeros((12, 12, 12), dtype=np.uint8)
        mask[2:9, 2:9, 2 + i : 9] = 1
        mask[10, 10, 10] = 2
        image = 40.0 + np.arange(mask.size).reshape(mask.shape) % (7 + i)
        write_nifti(tmp_path / f"image{i}.nii", image, (1.0, 1.0, 1.0))
        write_nifti(tmp_path / f"mask{i}.nii", mask, (1.0, 1.0, 1.0))
        rows.append(f"scan{i},image{i}.nii,mask{i}.nii,1=1;2=2")
    write_nifti(tmp_path / "small_mask.nii", np.ones((3, 3, 3), dtype=np.uint8), (1.0, 1.0, 1.0))
    rows.append("broken,image0.nii,small_mask.nii,1=1")
    manifest = tmp_path / "manifest.csv"
    manifest.write_text("\n".join(rows) + "\n")
    return manifest


def test_extract_jobs_do_not_change_the_output(tmp_path, capsys):
    manifest = _batch_manifest(tmp_path)
    outputs = []
    for jobs in ("1", "2"):
        out = tmp_path / f"features{jobs}.csv"
        argv = ["extract", "--manifest", str(manifest), "--out", str(out), "--spacing", "3", "--jobs", jobs]
        assert main(argv) == 1
        outputs.append((out.read_bytes(), capsys.readouterr().err))
    assert outputs[0] == outputs[1]
    csv_bytes, err = outputs[0]
    assert len(csv_bytes.decode().splitlines()) == 4  # header + label 1 of each good scan
    assert [line.split(":")[0] for line in err.splitlines()] == ["warning"] * 3 + ["error"]


@pytest.mark.skipif(multiprocessing.get_start_method() != "fork", reason="the patched reader reaches workers by fork")
def test_extract_survives_a_dead_pool_worker(tmp_path, capsys, monkeypatch):
    manifest = _batch_manifest(tmp_path, n_good=4)
    clean = tmp_path / "clean.csv"
    assert main(["extract", "--manifest", str(manifest), "--out", str(clean), "--spacing", "3"]) == 1
    assert "error: scan broken:" in capsys.readouterr().err  # fails with or without a pool
    parent, read_volume = os.getpid(), cli.read_volume

    def dies_on_scan2(path):
        if path.name == "image2.nii" and os.getpid() != parent:
            os._exit(1)  # the worker process vanishes mid-task
        return read_volume(path)

    monkeypatch.setattr(cli, "read_volume", dies_on_scan2)
    out = tmp_path / "features.csv"
    assert main(["extract", "--manifest", str(manifest), "--out", str(out), "--spacing", "3", "--jobs", "2"]) == 1
    errors = [line for line in capsys.readouterr().err.splitlines() if line.startswith("error:")]
    lost = [line.split(":")[1].removeprefix(" scan ") for line in errors]
    assert lost == ["scan2", "broken"]  # the scans beside scan2 are not lost
    kept = [line for line in clean.read_text().splitlines()[1:] if line.split(",")[1] not in lost]
    assert out.read_text().splitlines() == clean.read_text().splitlines()[:1] + kept


@pytest.mark.skipif(multiprocessing.get_start_method() != "fork", reason="the patched reader reaches workers by fork")
def test_extract_reruns_a_scan_whose_worker_died_once(tmp_path, capsys, monkeypatch):
    manifest = _batch_manifest(tmp_path, n_good=4)
    clean = tmp_path / "clean.csv"
    assert main(["extract", "--manifest", str(manifest), "--out", str(clean), "--spacing", "3"]) == 1
    capsys.readouterr()
    parent, read_volume, died = os.getpid(), cli.read_volume, tmp_path / "died"

    def dies_once_on_scan1(path):
        if path.name == "image1.nii" and os.getpid() != parent and not died.exists():
            died.touch()
            os._exit(1)
        return read_volume(path)

    monkeypatch.setattr(cli, "read_volume", dies_once_on_scan1)
    out = tmp_path / "features.csv"
    assert main(["extract", "--manifest", str(manifest), "--out", str(out), "--spacing", "3", "--jobs", "2"]) == 1
    errors = [line for line in capsys.readouterr().err.splitlines() if line.startswith("error:")]
    assert died.exists()
    assert [line.split(":")[1] for line in errors] == [" scan broken"]
    assert out.read_bytes() == clean.read_bytes()


@pytest.mark.skipif(multiprocessing.get_start_method() != "fork", reason="the patched reader reaches workers by fork")
def test_extract_reruns_only_the_scan_whose_worker_died(tmp_path, capsys, monkeypatch):
    manifest = _batch_manifest(tmp_path, n_good=6)
    parent, read_mask, runs = os.getpid(), cli.read_mask, tmp_path / "runs"
    runs.mkdir()

    def counts_runs_and_dies_on_scan3(path, class_map):
        if os.getpid() != parent:
            with open(runs / path.name, "a") as fh:
                fh.write("run\n")
            if path.name == "mask3.nii":
                os._exit(1)  # on every attempt
            time.sleep(0.2)  # so other scans are in flight when scan3's worker dies
        return read_mask(path, class_map)

    monkeypatch.setattr(cli, "read_mask", counts_runs_and_dies_on_scan3)
    out = tmp_path / "features.csv"
    assert main(["extract", "--manifest", str(manifest), "--out", str(out), "--spacing", "3", "--jobs", "3"]) == 1
    errors = [line for line in capsys.readouterr().err.splitlines() if line.startswith("error:")]
    assert [line.split(":")[1] for line in errors] == [" scan scan3", " scan broken"]
    counts = {marker.name: len(marker.read_text().splitlines()) for marker in runs.iterdir()}
    assert counts == {"mask3.nii": 2, "small_mask.nii": 1, **{f"mask{i}.nii": 1 for i in (0, 1, 2, 4, 5)}}


@pytest.mark.parametrize(
    "jobs",
    [
        "1",
        pytest.param(
            "2",
            marks=pytest.mark.skipif(
                multiprocessing.get_start_method() != "fork", reason="the patched reader reaches workers by fork"
            ),
        ),
    ],
)
def test_extract_names_the_type_of_an_unexpected_failure(tmp_path, capsys, monkeypatch, jobs):
    # a ValueError names its cause and keeps its message; another exception
    # would print only its argument, so its type name leads the line
    manifest = _batch_manifest(tmp_path, n_good=2)
    with pytest.raises(ValueError) as broken:
        cli._extract_scan(dataio.read_manifest(manifest)[-1], 25.0, 3.0)
    read_volume = cli.read_volume

    def fails_on_scan1(path):
        if path.name == "image1.nii":
            raise KeyError("boom")
        return read_volume(path)

    monkeypatch.setattr(cli, "read_volume", fails_on_scan1)
    argv = ["extract", "--manifest", str(manifest), "--out", str(tmp_path / "f.csv"), "--spacing", "3"]
    assert main(argv + ["--jobs", jobs]) == 1
    errors = [line for line in capsys.readouterr().err.splitlines() if line.startswith("error:")]
    assert errors == ["error: scan scan1: KeyError: 'boom'", f"error: scan broken: {broken.value}"]


def test_extract_replaces_a_worker_killed_while_idle(tmp_path, capsys, monkeypatch):
    # a pool whose idle worker was killed raises at submit; the scan goes to a
    # fresh worker, and the break does not count as one of the scan's attempts
    import concurrent.futures
    from concurrent.futures.process import BrokenProcessPool

    started, breaks = [], [1, 1]

    class BreaksAtSubmit(concurrent.futures.ProcessPoolExecutor):
        def __init__(self, max_workers=None, **kwargs):
            started.append(max_workers)
            super().__init__(max_workers, **kwargs)

        def submit(self, *args, **kwargs):
            if breaks:
                breaks.pop()
                raise BrokenProcessPool("a worker was killed while idle")
            return super().submit(*args, **kwargs)

    manifest = _batch_manifest(tmp_path, n_good=1)  # two scans, the second fails
    outputs = []
    for jobs in ("1", "8"):
        out = tmp_path / f"features{jobs}.csv"
        argv = ["extract", "--manifest", str(manifest), "--out", str(out), "--spacing", "3", "--jobs", jobs]
        assert main(argv) == 1
        outputs.append((out.read_bytes(), capsys.readouterr().err))
        monkeypatch.setattr(concurrent.futures, "ProcessPoolExecutor", BreaksAtSubmit)
    assert started == [1, 1, 1, 1]  # two workers and two replacements
    assert outputs[0] == outputs[1]


def test_extract_starts_no_more_workers_than_scans(tmp_path, capsys, monkeypatch):
    # each worker is a pool of its own, started only for a scan it may run
    import concurrent.futures

    started = []

    class RecordingPool(concurrent.futures.ProcessPoolExecutor):
        def __init__(self, max_workers=None, **kwargs):
            started.append(max_workers)
            super().__init__(max_workers, **kwargs)

    manifest = _batch_manifest(tmp_path, n_good=1)  # two scans, the second fails
    outputs = []
    for jobs in ("1", "8"):
        out = tmp_path / f"features{jobs}.csv"
        argv = ["extract", "--manifest", str(manifest), "--out", str(out), "--spacing", "3", "--jobs", jobs]
        assert main(argv) == 1
        outputs.append((out.read_bytes(), capsys.readouterr().err))
        monkeypatch.setattr(concurrent.futures, "ProcessPoolExecutor", RecordingPool)
    assert started == [1, 1]
    assert outputs[0] == outputs[1]


_WHOLE_PIPELINE = """
import sys
from ctradiomics import cli
from ctradiomics.cli import main

work = sys.argv[1]
for name, counts, seed in (("train", "4", "1"), ("test", "2", "2")):
    assert main(["phantom", "--out", f"{work}/{name}", "--n-per-class", counts, "--seed", seed]) == 0
    assert main(["extract", "--manifest", f"{work}/{name}/manifest.csv", "--out", f"{work}/{name}.csv"]) == 0
assert main(["experiments", "--train", f"{work}/train.csv", "--test", f"{work}/test.csv",
             "--out", f"{work}/experiments.json", "--kfold", "3", "--max-lv", "3"]) == 0
assert main(["stats", "--features", f"{work}/train.csv", "--out", f"{work}/stats.csv"]) == 0
assert main(["train", "--features", f"{work}/train.csv", "--out", f"{work}/model.json",
             "--kfold", "3", "--max-lv", "3"]) == 0
for command in ("predict", "evaluate"):
    assert main([command, "--features", f"{work}/test.csv", "--model", f"{work}/model.json",
                 "--out", f"{work}/{command}.out"]) == 0
print("scipy:", *sorted(m for m in sys.modules if m == "scipy" or m.startswith("scipy.")))
print("numpy.ma:", "numpy.ma" in sys.modules)
"""


@pytest.fixture(scope="module")
def pipeline_modules(tmp_path_factory) -> list[str]:
    """The last lines a fresh process prints after running every command: the
    scipy modules it imported, and whether it imported numpy.ma."""
    import subprocess
    import sys

    import ctradiomics

    src = str(Path(ctradiomics.__file__).resolve().parents[1])
    env = dict(os.environ, PYTHONPATH=os.pathsep.join(filter(None, [src, os.environ.get("PYTHONPATH")])))
    done = subprocess.run(
        [sys.executable, "-c", _WHOLE_PIPELINE, str(tmp_path_factory.mktemp("pipeline"))],
        env=env,
        capture_output=True,
        text=True,
        timeout=300,
    )
    assert done.returncode == 0, done.stderr
    return done.stdout.splitlines()[-2:]


def test_pipeline_imports_no_scipy(pipeline_modules):
    # scipy is a test dependency only; importing it costs every CLI process
    # about half a second, so no command may pull it in, however lazily
    assert pipeline_modules[0] == "scipy:"


def test_pipeline_imports_no_numpy_ma(pipeline_modules):
    # np.percentile and np.median import numpy.ma (about 12 ms) through
    # np.unique; extract's first-order statistics and stats' medians and IQRs
    # take theirs from a sorted copy instead
    assert pipeline_modules[1] == "numpy.ma: False"


_ONE_JOB_EXTRACT = """
import sys
from ctradiomics.cli import main

work = sys.argv[1]
assert main(["phantom", "--out", work, "--n-per-class", "1", "--seed", "1"]) == 0
assert main(["extract", "--manifest", f"{work}/manifest.csv", "--out", f"{work}/f.csv", "--jobs", "1"]) == 0
print("concurrent.futures.process" in sys.modules)
"""


def test_extract_with_one_job_imports_no_process_pool(tmp_path):
    # the pool machinery costs every process start about 30 ms; one job needs none of it
    import subprocess
    import sys

    import ctradiomics

    src = str(Path(ctradiomics.__file__).resolve().parents[1])
    env = dict(os.environ, PYTHONPATH=os.pathsep.join(filter(None, [src, os.environ.get("PYTHONPATH")])))
    done = subprocess.run(
        [sys.executable, "-c", _ONE_JOB_EXTRACT, str(tmp_path)], env=env, capture_output=True, text=True, timeout=300
    )
    assert done.returncode == 0, done.stderr
    assert done.stdout.splitlines()[-1] == "False"


_TRACING_INSTALL = """
import sys
sys.path.insert(0, sys.argv[1])
import tracing

class Recording(tracing.Tracer):
    def wrap(self, owner, attr, name, counts=None):
        super().wrap(owner, attr, name, counts)
        print(owner.__name__, attr, getattr(owner, attr).__name__)

tracing.install(Recording(), {})
"""


def test_benchmark_tracing_finds_every_name_it_wraps():
    # perfbench/tracing.py wraps functions at the names cli, features and
    # model_selection look them up by; removing one fails here, with an AttributeError
    import subprocess
    import sys

    import ctradiomics

    src = str(Path(ctradiomics.__file__).resolve().parents[1])
    perfbench = str(Path(__file__).resolve().parents[1] / "perfbench")
    env = dict(os.environ, PYTHONPATH=os.pathsep.join(filter(None, [src, os.environ.get("PYTHONPATH")])))
    done = subprocess.run(
        [sys.executable, "-c", _TRACING_INSTALL, perfbench], env=env, capture_output=True, text=True, timeout=300
    )
    assert done.returncode == 0, done.stderr
    wrapped = [line.split() for line in done.stdout.splitlines()]
    assert ["ctradiomics.cli", "resample_isotropic", "traced"] in wrapped
    assert ["ctradiomics.model_selection", "predict", "traced"] in wrapped
    assert len(wrapped) > 20 and all(name == "traced" for _, _, name in wrapped)


def test_nonexistent_manifest_fails_cleanly(tmp_path, capsys):
    code = main(["extract", "--manifest", str(tmp_path / "nope.csv"), "--out", str(tmp_path / "o.csv")])
    assert code == 2
    assert "error:" in capsys.readouterr().err


def test_missing_output_directory_exits_2_before_any_scan_is_read(workspace, tmp_path, capsys, monkeypatch):
    def fails(path):
        raise AssertionError(f"read {path}")

    monkeypatch.setattr(cli, "read_volume", fails)
    out = tmp_path / "missing" / "train.csv"
    assert main(["extract", "--manifest", str(workspace / "train" / "manifest.csv"), "--out", str(out)]) == 2
    assert capsys.readouterr().err.splitlines() == [
        f"error: output directory {out.parent} does not exist (for {out})"
    ]
    assert not any(tmp_path.iterdir())


@pytest.mark.parametrize(
    "argv",
    [
        ["train", "--features", "f.csv", "--out", "model.json", "--report", "{missing}/report.json"],
        ["experiments", "--train", "f.csv", "--test", "f.csv", "--out", "{missing}/report.json"],
        ["stats", "--features", "f.csv", "--out", "{missing}/stats.csv"],
    ],
    ids=["train-report", "experiments", "stats"],
)
def test_each_command_checks_its_output_directory_first(tmp_path, capsys, monkeypatch, argv):
    # no input exists either: the directory is named before any input is read
    monkeypatch.chdir(tmp_path)
    assert main([arg.format(missing="missing") for arg in argv]) == 2
    assert capsys.readouterr().err.splitlines() == [
        f"error: output directory missing does not exist (for {Path(argv[-1].format(missing='missing'))})"
    ]
    assert not any(tmp_path.iterdir())


def test_output_that_is_a_directory_exits_2_before_any_scan_is_read(workspace, tmp_path, capsys, monkeypatch):
    def fails(path):
        raise AssertionError(f"read {path}")

    monkeypatch.setattr(cli, "read_volume", fails)
    assert main(["extract", "--manifest", str(workspace / "train" / "manifest.csv"), "--out", str(tmp_path)]) == 2
    assert capsys.readouterr().err.splitlines() == [f"error: output {tmp_path} is a directory"]
    assert not any(tmp_path.iterdir())


def test_train_report_that_is_a_directory_exits_2_before_fitting(workspace, tmp_path, capsys, monkeypatch):
    def fails(*args):
        raise AssertionError("fit_experiment ran")

    monkeypatch.setattr(ms, "fit_experiment", fails)
    argv = ["train", "--features", str(workspace / "train.csv"), "--out", str(tmp_path / "model.json")]
    assert main([*argv, "--report", str(tmp_path)]) == 2
    assert capsys.readouterr().err.splitlines() == [f"error: output {tmp_path} is a directory"]
    assert not any(tmp_path.iterdir())


@pytest.mark.parametrize("report", ["model.json", "./model.json", "sub/../model.json"])
def test_train_report_at_the_model_path_exits_2_before_fitting(workspace, tmp_path, capsys, monkeypatch, report):
    # the report written second would replace the model
    def fails(*args):
        raise AssertionError("fit_experiment ran")

    monkeypatch.setattr(ms, "fit_experiment", fails)
    monkeypatch.chdir(tmp_path)
    (tmp_path / "sub").mkdir()
    argv = ["train", "--features", str(workspace / "train.csv"), "--out", "model.json", "--report", report]
    assert main(argv) == 2
    assert capsys.readouterr().err.splitlines() == ["error: --out and --report are the same file: model.json"]
    assert [p.name for p in tmp_path.iterdir()] == ["sub"]


@pytest.mark.parametrize(
    "command, seed",
    [
        (["train", "--features", "{w}/train.csv", "--out", "{t}/model.json"], "-3"),
        (["experiments", "--train", "{w}/train.csv", "--test", "{w}/test.csv", "--out", "{t}/report.json"], "-3"),
        (["phantom", "--out", "{t}/phantom", "--n-per-class", "1"], "-1"),
    ],
)
def test_a_negative_seed_exits_2_naming_it_before_any_output(workspace, tmp_path, capsys, command, seed):
    argv = [arg.format(w=workspace, t=tmp_path) for arg in command]
    assert main([*argv, "--seed", seed]) == 2
    assert capsys.readouterr().err.splitlines() == [f"error: seed must be non-negative, got {seed}"]
    assert not any(tmp_path.iterdir())


def test_repeated_scan_id_exits_2_before_any_scan_is_read(tmp_path, capsys):
    # two rows for one scan_id would both be written as <scan_id>/<label>
    manifest = tmp_path / "manifest.csv"
    manifest.write_text(
        "scan_id,image_path,mask_path,class_map\nphantom_0000,a.nii,m.nii,1=1\nphantom_0000,a.nii,m.nii,1=1\n"
    )
    out = tmp_path / "o.csv"
    assert main(["extract", "--manifest", str(manifest), "--out", str(out)]) == 2
    assert capsys.readouterr().err.splitlines() == [
        f"error: {manifest}: scan_id 'phantom_0000' on line 3 repeats line 2"
    ]
    assert not out.exists()


@pytest.mark.parametrize(
    "argv",
    [
        ["extract", "--manifest", "m.csv", "--out", "o.csv", "--bin-width", "nan"],
        ["extract", "--manifest", "m.csv", "--out", "o.csv", "--bin-width", "inf"],
        ["extract", "--manifest", "m.csv", "--out", "o.csv", "--spacing", "nan"],
        ["extract", "--manifest", "m.csv", "--out", "o.csv", "--spacing", "inf"],
        ["train", "--features", "f.csv", "--out", "o.json", "--vip-threshold", "nan"],
        ["stats", "--features", "f.csv", "--out", "o.csv", "--q", "inf"],
    ],
)
def test_non_finite_numbers_exit_2_at_parse_time(tmp_path, capsys, monkeypatch, argv):
    # no input exists: the run must stop before any command reads one
    monkeypatch.chdir(tmp_path)
    with pytest.raises(SystemExit) as caught:
        main(argv)
    assert caught.value.code == 2
    assert f"{argv[-2]}: must be positive and finite, got {argv[-1]}" in capsys.readouterr().err
    assert not any(tmp_path.iterdir())


def test_stats_options_left_out_take_the_report_defaults(workspace, tmp_path):
    # the defaults are feature_group_report's, and its q is benjamini_hochberg's
    args = cli.build_parser().parse_args(["stats", "--features", "f.csv", "--out", "s.csv"])
    assert "alpha" not in vars(args) and "q" not in vars(args)
    report = inspect.signature(stats.feature_group_report).parameters
    assert report["alpha"].default == report["q"].default == 0.05
    assert inspect.signature(stats.benjamini_hochberg).parameters["q"].default == 0.05
    argv = ["stats", "--features", str(workspace / "train.csv"), "--out"]
    assert main(argv + [str(tmp_path / "left-out.csv")]) == 0
    assert main(argv + [str(tmp_path / "given.csv"), "--alpha", "0.05", "--q", "0.05"]) == 0
    assert (tmp_path / "left-out.csv").read_bytes() == (tmp_path / "given.csv").read_bytes()


@pytest.mark.parametrize("option", ["--alpha", "--q"])
@pytest.mark.parametrize("value", ["5", "1.5"])
def test_probabilities_above_1_exit_2_at_parse_time(tmp_path, capsys, monkeypatch, option, value):
    monkeypatch.chdir(tmp_path)
    with pytest.raises(SystemExit) as caught:
        main(["stats", "--features", "f.csv", "--out", "o.csv", option, value])
    assert caught.value.code == 2
    assert f"{option}: must be at most 1.0, got {value}" in capsys.readouterr().err
    assert not any(tmp_path.iterdir())
    args = cli.build_parser().parse_args(["stats", "--features", "f", "--out", "o", option, "1"])
    assert getattr(args, option[2:]) == 1.0  # 1 is a probability


def _model_doc(tmp_path) -> dict:
    """The JSON document of a 4-feature, 3-class, 2-component model file."""
    names = ["shape_Sphericity", "fos_Mean", "glcm_Contrast", "ngtdm_Busyness"]
    x = np.random.default_rng(3).normal(size=(12, 4))
    good = tmp_path / "good.json"
    pls.save_model(pls.fit_pls(x, np.tile([1, 2, 3], 4), 2, feature_names=names), good)
    return json.loads(good.read_text())


def _malformed(doc: dict, case: str) -> str:
    """The text of a model file, ``doc`` spoilt as ``case`` says."""
    if case == "not JSON":
        return json.dumps(doc)[:-1]
    if case == "not an object":
        return "[1, 2]"
    if case == "missing key":
        return json.dumps({key: value for key, value in doc.items() if key != "mean"})
    if case == "no components":
        return json.dumps({**doc, "A": 0, **{key: [[] for _ in doc[key]] for key in ("W", "P", "Q")}})
    if case == "class labels not 1..m":
        return json.dumps({**doc, "class_labels": [2, 3, 4]})
    return json.dumps({**doc, "Q": doc["Q"][:-1]})  # one class row short


@pytest.mark.parametrize(
    "case, message",
    [
        ("not JSON", "Expecting ',' delimiter"),
        ("not an object", "the JSON is a list, not an object"),
        ("missing key", "no key 'mean'"),
        ("no components", "A is 0, but a model has at least one component"),
        ("class labels not 1..m", "class_labels are [2, 3, 4], not 1..3"),
        ("wrong Q shape", "with 4 features, 3 classes and 2 components, Q is (2, 2), not (3, 2)"),
    ],
    ids=["not-JSON", "not-an-object", "missing-key", "no-components", "class-labels-not-1-to-m", "wrong-Q-shape"],
)
def test_malformed_model_file_exits_2_naming_it(workspace, tmp_path, capsys, case, message):
    model = tmp_path / "model.json"
    model.write_text(_malformed(_model_doc(tmp_path), case))
    for command in ("predict", "evaluate"):
        out = tmp_path / f"{command}.out"
        assert main([command, "--features", str(workspace / "test.csv"), "--model", str(model), "--out", str(out)]) == 2
        [line] = capsys.readouterr().err.splitlines()
        assert line.startswith(f"error: {model}: not a model: {message}")
        assert not out.exists()


@pytest.mark.parametrize("b_shape", [(4, 3), (3, 3)], ids=["well-shaped", "wrong-shaped"])
def test_a_B_left_in_an_older_model_file_is_ignored(workspace, tmp_path, b_shape):
    doc = _model_doc(tmp_path)
    plain, with_b = tmp_path / "plain.json", tmp_path / "with-B.json"
    plain.write_text(json.dumps(doc))
    with_b.write_text(json.dumps({**doc, "B": np.random.default_rng(4).normal(size=b_shape).tolist()}))
    for command in ("predict", "evaluate"):
        outs = [tmp_path / f"{command}-{model.stem}.out" for model in (plain, with_b)]
        for model, out in zip((plain, with_b), outs):
            assert main([command, "--features", str(workspace / "test.csv"), "--model", str(model), "--out", str(out)]) == 0
        assert outs[0].read_bytes() == outs[1].read_bytes()


@pytest.mark.parametrize(
    "argv",
    [
        ["train", "--out", "model.json"],
        ["evaluate", "--model", "model.json", "--out", "metrics.json"],
        ["stats", "--out", "stats.csv"],
    ],
    ids=["train", "evaluate", "stats"],
)
def test_header_only_csv_reports_no_lesion_rows(tmp_path, capsys, monkeypatch, argv):
    # what extract writes when every scan fails
    features = tmp_path / "features.csv"
    write_features_csv(features, [])
    monkeypatch.chdir(tmp_path)
    code = main([argv[0], "--features", str(features), *argv[1:]])
    assert code == 1
    err = capsys.readouterr().err
    assert f"{features} has no lesion rows" in err
    assert "class column" not in err


@pytest.mark.parametrize(
    "argv, message",
    [
        (["train", "--features", "{unlabelled}", "--out", "model.json"], "training data has no class column"),
        (
            ["evaluate", "--features", "{unlabelled}", "--model", "model.json", "--out", "metrics.json"],
            "evaluation data has no class column",
        ),
        (["stats", "--features", "{unlabelled}", "--out", "stats.csv"], "stats needs a class column"),
        (
            ["experiments", "--train", "{unlabelled}", "--test", "{labelled}", "--out", "report.json"],
            "training data has no class column",
        ),
        (
            ["experiments", "--train", "{labelled}", "--test", "{unlabelled}", "--out", "report.json"],
            "test data has no class column",
        ),
    ],
    ids=["train", "evaluate", "stats", "experiments-train", "experiments-test"],
)
def test_unlabelled_csv_exits_1_naming_the_missing_class(workspace, tmp_path, capsys, monkeypatch, argv, message):
    labelled = workspace / "test.csv"
    header, *rows = labelled.read_text().splitlines()
    cells = [row.split(",", 3) for row in rows]
    unlabelled = tmp_path / "unlabelled.csv"
    unlabelled.write_text("".join(f"{line}\n" for line in [header, *(f"{a},{b},,{rest}" for a, b, _, rest in cells)]))
    monkeypatch.chdir(tmp_path)
    assert main([arg.format(unlabelled=unlabelled, labelled=labelled) for arg in argv]) == 1
    assert capsys.readouterr().err.splitlines() == [f"error: {message}"]
    assert [p.name for p in tmp_path.iterdir()] == ["unlabelled.csv"]


@pytest.mark.parametrize("empty", ["train", "test"])
def test_experiments_on_a_header_only_csv(workspace, tmp_path, capsys, empty):
    features = tmp_path / "features.csv"
    write_features_csv(features, [])
    inputs = {"train": workspace / "train.csv", "test": workspace / "test.csv", empty: features}
    out = tmp_path / "report.json"
    code = main(["experiments", "--train", str(inputs["train"]), "--test", str(inputs["test"]), "--out", str(out)])
    assert code == 1
    assert capsys.readouterr().err.splitlines() == [f"error: {features} has no lesion rows"]
    assert not out.exists()


@pytest.mark.parametrize("cls", ["0", "4"])
def test_class_outside_the_class_ids_exits_2_naming_the_line(workspace, tmp_path, capsys, cls):
    # stats would report a group c0 and train fit a 4-class model
    lines = (workspace / "train.csv").read_text().splitlines()
    cells = lines[5].split(",")
    lines[5] = ",".join(cells[:2] + [cls] + cells[3:])
    features = tmp_path / "features.csv"
    features.write_text("\n".join(lines) + "\n")
    message = f"error: {features}: line 6: class cell {cls!r} is not one of the class ids (1, 2, 3)"
    out = tmp_path / "out"
    for argv in (
        ["stats", "--features", features],
        ["train", "--features", features],
        ["experiments", "--train", features, "--test", workspace / "test.csv"],
    ):
        assert main([str(a) for a in argv] + ["--out", str(out)]) == 2
        assert capsys.readouterr().err.splitlines() == [message]
        assert not out.exists()


def test_experiments_record_each_failed_experiment(workspace, tmp_path, capsys):
    # no VIP reaches 50, so experiments 2-5 select nothing and fail
    out = tmp_path / "experiments.json"
    argv = ["experiments", "--train", str(workspace / "train.csv"), "--test", str(workspace / "test.csv")]
    assert main(argv + ["--out", str(out), "--kfold", "5", "--max-lv", "6", "--vip-threshold", "50"]) == 1
    doc = json.loads(out.read_text())
    assert [e["experiment"] for e in doc["experiments"]] == [1]
    assert [f["experiment"] for f in doc["failures"]] == [2, 3, 4, 5]
    assert all("no feature has VIP > 50" in f["error"] for f in doc["failures"])
    err = capsys.readouterr().err.splitlines()
    assert [line.split(": ")[1] for line in err] == [f"experiment {k}" for k in (2, 3, 4, 5)]


def test_experiments_name_the_type_of_an_unexpected_failure(workspace, tmp_path, capsys, monkeypatch):
    def fails(train, spec):
        raise KeyError(f"boom {spec.experiment_id}")

    monkeypatch.setattr(ms, "fit_experiment", fails)
    out = tmp_path / "experiments.json"
    argv = ["experiments", "--train", str(workspace / "train.csv"), "--test", str(workspace / "test.csv")]
    assert main(argv + ["--out", str(out)]) == 1
    messages = [f"KeyError: 'boom {k}'" for k in range(1, 6)]
    assert json.loads(out.read_text())["failures"] == [{"experiment": k, "error": m} for k, m in enumerate(messages, 1)]
    assert capsys.readouterr().err.splitlines() == [f"error: experiment {k}: {m}" for k, m in enumerate(messages, 1)]


def test_evaluate_reports_the_loaded_model(workspace, tmp_path):
    model_path = tmp_path / "model.json"
    argv = ["train", "--features", str(workspace / "train.csv"), "--out", str(model_path)]
    assert main(argv + ["--kfold", "5", "--max-lv", "8"]) == 0
    trained = json.loads(model_path.with_suffix(".report.json").read_text())
    assert trained["selected_total"] < trained["considered_total"]
    eval_path = tmp_path / "eval.json"
    argv = ["evaluate", "--features", str(workspace / "test.csv"), "--model", str(model_path)]
    assert main(argv + ["--out", str(eval_path)]) == 0
    doc = json.loads(eval_path.read_text())
    assert doc["selected_total"] == trained["selected_total"]
    assert doc["selected_by_family"] == trained["selected_by_family"]
    assert doc["chosen_lv"] == trained["chosen_lv"]
    assert not [key for key in doc if key.startswith("considered")]


@pytest.mark.skipif(not os.path.isdir("/proc/self/fd"), reason="counts open descriptors through /proc (Linux)")
def test_extract_releases_every_memory_map(tmp_path, capsys):
    # each memory-mapped image and mask holds a duplicated file descriptor
    # until the map is collected; a reference kept past its scan would run a
    # large cohort into the open-file limit
    assert main(["phantom", "--out", str(tmp_path / "c"), "--n-per-class", "10", "--seed", "3"]) == 0
    manifest = tmp_path / "c" / "manifest.csv"
    lines = manifest.read_text().splitlines()
    assert len(lines) == 31
    # the last scan fails in read_mask, after its image is mapped
    lines[-1] = lines[-1].rsplit(",", 1)[0] + ",9=1"
    manifest.write_text("\n".join(lines) + "\n")
    before = len(os.listdir("/proc/self/fd"))
    code = main(["extract", "--manifest", str(manifest), "--out", str(tmp_path / "f.csv")])
    after = len(os.listdir("/proc/self/fd"))
    assert code == 1
    assert capsys.readouterr().err.count("error: scan ") == 1
    assert after == before
