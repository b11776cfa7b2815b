"""Acceptance gate: every release criterion with one printed verdict line.

Run with ``pytest tests/test_acceptance.py -s`` to see the per-criterion
PASS lines as they execute.
"""

import json
import time

import numpy as np
import pytest

import oracles
from conftest import oracle_regions, random_blob_region
from ctradiomics import model_selection as ms, pls, stats
from ctradiomics.cli import main
from ctradiomics.dataio import columns_for_groups, read_features_csv
from ctradiomics.features import (
    FAMILY_NAMES,
    FEATURE_COLUMNS,
    discretize,
    extract_all,
    first_order_features,
    glcm_features,
    gldm_features,
    glrlm_features,
    glszm_features,
    ngtdm_features,
    shape_features,
)
from ctradiomics.phantom import PLANTED_FEATURES
from ctradiomics.volume_io import LesionRegion


def _report(criterion: int, text: str):
    print(f"ACCEPTANCE {criterion}: PASS - {text}")


def test_criterion_1_feature_oracle_suite():
    started = time.time()
    regions = oracle_regions()
    checked = 0
    for label, region in regions.items():
        d = discretize(region, 25.0)
        pairs = [
            (shape_features(d), oracles.shape_oracle(region.coordinates, region.spacing)),
            (first_order_features(region, d), oracles.fos_oracle(region.intensities, region.spacing)),
            (glcm_features(d), oracles.glcm_oracle(d.coordinates, d.levels, d.n_levels)),
            (gldm_features(d), oracles.gldm_oracle(d.coordinates, d.levels, d.n_levels)),
            (glrlm_features(d), oracles.glrlm_oracle(d.coordinates, d.levels, d.n_levels)),
            (glszm_features(d), oracles.glszm_oracle(d.coordinates, d.levels, d.n_levels)),
            (ngtdm_features(d), oracles.ngtdm_oracle(d.coordinates, d.levels, d.n_levels)),
        ]
        for computed, expected in pairs:
            for name, want in expected.items():
                got = computed[name]
                assert got == pytest.approx(want, rel=1e-6, abs=1e-12), f"{label}:{name}"
                checked += 1
    elapsed = time.time() - started
    assert elapsed < 60.0
    _report(1, f"{checked} feature values on {len(regions)} regions match oracles (rel 1e-6) in {elapsed:.1f}s")


def test_criterion_2_group_cardinalities():
    sizes = {fam: len(names) for fam, names in FAMILY_NAMES.items()}
    assert sizes == {"shape": 13, "fos": 18, "glcm": 23, "gldm": 14, "glrlm": 16, "glszm": 16, "ngtdm": 5}
    assert len(FEATURE_COLUMNS) == 105
    considered = [
        len(columns_for_groups(FEATURE_COLUMNS, spec.feature_groups))
        for spec in ms.experiment_specs()
    ]
    assert considered == [105, 105, 13, 31, 74]
    _report(2, "family sizes 13/18/23/14/16/16/5 and considered counts 105/105/13/31/74")


def test_criterion_3_pls_correctness():
    worst_orth = 0.0
    worst_ls = 0.0
    worst_vip = 0.0
    for seed in range(10):
        rng = np.random.default_rng(seed)
        x = rng.normal(size=(20, 5))
        y = rng.integers(1, 4, 20)
        xs, mean, scale = pls.autoscale(x)
        yd = pls.encode_dummy(y, 3)
        model = pls.fit_pls(xs, yd, 5, mean=mean, scale=scale)
        tt = model.scores.T @ model.scores
        off = np.abs(tt - np.diag(np.diag(tt))).max() / np.abs(np.diag(tt)).max()
        worst_orth = max(worst_orth, off)
        b_ls = np.linalg.lstsq(xs, yd - yd.mean(axis=0), rcond=None)[0]
        worst_ls = max(worst_ls, np.abs(model.coef - b_ls).max())
        vip = pls.vip_scores(model)
        worst_vip = max(worst_vip, abs(np.mean(vip**2) - 1.0))
        # a second model shape for the VIP identity
        model2 = ms.fit_plsda(rng.normal(size=(30, 12)), rng.integers(1, 4, 30), 4, 3)
        vip2 = pls.vip_scores(model2)
        worst_vip = max(worst_vip, abs(np.mean(vip2**2) - 1.0))
    assert worst_orth <= 1e-8
    assert worst_ls <= 1e-8
    assert worst_vip <= 1e-10
    _report(3, f"T'T diag ({worst_orth:.1e}), full-rank=OLS ({worst_ls:.1e}), mean VIP^2=1 ({worst_vip:.1e})")


def test_criterion_4_statistics_exactness():
    h = stats.kruskal_wallis([[1, 2, 3], [4, 5, 6], [7, 8, 9]]).statistic
    assert h == pytest.approx(7.2, abs=1e-9)
    z = stats.kruskal_wallis([[1, 2], [3, 4]]).pairwise[0].z
    assert z == pytest.approx(-1.549, abs=1e-3)
    _, rejected = stats.benjamini_hochberg([0.005, 0.01, 0.03, 0.04], q=0.05)
    assert rejected.all()
    _report(4, f"KW H={h:.3f}, Dunn z={z:.4f}, BH rejects 4/4")


@pytest.fixture(scope="module")
def phantom_pipeline(tmp_path_factory):
    """Full CLI pipeline at acceptance scale: 150 train / 50 test lesions."""
    root = tmp_path_factory.mktemp("acceptance")
    started = time.time()
    assert main(["phantom", "--out", str(root / "train"), "--n-per-class", "50", "--seed", "42"]) == 0
    assert main(["phantom", "--out", str(root / "test"), "--n-per-class", "17,17,16", "--seed", "43"]) == 0
    assert main(["extract", "--manifest", str(root / "train/manifest.csv"), "--out", str(root / "train.csv")]) == 0
    assert main(["extract", "--manifest", str(root / "test/manifest.csv"), "--out", str(root / "test.csv")]) == 0
    assert (
        main(
            [
                "experiments",
                "--train",
                str(root / "train.csv"),
                "--test",
                str(root / "test.csv"),
                "--out",
                str(root / "report.json"),
            ]
        )
        == 0
    )
    elapsed = time.time() - started
    report = json.loads((root / "report.json").read_text())
    return root, report, elapsed


def test_criterion_5_phantom_end_to_end(phantom_pipeline):
    root, report, elapsed = phantom_pipeline
    train_rows = len((root / "train.csv").read_text().splitlines()) - 1
    test_rows = len((root / "test.csv").read_text().splitlines()) - 1
    assert train_rows == 150
    assert test_rows == 50
    by_id = {e["experiment"]: e for e in report["experiments"]}
    acc2 = by_id[2]["metrics"]["accuracy"]
    acc5 = by_id[5]["metrics"]["accuracy"]
    assert acc2 >= 0.85
    assert abs(acc2 - acc5) <= 0.10
    assert elapsed <= 600.0
    _report(5, f"exp2 accuracy {acc2:.3f} >= 0.85, texture within {abs(acc2 - acc5):.3f} <= 0.10, {elapsed:.0f}s <= 600s")


def test_criterion_6_selection_sanity(phantom_pipeline):
    root, report, _ = phantom_pipeline
    train = read_features_csv(root / "train.csv")
    spec = ms.experiment_specs()[1]  # selection over all features
    model, rep = ms.fit_experiment(train, spec)
    missing = [f for f in PLANTED_FEATURES if f not in model.feature_names]
    assert missing == []
    reduction = 1.0 - rep["selected_total"] / rep["considered_total"]
    assert reduction >= 0.40
    _report(6, f"planted features kept, selection kept {rep['selected_total']}/105 (reduction {100 * reduction:.0f}% >= 40%)")


def test_criterion_7_determinism(phantom_pipeline, tmp_path):
    root, _, _ = phantom_pipeline
    assert main(["phantom", "--out", str(tmp_path / "train"), "--n-per-class", "50", "--seed", "42"]) == 0
    assert main(["extract", "--manifest", str(tmp_path / "train/manifest.csv"), "--out", str(tmp_path / "train.csv")]) == 0
    assert (tmp_path / "train.csv").read_bytes() == (root / "train.csv").read_bytes()
    assert (
        main(
            [
                "experiments",
                "--train",
                str(root / "train.csv"),
                "--test",
                str(root / "test.csv"),
                "--out",
                str(tmp_path / "report.json"),
            ]
        )
        == 0
    )
    assert (tmp_path / "report.json").read_bytes() == (root / "report.json").read_bytes()
    _report(7, "repeated phantom/extract/experiments runs are byte-identical")


def test_criterion_8_invariance_suite():
    region = random_blob_region(seed=21)
    base = extract_all(region).values

    # intensity shift: textures and shape unchanged, mean shifts exactly
    shifted = LesionRegion(
        coordinates=region.coordinates,
        intensities=region.intensities + 93.25,
        spacing=region.spacing,
    )
    shifted_vals = extract_all(shifted).values
    for key, value in base.items():
        family = key.split("_", 1)[0]
        if family != "fos":
            assert shifted_vals[key] == pytest.approx(value, rel=1e-12, abs=1e-12), key
    assert shifted_vals["fos_Mean"] - base["fos_Mean"] == pytest.approx(93.25, abs=1e-9)
    assert shifted_vals["fos_Variance"] == pytest.approx(base["fos_Variance"], rel=1e-9)

    # voxel order invariance
    rng = np.random.default_rng(0)
    perm = rng.permutation(len(region))
    reordered = extract_all(
        LesionRegion(
            coordinates=region.coordinates[perm],
            intensities=region.intensities[perm],
            spacing=region.spacing,
        )
    ).values
    for key, value in base.items():
        assert reordered[key] == pytest.approx(value, rel=1e-12, abs=1e-12), key

    # axis permutation: plane-bound diameters permute, everything else fixed
    plane_names = {
        frozenset({0, 1}): "shape_Maximum2DDiameterSlice",
        frozenset({0, 2}): "shape_Maximum2DDiameterColumn",
        frozenset({1, 2}): "shape_Maximum2DDiameterRow",
    }
    for axis_perm in [(1, 0, 2), (2, 1, 0), (1, 2, 0)]:
        permuted = extract_all(
            LesionRegion(
                coordinates=region.coordinates[:, axis_perm],
                intensities=region.intensities,
                spacing=region.spacing,
            )
        ).values
        inverse = {axis_perm[i]: i for i in range(3)}
        for key, value in base.items():
            if key in plane_names.values():
                continue
            assert permuted[key] == pytest.approx(value, rel=1e-9, abs=1e-9), f"{axis_perm}:{key}"
        for plane, name in plane_names.items():
            image_plane = frozenset(inverse[a] for a in plane)
            assert permuted[plane_names[image_plane]] == pytest.approx(base[name], rel=1e-9)

    # training row permutation leaves the classifier unchanged
    rng = np.random.default_rng(1)
    x = rng.normal(size=(30, 6))
    y = rng.integers(1, 4, 30)
    model_a = ms.fit_plsda(x, y, 3, 3)
    order = rng.permutation(30)
    model_b = ms.fit_plsda(x[order], y[order], 3, 3)
    assert np.abs(model_a.coef - model_b.coef).max() < 1e-9
    pred_a, _ = pls.predict(model_a, x)
    pred_b, _ = pls.predict(model_b, x)
    assert np.abs(pred_a - pred_b).max() < 1e-9

    _report(8, "intensity-shift, axis-permutation, voxel-order and row-permutation invariants hold")
