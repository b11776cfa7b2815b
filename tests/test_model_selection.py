"""Stratified folds, CV component selection, experiments, and metrics."""

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as hs

from ctradiomics.dataio import Dataset
from ctradiomics.errors import SelectionError
from ctradiomics.features import FEATURE_COLUMNS
from ctradiomics import model_selection as ms
from ctradiomics import pls

import oracles


def _gaussian_dataset(n_per_class=12, p=8, seed=0, scale=0.4, informative=3):
    """Separable 3-class blobs on the first `informative` columns."""
    rng = np.random.default_rng(seed)
    centres = rng.normal(scale=3.0, size=(3, informative))
    rows = []
    y = []
    for cls in (1, 2, 3):
        base = np.zeros(p)
        base[:informative] = centres[cls - 1]
        rows.append(base + rng.normal(scale=scale, size=(n_per_class, p)))
        y.extend([cls] * n_per_class)
    return Dataset(
        x=np.vstack(rows),
        y=np.array(y),
        feature_names=tuple(f"fos_f{i}" if i else "shape_f0" for i in range(p)),
    )


class TestStratifiedKfold:
    def test_balanced_three_class_split(self):
        y = np.array([1, 1, 1, 2, 2, 2, 3, 3, 3])
        folds = ms.stratified_kfold(y, 3, seed=0)
        assert len(folds) == 3
        for fold in folds:
            assert sorted(y[fold].tolist()) == [1, 2, 3]

    def test_partition_and_determinism(self):
        rng = np.random.default_rng(1)
        y = rng.integers(1, 4, 40)
        folds_a = ms.stratified_kfold(y, 5, seed=7)
        folds_b = ms.stratified_kfold(y, 5, seed=7)
        assert all(np.array_equal(a, b) for a, b in zip(folds_a, folds_b))
        joined = np.concatenate(folds_a)
        assert sorted(joined.tolist()) == list(range(40))

    def test_per_class_counts_differ_by_at_most_one(self):
        rng = np.random.default_rng(2)
        y = rng.integers(1, 4, 53)
        folds = ms.stratified_kfold(y, 5, seed=3)
        for cls in (1, 2, 3):
            counts = [int((y[f] == cls).sum()) for f in folds]
            assert max(counts) - min(counts) <= 1

    @settings(max_examples=200, deadline=None)
    @given(
        counts=hs.dictionaries(hs.sampled_from([1, 2, 3]), hs.integers(2, 15), min_size=1),
        k=hs.integers(2, 10),
        seed=hs.integers(0, 2**32 - 1),
    )
    def test_every_training_split_holds_every_class(self, counts, k, seed):
        # so fit_pls, which dummy-codes a split's ids against max(ids), codes
        # each split of cv_error_curve against the classes 1..max(y) of the
        # whole label vector
        y = np.random.default_rng(seed).permutation(np.repeat(list(counts), list(counts.values())))
        for fold in ms.stratified_kfold(y, k, seed):
            train = np.ones(len(y), dtype=bool)
            train[fold] = False
            assert set(y[train].tolist()) == set(counts)
            coded = pls.encode_dummy(y[train], int(y[train].max()))  # what fit_pls builds
            assert np.array_equal(coded, pls.encode_dummy(y[train], int(y.max())))

    def test_fold_count_reduced_for_small_classes(self):
        y = np.array([1, 1, 2, 2, 2, 3, 3, 3, 3, 3])
        folds = ms.stratified_kfold(y, 5, seed=0)
        assert len(folds) == 2  # smallest class has two members

    def test_n_smaller_than_k_rejected(self):
        with pytest.raises(ValueError, match="at least two members"):
            ms.stratified_kfold(np.array([1, 2, 3]), 5, seed=0)

    def test_fractional_class_id_rejected(self):
        with pytest.raises(ValueError, match="^class id 1.5 is not a whole number$"):
            ms.stratified_kfold([1.5, 1.2, 2.7, 2.1], 2, seed=0)
        assert [f.tolist() for f in ms.stratified_kfold([1.0, 1.0, 2.0, 2.0], 2, seed=0)] == [
            f.tolist() for f in ms.stratified_kfold([1, 1, 2, 2], 2, seed=0)
        ]

    def test_no_labels_rejected(self):
        with pytest.raises(ValueError, match="^cross-validation needs at least one label$"):
            ms.stratified_kfold(np.array([], dtype=int), 5, seed=0)

    def test_fewer_samples_than_folds_reduce_the_fold_count(self):
        y = np.repeat([1, 2, 3], 3)  # 9 samples asked for 10 folds
        folds = ms.stratified_kfold(y, 10, seed=0)
        assert len(folds) == 3
        assert all(sorted(y[fold].tolist()) == [1, 2, 3] for fold in folds)

    def test_seed_changes_assignment(self):
        rng = np.random.default_rng(4)
        y = rng.integers(1, 4, 60)
        a = ms.stratified_kfold(y, 5, seed=1)
        b = ms.stratified_kfold(y, 5, seed=2)
        assert any(not np.array_equal(x, z) for x, z in zip(a, b))

    def test_matches_the_per_sample_loop(self):
        rng = np.random.default_rng(6)
        for _ in range(300):
            classes = rng.choice([1, 2, 3], size=rng.integers(1, 4), replace=False)
            y = rng.permutation(np.repeat(classes, rng.integers(2, 30, size=len(classes))))
            k, seed = int(rng.integers(2, 12)), int(rng.integers(2**32))
            got = ms.stratified_kfold(y, k, seed)
            want = oracles.stratified_kfold_loop(y, k, seed)
            assert len(got) == len(want)
            for g, w in zip(got, want):
                assert g.dtype == w.dtype and np.array_equal(g, w), (y.tolist(), k, seed)


class TestCvErrorRate:
    def test_separable_data_has_zero_error(self):
        ds = _gaussian_dataset(seed=5)
        folds = ms.stratified_kfold(ds.y, 4, seed=0)
        assert ms.cv_error_curve(ds, 2, folds)[-1] == 0.0

    def test_permuted_labels_near_chance(self):
        errors = []
        for seed in range(8):
            ds = _gaussian_dataset(n_per_class=15, seed=seed)
            rng = np.random.default_rng(100 + seed)
            shuffled = Dataset(
                x=ds.x, y=rng.permutation(ds.y), feature_names=ds.feature_names
            )
            folds = ms.stratified_kfold(shuffled.y, 5, seed=0)
            errors.append(ms.cv_error_curve(shuffled, 2, folds)[-1])
        assert abs(np.mean(errors) - 2.0 / 3.0) < 0.15

    def test_leave_one_out_in_range(self):
        # cv_error_curve accepts any partition; singleton folds give true LOO
        ds = _gaussian_dataset(n_per_class=4, p=5, seed=6)
        folds = [np.array([i]) for i in range(len(ds))]
        err = ms.cv_error_curve(ds, 2, folds)[-1]
        assert 0.0 <= err <= 1.0

    def test_too_many_components_rejected(self):
        ds = _gaussian_dataset(n_per_class=3, p=30, seed=7)
        folds = ms.stratified_kfold(ds.y, 3, seed=0)
        with pytest.raises(ValueError):
            ms.cv_error_curve(ds, 25, folds)


def _phantom_like_dataset(seed=0, n_per_class=10):
    """Small dataset with canonical 105 columns and three planted signals."""
    rng = np.random.default_rng(seed)
    n = 3 * n_per_class
    y = np.array([1, 2, 3] * n_per_class)
    x = rng.normal(size=(n, 105))
    cols = {c: i for i, c in enumerate(FEATURE_COLUMNS)}
    x[:, cols["shape_Sphericity"]] = np.where(y == 1, 0.4, 0.9) + rng.normal(0, 0.03, n)
    x[:, cols["glcm_Contrast"]] = np.where(y == 3, 2.5, 0.3) + rng.normal(0, 0.1, n)
    x[:, cols["fos_Variance"]] = np.where(y == 3, 600.0, 50.0) + rng.normal(0, 20.0, n)
    return Dataset(x=x, y=y, feature_names=FEATURE_COLUMNS)


def _refit_error_curve(ds, cap, folds):
    """Per-LV pooled CV error from a fresh fit_pls at every LV count."""
    curve = []
    for a in range(1, cap + 1):
        errors = 0
        for fold in folds:
            test = np.zeros(len(ds), dtype=bool)
            test[fold] = True
            model = pls.fit_pls(ds.x[~test], ds.y[~test], a)
            _, pred = pls.predict(model, ds.x[test])
            errors += int((pred != ds.y[test]).sum())
        curve.append(errors / len(ds))
    return curve


class TestCvErrorCurve:
    """One fit per fold, read off at every prefix, equals a refit per LV count."""

    def test_matches_refit_per_lv(self):
        cases = (
            (_phantom_like_dataset(seed=7), 5, 12),
            (_gaussian_dataset(n_per_class=10, seed=8), 5, 12),
            (_phantom_like_dataset(seed=3, n_per_class=50), 10, 20),  # experiments' k and max_lv
        )
        for ds, k, max_lv in cases:
            folds = ms.stratified_kfold(ds.y, k, seed=1)
            cap = min(max_lv, ds.x.shape[1])
            refit = _refit_error_curve(ds, cap, folds)
            assert ms.cv_error_curve(ds, cap, folds).tolist() == refit

    def test_rank_deficient_x_past_the_early_stop(self):
        rng = np.random.default_rng(9)
        y = np.repeat([1, 2, 3], 8)
        base = rng.normal(size=(24, 3)) + y[:, None]
        x = np.hstack([base, 2.0 * base, base[:, :2] - base[:, 2:]])  # rank 3, 8 columns
        ds = Dataset(x=x, y=y, feature_names=tuple(f"fos_f{i}" for i in range(8)))
        folds = ms.stratified_kfold(ds.y, 4, seed=2)
        train = np.concatenate(folds[1:])
        assert pls.fit_pls(x[train], y[train], 6).n_components == 3
        assert ms.cv_error_curve(ds, 6, folds).tolist() == _refit_error_curve(ds, 6, folds)


class TestFitExperiment:
    def test_considered_counts_match_the_five_experiments(self):
        ds = _phantom_like_dataset()
        expected = {1: 105, 2: 105, 3: 13, 4: 31, 5: 74}
        for spec in ms.experiment_specs(k=5, max_lv=4):
            _, report = ms.fit_experiment(ds, spec)
            assert report["considered_total"] == expected[spec.experiment_id]

    def test_no_selection_keeps_everything(self):
        ds = _phantom_like_dataset(seed=1)
        spec = ms.ExperimentSpec(1, ("shape", "fos"), False, k=5, max_lv=3)
        model, report = ms.fit_experiment(ds, spec)
        assert report["selected_total"] == report["considered_total"] == 31
        assert len(model.feature_names) == 31

    def test_selection_reduces_and_keeps_planted(self):
        ds = _phantom_like_dataset(seed=2, n_per_class=15)
        spec = ms.ExperimentSpec(2, ("shape", "fos", "glcm", "gldm", "glrlm", "glszm", "ngtdm"), True, k=5, max_lv=4)
        model, report = ms.fit_experiment(ds, spec)
        assert report["selected_total"] < report["considered_total"]
        assert {"shape_Sphericity", "glcm_Contrast", "fos_Variance"} <= set(model.feature_names)

    def test_selection_error_not_worse_than_no_selection(self):
        ds = _phantom_like_dataset(seed=6, n_per_class=15)
        specs = ms.experiment_specs(k=5, max_lv=4)
        _, full = ms.fit_experiment(ds, specs[0])
        _, pruned = ms.fit_experiment(ds, specs[1])
        assert pruned["selected_total"] < pruned["considered_total"]
        assert pruned["error_rate"] <= full["error_rate"] + 0.05

    def test_selected_features_subset_of_considered(self):
        ds = _phantom_like_dataset(seed=3)
        spec = ms.ExperimentSpec(5, ("glcm", "gldm", "glrlm", "glszm", "ngtdm"), True, k=5, max_lv=4)
        model, report = ms.fit_experiment(ds, spec)
        from ctradiomics.dataio import columns_for_groups

        considered = set(columns_for_groups(FEATURE_COLUMNS, spec.feature_groups))
        assert set(model.feature_names) <= considered
        assert report["selected_total"] <= report["considered_total"]

    def test_deterministic_for_fixed_seed(self):
        ds = _phantom_like_dataset(seed=4)
        spec = ms.ExperimentSpec(2, ("shape", "fos", "glcm"), True, k=5, max_lv=4, seed=11)
        model_a, report_a = ms.fit_experiment(ds, spec)
        model_b, report_b = ms.fit_experiment(ds, spec)
        assert report_a == report_b
        for field in ("weights", "x_loadings", "y_loadings"):
            assert np.array_equal(getattr(model_a, field), getattr(model_b, field)), field

    def test_empty_selection_aborts(self, monkeypatch):
        # a perfectly flat VIP vector (all exactly 1) never clears the
        # strict threshold; the experiment must abort with SelectionError
        ds = _phantom_like_dataset(seed=5)
        monkeypatch.setattr(ms, "vip_scores", lambda model: np.ones(model.n_features))
        spec = ms.ExperimentSpec(2, ("fos",), True, k=5, max_lv=2)
        with pytest.raises(SelectionError):
            ms.fit_experiment(ds, spec)


class TestEvaluate:
    def test_perfect_predictions(self):
        ds = _gaussian_dataset(seed=8)
        spec = ms.ExperimentSpec(1, ("shape", "fos"), False, k=4, max_lv=4)
        model, report = ms.fit_experiment(ds, spec)
        metrics = ms.evaluate(model, ds)
        assert metrics["accuracy"] == 1.0
        assert all(v == 1.0 for v in metrics["sensitivity"].values())
        assert all(v == 1.0 for v in metrics["specificity"].values())
        assert np.trace(metrics["confusion"]) == len(ds)

    def test_hand_confusion_metrics(self):
        confusion = np.array([[2, 0, 0], [0, 0, 2], [0, 0, 2]])
        # rebuild metrics from a synthetic prediction set matching the matrix
        labels = (1, 2, 3)
        total = confusion.sum()
        accuracy = np.trace(confusion) / total
        assert accuracy == pytest.approx(4 / 6)
        i = 1  # class 2
        tp = confusion[i, i]
        fn = confusion[i].sum() - tp
        assert tp / (tp + fn) == 0.0
        j = 2  # class 3 specificity
        tp3 = confusion[j, j]
        fp3 = confusion[:, j].sum() - tp3
        tn3 = total - confusion[j].sum() - fp3
        assert tn3 / (tn3 + fp3) == pytest.approx(2 / 4)

    def test_evaluate_matches_hand_example_end_to_end(self):
        # craft a model-free check through the public API: train on separable
        # data, then corrupt labels to force a known confusion structure
        ds = _gaussian_dataset(seed=9)
        spec = ms.ExperimentSpec(1, ("shape", "fos"), False, k=4, max_lv=4)
        model, _ = ms.fit_experiment(ds, spec)
        wrong = Dataset(x=ds.x, y=np.roll(ds.y, 1), feature_names=ds.feature_names)
        metrics = ms.evaluate(model, wrong)
        assert np.sum(metrics["confusion"], axis=1).tolist() == [
            int((wrong.y == c).sum()) for c in (1, 2, 3)
        ]

    def test_unknown_class_rejected(self):
        ds = _gaussian_dataset(seed=10)
        spec = ms.ExperimentSpec(1, ("shape", "fos"), False, k=4, max_lv=4)
        model, _ = ms.fit_experiment(ds, spec)
        bad = Dataset(x=ds.x, y=np.where(ds.y == 3, 7, ds.y), feature_names=ds.feature_names)
        with pytest.raises(ValueError, match=r"\[7\]"):
            ms.evaluate(model, bad)

    def test_sensitivity_depends_only_on_its_row(self):
        # metamorphic: perturbing other rows' predictions leaves Se_k intact
        labels = (1, 2, 3)
        base = np.array([[5, 1, 0], [1, 4, 1], [0, 2, 4]])
        perturbed = base.copy()
        perturbed[0] = [4, 1, 1]  # change row 1 only
        for conf in (base, perturbed):
            tp = conf[1, 1]
            fn = conf[1].sum() - tp
            assert tp / (tp + fn) == pytest.approx(4 / 6)

    def test_accuracy_complements_error(self):
        ds = _gaussian_dataset(seed=11, scale=2.5)
        spec = ms.ExperimentSpec(1, ("shape", "fos"), False, k=4, max_lv=3)
        model, _ = ms.fit_experiment(ds, spec)
        metrics = ms.evaluate(model, ds)
        from ctradiomics.pls import predict

        _, pred = predict(model, ds.subset_columns(model.feature_names).x)
        err = float((pred != ds.y).mean())
        assert metrics["accuracy"] == pytest.approx(1.0 - err)

    def test_empty_dataset_rejected(self):
        ds = _gaussian_dataset(seed=12)
        model, _ = ms.fit_experiment(ds, ms.ExperimentSpec(1, ("shape", "fos"), False, k=4, max_lv=3))
        empty = Dataset(x=np.zeros((0, ds.x.shape[1])), y=np.zeros(0, dtype=int), feature_names=ds.feature_names)
        with pytest.raises(ValueError, match="at least one row"):
            ms.evaluate(model, empty)


class TestRunExperiments:
    def test_failed_spec_is_recorded_and_the_rest_run(self):
        # no VIP reaches 50, so every experiment that selects fails
        ds = _phantom_like_dataset(seed=4)
        reports, failures = ms.run_experiments(ds, ds, ms.experiment_specs(k=5, max_lv=3, vip_threshold=50.0))
        assert [r["experiment"] for r in reports] == [1]
        assert reports[0]["metrics"] is not None
        assert sorted(failures) == [2, 3, 4, 5]
        assert all(isinstance(exc, SelectionError) for exc in failures.values())


def _unlabelled(ds):
    return Dataset(x=ds.x, y=None, feature_names=ds.feature_names)


@pytest.mark.parametrize(
    "call, message",
    [
        (lambda ds: ms.ExperimentSpec(1, ("shape",), False, k=1), "k must be at least 2"),
        (lambda ds: ms.ExperimentSpec(1, ("shape",), False, max_lv=0), "max_lv must be at least 1"),
        (lambda ds: ms.ExperimentSpec(1, ("shape",), False, seed=-3), "seed must be non-negative, got -3"),
        (lambda ds: ms.cv_error_curve(_unlabelled(ds), 1, [np.arange(4)]), "cross-validation needs class labels"),
        # one row left to train on: no component fits
        (
            lambda ds: ms._sweep_components(ds, [np.arange(1, len(ds))], 5),
            "not enough samples to fit even one component",
        ),
        (
            lambda ds: ms.fit_experiment(_unlabelled(ds), ms.ExperimentSpec(1, ("fos",), False)),
            "training needs class labels",
        ),
        (
            lambda ds: ms.fit_experiment(ds, ms.ExperimentSpec(1, ("glcm",), False)),
            r"dataset has no columns for groups \('glcm',\)",
        ),
        (
            lambda ds: ms.evaluate(pls.fit_pls(ds.x, ds.y, 1, ds.feature_names), _unlabelled(ds)),
            "evaluation needs true class labels",
        ),
    ],
    ids=["k", "max_lv", "seed", "cv labels", "no component", "train labels", "no group columns", "evaluate labels"],
)
def test_each_rejected_input_names_its_fault(call, message):
    rng = np.random.default_rng(0)
    ds = Dataset(x=rng.normal(size=(6, 2)), y=[1, 2, 1, 2, 1, 2], feature_names=("fos_a", "fos_b"))
    with pytest.raises(ValueError, match=f"^{message}$"):
        call(ds)
