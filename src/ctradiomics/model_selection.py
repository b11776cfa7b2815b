"""Cross-validated component selection, the select-then-refit procedure, the
five feature-group experiments, and classification metrics.

Folds are stratified with a seeded shuffle; autoscaling is refit inside each
training split so no test information leaks into the scaling.  Reported CV
error is pooled (total misclassified / N).
"""

from __future__ import annotations

from dataclasses import dataclass

import numpy as np

from .dataio import Dataset, columns_for_groups
from .features import FAMILIES, TEXTURE_FAMILIES, family_of_column
from .pls import PlsModel, autoscale, encode_dummy, fit_pls, leading_components, predict
from .pls import select_features_vip, vip_scores


@dataclass(frozen=True)
class ExperimentSpec:
    experiment_id: int
    feature_groups: tuple[str, ...]
    do_vip_selection: bool
    k: int = 10
    max_lv: int = 20
    seed: int = 42
    vip_threshold: float = 1.0

    def __post_init__(self):
        if not self.feature_groups:
            raise ValueError("feature_groups must be non-empty")
        if self.k < 2:
            raise ValueError("k must be at least 2")
        if self.max_lv < 1:
            raise ValueError("max_lv must be at least 1")


def experiment_specs(k=10, max_lv=20, seed=42, vip_threshold=1.0) -> tuple[ExperimentSpec, ...]:
    """The five standard experiments: all features, selection over all,
    shape only, shape+first-order, and texture only (the last four with VIP
    pruning)."""
    common = dict(k=k, max_lv=max_lv, seed=seed, vip_threshold=vip_threshold)
    return (
        ExperimentSpec(1, FAMILIES, False, **common),
        ExperimentSpec(2, FAMILIES, True, **common),
        ExperimentSpec(3, ("shape",), True, **common),
        ExperimentSpec(4, ("shape", "fos"), True, **common),
        ExperimentSpec(5, TEXTURE_FAMILIES, True, **common),
    )


@dataclass
class ClassificationMetrics:
    confusion: np.ndarray  # (m, m) counts, rows = true class, cols = predicted
    class_labels: tuple[int, ...]
    accuracy: float
    sensitivity: dict[int, float]
    specificity: dict[int, float]


@dataclass
class ExperimentReport:
    experiment_id: int
    error_rate: float
    chosen_lv: int
    considered_total: int
    considered_by_family: dict[str, int]
    selected_total: int
    selected_by_family: dict[str, int]
    metrics: ClassificationMetrics | None = None


def stratified_kfold(y, k: int, seed: int) -> list[np.ndarray]:
    """Disjoint index folds with per-class counts differing by at most one.

    If the smallest class has fewer than ``k`` members the fold count is
    reduced to that size (two at minimum).
    """
    y = np.asarray(y, dtype=int)
    n = len(y)
    if n < k:
        raise ValueError(f"cannot split {n} samples into {k} folds")
    classes, counts = np.unique(y, return_counts=True)
    k_eff = min(k, int(counts.min()))
    if k_eff < 2:
        raise ValueError("every class needs at least two members for cross-validation")
    rng = np.random.default_rng(seed)
    folds: list[list[int]] = [[] for _ in range(k_eff)]
    for cls in classes:
        idx = np.nonzero(y == cls)[0]
        rng.shuffle(idx)
        for pos, sample in enumerate(idx):
            folds[pos % k_eff].append(int(sample))
    return [np.sort(np.array(f, dtype=int)) for f in folds]


def _fit_on(x, y, n_components, n_classes, feature_names) -> PlsModel:
    xs, mean, scale = autoscale(x)
    yd = encode_dummy(y, n_classes)
    return fit_pls(
        xs,
        yd,
        n_components,
        mean=mean,
        scale=scale,
        feature_names=feature_names,
        class_labels=tuple(range(1, n_classes + 1)),
    )


def cv_error_curve(dataset: Dataset, max_components: int, folds) -> np.ndarray:
    """Pooled cross-validated misclassification rate at every LV count
    1..max_components.  Each fold is fit once at the cap and every smaller
    model is read off as its leading components."""
    if dataset.y is None:
        raise ValueError("cross-validation needs class labels")
    x, y = dataset.x, dataset.y
    n_classes = int(y.max())
    min_train = min(len(dataset) - len(f) for f in folds)
    if max_components > min(min_train - 1, x.shape[1]):
        raise ValueError(f"n_components {max_components} too large for the fold sizes")
    errors = np.zeros(max_components, dtype=int)
    for fold in folds:
        test = np.zeros(len(dataset), dtype=bool)
        test[fold] = True
        model = _fit_on(x[~test], y[~test], max_components, n_classes, dataset.feature_names)
        for a in range(1, max_components + 1):
            _, pred = predict(leading_components(model, a), x[test])
            errors[a - 1] += int((pred != y[test]).sum())
    return errors / len(dataset)


def cv_error_rate(dataset: Dataset, n_components: int, folds) -> float:
    """Pooled cross-validated misclassification rate at a fixed LV count."""
    return float(cv_error_curve(dataset, n_components, folds)[-1])


def _sweep_components(dataset: Dataset, folds, max_lv: int) -> tuple[int, float]:
    """Smallest LV count minimizing the CV error over 1..max_lv (capped)."""
    min_train = min(len(dataset) - len(f) for f in folds)
    cap = min(max_lv, dataset.x.shape[1], min_train - 1)
    if cap < 1:
        raise ValueError("not enough samples to fit even one component")
    errors = cv_error_curve(dataset, cap, folds)
    best = int(np.argmin(errors))
    return best + 1, float(errors[best])


def _family_counts(names) -> dict[str, int]:
    out = {fam: 0 for fam in FAMILIES}
    for c in names:
        out[family_of_column(c)] += 1
    return out


def fit_experiment(dataset: Dataset, spec: ExperimentSpec) -> tuple[PlsModel, ExperimentReport]:
    """Run one experiment: restrict to the spec's feature groups, pick the LV
    count by CV, optionally VIP-prune and re-run the sweep on the reduced
    set, then refit the final model on all training rows."""
    if dataset.y is None:
        raise ValueError("training needs class labels")
    considered = columns_for_groups(dataset.feature_names, spec.feature_groups)
    if not considered:
        raise ValueError(f"dataset has no columns for groups {spec.feature_groups}")
    work = dataset.subset_columns(considered)
    n_classes = int(dataset.y.max())
    folds = stratified_kfold(work.y, spec.k, spec.seed)

    best_lv, best_err = _sweep_components(work, folds, spec.max_lv)
    if spec.do_vip_selection:
        full_model = _fit_on(work.x, work.y, best_lv, n_classes, work.feature_names)
        vip = vip_scores(full_model)
        keep = select_features_vip(vip, spec.vip_threshold)
        work = work.subset_columns([work.feature_names[i] for i in keep])
        best_lv, best_err = _sweep_components(work, folds, spec.max_lv)

    model = _fit_on(work.x, work.y, best_lv, n_classes, work.feature_names)
    report = ExperimentReport(
        experiment_id=spec.experiment_id,
        error_rate=best_err,
        chosen_lv=model.n_components,
        considered_total=len(considered),
        considered_by_family=_family_counts(considered),
        selected_total=len(work.feature_names),
        selected_by_family=_family_counts(work.feature_names),
    )
    return model, report


def evaluate(model: PlsModel, dataset: Dataset) -> ClassificationMetrics:
    """Confusion matrix, accuracy, and one-vs-rest sensitivity/specificity."""
    if dataset.y is None:
        raise ValueError("evaluation needs true class labels")
    labels = model.class_labels
    unknown = sorted(set(dataset.y.tolist()) - set(labels))
    if unknown:
        raise ValueError(f"test labels {unknown} unknown to the model")
    aligned = dataset.subset_columns(model.feature_names)
    _, pred = predict(model, aligned.x)
    m = len(labels)
    index = {c: i for i, c in enumerate(labels)}
    confusion = np.zeros((m, m), dtype=int)
    for truth, guess in zip(dataset.y, pred):
        confusion[index[int(truth)], index[int(guess)]] += 1
    total = confusion.sum()
    accuracy = float(np.trace(confusion) / total)
    sensitivity = {}
    specificity = {}
    for c, i in index.items():
        tp = confusion[i, i]
        fn = confusion[i].sum() - tp
        fp = confusion[:, i].sum() - tp
        tn = total - tp - fn - fp
        sensitivity[c] = float(tp / (tp + fn)) if tp + fn else 0.0
        specificity[c] = float(tn / (tn + fp)) if tn + fp else 0.0
    return ClassificationMetrics(
        confusion=confusion,
        class_labels=labels,
        accuracy=accuracy,
        sensitivity=sensitivity,
        specificity=specificity,
    )


def run_experiments(train: Dataset, test: Dataset | None, specs) -> list[tuple[PlsModel, ExperimentReport]]:
    """Fit every experiment on the training set and, when a test set is
    given, attach its held-out metrics to each report."""
    results = []
    for spec in specs:
        model, report = fit_experiment(train, spec)
        if test is not None:
            report.metrics = evaluate(model, test)
        results.append((model, report))
    return results
