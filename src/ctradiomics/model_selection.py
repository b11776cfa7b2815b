"""Cross-validated component selection, the select-then-refit procedure, the
five feature-group experiments, and classification metrics.

Folds are stratified with a seeded shuffle; ``fit_pls`` autoscales each
training split's own rows, so no test information leaks into the scaling.
CV error is pooled (total misclassified / N).  Reports and metrics are the
JSON documents the ``train``, ``evaluate`` and ``experiments`` commands write.
"""

from __future__ import annotations

from dataclasses import dataclass

import numpy as np

from .dataio import GROUP_PRESETS, Dataset, class_ids, columns_for_groups
from .features import family_counts
from .pls import PlsModel, fit_pls, predict, predict_each_component_count
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
            raise ValueError("the feature group list is empty")
        if self.k < 2:
            raise ValueError("k must be at least 2")
        if self.max_lv < 1:
            raise ValueError("max_lv must be at least 1")
        if self.seed < 0:
            raise ValueError(f"seed must be non-negative, got {self.seed}")


def experiment_specs(**overrides) -> tuple[ExperimentSpec, ...]:
    """The five standard experiments: all features, selection over all,
    shape only, shape+first-order, and texture only (the last four with VIP
    pruning).  ``overrides`` set ExperimentSpec's run fields (k, max_lv,
    seed, vip_threshold); the rest keep its defaults."""
    presets = (("all", False), ("all", True), ("shape", True), ("shape+fos", True), ("texture", True))
    return tuple(
        ExperimentSpec(i, GROUP_PRESETS[name], select, **overrides)
        for i, (name, select) in enumerate(presets, start=1)
    )


def stratified_kfold(y, k: int, seed: int) -> list[np.ndarray]:
    """Disjoint index folds with per-class counts differing by at most one.

    If the smallest class has fewer than ``k`` members the fold count is
    reduced to that size (two at minimum).
    """
    y = class_ids(y)
    if y.size == 0:
        raise ValueError("cross-validation needs at least one label")
    classes, counts = np.unique(y, return_counts=True)
    k_eff = min(k, int(counts.min()))
    if k_eff < 2:
        raise ValueError("every class needs at least two members for cross-validation")
    rng = np.random.default_rng(seed)
    fold = np.empty(len(y), dtype=int)
    for cls in classes:
        idx = np.flatnonzero(y == cls)
        rng.shuffle(idx)
        fold[idx] = np.arange(len(idx)) % k_eff
    return [np.flatnonzero(fold == f) for f in range(k_eff)]


def cv_error_curve(dataset: Dataset, max_components: int, folds) -> np.ndarray:
    """Pooled cross-validated misclassification rate at every LV count
    1..max_components.  Each fold is fit once at the cap and its held-out
    rows classified once at every component count
    (``pls.predict_each_component_count``).  A fold fit that stopped early at
    A components answers every a > A as A; ``fit_pls`` rejects a cap that a
    training split cannot hold."""
    if dataset.y is None:
        raise ValueError("cross-validation needs class labels")
    x, y = dataset.x, dataset.y
    errors = np.zeros(max_components, dtype=int)
    for fold in folds:
        test = np.zeros(len(dataset), dtype=bool)
        test[fold] = True
        model = fit_pls(x[~test], y[~test], max_components, dataset.feature_names)
        pred = predict_each_component_count(model, x[test])
        lv = np.minimum(np.arange(max_components), model.n_components - 1)
        errors += (pred[:, lv] != y[test][:, None]).sum(axis=0)
    return errors / len(dataset)


def _sweep_components(dataset: Dataset, folds, max_lv: int) -> tuple[int, float]:
    """Smallest LV count minimizing the CV error over 1..max_lv (capped)."""
    min_train = min(len(dataset) - len(f) for f in folds)
    cap = min(max_lv, dataset.x.shape[1], min_train - 1)
    if cap < 1:
        raise ValueError("not enough samples to fit even one component")
    errors = cv_error_curve(dataset, cap, folds)
    best = int(np.argmin(errors))
    return best + 1, float(errors[best])


def fit_experiment(dataset: Dataset, spec: ExperimentSpec) -> tuple[PlsModel, dict]:
    """Run one experiment: restrict to the spec's feature groups, pick the LV
    count by CV, optionally VIP-prune and re-run the sweep on the reduced
    set, then refit the final model on all training rows.  The report is
    the JSON document the ``train`` command writes.

    ``error_rate`` is the minimum of the CV curve that picked the LV count,
    and the features too when VIP selection is on, so it is optimistic
    (Ambroise & McLachlan, PNAS 2002); held-out ``metrics`` are the estimate."""
    if dataset.y is None:
        raise ValueError("training needs class labels")
    considered = columns_for_groups(dataset.feature_names, spec.feature_groups)
    if not considered:
        raise ValueError(f"dataset has no columns for groups {spec.feature_groups}")
    work = dataset.subset_columns(considered)
    folds = stratified_kfold(work.y, spec.k, spec.seed)

    best_lv, best_err = _sweep_components(work, folds, spec.max_lv)
    if spec.do_vip_selection:
        full_model = fit_pls(work.x, work.y, best_lv, work.feature_names)
        vip = vip_scores(full_model)
        keep = select_features_vip(vip, spec.vip_threshold)
        work = work.subset_columns([work.feature_names[i] for i in keep])
        best_lv, best_err = _sweep_components(work, folds, spec.max_lv)

    model = fit_pls(work.x, work.y, best_lv, work.feature_names)
    return model, {
        "experiment": spec.experiment_id,
        "error_rate": best_err,
        "chosen_lv": model.n_components,
        "considered_total": len(considered),
        "considered_by_family": family_counts(considered),
        "selected_total": len(work.feature_names),
        "selected_by_family": family_counts(work.feature_names),
    }


def evaluate(model: PlsModel, dataset: Dataset) -> dict:
    """Accuracy, the confusion matrix (rows the true class, columns the
    predicted one, both in ``class_labels`` order), and one-vs-rest
    sensitivity and specificity keyed by class id: the ``metrics`` JSON
    document."""
    if dataset.y is None:
        raise ValueError("evaluation needs true class labels")
    if len(dataset) == 0:
        raise ValueError("evaluation needs at least one row")
    labels = model.class_labels
    unknown = sorted(set(dataset.y.tolist()) - set(labels))
    if unknown:
        raise ValueError(f"test labels {unknown} unknown to the model")
    aligned = dataset.subset_columns(model.feature_names)
    _, pred = predict(model, aligned.x)
    m = len(labels)  # the labels are 1..m, so class c is row and column c - 1
    confusion = np.bincount((dataset.y - 1) * m + pred - 1, minlength=m * m).reshape(m, m)
    tp, truths, total = np.diag(confusion), confusion.sum(axis=1), confusion.sum()
    negatives = total - truths  # tn + fp
    tn = negatives - confusion.sum(axis=0) + tp
    # a rate with no case to count is 0: a class no row has, or one every row has
    sensitivity = np.divide(tp, truths, out=np.zeros(m), where=truths > 0)
    specificity = np.divide(tn, negatives, out=np.zeros(m), where=negatives > 0)
    return {
        "accuracy": float(np.trace(confusion) / total),
        "class_labels": list(labels),
        "confusion": confusion.tolist(),
        "sensitivity": dict(zip(labels, sensitivity.tolist())),
        "specificity": dict(zip(labels, specificity.tolist())),
    }


def run_experiments(train: Dataset, test: Dataset, specs) -> tuple[list[dict], dict[int, Exception]]:
    """Fit every experiment on the training set and attach its held-out
    metrics on the test set.  A spec that fails is recorded under its
    experiment id and the remaining specs still run."""
    reports, failures = [], {}
    for spec in specs:
        try:
            model, report = fit_experiment(train, spec)
            report["metrics"] = evaluate(model, test)
        except Exception as exc:  # one failed experiment must not stop the others
            failures[spec.experiment_id] = exc
            continue
        reports.append(report)
    return reports, failures
