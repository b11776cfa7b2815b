"""Multiclass PLS-DA.  ``fit_pls`` takes raw feature rows and class ids
1..max(y), autoscales the rows and dummy-codes the ids itself, and fits PLS2,
so a model carries its own input scaling; ``predict`` classifies raw rows by
maximal predicted response, and VIP scores rank the features.

Each weight vector is the dominant left singular vector of X'Y for the
deflated X, the fixed point of PLS2 NIPALS (Hoskuldsson 1988), so there is
no iteration to converge and components are nested.  So is the rotation
R = W (P'W)^-1 that scores new rows, T = X R (de Jong 1993): P'W is upper
triangular with a unit diagonal, so R's first a columns are the a-component
model's and one score matrix serves every component count.  The
decomposition is deterministic: weight vectors are unit-norm with their
largest-magnitude entry positive, and ties in the class argmax break toward
the lowest class id.
"""

from __future__ import annotations

import json
from dataclasses import dataclass

import numpy as np

from .dataio import class_ids, write_json
from .errors import SelectionError, UndefinedModelError


@dataclass
class PlsModel:
    """A fitted PLS-DA model, including its input scaling."""

    mean: np.ndarray  # (p,) feature means
    scale: np.ndarray  # (p,) feature scales
    weights: np.ndarray  # W, (p, A)
    x_loadings: np.ndarray  # P, (p, A)
    y_loadings: np.ndarray  # Q, (m, A)
    scores: np.ndarray  # T, (N, A) training scores
    coef: np.ndarray  # B, (p, m), for centred X and Y
    y_means: np.ndarray  # (m,) response means
    n_components: int
    class_labels: tuple[int, ...]
    feature_names: tuple[str, ...]

    @property
    def n_features(self) -> int:
        return len(self.feature_names)


def encode_dummy(y, n_classes: int) -> np.ndarray:
    """One-hot class membership matrix: Y[i, k] = 1 iff y[i] == k+1."""
    y = class_ids(y)
    if y.ndim != 1:
        raise ValueError("class ids must be a 1D sequence")
    if not len(y):
        raise ValueError("there are no class ids to encode")
    if y.min() < 1 or y.max() > n_classes:
        raise ValueError(f"class ids must lie in 1..{n_classes}, got range {y.min()}..{y.max()}")
    out = np.zeros((len(y), n_classes), dtype=np.float64)
    out[np.arange(len(y)), y - 1] = 1.0
    return out


def autoscale(x: np.ndarray) -> tuple[np.ndarray, np.ndarray, np.ndarray]:
    """Centre columns and scale them to unit sample standard deviation.

    Zero-variance columns get scale 1 and are left centred only.
    """
    x = np.asarray(x, dtype=np.float64)
    if x.shape[0] < 2:
        raise ValueError("autoscaling needs at least two rows")
    mean = x.mean(axis=0)
    sd = x.std(axis=0, ddof=1)
    scale = np.where(sd > 0, sd, 1.0)
    return (x - mean) / scale, mean, scale


def _fix_sign(w: np.ndarray) -> np.ndarray:
    k = int(np.argmax(np.abs(w)))
    return -w if w[k] < 0 else w


def fit_pls(x, y, n_components: int, feature_names=None) -> PlsModel:
    """PLS2 of the autoscaled raw rows x against the dummy coding of the class
    ids y, whose columns are the classes 1..max(y); the model keeps x's scaling.

    Per component: w is the top left singular vector of X'Y, t = Xw, and X is
    deflated by t p'.  Y is centred internally; its means are stored for
    prediction.  If X deflates to zero early, or keeps no covariance with Y,
    the model simply keeps the components found so far.
    """
    if len(y) != len(x):
        raise ValueError(f"{len(y)} class ids for {len(x)} feature rows")
    xs, mean, scale = autoscale(x)
    yd = encode_dummy(y, int(np.max(y)))
    n, p = xs.shape
    m = yd.shape[1]
    if n_components < 1:
        raise ValueError("need at least one component")
    if n_components > min(n - 1, p):
        raise ValueError(f"n_components {n_components} exceeds min(N-1, p) = {min(n - 1, p)}")

    y_means = yd.mean(axis=0)
    yc = yd - y_means
    x_work = xs.copy()
    x_norm0 = np.linalg.norm(xs)

    w_cols, p_cols, q_cols, t_cols = [], [], [], []
    for _ in range(n_components):
        if np.linalg.norm(x_work) <= 1e-10 * max(x_norm0, np.finfo(float).tiny):
            break  # X fully deflated: keep the components found so far
        u, s, _ = np.linalg.svd(x_work.T @ yc, full_matrices=False)
        if s[0] == 0.0:
            break  # no covariance with Y left: keep the components found so far
        w = _fix_sign(u[:, 0])
        t = x_work @ w
        tt = t @ t
        if tt <= 0.0:
            break
        p_vec = x_work.T @ t / tt
        q_vec = yc.T @ t / tt
        x_work = x_work - np.outer(t, p_vec)
        w_cols.append(w)
        p_cols.append(p_vec)
        q_cols.append(q_vec)
        t_cols.append(t)

    if not w_cols:
        raise UndefinedModelError("no PLS component could be extracted")

    weights = np.column_stack(w_cols)
    x_loadings = np.column_stack(p_cols)
    y_loadings = np.column_stack(q_cols)
    if feature_names is None:
        feature_names = tuple(f"x{i}" for i in range(p))
    return PlsModel(
        mean=mean,
        scale=scale,
        weights=weights,
        x_loadings=x_loadings,
        y_loadings=y_loadings,
        scores=np.column_stack(t_cols),
        coef=weights @ np.linalg.solve(x_loadings.T @ weights, y_loadings.T),  # B = W (P'W)^-1 Q'
        y_means=y_means,
        n_components=weights.shape[1],
        class_labels=tuple(range(1, m + 1)),
        feature_names=tuple(feature_names),
    )


def _scaled_rows(model: PlsModel, x_new) -> np.ndarray:
    """Raw (unscaled) feature rows under the model's input scaling."""
    x_new = np.atleast_2d(np.asarray(x_new, dtype=np.float64))
    if x_new.shape[1] != model.n_features:
        raise ValueError(f"expected {model.n_features} feature columns, got {x_new.shape[1]}")
    return (x_new - model.mean) / model.scale


def predict(model: PlsModel, x_new) -> tuple[np.ndarray, np.ndarray]:
    """Predicted responses and class ids for raw (unscaled) feature rows."""
    y_hat = _scaled_rows(model, x_new) @ model.coef + model.y_means
    classes = np.asarray(model.class_labels)[np.argmax(y_hat, axis=1)]
    return y_hat, classes


def predict_each_component_count(model: PlsModel, x_new) -> np.ndarray:
    """Class ids of raw feature rows under every prefix of the model's
    components: column a - 1 holds the a-component model's.  The rows are
    scored once through the nested rotation R = W (P'W)^-1, and the response
    after a components is the running sum of t_k q_k' over k <= a."""
    w = model.weights
    scores = _scaled_rows(model, x_new) @ np.linalg.solve(w.T @ model.x_loadings, w.T).T
    # (rows, classes, components): the response after each prefix of components
    y_hat = np.cumsum(scores[:, None, :] * model.y_loadings, axis=2) + model.y_means[:, None]
    return np.asarray(model.class_labels)[np.argmax(y_hat, axis=1)]


def vip_scores(model: PlsModel) -> np.ndarray:
    """Variable Importance in Projection for every feature column.

    VIP_j = sqrt(p * sum_a SS_a (w_ja / |w_a|)^2 / sum_a SS_a) with
    SS_a = (q_a'q_a)(t_a't_a), so mean(VIP^2) = 1 exactly.
    """
    if not len(model.scores):
        raise ValueError("a loaded model holds no training scores; VIP needs the model as fitted")
    w = model.weights
    ss = np.einsum("ma,ma->a", model.y_loadings, model.y_loadings) * np.einsum(
        "na,na->a", model.scores, model.scores
    )
    total = ss.sum()
    if total <= 0.0:
        raise UndefinedModelError("model explains no response variance; VIP undefined")
    w_norm2 = (w**2).sum(axis=0)
    w_norm2[w_norm2 == 0.0] = 1.0
    p = w.shape[0]
    return np.sqrt(p * ((w**2 / w_norm2) @ ss) / total)


def select_features_vip(vip: np.ndarray, threshold: float) -> np.ndarray:
    """Indices of features with VIP strictly greater than the threshold."""
    if threshold <= 0:
        raise ValueError("threshold must be positive")
    idx = np.nonzero(np.asarray(vip) > threshold)[0]
    if len(idx) == 0:
        raise SelectionError(
            f"no feature has VIP > {threshold}; lower --vip-threshold or disable selection"
        )
    return idx


def save_model(model: PlsModel, path) -> None:
    doc = {
        "feature_names": list(model.feature_names),
        "mean": model.mean.tolist(),
        "scale": model.scale.tolist(),
        "W": model.weights.tolist(),
        "P": model.x_loadings.tolist(),
        "Q": model.y_loadings.tolist(),
        "B": model.coef.tolist(),
        "A": model.n_components,
        "class_labels": list(model.class_labels),
        "y_means": model.y_means.tolist(),
    }
    write_json(path, doc)


def load_model(path) -> PlsModel:
    """The model a ``save_model`` file holds; ValueError naming the file if it
    is no JSON object, lacks a key or holds arrays of disagreeing shapes."""
    try:
        with open(path, "r", encoding="utf-8") as fh:
            doc = json.load(fh)
        if not isinstance(doc, dict):
            raise TypeError(f"the JSON is a {type(doc).__name__}, not an object")
        p, m, a = len(doc["feature_names"]), len(doc["class_labels"]), int(doc["A"])
        shapes = {"mean": (p,), "scale": (p,), "W": (p, a), "P": (p, a), "Q": (m, a), "B": (p, m), "y_means": (m,)}
        arrays = {key: np.asarray(doc[key], dtype=np.float64) for key in shapes}
        wrong = [f"{key} is {v.shape}, not {shapes[key]}" for key, v in arrays.items() if v.shape != shapes[key]]
        if wrong:
            raise ValueError(f"with {p} features, {m} classes and {a} components, {'; '.join(wrong)}")
        class_labels = tuple(int(c) for c in doc["class_labels"])
    except KeyError as exc:
        raise ValueError(f"{path}: not a model: no key {exc}") from None
    except (TypeError, ValueError) as exc:
        raise ValueError(f"{path}: not a model: {exc}") from None
    return PlsModel(
        mean=arrays["mean"],
        scale=arrays["scale"],
        weights=arrays["W"],
        x_loadings=arrays["P"],
        y_loadings=arrays["Q"],
        scores=np.zeros((0, a)),  # training scores are not serialized
        coef=arrays["B"],
        y_means=arrays["y_means"],
        n_components=a,
        class_labels=class_labels,
        feature_names=tuple(doc["feature_names"]),
    )
