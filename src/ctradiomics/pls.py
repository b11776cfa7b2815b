"""Multiclass PLS-DA: dummy response coding, autoscaling, PLS2
decomposition, class prediction by maximal predicted response, and VIP
feature scoring.

Each weight vector is the dominant left singular vector of X'Y for the
deflated X, the fixed point of PLS2 NIPALS (Hoskuldsson 1988), so there is
no iteration to converge and components are nested.  The decomposition is
deterministic: weight vectors are unit-norm with their largest-magnitude
entry positive, and ties in the class argmax break toward the lowest class id.
"""

from __future__ import annotations

import json
from dataclasses import dataclass, replace

import numpy as np

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
    y = np.asarray(y, dtype=int)
    if y.ndim != 1:
        raise ValueError("class ids must be a 1D sequence")
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


def apply_scaling(x: np.ndarray, mean: np.ndarray, scale: np.ndarray) -> np.ndarray:
    return (np.asarray(x, dtype=np.float64) - mean) / scale


def _fix_sign(w: np.ndarray) -> np.ndarray:
    k = int(np.argmax(np.abs(w)))
    return -w if w[k] < 0 else w


def _coef(weights: np.ndarray, x_loadings: np.ndarray, y_loadings: np.ndarray) -> np.ndarray:
    """B = W (P'W)^-1 Q', the regression matrix for centred X and Y."""
    return weights @ np.linalg.solve(x_loadings.T @ weights, y_loadings.T)


def fit_pls(
    xs: np.ndarray,
    y_dummy: np.ndarray,
    n_components: int,
    *,
    mean: np.ndarray | None = None,
    scale: np.ndarray | None = None,
    feature_names=None,
) -> PlsModel:
    """PLS2 on centred/scaled X against the dummy response matrix, whose
    columns are the classes 1..m.

    Per component: w is the top left singular vector of X'Y, t = Xw, and X is
    deflated by t p'.  Y is centred internally; its means are stored for
    prediction.  If X deflates to zero early, or keeps no covariance with Y,
    the model simply keeps the components found so far.
    """
    xs = np.asarray(xs, dtype=np.float64)
    yd = np.asarray(y_dummy, dtype=np.float64)
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
        mean=np.zeros(p) if mean is None else np.asarray(mean, dtype=np.float64),
        scale=np.ones(p) if scale is None else np.asarray(scale, dtype=np.float64),
        weights=weights,
        x_loadings=x_loadings,
        y_loadings=y_loadings,
        scores=np.column_stack(t_cols),
        coef=_coef(weights, x_loadings, y_loadings),
        y_means=y_means,
        n_components=weights.shape[1],
        class_labels=tuple(range(1, m + 1)),
        feature_names=tuple(feature_names),
    )


def leading_components(model: PlsModel, a: int) -> PlsModel:
    """The first min(a, A) components of ``model``: components are nested, so
    this is the model ``fit_pls`` returns for ``a`` components on the same data."""
    k = min(a, model.n_components)
    w, p, q, t = (m[:, :k] for m in (model.weights, model.x_loadings, model.y_loadings, model.scores))
    return replace(model, weights=w, x_loadings=p, y_loadings=q, scores=t, coef=_coef(w, p, q), n_components=k)


def train_plsda(x, y, n_components, feature_names=None) -> PlsModel:
    """Autoscale X, dummy-code y against classes 1..max, and fit."""
    y = np.asarray(y, dtype=int)
    xs, mean, scale = autoscale(x)
    yd = encode_dummy(y, int(y.max()))
    return fit_pls(xs, yd, n_components, mean=mean, scale=scale, feature_names=feature_names)


def predict(model: PlsModel, x_new) -> tuple[np.ndarray, np.ndarray]:
    """Predicted responses and class ids for raw (unscaled) feature rows."""
    x_new = np.atleast_2d(np.asarray(x_new, dtype=np.float64))
    if x_new.shape[1] != model.n_features:
        raise ValueError(f"expected {model.n_features} feature columns, got {x_new.shape[1]}")
    xc = apply_scaling(x_new, model.mean, model.scale)
    y_hat = xc @ model.coef + model.y_means
    classes = np.asarray(model.class_labels)[np.argmax(y_hat, axis=1)]
    return y_hat, classes


def vip_scores(model: PlsModel) -> np.ndarray:
    """Variable Importance in Projection for every feature column.

    VIP_j = sqrt(p * sum_a SS_a (w_ja / |w_a|)^2 / sum_a SS_a) with
    SS_a = (q_a'q_a)(t_a't_a), so mean(VIP^2) = 1 exactly.
    """
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


def model_to_dict(model: PlsModel) -> dict:
    return {
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


def model_from_dict(doc: dict) -> PlsModel:
    return PlsModel(
        mean=np.asarray(doc["mean"], dtype=np.float64),
        scale=np.asarray(doc["scale"], dtype=np.float64),
        weights=np.asarray(doc["W"], dtype=np.float64),
        x_loadings=np.asarray(doc["P"], dtype=np.float64),
        y_loadings=np.asarray(doc["Q"], dtype=np.float64),
        scores=np.zeros((0, int(doc["A"]))),  # training scores are not serialized
        coef=np.asarray(doc["B"], dtype=np.float64),
        y_means=np.asarray(doc["y_means"], dtype=np.float64),
        n_components=int(doc["A"]),
        class_labels=tuple(int(c) for c in doc["class_labels"]),
        feature_names=tuple(doc["feature_names"]),
    )


def save_model(model: PlsModel, path) -> None:
    with open(path, "w", encoding="utf-8") as fh:
        json.dump(model_to_dict(model), fh, indent=2)
        fh.write("\n")


def load_model(path) -> PlsModel:
    with open(path, "r", encoding="utf-8") as fh:
        return model_from_dict(json.load(fh))
