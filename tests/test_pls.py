"""PLS-DA decomposition, prediction, VIP scoring, and serialization."""

import numpy as np
import pytest

from ctradiomics.errors import SelectionError, UndefinedModelError
from ctradiomics import pls

import oracles
from test_model_selection import _phantom_like_dataset


class TestEncodeDummy:
    def test_identity_case(self):
        assert np.array_equal(pls.encode_dummy([1, 2, 3], 3), np.eye(3))

    def test_repeated_class(self):
        out = pls.encode_dummy([2, 2], 3)
        assert np.array_equal(out, [[0, 1, 0], [0, 1, 0]])

    def test_rows_sum_to_one(self):
        rng = np.random.default_rng(0)
        y = rng.integers(1, 4, 50)
        assert np.all(pls.encode_dummy(y, 3).sum(axis=1) == 1)

    def test_out_of_range_rejected(self):
        with pytest.raises(ValueError):
            pls.encode_dummy([0, 1], 3)
        with pytest.raises(ValueError):
            pls.encode_dummy([1, 4], 3)

    def test_fractional_id_rejected_and_whole_float_kept(self):
        with pytest.raises(ValueError, match="^class id 2.5 is not a whole number$"):
            pls.encode_dummy([1, 2.5], 3)
        assert np.array_equal(pls.encode_dummy([1.0, 2.0], 2), np.eye(2))


class TestFitPlsInputs:
    def test_fractional_class_id_rejected(self):
        x = np.random.default_rng(0).normal(size=(6, 3))
        with pytest.raises(ValueError, match="^class id 1.5 is not a whole number$"):
            pls.fit_pls(x, [1.5, 2.5, 1, 2, 1, 2], 1)

    @pytest.mark.parametrize("n_ids", [5, 7])
    def test_one_class_id_per_row(self, n_ids):
        x = np.random.default_rng(0).normal(size=(6, 3))
        with pytest.raises(ValueError, match=f"^{n_ids} class ids for 6 feature rows$"):
            pls.fit_pls(x, ([1, 2] * 4)[:n_ids], 1)

    @pytest.mark.parametrize(
        "x, y",
        [
            (np.random.default_rng(1).normal(size=(6, 3)), [1] * 6),  # Y is constant once centred
            (np.ones((6, 3)), [1, 2, 1, 2, 1, 2]),  # X is zero once centred
        ],
        ids=["one-class", "constant-x"],
    )
    def test_no_component_is_undefined(self, x, y):
        with pytest.raises(UndefinedModelError, match="^no PLS component could be extracted$"):
            pls.fit_pls(x, y, 1)


class TestAutoscale:
    def test_two_point_column(self):
        xs, mean, scale = pls.autoscale(np.array([[1.0], [3.0]]))
        assert mean[0] == 2.0
        assert scale[0] == pytest.approx(np.sqrt(2.0))
        assert xs[:, 0] == pytest.approx([-1 / np.sqrt(2), 1 / np.sqrt(2)])

    def test_constant_column_centred_only(self):
        xs, mean, scale = pls.autoscale(np.array([[4.0, 1.0], [4.0, 3.0]]))
        assert np.all(xs[:, 0] == 0.0)
        assert scale[0] == 1.0

    def test_reapplication_is_affine_and_order_preserving(self):
        rng = np.random.default_rng(1)
        model = pls.fit_pls(rng.normal(size=(10, 3)), np.tile([1, 2], 5), 1)
        new = rng.normal(size=(5, 3))
        scaled = pls._scaled_rows(model, new)
        for col in range(3):
            order_a = np.argsort(new[:, col])
            order_b = np.argsort(scaled[:, col])
            assert np.array_equal(order_a, order_b)

    def test_single_row_rejected(self):
        with pytest.raises(ValueError):
            pls.autoscale(np.ones((1, 2)))


def _manual_nipals_first_component(x, y):
    """Textbook single-response NIPALS iteration, sign-fixed."""
    u = y[:, 0].copy()
    w = None
    for _ in range(500):
        w_new = x.T @ u
        w_new = w_new / np.linalg.norm(w_new)
        k = np.argmax(np.abs(w_new))
        if w_new[k] < 0:
            w_new = -w_new
        t = x @ w_new
        q = y.T @ t / (t @ t)
        u = y @ q / (q @ q)
        if w is not None and np.linalg.norm(w_new - w) < 1e-12:
            w = w_new
            break
        w = w_new
    t = x @ w
    q = y.T @ t / (t @ t)
    return w, t, q


class TestFitPls:
    def test_hand_worked_first_component(self):
        x = np.array([[1.0, 2.0], [3.0, -1.0], [-2.0, 0.5], [-2.0, -1.5]])
        y = np.array([1, 2, 1, 2])
        model = pls.fit_pls(x, y, 1)
        xs, _, _ = pls.autoscale(x)
        yd = pls.encode_dummy(y, 2)
        w, t, q = _manual_nipals_first_component(xs, yd - yd.mean(axis=0))
        assert model.weights[:, 0] == pytest.approx(w, abs=1e-10)
        assert model.scores[:, 0] == pytest.approx(t, abs=1e-10)
        assert model.y_loadings[:, 0] == pytest.approx(q, abs=1e-10)

    def test_perfect_single_factor(self):
        rng = np.random.default_rng(2)
        y = rng.permutation(np.repeat([1, 2], 6))
        x = pls.encode_dummy(y, 2)  # the columns hold the dummy coding: Y is exactly linear in X
        model = pls.fit_pls(x, y, 1)
        y_hat, _ = pls.predict(model, x)
        assert np.abs(y_hat - pls.encode_dummy(y, 2)).max() < 1e-10

    def test_full_rank_equals_least_squares(self):
        for seed in range(10):
            rng = np.random.default_rng(seed)
            x = rng.normal(size=(20, 5))
            y = rng.integers(1, 4, 20)
            xs, _, _ = pls.autoscale(x)
            yd = pls.encode_dummy(y, 3)
            model = pls.fit_pls(x, y, 5)
            b_ls = np.linalg.lstsq(xs, yd - yd.mean(axis=0), rcond=None)[0]
            assert np.abs(model.coef - b_ls).max() < 1e-8, f"seed {seed}"

    def test_score_orthogonality(self):
        rng = np.random.default_rng(3)
        x = rng.normal(size=(30, 8))
        y = rng.integers(1, 4, 30)
        model = pls.fit_pls(x, y, 5)
        tt = model.scores.T @ model.scores
        off = tt - np.diag(np.diag(tt))
        assert np.abs(off).max() <= 1e-8 * np.abs(np.diag(tt)).max()

    def test_weight_sign_convention(self):
        rng = np.random.default_rng(20)
        model = pls.fit_pls(rng.normal(size=(25, 7)), rng.integers(1, 4, 25), 4)
        for a in range(model.n_components):
            w = model.weights[:, a]
            assert np.linalg.norm(w) == pytest.approx(1.0, abs=1e-12)
            assert w[np.argmax(np.abs(w))] > 0  # largest-magnitude entry positive

    def test_coef_identity(self):
        rng = np.random.default_rng(4)
        model = pls.fit_pls(rng.normal(size=(25, 6)), rng.integers(1, 4, 25), 4)
        recomposed = model.weights @ np.linalg.solve(
            model.x_loadings.T @ model.weights, model.y_loadings.T
        )
        assert np.abs(recomposed - model.coef).max() < 1e-10

    def test_early_stop_on_deflated_x(self):
        # rank-1 X cannot support two components
        rng = np.random.default_rng(5)
        col = rng.normal(size=(10, 1))
        x = np.hstack([col, 2.0 * col])
        model = pls.fit_pls(x, rng.integers(1, 3, 10), 2)
        assert model.n_components == 1

    def test_excessive_components_rejected(self):
        with pytest.raises(ValueError):
            pls.fit_pls(np.zeros((4, 2)), [1, 2, 1, 2], 4)

    def test_row_permutation_leaves_model_invariant(self):
        rng = np.random.default_rng(6)
        x = rng.normal(size=(25, 6))
        y = rng.integers(1, 4, 25)
        model_a = pls.fit_pls(x, y, 3)
        perm = rng.permutation(25)
        model_b = pls.fit_pls(x[perm], y[perm], 3)
        assert np.abs(model_a.coef - model_b.coef).max() < 1e-9
        assert np.abs(np.abs(model_a.weights) - np.abs(model_b.weights)).max() < 1e-9
        ya, _ = pls.predict(model_a, x)
        yb, _ = pls.predict(model_b, x)
        assert np.abs(ya - yb).max() < 1e-9


class TestNipalsOracle:
    """The closed-form weights reproduce the iterated PLS2 NIPALS fit."""

    @staticmethod
    def _assert_matches(x, y, n_components):
        xs, _, _ = pls.autoscale(x)
        yd = pls.encode_dummy(y, 3)
        model = pls.fit_pls(x, y, n_components)
        w, t, p, q = oracles.nipals_pls2(xs, yd, n_components)
        assert model.n_components == n_components
        assert np.abs(model.weights - w).max() <= 1e-10
        assert np.abs(model.scores - t).max() <= 1e-10
        assert np.abs(model.x_loadings - p).max() <= 1e-10
        assert np.abs(model.y_loadings - q).max() <= 1e-10

    @pytest.mark.parametrize("seed", range(10))
    def test_random_three_class(self, seed):
        rng = np.random.default_rng(seed)
        self._assert_matches(rng.normal(size=(30, 8)), rng.integers(1, 4, 30), 6)

    def test_phantom_like(self):
        ds = _phantom_like_dataset()
        self._assert_matches(ds.x, ds.y, 20)


class TestNestedComponents:
    def test_a_fresh_fit_is_a_prefix_of_the_larger_fit_bit_for_bit(self):
        rng = np.random.default_rng(21)
        x, y = rng.normal(size=(30, 10)), rng.integers(1, 4, 30)
        full = pls.fit_pls(x, y, 8)
        for a in range(1, 9):
            fresh = pls.fit_pls(x, y, a)
            assert fresh.n_components == a
            for field in ("weights", "x_loadings", "y_loadings", "scores"):
                assert np.array_equal(getattr(full, field)[:, :a], getattr(fresh, field)), (a, field)


class TestPredict:
    def test_recovers_training_classes_when_separable(self):
        rng = np.random.default_rng(7)
        centers = np.array([[4.0, 0.0, 0.0], [0.0, 4.0, 0.0], [0.0, 0.0, 4.0]])
        y = np.repeat([1, 2, 3], 20)
        x = centers[y - 1] + rng.normal(scale=0.3, size=(60, 3))
        model = pls.fit_pls(x, y, 2)
        _, pred = pls.predict(model, x)
        assert np.array_equal(pred, y)

    def test_duplicated_rows_identical_predictions(self):
        rng = np.random.default_rng(8)
        model = pls.fit_pls(rng.normal(size=(20, 4)), rng.integers(1, 4, 20), 2)
        row = rng.normal(size=(1, 4))
        y_hat, cls = pls.predict(model, np.vstack([row, row]))
        assert np.array_equal(y_hat[0], y_hat[1])
        assert cls[0] == cls[1]

    def test_column_scaling_invariance_of_decisions(self):
        rng = np.random.default_rng(9)
        x = rng.normal(size=(30, 5))
        y = rng.integers(1, 4, 30)
        model_a = pls.fit_pls(x, y, 3)
        x_scaled = x.copy()
        x_scaled[:, 1] *= 12.5
        model_b = pls.fit_pls(x_scaled, y, 3)
        ya, ca = pls.predict(model_a, x)
        yb, cb = pls.predict(model_b, x_scaled)
        assert np.abs(ya - yb).max() < 1e-10
        assert np.array_equal(ca, cb)

    def test_column_count_mismatch_rejected(self):
        rng = np.random.default_rng(10)
        model = pls.fit_pls(rng.normal(size=(10, 3)), rng.integers(1, 3, 10), 1)
        with pytest.raises(ValueError, match="3 feature columns"):
            pls.predict(model, np.zeros((2, 4)))

    def test_tie_breaks_to_lowest_class(self):
        model = pls.fit_pls(np.array([[0.0], [1.0], [2.0], [3.0]]), np.array([1, 1, 2, 2]), 1)
        # the midpoint scores both classes equally; argmax picks class 1
        y_hat, cls = pls.predict(model, np.array([[1.5]]))
        assert y_hat[0, 0] == pytest.approx(y_hat[0, 1])
        assert cls[0] == 1


class TestPredictEachComponentCount:
    def test_column_a_is_the_a_component_prediction(self):
        rng = np.random.default_rng(11)
        x, y = rng.normal(size=(40, 6)), np.repeat([1, 2, 3], [14, 13, 13])
        x[:, 0] += 1.5 * y
        full = pls.fit_pls(x, y, 5)
        x_new = rng.normal(size=(25, 6))
        got = pls.predict_each_component_count(full, x_new)
        assert got.shape == (25, 5)
        for a in range(1, 6):
            _, want = pls.predict(pls.fit_pls(x, y, a), x_new)
            assert np.array_equal(got[:, a - 1], want), a

    def test_column_count_mismatch_rejected(self):
        rng = np.random.default_rng(10)
        model = pls.fit_pls(rng.normal(size=(10, 3)), rng.integers(1, 3, 10), 1)
        with pytest.raises(ValueError, match="3 feature columns"):
            pls.predict_each_component_count(model, np.zeros((2, 4)))


class TestVip:
    def test_single_feature_vip_is_one(self):
        rng = np.random.default_rng(11)
        x = rng.normal(size=(15, 1))
        model = pls.fit_pls(x, (x[:, 0] > 0).astype(int) + 1, 1)
        assert pls.vip_scores(model) == pytest.approx([1.0])

    def test_zero_weight_feature(self):
        rng = np.random.default_rng(12)
        x = np.column_stack([rng.normal(size=30), np.zeros(30)])
        model = pls.fit_pls(x, (x[:, 0] > 0).astype(int) + 1, 1)
        assert pls.vip_scores(model) == pytest.approx([np.sqrt(2.0), 0.0], abs=1e-12)

    def test_mean_square_identity(self):
        for seed in range(5):
            rng = np.random.default_rng(seed)
            model = pls.fit_pls(rng.normal(size=(40, 9)), rng.integers(1, 4, 40), 4)
            vip = pls.vip_scores(model)
            assert np.mean(vip**2) == pytest.approx(1.0, abs=1e-10)

    def test_selection_boundary_is_strict(self):
        idx = pls.select_features_vip(np.array([1.2, 0.3, 1.0]), 1.0)
        assert idx.tolist() == [0]

    def test_all_equal_vip_is_selection_error(self):
        with pytest.raises(SelectionError):
            pls.select_features_vip(np.ones(7), 1.0)

    def test_undefined_model_error(self):
        rng = np.random.default_rng(13)
        model = pls.fit_pls(rng.normal(size=(10, 2)), rng.integers(1, 3, 10), 1)
        model.scores = np.zeros_like(model.scores)
        with pytest.raises(UndefinedModelError):
            pls.vip_scores(model)


class TestSerialization:
    def test_round_trip_predictions_bit_for_bit(self, tmp_path):
        rng = np.random.default_rng(14)
        x = rng.normal(size=(30, 6))
        model = pls.fit_pls(x, rng.integers(1, 4, 30), 3, feature_names=[f"f{i}" for i in range(6)])
        path = tmp_path / "model.json"
        pls.save_model(model, path)
        loaded = pls.load_model(path)
        ya, ca = pls.predict(model, x)
        yb, cb = pls.predict(loaded, x)
        assert np.array_equal(ya, yb)
        assert np.array_equal(ca, cb)
        assert loaded.feature_names == model.feature_names

    def test_vip_of_a_loaded_model_names_the_missing_scores(self, tmp_path):
        rng = np.random.default_rng(16)
        model = pls.fit_pls(rng.normal(size=(30, 6)), rng.integers(1, 4, 30), 3)
        assert np.isfinite(pls.vip_scores(model)).all()
        pls.save_model(model, tmp_path / "model.json")
        with pytest.raises(ValueError, match="a loaded model holds no training scores"):
            pls.vip_scores(pls.load_model(tmp_path / "model.json"))

    def test_saved_document_is_stable(self, tmp_path):
        rng = np.random.default_rng(15)
        model = pls.fit_pls(rng.normal(size=(12, 3)), rng.integers(1, 3, 12), 2)
        p1 = tmp_path / "a.json"
        p2 = tmp_path / "b.json"
        pls.save_model(model, p1)
        pls.save_model(model, p2)
        assert p1.read_bytes() == p2.read_bytes()


@pytest.mark.parametrize(
    "call, message",
    [
        (lambda: pls.encode_dummy([[1, 2]], 2), "class ids must be a 1D sequence"),
        # y.min() of no ids would fail inside numpy, naming a reduction
        (lambda: pls.encode_dummy([], 3), "there are no class ids to encode"),
        (lambda: pls.fit_pls(np.eye(4, 3), [1, 2, 1, 2], 0), "need at least one component"),
        (lambda: pls.select_features_vip(np.ones(3), 0.0), "threshold must be positive"),
    ],
    ids=["2D ids", "no ids", "no component", "zero threshold"],
)
def test_each_rejected_input_names_its_fault(call, message):
    with pytest.raises(ValueError, match=f"^{message}$"):
        call()
