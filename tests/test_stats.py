"""Kruskal-Wallis, Dunn, Benjamini-Hochberg, and the per-feature report."""

import numpy as np
import pytest
import scipy.special
import scipy.stats
from hypothesis import given, settings
from hypothesis import strategies as hs

from ctradiomics.dataio import Dataset
from ctradiomics.errors import DegenerateDataError
from ctradiomics import stats


class TestKruskalWallis:
    def test_worked_example(self):
        r = stats.kruskal_wallis([[1, 2, 3], [4, 5, 6], [7, 8, 9]])
        assert r.statistic == pytest.approx(7.2, abs=1e-12)
        assert 0.0 < r.p_value < 0.05

    def test_equal_rank_sums_give_zero(self):
        r = stats.kruskal_wallis([[1, 4], [2, 3]])
        assert r.statistic == pytest.approx(0.0, abs=1e-12)
        assert r.p_value == pytest.approx(1.0)

    def test_shift_invariance(self):
        groups = [[1.0, 5.0, 2.2], [4.0, 0.5], [9.0, 3.3, 8.1]]
        a = stats.kruskal_wallis(groups).statistic
        b = stats.kruskal_wallis([[v + 137.0 for v in g] for g in groups]).statistic
        assert a == pytest.approx(b, abs=1e-12)

    def test_monotone_transform_invariance(self):
        rng = np.random.default_rng(0)
        groups = [rng.normal(size=7) for _ in range(3)]
        a = stats.kruskal_wallis(groups)
        b = stats.kruskal_wallis([np.exp(g) for g in groups])
        assert a.statistic == pytest.approx(b.statistic, abs=1e-12)
        assert a.p_value == pytest.approx(b.p_value, abs=1e-12)

    def test_matches_scipy_with_ties(self):
        rng = np.random.default_rng(1)
        for _ in range(25):
            groups = [np.round(rng.normal(size=rng.integers(3, 9)), 1) for _ in range(3)]
            if np.all(np.concatenate(groups) == np.concatenate(groups)[0]):
                continue
            mine = stats.kruskal_wallis(groups)
            ref = scipy.stats.kruskal(*groups)
            assert mine.statistic == pytest.approx(ref.statistic, rel=1e-12)
            assert mine.p_value == pytest.approx(ref.pvalue, rel=1e-10)

    def test_h_nonnegative(self):
        rng = np.random.default_rng(2)
        for _ in range(20):
            groups = [rng.integers(0, 4, size=5).astype(float) for _ in range(3)]
            try:
                assert stats.kruskal_wallis(groups).statistic >= -1e-12
            except DegenerateDataError:
                pass

    def test_identical_values_degenerate(self):
        with pytest.raises(DegenerateDataError):
            stats.kruskal_wallis([[2.0, 2.0], [2.0, 2.0]])


@pytest.mark.parametrize("rank_test", [stats.kruskal_wallis, stats.dunn_test])
def test_identical_groups_are_degenerate_in_both_tests(rank_test):
    with pytest.raises(DegenerateDataError, match="identical"):
        rank_test([[-3.5] * 4, [-3.5], [-3.5] * 2])


@settings(max_examples=300, deadline=None)
@given(hs.lists(hs.lists(hs.integers(0, 3), min_size=1, max_size=12), min_size=2, max_size=4))
def test_tie_correction_and_rank_variance_positive_past_the_check(groups):
    # few distinct values, so heavy ties: once _check_groups passes, the
    # pooled values form two or more tie groups, and both denominators stay > 0
    try:
        checked = stats._check_groups(groups)
    except ValueError:  # DegenerateDataError among them
        return
    _, tie_sum, n = stats._ranks_and_ties(checked)
    assert 1.0 - tie_sum / (n**3 - n) > 0.0
    assert n * (n + 1) / 12.0 - tie_sum / (12.0 * (n - 1)) > 0.0
    assert np.isfinite(stats.kruskal_wallis(groups).statistic)
    assert all(np.isfinite(pr.z) for pr in stats.dunn_test(groups))


class TestChiSquareTail:
    @pytest.mark.parametrize("df", range(1, 11))
    def test_matches_scipy_gammaincc(self, df):
        xs = np.concatenate([np.linspace(0.0, 1000.0, 2001), np.geomspace(1e-9, 1000.0, 400)])
        got = np.array([stats.chi_square_tail(float(x), df) for x in xs])
        want = scipy.special.gammaincc(df / 2.0, xs / 2.0)
        assert np.all(want > 0.0)
        assert np.max(np.abs(got - want) / want) <= 1e-12

    @pytest.mark.parametrize("df", range(1, 11))
    def test_whole_mass_at_zero(self, df):
        assert stats.chi_square_tail(0.0, df) == 1.0

    @pytest.mark.parametrize("df", [1, 2, 9, 10])
    @pytest.mark.parametrize("x", [1500.0, 3000.0, 1e6, 1e300])
    def test_far_tail_underflows_without_nan(self, df, x):
        p = stats.chi_square_tail(x, df)
        assert p == 0.0 or 0.0 < p < np.finfo(float).tiny


class TestDunn:
    def test_worked_example(self):
        res = stats.dunn_test([[1, 2], [3, 4]])
        assert len(res) == 1
        assert res[0].z == pytest.approx(-1.549193338482967, abs=1e-3)
        assert res[0].p_value == pytest.approx(0.1213, abs=2e-4)

    def test_identical_mean_ranks(self):
        res = stats.dunn_test([[1.0, 4.0], [2.0, 3.0]])
        assert res[0].z == pytest.approx(0.0, abs=1e-12)
        assert res[0].p_value == pytest.approx(1.0)

    def test_swapping_groups_negates_z(self):
        a = stats.dunn_test([[1, 2, 5], [3, 4]])[0]
        b = stats.dunn_test([[3, 4], [1, 2, 5]])[0]
        assert a.z == pytest.approx(-b.z, abs=1e-12)
        assert a.p_value == pytest.approx(b.p_value, abs=1e-12)

    def test_three_groups_yield_three_pairs(self):
        res = stats.dunn_test([[1, 2], [3, 4], [5, 6]])
        assert [(r.group_i, r.group_j) for r in res] == [(0, 1), (0, 2), (1, 2)]


class TestBenjaminiHochberg:
    def test_worked_example_all_rejected(self):
        adjusted, rejected = stats.benjamini_hochberg([0.005, 0.01, 0.03, 0.04], q=0.05)
        assert rejected.tolist() == [True, True, True, True]

    def test_all_ones(self):
        adjusted, rejected = stats.benjamini_hochberg([1.0, 1.0, 1.0])
        assert not rejected.any()
        assert adjusted.tolist() == [1.0, 1.0, 1.0]

    def test_single_p(self):
        _, rejected = stats.benjamini_hochberg([0.04], q=0.05)
        assert rejected.tolist() == [True]
        _, rejected = stats.benjamini_hochberg([0.06], q=0.05)
        assert rejected.tolist() == [False]

    @given(
        hs.lists(hs.floats(min_value=0.0, max_value=1.0), min_size=1, max_size=30),
        hs.floats(min_value=0.01, max_value=0.2),
    )
    @settings(max_examples=200, deadline=None)
    def test_properties(self, p_values, q):
        adjusted, rejected = stats.benjamini_hochberg(p_values, q)
        order = np.argsort(p_values, kind="mergesort")
        sorted_adj = adjusted[order]
        # monotone non-decreasing along sorted raw p values
        assert np.all(np.diff(sorted_adj) >= -1e-15)
        # adjusted >= raw
        assert np.all(adjusted >= np.asarray(p_values) - 1e-15)
        # rejections form a prefix of the sorted order
        flags = rejected[order]
        if flags.any():
            last = np.nonzero(flags)[0][-1]
            assert flags[: last + 1].all()

    def test_out_of_range_rejected(self):
        with pytest.raises(ValueError):
            stats.benjamini_hochberg([0.5, 1.5])


def _feature_dataset(seed=0, n_per_class=20):
    rng = np.random.default_rng(seed)
    y = np.repeat([1, 2, 3], n_per_class)
    n = len(y)
    sph = np.where(y == 1, 0.45, 0.9) + rng.normal(0, 0.05, n)
    noise = rng.normal(size=n)
    const = np.full(n, 3.14)
    return Dataset(
        x=np.column_stack([sph, noise, const]),
        y=y,
        feature_names=("shape_Sphericity", "fos_noise", "fos_const"),
    )


class TestFeatureGroupReport:
    def test_planted_feature_flagged(self):
        ds = _feature_dataset()
        rows = stats.feature_group_report(ds)
        by_name = {r.feature: r for r in rows}
        sph = by_name["shape_Sphericity"]
        assert not sph.degenerate
        assert sph.result.p_value < 0.05
        rejected_pairs = [p for p in sph.result.pairwise if p.rejected]
        assert {(p.group_i, p.group_j) for p in rejected_pairs} >= {(1, 2), (1, 3)}

    def test_constant_feature_marked_degenerate(self):
        ds = _feature_dataset()
        rows = stats.feature_group_report(ds)
        by_name = {r.feature: r for r in rows}
        assert by_name["fos_const"].degenerate
        assert by_name["fos_const"].result is None

    def test_row_count_matches_request(self):
        ds = _feature_dataset()
        rows = stats.feature_group_report(ds, features=["fos_noise"])
        assert len(rows) == 1

    def test_repeated_feature_rejected(self):
        # listed twice, its p values would enter the global BH family twice
        with pytest.raises(ValueError, match="feature 'fos_noise' is listed more than once"):
            stats.feature_group_report(_feature_dataset(), features=["fos_noise", "shape_Sphericity", "fos_noise"])

    def test_empty_feature_list_rejected(self):
        with pytest.raises(ValueError, match="the feature list names no feature"):
            stats.feature_group_report(_feature_dataset(), features=[])

    def test_summary_stats_present(self):
        ds = _feature_dataset()
        row = stats.feature_group_report(ds, features=["shape_Sphericity"])[0]
        assert set(row.per_class_median) == {1, 2, 3}
        assert row.per_class_median[1] < row.per_class_median[2]

    def test_pure_noise_rarely_rejected(self):
        hits = 0
        runs = 100
        for seed in range(runs):
            rng = np.random.default_rng(seed)
            ds = Dataset(
                x=rng.normal(size=(30, 1)),
                y=np.repeat([1, 2, 3], 10),
                feature_names=("fos_noise",),
            )
            rows = stats.feature_group_report(ds)
            r = rows[0].result
            if r is not None and r.pairwise and any(p.rejected for p in r.pairwise):
                hits += 1
        assert hits / runs < 0.10

    def test_global_family_flag(self):
        ds = _feature_dataset(seed=1)
        rows = stats.feature_group_report(ds, global_family=True)
        adjusted = [
            p.p_adjusted
            for r in rows
            if r.result is not None
            for p in r.result.pairwise
        ]
        assert all(a is not None for a in adjusted)
