"""Kruskal-Wallis, Dunn, Benjamini-Hochberg, and the per-feature report."""

import warnings

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
        h, p, _ = stats.kruskal_wallis([[1, 2, 3], [4, 5, 6], [7, 8, 9]])
        assert h == pytest.approx(7.2, abs=1e-12)
        assert 0.0 < p < 0.05

    def test_equal_rank_sums_give_zero(self):
        h, p, _ = stats.kruskal_wallis([[1, 4], [2, 3]])
        assert h == pytest.approx(0.0, abs=1e-12)
        assert p == pytest.approx(1.0)

    def test_shift_invariance(self):
        groups = [[1.0, 5.0, 2.2], [4.0, 0.5], [9.0, 3.3, 8.1]]
        a, _, _ = stats.kruskal_wallis(groups)
        b, _, _ = stats.kruskal_wallis([[v + 137.0 for v in g] for g in groups])
        assert a == pytest.approx(b, abs=1e-12)

    def test_monotone_transform_invariance(self):
        rng = np.random.default_rng(0)
        groups = [rng.normal(size=7) for _ in range(3)]
        h_a, p_a, _ = stats.kruskal_wallis(groups)
        h_b, p_b, _ = stats.kruskal_wallis([np.exp(g) for g in groups])
        assert h_a == pytest.approx(h_b, abs=1e-12)
        assert p_a == pytest.approx(p_b, abs=1e-12)

    def test_matches_scipy_with_ties(self):
        rng = np.random.default_rng(1)
        for _ in range(25):
            groups = [np.round(rng.normal(size=rng.integers(3, 9)), 1) for _ in range(3)]
            if np.all(np.concatenate(groups) == np.concatenate(groups)[0]):
                continue
            h, p, _ = stats.kruskal_wallis(groups)
            ref = scipy.stats.kruskal(*groups)
            assert h == pytest.approx(ref.statistic, rel=1e-12)
            assert p == pytest.approx(ref.pvalue, rel=1e-10)

    def test_h_nonnegative(self):
        rng = np.random.default_rng(2)
        for _ in range(20):
            groups = [rng.integers(0, 4, size=5).astype(float) for _ in range(3)]
            try:
                assert stats.kruskal_wallis(groups)[0] >= -1e-12
            except DegenerateDataError:
                pass

    def test_identical_values_degenerate(self):
        with pytest.raises(DegenerateDataError):
            stats.kruskal_wallis([[2.0, 2.0], [2.0, 2.0]])


def _kruskal_wallis_raises(groups):
    with pytest.raises(DegenerateDataError, match="identical"):
        stats.kruskal_wallis(groups)


def _report_marks_degenerate(groups):
    # the report marks such a feature degenerate and leaves every test cell empty
    y = np.repeat(np.arange(1, len(groups) + 1), [len(g) for g in groups])
    ds = Dataset(x=np.concatenate(groups)[:, None], y=y, feature_names=("fos_const",))
    header, rows = stats.feature_group_report(ds)
    cells = dict(zip(header, rows[0]))
    assert cells["degenerate"] is True
    assert all(cells[name] is None for name in header[2 : header.index("median_c1")])


@pytest.mark.parametrize(
    "check", [_kruskal_wallis_raises, _report_marks_degenerate], ids=["kruskal_wallis", "feature_group_report"]
)
def test_identical_groups_are_degenerate_in_both_tests(check):
    check([[-3.5] * 4, [-3.5], [-3.5] * 2])


@settings(max_examples=300, deadline=None)
@given(hs.lists(hs.lists(hs.integers(0, 3), min_size=1, max_size=12), min_size=2, max_size=4))
def test_tie_correction_and_rank_variance_positive_past_the_check(groups):
    # few distinct values, so heavy ties: once _check_groups passes, the
    # pooled values form two or more tie groups, and both denominators stay > 0
    try:
        checked, pooled = stats._check_groups(groups)
    except ValueError:  # DegenerateDataError among them
        return
    _, tie_sum, n = stats._ranks_and_ties(checked, pooled)
    assert 1.0 - tie_sum / (n**3 - n) > 0.0
    assert n * (n + 1) / 12.0 - tie_sum / (12.0 * (n - 1)) > 0.0
    h, _, dunn = stats.kruskal_wallis(groups)
    assert np.isfinite(h)
    assert all(np.isfinite(z) for z, _ in dunn)


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
        res = stats.kruskal_wallis([[1, 2], [3, 4]])[2]
        assert len(res) == 1
        z, p = res[0]
        assert z == pytest.approx(-1.549193338482967, abs=1e-3)
        assert p == pytest.approx(0.1213, abs=2e-4)

    def test_identical_mean_ranks(self):
        [(z, p)] = stats.kruskal_wallis([[1.0, 4.0], [2.0, 3.0]])[2]
        assert z == pytest.approx(0.0, abs=1e-12)
        assert p == pytest.approx(1.0)

    def test_swapping_groups_negates_z(self):
        z_a, p_a = stats.kruskal_wallis([[1, 2, 5], [3, 4]])[2][0]
        z_b, p_b = stats.kruskal_wallis([[3, 4], [1, 2, 5]])[2][0]
        assert z_a == pytest.approx(-z_b, abs=1e-12)
        assert p_a == pytest.approx(p_b, abs=1e-12)

    def test_three_groups_yield_three_pairs(self):
        # pairs (0, 1), (0, 2), (1, 2): mean ranks 1.5, 3.5, 5.5 are a step of 2 apart
        zs = [z for z, _ in stats.kruskal_wallis([[1, 2], [3, 4], [5, 6]])[2]]
        a = -zs[0]
        assert a > 0.0
        assert zs == pytest.approx([-a, -2 * a, -a], rel=1e-12)


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

    def test_empty_family(self):
        # the general path on no p value: empty arrays of both dtypes, and no warning
        with warnings.catch_warnings():
            warnings.simplefilter("error")
            adjusted, rejected = stats.benjamini_hochberg([])
        assert (adjusted.dtype, adjusted.shape, rejected.dtype, rejected.shape) == (np.float64, (0,), bool, (0,))

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


def _report_cells(ds, **options) -> dict[str, dict]:
    """feature -> {column: cell} of the report's table."""
    header, rows = stats.feature_group_report(ds, **options)
    return {row[0]: dict(zip(header, row)) for row in rows}


class TestFeatureGroupReport:
    def test_planted_feature_flagged(self):
        sph = _report_cells(_feature_dataset())["shape_Sphericity"]
        assert sph["degenerate"] is False
        assert sph["p_value"] < 0.05
        assert sph["rejected_1v2"] is True
        assert sph["rejected_1v3"] is True

    def test_constant_feature_marked_degenerate(self):
        header, rows = stats.feature_group_report(_feature_dataset())
        const = dict(zip(header, rows[2]))
        assert const["feature"] == "fos_const"
        assert const["degenerate"] is True
        assert all(const[name] is None for name in header[2 : header.index("median_c1")])

    def test_row_count_matches_request(self):
        _, rows = stats.feature_group_report(_feature_dataset(), features=["fos_noise"])
        assert len(rows) == 1

    def test_repeated_feature_rejected(self):
        # listed twice, its p values would enter the global BH family twice
        with pytest.raises(ValueError, match="feature 'fos_noise' is listed more than once"):
            stats.feature_group_report(_feature_dataset(), features=["fos_noise", "shape_Sphericity", "fos_noise"])

    def test_empty_feature_list_rejected(self):
        with pytest.raises(ValueError, match="the feature list names no feature"):
            stats.feature_group_report(_feature_dataset(), features=[])

    def test_summary_stats_present(self):
        header, rows = stats.feature_group_report(_feature_dataset(), features=["shape_Sphericity"])
        assert [name for name in header if name.startswith("median_")] == ["median_c1", "median_c2", "median_c3"]
        row = dict(zip(header, rows[0]))
        assert row["median_c1"] < row["median_c2"]

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
            row = _report_cells(ds)["fos_noise"]
            if any(row[f"rejected_{pair}"] for pair in ("1v2", "1v3", "2v3")):
                hits += 1
        assert hits / runs < 0.10

    def test_global_family_flag(self):
        table = _report_cells(_feature_dataset(seed=1), global_family=True)
        pairs = ("1v2", "1v3", "2v3")
        tested = [row[f"p_adj_{pair}"] for row in table.values() for pair in pairs if row[f"p_{pair}"] is not None]
        assert all(a is not None for a in tested)


def _tied_dataset(classes, seed=5) -> Dataset:
    """Shuffled labels; planted, tied, noise and constant columns."""
    rng = np.random.default_rng(seed)
    y = rng.permutation(np.repeat(classes, 9))
    planted = y + rng.normal(0.0, 0.6, len(y))
    x = np.column_stack(
        [
            planted,
            np.round(planted),  # heavy ties, still planted
            rng.integers(0, 3, len(y)).astype(float),  # heavy ties, no signal
            rng.normal(size=len(y)),
            np.full(len(y), 2.5),
        ]
    )
    return Dataset(x=x, y=y, feature_names=("planted", "planted_tied", "tied_noise", "noise", "const"))


@pytest.mark.parametrize("global_family", [False, True], ids=["per-feature", "global"])
@pytest.mark.parametrize("classes", [(1, 3), (1, 2, 3)], ids=["1-3", "1-2-3"])
def test_report_cells_equal_the_per_feature_api(classes, global_family):
    ds = _tied_dataset(classes)
    pairs = [f"{a}v{b}" for a in classes for b in classes if a < b]
    header, rows = stats.feature_group_report(ds, global_family=global_family)
    assert header == (
        ["feature", "degenerate", "H", "p_value"]
        + [f"{cell}_{pair}" for pair in pairs for cell in ("z", "p", "p_adj", "rejected")]
        + [f"{cell}_c{c}" for c in classes for cell in ("median", "iqr")]
    )
    families, outcomes = [], set()
    for j, (feature, row) in enumerate(zip(ds.feature_names, rows)):
        cells = dict(zip(header, row))
        assert cells["feature"] == feature
        groups = [ds.x[ds.y == c, j] for c in classes]
        for c, g in zip(classes, groups):
            assert cells[f"median_c{c}"] == float(np.median(g))
            assert cells[f"iqr_c{c}"] == np.percentile(g, 75) - np.percentile(g, 25)
        try:
            h, p, dunn = stats.kruskal_wallis(groups)
        except DegenerateDataError:
            outcomes.add("degenerate")
            assert cells["degenerate"] is True
            assert all(cells[name] is None for name in header[2 : 4 + 4 * len(pairs)])
            continue
        assert cells["degenerate"] is False
        assert (cells["H"], cells["p_value"]) == (h, p)
        assert len(dunn) == len(pairs)
        if p > 0.05:
            outcomes.add("not significant")
            assert all(cells[name] is None for name in header[4 : 4 + 4 * len(pairs)])
            continue
        outcomes.add("significant")
        for pair, z_p in zip(pairs, dunn):
            assert (cells[f"z_{pair}"], cells[f"p_{pair}"]) == z_p
        families.append([(cells, pair) for pair in pairs])
    assert outcomes == {"degenerate", "not significant", "significant"}
    assert len(families) >= 2  # pooling them changes the family
    if global_family:
        families = [[cell for family in families for cell in family]]
    for family in families:
        adjusted, rejected = stats.benjamini_hochberg([cells[f"p_{pair}"] for cells, pair in family])
        assert [cells[f"p_adj_{pair}"] for cells, pair in family] == adjusted.tolist()
        assert [cells[f"rejected_{pair}"] for cells, pair in family] == rejected.tolist()


def _relabelled(y):
    ds = _feature_dataset()
    return Dataset(x=ds.x, y=y, feature_names=ds.feature_names)


@pytest.mark.parametrize(
    "call, message",
    [
        (lambda: stats.kruskal_wallis([[1.0, 2.0, 3.0]]), "need at least two groups"),
        (lambda: stats.kruskal_wallis([[1.0, 2.0, 3.0], []]), "every group must be non-empty"),
        (lambda: stats.feature_group_report(_relabelled(None)), "group statistics need class labels"),
        (lambda: stats.feature_group_report(_relabelled(np.ones(60, dtype=int))), "need at least two classes"),
        (
            lambda: stats.feature_group_report(_feature_dataset(), features=["glcm_Contrast"]),
            "unknown feature 'glcm_Contrast'",
        ),
    ],
    ids=["one group", "empty group", "no labels", "one class", "unknown feature"],
)
def test_each_rejected_input_names_its_fault(call, message):
    with pytest.raises(ValueError, match=f"^{message}$"):
        call()
