"""Statistics tests: metrics, rank tests against scipy and hand-enumerated
oracles, effect sizes, Holm correction, and the regression-tree baseline."""
import math
from itertools import groupby

import numpy as np
import pytest
import scipy.stats
from hypothesis import given, settings
from hypothesis import strategies as st

from qelmkit import stats
from qelmkit.errors import (DegenerateInputError, ShapeError, ValidationError)

samples = st.lists(st.floats(-100, 100, allow_nan=False), min_size=2, max_size=25)


# ---------------------------------------------------------------------------
# metrics
# ---------------------------------------------------------------------------

def test_mse_examples():
    assert stats.mse([1.0, 2.0], [1.0, 2.0]) == 0.0
    assert stats.mse([1.0, 1.0], [0.0, 2.0]) == pytest.approx(1.0)
    assert stats.mse([3.0], [0.0]) == pytest.approx(9.0)
    with pytest.raises(ShapeError):
        stats.mse([1.0], [1.0, 2.0])
    with pytest.raises(ValidationError):
        stats.mse([], [])


@pytest.mark.parametrize("bad", [np.nan, np.inf, -np.inf])
@pytest.mark.parametrize("call", [
    lambda v: stats.mse(v, [1.0, 2.0, 3.0]),
    lambda v: stats.mse([1.0, 2.0, 3.0], v),
    lambda v: stats.kruskal_wallis([v, [2.0, 3.0, 4.0]]),
    lambda v: stats.mann_whitney_u(v, [2.0, 3.0, 4.0]),
    lambda v: stats.mann_whitney_u([2.0, 3.0, 4.0], v),
    lambda v: stats.wilcoxon_one_sample(v, 0.5),
    lambda v: stats.wilcoxon_one_sample([1.0, 2.0, 3.0], v[1]),
    lambda v: stats.vargha_delaney_a12(v, [2.0, 3.0, 4.0]),
    lambda v: stats.vargha_delaney_a12([2.0, 3.0, 4.0], v),
    lambda v: stats.cohens_d_one_sample(v, 0.5),
    lambda v: stats.cohens_d_one_sample([1.0, 2.0, 3.0], v[1]),
])
def test_non_finite_input_is_rejected(call, bad):
    # NaN compares unequal to everything: ranked, it read as "no difference"
    with pytest.raises(ValidationError, match="finite"):
        call([1.0, bad, 3.0])


def test_amse_examples():
    assert stats.amse([2.0] * 30) == pytest.approx(2.0)
    assert stats.amse([10.0, 20.0]) == pytest.approx(15.0)
    with pytest.raises(ValidationError):
        stats.amse([])


def test_amse_matches_pairwise_sum_oracle():
    rng = np.random.default_rng(0)
    values = rng.uniform(0, 50, size=30)
    assert stats.amse(values) == pytest.approx(math.fsum(values) / 30, abs=1e-12)


# ---------------------------------------------------------------------------
# ranks and tie term
# ---------------------------------------------------------------------------

def oracle_rankdata(values: np.ndarray) -> np.ndarray:
    """Fractional ranks (1-based); tied values share the mean of their ranks."""
    order = np.argsort(values, kind="stable")
    ranks = np.empty(len(values))
    i = 0
    while i < len(values):
        j = i
        while j + 1 < len(values) and values[order[j + 1]] == values[order[i]]:
            j += 1
        ranks[order[i:j + 1]] = (i + j) / 2.0 + 1.0
        i = j + 1
    return ranks


def oracle_tie_term(values: np.ndarray) -> float:
    """sum(t^3 - t) over groups of tied values."""
    counts = [len(list(g)) for _, g in groupby(np.sort(values))]
    return float(sum(c ** 3 - c for c in counts))


# few distinct values, so most draws hold ties; -0.0 and 0.0 are one value
tied_values = st.lists(st.one_of(st.sampled_from([-0.0, 0.0, 1.0, -2.5, 3.0]),
                                 st.floats(-1e6, 1e6, allow_nan=False)),
                       min_size=1, max_size=200)


@given(tied_values)
def test_ranks_match_the_loop_oracle_exactly(values):
    x = np.array(values)
    ranks, ties = stats._ranks(x)
    np.testing.assert_array_equal(ranks, oracle_rankdata(x))
    assert ties == oracle_tie_term(x)


def test_ranks_examples():
    ranks, ties = stats._ranks(np.array([0.0, -0.0, 5.0, 1.0, 1.0, 1.0]))
    np.testing.assert_array_equal(ranks, [1.5, 1.5, 6.0, 4.0, 4.0, 4.0])
    assert ties == (2 ** 3 - 2) + (3 ** 3 - 3)
    ranks, ties = stats._ranks(np.array([7.0]))
    np.testing.assert_array_equal(ranks, [1.0])
    assert ties == 0.0


# ---------------------------------------------------------------------------
# Kruskal-Wallis
# ---------------------------------------------------------------------------

def test_kruskal_identical_groups():
    h, p = stats.kruskal_wallis([[1, 2, 3], [1, 2, 3]])
    assert p > 0.9
    h2, p2 = scipy.stats.kruskal([1, 2, 3], [1, 2, 3])
    assert h == pytest.approx(h2, abs=1e-10) and p == pytest.approx(p2, abs=1e-9)


def test_kruskal_separated_groups():
    _, p = stats.kruskal_wallis([[1, 2, 3], [100, 101, 102]])
    assert p < 0.05


def test_kruskal_permuted_copies():
    base = [4.0, 1.0, 3.0, 2.0, 5.0]
    h, p = stats.kruskal_wallis([base, base[::-1], sorted(base)])
    assert h == pytest.approx(0.0, abs=1e-12)
    assert p == 1.0


def test_kruskal_matches_scipy_with_ties():
    rng = np.random.default_rng(1)
    for _ in range(20):
        k = rng.integers(2, 5)
        groups = [rng.integers(0, 6, size=rng.integers(4, 25)).astype(float)
                  for _ in range(k)]
        h, p = stats.kruskal_wallis(groups)
        h2, p2 = scipy.stats.kruskal(*groups)
        assert h == pytest.approx(h2, abs=1e-10)
        assert p == pytest.approx(p2, abs=1e-9)


def test_kruskal_validation():
    with pytest.raises(ValidationError):
        stats.kruskal_wallis([[1.0, 2.0]])
    with pytest.raises(ValidationError):
        stats.kruskal_wallis([[1.0], []])


def test_kruskal_all_identical_values():
    h, p = stats.kruskal_wallis([[5.0, 5.0], [5.0, 5.0, 5.0]])
    assert h == 0.0 and p == 1.0


def test_kruskal_monotone_transform_invariance():
    rng = np.random.default_rng(12)
    groups = [rng.uniform(0, 5, size=12), rng.uniform(1, 6, size=9),
              rng.uniform(0, 4, size=15)]
    h1, p1 = stats.kruskal_wallis(groups)
    h2, p2 = stats.kruskal_wallis([np.exp(g) for g in groups])
    assert h1 == pytest.approx(h2, abs=1e-12)
    assert p1 == pytest.approx(p2, abs=1e-12)


# ---------------------------------------------------------------------------
# Mann-Whitney U
# ---------------------------------------------------------------------------

def test_mwu_enumeration_example():
    u, _ = stats.mann_whitney_u([1, 2], [3, 4])
    assert u == 0.0  # no (a, b) pair with a > b


def test_mwu_identical_multisets():
    _, p = stats.mann_whitney_u([1, 2, 3], [1, 2, 3])
    assert p > 0.9


def test_mwu_swap_identity():
    rng = np.random.default_rng(2)
    a = rng.integers(0, 10, size=12).astype(float)
    b = rng.integers(0, 10, size=9).astype(float)
    u_a, _ = stats.mann_whitney_u(a, b)
    u_b, _ = stats.mann_whitney_u(b, a)
    assert u_a + u_b == pytest.approx(len(a) * len(b))


def test_mwu_matches_scipy():
    rng = np.random.default_rng(3)
    for _ in range(20):
        a = rng.integers(0, 12, size=rng.integers(5, 40)).astype(float)
        b = rng.integers(0, 12, size=rng.integers(5, 40)).astype(float)
        u, p = stats.mann_whitney_u(a, b)
        ref = scipy.stats.mannwhitneyu(a, b, use_continuity=True,
                                       alternative="two-sided",
                                       method="asymptotic")
        assert u == pytest.approx(ref.statistic, abs=1e-9)
        assert p == pytest.approx(ref.pvalue, abs=1e-9)


def test_mwu_monotone_transform_invariance():
    rng = np.random.default_rng(4)
    a = rng.uniform(0, 5, size=15)
    b = rng.uniform(1, 6, size=18)
    u1, p1 = stats.mann_whitney_u(a, b)
    u2, p2 = stats.mann_whitney_u(np.exp(a), np.exp(b))
    assert u1 == u2 and p1 == pytest.approx(p2, abs=1e-12)


def test_mwu_validation():
    with pytest.raises(ValidationError):
        stats.mann_whitney_u([], [1.0])


# ---------------------------------------------------------------------------
# Vargha-Delaney A12
# ---------------------------------------------------------------------------

def test_a12_examples():
    assert stats.vargha_delaney_a12([1, 1], [1, 1]) == 0.5
    assert stats.vargha_delaney_a12([1, 2], [3, 4]) == 0.0
    assert stats.a12_magnitude(0.0) == "large"
    assert stats.vargha_delaney_a12([3, 4], [1, 2]) == 1.0


def test_a12_magnitude_thresholds():
    assert stats.a12_magnitude(0.29) == "large"
    assert stats.a12_magnitude(0.30) == "medium"
    assert stats.a12_magnitude(0.34) == "medium"
    assert stats.a12_magnitude(0.35) == "small"
    assert stats.a12_magnitude(0.44) == "small"
    assert stats.a12_magnitude(0.45) == "negligible"
    assert stats.a12_magnitude(0.5) == "negligible"
    assert stats.a12_magnitude(0.56) == "small"
    assert stats.a12_magnitude(0.64) == "medium"
    assert stats.a12_magnitude(0.71) == "large"
    with pytest.raises(ValidationError):
        stats.a12_magnitude(1.2)


@settings(max_examples=60, deadline=None)
@given(samples, samples)
def test_a12_complement_property(a, b):
    total = stats.vargha_delaney_a12(a, b) + stats.vargha_delaney_a12(b, a)
    assert total == pytest.approx(1.0, abs=1e-12)
    assert 0.0 <= stats.vargha_delaney_a12(a, b) <= 1.0


# ---------------------------------------------------------------------------
# Holm-Bonferroni
# ---------------------------------------------------------------------------

def test_holm_examples():
    assert stats.holm_bonferroni([0.3]) == [0.3]
    assert stats.holm_bonferroni([0.01, 0.04]) == pytest.approx([0.02, 0.04])
    with pytest.raises(ValidationError):
        stats.holm_bonferroni([0.5, 1.2])


def test_holm_rejects_nan():
    with pytest.raises(ValidationError):
        stats.holm_bonferroni([0.01, float("nan"), 0.2])


def test_holm_hand_worked_three():
    # sorted: 0.01*3=0.03, 0.02*2=0.04, 0.9*1 -> 0.9
    out = stats.holm_bonferroni([0.9, 0.01, 0.02])
    assert out == pytest.approx([0.9, 0.03, 0.04])


@settings(max_examples=60, deadline=None)
@given(st.lists(st.floats(0, 1, allow_nan=False), min_size=1, max_size=12))
def test_holm_properties(ps):
    out = stats.holm_bonferroni(ps)
    assert all(o >= p - 1e-15 for o, p in zip(out, ps))
    assert all(0.0 <= o <= 1.0 for o in out)
    order = np.argsort(ps, kind="stable")
    sorted_out = np.array(out)[order]
    assert all(sorted_out[i] <= sorted_out[i + 1] + 1e-15
               for i in range(len(ps) - 1))


# ---------------------------------------------------------------------------
# Wilcoxon one-sample
# ---------------------------------------------------------------------------

def test_wilcoxon_symmetric_sample():
    _, p = stats.wilcoxon_one_sample([-1.0, 1.0, -2.0, 2.0, -3.0, 3.0], 0.0)
    assert p > 0.9


def test_wilcoxon_all_above_reference():
    rng = np.random.default_rng(5)
    sample = rng.uniform(1.0, 2.0, size=30)
    _, p = stats.wilcoxon_one_sample(sample, 0.0)
    assert p < 0.001


def test_wilcoxon_translation_invariance():
    rng = np.random.default_rng(6)
    sample = rng.normal(3.0, 1.0, size=25)
    w1, p1 = stats.wilcoxon_one_sample(sample, 2.5)
    w2, p2 = stats.wilcoxon_one_sample(sample + 10.0, 12.5)
    assert w1 == w2 and p1 == pytest.approx(p2, abs=1e-12)


def test_wilcoxon_matches_scipy_pvalue():
    rng = np.random.default_rng(7)
    for _ in range(15):
        sample = rng.normal(5.0, 2.0, size=30)
        w, p = stats.wilcoxon_one_sample(sample, 5.0)
        ref = scipy.stats.wilcoxon(sample - 5.0, zero_method="wilcox",
                                   correction=True, alternative="two-sided",
                                   method="approx")
        assert p == pytest.approx(ref.pvalue, abs=1e-9)
        # our W is the positive-rank sum; scipy reports min(W+, W-)
        n = len(sample)
        assert min(w, n * (n + 1) / 2 - w) == pytest.approx(ref.statistic)


def test_wilcoxon_degenerate():
    with pytest.raises(DegenerateInputError):
        stats.wilcoxon_one_sample([4.0, 4.0, 4.0], 4.0)


# ---------------------------------------------------------------------------
# Cohen's d
# ---------------------------------------------------------------------------

def test_cohens_d_examples():
    assert stats.cohens_d_one_sample([1.0, 2.0, 3.0], 2.0) == 0.0
    assert stats.cohens_d_one_sample([1.0, 1.0, 1.0, 3.0], 2.5) == pytest.approx(-1.0)


def test_cohens_d_antisymmetry():
    sample = np.array([1.0, 4.0, 2.0, 8.0])
    mean = sample.mean()
    d_plus = stats.cohens_d_one_sample(sample, mean - 1.0)
    d_minus = stats.cohens_d_one_sample(sample, mean + 1.0)
    assert d_plus == pytest.approx(-d_minus)


def test_cohens_d_errors_and_magnitude():
    with pytest.raises(DegenerateInputError):
        stats.cohens_d_one_sample([2.0, 2.0], 1.0)
    with pytest.raises(ValidationError):
        stats.cohens_d_one_sample([2.0], 1.0)
    assert stats.cohens_d_magnitude(0.0) == "none"
    assert stats.cohens_d_magnitude(0.1) == "small"
    assert stats.cohens_d_magnitude(-0.5) == "medium"
    assert stats.cohens_d_magnitude(-1.2) == "large"


def test_cohens_d_refuses_equal_values_whose_std_rounds_above_zero():
    # np.std of 30 copies of this value is 9e-16, not 0, and d came out as
    # -1.1e15, reported as a "large" effect
    sample = np.full(30, 5.118216247002567)
    assert np.std(sample, ddof=1) > 0
    with pytest.raises(DegenerateInputError):
        stats.cohens_d_one_sample(sample, 5.2)


# ---------------------------------------------------------------------------
# regression tree
# ---------------------------------------------------------------------------

def count_splits(model: stats.TreeNode) -> int:
    if model.is_leaf:
        return 0
    return 1 + count_splits(model.left) + count_splits(model.right)


def test_tree_constant_targets():
    tree = stats.fit_regression_tree(np.arange(6.0).reshape(-1, 1), np.full(6, 3.0))
    assert count_splits(tree) == 0
    np.testing.assert_array_equal(stats.predict_tree_batch(tree, [[2.5]]), [3.0])


def test_tree_step_function_single_split():
    x = np.arange(10.0).reshape(-1, 1)
    y = (x[:, 0] >= 5).astype(float) * 4.0
    tree = stats.fit_regression_tree(x, y, max_splits=25)
    assert count_splits(tree) == 1
    assert stats.mse(stats.predict_tree_batch(tree, x), y) == 0.0


def test_tree_zero_splits_predicts_mean():
    x = np.arange(10.0).reshape(-1, 1)
    y = x[:, 0] * 2.0
    tree = stats.fit_regression_tree(x, y, max_splits=0)
    assert stats.predict_tree_batch(tree, [[9.0]])[0] == pytest.approx(y.mean())


@pytest.mark.parametrize("max_splits", [-1, True, 2.5, "3", None])
def test_tree_rejects_bad_max_splits(max_splits):
    # -1 returned a stump, True counted as 1 split, the others were raw TypeErrors
    x = np.arange(10.0).reshape(-1, 1)
    with pytest.raises(ValidationError, match="'max_splits'"):
        stats.fit_regression_tree(x, x[:, 0], max_splits=max_splits)


def test_tree_split_budget_respected():
    rng = np.random.default_rng(8)
    x = rng.normal(size=(300, 5))
    y = rng.normal(size=300)
    tree = stats.fit_regression_tree(x, y, max_splits=25)
    assert count_splits(tree) <= 25


def test_tree_training_error_monotone_in_splits():
    rng = np.random.default_rng(9)
    x = rng.normal(size=(150, 3))
    y = np.sin(x[:, 0] * 2) + x[:, 1] ** 2 + 0.1 * rng.normal(size=150)
    errors = []
    for k in (0, 1, 2, 5, 10, 25, 40):
        tree = stats.fit_regression_tree(x, y, max_splits=k)
        errors.append(stats.mse(stats.predict_tree_batch(tree, x), y))
    assert all(errors[i + 1] <= errors[i] + 1e-12 for i in range(len(errors) - 1))


def test_tree_deterministic():
    rng = np.random.default_rng(10)
    x = rng.integers(0, 4, size=(80, 4)).astype(float)   # plenty of ties
    y = rng.normal(size=80)
    a = stats.fit_regression_tree(x, y)
    b = stats.fit_regression_tree(x, y)
    probe = rng.integers(0, 4, size=(40, 4)).astype(float)
    np.testing.assert_array_equal(stats.predict_tree_batch(a, probe),
                                  stats.predict_tree_batch(b, probe))


@pytest.mark.parametrize("bad", [np.nan, np.inf, -np.inf])
def test_tree_prediction_rejects_non_finite_rows(bad):
    # a NaN compares false at every split, so it used to go right silently
    rng = np.random.default_rng(14)
    x = rng.uniform(0, 10, size=(40, 3))
    tree = stats.fit_regression_tree(x, 3.0 * x[:, 0] + rng.normal(size=40))
    with pytest.raises(ValidationError, match="finite"):
        stats.predict_tree_batch(tree, [[bad, 0.0, 0.0]])
    with pytest.raises(ValidationError, match="finite"):
        stats.predict_tree_batch(tree, [[1.0, 2.0, 3.0], [0.0, bad, 0.0]])


@pytest.mark.parametrize("batch", [
    np.zeros((4, 1)),      # narrower than the training features
    np.zeros((4, 5)),      # wider
    np.zeros(3),           # one row, not a batch
    np.zeros((2, 4, 3)),   # three-dimensional
], ids=["narrow", "wide", "1-D", "3-D"])
def test_tree_prediction_rejects_a_batch_of_the_wrong_shape(batch):
    # a (4, 1) batch on a 3-feature tree used to be scored silently
    rng = np.random.default_rng(15)
    x = rng.uniform(0, 10, size=(40, 3))
    tree = stats.fit_regression_tree(x, x[:, 0] + x[:, 2])
    with pytest.raises(ShapeError, match=r"\(rows, 3\)"):
        stats.predict_tree_batch(tree, batch)


def test_tree_validation():
    with pytest.raises(ValidationError):
        stats.fit_regression_tree(np.empty((0, 2)), [])


@pytest.mark.parametrize("bad", [np.nan, np.inf, -np.inf])
@pytest.mark.parametrize("where", ["feature", "target"])
def test_tree_rejects_non_finite_inputs(bad, where):
    # one NaN feature used to build a full 25-split tree without complaint
    rng = np.random.default_rng(12)
    x = rng.normal(size=(40, 3))
    y = rng.normal(size=40)
    if where == "feature":
        x[7, 1] = bad
    else:
        y[7] = bad
    with pytest.raises(ValidationError, match="finite"):
        stats.fit_regression_tree(x, y)


# ---------------------------------------------------------------------------
# report containers
# ---------------------------------------------------------------------------

def test_comparison_report_render():
    report = stats.ComparisonReport(["FS2", "FS5"], omnibus_h=9.1, omnibus_p=0.002)
    report.pairwise.append(stats.PairwiseResult(
        "FS2", "FS5", u=120.0, p_raw=0.01, p_corrected=0.01, a12=0.2,
        magnitude="large", significant=True))
    text = report.to_text()
    assert "omnibus" in text and "0.20*" in text and "0.80*" in text
    doc = report.to_dict()
    assert doc["pairwise"][0]["a12"] == 0.2
    assert doc["omnibus"]["p"] == 0.002
    assert doc["alpha"] == stats.ALPHA and f"alpha={stats.ALPHA}" in text


def test_run_results_container():
    r = stats.RunResults("Day1", "FS2", "DHE", "ISING", np.array([1.0, 3.0]))
    assert r.combination == "DHE_ISING"
    assert r.amse == pytest.approx(2.0)
