"""Evaluation metrics, nonparametric tests and the regression-tree baseline.

The rank-based tests are implemented directly (fractional ranks, tie
corrections, normal / chi-square approximations) so the unit tests can
check them against an independent reference implementation. p-values use
the large-sample approximations throughout. Most settings run 30
repetitions, but the acceptance instance runs FS10 at 10 and its criterion
5 allows 5, where the normal approximation can flip a decision at alpha;
exact small-sample p-values are an open item in ROADMAP.md ("Exact p-values
for small samples").
"""
from __future__ import annotations

import math
from dataclasses import dataclass, field

import numpy as np

from .errors import (DegenerateInputError, ShapeError, ValidationError, check_number,
                     require_finite)

ALPHA = 0.05


# ---------------------------------------------------------------------------
# metrics
# ---------------------------------------------------------------------------

def mse(predictions, targets) -> float:
    """Mean squared error."""
    p = np.asarray(predictions, dtype=float)
    t = np.asarray(targets, dtype=float)
    if p.shape != t.shape:
        raise ShapeError("predictions and targets must have equal length")
    if p.size < 1:
        raise ValidationError("need at least one prediction")
    require_finite("predictions/targets", p, t)
    return float(np.mean((p - t) ** 2))


def amse(mse_values) -> float:
    """Mean of the per-repetition MSE values of one setting."""
    values = np.asarray(mse_values, dtype=float)
    if values.size < 1:
        raise ValidationError("need at least one MSE value")
    return float(np.mean(values))


# ---------------------------------------------------------------------------
# rank helpers and distribution tails
# ---------------------------------------------------------------------------

def _ranks(values: np.ndarray) -> tuple[np.ndarray, float]:
    """Fractional ranks (1-based; tied values share the mean of their ranks)
    and the tie term sum(t^3 - t) over groups of t tied values."""
    _, group, counts = np.unique(values, return_inverse=True, return_counts=True)
    ranks = np.cumsum(counts) - (counts - 1) / 2.0
    return ranks[group], float(np.sum(counts ** 3 - counts))


def _normal_sf(z: float) -> float:
    return 0.5 * math.erfc(z / math.sqrt(2.0))


def _two_sided_p(stat: float, mu: float, var: float) -> float:
    """Two-sided normal-approximation p-value of `stat` around its null mean
    `mu`, with a 0.5 continuity correction; 1 when the variance vanishes."""
    if var <= 0:
        return 1.0
    z = max(abs(stat - mu) - 0.5, 0.0) / math.sqrt(var)
    return min(1.0, 2.0 * _normal_sf(z))


def _chi2_sf(x: float, dof: int) -> float:
    """Chi-square survival function for integer dof via the stepping identity
    Q(x; v+2) = Q(x; v) + (x/2)^(v/2) exp(-x/2) / Gamma(v/2 + 1)."""
    if x <= 0:
        return 1.0
    if dof % 2 == 0:
        q, nu = math.exp(-x / 2.0), 2
    else:
        q, nu = math.erfc(math.sqrt(x / 2.0)), 1
    while nu < dof:
        q += math.exp((nu / 2.0) * math.log(x / 2.0) - x / 2.0
                      - math.lgamma(nu / 2.0 + 1.0))
        nu += 2
    return min(q, 1.0)


# ---------------------------------------------------------------------------
# hypothesis tests and effect sizes
# ---------------------------------------------------------------------------

def kruskal_wallis(groups) -> tuple[float, float]:
    """Tie-corrected H statistic and its chi-square (k-1 dof) p-value."""
    samples = [np.asarray(g, dtype=float) for g in groups]
    if len(samples) < 2:
        raise ValidationError("need at least two groups")
    if any(len(g) == 0 for g in samples):
        raise ValidationError("groups must be non-empty")
    pooled = np.concatenate(samples)
    require_finite("groups", pooled)
    n = len(pooled)
    ranks, ties = _ranks(pooled)
    h = 0.0
    start = 0
    for g in samples:
        r = ranks[start:start + len(g)].sum()
        h += r * r / len(g)
        start += len(g)
    h = 12.0 / (n * (n + 1)) * h - 3.0 * (n + 1)
    correction = 1.0 - ties / (n ** 3 - n)
    if correction <= 0:
        return 0.0, 1.0  # every pooled value identical
    h /= correction
    return float(h), _chi2_sf(h, len(samples) - 1)


def mann_whitney_u(a, b) -> tuple[float, float]:
    """U statistic of the first sample and a two-sided p-value.

    U counts pairs (a_i, b_j) with a_i > b_j, ties at half weight. The
    p-value uses the normal approximation with tie correction and a 0.5
    continuity correction.
    """
    x = np.asarray(a, dtype=float)
    y = np.asarray(b, dtype=float)
    if len(x) == 0 or len(y) == 0:
        raise ValidationError("samples must be non-empty")
    require_finite("a/b", x, y)
    n1, n2 = len(x), len(y)
    pooled = np.concatenate([x, y])
    ranks, ties = _ranks(pooled)
    u = float(ranks[:n1].sum() - n1 * (n1 + 1) / 2.0)
    mu = n1 * n2 / 2.0
    n = n1 + n2
    var = n1 * n2 / 12.0 * ((n + 1) - ties / (n * (n - 1)))
    return u, _two_sided_p(u, mu, var)


def vargha_delaney_a12(a, b) -> float:
    """Probability that a draw from `a` exceeds one from `b` (ties half).

    Values below 0.5 mean `a` is stochastically smaller, i.e. better when
    the samples are errors.
    """
    x = np.asarray(a, dtype=float)
    y = np.asarray(b, dtype=float)
    if len(x) == 0 or len(y) == 0:
        raise ValidationError("samples must be non-empty")
    require_finite("a/b", x, y)
    greater = (x[:, None] > y[None, :]).sum()
    equal = (x[:, None] == y[None, :]).sum()
    return float((greater + 0.5 * equal) / (len(x) * len(y)))


def a12_magnitude(value: float) -> str:
    """Effect-size label: large [0,.29]|[.71,1], medium (.29,.34]|[.64,.71),
    small (.34,.44]|[.56,.64), negligible otherwise."""
    if not 0.0 <= value <= 1.0:
        raise ValidationError("A12 must lie in [0, 1]")
    if value <= 0.29 or value >= 0.71:
        return "large"
    if value <= 0.34 or value >= 0.64:
        return "medium"
    if value <= 0.44 or value >= 0.56:
        return "small"
    return "negligible"


def holm_bonferroni(p_values) -> list[float]:
    """Holm step-down correction; output is on the original order."""
    ps = np.asarray(p_values, dtype=float)
    if not np.all((ps >= 0) & (ps <= 1)):
        raise ValidationError("p-values must lie in [0, 1] (NaN is not a p-value)")
    m = len(ps)
    order = np.argsort(ps, kind="stable")
    corrected = np.empty(m)
    running = 0.0
    for i, idx in enumerate(order):
        running = max(running, ps[idx] * (m - i))
        corrected[idx] = min(running, 1.0)
    return corrected.tolist()


def wilcoxon_one_sample(sample, reference: float) -> tuple[float, float]:
    """Signed-rank test of a sample against a single reference value.

    Zero differences are dropped; W is the rank sum of the positive
    differences; the two-sided p-value uses the normal approximation with
    tie correction and a 0.5 continuity correction.
    """
    x = np.asarray(sample, dtype=float)
    require_finite("sample/reference", x, reference)
    d = x - reference
    d = d[d != 0]
    if len(d) == 0:
        raise DegenerateInputError("every value equals the reference")
    n = len(d)
    ranks, ties = _ranks(np.abs(d))
    w_plus = float(ranks[d > 0].sum())
    mu = n * (n + 1) / 4.0
    var = n * (n + 1) * (2 * n + 1) / 24.0 - ties / 48.0
    return w_plus, _two_sided_p(w_plus, mu, var)


def cohens_d_one_sample(sample, reference: float) -> float:
    """(mean - reference) / sample standard deviation (n-1 denominator).

    Negative d means the sample sits below the reference."""
    x = np.asarray(sample, dtype=float)
    if len(x) < 2:
        raise ValidationError("need at least two values")
    require_finite("sample/reference", x, reference)
    sd = float(np.std(x, ddof=1))
    if sd == 0 or np.all(x == x[0]):   # np.std of equal values can round to ~1e-15
        raise DegenerateInputError("sample has zero variance")
    return float((np.mean(x) - reference) / sd)


def cohens_d_magnitude(d: float) -> str:
    a = abs(d)
    if a == 0:
        return "none"
    if a < 0.2:
        return "small"
    if a <= 0.8:
        return "medium"
    return "large"


# ---------------------------------------------------------------------------
# regression-tree baseline
# ---------------------------------------------------------------------------

@dataclass
class TreeNode:
    value: float
    feature: int | None = None
    threshold: float | None = None
    left: "TreeNode | None" = None
    right: "TreeNode | None" = None
    num_features: int | None = None   # the training width, on the root only

    @property
    def is_leaf(self) -> bool:
        return self.feature is None


def _best_split(x: np.ndarray, y: np.ndarray):
    """Best (sse_reduction, feature, threshold) over midpoints of sorted
    unique feature values; ties resolve to the lowest feature index, then
    the lowest threshold."""
    n = len(y)
    parent_sse = float(np.sum(y ** 2) - np.sum(y) ** 2 / n)
    best = None
    for f in range(x.shape[1]):
        order = np.argsort(x[:, f], kind="stable")
        xs, ys = x[order, f], y[order]
        cum_y = np.cumsum(ys)
        cum_y2 = np.cumsum(ys ** 2)
        for i in range(n - 1):
            if xs[i] == xs[i + 1]:
                continue
            nl = i + 1
            nr = n - nl
            sse_l = cum_y2[i] - cum_y[i] ** 2 / nl
            sse_r = (cum_y2[-1] - cum_y2[i]) - (cum_y[-1] - cum_y[i]) ** 2 / nr
            reduction = parent_sse - sse_l - sse_r
            if best is None or reduction > best[0] + 1e-12:
                best = (float(reduction), f, float((xs[i] + xs[i + 1]) / 2.0))
    if best is None or best[0] <= 1e-12:
        return None
    return best


def fit_regression_tree(features, targets, max_splits: int = 25) -> TreeNode:
    """Greedy best-first CART: at each step split the leaf whose best split
    removes the most squared error, until `max_splits` (an integer >= 0)
    splits or no split helps. Leaves predict their node mean."""
    if check_number("max_splits", max_splits, integer=True, error=ValidationError) < 0:
        raise ValidationError(f"field 'max_splits' must be >= 0, got {max_splits}")
    x = np.asarray(features, dtype=float)
    y = np.asarray(targets, dtype=float)
    if x.ndim != 2:
        raise ShapeError("features must be a 2-D matrix")
    if len(y) != len(x) or len(y) == 0:
        raise ValidationError("features and targets must be non-empty and aligned")
    require_finite("features/targets", x, y)
    root = TreeNode(value=float(np.mean(y)), num_features=x.shape[1])
    # leaves as (creation_id, node, row indices, cached best split)
    leaves = [(0, root, np.arange(len(y)), _best_split(x, y) if len(y) > 1 else None)]
    next_id = 1
    for _ in range(max_splits):
        best_leaf = None
        for leaf in leaves:
            if leaf[3] is None:
                continue
            if best_leaf is None or leaf[3][0] > best_leaf[3][0] + 1e-12:
                best_leaf = leaf
        if best_leaf is None:
            break
        _, node, idx, (_, f, threshold) = best_leaf
        node.feature, node.threshold = f, threshold
        mask = x[idx, f] <= threshold
        for side, rows in (("left", idx[mask]), ("right", idx[~mask])):
            child = TreeNode(value=float(np.mean(y[rows])))
            setattr(node, side, child)
            split = _best_split(x[rows], y[rows]) if len(rows) > 1 else None
            leaves.append((next_id, child, rows, split))
            next_id += 1
        leaves.remove(best_leaf)
    return root


def predict_tree_batch(model: TreeNode, features) -> np.ndarray:
    """Follow each row's splits (x[f] <= threshold goes left) to a leaf mean.
    `features` must be a matrix as wide as the training features."""
    x = np.asarray(features, dtype=float)
    if x.ndim != 2 or x.shape[1] != model.num_features:
        raise ShapeError(f"features must be a (rows, {model.num_features}) matrix, "
                         f"got shape {x.shape}")
    require_finite("features", x)   # a NaN compares false, so it would go right at every split
    values = []
    for row in x:
        node = model
        while not node.is_leaf:
            node = node.left if row[node.feature] <= node.threshold else node.right
        values.append(node.value)
    return np.array(values)


# ---------------------------------------------------------------------------
# result containers
# ---------------------------------------------------------------------------

@dataclass
class RunResults:
    """Per-repetition MSE values of one (dataset, feature set, combination)."""

    dataset: str
    feature_set: str
    encoder: str
    reservoir: str
    mse_values: np.ndarray

    @property
    def combination(self) -> str:
        return f"{self.encoder}_{self.reservoir}"

    @property
    def amse(self) -> float:
        return amse(self.mse_values)


@dataclass
class PairwiseResult:
    first: str
    second: str
    u: float
    p_raw: float
    p_corrected: float
    a12: float
    magnitude: str
    significant: bool


@dataclass
class ComparisonReport:
    """Omnibus test plus (when it fires) Holm-corrected pairwise comparisons;
    no test (H, p None) when a label's sample holds one distinct value."""

    labels: list[str]
    omnibus_h: float | None
    omnibus_p: float | None
    pairwise: list[PairwiseResult] = field(default_factory=list)
    distinct_values: dict[str, int] = field(default_factory=dict)

    def to_dict(self) -> dict:
        return {
            "labels": self.labels,
            "omnibus": {"h": self.omnibus_h, "p": self.omnibus_p},
            "alpha": ALPHA,
            "pairwise": [vars(p) for p in self.pairwise],
            "distinct_values": self.distinct_values,
        }

    def to_text(self) -> str:
        lines = ["omnibus Kruskal-Wallis: n/a (a sample holds one distinct value)"
                 if self.omnibus_p is None else
                 f"omnibus Kruskal-Wallis: H={self.omnibus_h:.4f} p={self.omnibus_p:.4g}"]
        if self.distinct_values:
            lines.append("distinct values: " + " ".join(
                f"{label}={n}" for label, n in self.distinct_values.items()))
        if not self.pairwise:
            lines.append("no pairwise tests" if self.omnibus_p is None or self.omnibus_p < ALPHA
                         else "no pairwise tests (omnibus not significant)")
            return "\n".join(lines)
        cell: dict[tuple[str, str], str] = {}
        for pw in self.pairwise:
            mark = "*" if pw.significant else " "
            cell[(pw.first, pw.second)] = f"{pw.a12:.2f}{mark}"
            cell[(pw.second, pw.first)] = f"{1.0 - pw.a12:.2f}{mark}"
        width = max(6, max(len(l) for l in self.labels) + 1)
        header = " " * width + "".join(f"{l:>{width}}" for l in self.labels)
        lines.append(header)
        for row in self.labels:
            cells = "".join(f"{cell.get((row, col), '-'):>{width}}" for col in self.labels)
            lines.append(f"{row:<{width}}" + cells)
        lines.append("cells: A12 of row vs column; * significant at "
                     f"alpha={ALPHA} after Holm correction; < 0.5 favors the row")
        return "\n".join(lines)
