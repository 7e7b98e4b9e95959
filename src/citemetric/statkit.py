"""Numerical-statistics kernel.

Mid-ranks, rank correlation, tail probabilities from first principles
(series, and continued fractions that share one modified-Lentz step,
``_lentz_step``), least squares with sequential sums of squares, one-way
tests, post-hoc letter displays, and unrotated principal components over a
correlation matrix (``numpy.linalg.eigh``). ``anova_oneway`` and ``ols_fit``
share one F test (``_f_test``); ``anova_oneway`` and ``tukey_groups`` share
one within-group pass (``_within_groups``). Both one-way tests give statistic
0 and p = 1 when the data carry no between-group signal (equal group means,
or every observation tied). Everything is pure and deterministic;
accumulations use ``math.fsum``, which is correctly rounded, so sums do not
depend on input order at all.

numpy is imported inside ``ols_fit`` and ``pca_unrotated``, its only users, so
importing this module does not pay numpy's import time. Of the CLI commands,
only ``compare``, ``correlate``, ``factor`` and ``regress`` load this module,
and only ``factor`` and ``regress`` load numpy.

The result types are ``NamedTuple``s: they are only built and read, and a
named tuple costs a fraction of a dataclass to define at import time.
"""

from __future__ import annotations

import math
from collections import Counter
from enum import Enum
from typing import NamedTuple, Optional, Sequence, Tuple

from .errors import DomainError

_EPS = 1e-15
_TINY = 1e-300
_MAX_ITER = 500


class StatMethod(str, Enum):
    ANOVA_F = "AnovaF"
    KRUSKAL_WALLIS_H = "KruskalWallisH"


class TestResult(NamedTuple):
    method: StatMethod
    statistic: float
    df1: float
    df2: Optional[float]
    p_value: float
    n: int


class CorrelationResult(NamedTuple):
    r: float
    n: int
    p_value: float


class RegressionResult(NamedTuple):
    coefficients: Tuple[float, ...]  # intercept first
    r2: float
    r2_adjusted: float
    f: float
    f_p_value: float
    sequential_ss: Tuple[float, ...]
    residual_ss: float
    vif: Tuple[float, ...]
    n: int


class FactorResult(NamedTuple):
    eigenvalues: Tuple[float, ...]  # descending
    retained: int  # eigenvalues above 1
    loadings: Tuple[float, ...]  # first component only
    communalities: Tuple[float, ...]
    variance_explained: float


# --- accumulation -----------------------------------------------------------


def _mean(values: Sequence[float]) -> float:
    return math.fsum(values) / len(values)


def _pearson(x: Sequence[float], y: Sequence[float]) -> float:
    mx, my = _mean(x), _mean(y)
    sxy = math.fsum((a - mx) * (b - my) for a, b in zip(x, y))
    sxx = math.fsum((a - mx) ** 2 for a in x)
    syy = math.fsum((b - my) ** 2 for b in y)
    if sxx <= 0.0 or syy <= 0.0:
        raise DomainError("constant input leaves the correlation undefined")
    return sxy / math.sqrt(sxx * syy)


# --- ranks ------------------------------------------------------------------


def mid_ranks(values: Sequence[float]) -> list[float]:
    """Ranks 1..n with ties sharing the mean of the ranks they cover."""
    n = len(values)
    if n == 0:
        raise DomainError("cannot rank an empty sequence")
    order = sorted(range(n), key=lambda i: values[i])
    ranks = [0.0] * n
    i = 0
    while i < n:
        j = i
        while j + 1 < n and values[order[j + 1]] == values[order[i]]:
            j += 1
        shared = (i + j + 2) / 2.0  # 1-based ranks i+1 .. j+1
        for t in range(i, j + 1):
            ranks[order[t]] = shared
        i = j + 1
    return ranks


# --- special functions ------------------------------------------------------


def _clamp(v: float) -> float:
    return _TINY if abs(v) < _TINY else v


def _lentz_step(an: float, bn: float, c: float, d: float, h: float) -> Tuple[float, ...]:
    # one term an / (bn + ...) of a modified-Lentz continued fraction: the new
    # c, d and convergent h, and the factor d * c, which tends to 1
    d = 1.0 / _clamp(bn + an * d)
    c = _clamp(bn + an / c)
    delta = d * c
    return c, d, h * delta, delta


def _beta_cf(a: float, b: float, x: float) -> float:
    qab = a + b
    qap = a + 1.0
    qam = a - 1.0
    c = 1.0
    d = h = 1.0 / _clamp(1.0 - qab * x / qap)
    for m in range(1, _MAX_ITER + 1):
        m2 = 2 * m
        even = m * (b - m) * x / ((qam + m2) * (a + m2))
        c, d, h, _ = _lentz_step(even, 1.0, c, d, h)
        odd = -(a + m) * (qab + m) * x / ((a + m2) * (qap + m2))
        c, d, h, delta = _lentz_step(odd, 1.0, c, d, h)
        if abs(delta - 1.0) < _EPS:
            return h
    raise DomainError(f"incomplete beta failed to converge for a={a}, b={b}, x={x}")


def regularized_incomplete_beta(a: float, b: float, x: float) -> float:
    if a <= 0.0 or b <= 0.0:
        raise DomainError("beta parameters must be positive")
    if x < 0.0 or x > 1.0:
        raise DomainError("x must lie in [0, 1]")
    if x == 0.0:
        return 0.0
    if x == 1.0:
        return 1.0
    log_front = (
        math.lgamma(a + b)
        - math.lgamma(a)
        - math.lgamma(b)
        + a * math.log(x)
        + b * math.log1p(-x)
    )
    front = math.exp(log_front)
    if x < (a + 1.0) / (a + b + 2.0):
        return front * _beta_cf(a, b, x) / a
    return 1.0 - front * _beta_cf(b, a, 1.0 - x) / b


def _gamma_series_lower(s: float, x: float) -> float:
    term = 1.0 / s
    total = term
    k = s
    for _ in range(_MAX_ITER):
        k += 1.0
        term *= x / k
        total += term
        if abs(term) < abs(total) * _EPS:
            return total
    raise DomainError(f"incomplete gamma series failed for s={s}, x={x}")


def _gamma_cf_upper(s: float, x: float) -> float:
    b = x + 1.0 - s
    c = 1.0 / _TINY
    d = h = 1.0 / _clamp(b)  # b is 0 only where x + 1 rounds to s, for s near 2**53 and up
    for i in range(1, _MAX_ITER + 1):
        b += 2.0
        c, d, h, delta = _lentz_step(-i * (i - s), b, c, d, h)
        if abs(delta - 1.0) < _EPS:
            return h
    raise DomainError(f"incomplete gamma fraction failed for s={s}, x={x}")


def regularized_gamma_upper(s: float, x: float) -> float:
    if s <= 0.0:
        raise DomainError("shape parameter must be positive")
    if x < 0.0:
        raise DomainError("x must be non-negative")
    if x == 0.0:
        return 1.0
    lower = x < s + 1.0
    part = (_gamma_series_lower if lower else _gamma_cf_upper)(s, x)
    part *= math.exp(-x + s * math.log(x) - math.lgamma(s))
    return 1.0 - part if lower else part


def student_t_tail(x: float, df: float) -> float:
    """P(T > x) for Student's t with df degrees of freedom."""
    if df <= 0.0:
        raise DomainError("degrees of freedom must be positive")
    if not math.isfinite(x):
        return 0.0 if x > 0 else 1.0
    if x < 0.0:
        return 1.0 - student_t_tail(-x, df)
    return 0.5 * regularized_incomplete_beta(df / 2.0, 0.5, df / (df + x * x))


def f_tail(x: float, df1: float, df2: float) -> float:
    """P(F > x) for the F distribution."""
    if df1 <= 0.0 or df2 <= 0.0:
        raise DomainError("degrees of freedom must be positive")
    if x <= 0.0:
        return 1.0
    if not math.isfinite(x):
        return 0.0
    return regularized_incomplete_beta(df2 / 2.0, df1 / 2.0, df2 / (df2 + df1 * x))


def chi_square_tail(x: float, df: float) -> float:
    """P(ChiSq > x)."""
    if df <= 0.0:
        raise DomainError("degrees of freedom must be positive")
    if x <= 0.0:
        return 1.0
    if not math.isfinite(x):
        return 0.0
    return regularized_gamma_upper(df / 2.0, x / 2.0)


# --- correlation ------------------------------------------------------------


def spearman(x: Sequence[float], y: Sequence[float]) -> CorrelationResult:
    """Rank correlation with midrank ties; p from the two-sided t approximation."""
    if len(x) != len(y):
        raise DomainError(f"lengths differ: {len(x)} vs {len(y)}")
    n = len(x)
    if n < 3:
        raise DomainError("need at least 3 pairs")
    r = _pearson(mid_ranks(x), mid_ranks(y))
    r = max(-1.0, min(1.0, r))
    if abs(r) == 1.0:
        p = 0.0
    else:
        t = r * math.sqrt((n - 2) / (1.0 - r * r))
        p = min(1.0, 2.0 * student_t_tail(abs(t), n - 2))
    return CorrelationResult(r=r, n=n, p_value=p)


# --- least squares ----------------------------------------------------------


def ols_fit(y: Sequence[float], predictors: Sequence[Sequence[float]]) -> RegressionResult:
    """Least squares with intercept, solved through a QR decomposition.

    sequential_ss[i] is the residual-SS reduction from adding predictor i
    after the ones before it, so the entries depend on predictor order while
    the fit itself does not.
    """
    import numpy as np

    yv = np.asarray(y, dtype=float)
    n = yv.shape[0]
    p = len(predictors)
    if p == 0:
        raise DomainError("need at least one predictor")
    cols = []
    for col in predictors:
        cv = np.asarray(col, dtype=float)
        if cv.shape[0] != n:
            raise DomainError("predictor length differs from response length")
        cols.append(cv)
    if n <= p + 1:
        raise DomainError(f"need more than {p + 1} observations, got {n}")
    design = np.column_stack([np.ones(n)] + cols)
    if np.linalg.cond(design) > 1e12:
        raise DomainError("design matrix is numerically singular")

    q, r = np.linalg.qr(design)
    z = q.T @ yv
    beta = np.linalg.solve(r, z)

    residuals = yv - design @ beta
    rss = math.fsum(v * v for v in residuals)
    ybar = _mean(yv)
    tss = math.fsum((v - ybar) ** 2 for v in yv)
    # the j-th orthogonal direction carries exactly the SS gained by column j
    sequential = tuple(float(z[j] ** 2) for j in range(1, p + 1))

    if tss > 0.0:
        r2 = 1.0 - rss / tss
    else:
        r2 = 0.0
    r2_adj = 1.0 - (1.0 - r2) * (n - 1) / (n - p - 1)
    f_stat, f_p = _f_test(max(tss - rss, 0.0), p, rss, n - p - 1)

    if p == 1:
        vif = (1.0,)
    else:
        vif_values = []
        for j in range(p):
            others = np.column_stack([np.ones(n)] + [cols[i] for i in range(p) if i != j])
            coef, *_ = np.linalg.lstsq(others, cols[j], rcond=None)
            res_j = cols[j] - others @ coef
            rss_j = math.fsum(v * v for v in res_j)
            mean_j = _mean(cols[j])
            tss_j = math.fsum((v - mean_j) ** 2 for v in cols[j])
            r2_j = 0.0 if tss_j <= 0.0 else max(0.0, 1.0 - rss_j / tss_j)
            vif_values.append(1.0 / (1.0 - r2_j) if r2_j < 1.0 else math.inf)
        vif = tuple(vif_values)

    return RegressionResult(
        coefficients=tuple(float(b) for b in beta),
        r2=r2,
        r2_adjusted=r2_adj,
        f=f_stat,
        f_p_value=f_p,
        sequential_ss=sequential,
        residual_ss=rss,
        vif=vif,
        n=n,
    )


# --- one-way tests ----------------------------------------------------------


def _check_groups(groups: Sequence[Sequence[float]]) -> int:
    if len(groups) < 2:
        raise DomainError("need at least two groups")
    if any(len(g) == 0 for g in groups):
        raise DomainError("every group needs at least one value")
    n = sum(len(g) for g in groups)
    if n <= len(groups):
        raise DomainError("no within-group degrees of freedom")
    return n


def _within_groups(groups: Sequence[Sequence[float]]) -> Tuple[int, list[float], float]:
    # n, the group means and the within-group sum of squares
    n = _check_groups(groups)
    means = [_mean(g) for g in groups]
    ssw = math.fsum(math.fsum((v - m) ** 2 for v in g) for g, m in zip(groups, means))
    return n, means, ssw


def _f_test(ss1: float, df1: float, ss2: float, df2: float) -> Tuple[float, float]:
    # F = 0, p = 1 when the first mean square is 0; F = inf, p = 0 when only
    # the second is (f_tail is 0 at infinity)
    ms1, ms2 = ss1 / df1, ss2 / df2
    if ms1 == 0.0:
        return 0.0, 1.0
    f = ms1 / ms2 if ms2 else math.inf
    return f, f_tail(f, df1, df2)


def anova_oneway(groups: Sequence[Sequence[float]]) -> TestResult:
    """Classic one-way F test; F = 0, p = 1 when every group has the same mean."""
    n, means, ssw = _within_groups(groups)
    k = len(groups)
    grand = math.fsum(math.fsum(g) for g in groups) / n
    ssb = math.fsum(len(g) * (m - grand) ** 2 for g, m in zip(groups, means))
    df1, df2 = k - 1, n - k
    f_stat, p = _f_test(ssb, df1, ssw, df2)
    return TestResult(
        method=StatMethod.ANOVA_F, statistic=f_stat, df1=df1, df2=df2, p_value=p, n=n
    )


def kruskal_wallis(groups: Sequence[Sequence[float]]) -> TestResult:
    """Rank-based one-way test with midrank tie correction.

    When every observation is tied the ranks carry no information, so, as
    :func:`anova_oneway` does for equal means, H = 0 and p = 1.
    """
    n = _check_groups(groups)  # two or more groups forces n >= 3
    k = len(groups)
    pooled = [v for g in groups for v in g]
    ranks = mid_ranks(pooled)
    h = 0.0
    offset = 0
    for g in groups:
        r_sum = math.fsum(ranks[offset : offset + len(g)])
        h += r_sum * r_sum / len(g)
        offset += len(g)
    h = 12.0 / (n * (n + 1)) * h - 3.0 * (n + 1)

    correction = 1.0 - sum(t**3 - t for t in Counter(pooled).values()) / (n**3 - n)
    h = 0.0 if correction == 0.0 else max(h / correction, 0.0)
    return TestResult(
        method=StatMethod.KRUSKAL_WALLIS_H,
        statistic=h,
        df1=k - 1,
        df2=None,
        p_value=chi_square_tail(h, k - 1),
        n=n,
    )


# --- post-hoc letters -------------------------------------------------------

# upper 5% quantiles of the studentized range, k = 2..10 across the columns
_Q_DFS = (5.0, 10.0, 15.0, 20.0, 30.0, 60.0, 120.0, math.inf)
_Q_TABLE = {
    5.0: (3.635, 4.602, 5.218, 5.673, 6.033, 6.330, 6.582, 6.801, 6.995),
    10.0: (3.151, 3.877, 4.327, 4.654, 4.912, 5.124, 5.304, 5.460, 5.598),
    15.0: (3.014, 3.673, 4.076, 4.367, 4.595, 4.782, 4.940, 5.077, 5.198),
    20.0: (2.950, 3.578, 3.958, 4.232, 4.445, 4.620, 4.768, 4.895, 5.008),
    30.0: (2.888, 3.486, 3.845, 4.102, 4.301, 4.464, 4.601, 4.720, 4.824),
    60.0: (2.829, 3.399, 3.737, 3.977, 4.163, 4.314, 4.441, 4.550, 4.646),
    120.0: (2.800, 3.356, 3.685, 3.917, 4.096, 4.241, 4.363, 4.468, 4.560),
    math.inf: (2.772, 3.314, 3.633, 3.858, 4.030, 4.170, 4.286, 4.387, 4.474),
}


def studentized_range_q(k: int, df: float, alpha: float = 0.05) -> float:
    """Tabled q(alpha, k, df); alpha is fixed at 0.05, df interpolated on 1/df."""
    if alpha != 0.05:
        raise DomainError("only alpha = 0.05 is tabled")
    if k < 2 or k > 10:
        raise DomainError("k must be between 2 and 10")
    column = k - 2
    if df < _Q_DFS[0]:
        df = _Q_DFS[0]  # clamp; below five the table stops
    for lo, hi in zip(_Q_DFS, _Q_DFS[1:]):
        if lo <= df <= hi:
            q_lo = _Q_TABLE[lo][column]
            q_hi = _Q_TABLE[hi][column]
            u = 1.0 / df
            u_lo, u_hi = 1.0 / lo, (0.0 if math.isinf(hi) else 1.0 / hi)
            w = 0.0 if u_lo == u_hi else (u_lo - u) / (u_lo - u_hi)
            return q_lo + w * (q_hi - q_lo)
    return _Q_TABLE[math.inf][column]


def _letter_columns(k: int, different: set[tuple[int, int]]) -> list[set[int]]:
    # insert-and-absorb letter display over the "not different" relation
    columns: list[set[int]] = [set(range(k))]
    for i, j in sorted(different):
        updated: list[set[int]] = []
        for col in columns:
            if i in col and j in col:
                updated.append(col - {i})
                updated.append(col - {j})
            else:
                updated.append(col)
        absorbed: list[set[int]] = []
        for col in updated:
            if any(col <= kept for kept in absorbed):
                continue
            absorbed = [kept for kept in absorbed if not kept < col]
            absorbed.append(col)
        columns = absorbed
    return columns


def tukey_groups(groups: Sequence[Sequence[float]], alpha: float = 0.05) -> Tuple[str, ...]:
    """Tukey-Kramer pairwise comparisons summarized as shared letters.

    Returns one ascending letter string per group, in the order of ``groups``.
    The letter `a` goes to the highest-mean block, matching the usual
    reporting convention for these tables.
    """
    n, means, ssw = _within_groups(groups)
    k = len(groups)
    df_within = n - k
    msw = ssw / df_within
    q = studentized_range_q(k, df_within, alpha)

    different: set[tuple[int, int]] = set()
    for i in range(k):
        for j in range(i + 1, k):
            threshold = q * math.sqrt(msw / 2.0 * (1.0 / len(groups[i]) + 1.0 / len(groups[j])))
            if abs(means[i] - means[j]) > threshold:
                different.add((i, j))

    columns = _letter_columns(k, different)
    columns.sort(key=lambda col: (-max(means[i] for i in col), min(col)))
    letters = ["" for _ in range(k)]
    for letter_index, col in enumerate(columns):
        for i in col:
            letters[i] += chr(ord("a") + letter_index)
    return tuple(letters)  # each string is built in letter order


# --- principal components ---------------------------------------------------


def pca_unrotated(data) -> FactorResult:
    """Principal components of the Pearson correlation matrix, no rotation."""
    import numpy as np

    array = np.asarray(data, dtype=float)
    if array.ndim != 2:
        raise DomainError("data must be a two-dimensional matrix")
    n, p = array.shape
    if p < 2:
        raise DomainError("need at least two variables")
    if n <= p:
        raise DomainError("need more observations than variables")
    columns = [array[:, j] for j in range(p)]
    for j, col in enumerate(columns):
        if all(v == col[0] for v in col):
            raise DomainError(f"column {j} is constant")

    corr = np.eye(p)
    for i in range(p):
        for j in range(i + 1, p):
            corr[i, j] = corr[j, i] = _pearson(columns[i], columns[j])

    eigenvalues, vectors = np.linalg.eigh(corr)
    order = sorted(range(p), key=lambda i: -eigenvalues[i])
    eigenvalues = [float(eigenvalues[i]) for i in order]
    first = vectors[:, order[0]]
    lead = math.sqrt(max(eigenvalues[0], 0.0))
    loadings = [float(v * lead) for v in first]
    if loadings[max(range(p), key=lambda i: abs(loadings[i]))] < 0:
        loadings = [-v for v in loadings]
    return FactorResult(
        eigenvalues=tuple(eigenvalues),
        retained=sum(1 for v in eigenvalues if v > 1.0),
        loadings=tuple(loadings),
        communalities=tuple(v * v for v in loadings),
        variance_explained=eigenvalues[0] / p,
    )
