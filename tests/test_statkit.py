import math
import random

import numpy as np
import pytest
from hypothesis import given, settings, strategies as st
from scipy.stats import linregress, studentized_range

from citemetric.errors import DomainError
from citemetric.statkit import (
    StatMethod,
    anova_oneway,
    chi_square_tail,
    f_tail,
    kruskal_wallis,
    mid_ranks,
    ols_fit,
    pca_unrotated,
    regularized_gamma_upper,
    regularized_incomplete_beta,
    spearman,
    student_t_tail,
    studentized_range_q,
    tukey_groups,
)
from oracles import (
    anova_f_reference,
    equicorrelated_columns,
    exact_permutation_pvalue,
    exact_permutation_pvalue_loop,
    spearman_r_reference,
)


# --- ranks -------------------------------------------------------------------


def test_mid_ranks_strictly_increasing():
    assert mid_ranks([10, 20, 30]) == [1, 2, 3]


def test_mid_ranks_with_ties():
    assert mid_ranks([1, 2, 2, 4]) == [1, 2.5, 2.5, 4]


def test_mid_ranks_all_tied():
    assert mid_ranks([5, 5, 5]) == [2, 2, 2]


@given(st.lists(st.integers(min_value=-20, max_value=20), min_size=1, max_size=200))
def test_mid_ranks_sum_is_exact(values):
    n = len(values)
    assert math.fsum(mid_ranks(values)) == n * (n + 1) / 2


# --- order independence ----------------------------------------------------------


def test_anova_is_bit_identical_under_shuffled_input():
    rng = random.Random(5)
    groups = []
    for _ in range(3):
        # wide magnitudes that cancel down to one value: order-dependent for
        # anything short of a correctly rounded sum
        xs = [rng.gauss(0, 1) * 2.0 ** rng.randint(-30, 60) for _ in range(100)]
        groups.append(xs + [-x for x in xs[:-1]])
    result = anova_oneway(groups)
    for _ in range(5):
        for group in groups:
            rng.shuffle(group)
        assert anova_oneway(groups) == result


# --- spearman -------------------------------------------------------------------


def test_spearman_identity_and_reverse():
    assert spearman([1, 2, 3], [1, 2, 3]).r == pytest.approx(1.0)
    assert spearman([1, 2, 3], [3, 2, 1]).r == pytest.approx(-1.0)
    assert spearman([1, 2, 3], [1, 2, 3]).p_value == 0.0


def test_spearman_with_ties_matches_hand_value():
    result = spearman([1, 2, 2, 4], [10, 20, 20, 15])
    assert result.r == pytest.approx(1 / 3, abs=1e-12)
    assert result.n == 4


def test_spearman_matches_reference_on_random_tied_data():
    rng = random.Random(41)
    for _ in range(200):
        n = rng.randint(3, 50)
        x = [rng.randint(0, 8) for _ in range(n)]
        y = [rng.randint(0, 8) for _ in range(n)]
        try:
            ours = spearman(x, y)
        except DomainError:
            assert len(set(x)) == 1 or len(set(y)) == 1
            continue
        assert ours.r == pytest.approx(spearman_r_reference(x, y), abs=1e-12)


def test_spearman_invariant_under_monotone_transform():
    rng = random.Random(42)
    x = [rng.uniform(0, 5) for _ in range(30)]
    y = [rng.uniform(0, 5) for _ in range(30)]
    base = spearman(x, y)
    transformed = spearman([math.exp(v) for v in x], y)
    assert transformed.r == pytest.approx(base.r, abs=1e-12)
    assert transformed.p_value == pytest.approx(base.p_value, abs=1e-12)


def test_spearman_errors():
    with pytest.raises(DomainError, match="lengths differ: 3 vs 2"):
        spearman([1, 2, 3], [1, 2])
    with pytest.raises(DomainError, match="constant input leaves the correlation undefined"):
        spearman([1, 1, 1], [1, 2, 3])
    with pytest.raises(DomainError):
        spearman([1, 2], [1, 2])


def _c02_small_samples():
    """The n = 7 samples test_acceptance.test_c02_spearman_oracle draws,
    replayed from its seed."""
    rng = random.Random(202)
    checked = 0
    while checked < 500:
        n = rng.randint(3, 50)
        x = [rng.randint(0, 9) for _ in range(n)]
        y = [rng.randint(0, 9) for _ in range(n)]
        if len(set(x)) > 1 and len(set(y)) > 1:
            checked += 1
    for _ in range(10):
        x = [rng.randint(0, 5) for _ in range(7)]
        y = [rng.randint(0, 5) for _ in range(7)]
        if len(set(x)) > 1 and len(set(y)) > 1:
            yield x, y


@pytest.mark.parametrize("x, y", list(_c02_small_samples()))
def test_exact_permutation_pvalue_equals_its_loop_on_the_c02_samples(x, y):
    assert exact_permutation_pvalue(x, y) == exact_permutation_pvalue_loop(x, y)


@pytest.mark.parametrize(
    "call, says",
    [
        (lambda: mid_ranks([]), "cannot rank an empty sequence"),
        (lambda: ols_fit([1.0, 2, 3], []), "need at least one predictor"),
        (lambda: anova_oneway([[1.0, 2.0], []]), "every group needs at least one value"),
        (lambda: pca_unrotated([1.0, 2, 3]), "data must be a two-dimensional matrix"),
        (lambda: regularized_incomplete_beta(0, 1, 0.5), "beta parameters must be positive"),
        (lambda: regularized_incomplete_beta(1, 1, 1.5), r"x must lie in \[0, 1\]"),
        (lambda: regularized_gamma_upper(0, 1), "shape parameter must be positive"),
        (lambda: regularized_gamma_upper(1, -1), "x must be non-negative"),
    ],
    ids=["mid_ranks", "ols_fit", "anova", "pca", "beta_a", "beta_x", "gamma_s", "gamma_x"],
)
def test_arguments_outside_the_domain_raise(call, says):
    with pytest.raises(DomainError, match=says):
        call()


_NON_FINITE_CALLS = {
    "anova": lambda v: anova_oneway([[v, 1.0], [2.0, 3.0]]),
    "kruskal": lambda v: kruskal_wallis([[1.0, 2.0], [3.0, v]]),
    "tukey": lambda v: tukey_groups([[1.0, 2.0], [v, 4.0]]),
    "spearman_x": lambda v: spearman([1.0, v, 3.0, 4.0], [1.0, 2.0, 3.0, 4.0]),
    "spearman_y": lambda v: spearman([1.0, 2.0, 3.0, 4.0], [1.0, 2.0, 3.0, v]),
    "ols_response": lambda v: ols_fit([1.0, 3.0, v, 4.0, 6.0], [[1.0, 2.0, 3.0, 4.0, 5.0]]),
    "ols_predictor": lambda v: ols_fit([1.0, 3.0, 2.0, 4.0, 6.0], [[1.0, 2.0, 3.0, v, 5.0]]),
    "pca": lambda v: pca_unrotated([[1.0, 2.0], [2.0, v], [3.0, 1.0], [4.0, 5.0]]),
}


@pytest.mark.parametrize("value", [math.nan, math.inf, -math.inf], ids=["nan", "inf", "-inf"])
@pytest.mark.parametrize("call", _NON_FINITE_CALLS.values(), ids=_NON_FINITE_CALLS.keys())
def test_an_observation_that_is_not_finite_raises(call, value):
    """A NaN or an infinity gave a statistic with p = 0, NaN coefficients, or
    numpy's LinAlgError; it is a one-line domain error at every entry point."""
    with pytest.raises(DomainError, match=r"^observations must be finite$"):
        call(value)


# --- tail probabilities ----------------------------------------------------------


def test_chi_square_tail_analytic_two_df():
    # with two degrees of freedom the survival function is exp(-x / 2)
    assert chi_square_tail(7.2, 2) == pytest.approx(math.exp(-3.6), abs=1e-12)


def test_tails_at_the_ends_of_their_range():
    # 1e200 squares to inf and 5e-324 halves to 0, so these reach the x = 0
    # branches of the regularized beta and gamma functions behind the tails
    assert student_t_tail(1e200, 3) == 0.0
    assert chi_square_tail(5e-324, 2) == 1.0
    assert (student_t_tail(math.inf, 3), student_t_tail(-math.inf, 3)) == (0.0, 1.0)
    assert chi_square_tail(math.inf, 2) == 0.0


def test_f_tail_equals_two_sided_t():
    for d in (2, 10, 100):
        for x in (0.1, 1.0, 4.0, 16.0):
            assert f_tail(x, 1, d) == pytest.approx(
                2 * student_t_tail(math.sqrt(x), d), abs=1e-12
            )


def test_tail_edges():
    assert chi_square_tail(0.0, 3) == 1.0
    assert f_tail(0.0, 2, 7) == 1.0
    assert student_t_tail(0.0, 9) == pytest.approx(0.5)
    for tail, args in ((student_t_tail, (-1,)), (f_tail, (2, -1)), (chi_square_tail, (0,))):
        with pytest.raises(DomainError):
            tail(1.0, *args)


def test_tails_are_monotone_non_increasing():
    xs = [0.0, 0.5, 1.0, 2.0, 5.0, 10.0]
    tails = (
        lambda x: student_t_tail(x, 7),
        lambda x: f_tail(x, 3, 12),
        lambda x: chi_square_tail(x, 4),
    )
    for tail in tails:
        values = [tail(x) for x in xs]
        assert all(b <= a for a, b in zip(values, values[1:]))
        assert all(0.0 <= v <= 1.0 for v in values)


def test_t_tail_symmetry():
    assert student_t_tail(-1.5, 8) == pytest.approx(1 - student_t_tail(1.5, 8), abs=1e-12)


def test_tails_match_scipy():
    from scipy import stats

    assert student_t_tail(1.7, 13) == pytest.approx(stats.t.sf(1.7, 13), abs=1e-12)
    assert f_tail(2.6, 3, 40) == pytest.approx(stats.f.sf(2.6, 3, 40), abs=1e-12)
    assert chi_square_tail(11.3, 5) == pytest.approx(stats.chi2.sf(11.3, 5), abs=1e-12)


# the literals are the values' reprs, one per branch of the special functions
# and the one-way tests; ols_fit is left out because its bits follow the BLAS
PINNED_BITS = [
    # x below (a + 1) / (a + b + 2): the fraction runs on (a, b, x)
    (regularized_incomplete_beta, (2.5, 4.0, 0.2), 0.1638590613911841),
    # x above it: the fraction runs on (b, a, 1 - x)
    (regularized_incomplete_beta, (2.5, 4.0, 0.7), 0.9514994588636263),
    # x below s + 1: the lower series
    (regularized_gamma_upper, (3.0, 1.5), 0.8088468305380582),
    # x at or above s + 1: the upper fraction
    (regularized_gamma_upper, (3.0, 7.5), 0.020256715056664397),
    (student_t_tail, (1.7, 13), 0.05645789531486982),
    (student_t_tail, (-0.4, 5), 0.6471634425834427),
    (f_tail, (2.6, 3, 40), 0.0654190969374262),
    (chi_square_tail, (11.3, 5), 0.04574583257311161),
]


@pytest.mark.parametrize("function,args,expected", PINNED_BITS)
def test_special_functions_keep_their_bits(function, args, expected):
    assert repr(function(*args)) == repr(expected)


@pytest.mark.parametrize(
    "test,groups,statistic,p_value",
    [
        (
            anova_oneway,
            [[4.1, 5.3, 6.0, 5.5], [7.2, 8.1, 6.9], [5.0, 4.4, 5.9, 6.1, 4.8]],
            9.781561889083235,
            0.00553306323942501,
        ),
        (
            kruskal_wallis,
            [[1, 3, 3, 7], [2, 5, 8, 8, 9], [3, 4, 6]],
            2.7245551601423466,
            0.25607687667514223,
        ),
    ],
)
def test_one_way_tests_keep_their_bits(test, groups, statistic, p_value):
    result = test(groups)
    assert (repr(result.statistic), repr(result.p_value)) == (repr(statistic), repr(p_value))


# --- least squares ----------------------------------------------------------------


REFERENCE_EQUATIONS = [
    (0.133, 0.717, 0.204),
    (0.086, 0.539, 0.361),
    (0.241, 0.528, 0.248),
    (0.126, 0.46, 0.254),
]


def _grid(n=20):
    x1 = [0.1 + 0.15 * i for i in range(n)]
    x2 = [((i * 7) % n) / 2.0 for i in range(n)]
    return x1, x2


@pytest.mark.parametrize("b0,b1,b2", REFERENCE_EQUATIONS)
def test_ols_recovers_noiseless_coefficients(b0, b1, b2):
    x1, x2 = _grid()
    y = [b0 + b1 * a + b2 * b for a, b in zip(x1, x2)]
    result = ols_fit(y, [x1, x2])
    assert result.coefficients[0] == pytest.approx(b0, abs=1e-9)
    assert result.coefficients[1] == pytest.approx(b1, abs=1e-9)
    assert result.coefficients[2] == pytest.approx(b2, abs=1e-9)
    assert result.r2 == pytest.approx(1.0, abs=1e-9)
    assert result.r2_adjusted == pytest.approx(1.0, abs=1e-9)


def test_ols_sequential_ss_decomposition_on_noisy_data():
    rng = random.Random(12)
    for _ in range(25):
        n = rng.randint(8, 40)
        x1 = [rng.uniform(0, 3) for _ in range(n)]
        x2 = [rng.uniform(0, 200) for _ in range(n)]
        y = [0.2 + 0.7 * a + 0.01 * b + rng.gauss(0, 0.3) for a, b in zip(x1, x2)]
        result = ols_fit(y, [x1, x2])
        ybar = sum(y) / n
        tss = sum((v - ybar) ** 2 for v in y)
        total = sum(result.sequential_ss) + result.residual_ss
        assert total == pytest.approx(tss, rel=1e-9)
        # permuted predictors: same fit, different attribution
        permuted = ols_fit(y, [x2, x1])
        assert permuted.coefficients[0] == pytest.approx(result.coefficients[0], abs=1e-9)
        assert permuted.coefficients[1] == pytest.approx(result.coefficients[2], abs=1e-9)
        assert permuted.coefficients[2] == pytest.approx(result.coefficients[1], abs=1e-9)
        assert permuted.r2 == pytest.approx(result.r2, abs=1e-9)
        assert permuted.f == pytest.approx(result.f, rel=1e-9)


def test_ols_matches_numpy_lstsq():
    rng = random.Random(9)
    n = 30
    x1 = [rng.uniform(0, 3) for _ in range(n)]
    x2 = [rng.uniform(0, 9) for _ in range(n)]
    y = [1.0 + 0.5 * a - 0.25 * b + rng.gauss(0, 1) for a, b in zip(x1, x2)]
    result = ols_fit(y, [x1, x2])
    design = np.column_stack([np.ones(n), x1, x2])
    expected, *_ = np.linalg.lstsq(design, np.asarray(y), rcond=None)
    assert np.allclose(result.coefficients, expected, atol=1e-10)


def test_ols_constant_response_has_zero_slopes():
    x1, x2 = _grid(12)
    result = ols_fit([2.5] * 12, [x1, x2])
    assert result.coefficients[1] == pytest.approx(0.0, abs=1e-9)
    assert result.coefficients[2] == pytest.approx(0.0, abs=1e-9)
    assert result.r2 == 0.0
    assert result.f == 0.0


def test_ols_vif_at_least_one_and_high_for_collinear():
    x1, x2 = _grid(16)
    y = [0.1 + a + b for a, b in zip(x1, x2)]
    result = ols_fit(y, [x1, x2])
    assert all(v >= 1.0 for v in result.vif)
    near = [a + 1e-8 * b for a, b in zip(x1, x2)]
    inflated = ols_fit(y, [x1, near])
    assert max(inflated.vif) > 100


def test_ols_with_one_predictor_matches_linregress():
    rng = random.Random(4)
    n = 25
    x = [rng.uniform(0, 5) for _ in range(n)]
    y = [0.3 + 0.4 * v + rng.gauss(0, 1) for v in x]
    result = ols_fit(y, [x])
    assert result.vif == (1.0,)
    ybar = sum(y) / n
    tss = sum((v - ybar) ** 2 for v in y)
    assert result.sequential_ss[0] + result.residual_ss == pytest.approx(tss, rel=1e-9)
    expected = linregress(x, y)
    assert result.coefficients == pytest.approx((expected.intercept, expected.slope), rel=1e-9)
    # with one predictor the F test is the slope's t test
    assert result.f_p_value == pytest.approx(expected.pvalue, rel=1e-6)


def test_ols_rank_deficient_design_raises():
    x1, _ = _grid(10)
    with pytest.raises(DomainError, match="design matrix is numerically singular"):
        ols_fit(list(range(10)), [x1, x1])
    with pytest.raises(DomainError, match="design matrix is numerically singular"):
        ols_fit(list(range(10)), [[3.0] * 10])  # constant column folds into the intercept


def test_ols_input_validation():
    with pytest.raises(DomainError, match="predictor length differs from response length"):
        ols_fit([1, 2, 3], [[1, 2]])
    with pytest.raises(DomainError):
        ols_fit([1, 2, 3], [[1, 2, 3], [3, 2, 1]])  # n must exceed p + 1


# --- one-way tests ------------------------------------------------------------------


def test_anova_zero_between_group_variance():
    result = anova_oneway([[1, 3], [2, 2], [1, 3]])
    assert result.statistic == 0.0
    assert result.p_value == 1.0


def test_anova_identical_groups():
    result = anova_oneway([[1, 2, 3], [1, 2, 3]])
    assert result.statistic == 0.0
    assert result.p_value == 1.0


def test_anova_hand_decomposition():
    groups = [[1, 2, 3], [4, 5, 6], [7, 8, 9]]
    result = anova_oneway(groups)
    assert result.statistic == pytest.approx(27.0, abs=1e-12)
    assert result.statistic == pytest.approx(anova_f_reference(groups), abs=1e-12)
    assert result.df1 == 2 and result.df2 == 6 and result.n == 9
    assert result.method is StatMethod.ANOVA_F


def test_anova_requires_two_groups():
    with pytest.raises(DomainError, match="need at least two groups"):
        anova_oneway([[1, 2, 3]])
    with pytest.raises(DomainError, match="no within-group degrees of freedom"):
        anova_oneway([[1], [2]])


def test_kruskal_wallis_hand_value():
    result = kruskal_wallis([[1, 2, 3], [4, 5, 6], [7, 8, 9]])
    assert result.statistic == pytest.approx(7.2, abs=1e-12)
    assert result.df1 == 2
    assert result.df2 is None
    assert result.n == 9
    assert result.p_value == pytest.approx(math.exp(-3.6), abs=1e-9)


def test_kruskal_wallis_identical_groups():
    result = kruskal_wallis([[1, 2, 3], [1, 2, 3]])
    assert result.statistic == pytest.approx(0.0, abs=1e-12)


def test_kruskal_wallis_invariant_under_monotone_transform():
    rng = random.Random(2)
    groups = [[rng.uniform(0, 4) for _ in range(rng.randint(3, 9))] for _ in range(3)]
    base = kruskal_wallis(groups)
    transformed = kruskal_wallis([[math.exp(v) for v in g] for g in groups])
    assert transformed.statistic == pytest.approx(base.statistic, abs=1e-10)


def test_kruskal_wallis_all_tied_gives_zero_statistic():
    # no rank information: the anova_oneway convention for equal means
    result = kruskal_wallis([[2, 2], [2, 2, 2]])
    assert result.statistic == 0.0
    assert result.p_value == 1.0
    assert result.df1 == 1 and result.n == 5


def test_kruskal_wallis_matches_scipy():
    from scipy import stats

    rng = random.Random(8)
    for _ in range(20):
        groups = [
            [rng.randint(0, 12) for _ in range(rng.randint(3, 10))] for _ in range(rng.randint(2, 5))
        ]
        if len({v for g in groups for v in g}) == 1:
            continue  # every value equal: scipy gives NaN, covered above
        ours = kruskal_wallis(groups)
        h, p = stats.kruskal(*groups)
        assert ours.statistic == pytest.approx(h, abs=1e-10)
        assert ours.p_value == pytest.approx(p, abs=1e-10)


# --- post-hoc letters -----------------------------------------------------------------


def test_q_table_matches_scipy_nodes():
    for df in (5, 10, 15, 20, 30, 60, 120):
        for k in range(2, 11):
            expected = float(studentized_range.ppf(0.95, k, df))
            assert studentized_range_q(k, df) == pytest.approx(expected, abs=5e-3)


def test_q_interpolates_between_tabled_dfs():
    q36 = studentized_range_q(4, 36)
    assert studentized_range_q(4, 30) > q36 > studentized_range_q(4, 60)


def test_tukey_identical_groups_share_a_letter():
    assert tukey_groups([[1.0, 2.0, 3.0], [1.0, 2.0, 3.0]]) == ("a", "a")


def test_tukey_well_separated_groups_get_distinct_letters():
    offsets = [(-4.5 + i) / 10 for i in range(10)]
    data = [[m + o for o in offsets] for m in (0.0, 100.0, 200.0)]
    letters = tukey_groups(data)
    assert sorted(letters) == ["a", "b", "c"]


def test_tukey_two_high_two_low_pattern():
    offsets = [(-4.5 + i) / 100 for i in range(10)]
    data = [[m + o for o in offsets] for m in (3.00, 2.99, 1.00, 0.99)]
    assert tukey_groups(data) == ("a", "a", "b", "b")


def test_tukey_letters_cover_every_group():
    rng = random.Random(6)
    for _ in range(20):
        k = rng.randint(2, 5)
        data = [[rng.gauss(rng.uniform(0, 3), 1) for _ in range(rng.randint(3, 8))] for _ in range(k)]
        letters = tukey_groups(data)
        assert len(letters) == k and all(letters)


# --- principal components ----------------------------------------------------------------


def test_pca_identical_columns():
    rows = [[v, v, v] for v in [1.0, 2.0, 4.0, 8.0, 9.0]]
    result = pca_unrotated(rows)
    assert result.eigenvalues[0] == pytest.approx(3.0, abs=1e-9)
    assert result.eigenvalues[1] == pytest.approx(0.0, abs=1e-9)
    assert result.variance_explained == pytest.approx(1.0, abs=1e-9)
    assert result.retained == 1


def test_pca_equicorrelation_analytic_structure():
    result = pca_unrotated(equicorrelated_columns())
    assert result.eigenvalues[0] == pytest.approx(2.8, abs=1e-9)
    assert sum(result.eigenvalues) == pytest.approx(3.0, abs=1e-9)
    for loading, communality in zip(result.loadings, result.communalities):
        assert loading == pytest.approx(math.sqrt(2.8 / 3), abs=1e-9)
        assert communality == pytest.approx(2.8 / 3, abs=1e-9)
    assert result.retained == 1
    assert result.variance_explained == pytest.approx(2.8 / 3, abs=1e-9)


def test_pca_eigen_sum_and_nonnegativity_on_random_data():
    rng = random.Random(77)
    for _ in range(10):
        n, p = rng.randint(6, 30), rng.randint(2, 5)
        if n <= p:
            n = p + 3
        rows = [[rng.gauss(0, 1) for _ in range(p)] for _ in range(n)]
        result = pca_unrotated(rows)
        assert sum(result.eigenvalues) == pytest.approx(p, abs=1e-9)
        assert all(v >= -1e-10 for v in result.eigenvalues)
        assert all(-1.0 - 1e-12 <= l <= 1.0 + 1e-12 for l in result.loadings)


@settings(deadline=None)
@given(
    seed=st.integers(0, 2**32 - 1),
    n=st.integers(8, 60),
    p=st.sampled_from([3, 5]),
)
def test_pca_loadings_satisfy_the_eigen_equation(seed, n, p):
    rng = np.random.default_rng(seed)
    data = rng.standard_normal((n, p)) @ rng.standard_normal((p, p))
    result = pca_unrotated(data)
    corr = np.corrcoef(data, rowvar=False)
    loadings = np.array(result.loadings)
    residual = corr @ loadings - result.eigenvalues[0] * loadings
    assert np.max(np.abs(residual)) <= 1e-12


def test_pca_rejects_constant_column_and_bad_shapes():
    with pytest.raises(DomainError, match="column 1 is constant"):
        pca_unrotated([[1.0, 5.0], [2.0, 5.0], [3.0, 5.0]])
    with pytest.raises(DomainError):
        pca_unrotated([[1.0, 2.0], [2.0, 1.0]])  # n must exceed p
    with pytest.raises(DomainError):
        pca_unrotated([[1.0], [2.0], [3.0]])  # p must be at least 2


def test_pca_kaiser_retention_counts_eigenvalues_above_one():
    result = pca_unrotated(equicorrelated_columns())
    assert result.retained == sum(1 for v in result.eigenvalues if v > 1.0)
