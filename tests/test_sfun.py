import math

import mpmath
import numpy as np
import pytest
from hypothesis import example, given, strategies as st
from numpy.testing import assert_allclose
from scipy.integrate import quad

from fdrelay.analytic import _gap_sum, _top_down_sum, regularized_lower_gamma_int


def lower_gamma(n, x):
    # unregularized gamma(n, x) = (n-1)! P(n, x), the form the oracles give
    return math.factorial(n - 1) * regularized_lower_gamma_int(n, x)


def gamma_quad(n, x):
    # independent oracle: adaptive quadrature of the defining integral
    val, err = quad(lambda t: t ** (n - 1) * math.exp(-t), 0.0, x,
                    epsabs=1e-13, epsrel=1e-13)
    return val


def test_lower_gamma_frozen_values():
    assert_allclose(lower_gamma(1, 1.0),
                    0.63212055882855768, rtol=1e-14)
    assert lower_gamma(3, 0.0) == 0.0
    assert_allclose(lower_gamma(3, 2.0),
                    0.64664716763387308, rtol=1e-14)


def test_lower_gamma_matches_quadrature():
    xs = np.linspace(0.0, 40.0, 46)
    for n in range(1, 13):
        for x in xs:
            want = gamma_quad(n, float(x))
            got = lower_gamma(n, float(x))
            assert math.isclose(got, want, rel_tol=1e-10, abs_tol=1e-13), (n, x)


def test_lower_gamma_rejects_nonpositive_order():
    # the one integer rule: a float order is never truncated, a bool is no count
    for n, x in ((0, 1.0), (-2, 1.0), (2.5, 5.0), (2.5, 1.0), (True, 1.0)):
        with pytest.raises(ValueError, match=f"order n must be a positive integer, got {n!r}"):
            regularized_lower_gamma_int(n, x)


def test_lower_gamma_rejects_non_finite_argument():
    for x in (float("nan"), float("inf"), float("-inf")):
        with pytest.raises(ValueError, match="x must be a finite non-negative real number"):
            regularized_lower_gamma_int(3, x)


def test_lower_gamma_rejects_negative_argument():
    with pytest.raises(ValueError, match="non-negative"):
        regularized_lower_gamma_int(3, -0.5)


def test_lower_gamma_tiny_argument_terminates():
    # the leading tail term is subnormal or zero here, so a stop test
    # relative to it alone never holds
    x = 2.87574887791883e-05
    want = math.exp(-x) * x ** 52 / math.factorial(52) * (1 + x / 53 + x * x / (53 * 54))
    assert math.isclose(regularized_lower_gamma_int(52, x), want, rel_tol=1e-12)
    assert regularized_lower_gamma_int(64, 1e-6) == 0.0


def test_lower_gamma_saturates_where_partial_sum_overflows():
    # x^63/63! overflows beyond x ~ 2e6, where P(64, x) is 1 to double precision
    for x in (2e6, 1e7, 1e300):
        assert regularized_lower_gamma_int(64, x) == 1.0


@given(st.integers(1, 64), st.floats(0.0, 1e8))
@example(52, 2.87574887791883e-05)
@example(64, 1e-6)
@example(64, 5e-324)
@example(64, 3e6)
def test_lower_gamma_in_unit_interval(n, x):
    p = regularized_lower_gamma_int(n, x)
    assert math.isfinite(p) and 0.0 <= p <= 1.0


def test_lower_gamma_monotone_and_saturates():
    for n in (1, 2, 5, 12):
        xs = np.linspace(0.0, 30.0, 301)
        vals = [lower_gamma(n, float(x)) for x in xs]
        assert all(b >= a for a, b in zip(vals, vals[1:]))
        assert math.isclose(lower_gamma(n, 50.0 * n),
                            math.factorial(n - 1), rel_tol=1e-10)


def test_regularized_variant_scaling():
    # P(n+1, x) = P(n, x) - x^n e^{-x} / n!, across both evaluation branches
    for n in (1, 4, 9):
        for x in (0.3, 7.5):
            want = (regularized_lower_gamma_int(n, x)
                    - x ** n * math.exp(-x) / math.factorial(n))
            assert_allclose(regularized_lower_gamma_int(n + 1, x), want, rtol=1e-13)


def test_erlang_cdf_values():
    # the CDF of k summed exponentials of mean scale is P(k, x/scale)
    assert_allclose(regularized_lower_gamma_int(1, 2.0 / 2.0), 0.63212055882855768,
                    rtol=1e-14)
    assert regularized_lower_gamma_int(2, 0.0 / 1.0) == 0.0
    assert_allclose(regularized_lower_gamma_int(3, 2.0 / 1.0), 0.32332358381693654,
                    rtol=1e-14)


def test_erlang_cdf_against_summed_exponentials():
    # empirical CDF of k summed exponentials vs the closed form (KS distance)
    k, scale, n = 3, 2.0, 1_000_000
    rng = np.random.default_rng(2024)
    samples = rng.exponential(scale, size=(n, k)).sum(axis=1)
    samples.sort()
    model = np.array([regularized_lower_gamma_int(k, x / scale) for x in samples.tolist()])
    empirical_hi = np.arange(1, n + 1) / n
    empirical_lo = np.arange(0, n) / n
    ks = max(np.abs(empirical_hi - model).max(),
             np.abs(empirical_lo - model).max())
    assert ks < 0.002


@pytest.mark.parametrize("n", (1, 2, 3, 5, 10, 16, 32, 64))
def test_lower_gamma_from_n_on_matches_mpmath(n):
    # the complement branch, whose top-down sum stops once its tail is negligible
    xs = [float(n), math.nextafter(n, math.inf), n + 0.5]
    xs += (n * np.geomspace(1.01, 1e4, 60)).tolist() + [2e6]
    for x in xs:
        with mpmath.workdps(40):
            want = mpmath.gammainc(n, 0, mpmath.mpf(x), regularized=True)
        got = regularized_lower_gamma_int(n, x)
        assert float(abs(got - want) / want) <= 1e-13, (n, x, got)


def test_early_stopped_sums_match_every_term_summed_exactly():
    # the early stop leaves out at most 2**-54 of a sum, well inside the
    # rounding of the terms it adds (at most 6 units of 2**-53 on this grid);
    # the terms are positive (x > 0), or of falling size and alternating sign
    # (x < 0)
    bound = 16 * 2.0 ** -53
    for n in (1, 2, 5, 17, 64):
        for x in (n, n + 1e-9, 1.5 * n, 10.0 * n, 1e4 * n, 1e300):
            for sign in (1, -1):
                with mpmath.workdps(60):
                    want = mpmath.fsum(mpmath.ff(n, i) * mpmath.mpf(sign * x) ** -i
                                       for i in range(1, n + 1))
                got = _top_down_sum(n, sign * x)
                assert float(abs(got - want) / abs(want)) <= bound, (n, sign * x)
            v = 1.75 * x
            with mpmath.workdps(60):
                want = mpmath.fsum(mpmath.ff(n, i) * (mpmath.mpf(x) ** -i - mpmath.mpf(v) ** -i)
                                   for i in range(1, n + 1))
            got = _gap_sum(n, x, v, (v - x) / v)
            assert float(abs(got - want) / want) <= bound, (n, x)
