import math

import pytest

from fdrelay.analytic import regularized_lower_gamma_int


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
