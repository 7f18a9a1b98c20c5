"""Special functions and the uniform-to-channel-gain map shared by the outage models."""

from __future__ import annotations

import math

import numpy as np

__all__ = [
    "abs2",
    "kummer_j",
    "poisson_pmf",
    "regularized_lower_gamma_int",
    "gains_from_uniforms",
]


def abs2(z):
    """Squared magnitude computed as re^2 + im^2, scalar or ndarray."""
    return z.real * z.real + z.imag * z.imag


def poisson_pmf(n: int, x: float) -> float:
    """e^{-x} x^n/n! for x > 0, weighted in log space so no factor overflows."""
    return math.exp(n * math.log(x) - x - math.lgamma(n + 1))


def _top_down_sum(n: int, x: float) -> float:
    # sum_{i=1}^{n} n!/(n-i)! x^{-i} for |x| >= n, from n/x down by factors (n-i)/x
    t = total = n / x
    for i in range(1, n):
        t *= (n - i) / x
        total += t
    return total


def kummer_j(n: int, x: float) -> float:
    """J_n(x) = 1F1(1; n+1; x) = sum_{k>=0} x^k/((n+1)...(n+k)) (DLMF 13.2.2), x < n.

    For |x| < n the series terms shrink by |x|/(n+k) < 1; for x <= -n it is
    n! x^{-n} (e^x - sum_{m<n} x^m/m!), the polynomial summed from the top
    term down.  Past x = n, J_n grows like e^x and P(n, x) covers the range.
    """
    if x <= -n:
        lead = math.exp(math.lgamma(n + 1) - n * math.log(-x) + x)
        return (-lead if n % 2 else lead) - _top_down_sum(n, x)
    t = total = 1.0
    k = n + 1
    while abs(t) > 1e-17 * total:  # t underflows to 0.0 at the latest
        t *= x / k
        total += t
        k += 1
    return total


def regularized_lower_gamma_int(n: int, x: float) -> float:
    """P(n, x) = gamma(n, x)/(n-1)! for integer n >= 1 and finite x >= 0.

    Below x = n it is Pois(x; n) J_n(x) (DLMF 8.7.1), positive factors that
    stay accurate where P is tiny; from x = n on, the complement
    1 - Pois(x; n) sum_{i=1}^{n} n!/(n-i)! x^{-i} (DLMF 8.4.10), whose
    subtrahend is below 1/2.  Neither form overflows at any finite x.
    """
    if n < 1:
        raise ValueError("order n must be a positive integer")
    if not (math.isfinite(x) and x >= 0.0):
        raise ValueError(f"x must be a finite non-negative real number, got {x!r}")
    if x == 0.0:
        return 0.0
    if x < n:
        return poisson_pmf(n, x) * kummer_j(n, x)
    return 1.0 - poisson_pmf(n, x) * _top_down_sum(n, x)


def gains_from_uniforms(power, u1):
    """CN(0, variance) draws by the polar method from uniform pairs (u0, u1).

    power = -variance*log(1-u0) is |h|^2, exponential with mean variance, and
    the phase 2*pi*u1 is uniform, which together give the circularly
    symmetric complex Gaussian (independent re/im parts of variance/2 each).
    u0 and u1 sit in the same slot of a trial's power and phase planes
    (channel.draw_realization).
    """
    mag = np.sqrt(power)
    ang = (2.0 * np.pi) * u1
    return mag * np.cos(ang) + 1j * (mag * np.sin(ang))
