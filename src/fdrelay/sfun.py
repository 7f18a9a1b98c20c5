"""Special functions and the uniform-to-channel-gain map shared by the outage models."""

from __future__ import annotations

import math

import numpy as np

__all__ = [
    "abs2",
    "regularized_lower_gamma_int",
    "gains_from_uniforms",
]


def abs2(z, out=None):
    """Squared magnitude computed as re^2 + im^2, scalar or ndarray; out, a real
    array shaped like z, receives it with im^2 added 32 rows at a time, so no
    temporary exceeds 32 rows."""
    if out is None:
        return z.real * z.real + z.imag * z.imag
    np.multiply(z.real, z.real, out=out)
    for i in range(0, len(z), 32):
        out[i:i + 32] += z.imag[i:i + 32] * z.imag[i:i + 32]
    return out


def _poisson_partial_sum(n: int, x: float) -> float:
    # sum_{m<n} x^m/m!; fsum keeps full precision when x < 0 flips term signs
    terms = []
    t = 1.0
    for m in range(n):
        if m:
            t *= x / m
        terms.append(t)
    return math.fsum(terms)


def regularized_lower_gamma_int(n: int, x: float) -> float:
    """P(n, x) = gamma(n, x)/(n-1)! for integer n >= 1, any real x.

    For |x| < n the value can be tiny, so it is computed as the Poisson tail
    e^{-x} sum_{m>=n} x^m/m! (an identity for all real x), whose leading
    term dominates; the complementary finite form 1 - e^{-x} sum_{m<n} x^m/m!
    cancels catastrophically there.  For |x| >= n the result is of order one
    or larger and the complementary form is the accurate one.  Negative-x
    precision degrades slowly once x goes far below about -30 because e^{-x}
    amplifies the summation residual, and the exponential overflows near
    x = -700.
    """
    if n < 1:
        raise ValueError("order n must be a positive integer")
    if not math.isfinite(x):
        raise ValueError("x must be finite")
    if abs(x) >= n:
        partial = _poisson_partial_sum(n, x)
        # x^m/m! overflows beyond x ~ 2e6 at n = 64, where P(n, x) is 1 in doubles
        return 1.0 if x > 0.0 and not math.isfinite(partial) else 1.0 - math.exp(-x) * partial
    if x == 0.0:
        return 0.0
    t = math.exp(-x)
    for m in range(1, n):
        t *= x / m
    # t = e^{-x} x^{n-1}/(n-1)!; tail terms from m = n on shrink by |x|/m < 1
    terms = []
    m = n
    while True:
        t *= x / m
        terms.append(t)
        m += 1
        # t == 0.0 once the terms underflow, where the relative test never holds
        if t == 0.0 or abs(t) < 1e-20 * abs(terms[0]):
            break
    total = math.fsum(terms)
    return min(1.0, total) if x > 0.0 else total


def gains_from_uniforms(power, u1):
    """CN(0, variance) draws by the polar method from uniform pairs (u0, u1).

    power = -variance*log(1-u0) is |h|^2, exponential with mean variance, and
    the phase 2*pi*u1 is uniform, which together give the circularly
    symmetric complex Gaussian (independent re/im parts of variance/2 each).
    Exactly two uniforms per sample, so counter-based trial streams stay aligned.
    """
    mag = np.sqrt(power)
    ang = (2.0 * np.pi) * u1
    return mag * np.cos(ang) + 1j * (mag * np.sin(ang))
