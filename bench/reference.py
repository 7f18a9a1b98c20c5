"""Fixed reference kernels that gauge how fast the host runs right now.

The shared host changes speed by tens of percent in phases that can outlast
a whole run, and the program slows in step.  So each workload has a short
kernel that never calls fdrelay and has the character of the workload's hot
path.  It is timed just before each unit of work and once after set-up.  The
gated times are scaled by the kernel's nominal time over its measured time,
so they read as the times the same work would take on a host running at
nominal speed.  A change to fdrelay moves the work's own time and not the
kernel's, so it still shows in full.
"""

from __future__ import annotations

import math
import statistics
import time

import numpy as np

_rng = np.random.default_rng(20180212)
_COEF = _rng.standard_normal(2048) + 1j * _rng.standard_normal(2048)
_PHASE = np.exp(-2j * np.pi * np.arange(500) / 500)
_UNIFORMS = _rng.random((32768, 2))

REPEATS = 3


def spectrum_kernel() -> None:
    """Per-bin complex accumulate over a 2048x500 array, then log2 of |.|^2
    (the shape of fde.lambda_spectrum and fde.exact_rate on exact_async)."""
    lam = np.zeros((2048, 500), dtype=complex)
    for _ in range(3):
        lam += _COEF[:, None] * _PHASE
    np.log2(1.0 + (lam.real ** 2 + lam.imag ** 2)).sum()


def draws_kernel() -> None:
    """Polar-method complex Gaussians from uniform pairs (the shape of
    sfun.gains_from_uniforms on approx_async)."""
    for _ in range(12):
        mag = np.sqrt(-np.log1p(-_UNIFORMS[:, 0]))
        ang = (2.0 * np.pi) * _UNIFORMS[:, 1]
        (mag * np.cos(ang) + 1j * (mag * np.sin(ang))).sum()


def series_kernel() -> None:
    """Interpreted scalar power series of the lower incomplete gamma over a
    grid of orders and arguments, as in the closed form's evaluations."""
    total = 0.0
    for j in range(48):
        x = 0.5 + 0.5 * j
        for n in range(1, 40):
            term = total_n = 1.0
            k = 0
            while abs(term) > 1e-16 * abs(total_n) and k < 200:
                k += 1
                term *= x / (n + k)
                total_n += term
            total += total_n * math.exp(-x)


# (kernel, its time in seconds at nominal host speed); the nominal times are
# round figures near the medians measured on the 2-core VM the benchmark was
# built on, and only fix the scale of the gated figures
KERNELS = {
    "exact_async": (spectrum_kernel, 0.050),
    "approx_async": (draws_kernel, 0.033),
    "closed_form": (series_kernel, 0.014),
}


def host_speed(workload: str) -> float:
    """Nominal over measured kernel time: 1.0 at nominal speed, 0.8 when the
    host runs the kernel 25% slower.  Times scale by it, rates divide by it."""
    kernel, nominal = KERNELS[workload]
    times = []
    for _ in range(REPEATS):
        t = time.perf_counter()
        kernel()
        times.append(time.perf_counter() - t)
    return nominal / statistics.median(times)
