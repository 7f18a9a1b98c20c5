"""Outage analysis for full-duplex multi-relay links with selective forwarding.

Closed-form and Monte-Carlo outage probabilities for a source-destination
pair assisted by N full-duplex decode-and-forward relays over Rayleigh block
fading, including residual self-interference and inter-relay interference,
with asynchronous (cyclic-prefix / per-bin) or synchronous destinations and
OS/PS relay-selection baselines.
"""

from .analytic import total_outage
from .channel import draw_realization, link_sinrs
from .fde import approx_rate, exact_rate, lambda_spectrum
from .mc import estimate_outage
from .model import (ASYNCHRONOUS, FIXED_PER_RELAY, MI_APPROXIMATE, MI_EXACT, SCHEME_MULTI,
                    SHARED_BUDGET, SYNCHRONOUS, SweepResult, SystemConfig, apply_param,
                    configure, validate_config)

__version__ = "0.1.0"

__all__ = [
    "ASYNCHRONOUS",
    "SYNCHRONOUS",
    "MI_EXACT",
    "MI_APPROXIMATE",
    "SHARED_BUDGET",
    "FIXED_PER_RELAY",
    "SCHEME_MULTI",
    "SystemConfig",
    "SweepResult",
    "validate_config",
    "apply_param",
    "configure",
    "draw_realization",
    "link_sinrs",
    "lambda_spectrum",
    "exact_rate",
    "approx_rate",
    "total_outage",
    "estimate_outage",
]
