"""Outage analysis for full-duplex multi-relay links with selective forwarding.

Closed-form and Monte-Carlo outage probabilities for a source-destination
pair assisted by N full-duplex decode-and-forward relays over Rayleigh block
fading, including residual self-interference and inter-relay interference,
with asynchronous (cyclic-prefix / per-bin) or synchronous destinations and
OS/PS relay-selection baselines.
"""

from .analytic import (combine_outage, link_outages, p_cond_async, p_cond_sync,
                       total_outage)
from .channel import (ChannelRealization, LinkSinrs, draw_realization,
                      link_sinrs)
from .fde import BinSpectrum, approx_rate, exact_rate, lambda_spectrum
from .mc import (SCHEME_MULTI, SCHEME_OS, SCHEME_PS, SCHEMES, estimate_outage,
                 select_relay, trial_stream)
from .model import (ASYNCHRONOUS, FIXED_PER_RELAY, MI_APPROXIMATE, MI_EXACT,
                    SHARED_BUDGET, SYNCHRONOUS, OutageEstimate, SweepResult,
                    SweepRow, SweepSpec, SystemConfig, apply_param,
                    configure, db_to_linear, eta, linear_to_db, validate_config)

__version__ = "0.1.0"

__all__ = [
    "ASYNCHRONOUS",
    "SYNCHRONOUS",
    "MI_EXACT",
    "MI_APPROXIMATE",
    "SHARED_BUDGET",
    "FIXED_PER_RELAY",
    "SCHEME_MULTI",
    "SCHEME_OS",
    "SCHEME_PS",
    "SCHEMES",
    "SystemConfig",
    "OutageEstimate",
    "SweepSpec",
    "SweepRow",
    "SweepResult",
    "ChannelRealization",
    "LinkSinrs",
    "BinSpectrum",
    "validate_config",
    "apply_param",
    "configure",
    "db_to_linear",
    "linear_to_db",
    "draw_realization",
    "link_sinrs",
    "lambda_spectrum",
    "exact_rate",
    "approx_rate",
    "eta",
    "link_outages",
    "p_cond_async",
    "p_cond_sync",
    "combine_outage",
    "total_outage",
    "select_relay",
    "trial_stream",
    "estimate_outage",
]
