"""System configuration, validation, unit conversion, and result containers."""

from __future__ import annotations

import math
import numbers
from dataclasses import MISSING, dataclass, fields, replace

ASYNCHRONOUS = "asynchronous"
SYNCHRONOUS = "synchronous"
MI_EXACT = "exact"
MI_APPROXIMATE = "approximate"
SHARED_BUDGET = "shared_budget"
FIXED_PER_RELAY = "fixed_per_relay"

# SystemConfig fields that live on a dB scale in config files ("<name>_db")
DB_FIELDS = (
    "p_source",
    "e_relay_budget",
    "var_sd",
    "var_sr",
    "var_rd",
    "var_rsi",
    "var_iri",
)

# fields a sweep may vary; n_relays also re-derives derived delays (see configure)
SWEEPABLE_FIELDS = DB_FIELDS + ("rate", "n_relays")


def db_to_linear(x_db: float) -> float:
    """Power ratio for a dB value: 10^(x/10)."""
    return 10.0 ** (x_db / 10.0)


def linear_to_db(x: float) -> float:
    """Inverse of db_to_linear; -inf for x = 0."""
    return 10.0 * math.log10(x) if x > 0.0 else float("-inf")


def _check_int(name: str, value, low: int = 1, bits: int = 0) -> int:
    """value if its type is int (a bool is not) and it is at least low (1 or 0)
    and, given bits, below 2**bits; else a ValueError naming it: 2.7 is never
    truncated."""
    if type(value) is int and value >= low and (not bits or value < 1 << bits):
        return value
    kind, below = "positive" if low else "non-negative", f" below 2**{bits}" if bits else ""
    raise ValueError(f"{name} must be a {kind} integer{below}, got {value!r}")


def _is_real(x) -> bool:
    # the exact-float test first: an ABC isinstance costs about 0.5 us
    return type(x) is float or (isinstance(x, numbers.Real) and not isinstance(x, bool))


def _integral(name: str, value) -> int:
    """value as an int; integral floats such as 5.0 pass, while fractions,
    non-finite values, bools and non-numbers raise instead of being truncated."""
    if _is_real(value) and (isinstance(value, numbers.Integral)
                            or float(value).is_integer()):
        return int(value)
    raise ValueError(f"{name} must be an integer")


def default_delays(n_relays: int, sync_mode: str) -> tuple[int, ...]:
    """Relay processing delays used when a config does not pin them.

    Asynchronous relays get staggered integer delays 1..N; synchronous relays
    share a single one-sample delay (nonzero, so the common phase ramp still
    averages out across bins).
    """
    if sync_mode == SYNCHRONOUS:
        return (1,) * n_relays
    return tuple(range(1, n_relays + 1))


@dataclass(frozen=True)
class SystemConfig:
    """Scenario description for one source, N full-duplex relays, one destination.

    Powers and variances are linear (config files may carry them in dB with a
    _db suffix, converted at ingestion).  rate is in bps/Hz, block_len and
    cp_len in channel uses, delays in channel uses per relay.
    """

    n_relays: int
    p_source: float                     # source transmit power P_S
    e_relay_budget: float               # relay power budget E_R
    rate: float                         # target spectral efficiency r
    var_sd: float = 1.0                 # source->destination channel variance
    var_sr: float = 1.0                 # source->relay channel variance (all relays)
    var_rd: float = 1.0                 # relay->destination channel variance (all relays)
    var_rsi: float = 0.0                # residual self-interference variance
    var_iri: float = 0.0                # aggregate inter-relay interference variance
    block_len: int = 500                # FFT block length T
    cp_len: int = 10                    # cyclic prefix length
    delays: tuple[int, ...] | None = None
    sync_mode: str = ASYNCHRONOUS
    mi_mode: str = MI_APPROXIMATE
    relay_power_policy: str = SHARED_BUDGET

    def __post_init__(self):
        if self.delays is not None and not isinstance(self.delays, (list, tuple)):
            raise ValueError("delays must be a list of integers")
        delays = (default_delays(self.n_relays, self.sync_mode) if self.delays is None
                  else tuple(_integral("delays", d) for d in self.delays))
        object.__setattr__(self, "delays", delays)


_FIELDS = {f.name: f for f in fields(SystemConfig)}   # .type is the annotation string


def validate_config(cfg: SystemConfig) -> SystemConfig:
    """Check every invariant and return cfg unchanged; raise ValueError naming
    the first violated rule."""
    _check_int("n_relays", cfg.n_relays)
    for name in DB_FIELDS + ("rate",):
        if not _is_real(getattr(cfg, name)):
            raise ValueError(f"{name} must be a real number")
        if not math.isfinite(getattr(cfg, name)):
            raise ValueError(f"{name} must be finite")
    for name in DB_FIELDS:
        if getattr(cfg, name) < 0.0:
            raise ValueError(f"{name} must be non-negative")
    if not cfg.rate > 0.0:
        raise ValueError("rate must be positive")
    _check_int("block_len", cfg.block_len)
    _check_int("cp_len", cfg.cp_len, 0)
    if cfg.sync_mode not in (ASYNCHRONOUS, SYNCHRONOUS):
        raise ValueError(f"unknown sync_mode {cfg.sync_mode!r}")
    if cfg.mi_mode not in (MI_EXACT, MI_APPROXIMATE):
        raise ValueError(f"unknown mi_mode {cfg.mi_mode!r}")
    if cfg.relay_power_policy not in (SHARED_BUDGET, FIXED_PER_RELAY):
        raise ValueError(f"unknown relay_power_policy {cfg.relay_power_policy!r}")
    if len(cfg.delays) != cfg.n_relays:
        raise ValueError("delays length != n_relays")
    if any(d < 0 for d in cfg.delays):
        raise ValueError("delays must be non-negative")
    if cfg.delays and max(cfg.delays) > cfg.cp_len:
        raise ValueError("cp_len < max delay")
    # a whole-block delay aliases onto the direct tap in either mode
    residues = [d % cfg.block_len for d in cfg.delays]
    if 0 in residues:
        raise ValueError(f"delay divisible by block_len in {cfg.sync_mode} mode")
    if cfg.sync_mode == ASYNCHRONOUS:
        if len(set(residues)) != len(residues):
            raise ValueError("duplicate delays in asynchronous mode")
    elif len(set(cfg.delays)) > 1:
        raise ValueError("unequal delays in synchronous mode")
    return cfg


def parse_field(name: str, raw) -> tuple[str, object]:
    """(field, typed value) for a config name and its raw JSON or CLI value.

    "<field>_db" converts a DB_FIELDS value from dB.  Powers, variances and the
    rate take a finite real number, not a bool; counts and lengths an integer
    (5.0 passes).  Delays, modes and the policy pass as given, for SystemConfig
    and validate_config to check.
    """
    field = name[:-3] if name.endswith("_db") else name
    if field not in _FIELDS:
        raise ValueError(f"unknown config field {name!r}")
    if field != name and field not in DB_FIELDS:
        raise ValueError(f"parameter {field!r} has no dB form")
    kind = _FIELDS[field].type
    if kind == "int":
        return field, _integral(name, raw)
    if kind != "float":
        return field, raw
    if not _is_real(raw) or not math.isfinite(raw):
        raise ValueError(f"{name} must be a finite real number")
    return field, db_to_linear(raw) if field != name else float(raw)


def configure(doc, base: SystemConfig | None = None) -> SystemConfig:
    """Validated config: base (or the defaults) with doc's named raw values parsed and set.

    Without a base, doc gives every field that has no default; no field may
    come in both forms.  Delays equal to the defaults of the base's N and mode
    are re-derived, pinned ones are kept and validated.
    """
    kwargs: dict = {}
    for key, raw in doc.items():
        name, value = parse_field(key, raw)
        if name in kwargs:
            raise ValueError(f"config field {name!r} given twice (linear and dB)")
        kwargs[name] = value
    if base is None:
        for f in _FIELDS.values():
            if f.default is MISSING and f.name not in kwargs:
                raise ValueError(f"missing config field {f.name!r}")
        return validate_config(SystemConfig(**kwargs))
    if base.delays == default_delays(base.n_relays, base.sync_mode):
        kwargs.setdefault("delays", None)
    return validate_config(replace(base, **kwargs))


def apply_param(cfg: SystemConfig, name: str, value: float) -> SystemConfig:
    """Return a validated copy of cfg with one sweepable (possibly dB-suffixed) field set."""
    if name.removesuffix("_db") not in SWEEPABLE_FIELDS:
        raise ValueError(f"unknown sweep parameter {name!r}")
    return configure({name: value}, cfg)


@dataclass(frozen=True)
class OutageEstimate:
    """Monte-Carlo outage count over trials; p_hat and its binomial stderr follow."""

    outage_count: int
    trials: int

    def __post_init__(self):
        if _check_int("outage_count", self.outage_count, 0) > _check_int("trials", self.trials):
            raise ValueError("outage_count must lie in [0, trials]")

    @property
    def p_hat(self) -> float:
        return self.outage_count / self.trials

    @property
    def stderr(self) -> float:
        return math.sqrt(self.p_hat * (1.0 - self.p_hat) / self.trials)


@dataclass(frozen=True)
class SweepSpec:
    """One-parameter sweep request: base scenario, swept field, values, schemes."""

    base: SystemConfig
    param: str                          # SystemConfig field, optionally _db suffixed
    values: tuple[float, ...]
    schemes: tuple[str, ...] = ("multi", "os", "ps")
    trials: int = 100_000
    seed: int = 0


@dataclass(frozen=True)
class SweepRow:
    """What one (value, scheme) point measured; analytic_p is filled for multi only.
    Its param_db and mode columns follow from the SweepSpec and are formed on output."""

    param: float                        # swept value, linear scale
    scheme: str
    analytic_p: float | None
    estimate: OutageEstimate


@dataclass(frozen=True)
class SweepResult:
    spec: SweepSpec
    rows: tuple[SweepRow, ...]
