"""System configuration and validation, the rules both outage models share, dB helpers,
and result containers."""

from __future__ import annotations

import math
import numbers
import sys
from dataclasses import MISSING, dataclass, fields, replace

ASYNCHRONOUS = "asynchronous"
SYNCHRONOUS = "synchronous"
MI_EXACT = "exact"
MI_APPROXIMATE = "approximate"
SHARED_BUDGET = "shared_budget"
FIXED_PER_RELAY = "fixed_per_relay"
SCHEME_MULTI = "multi"
SCHEME_OS = "os"
SCHEME_PS = "ps"
SCHEMES = (SCHEME_MULTI, SCHEME_OS, SCHEME_PS)

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

COUNT_BITS = 20        # n_relays, block_len and cp_len lie below 2**COUNT_BITS

# largest link mean P*var: 2**-64 of the largest double leaves room for the largest
# exponential draw (53 ln 2 < 2**6) and a coherent sum over N < 2**20 relays (N**2 < 2**40)
LINK_MEAN_MAX = sys.float_info.max * 2.0 ** -64


def db_to_linear(x_db: float) -> float:
    """Power ratio for a dB value: 10^(x/10)."""
    return 10.0 ** (x_db / 10.0)


def linear_to_db(x: float) -> float:
    """Inverse of db_to_linear; -inf for x = 0."""
    return 10.0 * math.log10(x) if x > 0.0 else float("-inf")


def _check_int(name: str, value, low: int = 1, bits: int = 0) -> int:
    """value if its type is int (a bool is not), at least low (1 or 0) and, given
    bits, below 2**bits; else a ValueError naming it: 2.7 is never truncated."""
    if type(value) is int and value >= low and (not bits or value < 1 << bits):
        return value
    kind, below = "positive" if low else "non-negative", f" below 2**{bits}" if bits else ""
    raise ValueError(f"{name} must be a {kind} integer{below}, got {value!r}")


def _check_real(name: str, value, bound: float = sys.float_info.max) -> float:
    """value if it is a real number (a bool is not) of magnitude at most bound,
    by default the largest double; else a ValueError naming it.  A rational (an
    int of any size) is compared exactly, any other real as a Python float, never
    in its own type, where a numpy float32 or float16 would overflow the bound."""
    if isinstance(value, numbers.Real) and not isinstance(value, bool) and abs(
            value if isinstance(value, numbers.Rational) else float(value)) <= bound:
        return value
    at_most = f" of magnitude at most {bound:g}" if bound < sys.float_info.max else ""
    raise ValueError(f"{name} must be a finite real number{at_most}, got {value!r}")


def _as_int(name: str, raw, low: int, bits: int = 0) -> int:
    # an integral real such as 5.0 or np.int64(5) as an int, by the one integer rule
    whole = isinstance(raw, numbers.Integral) or (
        isinstance(raw, numbers.Real) and float(raw).is_integer())
    return _check_int(name, int(raw) if whole and not isinstance(raw, bool) else raw, low, bits)


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

    Powers and variances are linear (parse_field converts a _db form).  rate
    is in bps/Hz; block_len, cp_len and the delays tuple (one int per relay)
    in channel uses.  Construction converts nothing: it derives only default delays.
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
        if self.delays is None:
            n_relays = _check_int("n_relays", self.n_relays, 1, COUNT_BITS)
            object.__setattr__(self, "delays", default_delays(n_relays, self.sync_mode))


_FIELDS = {f.name: f for f in fields(SystemConfig)}   # .type is the annotation string


def eta(cfg: SystemConfig) -> float:
    """Decode threshold: SINR below which a block cannot carry cfg.rate bps/Hz.

    The cyclic prefix consumes cp_len of every block_len+cp_len channel uses,
    hence eta = 2^(rate*(T+cp)/T) - 1.
    """
    return 2.0 ** (cfg.rate * (cfg.block_len + cfg.cp_len) / cfg.block_len) - 1.0


def relay_tx_power(cfg: SystemConfig, n_forwarding):
    """Per-relay transmit power when n_forwarding >= 1 relays transmit.

    The one place that knows the relay power policy: the shared budget splits
    E_R over the forwarding relays, the fixed policy gives each relay E_R.
    n_forwarding is an int (the closed form, which stays in Python floats) or
    an array of per-trial counts (Monte-Carlo); mc.forwarding picks the count
    each scheme's relays transmit with.
    """
    if cfg.relay_power_policy == FIXED_PER_RELAY:
        return cfg.e_relay_budget
    return cfg.e_relay_budget / n_forwarding


def relay_interference_floor(cfg: SystemConfig, relay_power):
    """P_R*(var_rsi+var_iri)+1: noise plus self- and inter-relay interference at a
    decoding relay when each relay transmits relay_power (scalar or per-trial array)."""
    return relay_power * (cfg.var_rsi + cfg.var_iri) + 1.0


def validate_config(cfg: SystemConfig) -> SystemConfig:
    """Check every invariant and return cfg unchanged; raise ValueError naming the
    first violated rule.  Counts, below 2**COUNT_BITS, and each delay follow _check_int,
    reals _check_real and must be Python ints or floats, every link mean stays at
    most LINK_MEAN_MAX, and the rate keeps eta's 2**(rate*(T+cp)/T) below overflow."""
    _check_int("n_relays", cfg.n_relays, 1, COUNT_BITS)
    for name in DB_FIELDS + ("rate",):   # a numpy real would warn where a float gives inf
        if type(value := _check_real(name, getattr(cfg, name))) not in (int, float):
            raise ValueError(f"{name} must be a Python int or float, got {value!r}")
    for name in DB_FIELDS:
        if getattr(cfg, name) < 0.0:
            raise ValueError(f"{name} must be non-negative")
    if not cfg.rate > 0.0:
        raise ValueError("rate must be positive")
    p_s, e_r = cfg.p_source, cfg.e_relay_budget     # a relay transmits at most E_R
    for what, mean in (("p_source*var_sd", p_s * cfg.var_sd),
                       ("p_source*var_sr", p_s * cfg.var_sr),
                       ("e_relay_budget*var_rd", e_r * cfg.var_rd),
                       ("e_relay_budget*(var_rsi+var_iri)", e_r * (cfg.var_rsi + cfg.var_iri))):
        if not mean <= LINK_MEAN_MAX:   # a NaN (0*inf) fails too
            raise ValueError(f"{what} must be at most {LINK_MEAN_MAX:.3g}, got {mean!r}")
    T = _check_int("block_len", cfg.block_len, 1, COUNT_BITS)
    cp = _check_int("cp_len", cfg.cp_len, 0, COUNT_BITS)
    if not cfg.rate * (T + cp) / T < 1024:
        raise ValueError(f"rate must be below {1024 * T / (T + cp):.9g}, got {cfg.rate!r}")
    if cfg.sync_mode not in (ASYNCHRONOUS, SYNCHRONOUS):
        raise ValueError(f"unknown sync_mode {cfg.sync_mode!r}")
    if cfg.mi_mode not in (MI_EXACT, MI_APPROXIMATE):
        raise ValueError(f"unknown mi_mode {cfg.mi_mode!r}")
    if cfg.relay_power_policy not in (SHARED_BUDGET, FIXED_PER_RELAY):
        raise ValueError(f"unknown relay_power_policy {cfg.relay_power_policy!r}")
    if type(cfg.delays) is not tuple:
        raise ValueError(f"delays must be a list of integers (a tuple in SystemConfig), "
                         f"got {cfg.delays!r}")
    if len(cfg.delays) != cfg.n_relays:
        raise ValueError("delays length != n_relays")
    residues = [_check_int("delays", d, 0) % cfg.block_len for d in cfg.delays]
    if cfg.delays and max(cfg.delays) > cfg.cp_len:
        raise ValueError("cp_len < max delay")
    # a whole-block delay aliases onto the direct tap in either mode
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

    Every conversion happens here, by the rules validate_config checks.  A
    power, variance or rate must be a finite real (not a bool) and becomes a
    float; "<field>_db" converts a DB_FIELDS value within +-3080 dB (1e308)
    from dB.  An integral real such as 5.0 becomes an int in a count and in a
    delays list, which becomes a tuple.  Other values pass as given.
    """
    field = name[:-3] if name.endswith("_db") else name
    if field not in _FIELDS:
        raise ValueError(f"unknown config field {name!r}")
    if field != name and field not in DB_FIELDS:
        raise ValueError(f"parameter {field!r} has no dB form")
    kind = _FIELDS[field].type
    if kind == "int":
        return field, _as_int(name, raw, 0 if field == "cp_len" else 1, COUNT_BITS)
    if field == "delays" and isinstance(raw, (list, tuple)):
        return field, tuple(_as_int(name, d, 0) for d in raw)
    if kind != "float":
        return field, raw
    if field == name:
        return field, float(_check_real(name, raw))
    return field, db_to_linear(float(_check_real(name, raw, 3080.0)))


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
    schemes: tuple[str, ...] = SCHEMES
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
