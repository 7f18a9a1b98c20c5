import math
from dataclasses import fields, replace

import numpy as np
import pytest

from fdrelay.analytic import total_outage
from fdrelay.mc import estimate_outage
from fdrelay.model import (ASYNCHRONOUS, DB_FIELDS, FIXED_PER_RELAY, LINK_MEAN_MAX,
                           MI_APPROXIMATE, MI_EXACT, SHARED_BUDGET, SYNCHRONOUS,
                           OutageEstimate, SystemConfig, apply_param, configure,
                           db_to_linear, default_delays, eta, linear_to_db,
                           parse_field, validate_config)


NAN, INF = float("nan"), float("inf")
# the wording of a refused count or length: field, kind, then the value's repr
BELOW = r"{} must be a {} integer below 2\*\*20, got {}"
# the numpy-scalar config on which the closed form once warned "overflow
# encountered in scalar divide" where Python floats give 1.0
NUMPY_REALS = dict(p_source=np.float64(1e-5), e_relay_budget=np.float64(1e-5),
                   var_sd=np.float64(1e-2), rate=np.float64(1003.0))
UP = math.nextafter(LINK_MEAN_MAX, INF)   # the first double past the link-mean ceiling


def base_config(**over):
    kwargs = dict(n_relays=5, p_source=2.0, e_relay_budget=1.0, rate=2.0)
    kwargs.update(over)
    return SystemConfig(**kwargs)


def test_db_conversions():
    assert db_to_linear(0.0) == 1.0
    assert db_to_linear(10.0) == 10.0
    assert math.isclose(db_to_linear(5.0), 3.1622776601683795, rel_tol=1e-15)
    for a, b in [(3.0, 7.0), (-12.5, 4.25), (0.0, -30.0)]:
        assert math.isclose(db_to_linear(a) * db_to_linear(b),
                            db_to_linear(a + b), rel_tol=1e-12)
    assert math.isclose(linear_to_db(db_to_linear(7.3)), 7.3, rel_tol=1e-12)
    assert linear_to_db(0.0) == float("-inf")


def test_default_delays():
    assert default_delays(4, ASYNCHRONOUS) == (1, 2, 3, 4)
    assert default_delays(3, SYNCHRONOUS) == (1, 1, 1)


def test_config_default_delays_applied():
    cfg = base_config()
    assert cfg.delays == (1, 2, 3, 4, 5)
    sync = base_config(sync_mode=SYNCHRONOUS)
    assert sync.delays == (1, 1, 1, 1, 1)


def test_validate_accepts_standard_config():
    cfg = base_config(delays=(1, 2, 3, 4, 5), cp_len=10)
    assert validate_config(cfg) is cfg
    # idempotent
    assert validate_config(validate_config(cfg)) is cfg


@pytest.mark.parametrize("over,msg", [
    (dict(n_relays=0), "n_relays must be a positive integer"),
    (dict(p_source=-1.0), "p_source must be non-negative"),
    (dict(var_iri=-0.5), "var_iri must be non-negative"),
    (dict(rate=0.0), "rate must be positive"),
    (dict(block_len=0), "block_len must be a positive integer"),
    (dict(cp_len=-1), "cp_len must be a non-negative integer"),
    (dict(sync_mode="half"), "unknown sync_mode"),
    (dict(mi_mode="fast"), "unknown mi_mode"),
    (dict(relay_power_policy="greedy"), "unknown relay_power_policy"),
    (dict(n_relays=2, delays=(1, 2, 3)), "delays length != n_relays"),
    pytest.param(dict(n_relays=2, delays=(1, -2)),
                 "delays must be a non-negative integer, got -2",
                 id="over10-delays must be non-negative"),
    (dict(n_relays=3, delays=(1, 2, 4), cp_len=3), "cp_len < max delay"),
    (dict(n_relays=2, delays=(1, 1)), "duplicate delays"),
    (dict(n_relays=2, delays=(1, 2), sync_mode=SYNCHRONOUS),
     "unequal delays in synchronous mode"),
    # non-finite powers, variances and rates; bools are not counts.  A case
    # whose message changed wording keeps its id, which names the rule
    pytest.param(dict(p_source=NAN), "p_source must be a finite real number, got nan",
                 id="over14-p_source must be finite"),
    pytest.param(dict(p_source=INF), "p_source must be a finite real number, got inf",
                 id="over15-p_source must be finite"),
    pytest.param(dict(e_relay_budget=INF), "e_relay_budget must be a finite real number, got inf",
                 id="over16-e_relay_budget must be finite"),
    pytest.param(dict(e_relay_budget=NAN), "e_relay_budget must be a finite real number, got nan",
                 id="over17-e_relay_budget must be finite"),
    pytest.param(dict(rate=INF), "rate must be a finite real number, got inf",
                 id="over18-rate must be finite"),
    pytest.param(dict(rate=NAN), "rate must be a finite real number, got nan",
                 id="over19-rate must be finite"),
    pytest.param(dict(var_sd=NAN), "var_sd must be a finite real number, got nan",
                 id="over20-var_sd must be finite"),
    pytest.param(dict(var_sr=INF), "var_sr must be a finite real number, got inf",
                 id="over21-var_sr must be finite"),
    pytest.param(dict(var_rd=-INF), "var_rd must be a finite real number, got -inf",
                 id="over22-var_rd must be finite"),
    pytest.param(dict(var_rsi=NAN), "var_rsi must be a finite real number, got nan",
                 id="over23-var_rsi must be finite"),
    pytest.param(dict(var_iri=INF), "var_iri must be a finite real number, got inf",
                 id="over24-var_iri must be finite"),
    (dict(n_relays=True, delays=(1,)), "n_relays must be a positive integer"),
    (dict(block_len=True), "block_len must be a positive integer"),
    (dict(cp_len=False, delays=(0, 0, 0, 0, 0), sync_mode=SYNCHRONOUS),
     "cp_len must be a non-negative integer"),
    # a directly built config is not typed by parse_field
    pytest.param(dict(p_source="3"), "p_source must be a finite real number, got '3'",
                 id="over28-p_source must be a real number"),
    pytest.param(dict(p_source=True), "p_source must be a finite real number, got True",
                 id="over29-p_source must be a real number"),
    pytest.param(dict(rate="2"), "rate must be a finite real number, got '2'",
                 id="over30-rate must be a real number"),
    pytest.param(dict(rate=True), "rate must be a finite real number, got True",
                 id="over31-rate must be a real number"),
    # a whole-block delay aliases onto the direct tap in synchronous mode too
    (dict(n_relays=3, delays=(0, 0, 0), sync_mode=SYNCHRONOUS),
     "delay divisible by block_len in synchronous mode"),
    (dict(n_relays=2, delays=(8, 8), block_len=8, cp_len=8, sync_mode=SYNCHRONOUS),
     "delay divisible by block_len in synchronous mode"),
    (dict(block_len=1, sync_mode=SYNCHRONOUS),
     "delay divisible by block_len in synchronous mode"),
    # a built config holds Python reals: numpy scalars warn where floats give inf
    (NUMPY_REALS, r"^p_source must be a Python int or float, got np.float64\(1e-05\)"),
    (dict(rate=np.float64(2.0)), "^rate must be a Python int or float"),
    (dict(var_iri=np.float64(0.5)), "^var_iri must be a Python int or float"),
    # every link mean stays at most LINK_MEAN_MAX; 0 * inf is nan, which it refuses too
    (dict(p_source=UP), r"^p_source\*var_sd must be at most 9.75e\+288, got "),
    (dict(p_source=1e308, var_sd=10.0), r"^p_source\*var_sd must be at most 9.75e\+288, got inf"),
    (dict(p_source=LINK_MEAN_MAX, var_sd=0.5, var_sr=2.0), r"^p_source\*var_sr must be at most"),
    (dict(e_relay_budget=UP), r"^e_relay_budget\*var_rd must be at most"),
    (dict(e_relay_budget=LINK_MEAN_MAX, var_rsi=0.5, var_iri=0.75),
     r"^e_relay_budget\*\(var_rsi\+var_iri\) must be at most"),
    (dict(e_relay_budget=0.0, var_rsi=1e308, var_iri=1e308),
     r"^e_relay_budget\*\(var_rsi\+var_iri\) must be at most 9.75e\+288, got nan"),
    # a narrower numpy real is refused the same way, without an overflowing compare
    (dict(var_iri=np.float32(0.5)), r"^var_iri must be a Python int or float, got np.float32"),
    (dict(rate=np.float16(2.0)), r"^rate must be a Python int or float, got np.float16"),
])
def test_validate_rejects(over, msg):
    # a count that fails _check_int is refused already when default delays
    # are derived from it, at construction
    with pytest.raises(ValueError, match=msg):
        validate_config(base_config(**over))


def test_validate_rejects_delay_multiple_of_block():
    # a whole-block delay aliases onto the direct tap in asynchronous mode
    cfg = base_config(n_relays=2, delays=(500, 1), block_len=500, cp_len=500)
    with pytest.raises(ValueError, match="divisible by block_len"):
        validate_config(cfg)


def test_apply_param_linear_and_db():
    cfg = base_config()
    out = apply_param(cfg, "var_rd", 2.5)
    assert out.var_rd == 2.5
    out_db = apply_param(cfg, "var_rd_db", 10.0)
    assert math.isclose(out_db.var_rd, 10.0, rel_tol=1e-15)
    assert cfg.var_rd == 1.0  # original untouched


def test_apply_param_n_relays_rederives_delays():
    cfg = base_config()
    out = apply_param(cfg, "n_relays", 3)
    assert out.n_relays == 3
    assert out.delays == (1, 2, 3)


def test_apply_param_rejects_unknown():
    with pytest.raises(ValueError, match="unknown sweep parameter"):
        apply_param(base_config(), "block_len", 256)
    with pytest.raises(ValueError, match="no dB form"):
        apply_param(base_config(), "rate_db", 3.0)
    with pytest.raises(ValueError, match=BELOW.format("n_relays", "positive", "2.5")):
        apply_param(base_config(), "n_relays", 2.5)
    with pytest.raises(ValueError, match=BELOW.format("n_relays", "positive", "inf")):
        apply_param(base_config(), "n_relays", INF)


def test_non_integral_delays_rejected():
    with pytest.raises(ValueError, match="delays must be a non-negative integer, got 1.9"):
        validate_config(base_config(n_relays=2, delays=(1.9, 2.2)))
    with pytest.raises(ValueError, match="delays must be a non-negative integer, got 2.5"):
        configure({"n_relays": 2, "p_source": 1.0, "e_relay_budget": 1.0,
                   "rate": 1.0, "delays": [1, 2.5]})


def test_integral_floats_accepted():
    cfg = configure({"n_relays": 3.0, "p_source": 1.0, "e_relay_budget": 1.0,
                     "rate": 1.0, "block_len": 64.0, "cp_len": 4.0,
                     "delays": [1.0, 2.0, 3.0]})
    assert (cfg.n_relays, cfg.block_len, cfg.cp_len, cfg.delays) == (3, 64, 4, (1, 2, 3))
    assert all(type(v) is int for v in (cfg.n_relays, cfg.block_len, cfg.cp_len)
               + cfg.delays)
    assert apply_param(cfg, "n_relays", 2.0).n_relays == 2


def test_config_from_dict_round_trip():
    doc = {
        "n_relays": 4,
        "p_source_db": 5.0,
        "e_relay_budget_db": 5.0,
        "rate": 2.0,
        "var_sr_db": 8.0,
        "var_rd": 10.0,
        "var_rsi_db": 0.0,
    }
    cfg = configure(doc)
    assert cfg.n_relays == 4
    assert math.isclose(cfg.p_source, db_to_linear(5.0), rel_tol=1e-15)
    assert math.isclose(cfg.var_sr, db_to_linear(8.0), rel_tol=1e-15)
    assert cfg.var_rd == 10.0
    assert cfg.var_rsi == 1.0
    assert cfg.delays == (1, 2, 3, 4)


def test_config_from_dict_rejections():
    good = {"n_relays": 2, "p_source": 1.0, "e_relay_budget": 1.0, "rate": 1.0}
    with pytest.raises(ValueError, match="unknown config field"):
        configure({**good, "bandwidth": 20})
    with pytest.raises(ValueError, match="given twice"):
        configure({**good, "var_rd": 1.0, "var_rd_db": 0.0})
    with pytest.raises(ValueError, match="rate must be positive"):
        configure({**good, "rate": 0.0})
    # the sweep block belongs to the command line, not to the model
    with pytest.raises(ValueError, match="unknown config field 'sweep'"):
        configure({**good, "sweep": {"param": "var_iri_db", "values": [0, 5]}})
    with pytest.raises(ValueError, match="missing config field 'rate'"):
        configure({"n_relays": 2, "p_source": 1.0, "e_relay_budget": 1.0})
    # counts and lengths are never truncated
    for field, value, kind in [("n_relays", 2.7, "positive"), ("block_len", 500.9, "positive"),
                               ("cp_len", 10.5, "non-negative"), ("n_relays", INF, "positive")]:
        with pytest.raises(ValueError, match=BELOW.format(field, kind, value)):
            configure({**good, field: value})


def test_outage_estimate_counts():
    est = OutageEstimate(100, 1000)
    assert est.p_hat == 0.1
    assert math.isclose(est.stderr, math.sqrt(0.1 * 0.9 / 1000), rel_tol=1e-15)
    sure = OutageEstimate(50, 50)
    assert sure.p_hat == 1.0 and sure.stderr == 0.0
    assert math.isclose(OutageEstimate(100_000, 1_000_000).stderr,
                        3.0e-4, rel_tol=1e-2)


def test_outage_estimate_rejects_bad_counts():
    with pytest.raises(ValueError):
        OutageEstimate(2, 0)
    with pytest.raises(ValueError):
        OutageEstimate(5, 4)
    with pytest.raises(ValueError):
        OutageEstimate(-1, 4)


def test_outage_estimate_holds_only_its_counts():
    assert [f.name for f in fields(OutageEstimate)] == ["outage_count", "trials"]
    est = OutageEstimate(3, 9)
    with pytest.raises(AttributeError):
        est.p_hat = 0.5


def test_outage_estimate_derives_p_hat_and_stderr_bit_for_bit():
    for n in (1, 2, 3, 7, 1000, 100_003, 2**40 + 1):
        for c in sorted({0, 1, n // 3, n // 2, n - 1, n}):
            est, p = OutageEstimate(c, n), c / n
            assert est.p_hat == p
            assert est.stderr == math.sqrt(p * (1.0 - p) / n)


@pytest.mark.parametrize("count, trials, message", [
    (2.0, 4, "outage_count must be a non-negative integer, got 2.0"),
    (True, 4, "outage_count must be a non-negative integer, got True"),
    (1, 4.0, "trials must be a positive integer, got 4.0"),
    (0, False, "trials must be a positive integer, got False"),
])
def test_outage_estimate_rejects_non_integral_counts(count, trials, message):
    with pytest.raises(ValueError, match=message):
        OutageEstimate(count, trials)


@pytest.mark.parametrize("over, message", [
    # a case whose message gained the bound keeps its id, which names the rule
    pytest.param(dict(n_relays=2.0, delays=(1, 2)), BELOW.format("n_relays", "positive", "2.0"),
                 id="over0-n_relays must be a positive integer, got 2.0"),
    pytest.param(dict(block_len=np.int64(500)), BELOW.format("block_len", "positive", ""),
                 id="over1-block_len must be a positive integer, got"),
    pytest.param(dict(cp_len=-3), BELOW.format("cp_len", "non-negative", "-3"),
                 id="over2-cp_len must be a non-negative integer, got -3"),
    pytest.param(dict(cp_len=10.0), BELOW.format("cp_len", "non-negative", "10.0"),
                 id="over3-cp_len must be a non-negative integer, got 10.0"),
    # without pinned delays the count is refused where they are derived
    pytest.param(dict(n_relays=2.0), BELOW.format("n_relays", "positive", "2.0"),
                 id="over4-n_relays must be a positive integer, got 2.0"),
    pytest.param(dict(n_relays=2.5), BELOW.format("n_relays", "positive", "2.5"),
                 id="over5-n_relays must be a positive integer, got 2.5"),
    # every delay follows the same rule, with a lower bound of 0
    (dict(n_relays=2, delays=(1.0, 2)), "delays must be a non-negative integer, got 1.0"),
    (dict(n_relays=2, delays=(True, 2)), "delays must be a non-negative integer, got True"),
    (dict(n_relays=2, delays=(-1, 2)), "delays must be a non-negative integer, got -1"),
    (dict(n_relays=2, delays=[1, 2]),
     r"delays must be a list of integers \(a tuple in SystemConfig\), got \[1, 2\]"),
    # a count beyond the bound is refused before any delay is derived
    (dict(n_relays=10**8, sync_mode=SYNCHRONOUS), BELOW.format("n_relays", "positive", "")),
    (dict(block_len=2**20), BELOW.format("block_len", "positive", "1048576")),
    (dict(cp_len=2**20), BELOW.format("cp_len", "non-negative", "1048576")),
])
def test_validate_counts_in_one_wording(over, message):
    # a directly built config is not typed by parse_field, so the one integer
    # rule refuses a count or delay that is not a plain int
    with pytest.raises(ValueError, match=message):
        validate_config(base_config(**over))


def test_replace_keeps_config_frozen():
    cfg = base_config()
    with pytest.raises(Exception):
        cfg.var_rd = 3.0
    bumped = replace(cfg, var_rd=3.0)
    assert bumped.var_rd == 3.0 and cfg.var_rd == 1.0


@pytest.mark.parametrize("name,raw,msg", [
    ("p_source", True, "p_source must be a finite real number"),
    ("p_source", "3", "p_source must be a finite real number"),
    ("var_iri_db", None, "var_iri_db must be a finite real number"),
    ("rate", INF, "rate must be a finite real number"),
    ("var_sd_db", NAN, "var_sd_db must be a finite real number"),
    ("var_rd_db", -INF, "var_rd_db must be a finite real number"),
    # a case whose message changed wording keeps its id, which names the rule
    pytest.param("n_relays", [2], BELOW.format("n_relays", "positive", "\\[2\\]"),
                 id="n_relays-raw6-n_relays must be an integer"),
    pytest.param("n_relays", "2", BELOW.format("n_relays", "positive", "'2'"),
                 id="n_relays-2-n_relays must be an integer"),
    pytest.param("block_len", False, BELOW.format("block_len", "positive", "False"),
                 id="block_len-False-block_len must be an integer"),
    ("rate_db", 3.0, "no dB form"),
    ("n_relays_db", 3.0, "no dB form"),
    ("colour", 1.0, "unknown config field 'colour'"),
    ("sweep", {}, "unknown config field 'sweep'"),
    # a dB value whose linear form is not a double
    ("p_source_db", 4000, "p_source_db must be a finite real number of magnitude at most 3080"),
    ("var_iri_db", -3080.5, "var_iri_db must be a finite real number of magnitude at most 3080"),
    pytest.param("p_source", 2**1024, "p_source must be a finite real number, got 1797",
                 id="p_source-int-beyond-double"),
    pytest.param("cp_len", -1, BELOW.format("cp_len", "non-negative", "-1"),
                 id="cp_len--1-cp_len must be a non-negative integer, got -1"),
    ("delays", [1, 2.5], "delays must be a non-negative integer, got 2.5"),
    # a count or length that no double or index holds
    pytest.param("n_relays", 1e300, BELOW.format("n_relays", "positive", "1000000000"),
                 id="n_relays-1e300"),
    pytest.param("block_len", 10**309, BELOW.format("block_len", "positive", "1000000000"),
                 id="block_len-310-digits"),
    # numpy reals narrower than a double are compared as Python floats
    ("rate", np.float32(INF), r"rate must be a finite real number, got np.float32\(inf\)"),
    ("var_sd_db", np.float16(NAN), "var_sd_db must be a finite real number"),
    ("var_iri", np.float16(-INF), "var_iri must be a finite real number"),
    ("p_source_db", np.float32(4000), "p_source_db must be a finite real number of magnitude"),
])
def test_parse_field_rejects(name, raw, msg):
    with pytest.raises(ValueError, match=msg):
        parse_field(name, raw)


def test_parse_field_types():
    assert parse_field("p_source_db", 10) == ("p_source", 10.0)
    assert parse_field("var_rd", 2) == ("var_rd", 2.0)
    assert type(parse_field("var_rd", 2)[1]) is float
    assert parse_field("n_relays", 3.0) == ("n_relays", 3)
    assert parse_field("cp_len", np.int64(4)) == ("cp_len", 4)
    for narrow in (np.float32, np.float16):
        assert parse_field("var_iri", narrow(0.5)) == ("var_iri", 0.5)
        assert type(parse_field("var_iri", narrow(0.5))[1]) is float
    assert parse_field("delays", [1, 2]) == ("delays", (1, 2))
    delays = parse_field("delays", [1.0, np.int64(2), np.float64(3.0)])[1]
    assert delays == (1, 2, 3) and all(type(d) is int for d in delays)
    assert parse_field("mi_mode", "exact") == ("mi_mode", "exact")


@pytest.mark.parametrize("over,msg", [
    ({"delays": 5}, "delays must be a list of integers"),
    ({"delays": "12"}, "delays must be a list of integers"),
    # a case whose message changed wording keeps its id, which names the rule
    pytest.param({"delays": [[1], 2]}, "delays must be a non-negative integer, got \\[1\\]",
                 id="over2-delays must be an integer"),
    pytest.param({"delays": [1, True]}, "delays must be a non-negative integer, got True",
                 id="over3-delays must be an integer"),
    ({"sync_mode": "sync"}, "unknown sync_mode 'sync'"),
    ({"sync_mode": 1}, "unknown sync_mode 1"),
    ({"mi_mode": None}, "unknown mi_mode None"),
    ({"relay_power_policy": ["shared_budget"]}, "unknown relay_power_policy"),
])
def test_configure_rejects_mistyped_values(over, msg):
    doc = {"n_relays": 2, "p_source": 1.0, "e_relay_budget": 1.0, "rate": 1.0}
    with pytest.raises(ValueError, match=msg):
        configure({**doc, **over})


def test_configure_rederives_derived_delays():
    cfg = base_config()
    assert configure({"n_relays": 3}, cfg).delays == (1, 2, 3)
    sync = configure({"sync_mode": SYNCHRONOUS}, cfg)
    assert sync.delays == (1, 1, 1, 1, 1)
    assert configure({"sync_mode": ASYNCHRONOUS}, sync).delays == (1, 2, 3, 4, 5)
    assert configure({}, cfg) == cfg
    # a delays entry in the same document wins over the defaults
    assert configure({"n_relays": 2, "delays": [3, 1]}, cfg).delays == (3, 1)


def test_configure_keeps_pinned_delays():
    pinned = validate_config(base_config(n_relays=2, delays=(2, 1)))
    assert configure({"var_rd": 3.0}, pinned).delays == (2, 1)
    assert configure({"mi_mode": "exact"}, pinned).delays == (2, 1)
    with pytest.raises(ValueError, match="unequal delays in synchronous mode"):
        configure({"sync_mode": SYNCHRONOUS}, pinned)
    with pytest.raises(ValueError, match="delays length != n_relays"):
        apply_param(pinned, "n_relays", 3)


def test_apply_param_types_values():
    cfg = base_config()
    with pytest.raises(ValueError, match="var_rd must be a finite real number"):
        apply_param(cfg, "var_rd", True)
    with pytest.raises(ValueError, match="var_iri_db must be a finite real number"):
        apply_param(cfg, "var_iri_db", "5")
    assert apply_param(cfg, "n_relays", np.int64(2)).n_relays == 2


def test_rate_ceiling_keeps_eta_a_double():
    # eta = 2**(rate*(T+cp)/T) - 1 overflows once the exponent reaches 1024:
    # at T = 500, cp = 10 from rate 1003.92 on
    cfg = validate_config(base_config(rate=1003.9))
    assert total_outage(cfg) == 1.0
    for mi_mode in ("approximate", "exact"):
        for scheme in ("multi", "os", "ps"):
            est = estimate_outage(replace(cfg, mi_mode=mi_mode), scheme, 64, 3)
            assert est.outage_count == est.trials == 64
    with pytest.raises(ValueError, match="rate must be below 1003.92157, got 1004"):
        validate_config(base_config(rate=1004))
    with pytest.raises(ValueError, match="rate must be below 1003.92157, got 1004.0"):
        apply_param(cfg, "rate", 1004.0)


@pytest.mark.parametrize("sync_mode", [ASYNCHRONOUS, SYNCHRONOUS])
def test_rate_ceiling_with_a_relayed_sum_that_adds_nothing(sync_mode):
    # eta near 1e308 over a weak relay link makes e/gbar_rd infinite: the
    # relayed sum adds nothing next to eta, so the direct link decides
    cfg = validate_config(base_config(n_relays=6, block_len=4096, cp_len=6, rate=1022.50,
                                      p_source=0.012, e_relay_budget=0.0042, var_rd=70.7,
                                      sync_mode=sync_mode))
    assert total_outage(cfg) == 1.0


def test_closed_form_near_the_rate_ceiling_never_raises():
    # seeded configs with the rate within 50% of its ceiling, both combining
    # modes and power policies: a value in [0, 1] for each, never an error
    rng = np.random.default_rng(18)   # draws three configs with an infinite e/gbar_rd
    for _ in range(300):
        n = int(rng.integers(1, 65))
        block_len = n + int(rng.choice([8, 64, 500, 4096]))   # no delay 1..n divides it
        cp_len = int(rng.integers(n, 65))
        top = 1024 * block_len / (block_len + cp_len)
        powers = (10.0 ** rng.uniform(-3.0, 3.0, size=7)).tolist()   # floats, as parse_field gives
        cfg = validate_config(SystemConfig(
            n_relays=n, p_source=powers[0], e_relay_budget=powers[1],
            rate=top * rng.uniform(0.5, 0.9999), var_sd=powers[2], var_sr=powers[3],
            var_rd=powers[4], var_rsi=powers[5], var_iri=powers[6], block_len=block_len,
            cp_len=cp_len, sync_mode=str(rng.choice([ASYNCHRONOUS, SYNCHRONOUS])),
            relay_power_policy=str(rng.choice([SHARED_BUDGET, FIXED_PER_RELAY]))))
        assert 0.0 <= total_outage(cfg) <= 1.0


@pytest.mark.parametrize("block_len, cp_len", [(500, 10), (64, 8), (3, 2), (4096, 7), (7, 1)])
def test_every_accepted_rate_near_the_ceiling_has_a_finite_eta(block_len, cp_len):
    top = 1024 * block_len / (block_len + cp_len)
    below, above = [top], [top]
    for _ in range(6):
        below.append(math.nextafter(below[-1], 0.0))
        above.append(math.nextafter(above[-1], INF))
    accepted = 0
    for rate in below + above[1:]:
        cfg = base_config(n_relays=1, rate=rate, block_len=block_len, cp_len=cp_len)
        try:
            validate_config(cfg)
        except ValueError as exc:
            assert "rate must be below" in str(exc)
            continue
        accepted += 1
        assert math.isfinite(eta(cfg))
    assert accepted >= 5


def test_configure_and_apply_param_convert_numpy_reals():
    cfg = configure({"n_relays": 5, **NUMPY_REALS})
    assert all(type(getattr(cfg, name)) is float for name in NUMPY_REALS)
    assert total_outage(cfg) == 1.0
    swept = apply_param(cfg, "var_rd_db", np.float64(3.0))
    assert type(swept.var_rd) is float and swept.var_rd == db_to_linear(3.0)


@pytest.mark.parametrize("sync_mode", [ASYNCHRONOUS, SYNCHRONOUS])
@pytest.mark.parametrize("policy", [SHARED_BUDGET, FIXED_PER_RELAY])
def test_link_means_at_the_ceiling_stay_finite(sync_mode, policy):
    # every link mean at LINK_MEAN_MAX and eta = 2**958 - 1 (about 2.4e288)
    # of the same size, so outage is neither 0 nor 1: the closed form stays in
    # [0, 1] and each scheme's estimate runs under both MI models, with no
    # RuntimeWarning (tier-1 turns one into a failure)
    cfg = validate_config(base_config(
        p_source=LINK_MEAN_MAX, e_relay_budget=LINK_MEAN_MAX, var_rsi=0.5, var_iri=0.5,
        rate=851.5, block_len=64, cp_len=8, sync_mode=sync_mode, relay_power_policy=policy))
    assert 0.0 < total_outage(cfg) < 1.0
    for mi_mode in (MI_APPROXIMATE, MI_EXACT):
        for scheme in ("multi", "os", "ps"):
            est = estimate_outage(replace(cfg, mi_mode=mi_mode), scheme, 300, 5)
            assert 0 < est.outage_count < est.trials
