import math
from dataclasses import fields, replace

import numpy as np
import pytest

from fdrelay.model import (ASYNCHRONOUS, SYNCHRONOUS, OutageEstimate,
                           SystemConfig, apply_param, configure, db_to_linear,
                           default_delays, linear_to_db, parse_field,
                           validate_config)


NAN, INF = float("nan"), float("inf")


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
    (dict(n_relays=2, delays=(1, -2)), "delays must be non-negative"),
    (dict(n_relays=3, delays=(1, 2, 4), cp_len=3), "cp_len < max delay"),
    (dict(n_relays=2, delays=(1, 1)), "duplicate delays"),
    (dict(n_relays=2, delays=(1, 2), sync_mode=SYNCHRONOUS),
     "unequal delays in synchronous mode"),
    # non-finite powers, variances and rates; bools are not counts
    (dict(p_source=NAN), "p_source must be finite"),
    (dict(p_source=INF), "p_source must be finite"),
    (dict(e_relay_budget=INF), "e_relay_budget must be finite"),
    (dict(e_relay_budget=NAN), "e_relay_budget must be finite"),
    (dict(rate=INF), "rate must be finite"),
    (dict(rate=NAN), "rate must be finite"),
    (dict(var_sd=NAN), "var_sd must be finite"),
    (dict(var_sr=INF), "var_sr must be finite"),
    (dict(var_rd=-INF), "var_rd must be finite"),
    (dict(var_rsi=NAN), "var_rsi must be finite"),
    (dict(var_iri=INF), "var_iri must be finite"),
    (dict(n_relays=True, delays=(1,)), "n_relays must be a positive integer"),
    (dict(block_len=True), "block_len must be a positive integer"),
    (dict(cp_len=False, delays=(0, 0, 0, 0, 0), sync_mode=SYNCHRONOUS),
     "cp_len must be a non-negative integer"),
    # a directly built config is not typed by parse_field
    (dict(p_source="3"), "p_source must be a real number"),
    (dict(p_source=True), "p_source must be a real number"),
    (dict(rate="2"), "rate must be a real number"),
    (dict(rate=True), "rate must be a real number"),
    # a whole-block delay aliases onto the direct tap in synchronous mode too
    (dict(n_relays=3, delays=(0, 0, 0), sync_mode=SYNCHRONOUS),
     "delay divisible by block_len in synchronous mode"),
    (dict(n_relays=2, delays=(8, 8), block_len=8, cp_len=8, sync_mode=SYNCHRONOUS),
     "delay divisible by block_len in synchronous mode"),
    (dict(block_len=1, sync_mode=SYNCHRONOUS),
     "delay divisible by block_len in synchronous mode"),
])
def test_validate_rejects(over, msg):
    cfg = base_config(**over)
    with pytest.raises(ValueError, match=msg):
        validate_config(cfg)


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
    with pytest.raises(ValueError, match="n_relays must be an integer"):
        apply_param(base_config(), "n_relays", 2.5)
    with pytest.raises(ValueError, match="n_relays must be an integer"):
        apply_param(base_config(), "n_relays", INF)


def test_non_integral_delays_rejected():
    with pytest.raises(ValueError, match="delays must be an integer"):
        base_config(n_relays=2, delays=(1.9, 2.2))
    with pytest.raises(ValueError, match="delays must be an integer"):
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
    for field, value in [("n_relays", 2.7), ("block_len", 500.9), ("cp_len", 10.5),
                         ("n_relays", INF)]:
        with pytest.raises(ValueError, match=f"{field} must be an integer"):
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
    (dict(n_relays=2.0, delays=(1, 2)), "n_relays must be a positive integer, got 2.0"),
    (dict(block_len=np.int64(500)), "block_len must be a positive integer, got"),
    (dict(cp_len=-3), "cp_len must be a non-negative integer, got -3"),
    (dict(cp_len=10.0), "cp_len must be a non-negative integer, got 10.0"),
])
def test_validate_counts_in_one_wording(over, message):
    # a directly built config is not typed by parse_field, so validate_config
    # itself refuses a count that is not a plain int
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
    ("n_relays", [2], "n_relays must be an integer"),
    ("n_relays", "2", "n_relays must be an integer"),
    ("block_len", False, "block_len must be an integer"),
    ("rate_db", 3.0, "no dB form"),
    ("n_relays_db", 3.0, "no dB form"),
    ("colour", 1.0, "unknown config field 'colour'"),
    ("sweep", {}, "unknown config field 'sweep'"),
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
    assert parse_field("delays", [1, 2]) == ("delays", [1, 2])
    assert parse_field("mi_mode", "exact") == ("mi_mode", "exact")


@pytest.mark.parametrize("over,msg", [
    ({"delays": 5}, "delays must be a list of integers"),
    ({"delays": "12"}, "delays must be a list of integers"),
    ({"delays": [[1], 2]}, "delays must be an integer"),
    ({"delays": [1, True]}, "delays must be an integer"),
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
