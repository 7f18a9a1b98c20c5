import csv
import json
import math
import re
from concurrent.futures import ThreadPoolExecutor
from dataclasses import fields, replace

import pytest

import fdrelay.cli as cli
from fdrelay.cli import CSV_HEADER, build_preset, emit, main, run_sweep, _records
from fdrelay.mc import estimate_outage
from fdrelay.model import (ASYNCHRONOUS, SYNCHRONOUS, SweepRow, SweepSpec,
                           SystemConfig, apply_param, validate_config)


def small_base(**over):
    kwargs = dict(n_relays=2, p_source=2.0, e_relay_budget=2.0, rate=1.0,
                  var_sd=1.0, var_sr=4.0, var_rd=4.0, var_rsi=0.5,
                  var_iri=0.5, block_len=32, cp_len=4)
    kwargs.update(over)
    return validate_config(SystemConfig(**kwargs))


def small_spec(**over):
    kwargs = dict(base=small_base(), param="var_iri_db", values=(-10.0, 0.0),
                  schemes=("multi", "os"), trials=40, seed=7)
    kwargs.update(over)
    return SweepSpec(**kwargs)


def test_preset_interference_sweeps():
    for name, mode in (("fig2", ASYNCHRONOUS), ("fig3", SYNCHRONOUS)):
        preset = build_preset(name)
        assert [label for label, _ in preset.variants] == ["n5", "n10"]
        for (label, spec), n in zip(preset.variants, (5, 10)):
            base = spec.base
            assert base.n_relays == n
            assert base.sync_mode == mode
            assert base.p_source == pytest.approx(10 ** 0.5)
            assert base.e_relay_budget == pytest.approx(10 ** 0.5)
            assert base.var_sd == 1.0 and base.var_rsi == 1.0
            assert base.var_sr == pytest.approx(10 ** 0.8)
            assert base.var_rd == pytest.approx(10.0)
            assert spec.param == "var_iri_db"
            assert spec.values == (-10.0, -5.0, 0.0, 5.0, 10.0)


def test_preset_first_hop_sweeps():
    for name, rd in (("fig4", 10.0), ("fig5", 1.0)):
        preset = build_preset(name)
        assert [label for label, _ in preset.variants] == [""]
        spec = preset.variants[0][1]
        assert spec.base.n_relays == 10
        assert spec.base.p_source == pytest.approx(10.0)
        assert spec.base.var_rd == pytest.approx(rd)
        assert spec.base.var_iri == pytest.approx(1.0)
        assert spec.param == "var_sr_db"
        assert spec.values == (0.0, 2.0, 4.0, 6.0, 8.0, 10.0)
    with pytest.raises(ValueError, match="unknown preset"):
        build_preset("fig9")


def test_check_spec_rejections():
    cases = [
        (small_spec(values=()), "non-empty"),
        (small_spec(values=(1.0, 3.0, 2.0)), "strictly monotone"),
        (small_spec(param="colour"), "unknown sweep parameter"),
        (small_spec(param="rate_db"), "no dB form"),
        (small_spec(param="n_relays", values=(2.5, 3.0)), "n_relays must be an integer"),
        (small_spec(schemes=("multi", "best")), "unknown scheme"),
        (small_spec(trials=0), "trials must be a positive integer"),
    ]
    for spec, message in cases:
        with pytest.raises(ValueError, match=message):
            run_sweep(spec)
    run_sweep(small_spec(values=(5.0, 0.0, -5.0)))  # descending is fine


def test_run_sweep_row_layout():
    result = run_sweep(small_spec())
    recs = _records(result)
    assert [(r["param_db"], r["scheme"]) for r in recs] == [
        (-10.0, "multi"), (-10.0, "os"), (0.0, "multi"), (0.0, "os")]
    for row, rec in zip(result.rows, recs):
        assert row.param == pytest.approx(10 ** (rec["param_db"] / 10))
        assert rec["mode"] == "async"
        assert (row.analytic_p is not None) == (row.scheme == "multi")
        assert row.estimate.trials == 40


def test_run_sweep_linear_and_plain_params():
    linear = _records(run_sweep(small_spec(param="var_iri", values=(0.1, 1.0))))
    assert [r["param_db"] for r in linear] == pytest.approx([-10.0, -10.0, 0.0, 0.0])
    plain = run_sweep(small_spec(param="rate", values=(0.5, 1.0)))
    assert all(r["param_db"] is None for r in _records(plain))
    assert [r.param for r in plain.rows] == [0.5, 0.5, 1.0, 1.0]


def counting(monkeypatch, name):
    """Wrap fdrelay.cli.<name> so each call is counted; returns the call list."""
    calls, real = [], getattr(cli, name)

    def spy(*args, **kwargs):
        calls.append(args)
        return real(*args, **kwargs)
    monkeypatch.setattr(cli, name, spy)
    return calls


def test_run_sweep_rejects_a_late_bad_value_before_any_trial(monkeypatch):
    estimates = counting(monkeypatch, "estimate_outage")
    with pytest.raises(ValueError, match="var_iri must be non-negative"):
        run_sweep(small_spec(param="var_iri", values=(1.0, -1.0),
                             schemes=("multi", "os", "ps")))
    assert estimates == []


def test_run_sweep_applies_each_value_once(monkeypatch):
    applied = counting(monkeypatch, "apply_param")
    spec = small_spec(values=(-10.0, -5.0, 0.0), schemes=("multi", "os", "ps"))
    result = run_sweep(spec)
    assert [value for _, _, value in applied] == [-10.0, -5.0, 0.0]
    assert len(result.rows) == 9


def test_main_rejects_a_late_bad_sweep_value_before_any_trial(tmp_path, capsys,
                                                               monkeypatch):
    estimates = counting(monkeypatch, "estimate_outage")
    out = tmp_path / "late.csv"
    assert main(["--preset", "fig4", "--sweep-param", "var_iri",
                 "--sweep-values", "3,2,1,-1", "--trials", "200000",
                 "--out", str(out)]) == 2
    assert "error: var_iri must be non-negative" in capsys.readouterr().err
    assert not out.exists()
    assert estimates == []


@pytest.mark.parametrize("values, schemes, widths", [
    ((-10.0, 0.0), ("multi",), [2]),
    ((0.0,), ("os",), []),
], ids=["two-points", "one-point-in-process"])
def test_run_sweep_pool_is_no_wider_than_the_points(monkeypatch, values, schemes, widths):
    asked = []

    def pool(max_workers):      # records the width, runs in one thread
        asked.append(max_workers)
        return ThreadPoolExecutor(max_workers=1)
    monkeypatch.setattr(cli, "ProcessPoolExecutor", pool)
    spec = small_spec(values=values, schemes=schemes)
    assert run_sweep(spec, workers=64).rows == run_sweep(spec).rows
    assert asked == widths


def test_run_sweep_workers_equivalent():
    a = run_sweep(small_spec(), workers=1)
    b = run_sweep(small_spec(), workers=2)
    assert a.rows == b.rows


@pytest.mark.parametrize("workers", [0, -2, 1.5, True], ids=["zero", "negative", "float", "bool"])
def test_run_sweep_rejects_worker_counts_below_one(workers):
    with pytest.raises(ValueError, match="workers must be a positive integer"):
        run_sweep(small_spec(), workers=workers)


def test_main_rejects_negative_workers(tmp_path, capsys):
    out = tmp_path / "workers.csv"
    assert main(["--preset", "fig5", "--workers", "-2", "--trials", "5",
                 "--out", str(out)]) == 2
    assert "error: workers must be a positive integer" in capsys.readouterr().err
    assert not out.exists()


@pytest.mark.parametrize("seed", [-1, 2**128, 1.5, True],
                         ids=["negative", "2**128", "float", "bool"])
def test_run_sweep_rejects_seeds_before_any_point(monkeypatch, seed):
    # 2.7 would draw with key 2 and then write 2.7 in the seed column
    closed, estimates = counting(monkeypatch, "total_outage"), counting(monkeypatch,
                                                                         "estimate_outage")
    with pytest.raises(ValueError, match=re.escape(
            f"seed must be a non-negative integer below 2**128, got {seed!r}")):
        run_sweep(small_spec(seed=seed))
    assert closed == [] and estimates == []


@pytest.mark.parametrize("seed", [0, 2**64 + 1, 2**128 - 1])
def test_sweep_rows_reproduce_from_their_recorded_seed(tmp_path, seed):
    spec, out = small_spec(seed=seed), tmp_path / "rerun.csv"
    emit(run_sweep(spec), "csv", out)
    rows = list(csv.DictReader(out.open()))
    assert len(rows) == 4
    for row in rows:
        cfg = apply_param(spec.base, spec.param, float(row["param_db"]))
        est = estimate_outage(cfg, row["scheme"], int(row["trials"]), int(row["seed"]))
        assert (f"{est.p_hat:.9g}", f"{est.stderr:.9g}") == (row["mc_p"], row["mc_stderr"])
    # a seed the column could not hold as the key it drew with never runs
    with pytest.raises(ValueError, match="seed must be"):
        run_sweep(replace(spec, seed=seed + 0.5))


def test_main_rejects_a_bad_seed_before_any_point(tmp_path, capsys, monkeypatch):
    closed, estimates = counting(monkeypatch, "total_outage"), counting(monkeypatch,
                                                                         "estimate_outage")
    out = tmp_path / "seed.csv"
    assert main(["--preset", "fig5", "--seed", "-1", "--out", str(out)]) == 2
    assert "error: seed must be a non-negative integer below 2**128, got -1" in (
        capsys.readouterr().err)
    assert not out.exists()
    assert closed == [] and estimates == []


@pytest.mark.parametrize("preset", ["fig2", "fig5"])
def test_main_rejects_a_missing_output_directory_before_any_trial(tmp_path, capsys,
                                                                   monkeypatch, preset):
    estimates = counting(monkeypatch, "estimate_outage")
    out = tmp_path / "missing" / "x.csv"
    assert main(["--preset", preset, "--trials", "200000", "--out", str(out)]) == 2
    assert capsys.readouterr().err.startswith(
        f"error: output directory {out.parent} does not exist")
    assert list(tmp_path.iterdir()) == []
    assert estimates == []


def test_emit_csv_layout(tmp_path):
    out = tmp_path / "curve.csv"
    emit(run_sweep(small_spec(schemes=("multi", "os"))), "csv", out)
    lines = out.read_text().splitlines()
    assert lines[0] == CSV_HEADER
    assert len(lines) == 5
    first = lines[1].split(",")
    assert len(first) == 9
    assert first[0] == "0.1" and first[1] == "-10"
    assert first[2] == "multi" and first[3] == "async"
    assert first[4] != ""          # closed form present for multi
    assert lines[2].split(",")[4] == ""   # and absent for os
    assert first[7] == "40" and first[8] == "7"


def test_emit_csv_blank_db_column(tmp_path):
    out = tmp_path / "plain.csv"
    emit(run_sweep(small_spec(param="rate", values=(0.5, 1.0))), "csv", out)
    row = out.read_text().splitlines()[1].split(",")
    assert row[0] == "0.5" and row[1] == ""


def test_emit_json_matches_csv(tmp_path):
    result = run_sweep(small_spec())
    emit(result, "csv", tmp_path / "c.csv")
    emit(result, "json", tmp_path / "c.json")
    recs = json.loads((tmp_path / "c.json").read_text())
    lines = (tmp_path / "c.csv").read_text().splitlines()[1:]
    assert len(recs) == len(lines)
    for rec, line in zip(recs, lines):
        cells = line.split(",")
        assert float(cells[0]) == rec["param"]
        assert float(cells[1]) == rec["param_db"]
        assert cells[2] == rec["scheme"] and cells[3] == rec["mode"]
        if rec["analytic_p"] is None:
            assert cells[4] == ""
        else:
            assert float(cells[4]) == rec["analytic_p"]
        assert float(cells[5]) == rec["mc_p"]
        assert float(cells[6]) == rec["mc_stderr"]
        assert int(cells[7]) == rec["trials"] == 40
        assert int(cells[8]) == rec["seed"] == 7
    with pytest.raises(ValueError, match="unknown output format"):
        emit(result, "tsv", tmp_path / "c.tsv")


def _no_constants(name):
    raise ValueError(f"{name} is not JSON")


def test_main_zero_on_linear_db_field(tmp_path):
    # a linear 0 is -inf dB: null in JSON, empty in CSV, as a field without dB
    doc = {"n_relays": 2, "p_source_db": 3.0, "e_relay_budget_db": 3.0,
           "rate": 1.0, "var_sr_db": 6.0, "var_rd_db": 6.0, "block_len": 64,
           "cp_len": 4, "sweep": {"param": "var_iri", "values": [0, 1]}}
    path = tmp_path / "scenario.json"
    path.write_text(json.dumps(doc))
    for fmt in ("json", "csv"):
        out = tmp_path / f"zero.{fmt}"
        assert main(["--config", str(path), "--scheme", "multi", "--trials", "10",
                     "--format", fmt, "--out", str(out)]) == 0
        if fmt == "json":
            recs = json.loads(out.read_text(), parse_constant=_no_constants)
            assert [(r["param"], r["param_db"]) for r in recs] == [(0.0, None), (1.0, 0.0)]
        else:
            cells = [line.split(",")[:2] for line in out.read_text().splitlines()[1:]]
            assert cells == [["0", ""], ["1", "0"]]


def test_emit_is_deterministic(tmp_path):
    emit(run_sweep(small_spec()), "csv", tmp_path / "a.csv")
    emit(run_sweep(small_spec()), "csv", tmp_path / "b.csv")
    assert (tmp_path / "a.csv").read_bytes() == (tmp_path / "b.csv").read_bytes()


def test_main_preset_single_variant(tmp_path, capsys):
    out = tmp_path / "run.csv"
    code = main(["--preset", "fig4", "--trials", "20", "--out", str(out)])
    assert code == 0
    lines = out.read_text().splitlines()
    assert lines[0] == CSV_HEADER
    assert len(lines) == 1 + 6 * 3      # six sweep values, three schemes
    assert f"wrote {out} (18 rows)" in capsys.readouterr().out


def test_main_preset_variant_suffixes(tmp_path):
    out = tmp_path / "curves.csv"
    code = main(["--preset", "fig2", "--trials", "10", "--scheme", "multi",
                 "--out", str(out)])
    assert code == 0
    assert not out.exists()
    for label in ("n5", "n10"):
        lines = (tmp_path / f"curves_{label}.csv").read_text().splitlines()
        assert len(lines) == 1 + 5 * 1


def test_main_default_output_name(tmp_path, monkeypatch):
    monkeypatch.chdir(tmp_path)
    assert main(["--preset", "fig5", "--trials", "5", "--scheme", "ps",
                 "--format", "json"]) == 0
    recs = json.loads((tmp_path / "fig5.json").read_text())
    assert len(recs) == 6 and all(r["analytic_p"] is None for r in recs)


def test_main_mode_and_mi_overrides(tmp_path):
    out = tmp_path / "sync.csv"
    code = main(["--preset", "fig2", "--trials", "10", "--scheme", "multi",
                 "--mode", "sync", "--mi", "exact", "--out", str(out)])
    assert code == 0
    lines = (tmp_path / "sync_n5.csv").read_text().splitlines()
    assert all(line.split(",")[3] == "sync" for line in lines[1:])


def test_main_config_file(tmp_path):
    doc = {
        "n_relays": 2, "p_source_db": 3.0, "e_relay_budget_db": 3.0,
        "rate": 1.0, "var_sd_db": 0.0, "var_sr_db": 6.0, "var_rd_db": 6.0,
        "var_rsi_db": -3.0, "var_iri_db": -3.0, "block_len": 64, "cp_len": 4,
        "sweep": {"param": "p_source_db", "values": [0.0, 5.0]},
    }
    path = tmp_path / "scenario.json"
    path.write_text(json.dumps(doc))
    out = tmp_path / "scan.csv"
    code = main(["--config", str(path), "--trials", "25", "--seed", "4",
                 "--out", str(out)])
    assert code == 0
    lines = out.read_text().splitlines()
    assert len(lines) == 1 + 2 * 3
    assert lines[1].split(",")[1] == "0"


def test_main_sweep_flag_overrides(tmp_path):
    doc = {"n_relays": 2, "p_source_db": 3.0, "e_relay_budget_db": 3.0,
           "rate": 1.0, "var_sd_db": 0.0, "var_sr_db": 6.0, "var_rd_db": 6.0,
           "var_rsi_db": -3.0, "var_iri_db": -3.0, "block_len": 64, "cp_len": 4}
    path = tmp_path / "scenario.json"
    path.write_text(json.dumps(doc))
    out = tmp_path / "over.csv"
    code = main(["--config", str(path), "--sweep-param", "var_rd_db",
                 "--sweep-values", "0,3,6", "--scheme", "os",
                 "--trials", "15", "--out", str(out)])
    assert code == 0
    lines = out.read_text().splitlines()
    assert [line.split(",")[1] for line in lines[1:]] == ["0", "3", "6"]


def test_main_high_rate_weak_direct_link(tmp_path):
    # rate 8 over a -20 dB direct link puts the closed form where it once
    # raised OverflowError out of main
    doc = {"n_relays": 4, "p_source_db": 10.0, "e_relay_budget_db": 10.0,
           "rate": 8.0, "var_sd_db": -20.0, "var_sr_db": 10.0, "var_rd_db": 10.0,
           "var_rsi_db": 0.0, "var_iri_db": 0.0,
           "sweep": {"param": "var_rd_db", "values": [0.0, 10.0, 20.0]}}
    path = tmp_path / "scenario.json"
    path.write_text(json.dumps(doc))
    out = tmp_path / "weak.csv"
    code = main(["--config", str(path), "--scheme", "multi", "--trials", "20",
                 "--out", str(out)])
    assert code == 0
    rows = [line.split(",") for line in out.read_text().splitlines()[1:]]
    assert len(rows) == 3
    assert all(math.isfinite(float(row[4])) and 0.0 <= float(row[4]) <= 1.0
               for row in rows)


def test_main_error_paths(tmp_path, capsys):
    assert main(["--config", str(tmp_path / "missing.json")]) == 2
    assert "error:" in capsys.readouterr().err

    bare = tmp_path / "bare.json"
    bare.write_text(json.dumps({
        "n_relays": 1, "p_source_db": 0.0, "e_relay_budget_db": 0.0,
        "rate": 1.0, "var_sd_db": 0.0, "var_sr_db": 0.0, "var_rd_db": 0.0,
        "var_rsi_db": 0.0, "var_iri_db": 0.0, "block_len": 16, "cp_len": 2}))
    assert main(["--config", str(bare), "--trials", "5"]) == 2
    assert "no sweep parameter" in capsys.readouterr().err

    bad = tmp_path / "bad.json"
    bad.write_text("{not json")
    assert main(["--config", str(bad)]) == 2

    assert main(["--preset", "fig4", "--trials", "5",
                 "--sweep-values", "1,zap",
                 "--out", str(tmp_path / "x.csv")]) == 2


def scenario(**over):
    doc = {"n_relays": 2, "p_source_db": 3.0, "e_relay_budget_db": 3.0,
           "rate": 1.0, "var_sr_db": 6.0, "var_rd_db": 6.0, "block_len": 64,
           "cp_len": 4, "sweep": {"param": "var_iri_db", "values": [0.0, 5.0]}}
    doc.update(over)
    return doc


@pytest.mark.parametrize("over", [
    {"delays": 5},
    {"n_relays": [2]},
    {"sweep": {"param": 5, "values": [0.0, 5.0]}},
    {"sweep": {"param": "var_iri_db", "values": 5}},
    {"p_source": True, "p_source_db": None},
], ids=["delays-int", "n_relays-list", "sweep-param-int", "sweep-values-int",
        "p_source-bool"])
def test_main_rejects_mistyped_config(tmp_path, capsys, over):
    doc = {k: v for k, v in scenario(**over).items() if v is not None}
    path = tmp_path / "typed.json"
    path.write_text(json.dumps(doc))
    out = tmp_path / "typed.csv"
    assert main(["--config", str(path), "--trials", "5", "--out", str(out)]) == 2
    assert "error:" in capsys.readouterr().err
    assert not out.exists()


def test_main_sync_mode_keeps_pinned_delays(tmp_path, capsys):
    path = tmp_path / "pinned.json"
    path.write_text(json.dumps(scenario(delays=[2, 1])))
    out = tmp_path / "pinned.csv"
    assert main(["--config", str(path), "--trials", "5", "--out", str(out)]) == 0
    assert main(["--config", str(path), "--trials", "5", "--mode", "sync",
                 "--out", str(out)]) == 2
    assert "unequal delays in synchronous mode" in capsys.readouterr().err


def test_sweep_rows_keep_only_what_was_measured():
    assert [f.name for f in fields(SweepRow)] == ["param", "scheme", "analytic_p", "estimate"]
    assert not hasattr(cli, "_check_spec")
