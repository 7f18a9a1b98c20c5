import importlib.util
import inspect
import sys
from dataclasses import fields
from pathlib import Path

import pytest

import fdrelay
from fdrelay import analytic, channel, fde, mc, model, sfun

MODULES = (fdrelay, analytic, channel, fde, mc, model, sfun)

# names the library no longer defines: scalar-only entry points, library-side
# oracles and unused knobs
REMOVED = (
    "run_trial",
    "decode_set",
    "relay_mask",
    "_per_relay",
    "decode_stage_power",
    "erlang_cdf",
    "lower_incomplete_gamma_int",
    "ComplexGaussianSampler",
    "sample_complex_gaussian",
    "BINOMIAL",
    "ENUMERATION",
    "ENUMERATION_MAX_RELAYS",
    "LinkOutageProbs",
    "config_from_dict",
)


@pytest.mark.parametrize("module", [fdrelay, sfun], ids=["fdrelay", "sfun"])
def test_all_names_resolve(module):
    assert len(set(module.__all__)) == len(module.__all__)
    for name in module.__all__:
        assert getattr(module, name) is not None, name


def test_removed_names_are_gone():
    for module in MODULES:
        exported = getattr(module, "__all__", ())
        for name in REMOVED:
            assert name not in exported, (module.__name__, name)
            assert not hasattr(module, name), (module.__name__, name)


def test_removed_parameters_and_fields_are_gone():
    assert list(inspect.signature(fdrelay.total_outage).parameters) == ["cfg"]
    assert "method" not in inspect.signature(fdrelay.combine_outage).parameters
    assert "selection_iri" not in {f.name for f in fields(fdrelay.SystemConfig)}
    assert list(inspect.signature(fdrelay.link_outages).parameters) == ["cfg"]
    assert "real" not in inspect.signature(fdrelay.approx_rate).parameters
    assert "interference_var" not in inspect.signature(fdrelay.link_sinrs).parameters
    assert list(inspect.signature(fdrelay.eta).parameters) == ["cfg"]
    assert not hasattr(fdrelay.ChannelRealization, "from_gains")
    assert not hasattr(fdrelay.OutageEstimate, "from_counts")


def test_bench_wrap_points_resolve(monkeypatch):
    # the benchmark traces each layer at these names; one that no longer
    # resolves drops its per-layer metric
    bench = Path(__file__).resolve().parents[1] / "bench"
    monkeypatch.setattr(sys, "dont_write_bytecode", True)
    monkeypatch.syspath_prepend(str(bench))
    spec = importlib.util.spec_from_file_location("bench_layers", bench / "layers.py")
    layers = importlib.util.module_from_spec(spec)
    spec.loader.exec_module(layers)
    assert layers.WRAPS
    for span, module_name, attr, _ in layers.WRAPS:
        target = getattr(importlib.import_module(module_name), attr, None)
        assert callable(target), (span, module_name, attr)
