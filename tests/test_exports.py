import inspect
from dataclasses import fields

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
    assert [f.name for f in fields(analytic.LinkOutageProbs)] == ["p_sd", "p_sr", "eta"]
