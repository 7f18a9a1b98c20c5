import ast
import importlib.util
import inspect
import sys
from dataclasses import fields
from pathlib import Path

import pytest

import fdrelay
from fdrelay import analytic, channel, cli, fde, mc, model

MODULES = (fdrelay, analytic, channel, cli, fde, mc, model)

# library module -> the library modules it imports.  The closed form (analytic)
# and the Monte-Carlo engine (channel, fde, mc) share only model, so each checks
# the other; cli sits on top.
IMPORTS = {
    "__init__": {"analytic", "channel", "fde", "mc", "model"},
    "model": set(),
    "analytic": {"model"},
    "channel": {"model"},
    "fde": {"channel", "model"},
    "mc": {"channel", "fde", "model"},
    "cli": {"analytic", "mc", "model"},
}

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
    "SpectrumWork",
    "spectrum_work",
    "spectrum_work_slots",
    "_carve",
    "draw_slots",
    "_power_scale",
    "exact_rate_one_relay",
)


# the package root: the config, the two outage calls and the layer calls that
# code outside the package reads
ROOT = [
    "ASYNCHRONOUS", "SYNCHRONOUS", "MI_EXACT", "MI_APPROXIMATE", "SHARED_BUDGET",
    "FIXED_PER_RELAY", "SCHEME_MULTI",
    "SystemConfig", "SweepResult", "validate_config", "apply_param", "configure",
    "draw_realization", "link_sinrs", "lambda_spectrum", "exact_rate", "approx_rate",
    "total_outage", "estimate_outage",
]

# names left out of the root, each importable from its own module
MODULE_ONLY = {
    channel: ("ChannelRealization", "LinkSinrs"),
    fde: ("BinSpectrum",),
    analytic: ("link_outages", "p_cond_async", "p_cond_sync", "combine_outage"),
    mc: ("select_relay", "trial_stream"),
    model: ("eta", "db_to_linear", "linear_to_db", "SCHEME_OS", "SCHEME_PS", "SCHEMES",
            "OutageEstimate", "SweepSpec", "SweepRow"),
}


@pytest.mark.parametrize("module", [fdrelay], ids=["fdrelay"])
def test_all_names_resolve(module):
    assert module.__all__ == ROOT
    for name in module.__all__:
        assert getattr(module, name) is not None, name
    for home, names in MODULE_ONLY.items():
        for name in names:
            assert getattr(home, name) is not None, (home.__name__, name)
            assert not hasattr(module, name), name
    # the scheme names are declared once, in model
    assert mc.SCHEMES is cli.SCHEMES is model.SCHEMES
    assert model.SweepSpec.__dataclass_fields__["schemes"].default is model.SCHEMES


def test_removed_names_are_gone():
    for module in MODULES:
        exported = getattr(module, "__all__", ())
        for name in REMOVED:
            assert name not in exported, (module.__name__, name)
            assert not hasattr(module, name), (module.__name__, name)


def test_removed_parameters_and_fields_are_gone():
    assert list(inspect.signature(fdrelay.total_outage).parameters) == ["cfg"]
    assert "method" not in inspect.signature(analytic.combine_outage).parameters
    assert "selection_iri" not in {f.name for f in fields(fdrelay.SystemConfig)}
    assert list(inspect.signature(analytic.link_outages).parameters) == ["cfg"]
    assert "real" not in inspect.signature(fdrelay.approx_rate).parameters
    assert "interference_var" not in inspect.signature(fdrelay.link_sinrs).parameters
    draw = inspect.signature(fdrelay.draw_realization).parameters
    assert not {"powers", "phases", "out"} & set(draw)
    assert draw["size"].default is inspect.Parameter.empty     # every draw is a batch
    assert not {"out", "work"} & set(inspect.signature(fdrelay.lambda_spectrum).parameters)
    assert list(inspect.signature(channel.Scratch.take).parameters) == [   # no zeroed take
        "self", "shape", "dtype", "order"]
    assert not hasattr(channel.Scratch(), "first")
    assert list(inspect.signature(model.eta).parameters) == ["cfg"]
    assert not hasattr(channel.ChannelRealization, "from_gains")
    assert not hasattr(model.OutageEstimate, "from_counts")
    with pytest.raises(ModuleNotFoundError):
        importlib.import_module("fdrelay.sfun")
    assert not [m.__name__ for m in MODULES if hasattr(m, "abs2")]


def library_imports(path: Path) -> set[str]:
    # the fdrelay modules a source file imports, relative or absolute
    found = set()
    for node in ast.walk(ast.parse(path.read_text())):
        if isinstance(node, ast.ImportFrom) and node.level:
            found.update([node.module] if node.module else [a.name for a in node.names])
        elif isinstance(node, ast.ImportFrom) and (node.module or "").startswith("fdrelay."):
            found.add(node.module.removeprefix("fdrelay."))
        elif isinstance(node, ast.Import):
            found.update(a.name.removeprefix("fdrelay.") for a in node.names
                         if a.name.startswith("fdrelay."))
    return {name.split(".")[0] for name in found}


def test_import_graph_keeps_the_two_outage_models_apart():
    src = Path(fdrelay.__file__).resolve().parent
    graph = {path.stem: library_imports(path) for path in src.glob("*.py")}
    for engine in ("channel", "fde", "mc"):
        assert "analytic" not in graph[engine], engine
        assert engine not in graph["analytic"], engine
    assert graph == IMPORTS


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
