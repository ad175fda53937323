"""The benchmark's tracer must find and restore every function it wraps.

bench/tracing.py replaces named rodd functions by module attribute, and its
install raises when one of them is gone, so renaming or removing a traced
function would stop every traced benchmark run; it fails here first.  The
tracer is loaded by path and not edited.
"""

import importlib
import importlib.util
from pathlib import Path

import pytest

from rodd.contrastive import PretrainConfig
from rodd.data import synth_gaussian_mixture
from rodd.encoder import build_model

TRACING = Path(__file__).resolve().parents[1] / "bench" / "tracing.py"


@pytest.fixture(scope="module")
def tracing():
    spec = importlib.util.spec_from_file_location("bench_tracing", TRACING)
    module = importlib.util.module_from_spec(spec)
    spec.loader.exec_module(module)
    return module


def bindings(tracing):
    return {
        short: dict(vars(importlib.import_module(f"rodd.{short}"))) for short in tracing.MODULES
    }


def test_install_wraps_every_traced_function(tracing):
    tracer = tracing.Tracer()
    tracer.install()
    try:
        for module, name in tracing.LAYERS:
            assert hasattr(getattr(importlib.import_module(module), name), "__wrapped__"), name
    finally:
        tracer.uninstall()


def test_uninstall_restores_every_binding(tracing):
    before = bindings(tracing)
    tracer = tracing.Tracer()
    tracer.install()
    tracer.uninstall()
    after = bindings(tracing)
    for short, names in before.items():
        assert after[short].keys() == names.keys(), short
        for attr, obj in names.items():
            assert after[short][attr] is obj, f"rodd.{short}.{attr}"


def test_pretrain_records_spectral_loss_time(tracing):
    from rodd import contrastive

    dataset = synth_gaussian_mixture(2, 20, 4, 3.0, 0.3, seed=0)
    model = build_model(4, 2, hidden_sizes=(6,), feature_dim=3, seed=5)
    tracer = tracing.Tracer()
    tracer.install()
    try:
        contrastive.pretrain(model, dataset, PretrainConfig(epochs=1, batch_size=16))
    finally:
        tracer.uninstall()
    assert tracer.self_s["contrastive.pretrain"] > 0.0
    assert tracer.self_s["contrastive.loss"] > 0.0
