"""The benchmark's tracer must find and restore every function it wraps.

bench/tracing.py replaces named rodd functions by module attribute, and its
install raises when one of them is gone, so renaming or removing a traced
function would stop every traced benchmark run; it fails here first.  A
hot path that stops calling a traced name zeroes that layer in every traced
run, so the tests also check that the layers they cover record time.  The
tracer is loaded by path and not edited.
"""

import importlib
import importlib.util
import json
from pathlib import Path

import numpy as np
import pytest

from rodd.contrastive import PretrainConfig
from rodd.data import Dataset, synth_gaussian_mixture
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


def test_severity_sweep_records_corruption_time(tracing):
    from rodd import corruptions

    inputs = np.random.default_rng(1).uniform(0.0, 1.0, size=(200, 16))
    dataset = Dataset(inputs)
    tracer = tracing.Tracer()
    tracer.install()
    try:
        swept = list(corruptions.severity_sweep(dataset, "gaussian_noise", [1, 2, 3, 4, 5], 7))
    finally:
        tracer.uninstall()
    assert len(swept) == 5
    assert tracer.self_s["corruptions.corrupt"] > 0.0
    name = list(tracer._ids).index("corruptions.corrupt")
    assert sum(span[0] == name for span in tracer.spans) == 5  # one span per severity


def test_theory_iterations_count_every_solve(tracing, tmp_path):
    # Every solve verify-theory reports must run where the tracer sees it:
    # a solve in another process adds no count.
    from rodd import cli

    config = Path(__file__).resolve().parents[1] / "configs" / "theory.cfg"
    tracer = tracing.Tracer()
    tracer.install()
    try:
        assert cli.run(["verify-theory", "--config", str(config), "--out", str(tmp_path)]) == 0
    finally:
        tracer.uninstall()
    report = json.loads((tmp_path / "theory_report.json").read_text())
    rows = report["sweep"]["rows"]
    solved = sum(row["iterations"] for row in rows)
    if report["mu"] not in [row["mu"] for row in rows]:  # the lemma's own cold solve
        solved += report["lemma"]["iterations"]
    assert tracer.counts["theory.iterations"] == solved
