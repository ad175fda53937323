"""The benchmark's workload configs must pass the config parser, and every
config key must be set by a shipped config or a workload, or be named here.

bench/run.py writes its own configs; a change to rodd.data.CONFIG that
rejects one of them (a removed key, a bound its values break) would fail
every benchmark run, so it fails here first.  The runner is loaded by path
and not edited.
"""

import importlib.util
import os
import sys
from pathlib import Path

import pytest

from rodd.data import CONFIG, parse_config

BENCH = Path(__file__).resolve().parents[1] / "bench"
SHIPPED_CONFIGS = BENCH.parent / "configs"
WORKLOADS = ("pipeline-demo", "detect-wide", "theory-scale")
# The keys no shipped config and no workload sets.  Each is part of the
# paper's method, off or at its library default until a workload varies it:
# adversarial contrastive pre-training, and the joint fine-tuning objective
# with the noise of its views.
UNSET_KEYS = {
    "pretrain.adv_epsilon", "pretrain.adv_steps", "pretrain.adv_step_size",
    "train.mu", "train.aug_gaussian_sigma",
}


@pytest.fixture(scope="module")
def bench_run():
    # The runner pins BLAS threads and turns bytecode writing off when it is
    # imported; undo both for the rest of the test session.
    with pytest.MonkeyPatch.context() as patch:
        for var in ("OPENBLAS_NUM_THREADS", "OMP_NUM_THREADS", "MKL_NUM_THREADS"):
            if var in os.environ:
                patch.setenv(var, os.environ[var])
            else:
                patch.delenv(var, raising=False)
        patch.setattr(sys, "dont_write_bytecode", sys.dont_write_bytecode)
        patch.syspath_prepend(str(BENCH))
        spec = importlib.util.spec_from_file_location("bench_run", BENCH / "run.py")
        module = importlib.util.module_from_spec(spec)
        patch.setitem(sys.modules, "bench_run", module)  # dataclasses look their module up
        spec.loader.exec_module(module)
        yield module


@pytest.mark.parametrize("seed", [0, 1, 2**40])
@pytest.mark.parametrize("workload", WORKLOADS)
def test_workload_configs_parse(bench_run, workload, seed):
    configs = bench_run.make_workload(workload, seed).configs
    assert configs
    for name, text in configs.items():
        cfg = parse_config(text)
        assert cfg.values, name


def test_theory_config_keeps_the_ignored_lr(bench_run):
    text = bench_run.make_workload("theory-scale", 0).configs["theory0/theory.cfg"]
    assert parse_config(text).get("theory.lr") == 0.05


def test_every_key_is_set_by_a_config_or_named(bench_run):
    # A new key that nothing sets fails here until it is set or named above.
    texts = [path.read_text() for path in sorted(SHIPPED_CONFIGS.glob("*.cfg"))]
    texts += [
        text for workload in WORKLOADS
        for text in bench_run.make_workload(workload, 0).configs.values()
    ]
    assert len(texts) == 8  # two shipped, one per pipeline workload, four theory problems
    set_somewhere = set().union(*(parse_config(text).values for text in texts))
    assert set(CONFIG) - set_somewhere == UNSET_KEYS
