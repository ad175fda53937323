"""Quick tests of the benchmark's output checks on small real CLI runs.

Each check must pass on what the program writes and reject the same files
after one value in them is changed.
"""

from __future__ import annotations

import json
import shutil
import sys
from pathlib import Path

import numpy as np
import pytest

sys.path.insert(0, str(Path(__file__).resolve().parents[1] / "src"))
sys.path.insert(0, str(Path(__file__).resolve().parent))

import checks  # noqa: E402
from rodd import cli  # noqa: E402

PIPELINE_CFG = """\
[synth]
classes = 3
per_class = 40
test_per_class = 20
input_dim = 8
ood_n = 30
seed = 3

[model]
hidden_sizes = 16
feature_dim = 4
seed = 3

[pretrain]
epochs = 1
batch_size = 32
seed = 3

[train]
epochs = 5
batch_size = 32
seed = 3

[ood]
quantile = 0.9
mode = mc
mc_draws = 8
mc_noise_sigma = 0.05
target = mc.feat
seed = 5

[corruption]
kind = gaussian_noise
severities = 2
"""

THEORY_CFG = """\
[theory]
class_sizes = 4,3
delta = 0.05
d = 5
mu_values = 1e-2,1
max_iters = 200
seed = 2
"""

NO_FLOOR = {"accuracy": 0.0, "auroc": 0.0, "fpr95": 1.0}


@pytest.fixture(scope="module")
def pipeline_dir(tmp_path_factory):
    out = tmp_path_factory.mktemp("pipeline")
    cfg = out / "run.cfg"
    cfg.write_text(PIPELINE_CFG, encoding="utf-8")
    for stage in ("synth", "pretrain", "train", "fit", "eval"):
        assert cli.run([stage, "--config", str(cfg), "--out", str(out)]) == 0
    x, _ = checks.read_feat(out / "id_test.feat")
    checks.write_feat(out / "mc.feat", x[:12])
    assert cli.run(["score", "--config", str(cfg), "--out", str(out)]) == 0
    return out


@pytest.fixture(scope="module")
def theory_report(tmp_path_factory):
    out = tmp_path_factory.mktemp("theory")
    cfg = out / "theory.cfg"
    cfg.write_text(THEORY_CFG, encoding="utf-8")
    assert cli.run(["verify-theory", "--config", str(cfg), "--out", str(out)]) == 0
    return out / "theory_report.json"


def _copy(src: Path, tmp_path: Path) -> Path:
    dst = tmp_path / "copy"
    shutil.copytree(src, dst)
    return dst


def _edit_json(path: Path, edit) -> None:
    payload = json.loads(path.read_text(encoding="utf-8"))
    edit(payload)
    path.write_text(json.dumps(payload), encoding="utf-8")


def test_brute_auroc_fpr_small_case():
    auroc, fpr, tau = checks.brute_auroc_fpr([3.0, 2.0, 1.0, 0.5], [2.0, 0.0], 0.75)
    assert auroc == (1 + 0.5 + 0 + 0 + 1 + 1 + 1 + 1) / 8
    assert tau == 1.0
    assert fpr == 0.5


def test_checks_pass_on_program_outputs(pipeline_dir, theory_report):
    assert checks.check_fit(pipeline_dir, 0.9) == []
    assert checks.check_eval(pipeline_dir, 0.95, NO_FLOOR) == []
    assert checks.check_mc(pipeline_dir, "mc.feat", 8, 0.05, 5) == []
    assert checks.check_theory(theory_report, 0.05, ["1e-2", "1"], 2) == []


def test_tampered_eval_is_rejected(pipeline_dir, tmp_path):
    out = _copy(pipeline_dir, tmp_path)

    def nudge(payload):
        payload["rows"][0]["auroc"] -= 1e-3

    _edit_json(out / "eval.json", nudge)
    assert any("auroc" in e for e in checks.check_eval(out, 0.95, NO_FLOOR))


def test_quality_floor_is_enforced(pipeline_dir):
    floor = {"accuracy": 1.01, "auroc": 0.0, "fpr95": 1.0}
    assert any("accuracy" in e for e in checks.check_eval(pipeline_dir, 0.95, floor))


def test_tampered_threshold_and_direction_are_rejected(pipeline_dir, tmp_path):
    out = _copy(pipeline_dir, tmp_path)

    def shift(payload):
        payload["threshold"] += 1e-3
        payload["directions"][0] = list(np.roll(payload["directions"][0], 1))

    _edit_json(out / "subspaces.json", shift)
    errors = checks.check_fit(out, 0.9)
    assert any("threshold" in e for e in errors)
    assert any("class 0" in e for e in errors)


def test_tampered_mc_votes_are_rejected(pipeline_dir, tmp_path):
    out = _copy(pipeline_dir, tmp_path)
    path = out / "mc_scores.csv"
    lines = path.read_text(encoding="utf-8").splitlines()
    fields = lines[1].split(",")
    votes = round(float(fields[3]) * 8)
    fields[3] = repr(((votes + 4) % 9) / 8)
    fields[4] = "ID" if float(fields[3]) >= 0.5 else "OOD"
    lines[1] = ",".join(fields)
    path.write_text("\n".join(lines) + "\n", encoding="utf-8")
    assert any("sample 0" in e for e in checks.check_mc(out, "mc.feat", 8, 0.05, 5))


def test_tampered_theory_report_is_rejected(theory_report, tmp_path):
    path = tmp_path / "theory_report.json"
    shutil.copy(theory_report, path)

    def tamper(payload):
        payload["lemma"]["per_class"][0]["tail2"] *= 1.5
        payload["sweep"]["rows"][-1]["lemma_pass"] = False

    _edit_json(path, tamper)
    errors = checks.check_theory(path, 0.05, ["1e-2", "1"], 2)
    assert any("tails" in e for e in errors)
    assert any("lemma_pass" in e for e in errors)
