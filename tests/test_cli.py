"""Pipeline stages, artifacts, manifests, exit codes, and report determinism."""

import hashlib
import json
import os
import re
import shutil
import subprocess
import sys
from dataclasses import replace
from pathlib import Path

import numpy as np
import pytest

import rodd
from rodd import cli, contrastive, corruptions, encoder, metrics, theory
from rodd.cli import run
from rodd.corruptions import KINDS
from rodd.data import CONFIG, Dataset, read_features, write_features
from rodd.encoder import load_model, save_model

SMALL_CFG = """
[synth]
classes = 3
per_class = 40
test_per_class = 20
input_dim = 8
separation = 6.0
noise_sigma = 1.0
ood_n = 60
ood_offset_norm = 9.0
ood_noise_sigma = 0.5
ood_direction_seed = 5
seed = 3

[model]
hidden_sizes = 16,12
feature_dim = 6
seed = 3

[pretrain]
epochs = 2
batch_size = 16
lr = 0.02
aug_gaussian_sigma = 0.05
seed = 3

[train]
epochs = 4
batch_size = 16
lr = 0.05
input_noise = 0.3
seed = 3

[ood]
quantile = 0.95
mode = single
seed = 3

[eval]
tpr_target = 0.95

[corruption]
kind = gaussian_noise
severities = 1,3
apply_to = ood
seed = 3
"""


@pytest.fixture(scope="module")
def small_config(tmp_path_factory):
    path = tmp_path_factory.mktemp("cfg") / "small.cfg"
    path.write_text(SMALL_CFG)
    return path


@pytest.fixture(scope="module")
def pipeline_dir(tmp_path_factory, small_config):
    out = tmp_path_factory.mktemp("run")
    for command in ("synth", "pretrain", "train", "fit", "eval"):
        assert run([command, "--config", str(small_config), "--out", str(out)]) == 0
    return out


def _run_cli(argv):
    """rodd.cli in a fresh interpreter, with numpy's warnings as they ship."""
    env = dict(os.environ, PYTHONPATH=str(Path(rodd.__file__).parents[1]))
    return subprocess.run([sys.executable, "-m", "rodd.cli", *argv], env=env,
                          capture_output=True, text=True, timeout=120)


class TestPipeline:
    def test_artifacts_exist(self, pipeline_dir):
        for name in (
            "id_train.feat",
            "id_test.feat",
            "ood.feat",
            "pretrain.ckpt",
            "model.ckpt",
            "pretrain_history.json",
            "train_history.json",
            "subspaces.json",
            "id_train_features.feat",
            "eval.json",
            "eval.csv",
            "id_test_scores.csv",
            "ood_scores.csv",
            "run.json",
        ):
            assert (pipeline_dir / name).exists(), name

    def test_eval_rows_cover_clean_and_severities(self, pipeline_dir):
        payload = json.loads((pipeline_dir / "eval.json").read_text())
        rows = payload["rows"]
        assert [(r["corruption"], r["severity"]) for r in rows] == [
            ("none", 0),
            ("gaussian_noise", 1),
            ("gaussian_noise", 3),
        ]
        for row in rows:
            assert set(row.keys()) == {
                "ood_set",
                "corruption",
                "severity",
                "fpr95",
                "auroc",
                "detection_error",
                "n_id",
                "n_ood",
                "threshold_used",
            }
        assert payload["id_accuracy"] is not None

    @pytest.mark.parametrize("kind", KINDS)
    def test_one_clean_row_whatever_the_kind(self, tmp_path, pipeline_dir, kind):
        # The clean row is the only one labelled "none".
        cfg = tmp_path / "kind.cfg"
        cfg.write_text(SMALL_CFG.replace("kind = gaussian_noise", f"kind = {kind}"))
        out = tmp_path / "o"
        shutil.copytree(pipeline_dir, out)
        assert run(["eval", "--config", str(cfg), "--out", str(out)]) == 0
        rows = json.loads((out / "eval.json").read_text())["rows"]
        assert [row["corruption"] for row in rows] == ["none", kind, kind]
        lines = (out / "eval.csv").read_text().splitlines()[1:]
        assert [line.split(",")[1] for line in lines] == ["none", kind, kind]

    def test_eval_csv_header(self, pipeline_dir):
        header = (pipeline_dir / "eval.csv").read_text().split("\n")[0]
        assert header == (
            "ood_set,corruption,severity,fpr95,auroc,detection_error,n_id,n_ood,threshold_used"
        )

    def test_eval_csv_cells_are_the_json_rows(self, pipeline_dir):
        rows = json.loads((pipeline_dir / "eval.json").read_text())["rows"]
        lines = (pipeline_dir / "eval.csv").read_text().splitlines()
        assert len(lines) == len(rows) + 1
        for line, row in zip(lines[1:], rows):
            assert lines[0].split(",") == list(row)
            cells = [repr(v) if isinstance(v, float) else str(v) for v in row.values()]
            assert line.split(",") == cells

    def test_manifest_accumulates_stages(self, pipeline_dir, small_config):
        manifest = json.loads((pipeline_dir / "run.json").read_text())
        commands = [entry["command"] for entry in manifest["runs"]]
        assert commands == ["synth", "pretrain", "train", "fit", "eval"]
        for entry in manifest["runs"]:
            assert len(entry["config_sha256"]) == 64
            assert "timestamp" in entry and "artifacts" in entry

    def test_manifest_records_each_stage_seed(self, pipeline_dir):
        runs = json.loads((pipeline_dir / "run.json").read_text())["runs"][:5]
        assert [(entry["command"], entry["seed"]) for entry in runs] == [
            ("synth", 3), ("pretrain", 3), ("train", 3), ("fit", None), ("eval", 3)
        ]

    def test_score_command_single_mode(self, pipeline_dir, small_config):
        assert run(["score", "--config", str(small_config), "--out", str(pipeline_dir)]) == 0
        lines = (pipeline_dir / "id_test_scores.csv").read_text().strip().split("\n")
        assert lines[0] == "sample_id,delta,argmin_class,mc_probability,decision"
        assert len(lines) == 61  # header + 3 classes * 20 test samples

    def test_corrupt_command_writes_files(self, pipeline_dir, small_config):
        assert run(["corrupt", "--config", str(small_config), "--out", str(pipeline_dir)]) == 0
        for severity in (1, 3):
            path = pipeline_dir / f"ood_gaussian_noise_s{severity}.feat"
            feats, labels = read_features(path)
            assert feats.shape[0] == 60
            assert labels is None

    @pytest.mark.parametrize("apply_to, source", [("ood", "ood"), ("id", "id_test")])
    def test_corrupt_writes_the_sets_eval_sweeps(self, tmp_path, pipeline_dir, apply_to, source):
        # corrupt follows corruption.apply_to: each file holds, row for row,
        # a corrupted set eval scores under the same seed.
        cfg = tmp_path / "apply.cfg"
        cfg.write_text(SMALL_CFG.replace("apply_to = ood", f"apply_to = {apply_to}"))
        out = tmp_path / "o"
        shutil.copytree(pipeline_dir, out)
        assert run(["corrupt", "--config", str(cfg), "--out", str(out)]) == 0
        names = [f"{source}_gaussian_noise_s{severity}.feat" for severity in (1, 3)]
        written = json.loads((out / "run.json").read_text())["runs"][-1]["artifacts"]
        assert written == [str(out / name) for name in names]
        feats, labels = read_features(out / f"{source}.feat")
        clean = Dataset(feats, labels)
        sweep = corruptions.severity_sweep(clean, "gaussian_noise", (1, 3), 3)
        for name, (_, corrupted) in zip(names, sweep, strict=True):
            expected = tmp_path / name
            write_features(expected, corrupted.inputs, corrupted.labels)
            assert (out / name).read_bytes() == expected.read_bytes(), name

    def test_frozen_projection_through_checkpoints(self, pipeline_dir):
        model = load_model(pipeline_dir / "model.ckpt")
        gram = model.class_proj.T @ model.class_proj
        assert np.abs(gram - np.eye(model.n_classes)).max() <= 1e-8

    def test_train_encodes_its_batches_and_one_accuracy_pass(
        self, tmp_path, pipeline_dir, small_config, body_rows
    ):
        out = tmp_path / "o"
        shutil.copytree(pipeline_dir, out)
        assert run(["train", "--config", str(small_config), "--out", str(out)]) == 0
        inputs, labels = read_features(out / "id_train.feat")
        # 120 rows in batches of 16 (the 8-row tail trains) for 4 epochs,
        # then one clean pass over all of them.
        assert body_rows == ([16] * 7 + [8]) * 4 + [len(labels)]
        model = load_model(out / "model.ckpt")
        logits = encoder.head_logits(model, encoder.features(model, inputs))
        payload = json.loads((out / "train_history.json").read_text())
        assert list(payload) == ["history", "accuracy"]
        assert len(payload["history"]) == 4
        assert payload["accuracy"] == metrics.accuracy(logits, labels)

    def test_train_without_epochs_encodes_nothing(self, tmp_path, pipeline_dir, body_rows):
        cfg = tmp_path / "no_epochs.cfg"
        cfg.write_text(SMALL_CFG.replace("[train]\nepochs = 4", "[train]\nepochs = 0"))
        out = tmp_path / "o"
        shutil.copytree(pipeline_dir, out)
        assert run(["train", "--config", str(cfg), "--out", str(out)]) == 0
        assert body_rows == []
        payload = json.loads((out / "train_history.json").read_text())
        assert payload == {"history": [], "accuracy": None}


    def test_eval_seed_override_sweeps_with_that_seed(self, tmp_path, pipeline_dir, small_config):
        seeded = tmp_path / "seed99.cfg"
        seeded.write_text(SMALL_CFG.replace("apply_to = ood\nseed = 3", "apply_to = ood\nseed = 99"))
        reports = {}
        for name, argv in (
            ("config", ["--config", str(seeded)]),
            ("override", ["--config", str(small_config), "--seed", "99"]),
            ("default", ["--config", str(small_config)]),
        ):
            out = tmp_path / name
            shutil.copytree(pipeline_dir, out)
            (out / "run.json").unlink()
            assert run(["eval", "--out", str(out), *argv]) == 0
            reports[name] = (out / "eval.csv").read_bytes(), (out / "eval.json").read_bytes()
            (entry,) = json.loads((out / "run.json").read_text())["runs"]
            assert entry["seed"] == (3 if name == "default" else 99)
        assert reports["override"] == reports["config"]
        assert reports["default"] != reports["config"]
        assert reports["default"] == ((pipeline_dir / "eval.csv").read_bytes(),
                                      (pipeline_dir / "eval.json").read_bytes())


class TestDeterminism:
    def test_reports_byte_identical_across_reruns(self, tmp_path, small_config):
        # Monte-Carlo scoring of the 120 training rows at 150 draws a row:
        # six chunks, shared between the calling thread and a helper thread.
        mc_cfg = tmp_path / "mc.cfg"
        mc_cfg.write_text(
            SMALL_CFG.replace("mode = single", "mode = mc\nmc_draws = 150\ntarget = id_train.feat")
        )
        outputs = []
        for name in ("a", "b"):
            out = tmp_path / name
            for command in ("synth", "pretrain", "train", "fit", "eval"):
                assert run([command, "--config", str(small_config), "--out", str(out)]) == 0
            assert run(["score", "--config", str(mc_cfg), "--out", str(out)]) == 0
            # Every artifact the six stages write; run.json holds timestamps.
            outputs.append(
                {path.name: path.read_bytes() for path in out.iterdir() if path.name != "run.json"}
            )
        assert sorted(outputs[0]) == [
            "eval.csv", "eval.json", "id_test.feat", "id_test_scores.csv", "id_train.feat",
            "id_train_features.feat", "id_train_scores.csv", "model.ckpt", "ood.feat",
            "ood_scores.csv", "pretrain.ckpt", "pretrain_history.json", "subspaces.json",
            "train_history.json",
        ]
        assert outputs[0] == outputs[1]

    def test_train_rerun_in_place_is_identical(self, tmp_path, small_config):
        out = tmp_path / "t"
        for command in ("synth", "pretrain", "train"):
            assert run([command, "--config", str(small_config), "--out", str(out)]) == 0
        pretrained = (out / "pretrain.ckpt").read_bytes()
        first = (out / "model.ckpt").read_bytes()
        assert first != pretrained
        assert run(["train", "--config", str(small_config), "--out", str(out)]) == 0
        assert (out / "model.ckpt").read_bytes() == first
        assert (out / "pretrain.ckpt").read_bytes() == pretrained

    def test_every_stage_rerun_in_place_is_identical(self, tmp_path, small_config):
        # Run every stage, then rerun each in the same order in the same
        # directory.  A rerun must write the bytes that stage's first run
        # wrote and touch nothing else, and its run.json entry must list, in
        # write order, exactly the files whose mtime it changed.
        mc_cfg = tmp_path / "mc.cfg"
        mc_cfg.write_text(SMALL_CFG.replace("mode = single", "mode = mc"))
        theory_cfg = tmp_path / "theory.cfg"
        theory_cfg.write_text(THEORY_CFG)
        steps = [(command, small_config) for command in
                 ("synth", "pretrain", "train", "fit", "score", "eval", "corrupt")]
        steps += [("score", mc_cfg), ("verify-theory", theory_cfg)]
        writes = {
            "synth": ["id_train.feat", "id_test.feat", "ood.feat"],
            "pretrain": ["pretrain.ckpt", "pretrain_history.json"],
            "train": ["model.ckpt", "train_history.json"],
            "fit": ["id_train_features.feat", "subspaces.json"],
            "score": ["id_test_scores.csv"],
            "eval": ["eval.json", "eval.csv", "id_test_scores.csv", "ood_scores.csv"],
            "corrupt": ["ood_gaussian_noise_s1.feat", "ood_gaussian_noise_s3.feat"],
            "verify-theory": ["theory_report.json"],
        }
        out = tmp_path / "run"
        after = []
        for command, cfg in steps:
            assert run([command, "--config", str(cfg), "--out", str(out)]) == 0
            after.append({path.name: path.read_bytes() for path in out.iterdir()})
        stamp = 10**18  # 2001-09-09, before any file here was written
        for (command, cfg), first in zip(steps, after):
            before = {path.name: path.read_bytes() for path in out.iterdir()}
            for path in out.iterdir():
                os.utime(path, ns=(stamp, stamp))
            assert run([command, "--config", str(cfg), "--out", str(out)]) == 0
            files = {path.name: path.read_bytes() for path in out.iterdir()}
            del files["run.json"], before["run.json"]
            assert files == {**before, **{name: first[name] for name in writes[command]}}, command
            changed = {path.name for path in out.iterdir() if path.stat().st_mtime_ns != stamp}
            listed = json.loads((out / "run.json").read_text())["runs"][-1]["artifacts"]
            assert listed == [str(out / name) for name in writes[command]]
            assert changed == {"run.json", *writes[command]}

    def test_artifacts_do_not_depend_on_blas_threads(self, tmp_path, small_config):
        # The small pipeline and the shipped theory config, each run in one
        # fresh interpreter with the BLAS thread counts unset and with both
        # pinned to 1.
        script = (
            "import sys\n"
            "from rodd.cli import run\n"
            "small, theory, out = sys.argv[1:]\n"
            "for stage in ('synth', 'pretrain', 'train', 'fit', 'score', 'eval', 'corrupt'):\n"
            "    assert run([stage, '--config', small, '--out', out]) == 0\n"
            "assert run(['verify-theory', '--config', theory, '--out', out]) == 0\n"
        )
        pinned = {"OPENBLAS_NUM_THREADS": "1", "OMP_NUM_THREADS": "1"}
        base = {k: v for k, v in os.environ.items() if k not in pinned}
        base["PYTHONPATH"] = str(Path(rodd.__file__).parents[1])
        outputs = []
        for name, threads in (("default", {}), ("one", pinned)):
            out = tmp_path / name
            argv = [sys.executable, "-c", script, str(small_config), str(SHIPPED_THEORY_CFG), str(out)]
            subprocess.run(argv, env={**base, **threads}, check=True, timeout=300)
            outputs.append(
                {path.name: path.read_bytes() for path in out.iterdir() if path.name != "run.json"}
            )
        assert len(outputs[0]) == 16 and "theory_report.json" in outputs[0]
        assert outputs[0] == outputs[1]

    def test_theory_report_byte_identical_across_reruns(self, tmp_path):
        cfg = tmp_path / "theory.cfg"
        cfg.write_text(THEORY_CFG)
        reports = []
        for name in ("a", "b"):
            out = tmp_path / name
            assert run(["verify-theory", "--config", str(cfg), "--out", str(out)]) == 0
            reports.append((out / "theory_report.json").read_bytes())
        assert reports[0] == reports[1]


class TestMechanismsFollowTheirMagnitudes:
    """Adversarial pre-training runs when pretrain.adv_epsilon > 0 and the
    joint objective when train.mu > 0: each stage writes the checkpoint the
    library gives with the same settings."""

    @staticmethod
    def id_train(out):
        feats, labels = read_features(out / "id_train.feat")
        return Dataset(feats, labels)

    @staticmethod
    def small_model():
        return encoder.build_model(8, 3, hidden_sizes=(16, 12), feature_dim=6, seed=3)

    def test_adversarial_pretrain(self, tmp_path, small_config):
        cfg = tmp_path / "adv.cfg"
        cfg.write_text(SMALL_CFG.replace("[pretrain]\n", "[pretrain]\nadv_epsilon = 0.03\n"))
        out, plain = tmp_path / "adv", tmp_path / "plain"
        for config, where in ((cfg, out), (small_config, plain)):
            for command in ("synth", "pretrain"):
                assert run([command, "--config", str(config), "--out", str(where)]) == 0
        adv = contrastive.AdversarialSpec(0.03, 3, 0.01)
        spec = contrastive.PretrainConfig(
            epochs=2, batch_size=16, aug_gaussian_sigma=0.05, adv=adv, seed=3
        )
        model, _ = contrastive.pretrain(self.small_model(), self.id_train(out), spec)
        save_model(tmp_path / "library.ckpt", model)
        written = (out / "pretrain.ckpt").read_bytes()
        assert written == (tmp_path / "library.ckpt").read_bytes()
        assert written != (plain / "pretrain.ckpt").read_bytes()

    def test_joint_objective_train(self, tmp_path):
        cfg = tmp_path / "joint.cfg"
        cfg.write_text(SMALL_CFG.replace("input_noise = 0.3", "mu = 0.5"))
        out = tmp_path / "joint"
        for command in ("synth", "train"):  # no pretrain.ckpt: train builds the model
            assert run([command, "--config", str(cfg), "--out", str(out)]) == 0
        spec = encoder.TrainConfig(epochs=4, batch_size=16, lr=0.05, mu=0.5, seed=3)
        model, _ = encoder.train(self.small_model(), self.id_train(out), spec)
        save_model(tmp_path / "library.ckpt", model)
        assert (out / "model.ckpt").read_bytes() == (tmp_path / "library.ckpt").read_bytes()


class TestExitCodes:
    def test_unknown_subcommand(self, small_config, capsys):
        assert run(["transmogrify", "--config", str(small_config), "--out", "/tmp/x"]) == 1
        assert "usage" in capsys.readouterr().err

    @pytest.mark.parametrize("stage", [[], *([name] for name in cli._HANDLERS)])
    def test_help_exits_zero(self, stage):
        proc = _run_cli([*stage, "--help"])
        assert (proc.returncode, proc.stderr) == (0, "")
        assert proc.stdout.startswith("usage: rodd")

    def test_import_loads_no_thread_pool(self):
        # Helper threads are a Monte-Carlo scoring detail; importing the CLI
        # must not pay for concurrent.futures and the logging it imports.
        env = dict(os.environ, PYTHONPATH=str(Path(rodd.__file__).parents[1]))
        code = ("import sys, rodd.cli; "
                "print([m in sys.modules for m in ('concurrent.futures', 'multiprocessing')])")
        proc = subprocess.run(
            [sys.executable, "-c", code], env=env, capture_output=True, text=True, timeout=60
        )
        assert (proc.returncode, proc.stdout) == (0, "[False, False]\n")

    def test_module_entry_point(self, tmp_path):
        env = dict(os.environ, PYTHONPATH=str(Path(rodd.__file__).parents[1]))
        proc = subprocess.run(
            [sys.executable, "-m", "rodd.cli", "transmogrify", "--config", "x", "--out", "y"],
            cwd=tmp_path,
            env=env,
            capture_output=True,
            text=True,
            timeout=60,
        )
        assert proc.returncode == 1
        assert "usage" in proc.stderr

    @pytest.mark.parametrize(
        "case, expect",
        [
            ("no_directions", "missing directions"),
            ("no_threshold", "missing threshold"),
            ("no_quantile_used", "missing quantile_used"),
            ("not_json", "not valid JSON"),
            ("nan_direction", "non-finite"),
            ("not_unit_norm", "not 1 within"),
            ("wrong_length", "feature_dim is 6"),
        ],
    )
    def test_bad_subspaces_json(self, tmp_path, small_config, pipeline_dir, capsys, case, expect):
        out = tmp_path / "scored"
        shutil.copytree(pipeline_dir, out)
        path = out / "subspaces.json"
        payload = json.loads(path.read_text())
        if case.startswith("no_"):
            del payload[case[3:]]
        elif case == "nan_direction":
            payload["directions"][0][0] = float("nan")
        elif case == "not_unit_norm":
            payload["directions"][1] = [2.0 * x for x in payload["directions"][1]]
        elif case == "wrong_length":
            payload["directions"] = [u + [0.0] for u in payload["directions"]]
        path.write_text("{not json" if case == "not_json" else json.dumps(payload))
        assert run(["score", "--config", str(small_config), "--out", str(out)]) == 1
        assert expect in capsys.readouterr().err

    @pytest.mark.parametrize(
        "manifest, expect",
        [
            ("truncated", "run.json is not valid JSON"),
            ('{"runs": 3}', "must be an object with a 'runs' list"),
        ],
    )
    def test_bad_manifest(self, tmp_path, small_config, capsys, manifest, expect):
        out = tmp_path / "m"
        assert run(["synth", "--config", str(small_config), "--out", str(out)]) == 0
        path = out / "run.json"
        if manifest == "truncated":
            path.write_bytes(path.read_bytes()[:40])
        else:
            path.write_text(manifest)
        (out / "id_train.feat").unlink()
        assert run(["synth", "--config", str(small_config), "--out", str(out)]) == 1
        assert expect in capsys.readouterr().err
        assert not (out / "id_train.feat").exists()  # rejected before the stage ran

    @pytest.mark.parametrize(
        "command, section, key",
        [
            ("pretrain", "pretrain", "batch_size"),
            ("verify-theory", "theory", "max_iters"),
            ("verify-theory", "theory", "d"),
            ("pretrain", "model", "feature_dim"),
            ("score", "ood", "mc_draws"),
        ],
    )
    def test_count_below_one(self, tmp_path, capsys, command, section, key):
        cfg = tmp_path / "zero.cfg"
        cfg.write_text(f"[{section}]\n{key} = 0\n")
        assert run([command, "--config", str(cfg), "--out", str(tmp_path / "o")]) == 1
        assert f"line 2: '{section}.{key}' must be >= 1" in capsys.readouterr().err

    @pytest.mark.parametrize(
        "command, key, value, message",
        [
            ("corrupt", "corruption.severities", "1,,3,", "has an empty entry in '1,,3,'"),
            ("pretrain", "model.hidden_sizes", ",16", "has an empty entry in ',16'"),
            ("corrupt", "corruption.severities", "5,1,3,3", "repeats an entry in '5,1,3,3'"),
            ("verify-theory", "theory.mu_values", "1,1e-4,1", "repeats an entry in '1,1e-4,1'"),
        ],
    )
    def test_malformed_list(self, tmp_path, capsys, command, key, value, message):
        section, name = key.split(".")
        cfg = tmp_path / "bad.cfg"
        cfg.write_text(f"[{section}]\n{name} = {value}\n")
        out = tmp_path / "o"
        assert run([command, "--config", str(cfg), "--out", str(out)]) == 1
        err = capsys.readouterr().err
        assert f"line 2: '{key}' {message}" in err
        assert "Traceback" not in err
        assert not out.exists()  # rejected before the stage ran

    @pytest.mark.parametrize(
        "command, section, key, value, bound",
        [
            ("synth", "synth", "per_class", "0", ">= 1"),
            ("pretrain", "pretrain", "lr", "-0.5", "> 0"),
            ("train", "train", "lr", "0", "> 0"),
            ("pretrain", "pretrain", "momentum", "1.5", "< 1"),
            ("train", "train", "momentum", "-0.5", ">= 0"),
            ("synth", "synth", "noise_sigma", "-1", ">= 0"),
            ("synth", "synth", "ood_noise_sigma", "-0.5", ">= 0"),
            ("pretrain", "pretrain", "aug_gaussian_sigma", "-0.05", ">= 0"),
            ("train", "train", "aug_gaussian_sigma", "-0.05", ">= 0"),
            ("train", "train", "input_noise", "-1", ">= 0"),
            ("score", "ood", "mc_noise_sigma", "-0.01", ">= 0"),
            ("fit", "ood", "quantile", "1.5", "< 1"),
            ("eval", "eval", "tpr_target", "0", "> 0"),
            ("synth", "synth", "seed", "-1", ">= 0"),
            ("synth", "synth", "ood_direction_seed", "-1", ">= 0"),
            ("pretrain", "model", "seed", "-2", ">= 0"),
            ("pretrain", "pretrain", "seed", str(2**64), f"< {2**64}"),
            ("train", "train", "seed", "-1", ">= 0"),
            ("score", "ood", "seed", "-1", ">= 0"),
            ("corrupt", "corruption", "seed", "-3", ">= 0"),
            ("eval", "corruption", "seed", "-3", ">= 0"),
            ("verify-theory", "theory", "seed", str(2**64 + 1), f"< {2**64}"),
            ("pretrain", "pretrain", "epochs", "-3", ">= 0"),
            ("train", "train", "epochs", "-3", ">= 0"),
            ("synth", "synth", "test_per_class", "0", ">= 1"),
            ("verify-theory", "theory", "tol", "-1", ">= 0"),
            # (1 + delta)^2 used to overflow in AugGraph with a traceback.
            ("verify-theory", "theory", "delta", "1e155", "<= 1e+150"),
            ("verify-theory", "theory", "delta", "-0.1", ">= 0"),
            ("score", "ood", "mode", "multi", "one of 'single', 'mc'"),
            ("eval", "eval", "method", "energy", "one of 'rodd', 'msp'"),
            ("eval", "corruption", "apply_to", "both", "one of 'ood', 'id'"),
            ("verify-theory", "theory", "normalization", "unit", "one of 'none', "),
        ],
    )
    def test_optimizer_and_size_bounds(self, tmp_path, capsys, command, section, key, value, bound):
        cfg = tmp_path / "bad.cfg"
        cfg.write_text(f"[{section}]\n{key} = {value}\n")
        out = tmp_path / "o"
        assert run([command, "--config", str(cfg), "--out", str(out)]) == 1
        err = capsys.readouterr().err
        assert f"line 2: '{section}.{key}' must be {bound}" in err
        assert "Traceback" not in err
        assert not out.exists()  # rejected before the stage ran

    @pytest.mark.parametrize(
        "command, section, key, value, message",
        [
            ("corrupt", "corruption", "severities", "1,6", "every 'corruption.severities' entry must be <= 5"),
            ("eval", "corruption", "severities", "0,1", "every 'corruption.severities' entry must be >= 1"),
            ("verify-theory", "theory", "class_sizes", "6,0", "every 'theory.class_sizes' entry must be >= 1"),
            ("verify-theory", "theory", "mu_values", "1e-4,-1", "every 'theory.mu_values' entry must be >= 0"),
            ("verify-theory", "theory", "mu_values", "1e400", "every 'theory.mu_values' entry must be finite"),
            ("verify-theory", "theory", "mu_values", "1,nan", "every 'theory.mu_values' entry must be finite"),
            ("verify-theory", "theory", "mu_values", "1,big", "'theory.mu_values' must be a comma-separated number list"),
            ("corrupt", "corruption", "kind", "fog", "'corruption.kind' must be one of 'gaussian_noise', "),
            # Retired values: no corruption is an unset kind, and the
            # pipeline's graph is unit-spectral.
            ("eval", "corruption", "kind", "none", "'corruption.kind' must be one of 'gaussian_noise', "),
            (
                "verify-theory", "theory", "normalization", "doubly-stochastic-per-block",
                "'theory.normalization' must be one of 'none', 'unit-spectral-per-block', "
                "got 'doubly-stochastic-per-block'",
            ),
            ("corrupt", "corruption", "severities", "", "'corruption.severities' must list at least one value"),
            ("eval", "corruption", "severities", "", "'corruption.severities' must list at least one value"),
            ("verify-theory", "theory", "mu_values", "", "'theory.mu_values' must list at least one value"),
            ("verify-theory", "theory", "class_sizes", " ,", "'theory.class_sizes' must list at least one value"),
            ("pretrain", "model", "hidden_sizes", "", "'model.hidden_sizes' must list at least one value"),
        ],
    )
    def test_list_entries_and_kinds_checked_at_parse(
        self, tmp_path, capsys, command, section, key, value, message
    ):
        cfg = tmp_path / "bad.cfg"
        cfg.write_text(f"# checked before any artifact\n[{section}]\n{key} = {value}\n")
        out = tmp_path / "o"
        assert run([command, "--config", str(cfg), "--out", str(out)]) == 1
        err = capsys.readouterr().err
        assert f"line 3: {message}" in err
        assert "Traceback" not in err
        assert not out.exists()  # rejected before the stage ran

    @pytest.mark.parametrize("widths", ["0", "16,0", "16,-3"])
    def test_layer_width_below_one(self, tmp_path, capsys, widths):
        cfg = tmp_path / "w.cfg"
        cfg.write_text(f"[model]\nhidden_sizes = {widths}\n")
        assert run(["pretrain", "--config", str(cfg), "--out", str(tmp_path / "o")]) == 1
        assert "line 2: every 'model.hidden_sizes' entry must be >= 1" in capsys.readouterr().err

    @pytest.mark.parametrize("kind", ["box_blur", "pixelate"])
    @pytest.mark.parametrize("command", ["corrupt", "eval"])
    def test_grid_corruption_rejected_at_parse(self, tmp_path, capsys, kind, command):
        cfg = tmp_path / "grid.cfg"
        cfg.write_text(SMALL_CFG.replace("kind = gaussian_noise", f"kind = {kind}"))
        out = tmp_path / "g"
        assert run([command, "--config", str(cfg), "--out", str(out)]) == 1
        err = capsys.readouterr().err
        assert "line 43: 'corruption.kind' must be one of 'gaussian_noise', " in err
        assert f"got '{kind}'" in err
        assert not out.exists()  # rejected before the stage touched its inputs

    def test_missing_config_file(self, tmp_path):
        assert run(["synth", "--config", str(tmp_path / "nope.cfg"), "--out", str(tmp_path)]) == 1

    def test_config_parse_error(self, tmp_path, capsys):
        bad = tmp_path / "bad.cfg"
        bad.write_text("[synth]\nwhatever = 1\n")
        assert run(["synth", "--config", str(bad), "--out", str(tmp_path / "o")]) == 1
        assert "line 2" in capsys.readouterr().err

    def test_pipe_config_records_the_bytes_it_parsed(self, tmp_path, small_config):
        # A pipe can be read once: the hash must come from the bytes parsed,
        # not from a second read that finds the pipe drained.
        text = small_config.read_bytes()
        read_end, write_end = os.pipe()
        try:
            os.write(write_end, text)
            os.close(write_end)
            argv = ["synth", "--config", f"/dev/fd/{read_end}", "--out", str(tmp_path)]
            assert run(argv) == 0
        finally:
            os.close(read_end)
        (entry,) = json.loads((tmp_path / "run.json").read_text())["runs"]
        assert entry["config_sha256"] == hashlib.sha256(text).hexdigest()

    def test_config_that_is_not_utf8(self, tmp_path, capsys):
        bad = tmp_path / "bad.cfg"
        bad.write_bytes(b"[synth]\nseed = 3  # \xff\n")
        out = tmp_path / "o"
        assert run(["synth", "--config", str(bad), "--out", str(out)]) == 1
        captured = capsys.readouterr()
        assert captured.out == ""
        assert captured.err.startswith(f"error: config {bad} is not valid UTF-8: ")
        assert captured.err.count("\n") == 1
        assert not out.exists()  # rejected before any artifact

    def test_missing_artifact(self, tmp_path, small_config, capsys):
        out = tmp_path / "empty"
        assert run(["eval", "--config", str(small_config), "--out", str(out)]) == 1
        assert "missing artifact" in capsys.readouterr().err

    def test_seed_override_changes_synth(self, tmp_path, small_config):
        out_a, out_b = tmp_path / "sa", tmp_path / "sb"
        assert run(["synth", "--config", str(small_config), "--out", str(out_a)]) == 0
        assert run(["synth", "--config", str(small_config), "--out", str(out_b), "--seed", "99"]) == 0
        a, _ = read_features(out_a / "id_train.feat")
        b, _ = read_features(out_b / "id_train.feat")
        assert not np.array_equal(a, b)

    @pytest.mark.parametrize("command", ["synth", "pretrain", "score", "corrupt", "eval"])
    @pytest.mark.parametrize("seed", ["-5", str(2**64), "seven"])
    def test_seed_override_outside_u64(self, tmp_path, small_config, capsys, command, seed):
        out = tmp_path / "o"
        argv = [command, "--config", str(small_config), "--out", str(out), "--seed", seed]
        assert run(argv) == 1
        err = capsys.readouterr().err
        assert "argument --seed:" in err
        assert "[0, 2**64)" in err or "expected an integer" in err
        assert "Traceback" not in err
        assert not out.exists()

    def test_largest_seed_override(self, tmp_path, small_config):
        argv = ["synth", "--config", str(small_config), "--out", str(tmp_path / "big")]
        assert run(argv + ["--seed", str(2**64 - 1)]) == 0

    def test_diverging_pretrain_exits_two(self, tmp_path, capsys):
        diverging = tmp_path / "diverge.cfg"
        diverging.write_text(SMALL_CFG.replace("lr = 0.02", "lr = 1e200"))
        out = tmp_path / "pout"
        assert run(["synth", "--config", str(diverging), "--out", str(out)]) == 0
        with np.errstate(all="ignore"):
            code = run(["pretrain", "--config", str(diverging), "--out", str(out)])
        err = capsys.readouterr().err
        assert code == 2
        assert "numeric failure: non-finite features at epoch 0" in err
        assert "Traceback" not in err

    def test_overflowing_pretrain_gradient_exits_two(self, tmp_path, small_config, capsys):
        # One input of 3e38 leaves the features finite, but the squared
        # gradient norm overflows: a history of Infinity is not valid JSON.
        out = tmp_path / "big"
        assert run(["synth", "--config", str(small_config), "--out", str(out)]) == 0
        feats, labels = read_features(out / "id_train.feat")
        feats[0, 0] = 3e38
        write_features(out / "id_train.feat", feats, labels)
        capsys.readouterr()
        with np.errstate(all="ignore"):
            code = run(["pretrain", "--config", str(small_config), "--out", str(out)])
        err = capsys.readouterr().err
        assert code == 2
        assert "numeric failure: non-finite gradient norm at epoch 0" in err
        assert "Traceback" not in err
        history = out / "pretrain_history.json"
        assert not history.exists() or "Infinity" not in history.read_text()

    def test_overflowing_pretrain_gradient_warns_nothing(self, tmp_path, small_config):
        # The same run in a fresh interpreter, with numpy's warnings as they
        # ship: the numeric failure is the only thing on stderr.
        out = tmp_path / "big"
        assert run(["synth", "--config", str(small_config), "--out", str(out)]) == 0
        feats, labels = read_features(out / "id_train.feat")
        feats[0, 0] = 3e38
        write_features(out / "id_train.feat", feats, labels)
        proc = _run_cli(["pretrain", "--config", str(small_config), "--out", str(out)])
        assert proc.returncode == 2
        assert proc.stderr == "numeric failure: non-finite gradient norm at epoch 0\n"

    @pytest.mark.parametrize(
        "command, config_text, message",
        [
            ("train", "[train]\nbatch_size = 1\n", "line 2: 'train.batch_size' must be >= 2, got 1"),
            (None, "", "training needs at least 2 rows and a batch_size of at least 2, got 1 rows"),
            ("train", "[train]\nmu = -1\n", "line 2: 'train.mu' must be >= 0"),
            (
                "pretrain",
                "[pretrain]\nadv_epsilon = 0.1\nadv_steps = 2\nadv_step_size = 0.01\n",
                "steps * step_size must reach epsilon, got 2 * 0.01 < 0.1",
            ),
            # The joint objective draws its own view noise; input_noise was
            # dropped without a word.
            ("train", "[train]\nmu = 0.5\ninput_noise = 0.3\n",
             "train.input_noise applies only at train.mu = 0, got mu 0.5 and input_noise 0.3"),
            # Both used to fail only after the whole sweep, or blamed delta.
            ("verify-theory", "[theory]\nmu = -1\n", "line 2: 'theory.mu' must be >= 0, got -1.0"),
            ("verify-theory", "[theory]\neta = -1\n", "line 2: 'theory.eta' must be >= 0, got -1.0"),
            ("pretrain", "[pretrain]\nadversarial = true\n", "line 2: unknown key 'pretrain.adversarial'"),
            ("train", "[train]\ncontrastive = true\n", "line 2: unknown key 'train.contrastive'"),
            ("fit", "[ood]\nabs_cosine = true\n", "line 2: unknown key 'ood.abs_cosine'"),
            ("pretrain", "[pretrain]\naug_mask_fraction = 0.1\n",
             "line 2: unknown key 'pretrain.aug_mask_fraction'"),
            ("pretrain", "[pretrain]\naug_scale_jitter = 0.1\n",
             "line 2: unknown key 'pretrain.aug_scale_jitter'"),
            ("train", "[train]\ngrad_clip = 5\n", "line 2: unknown key 'train.grad_clip'"),
            ("corrupt", "[corruption]\ntarget = ood.feat\n",
             "line 2: unknown key 'corruption.target'"),
            # The solver checks d on an indefinite (delta = 0.05) and a PSD graph alike.
            ("verify-theory", "[theory]\nclass_sizes = 3,3\nd = 9\n",
             "d must lie in [2, 6], the class count to the graph's size, got 9"),
            ("verify-theory", "[theory]\nclass_sizes = 3,3\ndelta = 0\nd = 9\n",
             "d must lie in [2, 6], the class count to the graph's size, got 9"),
            # d = 1 leaves one class without a column of F E.
            ("verify-theory", "[theory]\nclass_sizes = 3,3\nd = 1\n",
             "d must lie in [2, 6], the class count to the graph's size, got 1"),
        ],
        ids=["batch_size_1", "one_row_id_train", "negative_mu", "unreachable_adv_budget",
             "input_noise_under_mu", "negative_theory_mu", "negative_theory_eta",
             "retired_adversarial", "retired_contrastive", "retired_abs_cosine",
             "retired_aug_mask_fraction", "retired_aug_scale_jitter", "retired_grad_clip",
             "retired_corruption_target",
             "theory_d_above_n", "theory_d_above_n_psd", "theory_d_below_classes"],
    )
    def test_training_that_cannot_run_exits_one(
        self, tmp_path, small_config, command, config_text, message
    ):
        # Each used to exit 0 with a NaN or runaway loss, or with a bare
        # UserWarning on stderr; now the error line is all stderr holds.
        out = tmp_path / "o"
        assert run(["synth", "--config", str(small_config), "--out", str(out)]) == 0
        if command is None:  # a one-row id_train.feat, trained with the defaults
            feats, labels = read_features(out / "id_train.feat")
            write_features(out / "id_train.feat", feats[:1], np.zeros(1, dtype=int))
            command = "train"
        cfg = tmp_path / "case.cfg"
        cfg.write_text(config_text)
        before = {path.name: path.read_bytes() for path in out.iterdir()}
        proc = _run_cli([command, "--config", str(cfg), "--out", str(out)])
        assert proc.returncode == 1
        assert proc.stderr.startswith("error: ") and proc.stderr.count("\n") == 1
        assert message in proc.stderr
        for marker in ("Warning", "Traceback", "NaN"):
            assert marker not in proc.stderr
        assert {path.name: path.read_bytes() for path in out.iterdir()} == before  # nothing written

    def test_train_on_data_of_another_width_exits_one(self, tmp_path, small_config, capsys):
        out = tmp_path / "wide"
        for command in ("synth", "pretrain"):
            assert run([command, "--config", str(small_config), "--out", str(out)]) == 0
        feats, labels = read_features(out / "id_train.feat")
        write_features(out / "id_train.feat", np.hstack([feats, feats[:, :1]]), labels)
        capsys.readouterr()
        assert run(["train", "--config", str(small_config), "--out", str(out)]) == 1
        assert capsys.readouterr().err == "error: input has 9 columns, model expects 8\n"
        assert not (out / "model.ckpt").exists()

    def test_numeric_failure_exits_two(self, tmp_path, capsys):
        diverging = tmp_path / "diverge.cfg"
        diverging.write_text(SMALL_CFG.replace("lr = 0.05", "lr = 1e300"))
        out = tmp_path / "dout"
        assert run(["synth", "--config", str(diverging), "--out", str(out)]) == 0
        assert run(["train", "--config", str(diverging), "--out", str(out)]) == 2
        assert "numeric failure" in capsys.readouterr().err

    @pytest.mark.parametrize(
        "stage, config_text, code, message",
        [
            ("synth", SMALL_CFG.replace("noise_sigma = 1.0", "noise_sigma = 1e308"), 1,
             "error: inputs contains non-finite entries"),
            ("pretrain", SMALL_CFG.replace("aug_gaussian_sigma = 0.05", "aug_gaussian_sigma = 1e308"),
             2, "numeric failure: non-finite features at epoch 0"),
            ("train", SMALL_CFG.replace("input_noise = 0.3", "input_noise = 1e308"), 2,
             "numeric failure: non-finite loss at epoch 0"),
            ("train", SMALL_CFG.replace("lr = 0.05", "lr = 1e300"), 2,
             "numeric failure: non-finite loss at epoch 0"),
            ("verify-theory", "[theory]\nmu = 1e308\nmu_values = 1e-4,1e308\n", 2,
             "numeric failure: the starting loss or its gradient is not finite: loss inf"),
        ],
        ids=["synth_noise", "pretrain_aug_noise", "train_input_noise", "train_lr", "theory_mu"],
    )
    def test_overflow_prints_only_the_error_line(self, tmp_path, stage, config_text, code, message):
        # Each used to print numpy RuntimeWarnings to stderr before the error.
        cfg = tmp_path / "overflow.cfg"
        cfg.write_text(config_text)
        out = tmp_path / "o"
        if stage in ("pretrain", "train"):
            assert run(["synth", "--config", str(cfg), "--out", str(out)]) == 0
        proc = _run_cli([stage, "--config", str(cfg), "--out", str(out)])
        assert (proc.returncode, proc.stderr) == (code, message + "\n")

    def test_features_beyond_f32_exit_two(self, tmp_path, small_config, capsys):
        # One input of 3e38 is a valid f32, but the features fit encodes from
        # it are not: the cast must fail loudly instead of writing inf.
        out = tmp_path / "big"
        assert run(["synth", "--config", str(small_config), "--out", str(out)]) == 0
        feats, labels = read_features(out / "id_train.feat")
        feats[0, 0] = 3e38
        write_features(out / "id_train.feat", feats, labels)
        assert run(["train", "--config", str(small_config), "--out", str(out)]) == 0
        capsys.readouterr()
        assert run(["fit", "--config", str(small_config), "--out", str(out)]) == 2
        err = capsys.readouterr().err
        assert "numeric failure: " in err and "f32" in err
        assert "Warning" not in err
        written = out / "id_train_features.feat"
        assert not written.exists() or np.isfinite(read_features(written)[0]).all()

    def test_out_is_a_file(self, tmp_path, small_config, capsys):
        out = tmp_path / "taken"
        out.write_text("not a directory\n")
        assert run(["synth", "--config", str(small_config), "--out", str(out)]) == 1
        err = capsys.readouterr().err
        assert err.startswith("error: ")
        assert "Traceback" not in err

    def test_target_is_a_directory(self, tmp_path, small_config, pipeline_dir, capsys):
        out = tmp_path / "run"
        shutil.copytree(pipeline_dir, out)
        (out / "adir").mkdir()
        cfg = tmp_path / "dir_target.cfg"
        cfg.write_text(SMALL_CFG.replace("mode = single", "mode = single\ntarget = adir"))
        assert run(["score", "--config", str(cfg), "--out", str(out)]) == 1
        err = capsys.readouterr().err
        assert err.startswith("error: ")
        assert "Traceback" not in err


class TestMspEval:
    def test_overflowing_feature_norm_exits_one(self, tmp_path, small_config, pipeline_dir):
        # Features near 1e160 are finite, but their squared norms overflow.
        # With no sharpening, MSP used to score every sample 1/3 (uniform
        # over the classes) and exit 0 after a numpy warning.
        out = tmp_path / "run"
        shutil.copytree(pipeline_dir, out)
        model = load_model(out / "model.ckpt")
        model.layers[-1].weight *= 1e160
        model.layers[-1].bias *= 1e160
        model.sharpen_w[:] = 0.0
        save_model(out / "model.ckpt", model)
        cfg = tmp_path / "msp.cfg"
        cfg.write_text(SMALL_CFG.replace("[eval]", "[eval]\nmethod = msp"))
        proc = _run_cli(["eval", "--config", str(cfg), "--out", str(out)])
        assert proc.returncode == 1
        assert proc.stderr.startswith("error: features of sample ") and proc.stderr.count("\n") == 1
        assert "norm overflows float64" in proc.stderr and "Warning" not in proc.stderr
        assert (out / "eval.csv").read_bytes() == (pipeline_dir / "eval.csv").read_bytes()

    def test_sharpening_underflow_exits_two(self, tmp_path, small_config, pipeline_dir):
        # A large sharpening weight drives the eval-mode scalar g to exactly
        # 0 for some sample, and the logits z / g divide by zero.  This used
        # to print two numpy warnings and exit 1 on non-finite scores.
        out = tmp_path / "run"
        shutil.copytree(pipeline_dir, out)
        model = load_model(out / "model.ckpt")
        model.sharpen_w *= 1e6
        save_model(out / "model.ckpt", model)
        cfg = tmp_path / "msp.cfg"
        cfg.write_text(SMALL_CFG.replace("[eval]", "[eval]\nmethod = msp"))
        proc = _run_cli(["eval", "--config", str(cfg), "--out", str(out)])
        assert proc.returncode == 2
        assert proc.stderr.startswith("numeric failure: the sharpening scalar of sample ")
        assert proc.stderr.count("\n") == 1 and "Warning" not in proc.stderr
        assert (out / "eval.csv").read_bytes() == (pipeline_dir / "eval.csv").read_bytes()


def _cut(at):
    return lambda data: data[:at(len(data))]


def _set_first_header_u32(data):
    return data[:9] + b"\xff\xff\xff\xff" + data[13:]


# How each malformed copy is made from the file the pipeline wrote.  The
# magic of both binary formats is 9 bytes, followed by u32 header fields.
CORRUPTIONS = {
    "cut_in_magic": _cut(lambda n: 4),
    "cut_in_header": _cut(lambda n: 11),
    "cut_in_payload": _cut(lambda n: n // 2),
    "cut_last_byte": _cut(lambda n: n - 1),
    "extra_byte": lambda data: data + b"\0",
    "flipped_magic": lambda data: bytes([data[0] ^ 0xFF]) + data[1:],
    "first_u32_all_ones": _set_first_header_u32,
}


class TestMalformedArtifacts:
    """A truncated, extended or overwritten artifact exits 1 with one error
    line, whichever stage reads it."""

    @pytest.mark.parametrize("corruption", list(CORRUPTIONS))
    @pytest.mark.parametrize(
        "name, command",
        [("id_train.feat", "pretrain"), ("pretrain.ckpt", "train"), ("model.ckpt", "fit")],
    )
    def test_binary_artifact(
        self, tmp_path, small_config, pipeline_dir, capsys, name, command, corruption
    ):
        out = tmp_path / "run"
        shutil.copytree(pipeline_dir, out)
        path = out / name
        path.write_bytes(CORRUPTIONS[corruption](path.read_bytes()))
        capsys.readouterr()
        assert run([command, "--config", str(small_config), "--out", str(out)]) == 1
        err = capsys.readouterr().err
        assert err.startswith(f"error: {path}: ") and err.count("\n") == 1
        expect = {
            "cut_in_magic": "bad magic",
            "flipped_magic": "bad magic",
            "cut_last_byte": r"\(1 missing\)",
            "extra_byte": ": 1 unexpected trailing bytes",
            # A checkpoint then reads its payload as layer shapes until one
            # does not chain or the file runs out.
            "first_u32_all_ones": r"missing\)|but layer \d+ outputs",
        }.get(corruption, r"missing\)")
        assert re.search(expect, err)
        assert "Traceback" not in err

    def test_half_a_subspaces_json(self, tmp_path, small_config, pipeline_dir, capsys):
        out = tmp_path / "run"
        shutil.copytree(pipeline_dir, out)
        path = out / "subspaces.json"
        data = path.read_bytes()
        path.write_bytes(data[: len(data) // 2])
        capsys.readouterr()
        assert run(["score", "--config", str(small_config), "--out", str(out)]) == 1
        err = capsys.readouterr().err
        assert err.startswith(f"error: {path} is not valid JSON: ") and err.count("\n") == 1

    @pytest.mark.parametrize(
        "case, message",
        [
            ("no_layers", "checkpoint has no layers"),
            ("unchained_widths", "layer 1 is 15x12, but layer 0 outputs 16"),
            ("projection_too_tall", "class projection is 7x3, but the last layer outputs 6"),
            ("no_class_columns", "class projection is 6x0, it has no class columns"),
            ("nan_weight", "non-finite layer 0 weights"),
            ("negative_bn_var", "batch-norm running variance -1.0 is negative"),
            ("nan_bn_var", "non-finite batch-norm scale, mean or variance"),
        ],
    )
    def test_checkpoint_layer_shapes(self, tmp_path, small_config, pipeline_dir, capsys, case,
                                     message):
        # A checkpoint no train stage writes: every stage that loads it
        # stops on reading it, before the model computes anything.
        out = tmp_path / "run"
        shutil.copytree(pipeline_dir, out)
        path = out / "model.ckpt"
        model = load_model(path)
        if case == "no_layers":
            model.layers = []
        elif case == "unchained_widths":
            model.layers[1].weight = np.zeros((15, 12))
        elif case == "projection_too_tall":
            model.class_proj = np.zeros((7, 3))
            model.sharpen_w = np.zeros(7)
        elif case == "no_class_columns":
            model.class_proj = np.zeros((6, 0))
        elif case == "nan_weight":
            model.layers[0].weight[0, 0] = np.nan
        else:
            model.bn_var = -1.0 if case == "negative_bn_var" else float("nan")
        save_model(path, model)
        msp = tmp_path / "msp.cfg"
        msp.write_text(SMALL_CFG.replace("tpr_target = 0.95", "tpr_target = 0.95\nmethod = msp"))
        for command, config in (("fit", small_config), ("eval", small_config), ("eval", msp)):
            capsys.readouterr()
            assert run([command, "--config", str(config), "--out", str(out)]) == 1
            assert capsys.readouterr().err == f"error: {path}: {message}\n"


SHIPPED_THEORY_CFG = Path(__file__).parents[1] / "configs" / "theory.cfg"
THEORY_CFG = """
[theory]
class_sizes = 5,4
delta = 0.05
eta = 0.0
normalization = unit-spectral-per-block
d = 9
mu = 0.0001
mu_values = 1e-6,1e-4,1e-2
max_iters = 3000
seed = 11
"""


class TestVerifyTheory:
    def test_report_contents(self, tmp_path):
        cfg = tmp_path / "theory.cfg"
        cfg.write_text(THEORY_CFG)
        out = tmp_path / "tout"
        assert run(["verify-theory", "--config", str(cfg), "--out", str(out)]) == 0
        payload = json.loads((out / "theory_report.json").read_text())
        lemma = payload["lemma"]
        assert set(lemma["bounds"].keys()) == {"bound2", "bound4", "bound2_from_bound4"}
        assert len(lemma["per_class"]) == 2
        for entry in lemma["per_class"]:
            assert "sigma" in entry and "tail2" in entry and "tail4" in entry
        assert isinstance(lemma["pass"], bool)
        sweep = payload["sweep"]
        assert [row["mu"] for row in sweep["rows"]] == [1e-6, 1e-4, 1e-2]
        for entry in (lemma, *sweep["rows"]):
            assert 1 <= entry["iterations"] <= 3000
            assert entry["converged"] == (entry["iterations"] < 3000)
            assert 0.0 <= entry["grad_norm"] < 1e-3

    @pytest.mark.parametrize("mu", [1e-4, 3e-3])  # in mu_values, and not
    def test_lemma_is_a_solve_at_the_headline_mu(self, tmp_path, mu):
        # A listed mu's lemma is the sweep's warm solve there: the chain from
        # solve_joint's start through every smaller listed mu.  An unlisted
        # mu's lemma is a cold solve from that start.
        cfg = tmp_path / "theory.cfg"
        cfg.write_text(THEORY_CFG.replace("mu = 0.0001", f"mu = {mu}"))
        out = tmp_path / "tout"
        assert run(["verify-theory", "--config", str(cfg), "--out", str(out)]) == 0
        payload = json.loads((out / "theory_report.json").read_text())
        graph = theory.build_adjacency([5, 4], 0.05, 0.0, 11, "unit-spectral-per-block")
        opts = theory.SolveOptions(max_iters=3000)
        listed = [m for m in (1e-6, 1e-4, 1e-2) if m <= mu]
        chain = listed if mu in listed else [mu]
        init = opts.init
        for step in chain:
            result = theory.solve_joint(graph, 9, step, replace(opts, init=init))
            init = result.f_star
        expect = json.loads(json.dumps(theory.verify_lemma(graph, result)))
        assert payload["mu"] == mu
        assert payload["lemma"] == expect
        rows = [row for row in payload["sweep"]["rows"] if row["mu"] == mu]
        assert len(rows) == (mu in listed)
        for row in rows:
            for key in ("iterations", "converged", "grad_norm"):
                assert payload["lemma"][key] == row[key]

    @pytest.mark.parametrize("mu", [1e-4, 3e-3])  # in mu_values, and not
    def test_one_solve_per_mu(self, tmp_path, monkeypatch, mu):
        # A listed theory.mu is not solved a second time for the lemma.
        solved = []
        solve_joint = theory.solve_joint

        def counted(graph, d, weight, opts):
            solved.append(weight)
            return solve_joint(graph, d, weight, opts)

        monkeypatch.setattr(theory, "solve_joint", counted)
        cfg = tmp_path / "theory.cfg"
        cfg.write_text(SHIPPED_THEORY_CFG.read_text().replace("mu = 0.0001", f"mu = {mu}"))
        assert run(["verify-theory", "--config", str(cfg), "--out", str(tmp_path / "tout")]) == 0
        mu_values = [1e-6, 1e-4, 1e-2, 1.0, 100.0]
        assert solved == (mu_values if mu in mu_values else mu_values + [mu])

    def test_sweep_leaves_no_process(self, tmp_path):
        cfg = tmp_path / "theory.cfg"
        cfg.write_text(THEORY_CFG)
        assert run(["verify-theory", "--config", str(cfg), "--out", str(tmp_path / "tout")]) == 0
        with pytest.raises(ChildProcessError):
            os.waitpid(-1, os.WNOHANG)

    @pytest.mark.parametrize("mu", ["1e120", "1e200"])
    def test_overflowing_line_search_exits_two(self, tmp_path, mu):
        # The line search's cubic overflows at these weights; it used to end
        # in an OverflowError traceback with exit 1.
        cfg = tmp_path / "theory.cfg"
        shipped = SHIPPED_THEORY_CFG.read_text()
        cfg.write_text(shipped.replace("mu_values = 1e-6,1e-4,1e-2,1,100", f"mu_values = 1e-6,{mu}"))
        proc = _run_cli(["verify-theory", "--config", str(cfg), "--out", str(tmp_path / "tout")])
        assert proc.returncode == 2
        assert proc.stderr.startswith("numeric failure: the line search overflows")
        assert proc.stderr.count("\n") == 1

    @pytest.mark.parametrize("eta", ["1e160", "1e200"])
    def test_overflowing_starting_loss_exits_two(self, tmp_path, eta):
        # The adjacency's squared entries overflow, so the loss is infinite
        # before any step; it used to be blamed on iteration 0's step.
        cfg = tmp_path / "theory.cfg"
        cfg.write_text(SHIPPED_THEORY_CFG.read_text().replace("eta = 0.0", f"eta = {eta}"))
        proc = _run_cli(["verify-theory", "--config", str(cfg), "--out", str(tmp_path / "tout")])
        assert (proc.returncode, proc.stderr) == (
            2, "numeric failure: the starting loss or its gradient is not finite: loss inf\n"
        )

    def test_lr_is_ignored(self, tmp_path):
        reports = []
        for lr in ("0.05", "1e9"):
            cfg = tmp_path / f"lr{lr}.cfg"
            cfg.write_text(THEORY_CFG + f"lr = {lr}\n")
            out = tmp_path / f"out{lr}"
            assert run(["verify-theory", "--config", str(cfg), "--out", str(out)]) == 0
            reports.append((out / "theory_report.json").read_bytes())
        assert reports[0] == reports[1]


class TestConfigDefaults:
    def test_stated_defaults_match_empty_config(self, tmp_path):
        # Every key with a fixed default, written out, must give the bytes an
        # empty config gives: the handlers read the same table.
        sections = {}
        for key, spec in CONFIG.items():
            if spec.default is not None:
                section, name = key.split(".", 1)
                sections.setdefault(section, []).append(f"{name} = {_config_text(spec.default)}")
        stated = tmp_path / "stated.cfg"
        stated.write_text("".join(f"[{s}]\n" + "\n".join(lines) + "\n" for s, lines in sections.items()))
        empty = tmp_path / "empty.cfg"
        empty.write_text("")
        outputs = {}
        for cfg in (stated, empty):
            out = tmp_path / cfg.stem
            for command in ("synth", "verify-theory"):
                assert run([command, "--config", str(cfg), "--out", str(out)]) == 0
            outputs[cfg.stem] = {
                name: (out / name).read_bytes()
                for name in ("id_train.feat", "id_test.feat", "ood.feat", "theory_report.json")
            }
        assert outputs["stated"] == outputs["empty"]


def _config_text(value) -> str:
    if isinstance(value, bool):
        return "true" if value else "false"
    if isinstance(value, tuple):
        return ",".join(repr(entry) for entry in value)
    return value if isinstance(value, str) else repr(value)


class TestMcScoring:
    def test_overflowing_feature_norm_exits_one(self, tmp_path, pipeline_dir, capsys):
        # Draws near 1e300 give finite features whose norms overflow float64;
        # they used to score pi/2 against every class and exit 0.
        out = tmp_path / "run"
        shutil.copytree(pipeline_dir, out)
        cfg = tmp_path / "huge_noise.cfg"
        cfg.write_text(SMALL_CFG.replace("mode = single", "mode = mc\nmc_noise_sigma = 1e300"))
        capsys.readouterr()
        assert run(["score", "--config", str(cfg), "--out", str(out)]) == 1
        err = capsys.readouterr().err
        assert err.startswith("error: features of sample ") and err.count("\n") == 1
        assert "overflows float64" in err
        assert (out / "id_test_scores.csv").read_bytes() == (
            pipeline_dir / "id_test_scores.csv").read_bytes()

    def test_overflowing_noise_warns_nothing(self, tmp_path, pipeline_dir):
        # A noise level whose draws overflow float64: the non-finite draws
        # are rejected without a numpy warning, on the calling thread and
        # on the helper that draws ahead.
        out = tmp_path / "run"
        shutil.copytree(pipeline_dir, out)
        cfg = tmp_path / "huge_sigma.cfg"
        cfg.write_text(SMALL_CFG.replace("mode = single", "mode = mc\nmc_noise_sigma = 1e308"))
        proc = _run_cli(["score", "--config", str(cfg), "--out", str(out)])
        assert (proc.returncode, proc.stderr) == (1, "error: batch contains non-finite entries\n")

    def test_mc_mode_deterministic(self, tmp_path, small_config, pipeline_dir):
        mc_cfg = tmp_path / "mc.cfg"
        mc_cfg.write_text(
            SMALL_CFG.replace("mode = single", "mode = mc")
            + "\n"  # keep defaults for draws/noise
        )
        outputs = []
        for _ in range(2):
            assert run(["score", "--config", str(mc_cfg), "--out", str(pipeline_dir)]) == 0
            outputs.append((pipeline_dir / "id_test_scores.csv").read_bytes())
        assert outputs[0] == outputs[1]
        rows = outputs[0].decode().strip().split("\n")[1:]
        for row in rows:
            assert row.split(",")[3] != ""
