"""Pipeline stages, artifacts, manifests, exit codes, and report determinism."""

import json
import os
import shutil
import subprocess
import sys
from pathlib import Path

import numpy as np
import pytest

import rodd
from rodd import theory
from rodd.cli import run
from rodd.data import CONFIG, read_features, write_features
from rodd.linalg import orthonormal_init

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

    def test_frozen_projection_through_checkpoints(self, pipeline_dir):
        from rodd.encoder import load_model

        model = load_model(pipeline_dir / "model.ckpt")
        gram = model.class_proj.T @ model.class_proj
        assert np.abs(gram - np.eye(model.n_classes)).max() <= 1e-8


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
        assert reports["override"] == reports["config"]
        assert reports["default"] != reports["config"]
        assert reports["default"] == ((pipeline_dir / "eval.csv").read_bytes(),
                                      (pipeline_dir / "eval.json").read_bytes())


class TestDeterminism:
    def test_reports_byte_identical_across_reruns(self, tmp_path, small_config):
        outputs = []
        for name in ("a", "b"):
            out = tmp_path / name
            for command in ("synth", "pretrain", "train", "fit", "eval"):
                assert run([command, "--config", str(small_config), "--out", str(out)]) == 0
            outputs.append(
                {
                    "eval.json": (out / "eval.json").read_bytes(),
                    "eval.csv": (out / "eval.csv").read_bytes(),
                    "id_test_scores.csv": (out / "id_test_scores.csv").read_bytes(),
                    "ood_scores.csv": (out / "ood_scores.csv").read_bytes(),
                    "model.ckpt": (out / "model.ckpt").read_bytes(),
                    "subspaces.json": (out / "subspaces.json").read_bytes(),
                }
            )
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

    def test_theory_report_byte_identical_across_reruns(self, tmp_path):
        cfg = tmp_path / "theory.cfg"
        cfg.write_text(THEORY_CFG)
        reports = []
        for name in ("a", "b"):
            out = tmp_path / name
            assert run(["verify-theory", "--config", str(cfg), "--out", str(out)]) == 0
            reports.append((out / "theory_report.json").read_bytes())
        assert reports[0] == reports[1]


class TestExitCodes:
    def test_unknown_subcommand(self, small_config, capsys):
        assert run(["transmogrify", "--config", str(small_config), "--out", "/tmp/x"]) == 1
        assert "usage" in capsys.readouterr().err

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
            ("train", "train", "batch_size"),
            ("verify-theory", "theory", "max_iters"),
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
        "command, section, key, value, bound",
        [
            ("synth", "synth", "per_class", "0", ">= 1"),
            ("pretrain", "pretrain", "lr", "-0.5", "> 0"),
            ("train", "train", "lr", "0", "> 0"),
            ("pretrain", "pretrain", "momentum", "1.5", "< 1"),
            ("train", "train", "momentum", "-0.5", ">= 0"),
            ("train", "train", "grad_clip", "-1", "> 0"),
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
            ("corrupt", "corruption", "kind", "fog", "'corruption.kind' must be one of 'none', "),
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
        assert f"line 43: 'corruption.kind' must be one of 'none', " in err
        assert f"got '{kind}'" in err
        assert not out.exists()  # rejected before the stage touched its inputs

    def test_missing_config_file(self, tmp_path):
        assert run(["synth", "--config", str(tmp_path / "nope.cfg"), "--out", str(tmp_path)]) == 1

    def test_config_parse_error(self, tmp_path, capsys):
        bad = tmp_path / "bad.cfg"
        bad.write_text("[synth]\nwhatever = 1\n")
        assert run(["synth", "--config", str(bad), "--out", str(tmp_path / "o")]) == 1
        assert "line 2" in capsys.readouterr().err

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
        env = dict(os.environ, PYTHONPATH=str(Path(rodd.__file__).parents[1]))
        proc = subprocess.run(
            [sys.executable, "-m", "rodd.cli", "pretrain", "--config", str(small_config),
             "--out", str(out)],
            env=env,
            capture_output=True,
            text=True,
            timeout=120,
        )
        assert proc.returncode == 2
        assert proc.stderr == "numeric failure: non-finite gradient norm at epoch 0\n"

    def test_numeric_failure_exits_two(self, tmp_path, small_config, capsys):
        diverging = tmp_path / "diverge.cfg"
        diverging.write_text(
            SMALL_CFG.replace("lr = 0.05", "lr = 1e12").replace(
                "input_noise = 0.3", "input_noise = 0.0\ngrad_clip = 1e18"
            )
        )
        out = tmp_path / "dout"
        assert run(["synth", "--config", str(diverging), "--out", str(out)]) == 0
        with np.errstate(all="ignore"):
            code = run(["train", "--config", str(diverging), "--out", str(out)])
        assert code == 2
        assert "numeric failure" in capsys.readouterr().err

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
        cfg = tmp_path / "theory.cfg"
        cfg.write_text(THEORY_CFG.replace("mu = 0.0001", f"mu = {mu}"))
        out = tmp_path / "tout"
        assert run(["verify-theory", "--config", str(cfg), "--out", str(out)]) == 0
        payload = json.loads((out / "theory_report.json").read_text())
        graph = theory.build_adjacency([5, 4], 0.05, 0.0, 11, "unit-spectral-per-block")
        proj = orthonormal_init(9, 2, 12)
        result = theory.solve_joint(
            graph, proj, mu, theory.SolveOptions(max_iters=3000, seed=11)
        )
        expect = json.loads(json.dumps(theory.verify_lemma(graph, result)))
        assert payload["mu"] == mu
        assert payload["lemma"] == expect

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
