"""Dataset generators, binary formats, and the config parser."""

import re

import numpy as np
import pytest

from rodd.data import (
    CONFIG,
    Dataset,
    parse_config,
    read_cifar_binary,
    read_features,
    synth_gaussian_mixture,
    synth_ood_cluster,
    write_features,
)
from rodd.errors import ContractViolation, FormatError

SEED_KEYS = [
    ("synth", "seed"),
    ("synth", "ood_direction_seed"),
    ("model", "seed"),
    ("pretrain", "seed"),
    ("train", "seed"),
    ("ood", "seed"),
    ("corruption", "seed"),
    ("theory", "seed"),
]


class TestGaussianMixture:
    def test_zero_noise_collapses_to_means(self):
        ds = synth_gaussian_mixture(3, 5, 8, separation=4.0, noise_sigma=0.0, seed=1)
        for cls in range(3):
            block = ds.inputs[ds.labels == cls]
            assert np.abs(block - block[0]).max() == 0.0
            assert abs(np.linalg.norm(block[0]) - 4.0) <= 1e-9

    def test_nearest_mean_classifier_is_perfect_when_separated(self):
        ds = synth_gaussian_mixture(2, 100, 16, separation=10.0, noise_sigma=0.1, seed=2)
        means = np.stack([ds.inputs[ds.labels == c].mean(axis=0) for c in range(2)])
        d2 = ((ds.inputs[:, None, :] - means[None]) ** 2).sum(axis=2)
        assert (np.argmin(d2, axis=1) == ds.labels).mean() == 1.0

    def test_deterministic(self):
        a = synth_gaussian_mixture(2, 10, 6, 3.0, 0.5, seed=5)
        b = synth_gaussian_mixture(2, 10, 6, 3.0, 0.5, seed=5)
        assert np.array_equal(a.inputs, b.inputs)
        assert np.array_equal(a.labels, b.labels)

    def test_contract_violations(self):
        with pytest.raises(ContractViolation):
            synth_gaussian_mixture(1, 10, 6, 3.0, 0.5, seed=0)
        with pytest.raises(ContractViolation):
            synth_gaussian_mixture(8, 10, 6, 3.0, 0.5, seed=0)  # L > input_dim
        with pytest.raises(ContractViolation):
            synth_gaussian_mixture(2, 10, 6, 0.0, 0.5, seed=0)


class TestOodCluster:
    def test_zero_noise_degenerate(self):
        ds = synth_ood_cluster(8, 5, 3, offset_norm=6.0, noise_sigma=0.0, seed=1)
        assert np.abs(ds.inputs - ds.inputs[0]).max() == 0.0
        assert abs(np.linalg.norm(ds.inputs[0]) - 6.0) <= 1e-9
        assert ds.labels is None

    def test_deterministic(self):
        a = synth_ood_cluster(8, 20, 3, 6.0, 0.3, seed=9)
        b = synth_ood_cluster(8, 20, 3, 6.0, 0.3, seed=9)
        assert np.array_equal(a.inputs, b.inputs)

    def test_empirical_mean_norm(self):
        sigma, n = 0.5, 400
        ds = synth_ood_cluster(16, n, 3, offset_norm=8.0, noise_sigma=sigma, seed=21)
        assert abs(np.linalg.norm(ds.inputs.mean(axis=0)) - 8.0) <= 3 * sigma / np.sqrt(n)


class TestCifarBinary:
    def test_single_record(self, tmp_path):
        path = tmp_path / "one.bin"
        path.write_bytes(bytes([7]) + bytes(3072))
        ds = read_cifar_binary(path)
        assert ds.n == 1
        assert ds.labels[0] == 7
        assert ds.inputs.max() == 0.0

    def test_pixel_scaling(self, tmp_path):
        path = tmp_path / "max.bin"
        path.write_bytes(bytes([0]) + bytes([255] * 3072))
        ds = read_cifar_binary(path)
        assert ds.inputs.min() == 1.0

    def test_record_order(self, tmp_path):
        path = tmp_path / "two.bin"
        path.write_bytes(bytes([1]) + bytes([10] * 3072) + bytes([2]) + bytes([20] * 3072))
        ds = read_cifar_binary(path)
        assert list(ds.labels) == [1, 2]
        assert ds.inputs[0, 0] == 10 / 255.0
        assert ds.inputs[1, 0] == 20 / 255.0

    def test_bad_length(self, tmp_path):
        path = tmp_path / "bad.bin"
        path.write_bytes(bytes(3072))  # one byte short of a record
        with pytest.raises(FormatError, match="3073"):
            read_cifar_binary(path)

    def test_bad_label(self, tmp_path):
        path = tmp_path / "lbl.bin"
        path.write_bytes(bytes([11]) + bytes(3072))
        with pytest.raises(FormatError, match="record 0"):
            read_cifar_binary(path)


class TestFeatureFile:
    def test_round_trip_with_labels(self, tmp_path):
        rng = np.random.default_rng(3)
        feats = rng.standard_normal((10, 4))
        labels = rng.integers(0, 5, size=10)
        path = tmp_path / "f.feat"
        write_features(path, feats, labels)
        back, lab = read_features(path)
        assert np.array_equal(back, feats.astype(np.float32).astype(np.float64))
        assert np.array_equal(lab, labels)

    def test_round_trip_without_labels(self, tmp_path):
        path = tmp_path / "f.feat"
        write_features(path, np.ones((3, 2)))
        back, lab = read_features(path)
        assert lab is None
        assert back.shape == (3, 2)

    def test_truncated_file(self, tmp_path):
        path = tmp_path / "f.feat"
        write_features(path, np.ones((4, 3)))
        data = path.read_bytes()
        path.write_bytes(data[:-5])
        with pytest.raises(FormatError, match="5 missing"):
            read_features(path)

    def test_bad_magic(self, tmp_path):
        path = tmp_path / "f.feat"
        path.write_bytes(b"NOTAFEAT1" + bytes(12))
        with pytest.raises(FormatError, match="magic"):
            read_features(path)


class TestDataset:
    def test_label_range_checked(self):
        with pytest.raises(ContractViolation):
            Dataset(np.ones((2, 2)), np.array([0, 3]), class_count=2)

    def test_empty_rejected(self):
        with pytest.raises(ContractViolation):
            Dataset(np.ones((0, 2)), None, 0)


class TestConfigParser:
    def test_typed_values(self):
        cfg = parse_config("[train]\nepochs = 10\nlr = 0.05\ncontrastive = true\n")
        assert cfg.get("train.epochs") == 10
        assert cfg.get("train.lr") == 0.05
        assert cfg.get("train.contrastive") is True

    def test_unknown_key_names_line(self):
        with pytest.raises(FormatError, match="line 1"):
            parse_config("unknown_key = 1\n")

    def test_duplicate_key(self):
        with pytest.raises(FormatError, match="duplicate"):
            parse_config("[train]\nepochs = 1\nepochs = 2\n")

    def test_type_mismatch_names_line(self):
        with pytest.raises(FormatError, match="line 2"):
            parse_config("[train]\nepochs = soon\n")

    def test_comments_and_blank_lines(self):
        cfg = parse_config("# comment\n\n[eval]\ntpr_target = 0.9  # inline\n")
        assert cfg.get("eval.tpr_target") == 0.9

    def test_missing_equals(self):
        with pytest.raises(FormatError, match="line 2"):
            parse_config("[train]\nepochs\n")

    def test_integer_accepted_for_float_key(self):
        cfg = parse_config("[train]\nlr = 1\n")
        assert cfg.get("train.lr") == 1.0
        assert isinstance(cfg.get("train.lr"), float)

    @pytest.mark.parametrize(
        "section, key", [("pretrain", "batch_size"), ("train", "batch_size"), ("theory", "max_iters")]
    )
    def test_positive_count_keys(self, section, key):
        with pytest.raises(FormatError, match=rf"line 3: '{section}\.{key}' must be >= 1, got 0"):
            parse_config(f"# counts\n[{section}]\n{key} = 0\n")
        with pytest.raises(FormatError, match="line 2"):
            parse_config(f"[{section}]\n{key} = -4\n")
        assert parse_config(f"[{section}]\n{key} = 1\n").get(f"{section}.{key}") == 1

    @pytest.mark.parametrize(
        "section, key, rejected, accepted",
        [
            ("synth", "per_class", {"0": ">= 1", "-2": ">= 1"}, ["1"]),
            ("pretrain", "lr", {"-0.5": "> 0", "0": "> 0"}, ["1e-9", "0.02"]),
            ("train", "lr", {"0": "> 0", "-1e-3": "> 0"}, ["1e-9", "0.05"]),
            ("pretrain", "momentum", {"1.5": "< 1", "1": "< 1", "-0.1": ">= 0"}, ["0", "0.9"]),
            ("train", "momentum", {"-0.5": ">= 0", "1.0": "< 1"}, ["0", "0.999"]),
            ("train", "grad_clip", {"-1": "> 0", "0": "> 0"}, ["1e-12", "5"]),
            ("synth", "noise_sigma", {"-1": ">= 0", "-1e-9": ">= 0"}, ["0", "1.0"]),
            ("synth", "ood_noise_sigma", {"-0.5": ">= 0"}, ["0", "0.5"]),
            ("pretrain", "aug_gaussian_sigma", {"-0.05": ">= 0"}, ["0", "0.05"]),
            ("train", "aug_gaussian_sigma", {"-0.05": ">= 0"}, ["0", "0.05"]),
            ("train", "input_noise", {"-1": ">= 0"}, ["0", "0.3"]),
            ("ood", "mc_noise_sigma", {"-0.01": ">= 0"}, ["0", "0.01"]),
            ("ood", "quantile", {"0": "> 0", "-0.5": "> 0", "1": "< 1", "1.5": "< 1"}, ["1e-9", "0.95"]),
            ("eval", "tpr_target", {"0": "> 0", "1": "< 1", "2": "< 1"}, ["0.5", "0.95"]),
            *[
                (section, key, {"-1": ">= 0", str(2**64): f"< {2**64}"}, ["0", str(2**63)])
                for section, key in SEED_KEYS
            ],
            ("pretrain", "epochs", {"-3": ">= 0", "-1": ">= 0"}, ["0", "20"]),
            ("train", "epochs", {"-3": ">= 0"}, ["0", "40"]),
            ("synth", "test_per_class", {"0": ">= 1", "-5": ">= 1"}, ["1", "250"]),
            ("theory", "tol", {"-1": ">= 0", "-1e-30": ">= 0"}, ["0", "1e-12"]),
        ],
    )
    def test_bounded_keys(self, section, key, rejected, accepted):
        for value, bound in rejected.items():
            with pytest.raises(FormatError, match=rf"line 2: '{section}\.{key}' must be {bound}, got"):
                parse_config(f"[{section}]\n{key} = {value}\n")
        for value in accepted:
            parsed = parse_config(f"[{section}]\n{key} = {value}\n").get(f"{section}.{key}")
            assert parsed == float(value)

    @pytest.mark.parametrize("section, key", SEED_KEYS)
    def test_largest_seed_accepted(self, section, key):
        parsed = parse_config(f"[{section}]\n{key} = {2**64 - 1}\n").get(f"{section}.{key}")
        assert parsed == 2**64 - 1

    @pytest.mark.parametrize(
        "key, rejected, accepted",
        [
            ("ood.mode", ["multi", "MC", ""], ["single", "mc"]),
            ("eval.method", ["energy"], ["rodd", "msp"]),
            ("corruption.apply_to", ["both"], ["ood", "id"]),
            ("theory.normalization", ["unit"], ["none", "doubly-stochastic-per-block"]),
        ],
    )
    def test_choice_keys(self, key, rejected, accepted):
        section, name = key.split(".")
        for value in rejected:
            with pytest.raises(FormatError, match=rf"line 2: '{key}' must be one of '"):
                parse_config(f"[{section}]\n{name} = {value}\n")
        for value in accepted:
            assert parse_config(f"[{section}]\n{name} = {value}\n").get(key) == value

    def test_unknown_corruption_kind(self):
        with pytest.raises(FormatError, match="line 2: 'corruption.kind' must be one of .*, got 'fog'"):
            parse_config("[corruption]\nkind = fog\n")

    @pytest.mark.parametrize(
        "key, value, message",
        [
            ("corruption.severities", "1,6", "every 'corruption.severities' entry must be <= 5, got '1,6'"),
            ("corruption.severities", "0", "every 'corruption.severities' entry must be >= 1, got '0'"),
            ("corruption.severities", "1,two", "'corruption.severities' must be a comma-separated integer list"),
            ("theory.class_sizes", "6,0", "every 'theory.class_sizes' entry must be >= 1, got '6,0'"),
            ("theory.mu_values", "1e-4,-1e-9", "every 'theory.mu_values' entry must be >= 0, got '1e-4,-1e-9'"),
            ("theory.mu_values", "1e400", "every 'theory.mu_values' entry must be finite, got '1e400'"),
            ("theory.mu_values", "inf,1", "every 'theory.mu_values' entry must be finite, got 'inf,1'"),
            ("theory.mu_values", "1,x", "'theory.mu_values' must be a comma-separated number list"),
        ],
    )
    def test_list_entries_checked(self, key, value, message):
        section, name = key.split(".")
        with pytest.raises(FormatError, match="line 2: " + re.escape(message)):
            parse_config(f"[{section}]\n{name} = {value}\n")

    @pytest.mark.parametrize("key", sorted(k for k, spec in CONFIG.items() if spec.is_list))
    @pytest.mark.parametrize("value", ["", " , ,"])
    def test_empty_list_rejected(self, key, value):
        section, name = key.split(".")
        with pytest.raises(FormatError, match=rf"line 2: '{key}' must list at least one value"):
            parse_config(f"[{section}]\n{name} = {value}\n")

    def test_lists_parse_once_into_tuples(self):
        cfg = parse_config(
            "[theory]\nclass_sizes = 16, 16,16\nmu_values = 0,1e-6,1\n[corruption]\nseverities = 2\n"
        )
        assert cfg.get("theory.class_sizes") == (16, 16, 16)
        assert cfg.get("theory.mu_values") == (0.0, 1e-6, 1.0)
        assert all(type(mu) is float for mu in cfg.get("theory.mu_values"))
        assert cfg.get("corruption.severities") == (2,)

    def test_unset_keys_read_their_default(self):
        cfg = parse_config("[train]\nepochs = 3\n")
        assert cfg.get("train.epochs") == 3
        assert cfg.get("pretrain.epochs") == CONFIG["pretrain.epochs"].default == 20
        assert cfg.get("corruption.kind") is None
        assert cfg.get("synth.ood_direction_seed") is None

    @pytest.mark.parametrize("key", ["train.epoch", "epochs", "theory.learning_rate"])
    def test_get_of_a_key_outside_the_table_raises(self, key):
        with pytest.raises(KeyError):
            parse_config("").get(key)

    @pytest.mark.parametrize("key", sorted(k for k, spec in CONFIG.items() if spec.default is not None))
    def test_default_has_the_declared_type(self, key):
        # A default of the wrong type (1 for 1.0) would change report bytes;
        # tests/test_cli.py checks that every default passes the parser.
        spec = CONFIG[key]
        entries = spec.default if spec.is_list else (spec.default,)
        assert isinstance(spec.default, tuple) == spec.is_list
        assert all(type(entry) is spec.kind for entry in entries)
