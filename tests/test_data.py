"""Dataset generators, binary formats, and the config parser."""

import dataclasses
import inspect
import re

import numpy as np
import pytest

from rodd import contrastive, encoder, metrics, ood, theory
from rodd.data import (
    CONFIG,
    Dataset,
    parse_config,
    read_cifar_binary,
    read_features,
    read_json,
    synth_gaussian_mixture,
    synth_ood_cluster,
    write_csv,
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

    def test_trailing_bytes(self, tmp_path):
        path = tmp_path / "f.feat"
        write_features(path, np.ones((4, 3)), np.arange(4))
        path.write_bytes(path.read_bytes() + b"ab")
        with pytest.raises(FormatError, match="2 unexpected trailing bytes"):
            read_features(path)

    def test_column_major_features_written_row_major(self, tmp_path):
        feats = np.arange(6.0).reshape(2, 3)
        write_features(tmp_path / "c.feat", feats)
        write_features(tmp_path / "f.feat", np.asfortranarray(feats))
        assert (tmp_path / "c.feat").read_bytes() == (tmp_path / "f.feat").read_bytes()


class TestArtifactCodec:
    @pytest.mark.parametrize("reader", [read_features, read_json, read_cifar_binary])
    def test_missing_artifact(self, tmp_path, reader):
        path = tmp_path / "absent"
        with pytest.raises(FormatError, match=f"^missing artifact: {re.escape(str(path))}$"):
            reader(path)

    def test_invalid_json(self, tmp_path):
        path = tmp_path / "x.json"
        path.write_bytes(b'{"a": [1, 2')
        with pytest.raises(FormatError, match="x.json is not valid JSON"):
            read_json(path)
        path.write_bytes(b'{"a": "\xff"}')  # not UTF-8
        with pytest.raises(FormatError, match="x.json is not valid JSON"):
            read_json(path)

    def test_csv_cells(self, tmp_path):
        path = tmp_path / "t.csv"
        rows = ((i, 0.1 * i, np.float64(1 / 3), "", "ID") for i in range(2))
        write_csv(path, ("a", "b", "c", "d", "e"), rows)
        assert path.read_text() == (
            "a,b,c,d,e\n0,0.0,0.3333333333333333,,ID\n1,0.1,0.3333333333333333,,ID\n"
        )


class TestDataset:
    def test_label_range_checked(self):
        with pytest.raises(ContractViolation, match="labels must be nonnegative"):
            Dataset(np.ones((2, 2)), np.array([0, -1]))

    def test_empty_rejected(self):
        with pytest.raises(ContractViolation):
            Dataset(np.ones((0, 2)))

    def test_class_count_is_the_largest_label_plus_one(self):
        assert Dataset(np.ones((3, 2)), np.array([2, 0, 2])).class_count == 3
        assert Dataset(np.ones((1, 2)), np.array([0])).class_count == 1
        assert Dataset(np.ones((3, 2))).class_count == 0


class TestConfigParser:
    def test_typed_values(self):
        cfg = parse_config("[train]\nepochs = 10\nlr = 0.05\n[synth]\nscale_to_unit = false\n")
        assert cfg.get("train.epochs") == 10
        assert cfg.get("train.lr") == 0.05
        assert cfg.get("synth.scale_to_unit") is False

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
        "section, key", [("pretrain", "batch_size"), ("theory", "max_iters")]
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
            ("model", "feature_dim", {"0": ">= 1", "-3": ">= 1"}, ["1", "16"]),
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
            ("train", "batch_size", {"1": ">= 2", "0": ">= 2", "-4": ">= 2"}, ["2", "64"]),
            ("train", "mu", {"-1": ">= 0", "-1e-9": ">= 0"}, ["0", "0.3"]),
            ("ood", "mc_draws", {"0": ">= 1", "-1": ">= 1"}, ["1", "50"]),
            ("theory", "delta", {"-0.1": ">= 0", "-1e-9": ">= 0"}, ["0", "1e150"]),
            ("pretrain", "adv_epsilon", {"-0.03": ">= 0"}, ["0", "0.03"]),
            ("pretrain", "adv_steps", {"0": ">= 1", "-2": ">= 1"}, ["1", "3"]),
            ("pretrain", "adv_step_size", {"0": "> 0", "-0.01": "> 0"}, ["1e-9", "0.01"]),
            ("theory", "mu", {"-1": ">= 0", "-1e-9": ">= 0"}, ["0", "1e-4"]),
            ("theory", "eta", {"-1": ">= 0", "-1e-9": ">= 0"}, ["0", "0.5"]),
            ("theory", "d", {"0": ">= 1", "-2": ">= 1"}, ["1", "12"]),
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
            ("theory.normalization", ["unit", "doubly-stochastic-per-block"],
             ["none", "unit-spectral-per-block"]),
            ("corruption.kind", ["none"], ["gaussian_noise", "brightness"]),
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

    @pytest.mark.parametrize(
        "key, value",
        [
            ("corruption.severities", "1,,3,"),
            ("corruption.severities", "2,"),
            ("model.hidden_sizes", ",16"),
            ("theory.class_sizes", "6, ,5"),
            ("theory.mu_values", "1e-4,,1"),
        ],
    )
    def test_empty_entry_rejected(self, key, value):
        section, name = key.split(".")
        message = f"line 2: '{key}' has an empty entry in {value!r}"
        with pytest.raises(FormatError, match=re.escape(message)):
            parse_config(f"[{section}]\n{name} = {value}\n")

    @pytest.mark.parametrize(
        "key, value",
        [
            ("corruption.severities", "5,1,3,3"),
            ("theory.mu_values", "1e-4,1,0.0001"),
            ("theory.mu_values", "0,-0"),
        ],
    )
    def test_repeated_sweep_entry_rejected(self, key, value):
        section, name = key.split(".")
        message = f"line 2: '{key}' repeats an entry in {value!r}"
        with pytest.raises(FormatError, match=re.escape(message)):
            parse_config(f"[{section}]\n{name} = {value}\n")

    def test_repeats_allowed_in_size_lists(self):
        cfg = parse_config("[model]\nhidden_sizes = 16,16\n[theory]\nclass_sizes = 5,5\n")
        assert cfg.get("model.hidden_sizes") == (16, 16)
        assert cfg.get("theory.class_sizes") == (5, 5)

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


class TestConfigSections:
    """The CLI passes whole sections as keyword arguments, so a key added to
    one side alone would surface as an uncaught TypeError."""

    @staticmethod
    def section_keys(name):
        return sorted(key.split(".", 1)[1] for key in CONFIG if key.split(".", 1)[0] == name)

    def test_train_section_is_the_train_config(self):
        assert sorted(f.name for f in dataclasses.fields(encoder.TrainConfig)) == (
            self.section_keys("train")
        )

    def test_model_section_is_build_model_keywords(self):
        params = list(inspect.signature(encoder.build_model).parameters)
        assert params[:2] == ["input_dim", "n_classes"]
        assert sorted(params[2:]) == self.section_keys("model")

    def test_empty_config_sections_are_the_defaults(self):
        config = parse_config("")
        for name in {key.split(".", 1)[0] for key in CONFIG}:
            assert config.section(name) == {
                key.split(".", 1)[1]: CONFIG[key].default for key in CONFIG
                if key.startswith(name + ".")
            }

    def test_section_gives_parsed_values_without_the_prefix(self):
        config = parse_config("[model]\nfeature_dim = 8\n[train]\nepochs = 2\n")
        assert config.section("model") == {"hidden_sizes": (128, 64), "feature_dim": 8, "seed": 0}
        assert config.section("train")["epochs"] == 2
        assert config.section("tra") == {}


def _field_defaults(cls) -> dict:
    return {f.name: f.default for f in dataclasses.fields(cls) if f.default is not dataclasses.MISSING}


def _parameter_defaults(function) -> dict:
    parameters = inspect.signature(function).parameters.values()
    return {p.name: p.default for p in parameters if p.default is not p.empty}


# Keys whose value the stage handler passes to a field or parameter that has
# no default of its own.
NO_LIBRARY_DEFAULT = {
    "train.epochs", "pretrain.epochs",
    *(key for key in CONFIG if key.split(".")[0] in ("synth", "corruption")),
    "theory.class_sizes", "theory.delta", "theory.eta", "theory.d", "theory.mu",
    "theory.mu_values", "theory.lr", "theory.seed", "ood.mode", "ood.target", "eval.method",
}


class TestLibraryDefaults:
    """A key left out of a config must run what the library runs when the
    matching argument is left out: one default per key."""

    @staticmethod
    def library_defaults() -> dict:
        pretrain = _field_defaults(contrastive.PretrainConfig)
        adv = pretrain.pop("adv")
        mc = _parameter_defaults(ood.mc_score_records)
        return {
            **{f"train.{name}": value for name, value in _field_defaults(encoder.TrainConfig).items()},
            **{f"pretrain.{name}": value for name, value in pretrain.items()},
            **{f"pretrain.adv_{name}": value for name, value in dataclasses.asdict(adv).items()},
            **{f"model.{name}": value for name, value in _parameter_defaults(encoder.build_model).items()},
            **{f"theory.{name}": value for name, value in _field_defaults(theory.SolveOptions).items()},
            "theory.normalization": _parameter_defaults(theory.build_adjacency)["normalization"],
            "ood.quantile": _parameter_defaults(ood.fit_subspaces)["quantile"],
            "ood.mc_draws": mc["k_draws"],
            "ood.mc_noise_sigma": mc["noise_sigma"],
            "ood.seed": mc["seed"],
            "eval.tpr_target": _parameter_defaults(metrics.evaluate_split)["tpr_target"],
        }

    def test_every_config_default_is_the_library_default(self):
        library = self.library_defaults()
        pinned = {key: CONFIG[key].default for key in library if key in CONFIG}
        assert pinned == {key: library[key] for key in pinned}
        assert all(type(value) is type(library[key]) for key, value in pinned.items())

    def test_every_key_is_pinned_or_listed(self):
        library = self.library_defaults()
        assert NO_LIBRARY_DEFAULT.isdisjoint(library)
        assert set(CONFIG) == (set(library) & set(CONFIG)) | NO_LIBRARY_DEFAULT
        # Library fields without a key keep their default in every run.
        assert set(library) - set(CONFIG) == {"theory.init"}
