"""Encoder forward/backward, training, gradient checks, checkpoint format."""

import copy

import numpy as np
import pytest

from gradcheck import (
    grad_check,
    input_gradient,
    loss_and_grad,
    max_relative_error,
    numeric_grads,
    trainable_params,
)
from rodd import encoder
from rodd.contrastive import batch_adjacency
from rodd.data import Dataset, synth_gaussian_mixture
from rodd.encoder import (
    DenseLayer,
    EncoderModel,
    TrainConfig,
    build_model,
    cross_entropy,
    forward,
    head_logits,
    load_model,
    save_model,
    train,
)
from rodd.errors import ContractViolation, DegenerateFeatureError, DivergenceError, FormatError
from rodd.linalg import orthonormal_init
from rodd.metrics import accuracy


def identity_body_model(d, n_classes, seed=0, bn_scale=1.0):
    # Body is the identity map, so features == inputs; handy for head tests.
    proj = orthonormal_init(d, n_classes, seed)
    return EncoderModel(
        layers=[DenseLayer(np.eye(d), None)],
        class_proj=proj,
        sharpen_w=np.zeros(d),
        bn_scale=np.asarray(bn_scale),
    )


class TestForward:
    def test_cosine_with_own_direction_is_one(self):
        model = identity_body_model(6, 3, seed=4)
        for cls in range(3):
            record = forward(model, model.class_proj[:, cls][None, :])
            assert abs(record.z[0, cls] - 1.0) <= 1e-12
            assert np.abs(record.z).max() <= 1.0 + 1e-12

    def test_sharpening_division_is_exact(self):
        # bn_scale = 0 forces g = sigmoid(0) = 0.5 exactly, so logits = 2z.
        model = identity_body_model(5, 2, bn_scale=0.0)
        x = np.random.default_rng(0).standard_normal((3, 5))
        record = forward(model, x)
        assert np.array_equal(record.g, np.full(3, 0.5))
        assert np.array_equal(record.logits, 2.0 * record.z)

    def test_input_gradient_matches_finite_differences(self):
        rng = np.random.default_rng(8)
        model = build_model(6, 3, hidden_sizes=(9,), feature_dim=5, seed=2)
        x = rng.standard_normal((4, 6))
        grad = input_gradient(model, x, mode="eval")
        eps = 1e-5
        worst = 0.0
        for i in range(4):
            for j in range(6):
                up = x.copy()
                up[i, j] += eps
                down = x.copy()
                down[i, j] -= eps
                numeric = (
                    forward(model, up).logits.sum()
                    - forward(model, down).logits.sum()
                ) / (2 * eps)
                worst = max(
                    worst,
                    abs(grad[i, j] - numeric) / max(abs(grad[i, j]), abs(numeric), 1e-8),
                )
        assert worst <= 1e-4

    def test_cosine_bound_holds(self):
        rng = np.random.default_rng(10)
        model = build_model(7, 4, hidden_sizes=(12, 8), feature_dim=6, seed=5)
        record = forward(model, rng.standard_normal((30, 7)))
        assert np.abs(record.z).max() <= 1.0 + 1e-12
        assert np.all(record.g > 0.0) and np.all(record.g < 1.0)

    def test_sharpening_amplifies(self):
        rng = np.random.default_rng(11)
        model = build_model(7, 4, hidden_sizes=(12,), feature_dim=6, seed=6)
        record = forward(model, rng.standard_normal((20, 7)))
        amplified = record.g < 1.0
        assert np.all(np.abs(record.logits[amplified]) >= np.abs(record.z[amplified]))

    def test_eval_mode_deterministic(self):
        rng = np.random.default_rng(12)
        model = build_model(5, 2, hidden_sizes=(8,), feature_dim=4, seed=7)
        x = rng.standard_normal((6, 5))
        before = (model.bn_mean, model.bn_var)
        a = forward(model, x)
        b = forward(model, x)
        assert np.array_equal(a.logits, b.logits)
        assert (model.bn_mean, model.bn_var) == before

    def test_each_row_is_scored_alone(self):
        # The running statistics normalize every row, so a row's logits do
        # not depend on the rest of its batch, and one row is a batch.
        rng = np.random.default_rng(13)
        model = build_model(5, 3, hidden_sizes=(8,), feature_dim=4, seed=8)
        x = rng.standard_normal((6, 5))
        whole = forward(model, x).logits
        for i in range(6):
            alone = forward(model, x[i : i + 1]).logits
            assert alone.shape == (1, 3)
            assert np.allclose(alone[0], whole[i], rtol=1e-12, atol=1e-15)
        reordered = forward(model, x[::-1]).logits
        assert np.allclose(reordered, whole[::-1], rtol=1e-12, atol=1e-15)

    def test_forward_has_no_mode(self):
        model = identity_body_model(4, 2)
        x = np.random.default_rng(14).standard_normal((3, 4))
        with pytest.raises(TypeError):
            forward(model, x, mode="train")

    def test_degenerate_feature_raises_with_index(self):
        model = identity_body_model(4, 2)
        x = np.vstack([np.ones(4), np.zeros(4)])
        with pytest.raises(DegenerateFeatureError) as info:
            forward(model, x)
        assert info.value.sample_index == 1

    def test_head_logits_rejects_an_overflowing_norm(self):
        # Finite features whose squared norm overflows used to give unit
        # vectors of zeros, and so a uniform softmax, with a numpy warning
        # (an error here).  Sample 1 is the first such row.
        model = identity_body_model(4, 2)
        feats = np.array([[1.0, 2.0, 0.0, 0.0], [1e200, 0.0, 0.0, 0.0], [0.0, 1e300, 0.0, 0.0]])
        with pytest.raises(ContractViolation, match="sample 1 are finite, but their norm overflows"):
            head_logits(model, feats)
        assert np.array_equal(head_logits(model, feats[:1]), forward(model, feats[:1]).logits)


class TestLossAndGrad:
    def test_uniform_logits_give_log_l(self):
        # Features along the sum of all class directions have equal cosines,
        # so the softmax is uniform and CE = ln(L) per sample.
        model = identity_body_model(6, 3, seed=1, bn_scale=0.0)
        x = np.tile(model.class_proj.sum(axis=1), (4, 1))
        labels = np.array([0, 1, 2, 0])
        loss, _ = loss_and_grad(model, x, labels)
        assert abs(loss - np.log(3)) <= 1e-12

    def test_ce_decreases_as_sharpening_shrinks(self):
        z = np.array([[0.9, 0.2, -0.1]])
        labels = np.array([0])
        loss_soft, _ = cross_entropy(z / 0.9, labels)
        loss_sharp, _ = cross_entropy(z / 0.5, labels)
        assert loss_sharp < loss_soft

    def test_gradients_match_finite_differences(self):
        rng = np.random.default_rng(21)
        model = build_model(5, 3, hidden_sizes=(7,), feature_dim=4, seed=3)
        x = rng.standard_normal((6, 5))
        labels = rng.integers(0, 3, size=6)
        assert grad_check(model, x, labels, eps=1e-5) <= 1e-4

    def test_gradients_with_contrastive_pairs(self):
        rng = np.random.default_rng(22)
        model = build_model(4, 2, hidden_sizes=(6,), feature_dim=4, seed=9)
        x = rng.standard_normal((6, 4))
        labels = rng.integers(0, 2, size=6)
        adjacency = batch_adjacency([(0, 3), (1, 4), (2, 5)], 6)
        mu = 0.3
        work = copy.deepcopy(model)
        _, analytic = loss_and_grad(work, x, labels, mu=mu, adjacency=adjacency)
        params = trainable_params(model)
        eps = 1e-5
        worst = 0.0
        for key, arr in params.items():
            flat = arr.reshape(-1)
            aflat = analytic[key].reshape(-1)
            for i in range(flat.size):
                orig = flat[i]
                flat[i] = orig + eps
                up, _ = loss_and_grad(copy.deepcopy(model), x, labels, mu=mu, adjacency=adjacency)
                flat[i] = orig - eps
                down, _ = loss_and_grad(copy.deepcopy(model), x, labels, mu=mu, adjacency=adjacency)
                flat[i] = orig
                numeric = (up - down) / (2 * eps)
                worst = max(
                    worst, abs(aflat[i] - numeric) / max(abs(aflat[i]), abs(numeric), 1e-8)
                )
        assert worst <= 1e-4

    def test_frozen_projection_gets_no_gradient(self):
        rng = np.random.default_rng(23)
        model = build_model(5, 2, hidden_sizes=(6,), feature_dim=4, seed=2)
        x = rng.standard_normal((4, 5))
        _, grads = loss_and_grad(model, x, rng.integers(0, 2, size=4))
        assert "class_proj" not in grads


class TestGradCheck:
    def test_linear_model_identity_projection(self):
        d = 4
        model = EncoderModel(
            layers=[DenseLayer(np.random.default_rng(3).standard_normal((d, d)) * 0.5, np.zeros(d))],
            class_proj=np.eye(d),
            sharpen_w=np.full(d, 0.3),
            bn_scale=np.asarray(1.0),
        )
        rng = np.random.default_rng(4)
        x = rng.standard_normal((5, d)) + 2.0
        labels = rng.integers(0, d, size=5)
        assert grad_check(model, x, labels, eps=1e-5) <= 1e-6

    def test_threshold_across_architectures(self):
        specs = [((16,), 5, 6), ((12, 8), 4, 4), ((), 6, 5)]
        for seed in range(3):
            for hidden, feature_dim, input_dim in specs:
                rng = np.random.default_rng(100 + seed)
                model = build_model(
                    input_dim, 3, hidden_sizes=hidden, feature_dim=feature_dim, seed=seed
                )
                # Shifted positive inputs keep hidden units alive, like the
                # [0, 1]-ranged data the encoder actually consumes.
                x = 0.5 * rng.standard_normal((6, input_dim)) + 1.0
                labels = rng.integers(0, 3, size=6)
                assert grad_check(model, x, labels, eps=1e-5) <= 1e-4

    def test_detects_corrupted_gradient(self):
        rng = np.random.default_rng(31)
        model = build_model(4, 2, hidden_sizes=(5,), feature_dim=4, seed=8)
        x = 0.5 * rng.standard_normal((5, 4)) + 1.0
        labels = rng.integers(0, 2, size=5)
        _, analytic = loss_and_grad(copy.deepcopy(model), x, labels)
        numeric = numeric_grads(copy.deepcopy(model), x, labels, eps=1e-5)
        analytic["layers.0.weight"][0, 0] += 0.1
        assert max_relative_error(analytic, numeric) > 1e-2

    def test_eps_bounds(self):
        model = build_model(4, 2, hidden_sizes=(5,), feature_dim=4, seed=8)
        with pytest.raises(ContractViolation):
            grad_check(model, np.ones((3, 4)), np.zeros(3, dtype=int), eps=0.5)

    def test_model_left_untouched(self):
        rng = np.random.default_rng(32)
        model = build_model(4, 2, hidden_sizes=(5,), feature_dim=4, seed=8)
        snapshot = copy.deepcopy(model)
        grad_check(model, 0.5 * rng.standard_normal((4, 4)) + 1.0, rng.integers(0, 2, 4))
        assert np.array_equal(model.layers[0].weight, snapshot.layers[0].weight)
        assert model.bn_mean == snapshot.bn_mean and model.bn_var == snapshot.bn_var


def blobs_dataset(seed=0):
    return synth_gaussian_mixture(2, 100, 2, separation=6.0, noise_sigma=0.5, seed=seed)


class TestTrain:
    def test_fits_separable_blobs(self):
        dataset = blobs_dataset()
        model = build_model(2, 2, hidden_sizes=(16,), feature_dim=4, seed=1)
        model, _ = train(model, dataset, TrainConfig(epochs=30, batch_size=32, seed=1))
        assert accuracy(forward(model, dataset.inputs).logits, dataset.labels) >= 0.99

    def test_zero_epochs_is_identity(self):
        dataset = blobs_dataset()
        model = build_model(2, 2, hidden_sizes=(8,), feature_dim=4, seed=2)
        snapshot = copy.deepcopy(model)
        model, history = train(model, dataset, TrainConfig(epochs=0, seed=0))
        assert history == []
        for layer, ref in zip(model.layers, snapshot.layers):
            assert np.array_equal(layer.weight, ref.weight)
            assert np.array_equal(layer.bias, ref.bias)
        assert np.array_equal(model.sharpen_w, snapshot.sharpen_w)
        assert model.bn_mean == snapshot.bn_mean

    def test_deterministic_history(self):
        dataset = blobs_dataset()
        histories = []
        for _ in range(2):
            model = build_model(2, 2, hidden_sizes=(8,), feature_dim=4, seed=3)
            _, history = train(model, dataset, TrainConfig(epochs=5, batch_size=16, seed=9))
            histories.append(history)
        assert histories[0] == histories[1]

    def test_projection_frozen_bit_exact(self):
        dataset = blobs_dataset()
        model = build_model(2, 2, hidden_sizes=(8,), feature_dim=4, seed=4)
        before = model.class_proj.tobytes()
        model, _ = train(model, dataset, TrainConfig(epochs=8, batch_size=16, seed=1))
        assert model.class_proj.tobytes() == before

    def test_divergence_raises_with_epoch(self, monkeypatch):
        dataset = blobs_dataset()
        model = build_model(2, 2, hidden_sizes=(8,), feature_dim=4, seed=5)
        monkeypatch.setattr(encoder, "GRAD_CLIP", 1e18)
        config = TrainConfig(epochs=3, batch_size=16, lr=1e12, seed=0)
        with np.errstate(all="ignore"), pytest.raises(DivergenceError) as info:
            train(model, dataset, config)
        assert info.value.epoch in (0, 1, 2)

    def test_contrastive_divergence_raises_with_epoch(self, monkeypatch):
        # Overflowing features must end as a divergence (exit 2), not as the
        # spectral loss's non-finite-input contract error (exit 1).
        dataset = blobs_dataset()
        model = build_model(2, 2, hidden_sizes=(8,), feature_dim=4, seed=5)
        monkeypatch.setattr(encoder, "GRAD_CLIP", 1e300)
        config = TrainConfig(epochs=3, batch_size=16, lr=1e200, seed=0, mu=1.0)
        with np.errstate(all="ignore"), pytest.raises(DivergenceError) as info:
            train(model, dataset, config)
        assert info.value.epoch in (0, 1, 2)

    def test_contrastive_mode_runs_and_freezes_projection(self):
        dataset = blobs_dataset()
        model = build_model(2, 2, hidden_sizes=(8,), feature_dim=4, seed=6)
        before = model.class_proj.tobytes()
        config = TrainConfig(epochs=3, batch_size=16, seed=2, mu=1.0, aug_gaussian_sigma=0.1)
        model, history = train(model, dataset, config)
        assert len(history) == 3
        assert model.class_proj.tobytes() == before

    def test_input_noise_augmentation_changes_trajectory(self):
        dataset = blobs_dataset()
        runs = []
        for noise in (0.0, 0.3):
            model = build_model(2, 2, hidden_sizes=(8,), feature_dim=4, seed=7)
            _, history = train(
                model, dataset, TrainConfig(epochs=3, batch_size=16, seed=1, input_noise=noise)
            )
            runs.append(history[-1]["loss"])
        assert runs[0] != runs[1]

    def test_rejects_unlabeled(self):
        ds = Dataset(np.ones((4, 2)), None, 0)
        model = build_model(2, 2, hidden_sizes=(8,), feature_dim=4, seed=0)
        with pytest.raises(ContractViolation):
            train(model, ds, TrainConfig(epochs=1))

    def test_rejects_empty_class(self):
        ds = Dataset(np.ones((4, 2)), np.zeros(4, dtype=int), 2)
        model = build_model(2, 2, hidden_sizes=(8,), feature_dim=4, seed=0)
        with pytest.raises(ContractViolation, match="class 1"):
            train(model, ds, TrainConfig(epochs=1))

    @pytest.mark.parametrize("labels, batch_size", [([0], 64), ([0, 1, 0, 1], 1)])
    def test_rejects_a_run_without_a_step(self, labels, batch_size):
        # Batch statistics need two rows: one row, or batches of one, would
        # leave every epoch without a step and its loss NaN.
        ds = Dataset(np.arange(2.0 * len(labels)).reshape(-1, 2), labels, max(labels) + 1)
        model = build_model(2, ds.class_count, hidden_sizes=(8,), feature_dim=4, seed=0)
        with pytest.raises(ContractViolation, match="at least 2 rows and a batch_size of at least 2"):
            train(model, ds, TrainConfig(epochs=1, batch_size=batch_size))


class TestCheckpoint:
    def test_round_trip_bytes(self, tmp_path):
        model = build_model(5, 3, hidden_sizes=(7, 6), feature_dim=4, seed=11)
        model.bn_mean, model.bn_var = -0.25, 1.75
        path = tmp_path / "model.ckpt"
        save_model(path, model)
        loaded = load_model(path)
        path2 = tmp_path / "model2.ckpt"
        save_model(path2, loaded)
        assert path.read_bytes() == path2.read_bytes()
        assert np.array_equal(loaded.class_proj, model.class_proj)
        assert np.array_equal(loaded.sharpen_w, model.sharpen_w)
        assert float(loaded.bn_scale) == float(model.bn_scale)
        assert loaded.bn_mean == model.bn_mean and loaded.bn_var == model.bn_var
        for a, b in zip(loaded.layers, model.layers):
            assert np.array_equal(a.weight, b.weight)
            assert np.array_equal(a.bias, b.bias)

    def test_column_major_arrays_written_row_major(self, tmp_path):
        model = build_model(5, 3, hidden_sizes=(7,), feature_dim=4, seed=1)
        save_model(tmp_path / "c.ckpt", model)
        model.layers[0].weight = np.asfortranarray(model.layers[0].weight)
        model.class_proj = np.asfortranarray(model.class_proj)
        save_model(tmp_path / "f.ckpt", model)
        assert (tmp_path / "c.ckpt").read_bytes() == (tmp_path / "f.ckpt").read_bytes()

    def test_none_bias_round_trip(self, tmp_path):
        model = identity_body_model(4, 2)
        path = tmp_path / "m.ckpt"
        save_model(path, model)
        loaded = load_model(path)
        assert loaded.layers[0].bias is None

    def test_truncated(self, tmp_path):
        model = build_model(4, 2, hidden_sizes=(5,), feature_dim=4, seed=0)
        path = tmp_path / "m.ckpt"
        save_model(path, model)
        path.write_bytes(path.read_bytes()[:-3])
        with pytest.raises(FormatError, match="missing"):
            load_model(path)

    def test_bad_magic(self, tmp_path):
        path = tmp_path / "m.ckpt"
        path.write_bytes(b"WRONGMAG1" + bytes(64))
        with pytest.raises(FormatError, match="magic"):
            load_model(path)
