"""Augmentations, batch adjacency, the pairwise spectral loss, perturbation."""

import copy

import numpy as np
import pytest

from contrastive_probes import augment, pair_cosine_stats
from sgd_oracle import pair_adjacency
from rodd.contrastive import (
    AdversarialSpec,
    PretrainConfig,
    _perturb,
    augment_batch,
    batch_adjacency,
    pretrain,
    spectral_contrastive_loss,
)
from rodd.data import Dataset, synth_gaussian_mixture
from rodd.encoder import DenseLayer, EncoderModel, build_model, features
from rodd.errors import ContractViolation
from rodd.linalg import orthonormal_init


class TestAugment:
    def test_all_zero_spec_is_exact_identity(self):
        x = np.random.default_rng(0).standard_normal(17)
        out = augment(x, 0.0, rng_seed=5)
        assert np.array_equal(out, x)

    def test_deterministic_per_seed(self):
        x = np.random.default_rng(1).standard_normal(10)
        assert np.array_equal(augment(x, 0.1, 7), augment(x, 0.1, 7))
        assert not np.array_equal(augment(x, 0.1, 7), augment(x, 0.1, 8))

    def test_spec_validation(self):
        x = np.zeros((2, 3))
        for sigma in (-0.1, float("nan"), float("inf")):
            with pytest.raises(ContractViolation, match="sigma must be finite and >= 0"):
                augment_batch(x, sigma, np.random.default_rng(0))


class TestBatchAdjacency:
    def test_single_pair(self):
        assert np.array_equal(batch_adjacency(1), np.ones((2, 2)))

    def test_no_pairs_is_identity(self):
        # Without its view pairs, the adjacency is the identity.
        a = batch_adjacency(3)
        first, second = np.arange(3), np.arange(3, 6)
        a[first, second] = a[second, first] = 0.0
        assert np.array_equal(a, np.eye(6))

    def test_block_diagonal(self):
        # Each sample's two views side by side give one 2 x 2 block per sample.
        order = [0, 2, 1, 3]
        a = batch_adjacency(2)[np.ix_(order, order)]
        expected = np.zeros((4, 4))
        expected[:2, :2] = 1.0
        expected[2:, 2:] = 1.0
        assert np.array_equal(a, expected)

    def test_two_views_per_sample_count(self):
        a = batch_adjacency(32)
        off_diag = a - np.eye(64)
        assert int(off_diag.sum()) == 64

    @pytest.mark.parametrize("m", [1, 5, 40])
    def test_matches_the_pair_list(self, m):
        expected = pair_adjacency([(i, m + i) for i in range(m)], 2 * m)
        assert np.array_equal(batch_adjacency(m), expected)


class TestSpectralLoss:
    def test_zero_features(self):
        a = batch_adjacency(1)
        loss, grad = spectral_contrastive_loss(np.zeros((2, 3)), a)
        assert loss == float((a * a).sum())
        assert np.array_equal(grad, np.zeros((2, 3)))

    def test_exact_factorization_gives_zero(self):
        f = np.random.default_rng(3).standard_normal((4, 2))
        loss, grad = spectral_contrastive_loss(f, f @ f.T)
        assert abs(loss) <= 1e-18
        assert np.abs(grad).max() <= 1e-12

    def test_hand_computed_case(self):
        f = np.array([[1.0], [0.0]])
        a = np.ones((2, 2))
        loss, grad = spectral_contrastive_loss(f, a)
        assert loss == 3.0
        assert np.array_equal(grad, np.array([[0.0], [-4.0]]))

    def test_gradient_matches_finite_differences(self):
        rng = np.random.default_rng(4)
        f = rng.standard_normal((5, 3))
        a = rng.standard_normal((5, 5))
        a = (a + a.T) / 2
        _, grad = spectral_contrastive_loss(f, a)
        eps = 1e-6
        worst = 0.0
        for i in range(5):
            for j in range(3):
                up = f.copy()
                up[i, j] += eps
                down = f.copy()
                down[i, j] -= eps
                numeric = (
                    spectral_contrastive_loss(up, a)[0]
                    - spectral_contrastive_loss(down, a)[0]
                ) / (2 * eps)
                worst = max(
                    worst,
                    abs(grad[i, j] - numeric) / max(abs(grad[i, j]), abs(numeric), 1e-8),
                )
        assert worst <= 1e-5

    def test_nonnegative(self):
        rng = np.random.default_rng(5)
        for _ in range(10):
            f = rng.standard_normal((4, 2))
            a = rng.standard_normal((4, 4))
            a = (a + a.T) / 2
            loss, _ = spectral_contrastive_loss(f, a)
            assert loss >= 0.0


class TestAdversarialPerturb:
    def test_zero_epsilon_is_identity(self):
        model = build_model(4, 2, hidden_sizes=(6,), feature_dim=3, seed=1)
        x = np.random.default_rng(6).standard_normal((4, 4))
        out = _perturb(model, x, batch_adjacency(2), AdversarialSpec(epsilon=0.0))
        assert np.array_equal(out, x)

    def test_single_step_structure(self):
        model = build_model(4, 2, hidden_sizes=(6,), feature_dim=3, seed=2)
        x = np.random.default_rng(7).standard_normal((4, 4)) + 1.0
        spec = AdversarialSpec(epsilon=0.02, steps=1, step_size=0.02)
        out = _perturb(model, x, batch_adjacency(2), spec)
        delta = out - x
        allowed = {-0.02, 0.0, 0.02}
        assert set(np.round(delta.ravel(), 12)).issubset(allowed)
        assert np.abs(delta).max() <= spec.epsilon + 1e-12

    def test_linear_model_matches_sign_of_analytic_gradient(self):
        # Identity body: loss gradient wrt inputs equals the feature gradient.
        body = np.eye(3)
        model = EncoderModel(
            layers=[DenseLayer(body, None)],
            class_proj=orthonormal_init(3, 2, 0),
            sharpen_w=np.zeros(3),
            bn_scale=np.asarray(1.0),
        )
        x = np.array([[1.0, 0.0, 0.0], [0.0, 1.0, 0.0]])
        adjacency = batch_adjacency(1)
        _, dfeat = spectral_contrastive_loss(x, adjacency)
        spec = AdversarialSpec(epsilon=0.1, steps=1, step_size=0.1)
        out = _perturb(model, x, adjacency, spec)
        assert np.array_equal(out - x, 0.1 * np.sign(dfeat))

    def test_budget_invariant_multi_step(self):
        model = build_model(5, 2, hidden_sizes=(7,), feature_dim=4, seed=3)
        x = np.random.default_rng(8).standard_normal((6, 5))
        spec = AdversarialSpec(epsilon=0.03, steps=5, step_size=0.02)
        out = _perturb(model, x, batch_adjacency(3), spec)
        assert np.abs(out - x).max() <= spec.epsilon + 1e-12

    def test_loss_increases_on_fixed_instance(self):
        model = build_model(5, 2, hidden_sizes=(7,), feature_dim=4, seed=4)
        x = np.random.default_rng(9).standard_normal((6, 5)) + 1.0
        adjacency = batch_adjacency(3)
        spec = AdversarialSpec(epsilon=0.1, steps=3, step_size=0.05)
        out = _perturb(model, x, adjacency, spec)
        before, _ = spectral_contrastive_loss(features(model, x), adjacency)
        after, _ = spectral_contrastive_loss(features(model, out), adjacency)
        assert after >= before

    def test_loss_increases_on_most_batches(self):
        # Statistical property: the ascent raises the objective on >= 90% of
        # random batches.
        model = build_model(5, 2, hidden_sizes=(7,), feature_dim=4, seed=5)
        rng = np.random.default_rng(10)
        spec = AdversarialSpec(epsilon=0.1, steps=3, step_size=0.05)
        adjacency = batch_adjacency(4)
        increased = 0
        trials = 20
        for _ in range(trials):
            x = rng.standard_normal((8, 5)) + 1.0
            out = _perturb(model, x, adjacency, spec)
            before, _ = spectral_contrastive_loss(features(model, x), adjacency)
            after, _ = spectral_contrastive_loss(features(model, out), adjacency)
            increased += after >= before
        assert increased / trials >= 0.9

    def test_spec_validation(self):
        with pytest.raises(ContractViolation):
            AdversarialSpec(epsilon=-0.1)
        with pytest.raises(ContractViolation, match=r"must reach epsilon, got 1 \* 0.1 < 1.0"):
            AdversarialSpec(epsilon=1.0, steps=1, step_size=0.1)


class TestPretrain:
    def test_one_row_trains_and_batch_size_zero_is_rejected(self):
        ds = Dataset(synth_gaussian_mixture(2, 20, 4, 3.0, 0.3, seed=0).inputs[:1], None, 0)
        model = build_model(4, 2, hidden_sizes=(6,), feature_dim=3, seed=5)
        _, history = pretrain(model, ds, PretrainConfig(epochs=2, batch_size=1, seed=0))
        assert len(history) == 2
        with pytest.raises(ContractViolation, match="batch_size of at least 1, got 1 rows and batch_size 0"):
            pretrain(model, ds, PretrainConfig(epochs=1, batch_size=0, seed=0))

    def test_zero_epochs_unchanged(self):
        ds = synth_gaussian_mixture(2, 20, 4, 3.0, 0.3, seed=0)
        model = build_model(4, 2, hidden_sizes=(6,), feature_dim=3, seed=5)
        snapshot = copy.deepcopy(model)
        model, history = pretrain(model, ds, PretrainConfig(epochs=0, seed=0))
        assert history == []
        for layer, ref in zip(model.layers, snapshot.layers):
            assert np.array_equal(layer.weight, ref.weight)

    def test_head_untouched(self):
        ds = synth_gaussian_mixture(2, 40, 4, 3.0, 0.3, seed=1)
        model = build_model(4, 2, hidden_sizes=(6,), feature_dim=3, seed=6)
        proj = model.class_proj.tobytes()
        sharpen = model.sharpen_w.tobytes()
        bn = (model.bn_mean, model.bn_var, float(model.bn_scale))
        model, _ = pretrain(
            model,
            ds,
            PretrainConfig(epochs=3, batch_size=16, aug_gaussian_sigma=0.05, seed=2),
        )
        assert model.class_proj.tobytes() == proj
        assert model.sharpen_w.tobytes() == sharpen
        assert (model.bn_mean, model.bn_var, float(model.bn_scale)) == bn

    def test_deterministic(self):
        ds = synth_gaussian_mixture(2, 30, 4, 3.0, 0.3, seed=2)
        histories = []
        for _ in range(2):
            model = build_model(4, 2, hidden_sizes=(6,), feature_dim=3, seed=7)
            _, history = pretrain(
                model,
                ds,
                PretrainConfig(epochs=4, batch_size=16, aug_gaussian_sigma=0.05, seed=3),
            )
            histories.append(history)
        assert histories[0] == histories[1]

    def test_two_cluster_pair_alignment(self):
        ds = synth_gaussian_mixture(2, 60, 2, separation=4.0, noise_sigma=0.3, seed=3)
        model = build_model(2, 2, hidden_sizes=(16,), feature_dim=2, seed=8)
        config = PretrainConfig(epochs=50, batch_size=32, lr=0.02, aug_gaussian_sigma=0.1, seed=4)
        model, history = pretrain(model, ds, config)
        assert history[-1]["loss"] < history[0]["loss"]
        within, between = pair_cosine_stats(model, ds, 0.1, seed=99)
        assert within > between

    def test_adversarial_mode_runs(self):
        ds = synth_gaussian_mixture(2, 20, 4, 3.0, 0.3, seed=4)
        model = build_model(4, 2, hidden_sizes=(6,), feature_dim=3, seed=9)
        adv = AdversarialSpec(epsilon=0.03, steps=2, step_size=0.02)
        model, history = pretrain(
            model,
            ds,
            PretrainConfig(epochs=2, batch_size=10, aug_gaussian_sigma=0.05, adv=adv, seed=5),
        )
        assert len(history) == 2
        assert all(np.isfinite(entry["loss"]) for entry in history)
