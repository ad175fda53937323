"""The flat-buffer momentum-SGD core against the per-array loops it replaced."""

import copy

import numpy as np
import pytest

import sgd_oracle
from rodd.contrastive import AdversarialSpec, AugmentationSpec, PretrainConfig, pretrain
from rodd.data import synth_gaussian_mixture
from rodd.encoder import MomentumSGD, TrainConfig, _body_forward, build_model, features, train
from rodd.errors import ContractViolation


def small_model(seed=3, drop_bias=None):
    model = build_model(6, 3, hidden_sizes=(10, 8), feature_dim=5, seed=seed)
    if drop_bias is not None:
        model.layers[drop_bias].bias = None
    return model


def dataset(per_class=11, seed=2):
    # 3 x 11 = 33 rows: with batch_size 16 the tail batch has one row.
    ds = synth_gaussian_mixture(3, per_class, 6, separation=3.0, noise_sigma=0.6, seed=seed)
    ds.inputs = (ds.inputs - ds.inputs.min()) / np.ptp(ds.inputs)
    return ds


def assert_same_model(a, b):
    assert len(a.layers) == len(b.layers)
    for la, lb in zip(a.layers, b.layers):
        assert np.array_equal(la.weight, lb.weight)
        assert (la.bias is None) == (lb.bias is None)
        if la.bias is not None:
            assert np.array_equal(la.bias, lb.bias)
    assert np.array_equal(a.sharpen_w, b.sharpen_w)
    assert np.array_equal(a.bn_scale, b.bn_scale)
    assert np.array_equal(a.class_proj, b.class_proj)
    assert (a.bn_mean, a.bn_var) == (b.bn_mean, b.bn_var)


TRAIN_CASES = {
    "input_noise": dict(input_noise=0.5),
    "contrastive": dict(contrastive=True, mu=0.7, aug_gaussian_sigma=0.1),
    "no_cosine_decay": dict(cosine_decay=False, input_noise=0.2),
    "clipped": dict(grad_clip=0.05, lr=0.2),
    "zero_momentum": dict(momentum=0.0),
}


class TestTrainMatchesOracle:
    @pytest.mark.parametrize("case", sorted(TRAIN_CASES))
    def test_bitwise(self, case):
        config = TrainConfig(epochs=4, batch_size=16, seed=5, **TRAIN_CASES[case])
        ds = dataset()
        model = small_model()
        reference, ref_history = sgd_oracle.train(copy.deepcopy(model), ds, config)
        trained, history = train(model, ds, config)
        assert_same_model(trained, reference)
        assert [(h["loss"], h["accuracy"]) for h in history] == ref_history

    @pytest.mark.parametrize("layer", [0, 2])
    def test_bitwise_without_a_bias(self, layer):
        config = TrainConfig(epochs=3, batch_size=16, seed=1, input_noise=0.3)
        ds = dataset()
        model = small_model(drop_bias=layer)
        reference, ref_history = sgd_oracle.train(copy.deepcopy(model), ds, config)
        trained, history = train(model, ds, config)
        assert_same_model(trained, reference)
        assert [(h["loss"], h["accuracy"]) for h in history] == ref_history

    def test_history_health_fields(self):
        config = TrainConfig(epochs=3, batch_size=16, seed=1, lr=0.2, grad_clip=0.05)
        _, history = train(small_model(), dataset(), config)
        for entry in history:
            assert list(entry) == ["epoch", "loss", "accuracy", "grad_norm", "clip_fraction", "lr"]
            assert entry["grad_norm"] > 0.0
            assert 0.0 <= entry["clip_fraction"] <= 1.0
        assert history[0]["clip_fraction"] > 0.0  # clip 0.05 is far below the first norms
        assert history[0]["lr"] == 0.2 and history[1]["lr"] < 0.2  # cosine decay


PRETRAIN_CASES = {
    "plain": dict(),
    "adversarial": dict(adv=AdversarialSpec(epsilon=0.03, steps=2, step_size=0.02)),
    "no_momentum_tight_clip": dict(momentum=0.0, grad_clip=0.01),
}


class TestPretrainMatchesOracle:
    @pytest.mark.parametrize("case", sorted(PRETRAIN_CASES))
    def test_bitwise(self, case):
        # 33 rows in batches of 16: the one-row tail batch is trained on.
        config = PretrainConfig(
            epochs=3, batch_size=16, aug=AugmentationSpec(gaussian_sigma=0.05), seed=4,
            **PRETRAIN_CASES[case],
        )
        ds = dataset()
        model = small_model(drop_bias=1)
        reference, ref_history = sgd_oracle.pretrain(copy.deepcopy(model), ds, config)
        trained, history = pretrain(model, ds, config)
        assert_same_model(trained, reference)
        assert history["loss"] == ref_history
        assert history["lr"] == [config.lr] * 3
        assert all(0.0 <= f <= 1.0 for f in history["clip_fraction"])

    def test_body_only_buffer_leaves_head_arrays_alone(self):
        model = small_model()
        sharpen, scale = model.sharpen_w, model.bn_scale
        opt = MomentumSGD(model, 0.9, 1.0, body_only=True)
        assert model.sharpen_w is sharpen and model.bn_scale is scale
        assert set(opt.grads) == {f"layers.{i}.{p}" for i in range(3) for p in ("weight", "bias")}


class TestFlatBuffer:
    def test_trainable_arrays_are_views_of_the_buffer(self):
        model = small_model(drop_bias=1)
        before = copy.deepcopy(model)
        opt = MomentumSGD(model, 0.9, 5.0)
        trainable = [model.bn_scale, model.sharpen_w]
        for layer in model.layers:
            trainable += [layer.weight] + ([layer.bias] if layer.bias is not None else [])
        for arr in trainable:
            assert np.shares_memory(arr, opt.params)
        assert sum(arr.size for arr in trainable) == opt.params.size
        assert not np.shares_memory(model.class_proj, opt.params)
        assert_same_model(model, before)

    def test_buffer_and_gradient_order(self):
        model = small_model()
        opt = MomentumSGD(model, 0.9, 5.0)
        names = ["bn_scale", "sharpen_w"]
        for i in (2, 1, 0):
            names += [f"layers.{i}.weight", f"layers.{i}.bias"]
        assert list(opt.grads) == names
        assert opt.params[0] == 1.0  # bn_scale first
        assert np.array_equal(opt.params[1:6], model.sharpen_w)
        assert np.shares_memory(opt.grads["layers.2.weight"], opt.grad)

    def test_step_reports_norm_and_clipping(self):
        model = small_model()
        opt = MomentumSGD(model, 0.5, 1.0)
        opt.grad[:] = 0.0
        opt.grads["sharpen_w"][:2] = (3.0, 4.0)
        norm, clipped = opt.step(0.1)
        assert norm == 5.0 and clipped
        # clip factor 1/5, lr 0.1: the velocity is -(0.1 * 0.2) * grad
        assert np.array_equal(opt.velocity[1:3], -(0.1 * 0.2) * np.array([3.0, 4.0]))
        assert not opt.velocity[3:].any()
        opt.grad[:] = 0.0
        opt.grads["bn_scale"][...] = 0.5
        assert opt.step(0.1) == (0.5, False)

    @pytest.mark.parametrize(
        "momentum, grad_clip", [(-0.1, 1.0), (1.0, 1.0), (0.9, 0.0), (0.9, -1.0)]
    )
    def test_rejects_bad_settings(self, momentum, grad_clip):
        with pytest.raises(ContractViolation):
            MomentumSGD(small_model(), momentum, grad_clip)


class TestCacheFreeForward:
    @pytest.mark.parametrize("drop_bias", [None, 0, 2])
    def test_keep_false_is_bitwise_keep_true(self, drop_bias):
        model = small_model(drop_bias=drop_bias)
        x = np.random.default_rng(7).standard_normal((40, 6))
        lean, none = _body_forward(model.layers, x)
        kept, acts = _body_forward(model.layers, x, keep=True)
        assert none is None
        assert np.array_equal(lean, kept)
        assert len(acts) == 4 and acts[0] is x and acts[-1] is kept
        assert np.array_equal(features(model, x), kept)

    def test_input_is_not_modified(self):
        model = small_model()
        x = np.random.default_rng(8).standard_normal((5, 6))
        snapshot = x.copy()
        _body_forward(model.layers, x)
        _body_forward(model.layers, x, keep=True)
        assert np.array_equal(x, snapshot)
