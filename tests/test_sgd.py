"""The flat-buffer momentum-SGD core against the per-array loops it replaced."""

import copy

import numpy as np
import pytest

import sgd_oracle
from rodd import encoder
from rodd.contrastive import (
    AdversarialSpec,
    PretrainConfig,
    augment_batch,
    batch_adjacency,
    pretrain,
    spectral_contrastive_loss,
    view_pair_adjacency,
)
from rodd.data import synth_gaussian_mixture
from rodd.encoder import (
    MomentumSGD,
    TrainConfig,
    _body_backward,
    _body_forward,
    _head_backward,
    _head_forward,
    build_model,
    cross_entropy,
    features,
    forward,
    train,
)
from rodd.errors import ContractViolation, DegenerateFeatureError
from rodd.metrics import accuracy


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
    "contrastive": dict(mu=0.7, aug_gaussian_sigma=0.1),
    "clipped": dict(lr=0.2),
    "zero_momentum": dict(momentum=0.0),
}
# Fine-tuning's clip is encoder.GRAD_CLIP, which train and the oracle read
# when called; these cases patch it.
TRAIN_CLIPS = {"clipped": 0.05}


class TestTrainMatchesOracle:
    @pytest.mark.parametrize("case", sorted(TRAIN_CASES))
    def test_bitwise(self, case, monkeypatch):
        monkeypatch.setattr(encoder, "GRAD_CLIP", TRAIN_CLIPS.get(case, encoder.GRAD_CLIP))
        config = TrainConfig(epochs=4, batch_size=16, seed=5, **TRAIN_CASES[case])
        ds = dataset()
        model = small_model()
        reference, ref_losses, ref_accuracy = sgd_oracle.train(copy.deepcopy(model), ds, config)
        trained, history = train(model, ds, config)
        assert_same_model(trained, reference)
        assert [entry["loss"] for entry in history] == ref_losses
        assert accuracy(forward(trained, ds.inputs).logits, ds.labels) == ref_accuracy

    @pytest.mark.parametrize("layer", [0, 2])
    def test_bitwise_without_a_bias(self, layer):
        config = TrainConfig(epochs=3, batch_size=16, seed=1, input_noise=0.3)
        ds = dataset()
        model = small_model(drop_bias=layer)
        reference, ref_losses, ref_accuracy = sgd_oracle.train(copy.deepcopy(model), ds, config)
        trained, history = train(model, ds, config)
        assert_same_model(trained, reference)
        assert [entry["loss"] for entry in history] == ref_losses
        assert accuracy(forward(trained, ds.inputs).logits, ds.labels) == ref_accuracy

    def test_history_health_fields(self, monkeypatch):
        monkeypatch.setattr(encoder, "GRAD_CLIP", 0.05)
        config = TrainConfig(epochs=3, batch_size=16, seed=1, lr=0.2)
        _, history = train(small_model(), dataset(), config)
        for entry in history:
            assert list(entry) == ["epoch", "loss", "grad_norm", "clip_fraction", "lr"]
            assert entry["grad_norm"] > 0.0
            assert 0.0 <= entry["clip_fraction"] <= 1.0
        assert history[0]["clip_fraction"] > 0.0  # clip 0.05 is far below the first norms
        assert history[0]["lr"] == 0.2 and history[1]["lr"] < 0.2  # cosine decay

    @pytest.mark.parametrize("case", ["input_noise", "contrastive"])
    def test_encodes_only_the_batches_it_trains_on(self, case, body_rows):
        config = TrainConfig(epochs=3, batch_size=16, seed=5, **TRAIN_CASES[case])
        train(small_model(), dataset(), config)
        # 33 rows in batches of 16, the one-row tail skipped; the joint
        # objective encodes both views of a batch at once.
        views = 2 if config.mu > 0 else 1
        assert body_rows == [16 * views] * 2 * 3


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
            epochs=3, batch_size=16, aug_gaussian_sigma=0.05, seed=4,
            **PRETRAIN_CASES[case],
        )
        ds = dataset()
        model = small_model(drop_bias=1)
        reference, ref_history = sgd_oracle.pretrain(copy.deepcopy(model), ds, config)
        trained, history = pretrain(model, ds, config)
        assert_same_model(trained, reference)
        assert [entry["loss"] for entry in history] == ref_history
        assert [entry["lr"] for entry in history] == [config.lr] * 3
        assert all(0.0 <= entry["clip_fraction"] <= 1.0 for entry in history)

    def test_entry_is_a_fine_tune_entry_without_accuracy(self):
        ds = dataset()
        _, pretrain_history = pretrain(small_model(), ds, PretrainConfig(epochs=2, batch_size=16))
        _, train_history = train(small_model(), ds, TrainConfig(epochs=2, batch_size=16))
        for entry, fine_tune in zip(pretrain_history, train_history, strict=True):
            assert list(entry) == list(fine_tune)

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


def same_bits(a, b):
    a, b = np.asarray(a), np.asarray(b)
    return a.dtype == b.dtype and a.shape == b.shape and a.tobytes() == b.tobytes()


def head_inputs(scale):
    """A 5-feature model and 10 feature rows; rows 0 and 1 are equal, so in
    eval mode, with bn_mean set to their sharpening input, their t is +-0."""
    model = small_model()
    feats = np.random.default_rng(11).standard_normal((10, 5))
    feats[1] = feats[0]
    feats[2] *= 40.0
    model.bn_scale = np.asarray(scale)
    model.bn_mean = float((feats @ model.sharpen_w)[0])
    model.bn_var = 0.3
    return model, feats


# 300 pushes |t| past 100 (g near 0 and 1); a signed zero scale makes every
# train-mode t a signed zero.
HEAD_SCALES = [1.5, -2.0, 300.0, 0.0, -0.0]


class TestHeadLossStepMatchOracle:
    """The program's in-place head, loss, step and augmentation arithmetic
    against the whole-array expressions of sgd_oracle, bit for bit."""

    @pytest.mark.parametrize("mode", ["train", "eval"])
    @pytest.mark.parametrize("scale", HEAD_SCALES)
    def test_head_forward(self, mode, scale):
        model, feats = head_inputs(scale)
        reference = copy.deepcopy(model)
        record, cache = _head_forward(model, feats, mode)
        ref_record, ref_cache = sgd_oracle.head_forward(reference, feats, mode)
        for name in ("features", "z", "g", "logits"):
            assert same_bits(getattr(record, name), getattr(ref_record, name)), name
        for got, want in zip(cache, ref_cache):
            assert same_bits(got, want)
        assert (model.bn_mean, model.bn_var) == (reference.bn_mean, reference.bn_var)
        t = scale * cache[2]
        if scale == 0.0:
            assert not t.any()
        else:
            assert (t < 0).any() and (t > 0).any()
        if mode == "eval" and scale in (1.5, -2.0):
            assert not t[:2].any() and np.signbit(t[:2]).all() == (scale < 0)
        if scale == 300.0:
            assert np.abs(t).max() > 100.0

    def test_head_forward_degenerate_rows_and_empty_batch(self):
        model, feats = head_inputs(1.0)
        feats[3] = np.nan
        feats[6] = 0.0
        for forward in (_head_forward, sgd_oracle.head_forward):
            with pytest.raises(DegenerateFeatureError) as caught:
                forward(model, feats, "eval")
            assert caught.value.sample_index == 6
        empty, _ = _head_forward(model, feats[:0], "eval")
        assert empty.logits.shape == (0, 3)

    @pytest.mark.parametrize("mode", ["train", "eval"])
    @pytest.mark.parametrize("scale", [1.5, -2.0, 20.0])
    def test_head_backward(self, mode, scale):
        model, feats = head_inputs(scale)
        record, cache = sgd_oracle.head_forward(model, feats, mode)
        dlogits = np.random.default_rng(12).standard_normal(record.logits.shape)
        grads = {"bn_scale": np.zeros(()), "sharpen_w": np.zeros(5)}
        dfeat = _head_backward(model, record, cache, dlogits, grads)
        ref_grads = {}
        ref_dfeat = sgd_oracle.head_backward(model, record, cache, dlogits, ref_grads)
        assert same_bits(dfeat, ref_dfeat)
        assert same_bits(grads["bn_scale"], ref_grads["bn_scale"])
        assert same_bits(grads["sharpen_w"], ref_grads["sharpen_w"])

    @pytest.mark.parametrize("n", [2, 7, 64, 300])
    def test_cross_entropy(self, n):
        rng = np.random.default_rng(n)
        logits = rng.standard_normal((n, 4)) * 30.0
        labels = rng.integers(0, 4, n)
        loss, dlogits = cross_entropy(logits, labels)
        ref_loss, ref_dlogits = sgd_oracle.cross_entropy(logits, labels)
        assert loss.hex() == ref_loss.hex()
        assert same_bits(dlogits, ref_dlogits)

    @pytest.mark.parametrize("grad_clip", [1e-3, 1e9])
    def test_step(self, grad_clip):
        # layers.0.weight holds 2,560 entries, enough for numpy's blocked
        # pairwise summation to differ from a plain running sum.
        model = build_model(40, 3, hidden_sizes=(64, 32), feature_dim=8, seed=5)
        opt = MomentumSGD(model, 0.9, grad_clip)
        layout = [(name, view.shape) for name, view in opt.grads.items()]

        def split(flat):
            out, offset = {}, 0
            for name, shape in layout:
                size = int(np.prod(shape))
                out[name] = flat[offset : offset + size].reshape(shape).copy()
                offset += size
            return out

        params, velocity = split(opt.params), split(opt.velocity)
        rng = np.random.default_rng(13)
        for lr in (0.1, 0.05, 0.01):
            opt.grad[:] = rng.standard_normal(opt.grad.size) * rng.uniform(0.1, 10.0)
            expected = sgd_oracle.step(params, velocity, split(opt.grad), lr, 0.9, grad_clip)
            assert opt.step(lr) == expected
            assert expected[1] == (grad_clip < 1.0)
            assert same_bits(opt.params, np.concatenate([params[n].ravel() for n, _ in layout]))
            assert same_bits(opt.velocity, np.concatenate([velocity[n].ravel() for n, _ in layout]))

    @pytest.mark.parametrize("m", [1, 5, 40])
    def test_spectral_loss(self, m):
        f = np.random.default_rng(m).standard_normal((2 * m, 6))
        a = view_pair_adjacency(m)
        loss, grad = spectral_contrastive_loss(f, a)
        ref_loss, ref_grad = sgd_oracle.spectral_contrastive_loss(f, a)
        assert loss.hex() == ref_loss.hex()
        assert same_bits(grad, ref_grad)

    @pytest.mark.parametrize("sigma", [0.0, 0.1], ids=["identity", "noise"])
    def test_augment_batch(self, sigma):
        # The generator must end where the oracle's draws leave it, so every
        # later random number is the one the retired jitter and mask left.
        x = np.random.default_rng(14).standard_normal((9, 10))
        x[0, :3] = (-0.0, 0.0, 1e300)
        rng, ref_rng = np.random.default_rng(15), np.random.default_rng(15)
        out = augment_batch(x, sigma, rng)
        assert same_bits(out, sgd_oracle.augment_batch(x, sigma, ref_rng))
        assert rng.bit_generator.state == ref_rng.bit_generator.state

    @pytest.mark.parametrize("shape", [(1, 1), (1, 32), (64, 1), (128, 32)])
    def test_augment_batch_keeps_a_buffered_word(self, shape):
        # A 32-bit draw, as permutation makes, leaves the other half of its
        # 64-bit word buffered in the bit generator; the skip must keep it.
        x = np.random.default_rng(20).standard_normal(shape)
        rng, ref_rng = np.random.default_rng(21), np.random.default_rng(21)
        rng.integers(2**32, dtype=np.uint32), ref_rng.integers(2**32, dtype=np.uint32)
        assert rng.bit_generator.state["has_uint32"]
        out = augment_batch(x, 0.1, rng)
        assert same_bits(out, sgd_oracle.augment_batch(x, 0.1, ref_rng))
        assert rng.bit_generator.state == ref_rng.bit_generator.state
        assert np.array_equal(rng.integers(2**32, size=3, dtype=np.uint32),
                              ref_rng.integers(2**32, size=3, dtype=np.uint32))


class TestCallerArraysUnchanged:
    """The in-place arithmetic writes only to arrays it made itself."""

    @pytest.mark.parametrize("sigma", [0.0, 0.1], ids=["spec0", "spec1"])
    def test_augment_batch_input(self, sigma):
        x = np.random.default_rng(16).standard_normal((6, 8))
        snapshot = x.copy()
        out = augment_batch(x, sigma, np.random.default_rng(0))
        assert not np.shares_memory(out, x)
        assert same_bits(x, snapshot)

    def test_spectral_loss_inputs_and_cached_adjacency(self):
        f = np.random.default_rng(17).standard_normal((8, 5))
        snapshot = f.copy()
        a = view_pair_adjacency(4)
        spectral_contrastive_loss(f, a)
        assert same_bits(f, snapshot)
        assert view_pair_adjacency(4) is a and not a.flags.writeable
        assert same_bits(a, batch_adjacency([(i, 4 + i) for i in range(4)], 8))

    @pytest.mark.parametrize("with_grads", [True, False])
    def test_body_backward_inputs(self, with_grads):
        model = small_model()
        opt = MomentumSGD(model, 0.9, 5.0)
        x = np.random.default_rng(18).standard_normal((7, 6))
        _, acts = _body_forward(model.layers, x, keep=True)
        dfeat = np.random.default_rng(19).standard_normal((7, 5))
        acts_before, dfeat_before = [a.copy() for a in acts], dfeat.copy()
        _body_backward(model.layers, acts, dfeat, opt.grads if with_grads else None)
        assert same_bits(dfeat, dfeat_before)
        assert all(same_bits(a, b) for a, b in zip(acts, acts_before))

    @pytest.mark.parametrize("case", ["input_noise", "contrastive"])
    def test_train_dataset_inputs(self, case):
        ds = dataset()
        snapshot = ds.inputs.copy()
        train(small_model(), ds, TrainConfig(epochs=2, batch_size=16, seed=5, **TRAIN_CASES[case]))
        assert same_bits(ds.inputs, snapshot)
