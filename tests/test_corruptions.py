"""Corruption generators: determinism, range, severity monotonicity."""

import numpy as np
import pytest

from rodd.corruptions import (
    BRIGHTNESS_SHIFT,
    CONTRAST_FACTOR,
    GAUSSIAN_SIGMA,
    IMPULSE_FRACTION,
    KINDS,
    SHOT_PHOTONS,
    CorruptionSpec,
    apply_corruption,
    corrupt_dataset,
)
from rodd.data import Dataset
from rodd.errors import ContractViolation


def flat_input(seed=0, size=400):
    return np.random.default_rng(seed).uniform(0.2, 0.8, size=size)


class TestApplyCorruption:
    def test_none_is_exact(self):
        x = flat_input()
        out = apply_corruption(x, CorruptionSpec("none", 3, 7))
        assert np.array_equal(out, x)

    def test_gaussian_severity_monotone_on_same_seed(self):
        x = flat_input(1)
        low = apply_corruption(x, CorruptionSpec("gaussian_noise", 1, 5))
        high = apply_corruption(x, CorruptionSpec("gaussian_noise", 5, 5))
        assert np.linalg.norm(high - x) >= np.linalg.norm(low - x)

    def test_impulse_replaces_exact_count(self):
        x = flat_input(2, size=1000)
        for severity in range(1, 6):
            out = apply_corruption(x, CorruptionSpec("impulse_noise", severity, 3))
            replaced = int(((out == 0.0) | (out == 1.0)).sum())
            assert replaced == round(IMPULSE_FRACTION[severity - 1] * 1000)

    def test_deterministic(self):
        x = flat_input(3)
        for kind in ("gaussian_noise", "shot_noise", "impulse_noise", "contrast", "brightness"):
            spec = CorruptionSpec(kind, 4, 9)
            assert np.array_equal(apply_corruption(x, spec), apply_corruption(x, spec))

    @pytest.mark.parametrize("kind", KINDS)
    def test_range_preserved_flat(self, kind):
        x = flat_input(4)
        for severity in (1, 3, 5):
            out = apply_corruption(x, CorruptionSpec(kind, severity, 1))
            assert out.min() >= 0.0 and out.max() <= 1.0

    def test_contrast_pulls_toward_mean(self):
        x = flat_input(9)
        out = apply_corruption(x, CorruptionSpec("contrast", 5, 0))
        assert out.std() < x.std()
        assert abs(out.mean() - x.mean()) <= 1e-12

    def test_brightness_shifts_up(self):
        x = flat_input(10) * 0.5
        out = apply_corruption(x, CorruptionSpec("brightness", 2, 0))
        assert np.all(out >= x)

    def test_rejects_out_of_range_input(self):
        with pytest.raises(ContractViolation):
            apply_corruption(np.array([0.5, 1.5]), CorruptionSpec("gaussian_noise", 1, 0))

    @pytest.mark.parametrize("seed", [-3, 2**64, 1.0])
    def test_seed_outside_u64_rejected(self, seed):
        match = r"corruption seed must be an integer in \[0, 2\*\*64\)"
        with pytest.raises(ContractViolation, match=match):
            CorruptionSpec("gaussian_noise", 1, seed)

    def test_unknown_kind_rejected(self):
        with pytest.raises(ContractViolation):
            CorruptionSpec("salt", 1, 0)
        with pytest.raises(ContractViolation):
            CorruptionSpec("gaussian_noise", 6, 0)


class TestSeverityTables:
    def test_parameters_strictly_monotone(self):
        assert list(GAUSSIAN_SIGMA) == sorted(GAUSSIAN_SIGMA)
        assert len(set(GAUSSIAN_SIGMA)) == 5
        assert list(SHOT_PHOTONS) == sorted(SHOT_PHOTONS, reverse=True)  # fewer photons = worse
        assert list(IMPULSE_FRACTION) == sorted(IMPULSE_FRACTION)
        assert len(set(IMPULSE_FRACTION)) == 5
        assert list(CONTRAST_FACTOR) == sorted(CONTRAST_FACTOR, reverse=True)
        assert list(BRIGHTNESS_SHIFT) == sorted(BRIGHTNESS_SHIFT)


class TestCorruptDataset:
    def make_dataset(self):
        rng = np.random.default_rng(11)
        return Dataset(rng.uniform(0.1, 0.9, size=(20, 30)), rng.integers(0, 2, 20), 2)

    def test_none_is_identity(self):
        ds = self.make_dataset()
        out = corrupt_dataset(ds, CorruptionSpec("none", 1, 0))
        assert np.array_equal(out.inputs, ds.inputs)
        assert np.array_equal(out.labels, ds.labels)

    def test_same_spec_twice_identical(self):
        ds = self.make_dataset()
        spec = CorruptionSpec("gaussian_noise", 3, 5)
        a = corrupt_dataset(ds, spec)
        b = corrupt_dataset(ds, spec)
        assert a.inputs.tobytes() == b.inputs.tobytes()

    def test_per_sample_seed_is_xor_of_index(self):
        ds = self.make_dataset()
        spec = CorruptionSpec("gaussian_noise", 2, 40)
        out = corrupt_dataset(ds, spec)
        row3 = apply_corruption(ds.inputs[3], CorruptionSpec("gaussian_noise", 2, 40 ^ 3))
        assert np.array_equal(out.inputs[3], row3)

    def test_severity_sweep_deterministic(self):
        ds = self.make_dataset()
        sweeps = [
            [corrupt_dataset(ds, CorruptionSpec("gaussian_noise", s, 1)).inputs.tobytes()
             for s in range(1, 6)]
            for _ in range(2)
        ]
        assert sweeps[0] == sweeps[1]
        assert len(set(sweeps[0])) == 5

    @pytest.mark.parametrize("kind", KINDS)
    def test_matches_per_row_corruption(self, kind):
        rng = np.random.default_rng(12)
        inputs = rng.uniform(0.0, 1.0, size=(23, 17))
        inputs[0, :2] = [0.0, 1.0]
        ds = Dataset(inputs, None, 0)
        for severity in range(1, 6):
            spec = CorruptionSpec(kind, severity, 1234)
            out = corrupt_dataset(ds, spec)
            rows = [
                apply_corruption(inputs[i], CorruptionSpec(kind, severity, 1234 ^ i))
                for i in range(ds.n)
            ]
            assert out.inputs.tobytes() == np.vstack(rows).tobytes()

    @pytest.mark.parametrize("kind", KINDS)
    @pytest.mark.parametrize("seed", [2**32 + 5, 2**64 - 1])
    def test_seed_beyond_32_bits_matches_per_row(self, kind, seed):
        inputs = np.random.default_rng(13).uniform(0.0, 1.0, size=(9, 40))
        for severity in (1, 5):
            out = corrupt_dataset(Dataset(inputs, None, 0), CorruptionSpec(kind, severity, seed))
            rows = [
                apply_corruption(inputs[i], CorruptionSpec(kind, severity, seed ^ i))
                for i in range(inputs.shape[0])
            ]
            assert out.inputs.tobytes() == np.vstack(rows).tobytes()

    def test_gaussian_rows_draw_from_their_own_seed(self):
        ds = self.make_dataset()
        out = corrupt_dataset(ds, CorruptionSpec("gaussian_noise", 4, 9))
        for i in (0, 7, 19):
            noise = np.random.default_rng(9 ^ i).standard_normal(ds.input_dim)
            expect = np.clip(ds.inputs[i] + GAUSSIAN_SIGMA[3] * noise, 0.0, 1.0)
            assert np.array_equal(out.inputs[i], expect)

    def test_rejects_out_of_range_rows(self):
        ds = self.make_dataset()
        ds.inputs[4, 2] = 1.5
        with pytest.raises(ContractViolation, match=r"\[0, 1\]"):
            corrupt_dataset(ds, CorruptionSpec("brightness", 1, 0))

