"""Vectorized per-row stream seeding against numpy's own default_rng."""

import numpy as np
import pytest

from rodd import corruptions, ood, streams
from rodd.corruptions import KINDS, CorruptionSpec, corrupt_dataset, severity_sweep
from rodd.data import Dataset
from rodd.encoder import build_model, features
from rodd.errors import ContractViolation
from rodd.streams import (
    SEED_LIMIT,
    check_seed,
    pcg64_states,
    row_streams,
    standard_normal_rows,
    xor_seeds,
)

EDGE_SEEDS = np.array([0, 1, 2**32 - 1, 2**32, 2**63, 2**64 - 1], dtype=np.uint64)


def assert_states_match(seeds):
    count = 0
    for seed, rng in zip(seeds, row_streams(seeds)):
        assert rng.bit_generator.state == np.random.default_rng(int(seed)).bit_generator.state, seed
        count += 1
    assert count == len(seeds)


class TestRowStreams:
    def test_edge_seeds(self):
        assert_states_match(EDGE_SEEDS)

    def test_consecutive_xor_seeds(self):
        for seed in (7, 2**40 + 17, 2**64 - 1):
            assert_states_match(xor_seeds(seed, 10_000))

    def test_random_64_bit_seeds(self):
        seeds = np.random.default_rng(3).integers(0, 2**64, size=2000, dtype=np.uint64)
        assert_states_match(seeds)

    def test_seeds_above_2_63_keep_every_bit(self):
        # float64 would round 2**63 + 1 and 2**64 - 3.
        assert_states_match(np.array([2**63 + 1, 1, 2**64 - 3], dtype=np.uint64))

    def test_streams_match_draw_for_draw(self):
        """A shared generator reset per row draws what a fresh one draws,
        even after a call that leaves a buffered 32-bit word behind."""
        seeds = [5, 2**33 + 9, 0]
        got = []
        for rng in row_streams(np.array(seeds, dtype=np.uint64)):
            got.append((rng.integers(0, 2, size=3), rng.integers(0, 2**31, size=2), rng.random(2)))
        for seed, (a, b, c) in zip(seeds, got):
            ref = np.random.default_rng(seed)
            assert np.array_equal(a, ref.integers(0, 2, size=3))
            assert np.array_equal(b, ref.integers(0, 2**31, size=2))
            assert c.tobytes() == ref.random(2).tobytes()

    def test_shared_generator(self):
        rngs = list(row_streams(np.array([1, 2, 3], dtype=np.uint64)))
        assert rngs[0] is rngs[1] is rngs[2]

    def test_empty(self):
        assert list(row_streams(np.zeros(0, dtype=np.uint64))) == []
        assert pcg64_states(np.zeros(0, dtype=np.uint64)) == []

    @pytest.mark.parametrize(
        "seeds", [[-1], [2**64], [1.5], np.array([3, -2]), [0, SEED_LIMIT]]
    )
    def test_rejects_seeds_outside_the_domain(self, seeds):
        # Only a uint64 array is in the domain; numpy refuses the bit
        # operations on a list or a signed array instead of rounding them.
        with pytest.raises(TypeError):
            pcg64_states(seeds)

    def test_check_seed(self):
        assert check_seed(np.uint64(2**64 - 1)) == 2**64 - 1
        for bad in (-1, 2**64, 2.0, "3", None):
            with pytest.raises(ContractViolation, match="ood seed must be an integer"):
                check_seed(bad, "ood seed")

    def test_xor_seeds(self):
        assert xor_seeds(2**64 - 1, 3).tolist() == [2**64 - 1, 2**64 - 2, 2**64 - 3]
        assert xor_seeds(6, 4).tolist() == [6, 7, 4, 5]


class TestStandardNormalRows:
    @pytest.mark.parametrize("width", [1, 50 * 6])  # one entry; k = 50 draws of d = 6
    def test_rows_match_default_rng(self, width):
        seeds = [0, 2**32, 2**64 - 1]
        rows = standard_normal_rows(np.array(seeds, dtype=np.uint64), width)
        assert rows.shape == (3, width)
        for seed, row in zip(seeds, rows):
            assert row.tobytes() == np.random.default_rng(seed).standard_normal(width).tobytes()


def count_generator_constructions(call) -> int:
    """How many default_rng and PCG64 constructions call() makes."""
    count = 0
    real_default_rng, real_pcg64 = np.random.default_rng, np.random.PCG64

    def counted(factory):
        def make(*args, **kwargs):
            nonlocal count
            count += 1
            return factory(*args, **kwargs)

        return make

    with pytest.MonkeyPatch.context() as mp:
        mp.setattr(np.random, "default_rng", counted(real_default_rng))
        mp.setattr(np.random, "PCG64", counted(real_pcg64))
        call()
    return count


class TestOneGeneratorPerCall:
    """Perf guard without timing: batched paths build no generator per row."""

    def test_counter_sees_per_row_construction(self):
        assert count_generator_constructions(
            lambda: [np.random.default_rng(i) for i in range(3)]
        ) == 3

    @pytest.mark.parametrize("kind", KINDS)
    def test_corrupt_dataset(self, kind):
        inputs = np.random.default_rng(1).uniform(0.0, 1.0, size=(1000, 12))
        dataset = Dataset(inputs)
        spec = CorruptionSpec(kind, 5, 2**40)
        assert count_generator_constructions(lambda: corrupt_dataset(dataset, spec)) <= 1

    def test_mc_score_records(self):
        rng = np.random.default_rng(2)
        model = build_model(6, 3, hidden_sizes=(8,), feature_dim=4, seed=1)
        train = rng.standard_normal((30, 6)) + 0.5
        subspaces = ood.fit_subspaces(features(model, train), np.arange(30) % 3, quantile=0.5)
        rows = rng.standard_normal((100, 6))
        count = count_generator_constructions(
            lambda: ood.mc_score_records(
                model, subspaces, rows, k_draws=5, noise_sigma=0.05, seed=9
            )
        )
        assert count <= 1


def count_stream_resets(call) -> int:
    """How many row streams the corruptions module resets during call(),
    its gaussian draws through streams.standard_normal_rows included."""
    count = 0
    real_row_streams = streams.row_streams

    def counted(seeds):
        nonlocal count
        for rng in real_row_streams(seeds):
            count += 1
            yield rng

    with pytest.MonkeyPatch.context() as mp:
        mp.setattr(corruptions, "row_streams", counted)
        mp.setattr(streams, "row_streams", counted)
        call()
    return count


class TestOneDrawPerSweep:
    """Perf guard without timing: a gaussian_noise sweep draws each row once."""

    def sweep(self, kind):
        inputs = np.random.default_rng(4).uniform(0.0, 1.0, size=(40, 100))
        return lambda: list(severity_sweep(Dataset(inputs), kind, [1, 2, 3, 4, 5], 2**40))

    def test_gaussian_noise_resets_each_row_once(self):
        assert count_stream_resets(self.sweep("gaussian_noise")) == 40

    def test_no_draw_is_kept_between_sweeps(self):
        sweep = self.sweep("gaussian_noise")
        assert count_stream_resets(lambda: (sweep(), sweep())) == 80

    @pytest.mark.parametrize("kind", ["shot_noise", "impulse_noise"])
    def test_severity_dependent_draws_reset_per_severity(self, kind):
        assert count_stream_resets(self.sweep(kind)) == 5 * 40
