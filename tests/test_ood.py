"""Subspace fitting, angle scores, Monte-Carlo inference, MSP baseline."""

import math

import numpy as np
import pytest
from mc_oracle import mc_detect_one, mc_records_oracle
from ood_probes import msp_score, uncertainty_score

from rodd import ood
from rodd.encoder import DenseLayer, EncoderModel, build_model, features
from rodd.errors import ContractViolation, DegenerateFeatureError
from rodd.linalg import orthonormal_init, sym_eig
from rodd.ood import (
    ClassSubspaceSet,
    fit_subspaces,
    mc_detect,
    angle_records,
    mc_score_records,
    subspaces_from_dict,
    subspaces_to_dict,
    uncertainty_scores,
    write_scores,
)


def axis_subspaces(threshold=0.5):
    return ClassSubspaceSet(
        directions=[np.array([1.0, 0.0]), np.array([0.0, 1.0])],
        threshold=threshold,
        quantile_used=0.95,
    )


class TestFitSubspaces:
    def test_constant_class_features(self):
        v = np.array([3.0, 4.0, 0.0])
        feats = np.tile(v, (5, 1))
        labels = np.zeros(5, dtype=int)
        subspaces = fit_subspaces(feats, labels, quantile=0.5)
        assert np.abs(subspaces.directions[0] - v / 5.0).max() <= 1e-10
        assert subspaces.threshold <= 1e-8  # all training angles are zero

    def test_sign_tie_broken_toward_positive(self):
        feats = np.array([[1.0, 0.0], [-1.0, 0.0]])
        labels = np.zeros(2, dtype=int)
        subspaces = fit_subspaces(feats, labels, quantile=0.5)
        assert np.abs(subspaces.directions[0] - np.array([1.0, 0.0])).max() <= 1e-12

    def test_mean_projection_nonnegative(self):
        rng = np.random.default_rng(1)
        feats = -np.abs(rng.standard_normal((20, 3))) - 1.0  # negative orthant
        labels = np.zeros(20, dtype=int)
        subspaces = fit_subspaces(feats, labels, quantile=0.9)
        assert float((feats @ subspaces.directions[0]).mean()) >= 0.0

    def test_noisy_axes_recovered(self):
        rng = np.random.default_rng(2)
        n = 200
        class0 = np.column_stack([rng.uniform(0.5, 1.5, n), rng.normal(0, 0.01, n)])
        class1 = np.column_stack([rng.normal(0, 0.01, n), rng.uniform(0.5, 1.5, n)])
        feats = np.vstack([class0, class1])
        labels = np.repeat([0, 1], n)
        subspaces = fit_subspaces(feats, labels, quantile=0.95)
        angle0 = math.acos(min(1.0, abs(subspaces.directions[0][0])))
        angle1 = math.acos(min(1.0, abs(subspaces.directions[1][1])))
        assert angle0 <= 0.05 and angle1 <= 0.05

    def test_unit_norm_directions(self):
        rng = np.random.default_rng(3)
        feats = rng.standard_normal((30, 4)) + 1.0
        labels = rng.integers(0, 3, size=30)
        labels[:3] = [0, 1, 2]
        subspaces = fit_subspaces(feats, labels, quantile=0.9)
        for u in subspaces.directions:
            assert abs(np.linalg.norm(u) - 1.0) <= 1e-10

    def test_direction_matches_second_moment_eigenvector(self):
        rng = np.random.default_rng(4)
        feats = rng.standard_normal((40, 5)) @ np.diag([3.0, 1.0, 0.5, 0.2, 0.1])
        labels = np.zeros(40, dtype=int)
        subspaces = fit_subspaces(feats, labels, quantile=0.9)
        _, q = sym_eig(feats.T @ feats)
        lead = q[:, 0]
        u = subspaces.directions[0]
        assert min(np.abs(u - lead).max(), np.abs(u + lead).max()) <= 1e-8

    def test_empty_class_named(self):
        feats = np.ones((4, 3))
        labels = np.array([0, 0, 2, 2])
        with pytest.raises(ContractViolation, match="class 1"):
            fit_subspaces(feats, labels, quantile=0.9)

    def test_quantile_rule(self):
        # Threshold is the smallest training score with >= q mass at/below it.
        rng = np.random.default_rng(5)
        feats = rng.standard_normal((50, 3)) + 2.0
        labels = np.zeros(50, dtype=int)
        q = 0.9
        subspaces = fit_subspaces(feats, labels, quantile=q)
        deltas, _ = uncertainty_scores(feats, subspaces)
        frac = float((deltas <= subspaces.threshold).mean())
        assert frac >= q
        below = deltas[deltas < subspaces.threshold]
        if below.size:
            assert float((deltas <= below.max()).mean()) < q


class TestUncertaintyScore:
    def test_own_direction_gives_zero(self):
        subspaces = ClassSubspaceSet(
            [np.array([1.0, 0.0, 0.0]), np.array([0.0, 1.0, 0.0]), np.array([0.0, 0.0, 1.0])],
            0.5,
            0.95,
        )
        delta, cls = uncertainty_score(np.array([0.0, 0.0, 2.5]), subspaces)
        assert delta == 0.0 and cls == 2

    def test_orthogonal_gives_half_pi(self):
        subspaces = axis_subspaces()
        subspaces.directions = [np.array([1.0, 0.0])]
        delta, _ = uncertainty_score(np.array([0.0, 1.0]), subspaces)
        assert abs(delta - math.pi / 2) <= 1e-15

    def test_diagonal_gives_quarter_pi(self):
        subspaces = axis_subspaces()
        f = np.array([1.0, 1.0]) / math.sqrt(2)
        delta, cls = uncertainty_score(f, subspaces)
        assert abs(delta - math.pi / 4) <= 1e-12
        assert cls == 0  # tie breaks to the lowest index

    def test_positive_scale_invariance(self):
        rng = np.random.default_rng(6)
        subspaces = axis_subspaces()
        for _ in range(100):
            f = rng.standard_normal(2)
            if np.linalg.norm(f) < 1e-6:
                continue
            c = float(rng.uniform(1e-3, 1e3))
            d1, a1 = uncertainty_score(f, subspaces)
            d2, a2 = uncertainty_score(c * f, subspaces)
            assert abs(d1 - d2) <= 1e-12
            assert a1 == a2

    def test_abs_cosine_flag(self):
        subspaces = ClassSubspaceSet([np.array([1.0, 0.0])], 0.5, 0.95)
        f = np.array([-1.0, 0.0])
        signed, _ = uncertainty_score(f, subspaces)
        absed, _ = uncertainty_score(f, subspaces, abs_cosine=True)
        assert abs(signed - math.pi) <= 1e-15
        assert absed == 0.0

    def test_range_bounds(self):
        rng = np.random.default_rng(7)
        subspaces = axis_subspaces()
        deltas, _ = uncertainty_scores(rng.standard_normal((200, 2)), subspaces)
        assert np.all(deltas >= 0.0) and np.all(deltas <= math.pi)

    def test_zero_feature_rejected(self):
        with pytest.raises(DegenerateFeatureError):
            uncertainty_score(np.zeros(2), axis_subspaces())


class TestMcDetect:
    def setup_method(self):
        self.model = build_model(4, 2, hidden_sizes=(8,), feature_dim=3, seed=1)
        rng = np.random.default_rng(8)
        feats = features(self.model, rng.standard_normal((40, 4)) + 1.0)
        labels = rng.integers(0, 2, size=40)
        labels[:2] = [0, 1]
        self.subspaces = fit_subspaces(feats, labels, quantile=0.95)
        self.sample = rng.standard_normal(4) + 1.0

    def test_zero_noise_probability_is_degenerate(self):
        record = mc_detect(
            self.model, self.subspaces, self.sample, k_draws=50, noise_sigma=0.0, seed=3,
        )
        assert record.mc_probability in (0.0, 1.0)

    def test_single_draw_is_indicator(self):
        record = mc_detect(
            self.model, self.subspaces, self.sample, k_draws=1, noise_sigma=0.0, seed=3,
        )
        delta, _ = uncertainty_score(features(self.model, self.sample[None])[0], self.subspaces)
        expected = 1.0 if delta <= self.subspaces.threshold else 0.0
        assert record.mc_probability == expected

    def test_deterministic_record(self):
        kwargs = dict(k_draws=50, noise_sigma=0.05, seed=11, sample_id=4)
        a = mc_detect(self.model, self.subspaces, self.sample, **kwargs)
        b = mc_detect(self.model, self.subspaces, self.sample, **kwargs)
        assert a == b

    def test_probability_is_binomial_proportion(self):
        record = mc_detect(
            self.model, self.subspaces, self.sample, k_draws=50, noise_sigma=0.2, seed=13,
        )
        assert 0.0 <= record.mc_probability <= 1.0
        assert abs(record.mc_probability * 50 - round(record.mc_probability * 50)) <= 1e-12

    def test_degenerate_draws_count_as_ood(self):
        dead = EncoderModel(
            layers=[DenseLayer(np.zeros((4, 3)), None)],
            class_proj=orthonormal_init(3, 2, 0),
            sharpen_w=np.zeros(3),
            bn_scale=np.asarray(1.0),
        )
        record = mc_detect(dead, self.subspaces, self.sample, k_draws=10, noise_sigma=0.0, seed=1)
        assert record.degenerate_draws == 10
        assert record.mc_probability == 0.0
        assert record.decision == "OOD"
        assert record.delta == math.pi

    def test_k_must_be_positive(self):
        with pytest.raises(ContractViolation):
            mc_detect(self.model, self.subspaces, self.sample, k_draws=0)

    @pytest.mark.parametrize("sigma", [math.nan, math.inf, -0.1])
    def test_noise_sigma_must_be_finite_and_nonnegative(self, sigma):
        with pytest.raises(ContractViolation, match="noise_sigma"):
            mc_detect(self.model, self.subspaces, self.sample, noise_sigma=sigma)


def assert_matches_oracle(batched, oracle):
    assert len(batched) == len(oracle)
    for a, b in zip(batched, oracle):
        assert (a.sample_id, a.mc_probability, a.decision, a.argmin_class, a.degenerate_draws) == (
            b.sample_id, b.mc_probability, b.decision, b.argmin_class, b.degenerate_draws
        )
        assert abs(a.delta - b.delta) <= 1e-12


class TestMcScoreRecords:
    """The chunked scorer against the per-sample oracle loop."""

    def setup_method(self):
        self.model = build_model(6, 3, hidden_sizes=(10,), feature_dim=4, seed=21)
        rng = np.random.default_rng(22)
        train = rng.standard_normal((90, 6)) + 0.5
        labels = np.arange(90) % 3
        # A median threshold, so noisy draws land on both sides of it.
        self.subspaces = fit_subspaces(features(self.model, train), labels, quantile=0.5)
        self.rows = rng.standard_normal((70, 6)) + 0.5
        self.noise_sigma = 0.3

    def compare(self, rows, **kwargs):
        kwargs = dict(noise_sigma=self.noise_sigma, seed=12345, start_id=4, **kwargs)
        batched = mc_score_records(self.model, self.subspaces, rows, **kwargs)
        assert_matches_oracle(batched, mc_records_oracle(self.model, self.subspaces, rows, **kwargs))
        return batched

    def test_rows_not_a_multiple_of_the_chunk(self):
        assert self.rows.shape[0] % (ood.MC_CHUNK_DRAWS // 50) != 0
        records = self.compare(self.rows, k_draws=50)
        assert any(0.0 < r.mc_probability < 1.0 for r in records)
        assert {r.decision for r in records} == {"ID", "OOD"}

    def test_small_chunks(self, monkeypatch):
        monkeypatch.setattr(ood, "MC_CHUNK_DRAWS", 7)  # two rows of 3 draws per chunk
        self.compare(self.rows[:11], k_draws=3)

    def test_draws_exceed_the_chunk(self):
        self.compare(self.rows[:3], k_draws=ood.MC_CHUNK_DRAWS + 7)

    def test_abs_cosine(self):
        self.compare(self.rows[:40], k_draws=20, abs_cosine=True)

    def test_all_zero_model(self):
        dead = EncoderModel(
            layers=[DenseLayer(np.zeros((6, 4)), None)],
            class_proj=orthonormal_init(4, 3, 0),
            sharpen_w=np.zeros(4),
            bn_scale=np.asarray(1.0),
        )
        self.model = dead
        records = self.compare(self.rows[:9], k_draws=5)
        assert all(r.degenerate_draws == 5 and r.argmin_class == -1 for r in records)

    def test_partly_degenerate_chunk(self):
        # A bias-free ReLU body whose features vanish when both hidden units
        # are off: draws around the origin mix valid and degenerate ones.
        self.model = EncoderModel(
            layers=[
                DenseLayer(np.random.default_rng(23).standard_normal((6, 2)), None),
                DenseLayer(np.eye(2, 4), None),
            ],
            class_proj=orthonormal_init(4, 3, 0),
            sharpen_w=np.zeros(4),
            bn_scale=np.asarray(1.0),
        )
        self.subspaces = ClassSubspaceSet(list(np.eye(4)[:3]), threshold=0.5, quantile_used=0.5)
        records = self.compare(self.rows[:30] * 1e-3, k_draws=20)  # one chunk
        assert any(0 < r.degenerate_draws < 20 for r in records)
        assert {r.decision for r in records} == {"ID", "OOD"}
        assert {r.argmin_class for r in records} >= {0, 1}

    def test_overflowing_features_are_rejected(self):
        self.model = EncoderModel(
            layers=[DenseLayer(np.full((6, 4), 1e308), None)],
            class_proj=orthonormal_init(4, 3, 0),
            sharpen_w=np.zeros(4),
            bn_scale=np.asarray(1.0),
        )
        with np.errstate(over="ignore"), pytest.raises(ContractViolation, match="non-finite"):
            mc_score_records(self.model, self.subspaces, np.ones((3, 6)), k_draws=4)

    def test_one_norm_pass_per_chunk(self, monkeypatch):
        real_norm = np.linalg.norm
        calls = []

        def counted(*args, **kwargs):
            calls.append(args[0].shape)
            return real_norm(*args, **kwargs)

        monkeypatch.setattr(ood, "MC_CHUNK_DRAWS", 100)  # ten rows of 10 draws per chunk
        monkeypatch.setattr(np.linalg, "norm", counted)
        records = mc_score_records(
            self.model, self.subspaces, self.rows[:30], k_draws=10,
            noise_sigma=self.noise_sigma, seed=3,
        )
        assert all(r.degenerate_draws == 0 for r in records)
        assert calls == [(100, 4)] * 3

    def test_seed_beyond_32_bits(self):
        batched = mc_score_records(self.model, self.subspaces, self.rows[:20], k_draws=10,
                                   noise_sigma=self.noise_sigma, seed=2**64 - 1)
        oracle = mc_records_oracle(self.model, self.subspaces, self.rows[:20], k_draws=10,
                                   noise_sigma=self.noise_sigma, seed=2**64 - 1)
        assert_matches_oracle(batched, oracle)

    @pytest.mark.parametrize("seed", [-1, 2**64])
    def test_seed_outside_u64_rejected(self, seed):
        match = r"ood seed must be an integer in \[0, 2\*\*64\)"
        with pytest.raises(ContractViolation, match=match):
            mc_score_records(self.model, self.subspaces, self.rows[:2], k_draws=3, seed=seed)

    @pytest.mark.parametrize("sigma", [math.nan, math.inf, -0.1])
    def test_noise_sigma_must_be_finite_and_nonnegative(self, sigma):
        with pytest.raises(ContractViolation, match="noise_sigma"):
            mc_score_records(self.model, self.subspaces, self.rows[:2], noise_sigma=sigma)

    def test_mc_detect_is_the_one_row_case(self):
        record = mc_detect(self.model, self.subspaces, self.rows[5], k_draws=30,
                           noise_sigma=self.noise_sigma, seed=77, sample_id=9)
        expect = mc_detect_one(
            self.model, self.subspaces, self.rows[5], 30, self.noise_sigma, 77, 9, False
        )
        assert_matches_oracle([record], [expect])


class TestMspScore:
    def test_uniform(self):
        assert abs(msp_score(np.zeros(4)) - 0.25) <= 1e-15

    def test_peaked_logits(self):
        mp = pytest.importorskip("mpmath")
        mp.mp.dps = 40
        expected = float(mp.exp(10) / (mp.exp(10) + 2))
        assert abs(msp_score(np.array([10.0, 0.0, 0.0])) - expected) <= 1e-12

    def test_shift_invariance(self):
        logits = np.array([3.0, -1.0, 2.0])
        assert msp_score(logits) == msp_score(logits + 7.0)

    def test_range(self):
        rng = np.random.default_rng(9)
        for _ in range(50):
            logits = rng.standard_normal(5) * 10
            score = msp_score(logits)
            assert 1 / 5 < score <= 1.0

    def test_rejects_nonfinite(self):
        with pytest.raises(ContractViolation):
            msp_score(np.array([1.0, np.inf]))


class TestScoreTable:
    def test_csv_columns_exact(self, tmp_path):
        subspaces = axis_subspaces(threshold=0.8)
        feats = np.array([[1.0, 0.1], [0.1, 1.0], [-1.0, -1.0]])
        records = angle_records(*uncertainty_scores(feats, subspaces), subspaces.threshold)
        path = tmp_path / "scores.csv"
        write_scores(path, records)
        lines = path.read_text().strip().split("\n")
        assert lines[0] == "sample_id,delta,argmin_class,mc_probability,decision"
        assert len(lines) == 4
        first = lines[1].split(",")
        assert first[0] == "0" and first[3] == "" and first[4] == "ID"
        assert lines[3].split(",")[4] == "OOD"

    def test_mc_probability_emitted(self, tmp_path):
        model = build_model(4, 2, hidden_sizes=(6,), feature_dim=3, seed=2)
        rng = np.random.default_rng(10)
        feats = features(model, rng.standard_normal((20, 4)) + 1.0)
        labels = rng.integers(0, 2, size=20)
        labels[:2] = [0, 1]
        subspaces = fit_subspaces(feats, labels, quantile=0.9)
        record = mc_detect(model, subspaces, rng.standard_normal(4) + 1.0, k_draws=5,
                           noise_sigma=0.1, seed=0)
        path = tmp_path / "mc.csv"
        write_scores(path, [record])
        row = path.read_text().strip().split("\n")[1].split(",")
        assert row[3] != ""

    def test_subspace_serialization_round_trip(self):
        subspaces = axis_subspaces(threshold=0.123456789)
        back = subspaces_from_dict(subspaces_to_dict(subspaces))
        assert back.threshold == subspaces.threshold
        assert back.quantile_used == subspaces.quantile_used
        for a, b in zip(back.directions, subspaces.directions):
            assert np.array_equal(a, b)
