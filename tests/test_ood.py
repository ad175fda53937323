"""Subspace fitting, angle scores, Monte-Carlo inference, MSP baseline."""

import math
import threading

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
    ScoreTable,
    angle_table,
    fit_subspaces,
    mc_detect,
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

    def test_range_bounds(self):
        rng = np.random.default_rng(7)
        subspaces = axis_subspaces()
        deltas, _ = uncertainty_scores(rng.standard_normal((200, 2)), subspaces)
        assert np.all(deltas >= 0.0) and np.all(deltas <= math.pi)

    def test_zero_feature_rejected(self):
        with pytest.raises(DegenerateFeatureError):
            uncertainty_score(np.zeros(2), axis_subspaces())

    def test_overflowing_norm_rejected(self):
        # Finite entries whose squares overflow: the norm is inf, and
        # dividing by it would score the feature pi/2 off its own class.
        subspaces = ClassSubspaceSet(list(np.eye(3)[:2]), 0.5, 0.95)
        with pytest.raises(ContractViolation, match="sample 1 are finite, but their norm overflows"):
            uncertainty_scores([[0.0, 1.0, 0.0], [1e200, 0.0, 0.0]], subspaces)

    def test_large_finite_norm_scored(self):
        subspaces = ClassSubspaceSet(list(np.eye(3)[:2]), 0.5, 0.95)
        deltas, classes = uncertainty_scores([[1e150, 0.0, 0.0], [0.0, 3.0, 0.0]], subspaces)
        assert deltas.tolist() == [0.0, 0.0] and classes.tolist() == [0, 1]


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
        batched = mc_score_records(self.model, self.subspaces, rows, **kwargs).records()
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

    def test_nan_features_are_rejected(self):
        # The first layer overflows to +inf in both units and the second
        # subtracts them: a NaN feature, once counted as a degenerate draw.
        model = EncoderModel(
            layers=[
                DenseLayer(np.array([[1e308, 1e308], [0.0, 0.0]]), None),
                DenseLayer(np.array([[1.0, 0.0], [-1.0, 0.0]]), None),
            ],
            class_proj=orthonormal_init(2, 2, 0),
            sharpen_w=np.zeros(2),
            bn_scale=np.asarray(1.0),
        )
        subspaces = ClassSubspaceSet(list(np.eye(2)), threshold=0.5, quantile_used=0.5)
        with np.errstate(over="ignore", invalid="ignore"):
            with pytest.raises(ContractViolation, match="non-finite"):
                mc_score_records(model, subspaces, [[10.0, 1.0]], k_draws=3, noise_sigma=0.0)

    def test_overflowing_norm_rejected(self):
        self.model = EncoderModel(
            layers=[DenseLayer(np.eye(6, 4), None)],
            class_proj=orthonormal_init(4, 3, 0),
            sharpen_w=np.zeros(4),
            bn_scale=np.asarray(1.0),
        )
        rows = self.rows[:5].copy()
        rows[2] = 1e200  # finite draws and features, but an overflowing norm
        with pytest.raises(ContractViolation, match="sample 6 are finite, but their norm overflows"):
            mc_score_records(self.model, self.subspaces, rows, k_draws=4, noise_sigma=0.3,
                             start_id=4)

    def test_one_norm_pass_per_chunk(self, monkeypatch):
        real_norm = np.linalg.norm
        calls = []

        def counted(*args, **kwargs):
            calls.append(args[0].shape)
            return real_norm(*args, **kwargs)

        monkeypatch.setattr(ood, "MC_CHUNK_DRAWS", 100)  # ten rows of 10 draws per chunk
        monkeypatch.setattr(np.linalg, "norm", counted)
        table = mc_score_records(
            self.model, self.subspaces, self.rows[:30], k_draws=10,
            noise_sigma=self.noise_sigma, seed=3,
        )
        assert table.degenerate_draws.tolist() == [0] * 30
        assert calls == [(100, 4)] * 3

    def test_seed_beyond_32_bits(self):
        batched = mc_score_records(self.model, self.subspaces, self.rows[:20], k_draws=10,
                                   noise_sigma=self.noise_sigma, seed=2**64 - 1).records()
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
            self.model, self.subspaces, self.rows[5], 30, self.noise_sigma, 77, 9
        )
        assert_matches_oracle([record], [expect])


def record_bits(records):
    """Every field of every record, delta as its exact bits."""
    return [
        (r.sample_id, r.delta.hex(), r.argmin_class, r.mc_probability, r.decision,
         r.degenerate_draws)
        for r in records
    ]


class TestMcThreads:
    """A helper thread that draws the next chunk changes no record."""

    def setup_method(self):
        self.model = build_model(6, 3, hidden_sizes=(10,), feature_dim=4, seed=21)
        rng = np.random.default_rng(22)
        train = rng.standard_normal((90, 6)) + 0.5
        self.subspaces = fit_subspaces(features(self.model, train), np.arange(90) % 3, quantile=0.5)
        self.rows = rng.standard_normal((70, 6)) + 0.5

    def traced_draws(self, monkeypatch, fail_at=()):
        """Record (lo, thread id) of every chunk drawn; raise at the given los."""
        calls = []
        real_draws = ood._mc_draws

        def traced(*args):
            lo = args[-2]
            calls.append((lo, threading.get_ident()))
            if lo in fail_at:
                raise RuntimeError(f"draw failed at row {lo}")
            return real_draws(*args)

        monkeypatch.setattr(ood, "_mc_draws", traced)
        return calls

    def score(self, model=None, rows=None, noise_sigma=0.3, seed=99, start_id=3):
        return mc_score_records(
            model or self.model, self.subspaces, self.rows if rows is None else rows,
            k_draws=10, noise_sigma=noise_sigma, seed=seed, start_id=start_id,
        ).records()

    # 70 rows of 10 draws: 5 chunks of 16 rows at a budget of 160, 9 of 8 at 80.
    @pytest.mark.parametrize("budget", [160, 80])
    def test_helper_draws_match_one_chunk_calls(self, monkeypatch, budget):
        # Row i draws from seed ^ i.  A chunk of 2^m rows starts at a multiple
        # of 2^m, so seed ^ lo ^ j == seed ^ (lo + j) for its rows j < 2^m: a
        # one-chunk call on the chunk's rows with seed ^ lo draws the same
        # noise in the same shape, on the calling thread.
        monkeypatch.setattr(ood, "MC_CHUNK_DRAWS", budget)
        calls = self.traced_draws(monkeypatch)
        drawn_ahead = record_bits(self.score())
        assert len(calls) >= 5
        assert len({r[4] for r in drawn_ahead}) == 2  # both decisions occur
        # The caller draws the first chunk, one helper all the others.
        helpers = {ident for lo, ident in calls if lo}
        assert (0, threading.get_ident()) in calls
        assert len(helpers) == 1 and threading.get_ident() not in helpers
        calls.clear()
        rows_per_chunk = budget // 10
        one_chunk = []
        for lo in range(0, 70, rows_per_chunk):
            one_chunk += record_bits(
                self.score(rows=self.rows[lo:lo + rows_per_chunk], seed=99 ^ lo, start_id=3 + lo)
            )
        assert {ident for _, ident in calls} == {threading.get_ident()}
        assert one_chunk == drawn_ahead

    def test_one_chunk_starts_no_thread(self, monkeypatch):
        calls = self.traced_draws(monkeypatch)
        monkeypatch.setattr(threading.Thread, "start", lambda thread: pytest.fail("thread started"))
        self.score(rows=self.rows[:5])
        assert calls == [(0, threading.get_ident())]

    def test_earliest_failing_chunk_raises(self, monkeypatch):
        # Chunks of 10 rows; rows 15 and 35 (chunks 1 and 3) have features
        # whose norm overflows.  Sample ids start at 3.
        monkeypatch.setattr(ood, "MC_CHUNK_DRAWS", 100)
        calls = self.traced_draws(monkeypatch)
        linear = EncoderModel(
            layers=[DenseLayer(np.eye(6, 4), None)],
            class_proj=orthonormal_init(4, 3, 0),
            sharpen_w=np.zeros(4),
            bn_scale=np.asarray(1.0),
        )
        rows = self.rows[:50].copy()
        rows[[15, 35]] = 1e200
        threads = threading.active_count()
        with pytest.raises(ContractViolation, match="sample 18 are finite"):
            self.score(model=linear, rows=rows)
        assert threading.active_count() == threads
        assert max(lo for lo, _ in calls) <= 20  # no chunk past the next was drawn

    def test_failing_helper_draw_raises_in_order(self, monkeypatch):
        monkeypatch.setattr(ood, "MC_CHUNK_DRAWS", 100)
        calls = self.traced_draws(monkeypatch, fail_at=(10, 30))
        threads = threading.active_count()
        with pytest.raises(RuntimeError, match="draw failed at row 10"):
            self.score()
        assert threading.active_count() == threads
        assert (10, threading.get_ident()) not in calls and any(lo == 10 for lo, _ in calls)

    def test_helpers_use_the_callers_error_state(self, monkeypatch):
        # Row 15's draws (chunk 1, drawn by the helper) overflow float64; the
        # caller ignores overflow, so the helper must warn of nothing (a
        # warning is an error here), and the non-finite draws are rejected.
        # The tiny weights keep the other rows' huge draws finite.  _mc_draws
        # ignores overflow itself, so the state each draw starts in is
        # recorded too: the helper must start in the caller's.
        monkeypatch.setattr(ood, "MC_CHUNK_DRAWS", 100)
        calls = self.traced_draws(monkeypatch)
        states, traced = [], ood._mc_draws

        def draws_in_state(*args):
            states.append(np.geterr())
            return traced(*args)

        monkeypatch.setattr(ood, "_mc_draws", draws_in_state)
        model = EncoderModel(
            layers=[DenseLayer(np.eye(6, 4) * 1e-300, None)],
            class_proj=orthonormal_init(4, 3, 0),
            sharpen_w=np.zeros(4),
            bn_scale=np.asarray(1.0),
        )
        rows = self.rows[:40].copy()
        rows[15] = 1.79e308
        with np.errstate(over="ignore"), pytest.raises(ContractViolation, match="non-finite"):
            caller = np.geterr()
            self.score(model=model, rows=rows, noise_sigma=1e307)
        assert (10, threading.get_ident()) not in calls and any(lo == 10 for lo, _ in calls)
        assert len(states) == len(calls) and all(state == caller for state in states)


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


def per_row_csv(rows):
    """A score table as a per-row formatter writes it: the header, then each
    row's cells by %s, None as an empty cell."""
    lines = [",".join(ood.SCORE_COLUMNS)]
    lines += [",".join("" if v is None else "%s" % (v,) for v in row) for row in rows]
    return "\n".join(lines) + "\n"


# Cells whose str takes each branch of float repr: a signed zero, a
# subnormal, an exponent form below 1e-4, a 17-digit round trip, an exponent
# form from 1e16 on, and a plain value.
PINNED_DELTAS = [-0.0, 5e-324, 1e-05, 0.1 + 0.2, 1e16, 0.75]


class TestScoreTable:
    def test_csv_columns_exact(self, tmp_path):
        subspaces = axis_subspaces(threshold=0.8)
        feats = np.array([[1.0, 0.1], [0.1, 1.0], [-1.0, -1.0]])
        table = angle_table(*uncertainty_scores(feats, subspaces), subspaces.threshold)
        path = tmp_path / "scores.csv"
        write_scores(path, table)
        lines = path.read_text().strip().split("\n")
        assert lines[0] == "sample_id,delta,argmin_class,mc_probability,decision"
        assert len(lines) == 4
        first = lines[1].split(",")
        assert first[0] == "0" and first[3] == "" and first[4] == "ID"
        assert lines[3].split(",")[4] == "OOD"

    def test_single_mode_bytes(self, tmp_path):
        threshold = PINNED_DELTAS[-1]  # the last delta sits on the threshold
        classes = [0, 1, 2, 1, 0, 2]
        path = tmp_path / "scores.csv"
        write_scores(path, angle_table(np.array(PINNED_DELTAS), np.array(classes), threshold))
        text = path.read_text()
        assert text == per_row_csv(
            (i, d, c, None, "ID" if d <= threshold else "OOD")
            for i, (d, c) in enumerate(zip(PINNED_DELTAS, classes))
        )
        assert text.splitlines()[1:] == [
            "0,-0.0,0,,ID", "1,5e-324,1,,ID", "2,1e-05,2,,ID",
            "3,0.30000000000000004,1,,ID", "4,1e+16,0,,OOD", "5,0.75,2,,ID",
        ]

    def test_mc_bytes(self, tmp_path):
        k_draws, hits, degenerate = 6, [3, 0, 6, 2, 5, 0], [0, 1, 0, 2, 0, 6]
        classes = [2, 0, 1, 1, 0, -1]
        probability = np.array(hits) / k_draws
        table = ScoreTable(np.array(PINNED_DELTAS), np.array(classes), probability >= 0.5,
                           probability, np.array(degenerate), start_id=7)
        path = tmp_path / "mc.csv"
        write_scores(path, table)
        text = path.read_text()
        rows = [
            (7 + i, d, c, h / k_draws, "ID" if h / k_draws >= 0.5 else "OOD")
            for i, (d, c, h) in enumerate(zip(PINNED_DELTAS, classes, hits))
        ]
        assert text == per_row_csv(rows)
        assert text.splitlines()[1] == "7,-0.0,2,0.5,ID"
        assert [record.degenerate_draws for record in table.records()] == degenerate

    def test_mc_probability_emitted(self, tmp_path):
        model = build_model(4, 2, hidden_sizes=(6,), feature_dim=3, seed=2)
        rng = np.random.default_rng(10)
        feats = features(model, rng.standard_normal((20, 4)) + 1.0)
        labels = rng.integers(0, 2, size=20)
        labels[:2] = [0, 1]
        subspaces = fit_subspaces(feats, labels, quantile=0.9)
        table = mc_score_records(model, subspaces, [rng.standard_normal(4) + 1.0], k_draws=5,
                                 noise_sigma=0.1, seed=0)
        path = tmp_path / "mc.csv"
        write_scores(path, table)
        row = path.read_text().strip().split("\n")[1].split(",")
        assert row[3] != ""

    def test_subspace_serialization_round_trip(self):
        subspaces = axis_subspaces(threshold=0.123456789)
        back = subspaces_from_dict(subspaces_to_dict(subspaces))
        assert back.threshold == subspaces.threshold
        assert back.quantile_used == subspaces.quantile_used
        for a, b in zip(back.directions, subspaces.directions):
            assert np.array_equal(a, b)
