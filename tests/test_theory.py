"""Adjacency construction, closed-form and iterative solvers, tail bounds."""

import math

import numpy as np
import pytest

from rodd.errors import ContractViolation, NumericFailure
from rodd.linalg import orthonormal_init, sym_eig
from rodd.theory import (
    AugGraph,
    SolveOptions,
    build_adjacency,
    closed_form_contrastive,
    joint_loss_and_grad,
    lemma_bounds,
    mu_sweep,
    one_hot_targets,
    solve_joint,
    verify_lemma,
)


def graph_proj_targets(sizes, delta, eta, seed, normalization="none", d=None):
    graph = build_adjacency(sizes, delta, eta, seed, normalization)
    d = d if d is not None else graph.n
    proj = orthonormal_init(d, len(sizes), seed + 1)
    return graph, proj, one_hot_targets(graph)


def rank_two_block_graph(sizes, eps, seed):
    """Block-diagonal PSD adjacency with rank-2 blocks J + eps v v^T."""
    rng = np.random.default_rng(seed)
    n = sum(sizes)
    a = np.zeros((n, n))
    ranges = []
    start = 0
    for size in sizes:
        stop = start + size
        v = rng.choice([-1.0, 1.0], size=size)
        a[start:stop, start:stop] = np.ones((size, size)) + eps * np.outer(v, v)
        ranges.append((start, stop))
        start = stop
    delta = math.sqrt((1.0 + eps) / (1.0 - eps)) - 1.0 + 1e-12
    return AugGraph(a, tuple(ranges), delta, 0.0)


class TestBuildAdjacency:
    def test_delta_zero_constant_blocks(self):
        graph = build_adjacency([3, 2], 0.0, 0.0, seed=1)
        a = graph.adjacency
        assert np.array_equal(a[:3, :3], np.ones((3, 3)))
        assert np.array_equal(a[3:, 3:], np.ones((2, 2)))
        assert np.array_equal(a[:3, 3:], np.zeros((3, 2)))
        lam, _ = sym_eig(a[:3, :3])
        assert np.abs(lam - np.array([3.0, 0.0, 0.0])).max() <= 1e-10

    def test_spread_bound(self):
        graph = build_adjacency([6, 5], 0.1, 0.0, seed=2)
        for start, stop in graph.class_ranges:
            block = graph.adjacency[start:stop, start:stop]
            assert block.max() / block.min() <= 1.21 + 1e-12

    def test_symmetry(self):
        graph = build_adjacency([4, 4, 3], 0.2, 0.1, seed=3)
        assert np.abs(graph.adjacency - graph.adjacency.T).max() <= 1e-15

    def test_cross_class_ceiling(self):
        graph = build_adjacency([4, 3], 0.1, 0.5, seed=4)
        a = graph.adjacency
        within_min = min(
            a[s:t, s:t].min() for s, t in graph.class_ranges
        )
        cross = a[:4, 4:]
        assert cross.max() <= 0.5 * within_min + 1e-12
        assert cross.min() > 0

    def test_unit_spectral_normalization(self):
        graph = build_adjacency([5, 4], 0.1, 0.0, seed=5, normalization="unit-spectral-per-block")
        for start, stop in graph.class_ranges:
            lam, _ = sym_eig(graph.adjacency[start:stop, start:stop])
            assert abs(lam[0] - 1.0) <= 1e-10

    def test_doubly_stochastic_normalization(self):
        graph = build_adjacency(
            [5, 4], 0.1, 0.0, seed=6, normalization="doubly-stochastic-per-block"
        )
        for start, stop in graph.class_ranges:
            block = graph.adjacency[start:stop, start:stop]
            assert np.abs(block.sum(axis=1) - 1.0).max() <= 1e-12
            assert block.max() / block.min() <= 1.21 + 1e-9

    def test_invariant_enforcement(self):
        with pytest.raises(ContractViolation):
            AugGraph(np.eye(4), ((0, 4),), 0.0, 0.0)  # zero entries inside a block
        with pytest.raises(ContractViolation):
            AugGraph(np.array([[1.0, 2.0], [0.5, 1.0]]), ((0, 2),), 2.0, 0.0)  # asymmetric
        bad_cross = np.eye(2) + 0.5
        with pytest.raises(ContractViolation):
            AugGraph(bad_cross, ((0, 1), (1, 2)), 0.0, 0.1)  # cross above eta * min

    def test_identity_with_singleton_classes_is_valid(self):
        graph = AugGraph(np.eye(3), ((0, 1), (1, 2), (2, 3)), 0.0, 0.0)
        assert graph.class_sizes == [1, 1, 1]


class TestClosedForm:
    def test_identity_full_rank(self):
        graph = AugGraph(np.eye(4), tuple((i, i + 1) for i in range(4)), 0.0, 0.0)
        f = closed_form_contrastive(graph, 4)
        assert np.abs(f.T @ f - np.eye(4)).max() <= 1e-10
        assert np.abs(graph.adjacency - f @ f.T).max() <= 1e-10

    def test_all_ones_rank_one(self):
        graph = AugGraph(np.ones((3, 3)), ((0, 3),), 0.0, 0.0)
        f = closed_form_contrastive(graph, 1)
        assert np.abs(f.ravel() - 1.0).max() <= 1e-10  # sign convention -> +

    def test_truncation_residual(self):
        graph = AugGraph(np.diag([4.0, 1.0]), ((0, 1), (1, 2)), 0.0, 1.0)
        f = closed_form_contrastive(graph, 1)
        assert np.abs(f.ravel() - np.array([2.0, 0.0])).max() <= 1e-12
        residual = float(((graph.adjacency - f @ f.T) ** 2).sum())
        assert abs(residual - 1.0) <= 1e-12

    def test_residual_equals_eigen_tail(self):
        rng = np.random.default_rng(7)
        g = np.abs(rng.standard_normal((6, 3)))
        a = g @ g.T  # nonnegative PSD
        eta = float(a[np.ones((6, 6), bool) ^ np.eye(6, dtype=bool)].max() / a.min())
        graph = AugGraph(a, tuple((i, i + 1) for i in range(6)), 0.0, eta + 1.0)
        lam, _ = sym_eig(a)
        for d in (1, 2, 4):
            f = closed_form_contrastive(graph, d)
            residual = float(((a - f @ f.T) ** 2).sum())
            expected = float((lam[d:] ** 2).sum())
            assert abs(residual - expected) <= 1e-8 * max(1.0, float((lam**2).sum()))

    def test_indefinite_rejected(self):
        a = np.array([[1.0, 2.0], [2.0, 1.0]])  # eigenvalues 3, -1
        graph = AugGraph(a, ((0, 2),), 1.5, 0.0)
        with pytest.raises(NumericFailure, match="positive semidefinite"):
            closed_form_contrastive(graph, 1)


class TestSolveJoint:
    def test_closed_form_init_already_optimal(self):
        graph, proj, targets = graph_proj_targets([4, 3], 0.0, 0.0, seed=8)
        lam, _ = sym_eig(graph.adjacency)
        optimum = float((lam[graph.n :] ** 2).sum())
        result = solve_joint(graph, proj, targets, 0.0, SolveOptions(init="closed-form"))
        assert result.loss_trace[-1] <= optimum + 1e-9

    def test_zero_adjacency_beats_naive_point(self):
        n = 4
        graph = AugGraph(np.zeros((n, n)), ((0, 2), (2, 4)), 0.0, 0.0)
        proj = orthonormal_init(3, 2, 11)
        targets = one_hot_targets(graph)
        naive = targets @ proj.T
        naive_loss, _ = joint_loss_and_grad(graph.adjacency, naive, proj, targets, 1.0)
        result = solve_joint(graph, proj, targets, 1.0, SolveOptions(init="random", seed=3))
        assert result.loss_trace[-1] <= naive_loss

    def test_delta_zero_blocks_become_rank_one(self):
        graph, proj, targets = graph_proj_targets(
            [5, 4], 0.0, 0.0, seed=9, normalization="unit-spectral-per-block"
        )
        result = solve_joint(graph, proj, targets, 1e-4, SolveOptions())
        for sigma in result.per_class_sigma:
            assert float((sigma[1:] ** 4).sum()) <= 1e-6

    def test_stopping_at_the_cap_is_not_converged(self):
        graph, proj, targets = graph_proj_targets([4, 4], 0.1, 0.0, seed=10, d=6)
        capped = solve_joint(
            graph, proj, targets, 0.01, SolveOptions(init="random", seed=1, max_iters=3)
        )
        assert capped.iterations == 3 == len(capped.loss_trace) - 1
        assert capped.converged is False
        loose = solve_joint(
            graph, proj, targets, 0.01, SolveOptions(init="random", seed=1, tol=1.0)
        )
        assert loose.iterations == 1
        assert loose.converged is True

    def test_trace_nonincreasing(self):
        graph, proj, targets = graph_proj_targets([4, 4], 0.1, 0.0, seed=10, d=6)
        result = solve_joint(graph, proj, targets, 0.01, SolveOptions(init="random", seed=1))
        trace = np.array(result.loss_trace)
        slack = 1e-12 * np.maximum(1.0, np.abs(trace[:-1]))
        assert np.all(np.diff(trace) <= slack)

    def test_gradient_matches_finite_differences(self):
        rng = np.random.default_rng(12)
        for n, d in ((6, 3), (9, 4), (12, 4)):
            a = rng.standard_normal((n, n))
            a = (a + a.T) / 2
            f = rng.standard_normal((n, d))
            proj = orthonormal_init(d, 2, int(rng.integers(1000)))
            targets = np.zeros((n, 2))
            targets[: n // 2, 0] = 1.0
            targets[n // 2 :, 1] = 1.0
            mu = 0.3
            _, grad = joint_loss_and_grad(a, f, proj, targets, mu)
            eps = 1e-6
            worst = 0.0
            for i in range(n):
                for j in range(d):
                    up = f.copy()
                    up[i, j] += eps
                    down = f.copy()
                    down[i, j] -= eps
                    numeric = (
                        joint_loss_and_grad(a, up, proj, targets, mu)[0]
                        - joint_loss_and_grad(a, down, proj, targets, mu)[0]
                    ) / (2 * eps)
                    worst = max(
                        worst,
                        abs(grad[i, j] - numeric) / max(abs(grad[i, j]), abs(numeric), 1e-8),
                    )
            assert worst <= 1e-5

    def test_random_init_reaches_global_optimum_on_psd(self):
        # Rank-2 PSD blocks (J + eps v v^T) give a nonzero truncation tail at
        # d = 2; a random start must still reach the global optimum, with up
        # to 5 restart seeds allowed.
        graph = rank_two_block_graph([8, 7], eps=0.2, seed=13)
        proj = orthonormal_init(2, 2, 14)
        targets = one_hot_targets(graph)
        lam, _ = sym_eig(graph.adjacency)
        optimum = float((lam[2:] ** 2).sum())
        assert optimum > 1.0  # the tail is genuinely nontrivial
        budget = 1e-6 * float((lam**2).sum())
        best = math.inf
        for attempt in range(5):
            result = solve_joint(
                graph,
                proj,
                targets,
                0.0,
                SolveOptions(init="random", seed=attempt, max_iters=8000),
            )
            best = min(best, result.loss_trace[-1])
            if best <= optimum + budget:
                break
        assert best <= optimum + budget

    def test_validates_inputs(self):
        graph, proj, targets = graph_proj_targets([3, 3], 0.0, 0.0, seed=14)
        with pytest.raises(ContractViolation):
            solve_joint(graph, proj * 2.0, targets, 0.0)  # not orthonormal
        bad_targets = targets.copy()
        bad_targets[0] = 0.0
        with pytest.raises(ContractViolation):
            solve_joint(graph, proj, bad_targets, 0.0)
        with pytest.raises(ContractViolation):
            solve_joint(graph, proj, targets, -1.0)
        with pytest.raises(ContractViolation):
            solve_joint(graph, proj, targets, 0.0, SolveOptions(init="magic"))


class TestVerifyLemma:
    def test_delta_zero_bounds_are_zero(self):
        graph, proj, targets = graph_proj_targets(
            [4, 3], 0.0, 0.0, seed=15, normalization="unit-spectral-per-block"
        )
        result = solve_joint(graph, proj, targets, 0.0, SolveOptions())
        report = verify_lemma(graph, graph.n, result)
        assert report["bounds"]["bound2"] == 0.0
        assert report["bounds"]["bound4"] == 0.0
        assert report["pass"]
        for entry in report["per_class"]:
            assert entry["tail2"] <= 1e-8
            assert entry["tail4"] <= 1e-8

    def test_bound_values_high_precision(self):
        mp = pytest.importorskip("mpmath")
        mp.mp.dps = 50
        core = (mp.mpf("1.1")) ** mp.mpf("1.5") - 1
        bound2, bound4 = lemma_bounds(0.1)
        assert abs(bound4 - float(2 * core)) <= 1e-12
        assert abs(bound2 - float(mp.sqrt(6 * core))) <= 1e-12

    def test_cauchy_schwarz_consistency(self):
        bound2, bound4 = lemma_bounds(0.1)
        assert abs(bound2 - math.sqrt(3.0 * bound4)) <= 1e-15
        report_bounds = verify_lemma(
            *_solved([5, 4], 0.1, seed=16)
        )["bounds"]
        assert abs(report_bounds["bound2"] - report_bounds["bound2_from_bound4"]) <= 1e-15

    def test_bounds_monotone_in_delta(self):
        grid = [0.0, 0.01, 0.05, 0.1, 0.2, 0.5]
        values = [lemma_bounds(d) for d in grid]
        for (b2a, b4a), (b2b, b4b) in zip(values[:-1], values[1:]):
            assert b2b > b2a or (b2a == b2b == 0.0)
            assert b4b > b4a or (b4a == b4b == 0.0)


def _solved(sizes, delta, seed):
    graph = build_adjacency(sizes, delta, 0.0, seed, "unit-spectral-per-block")
    proj = orthonormal_init(graph.n, len(sizes), seed + 1)
    targets = one_hot_targets(graph)
    result = solve_joint(graph, proj, targets, 1e-4, SolveOptions(seed=seed))
    return graph, graph.n, result


class TestMuSweep:
    def test_one_row_per_mu(self):
        graph, proj, targets = graph_proj_targets(
            [4, 3], 0.05, 0.0, seed=17, normalization="unit-spectral-per-block"
        )
        sweep = mu_sweep(graph, proj, targets, [0.0, 0.01, 1.0], graph.n)
        assert [row["mu"] for row in sweep["rows"]] == [0.0, 0.01, 1.0]
        for row in sweep["rows"]:
            assert len(row["dominance"]) == 2

    def test_mu_zero_passes_on_delta_zero(self):
        graph, proj, targets = graph_proj_targets(
            [4, 3], 0.0, 0.0, seed=18, normalization="unit-spectral-per-block"
        )
        sweep = mu_sweep(graph, proj, targets, [0.0], graph.n)
        assert sweep["rows"][0]["lemma_pass"]
        assert sweep["mu_min_estimate"] == 0.0

    def test_passing_prefix_on_small_spread(self):
        graph, proj, targets = graph_proj_targets(
            [6, 5], 0.05, 0.0, seed=19, normalization="unit-spectral-per-block"
        )
        sweep = mu_sweep(graph, proj, targets, [1e-6, 1e-4, 1e-2, 1.0, 100.0], graph.n)
        assert sweep["rows"][0]["lemma_pass"]
        assert sweep["mu_min_estimate"] is not None

    def test_requires_sorted_nonnegative(self):
        graph, proj, targets = graph_proj_targets([3, 3], 0.0, 0.0, seed=20)
        with pytest.raises(ContractViolation):
            mu_sweep(graph, proj, targets, [1.0, 0.1], graph.n)
        with pytest.raises(ContractViolation):
            mu_sweep(graph, proj, targets, [-1.0, 0.1], graph.n)
