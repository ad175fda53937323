"""Adjacency construction, closed-form and iterative solvers, tail bounds,
the warm-started mu sweep and the solver audit."""

import json
import math
from dataclasses import replace
from pathlib import Path

import numpy as np
import pytest

import theory_audit
from cg_oracle import cg_solve
from gd_oracle import gd_solve
from solver_starts import random_start
from rodd import theory
from rodd.cli import run
from rodd.data import parse_config_file
from rodd.errors import ContractViolation, NumericFailure
from rodd.linalg import orthonormal_init, sym_eig
from rodd.theory import (
    DELTA_LIMIT,
    AugGraph,
    SolveOptions,
    _gauge_step,
    _GaugeStep,
    _initial_point,
    _preconditioned,
    _quartic_argmin,
    build_adjacency,
    joint_loss_and_grad,
    lemma_bounds,
    line_quartic,
    mu_sweep,
    one_hot_targets,
    solve_joint,
    verify_lemma,
)

THEORY_CFG = Path(__file__).parents[1] / "configs" / "theory.cfg"


def graph_d_targets(sizes, delta, eta, seed, normalization="none", d=None):
    graph = build_adjacency(sizes, delta, eta, seed, normalization)
    return graph, graph.n if d is None else d, one_hot_targets(graph)


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
        graph = build_adjacency([3, 2], 0.0, 0.0, seed=1, normalization="none")
        a = graph.adjacency
        assert np.array_equal(a[:3, :3], np.ones((3, 3)))
        assert np.array_equal(a[3:, 3:], np.ones((2, 2)))
        assert np.array_equal(a[:3, 3:], np.zeros((3, 2)))
        lam, _ = sym_eig(a[:3, :3])
        assert np.abs(lam - np.array([3.0, 0.0, 0.0])).max() <= 1e-10

    def test_spread_bound(self):
        graph = build_adjacency([6, 5], 0.1, 0.0, seed=2, normalization="none")
        for start, stop in graph.class_ranges:
            block = graph.adjacency[start:stop, start:stop]
            assert block.max() / block.min() <= 1.21 + 1e-12

    def test_symmetry(self):
        graph = build_adjacency([4, 4, 3], 0.2, 0.1, seed=3, normalization="none")
        assert np.abs(graph.adjacency - graph.adjacency.T).max() <= 1e-15

    def test_cross_class_ceiling(self):
        graph = build_adjacency([4, 3], 0.1, 0.5, seed=4, normalization="none")
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

    def test_default_normalization_is_unit_spectral(self):
        default = build_adjacency([4, 3], 0.1, 0.2, seed=6)
        explicit = build_adjacency([4, 3], 0.1, 0.2, seed=6, normalization="unit-spectral-per-block")
        assert default.normalization == "unit-spectral-per-block"
        assert np.array_equal(default.adjacency, explicit.adjacency)

    def test_unknown_normalization_rejected(self):
        for name in ("doubly-stochastic-per-block", "unit"):
            with pytest.raises(ContractViolation, match=f"unknown normalization '{name}'"):
                build_adjacency([3, 2], 0.1, 0.0, seed=1, normalization=name)
            with pytest.raises(ContractViolation, match=f"unknown normalization '{name}'"):
                AugGraph(np.ones((2, 2)), ((0, 2),), 0.0, 0.0, name)

    def test_invariant_enforcement(self):
        with pytest.raises(ContractViolation):
            AugGraph(np.eye(4), ((0, 4),), 0.0, 0.0)  # zero entries inside a block
        with pytest.raises(ContractViolation):
            AugGraph(np.array([[1.0, 2.0], [0.5, 1.0]]), ((0, 2),), 2.0, 0.0)  # asymmetric
        bad_cross = np.eye(2) + 0.5
        with pytest.raises(ContractViolation):
            AugGraph(bad_cross, ((0, 1), (1, 2)), 0.0, 0.1)  # cross above eta * min

    def test_delta_beyond_its_limit_is_a_contract_error(self):
        # (1 + delta)^2 overflows float64 past 1.3e154: the check must say so
        # instead of raising OverflowError.
        for delta in (1e155, math.inf, math.nan, -0.1):
            with pytest.raises(ContractViolation, match=r"delta must lie in \[0, 1e\+150\]"):
                AugGraph(np.ones((2, 2)), ((0, 2),), delta, 0.0)
            with pytest.raises(ContractViolation, match=r"delta must lie in \[0, 1e\+150\]"):
                build_adjacency([2, 2], delta, 0.0, seed=1)
        graph = build_adjacency(
            [3, 2], DELTA_LIMIT, 0.0, seed=1, normalization="unit-spectral-per-block"
        )
        assert all(math.isfinite(bound) for bound in lemma_bounds(graph.delta))

    def test_identity_with_singleton_classes_is_valid(self):
        graph = AugGraph(np.eye(3), ((0, 1), (1, 2), (2, 3)), 0.0, 0.0)
        assert graph.n == 3 and graph.class_ranges == ((0, 1), (1, 2), (2, 3))


def closed_form(graph, d):
    """The default start: the rank-d minimizer of ||A - F F^T||^2."""
    return _initial_point(graph, d, None)


class TestClosedForm:
    def test_identity_full_rank(self):
        graph = AugGraph(np.eye(4), tuple((i, i + 1) for i in range(4)), 0.0, 0.0)
        f = closed_form(graph, 4)
        assert np.abs(f.T @ f - np.eye(4)).max() <= 1e-10
        assert np.abs(graph.adjacency - f @ f.T).max() <= 1e-10

    def test_all_ones_rank_one(self):
        graph = AugGraph(np.ones((3, 3)), ((0, 3),), 0.0, 0.0)
        f = closed_form(graph, 1)
        assert np.abs(f.ravel() - 1.0).max() <= 1e-10  # sign convention -> +

    def test_truncation_residual(self):
        graph = AugGraph(np.diag([4.0, 1.0]), ((0, 1), (1, 2)), 0.0, 1.0)
        f = closed_form(graph, 1)
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
            f = closed_form(graph, d)
            residual = float(((a - f @ f.T) ** 2).sum())
            expected = float((lam[d:] ** 2).sum())
            assert abs(residual - expected) <= 1e-8 * max(1.0, float((lam**2).sum()))


class TestAutoStart:
    """The automatic start, init=None, is the mu = 0 optimum: A's top-d
    eigenpairs with negative eigenvalues clipped to zero, on every symmetric A."""

    @pytest.mark.parametrize("graph", [
        build_adjacency([16, 16, 16], 0.05, 0.0, 1),
        AugGraph(np.array([[1.0, 2.0], [2.0, 1.0]]), ((0, 2),), 1.5, 0.0),
    ], ids=["theory-scale", "eigenvalues-3-and-minus-1"])
    def test_is_the_mu_zero_optimum_on_an_indefinite_graph(self, graph):
        a = graph.adjacency
        lam, _ = sym_eig(a)
        assert lam.min() < -1e-10
        for d in sorted({1, min(12, graph.n), graph.n}):
            f = closed_form(graph, d)
            loss = float(np.vdot(a - f @ f.T, a - f @ f.T))
            # ||A||^2 - sum_{i<=d} max(lam_i, 0)^2, summed without its cancellation.
            optimum = float((lam[d:] ** 2).sum() + (np.minimum(lam[:d], 0.0) ** 2).sum())
            assert loss == pytest.approx(optimum, rel=1e-12, abs=0.0), f"d={d}"

    def test_is_the_closed_form_on_a_psd_graph(self):
        # Only rounding-level eigenvalues are clipped, so every start is the
        # eigenvector representative, orthogonal columns of squared norm
        # lambda_i, and the full-rank one reproduces A.
        graphs = [
            rank_two_block_graph([8, 7], eps=0.2, seed=13),
            AugGraph(np.eye(4), tuple((i, i + 1) for i in range(4)), 0.0, 0.0),
        ]
        for graph in graphs:
            lam, _ = sym_eig(graph.adjacency)
            assert lam.min() >= -1e-10
            for d in (1, 2, graph.n):
                start = closed_form(graph, d)
                gram = np.diag(np.clip(lam[:d], 0.0, None))
                assert np.abs(start.T @ start - gram).max() <= 1e-12 * lam[0]
            assert np.abs(start @ start.T - graph.adjacency).max() <= 1e-12 * lam[0]


class TestSolveJoint:
    def test_closed_form_init_already_optimal(self):
        graph, d, targets = graph_d_targets([4, 3], 0.0, 0.0, seed=8)
        lam, _ = sym_eig(graph.adjacency)
        optimum = float((lam[graph.n :] ** 2).sum())
        result = solve_joint(graph, d, 0.0, SolveOptions())
        assert result.loss_trace[-1] <= optimum + 1e-9

    def test_zero_adjacency_beats_naive_point(self):
        n = 4
        graph = AugGraph(np.zeros((n, n)), ((0, 2), (2, 4)), 0.0, 0.0)
        targets = one_hot_targets(graph)
        naive = np.hstack([targets, np.zeros((n, 1))])  # F E = Y at d = 3
        naive_loss, _ = joint_loss_and_grad(graph.adjacency, naive, targets, 1.0)
        result = solve_joint(graph, 3, 1.0, SolveOptions(init=random_start(graph, 3, 3)))
        assert result.loss_trace[-1] <= naive_loss

    def test_delta_zero_blocks_become_rank_one(self):
        graph, d, targets = graph_d_targets(
            [5, 4], 0.0, 0.0, seed=9, normalization="unit-spectral-per-block"
        )
        result = solve_joint(graph, d, 1e-4, SolveOptions())
        for sigma in result.per_class_sigma:
            assert float((sigma[1:] ** 4).sum()) <= 1e-6

    def test_stopping_at_the_cap_is_not_converged(self):
        graph, d, targets = graph_d_targets([4, 4], 0.1, 0.0, seed=10, d=6)
        capped = solve_joint(
            graph, d, 0.01, SolveOptions(init=random_start(graph, d, 1), max_iters=3)
        )
        assert capped.iterations == 3 == len(capped.loss_trace) - 1
        assert capped.converged is False
        loose = solve_joint(
            graph, d, 0.01, SolveOptions(init=random_start(graph, d, 1), tol=1.0)
        )
        assert loose.iterations == 1
        assert loose.converged is True

    def test_trace_nonincreasing(self):
        graph, d, targets = graph_d_targets([4, 4], 0.1, 0.0, seed=10, d=6)
        result = solve_joint(graph, d, 0.01, SolveOptions(init=random_start(graph, d, 1)))
        trace = np.array(result.loss_trace)
        slack = 1e-12 * np.maximum(1.0, np.abs(trace[:-1]))
        assert np.all(np.diff(trace) <= slack)

    def test_gradient_matches_finite_differences(self):
        rng = np.random.default_rng(12)
        for n, d in ((6, 3), (9, 4), (12, 4)):
            a = rng.standard_normal((n, n))
            a = (a + a.T) / 2
            f = rng.standard_normal((n, d))
            targets = np.zeros((n, 2))
            targets[: n // 2, 0] = 1.0
            targets[n // 2 :, 1] = 1.0
            mu = 0.3
            _, grad = joint_loss_and_grad(a, f, targets, mu)
            eps = 1e-6
            worst = 0.0
            for i in range(n):
                for j in range(d):
                    up = f.copy()
                    up[i, j] += eps
                    down = f.copy()
                    down[i, j] -= eps
                    numeric = (
                        joint_loss_and_grad(a, up, targets, mu)[0]
                        - joint_loss_and_grad(a, down, targets, mu)[0]
                    ) / (2 * eps)
                    worst = max(
                        worst,
                        abs(grad[i, j] - numeric) / max(abs(grad[i, j]), abs(numeric), 1e-8),
                    )
            assert worst <= 1e-5

    def test_any_orthonormal_head_reduces_to_the_first_columns(self):
        # The solver fixes the head at E = [I; 0].  For orthonormal W and
        # Q = [W, W_perp], F W = (F Q) E and (F Q)(F Q)^T = F F^T, so the
        # W problem at F is the E problem at F Q, its gradient turned by Q^T.
        rng = np.random.default_rng(60)
        graph = build_adjacency([5, 4, 3], 0.1, 0.05, seed=61)
        a, targets = graph.adjacency, one_hot_targets(graph)
        for d, mu in ((3, 0.3), (7, 1e-4), (12, 100.0)):
            w = orthonormal_init(d, 3, 62 + d)
            complete = np.linalg.qr(w, mode="complete")[0]
            q = np.hstack([w, complete[:, 3:]])
            assert np.abs(q.T @ q - np.eye(d)).max() <= 1e-14
            f = rng.standard_normal((graph.n, d))
            residual, fit = a - f @ f.T, f @ w - targets
            loss = float(np.sum(residual**2) + mu * np.sum(fit**2))
            grad = -4.0 * residual @ f + 2.0 * mu * fit @ w.T
            reduced_loss, reduced_grad = joint_loss_and_grad(a, f @ q, targets, mu)
            assert reduced_loss == pytest.approx(loss, rel=1e-12, abs=0.0), f"d={d}"
            turned = reduced_grad @ q.T
            assert np.abs(turned - grad).max() <= 1e-12 * np.abs(grad).max(), f"d={d}"
            for start, stop in graph.class_ranges:
                sigma = np.linalg.svd(f[start:stop], compute_uv=False)
                reduced = np.linalg.svd((f @ q)[start:stop], compute_uv=False)
                assert np.abs(reduced - sigma).max() <= 1e-12 * sigma[0], f"d={d}"

    def test_random_init_reaches_global_optimum_on_psd(self):
        # Rank-2 PSD blocks (J + eps v v^T) give a nonzero truncation tail at
        # d = 2; a random start must still reach the global optimum, with up
        # to 5 restart seeds allowed.
        graph = rank_two_block_graph([8, 7], eps=0.2, seed=13)
        lam, _ = sym_eig(graph.adjacency)
        optimum = float((lam[2:] ** 2).sum())
        assert optimum > 1.0  # the tail is genuinely nontrivial
        budget = 1e-6 * float((lam**2).sum())
        best = math.inf
        for attempt in range(5):
            result = solve_joint(
                graph,
                2,
                0.0,
                SolveOptions(init=random_start(graph, 2, attempt), max_iters=8000),
            )
            best = min(best, result.loss_trace[-1])
            if best <= optimum + budget:
                break
        assert best <= optimum + budget

    def test_grad_norm_is_the_gradient_at_the_result(self):
        graph, d, targets = graph_d_targets([4, 4], 0.1, 0.0, seed=10, d=6)
        for opts in (SolveOptions(init=random_start(graph, d, 1)), SolveOptions(max_iters=5)):
            result = solve_joint(graph, d, 0.01, opts)
            _, grad = joint_loss_and_grad(graph.adjacency, result.f_star, targets, 0.01)
            assert result.grad_norm == pytest.approx(float(np.linalg.norm(grad)), rel=1e-12)

    def test_stationary_start_stops_at_once(self):
        graph, d, targets = graph_d_targets([3, 3], 0.1, 0.0, seed=21)
        result = solve_joint(graph, d, 0.0, SolveOptions(init=np.zeros((graph.n, graph.n))))
        assert result.iterations == 1 and result.converged
        assert result.grad_norm == 0.0
        assert np.array_equal(result.f_star, np.zeros((graph.n, graph.n)))

    def test_singular_or_non_finite_preconditioner_is_a_numeric_failure(self):
        grad = np.ones((4, 2))
        with pytest.raises(NumericFailure, match="preconditioner"):
            _preconditioned(np.zeros((4, 2)), grad, np.zeros((2, 2)))
        with np.errstate(all="ignore"), pytest.raises(NumericFailure, match="preconditioner"):
            _preconditioned(np.full((4, 2), np.inf), grad, np.zeros((2, 2)))

    def test_validates_inputs(self):
        graph, d, targets = graph_d_targets([3, 3], 0.0, 0.0, seed=14)
        with pytest.raises(ContractViolation):
            solve_joint(graph, d, -1.0)
        with pytest.raises(ContractViolation, match=r"init shape \(6, 5\) != \(6, 6\)"):
            solve_joint(graph, d, 0.0, SolveOptions(init=np.zeros((6, 5))))

    @pytest.mark.parametrize("delta", [0.0, 0.05])
    def test_d_outside_one_to_n_is_a_contract_error(self, delta):
        # The check of d is the solver's own, on PSD (delta = 0) and
        # indefinite (delta = 0.05) graphs alike: F E needs a column per
        # class, so d lies in [L, n] = [2, 6].
        graph = build_adjacency([3, 3], delta, 0.0, seed=14)
        for d in (9, 7, 1, 0):
            with pytest.raises(ContractViolation, match=rf"d must lie in \[2, 6\], .* got {d}$"):
                solve_joint(graph, d, 0.0)
            with pytest.raises(ContractViolation, match=rf"d must lie in \[2, 6\], .* got {d}$"):
                mu_sweep(graph, d, [0.0, 1.0])
        for d in (2, 6):
            at_end = solve_joint(graph, d, 1.0, SolveOptions(max_iters=2))
            assert at_end.f_star.shape == (6, d)


class TestVerifyLemma:
    def test_delta_zero_bounds_are_zero(self):
        graph, d, targets = graph_d_targets(
            [4, 3], 0.0, 0.0, seed=15, normalization="unit-spectral-per-block"
        )
        result = solve_joint(graph, d, 0.0, SolveOptions())
        report = verify_lemma(graph, result)
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

    def test_unconverged_solve_does_not_pass(self):
        graph, d, targets = graph_d_targets(
            [4, 3], 0.0, 0.0, seed=15, normalization="unit-spectral-per-block"
        )
        capped = solve_joint(
            graph, d, 1e-4, SolveOptions(init=random_start(graph, d, 0), max_iters=2)
        )
        assert not capped.converged
        report = verify_lemma(graph, capped, tol=math.inf)  # every tail "within"
        assert report["pass"] is False
        assert report["converged"] is False

    def test_result_rows_must_match_the_graph(self):
        _, result = _solved([4, 3], 0.0, seed=15)
        other = build_adjacency([4, 4], 0.0, 0.0, 15, "unit-spectral-per-block")
        with pytest.raises(ContractViolation, match="result has 7 rows, graph n=8"):
            verify_lemma(other, result)

    def test_bounds_monotone_in_delta(self):
        grid = [0.0, 0.01, 0.05, 0.1, 0.2, 0.5]
        values = [lemma_bounds(d) for d in grid]
        for (b2a, b4a), (b2b, b4b) in zip(values[:-1], values[1:]):
            assert b2b > b2a or (b2a == b2b == 0.0)
            assert b4b > b4a or (b4a == b4b == 0.0)


def _solved(sizes, delta, seed):
    graph = build_adjacency(sizes, delta, 0.0, seed, "unit-spectral-per-block")
    result = solve_joint(graph, graph.n, 1e-4, SolveOptions())
    return graph, result


MUS = [1e-6, 1e-4, 1e-2, 1.0, 100.0]


def _scale_problem(seed):
    """(graph, d) of one theory-scale problem: 3 classes of 16, d = 12."""
    return build_adjacency([16, 16, 16], 0.05, 0.0, seed, "unit-spectral-per-block"), 12


class TestMuSweep:
    def test_one_row_per_mu(self):
        graph, d, targets = graph_d_targets(
            [4, 3], 0.05, 0.0, seed=17, normalization="unit-spectral-per-block"
        )
        sweep, _ = mu_sweep(graph, d, [0.0, 0.01, 1.0])
        assert [row["mu"] for row in sweep["rows"]] == [0.0, 0.01, 1.0]
        for row in sweep["rows"]:
            assert len(row["dominance"]) == 2

    def test_mu_zero_passes_on_delta_zero(self):
        graph, d, targets = graph_d_targets(
            [4, 3], 0.0, 0.0, seed=18, normalization="unit-spectral-per-block"
        )
        sweep, _ = mu_sweep(graph, d, [0.0])
        assert sweep["rows"][0]["lemma_pass"]
        assert sweep["mu_min_estimate"] == 0.0

    def test_passing_prefix_on_small_spread(self):
        graph, d, targets = graph_d_targets(
            [6, 5], 0.05, 0.0, seed=19, normalization="unit-spectral-per-block"
        )
        sweep, _ = mu_sweep(graph, d, [1e-6, 1e-4, 1e-2, 1.0, 100.0])
        assert sweep["rows"][0]["lemma_pass"]
        assert sweep["mu_min_estimate"] is not None

    def test_capped_rows_do_not_pass(self):
        graph, d, targets = graph_d_targets(
            [4, 3], 0.0, 0.0, seed=18, normalization="unit-spectral-per-block"
        )
        sweep, _ = mu_sweep(
            graph, d, [1e-4, 1.0], SolveOptions(init=random_start(graph, d, 0), max_iters=2)
        )
        assert [row["converged"] for row in sweep["rows"]] == [False, False]
        assert [row["lemma_pass"] for row in sweep["rows"]] == [False, False]
        assert sweep["mu_min_estimate"] is None

    def test_requires_sorted_nonnegative(self):
        graph, d, targets = graph_d_targets([3, 3], 0.0, 0.0, seed=20)
        with pytest.raises(ContractViolation):
            mu_sweep(graph, d, [1.0, 0.1])
        with pytest.raises(ContractViolation):
            mu_sweep(graph, d, [-1.0, 0.1])

    def test_each_mu_starts_from_the_last_solution(self):
        graph, d = _scale_problem(23)
        (sweep, _), solves = _sweep_recording_solves(graph, d, MUS, SolveOptions())
        assert [mu for mu, _, _ in solves] == MUS
        starts = [init for _, init, _ in solves]
        assert starts[0].tobytes() == closed_form(graph, d).tobytes()
        for start, (_, _, previous) in zip(starts[1:], solves):
            assert start.tobytes() == previous.f_star.tobytes()
        assert [row["iterations"] for row in sweep["rows"]] == [r.iterations for *_, r in solves]

    def test_an_error_ends_the_sweep(self, monkeypatch):
        graph, d = _scale_problem(23)
        solved = []

        def planted(graph, d, mu, opts):
            solved.append(mu)
            if mu == MUS[1]:
                raise NumericFailure(f"planted at mu {mu}")
            return solve_joint(graph, d, mu, opts)

        monkeypatch.setattr(theory, "solve_joint", planted)
        with pytest.raises(NumericFailure) as caught:
            mu_sweep(graph, d, MUS)
        assert (type(caught.value), str(caught.value)) == (NumericFailure, f"planted at mu {MUS[1]}")
        assert solved == MUS[:2]

    @pytest.mark.parametrize("problem", ["theory.cfg", 1, 14, 222])
    def test_warm_starts_keep_the_cold_verdicts(self, problem):
        # Of theory.seed 0-299 at theory-scale's shape, seed 222 ends
        # furthest above its cold solve: 2.4e-11 relative, at mu = 1.
        if problem == "theory.cfg":
            graph, d, mu_values, max_iters = _theory_cfg_problem()
        else:
            graph, d = _scale_problem(problem)
            mu_values, max_iters = MUS, 4000
        opts = SolveOptions(max_iters=max_iters)
        (sweep, _), solves = _sweep_recording_solves(graph, d, mu_values, opts)
        for row, (mu, _, warm) in zip(sweep["rows"], solves, strict=True):
            cold = solve_joint(graph, d, mu, opts)
            assert row["lemma_pass"] == verify_lemma(graph, cold)["pass"]
            assert row["converged"] == cold.converged
            cold_loss = cold.loss_trace[-1]
            assert warm.loss_trace[-1] - cold_loss <= 1e-10 * max(1.0, abs(cold_loss))

    def test_eigenpair_start_keeps_the_random_starts_verdicts(self):
        # Theory-scale's shape at seeds 0-9: the sweep from the default start
        # converges and passes at every mu, and ends no higher than the
        # sweep from a 0.01-scale random start.
        for seed in range(10):
            graph, d = _scale_problem(seed)
            opts = SolveOptions(max_iters=4000)
            (sweep, _), solves = _sweep_recording_solves(graph, d, MUS, opts)
            _, random = _sweep_recording_solves(
                graph, d, MUS, replace(opts, init=random_start(graph, d, seed))
            )
            for row, (mu, _, auto), (_, _, other) in zip(sweep["rows"], solves, random, strict=True):
                assert row["converged"] and row["lemma_pass"], f"seed={seed}, mu={mu}"
                other_loss = other.loss_trace[-1]
                excess = auto.loss_trace[-1] - other_loss
                assert excess <= 1e-10 * max(1.0, abs(other_loss)), f"seed={seed}, mu={mu}"

    def test_each_report_is_its_rows_solve(self):
        # A listed theory.mu's lemma is reports[mu], so it must be the very
        # solve the row's verdict was read from.
        graph, d = _scale_problem(23)
        (sweep, reports), solves = _sweep_recording_solves(graph, d, MUS, SolveOptions())
        assert list(reports) == MUS
        for row, (mu, _, result) in zip(sweep["rows"], solves, strict=True):
            report = reports[mu]
            assert report == verify_lemma(graph, result)
            assert report["pass"] == row["lemma_pass"]
            for key in ("iterations", "converged", "grad_norm"):
                assert report[key] == row[key]
            assert max(entry["tail4"] for entry in report["per_class"]) == row["max_tail4"]


def _sweep_recording_solves(graph, d, mu_values, opts):
    """mu_sweep's (sweep, reports) and its (mu, start, result) of every solve."""
    solves = []

    def recording(graph, d, mu, opts):
        result = solve_joint(graph, d, mu, opts)
        solves.append((mu, opts.init.copy(), result))
        return result

    with pytest.MonkeyPatch.context() as patch:
        patch.setattr(theory, "solve_joint", recording)
        return mu_sweep(graph, d, mu_values, opts), solves


class TestLineSearch:
    def test_quartic_matches_direct_evaluation(self):
        rng = np.random.default_rng(40)
        for sizes, d, mu in (([4, 3], 5, 0.3), ([6, 5, 4], 8, 1e-4), ([16, 16, 16], 12, 100.0)):
            graph, _, targets = graph_d_targets(sizes, 0.1, 0.05, seed=d, d=d)
            a = graph.adjacency
            f = 0.3 * rng.standard_normal((graph.n, d))
            direction = rng.standard_normal((graph.n, d))
            loss, grad = joint_loss_and_grad(a, f, targets, mu)
            coeffs = line_quartic(a, f, direction, len(sizes), mu, grad)
            for t in (-0.7, -0.05, 0.01, 0.2, 1.5):
                direct, _ = joint_loss_and_grad(a, f + t * direction, targets, mu)
                poly = loss + sum(c * t**k for k, c in enumerate(coeffs, start=1))
                assert abs(poly - direct) <= 1e-10 * max(1.0, abs(direct))

    def test_step_is_the_best_positive_root(self):
        # Against np.roots on the derivative cubic, including coefficient
        # ranges where two small roots sit next to a large one.
        rng = np.random.default_rng(41)
        for _ in range(3000):
            c1 = -(10.0 ** rng.uniform(-10, 2))
            c2 = rng.standard_normal() * 10.0 ** rng.uniform(-3, 3)
            c3 = rng.standard_normal() * 10.0 ** rng.uniform(-3, 3)
            c4 = 10.0 ** rng.uniform(-2, 1)

            def quartic(t):
                return t * (c1 + t * (c2 + t * (c3 + t * c4)))

            roots = np.roots([4.0 * c4, 3.0 * c3, 2.0 * c2, c1])
            real = roots.real[np.abs(roots.imag) <= 1e-7 * np.abs(roots)]
            best = min(quartic(t) for t in real[real > 0])
            t = _quartic_argmin(c1, c2, c3, c4)
            assert t > 0.0
            assert quartic(t) <= best + 1e-9 * abs(best)


    def test_overflowing_cubic_is_a_numeric_failure(self):
        # At mu = 1e120 the quadratic coefficient is about 1e120 and the
        # discriminant's p^3 overflows float64.
        with pytest.raises(NumericFailure, match="the line search overflows"):
            _quartic_argmin(-1.0, 1e120, 0.0, 1.0)


def _oracle_gap(graph, d, mu, max_iters):
    """(solve_joint's final loss, the gradient-descent oracle's) from one init."""
    targets = one_hot_targets(graph)
    f0 = closed_form(graph, d)
    result = solve_joint(graph, d, mu, SolveOptions(max_iters=max_iters, init=f0))
    _, trace = gd_solve(graph.adjacency, f0, targets, mu, max_iters)
    return result.loss_trace[-1], trace[-1]


class TestAgainstGradientDescent:
    def test_shipped_theory_config(self):
        graph, d, mu_values, max_iters = _theory_cfg_problem()
        assert parse_config_file(THEORY_CFG)[0].get("theory.mu") in mu_values
        for mu in mu_values:
            ours, oracle = _oracle_gap(graph, d, mu, max_iters)
            assert ours <= oracle, f"mu={mu}: {ours} > {oracle}"

    def test_three_classes_of_sixteen(self):
        graph = build_adjacency([16, 16, 16], 0.05, 0.0, 5, "unit-spectral-per-block")
        ours, oracle = _oracle_gap(graph, 12, 1e-4, 4000)
        assert ours <= oracle


def _theory_cfg_problem():
    """(graph, d, mu values, max_iters) of configs/theory.cfg."""
    cfg, _ = parse_config_file(THEORY_CFG)
    seed = cfg.get("theory.seed")
    sizes = cfg.get("theory.class_sizes")
    graph = build_adjacency(
        sizes, cfg.get("theory.delta"), cfg.get("theory.eta"), seed,
        cfg.get("theory.normalization"),
    )
    mu_values = cfg.get("theory.mu_values")
    return graph, cfg.get("theory.d"), mu_values, cfg.get("theory.max_iters")


def _mu_term(f, targets):
    fit = f[:, : targets.shape[1]] - targets
    return float(np.vdot(fit, fit))


class TestGaugeStep:
    def test_model_matches_finite_differences(self):
        # The Newton model's gradient and Hessian in the free parameters
        # against central differences of the mu-term along the Cayley
        # rotation of S, which agrees with Q = I + S + S^2/2 to second order.
        rng = np.random.default_rng(50)
        for d, n_classes in ((6, 3), (5, 1), (4, 4), (7, 2)):
            n = 12
            f = rng.standard_normal((n, d))
            targets = np.zeros((n, n_classes))
            targets[np.arange(n), np.arange(n) % n_classes] = 1.0
            gauge = _GaugeStep(d, n_classes)
            _, _, hess, grad = gauge.newton_system(f, targets)

            def mu_term(params):
                skew = (gauge.skew_lift @ params).reshape(d, d)
                q = np.linalg.solve(np.eye(d) - skew / 2, np.eye(d) + skew / 2)
                return _mu_term(f @ q, targets)

            eps = 1e-4
            basis = np.eye(grad.size) * eps
            numeric_grad = [(mu_term(e) - mu_term(-e)) / (2 * eps) for e in basis]
            numeric_hess = [
                [
                    (mu_term(e + g) - mu_term(e - g) - mu_term(g - e) + mu_term(-e - g))
                    / (4 * eps * eps)
                    for g in basis
                ]
                for e in basis
            ]
            scale = max(1.0, float(np.abs(hess).max()))
            assert np.abs(grad - numeric_grad).max() <= 1e-6 * scale
            assert np.abs(hess - np.array(numeric_hess)).max() <= 1e-5 * scale

    def test_rotation_keeps_factorization_and_never_raises_mu_term(self):
        # Random points far from gauge-fixed exercise the long-step and
        # majorization branches; points just off a solution the Newton one.
        graph, d, mu_values, _ = _theory_cfg_problem()
        targets = one_hot_targets(graph)
        a = graph.adjacency
        gauge = _GaugeStep(d, targets.shape[1])
        solved = solve_joint(graph, d, 1e-4, SolveOptions()).f_star
        rng = np.random.default_rng(51)
        points = [rng.standard_normal(solved.shape) * s for s in (0.1, 1.0, 3.0)]
        points += [solved + 1e-3 * rng.standard_normal(solved.shape) for _ in range(3)]
        rotated = 0
        for f in points:
            q = gauge.rotation(f, targets)
            if q is None:
                continue
            rotated += 1
            assert np.abs(q.T @ q - np.eye(len(q))).max() <= 1e-14
            before = float(np.sum((a - f @ f.T) ** 2))
            after = float(np.sum((a - (f @ q) @ (f @ q).T) ** 2))
            assert abs(after - before) <= 1e-12 * before
            assert _mu_term(f @ q, targets) < _mu_term(f, targets)
        assert rotated == len(points)
        assert gauge.rotation(np.zeros_like(solved), targets) is None  # F = 0: nothing to turn
        overflowed = solved.copy()
        overflowed[0, 0] = np.inf
        with np.errstate(all="ignore"):
            assert gauge.rotation(overflowed, targets) is None  # left to the loss check

    def test_result_is_rotation_stationary(self):
        graph, d, mu_values, max_iters = _theory_cfg_problem()
        targets = one_hot_targets(graph)
        ell = targets.shape[1]
        for mu in mu_values:
            f = solve_joint(
                graph, d, mu, SolveOptions(max_iters=max_iters)
            ).f_star
            moment = np.zeros((d, d))  # F^T (F E - Y) E^T
            moment[:, :ell] = f.T @ (f[:, :ell] - targets)
            skew = (moment - moment.T) / 2
            assert np.linalg.norm(skew) <= 1e-12 * np.linalg.norm(moment), f"mu={mu}"

    def test_reflects_a_column_that_points_away_from_its_target(self):
        # Negating a W-column keeps F F^T but raises the mu-term by
        # 4 |<F_j, Y_j>|; one rotation must flip it back.
        graph, d, mu_values, max_iters = _theory_cfg_problem()
        targets = one_hot_targets(graph)
        a = graph.adjacency
        gauge = _GaugeStep(d, targets.shape[1])
        solved = solve_joint(
            graph, d, 1e-4, SolveOptions(max_iters=max_iters)
        ).f_star
        flipped = solved.copy()
        flipped[:, 1] *= -1.0
        q = gauge.rotation(flipped, targets)
        assert q is not None
        assert np.abs(q.T @ q - np.eye(len(q))).max() <= 1e-14
        assert q[1, 1] == pytest.approx(-1.0, abs=1e-6)
        turned = flipped @ q
        assert _mu_term(turned, targets) == pytest.approx(_mu_term(solved, targets), rel=1e-9)
        before = float(np.sum((a - solved @ solved.T) ** 2))
        after = float(np.sum((a - turned @ turned.T) ** 2))
        assert abs(after - before) <= 1e-12 * before

    def test_one_read_only_step_per_shape(self):
        step = _gauge_step(6, 3)
        assert _gauge_step(6, 3) is step
        assert _gauge_step(7, 3) is not step and _gauge_step(6, 2) is not step
        arrays = [value for value in vars(step).values() if isinstance(value, np.ndarray)]
        assert len(arrays) == 6  # lift_t, stacked, k_cols, skew_lift, eye, e_cols
        for array in arrays:
            assert not array.flags.writeable
            with pytest.raises(ValueError, match="read-only"):
                array[...] = 0.0

    def test_cached_step_solves_as_a_fresh_one(self, monkeypatch):
        # Every solve of a sweep shares the cached step; one fresh _GaugeStep
        # per solve must give the same bits.
        graph, d, mu_values, max_iters = _theory_cfg_problem()
        opts = SolveOptions(max_iters=max_iters)
        solve = theory.solve_joint

        def sweep_and_results():
            results = []

            def recording(*args):
                results.append(solve(*args))
                return results[-1]

            with monkeypatch.context() as patch:
                patch.setattr(theory, "solve_joint", recording)
                sweep, _ = mu_sweep(graph, d, mu_values, opts)
            return sweep, results

        cached, cached_results = sweep_and_results()
        built = []

        def fresh(*shape):
            built.append(shape)
            return _GaugeStep(*shape)

        monkeypatch.setattr(theory, "_gauge_step", fresh)
        swept, fresh_results = sweep_and_results()
        assert built == [(d, len(graph.class_ranges))] * sum(mu > 0 for mu in mu_values)
        assert swept == cached
        for ours, theirs in zip(cached_results, fresh_results, strict=True):
            assert ours.loss_trace == theirs.loss_trace
            assert np.array_equal(ours.f_star, theirs.f_star)
            assert ours.grad_norm == theirs.grad_norm

    def test_mu_zero_takes_no_gauge_step(self, monkeypatch):
        def refuse(*args):
            raise AssertionError("a gauge step was built at mu = 0")

        monkeypatch.setattr(_GaugeStep, "__init__", refuse)
        monkeypatch.setattr(theory, "_gauge_step", refuse)  # a cached step counts too
        graph, d, targets = graph_d_targets([5, 4], 0.05, 0.0, seed=52, d=6)
        f0 = random_start(graph, d, 52)
        result = solve_joint(graph, d, 0.0, SolveOptions(init=f0))
        _, trace, _ = cg_solve(graph.adjacency, f0, targets, 0.0, 2000)
        assert result.converged
        assert result.loss_trace[-1] <= trace[-1] * (1 + 1e-7)


class TestAgainstConjugateGradient:
    """The gauge step must not cost accuracy: every solve converges, and
    ends no higher than the plain CG loop from the same start."""

    @staticmethod
    def _check(graph, d, mu_values, max_iters, f0=None):
        targets = one_hot_targets(graph)
        f0 = closed_form(graph, d) if f0 is None else f0
        for mu in mu_values:
            result = solve_joint(
                graph, d, mu, SolveOptions(max_iters=max_iters, init=f0)
            )
            _, trace, _ = cg_solve(graph.adjacency, f0, targets, mu, max_iters)
            assert result.converged, f"mu={mu}: stopped at max_iters"
            assert result.loss_trace[-1] <= trace[-1] * (1 + 1e-7), f"mu={mu}"

    def test_shipped_theory_config(self):
        self._check(*_theory_cfg_problem())

    def test_three_classes_of_sixteen(self):
        graph = build_adjacency([16, 16, 16], 0.05, 0.0, 5, "unit-spectral-per-block")
        self._check(graph, 12, [1e-6, 1e-4, 1e-2, 1.0, 100.0], 4000)

    def test_ill_conditioned_mu_100(self):
        # The fourth problem of the theory-scale benchmark at seed 14: from a
        # random start and without the preconditioner, its mu = 100 solve
        # stops at the 4000-step cap.  From the default start it does not.
        seed = int(np.random.SeedSequence(14).generate_state(8)[3])
        graph = build_adjacency([16, 16, 16], 0.05, 0.0, seed, "unit-spectral-per-block")
        self._check(graph, 12, MUS, 4000, random_start(graph, 12, seed))


class TestAudit:
    def test_lines_are_verify_theorys_solves_and_the_gate_reads_them(self, tmp_path, capsys):
        assert run(["verify-theory", "--config", str(THEORY_CFG), "--out", str(tmp_path)]) == 0
        report = json.loads((tmp_path / "theory_report.json").read_text())
        sweep = report["sweep"]
        seed = parse_config_file(THEORY_CFG)[0].get("theory.seed")
        theory_audit.audit(THEORY_CFG.read_text(), [seed])
        text = capsys.readouterr().out
        lines = [json.loads(line) for line in text.splitlines()]
        assert theory.solve_joint is solve_joint
        assert [line["seed"] for line in lines] == [seed] * len(sweep["rows"])
        for line, row in zip(lines, sweep["rows"], strict=True):
            for key in ("mu", "iterations", "lemma_pass", "converged", "grad_norm"):
                assert line[key] == row[key]
        (lemma_line,) = [line for line in lines if line["mu"] == report["mu"]]
        assert lemma_line["sigma"] == [entry["sigma"] for entry in report["lemma"]["per_class"]]
        old = tmp_path / "old.jsonl"
        old.write_text(text)
        assert theory_audit.compare(old, old)
        assert "largest sigma change: 0.000e+00 of sigma_1" in capsys.readouterr().out
        # A sigma change is printed, not gated.
        lines[-1]["sigma"][0][1] += 1e-3 * lines[-1]["sigma"][0][0]
        moved = tmp_path / "moved.jsonl"
        moved.write_text("".join(json.dumps(line) + "\n" for line in lines))
        assert theory_audit.compare(old, moved)
        assert f"largest sigma change: 1.000e-03 of sigma_1 at (seed, mu) = ({seed}, " in (
            capsys.readouterr().out
        )
        lines[-1]["converged"] = False
        flipped = tmp_path / "new.jsonl"
        flipped.write_text("".join(json.dumps(line) + "\n" for line in lines))
        assert not theory_audit.compare(old, flipped)

    def test_theory_scale_audit_passes_against_itself(self, tmp_path, capsys):
        # The audit wraps solve_joint by its arguments, and pytest collects
        # no file without a test_ prefix: a signature change that broke the
        # script would only show when a solver change needs the gate.
        theory_audit.audit(theory_audit.theory_scale_config(), [3])
        text = capsys.readouterr().out
        lines = [json.loads(line) for line in text.splitlines()]
        assert theory.solve_joint is solve_joint
        assert [(line["seed"], line["mu"]) for line in lines] == [(3, mu) for mu in MUS]
        assert all(line["lemma_pass"] and line["converged"] for line in lines)
        audit = tmp_path / "audit.jsonl"
        audit.write_text(text)
        assert theory_audit.compare(audit, audit)

