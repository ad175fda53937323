"""Adjacency construction, closed-form and iterative solvers, tail bounds,
and the mu sweep's forked helper."""

import math
import os
import select
import threading
import time
from pathlib import Path

import numpy as np
import pytest

from cg_oracle import cg_solve
from gd_oracle import gd_solve
from rodd import theory
from rodd.data import parse_config_file
from rodd.errors import ContractViolation, NumericFailure, RoddError
from rodd.linalg import orthonormal_init, sym_eig
from rodd.theory import (
    DELTA_LIMIT,
    AugGraph,
    SolveOptions,
    _GaugeStep,
    _initial_point,
    _preconditioned,
    _quartic_argmin,
    build_adjacency,
    closed_form_contrastive,
    joint_loss_and_grad,
    lemma_bounds,
    line_quartic,
    mu_sweep,
    one_hot_targets,
    solve_joint,
    verify_lemma,
)

THEORY_CFG = Path(__file__).parents[1] / "configs" / "theory.cfg"


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
        result = solve_joint(graph, proj, 0.0, SolveOptions(init="closed-form"))
        assert result.loss_trace[-1] <= optimum + 1e-9

    def test_zero_adjacency_beats_naive_point(self):
        n = 4
        graph = AugGraph(np.zeros((n, n)), ((0, 2), (2, 4)), 0.0, 0.0)
        proj = orthonormal_init(3, 2, 11)
        targets = one_hot_targets(graph)
        naive = targets @ proj.T
        naive_loss, _ = joint_loss_and_grad(graph.adjacency, naive, proj, targets, 1.0)
        result = solve_joint(graph, proj, 1.0, SolveOptions(init="random", seed=3))
        assert result.loss_trace[-1] <= naive_loss

    def test_delta_zero_blocks_become_rank_one(self):
        graph, proj, targets = graph_proj_targets(
            [5, 4], 0.0, 0.0, seed=9, normalization="unit-spectral-per-block"
        )
        result = solve_joint(graph, proj, 1e-4, SolveOptions())
        for sigma in result.per_class_sigma:
            assert float((sigma[1:] ** 4).sum()) <= 1e-6

    def test_stopping_at_the_cap_is_not_converged(self):
        graph, proj, targets = graph_proj_targets([4, 4], 0.1, 0.0, seed=10, d=6)
        capped = solve_joint(
            graph, proj, 0.01, SolveOptions(init="random", seed=1, max_iters=3)
        )
        assert capped.iterations == 3 == len(capped.loss_trace) - 1
        assert capped.converged is False
        loose = solve_joint(
            graph, proj, 0.01, SolveOptions(init="random", seed=1, tol=1.0)
        )
        assert loose.iterations == 1
        assert loose.converged is True

    def test_trace_nonincreasing(self):
        graph, proj, targets = graph_proj_targets([4, 4], 0.1, 0.0, seed=10, d=6)
        result = solve_joint(graph, proj, 0.01, SolveOptions(init="random", seed=1))
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
        lam, _ = sym_eig(graph.adjacency)
        optimum = float((lam[2:] ** 2).sum())
        assert optimum > 1.0  # the tail is genuinely nontrivial
        budget = 1e-6 * float((lam**2).sum())
        best = math.inf
        for attempt in range(5):
            result = solve_joint(
                graph,
                proj,
                0.0,
                SolveOptions(init="random", seed=attempt, max_iters=8000),
            )
            best = min(best, result.loss_trace[-1])
            if best <= optimum + budget:
                break
        assert best <= optimum + budget

    def test_grad_norm_is_the_gradient_at_the_result(self):
        graph, proj, targets = graph_proj_targets([4, 4], 0.1, 0.0, seed=10, d=6)
        for opts in (SolveOptions(init="random", seed=1), SolveOptions(max_iters=5)):
            result = solve_joint(graph, proj, 0.01, opts)
            _, grad = joint_loss_and_grad(graph.adjacency, result.f_star, proj, targets, 0.01)
            assert result.grad_norm == pytest.approx(float(np.linalg.norm(grad)), rel=1e-12)

    def test_stationary_start_stops_at_once(self):
        graph, proj, targets = graph_proj_targets([3, 3], 0.1, 0.0, seed=21)
        result = solve_joint(graph, proj, 0.0, SolveOptions(init=np.zeros((graph.n, graph.n))))
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
        graph, proj, targets = graph_proj_targets([3, 3], 0.0, 0.0, seed=14)
        with pytest.raises(ContractViolation):
            solve_joint(graph, proj * 2.0, 0.0)  # not orthonormal
        with pytest.raises(ContractViolation):
            solve_joint(graph, proj, -1.0)
        with pytest.raises(ContractViolation):
            solve_joint(graph, proj, 0.0, SolveOptions(init="magic"))


class TestVerifyLemma:
    def test_delta_zero_bounds_are_zero(self):
        graph, proj, targets = graph_proj_targets(
            [4, 3], 0.0, 0.0, seed=15, normalization="unit-spectral-per-block"
        )
        result = solve_joint(graph, proj, 0.0, SolveOptions())
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
        graph, proj, targets = graph_proj_targets(
            [4, 3], 0.0, 0.0, seed=15, normalization="unit-spectral-per-block"
        )
        capped = solve_joint(graph, proj, 1e-4, SolveOptions(init="random", max_iters=2))
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
    proj = orthonormal_init(graph.n, len(sizes), seed + 1)
    result = solve_joint(graph, proj, 1e-4, SolveOptions(seed=seed))
    return graph, result


class TestMuSweep:
    def test_one_row_per_mu(self):
        graph, proj, targets = graph_proj_targets(
            [4, 3], 0.05, 0.0, seed=17, normalization="unit-spectral-per-block"
        )
        sweep = mu_sweep(graph, proj, [0.0, 0.01, 1.0])
        assert [row["mu"] for row in sweep["rows"]] == [0.0, 0.01, 1.0]
        for row in sweep["rows"]:
            assert len(row["dominance"]) == 2

    def test_mu_zero_passes_on_delta_zero(self):
        graph, proj, targets = graph_proj_targets(
            [4, 3], 0.0, 0.0, seed=18, normalization="unit-spectral-per-block"
        )
        sweep = mu_sweep(graph, proj, [0.0])
        assert sweep["rows"][0]["lemma_pass"]
        assert sweep["mu_min_estimate"] == 0.0

    def test_passing_prefix_on_small_spread(self):
        graph, proj, targets = graph_proj_targets(
            [6, 5], 0.05, 0.0, seed=19, normalization="unit-spectral-per-block"
        )
        sweep = mu_sweep(graph, proj, [1e-6, 1e-4, 1e-2, 1.0, 100.0])
        assert sweep["rows"][0]["lemma_pass"]
        assert sweep["mu_min_estimate"] is not None

    def test_capped_rows_do_not_pass(self):
        graph, proj, targets = graph_proj_targets(
            [4, 3], 0.0, 0.0, seed=18, normalization="unit-spectral-per-block"
        )
        sweep = mu_sweep(
            graph, proj, [1e-4, 1.0], SolveOptions(init="random", max_iters=2)
        )
        assert [row["converged"] for row in sweep["rows"]] == [False, False]
        assert [row["lemma_pass"] for row in sweep["rows"]] == [False, False]
        assert sweep["mu_min_estimate"] is None

    def test_requires_sorted_nonnegative(self):
        graph, proj, targets = graph_proj_targets([3, 3], 0.0, 0.0, seed=20)
        with pytest.raises(ContractViolation):
            mu_sweep(graph, proj, [1.0, 0.1])
        with pytest.raises(ContractViolation):
            mu_sweep(graph, proj, [-1.0, 0.1])


def _no_child_left():
    with pytest.raises(ChildProcessError):
        os.waitpid(-1, os.WNOHANG)


class _Handoff:
    """Orders the sweep's solves between the calling process and its helper.

    The sweep queues its tasks largest mu first, so `last`, the smallest mu,
    is the last one taken.  With helper_takes_rest the caller holds its first
    task until the helper has solved `last`, so the caller solves one mu and
    the helper the others; otherwise the helper holds its first task until
    the caller has solved `last`.  Both processes inherit the two pipes
    across the fork, and a wait gives up after 30 s, so a broken helper fails
    the test instead of hanging it.
    """

    def __init__(self, solve, last, helper_takes_rest):
        self.solve, self.last, self.helper_takes_rest = solve, last, helper_takes_rest
        self.caller = os.getpid()
        self.to_caller, self.to_helper = os.pipe(), os.pipe()
        self.started = False
        self.caller_solves = 0  # counted in the calling process only

    def in_helper(self):
        return os.getpid() != self.caller

    def __call__(self, graph, proj, mu, opts):
        helper = self.in_helper()
        if not self.started and helper and not self.helper_takes_rest:
            os.write(self.to_caller[1], b"x")
            self._wait(self.to_helper[0])
        if not self.started and not helper:
            self._wait(self.to_caller[0])
        self.started = True
        self.caller_solves += not helper
        try:
            return self.solve(graph, proj, mu, opts)
        finally:
            if mu == self.last and helper == self.helper_takes_rest:
                os.write((self.to_caller if helper else self.to_helper)[1], b"x")

    @staticmethod
    def _wait(fd):
        ready, _, _ = select.select([fd], [], [], 30.0)
        assert ready, "the other process did not take its tasks"
        os.read(fd, 1)

    def close(self):
        for fd in (*self.to_caller, *self.to_helper):
            os.close(fd)


MUS = [1e-6, 1e-4, 1e-2, 1.0, 100.0]


@pytest.fixture
def sweep_problem():
    graph, proj, _ = graph_proj_targets(
        [8, 8, 8], 0.05, 0.0, seed=23, normalization="unit-spectral-per-block", d=6
    )
    return graph, proj


@pytest.fixture
def forks(monkeypatch):
    """The helpers the calling process forks, counted."""
    started = []
    real_fork = os.fork

    def counting_fork():
        started.append(1)
        return real_fork()

    monkeypatch.setattr(os, "fork", counting_fork)
    return started


def _assert_same_solve(got, want):
    assert got.f_star.tobytes() == want.f_star.tobytes()
    assert np.array(got.loss_trace).tobytes() == np.array(want.loss_trace).tobytes()
    assert [s.tobytes() for s in got.per_class_sigma] == [s.tobytes() for s in want.per_class_sigma]
    assert (got.mu, got.iterations, got.converged) == (want.mu, want.iterations, want.converged)
    assert np.float64(got.grad_norm).tobytes() == np.float64(want.grad_norm).tobytes()


class TestSweepHelper:
    """mu_sweep solves on the calling process and one forked helper, with the
    serial loop's results and errors, and leaves no process behind."""

    @pytest.mark.parametrize("helper_takes_rest", [True, False], ids=["helper-most", "caller-most"])
    def test_results_bit_equal_to_serial_solves(
        self, sweep_problem, forks, monkeypatch, helper_takes_rest
    ):
        graph, proj = sweep_problem
        handoff = _Handoff(solve_joint, MUS[0], helper_takes_rest)
        monkeypatch.setattr(theory, "solve_joint", handoff)
        solved = {}
        try:
            sweep = mu_sweep(graph, proj, MUS, results=solved)
        finally:
            handoff.close()
        monkeypatch.undo()
        assert len(forks) == 1
        # The caller used the helper's results instead of solving them again.
        assert handoff.caller_solves == (1 if helper_takes_rest else len(MUS) - 1)
        _no_child_left()
        assert [row["mu"] for row in sweep["rows"]] == MUS
        for mu in MUS:
            _assert_same_solve(solved[mu], solve_joint(graph, proj, mu))
        assert sweep == mu_sweep(graph, proj, MUS)

    def test_exactly_one_helper_on_a_five_mu_sweep(self, sweep_problem, forks):
        mu_sweep(*sweep_problem, MUS)
        assert len(forks) == 1
        _no_child_left()

    @pytest.mark.parametrize(
        "helper_takes_rest, helper_fails, caller_fails, expect",
        [
            # The caller solves one of the two largest mu, the helper the rest.
            (True, {MUS[1]}, set(MUS), (NumericFailure, f"helper: mu {MUS[1]}")),
            # The helper solves one of the two largest mu, the caller the rest.
            (False, set(MUS), {MUS[2]}, (ContractViolation, f"caller: mu {MUS[2]}")),
        ],
        ids=["helper-error-lowest", "caller-error-lowest"],
    )
    def test_lowest_index_error_wins(
        self, sweep_problem, monkeypatch, helper_takes_rest, helper_fails, caller_fails, expect
    ):
        def planted(graph, proj, mu, opts):
            if handoff.in_helper() and mu in helper_fails:
                raise NumericFailure(f"helper: mu {mu}")
            if not handoff.in_helper() and mu in caller_fails:
                raise ContractViolation(f"caller: mu {mu}")
            return solve_joint(graph, proj, mu, opts)

        handoff = _Handoff(planted, MUS[0], helper_takes_rest)
        monkeypatch.setattr(theory, "solve_joint", handoff)
        try:
            with pytest.raises(RoddError) as caught:
                mu_sweep(*sweep_problem, MUS)
        finally:
            handoff.close()
        assert (type(caught.value), str(caught.value)) == expect
        _no_child_left()

    def test_helper_solved_overflow_raises_the_serial_error(self, sweep_problem, monkeypatch):
        graph, proj = sweep_problem
        mus = [1e-6, 1e-4, 1e120, 1e121, 1e122]
        with pytest.raises(NumericFailure) as serial:
            solve_joint(graph, proj, mus[2])
        handoff = _Handoff(solve_joint, mus[0], helper_takes_rest=True)
        monkeypatch.setattr(theory, "solve_joint", handoff)
        try:
            with pytest.raises(NumericFailure) as swept:
                mu_sweep(graph, proj, mus)
        finally:
            handoff.close()
        assert str(swept.value) == str(serial.value)
        assert "the line search overflows" in str(swept.value)
        _no_child_left()

    def test_helper_that_dies_costs_only_time(self, sweep_problem, monkeypatch):
        graph, proj = sweep_problem
        handoff = _Handoff(solve_joint, MUS[0], helper_takes_rest=True)

        def dying(graph, proj, mu, opts):
            result = handoff(graph, proj, mu, opts)
            if handoff.in_helper() and mu == MUS[0]:
                os._exit(3)  # after solving four mu, before delivering them
            return result

        monkeypatch.setattr(theory, "solve_joint", dying)
        solved = {}
        try:
            mu_sweep(graph, proj, MUS, results=solved)
        finally:
            handoff.close()
        monkeypatch.undo()
        _no_child_left()
        for mu in MUS:
            _assert_same_solve(solved[mu], solve_joint(graph, proj, mu))

    def test_keyboard_interrupt_in_the_caller_reaps_the_helper(self, sweep_problem, monkeypatch):
        handoff = _Handoff(solve_joint, MUS[0], helper_takes_rest=False)

        def interrupted(graph, proj, mu, opts):
            if handoff.in_helper():
                return handoff(graph, proj, mu, opts)  # blocks until it is killed
            handoff._wait(handoff.to_caller[0])  # the helper holds a task
            raise KeyboardInterrupt

        monkeypatch.setattr(theory, "solve_joint", interrupted)
        start = time.monotonic()
        try:
            with pytest.raises(KeyboardInterrupt):
                mu_sweep(*sweep_problem, MUS)
        finally:
            handoff.close()
        # Killed, not waited for: the blocked helper would hold out for 30 s.
        assert time.monotonic() - start < 10.0
        _no_child_left()

    def test_no_helper_for_one_mu(self, sweep_problem, forks):
        graph, proj = sweep_problem
        solved = {}
        mu_sweep(graph, proj, [1.0], results=solved)
        assert forks == []
        _assert_same_solve(solved[1.0], solve_joint(graph, proj, 1.0))

    def test_no_helper_while_another_thread_runs(self, sweep_problem, forks):
        graph, proj = sweep_problem
        release = threading.Event()
        other = threading.Thread(target=release.wait)
        other.start()
        try:
            solved = {}
            mu_sweep(graph, proj, MUS, results=solved)
        finally:
            release.set()
            other.join()
        assert forks == []
        for mu in MUS:
            _assert_same_solve(solved[mu], solve_joint(graph, proj, mu))


class TestLineSearch:
    def test_quartic_matches_direct_evaluation(self):
        rng = np.random.default_rng(40)
        for sizes, d, mu in (([4, 3], 5, 0.3), ([6, 5, 4], 8, 1e-4), ([16, 16, 16], 12, 100.0)):
            graph, proj, targets = graph_proj_targets(sizes, 0.1, 0.05, seed=d, d=d)
            a = graph.adjacency
            f = 0.3 * rng.standard_normal((graph.n, d))
            direction = rng.standard_normal((graph.n, d))
            loss, grad = joint_loss_and_grad(a, f, proj, targets, mu)
            coeffs = line_quartic(a, f, direction, proj, mu, grad)
            for t in (-0.7, -0.05, 0.01, 0.2, 1.5):
                direct, _ = joint_loss_and_grad(a, f + t * direction, proj, targets, mu)
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


def _oracle_gap(graph, proj, mu, max_iters, seed):
    """(solve_joint's final loss, the gradient-descent oracle's) from one init."""
    targets = one_hot_targets(graph)
    f0 = _initial_point(graph, proj.shape[0], SolveOptions(seed=seed))
    result = solve_joint(graph, proj, mu, SolveOptions(max_iters=max_iters, init=f0))
    _, trace = gd_solve(graph.adjacency, f0, proj, targets, mu, max_iters)
    return result.loss_trace[-1], trace[-1]


class TestAgainstGradientDescent:
    def test_shipped_theory_config(self):
        cfg = parse_config_file(THEORY_CFG)
        seed = cfg.get("theory.seed")
        sizes = cfg.get("theory.class_sizes")
        graph = build_adjacency(
            sizes, cfg.get("theory.delta"), cfg.get("theory.eta"), seed,
            cfg.get("theory.normalization"),
        )
        proj = orthonormal_init(cfg.get("theory.d"), len(sizes), seed + 1)
        mu_values = cfg.get("theory.mu_values")
        assert cfg.get("theory.mu") in mu_values
        for mu in mu_values:
            ours, oracle = _oracle_gap(graph, proj, mu, cfg.get("theory.max_iters"), seed)
            assert ours <= oracle, f"mu={mu}: {ours} > {oracle}"

    def test_three_classes_of_sixteen(self):
        graph = build_adjacency([16, 16, 16], 0.05, 0.0, 5, "unit-spectral-per-block")
        proj = orthonormal_init(12, 3, 6)
        ours, oracle = _oracle_gap(graph, proj, 1e-4, 4000, 5)
        assert ours <= oracle


def _theory_cfg_problem():
    """(graph, proj, mu values, max_iters, seed) of configs/theory.cfg."""
    cfg = parse_config_file(THEORY_CFG)
    seed = cfg.get("theory.seed")
    sizes = cfg.get("theory.class_sizes")
    graph = build_adjacency(
        sizes, cfg.get("theory.delta"), cfg.get("theory.eta"), seed,
        cfg.get("theory.normalization"),
    )
    proj = orthonormal_init(cfg.get("theory.d"), len(sizes), seed + 1)
    mu_values = cfg.get("theory.mu_values")
    return graph, proj, mu_values, cfg.get("theory.max_iters"), seed


def _mu_term(f, proj, targets):
    fit = f @ proj - targets
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
            gauge = _GaugeStep(np.eye(d)[:, :n_classes])
            _, _, hess, grad = gauge.newton_system(f, targets)

            def mu_term(params):
                skew = (gauge.skew_lift @ params).reshape(d, d)
                q = np.linalg.solve(np.eye(d) - skew / 2, np.eye(d) + skew / 2)
                return _mu_term(f @ q, np.eye(d)[:, :n_classes], targets)

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
        graph, proj, mu_values, _, seed = _theory_cfg_problem()
        targets = one_hot_targets(graph)
        a = graph.adjacency
        gauge = _GaugeStep(proj)
        frame_proj = gauge.frame.T @ proj
        solved = solve_joint(graph, proj, 1e-4, SolveOptions(seed=seed)).f_star
        rng = np.random.default_rng(51)
        points = [rng.standard_normal(solved.shape) * s for s in (0.1, 1.0, 3.0)]
        points += [solved + 1e-3 * rng.standard_normal(solved.shape) for _ in range(3)]
        rotated = 0
        for f in points:
            f = f @ gauge.frame
            q = gauge.rotation(f, targets)
            if q is None:
                continue
            rotated += 1
            assert np.abs(q.T @ q - np.eye(len(q))).max() <= 1e-14
            before = float(np.sum((a - f @ f.T) ** 2))
            after = float(np.sum((a - (f @ q) @ (f @ q).T) ** 2))
            assert abs(after - before) <= 1e-12 * before
            assert _mu_term(f @ q, frame_proj, targets) < _mu_term(f, frame_proj, targets)
        assert rotated == len(points)
        assert gauge.rotation(np.zeros_like(solved), targets) is None  # F = 0: nothing to turn
        overflowed = solved.copy()
        overflowed[0, 0] = np.inf
        with np.errstate(all="ignore"):
            assert gauge.rotation(overflowed, targets) is None  # left to the loss check

    def test_result_is_rotation_stationary(self):
        graph, proj, mu_values, max_iters, seed = _theory_cfg_problem()
        targets = one_hot_targets(graph)
        for mu in mu_values:
            f = solve_joint(
                graph, proj, mu, SolveOptions(max_iters=max_iters, seed=seed)
            ).f_star
            moment = f.T @ (f @ proj - targets) @ proj.T
            skew = (moment - moment.T) / 2
            assert np.linalg.norm(skew) <= 1e-12 * np.linalg.norm(moment), f"mu={mu}"

    def test_reflects_a_column_that_points_away_from_its_target(self):
        # Negating a W-column keeps F F^T but raises the mu-term by
        # 4 |<F_j, Y_j>|; one rotation must flip it back.
        graph, proj, mu_values, max_iters, seed = _theory_cfg_problem()
        targets = one_hot_targets(graph)
        a = graph.adjacency
        gauge = _GaugeStep(proj)
        frame_proj = gauge.frame.T @ proj
        solved = solve_joint(
            graph, proj, 1e-4, SolveOptions(max_iters=max_iters, seed=seed)
        ).f_star @ gauge.frame
        flipped = solved.copy()
        flipped[:, 1] *= -1.0
        q = gauge.rotation(flipped, targets)
        assert q is not None
        assert np.abs(q.T @ q - np.eye(len(q))).max() <= 1e-14
        assert q[1, 1] == pytest.approx(-1.0, abs=1e-6)
        turned = flipped @ q
        assert _mu_term(turned, frame_proj, targets) == pytest.approx(
            _mu_term(solved, frame_proj, targets), rel=1e-9
        )
        before = float(np.sum((a - solved @ solved.T) ** 2))
        after = float(np.sum((a - turned @ turned.T) ** 2))
        assert abs(after - before) <= 1e-12 * before

    def test_mu_zero_takes_no_gauge_step(self, monkeypatch):
        def refuse(*args):
            raise AssertionError("a gauge step was built at mu = 0")

        monkeypatch.setattr(_GaugeStep, "__init__", refuse)
        graph, proj, targets = graph_proj_targets([5, 4], 0.05, 0.0, seed=52, d=6)
        f0 = _initial_point(graph, 6, SolveOptions(init="random", seed=52))
        result = solve_joint(graph, proj, 0.0, SolveOptions(init=f0))
        _, trace, _ = cg_solve(graph.adjacency, f0, proj, targets, 0.0, 2000)
        assert result.converged
        assert result.loss_trace[-1] <= trace[-1] * (1 + 1e-7)


class TestAgainstConjugateGradient:
    """The gauge step must not cost accuracy: every solve converges, and
    ends no higher than the plain CG loop from the same start."""

    @staticmethod
    def _check(graph, proj, mu_values, max_iters, seed):
        targets = one_hot_targets(graph)
        f0 = _initial_point(graph, proj.shape[0], SolveOptions(seed=seed))
        for mu in mu_values:
            result = solve_joint(
                graph, proj, mu, SolveOptions(max_iters=max_iters, init=f0)
            )
            _, trace, _ = cg_solve(graph.adjacency, f0, proj, targets, mu, max_iters)
            assert result.converged, f"mu={mu}: stopped at max_iters"
            assert result.loss_trace[-1] <= trace[-1] * (1 + 1e-7), f"mu={mu}"

    def test_shipped_theory_config(self):
        self._check(*_theory_cfg_problem())

    def test_three_classes_of_sixteen(self):
        graph = build_adjacency([16, 16, 16], 0.05, 0.0, 5, "unit-spectral-per-block")
        proj = orthonormal_init(12, 3, 6)
        self._check(graph, proj, [1e-6, 1e-4, 1e-2, 1.0, 100.0], 4000, 5)

    def test_ill_conditioned_mu_100(self):
        # The fourth problem of the theory-scale benchmark at seed 14: without
        # the preconditioner, its mu = 100 solve stops at the 4000-step cap.
        seed = int(np.random.SeedSequence(14).generate_state(8)[3])
        graph = build_adjacency([16, 16, 16], 0.05, 0.0, seed, "unit-spectral-per-block")
        proj = orthonormal_init(12, 3, seed + 1)
        self._check(graph, proj, [1e-6, 1e-4, 1e-2, 1.0, 100.0], 4000, seed)
