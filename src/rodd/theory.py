"""Numerical checks of the low-rank structure behind the detection method.

Builds augmentation-graph adjacency matrices whose within-class entries have
a bounded spread (ratio within (1+delta)^2) and whose cross-class entries sit
below an eta ceiling, solves the joint factorization-plus-regression problem

    L(F) = ||A - F F^T||_F^2 + mu ||F W - Y||_F^2

in closed form (mu = 0, PSD A) and by gradient descent with backtracking, and
verifies the per-class singular-value tail bounds

    sum_{i>=2} sigma_i^2 <= sqrt(6 ((1+delta)^1.5 - 1))
    sum_{i>=2} sigma_i^4 <= 2 ((1+delta)^1.5 - 1)

together with the small-mu dominance of the leading singular value.
"""

from __future__ import annotations

import math
from dataclasses import dataclass, replace

import numpy as np

from .errors import ContractViolation, NumericFailure
from .linalg import as_matrix, svd, sym_eig

NORMALIZATIONS = ("none", "unit-spectral-per-block", "doubly-stochastic-per-block")

_BACKTRACK_CAP = 60
_STEP_SLACK = 1e-12  # per-step nonincrease slack on the loss trace


@dataclass(frozen=True)
class AugGraph:
    """Symmetric nonnegative adjacency with a class partition.

    Invariants checked on construction: symmetry within 1e-12, nonnegative
    entries, within-class max/min ratio at most (1+delta)^2, and every
    cross-class entry at most eta times the smallest within-class entry.
    """

    adjacency: np.ndarray
    class_ranges: tuple  # ((start, stop), ...) one per class
    delta: float
    eta: float
    normalization: str = "none"

    def __post_init__(self):
        a = as_matrix(self.adjacency, "adjacency")
        object.__setattr__(self, "adjacency", a)
        object.__setattr__(
            self, "class_ranges", tuple((int(s), int(t)) for s, t in self.class_ranges)
        )
        if self.normalization not in NORMALIZATIONS:
            raise ContractViolation(f"unknown normalization {self.normalization!r}")
        if self.delta < 0 or self.eta < 0:
            raise ContractViolation("delta and eta must be >= 0")
        n = a.shape[0]
        if a.shape != (n, n):
            raise ContractViolation("adjacency must be square")
        covered = sorted(self.class_ranges)
        expect = 0
        for start, stop in covered:
            if start != expect or stop <= start:
                raise ContractViolation("class ranges must tile [0, n) contiguously")
            expect = stop
        if expect != n:
            raise ContractViolation("class ranges must cover every row")
        if n and float(np.abs(a - a.T).max()) > 1e-12:
            raise ContractViolation("adjacency must be symmetric within 1e-12")
        if n and float(a.min()) < 0:
            raise ContractViolation("adjacency entries must be nonnegative")
        slack = 1.0 + 1e-12
        within_min = math.inf
        for start, stop in self.class_ranges:
            block = a[start:stop, start:stop]
            mx = float(block.max())
            mn = float(block.min())
            if mx == 0.0:
                continue
            within_min = min(within_min, mn)
            if mn <= 0.0 or mx / mn > (1.0 + self.delta) ** 2 * slack:
                raise ContractViolation(
                    f"within-class spread violated for block [{start}, {stop}): "
                    f"max/min = {mx / mn if mn > 0 else math.inf:.6g} > "
                    f"(1+delta)^2 = {(1.0 + self.delta) ** 2:.6g}"
                )
        cross_cap = self.eta * (0.0 if within_min is math.inf else within_min)
        for li, (s1, t1) in enumerate(self.class_ranges):
            for s2, t2 in self.class_ranges[li + 1 :]:
                block = a[s1:t1, s2:t2]
                if block.size and float(block.max()) > cross_cap * slack:
                    raise ContractViolation(
                        f"cross-class entry {float(block.max()):.6g} exceeds "
                        f"eta * min within-class entry = {cross_cap:.6g}"
                    )

    @property
    def n(self) -> int:
        return self.adjacency.shape[0]

    @property
    def class_sizes(self) -> list[int]:
        return [stop - start for start, stop in self.class_ranges]


@dataclass
class SolveOptions:
    max_iters: int = 2000
    lr: float = 0.05
    tol: float = 1e-12
    init: str | np.ndarray = "auto"  # auto | closed-form | random | zeros | array
    seed: int = 0


@dataclass
class JointSolveResult:
    f_star: np.ndarray
    loss_trace: list[float]
    per_class_sigma: list[np.ndarray]
    mu: float
    iterations: int  # gradient steps taken
    converged: bool  # False when max_iters ran out before the tol test passed


def build_adjacency(
    class_sizes,
    delta: float,
    eta: float,
    seed: int,
    normalization: str = "none",
) -> AugGraph:
    """Random adjacency satisfying the spread and cross-class assumptions.

    Within-class entries are drawn uniformly from [1/(1+delta), 1+delta] and
    symmetrized; cross-class entries are the constant eta times the smallest
    within-class entry (zero blocks off the diagonal when eta = 0).  The
    requested normalization is applied per class block before the cross
    entries are set.

    For the doubly-stochastic normalization the draw interval is narrowed to
    exponent 1/3 of the requested one, because symmetric Sinkhorn scaling can
    inflate the entry ratio by up to its square: the narrowed draw keeps the
    final ratio provably within (1+delta)^2.
    """
    if delta < 0 or eta < 0:
        raise ContractViolation("delta and eta must be >= 0")
    if normalization not in NORMALIZATIONS:
        raise ContractViolation(f"unknown normalization {normalization!r}")
    sizes = [int(s) for s in class_sizes]
    if not sizes or any(s < 1 for s in sizes):
        raise ContractViolation("class sizes must all be >= 1")
    rng = np.random.default_rng(seed)
    n = sum(sizes)
    a = np.zeros((n, n))
    ranges = []
    start = 0
    if normalization == "doubly-stochastic-per-block":
        hi = (1.0 + delta) ** (1.0 / 3.0)
    else:
        hi = 1.0 + delta
    lo = 1.0 / hi
    for size in sizes:
        stop = start + size
        block = rng.uniform(lo, hi, size=(size, size))
        block = (block + block.T) / 2.0
        if normalization == "unit-spectral-per-block":
            lam, _ = sym_eig(block)
            block = block / lam[0]
        elif normalization == "doubly-stochastic-per-block":
            block = _sinkhorn_symmetric(block)
        a[start:stop, start:stop] = block
        ranges.append((start, stop))
        start = stop
    if eta > 0:
        within_min = min(
            float(a[s:t, s:t].min()) for s, t in ranges
        )
        cross = eta * within_min
        for i, (s1, t1) in enumerate(ranges):
            for s2, t2 in ranges[i + 1 :]:
                a[s1:t1, s2:t2] = cross
                a[s2:t2, s1:t1] = cross
    return AugGraph(a, tuple(ranges), delta, eta, normalization)


def _sinkhorn_symmetric(block: np.ndarray, tol: float = 1e-13, cap: int = 10000):
    b = block.copy()
    for _ in range(cap):
        sums = b.sum(axis=1)
        if float(np.abs(sums - 1.0).max()) <= tol:
            return (b + b.T) / 2.0
        scale = 1.0 / np.sqrt(sums)
        b = b * scale[:, None] * scale[None, :]
    raise NumericFailure("sinkhorn scaling did not converge")


def closed_form_contrastive(graph: AugGraph, d: int) -> np.ndarray:
    """Rank-d minimizer of ||A - F F^T||_F^2 for positive semidefinite A.

    Returns the eigenvector representative Q_d diag(sqrt(lambda_d)); any
    right-rotation of it is also optimal.  Eigenvalues in [-1e-10, 0] are
    clipped to zero; anything more negative raises NumericFailure.
    """
    n = graph.n
    if not 1 <= d <= n:
        raise ContractViolation(f"d must lie in [1, {n}], got {d}")
    lam, q = sym_eig(graph.adjacency)
    if float(lam.min()) < -1e-10:
        raise NumericFailure(
            f"adjacency is not positive semidefinite: min eigenvalue {float(lam.min()):.3e}"
        )
    lam = np.clip(lam, 0.0, None)
    return q[:, :d] * np.sqrt(lam[:d])


def joint_loss_and_grad(adjacency, f, proj, targets, mu: float):
    """L(F) = ||A - F F^T||^2 + mu ||F W - Y||^2 and its gradient in F."""
    residual = adjacency - f @ f.T
    fit = f @ proj - targets
    loss = float((residual * residual).sum() + mu * (fit * fit).sum())
    grad = -4.0 * (residual @ f) + 2.0 * mu * (fit @ proj.T)
    return loss, grad


def _validate_joint_inputs(graph, proj, targets):
    proj = as_matrix(proj, "proj")
    targets = as_matrix(targets, "targets")
    n_classes = len(graph.class_ranges)
    if proj.shape[1] != n_classes:
        raise ContractViolation(
            f"projection has {proj.shape[1]} columns, graph has {n_classes} classes"
        )
    gram = proj.T @ proj
    if float(np.abs(gram - np.eye(n_classes)).max()) > 1e-8:
        raise ContractViolation("projection columns must be orthonormal within 1e-8")
    if targets.shape != (graph.n, n_classes):
        raise ContractViolation(
            f"targets shape {targets.shape} != ({graph.n}, {n_classes})"
        )
    for label, (start, stop) in enumerate(graph.class_ranges):
        block = targets[start:stop]
        expect = np.zeros(n_classes)
        expect[label] = 1.0
        if not np.array_equal(block, np.tile(expect, (stop - start, 1))):
            raise ContractViolation(
                f"target rows [{start}, {stop}) must be one-hot at class {label}"
            )
    return proj, targets


def one_hot_targets(graph: AugGraph) -> np.ndarray:
    """The N x L one-hot label matrix matching the graph's class partition."""
    targets = np.zeros((graph.n, len(graph.class_ranges)))
    for label, (start, stop) in enumerate(graph.class_ranges):
        targets[start:stop, label] = 1.0
    return targets


def _initial_point(graph, d, opts):
    init = opts.init
    if isinstance(init, np.ndarray):
        f0 = as_matrix(init, "init")
        if f0.shape != (graph.n, d):
            raise ContractViolation(f"init shape {f0.shape} != ({graph.n}, {d})")
        return f0.copy()
    if init == "auto":
        lam, _ = sym_eig(graph.adjacency)
        init = "closed-form" if float(lam.min()) >= -1e-10 else "random"
    if init == "closed-form":
        return closed_form_contrastive(graph, d)
    if init == "random":
        rng = np.random.default_rng(opts.seed)
        return 0.01 * rng.standard_normal((graph.n, d))
    if init == "zeros":
        return np.zeros((graph.n, d))
    raise ContractViolation(f"unknown init {init!r}")


def solve_joint(
    graph: AugGraph,
    proj,
    targets,
    mu: float,
    opts: SolveOptions | None = None,
) -> JointSolveResult:
    """Gradient descent with doubling/backtracking step control.

    The step doubles at each iteration and halves (up to 60 times) whenever
    the candidate loss increases beyond a 1e-12 relative slack, so the loss
    trace is nonincreasing.  Stops when the relative loss change drops below
    opts.tol (converged) or max_iters is reached (not converged); exhausting
    the line search raises NumericFailure.
    """
    if mu < 0:
        raise ContractViolation("mu must be >= 0")
    opts = opts or SolveOptions()
    proj, targets = _validate_joint_inputs(graph, proj, targets)
    d = proj.shape[0]
    a = graph.adjacency
    f = _initial_point(graph, d, opts)
    loss, grad = joint_loss_and_grad(a, f, proj, targets, mu)
    trace = [loss]
    lr = opts.lr
    converged = False
    for iteration in range(opts.max_iters):
        lr *= 2.0
        accepted = False
        for _ in range(_BACKTRACK_CAP + 1):
            cand = f - lr * grad
            cand_loss, cand_grad = joint_loss_and_grad(a, cand, proj, targets, mu)
            if math.isfinite(cand_loss) and cand_loss <= loss + _STEP_SLACK * max(
                1.0, abs(loss)
            ):
                accepted = True
                break
            lr /= 2.0
        if not accepted:
            raise NumericFailure(
                f"line search exhausted after {_BACKTRACK_CAP} halvings "
                f"at iteration {iteration} (loss {loss:.6e})"
            )
        prev = loss
        f, loss, grad = cand, cand_loss, cand_grad
        trace.append(loss)
        if abs(prev - loss) <= opts.tol * max(1.0, abs(prev)):
            converged = True
            break
    sigmas = [
        svd(f[start:stop]).sigma for start, stop in graph.class_ranges
    ]
    return JointSolveResult(f, trace, sigmas, mu, len(trace) - 1, converged)


def lemma_bounds(delta: float) -> tuple[float, float]:
    """(squared-tail bound, fourth-power-tail bound) at a given spread delta."""
    core = (1.0 + delta) ** 1.5 - 1.0
    return math.sqrt(6.0 * core), 2.0 * core


def verify_lemma(
    graph: AugGraph, d: int, result: JointSolveResult, tol: float = 1e-8
) -> dict:
    """Compare per-class singular tails against the closed-form bounds.

    Returns a JSON-ready report: delta, eta, normalization, per-class sigma
    and tail sums, the bound values (with sqrt(3 * bound4) reported alongside
    as a consistency check), an overall pass flag, and the solver's
    iteration count and convergence flag.
    """
    if result.f_star.shape != (graph.n, d):
        raise ContractViolation(
            f"result shape {result.f_star.shape} does not match graph n={graph.n}, d={d}"
        )
    bound2, bound4 = lemma_bounds(graph.delta)
    per_class = []
    passed = True
    for sigma in result.per_class_sigma:
        tail2 = float((sigma[1:] ** 2).sum())
        tail4 = float((sigma[1:] ** 4).sum())
        per_class.append(
            {"sigma": [float(s) for s in sigma], "tail2": tail2, "tail4": tail4}
        )
        passed = passed and tail2 <= bound2 + tol and tail4 <= bound4 + tol
    return {
        "delta": graph.delta,
        "eta": graph.eta,
        "normalization": graph.normalization,
        "per_class": per_class,
        "bounds": {
            "bound2": bound2,
            "bound4": bound4,
            "bound2_from_bound4": math.sqrt(3.0 * bound4),
        },
        "pass": passed,
        "iterations": result.iterations,
        "converged": result.converged,
    }


def mu_sweep(
    graph: AugGraph,
    proj,
    targets,
    mu_values,
    d: int,
    opts: SolveOptions | None = None,
    tol: float = 1e-8,
) -> dict:
    """Solve the joint problem per mu from one shared initialization.

    Emits one row per mu with the max per-class fourth-power tail, the
    per-class dominance ratios sigma_1^2 / sum sigma_i^2, the lemma pass
    flag, and the solver's iterations and convergence flag, plus the largest
    listed mu whose solution still passes (an empirical lower estimate of the
    crossover weight).
    """
    mu_values = [float(m) for m in mu_values]
    if any(m < 0 for m in mu_values):
        raise ContractViolation("mu values must be >= 0")
    if mu_values != sorted(mu_values):
        raise ContractViolation("mu values must be sorted ascending")
    opts = opts or SolveOptions()
    proj_arr, targets_arr = _validate_joint_inputs(graph, proj, targets)
    if proj_arr.shape[0] != d:
        raise ContractViolation(
            f"projection rows {proj_arr.shape[0]} must equal d={d}"
        )
    shared_init = _initial_point(graph, d, opts)
    rows = []
    passing = []
    for mu in mu_values:
        result = solve_joint(
            graph, proj_arr, targets_arr, mu, replace(opts, init=shared_init)
        )
        report = verify_lemma(graph, d, result, tol=tol)
        dominance = []
        for sigma in result.per_class_sigma:
            total = float((sigma**2).sum())
            dominance.append(float(sigma[0] ** 2 / total) if total > 0 else 1.0)
        max_tail4 = max(entry["tail4"] for entry in report["per_class"])
        rows.append(
            {
                "mu": mu,
                "max_tail4": max_tail4,
                "dominance": dominance,
                "lemma_pass": report["pass"],
                "iterations": result.iterations,
                "converged": result.converged,
            }
        )
        if report["pass"]:
            passing.append(mu)
    return {
        "delta": graph.delta,
        "eta": graph.eta,
        "normalization": graph.normalization,
        "d": d,
        "rows": rows,
        "mu_min_estimate": max(passing) if passing else None,
    }
