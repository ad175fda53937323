"""Numerical checks of the low-rank structure behind the detection method.

Builds augmentation-graph adjacency matrices whose within-class entries have
a bounded spread (ratio within (1+delta)^2) and whose cross-class entries sit
below an eta ceiling, solves the joint factorization-plus-regression problem

    L(F) = ||A - F F^T||_F^2 + mu ||F W - Y||_F^2

in closed form at mu = 0 (A's top-d eigenpairs, negative eigenvalues clipped
to zero, which is also where the iterative solve starts) and by Polak-Ribiere+
conjugate gradient with an exact line search (L along a line is a quartic,
minimized through the real roots of its derivative cubic).  The columns of F
sit at eigenpairs of A whose eigenvalues can differ by two orders of
magnitude, so the CG direction is right-preconditioned by the damped d x d
curvature 4 F^T F + 2 mu W W^T, as in scaled gradient descent (Tong, Ma and
Chi, arXiv 2005.08898; damped for over-parameterized F as in Zhang, Fattahi
and Zhang, NeurIPS 2021).  The first term does not change under F -> FQ for
orthogonal Q, so at small mu the loss is nearly flat along those rotations;
every CG step is therefore followed by an exact gauge step, a reflection of
the W-columns that point away from their targets and a Riemannian Newton
step over Q in O(d) on mu ||F Q W - Y||^2, both reduced to the d x d
matrices F^T F and F^T Y (Absil, Mahony and Sepulchre, Optimization
Algorithms on Matrix Manifolds, 2008).  It then verifies the per-class
singular-value tail bounds

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

NORMALIZATIONS = ("none", "unit-spectral-per-block")

_STEP_SLACK = 1e-12  # per-step nonincrease slack on the loss trace
# The largest spread delta accepted: (1 + delta)^2 overflows float64 past 1.3e154.
DELTA_LIMIT = 1e150
_DAMPING = 0.01  # the solver preconditioner's ridge, relative to its mean eigenvalue


@dataclass(frozen=True)
class AugGraph:
    """Symmetric nonnegative adjacency with a class partition.

    Invariants checked on construction: delta in [0, DELTA_LIMIT], eta >= 0,
    symmetry within 1e-12, nonnegative entries, within-class max/min ratio
    at most (1+delta)^2, and every cross-class entry at most eta times the
    smallest within-class entry.
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
        _check_spread(self.delta, self.eta)
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
    tol: float = 1e-12
    init: str | np.ndarray = "auto"  # auto (the mu = 0 optimum) | random | array
    seed: int = 0


@dataclass
class JointSolveResult:
    f_star: np.ndarray
    loss_trace: list[float]
    per_class_sigma: list[np.ndarray]
    mu: float
    iterations: int  # line-search steps taken
    converged: bool  # False when max_iters ran out before the tol test passed
    grad_norm: float  # Frobenius norm of the gradient at f_star


def build_adjacency(
    class_sizes,
    delta: float,
    eta: float,
    seed: int,
    normalization: str = "unit-spectral-per-block",
) -> AugGraph:
    """Random adjacency satisfying the spread and cross-class assumptions.

    Within-class entries are drawn uniformly from [1/(1+delta), 1+delta] and
    symmetrized; cross-class entries are the constant eta times the smallest
    within-class entry (zero blocks off the diagonal when eta = 0).  The
    requested normalization is applied per class block before the cross
    entries are set.
    """
    _check_spread(delta, eta)
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
    hi = 1.0 + delta
    lo = 1.0 / hi
    for size in sizes:
        stop = start + size
        block = rng.uniform(lo, hi, size=(size, size))
        block = (block + block.T) / 2.0
        if normalization == "unit-spectral-per-block":
            lam, _ = sym_eig(block)
            block = block / lam[0]
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


def _check_spread(delta: float, eta: float) -> None:
    if not (0.0 <= delta <= DELTA_LIMIT and eta >= 0.0):
        raise ContractViolation(f"delta must lie in [0, {DELTA_LIMIT:g}] and eta must be >= 0")


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
    return _clipped_top(lam, q, d)


def _clipped_top(lam, q, d):
    """Q_d diag(sqrt(max(lambda_d, 0))) from A's descending eigenpairs: the
    rank-d minimizer of ||A - F F^T||^2 for every symmetric A, PSD or not."""
    return q[:, :d] * np.sqrt(np.clip(lam[:d], 0.0, None))


def joint_loss_and_grad(adjacency, f, proj, targets, mu: float):
    """L(F) = ||A - F F^T||^2 + mu ||F W - Y||^2 and its gradient in F."""
    residual = adjacency - f @ f.T
    fit = f @ proj - targets
    loss = float(np.vdot(residual, residual) + mu * np.vdot(fit, fit))
    grad = -4.0 * (residual @ f) + 2.0 * mu * (fit @ proj.T)
    return loss, grad


def _validate_proj(graph, proj):
    proj = as_matrix(proj, "proj")
    if not 1 <= proj.shape[0] <= graph.n:
        raise ContractViolation(f"d must lie in [1, {graph.n}], got {proj.shape[0]}")
    n_classes = len(graph.class_ranges)
    if proj.shape[1] != n_classes:
        raise ContractViolation(
            f"projection has {proj.shape[1]} columns, graph has {n_classes} classes"
        )
    gram = proj.T @ proj
    if float(np.abs(gram - np.eye(n_classes)).max()) > 1e-8:
        raise ContractViolation("projection columns must be orthonormal within 1e-8")
    return proj


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
        return _clipped_top(*sym_eig(graph.adjacency), d)
    if init == "random":
        rng = np.random.default_rng(opts.seed)
        return 0.01 * rng.standard_normal((graph.n, d))
    raise ContractViolation(f"unknown init {init!r}")


def line_quartic(adjacency, f, direction, proj, mu: float, grad):
    """(c1, c2, c3, c4) with L(F + tD) = L(F) + c1 t + c2 t^2 + c3 t^3 + c4 t^4.

    grad is the gradient of L at F.  With R = A - F F^T,
    S = F D^T + D F^T and P = D D^T the factorization residual along the line
    is R - tS - t^2 P and the regression residual is (F W - Y) + t D W, so

        c1 = <grad, D>
        c2 = ||S||^2 - 2 <R, P> + mu ||D W||^2
        c3 = 2 <S, P>
        c4 = ||P||^2

    and every inner product reduces to the d x d Gram matrices of F and D
    plus the one product A D.
    """
    ff, df, dd = f.T @ f, direction.T @ f, direction.T @ direction
    dw = direction @ proj
    c2 = 2.0 * (
        np.vdot(ff, dd)
        + np.vdot(df, df)
        + np.vdot(df, df.T)
        - np.vdot(direction, adjacency @ direction)
    ) + mu * np.vdot(dw, dw)
    return (
        float(np.vdot(grad, direction)),
        float(c2),
        4.0 * float(np.vdot(df, dd)),
        float(np.vdot(dd, dd)),
    )


def _quartic_argmin(c1: float, c2: float, c3: float, c4: float) -> float:
    """Minimizer over t > 0 of c1 t + c2 t^2 + c3 t^3 + c4 t^4, for c1 < 0 < c4.

    The candidates are the real roots of the derivative cubic in closed form.
    One real root comes from Cardano's formula (or, with three real roots,
    the trigonometric form's largest in magnitude) and the other two from the
    quadratic left by deflating it, because small roots next to a large one
    lose their digits in either formula.  Every root is polished by Newton
    steps, and the one with the lowest quartic value wins; 0 when none
    lowers it.  NumericFailure when the cubic's discriminant overflows.
    """
    # Monic derivative cubic t^3 + a t^2 + b t + c (c < 0, so no root is 0),
    # depressed by t = x - a/3.
    a, b, c = 0.75 * c3 / c4, 0.5 * c2 / c4, 0.25 * c1 / c4
    p = b - a * a / 3.0
    q = a * (2.0 * a * a - 9.0 * b) / 27.0 + c
    try:
        disc = (0.5 * q) ** 2 + (p / 3.0) ** 3
    except OverflowError:  # a mu so large that the loss's curvature overflows
        raise NumericFailure(f"the line search overflows: p = {p:.3e}, q = {q:.3e}") from None
    if disc > 0.0 or p >= 0.0:
        root = math.sqrt(max(disc, 0.0))
        first = _cbrt(-0.5 * q + root) + _cbrt(-0.5 * q - root) - a / 3.0
    else:
        r = 2.0 * math.sqrt(-p / 3.0)
        phi = math.acos(max(-1.0, min(1.0, 3.0 * q / (p * r))))
        first = max(
            (r * math.cos((phi - 2.0 * math.pi * k) / 3.0) - a / 3.0 for k in range(3)),
            key=abs,
        )
    roots = [_cubic_newton(first, a, b, c)]
    # The other two roots have product -c/first and sum (b + c/first)/first.
    prod = -c / roots[0]
    total = (b - prod) / roots[0]
    gap = total * total - 4.0 * prod
    if gap >= 0.0:
        half = 0.5 * (total + math.copysign(math.sqrt(gap), total))
        roots += [_cubic_newton(t, a, b, c) for t in (half, prod / half)]
    best_t, best_value = 0.0, 0.0
    for t in roots:
        value = t * (c1 + t * (c2 + t * (c3 + t * c4)))
        if t > 0.0 and value < best_value:
            best_t, best_value = t, value
    return best_t


def _cubic_newton(t: float, a: float, b: float, c: float) -> float:
    """Up to four Newton steps towards a root of t^3 + a t^2 + b t + c."""
    for _ in range(4):
        slope = b + t * (2.0 * a + 3.0 * t)
        if slope == 0.0:
            break
        update = (c + t * (b + t * (a + t))) / slope
        t -= update
        if abs(update) <= 1e-15 * abs(t):
            break
    return t


def _cbrt(x: float) -> float:
    return math.copysign(abs(x) ** (1.0 / 3.0), x)


class _GaugeStep:
    """One rotation F -> FQ, Q in O(d), that lowers ||F Q W - Y||^2.

    Works in the coordinates of `frame`, an orthogonal matrix whose first L
    columns are W's, so that there W = E = [I; 0]; solve_joint solves in
    them.  First every column j < L with <F_j, Y_j> < 0 is negated, which
    lowers the mu-term by 4 |<F_j, Y_j>|: a sign-flipped column can be a
    saddle that the Newton step below, which stays near Q = I, does not leave.
    The reflection is composed into the Q returned, after which the mu-term
    depends on Q only through V = Q E on the Stiefel
    manifold St(d, L), and everything reduces to G = F^T F and
    R = G E - F^T Y.  A rotation Q = I + S + S^2/2 + O(|S|^3) with
    S = [[O, -K^T], [K, 0]] (O skew L x L, K (d-L) x L, X = S E = [O; K])
    changes the mu-term by

        2 <R, X> + <X, G X> + <R, S X> + O(|S|^3),   S X = [O^2 - K^T K; K O],

    a quadratic model in the L(L-1)/2 + L(d-L) free entries of O and K whose
    minimizer is one Newton step.  Q is then I + S + S^2/2, which for skew S
    is orthogonal to within |S|^4/4, polished by as many Newton-Schulz
    iterations as that bound calls for (none once |S| is below 1e-4), or the
    Cayley transform of S for a long step.  When the Newton step does not
    lower the mu-term (an indefinite model far from the minimum), the step
    majorizes G by ||G||_F I instead and takes the Procrustes solution this
    leaves, which never raises the mu-term.  Either way Q is orthogonal to
    rounding, so ||A - F F^T||^2 does not change.
    """

    def __init__(self, proj: np.ndarray):
        d, ell = proj.shape
        basis, tri = np.linalg.qr(proj, mode="complete")
        basis[:, :ell] *= np.where(np.diag(tri) < 0.0, -1.0, 1.0)
        self.frame = basis  # frame^T proj = [T; 0] with T upper triangular, ~ I
        upper, lower = np.triu_indices(ell, 1)
        n_skew = upper.size
        n_free = n_skew + (d - ell) * ell
        # lift maps the free parameters to X = [O; K], raveled row-major.
        lift = np.zeros((d * ell, n_free))
        lift[upper * ell + lower, np.arange(n_skew)] = 1.0
        lift[lower * ell + upper, np.arange(n_skew)] = -1.0
        lift[ell * ell :, n_skew:] = np.eye((d - ell) * ell)
        cols = lift.reshape(d, ell, n_free)
        skew = np.zeros((d, d, n_free))
        skew[:, :ell] = cols
        skew[:ell, ell:] = -cols[ell:].transpose(1, 0, 2)
        self.ell = ell
        self.lift_t = np.ascontiguousarray(lift.T)
        # The model's quadratic form in vec(X) is kron(G, I) + M, M that of
        # <R, S X>; its product with lift is G X + R O^T on every row of X,
        # which is [G, R] @ stacked, less K R_top^T on the K rows.
        self.stacked = np.vstack(
            [lift.reshape(d, ell * n_free), cols[:ell].transpose(1, 0, 2).reshape(ell, -1)]
        )
        self.k_cols = cols[ell:]
        self.skew_lift = skew.reshape(d * d, n_free)
        self.eye = np.eye(d)
        self.e_cols = self.eye[:, :ell]

    def newton_system(self, f: np.ndarray, targets: np.ndarray):
        """(G, R, Hessian, gradient) of the model in the free parameters."""
        ell, d = self.ell, f.shape[1]
        both = f.T @ np.concatenate((f, f[:, :ell] - targets), axis=1)  # [G, R]
        gram, resid = both[:, :d], both[:, d:]
        cols = (both @ self.stacked).reshape(self.lift_t.shape[::-1])
        cols[ell * ell :] -= (resid[:ell] @ self.k_cols).reshape(cols[ell * ell :].shape)
        half = self.lift_t @ cols
        return gram, resid, half + half.T, 2.0 * (self.lift_t @ resid.ravel())

    def rotation(self, f: np.ndarray, targets: np.ndarray) -> np.ndarray | None:
        """The rotation, or None when none lowers the mu-term."""
        gram, resid, hess, slope = self.newton_system(f, targets)
        # <F_j, Y_j> = (G - R)_jj: negating a column j < L that points away
        # from its target lowers the mu-term by 4 |<F_j, Y_j>|.
        flip = gram.diagonal()[: self.ell] < resid.diagonal()
        if not flip.any():
            return self._turn(gram, resid, hess, slope)
        signs = np.ones(len(gram))
        signs[: self.ell][flip] = -1.0
        q = self._turn(*self.newton_system(f * signs, targets))
        return signs[:, None] * (self.eye if q is None else q)

    def _turn(self, gram, resid, hess, slope) -> np.ndarray | None:
        """The Newton rotation, else the majorized Procrustes one, else None."""
        try:
            params = np.linalg.solve(hess, -slope)
        except np.linalg.LinAlgError:  # F = 0, or a singular model
            params = np.full(len(slope), np.nan)
        size = float(np.vdot(params, params))  # |S|_F^2 / 2
        if math.isfinite(size):
            skew = (self.skew_lift @ params).reshape(self.eye.shape)
            if size <= 0.25:
                q = self.eye + skew @ (self.eye + 0.5 * skew)
                # Newton-Schulz: the error e of Q^T Q = I + E goes to 3/4 e^2.
                error = size * size
                while error > 1e-16:
                    q = q @ (1.5 * self.eye - 0.5 * (q.T @ q))
                    error *= 0.75 * error
            else:
                q = np.linalg.solve(self.eye - 0.5 * skew, self.eye + 0.5 * skew)
            if self.change(q, gram, resid) < 0.0:
                return q
        # Majorization: tr(V^T G V) <= tr(V^T lam V) plus a linear term
        # touching at V = E, minimized over O(d) by the polar factor.
        target = np.zeros(self.eye.shape)
        target[:, : self.ell] = math.sqrt(np.vdot(gram, gram)) * self.e_cols - resid
        if not np.isfinite(target).all():
            return None  # a non-finite F: solve_joint's loss check reports it
        u, _, vt = np.linalg.svd(target)
        q = u @ vt
        return q if self.change(q, gram, resid) < 0.0 else None

    def change(self, q, gram, resid) -> float:
        """The mu-term's change under F -> FQ: <D, 2 R + G D>, D = Q E - E."""
        move = q[:, : self.ell] - self.e_cols
        return float(np.vdot(move, 2.0 * resid + gram @ move))


def solve_joint(
    graph: AugGraph,
    proj,
    mu: float,
    opts: SolveOptions | None = None,
) -> JointSolveResult:
    """Preconditioned Polak-Ribiere+ conjugate gradient with an exact line
    search, each step followed by an exact gauge step; the targets Y are
    one_hot_targets(graph).

    Along a search direction D the loss is the quartic line_quartic gives, so
    each step moves to its exact minimizer over t > 0 (the best real root of
    the derivative cubic).  D is -z plus the PR+ multiple
    max(0, <z', g' - g> / <z, g>) of the previous direction, and restarts at
    -z whenever it is not a descent direction, where z = grad M^-1 is the
    gradient right-preconditioned by the d x d matrix

        M = 4 F^T F + 2 mu W W^T + _DAMPING (tr M / d) I,

    the part of the Hessian that acts on F from the right.  The columns of
    F start at (auto) or grow towards (random) eigenpairs of A whose
    eigenvalues can differ by 100x or more (about 1 against 0.005 on three
    classes of 16), and the mu-term curves span(W) with 2 mu: without M the
    step count follows that spread.  The ridge keeps M invertible when F is
    rank-deficient (d above the rank A needs).  A singular or non-finite M
    raises NumericFailure; a zero gradient takes no solve.

    ||A - F F^T||^2 does not change under F -> FQ with Q orthogonal, so only
    the mu-term curves those directions, and at small mu CG crawls along
    them.  For mu > 0 every line-search step is therefore followed by a
    gauge step F -> FQ: a reflection of every W-column that points away from
    its class target, then one Riemannian Newton step over Q in O(d) on
    ||F Q W - Y||^2, started from Q = I because the last step left F
    gauge-fixed, kept only when it lowers the mu-term, with a majorized
    Procrustes step as the fallback (see _GaugeStep).  The search direction
    and the stored gradient are rotated by the same Q, so conjugacy
    survives.  The solve then runs in a frame where W = [I; 0] and rotates F
    back at the end; at mu = 0 it takes no gauge step and no frame.

    The loss and gradient are evaluated once per step, after the gauge step,
    so the trace holds evaluated losses, one per line-search step; it must
    be nonincreasing within a 1e-12 relative slack, and a non-finite or
    rising loss raises NumericFailure, as does a non-finite starting loss or
    gradient.  Stops when the relative loss change drops below opts.tol
    (converged) or max_iters is reached (not converged).
    """
    if mu < 0:
        raise ContractViolation("mu must be >= 0")
    opts = opts or SolveOptions()
    proj = _validate_proj(graph, proj)
    targets = one_hot_targets(graph)
    a = graph.adjacency
    f = _initial_point(graph, proj.shape[0], opts)
    gauge = _GaugeStep(proj) if mu > 0.0 else None
    if gauge is not None:
        f, proj = f @ gauge.frame, gauge.frame.T @ proj
    fixed = 2.0 * mu * (proj @ proj.T)
    loss, grad = joint_loss_and_grad(a, f, proj, targets, mu)
    if not (math.isfinite(loss) and np.isfinite(grad).all()):
        raise NumericFailure(f"the starting loss or its gradient is not finite: loss {loss:.6e}")
    scaled = _preconditioned(f, grad, fixed)
    scaled_dot = float(np.vdot(scaled, grad))
    direction = -scaled
    trace = [loss]
    converged = False
    for iteration in range(opts.max_iters):
        if not np.vdot(grad, direction) < 0.0:
            direction = -scaled
        norm = math.sqrt(np.vdot(direction, direction))
        cand = f
        if 0.0 < norm < math.inf:
            unit = direction / norm
            c1, c2, c3, c4 = line_quartic(a, f, unit, proj, mu, grad)
            if c1 < 0.0:
                cand = f + _quartic_argmin(c1, c2, c3, c4) * unit
        q = None if gauge is None else gauge.rotation(cand, targets)
        if q is not None:
            # The scaled gradient turns too, but only <z, g> is kept, and
            # that does not change under the rotation.
            cand, direction, grad = cand @ q, direction @ q, grad @ q
        cand_loss, cand_grad = joint_loss_and_grad(a, cand, proj, targets, mu)
        if not (
            math.isfinite(cand_loss)
            and cand_loss <= loss + _STEP_SLACK * max(1.0, abs(loss))
        ):
            raise NumericFailure(
                f"loss went from {loss:.6e} to {cand_loss:.6e} "
                f"at iteration {iteration}"
            )
        cand_scaled = _preconditioned(cand, cand_grad, fixed)
        cand_dot = float(np.vdot(cand_scaled, cand_grad))
        # Preconditioned Polak-Ribiere+: beta = max(0, <z', g' - g> / <z, g>).
        beta = (
            (cand_dot - np.vdot(cand_scaled, grad)) / scaled_dot if scaled_dot > 0.0 else 0.0
        )
        direction = max(beta, 0.0) * direction - cand_scaled
        prev = loss
        f, loss, grad, scaled, scaled_dot = cand, cand_loss, cand_grad, cand_scaled, cand_dot
        trace.append(loss)
        if abs(prev - loss) <= opts.tol * max(1.0, abs(prev)):
            converged = True
            break
    if gauge is not None:
        f = f @ gauge.frame.T
    sigmas = [
        svd(f[start:stop]).sigma for start, stop in graph.class_ranges
    ]
    return JointSolveResult(
        f, trace, sigmas, mu, len(trace) - 1, converged, math.sqrt(np.vdot(grad, grad))
    )


def _preconditioned(f, grad, fixed):
    """grad M^-1 with M = 4 F^T F + fixed + _DAMPING (tr M / d) I."""
    if not grad.any():
        return grad  # a stationary point, where M may be 0 (F = 0 at mu = 0)
    m = 4.0 * (f.T @ f) + fixed
    m.flat[:: len(m) + 1] += _DAMPING * np.trace(m) / len(m)
    try:
        scaled = np.linalg.solve(m, grad.T).T
    except np.linalg.LinAlgError:
        scaled = None
    if scaled is None or not np.isfinite(scaled).all():
        raise NumericFailure("the solver's preconditioner is singular or not finite")
    return scaled


def lemma_bounds(delta: float) -> tuple[float, float]:
    """(squared-tail bound, fourth-power-tail bound) at a given spread delta."""
    core = (1.0 + delta) ** 1.5 - 1.0
    return math.sqrt(6.0 * core), 2.0 * core


def verify_lemma(graph: AugGraph, result: JointSolveResult, tol: float = 1e-8) -> dict:
    """Compare per-class singular tails against the closed-form bounds.

    Returns a JSON-ready report: delta, eta, normalization, per-class sigma
    and tail sums, the bound values (with sqrt(3 * bound4) reported alongside
    as a consistency check), an overall pass flag, and the solver's
    iteration count, convergence flag and final gradient norm.  The pass
    flag needs every tail within its bound and a converged solve: tails of
    a point the solver stopped at max_iters say nothing about the optimum.
    """
    if result.f_star.shape[0] != graph.n:
        raise ContractViolation(
            f"result has {result.f_star.shape[0]} rows, graph n={graph.n}"
        )
    bound2, bound4 = lemma_bounds(graph.delta)
    per_class = []
    passed = result.converged
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
        "grad_norm": result.grad_norm,
    }


def mu_sweep(
    graph: AugGraph,
    proj,
    mu_values,
    opts: SolveOptions | None = None,
) -> tuple[dict, dict]:
    """Solve the joint problem per mu, in ascending mu, each from the last.

    The first mu starts where solve_joint would (opts.init); every later mu
    starts from the previous mu's f_star (continuation in mu).  Returns
    (sweep, reports).  sweep has one row per mu with the max per-class
    fourth-power tail, the per-class dominance ratios sigma_1^2 / sum
    sigma_i^2, the lemma pass flag, and the solver's iterations, convergence
    flag and final gradient norm, plus the largest listed mu whose solution
    still passes (an empirical lower estimate of the crossover weight).
    reports maps each mu to verify_lemma's report of its solve, which its
    row is read from.  An error at one mu ends the sweep; no later mu is
    solved.
    """
    mu_values = [float(m) for m in mu_values]
    if any(m < 0 for m in mu_values):
        raise ContractViolation("mu values must be >= 0")
    if mu_values != sorted(mu_values):
        raise ContractViolation("mu values must be sorted ascending")
    opts = opts or SolveOptions()
    proj = _validate_proj(graph, proj)
    d = proj.shape[0]
    init = _initial_point(graph, d, opts)
    rows = []
    passing = []
    reports = {}
    for mu in mu_values:
        result = solve_joint(graph, proj, mu, replace(opts, init=init))
        init = result.f_star
        report = reports[mu] = verify_lemma(graph, result)
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
                "grad_norm": result.grad_norm,
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
    }, reports
