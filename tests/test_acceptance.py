"""Acceptance gate: every criterion at its stated tolerance.

Each test prints one `[criterion NN] ... PASS/FAIL` line.  The end-to-end
experiment (criteria 8-10) runs the shipped configs/demo.cfg through the CLI
exactly once per session.
"""

import json
import math
import time
from pathlib import Path

import numpy as np
import pytest

from gradcheck import grad_check
from ood_probes import uncertainty_score
from rodd import contrastive, encoder, metrics, ood, theory
from rodd.cli import run
from rodd.data import read_cifar_binary, read_features, write_features
from rodd.linalg import orthonormal_init, sym_eig

REPO = Path(__file__).resolve().parents[1]
DEMO_CONFIG = REPO / "configs" / "demo.cfg"


def _report(number, name, passed, detail=""):
    status = "PASS" if passed else "FAIL"
    print(f"[criterion {number:02d}] {name}: {status} {detail}".rstrip())
    assert passed, f"criterion {number} ({name}) failed: {detail}"


# ---------------------------------------------------------------------------
# End-to-end fixture (criteria 8, 9, 10 share one pipeline run)
# ---------------------------------------------------------------------------


@pytest.fixture(scope="module")
def e2e(tmp_path_factory):
    out = tmp_path_factory.mktemp("acceptance_run")
    started = time.perf_counter()
    for command in ("synth", "pretrain", "train", "fit", "eval"):
        code = run([command, "--config", str(DEMO_CONFIG), "--out", str(out)])
        assert code == 0, f"stage {command} exited {code}"
    elapsed = time.perf_counter() - started
    payload = json.loads((out / "eval.json").read_text())
    return {"out": out, "elapsed": elapsed, "report": payload}


# ---------------------------------------------------------------------------
# Criterion 1: gradient correctness
# ---------------------------------------------------------------------------


def test_criterion_01_gradient_correctness():
    started = time.perf_counter()
    worst_encoder = 0.0
    architectures = [((16,), 5, 6), ((12, 8), 4, 4), ((), 6, 5)]
    for seed in range(10):
        for hidden, feature_dim, input_dim in architectures:
            rng = np.random.default_rng(1000 + seed)
            model = encoder.build_model(
                input_dim, 3, hidden_sizes=hidden, feature_dim=feature_dim, seed=seed
            )
            x = 0.5 * rng.standard_normal((6, input_dim)) + 1.0
            labels = rng.integers(0, 3, size=6)
            worst_encoder = max(worst_encoder, grad_check(model, x, labels, eps=1e-5))

    worst_theory = 0.0
    rng = np.random.default_rng(77)
    for n, d in ((6, 3), (10, 4), (12, 4)):
        a = rng.standard_normal((n, n))
        a = (a + a.T) / 2
        f = rng.standard_normal((n, d))
        proj = orthonormal_init(d, 2, n)
        targets = np.zeros((n, 2))
        targets[: n // 2, 0] = 1.0
        targets[n // 2 :, 1] = 1.0
        _, grad = theory.joint_loss_and_grad(a, f, proj, targets, 0.5)
        eps = 1e-6
        for i in range(n):
            for j in range(d):
                up = f.copy()
                up[i, j] += eps
                down = f.copy()
                down[i, j] -= eps
                numeric = (
                    theory.joint_loss_and_grad(a, up, proj, targets, 0.5)[0]
                    - theory.joint_loss_and_grad(a, down, proj, targets, 0.5)[0]
                ) / (2 * eps)
                rel = abs(grad[i, j] - numeric) / max(abs(grad[i, j]), abs(numeric), 1e-8)
                worst_theory = max(worst_theory, rel)
    elapsed = time.perf_counter() - started
    _report(
        1,
        "gradient correctness",
        worst_encoder <= 1e-4 and worst_theory <= 1e-5 and elapsed < 30.0,
        f"(encoder {worst_encoder:.2e} <= 1e-4, joint {worst_theory:.2e} <= 1e-5, {elapsed:.1f}s < 30s)",
    )


# ---------------------------------------------------------------------------
# Criterion 2: orthonormality and frozen projection
# ---------------------------------------------------------------------------


def test_criterion_02_orthonormality_and_frozen_projection():
    worst = 0.0
    for d, n_cols, seed in ((8, 4, 0), (16, 4, 7), (32, 8, 3), (5, 5, 1)):
        w = orthonormal_init(d, n_cols, seed)
        worst = max(worst, float(np.abs(w.T @ w - np.eye(n_cols)).max()))

    from rodd.data import synth_gaussian_mixture

    dataset = synth_gaussian_mixture(2, 80, 4, 5.0, 0.8, seed=2)
    model = encoder.build_model(4, 2, hidden_sizes=(12,), feature_dim=4, seed=5)
    before = model.class_proj.tobytes()
    model, _ = contrastive.pretrain(
        model,
        dataset,
        contrastive.PretrainConfig(
            epochs=3, batch_size=16, aug_gaussian_sigma=0.05, seed=1
        ),
    )
    frozen_after_pretrain = model.class_proj.tobytes() == before
    model, _ = encoder.train(
        model, dataset, encoder.TrainConfig(epochs=5, batch_size=16, seed=1)
    )
    frozen_after_train = model.class_proj.tobytes() == before
    gram_after = float(
        np.abs(model.class_proj.T @ model.class_proj - np.eye(2)).max()
    )
    _report(
        2,
        "orthonormal init and frozen projection",
        worst <= 1e-8 and frozen_after_pretrain and frozen_after_train and gram_after <= 1e-8,
        f"(init {worst:.2e} <= 1e-8, bit-frozen {frozen_after_pretrain and frozen_after_train})",
    )


# ---------------------------------------------------------------------------
# Criterion 3: closed form vs iterative solver
# ---------------------------------------------------------------------------


def rank_two_block_graph(sizes, eps, seed):
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
    return theory.AugGraph(a, tuple(ranges), delta, 0.0)


def test_criterion_03_closed_form_vs_iterative():
    instances = []

    # Rank-two PSD blocks at N = 30 truncated below their total rank, so the
    # optimum value is a strictly positive eigenvalue tail.
    graph_a = rank_two_block_graph([12, 10, 8], eps=0.2, seed=4)
    proj_a = orthonormal_init(3, 3, 8)
    instances.append(("closed-form init d=3", graph_a, proj_a, 3, "auto"))

    graph_b = rank_two_block_graph([16, 14], eps=0.2, seed=5)
    proj_b = orthonormal_init(2, 2, 9)
    instances.append(("random init d=2", graph_b, proj_b, 2, "random"))

    all_ok = True
    details = []
    for name, graph, proj, d, init in instances:
        lam, _ = sym_eig(graph.adjacency)
        optimum = float((lam[d:] ** 2).sum())
        budget = 1e-6 * float((lam**2).sum())
        started = time.perf_counter()
        best = math.inf
        for attempt in range(5):
            result = theory.solve_joint(
                graph,
                proj,
                0.0,
                theory.SolveOptions(init=init, seed=attempt, max_iters=8000),
            )
            best = min(best, result.loss_trace[-1])
            if best <= optimum + budget:
                break
        elapsed = time.perf_counter() - started
        ok = best <= optimum + budget and elapsed < 10.0
        all_ok = all_ok and ok
        details.append(f"{name}: gap {best - optimum:.2e} <= {budget:.2e}, {elapsed:.1f}s")
    _report(3, "closed-form vs iterative optimum", all_ok, "(" + "; ".join(details) + ")")


# ---------------------------------------------------------------------------
# Criterion 4: singular-tail bounds
# ---------------------------------------------------------------------------


def test_criterion_04_tail_bounds():
    mp = pytest.importorskip("mpmath")
    mp.mp.dps = 50
    ok = True
    details = []
    for delta in (0.0, 0.05, 0.1):
        graph = theory.build_adjacency(
            [8, 6, 5], delta, 0.0, seed=21, normalization="unit-spectral-per-block"
        )
        proj = orthonormal_init(graph.n, 3, 22)
        result = theory.solve_joint(
            graph, proj, 1e-4, theory.SolveOptions(seed=2, max_iters=6000)
        )
        report = theory.verify_lemma(graph, result, tol=1e-8)
        bound2, bound4 = theory.lemma_bounds(delta)
        worst2 = max(entry["tail2"] for entry in report["per_class"])
        worst4 = max(entry["tail4"] for entry in report["per_class"])
        this_ok = worst2 <= bound2 + 1e-8 and worst4 <= bound4 + 1e-8
        if delta == 0.0:
            this_ok = this_ok and worst2 <= 1e-8 and worst4 <= 1e-8
        ok = ok and this_ok and report["pass"]
        details.append(f"delta={delta}: tail2 {worst2:.2e}<= {bound2:.4f}, tail4 {worst4:.2e}<= {bound4:.4f}")

    core = mp.mpf("1.1") ** mp.mpf("1.5") - 1
    bound2_impl, bound4_impl = theory.lemma_bounds(0.1)
    const_ok = (
        abs(bound4_impl - float(2 * core)) <= 1e-12
        and abs(bound2_impl - float(mp.sqrt(6 * core))) <= 1e-12
        and abs(bound4_impl - 0.30740) <= 5e-5  # the quoted display value
    )
    ok = ok and const_ok
    details.append(f"bound4(0.1) = {bound4_impl:.10f} vs mpmath (<=1e-12)")
    _report(4, "singular tail bounds", ok, "(" + "; ".join(details) + ")")


# ---------------------------------------------------------------------------
# Criterion 5: small-mu dominance sweep
# ---------------------------------------------------------------------------


def test_criterion_05_mu_sweep_prefix():
    graph = theory.build_adjacency(
        [6, 5], 0.05, 0.0, seed=31, normalization="unit-spectral-per-block"
    )
    proj = orthonormal_init(graph.n, 2, 32)
    sweep, _ = theory.mu_sweep(
        graph, proj, [1e-6, 1e-4, 1e-2, 1.0, 100.0],
        theory.SolveOptions(seed=3, max_iters=6000),
    )
    rows = sweep["rows"]
    prefix_nonempty = rows[0]["lemma_pass"]
    has_dominance = all(len(row["dominance"]) == 2 for row in rows)
    dominance_summary = ", ".join(
        f"mu={row['mu']:g}: min-dom {min(row['dominance']):.4f}" for row in rows
    )
    _report(
        5,
        "small-mu dominance sweep",
        prefix_nonempty and has_dominance and len(rows) == 5,
        f"(passing prefix nonempty; {dominance_summary})",
    )


# ---------------------------------------------------------------------------
# Criterion 6: metric oracles
# ---------------------------------------------------------------------------


def test_criterion_06_metric_oracles():
    from tests.test_metrics import brute_force_auroc, brute_force_fpr, random_split

    rng = np.random.default_rng(41)
    exact = True
    for _ in range(100):
        split = random_split(rng)
        fpr, tau = metrics.fpr_at_tpr(split, 0.95)
        ofpr, otau = brute_force_fpr(split.id_scores, split.ood_scores, 0.95)
        exact = exact and fpr == ofpr and tau == otau
        exact = exact and metrics.auroc(split) == brute_force_auroc(
            split.id_scores.tolist(), split.ood_scores.tolist()
        )
    hand = metrics.auroc(metrics.ScoreSplit(np.array([0.9, 0.8]), np.array([0.7, 0.85])))
    _report(
        6,
        "metric oracle equivalence",
        exact and hand == 0.75,
        f"(100 random splits exact; hand AUROC {hand} == 0.75)",
    )


# ---------------------------------------------------------------------------
# Criterion 7: score geometry
# ---------------------------------------------------------------------------


def test_criterion_07_score_geometry():
    subspaces = ood.ClassSubspaceSet(
        [np.array([1.0, 0.0]), np.array([0.0, 1.0])], threshold=0.5, quantile_used=0.95
    )
    own, _ = uncertainty_score(np.array([0.0, 3.0]), subspaces)
    single = ood.ClassSubspaceSet([np.array([1.0, 0.0])], 0.5, 0.95)
    orth, _ = uncertainty_score(np.array([0.0, 1.0]), single)
    diag, _ = uncertainty_score(np.array([1.0, 1.0]) / math.sqrt(2), subspaces)
    rng = np.random.default_rng(51)
    scale_ok = True
    for _ in range(100):
        f = rng.standard_normal(2)
        if np.linalg.norm(f) < 1e-6:
            continue
        c = float(rng.uniform(1e-3, 1e3))
        d1, a1 = uncertainty_score(f, subspaces)
        d2, a2 = uncertainty_score(c * f, subspaces)
        scale_ok = scale_ok and abs(d1 - d2) <= 1e-12 and a1 == a2
    _report(
        7,
        "score geometry",
        own == 0.0
        and abs(orth - math.pi / 2) <= 1e-12
        and abs(diag - math.pi / 4) <= 1e-12
        and scale_ok,
        f"(own {own}, orth {orth:.12f}, diag {diag:.12f}, 100 scale draws)",
    )


# ---------------------------------------------------------------------------
# Criteria 8-10: end-to-end experiment
# ---------------------------------------------------------------------------


def test_criterion_08_end_to_end(e2e):
    report = e2e["report"]
    clean = next(r for r in report["rows"] if r["corruption"] == "none")
    ok = (
        report["id_accuracy"] >= 0.95
        and clean["auroc"] >= 0.95
        and clean["fpr95"] <= 0.20
        and e2e["elapsed"] < 120.0
    )
    _report(
        8,
        "end-to-end desk-scale experiment",
        ok,
        f"(accuracy {report['id_accuracy']:.4f} >= 0.95, auroc {clean['auroc']:.4f} >= 0.95, "
        f"fpr95 {clean['fpr95']:.4f} <= 0.20, {e2e['elapsed']:.1f}s < 120s)",
    )


def test_criterion_09_monte_carlo_inference(e2e):
    out = e2e["out"]
    model = encoder.load_model(out / "model.ckpt")
    subspaces = ood.subspaces_from_dict(
        json.loads((out / "subspaces.json").read_text())
    )
    feats, _ = read_features(out / "ood.feat")
    granular = True
    identical = True
    for i in range(5):
        a = ood.mc_detect(model, subspaces, feats[i], noise_sigma=0.01, seed=100 + i, sample_id=i)
        b = ood.mc_detect(model, subspaces, feats[i], noise_sigma=0.01, seed=100 + i, sample_id=i)
        identical = identical and a == b
        granular = granular and abs(a.mc_probability * 50 - round(a.mc_probability * 50)) == 0
        granular = granular and 0.0 <= a.mc_probability <= 1.0
    _report(
        9,
        "monte-carlo inference",
        granular and identical,
        "(K = 50 default, probabilities on the 1/50 grid, reruns bit-identical)",
    )


def test_criterion_10_corruption_direction(e2e):
    rows = e2e["report"]["rows"]
    clean = next(r for r in rows if r["corruption"] == "none")
    sev5 = next(
        r for r in rows if r["corruption"] == "gaussian_noise" and r["severity"] == 5
    )
    ok = sev5["auroc"] >= clean["auroc"] - 0.02
    _report(
        10,
        "corrupted-OOD direction",
        ok,
        f"(severity-5 auroc {sev5['auroc']:.4f} >= clean {clean['auroc']:.4f} - 0.02; "
        "row emitted in eval report)",
    )


# ---------------------------------------------------------------------------
# Criterion 11: format round-trips
# ---------------------------------------------------------------------------


def test_criterion_11_format_round_trips(tmp_path):
    rng = np.random.default_rng(61)

    feats = rng.standard_normal((10, 4))
    labels = rng.integers(0, 5, size=10)
    fpath = tmp_path / "x.feat"
    write_features(fpath, feats, labels)
    back, lab = read_features(fpath)
    feat_ok = np.array_equal(back, feats.astype(np.float32).astype(np.float64))
    feat_ok = feat_ok and np.array_equal(lab, labels)

    model = encoder.build_model(5, 3, hidden_sizes=(7,), feature_dim=4, seed=6)
    mpath = tmp_path / "m.ckpt"
    encoder.save_model(mpath, model)
    loaded = encoder.load_model(mpath)
    mpath2 = tmp_path / "m2.ckpt"
    encoder.save_model(mpath2, loaded)
    model_ok = mpath.read_bytes() == mpath2.read_bytes()

    cpath = tmp_path / "c.bin"
    cpath.write_bytes(bytes([7]) + bytes(3072) + bytes([3]) + bytes([255] * 3072))
    ds = read_cifar_binary(cpath)
    cifar_ok = (
        ds.n == 2
        and ds.labels[0] == 7
        and ds.labels[1] == 3
        and ds.inputs[0].max() == 0.0
        and ds.inputs[1].min() == 1.0
    )
    _report(
        11,
        "format round-trips",
        feat_ok and model_ok and cifar_ok,
        "(RODDFEAT1 f32-exact, RODDMODL1 byte-exact, CIFAR fixture parsed)",
    )
