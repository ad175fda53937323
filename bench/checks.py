"""Output checks that use numpy and the documented file formats only.

Nothing here imports rodd: every check re-derives its expected value from
the artifacts a CLI stage wrote (feature files, the model checkpoint, score
tables and reports) so a defect in the program cannot also hide in its own
check.  Each check returns a list of failure messages; an empty list passes.
"""

from __future__ import annotations

import hashlib
import json
import math
import struct
from pathlib import Path

import numpy as np

FEATURE_MAGIC = b"RODDFEAT1"
MODEL_MAGIC = b"RODDMODL1"

# Scores within this distance of the fitted threshold may legitimately land
# on either side when a forward pass is recomputed with another batch shape.
THRESHOLD_TIE = 1e-9
# Feature norms below this are the program's degenerate case (its floor is
# 1e-12); a working encoder stays many orders of magnitude above it.
MIN_FEATURE_NORM = 1e-6


def read_feat(path) -> tuple[np.ndarray, np.ndarray | None]:
    """Parse a RODDFEAT1 file: magic, u32 n, u32 d, u32 has_labels, f32 rows, u32 labels."""
    data = Path(path).read_bytes()
    head = len(FEATURE_MAGIC) + 12
    if data[: len(FEATURE_MAGIC)] != FEATURE_MAGIC:
        raise ValueError(f"{path}: not a RODDFEAT1 file")
    n, d, has_labels = struct.unpack("<III", data[len(FEATURE_MAGIC) : head])
    x = np.frombuffer(data, "<f4", n * d, head).astype(np.float64).reshape(n, d)
    labels = None
    if has_labels:
        labels = np.frombuffer(data, "<u4", n, head + 4 * n * d).astype(np.int64)
    return x, labels


def write_feat(path, x, labels=None) -> None:
    x = np.asarray(x, dtype=np.float64)
    blob = FEATURE_MAGIC + struct.pack("<III", *x.shape, int(labels is not None))
    blob += x.astype("<f4").tobytes()
    if labels is not None:
        blob += np.asarray(labels).astype("<u4").tobytes()
    Path(path).write_bytes(blob)


def read_body(path) -> list[tuple[np.ndarray, np.ndarray | None]]:
    """The MLP body layers (weight, bias) of a RODDMODL1 checkpoint."""
    data = Path(path).read_bytes()
    if data[: len(MODEL_MAGIC)] != MODEL_MAGIC:
        raise ValueError(f"{path}: not a RODDMODL1 file")
    pos = len(MODEL_MAGIC)

    def u32():
        nonlocal pos
        pos += 4
        return struct.unpack_from("<I", data, pos - 4)[0]

    def f64s(count):
        nonlocal pos
        pos += 8 * count
        return np.frombuffer(data, "<f8", count, pos - 8 * count).astype(np.float64)

    layers = []
    for _ in range(u32()):
        rows, cols = u32(), u32()
        weight = f64s(rows * cols).reshape(rows, cols)
        bias = f64s(cols) if u32() else None
        layers.append((weight, bias))
    return layers


def body_features(layers, x) -> np.ndarray:
    h = x
    for i, (weight, bias) in enumerate(layers):
        h = h @ weight
        if bias is not None:
            h = h + bias
        if i < len(layers) - 1:
            h = np.maximum(h, 0.0)
    return h


def min_angles(feats, directions) -> np.ndarray:
    """Smallest angle between each feature row and any direction row."""
    norms = np.linalg.norm(feats, axis=1)
    cos = (feats / norms[:, None]) @ np.asarray(directions).T
    return np.arccos(np.clip(cos, -1.0, 1.0)).min(axis=1)


def read_scores(path) -> dict[str, list[str]]:
    lines = Path(path).read_text(encoding="utf-8").splitlines()
    header = lines[0].split(",")
    rows = [line.split(",") for line in lines[1:]]
    return {name: [row[i] for row in rows] for i, name in enumerate(header)}


def file_digests(out: Path, names) -> dict[str, str]:
    return {name: hashlib.sha256((out / name).read_bytes()).hexdigest() for name in names}


def _close(a: float, b: float, tol: float) -> bool:
    return abs(a - b) <= tol * max(1.0, abs(a), abs(b))


def brute_auroc_fpr(id_scores, ood_scores, tpr_target: float):
    """AUROC by counting every (ID, OOD) pair and FPR at the TPR target.

    Higher scores mean "more ID".  The operating threshold is the largest ID
    score that keeps at least tpr_target of the ID scores at or above it.
    """
    id_scores = np.asarray(id_scores)
    ood_scores = np.asarray(ood_scores)
    wins = ties = 0
    for start in range(0, id_scores.size, 256):
        block = id_scores[start : start + 256, None]
        wins += int((block > ood_scores[None, :]).sum())
        ties += int((block == ood_scores[None, :]).sum())
    auroc = (wins + 0.5 * ties) / (id_scores.size * ood_scores.size)
    tau = max(
        t for t in np.unique(id_scores)
        if (id_scores >= t).sum() >= tpr_target * id_scores.size - 1e-9
    )
    fpr = float((ood_scores >= tau).sum() / ood_scores.size)
    return auroc, fpr, float(tau)


def check_eval(out: Path, tpr_target: float, floor: dict) -> list[str]:
    """The clean eval row against a brute-force recount from the score CSVs."""
    report = json.loads((out / "eval.json").read_text(encoding="utf-8"))
    clean = [r for r in report["rows"] if r["corruption"] == "none"]
    if len(clean) != 1:
        return [f"eval.json has {len(clean)} clean rows, expected 1"]
    row = clean[0]
    id_delta = np.array([float(v) for v in read_scores(out / "id_test_scores.csv")["delta"]])
    ood_delta = np.array([float(v) for v in read_scores(out / "ood_scores.csv")["delta"]])
    auroc, fpr, tau = brute_auroc_fpr(-id_delta, -ood_delta, tpr_target)
    errors = []
    if (row["n_id"], row["n_ood"]) != (id_delta.size, ood_delta.size):
        errors.append(f"eval counts {row['n_id']}/{row['n_ood']} != score rows")
    if not _close(row["auroc"], auroc, 1e-12):
        errors.append(f"auroc {row['auroc']} != pair count {auroc}")
    if not _close(row["fpr95"], fpr, 1e-12):
        errors.append(f"fpr95 {row['fpr95']} != recount {fpr}")
    if row["threshold_used"] != tau:
        errors.append(f"threshold_used {row['threshold_used']} != {tau}")
    n_rows = len(report["rows"])
    csv_rows = len((out / "eval.csv").read_text(encoding="utf-8").splitlines()) - 1
    if csv_rows != n_rows:
        errors.append(f"eval.csv has {csv_rows} rows, eval.json {n_rows}")
    if report["id_accuracy"] < floor["accuracy"]:
        errors.append(f"accuracy {report['id_accuracy']} < {floor['accuracy']}")
    if row["auroc"] < floor["auroc"]:
        errors.append(f"auroc {row['auroc']} < {floor['auroc']}")
    if row["fpr95"] > floor["fpr95"]:
        errors.append(f"fpr95 {row['fpr95']} > {floor['fpr95']}")
    return errors


def check_fit(out: Path, quantile: float) -> list[str]:
    """Directions are top right singular vectors; the threshold is the quantile."""
    feats, labels = read_feat(out / "id_train_features.feat")
    payload = json.loads((out / "subspaces.json").read_text(encoding="utf-8"))
    directions = np.array(payload["directions"], dtype=np.float64)
    errors = []
    if directions.shape != (int(labels.max()) + 1, feats.shape[1]):
        return [f"directions shape {directions.shape} does not match the features"]
    for cls, u in enumerate(directions):
        top = np.linalg.svd(feats[labels == cls], full_matrices=False)[2][0]
        cos = abs(float(top @ u)) / float(np.linalg.norm(u))
        if not cos >= 1.0 - 1e-6:
            errors.append(f"class {cls} direction |cos| {cos} to the top singular vector")
    scores = min_angles(feats, directions)
    expect = float(np.quantile(scores, quantile, method="inverted_cdf"))
    if not abs(payload["threshold"] - expect) <= 1e-6:
        errors.append(f"threshold {payload['threshold']} != quantile {expect}")
    return errors


def check_mc(out: Path, target: str, k_draws: int, sigma: float, seed: int) -> list[str]:
    """MC rows are whole vote fractions, match their decision, and recount exactly.

    Each draw is the sample plus sigma times the first standard-normal block
    of default_rng(seed XOR sample_id), the documented draw order of the
    augmentation; the vote recount encodes every draw with the checkpoint's
    body and compares it with the subspaces' threshold.
    """
    stem = Path(target).stem
    table = read_scores(out / f"{stem}_scores.csv")
    raw, _ = read_feat(out / target)
    payload = json.loads((out / "subspaces.json").read_text(encoding="utf-8"))
    directions = np.array(payload["directions"], dtype=np.float64)
    threshold = payload["threshold"]
    layers = read_body(out / "model.ckpt")
    probs = np.array([float(p) for p in table["mc_probability"]])
    errors = []
    if len(probs) != raw.shape[0]:
        return [f"{len(probs)} MC rows for {raw.shape[0]} samples"]
    votes = np.round(probs * k_draws)
    if not np.allclose(probs * k_draws, votes, rtol=0, atol=1e-9):
        errors.append(f"mc_probability is not a multiple of 1/{k_draws}")
    decisions = np.array(table["decision"])
    if not np.array_equal(decisions == "ID", probs >= 0.5):
        errors.append("decision disagrees with mc_probability >= 0.5")
    if [int(s) for s in table["sample_id"]] != list(range(raw.shape[0])):
        errors.append("sample ids are not 0..n-1")
    chunk = 100
    for start in range(0, raw.shape[0], chunk):
        ids = range(start, min(start + chunk, raw.shape[0]))
        draws = np.vstack([
            raw[i] + sigma * np.random.default_rng(seed ^ i).standard_normal((k_draws, raw.shape[1]))
            for i in ids
        ])
        feats = body_features(layers, draws)
        low = float(np.linalg.norm(feats, axis=1).min())
        if low < MIN_FEATURE_NORM:
            errors.append(f"degenerate MC draw near sample {start}: feature norm {low}")
            break
        angles = min_angles(feats, directions).reshape(len(ids), k_draws)
        sure = np.abs(angles - threshold) > THRESHOLD_TIE
        hits = (angles <= threshold).sum(axis=1)
        for j, i in enumerate(ids):
            if sure[j].all() and hits[j] != votes[i]:
                errors.append(f"sample {i}: {int(votes[i])} votes reported, {int(hits[j])} recounted")
                break
    return errors


def lemma_bounds(delta: float) -> tuple[float, float]:
    core = (1.0 + delta) ** 1.5 - 1.0
    return math.sqrt(6.0 * core), 2.0 * core


def check_theory(path: Path, delta: float, mu_values, n_classes: int) -> list[str]:
    """Tail sums and bounds recomputed from the reported sigma and delta."""
    report = json.loads(Path(path).read_text(encoding="utf-8"))
    lemma, sweep = report["lemma"], report["sweep"]
    bound2, bound4 = lemma_bounds(delta)
    errors = []
    if lemma["delta"] != delta or sweep["delta"] != delta:
        errors.append(f"report delta {lemma['delta']} != configured {delta}")
    bounds = lemma["bounds"]
    for name, expect in (
        ("bound2", bound2), ("bound4", bound4), ("bound2_from_bound4", math.sqrt(3 * bound4))
    ):
        if not _close(bounds[name], expect, 1e-12):
            errors.append(f"{name} {bounds[name]} != {expect}")
    if len(lemma["per_class"]) != n_classes:
        errors.append(f"{len(lemma['per_class'])} classes reported, {n_classes} expected")
    for cls, entry in enumerate(lemma["per_class"]):
        sigma = np.array(entry["sigma"])
        if (sigma < 0).any() or (np.diff(sigma) > 0).any():
            errors.append(f"class {cls} sigma is not nonincreasing and nonnegative")
        tail2, tail4 = float((sigma[1:] ** 2).sum()), float((sigma[1:] ** 4).sum())
        if not (_close(entry["tail2"], tail2, 1e-9) and _close(entry["tail4"], tail4, 1e-9)):
            errors.append(f"class {cls} tails {entry['tail2']}, {entry['tail4']} != {tail2}, {tail4}")
        if not (tail2 <= bound2 + 1e-8 and tail4 <= bound4 + 1e-8):
            errors.append(f"class {cls} tails exceed the bounds")
    if lemma["pass"] is not True:
        errors.append("lemma pass flag is not true")
    rows = sweep["rows"]
    if [r["mu"] for r in rows] != sorted(float(m) for m in mu_values):
        errors.append(f"sweep mu values {[r['mu'] for r in rows]}")
    for r in rows:
        if r["lemma_pass"] is not True:
            errors.append(f"sweep mu={r['mu']} lemma_pass is not true")
        if not r["max_tail4"] <= bound4 + 1e-8:
            errors.append(f"sweep mu={r['mu']} max_tail4 {r['max_tail4']} > {bound4}")
        if len(r["dominance"]) != n_classes or not all(0 < x <= 1 for x in r["dominance"]):
            errors.append(f"sweep mu={r['mu']} dominance {r['dominance']}")
    if sweep["mu_min_estimate"] != max(float(m) for m in mu_values):
        errors.append(f"mu_min_estimate {sweep['mu_min_estimate']} with every row passing")
    return errors
