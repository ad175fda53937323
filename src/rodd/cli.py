"""Command-line pipeline: synth | pretrain | train | fit | score | eval |
corrupt | verify-theory.

Every stage reads its inputs from and writes its artifacts into the --out
directory, so stages can be rerun or swapped individually (externally
produced RODDFEAT1 features can be scored without the encoder).  Each
invocation appends an entry to run.json recording the config hash, the seed
the stage ran with, and the paths it wrote, in write order.  Exit codes:
0 success, 1 contract/format errors and unusable paths (OSError), 2 numeric
failures.
"""

from __future__ import annotations

import argparse
import hashlib
import sys
from dataclasses import asdict
from datetime import datetime, timezone
from pathlib import Path

import numpy as np

from . import contrastive, corruptions, encoder, metrics, ood, theory
from .data import Dataset, RunConfig, parse_config_file, read_features, read_json, write_csv
from .data import write_features, write_json
from .errors import ContractViolation, FormatError, NumericFailure
from .linalg import orthonormal_init
from .streams import check_seed


def main(argv=None) -> None:
    sys.exit(run(argv))


def run(argv=None) -> int:
    parser = argparse.ArgumentParser(
        prog="rodd",
        description="OOD detection pipeline with orthonormal class embeddings",
    )
    parser.add_argument("command", choices=_HANDLERS, help="pipeline stage to run")
    parser.add_argument("--config", required=True, help="run configuration file")
    parser.add_argument("--out", required=True, help="output directory")
    parser.add_argument("--seed", type=_seed_arg, default=None, help="seed override")
    try:
        args = parser.parse_args(argv)
    except SystemExit as exc:
        return 0 if exc.code in (0, None) else 1
    try:
        config = parse_config_file(args.config)
        out = Path(args.out)
        out.mkdir(parents=True, exist_ok=True)
        runs = _read_manifest(out / "run.json")
        handler, section = _HANDLERS[args.command]
        seed = None if section is None else _derived(args.seed, config.get(f"{section}.seed"))
        written = []
        # Every overflow ends at a finiteness check that raises, so numpy's
        # warnings would only print noise before the error line.
        with np.errstate(all="ignore"):
            for name, payload in handler(config, out, seed):
                _write(out / name, payload)
                written.append(str(out / name))
        _append_manifest(args, seed, out, runs, written)
        return 0
    except (ContractViolation, FormatError, OSError) as exc:
        print(f"error: {exc}", file=sys.stderr)
        return 1
    except NumericFailure as exc:
        print(f"numeric failure: {exc}", file=sys.stderr)
        return 2


def _seed_arg(text: str) -> int:
    try:
        return check_seed(int(text, 10))
    except ValueError:
        raise argparse.ArgumentTypeError(f"expected an integer, got {text!r}") from None
    except ContractViolation as exc:
        raise argparse.ArgumentTypeError(str(exc)) from None


def _derived(value, fallback):
    """value, else fallback when it is None (0 is a valid setting): a key
    whose default depends on other values, or --seed over a config seed."""
    return fallback if value is None else value


def _read_dataset(path: Path) -> Dataset:
    feats, labels = read_features(path)
    class_count = int(labels.max()) + 1 if labels is not None and labels.size else 0
    return Dataset(feats, labels, class_count)


def _read_manifest(path: Path) -> list:
    """The runs already recorded in run.json; [] when there is no manifest."""
    if not path.exists():
        return []
    payload = read_json(path)
    if not isinstance(payload, dict) or not isinstance(payload.get("runs"), list):
        raise FormatError(f"{path} must be an object with a 'runs' list")
    return payload["runs"]


def _append_manifest(args, seed, out: Path, runs: list, artifacts: list) -> None:
    digest = hashlib.sha256(Path(args.config).read_bytes()).hexdigest()
    runs.append(
        {
            "command": args.command,
            "config_path": str(args.config),
            "config_sha256": digest,
            "seed": seed,
            "out": str(out),
            "artifacts": artifacts,
            "timestamp": datetime.now(timezone.utc).isoformat(),
        }
    )
    write_json(out / "run.json", {"runs": runs})


# ---------------------------------------------------------------------------
# Stage handlers: each yields (file name, payload) in write order, and run
# writes every payload into --out in the format _write picks for its type.
# ---------------------------------------------------------------------------


def _write(path: Path, payload) -> None:
    if isinstance(payload, Dataset):
        write_features(path, payload.inputs, payload.labels)
    elif isinstance(payload, encoder.EncoderModel):
        encoder.save_model(path, payload)
    elif isinstance(payload, dict):
        write_json(path, payload)
    elif isinstance(payload, ood.ScoreTable):
        ood.write_scores(path, payload)
    else:  # report rows: one dict per CSV line, the first one's keys the header
        write_csv(path, payload[0], (tuple(row.values()) for row in payload))


def _cmd_synth(config: RunConfig, out: Path, seed: int):
    from .data import synth_gaussian_mixture, synth_ood_cluster

    synth = config.section("synth")
    n_classes, per_class, noise_sigma = synth["classes"], synth["per_class"], synth["noise_sigma"]
    test_per_class = _derived(synth["test_per_class"], max(1, per_class // 5))
    input_dim = synth["input_dim"]
    full = synth_gaussian_mixture(
        n_classes, per_class + test_per_class, input_dim, synth["separation"], noise_sigma, seed
    )
    train_idx, test_idx = [], []
    block = per_class + test_per_class
    for cls in range(n_classes):
        start = cls * block
        train_idx.extend(range(start, start + per_class))
        test_idx.extend(range(start + per_class, start + block))
    ood_set = synth_ood_cluster(
        input_dim,
        synth["ood_n"],
        _derived(synth["ood_direction_seed"], seed + 1),
        synth["ood_offset_norm"],
        _derived(synth["ood_noise_sigma"], noise_sigma),
        seed + 2,
    )
    id_train = full.inputs[train_idx]
    id_test = full.inputs[test_idx]
    ood_inputs = ood_set.inputs
    if synth["scale_to_unit"]:
        # Global affine map fitted on ID training data (robust percentile
        # range); keeps the geometry intact while making corruption kinds
        # (which expect [0, 1] inputs) applicable.  Values outside the
        # percentile range, including OOD ones, are clipped into [0, 1].
        lo, hi = np.percentile(id_train, [0.5, 99.5])
        span = max(float(hi - lo), 1e-12)
        scale = lambda x: np.clip((x - lo) / span, 0.0, 1.0)  # noqa: E731
        id_train, id_test, ood_inputs = scale(id_train), scale(id_test), scale(ood_inputs)
    yield "id_train.feat", Dataset(id_train, full.labels[train_idx], n_classes)
    yield "id_test.feat", Dataset(id_test, full.labels[test_idx], n_classes)
    yield "ood.feat", Dataset(ood_inputs, None, 0)


def _cmd_pretrain(config: RunConfig, out: Path, seed: int):
    pre = config.section("pretrain")
    adv = contrastive.AdversarialSpec(pre["adv_epsilon"], pre["adv_steps"], pre["adv_step_size"])
    dataset = _read_dataset(out / "id_train.feat")
    model = encoder.build_model(dataset.input_dim, dataset.class_count, **config.section("model"))
    cfg = contrastive.PretrainConfig(
        pre["epochs"], pre["batch_size"], pre["lr"], pre["momentum"],
        aug_gaussian_sigma=pre["aug_gaussian_sigma"], adv=adv, seed=seed,
    )
    model, history = contrastive.pretrain(model, dataset, cfg)
    yield "pretrain.ckpt", model
    yield "pretrain_history.json", {"history": history}


def _cmd_train(config: RunConfig, out: Path, seed: int):
    dataset = _read_dataset(out / "id_train.feat")
    pretrained = out / "pretrain.ckpt"
    if pretrained.exists():
        model = encoder.load_model(pretrained)
    else:
        model = encoder.build_model(
            dataset.input_dim, dataset.class_count, **config.section("model")
        )
    cfg = encoder.TrainConfig(**{**config.section("train"), "seed": seed})
    model, history = encoder.train(model, dataset, cfg)
    accuracy = None  # one clean pass over the training rows, after the last epoch
    if history:
        accuracy = metrics.accuracy(encoder.forward(model, dataset.inputs).logits, dataset.labels)
    yield "model.ckpt", model
    yield "train_history.json", {"history": history, "accuracy": accuracy}


def _cmd_fit(config: RunConfig, out: Path, seed: None):
    dataset = _read_dataset(out / "id_train.feat")
    if dataset.labels is None:
        raise ContractViolation("fit requires a labeled id_train.feat")
    model = encoder.load_model(out / "model.ckpt")
    feats = encoder.features(model, dataset.inputs)
    subspaces = ood.fit_subspaces(feats, dataset.labels, quantile=config.get("ood.quantile"))
    yield "id_train_features.feat", Dataset(feats, dataset.labels, dataset.class_count)
    yield "subspaces.json", ood.subspaces_to_dict(subspaces)


def _load_scoring_state(out: Path):
    model = encoder.load_model(out / "model.ckpt")
    path = out / "subspaces.json"
    subspaces = ood.subspaces_from_dict(read_json(path))
    dim = subspaces.direction_matrix().shape[0]
    if dim != model.feature_dim:
        raise FormatError(
            f"{path}: directions have length {dim}, "
            f"but the model's feature_dim is {model.feature_dim}"
        )
    return model, subspaces


def _resolve_target(out: Path, name: str) -> Path:
    candidate = out / name
    return candidate if candidate.exists() else Path(name)


def _cmd_score(config: RunConfig, out: Path, seed: int):
    model, subspaces = _load_scoring_state(out)
    spec = config.section("ood")
    target = _resolve_target(out, spec["target"])
    dataset = _read_dataset(target)
    if spec["mode"] == "single":
        angles = ood.uncertainty_scores(encoder.features(model, dataset.inputs), subspaces)
        table = ood.angle_table(*angles, subspaces.threshold)
    else:
        table = ood.mc_score_records(
            model, subspaces, dataset.inputs, k_draws=spec["mc_draws"],
            noise_sigma=spec["mc_noise_sigma"], seed=seed,
        )
    yield f"{target.stem}_scores.csv", table


def _cmd_corrupt(config: RunConfig, out: Path, seed: int):
    """One feature file per severity of the set corruption.apply_to names,
    the set eval sweeps, each yielded, and so written, before the next is
    drawn."""
    target = out / ("ood.feat" if config.get("corruption.apply_to") == "ood" else "id_test.feat")
    dataset = _read_dataset(target)
    kind = _derived(config.get("corruption.kind"), "gaussian_noise")
    severities = config.get("corruption.severities")
    for severity, corrupted in corruptions.severity_sweep(dataset, kind, severities, seed):
        yield f"{target.stem}_{kind}_s{severity}.feat", corrupted


def _cmd_eval(config: RunConfig, out: Path, seed: int):
    """Score ID test and OOD sets (clean plus configured corruption sweep).

    Writes one eval.json / eval.csv row per evaluated (ood_set, corruption,
    severity) pair, plus the clean ID accuracy.  The clean sets are encoded
    and scored once each; their report row, score tables and the accuracy
    all come from those scores.  The sweep's seed is --seed when given,
    else corruption.seed, as for the corrupt stage.
    """
    model, subspaces = _load_scoring_state(out)
    id_test = _read_dataset(out / "id_test.feat")
    ood_set = _read_dataset(out / "ood.feat")
    method = config.get("eval.method")

    def oriented_scores(inputs):
        """Scores of raw inputs, higher meaning more in-distribution, with the
        features and, under rodd, the (deltas, argmin classes) they come from."""
        feats = encoder.features(model, inputs)
        if method == "msp":
            return encoder.softmax(encoder.head_logits(model, feats)).max(axis=1), feats, None
        deltas, argmins = ood.uncertainty_scores(feats, subspaces)
        return -deltas, feats, (deltas, argmins)

    id_scores, id_feats, id_angles = oriented_scores(id_test.inputs)
    ood_scores, _, ood_angles = oriented_scores(ood_set.inputs)
    id_accuracy = None
    if id_test.labels is not None:
        id_accuracy = metrics.accuracy(encoder.head_logits(model, id_feats), id_test.labels)
    rows = []

    def add_row(corruption, severity, id_side, ood_side):
        split = metrics.ScoreSplit(id_side, ood_side)
        report = metrics.evaluate_split(split, config.get("eval.tpr_target"))
        rows.append({"ood_set": "ood", "corruption": corruption, "severity": severity,
                     **asdict(report)})

    add_row("none", 0, id_scores, ood_scores)
    kind = config.get("corruption.kind")
    if kind is not None:
        on_ood = config.get("corruption.apply_to") == "ood"
        sweep = corruptions.severity_sweep(
            ood_set if on_ood else id_test, kind, config.get("corruption.severities"), seed
        )
        for severity, corrupted in sweep:
            cur_scores = oriented_scores(corrupted.inputs)[0]
            if on_ood:
                add_row(kind, severity, id_scores, cur_scores)
            else:
                add_row(kind, severity, cur_scores, ood_scores)
    yield "eval.json", {"method": method, "id_accuracy": id_accuracy, "rows": rows}
    yield "eval.csv", rows
    if method == "rodd":
        for name, angles in (("id_test", id_angles), ("ood", ood_angles)):
            yield f"{name}_scores.csv", ood.angle_table(*angles, subspaces.threshold)


def _cmd_verify_theory(config: RunConfig, out: Path, seed: int):
    spec = config.section("theory")
    sizes = spec["class_sizes"]
    graph = theory.build_adjacency(sizes, spec["delta"], spec["eta"], seed, spec["normalization"])
    proj = orthonormal_init(_derived(spec["d"], graph.n), len(sizes), seed + 1)
    opts = theory.SolveOptions(max_iters=spec["max_iters"], tol=spec["tol"], seed=seed)
    mu = spec["mu"]
    sweep, reports = theory.mu_sweep(graph, proj, sorted(spec["mu_values"]), opts)
    if mu not in reports:  # a listed mu's lemma is the sweep's own solve
        reports[mu] = theory.verify_lemma(graph, theory.solve_joint(graph, proj, mu, opts))
    yield "theory_report.json", {"mu": mu, "lemma": reports[mu], "sweep": sweep}


# Each stage's handler and the config section of the seed it runs with; fit
# draws nothing, so it takes no seed and records null.
_HANDLERS = {
    "synth": (_cmd_synth, "synth"),
    "pretrain": (_cmd_pretrain, "pretrain"),
    "train": (_cmd_train, "train"),
    "fit": (_cmd_fit, None),
    "score": (_cmd_score, "ood"),
    "eval": (_cmd_eval, "corruption"),
    "corrupt": (_cmd_corrupt, "corruption"),
    "verify-theory": (_cmd_verify_theory, "theory"),
}


if __name__ == "__main__":
    main()
