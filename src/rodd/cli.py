"""Command-line pipeline: synth | pretrain | train | fit | score | eval |
corrupt | verify-theory.

Every stage reads its inputs from and writes its artifacts into the --out
directory, so stages can be rerun or swapped individually (externally
produced RODDFEAT1 features can be scored without the encoder).  Each
invocation appends an entry to run.json recording the config hash, the seed,
and the artifact paths.  Exit codes: 0 success, 1 contract/format errors and
unusable paths (OSError), 2 numeric failures.
"""

from __future__ import annotations

import argparse
import hashlib
import json
import sys
from dataclasses import asdict
from datetime import datetime, timezone
from pathlib import Path

import numpy as np

from . import contrastive, corruptions, encoder, metrics, ood, theory
from .data import Dataset, RunConfig, parse_config_file, read_features, write_features
from .errors import ContractViolation, FormatError, NumericFailure
from .linalg import orthonormal_init
from .streams import check_seed


def main(argv=None) -> None:
    sys.exit(run(argv))


def run(argv=None) -> int:
    parser = _build_parser()
    try:
        args = parser.parse_args(argv)
    except SystemExit as exc:
        return 0 if exc.code in (0, None) else 1
    try:
        config = parse_config_file(args.config)
        out = Path(args.out)
        out.mkdir(parents=True, exist_ok=True)
        runs = _read_manifest(out / "run.json")
        handler = _HANDLERS[args.command]
        artifacts = handler(config, out, args.seed)
        _append_manifest(args, out, runs, artifacts)
        return 0
    except (ContractViolation, FormatError, OSError) as exc:
        print(f"error: {exc}", file=sys.stderr)
        return 1
    except NumericFailure as exc:
        print(f"numeric failure: {exc}", file=sys.stderr)
        return 2


def _build_parser() -> argparse.ArgumentParser:
    parser = argparse.ArgumentParser(
        prog="rodd",
        description="OOD detection pipeline with orthonormal class embeddings",
    )
    sub = parser.add_subparsers(dest="command", required=True)
    for name in _HANDLERS:
        cmd = sub.add_parser(name)
        cmd.add_argument("--config", required=True, help="run configuration file")
        cmd.add_argument("--out", required=True, help="output directory")
        cmd.add_argument("--seed", type=_seed_arg, default=None, help="seed override")
    return parser


def _seed_arg(text: str) -> int:
    try:
        return check_seed(int(text, 10))
    except ValueError:
        raise argparse.ArgumentTypeError(f"expected an integer, got {text!r}") from None
    except ContractViolation as exc:
        raise argparse.ArgumentTypeError(str(exc)) from None


def _stage_seed(config: RunConfig, section: str, override) -> int:
    return config.get(f"{section}.seed") if override is None else override


def _derived(value, fallback):
    """A key whose default depends on other values: its configured value,
    else fallback (0 is a valid setting, so this tests for None)."""
    return fallback if value is None else value


def _need(path: Path) -> Path:
    if not path.exists():
        raise FormatError(f"missing artifact: {path}")
    return path


def _read_dataset(path: Path) -> Dataset:
    feats, labels = read_features(_need(path))
    class_count = int(labels.max()) + 1 if labels is not None and labels.size else 0
    return Dataset(feats, labels, class_count)


def _json_dump(path: Path, payload) -> None:
    path.write_text(json.dumps(payload, indent=2) + "\n", encoding="utf-8")


def _read_manifest(path: Path) -> list:
    """The runs already recorded in run.json; [] when there is no manifest."""
    if not path.exists():
        return []
    try:
        payload = json.loads(path.read_text(encoding="utf-8"))
    except ValueError as exc:
        raise FormatError(f"{path} is not valid JSON: {exc}") from exc
    if not isinstance(payload, dict) or not isinstance(payload.get("runs"), list):
        raise FormatError(f"{path} must be an object with a 'runs' list")
    return payload["runs"]


def _append_manifest(args, out: Path, runs: list, artifacts: dict) -> None:
    digest = hashlib.sha256(Path(args.config).read_bytes()).hexdigest()
    runs.append(
        {
            "command": args.command,
            "config_path": str(args.config),
            "config_sha256": digest,
            "seed": args.seed,
            "out": str(out),
            "artifacts": {k: str(v) for k, v in sorted(artifacts.items())},
            "timestamp": datetime.now(timezone.utc).isoformat(),
        }
    )
    _json_dump(out / "run.json", {"runs": runs})


# ---------------------------------------------------------------------------
# Stage handlers
# ---------------------------------------------------------------------------


def _cmd_synth(config: RunConfig, out: Path, seed_override) -> dict:
    from .data import synth_gaussian_mixture, synth_ood_cluster

    seed = _stage_seed(config, "synth", seed_override)
    n_classes = config.get("synth.classes")
    per_class = config.get("synth.per_class")
    test_per_class = _derived(config.get("synth.test_per_class"), max(1, per_class // 5))
    input_dim = config.get("synth.input_dim")
    separation = config.get("synth.separation")
    noise_sigma = config.get("synth.noise_sigma")
    full = synth_gaussian_mixture(
        n_classes, per_class + test_per_class, input_dim, separation, noise_sigma, seed
    )
    train_idx, test_idx = [], []
    block = per_class + test_per_class
    for cls in range(n_classes):
        start = cls * block
        train_idx.extend(range(start, start + per_class))
        test_idx.extend(range(start + per_class, start + block))
    ood_set = synth_ood_cluster(
        input_dim,
        config.get("synth.ood_n"),
        _derived(config.get("synth.ood_direction_seed"), seed + 1),
        config.get("synth.ood_offset_norm"),
        _derived(config.get("synth.ood_noise_sigma"), noise_sigma),
        seed + 2,
    )
    id_train = full.inputs[train_idx]
    id_test = full.inputs[test_idx]
    ood_inputs = ood_set.inputs
    if config.get("synth.scale_to_unit"):
        # Global affine map fitted on ID training data (robust percentile
        # range); keeps the geometry intact while making corruption kinds
        # (which expect [0, 1] inputs) applicable.  Values outside the
        # percentile range, including OOD ones, are clipped into [0, 1].
        lo, hi = np.percentile(id_train, [0.5, 99.5])
        span = max(float(hi - lo), 1e-12)
        scale = lambda x: np.clip((x - lo) / span, 0.0, 1.0)  # noqa: E731
        id_train, id_test, ood_inputs = scale(id_train), scale(id_test), scale(ood_inputs)
    labels_train = full.labels[train_idx]
    labels_test = full.labels[test_idx]
    artifacts = {
        "id_train": out / "id_train.feat",
        "id_test": out / "id_test.feat",
        "ood": out / "ood.feat",
    }
    write_features(artifacts["id_train"], id_train, labels_train)
    write_features(artifacts["id_test"], id_test, labels_test)
    write_features(artifacts["ood"], ood_inputs, None)
    return artifacts


def _build_model_from_config(config: RunConfig, input_dim: int, n_classes: int):
    return encoder.build_model(
        input_dim,
        n_classes,
        hidden_sizes=config.get("model.hidden_sizes"),
        feature_dim=config.get("model.feature_dim"),
        seed=config.get("model.seed"),
    )


def _cmd_pretrain(config: RunConfig, out: Path, seed_override) -> dict:
    dataset = _read_dataset(out / "id_train.feat")
    model = _build_model_from_config(config, dataset.input_dim, dataset.class_count)
    adv = None
    if config.get("pretrain.adversarial"):
        adv = contrastive.AdversarialSpec(
            epsilon=config.get("pretrain.adv_epsilon"),
            steps=config.get("pretrain.adv_steps"),
            step_size=config.get("pretrain.adv_step_size"),
        )
    cfg = contrastive.PretrainConfig(
        epochs=config.get("pretrain.epochs"),
        batch_size=config.get("pretrain.batch_size"),
        lr=config.get("pretrain.lr"),
        momentum=config.get("pretrain.momentum"),
        aug=contrastive.AugmentationSpec(
            gaussian_sigma=config.get("pretrain.aug_gaussian_sigma"),
            mask_fraction=config.get("pretrain.aug_mask_fraction"),
            scale_jitter=config.get("pretrain.aug_scale_jitter"),
        ),
        adv=adv,
        seed=_stage_seed(config, "pretrain", seed_override),
    )
    model, history = contrastive.pretrain(model, dataset, cfg)
    artifacts = {"model": out / "pretrain.ckpt", "pretrain_history": out / "pretrain_history.json"}
    encoder.save_model(artifacts["model"], model)
    _json_dump(artifacts["pretrain_history"], history)
    return artifacts


def _cmd_train(config: RunConfig, out: Path, seed_override) -> dict:
    dataset = _read_dataset(out / "id_train.feat")
    pretrained = out / "pretrain.ckpt"
    if pretrained.exists():
        model = encoder.load_model(pretrained)
    else:
        model = _build_model_from_config(config, dataset.input_dim, dataset.class_count)
    cfg = encoder.TrainConfig(
        epochs=config.get("train.epochs"),
        batch_size=config.get("train.batch_size"),
        lr=config.get("train.lr"),
        momentum=config.get("train.momentum"),
        mu=config.get("train.mu"),
        seed=_stage_seed(config, "train", seed_override),
        contrastive=config.get("train.contrastive"),
        aug_gaussian_sigma=config.get("train.aug_gaussian_sigma"),
        input_noise=config.get("train.input_noise"),
        grad_clip=config.get("train.grad_clip"),
    )
    model, history = encoder.train(model, dataset, cfg)
    artifacts = {"model": out / "model.ckpt", "train_history": out / "train_history.json"}
    encoder.save_model(artifacts["model"], model)
    _json_dump(artifacts["train_history"], {"history": history})
    return artifacts


def _cmd_fit(config: RunConfig, out: Path, seed_override) -> dict:
    dataset = _read_dataset(out / "id_train.feat")
    if dataset.labels is None:
        raise ContractViolation("fit requires a labeled id_train.feat")
    model = encoder.load_model(_need(out / "model.ckpt"))
    feats = encoder.features(model, dataset.inputs)
    subspaces = ood.fit_subspaces(
        feats,
        dataset.labels,
        quantile=config.get("ood.quantile"),
        abs_cosine=config.get("ood.abs_cosine"),
    )
    artifacts = {
        "subspaces": out / "subspaces.json",
        "id_train_features": out / "id_train_features.feat",
    }
    write_features(artifacts["id_train_features"], feats, dataset.labels)
    _json_dump(artifacts["subspaces"], ood.subspaces_to_dict(subspaces))
    return artifacts


def _load_scoring_state(out: Path):
    model = encoder.load_model(_need(out / "model.ckpt"))
    path = _need(out / "subspaces.json")
    try:
        payload = json.loads(path.read_text(encoding="utf-8"))
    except ValueError as exc:
        raise FormatError(f"{path} is not valid JSON: {exc}") from exc
    subspaces = ood.subspaces_from_dict(payload)
    dim = subspaces.direction_matrix().shape[0]
    if dim != model.feature_dim:
        raise FormatError(
            f"{path}: directions have length {dim}, "
            f"but the model's feature_dim is {model.feature_dim}"
        )
    return model, subspaces


def _resolve_target(out: Path, name: str) -> Path:
    candidate = out / name
    return candidate if candidate.exists() else _need(Path(name))


def _cmd_score(config: RunConfig, out: Path, seed_override) -> dict:
    model, subspaces = _load_scoring_state(out)
    target = _resolve_target(out, config.get("ood.target"))
    dataset = _read_dataset(target)
    abs_cosine = config.get("ood.abs_cosine")
    if config.get("ood.mode") == "single":
        feats = encoder.features(model, dataset.inputs)
        deltas, argmins = ood.uncertainty_scores(feats, subspaces, abs_cosine=abs_cosine)
        records = ood.angle_records(deltas, argmins, subspaces.threshold)
    else:
        records = ood.mc_score_records(
            model,
            subspaces,
            dataset.inputs,
            k_draws=config.get("ood.mc_draws"),
            noise_sigma=config.get("ood.mc_noise_sigma"),
            seed=_stage_seed(config, "ood", seed_override),
            abs_cosine=abs_cosine,
        )
    stem = target.stem
    artifacts = {f"{stem}_scores": out / f"{stem}_scores.csv"}
    ood.write_scores(artifacts[f"{stem}_scores"], records)
    return artifacts


def _cmd_corrupt(config: RunConfig, out: Path, seed_override) -> dict:
    target = _resolve_target(out, config.get("corruption.target"))
    dataset = _read_dataset(target)
    kind = _derived(config.get("corruption.kind"), "gaussian_noise")
    seed = _stage_seed(config, "corruption", seed_override)
    artifacts = {}
    severities = config.get("corruption.severities")
    for severity, corrupted in corruptions.severity_sweep(dataset, kind, severities, seed):
        name = f"{target.stem}_{kind}_s{severity}"
        artifacts[name] = out / f"{name}.feat"
        write_features(artifacts[name], corrupted.inputs, corrupted.labels)
    return artifacts


def _cmd_eval(config: RunConfig, out: Path, seed_override) -> dict:
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
    abs_cosine = config.get("ood.abs_cosine")

    def oriented_scores(inputs):
        """Scores of raw inputs, higher meaning more in-distribution, with the
        features and, under rodd, the (deltas, argmin classes) they come from."""
        feats = encoder.features(model, inputs)
        if method == "msp":
            return encoder.softmax(encoder.head_logits(model, feats)).max(axis=1), feats, None
        deltas, argmins = ood.uncertainty_scores(feats, subspaces, abs_cosine=abs_cosine)
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
        seed = _stage_seed(config, "corruption", seed_override)
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
    artifacts = {"eval_json": out / "eval.json", "eval_csv": out / "eval.csv"}
    payload = {"method": method, "id_accuracy": id_accuracy, "rows": rows}
    _json_dump(artifacts["eval_json"], payload)
    lines = [",".join(rows[0])] + [
        ",".join(repr(v) if isinstance(v, float) else str(v) for v in row.values())
        for row in rows
    ]
    artifacts["eval_csv"].write_text("\n".join(lines) + "\n", encoding="utf-8")
    if method == "rodd":
        for name, angles in (("id_test", id_angles), ("ood", ood_angles)):
            artifacts[f"{name}_scores"] = out / f"{name}_scores.csv"
            records = ood.angle_records(*angles, subspaces.threshold)
            ood.write_scores(artifacts[f"{name}_scores"], records)
    return artifacts


def _cmd_verify_theory(config: RunConfig, out: Path, seed_override) -> dict:
    seed = _stage_seed(config, "theory", seed_override)
    sizes = config.get("theory.class_sizes")
    graph = theory.build_adjacency(
        sizes,
        config.get("theory.delta"),
        config.get("theory.eta"),
        seed,
        config.get("theory.normalization"),
    )
    d = _derived(config.get("theory.d"), graph.n)
    proj = orthonormal_init(d, len(sizes), seed + 1)
    opts = theory.SolveOptions(
        max_iters=config.get("theory.max_iters"), tol=config.get("theory.tol"), seed=seed
    )
    mu = config.get("theory.mu")
    solved = {}
    sweep = theory.mu_sweep(
        graph, proj, sorted(config.get("theory.mu_values")), opts, results=solved
    )
    # The sweep starts every mu from the init solve_joint would use, so its
    # solve at the headline mu is the lemma's solve.
    result = solved.get(mu) or theory.solve_joint(graph, proj, mu, opts)
    lemma_report = theory.verify_lemma(graph, result)
    artifacts = {"theory_report": out / "theory_report.json"}
    _json_dump(artifacts["theory_report"], {"mu": mu, "lemma": lemma_report, "sweep": sweep})
    return artifacts


_HANDLERS = {
    "synth": _cmd_synth,
    "pretrain": _cmd_pretrain,
    "train": _cmd_train,
    "fit": _cmd_fit,
    "score": _cmd_score,
    "eval": _cmd_eval,
    "corrupt": _cmd_corrupt,
    "verify-theory": _cmd_verify_theory,
}


if __name__ == "__main__":
    main()
