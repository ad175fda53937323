"""Per-solve audit of verify-theory, for diffing two checkouts of the solver.

    PYTHONPATH=src python tests/theory_audit.py FIRST LAST [--config PATH] > new.jsonl
    python tests/theory_audit.py --compare old.jsonl new.jsonl

The first form runs verify-theory's own solves for every theory.seed from
FIRST to LAST inclusive: the graph, rank d and solver options are the ones
rodd.cli builds from the config with that seed.  Without --config the
config is the theory-scale benchmark's (bench/run.py's THEORY_CFG: three
classes of 16, d = 12, delta = 0.05).  It prints one JSON line per
(seed, mu) solved, the mu sweep's rows and a separate lemma solve when
theory.mu is not listed: iterations, lemma_pass, converged, the final loss,
grad_norm and the per-class singular values the report's tails are read
from.  The solver comes from whatever rodd PYTHONPATH names, so
running it once against a parent checkout's src/ and once against this one
gives the two files to compare.  The recording wrapper forwards
solve_joint's arguments as rodd.cli passes them, (graph, d, mu, opts), and
reads only the graph and mu, so one copy of this script audits either side
of a change that keeps that order.

The second form is the gate a change to the solver must pass: no
lemma_pass or converged flag may flip and no final loss may rise by more
than 1e-10 relative.  It prints the total steps before and after, the flips,
the largest relative loss excess, the quantiles of the new/old grad_norm
ratio and the largest sigma change relative to its class's sigma_1, and
exits 1 when the gate fails; the sigma line is printed only, not gated.
The pytest collection skips this file, since its name has no test_ prefix;
tests/test_theory.py's TestAudit runs both forms in-process.
"""

from __future__ import annotations

import argparse
import ast
import json
import statistics
import sys
from pathlib import Path

BENCH = Path(__file__).resolve().parents[1] / "bench"
LOSS_SLACK = 1e-10  # the largest relative rise of a final loss the gate allows


def audit(config_text: str, seeds) -> None:
    import numpy as np

    from rodd import cli, theory
    from rodd.data import parse_config

    solve_joint = theory.solve_joint
    lines = []

    def recording(graph, d, mu, opts):
        result = solve_joint(graph, d, mu, opts)
        lines.append({
            "mu": mu,
            "iterations": result.iterations,
            "lemma_pass": theory.verify_lemma(graph, result)["pass"],
            "converged": result.converged,
            "loss": result.loss_trace[-1],
            "grad_norm": result.grad_norm,
            "sigma": [sigma.tolist() for sigma in result.per_class_sigma],
        })
        return result

    config = parse_config(config_text)
    theory.solve_joint = recording
    try:
        for seed in seeds:
            lines.clear()
            with np.errstate(all="ignore"):  # as rodd.cli.run runs its stages
                for _ in cli._cmd_verify_theory(config, None, seed):
                    pass
            for line in lines:
                print(json.dumps({"seed": seed, **line}))
    finally:
        theory.solve_joint = solve_joint


def theory_scale_config() -> str:
    """bench/run.py's THEORY_CFG with its values, read from the runner's
    source: importing it would pin BLAS threads and write a bytecode cache."""
    tree = ast.parse((BENCH / "run.py").read_text())
    run = {
        node.targets[0].id: ast.literal_eval(node.value)
        for node in tree.body
        if isinstance(node, ast.Assign) and getattr(node.targets[0], "id", "").startswith("THEORY_")
    }
    return run["THEORY_CFG"].format(
        sizes=run["THEORY_SIZES"], d=run["THEORY_D"], delta=run["THEORY_DELTA"],
        mu_values=run["THEORY_MU_VALUES"], seed=0,
    )


def compare(old_path: str, new_path: str) -> bool:
    """Print the gate's summary of two audits; True when the gate passes."""

    def read(path):
        rows = (json.loads(line) for line in Path(path).read_text().splitlines())
        return {(row["seed"], row["mu"]): row for row in rows}

    old, new = read(old_path), read(new_path)
    if old.keys() != new.keys():
        print(f"the audits cover different solves: {len(old)} against {len(new)}")
        return False
    flips = [
        (key, flag) for key in old for flag in ("lemma_pass", "converged")
        if old[key][flag] != new[key][flag]
    ]
    excess = {
        key: (new[key]["loss"] - old[key]["loss"]) / max(1.0, abs(old[key]["loss"]))
        for key in old
    }
    worst = max(excess, key=excess.get)
    ratios = sorted(
        new[key]["grad_norm"] / old[key]["grad_norm"] for key in old if old[key]["grad_norm"] > 0
    )
    quartiles = statistics.quantiles(ratios, n=4) if len(ratios) > 1 else ratios * 3
    print(f"solves: {len(old)}")
    print(
        "steps: "
        f"{sum(row['iterations'] for row in old.values())} -> "
        f"{sum(row['iterations'] for row in new.values())}"
    )
    print(f"flag flips: {len(flips)} {flips[:10]}")
    print(f"largest relative loss excess: {excess[worst]:.3e} at (seed, mu) = {worst}")
    moved = {
        key: max(
            max(abs(a - b) for a, b in zip(was, now, strict=True)) / (was[0] or 1.0)
            for was, now in zip(old[key]["sigma"], new[key]["sigma"], strict=True)
        )
        for key in old
    }
    most = max(moved, key=moved.get)
    print(f"largest sigma change: {moved[most]:.3e} of sigma_1 at (seed, mu) = {most}")
    if ratios:
        print(
            f"grad_norm new/old: min {ratios[0]:.3g}, quartiles "
            + "/".join(f"{q:.3g}" for q in quartiles)
            + f", max {ratios[-1]:.3g}"
        )
    return not flips and excess[worst] <= LOSS_SLACK


def main(argv=None) -> int:
    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    parser.add_argument("seeds", nargs="*", type=int, help="FIRST LAST theory.seed, inclusive")
    parser.add_argument("--config", help="a config with a [theory] section")
    parser.add_argument("--compare", nargs=2, metavar=("OLD", "NEW"), help="two audit outputs")
    args = parser.parse_args(argv)
    if args.compare:
        return 0 if compare(*args.compare) else 1
    if len(args.seeds) != 2:
        parser.error("give FIRST and LAST seed, or --compare OLD NEW")
    text = Path(args.config).read_text() if args.config else theory_scale_config()
    audit(text, range(args.seeds[0], args.seeds[1] + 1))
    return 0


if __name__ == "__main__":
    sys.exit(main())
