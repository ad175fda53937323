"""Benchmark of the rodd pipeline: one workload per invocation.

    python3 bench/run.py --workload pipeline-demo --seed 1 --seconds 30 --trace 0

Run from the root of a source checkout; the program is imported from
``src/`` and driven in-process through ``rodd.cli.run``.  The runner writes
each workload's config and inputs itself into ``.bench_runs/`` and removes
its run directory at the end.

A run sets the workload up several times (``setup_s`` is the median import
time in a fresh interpreter plus the median set-up), runs one untimed
warm-up repetition of the timed stages, then repeats them, each time in a
fresh copy of the set-up directory, until ``--seconds`` have passed, and
reports their median.  The host's speed drifts by itself, so a fixed
calibration kernel runs before every stage call and the reported times are
scaled to the speed at which that kernel takes ``CAL_REFERENCE_S``; the raw
wall times go to stderr.  Every CLI stage call is one operation; a
non-zero exit code, an escaped exception or a failed output check counts it
as failed.  With ``--trace 1`` the timed repetitions run under the tracer of
``tracing.py`` and the per-layer metrics are printed instead.  The last line
of standard output is the JSON result; a per-stage summary goes to stderr.
"""

from __future__ import annotations

import os
import sys

# One BLAS/OpenMP thread, set before numpy loads: with two OpenBLAS threads a
# theory loss evaluation at N = 150 took 2.84 ms instead of 0.094 ms.
for _var in ("OPENBLAS_NUM_THREADS", "OMP_NUM_THREADS", "MKL_NUM_THREADS"):
    os.environ[_var] = "1"
# Leave no bytecode caches in the checkout.
sys.dont_write_bytecode = True

import argparse  # noqa: E402
import json  # noqa: E402
import resource  # noqa: E402
import shutil  # noqa: E402
import statistics  # noqa: E402
import subprocess  # noqa: E402
import time  # noqa: E402
import traceback  # noqa: E402
from dataclasses import dataclass  # noqa: E402
from pathlib import Path  # noqa: E402
from typing import Callable  # noqa: E402

from tracing import COUNT_NAMES, LAYER_NAMES, Tracer  # noqa: E402

# numpy, rodd and the checks are imported inside functions: the runner
# only needs them once it has checked that the program source is there.
ROOT = Path(__file__).resolve().parent.parent
SETUP_REPS = 3
MIN_REPS = 3
# One import in a fresh interpreter took 0.10-0.18 s from call to call.
IMPORT_PROBES = 9
# The calibration kernel: CAL_PRODUCTS products of a fixed CAL_N x CAL_N
# float64 matrix with itself.  It shares nothing with the program and does not
# depend on --seed.  CAL_REFERENCE_S is its median time on the reference
# machine of README.md, so reported times read close to that machine's wall
# times.
CAL_N = 300
CAL_PRODUCTS = 10
CAL_REFERENCE_S = 0.012

# configs/demo.cfg with the run's seeds in every section but [synth]: the
# documented quality floor is stated for the shipped data (synth seed 7).
DEMO_CFG = """\
[synth]
classes = 4
per_class = 500
test_per_class = 250
input_dim = 32
separation = 6.0
noise_sigma = 1.0
ood_n = 1500
ood_offset_norm = 9.0
ood_noise_sigma = 0.5
ood_direction_seed = 179
scale_to_unit = true
seed = 7

[model]
hidden_sizes = 128,64
feature_dim = 16
seed = {s[1]}

[pretrain]
epochs = 20
batch_size = 64
lr = 0.02
momentum = 0.9
aug_gaussian_sigma = 0.02
seed = {s[2]}

[train]
epochs = 40
batch_size = 64
lr = 0.05
momentum = 0.9
input_noise = 0.7
seed = {s[3]}

[ood]
quantile = 0.95
mode = single
mc_draws = 50
mc_noise_sigma = 0.01
seed = {s[4]}

[eval]
tpr_target = 0.95
method = rodd

[corruption]
kind = gaussian_noise
severities = 1,2,3,4,5
apply_to = ood
seed = {s[5]}
"""

WIDE_CFG = """\
[synth]
classes = 10
per_class = 600
test_per_class = 200
input_dim = 64
separation = 6.0
noise_sigma = 1.0
ood_n = 2000
ood_offset_norm = 9.0
ood_noise_sigma = 0.5
ood_direction_seed = 179
scale_to_unit = true
seed = {s[0]}

[model]
hidden_sizes = 128,64
feature_dim = 32
seed = {s[1]}

[pretrain]
epochs = 2
batch_size = 128
lr = 0.02
momentum = 0.9
aug_gaussian_sigma = 0.02
seed = {s[2]}

[train]
epochs = 4
batch_size = 128
lr = 0.05
momentum = 0.9
input_noise = 0.7
seed = {s[3]}

[ood]
quantile = 0.95
mode = mc
mc_draws = 50
mc_noise_sigma = 0.01
target = mc.feat
seed = {s[4]}

[eval]
tpr_target = 0.95
method = rodd

[corruption]
kind = gaussian_noise
severities = 1,2,3,4,5
apply_to = ood
seed = {s[5]}
"""

THEORY_CFG = """\
[theory]
class_sizes = {sizes}
delta = {delta}
eta = 0.0
normalization = unit-spectral-per-block
d = {d}
mu = 0.0001
mu_values = {mu_values}
max_iters = 4000
lr = 0.05
tol = 1e-12
seed = {seed}
"""

# The shipped quality floor of the demo experiment, and a floor for the
# short fine-tune of detect-wide set well below what any working detector
# reaches there (clean AUROC about 0.9).
DEMO_FLOOR = {"accuracy": 0.95, "auroc": 0.95, "fpr95": 0.20}
WIDE_FLOOR = {"accuracy": 0.80, "auroc": 0.70, "fpr95": 0.95}
MC_TARGET_ROWS = 1000  # taken from each of id_test and ood
THEORY_PROBLEMS = 4
THEORY_SIZES = "16,16,16"
THEORY_D = 12
THEORY_DELTA = 0.05
THEORY_MU_VALUES = "1e-6,1e-4,1e-2,1,100"


@dataclass
class Workload:
    setup_stages: list[str]
    # (stage, config) pairs one timed repetition runs in order; a stage writes
    # into the directory that holds its config.
    timed: list[tuple[str, str]]
    # Files a repetition writes that must be byte-identical across
    # repetitions, each with the stage that writes it.
    outputs: dict[str, str]
    configs: dict[str, str]
    # Output checks of one repetition directory: (stage, failure) pairs.
    check: Callable[[Path], list[tuple[str, str]]]
    prepare: Callable[[Path], None] | None = None


def make_workload(name: str, seed: int) -> Workload:
    import numpy as np

    s = [int(v) for v in np.random.SeedSequence(seed).generate_state(8)]
    if name == "pipeline-demo":
        return Workload(
            setup_stages=["synth"],
            timed=[(st, "run.cfg") for st in ("pretrain", "train", "corrupt", "fit", "eval")],
            outputs={
                "model.ckpt": "train", "ood_gaussian_noise_s5.feat": "corrupt",
                "subspaces.json": "fit", "eval.json": "eval", "eval.csv": "eval",
                "id_test_scores.csv": "eval", "ood_scores.csv": "eval",
            },
            configs={"run.cfg": DEMO_CFG.format(s=s)},
            check=lambda out: check_detector(out, DEMO_FLOOR),
        )
    if name == "detect-wide":
        return Workload(
            setup_stages=["synth", "pretrain", "train"],
            timed=[(st, "run.cfg") for st in ("fit", "eval", "score")],
            outputs={
                "subspaces.json": "fit", "eval.json": "eval", "eval.csv": "eval",
                "id_test_scores.csv": "eval", "ood_scores.csv": "eval",
                "mc_scores.csv": "score",
            },
            configs={"run.cfg": WIDE_CFG.format(s=s)},
            check=lambda out: check_detector(out, WIDE_FLOOR, mc_seed=s[4]),
            prepare=write_mc_target,
        )
    if name == "theory-scale":
        configs = {
            f"theory{j}/theory.cfg": THEORY_CFG.format(
                sizes=THEORY_SIZES, d=THEORY_D, delta=THEORY_DELTA,
                mu_values=THEORY_MU_VALUES, seed=s[j],
            )
            for j in range(THEORY_PROBLEMS)
        }
        return Workload(
            setup_stages=[],
            timed=[("verify-theory", c) for c in configs],
            outputs={f"theory{j}/theory_report.json": "verify-theory" for j in range(THEORY_PROBLEMS)},
            configs=configs,
            check=check_theory_problems,
        )
    raise ValueError(f"unknown workload {name!r}")


def check_detector(out: Path, floor: dict, mc_seed: int | None = None) -> list[tuple[str, str]]:
    import checks

    found = [("fit", e) for e in checks.check_fit(out, 0.95)]
    found += [("eval", e) for e in checks.check_eval(out, 0.95, floor)]
    if mc_seed is not None:
        found += [("score", e) for e in checks.check_mc(out, "mc.feat", 50, 0.01, mc_seed)]
    return found


def check_theory_problems(out: Path) -> list[tuple[str, str]]:
    import checks

    n_classes = len(THEORY_SIZES.split(","))
    return [
        ("verify-theory", f"theory{j}: {e}")
        for j in range(THEORY_PROBLEMS)
        for e in checks.check_theory(
            out / f"theory{j}" / "theory_report.json", THEORY_DELTA,
            THEORY_MU_VALUES.split(","), n_classes,
        )
    ]


def write_mc_target(out: Path) -> None:
    """mc.feat: the first ID test rows and the first OOD rows, unlabeled."""
    import numpy as np
    from checks import read_feat, write_feat

    id_x, _ = read_feat(out / "id_test.feat")
    ood_x, _ = read_feat(out / "ood.feat")
    write_feat(out / "mc.feat", np.vstack([id_x[:MC_TARGET_ROWS], ood_x[:MC_TARGET_ROWS]]))


class Runner:
    def __init__(self, workload: Workload, run_dir: Path, cli):
        self.workload = workload
        self.run_dir = run_dir
        self.cli = cli
        self.tracer = None
        self.attempted = 0
        self.failed = 0
        self.errors: list[str] = []
        self.digests: dict[str, str] | None = None
        self.cal_times: list[float] = []
        self._cal_matrix = None

    def calibrate(self) -> None:
        """Time the calibration kernel once and keep its time."""
        import numpy as np

        if self._cal_matrix is None:
            self._cal_matrix = np.random.default_rng(0).standard_normal((CAL_N, CAL_N))
        a = self._cal_matrix
        start = time.perf_counter()
        for _ in range(CAL_PRODUCTS):
            a @ a
        self.cal_times.append(time.perf_counter() - start)

    def stage(self, stage: str, rep_dir: Path, config: str) -> tuple[float, bool]:
        path = rep_dir / config
        argv = [stage, "--config", str(path), "--out", str(path.parent)]
        self.attempted += 1
        start = time.perf_counter()
        try:
            if self.tracer is not None:
                rc = self.tracer.span(f"cli.{stage}", self.cli.run, argv)
            else:
                rc = self.cli.run(argv)
        except Exception:  # an escaped exception fails this call, not the run
            rc = "an uncaught exception:\n" + traceback.format_exc()
        elapsed = time.perf_counter() - start
        if rc != 0:
            self.failed += 1
            self.errors.append(f"{stage} ({config}) exited with {rc}")
        return elapsed, rc == 0

    def setup(self, index: int) -> float:
        """Build the workload's inputs once: the time it took, at the reference speed."""
        rep_dir = self.run_dir / f"setup{index}"
        for name, text in self.workload.configs.items():
            (rep_dir / name).parent.mkdir(parents=True, exist_ok=True)
            (rep_dir / name).write_text(text, encoding="utf-8")
        self.calibrate()
        start = time.perf_counter()
        for stage in self.workload.setup_stages:
            self.stage(stage, rep_dir, "run.cfg")
        if self.workload.prepare is not None:
            self.workload.prepare(rep_dir)
        elapsed = time.perf_counter() - start
        self.calibrate()
        return elapsed * CAL_REFERENCE_S / statistics.fmean(self.cal_times[-2:])

    def check_setups(self) -> None:
        """Every set-up must write the same bytes, since each builds the same inputs."""
        from checks import file_digests

        first = self.run_dir / "setup0"
        names = sorted(p.name for p in first.iterdir() if p.is_file() and p.name != "run.json")
        for index in range(1, SETUP_REPS):
            if file_digests(first, names) != file_digests(self.run_dir / f"setup{index}", names):
                self.failed += 1
                self.errors.append(f"set-up {index} differs from set-up 0")

    def repetition(self, index: int) -> tuple[dict[str, float], float]:
        """Run the timed stages once: their wall times and the median kernel time between them."""
        rep_dir = self.run_dir / f"rep{index}"
        shutil.copytree(self.run_dir / "setup0", rep_dir)
        times: dict[str, float] = {}
        all_ok = True
        first_cal = len(self.cal_times)
        for stage, config in self.workload.timed:
            self.calibrate()
            elapsed, ok = self.stage(stage, rep_dir, config)
            times[stage] = times.get(stage, 0.0) + elapsed
            all_ok = all_ok and ok
        self.calibrate()
        if all_ok:
            self.check(rep_dir)
        shutil.rmtree(rep_dir)
        return times, statistics.median(self.cal_times[first_cal:])

    def check(self, rep_dir: Path) -> None:
        """Check the first repetition's outputs; later ones must repeat its bytes.

        Byte-identical outputs pass the same checks, so the full checks run
        once and the time they would take again goes into measuring.
        """
        from checks import file_digests

        found = []
        try:
            if self.digests is None:
                found = self.workload.check(rep_dir)
            digests = file_digests(rep_dir, self.workload.outputs)
        except (OSError, ValueError, KeyError, IndexError, TypeError) as exc:
            found, digests = [(self.workload.timed[-1][0], f"unreadable output: {exc!r}")], {}
        if self.digests is None:
            self.digests = digests
        for path, digest in digests.items():
            if digest != self.digests.get(path):
                found.append((self.workload.outputs[path], f"{path} differs from the first repetition"))
        # A failed check fails the stage call that wrote the checked file.
        self.failed += len({stage for stage, _ in found})
        self.errors += [f"{stage}: {message}" for stage, message in found]


STAGE_GROUPS = {
    "stage.train_s": ("pretrain", "train"),
    "stage.detect_s": ("corrupt", "fit", "eval"),
    "stage.score_s": ("score",),
    "stage.theory_s": ("verify-theory",),
}


def layer_metrics(tracer, times: dict[str, float]) -> dict[str, float]:
    """Per-layer values of one traced repetition."""
    values = {f"{layer}_s": tracer.self_s.get(layer, 0.0) for layer in LAYER_NAMES}
    values["cli.self_s"] = sum(v for k, v in tracer.self_s.items() if k.startswith("cli."))
    values.update({name: float(tracer.counts.get(name, 0)) for name in COUNT_NAMES})
    for name, stages in STAGE_GROUPS.items():
        values[name] = sum(times.get(stage, 0.0) for stage in stages)
    values["stage.total_s"] = sum(times.values())
    return values


PER_LAYER_UNITS = {
    **{f"{layer}_s": "s" for layer in LAYER_NAMES},
    "cli.self_s": "s",
    **{name: ("bytes" if name == "data.bytes" else "count") for name in COUNT_NAMES},
    **{name: "s" for name in STAGE_GROUPS},
    "stage.total_s": "s",
}


def import_seconds() -> float:
    """Wall time of importing numpy and rodd in a fresh interpreter, as each CLI call pays it."""
    code = "import time; t = time.perf_counter(); import numpy, rodd.cli; print(time.perf_counter() - t)"
    env = dict(os.environ, PYTHONPATH=str(ROOT / "src"), PYTHONDONTWRITEBYTECODE="1")
    done = subprocess.run(
        [sys.executable, "-c", code], env=env, capture_output=True, text=True, check=True, timeout=60
    )
    return float(done.stdout)


def parse_args(argv):
    parser = argparse.ArgumentParser(description=__doc__.split("\n")[0])
    parser.add_argument("--workload", required=True,
                        choices=("pipeline-demo", "detect-wide", "theory-scale"))
    parser.add_argument("--seed", type=int, required=True)
    parser.add_argument("--seconds", type=float, required=True)
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    args = parser.parse_args(argv)
    if args.seed < 0:
        parser.error("--seed must be >= 0")
    return args


def main(argv=None) -> int:
    args = parse_args(argv)
    if not (ROOT / "src" / "rodd" / "cli.py").is_file():
        print(f"error: no program source at {ROOT / 'src' / 'rodd'}", file=sys.stderr)
        return 2
    sys.path.insert(0, str(ROOT / "src"))
    from rodd import cli

    workload = make_workload(args.workload, args.seed)
    runs = ROOT / ".bench_runs"
    run_dir = runs / f"{args.workload}-{args.seed}-{os.getpid()}"
    shutil.rmtree(run_dir, ignore_errors=True)
    tracer = Tracer() if args.trace else None
    runner = Runner(workload, run_dir, cli)
    try:
        setup_times = [runner.setup(i) for i in range(SETUP_REPS)]
        runner.check_setups()
        runner.repetition(0)  # warm-up: fully checked, not timed
        if tracer is not None:
            tracer.install()
            runner.tracer = tracer
        reps = []
        scaled_totals = []
        deadline = time.perf_counter() + args.seconds
        while len(reps) < MIN_REPS or time.perf_counter() < deadline:
            if tracer is not None:
                tracer.reset()
            times, rep_cal_s = runner.repetition(len(reps) + 1)
            reps.append(layer_metrics(tracer, times) if tracer is not None else times)
            scaled_totals.append(sum(times.values()) * CAL_REFERENCE_S / rep_cal_s)
        if tracer is not None:
            tracer.uninstall()
            tracer.write(runs / f"trace-{args.workload}-{args.seed}.json")
    finally:
        shutil.rmtree(run_dir, ignore_errors=True)

    for error in runner.errors:
        print(f"check failed: {error}", file=sys.stderr)
    cal_s = statistics.median(runner.cal_times)
    print(f"{args.workload}: {len(reps)} timed repetitions, calibration kernel median "
          f"{cal_s * 1e3:.2f} ms over {len(runner.cal_times)} runs", file=sys.stderr)
    if tracer is not None:
        metrics = {
            name: {"value": statistics.median(r[name] for r in reps), "unit": unit}
            for name, unit in PER_LAYER_UNITS.items()
        }
        metrics["host.calibration_s"] = {"value": cal_s, "unit": "s"}
    else:
        per_stage = {st: statistics.median(r[st] for r in reps) for st in reps[0]}
        print("wall-time medians: " + ", ".join(f"{st} {t:.3f} s" for st, t in per_stage.items()),
              file=sys.stderr)
        print("repetition totals: " + " ".join(f"{sum(r.values()):.3f}" for r in reps), file=sys.stderr)
        # Times at the reference speed of the host: a set-up or a repetition
        # is scaled by the kernel runs around it, the import probes by the
        # kernel's median over the whole run.
        import_s = statistics.median(import_seconds() for _ in range(IMPORT_PROBES)) * CAL_REFERENCE_S / cal_s
        metrics = {
            "setup_s": {"value": import_s + statistics.median(setup_times), "unit": "s"},
            "stages_s": {"value": statistics.median(scaled_totals), "unit": "s"},
            "peak_rss_mb": {
                "value": resource.getrusage(resource.RUSAGE_SELF).ru_maxrss / 1024.0,
                "unit": "MB",
            },
        }
    result = {
        "correct": not runner.errors,
        "attempted": runner.attempted,
        "failed": runner.failed,
        "metrics": metrics,
    }
    print(json.dumps(result))
    return 0


if __name__ == "__main__":
    sys.exit(main())
