"""Every function defined in src/rodd must be reached by a CLI stage, or be
named here with its reason: the function-level twin of
test_bench_configs.py's audit of config keys.  Every name a module imports
must be read by it, too.

The test runs every stage under a profiler on two small variants of
configs/demo.cfg, plus verify-theory on configs/theory.cfg, and collects the
code objects that were called, on the main thread and on the Monte-Carlo
scoring helper.  A function that no stage reaches is a second entry point or a
test-only switch: remove it, or name it below.
"""

import ast
import importlib
import os
import sys
import threading
from pathlib import Path

import rodd
from rodd.cli import run

SRC = Path(rodd.__file__).resolve().parent
CONFIGS = Path(__file__).resolve().parents[1] / "configs"
STAGES = ("synth", "pretrain", "train", "fit", "score", "corrupt", "eval", "verify-theory")
# Functions and properties no stage reaches, each with the reason it stays.
UNREACHED = {
    "cli.main": "the console script; the stages run through cli.run",
    "corruptions.apply_corruption": "bench/tracing.py wraps it (ROADMAP item 8)",
    "ood.mc_detect": "bench/tracing.py wraps it (ROADMAP item 8)",
    "ood.ScoreTable.records": "only mc_detect calls it",
    "data.read_cifar_binary": "acceptance criterion 11",
    "errors.DegenerateFeatureError.__init__": "raised only on failure",
    "errors.DivergenceError.__init__": "raised only on failure",
}


def defined_functions() -> dict:
    """(file, first line) -> module-relative dotted name of every def in
    src/rodd; a decorated def starts at its first decorator, as its code
    object does."""
    found = {}

    def visit(node, path, prefix):
        for child in ast.iter_child_nodes(node):
            if isinstance(child, (ast.FunctionDef, ast.AsyncFunctionDef)):
                first = min([child.lineno] + [d.lineno for d in child.decorator_list])
                found[(str(path), first)] = f"{prefix}.{child.name}"
                visit(child, path, f"{prefix}.{child.name}")
            elif isinstance(child, ast.ClassDef):
                visit(child, path, f"{prefix}.{child.name}")
            else:
                visit(child, path, prefix)

    for path in sorted(SRC.glob("*.py")):
        visit(ast.parse(path.read_text(encoding="utf-8")), path, path.stem)
    return found


def clear_caches() -> set:
    """Clear every functools cache defined in src/rodd, at module or class
    level, and return their dotted names: a function whose cache is warm
    from an earlier test is not called, so the profiler would not see it."""
    cleared = set()
    for path in sorted(SRC.glob("*.py")):
        module = importlib.import_module("rodd" if path.stem == "__init__" else f"rodd.{path.stem}")
        owners = [(path.stem, vars(module))]
        owners += [
            (f"{path.stem}.{name}", vars(obj)) for name, obj in vars(module).items()
            if isinstance(obj, type) and obj.__module__ == module.__name__
        ]
        for prefix, namespace in owners:
            for name, obj in namespace.items():
                if hasattr(obj, "cache_clear") and obj.__module__ == module.__name__:
                    obj.cache_clear()
                    cleared.add(f"{prefix}.{name}")
    return cleared


def small_demo(mode: str, method: str, apply_to: str) -> str:
    """configs/demo.cfg at a tenth of its size, one epoch per training stage.
    Monte-Carlo scoring of its 80 id_test rows takes two chunks of draws, so
    the scoring helper starts."""
    text = (CONFIGS / "demo.cfg").read_text(encoding="utf-8")
    for old, new in (
        ("per_class = 500", "per_class = 40"), ("test_per_class = 250", "test_per_class = 20"),
        ("ood_n = 1500", "ood_n = 80"), ("hidden_sizes = 128,64", "hidden_sizes = 16"),
        ("epochs = 20", "epochs = 1"), ("epochs = 40", "epochs = 1"),
        ("severities = 1,2,3,4,5", "severities = 1,5"), ("mode = single", f"mode = {mode}"),
        ("method = rodd", f"method = {method}"), ("apply_to = ood", f"apply_to = {apply_to}"),
    ):
        assert old in text, old
        text = text.replace(old, new)
    return text


def test_every_function_is_reached_or_named(tmp_path):
    runs = []
    for variant in (("single", "rodd", "ood"), ("mc", "msp", "id")):
        out = tmp_path / "-".join(variant)
        out.mkdir()
        (out / "run.cfg").write_text(small_demo(*variant), encoding="utf-8")
        runs += [[stage, "--config", str(out / "run.cfg"), "--out", str(out), "--seed", "5"]
                 for stage in STAGES]
    theory_cfg = str(CONFIGS / "theory.cfg")
    runs.append(["verify-theory", "--config", theory_cfg, "--out", str(tmp_path / "theory")])

    called = set()

    def profile(frame, event, arg):
        if event == "call":
            called.add((frame.f_code.co_filename, frame.f_code.co_firstlineno))

    # batch_adjacency runs only when view_pair_adjacency's cache misses, and
    # _GaugeStep.__init__ only when _gauge_step's does.
    assert {"contrastive.view_pair_adjacency", "theory._gauge_step"} <= clear_caches()
    threading.setprofile(profile)
    sys.setprofile(profile)
    try:
        codes = [run(argv) for argv in runs]
    finally:
        sys.setprofile(None)
        threading.setprofile(None)
    assert codes == [0] * len(runs)
    reached = {(os.path.realpath(name), line) for name, line in called}
    defined = defined_functions()
    assert set(UNREACHED) <= set(defined.values())
    assert {name for key, name in defined.items() if key not in reached} == set(UNREACHED)


def unread_imports(source: str) -> list[str]:
    """The names source imports and never reads, outside __future__ imports
    and the names it lists in __all__, each as 'line: name'."""
    tree = ast.parse(source)
    imported, read, exported = {}, set(), set()
    for node in ast.walk(tree):
        if isinstance(node, ast.Import):
            for alias in node.names:
                imported[alias.asname or alias.name.partition(".")[0]] = node.lineno
        elif isinstance(node, ast.ImportFrom) and node.module != "__future__":
            for alias in node.names:
                imported[alias.asname or alias.name] = node.lineno
        elif isinstance(node, ast.Name) and isinstance(node.ctx, ast.Load):
            read.add(node.id)
        elif isinstance(node, ast.Assign) and any(
            isinstance(target, ast.Name) and target.id == "__all__" for target in node.targets
        ):
            exported.update(ast.literal_eval(node.value))
    return [f"{line}: {name}" for name, line in imported.items() if name not in read | exported]


def test_unread_imports_are_found():
    source = (
        "from __future__ import annotations\nimport os.path\nimport numpy as np\n"
        "from .a import b, c as d, e\n__all__ = ['e']\nx = np.zeros(1)\nd()\n"
    )
    assert unread_imports(source) == ["2: os", "4: b"]


def test_every_import_is_read():
    unread = [
        f"{path.name}:{entry}" for path in sorted(SRC.glob("*.py"))
        for entry in unread_imports(path.read_text(encoding="utf-8"))
    ]
    assert unread == []
