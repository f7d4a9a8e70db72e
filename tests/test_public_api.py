"""The package's public API holds only what the CLI or the acceptance
suite uses: every name in zvlab.__all__ must be imported by cli.py or by
tests/test_acceptance.py.  The worker count has one source, ZVLAB_THREADS,
read by the pool."""

import ast
from pathlib import Path

import zvlab

ROOT = Path(__file__).resolve().parents[1]
USERS = (ROOT / "src" / "zvlab" / "cli.py", ROOT / "tests" / "test_acceptance.py")


def imported_names(path: Path) -> set:
    """Names bound by `from zvlab... import` (absolute or relative) in a file."""
    names = set()
    for node in ast.walk(ast.parse(path.read_text(), filename=str(path))):
        if isinstance(node, ast.ImportFrom) and (
                node.level > 0 or (node.module or "").split(".")[0] == "zvlab"):
            names.update(alias.name for alias in node.names)
    return names


def test_every_export_is_used_by_cli_or_acceptance():
    used = set().union(*(imported_names(p) for p in USERS))
    unused = sorted(set(zvlab.__all__) - used)
    assert not unused, f"exported but used by neither cli nor acceptance: {unused}"
    assert len(set(zvlab.__all__)) == len(zvlab.__all__)
    for name in zvlab.__all__:
        assert hasattr(zvlab, name), name


def test_only_the_pool_takes_a_worker_count():
    takers = []
    for path in sorted((ROOT / "src" / "zvlab").glob("*.py")):
        for node in ast.walk(ast.parse(path.read_text(), filename=str(path))):
            if isinstance(node, (ast.FunctionDef, ast.AsyncFunctionDef, ast.Lambda)):
                a = node.args
                names = {x.arg for x in a.posonlyargs + a.args + a.kwonlyargs}
                if "workers" in names:
                    takers.append(f"{path.stem}.{getattr(node, 'name', '<lambda>')}")
    assert takers == ["parallel.run_tasks"]


def test_no_stage_takes_a_default():
    # a stage gets every ensemble it reads from the runner; a defaulted
    # parameter would let it simulate one for itself
    import inspect

    from zvlab import cli
    stages = [fn for name, fn in vars(cli).items() if name.startswith("stage_")]
    assert len(stages) == len(cli.STAGES)
    for fn in stages:
        defaulted = [p.name for p in inspect.signature(fn).parameters.values()
                     if p.default is not inspect.Parameter.empty]
        assert not defaulted, f"{fn.__name__} defaults {defaulted}"


def test_cli_decides_no_verdict():
    # every row's verdict and bound come from the check that measures it;
    # the CLI only lists checks, so it names no verdict but info and passes
    # no threshold
    tree = ast.parse((ROOT / "src" / "zvlab" / "cli.py").read_text())
    verdicts = [node.value for node in ast.walk(tree)
                if isinstance(node, ast.Constant)
                and node.value in ("pass", "fail", "inconclusive")]
    thresholds = [node.lineno for node in ast.walk(tree)
                  if isinstance(node, ast.keyword) and node.arg == "threshold"]
    assert not verdicts and not thresholds, (verdicts, thresholds)


def test_trace_patches_resolve(monkeypatch):
    # perfbench/spans.py wraps zvlab functions by name for
    # `perfbench/run.py --trace 1`; building the wrappers (without
    # installing them) fails on a name that a rename took away
    monkeypatch.syspath_prepend(str(ROOT / "perfbench"))
    import spans

    patches = spans._patches(spans.Recorder("guard"))
    for owner, attr, _ in patches:
        assert callable(getattr(owner, attr)), f"{owner.__name__}.{attr}"
    patched = {(owner.__name__, attr) for owner, attr, _ in patches}
    for module in ("zvlab.pde", "zvlab.zvonkin", "zvlab.cli"):
        assert (module, "solve_phi_system") in patched
