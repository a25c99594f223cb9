"""Package hygiene: each module's ``__all__`` names exactly what it defines,
and every package name the benchmark uses exists."""

import ast
import importlib
import inspect
import pkgutil
from pathlib import Path

import rtm3d


def test_all_resolves_and_lists_every_public_definition():
    names = ["rtm3d"] + [f"rtm3d.{m.name}" for m in pkgutil.iter_modules(rtm3d.__path__)]
    modules = [importlib.import_module(name) for name in names]
    # The command-line module is an entry point and exports nothing.
    assert [m.__name__ for m in modules if not hasattr(m, "__all__")] == ["rtm3d.cli"]
    problems = []
    for mod in modules:
        if not hasattr(mod, "__all__"):
            continue
        problems += [f"{mod.__name__}.{n} is listed but undefined" for n in mod.__all__ if not hasattr(mod, n)]
        problems += [
            f"{mod.__name__}.{n} is public but not listed"
            for n, v in vars(mod).items()
            if (inspect.isfunction(v) or inspect.isclass(v))
            and v.__module__ == mod.__name__
            and not n.startswith("_")
            and n not in mod.__all__
        ]
    assert not problems, "\n".join(problems)


def _bench_names(path: Path) -> list[tuple[str, str]]:
    """(module, name) of each ``rtm3d`` name a script imports, or reads as
    ``module.name`` from a module it imported by name."""
    tree = ast.parse(path.read_text())
    submodules = {m.name for m in pkgutil.iter_modules(rtm3d.__path__)}
    modules, names = {}, []  # local name -> rtm3d module; (module, name) pairs
    for node in ast.walk(tree):
        if isinstance(node, ast.ImportFrom) and node.level == 0 and (node.module or "").split(".")[0] == "rtm3d":
            for a in node.names:
                if node.module == "rtm3d" and a.name in submodules:
                    modules[a.asname or a.name] = f"rtm3d.{a.name}"
                else:
                    names.append((node.module, a.name))
    for node in ast.walk(tree):
        if isinstance(node, ast.Attribute) and isinstance(node.value, ast.Name) and node.value.id in modules:
            names.append((modules[node.value.id], node.attr))
    return names


def test_bench_uses_only_names_the_package_defines():
    # The benchmark's scripts change only with the benchmark, so a refactor
    # must not delete or rename a package name they use.
    scripts = sorted((Path(__file__).parents[1] / "bench").glob("*.py"))
    used = {pair for path in scripts for pair in _bench_names(path)}
    assert len(used) > 20
    missing = sorted(f"{mod}.{name}" for mod, name in used if not hasattr(importlib.import_module(mod), name))
    assert not missing, missing
