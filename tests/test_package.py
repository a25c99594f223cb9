"""Package hygiene: each module's ``__all__`` names exactly what it defines."""

import importlib
import inspect
import pkgutil

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
